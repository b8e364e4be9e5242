//! Layer kernels: unit costs of the crates' public operations, timed from
//! outside at the operating point a verify pass observed (queue depth,
//! population and field, in-flight transmissions).  Multiplied by the
//! exact operation counts they size a layer's share of a run.

use crate::core::{Counts, Fleet, Metric, Variant};
use crate::fleet::Beacon;
use crate::span::Tracer;
use crate::stats::median;
use ecgrid_bench::core_scaling::{build_world, discovery_sweep, RANGE_M};
use grid_common::{elect_gateway, HelloInfo, RouteTable};
use manet::sim_engine::{CalendarQueue, EventQueue, PendingEvents, Scheduler, ShardedScheduler, SplitMix64};
use manet::trace::{Event, EventKind, Recorder, TraceMode};
use manet::{
    auto_gather_threshold, Battery, EnergyLevel, EnergyMeter, GridCoord, HostSetup, NeighborIndex, NodeId,
    Point2, PowerProfile, RadioMode, SimDuration, SimTime, SpatialIndex, World,
};
use metrics::PacketLedger;
use mobility::MobilityModel;
use radio::ChannelState;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Time `batch` (which returns how many operations it performed) until
/// 30 ms and at least five batches have passed (`quick`: two batches);
/// median ns per operation.  One `kernel.<name>` span covers the whole
/// measurement.
pub fn time_per_op(tr: &mut Tracer, name: &str, quick: bool, mut batch: impl FnMut() -> u64) -> f64 {
    let (min_batches, min_time) = if quick {
        (2, Duration::ZERO)
    } else {
        (5, Duration::from_millis(30))
    };
    tr.span(&format!("kernel.{name}"), |_| {
        black_box(batch()); // warm caches and lazily grown buffers
        let mut per_op = Vec::new();
        let start = Instant::now();
        while per_op.len() < min_batches || start.elapsed() < min_time {
            let t = Instant::now();
            let ops = black_box(batch()).max(1);
            per_op.push(t.elapsed().as_nanos() as f64 / ops as f64);
            if per_op.len() >= 200 {
                break;
            }
        }
        median(&per_op)
    })
}

/// Uniform points on the fleet's field.
fn scatter(fleet: &Fleet, n: usize, seed: u64) -> Vec<Point2> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| Point2::new(rng.next_f64() * fleet.field_w, rng.next_f64() * fleet.field_h))
        .collect()
}

/// Hold model: pop the earliest event, reinsert a random increment later.
fn hold<Q: PendingEvents<u64>>(q: &mut Q, rng: &mut SplitMix64, ops: u64) -> u64 {
    for _ in 0..ops {
        let (t, _, v) = q.pop_next().expect("the hold model never drains the queue");
        q.insert(SimTime(t.0 + 1 + rng.next_u64() % 1_000_000), v);
    }
    ops
}

fn prefilled<Q: PendingEvents<u64>>(mut q: Q, depth: usize) -> Q {
    let mut rng = SplitMix64::new(7);
    for i in 0..depth {
        q.insert(SimTime(rng.next_u64() % 1_000_000), i as u64);
    }
    q
}

/// In-flight transmissions to load the channel kernels with: frames on
/// the air per simulated second times a 1.5 ms mean airtime, at least one.
fn in_flight(counts: &Counts) -> usize {
    let per_sec = counts.tx_started as f64 / counts.sim_secs.max(1e-9);
    ((per_sec * 1.5e-3).ceil() as usize).max(1)
}

/// A channel carrying `k` overlapping transmissions, bucketed exactly
/// when the world would bucket it (population above the gather crossover).
fn loaded_channel(fleet: &Fleet, origins: &[Point2], k: usize) -> ChannelState {
    let mut ch = ChannelState::new(RANGE_M);
    if fleet.n > auto_gather_threshold(4) {
        ch.enable_spatial(fleet.field_w, fleet.field_h);
    }
    for (i, p) in origins.iter().cycle().take(k).enumerate() {
        ch.begin_tx(
            NodeId(i as u32),
            *p,
            RANGE_M,
            SimTime::from_millis(10),
            SimTime::from_millis(12),
        );
    }
    ch
}

/// Every common layer kernel at the operating point (`fleet`, `counts`).
/// `scn` is the scenario text `scenario.parse_us` parses; `scratch` a
/// directory the durable-write kernel may use; `quick` shortens every
/// measurement for the smoke pass.
pub fn measure(
    fleet: &Fleet,
    counts: &Counts,
    scn: &str,
    scratch: &Path,
    quick: bool,
    tr: &mut Tracer,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, x: f64| out.push(Metric::one(name, unit, x));
    let depth = counts.max_queue_depth.max(1);
    let points = scatter(fleet, fleet.n.max(2), fleet.seed);

    // ---- sim-engine ---------------------------------------------------
    let mut heap = prefilled(EventQueue::new(), depth);
    let mut rng = SplitMix64::new(13);
    push(
        "sim-engine.heap.hold_ns",
        "ns",
        time_per_op(tr, "sim-engine.heap.hold", quick, || {
            hold(&mut heap, &mut rng, 20_000)
        }),
    );
    let mut cal = prefilled(CalendarQueue::new(), depth);
    push(
        "sim-engine.calendar.hold_ns",
        "ns",
        time_per_op(tr, "sim-engine.calendar.hold", quick, || {
            hold(&mut cal, &mut rng, 20_000)
        }),
    );

    let mut sched: Scheduler<u32> = Scheduler::new();
    for i in 0..depth {
        sched.schedule_in(SimDuration::from_micros(1 + rng.next_u64() % 1_000_000), i as u32);
    }
    push(
        "sim-engine.sched.cycle_ns",
        "ns",
        time_per_op(tr, "sim-engine.sched.cycle", quick, || {
            for i in 0..10_000u32 {
                let h = sched.schedule_in(SimDuration::from_micros(1 + rng.next_u64() % 1_000_000), i);
                if i % 4 == 0 {
                    // a quarter of all timers are cancelled and re-armed
                    sched.cancel(h);
                    sched.schedule_in(SimDuration::from_micros(1 + rng.next_u64() % 1_000_000), i);
                }
                black_box(sched.next());
            }
            10_000
        }),
    );

    let mut sharded: ShardedScheduler<u32> = ShardedScheduler::new(4);
    for i in 0..depth {
        sharded.schedule_in(
            i % 4,
            SimDuration::from_micros(1 + rng.next_u64() % 1_000_000),
            i as u32,
        );
    }
    push(
        "sim-engine.sharded.pop_ns",
        "ns",
        time_per_op(tr, "sim-engine.sharded.pop", quick, || {
            for i in 0..10_000usize {
                black_box(sharded.next());
                sharded.schedule_in(
                    i % 4,
                    SimDuration::from_micros(1 + rng.next_u64() % 1_000_000),
                    i as u32,
                );
            }
            10_000
        }),
    );

    // ---- radio --------------------------------------------------------
    let mut index = SpatialIndex::new(fleet.field_w, fleet.field_h, RANGE_M);
    for (i, p) in points.iter().enumerate() {
        index.insert_at(i as u32, *p);
    }
    let mut scratch_ids = Vec::new();
    push(
        "radio.spatial.gather_ns",
        "ns",
        time_per_op(tr, "radio.spatial.gather", quick, || {
            for p in &points {
                index.query_point_sorted_into(*p, &mut scratch_ids);
                black_box(scratch_ids.len());
            }
            points.len() as u64
        }),
    );
    let targets = scatter(fleet, points.len(), fleet.seed ^ 0x5eed);
    push(
        "radio.spatial.move_ns",
        "ns",
        time_per_op(tr, "radio.spatial.move", quick, || {
            for (i, (p, q)) in points.iter().zip(&targets).enumerate() {
                let id = i as u32;
                index.move_to_point(id, *q);
                index.remove(id);
                index.insert_at(id, *p);
            }
            3 * points.len() as u64
        }),
    );

    let k = in_flight(counts);
    let channel = loaded_channel(fleet, &targets, k);
    let at = SimTime::from_millis(11);
    push(
        "radio.channel.busy_until_ns",
        "ns",
        time_per_op(tr, "radio.channel.busy_until", quick, || {
            for p in &points {
                black_box(channel.busy_until(*p, at));
            }
            points.len() as u64
        }),
    );
    push(
        "radio.channel.corrupted_ns",
        "ns",
        time_per_op(tr, "radio.channel.corrupted", quick, || {
            for (p, q) in points.iter().zip(&targets) {
                black_box(channel.corrupted(0, *q, *p, SimTime::from_millis(10), SimTime::from_millis(12)));
            }
            points.len() as u64
        }),
    );
    // registration + gc with the population held at k: each new frame
    // starts as the oldest one ends
    let mut rolling = loaded_channel(fleet, &targets, k);
    let mut clock = 12_000u64; // µs; every preloaded frame has ended by 12 ms
    push(
        "radio.channel.begin_tx_ns",
        "ns",
        time_per_op(tr, "radio.channel.begin_tx", quick, || {
            for p in points.iter().take(2_000) {
                let start = SimTime(clock * 1_000);
                rolling.gc_before(start);
                rolling.begin_tx(
                    NodeId(0),
                    *p,
                    RANGE_M,
                    start,
                    SimTime((clock + 2_000 * k as u64) * 1_000),
                );
                clock += 2_000;
            }
            points.len().min(2_000) as u64
        }),
    );

    // ---- mobility, traffic, world construction, scenario ----------------
    let model = fleet.waypoint();
    let rngs = manet::sim_engine::RngFactory::new(fleet.seed);
    let horizon = fleet.horizon();
    let mut host = 0u64;
    push(
        "mobility.build_trace_us",
        "us",
        time_per_op(tr, "mobility.build_trace", quick, || {
            for _ in 0..64 {
                host += 1;
                black_box(model.build_trace(&mut rngs.stream("mobility", host), horizon));
            }
            64
        }) / 1e3,
    );
    push(
        "traffic.flowset_build_us",
        "us",
        time_per_op(tr, "traffic.flowset_build", quick, || {
            black_box(fleet.flow_set());
            1
        }) / 1e3,
    );
    let traces = fleet.traces();
    let flows = fleet.flow_set();
    // only construction is timed: cloning the inputs and dropping the
    // world are not part of `World::new`
    let world_new_ms = tr.span("kernel.manet.world_new", |_| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let hosts: Vec<HostSetup> = traces.iter().cloned().map(HostSetup::paper).collect();
                let flows = flows.clone();
                let t = Instant::now();
                let world = World::new(fleet.config(Variant::Off), hosts, flows, |_| Beacon);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                black_box(world.node_count());
                ms
            })
            .collect();
        median(&samples)
    });
    push("manet.world_new_ms", "ms", world_new_ms);
    push(
        "scenario.parse_us",
        "us",
        time_per_op(tr, "scenario.parse", quick, || {
            black_box(scenario::parse(black_box(scn)).is_ok());
            1
        }) / 1e3,
    );

    let grid = fleet.grid();
    let end_ns = fleet.end().0.max(1);
    push(
        "mobility.position_at_ns",
        "ns",
        time_per_op(tr, "mobility.position_at", quick, || {
            for t in traces.iter().take(512) {
                black_box(t.position_at(SimTime(rng.next_u64() % end_ns)));
            }
            traces.len().min(512) as u64
        }),
    );
    push(
        "mobility.next_crossing_ns",
        "ns",
        time_per_op(tr, "mobility.next_crossing", quick, || {
            for t in traces.iter().take(512) {
                black_box(t.next_cell_crossing(&grid, SimTime(rng.next_u64() % end_ns)));
            }
            traces.len().min(512) as u64
        }),
    );

    // ---- energy ---------------------------------------------------------
    let mut meter = EnergyMeter::new(PowerProfile::paper_default(), Battery::infinite());
    let mut now_us = 0u64;
    const MODES: [RadioMode; 4] = [RadioMode::Tx, RadioMode::Idle, RadioMode::Rx, RadioMode::Sleep];
    push(
        "energy.set_mode_ns",
        "ns",
        time_per_op(tr, "energy.set_mode", quick, || {
            for i in 0..10_000usize {
                now_us += 500;
                black_box(meter.set_mode(SimTime(now_us * 1_000), MODES[i % 4]));
            }
            10_000
        }),
    );

    // ---- trace ----------------------------------------------------------
    let mut rec = Recorder::new(TraceMode::DigestOnly);
    push(
        "trace.emit_ns",
        "ns",
        time_per_op(tr, "trace.emit", quick, || {
            for i in 0..10_000u32 {
                rec.record(Event {
                    t: SimTime(u64::from(i)),
                    kind: EventKind::MacRx {
                        node: NodeId(i),
                        from: NodeId(i ^ 1),
                        bytes: 512,
                    },
                });
            }
            10_000
        }),
    );
    black_box(rec.digest());

    // ---- manet: receiver discovery through the world's own query --------
    let n = fleet.n.max(2);
    for (name, mode) in [
        ("manet.neighbors_of_ns", NeighborIndex::Grid),
        ("manet.neighbors_of_brute_ns", NeighborIndex::Brute),
    ] {
        let world = build_world(n, 1.0, mode, fleet.seed);
        push(
            name,
            "ns",
            time_per_op(tr, name.trim_end_matches("_ns"), quick, || {
                black_box(discovery_sweep(&world));
                n as u64
            }),
        );
    }

    // ---- grid-common ----------------------------------------------------
    let mut routes = RouteTable::new(SimDuration::from_secs(30));
    let cell = GridCoord::new(3, 3);
    for d in 0..64u32 {
        routes.upsert(NodeId(d), cell, NodeId(d + 1), 1, SimTime::ZERO);
    }
    push(
        "grid-common.route_lookup_ns",
        "ns",
        time_per_op(tr, "grid-common.route_lookup", quick, || {
            for d in 0..10_000u32 {
                black_box(routes.lookup(NodeId(d % 96), SimTime::from_secs(1)));
            }
            10_000
        }),
    );
    let mut seq = 1u32;
    push(
        "grid-common.route_insert_ns",
        "ns",
        time_per_op(tr, "grid-common.route_insert", quick, || {
            seq += 1;
            for d in 0..10_000u32 {
                black_box(routes.upsert(NodeId(d % 64), cell, NodeId(d % 7), seq, SimTime::from_secs(1)));
            }
            10_000
        }),
    );
    // a grid's election set: the paper density puts about one host per
    // cell, busy cells hold a handful
    let candidates: Vec<HelloInfo> = (0..6u32)
        .map(|i| HelloInfo {
            id: NodeId(i),
            grid: cell,
            gflag: i == 0,
            level: [EnergyLevel::Upper, EnergyLevel::Boundary, EnergyLevel::Lower][i as usize % 3],
            dist: 40.0 - f64::from(i) * 5.0,
        })
        .collect();
    push(
        "grid-common.elect_gateway_ns",
        "ns",
        time_per_op(tr, "grid-common.elect_gateway", quick, || {
            for i in 0..10_000u32 {
                black_box(elect_gateway(black_box(&candidates), i % 2 == 0));
            }
            10_000
        }),
    );

    // ---- metrics ----------------------------------------------------------
    push(
        "metrics.ledger.record_ns",
        "ns",
        time_per_op(tr, "metrics.ledger.record", quick, || {
            let mut ledger = PacketLedger::new();
            for seq in 0..5_000u64 {
                ledger.record_sent((0, seq), SimTime(seq));
                ledger.record_delivered((0, seq), SimTime(seq + 9));
            }
            black_box(ledger.delivered_count());
            5_000
        }),
    );

    // ---- service: pure kernels (the loopback ones need a server and
    // live in the service_jobs workload) -------------------------------------
    let submit = service::proto::Request::Submit(service::JobSpec::default()).encode();
    push(
        "service.proto.parse_ns",
        "ns",
        time_per_op(tr, "service.proto.parse", quick, || {
            for _ in 0..1_000 {
                black_box(service::proto::Request::parse(black_box(&submit)).is_ok());
            }
            1_000
        }),
    );
    let message = "replica 3 quarantined after 2 retries: \"budget exceeded\" at t=12.5s\n";
    push(
        "service.json.esc_ns",
        "ns",
        time_per_op(tr, "service.json.esc", quick, || {
            for _ in 0..1_000 {
                black_box(service::json::esc(black_box(message)));
            }
            1_000
        }),
    );
    let _ = std::fs::create_dir_all(scratch);
    let manifest = scratch.join("kernel-manifest.json");
    push(
        "service.fsutil.write_durable_us",
        "us",
        time_per_op(tr, "service.fsutil.write_durable", quick, || {
            service::fsutil::write_atomic_durable(&manifest, submit.as_bytes())
                .expect("the scratch directory is writable");
            1
        }) / 1e3,
    );
    let _ = std::fs::remove_file(&manifest);

    out
}
