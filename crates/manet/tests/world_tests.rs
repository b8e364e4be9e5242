//! Integration tests for the simulation framework, driven by the
//! instrumented `testkit::Probe` protocol.

use manet::testkit::{Probe, ProbeCfg, ProbeMsg};
use manet::{
    AppPacket, EventKind, FlowSet, FrameKind, GridCoord, HostSetup, NodeId, PageSignal, PowerProfile,
    RadioMode, SimDuration, SimTime, TraceMode, WireSize, World, WorldConfig,
};
use mobility::{MobilityTrace, Segment};
use radio::{mac, FrameMeta};
use std::sync::{Arc, Mutex};
use traffic::{CbrFlow, FlowId};

const HORIZON: SimTime = SimTime(3_000_000_000_000); // 3000 s

fn fixed(x: f64, y: f64) -> HostSetup {
    HostSetup::paper(MobilityTrace::stationary(geo::Point2::new(x, y), HORIZON))
}

fn world_with(hosts: Vec<HostSetup>, cfgs: Vec<ProbeCfg>, flows: FlowSet) -> World<Probe> {
    world_on(WorldConfig::paper_default(42), hosts, cfgs, flows)
}

fn world_on(cfg: WorldConfig, hosts: Vec<HostSetup>, cfgs: Vec<ProbeCfg>, flows: FlowSet) -> World<Probe> {
    assert_eq!(hosts.len(), cfgs.len());
    World::new(cfg, hosts, flows, move |id| Probe::new(cfgs[id.index()].clone()))
}

#[test]
fn broadcast_reaches_in_range_awake_hosts_only() {
    // node 0 at origin broadcasts; node 1 at 100 m (in range), node 2 at
    // 600 m (out of range), node 3 in range but asleep
    let hosts = vec![
        fixed(50.0, 50.0),
        fixed(150.0, 50.0),
        fixed(650.0, 50.0),
        fixed(50.0, 150.0),
    ];
    let cfgs = vec![
        ProbeCfg {
            broadcast_at_start: Some((7, 64)),
            ..Default::default()
        },
        ProbeCfg::default(),
        ProbeCfg::default(),
        ProbeCfg {
            sleep_at_start: true,
            ..Default::default()
        },
    ];
    let mut w = world_with(hosts, cfgs, FlowSet::default());
    w.run_until(SimTime::from_secs(1));
    assert_eq!(w.protocol(NodeId(1)).heard.len(), 1);
    assert_eq!(w.protocol(NodeId(1)).heard[0].0, NodeId(0));
    assert!(w.protocol(NodeId(2)).heard.is_empty(), "out of range");
    assert!(w.protocol(NodeId(3)).heard.is_empty(), "asleep");
    assert_eq!(w.stats().broadcasts, 1);
    assert_eq!(w.stats().frames_delivered, 1);
}

#[test]
fn unicast_is_acked_without_retransmission() {
    let hosts = vec![fixed(50.0, 50.0), fixed(150.0, 50.0)];
    let cfgs = vec![
        ProbeCfg {
            unicast_at_start: Some((NodeId(1), 9, 128)),
            ..Default::default()
        },
        ProbeCfg::default(),
    ];
    let mut w = world_with(hosts, cfgs, FlowSet::default());
    w.run_until(SimTime::from_secs(1));
    assert_eq!(
        w.protocol(NodeId(1)).heard,
        vec![(NodeId(0), ProbeMsg::Tag { tag: 9, bytes: 128 })]
    );
    assert_eq!(w.stats().unicasts, 1);
    assert_eq!(w.stats().retransmissions, 0);
    assert_eq!(w.stats().mac_drops, 0);
    assert!(w.protocol(NodeId(0)).failed_unicasts.is_empty());
}

#[test]
fn unicast_to_sleeping_host_retries_then_fails() {
    let hosts = vec![fixed(50.0, 50.0), fixed(150.0, 50.0)];
    let cfgs = vec![
        ProbeCfg {
            unicast_at_start: Some((NodeId(1), 9, 128)),
            ..Default::default()
        },
        ProbeCfg {
            sleep_at_start: true,
            ..Default::default()
        },
    ];
    let mut w = world_with(hosts, cfgs, FlowSet::default());
    w.run_until(SimTime::from_secs(2));
    assert!(w.protocol(NodeId(1)).heard.is_empty());
    assert_eq!(w.protocol(NodeId(0)).failed_unicasts, vec![NodeId(1)]);
    assert_eq!(w.stats().mac_drops, 1);
    // max_retries retransmissions were attempted
    assert_eq!(w.stats().retransmissions as u32, mac::MAX_RETRIES);
}

#[test]
fn ras_page_wakes_a_sleeping_host() {
    // the paper's 5 ms wake latency, then a slower paging receiver: the
    // sleeper's transceiver comes up exactly one latency after the page
    for (set_ms, want_ms) in [(None, 5), (Some(20), 20)] {
        let mut cfg = WorldConfig::paper_default(42);
        if let Some(ms) = set_ms {
            cfg.wake_latency = SimDuration::from_millis(ms);
        }
        let want = SimDuration::from_millis(want_ms);
        let hosts = vec![fixed(50.0, 50.0), fixed(150.0, 50.0)];
        let cfgs = vec![
            ProbeCfg {
                page_host_at_start: Some(NodeId(1)),
                ..Default::default()
            },
            ProbeCfg {
                sleep_at_start: true,
                ..Default::default()
            },
        ];
        let mut w = world_on(cfg, hosts, cfgs, FlowSet::default());
        w.enable_trace(TraceMode::Full);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node_mode(NodeId(1)), RadioMode::Idle);
        assert_eq!(w.protocol(NodeId(1)).pages, vec![PageSignal::Host(NodeId(1))]);
        assert_eq!(w.stats().pages_sent, 1);
        assert_eq!(w.stats().pages_woken, 1);
        let events = w.recorder().expect("tracing on").events();
        let paged = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::RasPage { .. }))
            .expect("one page")
            .t;
        let woken = events
            .iter()
            .find(|e| {
                matches!(
                    e.kind,
                    EventKind::RadioMode {
                        node: NodeId(1),
                        from: RadioMode::Sleep,
                        to: RadioMode::Idle,
                    }
                )
            })
            .expect("the sleeper wakes")
            .t;
        assert_eq!(woken.since(paged), want, "wake latency {want:?}");
    }
}

#[test]
fn ras_grid_page_wakes_everyone_in_the_grid() {
    // nodes 1 and 2 share grid (1,0) and sleep; node 3 sleeps in (5,5)
    let hosts = vec![
        fixed(50.0, 50.0),
        fixed(120.0, 50.0),
        fixed(180.0, 50.0),
        fixed(550.0, 550.0),
    ];
    let cfgs = vec![
        ProbeCfg {
            page_grid_at_start: Some(GridCoord::new(1, 0)),
            ..Default::default()
        },
        ProbeCfg {
            sleep_at_start: true,
            ..Default::default()
        },
        ProbeCfg {
            sleep_at_start: true,
            ..Default::default()
        },
        ProbeCfg {
            sleep_at_start: true,
            ..Default::default()
        },
    ];
    let mut w = world_with(hosts, cfgs, FlowSet::default());
    w.run_until(SimTime::from_secs(1));
    assert_eq!(w.node_mode(NodeId(1)), RadioMode::Idle);
    assert_eq!(w.node_mode(NodeId(2)), RadioMode::Idle);
    assert_eq!(
        w.node_mode(NodeId(3)),
        RadioMode::Sleep,
        "other grid stays asleep"
    );
    assert_eq!(w.stats().pages_woken, 2);
}

#[test]
fn hidden_terminal_broadcasts_collide_at_common_receiver() {
    // classic hidden terminal: 0 and 2 cannot carrier-sense each other
    // (480 m apart) but both reach 1 (240 m each); both broadcast at t=0,
    // the transmissions overlap at 1 -> both corrupted.  The frames are
    // sized so their airtime (2048 B ~ 8.2 ms at 2 Mb/s) exceeds the
    // widest possible broadcast backoff spread (255 slots ~ 5.1 ms), so
    // the overlap is guaranteed for every backoff draw.
    let hosts = vec![fixed(10.0, 50.0), fixed(250.0, 50.0), fixed(490.0, 50.0)];
    let cfgs = vec![
        ProbeCfg {
            broadcast_at_start: Some((1, 2048)),
            ..Default::default()
        },
        ProbeCfg::default(),
        ProbeCfg {
            broadcast_at_start: Some((2, 2048)),
            ..Default::default()
        },
    ];
    let mut w = world_with(hosts, cfgs, FlowSet::default());
    w.run_until(SimTime::from_secs(1));
    assert!(
        w.protocol(NodeId(1)).heard.is_empty(),
        "collision should corrupt both"
    );
    assert!(w.stats().corrupted >= 2);
}

#[test]
fn a_near_sender_captures_the_receiver_unless_capture_is_off() {
    // 1 hears 0 from 50 m and 2 from 240 m; 0 and 2 are 290 m apart, so
    // neither defers to the other and their 2048 B broadcasts overlap for
    // every backoff draw (see above).  Under the default 10 dB capture the
    // near frame survives (240 / 50 > 1.78); with capture off both die.
    for (capture, heard_at_1) in [(true, vec![1]), (false, vec![])] {
        let mut cfg = WorldConfig::paper_default(42);
        if !capture {
            cfg.capture_ratio = None;
        }
        let hosts = vec![fixed(250.0, 50.0), fixed(300.0, 50.0), fixed(540.0, 50.0)];
        let cfgs = vec![
            ProbeCfg {
                broadcast_at_start: Some((1, 2048)),
                ..Default::default()
            },
            ProbeCfg::default(),
            ProbeCfg {
                broadcast_at_start: Some((2, 2048)),
                ..Default::default()
            },
        ];
        let mut w = world_on(cfg, hosts, cfgs, FlowSet::default());
        w.run_until(SimTime::from_secs(1));
        let tags: Vec<u32> = w
            .protocol(NodeId(1))
            .heard
            .iter()
            .map(|(src, m)| match m {
                ProbeMsg::Tag { tag, .. } => {
                    assert_eq!(*src, NodeId(0));
                    *tag
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(tags, heard_at_1, "capture {capture}");
        let corrupted = if capture { 1 } else { 2 };
        assert_eq!(w.stats().corrupted, corrupted, "capture {capture}");
    }
}

#[test]
fn idle_host_dies_at_paper_lifetime_and_sleeper_survives() {
    let hosts = vec![fixed(50.0, 50.0), fixed(850.0, 850.0)];
    let cfgs = vec![
        ProbeCfg::default(),
        ProbeCfg {
            sleep_at_start: true,
            ..Default::default()
        },
    ];
    let mut w = world_with(hosts, cfgs, FlowSet::default());
    w.run_until(SimTime::from_secs(2000));
    // idle+GPS at 0.863 W drains 500 J in ~579 s
    assert!(!w.node_alive(NodeId(0)));
    assert!(w.node_alive(NodeId(1)), "sleeping host must outlive 2000 s");
    let death = w.alive_series().first_time_at_or_below(0.5).unwrap();
    assert!((570.0..=590.0).contains(&death), "death at {death}");
    // sleeping host: 2000 s * 0.163 W = 326 J consumed
    let j = w.node_consumed_j(NodeId(1));
    assert!((320.0..335.0).contains(&j), "sleeper consumed {j}");
    assert_eq!(w.stats().deaths, 1);
}

#[test]
fn one_hop_cbr_flow_has_closed_form_latency_and_energy() {
    // Two stationary hosts 100 m apart, one 1 pkt/s flow, no faults: the
    // channel is never contended, so every number below is arithmetic on
    // `radio::mac` / `PowerProfile`, not a value observed from a run.
    let (src, dst) = (NodeId(0), NodeId(1));
    let flow = CbrFlow {
        id: FlowId(0),
        src,
        dst,
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(1),
        stop: SimTime::from_secs(21),
        burst: None,
    };
    let n = 20;
    let end = SimTime::from_secs(30);
    let hosts = vec![fixed(50.0, 50.0), fixed(150.0, 50.0)];
    let cfgs = vec![ProbeCfg::default(), ProbeCfg::default()];
    let mut w = world_with(hosts, cfgs, FlowSet::new(vec![flow]));
    w.enable_trace(TraceMode::Full);
    w.run_until(end);

    let packet = AppPacket {
        flow: 0,
        seq: 0,
        bytes: flow.packet_bytes,
    };
    let data = mac::airtime(&FrameMeta {
        src,
        kind: FrameKind::Unicast(dst),
        payload_bytes: ProbeMsg::Data { packet, dst }.wire_bytes(),
    });
    let ack = mac::ack_airtime();

    // nothing is lost, retried or corrupted
    let st = *w.stats();
    assert_eq!((w.ledger().sent_count(), w.ledger().delivered_count()), (n, n));
    assert_eq!((st.unicasts, st.tx_started, st.frames_delivered), (n, n, n));
    assert_eq!((st.retransmissions, st.mac_drops, st.corrupted), (0, 0, 0));

    // latency: the packet is delivered when its first attempt ends, one
    // DIFS, a backoff draw of 0..=CW_MIN slots and one airtime after the
    // application handed it over (the MAC is idle at every send)
    let (floor, ceiling) = (mac::DIFS + data, mac::DIFS + mac::backoff(mac::CW_MIN) + data);
    let events = w.recorder().expect("tracing on").events();
    let times = |pick: fn(&EventKind) -> bool| -> Vec<SimTime> {
        events.iter().filter(|e| pick(&e.kind)).map(|e| e.t).collect()
    };
    let sent = times(|k| matches!(k, EventKind::PacketSent { .. }));
    let delivered = times(|k| matches!(k, EventKind::PacketDelivered { .. }));
    assert_eq!((sent.len(), delivered.len()), (n as usize, n as usize));
    // one packet in flight at a time, so the two lists pair up in order
    for (seq, (s, d)) in sent.iter().zip(&delivered).enumerate() {
        let latency = d.since(*s);
        assert!(
            (floor..=ceiling).contains(&latency),
            "packet {seq}: {latency:?} outside [{floor:?}, {ceiling:?}]"
        );
    }

    // energy: idle (+GPS) for the whole run, plus what each frame adds on
    // top of idle — the sender transmits the data and receives the ACK,
    // the receiver the reverse.  (The ACK is charged as a lump at the end
    // of the data frame rather than as a mode interval; same joules.)
    let p = PowerProfile::paper_default();
    let idle_j = p.draw_w(RadioMode::Idle) * end.as_secs_f64();
    let (tx_extra, rx_extra) = (p.tx_w - p.idle_w, p.rx_w - p.idle_w);
    let (data_s, ack_s) = (data.as_secs_f64() * n as f64, ack.as_secs_f64() * n as f64);
    for (node, want) in [
        (src, idle_j + tx_extra * data_s + rx_extra * ack_s),
        (dst, idle_j + rx_extra * data_s + tx_extra * ack_s),
    ] {
        let got = w.node_consumed_j(node);
        assert!(
            (got - want).abs() < 1e-9,
            "{node:?} consumed {got} J, want {want} J"
        );
    }
}

#[test]
fn aen_series_tracks_consumption() {
    let hosts = vec![fixed(50.0, 50.0)];
    let cfgs = vec![ProbeCfg::default()];
    let mut w = world_with(hosts, cfgs, FlowSet::default());
    w.run_until(SimTime::from_secs(101));
    // 100 s idle+GPS = 86.3 J of 500 J => aen ~ 0.1726
    let aen = w.aen_series().value_at(100.0).unwrap();
    assert!((aen - 0.1726).abs() < 0.01, "aen {aen}");
    // monotone non-decreasing
    let pts = w.aen_series().points();
    assert!(pts.windows(2).all(|p| p[1].value >= p[0].value));
}

#[test]
fn timers_fire_in_order() {
    let hosts = vec![fixed(50.0, 50.0)];
    let cfgs = vec![ProbeCfg {
        timer_at_start: Some((0.5, 77)),
        ..Default::default()
    }];
    let mut w = world_with(hosts, cfgs, FlowSet::default());
    w.run_until(SimTime::from_secs(1));
    assert_eq!(w.protocol(NodeId(0)).fired_timers, vec![77]);
    assert_eq!(w.stats().timers_fired, 1);
}

#[test]
fn awake_mover_sees_cell_changes_sleeper_does_not() {
    // both hosts travel east from (50,50) to (450,50) at 10 m/s: 4 crossings
    let leg = Segment::travel(
        SimTime::ZERO,
        geo::Point2::new(50.0, 50.0),
        geo::Point2::new(450.0, 50.0),
        10.0,
    );
    let rest = Segment::rest(leg.end, HORIZON, leg.end_position());
    let trace = MobilityTrace::new(vec![leg, rest]);
    let hosts = vec![HostSetup::paper(trace.clone()), HostSetup::paper(trace)];
    let cfgs = vec![
        ProbeCfg::default(),
        ProbeCfg {
            sleep_at_start: true,
            ..Default::default()
        },
    ];
    let mut w = world_with(hosts, cfgs, FlowSet::default());
    w.run_until(SimTime::from_secs(60));
    assert_eq!(w.protocol(NodeId(0)).cell_changes.len(), 4);
    assert_eq!(
        w.protocol(NodeId(0)).cell_changes[0],
        (GridCoord::new(0, 0), GridCoord::new(1, 0))
    );
    assert!(
        w.protocol(NodeId(1)).cell_changes.is_empty(),
        "sleepers don't observe GPS"
    );
    // ...but the world still tracks the sleeper's true cell
    assert_eq!(w.node_cell(NodeId(1)), GridCoord::new(4, 0));
}

#[test]
fn app_flow_delivers_end_to_end() {
    let hosts = vec![fixed(50.0, 50.0), fixed(150.0, 50.0)];
    let cfgs = vec![ProbeCfg::default(), ProbeCfg::default()];
    let flow = CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(1),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(1),
        stop: SimTime::from_secs(11),
        burst: None,
    };
    let mut w = world_with(hosts, cfgs, FlowSet::new(vec![flow]));
    w.run_until(SimTime::from_secs(20));
    let ledger = w.ledger();
    assert_eq!(ledger.sent_count(), 10);
    assert_eq!(ledger.delivered_count(), 10);
    assert_eq!(ledger.delivery_rate(), Some(1.0));
    // single hop: ~2.3 ms airtime + DIFS
    let lat = ledger.mean_latency_ms().unwrap();
    assert!((2.0..4.0).contains(&lat), "latency {lat} ms");
}

#[test]
fn flow_stops_when_source_dies() {
    // source has a finite battery and dies at ~579 s; 1 pkt/s flow for 1000 s
    let hosts = vec![fixed(50.0, 50.0), fixed(150.0, 50.0)];
    let cfgs = vec![ProbeCfg::default(), ProbeCfg::default()];
    let flow = CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(1),
        packet_bytes: 512,
        interval: SimDuration::from_secs(1),
        start: SimTime::from_secs(0),
        stop: SimTime::from_secs(1000),
        burst: None,
    };
    let mut w = world_with(hosts, cfgs, FlowSet::new(vec![flow]));
    w.run_until(SimTime::from_secs(1000));
    let sent = w.ledger().sent_count();
    assert!(
        (550..600).contains(&(sent as i64)),
        "sent {sent} packets before dying"
    );
}

#[test]
fn infinite_battery_hosts_are_excluded_from_metrics() {
    let t1 = MobilityTrace::stationary(geo::Point2::new(50.0, 50.0), HORIZON);
    let t2 = MobilityTrace::stationary(geo::Point2::new(150.0, 50.0), HORIZON);
    let hosts = vec![HostSetup::infinite(t1), HostSetup::paper(t2)];
    let cfgs = vec![ProbeCfg::default(), ProbeCfg::default()];
    let mut w = world_with(hosts, cfgs, FlowSet::default());
    w.run_until(SimTime::from_secs(1000));
    assert!(w.node_alive(NodeId(0)), "infinite host lives");
    assert!(!w.node_alive(NodeId(1)));
    // alive fraction counts only the finite host
    assert_eq!(w.alive_fraction(), 0.0);
}

#[test]
fn runs_are_deterministic_per_seed() {
    let build = || {
        let hosts = vec![
            fixed(50.0, 50.0),
            fixed(150.0, 50.0),
            fixed(250.0, 50.0),
            fixed(150.0, 150.0),
        ];
        let cfgs = vec![
            ProbeCfg {
                broadcast_at_start: Some((1, 256)),
                timer_at_start: Some((0.25, 5)),
                ..Default::default()
            },
            ProbeCfg {
                unicast_at_start: Some((NodeId(2), 2, 128)),
                ..Default::default()
            },
            ProbeCfg {
                broadcast_at_start: Some((3, 512)),
                ..Default::default()
            },
            ProbeCfg::default(),
        ];
        let flow = CbrFlow {
            id: FlowId(0),
            src: NodeId(0),
            dst: NodeId(3),
            packet_bytes: 512,
            interval: SimDuration::from_millis(100),
            start: SimTime::from_secs(1),
            stop: SimTime::from_secs(30),
            burst: None,
        };
        let mut w = world_with(hosts, cfgs, FlowSet::new(vec![flow]));
        w.run_until(SimTime::from_secs(40));
        (
            *w.stats(),
            w.ledger().sent_count(),
            w.ledger().delivered_count(),
            w.ledger().mean_latency_ms(),
            (0..4).map(|i| w.node_consumed_j(NodeId(i))).collect::<Vec<_>>(),
        )
    };
    let a = build();
    let b = build();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
    assert_eq!(a.4, b.4);
}

#[test]
fn transmitting_costs_more_than_idling() {
    let hosts = vec![fixed(50.0, 50.0), fixed(150.0, 50.0)];
    let cfgs = vec![ProbeCfg::default(), ProbeCfg::default()];
    let flow = CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(1),
        packet_bytes: 512,
        interval: SimDuration::from_millis(50), // 20 pkt/s, heavy
        start: SimTime::ZERO,
        stop: SimTime::from_secs(100),
        burst: None,
    };
    let mut w = world_with(hosts, cfgs, FlowSet::new(vec![flow]));
    w.run_until(SimTime::from_secs(100));
    let sender = w.node_consumed_j(NodeId(0));
    let idle_baseline = 100.0 * 0.863;
    assert!(
        sender > idle_baseline + 1.0,
        "sender {sender} J vs idle {idle_baseline} J"
    );
    // receiver also pays reception energy above idle
    let receiver = w.node_consumed_j(NodeId(1));
    assert!(receiver > idle_baseline + 0.5, "receiver {receiver} J");
}

/// A two-host world under a 50 pkt/s flow — thousands of trace events —
/// recording in full and tapping the same stream through a sink.  The
/// returned vector is everything the sink has been handed so far.
fn tapped_world(cfg: WorldConfig) -> (World<Probe>, Arc<Mutex<Vec<manet::Event>>>) {
    let flow = CbrFlow {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(1),
        packet_bytes: 512,
        interval: SimDuration::from_millis(20),
        start: SimTime::from_secs(1),
        stop: SimTime::from_secs(30),
        burst: None,
    };
    let cfgs = [ProbeCfg::default(), ProbeCfg::default()];
    let mut w = World::new(
        cfg,
        vec![fixed(50.0, 50.0), fixed(150.0, 50.0)],
        FlowSet::new(vec![flow]),
        move |id| Probe::new(cfgs[id.index()].clone()),
    );
    let seen: Arc<Mutex<Vec<manet::Event>>> = Arc::default();
    let tap = seen.clone();
    w.enable_trace_with_sink(
        TraceMode::Full,
        Arc::new(move |evs: &[manet::Event]| tap.lock().unwrap().extend_from_slice(evs)),
    );
    (w, seen)
}

/// The sink has been handed every recorded event exactly once, in order.
fn assert_sink_saw_the_trace(w: &World<Probe>, seen: &Mutex<Vec<manet::Event>>) {
    let seen = seen.lock().unwrap();
    let recorded = w.event_trace();
    assert!(
        recorded.len() > 2 * manet::trace::SINK_CHUNK,
        "{} events",
        recorded.len()
    );
    assert_eq!(
        seen.len(),
        recorded.len(),
        "sink saw {} of {}",
        seen.len(),
        recorded.len()
    );
    assert!(
        *seen == recorded,
        "the sink's stream differs from the recorded trace"
    );
}

#[test]
fn a_sink_sees_the_whole_trace_when_the_run_ends() {
    let (mut w, seen) = tapped_world(WorldConfig::paper_default(42));
    let out = w.run_until(SimTime::from_secs(40));
    assert!(out.budget_exceeded.is_none());
    assert_sink_saw_the_trace(&w, &seen);
}

#[test]
fn a_sink_sees_the_whole_trace_when_the_event_budget_trips() {
    let cfg = WorldConfig::paper_default(42).with_budget(manet::RunBudget::default().with_max_events(5_000));
    let (mut w, seen) = tapped_world(cfg);
    let out = w.run_until(SimTime::from_secs(40));
    assert!(
        out.budget_exceeded.is_some(),
        "the budget must cut this run short"
    );
    assert_sink_saw_the_trace(&w, &seen);
}

#[test]
fn a_sink_sees_the_whole_trace_after_each_of_two_runs() {
    let (mut w, seen) = tapped_world(WorldConfig::paper_default(42));
    w.run_until(SimTime::from_secs(12));
    assert_sink_saw_the_trace(&w, &seen);
    w.run_until(SimTime::from_secs(40));
    assert_sink_saw_the_trace(&w, &seen);
}
