//! A homogeneous random-waypoint fleet built from the crates' public
//! pieces (as `core_scaling::build_world_parallel` does), with a span
//! around each layer call, plus the beacon-only protocol that measures
//! what the substrate costs with no routing handler above it.

use crate::calib::HostSpeed;
use crate::core::{Fleet, RepRun, Variant};
use crate::span::Tracer;
use manet::{
    AppPacket, Ctx, FlowSet, FlowSpec, FrameKind, GridMap, HostSetup, NodeId, Protocol, RunOutput,
    SimDuration, SimTime, WireSize, World, WorldConfig,
};
use mobility::{MobilityModel, MobilityTrace, RandomWaypoint};
use std::time::Instant;

impl Fleet {
    pub fn end(&self) -> SimTime {
        SimTime::from_secs_f64(self.sim_secs)
    }

    /// Traces outlive the run by ten seconds, like every runner fleet.
    pub fn horizon(&self) -> SimTime {
        self.end() + SimDuration::from_secs(10)
    }

    pub fn grid(&self) -> GridMap {
        GridMap::new(self.field_w, self.field_h, 100.0)
    }

    pub fn waypoint(&self) -> RandomWaypoint {
        RandomWaypoint {
            field_w: self.field_w,
            field_h: self.field_h,
            max_speed: self.max_speed,
            min_speed: 0.01,
            pause_secs: 0.0,
        }
    }

    pub fn traces(&self) -> Vec<MobilityTrace> {
        let rngs = manet::sim_engine::RngFactory::new(self.seed);
        let model = self.waypoint();
        let horizon = self.horizon();
        (0..self.n)
            .map(|i| model.build_trace(&mut rngs.stream("mobility", i as u64), horizon))
            .collect()
    }

    pub fn flow_set(&self) -> FlowSet {
        let rngs = manet::sim_engine::RngFactory::new(self.seed);
        let ids: Vec<NodeId> = (0..self.n as u32).map(NodeId).collect();
        let spec = FlowSpec {
            n_flows: self.flows,
            packet_bytes: 512,
            rate_pps: 1.0,
            start: SimTime::from_secs(1),
            stop: self.end(),
            stagger: true,
        };
        FlowSet::random(&mut rngs.stream("traffic", 0), &ids, &spec)
    }

    pub fn config(&self, v: Variant) -> WorldConfig {
        v.world_config(WorldConfig {
            grid: self.grid(),
            ..WorldConfig::paper_default(self.seed)
        })
    }

    /// Build the world under `v`, one span per layer call.
    pub fn build<P: Protocol>(
        &self,
        v: Variant,
        make: impl FnMut(NodeId) -> P + 'static,
        tr: &mut Tracer,
    ) -> World<P> {
        let traces = tr.span("mobility.build_trace", |_| self.traces());
        let flows = tr.span("traffic.flowset", |_| self.flow_set());
        let hosts: Vec<HostSetup> = traces.into_iter().map(HostSetup::paper).collect();
        let mut world = tr.span("manet.world_new", |_| {
            World::new(self.config(v), hosts, flows, make)
        });
        if let Some(mode) = v.trace() {
            world.enable_trace(mode);
        }
        world
    }
}

/// Run a built world to the fleet's end under a `manet.run_until` span.
pub fn run_world<P: Protocol>(world: &mut World<P>, fleet: &Fleet, tr: &mut Tracer) -> (f64, RunOutput) {
    let end = fleet.end();
    tr.span("manet.run_until", |_| {
        let t = Instant::now();
        let out = world.run_until(end);
        (t.elapsed().as_secs_f64(), out)
    })
}

/// Digest and event count of a finished traced world.
pub fn finish_rep<P: Protocol>(world: &mut World<P>, wall_s: f64, tr: &mut Tracer) -> RepRun {
    match tr.span("trace.take_recorder", |_| world.take_recorder()) {
        Some(rec) => RepRun {
            wall_s,
            events: rec.profile().dispatched,
            digest: Some(rec.digest().0),
        },
        None => RepRun {
            wall_s,
            events: 0,
            digest: None,
        },
    }
}

/// The HELLO-sized beacon the substrate protocol broadcasts.
#[derive(Clone, Debug)]
pub struct BeaconMsg;

impl WireSize for BeaconMsg {
    fn wire_bytes(&self) -> u32 {
        20
    }
}

/// Beacon-only protocol: every host broadcasts one HELLO-sized frame per
/// second (ECGRID's cadence) and ignores everything it hears.  Scheduler,
/// MAC, channel, receiver gather, mobility and energy integration all
/// run; no routing handler does.
pub struct Beacon;

impl Protocol for Beacon {
    type Msg = BeaconMsg;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        // spread first beacons over the period by id, so the fleet does
        // not transmit in lockstep
        let phase_us = u64::from(ctx.id().0).wrapping_mul(2_654_435_761) % 1_000_000;
        ctx.set_timer(SimDuration::from_micros(phase_us), ());
    }

    fn on_frame(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: FrameKind, _: &BeaconMsg) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, _: ()) {
        ctx.broadcast(BeaconMsg);
        ctx.set_timer(SimDuration::from_secs(1), ());
    }

    fn on_app_send(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: AppPacket) {}
}

/// ns per dispatched event of the beacon-only run on `fleet`: the wall
/// (calibrated seconds) of an untraced run over the event count of a
/// traced repeat, the same base `manet.run.ns_per_event` uses.
pub fn substrate_ns_per_event(fleet: &Fleet, speed: &mut HostSpeed, tr: &mut Tracer) -> f64 {
    let mut traced = fleet.build(Variant::Digest, |_| Beacon, tr);
    let (wall_s, _) = run_world(&mut traced, fleet, tr);
    let events = finish_rep(&mut traced, wall_s, tr).events.max(1);
    let ((wall_s, _), factor) = speed.around(|| {
        let mut plain = fleet.build(Variant::Off, |_| Beacon, tr);
        run_world(&mut plain, fleet, tr)
    });
    wall_s * factor * 1e9 / events as f64
}
