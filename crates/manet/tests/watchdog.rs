//! Watchdog tests: a buggy protocol that perpetually re-arms a timer
//! must terminate within the configured budget with a `BudgetExceeded`
//! diagnostic instead of spinning the event loop forever.

use manet::progress::ProgressProbe;
use manet::{
    AppPacket, Ctx, FlowSet, HostSetup, Protocol, RunBudget, SimDuration, SimTime, WireSize, World,
    WorldConfig,
};
use mobility::MobilityModel;
use radio::{FrameKind, NodeId};
use sim_engine::BudgetExceeded;
use std::sync::Arc;

#[derive(Clone, Debug)]
struct NoMsg;

impl WireSize for NoMsg {
    fn wire_bytes(&self) -> u32 {
        4
    }
}

/// The canonical runaway bug: every timer firing re-arms the next, at a
/// period short enough to dwarf all legitimate traffic.
struct Runaway {
    period: SimDuration,
}

impl Protocol for Runaway {
    type Msg = NoMsg;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self>) {
        ctx.set_timer(self.period, ());
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_, Self>, _src: NodeId, _kind: FrameKind, _msg: &NoMsg) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, _timer: ()) {
        ctx.set_timer(self.period, ());
    }

    fn on_app_send(&mut self, _ctx: &mut Ctx<'_, Self>, _dst: NodeId, _packet: AppPacket) {}
}

fn runaway_world(budget: RunBudget, period: SimDuration) -> World<Runaway> {
    let cfg = WorldConfig::paper_default(1).with_budget(budget);
    let model = mobility::RandomWaypoint::paper(1.0, 0.0);
    let rngs = sim_engine::RngFactory::new(1);
    let hosts: Vec<HostSetup> = (0..4)
        .map(|i| {
            HostSetup::paper(model.build_trace(&mut rngs.stream("mobility", i), SimTime::from_secs(10_000)))
        })
        .collect();
    World::new(cfg, hosts, FlowSet::default(), move |_| Runaway { period })
}

#[test]
fn event_budget_stops_runaway_timer_loop() {
    let limit = 20_000;
    let budget = RunBudget::default().with_max_events(limit);
    let mut world = runaway_world(budget, SimDuration::from_millis(1));
    let out = world.run_until(SimTime::from_secs(100_000));
    match out.budget_exceeded {
        Some(BudgetExceeded::Events { processed, .. }) => {
            // exactly one event past the limit is dispatched before the
            // check trips
            assert_eq!(processed, limit + 1);
        }
        other => panic!("expected Events budget diagnostic, got {other:?}"),
    }
    assert_eq!(world.budget_exceeded(), out.budget_exceeded);
    // the world is inspectable post-mortem: far less virtual time passed
    // than requested
    assert!(world.now() < SimTime::from_secs(100_000));
}

#[test]
fn probe_reports_progress_of_budgeted_run() {
    let budget = RunBudget::default().with_max_events(5_000);
    let mut world = runaway_world(budget, SimDuration::from_millis(1));
    world.enable_trace(manet::TraceMode::DigestOnly);
    let probe = Arc::new(ProgressProbe::new());
    world.attach_probe(probe.clone());
    let _ = world.run_until(SimTime::from_secs(100_000));
    assert_eq!(probe.events(), 5_001);
    assert!(probe.virtual_time() > SimTime::ZERO);
    // at least one sample boundary passed, so a partial digest exists
    assert!(probe.partial_digest().is_some());
}

#[test]
fn unlimited_budget_changes_nothing() {
    // same world, bounded only by its end time: completes with no
    // diagnostic
    let mut world = runaway_world(RunBudget::UNLIMITED, SimDuration::from_secs(1));
    let out = world.run_until(SimTime::from_secs(30));
    assert!(out.budget_exceeded.is_none());
    assert_eq!(world.now(), SimTime::from_secs(30));
}
