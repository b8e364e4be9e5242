//! Application traffic: constant-bit-rate flows.
//!
//! "Each source host sends a CBR flow with one or ten 512-byte packets per
//! second" (§4).  The evaluation's network load of 10 pkt/s is realized as
//! ten concurrent 1 pkt/s flows (matching Model 1's ten endpoint hosts);
//! both the per-flow rate and the flow count are parameters.

use radio::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use sim_engine::{SimDuration, SimTime};

/// Identifier of one CBR flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

/// On/off gating for a bursty source: `on` seconds of CBR emission at the
/// flow's rate, then silence until `period` has elapsed, repeating.  The
/// schedule stays closed-form (`packet_time` is a pure function of the
/// sequence number), so the world's send loop needs no burst awareness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Burst {
    /// Length of each emission window.
    pub on: SimDuration,
    /// Full cycle length (`on` + silence); `period >= on`.
    pub period: SimDuration,
}

impl Burst {
    pub fn new(on_s: f64, off_s: f64) -> Self {
        assert!(on_s > 0.0 && off_s >= 0.0, "burst needs on > 0, off >= 0");
        Burst {
            on: SimDuration::from_secs_f64(on_s),
            period: SimDuration::from_secs_f64(on_s + off_s),
        }
    }

    /// Packet slots per cycle at `interval` spacing (slots at 0,
    /// interval, 2·interval, ... strictly inside the on-window).
    fn slots(&self, interval: SimDuration) -> u64 {
        1 + (self.on.as_nanos() - 1) / interval.as_nanos()
    }
}

/// One constant-bit-rate flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CbrFlow {
    pub id: FlowId,
    pub src: NodeId,
    pub dst: NodeId,
    /// Application payload per packet (512 B in the paper).
    pub packet_bytes: u32,
    /// Inter-packet gap (1 s for 1 pkt/s).
    pub interval: SimDuration,
    /// First packet instant.
    pub start: SimTime,
    /// No packets at or after this instant.
    pub stop: SimTime,
    /// On/off burst gating; `None` is plain CBR.
    pub burst: Option<Burst>,
}

impl CbrFlow {
    /// Packets per second while emitting (the on-window rate).
    pub fn rate_pps(&self) -> f64 {
        1.0 / self.interval.as_secs_f64()
    }

    /// Number of packets this flow emits in `[start, stop)`.
    pub fn packet_count(&self) -> u64 {
        if self.stop <= self.start {
            return 0;
        }
        let span = self.stop.since(self.start).as_nanos();
        match self.burst {
            // packets at start, start+i*interval, ... strictly before stop
            None => 1 + (span - 1) / self.interval.as_nanos(),
            Some(b) => {
                let ppc = b.slots(self.interval);
                let full = span / b.period.as_nanos();
                let rem = span % b.period.as_nanos();
                let tail = if rem == 0 {
                    0
                } else {
                    // slots strictly inside the partial window [0, min(rem, on))
                    let r = rem.min(b.on.as_nanos());
                    1 + (r - 1) / self.interval.as_nanos()
                };
                full * ppc + tail
            }
        }
    }

    /// Emission time of packet `seq` (0-based); `None` past the stop time.
    pub fn packet_time(&self, seq: u64) -> Option<SimTime> {
        let offset = match self.burst {
            None => seq.checked_mul(self.interval.as_nanos())?,
            Some(b) => {
                let ppc = b.slots(self.interval);
                let cycle = seq / ppc;
                let slot = seq % ppc;
                cycle
                    .checked_mul(b.period.as_nanos())?
                    .checked_add(slot.checked_mul(self.interval.as_nanos())?)?
            }
        };
        let at = self.start.checked_add(SimDuration::from_nanos(offset))?;
        (at < self.stop).then_some(at)
    }
}

/// Specification for building a randomized flow set.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    pub n_flows: usize,
    pub packet_bytes: u32,
    pub rate_pps: f64,
    pub start: SimTime,
    pub stop: SimTime,
    /// Small per-flow start jitter spread over one interval, so ten 1 pkt/s
    /// flows don't all fire in the same microsecond.
    pub stagger: bool,
}

impl FlowSpec {
    /// Paper default: 10 flows x 1 pkt/s x 512 B = 10 pkt/s offered load.
    pub fn paper_default(stop: SimTime) -> Self {
        FlowSpec {
            n_flows: 10,
            packet_bytes: 512,
            rate_pps: 1.0,
            start: SimTime::from_secs(5),
            stop,
            stagger: true,
        }
    }
}

/// A set of flows with distinct (src, dst) endpoints.
#[derive(Clone, Debug, Default)]
pub struct FlowSet {
    flows: Vec<CbrFlow>,
}

impl FlowSet {
    pub fn new(flows: Vec<CbrFlow>) -> Self {
        FlowSet { flows }
    }

    /// Build a random flow set over `endpoints`.
    ///
    /// Sources are distinct hosts; destinations are distinct from their
    /// source (self-flows are useless).  Endpoint hosts may appear in
    /// multiple flows if there are fewer endpoints than 2×flows, matching
    /// Model 1 where ten hosts serve as both sources and destinations.
    pub fn random<R: Rng>(rng: &mut R, endpoints: &[NodeId], spec: &FlowSpec) -> Self {
        assert!(endpoints.len() >= 2, "need at least two endpoint hosts");
        FlowSet::random_between(rng, endpoints, endpoints, spec)
    }

    /// Build a random flow set with sources drawn from `srcs` and
    /// destinations from `dsts` (the pools may overlap; self-flows are
    /// never produced).  `random` is the `srcs == dsts` special case —
    /// and delegates here with an identical draw sequence, so existing
    /// golden digests are unaffected.
    pub fn random_between<R: Rng>(rng: &mut R, srcs: &[NodeId], dsts: &[NodeId], spec: &FlowSpec) -> Self {
        let interval = SimDuration::from_secs_f64(1.0 / spec.rate_pps);
        // a source is usable only if some destination differs from it
        let mut pool: Vec<NodeId> = srcs
            .iter()
            .copied()
            .filter(|s| dsts.iter().any(|d| d != s))
            .collect();
        assert!(
            spec.n_flows == 0 || !pool.is_empty(),
            "no (source, destination) pair exists"
        );
        pool.shuffle(rng);
        let mut flows = Vec::with_capacity(spec.n_flows);
        for i in 0..spec.n_flows {
            // walk the shuffled pool round-robin for sources; pick any
            // different host as destination
            let src = pool[i % pool.len()];
            let dst = loop {
                let d = dsts[rng.gen_range(0..dsts.len())];
                if d != src {
                    break d;
                }
            };
            let jitter = if spec.stagger {
                SimDuration::from_nanos(rng.gen_range(0..interval.as_nanos().max(1)))
            } else {
                SimDuration::ZERO
            };
            flows.push(CbrFlow {
                id: FlowId(i as u32),
                src,
                dst,
                packet_bytes: spec.packet_bytes,
                interval,
                start: spec.start + jitter,
                stop: spec.stop,
                burst: None,
            });
        }
        FlowSet { flows }
    }

    /// Build a many-to-one flow set: one sink is drawn from `dsts`, and
    /// every flow converges on it from sources drawn round-robin out of
    /// `srcs` (minus the sink itself) — the classic data-collection
    /// pattern.
    pub fn many_to_one<R: Rng>(rng: &mut R, srcs: &[NodeId], dsts: &[NodeId], spec: &FlowSpec) -> Self {
        assert!(!dsts.is_empty(), "many_to_one needs a sink candidate");
        let sink = dsts[rng.gen_range(0..dsts.len())];
        let interval = SimDuration::from_secs_f64(1.0 / spec.rate_pps);
        let mut pool: Vec<NodeId> = srcs.iter().copied().filter(|s| *s != sink).collect();
        assert!(
            spec.n_flows == 0 || !pool.is_empty(),
            "many_to_one needs a source besides the sink"
        );
        pool.shuffle(rng);
        let mut flows = Vec::with_capacity(spec.n_flows);
        for i in 0..spec.n_flows {
            let jitter = if spec.stagger {
                SimDuration::from_nanos(rng.gen_range(0..interval.as_nanos().max(1)))
            } else {
                SimDuration::ZERO
            };
            flows.push(CbrFlow {
                id: FlowId(i as u32),
                src: pool[i % pool.len()],
                dst: sink,
                packet_bytes: spec.packet_bytes,
                interval,
                start: spec.start + jitter,
                stop: spec.stop,
                burst: None,
            });
        }
        FlowSet { flows }
    }

    /// The same flows gated by an on/off burst schedule.
    pub fn with_burst(mut self, burst: Burst) -> Self {
        for f in &mut self.flows {
            f.burst = Some(burst);
        }
        self
    }

    #[inline]
    pub fn flows(&self) -> &[CbrFlow] {
        &self.flows
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    pub fn get(&self, id: FlowId) -> Option<&CbrFlow> {
        self.flows.iter().find(|f| f.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn flow(rate: f64, start_s: u64, stop_s: u64) -> CbrFlow {
        CbrFlow {
            id: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            packet_bytes: 512,
            interval: SimDuration::from_secs_f64(1.0 / rate),
            start: SimTime::from_secs(start_s),
            stop: SimTime::from_secs(stop_s),
            burst: None,
        }
    }

    #[test]
    fn packet_schedule() {
        let f = flow(1.0, 10, 15);
        assert_eq!(f.packet_count(), 5);
        assert_eq!(f.packet_time(0), Some(SimTime::from_secs(10)));
        assert_eq!(f.packet_time(4), Some(SimTime::from_secs(14)));
        assert_eq!(f.packet_time(5), None);
        assert_eq!(f.rate_pps(), 1.0);
    }

    #[test]
    fn ten_pps_flow() {
        let f = flow(10.0, 0, 1);
        assert_eq!(f.packet_count(), 10);
        assert_eq!(f.packet_time(9), Some(SimTime::from_millis(900)));
        assert_eq!(f.packet_time(10), None);
    }

    #[test]
    fn empty_window_has_no_packets() {
        let f = flow(1.0, 10, 10);
        assert_eq!(f.packet_count(), 0);
        assert_eq!(f.packet_time(0), None);
    }

    #[test]
    fn random_set_avoids_self_flows() {
        let mut rng = StdRng::seed_from_u64(1);
        let hosts: Vec<NodeId> = (0..10).map(NodeId).collect();
        let spec = FlowSpec::paper_default(SimTime::from_secs(100));
        let set = FlowSet::random(&mut rng, &hosts, &spec);
        assert_eq!(set.len(), 10);
        for f in set.flows() {
            assert_ne!(f.src, f.dst);
            assert!(hosts.contains(&f.src) && hosts.contains(&f.dst));
        }
    }

    #[test]
    fn random_set_is_seed_deterministic() {
        let hosts: Vec<NodeId> = (0..50).map(NodeId).collect();
        let spec = FlowSpec::paper_default(SimTime::from_secs(100));
        let a = FlowSet::random(&mut StdRng::seed_from_u64(7), &hosts, &spec);
        let b = FlowSet::random(&mut StdRng::seed_from_u64(7), &hosts, &spec);
        assert_eq!(a.flows(), b.flows());
    }

    #[test]
    fn stagger_spreads_starts() {
        let mut rng = StdRng::seed_from_u64(3);
        let hosts: Vec<NodeId> = (0..20).map(NodeId).collect();
        let spec = FlowSpec::paper_default(SimTime::from_secs(100));
        let set = FlowSet::random(&mut rng, &hosts, &spec);
        let starts: std::collections::HashSet<_> = set.flows().iter().map(|f| f.start).collect();
        assert!(starts.len() > 5, "starts should be jittered");
    }

    #[test]
    fn bursty_schedule_is_closed_form_and_consistent() {
        // 2 pkt/s, 3 s on / 7 s off: 6 slots per 10 s cycle
        let mut f = flow(2.0, 0, 25);
        f.burst = Some(Burst::new(3.0, 7.0));
        // first cycle: 0, 0.5, 1.0, 1.5, 2.0, 2.5 — then silence to 10 s
        assert_eq!(f.packet_time(0), Some(SimTime::ZERO));
        assert_eq!(f.packet_time(5), Some(SimTime::from_millis(2500)));
        assert_eq!(f.packet_time(6), Some(SimTime::from_secs(10)));
        assert_eq!(f.packet_time(11), Some(SimTime::from_millis(12_500)));
        assert_eq!(f.packet_time(12), Some(SimTime::from_secs(20)));
        // 25 s span = 2 full cycles (12 pkts) + slots in [20, 23): 6 more
        assert_eq!(f.packet_count(), 18);
        // packet_count agrees with the closed form exactly
        let mut n = 0;
        while f.packet_time(n).is_some() {
            n += 1;
        }
        assert_eq!(n, f.packet_count());
        // times strictly increase
        for s in 1..n {
            assert!(f.packet_time(s).unwrap() > f.packet_time(s - 1).unwrap());
        }
    }

    #[test]
    fn burst_with_sparse_rate_still_emits() {
        // interval (2 s) longer than the on-window (1 s): one slot per cycle
        let mut f = flow(0.5, 0, 20);
        f.burst = Some(Burst::new(1.0, 4.0));
        assert_eq!(f.packet_time(0), Some(SimTime::ZERO));
        assert_eq!(f.packet_time(1), Some(SimTime::from_secs(5)));
        assert_eq!(f.packet_count(), 4);
    }

    #[test]
    fn random_between_respects_the_pools() {
        let mut rng = StdRng::seed_from_u64(5);
        let srcs: Vec<NodeId> = (0..8).map(NodeId).collect();
        let dsts: Vec<NodeId> = (8..10).map(NodeId).collect();
        let spec = FlowSpec::paper_default(SimTime::from_secs(100));
        let set = FlowSet::random_between(&mut rng, &srcs, &dsts, &spec);
        assert_eq!(set.len(), 10);
        for f in set.flows() {
            assert!(srcs.contains(&f.src));
            assert!(dsts.contains(&f.dst));
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn random_between_equals_random_on_a_shared_pool() {
        // the delegation keeps the draw sequence — and therefore every
        // digest downstream — bit-identical
        let hosts: Vec<NodeId> = (0..30).map(NodeId).collect();
        let spec = FlowSpec::paper_default(SimTime::from_secs(100));
        let a = FlowSet::random(&mut StdRng::seed_from_u64(9), &hosts, &spec);
        let b = FlowSet::random_between(&mut StdRng::seed_from_u64(9), &hosts, &hosts, &spec);
        assert_eq!(a.flows(), b.flows());
    }

    #[test]
    fn many_to_one_converges_on_a_single_sink() {
        let mut rng = StdRng::seed_from_u64(2);
        let srcs: Vec<NodeId> = (0..12).map(NodeId).collect();
        let dsts: Vec<NodeId> = (10..13).map(NodeId).collect();
        let spec = FlowSpec::paper_default(SimTime::from_secs(100));
        let set = FlowSet::many_to_one(&mut rng, &srcs, &dsts, &spec);
        let sink = set.flows()[0].dst;
        assert!(dsts.contains(&sink));
        for f in set.flows() {
            assert_eq!(f.dst, sink);
            assert_ne!(f.src, sink);
        }
    }

    #[test]
    fn with_burst_gates_every_flow() {
        let hosts: Vec<NodeId> = (0..6).map(NodeId).collect();
        let spec = FlowSpec::paper_default(SimTime::from_secs(50));
        let set =
            FlowSet::random(&mut StdRng::seed_from_u64(1), &hosts, &spec).with_burst(Burst::new(2.0, 8.0));
        for f in set.flows() {
            assert_eq!(f.burst, Some(Burst::new(2.0, 8.0)));
            // gated flows emit strictly fewer packets than plain CBR would
            let plain = CbrFlow { burst: None, ..*f };
            assert!(f.packet_count() < plain.packet_count());
        }
    }

    #[test]
    fn get_finds_a_flow_by_id() {
        let f1 = flow(1.0, 0, 10);
        let mut f2 = flow(1.0, 0, 10);
        f2.id = FlowId(1);
        f2.src = NodeId(1);
        f2.dst = NodeId(0);
        let set = FlowSet::new(vec![f1, f2]);
        assert_eq!(set.get(FlowId(1)).unwrap().src, NodeId(1));
    }
}
