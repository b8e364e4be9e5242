//! Per-packet accounting: delivery rate and end-to-end latency.
//!
//! "The packet delivery rate is defined as the number of data packets
//! actually received by the destination, divided by the number of packets
//! issued by the corresponding source host.  The average packet delivery
//! latency is defined as the average time elapsed between packet
//! transmission and reception." (§4C)
//!
//! **Layout.**  One 16-byte record per packet — its send instant and its
//! first delivery instant — at `flows[flow][seq]`: a packet's key is its
//! address, so recording one is two index steps and no hashing, and a
//! finished run's ledger is 16 B per packet issued.
//!
//! **Precondition: keys are dense.**  `traffic::FlowSet` numbers flows
//! from 0 and the world counts each flow's sequence numbers up by one, so
//! the vectors have no holes to speak of (a dead or crashed source skips
//! its slots; they stay empty).  Nothing breaks on a sparse key, but it
//! is paid for in memory: recording `(flow, seq)` grows that flow's
//! vector to `seq + 1` records and the outer one to `flow + 1` (24 B
//! each), whatever lies between.

use sim_engine::SimTime;

/// Key identifying an application packet: (flow id, sequence number).
pub type PacketKey = (u32, u64);

/// "Has not happened" in a [`Slot`]: later than any reachable instant.
const NEVER: SimTime = SimTime::MAX;

/// One packet: when it left its source, and when it first reached its
/// destination.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Slot {
    sent: SimTime,
    delivered: SimTime,
}

impl Slot {
    /// A sequence number nothing was sent under.
    const EMPTY: Slot = Slot {
        sent: NEVER,
        delivered: NEVER,
    };

    fn is_sent(&self) -> bool {
        self.sent != NEVER
    }

    fn is_delivered(&self) -> bool {
        self.delivered != NEVER
    }
}

/// Records every packet issued and delivered during a run.
///
/// ```
/// use metrics::PacketLedger;
/// use sim_engine::SimTime;
///
/// let mut ledger = PacketLedger::new();
/// ledger.record_sent((0, 0), SimTime::from_millis(1000));
/// ledger.record_sent((0, 1), SimTime::from_millis(2000));
/// ledger.record_delivered((0, 0), SimTime::from_millis(1009));
/// assert_eq!(ledger.delivery_rate(), Some(0.5));
/// assert_eq!(ledger.mean_latency_ms(), Some(9.0));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PacketLedger {
    /// `flows[flow][seq]`; see the module docs for what a sparse key costs.
    flows: Vec<Vec<Slot>>,
    sent: u64,
    delivered: u64,
    duplicates: u64,
    unsent_deliveries: u64,
}

impl PacketLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Every record with its key, ascending by (flow, seq), empty slots
    /// included.
    fn slots(&self) -> impl Iterator<Item = (PacketKey, &Slot)> {
        self.flows.iter().enumerate().flat_map(|(flow, slots)| {
            slots
                .iter()
                .enumerate()
                .map(move |(seq, slot)| ((flow as u32, seq as u64), slot))
        })
    }

    /// Record a packet leaving its source application.
    pub fn record_sent(&mut self, key: PacketKey, at: SimTime) {
        debug_assert!(at != NEVER, "packet {key:?} sent at the sentinel instant");
        let (flow, seq) = (key.0 as usize, key.1 as usize);
        if self.flows.len() <= flow {
            self.flows.resize_with(flow + 1, Vec::new);
        }
        let slots = &mut self.flows[flow];
        if slots.len() <= seq {
            slots.resize(seq + 1, Slot::EMPTY);
        }
        let slot = &mut slots[seq];
        debug_assert!(!slot.is_sent(), "packet {key:?} sent twice");
        self.sent += u64::from(!slot.is_sent());
        slot.sent = at;
    }

    /// Record a packet arriving at its destination application.  Duplicate
    /// deliveries (retransmission races) count once, at the first arrival.
    /// A delivery of a packet that was never sent is a protocol bug, not a
    /// packet: it is left out of every figure and counted in
    /// [`unsent_deliveries`](Self::unsent_deliveries).
    pub fn record_delivered(&mut self, key: PacketKey, at: SimTime) {
        let slot = self
            .flows
            .get_mut(key.0 as usize)
            .and_then(|slots| slots.get_mut(key.1 as usize))
            .filter(|slot| slot.is_sent());
        let Some(slot) = slot else {
            self.unsent_deliveries += 1;
            return;
        };
        if slot.is_delivered() {
            self.duplicates += 1;
            // keep the earliest delivery time
            slot.delivered = slot.delivered.min(at);
        } else {
            self.delivered += 1;
            slot.delivered = at;
        }
    }

    #[inline]
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    #[inline]
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    #[inline]
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Deliveries of keys that were never sent (ignored everywhere else).
    #[inline]
    pub fn unsent_deliveries(&self) -> u64 {
        self.unsent_deliveries
    }

    /// Packet delivery rate in `[0, 1]`; `None` when nothing was sent.
    pub fn delivery_rate(&self) -> Option<f64> {
        (self.sent_count() > 0).then(|| self.delivered_count() as f64 / self.sent_count() as f64)
    }

    /// [`delivery_rate`](Self::delivery_rate) over the packets sent
    /// strictly before `cutoff` — the paper compares delivery quality at
    /// simulation time 590 s "since the network hosts that run GRID
    /// exhaust all their energy" then.
    pub fn delivery_rate_before(&self, cutoff: SimTime) -> Option<f64> {
        let (mut sent, mut delivered) = (0u64, 0u64);
        for slot in self.flows.iter().flatten() {
            if slot.is_sent() && slot.sent < cutoff {
                sent += 1;
                delivered += u64::from(slot.is_delivered());
            }
        }
        (sent > 0).then(|| delivered as f64 / sent as f64)
    }

    /// Latencies in milliseconds of the delivered packets sent strictly
    /// before `cutoff`, ascending.
    fn latencies_ms_before(&self, cutoff: SimTime) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .flows
            .iter()
            .flatten()
            .filter(|slot| slot.is_delivered() && slot.sent < cutoff)
            .map(|slot| slot.delivered.since(slot.sent).as_millis_f64())
            .collect();
        v.sort_unstable_by(f64::total_cmp);
        v
    }

    /// Per-packet latencies in milliseconds (delivered packets only),
    /// ascending.
    #[cfg(test)]
    fn latencies_ms(&self) -> Vec<f64> {
        self.latencies_ms_before(NEVER)
    }

    /// Mean end-to-end latency in milliseconds; `None` with no deliveries.
    /// The sum runs over the ascending latencies, so it does not depend on
    /// the order packets were recorded in.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        // every delivered packet was sent before the sentinel instant
        self.mean_latency_ms_before(NEVER)
    }

    /// [`mean_latency_ms`](Self::mean_latency_ms) over the packets sent
    /// strictly before `cutoff`.
    pub fn mean_latency_ms_before(&self, cutoff: SimTime) -> Option<f64> {
        let lat = self.latencies_ms_before(cutoff);
        (!lat.is_empty()).then(|| lat.iter().sum::<f64>() / lat.len() as f64)
    }

    /// Packets sent but never delivered, ascending.
    pub fn lost_keys(&self) -> Vec<PacketKey> {
        self.slots()
            .filter(|(_, slot)| slot.is_sent() && !slot.is_delivered())
            .map(|(key, _)| key)
            .collect()
    }

    /// `(flow, sent, delivered)` per flow id that sent anything, ascending
    /// — the scenario runner folds these into per-group delivery rates.
    pub fn per_flow(&self) -> Vec<(u32, u64, u64)> {
        self.flows
            .iter()
            .enumerate()
            .map(|(flow, slots)| {
                let sent = slots.iter().filter(|s| s.is_sent()).count() as u64;
                let delivered = slots.iter().filter(|s| s.is_delivered()).count() as u64;
                (flow as u32, sent, delivered)
            })
            .filter(|&(_, sent, _)| sent > 0)
            .collect()
    }

    /// A copy restricted to packets sent strictly before `cutoff`: the
    /// reference the `*_before` figures are checked against.
    #[cfg(test)]
    fn before(&self, cutoff: SimTime) -> PacketLedger {
        let mut early = PacketLedger {
            duplicates: 0,
            unsent_deliveries: 0,
            ..self.clone()
        };
        for slot in early.flows.iter_mut().flatten() {
            if slot.is_sent() && slot.sent >= cutoff {
                early.sent -= 1;
                early.delivered -= u64::from(slot.is_delivered());
                *slot = Slot::EMPTY;
            }
        }
        early
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The two-hash-map ledger the flow-indexed one replaced, kept as the
    /// reference the property test below compares against.
    #[derive(Default)]
    struct TwoMapLedger {
        sent: HashMap<PacketKey, SimTime>,
        delivered: HashMap<PacketKey, SimTime>,
        duplicates: u64,
    }

    impl TwoMapLedger {
        fn record_sent(&mut self, key: PacketKey, at: SimTime) {
            let prev = self.sent.insert(key, at);
            assert!(prev.is_none(), "packet {key:?} sent twice");
        }

        fn record_delivered(&mut self, key: PacketKey, at: SimTime) {
            assert!(self.sent.contains_key(&key), "delivered unsent packet {key:?}");
            match self.delivered.get(&key) {
                Some(&prev) => {
                    self.duplicates += 1;
                    if at < prev {
                        self.delivered.insert(key, at);
                    }
                }
                None => {
                    self.delivered.insert(key, at);
                }
            }
        }

        fn latencies_ms(&self) -> Vec<f64> {
            let mut v: Vec<f64> = self
                .delivered
                .iter()
                .map(|(key, &recv)| recv.since(self.sent[key]).as_millis_f64())
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v
        }

        fn mean_latency_ms(&self) -> Option<f64> {
            let lat = self.latencies_ms();
            (!lat.is_empty()).then(|| lat.iter().sum::<f64>() / lat.len() as f64)
        }

        fn lost_keys(&self) -> Vec<PacketKey> {
            let mut v: Vec<PacketKey> = self
                .sent
                .keys()
                .filter(|k| !self.delivered.contains_key(*k))
                .copied()
                .collect();
            v.sort();
            v
        }

        fn per_flow(&self) -> Vec<(u32, u64, u64)> {
            let mut map: HashMap<u32, (u64, u64)> = HashMap::new();
            for key in self.sent.keys() {
                map.entry(key.0).or_default().0 += 1;
            }
            for key in self.delivered.keys() {
                map.entry(key.0).or_default().1 += 1;
            }
            let mut v: Vec<(u32, u64, u64)> = map.into_iter().map(|(f, (s, d))| (f, s, d)).collect();
            v.sort_unstable();
            v
        }

        fn before(&self, cutoff: SimTime) -> TwoMapLedger {
            let sent: HashMap<PacketKey, SimTime> = self
                .sent
                .iter()
                .filter(|(_, &t)| t < cutoff)
                .map(|(k, &t)| (*k, t))
                .collect();
            let delivered = self
                .delivered
                .iter()
                .filter(|(k, _)| sent.contains_key(*k))
                .map(|(k, &t)| (*k, t))
                .collect();
            TwoMapLedger {
                sent,
                delivered,
                duplicates: 0,
            }
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pdr_and_latency() {
        let mut l = PacketLedger::new();
        l.record_sent((0, 0), t(1000));
        l.record_sent((0, 1), t(2000));
        l.record_sent((1, 0), t(2500));
        l.record_delivered((0, 0), t(1008));
        l.record_delivered((0, 1), t(2012));
        assert_eq!(l.sent_count(), 3);
        assert_eq!(l.delivered_count(), 2);
        assert!((l.delivery_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((l.mean_latency_ms().unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(l.lost_keys(), vec![(1, 0)]);
    }

    #[test]
    fn duplicates_count_once_at_first_arrival() {
        let mut l = PacketLedger::new();
        l.record_sent((0, 0), t(0));
        l.record_delivered((0, 0), t(10));
        l.record_delivered((0, 0), t(15));
        assert_eq!(l.delivered_count(), 1);
        assert_eq!(l.duplicate_count(), 1);
        assert!((l.mean_latency_ms().unwrap() - 10.0).abs() < 1e-9);
        // an even earlier duplicate (out-of-order race) keeps the earliest
        l.record_delivered((0, 0), t(5));
        assert!((l.mean_latency_ms().unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_reports_none() {
        let l = PacketLedger::new();
        assert_eq!(l.delivery_rate(), None);
        assert_eq!(l.mean_latency_ms(), None);
        assert!(l.lost_keys().is_empty());
    }

    #[test]
    fn cutoff_restricts_to_early_packets() {
        let mut l = PacketLedger::new();
        l.record_sent((0, 0), t(100));
        l.record_delivered((0, 0), t(110));
        l.record_sent((0, 1), t(700_000)); // after cutoff, lost
        let cutoff = SimTime::from_secs(590);
        let early = l.before(cutoff);
        assert_eq!(early.sent_count(), 1);
        assert_eq!(early.delivery_rate(), Some(1.0));
        assert_eq!(l.delivery_rate_before(cutoff), Some(1.0));
        assert_eq!(l.mean_latency_ms_before(cutoff), Some(10.0));
        assert_eq!(l.delivery_rate_before(SimTime::ZERO), None);
        assert_eq!(l.mean_latency_ms_before(SimTime::ZERO), None);
        // full ledger sees the loss
        assert_eq!(l.delivery_rate(), Some(0.5));
    }

    #[test]
    fn latencies_are_sorted() {
        let mut l = PacketLedger::new();
        l.record_sent((0, 0), t(0));
        l.record_sent((0, 1), t(100));
        l.record_delivered((0, 1), t(103));
        l.record_delivered((0, 0), t(9));
        assert_eq!(l.latencies_ms(), vec![3.0, 9.0]);
    }

    #[test]
    fn a_delivery_of_an_unsent_packet_is_counted_and_otherwise_ignored() {
        let mut l = PacketLedger::new();
        l.record_sent((1, 2), t(100));
        // no such flow, no such sequence number, and a slot a dead source
        // skipped on the way to (1, 2)
        for key in [(7, 0), (1, 9), (1, 0), (0, 0)] {
            l.record_delivered(key, t(150));
        }
        assert_eq!(l.unsent_deliveries(), 4);
        assert_eq!(
            (l.sent_count(), l.delivered_count(), l.duplicate_count()),
            (1, 0, 0)
        );
        assert_eq!(l.delivery_rate(), Some(0.0));
        assert!(l.latencies_ms().is_empty());
        assert_eq!(l.mean_latency_ms(), None);
        assert_eq!(l.lost_keys(), vec![(1, 2)]);
        assert_eq!(l.per_flow(), vec![(1, 1, 0)]);
        // the real delivery still lands, and the rate cannot pass 1
        l.record_delivered((1, 2), t(150));
        l.record_delivered((1, 3), t(151));
        assert_eq!(l.delivery_rate(), Some(1.0));
        assert_eq!(l.latencies_ms(), vec![50.0]);
        assert_eq!(l.unsent_deliveries(), 5);
        assert_eq!(l.before(t(1000)).unsent_deliveries(), 0);
    }

    /// Every figure the two ledgers report, floats as bits.
    type Figures = (
        (u64, u64, u64),
        Vec<PacketKey>,
        Vec<(u32, u64, u64)>,
        Vec<u64>,
        Option<u64>,
    );

    fn bits(v: Vec<f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    fn figures_of(l: &PacketLedger) -> Figures {
        (
            (l.sent_count(), l.delivered_count(), l.duplicate_count()),
            l.lost_keys(),
            l.per_flow(),
            bits(l.latencies_ms()),
            l.mean_latency_ms().map(f64::to_bits),
        )
    }

    fn figures_of_oracle(l: &TwoMapLedger) -> Figures {
        (
            (l.sent.len() as u64, l.delivered.len() as u64, l.duplicates),
            l.lost_keys(),
            l.per_flow(),
            bits(l.latencies_ms()),
            l.mean_latency_ms().map(f64::to_bits),
        )
    }

    proptest::proptest! {
        /// Sends, first deliveries, late duplicates and earlier duplicates
        /// interleaved over three flows — with send instants in no order,
        /// so a cutoff keeps an arbitrary subset, and sequence numbers a
        /// dead source skipped — read the same from both ledgers, to the
        /// bit, before and after `before(cutoff)`.
        #[test]
        fn dense_ledger_agrees_with_the_two_map_oracle(
            ops in proptest::collection::vec(
                (0u32..3, 0u8..4, 0u64..2_000_000_000, proptest::any::<u64>()),
                0..120,
            ),
            cutoff in 0u64..2_200_000_000,
        ) {
            let (mut dense, mut oracle) = (PacketLedger::new(), TwoMapLedger::default());
            let mut next_seq = [0u64; 3];
            let mut sent: Vec<(PacketKey, SimTime)> = Vec::new();
            for (flow, kind, nanos, pick) in ops {
                if kind == 0 || sent.is_empty() {
                    // one sequence number in eight is issued by a dead source
                    next_seq[flow as usize] += u64::from(pick % 8 == 0);
                    let key = (flow, next_seq[flow as usize]);
                    next_seq[flow as usize] += 1;
                    let at = SimTime(nanos);
                    dense.record_sent(key, at);
                    oracle.record_sent(key, at);
                    sent.push((key, at));
                } else {
                    // any sent packet, any instant from its send on: the
                    // first arrival, a later duplicate or an earlier one
                    let (key, at) = sent[(pick % sent.len() as u64) as usize];
                    let at = SimTime(at.0 + nanos / 16);
                    dense.record_delivered(key, at);
                    oracle.record_delivered(key, at);
                }
            }
            proptest::prop_assert_eq!(figures_of(&dense), figures_of_oracle(&oracle));
            proptest::prop_assert_eq!(dense.unsent_deliveries(), 0);
            let cutoff = SimTime(cutoff);
            let early = dense.before(cutoff);
            proptest::prop_assert_eq!(figures_of(&early), figures_of_oracle(&oracle.before(cutoff)));
            // the copy-free figures read the same, to the bit
            proptest::prop_assert_eq!(
                dense.delivery_rate_before(cutoff).map(f64::to_bits),
                early.delivery_rate().map(f64::to_bits)
            );
            proptest::prop_assert_eq!(
                dense.mean_latency_ms_before(cutoff).map(f64::to_bits),
                early.mean_latency_ms().map(f64::to_bits)
            );
        }
    }
}
