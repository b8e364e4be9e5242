//! Deterministic, schedule-driven fault injection.
//!
//! A [`FaultPlan`] describes *what* adversity a run is subjected to —
//! probabilistic and burst (Gilbert–Elliott) frame loss on the data
//! channel, RAS page loss and delay, node crash/rejoin churn, battery
//! capacity variance and sudden drains, GPS position error.  A
//! [`FaultCtl`] is the runtime that answers the world's point queries
//! ("is this reception lost?", "when does host 7 crash next?").
//!
//! ## Determinism contract
//!
//! Every decision is a pure function of `(plan.seed, knob, node, virtual
//! time / event key)`, computed by hashing the tuple into one
//! [`keyed_draw`].  No shared RNG stream is consumed: enabling a
//! fault knob never perturbs the draws any *other* subsystem (MAC
//! backoff, mobility, protocol jitter) sees, and a plan whose knobs are
//! all zero performs **no draws at all** — runs with such a plan are
//! bit-identical to runs without the fault layer (the golden-trace
//! fixtures hold this to account).  The one piece of retained state, the
//! per-node Gilbert–Elliott chain, advances one fixed slot at a time with
//! slot-keyed draws, so its state at slot `k` is also a pure function of
//! `(seed, node, k)` regardless of when or how often it is queried.

use sim_engine::keyed_draw;

/// Gilbert–Elliott slot length: the channel's burst structure is piecewise
/// constant over 100 ms slots (a fade at pedestrian speeds spans many
/// frames, which is exactly the burstiness the two-state model captures).
pub const GE_SLOT_NS: u64 = 100_000_000;

/// Two-state Markov (Gilbert–Elliott) burst-loss channel parameters.
///
/// The chain sits in a *good* or *bad* state; each slot it moves
/// good→bad with `p_gb` and bad→good with `p_bg`.  Receptions are lost
/// with `loss_good` / `loss_bad` depending on the current state.  The
/// stationary loss rate is
/// `p_bg/(p_gb+p_bg) · loss_good + p_gb/(p_gb+p_bg) · loss_bad`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// P(good → bad) per slot.
    pub p_gb: f64,
    /// P(bad → good) per slot.
    pub p_bg: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Long-run fraction of time spent in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        if self.p_gb + self.p_bg == 0.0 {
            0.0
        } else {
            self.p_gb / (self.p_gb + self.p_bg)
        }
    }

    /// Long-run loss rate the chain converges to.
    pub fn stationary_loss(&self) -> f64 {
        let pb = self.stationary_bad();
        (1.0 - pb) * self.loss_good + pb * self.loss_bad
    }
}

/// A complete fault schedule for one run.  All-zero (the [`Default`]) is
/// the clean channel: provably zero-impact (see module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault layer's own draw space.  Changing it re-rolls
    /// *where* faults land without touching any other subsystem.  A
    /// nonzero seed with all-zero knobs is still perfectly clean.
    pub seed: u64,
    /// Independent per-reception frame-loss probability on the data
    /// channel (applied after collision resolution).
    pub loss: f64,
    /// Optional burst-loss overlay; composes with `loss` as independent
    /// loss processes.
    pub ge: Option<GilbertElliott>,
    /// Probability that a RAS page fails to reach an addressed host.
    pub page_fail: f64,
    /// Maximum extra paging-channel delay in milliseconds (uniform in
    /// `[0, max]`, drawn per page).
    pub page_delay_max_ms: f64,
    /// Node crash rate: expected crashes per node per second (exponential
    /// gaps).  A crashed host is silent — no retire, no handover.
    pub churn_rate: f64,
    /// Downtime of a crashed host before it reboots and rejoins, seconds.
    pub rejoin_secs: f64,
    /// Battery capacity variance: each finite battery's capacity is scaled
    /// by a factor uniform in `[1-var, 1+var]`.
    pub battery_var: f64,
    /// Sudden-drain rate: expected drain events per node per second.
    pub drain_rate: f64,
    /// Fraction of the *remaining* energy lost per sudden-drain event.
    pub drain_frac: f64,
    /// GPS position error: each host's advertised position is offset by a
    /// vector of magnitude uniform in `[0, err]` meters, re-rolled once
    /// per second.
    pub gps_error_m: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The clean channel: no faults whatsoever.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            loss: 0.0,
            ge: None,
            page_fail: 0.0,
            page_delay_max_ms: 0.0,
            churn_rate: 0.0,
            rejoin_secs: 10.0,
            battery_var: 0.0,
            drain_rate: 0.0,
            drain_frac: 0.5,
            gps_error_m: 0.0,
        }
    }

    /// Does any knob actually inject faults?  (`seed` and the shape
    /// parameters `rejoin_secs`/`drain_frac` alone do nothing.)
    pub fn is_active(&self) -> bool {
        self.loss > 0.0
            || self.ge.is_some()
            || self.page_fail > 0.0
            || self.page_delay_max_ms > 0.0
            || self.churn_rate > 0.0
            || self.battery_var > 0.0
            || self.drain_rate > 0.0
            || self.gps_error_m > 0.0
    }

    /// Re-seed the plan (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Parse the `run_one --faults` syntax: comma-separated `key=value`
    /// pairs.
    ///
    /// | key           | meaning                                   |
    /// |---------------|-------------------------------------------|
    /// | `loss`        | per-reception frame-loss probability      |
    /// | `ge`          | burst loss `p_gb/p_bg/loss_bad` (good state is clean) |
    /// | `page_fail`   | RAS page loss probability                 |
    /// | `page_delay`  | max extra page delay, ms                  |
    /// | `churn`       | crashes per node per second               |
    /// | `rejoin`      | downtime before rejoin, s                 |
    /// | `battery_var` | capacity variance fraction                |
    /// | `drain`       | sudden drains per node per second         |
    /// | `drain_frac`  | remaining-energy fraction lost per drain  |
    /// | `gps`         | GPS error radius, m                       |
    /// | `seed`        | fault-layer seed                          |
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let key = key.trim();
            let value = value.trim();
            let num = |what: &str| -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("fault {what}=`{value}` is not a number"))
            };
            match key {
                "loss" => plan.loss = num(key)?,
                "page_fail" => plan.page_fail = num(key)?,
                "page_delay" => plan.page_delay_max_ms = num(key)?,
                "churn" => plan.churn_rate = num(key)?,
                "rejoin" => plan.rejoin_secs = num(key)?,
                "battery_var" => plan.battery_var = num(key)?,
                "drain" => plan.drain_rate = num(key)?,
                "drain_frac" => plan.drain_frac = num(key)?,
                "gps" => plan.gps_error_m = num(key)?,
                "seed" => {
                    plan.seed = value
                        .parse::<u64>()
                        .map_err(|_| format!("fault seed=`{value}` is not an integer"))?
                }
                "ge" => {
                    let fields: Vec<&str> = value.split('/').collect();
                    if fields.len() != 3 {
                        return Err(format!("fault ge=`{value}` wants p_gb/p_bg/loss_bad"));
                    }
                    let f = |i: usize| -> Result<f64, String> {
                        fields[i]
                            .parse::<f64>()
                            .map_err(|_| format!("fault ge field `{}` is not a number", fields[i]))
                    };
                    plan.ge = Some(GilbertElliott {
                        p_gb: f(0)?,
                        p_bg: f(1)?,
                        loss_good: 0.0,
                        loss_bad: f(2)?,
                    });
                }
                other => return Err(format!("unknown fault knob `{other}`")),
            }
        }
        let probs = [
            ("loss", plan.loss),
            ("page_fail", plan.page_fail),
            ("battery_var", plan.battery_var),
            ("drain_frac", plan.drain_frac),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("fault {name}={p} out of [0, 1]"));
            }
        }
        Ok(plan)
    }
}

/// One stateless draw in `[0, 1)`, keyed by `(seed, knob domain, a, b)`.
#[inline]
fn draw(seed: u64, domain: &str, a: u64, b: u64) -> f64 {
    keyed_draw(seed, domain, a, "fault.sub", b)
}

/// GPS error offset `(dx, dy)` in meters for `node` at `t_ns`: a radius
/// uniform in `[0, max_m)` at a uniform angle, piecewise constant over
/// 1 s (a consumer-GPS fix rate).  Two stateless draws keyed on `seed`,
/// the radius and angle `domains`, the node, `sub` and the 1 s slot, so
/// streams with distinct labels are independent over the same seed;
/// `max_m <= 0` performs none and gives `(0, 0)`.
#[inline]
pub fn gps_offset(seed: u64, domains: [&str; 2], sub: &str, node: u32, max_m: f64, t_ns: u64) -> (f64, f64) {
    if max_m <= 0.0 {
        return (0.0, 0.0);
    }
    let slot = t_ns / 1_000_000_000;
    let r = max_m * keyed_draw(seed, domains[0], node as u64, sub, slot);
    let theta = std::f64::consts::TAU * keyed_draw(seed, domains[1], node as u64, sub, slot);
    (r * theta.cos(), r * theta.sin())
}

/// Per-node Gilbert–Elliott chain state (see [`GE_SLOT_NS`]).
#[derive(Clone, Copy, Debug)]
struct GeChain {
    /// Slot the chain has been advanced to.
    slot: u64,
    /// Currently in the bad state?
    bad: bool,
}

/// The runtime fault driver: owns the plan plus the per-node burst-chain
/// state.  All methods that *decide* a fault are deterministic point
/// functions (module docs); the world translates decisions into events.
#[derive(Clone, Debug)]
pub struct FaultCtl {
    plan: FaultPlan,
    chains: Vec<GeChain>,
}

impl FaultCtl {
    pub fn new(plan: FaultPlan, n_nodes: usize) -> Self {
        let chains = if plan.ge.is_some() {
            // every chain starts in the good state at slot 0
            vec![GeChain { slot: 0, bad: false }; n_nodes]
        } else {
            Vec::new()
        };
        FaultCtl { plan, chains }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Advance `node`'s burst chain to the slot containing `t_ns` and
    /// return its current loss probability.  One slot-keyed draw per slot
    /// advanced, so the state is query-pattern independent.
    fn ge_loss_prob(&mut self, node: u32, t_ns: u64) -> f64 {
        let Some(ge) = self.plan.ge else { return 0.0 };
        let target = t_ns / GE_SLOT_NS;
        let chain = &mut self.chains[node as usize];
        while chain.slot < target {
            chain.slot += 1;
            let u = draw(self.plan.seed, "ge", node as u64, chain.slot);
            chain.bad = if chain.bad { u >= ge.p_bg } else { u < ge.p_gb };
        }
        if chain.bad {
            ge.loss_bad
        } else {
            ge.loss_good
        }
    }

    /// Is the reception of transmission `tx_id` at `node` lost?  The
    /// independent and burst loss processes compose.
    #[inline]
    pub fn frame_lost(&mut self, node: u32, tx_id: u64, t_ns: u64) -> bool {
        let ge_p = if self.plan.ge.is_some() {
            self.ge_loss_prob(node, t_ns)
        } else {
            0.0
        };
        if self.plan.loss <= 0.0 && ge_p <= 0.0 {
            return false;
        }
        let p = 1.0 - (1.0 - self.plan.loss) * (1.0 - ge_p);
        draw(self.plan.seed, "frame", node as u64, tx_id) < p
    }

    /// Does the RAS page arriving at `t_ns` fail to reach `node`?
    pub fn page_lost(&self, node: u32, t_ns: u64) -> bool {
        self.plan.page_fail > 0.0 && draw(self.plan.seed, "page", node as u64, t_ns) < self.plan.page_fail
    }

    /// Extra paging-channel latency for the page transmitted by `node` at
    /// `t_ns`, in nanoseconds (0 when the knob is off).
    pub fn page_extra_delay_ns(&self, node: u32, t_ns: u64) -> u64 {
        if self.plan.page_delay_max_ms <= 0.0 {
            return 0;
        }
        let u = draw(self.plan.seed, "page_delay", node as u64, t_ns);
        (u * self.plan.page_delay_max_ms * 1e6) as u64
    }

    /// Capacity scale factor for `node`'s battery (1.0 when the knob is
    /// off), uniform in `[1-var, 1+var]`, floored away from zero.
    pub fn battery_scale(&self, node: u32) -> f64 {
        if self.plan.battery_var <= 0.0 {
            return 1.0;
        }
        let u = draw(self.plan.seed, "battery", node as u64, 0);
        (1.0 + self.plan.battery_var * (2.0 * u - 1.0)).max(0.05)
    }

    /// Seconds from one crash-schedule reference point to `node`'s `k`-th
    /// crash (exponential gap; `None` when churn is off).
    pub fn crash_gap_secs(&self, node: u32, k: u64) -> Option<f64> {
        exp_gap(self.plan.seed, "crash", self.plan.churn_rate, node, k)
    }

    /// Downtime before a crashed node reboots.
    pub fn rejoin_secs(&self) -> f64 {
        self.plan.rejoin_secs.max(0.001)
    }

    /// Seconds to `node`'s `k`-th sudden-drain event (`None` when off).
    pub fn drain_gap_secs(&self, node: u32, k: u64) -> Option<f64> {
        exp_gap(self.plan.seed, "drain", self.plan.drain_rate, node, k)
    }

    /// Remaining-energy fraction lost per sudden drain.
    pub fn drain_frac(&self) -> f64 {
        self.plan.drain_frac.clamp(0.0, 1.0)
    }

    /// The plan's GPS error offset `(dx, dy)` in meters for `node` at
    /// `t_ns` ([`gps_offset`] with radius bound `gps_error_m`).
    #[inline]
    pub fn gps_offset_m(&self, node: u32, t_ns: u64) -> (f64, f64) {
        let (seed, max_m) = (self.plan.seed, self.plan.gps_error_m);
        gps_offset(seed, ["gps_r", "gps_a"], "fault.sub", node, max_m, t_ns)
    }
}

/// Exponential inter-event gap with `rate` events/s, keyed by
/// `(seed, domain, node, k)`.  Floored at 10 ms so a pathological draw
/// cannot produce a zero-delay event storm.
fn exp_gap(seed: u64, domain: &str, rate: f64, node: u32, k: u64) -> Option<f64> {
    if rate <= 0.0 {
        return None;
    }
    let u = draw(seed, domain, node as u64, k);
    Some((-(1.0 - u).ln() / rate).max(0.01))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_inactive_and_decides_nothing() {
        let mut ctl = FaultCtl::new(FaultPlan::none(), 8);
        assert!(!ctl.is_active());
        for t in [0u64, 1_000_000_000, 77_000_000_000] {
            assert!(!ctl.frame_lost(3, t / 7, t));
            assert!(!ctl.page_lost(3, t));
            assert_eq!(ctl.page_extra_delay_ns(3, t), 0);
            assert_eq!(ctl.gps_offset_m(3, t), (0.0, 0.0));
        }
        assert_eq!(ctl.battery_scale(0), 1.0);
        assert_eq!(ctl.crash_gap_secs(0, 0), None);
        assert_eq!(ctl.drain_gap_secs(0, 0), None);
        // a nonzero seed alone changes nothing
        let seeded = FaultPlan::none().with_seed(999);
        assert!(!seeded.is_active());
    }

    #[test]
    fn decisions_are_pure_functions_of_their_keys() {
        let plan = FaultPlan {
            loss: 0.3,
            page_fail: 0.2,
            page_delay_max_ms: 10.0,
            churn_rate: 0.01,
            gps_error_m: 20.0,
            seed: 42,
            ..FaultPlan::none()
        };
        let a = FaultCtl::new(plan, 4);
        let b = FaultCtl::new(plan, 4);
        for node in 0..4u32 {
            for k in 0..64u64 {
                let t = k * 123_456_789;
                assert_eq!(a.page_lost(node, t), b.page_lost(node, t));
                assert_eq!(a.page_extra_delay_ns(node, t), b.page_extra_delay_ns(node, t));
                assert_eq!(a.gps_offset_m(node, t), b.gps_offset_m(node, t));
                assert_eq!(a.crash_gap_secs(node, k), b.crash_gap_secs(node, k));
            }
        }
        // ...and a different seed re-rolls them
        let c = FaultCtl::new(plan.with_seed(43), 4);
        let mut diff = 0;
        for k in 0..256u64 {
            if a.page_lost(1, k * 1_000_000) != c.page_lost(1, k * 1_000_000) {
                diff += 1;
            }
        }
        assert!(diff > 0, "re-seeding must move the faults");
    }

    #[test]
    fn independent_loss_hits_near_its_probability() {
        let plan = FaultPlan {
            loss: 0.25,
            seed: 7,
            ..FaultPlan::none()
        };
        let mut ctl = FaultCtl::new(plan, 1);
        let n = 100_000;
        let mut lost = 0;
        for tx in 0..n {
            if ctl.frame_lost(0, tx, tx * 1_000_000) {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn gilbert_elliott_stationary_loss_within_two_percent() {
        // π_bad = 0.05/(0.05+0.2) = 0.2; loss = 0.2 · 0.5 = 0.10.
        let ge = GilbertElliott {
            p_gb: 0.05,
            p_bg: 0.2,
            loss_good: 0.0,
            loss_bad: 0.5,
        };
        let plan = FaultPlan {
            ge: Some(ge),
            seed: 11,
            ..FaultPlan::none()
        };
        let expected = ge.stationary_loss();
        assert!((expected - 0.10).abs() < 1e-12);
        let mut ctl = FaultCtl::new(plan, 1);
        let draws = 100_000u64;
        let mut lost = 0u64;
        for slot in 0..draws {
            // one reception per slot
            if ctl.frame_lost(0, slot, slot * GE_SLOT_NS) {
                lost += 1;
            }
        }
        let rate = lost as f64 / draws as f64;
        assert!(
            (rate - expected).abs() < 0.02,
            "stationary loss {rate} vs configured {expected}"
        );
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Under the same stationary rate, GE losses must clump: the
        // conditional P(loss at k+1 | loss at k) far exceeds the marginal.
        let plan = FaultPlan {
            ge: Some(GilbertElliott {
                p_gb: 0.05,
                p_bg: 0.2,
                loss_good: 0.0,
                loss_bad: 0.5,
            }),
            seed: 5,
            ..FaultPlan::none()
        };
        let mut ctl = FaultCtl::new(plan, 1);
        let draws = 100_000u64;
        let mut outcomes = Vec::with_capacity(draws as usize);
        for slot in 0..draws {
            outcomes.push(ctl.frame_lost(0, slot, slot * GE_SLOT_NS));
        }
        let marginal = outcomes.iter().filter(|&&x| x).count() as f64 / draws as f64;
        let mut after_loss = 0u64;
        let mut loss_then_loss = 0u64;
        for w in outcomes.windows(2) {
            if w[0] {
                after_loss += 1;
                if w[1] {
                    loss_then_loss += 1;
                }
            }
        }
        let conditional = loss_then_loss as f64 / after_loss as f64;
        assert!(
            conditional > 1.5 * marginal,
            "conditional {conditional} vs marginal {marginal}: not bursty"
        );
    }

    #[test]
    fn chain_state_is_query_pattern_independent() {
        let plan = FaultPlan {
            ge: Some(GilbertElliott {
                p_gb: 0.1,
                p_bg: 0.3,
                loss_good: 0.0,
                loss_bad: 1.0,
            }),
            seed: 3,
            ..FaultPlan::none()
        };
        // dense queries vs one late query must agree on the final state
        let mut dense = FaultCtl::new(plan, 1);
        for slot in 0..5_000u64 {
            dense.ge_loss_prob(0, slot * GE_SLOT_NS);
        }
        let mut sparse = FaultCtl::new(plan, 1);
        let last = 4_999 * GE_SLOT_NS;
        assert_eq!(dense.ge_loss_prob(0, last), sparse.ge_loss_prob(0, last));
    }

    #[test]
    fn crash_gaps_are_exponential_with_the_right_mean() {
        let plan = FaultPlan {
            churn_rate: 0.02, // mean gap 50 s
            seed: 1,
            ..FaultPlan::none()
        };
        let ctl = FaultCtl::new(plan, 64);
        let mut total = 0.0;
        let mut n = 0;
        for node in 0..64u32 {
            for k in 0..100u64 {
                total += ctl.crash_gap_secs(node, k).unwrap();
                n += 1;
            }
        }
        let mean = total / n as f64;
        assert!((mean - 50.0).abs() < 3.0, "mean crash gap {mean}");
    }

    #[test]
    fn battery_scale_spans_the_variance_band() {
        let plan = FaultPlan {
            battery_var: 0.3,
            seed: 9,
            ..FaultPlan::none()
        };
        let ctl = FaultCtl::new(plan, 256);
        let scales: Vec<f64> = (0..256).map(|i| ctl.battery_scale(i)).collect();
        assert!(scales.iter().all(|s| (0.7..=1.3).contains(s)));
        let lo = scales.iter().cloned().fold(f64::MAX, f64::min);
        let hi = scales.iter().cloned().fold(f64::MIN, f64::max);
        assert!(lo < 0.8 && hi > 1.2, "variance band unused: [{lo}, {hi}]");
    }

    #[test]
    fn gps_offsets_are_bounded_and_refresh_per_second() {
        let plan = FaultPlan {
            gps_error_m: 25.0,
            seed: 2,
            ..FaultPlan::none()
        };
        let ctl = FaultCtl::new(plan, 4);
        let (dx, dy) = ctl.gps_offset_m(1, 500_000_000);
        assert!((dx * dx + dy * dy).sqrt() <= 25.0);
        // constant within a second, re-rolled across seconds
        assert_eq!(ctl.gps_offset_m(1, 100_000_000), ctl.gps_offset_m(1, 900_000_000));
        let mut moved = 0;
        for s in 0..32u64 {
            if ctl.gps_offset_m(1, s * 1_000_000_000) != ctl.gps_offset_m(1, (s + 1) * 1_000_000_000) {
                moved += 1;
            }
        }
        assert!(moved > 16);
    }

    #[test]
    fn keyed_draws_match_their_known_answers() {
        // Known answers: a change to the draw keys, the hash or the way
        // a literal label folds fails here before it moves a fixture.
        let (dx, dy) = gps_offset(42, ["gps_r", "gps_a"], "fault.sub", 3, 20.0, 5_500_000_000);
        assert_eq!(
            (dx.to_bits(), dy.to_bits()),
            (0xc029_3d77_8a8a_a877, 0x401e_6e6f_3982_a0e5)
        );
        let (dx, dy) = gps_offset(9, ["grp_r", "grp_a"], "scenario.sub", 17, 7.5, 61_000_000_000);
        assert_eq!(
            (dx.to_bits(), dy.to_bits()),
            (0xbf9a_08d6_1276_3efe, 0xc014_900f_ba50_f744)
        );
        let gps = FaultCtl::new(
            FaultPlan {
                gps_error_m: 20.0,
                seed: 42,
                ..FaultPlan::none()
            },
            4,
        );
        let (dx, dy) = gps.gps_offset_m(3, 5_500_000_000);
        assert_eq!(
            (dx.to_bits(), dy.to_bits()),
            (0xc029_3d77_8a8a_a877, 0x401e_6e6f_3982_a0e5)
        );
        // one bit per transmission, set when its reception is lost
        let lost_mask = |plan: FaultPlan, node: u32, slot_ns: u64| {
            let mut ctl = FaultCtl::new(plan, 4);
            (0..32u64).fold(0u32, |m, tx| {
                m | (u32::from(ctl.frame_lost(node, tx, tx * slot_ns)) << tx)
            })
        };
        let loss = FaultPlan {
            loss: 0.5,
            seed: 42,
            ..FaultPlan::none()
        };
        assert_eq!(lost_mask(loss, 2, 10_000_000), 0x96a2_0f29);
        let burst = FaultPlan {
            ge: Some(GilbertElliott {
                p_gb: 0.3,
                p_bg: 0.3,
                loss_good: 0.0,
                loss_bad: 0.9,
            }),
            seed: 42,
            ..FaultPlan::none()
        };
        assert_eq!(lost_mask(burst, 1, GE_SLOT_NS), 0x033f_cc40);
    }

    #[test]
    fn parse_round_trips_the_cli_syntax() {
        let plan = FaultPlan::parse(
            "loss=0.1, churn=0.01, page_fail=0.05, page_delay=20, rejoin=30, gps=25, seed=7",
        )
        .unwrap();
        assert_eq!(plan.loss, 0.1);
        assert_eq!(plan.churn_rate, 0.01);
        assert_eq!(plan.page_fail, 0.05);
        assert_eq!(plan.page_delay_max_ms, 20.0);
        assert_eq!(plan.rejoin_secs, 30.0);
        assert_eq!(plan.gps_error_m, 25.0);
        assert_eq!(plan.seed, 7);
        assert!(plan.is_active());

        let ge = FaultPlan::parse("ge=0.05/0.2/0.5").unwrap().ge.unwrap();
        assert_eq!(ge.p_gb, 0.05);
        assert_eq!(ge.p_bg, 0.2);
        assert_eq!(ge.loss_bad, 0.5);
        assert_eq!(ge.loss_good, 0.0);

        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert!(FaultPlan::parse("loss=2.0").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("loss").is_err());
        assert!(FaultPlan::parse("ge=0.1/0.2").is_err());
    }
}
