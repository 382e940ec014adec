//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] armed on a [`crate::WorldConfig`] makes the simulated
//! network misbehave in reproducible ways: a chosen rank crashes at its
//! N-th simulated operation, and tool-plane point-to-point messages can be
//! dropped, duplicated, corrupted, or delayed. Every decision is a pure
//! function of `(plan seed, sender rank, per-sender message nonce)` — the
//! nonce counts messages in *sender program order* — so the same plan and
//! seed produce the same faults regardless of host thread scheduling.
//! That determinism is what lets the chaos tests demand bit-identical
//! degraded traces across runs.
//!
//! Scope: faults apply only to unreliable tool-plane traffic (see
//! [`crate::proc`]'s faultable predicate). Collective-internal rounds and
//! the reliable layer's ACK channel are exempt — corrupting those would
//! model a broken transport, not a lossy link, and the recovery protocol
//! itself must have somewhere solid to stand.

use std::fmt;

use obs::wire::splitmix64;

use crate::proc::Rank;

/// Crash a rank at its `at_op`-th simulated operation (sends, completed
/// receives, and barrier entries all count, including collective-internal
/// ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// The rank to kill. Rank 0 is a legal victim: the checkpoint/deputy
    /// protocol (see FAULTS.md "Recovery") promotes a survivor to own the
    /// online trace when the root dies.
    pub rank: Rank,
    /// Operation index at which the crash fires (0-based: `at_op = 10`
    /// dies attempting its 11th operation).
    pub at_op: u64,
}

/// A progressively-ramping lossy link targeting one sender's outgoing
/// faultable messages: every `window` send nonces past `start_nonce`, the
/// effective drop and delay rates step up by the configured increments
/// (capped at 1000‰). The time axis is the sender's own message nonce —
/// the same pure coordinate [`FaultPlan::fate`] already hashes — so a
/// ramp is deterministic per seed and attributable to exactly one rank,
/// which is what lets the health plane score detected-vs-injected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRamp {
    /// The rank whose *outgoing* sends degrade.
    pub target: Rank,
    /// Nonce at which the ramp starts (rates below it are the plan's
    /// base rates).
    pub start_nonce: u64,
    /// Nonces per ramp step (>= 1).
    pub window: u64,
    /// Drop-rate increment per window, in per-mille.
    pub drop_step_per_mille: u16,
    /// Delay-rate increment per window, in per-mille.
    pub delay_step_per_mille: u16,
}

/// A deterministic fault schedule for one world run.
///
/// Per-mille knobs express probabilities in units of 1/1000 per message
/// (e.g. `corrupt_per_mille = 20` ⇒ 2% of faultable messages are
/// corrupted). All default to zero; a default plan with no crash injects
/// nothing but still arms the armed-mode code paths.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault coins.
    pub seed: u64,
    /// Optional single-rank crash.
    pub crash: Option<CrashFault>,
    /// Per-mille chance a message send attempt is dropped (the sender's
    /// reliable layer observes the drop and retransmits; raw sends are
    /// never dropped because nothing would recover them).
    pub drop_per_mille: u16,
    /// Per-mille chance a delivered message has one payload byte flipped.
    pub corrupt_per_mille: u16,
    /// Per-mille chance a message is delivered twice.
    pub duplicate_per_mille: u16,
    /// Per-mille chance a message's modeled arrival is pushed out by
    /// [`FaultPlan::delay_seconds`].
    pub delay_per_mille: u16,
    /// Virtual-time penalty applied to delayed messages.
    pub delay_seconds: f64,
    /// Per-rank straggler slowdown factors on compute intervals
    /// (`factor > 1.0` slows the rank; absent ranks run at 1.0).
    pub stragglers: Vec<(Rank, f64)>,
    /// Topology-skewed load imbalance: the heavy corner of the row-major
    /// decomposition — the top [`FaultPlan::imbalance_heavy`] ranks — gets
    /// its compute intervals scaled by `1 + imbalance_skew`.
    pub imbalance_skew: f64,
    /// Optional progressively-ramping lossy link.
    pub ramp: Option<LinkRamp>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults configured.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            crash: None,
            drop_per_mille: 0,
            corrupt_per_mille: 0,
            duplicate_per_mille: 0,
            delay_per_mille: 0,
            delay_seconds: 0.0,
            stragglers: Vec::new(),
            imbalance_skew: 0.0,
            ramp: None,
        }
    }

    /// Crash `rank` at its `at_op`-th simulated operation.
    ///
    /// Any rank is a legal victim, including rank 0: the resilient
    /// collectives fail over to the smallest surviving rank, and the
    /// Chameleon runtime promotes a deputy that restores the online trace
    /// from its checkpoint replica (see FAULTS.md "Recovery").
    pub fn crash_rank(mut self, rank: Rank, at_op: u64) -> Self {
        self.crash = Some(CrashFault { rank, at_op });
        self
    }

    /// Set the per-mille message drop rate.
    pub fn drop_per_mille(mut self, pm: u16) -> Self {
        self.drop_per_mille = pm.min(1000);
        self
    }

    /// Set the per-mille payload corruption rate.
    pub fn corrupt_per_mille(mut self, pm: u16) -> Self {
        self.corrupt_per_mille = pm.min(1000);
        self
    }

    /// Set the per-mille message duplication rate.
    pub fn duplicate_per_mille(mut self, pm: u16) -> Self {
        self.duplicate_per_mille = pm.min(1000);
        self
    }

    /// Set the per-mille delivery delay rate and the virtual-time penalty.
    pub fn delay(mut self, pm: u16, seconds: f64) -> Self {
        self.delay_per_mille = pm.min(1000);
        self.delay_seconds = seconds.max(0.0);
        self
    }

    /// Slow `rank`'s compute intervals by `factor` (clamped to >= 1.0).
    pub fn straggle_rank(mut self, rank: Rank, factor: f64) -> Self {
        self.stragglers.retain(|(r, _)| *r != rank);
        self.stragglers.push((rank, factor.max(1.0)));
        self
    }

    /// Scale the heavy-corner ranks' compute intervals by `1 + skew`.
    pub fn imbalance(mut self, skew: f64) -> Self {
        self.imbalance_skew = skew.max(0.0);
        self
    }

    /// Arm a progressively-ramping drop/delay link on `target`'s outgoing
    /// sends: starting at `start_nonce`, every `window` nonces the
    /// effective rates step up by the given per-mille increments. The
    /// virtual-time penalty of delayed messages is the plan's
    /// [`FaultPlan::delay_seconds`] (set via [`FaultPlan::delay`]).
    pub fn ramp_link(
        mut self,
        target: Rank,
        start_nonce: u64,
        window: u64,
        drop_step_per_mille: u16,
        delay_step_per_mille: u16,
    ) -> Self {
        self.ramp = Some(LinkRamp {
            target,
            start_nonce,
            window: window.max(1),
            drop_step_per_mille,
            delay_step_per_mille,
        });
        self
    }

    /// How many heavy-corner ranks an imbalance skew degrades in a world
    /// of `size` ranks: the top quartile (rounded up) of the row-major
    /// order, modeling the loaded corner of a skewed decomposition.
    pub fn imbalance_heavy(size: usize) -> usize {
        size.div_ceil(4)
    }

    /// The pure compute-interval multiplier this plan applies to `rank`
    /// in a world of `size` ranks (1.0 when no degradation targets it).
    pub fn compute_scale(&self, rank: Rank, size: usize) -> f64 {
        let mut scale = 1.0;
        if let Some((_, f)) = self.stragglers.iter().find(|(r, _)| *r == rank) {
            scale *= f;
        }
        if self.imbalance_skew > 0.0 && rank + Self::imbalance_heavy(size) >= size {
            scale *= 1.0 + self.imbalance_skew;
        }
        scale
    }

    /// The effective (drop, delay) per-mille rates for `sender`'s send
    /// attempt `nonce`, base rates plus any ramp steps, capped at 1000.
    pub fn effective_rates(&self, sender: Rank, nonce: u64) -> (u16, u16) {
        let (mut drop, mut delay) = (self.drop_per_mille, self.delay_per_mille);
        if let Some(r) = self.ramp {
            if sender == r.target && nonce >= r.start_nonce {
                let steps = ((nonce - r.start_nonce) / r.window).min(1000);
                drop = (drop as u64 + steps * r.drop_step_per_mille as u64).min(1000) as u16;
                delay = (delay as u64 + steps * r.delay_step_per_mille as u64).min(1000) as u16;
            }
        }
        (drop, delay)
    }

    /// The ranks this plan degrades (stragglers, the ramp target, and the
    /// imbalance heavy corner), ascending and deduplicated — the ground
    /// truth the matrix runner scores anomaly detection against.
    pub fn degraded_ranks(&self, size: usize) -> Vec<Rank> {
        let mut out: Vec<Rank> = self.stragglers.iter().map(|&(r, _)| r).collect();
        if self.imbalance_skew > 0.0 {
            out.extend((size - Self::imbalance_heavy(size).min(size))..size);
        }
        if let Some(r) = self.ramp {
            out.push(r.target);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Does this plan degrade anything (beyond the base lossy link)?
    pub fn degrades(&self) -> bool {
        !self.stragglers.is_empty() || self.imbalance_skew > 0.0 || self.ramp.is_some()
    }

    /// Decide the fate of one message send attempt. Pure in
    /// `(self.seed, sender, nonce)`; callers tick `nonce` once per send
    /// attempt in sender program order. Ramped links change the *rates*
    /// the coins are compared against, never the hash itself, so arming a
    /// ramp perturbs no coin outside its target window.
    pub fn fate(&self, sender: Rank, nonce: u64) -> MessageFate {
        let h = splitmix64(self.seed ^ splitmix64(((sender as u64) << 32) ^ nonce));
        let (drop_pm, delay_pm) = self.effective_rates(sender, nonce);
        MessageFate {
            drop: (h % 1000) < drop_pm as u64,
            corrupt: ((h >> 10) % 1000) < self.corrupt_per_mille as u64,
            duplicate: ((h >> 20) % 1000) < self.duplicate_per_mille as u64,
            delay: ((h >> 30) % 1000) < delay_pm as u64,
            entropy: splitmix64(h),
        }
    }
}

/// The coin-flip outcome for one message send attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageFate {
    /// Discard the message instead of delivering it.
    pub drop: bool,
    /// Flip one payload byte.
    pub corrupt: bool,
    /// Deliver the message twice.
    pub duplicate: bool,
    /// Push the modeled arrival time out.
    pub delay: bool,
    /// Extra deterministic randomness (chooses which byte to corrupt).
    pub entropy: u64,
}

impl fmt::Display for FaultPlan {
    /// Renders the full plan — this is the reproduction recipe the chaos
    /// CI job uploads as a failure artifact.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FaultPlan seed=0x{:016x}", self.seed)?;
        match self.crash {
            Some(c) => writeln!(f, "  crash: rank {} at op {}", c.rank, c.at_op)?,
            None => writeln!(f, "  crash: none")?,
        }
        writeln!(f, "  drop: {}/1000", self.drop_per_mille)?;
        writeln!(f, "  corrupt: {}/1000", self.corrupt_per_mille)?;
        writeln!(f, "  duplicate: {}/1000", self.duplicate_per_mille)?;
        write!(
            f,
            "  delay: {}/1000 (+{}s virtual)",
            self.delay_per_mille, self.delay_seconds
        )?;
        if !self.stragglers.is_empty() {
            let mut sorted = self.stragglers.clone();
            sorted.sort_by_key(|s| s.0);
            write!(f, "\n  stragglers:")?;
            for (rank, factor) in sorted {
                write!(f, " rank {rank} x{factor}")?;
            }
        }
        if self.imbalance_skew > 0.0 {
            write!(
                f,
                "\n  imbalance: heavy corner x{}",
                1.0 + self.imbalance_skew
            )?;
        }
        if let Some(r) = self.ramp {
            write!(
                f,
                "\n  ramp: rank {} from nonce {} every {} (+{}/1000 drop, +{}/1000 delay)",
                r.target, r.start_nonce, r.window, r.drop_step_per_mille, r.delay_step_per_mille
            )?;
        }
        Ok(())
    }
}

/// Per-rank tally of injected faults and recovery actions, reported in
/// [`crate::world::FaultyWorldReport`] (and readable even from a crashed
/// rank).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// This rank was killed by the plan's crash fault.
    pub crashed: bool,
    /// Send attempts the plan discarded (sender-side; each is followed by
    /// a retransmission from the reliable layer).
    pub drops: u64,
    /// Messages delivered twice.
    pub duplicates: u64,
    /// Messages delivered with a flipped payload byte.
    pub corruptions: u64,
    /// Messages whose arrival time was pushed out.
    pub delays: u64,
    /// Retransmissions performed by this rank's reliable send path
    /// (covers both observed drops and NACKed frames).
    pub retransmits: u64,
    /// NACKs this rank sent after CRC/framing failures.
    pub nacks_sent: u64,
    /// Times this rank observed a peer's death while waiting on it.
    pub peer_deaths_seen: u64,
    /// Blocking receives that ended at a proven stall in the armed world
    /// and aborted with a typed [`crate::ProtocolError::Timeout`] instead
    /// of hanging forever.
    pub timeouts: u64,
}

/// Panic payload used for plan-injected crashes, so the world harness can
/// tell a scheduled death from a genuine bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash {
    /// The rank that died.
    pub rank: Rank,
    /// The operation index at which it died.
    pub op: u64,
}

impl fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected crash: rank {} at op {}", self.rank, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_is_deterministic() {
        let plan = FaultPlan::new(0xC0FFEE)
            .drop_per_mille(100)
            .corrupt_per_mille(50)
            .duplicate_per_mille(25)
            .delay(10, 0.5);
        for sender in 0..8 {
            for nonce in 0..200 {
                assert_eq!(plan.fate(sender, nonce), plan.fate(sender, nonce));
            }
        }
    }

    #[test]
    fn fate_rates_roughly_honored() {
        let plan = FaultPlan::new(7).drop_per_mille(100).corrupt_per_mille(500);
        let n = 20_000u64;
        let (mut drops, mut corrupts) = (0u64, 0u64);
        for nonce in 0..n {
            let f = plan.fate(3, nonce);
            drops += f.drop as u64;
            corrupts += f.corrupt as u64;
        }
        let drop_rate = drops as f64 / n as f64;
        let corrupt_rate = corrupts as f64 / n as f64;
        assert!((0.08..0.12).contains(&drop_rate), "drop rate {drop_rate}");
        assert!(
            (0.45..0.55).contains(&corrupt_rate),
            "corrupt rate {corrupt_rate}"
        );
    }

    #[test]
    fn fate_differs_across_seeds_and_senders() {
        let a = FaultPlan::new(1).drop_per_mille(500);
        let b = FaultPlan::new(2).drop_per_mille(500);
        let diff_seed = (0..64).filter(|&n| a.fate(0, n) != b.fate(0, n)).count();
        let diff_sender = (0..64).filter(|&n| a.fate(0, n) != a.fate(1, n)).count();
        assert!(diff_seed > 10, "seeds must decorrelate coins");
        assert!(diff_sender > 10, "senders must decorrelate coins");
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = FaultPlan::new(99);
        for nonce in 0..1000 {
            let f = plan.fate(1, nonce);
            assert!(!f.drop && !f.corrupt && !f.duplicate && !f.delay);
        }
    }

    #[test]
    fn crashing_rank_zero_accepted() {
        // The root is no longer immortal: deputy replication + failover
        // (FAULTS.md "Recovery") make rank 0 a legal crash victim.
        let plan = FaultPlan::new(0).crash_rank(0, 5);
        assert_eq!(plan.crash, Some(CrashFault { rank: 0, at_op: 5 }));
    }

    #[test]
    fn plan_display_is_a_repro_recipe() {
        let plan = FaultPlan::new(0xAB).crash_rank(3, 42).corrupt_per_mille(20);
        let s = plan.to_string();
        assert!(s.contains("seed=0x00000000000000ab"));
        assert!(s.contains("rank 3 at op 42"));
        assert!(s.contains("corrupt: 20/1000"));
        let degraded = FaultPlan::new(1)
            .straggle_rank(2, 4.0)
            .imbalance(0.5)
            .ramp_link(1, 100, 50, 10, 5)
            .to_string();
        assert!(degraded.contains("rank 2 x4"));
        assert!(degraded.contains("heavy corner x1.5"));
        assert!(degraded.contains("ramp: rank 1 from nonce 100 every 50"));
    }

    #[test]
    fn compute_scale_composes_and_defaults_to_unity() {
        let plan = FaultPlan::new(0);
        for rank in 0..8 {
            assert_eq!(plan.compute_scale(rank, 8), 1.0);
        }
        let plan = FaultPlan::new(0).straggle_rank(3, 5.0).imbalance(0.5);
        assert_eq!(plan.compute_scale(0, 8), 1.0);
        assert_eq!(plan.compute_scale(3, 8), 5.0);
        // imbalance_heavy(8) = 2: ranks 6 and 7 are the heavy corner.
        assert_eq!(plan.compute_scale(5, 8), 1.0);
        assert_eq!(plan.compute_scale(6, 8), 1.5);
        assert_eq!(plan.compute_scale(7, 8), 1.5);
        // A straggler in the heavy corner compounds.
        let both = FaultPlan::new(0).straggle_rank(7, 2.0).imbalance(0.5);
        assert_eq!(both.compute_scale(7, 8), 3.0);
    }

    #[test]
    fn ramp_escalates_only_its_target_past_start() {
        let plan = FaultPlan::new(9).ramp_link(2, 100, 50, 10, 5);
        assert_eq!(plan.effective_rates(2, 0), (0, 0));
        assert_eq!(plan.effective_rates(2, 99), (0, 0));
        assert_eq!(plan.effective_rates(2, 100), (0, 0), "step 0 adds nothing");
        assert_eq!(plan.effective_rates(2, 150), (10, 5));
        assert_eq!(plan.effective_rates(2, 600), (100, 50));
        // Other senders never ramp.
        assert_eq!(plan.effective_rates(1, 600), (0, 0));
        // Rates cap at 1000 per mille.
        assert_eq!(plan.effective_rates(2, 100 + 50 * 5000), (1000, 1000));
        // The coin hash is rate-independent: corrupt/duplicate coins agree
        // with an unramped plan at every nonce.
        let base = FaultPlan::new(9);
        for nonce in 0..2000 {
            let a = plan.fate(2, nonce);
            let b = base.fate(2, nonce);
            assert_eq!(a.corrupt, b.corrupt);
            assert_eq!(a.duplicate, b.duplicate);
            assert_eq!(a.entropy, b.entropy);
        }
    }

    #[test]
    fn fate_coins_are_pairwise_independent() {
        // The four fate coins slice different windows of one splitmix64
        // hash. If those windows correlated, compound fault rates would
        // silently deviate from the product of the marginals (a dropped
        // message would, say, also tend to be corrupted on retransmit),
        // biasing every chaos and degraded suite. Check all six coin
        // pairs with a 2x2 chi-square statistic across 10 seeds: under
        // independence chi2 ~ chi2(1), so 20 would be an astronomical
        // outlier (p < 1e-5) — and the whole check is deterministic, so
        // it either always passes or flags a real coin correlation.
        let n = 20_000u64;
        for seed in 0..10u64 {
            let plan = FaultPlan::new(splitmix64(seed))
                .drop_per_mille(200)
                .corrupt_per_mille(200)
                .duplicate_per_mille(200)
                .delay(200, 0.1);
            let mut joint = [[0u64; 4]; 4]; // joint[i][j]: coins i and j both up
            let mut marginal = [0u64; 4];
            for nonce in 0..n {
                let f = plan.fate(1, nonce);
                let coins = [f.drop, f.corrupt, f.duplicate, f.delay];
                for i in 0..4 {
                    marginal[i] += coins[i] as u64;
                    for j in (i + 1)..4 {
                        joint[i][j] += (coins[i] && coins[j]) as u64;
                    }
                }
            }
            for i in 0..4 {
                for j in (i + 1)..4 {
                    // 2x2 contingency table: a = both, b/c = one only,
                    // d = neither; chi2 = n(ad-bc)^2 / (row/col products).
                    let a = joint[i][j] as f64;
                    let b = marginal[i] as f64 - a;
                    let c = marginal[j] as f64 - a;
                    let d = n as f64 - a - b - c;
                    let chi2 = n as f64 * (a * d - b * c).powi(2)
                        / ((a + b) * (c + d) * (a + c) * (b + d));
                    assert!(
                        chi2 < 20.0,
                        "coins {i} and {j} correlate under seed {seed}: chi2 = {chi2:.2} \
                         (joint {a}, marginals {} / {})",
                        marginal[i],
                        marginal[j]
                    );
                }
            }
        }
    }

    #[test]
    fn degraded_ranks_is_sorted_ground_truth() {
        assert!(FaultPlan::new(0).degraded_ranks(8).is_empty());
        assert!(!FaultPlan::new(0).degrades());
        let plan = FaultPlan::new(0)
            .straggle_rank(7, 3.0)
            .imbalance(0.4)
            .ramp_link(1, 0, 10, 5, 5);
        assert!(plan.degrades());
        // Stragglers(7) + ramp(1) + heavy corner of 8 (6, 7), deduped.
        assert_eq!(plan.degraded_ranks(8), vec![1, 6, 7]);
    }
}
