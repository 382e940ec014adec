//! The transition graph — the paper's Figure 2 / Algorithm 1, as a pure
//! state machine.
//!
//! Each marker call turns into two steps so the MPI vote can happen in
//! between:
//!
//! 1. [`TransitionGraph::local_vote`] — compare the interval's Call-Path
//!    signature against the previous one and produce this rank's mismatch
//!    indicator (`tempReduceVal` in Algorithm 1);
//! 2. [`TransitionGraph::decide`] — fold in the *global* vote (the summed
//!    indicators after `MPI_Reduce` + `MPI_Bcast`) and emit the marker
//!    decision.
//!
//! Because the vote result is identical on every rank and the flag
//! updates are deterministic, all ranks move through the same states in
//! lock-step — the paper's point (7): "the synchronization step guarantees
//! they are in the same state with respect to clustering."
//!
//! ## Decision semantics
//!
//! [`MarkerDecision`] distinguishes what Algorithm 3 must *do* from what
//! the statistics count (Table II's AT/C/L tallies):
//!
//! | decision          | Table II state | Algorithm 3 work                     |
//! |-------------------|----------------|--------------------------------------|
//! | `FirstMarker`     | AT             | none (baseline signature captured)   |
//! | `Cluster`         | C              | cluster + elect leads + merge + wipe |
//! | `StableLead`      | L              | none (leads keep tracing)            |
//! | `FlushLead`       | AT             | merge lead traces + all-tracing      |
//! | `AllTracing`      | AT             | none (mismatch while unstable)       |

use sigkit::CallPathSig;

/// The four states of the paper's Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkerState {
    /// All processes tracing.
    AllTracing,
    /// Clustering happens at this marker.
    Clustering,
    /// Lead phase: only lead processes trace.
    Lead,
    /// Trace ended (`MPI_Finalize`).
    Final,
}

impl MarkerState {
    /// Journal and Table IV label (one of `obs::event::STATES`).
    pub(crate) fn label(self) -> &'static str {
        match self {
            MarkerState::AllTracing => "AT",
            MarkerState::Clustering => "C",
            MarkerState::Lead => "L",
            MarkerState::Final => "F",
        }
    }
}

/// What a marker call must do, decided by the global vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerDecision {
    /// Very first marker: record the baseline Call-Path, stay AT.
    FirstMarker,
    /// Repetition detected for the first time: run clustering, elect
    /// leads, merge everything traced so far, wipe partials.
    Cluster,
    /// Stable lead phase: nothing to do; leads keep tracing, the rest
    /// stay dark.
    StableLead,
    /// Phase change detected while in the lead phase: flush (merge) the
    /// lead traces accumulated since clustering, then everyone resumes
    /// tracing.
    FlushLead,
    /// Mismatch while not in a lead phase: keep tracing on all ranks and
    /// re-arm clustering.
    AllTracing,
}

impl MarkerDecision {
    /// Journal label (one of `obs::event::DECISIONS`; finalize closes its
    /// slice under the last one, `"finalize"`).
    pub(crate) fn label(self) -> &'static str {
        match self {
            MarkerDecision::FirstMarker => "first",
            MarkerDecision::AllTracing => "all_tracing",
            MarkerDecision::StableLead => "stable_lead",
            MarkerDecision::Cluster => "cluster",
            MarkerDecision::FlushLead => "flush_lead",
        }
    }

    /// The Table II state this marker is counted under.
    pub fn counted_state(self) -> MarkerState {
        match self {
            MarkerDecision::FirstMarker
            | MarkerDecision::FlushLead
            | MarkerDecision::AllTracing => MarkerState::AllTracing,
            MarkerDecision::Cluster => MarkerState::Clustering,
            MarkerDecision::StableLead => MarkerState::Lead,
        }
    }
}

/// This rank's contribution to the vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalVote {
    /// First marker ever: no previous Call-Path to compare; skip the vote.
    First,
    /// Mismatch indicator to be summed across ranks (0 = repetition,
    /// 1 = this rank's Call-Path changed).
    Mismatch(u64),
}

/// Algorithm 1's persistent per-rank state.
#[derive(Debug, Clone)]
pub struct TransitionGraph {
    old_call_path: CallPathSig,
    re_clustering: bool,
    lead_flag: bool,
}

impl Default for TransitionGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl TransitionGraph {
    /// Initial state (Algorithm 1's initialization: `OldCallPath = 0`,
    /// `Re-Clustering Flag = true`, `Lead Flag = false`).
    pub fn new() -> Self {
        TransitionGraph {
            old_call_path: CallPathSig::NONE,
            re_clustering: true,
            lead_flag: false,
        }
    }

    /// Whether the graph is in a lead phase (clustering happened and no
    /// phase change has been seen since).
    pub fn in_lead_phase(&self) -> bool {
        self.lead_flag
    }

    /// Serializable image of the persistent state, in declaration order:
    /// `(OldCallPath, Re-Clustering Flag, Lead Flag)`. Paired with
    /// [`TransitionGraph::restore`] by the checkpoint codec.
    pub fn snapshot(&self) -> (CallPathSig, bool, bool) {
        (self.old_call_path, self.re_clustering, self.lead_flag)
    }

    /// Rebuild a graph from a [`TransitionGraph::snapshot`] image.
    pub fn restore(old_call_path: CallPathSig, re_clustering: bool, lead_flag: bool) -> Self {
        TransitionGraph {
            old_call_path,
            re_clustering,
            lead_flag,
        }
    }

    /// Step 1: compare against the previous interval and update
    /// `OldCallPath`.
    pub fn local_vote(&mut self, current: CallPathSig) -> LocalVote {
        if self.old_call_path.is_none() {
            self.old_call_path = current;
            return LocalVote::First;
        }
        let mismatch = u64::from(self.old_call_path != current);
        self.old_call_path = current;
        LocalVote::Mismatch(mismatch)
    }

    /// Step 2: fold in the global vote (sum of all ranks' mismatch
    /// indicators) and decide the marker's action.
    pub fn decide(&mut self, global_mismatches: u64) -> MarkerDecision {
        if global_mismatches == 0 {
            if self.re_clustering {
                self.re_clustering = false;
                self.lead_flag = true;
                MarkerDecision::Cluster
            } else {
                MarkerDecision::StableLead
            }
        } else if self.lead_flag {
            self.lead_flag = false;
            self.re_clustering = true;
            MarkerDecision::FlushLead
        } else {
            self.re_clustering = true;
            MarkerDecision::AllTracing
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(v: u64) -> CallPathSig {
        CallPathSig(v)
    }

    /// Drive a single "world" of identical ranks: local vote == global.
    fn drive(graph: &mut TransitionGraph, s: CallPathSig) -> MarkerDecision {
        match graph.local_vote(s) {
            LocalVote::First => MarkerDecision::FirstMarker,
            LocalVote::Mismatch(m) => graph.decide(m),
        }
    }

    #[test]
    fn first_marker_is_at() {
        let mut g = TransitionGraph::new();
        assert_eq!(drive(&mut g, sig(1)), MarkerDecision::FirstMarker);
        assert_eq!(
            MarkerDecision::FirstMarker.counted_state(),
            MarkerState::AllTracing
        );
    }

    #[test]
    fn stable_sequence_at_c_then_leads() {
        // The paper's Figure 3 first loop: AT, C, then L as long as the
        // Call-Path repeats.
        let mut g = TransitionGraph::new();
        assert_eq!(drive(&mut g, sig(7)), MarkerDecision::FirstMarker);
        assert_eq!(drive(&mut g, sig(7)), MarkerDecision::Cluster);
        for _ in 0..10 {
            assert_eq!(drive(&mut g, sig(7)), MarkerDecision::StableLead);
        }
    }

    #[test]
    fn lu_table2_shape() {
        // LU: 15 markers -> 1 C, 11 L, 3 AT (Table II). Markers 14 and 15
        // see changed Call-Paths (epilogue phase).
        let mut g = TransitionGraph::new();
        let mut counts = std::collections::HashMap::new();
        let mut seq: Vec<CallPathSig> = vec![sig(1); 13];
        seq.push(sig(2));
        seq.push(sig(3));
        for s in seq {
            let d = drive(&mut g, s);
            *counts.entry(d.counted_state()).or_insert(0u32) += 1;
        }
        assert_eq!(counts[&MarkerState::Clustering], 1);
        assert_eq!(counts[&MarkerState::Lead], 11);
        assert_eq!(counts[&MarkerState::AllTracing], 3);
    }

    #[test]
    fn phase_change_in_lead_flushes() {
        let mut g = TransitionGraph::new();
        drive(&mut g, sig(1)); // first
        drive(&mut g, sig(1)); // cluster
        drive(&mut g, sig(1)); // stable lead
        assert!(g.in_lead_phase());
        assert_eq!(drive(&mut g, sig(2)), MarkerDecision::FlushLead);
        assert!(!g.in_lead_phase());
    }

    #[test]
    fn recluster_after_flush_and_stability() {
        // Figure 3's second pattern: after the flush, a new repetitive
        // pattern triggers a second clustering.
        let mut g = TransitionGraph::new();
        drive(&mut g, sig(1));
        drive(&mut g, sig(1)); // C
        drive(&mut g, sig(2)); // flush
        assert_eq!(drive(&mut g, sig(2)), MarkerDecision::Cluster, "re-cluster");
        assert_eq!(drive(&mut g, sig(2)), MarkerDecision::StableLead);
    }

    #[test]
    fn continuous_mismatch_stays_at() {
        // "if in every marker call there is a different Call-Path, then
        // there would be no clustering, and Chameleon stays in AT."
        let mut g = TransitionGraph::new();
        drive(&mut g, sig(100));
        for i in 101..120u64 {
            assert_eq!(drive(&mut g, sig(i)), MarkerDecision::AllTracing);
        }
    }

    #[test]
    fn alternating_match_mismatch_oscillates_c_flush() {
        // The Figure 10 experiment: force a phase change every other
        // vote, maximizing re-clusterings (C, flush, C, flush, ...).
        let mut g = TransitionGraph::new();
        drive(&mut g, sig(1)); // first
        let mut c_count = 0;
        let mut flush_count = 0;
        let mut cur = 1u64;
        for step in 0..20 {
            // Every even step repeats the last signature, every odd step
            // changes it.
            if step % 2 == 1 {
                cur += 1;
            }
            match drive(&mut g, sig(cur)) {
                MarkerDecision::Cluster => c_count += 1,
                MarkerDecision::FlushLead => flush_count += 1,
                other => panic!("unexpected {other:?} at step {step}"),
            }
        }
        assert_eq!(c_count, 10);
        assert_eq!(flush_count, 10);
    }

    #[test]
    fn vote_aggregation_any_rank_mismatch_blocks_clustering() {
        // Two ranks: rank 0 stable, rank 1 changes. The summed vote must
        // keep both in AT.
        let mut g0 = TransitionGraph::new();
        let mut g1 = TransitionGraph::new();
        g0.local_vote(sig(1));
        g1.local_vote(sig(10));
        let v0 = g0.local_vote(sig(1));
        let v1 = g1.local_vote(sig(11));
        let (LocalVote::Mismatch(m0), LocalVote::Mismatch(m1)) = (v0, v1) else {
            panic!("expected mismatch votes");
        };
        let global = m0 + m1;
        assert_eq!(global, 1);
        assert_eq!(g0.decide(global), MarkerDecision::AllTracing);
        assert_eq!(g1.decide(global), MarkerDecision::AllTracing);
    }

    #[test]
    fn snapshot_restore_roundtrips_mid_run() {
        let mut g = TransitionGraph::new();
        drive(&mut g, sig(1)); // first
        drive(&mut g, sig(1)); // cluster -> lead phase
        let (cp, rc, lf) = g.snapshot();
        let mut restored = TransitionGraph::restore(cp, rc, lf);
        assert_eq!(restored.snapshot(), g.snapshot());
        // Both copies must keep deciding identically.
        for s in [1u64, 1, 2, 2, 2] {
            assert_eq!(drive(&mut g, sig(s)), drive(&mut restored, sig(s)));
        }
    }

    #[test]
    fn counted_states_cover_all_decisions() {
        assert_eq!(
            MarkerDecision::Cluster.counted_state(),
            MarkerState::Clustering
        );
        assert_eq!(
            MarkerDecision::StableLead.counted_state(),
            MarkerState::Lead
        );
        for d in [
            MarkerDecision::FirstMarker,
            MarkerDecision::FlushLead,
            MarkerDecision::AllTracing,
        ] {
            assert_eq!(d.counted_state(), MarkerState::AllTracing);
        }
    }

    #[test]
    fn labels_match_the_journal_tables_in_order() {
        use MarkerDecision as D;
        use MarkerState as S;
        let states = [S::AllTracing, S::Clustering, S::Lead, S::Final].map(S::label);
        assert_eq!(states, obs::event::STATES);
        let decisions: Vec<&str> = [
            D::FirstMarker,
            D::AllTracing,
            D::StableLead,
            D::Cluster,
            D::FlushLead,
        ]
        .map(D::label)
        .into_iter()
        .chain(["finalize"])
        .collect();
        assert_eq!(decisions, obs::event::DECISIONS);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use xrand::Xoshiro256;

    /// Lock-step property: N ranks fed the same global votes always
    /// agree on every decision.
    #[test]
    fn ranks_stay_in_lockstep() {
        let mut rng = Xoshiro256::seed_from_u64(0x10C5);
        for _case in 0..200 {
            let sigs: Vec<u64> = (0..rng.range_usize(1, 40))
                .map(|_| rng.range_u64(1, 4))
                .collect();
            let nranks = rng.range_usize(2, 6);
            let mut graphs: Vec<TransitionGraph> =
                (0..nranks).map(|_| TransitionGraph::new()).collect();
            for s in &sigs {
                let votes: Vec<LocalVote> = graphs
                    .iter_mut()
                    .map(|g| g.local_vote(CallPathSig(*s)))
                    .collect();
                if votes.iter().any(|v| matches!(v, LocalVote::First)) {
                    // All ranks hit the first marker simultaneously.
                    assert!(votes.iter().all(|v| matches!(v, LocalVote::First)));
                    continue;
                }
                let global: u64 = votes
                    .iter()
                    .map(|v| match v {
                        LocalVote::Mismatch(m) => *m,
                        LocalVote::First => unreachable!(),
                    })
                    .sum();
                let decisions: Vec<MarkerDecision> =
                    graphs.iter_mut().map(|g| g.decide(global)).collect();
                assert!(decisions.windows(2).all(|w| w[0] == w[1]));
            }
        }
    }

    /// Clustering only ever fires after a confirmed repetition, and a
    /// flush only after a clustering.
    #[test]
    fn cluster_precedes_flush() {
        let mut rng = Xoshiro256::seed_from_u64(0xF105);
        for _case in 0..200 {
            let sigs: Vec<u64> = (0..rng.range_usize(1, 60))
                .map(|_| rng.range_u64(1, 4))
                .collect();
            let mut g = TransitionGraph::new();
            let mut clustered = false;
            for (i, s) in sigs.iter().enumerate() {
                let d = match g.local_vote(CallPathSig(*s)) {
                    LocalVote::First => continue,
                    LocalVote::Mismatch(m) => g.decide(m),
                };
                match d {
                    MarkerDecision::Cluster => {
                        assert!(i >= 1, "clustering needs a prior interval");
                        clustered = true;
                    }
                    MarkerDecision::FlushLead | MarkerDecision::StableLead => {
                        assert!(clustered, "lead states require a clustering first");
                        if d == MarkerDecision::FlushLead {
                            clustered = false;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}
