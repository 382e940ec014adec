//! Per-rank instrumentation: overhead timers, state tallies, and trace
//! memory accounting.
//!
//! The paper's evaluation reads directly off these counters:
//!
//! * Table II — markers executed and AT/C/L tallies;
//! * Figures 4, 6, 8–11, Table III — per-component overhead (signature
//!   creation, voting, clustering, inter-compression), aggregated across
//!   ranks;
//! * Table IV — bytes allocated for traces per state, per rank.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::state::MarkerState;

/// Tally of marker calls per counted state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateCounts {
    /// Markers counted as All-Tracing (first marker + mismatches).
    pub at: u64,
    /// Markers that ran clustering.
    pub c: u64,
    /// Markers spent in the stable Lead phase.
    pub l: u64,
    /// Finalize calls (0 or 1).
    pub f: u64,
}

impl StateCounts {
    /// Record one marker under its counted state.
    pub fn bump(&mut self, state: MarkerState) {
        match state {
            MarkerState::AllTracing => self.at += 1,
            MarkerState::Clustering => self.c += 1,
            MarkerState::Lead => self.l += 1,
            MarkerState::Final => self.f += 1,
        }
    }

    /// Total markers tallied.
    pub fn total(&self) -> u64 {
        self.at + self.c + self.l + self.f
    }
}

/// Per-state trace memory accounting (Table IV): how many bytes of trace
/// storage this rank held at each marker, grouped by the marker's state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemAccount {
    /// state -> (marker calls, summed bytes over those calls).
    per_state: BTreeMap<&'static str, (u64, u64)>,
}

impl MemAccount {
    /// Empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `bytes` of live trace allocation at a marker counted under
    /// `state`.
    pub fn record(&mut self, state: MarkerState, bytes: usize) {
        let key = Self::label(state);
        let slot = self.per_state.entry(key).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += bytes as u64;
    }

    fn label(state: MarkerState) -> &'static str {
        match state {
            MarkerState::AllTracing => "AT",
            MarkerState::Clustering => "C",
            MarkerState::Lead => "L",
            MarkerState::Final => "F",
        }
    }

    /// `(calls, total_bytes)` for a state label ("AT", "C", "L", "F").
    pub fn get(&self, label: &str) -> (u64, u64) {
        self.per_state.get(label).copied().unwrap_or((0, 0))
    }

    /// Average bytes per call for a state, 0 if the state never occurred.
    pub fn avg(&self, label: &str) -> u64 {
        let (calls, bytes) = self.get(label);
        bytes.checked_div(calls).unwrap_or(0)
    }

    /// Average bytes per call over *all* markers (Table IV's
    /// "Avg. Per Call" row).
    pub fn avg_overall(&self) -> u64 {
        let (calls, bytes) = self
            .per_state
            .values()
            .fold((0u64, 0u64), |(c, b), &(cc, bb)| (c + cc, b + bb));
        bytes.checked_div(calls).unwrap_or(0)
    }

    /// Iterate `(label, calls, total_bytes)` rows.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.per_state.iter().map(|(&k, &(c, b))| (k, c, b))
    }
}

/// Everything one rank measured during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChameleonStats {
    /// Total `marker()` invocations (before frequency filtering).
    pub marker_invocations: u64,
    /// Markers that actually ran the transition graph.
    pub marker_calls: u64,
    /// Tally per counted state.
    pub states: StateCounts,
    /// Number of clustering events (`r` in the paper's complexity
    /// analysis; equals `states.c`).
    pub reclusterings: u64,
    /// Lead count of the most recent clustering (the effective K).
    pub leads: u64,
    /// Distinct Call-Path groups at the most recent clustering
    /// (Table I's cluster count).
    pub call_paths: u64,
    /// Time creating interval signatures.
    pub signature_time: Duration,
    /// Time in the collective vote (reduce + bcast).
    pub vote_time: Duration,
    /// Time in hierarchical clustering (map exchange + top-K + bcast of
    /// the selection).
    pub clustering_time: Duration,
    /// Time in online inter-compression (lead-trace merges + online-trace
    /// folding).
    pub intercomp_time: Duration,
    /// Per-state trace memory accounting.
    pub mem: MemAccount,
    /// Marker slices whose contribution to the online trace is *degraded*
    /// under an armed fault plan: a rank died mid-slice, or a payload
    /// stayed corrupt past the retry budget (see FAULTS.md). Counted at
    /// most once per marker slice. Zero on a fault-free run.
    pub degraded_slices: u64,
    /// Orphaned clusters whose lead was re-elected after its original
    /// lead died. Every surviving rank computes the same re-election, so
    /// this is identical across survivors.
    pub lead_reelections: u64,
    /// Root promotions witnessed: the online-trace root died and the
    /// deputy (the smallest survivor) took over. A pure function of the
    /// agreed alive snapshots, so identical across survivors.
    pub promotions: u64,
    /// Rank-marker anomaly flags applied from the detector's shipped flag
    /// sets (each flagged rank counts once per marker, even when both
    /// signals fired). Identical across ranks by lock-step; zero when the
    /// detector is off or the run is fault-free.
    pub anomaly_flags: u64,
    /// Ranks quarantined into singleton clusters for sustained
    /// degradation. Monotone, identical across ranks.
    pub quarantines: u64,
    /// Leads demoted at selection time because the detector had them
    /// flagged. Identical across ranks.
    pub lead_demotions: u64,
}

impl ChameleonStats {
    /// Total tool overhead this rank spent inside marker/finalize
    /// wrappers.
    pub fn total_overhead(&self) -> Duration {
        self.signature_time + self.vote_time + self.clustering_time + self.intercomp_time
    }
}

/// Aggregate several ranks' stats the way the paper reports them
/// ("aggregated wall-clock times across all nodes").
#[derive(Debug, Clone, Default)]
pub struct AggregatedStats {
    /// Sum of per-rank signature time.
    pub signature_time: Duration,
    /// Sum of per-rank vote time.
    pub vote_time: Duration,
    /// Sum of per-rank clustering time.
    pub clustering_time: Duration,
    /// Sum of per-rank inter-compression time.
    pub intercomp_time: Duration,
    /// State tallies from rank 0 (identical on all ranks by lock-step).
    pub states: StateCounts,
    /// Markers that ran the transition graph (rank 0's count).
    pub marker_calls: u64,
    /// Degraded marker slices (first rank's count — survivors agree on the
    /// slice verdict, so summing would multiply-count one event).
    pub degraded_slices: u64,
    /// Lead re-elections (first rank's count, same reasoning).
    pub lead_reelections: u64,
    /// Root promotions (first rank's count, same reasoning).
    pub promotions: u64,
    /// Anomaly flags applied (first rank's count — the flag sets are
    /// agreed, so every rank tallies the same).
    pub anomaly_flags: u64,
    /// Quarantined ranks (first rank's count, same reasoning).
    pub quarantines: u64,
    /// Health-policy lead demotions (first rank's count, same reasoning).
    pub lead_demotions: u64,
}

impl AggregatedStats {
    /// Fold per-rank stats.
    pub fn from_ranks<'a>(stats: impl IntoIterator<Item = &'a ChameleonStats>) -> Self {
        let mut agg = AggregatedStats::default();
        let mut first = true;
        for s in stats {
            agg.signature_time += s.signature_time;
            agg.vote_time += s.vote_time;
            agg.clustering_time += s.clustering_time;
            agg.intercomp_time += s.intercomp_time;
            if first {
                agg.states = s.states;
                agg.marker_calls = s.marker_calls;
                agg.degraded_slices = s.degraded_slices;
                agg.lead_reelections = s.lead_reelections;
                agg.promotions = s.promotions;
                agg.anomaly_flags = s.anomaly_flags;
                agg.quarantines = s.quarantines;
                agg.lead_demotions = s.lead_demotions;
                first = false;
            }
        }
        agg
    }

    /// Total aggregated overhead.
    pub fn total_overhead(&self) -> Duration {
        self.signature_time + self.vote_time + self.clustering_time + self.intercomp_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_counts_bump_and_total() {
        let mut c = StateCounts::default();
        c.bump(MarkerState::AllTracing);
        c.bump(MarkerState::Clustering);
        c.bump(MarkerState::Lead);
        c.bump(MarkerState::Lead);
        c.bump(MarkerState::Final);
        assert_eq!(c.at, 1);
        assert_eq!(c.c, 1);
        assert_eq!(c.l, 2);
        assert_eq!(c.f, 1);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn mem_account_averages() {
        let mut m = MemAccount::new();
        m.record(MarkerState::AllTracing, 100);
        m.record(MarkerState::AllTracing, 300);
        m.record(MarkerState::Lead, 0);
        assert_eq!(m.get("AT"), (2, 400));
        assert_eq!(m.avg("AT"), 200);
        assert_eq!(m.avg("L"), 0);
        assert_eq!(m.get("C"), (0, 0));
        assert_eq!(m.avg_overall(), 133);
    }

    #[test]
    fn mem_rows_iterate_all() {
        let mut m = MemAccount::new();
        m.record(MarkerState::Clustering, 50);
        m.record(MarkerState::Final, 70);
        let rows: Vec<_> = m.rows().collect();
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&("C", 1, 50)));
        assert!(rows.contains(&("F", 1, 70)));
    }

    #[test]
    fn aggregation_sums_times_keeps_rank0_counts() {
        let mk = |ms: u64, c: u64| {
            let mut s = ChameleonStats {
                signature_time: Duration::from_millis(ms),
                marker_calls: 10,
                ..ChameleonStats::default()
            };
            s.states.c = c;
            s
        };
        let ranks = [mk(5, 1), mk(7, 1), mk(9, 1)];
        let agg = AggregatedStats::from_ranks(ranks.iter());
        assert_eq!(agg.signature_time, Duration::from_millis(21));
        assert_eq!(agg.states.c, 1, "rank 0's tally, not the sum");
        assert_eq!(agg.marker_calls, 10);
    }

    #[test]
    fn total_overhead_sums_components() {
        let s = ChameleonStats {
            signature_time: Duration::from_millis(1),
            vote_time: Duration::from_millis(2),
            clustering_time: Duration::from_millis(3),
            intercomp_time: Duration::from_millis(4),
            ..ChameleonStats::default()
        };
        assert_eq!(s.total_overhead(), Duration::from_millis(10));
    }
}
