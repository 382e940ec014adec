//! The closed-loop health plane: per-marker health gather, anomaly
//! flags, and the mitigation ladder they drive (flag-aware retry budgets,
//! lead demotion, quarantine).

use clusterkit::LeadSelection;
use mpisim::{Rank, RetryPolicy, Tag};
use scalatrace::TracedProc;

use crate::runtime::Chameleon;

/// Obs-plane tag for the per-marker health star-gather: each rank ships
/// its `(compute_ns, retransmits)` delta to the online root.
pub const HEALTH_TAG: Tag = 3;
/// Obs-plane tag for the root's flag-set broadcast back to every
/// survivor (the mitigation ladder runs in lock-step off this set).
pub const FLAG_TAG: Tag = 4;

/// Retry budget of the reliable tool-plane receives in cluster folds and
/// online-trace hand-offs (`RetryPolicy::Bounded`): one retransmission
/// round before the slice degrades.
pub(crate) const RETRY_BUDGET: u32 = 1;

/// Multiplier applied to [`RETRY_BUDGET`] toward a currently-flagged
/// peer: a degrading link earns more retransmission rounds (and therefore
/// deeper exponential backoff) before its slice is written off as
/// degraded.
const HEALTH_RETRY_ESCALATION: u32 = 4;

impl Chameleon {
    /// The closed-loop health plane, run at the close of *every* marker
    /// invocation when a detector is configured; a single `Option` check
    /// otherwise, so detector-off runs stay byte-identical to the seed.
    ///
    /// Every rank ships its per-marker `(compute_ns, retransmits)` delta
    /// to the online root over the passive OBS plane; the root scores the
    /// batch per cluster cohort ([`obs::detect::detect`]), journals one
    /// `anomaly` event per flag, ships the flagged-rank set back to every
    /// survivor, and all ranks — root included — fold the identical set
    /// into the mitigation state ([`Chameleon::apply_flags`]). OBS traffic
    /// never ticks virtual clocks or the fault schedule, so a fault-free
    /// run with the detector armed produces the same journal bytes as one
    /// without it (the floored robust score of a byte-identical cohort is
    /// exactly zero — no flags, no events, no mitigation).
    pub(crate) fn health_check(&mut self, tp: &mut TracedProc) {
        let Some(cfg) = self.config.detector else {
            return;
        };
        let me = tp.rank();
        let marker = self.stats.marker_invocations;
        let compute_total = tp.inner().consumed_compute_ns();
        let retrans_total = tp.inner().fault_stats().retransmits;
        let (compute_base, retrans_base) = self.health_base;
        self.health_base = (compute_total, retrans_total);
        let delta = (compute_total - compute_base, retrans_total - retrans_base);
        let root = self.online_root();
        if me != root {
            let mut payload = Vec::with_capacity(16);
            payload.extend_from_slice(&delta.0.to_le_bytes());
            payload.extend_from_slice(&delta.1.to_le_bytes());
            tp.inner().obs_ship(root, HEALTH_TAG, payload);
            let flagged: Vec<u64> = match tp.inner().obs_collect_or_dead(root, FLAG_TAG) {
                Some(bytes) => bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")) as u64)
                    .collect(),
                // The root died mid-slice: skip this round; the next
                // resilient collective re-agrees membership and the new
                // root takes over the gather.
                None => Vec::new(),
            };
            self.apply_flags(&flagged);
            return;
        }
        let participants = self.alive.clone();
        let mut samples = Vec::with_capacity(participants.len());
        for &r in &participants {
            let (compute_ns, retransmits) = if r == me {
                delta
            } else {
                match tp.inner().obs_collect_or_dead(r, HEALTH_TAG) {
                    Some(b) if b.len() == 16 => (
                        u64::from_le_bytes(b[..8].try_into().expect("8 bytes")),
                        u64::from_le_bytes(b[8..].try_into().expect("8 bytes")),
                    ),
                    // Died mid-slice (or malformed): no sample this round.
                    _ => continue,
                }
            };
            samples.push(obs::HealthSample {
                rank: r as u64,
                cluster: self.cohort_of(r),
                compute_ns,
                retransmits,
            });
        }
        let flags = obs::detect::detect(&cfg, &samples);
        for f in &flags {
            let (rank, kind, score, cluster) = (f.rank, f.kind, f.score, f.cluster);
            tp.inner().record(move || obs::EventKind::Anomaly {
                rank,
                marker,
                kind,
                score,
                cluster,
            });
        }
        // A rank flagged on both signals mitigates once: ship the deduped
        // rank set (flags arrive sorted by rank).
        let mut flagged: Vec<u64> = flags.iter().map(|f| f.rank).collect();
        flagged.dedup();
        let mut wire = Vec::with_capacity(4 * flagged.len());
        for &r in &flagged {
            wire.extend_from_slice(&(r as u32).to_le_bytes());
        }
        for &r in &participants {
            if r != me {
                tp.inner().obs_ship(r, FLAG_TAG, wire.clone());
            }
        }
        self.apply_flags(&flagged);
    }

    /// The cohort `rank` is scored against: its cluster's lead under the
    /// current selection, or `u64::MAX` — the whole world as one cohort —
    /// before any selection exists.
    pub(crate) fn cohort_of(&self, rank: Rank) -> u64 {
        self.selection
            .as_ref()
            .and_then(|sel| sel.map.cluster_of(rank))
            .map(|e| e.lead as u64)
            .unwrap_or(u64::MAX)
    }

    /// Fold one marker's agreed flag set into the mitigation state —
    /// a pure function of the set, run identically on every rank.
    pub(crate) fn apply_flags(&mut self, flagged: &[u64]) {
        self.flagged = flagged.iter().map(|&r| r as Rank).collect();
        self.stats.anomaly_flags += flagged.len() as u64;
        self.sustain.observe(flagged);
        let need = self.config.detector.map_or(u64::MAX, |d| d.sustain);
        for r in self.sustain.sustained(need) {
            let r = r as Rank;
            if !self.quarantined.contains(&r) {
                self.quarantined.push(r);
                self.quarantined.sort_unstable();
                self.stats.quarantines += 1;
            }
        }
    }

    /// Mitigation at selection time, applied identically on every rank to
    /// the identical selection: quarantined ranks are walled into
    /// singleton clusters, then flagged ranks lose lead eligibility
    /// (demoted to the smallest unflagged member of their cluster). A
    /// no-op whenever nothing is flagged, which keeps fault-free paths
    /// byte-identical.
    pub(crate) fn apply_health_policy(&mut self, tp: &mut TracedProc, sel: &mut LeadSelection) {
        if self.config.detector.is_none()
            || (self.flagged.is_empty() && self.quarantined.is_empty())
        {
            return;
        }
        for &q in &self.quarantined.clone() {
            sel.map.quarantine(q);
        }
        let mut avoid: Vec<Rank> = self
            .flagged
            .iter()
            .chain(self.quarantined.iter())
            .copied()
            .collect();
        avoid.sort_unstable();
        avoid.dedup();
        let demoted = sel.map.reelect_leads_avoiding(&avoid);
        self.stats.lead_demotions += demoted.len() as u64;
        for d in demoted {
            tp.inner().record(|| obs::EventKind::Reelect {
                call_path: d.call_path,
                old: d.old as u64,
                new: d.new as u64,
            });
        }
        sel.leads = sel.map.leads();
    }

    /// Reliable-receive policy toward `peer`: [`RETRY_BUDGET`],
    /// escalated by [`HEALTH_RETRY_ESCALATION`] while the detector has the
    /// peer flagged — a degrading link gets more retransmission rounds
    /// (and deeper backoff) before its payload is written off.
    pub(crate) fn retry_toward(&self, peer: Rank) -> RetryPolicy {
        let mut budget = RETRY_BUDGET;
        if self.config.detector.is_some() && self.flagged.binary_search(&peer).is_ok() {
            budget = budget.saturating_mul(HEALTH_RETRY_ESCALATION);
        }
        RetryPolicy::Bounded(budget)
    }
}
