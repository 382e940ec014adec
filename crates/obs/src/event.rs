//! The event taxonomy: everything the stack considers worth witnessing.
//!
//! Events are deliberately *flat* — small copyable integers plus interned
//! `&'static str` labels — so recording is a `Vec` push and serialization
//! needs no escaping. Ranks, peers, and tags are widened to `u64` so the
//! journal has a single integer shape.

/// Interned marker-state labels (`State::state`), in counting order:
/// All-Tracing, Clustering, Lead, Final.
pub const STATES: [&str; 4] = ["AT", "C", "L", "F"];

/// Interned decision labels (`State::decision`): why the state machine
/// landed where it did at this marker.
pub const DECISIONS: [&str; 6] = [
    "first",
    "all_tracing",
    "stable_lead",
    "cluster",
    "flush_lead",
    "finalize",
];

/// Re-intern a parsed label against a closed table, so parsed events carry
/// the same `&'static str`s the live recorder produced.
pub(crate) fn intern(s: &str, table: &'static [&'static str]) -> Option<&'static str> {
    table.iter().find(|t| **t == s).copied()
}

/// Which fault an armed plan fired on an outbound tool payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The payload was silently dropped.
    Drop,
    /// One payload byte was flipped.
    Corrupt,
    /// Delivery was delayed.
    Delay,
    /// The payload was delivered twice.
    Duplicate,
}

impl FaultKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "duplicate",
        }
    }

    /// Inverse of [`FaultKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "drop" => FaultKind::Drop,
            "corrupt" => FaultKind::Corrupt,
            "delay" => FaultKind::Delay,
            "duplicate" => FaultKind::Duplicate,
            _ => return None,
        })
    }
}

/// Which degradation signature the health detector flagged a rank for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnomalyKind {
    /// The rank's locally-consumed compute diverged above its cluster's
    /// robust center (straggler or load-imbalance signature).
    Slow,
    /// The rank's reliable-protocol retransmissions diverged above its
    /// cluster's robust center (degrading-link signature).
    Flaky,
}

impl AnomalyKind {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            AnomalyKind::Slow => "slow",
            AnomalyKind::Flaky => "flaky",
        }
    }

    /// Inverse of [`AnomalyKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "slow" => AnomalyKind::Slow,
            "flaky" => AnomalyKind::Flaky,
            _ => return None,
        })
    }
}

/// One typed observation. The variant names the journal's `ev` field; the
/// per-variant fields serialize in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Marker invocation `n` (1-based) began on this rank.
    Marker {
        /// Invocation number.
        n: u64,
    },
    /// A signature was computed over the closing marker interval.
    Signature {
        /// Dynamic events the interval covered.
        events: u64,
        /// The interval's Call-Path signature.
        call_path: u64,
    },
    /// A cluster selection was agreed at a marker.
    ClusterSel {
        /// Marker invocation that triggered the clustering.
        marker: u64,
        /// Effective K after dynamic growth.
        effective_k: u64,
        /// This rank's own lead under the agreed selection.
        lead: u64,
        /// All agreed lead ranks, ascending.
        leads: Vec<u64>,
    },
    /// The marker state counted for this interval, with the state-machine
    /// decision that produced it.
    State {
        /// Marker invocation (or the final invocation count at finalize).
        marker: u64,
        /// One of [`STATES`].
        state: &'static str,
        /// One of [`DECISIONS`].
        decision: &'static str,
    },
    /// A slice closed degraded (fault fallout was absorbed into it).
    Degraded {
        /// Marker invocation whose slice degraded.
        marker: u64,
    },
    /// A cluster lead was re-elected after its lead died.
    Reelect {
        /// Call-Path signature of the affected cluster.
        call_path: u64,
        /// The dead lead.
        old: u64,
        /// The minimum surviving member, now lead.
        new: u64,
    },
    /// One completed level of the radix-tree merge on this rank, spanning
    /// tool time `t0..t1`.
    MergeLevel {
        /// Tree level (`RadixTree::depth`: root = 0).
        level: u64,
        /// Pairwise merges folded at this level.
        merges: u64,
        /// LCS dynamic-programming cells touched.
        dp_cells: u64,
        /// Merges served by the structural fast path.
        fast_path: u64,
        /// Tool-clock time when the level began.
        t0: f64,
        /// Tool-clock time when the level ended.
        t1: f64,
    },
    /// Reliable-protocol sender retransmitted a frame.
    Retry {
        /// The receiving peer.
        peer: u64,
        /// Protocol tag of the transfer.
        tag: u64,
    },
    /// Reliable-protocol receiver NACKed a corrupt frame.
    Nack {
        /// The sending peer.
        peer: u64,
        /// Protocol tag of the transfer.
        tag: u64,
    },
    /// Reliable-protocol receiver exhausted its retry budget and degraded.
    GiveUp {
        /// The sending peer.
        peer: u64,
        /// Protocol tag of the transfer.
        tag: u64,
    },
    /// The armed fault plan fired on an outbound payload of this rank.
    Fault {
        /// What the plan did to the payload.
        kind: FaultKind,
        /// Intended receiver.
        dest: u64,
        /// Message tag.
        tag: u64,
    },
    /// A reduced metrics-plane snapshot landed at the tree root (rank 0):
    /// the world's metric *delta* since the previous snapshot, merged over
    /// the tool plane. Bounded size by construction — the arrays are fixed
    /// slot-order digests, never per-value data.
    Snapshot {
        /// Marker invocation the snapshot closed (the final invocation
        /// count for the finalize snapshot).
        marker: u64,
        /// Ranks whose deltas were merged in (a dead subtree drops out
        /// deterministically for that marker).
        ranks: u64,
        /// Counter values in [`crate::metrics::Counter`] slot order.
        ctrs: Vec<u64>,
        /// Histogram digests in [`crate::metrics::HistId`] slot order:
        /// `(count, p50, p99, max)` per histogram.
        hists: Vec<u64>,
    },
    /// This rank's planned crash fired.
    Crash {
        /// Operation count at which the crash struck.
        op: u64,
    },
    /// A blocking receive observed that its peer died.
    PeerDead {
        /// The dead peer.
        peer: u64,
    },
    /// A blocking receive in an armed world ended at a proven stall (no
    /// rank could run) and aborted with a typed timeout.
    Timeout {
        /// The peer that never answered.
        peer: u64,
        /// The tag the receive was stuck on.
        tag: u64,
    },
    /// The online-trace root encoded and replicated a durable checkpoint.
    Checkpoint {
        /// Marker invocation the checkpoint closed.
        marker: u64,
        /// Encoded checkpoint size in bytes.
        bytes: u64,
        /// The deputy the replica was shipped to (`u64::MAX` when the
        /// root had no living deputy to ship to).
        deputy: u64,
    },
    /// This rank was promoted to online-trace root after the old root
    /// died.
    Promote {
        /// Marker invocation at which the promotion was agreed.
        marker: u64,
        /// The dead root.
        old_root: u64,
        /// Whether the promoted deputy restored the trace from its
        /// checkpoint replica (0 = no replica, started empty).
        restored: u64,
    },
    /// The health detector flagged a rank at a marker: its per-marker
    /// delta diverged from its cluster's robust (median/MAD) center.
    /// Emitted on the detector host (rank 0) only.
    Anomaly {
        /// The flagged rank.
        rank: u64,
        /// Marker invocation the flagged delta closed.
        marker: u64,
        /// Which degradation signature fired.
        kind: AnomalyKind,
        /// Floored robust z-score of the deviation (dimensionless; the
        /// flag threshold is the detector config's `threshold`).
        score: f64,
        /// Cluster the rank was scored against (`u64::MAX` before any
        /// selection exists, when the whole world is one cohort).
        cluster: u64,
    },
    /// A run resumed from a durable checkpoint (supervisor restart): the
    /// replay fast-forwards to the checkpoint marker, then continues.
    Resume {
        /// Marker invocation the checkpoint was taken at.
        marker: u64,
        /// The journal high-water mark recorded in the checkpoint (events
        /// the pre-kill run had logged on the root).
        hwm: u64,
    },
}

impl EventKind {
    /// Stable wire label; doubles as the per-rank counter key.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Marker { .. } => "marker",
            EventKind::Signature { .. } => "signature",
            EventKind::ClusterSel { .. } => "cluster",
            EventKind::State { .. } => "state",
            EventKind::Degraded { .. } => "degraded",
            EventKind::Reelect { .. } => "reelect",
            EventKind::MergeLevel { .. } => "merge_level",
            EventKind::Retry { .. } => "retry",
            EventKind::Nack { .. } => "nack",
            EventKind::GiveUp { .. } => "giveup",
            EventKind::Fault { .. } => "fault",
            EventKind::Snapshot { .. } => "snapshot",
            EventKind::Crash { .. } => "crash",
            EventKind::PeerDead { .. } => "peer_dead",
            EventKind::Timeout { .. } => "timeout",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::Promote { .. } => "promote",
            EventKind::Anomaly { .. } => "anomaly",
            EventKind::Resume { .. } => "resume",
        }
    }

    /// One-line human description of the payload, as `chamtrace journal
    /// timeline` and `diff` print it: the label, then `key=value` pairs.
    pub fn describe(&self) -> String {
        match self {
            EventKind::Marker { n } => format!("marker n={n}"),
            EventKind::Signature { events, call_path } => {
                format!("signature events={events} cp={call_path:#x}")
            }
            EventKind::ClusterSel {
                marker,
                effective_k,
                lead,
                leads,
            } => format!("cluster marker={marker} k={effective_k} lead={lead} leads={leads:?}"),
            EventKind::State {
                marker,
                state,
                decision,
            } => format!("state marker={marker} state={state} decision={decision}"),
            EventKind::Degraded { marker } => format!("degraded marker={marker}"),
            EventKind::Reelect {
                call_path,
                old,
                new,
            } => format!("reelect cp={call_path:#x} old={old} new={new}"),
            EventKind::MergeLevel {
                level,
                merges,
                dp_cells,
                fast_path,
                t0,
                t1,
            } => format!(
                "merge_level level={level} merges={merges} dp_cells={dp_cells} fast_path={fast_path} t0={t0:?} t1={t1:?}"
            ),
            EventKind::Retry { peer, tag } => format!("retry peer={peer} tag={tag}"),
            EventKind::Nack { peer, tag } => format!("nack peer={peer} tag={tag}"),
            EventKind::GiveUp { peer, tag } => format!("giveup peer={peer} tag={tag}"),
            EventKind::Fault { kind, dest, tag } => {
                format!("fault kind={} dest={dest} tag={tag}", kind.label())
            }
            EventKind::Snapshot { marker, ranks, .. } => {
                format!("snapshot marker={marker} ranks={ranks}")
            }
            EventKind::Crash { op } => format!("crash op={op}"),
            EventKind::PeerDead { peer } => format!("peer_dead peer={peer}"),
            EventKind::Timeout { peer, tag } => format!("timeout peer={peer} tag={tag}"),
            EventKind::Checkpoint {
                marker,
                bytes,
                deputy,
            } => format!("checkpoint marker={marker} bytes={bytes} deputy={deputy}"),
            EventKind::Promote {
                marker,
                old_root,
                restored,
            } => format!("promote marker={marker} old_root={old_root} restored={restored}"),
            EventKind::Anomaly {
                rank,
                marker,
                kind,
                score,
                cluster,
            } => format!(
                "anomaly rank={rank} marker={marker} kind={} score={score:?} cluster={cluster}",
                kind.label()
            ),
            EventKind::Resume { marker, hwm } => format!("resume marker={marker} hwm={hwm}"),
        }
    }
}

/// One recorded event: a per-rank monotonic sequence number, both virtual
/// clocks at emission time, and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Per-rank monotonic sequence number, starting at 0.
    pub seq: u64,
    /// Application virtual time at emission.
    pub vt: f64,
    /// Tool virtual time at emission.
    pub tt: f64,
    /// The typed observation.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_labels_roundtrip() {
        for k in [
            FaultKind::Drop,
            FaultKind::Corrupt,
            FaultKind::Delay,
            FaultKind::Duplicate,
        ] {
            assert_eq!(FaultKind::from_label(k.label()), Some(k));
        }
        assert_eq!(FaultKind::from_label("melt"), None);
    }

    #[test]
    fn anomaly_labels_roundtrip() {
        for k in [AnomalyKind::Slow, AnomalyKind::Flaky] {
            assert_eq!(AnomalyKind::from_label(k.label()), Some(k));
        }
        assert_eq!(AnomalyKind::from_label("jittery"), None);
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            EventKind::Marker { n: 1 },
            EventKind::Signature {
                events: 0,
                call_path: 0,
            },
            EventKind::ClusterSel {
                marker: 1,
                effective_k: 1,
                lead: 0,
                leads: vec![0],
            },
            EventKind::State {
                marker: 1,
                state: STATES[0],
                decision: DECISIONS[0],
            },
            EventKind::Degraded { marker: 1 },
            EventKind::Reelect {
                call_path: 0,
                old: 1,
                new: 2,
            },
            EventKind::MergeLevel {
                level: 0,
                merges: 0,
                dp_cells: 0,
                fast_path: 0,
                t0: 0.0,
                t1: 0.0,
            },
            EventKind::Retry { peer: 0, tag: 0 },
            EventKind::Nack { peer: 0, tag: 0 },
            EventKind::GiveUp { peer: 0, tag: 0 },
            EventKind::Fault {
                kind: FaultKind::Drop,
                dest: 0,
                tag: 0,
            },
            EventKind::Snapshot {
                marker: 1,
                ranks: 4,
                ctrs: vec![0],
                hists: vec![0],
            },
            EventKind::Crash { op: 0 },
            EventKind::PeerDead { peer: 0 },
            EventKind::Timeout { peer: 0, tag: 0 },
            EventKind::Checkpoint {
                marker: 1,
                bytes: 64,
                deputy: 1,
            },
            EventKind::Promote {
                marker: 1,
                old_root: 0,
                restored: 1,
            },
            EventKind::Anomaly {
                rank: 3,
                marker: 5,
                kind: AnomalyKind::Slow,
                score: 7.5,
                cluster: 0,
            },
            EventKind::Resume { marker: 1, hwm: 9 },
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }
}
