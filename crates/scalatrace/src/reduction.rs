//! Distributed trace consolidation over a radix tree.
//!
//! Plain ScalaTrace runs this across **all P ranks** inside the
//! `MPI_Finalize` wrapper; Chameleon runs the *same* reduction online, but
//! only among the **K lead ranks** ("assign a temp rank from Top K",
//! Algorithm 3) — which is how the O(n² log P) finalize cost becomes
//! O(n² log K) per merge.
//!
//! The reduction is position-based: `participants[i]` is the rank sitting
//! at tree position `i`; position 0 is the root. Each participant receives
//! its children's (already merged) traces, merges them with its own
//! ([`crate::merge::merge_into`] — the pairwise step), and ships the
//! result to its parent. Traces travel serialized in the trace text
//! format over the tool communicator, so they never appear in any trace.
//!
//! Each interior rank receives its children in **canonical** child order
//! over [`Proc::reliable_recv`] — a plain matched receive when no fault
//! plan is armed, a CRC-framed transfer with one re-request before
//! degrading when one is. The merged trace must be bit-identical run to
//! run (the determinism suite holds the simulator to that), so the fold
//! order and the clock accounting of each receive follow the tree, never
//! arrival order. Taking children as they land would only reorder host
//! work: the folds would still wait for their left siblings, and every
//! modeled cost lands in the same canonical order either way. A dead child
//! costs its whole subtree (no mid-merge rerouting — grandchildren shipped
//! into the dead child are gone, and they count their own loss when their
//! ship-up sees the dead parent). Each fold's cost is charged from the
//! merge's *measured* counters ([`crate::merge::MergeMetrics`] via
//! [`WorkModel::merge_measured`]), and per-level timings come back in the
//! [`MergeOutcome`] for aggregation.

use std::time::Duration;

use mpisim::{Comm, Proc, ProtocolError, RadixTree, Rank, RetryPolicy, Tag, WorkModel};

use crate::format;
use crate::merge::merge_into;
use crate::trace::CompressedTrace;

/// Tag used by trace-merge traffic on [`Comm::TOOL`]. Below the collective
/// tag space, above plausible application tags.
pub const TRACE_MERGE_TAG: Tag = 1 << 29;

/// Default radix of the reduction tree. The paper speaks of left/right
/// children (radix 2); larger radices trade tree depth for per-node merge
/// work.
pub const DEFAULT_RADIX: usize = 2;

/// Merge work performed by one rank at one reduction-tree level.
///
/// A rank at depth *d* folds the traces of its children (depth *d* + 1);
/// `level` records *d*, so aggregating these across ranks yields a
/// per-level profile of where a reduction's merge time goes (the root
/// levels see the widest, most-divergent traces).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelTiming {
    /// Tree depth at which the folds happened (root = 0).
    pub level: usize,
    /// Pairwise merges this rank performed at that depth.
    pub merges: usize,
    /// Modeled seconds of codec + merge work for those folds.
    pub seconds: f64,
    /// LCS cells the aligner actually evaluated.
    pub dp_cells: u64,
    /// Folds fully resolved by the identical-stream fast path.
    pub fast_path_hits: usize,
}

/// Result of one rank's participation in a tree reduction.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The fully merged trace — `Some` only on `participants[0]`.
    pub merged: Option<CompressedTrace>,
    /// Modeled cost of this rank's local merge work (parsing, structural
    /// merging, serialization) under [`WorkModel`]. Also registered on the
    /// rank's tool clock, so critical paths through the reduction tree
    /// propagate to waiting partners.
    pub compute: Duration,
    /// Per-level merge timing at this rank — empty for leaves, one entry
    /// (this rank's depth) for interior positions.
    pub timings: Vec<LevelTiming>,
    /// Subtree contributions lost at this rank: a dead child, a payload
    /// still corrupt after the retry budget, trace text that failed to
    /// decode, or a dead parent that could not accept this rank's ship-up.
    /// Zero on every rank means the merge is complete and exact.
    pub degraded: u64,
}

/// Run one radix-tree trace reduction among `participants`.
///
/// Every rank in `participants` must call this (with its partial trace);
/// ranks not in the list must **not** call it. The merged trace comes back
/// on `participants[0]` (the tree root).
///
/// Panics if the calling rank is not in `participants` — that is a
/// protocol error in the caller.
pub fn radix_tree_merge(
    proc: &mut Proc,
    radix: usize,
    participants: &[Rank],
    my_trace: &CompressedTrace,
) -> MergeOutcome {
    assert!(!participants.is_empty(), "merge with no participants");
    let me = proc.rank();
    let my_pos = participants
        .iter()
        .position(|&r| r == me)
        .unwrap_or_else(|| panic!("rank {me} called radix_tree_merge without being a participant"));
    let tree = RadixTree::new(radix, participants.len());
    let obs_t0 = proc.tool_time();

    let work = WorkModel::calibrated();
    let mut compute = 0.0f64;
    let mut acc = my_trace.clone();
    let mut degraded = 0u64;
    let mut timing = LevelTiming {
        level: tree.depth(my_pos),
        ..LevelTiming::default()
    };
    for child_pos in tree.children(my_pos) {
        let child = participants[child_pos];
        let Ok(payload) =
            proc.reliable_recv(child, TRACE_MERGE_TAG, Comm::TOOL, RetryPolicy::Bounded(1))
        else {
            degraded += 1;
            continue;
        };
        let mut cost = work.codec(payload.len());
        match decode_wire_trace(&payload) {
            Ok(child_trace) => {
                let touched = acc.compressed_size() + child_trace.compressed_size();
                let (folded, met) = merge_into(
                    std::mem::replace(&mut acc, CompressedTrace::new()),
                    &child_trace,
                );
                acc = folded;
                cost += work.merge_measured(met.dp_cells, touched);
                timing.merges += 1;
                timing.seconds += cost;
                timing.dp_cells += met.dp_cells;
                timing.fast_path_hits += met.fast_path as usize;
                proc.metric_add(obs::Counter::Merges, 1);
                proc.metric_add(obs::Counter::DpCells, met.dp_cells);
                proc.metric_add(obs::Counter::FastPath, met.fast_path as u64);
                proc.metric_observe(obs::HistId::DpCellsPerMerge, met.dp_cells);
            }
            // The bytes arrived (CRC-clean when armed) but do not decode:
            // drop this subtree's contribution and continue.
            Err(_) => degraded += 1,
        }
        proc.tool_compute(cost);
        compute += cost;
    }
    let timings = if timing.merges > 0 {
        vec![timing]
    } else {
        Vec::new()
    };
    if let Some(t) = timings.first() {
        // Span over this rank's fold work: tool time on entry vs after the
        // last fold completed (receive waits included — that is the span a
        // profiler would see).
        let t1 = proc.tool_time();
        proc.record(|| obs::EventKind::MergeLevel {
            level: t.level as u64,
            merges: t.merges as u64,
            dp_cells: t.dp_cells,
            fast_path: t.fast_path_hits as u64,
            t0: obs_t0,
            t1,
        });
    }

    // Ship up or return at the root.
    let merged = match tree.parent(my_pos) {
        Some(parent_pos) => {
            let parent_rank = participants[parent_pos];
            let wire = format::to_text(&acc);
            let cost = work.codec(wire.len());
            proc.tool_compute(cost);
            compute += cost;
            if proc
                .reliable_send(parent_rank, TRACE_MERGE_TAG, Comm::TOOL, wire.as_bytes())
                .is_err()
            {
                // Dead parent (or a receiver that gave up): this rank's
                // whole folded subtree is lost to the reduction.
                degraded += 1;
            }
            None
        }
        None => Some(acc),
    };
    MergeOutcome {
        merged,
        compute: Duration::from_secs_f64(compute),
        timings,
        degraded,
    }
}

/// Decode a wire trace payload (UTF-8 text in the trace format) into a
/// [`CompressedTrace`], with a typed error instead of a panic.
pub fn decode_wire_trace(payload: &[u8]) -> Result<CompressedTrace, ProtocolError> {
    let text = std::str::from_utf8(payload).map_err(|e| ProtocolError::Decode {
        what: "trace payload",
        detail: format!("not UTF-8: {e}"),
    })?;
    format::from_text(text).map_err(|e| ProtocolError::Decode {
        what: "trace text",
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventRecord;
    use crate::op::{Endpoint, MpiOp};
    use crate::ranklist::RankSet;
    use mpisim::{World, WorldConfig};
    use sigkit::StackSig;

    fn trace_for(rank: usize, sigs: &[u64]) -> CompressedTrace {
        let mut t = CompressedTrace::new();
        for &s in sigs {
            t.append(EventRecord::new(
                MpiOp::send(Endpoint::Relative(1), 0, 8, Comm::WORLD),
                StackSig(s),
                rank,
                1.0,
            ));
        }
        t
    }

    #[test]
    fn all_ranks_merge_to_root() {
        for p in [1usize, 2, 3, 7, 8, 16] {
            let report = World::new(WorldConfig::for_tests(p))
                .run(move |proc| {
                    let me = proc.rank();
                    let participants: Vec<Rank> = (0..proc.size()).collect();
                    let mine = trace_for(me, &[1, 2, 3]);
                    radix_tree_merge(proc, DEFAULT_RADIX, &participants, &mine).merged
                })
                .unwrap();
            let root = report.results[0].as_ref().expect("root gets the merge");
            assert_eq!(
                root.compressed_size(),
                3,
                "SPMD merge stays constant, p={p}"
            );
            let mut ranks = RankSet::empty();
            root.visit_events(&mut |e| ranks = ranks.union(&e.ranks));
            assert_eq!(ranks.len(), p, "all ranks represented, p={p}");
            assert!(report.results[1..].iter().all(|r| r.is_none()));
        }
    }

    #[test]
    fn subset_merge_only_participants() {
        // Only ranks 1, 3, 5 participate; others do unrelated work.
        let report = World::new(WorldConfig::for_tests(6))
            .run(|proc| {
                let me = proc.rank();
                let participants = vec![1, 3, 5];
                if participants.contains(&me) {
                    let mine = trace_for(me, &[7, 8]);
                    radix_tree_merge(proc, 2, &participants, &mine).merged
                } else {
                    None
                }
            })
            .unwrap();
        let root = report.results[1]
            .as_ref()
            .expect("participants[0] == rank 1");
        let mut ranks = RankSet::empty();
        root.visit_events(&mut |e| ranks = ranks.union(&e.ranks));
        assert_eq!(ranks.expand(), vec![1, 3, 5]);
        assert!(report.results[0].is_none());
        assert!(report.results[3].is_none());
    }

    #[test]
    fn divergent_traces_unioned() {
        let report = World::new(WorldConfig::for_tests(4))
            .run(|proc| {
                let me = proc.rank();
                let participants: Vec<Rank> = (0..proc.size()).collect();
                // Ranks 0-1 and 2-3 execute different call sites.
                let sigs: &[u64] = if me < 2 { &[1, 2] } else { &[9] };
                let mine = trace_for(me, sigs);
                radix_tree_merge(proc, 2, &participants, &mine).merged
            })
            .unwrap();
        let root = report.results[0].as_ref().unwrap();
        let mut seen = Vec::new();
        root.visit_events(&mut |e| seen.push((e.stack_sig.0, e.ranks.expand())));
        let find = |sig: u64| {
            seen.iter()
                .find(|(s, _)| *s == sig)
                .unwrap_or_else(|| panic!("sig {sig} missing"))
                .1
                .clone()
        };
        assert_eq!(find(1), vec![0, 1]);
        assert_eq!(find(9), vec![2, 3]);
    }

    #[test]
    fn higher_radix_same_result() {
        for radix in [2usize, 4, 8] {
            let report = World::new(WorldConfig::for_tests(9))
                .run(move |proc| {
                    let me = proc.rank();
                    let participants: Vec<Rank> = (0..proc.size()).collect();
                    let mine = trace_for(me, &[1, 2]);
                    radix_tree_merge(proc, radix, &participants, &mine).merged
                })
                .unwrap();
            let root = report.results[0].as_ref().unwrap();
            assert_eq!(root.compressed_size(), 2, "radix {radix}");
            let mut ranks = RankSet::empty();
            root.visit_events(&mut |e| ranks = ranks.union(&e.ranks));
            assert_eq!(ranks.len(), 9, "radix {radix}");
        }
    }

    #[test]
    fn fold_order_is_deterministic_under_arrival_skew() {
        // Root 0 has children ranks 1 and 2. Whichever child stalls, the
        // merged node order must be identical: children are received and
        // folded in canonical child order, so the output never encodes
        // thread scheduling. With disjoint traces any fold-order leak
        // would be visible in the node order.
        for slow in [1usize, 2] {
            let report = World::new(WorldConfig::for_tests(3))
                .run(move |proc| {
                    let me = proc.rank();
                    let participants: Vec<Rank> = vec![0, 1, 2];
                    if me == slow {
                        std::thread::sleep(std::time::Duration::from_millis(120));
                    }
                    let sigs: &[u64] = match me {
                        0 => &[10],
                        1 => &[20],
                        _ => &[30],
                    };
                    let mine = trace_for(me, sigs);
                    radix_tree_merge(proc, 2, &participants, &mine).merged
                })
                .unwrap();
            let root = report.results[0].as_ref().unwrap();
            let mut sigs = Vec::new();
            root.visit_events(&mut |e| sigs.push(e.stack_sig.0));
            assert_eq!(
                sigs,
                vec![10, 20, 30],
                "canonical fold order regardless of which child (rank {slow}) stalls"
            );
        }
    }

    #[test]
    fn timings_report_levels_and_fast_path() {
        // p = 7, radix 2: interior positions 0 (depth 0), 1 and 2 (depth
        // 1), each folding two children; 3..6 are leaves.
        let report = World::new(WorldConfig::for_tests(7))
            .run(move |proc| {
                let participants: Vec<Rank> = (0..proc.size()).collect();
                let mine = trace_for(proc.rank(), &[1, 2, 3]);
                radix_tree_merge(proc, 2, &participants, &mine).timings
            })
            .unwrap();
        let at = |r: usize| &report.results[r];
        for (rank, depth) in [(0usize, 0usize), (1, 1), (2, 1)] {
            let t = at(rank);
            assert_eq!(t.len(), 1, "one level entry per interior rank");
            assert_eq!(t[0].level, depth, "rank {rank}");
            assert_eq!(t[0].merges, 2, "rank {rank} folds two children");
            assert_eq!(
                t[0].fast_path_hits, 2,
                "SPMD subtree folds are identical-stream fast paths"
            );
            assert_eq!(t[0].dp_cells, 0);
            assert!(t[0].seconds > 0.0, "codec work is still charged");
        }
        for leaf in 3..7 {
            assert!(at(leaf).is_empty(), "leaves perform no merges");
        }
    }

    #[test]
    fn root_can_be_any_participant_order() {
        // The "temp rank" mapping: participants[0] = 2 is the root.
        let report = World::new(WorldConfig::for_tests(4))
            .run(|proc| {
                let me = proc.rank();
                let participants = vec![2, 0, 1, 3];
                let mine = trace_for(me, &[5]);
                radix_tree_merge(proc, 2, &participants, &mine).merged
            })
            .unwrap();
        assert!(report.results[2].is_some(), "rank 2 is the tree root");
        assert!(report.results[0].is_none());
    }
}
