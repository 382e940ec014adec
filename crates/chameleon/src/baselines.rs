//! Comparators: plain ScalaTrace and the ACURDION-style finalize-time
//! clustering.
//!
//! * [`scalatrace_finalize`] — "without clustering, which is the default
//!   version of ScalaTrace": every rank traces everything, and one
//!   all-rank radix-tree merge runs inside `MPI_Finalize`. Its cost is the
//!   paper's O(n² log P) bottleneck.
//! * [`acurdion_finalize`] — the prior signature-clustering work the paper
//!   compares against in Tables III/IV: identical signatures and
//!   clustering machinery, but invoked exactly once at `MPI_Finalize`.
//!   Cheaper at the marker level than Chameleon (no online merges at all —
//!   the paper measures Chameleon at ~2× ACURDION's overhead under the
//!   maximum marker-call count) but every rank must keep its full trace
//!   allocated for the whole run, which is the memory story of Table IV.

use std::time::Duration;

use mpisim::{Comm, Rank, RetryPolicy, SrcSel, TagSel, Work};
use scalatrace::reduction::radix_tree_merge;
use scalatrace::{format, CompressedTrace, TracedProc};

use crate::cluster::{cluster_up, distribute};
use crate::config::ChameleonConfig;
use crate::runtime::{tool_since, ONLINE_TAG};

/// Outcome of a finalize-time baseline on one rank.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// The merged global trace (rank 0 only).
    pub global_trace: Option<CompressedTrace>,
    /// Time spent clustering (zero for plain ScalaTrace).
    pub clustering_time: Duration,
    /// Time spent in the inter-node trace merge.
    pub intercomp_time: Duration,
    /// Bytes of trace storage this rank held going into finalize.
    pub trace_bytes: usize,
}

/// Plain ScalaTrace: all-rank inter-node compression at `MPI_Finalize`.
pub fn scalatrace_finalize(tp: &mut TracedProc, radix: usize) -> BaselineOutcome {
    tp.record_finalize("MPI_Finalize");
    tp.inner().barrier(Comm::TOOL);
    let trace_bytes = tp.tracer().trace_bytes();
    let tool0 = tp.inner().tool_time();
    let participants: Vec<Rank> = (0..tp.size()).collect();
    let trace = tp.tracer_mut().take_trace();
    let outcome = radix_tree_merge(tp.inner(), radix, &participants, &trace);
    // Exit synchronization: `MPI_Finalize` returns only once the global
    // merge is complete, so every rank observes the merge's critical path
    // (the tool-clock barrier propagates the slowest path to everyone).
    tp.inner().barrier(Comm::TOOL);
    BaselineOutcome {
        global_trace: outcome.merged,
        clustering_time: Duration::ZERO,
        intercomp_time: tool_since(tp, tool0),
        trace_bytes,
    }
}

/// ACURDION-style baseline: signature clustering once at `MPI_Finalize`,
/// then a top-K lead-trace merge. All ranks trace for the whole run.
pub fn acurdion_finalize(tp: &mut TracedProc, config: &ChameleonConfig) -> BaselineOutcome {
    tp.record_finalize("MPI_Finalize");
    tp.inner().barrier(Comm::TOOL);
    let trace_bytes = tp.tracer().trace_bytes();
    let me = tp.rank();

    // Whole-run signatures over the compressed trace (Algorithm 1's
    // literal input); equivalent to the never-rotated interval here but
    // consistent with Chameleon's clustering inputs.
    let triple = crate::runtime::trace_triple(tp.tracer().trace());
    let _ = tp.tracer_mut().rotate_interval();

    // Hierarchical clustering over the rank tree: Chameleon's own upward
    // pass and selection hand-out, over every rank of a faultless world.
    let tool0 = tp.inner().tool_time();
    let algo = config.algo.build();
    let participants: Vec<Rank> = (0..tp.size()).collect();
    let root_sel = cluster_up(
        tp,
        config,
        &*algo,
        &participants,
        &triple,
        |_| RetryPolicy::Bounded(config.retry_budget),
        // A bad payload (unreachable on the faultless simulated link)
        // costs the child's entries, not the run.
        &mut false,
    );
    let sel = distribute(tp, root_sel, &participants, &mut false)
        .expect("a faultless world's clustering root never dies");
    let clustering_time = tool_since(tp, tool0);

    // Top-K lead-trace merge, shipped to rank 0.
    let tool0 = tp.inner().tool_time();
    let mut global = None;
    if sel.is_lead(me) {
        let cluster = sel
            .map
            .cluster_of(me)
            .expect("lead belongs to a cluster")
            .clone();
        let mut trace = tp.tracer_mut().take_trace();
        tp.inner().tool_compute(&[Work::Fold {
            nodes: trace.compressed_size(),
        }]);
        trace.visit_events_mut(&mut |e| e.set_ranks(cluster.members.clone()));
        let outcome = radix_tree_merge(tp.inner(), config.radix, &sel.leads, &trace);
        if let Some(partial) = outcome.merged {
            if me == 0 {
                global = Some(partial);
            } else {
                let wire = format::to_text(&partial);
                tp.inner()
                    .tool_compute(&[Work::Codec { bytes: wire.len() }]);
                tp.inner().send(0, ONLINE_TAG, Comm::TOOL, wire.as_bytes());
            }
        }
    }
    if me == 0 && !sel.leads.is_empty() && sel.leads[0] != 0 {
        let info = tp.inner().recv(
            SrcSel::Rank(sel.leads[0]),
            TagSel::Tag(ONLINE_TAG),
            Comm::TOOL,
        );
        tp.inner().tool_compute(&[Work::Codec {
            bytes: info.payload.len(),
        }]);
        // An undecodable payload leaves the global trace empty rather than
        // killing rank 0.
        global = scalatrace::reduction::decode_wire_trace(&info.payload).ok();
    }
    tp.tracer_mut().clear_trace();
    // Exit synchronization (see scalatrace_finalize).
    tp.inner().barrier(Comm::TOOL);

    BaselineOutcome {
        global_trace: global,
        clustering_time,
        intercomp_time: tool_since(tp, tool0),
        trace_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{World, WorldConfig};
    use scalatrace::RankSet;

    fn app(tp: &mut TracedProc, steps: usize) {
        let me = tp.rank();
        let p = tp.size();
        for _ in 0..steps {
            tp.frame("timestep", |tp| {
                tp.send("halo_send", (me + 1) % p, 1, &[0u8; 16]);
                tp.recv("halo_recv", (me + p - 1) % p, 1, 16);
                tp.allreduce_sum("residual", 1);
            });
        }
    }

    #[test]
    fn scalatrace_merges_all_ranks() {
        let report = World::new(WorldConfig::new(6))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                app(&mut tp, 5);
                scalatrace_finalize(&mut tp, 2)
            })
            .unwrap();
        let global = report.results[0].global_trace.as_ref().unwrap();
        let mut covered = RankSet::empty();
        global.visit_events(&mut |e| covered = covered.union(&e.ranks));
        assert_eq!(covered.len(), 6);
        // 5 steps x (send + recv + allreduce) + finalize per rank.
        assert!(global.dynamic_size() >= 16);
        assert!(
            report.results.iter().all(|r| r.trace_bytes > 0),
            "every rank allocates trace memory in plain ScalaTrace"
        );
    }

    #[test]
    fn acurdion_covers_ranks_with_few_leads() {
        let report = World::new(WorldConfig::new(8))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                app(&mut tp, 5);
                acurdion_finalize(&mut tp, &ChameleonConfig::with_k(3))
            })
            .unwrap();
        let global = report.results[0].global_trace.as_ref().unwrap();
        let mut covered = RankSet::empty();
        global.visit_events(&mut |e| covered = covered.union(&e.ranks));
        assert_eq!(covered.len(), 8, "cluster ranklists cover everyone");
        assert!(report.results[0].clustering_time > Duration::ZERO);
        // Every rank allocated trace space (the Table IV contrast with
        // Chameleon's zero-byte non-leads).
        assert!(report.results.iter().all(|r| r.trace_bytes > 0));
    }

    #[test]
    fn acurdion_matches_scalatrace_when_k_covers_all_behaviors() {
        // A ring has three behavior groups under relative encoding: the
        // two wrap-around ranks (offsets ±(p-1)) and the interior. With K
        // large enough to give each group a lead, the clustered trace is
        // structurally identical to the full ScalaTrace merge.
        let st = World::new(WorldConfig::new(4))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                app(&mut tp, 4);
                scalatrace_finalize(&mut tp, 2)
            })
            .unwrap();
        let ac = World::new(WorldConfig::new(4))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                app(&mut tp, 4);
                acurdion_finalize(&mut tp, &ChameleonConfig::with_k(4))
            })
            .unwrap();
        let st_trace = st.results[0].global_trace.as_ref().unwrap();
        let ac_trace = ac.results[0].global_trace.as_ref().unwrap();
        assert_eq!(st_trace.dynamic_size(), ac_trace.dynamic_size());
        assert_eq!(st_trace.compressed_size(), ac_trace.compressed_size());
    }

    #[test]
    fn acurdion_small_k_drops_only_redundant_structure() {
        // With K=2 the two wrap-around ranks share one lead: the clustered
        // trace is smaller than the full merge but still covers all ranks.
        let st = World::new(WorldConfig::new(4))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                app(&mut tp, 4);
                scalatrace_finalize(&mut tp, 2)
            })
            .unwrap();
        let ac = World::new(WorldConfig::new(4))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                app(&mut tp, 4);
                acurdion_finalize(&mut tp, &ChameleonConfig::with_k(2))
            })
            .unwrap();
        let st_trace = st.results[0].global_trace.as_ref().unwrap();
        let ac_trace = ac.results[0].global_trace.as_ref().unwrap();
        assert!(ac_trace.dynamic_size() <= st_trace.dynamic_size());
        let mut covered = RankSet::empty();
        ac_trace.visit_events(&mut |e| covered = covered.union(&e.ranks));
        assert_eq!(covered.len(), 4);
    }
}
