//! The Clustering branch of Algorithm 3: hierarchical signature
//! clustering over the agreed survivors' radix tree, lead-selection
//! hand-out, and online inter-compression of the leads' traces.

use clusterkit::{ClusterAlgorithm, ClusterMap, LeadSelection};
use mpisim::{Comm, Rank, RetryPolicy, Work};
use scalatrace::reduction::{decode_wire_trace, radix_tree_merge, DEFAULT_RADIX};
use scalatrace::TracedProc;
use sigkit::SignatureTriple;

use crate::config::ChameleonConfig;
use crate::runtime::{tool_since, trace_triple, Chameleon, CLUSTER_TAG, ONLINE_TAG, SELECT_TAG};

impl Chameleon {
    /// Clustering branch of Algorithm 3: cluster on the partial trace's
    /// signatures — everything the merge below will ship, not just the
    /// last interval, which at finalize may hold nothing but the finalize
    /// event and would spuriously group every rank together — switch
    /// tracing to the leads, and merge.
    pub(crate) fn cluster_and_merge(&mut self, tp: &mut TracedProc) -> LeadSelection {
        let cluster_triple = trace_triple(tp.tracer().trace());
        let sel = self.cluster(tp, &cluster_triple);
        let am_lead = sel.is_lead(tp.rank());
        tp.tracer_mut().set_enabled(am_lead);
        self.merge_leads_into_online(tp, &sel);
        sel
    }

    /// Hierarchical signature clustering over the radix tree of the agreed
    /// survivors (Algorithm 3, Clustering branch): child maps merge upward
    /// with per-node pruning; the root selects the Top K and distributes
    /// it. Every hop is a reliable transfer — a plain `send`/`recv` when no
    /// fault plan is armed. A dead child (or a payload corrupt past the
    /// retry budget) costs its subtree's entries for this slice; those
    /// ranks still hear the selection from the root, so lock-step
    /// survives.
    pub(crate) fn cluster(
        &mut self,
        tp: &mut TracedProc,
        triple: &SignatureTriple,
    ) -> LeadSelection {
        let tool0 = tp.inner().tool_time();
        let algo = self.config.algo.build();
        let me = tp.rank();
        let mut degraded = false;
        let root_sel = cluster_up(
            tp,
            &self.config,
            &*algo,
            &self.alive,
            triple,
            |child| self.retry_toward(child),
            &mut degraded,
        );
        let sel = distribute(tp, root_sel, &self.alive, &mut degraded);
        // The selection root died mid-distribution: degrade to a singleton
        // self-selection. This rank keeps tracing as its own lead, and the
        // next resilient collective re-agrees membership. Ranks that
        // already received the real selection may merge without us — that
        // divergence is bounded by the hang backstop (FAULTS.md, "mid-slice
        // root death").
        degraded |= sel.is_none();
        self.slice_degraded |= degraded;
        let mut sel = sel
            .unwrap_or_else(|| LeadSelection::select(ClusterMap::from_rank(me, triple), 1, &*algo));
        self.apply_health_policy(tp, &mut sel);
        // Every span above was registered on the tool clock, so the delta
        // covers modeled compute + modeled communication + waits.
        self.stats.clustering_time += tool_since(tp, tool0);
        // Table I reports the main-phase clustering; later re-clusterings
        // (e.g. the tiny finalize interval) see fewer Call-Paths, so keep
        // the maximum observed.
        self.stats.leads = self.stats.leads.max(sel.leads.len() as u64);
        self.stats.call_paths = self.stats.call_paths.max(sel.map.num_call_paths() as u64);
        let marker = self.stats.marker_invocations;
        let lead = sel.map.cluster_of(me).map(|e| e.lead).unwrap_or(me);
        tp.inner().record(|| obs::EventKind::ClusterSel {
            marker,
            effective_k: sel.leads.len() as u64,
            lead: lead as u64,
            leads: sel.leads.iter().map(|&r| r as u64).collect(),
        });
        tp.inner().metric_add(obs::Counter::ClusterRounds, 1);
        sel
    }

    /// Online inter-compression (Algorithm 3, merge branch): leads
    /// substitute their cluster ranklists into their partial traces, merge
    /// over the radix tree of the Top K ("temp ranks"), ship the partial
    /// global trace to the online root (rank 0, or the promoted deputy
    /// after a root failover), fold it into the online trace, and then
    /// every rank deletes its partial trace.
    pub(crate) fn merge_leads_into_online(&mut self, tp: &mut TracedProc, sel: &LeadSelection) {
        let tool0 = tp.inner().tool_time();
        let me = tp.rank();
        // Merge over the leads still in the agreed alive set. A lead that
        // died mid-slice (after the last resilient collective) is still
        // listed — survivors cannot re-agree without another collective —
        // and degrades the merges that touch it instead of wedging them.
        let participants: Vec<Rank> = sel
            .leads
            .iter()
            .copied()
            .filter(|r| self.alive.binary_search(r).is_ok())
            .collect();
        let replaying = self.replaying();
        if replaying || participants.is_empty() {
            // Resume fast-forward: every contribution this merge would
            // produce is already inside the checkpoint that will be
            // installed at the resume marker, so clear partials exactly
            // like a real merge and ship nothing. Otherwise every lead
            // died: this slice's events are unrecoverable.
            self.slice_degraded |= !replaying;
            tp.tracer_mut().clear_trace();
            self.stats.intercomp_time += tool_since(tp, tool0);
            return;
        }
        let am_lead = participants.contains(&me);
        let merge_root: Rank = participants[0];
        // The rank the merged partial folds into: rank 0 for its whole
        // life, the promoted deputy after a root failover.
        let online_root = self.online_root();

        if am_lead {
            let cluster = sel
                .map
                .cluster_of(me)
                .expect("lead must belong to a cluster")
                .clone();
            let mut trace = tp.tracer_mut().take_trace();
            tp.inner().tool_compute(&[Work::Fold {
                nodes: trace.compressed_size(),
            }]);
            trace.visit_events_mut(&mut |e| e.set_ranks(cluster.members.clone()));
            let outcome = radix_tree_merge(tp.inner(), DEFAULT_RADIX, &participants, &trace);
            if outcome.degraded > 0 {
                self.slice_degraded = true;
            }
            if let Some(partial) = outcome.merged {
                // This rank is the root of the Top-K tree.
                if me == online_root {
                    tp.inner().tool_compute(&[Work::AlignWorstCase {
                        n: self.online_trace.compressed_size(),
                        m: partial.compressed_size(),
                    }]);
                    self.online_trace.absorb_trace(&partial);
                } else {
                    let wire = scalatrace::format::to_text(&partial);
                    tp.inner()
                        .tool_compute(&[Work::Codec { bytes: wire.len() }]);
                    if tp
                        .inner()
                        .reliable_send(online_root, ONLINE_TAG, Comm::TOOL, wire.as_bytes())
                        .is_err()
                    {
                        self.slice_degraded = true;
                    }
                }
            }
        }
        if me == online_root && merge_root != online_root {
            let policy = self.retry_toward(merge_root);
            let payload = tp
                .inner()
                .reliable_recv(merge_root, ONLINE_TAG, Comm::TOOL, policy);
            // A dead merge root, a payload corrupt past the retry budget or
            // undecodable text: the online trace skips this slice and the
            // run continues.
            match payload.map(|p| (decode_wire_trace(&p), p.len())) {
                Ok((Ok(partial), len)) => {
                    tp.inner().tool_compute(&[
                        Work::Codec { bytes: len },
                        Work::AlignWorstCase {
                            n: self.online_trace.compressed_size(),
                            m: partial.compressed_size(),
                        },
                    ]);
                    self.online_trace.absorb_trace(&partial);
                }
                _ => self.slice_degraded = true,
            }
        }
        // "All nodes: Delete your partial trace."
        tp.tracer_mut().clear_trace();
        self.stats.intercomp_time += tool_since(tp, tool0);
    }
}

/// The upward pass of hierarchical signature clustering over the radix
/// tree of `participants` (this rank among them): merge the children's
/// cluster maps into this rank's own, prune to O(K), and ship the result
/// to the parent. Returns the Top-K selection at the tree's root, `None`
/// elsewhere. Every hop is a reliable transfer — a plain `send`/`recv`
/// when no fault plan is armed — reading child `c` under
/// `retry_toward(c)`; a dead child, a payload corrupt past that budget or
/// a dead parent costs the subtree's entries and sets `degraded`.
pub(crate) fn cluster_up(
    tp: &mut TracedProc,
    config: &ChameleonConfig,
    algo: &dyn ClusterAlgorithm,
    participants: &[Rank],
    triple: &SignatureTriple,
    retry_toward: impl Fn(Rank) -> RetryPolicy,
    degraded: &mut bool,
) -> Option<LeadSelection> {
    let me = tp.rank();
    let my_pos = participants
        .iter()
        .position(|&r| r == me)
        .expect("a running rank is always a participant");
    let tree = mpisim::RadixTree::new(DEFAULT_RADIX, participants.len());
    let mut map = ClusterMap::from_rank(me, triple);
    for child_pos in tree.children(my_pos) {
        let child = participants[child_pos];
        let payload = tp
            .inner()
            .reliable_recv(child, CLUSTER_TAG, Comm::TOOL, retry_toward(child));
        let child_map = payload.map(|payload| {
            tp.inner().tool_compute(&[Work::Codec {
                bytes: payload.len(),
            }]);
            ClusterMap::decode(&payload)
        });
        match child_map {
            Ok(Ok(child_map)) => map.merge(child_map),
            // A dead child or a payload corrupt past its retry budget.
            _ => *degraded = true,
        }
    }
    // Per-node pruning keeps every node's working set at O(K).
    tp.inner().tool_compute(&[Work::Cluster {
        entries: map.total_clusters(),
    }]);
    map.prune(config.k, algo);
    match tree.parent(my_pos) {
        Some(parent_pos) => {
            let wire = map.encode();
            tp.inner()
                .tool_compute(&[Work::Codec { bytes: wire.len() }]);
            let sent =
                tp.inner()
                    .reliable_send(participants[parent_pos], CLUSTER_TAG, Comm::TOOL, &wire);
            // Dead parent: this subtree's entries miss the selection.
            *degraded |= sent.is_err();
            None
        }
        None => {
            tp.inner().tool_compute(&[Work::Cluster {
                entries: map.total_clusters(),
            }]);
            Some(LeadSelection::select(map, config.k, algo))
        }
    }
}

/// Hand the lead selection from the clustering root (`root_sel` is `Some`
/// there only) to every rank of `alive`. Fault-free this is a tree `bcast`
/// from rank 0. Under an armed plan the root *stars* it out over reliable
/// transfers: a tree would cut a subtree off from the selection if an
/// interior relay died, and lock-step requires every survivor to learn the
/// same leads. A rank the root cannot reach sets `degraded`; `None` means
/// the root died before this rank heard from it.
pub(crate) fn distribute(
    tp: &mut TracedProc,
    root_sel: Option<LeadSelection>,
    alive: &[Rank],
    degraded: &mut bool,
) -> Option<LeadSelection> {
    let armed = tp.inner().faults_armed();
    if let Some(sel) = root_sel {
        let wire = sel.encode();
        tp.inner()
            .tool_compute(&[Work::Codec { bytes: wire.len() }]);
        if !armed {
            tp.inner().bcast(&wire, 0, Comm::TOOL);
            return Some(sel);
        }
        for &r in alive.iter().skip(1) {
            // A rank that died mid-slice; the next resilient collective
            // will agree on its absence.
            let sent = tp.inner().reliable_send(r, SELECT_TAG, Comm::TOOL, &wire);
            *degraded |= sent.is_err();
        }
        return Some(sel);
    }
    let enc = if !armed {
        tp.inner().bcast(&[], 0, Comm::TOOL)
    } else {
        // The frames are CRC-checked, so unbounded retry converges —
        // unless the root itself dies mid-star.
        tp.inner()
            .reliable_recv(alive[0], SELECT_TAG, Comm::TOOL, RetryPolicy::Unlimited)
            .ok()?
    };
    tp.inner().tool_compute(&[Work::Codec { bytes: enc.len() }]);
    let sel = LeadSelection::decode(&enc)
        .unwrap_or_else(|e| panic!("cluster protocol bug: undecodable lead selection: {e}"));
    Some(sel)
}
