//! The Chameleon driver: marker and finalize wrappers (Algorithm 3).
//!
//! One [`Chameleon`] instance lives on each rank, attached to that rank's
//! [`TracedProc`]. The workload calls [`Chameleon::marker`] at its
//! progress-reporting points (timestep boundaries) and
//! [`Chameleon::finalize`] at the end; everything else — voting,
//! clustering, lead election, online inter-compression, memory
//! bookkeeping — happens inside those two calls, exactly as the paper puts
//! it: "communication for clustering occurs within PMPI pre- and
//! post-wrappers of the marker."

use std::time::Duration;

use clusterkit::LeadSelection;
use mpisim::collectives::ReduceOp;
use mpisim::{Comm, Rank, Tag, Work};
use scalatrace::{CompressedTrace, TracedProc};
use sigkit::SignatureTriple;

use crate::checkpoint::Checkpoint;
use crate::config::ChameleonConfig;
pub use crate::health::{FLAG_TAG, HEALTH_TAG};
use crate::state::{LocalVote, MarkerDecision, MarkerState, TransitionGraph};
use crate::stats::ChameleonStats;

/// Compute a rank's clustering signature triple from its *partial trace*
/// — Algorithm 1's literal input ("A Sequence of Compressed MPI Events
/// (PRSDs)"). The per-interval accumulators drive the phase-change vote;
/// clustering, however, must group ranks by the content that is about to
/// be merged, which spans every interval since the last merge.
pub(crate) fn trace_triple(trace: &scalatrace::CompressedTrace) -> SignatureTriple {
    let mut cp = sigkit::CallPathAccumulator::new();
    let mut src = sigkit::ParamEstimator::new();
    let mut dest = sigkit::ParamEstimator::new();
    trace.visit_events(&mut |e| {
        cp.record(e.stack_sig);
        if let Some(s) = &e.op.src {
            src.add(s.param_sig());
        }
        if let Some(d) = &e.op.dest {
            dest.add(d.param_sig());
        }
    });
    SignatureTriple {
        call_path: cp.finish(),
        src: src.estimate(),
        dest: dest.estimate(),
    }
}

/// The metrics-plane histogram charged with a marker interval's tool-time
/// cost, by the state the interval counted as.
fn state_hist(state: MarkerState) -> obs::HistId {
    match state {
        MarkerState::AllTracing => obs::HistId::StateAtNs,
        MarkerState::Clustering => obs::HistId::StateCNs,
        MarkerState::Lead => obs::HistId::StateLNs,
        MarkerState::Final => obs::HistId::StateFNs,
    }
}

/// Tool-clock seconds elapsed since `t0`.
pub(crate) fn tool_since(tp: &mut TracedProc, t0: f64) -> Duration {
    Duration::from_secs_f64(tp.inner().tool_time() - t0)
}

/// Tool-comm tag for hierarchical cluster-map exchange.
pub const CLUSTER_TAG: Tag = (1 << 29) + 1;
/// Tool-comm tag for shipping the partial global trace to the online
/// root (rank 0, or the promoted deputy after a root failover).
pub const ONLINE_TAG: Tag = (1 << 29) + 2;
/// Tool-comm tag for the root's star distribution of the lead selection
/// under an armed fault plan (a tree broadcast would cut a subtree off
/// from the selection if its interior relay died; lock-step requires every
/// survivor to learn the same leads).
pub const SELECT_TAG: Tag = (1 << 29) + 3;
/// Obs-plane tag for shipping the root's checkpoint replica to the deputy
/// (obs tag 0 is reserved for the metrics reduction).
pub const CKPT_SHIP_TAG: Tag = 1;
/// Obs-plane tag for the deputy's replication acknowledgement.
pub const CKPT_ACK_TAG: Tag = 2;

/// Result of `finalize`: the online trace materializes on the online
/// root.
#[derive(Debug, Clone)]
pub struct FinalizeOutcome {
    /// The complete online global trace, held by the online root — rank 0,
    /// or the promoted deputy after a root failover; `None` elsewhere.
    pub online_trace: Option<CompressedTrace>,
    /// This rank's accumulated instrumentation.
    pub stats: ChameleonStats,
}

/// Per-rank Chameleon state.
pub struct Chameleon {
    pub(crate) config: ChameleonConfig,
    pub(crate) graph: TransitionGraph,
    pub(crate) stats: ChameleonStats,
    /// Lead selection from the most recent Clustering marker; `Some`
    /// exactly while in a lead phase.
    pub(crate) selection: Option<LeadSelection>,
    /// The incrementally grown global trace (the online root keeps it;
    /// empty elsewhere).
    pub(crate) online_trace: CompressedTrace,
    /// The deputy's copy of the root's latest checkpoint blob. `None` on
    /// every other rank and before the first replication; consumed on
    /// promotion.
    pub(crate) replica: Option<Vec<u8>>,
    /// Resume fast-forward window: while `Some`, markers up to and
    /// including the checkpoint's merge nothing (the checkpoint already
    /// holds their contributions); at the checkpoint's marker the trace
    /// is installed on the root and the window closes.
    pub(crate) resume: Option<Checkpoint>,
    /// The agreed surviving participant set, ascending. All ranks until a
    /// resilient collective reports a smaller snapshot; never shrinks on a
    /// fault-free run. Every survivor holds the same copy (it comes from
    /// rank 0's authoritative snapshot), which is what keeps the shrunk
    /// protocol in lock-step.
    pub(crate) alive: Vec<Rank>,
    /// Whether the current marker slice has lost information to a fault
    /// (rank death, payload corrupt past the retry budget, undecodable
    /// wire bytes). Folded into `stats.degraded_slices` — at most once per
    /// slice — when the slice closes.
    pub(crate) slice_degraded: bool,
    /// Ranks flagged by the detector at the most recent marker, ascending.
    /// Shipped by the online root and applied identically on every rank,
    /// so the mitigation ladder stays in lock-step. Always empty when the
    /// detector is off.
    pub(crate) flagged: Vec<Rank>,
    /// Consecutive-flag streaks (the quarantine trigger), driven in
    /// lock-step from the shipped flag sets.
    pub(crate) sustain: obs::SustainTracker,
    /// Ranks quarantined for sustained degradation, ascending. Grows
    /// monotonically; each is walled into a singleton cluster at every
    /// subsequent selection.
    pub(crate) quarantined: Vec<Rank>,
    /// Last-sampled `(compute_ns, retransmits)` totals, so each marker
    /// ships a per-interval delta rather than a lifetime sum.
    pub(crate) health_base: (u64, u64),
    finalized: bool,
}

impl Chameleon {
    /// Create the per-rank driver.
    pub fn new(config: ChameleonConfig) -> Self {
        let resume = config.resume.clone();
        Chameleon {
            config,
            graph: TransitionGraph::new(),
            stats: ChameleonStats::default(),
            selection: None,
            online_trace: CompressedTrace::new(),
            replica: None,
            resume,
            alive: Vec::new(),
            slice_degraded: false,
            flagged: Vec::new(),
            sustain: obs::SustainTracker::new(),
            quarantined: Vec::new(),
            health_base: (0, 0),
            finalized: false,
        }
    }

    /// Instrumentation so far.
    pub fn stats(&self) -> &ChameleonStats {
        &self.stats
    }

    /// The agreed surviving participant set, ascending. All ranks until a
    /// fault plan kills one and a marker's resilient collective agrees on
    /// the shrunk set. Fault-aware workloads route around dead peers by
    /// rebuilding their communication pattern over this list.
    pub fn alive(&self) -> &[Rank] {
        &self.alive
    }

    /// The online-trace root: the smallest agreed-alive rank. Rank 0
    /// until it dies and the deputy is promoted.
    pub fn online_root(&self) -> Rank {
        self.alive.first().copied().unwrap_or(0)
    }

    /// Whether the current marker sits inside a resume replay's
    /// fast-forward window (merges and checkpoint ships are skipped; the
    /// checkpoint already holds their outcome).
    pub(crate) fn replaying(&self) -> bool {
        self.resume
            .as_ref()
            .is_some_and(|c| self.stats.marker_invocations <= c.marker)
    }

    /// Current online-trace size in bytes (only meaningful on the online
    /// root).
    pub fn online_trace_bytes(&self) -> usize {
        if self.online_trace.is_empty() {
            0
        } else {
            self.online_trace.byte_size()
        }
    }

    /// Whether this rank is currently a lead (or in all-tracing mode,
    /// where everyone effectively is).
    pub fn is_tracing(&self, tp: &TracedProc) -> bool {
        tp.tracer().is_enabled()
    }

    /// The marker call — insert at timestep boundaries.
    ///
    /// All ranks must call this collectively (it synchronizes on the
    /// marker communicator). Subject to `Call_Frequency`, it runs
    /// Algorithm 1 (vote) and the matching slice of Algorithm 3.
    pub fn marker(&mut self, tp: &mut TracedProc) {
        assert!(!self.finalized, "marker after finalize");
        self.stats.marker_invocations += 1;
        let n = self.stats.marker_invocations;
        let mtool0 = tp.inner().tool_time();
        tp.inner().record(|| obs::EventKind::Marker { n });
        // The marker itself: a barrier distinguished by its unique
        // communicator value. Tool-internal, so not traced. Its cost is
        // the modeled communication time (measuring blocking waits on an
        // oversubscribed host would time the scheduler, not the tool).
        // Under an armed fault plan the barrier doubles as the death
        // detector: its agreed alive snapshot drives lead re-election
        // before any per-slice work begins.
        let tool0 = tp.inner().tool_time();
        self.agree(tp, Comm::MARKER, None);
        self.stats.vote_time += tool_since(tp, tool0);
        if !self
            .stats
            .marker_invocations
            .is_multiple_of(self.config.call_frequency)
        {
            // Even skipped markers close a metrics-plane snapshot: the
            // whole point of the in-flight plane is per-marker visibility,
            // not per-*processed*-marker visibility.
            self.snapshot_metrics(tp);
            self.health_check(tp);
            return; // Algorithm 3 lines 1-3
        }
        self.stats.marker_calls += 1;

        let (events, triple) = self.sign_interval(tp);
        tp.inner().record(|| obs::EventKind::Signature {
            events,
            call_path: triple.call_path.0,
        });

        // Collective vote (Algorithm 1): reduce + bcast of the mismatch
        // indicator, O(log P) modeled communication.
        let tool0 = tp.inner().tool_time();
        let decision = match self.graph.local_vote(triple.call_path) {
            LocalVote::First => MarkerDecision::FirstMarker,
            LocalVote::Mismatch(m) => {
                let global = self.agree(tp, Comm::TOOL, Some(m));
                self.graph.decide(global)
            }
        };
        self.stats.vote_time += tool_since(tp, tool0);

        // Memory snapshot before any trace is wiped: what was allocated
        // during this interval (Table IV).
        let pre_bytes = tp.tracer().trace_bytes();

        match decision {
            MarkerDecision::FirstMarker | MarkerDecision::AllTracing => {
                // Nothing to do; partial traces keep accumulating.
            }
            MarkerDecision::StableLead => {
                // Leads keep tracing; everyone else stays dark. No merge —
                // this is why the lead phase is nearly free.
            }
            MarkerDecision::Cluster => {
                self.selection = Some(self.cluster_and_merge(tp));
            }
            MarkerDecision::FlushLead => {
                // A flush normally follows a clustering, but under a fault
                // plan the selection may have been abandoned (e.g. every
                // lead died). Falling back to All-Tracing loses nothing:
                // every rank simply resumes recording.
                if let Some(sel) = self.selection.take() {
                    self.merge_leads_into_online(tp, &sel);
                }
                // Phase changed: back to all-tracing.
                tp.tracer_mut().set_enabled(true);
            }
        }

        let state = decision.counted_state();
        self.close_slice(tp, state, decision.label(), pre_bytes, mtool0);
        // Checkpoint before installing a resume payload: during a replay
        // the stride markers up to the resume point are skipped (they were
        // already persisted by the pre-kill run), and the install below
        // closes the window so checkpointing restarts at the next stride.
        self.checkpoint_if_due(tp);
        self.maybe_install_resume(tp);
        self.snapshot_metrics(tp);
        self.health_check(tp);
    }

    /// The `MPI_Finalize` wrapper: flush the last interval into the online
    /// trace and return it (on rank 0).
    ///
    /// Per the paper, the Call-Path at finalize is "definitely different
    /// from the previous clustering" (the finalize event itself is new),
    /// so no vote is needed: if a lead phase is active its leads are
    /// flushed; otherwise one more clustering runs over the all-tracing
    /// partial traces.
    pub fn finalize(&mut self, tp: &mut TracedProc) -> FinalizeOutcome {
        assert!(!self.finalized, "finalize called twice");
        self.finalized = true;
        let mtool0 = tp.inner().tool_time();
        tp.record_finalize("MPI_Finalize");
        let tool0 = tp.inner().tool_time();
        self.agree(tp, Comm::TOOL, None);
        self.stats.vote_time += tool_since(tp, tool0);

        // Finalize journals no `Signature` event: the interval is signed
        // only to close it.
        self.sign_interval(tp);
        let pre_bytes = tp.tracer().trace_bytes();

        // A resume window that outlived the run's markers means the
        // checkpoint came from a longer run; drop it so the final flush
        // still merges whatever the replay holds.
        self.resume = None;

        match self.selection.take() {
            // Lead phase: non-leads hold no events for this tail; the
            // current leads' traces cover their clusters.
            Some(sel) => self.merge_leads_into_online(tp, &sel),
            // All-tracing: one final clustering (re-clustering forced).
            None => {
                self.cluster_and_merge(tp);
            }
        }

        // Exit synchronization: the job ends when the last merge
        // completes; spread the critical path to all ranks.
        let tool0 = tp.inner().tool_time();
        self.agree(tp, Comm::TOOL, None);
        self.stats.intercomp_time += tool_since(tp, tool0);

        self.close_slice(tp, MarkerState::Final, "finalize", pre_bytes, mtool0);
        self.snapshot_metrics(tp);

        FinalizeOutcome {
            online_trace: (tp.rank() == self.online_root())
                .then(|| std::mem::take(&mut self.online_trace)),
            stats: self.stats.clone(),
        }
    }

    /// The synchronization step of a marker or finalize: a barrier on
    /// `comm`, or — given this rank's vote — an allreduce that sums the
    /// vote (Algorithm 1's mismatch count). Fault-free these are the plain
    /// collectives and the alive set stays every rank; under an armed
    /// plan they are the resilient ones, whose agreed survivor snapshot
    /// [`Chameleon::observe_alive`] folds in. The first sync seeds the
    /// alive set with every rank.
    fn agree(&mut self, tp: &mut TracedProc, comm: Comm, vote: Option<u64>) -> u64 {
        if self.alive.is_empty() {
            self.alive = (0..tp.size()).collect();
        }
        if !tp.inner().faults_armed() {
            return match vote {
                Some(m) => tp.inner().allreduce_u64(m, ReduceOp::Sum, comm),
                None => {
                    tp.inner().barrier(comm);
                    0
                }
            };
        }
        let (global, alive_now) = match vote {
            Some(m) => tp.inner().resilient_allreduce_u64(m, ReduceOp::Sum, comm),
            None => (0, tp.inner().resilient_barrier(comm)),
        };
        self.observe_alive(tp, alive_now);
        global
    }

    /// Sign the interval since the previous marker and start the next one:
    /// O(n) over the interval's compressed events, charged from the model
    /// (see `mpisim::Work`) — measuring real CPU here would put
    /// nondeterministic wall time into an otherwise fully modeled stat.
    fn sign_interval(&mut self, tp: &mut TracedProc) -> (u64, SignatureTriple) {
        let events = tp.tracer().interval().event_count();
        let triple = tp.tracer_mut().rotate_interval();
        let sig_cost = tp.inner().tool_compute(&[Work::Signature { events }]);
        self.stats.signature_time += Duration::from_secs_f64(sig_cost);
        tp.inner().metric_add(obs::Counter::Signatures, 1);
        tp.inner().metric_add(obs::Counter::SigEvents, events);
        (events, triple)
    }

    /// Close a marker slice: fold a degraded slice into the stats, count
    /// and journal the state, and record the slice's memory and tool-time
    /// cost.
    fn close_slice(
        &mut self,
        tp: &mut TracedProc,
        state: MarkerState,
        decision: &'static str,
        pre_bytes: usize,
        mtool0: f64,
    ) {
        let marker = self.stats.marker_invocations;
        if self.slice_degraded {
            self.stats.degraded_slices += 1;
            self.slice_degraded = false;
            tp.inner().record(|| obs::EventKind::Degraded { marker });
        }
        self.stats.states.bump(state);
        tp.inner().record(|| obs::EventKind::State {
            marker,
            state: state.label(),
            decision,
        });
        self.stats.reclusterings = self.stats.states.c;
        let post_online = if tp.rank() == self.online_root() {
            self.online_trace_bytes()
        } else {
            0
        };
        self.stats.mem.record(state, pre_bytes + post_online);
        let interval_cost = tp.inner().tool_time() - mtool0;
        tp.inner()
            .metric_observe_seconds(state_hist(state), interval_cost);
    }

    /// Fold a fresh alive snapshot from a resilient collective into the
    /// runtime: detect newly dead ranks, re-elect leads for the clusters
    /// they led, and mark the slice degraded. Everything here is a pure
    /// function of the agreed snapshot, so every survivor transitions
    /// identically without extra communication.
    fn observe_alive(&mut self, tp: &mut TracedProc, alive_now: Vec<Rank>) {
        if alive_now.len() == self.alive.len() {
            return; // the alive set only ever shrinks
        }
        let old_root = self.online_root();
        self.slice_degraded = true;
        if let Some(sel) = &mut self.selection {
            let reelected = sel.map.reelect_leads(&alive_now);
            self.stats.lead_reelections += reelected.len() as u64;
            tp.inner()
                .metric_add(obs::Counter::Reelections, reelected.len() as u64);
            for r in reelected {
                tp.inner().record(|| obs::EventKind::Reelect {
                    call_path: r.call_path,
                    old: r.old as u64,
                    new: r.new as u64,
                });
            }
            // Rebuild the lead roster over survivors; extinct clusters
            // (every member dead) drop out here.
            sel.leads = sel
                .map
                .leads()
                .into_iter()
                .filter(|r| alive_now.contains(r))
                .collect();
            // A freshly elected lead starts recording *now*; whatever its
            // cluster did earlier in the slice died with the old lead —
            // that loss is exactly what `degraded_slices` counts.
            if sel.is_lead(tp.rank()) && !tp.tracer().is_enabled() {
                tp.tracer_mut().set_enabled(true);
            }
        }
        // Root failover: the dead root's deputy — now the smallest
        // survivor — inherits the online trace. Every survivor counts the
        // same promotion (the snapshot is agreed); only the promoted rank
        // restores from its replica and journals the event.
        let new_root = alive_now.first().copied().unwrap_or(0);
        if new_root != old_root {
            self.stats.promotions += 1;
            let marker = self.stats.marker_invocations;
            if tp.rank() == new_root {
                let restored = match self.replica.take().map(|b| Checkpoint::decode(&b)) {
                    Some(Ok(ckpt)) => {
                        self.online_trace = ckpt.trace;
                        true
                    }
                    // No replica yet (the root died before the first
                    // checkpoint ship) or an undecodable one: the online
                    // trace restarts empty; everything merged before this
                    // marker died with the root. `degraded_slices`
                    // already charges the slice.
                    _ => false,
                };
                tp.inner().record(|| obs::EventKind::Promote {
                    marker,
                    old_root: old_root as u64,
                    restored: u64::from(restored),
                });
            }
        }
        self.alive = alive_now;
    }

    /// Close the metrics-plane delta for this marker: every participant's
    /// sketch is drained and reduced over the out-of-band tree
    /// ([`mpisim::Comm::OBS`]), and the tree root — the smallest agreed
    /// survivor — witnesses the world's delta as one bounded `snapshot`
    /// event. Runs
    /// at *every* marker invocation (call-frequency-skipped ones included)
    /// and at finalize, whenever the recorder is armed; a no-op branch
    /// otherwise. The reduction is simulation-passive, so arming it never
    /// changes virtual times, traces, or fault schedules.
    fn snapshot_metrics(&mut self, tp: &mut TracedProc) {
        if !tp.inner().metrics_enabled() {
            return;
        }
        let marker = self.stats.marker_invocations;
        let participants = self.alive.clone();
        if let Some((delta, ranks)) = tp.inner().reduce_metrics_delta(&participants) {
            let ctrs = delta.counter_values();
            let hists = delta.hist_digest();
            tp.inner().record(move || obs::EventKind::Snapshot {
                marker,
                ranks,
                ctrs,
                hists,
            });
        }
    }
}

#[cfg(test)]
mod tests;
