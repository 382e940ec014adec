//! The PMPI-style interposition layer.
//!
//! Real ScalaTrace interposes on MPI through the PMPI profiling interface:
//! every `MPI_*` call enters a wrapper that records the event (with its
//! stack backtrace) before/after invoking the real operation.
//! [`TracedProc`] plays that role over [`mpisim::Proc`]: workloads issue
//! their communication through it, and each call
//!
//! 1. computes the event's stack signature from the synthetic call stack
//!    plus the call-site label (the stand-in for the call's return
//!    address),
//! 2. feeds the signature and the SRC/DEST parameters into the current
//!    marker-interval signature accumulators (always — signatures are
//!    needed for clustering votes even when tracing is off),
//! 3. appends a compressed event to the partial intra-node trace — but
//!    only while tracing is enabled (non-lead ranks in the Lead state turn
//!    this off, which is where Chameleon's memory saving comes from), and
//! 4. performs the real operation on the underlying simulated MPI.

use mpisim::{Comm, Proc, Rank, RecvInfo, SrcSel, Tag, TagSel, VirtualTime};
use sigkit::{CallPathAccumulator, CallStack, ParamEstimator, SignatureTriple, StackSig};

use crate::event::EventRecord;
use crate::op::{Endpoint, MpiOp, OpKind};
use crate::trace::CompressedTrace;

/// A call-site label: the stand-in for the MPI call's return address.
/// Distinct source locations must use distinct labels (they would have
/// distinct return addresses in a real binary).
pub type CallSite = &'static str;

/// Per-marker-interval signature accumulators: Call-Path plus SRC/DEST
/// parameter averages (the three signatures Chameleon clusters on).
#[derive(Debug, Clone, Default)]
pub struct IntervalSignatures {
    callpath: CallPathAccumulator,
    src: ParamEstimator,
    dest: ParamEstimator,
}

impl IntervalSignatures {
    /// Fresh accumulators.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one event's contribution.
    pub fn record(&mut self, sig: StackSig, op: &MpiOp) {
        self.callpath.record(sig);
        if let Some(src) = &op.src {
            self.src.add(src.param_sig());
        }
        if let Some(dest) = &op.dest {
            self.dest.add(dest.param_sig());
        }
    }

    /// Number of events recorded this interval.
    pub fn event_count(&self) -> u64 {
        self.callpath.len()
    }

    /// Produce the interval's signature triple.
    pub fn finish(&self) -> SignatureTriple {
        SignatureTriple {
            call_path: self.callpath.finish(),
            src: self.src.estimate(),
            dest: self.dest.estimate(),
        }
    }

    /// Reset for the next interval.
    pub fn reset(&mut self) {
        self.callpath.reset();
        self.src.reset();
        self.dest.reset();
    }
}

/// Tracing state carried by one rank: call stack, partial compressed
/// trace, interval signatures, and accounting.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    stack: CallStack,
    trace: CompressedTrace,
    interval: IntervalSignatures,
    last_event_vt: VirtualTime,
    /// Running peak of the partial-trace allocation, for Table IV.
    peak_trace_bytes: usize,
    /// Total events observed (traced or not).
    events_seen: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Fresh tracer with tracing enabled (the All-Tracing state).
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            stack: CallStack::new(),
            trace: CompressedTrace::new(),
            interval: IntervalSignatures::new(),
            last_event_vt: 0.0,
            peak_trace_bytes: 0,
            events_seen: 0,
        }
    }

    /// Whether events are currently recorded into the trace.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turn trace recording on/off (the "lead" flag). Signature
    /// accumulation continues regardless — every rank votes.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The partial intra-node trace.
    pub fn trace(&self) -> &CompressedTrace {
        &self.trace
    }

    /// Take the partial trace out, leaving an empty one (Algorithm 3:
    /// lead traces are shipped into the merge, then "delete your partial
    /// trace").
    pub fn take_trace(&mut self) -> CompressedTrace {
        std::mem::take(&mut self.trace)
    }

    /// Drop the partial trace (non-lead ranks after a merge).
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// Current interval signatures (read side).
    pub fn interval(&self) -> &IntervalSignatures {
        &self.interval
    }

    /// Finish the interval: produce the signature triple and reset the
    /// accumulators for the next interval.
    pub fn rotate_interval(&mut self) -> SignatureTriple {
        let triple = self.interval.finish();
        self.interval.reset();
        triple
    }

    /// Current partial-trace allocation in bytes; 0 when empty.
    pub fn trace_bytes(&self) -> usize {
        if self.trace.is_empty() {
            0
        } else {
            self.trace.byte_size()
        }
    }

    /// Peak partial-trace allocation observed so far.
    pub fn peak_trace_bytes(&self) -> usize {
        self.peak_trace_bytes
    }

    /// Total events seen (traced or untraced).
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }
}

/// A rank's MPI handle with ScalaTrace interposition.
pub struct TracedProc<'a> {
    proc: &'a mut Proc,
    tracer: Tracer,
}

impl<'a> TracedProc<'a> {
    /// Wrap a raw process handle with a fresh tracer.
    pub fn new(proc: &'a mut Proc) -> Self {
        TracedProc {
            proc,
            tracer: Tracer::new(),
        }
    }

    /// Rank shortcut.
    pub fn rank(&self) -> Rank {
        self.proc.rank()
    }

    /// World-size shortcut.
    pub fn size(&self) -> usize {
        self.proc.size()
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.proc.now()
    }

    /// Direct access to the underlying untraced process handle — the
    /// tool-internal side channel (clustering votes, trace shipping). Real
    /// ScalaTrace likewise talks PMPI_* directly inside its wrappers so
    /// tool traffic never shows up in traces.
    pub fn inner(&mut self) -> &mut Proc {
        self.proc
    }

    /// The tracer state.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer state (Chameleon flips the lead flag, rotates
    /// intervals, takes traces).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Enter a synthetic stack frame for the duration of `f` — the
    /// workload's way of declaring its call structure.
    pub fn frame<R>(&mut self, label: CallSite, f: impl FnOnce(&mut Self) -> R) -> R {
        self.tracer.stack.push(sigkit::stack::frame_addr(label));
        let out = f(self);
        self.tracer.stack.pop();
        out
    }

    /// Simulated computation (advances virtual time; not an MPI event).
    pub fn compute(&mut self, dt: VirtualTime) {
        self.proc.compute(dt);
    }

    fn site_sig(&self, site: CallSite) -> StackSig {
        self.tracer
            .stack
            .signature_with(sigkit::stack::frame_addr(site))
    }

    /// PMPI-wrapper core: record the event, then let the caller run the
    /// real operation.
    fn record(&mut self, site: CallSite, op: MpiOp) {
        let sig = self.site_sig(site);
        let pre = (self.proc.now() - self.tracer.last_event_vt).max(0.0);
        self.tracer.events_seen += 1;
        self.tracer.interval.record(sig, &op);
        if self.tracer.enabled {
            self.tracer
                .trace
                .append(EventRecord::new(op, sig, self.proc.rank(), pre));
            self.tracer.peak_trace_bytes = self
                .tracer
                .peak_trace_bytes
                .max(self.tracer.trace.byte_size());
        }
    }

    fn mark_event_end(&mut self) {
        self.tracer.last_event_vt = self.proc.now();
    }

    /// Traced `MPI_Send`.
    pub fn send(&mut self, site: CallSite, dest: Rank, tag: Tag, payload: &[u8]) {
        let op = MpiOp::send(
            Endpoint::encode(self.proc.rank(), dest),
            tag,
            payload.len(),
            Comm::WORLD,
        );
        self.record(site, op);
        self.proc.send(dest, tag, Comm::WORLD, payload);
        self.mark_event_end();
    }

    /// Traced `MPI_Send` with an endpoint the workload knows to be
    /// structurally absolute (e.g. a fixed master rank) — recorded
    /// absolutely so clustered replay does not transpose it.
    pub fn send_absolute(&mut self, site: CallSite, dest: Rank, tag: Tag, payload: &[u8]) {
        let op = MpiOp::send(Endpoint::Absolute(dest), tag, payload.len(), Comm::WORLD);
        self.record(site, op);
        self.proc.send(dest, tag, Comm::WORLD, payload);
        self.mark_event_end();
    }

    /// Traced `MPI_Recv` from a concrete source.
    pub fn recv(&mut self, site: CallSite, src: Rank, tag: Tag, expected_len: usize) -> RecvInfo {
        let op = MpiOp::recv(
            Endpoint::encode(self.proc.rank(), src),
            tag,
            expected_len,
            Comm::WORLD,
        );
        self.record(site, op);
        let info = self
            .proc
            .recv(SrcSel::Rank(src), TagSel::Tag(tag), Comm::WORLD);
        self.mark_event_end();
        info
    }

    /// Traced `MPI_Recv` that tolerates a dead sender under an armed
    /// fault plan: the event is recorded *unconditionally* (every rank's
    /// recorded call-path must stay identical whether or not its
    /// particular neighbor died — the clustering votes depend on it), then
    /// the receive either completes or reports the peer's death as `None`.
    pub fn recv_dead_aware(
        &mut self,
        site: CallSite,
        src: Rank,
        tag: Tag,
        expected_len: usize,
    ) -> Option<RecvInfo> {
        let op = MpiOp::recv(
            Endpoint::encode(self.proc.rank(), src),
            tag,
            expected_len,
            Comm::WORLD,
        );
        self.record(site, op);
        let info = self.proc.recv_or_dead(src, tag, Comm::WORLD);
        self.mark_event_end();
        info
    }

    /// Traced `MPI_Recv` from a source the workload knows to be
    /// structurally absolute (a fixed master/root) — recorded absolutely
    /// so clustered replay does not transpose it.
    pub fn recv_absolute(
        &mut self,
        site: CallSite,
        src: Rank,
        tag: Tag,
        expected_len: usize,
    ) -> RecvInfo {
        let op = MpiOp::recv(Endpoint::Absolute(src), tag, expected_len, Comm::WORLD);
        self.record(site, op);
        let info = self
            .proc
            .recv(SrcSel::Rank(src), TagSel::Tag(tag), Comm::WORLD);
        self.mark_event_end();
        info
    }

    /// Traced wildcard receive (`MPI_ANY_SOURCE`) — the master–worker
    /// idiom.
    pub fn recv_any(&mut self, site: CallSite, tag: Tag, expected_len: usize) -> RecvInfo {
        let op = MpiOp::recv(Endpoint::Any, tag, expected_len, Comm::WORLD);
        self.record(site, op);
        let info = self.proc.recv(SrcSel::Any, TagSel::Tag(tag), Comm::WORLD);
        self.mark_event_end();
        info
    }

    /// Traced `MPI_Sendrecv`: the stencil halo-exchange workhorse.
    pub fn sendrecv(
        &mut self,
        site: CallSite,
        dest: Rank,
        send_tag: Tag,
        payload: &[u8],
        src: Rank,
        recv_tag: Tag,
    ) -> RecvInfo {
        let me = self.proc.rank();
        let op = MpiOp {
            kind: OpKind::SendRecv,
            src: Some(Endpoint::encode(me, src)),
            dest: Some(Endpoint::encode(me, dest)),
            tag: Some(send_tag),
            recv_tag: Some(recv_tag),
            count: payload.len(),
            comm: Comm::WORLD,
        };
        self.record(site, op);
        let info = self.proc.sendrecv(
            dest,
            send_tag,
            payload,
            SrcSel::Rank(src),
            TagSel::Tag(recv_tag),
            Comm::WORLD,
        );
        self.mark_event_end();
        info
    }

    /// Traced `MPI_Barrier` on the world communicator.
    pub fn barrier(&mut self, site: CallSite) {
        self.record(site, MpiOp::barrier(Comm::WORLD));
        self.proc.barrier(Comm::WORLD);
        self.mark_event_end();
    }

    /// Traced `MPI_Allreduce` (sum of one u64).
    pub fn allreduce_sum(&mut self, site: CallSite, value: u64) -> u64 {
        let op = MpiOp {
            kind: OpKind::Allreduce,
            src: None,
            dest: None,
            tag: None,
            recv_tag: None,
            count: 8,
            comm: Comm::WORLD,
        };
        self.record(site, op);
        let out = self.proc.allreduce_sum(value);
        self.mark_event_end();
        out
    }

    /// Traced `MPI_Reduce` (sum of one u64) to `root`.
    pub fn reduce_sum(&mut self, site: CallSite, value: u64, root: Rank) -> Option<u64> {
        self.record(site, MpiOp::rooted(OpKind::Reduce, root, 8, Comm::WORLD));
        let out =
            self.proc
                .reduce_u64(value, mpisim::collectives::ReduceOp::Sum, root, Comm::WORLD);
        self.mark_event_end();
        out
    }

    /// Traced `MPI_Bcast` from `root`.
    pub fn bcast(&mut self, site: CallSite, payload: &[u8], root: Rank) -> Vec<u8> {
        self.record(
            site,
            MpiOp::rooted(OpKind::Bcast, root, payload.len(), Comm::WORLD),
        );
        let out = self.proc.bcast(payload, root, Comm::WORLD);
        self.mark_event_end();
        out
    }

    /// Traced `MPI_Gather` to `root`.
    pub fn gather(&mut self, site: CallSite, payload: &[u8], root: Rank) -> Option<Vec<Vec<u8>>> {
        self.record(
            site,
            MpiOp::rooted(OpKind::Gather, root, payload.len(), Comm::WORLD),
        );
        let out = self.proc.gather(payload, root, Comm::WORLD);
        self.mark_event_end();
        out
    }

    /// Record the `MPI_Finalize` event (traced so the final interval is
    /// never empty; the paper's finalize path relies on this).
    pub fn record_finalize(&mut self, site: CallSite) {
        let op = MpiOp {
            kind: OpKind::Finalize,
            src: None,
            dest: None,
            tag: None,
            recv_tag: None,
            count: 0,
            comm: Comm::WORLD,
        };
        self.record(site, op);
        self.mark_event_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{World, WorldConfig};

    #[test]
    fn traced_ring_builds_trace() {
        let report = World::new(WorldConfig::new(4))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                let me = tp.rank();
                let p = tp.size();
                for _ in 0..10 {
                    tp.send("ring_send", (me + 1) % p, 0, &[0u8; 8]);
                    tp.recv("ring_recv", (me + p - 1) % p, 0, 8);
                }
                let t = tp.tracer().trace().clone();
                (t.compressed_size(), t.dynamic_size())
            })
            .unwrap();
        for &(csize, dsize) in &report.results {
            assert_eq!(dsize, 20, "10 sends + 10 recvs");
            assert!(csize <= 3, "loop compression must kick in, got {csize}");
        }
    }

    #[test]
    fn interval_signatures_match_across_spmd_ranks() {
        let report = World::new(WorldConfig::new(4))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                let me = tp.rank();
                let p = tp.size();
                tp.frame("timestep", |tp| {
                    tp.send("s", (me + 1) % p, 0, &[0u8; 8]);
                    tp.recv("r", (me + p - 1) % p, 0, 8);
                    tp.barrier("b");
                });
                tp.tracer_mut().rotate_interval()
            })
            .unwrap();
        let first = report.results[0];
        for (rank, trip) in report.results.iter().enumerate() {
            assert_eq!(
                trip.call_path, first.call_path,
                "rank {rank} call-path differs"
            );
        }
    }

    #[test]
    fn different_behavior_different_callpath() {
        let report = World::new(WorldConfig::new(2))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                if tp.rank() == 0 {
                    tp.send("master_send", 1, 0, &[1]);
                } else {
                    tp.recv("worker_recv", 0, 0, 1);
                }
                tp.tracer_mut().rotate_interval()
            })
            .unwrap();
        assert_ne!(report.results[0].call_path, report.results[1].call_path);
    }

    #[test]
    fn disabled_tracer_records_signatures_but_no_trace() {
        let report = World::new(WorldConfig::new(2))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                tp.tracer_mut().set_enabled(false);
                tp.barrier("b1");
                tp.barrier("b2");
                let sig = tp.tracer_mut().rotate_interval();
                let empty = tp.tracer().trace().is_empty();
                let bytes = tp.tracer().trace_bytes();
                (sig, empty, bytes)
            })
            .unwrap();
        for (sig, empty, bytes) in &report.results {
            assert!(!sig.call_path.is_none(), "signatures still accumulate");
            assert!(*empty, "no trace recorded while disabled");
            assert_eq!(*bytes, 0, "zero allocation while disabled — Table IV");
        }
    }

    #[test]
    fn frames_distinguish_call_contexts() {
        let report = World::new(WorldConfig::new(1))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                tp.frame("phase_a", |tp| tp.record_finalize("x"));
                let a = tp.tracer_mut().rotate_interval();
                tp.frame("phase_b", |tp| tp.record_finalize("x"));
                let b = tp.tracer_mut().rotate_interval();
                (a.call_path, b.call_path)
            })
            .unwrap();
        let (a, b) = report.results[0];
        assert_ne!(a, b, "same site under different frames must differ");
    }

    #[test]
    fn repeated_interval_same_callpath() {
        // The transition graph's core assumption: re-executing the same
        // code between markers reproduces the same Call-Path signature.
        let report = World::new(WorldConfig::new(2))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                let mut sigs = Vec::new();
                for _step in 0..3 {
                    tp.frame("timestep", |tp| {
                        tp.barrier("halo");
                        tp.allreduce_sum("residual", 1);
                    });
                    sigs.push(tp.tracer_mut().rotate_interval().call_path);
                }
                sigs
            })
            .unwrap();
        for sigs in &report.results {
            assert_eq!(sigs[0], sigs[1]);
            assert_eq!(sigs[1], sigs[2]);
        }
    }

    #[test]
    fn sendrecv_records_both_tags() {
        // Regression: a SendRecv's send and receive tags differ; replay
        // needs both (a single recorded tag mispairs boundary exchanges).
        let report = World::new(WorldConfig::new(2))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                let peer = 1 - tp.rank();
                let (t_out, t_in) = if tp.rank() == 0 { (7, 9) } else { (9, 7) };
                tp.sendrecv("exchange", peer, t_out, &[0u8; 8], peer, t_in);
                let mut tags = None;
                tp.tracer().trace().visit_events(&mut |e| {
                    tags = Some((e.op.tag, e.op.recv_tag));
                });
                tags
            })
            .unwrap();
        assert_eq!(report.results[0], Some((Some(7), Some(9))));
        assert_eq!(report.results[1], Some((Some(9), Some(7))));
    }

    #[test]
    fn pre_time_captures_compute() {
        let report = World::new(WorldConfig::new(1))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                tp.compute(2.0);
                tp.record_finalize("end");
                let mut total = 0.0;
                tp.tracer()
                    .trace()
                    .visit_events(&mut |e| total += e.pre_time.total());
                total
            })
            .unwrap();
        assert!((report.results[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn take_trace_leaves_empty() {
        let report = World::new(WorldConfig::new(1))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                tp.record_finalize("x");
                let taken = tp.tracer_mut().take_trace();
                (taken.dynamic_size(), tp.tracer().trace().is_empty())
            })
            .unwrap();
        assert_eq!(report.results[0], (1, true));
    }

    #[test]
    fn peak_bytes_monotone() {
        let report = World::new(WorldConfig::new(1))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                for i in 0..20u64 {
                    // Distinct sites so the trace actually grows.
                    let site: CallSite = Box::leak(format!("site{i}").into_boxed_str());
                    tp.frame(site, |tp| tp.record_finalize("e"));
                }
                let peak = tp.tracer().peak_trace_bytes();
                tp.tracer_mut().clear_trace();
                (peak, tp.tracer().trace_bytes())
            })
            .unwrap();
        let (peak, after_clear) = report.results[0];
        assert!(peak > 0);
        assert_eq!(after_clear, 0);
    }
}
