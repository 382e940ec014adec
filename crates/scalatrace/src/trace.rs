//! PRSD-compressed traces with online intra-node compression.
//!
//! ScalaTrace captures "MPI events in the innermost loop as Regular
//! Section Descriptors (RSD), while power-RSDs capture RSDs of higher-level
//! loop nests represented as a constant sized data structure" (paper §II).
//! The paper's running example:
//!
//! ```text
//! for i = 0..1000 { for k = 0..100 { MPI_Send; MPI_Recv } MPI_Barrier }
//! ```
//!
//! compresses to `RSD1:<100, Send, Recv>` and
//! `PRSD1:<1000, RSD1, Barrier>`. Here a [`TraceNode::Loop`] is an
//! RSD/PRSD (loops nest, so the two are one type), and compression happens
//! **online**: every [`CompressedTrace::append`] attempts to fold the trace
//! tail into a preceding identical window or into a preceding loop,
//! repeating until a fixpoint — so the in-memory trace stays in compressed
//! form at all times, which is what makes per-marker-interval tracing
//! cheap enough to run online.

use crate::event::EventRecord;

/// Maximum loop-body length (in trace nodes) the tail matcher considers.
/// Real loop bodies in the benchmarked codes are far shorter; the bound
/// keeps `append` O(W²) worst-case.
pub const MAX_WINDOW: usize = 32;

/// One node of a compressed trace: a leaf event or a loop (RSD/PRSD).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceNode {
    /// A single compressed event.
    Event(EventRecord),
    /// `iters` repetitions of `body` — an RSD when the body is all events,
    /// a PRSD when the body contains loops.
    Loop {
        /// Repetition count.
        iters: u64,
        /// The loop body.
        body: Vec<TraceNode>,
    },
}

impl TraceNode {
    /// Structural match for compression: same shape, same call sites, same
    /// iteration counts. Ranklists and time statistics are payload and do
    /// not participate.
    pub fn matches(&self, other: &TraceNode) -> bool {
        match (self, other) {
            (TraceNode::Event(a), TraceNode::Event(b)) => a.same_site(b),
            (
                TraceNode::Loop {
                    iters: ia,
                    body: ba,
                },
                TraceNode::Loop {
                    iters: ib,
                    body: bb,
                },
            ) => ia == ib && ba.len() == bb.len() && ba.iter().zip(bb).all(|(x, y)| x.matches(y)),
            _ => false,
        }
    }

    /// Fold `other` (which must match structurally) into `self`,
    /// aggregating time statistics and ranklists of corresponding events.
    pub fn absorb(&mut self, other: &TraceNode) {
        match (self, other) {
            (TraceNode::Event(a), TraceNode::Event(b)) => a.absorb(b),
            (TraceNode::Loop { body: ba, .. }, TraceNode::Loop { body: bb, .. }) => {
                debug_assert_eq!(ba.len(), bb.len(), "absorbing mismatched loop");
                for (x, y) in ba.iter_mut().zip(bb) {
                    x.absorb(y);
                }
            }
            _ => debug_assert!(false, "absorbing mismatched node kinds"),
        }
    }

    /// Number of compressed nodes (events + loop headers) in this subtree:
    /// the paper's *n*, "the number of MPI events in PRSD compressed
    /// notation".
    pub fn compressed_size(&self) -> usize {
        match self {
            TraceNode::Event(_) => 1,
            TraceNode::Loop { body, .. } => {
                1 + body.iter().map(|n| n.compressed_size()).sum::<usize>()
            }
        }
    }

    /// Number of dynamic event instances this subtree stands for.
    pub fn dynamic_size(&self) -> u64 {
        match self {
            TraceNode::Event(_) => 1,
            TraceNode::Loop { iters, body } => {
                iters * body.iter().map(|n| n.dynamic_size()).sum::<u64>()
            }
        }
    }

    /// Approximate in-memory footprint in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            TraceNode::Event(e) => e.byte_size(),
            TraceNode::Loop { body, .. } => 16 + body.iter().map(|n| n.byte_size()).sum::<usize>(),
        }
    }

    /// Visit every leaf event without expanding loops.
    pub fn visit_events<'a>(&'a self, f: &mut impl FnMut(&'a EventRecord)) {
        match self {
            TraceNode::Event(e) => f(e),
            TraceNode::Loop { body, .. } => {
                for n in body {
                    n.visit_events(f);
                }
            }
        }
    }

    /// Visit every leaf event mutably.
    pub fn visit_events_mut(&mut self, f: &mut impl FnMut(&mut EventRecord)) {
        match self {
            TraceNode::Event(e) => f(e),
            TraceNode::Loop { body, .. } => {
                for n in body {
                    n.visit_events_mut(f);
                }
            }
        }
    }

    /// Walk the subtree in dynamic order, expanding loop iterations.
    pub fn walk(&self, f: &mut impl FnMut(&EventRecord)) {
        match self {
            TraceNode::Event(e) => f(e),
            TraceNode::Loop { iters, body } => {
                for _ in 0..*iters {
                    for n in body {
                        n.walk(f);
                    }
                }
            }
        }
    }

    /// Structural fingerprint: two nodes that [`TraceNode::matches`] always
    /// hash equal (events: call site + operation; loops: trip count plus
    /// the body's recursive hashes). Payload — ranklists, time statistics —
    /// is deliberately excluded, so the hash is stable across `absorb`.
    /// The merge hashes each top-level node its trim leaves over once, to
    /// pick the bucket in which the node is interned; the reference oracle
    /// uses equality of hashes as an O(1) prefilter before the full
    /// (recursive) structural comparison.
    pub fn structural_hash(&self) -> u64 {
        use std::hash::Hasher;
        // DefaultHasher::new() uses fixed keys, so hashes are deterministic
        // within a build — all the prefilter needs.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash_structure(&mut h);
        h.finish()
    }

    fn hash_structure(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        match self {
            TraceNode::Event(e) => {
                0u8.hash(h);
                e.stack_sig.hash(h);
                e.op.hash(h);
            }
            TraceNode::Loop { iters, body } => {
                1u8.hash(h);
                iters.hash(h);
                body.len().hash(h);
                for n in body {
                    n.hash_structure(h);
                }
            }
        }
    }
}

/// A PRSD-compressed event trace with online tail compression.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompressedTrace {
    nodes: Vec<TraceNode>,
}

impl CompressedTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Construct directly from nodes (deserialization, merging).
    pub fn from_nodes(nodes: Vec<TraceNode>) -> Self {
        CompressedTrace { nodes }
    }

    /// Consume the trace, yielding its top-level nodes. Lets the merge fold
    /// matched nodes into the accumulator's buffers instead of cloning.
    pub fn into_nodes(self) -> Vec<TraceNode> {
        self.nodes
    }

    /// Top-level node sequence.
    pub fn nodes(&self) -> &[TraceNode] {
        &self.nodes
    }

    /// Mutable top-level node sequence (used by the inter-node merge).
    pub fn nodes_mut(&mut self) -> &mut Vec<TraceNode> {
        &mut self.nodes
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Append one event and re-compress the tail to a fixpoint. This is the
    /// *online intra-node compression*: the trace never exists in
    /// uncompressed form.
    pub fn append(&mut self, ev: EventRecord) {
        self.nodes.push(TraceNode::Event(ev));
        while self.try_fold_tail() {}
    }

    /// One folding step. Returns true if the tail shrank.
    ///
    /// Windows are tried shortest first, and for each window case A before
    /// case B. Every candidate is first tested on the node just appended:
    /// in all but the rarest tails it is the one that fails to match, so a
    /// step that folds nothing costs one `matches` per window instead of a
    /// walk down each window from its oldest node.
    fn try_fold_tail(&mut self) -> bool {
        let n = self.nodes.len();
        for w in 1..=MAX_WINDOW.min(n.saturating_sub(1)) {
            let newest = &self.nodes[n - 1];
            // Case A: the node right before the tail window is a loop whose
            // body matches the window — one more iteration of it.
            if let TraceNode::Loop { body, .. } = &self.nodes[n - w - 1] {
                if body.len() == w
                    && body[w - 1].matches(newest)
                    && body
                        .iter()
                        .zip(&self.nodes[n - w..n - 1])
                        .all(|(b, t)| b.matches(t))
                {
                    let (head, tail) = self.nodes.split_at_mut(n - w);
                    if let Some(TraceNode::Loop { iters, body }) = head.last_mut() {
                        for (b, t) in body.iter_mut().zip(tail.iter()) {
                            b.absorb(t);
                        }
                        *iters += 1;
                    }
                    self.nodes.truncate(n - w);
                    return true;
                }
            }
            // Case B: the tail window repeats the window right before it —
            // fold both into a fresh 2-iteration loop.
            if n >= 2 * w {
                let (first, second) = (n - 2 * w, n - w);
                if self.nodes[second - 1].matches(newest)
                    && (0..w - 1).all(|i| self.nodes[first + i].matches(&self.nodes[second + i]))
                {
                    let (head, tail) = self.nodes.split_at_mut(second);
                    for (b, t) in head[first..].iter_mut().zip(tail.iter()) {
                        b.absorb(t);
                    }
                    self.nodes.truncate(second);
                    let body: Vec<TraceNode> = self.nodes.drain(first..).collect();
                    self.nodes.push(TraceNode::Loop { iters: 2, body });
                    return true;
                }
            }
        }
        false
    }

    /// Compressed size *n* (total nodes, the paper's complexity parameter).
    pub fn compressed_size(&self) -> usize {
        self.nodes.iter().map(|n| n.compressed_size()).sum()
    }

    /// Dynamic event-instance count represented by the trace.
    pub fn dynamic_size(&self) -> u64 {
        self.nodes.iter().map(|n| n.dynamic_size()).sum()
    }

    /// Approximate allocation footprint in bytes (Table IV).
    pub fn byte_size(&self) -> usize {
        32 + self.nodes.iter().map(|n| n.byte_size()).sum::<usize>()
    }

    /// Visit every compressed (leaf) event once.
    pub fn visit_events<'a>(&'a self, f: &mut impl FnMut(&'a EventRecord)) {
        for n in &self.nodes {
            n.visit_events(f);
        }
    }

    /// Visit every compressed event mutably (ranklist substitution).
    pub fn visit_events_mut(&mut self, f: &mut impl FnMut(&mut EventRecord)) {
        for n in &mut self.nodes {
            n.visit_events_mut(f);
        }
    }

    /// Walk in dynamic order, expanding loops (replay).
    pub fn walk(&self, f: &mut impl FnMut(&EventRecord)) {
        for n in &self.nodes {
            n.walk(f);
        }
    }

    /// Append one already-compressed node and re-fold the tail. This is how
    /// rank 0 grows the *online* trace: successive phase traces arrive as
    /// node sequences, and repeated phases fold into loops exactly as if
    /// the whole run had been compressed at finalize.
    pub fn append_node(&mut self, node: TraceNode) {
        self.nodes.push(node);
        while self.try_fold_tail() {}
    }

    /// Absorb another trace node-by-node with tail folding — the online
    /// trace's incremental growth (paper: "The online trace incrementally
    /// expands to an equivalent output of MPI_Finalize in the original
    /// ScalaTrace").
    pub fn absorb_trace(&mut self, other: &CompressedTrace) {
        for node in other.nodes() {
            self.append_node(node.clone());
        }
    }

    /// Remove all content (paper, Algorithm 3 step 6: "all processes start
    /// over by removing their partial intra-node trace").
    pub fn clear(&mut self) {
        self.nodes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Endpoint, MpiOp, OpKind};
    use mpisim::Comm;
    use sigkit::StackSig;

    fn ev(sig: u64) -> EventRecord {
        EventRecord::new(
            MpiOp::send(Endpoint::Relative(1), 0, 8, Comm::WORLD),
            StackSig(sig),
            0,
            1.0,
        )
    }

    fn barrier_ev(sig: u64) -> EventRecord {
        EventRecord::new(MpiOp::barrier(Comm::WORLD), StackSig(sig), 0, 1.0)
    }

    #[test]
    fn single_event_no_fold() {
        let mut t = CompressedTrace::new();
        t.append(ev(1));
        assert_eq!(t.compressed_size(), 1);
        assert_eq!(t.dynamic_size(), 1);
    }

    #[test]
    fn repeated_event_folds_to_loop() {
        let mut t = CompressedTrace::new();
        for _ in 0..100 {
            t.append(ev(1));
        }
        assert_eq!(t.nodes().len(), 1);
        match &t.nodes()[0] {
            TraceNode::Loop { iters, body } => {
                assert_eq!(*iters, 100);
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected loop, got {other:?}"),
        }
        assert_eq!(t.dynamic_size(), 100);
    }

    #[test]
    fn alternating_pair_folds() {
        // send(1), recv(2) repeated: the paper's RSD1 = <100, Send, Recv>.
        let mut t = CompressedTrace::new();
        for _ in 0..100 {
            t.append(ev(1));
            t.append(ev(2));
        }
        assert_eq!(t.nodes().len(), 1);
        match &t.nodes()[0] {
            TraceNode::Loop { iters, body } => {
                assert_eq!(*iters, 100);
                assert_eq!(body.len(), 2);
            }
            other => panic!("expected loop, got {other:?}"),
        }
        assert_eq!(t.dynamic_size(), 200);
        // All 100 instances of each site aggregated into one record.
        let mut counts = Vec::new();
        t.visit_events(&mut |e| counts.push(e.pre_time.count()));
        assert_eq!(counts, vec![100, 100]);
    }

    #[test]
    fn paper_nested_example_forms_prsd() {
        // for 1000 { for 100 { send; recv } barrier } — must compress to
        // PRSD <1000, <100, send, recv>, barrier> with 3 distinct sites.
        let mut t = CompressedTrace::new();
        let outer = 50; // scaled down for test speed; structure identical
        let inner = 20;
        for _ in 0..outer {
            for _ in 0..inner {
                t.append(ev(1));
                t.append(ev(2));
            }
            t.append(barrier_ev(3));
        }
        assert_eq!(t.nodes().len(), 1, "single top-level PRSD: {t:?}");
        match &t.nodes()[0] {
            TraceNode::Loop { iters, body } => {
                assert_eq!(*iters, outer);
                assert_eq!(body.len(), 2, "inner loop + barrier");
                match &body[0] {
                    TraceNode::Loop { iters, body } => {
                        assert_eq!(*iters, inner);
                        assert_eq!(body.len(), 2);
                    }
                    other => panic!("expected inner RSD, got {other:?}"),
                }
            }
            other => panic!("expected PRSD, got {other:?}"),
        }
        assert_eq!(t.compressed_size(), 5, "2 loop headers + 3 events");
        assert_eq!(t.dynamic_size(), outer * (inner * 2 + 1));
    }

    #[test]
    fn distinct_sites_do_not_fold() {
        let mut t = CompressedTrace::new();
        for i in 0..10 {
            t.append(ev(i));
        }
        assert_eq!(t.nodes().len(), 10);
        assert_eq!(t.compressed_size(), 10);
    }

    #[test]
    fn walk_expands_dynamic_order() {
        let mut t = CompressedTrace::new();
        for _ in 0..3 {
            t.append(ev(1));
            t.append(ev(2));
        }
        let mut seq = Vec::new();
        t.walk(&mut |e| seq.push(e.stack_sig.0));
        assert_eq!(seq, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn near_constant_size_regardless_of_iterations() {
        let size_for = |iters: usize| {
            let mut t = CompressedTrace::new();
            for _ in 0..iters {
                t.append(ev(1));
                t.append(ev(2));
                t.append(barrier_ev(3));
            }
            t.byte_size()
        };
        let small = size_for(10);
        let large = size_for(10_000);
        assert_eq!(
            small, large,
            "compressed size must not grow with iteration count"
        );
    }

    #[test]
    fn clear_empties() {
        let mut t = CompressedTrace::new();
        t.append(ev(1));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.byte_size(), 32, "only the container header remains");
    }

    #[test]
    fn time_stats_preserved_through_folding() {
        // Total pre-time must equal the sum over all dynamic instances even
        // after aggressive folding.
        let mut t = CompressedTrace::new();
        for _ in 0..50 {
            t.append(ev(1)); // each instance carries pre_time 1.0
        }
        let mut total = 0.0;
        t.visit_events(&mut |e| total += e.pre_time.total());
        assert!((total - 50.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_trace_folds_repeated_phases() {
        // Two identical phase traces absorbed sequentially fold into a
        // 2-iteration loop — the online-trace growth property.
        let phase = {
            let mut t = CompressedTrace::new();
            t.append(ev(1));
            t.append(ev(2));
            t
        };
        let mut online = CompressedTrace::new();
        online.absorb_trace(&phase);
        online.absorb_trace(&phase);
        assert_eq!(online.nodes().len(), 1);
        match &online.nodes()[0] {
            TraceNode::Loop { iters, body } => {
                assert_eq!(*iters, 2);
                assert_eq!(body.len(), 2);
            }
            other => panic!("expected folded loop, got {other:?}"),
        }
        assert_eq!(online.dynamic_size(), 4);
    }

    #[test]
    fn absorb_trace_distinct_phases_concatenate() {
        let mut a = CompressedTrace::new();
        a.append(ev(1));
        let mut b = CompressedTrace::new();
        b.append(ev(9));
        let mut online = CompressedTrace::new();
        online.absorb_trace(&a);
        online.absorb_trace(&b);
        assert_eq!(online.nodes().len(), 2);
    }

    #[test]
    fn irregular_iteration_counts_do_not_merge() {
        // Two "inner loops" with different trip counts stay distinct —
        // matching requires equal iteration counts (the POP case the paper
        // discusses: data-dependent convergence produces irregular traces).
        let mut t = CompressedTrace::new();
        for _ in 0..5 {
            t.append(ev(1));
        }
        t.append(barrier_ev(9));
        for _ in 0..7 {
            t.append(ev(1));
        }
        t.append(barrier_ev(9));
        // Top level cannot fold into a single loop: bodies differ (5 vs 7).
        assert!(t.nodes().len() > 1);
        assert_eq!(t.dynamic_size(), 5 + 1 + 7 + 1);
    }

    #[test]
    fn send_with_different_offsets_distinct() {
        let mk = |off| {
            EventRecord::new(
                MpiOp::send(Endpoint::Relative(off), 0, 8, Comm::WORLD),
                StackSig(1),
                0,
                0.0,
            )
        };
        let mut t = CompressedTrace::new();
        t.append(mk(1));
        t.append(mk(-1));
        t.append(mk(1));
        t.append(mk(-1));
        // Folds as a loop over the *pair*, not over identical single sends.
        assert_eq!(t.nodes().len(), 1);
        match &t.nodes()[0] {
            TraceNode::Loop { iters, body } => {
                assert_eq!(*iters, 2);
                assert_eq!(body.len(), 2);
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn op_kind_differs_no_fold() {
        let send = ev(1);
        let recv = EventRecord::new(
            MpiOp::recv(Endpoint::Relative(-1), 0, 8, Comm::WORLD),
            StackSig(1), // same signature, different op
            0,
            0.0,
        );
        assert_eq!(send.op.kind, OpKind::Send);
        let mut t = CompressedTrace::new();
        t.append(send);
        t.append(recv);
        assert_eq!(t.nodes().len(), 2);
    }
}

#[cfg(test)]
mod reference {
    //! The tail fold as it was: each window compared from its oldest node,
    //! and case B's fold through two drained `Vec`s. The tests hold
    //! [`CompressedTrace::append`] and [`CompressedTrace::append_node`] to
    //! the traces this builds.
    use super::*;

    pub(super) fn append_node(trace: &mut CompressedTrace, node: TraceNode) {
        trace.nodes.push(node);
        while try_fold_tail(&mut trace.nodes) {}
    }

    fn try_fold_tail(nodes: &mut Vec<TraceNode>) -> bool {
        let n = nodes.len();
        for w in 1..=MAX_WINDOW {
            if n > w {
                let (head, tail) = nodes.split_at_mut(n - w);
                if let Some(TraceNode::Loop { iters, body }) = head.last_mut() {
                    if body.len() == w && body.iter().zip(tail.iter()).all(|(b, t)| b.matches(t)) {
                        for (b, t) in body.iter_mut().zip(tail.iter()) {
                            b.absorb(t);
                        }
                        *iters += 1;
                        nodes.truncate(n - w);
                        return true;
                    }
                }
            }
            if n >= 2 * w {
                let (first, second) = (n - 2 * w, n - w);
                let windows_match = (0..w).all(|i| nodes[first + i].matches(&nodes[second + i]));
                if windows_match {
                    let tail: Vec<TraceNode> = nodes.drain(second..).collect();
                    let mut body: Vec<TraceNode> = nodes.drain(first..).collect();
                    for (b, t) in body.iter_mut().zip(tail.iter()) {
                        b.absorb(t);
                    }
                    nodes.push(TraceNode::Loop { iters: 2, body });
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::op::{Endpoint, MpiOp};
    use mpisim::Comm;
    use sigkit::StackSig;
    use xrand::Xoshiro256;

    fn ev(sig: u64) -> EventRecord {
        EventRecord::new(
            MpiOp::send(Endpoint::Relative(1), 0, 8, Comm::WORLD),
            StackSig(sig),
            0,
            1.0,
        )
    }

    fn random_sigs(rng: &mut Xoshiro256, max_len: usize, alphabet: u64) -> Vec<u64> {
        (0..rng.usize_below(max_len))
            .map(|_| rng.below(alphabet))
            .collect()
    }

    /// Compression is lossless w.r.t. the dynamic event sequence: the
    /// walk of the compressed trace replays the original site sequence.
    #[test]
    fn lossless_site_sequence() {
        let mut rng = Xoshiro256::seed_from_u64(0x105E);
        for _case in 0..128 {
            let sigs = random_sigs(&mut rng, 200, 6);
            let mut t = CompressedTrace::new();
            for &s in &sigs {
                t.append(ev(s));
            }
            let mut replayed = Vec::new();
            t.walk(&mut |e| replayed.push(e.stack_sig.0));
            assert_eq!(replayed, sigs);
        }
    }

    /// Dynamic size always equals the number of appended events.
    #[test]
    fn dynamic_size_exact() {
        let mut rng = Xoshiro256::seed_from_u64(0xD15E);
        for _case in 0..128 {
            let sigs = random_sigs(&mut rng, 300, 4);
            let mut t = CompressedTrace::new();
            for &s in &sigs {
                t.append(ev(s));
            }
            assert_eq!(t.dynamic_size(), sigs.len() as u64);
        }
    }

    /// Total pre-time is preserved by folding.
    #[test]
    fn time_mass_preserved() {
        let mut rng = Xoshiro256::seed_from_u64(0x71EE);
        for _case in 0..128 {
            let sigs = random_sigs(&mut rng, 200, 4);
            let mut t = CompressedTrace::new();
            for &s in &sigs {
                t.append(ev(s)); // each carries pre_time 1.0
            }
            let mut total = 0.0;
            t.visit_events(&mut |e| total += e.pre_time.total());
            assert!((total - sigs.len() as f64).abs() < 1e-6);
        }
    }

    /// Compressed size never exceeds the dynamic size, and for periodic
    /// inputs it is dramatically smaller.
    #[test]
    fn compression_bounded() {
        let mut rng = Xoshiro256::seed_from_u64(0xB0DE);
        for _case in 0..128 {
            let period = rng.range_usize(1, 5);
            let reps = rng.range_usize(2, 50);
            let mut t = CompressedTrace::new();
            for _ in 0..reps {
                for s in 0..period as u64 {
                    t.append(ev(s));
                }
            }
            assert!(t.compressed_size() as u64 <= t.dynamic_size());
            // Periodic stream folds into ~1 loop: loop header + period events.
            assert!(
                t.compressed_size() <= period + 2,
                "period {period} reps {reps} -> compressed {}",
                t.compressed_size()
            );
        }
    }

    /// An event of site `sig` on `rank`. Sites are sends to `sig % 3 - 1`,
    /// so equal sites need equal signatures and offsets; rank and time are
    /// payload that the fold aggregates.
    fn site(sig: u64, rank: usize, dt: f64) -> EventRecord {
        EventRecord::new(
            MpiOp::send(Endpoint::Relative(sig as i64 % 3 - 1), 0, 8, Comm::WORLD),
            StackSig(sig),
            rank,
            dt,
        )
    }

    /// Append `sigs` to a trace through `append` and through the fold as
    /// it was; the two traces must be equal, payload included.
    fn assert_folds_like_reference(sigs: &[u64], rng: &mut Xoshiro256, what: &str) {
        let mut fast = CompressedTrace::new();
        let mut slow = CompressedTrace::new();
        for &s in sigs {
            let e = site(s, rng.usize_below(64), rng.f64_unit());
            super::reference::append_node(&mut slow, TraceNode::Event(e.clone()));
            fast.append(e);
        }
        assert_eq!(fast, slow, "{what}: {sigs:?}");
    }

    /// The newest-first tail fold builds the traces the fold as it was
    /// built, on periodic, nested, irregular and EMF-like streams and on
    /// bodies either side of `MAX_WINDOW`.
    #[test]
    fn append_agrees_with_the_reference_fold() {
        let mut rng = Xoshiro256::seed_from_u64(0xF01D);
        // Periodic, with periods either side of the window bound.
        for period in (1..=12).chain([31, 32, 33]) {
            let reps = rng.range_usize(2, 6);
            let sigs: Vec<u64> = (0..reps).flat_map(|_| 0..period as u64).collect();
            assert_folds_like_reference(&sigs, &mut rng, "periodic");
        }
        // Nested: an inner loop of `inner` repetitions, then a barrier-like
        // site, repeated; inner trip counts sometimes vary.
        for _ in 0..64 {
            let body = rng.range_usize(1, 4) as u64;
            let mut sigs = Vec::new();
            for _ in 0..rng.range_usize(2, 8) {
                let inner = if rng.gen_bool(0.2) { 3 } else { 4 };
                for _ in 0..inner {
                    sigs.extend(0..body);
                }
                sigs.push(99);
            }
            assert_folds_like_reference(&sigs, &mut rng, "nested");
        }
        // Irregular: random sites from small alphabets.
        for _ in 0..128 {
            let alphabet = rng.range_u64(2, 8);
            let sigs: Vec<u64> = (0..rng.usize_below(300))
                .map(|_| rng.below(alphabet))
                .collect();
            assert_folds_like_reference(&sigs, &mut rng, "irregular");
        }
        // EMF-like rounds: 2(P-1) distinct events per round (a send and a
        // receive per peer), repeated; P = 17 gives a 32-node body.
        for p in [4u64, 8, 16, 17, 18] {
            let round: Vec<u64> = (1..p).flat_map(|i| [2 * i, 2 * i + 1]).collect();
            let sigs: Vec<u64> = (0..rng.range_usize(2, 5))
                .flat_map(|_| round.clone())
                .collect();
            assert_folds_like_reference(&sigs, &mut rng, "emf-like");
        }
        // Bodies of 31, 32 and 33 nodes around an inner loop.
        for len in [31u64, 32, 33] {
            let mut sigs = Vec::new();
            for _ in 0..3 {
                sigs.extend([7, 7, 7]);
                sigs.extend(100..100 + len - 1);
            }
            assert_folds_like_reference(&sigs, &mut rng, "window edge");
        }
    }

    /// Phases absorbed node by node (Chameleon's online trace) fold like
    /// the reference too: loops meet loops in the window.
    #[test]
    fn append_node_agrees_with_the_reference_fold() {
        let mut rng = Xoshiro256::seed_from_u64(0xAB50);
        for _ in 0..64 {
            let phases: Vec<CompressedTrace> = (0..3)
                .map(|_| {
                    let mut t = CompressedTrace::new();
                    let sigs = random_sigs(&mut rng, 40, 3);
                    for &s in &sigs {
                        t.append(site(s, rng.usize_below(64), rng.f64_unit()));
                    }
                    t
                })
                .collect();
            let mut fast = CompressedTrace::new();
            let mut slow = CompressedTrace::new();
            for _ in 0..rng.range_usize(1, 12) {
                let phase = &phases[rng.usize_below(phases.len())];
                fast.absorb_trace(phase);
                for node in phase.nodes() {
                    super::reference::append_node(&mut slow, node.clone());
                }
            }
            assert_eq!(fast, slow);
        }
    }
}
