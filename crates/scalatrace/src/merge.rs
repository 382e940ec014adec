//! Inter-node compression: structural merging of compressed traces.
//!
//! ScalaTrace consolidates per-rank traces into one global trace by
//! pairwise merging along a reduction tree: "internal nodes combine their
//! traces with other task-level traces that they receive from child nodes"
//! (paper §I). The pairwise step aligns two PRSD streams, merging nodes
//! that represent the same call sites (unioning their ranklists and time
//! statistics) and interleaving the rest in order. Alignment is a longest
//! common subsequence over top-level nodes — the O(n²) factor in the
//! paper's O(n² log P) inter-node compression cost, which is precisely the
//! bottleneck Chameleon attacks by shrinking P to K.
//!
//! In SPMD codes the per-rank traces are structurally near-identical, so
//! the merged trace stays near-constant size: matched nodes collapse into
//! one with a wider ranklist.
//!
//! # The canonical merge order
//!
//! Both implementations here produce the *same* output, defined by one
//! canonical alignment:
//!
//! 1. orient so the x side is the longer input (ties keep argument order);
//! 2. greedily fold the common prefix, then the common suffix — structural
//!    matching is an equivalence relation, so trimming never loses LCS
//!    optimality;
//! 3. align the remaining middles by LCS, walking the (suffix-)table with
//!    the leftmost tie-break: advance x whenever that preserves
//!    optimality, else fold a structural match (always optimal at a match
//!    corner), else advance y.
//!
//! [`merge_traces_reference`] realizes this with the full quadratic LCS
//! table and is kept as the differential-testing oracle. The fast path
//! ([`merge_traces`], [`merge_into`]) reproduces the identical alignment
//! with a Hirschberg-style divide-and-conquer that only ever materializes
//! O(min(n, m)) DP cells at a time: split x in half, score the halves with
//! a forward and a backward row, cut y at the *smallest* column maximizing
//! the combined score (which is exactly where the leftmost table walk
//! crosses the split row), and recurse. When trimming consumes everything
//! — the SPMD common case — no aligner runs at all.
//!
//! # The merge kernel
//!
//! The trim compares diagonal pairs with [`TraceNode::matches`] directly:
//! each pair is looked at once, so a hash would only be a second walk of
//! the node. What the trim leaves — the two *middles* — is interned once
//! per merge: every top-level node of either middle gets a dense class id
//! (structural hash → bucket → exact `matches` against the class
//! representative), so that equal id ⇔ `matches`, hash collisions
//! included. From there the aligner never touches a node again.
//!
//! The score rows are bit vectors, one bit per column of the y-slice, 64
//! columns per word, advanced by the bit-parallel LCS recurrence
//! `U = V & M; V = (V + U) | (V & !M)` with the carry running across
//! words. `M` is the match mask of the row's x-symbol over the y-slice;
//! masks are built per row pass, only for classes both slices hold, and an
//! x-symbol the slice lacks skips its row outright — on disjoint inputs,
//! which is what Chameleon's K lead traces are by construction, every row
//! is skipped. A decoded row is the running count of zero bits. All
//! scratch belongs to the one merge and is dropped with it.
//!
//! [`MergeMetrics::dp_cells`] counts the LCS cells each row pass *covers*,
//! `(x1 − x0)·(y1 − y0)` per split, not the word-ops spent on them: it is
//! the quantity `mpisim::WorkModel::merge_measured` charges the modeled
//! tool clock for, so every journal, golden and matrix baseline depends on
//! its exact value, and the recursion — the same splits in the same order
//! — fixes it. The oracle stays scalar and stays on `hash && matches`: it
//! shares nothing with the kernel but the trim, so a differential failure
//! cannot be a bug both sides have.

use std::collections::HashMap;

use crate::trace::{CompressedTrace, TraceNode};

/// Counters describing how one pairwise merge executed. Returned by
/// [`merge_traces_with_metrics`] and [`merge_into`]; the reduction layer
/// aggregates them into per-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeMetrics {
    /// The whole alignment was resolved by prefix/suffix folding alone —
    /// the identical-stream (SPMD) case. No DP ran.
    pub fast_path: bool,
    /// Node pairs folded by the common-prefix trim.
    pub prefix_matched: usize,
    /// Node pairs folded by the common-suffix trim.
    pub suffix_matched: usize,
    /// Longer-side middle length handed to the aligner after trimming.
    pub mid_long: usize,
    /// Shorter-side middle length handed to the aligner after trimming.
    pub mid_short: usize,
    /// LCS cells covered (≈ 2·`mid_long`·`mid_short` for the
    /// divide-and-conquer aligner, 64 of them per word-op; the reference
    /// table pays the full product once).
    pub dp_cells: u64,
    /// Largest single decoded DP row, in cells. The fast path rows over
    /// the shorter middle, so this stays ≤ min(n, m) + 1 — the
    /// linear-memory guarantee (asserted by unit test). The reference
    /// oracle reports its full table here.
    pub peak_dp_alloc: usize,
}

/// One step of an alignment plan, in output order. Indices refer to the
/// two original top-level node sequences.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Fold y\[j\] into x\[i\] (structural match).
    Fold(usize, usize),
    /// Emit x\[i\] alone.
    TakeX(usize),
    /// Emit y\[j\] alone.
    TakeY(usize),
}

/// Merge two compressed traces into one that represents the union of
/// their ranks' behavior.
///
/// Matched nodes (same sites, same loop structure) fold together; nodes
/// unique to either input are kept in order. The relative order of events
/// within each input is preserved.
pub fn merge_traces(a: &CompressedTrace, b: &CompressedTrace) -> CompressedTrace {
    merge_traces_with_metrics(a, b).0
}

/// [`merge_traces`] plus execution counters.
pub fn merge_traces_with_metrics(
    a: &CompressedTrace,
    b: &CompressedTrace,
) -> (CompressedTrace, MergeMetrics) {
    let mut met = MergeMetrics::default();
    let steps = plan_merge(a.nodes(), b.nodes(), true, &mut met);
    let nodes = emit_cloned(&steps, a.nodes(), b.nodes());
    (CompressedTrace::from_nodes(nodes), met)
}

/// Buffer-reusing merge: consumes the accumulator and moves its nodes into
/// the output, absorbing matches in place instead of cloning. This is the
/// reduction's hot path — the accumulator (typically the larger side after
/// a few merges) is never deep-copied.
pub fn merge_into(acc: CompressedTrace, b: &CompressedTrace) -> (CompressedTrace, MergeMetrics) {
    let mut met = MergeMetrics::default();
    let steps = plan_merge(acc.nodes(), b.nodes(), true, &mut met);
    let nodes = emit_owned(&steps, acc.into_nodes(), b.nodes());
    (CompressedTrace::from_nodes(nodes), met)
}

/// Reference merge: the same canonical alignment computed with the full
/// quadratic LCS table and an explicit backtrack. Kept as the oracle the
/// fast path is differentially tested against (see
/// `tests/merge_invariants.rs`), and as the cost the complexity-model
/// baselines assume.
pub fn merge_traces_reference(a: &CompressedTrace, b: &CompressedTrace) -> CompressedTrace {
    let mut met = MergeMetrics::default();
    let steps = plan_merge(a.nodes(), b.nodes(), false, &mut met);
    CompressedTrace::from_nodes(emit_cloned(&steps, a.nodes(), b.nodes()))
}

/// Merge many traces left-to-right (the order the reduction tree produces).
pub fn merge_all<'a>(traces: impl IntoIterator<Item = &'a CompressedTrace>) -> CompressedTrace {
    let mut iter = traces.into_iter();
    let mut acc = match iter.next() {
        Some(t) => t.clone(),
        None => return CompressedTrace::new(),
    };
    for t in iter {
        acc = merge_into(acc, t).0;
    }
    acc
}

/// Build the alignment plan for x against y under the canonical merge
/// order. `fast` selects the Hirschberg aligner for the middle; `false`
/// selects the quadratic-memory reference table. Both produce the same
/// plan. Step indices are always in (x, y) space regardless of the
/// internal orientation.
fn plan_merge(x: &[TraceNode], y: &[TraceNode], fast: bool, met: &mut MergeMetrics) -> Vec<Step> {
    if y.len() > x.len() {
        let mut steps = plan_oriented(y, x, fast, met);
        for s in &mut steps {
            *s = match *s {
                Step::Fold(i, j) => Step::Fold(j, i),
                Step::TakeX(i) => Step::TakeY(i),
                Step::TakeY(j) => Step::TakeX(j),
            };
        }
        steps
    } else {
        plan_oriented(x, y, fast, met)
    }
}

/// Plan with the orientation fixed: `y` is the shorter (or equal) side, so
/// every DP row below is sized by a slice of `y`.
fn plan_oriented(
    x: &[TraceNode],
    y: &[TraceNode],
    fast: bool,
    met: &mut MergeMetrics,
) -> Vec<Step> {
    debug_assert!(y.len() <= x.len());
    let mut steps = Vec::with_capacity(x.len() + y.len());
    // Common-prefix trim. A diagonal pair is compared once, so hashing it
    // first would only add a second walk of the node.
    let mut lo = 0;
    while lo < y.len() && x[lo].matches(&y[lo]) {
        steps.push(Step::Fold(lo, lo));
        lo += 1;
    }
    // Common-suffix trim (never crossing the prefix).
    let (mut xhi, mut yhi) = (x.len(), y.len());
    while xhi > lo && yhi > lo && x[xhi - 1].matches(&y[yhi - 1]) {
        xhi -= 1;
        yhi -= 1;
    }
    met.prefix_matched = lo;
    met.suffix_matched = y.len() - yhi;
    met.mid_long = xhi - lo;
    met.mid_short = yhi - lo;

    // Both middles start at `lo`; the aligners index them from zero.
    let (xm, ym) = (&x[lo..xhi], &y[lo..yhi]);
    if xm.is_empty() {
        // Trimming consumed everything: structurally identical streams.
        met.fast_path = true;
    } else if ym.is_empty() {
        steps.extend((lo..xhi).map(Step::TakeX));
    } else if fast {
        Aligner::new(xm, ym, lo, &mut steps, met).hirschberg((0, xm.len()), (0, ym.len()));
    } else {
        reference_table(xm, ym, lo, &mut steps, met);
    }

    for t in 0..(x.len() - xhi) {
        steps.push(Step::Fold(xhi + t, yhi + t));
    }
    steps
}

/// Canonical alignment of the middles via the full suffix-LCS table.
/// dp\[i\]\[j\] = LCS(x\[i..\], y\[j..\]); the forward walk prefers
/// x-advance whenever dp\[i+1\]\[j\] == dp\[i\]\[j\] (it preserves
/// optimality), else folds a match (always optimal at a match corner by
/// the LCS corner lemma), else advances y. `off` is where both middles
/// start in their streams.
fn reference_table(
    x: &[TraceNode],
    y: &[TraceNode],
    off: usize,
    steps: &mut Vec<Step>,
    met: &mut MergeMetrics,
) {
    let (n, m) = (x.len(), y.len());
    let hashes = |nodes: &[TraceNode]| -> Vec<u64> {
        nodes.iter().map(TraceNode::structural_hash).collect()
    };
    let (hx, hy) = (hashes(x), hashes(y));
    let eq = |i: usize, j: usize| hx[i] == hy[j] && x[i].matches(&y[j]);
    let w = m + 1;
    let mut dp = vec![0u32; (n + 1) * w];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[i * w + j] = if eq(i, j) {
                dp[(i + 1) * w + j + 1] + 1
            } else {
                dp[(i + 1) * w + j].max(dp[i * w + j + 1])
            };
        }
    }
    met.dp_cells += (n as u64) * (m as u64);
    met.peak_dp_alloc = met.peak_dp_alloc.max((n + 1) * w);

    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if dp[(i + 1) * w + j] == dp[i * w + j] {
            steps.push(Step::TakeX(off + i));
            i += 1;
        } else if eq(i, j) {
            steps.push(Step::Fold(off + i, off + j));
            i += 1;
            j += 1;
        } else {
            steps.push(Step::TakeY(off + j));
            j += 1;
        }
    }
    steps.extend((i..n).map(|i| Step::TakeX(off + i)));
    steps.extend((j..m).map(|j| Step::TakeY(off + j)));
}

/// "No class" / "no mask slot".
const NONE: u32 = u32::MAX;
/// Row-pass marker in [`RowScratch::slot`]: an x row will ask for this
/// class's mask, should the y-slice turn out to hold the class.
const WANTED: u32 = u32::MAX - 1;

/// Intern the top-level nodes of both middles into dense class ids such
/// that two nodes get the same id exactly when they [`TraceNode::matches`].
/// `hash` only has to send matching nodes to the same value: it picks the
/// bucket, and the exact comparison against each class representative in
/// the bucket decides — a collision costs a comparison, never a wrong
/// class. Returns the ids of `x`, the ids of `y` and the class count.
fn intern(
    x: &[TraceNode],
    y: &[TraceNode],
    hash: impl Fn(&TraceNode) -> u64,
) -> (Vec<u32>, Vec<u32>, usize) {
    // Class id → (representative, next class whose representative has the
    // same hash); `first` maps a hash to the head of that chain.
    let mut classes: Vec<(&TraceNode, u32)> = Vec::new();
    let mut first: HashMap<u64, u32> = HashMap::with_capacity(x.len() + y.len());
    let mut class_of = |node| {
        let fresh = classes.len() as u32;
        let mut id = *first.entry(hash(node)).or_insert(fresh);
        while id != fresh {
            let (rep, next) = &mut classes[id as usize];
            if rep.matches(node) {
                return id;
            }
            if *next == NONE {
                *next = fresh;
            }
            id = *next;
        }
        classes.push((node, NONE));
        fresh
    };
    let xs = x.iter().map(&mut class_of).collect();
    let ys = y.iter().map(&mut class_of).collect();
    (xs, ys, classes.len())
}

/// Buffers one LCS row pass works in, reused by every pass of a merge.
struct RowScratch {
    /// Class id → that class's mask slot for the y-slice of the running
    /// pass; all [`NONE`] between passes.
    slot: Vec<u32>,
    /// Slot-major match masks: bit t of slot s is set when the y-slice
    /// holds the slot's class at position t.
    masks: Vec<u64>,
    /// The row itself as a bit vector, one bit per column.
    v: Vec<u64>,
}

impl RowScratch {
    /// Score x against every prefix of y: fills `out` with
    /// `out[k] = LCS(x, y[..k])` for k in 0..=y.len(). Both sequences come
    /// as iterators so that the backward row is this same pass over
    /// reversed slices.
    ///
    /// Bit-vector LCS (Crochemore et al. / Hyyrö): column t of the row is
    /// the t-th bit of `v`, a zero bit where the score steps up, so one
    /// word-op advances 64 cells and `out[k]` is the number of zero bits
    /// below k. A bit only depends on lower bits (the carry runs upward),
    /// which is why one pass over all of y scores every prefix at once.
    fn lcs_row(
        &mut self,
        x: impl Iterator<Item = u32> + Clone,
        y: impl ExactSizeIterator<Item = u32>,
        out: &mut Vec<u32>,
    ) {
        let m = y.len();
        let words = m.div_ceil(64);
        // Masks only for classes on both sides: a class no x row asks for
        // needs no mask, and an x row whose class the slice lacks leaves
        // the row as it is (M = 0 gives V' = V) and is skipped outright.
        for c in x.clone() {
            self.slot[c as usize] = WANTED;
        }
        self.masks.clear();
        for (t, c) in y.enumerate() {
            let slot = &mut self.slot[c as usize];
            if *slot == NONE {
                continue;
            }
            if *slot == WANTED {
                *slot = (self.masks.len() / words) as u32;
                self.masks.resize(self.masks.len() + words, 0);
            }
            self.masks[*slot as usize * words + t / 64] |= 1 << (t % 64);
        }
        self.v.clear();
        self.v.resize(words, !0);
        for c in x.clone() {
            let slot = self.slot[c as usize] as usize;
            if slot >= WANTED as usize {
                continue;
            }
            // U = V & M; V' = (V + U) | (V & !M), the carry crossing words.
            let mut carry = false;
            for (v, &m) in self.v.iter_mut().zip(&self.masks[slot * words..]) {
                let (sum, c1) = v.overflowing_add(*v & m);
                let (sum, c2) = sum.overflowing_add(carry as u64);
                carry = c1 | c2;
                *v = sum | (*v & !m);
            }
        }
        for c in x {
            self.slot[c as usize] = NONE;
        }
        out.clear();
        out.push(0);
        let mut score = 0;
        for t in 0..m {
            score += (!self.v[t / 64] >> (t % 64)) as u32 & 1;
            out.push(score);
        }
    }
}

/// Canonical alignment of the middles in O(min(n, m)) DP cells at a time:
/// Hirschberg's divide-and-conquer over interned class ids, with the split
/// column chosen as the *smallest* maximizer, which reproduces the
/// reference walk's leftmost path exactly. Lives for one merge; nothing
/// outlasts it.
struct Aligner<'a> {
    /// Class ids of the two middles.
    xs: Vec<u32>,
    ys: Vec<u32>,
    /// Where both middles start in their streams.
    off: usize,
    rows: RowScratch,
    /// The decoded forward and backward rows of the current split.
    f: Vec<u32>,
    b: Vec<u32>,
    steps: &'a mut Vec<Step>,
    met: &'a mut MergeMetrics,
}

impl<'a> Aligner<'a> {
    fn new(
        x: &[TraceNode],
        y: &[TraceNode],
        off: usize,
        steps: &'a mut Vec<Step>,
        met: &'a mut MergeMetrics,
    ) -> Self {
        let (xs, ys, classes) = intern(x, y, TraceNode::structural_hash);
        Aligner {
            xs,
            ys,
            off,
            rows: RowScratch {
                slot: vec![NONE; classes],
                masks: Vec::new(),
                v: Vec::new(),
            },
            f: Vec::new(),
            b: Vec::new(),
            steps,
            met,
        }
    }

    /// Align x\[x0..x1\] against y\[y0..y1\] (indices into the middles).
    fn hirschberg(&mut self, (x0, x1): (usize, usize), (y0, y1): (usize, usize)) {
        let off = self.off;
        let n = x1 - x0;
        let m = y1 - y0;
        if n == 0 {
            self.steps.extend((y0..y1).map(|j| Step::TakeY(off + j)));
            return;
        }
        if m == 0 {
            self.steps.extend((x0..x1).map(|i| Step::TakeX(off + i)));
            return;
        }
        if n == 1 {
            // Single x node: the canonical walk folds it into the *first*
            // structural match in y, or emits it before all of y if none.
            let hit = (y0..y1).find(|&j| self.ys[j] == self.xs[x0]);
            if hit.is_none() {
                self.steps.push(Step::TakeX(off + x0));
            }
            self.steps.extend((y0..y1).map(|j| match hit {
                Some(p) if p == j => Step::Fold(off + x0, off + j),
                _ => Step::TakeY(off + j),
            }));
            return;
        }

        let mid = x0 + n / 2;
        // f[t] = LCS(x[x0..mid], y[y0..y0+t]); b[t] = LCS(x[mid..x1],
        // y[y0+t..y1]), held reversed: b[t] is self.b[m - t].
        let (xs, ys) = (&self.xs, &self.ys[y0..y1]);
        self.rows
            .lcs_row(xs[x0..mid].iter().copied(), ys.iter().copied(), &mut self.f);
        self.rows.lcs_row(
            xs[mid..x1].iter().rev().copied(),
            ys.iter().rev().copied(),
            &mut self.b,
        );
        // dp_cells counts the LCS cells a row pass *covers* — what the
        // cost model charges and the journals record — however many of
        // them one word-op settles.
        self.met.dp_cells += (n as u64) * (m as u64);
        self.met.peak_dp_alloc = self.met.peak_dp_alloc.max(m + 1);
        // Smallest cut maximizing the combined score: where the leftmost
        // optimal path enters the split row.
        let mut best_t = 0;
        let mut best = 0u32;
        for (t, (f, b)) in self.f.iter().zip(self.b.iter().rev()).enumerate() {
            if f + b > best {
                best = f + b;
                best_t = t;
            }
        }
        let ymid = y0 + best_t;
        self.hirschberg((x0, mid), (y0, ymid));
        self.hirschberg((mid, x1), (ymid, y1));
    }
}

/// Execute a plan, cloning from both (borrowed) inputs.
fn emit_cloned(steps: &[Step], x: &[TraceNode], y: &[TraceNode]) -> Vec<TraceNode> {
    let mut out = Vec::with_capacity(steps.len());
    for &s in steps {
        match s {
            Step::Fold(i, j) => {
                let mut node = x[i].clone();
                node.absorb(&y[j]);
                out.push(node);
            }
            Step::TakeX(i) => out.push(x[i].clone()),
            Step::TakeY(j) => out.push(y[j].clone()),
        }
    }
    out
}

/// Execute a plan taking x-side nodes by value (no clone of the
/// accumulator side); only y-side nodes are cloned.
fn emit_owned(steps: &[Step], x: Vec<TraceNode>, y: &[TraceNode]) -> Vec<TraceNode> {
    let mut slots: Vec<Option<TraceNode>> = x.into_iter().map(Some).collect();
    let mut out = Vec::with_capacity(steps.len());
    for &s in steps {
        match s {
            Step::Fold(i, j) => {
                let mut node = slots[i].take().expect("plan visits each x node once");
                node.absorb(&y[j]);
                out.push(node);
            }
            Step::TakeX(i) => {
                out.push(slots[i].take().expect("plan visits each x node once"));
            }
            Step::TakeY(j) => out.push(y[j].clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventRecord;
    use crate::op::{Endpoint, MpiOp};
    use crate::ranklist::RankSet;
    use mpisim::Comm;
    use sigkit::StackSig;

    fn ev(sig: u64, rank: usize) -> EventRecord {
        EventRecord::new(
            MpiOp::send(Endpoint::Relative(1), 0, 8, Comm::WORLD),
            StackSig(sig),
            rank,
            1.0,
        )
    }

    fn trace_of(rank: usize, sigs: &[u64]) -> CompressedTrace {
        let mut t = CompressedTrace::new();
        for &s in sigs {
            t.append(ev(s, rank));
        }
        t
    }

    #[test]
    fn identical_traces_collapse() {
        let a = trace_of(0, &[1, 2, 3]);
        let b = trace_of(1, &[1, 2, 3]);
        let m = merge_traces(&a, &b);
        assert_eq!(m.compressed_size(), 3, "same structure folds completely");
        let mut ranks = Vec::new();
        m.visit_events(&mut |e| ranks.push(e.ranks.expand()));
        assert!(ranks.iter().all(|r| r == &vec![0, 1]));
    }

    #[test]
    fn disjoint_traces_concatenate() {
        let a = trace_of(0, &[1, 2]);
        let b = trace_of(1, &[3, 4]);
        let m = merge_traces(&a, &b);
        assert_eq!(m.compressed_size(), 4);
        let mut sigs = Vec::new();
        m.visit_events(&mut |e| sigs.push(e.stack_sig.0));
        assert_eq!(sigs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn partial_overlap_aligns() {
        // Both share the 1,3 backbone; each has a private event between.
        let a = trace_of(0, &[1, 2, 3]);
        let b = trace_of(1, &[1, 9, 3]);
        let m = merge_traces(&a, &b);
        let mut sigs = Vec::new();
        let mut ranks = Vec::new();
        m.visit_events(&mut |e| {
            sigs.push(e.stack_sig.0);
            ranks.push(e.ranks.expand());
        });
        // Backbone events carry both ranks; private events carry one.
        assert_eq!(sigs.len(), 4);
        assert!(sigs.contains(&2) && sigs.contains(&9));
        let idx1 = sigs.iter().position(|&s| s == 1).unwrap();
        let idx3 = sigs.iter().position(|&s| s == 3).unwrap();
        assert_eq!(ranks[idx1], vec![0, 1]);
        assert_eq!(ranks[idx3], vec![0, 1]);
    }

    #[test]
    fn loops_with_same_structure_fold() {
        let a = trace_of(0, &[1, 2, 1, 2, 1, 2]); // Loop{3,[1,2]}
        let b = trace_of(5, &[1, 2, 1, 2, 1, 2]);
        let m = merge_traces(&a, &b);
        assert_eq!(m.nodes().len(), 1);
        match &m.nodes()[0] {
            TraceNode::Loop { iters, body } => {
                assert_eq!(*iters, 3);
                assert_eq!(body.len(), 2);
            }
            other => panic!("expected loop, got {other:?}"),
        }
        let mut ranks = Vec::new();
        m.visit_events(&mut |e| ranks.push(e.ranks.expand()));
        assert!(ranks.iter().all(|r| r == &vec![0, 5]));
    }

    #[test]
    fn loops_with_different_iters_kept_separate() {
        let a = trace_of(0, &[1, 1, 1]); // Loop{3,[1]}
        let b = trace_of(1, &[1, 1, 1, 1, 1]); // Loop{5,[1]}
        let m = merge_traces(&a, &b);
        // Different trip counts cannot fold; both loops survive.
        assert_eq!(m.nodes().len(), 2);
        assert_eq!(m.dynamic_size(), 8);
    }

    #[test]
    fn merge_all_many_ranks_near_constant() {
        // 64 SPMD ranks with identical structure merge into a trace the
        // same size as one rank's — the headline ScalaTrace property.
        let traces: Vec<CompressedTrace> = (0..64).map(|r| trace_of(r, &[1, 2, 1, 2, 3])).collect();
        let single_size = traces[0].compressed_size();
        let m = merge_all(traces.iter());
        assert_eq!(m.compressed_size(), single_size);
        let mut all_ranks = RankSet::empty();
        m.visit_events(&mut |e| all_ranks = all_ranks.union(&e.ranks));
        assert_eq!(all_ranks.len(), 64);
    }

    #[test]
    fn merge_empty_identity() {
        let a = trace_of(0, &[1, 2]);
        let e = CompressedTrace::new();
        assert_eq!(merge_traces(&a, &e), a);
        assert_eq!(merge_traces(&e, &a), a);
        assert_eq!(merge_all(std::iter::empty()), e);
    }

    #[test]
    fn time_mass_additive_across_merge() {
        let a = trace_of(0, &[1, 2]); // total pre-time 2.0
        let b = trace_of(1, &[1, 2]); // total pre-time 2.0
        let m = merge_traces(&a, &b);
        let mut total = 0.0;
        m.visit_events(&mut |e| total += e.pre_time.total());
        assert!((total - 4.0).abs() < 1e-9);
    }

    #[test]
    fn merge_preserves_each_input_order() {
        let a = trace_of(0, &[1, 5, 2]);
        let b = trace_of(1, &[5, 9]);
        let m = merge_traces(&a, &b);
        let mut sigs = Vec::new();
        m.visit_events(&mut |e| sigs.push(e.stack_sig.0));
        // Order of a's events preserved.
        let pos = |v: u64| sigs.iter().position(|&s| s == v).unwrap();
        assert!(pos(1) < pos(5));
        assert!(pos(5) < pos(2));
        // Order of b's events preserved.
        assert!(pos(5) < pos(9));
    }

    #[test]
    fn identical_streams_take_fast_path() {
        let a = trace_of(0, &[1, 2, 1, 2, 3, 4]);
        let b = trace_of(1, &[1, 2, 1, 2, 3, 4]);
        let (m, met) = merge_traces_with_metrics(&a, &b);
        assert!(met.fast_path, "identical streams must skip the DP");
        assert_eq!(met.dp_cells, 0);
        assert_eq!(met.mid_long, 0);
        assert_eq!(m.compressed_size(), a.compressed_size());
    }

    #[test]
    fn dp_memory_linear_in_shorter_input() {
        // A long trace of distinct sites against a short disjoint one:
        // nothing trims, so the aligner sees the full middles — yet every
        // DP buffer must be sized by the *short* side, whichever argument
        // order is used.
        let long: Vec<u64> = (0..300).map(|i| 1000 + 7 * i).collect();
        let short: Vec<u64> = (0..5).map(|i| 10 + i).collect();
        let a = trace_of(0, &long);
        let b = trace_of(1, &short);
        for (p, q) in [(&a, &b), (&b, &a)] {
            let (_, met) = merge_traces_with_metrics(p, q);
            assert!(
                met.peak_dp_alloc <= short.len() + 1,
                "peak DP buffer {} exceeds min-side bound {}",
                met.peak_dp_alloc,
                short.len() + 1
            );
            assert!(met.dp_cells > 0, "this case cannot trim away");
        }
    }

    #[test]
    fn trims_reported_in_metrics() {
        // Shared prefix [1,2], shared suffix [8], disjoint middles.
        let a = trace_of(0, &[1, 2, 30, 31, 8]);
        let b = trace_of(1, &[1, 2, 40, 8]);
        let (_, met) = merge_traces_with_metrics(&a, &b);
        assert_eq!(met.prefix_matched, 2);
        assert_eq!(met.suffix_matched, 1);
        assert_eq!(met.mid_long, 2);
        assert_eq!(met.mid_short, 1);
        assert!(!met.fast_path);
    }

    #[test]
    fn fast_matches_reference_on_repeat_heavy_cases() {
        // Hand-picked shapes that distinguish backtrack tie-break rules.
        let cases: &[(&[u64], &[u64])] = &[
            (&[1, 1], &[1]),
            (&[1], &[1, 1]),
            (&[3, 1], &[1, 3]),
            (&[1, 3], &[3, 1]),
            (&[1, 2, 1, 2], &[2, 1]),
            (&[2, 1], &[1, 2, 1, 2]),
            (&[1, 1, 2, 2], &[2, 2, 1, 1]),
            (&[5, 1, 6], &[7, 1, 8]),
            (&[1, 2, 3, 1, 2, 3], &[3, 2, 1]),
        ];
        for (xs, ys) in cases {
            let a = trace_of(0, xs);
            let b = trace_of(1, ys);
            assert_eq!(
                merge_traces(&a, &b),
                merge_traces_reference(&a, &b),
                "fast/reference diverge on {xs:?} vs {ys:?}"
            );
        }
    }

    #[test]
    fn intern_keeps_colliding_classes_apart() {
        // Every node is forced into one hash bucket: only the exact
        // comparison against the class representatives can tell them
        // apart, and it must.
        let x = trace_of(0, &[1, 2, 2, 2, 1, 7, 3, 3, 9]);
        let y = trace_of(1, &[2, 2, 2, 9, 9, 9, 9, 1, 4]);
        assert!(x
            .nodes()
            .iter()
            .any(|n| matches!(n, TraceNode::Loop { .. })));
        for hash in [|_: &TraceNode| 7u64, TraceNode::structural_hash] {
            let (xs, ys, classes) = intern(x.nodes(), y.nodes(), hash);
            let all: Vec<(&TraceNode, u32)> = x
                .nodes()
                .iter()
                .zip(xs)
                .chain(y.nodes().iter().zip(ys))
                .collect();
            for (p, cp) in &all {
                assert!((*cp as usize) < classes);
                for (q, cq) in &all {
                    assert_eq!(cp == cq, p.matches(q), "{p:?} vs {q:?}");
                }
            }
            let distinct: std::collections::BTreeSet<u32> = all.iter().map(|&(_, c)| c).collect();
            assert_eq!(distinct.len(), classes);
        }
    }

    #[test]
    fn merge_into_equals_merge_traces() {
        let a = trace_of(0, &[1, 5, 2, 2, 7]);
        let b = trace_of(1, &[5, 9, 2, 7, 7]);
        let (by_ref, met1) = merge_traces_with_metrics(&a, &b);
        let (by_move, met2) = merge_into(a.clone(), &b);
        assert_eq!(by_ref, by_move);
        assert_eq!(met1, met2);
    }

    #[test]
    fn structural_hash_agrees_with_matches() {
        let a = trace_of(0, &[1, 2, 1, 2, 9]);
        let b = trace_of(3, &[1, 2, 1, 2, 9]);
        for (na, nb) in a.nodes().iter().zip(b.nodes()) {
            assert!(na.matches(nb));
            assert_eq!(na.structural_hash(), nb.structural_hash());
        }
        // Different sites (almost surely) hash apart.
        let c = trace_of(0, &[4]);
        assert_ne!(
            a.nodes()[0].structural_hash(),
            c.nodes()[0].structural_hash()
        );
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::event::EventRecord;
    use crate::op::{Endpoint, MpiOp};
    use mpisim::Comm;
    use sigkit::StackSig;
    use xrand::Xoshiro256;

    fn trace_of(rank: usize, sigs: &[u64]) -> CompressedTrace {
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

    fn random_sigs(rng: &mut Xoshiro256, alphabet: u64, max_len: usize) -> Vec<u64> {
        let len = rng.usize_below(max_len + 1);
        (0..len).map(|_| rng.below(alphabet)).collect()
    }

    /// The fast Hirschberg path and the full-table reference oracle produce
    /// byte-identical traces, across alphabet densities from "every node
    /// matches" to "nothing repeats". Loop folding in `append` makes these
    /// inputs exercise Loop-vs-Event and Loop-vs-Loop alignment too.
    #[test]
    fn fast_equals_reference() {
        let mut rng = Xoshiro256::seed_from_u64(0xFA57);
        for alphabet in [1, 2, 3, 5, 16] {
            for _case in 0..400 {
                let xs = random_sigs(&mut rng, alphabet, 60);
                let ys = random_sigs(&mut rng, alphabet, 60);
                let a = trace_of(0, &xs);
                let b = trace_of(1, &ys);
                assert_eq!(
                    merge_traces(&a, &b),
                    merge_traces_reference(&a, &b),
                    "divergence: alphabet={alphabet} xs={xs:?} ys={ys:?}"
                );
            }
        }
    }

    /// The merged trace is never larger than the concatenation, and its
    /// dynamic size brackets between max and sum of the inputs'.
    #[test]
    fn merged_size_bounded() {
        let mut rng = Xoshiro256::seed_from_u64(0x512E);
        for _case in 0..300 {
            let xs = random_sigs(&mut rng, 5, 40);
            let ys = random_sigs(&mut rng, 5, 40);
            let a = trace_of(0, &xs);
            let b = trace_of(1, &ys);
            let m = merge_traces(&a, &b);
            assert!(m.compressed_size() <= a.compressed_size() + b.compressed_size());
            assert!(m.dynamic_size() >= a.dynamic_size().max(b.dynamic_size()));
            assert!(m.dynamic_size() <= a.dynamic_size() + b.dynamic_size());
        }
    }

    /// Time mass is exactly additive.
    #[test]
    fn time_mass_additive() {
        let mut rng = Xoshiro256::seed_from_u64(0x71ED);
        for _case in 0..300 {
            let a = trace_of(0, &random_sigs(&mut rng, 5, 40));
            let b = trace_of(1, &random_sigs(&mut rng, 5, 40));
            let m = merge_traces(&a, &b);
            let sum = |t: &CompressedTrace| {
                let mut total = 0.0;
                t.visit_events(&mut |e| total += e.pre_time.total());
                total
            };
            assert!((sum(&m) - (sum(&a) + sum(&b))).abs() < 1e-6);
        }
    }

    /// Merging a trace with itself (different rank) is a perfect fold and
    /// always takes the trim-only fast path.
    #[test]
    fn self_merge_perfect() {
        let mut rng = Xoshiro256::seed_from_u64(0x5E1F);
        for _case in 0..300 {
            let xs = random_sigs(&mut rng, 5, 60);
            let a = trace_of(0, &xs);
            let b = trace_of(1, &xs);
            let (m, met) = merge_traces_with_metrics(&a, &b);
            assert_eq!(m.compressed_size(), a.compressed_size());
            assert_eq!(m.dynamic_size(), a.dynamic_size());
            assert!(met.fast_path || a.is_empty());
            assert_eq!(met.dp_cells, 0);
        }
    }

    /// merge_into is just merge_traces without the accumulator clone.
    #[test]
    fn merge_into_equivalent() {
        let mut rng = Xoshiro256::seed_from_u64(0x1A70);
        for _case in 0..300 {
            let a = trace_of(0, &random_sigs(&mut rng, 4, 50));
            let b = trace_of(1, &random_sigs(&mut rng, 4, 50));
            let expect = merge_traces(&a, &b);
            let (got, _) = merge_into(a.clone(), &b);
            assert_eq!(expect, got);
        }
    }

    /// Peak DP allocation is bounded by the shorter input in all cases.
    #[test]
    fn dp_memory_bounded_by_min_side() {
        let mut rng = Xoshiro256::seed_from_u64(0x0A11);
        for _case in 0..300 {
            let xs = random_sigs(&mut rng, 6, 80);
            let ys = random_sigs(&mut rng, 6, 20);
            let a = trace_of(0, &xs);
            let b = trace_of(1, &ys);
            let (_, met) = merge_traces_with_metrics(&a, &b);
            let min_side = a.nodes().len().min(b.nodes().len());
            assert!(
                met.peak_dp_alloc <= min_side + 1,
                "peak {} > min side {}",
                met.peak_dp_alloc,
                min_side
            );
        }
    }
}
