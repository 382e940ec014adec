//! Communication-group encoding: ranklists.
//!
//! ScalaTrace property (3) (paper §II): "it leverages a special data
//! structure called ranklist to represent a communication group. Using
//! EBNF notation, a rank list is represented as
//! `<dimension, start_rank, iteration_length, stride>`, which denotes the
//! dimension of the group, the rank of the starting node, and the
//! iteration and stride of the corresponding dimension."
//!
//! A [`RankList`] is one such multi-dimensional arithmetic section; a
//! [`RankSet`] is a normalized union of them, able to represent any set of
//! ranks while staying compact (near-constant size) for the structured
//! sets SPMD codes produce — contiguous blocks, strided columns, and
//! row-major subgrids.

use mpisim::Rank;

/// One multi-dimensional regular section of ranks.
///
/// The member set is `{ start + Σ_d i_d · stride_d : 0 ≤ i_d < iters_d }`.
/// Dimension order is outermost-first. A singleton is `dims = []`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RankList {
    start: Rank,
    /// `(iteration_length, stride)` per dimension, outermost first.
    dims: Vec<(usize, i64)>,
}

impl RankList {
    /// The section containing exactly `rank`.
    pub fn singleton(rank: Rank) -> Self {
        RankList {
            start: rank,
            dims: Vec::new(),
        }
    }

    /// A 1-D section `start, start+stride, …` of `iters` members.
    ///
    /// Panics if any member would be negative, or `iters == 0`.
    pub fn strided(start: Rank, iters: usize, stride: i64) -> Self {
        assert!(iters >= 1, "empty ranklist section");
        if iters == 1 {
            return Self::singleton(start);
        }
        let last = start as i64 + (iters as i64 - 1) * stride;
        assert!(last >= 0, "ranklist member underflows zero");
        RankList {
            start,
            dims: vec![(iters, stride)],
        }
    }

    /// Contiguous block `[start, start+len)`.
    pub fn contiguous(start: Rank, len: usize) -> Self {
        Self::strided(start, len, 1)
    }

    /// Reassemble a section from its serialized parts. Used by the trace
    /// file parser; validates that no member is negative and that no
    /// dimension repeats a member (`stride == 0` over several iterations).
    pub fn from_parts(start: Rank, dims: Vec<(usize, i64)>) -> Result<Self, String> {
        let mut min = start as i64;
        for &(iters, stride) in &dims {
            if iters == 0 {
                return Err("ranklist dimension with zero iterations".into());
            }
            if stride == 0 && iters > 1 {
                // Every iteration would name the same rank: `len()` would
                // count members that `iter()` then dedups away.
                return Err(format!(
                    "ranklist dimension repeats a rank ({iters} x stride 0)"
                ));
            }
            if stride < 0 {
                min += (iters as i64 - 1) * stride;
            }
        }
        if min < 0 {
            return Err(format!("ranklist member underflows zero (min {min})"));
        }
        Ok(RankList { start, dims })
    }

    /// Number of dimensions (0 for a singleton).
    pub fn dimension(&self) -> usize {
        self.dims.len()
    }

    /// First (lowest-index position) member.
    pub fn start(&self) -> Rank {
        self.start
    }

    /// The `(iters, stride)` pairs, outermost first.
    pub fn dims(&self) -> &[(usize, i64)] {
        &self.dims
    }

    /// Total member count (product of iteration lengths).
    pub fn len(&self) -> usize {
        self.dims.iter().map(|&(n, _)| n).product::<usize>().max(1)
    }

    /// Always false: sections are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Enumerate members in section order (outer dims slowest).
    pub fn iter(&self) -> impl Iterator<Item = Rank> + '_ {
        let total = self.len();
        (0..total).map(move |mut idx| {
            let mut r = self.start as i64;
            // Decompose idx in mixed radix, innermost dimension fastest.
            for d in (0..self.dims.len()).rev() {
                let (n, stride) = self.dims[d];
                let i = idx % n;
                idx /= n;
                r += i as i64 * stride;
            }
            debug_assert!(r >= 0, "ranklist member underflow");
            r as Rank
        })
    }

    /// Membership test. Outer dimensions are walked; the innermost one —
    /// the only one a 1-D section has — is solved arithmetically, so replay's
    /// per-event `contains(me)` does not scale with the section's length.
    pub fn contains(&self, rank: Rank) -> bool {
        fn rec(target: i64, base: i64, dims: &[(usize, i64)]) -> bool {
            match dims.split_first() {
                None => target == base,
                Some((&(n, stride), [])) => {
                    let d = target - base;
                    if stride == 0 {
                        d == 0
                    } else {
                        // Sign-aware: a quotient below zero means `target`
                        // lies on the far side of `base`.
                        d % stride == 0 && (0..n as i64).contains(&(d / stride))
                    }
                }
                Some((&(n, stride), rest)) => {
                    (0..n as i64).any(|i| rec(target, base + i * stride, rest))
                }
            }
        }
        rec(rank as i64, self.start as i64, &self.dims)
    }

    /// Smallest member: `start` pulled down by every negative-stride
    /// dimension run to its last iteration.
    pub fn min_member(&self) -> Rank {
        let below: i64 = self
            .dims
            .iter()
            .filter(|&&(_, stride)| stride < 0)
            .map(|&(n, stride)| (n as i64 - 1) * stride)
            .sum();
        (self.start as i64 + below) as Rank
    }
}

/// A set that is one arithmetic progression: `stride > 0`, or `len == 1`
/// with `stride == 0` for a single rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Progression {
    start: i64,
    len: i64,
    stride: i64,
}

impl Progression {
    fn last(self) -> i64 {
        self.start + (self.len - 1) * self.stride
    }

    fn contains(self, r: i64) -> bool {
        self.start <= r && r <= self.last() && (r - self.start) % self.stride.max(1) == 0
    }

    /// `other ⊆ self`: its ends are members and its steps stay on the
    /// lattice.
    fn covers(self, other: Progression) -> bool {
        self.contains(other.start)
            && (other.len == 1
                || (other.stride % self.stride.max(1) == 0 && self.contains(other.last())))
    }

    /// `a ∪ b` when that is again one progression: one operand inside the
    /// other, two runs of one lattice that touch or overlap (append,
    /// prepend, adjacent blocks), or two equal-stride runs that interleave
    /// exactly. `None` says nothing about the union except that it needs
    /// the general path.
    fn union(a: Progression, b: Progression) -> Option<Progression> {
        if a.covers(b) {
            return Some(a);
        }
        if b.covers(a) {
            return Some(b);
        }
        let (lo, hi) = if a.start <= b.start { (a, b) } else { (b, a) };
        let gap = hi.start - lo.start;
        // A single rank takes the other side's stride; two of them make
        // their own.
        let stride = match (a.len, b.len) {
            (1, 1) => gap,
            (1, _) => b.stride,
            (_, 1) => a.stride,
            _ if a.stride == b.stride => a.stride,
            _ => return None,
        };
        if gap % stride == 0 {
            // One lattice: a single run unless a lattice point between the
            // two is left out.
            (hi.start <= lo.last() + stride).then(|| Progression {
                start: lo.start,
                len: (lo.last().max(hi.last()) - lo.start) / stride + 1,
                stride,
            })
        } else if 2 * gap == stride && (lo.len == hi.len || lo.len == hi.len + 1) {
            // `hi` sits exactly between `lo`'s members and neither outruns
            // the other: the two phases of one half-stride run.
            Some(Progression {
                start: lo.start,
                len: lo.len + hi.len,
                stride: gap,
            })
        } else {
            None
        }
    }
}

/// A normalized union of [`RankList`] sections: can represent any finite
/// set of ranks. Canonical form: the greedy AP decomposition of the sorted
/// member list with grid folding, so equal sets compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RankSet {
    sections: Vec<RankList>,
}

impl RankSet {
    /// The empty set.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Set containing exactly one rank.
    pub fn singleton(rank: Rank) -> Self {
        RankSet {
            sections: vec![RankList::singleton(rank)],
        }
    }

    /// Build the canonical compact representation of an arbitrary set of
    /// ranks (duplicates tolerated).
    pub fn from_ranks(ranks: impl IntoIterator<Item = Rank>) -> Self {
        let mut sorted: Vec<Rank> = ranks.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        Self::from_sorted_unique(&sorted)
    }

    fn from_sorted_unique(ranks: &[Rank]) -> Self {
        if ranks.is_empty() {
            return Self::empty();
        }
        // Phase 1: greedy maximal arithmetic progressions.
        let mut sections: Vec<RankList> = Vec::new();
        let mut i = 0;
        while i < ranks.len() {
            if i + 1 == ranks.len() {
                sections.push(RankList::singleton(ranks[i]));
                break;
            }
            let stride = (ranks[i + 1] - ranks[i]) as i64;
            let mut j = i + 1;
            while j + 1 < ranks.len() && (ranks[j + 1] - ranks[j]) as i64 == stride {
                j += 1;
            }
            let iters = j - i + 1;
            if iters >= 3 || (iters == 2 && stride == 1) {
                sections.push(RankList::strided(ranks[i], iters, stride));
                i = j + 1;
            } else {
                // A 2-element "run" with a large stride is usually noise;
                // emit the first element alone and rescan from the second,
                // which may start a better run.
                sections.push(RankList::singleton(ranks[i]));
                i += 1;
            }
        }
        // Phase 2: fold rows into grids until fixpoint (1D -> 2D -> 3D...).
        loop {
            let folded = fold_sections(&sections);
            if folded.len() == sections.len() {
                break;
            }
            sections = folded;
        }
        RankSet { sections }
    }

    /// Reassemble from parsed sections (trace file parser). The input is
    /// trusted to be in canonical order; membership/expansion remain
    /// correct regardless.
    pub fn from_sections(sections: Vec<RankList>) -> Self {
        RankSet { sections }
    }

    /// The sections composing the set.
    pub fn sections(&self) -> &[RankList] {
        &self.sections
    }

    /// Total member count.
    pub fn len(&self) -> usize {
        self.sections.iter().map(|s| s.len()).sum()
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, rank: Rank) -> bool {
        self.sections.iter().any(|s| s.contains(rank))
    }

    /// Enumerate all members in ascending order.
    pub fn expand(&self) -> Vec<Rank> {
        let mut out: Vec<Rank> = self.sections.iter().flat_map(|s| s.iter()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Set union in canonical form: `a.union(&b) ==
    /// RankSet::from_ranks(a.expand() ∪ b.expand())` for canonical operands
    /// (everything but [`RankSet::from_sections`] builds those).
    ///
    /// See [`RankSet::union_with`] for the cost.
    pub fn union(&self, other: &RankSet) -> RankSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// In-place [`RankSet::union`]: what every `absorb` runs.
    ///
    /// Works on the `<start, iters, stride>` sections, not on members.
    /// Equal sets, a single rank already present, and a progression inside
    /// a progression leave `self` untouched without allocating; two
    /// progressions whose union is one progression — a rank or block
    /// appended or prepended, overlapping or adjacent blocks, interleaved
    /// strides: what a left fold and loop folding produce on SPMD ranks —
    /// combine arithmetically in O(1). So a fold over P SPMD traces pays
    /// O(1) per absorbed event, O(P·n) in all. Any other shape (irregular
    /// cluster member sets, radix-tree subtrees) falls through to
    /// expand-and-normalize, O((|a| + |b|) log) in member count, which is
    /// also what defines the canonical form the arithmetic paths reproduce.
    pub fn union_with(&mut self, other: &RankSet) {
        if other.is_empty() || self.sections == other.sections {
            return;
        }
        if self.is_empty() {
            self.sections.clone_from(&other.sections);
            return;
        }
        if let [one] = &other.sections[..] {
            if one.dims.is_empty() && self.contains(one.start) {
                return;
            }
        }
        if let (Some(a), Some(b)) = (self.as_progression(), other.as_progression()) {
            if let Some(u) = Progression::union(a, b) {
                if u != a {
                    self.set_progression(u);
                }
                return;
            }
        }
        let mut all = self.expand();
        all.extend(other.expand());
        *self = Self::from_ranks(all);
    }

    /// The set as one progression, if its sections are the canonical
    /// spelling of one: a single rank, one 1-D section (a stride-k pair is
    /// not one: `from_ranks` spells it as two single ranks), or that pair.
    fn as_progression(&self) -> Option<Progression> {
        let (start, len, stride) = match &self.sections[..] {
            [s] => match s.dims[..] {
                [] => (s.start, 1, 0),
                [(n, stride)] if stride > 0 && (n >= 3 || (n == 2 && stride == 1)) => {
                    (s.start, n, stride)
                }
                _ => return None,
            },
            [a, b] if a.dims.is_empty() && b.dims.is_empty() && b.start > a.start + 1 => {
                (a.start, 2, (b.start - a.start) as i64)
            }
            _ => return None,
        };
        Some(Progression {
            start: start as i64,
            len: len as i64,
            stride,
        })
    }

    /// Overwrite a non-empty set with the canonical sections of a
    /// progression of two or more ranks, reusing the buffers at hand.
    fn set_progression(&mut self, p: Progression) {
        debug_assert!(p.len >= 2 && p.stride > 0);
        self.sections.truncate(1);
        let first = &mut self.sections[0];
        first.start = p.start as Rank;
        first.dims.clear();
        if p.len == 2 && p.stride > 1 {
            self.sections.push(RankList::singleton(p.last() as Rank));
        } else {
            first.dims.push((p.len as usize, p.stride));
        }
    }

    /// Smallest member, if any.
    pub fn min(&self) -> Option<Rank> {
        self.sections.iter().map(RankList::min_member).min()
    }

    /// Approximate serialized size in bytes, for the memory accounting of
    /// Table IV (a section is dimension + start + per-dim pair).
    pub fn byte_size(&self) -> usize {
        self.sections.iter().map(|s| 16 + s.dims.len() * 16).sum()
    }
}

/// Fold runs of sections that share `(dims)` and whose starts form an AP
/// into one higher-dimensional section.
fn fold_sections(sections: &[RankList]) -> Vec<RankList> {
    let mut out: Vec<RankList> = Vec::with_capacity(sections.len());
    let mut i = 0;
    while i < sections.len() {
        // Find the longest run starting at i foldable into one grid.
        let mut best_j = i; // inclusive end of run
        if i + 1 < sections.len() && sections[i].dims == sections[i + 1].dims {
            let outer_stride = sections[i + 1].start as i64 - sections[i].start as i64;
            if outer_stride > 0 {
                let mut j = i + 1;
                while j + 1 < sections.len()
                    && sections[j + 1].dims == sections[i].dims
                    && sections[j + 1].start as i64 - sections[j].start as i64 == outer_stride
                {
                    j += 1;
                }
                // Only fold runs of >= 3 rows (or 2 rows of non-singletons:
                // a pair of singletons is already optimal as one 1D AP and
                // phase 1 would have caught it).
                let rows = j - i + 1;
                if rows >= 2 && !(rows == 2 && sections[i].dims.is_empty()) {
                    let mut dims = vec![(rows, outer_stride)];
                    dims.extend_from_slice(&sections[i].dims);
                    out.push(RankList {
                        start: sections[i].start,
                        dims,
                    });
                    best_j = j;
                }
            }
        }
        if best_j == i {
            out.push(sections[i].clone());
        }
        i = best_j + 1;
    }
    out
}

impl std::fmt::Display for RankList {
    /// EBNF-ish rendering: `<dim start (iters,stride)...>`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{} {}", self.dims.len(), self.start)?;
        for (n, s) in &self.dims {
            write!(f, " ({n},{s})")?;
        }
        write!(f, ">")
    }
}

impl std::fmt::Display for RankSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_basics() {
        let s = RankList::singleton(7);
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![7]);
        assert!(s.contains(7));
        assert!(!s.contains(8));
        assert_eq!(s.dimension(), 0);
    }

    #[test]
    fn strided_members() {
        let s = RankList::strided(2, 4, 3); // 2, 5, 8, 11
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 5, 8, 11]);
        assert!(s.contains(8));
        assert!(!s.contains(9));
    }

    #[test]
    fn two_dimensional_grid() {
        // 2x3 subgrid of a row-major 2D mesh with row stride 8:
        // rows start at 0 and 8; columns stride 1.
        let s = RankList {
            start: 0,
            dims: vec![(2, 8), (3, 1)],
        };
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 8, 9, 10]);
        assert_eq!(s.len(), 6);
        assert!(s.contains(9));
        assert!(!s.contains(3));
        assert!(!s.contains(16));
    }

    #[test]
    fn from_ranks_contiguous() {
        let set = RankSet::from_ranks(0..64);
        assert_eq!(set.sections().len(), 1, "contiguous block is one section");
        assert_eq!(set.len(), 64);
        assert_eq!(set.expand(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn from_ranks_strided_column() {
        // Column of a 8x8 grid: 3, 11, 19, ..., 59.
        let col: Vec<Rank> = (0..8).map(|i| 3 + 8 * i).collect();
        let set = RankSet::from_ranks(col.clone());
        assert_eq!(set.sections().len(), 1);
        assert_eq!(set.expand(), col);
    }

    #[test]
    fn from_ranks_grid_folds_to_2d() {
        // 4x4 subgrid of a 16-wide mesh: rows {0..4}, {16..20}, ...
        let mut ranks = Vec::new();
        for row in 0..4 {
            for col in 0..4 {
                ranks.push(row * 16 + col);
            }
        }
        let set = RankSet::from_ranks(ranks.clone());
        assert_eq!(set.expand(), ranks);
        assert_eq!(
            set.sections().len(),
            1,
            "regular subgrid folds into one 2-D section, got {set}"
        );
        assert_eq!(set.sections()[0].dimension(), 2);
    }

    #[test]
    fn from_ranks_irregular() {
        let ranks = vec![0, 1, 2, 10, 50, 51];
        let set = RankSet::from_ranks(ranks.clone());
        assert_eq!(set.expand(), ranks);
        assert!(set.contains(10));
        assert!(!set.contains(3));
    }

    #[test]
    fn from_ranks_dedups() {
        let set = RankSet::from_ranks(vec![5, 5, 5, 6, 6]);
        assert_eq!(set.expand(), vec![5, 6]);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn union_disjoint_blocks() {
        let a = RankSet::from_ranks(0..8);
        let b = RankSet::from_ranks(8..16);
        let u = a.union(&b);
        assert_eq!(u.expand(), (0..16).collect::<Vec<_>>());
        assert_eq!(u.sections().len(), 1, "adjacent blocks coalesce");
    }

    #[test]
    fn union_overlapping() {
        let a = RankSet::from_ranks(0..10);
        let b = RankSet::from_ranks(5..15);
        assert_eq!(a.union(&b).expand(), (0..15).collect::<Vec<_>>());
    }

    #[test]
    fn union_with_empty() {
        let a = RankSet::from_ranks([3, 4]);
        assert_eq!(a.union(&RankSet::empty()), a);
        assert_eq!(RankSet::empty().union(&a), a);
    }

    #[test]
    fn canonical_equality() {
        // Same set built two different ways compares equal.
        let a = RankSet::from_ranks(vec![0, 2, 4, 6]);
        let b = RankSet::from_ranks(vec![6, 4, 2, 0]);
        assert_eq!(a, b);
        let c = RankSet::from_ranks(vec![0, 1]).union(&RankSet::from_ranks(vec![2, 3]));
        let d = RankSet::from_ranks(0..4);
        assert_eq!(c, d);
    }

    #[test]
    fn min_member() {
        assert_eq!(RankSet::empty().min(), None);
        assert_eq!(RankSet::from_ranks([9, 3, 7]).min(), Some(3));
    }

    #[test]
    fn from_parts_rejects_sections_that_miscount() {
        assert!(RankList::from_parts(4, vec![(3, 2)]).is_ok());
        assert!(
            RankList::from_parts(4, vec![(1, 0)]).is_ok(),
            "one iteration"
        );
        assert!(RankList::from_parts(4, vec![(0, 1)]).is_err());
        assert!(RankList::from_parts(4, vec![(3, -3)]).is_err());
        // stride 0 over several iterations: len() 3, one distinct member.
        assert!(RankList::from_parts(4, vec![(3, 0)]).is_err());
        assert!(RankList::from_parts(4, vec![(2, 8), (3, 0)]).is_err());
    }

    #[test]
    fn union_grows_a_progression_in_place() {
        // The shapes a left fold, adjacent blocks and interleaved strides
        // produce, each landing on the canonical single section.
        let mut acc = RankSet::singleton(0);
        for r in 1..100 {
            acc.union_with(&RankSet::singleton(r));
            assert_eq!(acc, RankSet::from_ranks(0..=r));
        }
        let evens = RankSet::from_ranks((0..50).map(|i| 2 * i));
        let odds = RankSet::from_ranks((0..50).map(|i| 2 * i + 1));
        assert_eq!(evens.union(&odds), RankSet::from_ranks(0..100));
        assert_eq!(odds.union(&evens), RankSet::from_ranks(0..100));
        // A stride-k pair is two single ranks in canonical form; a third
        // member on the lattice turns it into one section.
        let pair = RankSet::singleton(3).union(&RankSet::singleton(11));
        assert_eq!(pair.sections().len(), 2);
        let triple = pair.union(&RankSet::singleton(19));
        assert_eq!(triple.sections(), [RankList::strided(3, 3, 8)]);
        assert_eq!(
            pair.union(&RankSet::singleton(7)).sections(),
            [RankList::strided(3, 3, 4)]
        );
    }

    #[test]
    fn display_ebnf() {
        let s = RankList::strided(1, 4, 2);
        assert_eq!(format!("{s}"), "<1 1 (4,2)>");
        assert_eq!(format!("{}", RankList::singleton(5)), "<0 5>");
    }

    #[test]
    fn byte_size_compact_for_structured_sets() {
        // 1024 contiguous ranks: one section, a few dozen bytes — the
        // "near-constant size" property the paper relies on.
        let set = RankSet::from_ranks(0..1024);
        assert!(set.byte_size() <= 64, "got {}", set.byte_size());
    }

    #[test]
    #[should_panic(expected = "empty ranklist")]
    fn zero_iters_panics() {
        RankList::strided(0, 0, 1);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use std::collections::BTreeSet;
    use xrand::Xoshiro256;

    fn random_set(rng: &mut Xoshiro256, bound: usize, max_len: usize) -> BTreeSet<Rank> {
        (0..rng.usize_below(max_len))
            .map(|_| rng.usize_below(bound))
            .collect()
    }

    /// from_ranks -> expand is the identity on sorted unique input.
    #[test]
    fn roundtrip() {
        let mut rng = Xoshiro256::seed_from_u64(0x4071);
        for _case in 0..256 {
            let ranks = random_set(&mut rng, 2000, 200);
            let sorted: Vec<Rank> = ranks.iter().cloned().collect();
            let set = RankSet::from_ranks(sorted.clone());
            assert_eq!(set.expand(), sorted);
        }
    }

    /// Membership agrees with expansion.
    #[test]
    fn contains_agrees() {
        let mut rng = Xoshiro256::seed_from_u64(0xC074);
        for _case in 0..256 {
            let ranks = random_set(&mut rng, 500, 60);
            let probe = rng.usize_below(500);
            let set = RankSet::from_ranks(ranks.iter().cloned());
            assert_eq!(set.contains(probe), ranks.contains(&probe));
        }
    }

    /// Union is the set union.
    #[test]
    fn union_is_set_union() {
        let mut rng = Xoshiro256::seed_from_u64(0x0410);
        for _case in 0..256 {
            let a = random_set(&mut rng, 300, 40);
            let b = random_set(&mut rng, 300, 40);
            let sa = RankSet::from_ranks(a.iter().cloned());
            let sb = RankSet::from_ranks(b.iter().cloned());
            let expect: Vec<Rank> = a.union(&b).cloned().collect();
            assert_eq!(sa.union(&sb).expand(), expect);
        }
    }

    /// One operand of a union case: the shapes folds, grids and clusters
    /// hand to `union`, positioned relative to `anchor` so that pairs drawn
    /// with the same anchor touch, overlap, interleave or nest.
    fn union_operand(rng: &mut Xoshiro256, anchor: usize) -> Vec<Rank> {
        let n = rng.range_usize(1, 12);
        let stride = rng.range_usize(1, 7);
        match rng.below(7) {
            0 => vec![anchor + rng.usize_below(4)],
            // Blocks that abut or overlap the anchor block.
            1 => (anchor..anchor + n).collect(),
            2 => (anchor + n..anchor + n + rng.range_usize(1, 12)).collect(),
            // Equal-stride runs in either phase, n or n - 1 long.
            3 => (0..n).map(|i| anchor + 2 * stride * i).collect(),
            4 => (0..n - rng.usize_below(2).min(n - 1))
                .map(|i| anchor + stride + 2 * stride * i)
                .collect(),
            // A 2-D grid: rows of a 16-wide mesh.
            5 => (0..rng.range_usize(2, 5))
                .flat_map(|row| (0..n).map(move |col| anchor + 16 * row + col))
                .collect(),
            _ => random_set(rng, anchor + 80, 20).into_iter().collect(),
        }
    }

    /// `union` agrees with the definitional form — normalize the member
    /// union — on every shape with an arithmetic path, on subsets, and on
    /// sets that fall through, in both argument orders.
    #[test]
    fn union_equals_definitional_form() {
        let mut rng = Xoshiro256::seed_from_u64(0x0_0410_5EC7);
        let mut arithmetic = 0;
        for case in 0..2400 {
            let anchor = rng.usize_below(40);
            let a = union_operand(&mut rng, anchor);
            let b = match case % 6 {
                // A subset of a, and a itself.
                0 => a.iter().copied().filter(|_| rng.gen_bool(0.5)).collect(),
                1 => a.clone(),
                _ => union_operand(&mut rng, anchor),
            };
            let (sa, sb) = (
                RankSet::from_ranks(a.clone()),
                RankSet::from_ranks(b.clone()),
            );
            let expect = RankSet::from_ranks(a.into_iter().chain(b));
            assert_eq!(sa.union(&sb), expect, "case {case}: {sa} ∪ {sb}");
            assert_eq!(sb.union(&sa), expect, "case {case}: {sb} ∪ {sa}");
            if let (Some(p), Some(q)) = (sa.as_progression(), sb.as_progression()) {
                arithmetic += Progression::union(p, q).is_some() as usize;
            }
        }
        assert!(
            arithmetic > 600,
            "only {arithmetic} cases took the arithmetic path"
        );
    }

    /// A random section as the trace-file parser may hand it over:
    /// negative strides, overlapping dimensions, repeated members.
    fn random_section(rng: &mut Xoshiro256) -> RankList {
        loop {
            let dims = (0..rng.usize_below(4))
                .map(|_| (rng.range_usize(1, 6), rng.range_u64(0, 25) as i64 - 12))
                .collect();
            if let Ok(s) = RankList::from_parts(rng.usize_below(60), dims) {
                return s;
            }
        }
    }

    /// Closed-form `contains` and `min` agree with enumeration.
    #[test]
    fn contains_and_min_agree_with_iter() {
        let mut rng = Xoshiro256::seed_from_u64(0xC105ED);
        for _case in 0..2000 {
            let s = random_section(&mut rng);
            let members: BTreeSet<Rank> = s.iter().collect();
            for probe in 0..150 {
                assert_eq!(s.contains(probe), members.contains(&probe), "{s} ∋ {probe}");
            }
            assert_eq!(s.min_member(), *members.first().unwrap(), "min of {s}");
            let set = RankSet::from_sections(vec![s.clone(), random_section(&mut rng)]);
            assert_eq!(set.min(), set.expand().first().copied());
        }
    }

    /// len always equals the number of distinct members.
    #[test]
    fn len_consistent() {
        let mut rng = Xoshiro256::seed_from_u64(0x1E4C);
        for _case in 0..256 {
            let ranks = random_set(&mut rng, 1000, 120);
            let set = RankSet::from_ranks(ranks.iter().cloned());
            assert_eq!(set.len(), ranks.len());
        }
    }

    /// Canonical form: building from any permutation yields equal sets.
    #[test]
    fn permutation_invariant() {
        let mut rng = Xoshiro256::seed_from_u64(0x9E4A);
        for _case in 0..256 {
            let ranks: Vec<Rank> = (0..rng.usize_below(50))
                .map(|_| rng.usize_below(400))
                .collect();
            let fwd = RankSet::from_ranks(ranks.clone());
            let rev = RankSet::from_ranks(ranks.iter().rev().cloned());
            assert_eq!(fwd, rev);
        }
    }
}
