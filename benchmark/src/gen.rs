//! Everything the benchmark derives from `--seed`: the random stream, the
//! synthetic traces of `fold_offline`, and the query schedule of
//! `serve_query`. The same seed gives the same bytes.
//!
//! The generator and the digest are the benchmark's own (not `xrand`,
//! not `obs::query::fnv64`) so that a change to those crates cannot move
//! the inputs or the pinned digests under the code being measured.

use mpisim::Comm;
use scalatrace::{CompressedTrace, Endpoint, EventRecord, MpiOp};
use sigkit::StackSig;

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// The numbers `0..n` in a seeded order.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        order
    }
}

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One traced send from call site `sig`.
pub fn event(rank: usize, sig: u64) -> EventRecord {
    EventRecord::new(
        MpiOp::send(Endpoint::Relative(1), 0, 64, Comm::WORLD),
        StackSig(sig),
        rank,
        1e-6,
    )
}

/// A trace of `n` distinct call sites with signatures `base+1 ..= base+n`.
pub fn trace_with_sites(rank: usize, n: usize, base: u64) -> CompressedTrace {
    let mut t = CompressedTrace::new();
    for s in 0..n as u64 {
        t.append(event(rank, base + s + 1));
    }
    t
}

/// [`trace_with_sites`] with the sites at `private` positions replaced
/// by rank-private ones: the shared backbone trims away and only the
/// divergences reach the aligner.
pub fn near_identical(rank: usize, n: usize, base: u64, private: &[usize]) -> CompressedTrace {
    let mut t = CompressedTrace::new();
    for s in 0..n {
        let sig = if private.contains(&s) {
            base + (1 << 40) + ((rank as u64) << 20) + s as u64
        } else {
            base + s as u64 + 1
        };
        t.append(event(rank, sig));
    }
    t
}

/// Sites per trace in the P-wide fold (the shape `benches/merge_scaling`
/// uses for its `merge_p_traces` axis).
pub const FOLD_SITES: usize = 24;
/// Call sites per trace in the pairwise merges.
pub const PAIR_N: usize = 1024;
/// Rank-private sites in each near-identical pair, and the distance from
/// the first to the last of them. The seed moves the group and its
/// middle site; the distance is fixed because the aligner's work grows
/// with the square of what lies between the outermost divergences, and
/// the op's cost must not depend on the seed.
pub const PRIVATE_SITES: usize = 3;
pub const PRIVATE_SPAN: usize = 96;

/// One pairwise merge input.
pub struct Pair {
    pub a: CompressedTrace,
    pub b: CompressedTrace,
}

/// The inputs of one `fold_offline` batch.
pub struct FoldInputs {
    /// `width` SPMD traces folded left to right by `merge_all`.
    pub spmd: Vec<CompressedTrace>,
    /// Disjoint, then near-identical, then identical pairs, merged by
    /// `merge_traces`.
    pub pairs: Vec<Pair>,
}

/// How many inputs of each kind one batch holds. The three pairwise
/// paths are weighted so that DP, trim and ranklist-union time are all a
/// visible share of the op: a win on one that costs another still shows.
pub struct FoldShape {
    pub width: usize,
    pub disjoint: usize,
    pub near: usize,
    pub identical: usize,
}

impl FoldInputs {
    pub fn generate(rng: &mut Rng, shape: &FoldShape) -> FoldInputs {
        // Signature bases stay far apart so no two inputs share a site by
        // accident; their digits (and so the text size) do not vary.
        let mut base = || (1 << 50) + ((rng.next_u64() >> 20) << 8);
        let spmd_base = base();
        let spmd = (0..shape.width)
            .map(|r| trace_with_sites(r, FOLD_SITES, spmd_base))
            .collect();
        let mut pairs = Vec::new();
        for _ in 0..shape.disjoint {
            let (a, b) = (base(), base());
            pairs.push(Pair {
                a: trace_with_sites(0, PAIR_N, a),
                b: trace_with_sites(1, PAIR_N, b),
            });
        }
        let bases: Vec<u64> = (0..shape.near + shape.identical).map(|_| base()).collect();
        for &b in &bases[..shape.near] {
            let first = rng.below(PAIR_N - PRIVATE_SPAN);
            let private: [usize; PRIVATE_SITES] = [
                first,
                first + 1 + rng.below(PRIVATE_SPAN - 1),
                first + PRIVATE_SPAN,
            ];
            pairs.push(Pair {
                a: near_identical(0, PAIR_N, b, &private),
                b: near_identical(1, PAIR_N, b, &private),
            });
        }
        for &b in &bases[shape.near..] {
            pairs.push(Pair {
                a: trace_with_sites(0, PAIR_N, b),
                b: trace_with_sites(1, PAIR_N, b),
            });
        }
        FoldInputs { spmd, pairs }
    }
}

/// The six query endpoints of the daemon, with their share of the
/// `serve_query` traffic in percent.
pub const QUERY_MIX: [(&str, usize); 6] = [
    ("summarize", 30),
    ("timeline", 20),
    ("metrics", 20),
    ("spans", 15),
    ("anomalies", 10),
    ("diff", 5),
];

/// Ranks `timeline/<rank>` requests ask for (every journal has 64).
pub const TIMELINE_RANKS: [usize; 8] = [0, 1, 7, 8, 31, 32, 62, 63];

/// One scheduled GET: which session, which endpoint (index into
/// [`QUERY_MIX`]), and the endpoint's argument — an index into
/// [`TIMELINE_RANKS`] or the other session of a diff; 0 otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub session: u16,
    pub kind: u8,
    pub arg: u16,
}

/// `n` queries over `sessions` sessions: `hot_pct` percent go to the
/// sessions of `hot_set` (shared by all clients), the rest uniformly to
/// all sessions, so a cache smaller than `sessions` but larger than the
/// hot set sees both hits and misses.
pub fn query_schedule(
    rng: &mut Rng,
    n: usize,
    sessions: usize,
    hot_set: &[usize],
    hot_pct: usize,
) -> Vec<Query> {
    (0..n)
        .map(|_| {
            let session = if rng.below(100) < hot_pct {
                hot_set[rng.below(hot_set.len())]
            } else {
                rng.below(sessions)
            };
            let mut ticket = rng.below(100);
            let kind = QUERY_MIX
                .iter()
                .position(|(_, share)| {
                    let hit = ticket < *share;
                    ticket = ticket.saturating_sub(*share);
                    hit
                })
                .expect("shares sum to 100");
            let arg = match QUERY_MIX[kind].0 {
                "timeline" => rng.below(TIMELINE_RANKS.len()),
                "diff" => rng.below(sessions),
                _ => 0,
            };
            Query {
                session: session as u16,
                kind: kind as u8,
                arg: arg as u16,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalatrace::format::to_text;

    #[test]
    fn rng_is_splitmix64() {
        // Reference values of SplitMix64 seeded with 1234567.
        let mut rng = Rng::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn below_stays_in_range_and_permutation_is_complete() {
        let mut rng = Rng::new(9);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
        let mut p = rng.permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fnv64_known_values() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let make = |seed| {
            let mut rng = Rng::new(seed);
            let hot = rng.permutation(48);
            query_schedule(&mut rng, 5000, 48, &hot[..12], 80)
        };
        assert_eq!(make(42), make(42));
        assert_ne!(make(42), make(43));
    }

    #[test]
    fn schedule_follows_the_stated_mix() {
        let hot = [3, 5, 8, 13, 21, 34, 1, 2, 40, 41, 42, 47];
        let sched = query_schedule(&mut Rng::new(5), 100_000, 48, &hot, 80);
        for (kind, (name, share)) in QUERY_MIX.iter().enumerate() {
            let got = sched.iter().filter(|q| q.kind as usize == kind).count();
            let want = share * 1000;
            assert!(
                got.abs_diff(want) < 600,
                "{name}: {got} of 100000, want {want}"
            );
        }
        assert_eq!(QUERY_MIX.iter().map(|(_, s)| s).sum::<usize>(), 100);
        // 80 % + 20 % × 12/48 of the traffic lands on the 12 hot sessions.
        let on_hot = sched
            .iter()
            .filter(|q| hot.contains(&(q.session as usize)))
            .count();
        assert!(on_hot.abs_diff(85_000) < 600, "hot share {on_hot}");
        assert!(sched.iter().all(|q| match QUERY_MIX[q.kind as usize].0 {
            "timeline" => (q.arg as usize) < TIMELINE_RANKS.len(),
            "diff" => q.arg < 48,
            _ => q.arg == 0,
        }));
    }

    #[test]
    fn same_seed_same_fold_inputs() {
        let shape = FoldShape {
            width: 8,
            disjoint: 1,
            near: 2,
            identical: 1,
        };
        let text = |seed| {
            let f = FoldInputs::generate(&mut Rng::new(seed), &shape);
            let mut out: Vec<String> = f.spmd.iter().map(to_text).collect();
            out.extend(f.pairs.iter().flat_map(|p| [to_text(&p.a), to_text(&p.b)]));
            out
        };
        assert_eq!(text(42), text(42));
        assert_ne!(text(42), text(43));
        let f = FoldInputs::generate(&mut Rng::new(42), &shape);
        // Disjoint, near, near, identical: pairs differ in every site, in
        // exactly the private sites, and in none.
        let differing = |p: &Pair| {
            (p.a.nodes().iter())
                .zip(p.b.nodes())
                .filter(|(x, y)| x.structural_hash() != y.structural_hash())
                .count()
        };
        let counts: Vec<usize> = f.pairs.iter().map(differing).collect();
        assert_eq!(counts, [PAIR_N, PRIVATE_SITES, PRIVATE_SITES, 0]);
    }
}
