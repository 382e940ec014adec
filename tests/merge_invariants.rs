//! Inter-node merge invariants, exercised on seeded randomized traces.
//!
//! The fast-path merge (prefilters + Hirschberg) and the full-table
//! reference oracle must both uphold the ScalaTrace merge contract:
//!
//! - merging is commutative and associative *up to structural equality*
//!   (the same events with the same rank coverage, and each rank's event
//!   sequence intact — node placement of unmatched events may differ);
//! - merging a trace with itself or with the empty trace is an identity;
//! - rank coverage of the output is exactly the union of the inputs';
//! - each input's per-rank event order is preserved verbatim.
//!
//! Every case is additionally run differentially: the fast path must be
//! byte-identical to the reference oracle.
//!
//! The scaling gates at the end hold the paper's cost argument over the
//! axes of `plans/merge_scaling.plan.json`: the online merge's modeled
//! critical path grows as O(log P) (deterministic, so it runs here up to
//! P = 4096), and — in the `--ignored` release run, with P = 16384 added —
//! the fast merge is ≥ 0.8× its oracle everywhere and ≥ 2× on disjoint
//! traces at n ≥ 512, and the offline SPMD fold grows linearly in P.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use chameleon_repro::mpisim::{Comm, World, WorldConfig};
use chameleon_repro::scalatrace::merge::{
    merge_all, merge_traces, merge_traces_reference, merge_traces_with_metrics,
};
use chameleon_repro::scalatrace::reduction::{radix_tree_merge, DEFAULT_RADIX};
use chameleon_repro::scalatrace::{
    CompressedTrace, Endpoint, EventRecord, MpiOp, RankSet, TraceNode,
};
use chameleon_repro::sigkit::StackSig;
use chameleon_repro::workloads::matrix::MatrixPlan;
use xrand::Xoshiro256;

fn ev(sig: u64, rank: usize) -> EventRecord {
    EventRecord::new(
        MpiOp::send(Endpoint::Relative(1), 0, 64, Comm::WORLD),
        StackSig(sig),
        rank,
        1e-6 * (sig as f64 + 1.0),
    )
}

/// The trace `rank` records when it calls `sites` in order.
fn trace_of(rank: usize, sites: impl IntoIterator<Item = u64>) -> CompressedTrace {
    let mut t = CompressedTrace::new();
    for s in sites {
        t.append(ev(s, rank));
    }
    t
}

/// Random site stream over a small alphabet — small alphabets force
/// repeats, loop folding, and ambiguous alignments.
fn random_trace(rng: &mut Xoshiro256, rank: usize, alphabet: u64, len: usize) -> CompressedTrace {
    trace_of(rank, (0..len).map(|_| rng.below(alphabet) + 1))
}

/// An SPMD variant: same site stream as `of`, recorded by `rank`, with
/// `flips` sites replaced by rank-private ones.
fn spmd_variant(
    rng: &mut Xoshiro256,
    of: &[u64],
    rank: usize,
    flips: usize,
) -> (CompressedTrace, Vec<u64>) {
    let mut sites = of.to_vec();
    for _ in 0..flips {
        if sites.is_empty() {
            break;
        }
        let at = rng.usize_below(sites.len());
        sites[at] = 1_000_000 + rank as u64 * 1000 + at as u64;
    }
    (trace_of(rank, sites.iter().copied()), sites)
}

/// The dynamic event stream a single rank observes in `t`, in order.
fn projection(t: &CompressedTrace, rank: usize) -> Vec<StackSig> {
    let mut out = Vec::new();
    t.walk(&mut |e| {
        if e.ranks.contains(rank) {
            out.push(e.stack_sig);
        }
    });
    out
}

/// All ranks covered anywhere in `t`.
fn rank_coverage(t: &CompressedTrace) -> Vec<usize> {
    let mut out = Vec::new();
    t.walk(&mut |e| out.extend(e.ranks.expand()));
    out.sort_unstable();
    out.dedup();
    out
}

/// Structural equality: identical per-rank event sequences and identical
/// rank coverage. Weaker than `==` (ignores where unmatched events landed
/// between folds and how time mass distributed), which is exactly the
/// freedom commutativity has.
fn structurally_equal(a: &CompressedTrace, b: &CompressedTrace) -> bool {
    let ranks = rank_coverage(a);
    ranks == rank_coverage(b) && ranks.iter().all(|&r| projection(a, r) == projection(b, r))
}

/// Merge with the fast path, differentially checking the oracle on the
/// same inputs. Every invariant test routes merges through this, so each
/// randomized case doubles as a fast-vs-reference differential case.
fn checked_merge(a: &CompressedTrace, b: &CompressedTrace) -> CompressedTrace {
    let fast = merge_traces(a, b);
    let oracle = merge_traces_reference(a, b);
    assert_eq!(fast, oracle, "fast path diverged from reference oracle");
    fast
}

#[test]
fn commutative_up_to_structural_equality() {
    let mut rng = Xoshiro256::seed_from_u64(0xC0337A);
    for case in 0..200 {
        let alphabet = [2u64, 3, 5, 16][case % 4];
        let (la, lb) = (rng.range_usize(0, 40), rng.range_usize(0, 40));
        let a = random_trace(&mut rng, 0, alphabet, la);
        let b = random_trace(&mut rng, 1, alphabet, lb);
        let ab = checked_merge(&a, &b);
        let ba = checked_merge(&b, &a);
        assert!(
            structurally_equal(&ab, &ba),
            "case {case}: merge(a,b) !~ merge(b,a)"
        );
    }
}

#[test]
fn commutative_exactly_on_spmd_traces() {
    // With an identical site stream the alignment is forced, so
    // commutativity tightens to full equality (rank union is symmetric).
    let mut rng = Xoshiro256::seed_from_u64(0x59314D);
    for _ in 0..50 {
        let n_sites = rng.range_usize(1, 40);
        let sites: Vec<u64> = (0..n_sites).map(|_| rng.below(6) + 1).collect();
        let (a, _) = spmd_variant(&mut rng, &sites, 0, 0);
        let (b, _) = spmd_variant(&mut rng, &sites, 1, 0);
        assert_eq!(checked_merge(&a, &b), checked_merge(&b, &a));
    }
}

#[test]
fn associative_up_to_structural_equality() {
    let mut rng = Xoshiro256::seed_from_u64(0xA550C);
    for case in 0..120 {
        let alphabet = [3u64, 5, 16][case % 3];
        let (la, lb, lc) = (
            rng.range_usize(0, 30),
            rng.range_usize(0, 30),
            rng.range_usize(0, 30),
        );
        let a = random_trace(&mut rng, 0, alphabet, la);
        let b = random_trace(&mut rng, 1, alphabet, lb);
        let c = random_trace(&mut rng, 2, alphabet, lc);
        let left = checked_merge(&checked_merge(&a, &b), &c);
        let right = checked_merge(&a, &checked_merge(&b, &c));
        assert!(
            structurally_equal(&left, &right),
            "case {case}: (a∪b)∪c !~ a∪(b∪c)"
        );
        // merge_all folds left-to-right and must agree with the explicit
        // left fold structurally.
        let folded = merge_all([&a, &b, &c]);
        assert!(structurally_equal(&folded, &left), "case {case}: merge_all");
    }
}

#[test]
fn merge_with_self_and_empty_is_identity() {
    let mut rng = Xoshiro256::seed_from_u64(0x1DE17);
    let empty = CompressedTrace::new();
    for case in 0..100 {
        let len = rng.range_usize(0, 50);
        let a = random_trace(&mut rng, 3, 5, len);

        let with_empty = checked_merge(&a, &empty);
        assert_eq!(with_empty, a, "case {case}: a ∪ ∅ ≠ a");
        let from_empty = checked_merge(&empty, &a);
        assert_eq!(from_empty, a, "case {case}: ∅ ∪ a ≠ a");

        // Self-merge folds every node with itself: same structure, same
        // ranks (union is idempotent).
        let with_self = checked_merge(&a, &a);
        assert!(
            structurally_equal(&with_self, &a),
            "case {case}: a ∪ a !~ a"
        );
        assert_eq!(with_self.compressed_size(), a.compressed_size());
    }
}

#[test]
fn rank_coverage_is_union_of_inputs() {
    let mut rng = Xoshiro256::seed_from_u64(0x124C5);
    for case in 0..100 {
        let n_traces = rng.range_usize(2, 6);
        let traces: Vec<CompressedTrace> = (0..n_traces)
            .map(|r| {
                let len = rng.range_usize(1, 25);
                random_trace(&mut rng, 10 + r, 4, len)
            })
            .collect();
        let mut expect: Vec<usize> = traces.iter().flat_map(rank_coverage).collect();
        expect.sort_unstable();
        expect.dedup();

        let merged = traces
            .iter()
            .skip(1)
            .fold(traces[0].clone(), |acc, t| checked_merge(&acc, t));
        assert_eq!(rank_coverage(&merged), expect, "case {case}");
    }
}

#[test]
fn per_input_event_order_is_preserved() {
    // After any merge, projecting the output onto one input's rank must
    // reproduce that input's dynamic event stream verbatim — merging
    // reorders nothing within a rank.
    let mut rng = Xoshiro256::seed_from_u64(0x0D4D3);
    for case in 0..150 {
        let n_sites = rng.range_usize(1, 35);
        let sites: Vec<u64> = (0..n_sites).map(|_| rng.below(5) + 1).collect();
        let (fa, fb) = (rng.usize_below(4), rng.usize_below(4));
        let (a, _) = spmd_variant(&mut rng, &sites, 0, fa);
        let (b, _) = spmd_variant(&mut rng, &sites, 1, fb);
        let lc = rng.range_usize(0, 35);
        let c = random_trace(&mut rng, 2, 5, lc);

        let merged = checked_merge(&checked_merge(&a, &b), &c);
        assert_eq!(
            projection(&merged, 0),
            projection(&a, 0),
            "case {case}: rank 0"
        );
        assert_eq!(
            projection(&merged, 1),
            projection(&b, 1),
            "case {case}: rank 1"
        );
        assert_eq!(
            projection(&merged, 2),
            projection(&c, 2),
            "case {case}: rank 2"
        );
    }
}

/// Top-level node for symbol `sym`: every third symbol is a loop (its trip
/// count part of its identity), the rest are plain events. Built directly,
/// not through `append`, so a sequence keeps one node per symbol however
/// repetitive it is.
fn node_of(sym: u64, rank: usize) -> TraceNode {
    if sym % 3 == 2 {
        TraceNode::Loop {
            iters: 2 + sym % 5,
            body: vec![
                TraceNode::Event(ev(sym, rank)),
                TraceNode::Event(ev(sym + 1, rank)),
            ],
        }
    } else {
        TraceNode::Event(ev(sym, rank))
    }
}

#[test]
fn fast_equals_reference_across_word_boundaries() {
    // The aligner scores 64 columns per word; pin the shorter middle to
    // lengths on both sides of every word edge. The longer side is fenced
    // with two private sites so the trim consumes nothing and the middles
    // are the sequences themselves. Alphabet 0 stands for "all distinct":
    // both sides draw without repetition from one shared universe.
    let mut rng = Xoshiro256::seed_from_u64(0xB17_5E7);
    for m in [1usize, 63, 64, 65, 127, 128, 129, 1000] {
        for alphabet in [1u64, 2, 5, 16, 0] {
            for _case in 0..3 {
                let n = m + rng.usize_below(70);
                let (xs, ys): (Vec<u64>, Vec<u64>) = if alphabet == 0 {
                    let draw = |rng: &mut Xoshiro256, k: usize| -> Vec<u64> {
                        let picks = rng.sample_indices(2 * n, k);
                        picks.into_iter().map(|s| 100 + s as u64).collect()
                    };
                    (draw(&mut rng, n), draw(&mut rng, m))
                } else {
                    let mut draw = |k: usize| (0..k).map(|_| rng.below(alphabet)).collect();
                    (draw(n), draw(m))
                };
                let mut x = vec![TraceNode::Event(ev(u64::MAX, 0))];
                x.extend(xs.iter().map(|&s| node_of(s, 0)));
                x.push(TraceNode::Event(ev(u64::MAX - 1, 0)));
                let a = CompressedTrace::from_nodes(x);
                let b = CompressedTrace::from_nodes(ys.iter().map(|&s| node_of(s, 1)).collect());
                for (p, q) in [(&a, &b), (&b, &a)] {
                    let (fast, met) = merge_traces_with_metrics(p, q);
                    assert_eq!((met.mid_long, met.mid_short), (n + 2, m));
                    assert!(met.peak_dp_alloc <= m + 1);
                    assert_eq!(
                        fast,
                        merge_traces_reference(p, q),
                        "m={m} n={n} alphabet={alphabet}"
                    );
                }
            }
        }
    }
}

#[test]
fn dp_cells_are_pinned() {
    // `dp_cells` feeds the modeled tool clock, so every journal and golden
    // hangs on its exact values: the cells each row pass *covers*,
    // (x1 - x0)·(y1 - y0) per Hirschberg split, not the word-ops spent on
    // them. The expected counts were read off the scalar aligner before it
    // was replaced; a change to the recursion's shape moves them even when
    // the merged trace stays byte-identical.
    let cells = |a: &CompressedTrace, b: &CompressedTrace| {
        let (_, met) = merge_traces_with_metrics(a, b);
        (met.mid_long, met.mid_short, met.dp_cells)
    };
    // Disjoint, n = 1024: nothing trims, every split cuts y at 0.
    let a = trace_of(0, 1..=1024);
    let b = trace_of(1, 1025..=2048);
    assert_eq!(cells(&a, &b), (1024, 1024, 2_095_104));
    // Near-identical, n = 1024: rank-private sites at 256 and 768 leave a
    // 513-node middle that matches everywhere but at its two ends.
    let near = |rank: usize| {
        trace_of(
            rank,
            (0..1024u64).map(|s| match s {
                256 | 768 => 1_000_000 + 2 * s + rank as u64,
                _ => s + 1,
            }),
        )
    };
    assert_eq!(cells(&near(0), &near(1)), (513, 513, 525_321));
    // A 3 × 2 middle (one shared site) and a 2 × 1 middle (none).
    let a = trace_of(0, [10, 1, 11, 2, 12]);
    let b = trace_of(1, [10, 3, 1, 12]);
    assert_eq!(cells(&a, &b), (3, 2, 6));
    let a = trace_of(0, [10, 1, 2, 12]);
    let b = trace_of(1, [10, 3, 12]);
    assert_eq!(cells(&a, &b), (2, 1, 2));
}

#[test]
fn spmd_fold_keeps_one_contiguous_section_per_event() {
    // The left fold appends one rank per step; the ranklist union must
    // grow the accumulator's single section in place of re-deriving it
    // from members (which is what made the offline fold quadratic in P).
    const P: usize = 4096;
    let traces: Vec<CompressedTrace> = (0..P).map(|r| trace_of(r, 1..=24)).collect();
    let merged = merge_all(traces.iter());
    assert_eq!(merged.compressed_size(), 24);
    let all = RankSet::from_ranks(0..P);
    merged.visit_events(&mut |e| {
        assert_eq!(e.ranks, all);
        assert_eq!(e.ranks.sections().len(), 1);
        assert_eq!(e.ranks.sections()[0].dims(), [(P, 1)]);
    });
}

// Scaling gates. Their axes come from the committed merge-scaling plan, so
// they sweep what `chamtrace matrix run plans/merge_scaling.plan.json`
// sweeps: merge cases from its `workloads`, trace sizes from
// `classes × merge_base_n`, world sizes from `ranks`.

fn scaling_plan() -> MatrixPlan {
    MatrixPlan::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("plans/merge_scaling.plan.json"))
        .expect("committed merge-scaling plan parses and validates")
}

/// The root's tool-clock time after P ranks reduce their 24-site SPMD
/// traces through the radix tree: the modeled critical path of the online
/// merge. Virtual time, so one run per P is exact.
fn online_root_tool_s(p: usize) -> f64 {
    let report = World::new(WorldConfig::new(p))
        .run(|proc| {
            let mine = trace_of(proc.rank(), 1..=24);
            let participants: Vec<usize> = (0..proc.size()).collect();
            let out = radix_tree_merge(proc, DEFAULT_RADIX, &participants, &mine);
            if proc.rank() == 0 {
                let merged = out.merged.expect("root holds the merged trace");
                assert!(merged.dynamic_size() > 0, "empty online merge at the root");
            }
            assert_eq!(out.degraded, 0, "fault-free reduction must be exact");
            proc.tool_time()
        })
        .expect("online reduction world");
    report.results[0]
}

/// The online critical path grows with the reduction tree's depth, not
/// with P: from the smallest world to each larger one it may grow by the
/// depth ratio with 8× slack. A linear-in-P regression (the pre-tree
/// behaviour) is thousands of times over this line at P = 16384.
fn assert_online_merge_is_log_p(ranks: &[usize]) {
    let p_min = ranks[0];
    let t_min = online_root_tool_s(p_min);
    for &p in &ranks[1..] {
        let t = online_root_tool_s(p);
        let allowed = (p as f64).log2() / (p_min as f64).log2().max(1.0) * 8.0;
        println!(
            "online merge: t({p}) = {t:.6} s = {:.2}x t({p_min}) (allowed {allowed:.1}x)",
            t / t_min
        );
        assert!(
            t <= t_min * allowed,
            "online merge critical path is not O(log P): t({p}) = {t:.6}s vs \
             t({p_min}) = {t_min:.6}s (allowed {allowed:.1}x, got {:.1}x)",
            t / t_min
        );
    }
}

#[test]
fn online_merge_critical_path_is_log_p() {
    // Debug builds reach P = 4096 in seconds; the 16384-rank end of the
    // axis runs in the release-mode gate below.
    let ranks: Vec<usize> = scaling_plan()
        .ranks
        .into_iter()
        .filter(|&p| p <= 4096)
        .collect();
    assert_online_merge_is_log_p(&ranks);
}

/// Median nanoseconds per call of `a` and of `b`, over 11 batches of at
/// least 2 ms each. The two sides alternate batch by batch, in ABBA order
/// so that neither always runs first: host drift, and a disturbance that
/// recurs once per pair of batches, land on both alike.
fn paired_median_ns<A, B>(mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> (f64, f64) {
    fn batch_ns<T>(f: &mut impl FnMut() -> T) -> f64 {
        let start = Instant::now();
        let mut calls = 0u32;
        while start.elapsed() < Duration::from_millis(2) {
            black_box(f());
            calls += 1;
        }
        start.elapsed().as_nanos() as f64 / f64::from(calls)
    }
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let (xs, ys): (Vec<f64>, Vec<f64>) = (0..11)
        .map(|i| match i % 2 {
            0 => (batch_ns(&mut a), batch_ns(&mut b)),
            _ => {
                let y = batch_ns(&mut b);
                (batch_ns(&mut a), y)
            }
        })
        .unzip();
    (median(xs), median(ys))
}

#[test]
#[ignore = "wall-clock gates and a 16384-rank world: run in release with \
            `cargo test --release --test merge_invariants -- --ignored`"]
fn merge_scaling_gates() {
    let plan = scaling_plan();

    // The fast merge has to earn its place next to its own oracle: never
    // slower than 1.25× the full table (identical and near-identical
    // inputs trim away on both, so they tie), and ≥ 2× faster where the
    // whole middle reaches the aligner.
    for class in &plan.classes {
        let n = (plan.merge_base_n * class.multiplier()) as u64;
        for case in &plan.workloads {
            let (a, b) = match case.as_str() {
                "MERGE_IDENTICAL" => (trace_of(0, 1..=n), trace_of(1, 1..=n)),
                // One rank-private site in the middle: the shared backbone
                // trims away and only the divergence reaches the aligner.
                "MERGE_NEAR" => {
                    let near = |rank: usize| {
                        let private = 1_000_000 + rank as u64;
                        trace_of(
                            rank,
                            (1..=n).map(|s| if s == n / 2 + 1 { private } else { s }),
                        )
                    };
                    (near(0), near(1))
                }
                "MERGE_DISJOINT" => (trace_of(0, 1..=n), trace_of(1, n + 1..=2 * n)),
                other => panic!("merge-scaling plan lists a non-merge workload {other:?}"),
            };
            let (fast, reference) =
                paired_median_ns(|| merge_traces(&a, &b), || merge_traces_reference(&a, &b));
            let speedup = reference / fast;
            println!("{case}/{n}: fast {fast:.0} ns, reference {reference:.0} ns, {speedup:.2}x");
            assert!(
                speedup >= 0.8,
                "fast path slower than 1.25x the reference: {case}/{n} = {speedup:.2}x"
            );
            if case == "MERGE_DISJOINT" && n >= 512 {
                assert!(
                    speedup >= 2.0,
                    "fast path must be ≥2x the reference on disjoint traces at n={n}, \
                     got {speedup:.2}x"
                );
            }
        }
    }

    // The offline fold of SPMD traces is linear in P: 4× the traces may
    // cost up to 6× the time (the inputs fall out of cache); the
    // member-expanding union this replaced cost 16×.
    let spmd = |p: usize| -> Vec<CompressedTrace> { (0..p).map(|r| trace_of(r, 1..=24)).collect() };
    let (small, large) = (spmd(1024), spmd(4096));
    let (t1024, t4096) = paired_median_ns(|| merge_all(small.iter()), || merge_all(large.iter()));
    let growth = t4096 / t1024;
    println!("offline fold: spmd/1024 {t1024:.0} ns, spmd/4096 {t4096:.0} ns, {growth:.2}x");
    assert!(
        growth <= 6.0,
        "offline SPMD fold is not linear in P: spmd/4096 = {growth:.1}x spmd/1024"
    );

    // Last, so that tearing down 16384 rank stacks does not overlap the
    // timed batches above.
    assert_online_merge_is_log_p(&plan.ranks);
}
