//! Microbench: inter-node merge scaling — the merge against its oracle.
//!
//! The pairwise merge is the O(n²) factor in the paper's complexity
//! analysis (n = compressed trace size); merging across ranks is the
//! O(n² log P) bottleneck Chameleon removes. This bench exposes three
//! axes: n (trace size), structural similarity (identical / near-identical
//! / disjoint), and the number of traces folded — and runs both merge
//! implementations on each:
//!
//! - `pairwise_fast` — `merge_traces`: diagonal trim, then Hirschberg's
//!   linear-memory alignment with word-parallel LCS rows over interned
//!   node ids.
//! - `pairwise_reference` — `merge_traces_reference`: the correctness
//!   oracle (shares the trim, so it is also fast on SPMD traces; a scalar
//!   full table over the untrimmed middle).
//!
//! The axes — merge cases, trace sizes, and fold widths — come from the
//! committed scenario-matrix plan `plans/merge_scaling.plan.json` (cases
//! from its `workloads`, sizes from `classes × merge_base_n`, fold
//! widths from `ranks`), so this bench and `chamtrace matrix run`
//! exercise the same sweep.
//!
//! A fourth, world-backed axis runs the *online* path end to end: for
//! every P on the plan's ranks axis (now up to 16384) a simulated world
//! reduces per-rank traces through the radix tree and records the root's
//! tool-clock time — the modeled critical path, which must grow with the
//! tree depth (O(log P)), not with P.
//!
//! Results (plus derived speedups and the online curve) land in
//! `experiments_out/merge_scaling.json`; the run asserts that the fast
//! path is never slower than 1.25× the oracle and ≥2× faster on disjoint
//! traces at n ≥ 512 (where the whole middle reaches the aligner), that
//! the offline SPMD fold grows linearly in P, and the O(log P) growth of
//! the online critical path.
//! Regenerate with `cargo bench -p chameleon-bench --bench merge_scaling`.

use std::path::Path;

use chameleon_bench::harness::Harness;
use mpisim::{Comm, World, WorldConfig};
use scalatrace::merge::{merge_all, merge_traces, merge_traces_reference};
use scalatrace::reduction::{radix_tree_merge, DEFAULT_RADIX};
use scalatrace::{CompressedTrace, Endpoint, EventRecord, MpiOp};
use sigkit::StackSig;
use workloads::matrix::MatrixPlan;

/// A trace of `n` distinct sites with signatures starting at `base + 1`.
fn trace_with_sites(rank: usize, n: usize, base: u64) -> CompressedTrace {
    let mut t = CompressedTrace::new();
    for s in 0..n {
        t.append(EventRecord::new(
            MpiOp::send(Endpoint::Relative(1), 0, 64, Comm::WORLD),
            StackSig(base + s as u64 + 1),
            rank,
            1e-6,
        ));
    }
    t
}

/// SPMD with one rank-private site in the middle: the shared backbone
/// trims away; only the divergence reaches the aligner.
fn near_identical(rank: usize, n: usize) -> CompressedTrace {
    let mut t = CompressedTrace::new();
    for s in 0..n {
        let sig = if s == n / 2 {
            1_000_000 + rank as u64
        } else {
            s as u64 + 1
        };
        t.append(EventRecord::new(
            MpiOp::send(Endpoint::Relative(1), 0, 64, Comm::WORLD),
            StackSig(sig),
            rank,
            1e-6,
        ));
    }
    t
}

fn main() {
    let plan = MatrixPlan::load(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("../../plans/merge_scaling.plan.json"),
    )
    .expect("committed merge-scaling plan parses and validates");
    let cases: Vec<&str> = plan
        .workloads
        .iter()
        .map(|w| match w.as_str() {
            "MERGE_IDENTICAL" => "identical",
            "MERGE_NEAR" => "near_identical",
            "MERGE_DISJOINT" => "disjoint",
            other => panic!("merge-scaling plan lists a non-merge workload {other:?}"),
        })
        .collect();
    let sizes: Vec<usize> = plan
        .classes
        .iter()
        .map(|c| plan.merge_base_n * c.multiplier())
        .collect();

    let mut h = Harness::new();
    for &n in &sizes {
        for &case in &cases {
            let label = format!("{case}/{n}");
            let (a, b) = match case {
                "identical" => (trace_with_sites(0, n, 0), trace_with_sites(1, n, 0)),
                "near_identical" => (near_identical(0, n), near_identical(1, n)),
                "disjoint" => (trace_with_sites(0, n, 0), trace_with_sites(1, n, n as u64)),
                _ => unreachable!(),
            };
            h.bench("pairwise_fast", &label, || merge_traces(&a, &b));
            h.bench("pairwise_reference", &label, || {
                merge_traces_reference(&a, &b)
            });
        }
    }

    // Folding P SPMD traces: the work ScalaTrace does at finalize (P
    // traces) vs Chameleon online (K traces). The P-axis is the paper's
    // whole point; with ranklists unioned section-wise the offline fold
    // is O(P·n) on SPMD input, so the whole axis runs.
    for &p in &plan.ranks {
        let traces: Vec<CompressedTrace> = (0..p).map(|r| trace_with_sites(r, 24, 0)).collect();
        h.bench("merge_p_traces", &format!("spmd/{p}"), || {
            merge_all(traces.iter())
        });
    }
    let traces: Vec<CompressedTrace> = (0..9).map(|r| trace_with_sites(r, 24, 0)).collect();
    h.bench("merge_p_traces", "chameleon_k9", || {
        merge_all(traces.iter())
    });

    // World-backed online curve: P rank tasks (event scheduler) reduce
    // their per-rank SPMD traces through the radix tree; the root's
    // tool-clock time is the modeled critical path of the online merge.
    // One deterministic run per P — the metric is virtual time, so wall
    // repetition adds nothing. The plan's ranks axis takes this to
    // P = 16384, where a thread-per-rank engine would be thrashing
    // thousands of pollers; here it is 16384 parked continuations.
    let mut online: Vec<(usize, f64)> = Vec::new();
    for &p in &plan.ranks {
        let report = World::new(WorldConfig::new(p))
            .run(move |proc| {
                let mine = trace_with_sites(proc.rank(), 24, 0);
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
        online.push((p, report.results[0]));
    }

    // Derived speedups: oracle median / fast median per case and size.
    let mut derived: Vec<(String, f64)> = Vec::new();
    for &(p, tool_s) in &online {
        derived.push((format!("online_root_tool_s_p{p}"), tool_s));
    }
    for &case in &cases {
        for &n in &sizes {
            let label = format!("{case}/{n}");
            let fast = h
                .median_ns("pairwise_fast", &label)
                .expect("fast sample recorded");
            let reference = h
                .median_ns("pairwise_reference", &label)
                .expect("reference sample recorded");
            derived.push((format!("speedup_{case}_n{n}"), reference / fast));
        }
    }
    let fold_ns = |p: usize| {
        h.median_ns("merge_p_traces", &format!("spmd/{p}"))
            .expect("fold sample recorded")
    };
    let fold_growth = fold_ns(4096) / fold_ns(1024);
    derived.push(("fold_growth_p1024_to_p4096".to_string(), fold_growth));

    h.print_summary();
    println!();
    for (key, value) in &derived {
        println!("{key} = {value:.2}x");
    }

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../experiments_out")
        .join("merge_scaling.json");
    h.write_json(&out, &derived).expect("write JSON artifact");
    println!("\nwrote {}", out.display());

    // Acceptance gate: one merge has to earn its place next to its own
    // oracle — never slower than 1.25× the full table (identical and
    // near-identical inputs trim away on both, so they tie), and ≥2×
    // faster where the whole middle reaches the aligner.
    for (key, speedup) in derived.iter().filter(|(k, _)| k.starts_with("speedup_")) {
        assert!(
            *speedup >= 1.0 / 1.25,
            "fast path slower than 1.25x the reference: {key} = {speedup:.2}x"
        );
    }
    for n in sizes.iter().filter(|&&n| n >= 512) {
        let key = format!("speedup_disjoint_n{n}");
        let speedup = derived
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .expect("derived entry");
        assert!(
            speedup >= 2.0,
            "fast path must be ≥2x the reference on disjoint traces at n={n}, got {speedup:.2}x"
        );
    }
    println!("speedup gate passed (≥0.8x everywhere, ≥2x on disjoint traces at n ≥ 512)");

    // Acceptance gate: the offline fold of SPMD traces is linear in P.
    // 4× the traces may cost up to 6× the time (the inputs fall out of
    // cache); the member-expanding union this replaced cost 16×.
    assert!(
        fold_growth <= 6.0,
        "offline SPMD fold is not linear in P: spmd/4096 = {fold_growth:.1}x spmd/1024"
    );
    println!("fold-growth gate passed (spmd/4096 = {fold_growth:.1}x spmd/1024)");

    // Acceptance gate: the online merge's critical path grows with the
    // reduction tree's *depth*, not with P. Between the smallest and
    // largest world the allowed growth is the depth ratio with 8x slack —
    // a linear-in-P regression (the pre-tree behavior) is thousands of
    // times over this line at P = 16384.
    let (p_min, t_min) = online[0];
    let (p_max, t_max) = *online.last().expect("plan has a ranks axis");
    if p_max > p_min {
        let depth_ratio = (p_max as f64).log2() / (p_min as f64).log2().max(1.0);
        assert!(
            t_max <= t_min * depth_ratio * 8.0,
            "online merge critical path is not O(log P): \
             t({p_max}) = {t_max:.6}s vs t({p_min}) = {t_min:.6}s \
             (allowed {:.1}x, got {:.1}x)",
            depth_ratio * 8.0,
            t_max / t_min
        );
        println!(
            "online-merge gate passed (t({p_max}) = {:.2}x t({p_min}), depth ratio {:.1})",
            t_max / t_min,
            depth_ratio
        );
    }
}
