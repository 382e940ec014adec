//! Durable checkpoints, deputy replication, and root failover.
//!
//! Three layers under test:
//!
//! 1. the `CKPT1` codec on real blobs produced by a live run
//!    (truncate-and-flip hardening, integration-scale);
//! 2. kill-and-resume on the fault-free path: a run killed after marker N
//!    and resumed from the on-disk checkpoint must produce a final online
//!    trace byte-identical to an uninterrupted run;
//! 3. root-crash chaos: rank 0 — historically immortal — dies mid-run,
//!    the deputy is promoted with its replica, and the supervised harness
//!    completes with a valid journal and non-empty online trace.

use std::path::{Path, PathBuf};

use chameleon::{Chameleon, ChameleonConfig, Checkpoint};
use clusterkit::{ClusterEntry, ClusterMap, LeadSelection};
use mpisim::{Comm, World, WorldConfig};
use scalatrace::{CompressedTrace, Endpoint, EventRecord, MpiOp, TracedProc};
use sigkit::{CallPathSig, SignatureTriple, StackSig};
use workloads::chaos::{
    chaos_step, latest_checkpoint, marker_entry_ops, root_crash_plan, run_chaos_supervised,
};
use xrand::Xoshiro256;

/// Fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cham_reco_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run the (fault-free) chaos ring for `steps` markers and return the
/// finalized online trace as text. `kill_after = Some(n)` stops every
/// rank after marker `n` without finalizing — the simulated `kill -9`.
fn run_ring(
    p: usize,
    steps: usize,
    kill_after: Option<usize>,
    cfg: ChameleonConfig,
) -> Option<String> {
    let report = World::new(WorldConfig::new(p))
        .run(move |proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(cfg.clone());
            let n = kill_after.unwrap_or(steps);
            for step in 0..n {
                let alive = cham.alive().to_vec();
                chaos_step(&mut tp, &alive, step);
                cham.marker(&mut tp);
            }
            if kill_after.is_some() {
                return None; // died with partial state; no finalize
            }
            cham.finalize(&mut tp)
                .online_trace
                .map(|t| scalatrace::format::to_text(&t))
        })
        .expect("fault-free ring cannot fail");
    report.results.into_iter().flatten().next()
}

fn load_latest(dir: &Path) -> (u64, Checkpoint) {
    let (marker, path) = latest_checkpoint(dir).expect("checkpointed run left blobs");
    let bytes = std::fs::read(path).unwrap();
    (
        marker,
        Checkpoint::decode(&bytes).expect("on-disk blob decodes"),
    )
}

const P: usize = 4;
const STEPS: usize = 12;
const STRIDE: u64 = 2;

#[test]
fn kill_and_resume_matches_uninterrupted_golden() {
    // Uninterrupted run, checkpointing off: the reference trace.
    let golden = run_ring(P, STEPS, None, ChameleonConfig::with_k(P)).expect("root trace");

    // Checkpointing must be passive: arming the stride (replication over
    // the obs plane + disk writes) cannot change the final trace.
    let dir_full = scratch("full");
    let armed = run_ring(
        P,
        STEPS,
        None,
        ChameleonConfig::with_k(P)
            .with_checkpoint_stride(STRIDE)
            .with_checkpoint_dir(&dir_full),
    )
    .expect("root trace");
    assert_eq!(armed, golden, "checkpointing perturbed the online trace");

    // Kill after marker 7: the latest durable checkpoint closes marker 6.
    let dir_kill = scratch("kill");
    let killed = run_ring(
        P,
        STEPS,
        Some(7),
        ChameleonConfig::with_k(P)
            .with_checkpoint_stride(STRIDE)
            .with_checkpoint_dir(&dir_kill),
    );
    assert!(killed.is_none(), "a killed run finalizes nothing");
    let (marker, ckpt) = load_latest(&dir_kill);
    assert_eq!(marker, 6);
    assert_eq!(ckpt.marker, 6);
    assert_eq!(ckpt.root, 0);
    assert_eq!(ckpt.alive, (0..P).collect::<Vec<_>>());

    // Resume: replay from step 0, fast-forward to marker 6 (merges
    // skipped, checkpoint trace installed), then run out normally. The
    // result must be byte-identical to the uninterrupted golden.
    let resumed = run_ring(
        P,
        STEPS,
        None,
        ChameleonConfig::with_k(P)
            .with_checkpoint_stride(STRIDE)
            .with_resume(ckpt.clone()),
    )
    .expect("resumed run finalizes on the root");
    assert_eq!(
        resumed, golden,
        "kill-at-6-then-resume diverged from golden"
    );

    // Resume is idempotent: replaying from the same checkpoint twice
    // yields the same bytes again.
    let resumed_again = run_ring(
        P,
        STEPS,
        None,
        ChameleonConfig::with_k(P)
            .with_checkpoint_stride(STRIDE)
            .with_resume(ckpt),
    )
    .expect("resumed run finalizes on the root");
    assert_eq!(resumed_again, resumed);

    let _ = std::fs::remove_dir_all(dir_full);
    let _ = std::fs::remove_dir_all(dir_kill);
}

#[test]
fn live_checkpoint_blob_survives_truncate_and_flip() {
    // Harden the decoder against a *rich* blob from a live run (trace,
    // selection, metrics all populated), not just a synthetic specimen.
    let dir = scratch("codec");
    run_ring(
        P,
        STEPS,
        None,
        ChameleonConfig::with_k(P)
            .with_checkpoint_stride(STRIDE)
            .with_checkpoint_dir(&dir),
    )
    .expect("root trace");
    let (_, path) = latest_checkpoint(&dir).unwrap();
    let wire = std::fs::read(path).unwrap();
    assert!(Checkpoint::decode(&wire).is_ok());
    for cut in 0..wire.len() {
        assert!(
            Checkpoint::decode(&wire[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded",
            wire.len()
        );
    }
    for i in 0..wire.len() {
        let mut bad = wire.clone();
        bad[i] ^= 0xA5;
        assert!(
            Checkpoint::decode(&bad).is_err(),
            "flip at byte {i}/{} went unnoticed",
            wire.len()
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A random (but structurally valid) checkpoint: every field drawn from
/// its full legal shape — empty through populated traces, optional lead
/// selections, arbitrary metric payloads, sparse alive sets.
fn random_checkpoint(rng: &mut Xoshiro256) -> Checkpoint {
    let p = 2 + rng.usize_below(7);
    // Ascending sparse alive set that always contains at least one rank.
    let alive: Vec<usize> = (0..p).filter(|&r| r == 0 || rng.gen_bool(0.7)).collect();
    let mut trace = CompressedTrace::new();
    for s in 0..rng.usize_below(24) {
        trace.append(EventRecord::new(
            MpiOp::send(
                Endpoint::Relative(1),
                0,
                32 + rng.usize_below(256),
                Comm::WORLD,
            ),
            StackSig(1 + rng.below(1 << 40)),
            rng.usize_below(p),
            1e-6 * (1 + s) as f64,
        ));
    }
    let selection = rng.gen_bool(0.5).then(|| {
        let mut map = ClusterMap::new();
        for &r in &alive {
            let triple = SignatureTriple {
                call_path: CallPathSig(1 + rng.below(1 << 30)),
                src: rng.below(1 << 20),
                dest: rng.below(1 << 20),
            };
            map.insert(triple.call_path, ClusterEntry::singleton(r, &triple));
        }
        let leads = map.leads();
        let effective_k = leads.len();
        LeadSelection {
            map,
            leads,
            effective_k,
        }
    });
    // The metric payload is either absent (plane off) or a valid
    // `MetricSet::encode_with_count` frame — the decoder validates it.
    let metrics = if rng.gen_bool(0.5) {
        Vec::new()
    } else {
        let mut m = obs::metrics::MetricSet::new();
        for c in obs::metrics::Counter::ALL {
            if rng.gen_bool(0.5) {
                m.add(c, rng.below(1 << 30));
            }
        }
        for h in obs::metrics::HistId::ALL {
            for _ in 0..rng.usize_below(8) {
                m.observe(h, rng.below(1 << 40));
            }
        }
        m.encode_with_count(1 + rng.below(64))
    };
    Checkpoint {
        marker: rng.below(1 << 32),
        marker_calls: rng.below(1 << 32),
        root: alive[rng.usize_below(alive.len())] as u64,
        alive,
        old_call_path: CallPathSig(rng.below(u64::MAX)),
        re_clustering: rng.gen_bool(0.5),
        lead_flag: rng.gen_bool(0.5),
        selection,
        trace,
        metrics,
        journal_hwm: rng.below(1 << 32),
    }
}

#[test]
fn random_blobs_roundtrip_byte_identical_across_all_strides() {
    // Fuzz-style table test for the CKPT1 codec, two layers:
    //
    // 1. Synthetic: random valid checkpoints must encode → decode →
    //    re-encode to byte-identical wire (a canonical encoding; any
    //    normalization drift would silently invalidate stored blobs).
    // 2. Live: a checkpointing ring run at *every* stride 1..=8 leaves
    //    blobs on disk, each of which must round-trip byte-identical —
    //    the stride axis changes capture cadence, never the wire format.
    let mut rng = Xoshiro256::seed_from_u64(0xCC_B10B);
    for i in 0..200 {
        let ckpt = random_checkpoint(&mut rng);
        let wire = ckpt.encode();
        let decoded = Checkpoint::decode(&wire)
            .unwrap_or_else(|e| panic!("blob {i} failed to decode: {e:?}"));
        assert_eq!(decoded.marker, ckpt.marker, "blob {i}");
        assert_eq!(decoded.alive, ckpt.alive, "blob {i}");
        assert_eq!(
            decoded.selection.is_some(),
            ckpt.selection.is_some(),
            "blob {i}"
        );
        assert_eq!(
            decoded.encode(),
            wire,
            "blob {i}: re-encode is not byte-identical"
        );
    }

    for stride in 1..=8u64 {
        let dir = scratch(&format!("stride{stride}"));
        run_ring(
            P,
            STEPS,
            None,
            ChameleonConfig::with_k(P)
                .with_checkpoint_stride(stride)
                .with_checkpoint_dir(&dir),
        )
        .expect("root trace");
        let mut blobs = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "bin") {
                let wire = std::fs::read(&path).unwrap();
                let ckpt = Checkpoint::decode(&wire).unwrap_or_else(|e| {
                    panic!(
                        "stride {stride}: {} failed to decode: {e:?}",
                        path.display()
                    )
                });
                assert_eq!(
                    ckpt.encode(),
                    wire,
                    "stride {stride}: {} re-encode drifted",
                    path.display()
                );
                blobs += 1;
            }
        }
        // One blob per stride-closing marker: markers are 1-based on
        // capture, so a 12-marker run at stride s leaves floor(12/s).
        assert_eq!(
            blobs,
            (STEPS as u64 / stride) as usize,
            "stride {stride}: wrong number of durable blobs"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn root_crash_promotes_deputy_and_completes_with_journal() {
    // The acceptance scenario: rank 0 dies at a mid-run marker boundary
    // under a lossy link; the supervised run must complete with a
    // promoted deputy, a parseable journal, and a non-empty online trace.
    let seed = 0xC0FFEE;
    let p = 6;
    let steps = 30;
    let ops = marker_entry_ops(p, steps, root_crash_plan(seed, 0));
    let dir = scratch("rootcrash");
    let sup = run_chaos_supervised(p, steps, root_crash_plan(seed, ops[10]), STRIDE, &dir, true);

    assert_eq!(sup.outcome.crashed, vec![0], "rank 0 must be the victim");
    assert!(sup.outcome.stats[0].is_none());
    assert!(
        sup.outcome.online_trace.dynamic_size() > 0,
        "promoted deputy must surface a non-empty online trace"
    );
    // Every survivor counted the same single promotion.
    for s in sup.outcome.stats.iter().flatten() {
        assert_eq!(s.promotions, 1);
    }
    let journal = sup.outcome.journal.as_ref().expect("recorded run");
    // The journal must survive a serialize/parse roundtrip (validity).
    let parsed = obs::RunJournal::from_jsonl(&journal.to_jsonl()).expect("journal parses");
    assert_eq!(parsed.count("promote"), journal.count("promote"));
    assert!(
        journal.count("checkpoint") >= 1,
        "root checkpointed before dying"
    );
    // The promoted deputy (rank 1) restored from its replica: the crash
    // struck marker 11, after the marker-10 replication.
    let promotes: Vec<(usize, u64, u64)> = journal
        .events()
        .filter_map(|(rank, e)| match e.kind {
            obs::EventKind::Promote {
                old_root, restored, ..
            } => Some((rank, old_root, restored)),
            _ => None,
        })
        .collect();
    assert_eq!(
        promotes,
        vec![(1, 0, 1)],
        "deputy promotes with its replica"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn root_crash_at_every_early_mid_late_marker_is_deterministic() {
    // Crash rank 0 at the first, a middle, and the last marker boundary;
    // each supervised run must complete, and re-running the same seed
    // must reproduce the final trace byte-for-byte (the shrink-golden
    // property: the outcome is a pure function of the plan).
    let seed = 0x5EED;
    let p = 4;
    let steps = 10;
    let ops = marker_entry_ops(p, steps, root_crash_plan(seed, 0));
    for m in [0, steps / 2, steps - 1] {
        let dir_a = scratch(&format!("det_a_{m}"));
        let dir_b = scratch(&format!("det_b_{m}"));
        let a = run_chaos_supervised(
            p,
            steps,
            root_crash_plan(seed, ops[m]),
            STRIDE,
            &dir_a,
            false,
        );
        let b = run_chaos_supervised(
            p,
            steps,
            root_crash_plan(seed, ops[m]),
            STRIDE,
            &dir_b,
            false,
        );
        assert_eq!(a.outcome.crashed, vec![0]);
        assert!(a.outcome.online_trace.dynamic_size() > 0, "marker {m}");
        assert_eq!(
            scalatrace::format::to_text(&a.outcome.online_trace),
            scalatrace::format::to_text(&b.outcome.online_trace),
            "same-seed root-crash runs diverged at marker {m}"
        );
        assert_eq!(a.restarts, b.restarts);
        // A crash at the very first marker precedes any replication: the
        // promotion must report an empty restore, later ones a replica.
        let s1 = a.outcome.stats[1].as_ref().expect("deputy survives");
        assert_eq!(s1.promotions, 1, "marker {m}");
        let _ = std::fs::remove_dir_all(dir_a);
        let _ = std::fs::remove_dir_all(dir_b);
    }
}
