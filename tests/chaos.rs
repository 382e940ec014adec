//! Chaos suite: randomized fault plans over the chaos ring workload.
//!
//! Every seed in `CI_SEEDS` must complete — one rank crash plus a 2%
//! payload-corruption link — with a non-empty online trace at rank 0,
//! counted degraded slices, and zero hangs (a wedged run ends at the
//! scheduler's proven stall as a typed timeout and fails loudly instead of
//! timing out CI).
//!
//! Runs are made with the flight recorder armed, and the counters the
//! suite used to trust blindly are cross-checked against the journal's
//! event sequences: the planned crash is witnessed exactly once and is
//! the victim's final recorded act, re-elections move leadership away
//! from dead ranks only, and death detection never names a living peer.
//!
//! On failure the offending fault plan is written to
//! `experiments_out/chaos_seed_<seed>.plan` and the full journal to
//! `experiments_out/chaos_seed_<seed>.journal.jsonl` so the run is
//! replayable and inspectable offline (see OBSERVABILITY.md).

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;

use chameleon_repro::obs::EventKind;
use chameleon_repro::scalatrace::format;
use chameleon_repro::workloads::chaos::{
    chaos_plan, marker_entry_ops, root_crash_plan, run_chaos, run_chaos_recorded,
    run_chaos_supervised, ChaosOutcome,
};
use chameleon_repro::workloads::matrix::{FaultSpec, MatrixPlan, Trial};

/// The seed set, rank count, and step count now live in the committed
/// scenario-matrix plan — the same file `chamtrace matrix run` replays —
/// so the suite and the runner can never drift apart. The seeds are
/// deliberately spread so victims, crash times, and corruption patterns
/// differ across entries.
fn load_plan(file: &str) -> MatrixPlan {
    MatrixPlan::load(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("plans")
            .join(file),
    )
    .expect("committed plan parses and validates")
}

fn artifact_path(seed: u64, ext: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("experiments_out")
        .join(format!("chaos_seed_{seed:#x}.{ext}"))
}

/// Dump the replay recipe (and the journal, when one was gathered) next
/// to the test binary's output so a CI failure is a file, not a log line.
fn dump_artifacts(seed: u64, recipe: &str, outcome: Option<&ChaosOutcome>) {
    let plan_path = artifact_path(seed, "plan");
    let _ = std::fs::create_dir_all(plan_path.parent().unwrap());
    let _ = std::fs::write(&plan_path, recipe);
    eprintln!(
        "chaos seed {seed:#x} failed; plan written to {}",
        plan_path.display()
    );
    if let Some(journal) = outcome.and_then(|o| o.journal.as_ref()) {
        let journal_path = artifact_path(seed, "journal.jsonl");
        let _ = std::fs::write(&journal_path, journal.to_jsonl());
        eprintln!("journal written to {}", journal_path.display());
    }
}

/// Run one expanded trial with the recorder armed and check both the
/// coarse counters and the journal's event sequences, dumping the
/// artifacts if any assertion fails.
fn run_seed(trial: &Trial, steps: usize) -> ChaosOutcome {
    let (seed, ranks) = (trial.seed, trial.p);
    assert_eq!(
        trial.fault,
        FaultSpec::Chaos,
        "chaos10 is a chaos-fault plan"
    );
    let plan = chaos_plan(seed, ranks);
    let recipe = format!("{plan}\nranks={ranks} steps={steps}\n");
    let out = match std::panic::catch_unwind(|| {
        run_chaos_recorded(ranks, steps, chaos_plan(seed, ranks))
    }) {
        Ok(out) => out,
        Err(payload) => {
            dump_artifacts(seed, &recipe, None);
            std::panic::resume_unwind(payload);
        }
    };
    if let Err(payload) =
        std::panic::catch_unwind(AssertUnwindSafe(|| check_seed(seed, ranks, &out)))
    {
        dump_artifacts(seed, &recipe, Some(&out));
        std::panic::resume_unwind(payload);
    }
    out
}

fn check_seed(seed: u64, ranks: usize, out: &ChaosOutcome) {
    let crash = chaos_plan(seed, ranks).crash.expect("chaos crashes");
    let victim = crash.rank;

    assert_eq!(out.crashed, vec![victim], "exactly the planned rank dies");
    assert!(out.stats[victim].is_none(), "dead rank reports nothing");
    assert!(out.fault_stats[victim].crashed);
    assert!(
        out.online_trace.dynamic_size() > 0,
        "online trace at rank 0 must be non-empty"
    );
    let s0 = out.stats[0].as_ref().expect("rank 0 is immortal");
    assert!(
        s0.degraded_slices >= 1,
        "a mid-run crash must be counted as degradation"
    );

    // Event-sequence checks against the journal: the counters above say
    // *how much* happened; the journal must agree on *what, where, and in
    // which order*.
    let journal = out
        .journal
        .as_ref()
        .expect("recorded run gathers a journal");
    assert!(journal.armed, "a chaos journal is always armed");

    let crashes: Vec<(usize, u64)> = journal
        .events()
        .filter_map(|(rank, e)| match e.kind {
            EventKind::Crash { op } => Some((rank, op)),
            _ => None,
        })
        .collect();
    assert_eq!(
        crashes,
        vec![(victim, crash.at_op)],
        "the journal witnesses exactly the planned crash"
    );

    // Dying is the last thing the victim does: nothing may be recorded
    // on that rank after its crash event.
    let victim_log = journal.rank_log(victim).expect("victim's log survives");
    assert!(
        matches!(
            victim_log.events.last().map(|e| &e.kind),
            Some(EventKind::Crash { .. })
        ),
        "the crash must be the victim's final recorded event"
    );

    // Re-elections move leadership off dead ranks and only onto living
    // ones; rank 0's event count must match its stats counter.
    for (rank, e) in journal.events() {
        if let EventKind::Reelect { old, new, .. } = e.kind {
            assert_eq!(
                old as usize, victim,
                "rank {rank} re-elected away from a living lead"
            );
            assert!(
                !out.crashed.contains(&(new as usize)),
                "rank {rank} elected the dead rank {new}"
            );
        }
        if let EventKind::PeerDead { peer } = e.kind {
            assert_eq!(
                peer as usize, victim,
                "rank {rank} declared a living peer dead"
            );
        }
    }
    let reelects_rank0 = journal
        .rank_log(0)
        .unwrap()
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Reelect { .. }))
        .count() as u64;
    assert_eq!(
        reelects_rank0, s0.lead_reelections,
        "rank 0's re-election events must match its counter"
    );
}

#[test]
fn every_ci_seed_completes_degraded_but_alive() {
    // Whether a particular seed's corruption coins land on the (few) tool
    // payloads is deterministic per seed but varies across seeds, so the
    // lossy-link evidence is asserted over the whole set.
    let plan = load_plan("chaos10.plan.json");
    let trials = plan.expand();
    assert_eq!(trials.len(), 10, "the chaos plan carries the 10 CI seeds");
    let mut corruptions = 0u64;
    for trial in &trials {
        let out = run_seed(trial, plan.steps);
        corruptions += out
            .fault_stats
            .iter()
            .map(|f| f.corruptions + f.duplicates + f.delays)
            .sum::<u64>();
    }
    assert!(
        corruptions > 0,
        "the 2% lossy link never touched a payload across {} seeds",
        trials.len()
    );
}

#[test]
fn same_plan_same_seed_is_bit_identical() {
    // The whole fault layer is virtual-time deterministic: coins are
    // hashed from (seed, sender, nonce), death detection is
    // message-driven, and retransmits are sender-observed. Two runs of
    // the same plan must therefore produce byte-identical degraded
    // online traces, identical degradation counters, and byte-identical
    // journals.
    let plan = load_plan("chaos10.plan.json");
    for trial in &plan.expand()[..3] {
        let seed = trial.seed;
        let a = run_seed(trial, plan.steps);
        let b = run_seed(trial, plan.steps);
        assert_eq!(
            format::to_text(&a.online_trace),
            format::to_text(&b.online_trace),
            "seed {seed:#x}: degraded online trace must be reproducible"
        );
        let (sa, sb) = (a.stats[0].as_ref().unwrap(), b.stats[0].as_ref().unwrap());
        assert_eq!(sa.degraded_slices, sb.degraded_slices);
        assert_eq!(sa.lead_reelections, sb.lead_reelections);
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(
            a.journal.unwrap().to_jsonl(),
            b.journal.unwrap().to_jsonl(),
            "seed {seed:#x}: armed journal must be byte-reproducible"
        );
    }
}

#[test]
fn root_crash_matrix_completes_with_promoted_deputy() {
    // The CI root-crash matrix (FAULTS.md "Recovery"): kill rank 0 at the
    // first, a middle, and the last marker boundary across three seeds.
    // Every cell must complete with the deputy promoted and a non-empty
    // online trace. Artifacts — the final on-disk checkpoint set and the
    // armed journal — are written under `experiments_out/rootcrash_*` so
    // CI uploads them as run evidence, not just on failure.
    let plan = load_plan("rootcrash.plan.json");
    let trials = plan.expand();
    assert_eq!(trials.len(), 9, "3 seeds x 3 crash points");
    for trial in &trials {
        let seed = trial.seed;
        let m = match trial.fault {
            FaultSpec::RootCrash(point) => point.marker(plan.steps),
            other => panic!("rootcrash plan expanded a {other:?} trial"),
        };
        // One fault-free probe per trial maps marker index -> rank 0's op
        // count at the marker's entry tick (coins are pure in the seed,
        // so the probe schedule matches the armed run's pre-crash path).
        let ops = marker_entry_ops(trial.p, plan.steps, root_crash_plan(seed, 0));
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("experiments_out")
            .join(format!("rootcrash_{seed:#x}_m{m}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sup = run_chaos_supervised(
            trial.p,
            plan.steps,
            root_crash_plan(seed, ops[m]),
            trial.ckpt_stride,
            &dir,
            trial.journal,
        );

        assert_eq!(
            sup.outcome.crashed,
            vec![0],
            "seed {seed:#x} marker {m}: rank 0 must be the only victim"
        );
        assert!(
            sup.outcome.online_trace.dynamic_size() > 0,
            "seed {seed:#x} marker {m}: promoted deputy roots an empty trace"
        );
        for s in sup.outcome.stats.iter().flatten() {
            assert_eq!(
                s.promotions, 1,
                "seed {seed:#x} marker {m}: survivors disagree on the promotion"
            );
        }
        let journal = sup
            .outcome
            .journal
            .as_ref()
            .expect("matrix runs are recorded");
        let promoted: Vec<usize> = journal
            .events()
            .filter_map(|(rank, e)| matches!(e.kind, EventKind::Promote { .. }).then_some(rank))
            .collect();
        assert_eq!(
            promoted,
            vec![1],
            "seed {seed:#x} marker {m}: exactly the deputy records the promotion"
        );
        let _ = std::fs::write(dir.join("run.journal.jsonl"), journal.to_jsonl());
    }
}

#[test]
fn heavier_loss_still_terminates() {
    // Crank drop + corruption well past the CI defaults; bounded retries
    // may degrade many slices, but the run must still complete with the
    // root's trace intact. (Drops are sender-observed and retransmitted,
    // so they cost time, not correctness.)
    let plan = chaos_plan(99, 4).drop_per_mille(100).corrupt_per_mille(100);
    let out = run_chaos(4, 30, plan);
    assert!(out.online_trace.dynamic_size() > 0);
    let retransmits: u64 = out.fault_stats.iter().map(|f| f.retransmits).sum();
    assert!(retransmits > 0, "10% drop must force retransmissions");
}
