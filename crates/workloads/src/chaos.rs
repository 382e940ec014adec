//! Chaos harness: an NAS-style ring workload driven under a randomized
//! fault plan.
//!
//! The harness exercises the whole shrink-and-continue stack at once: a
//! rank crashes mid-run, the link corrupts/duplicates/delays tool
//! payloads, and the run must still complete with a non-empty online
//! trace at the online root plus counted degradation — never a hang.
//! Fault plans are pure functions of a seed, so every CI failure is
//! replayable from the seed alone (see FAULTS.md).
//!
//! Two fault shapes are exercised:
//!
//! * [`chaos_plan`] — a non-root rank dies mid-run; the run shrinks and
//!   continues in-place.
//! * [`root_crash_plan`] — rank 0 itself dies. With durable checkpoints
//!   armed ([`run_chaos_supervised`]) the deputy is promoted in-place and
//!   restores the online trace from its replica; if the run nevertheless
//!   aborts (a mid-slice wedge caught by the typed timeout backstop), the
//!   supervisor restarts from the latest on-disk checkpoint and replays
//!   forward deterministically.

use std::path::{Path, PathBuf};

use chameleon::{Chameleon, ChameleonConfig, ChameleonStats, Checkpoint};
use mpisim::{FaultPlan, FaultStats, Rank, World, WorldConfig};
use scalatrace::{CompressedTrace, TracedProc};

/// The fault plan for one chaos seed over `p` ranks: one mid-run rank
/// crash (never rank 0 — root death is [`root_crash_plan`]'s job) plus a
/// lossy link at 2% corruption, 0.5% duplication, and 0.5% delay.
/// Deterministic in `(seed, p)`.
pub fn chaos_plan(seed: u64, p: usize) -> FaultPlan {
    assert!(p >= 2, "chaos needs a rank that can die and a survivor");
    let victim = 1 + (seed as usize % (p - 1));
    let at_op = 40 + seed % 80;
    FaultPlan::new(seed)
        .crash_rank(victim, at_op)
        .corrupt_per_mille(20)
        .duplicate_per_mille(5)
        .delay(5, 2e-4)
}

/// A chaos plan that kills rank 0 — the online-trace root — at `at_op`,
/// under the same lossy link as [`chaos_plan`]. Schedule `at_op` from
/// [`marker_entry_ops`] to land the crash on a marker boundary, where the
/// resilient collectives detect it cleanly and promote the deputy.
pub fn root_crash_plan(seed: u64, at_op: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .crash_rank(0, at_op)
        .corrupt_per_mille(20)
        .duplicate_per_mille(5)
        .delay(5, 2e-4)
}

/// Probe run: execute the chaos workload under `plan` with its crash
/// stripped and return rank 0's op count at the entry of each marker.
/// Fault coins are pure in `(seed, sender, send_nonce)` and a crash only
/// perturbs the victim's own timeline after it fires, so scheduling
/// `crash_rank(0, ops[m])` in a second run kills rank 0 exactly at its
/// next op — the marker-`m+1` resilient barrier.
pub fn marker_entry_ops(p: usize, steps: usize, mut plan: FaultPlan) -> Vec<u64> {
    plan.crash = None;
    let config = WorldConfig::new(p).with_faults(plan);
    let report = World::new(config)
        .run_faulty(move |proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(ChameleonConfig::with_k(p));
            let mut ops = Vec::with_capacity(steps);
            for step in 0..steps {
                let alive = cham.alive().to_vec();
                chaos_step(&mut tp, &alive, step);
                ops.push(tp.inner().op_count());
                cham.marker(&mut tp);
            }
            cham.finalize(&mut tp);
            ops
        })
        .expect("crash-free probe run cannot fail");
    report.results[0]
        .clone()
        .expect("rank 0 survives a crash-free probe")
}

/// Steps per behavioral phase: the frame label alternates every block,
/// so the Call-Path changes and Chameleon re-clusters — each boundary
/// drives a flush merge plus a fresh clustering through the armed
/// protocol (NAS codes end phases with verification/norm steps the same
/// way).
pub const PHASE_LEN: usize = 10;

/// One ring timestep over the *agreed* surviving participant set: each
/// survivor sends to its successor and receives from its predecessor in
/// the shrunk ring. The receive tolerates a predecessor that died after
/// the last agreement (`recv_dead_aware`), so a mid-slice crash degrades
/// the slice instead of wedging the ring.
pub fn chaos_step(tp: &mut TracedProc, alive: &[Rank], step: usize) {
    let ring: Vec<Rank> = if alive.is_empty() {
        (0..tp.size()).collect()
    } else {
        alive.to_vec()
    };
    let me = tp.rank();
    let i = ring
        .iter()
        .position(|&r| r == me)
        .expect("a running rank is always in the agreed ring");
    let frame: &'static str = if (step / PHASE_LEN).is_multiple_of(2) {
        "chaos_ring_even"
    } else {
        "chaos_ring_odd"
    };
    tp.frame(frame, |tp| {
        tp.compute(1e-5);
        if ring.len() > 1 {
            let next = ring[(i + 1) % ring.len()];
            let prev = ring[(i + ring.len() - 1) % ring.len()];
            tp.send("chaos_halo_send", next, 11, &[0u8; 64]);
            let _ = tp.recv_dead_aware("chaos_halo_recv", prev, 11, 64);
        }
    });
}

/// Everything a chaos run produces, for assertions and failure artifacts.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The online global trace, from whichever survivor roots it — rank 0
    /// normally, the promoted deputy after a root crash.
    pub online_trace: CompressedTrace,
    /// Per-rank stats; `None` for the crashed rank.
    pub stats: Vec<Option<ChameleonStats>>,
    /// Ranks the plan killed.
    pub crashed: Vec<Rank>,
    /// Per-rank fault counters from the simulator.
    pub fault_stats: Vec<FaultStats>,
    /// The flight-recorder journal ([`run_chaos_recorded`] only).
    pub journal: Option<obs::RunJournal>,
}

/// Run `steps` chaos timesteps over `p` ranks under `plan` and return the
/// survivors' outcome. K is set to `p` so the cluster budget never forces
/// lead sharing — any behavioral split still elects per-group leads after
/// the ring shrinks.
pub fn run_chaos(p: usize, steps: usize, plan: FaultPlan) -> ChaosOutcome {
    run_chaos_with(p, steps, plan, false)
}

/// [`run_chaos`] with the flight recorder armed: the outcome additionally
/// carries the gathered run journal (crashed ranks included — their logs
/// survive the unwind).
pub fn run_chaos_recorded(p: usize, steps: usize, plan: FaultPlan) -> ChaosOutcome {
    run_chaos_with(p, steps, plan, true)
}

fn run_chaos_with(p: usize, steps: usize, plan: FaultPlan, record: bool) -> ChaosOutcome {
    run_chaos_result(p, steps, plan, record, ChameleonConfig::with_k(p))
        .expect("chaos run must degrade, not fail the world")
}

/// Run the chaos workload under an explicit Chameleon configuration
/// (checkpoint stride/dir/resume included) and surface a fatal world
/// abort — a wedge caught by the typed timeout backstop, or a non-crash
/// panic — as `Err` instead of panicking, so a supervisor can restart.
pub fn run_chaos_result(
    p: usize,
    steps: usize,
    plan: FaultPlan,
    record: bool,
    cham_cfg: ChameleonConfig,
) -> Result<ChaosOutcome, String> {
    run_chaos_result_on(p, steps, plan, record, cham_cfg, false)
}

/// [`run_chaos_result`] with an explicit scheduler choice:
/// `thread_sched = true` runs the world on the pre-refactor free-running
/// thread scheduler (the differential-testing oracle) instead of the
/// default event scheduler. Outcomes are byte-identical between the two
/// — `tests/sched_differential.rs` pins that over the full chaos grid.
pub fn run_chaos_result_on(
    p: usize,
    steps: usize,
    plan: FaultPlan,
    record: bool,
    cham_cfg: ChameleonConfig,
    thread_sched: bool,
) -> Result<ChaosOutcome, String> {
    let mut config = WorldConfig::new(p).with_faults(plan);
    if thread_sched {
        config = config.with_thread_scheduler();
    }
    if record {
        config = config.with_recorder();
    }
    let report = World::new(config)
        .run_faulty(move |proc| {
            let mut tp = TracedProc::new(proc);
            let mut cham = Chameleon::new(cham_cfg.clone());
            for step in 0..steps {
                let alive = cham.alive().to_vec();
                chaos_step(&mut tp, &alive, step);
                cham.marker(&mut tp);
            }
            cham.finalize(&mut tp)
        })
        .map_err(|e| e.to_string())?;
    let mut stats = Vec::with_capacity(p);
    let mut online_trace = None;
    for result in report.results.into_iter() {
        match result {
            Some(outcome) => {
                if let Some(trace) = outcome.online_trace {
                    online_trace = Some(trace);
                }
                stats.push(Some(outcome.stats));
            }
            None => stats.push(None),
        }
    }
    // `CHAM_JOURNAL=<path>` drops the recorded journal to disk without
    // writing Rust (same hook as the bench observability experiment).
    if let (Some(path), Some(journal)) = (std::env::var_os("CHAM_JOURNAL"), &report.journal) {
        if let Err(e) = std::fs::write(&path, journal.to_jsonl()) {
            eprintln!("CHAM_JOURNAL {}: write failed: {e}", path.to_string_lossy());
        }
    }
    Ok(ChaosOutcome {
        online_trace: online_trace.expect("some survivor roots the online trace"),
        stats,
        crashed: report.crashed,
        fault_stats: report.fault_stats,
        journal: report.journal,
    })
}

/// Outcome of a supervised chaos run.
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// The final completed run's outcome.
    pub outcome: ChaosOutcome,
    /// Supervisor restarts performed (0 = the first attempt completed).
    pub restarts: u32,
    /// Marker of the on-disk checkpoint the restart resumed from, if any.
    pub resumed_marker: Option<u64>,
}

/// Supervisor mode: run the chaos workload with durable checkpoints
/// (every `stride` markers, persisted into `ckpt_dir`). If the attempt
/// aborts fatally — a mid-slice wedge the typed timeout backstop turned
/// into a world failure — restart once from the latest on-disk
/// checkpoint: the crash is consumed (it already fired; the restarted
/// job gets fresh nodes), the lossy link stays armed so the replay's
/// votes are deterministic, and the run fast-forwards to the checkpoint
/// marker before continuing normally.
pub fn run_chaos_supervised(
    p: usize,
    steps: usize,
    plan: FaultPlan,
    stride: u64,
    ckpt_dir: &Path,
    record: bool,
) -> SupervisedOutcome {
    let base_cfg = || {
        ChameleonConfig::with_k(p)
            .with_checkpoint_stride(stride)
            .with_checkpoint_dir(ckpt_dir)
    };
    match run_chaos_result(p, steps, plan.clone(), record, base_cfg()) {
        Ok(outcome) => SupervisedOutcome {
            outcome,
            restarts: 0,
            resumed_marker: None,
        },
        Err(first) => {
            let mut retry_plan = plan;
            retry_plan.crash = None;
            let mut cfg = base_cfg();
            let mut resumed_marker = None;
            match latest_checkpoint(ckpt_dir) {
                Some((marker, path)) => match std::fs::read(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|b| Checkpoint::decode(&b).map_err(|e| e.to_string()))
                {
                    Ok(ckpt) => {
                        cfg = cfg.with_resume(ckpt);
                        resumed_marker = Some(marker);
                    }
                    Err(e) => eprintln!(
                        "supervisor: checkpoint {} unusable ({e}); replaying from scratch",
                        path.display()
                    ),
                },
                None => eprintln!(
                    "supervisor: no checkpoint in {}; replaying from scratch",
                    ckpt_dir.display()
                ),
            }
            let outcome =
                run_chaos_result(p, steps, retry_plan, record, cfg).unwrap_or_else(|second| {
                    panic!("supervised restart failed twice: first [{first}]; second [{second}]")
                });
            SupervisedOutcome {
                outcome,
                restarts: 1,
                resumed_marker,
            }
        }
    }
}

/// The highest-marker `ckpt-<marker>.bin` blob in `dir`, if any.
pub fn latest_checkpoint(dir: &Path) -> Option<(u64, PathBuf)> {
    let entries = std::fs::read_dir(dir).ok()?;
    entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let marker: u64 = name
                .to_str()?
                .strip_prefix("ckpt-")?
                .strip_suffix(".bin")?
                .parse()
                .ok()?;
            Some((marker, entry.path()))
        })
        .max_by_key(|&(marker, _)| marker)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_spares_rank_zero() {
        for seed in 0..32 {
            let a = chaos_plan(seed, 6);
            let b = chaos_plan(seed, 6);
            assert_eq!(format!("{a}"), format!("{b}"));
            let crash = a.crash.expect("chaos always crashes someone");
            assert!(crash.rank >= 1 && crash.rank < 6);
        }
    }

    #[test]
    fn root_crash_plan_targets_rank_zero() {
        let plan = root_crash_plan(3, 99);
        let crash = plan.crash.expect("root crash plan always crashes");
        assert_eq!(crash.rank, 0);
        assert_eq!(crash.at_op, 99);
    }

    #[test]
    fn latest_checkpoint_picks_highest_marker() {
        let dir = std::env::temp_dir().join(format!("cham_ckpt_scan_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "ckpt-000002.bin",
            "ckpt-000010.bin",
            "notes.txt",
            "ckpt-x.bin",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let (marker, path) = latest_checkpoint(&dir).expect("two well-formed blobs");
        assert_eq!(marker, 10);
        assert!(path.ends_with("ckpt-000010.bin"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn probe_ops_are_strictly_increasing() {
        let ops = marker_entry_ops(4, 12, chaos_plan(5, 4));
        assert_eq!(ops.len(), 12);
        assert!(ops.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fault_free_chaos_ring_completes() {
        // The harness itself (shrink-aware ring + k=p config) must be a
        // well-formed workload when nothing is armed.
        let report = mpisim::World::new(mpisim::WorldConfig::new(4))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                let mut cham = Chameleon::new(ChameleonConfig::with_k(4));
                for step in 0..25 {
                    let alive = cham.alive().to_vec();
                    chaos_step(&mut tp, &alive, step);
                    cham.marker(&mut tp);
                }
                cham.finalize(&mut tp)
            })
            .unwrap();
        let online = report.results[0].online_trace.as_ref().unwrap();
        assert!(online.dynamic_size() > 0);
        for r in &report.results {
            assert_eq!(
                r.stats.degraded_slices, 0,
                "fault-free run degrades nothing"
            );
            assert_eq!(r.stats.lead_reelections, 0);
        }
    }

    #[test]
    fn recorded_chaos_journal_agrees_with_stats() {
        let plan = chaos_plan(7, 4);
        let crash = plan.crash.unwrap();
        let out = run_chaos_recorded(4, 40, plan);
        let j = out.journal.expect("recorded run must gather a journal");
        assert!(j.armed);
        // Exactly one crash event, on the planned victim at the planned op.
        let crashes: Vec<(usize, u64)> = j
            .events()
            .filter_map(|(rank, e)| match e.kind {
                obs::EventKind::Crash { op } => Some((rank, op)),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, vec![(crash.rank, crash.at_op)]);
        // Every survivor logs the same re-elections the stats count.
        let s0 = out.stats[0].as_ref().unwrap();
        let reelects_rank0 = j
            .rank_log(0)
            .unwrap()
            .events
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::Reelect { .. }))
            .count() as u64;
        assert_eq!(reelects_rank0, s0.lead_reelections);
    }

    #[test]
    fn crashed_rank_is_excluded_and_run_degrades() {
        let plan = chaos_plan(7, 4);
        let victim = plan.crash.unwrap().rank;
        let out = run_chaos(4, 40, plan);
        assert_eq!(out.crashed, vec![victim]);
        assert!(out.stats[victim].is_none());
        assert!(out.fault_stats[victim].crashed);
        assert!(out.online_trace.dynamic_size() > 0);
        let s0 = out.stats[0].as_ref().unwrap();
        assert!(
            s0.degraded_slices >= 1,
            "a mid-run crash must degrade at least one slice"
        );
    }
}
