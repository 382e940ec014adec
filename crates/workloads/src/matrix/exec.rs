//! Trial executors — one per scenario kind — and the bounded worker pool
//! they run on.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use chameleon::ChameleonConfig;
use mpisim::{Comm, FaultPlan};
use obs::wire::fnv64;
use scalatrace::merge::{merge_traces, merge_traces_reference};
use scalatrace::{format as trace_format, CompressedTrace, Endpoint, EventRecord, MpiOp};
use sigkit::StackSig;

use super::json::Json;
use super::plan::{FaultSpec, MatrixPlan, Trial};
use crate::chaos::{
    chaos_plan, latest_checkpoint, marker_entry_ops, root_crash_plan, run_chaos_result,
    run_chaos_supervised,
};
use crate::degraded::degraded_detector;
use crate::driver::{run as drive, Mode, Overrides};
use crate::registry::try_workload;

/// Run `f` over every item on at most `jobs` worker threads, returning
/// results in *item order* regardless of scheduling: workers claim items
/// from a shared counter and deposit results by index.
pub fn run_pool<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(i, &items[i]);
                *slots[i].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

// ---------------------------------------------------------------------
// Trial execution
// ---------------------------------------------------------------------

/// One executed trial's row in the result table.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Trial ID (also the artifact directory name).
    pub id: String,
    /// Did the trial meet its executor's invariants?
    pub ok: bool,
    /// Deterministic outcome fields, sorted by key.
    pub fields: BTreeMap<String, String>,
    /// Real wall-clock nanoseconds (goes to `timings.json` only).
    pub wall_ns: u64,
}

fn hex64(v: u64) -> String {
    format!("{v:#018x}")
}

fn trace_fields(fields: &mut BTreeMap<String, String>, prefix: &str, trace: &CompressedTrace) {
    let text = trace_format::to_text(trace);
    fields.insert(
        format!("{prefix}_nodes"),
        trace.compressed_size().to_string(),
    );
    fields.insert(format!("{prefix}_events"), trace.dynamic_size().to_string());
    fields.insert(format!("{prefix}_digest"), hex64(fnv64(text.as_bytes())));
}

fn journal_fields(
    fields: &mut BTreeMap<String, String>,
    journal: Option<&obs::RunJournal>,
    dir: &Path,
) {
    if let Some(journal) = journal {
        fields.insert(
            "journal_events".to_string(),
            journal.events().count().to_string(),
        );
        fields.insert(
            "journal_digest".to_string(),
            hex64(fnv64(journal.to_jsonl().as_bytes())),
        );
        let _ = std::fs::write(dir.join("journal.jsonl"), journal.to_jsonl());
    }
}

fn fault_stat_fields(fields: &mut BTreeMap<String, String>, stats: &[mpisim::FaultStats]) {
    let injected: u64 = stats
        .iter()
        .map(|f| f.drops + f.corruptions + f.duplicates + f.delays)
        .sum();
    let retransmits: u64 = stats.iter().map(|f| f.retransmits).sum();
    fields.insert("faults_injected".to_string(), injected.to_string());
    fields.insert("retransmits".to_string(), retransmits.to_string());
}

fn chaos_trial(
    plan: &MatrixPlan,
    trial: &Trial,
    dir: &Path,
    fields: &mut BTreeMap<String, String>,
) -> bool {
    let steps = plan.steps;
    fields.insert("marker_steps".to_string(), steps.to_string());
    let (outcome, expected_crashes) = match trial.fault {
        FaultSpec::RootCrash(point) => {
            let marker = point.marker(steps);
            let ops = marker_entry_ops(trial.p, steps, root_crash_plan(trial.seed, 0));
            let sup = run_chaos_supervised(
                trial.p,
                steps,
                root_crash_plan(trial.seed, ops[marker]),
                trial.ckpt_stride,
                dir,
                trial.journal,
            );
            fields.insert("restarts".to_string(), sup.restarts.to_string());
            fields.insert(
                "resumed_marker".to_string(),
                sup.resumed_marker
                    .map_or("none".to_string(), |m| m.to_string()),
            );
            (sup.outcome, 1usize)
        }
        fault => {
            let fault_plan = match fault {
                FaultSpec::None => FaultPlan::new(trial.seed),
                FaultSpec::Lossy => FaultSpec::lossy_plan(trial.seed),
                FaultSpec::Chaos => chaos_plan(trial.seed, trial.p),
                FaultSpec::RootCrash(_) => unreachable!("handled above"),
                FaultSpec::Straggler | FaultSpec::Ramp | FaultSpec::Imbalance => {
                    unreachable!("validate() keeps degraded faults off the chaos scenario")
                }
            };
            let mut cfg = ChameleonConfig::with_k(trial.p).with_retry_budget(trial.retry_budget);
            if trial.ckpt_stride > 0 {
                cfg = cfg
                    .with_checkpoint_stride(trial.ckpt_stride)
                    .with_checkpoint_dir(dir);
            }
            let expected = usize::from(fault == FaultSpec::Chaos);
            match run_chaos_result(trial.p, steps, fault_plan, trial.journal, cfg) {
                Ok(outcome) => (outcome, expected),
                Err(e) => {
                    fields.insert("error".to_string(), e);
                    return false;
                }
            }
        }
    };
    fields.insert("crashed".to_string(), format!("{:?}", outcome.crashed));
    let survivors = outcome.stats.iter().flatten().count();
    fields.insert("survivors".to_string(), survivors.to_string());
    if let Some(root) = outcome.stats.iter().flatten().next() {
        fields.insert("marker_calls".to_string(), root.marker_calls.to_string());
        fields.insert(
            "states".to_string(),
            format!(
                "c={} l={} at={} f={}",
                root.states.c, root.states.l, root.states.at, root.states.f
            ),
        );
        fields.insert(
            "degraded_slices".to_string(),
            root.degraded_slices.to_string(),
        );
        fields.insert(
            "lead_reelections".to_string(),
            root.lead_reelections.to_string(),
        );
        fields.insert("promotions".to_string(), root.promotions.to_string());
    }
    trace_fields(fields, "trace", &outcome.online_trace);
    fault_stat_fields(fields, &outcome.fault_stats);
    journal_fields(fields, outcome.journal.as_ref(), dir);
    if trial.ckpt_stride > 0 {
        if let Some((marker, _)) = latest_checkpoint(dir) {
            fields.insert("ckpt_latest_marker".to_string(), marker.to_string());
        }
    }
    outcome.online_trace.dynamic_size() > 0 && outcome.crashed.len() == expected_crashes
}

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
fn near_identical_trace(rank: usize, n: usize, base: u64) -> CompressedTrace {
    let mut t = CompressedTrace::new();
    for s in 0..n {
        let sig = if s == n / 2 {
            1_000_000 + base + rank as u64
        } else {
            base + s as u64 + 1
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

pub(super) fn merge_trial(
    plan: &MatrixPlan,
    trial: &Trial,
    fields: &mut BTreeMap<String, String>,
) -> bool {
    let n = plan.merge_base_n * trial.class.multiplier();
    fields.insert("n".to_string(), n.to_string());
    // Seeds offset the signature space so every seed coordinate produces
    // (and pins) a distinct merged artifact.
    let base = trial.seed.wrapping_mul(1 << 20);
    let make = |rank: usize| match trial.workload.as_str() {
        "MERGE_IDENTICAL" => trace_with_sites(rank, n, base),
        "MERGE_NEAR" => near_identical_trace(rank, n, base),
        "MERGE_DISJOINT" => trace_with_sites(rank, n, base + (rank as u64) * n as u64),
        other => unreachable!("validated merge case {other:?}"),
    };
    let a = make(0);
    let b = make(1);
    let fast = merge_traces(&a, &b);
    let reference = merge_traces_reference(&a, &b);
    let fast_text = trace_format::to_text(&fast);
    let agrees = fast_text == trace_format::to_text(&reference);
    fields.insert("fast_matches_reference".to_string(), agrees.to_string());
    trace_fields(fields, "merged", &fast);
    // The fold axis: merging p traces, ScalaTrace-at-finalize style. The
    // fold streams (build one trace, fold, drop) so a 16k-wide trial
    // holds the accumulator, not 16k materialized traces.
    //
    // Disjoint traces share nothing, so the accumulator grows by n every
    // fold and each merge runs the full aligner over it: O(w²·n²) total
    // for width w. Cap the disjoint width so that work stays constant
    // across classes (256 at the base n of 128), and record the width on
    // the result row — the cap is part of the pinned baseline, never a
    // silent truncation. Identical/near folds keep the accumulator flat
    // (shared backbone trims away) and stay uncapped to the full 16k.
    let fold_width = if trial.workload == "MERGE_DISJOINT" {
        trial.p.min((MERGE_DISJOINT_SITE_BUDGET / n).max(2))
    } else {
        trial.p
    };
    fields.insert("fold_width".to_string(), fold_width.to_string());
    let mut folded = make(0);
    for rank in 1..fold_width {
        folded = merge_traces(&folded, &make(rank));
    }
    trace_fields(fields, "fold", &folded);
    agrees && folded.dynamic_size() > 0
}

/// Accumulator-size budget for the `MERGE_DISJOINT` fold axis: width is
/// capped at `budget / n`, i.e. 256 traces at the default base size of
/// 128, keeping the fold's O(width²·n²) alignment work class-independent.
pub(super) const MERGE_DISJOINT_SITE_BUDGET: usize = 256 * 128;

fn driver_trial(
    plan: &MatrixPlan,
    trial: &Trial,
    dir: &Path,
    fields: &mut BTreeMap<String, String>,
) -> bool {
    let workload = try_workload(&trial.workload, plan.scale).expect("validated name");
    let faults = match trial.fault {
        FaultSpec::None => None,
        FaultSpec::Lossy => Some(FaultSpec::lossy_plan(trial.seed)),
        other => unreachable!("validated: {other:?} needs CHAOS"),
    };
    let rep = drive(
        workload,
        trial.class,
        trial.p,
        Mode::Chameleon,
        Overrides {
            journal: trial.journal,
            faults,
            retry_budget: Some(trial.retry_budget),
            ckpt_stride: (trial.ckpt_stride > 0).then_some(trial.ckpt_stride),
            ckpt_dir: (trial.ckpt_stride > 0).then(|| dir.to_path_buf()),
            ..Default::default()
        },
    );
    fields.insert("crashed".to_string(), format!("{:?}", rep.crashed));
    fields.insert("app_vtime".to_string(), format!("{:?}", rep.app_vtime));
    if let Some(stats) = rep.cham_stats.first() {
        fields.insert("marker_calls".to_string(), stats.marker_calls.to_string());
        fields.insert(
            "states".to_string(),
            format!(
                "c={} l={} at={} f={}",
                stats.states.c, stats.states.l, stats.states.at, stats.states.f
            ),
        );
        fields.insert("leads".to_string(), stats.leads.to_string());
        fields.insert("call_paths".to_string(), stats.call_paths.to_string());
        fields.insert(
            "degraded_slices".to_string(),
            stats.degraded_slices.to_string(),
        );
    }
    fault_stat_fields(fields, &rep.fault_stats);
    journal_fields(fields, rep.journal.as_ref(), dir);
    if trial.ckpt_stride > 0 {
        if let Some((marker, _)) = latest_checkpoint(dir) {
            fields.insert("ckpt_latest_marker".to_string(), marker.to_string());
        }
    }
    match &rep.global_trace {
        Some(trace) => {
            trace_fields(fields, "trace", trace);
            trace.dynamic_size() > 0 && rep.crashed.is_empty()
        }
        None => false,
    }
}

/// Detect-and-mitigate scenario: run the degraded workload twice under
/// the *same* injected fault plan — once with the streaming detector (and
/// its mitigation ladder) armed, once detection-off — then score the
/// armed run's emitted `anomaly` events against the plan's ground truth
/// ([`FaultPlan::degraded_ranks`]). The trial passes only when precision
/// ≥ 0.9 and recall ≥ 0.8; the detection-off run provides the
/// mitigation-payoff reference (`retransmits_off`).
fn degraded_trial(
    plan: &MatrixPlan,
    trial: &Trial,
    dir: &Path,
    fields: &mut BTreeMap<String, String>,
) -> bool {
    let fault_plan = trial
        .fault
        .degraded_plan(trial.seed, trial.p)
        .expect("validated: a degraded fault");
    let run_with = |detector: Option<obs::DetectorConfig>, journal: bool| {
        drive(
            try_workload(&trial.workload, plan.scale).expect("validated name"),
            trial.class,
            trial.p,
            Mode::Chameleon,
            Overrides {
                journal,
                faults: Some(fault_plan.clone()),
                retry_budget: Some(trial.retry_budget),
                detector,
                ..Default::default()
            },
        )
    };
    // Detection-off reference first: same plan, no health plane.
    let off = run_with(None, false);
    let on = run_with(Some(degraded_detector()), trial.journal);

    let truth = fault_plan.degraded_ranks(trial.p);
    let journal = on
        .journal
        .as_ref()
        .expect("validated: degraded trials arm the journal");
    let rows = obs::query::anomalies(journal);
    let mut flagged: Vec<usize> = rows.iter().map(|r| r.rank as usize).collect();
    flagged.sort_unstable();
    flagged.dedup();
    let hits = flagged.iter().filter(|r| truth.contains(r)).count();
    let precision = if flagged.is_empty() {
        0.0
    } else {
        hits as f64 / flagged.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        hits as f64 / truth.len() as f64
    };
    // Detection latency: the first marker at which a truly-degraded rank
    // was flagged (the straggler/imbalance signals are present from
    // marker 0; the ramp's onset is nonce-scheduled, so its latency also
    // measures how long the ramp takes to bite).
    let first_hit = rows
        .iter()
        .filter(|r| truth.contains(&(r.rank as usize)))
        .map(|r| r.marker)
        .min();
    fields.insert("truth".to_string(), format!("{truth:?}"));
    fields.insert("flagged".to_string(), format!("{flagged:?}"));
    fields.insert("precision".to_string(), format!("{precision:.3}"));
    fields.insert("recall".to_string(), format!("{recall:.3}"));
    fields.insert(
        "detection_latency".to_string(),
        first_hit.map_or("none".to_string(), |m| m.to_string()),
    );
    fields.insert("anomaly_events".to_string(), rows.len().to_string());

    let sum_retransmits =
        |stats: &[mpisim::FaultStats]| -> u64 { stats.iter().map(|s| s.retransmits).sum() };
    fields.insert(
        "retransmits_on".to_string(),
        sum_retransmits(&on.fault_stats).to_string(),
    );
    fields.insert(
        "retransmits_off".to_string(),
        sum_retransmits(&off.fault_stats).to_string(),
    );
    if let Some(stats) = on.cham_stats.first() {
        fields.insert("marker_calls".to_string(), stats.marker_calls.to_string());
        fields.insert("anomaly_flags".to_string(), stats.anomaly_flags.to_string());
        fields.insert("quarantines".to_string(), stats.quarantines.to_string());
        fields.insert(
            "lead_demotions".to_string(),
            stats.lead_demotions.to_string(),
        );
    }
    fault_stat_fields(fields, &on.fault_stats);
    journal_fields(fields, Some(journal), dir);
    let trace_ok = match &on.global_trace {
        Some(trace) => {
            trace_fields(fields, "trace", trace);
            trace.dynamic_size() > 0
        }
        None => false,
    };
    trace_ok && on.crashed.is_empty() && off.crashed.is_empty() && precision >= 0.9 && recall >= 0.8
}

/// Execute one trial, writing its artifacts (`trial_input.json`,
/// `trial_output.json`, `journal.jsonl`, checkpoint blobs) under `dir`.
/// Panics inside an executor are contained: the trial records `ok =
/// false` with the panic text instead of killing the whole run.
pub fn run_trial(plan: &MatrixPlan, trial: &Trial, dir: &Path) -> TrialRecord {
    let _ = std::fs::remove_dir_all(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        let mut fields = BTreeMap::new();
        fields.insert(
            "error".to_string(),
            format!("create {}: {e}", dir.display()),
        );
        return TrialRecord {
            id: trial.id.clone(),
            ok: false,
            fields,
            wall_ns: 0,
        };
    }
    let input = Json::Obj(vec![
        ("id".to_string(), Json::Str(trial.id.clone())),
        ("workload".to_string(), Json::Str(trial.workload.clone())),
        (
            "class".to_string(),
            Json::Str(trial.class.label().to_string()),
        ),
        ("ranks".to_string(), Json::Num(trial.p as f64)),
        ("seed".to_string(), Json::Str(hex64(trial.seed))),
        ("fault".to_string(), Json::Str(trial.fault.id().to_string())),
        ("journal".to_string(), Json::Bool(trial.journal)),
        (
            "ckpt_stride".to_string(),
            Json::Num(trial.ckpt_stride as f64),
        ),
        (
            "retry_budget".to_string(),
            Json::Num(f64::from(trial.retry_budget)),
        ),
    ]);
    let _ = std::fs::write(dir.join("trial_input.json"), input.to_pretty() + "\n");

    let start = Instant::now();
    let mut fields = BTreeMap::new();
    fields.insert(
        "kind".to_string(),
        scenario_kind(&trial.workload).to_string(),
    );
    fields.insert("fault".to_string(), trial.fault.id().to_string());
    fields.insert("seed".to_string(), hex64(trial.seed));
    let ok =
        match std::panic::catch_unwind(AssertUnwindSafe(|| match scenario_kind(&trial.workload) {
            "chaos" => chaos_trial(plan, trial, dir, &mut fields),
            "merge" => merge_trial(plan, trial, &mut fields),
            _ if trial.fault.degrades() => degraded_trial(plan, trial, dir, &mut fields),
            _ => driver_trial(plan, trial, dir, &mut fields),
        })) {
            Ok(ok) => ok,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "executor panicked".to_string());
                fields.insert("error".to_string(), msg);
                false
            }
        };
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let output = Json::Obj(vec![
        ("id".to_string(), Json::Str(trial.id.clone())),
        ("ok".to_string(), Json::Bool(ok)),
        (
            "fields".to_string(),
            Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ),
    ]);
    let _ = std::fs::write(dir.join("trial_output.json"), output.to_pretty() + "\n");

    TrialRecord {
        id: trial.id.clone(),
        ok,
        fields,
        wall_ns,
    }
}

fn scenario_kind(workload: &str) -> &'static str {
    if workload == "CHAOS" {
        "chaos"
    } else if workload.starts_with("MERGE_") {
        "merge"
    } else {
        "driver"
    }
}
