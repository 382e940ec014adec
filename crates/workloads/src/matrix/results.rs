//! Canonical result and timing tables, the plan runner that fills them,
//! and the diffs that gate on them.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use super::exec::{run_pool, run_trial, TrialRecord};
use super::json::Json;
use super::plan::MatrixPlan;

/// Magic of a canonical result table.
pub const RESULTS_FORMAT: &str = "chameleon-matrix-results-v1";
/// Magic of a timing side-table.
pub const TIMINGS_FORMAT: &str = "chameleon-matrix-timings-v1";

/// The canonical (deterministic) result table of one plan run.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResults {
    /// Plan name.
    pub plan: String,
    /// The plan's timing band, carried so a diff knows the tolerance.
    pub timing_tolerance_pct: f64,
    /// Trial rows in canonical (ID-sorted) order.
    pub trials: Vec<TrialRecord>,
}

impl MatrixResults {
    /// Canonical JSON text (byte-stable across reruns of the same plan).
    pub fn to_json(&self) -> String {
        let trials = self
            .trials
            .iter()
            .map(|t| {
                Json::Obj(vec![
                    ("id".to_string(), Json::Str(t.id.clone())),
                    ("ok".to_string(), Json::Bool(t.ok)),
                    (
                        "fields".to_string(),
                        Json::Obj(
                            t.fields
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("format".to_string(), Json::Str(RESULTS_FORMAT.to_string())),
            ("plan".to_string(), Json::Str(self.plan.clone())),
            (
                "timing_tolerance_pct".to_string(),
                Json::Num(self.timing_tolerance_pct),
            ),
            ("trials".to_string(), Json::Arr(trials)),
        ]);
        doc.to_pretty() + "\n"
    }

    /// Parse a result table written by [`MatrixResults::to_json`].
    pub fn from_json(text: &str) -> Result<MatrixResults, String> {
        let doc = Json::parse(text)?;
        match doc.get("format").and_then(Json::as_str) {
            Some(RESULTS_FORMAT) => {}
            other => return Err(format!("not a matrix result table (format {other:?})")),
        }
        let plan = doc
            .get("plan")
            .and_then(Json::as_str)
            .ok_or("missing plan name")?
            .to_string();
        let timing_tolerance_pct = doc
            .get("timing_tolerance_pct")
            .and_then(Json::as_f64)
            .ok_or("missing timing_tolerance_pct")?;
        let mut trials = Vec::new();
        for row in doc
            .get("trials")
            .and_then(Json::as_array)
            .ok_or("missing trials array")?
        {
            let id = row
                .get("id")
                .and_then(Json::as_str)
                .ok_or("trial row without id")?
                .to_string();
            let ok = row
                .get("ok")
                .and_then(Json::as_bool)
                .ok_or(format!("trial {id} without ok flag"))?;
            let mut fields = BTreeMap::new();
            match row.get("fields") {
                Some(Json::Obj(entries)) => {
                    for (k, v) in entries {
                        let v = v
                            .as_str()
                            .ok_or(format!("trial {id} field {k} is not a string"))?;
                        fields.insert(k.clone(), v.to_string());
                    }
                }
                _ => return Err(format!("trial {id} without fields object")),
            }
            trials.push(TrialRecord {
                id,
                ok,
                fields,
                wall_ns: 0,
            });
        }
        Ok(MatrixResults {
            plan,
            timing_tolerance_pct,
            trials,
        })
    }
}

/// Serialize a timing side-table (trial ID → wall nanoseconds).
pub fn timings_to_json(plan: &str, timings: &BTreeMap<String, u64>) -> String {
    let doc = Json::Obj(vec![
        ("format".to_string(), Json::Str(TIMINGS_FORMAT.to_string())),
        ("plan".to_string(), Json::Str(plan.to_string())),
        (
            "wall_ns".to_string(),
            Json::Obj(
                timings
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ),
    ]);
    doc.to_pretty() + "\n"
}

/// Parse a timing side-table.
pub fn timings_from_json(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let doc = Json::parse(text)?;
    match doc.get("format").and_then(Json::as_str) {
        Some(TIMINGS_FORMAT) => {}
        other => return Err(format!("not a matrix timing table (format {other:?})")),
    }
    let mut out = BTreeMap::new();
    match doc.get("wall_ns") {
        Some(Json::Obj(entries)) => {
            for (k, v) in entries {
                out.insert(
                    k.clone(),
                    v.as_u64().ok_or(format!("timing {k} is not an integer"))?,
                );
            }
        }
        _ => return Err("missing wall_ns object".to_string()),
    }
    Ok(out)
}

/// Run every trial of a validated plan under `out_root/<plan-name>/`,
/// with at most `jobs` concurrent trials, and write `results.json` plus
/// `timings.json` there. Returns the canonical results and the timings.
pub fn run_plan(
    plan: &MatrixPlan,
    out_root: &Path,
    jobs: usize,
) -> Result<(MatrixResults, BTreeMap<String, u64>), String> {
    run_plan_with_push(plan, out_root, jobs, None)
}

/// A post-trial artifact hook: called with the trial ID and its artifact
/// directory once the trial's files are on disk. The `chamtrace matrix
/// run --push <addr>` flag uses this to stream each trial's
/// `journal.jsonl` at a trace-service daemon without `workloads` knowing
/// anything about HTTP — the transport lives in the caller.
pub type PushHook<'a> = &'a (dyn Fn(&str, &Path) + Sync);

/// [`run_plan`] with an optional per-trial artifact hook. The hook runs
/// on the worker thread that finished the trial, after the trial's
/// artifacts are written and before its slot is considered done.
pub fn run_plan_with_push(
    plan: &MatrixPlan,
    out_root: &Path,
    jobs: usize,
    push: Option<PushHook<'_>>,
) -> Result<(MatrixResults, BTreeMap<String, u64>), String> {
    plan.validate()?;
    let plan_dir = out_root.join(&plan.name);
    std::fs::create_dir_all(&plan_dir)
        .map_err(|e| format!("cannot create {}: {e}", plan_dir.display()))?;
    let trials = plan.expand();
    let records = run_pool(&trials, jobs, |_, trial| {
        let trial_dir = plan_dir.join(&trial.id);
        let record = run_trial(plan, trial, &trial_dir);
        if let Some(hook) = push {
            hook(&trial.id, &trial_dir);
        }
        record
    });
    let timings: BTreeMap<String, u64> =
        records.iter().map(|r| (r.id.clone(), r.wall_ns)).collect();
    let results = MatrixResults {
        plan: plan.name.clone(),
        timing_tolerance_pct: plan.timing_tolerance_pct,
        trials: records,
    };
    std::fs::write(plan_dir.join("results.json"), results.to_json())
        .map_err(|e| format!("write results.json: {e}"))?;
    std::fs::write(
        plan_dir.join("timings.json"),
        timings_to_json(&plan.name, &timings),
    )
    .map_err(|e| format!("write timings.json: {e}"))?;
    Ok((results, timings))
}

// ---------------------------------------------------------------------
// Regression diff
// ---------------------------------------------------------------------

/// The first divergence between two result tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Trial the divergence is in ("-" for table-level mismatches).
    pub trial: String,
    /// Metric (field key) that diverged.
    pub metric: String,
    /// Baseline value.
    pub want: String,
    /// Current value.
    pub got: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trial {} metric {}: baseline {}, got {}",
            self.trial, self.metric, self.want, self.got
        )
    }
}

/// Exact comparison of the deterministic tables: every baseline trial
/// must be present with identical `ok` and identical fields (and no
/// extra trials or fields may appear). Returns the *first* divergence in
/// canonical order, or `None` when the tables agree.
pub fn diff_results(base: &MatrixResults, cur: &MatrixResults) -> Option<Divergence> {
    if base.plan != cur.plan {
        return Some(Divergence {
            trial: "-".to_string(),
            metric: "plan".to_string(),
            want: base.plan.clone(),
            got: cur.plan.clone(),
        });
    }
    let cur_by_id: BTreeMap<&str, &TrialRecord> =
        cur.trials.iter().map(|t| (t.id.as_str(), t)).collect();
    for b in &base.trials {
        let Some(c) = cur_by_id.get(b.id.as_str()) else {
            return Some(Divergence {
                trial: b.id.clone(),
                metric: "presence".to_string(),
                want: "present".to_string(),
                got: "missing".to_string(),
            });
        };
        if b.ok != c.ok {
            return Some(Divergence {
                trial: b.id.clone(),
                metric: "ok".to_string(),
                want: b.ok.to_string(),
                got: c.ok.to_string(),
            });
        }
        for (key, want) in &b.fields {
            match c.fields.get(key) {
                Some(got) if got == want => {}
                got => {
                    return Some(Divergence {
                        trial: b.id.clone(),
                        metric: key.clone(),
                        want: want.clone(),
                        got: got.cloned().unwrap_or_else(|| "missing".to_string()),
                    });
                }
            }
        }
        if let Some((key, got)) = c.fields.iter().find(|(k, _)| !b.fields.contains_key(*k)) {
            return Some(Divergence {
                trial: b.id.clone(),
                metric: key.clone(),
                want: "absent".to_string(),
                got: got.clone(),
            });
        }
    }
    let base_ids: BTreeMap<&str, ()> = base.trials.iter().map(|t| (t.id.as_str(), ())).collect();
    if let Some(extra) = cur
        .trials
        .iter()
        .find(|t| !base_ids.contains_key(t.id.as_str()))
    {
        return Some(Divergence {
            trial: extra.id.clone(),
            metric: "presence".to_string(),
            want: "absent".to_string(),
            got: "present".to_string(),
        });
    }
    None
}

/// Percentage-band comparison of wall timings for trials present in both
/// tables: |cur − base| must stay within `tol_pct`% of the baseline.
/// Trials only one side timed are skipped — wall clocks are advisory,
/// not part of the determinism contract.
pub fn diff_timings(
    base: &BTreeMap<String, u64>,
    cur: &BTreeMap<String, u64>,
    tol_pct: f64,
) -> Option<Divergence> {
    for (id, &want) in base {
        let Some(&got) = cur.get(id) else { continue };
        let delta = got.abs_diff(want) as f64;
        if delta > (want as f64) * tol_pct / 100.0 {
            return Some(Divergence {
                trial: id.clone(),
                metric: "wall_ns".to_string(),
                want: format!("{want} (±{tol_pct}%)"),
                got: got.to_string(),
            });
        }
    }
    None
}

/// When a `journal_digest` divergence names a trial and both runs left
/// `journal.jsonl` artifacts on disk, drill into the first diverging
/// event via [`obs::query::diff`]. `base_dir` / `cur_dir` are the plan
/// output directories (the parents of the per-trial dirs).
pub fn journal_drilldown(base_dir: &Path, cur_dir: &Path, trial: &str) -> Option<String> {
    let load = |dir: &Path| -> Option<obs::RunJournal> {
        let text = std::fs::read_to_string(dir.join(trial).join("journal.jsonl")).ok()?;
        obs::RunJournal::from_jsonl(&text).ok()
    };
    let a = load(base_dir)?;
    let b = load(cur_dir)?;
    obs::query::diff(&a, &b)
}
