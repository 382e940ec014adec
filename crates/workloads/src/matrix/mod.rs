//! `chamrun` — the declarative scenario-matrix experiment runner.
//!
//! The paper's claims are re-validated by suites that used to be
//! hand-rolled loops: the chaos 10-seed sweep, the root-crash 3×3 matrix,
//! and the merge-scaling sweep each reinvented trial execution, seeding,
//! and artifact capture. This module turns them into *plans*: a JSON file
//! declares the axes — workload × class × rank count × fault plan × seed ×
//! feature toggles (journal on/off, checkpoint stride on `CHAOS`) — and
//! the runner expands the cross product, executes the trials on a bounded
//! worker pool, and writes per-trial artifacts under
//! `experiments_out/matrix/<plan>/<trial>/`.
//!
//! ## Determinism contract
//!
//! Everything in `results.json` is a pure function of the plan: trial IDs
//! derive only from trial coordinates, the canonical trial order is the
//! ID sort (so worker-pool parallelism and axis-list order are
//! invisible), and every recorded field is a deterministic outcome of the
//! simulation (digests, counters, virtual times — never wall clocks).
//! Re-running a plan must reproduce `results.json` byte-for-byte; the
//! committed baselines under `tests/fixtures/` pin that down and
//! [`diff_results`] names the first divergence (trial + metric) when it
//! breaks. Wall-clock timings go to the separate `timings.json`, compared
//! only with percentage bands ([`diff_timings`]).
//!
//! ## Scenario kinds
//!
//! The workload name selects the executor:
//!
//! - `"CHAOS"` — the fault-injection ring ([`crate::chaos`]); the only
//!   workload that accepts crash-bearing fault specs (`"chaos"`,
//!   `"rootcrash@first|mid|last"` — the latter runs under the checkpoint
//!   supervisor).
//! - `"MERGE_IDENTICAL" | "MERGE_NEAR" | "MERGE_DISJOINT"` — synthetic
//!   pairwise/fold merge trials (the merge-scaling sweep); `class` scales
//!   the trace size (`merge_base_n × multiplier`), `ranks` is the fold
//!   width.
//! - anything else — a named benchmark skeleton ([`crate::registry`]) run
//!   through [`crate::driver`] in Chameleon mode; fault specs are limited
//!   to `"none"` and `"lossy"` (app-plane receives of the skeletons are
//!   not dead-aware). The degraded specs (`"straggler"`, `"ramp"`,
//!   `"imbalance"`) additionally require the `DRING`/`DGRID` scenario
//!   workloads and select the detect-and-mitigate executor: the trial
//!   runs twice (detector armed and off), scores the emitted anomaly
//!   events against the injected plan's ground truth, and records
//!   precision / recall / detection latency plus the mitigation payoff.

mod exec;
mod json;
mod plan;
mod results;

pub use exec::{run_pool, run_trial, TrialRecord};
pub use json::Json;
pub use plan::{CrashPoint, FaultSpec, MatrixPlan, Trial};
pub use results::{
    diff_results, diff_timings, journal_drilldown, run_plan, run_plan_with_push, timings_from_json,
    timings_to_json, Divergence, MatrixResults, PushHook, RESULTS_FORMAT, TIMINGS_FORMAT,
};

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::exec::{driver_trial, merge_trial, MERGE_DISJOINT_SITE_BUDGET};
    use super::*;
    use crate::Class;

    fn small_plan_text() -> &'static str {
        r#"{
            "name": "unit",
            "workloads": ["CHAOS", "BT"],
            "ranks": [4],
            "seeds": [1, 2],
            "faults": ["lossy"],
            "journal": [true, false],
            "steps": 12
        }"#
    }

    #[test]
    fn json_roundtrip_and_accessors() {
        let text = r#"{"a": [1, 2.5, -3], "b": "x\nyA", "c": true, "d": null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\nyA"));
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(true));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_u64(), None, "negative is not a u64");
        // Pretty output reparses to the same value.
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        // Unbalanced nesting far past any real plan: a typed error, not a
        // stack overflow.
        let deep = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(deep.contains("nesting"), "{deep}");
    }

    #[test]
    fn plan_parses_with_defaults() {
        let plan = MatrixPlan::from_json(small_plan_text()).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.classes, vec![Class::A]);
        assert_eq!(plan.ckpt_strides, vec![0]);
        assert_eq!(plan.steps, 12);
        assert_eq!(plan.scale, 25);
        // workloads x classes x ranks x seeds x faults x journal x strides
        #[allow(clippy::identity_op)]
        let want = 2 * 1 * 1 * 2 * 1 * 2 * 1;
        assert_eq!(plan.cardinality(), want);
    }

    #[test]
    fn plan_rejects_typos_and_bad_axes() {
        assert!(MatrixPlan::from_json(
            r#"{"name":"x","workloads":["BT"],"ranks":[2],"seeds":[1],"stepz":3}"#
        )
        .unwrap_err()
        .contains("unknown plan key"));
        let dup =
            MatrixPlan::from_json(r#"{"name":"x","workloads":["BT"],"ranks":[2,2],"seeds":[1]}"#)
                .unwrap();
        assert!(dup.validate().unwrap_err().contains("repeats"));
        let crashy = MatrixPlan::from_json(
            r#"{"name":"x","workloads":["BT"],"ranks":[2],"seeds":[1],"faults":["chaos"]}"#,
        )
        .unwrap();
        assert!(crashy.validate().unwrap_err().contains("CHAOS"));
        let rc = MatrixPlan::from_json(
            r#"{"name":"x","workloads":["CHAOS"],"ranks":[4],"seeds":[1],"faults":["rootcrash@mid"]}"#,
        )
        .unwrap();
        assert!(rc.validate().unwrap_err().contains("ckpt_strides"));
        assert_eq!(
            MatrixPlan::from_json(
                r#"{"name":"x","workloads":["BT"],"ranks":[2],"seeds":[1],"retry_budgets":[1]}"#
            )
            .unwrap_err(),
            r#"unknown plan key "retry_budgets""#
        );
        let bt_ckpt = MatrixPlan::from_json(
            r#"{"name":"x","workloads":["BT"],"ranks":[2],"seeds":[1],"ckpt_strides":[2]}"#,
        )
        .unwrap();
        assert!(bt_ckpt.validate().unwrap_err().contains("ckpt_strides"));
        let chaos_ckpt = MatrixPlan::from_json(
            r#"{"name":"x","workloads":["CHAOS"],"ranks":[4],"seeds":[1],"ckpt_strides":[4]}"#,
        )
        .unwrap();
        chaos_ckpt.validate().unwrap();
        let merge_faulty = MatrixPlan::from_json(
            r#"{"name":"x","workloads":["MERGE_NEAR"],"ranks":[4],"seeds":[1],"faults":["lossy"]}"#,
        )
        .unwrap();
        assert!(merge_faulty.validate().unwrap_err().contains("MERGE_"));
    }

    #[test]
    fn expansion_is_sorted_and_exact() {
        let plan = MatrixPlan::from_json(small_plan_text()).unwrap();
        let trials = plan.expand();
        assert_eq!(trials.len(), plan.cardinality());
        let ids: Vec<&str> = trials.iter().map(|t| t.id.as_str()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "canonical order is the ID sort");
        let mut deduped = sorted.clone();
        deduped.dedup();
        assert_eq!(deduped.len(), ids.len(), "IDs are unique");
    }

    #[test]
    fn pool_preserves_item_order() {
        let items: Vec<usize> = (0..64).collect();
        for jobs in [1, 3, 8] {
            let out = run_pool(&items, jobs, |i, &v| {
                // Stagger completion to shake out ordering bugs.
                std::thread::sleep(std::time::Duration::from_micros((v % 7) as u64 * 50));
                (i, v * 2)
            });
            assert_eq!(out, items.iter().map(|&v| (v, v * 2)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fault_specs_parse_and_tag() {
        for (s, id) in [
            ("none", "none"),
            ("lossy", "lossy"),
            ("chaos", "chaos"),
            ("rootcrash@first", "rootcrash_first"),
            ("rootcrash@mid", "rootcrash_mid"),
            ("rootcrash@last", "rootcrash_last"),
            ("straggler", "straggler"),
            ("ramp", "ramp"),
            ("imbalance", "imbalance"),
        ] {
            assert_eq!(FaultSpec::parse(s).unwrap().id(), id);
        }
        assert!(FaultSpec::parse("rootcrash@soon").is_err());
        assert!(FaultSpec::RootCrash(CrashPoint::Mid).crashes());
        assert!(!FaultSpec::Lossy.crashes());
        for spec in [FaultSpec::Straggler, FaultSpec::Ramp, FaultSpec::Imbalance] {
            assert!(spec.degrades() && !spec.crashes());
            let plan = spec
                .degraded_plan(3, 6)
                .expect("degraded specs carry a plan");
            assert!(plan.degrades());
            assert!(!plan.degraded_ranks(6).is_empty());
        }
        assert!(!FaultSpec::Lossy.degrades());
        assert!(FaultSpec::Lossy.degraded_plan(3, 6).is_none());
        assert_eq!(CrashPoint::Mid.marker(40), 20);
        assert_eq!(CrashPoint::Last.marker(40), 39);
    }

    #[test]
    fn degraded_plan_validation_rules() {
        // Degraded faults only ride the scenario workloads.
        let bt = MatrixPlan::from_json(
            r#"{"name":"x","workloads":["BT"],"ranks":[4],"seeds":[1],"faults":["straggler"]}"#,
        )
        .unwrap();
        assert!(bt.validate().unwrap_err().contains("DRING/DGRID"));
        let chaos = MatrixPlan::from_json(
            r#"{"name":"x","workloads":["CHAOS"],"ranks":[4],"seeds":[1],"faults":["ramp"]}"#,
        )
        .unwrap();
        assert!(chaos.validate().unwrap_err().contains("DRING/DGRID"));
        // The heartbeat ring needs an even world.
        let odd = MatrixPlan::from_json(
            r#"{"name":"x","workloads":["DRING"],"ranks":[5],"seeds":[1],"faults":["straggler"]}"#,
        )
        .unwrap();
        assert!(odd.validate().unwrap_err().contains("even world"));
        // Scoring reads the journal.
        let nojournal = MatrixPlan::from_json(
            r#"{"name":"x","workloads":["DGRID"],"ranks":[6],"seeds":[1],
                "faults":["imbalance"],"journal":[false]}"#,
        )
        .unwrap();
        assert!(nojournal.validate().unwrap_err().contains("journal"));
        // The well-formed shape passes.
        let good = MatrixPlan::from_json(
            r#"{"name":"x","workloads":["DRING","DGRID"],"ranks":[6],"seeds":[1,2],
                "faults":["straggler","ramp","imbalance"]}"#,
        )
        .unwrap();
        good.validate().unwrap();
        assert_eq!(good.cardinality(), 12);
    }

    #[test]
    fn degraded_trial_scores_against_ground_truth() {
        let plan = MatrixPlan::from_json(
            r#"{"name":"unit-degraded","workloads":["DRING"],"ranks":[6],"seeds":[1],
                "faults":["straggler"]}"#,
        )
        .unwrap();
        plan.validate().unwrap();
        let trials = plan.expand();
        assert_eq!(trials.len(), 1);
        let dir =
            std::env::temp_dir().join(format!("cham_matrix_degraded_unit_{}", std::process::id()));
        let record = run_trial(&plan, &trials[0], &dir.join(&trials[0].id));
        assert!(record.ok, "{:?}", record.fields);
        assert_eq!(record.fields["kind"], "driver");
        assert_eq!(record.fields["truth"], "[5]");
        assert_eq!(record.fields["flagged"], "[5]");
        assert_eq!(record.fields["precision"], "1.000");
        assert_eq!(record.fields["recall"], "1.000");
        assert_ne!(record.fields["detection_latency"], "none");
        assert!(record.fields.contains_key("retransmits_on"));
        assert!(record.fields.contains_key("retransmits_off"));
        // The armed journal landed on disk for drill-down.
        assert!(dir.join(&trials[0].id).join("journal.jsonl").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_trial_whose_artifacts_cannot_be_written_fails() {
        let plan = MatrixPlan::from_json(
            r#"{"name":"unit-write","workloads":["BT"],"ranks":[4],"seeds":[1],
                "faults":["none"],"journal":[true],"steps":8}"#,
        )
        .unwrap();
        plan.validate().unwrap();
        let trial = &plan.expand()[0];
        let base =
            std::env::temp_dir().join(format!("cham_matrix_write_unit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();

        // Written: the digest is that of the file's bytes.
        let good = base.join("good");
        std::fs::create_dir_all(&good).unwrap();
        let mut fields = BTreeMap::new();
        assert!(driver_trial(&plan, trial, &good, &mut fields), "{fields:?}");
        let jsonl = std::fs::read(good.join("journal.jsonl")).unwrap();
        assert_eq!(
            fields["journal_digest"],
            format!("{:#018x}", obs::wire::fnv64(&jsonl))
        );

        // A directory below a regular file: every write is ENOTDIR (the
        // tests run as root, so permissions would not stop a write).
        let file = base.join("file");
        std::fs::write(&file, b"").unwrap();
        let bad = file.join("trial");
        let mut fields = BTreeMap::new();
        assert!(!driver_trial(&plan, trial, &bad, &mut fields));
        assert!(fields["error"].contains("journal.jsonl"), "{fields:?}");
        let record = run_trial(&plan, trial, &bad);
        assert!(!record.ok);
        assert!(record.fields.contains_key("error"), "{:?}", record.fields);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn merge_trial_is_deterministic_and_seed_sensitive() {
        let plan = MatrixPlan::from_json(
            r#"{"name":"m","workloads":["MERGE_NEAR"],"ranks":[4],"seeds":[1,2],"merge_base_n":64}"#,
        )
        .unwrap();
        plan.validate().unwrap();
        let trials = plan.expand();
        let mut digests = Vec::new();
        for trial in &trials {
            let mut a = BTreeMap::new();
            let mut b = BTreeMap::new();
            assert!(merge_trial(&plan, trial, &mut a));
            assert!(merge_trial(&plan, trial, &mut b));
            assert_eq!(a, b, "merge trials are pure");
            assert_eq!(a["fast_matches_reference"], "true");
            digests.push(a["merged_digest"].clone());
        }
        assert_ne!(digests[0], digests[1], "seeds produce distinct artifacts");
    }

    #[test]
    fn merge_fold_width_is_recorded_and_caps_only_disjoint() {
        // Cheap, non-binding coordinates: the policy (record always, cap
        // only MERGE_DISJOINT, never below 2) is pinned here; the binding
        // 16k rows live in the committed merge-scaling baseline.
        let plan = MatrixPlan::from_json(
            r#"{"name":"w","workloads":["MERGE_IDENTICAL","MERGE_DISJOINT"],
                "ranks":[4,64],"seeds":[0],"merge_base_n":64}"#,
        )
        .unwrap();
        plan.validate().unwrap();
        for trial in &plan.expand() {
            let mut fields = BTreeMap::new();
            assert!(merge_trial(&plan, trial, &mut fields));
            let width: usize = fields["fold_width"].parse().unwrap();
            let n: usize = fields["n"].parse().unwrap();
            let expect = if trial.workload == "MERGE_DISJOINT" {
                trial.p.min((MERGE_DISJOINT_SITE_BUDGET / n).max(2))
            } else {
                trial.p
            };
            assert_eq!(width, expect, "{}: fold width policy", trial.id);
            // The fold really had that width: disjoint folds concatenate,
            // so the merged size is exactly width * n.
            if trial.workload == "MERGE_DISJOINT" {
                assert_eq!(
                    fields["fold_events"],
                    (width * n).to_string(),
                    "{}: disjoint fold size",
                    trial.id
                );
            }
        }
    }

    #[test]
    fn results_roundtrip_and_diff_names_first_divergence() {
        let mk = |ok: bool, digest: &str| {
            let mut fields = BTreeMap::new();
            fields.insert("trace_digest".to_string(), digest.to_string());
            fields.insert("crashed".to_string(), "[]".to_string());
            TrialRecord {
                id: "BT-A-p0004-none-s0000000000000001-j1-k00".to_string(),
                ok,
                fields,
                wall_ns: 123,
            }
        };
        let base = MatrixResults {
            plan: "unit".to_string(),
            timing_tolerance_pct: 50.0,
            trials: vec![mk(true, "0xaa")],
        };
        let parsed = MatrixResults::from_json(&base.to_json()).unwrap();
        assert_eq!(parsed.plan, base.plan);
        assert_eq!(parsed.trials[0].fields, base.trials[0].fields);
        assert_eq!(diff_results(&base, &parsed), None);

        let mut cur = base.clone();
        cur.trials[0]
            .fields
            .insert("trace_digest".to_string(), "0xbb".to_string());
        let d = diff_results(&base, &cur).unwrap();
        assert_eq!(d.metric, "trace_digest");
        assert_eq!((d.want.as_str(), d.got.as_str()), ("0xaa", "0xbb"));
        assert!(d.to_string().contains("BT-A-p0004"), "{d}");

        let mut missing = base.clone();
        missing.trials.clear();
        assert_eq!(diff_results(&base, &missing).unwrap().metric, "presence");
        assert_eq!(
            diff_results(&missing, &base).unwrap().got,
            "present",
            "extra trials diverge too"
        );

        let mut flipped = base.clone();
        flipped.trials[0].ok = false;
        assert_eq!(diff_results(&base, &flipped).unwrap().metric, "ok");
    }

    #[test]
    fn timing_bands_tolerate_noise_but_not_regressions() {
        let mut base = BTreeMap::new();
        base.insert("t".to_string(), 1_000u64);
        let mut cur = BTreeMap::new();
        cur.insert("t".to_string(), 1_400u64);
        assert_eq!(diff_timings(&base, &cur, 50.0), None);
        cur.insert("t".to_string(), 1_600u64);
        let d = diff_timings(&base, &cur, 50.0).unwrap();
        assert_eq!(d.metric, "wall_ns");
        // A trial only one side timed is skipped.
        cur.clear();
        assert_eq!(diff_timings(&base, &cur, 50.0), None);
    }

    #[test]
    fn timings_table_roundtrips() {
        let mut t = BTreeMap::new();
        t.insert("a".to_string(), 42u64);
        t.insert("b".to_string(), 7_000_000_000u64);
        let text = timings_to_json("unit", &t);
        assert_eq!(timings_from_json(&text).unwrap(), t);
    }
}
