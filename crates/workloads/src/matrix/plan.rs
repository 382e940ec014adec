//! Plans: fault specs, trial coordinates, and the axes → trials expansion.

use std::fmt;
use std::path::Path;

use mpisim::FaultPlan;

use super::json::Json;
use crate::degraded::{imbalance_plan, ramp_plan, straggler_plan};
use crate::registry::try_workload;
use crate::Class;

/// Which marker boundary a root-crash trial kills rank 0 at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrashPoint {
    /// The first marker.
    First,
    /// `steps / 2`.
    Mid,
    /// The last marker.
    Last,
}

impl CrashPoint {
    /// The marker index for a run of `steps` markers.
    pub fn marker(self, steps: usize) -> usize {
        match self {
            CrashPoint::First => 0,
            CrashPoint::Mid => steps / 2,
            CrashPoint::Last => steps - 1,
        }
    }
}

/// One value of the plan's fault axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSpec {
    /// Armed fault layer, nothing injected.
    None,
    /// The standard lossy link (2% corruption, 0.5% duplication, 0.5%
    /// delay) with no crash — legal on every workload.
    Lossy,
    /// [`chaos_plan`]: one non-root rank crash plus the lossy link
    /// (`CHAOS` workload only).
    Chaos,
    /// [`root_crash_plan`] at a marker boundary, run under the checkpoint
    /// supervisor (`CHAOS` workload only; needs `ckpt_stride >= 1`).
    RootCrash(CrashPoint),
    /// [`straggler_plan`]: rank `p - 1` computes 4x slower (`DRING` /
    /// `DGRID` only; the trial scores detection against ground truth).
    Straggler,
    /// [`ramp_plan`]: rank 1's outgoing tool-plane link degrades
    /// progressively (`DRING` / `DGRID` only).
    Ramp,
    /// [`imbalance_plan`]: the heavy corner runs 2.5x compute (`DRING` /
    /// `DGRID` only).
    Imbalance,
}

impl FaultSpec {
    /// Parse a plan-file fault string.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        match s {
            "none" => Ok(FaultSpec::None),
            "lossy" => Ok(FaultSpec::Lossy),
            "chaos" => Ok(FaultSpec::Chaos),
            "rootcrash@first" => Ok(FaultSpec::RootCrash(CrashPoint::First)),
            "rootcrash@mid" => Ok(FaultSpec::RootCrash(CrashPoint::Mid)),
            "rootcrash@last" => Ok(FaultSpec::RootCrash(CrashPoint::Last)),
            "straggler" => Ok(FaultSpec::Straggler),
            "ramp" => Ok(FaultSpec::Ramp),
            "imbalance" => Ok(FaultSpec::Imbalance),
            other => Err(format!(
                "unknown fault spec {other:?} (want none | lossy | chaos | \
                 rootcrash@first|mid|last | straggler | ramp | imbalance)"
            )),
        }
    }

    /// Filesystem- and ID-safe tag.
    pub fn id(self) -> &'static str {
        match self {
            FaultSpec::None => "none",
            FaultSpec::Lossy => "lossy",
            FaultSpec::Chaos => "chaos",
            FaultSpec::RootCrash(CrashPoint::First) => "rootcrash_first",
            FaultSpec::RootCrash(CrashPoint::Mid) => "rootcrash_mid",
            FaultSpec::RootCrash(CrashPoint::Last) => "rootcrash_last",
            FaultSpec::Straggler => "straggler",
            FaultSpec::Ramp => "ramp",
            FaultSpec::Imbalance => "imbalance",
        }
    }

    /// Does this spec kill a rank?
    pub fn crashes(self) -> bool {
        matches!(self, FaultSpec::Chaos | FaultSpec::RootCrash(_))
    }

    /// Does this spec degrade ranks without killing them (the detect-and-
    /// mitigate scenarios scored against [`FaultPlan::degraded_ranks`])?
    pub fn degrades(self) -> bool {
        matches!(
            self,
            FaultSpec::Straggler | FaultSpec::Ramp | FaultSpec::Imbalance
        )
    }

    /// The injected plan of a degraded spec (`None` for other specs).
    pub(super) fn degraded_plan(self, seed: u64, p: usize) -> Option<FaultPlan> {
        match self {
            FaultSpec::Straggler => Some(straggler_plan(seed, p)),
            FaultSpec::Ramp => Some(ramp_plan(seed)),
            FaultSpec::Imbalance => Some(imbalance_plan(seed)),
            _ => None,
        }
    }

    /// The crash-free lossy link shared by `lossy`, `chaos`, and
    /// `rootcrash` specs.
    pub(super) fn lossy_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .corrupt_per_mille(20)
            .duplicate_per_mille(5)
            .delay(5, 2e-4)
    }
}

// ---------------------------------------------------------------------
// Plans and trials
// ---------------------------------------------------------------------

/// One expanded point of the cross product.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Canonical ID, a pure function of the coordinates below.
    pub id: String,
    /// Workload name (`CHAOS`, `MERGE_*`, or a registry name).
    pub workload: String,
    /// Input class.
    pub class: Class,
    /// World size (fold width for `MERGE_*`).
    pub p: usize,
    /// Fault-plan / generator seed.
    pub seed: u64,
    /// Fault axis value.
    pub fault: FaultSpec,
    /// Flight recorder on?
    pub journal: bool,
    /// Durable-checkpoint stride (0 = off).
    pub ckpt_stride: u64,
}

fn trial_id(
    workload: &str,
    class: Class,
    p: usize,
    fault: FaultSpec,
    seed: u64,
    journal: bool,
    ckpt_stride: u64,
) -> String {
    // Zero-padded numeric fields make the lexicographic ID sort agree
    // with the numeric axis order, so the canonical trial sequence is
    // stable under any axis-list or JSON-key reordering.
    format!(
        "{workload}-{}-p{p:04}-{}-s{seed:016x}-j{}-k{ckpt_stride:02}",
        class.label(),
        fault.id(),
        u8::from(journal),
    )
}

/// A parsed, validated scenario-matrix plan.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixPlan {
    /// Plan name (directory under the matrix output root).
    pub name: String,
    /// Workload axis.
    pub workloads: Vec<String>,
    /// Class axis (default `["A"]`).
    pub classes: Vec<Class>,
    /// Rank-count axis.
    pub ranks: Vec<usize>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Fault axis (default `["none"]`).
    pub faults: Vec<FaultSpec>,
    /// Journal toggle axis (default `[true]`).
    pub journal: Vec<bool>,
    /// Checkpoint-stride axis (default `[0]`; other strides only on
    /// `CHAOS`).
    pub ckpt_strides: Vec<u64>,
    /// Chaos-ring markers per trial (default 40; `CHAOS` only).
    pub steps: usize,
    /// Named-workload iteration divisor (default 25; see
    /// [`crate::driver::ScaledWorkload`]).
    pub scale: usize,
    /// Class-A merged-trace size for `MERGE_*` trials (default 128).
    pub merge_base_n: usize,
    /// Timing band for [`diff_timings`], in percent (default 50).
    pub timing_tolerance_pct: f64,
}

fn axis_u64(v: &Json, what: &str) -> Result<Vec<u64>, String> {
    v.as_array()
        .ok_or(format!("{what} must be an array"))?
        .iter()
        .map(|x| x.as_u64().ok_or(format!("{what} holds a non-integer")))
        .collect()
}

impl MatrixPlan {
    /// Parse a plan document. Unknown keys are errors — a typo in a
    /// declarative config must not silently become a default.
    pub fn from_json(text: &str) -> Result<MatrixPlan, String> {
        let doc = Json::parse(text)?;
        let obj = match &doc {
            Json::Obj(entries) => entries,
            _ => return Err("plan must be a JSON object".to_string()),
        };
        const KNOWN: [&str; 12] = [
            "name",
            "workloads",
            "classes",
            "ranks",
            "seeds",
            "faults",
            "journal",
            "ckpt_strides",
            "steps",
            "scale",
            "merge_base_n",
            "timing_tolerance_pct",
        ];
        for (key, _) in obj {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!("unknown plan key {key:?}"));
            }
        }
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("plan needs a string \"name\"")?
            .to_string();
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("plan needs a \"workloads\" array")?
            .iter()
            .map(|w| {
                w.as_str()
                    .map(str::to_string)
                    .ok_or("workloads holds a non-string".to_string())
            })
            .collect::<Result<_, _>>()?;
        let classes = match doc.get("classes") {
            None => vec![Class::A],
            Some(v) => v
                .as_array()
                .ok_or("classes must be an array")?
                .iter()
                .map(|c| match c.as_str() {
                    Some("A") => Ok(Class::A),
                    Some("B") => Ok(Class::B),
                    Some("C") => Ok(Class::C),
                    Some("D") => Ok(Class::D),
                    _ => Err(format!("bad class {c:?} (want \"A\"..\"D\")")),
                })
                .collect::<Result<_, _>>()?,
        };
        let ranks = axis_u64(
            doc.get("ranks").ok_or("plan needs a \"ranks\" array")?,
            "ranks",
        )?
        .into_iter()
        .map(|r| r as usize)
        .collect();
        let seeds = axis_u64(
            doc.get("seeds").ok_or("plan needs a \"seeds\" array")?,
            "seeds",
        )?;
        let faults = match doc.get("faults") {
            None => vec![FaultSpec::None],
            Some(v) => v
                .as_array()
                .ok_or("faults must be an array")?
                .iter()
                .map(|f| FaultSpec::parse(f.as_str().ok_or("faults holds a non-string")?))
                .collect::<Result<_, _>>()?,
        };
        let journal = match doc.get("journal") {
            None => vec![true],
            Some(v) => v
                .as_array()
                .ok_or("journal must be an array")?
                .iter()
                .map(|b| b.as_bool().ok_or("journal holds a non-boolean".to_string()))
                .collect::<Result<_, _>>()?,
        };
        let ckpt_strides = match doc.get("ckpt_strides") {
            None => vec![0],
            Some(v) => axis_u64(v, "ckpt_strides")?,
        };
        let scalar = |key: &str, default: u64| -> Result<u64, String> {
            match doc.get(key) {
                None => Ok(default),
                Some(v) => v.as_u64().ok_or(format!("{key} must be an integer")),
            }
        };
        let steps = scalar("steps", 40)? as usize;
        let scale = scalar("scale", 25)? as usize;
        let merge_base_n = scalar("merge_base_n", 128)? as usize;
        let timing_tolerance_pct = match doc.get("timing_tolerance_pct") {
            None => 50.0,
            Some(v) => v.as_f64().ok_or("timing_tolerance_pct must be a number")?,
        };
        Ok(MatrixPlan {
            name,
            workloads,
            classes,
            ranks,
            seeds,
            faults,
            journal,
            ckpt_strides,
            steps,
            scale,
            merge_base_n,
            timing_tolerance_pct,
        })
    }

    /// Read, parse, and validate a plan file.
    pub fn load(path: &Path) -> Result<MatrixPlan, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let plan = MatrixPlan::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        plan.validate()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(plan)
    }

    /// Reject plans the executors cannot honor. Duplicate axis values are
    /// errors too: they would silently collapse the cross product (trial
    /// IDs collide), breaking the cardinality contract.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!(
                "plan name {:?} must be non-empty [A-Za-z0-9_-]",
                self.name
            ));
        }
        fn no_dupes<T: PartialEq + fmt::Debug>(axis: &[T], what: &str) -> Result<(), String> {
            if axis.is_empty() {
                return Err(format!("{what} axis is empty"));
            }
            for (i, v) in axis.iter().enumerate() {
                if axis[..i].contains(v) {
                    return Err(format!("{what} axis repeats {v:?}"));
                }
            }
            Ok(())
        }
        no_dupes(&self.workloads, "workloads")?;
        no_dupes(&self.classes, "classes")?;
        no_dupes(&self.ranks, "ranks")?;
        no_dupes(&self.seeds, "seeds")?;
        no_dupes(&self.faults, "faults")?;
        no_dupes(&self.journal, "journal")?;
        no_dupes(&self.ckpt_strides, "ckpt_strides")?;
        if self.steps == 0 || self.scale == 0 || self.merge_base_n == 0 {
            return Err("steps, scale, and merge_base_n must be >= 1".to_string());
        }
        let crash_faults = self.faults.iter().any(|f| f.crashes());
        let rootcrash = self
            .faults
            .iter()
            .any(|f| matches!(f, FaultSpec::RootCrash(_)));
        if self.faults.iter().any(|f| f.degrades()) {
            for w in &self.workloads {
                if !matches!(w.as_str(), "DRING" | "DGRID") {
                    return Err(format!(
                        "degraded faults (straggler/ramp/imbalance) require the DRING/DGRID \
                         scenario workloads; {w:?} cannot host them (no tool-plane heartbeat \
                         to carry the flaky signal)"
                    ));
                }
            }
            if self.ranks.iter().any(|&p| p < 4 || !p.is_multiple_of(2)) {
                return Err(
                    "degraded trials need even world sizes of at least 4 ranks (the heartbeat \
                     ring is phased pairwise)"
                        .to_string(),
                );
            }
            if self.journal != [true] {
                return Err(
                    "degraded trials score the journal's anomaly events against ground truth; \
                     set journal to [true]"
                        .to_string(),
                );
            }
        }
        if self.ckpt_strides != [0] && self.workloads.iter().any(|w| w != "CHAOS") {
            return Err(
                "ckpt_strides other than [0] require the CHAOS workload (only its ring \
                 checkpoints)"
                    .to_string(),
            );
        }
        for w in &self.workloads {
            if w == "CHAOS" {
                if self.ranks.iter().any(|&p| p < 2) {
                    return Err("CHAOS needs at least 2 ranks".to_string());
                }
                continue;
            }
            if crash_faults {
                return Err(format!(
                    "crash-bearing faults require the CHAOS workload; {w:?} cannot host them \
                     (its app-plane receives are not dead-aware)"
                ));
            }
            if w.starts_with("MERGE_") {
                if !matches!(
                    w.as_str(),
                    "MERGE_IDENTICAL" | "MERGE_NEAR" | "MERGE_DISJOINT"
                ) {
                    return Err(format!("unknown merge case {w:?}"));
                }
                if self.faults.iter().any(|f| *f != FaultSpec::None) {
                    return Err(
                        "MERGE_* trials take no fault plan (use faults [\"none\"])".to_string()
                    );
                }
                continue;
            }
            if try_workload(w, 1).is_none() {
                return Err(format!("unknown workload {w:?}"));
            }
        }
        if rootcrash && self.ckpt_strides.contains(&0) {
            return Err(
                "rootcrash faults need ckpt_strides >= 1 (the supervisor resumes from disk)"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Cross-product cardinality.
    pub fn cardinality(&self) -> usize {
        self.workloads.len()
            * self.classes.len()
            * self.ranks.len()
            * self.seeds.len()
            * self.faults.len()
            * self.journal.len()
            * self.ckpt_strides.len()
    }

    /// Expand the full cross product into trials in canonical (ID-sorted)
    /// order. IDs are pure functions of trial coordinates, so the result
    /// is identical for any reordering of plan fields or axis lists.
    pub fn expand(&self) -> Vec<Trial> {
        let mut trials = Vec::with_capacity(self.cardinality());
        for workload in &self.workloads {
            for &class in &self.classes {
                for &p in &self.ranks {
                    for &fault in &self.faults {
                        for &seed in &self.seeds {
                            for &journal in &self.journal {
                                for &ckpt_stride in &self.ckpt_strides {
                                    trials.push(Trial {
                                        id: trial_id(
                                            workload,
                                            class,
                                            p,
                                            fault,
                                            seed,
                                            journal,
                                            ckpt_stride,
                                        ),
                                        workload: workload.clone(),
                                        class,
                                        p,
                                        seed,
                                        fault,
                                        journal,
                                        ckpt_stride,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        trials.sort_by(|a, b| a.id.cmp(&b.id));
        trials
    }
}
