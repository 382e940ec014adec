//! The experiment driver: run any workload under any instrumentation.
//!
//! One entry point, [`run`], covers the paper's four measurement
//! configurations:
//!
//! * [`Mode::AppOnly`] — the non-instrumented application (the "APP" bars
//!   of Figures 4–7); tracing is disabled, markers are skipped;
//! * [`Mode::ScalaTrace`] — full per-rank tracing, all-rank inter-node
//!   compression at finalize (the "ScalaTrace" bars);
//! * [`Mode::Acurdion`] — full per-rank tracing, signature clustering +
//!   top-K merge at finalize (Table III's comparator);
//! * [`Mode::Chameleon`] — online clustering at markers (the paper's
//!   system).
//!
//! Reported times separate the two time domains deliberately:
//! `app_vtime` is deterministic *virtual* seconds of the simulated
//! application, while the overhead fields come from the deterministic
//! *tool clock* (modeled compute via [`mpisim::Work`] plus modeled
//! communication and waits) — mirroring the paper's split between
//! application runtime and tool overhead without measuring the
//! simulation host.

use std::sync::Arc;
use std::time::Duration;

use chameleon::baselines::{acurdion_finalize, scalatrace_finalize, BaselineOutcome};
use chameleon::{AlgoChoice, Chameleon, ChameleonConfig, ChameleonStats};
use mpisim::{FaultPlan, FaultStats, World, WorldConfig};
use scalatrace::reduction::DEFAULT_RADIX;
use scalatrace::{CompressedTrace, TracedProc};

use crate::{Class, RunSpec, Workload};

/// Instrumentation mode.
#[derive(Debug, Clone)]
pub enum Mode {
    /// No tracing at all.
    AppOnly,
    /// Plain ScalaTrace (all-rank merge at finalize).
    ScalaTrace,
    /// ACURDION-style finalize-time clustering.
    Acurdion,
    /// Chameleon online clustering.
    Chameleon,
}

/// Optional overrides for experiment sweeps.
#[derive(Debug, Clone, Default)]
pub struct Overrides {
    /// Override `Call_Frequency` (Figure 9's sweep).
    pub call_frequency: Option<u64>,
    /// Override K.
    pub k: Option<usize>,
    /// Override the clustering algorithm (ablations).
    pub algo: Option<AlgoChoice>,
    /// Arm the flight recorder and gather a run journal (off by default —
    /// the recorder is zero-cost when disabled, but the journal itself
    /// holds every event). To query one without writing Rust, run a plan
    /// with `chamtrace matrix run`: every trial writes its
    /// `journal.jsonl` for `chamtrace journal <query>`.
    pub journal: bool,
    /// Arm this fault plan on the world: crashed ranks report `None`
    /// (every run goes through [`World::run_faulty`]), and the report
    /// carries `crashed` plus per-rank fault counters. Used by the
    /// scenario-matrix runner to drive named workloads over lossy links.
    pub faults: Option<FaultPlan>,
    /// Arm the streaming anomaly detector and its mitigation ladder
    /// ([`ChameleonConfig::with_detector`]; Chameleon mode only).
    pub detector: Option<obs::DetectorConfig>,
    /// Run the world on the pre-refactor free-running thread scheduler
    /// instead of the default event scheduler. The differential suite
    /// (`tests/sched_differential.rs`) uses this as its oracle; every
    /// simulation-visible output is byte-identical between the two.
    pub thread_sched: bool,
    /// Kept only because the benchmark harness sets it to `1`: the event
    /// scheduler always runs every rank on one thread. `0` (the default)
    /// and `1` mean that; [`run`] panics on anything else.
    pub workers: usize,
}

/// Uniform measurements from one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// World size.
    pub p: usize,
    /// Deterministic virtual execution time of the application.
    pub app_vtime: f64,
    /// Real wall-clock of the whole run (simulation included).
    pub wall: Duration,
    /// The global/online trace (rank 0), if the mode produces one.
    pub global_trace: Option<CompressedTrace>,
    /// Per-rank Chameleon stats (Chameleon mode only).
    pub cham_stats: Vec<ChameleonStats>,
    /// Per-rank baseline outcomes (ScalaTrace/ACURDION modes only).
    pub baseline: Vec<BaselineSummary>,
    /// The gathered flight-recorder journal (`Overrides::journal` only).
    pub journal: Option<obs::RunJournal>,
    /// Ranks killed by the armed fault plan, ascending (empty without
    /// `Overrides::faults`).
    pub crashed: Vec<usize>,
    /// Per-rank fault counters (all zeros without `Overrides::faults`).
    pub fault_stats: Vec<FaultStats>,
    /// The spec the run used (after overrides).
    pub spec: RunSpec,
}

/// The timing/memory numbers kept from a baseline rank (the trace itself
/// is only retained from rank 0).
#[derive(Debug, Clone, Copy)]
pub struct BaselineSummary {
    /// Clustering time (zero for plain ScalaTrace).
    pub clustering_time: Duration,
    /// Inter-node merge time.
    pub intercomp_time: Duration,
    /// Trace bytes held at finalize.
    pub trace_bytes: usize,
}

impl From<&BaselineOutcome> for BaselineSummary {
    fn from(b: &BaselineOutcome) -> Self {
        BaselineSummary {
            clustering_time: b.clustering_time,
            intercomp_time: b.intercomp_time,
            trace_bytes: b.trace_bytes,
        }
    }
}

impl RunReport {
    /// Total tool overhead aggregated across ranks, the paper's headline
    /// comparison number ("aggregated wall-clock times across all
    /// nodes").
    pub fn total_overhead(&self) -> Duration {
        let cham: Duration = self.cham_stats.iter().map(|s| s.total_overhead()).sum();
        let base: Duration = self
            .baseline
            .iter()
            .map(|b| b.clustering_time + b.intercomp_time)
            .sum();
        cham + base
    }

    /// Aggregated clustering time.
    pub fn clustering_overhead(&self) -> Duration {
        let cham: Duration = self
            .cham_stats
            .iter()
            .map(|s| s.clustering_time + s.vote_time + s.signature_time)
            .sum();
        let base: Duration = self.baseline.iter().map(|b| b.clustering_time).sum();
        cham + base
    }

    /// Aggregated inter-compression time.
    pub fn intercomp_overhead(&self) -> Duration {
        let cham: Duration = self.cham_stats.iter().map(|s| s.intercomp_time).sum();
        let base: Duration = self.baseline.iter().map(|b| b.intercomp_time).sum();
        cham + base
    }
}

/// A workload with its iteration counts divided by a scale factor while
/// the marker-state *shape* is preserved exactly: marker calls, state
/// sequences, and Call-Path structure are unchanged; only the number of
/// timesteps per marker interval shrinks. Lets the harness reproduce the
/// paper's tables on small machines and scale back to full fidelity with
/// `scale = 1`.
pub struct ScaledWorkload<W> {
    inner: W,
    scale: usize,
}

impl<W: Workload> ScaledWorkload<W> {
    /// Wrap `inner`, dividing steps and frequency by `scale`.
    pub fn new(inner: W, scale: usize) -> Self {
        assert!(scale >= 1);
        ScaledWorkload { inner, scale }
    }
}

impl<W: Workload> Workload for ScaledWorkload<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn spec(&self, class: Class, p: usize) -> RunSpec {
        let mut spec = self.inner.spec(class, p);
        // Use the largest divisor of the call frequency that does not
        // exceed the requested scale: dividing steps and frequency by the
        // same exact divisor preserves marker counts and state shapes
        // bit-for-bit (a non-divisor would round the frequency and drift
        // the marker count).
        let limit = self.scale.min(spec.call_frequency as usize).max(1);
        let freq = spec.call_frequency as usize;
        let scale = (1..=limit)
            .rev()
            .find(|s| freq.is_multiple_of(*s))
            .unwrap_or(1);
        spec.main_steps = (spec.main_steps / scale).max(1);
        for ph in spec.phase_steps.iter_mut() {
            *ph = (*ph / scale).max(1);
        }
        spec.call_frequency = (spec.call_frequency / scale as u64).max(1);
        spec
    }

    fn step(&self, tp: &mut TracedProc, class: Class, step: usize) {
        self.inner.step(tp, class, step)
    }
}

/// Execute `workload` on `p` simulated ranks under `mode`.
pub fn run(
    workload: Arc<dyn Workload>,
    class: Class,
    p: usize,
    mode: Mode,
    overrides: Overrides,
) -> RunReport {
    let mut spec = workload.spec(class, p);
    if let Some(f) = overrides.call_frequency {
        spec.call_frequency = f;
    }
    if let Some(k) = overrides.k {
        spec.k = k;
    }
    let algo = overrides.algo.unwrap_or_default();
    let name = workload.name();
    let spec_for_ranks = spec.clone();
    let mode_for_ranks = mode.clone();
    let detector = overrides.detector;

    enum RankOutcome {
        App,
        Baseline(BaselineOutcome),
        Chameleon(chameleon::FinalizeOutcome),
    }

    let program = move |proc: &mut mpisim::Proc| {
        let mut tp = TracedProc::new(proc);
        let spec = &spec_for_ranks;
        let mut cham = match mode_for_ranks {
            Mode::Chameleon => {
                let mut cfg = ChameleonConfig::with_k(spec.k)
                    .with_frequency(spec.call_frequency)
                    .with_algo(algo);
                if let Some(d) = detector {
                    cfg = cfg.with_detector(d);
                }
                Some(Chameleon::new(cfg))
            }
            Mode::AppOnly => {
                tp.tracer_mut().set_enabled(false);
                None
            }
            _ => None,
        };
        for step in 0..spec.total_steps() {
            spec.run_step(workload.as_ref(), &mut tp, class, step);
            if let Some(cham) = cham.as_mut() {
                cham.marker(&mut tp);
            }
        }
        match mode_for_ranks {
            Mode::AppOnly => RankOutcome::App,
            Mode::ScalaTrace => RankOutcome::Baseline(scalatrace_finalize(&mut tp, DEFAULT_RADIX)),
            Mode::Acurdion => RankOutcome::Baseline(acurdion_finalize(
                &mut tp,
                &ChameleonConfig::with_k(spec.k).with_algo(algo),
            )),
            Mode::Chameleon => {
                RankOutcome::Chameleon(cham.take().expect("driver built it").finalize(&mut tp))
            }
        }
    };

    let mut world_config = WorldConfig::new(p);
    if overrides.thread_sched {
        world_config = world_config.with_thread_scheduler();
    }
    if overrides.workers > 0 {
        world_config = world_config.with_workers(overrides.workers);
    }
    if overrides.journal {
        world_config = world_config.with_recorder();
    }
    // Every run goes through the faulty world, so a planned crash is an
    // outcome, not a failure: crashed ranks report `None` and the run
    // degrades instead of panicking the driver. Unarmed, no rank can raise
    // an injected crash, so the run is the one `World::run` would make.
    if let Some(plan) = overrides.faults {
        world_config = world_config.with_faults(plan);
    }
    let report = World::new(world_config)
        .run_faulty(program)
        .unwrap_or_else(|e| panic!("workload {name} failed: {e}"));

    let mut global_trace = None;
    let mut cham_stats = Vec::new();
    let mut baseline = Vec::new();
    for (rank, outcome) in report.results.iter().enumerate() {
        match outcome {
            None => {} // killed by the plan
            Some(RankOutcome::App) => {}
            Some(RankOutcome::Baseline(b)) => {
                if rank == 0 {
                    global_trace = b.global_trace.clone();
                }
                baseline.push(BaselineSummary::from(b));
            }
            Some(RankOutcome::Chameleon(f)) => {
                // Whichever survivor roots the online trace surfaces it —
                // rank 0 normally, the promoted deputy after a root crash.
                if let Some(trace) = &f.online_trace {
                    global_trace = Some(trace.clone());
                }
                cham_stats.push(f.stats.clone());
            }
        }
    }

    RunReport {
        workload: name,
        p,
        app_vtime: report.max_vtime,
        wall: report.wall,
        global_trace,
        cham_stats,
        baseline,
        journal: report.journal,
        crashed: report.crashed,
        fault_stats: report.fault_stats,
        spec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bt::Bt;
    use crate::emf::Emf;
    use crate::lu::Lu;

    fn scaled<W: Workload>(w: W, s: usize) -> ScaledWorkload<W> {
        ScaledWorkload::new(w, s)
    }

    #[test]
    fn bt_chameleon_table2_states() {
        // BT scaled 5x: 50 steps, freq 5 -> 10 markers, same state shape
        // as Table II (1 C / 8 L / 1 AT).
        let rep = run(
            Arc::new(scaled(Bt, 5)),
            Class::A,
            4,
            Mode::Chameleon,
            Overrides::default(),
        );
        let s = &rep.cham_stats[0];
        assert_eq!(s.marker_calls, 10);
        assert_eq!(s.states.c, 1);
        assert_eq!(s.states.l, 8);
        assert_eq!(s.states.at, 1);
        assert!(rep.global_trace.is_some());
    }

    #[test]
    fn lu_chameleon_table2_states() {
        // LU scaled 5x: 52+4+4 steps, freq 4 -> 15 markers, 1 C / 11 L /
        // 3 AT — exactly Table II's LU row shape (class D, the paper's
        // configuration; smaller classes run fewer timesteps).
        let rep = run(
            Arc::new(scaled(Lu::strong(), 5)),
            Class::D,
            4,
            Mode::Chameleon,
            Overrides::default(),
        );
        let s = &rep.cham_stats[0];
        assert_eq!(s.marker_calls, 15);
        assert_eq!(s.states.c, 1, "exactly one clustering");
        assert_eq!(s.states.l, 11);
        assert_eq!(s.states.at, 3, "first + two phase changes");
    }

    #[test]
    fn emf_chameleon_table2_states() {
        let rep = run(
            Arc::new(Emf),
            Class::A,
            5, // rounds(5) = 9000, freq 1000 -> 9 markers
            Mode::Chameleon,
            Overrides::default(),
        );
        let s = &rep.cham_stats[0];
        assert_eq!(s.marker_calls, 9);
        assert_eq!(s.states.c, 1);
        assert_eq!(s.states.l, 6);
        assert_eq!(s.states.at, 2);
    }

    #[test]
    fn app_only_no_overhead_artifacts() {
        let rep = run(
            Arc::new(scaled(Bt, 25)),
            Class::A,
            4,
            Mode::AppOnly,
            Overrides::default(),
        );
        assert!(rep.global_trace.is_none());
        assert!(rep.cham_stats.is_empty());
        assert!(rep.baseline.is_empty());
        assert_eq!(rep.total_overhead(), Duration::ZERO);
        assert!(rep.app_vtime > 0.0);
    }

    #[test]
    fn scalatrace_vs_chameleon_same_app_vtime() {
        // Virtual time is tracing-independent: the tool runs in wall
        // time, not virtual time.
        let a = run(
            Arc::new(scaled(Bt, 25)),
            Class::A,
            4,
            Mode::AppOnly,
            Overrides::default(),
        );
        let b = run(
            Arc::new(scaled(Bt, 25)),
            Class::A,
            4,
            Mode::ScalaTrace,
            Overrides::default(),
        );
        let c = run(
            Arc::new(scaled(Bt, 25)),
            Class::A,
            4,
            Mode::Chameleon,
            Overrides::default(),
        );
        assert!((a.app_vtime - b.app_vtime).abs() < 1e-9);
        assert!((a.app_vtime - c.app_vtime).abs() < 1e-9);
    }

    #[test]
    fn freq_override_applies() {
        let rep = run(
            Arc::new(scaled(Bt, 25)), // 10 steps
            Class::A,
            2,
            Mode::Chameleon,
            Overrides {
                call_frequency: Some(2),
                ..Default::default()
            },
        );
        assert_eq!(rep.cham_stats[0].marker_calls, 5);
        assert_eq!(rep.spec.call_frequency, 2);
    }

    #[test]
    fn journal_gathers_only_when_requested() {
        let rep = run(
            Arc::new(scaled(Bt, 25)),
            Class::A,
            4,
            Mode::Chameleon,
            Overrides::default(),
        );
        assert!(rep.journal.is_none(), "recorder is opt-in");

        let rep = run(
            Arc::new(scaled(Bt, 25)),
            Class::A,
            4,
            Mode::Chameleon,
            Overrides {
                journal: true,
                ..Default::default()
            },
        );
        let j = rep.journal.expect("requested journal must be gathered");
        assert!(!j.armed);
        // Every rank logged its markers, signatures, and state
        // transitions; the slice counts agree with the stats.
        let markers_per_rank = rep.cham_stats[0].marker_invocations;
        assert_eq!(j.count("marker"), markers_per_rank * 4);
        assert!(j.count("signature") > 0);
        assert!(j.count("state") > 0);
        assert_eq!(j.count("fault"), 0, "fault-free run logs no faults");
        // The metrics plane snapshots at every marker plus finalize, on
        // the reduction root only.
        assert_eq!(j.count("snapshot"), markers_per_rank + 1);
        assert!(j
            .rank_log(0)
            .is_some_and(|l| l.counters().get("snapshot").copied() == Some(markers_per_rank + 1)));
    }

    #[test]
    fn fault_armed_lossy_run_completes_and_counts() {
        // A crash-free lossy link: the run must complete with an online
        // trace, no crashed ranks, and the injected-fault counters (and
        // their byte-reproducibility) surfaced on the report.
        let armed = || {
            run(
                Arc::new(scaled(Bt, 25)),
                Class::A,
                4,
                Mode::Chameleon,
                Overrides {
                    journal: true,
                    faults: Some(
                        mpisim::FaultPlan::new(11)
                            .corrupt_per_mille(200)
                            .duplicate_per_mille(50),
                    ),
                    ..Default::default()
                },
            )
        };
        let rep = armed();
        assert!(rep.crashed.is_empty(), "no crash was planned");
        assert!(rep.global_trace.is_some());
        assert_eq!(rep.cham_stats.len(), 4);
        assert_eq!(rep.fault_stats.len(), 4);
        let journal = rep.journal.as_ref().expect("recorder armed");
        assert!(journal.armed, "fault-armed runs arm the recorder");
        let again = armed();
        assert_eq!(
            journal.to_jsonl(),
            again.journal.unwrap().to_jsonl(),
            "same-plan fault-armed runs are byte-identical"
        );
        assert_eq!(rep.fault_stats, again.fault_stats);
    }

    #[test]
    fn baseline_modes_produce_traces_and_times() {
        for mode in [Mode::ScalaTrace, Mode::Acurdion] {
            let rep = run(
                Arc::new(scaled(Lu::strong(), 20)),
                Class::A,
                4,
                mode,
                Overrides::default(),
            );
            assert!(rep.global_trace.is_some());
            assert_eq!(rep.baseline.len(), 4);
            assert!(rep.intercomp_overhead() > Duration::ZERO);
        }
    }
}
