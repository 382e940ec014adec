//! ElasticMedFlow (EMF) skeleton: a master–worker medical pipeline.
//!
//! EMF "is a generic framework for representing and executing medical
//! application pipelines in parallel with a master-worker paradigm with
//! mpi4py atop MPI. We created a sample DNA preprocessing pipeline of 9
//! stages with problem size of 1000 patient datasets. For each patient,
//! four DNA sequences are read, i.e., 1000 × 4 × 9 tasks are spawned."
//!
//! The skeleton dispatches those 36,000 tasks in rounds: each round the
//! master sends one task to every worker and collects the results through
//! a wildcard receive. Rounds scale inversely with worker count, exactly
//! reproducing Table II's EMF rows (P=126 → 288 iterations at frequency
//! 32, P=1001 → 36 at frequency 4; always 9 marker calls). Master and
//! workers form the **2 Call-Path groups** (Table I: K = 2).
//!
//! EMF is also the paper's small-trace corner case: intra-compression
//! collapses the whole run to a handful of PRSD events, making ScalaTrace
//! competitive below ~500 ranks (Figure 4's crossover).

use scalatrace::TracedProc;

use crate::{Class, RunSpec, Workload};

const TAG_TASK: u32 = 70;
const TAG_RESULT: u32 = 71;
/// Total pipeline tasks: 1000 patients × 4 sequences × 9 stages.
pub const TOTAL_TASKS: usize = 36_000;

/// The EMF skeleton.
#[derive(Debug, Clone, Copy, Default)]
pub struct Emf;

impl Emf {
    /// Dispatch rounds for a world of `p` ranks (p-1 workers).
    pub fn rounds(p: usize) -> usize {
        let workers = p.saturating_sub(1).max(1);
        (TOTAL_TASKS / workers).max(9)
    }
}

impl Workload for Emf {
    fn name(&self) -> &'static str {
        "EMF"
    }

    fn spec(&self, _class: Class, p: usize) -> RunSpec {
        // Always 9 marker calls: 8 from the main phase (AT, C, 6 L) and
        // one trailing report phase (AT). Frequency = rounds / 9.
        let rounds = Self::rounds(p);
        let call_frequency = (rounds as u64 / 9).max(1);
        let phase = call_frequency as usize;
        RunSpec {
            main_steps: rounds - phase,
            phase_steps: vec![phase],
            call_frequency,
            k: 2,
        }
    }

    fn step(&self, tp: &mut TracedProc, class: Class, _step: usize) {
        let me = tp.rank();
        let p = tp.size();
        // Task payload: a DNA sequence chunk.
        let task_bytes = 512 * class.multiplier();
        let result_bytes = 64 * class.multiplier();
        if p == 1 {
            // Degenerate single-rank run: master processes locally.
            tp.compute(1e-5);
            return;
        }
        if me == 0 {
            tp.frame("master_dispatch", |tp| {
                for worker in 1..p {
                    tp.send_absolute("send_task", worker, TAG_TASK, task_bytes);
                }
                for _ in 1..p {
                    tp.recv_any("collect_result", TAG_RESULT, result_bytes);
                }
            });
        } else {
            tp.frame("worker_pipeline", |tp| {
                tp.recv_absolute("recv_task", 0, TAG_TASK, task_bytes);
                // Pipeline stage compute: varies by worker (dataset sizes
                // differ) — delta-time spread, stable Call-Path.
                tp.compute(1e-5 * (1.0 + (me % 7) as f64 * 0.1));
                tp.send_absolute("send_result", 0, TAG_RESULT, result_bytes);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{World, WorldConfig};
    use std::collections::HashSet;

    #[test]
    fn rounds_match_table2() {
        assert_eq!(Emf::rounds(126), 288);
        assert_eq!(Emf::rounds(251), 144);
        assert_eq!(Emf::rounds(501), 72);
        assert_eq!(Emf::rounds(1001), 36);
    }

    #[test]
    fn spec_always_nine_markers() {
        for p in [126usize, 251, 501, 1001] {
            let spec = Emf.spec(Class::D, p);
            assert_eq!(spec.expected_marker_calls(), 9, "P={p}");
        }
        // Frequencies follow the paper.
        assert_eq!(Emf.spec(Class::D, 126).call_frequency, 32);
        assert_eq!(Emf.spec(Class::D, 251).call_frequency, 16);
        assert_eq!(Emf.spec(Class::D, 501).call_frequency, 8);
        assert_eq!(Emf.spec(Class::D, 1001).call_frequency, 4);
    }

    #[test]
    fn two_callpath_groups() {
        let report = World::new(WorldConfig::new(5))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Emf.step(&mut tp, Class::A, 0);
                tp.tracer_mut().rotate_interval().call_path
            })
            .unwrap();
        let distinct: HashSet<_> = report.results.iter().collect();
        assert_eq!(distinct.len(), 2, "master vs workers");
        // All workers identical.
        assert_eq!(report.results[1], report.results[4]);
    }

    #[test]
    fn master_worker_rounds_complete() {
        World::new(WorldConfig::new(4))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                for step in 0..5 {
                    Emf.step(&mut tp, Class::A, step);
                }
            })
            .unwrap();
    }

    #[test]
    fn tiny_trace_after_compression() {
        // The EMF small-trace property: many rounds compress to a
        // constant-size trace.
        let report = World::new(WorldConfig::new(3))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                for step in 0..50 {
                    Emf.step(&mut tp, Class::A, step);
                }
                tp.tracer().trace().compressed_size()
            })
            .unwrap();
        for &size in &report.results {
            assert!(size <= 8, "EMF trace must stay tiny, got {size}");
        }
    }
}
