//! POP skeleton: the Parallel Ocean Program's timestep communication.
//!
//! POP advances an ocean model with 2-D halo exchanges plus a barotropic
//! solver whose inner iterations are global reductions. The paper notes
//! POP "experiences different data-dependent convergence points in
//! timestep computation" and that Chameleon handles it with "the automatic
//! filter from \[2\] for call parameters so that the communication pattern
//! becomes regular and can be represented by 3 clusters". The skeleton
//! models the *post-filter* view: a fixed solver-iteration count per
//! timestep (the filter's regularization) with the residual time variance
//! expressed through delta times.
//!
//! A 1-D block-row decomposition gives the paper's **3 Call-Path groups**
//! (Table I: K = 3 for POP).

use scalatrace::TracedProc;

use crate::{scale, Class, RunSpec, Workload};

const TAG_HALO_N: u32 = 50;
const TAG_HALO_S: u32 = 51;
/// Solver (conjugate-gradient) iterations per timestep after the
/// parameter filter regularizes the pattern.
const SOLVER_ITERS: usize = 3;

/// The POP skeleton.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pop;

impl Workload for Pop {
    fn name(&self) -> &'static str {
        "POP"
    }

    fn spec(&self, _class: Class, _p: usize) -> RunSpec {
        // Table II POP: 20 iterations, freq 1 -> 20 markers,
        // 1 C / 16 L / 3 AT (two trailing diagnostics phases).
        RunSpec {
            main_steps: 18,
            phase_steps: vec![1, 1],
            call_frequency: 1,
            k: 3,
        }
    }

    fn step(&self, tp: &mut TracedProc, class: Class, step: usize) {
        let me = tp.rank();
        let p = tp.size();
        let bytes = scale::face_bytes(class, p, false);
        let dt = scale::compute_dt(class, p, false);
        // Data-dependent compute-time wobble (convergence speed varies per
        // timestep); lands in the delta-time histograms, not in the
        // Call-Path.
        let wobble = 1.0 + 0.2 * ((step % 5) as f64 / 5.0);
        tp.frame("baroclinic", |tp| {
            let len = bytes + scale::count_jitter(me, p);
            if me > 0 {
                tp.sendrecv("halo_north", me - 1, TAG_HALO_S, len, me - 1, TAG_HALO_N);
            }
            if me + 1 < p {
                tp.sendrecv("halo_south", me + 1, TAG_HALO_N, len, me + 1, TAG_HALO_S);
            }
            tp.compute(dt * 0.6 * wobble);
        });
        tp.frame("barotropic_solver", |tp| {
            for _ in 0..SOLVER_ITERS {
                let len = bytes / 4 + scale::count_jitter(me, p);
                if me > 0 {
                    tp.sendrecv(
                        "solver_halo_n",
                        me - 1,
                        TAG_HALO_S + 10,
                        len,
                        me - 1,
                        TAG_HALO_N + 10,
                    );
                }
                if me + 1 < p {
                    tp.sendrecv(
                        "solver_halo_s",
                        me + 1,
                        TAG_HALO_N + 10,
                        len,
                        me + 1,
                        TAG_HALO_S + 10,
                    );
                }
                tp.compute(dt * 0.1 * wobble / SOLVER_ITERS as f64);
                tp.allreduce_sum("solver_residual", 1);
            }
        });
        tp.frame("diagnostics", |tp| {
            tp.allreduce_sum("global_energy", 1);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{World, WorldConfig};
    use std::collections::HashSet;

    #[test]
    fn spec_matches_table2() {
        let spec = Pop.spec(Class::D, 1024);
        assert_eq!(spec.total_steps(), 20);
        assert_eq!(spec.expected_marker_calls(), 20);
        assert_eq!(spec.k, 3);
    }

    #[test]
    fn three_callpath_groups() {
        let report = World::new(WorldConfig::new(6))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Pop.step(&mut tp, Class::A, 0);
                tp.tracer_mut().rotate_interval().call_path
            })
            .unwrap();
        let distinct: HashSet<_> = report.results.iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn wobble_changes_times_not_signatures() {
        let report = World::new(WorldConfig::new(2))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Pop.step(&mut tp, Class::A, 0);
                let t0 = tp.now();
                let a = tp.tracer_mut().rotate_interval().call_path;
                Pop.step(&mut tp, Class::A, 2); // different wobble
                let t1 = tp.now() - t0;
                let b = tp.tracer_mut().rotate_interval().call_path;
                (a == b, t0, t1)
            })
            .unwrap();
        for &(same, t0, t1) in &report.results {
            assert!(same, "signatures must be stable across wobble");
            assert!((t0 - t1).abs() > 1e-12, "times must differ");
        }
    }
}
