//! NPB LU skeleton: SSOR solver with 2-D wavefront sweeps.
//!
//! LU's lower/upper triangular solves propagate as wavefronts across the
//! 2-D process grid: each rank receives from its north/west neighbors,
//! computes, and forwards to south/east (then the reverse for the upper
//! solve). The 3×3 combinations of row/column boundary positions give the
//! paper's **9 Call-Path groups** (Table I: K = 9 for LU and LUW).
//!
//! Two variants share the skeleton: strong scaling (`Lu::strong()`,
//! Table II's "LU": 300 iterations, frequency 20, two trailing norm
//! phases) and weak scaling (`Lu::weak()`, "LUW": 250 iterations,
//! frequency 25, per-rank problem fixed).

use scalatrace::TracedProc;

use crate::grid::Grid2D;
use crate::{scale, Class, RunSpec, Workload};

const TAG_LOWER_V: u32 = 30; // north->south faces, lower sweep
const TAG_LOWER_H: u32 = 31; // west->east faces, lower sweep
const TAG_UPPER_V: u32 = 32;
const TAG_UPPER_H: u32 = 33;

/// The LU skeleton (strong- or weak-scaling flavour).
#[derive(Debug, Clone, Copy)]
pub struct Lu {
    weak: bool,
}

impl Lu {
    /// Strong-scaling configuration (the paper's "LU").
    pub fn strong() -> Self {
        Lu { weak: false }
    }

    /// Weak-scaling configuration (the paper's "LUW").
    pub fn weak() -> Self {
        Lu { weak: true }
    }

    /// Lower-triangular wavefront: consume from north/west, produce to
    /// south/east.
    fn lower_sweep(tp: &mut TracedProc, grid: Grid2D, bytes: usize, dt: f64) {
        let me = tp.rank();
        let len = bytes + scale::count_jitter(me, grid.len());
        if let Some(n) = grid.north(me) {
            tp.recv("blts_recv_north", n, TAG_LOWER_V, bytes);
        }
        if let Some(w) = grid.west(me) {
            tp.recv("blts_recv_west", w, TAG_LOWER_H, bytes);
        }
        tp.compute(dt);
        if let Some(s) = grid.south(me) {
            tp.send("blts_send_south", s, TAG_LOWER_V, len);
        }
        if let Some(e) = grid.east(me) {
            tp.send("blts_send_east", e, TAG_LOWER_H, len);
        }
    }

    /// Upper-triangular wavefront: the mirror image.
    fn upper_sweep(tp: &mut TracedProc, grid: Grid2D, bytes: usize, dt: f64) {
        let me = tp.rank();
        let len = bytes + scale::count_jitter(me, grid.len());
        if let Some(s) = grid.south(me) {
            tp.recv("buts_recv_south", s, TAG_UPPER_V, bytes);
        }
        if let Some(e) = grid.east(me) {
            tp.recv("buts_recv_east", e, TAG_UPPER_H, bytes);
        }
        tp.compute(dt);
        if let Some(n) = grid.north(me) {
            tp.send("buts_send_north", n, TAG_UPPER_V, len);
        }
        if let Some(w) = grid.west(me) {
            tp.send("buts_send_west", w, TAG_UPPER_H, len);
        }
    }
}

impl Workload for Lu {
    fn name(&self) -> &'static str {
        if self.weak {
            "LUW"
        } else {
            "LU"
        }
    }

    fn spec(&self, class: Class, _p: usize) -> RunSpec {
        if self.weak {
            // Table II LUW: 250 iterations, freq 25 -> 10 markers,
            // 1 C / 8 L / 1 AT.
            RunSpec {
                main_steps: 250,
                phase_steps: vec![],
                call_frequency: 25,
                k: 9,
            }
        } else {
            // Class D is Table II's LU: 300 iterations, freq 20 -> 15
            // markers, 1 C / 11 L / 3 AT (two trailing norm phases).
            // Smaller classes run fewer timesteps (Figure 11's x-axis
            // couples input class and timestep count).
            let main_steps = match class {
                Class::A => 60,
                Class::B => 110,
                Class::C => 210,
                Class::D => 260,
            };
            RunSpec {
                main_steps,
                phase_steps: vec![20, 20],
                call_frequency: 20,
                k: 9,
            }
        }
    }

    fn step(&self, tp: &mut TracedProc, class: Class, _step: usize) {
        let p = tp.size();
        let grid = Grid2D::new(p);
        let bytes = scale::face_bytes(class, p, self.weak);
        let dt = scale::compute_dt(class, p, self.weak);
        tp.frame("ssor", |tp| {
            tp.frame("blts", |tp| {
                Lu::lower_sweep(tp, grid, bytes, dt / 2.0);
            });
            tp.frame("buts", |tp| {
                Lu::upper_sweep(tp, grid, bytes, dt / 2.0);
            });
            tp.allreduce_sum("rhs_norm", 1);
        });
    }
}

/// The Figure 10 experiment: LU modified so that "for every [period]
/// timesteps, processes call a new `MPI_Barrier`. This indicates a new
/// Call-Path and changes the program phase." Sweeping the period sweeps
/// the number of re-clusterings.
#[derive(Debug, Clone, Copy)]
pub struct LuPhaseChange {
    inner: Lu,
    /// Insert the extra barrier every `period` timesteps.
    pub period: usize,
}

impl LuPhaseChange {
    /// Modified strong-scaling LU with a phase change every `period`
    /// steps.
    pub fn new(period: usize) -> Self {
        assert!(period >= 1);
        LuPhaseChange {
            inner: Lu::strong(),
            period,
        }
    }
}

impl Workload for LuPhaseChange {
    fn name(&self) -> &'static str {
        "LU-phase"
    }

    fn spec(&self, class: Class, p: usize) -> RunSpec {
        // Figure 10 runs 300 markers (one per timestep), no trailing
        // phases — the injected barriers are the phase changes.
        let mut spec = self.inner.spec(class, p);
        spec.main_steps = 300;
        spec.phase_steps = vec![];
        spec.call_frequency = 1;
        spec
    }

    fn step(&self, tp: &mut TracedProc, class: Class, step: usize) {
        self.inner.step(tp, class, step);
        if (step + 1).is_multiple_of(self.period) {
            // The "new MPI_Barrier": a call site the steady state lacks.
            tp.barrier("phase_change_barrier");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{World, WorldConfig};
    use std::collections::HashSet;

    #[test]
    fn specs_match_table2() {
        let lu = Lu::strong().spec(Class::D, 1024);
        assert_eq!(lu.total_steps(), 300);
        assert_eq!(lu.expected_marker_calls(), 15);
        assert_eq!(lu.k, 9);

        let luw = Lu::weak().spec(Class::D, 1024);
        assert_eq!(luw.total_steps(), 250);
        assert_eq!(luw.expected_marker_calls(), 10);
    }

    #[test]
    fn nine_callpath_groups_on_grid() {
        // 4x4 grid: all 9 boundary-position classes exist.
        let report = World::new(WorldConfig::new(16))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Lu::strong().step(&mut tp, Class::A, 0);
                tp.tracer_mut().rotate_interval().call_path
            })
            .unwrap();
        let distinct: HashSet<_> = report.results.iter().collect();
        assert_eq!(distinct.len(), 9);
    }

    #[test]
    fn wavefront_completes_without_deadlock() {
        for p in [1usize, 2, 4, 6, 9, 12] {
            World::new(WorldConfig::new(p))
                .run(|proc| {
                    let mut tp = TracedProc::new(proc);
                    for step in 0..3 {
                        Lu::strong().step(&mut tp, Class::A, step);
                    }
                })
                .unwrap_or_else(|e| panic!("LU deadlocked at p={p}: {e}"));
        }
    }

    #[test]
    fn weak_variant_bytes_constant_with_p() {
        assert_eq!(
            scale::face_bytes(Class::B, 16, true),
            scale::face_bytes(Class::B, 256, true)
        );
        assert!(scale::face_bytes(Class::B, 16, false) > scale::face_bytes(Class::B, 256, false));
    }

    #[test]
    fn phase_change_variant_adds_barrier_periodically() {
        let report = World::new(WorldConfig::new(4))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                let w = LuPhaseChange::new(2);
                // Steps 0,1: barrier fires after step 1.
                w.step(&mut tp, Class::A, 0);
                let a = tp.tracer_mut().rotate_interval().call_path;
                w.step(&mut tp, Class::A, 1);
                let b = tp.tracer_mut().rotate_interval().call_path;
                (a, b)
            })
            .unwrap();
        for &(a, b) in &report.results {
            assert_ne!(a, b, "barrier step must change the Call-Path");
        }
    }
}
