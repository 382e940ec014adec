//! NPB CG skeleton: conjugate gradient with sparse matrix-vector
//! products.
//!
//! CG's irregular computation (SpMV over a random sparse matrix in CSR
//! format) "does not affect communication and, hence, does not impact
//! clustering" (paper §V-A): the communication is a regular transpose
//! exchange over the process grid plus dot-product reductions. Diagonal
//! ranks (self-partnered) and off-diagonal ranks give **2 Call-Path
//! groups**.

use scalatrace::TracedProc;

use crate::grid::Grid2D;
use crate::{scale, Class, RunSpec, Workload};

const TAG_TRANSPOSE: u32 = 60;

/// The CG skeleton.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cg;

impl Workload for Cg {
    fn name(&self) -> &'static str {
        "CG"
    }

    fn spec(&self, _class: Class, _p: usize) -> RunSpec {
        // NPB CG runs 75 outer iterations for class D.
        RunSpec {
            main_steps: 75,
            phase_steps: vec![],
            call_frequency: 5,
            k: 2,
        }
    }

    fn step(&self, tp: &mut TracedProc, class: Class, _step: usize) {
        let me = tp.rank();
        let p = tp.size();
        let grid = Grid2D::new(p);
        let partner = grid.transpose_partner(me);
        let bytes = scale::face_bytes(class, p, false);
        let dt = scale::compute_dt(class, p, false);
        tp.frame("cg_iter", |tp| {
            // SpMV: irregular compute, regular communication.
            tp.compute(dt * 0.8);
            if partner != me {
                let payload = vec![0u8; bytes];
                tp.sendrecv(
                    "transpose_exchange",
                    partner,
                    TAG_TRANSPOSE,
                    &payload,
                    partner,
                    TAG_TRANSPOSE,
                );
            } else {
                // Diagonal ranks transpose locally.
                tp.compute(dt * 0.05);
            }
            tp.allreduce_sum("dot_rho", 1);
            tp.compute(dt * 0.15);
            tp.allreduce_sum("dot_alpha", 1);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{World, WorldConfig};
    use std::collections::HashSet;

    #[test]
    fn two_callpath_groups_on_square_grid() {
        let report = World::new(WorldConfig::new(16))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Cg.step(&mut tp, Class::A, 0);
                tp.tracer_mut().rotate_interval().call_path
            })
            .unwrap();
        let distinct: HashSet<_> = report.results.iter().collect();
        assert_eq!(distinct.len(), 2, "diagonal vs off-diagonal");
    }

    #[test]
    fn transpose_exchange_no_deadlock() {
        for p in [1usize, 4, 9, 16] {
            World::new(WorldConfig::new(p))
                .run(|proc| {
                    let mut tp = TracedProc::new(proc);
                    for step in 0..3 {
                        Cg.step(&mut tp, Class::A, step);
                    }
                })
                .unwrap_or_else(|e| panic!("CG deadlocked at p={p}: {e}"));
        }
    }

    #[test]
    fn spec_sane() {
        let spec = Cg.spec(Class::D, 256);
        assert_eq!(spec.expected_marker_calls(), 15);
        assert_eq!(spec.k, 2);
    }
}
