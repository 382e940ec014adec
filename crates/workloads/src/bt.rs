//! NPB BT skeleton: block-tridiagonal ADI solver.
//!
//! BT solves three alternating-direction implicit sweeps per timestep.
//! The skeleton uses a 1-D line decomposition (left/right face exchanges
//! per sweep), which yields exactly the paper's **3 Call-Path groups**
//! (Table I: K = 3 for BT): the left boundary rank (no west neighbor),
//! interior ranks, and the right boundary rank (no east neighbor).

use scalatrace::TracedProc;

use crate::{scale, Class, RunSpec, Workload};

/// Tag pairs per sweep direction (out, in).
const TAGS: [(u32, u32); 3] = [(10, 11), (12, 13), (14, 15)];

/// The BT skeleton.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bt;

impl Bt {
    /// One directional sweep: exchange faces with both line neighbors.
    fn sweep(
        tp: &mut TracedProc,
        sites: (&'static str, &'static str),
        tags: (u32, u32),
        bytes: usize,
    ) {
        let me = tp.rank();
        let p = tp.size();
        let payload = vec![0u8; bytes + scale::count_jitter(me, p)];
        // Exchange with the west (lower-rank) neighbor.
        if me > 0 {
            tp.sendrecv(sites.0, me - 1, tags.1, &payload, me - 1, tags.0);
        }
        // Exchange with the east (higher-rank) neighbor.
        if me + 1 < p {
            tp.sendrecv(sites.1, me + 1, tags.0, &payload, me + 1, tags.1);
        }
    }
}

impl Workload for Bt {
    fn name(&self) -> &'static str {
        "BT"
    }

    fn spec(&self, _class: Class, _p: usize) -> RunSpec {
        // Table II: 250 iterations, Call_Frequency 25 -> 10 marker calls,
        // states 1 C / 8 L / 1 AT (no trailing phase: BT's verification
        // happens after the timestep loop, outside the marker region).
        RunSpec {
            main_steps: 250,
            phase_steps: vec![],
            call_frequency: 25,
            k: 3,
        }
    }

    fn step(&self, tp: &mut TracedProc, class: Class, _step: usize) {
        let p = tp.size();
        let bytes = scale::face_bytes(class, p, false);
        let dt = scale::compute_dt(class, p, false);
        tp.frame("adi", |tp| {
            tp.frame("x_solve", |tp| {
                tp.compute(dt / 3.0);
                Bt::sweep(tp, ("x_west", "x_east"), TAGS[0], bytes);
            });
            tp.frame("y_solve", |tp| {
                tp.compute(dt / 3.0);
                Bt::sweep(tp, ("y_west", "y_east"), TAGS[1], bytes);
            });
            tp.frame("z_solve", |tp| {
                tp.compute(dt / 3.0);
                Bt::sweep(tp, ("z_west", "z_east"), TAGS[2], bytes);
            });
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
        let spec = Bt.spec(Class::D, 1024);
        assert_eq!(spec.total_steps(), 250);
        assert_eq!(spec.call_frequency, 25);
        assert_eq!(spec.expected_marker_calls(), 10);
        assert_eq!(spec.k, 3);
    }

    #[test]
    fn three_callpath_groups() {
        // Run one interval on 6 ranks; exactly 3 distinct Call-Paths.
        let report = World::new(WorldConfig::new(6))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Bt.step(&mut tp, Class::A, 0);
                tp.tracer_mut().rotate_interval().call_path
            })
            .unwrap();
        let distinct: HashSet<_> = report.results.iter().collect();
        assert_eq!(distinct.len(), 3, "left end, interior, right end");
        // Interior ranks all share one Call-Path.
        assert_eq!(report.results[1], report.results[2]);
        assert_eq!(report.results[2], report.results[4]);
    }

    #[test]
    fn steps_are_repetitive() {
        // The same step twice yields the same Call-Path — the property
        // the transition graph votes on.
        let report = World::new(WorldConfig::new(4))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Bt.step(&mut tp, Class::A, 0);
                let a = tp.tracer_mut().rotate_interval().call_path;
                Bt.step(&mut tp, Class::A, 1);
                let b = tp.tracer_mut().rotate_interval().call_path;
                a == b
            })
            .unwrap();
        assert!(report.results.iter().all(|&same| same));
    }

    #[test]
    fn single_rank_step_no_deadlock() {
        World::new(WorldConfig::new(1))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Bt.step(&mut tp, Class::A, 0);
            })
            .unwrap();
    }
}
