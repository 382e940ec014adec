//! NPB SP skeleton: scalar-pentadiagonal ADI solver.
//!
//! Structurally like BT (1-D line decomposition, three directional
//! sweeps, 3 Call-Path groups) but with more, smaller exchanges per sweep
//! — SP factors into scalar pentadiagonal systems, trading message size
//! for message count. Table II: 500 iterations at Call_Frequency 20 with
//! two trailing norm phases (25 markers: 1 C / 21 L / 3 AT).

use scalatrace::TracedProc;

use crate::{scale, Class, RunSpec, Workload};

/// The SP skeleton.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sp;

impl Sp {
    fn sweep(
        tp: &mut TracedProc,
        sites: (&'static str, &'static str),
        tags: (u32, u32),
        bytes: usize,
    ) {
        let me = tp.rank();
        let p = tp.size();
        // Two half-size exchanges per direction (forward + back
        // substitution faces).
        let payload = vec![0u8; bytes / 2 + scale::count_jitter(me, p)];
        for round in 0..2u32 {
            let (t_out, t_in) = (tags.0 + round * 100, tags.1 + round * 100);
            if me > 0 {
                tp.sendrecv(sites.0, me - 1, t_in, &payload, me - 1, t_out);
            }
            if me + 1 < p {
                tp.sendrecv(sites.1, me + 1, t_out, &payload, me + 1, t_in);
            }
        }
    }
}

impl Workload for Sp {
    fn name(&self) -> &'static str {
        "SP"
    }

    fn spec(&self, _class: Class, _p: usize) -> RunSpec {
        // 460 + 20 + 20 = 500 iterations, freq 20 -> 25 markers:
        // AT(first), C, 21 L, then two phase markers counted AT.
        RunSpec {
            main_steps: 460,
            phase_steps: vec![20, 20],
            call_frequency: 20,
            k: 3,
        }
    }

    fn step(&self, tp: &mut TracedProc, class: Class, _step: usize) {
        let p = tp.size();
        let bytes = scale::face_bytes(class, p, false);
        let dt = scale::compute_dt(class, p, false);
        tp.frame("sp_adi", |tp| {
            tp.frame("sp_x", |tp| {
                tp.compute(dt / 3.0);
                Sp::sweep(tp, ("spx_w", "spx_e"), (20, 21), bytes);
            });
            tp.frame("sp_y", |tp| {
                tp.compute(dt / 3.0);
                Sp::sweep(tp, ("spy_w", "spy_e"), (22, 23), bytes);
            });
            tp.frame("sp_z", |tp| {
                tp.compute(dt / 3.0);
                Sp::sweep(tp, ("spz_w", "spz_e"), (24, 25), bytes);
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
        let spec = Sp.spec(Class::D, 1024);
        assert_eq!(spec.total_steps(), 500);
        assert_eq!(spec.expected_marker_calls(), 25);
        assert_eq!(spec.k, 3);
        assert_eq!(spec.phase_steps.len(), 2, "two trailing norm phases");
    }

    #[test]
    fn three_callpath_groups() {
        let report = World::new(WorldConfig::new(5))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Sp.step(&mut tp, Class::A, 0);
                tp.tracer_mut().rotate_interval().call_path
            })
            .unwrap();
        let distinct: HashSet<_> = report.results.iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn sp_and_bt_distinct_callpaths() {
        // Same rank positions, different codes: signatures must differ
        // (different call sites).
        let report = World::new(WorldConfig::new(3))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Sp.step(&mut tp, Class::A, 0);
                let sp_sig = tp.tracer_mut().rotate_interval().call_path;
                crate::bt::Bt.step(&mut tp, Class::A, 0);
                let bt_sig = tp.tracer_mut().rotate_interval().call_path;
                sp_sig != bt_sig
            })
            .unwrap();
        assert!(report.results.iter().all(|&d| d));
    }
}
