//! Sweep3D skeleton: discrete-ordinates particle transport wavefronts.
//!
//! Sweep3D (Koch, Baker, Alcouffe) sweeps the spatial mesh once per
//! ordinate octant; on the 2-D process decomposition each octant is a
//! wavefront starting from one grid corner. The skeleton runs the four
//! corner-directed wavefronts per timestep and models the code's
//! **load imbalance** with rank-dependent compute times — which, per the
//! paper, "does not affect clustering since delta times are represented
//! in histograms for repetitive signatures."
//!
//! Boundary-position classes again give 9 Call-Path groups (Table I:
//! K = 9 for S3D).

use scalatrace::TracedProc;

use crate::grid::Grid2D;
use crate::{scale, Class, RunSpec, Workload};

/// Sweep direction: which corner the wavefront starts from.
#[derive(Debug, Clone, Copy)]
struct Octant {
    /// Sweep moves south (true) or north (false).
    southward: bool,
    /// Sweep moves east (true) or west (false).
    eastward: bool,
    tag: u32,
    recv_site_v: &'static str,
    recv_site_h: &'static str,
    send_site_v: &'static str,
    send_site_h: &'static str,
}

const OCTANTS: [Octant; 4] = [
    Octant {
        southward: true,
        eastward: true,
        tag: 40,
        recv_site_v: "oct_se_recv_n",
        recv_site_h: "oct_se_recv_w",
        send_site_v: "oct_se_send_s",
        send_site_h: "oct_se_send_e",
    },
    Octant {
        southward: true,
        eastward: false,
        tag: 42,
        recv_site_v: "oct_sw_recv_n",
        recv_site_h: "oct_sw_recv_e",
        send_site_v: "oct_sw_send_s",
        send_site_h: "oct_sw_send_w",
    },
    Octant {
        southward: false,
        eastward: true,
        tag: 44,
        recv_site_v: "oct_ne_recv_s",
        recv_site_h: "oct_ne_recv_w",
        send_site_v: "oct_ne_send_n",
        send_site_h: "oct_ne_send_e",
    },
    Octant {
        southward: false,
        eastward: false,
        tag: 46,
        recv_site_v: "oct_nw_recv_s",
        recv_site_h: "oct_nw_recv_e",
        send_site_v: "oct_nw_send_n",
        send_site_h: "oct_nw_send_w",
    },
];

/// The Sweep3D skeleton (strong- or weak-scaling flavour).
#[derive(Debug, Clone, Copy)]
pub struct Sweep3d {
    weak: bool,
}

impl Sweep3d {
    /// Strong-scaling configuration (the paper's 100×100×1000 problem).
    pub fn strong() -> Self {
        Sweep3d { weak: false }
    }

    /// Weak-scaling configuration (Figures 6/7).
    pub fn weak() -> Self {
        Sweep3d { weak: true }
    }

    fn sweep(tp: &mut TracedProc, grid: Grid2D, oct: &Octant, bytes: usize, dt: f64) {
        let me = tp.rank();
        let payload = vec![0u8; bytes + scale::count_jitter(me, grid.len())];
        let (recv_v, send_v) = if oct.southward {
            (grid.north(me), grid.south(me))
        } else {
            (grid.south(me), grid.north(me))
        };
        let (recv_h, send_h) = if oct.eastward {
            (grid.west(me), grid.east(me))
        } else {
            (grid.east(me), grid.west(me))
        };
        if let Some(src) = recv_v {
            tp.recv(oct.recv_site_v, src, oct.tag, bytes);
        }
        if let Some(src) = recv_h {
            tp.recv(oct.recv_site_h, src, oct.tag + 1, bytes);
        }
        // Load imbalance: per-rank work skew up to 30%.
        let skew = 1.0 + 0.1 * (me % 4) as f64;
        tp.compute(dt * skew);
        if let Some(dst) = send_v {
            tp.send(oct.send_site_v, dst, oct.tag, &payload);
        }
        if let Some(dst) = send_h {
            tp.send(oct.send_site_h, dst, oct.tag + 1, &payload);
        }
    }
}

impl Workload for Sweep3d {
    fn name(&self) -> &'static str {
        if self.weak {
            "S3DW"
        } else {
            "S3D"
        }
    }

    fn spec(&self, _class: Class, _p: usize) -> RunSpec {
        // Table II S3D: 10 iterations, freq 1 -> 10 markers,
        // 1 C / 7 L / 2 AT (one trailing phase).
        RunSpec {
            main_steps: 9,
            phase_steps: vec![1],
            call_frequency: 1,
            k: 9,
        }
    }

    fn step(&self, tp: &mut TracedProc, class: Class, _step: usize) {
        let p = tp.size();
        let grid = Grid2D::new(p);
        let bytes = scale::face_bytes(class, p, self.weak);
        let dt = scale::compute_dt(class, p, self.weak) / OCTANTS.len() as f64;
        tp.frame("transport_sweep", |tp| {
            for oct in &OCTANTS {
                Sweep3d::sweep(tp, grid, oct, bytes, dt);
            }
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
        let spec = Sweep3d::strong().spec(Class::D, 1024);
        assert_eq!(spec.total_steps(), 10);
        assert_eq!(spec.expected_marker_calls(), 10);
        assert_eq!(spec.k, 9);
    }

    #[test]
    fn nine_groups_and_no_deadlock() {
        let report = World::new(WorldConfig::new(16))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Sweep3d::strong().step(&mut tp, Class::A, 0);
                tp.tracer_mut().rotate_interval().call_path
            })
            .unwrap();
        let distinct: HashSet<_> = report.results.iter().collect();
        assert_eq!(distinct.len(), 9);
    }

    #[test]
    fn load_imbalance_spreads_completion_times() {
        let report = World::new(WorldConfig::new(8))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                for step in 0..2 {
                    Sweep3d::strong().step(&mut tp, Class::A, step);
                }
                tp.now()
            })
            .unwrap();
        let min = report.results.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = report.results.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "imbalance must show up in virtual times");
    }

    #[test]
    fn repetitive_signature_despite_imbalance() {
        // The paper's point: time skew lives in histograms, not in the
        // Call-Path signature, so repetition is still detected.
        let report = World::new(WorldConfig::new(4))
            .run(|proc| {
                let mut tp = TracedProc::new(proc);
                Sweep3d::strong().step(&mut tp, Class::A, 0);
                let a = tp.tracer_mut().rotate_interval().call_path;
                Sweep3d::strong().step(&mut tp, Class::A, 1);
                let b = tp.tracer_mut().rotate_interval().call_path;
                a == b
            })
            .unwrap();
        assert!(report.results.iter().all(|&same| same));
    }
}
