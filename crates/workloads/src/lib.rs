//! # workloads — communication skeletons of the paper's benchmarks
//!
//! Chameleon never inspects computation — only the MPI event stream, its
//! calling contexts, and its parameters. These skeletons reproduce the
//! *communication structure* of each benchmark in the paper's evaluation
//! (who talks to whom, from which call sites, how often), parameterized by
//! NPB-style input classes:
//!
//! | workload | pattern | Call-Path groups (Table I's K) |
//! |----------|---------|--------------------------------|
//! | [`bt::Bt`], [`sp::Sp`] | 1-D ADI line sweeps (left/right face exchanges) | 3 (left end, interior, right end) |
//! | [`lu::Lu`] | 2-D SSOR wavefront (lower+upper sweeps) | 9 (3 row-positions × 3 col-positions) |
//! | [`cg::Cg`] | transpose exchange + dot-product allreduces | 2 (diagonal vs off-diagonal) |
//! | [`sweep3d::Sweep3d`] | 2-D octant wavefronts with load imbalance | 9 |
//! | [`pop::Pop`] | 1-D halo + fixed-point solver loops + global reductions | 3 |
//! | [`emf::Emf`] | master–worker task farm (mpi4py-style pipeline) | 2 (master, workers) |
//!
//! Each workload also defines its marker schedule (`RunSpec`): main
//! timesteps, `Call_Frequency`, the paper's K (Table I), and trailing
//! *phase steps* whose distinct call sites reproduce the trailing
//! All-Tracing markers of Table II (scientific codes end with
//! verification/norm phases that change the Call-Path).
//!
//! [`driver`] runs any workload under any instrumentation mode
//! (uninstrumented, ScalaTrace, ACURDION, Chameleon) and returns uniform
//! measurements — the substrate for every table and figure harness.

pub mod bt;
pub mod cg;
pub mod chaos;
pub mod degraded;
pub mod driver;
pub mod emf;
pub mod grid;
pub mod lu;
pub mod matrix;
pub mod pop;
pub mod registry;
pub mod sp;
pub mod sweep3d;

use scalatrace::TracedProc;

/// NPB-style input classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Smallest.
    A,
    /// Small.
    B,
    /// Medium.
    C,
    /// Large (the paper's default).
    D,
}

impl Class {
    /// Linear problem-size multiplier.
    pub fn multiplier(self) -> usize {
        match self {
            Class::A => 1,
            Class::B => 2,
            Class::C => 4,
            Class::D => 8,
        }
    }

    /// All classes, ascending.
    pub const ALL: [Class; 4] = [Class::A, Class::B, Class::C, Class::D];

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Class::A => "A",
            Class::B => "B",
            Class::C => "C",
            Class::D => "D",
        }
    }
}

/// The marker/clustering schedule of one workload configuration.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Timesteps of the main (repetitive) phase.
    pub main_steps: usize,
    /// Trailing phases; each entry is a step count executed with a
    /// distinct Call-Path (verification, norm checks, output).
    pub phase_steps: Vec<usize>,
    /// `Call_Frequency` (markers between transition-graph runs).
    pub call_frequency: u64,
    /// Cluster budget K (paper Table I).
    pub k: usize,
}

impl RunSpec {
    /// Total timesteps including trailing phases.
    pub fn total_steps(&self) -> usize {
        self.main_steps + self.phase_steps.iter().sum::<usize>()
    }

    /// Execute timestep `step` of `w` on this rank, framed the way every
    /// run frames it: a trailing phase's steps run inside that phase's
    /// [`PHASE_FRAMES`] frame.
    pub fn run_step(&self, w: &dyn Workload, tp: &mut TracedProc, class: Class, step: usize) {
        match self.phase_of(step) {
            None => w.step(tp, class, step),
            Some(phase) => tp.frame(PHASE_FRAMES[phase % PHASE_FRAMES.len()], |tp| {
                w.step(tp, class, step)
            }),
        }
    }

    /// Which trailing phase (0-based) a step belongs to; `None` during the
    /// main phase.
    pub fn phase_of(&self, step: usize) -> Option<usize> {
        if step < self.main_steps {
            return None;
        }
        let mut offset = self.main_steps;
        for (i, &len) in self.phase_steps.iter().enumerate() {
            offset += len;
            if step < offset {
                return Some(i);
            }
        }
        None // past the end; callers never ask
    }

    /// Expected number of processed markers (one marker per step,
    /// frequency-filtered).
    pub fn expected_marker_calls(&self) -> u64 {
        self.total_steps() as u64 / self.call_frequency
    }
}

/// Distinct frame labels for trailing phases (enough for every spec used
/// in the evaluation).
pub const PHASE_FRAMES: [&str; 6] = [
    "verify_phase_0",
    "verify_phase_1",
    "verify_phase_2",
    "verify_phase_3",
    "verify_phase_4",
    "verify_phase_5",
];

/// Message-size / compute-time scaling shared by the skeletons.
pub mod scale {
    use super::Class;

    /// Bytes per halo/face message.
    ///
    /// Strong scaling: the global problem is fixed, so per-rank faces
    /// shrink as the grid grows (edge length is proportional to 1/sqrt(P)).
    /// Weak scaling: the per-rank subdomain is fixed, so faces stay
    /// constant.
    pub fn face_bytes(class: Class, p: usize, weak: bool) -> usize {
        let base = 4096 * class.multiplier();
        if weak {
            base / 4
        } else {
            (base * 4 / ((p as f64).sqrt().max(1.0) as usize)).max(64)
        }
    }

    /// Rank-dependent message-size perturbation, in bytes.
    ///
    /// Real codes do not send perfectly uniform messages: subdomain
    /// remainders, graph-partitioned boundaries, and data-dependent
    /// payloads make parameters vary across ranks — which is exactly why
    /// the ScalaTrace clustering line of work clusters on *parameters*
    /// and why real inter-node merges blow up with P (events with
    /// differing parameters cannot fold, so the global trace grows).
    /// The number of distinct size classes grows like sqrt(P), modeling
    /// remainder patterns of a 2-D decomposition.
    pub fn count_jitter(me: usize, p: usize) -> usize {
        let classes = ((p as f64).sqrt() as usize).max(2);
        (me % classes) * 8
    }

    /// Virtual compute seconds per rank per timestep.
    pub fn compute_dt(class: Class, p: usize, weak: bool) -> f64 {
        let per_rank_weak = 2e-4 * class.multiplier() as f64;
        if weak {
            per_rank_weak
        } else {
            // Fixed aggregate work split across ranks.
            0.05 * class.multiplier() as f64 / p as f64
        }
    }
}

/// A benchmark communication skeleton.
pub trait Workload: Send + Sync {
    /// Benchmark name ("BT", "LU", ...).
    fn name(&self) -> &'static str;

    /// The marker schedule for a class/size combination.
    fn spec(&self, class: Class, p: usize) -> RunSpec;

    /// Execute one timestep (main or phase; consult `spec.phase_of(step)`)
    /// on this rank. The driver wraps phase steps in their distinguishing
    /// frames — implementations just do their communication.
    fn step(&self, tp: &mut TracedProc, class: Class, step: usize);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_multipliers_monotone() {
        let mults: Vec<usize> = Class::ALL.iter().map(|c| c.multiplier()).collect();
        assert!(mults.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn runspec_phase_lookup() {
        let spec = RunSpec {
            main_steps: 10,
            phase_steps: vec![3, 2],
            call_frequency: 5,
            k: 3,
        };
        assert_eq!(spec.total_steps(), 15);
        assert_eq!(spec.phase_of(0), None);
        assert_eq!(spec.phase_of(9), None);
        assert_eq!(spec.phase_of(10), Some(0));
        assert_eq!(spec.phase_of(12), Some(0));
        assert_eq!(spec.phase_of(13), Some(1));
        assert_eq!(spec.phase_of(14), Some(1));
        assert_eq!(spec.expected_marker_calls(), 3);
    }

    #[test]
    fn runspec_no_phases() {
        let spec = RunSpec {
            main_steps: 250,
            phase_steps: vec![],
            call_frequency: 25,
            k: 3,
        };
        assert_eq!(spec.total_steps(), 250);
        assert_eq!(spec.expected_marker_calls(), 10);
        assert_eq!(spec.phase_of(249), None);
    }
}
