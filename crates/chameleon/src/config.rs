//! Chameleon configuration.

use std::path::PathBuf;

use clusterkit::{ClusterAlgorithm, KFarthest, KMedoids, KRandom};

use crate::checkpoint::Checkpoint;

/// Which representative-selection algorithm clustering uses. The paper:
/// "Users could select any clustering algorithm (e.g., K-Medoid,
/// K-Furthest, K-Random selection)" — accuracy is very close between the
/// distance-aware ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgoChoice {
    /// Farthest-point (maximin) selection — the default.
    #[default]
    Farthest,
    /// K-medoids (PAM refinement).
    Medoids,
    /// Seeded random selection (ablation baseline).
    Random(u64),
}

impl AlgoChoice {
    /// Materialize the algorithm object.
    pub fn build(&self) -> Box<dyn ClusterAlgorithm> {
        match *self {
            AlgoChoice::Farthest => Box::new(KFarthest),
            AlgoChoice::Medoids => Box::new(KMedoids::default()),
            AlgoChoice::Random(seed) => Box::new(KRandom { seed }),
        }
    }
}

/// Tunables of a Chameleon run.
#[derive(Debug, Clone)]
pub struct ChameleonConfig {
    /// Cluster budget K (Table I: 3 for BT/SP/POP, 9 for LU/S3D/LUW,
    /// 2 for EMF). Grows dynamically if the Call-Path count exceeds it.
    pub k: usize,
    /// `Call_Frequency`: the transition graph runs on every
    /// `call_frequency`-th marker invocation; others return immediately
    /// (Algorithm 3 lines 1–3).
    pub call_frequency: u64,
    /// Clustering algorithm.
    pub algo: AlgoChoice,
    /// Durable-checkpoint stride: every `ckpt_stride`-th *processed*
    /// marker the online-trace root serializes its recovery state and
    /// replicates it to the deputy (the next-smallest survivor) over the
    /// passive obs plane. 0 (the default) disables checkpointing
    /// entirely, keeping fault-free goldens untouched.
    pub ckpt_stride: u64,
    /// Directory the root persists `ckpt-<marker>.bin` blobs into at each
    /// checkpoint. Wall-clock I/O only, invisible to the simulation;
    /// `None` keeps checkpoints replica-only.
    pub ckpt_dir: Option<PathBuf>,
    /// Resume payload from a supervisor restart: the run replays from
    /// step 0, fast-forwards (merges and checkpoint ships skipped) to the
    /// checkpoint's marker, installs its online trace on the root, and
    /// continues normally.
    pub resume: Option<Checkpoint>,
    /// Streaming anomaly detector. `None` — the default — keeps the
    /// health plane completely out of the run: no health gathers, no
    /// anomaly events, byte-identical journals. `Some(cfg)` arms the
    /// detector: rank 0 scores every rank's per-marker compute time and
    /// retransmit count against its cluster cohort at each full marker
    /// and drives the mitigation ladder (lead demotion, retry-budget
    /// escalation, quarantine) from the flags.
    pub detector: Option<obs::DetectorConfig>,
}

impl ChameleonConfig {
    /// Configuration with the given K and all other values at their
    /// defaults (frequency 1 = cluster at every marker).
    pub fn with_k(k: usize) -> Self {
        ChameleonConfig {
            k,
            call_frequency: 1,
            algo: AlgoChoice::default(),
            ckpt_stride: 0,
            ckpt_dir: None,
            resume: None,
            detector: None,
        }
    }

    /// Set the marker call frequency.
    pub fn with_frequency(mut self, call_frequency: u64) -> Self {
        assert!(call_frequency >= 1, "call frequency must be at least 1");
        self.call_frequency = call_frequency;
        self
    }

    /// Set the clustering algorithm.
    pub fn with_algo(mut self, algo: AlgoChoice) -> Self {
        self.algo = algo;
        self
    }

    /// Enable durable checkpoints every `stride` processed markers.
    pub fn with_checkpoint_stride(mut self, stride: u64) -> Self {
        self.ckpt_stride = stride;
        self
    }

    /// Persist checkpoint blobs into `dir` (in addition to deputy
    /// replication).
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.ckpt_dir = Some(dir.into());
        self
    }

    /// Resume from a decoded checkpoint (supervisor restart).
    pub fn with_resume(mut self, ckpt: Checkpoint) -> Self {
        self.resume = Some(ckpt);
        self
    }

    /// Arm the streaming anomaly detector (and the mitigation ladder it
    /// drives) with the given thresholds.
    pub fn with_detector(mut self, detector: obs::DetectorConfig) -> Self {
        self.detector = Some(detector);
        self
    }
}

impl Default for ChameleonConfig {
    fn default() -> Self {
        Self::with_k(9) // the paper's stencil-code default
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ChameleonConfig::default();
        assert_eq!(c.k, 9);
        assert_eq!(c.call_frequency, 1);
        assert_eq!(c.algo, AlgoChoice::Farthest);
        assert_eq!(c.ckpt_stride, 0, "checkpointing is opt-in");
        assert!(c.ckpt_dir.is_none());
        assert!(c.resume.is_none());
        assert!(c.detector.is_none(), "health plane is opt-in");
    }

    #[test]
    fn checkpoint_builders() {
        let c = ChameleonConfig::with_k(3)
            .with_checkpoint_stride(2)
            .with_checkpoint_dir("/tmp/ckpts");
        assert_eq!(c.ckpt_stride, 2);
        assert_eq!(
            c.ckpt_dir.as_deref(),
            Some(std::path::Path::new("/tmp/ckpts"))
        );
    }

    #[test]
    fn builder_chain() {
        let c = ChameleonConfig::with_k(3)
            .with_frequency(25)
            .with_algo(AlgoChoice::Medoids);
        assert_eq!(c.k, 3);
        assert_eq!(c.call_frequency, 25);
        assert_eq!(c.algo, AlgoChoice::Medoids);
    }

    #[test]
    fn algo_choices_build() {
        assert_eq!(AlgoChoice::Farthest.build().name(), "k-farthest");
        assert_eq!(AlgoChoice::Medoids.build().name(), "k-medoids");
        assert_eq!(AlgoChoice::Random(1).build().name(), "k-random");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_frequency_rejected() {
        ChameleonConfig::with_k(3).with_frequency(0);
    }

    #[test]
    fn detector_builder() {
        let c = ChameleonConfig::with_k(3).with_detector(obs::DetectorConfig::default());
        let d = c.detector.expect("armed");
        assert_eq!(d.threshold, 4.0);
        assert_eq!(d.sustain, 3);
    }
}
