//! # chameleon — online clustering of MPI program traces
//!
//! The reproduction of the paper's primary contribution (Bahmani &
//! Mueller, "Chameleon: Online Clustering of MPI Program Traces",
//! IPDPS 2018). Chameleon layers on ScalaTrace and, at *marker* calls
//! (special `MPI_Barrier`s inserted at timestep boundaries):
//!
//! 1. computes each rank's Call-Path/SRC/DEST signatures for the interval
//!    since the previous marker (`sigkit`, `scalatrace::tracer`);
//! 2. runs a collective **vote** (reduce + bcast, O(log P)) on whether any
//!    rank's Call-Path changed, driving the four-state **transition
//!    graph** ([`state`], the paper's Figure 2 / Algorithm 1);
//! 3. on entering the Clustering state, runs **hierarchical signature
//!    clustering** over the reduction tree (`clusterkit`), elects K lead
//!    ranks, and turns tracing *off* on everyone else;
//! 4. merges the K lead traces over a radix tree (**online
//!    inter-compression**, the paper's Algorithm 3) and folds the result
//!    into the incrementally growing **online trace** at rank 0 —
//!    replacing ScalaTrace's O(n² log P) all-rank merge at `MPI_Finalize`
//!    with O(n² log K) merges at phase boundaries.
//!
//! Modules:
//!
//! * [`checkpoint`] — durable marker checkpoints: the root's recovery
//!   state as a versioned, CRC-framed blob, replicated to a deputy so a
//!   root crash loses at most one marker interval;
//! * [`config`] — K, `Call_Frequency`, clustering algorithm, tree radix,
//!   checkpoint stride/dir/resume;
//! * [`state`] — the pure transition graph (Algorithm 1), unit-testable
//!   without any MPI;
//! * [`stats`] — per-rank overhead timers, state counts (Table II), and
//!   per-state trace-memory accounting (Table IV);
//! * [`runtime`] — the [`runtime::Chameleon`] driver: `marker()` and
//!   `finalize()` wrappers (Algorithm 3); its clustering branch (cluster,
//!   hand out the selection, merge the leads online) and its health plane
//!   live in the private `cluster` and `health` modules;
//! * [`baselines`] — plain ScalaTrace (all-rank merge at finalize) and
//!   ACURDION (signature clustering at finalize) comparators.

pub mod baselines;
pub mod checkpoint;
mod cluster;
pub mod config;
pub mod energy;
mod health;
pub mod runtime;
pub mod state;
pub mod stats;

pub use checkpoint::{Checkpoint, CkptError};
pub use config::{AlgoChoice, ChameleonConfig};
pub use energy::{EnergyModel, EnergyReport};
pub use runtime::{Chameleon, FinalizeOutcome};
pub use state::{MarkerState, TransitionGraph};
pub use stats::{AggregatedStats, ChameleonStats, MemAccount, MergeLevelStats, StateCounts};
