//! # chameleon-bench — the per-table / per-figure reproduction harness
//!
//! One experiment per table and figure of the paper (see DESIGN.md's
//! experiment index) — `table1` … `table4`, `fig4` … `fig11`, the
//! ablations, `energy`, `observability` — all behind the one `run_all`
//! binary: name the experiments to run, or none for the full suite, and
//! `--out` writes the results under `experiments_out/`.
//!
//! ```text
//! EXPERIMENT...  run only these (default: all)
//! --max-p <N>    largest world size in sweeps        (default 64)
//! --scale <N>    iteration shrink factor             (default 10; 1 = paper-faithful)
//! --class <A-D>  input class where applicable        (default D)
//! --out <dir>    also write results as TSV files
//! --full         shorthand for --scale 1 --max-p 1024
//! ```
//!
//! The shrink factor divides timesteps and `Call_Frequency` together, so
//! marker counts, state sequences, and Call-Path structure — everything
//! the tables assert — are preserved exactly; only wall-clock magnitudes
//! shrink.

pub mod config;
pub mod experiments;
pub mod report;

pub use config::HarnessConfig;
pub use report::Table;
