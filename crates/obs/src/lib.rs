//! # obs — a deterministic flight recorder for the Chameleon stack
//!
//! Every simulated rank carries a [`Recorder`]: a buffer of typed
//! [`Event`]s (state transitions, marker hits, signature computations,
//! cluster selections, lead re-elections, per-level merge spans,
//! reliable-protocol retries/NACKs, fault firings) stamped with the two
//! virtual clocks — application time and tool time — and a per-rank
//! monotonic sequence number. At world finalize the per-rank logs are
//! gathered into a [`RunJournal`] that serializes to JSONL with a stable
//! field order and *virtual timestamps only*, so two runs with the same
//! seed — fault-free or armed — produce byte-identical journals.
//!
//! The journal is therefore a first-class test oracle: suites assert on
//! event *sequences* ("exactly one re-election in this cluster after the
//! victim dies at op 40") instead of only on end-state counters. See
//! `OBSERVABILITY.md` at the repository root for the event taxonomy, the
//! journal schema, and grep/assert recipes.
//!
//! The recorder is zero-cost when disabled: [`Recorder::emit`] takes the
//! event payload as a closure and never runs it unless a log is armed,
//! mirroring the fault-plan idiom in `mpisim` (an `Option` check and an
//! early return on the hot path).

pub mod detect;
pub mod event;
pub mod journal;
pub mod metrics;
pub mod query;
pub mod recorder;
pub mod wire;

pub use detect::{DetectorConfig, Flag, HealthSample, SustainTracker};
pub use event::{AnomalyKind, Event, EventKind, FaultKind};
pub use journal::{JournalError, RunJournal};
pub use metrics::{Counter, HistId, Histogram, MetricSet};
pub use recorder::{RankLog, Recorder};
