//! # scalatrace — a re-implementation of the ScalaTrace V2 tracing toolset
//!
//! ScalaTrace (Noeth, Ratn, Mueller, Schulz, de Supinski; JPDC 2009 and
//! Wu & Mueller, ICS 2013) is the substrate Chameleon builds on. It captures
//! MPI events per rank, compresses loops into Regular Section Descriptors
//! (RSDs) and nested loops into power-RSDs (PRSDs), and consolidates the
//! per-rank traces into one near-constant-size global trace in a reduction
//! over a radix tree at `MPI_Finalize`.
//!
//! This crate provides the complete pipeline:
//!
//! * [`op`] — MPI operation descriptors with ScalaTrace's
//!   *location-independent* (relative) endpoint encoding;
//! * [`ranklist`] — the `<dimension, start_rank, iteration_length, stride>`
//!   communication-group encoding and its algebra;
//! * [`hist`] — delta-time statistics/histograms attached to events;
//! * [`event`] — a single compressed MPI event record;
//! * [`trace`] — the PRSD-compressed trace with **online intra-node
//!   compression** (tail matching with loop nesting);
//! * [`merge`] — **inter-node compression**: structural merging of two
//!   compressed traces (the O(n²) pairwise step of the paper's
//!   O(n² log P) radix-tree reduction);
//! * [`format`](mod@format) — the text trace-file format (serialize + parse);
//! * [`tracer`] — the PMPI-style interposition layer over
//!   [`mpisim::Proc`]: records events with stack signatures, maintains
//!   per-interval Call-Path/SRC/DEST signatures, and supports disabling
//!   tracing on non-lead ranks;
//! * [`reduction`] — the distributed radix-tree trace consolidation used
//!   by plain ScalaTrace at finalize and by Chameleon online.

pub mod event;
pub mod format;
pub mod hist;
pub mod merge;
pub mod op;
pub mod ranklist;
pub mod reduction;
pub mod trace;
pub mod tracer;

pub use event::EventRecord;
pub use hist::TimeStats;
pub use op::{Endpoint, MpiOp, OpKind};
pub use ranklist::{RankList, RankSet};
pub use trace::{CompressedTrace, TraceNode};
pub use tracer::{IntervalSignatures, TracedProc, Tracer};
