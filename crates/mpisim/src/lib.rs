//! # mpisim — a simulated MPI runtime with virtual time
//!
//! Chameleon and ScalaTrace are MPI-level tools: they interpose on MPI
//! calls, run reductions over process trees, and reason about per-rank
//! event streams. Reproducing them requires an MPI, and this crate provides
//! one: each rank is a cooperative task on its own stack, and an
//! event-driven scheduler ([`sched`]) runs them all on the calling thread
//! — scaling worlds to tens of thousands of ranks — point-to-point
//! messages are matched on `(communicator, tag, source)` exactly as MPI
//! matches them, and the collectives (`barrier`, `reduce`, `bcast`,
//! `allreduce`, `gather`) are implemented over point-to-point with the
//! same binomial-tree / dissemination structures real MPI libraries use —
//! so the O(log P) cost shape the paper relies on is real, not assumed.
//! The pre-refactor
//! free-running thread-per-rank engine is retained behind
//! [`SchedMode::Threads`] as a differential-testing oracle.
//!
//! ## Virtual time
//!
//! Each rank carries a virtual clock ([`time::VirtualClock`]). Computation
//! is `compute(seconds)`; communication costs follow an alpha–beta
//! (latency + bandwidth) model ([`time::CostModel`]). Blocking receives
//! synchronize clocks: the receiver's clock advances to at least the
//! message's arrival time. This gives deterministic, machine-independent
//! "application execution times" — which is what the paper's replay
//! accuracy experiments (Figures 5 and 7) compare — while the tracing and
//! clustering code still executes for real and can be wall-clock timed
//! (Figures 4, 6, 8–11, Table III).
//!
//! ## Application payloads are lengths
//!
//! Only the size of an application message feeds the model: it sets the
//! transfer cost, the byte stats and the traced `count`, and nothing ever
//! reads its bytes. So the application plane moves lengths —
//! [`Proc::send_len`], [`Proc::sendrecv`], [`Proc::bcast_len`] and
//! [`Proc::gather_len`] carry a [`Payload::Zeros`] that is never
//! allocated, zeroed or copied — while tool-plane traffic (votes, traces,
//! reliable frames) keeps [`Proc::send`] and its bytes. A length send
//! behaves exactly like a byte send of the same length in clocks, stats,
//! matching and the fault plane.
//!
//! ## Quick example
//!
//! ```
//! use mpisim::{World, WorldConfig};
//!
//! let report = World::new(WorldConfig::new(4)).run(|proc| {
//!     let rank = proc.rank();
//!     let sum = proc.allreduce_sum(rank as u64);
//!     assert_eq!(sum, 0 + 1 + 2 + 3);
//! }).unwrap();
//! assert_eq!(report.ranks, 4);
//! ```

pub mod collectives;
pub mod fault;
pub mod mailbox;
pub mod proc;
pub mod reliable;
pub mod sched;
pub mod time;
pub mod topology;
pub mod world;

pub use fault::{CrashFault, FaultPlan, FaultStats, InjectedCrash, LinkRamp};
pub use mailbox::Payload;
pub use proc::{Proc, Rank, RecvInfo, SrcSel, Tag, TagSel};
pub use reliable::{ProtocolError, RetryPolicy};
pub use sched::SchedMode;
pub use time::{CostModel, VirtualClock, VirtualTime, Work};
pub use topology::RadixTree;
pub use world::{FaultyWorldReport, World, WorldConfig, WorldReport};

/// Communicator identifier.
///
/// This simulator models world-sized communicators with distinct
/// identities; that is all ScalaTrace/Chameleon need. The paper
/// distinguishes the *marker* barrier from ordinary application barriers by
/// giving it "a unique value [in] the communicator field" — hence
/// [`Comm::MARKER`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Comm(pub u32);

impl Comm {
    /// The default world communicator.
    pub const WORLD: Comm = Comm(0);
    /// Reserved communicator identifying Chameleon's marker barrier.
    pub const MARKER: Comm = Comm(u32::MAX);
    /// Reserved communicator for tool-internal (PMPI wrapper) traffic that
    /// must never be recorded in traces.
    pub const TOOL: Comm = Comm(u32::MAX - 1);
    /// Reserved out-of-band channel for the in-flight metrics plane's
    /// snapshot reductions. Traffic here bypasses *all* simulation
    /// accounting — no op ticks, no clock movement, no stats, no fault
    /// coins — so arming observability cannot perturb the run it
    /// observes (see [`Proc::reduce_metrics_delta`]).
    pub const OBS: Comm = Comm(u32::MAX - 2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_constants_distinct() {
        let reserved = [Comm::WORLD, Comm::MARKER, Comm::TOOL, Comm::OBS];
        for (i, a) in reserved.iter().enumerate() {
            for b in &reserved[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
