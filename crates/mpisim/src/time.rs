//! Virtual time: per-rank clocks and the alpha–beta communication cost
//! model.
//!
//! The replay-accuracy experiments in the paper compare application
//! execution times with and without clustered tracing. On real hardware
//! those times come from the wall clock; in this reproduction they come
//! from a deterministic virtual clock so that results are exactly
//! repeatable and machine-independent. The model is the classic
//! LogP-inspired alpha–beta model: sending `n` bytes costs
//! `alpha + beta * n` end-to-end, with a small CPU-side overhead `o` on
//! each of sender and receiver.

/// Virtual seconds. A plain f64 newtype would force arithmetic boilerplate
/// everywhere; virtual times participate in max/add constantly, so we keep
/// the alias and document the unit instead.
pub type VirtualTime = f64;

/// Latency/bandwidth cost model for simulated communication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One-way message latency in virtual seconds (the "alpha" term).
    pub alpha: VirtualTime,
    /// Per-byte transfer cost in virtual seconds (the "beta" term, i.e.
    /// 1/bandwidth).
    pub beta: VirtualTime,
    /// CPU overhead charged to the caller per send or receive operation.
    pub overhead: VirtualTime,
}

impl CostModel {
    /// Parameters loosely modeled on the paper's testbed (QDR InfiniBand:
    /// ~1.3 us latency, ~3.2 GB/s effective bandwidth).
    pub fn qdr_infiniband() -> Self {
        CostModel {
            alpha: 1.3e-6,
            beta: 1.0 / 3.2e9,
            overhead: 0.3e-6,
        }
    }

    /// End-to-end transfer time of an `n`-byte message.
    #[inline]
    pub fn transfer(&self, bytes: usize) -> VirtualTime {
        self.alpha + self.beta * bytes as VirtualTime
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::qdr_infiniband()
    }
}

/// One unit of *tool computation* (trace parsing/merging, clustering,
/// signature work), named by the work it does; [`crate::Proc::tool_compute`]
/// charges its modeled cost, priced by the rates below.
///
/// Overhead experiments need per-rank compute costs that are exactly
/// repeatable, and wall time cannot give them: the event engine runs every
/// rank on the thread that calls `World::run`, so a span around a tool
/// step also times whichever other ranks the scheduler resumed inside it,
/// and the host's load moves the figure run to run. Discrete-event
/// simulators solve this analytically — charge each operation a modeled
/// cost proportional to the work it does — and that is what this is. The
/// rates are calibrated to commodity-CPU magnitudes (see each constant)
/// and, because they are fixed, overhead results are deterministic and
/// machine-independent, like the virtual application clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Serializing or parsing `bytes` of trace text.
    Codec { bytes: usize },
    /// A pairwise merge that evaluated `dp_cells` LCS cells and touched
    /// `nodes` trace nodes — the prefiltered aligner's measured work,
    /// which skips most of the n·m table on structurally similar traces.
    Align { dp_cells: u64, nodes: usize },
    /// A structural merge of traces of compressed sizes `n` and `m`
    /// charged at its worst case: the full O(n·m) alignment plus linear
    /// fold work.
    AlignWorstCase { n: usize, m: usize },
    /// Cloning or folding `nodes` trace nodes.
    Fold { nodes: usize },
    /// Clustering `entries` entries (distance matrix plus selection
    /// sweeps).
    Cluster { entries: usize },
    /// Finishing one interval signature over `events` compressed events.
    Signature { events: u64 },
}

impl Work {
    /// Seconds per byte of trace text serialized or parsed (~100 MB/s
    /// string processing).
    const CODEC_PER_BYTE: f64 = 10e-9;
    /// Seconds per DP cell of the O(n·m) pairwise trace alignment
    /// (~50M cells/s).
    const MERGE_PER_CELL: f64 = 20e-9;
    /// Seconds per trace node cloned/folded during merging and online
    /// absorption.
    const FOLD_PER_NODE: f64 = 100e-9;
    /// Seconds per pairwise distance evaluation in clustering.
    const CLUSTER_PER_PAIR: f64 = 50e-9;
    /// Fixed cost of finishing one interval signature, plus...
    const SIGNATURE_BASE: f64 = 200e-9;
    /// ...seconds per event folded into the interval signature (the
    /// paper's O(n) signature creation).
    const SIGNATURE_PER_EVENT: f64 = 5e-9;

    /// Modeled seconds this work costs.
    pub(crate) fn seconds(&self) -> f64 {
        match *self {
            Work::Codec { bytes } => Self::CODEC_PER_BYTE * bytes as f64,
            Work::Align { dp_cells, nodes } => {
                Self::MERGE_PER_CELL * dp_cells as f64 + Self::FOLD_PER_NODE * nodes as f64
            }
            Work::AlignWorstCase { n, m } => {
                Self::MERGE_PER_CELL * (n as f64) * (m as f64)
                    + Self::FOLD_PER_NODE * (n + m) as f64
            }
            Work::Fold { nodes } => Self::FOLD_PER_NODE * nodes as f64,
            Work::Cluster { entries } => {
                Self::CLUSTER_PER_PAIR * (entries as f64) * (entries as f64)
            }
            Work::Signature { events } => {
                Self::SIGNATURE_BASE + Self::SIGNATURE_PER_EVENT * events as f64
            }
        }
    }
}

/// Per-rank virtual clock.
///
/// Monotone by construction: all mutating operations only move the clock
/// forward.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VirtualClock {
    now: VirtualTime,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Advance by a non-negative duration (e.g. simulated computation).
    #[inline]
    pub fn advance(&mut self, dt: VirtualTime) {
        debug_assert!(dt >= 0.0, "cannot advance clock by negative time");
        if dt > 0.0 {
            self.now += dt;
        }
    }

    /// Synchronize with an external event: move forward to `t` if `t` is
    /// later than now (never backward).
    #[inline]
    pub fn sync_to(&mut self, t: VirtualTime) {
        if t > self.now {
            self.now = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        assert_eq!(VirtualClock::new().now(), 0.0);
    }

    #[test]
    fn advance_accumulates() {
        let mut c = VirtualClock::new();
        c.advance(1.5);
        c.advance(0.5);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn sync_never_moves_backward() {
        let mut c = VirtualClock::new();
        c.advance(10.0);
        c.sync_to(5.0);
        assert_eq!(c.now(), 10.0);
        c.sync_to(12.0);
        assert_eq!(c.now(), 12.0);
    }

    #[test]
    fn transfer_cost_monotone_in_size() {
        let m = CostModel::qdr_infiniband();
        assert!(m.transfer(0) > 0.0, "latency floor");
        assert!(m.transfer(1 << 20) > m.transfer(1 << 10));
    }

    #[test]
    fn zero_advance_is_noop() {
        let mut c = VirtualClock::new();
        c.advance(0.0);
        assert_eq!(c.now(), 0.0);
    }
}
