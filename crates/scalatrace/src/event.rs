//! A single compressed MPI event record.
//!
//! The unit of ScalaTrace's compressed traces: one *static* MPI call site
//! (identified by its stack signature) with its location-independent
//! parameters, the set of ranks that executed it, and delta-time
//! statistics aggregated over all dynamic instances it stands for.

use sigkit::StackSig;

use crate::hist::TimeStats;
use crate::op::MpiOp;
use crate::ranklist::RankSet;

/// One compressed event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// The operation with encoded parameters.
    pub op: MpiOp,
    /// Calling-context signature of the call site.
    pub stack_sig: StackSig,
    /// Ranks whose traces contain this event. A fresh intra-node record
    /// holds just the recording rank; inter-node merging unions these.
    pub ranks: RankSet,
    /// Computation time between the previous MPI event and this one,
    /// aggregated over all dynamic instances.
    pub pre_time: TimeStats,
}

impl EventRecord {
    /// Fresh single-instance record for `rank`.
    pub fn new(op: MpiOp, stack_sig: StackSig, rank: mpisim::Rank, pre_dt: f64) -> Self {
        EventRecord {
            op,
            stack_sig,
            ranks: RankSet::singleton(rank),
            pre_time: TimeStats::from_sample(pre_dt),
        }
    }

    /// Structural identity for compression and merging: same call site
    /// issuing the same operation. Time statistics and ranklists are
    /// payload, not identity — they aggregate when records fold.
    pub fn same_site(&self, other: &EventRecord) -> bool {
        self.stack_sig == other.stack_sig && self.op == other.op
    }

    /// Fold another record of the same site into this one (loop
    /// compression: consecutive iterations; inter-node merge: other ranks).
    ///
    /// Panics in debug builds if the records are not the same site.
    pub fn absorb(&mut self, other: &EventRecord) {
        debug_assert!(self.same_site(other), "absorbing a different site");
        self.ranks.union_with(&other.ranks);
        self.pre_time.merge(&other.pre_time);
    }

    /// Replace the participant set (Chameleon's lead-trace preparation:
    /// "each lead process replaces the ranklist of events with the ranklist
    /// of its cluster", Algorithm 3 step 4).
    pub fn set_ranks(&mut self, ranks: RankSet) {
        self.ranks = ranks;
    }

    /// Approximate in-memory footprint in bytes (Table IV accounting):
    /// op + signature + ranklist + time statistics.
    pub fn byte_size(&self) -> usize {
        64 + self.ranks.byte_size() + self.pre_time.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Endpoint;
    use mpisim::Comm;

    fn send_ev(sig: u64, off: i64, rank: usize) -> EventRecord {
        EventRecord::new(
            MpiOp::send(Endpoint::Relative(off), 1, 8, Comm::WORLD),
            StackSig(sig),
            rank,
            1.0,
        )
    }

    #[test]
    fn same_site_requires_sig_and_op() {
        let a = send_ev(1, 1, 0);
        let b = send_ev(1, 1, 5); // different rank, same site
        let c = send_ev(2, 1, 0); // different signature
        let d = send_ev(1, 2, 0); // different endpoint offset
        assert!(a.same_site(&b));
        assert!(!a.same_site(&c));
        assert!(!a.same_site(&d));
    }

    #[test]
    fn absorb_unions_ranks_and_times() {
        let mut a = send_ev(1, 1, 0);
        let b = send_ev(1, 1, 5);
        a.absorb(&b);
        assert_eq!(a.ranks.expand(), vec![0, 5]);
        assert_eq!(a.pre_time.count(), 2);
    }

    #[test]
    fn set_ranks_replaces() {
        let mut a = send_ev(1, 1, 3);
        a.set_ranks(RankSet::from_ranks(0..6));
        assert_eq!(a.ranks.len(), 6);
    }

    #[test]
    fn barrier_records_match_across_ranks() {
        let mk = |rank| EventRecord::new(MpiOp::barrier(Comm::WORLD), StackSig(0xb), rank, 0.5);
        let (x, y) = (mk(0), mk(1));
        assert!(x.same_site(&y));
    }

    #[test]
    fn byte_size_positive_and_grows_with_ranks() {
        let small = send_ev(1, 1, 0);
        let mut big = send_ev(1, 1, 0);
        big.set_ranks(RankSet::from_ranks(vec![0, 7, 19, 23, 100]));
        assert!(small.byte_size() > 0);
        assert!(big.byte_size() >= small.byte_size());
    }
}
