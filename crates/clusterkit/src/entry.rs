//! Cluster summaries exchanged over the reduction tree.
//!
//! The paper's Algorithm 3 ships two things between tree nodes: the list
//! of clusters (`<lead rank, ranklist>` tuples) and "the signature of the
//! head of" each cluster. A [`ClusterEntry`] bundles both: who leads the
//! cluster, which ranks it covers, and the lead's SRC/DEST parameter
//! signatures (the coordinates clustering distances are computed on).

use mpisim::Rank;
use scalatrace::RankSet;
use sigkit::{CallPathSig, SignatureTriple};

/// One cluster: a lead rank, the member set it represents, and the lead's
/// signature coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterEntry {
    /// Representative (lead) rank whose trace stands for the cluster.
    pub lead: Rank,
    /// All ranks belonging to the cluster (including the lead).
    pub members: RankSet,
    /// The lead's SRC parameter signature.
    pub src: u64,
    /// The lead's DEST parameter signature.
    pub dest: u64,
}

impl ClusterEntry {
    /// Singleton cluster for one rank with its interval signatures.
    pub fn singleton(rank: Rank, triple: &SignatureTriple) -> Self {
        ClusterEntry {
            lead: rank,
            members: RankSet::singleton(rank),
            src: triple.src,
            dest: triple.dest,
        }
    }

    /// Euclidean distance in (SRC, DEST) space — the metric of the
    /// paper's Algorithm 2.
    pub fn distance(&self, other: &ClusterEntry) -> f64 {
        let ds = self.src.abs_diff(other.src) as f64;
        let dd = self.dest.abs_diff(other.dest) as f64;
        (ds * ds + dd * dd).sqrt()
    }

    /// Absorb another cluster: union members, keep this entry's lead and
    /// coordinates (the paper: "other non-selected clusters are merged
    /// with the closest clusters").
    pub fn absorb(&mut self, other: &ClusterEntry) {
        self.members.union_with(&other.members);
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty (never true in practice: entries are
    /// built from at least their lead).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Wire encoding: lead, src, dest, member count, members.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.lead as u64).to_le_bytes());
        buf.extend_from_slice(&self.src.to_le_bytes());
        buf.extend_from_slice(&self.dest.to_le_bytes());
        let members = self.members.expand();
        buf.extend_from_slice(&(members.len() as u64).to_le_bytes());
        for m in members {
            buf.extend_from_slice(&(m as u32).to_le_bytes());
        }
    }

    /// Decode one entry, advancing the cursor. Returns `None` on malformed
    /// input.
    pub fn decode(buf: &[u8], cursor: &mut usize) -> Option<ClusterEntry> {
        let take_u64 = |buf: &[u8], c: &mut usize| -> Option<u64> {
            let v = u64::from_le_bytes(buf.get(*c..*c + 8)?.try_into().ok()?);
            *c += 8;
            Some(v)
        };
        let lead = take_u64(buf, cursor)? as Rank;
        let src = take_u64(buf, cursor)?;
        let dest = take_u64(buf, cursor)?;
        let n = take_u64(buf, cursor)? as usize;
        // Validate the declared count against the bytes actually present
        // BEFORE allocating: a corrupted length field must fail the
        // decode, not abort the process on a absurd reservation.
        if n.checked_mul(4)
            .is_none_or(|need| buf.len() - *cursor < need)
        {
            return None;
        }
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            let v = u32::from_le_bytes(buf.get(*cursor..*cursor + 4)?.try_into().ok()?);
            *cursor += 4;
            members.push(v as Rank);
        }
        Some(ClusterEntry {
            lead,
            members: RankSet::from_ranks(members),
            src,
            dest,
        })
    }
}

/// Key under which entries are grouped: the Call-Path signature. Processes
/// are only ever clustered *within* a Call-Path group — the paper found
/// the Call-Path count ("usually below 9") to be the key accuracy lever,
/// and Chameleon "does not miss any MPI event by selecting at least one
/// representative from each callpath cluster."
pub type CallPathKey = CallPathSig;

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lead: Rank, src: u64, dest: u64) -> ClusterEntry {
        ClusterEntry::singleton(
            lead,
            &SignatureTriple {
                call_path: CallPathSig(1),
                src,
                dest,
            },
        )
    }

    #[test]
    fn singleton_contains_lead() {
        let e = entry(5, 10, 20);
        assert_eq!(e.lead, 5);
        assert_eq!(e.members.expand(), vec![5]);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn distance_euclidean() {
        let a = entry(0, 0, 0);
        let b = entry(1, 3, 4);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn absorb_unions_members_keeps_lead() {
        let mut a = entry(0, 1, 1);
        let b = entry(7, 9, 9);
        a.absorb(&b);
        assert_eq!(a.lead, 0);
        assert_eq!(a.members.expand(), vec![0, 7]);
        assert_eq!(a.src, 1, "coordinates stay the lead's");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut e = entry(3, 0xdeadbeef, 0xfeedface);
        e.absorb(&entry(9, 0, 0));
        e.absorb(&entry(4, 0, 0));
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let mut cursor = 0;
        let back = ClusterEntry::decode(&buf, &mut cursor).unwrap();
        assert_eq!(back, e);
        assert_eq!(cursor, buf.len());
    }

    #[test]
    fn decode_rejects_truncated() {
        let e = entry(1, 2, 3);
        let mut buf = Vec::new();
        e.encode(&mut buf);
        for cut in [1, 8, 16, buf.len() - 1] {
            let mut cursor = 0;
            assert!(
                ClusterEntry::decode(&buf[..cut], &mut cursor).is_none(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn decode_rejects_absurd_member_count_without_allocating() {
        // A corrupted length field must fail the decode before the member
        // vector is reserved — `with_capacity(u64::MAX)` would abort.
        let e = entry(1, 2, 3);
        let mut buf = Vec::new();
        e.encode(&mut buf);
        buf[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = 0;
        assert!(ClusterEntry::decode(&buf, &mut cursor).is_none());
        buf[24..32].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let mut cursor = 0;
        assert!(ClusterEntry::decode(&buf, &mut cursor).is_none());
    }

    #[test]
    fn multiple_entries_sequential_decode() {
        let mut buf = Vec::new();
        entry(1, 10, 10).encode(&mut buf);
        entry(2, 20, 20).encode(&mut buf);
        let mut cursor = 0;
        let a = ClusterEntry::decode(&buf, &mut cursor).unwrap();
        let b = ClusterEntry::decode(&buf, &mut cursor).unwrap();
        assert_eq!(a.lead, 1);
        assert_eq!(b.lead, 2);
        assert_eq!(cursor, buf.len());
    }
}
