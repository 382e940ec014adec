//! Collective operations over point-to-point messaging.
//!
//! Implemented with the standard algorithms real MPI libraries use at
//! small-to-medium message sizes:
//!
//! * **barrier** — dissemination algorithm, ⌈log2 P⌉ rounds;
//! * **reduce** — binomial tree toward the root, ⌈log2 P⌉ rounds;
//! * **bcast** — binomial tree away from the root;
//! * **allreduce** — reduce to rank 0 followed by bcast;
//! * **gather** — binomial tree concatenation toward the root.
//!
//! All are O(log P) in rounds, which is exactly the complexity the paper
//! ascribes to the `MPI_Reduce`/`MPI_Bcast` pair in Algorithm 1 and to the
//! radix-tree trace merges. Every rank must call each collective on a given
//! communicator in the same order (the usual MPI requirement); per-instance
//! sequence numbers keep back-to-back collectives from cross-matching.

use crate::mailbox::Payload;
use crate::proc::{Proc, Rank, SrcSel, TagSel};
use crate::Comm;

/// Reduction operators over `u64` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Wrapping sum.
    Sum,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Bitwise or.
    BitOr,
}

impl ReduceOp {
    /// Apply the operator.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::BitOr => a | b,
        }
    }
}

impl Proc {
    /// Dissemination barrier: after ⌈log2 P⌉ exchange rounds every rank is
    /// certain every other rank has entered the barrier.
    pub fn barrier(&mut self, comm: Comm) {
        self.tick_op();
        let p = self.size();
        if p == 1 {
            return;
        }
        let seq = self.next_coll_seq(comm);
        let me = self.rank();
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < p {
            let to = (me + dist) % p;
            let from = (me + p - dist % p) % p;
            let tag = Proc::coll_tag(seq, round);
            self.send(to, tag, comm, &[]);
            let info = self.recv(SrcSel::Rank(from), TagSel::Tag(tag), comm);
            debug_assert!(info.payload.is_empty());
            dist *= 2;
            round += 1;
        }
    }

    /// Binomial-tree reduction of one `u64` to `root`.
    ///
    /// Returns `Some(result)` on the root, `None` elsewhere.
    pub fn reduce_u64(&mut self, value: u64, op: ReduceOp, root: Rank, comm: Comm) -> Option<u64> {
        let p = self.size();
        assert!(root < p, "reduce root {root} out of range {p}");
        let seq = self.next_coll_seq(comm);
        if p == 1 {
            return Some(value);
        }
        let me = self.rank();
        let rel = (me + p - root) % p; // position in the virtual tree
        let mut acc = value;
        let mut mask = 1usize;
        let mut round = 0u32;
        loop {
            if rel & mask != 0 {
                // Send the partial result to the subtree parent and leave.
                let parent_rel = rel & !mask;
                let parent = (parent_rel + root) % p;
                self.send_u64(parent, Proc::coll_tag(seq, round), comm, acc);
                break;
            }
            let child_rel = rel | mask;
            if child_rel < p {
                let child = (child_rel + root) % p;
                let (_, v) = self.recv_u64(
                    SrcSel::Rank(child),
                    TagSel::Tag(Proc::coll_tag(seq, round)),
                    comm,
                );
                acc = op.apply(acc, v);
            }
            mask <<= 1;
            round += 1;
            if mask >= p {
                break;
            }
        }
        (me == root).then_some(acc)
    }

    /// Binomial-tree broadcast of a byte payload from `root`. Non-root
    /// callers pass an empty slice; every caller receives the root's
    /// payload as the return value.
    pub fn bcast(&mut self, payload: &[u8], root: Rank, comm: Comm) -> Vec<u8> {
        self.bcast_payload(Payload::Bytes(payload.to_vec()), root, comm)
            .into_vec()
    }

    /// [`Proc::bcast`] of an application message of the root's `len`
    /// bytes: every round carries only the length (see [`Proc::send_len`]).
    pub fn bcast_len(&mut self, len: usize, root: Rank, comm: Comm) {
        self.bcast_payload(Payload::Zeros(len), root, comm);
    }

    fn bcast_payload(&mut self, payload: Payload, root: Rank, comm: Comm) -> Payload {
        let p = self.size();
        assert!(root < p, "bcast root {root} out of range {p}");
        let seq = self.next_coll_seq(comm);
        if p == 1 {
            return payload;
        }
        let me = self.rank();
        let rel = (me + p - root) % p;
        // Receive phase: find the bit at which this rank hangs off the tree.
        let data: Payload;
        let mut recv_mask = 1usize;
        if rel == 0 {
            data = payload;
            // Root "received" at the top of the tree: its send masks start
            // from the highest power of two below p.
            recv_mask = p.next_power_of_two();
        } else {
            loop {
                if rel & recv_mask != 0 {
                    let src_rel = rel & !recv_mask;
                    let src = (src_rel + root) % p;
                    let round = recv_mask.trailing_zeros();
                    let info = self.recv(
                        SrcSel::Rank(src),
                        TagSel::Tag(Proc::coll_tag(seq, round)),
                        comm,
                    );
                    data = info.payload;
                    break;
                }
                recv_mask <<= 1;
            }
        }
        // Send phase: forward to children below the received bit.
        let mut mask = recv_mask >> 1;
        while mask > 0 {
            let child_rel = rel | mask;
            if child_rel < p && child_rel != rel {
                let child = (child_rel + root) % p;
                let round = mask.trailing_zeros();
                self.send_payload(child, Proc::coll_tag(seq, round), comm, data.clone());
            }
            mask >>= 1;
        }
        data
    }

    /// Broadcast a single u64 from `root`.
    pub fn bcast_u64(&mut self, value: u64, root: Rank, comm: Comm) -> u64 {
        let out = self.bcast(&value.to_le_bytes(), root, comm);
        u64::from_le_bytes(out.as_slice().try_into().expect("bcast_u64 payload"))
    }

    /// Allreduce = reduce to rank 0 + broadcast (on `comm`).
    pub fn allreduce_u64(&mut self, value: u64, op: ReduceOp, comm: Comm) -> u64 {
        let partial = self.reduce_u64(value, op, 0, comm).unwrap_or(0);
        self.bcast_u64(partial, 0, comm)
    }

    /// Allreduce-sum on the world communicator — the most common idiom in
    /// the workloads.
    pub fn allreduce_sum(&mut self, value: u64) -> u64 {
        self.allreduce_u64(value, ReduceOp::Sum, Comm::WORLD)
    }

    /// Death-tolerant barrier: synchronizes the surviving ranks and
    /// returns the agreed alive set (ascending). See
    /// [`Proc::resilient_allreduce_u64`] for the protocol and its
    /// guarantees.
    pub fn resilient_barrier(&mut self, comm: Comm) -> Vec<Rank> {
        self.resilient_allreduce_u64(0, ReduceOp::Sum, comm).1
    }

    /// Death-tolerant allreduce over whoever is still alive, as a star
    /// through the smallest surviving rank. Returns `(result, alive)`
    /// where `alive` is the ascending list of ranks whose contributions
    /// made it into `result` — the root's snapshot, distributed back down,
    /// so **every survivor receives the identical set**. Chameleon uses
    /// that snapshot as the agreed participant set for the phase the vote
    /// opens: lock-step is preserved because the agreement is made once,
    /// at the root, not inferred per-rank.
    ///
    /// **Root failover.** The root is no longer immortal: attempt `a`
    /// stars through candidate root `a` on a fresh tag pair, and every
    /// survivor that fails to get a reply (the candidate died) advances to
    /// the next candidate in lock-step. Consistency relies on the reply
    /// fan-out being *crash-atomic*: the root ticks the op counter once
    /// before the fan-out and then uses non-ticking sends, so the plan's
    /// crash either fires before any reply exists (all survivors observe
    /// the death and fail over together) or after all replies are
    /// delivered (nobody fails over). With at most one crash per plan
    /// (`FaultPlan` holds a single `CrashFault`), at most two candidates
    /// are ever tried.
    ///
    /// A rank that dies *after* contributing stays in the snapshot; the
    /// phase that trusted the snapshot must tolerate its silence (that is
    /// the mid-phase-death path, counted as a degraded slice).
    ///
    /// O(P) rounds instead of the dissemination/binomial O(log P): the
    /// star is the price of a single authoritative membership decision.
    /// Only armed worlds ever call this.
    pub fn resilient_allreduce_u64(
        &mut self,
        value: u64,
        op: ReduceOp,
        comm: Comm,
    ) -> (u64, Vec<Rank>) {
        self.tick_op();
        let p = self.size();
        let seq = self.next_coll_seq(comm);
        if p == 1 {
            return (value, vec![0]);
        }
        let me = self.rank();
        // `coll_tag` budgets 64 rounds per instance → 32 candidate roots;
        // one crash per plan means attempts 0 and 1 are the only ones ever
        // reachable, so the cap is a formality.
        for attempt in 0..p.min(32) {
            let root = attempt;
            let up = Proc::coll_tag(seq, (2 * attempt) as u32);
            let down = Proc::coll_tag(seq, (2 * attempt + 1) as u32);
            if me == root {
                let mut acc = value;
                let mut alive: Vec<Rank> = vec![me];
                for r in (0..p).filter(|&r| r != me) {
                    if let Some(info) = self.recv_or_dead(r, up, comm) {
                        let v = u64::from_le_bytes(
                            info.payload
                                .into_vec()
                                .try_into()
                                .expect("resilient allreduce contribution is 8 bytes"),
                        );
                        acc = op.apply(acc, v);
                        alive.push(r);
                    }
                }
                alive.sort_unstable();
                let mut reply = Vec::with_capacity(16 + 8 * alive.len());
                reply.extend_from_slice(&acc.to_le_bytes());
                reply.extend_from_slice(&(alive.len() as u64).to_le_bytes());
                for &r in &alive {
                    reply.extend_from_slice(&(r as u64).to_le_bytes());
                }
                // Crash-atomic fan-out: one tick, then non-ticking sends.
                self.tick_op();
                for &r in &alive {
                    if r != me {
                        self.send_no_tick(r, down, comm, &reply);
                    }
                }
                return (acc, alive);
            }
            // Non-root: contribute, then wait for the reply or the root's
            // death. Never peek at the death flag to skip the send — a
            // non-blocking check would race real time; the blocking wait
            // resolves message-vs-death deterministically.
            self.send(root, up, comm, &value.to_le_bytes());
            let Some(info) = self.recv_or_dead(root, down, comm) else {
                continue; // candidate root died: fail over in lock-step
            };
            let buf = info.payload.into_vec();
            assert!(buf.len() >= 16, "resilient allreduce reply framing");
            let result = u64::from_le_bytes(buf[..8].try_into().unwrap());
            let n = u64::from_le_bytes(buf[8..16].try_into().unwrap()) as usize;
            assert_eq!(buf.len(), 16 + 8 * n, "resilient allreduce reply framing");
            let alive = (0..n)
                .map(|i| {
                    u64::from_le_bytes(buf[16 + 8 * i..24 + 8 * i].try_into().unwrap()) as Rank
                })
                .collect();
            return (result, alive);
        }
        unreachable!("every candidate root died; plans inject at most one crash")
    }

    /// Binomial-tree gather of variable-length payloads to `root`.
    ///
    /// On the root, returns `Some(v)` with `v[r]` holding rank r's payload;
    /// `None` elsewhere.
    pub fn gather(&mut self, payload: &[u8], root: Rank, comm: Comm) -> Option<Vec<Vec<u8>>> {
        let p = self.size();
        let items = self.gather_tree(
            vec![(self.rank(), payload.to_vec())],
            |items| Payload::Bytes(encode_items(items)),
            |items, msg| items.extend(decode_items(&msg.into_vec())),
            root,
            comm,
        )?;
        // Root: order by rank.
        let mut out = vec![Vec::new(); p];
        let mut seen = vec![false; p];
        for (r, data) in items {
            assert!(!seen[r], "gather: duplicate contribution from rank {r}");
            seen[r] = true;
            out[r] = data;
        }
        assert!(seen.iter().all(|&s| s), "gather: missing contributions");
        Some(out)
    }

    /// [`Proc::gather`] of an application message of `len` bytes per rank:
    /// each round carries only the length of the frame the byte gather
    /// would send, the subtree's `encode_items` size (see
    /// [`Proc::send_len`]).
    pub fn gather_len(&mut self, len: usize, root: Rank, comm: Comm) {
        self.gather_tree(
            16 + len,
            |&bytes| Payload::Zeros(bytes),
            |bytes, msg| *bytes += msg.len(),
            root,
            comm,
        );
    }

    /// The binomial tree under both gathers: fold each child's message
    /// into this rank's subtree state with `absorb`, then ship it to the
    /// parent as `encode` renders it. Returns the whole tree's state on
    /// `root`, `None` elsewhere.
    fn gather_tree<T>(
        &mut self,
        mine: T,
        encode: impl Fn(&T) -> Payload,
        absorb: impl Fn(&mut T, Payload),
        root: Rank,
        comm: Comm,
    ) -> Option<T> {
        let p = self.size();
        assert!(root < p, "gather root {root} out of range {p}");
        let seq = self.next_coll_seq(comm);
        if p == 1 {
            return Some(mine);
        }
        let rel = (self.rank() + p - root) % p;
        let mut acc = mine;
        let mut mask = 1usize;
        let mut round = 0u32;
        loop {
            if rel & mask != 0 {
                let parent_rel = rel & !mask;
                let parent = (parent_rel + root) % p;
                self.send_payload(parent, Proc::coll_tag(seq, round), comm, encode(&acc));
                return None;
            }
            let child_rel = rel | mask;
            if child_rel < p {
                let child = (child_rel + root) % p;
                let info = self.recv(
                    SrcSel::Rank(child),
                    TagSel::Tag(Proc::coll_tag(seq, round)),
                    comm,
                );
                absorb(&mut acc, info.payload);
            }
            mask <<= 1;
            round += 1;
            if mask >= p {
                return Some(acc);
            }
        }
    }
}

fn encode_items(items: &[(Rank, Vec<u8>)]) -> Vec<u8> {
    let total: usize = items.iter().map(|(_, d)| 16 + d.len()).sum();
    let mut buf = Vec::with_capacity(total);
    for (rank, data) in items {
        buf.extend_from_slice(&(*rank as u64).to_le_bytes());
        buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
        buf.extend_from_slice(data);
    }
    buf
}

fn decode_items(mut buf: &[u8]) -> Vec<(Rank, Vec<u8>)> {
    let mut items = Vec::new();
    while !buf.is_empty() {
        assert!(buf.len() >= 16, "gather framing corrupted");
        let rank = u64::from_le_bytes(buf[..8].try_into().unwrap()) as Rank;
        let len = u64::from_le_bytes(buf[8..16].try_into().unwrap()) as usize;
        assert!(buf.len() >= 16 + len, "gather framing corrupted");
        items.push((rank, buf[16..16 + len].to_vec()));
        buf = &buf[16 + len..];
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let items = vec![
            (0usize, vec![1, 2, 3]),
            (5, vec![]),
            (1023, vec![0xff; 100]),
        ];
        assert_eq!(decode_items(&encode_items(&items)), items);
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.apply(2, 3), 5);
        assert_eq!(ReduceOp::Sum.apply(u64::MAX, 1), 0, "wrapping");
        assert_eq!(ReduceOp::Max.apply(2, 3), 3);
        assert_eq!(ReduceOp::Min.apply(2, 3), 2);
        assert_eq!(ReduceOp::BitOr.apply(0b01, 0b10), 0b11);
    }
}
