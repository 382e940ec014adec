//! CRC-framed, ACK/NACK-acknowledged point-to-point transfers.
//!
//! Chameleon's tool-plane protocols (cluster maps, lead selections,
//! partial traces) originally trusted the wire: a malformed payload was an
//! instant `expect()` panic. Under an armed [`crate::FaultPlan`] the wire
//! *lies* — frames are dropped, duplicated, and corrupted — so this module
//! wraps every unreliable tool payload in a checksummed frame and runs a
//! stop-and-wait handshake:
//!
//! ```text
//! frame   = "FRM1" | seq:u64 LE | crc32(seq || payload):u32 LE | payload
//! ack     = code:u8 (0 OK / 1 NACK / 2 GIVEUP) | seq:u64 LE
//! ```
//!
//! The sender retransmits on an observed drop or a NACK; the receiver
//! NACKs corrupt frames up to its [`RetryPolicy`] budget, then sends
//! GIVEUP and degrades with a typed [`ProtocolError`] instead of
//! panicking. Duplicates are detected by per-`(peer, tag)` sequence
//! numbers and discarded silently. The ACK channel itself (and all
//! collective-internal rounds) is exempt from fault injection: the
//! recovery protocol needs a solid control plane.
//!
//! When no plan is armed, [`crate::Proc::reliable_send`] and
//! [`crate::Proc::reliable_recv`] degenerate to the raw `send`/`recv` with
//! the payload bytes untouched — fault-free runs stay bit-identical to a
//! build without this module.

use obs::wire::crc32_update;

use crate::proc::{Proc, Rank, SrcSel, Tag, TagSel, COLLECTIVE_TAG_BASE};
use crate::Comm;

/// Reserved tag for reliable-layer acknowledgements. Sits just below the
/// collective tag space and is exempt from fault injection.
pub const ACK_TAG: Tag = COLLECTIVE_TAG_BASE - 1;

const MAGIC: &[u8; 4] = b"FRM1";
const ACK_OK: u8 = 0;
const ACK_NACK: u8 = 1;
const ACK_GIVEUP: u8 = 2;

/// How many times a receiver re-requests a corrupt frame before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// NACK at most this many times, then GIVEUP and degrade. `Bounded(1)`
    /// is the "re-request once from the child, then degrade" policy.
    Bounded(u32),
    /// NACK until a clean frame arrives (or the peer dies). Reserved for
    /// payloads the lock-step protocol cannot proceed without, e.g. the
    /// lead selection every rank must agree on.
    Unlimited,
}

impl RetryPolicy {
    fn allows(self, nacks_so_far: u32) -> bool {
        match self {
            RetryPolicy::Bounded(n) => nacks_so_far < n,
            RetryPolicy::Unlimited => true,
        }
    }
}

/// A typed wire-protocol failure: the degraded-path alternative to
/// panicking on a malformed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The peer died (injected crash) before supplying the payload.
    PeerDead {
        /// The dead peer.
        rank: Rank,
    },
    /// The payload was still corrupt after the retry budget ran out.
    Corrupt {
        /// Sender of the corrupt frames.
        src: Rank,
        /// Protocol tag of the transfer.
        tag: Tag,
        /// Delivery attempts observed before giving up.
        attempts: u32,
    },
    /// The bytes arrived intact (CRC-clean) but failed structured
    /// decoding — a protocol bug rather than a lossy link.
    Decode {
        /// What was being decoded.
        what: &'static str,
        /// Decoder-specific detail.
        detail: String,
    },
    /// A blocking receive in an armed world ended at a proven stall: no
    /// rank could run, so its message could never come. Carried as a
    /// panic payload out of the stuck rank so the world harness (and the
    /// chaos supervisor) can tell a wedged protocol from a genuine bug.
    Timeout {
        /// The rank that was stuck waiting.
        rank: Rank,
        /// The operation it was stuck in, e.g. `"recv src=2 tag=11"`.
        op: String,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::PeerDead { rank } => write!(f, "peer rank {rank} is dead"),
            ProtocolError::Corrupt { src, tag, attempts } => write!(
                f,
                "payload from rank {src} on tag {tag} still corrupt after {attempts} attempt(s)"
            ),
            ProtocolError::Decode { what, detail } => {
                write!(f, "malformed {what}: {detail}")
            }
            ProtocolError::Timeout { rank, op } => {
                write!(f, "rank {rank} timed out stuck in {op}: no rank can run")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// CRC-32 over `seq || payload` — covering the sequence number means a
/// bit-flip in the header can never masquerade as a stale duplicate (which
/// would be discarded without a NACK and deadlock the sender's ACK wait).
pub fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    let crc = crc32_update(0xFFFF_FFFF, &seq.to_le_bytes());
    crc32_update(crc, payload) ^ 0xFFFF_FFFF
}

/// Wrap a payload in a checksummed frame.
pub fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&frame_crc(seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate and strip a frame. `None` means the frame is corrupt
/// (truncated, bad magic, or CRC mismatch).
pub fn unframe(buf: &[u8]) -> Option<(u64, Vec<u8>)> {
    if buf.len() < 16 || &buf[..4] != MAGIC {
        return None;
    }
    let seq = u64::from_le_bytes(buf[4..12].try_into().ok()?);
    let crc = u32::from_le_bytes(buf[12..16].try_into().ok()?);
    let payload = &buf[16..];
    (frame_crc(seq, payload) == crc).then(|| (seq, payload.to_vec()))
}

fn parse_ack(buf: &[u8]) -> Option<(u8, u64)> {
    if buf.len() != 9 {
        return None;
    }
    Some((buf[0], u64::from_le_bytes(buf[1..9].try_into().ok()?)))
}

impl Proc {
    /// Reliable stop-and-wait send. Under an armed fault plan the payload
    /// is CRC-framed and retransmitted across drops and NACKs until the
    /// receiver ACKs, gives up, or dies; unarmed it is a plain
    /// [`Proc::send`] of the raw bytes.
    pub fn reliable_send(
        &mut self,
        dest: Rank,
        tag: Tag,
        comm: Comm,
        payload: &[u8],
    ) -> Result<(), ProtocolError> {
        if !self.faults_armed() {
            self.send(dest, tag, comm, payload);
            return Ok(());
        }
        let seq = {
            let e = self.seq_out.entry((dest, tag)).or_insert(0);
            let s = *e;
            *e += 1;
            s
        };
        let framed = frame(seq, payload);
        let mut attempts = 0u32;
        'attempt: loop {
            attempts += 1;
            if !self.send_faulty(dest, tag, comm, framed.clone().into(), true) {
                // The plan dropped this attempt; the sender observes the
                // drop (it *is* the lossy link) and retransmits after a
                // seeded exponential backoff (virtual time only).
                self.fstats.retransmits += 1;
                self.metric_add(obs::Counter::Retries, 1);
                self.record(|| obs::EventKind::Retry {
                    peer: dest as u64,
                    tag: tag as u64,
                });
                self.retransmit_backoff(dest, tag, attempts);
                continue 'attempt;
            }
            loop {
                let Some(ack) = self.recv_or_dead(dest, ACK_TAG, comm) else {
                    return Err(ProtocolError::PeerDead { rank: dest });
                };
                match parse_ack(&ack.payload.into_vec()) {
                    Some((ACK_OK, s)) if s == seq => return Ok(()),
                    Some((ACK_NACK, s)) if s == seq => {
                        self.fstats.retransmits += 1;
                        self.metric_add(obs::Counter::Retries, 1);
                        self.record(|| obs::EventKind::Retry {
                            peer: dest as u64,
                            tag: tag as u64,
                        });
                        self.retransmit_backoff(dest, tag, attempts);
                        continue 'attempt;
                    }
                    Some((ACK_GIVEUP, s)) if s == seq => {
                        return Err(ProtocolError::Corrupt {
                            src: self.rank(),
                            tag,
                            attempts,
                        });
                    }
                    // A stale ack (earlier seq) — possible after a
                    // duplicated corrupt frame drew extra NACKs. Keep
                    // waiting for the ack that matches this frame.
                    _ => {}
                }
            }
        }
    }

    /// Reliable matched receive: the counterpart of
    /// [`Proc::reliable_send`]. Corrupt frames are NACKed up to `policy`'s
    /// budget, then answered with GIVEUP and surfaced as
    /// [`ProtocolError::Corrupt`]; a dead sender surfaces as
    /// [`ProtocolError::PeerDead`]. Unarmed, this is a plain matched
    /// receive of the raw bytes.
    pub fn reliable_recv(
        &mut self,
        src: Rank,
        tag: Tag,
        comm: Comm,
        policy: RetryPolicy,
    ) -> Result<Vec<u8>, ProtocolError> {
        if !self.faults_armed() {
            return Ok(self
                .recv(SrcSel::Rank(src), TagSel::Tag(tag), comm)
                .payload
                .into_vec());
        }
        let expected = *self.seq_in.get(&(src, tag)).unwrap_or(&0);
        let mut nacks = 0u32;
        loop {
            let Some(info) = self.recv_or_dead(src, tag, comm) else {
                return Err(ProtocolError::PeerDead { rank: src });
            };
            match unframe(&info.payload.into_vec()) {
                Some((seq, payload)) if seq == expected => {
                    self.seq_in.insert((src, tag), expected + 1);
                    self.send(src, ACK_TAG, comm, &ack_bytes(ACK_OK, seq));
                    return Ok(payload);
                }
                Some((seq, _)) if seq < expected => {
                    // Stale duplicate of an already-accepted frame:
                    // discard silently, no ack owed.
                }
                _ => {
                    // Corrupt (truncated, bad magic, bad CRC) or a
                    // future seq (impossible under FIFO, treated the same).
                    if policy.allows(nacks) {
                        nacks += 1;
                        self.fstats.nacks_sent += 1;
                        self.metric_add(obs::Counter::Nacks, 1);
                        self.record(|| obs::EventKind::Nack {
                            peer: src as u64,
                            tag: tag as u64,
                        });
                        self.send(src, ACK_TAG, comm, &ack_bytes(ACK_NACK, expected));
                    } else {
                        self.seq_in.insert((src, tag), expected + 1);
                        self.metric_add(obs::Counter::GiveUps, 1);
                        self.record(|| obs::EventKind::GiveUp {
                            peer: src as u64,
                            tag: tag as u64,
                        });
                        self.send(src, ACK_TAG, comm, &ack_bytes(ACK_GIVEUP, expected));
                        return Err(ProtocolError::Corrupt {
                            src,
                            tag,
                            attempts: nacks + 1,
                        });
                    }
                }
            }
        }
    }
}

fn ack_bytes(code: u8, seq: u64) -> [u8; 9] {
    let mut out = [0u8; 9];
    out[0] = code;
    out[1..9].copy_from_slice(&seq.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_known_value() {
        // CRC-32("123456789") = 0xCBF43926 is the standard check value;
        // our frame CRC prepends the seq, so verify via the raw update.
        let crc = crc32_update(0xFFFF_FFFF, b"123456789") ^ 0xFFFF_FFFF;
        assert_eq!(crc, 0xCBF4_3926);
    }

    #[test]
    fn frame_roundtrip() {
        for payload in [&b""[..], b"x", b"hello world", &[0u8; 1000]] {
            let f = frame(42, payload);
            assert_eq!(unframe(&f), Some((42, payload.to_vec())));
        }
    }

    #[test]
    fn unframe_rejects_corruption_anywhere() {
        let f = frame(7, b"some moderately long payload for flipping");
        for i in 0..f.len() {
            let mut bad = f.clone();
            bad[i] ^= 0x40;
            assert_eq!(unframe(&bad), None, "flip at byte {i} must be caught");
        }
    }

    #[test]
    fn unframe_rejects_truncation() {
        let f = frame(3, b"payload");
        for len in 0..f.len() {
            assert_eq!(unframe(&f[..len]), None, "truncation to {len} bytes");
        }
    }

    #[test]
    fn retry_policy_budgets() {
        assert!(RetryPolicy::Bounded(1).allows(0));
        assert!(!RetryPolicy::Bounded(1).allows(1));
        assert!(!RetryPolicy::Bounded(0).allows(0));
        assert!(RetryPolicy::Unlimited.allows(u32::MAX - 1));
    }

    #[test]
    fn protocol_error_messages() {
        let e = ProtocolError::Corrupt {
            src: 3,
            tag: 9,
            attempts: 2,
        };
        assert!(e.to_string().contains("rank 3"));
        assert!(ProtocolError::PeerDead { rank: 5 }
            .to_string()
            .contains("5"));
        let t = ProtocolError::Timeout {
            rank: 2,
            op: "recv src=0 tag=11".into(),
        };
        let s = t.to_string();
        assert!(s.contains("rank 2") && s.contains("no rank can run") && s.contains("tag=11"));
    }
}
