//! Durable marker checkpoints: the online-trace root's recovery state as
//! one versioned, CRC-framed binary blob.
//!
//! At every `ckpt_stride`-th processed marker the root serializes
//! everything a deputy needs to take over mid-run: the incrementally grown
//! online trace, the agreed alive set, the transition-graph phase, the
//! current lead selection, the metric accumulators, and the journal
//! high-water mark. The blob is replicated to the deputy over the passive
//! obs plane and (optionally) persisted to disk, so a root crash loses at
//! most one marker interval.
//!
//! ## Wire format (all integers little-endian)
//!
//! ```text
//! "CKPT1"            5-byte magic
//! version            u16 (currently 1)
//! marker             u64   marker invocation the checkpoint closed
//! marker_calls       u64   processed-marker count at capture
//! root               u64   rank that wrote the checkpoint
//! journal_hwm        u64   events the root's journal held at capture
//! old_call_path      u64   TransitionGraph::snapshot().0
//! flags              u8    bit0 = re_clustering, bit1 = lead_flag
//! alive_len          u64   followed by alive_len ranks, each u64
//! sel_present        u8    0 or 1
//! [sel_len u64, sel bytes]        LeadSelection::encode, if present
//! trace_len          u64   followed by the online trace as scalatrace
//!                          text (UTF-8)
//! metrics_len        u64   followed by MetricSet::encode_with_count
//!                          bytes (may be 0 when the plane is off)
//! crc                u32   CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! The decoder is total: every length field is validated against the
//! remaining input *before* any allocation, the CRC is checked before any
//! field is interpreted, and every failure is a typed [`CkptError`] —
//! never a panic. Truncating a valid checkpoint at any byte, or flipping
//! any single byte, must yield `Err` (the truncate-and-flip suite pins
//! this down).

use std::fmt;

use clusterkit::LeadSelection;
use mpisim::reliable::frame_crc;
use mpisim::Rank;
use scalatrace::{CompressedTrace, TracedProc};
use sigkit::CallPathSig;

use crate::runtime::{Chameleon, CKPT_ACK_TAG, CKPT_SHIP_TAG};

/// Leading magic of every checkpoint blob.
pub const MAGIC: &[u8; 5] = b"CKPT1";
/// Current wire version.
pub const VERSION: u16 = 1;

/// Why a checkpoint blob failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// The version field names a format this decoder does not speak.
    BadVersion(u16),
    /// The input ended before `what` could be read.
    Truncated {
        /// Field being read when the input ran out.
        what: &'static str,
        /// Byte offset of the failed read.
        offset: usize,
    },
    /// The trailing CRC does not match the body.
    BadCrc {
        /// CRC stored in the blob.
        stored: u32,
        /// CRC computed over the body.
        computed: u32,
    },
    /// A field decoded but its content is invalid.
    Malformed {
        /// Field that failed.
        what: &'static str,
        /// Decoder detail.
        detail: String,
    },
    /// Bytes remained after the final field.
    TrailingJunk {
        /// Number of unconsumed bytes.
        len: usize,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a CKPT1 checkpoint (bad magic)"),
            CkptError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CkptError::Truncated { what, offset } => {
                write!(f, "checkpoint truncated reading {what} at offset {offset}")
            }
            CkptError::BadCrc { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            CkptError::Malformed { what, detail } => {
                write!(f, "checkpoint field {what} malformed: {detail}")
            }
            CkptError::TrailingJunk { len } => {
                write!(f, "{len} trailing bytes after checkpoint payload")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// Everything the deputy needs to take over as online-trace root.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Marker invocation the checkpoint closed.
    pub marker: u64,
    /// Processed-marker count (`marker_calls`) at capture.
    pub marker_calls: u64,
    /// Rank that wrote the checkpoint (the root at capture time).
    pub root: u64,
    /// The agreed alive set at capture, ascending.
    pub alive: Vec<Rank>,
    /// `TransitionGraph::snapshot().0` — the previous interval signature.
    pub old_call_path: CallPathSig,
    /// `TransitionGraph::snapshot().1`.
    pub re_clustering: bool,
    /// `TransitionGraph::snapshot().2`.
    pub lead_flag: bool,
    /// Lead selection active at capture (`Some` exactly in a lead phase).
    pub selection: Option<LeadSelection>,
    /// The online global trace at capture.
    pub trace: CompressedTrace,
    /// Encoded metric accumulators (`MetricSet::encode_with_count`), empty
    /// when the metrics plane was off.
    pub metrics: Vec<u8>,
    /// Journal events the root had recorded at capture — how much flight
    /// history the pre-kill run had logged.
    pub journal_hwm: u64,
}

impl Checkpoint {
    /// Serialize to the versioned, CRC-framed wire format.
    pub fn encode(&self) -> Vec<u8> {
        let trace_text = scalatrace::format::to_text(&self.trace);
        let sel_wire = self.selection.as_ref().map(|s| s.encode());
        let mut out = Vec::with_capacity(128 + trace_text.len() + self.metrics.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.marker.to_le_bytes());
        out.extend_from_slice(&self.marker_calls.to_le_bytes());
        out.extend_from_slice(&self.root.to_le_bytes());
        out.extend_from_slice(&self.journal_hwm.to_le_bytes());
        out.extend_from_slice(&self.old_call_path.0.to_le_bytes());
        out.push(u8::from(self.re_clustering) | (u8::from(self.lead_flag) << 1));
        out.extend_from_slice(&(self.alive.len() as u64).to_le_bytes());
        for &r in &self.alive {
            out.extend_from_slice(&(r as u64).to_le_bytes());
        }
        match &sel_wire {
            Some(wire) => {
                out.push(1);
                out.extend_from_slice(&(wire.len() as u64).to_le_bytes());
                out.extend_from_slice(wire);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(trace_text.len() as u64).to_le_bytes());
        out.extend_from_slice(trace_text.as_bytes());
        out.extend_from_slice(&(self.metrics.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.metrics);
        let crc = frame_crc(u64::from(VERSION), &out[MAGIC.len() + 2..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode and fully validate a checkpoint blob. Total: every failure
    /// is a typed error, and no length field can trigger an allocation
    /// larger than the input itself.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CkptError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let mut cur = Cursor {
            bytes,
            pos: MAGIC.len(),
        };
        let version = cur.u16("version")?;
        if version != VERSION {
            return Err(CkptError::BadVersion(version));
        }
        // Integrity before interpretation: the final 4 bytes must CRC the
        // whole body, so any single corrupt byte is caught up front.
        if bytes.len() < cur.pos + 4 {
            return Err(CkptError::Truncated {
                what: "crc",
                offset: bytes.len(),
            });
        }
        let body_end = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
        let computed = frame_crc(u64::from(VERSION), &bytes[MAGIC.len() + 2..body_end]);
        if stored != computed {
            return Err(CkptError::BadCrc { stored, computed });
        }
        cur.bytes = &bytes[..body_end];

        let marker = cur.u64("marker")?;
        let marker_calls = cur.u64("marker_calls")?;
        let root = cur.u64("root")?;
        let journal_hwm = cur.u64("journal_hwm")?;
        let old_call_path = CallPathSig(cur.u64("old_call_path")?);
        let flags = cur.u8("flags")?;
        if flags & !0b11 != 0 {
            return Err(CkptError::Malformed {
                what: "flags",
                detail: format!("unknown bits set: {flags:#04x}"),
            });
        }
        let alive_len = cur.len_field("alive_len", 8)?;
        let mut alive = Vec::with_capacity(alive_len);
        for _ in 0..alive_len {
            alive.push(cur.u64("alive rank")? as Rank);
        }
        let selection = match cur.u8("sel_present")? {
            0 => None,
            1 => {
                let sel_len = cur.len_field("sel_len", 1)?;
                let wire = cur.take(sel_len, "selection")?;
                Some(
                    LeadSelection::decode(wire).map_err(|e| CkptError::Malformed {
                        what: "selection",
                        detail: e.to_string(),
                    })?,
                )
            }
            other => {
                return Err(CkptError::Malformed {
                    what: "sel_present",
                    detail: format!("expected 0 or 1, got {other}"),
                })
            }
        };
        let trace_len = cur.len_field("trace_len", 1)?;
        let trace_bytes = cur.take(trace_len, "trace")?;
        let text = std::str::from_utf8(trace_bytes).map_err(|e| CkptError::Malformed {
            what: "trace",
            detail: format!("not UTF-8: {e}"),
        })?;
        let trace = scalatrace::format::from_text(text).map_err(|e| CkptError::Malformed {
            what: "trace",
            detail: e.to_string(),
        })?;
        let metrics_len = cur.len_field("metrics_len", 1)?;
        let metrics = cur.take(metrics_len, "metrics")?.to_vec();
        if !metrics.is_empty() {
            obs::MetricSet::decode_with_count(&metrics).map_err(|e| CkptError::Malformed {
                what: "metrics",
                detail: e,
            })?;
        }
        if cur.pos != body_end {
            return Err(CkptError::TrailingJunk {
                len: body_end - cur.pos,
            });
        }
        Ok(Checkpoint {
            marker,
            marker_calls,
            root,
            alive,
            old_call_path,
            re_clustering: flags & 0b01 != 0,
            lead_flag: flags & 0b10 != 0,
            selection,
            trace,
            metrics,
            journal_hwm,
        })
    }
}

/// Bounds-checked reader over the checkpoint body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CkptError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(CkptError::Truncated {
                what,
                offset: self.pos,
            }),
        }
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, CkptError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(
            self.take(2, what)?.try_into().expect("2 bytes"),
        ))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a length field and reject it immediately if even `len *
    /// elem_size` bytes cannot remain in the input — the guard that keeps
    /// a corrupt length from driving a huge allocation.
    fn len_field(&mut self, what: &'static str, elem_size: usize) -> Result<usize, CkptError> {
        let raw = self.u64(what)?;
        let remaining = (self.bytes.len() - self.pos) / elem_size;
        if raw > remaining as u64 {
            return Err(CkptError::Truncated {
                what,
                offset: self.pos,
            });
        }
        Ok(raw as usize)
    }
}

impl Chameleon {
    /// Durable-checkpoint protocol, run at the close of every processed
    /// marker whose invocation count is a multiple of `ckpt_stride`: the
    /// online-trace root serializes its recovery state ([`Checkpoint`]),
    /// optionally persists it to `ckpt_dir` (wall-clock I/O, invisible to
    /// the simulation), and replicates it to the deputy — the
    /// next-smallest survivor — over the passive obs plane. Obs traffic
    /// never ticks the op counter, so a planned crash cannot strike
    /// mid-replication: the ship/ack pair is crash-atomic.
    pub(crate) fn checkpoint_if_due(&mut self, tp: &mut TracedProc) {
        let stride = self.config.ckpt_stride;
        if stride == 0 || !self.stats.marker_invocations.is_multiple_of(stride) || self.replaying()
        {
            return;
        }
        let me = tp.rank();
        let root = self.online_root();
        let deputy = self.alive.get(1).copied();
        if me == root {
            let ckpt = self.capture(tp);
            let bytes = ckpt.encode();
            if let Some(dir) = &self.config.ckpt_dir {
                let path = dir.join(format!("ckpt-{:06}.bin", ckpt.marker));
                // Persistence failure must degrade durability, not the
                // run: the deputy replica still covers a root crash.
                if let Err(e) = std::fs::write(&path, &bytes) {
                    eprintln!("chameleon: checkpoint write {} failed: {e}", path.display());
                }
            }
            if let Some(dep) = deputy {
                tp.inner().obs_ship(dep, CKPT_SHIP_TAG, bytes.clone());
                // Block for the ack so replication completes before the
                // next faultable op; a dead deputy resolves to `None`.
                let _ = tp.inner().obs_collect_or_dead(dep, CKPT_ACK_TAG);
            }
            let marker = ckpt.marker;
            let nbytes = bytes.len() as u64;
            let deputy_field = deputy.map_or(u64::MAX, |d| d as u64);
            tp.inner().record(|| obs::EventKind::Checkpoint {
                marker,
                bytes: nbytes,
                deputy: deputy_field,
            });
        } else if Some(me) == deputy {
            // Lock-step with the root: both sides derive the same stride
            // schedule from the agreed alive set, and a root that died
            // mid-slice resolves the collect to `None`.
            if let Some(bytes) = tp.inner().obs_collect_or_dead(root, CKPT_SHIP_TAG) {
                self.replica = Some(bytes);
                tp.inner().obs_ship(root, CKPT_ACK_TAG, vec![1]);
            }
        }
    }

    /// Capture this rank's recovery state (valid only on the online
    /// root).
    pub(crate) fn capture(&self, tp: &mut TracedProc) -> Checkpoint {
        let (old_call_path, re_clustering, lead_flag) = self.graph.snapshot();
        Checkpoint {
            marker: self.stats.marker_invocations,
            marker_calls: self.stats.marker_calls,
            root: tp.rank() as u64,
            alive: self.alive.clone(),
            old_call_path,
            re_clustering,
            lead_flag,
            selection: self.selection.clone(),
            trace: self.online_trace.clone(),
            metrics: tp.inner().metrics_encode().unwrap_or_default(),
            journal_hwm: tp.inner().obs_len() as u64,
        }
    }

    /// Close a resume replay's fast-forward window: at the checkpoint's
    /// marker, install its online trace on the root and journal the
    /// resume. The replayed transition graph must agree with the
    /// checkpointed one — both are deterministic functions of the same
    /// vote history.
    pub(crate) fn maybe_install_resume(&mut self, tp: &mut TracedProc) {
        let due = self
            .resume
            .as_ref()
            .is_some_and(|c| self.stats.marker_invocations == c.marker);
        if !due {
            return;
        }
        let ckpt = self.resume.take().expect("due implies present");
        debug_assert_eq!(
            self.graph.snapshot(),
            (ckpt.old_call_path, ckpt.re_clustering, ckpt.lead_flag),
            "resume replay diverged from the checkpointed transition graph"
        );
        if tp.rank() == self.online_root() {
            let marker = ckpt.marker;
            let hwm = ckpt.journal_hwm;
            self.online_trace = ckpt.trace;
            tp.inner().record(|| obs::EventKind::Resume { marker, hwm });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specimen() -> Checkpoint {
        Checkpoint {
            marker: 6,
            marker_calls: 6,
            root: 0,
            alive: vec![0, 1, 2, 3],
            old_call_path: CallPathSig(0xDEAD_BEEF),
            re_clustering: false,
            lead_flag: true,
            selection: None,
            trace: CompressedTrace::new(),
            metrics: Vec::new(),
            journal_hwm: 42,
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let c = specimen();
        let d = Checkpoint::decode(&c.encode()).expect("valid blob");
        assert_eq!(d.marker, 6);
        assert_eq!(d.marker_calls, 6);
        assert_eq!(d.root, 0);
        assert_eq!(d.alive, vec![0, 1, 2, 3]);
        assert_eq!(d.old_call_path, CallPathSig(0xDEAD_BEEF));
        assert!(!d.re_clustering);
        assert!(d.lead_flag);
        assert!(d.selection.is_none());
        assert_eq!(
            scalatrace::format::to_text(&d.trace),
            scalatrace::format::to_text(&c.trace)
        );
        assert_eq!(d.journal_hwm, 42);
    }

    #[test]
    fn every_truncation_errs_never_panics() {
        let wire = specimen().encode();
        for cut in 0..wire.len() {
            assert!(
                Checkpoint::decode(&wire[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        assert!(Checkpoint::decode(&wire).is_ok());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let wire = specimen().encode();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x5A;
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn trailing_junk_rejected() {
        let mut wire = specimen().encode();
        wire.push(0);
        // The CRC sits 4 bytes from the end, so appending a byte also
        // desynchronizes the frame: either error is acceptable, Ok is not.
        assert!(Checkpoint::decode(&wire).is_err());
    }

    #[test]
    fn hostile_length_field_cannot_overallocate() {
        // A blob claiming 2^60 alive ranks must die at the length check,
        // not inside `Vec::with_capacity`. Build body + valid CRC so only
        // the length is hostile.
        let c = specimen();
        let mut wire = c.encode();
        // alive_len sits after magic(5)+version(2)+5*u64(40)+flags(1).
        let off = 5 + 2 + 40 + 1;
        wire[off..off + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let body_end = wire.len() - 4;
        let crc = frame_crc(u64::from(VERSION), &wire[7..body_end]);
        wire[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&wire),
            Err(CkptError::Truncated {
                what: "alive_len",
                ..
            })
        ));
    }

    #[test]
    fn hostile_trace_loop_length_is_an_error() {
        // A CRC-valid blob whose trace text declares a loop of 10^8 (or
        // 2^64 - 1) nodes must decode to `Err`, not reserve the nodes.
        let wire = specimen().encode();
        let text = scalatrace::format::to_text(&CompressedTrace::new());
        let at = wire
            .windows(text.len())
            .position(|w| w == text.as_bytes())
            .expect("the trace text is in the blob");
        for len in ["100000000", "18446744073709551615"] {
            let hostile = format!("{text}L 1 {len}\n");
            let mut bad = wire[..at - 8].to_vec();
            bad.extend_from_slice(&(hostile.len() as u64).to_le_bytes());
            bad.extend_from_slice(hostile.as_bytes());
            bad.extend_from_slice(&wire[at + text.len()..wire.len() - 4]);
            let crc = frame_crc(u64::from(VERSION), &bad[7..]);
            bad.extend_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                Checkpoint::decode(&bad),
                Err(CkptError::Malformed { what: "trace", .. })
            ));
        }
    }

    #[test]
    fn version_and_magic_gate() {
        let mut wire = specimen().encode();
        wire[0] = b'X';
        assert!(matches!(
            Checkpoint::decode(&wire),
            Err(CkptError::BadMagic)
        ));
        let mut wire = specimen().encode();
        wire[5] = 9; // version LSB; checked before the CRC
        assert!(matches!(
            Checkpoint::decode(&wire),
            Err(CkptError::BadVersion(9))
        ));
    }

    #[test]
    fn error_display_is_descriptive() {
        let msgs = [
            CkptError::BadMagic.to_string(),
            CkptError::BadVersion(7).to_string(),
            CkptError::Truncated {
                what: "trace",
                offset: 12,
            }
            .to_string(),
            CkptError::BadCrc {
                stored: 1,
                computed: 2,
            }
            .to_string(),
            CkptError::TrailingJunk { len: 3 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
