//! The multi-tenant session store: many runs, bounded memory, crash-safe
//! spill.
//!
//! One long-lived daemon holds state for many concurrent runs, so the
//! store is built around four rules:
//!
//! - **Sharded**: run IDs hash onto a fixed array of mutex-guarded
//!   shards, so unrelated runs never contend on one lock. Everything
//!   user-visible (the `/runs` listing, aggregate gauges) is produced in
//!   run-ID order regardless of sharding, so responses stay
//!   byte-deterministic under any ingest interleaving.
//! - **Durable**: a journal and a checkpoint are two kinds of one
//!   committed artifact, and both go through one commit sequence under
//!   the run's shard lock: spill (write-to-temp → fsync → rename →
//!   parent-dir fsync), stamp the artifact into the per-session
//!   CRC-stamped `MANIFEST`, install it into the hot session. A crash (or
//!   `kill -9`) mid-write leaves a torn `.tmp` or an uncommitted artifact
//!   — never a half-new `journal.jsonl` the next daemon would trust.
//!   Rehydration believes only manifest-committed files whose length and
//!   CRC-32 check out; everything else is moved to
//!   `<data>/quarantine/<run>/` with a typed [`QuarantineReason`],
//!   counted in `GET /metrics`, and the daemon comes up serving every
//!   healthy session.
//! - **Bounded memory**: journals are spilled to disk on ingest
//!   (canonical bytes, so re-reads round-trip exactly); the fixed-size
//!   per-session hot state (counter sums, sketch digests) is itself
//!   evictable — idle sessions demote to a cold stub and rehydrate from
//!   their manifest-backed spill on demand, through the same per-kind
//!   decode and install the ingest path uses. Decoded journals live in a
//!   shared LRU cache with a configurable entry cap.
//! - **Strict, idempotent ingest**: uploads go through the same parsers
//!   the CLI uses; a malformed body is rejected *before* any session
//!   state is touched. A journal is deduplicated by content digest
//!   `(crc32, len)` before it is parsed — a retried duplicate is a cheap
//!   200 re-emitting the original receipt. A checkpoint is decoded first
//!   and deduplicated by its marker under the commit lock: committed
//!   blobs are immutable per marker, so any re-push of a committed
//!   marker answers with that marker and changes nothing. That is what
//!   makes the client's retry-after-ambiguous-failure loop safe.
//!
//! Degraded mode: a write failing with ENOSPC (real or injected by the
//! [`SvcFaultPlan`]) flips the store **read-only** — ingest answers 503
//! until restart, queries keep serving.
//!
//! Crash-consistency caveat: artifacts are committed under stable names,
//! so the one window where a crash costs committed data is *overwriting*
//! a committed `journal.jsonl` with different bytes (kill between rename
//! and manifest re-stamp quarantines the replacement). First pushes and
//! duplicate re-pushes (deduped, no write) are fully safe; checkpoint
//! blobs are immutable per marker.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use chameleon::Checkpoint;
use obs::metrics::{Counter, HistId, MetricSet, HIST_DIGEST_STRIDE};
use obs::wire::fnv64;
use obs::{EventKind, RunJournal};

use crate::fault::SvcFaultPlan;
use crate::telemetry::{SvcCounter, Telemetry};
use crate::util::{atomic_write, crc32, TMP_SUFFIX};

/// Number of shards run IDs hash onto.
const SHARDS: usize = 16;

/// The per-session manifest file naming the committed artifacts.
pub const MANIFEST: &str = "MANIFEST";

/// First line of every manifest — versioned so a future format bump can
/// tell an old manifest from a garbled one.
const MANIFEST_MAGIC: &str = "chamserve-manifest-v1";

/// The file a run's journal is committed under.
const JOURNAL: &str = "journal.jsonl";

/// Why a store operation failed, with the HTTP status that describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// HTTP status class of the failure (400, 404, 500, 503).
    pub status: u16,
    /// Diagnostic detail (parser line/offset messages travel verbatim).
    pub detail: String,
}

impl StoreError {
    fn bad(detail: impl Into<String>) -> Self {
        StoreError {
            status: 400,
            detail: detail.into(),
        }
    }

    fn not_found(detail: impl Into<String>) -> Self {
        StoreError {
            status: 404,
            detail: detail.into(),
        }
    }

    fn io(detail: impl Into<String>) -> Self {
        StoreError {
            status: 500,
            detail: detail.into(),
        }
    }

    fn unavailable(detail: impl Into<String>) -> Self {
        StoreError {
            status: 503,
            detail: detail.into(),
        }
    }
}

/// Validate a run ID for use as both a map key and a directory name:
/// 1–64 bytes of `[A-Za-z0-9._-]`, not starting with `.` or `-`.
pub fn validate_run_id(id: &str) -> Result<(), StoreError> {
    if id.is_empty() || id.len() > 64 {
        return Err(StoreError::bad(format!(
            "run id must be 1..=64 bytes, got {}",
            id.len()
        )));
    }
    if id.starts_with('.') || id.starts_with('-') {
        return Err(StoreError::bad(format!(
            "run id {id:?} may not start with '.' or '-'"
        )));
    }
    if let Some(c) = id
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(StoreError::bad(format!(
            "run id {id:?} contains invalid character {c:?}"
        )));
    }
    Ok(())
}

/// Why a spilled file was quarantined instead of trusted at rehydration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// A leftover `.tmp` staging file, or a manifest-committed artifact
    /// whose on-disk length disagrees with the manifest (truncated or
    /// zero-byte) — the signature of a write cut short.
    Torn,
    /// Length matches the manifest but the CRC-32 does not (bit rot or a
    /// flipped sector), or CRC-clean bytes that fail structured decoding.
    Corrupt,
    /// A well-formed filename the manifest never committed — an ingest
    /// that died between artifact rename and manifest stamp (a missing
    /// manifest commits nothing, so everything under it is orphaned).
    Orphaned,
    /// The session's `MANIFEST` itself is garbled; nothing in that
    /// directory can be trusted.
    BadManifest,
}

impl QuarantineReason {
    /// Every reason, in the order `GET /metrics` lists them.
    pub const ALL: [QuarantineReason; 4] = [
        QuarantineReason::Torn,
        QuarantineReason::Corrupt,
        QuarantineReason::Orphaned,
        QuarantineReason::BadManifest,
    ];

    /// Stable label, used in logs and the `/metrics` quarantine object.
    pub fn label(self) -> &'static str {
        match self {
            QuarantineReason::Torn => "torn",
            QuarantineReason::Corrupt => "corrupt",
            QuarantineReason::Orphaned => "orphaned",
            QuarantineReason::BadManifest => "bad_manifest",
        }
    }
}

/// One quarantined artifact: which run, which file, why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The run whose directory held the artifact.
    pub run: String,
    /// The artifact's file name.
    pub file: String,
    /// The typed reason.
    pub reason: QuarantineReason,
}

/// The committed-artifact table of one session: file name → (CRC-32,
/// length). Canonical text, rewritten whole on every commit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Manifest {
    entries: BTreeMap<String, (u32, u64)>,
}

impl Manifest {
    fn parse(text: &str) -> Result<Manifest, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(MANIFEST_MAGIC) => {}
            other => return Err(format!("bad manifest magic {other:?}")),
        }
        let mut entries = BTreeMap::new();
        for (i, line) in lines.enumerate() {
            let mut parts = line.split(' ');
            let (Some(name), Some(crc), Some(len), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("manifest line {}: expected 3 fields", i + 2));
            };
            let crc = crc
                .strip_prefix("crc32=")
                .and_then(|v| u32::from_str_radix(v, 16).ok())
                .ok_or_else(|| format!("manifest line {}: bad crc field {crc:?}", i + 2))?;
            let len = len
                .strip_prefix("len=")
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("manifest line {}: bad len field {len:?}", i + 2))?;
            if name.is_empty() || name.contains('/') {
                return Err(format!("manifest line {}: bad name {name:?}", i + 2));
            }
            entries.insert(name.to_string(), (crc, len));
        }
        Ok(Manifest { entries })
    }

    fn render(&self) -> String {
        let mut out = String::from(MANIFEST_MAGIC);
        out.push('\n');
        for (name, (crc, len)) in &self.entries {
            out.push_str(&format!("{name} crc32={crc:08x} len={len}\n"));
        }
        out
    }
}

/// Check spilled bytes against their manifest stamp `(crc32, len)`: a
/// length mismatch is a write cut short, a CRC mismatch is corruption.
fn check_stamp(bytes: &[u8], (crc, len): (u32, u64)) -> Result<(), QuarantineReason> {
    if bytes.len() as u64 != len {
        Err(QuarantineReason::Torn)
    } else if crc32(bytes) != crc {
        Err(QuarantineReason::Corrupt)
    } else {
        Ok(())
    }
}

/// Receipt for an accepted journal upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalReceipt {
    /// World size of the accepted journal.
    pub ranks: usize,
    /// Event count of the accepted journal.
    pub events: u64,
    /// Whether this upload was a content-digest duplicate of an already
    /// committed body (no disk or parse work was done).
    pub deduped: bool,
}

impl JournalReceipt {
    fn of(session: &Session, deduped: bool) -> Self {
        JournalReceipt {
            ranks: session.ranks,
            events: session.events,
            deduped,
        }
    }
}

/// Receipt for an accepted checkpoint upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptReceipt {
    /// The checkpoint's marker.
    pub marker: u64,
    /// Whether this marker was already committed (nothing was written).
    pub deduped: bool,
}

/// One decoded artifact of a run, the unit a session is folded from —
/// at ingest and at demand rehydration alike.
enum Artifact {
    /// The run's journal, committed as [`JOURNAL`].
    Journal(Arc<RunJournal>),
    /// A CKPT1 checkpoint, committed as `ckpt-<marker>.bin`, with its
    /// metric sketch and the rank count the sketch carries.
    Ckpt {
        marker: u64,
        sketch: Option<Box<(MetricSet, u64)>>,
    },
}

impl Artifact {
    /// Total decode of a checkpoint blob, metric payload included, so a
    /// bad blob leaves neither an artifact nor a manifest entry.
    fn checkpoint(bytes: &[u8]) -> Result<Artifact, String> {
        let ckpt = Checkpoint::decode(bytes).map_err(|e| e.to_string())?;
        let sketch = (!ckpt.metrics.is_empty())
            .then(|| MetricSet::decode_with_count(&ckpt.metrics).map(Box::new))
            .transpose()
            .map_err(|e| format!("checkpoint metric payload: {e}"))?;
        Ok(Artifact::Ckpt {
            marker: ckpt.marker,
            sketch,
        })
    }

    /// Decode a committed file by name; `None` for a name no kind owns.
    fn decode(name: &str, bytes: &[u8]) -> Result<Option<Artifact>, String> {
        if name == JOURNAL {
            let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
            let journal = RunJournal::from_jsonl(text).map_err(|e| e.to_string())?;
            Ok(Some(Artifact::Journal(Arc::new(journal))))
        } else if name.starts_with("ckpt-") && name.ends_with(".bin") {
            Artifact::checkpoint(bytes).map(Some)
        } else {
            Ok(None)
        }
    }

    /// The file the artifact is committed under.
    fn name(&self) -> String {
        match self {
            Artifact::Journal(_) => JOURNAL.to_string(),
            Artifact::Ckpt { marker, .. } => format!("ckpt-{marker}.bin"),
        }
    }

    /// Whether `session` already holds this artifact. A checkpoint's key
    /// is its marker (a committed blob is immutable); a journal has none
    /// here, since a different body replaces the committed one.
    fn committed_in(&self, session: &Session) -> bool {
        matches!(self, Artifact::Ckpt { marker, .. } if session.ckpt_markers.contains(marker))
    }
}

/// Fixed-size hot state for one run.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// World size from the ingested journal (0 until one arrives).
    pub ranks: usize,
    /// The journal's armed flag.
    pub armed: bool,
    /// Total events in the ingested journal.
    pub events: u64,
    /// `snapshot` events folded into the sketch.
    pub snapshots: u64,
    /// FNV-64 of the canonical journal bytes, if a journal is present.
    pub journal_digest: Option<u64>,
    /// `(crc32, len)` of the committed journal body, for content-digest
    /// dedupe of retried uploads.
    pub journal_body: Option<(u32, u64)>,
    /// Counter totals summed from the journal's snapshot deltas.
    pub journal_ctrs: [u64; Counter::COUNT],
    /// Per-histogram peak digest folded over the journal's snapshot
    /// deltas: `count` slots sum, the `p50`/`p99`/`max` slots keep the
    /// per-marker *peak* (quantiles of deltas cannot be re-aggregated
    /// exactly from digests, so the store reports the honest bound).
    pub snapshot_hist_peaks: [u64; HistId::COUNT * HIST_DIGEST_STRIDE],
    /// Merged sketch from every ingested checkpoint (associative merge).
    pub ckpt_sketch: MetricSet,
    /// Rank contributions carried by the merged checkpoint sketches.
    pub ckpt_ranks: u64,
    /// Markers of ingested checkpoints, ascending, deduplicated — the
    /// checkpoint dedupe key.
    pub ckpt_markers: Vec<u64>,
}

impl Session {
    /// Whether a journal has been ingested for this run.
    pub fn has_journal(&self) -> bool {
        self.journal_digest.is_some()
    }

    /// Fold one artifact not yet in the session into it. `bytes` are the
    /// artifact's committed bytes and `stamp` their `(crc32, len)`; a
    /// journal's digest is taken over those bytes as they stand, so it
    /// equals `fnv64` of the journal's `to_jsonl`.
    fn install(&mut self, artifact: &Artifact, bytes: &[u8], stamp: (u32, u64)) {
        let journal = match artifact {
            Artifact::Journal(journal) => journal,
            Artifact::Ckpt { marker, sketch } => {
                if let Some(sketch) = sketch {
                    let (set, ranks) = &**sketch;
                    self.ckpt_sketch.merge(set);
                    self.ckpt_ranks = self.ckpt_ranks.saturating_add(*ranks);
                }
                self.ckpt_markers.push(*marker);
                self.ckpt_markers.sort_unstable();
                return;
            }
        };
        self.ranks = journal.ranks;
        self.armed = journal.armed;
        self.events = journal.events().count() as u64;
        self.journal_digest = Some(fnv64(bytes));
        self.journal_body = Some(stamp);
        let mut ctrs = [0u64; Counter::COUNT];
        let mut hist_peaks = [0u64; HistId::COUNT * HIST_DIGEST_STRIDE];
        let mut snapshots = 0u64;
        for (_, e) in journal.events() {
            if let EventKind::Snapshot {
                ctrs: c, hists: h, ..
            } = &e.kind
            {
                snapshots += 1;
                for (slot, v) in ctrs.iter_mut().zip(c.iter()) {
                    *slot = slot.saturating_add(*v);
                }
                for (i, (slot, v)) in hist_peaks.iter_mut().zip(h.iter()).enumerate() {
                    if i % HIST_DIGEST_STRIDE == 0 {
                        *slot = slot.saturating_add(*v); // count slots sum
                    } else {
                        *slot = (*slot).max(*v); // quantile/max slots peak
                    }
                }
            }
        }
        self.snapshots = snapshots;
        self.journal_ctrs = ctrs;
        self.snapshot_hist_peaks = hist_peaks;
    }
}

/// A session slot: hot state resident, or demoted to a cold stub whose
/// state lives entirely in the manifest-backed spill.
enum Slot {
    Hot(Box<Session>),
    Cold,
}

#[derive(Default)]
struct Shard {
    runs: BTreeMap<String, Slot>,
}

/// Least-recently-used order over run IDs, for the decoded-journal cache
/// and the hot-session set alike: every access stamps a fresh tick, and
/// once more than `cap` entries are held the oldest tick is the victim
/// (`cap` 0 holds nothing).
struct Lru<V> {
    cap: usize,
    tick: u64,
    entries: BTreeMap<String, (u64, V)>,
}

impl<V> Lru<V> {
    fn new(cap: usize) -> Self {
        Lru {
            cap,
            tick: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Look `id` up, marking it most recently used.
    fn get(&mut self, id: &str) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(id)?;
        entry.0 = tick;
        Some(&entry.1)
    }

    /// Insert or refresh `id` as most recently used; returns the key it
    /// pushed out, if the cap was exceeded.
    fn insert(&mut self, id: &str, value: V) -> Option<String> {
        if self.cap == 0 {
            return None;
        }
        self.tick += 1;
        self.entries.insert(id.to_string(), (self.tick, value));
        if self.entries.len() <= self.cap {
            return None;
        }
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, (t, _))| *t)
            .map(|(k, _)| k.clone())?;
        self.entries.remove(&victim);
        Some(victim)
    }
}

/// The sharded, disk-backed, crash-safe session store.
pub struct SessionStore {
    shards: Vec<Mutex<Shard>>,
    cache: Mutex<Lru<Arc<RunJournal>>>,
    hot: Mutex<Lru<()>>,
    quarantine: Mutex<Vec<QuarantineRecord>>,
    read_only: AtomicBool,
    faults: Option<SvcFaultPlan>,
    spill_nonce: AtomicU64,
    spill_bytes: AtomicU64,
    ingest_nonce: AtomicU64,
    data_dir: PathBuf,
}

impl SessionStore {
    /// Open (or create) a store rooted at `data_dir`, rehydrating session
    /// stubs from any runs a previous daemon spilled there (hot state
    /// loads lazily on first access). `cache_cap` bounds the
    /// decoded-journal cache in entries (0 disables caching).
    pub fn open(data_dir: &Path, cache_cap: usize) -> Result<SessionStore, StoreError> {
        SessionStore::open_with(data_dir, cache_cap, usize::MAX, None)
    }

    /// [`SessionStore::open`] with the full configuration: `hot_cap`
    /// bounds how many sessions keep hot state resident, `faults` arms a
    /// service fault plan on the spill path.
    pub fn open_with(
        data_dir: &Path,
        cache_cap: usize,
        hot_cap: usize,
        faults: Option<SvcFaultPlan>,
    ) -> Result<SessionStore, StoreError> {
        let runs_dir = data_dir.join("runs");
        std::fs::create_dir_all(&runs_dir)
            .map_err(|e| StoreError::io(format!("create {}: {e}", runs_dir.display())))?;
        let store = SessionStore {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            cache: Mutex::new(Lru::new(cache_cap)),
            hot: Mutex::new(Lru::new(hot_cap.max(1))),
            quarantine: Mutex::new(Vec::new()),
            read_only: AtomicBool::new(false),
            faults,
            spill_nonce: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            ingest_nonce: AtomicU64::new(0),
            data_dir: data_dir.to_path_buf(),
        };
        store.rehydrate(&runs_dir);
        Ok(store)
    }

    // -----------------------------------------------------------------
    // Rehydration: trust the manifest, quarantine everything else
    // -----------------------------------------------------------------

    /// Scan every run directory: quarantine torn/orphaned/corrupt files
    /// and register a cold session stub for each run with at least one
    /// committed artifact. The daemon comes up serving every healthy
    /// session no matter what a dying predecessor left behind.
    fn rehydrate(&self, runs_dir: &Path) {
        let Ok(entries) = std::fs::read_dir(runs_dir) else {
            return;
        };
        let mut ids: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|id| validate_run_id(id).is_ok())
            .collect();
        ids.sort_unstable();
        for id in ids {
            let committed = self.rehydrate_session(runs_dir, &id);
            if committed > 0 {
                let mut shard = self.shard_of(&id).lock().expect("shard lock");
                shard.runs.insert(id.clone(), Slot::Cold);
            } else {
                // Nothing committed survives: drop the (now empty) dir so
                // the session does not resurrect as an empty shell.
                let _ = std::fs::remove_dir_all(runs_dir.join(&id));
            }
        }
    }

    /// Audit one run directory against its manifest. Returns how many
    /// committed artifacts survived.
    fn rehydrate_session(&self, runs_dir: &Path, id: &str) -> usize {
        let dir = runs_dir.join(id);
        let files: Vec<String> = match std::fs::read_dir(&dir) {
            Ok(entries) => {
                let mut v: Vec<String> = entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().is_file())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect();
                v.sort_unstable();
                v
            }
            Err(_) => return 0,
        };
        if files.is_empty() {
            return 0;
        }
        let manifest = match std::fs::read_to_string(dir.join(MANIFEST)) {
            Ok(text) => match Manifest::parse(&text) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("chamserve: run {id}: garbled manifest ({e}); quarantining");
                    for f in &files {
                        self.quarantine_file(id, &dir, f, QuarantineReason::BadManifest);
                    }
                    return 0;
                }
            },
            // No manifest = nothing was ever committed: leftover `.tmp`
            // files are torn, everything else is an orphan. The empty
            // manifest below classifies them exactly that way.
            Err(_) => Manifest::default(),
        };
        let mut survivors = Manifest::default();
        for name in &files {
            if name == MANIFEST {
                continue;
            }
            if name.ends_with(TMP_SUFFIX) {
                self.quarantine_file(id, &dir, name, QuarantineReason::Torn);
                continue;
            }
            let Some(&stamp) = manifest.entries.get(name) else {
                self.quarantine_file(id, &dir, name, QuarantineReason::Orphaned);
                continue;
            };
            let checked = match std::fs::read(dir.join(name)) {
                Ok(bytes) => check_stamp(&bytes, stamp),
                Err(e) => {
                    eprintln!("chamserve: run {id}: cannot read {name}: {e}");
                    Err(QuarantineReason::Torn)
                }
            };
            match checked {
                Ok(()) => {
                    survivors.entries.insert(name.clone(), stamp);
                }
                Err(reason) => self.quarantine_file(id, &dir, name, reason),
            }
        }
        // Manifest entries whose file vanished are recorded (nothing to
        // move) so the loss is visible in /metrics.
        for name in manifest.entries.keys() {
            if !files.contains(name) {
                eprintln!("chamserve: run {id}: committed {name} is missing");
                self.record_quarantine(id, name, QuarantineReason::Torn);
            }
        }
        let n = survivors.entries.len();
        if survivors != manifest {
            // Re-stamp the manifest to exactly the surviving set (or drop
            // it when nothing survived).
            if n == 0 {
                let _ = std::fs::remove_file(dir.join(MANIFEST));
            } else if let Err(e) =
                atomic_write(&dir.join(MANIFEST), survivors.render().as_bytes(), None)
            {
                eprintln!("chamserve: run {id}: cannot re-stamp manifest: {e}");
            }
        }
        n
    }

    /// Move one suspect file into `<data>/quarantine/<run>/` and record
    /// the typed reason.
    fn quarantine_file(&self, id: &str, dir: &Path, name: &str, reason: QuarantineReason) {
        let qdir = self.data_dir.join("quarantine").join(id);
        let _ = std::fs::create_dir_all(&qdir);
        let mut dest = qdir.join(name);
        let mut n = 0u32;
        while dest.exists() {
            n += 1;
            dest = qdir.join(format!("{name}.{n}"));
        }
        if let Err(e) = std::fs::rename(dir.join(name), &dest) {
            eprintln!(
                "chamserve: cannot quarantine {}: {e}",
                dir.join(name).display()
            );
        }
        eprintln!("chamserve: quarantined {id}/{name} ({})", reason.label());
        self.record_quarantine(id, name, reason);
    }

    fn record_quarantine(&self, id: &str, name: &str, reason: QuarantineReason) {
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .push(QuarantineRecord {
                run: id.to_string(),
                file: name.to_string(),
                reason,
            });
    }

    /// Every quarantine record, in occurrence order.
    pub fn quarantined(&self) -> Vec<QuarantineRecord> {
        self.quarantine.lock().expect("quarantine lock").clone()
    }

    /// Whether the store has degraded to read-only (disk full).
    pub fn read_only(&self) -> bool {
        self.read_only.load(Ordering::SeqCst)
    }

    /// The directory this store spills into.
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    // -----------------------------------------------------------------
    // Durable spill plumbing
    // -----------------------------------------------------------------

    fn shard_of(&self, id: &str) -> &Mutex<Shard> {
        &self.shards[(fnv64(id.as_bytes()) as usize) % SHARDS]
    }

    fn run_dir(&self, id: &str) -> PathBuf {
        self.data_dir.join("runs").join(id)
    }

    /// One durable artifact write, with the fault plan's torn-write and
    /// ENOSPC injections applied. A write that fails with ENOSPC (real or
    /// injected) flips the store read-only.
    fn spill(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let nonce = self.spill_nonce.fetch_add(1, Ordering::SeqCst);
        if let Some(plan) = &self.faults {
            if let Some(cap) = plan.enospc_after_bytes {
                let written = self.spill_bytes.load(Ordering::SeqCst);
                if written.saturating_add(bytes.len() as u64) > cap {
                    self.read_only.store(true, Ordering::SeqCst);
                    return Err(StoreError::unavailable(
                        "store is read-only: injected ENOSPC (no space left on device)",
                    ));
                }
            }
            if let Some(tear_at) = plan.torn_write(nonce, bytes.len()) {
                let hook = move |f: &mut std::fs::File, b: &[u8]| -> std::io::Result<()> {
                    use std::io::Write;
                    f.write_all(&b[..tear_at])?;
                    Err(std::io::Error::other(format!(
                        "injected torn write at byte {tear_at}"
                    )))
                };
                return match atomic_write(path, bytes, Some(&hook)) {
                    Ok(()) => unreachable!("torn hook always errors"),
                    Err(e) => Err(StoreError::io(format!("spill {}: {e}", path.display()))),
                };
            }
        }
        match atomic_write(path, bytes, None) {
            Ok(()) => {
                self.spill_bytes
                    .fetch_add(bytes.len() as u64, Ordering::SeqCst);
                Ok(())
            }
            Err(e) => {
                if e.raw_os_error() == Some(28) {
                    // ENOSPC: degrade to read-only instead of erroring
                    // every future ingest with a 500.
                    self.read_only.store(true, Ordering::SeqCst);
                    return Err(StoreError::unavailable(format!("store is read-only: {e}")));
                }
                Err(StoreError::io(format!("spill {}: {e}", path.display())))
            }
        }
    }

    /// Stamp `name` into the session's manifest (read-modify-write, both
    /// writes atomic). Call with the session's shard lock held.
    fn commit_artifact(&self, dir: &Path, name: &str, stamp: (u32, u64)) -> Result<(), StoreError> {
        let path = dir.join(MANIFEST);
        let mut manifest = match std::fs::read_to_string(&path) {
            Ok(text) => Manifest::parse(&text)
                .map_err(|e| StoreError::io(format!("manifest unreadable: {e}")))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Manifest::default(),
            Err(e) => return Err(StoreError::io(format!("read manifest: {e}"))),
        };
        manifest.entries.insert(name.to_string(), stamp);
        self.spill(&path, manifest.render().as_bytes())
    }

    /// The fault plan's kill-`-9` window: park between artifact write and
    /// manifest commit when this ingest's nonce matches the stall point.
    fn maybe_stall(&self, nonce: u64) {
        if let Some(plan) = &self.faults {
            if plan.stall_ingest == Some(nonce) {
                eprintln!(
                    "chamserve: fault plan stalling ingest {nonce} for {} ms",
                    plan.stall_ms
                );
                std::thread::sleep(std::time::Duration::from_millis(plan.stall_ms));
            }
        }
    }

    // -----------------------------------------------------------------
    // Hot-state residency: demand rehydration + LRU eviction
    // -----------------------------------------------------------------

    /// Rebuild one session's hot state purely from its manifest-backed
    /// spill, through the same decode and install as ingest. Strict: any
    /// mismatch is a 500 (rehydration at open() is the layer that
    /// quarantines; a file rotting *while* the daemon runs is an I/O
    /// error, not a policy decision).
    fn load_session_from_disk(&self, id: &str) -> Result<Session, StoreError> {
        let dir = self.run_dir(id);
        let text = std::fs::read_to_string(dir.join(MANIFEST))
            .map_err(|e| StoreError::io(format!("read manifest: {e}")))?;
        let manifest =
            Manifest::parse(&text).map_err(|e| StoreError::io(format!("manifest: {e}")))?;
        let mut session = Session::default();
        for (name, &stamp) in &manifest.entries {
            let bytes = std::fs::read(dir.join(name))
                .map_err(|e| StoreError::io(format!("read {name}: {e}")))?;
            if check_stamp(&bytes, stamp).is_err() {
                return Err(StoreError::io(format!(
                    "spilled {name} no longer matches its manifest stamp"
                )));
            }
            let artifact = Artifact::decode(name, &bytes)
                .map_err(|e| StoreError::io(format!("spilled {name} corrupt: {e}")))?;
            if let Some(a) = artifact.filter(|a| !a.committed_in(&session)) {
                session.install(&a, &bytes, stamp);
            }
        }
        Ok(session)
    }

    /// Get-or-rehydrate the hot session in a locked shard. Counts the
    /// demand rehydration when the slot was cold.
    fn hot_entry<'a>(
        &self,
        shard: &'a mut Shard,
        id: &str,
        telemetry: Option<&Telemetry>,
    ) -> Result<Option<&'a mut Session>, StoreError> {
        match shard.runs.get(id) {
            None => return Ok(None),
            Some(Slot::Hot(_)) => {}
            Some(Slot::Cold) => {
                let session = self.load_session_from_disk(id)?;
                shard
                    .runs
                    .insert(id.to_string(), Slot::Hot(Box::new(session)));
                if let Some(t) = telemetry {
                    t.add(SvcCounter::SessionRehydrations, 1);
                }
            }
        }
        match shard.runs.get_mut(id) {
            Some(Slot::Hot(s)) => Ok(Some(s)),
            _ => unreachable!("slot just made hot"),
        }
    }

    /// Mark `id` most-recently-used and demote the least-recently-used
    /// hot session beyond the cap to a cold stub (its state is already on
    /// disk behind the manifest).
    fn touch_hot(&self, id: &str, telemetry: Option<&Telemetry>) {
        let Some(victim) = self.hot.lock().expect("hot lock").insert(id, ()) else {
            return;
        };
        let mut shard = self.shard_of(&victim).lock().expect("shard lock");
        if let Some(slot) = shard.runs.get_mut(&victim) {
            if matches!(slot, Slot::Hot(_)) {
                *slot = Slot::Cold;
                if let Some(t) = telemetry {
                    t.add(SvcCounter::SessionEvictions, 1);
                }
            }
        }
    }

    /// Number of sessions whose hot state is currently resident.
    pub fn hot_sessions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("shard lock")
                    .runs
                    .values()
                    .filter(|slot| matches!(slot, Slot::Hot(_)))
                    .count()
            })
            .sum()
    }

    // -----------------------------------------------------------------
    // Ingest: two kinds of artifact, one commit path
    // -----------------------------------------------------------------

    /// The gate every upload passes first: a valid run ID and a store
    /// that still accepts writes.
    fn admit(&self, id: &str) -> Result<(), StoreError> {
        validate_run_id(id)?;
        if self.read_only() {
            return Err(StoreError::unavailable(
                "store is read-only (disk full); retry later",
            ));
        }
        Ok(())
    }

    /// The one durable commit sequence, for every kind of artifact. Under
    /// the run's shard lock: unless the session already holds `artifact`,
    /// spill its `bytes`, pass the fault plan's kill window, stamp the
    /// manifest and install it into the hot session; then touch the LRU.
    /// `receipt` reads the session as it stands, told whether the upload
    /// was deduped. A run with no slot has nothing committed besides this
    /// artifact (`open` registers every run that has, and so does every
    /// commit that succeeds), so it starts from the empty session instead
    /// of reading its own spill back; a slot found cold rehydrates like
    /// any demand access and is counted as one.
    fn commit<R>(
        &self,
        id: &str,
        artifact: &Artifact,
        bytes: &[u8],
        stamp: (u32, u64),
        telemetry: Option<&Telemetry>,
        receipt: impl FnOnce(&Session, bool) -> R,
    ) -> Result<R, StoreError> {
        let out = {
            let mut shard = self.shard_of(id).lock().expect("shard lock");
            let deduped = self
                .hot_entry(&mut shard, id, telemetry)?
                .is_some_and(|s| artifact.committed_in(s));
            if !deduped {
                let dir = self.run_dir(id);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| StoreError::io(format!("create {}: {e}", dir.display())))?;
                let name = artifact.name();
                let nonce = self.ingest_nonce.fetch_add(1, Ordering::SeqCst);
                self.spill(&dir.join(&name), bytes)?;
                self.maybe_stall(nonce);
                self.commit_artifact(&dir, &name, stamp)?;
                shard
                    .runs
                    .entry(id.to_string())
                    .or_insert_with(|| Slot::Hot(Box::default()));
            }
            let session = self
                .hot_entry(&mut shard, id, telemetry)?
                .expect("slot committed");
            if !deduped {
                session.install(artifact, bytes, stamp);
            }
            receipt(session, deduped)
        };
        self.touch_hot(id, telemetry);
        Ok(out)
    }

    /// Ingest one journal upload: strict parse, then the commit path; the
    /// committed journal also refreshes the cache. A malformed body leaves
    /// every layer untouched; a content-digest duplicate of the committed
    /// body is answered from hot state before it is parsed.
    pub fn ingest_journal(
        &self,
        id: &str,
        text: &str,
        telemetry: Option<&Telemetry>,
    ) -> Result<JournalReceipt, StoreError> {
        self.admit(id)?;
        let body = (crc32(text.as_bytes()), text.len() as u64);

        // Dedupe before parsing: a retried duplicate is a cheap 200.
        {
            let mut shard = self.shard_of(id).lock().expect("shard lock");
            if let Some(session) = self.hot_entry(&mut shard, id, telemetry)? {
                if session.journal_body == Some(body) {
                    let receipt = JournalReceipt::of(session, true);
                    drop(shard);
                    self.touch_hot(id, telemetry);
                    return Ok(receipt);
                }
            }
        }

        let journal = RunJournal::from_jsonl(text).map_err(|e| StoreError::bad(format!("{e}")))?;
        let canonical = journal.to_jsonl();
        // A canonical upload (what every recorder emits) is spilled as it
        // arrived, so its content digest is the one already taken.
        let stamp = if canonical == text {
            body
        } else {
            (crc32(canonical.as_bytes()), canonical.len() as u64)
        };
        let journal = Arc::new(journal);
        let artifact = Artifact::Journal(journal.clone());
        let receipt = self.commit(
            id,
            &artifact,
            canonical.as_bytes(),
            stamp,
            telemetry,
            JournalReceipt::of,
        )?;
        self.cache_insert(id, journal, None);
        Ok(receipt)
    }

    /// Ingest one checkpoint upload: total CKPT1 decode, then the commit
    /// path, which merges its metric sketch. A marker already committed
    /// is deduped whatever the bytes — re-pushing is idempotent.
    pub fn ingest_checkpoint(
        &self,
        id: &str,
        bytes: &[u8],
        telemetry: Option<&Telemetry>,
    ) -> Result<CkptReceipt, StoreError> {
        self.admit(id)?;
        let artifact = Artifact::checkpoint(bytes).map_err(StoreError::bad)?;
        let Artifact::Ckpt { marker, .. } = artifact else {
            unreachable!("a checkpoint decodes to Artifact::Ckpt")
        };
        let stamp = (crc32(bytes), bytes.len() as u64);
        self.commit(id, &artifact, bytes, stamp, telemetry, |_, deduped| {
            CkptReceipt { marker, deduped }
        })
    }

    // -----------------------------------------------------------------
    // Queries
    // -----------------------------------------------------------------

    /// Snapshot of one session's hot state (rehydrating it on demand).
    pub fn session(&self, id: &str) -> Option<Session> {
        self.session_counted(id, None)
    }

    /// [`SessionStore::session`] with telemetry for demand rehydrations.
    pub fn session_counted(&self, id: &str, telemetry: Option<&Telemetry>) -> Option<Session> {
        let out = {
            let mut shard = self.shard_of(id).lock().expect("shard lock");
            match self.hot_entry(&mut shard, id, telemetry) {
                Ok(Some(s)) => Some(s.clone()),
                Ok(None) => None,
                Err(e) => {
                    eprintln!("chamserve: session {id}: {}", e.detail);
                    None
                }
            }
        };
        if out.is_some() {
            self.touch_hot(id, telemetry);
        }
        out
    }

    /// All sessions in run-ID order (ID, hot state) — sharding never
    /// leaks into the observable order. Cold sessions are loaded
    /// transiently without promoting them (a listing should not thrash
    /// the residency set).
    pub fn sessions(&self) -> Vec<(String, Session)> {
        let mut hot: Vec<(String, Session)> = Vec::new();
        let mut cold: Vec<String> = Vec::new();
        for shard in &self.shards {
            let g = shard.lock().expect("shard lock");
            for (k, v) in &g.runs {
                match v {
                    Slot::Hot(s) => hot.push((k.clone(), (**s).clone())),
                    Slot::Cold => cold.push(k.clone()),
                }
            }
        }
        for id in cold {
            match self.load_session_from_disk(&id) {
                Ok(s) => hot.push((id, s)),
                Err(e) => eprintln!("chamserve: listing {id}: {}", e.detail),
            }
        }
        hot.sort_by(|a, b| a.0.cmp(&b.0));
        hot
    }

    /// Number of live sessions (hot or cold).
    pub fn sessions_live(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").runs.len())
            .sum()
    }

    /// Number of decoded journals currently cached.
    pub fn cached_journals(&self) -> usize {
        self.cache.lock().expect("cache lock").entries.len()
    }

    /// The decoded journal for a run: cache hit, or re-read of the
    /// spilled canonical bytes on miss. Telemetry (when provided) counts
    /// the hit/miss/eviction.
    pub fn journal(
        &self,
        id: &str,
        telemetry: Option<&Telemetry>,
    ) -> Result<Arc<RunJournal>, StoreError> {
        validate_run_id(id)?;
        let known = self
            .session_counted(id, telemetry)
            .ok_or_else(|| StoreError::not_found(format!("unknown run {id:?}")))?;
        if !known.has_journal() {
            return Err(StoreError::not_found(format!(
                "run {id:?} has checkpoints but no journal"
            )));
        }
        let hit = self.cache.lock().expect("cache lock").get(id).cloned();
        if let Some(journal) = hit {
            if let Some(t) = telemetry {
                t.add(SvcCounter::CacheHits, 1);
            }
            return Ok(journal);
        }
        if let Some(t) = telemetry {
            t.add(SvcCounter::CacheMisses, 1);
        }
        let text = std::fs::read_to_string(self.run_dir(id).join(JOURNAL))
            .map_err(|e| StoreError::io(format!("read spilled journal: {e}")))?;
        let journal = RunJournal::from_jsonl(&text)
            .map_err(|e| StoreError::io(format!("spilled journal corrupt: {e}")))?;
        let journal = Arc::new(journal);
        self.cache_insert(id, journal.clone(), telemetry);
        Ok(journal)
    }

    fn cache_insert(&self, id: &str, journal: Arc<RunJournal>, telemetry: Option<&Telemetry>) {
        let evicted = self.cache.lock().expect("cache lock").insert(id, journal);
        if let (Some(_), Some(t)) = (evicted, telemetry) {
            t.add(SvcCounter::CacheEvictions, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{Event, RankLog};

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chamserve_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mini_journal(marker: u64) -> RunJournal {
        let mut log = RankLog::new(0);
        log.events.push(Event {
            seq: 0,
            vt: 0.0,
            tt: 0.0,
            kind: EventKind::Marker { n: marker },
        });
        let mut m = MetricSet::new();
        m.add(Counter::Merges, marker);
        log.events.push(Event {
            seq: 1,
            vt: 1e-6,
            tt: 1e-7,
            kind: EventKind::Snapshot {
                marker,
                ranks: 2,
                ctrs: m.counter_values(),
                hists: m.hist_digest(),
            },
        });
        RunJournal::gather(2, false, vec![log])
    }

    #[test]
    fn run_id_validation_rejects_path_tricks() {
        for ok in ["bt4", "run_01", "a.b-c", "X"] {
            assert!(validate_run_id(ok).is_ok(), "{ok}");
        }
        for bad in ["", "..", ".hidden", "-flag", "a/b", "a\\b", "a b", "ü"] {
            assert!(validate_run_id(bad).is_err(), "{bad:?}");
        }
        assert!(validate_run_id(&"x".repeat(65)).is_err());
    }

    #[test]
    fn manifest_round_trips_and_rejects_garbage() {
        let mut m = Manifest::default();
        m.entries
            .insert("journal.jsonl".to_string(), (0xCBF4_3926, 17));
        m.entries
            .insert("ckpt-3.bin".to_string(), (0xDEAD_BEEF, 99));
        let text = m.render();
        assert!(text.starts_with(MANIFEST_MAGIC));
        assert_eq!(Manifest::parse(&text).unwrap(), m);
        assert!(Manifest::parse("").is_err(), "empty");
        assert!(Manifest::parse("not-the-magic\n").is_err(), "bad magic");
        assert!(
            Manifest::parse("chamserve-manifest-v1\njournal.jsonl nope len=3\n").is_err(),
            "bad crc field"
        );
        assert!(
            Manifest::parse("chamserve-manifest-v1\na/b crc32=00000000 len=1\n").is_err(),
            "path in name"
        );
    }

    #[test]
    fn malformed_journal_leaves_no_session() {
        let dir = tmp("badj");
        let store = SessionStore::open(&dir, 4).unwrap();
        let err = store
            .ingest_journal("r1", "not a journal", None)
            .unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.detail.contains("journal line"), "{}", err.detail);
        assert_eq!(store.sessions_live(), 0);
        assert!(!dir.join("runs/r1/journal.jsonl").exists());
    }

    #[test]
    fn ingest_spills_durably_and_sketches() {
        let dir = tmp("spill");
        let store = SessionStore::open(&dir, 4).unwrap();
        let j = mini_journal(3);
        let r = store.ingest_journal("r1", &j.to_jsonl(), None).unwrap();
        assert!(!r.deduped);
        assert_eq!(r.ranks, 2);
        let s = store.session("r1").unwrap();
        assert_eq!(s.ranks, 2);
        assert_eq!(s.snapshots, 1);
        assert_eq!(s.journal_ctrs[Counter::Merges as usize], 3);
        assert!(s.has_journal());
        assert!(dir.join("runs/r1/journal.jsonl").is_file());
        // The manifest commits the artifact with its true digest.
        let manifest =
            Manifest::parse(&std::fs::read_to_string(dir.join("runs/r1/MANIFEST")).unwrap())
                .unwrap();
        let spilled = std::fs::read(dir.join("runs/r1/journal.jsonl")).unwrap();
        assert_eq!(
            manifest.entries.get("journal.jsonl"),
            Some(&(crc32(&spilled), spilled.len() as u64))
        );
        // No staging leftovers.
        assert!(!dir.join("runs/r1/journal.jsonl.tmp").exists());
        // Served journal equals what was pushed.
        let back = store.journal("r1", None).unwrap();
        assert_eq!(*back, j);
    }

    #[test]
    fn duplicate_uploads_dedupe_by_content_digest() {
        let dir = tmp("dedupe");
        let store = SessionStore::open(&dir, 4).unwrap();
        let jsonl = mini_journal(5).to_jsonl();
        let first = store.ingest_journal("r1", &jsonl, None).unwrap();
        assert!(!first.deduped);
        let again = store.ingest_journal("r1", &jsonl, None).unwrap();
        assert!(again.deduped, "identical body → cheap dedupe");
        assert_eq!((again.ranks, again.events), (first.ranks, first.events));
        // A *different* body for the same run is a real re-ingest.
        let other = store
            .ingest_journal("r1", &mini_journal(6).to_jsonl(), None)
            .unwrap();
        assert!(!other.deduped);
    }

    #[test]
    fn lru_cache_evicts_oldest_and_counts() {
        let dir = tmp("lru");
        let store = SessionStore::open(&dir, 2).unwrap();
        let t = Telemetry::new();
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            store
                .ingest_journal(id, &mini_journal(i as u64 + 1).to_jsonl(), None)
                .unwrap();
        }
        // Cap 2: ingesting a,b,c evicted a.
        assert_eq!(store.cached_journals(), 2);
        store.journal("a", Some(&t)).unwrap(); // miss, re-decode, evicts b
        store.journal("a", Some(&t)).unwrap(); // hit
        assert_eq!(t.get(SvcCounter::CacheMisses), 1);
        assert_eq!(t.get(SvcCounter::CacheHits), 1);
        assert!(t.get(SvcCounter::CacheEvictions) >= 1);
    }

    #[test]
    fn hot_sessions_evict_and_rehydrate_on_demand() {
        let dir = tmp("hotlru");
        let store = SessionStore::open_with(&dir, 8, 2, None).unwrap();
        let t = Telemetry::new();
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            store
                .ingest_journal(id, &mini_journal(i as u64 + 1).to_jsonl(), Some(&t))
                .unwrap();
        }
        assert_eq!(store.sessions_live(), 3, "all sessions stay live");
        assert!(store.hot_sessions() <= 2, "residency bounded by the cap");
        assert!(t.get(SvcCounter::SessionEvictions) >= 1);
        // Touching the evicted session rebuilds identical hot state from
        // the manifest-backed spill.
        let a = store.session_counted("a", Some(&t)).expect("a rehydrates");
        assert_eq!(a.journal_ctrs[Counter::Merges as usize], 1);
        assert!(t.get(SvcCounter::SessionRehydrations) >= 1);
        assert!(store.hot_sessions() <= 2, "cap holds after rehydration");
    }

    #[test]
    fn rehydration_rebuilds_sessions() {
        let dir = tmp("rehydrate");
        {
            let store = SessionStore::open(&dir, 4).unwrap();
            store
                .ingest_journal("r1", &mini_journal(2).to_jsonl(), None)
                .unwrap();
        }
        let store = SessionStore::open(&dir, 4).unwrap();
        let s = store.session("r1").expect("rehydrated");
        assert_eq!(s.journal_ctrs[Counter::Merges as usize], 2);
        assert_eq!(store.sessions_live(), 1);
        assert!(store.quarantined().is_empty(), "clean spill, no quarantine");
    }

    #[test]
    fn torn_and_orphaned_files_quarantine_on_open() {
        let dir = tmp("quarantine");
        {
            let store = SessionStore::open(&dir, 4).unwrap();
            store
                .ingest_journal("good", &mini_journal(2).to_jsonl(), None)
                .unwrap();
            store
                .ingest_journal("victim", &mini_journal(3).to_jsonl(), None)
                .unwrap();
        }
        // Simulate a crash mid-write: a torn .tmp in one dir, an
        // uncommitted orphan artifact in another, and truncate the
        // committed journal of `victim`.
        std::fs::write(dir.join("runs/good/ckpt-9.bin.tmp"), b"half a blo").unwrap();
        std::fs::write(dir.join("runs/good/ckpt-4.bin"), b"never committed").unwrap();
        let victim = dir.join("runs/victim/journal.jsonl");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

        let store = SessionStore::open(&dir, 4).unwrap();
        // good still serves its committed journal; victim lost its only
        // artifact and is gone.
        assert!(store.session("good").unwrap().has_journal());
        assert!(store.session("victim").is_none());
        let records = store.quarantined();
        let count = |r| records.iter().filter(|q| q.reason == r).count();
        assert_eq!(
            count(QuarantineReason::Torn),
            2,
            "tmp + truncated: {records:?}"
        );
        assert_eq!(count(QuarantineReason::Orphaned), 1);
        assert_eq!(records.len(), 3);
        // Quarantined files moved, not deleted.
        assert!(dir.join("quarantine/good/ckpt-9.bin.tmp").exists());
        assert!(dir.join("quarantine/good/ckpt-4.bin").exists());
        assert!(dir.join("quarantine/victim/journal.jsonl").exists());
        assert!(!dir.join("runs/good/ckpt-4.bin").exists());
    }

    #[test]
    fn injected_enospc_flips_read_only_but_keeps_serving() {
        let dir = tmp("enospc");
        let plan = SvcFaultPlan {
            enospc_after_bytes: Some(1),
            ..SvcFaultPlan::new(1)
        };
        let store = SessionStore::open_with(&dir, 4, usize::MAX, Some(plan)).unwrap();
        let err = store
            .ingest_journal("r1", &mini_journal(1).to_jsonl(), None)
            .unwrap_err();
        assert_eq!(err.status, 503, "{}", err.detail);
        assert!(store.read_only());
        // Ingest stays 503 from the gate; queries still answer.
        let err = store
            .ingest_checkpoint("r1", b"irrelevant", None)
            .unwrap_err();
        assert_eq!(err.status, 503);
        assert!(store.sessions().is_empty());
    }
}
