//! `serve_ingest` and `serve_query`: an in-process `chamserve` daemon on
//! loopback, driven by two closed-loop client threads — the write path
//! (CRC check, strict journal parse, sketch merge, atomic spill and
//! manifest fsync) beside the read path (query renderers, LRU cache,
//! spill reload), so that a change which helps one at the other's cost
//! shows.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use chamserve::{ServeConfig, Server};
use obs::{query, RunJournal};
use workloads::driver::{run, Mode, Overrides};
use workloads::{registry, Class};

use crate::gen::{query_schedule, Query, Rng, QUERY_MIX, TIMELINE_RANKS};
use crate::harness::{OpOut, Workload};
use crate::json::Json;
use crate::spans::SpanLog;
use crate::sys::{self, Pinning};
use crate::trace_wl::{sim_overrides, SCALE};

/// Client threads of both workloads (never more than `nproc`).
pub const CLIENTS: usize = 2;
/// Applications whose Chameleon-mode journals are the request bodies
/// (260–590 KB each at 64 ranks).
pub const JOURNAL_APPS: [&str; 6] = ["BT", "LU", "POP", "S3D", "EMF", "CG"];
const JOURNAL_RANKS: usize = 64;
/// Sessions `serve_query` pre-loads, the hot set among them, and the
/// share of requests that go to the hot set.
pub const SESSIONS: usize = 48;
pub const HOT_SESSIONS: usize = 12;
pub const HOT_PCT: usize = 80;
/// Decoded journals the daemon caches: more than the hot set, fewer than
/// all sessions, so the mix sees both hits and miss → reload + decode.
pub const CACHE_ENTRIES: usize = 16;
/// Free space below which a serve workload refuses to start.
const MIN_FREE_BYTES: u64 = 2 << 30;
const TIMEOUT: Duration = Duration::from_secs(30);

/// The six journals, as the bytes clients push and as decoded values the
/// expected query answers are rendered from.
pub struct Journals {
    pub texts: Vec<String>,
    pub decoded: Vec<RunJournal>,
    /// Rank and event count of each, as a push receipt reports them.
    shapes: Vec<(u64, u64)>,
}

impl Journals {
    /// Run the six applications under Chameleon with the flight recorder
    /// armed (on the one CPU the caller is pinned to).
    pub fn generate() -> Journals {
        let decoded: Vec<RunJournal> = JOURNAL_APPS
            .iter()
            .map(|name| {
                let overrides = Overrides {
                    journal: true,
                    ..sim_overrides()
                };
                let app = registry::workload(name, SCALE);
                run(app, Class::D, JOURNAL_RANKS, Mode::Chameleon, overrides)
                    .journal
                    .expect("the recorder was armed")
            })
            .collect();
        Journals {
            texts: decoded.iter().map(RunJournal::to_jsonl).collect(),
            shapes: decoded
                .iter()
                .map(|j| (j.ranks as u64, j.events().count() as u64))
                .collect(),
            decoded,
        }
    }
}

/// A running daemon and the data directory it spills into. Dropping it
/// stops the daemon and removes the directory.
pub struct Daemon {
    server: Option<Server>,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Start a daemon over a fresh directory `out/tmp/<label>-<pid>`.
    pub fn start(out_dir: &Path, label: &str, pin: &Pinning) -> Result<Daemon, String> {
        let tmp = out_dir.join("tmp");
        std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        match sys::free_bytes(&tmp) {
            Some(free) if free < MIN_FREE_BYTES => {
                return Err(format!(
                    "{} has {} MB free; the serve workloads need 2048",
                    tmp.display(),
                    free >> 20
                ))
            }
            _ => {}
        }
        let dir = tmp.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Daemon::open(dir, pin)
    }

    /// Start a daemon over `dir` as it is (rehydrating what is there).
    /// Its threads go to the daemon's CPU; the caller returns to its own.
    pub fn open(dir: PathBuf, pin: &Pinning) -> Result<Daemon, String> {
        pin.daemon();
        let started = Server::start(
            "127.0.0.1:0",
            ServeConfig {
                data_dir: dir.clone(),
                cache_entries: CACHE_ENTRIES,
                threads: 2,
                ..ServeConfig::default()
            },
        );
        pin.one();
        let server = started?;
        Ok(Daemon {
            addr: server.addr().to_string(),
            server: Some(server),
            dir,
        })
    }

    /// `GET path`; the body when the status is 200.
    pub fn get(&self, path: &str) -> Result<Vec<u8>, String> {
        match chamserve::http::request(&self.addr, "GET", path, b"", TIMEOUT)? {
            (200, body) => Ok(body),
            (status, _) => Err(format!("GET {path}: status {status}")),
        }
    }

    /// The daemon's own telemetry, parsed.
    pub fn metrics(&self) -> Result<Json, String> {
        let body = self.get("/metrics")?;
        Json::parse(&String::from_utf8_lossy(&body))
    }

    /// One counter of the daemon's telemetry.
    pub fn counter(&self, name: &str) -> Result<u64, String> {
        self.metrics()?
            .at(&["counters", name])
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/metrics has no counter {name:?}"))
    }

    /// Push journal `kind` as run `id`; true when the receipt
    /// acknowledges a journal of its shape.
    pub fn push(&self, id: &str, journals: &Journals, kind: usize) -> bool {
        let (ranks, events) = journals.shapes[kind];
        let pushed = chamserve::push_journal(&self.addr, id, journals.texts[kind].as_bytes());
        pushed.is_ok_and(|receipt| {
            Json::parse(&receipt).is_ok_and(|r| {
                r.get("ok") == Some(&Json::Bool(true))
                    && r.get("ranks").and_then(Json::as_u64) == Some(ranks)
                    && r.get("events").and_then(Json::as_u64) == Some(events)
            })
        })
    }

    /// Stop the daemon but leave its directory (for a rehydration probe).
    pub fn stop_keep_dir(mut self) -> PathBuf {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        std::mem::take(&mut self.dir)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if !self.dir.as_os_str().is_empty() {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Run IDs a client can use before the precomputed list wraps.
const RUN_IDS: usize = 1 << 14;

/// Pushes set-up makes before the timed loop.
const WARMUP_PUSHES: u64 = 1;

pub struct IngestWorkload {
    journals: Journals,
    daemon: Option<Daemon>,
    /// Seeded rotation over the six journals, per client.
    order: Vec<Vec<usize>>,
    /// Fresh run IDs, per client, in the order they are used, and how
    /// many of them each client has used. The count outlives one timed
    /// loop: the traced run has two, and a re-used ID would take the
    /// daemon's duplicate-body shortcut instead of the write path.
    run_ids: Vec<Vec<String>>,
    used_ids: Vec<AtomicUsize>,
}

impl IngestWorkload {
    pub fn setup(
        seed: u64,
        journals: Journals,
        out_dir: &Path,
        pin: &Pinning,
    ) -> Result<Self, String> {
        let daemon = Daemon::start(out_dir, "serve_ingest", pin)?;
        let mut rng = Rng::new(seed);
        let order = (0..CLIENTS)
            .map(|_| rng.permutation(journals.texts.len()))
            .collect();
        let run_ids = (0..CLIENTS)
            .map(|c| {
                (0..RUN_IDS)
                    .map(|i| format!("ing{seed}-c{c}-{i:05}"))
                    .collect()
            })
            .collect();
        if !daemon.push("warmup", &journals, 0) {
            return Err("warm-up push was not acknowledged".into());
        }
        Ok(IngestWorkload {
            journals,
            daemon: Some(daemon),
            order,
            run_ids,
            used_ids: (0..CLIENTS).map(|_| AtomicUsize::new(0)).collect(),
        })
    }

    fn daemon(&self) -> &Daemon {
        self.daemon.as_ref().expect("daemon runs until finish")
    }
}

impl Workload for IngestWorkload {
    fn clients(&self) -> usize {
        CLIENTS
    }

    fn round(&self) -> usize {
        self.journals.texts.len()
    }

    fn op(&self, client: usize, i: usize, log: &mut SpanLog) -> OpOut {
        let kind = self.order[client][i % self.order[client].len()];
        let bytes = self.journals.texts[kind].len() as u64;
        // Relaxed: the counter orders nothing; only its own client adds.
        let used = self.used_ids[client].fetch_add(1, Ordering::Relaxed);
        let id = &self.run_ids[client][used % RUN_IDS];
        let ok = log.span("chamserve.push", |log| {
            log.count("bytes", bytes);
            self.daemon().push(id, &self.journals, kind)
        });
        OpOut { ok, bytes }
    }

    fn finish(&mut self, ops: u64) -> Result<(), String> {
        let daemon = self.daemon.take().expect("finish runs once");
        let ingested = daemon.counter("journals_ingested")?;
        let rejected = daemon.counter("ingest_rejected")?;
        let want = ops + WARMUP_PUSHES;
        if ingested != want || rejected != 0 {
            return Err(format!(
                "/metrics: journals_ingested {ingested} (want {want}), ingest_rejected {rejected}"
            ));
        }
        Ok(())
    }
}

/// One possible GET and which expected body answers it.
struct Request {
    path: String,
    expect: usize,
}

/// Requests per session: four plain endpoints, one timeline per listed
/// rank, one diff per other session.
const PER_SESSION: usize = 4 + TIMELINE_RANKS.len() + SESSIONS;
/// Schedule entries per client; the list wraps if a run outlasts it.
const SCHEDULE_LEN: usize = 1 << 17;

pub struct QueryWorkload {
    daemon: Option<Daemon>,
    requests: Vec<Request>,
    /// Answers rendered in set-up by the shared `obs::query` renderers.
    bodies: Vec<Vec<u8>>,
    /// Indexes into `requests`, per client.
    schedule: Vec<Vec<u32>>,
}

/// Journal a session holds: the six journals dealt round-robin.
fn journal_of(session: usize) -> usize {
    session % JOURNAL_APPS.len()
}

fn session_id(seed: u64, session: usize) -> String {
    format!("q{seed}-s{session:02}")
}

/// Index into a session's block of `requests` for a scheduled query.
fn request_slot(q: Query) -> usize {
    let base = q.session as usize * PER_SESSION;
    base + match QUERY_MIX[q.kind as usize].0 {
        "summarize" => 0,
        "metrics" => 1,
        "spans" => 2,
        "anomalies" => 3,
        "timeline" => 4 + q.arg as usize,
        _ => 4 + TIMELINE_RANKS.len() + q.arg as usize,
    }
}

impl QueryWorkload {
    pub fn setup(
        seed: u64,
        journals: &Journals,
        out_dir: &Path,
        pin: &Pinning,
    ) -> Result<Self, String> {
        let daemon = Daemon::start(out_dir, "serve_query", pin)?;
        for s in 0..SESSIONS {
            if !daemon.push(&session_id(seed, s), journals, journal_of(s)) {
                return Err(format!("pre-load of session {s} was not acknowledged"));
            }
        }
        let w = QueryWorkload::over(daemon, seed, journals);
        // Warm-up: one request of every endpoint.
        for slot in [0, 1, 2, 3, 4, 4 + TIMELINE_RANKS.len()] {
            if !w.get(slot, &mut SpanLog::off()).ok {
                return Err(format!("warm-up GET {} failed", w.requests[slot].path));
            }
        }
        Ok(w)
    }

    /// The request table, expected answers and seeded schedule over a
    /// daemon that already holds the sessions.
    pub fn over(daemon: Daemon, seed: u64, journals: &Journals) -> QueryWorkload {
        let kinds = JOURNAL_APPS.len();
        let plain: [fn(&RunJournal) -> String; 4] = [
            query::summarize_json,
            query::metrics_json,
            query::spans_json,
            query::anomalies_json,
        ];
        // Expected bodies depend only on which journal a session holds:
        // per journal, 4 plain + 8 timelines + 6 diffs.
        let per_kind = 4 + TIMELINE_RANKS.len() + kinds;
        let mut bodies = Vec::with_capacity(kinds * per_kind);
        for j in &journals.decoded {
            bodies.extend(plain.iter().map(|render| render(j).into_bytes()));
            for &rank in &TIMELINE_RANKS {
                let body = query::timeline_json(j, rank).expect("rank is inside the world");
                bodies.push(body.into_bytes());
            }
            for other in &journals.decoded {
                bodies.push(query::diff_json(j, other).into_bytes());
            }
        }
        let mut requests = Vec::with_capacity(SESSIONS * PER_SESSION);
        for s in 0..SESSIONS {
            let id = session_id(seed, s);
            let base = journal_of(s) * per_kind;
            for (e, name) in ["summarize", "metrics", "spans", "anomalies"]
                .iter()
                .enumerate()
            {
                requests.push(Request {
                    path: format!("/runs/{id}/{name}"),
                    expect: base + e,
                });
            }
            for (r, rank) in TIMELINE_RANKS.iter().enumerate() {
                requests.push(Request {
                    path: format!("/runs/{id}/timeline/{rank}"),
                    expect: base + 4 + r,
                });
            }
            for other in 0..SESSIONS {
                requests.push(Request {
                    path: format!("/runs/{id}/diff/{}", session_id(seed, other)),
                    expect: base + 4 + TIMELINE_RANKS.len() + journal_of(other),
                });
            }
        }
        // The hot set holds as many sessions of each journal as of any
        // other (the seed picks which), so that neither the bytes served
        // nor the cost of a reload depends on the seed.
        let mut rng = Rng::new(seed);
        let copies = SESSIONS / kinds;
        let hot_set: Vec<usize> = (0..kinds)
            .flat_map(|k| {
                let picks = rng.permutation(copies);
                (0..HOT_SESSIONS / kinds).map(move |i| picks[i] * kinds + k)
            })
            .collect();
        let hot_set = &hot_set[..];
        let schedule = (0..CLIENTS)
            .map(|_| {
                query_schedule(&mut rng, SCHEDULE_LEN, SESSIONS, hot_set, HOT_PCT)
                    .into_iter()
                    .map(|q| request_slot(q) as u32)
                    .collect()
            })
            .collect();
        QueryWorkload {
            daemon: Some(daemon),
            requests,
            bodies,
            schedule,
        }
    }

    pub fn daemon(&self) -> &Daemon {
        self.daemon.as_ref().expect("daemon runs until finish")
    }

    pub fn into_daemon(mut self) -> Daemon {
        self.daemon.take().expect("daemon runs until finish")
    }

    /// Issue request `slot` and compare the answer byte for byte.
    pub fn get(&self, slot: usize, log: &mut SpanLog) -> OpOut {
        let req = &self.requests[slot];
        log.span("chamserve.get", |log| {
            let body = self.daemon().get(&req.path).unwrap_or_default();
            log.count("bytes", body.len() as u64);
            OpOut {
                ok: body == self.bodies[req.expect],
                bytes: body.len() as u64,
            }
        })
    }

    /// Slot of the `summarize` request of `session`.
    pub fn summarize_slot(session: usize) -> usize {
        session * PER_SESSION
    }
}

impl Workload for QueryWorkload {
    fn clients(&self) -> usize {
        CLIENTS
    }

    fn round(&self) -> usize {
        1
    }

    fn op(&self, client: usize, i: usize, log: &mut SpanLog) -> OpOut {
        self.get(self.schedule[client][i % SCHEDULE_LEN] as usize, log)
    }

    fn finish(&mut self, _ops: u64) -> Result<(), String> {
        let daemon = self.daemon.take().expect("finish runs once");
        let errors = daemon.counter("http_5xx")? + daemon.counter("load_shed_429")?;
        if errors != 0 {
            return Err(format!("/metrics: {errors} requests answered 5xx or 429"));
        }
        Ok(())
    }
}
