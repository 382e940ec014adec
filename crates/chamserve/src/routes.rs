//! Request routing and the server lifecycle.
//!
//! One acceptor thread feeds a bounded connection queue drained by a
//! fixed pool of worker threads; each connection is one request/response
//! exchange. The bound is the load-shedding valve: when the queue is
//! full the acceptor answers 429 + `retry-after` immediately instead of
//! letting latency grow without bound. Per-phase socket deadlines turn
//! slow-loris clients into 408s, and a store that has degraded to
//! read-only (disk full) turns ingests into 503s while queries keep
//! serving. All three statuses are in the retrying client's retryable
//! set, so well-behaved pushers back off and converge.
//!
//! Every response body is canonical. The query routes are the rows of
//! `obs::query::QUERIES`, the table `chamtrace journal` dispatches
//! through, answered with the JSON sink — so a daemon answer can be
//! byte-diffed against the CLI's `--json` output and against committed
//! goldens — and `GET /` lists them off the same table.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::metrics::{Counter, Digest, HistId};
use obs::query::{self, JsonObject, QueryError, Sink};

use crate::fault::SvcFaultPlan;
use crate::http::{read_request_with, write_response_with, HttpError, Request};
use crate::store::{Session, SessionStore, StoreError};
use crate::telemetry::{SvcCounter, SvcHist, Telemetry};
use crate::util::crc32;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Root directory journals and checkpoints are spilled under.
    pub data_dir: PathBuf,
    /// Decoded-journal cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Worker threads draining the connection queue.
    pub threads: usize,
    /// Largest request body accepted, in bytes (a larger `Content-Length`
    /// claim is a 413 before any body byte is buffered).
    pub max_body: usize,
    /// Sessions allowed to keep hot state resident; idle sessions beyond
    /// this demote to manifest-backed cold stubs.
    pub hot_sessions: usize,
    /// Connections the queue holds before the acceptor sheds with 429.
    pub backlog: usize,
    /// Socket read deadline while the request head is arriving (slow
    /// header writers get a 408).
    pub header_deadline: Duration,
    /// Socket read deadline per body read (slow body writers get a 408).
    pub body_deadline: Duration,
    /// Deterministic service fault plan (tests and the CI crash leg).
    pub faults: Option<SvcFaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            data_dir: PathBuf::from("experiments_out/chamserve"),
            cache_entries: 64,
            threads: 4,
            max_body: 64 * 1024 * 1024,
            hot_sessions: 256,
            backlog: 128,
            header_deadline: Duration::from_secs(10),
            body_deadline: Duration::from_secs(30),
            faults: None,
        }
    }
}

struct State {
    store: SessionStore,
    telemetry: Telemetry,
    stopping: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_wake: Condvar,
    conn_nonce: AtomicU64,
    faults: Option<SvcFaultPlan>,
}

/// A running daemon: bound address, acceptor + worker pool, shutdown
/// control.
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving.
    /// Returns once the socket is live and rehydration has finished.
    pub fn start(addr: &str, cfg: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let state = Arc::new(State {
            store: SessionStore::open_with(
                &cfg.data_dir,
                cfg.cache_entries,
                cfg.hot_sessions,
                cfg.faults.clone(),
            )
            .map_err(|e| format!("open store: {}", e.detail))?,
            telemetry: Telemetry::new(),
            stopping: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_wake: Condvar::new(),
            conn_nonce: AtomicU64::new(0),
            faults: cfg.faults.clone(),
        });
        let mut threads = Vec::with_capacity(cfg.threads.max(1) + 1);
        {
            let state = state.clone();
            let backlog = cfg.backlog.max(1);
            threads.push(std::thread::spawn(move || loop {
                let Ok((mut stream, _)) = listener.accept() else {
                    break;
                };
                if state.stopping.load(Ordering::SeqCst) {
                    break;
                }
                let mut q = state.queue.lock().expect("queue lock");
                if q.len() >= backlog {
                    drop(q);
                    // Shed immediately: a bounded wait beats an unbounded
                    // one, and 429 + retry-after tells the client so.
                    state.telemetry.add(SvcCounter::LoadShed, 1);
                    let _ = write_response_with(
                        &mut stream,
                        429,
                        "application/json",
                        &[("retry-after", "1")],
                        error_body("connection backlog full; retry later").as_bytes(),
                    );
                    continue;
                }
                q.push_back(stream);
                drop(q);
                state.queue_wake.notify_one();
            }));
        }
        for _ in 0..cfg.threads.max(1) {
            let state = state.clone();
            let cfg = cfg.clone();
            threads.push(std::thread::spawn(move || loop {
                let stream = {
                    let mut q = state.queue.lock().expect("queue lock");
                    loop {
                        if let Some(s) = q.pop_front() {
                            break Some(s);
                        }
                        if state.stopping.load(Ordering::SeqCst) {
                            break None;
                        }
                        q = state.queue_wake.wait(q).expect("queue wait");
                    }
                };
                let Some(mut stream) = stream else {
                    break;
                };
                handle(&mut stream, &state, &cfg, local);
            }));
        }
        Ok(Server {
            addr: local,
            state,
            threads,
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a `POST /shutdown` has been accepted.
    pub fn stopping(&self) -> bool {
        self.state.stopping.load(Ordering::SeqCst)
    }

    /// The data directory the store spills into.
    pub fn data_dir(&self) -> &std::path::Path {
        self.state.store.data_dir()
    }

    /// Block until every thread exits (i.e. until shutdown is
    /// requested). The foreground mode of `chamtrace serve`.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Request shutdown and join the threads.
    pub fn shutdown(self) {
        self.state.stopping.store(true, Ordering::SeqCst);
        wake_acceptor(self.addr);
        self.state.queue_wake.notify_all();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Unblock the acceptor parked in `accept` by connecting once.
fn wake_acceptor(addr: SocketAddr) {
    if let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        drop(s);
    }
}

fn handle(stream: &mut TcpStream, state: &State, cfg: &ServeConfig, local: SocketAddr) {
    let started = Instant::now();
    let nonce = state.conn_nonce.fetch_add(1, Ordering::SeqCst);
    if let Some(plan) = &state.faults {
        if plan.drop_pre(nonce) {
            // Injected client-vanished-mid-upload: close before reading.
            return;
        }
    }
    stream.set_read_timeout(Some(cfg.header_deadline)).ok();
    stream.set_write_timeout(Some(cfg.body_deadline)).ok();
    let (status, content_type, body) =
        match read_request_with(stream, cfg.max_body, Some(cfg.body_deadline)) {
            Err(HttpError { status, detail }) => {
                // A bare connect-then-close (the shutdown wake) is not a
                // request; don't count or answer it.
                if detail.contains("connection closed mid-head") {
                    return;
                }
                (status, "application/json", error_body(&detail))
            }
            Ok(req) => match verify_crc(&req) {
                Err(detail) => {
                    state.telemetry.add(SvcCounter::CrcRejected, 1);
                    (422, "application/json", error_body(&detail))
                }
                Ok(()) => {
                    let (status, body) = route(&req, state, local);
                    (status, "application/json", body)
                }
            },
        };
    state.telemetry.add(SvcCounter::HttpRequests, 1);
    let class = match status {
        200..=299 => SvcCounter::Http2xx,
        400..=499 => SvcCounter::Http4xx,
        _ => SvcCounter::Http5xx,
    };
    state.telemetry.add(class, 1);
    if status == 408 {
        state.telemetry.add(SvcCounter::RequestTimeouts, 1);
    }
    // Latency is recorded *before* the response bytes leave, so a client
    // that has read a response is guaranteed the observation already
    // landed — /metrics scraped right after N answers counts >= N.
    state.telemetry.observe(
        SvcHist::RequestLatencyNs,
        obs::metrics::ns_from_seconds(started.elapsed().as_secs_f64()),
    );
    if let Some(plan) = &state.faults {
        if plan.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(plan.delay_ms));
        }
        if plan.drop_post(nonce) {
            // Injected response-lost-after-commit: the request was fully
            // processed; the client never hears and must retry — which is
            // exactly what the dedupe layer makes safe.
            return;
        }
    }
    // Degraded statuses tell the client when to come back.
    let extra: &[(&str, &str)] = if matches!(status, 429 | 503) {
        &[("retry-after", "1")]
    } else {
        &[]
    };
    let _ = write_response_with(stream, status, content_type, extra, body.as_bytes());
}

/// Verify the client's `Content-Crc32` claim against the body bytes —
/// before the router (and thus any session state) sees the request.
fn verify_crc(req: &Request) -> Result<(), String> {
    match req.crc {
        None => Ok(()),
        Some(claim) => {
            let actual = crc32(&req.body);
            if actual == claim {
                Ok(())
            } else {
                Err(format!(
                    "content-crc32 mismatch: claimed {claim:08x}, body is {actual:08x}"
                ))
            }
        }
    }
}

fn error_body(detail: &str) -> String {
    format!("{{\"error\":\"{}\"}}\n", query::json_escape(detail))
}

fn store_error(e: &StoreError) -> (u16, String) {
    (e.status, error_body(&e.detail))
}

fn no_route(req: &Request) -> (u16, String) {
    let what = format!("no route for {} /{}", req.method, req.segments.join("/"));
    (404, error_body(&what))
}

fn route(req: &Request, state: &State, local: SocketAddr) -> (u16, String) {
    let segs: Vec<&str> = req.segments.iter().map(String::as_str).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", []) => {
            let queries: String = query::QUERIES
                .iter()
                .map(|q| format!(",\"GET /runs/<id>/{}{}\"", q.name, q.arg.placeholder()))
                .collect();
            (
                200,
                format!(
                    "{{\"service\":\"chamserve\",\"addr\":\"{local}\",\"endpoints\":[\"GET /healthz\",\"GET /metrics\",\"GET /runs\",\"POST /runs/<id>/journal\",\"POST /runs/<id>/checkpoint\"{queries},\"POST /shutdown\"]}}\n"
                ),
            )
        }
        ("GET", ["healthz"]) => (200, "{\"ok\":true}\n".to_string()),
        ("GET", ["metrics"]) => (
            200,
            state.telemetry.render(
                state.store.sessions_live(),
                state.store.cached_journals(),
                &state.store.quarantine_counts(),
                state.store.read_only(),
            ),
        ),
        ("GET", ["runs"]) => (200, render_runs(&state.store.sessions())),
        ("POST", ["runs", id, "journal"]) => match std::str::from_utf8(&req.body) {
            Err(_) => {
                state.telemetry.add(SvcCounter::IngestRejected, 1);
                (400, error_body("journal body is not UTF-8"))
            }
            Ok(text) => match state.store.ingest_journal(id, text, Some(&state.telemetry)) {
                Ok(r) => {
                    if r.deduped {
                        state.telemetry.add(SvcCounter::IngestDeduped, 1);
                    } else {
                        state.telemetry.add(SvcCounter::JournalsIngested, 1);
                        state
                            .telemetry
                            .add(SvcCounter::IngestBytes, req.body.len() as u64);
                        state
                            .telemetry
                            .observe(SvcHist::IngestBodyBytes, req.body.len() as u64);
                    }
                    (
                        200,
                        format!(
                            "{{\"ok\":true,\"run\":\"{}\",\"ranks\":{},\"events\":{}}}\n",
                            query::json_escape(id),
                            r.ranks,
                            r.events
                        ),
                    )
                }
                Err(e) => ingest_error(state, &e),
            },
        },
        ("POST", ["runs", id, "checkpoint"]) => {
            match state
                .store
                .ingest_checkpoint(id, &req.body, Some(&state.telemetry))
            {
                Ok(r) => {
                    if r.deduped {
                        state.telemetry.add(SvcCounter::IngestDeduped, 1);
                    } else {
                        state.telemetry.add(SvcCounter::CkptsIngested, 1);
                        state
                            .telemetry
                            .add(SvcCounter::IngestBytes, req.body.len() as u64);
                        state
                            .telemetry
                            .observe(SvcHist::IngestBodyBytes, req.body.len() as u64);
                    }
                    (
                        200,
                        format!(
                            "{{\"ok\":true,\"run\":\"{}\",\"marker\":{}}}\n",
                            query::json_escape(id),
                            r.marker
                        ),
                    )
                }
                Err(e) => ingest_error(state, &e),
            }
        }
        ("GET", ["runs", id, name, rest @ ..]) => match query::find(name, rest) {
            None => no_route(req),
            Some((q, arg)) => {
                let load = |run: &str| state.store.journal(run, Some(&state.telemetry));
                match q.serve(id, arg, Sink::Json, load) {
                    Ok((body, _)) => {
                        // Only a row of the query table reaches here, so
                        // `queries_served` counts exactly the query answers.
                        state.telemetry.add(SvcCounter::QueriesServed, 1);
                        let bytes = body.len() as u64;
                        state.telemetry.observe(SvcHist::ResponseBytes, bytes);
                        (200, body)
                    }
                    Err(QueryError::Bad(e)) => (400, error_body(&e)),
                    Err(QueryError::Load(e)) => store_error(&e),
                }
            }
        },
        ("POST", ["shutdown"]) => {
            state.stopping.store(true, Ordering::SeqCst);
            // Wake the acceptor parked in accept and every idle worker;
            // this worker breaks its own loop after the response flushes.
            wake_acceptor(local);
            state.queue_wake.notify_all();
            (200, "{\"ok\":true,\"stopping\":true}\n".to_string())
        }
        _ => no_route(req),
    }
}

/// Classify a failed ingest into the right telemetry counter.
fn ingest_error(state: &State, e: &StoreError) -> (u16, String) {
    match e.status {
        400 => state.telemetry.add(SvcCounter::IngestRejected, 1),
        503 => state.telemetry.add(SvcCounter::ReadOnlyRejects, 1),
        _ => {}
    }
    store_error(e)
}

/// The `/runs` listing: every session in run-ID order with its bounded
/// hot state — merged counter totals (journal snapshots + checkpoint
/// sketches), the checkpoint sketch's exact histogram digest, and the
/// per-marker peak digest from the journal's snapshots.
fn render_runs(sessions: &[(String, Session)]) -> String {
    let mut out = String::from("{\"service\":\"chamserve\",\"runs\":[");
    for (i, (id, s)) in sessions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"ranks\":{},\"armed\":{},\"events\":{},\"snapshots\":{}",
            query::json_escape(id),
            s.ranks,
            s.armed,
            s.events,
            s.snapshots
        ));
        match s.journal_digest {
            Some(d) => out.push_str(&format!(",\"journal_digest\":\"{d:#x}\"")),
            None => out.push_str(",\"journal_digest\":null"),
        }
        let markers: Vec<String> = s.ckpt_markers.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            ",\"ckpt_markers\":[{}],\"ckpt_ranks\":{}",
            markers.join(","),
            s.ckpt_ranks
        ));
        let ctrs = JsonObject(Counter::ALL.map(|c| {
            let v = s.journal_ctrs[c as usize].saturating_add(s.ckpt_sketch.get(c));
            (c.label(), v)
        }));
        let peaks =
            JsonObject(HistId::ALL.map(|h| (h.label(), Digest::at(&s.snapshot_hist_peaks, h))));
        let ckpt = s.ckpt_sketch.hist_digest();
        let ckpt = JsonObject(HistId::ALL.map(|h| (h.label(), Digest::at(&ckpt, h))));
        out.push_str(&format!(
            ",\"sketch\":{{\"ctrs\":{ctrs},\"snapshot_hist_peaks\":{peaks},\"ckpt_hists\":{ckpt}}}}}"
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_runs_is_deterministic_and_ordered() {
        let a = Session {
            ranks: 4,
            armed: false,
            events: 10,
            snapshots: 2,
            journal_digest: Some(0xabc),
            ..Session::default()
        };
        let b = Session::default();
        let sessions = vec![("alpha".to_string(), a), ("beta".to_string(), b)];
        let r = render_runs(&sessions);
        assert!(
            r.starts_with("{\"service\":\"chamserve\",\"runs\":["),
            "{r}"
        );
        let ia = r.find("\"id\":\"alpha\"").unwrap();
        let ib = r.find("\"id\":\"beta\"").unwrap();
        assert!(ia < ib, "run-ID order");
        assert!(r.contains("\"journal_digest\":\"0xabc\""), "{r}");
        assert!(r.contains("\"journal_digest\":null"), "{r}");
        assert!(r.ends_with("]}\n"), "{r}");
    }

    #[test]
    fn error_body_escapes() {
        assert_eq!(
            error_body("bad \"thing\""),
            "{\"error\":\"bad \\\"thing\\\"\"}\n"
        );
    }

    #[test]
    fn crc_verify_accepts_match_rejects_mismatch() {
        let mut req = Request {
            method: "POST".to_string(),
            segments: vec!["runs".to_string(), "x".to_string(), "journal".to_string()],
            body: b"123456789".to_vec(),
            crc: None,
        };
        assert!(verify_crc(&req).is_ok(), "no claim, no check");
        req.crc = Some(0xCBF4_3926);
        assert!(verify_crc(&req).is_ok(), "correct claim");
        req.crc = Some(0xDEAD_BEEF);
        let err = verify_crc(&req).unwrap_err();
        assert!(err.contains("deadbeef"), "{err}");
        assert!(err.contains("cbf43926"), "{err}");
    }
}
