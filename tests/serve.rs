//! The trace-service daemon, end to end over real sockets.
//!
//! Four layers under test:
//!
//! 1. **endpoint equivalence** — every query endpoint's response on the
//!    committed bt4 golden journal is byte-identical to the shared
//!    `obs::query` renderer output (the same bytes `chamtrace journal *
//!    --json` prints), and pinned against committed goldens under
//!    `tests/fixtures/serve/`;
//! 2. **concurrent-ingest determinism** — N parallel clients pushing
//!    interleaved journals/checkpoints leave the store in a state whose
//!    every observable response is byte-identical to serial ingest in
//!    run-ID order;
//! 3. **strict ingest** — malformed uploads (truncated JSONL, flipped
//!    CKPT1 CRC, invalid run IDs) are rejected with 400 + diagnostic and
//!    leave no session behind;
//! 4. **self-telemetry** — `GET /metrics` reports the daemon's own
//!    request/ingest/cache counters, nonzero after traffic.
//!
//! Plus the durability plane (sections 7+): a corruption table proving
//! rehydration quarantines exactly the damaged artifact and keeps every
//! other session serving; a torn-write crash simulation whose restart
//! serves committed sessions byte-identical to the goldens; a seeded
//! [`SvcFaultPlan`] storm the idempotent retrying push must converge
//! through; and the degraded modes — ENOSPC → read-only 503, slow-loris
//! → 408, full backlog → 429 — each visible in `/metrics`. Section 14
//! pins the one-pass ingest path: first pushes never rehydrate, a
//! loosely spelled body is committed in canonical form, and the session
//! folded at ingest equals the one rebuilt from its spill. Section 15
//! pins what the query table routes: the `GET /` list, the status and
//! body of every way a query route fails, and that `queries_served`
//! counts only the 200 answers.
//!
//! Regenerate endpoint goldens with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test serve
//! ```

use std::path::PathBuf;

use chameleon::Checkpoint;
use chamserve::{
    http, push_checkpoint, push_checkpoint_with, push_journal, push_journal_with, PushError,
    RetryPolicy, ServeConfig, Server, SessionStore, SvcCounter, SvcFaultPlan, Telemetry,
};
use obs::metrics::{Counter, HistId, MetricSet};
use obs::wire::fnv64;
use obs::{query, Event, EventKind, RankLog, RunJournal};
use sigkit::CallPathSig;

const TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compare `text` against the named fixture, or rewrite the fixture when
/// `REGEN_GOLDEN` is set (same convention as `golden_traces.rs`).
fn assert_golden(name: &str, text: &str) {
    let path = fixture_path(name);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        text, want,
        "{name} drifted from its golden fixture; if the change is \
         intentional, regenerate with REGEN_GOLDEN=1 and review the diff"
    );
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cham_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Start a daemon on an ephemeral port with a scratch data dir.
fn start(tag: &str, cache_entries: usize) -> (Server, String) {
    let cfg = ServeConfig {
        data_dir: scratch(tag),
        cache_entries,
        threads: 4,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

fn get(addr: &str, path: &str) -> (u16, String) {
    let (status, body) = http::request(addr, "GET", path, &[], TIMEOUT).expect("GET");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

fn post(addr: &str, path: &str, body: &[u8]) -> (u16, String) {
    let (status, body) = http::request(addr, "POST", path, body, TIMEOUT).expect("POST");
    (status, String::from_utf8(body).expect("UTF-8 body"))
}

fn bt4_text() -> String {
    std::fs::read_to_string(fixture_path("bt4_chameleon.journal.jsonl")).expect("bt4 fixture")
}

/// A small synthetic journal whose content varies with `tag` — distinct
/// digests per run without needing more committed fixtures.
fn mini_journal(tag: u64) -> RunJournal {
    let mut logs = Vec::new();
    for rank in 0..2 {
        let mut log = RankLog::new(rank);
        log.events.push(Event {
            seq: 0,
            vt: 0.0,
            tt: 0.0,
            kind: EventKind::Marker { n: tag },
        });
        if rank == 0 {
            let mut m = MetricSet::new();
            m.add(Counter::Merges, tag);
            m.observe(HistId::RecvWaitNs, 1000 * tag.max(1));
            log.events.push(Event {
                seq: 1,
                vt: 1e-6,
                tt: 1e-7,
                kind: EventKind::Snapshot {
                    marker: tag,
                    ranks: 2,
                    ctrs: m.counter_values(),
                    hists: m.hist_digest(),
                },
            });
        }
        logs.push(log);
    }
    RunJournal::gather(2, false, logs)
}

/// A structurally valid checkpoint carrying a metric sketch.
fn mini_ckpt(marker: u64) -> Checkpoint {
    let mut m = MetricSet::new();
    m.add(Counter::Merges, marker * 10);
    m.observe(HistId::RecvWaitNs, 5000 + marker);
    Checkpoint {
        marker,
        marker_calls: marker,
        root: 0,
        alive: vec![0, 1],
        old_call_path: CallPathSig(0xfeed + marker),
        re_clustering: false,
        lead_flag: false,
        selection: None,
        trace: scalatrace::CompressedTrace::new(),
        metrics: m.encode_with_count(2),
        journal_hwm: 4,
    }
}

// ---------------------------------------------------------------------
// 1. Endpoint equivalence on the committed bt4 golden
// ---------------------------------------------------------------------

#[test]
fn endpoints_match_shared_renderers_on_bt4() {
    let (server, addr) = start("bt4", 8);
    let text = bt4_text();
    let journal = RunJournal::from_jsonl(&text).expect("bt4 parses");

    let receipt = push_journal(&addr, "bt4", text.as_bytes()).expect("push");
    assert_eq!(
        receipt,
        format!(
            "{{\"ok\":true,\"run\":\"bt4\",\"ranks\":4,\"events\":{}}}\n",
            journal.events().count()
        )
    );

    // Every query endpoint returns the exact bytes of the shared
    // renderer — the same bytes `chamtrace journal * --json` prints.
    let cases: Vec<(&str, String)> = vec![
        ("summarize", query::summarize_json(&journal)),
        ("spans", query::spans_json(&journal)),
        ("metrics", query::metrics_json(&journal)),
        ("anomalies", query::anomalies_json(&journal)),
    ];
    for (endpoint, want) in &cases {
        let (status, body) = get(&addr, &format!("/runs/bt4/{endpoint}"));
        assert_eq!(status, 200, "{endpoint}: {body}");
        assert_eq!(&body, want, "{endpoint} daemon bytes != renderer bytes");
        assert_golden(&format!("serve/bt4_{endpoint}.json"), &body);
    }
    for rank in 0..4 {
        let (status, body) = get(&addr, &format!("/runs/bt4/timeline/{rank}"));
        assert_eq!(status, 200);
        assert_eq!(body, query::timeline_json(&journal, rank).unwrap());
        if rank == 0 {
            assert_golden("serve/bt4_timeline_rank0.json", &body);
        }
    }
    // Self-diff through two session slots is the identity.
    push_journal(&addr, "bt4-copy", text.as_bytes()).expect("push copy");
    let (status, body) = get(&addr, "/runs/bt4/diff/bt4-copy");
    assert_eq!(status, 200);
    assert_eq!(body, query::diff_json(&journal, &journal));
    assert_eq!(body, "{\"query\":\"diff\",\"identical\":true}\n");

    // Out-of-range rank and unknown run are clean client errors.
    let (status, body) = get(&addr, "/runs/bt4/timeline/99");
    assert_eq!(status, 400, "{body}");
    let (status, _) = get(&addr, "/runs/nosuch/summarize");
    assert_eq!(status, 404);

    server.shutdown();
}

// ---------------------------------------------------------------------
// 2. Concurrent-ingest determinism
// ---------------------------------------------------------------------

/// Everything observable about a store, as one byte string.
fn observable_state(addr: &str, runs: &[String]) -> String {
    let mut out = String::new();
    let (status, listing) = get(addr, "/runs");
    assert_eq!(status, 200);
    out.push_str(&listing);
    for id in runs {
        let (status, body) = get(addr, &format!("/runs/{id}/summarize"));
        assert_eq!(status, 200, "{id}: {body}");
        out.push_str(&body);
        let (status, body) = get(addr, &format!("/runs/{id}/metrics"));
        assert_eq!(status, 200);
        out.push_str(&body);
    }
    out
}

#[test]
fn concurrent_ingest_matches_serial_reference() {
    const CLIENTS: usize = 6;
    const PUSHES_PER_CLIENT: usize = 4;

    // The workload: each client owns several runs and pushes each run's
    // journal plus two checkpoints, re-pushing some (idempotence must
    // hold under racing duplicates).
    let mut uploads: Vec<(String, String, Vec<Vec<u8>>)> = Vec::new();
    for c in 0..CLIENTS {
        for p in 0..PUSHES_PER_CLIENT {
            let tag = (c * PUSHES_PER_CLIENT + p) as u64;
            let id = format!("run-c{c}-p{p}");
            let jsonl = mini_journal(tag).to_jsonl();
            let ckpts = vec![mini_ckpt(tag).encode(), mini_ckpt(tag + 1).encode()];
            uploads.push((id, jsonl, ckpts));
        }
    }
    let run_ids: Vec<String> = uploads.iter().map(|u| u.0.clone()).collect();

    // Serial reference: ingest in run-ID order, one client.
    let (serial, serial_addr) = start("serial", 8);
    let mut ordered = uploads.clone();
    ordered.sort_by(|a, b| a.0.cmp(&b.0));
    for (id, jsonl, ckpts) in &ordered {
        push_journal(&serial_addr, id, jsonl.as_bytes()).expect("serial journal");
        for blob in ckpts {
            push_checkpoint(&serial_addr, id, blob).expect("serial ckpt");
        }
    }
    let want = observable_state(&serial_addr, &run_ids);
    serial.shutdown();

    // Concurrent ingest: one thread per client, interleaved arbitrarily,
    // every artifact pushed twice (duplicate-push idempotence).
    let (server, addr) = start("concurrent", 8);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let uploads = &uploads;
            let addr = addr.clone();
            scope.spawn(move || {
                for (id, jsonl, ckpts) in uploads.iter().skip(c).step_by(CLIENTS) {
                    for _ in 0..2 {
                        push_journal(&addr, id, jsonl.as_bytes()).expect("journal");
                        for blob in ckpts {
                            push_checkpoint(&addr, id, blob).expect("ckpt");
                        }
                    }
                }
            });
        }
    });
    let got = observable_state(&addr, &run_ids);
    assert_eq!(
        got, want,
        "concurrent ingest must be byte-identical to serial run-ID-order ingest"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// 3. Strict ingest: malformed uploads leave no trace
// ---------------------------------------------------------------------

#[test]
fn malformed_uploads_are_rejected_without_side_effects() {
    let (server, addr) = start("malformed", 8);
    let good = bt4_text();

    // Truncated JSONL (cut mid-line) → 400 with a line diagnostic.
    let truncated = &good[..good.len() / 2];
    let (status, body) = post(&addr, "/runs/trunc/journal", truncated.as_bytes());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("journal line"), "line diagnostic: {body}");

    // Flipped CKPT1 CRC → 400 naming the mismatch.
    let mut blob = mini_ckpt(7).encode();
    let last = blob.len() - 1;
    blob[last] ^= 0xff;
    let (status, body) = post(&addr, "/runs/flip/checkpoint", &blob);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("CRC mismatch"), "CRC diagnostic: {body}");

    // Non-UTF-8 journal body and hostile run IDs.
    let (status, _) = post(&addr, "/runs/bin/journal", &[0xff, 0xfe, 0x00]);
    assert_eq!(status, 400);
    let (status, body) = post(&addr, "/runs/..%2Fetc/journal", good.as_bytes());
    assert_eq!(status, 400, "{body}");

    // None of the rejects left a session (or a spilled file) behind.
    let (status, listing) = get(&addr, "/runs");
    assert_eq!(status, 200);
    assert_eq!(listing, "{\"service\":\"chamserve\",\"runs\":[]}\n");
    for id in ["trunc", "flip", "bin"] {
        let (status, _) = get(&addr, &format!("/runs/{id}/summarize"));
        assert_eq!(status, 404, "session {id} must not exist");
    }

    // A good upload still works after the rejects; a checkpoint-only
    // session answers 404 for journal queries but lists its sketch.
    let (status, _) = post(&addr, "/runs/good/checkpoint", &mini_ckpt(7).encode());
    assert_eq!(status, 200);
    let (status, body) = get(&addr, "/runs/good/summarize");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("no journal"), "{body}");
    let (status, listing) = get(&addr, "/runs");
    assert_eq!(status, 200);
    assert!(listing.contains("\"id\":\"good\""), "{listing}");
    assert!(listing.contains("\"ckpt_markers\":[7]"), "{listing}");

    server.shutdown();
}

// ---------------------------------------------------------------------
// 4. Self-telemetry and the journal cache
// ---------------------------------------------------------------------

/// Pull one `"key":number` value out of a flat canonical JSON object.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("number")
}

#[test]
fn daemon_observes_itself_and_bounds_the_cache() {
    // Cache capacity 2 forces evictions across three runs.
    let (server, addr) = start("telemetry", 2);
    for tag in 0..3u64 {
        let id = format!("run{tag}");
        push_journal(&addr, &id, mini_journal(tag).to_jsonl().as_bytes()).expect("push");
        push_checkpoint(&addr, &id, &mini_ckpt(tag).encode()).expect("ckpt");
    }
    // Touch every run's queries; run0 was evicted, so at least one miss.
    for tag in 0..3u64 {
        let (status, _) = get(&addr, &format!("/runs/run{tag}/summarize"));
        assert_eq!(status, 200);
        let (status, _) = get(&addr, &format!("/runs/run{tag}/anomalies"));
        assert_eq!(status, 200);
    }
    let (status, _) = get(&addr, "/runs/missing/spans"); // one 404
    assert_eq!(status, 404);

    let (status, m) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(m.starts_with("{\"service\":\"chamserve\""), "{m}");
    assert_eq!(json_u64(&m, "sessions_live"), 3);
    assert!(json_u64(&m, "cached_journals") <= 2, "cache bounded: {m}");
    assert_eq!(json_u64(&m, "journals_ingested"), 3);
    assert_eq!(json_u64(&m, "ckpts_ingested"), 3);
    assert!(json_u64(&m, "http_requests") >= 13, "{m}");
    assert!(json_u64(&m, "http_4xx") >= 1, "{m}");
    assert_eq!(json_u64(&m, "queries_served"), 6);
    assert!(json_u64(&m, "cache_hits") >= 1, "{m}");
    assert!(json_u64(&m, "cache_misses") >= 1, "{m}");
    assert!(json_u64(&m, "cache_evictions") >= 1, "{m}");
    assert!(json_u64(&m, "ingest_bytes") > 0, "{m}");
    // The latency sketch saw every request on this very connection's
    // plane — count is one per request already answered.
    let lat = m
        .find("\"request_latency_ns\":{\"count\":")
        .expect("latency digest");
    let count: u64 = m[lat + "\"request_latency_ns\":{\"count\":".len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(count >= 13, "latency digest counts requests: {m}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// 5. Spill-and-rehydrate across daemon restarts
// ---------------------------------------------------------------------

#[test]
fn restarted_daemon_serves_spilled_runs() {
    let data = scratch("restart");
    let cfg = ServeConfig {
        data_dir: data.clone(),
        cache_entries: 4,
        threads: 2,
        ..ServeConfig::default()
    };
    let text = bt4_text();
    let journal = RunJournal::from_jsonl(&text).unwrap();
    let first = Server::start("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = first.addr().to_string();
    push_journal(&addr, "bt4", text.as_bytes()).unwrap();
    push_checkpoint(&addr, "bt4", &mini_ckpt(3).encode()).unwrap();
    let (_, listing_before) = get(&addr, "/runs");
    first.shutdown();

    let second = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = second.addr().to_string();
    let (status, listing_after) = get(&addr, "/runs");
    assert_eq!(status, 200);
    assert_eq!(listing_after, listing_before, "rehydrated state drifted");
    let (status, body) = get(&addr, "/runs/bt4/summarize");
    assert_eq!(status, 200);
    assert_eq!(body, query::summarize_json(&journal));
    second.shutdown();
}

// ---------------------------------------------------------------------
// 6. Graceful shutdown over the wire
// ---------------------------------------------------------------------

#[test]
fn post_shutdown_stops_the_daemon() {
    let (server, addr) = start("shutdown", 4);
    let (status, body) = post(&addr, "/shutdown", &[]);
    assert_eq!(status, 200);
    assert_eq!(body, "{\"ok\":true,\"stopping\":true}\n");
    // All workers exit; wait() returns rather than hanging the test.
    let handle = std::thread::spawn(move || server.wait());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !handle.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "wait() hung after shutdown"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle.join().unwrap();
}

// ---------------------------------------------------------------------
// 7. Rehydration corruption table
// ---------------------------------------------------------------------

/// Each row of the table damages exactly one on-disk artifact; restart
/// must quarantine that artifact alone (with the right typed reason in
/// `/metrics`), and every undamaged session keeps serving.
#[test]
fn rehydration_quarantines_each_corruption_and_serves_the_rest() {
    let data = scratch("corruption");
    let cfg = ServeConfig {
        data_dir: data.clone(),
        cache_entries: 4,
        threads: 2,
        ..ServeConfig::default()
    };
    let first = Server::start("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = first.addr().to_string();
    let ids = [
        "r-badmani",
        "r-flip",
        "r-okay",
        "r-orphan",
        "r-trunc",
        "r-zero",
    ];
    for id in ids {
        push_journal(&addr, id, mini_journal(1).to_jsonl().as_bytes()).unwrap();
        push_checkpoint(&addr, id, &mini_ckpt(2).encode()).unwrap();
    }
    first.shutdown();

    let runs = data.join("runs");
    // Truncated journal (manifest length mismatch → torn).
    let p = runs.join("r-trunc/journal.jsonl");
    let b = std::fs::read(&p).unwrap();
    std::fs::write(&p, &b[..b.len() / 3]).unwrap();
    // Zero-byte checkpoint (length mismatch → torn).
    std::fs::write(runs.join("r-zero/ckpt-2.bin"), b"").unwrap();
    // Bit-flipped checkpoint: length intact, CRC wrong → corrupt.
    let p = runs.join("r-flip/ckpt-2.bin");
    let mut b = std::fs::read(&p).unwrap();
    let mid = b.len() / 2;
    b[mid] ^= 0x01;
    std::fs::write(&p, &b).unwrap();
    // A leftover staging file (torn) and an uncommitted blob (orphaned).
    std::fs::write(runs.join("r-orphan/ckpt-9.bin.tmp"), b"torn prefi").unwrap();
    std::fs::write(runs.join("r-orphan/ckpt-8.bin"), b"never committed").unwrap();
    // A garbled MANIFEST condemns everything under it.
    std::fs::write(runs.join("r-badmani/MANIFEST"), "not a manifest\n").unwrap();

    let second = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = second.addr().to_string();

    // Sessions whose journal survived serve it byte-identically.
    let want = query::summarize_json(&mini_journal(1));
    for id in ["r-flip", "r-okay", "r-orphan", "r-zero"] {
        let (status, body) = get(&addr, &format!("/runs/{id}/summarize"));
        assert_eq!(status, 200, "{id}: {body}");
        assert_eq!(body, want, "{id} journal bytes drifted through recovery");
    }
    // r-trunc lost its journal but not its checkpoint sketch.
    let (status, body) = get(&addr, "/runs/r-trunc/summarize");
    assert_eq!(status, 404, "truncated journal must not be served: {body}");
    // r-badmani is gone entirely.
    let (status, _) = get(&addr, "/runs/r-badmani/summarize");
    assert_eq!(status, 404);
    let (status, listing) = get(&addr, "/runs");
    assert_eq!(status, 200);
    assert!(!listing.contains("r-badmani"), "{listing}");
    assert!(
        listing.contains("r-trunc"),
        "ckpt-only session listed: {listing}"
    );

    // The typed quarantine ledger: truncated journal + zeroed ckpt +
    // leftover .tmp are torn; the bit-flip is corrupt; the uncommitted
    // blob is orphaned; the garbled manifest condemns its whole dir.
    let (_, m) = get(&addr, "/metrics");
    assert_eq!(json_u64(&m, "torn"), 3, "{m}");
    assert_eq!(json_u64(&m, "corrupt"), 1, "{m}");
    assert_eq!(json_u64(&m, "orphaned"), 1, "{m}");
    assert_eq!(json_u64(&m, "bad_manifest"), 3, "{m}");
    assert_eq!(json_u64(&m, "total"), 8, "{m}");
    assert_eq!(json_u64(&m, "sessions_live"), 5, "{m}");

    // Quarantined bytes are moved aside (`quarantine/<run>/<file>`),
    // not deleted.
    let mut moved = 0usize;
    for run in std::fs::read_dir(data.join("quarantine")).unwrap() {
        moved += std::fs::read_dir(run.unwrap().path()).unwrap().count();
    }
    assert_eq!(moved, 8, "quarantine/ holds every condemned file");
    second.shutdown();
}

// ---------------------------------------------------------------------
// 8. Torn-write crash simulation: restart serves committed goldens
// ---------------------------------------------------------------------

#[test]
fn torn_mid_ingest_crash_recovers_committed_sessions_byte_identical() {
    let data = scratch("crashsim");
    let clean = ServeConfig {
        data_dir: data.clone(),
        cache_entries: 4,
        threads: 2,
        ..ServeConfig::default()
    };
    let text = bt4_text();
    let first = Server::start("127.0.0.1:0", clean.clone()).unwrap();
    push_journal(&first.addr().to_string(), "bt4", text.as_bytes()).unwrap();
    first.shutdown();

    // Second daemon tears every spill write — each ingest dies exactly
    // as a crash mid-`write(2)` would, leaving a partial `.tmp` behind.
    let faulty = ServeConfig {
        faults: Some(SvcFaultPlan {
            torn_per_mille: 1000,
            ..SvcFaultPlan::new(0xC4A5)
        }),
        ..clean.clone()
    };
    let second = Server::start("127.0.0.1:0", faulty).unwrap();
    let err = push_journal_with(
        &second.addr().to_string(),
        "victim",
        mini_journal(9).to_jsonl().as_bytes(),
        &RetryPolicy::once(),
    )
    .expect_err("torn spill cannot commit");
    assert!(
        matches!(err, PushError::Transport { .. }),
        "torn spill surfaces as a retryable server error: {err}"
    );
    second.shutdown();
    assert!(
        data.join("runs/victim/journal.jsonl.tmp").exists(),
        "the tear left its staging file"
    );

    // Clean restart: the torn staging file is quarantined, the victim
    // session never existed, and the committed session's bytes match
    // the goldens pinned by test 1 exactly.
    let third = Server::start("127.0.0.1:0", clean).unwrap();
    let addr = third.addr().to_string();
    let (status, body) = get(&addr, "/runs/bt4/summarize");
    assert_eq!(status, 200, "{body}");
    assert_golden("serve/bt4_summarize.json", &body);
    let (status, body) = get(&addr, "/runs/bt4/metrics");
    assert_eq!(status, 200);
    assert_golden("serve/bt4_metrics.json", &body);
    let (status, _) = get(&addr, "/runs/victim/summarize");
    assert_eq!(status, 404, "uncommitted ingest must not resurrect");
    let (_, m) = get(&addr, "/metrics");
    assert!(json_u64(&m, "torn") >= 1, "{m}");
    third.shutdown();
}

// ---------------------------------------------------------------------
// 9. Seeded fault storm: the retrying push converges idempotently
// ---------------------------------------------------------------------

/// Ten seeds of a fault plan that tears spills and drops connections on
/// both sides of processing. The drop-post case is the acid test: the
/// daemon committed but the client never heard, so the retry re-sends
/// and must land on the content-digest dedupe path, not double-ingest.
/// All coins are seeded, so a failing seed replays exactly.
#[test]
fn seeded_fault_storm_converges_to_successful_idempotent_push() {
    let text = bt4_text();
    let journal = RunJournal::from_jsonl(&text).unwrap();
    let want = query::summarize_json(&journal);
    for seed in 0..10u64 {
        let data = scratch(&format!("storm{seed}"));
        let cfg = ServeConfig {
            data_dir: data.clone(),
            cache_entries: 4,
            threads: 2,
            faults: Some(SvcFaultPlan {
                torn_per_mille: 200,
                drop_pre_per_mille: 200,
                drop_post_per_mille: 200,
                ..SvcFaultPlan::new(seed)
            }),
            ..ServeConfig::default()
        };
        let server = Server::start("127.0.0.1:0", cfg).unwrap();
        let addr = server.addr().to_string();
        let policy = RetryPolicy {
            attempts: 20,
            base: std::time::Duration::from_millis(2),
            cap: std::time::Duration::from_millis(40),
            seed,
        };
        push_journal_with(&addr, "bt4", text.as_bytes(), &policy)
            .unwrap_or_else(|e| panic!("seed {seed}: journal push did not converge: {e}"));
        push_checkpoint_with(&addr, "bt4", &mini_ckpt(5).encode(), &policy)
            .unwrap_or_else(|e| panic!("seed {seed}: ckpt push did not converge: {e}"));
        server.shutdown();

        // What converged is durably committed: a clean restart serves
        // exactly one copy of the run with renderer-identical bytes.
        let clean = ServeConfig {
            data_dir: data,
            cache_entries: 4,
            threads: 2,
            ..ServeConfig::default()
        };
        let check = Server::start("127.0.0.1:0", clean).unwrap();
        let addr = check.addr().to_string();
        let (status, body) = get(&addr, "/runs/bt4/summarize");
        assert_eq!(status, 200, "seed {seed}: {body}");
        assert_eq!(body, want, "seed {seed}: recovered bytes drifted");
        check.shutdown();
    }
}

// ---------------------------------------------------------------------
// 10. Content-digest dedupe and hot-session eviction in /metrics
// ---------------------------------------------------------------------

#[test]
fn dedupe_and_hot_session_eviction_show_in_metrics() {
    let cfg = ServeConfig {
        data_dir: scratch("evict"),
        cache_entries: 8,
        threads: 2,
        hot_sessions: 2,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr().to_string();
    let mut receipts = Vec::new();
    for tag in 0..3u64 {
        let (status, r) = post(
            &addr,
            &format!("/runs/run{tag}/journal"),
            mini_journal(tag).to_jsonl().as_bytes(),
        );
        assert_eq!(status, 200, "{r}");
        receipts.push(r);
    }
    // run0's hot state was evicted to its manifest-backed spill by now;
    // re-pushing the same bytes rehydrates it, matches the stored
    // digest, and answers with the byte-identical receipt — a cheap 200
    // that never rewrites the committed artifact.
    let before = std::fs::metadata(server.data_dir().join("runs/run0/journal.jsonl"))
        .unwrap()
        .modified()
        .unwrap();
    let (status, again) = post(
        &addr,
        "/runs/run0/journal",
        mini_journal(0).to_jsonl().as_bytes(),
    );
    assert_eq!(status, 200);
    assert_eq!(again, receipts[0], "dedupe receipt is byte-identical");
    let after = std::fs::metadata(server.data_dir().join("runs/run0/journal.jsonl"))
        .unwrap()
        .modified()
        .unwrap();
    assert_eq!(before, after, "dedupe must not rewrite the spill");

    let (_, m) = get(&addr, "/metrics");
    assert_eq!(json_u64(&m, "journals_ingested"), 3, "{m}");
    assert!(json_u64(&m, "ingest_deduped") >= 1, "{m}");
    assert!(json_u64(&m, "sessions_evicted") >= 1, "{m}");
    assert!(json_u64(&m, "sessions_rehydrated") >= 1, "{m}");
    // Eviction is not forgetting: all three sessions stay queryable.
    assert_eq!(json_u64(&m, "sessions_live"), 3, "{m}");
    for tag in 0..3u64 {
        let (status, body) = get(&addr, &format!("/runs/run{tag}/summarize"));
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, query::summarize_json(&mini_journal(tag)));
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// 11. ENOSPC degrades to read-only: ingest 503, queries keep serving
// ---------------------------------------------------------------------

#[test]
fn injected_enospc_degrades_to_read_only_but_keeps_queries() {
    let cfg = ServeConfig {
        data_dir: scratch("enospc"),
        cache_entries: 4,
        threads: 2,
        faults: Some(SvcFaultPlan {
            enospc_after_bytes: Some(4096),
            ..SvcFaultPlan::new(1)
        }),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr().to_string();
    // The small run fits under the budget…
    push_journal(&addr, "small", mini_journal(7).to_jsonl().as_bytes()).unwrap();
    // …bt4 (≈18 KiB) blows it: the disk "fills" and the store flips
    // read-only instead of crashing or half-writing.
    let (status, body) = post(&addr, "/runs/big/journal", bt4_text().as_bytes());
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("read-only"), "{body}");
    let (status, _) = post(&addr, "/runs/small/checkpoint", &mini_ckpt(1).encode());
    assert_eq!(status, 503, "read-only rejects all ingest");
    // Queries on already-committed state still serve.
    let (status, body) = get(&addr, "/runs/small/summarize");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, query::summarize_json(&mini_journal(7)));
    let (status, m) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(m.contains("\"read_only\":true"), "{m}");
    assert!(json_u64(&m, "read_only_rejects_503") >= 2, "{m}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// 12. Slow-loris clients hit the header/body deadlines: 408
// ---------------------------------------------------------------------

#[test]
fn slow_loris_clients_get_408() {
    use std::io::{Read, Write};
    let cfg = ServeConfig {
        data_dir: scratch("loris"),
        cache_entries: 4,
        threads: 2,
        header_deadline: std::time::Duration::from_millis(150),
        body_deadline: std::time::Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr().to_string();

    // Head never finishes.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(b"POST /runs/x/journal HTTP/1.1\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 408"), "stalled head: {buf}");

    // Head complete, promised body never arrives.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.write_all(b"POST /runs/x/journal HTTP/1.1\r\ncontent-length: 10\r\n\r\n")
        .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 408"), "stalled body: {buf}");

    let (_, m) = get(&addr, "/metrics");
    assert!(json_u64(&m, "request_timeouts_408") >= 2, "{m}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// 13. Full accept backlog sheds load with 429
// ---------------------------------------------------------------------

#[test]
fn full_backlog_sheds_with_429() {
    // One worker, a one-deep queue, and a 200 ms injected delay per
    // response: a burst of 8 concurrent probes cannot all fit, so the
    // acceptor sheds the overflow with 429 + retry-after instead of
    // queueing unboundedly.
    let cfg = ServeConfig {
        data_dir: scratch("shed"),
        cache_entries: 4,
        threads: 1,
        backlog: 1,
        faults: Some(SvcFaultPlan {
            delay_ms: 200,
            ..SvcFaultPlan::new(0)
        }),
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr().to_string();
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || get(&addr, "/healthz").0)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(statuses.contains(&200), "{statuses:?}");
    assert!(statuses.contains(&429), "{statuses:?}");
    // Every probe got an answer — shed, not hung.
    assert_eq!(statuses.len(), 8);
    let (_, m) = get(&addr, "/metrics");
    assert!(json_u64(&m, "load_shed_429") >= 1, "{m}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// 14. The ingest path touches a body once per concern
// ---------------------------------------------------------------------

#[test]
fn first_pushes_never_rehydrate_and_an_evicted_run_rehydrates_once() {
    // A first push must not read its own spill back: with room for one
    // hot session, four fresh runs leave the rehydration counter at 0
    // (each evicts its predecessor). Only the checkpoint pushed at the
    // long-evicted run0 is a demand rehydration, and it is exactly one.
    let store = SessionStore::open_with(&scratch("onepass"), 8, 1, None).unwrap();
    let t = Telemetry::new();
    for tag in 0..4u64 {
        let receipt = store
            .ingest_journal(
                &format!("run{tag}"),
                &mini_journal(tag).to_jsonl(),
                Some(&t),
            )
            .unwrap();
        assert!(!receipt.deduped);
    }
    assert_eq!(t.get(SvcCounter::SessionRehydrations), 0);
    assert_eq!(t.get(SvcCounter::SessionEvictions), 3);
    assert_eq!(store.hot_sessions(), 1);

    let receipt = store
        .ingest_checkpoint("run0", &mini_ckpt(3).encode(), Some(&t))
        .unwrap();
    assert_eq!((receipt.marker, receipt.deduped), (3, false));
    assert_eq!(t.get(SvcCounter::SessionRehydrations), 1);
    // The rehydrated session is the journal it spilled plus the new blob.
    let run0 = store.session("run0").unwrap();
    assert_eq!(
        run0.journal_digest,
        Some(fnv64(mini_journal(0).to_jsonl().as_bytes()))
    );
    assert_eq!(run0.ckpt_markers, vec![3]);
    // A checkpoint-first run starts from the empty session too.
    store
        .ingest_checkpoint("ckpt-first", &mini_ckpt(5).encode(), Some(&t))
        .unwrap();
    assert_eq!(t.get(SvcCounter::SessionRehydrations), 1);
    let fresh = store.session("ckpt-first").unwrap();
    assert!(!fresh.has_journal());
    assert_eq!(fresh.ckpt_markers, vec![5]);
}

#[test]
fn non_canonical_upload_is_committed_in_canonical_form() {
    // Valid floats in a spelling the encoder never writes: the body is
    // accepted, but everything durable — spill, manifest stamp, digest,
    // dedupe key — is taken from the canonical re-encoding.
    let journal = mini_journal(7);
    let canonical = journal.to_jsonl();
    let upload = canonical
        .replace("\"vt\":0.0,", "\"vt\":0.00,")
        .replace("\"tt\":1e-7,", "\"tt\":1.0e-7,");
    assert_ne!(upload, canonical);
    assert_eq!(RunJournal::from_jsonl(&upload).unwrap(), journal);

    let data = scratch("noncanon");
    let cfg = ServeConfig {
        data_dir: data.clone(),
        cache_entries: 4,
        threads: 2,
        ..ServeConfig::default()
    };
    let first = Server::start("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = first.addr().to_string();
    let receipt = push_journal(&addr, "loose", upload.as_bytes()).unwrap();

    let spilled = std::fs::read(data.join("runs/loose/journal.jsonl")).unwrap();
    assert_eq!(spilled, canonical.as_bytes());
    let manifest = std::fs::read_to_string(data.join("runs/loose/MANIFEST")).unwrap();
    let stamp = format!(
        "journal.jsonl crc32={:08x} len={}\n",
        chamserve::util::crc32(canonical.as_bytes()),
        canonical.len()
    );
    assert!(manifest.ends_with(&stamp), "{manifest}");
    let (_, listing) = get(&addr, "/runs");
    let digest = format!("\"journal_digest\":\"{:#x}\"", fnv64(canonical.as_bytes()));
    assert!(listing.contains(&digest), "{listing}");
    // The canonical body now dedupes; the loose spelling is a new body.
    let again = push_journal(&addr, "loose", canonical.as_bytes()).unwrap();
    assert_eq!(again, receipt);
    let (_, m) = get(&addr, "/metrics");
    assert_eq!(json_u64(&m, "journals_ingested"), 1, "{m}");
    assert_eq!(json_u64(&m, "ingest_deduped"), 1, "{m}");
    first.shutdown();

    let second = Server::start("127.0.0.1:0", cfg).unwrap();
    let (status, after) = get(&second.addr().to_string(), "/runs");
    assert_eq!(status, 200);
    assert_eq!(after, listing, "restart rehydrates the same session");
    second.shutdown();
}

#[test]
fn ingested_session_equals_the_one_rebuilt_from_its_spill() {
    // Hot state folded at ingest (no read-back) against hot state rebuilt
    // from disk by a fresh store: every field, journal and checkpoint
    // side, via the derived Debug form.
    let data = scratch("samesession");
    let text = bt4_text();
    let ingested = {
        let store = SessionStore::open(&data, 4).unwrap();
        store.ingest_journal("bt4", &text, None).unwrap();
        store
            .ingest_checkpoint("bt4", &mini_ckpt(3).encode(), None)
            .unwrap();
        store.session("bt4").unwrap()
    };
    let journal = RunJournal::from_jsonl(&text).unwrap();
    assert_eq!(
        ingested.journal_digest,
        Some(fnv64(journal.to_jsonl().as_bytes()))
    );
    assert_eq!(
        ingested.journal_body,
        Some((chamserve::util::crc32(text.as_bytes()), text.len() as u64))
    );
    let rebuilt = SessionStore::open(&data, 4)
        .unwrap()
        .session("bt4")
        .unwrap();
    assert_eq!(format!("{ingested:?}"), format!("{rebuilt:?}"));
}

// ---------------------------------------------------------------------
// 15. The routes the query table answers, and the ones it does not
// ---------------------------------------------------------------------

/// `GET /` and every way a query route can fail, pinned to status and
/// body; `queries_served` counts the 200 query answers and nothing else.
#[test]
fn route_error_table_is_pinned_and_only_answers_count_as_queries() {
    let (server, addr) = start("routes", 8);
    push_journal(&addr, "bt4", bt4_text().as_bytes()).expect("push");
    let (status, body) = get(&addr, "/");
    assert_eq!(status, 200);
    assert_eq!(
        body,
        format!(
            r#"{{"service":"chamserve","addr":"{addr}","endpoints":["GET /healthz","GET /metrics","GET /runs","POST /runs/<id>/journal","POST /runs/<id>/checkpoint","GET /runs/<id>/summarize","GET /runs/<id>/timeline/<rank>","GET /runs/<id>/spans","GET /runs/<id>/metrics","GET /runs/<id>/anomalies","GET /runs/<id>/diff/<other>","POST /shutdown"]}}"#
        ) + "\n"
    );
    let table = [
        (
            "GET",
            "/runs/bt4/timeline/abc",
            400,
            r#"invalid rank \"abc\""#,
        ),
        (
            "GET",
            "/runs/bt4/timeline/99",
            400,
            "rank 99 out of range (world size 4)",
        ),
        (
            "GET",
            "/runs/bt4/timeline",
            404,
            "no route for GET /runs/bt4/timeline",
        ),
        (
            "GET",
            "/runs/bt4/bogus",
            404,
            "no route for GET /runs/bt4/bogus",
        ),
        (
            "GET",
            "/runs/bt4/diff/nosuch",
            404,
            r#"unknown run \"nosuch\""#,
        ),
        (
            "POST",
            "/runs/bt4/spans",
            404,
            "no route for POST /runs/bt4/spans",
        ),
    ];
    for (method, path, want_status, want_error) in table {
        let (status, body) = http::request(&addr, method, path, &[], TIMEOUT).expect(path);
        let body = String::from_utf8(body).expect("UTF-8 body");
        assert_eq!(
            (status, body),
            (want_status, format!("{{\"error\":\"{want_error}\"}}\n")),
            "{method} {path}"
        );
    }
    for path in [
        "/runs/bt4/summarize",
        "/runs/bt4/timeline/0",
        "/runs/bt4/diff/bt4",
    ] {
        assert_eq!(get(&addr, path).0, 200, "{path}");
    }
    let (_, m) = get(&addr, "/metrics");
    assert_eq!(json_u64(&m, "queries_served"), 3, "{m}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// 16. Checkpoints dedupe by marker
// ---------------------------------------------------------------------

/// A committed marker is the checkpoint dedupe key: different bytes
/// under that marker get the 200 receipt naming it, and the committed
/// blob, its mtime and its `MANIFEST` stamp stay exactly as they were.
#[test]
fn checkpoint_with_a_committed_marker_but_new_bytes_is_deduped() {
    let data = scratch("ckptmarker");
    let cfg = ServeConfig {
        data_dir: data.clone(),
        cache_entries: 4,
        threads: 2,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr().to_string();
    let first = mini_ckpt(4).encode();
    let (status, receipt) = post(&addr, "/runs/c/checkpoint", &first);
    assert_eq!(status, 200, "{receipt}");
    assert_eq!(receipt, "{\"ok\":true,\"run\":\"c\",\"marker\":4}\n");
    let blob = data.join("runs/c/ckpt-4.bin");
    let manifest = data.join("runs/c/MANIFEST");
    let mtime = || std::fs::metadata(&blob).unwrap().modified().unwrap();
    let (before_mtime, before_manifest) = (mtime(), std::fs::read_to_string(&manifest).unwrap());
    let (_, before_listing) = get(&addr, "/runs");

    let other = Checkpoint {
        old_call_path: CallPathSig(0xbeef),
        journal_hwm: 9,
        ..mini_ckpt(4)
    }
    .encode();
    assert_ne!(other, first, "same marker, different bytes");
    let (status, again) = post(&addr, "/runs/c/checkpoint", &other);
    assert_eq!(status, 200, "{again}");
    assert_eq!(again, receipt, "the deduped receipt names the marker");

    assert_eq!(std::fs::read(&blob).unwrap(), first, "blob bytes kept");
    assert_eq!(mtime(), before_mtime, "blob never rewritten");
    let after_manifest = std::fs::read_to_string(&manifest).unwrap();
    assert_eq!(after_manifest, before_manifest, "MANIFEST stamp kept");
    let stamp = format!(
        "ckpt-4.bin crc32={:08x} len={}\n",
        chamserve::util::crc32(&first),
        first.len()
    );
    assert!(after_manifest.ends_with(&stamp), "{after_manifest}");
    assert_eq!(get(&addr, "/runs").1, before_listing, "sketch merged once");
    let (_, m) = get(&addr, "/metrics");
    assert_eq!(json_u64(&m, "ckpts_ingested"), 1, "{m}");
    assert_eq!(json_u64(&m, "ingest_deduped"), 1, "{m}");
    server.shutdown();

    // The store's own receipt says so too.
    let store = SessionStore::open(&data, 4).unwrap();
    let r = store.ingest_checkpoint("c", &other, None).unwrap();
    assert_eq!((r.marker, r.deduped), (4, true));
    assert_eq!(std::fs::read(&blob).unwrap(), first);
}

/// A duplicate checkpoint pushed at an evicted (cold) session is
/// deduped after exactly one demand rehydration.
#[test]
fn duplicate_checkpoint_to_a_cold_session_rehydrates_once_and_dedupes() {
    let cfg = ServeConfig {
        data_dir: scratch("ckptcold"),
        cache_entries: 4,
        threads: 2,
        hot_sessions: 1,
        ..ServeConfig::default()
    };
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr().to_string();
    let blob = mini_ckpt(3).encode();
    let (status, receipt) = post(&addr, "/runs/cold/checkpoint", &blob);
    assert_eq!(status, 200, "{receipt}");
    // A push at another run evicts `cold` to its manifest-backed stub.
    let (status, _) = post(
        &addr,
        "/runs/other/journal",
        mini_journal(1).to_jsonl().as_bytes(),
    );
    assert_eq!(status, 200);
    let (_, m) = get(&addr, "/metrics");
    assert_eq!(json_u64(&m, "sessions_evicted"), 1, "{m}");
    assert_eq!(json_u64(&m, "sessions_rehydrated"), 0, "{m}");

    let (status, again) = post(&addr, "/runs/cold/checkpoint", &blob);
    assert_eq!(status, 200, "{again}");
    assert_eq!(again, receipt);
    let (_, m) = get(&addr, "/metrics");
    assert_eq!(json_u64(&m, "sessions_rehydrated"), 1, "{m}");
    assert_eq!(json_u64(&m, "ingest_deduped"), 1, "{m}");
    assert_eq!(json_u64(&m, "ckpts_ingested"), 1, "{m}");
    // The sketch still carries the one checkpoint's two ranks.
    let (_, listing) = get(&addr, "/runs");
    assert!(
        listing.contains("\"ckpt_markers\":[3],\"ckpt_ranks\":2"),
        "{listing}"
    );
    server.shutdown();
}
