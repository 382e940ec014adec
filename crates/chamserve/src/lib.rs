//! # chamserve — the multi-tenant trace-service daemon
//!
//! `chamtrace serve` turns the one-process/one-run/one-journal rank-0
//! aggregation into a long-lived service: many concurrent runs push
//! their flight-recorder journals and CKPT1 checkpoints at a daemon,
//! which spills them to disk, keeps bounded hot state per session (the
//! associative [`obs::metrics::MetricSet`] merge plus an LRU cache of
//! decoded journals), and serves the whole `obs::query` engine over a
//! hand-rolled HTTP/1.1 plane on `std::net::TcpListener` — the workspace
//! is hermetic, so there is no hyper, no tokio, no serde; just the
//! standard library and the parsers the CLI already trusts.
//!
//! ## Endpoints
//!
//! | method & path | answer |
//! |---|---|
//! | `POST /runs/<id>/journal` | strict JSONL ingest; 400 + line diagnostic on malformed input |
//! | `POST /runs/<id>/checkpoint` | total CKPT1 decode; 400 + offset/CRC diagnostic |
//! | `GET /runs` | all sessions in run-ID order with their hot sketches |
//! | `GET /runs/<id>/<query>[/<arg>]` | one row of [`obs::query::QUERIES`]: `summarize`, `timeline/<rank>`, `spans`, `metrics`, `anomalies`, `diff/<other>` |
//! | `GET /metrics` | the daemon's own telemetry (see below) |
//! | `GET /healthz` | liveness probe |
//! | `POST /shutdown` | graceful stop (used by tests and the CI smoke job) |
//!
//! Query responses are the JSON rendering of the same computed answer
//! the `chamtrace journal <query>` subcommands render — one query table,
//! one core in `obs::query` — so endpoint goldens diff exactly, and
//! CLI-vs-daemon answers can be compared byte for byte. `GET /` lists
//! the query routes off the same table.
//!
//! ## The loop closes
//!
//! The daemon watches itself with the observability plane it serves:
//! request counts and latency sketches ride the same `obs::metrics`
//! histogram machinery clients query through it, exposed at
//! `GET /metrics`. See `OBSERVABILITY.md` "Trace service".
//!
//! ## Crash safety and degraded modes
//!
//! Every spill is a crash-atomic write (temp + fsync + rename + dir
//! fsync) committed into a per-session CRC-stamped `MANIFEST`;
//! rehydration trusts only manifest-committed artifacts and quarantines
//! torn/orphaned/corrupt files with typed reasons visible in
//! `GET /metrics`. Pushes carry a `Content-Crc32` claim the server
//! verifies before touching session state, retries ride a seeded-jitter
//! exponential backoff ([`RetryPolicy`]), and the store dedupes retried
//! journals by content digest and checkpoints by marker — so "response
//! lost after commit" converges instead of double-ingesting. A
//! deterministic [`SvcFaultPlan`] can inject torn writes, connection
//! drops, delays, and ENOSPC to prove all of it under test. See `OBSERVABILITY.md` "Durability & degraded
//! modes" and the service rows of `FAULTS.md`.

pub mod fault;
pub mod http;
pub mod retry;
pub mod store;
pub mod telemetry;
pub mod util;

mod routes;

pub use fault::SvcFaultPlan;
pub use retry::{post_with_retry, PushError, RetryPolicy};
pub use routes::{ServeConfig, Server};
pub use store::{
    validate_run_id, QuarantineReason, QuarantineRecord, Session, SessionStore, StoreError,
};
pub use telemetry::{SvcCounter, SvcHist, Telemetry};

use std::time::Duration;

/// Default client timeout for pushes and smoke queries.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Push a finished run's journal at a daemon (`chamtrace push`, the
/// matrix `--push` hook) under the default retry policy. Returns the
/// daemon's JSON receipt.
pub fn push_journal(addr: &str, run_id: &str, jsonl: &[u8]) -> Result<String, PushError> {
    push_journal_with(addr, run_id, jsonl, &RetryPolicy::default())
}

/// [`push_journal`] under an explicit retry policy.
pub fn push_journal_with(
    addr: &str,
    run_id: &str,
    jsonl: &[u8],
    policy: &RetryPolicy,
) -> Result<String, PushError> {
    post_with_retry(
        addr,
        &format!("/runs/{run_id}/journal"),
        jsonl,
        policy,
        CLIENT_TIMEOUT,
    )
}

/// Push one checkpoint blob at a daemon under the default retry policy.
pub fn push_checkpoint(addr: &str, run_id: &str, blob: &[u8]) -> Result<String, PushError> {
    push_checkpoint_with(addr, run_id, blob, &RetryPolicy::default())
}

/// [`push_checkpoint`] under an explicit retry policy.
pub fn push_checkpoint_with(
    addr: &str,
    run_id: &str,
    blob: &[u8],
    policy: &RetryPolicy,
) -> Result<String, PushError> {
    post_with_retry(
        addr,
        &format!("/runs/{run_id}/checkpoint"),
        blob,
        policy,
        CLIENT_TIMEOUT,
    )
}
