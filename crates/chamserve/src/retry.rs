//! Idempotent retrying push: the client half of crash-safety.
//!
//! A workflow outlives its trace service and vice versa — `matrix run
//! --push` and `chaos supervise --push` must survive a flapping daemon,
//! and the daemon must survive clients that vanish mid-upload. The
//! client's side of that contract:
//!
//! - every upload carries a `Content-Crc32` header the server verifies
//!   *before* touching session state, so a body corrupted in transit can
//!   never poison a session;
//! - transport failures (connect refused, reset mid-send, lost response)
//!   and retryable statuses (408/422/429/500/503) are retried under a
//!   seeded-jitter exponential backoff [`RetryPolicy`] — the same shape
//!   as the mpisim reliable protocol's retransmit backoff, on wall time;
//! - retrying is *safe* because the server dedupes a journal by content
//!   digest and a checkpoint by marker: a duplicate of an
//!   already-accepted upload is a 200 with the original receipt, so
//!   "response lost after commit" converges instead of double-ingesting.
//!
//! Semantic rejections (a 400 with a parser diagnostic) are never
//! retried — resending a malformed journal cannot fix it.

use std::time::Duration;

use obs::wire::backoff_factor;

use crate::http;
use crate::util::{crc32, splitmix64};

/// Seeded-jitter exponential backoff for push retries: `base` times
/// [`obs::wire::backoff_factor`], the same curve
/// `mpisim::Proc::retransmit_backoff` follows — but on *wall* time, since
/// the client is a real process talking to a real socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (>= 1); `attempts = 1` disables retrying.
    pub attempts: u32,
    /// Base delay before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0xC4A3_5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt).
    pub fn once() -> Self {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry number `attempt` (1-based: the sleep
    /// after the `attempt`-th failure). `coord` folds the transfer
    /// identity (e.g. a hash of the run ID) into the jitter so concurrent
    /// pushers under one seed do not thundering-herd in lock step.
    pub fn backoff(&self, attempt: u32, coord: u64) -> Duration {
        let delay = self.base.as_secs_f64() * backoff_factor(self.seed, &[coord], attempt);
        Duration::from_secs_f64(delay).min(self.cap)
    }
}

/// Why a push ultimately failed, after the policy's budget ran out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError {
    /// The server answered with a non-retryable status (a semantic
    /// rejection — malformed body, bad run ID). Never retried.
    Rejected {
        /// The HTTP status.
        status: u16,
        /// The server's JSON error body, trimmed.
        detail: String,
    },
    /// Every attempt failed at the transport layer or with a retryable
    /// status; the last failure is carried verbatim.
    Transport {
        /// Attempts made (== the policy's budget).
        attempts: u32,
        /// The last attempt's failure.
        last: String,
    },
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Rejected { status, detail } => {
                write!(f, "rejected: HTTP {status}: {detail}")
            }
            PushError::Transport { attempts, last } => {
                write!(f, "transport failed after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl std::error::Error for PushError {}

/// Whether a status is worth retrying: request timeouts, transit
/// corruption (the server's `Content-Crc32` verdict), shed load, server
/// errors, and read-only degradation all clear up on their own; any other
/// non-200 is a semantic rejection.
fn retryable(status: u16) -> bool {
    matches!(status, 408 | 422 | 429 | 500 | 503)
}

/// POST `body` at `addr`'s `path` with a `Content-Crc32` header, retrying
/// under `policy`. Returns the server's receipt body on 200.
pub fn post_with_retry(
    addr: &str,
    path: &str,
    body: &[u8],
    policy: &RetryPolicy,
    timeout: Duration,
) -> Result<String, PushError> {
    let crc = crc32(body);
    let coord = splitmix64(crc32(path.as_bytes()) as u64);
    let attempts = policy.attempts.max(1);
    let mut last = String::new();
    for attempt in 1..=attempts {
        let outcome = http::request_with(
            addr,
            "POST",
            path,
            body,
            &[("content-crc32", format!("{crc:08x}"))],
            timeout,
        );
        match outcome {
            Ok((200, resp)) => return Ok(String::from_utf8_lossy(&resp).into_owned()),
            Ok((status, resp)) if retryable(status) => {
                let text = String::from_utf8_lossy(&resp);
                last = format!("HTTP {status}: {}", text.trim_end());
            }
            Ok((status, resp)) => {
                let text = String::from_utf8_lossy(&resp);
                return Err(PushError::Rejected {
                    status,
                    detail: text.trim_end().to_string(),
                });
            }
            Err(e) => last = e,
        }
        if attempt < attempts {
            std::thread::sleep(policy.backoff(attempt, coord));
        }
    }
    Err(PushError::Transport { attempts, last })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let p = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(60),
            seed: 7,
        };
        for attempt in 1..=6u32 {
            let d = p.backoff(attempt, 0xABCD).as_secs_f64();
            let nominal = 0.010 * f64::from(1u32 << (attempt - 1));
            assert!(
                d >= nominal * 0.5 && d < nominal * 1.5,
                "attempt {attempt}: {d}s outside [{}, {})",
                nominal * 0.5,
                nominal * 1.5
            );
        }
        // Deterministic per (seed, coord, attempt); distinct per coord.
        assert_eq!(p.backoff(3, 1), p.backoff(3, 1));
        assert_ne!(p.backoff(3, 1), p.backoff(3, 2));
    }

    #[test]
    fn backoff_respects_the_cap() {
        let p = RetryPolicy {
            attempts: 32,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(250),
            seed: 1,
        };
        for attempt in [4, 8, 16, 31] {
            assert!(p.backoff(attempt, 0) <= Duration::from_millis(250));
        }
    }

    #[test]
    fn retryable_statuses_are_the_degraded_set() {
        for s in [408, 422, 429, 500, 503] {
            assert!(retryable(s), "{s}");
        }
        for s in [400, 404, 405, 411, 413, 431] {
            assert!(!retryable(s), "{s}");
        }
    }

    #[test]
    fn transport_error_names_attempts_and_cause() {
        // Nothing listens on a reserved port 1 — every attempt fails at
        // connect; the error carries the budget and the last cause.
        let policy = RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 3,
        };
        let err = post_with_retry(
            "127.0.0.1:1",
            "/runs/x/journal",
            b"{}",
            &policy,
            Duration::from_millis(500),
        )
        .unwrap_err();
        match &err {
            PushError::Transport { attempts, last } => {
                assert_eq!(*attempts, 2);
                assert!(last.contains("connect"), "{last}");
            }
            other => panic!("expected transport error, got {other}"),
        }
        assert!(err.to_string().contains("after 2 attempt(s)"));
    }
}
