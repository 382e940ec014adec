//! The service watches itself with the observability plane it serves.
//!
//! The daemon's own telemetry rides on the *same* `obs::metrics`
//! machinery it exposes to clients: saturating u64 counters in a typed
//! slot array (the [`SvcCounter`] enum mirrors `obs::metrics::Counter`'s
//! idiom) and `obs::metrics::Histogram` sketches for latencies and
//! payload sizes, digested with the same `(count, p50, p99, max)` shape
//! the journal's `snapshot` events use. `GET /metrics` renders the whole
//! set as one canonical JSON object — the loop closes: the query plane's
//! own request latency is queryable through the query plane.

use std::sync::Mutex;

use obs::metrics::Histogram;
use obs::query::JsonObject;

use crate::store::QuarantineCounts;

/// Typed service counters, one slot each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SvcCounter {
    /// Requests accepted (every parsed request, any outcome).
    HttpRequests = 0,
    /// Responses in the 2xx class.
    Http2xx = 1,
    /// Responses in the 4xx class.
    Http4xx = 2,
    /// Responses in the 5xx class.
    Http5xx = 3,
    /// Journal uploads accepted into the store.
    JournalsIngested = 4,
    /// Checkpoint uploads accepted into the store.
    CkptsIngested = 5,
    /// Total body bytes accepted by ingestion endpoints.
    IngestBytes = 6,
    /// Ingestion bodies rejected by the strict parsers.
    IngestRejected = 7,
    /// Query endpoints answered from the decoded-journal cache.
    CacheHits = 8,
    /// Query endpoints that had to re-decode the spilled journal.
    CacheMisses = 9,
    /// Decoded journals evicted by the cache's LRU policy.
    CacheEvictions = 10,
    /// Query-endpoint responses served (the six query routes).
    QueriesServed = 11,
    /// Idle sessions whose hot state was demoted to a cold stub.
    SessionEvictions = 12,
    /// Cold sessions rehydrated on demand from their manifest-backed
    /// spill (at ingest, query, or listing time).
    SessionRehydrations = 13,
    /// Ingest bodies answered from the content-digest dedupe (a retried
    /// duplicate upload — cheap 200, no parse, no disk).
    IngestDeduped = 14,
    /// Uploads rejected with 422 because the body did not match its
    /// `Content-Crc32` claim (corrupted in transit; client retries).
    CrcRejected = 15,
    /// Connections shed with 429 because the accept backlog was full.
    LoadShed = 16,
    /// Requests timed out with 408 (header or body deadline expired).
    RequestTimeouts = 17,
    /// Ingests rejected with 503 while the store was read-only.
    ReadOnlyRejects = 18,
}

impl SvcCounter {
    /// Number of counter slots.
    pub const COUNT: usize = 19;

    /// All counters, in slot order.
    pub const ALL: [SvcCounter; SvcCounter::COUNT] = [
        SvcCounter::HttpRequests,
        SvcCounter::Http2xx,
        SvcCounter::Http4xx,
        SvcCounter::Http5xx,
        SvcCounter::JournalsIngested,
        SvcCounter::CkptsIngested,
        SvcCounter::IngestBytes,
        SvcCounter::IngestRejected,
        SvcCounter::CacheHits,
        SvcCounter::CacheMisses,
        SvcCounter::CacheEvictions,
        SvcCounter::QueriesServed,
        SvcCounter::SessionEvictions,
        SvcCounter::SessionRehydrations,
        SvcCounter::IngestDeduped,
        SvcCounter::CrcRejected,
        SvcCounter::LoadShed,
        SvcCounter::RequestTimeouts,
        SvcCounter::ReadOnlyRejects,
    ];

    /// Stable label, used as the JSON key in `GET /metrics`.
    pub fn label(self) -> &'static str {
        match self {
            SvcCounter::HttpRequests => "http_requests",
            SvcCounter::Http2xx => "http_2xx",
            SvcCounter::Http4xx => "http_4xx",
            SvcCounter::Http5xx => "http_5xx",
            SvcCounter::JournalsIngested => "journals_ingested",
            SvcCounter::CkptsIngested => "ckpts_ingested",
            SvcCounter::IngestBytes => "ingest_bytes",
            SvcCounter::IngestRejected => "ingest_rejected",
            SvcCounter::CacheHits => "cache_hits",
            SvcCounter::CacheMisses => "cache_misses",
            SvcCounter::CacheEvictions => "cache_evictions",
            SvcCounter::QueriesServed => "queries_served",
            SvcCounter::SessionEvictions => "sessions_evicted",
            SvcCounter::SessionRehydrations => "sessions_rehydrated",
            SvcCounter::IngestDeduped => "ingest_deduped",
            SvcCounter::CrcRejected => "crc_rejected",
            SvcCounter::LoadShed => "load_shed_429",
            SvcCounter::RequestTimeouts => "request_timeouts_408",
            SvcCounter::ReadOnlyRejects => "read_only_rejects_503",
        }
    }
}

/// The service histogram family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SvcHist {
    /// Wall-clock request latency, nanoseconds (accept to response flush).
    RequestLatencyNs = 0,
    /// Ingested body sizes, bytes.
    IngestBodyBytes = 1,
    /// Query response sizes, bytes.
    ResponseBytes = 2,
}

impl SvcHist {
    /// Number of histogram slots.
    pub const COUNT: usize = 3;

    /// All histograms, in slot order.
    pub const ALL: [SvcHist; SvcHist::COUNT] = [
        SvcHist::RequestLatencyNs,
        SvcHist::IngestBodyBytes,
        SvcHist::ResponseBytes,
    ];

    /// Stable label, used as the JSON key in `GET /metrics`.
    pub fn label(self) -> &'static str {
        match self {
            SvcHist::RequestLatencyNs => "request_latency_ns",
            SvcHist::IngestBodyBytes => "ingest_body_bytes",
            SvcHist::ResponseBytes => "response_bytes",
        }
    }
}

/// Shared, thread-safe telemetry state for one server instance.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    counters: [u64; SvcCounter::COUNT],
    hists: [Histogram; SvcHist::COUNT],
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            counters: [0; SvcCounter::COUNT],
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

impl Telemetry {
    /// Fresh all-zero telemetry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Bump a counter by `n` (saturating).
    pub fn add(&self, c: SvcCounter, n: u64) {
        let mut g = self.inner.lock().expect("telemetry lock");
        let slot = &mut g.counters[c as usize];
        *slot = slot.saturating_add(n);
    }

    /// Record one value into a histogram sketch.
    pub fn observe(&self, h: SvcHist, v: u64) {
        self.inner.lock().expect("telemetry lock").hists[h as usize].record(v);
    }

    /// One counter's current value.
    pub fn get(&self, c: SvcCounter) -> u64 {
        self.inner.lock().expect("telemetry lock").counters[c as usize]
    }

    /// Render the whole set as one canonical JSON object (trailing
    /// newline included). `sessions_live`, `cached_journals`,
    /// `quarantined`, and `read_only` are gauges sampled by the caller
    /// from the store.
    pub fn render(
        &self,
        sessions_live: usize,
        cached_journals: usize,
        quarantined: &QuarantineCounts,
        read_only: bool,
    ) -> String {
        let g = self.inner.lock().expect("telemetry lock");
        let mut out = String::from("{\"service\":\"chamserve\"");
        out.push_str(&format!(",\"sessions_live\":{sessions_live}"));
        out.push_str(&format!(",\"cached_journals\":{cached_journals}"));
        out.push_str(&format!(",\"read_only\":{read_only}"));
        out.push_str(&format!(
            ",\"quarantined\":{{\"torn\":{},\"corrupt\":{},\"orphaned\":{},\"bad_manifest\":{},\"total\":{}}}",
            quarantined.torn,
            quarantined.corrupt,
            quarantined.orphaned,
            quarantined.bad_manifest,
            quarantined.total()
        ));
        let counters = JsonObject(SvcCounter::ALL.map(|c| (c.label(), g.counters[c as usize])));
        let hists = JsonObject(SvcHist::ALL.map(|h| (h.label(), g.hists[h as usize].digest())));
        out.push_str(&format!(",\"counters\":{counters},\"hists\":{hists}}}\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_slots_match() {
        let mut labels: Vec<&str> = SvcCounter::ALL.iter().map(|c| c.label()).collect();
        labels.extend(SvcHist::ALL.iter().map(|h| h.label()));
        let n = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), n);
        for (i, c) in SvcCounter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, h) in SvcHist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }

    #[test]
    fn render_reports_counts_and_digests() {
        let t = Telemetry::new();
        t.add(SvcCounter::HttpRequests, 3);
        t.observe(SvcHist::RequestLatencyNs, 1000);
        t.observe(SvcHist::RequestLatencyNs, 2000);
        let q = QuarantineCounts {
            torn: 2,
            ..QuarantineCounts::default()
        };
        let r = t.render(2, 1, &q, true);
        assert!(r.starts_with("{\"service\":\"chamserve\""), "{r}");
        assert!(r.contains("\"sessions_live\":2"), "{r}");
        assert!(r.contains("\"read_only\":true"), "{r}");
        assert!(
            r.contains(
                "\"quarantined\":{\"torn\":2,\"corrupt\":0,\"orphaned\":0,\"bad_manifest\":0,\"total\":2}"
            ),
            "{r}"
        );
        assert!(r.contains("\"http_requests\":3"), "{r}");
        assert!(r.contains("\"request_latency_ns\":{\"count\":2"), "{r}");
        assert!(r.ends_with("}\n"), "{r}");
        assert_eq!(t.get(SvcCounter::HttpRequests), 3);
    }
}
