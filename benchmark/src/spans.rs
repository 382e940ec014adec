//! Spans recorded by the benchmark's own code around every public call it
//! makes into the crates. Kept in memory, written out when the run ends.
//!
//! A span has a name (`<crate>.<function>`), a start and an end, the span
//! that caused it, the op it belongs to, and counts taken at the same
//! boundary (bytes, events, `dp_cells`). A span's *self time* is its
//! duration minus its children's: for the outermost `op` span that is the
//! benchmark's own glue, for the others the time inside that crate call.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval. `parent` indexes the same client's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

/// One client thread's span recorder. Switched off (the untraced run) it
/// records nothing and costs one branch per call.
pub struct SpanLog {
    epoch: Option<Instant>,
    op: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A recorder that records nothing.
    pub fn off() -> SpanLog {
        SpanLog {
            epoch: None,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder whose timestamps count from `epoch`.
    pub fn on(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch: Some(epoch),
            ..SpanLog::off()
        }
    }

    /// Ops the following spans belong to.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Run `f` inside a span called `name`, child of the span now open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let Some(epoch) = self.epoch else {
            return f(self);
        };
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns: epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Attach a count to the span now open.
    pub fn count(&mut self, key: &'static str, n: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id as usize].counts.push((key, n));
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span of one client: its duration minus the time its
/// direct children cover. Children of one span run one after another on
/// one thread, so what they cover is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Total self time per span name over all clients, in first-seen order.
pub fn self_time_by_name(clients: &[Vec<Span>]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for spans in clients {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            match totals.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, t)) => *t += own,
                None => totals.push((s.name, own)),
            }
        }
    }
    totals
}

/// The span file: every span of every client, ids made unique across
/// clients, each with its self time.
pub fn to_json(workload: &str, seed: u64, clients: &[Vec<Span>]) -> Json {
    let mut out = Vec::new();
    let mut base = 0u32;
    for (client, spans) in clients.iter().enumerate() {
        for ((i, s), own) in spans.iter().enumerate().zip(self_times(spans)) {
            out.push(Json::obj([
                ("id", Json::Num(f64::from(base + i as u32))),
                (
                    "parent",
                    s.parent
                        .map_or(Json::Null, |p| Json::Num(f64::from(base + p))),
                ),
                ("name", Json::Str(s.name.to_string())),
                ("op", Json::Num(f64::from(s.op))),
                ("client", Json::Num(client as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(own as f64)),
                (
                    "counts",
                    Json::obj(s.counts.iter().map(|(k, n)| (*k, Json::Num(*n as f64)))),
                ),
            ]));
        }
        base += spans.len() as u32;
    }
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        (
            "clock",
            Json::Str("ns since the timed loop started".to_string()),
        ),
        ("spans", Json::Arr(out)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 0,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100) > run [10,60) > inner [20,30); op > replay [60,95)
        let spans = vec![
            span("op", None, 0, 100),
            span("run", Some(0), 10, 60),
            span("inner", Some(1), 20, 30),
            span("replay", Some(0), 60, 95),
        ];
        assert_eq!(self_times(&spans), vec![15, 40, 10, 35]);
        // Self times of one op add up to the op's own duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(
            self_time_by_name(&[spans.clone(), spans]),
            vec![("op", 30), ("run", 80), ("inner", 20), ("replay", 70)]
        );
    }

    #[test]
    fn recorder_nests_and_counts() {
        let mut log = SpanLog::on(Instant::now());
        log.set_op(7);
        let got = log.span("op", |log| {
            log.span("a", |log| log.count("bytes", 3));
            log.span("b", |log| log.span("c", |_| 42))
        });
        assert_eq!(got, 42);
        let spans = log.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            shape,
            vec![
                ("op", None, 7),
                ("a", Some(0), 7),
                ("b", Some(0), 7),
                ("c", Some(2), 7)
            ]
        );
        assert_eq!(spans[1].counts, vec![("bytes", 3)]);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn switched_off_records_nothing() {
        let mut log = SpanLog::off();
        assert_eq!(log.span("op", |log| log.span("a", |_| 1)), 1);
        log.count("bytes", 1);
        assert!(log.into_spans().is_empty());
    }

    #[test]
    fn span_file_ids_are_unique_across_clients() {
        let a = vec![span("op", None, 0, 10), span("x", Some(0), 1, 2)];
        let b = vec![span("op", None, 0, 20), span("x", Some(0), 5, 9)];
        let file = to_json("w", 3, &[a, b]);
        let spans = file.get("spans").and_then(Json::as_arr).unwrap();
        let ids: Vec<_> = spans
            .iter()
            .map(|s| s.get("id").unwrap().as_u64())
            .collect();
        assert_eq!(ids, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(spans[3].get("parent").unwrap().as_u64(), Some(2));
        assert_eq!(spans[3].get("client").unwrap().as_u64(), Some(1));
        assert_eq!(spans[2].get("self_ns").unwrap().as_u64(), Some(16));
        assert_eq!(Json::parse(&file.encode()).unwrap(), file);
    }
}
