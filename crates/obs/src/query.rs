//! The journal query engine: a journal file is an artifact to *query*,
//! not a grep target.
//!
//! One core, two sinks. Each query is a pure function of a parsed
//! [`RunJournal`], computed once into one typed [`Answer`], and the answer
//! is rendered either as a human-readable report ([`Sink::Text`]) or as
//! one canonical JSON object ([`Sink::Json`]). Both renderings read the
//! same value, so they cannot disagree about a number. [`QUERIES`] is the
//! one table of queries: `chamtrace journal <q>` and the daemon's
//! `GET /runs/<id>/<q>` both look a query up there and answer it through
//! [`Query::serve`], and the daemon's `GET /` endpoint list is read off it.
//!
//! | query | argument | answer |
//! |---|---|---|
//! | `summarize` | — | header, event totals per label and per rank |
//! | `timeline` | a rank | that rank's events in sequence order |
//! | `spans` | — | `merge_level` spans folded per tree level, and the critical path of the reduction wave |
//! | `metrics` | — | every `snapshot` delta as labeled counters and histogram digests, and the totals |
//! | `anomalies` | — | every health-detector flag, and a per-rank rollup |
//! | `diff` | a second run | the *first divergence* of two journals: rank, seq and both sides |
//!
//! Renderings are deterministic: iteration orders are fixed (rank-major,
//! slot order, level order) and floats print with `{:?}` exactly as the
//! journal serializes them. A JSON rendering is one object on one line
//! with a fixed key order, so `chamtrace journal * --json`, the daemon's
//! answers and the goldens under `tests/fixtures/serve/` diff byte for
//! byte.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt::{self, Write};

use crate::event::{AnomalyKind, Event, EventKind};
use crate::journal::{write_event, write_seq, RunJournal, STRING_WRITE};
use crate::metrics::{Counter, Digest, HistId};

/// One decoded `snapshot` event: the world's metric delta for one marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotRow {
    /// Rank the snapshot was recorded on (the reduction root).
    pub rank: usize,
    /// Marker invocation the snapshot closed.
    pub marker: u64,
    /// Ranks whose deltas were merged in.
    pub ranks: u64,
    /// Counter values in [`Counter`] slot order.
    pub ctrs: Vec<u64>,
    /// Histogram digests, [`crate::metrics::HIST_DIGEST_STRIDE`] slots per
    /// [`HistId`].
    pub hists: Vec<u64>,
}

impl SnapshotRow {
    /// One counter's value (0 for a slot the row lacks).
    pub fn ctr(&self, c: Counter) -> u64 {
        self.ctrs.get(c as usize).copied().unwrap_or(0)
    }

    /// One histogram's digest (slots the row lacks read 0).
    pub fn digest(&self, h: HistId) -> Digest {
        Digest::at(&self.hists, h)
    }
}

/// All `snapshot` events in journal order.
pub fn snapshots(journal: &RunJournal) -> Vec<SnapshotRow> {
    journal
        .events()
        .filter_map(|(rank, e)| match &e.kind {
            EventKind::Snapshot {
                marker,
                ranks,
                ctrs,
                hists,
            } => Some(SnapshotRow {
                rank,
                marker: *marker,
                ranks: *ranks,
                ctrs: ctrs.clone(),
                hists: hists.clone(),
            }),
            _ => None,
        })
        .collect()
}

/// One decoded `anomaly` event: a health-detector flag.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyRow {
    /// The flagged rank.
    pub rank: u64,
    /// Marker invocation the flagged delta closed.
    pub marker: u64,
    /// Signal that fired (`slow` or `flaky`).
    pub kind: AnomalyKind,
    /// Floored robust z-score.
    pub score: f64,
    /// Cohort the rank was scored against.
    pub cluster: u64,
}

/// All `anomaly` events in journal order (the detector host emits them
/// marker-ascending, so this is also marker order).
pub fn anomalies(journal: &RunJournal) -> Vec<AnomalyRow> {
    journal
        .events()
        .filter_map(|(_, e)| match &e.kind {
            EventKind::Anomaly {
                rank,
                marker,
                kind,
                score,
                cluster,
            } => Some(AnomalyRow {
                rank: *rank,
                marker: *marker,
                kind: *kind,
                score: *score,
                cluster: *cluster,
            }),
            _ => None,
        })
        .collect()
}

/// Structural diff: `None` when the journals are identical, otherwise a
/// description of the *first* divergence (header, then rank-major by
/// event, then counters implied by events).
pub fn diff(a: &RunJournal, b: &RunJournal) -> Option<String> {
    if a.ranks != b.ranks {
        return Some(format!("world size differs: {} vs {}", a.ranks, b.ranks));
    }
    if a.armed != b.armed {
        return Some(format!("armed flag differs: {} vs {}", a.armed, b.armed));
    }
    for rank in 0..a.ranks {
        let (la, lb) = (a.rank_log(rank), b.rank_log(rank));
        let ea: &[Event] = la.map(|l| l.events.as_slice()).unwrap_or(&[]);
        let eb: &[Event] = lb.map(|l| l.events.as_slice()).unwrap_or(&[]);
        for (i, (x, y)) in ea.iter().zip(eb.iter()).enumerate() {
            if x == y {
                continue;
            }
            let what = if x.kind != y.kind {
                format!("{} vs {}", x.kind.describe(), y.kind.describe())
            } else {
                format!(
                    "same event ({}), timestamps differ: vt {:?} vs {:?}, tt {:?} vs {:?}",
                    x.kind.describe(),
                    x.vt,
                    y.vt,
                    x.tt,
                    y.tt
                )
            };
            return Some(format!("rank {rank} seq {i}: {what}"));
        }
        if ea.len() != eb.len() {
            let (short, long, which) = if ea.len() < eb.len() {
                (ea.len(), eb.len(), "second")
            } else {
                (eb.len(), ea.len(), "first")
            };
            return Some(format!(
                "rank {rank}: logs fork at seq {short}: the {which} journal has {} more event(s) (first extra: {})",
                long - short,
                if ea.len() > eb.len() { &ea[short] } else { &eb[short] }
                    .kind
                    .describe()
            ));
        }
    }
    None
}

// ---------------------------------------------------------------------
// One answer per query, two sinks
// ---------------------------------------------------------------------

/// A query's answer, computed once; [`Answer::render`] turns it into the
/// text report or the canonical JSON object.
#[derive(Debug)]
pub enum Answer<'a> {
    /// `summarize`: world size, armed flag, event count, event totals per
    /// label (label order), and each rank's event count.
    Summarize(usize, bool, usize, BTreeMap<&'static str, u64>, Vec<usize>),
    /// `timeline`: a rank and its events in sequence order.
    Timeline(usize, &'a [Event]),
    /// `spans`: the `merge_level` span count, the spans folded per level
    /// (level order), and the critical path (`None` without spans).
    Spans(usize, Vec<LevelSpan>, Option<CriticalPath>),
    /// `metrics`: every snapshot, and each counter's total over them.
    Metrics(Vec<SnapshotRow>, [u64; Counter::COUNT]),
    /// `anomalies`: every flag in journal order, and the per-rank rollup
    /// in rank order.
    Anomalies(Vec<AnomalyRow>, Vec<RankFlags>),
    /// `diff`: the two runs' names and their first divergence, if any.
    Diff([&'a str; 2], Option<String>),
}

/// One tree level's `merge_level` spans, folded over the ranks that ran it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelSpan {
    /// Tree level (`RadixTree::depth`: root = 0).
    pub level: u64,
    /// Spans folded: one per rank that ran the level.
    pub ranks: usize,
    /// Pairwise merges, summed.
    pub merges: u64,
    /// LCS cells touched, summed.
    pub dp_cells: u64,
    /// Merges served by the fast path, summed.
    pub fast_path: u64,
    /// Earliest start, tool time.
    pub t0: f64,
    /// Latest end, tool time.
    pub t1: f64,
}

/// The critical path of the merge waves: the wall from the earliest span
/// start to the latest span end, and the single slowest rank-level span,
/// which bounds it from below.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// First start to last end.
    pub wall: f64,
    /// Rank that ran the slowest span.
    pub rank: usize,
    /// Tree level of the slowest span.
    pub level: u64,
    /// Width of the slowest span.
    pub width: f64,
}

/// One flagged rank's rollup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankFlags {
    /// The flagged rank.
    pub rank: u64,
    /// Flags raised against it.
    pub flags: usize,
    /// Signals that fired, sorted, each once.
    pub kinds: Vec<&'static str>,
    /// The first flagged marker: the detection latency the matrix scorer
    /// uses.
    pub first_marker: u64,
}

/// The two renderings of an [`Answer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// The human-readable report `chamtrace journal <q>` prints.
    Text,
    /// One canonical JSON object on one line: what `--json` prints and
    /// the daemon serves.
    Json,
}

impl Answer<'_> {
    /// Render this answer through `sink`.
    pub fn render(&self, sink: Sink) -> String {
        let mut out = String::new();
        match sink {
            Sink::Text => self.write_text(&mut out),
            Sink::Json => self.write_json(&mut out),
        }
        .expect(STRING_WRITE);
        out
    }

    fn write_text(&self, out: &mut String) -> fmt::Result {
        match self {
            Answer::Summarize(ranks, armed, events, counters, per_rank) => {
                let armed = if *armed { "yes" } else { "no" };
                writeln!(
                    out,
                    "obs journal: ranks={ranks} armed={armed} events={events}"
                )?;
                if !counters.is_empty() {
                    out.push(' ');
                    for (label, n) in counters {
                        write!(out, " {label}={n}")?;
                    }
                    out.push('\n');
                }
                for (rank, n) in per_rank.iter().enumerate() {
                    writeln!(out, "  rank {rank}: {n} events")?;
                }
            }
            Answer::Timeline(rank, events) => {
                writeln!(out, "rank {rank}: {} events", events.len())?;
                for e in *events {
                    let what = e.kind.describe();
                    writeln!(
                        out,
                        "  seq {:>4}  vt {:?}  tt {:?}  {what}",
                        e.seq, e.vt, e.tt
                    )?;
                }
            }
            Answer::Spans(_, _, None) => out.push_str("no merge_level spans recorded\n"),
            Answer::Spans(spans, levels, Some(cp)) => {
                writeln!(out, "{spans} merge spans over {} levels", levels.len())?;
                for l in levels {
                    writeln!(
                        out,
                        "  level {}: ranks={} merges={} dp_cells={} fast_path={} t0={:?} t1={:?} width={:?}",
                        l.level, l.ranks, l.merges, l.dp_cells, l.fast_path, l.t0, l.t1, l.t1 - l.t0
                    )?;
                }
                writeln!(
                    out,
                    "  critical path: {:?} (first t0 to last t1); slowest span rank {} level {} at {:?}",
                    cp.wall, cp.rank, cp.level, cp.width
                )?;
            }
            Answer::Metrics(rows, _) if rows.is_empty() => {
                out.push_str("no snapshot events recorded (run with the recorder on)\n")
            }
            Answer::Metrics(rows, totals) => {
                writeln!(out, "{} snapshots", rows.len())?;
                for row in rows {
                    write!(out, "  marker {} (ranks={}):", row.marker, row.ranks)?;
                    let mut quiet = true;
                    for c in Counter::ALL.into_iter().filter(|c| row.ctr(*c) != 0) {
                        write!(out, " {}={}", c.label(), row.ctr(c))?;
                        quiet = false;
                    }
                    out.push_str(if quiet { " (quiet)\n" } else { "\n" });
                    for h in HistId::ALL {
                        let Digest([count, p50, p99, max]) = row.digest(h);
                        if count != 0 {
                            let label = h.label();
                            writeln!(
                                out,
                                "    {label}: count={count} p50={p50} p99={p99} max={max}"
                            )?;
                        }
                    }
                }
                out.push_str("  totals:");
                for c in Counter::ALL {
                    write!(out, " {}={}", c.label(), totals[c as usize])?;
                }
                out.push('\n');
            }
            Answer::Anomalies(flags, _) if flags.is_empty() => {
                out.push_str("no anomaly events recorded (fault-free run, or detector off)\n")
            }
            Answer::Anomalies(flags, per_rank) => {
                writeln!(out, "{} anomaly flags", flags.len())?;
                for f in flags {
                    let kind = f.kind.label();
                    writeln!(
                        out,
                        "  marker {:>4}: rank {} {kind} score={:?} cluster={}",
                        f.marker, f.rank, f.score, f.cluster
                    )?;
                }
                out.push_str("  per rank:\n");
                for r in per_rank {
                    let kinds = r.kinds.join("+");
                    writeln!(
                        out,
                        "    rank {}: flags={} kinds={kinds} first_marker={}",
                        r.rank, r.flags, r.first_marker
                    )?;
                }
            }
            Answer::Diff([a, b], None) => writeln!(out, "identical: {a} and {b}")?,
            Answer::Diff(_, Some(d)) => writeln!(out, "divergence: {d}")?,
        }
        Ok(())
    }

    fn write_json(&self, out: &mut String) -> fmt::Result {
        match self {
            Answer::Summarize(ranks, armed, events, counters, per_rank) => {
                let counters = JsonObject(counters.iter().map(|(label, n)| (*label, *n)));
                write!(
                    out,
                    "{{\"query\":\"summarize\",\"ranks\":{ranks},\"armed\":{armed},\"events\":{events},\"counters\":{counters},\"per_rank\":["
                )?;
                write_seq(out, per_rank, |out, n| write!(out, "{n}"))?;
            }
            Answer::Timeline(rank, events) => {
                write!(out, "{{\"query\":\"timeline\",\"rank\":{rank},\"events\":[")?;
                write_seq(out, *events, |out, e| write_event(out, *rank, e))?;
            }
            Answer::Spans(spans, levels, critical) => {
                write!(out, "{{\"query\":\"spans\",\"spans\":{spans},\"levels\":[")?;
                write_seq(out, levels, |out, l| {
                    write!(
                        out,
                        "{{\"level\":{},\"ranks\":{},\"merges\":{},\"dp_cells\":{},\"fast_path\":{},\"t0\":{:?},\"t1\":{:?},\"width\":{:?}}}",
                        l.level, l.ranks, l.merges, l.dp_cells, l.fast_path, l.t0, l.t1, l.t1 - l.t0
                    )
                })?;
                out.push_str("],\"critical_path\":");
                match critical {
                    None => out.push_str("null"),
                    Some(cp) => write!(
                        out,
                        "{{\"wall\":{:?},\"slowest_rank\":{},\"slowest_level\":{},\"slowest_width\":{:?}}}",
                        cp.wall, cp.rank, cp.level, cp.width
                    )?,
                }
                return out.write_str("}\n");
            }
            Answer::Metrics(rows, totals) => {
                out.push_str("{\"query\":\"metrics\",\"snapshots\":[");
                write_seq(out, rows, |out, row| {
                    let ctrs = JsonObject(Counter::ALL.map(|c| (c.label(), row.ctr(c))));
                    let hists = JsonObject(HistId::ALL.map(|h| (h.label(), row.digest(h))));
                    write!(
                        out,
                        "{{\"rank\":{},\"marker\":{},\"ranks\":{},\"ctrs\":{ctrs},\"hists\":{hists}}}",
                        row.rank, row.marker, row.ranks
                    )
                })?;
                let totals = JsonObject(Counter::ALL.map(|c| (c.label(), totals[c as usize])));
                return writeln!(out, "],\"totals\":{totals}}}");
            }
            Answer::Anomalies(flags, per_rank) => {
                out.push_str("{\"query\":\"anomalies\",\"flags\":[");
                write_seq(out, flags, |out, f| {
                    let kind = f.kind.label();
                    write!(
                        out,
                        "{{\"rank\":{},\"marker\":{},\"kind\":\"{kind}\",\"score\":{:?},\"cluster\":{}}}",
                        f.rank, f.marker, f.score, f.cluster
                    )
                })?;
                out.push_str("],\"per_rank\":[");
                write_seq(out, per_rank, |out, r| {
                    write!(
                        out,
                        "{{\"rank\":{},\"flags\":{},\"kinds\":[",
                        r.rank, r.flags
                    )?;
                    write_seq(out, &r.kinds, |out, k| write!(out, "\"{k}\""))?;
                    write!(out, "],\"first_marker\":{}}}", r.first_marker)
                })?;
            }
            Answer::Diff(_, None) => {
                return out.write_str("{\"query\":\"diff\",\"identical\":true}\n")
            }
            Answer::Diff(_, Some(d)) => {
                let d = json_escape(d);
                return writeln!(
                    out,
                    "{{\"query\":\"diff\",\"identical\":false,\"divergence\":\"{d}\"}}"
                );
            }
        }
        // The arms that end in a list close it and the object here.
        out.write_str("]}\n")
    }
}

/// `summarize`: the header, event totals per label, events per rank.
pub fn summarize(journal: &RunJournal) -> Answer<'_> {
    let mut counters = BTreeMap::new();
    for (_, e) in journal.events() {
        *counters.entry(e.kind.label()).or_insert(0) += 1;
    }
    let per_rank: Vec<usize> = journal.logs.iter().map(|l| l.events.len()).collect();
    let events = per_rank.iter().sum();
    Answer::Summarize(journal.ranks, journal.armed, events, counters, per_rank)
}

/// `timeline`: one rank's events; a rank outside the world is an error.
fn timeline(journal: &RunJournal, rank: usize) -> Result<Answer<'_>, String> {
    let log = journal
        .rank_log(rank)
        .ok_or_else(|| format!("rank {rank} out of range (world size {})", journal.ranks))?;
    Ok(Answer::Timeline(rank, &log.events))
}

/// `spans`: every `merge_level` event folded into its tree level, and the
/// critical path. On a tie for the slowest span the later one (rank-major
/// journal order) wins.
pub fn spans(journal: &RunJournal) -> Answer<'_> {
    let mut levels = BTreeMap::new();
    let mut slowest: Option<(usize, u64, f64)> = None;
    let (mut first, mut last) = (f64::INFINITY, f64::NEG_INFINITY);
    for (rank, e) in journal.events() {
        let EventKind::MergeLevel {
            level,
            merges,
            dp_cells,
            fast_path,
            t0,
            t1,
        } = e.kind
        else {
            continue;
        };
        let l = levels.entry(level).or_insert_with(|| LevelSpan {
            level,
            t0,
            t1,
            ..LevelSpan::default()
        });
        l.ranks += 1;
        l.merges += merges;
        l.dp_cells += dp_cells;
        l.fast_path += fast_path;
        (l.t0, l.t1) = (l.t0.min(t0), l.t1.max(t1));
        (first, last) = (first.min(t0), last.max(t1));
        if slowest.is_none_or(|(_, _, width)| (t1 - t0).total_cmp(&width).is_ge()) {
            slowest = Some((rank, level, t1 - t0));
        }
    }
    let levels: Vec<LevelSpan> = levels.into_values().collect();
    let spans = levels.iter().map(|l| l.ranks).sum();
    let critical = slowest.map(|(rank, level, width)| CriticalPath {
        wall: last - first,
        rank,
        level,
        width,
    });
    Answer::Spans(spans, levels, critical)
}

/// `metrics`: every snapshot, and each counter's saturating total.
fn metrics(journal: &RunJournal) -> Answer<'_> {
    let rows = snapshots(journal);
    let mut totals = [0u64; Counter::COUNT];
    for (row, c) in rows.iter().flat_map(|row| Counter::ALL.map(|c| (row, c))) {
        totals[c as usize] = totals[c as usize].saturating_add(row.ctr(c));
    }
    Answer::Metrics(rows, totals)
}

/// `anomalies`: every flag, and per flagged rank its count, its kinds and
/// its first marker.
fn rollup(journal: &RunJournal) -> Answer<'_> {
    let flags = anomalies(journal);
    let mut per_rank = BTreeMap::new();
    for f in &flags {
        let r = per_rank.entry(f.rank).or_insert_with(|| RankFlags {
            rank: f.rank,
            first_marker: f.marker,
            ..RankFlags::default()
        });
        r.flags += 1;
        r.first_marker = r.first_marker.min(f.marker);
        if !r.kinds.contains(&f.kind.label()) {
            r.kinds.push(f.kind.label());
            r.kinds.sort_unstable();
        }
    }
    Answer::Anomalies(flags, per_rank.into_values().collect())
}

/// `diff`: the first divergence of `a` from `b`.
fn verdict<'a>(a: &'a RunJournal, b: &'a RunJournal, names: [&'a str; 2]) -> Answer<'a> {
    Answer::Diff(names, diff(a, b))
}

// ---------------------------------------------------------------------
// The query table
// ---------------------------------------------------------------------

/// What a query reads besides its run, with the function answering it.
#[derive(Clone, Copy)]
pub enum ArgKind {
    /// The run alone.
    None(fn(&RunJournal) -> Answer<'_>),
    /// A rank of the run.
    Rank(fn(&RunJournal, usize) -> Result<Answer<'_>, String>),
    /// A second run; the answer names both.
    Run(for<'a> fn(&'a RunJournal, &'a RunJournal, [&'a str; 2]) -> Answer<'a>),
}

impl ArgKind {
    /// The argument as it follows the query in a route: `""`, `"/<rank>"`
    /// or `"/<other>"`.
    pub fn placeholder(self) -> &'static str {
        match self {
            ArgKind::None(_) => "",
            ArgKind::Rank(_) => "/<rank>",
            ArgKind::Run(_) => "/<other>",
        }
    }
}

/// One row of the query table.
pub struct Query {
    /// The `chamtrace journal` subcommand and the route segment.
    pub name: &'static str,
    /// Its argument, and how it is answered.
    pub arg: ArgKind,
}

/// Every journal query, in the order `GET /` lists them: the one table
/// `chamtrace journal` and the daemon's query routes dispatch through.
pub static QUERIES: [Query; 6] = [
    Query::new("summarize", ArgKind::None(summarize)),
    Query::new("timeline", ArgKind::Rank(timeline)),
    Query::new("spans", ArgKind::None(spans)),
    Query::new("metrics", ArgKind::None(metrics)),
    Query::new("anomalies", ArgKind::None(rollup)),
    Query::new("diff", ArgKind::Run(verdict)),
];

/// The query called `name`, if `args` (what follows its run) holds the
/// one argument it takes, or none when it takes none; with that argument.
pub fn find<'a, S: AsRef<str>>(
    name: &str,
    args: &'a [S],
) -> Option<(&'static Query, Option<&'a str>)> {
    let q = QUERIES.iter().find(|q| q.name == name)?;
    let arity = usize::from(!q.arg.placeholder().is_empty());
    (args.len() == arity).then(|| (q, args.first().map(AsRef::as_ref)))
}

/// Why [`Query::serve`] has no answer.
#[derive(Debug, PartialEq, Eq)]
pub enum QueryError<E> {
    /// The argument is not a rank, or the rank is outside the world: a
    /// client error (CLI exit 2, HTTP 400).
    Bad(String),
    /// A run could not be loaded: the loader's own error.
    Load(E),
}

impl Query {
    const fn new(name: &'static str, arg: ArgKind) -> Query {
        Query { name, arg }
    }

    /// Answer this query on the run called `name` and render it through
    /// `sink`. `arg` is the argument [`find`] returned; runs come from
    /// `load` (files for the CLI, the store for the daemon), and a rank is
    /// parsed before any run is loaded. Also says whether the answer is a
    /// divergence, which `chamtrace` exits 1 on.
    pub fn serve<J: Borrow<RunJournal>, E>(
        &self,
        name: &str,
        arg: Option<&str>,
        sink: Sink,
        load: impl Fn(&str) -> Result<J, E>,
    ) -> Result<(String, bool), QueryError<E>> {
        let arg = arg.unwrap_or_default();
        let load = |run: &str| load(run).map_err(QueryError::Load);
        let out = match self.arg {
            ArgKind::None(answer) => (answer(load(name)?.borrow()).render(sink), false),
            ArgKind::Rank(answer) => {
                let bad = |_| QueryError::Bad(format!("invalid rank {arg:?}"));
                let rank = arg.parse().map_err(bad)?;
                let journal = load(name)?;
                let answer = answer(journal.borrow(), rank).map_err(QueryError::Bad)?;
                (answer.render(sink), false)
            }
            ArgKind::Run(answer) => {
                let (a, b) = (load(name)?, load(arg)?);
                let answer = answer(a.borrow(), b.borrow(), [name, arg]);
                (
                    answer.render(sink),
                    matches!(answer, Answer::Diff(_, Some(_))),
                )
            }
        };
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Canonical JSON
// ---------------------------------------------------------------------

/// `{"label":value,…}`, the one spelling of a labeled JSON object — a
/// counter set, or a family of histogram [`Digest`]s — displayed from
/// any re-iterable sequence of `(label, value)` pairs. Labels are static
/// identifiers and are written unescaped.
pub struct JsonObject<I>(pub I);

impl<'l, I, V> fmt::Display for JsonObject<I>
where
    I: IntoIterator<Item = (&'l str, V)> + Clone,
    V: fmt::Display,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('{')?;
        write_seq(f, self.0.clone(), |f, (label, v)| {
            write!(f, "\"{label}\":{v}")
        })?;
        f.write_char('}')
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// The six `*_json` functions below keep their names and signatures only
// because `benchmark/` renders its expected daemon answers and times the
// query layer through them. Each is one call into the core; everything
// else dispatches through [`QUERIES`].

/// `summarize` as canonical JSON; kept for `benchmark/`.
pub fn summarize_json(journal: &RunJournal) -> String {
    summarize(journal).render(Sink::Json)
}

/// `timeline` as canonical JSON; kept for `benchmark/`.
pub fn timeline_json(journal: &RunJournal, rank: usize) -> Result<String, String> {
    timeline(journal, rank).map(|a| a.render(Sink::Json))
}

/// `spans` as canonical JSON; kept for `benchmark/`.
pub fn spans_json(journal: &RunJournal) -> String {
    spans(journal).render(Sink::Json)
}

/// `metrics` as canonical JSON; kept for `benchmark/`.
pub fn metrics_json(journal: &RunJournal) -> String {
    metrics(journal).render(Sink::Json)
}

/// `anomalies` as canonical JSON; kept for `benchmark/`.
pub fn anomalies_json(journal: &RunJournal) -> String {
    rollup(journal).render(Sink::Json)
}

/// `diff` as canonical JSON; kept for `benchmark/`.
pub fn diff_json(a: &RunJournal, b: &RunJournal) -> String {
    verdict(a, b, ["", ""]).render(Sink::Json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricSet;
    use crate::recorder::RankLog;
    use crate::wire::fnv64;

    fn push(log: &mut RankLog, vt: f64, tt: f64, kind: EventKind) {
        let seq = log.events.len() as u64;
        log.events.push(Event { seq, vt, tt, kind });
    }

    /// Two ranks: a marker and a merge span each, one snapshot, and three
    /// anomaly flags against rank 3 — two `slow`, one `flaky` — on rank 0.
    fn sample() -> RunJournal {
        let mut a = RankLog::new(0);
        push(&mut a, 0.0, 0.0, EventKind::Marker { n: 1 });
        push(
            &mut a,
            1e-5,
            1e-7,
            EventKind::MergeLevel {
                level: 0,
                merges: 2,
                dp_cells: 80,
                fast_path: 1,
                t0: 1e-7,
                t1: 3e-7,
            },
        );
        let mut m = MetricSet::new();
        m.add(Counter::Merges, 2);
        m.add(Counter::DpCells, 80);
        m.observe(HistId::DpCellsPerMerge, 40);
        m.observe(HistId::DpCellsPerMerge, 40);
        push(
            &mut a,
            1e-5,
            4e-7,
            EventKind::Snapshot {
                marker: 1,
                ranks: 2,
                ctrs: m.counter_values(),
                hists: m.hist_digest(),
            },
        );
        for (marker, kind, score) in [
            (4u64, AnomalyKind::Slow, 5.5),
            (5, AnomalyKind::Slow, 6.0),
            (5, AnomalyKind::Flaky, 9.0),
        ] {
            push(
                &mut a,
                1e-5,
                1e-6,
                EventKind::Anomaly {
                    rank: 3,
                    marker,
                    kind,
                    score,
                    cluster: 0,
                },
            );
        }
        let mut b = RankLog::new(1);
        push(&mut b, 0.0, 0.0, EventKind::Marker { n: 1 });
        push(
            &mut b,
            1e-5,
            2e-7,
            EventKind::MergeLevel {
                level: 1,
                merges: 1,
                dp_cells: 40,
                fast_path: 0,
                t0: 2e-7,
                t1: 8e-7,
            },
        );
        RunJournal::gather(2, false, vec![a, b])
    }

    /// [`sample`] with rank 1's first marker changed.
    fn divergent() -> RunJournal {
        let mut j = sample();
        j.logs[1].events[0].kind = EventKind::Marker { n: 2 };
        j
    }

    fn empty() -> RunJournal {
        RunJournal::gather(1, false, Vec::new())
    }

    // The renderings of `sample()` (and of `empty()`), byte for byte as
    // the separate text reports and `*_json` renderers wrote them before
    // the two sinks shared one answer.

    const SUMMARIZE_TXT: &str = r#"obs journal: ranks=2 armed=no events=8
  anomaly=3 marker=2 merge_level=2 snapshot=1
  rank 0: 6 events
  rank 1: 2 events
"#;
    const SUMMARIZE_JSON: &str = r#"{"query":"summarize","ranks":2,"armed":false,"events":8,"counters":{"anomaly":3,"marker":2,"merge_level":2,"snapshot":1},"per_rank":[6,2]}
"#;
    const TIMELINE_TXT: &str = r#"rank 0: 6 events
  seq    0  vt 0.0  tt 0.0  marker n=1
  seq    1  vt 1e-5  tt 1e-7  merge_level level=0 merges=2 dp_cells=80 fast_path=1 t0=1e-7 t1=3e-7
  seq    2  vt 1e-5  tt 4e-7  snapshot marker=1 ranks=2
  seq    3  vt 1e-5  tt 1e-6  anomaly rank=3 marker=4 kind=slow score=5.5 cluster=0
  seq    4  vt 1e-5  tt 1e-6  anomaly rank=3 marker=5 kind=slow score=6.0 cluster=0
  seq    5  vt 1e-5  tt 1e-6  anomaly rank=3 marker=5 kind=flaky score=9.0 cluster=0
"#;
    const TIMELINE_JSON: &str = r#"{"query":"timeline","rank":0,"events":[{"rank":0,"seq":0,"vt":0.0,"tt":0.0,"ev":"marker","n":1},{"rank":0,"seq":1,"vt":1e-5,"tt":1e-7,"ev":"merge_level","level":0,"merges":2,"dp_cells":80,"fast_path":1,"t0":1e-7,"t1":3e-7},{"rank":0,"seq":2,"vt":1e-5,"tt":4e-7,"ev":"snapshot","marker":1,"ranks":2,"ctrs":[0,0,2,80,0,0,0,0,0,0],"hists":[0,0,0,0,2,40,40,40,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},{"rank":0,"seq":3,"vt":1e-5,"tt":1e-6,"ev":"anomaly","flagged":3,"marker":4,"kind":"slow","score":5.5,"cluster":0},{"rank":0,"seq":4,"vt":1e-5,"tt":1e-6,"ev":"anomaly","flagged":3,"marker":5,"kind":"slow","score":6.0,"cluster":0},{"rank":0,"seq":5,"vt":1e-5,"tt":1e-6,"ev":"anomaly","flagged":3,"marker":5,"kind":"flaky","score":9.0,"cluster":0}]}
"#;
    const SPANS_TXT: &str = r#"2 merge spans over 2 levels
  level 0: ranks=1 merges=2 dp_cells=80 fast_path=1 t0=1e-7 t1=3e-7 width=2e-7
  level 1: ranks=1 merges=1 dp_cells=40 fast_path=0 t0=2e-7 t1=8e-7 width=6e-7
  critical path: 7e-7 (first t0 to last t1); slowest span rank 1 level 1 at 6e-7
"#;
    const SPANS_JSON: &str = r#"{"query":"spans","spans":2,"levels":[{"level":0,"ranks":1,"merges":2,"dp_cells":80,"fast_path":1,"t0":1e-7,"t1":3e-7,"width":2e-7},{"level":1,"ranks":1,"merges":1,"dp_cells":40,"fast_path":0,"t0":2e-7,"t1":8e-7,"width":6e-7}],"critical_path":{"wall":7e-7,"slowest_rank":1,"slowest_level":1,"slowest_width":6e-7}}
"#;
    const METRICS_TXT: &str = r#"1 snapshots
  marker 1 (ranks=2): merges=2 dp_cells=80
    dp_cells_per_merge: count=2 p50=40 p99=40 max=40
  totals: signatures=0 sig_events=0 merges=2 dp_cells=80 fast_path=0 retries=0 nacks=0 giveups=0 cluster_rounds=0 reelections=0
"#;
    const METRICS_JSON: &str = r#"{"query":"metrics","snapshots":[{"rank":0,"marker":1,"ranks":2,"ctrs":{"signatures":0,"sig_events":0,"merges":2,"dp_cells":80,"fast_path":0,"retries":0,"nacks":0,"giveups":0,"cluster_rounds":0,"reelections":0},"hists":{"recv_wait_ns":{"count":0,"p50":0,"p99":0,"max":0},"dp_cells_per_merge":{"count":2,"p50":40,"p99":40,"max":40},"state_at_ns":{"count":0,"p50":0,"p99":0,"max":0},"state_c_ns":{"count":0,"p50":0,"p99":0,"max":0},"state_l_ns":{"count":0,"p50":0,"p99":0,"max":0},"state_f_ns":{"count":0,"p50":0,"p99":0,"max":0}}}],"totals":{"signatures":0,"sig_events":0,"merges":2,"dp_cells":80,"fast_path":0,"retries":0,"nacks":0,"giveups":0,"cluster_rounds":0,"reelections":0}}
"#;
    const ANOMALIES_TXT: &str = r#"3 anomaly flags
  marker    4: rank 3 slow score=5.5 cluster=0
  marker    5: rank 3 slow score=6.0 cluster=0
  marker    5: rank 3 flaky score=9.0 cluster=0
  per rank:
    rank 3: flags=3 kinds=flaky+slow first_marker=4
"#;
    const ANOMALIES_JSON: &str = r#"{"query":"anomalies","flags":[{"rank":3,"marker":4,"kind":"slow","score":5.5,"cluster":0},{"rank":3,"marker":5,"kind":"slow","score":6.0,"cluster":0},{"rank":3,"marker":5,"kind":"flaky","score":9.0,"cluster":0}],"per_rank":[{"rank":3,"flags":3,"kinds":["flaky","slow"],"first_marker":4}]}
"#;
    const DIFF_TXT: &str = "divergence: rank 1 seq 0: marker n=1 vs marker n=2\n";
    const DIFF_JSON: &str = r#"{"query":"diff","identical":false,"divergence":"rank 1 seq 0: marker n=1 vs marker n=2"}
"#;
    const EMPTY_METRICS_JSON: &str = r#"{"query":"metrics","snapshots":[],"totals":{"signatures":0,"sig_events":0,"merges":0,"dp_cells":0,"fast_path":0,"retries":0,"nacks":0,"giveups":0,"cluster_rounds":0,"reelections":0}}
"#;

    /// Both renderings of `answer` against their pinned bytes.
    fn assert_renders(answer: Answer<'_>, text: &str, json: &str) {
        assert_eq!(answer.render(Sink::Text), text);
        assert_eq!(answer.render(Sink::Json), json);
    }

    #[test]
    fn journal_digest_tracks_canonical_bytes() {
        let j = sample();
        let digest = |j: &RunJournal| fnv64(j.to_jsonl().as_bytes());
        let mut other = sample();
        other.logs[0].events[0].kind = EventKind::Marker { n: 2 };
        assert_ne!(digest(&j), digest(&other));
        assert!(diff(&j, &other).is_some(), "digest and diff must agree");
        assert_eq!(digest(&j), digest(&sample()));
    }

    #[test]
    fn summarize_totals_labels_and_ranks() {
        assert_renders(summarize(&sample()), SUMMARIZE_TXT, SUMMARIZE_JSON);
        assert_renders(
            summarize(&empty()),
            "obs journal: ranks=1 armed=no events=0\n  rank 0: 0 events\n",
            "{\"query\":\"summarize\",\"ranks\":1,\"armed\":false,\"events\":0,\"counters\":{},\"per_rank\":[0]}\n",
        );
    }

    #[test]
    fn timeline_lists_each_event_once() {
        let j = sample();
        assert_renders(timeline(&j, 0).unwrap(), TIMELINE_TXT, TIMELINE_JSON);
        assert_eq!(
            timeline(&j, 9).unwrap_err(),
            "rank 9 out of range (world size 2)"
        );
    }

    #[test]
    fn span_report_aggregates_levels_and_critical_path() {
        let j = sample();
        // The wave runs 1e-7 .. 8e-7; the slowest single span is rank 1
        // level 1.
        assert_renders(spans(&j), SPANS_TXT, SPANS_JSON);
    }

    #[test]
    fn metrics_report_decodes_snapshot_rows() {
        let j = sample();
        let rows = snapshots(&j);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].ctr(Counter::Merges), 2);
        assert_renders(metrics(&j), METRICS_TXT, METRICS_JSON);
        assert_renders(
            metrics(&empty()),
            "no snapshot events recorded (run with the recorder on)\n",
            EMPTY_METRICS_JSON,
        );
    }

    #[test]
    fn anomaly_report_rolls_up_per_rank() {
        let j = sample();
        assert_eq!(anomalies(&j)[0].marker, 4);
        assert_renders(rollup(&j), ANOMALIES_TXT, ANOMALIES_JSON);
        assert_renders(
            rollup(&empty()),
            "no anomaly events recorded (fault-free run, or detector off)\n",
            "{\"query\":\"anomalies\",\"flags\":[],\"per_rank\":[]}\n",
        );
    }

    #[test]
    fn diff_reports_first_divergence_only() {
        let j = sample();
        assert_eq!(diff(&j, &j), None, "self-diff is clean");
        assert_renders(
            verdict(&j, &j, ["a", "b"]),
            "identical: a and b\n",
            "{\"query\":\"diff\",\"identical\":true}\n",
        );
        // Kinds differ at rank 1 seq 0.
        assert_renders(verdict(&j, &divergent(), ["a", "b"]), DIFF_TXT, DIFF_JSON);

        // Same kind, different stamp.
        let mut other = sample();
        other.logs[0].events[1].tt = 9e-7;
        assert_eq!(
            diff(&j, &other).unwrap(),
            "rank 0 seq 1: same event (merge_level level=0 merges=2 dp_cells=80 fast_path=1 t0=1e-7 t1=3e-7), timestamps differ: vt 1e-5 vs 1e-5, tt 1e-7 vs 9e-7"
        );

        // One log is a strict prefix of the other.
        let mut other = sample();
        other.logs[1].events.pop();
        assert_eq!(
            diff(&j, &other).unwrap(),
            "rank 1: logs fork at seq 1: the first journal has 1 more event(s) (first extra: merge_level level=1 merges=1 dp_cells=40 fast_path=0 t0=2e-7 t1=8e-7)"
        );

        // Header mismatches win over event mismatches.
        let mut other = divergent();
        other.armed = true;
        assert_eq!(
            diff(&j, &other).unwrap(),
            "armed flag differs: false vs true"
        );
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t"), "x\\n\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_renderers_are_canonical_objects() {
        let j = sample();
        let outs = [
            summarize_json(&j),
            timeline_json(&j, 0).unwrap(),
            spans_json(&j),
            metrics_json(&j),
            anomalies_json(&j),
            diff_json(&j, &divergent()),
        ];
        for (o, want) in outs.iter().zip([
            SUMMARIZE_JSON,
            TIMELINE_JSON,
            SPANS_JSON,
            METRICS_JSON,
            ANOMALIES_JSON,
            DIFF_JSON,
        ]) {
            assert_eq!(o, want);
            assert!(o.starts_with("{\"query\":\""), "{o}");
            assert!(o.ends_with("}\n"), "{o}");
            assert_eq!(o.matches('\n').count(), 1, "single line: {o}");
        }
        assert!(timeline_json(&j, 9).is_err());
    }

    #[test]
    fn diff_json_reports_divergence_with_escaping() {
        assert_eq!(diff_json(&sample(), &divergent()), DIFF_JSON);
        let quoted = Answer::Diff(["a", "b"], Some("say \"hi\"\n".to_string()));
        assert_eq!(
            quoted.render(Sink::Json),
            "{\"query\":\"diff\",\"identical\":false,\"divergence\":\"say \\\"hi\\\"\\n\"}\n"
        );
    }

    #[test]
    fn spans_json_empty_has_null_critical_path() {
        assert_renders(
            spans(&empty()),
            "no merge_level spans recorded\n",
            "{\"query\":\"spans\",\"spans\":0,\"levels\":[],\"critical_path\":null}\n",
        );
    }

    #[test]
    fn the_table_finds_queries_by_name_and_arity_and_serves_them() {
        let names: Vec<&str> = QUERIES.iter().map(|q| q.name).collect();
        assert_eq!(
            names,
            [
                "summarize",
                "timeline",
                "spans",
                "metrics",
                "anomalies",
                "diff"
            ]
        );
        assert!(find("spans", &[] as &[&str]).is_some());
        assert!(find("spans", &["x"]).is_none());
        assert!(find("timeline", &[] as &[&str]).is_none());
        assert!(find("timeline", &["0", "1"]).is_none());
        assert!(find("bogus", &[] as &[&str]).is_none());
        let (q, arg) = find("timeline", &["0"]).unwrap();
        assert_eq!((q.name, arg), ("timeline", Some("0")));

        // Runs come from the loader, by name; its error passes through.
        let load = |name: &str| match name {
            "a" => Ok(sample()),
            "b" => Ok(divergent()),
            other => Err(format!("no run {other}")),
        };
        let serve = |q: &str, run: &str, arg: &[&str], sink| {
            let (q, arg) = find(q, arg).unwrap();
            q.serve(run, arg, sink, load)
        };
        assert_eq!(
            serve("timeline", "a", &["0"], Sink::Text),
            Ok((TIMELINE_TXT.to_string(), false))
        );
        assert_eq!(
            serve("diff", "a", &["b"], Sink::Text),
            Ok((DIFF_TXT.to_string(), true))
        );
        assert_eq!(
            serve("diff", "a", &["a"], Sink::Json),
            Ok((
                "{\"query\":\"diff\",\"identical\":true}\n".to_string(),
                false
            ))
        );
        assert_eq!(
            serve("diff", "a", &["c"], Sink::Json),
            Err(QueryError::Load("no run c".to_string()))
        );
        // The rank is checked before the run is loaded.
        assert_eq!(
            serve("timeline", "c", &["x"], Sink::Json),
            Err(QueryError::Bad("invalid rank \"x\"".to_string()))
        );
        assert_eq!(
            serve("timeline", "a", &["9"], Sink::Json),
            Err(QueryError::Bad(
                "rank 9 out of range (world size 2)".to_string()
            ))
        );
    }
}
