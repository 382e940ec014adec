//! The run journal: gathered per-rank logs with a canonical JSONL form.
//!
//! The serialization is hand-rolled (the workspace is hermetic — no
//! serde) and *canonical*: fixed field order, `{:?}` float formatting
//! (Rust's shortest round-trip representation, which is valid JSON), and
//! Call-Path signatures as `"0x…"` hex strings so no u64 ever has to
//! survive a float-typed JSON number. Canonical form is what makes the
//! journal a byte-level oracle: `parse(to_jsonl(j)) == j` and
//! `to_jsonl(parse(text)) == text` both hold, and two same-seed runs
//! serialize identically.
//!
//! Schema (one JSON object per line):
//!
//! ```text
//! {"journal":"chameleon-obs-v1","ranks":6,"armed":true}        header
//! {"rank":0,"seq":0,"vt":0.0,"tt":0.0,"ev":"marker","n":1}     event
//! {"rank":0,"ctr":"marker","n":40}                             counter
//! ```
//!
//! Events come grouped by rank (ascending), `seq` ascending from 0;
//! each rank's events are followed by its derived counters (sorted by
//! label). Counter lines are redundant — they are recomputed and checked
//! on parse — but make `grep | wc -l`-style triage trivial.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

use crate::event::{intern, AnomalyKind, Event, EventKind, FaultKind, DECISIONS, STATES};
use crate::recorder::RankLog;

/// Format-version magic in the header line.
pub const MAGIC: &str = "chameleon-obs-v1";

/// Why the encoder's (and the query sinks') `fmt::Result`s are unwrapped.
pub(crate) const STRING_WRITE: &str =
    "formatting integers, floats and labels into a String cannot fail";

/// A malformed journal: the line (1-based) and what went wrong there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// 1-based line number.
    pub line: usize,
    /// What failed to parse or validate.
    pub what: String,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for JournalError {}

/// All ranks' flight logs from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunJournal {
    /// World size the run was launched with.
    pub ranks: usize,
    /// Whether a fault plan was armed.
    pub armed: bool,
    /// Per-rank logs, ascending by rank. A crashed rank's log ends at its
    /// crash event; ranks are never missing.
    pub logs: Vec<RankLog>,
}

impl RunJournal {
    /// Assemble the journal rank 0 reports at finalize. The result always
    /// holds exactly one log per rank, in rank order: ranks that reported
    /// nothing get an empty log (an empty log serializes to no lines, so
    /// padding here is what keeps `from_jsonl` lossless).
    pub fn gather(ranks: usize, armed: bool, logs: Vec<RankLog>) -> Self {
        let mut full: Vec<RankLog> = (0..ranks).map(RankLog::new).collect();
        for log in logs {
            let rank = log.rank;
            assert!(rank < ranks, "log rank {rank} out of range");
            full[rank] = log;
        }
        RunJournal {
            ranks,
            armed,
            logs: full,
        }
    }

    /// The log of one rank.
    pub fn rank_log(&self, rank: usize) -> Option<&RankLog> {
        self.logs.iter().find(|l| l.rank == rank)
    }

    /// All events with their owning rank, rank-major.
    pub fn events(&self) -> impl Iterator<Item = (usize, &Event)> {
        self.logs
            .iter()
            .flat_map(|l| l.events.iter().map(move |e| (l.rank, e)))
    }

    /// Total occurrences of an event label across all ranks.
    pub fn count(&self, label: &str) -> u64 {
        self.events()
            .filter(|(_, e)| e.kind.label() == label)
            .count() as u64
    }

    /// Canonical JSONL serialization (see the module docs for the schema).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out).expect(STRING_WRITE);
        out
    }

    fn write_jsonl(&self, out: &mut String) -> fmt::Result {
        writeln!(
            out,
            "{{\"journal\":\"{MAGIC}\",\"ranks\":{},\"armed\":{}}}",
            self.ranks, self.armed
        )?;
        for log in &self.logs {
            for e in &log.events {
                write_event(out, log.rank, e)?;
                out.push('\n');
            }
            for (label, n) in log.counters() {
                writeln!(
                    out,
                    "{{\"rank\":{},\"ctr\":\"{label}\",\"n\":{n}}}",
                    log.rank
                )?;
            }
        }
        Ok(())
    }

    /// Read and strictly parse a journal file — the one loading helper
    /// behind every `chamtrace journal` subcommand and the trace-service
    /// daemon. I/O failures name the path; parse failures additionally
    /// carry the offending line via [`JournalError`]'s display form.
    pub fn load(path: &std::path::Path) -> Result<RunJournal, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        RunJournal::from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Strict parse of the canonical form. Checks the magic, rank
    /// ordering, per-rank `seq` contiguity, and that the counter lines
    /// agree with the events they summarize.
    pub fn from_jsonl(text: &str) -> Result<RunJournal, JournalError> {
        let err = |line: usize, what: String| JournalError { line, what };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| err(1, "empty journal".into()))?;
        let (ranks, armed) = parse_header(header).map_err(|w| err(1, w))?;

        let mut logs: Vec<RankLog> = Vec::new();
        let mut counters_seen: BTreeMap<usize, BTreeMap<&str, u64>> = BTreeMap::new();
        for (i, line) in lines {
            let lineno = i + 1;
            match parse_line(line).map_err(|w| err(lineno, w))? {
                Line::Event { rank, event } => {
                    if counters_seen.contains_key(&rank) {
                        return Err(err(
                            lineno,
                            format!("event for rank {rank} after its counters"),
                        ));
                    }
                    if logs.last().is_none_or(|l| l.rank != rank) {
                        if logs.iter().any(|l| l.rank == rank)
                            || logs.last().is_some_and(|l| l.rank > rank)
                        {
                            return Err(err(lineno, format!("rank {rank} out of order")));
                        }
                        logs.push(RankLog::new(rank));
                    }
                    let log = logs.last_mut().expect("just ensured");
                    if event.seq != log.events.len() as u64 {
                        return Err(err(
                            lineno,
                            format!(
                                "rank {rank}: seq {} where {} expected",
                                event.seq,
                                log.events.len()
                            ),
                        ));
                    }
                    log.events.push(event);
                }
                Line::Counter { rank, label, n } => {
                    counters_seen.entry(rank).or_default().insert(label, n);
                }
            }
        }

        if let Some(bad) = logs.iter().find(|l| l.rank >= ranks) {
            return Err(err(0, format!("rank {} out of range", bad.rank)));
        }
        let journal = RunJournal::gather(ranks, armed, logs);
        for log in &journal.logs {
            let derived = log.counters();
            let seen = counters_seen.remove(&log.rank).unwrap_or_default();
            if derived != seen {
                return Err(err(
                    0,
                    format!(
                        "rank {}: counter lines disagree with events (derived {derived:?}, read {seen:?})",
                        log.rank
                    ),
                ));
            }
        }
        if let Some((&rank, _)) = counters_seen.iter().next() {
            return Err(err(0, format!("counters for rank {rank} without events")));
        }
        Ok(journal)
    }
}

/// Write `items` comma-separated, each through `item`: the body of a JSON
/// array or object, for the encoder here and the query renderers alike.
pub(crate) fn write_seq<W: Write, T>(
    out: &mut W,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut W, T) -> fmt::Result,
) -> fmt::Result {
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        item(out, x)?;
    }
    Ok(())
}

/// Append one event's canonical JSON object to `out`: exactly the bytes
/// its journal line carries, minus the newline. The query engine's
/// timeline embeds events through it verbatim.
pub(crate) fn write_event(out: &mut String, rank: usize, e: &Event) -> fmt::Result {
    write!(
        out,
        "{{\"rank\":{rank},\"seq\":{},\"vt\":{:?},\"tt\":{:?},\"ev\":\"{}\"",
        e.seq,
        e.vt,
        e.tt,
        e.kind.label()
    )?;
    match &e.kind {
        EventKind::Marker { n } => write!(out, ",\"n\":{n}")?,
        EventKind::Signature { events, call_path } => {
            write!(out, ",\"events\":{events},\"cp\":\"{call_path:#x}\"")?
        }
        EventKind::ClusterSel {
            marker,
            effective_k,
            lead,
            leads,
        } => {
            write!(
                out,
                ",\"marker\":{marker},\"k\":{effective_k},\"lead\":{lead},\"leads\":["
            )?;
            write_seq(out, leads, |out, v| write!(out, "{v}"))?;
            out.push(']');
        }
        EventKind::State {
            marker,
            state,
            decision,
        } => write!(
            out,
            ",\"marker\":{marker},\"state\":\"{state}\",\"decision\":\"{decision}\""
        )?,
        EventKind::Degraded { marker } => write!(out, ",\"marker\":{marker}")?,
        EventKind::Reelect {
            call_path,
            old,
            new,
        } => write!(out, ",\"cp\":\"{call_path:#x}\",\"old\":{old},\"new\":{new}")?,
        EventKind::MergeLevel {
            level,
            merges,
            dp_cells,
            fast_path,
            t0,
            t1,
        } => write!(
            out,
            ",\"level\":{level},\"merges\":{merges},\"dp_cells\":{dp_cells},\"fast_path\":{fast_path},\"t0\":{t0:?},\"t1\":{t1:?}"
        )?,
        EventKind::Retry { peer, tag }
        | EventKind::Nack { peer, tag }
        | EventKind::GiveUp { peer, tag } => write!(out, ",\"peer\":{peer},\"tag\":{tag}")?,
        EventKind::Fault { kind, dest, tag } => write!(
            out,
            ",\"kind\":\"{}\",\"dest\":{dest},\"tag\":{tag}",
            kind.label()
        )?,
        EventKind::Snapshot {
            marker,
            ranks,
            ctrs,
            hists,
        } => {
            write!(out, ",\"marker\":{marker},\"ranks\":{ranks},\"ctrs\":[")?;
            write_seq(out, ctrs, |out, v| write!(out, "{v}"))?;
            out.push_str("],\"hists\":[");
            write_seq(out, hists, |out, v| write!(out, "{v}"))?;
            out.push(']');
        }
        EventKind::Crash { op } => write!(out, ",\"op\":{op}")?,
        EventKind::PeerDead { peer } => write!(out, ",\"peer\":{peer}")?,
        EventKind::Timeout { peer, tag } => write!(out, ",\"peer\":{peer},\"tag\":{tag}")?,
        EventKind::Checkpoint {
            marker,
            bytes,
            deputy,
        } => write!(
            out,
            ",\"marker\":{marker},\"bytes\":{bytes},\"deputy\":{deputy}"
        )?,
        EventKind::Promote {
            marker,
            old_root,
            restored,
        } => write!(
            out,
            ",\"marker\":{marker},\"old_root\":{old_root},\"restored\":{restored}"
        )?,
        EventKind::Anomaly {
            rank: flagged,
            marker,
            kind,
            score,
            cluster,
        } => write!(
            out,
            ",\"flagged\":{flagged},\"marker\":{marker},\"kind\":\"{}\",\"score\":{score:?},\"cluster\":{cluster}",
            kind.label()
        )?,
        EventKind::Resume { marker, hwm } => write!(out, ",\"marker\":{marker},\"hwm\":{hwm}")?,
    }
    out.push('}');
    Ok(())
}

enum Line<'a> {
    Event { rank: usize, event: Event },
    Counter { rank: usize, label: &'a str, n: u64 },
}

fn parse_header(line: &str) -> Result<(usize, bool), String> {
    let mut sc = Scan::new(line);
    sc.eat("{\"journal\":\"")?;
    let magic = sc.take_until(b'"')?;
    if magic != MAGIC {
        return Err(format!("unknown journal magic {magic:?}"));
    }
    sc.eat("\",\"ranks\":")?;
    let ranks = sc.number()?.parse::<usize>().map_err(|e| e.to_string())?;
    sc.eat(",\"armed\":")?;
    let armed = sc.boolean()?;
    sc.eat("}")?;
    sc.done()?;
    Ok((ranks, armed))
}

fn parse_line(line: &str) -> Result<Line<'_>, String> {
    let mut sc = Scan::new(line);
    sc.eat("{\"rank\":")?;
    let rank = sc.number()?.parse::<usize>().map_err(|e| e.to_string())?;
    if sc.peek_eat(",\"ctr\":\"") {
        let label = sc.take_until(b'"')?;
        sc.eat("\",\"n\":")?;
        let n = sc.u64()?;
        sc.eat("}")?;
        sc.done()?;
        return Ok(Line::Counter { rank, label, n });
    }
    sc.eat(",\"seq\":")?;
    let seq = sc.u64()?;
    sc.eat(",\"vt\":")?;
    let vt = sc.f64()?;
    sc.eat(",\"tt\":")?;
    let tt = sc.f64()?;
    sc.eat(",\"ev\":\"")?;
    let label = sc.take_until(b'"')?;
    sc.eat("\"")?;
    let kind = parse_kind(&mut sc, label)?;
    sc.eat("}")?;
    sc.done()?;
    Ok(Line::Event {
        rank,
        event: Event { seq, vt, tt, kind },
    })
}

fn parse_kind(sc: &mut Scan<'_>, label: &str) -> Result<EventKind, String> {
    Ok(match label {
        "marker" => EventKind::Marker {
            n: sc.field_u64("n")?,
        },
        "signature" => EventKind::Signature {
            events: sc.field_u64("events")?,
            call_path: sc.field_hex("cp")?,
        },
        "cluster" => EventKind::ClusterSel {
            marker: sc.field_u64("marker")?,
            effective_k: sc.field_u64("k")?,
            lead: sc.field_u64("lead")?,
            leads: sc.field_u64_array("leads")?,
        },
        "state" => EventKind::State {
            marker: sc.field_u64("marker")?,
            state: intern(sc.field_str("state")?, &STATES)
                .ok_or_else(|| "unknown state label".to_string())?,
            decision: intern(sc.field_str("decision")?, &DECISIONS)
                .ok_or_else(|| "unknown decision label".to_string())?,
        },
        "degraded" => EventKind::Degraded {
            marker: sc.field_u64("marker")?,
        },
        "reelect" => EventKind::Reelect {
            call_path: sc.field_hex("cp")?,
            old: sc.field_u64("old")?,
            new: sc.field_u64("new")?,
        },
        "merge_level" => EventKind::MergeLevel {
            level: sc.field_u64("level")?,
            merges: sc.field_u64("merges")?,
            dp_cells: sc.field_u64("dp_cells")?,
            fast_path: sc.field_u64("fast_path")?,
            t0: sc.field_f64("t0")?,
            t1: sc.field_f64("t1")?,
        },
        "retry" => EventKind::Retry {
            peer: sc.field_u64("peer")?,
            tag: sc.field_u64("tag")?,
        },
        "nack" => EventKind::Nack {
            peer: sc.field_u64("peer")?,
            tag: sc.field_u64("tag")?,
        },
        "giveup" => EventKind::GiveUp {
            peer: sc.field_u64("peer")?,
            tag: sc.field_u64("tag")?,
        },
        "fault" => EventKind::Fault {
            kind: FaultKind::from_label(sc.field_str("kind")?)
                .ok_or_else(|| "unknown fault kind".to_string())?,
            dest: sc.field_u64("dest")?,
            tag: sc.field_u64("tag")?,
        },
        "snapshot" => EventKind::Snapshot {
            marker: sc.field_u64("marker")?,
            ranks: sc.field_u64("ranks")?,
            ctrs: sc.field_u64_array("ctrs")?,
            hists: sc.field_u64_array("hists")?,
        },
        "crash" => EventKind::Crash {
            op: sc.field_u64("op")?,
        },
        "peer_dead" => EventKind::PeerDead {
            peer: sc.field_u64("peer")?,
        },
        "timeout" => EventKind::Timeout {
            peer: sc.field_u64("peer")?,
            tag: sc.field_u64("tag")?,
        },
        "checkpoint" => EventKind::Checkpoint {
            marker: sc.field_u64("marker")?,
            bytes: sc.field_u64("bytes")?,
            deputy: sc.field_u64("deputy")?,
        },
        "promote" => EventKind::Promote {
            marker: sc.field_u64("marker")?,
            old_root: sc.field_u64("old_root")?,
            restored: sc.field_u64("restored")?,
        },
        "anomaly" => EventKind::Anomaly {
            rank: sc.field_u64("flagged")?,
            marker: sc.field_u64("marker")?,
            kind: AnomalyKind::from_label(sc.field_str("kind")?)
                .ok_or_else(|| "unknown anomaly kind".to_string())?,
            score: sc.field_f64("score")?,
            cluster: sc.field_u64("cluster")?,
        },
        "resume" => EventKind::Resume {
            marker: sc.field_u64("marker")?,
            hwm: sc.field_u64("hwm")?,
        },
        other => return Err(format!("unknown event label {other:?}")),
    })
}

/// A tiny cursor over one canonical JSON line. The journal grammar is
/// closed and flat, so the "parser" is literal-expectation plus three
/// scalar shapes — no general JSON machinery needed.
struct Scan<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Scan<'a> {
    fn new(s: &'a str) -> Self {
        Scan { s, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.s[self.pos..]
    }

    // The three literal matchers are inlined so that each call site's
    // constant compiles to integer compares instead of a `bcmp` call;
    // a journal line is a dozen of these between its scalars.
    #[inline(always)]
    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.rest().starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected {lit:?} at byte {}", self.pos))
        }
    }

    #[inline(always)]
    fn peek_eat(&mut self, lit: &str) -> bool {
        if self.rest().starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn done(&self) -> Result<(), String> {
        if self.rest().is_empty() {
            Ok(())
        } else {
            Err(format!("trailing bytes at {}", self.pos))
        }
    }

    /// The text up to the next `stop`, an ASCII byte — so wherever it is
    /// found is a character boundary, whatever precedes it.
    fn take_until(&mut self, stop: u8) -> Result<&'a str, String> {
        let rest = self.rest();
        let end = rest
            .bytes()
            .position(|b| b == stop)
            .ok_or_else(|| format!("unterminated token at byte {}", self.pos))?;
        self.pos += end;
        Ok(&rest[..end])
    }

    /// A JSON number token (decimal or float; no hex — those are quoted).
    fn number(&mut self) -> Result<&'a str, String> {
        let rest = self.rest();
        let end = rest
            .bytes()
            .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(format!("expected number at byte {}", self.pos));
        }
        self.pos += end;
        Ok(&rest[..end])
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.number()?.parse::<u64>().map_err(|e| e.to_string())
    }

    fn f64(&mut self) -> Result<f64, String> {
        let tok = self.number()?;
        let v = tok.parse::<f64>().map_err(|e| e.to_string())?;
        if !v.is_finite() {
            return Err(format!("non-finite timestamp {tok:?}"));
        }
        Ok(v)
    }

    fn boolean(&mut self) -> Result<bool, String> {
        if self.peek_eat("true") {
            Ok(true)
        } else if self.peek_eat("false") {
            Ok(false)
        } else {
            Err(format!("expected boolean at byte {}", self.pos))
        }
    }

    /// Consume `,"name":` and then `open` (the value's opening bytes, if
    /// it has any). Fails with the same message [`Scan::eat`] gives for
    /// the whole literal.
    #[inline(always)]
    fn key(&mut self, name: &str, open: &str) -> Result<(), String> {
        let after = self
            .rest()
            .strip_prefix(",\"")
            .and_then(|r| r.strip_prefix(name))
            .and_then(|r| r.strip_prefix("\":"))
            .and_then(|r| r.strip_prefix(open));
        match after {
            Some(r) => {
                self.pos = self.s.len() - r.len();
                Ok(())
            }
            None => {
                let lit = format!(",\"{name}\":{open}");
                Err(format!("expected {lit:?} at byte {}", self.pos))
            }
        }
    }

    fn field_u64(&mut self, name: &str) -> Result<u64, String> {
        self.key(name, "")?;
        self.u64()
    }

    fn field_f64(&mut self, name: &str) -> Result<f64, String> {
        self.key(name, "")?;
        self.f64()
    }

    fn field_str(&mut self, name: &str) -> Result<&'a str, String> {
        self.key(name, "\"")?;
        let v = self.take_until(b'"')?;
        self.eat("\"")?;
        Ok(v)
    }

    fn field_hex(&mut self, name: &str) -> Result<u64, String> {
        self.key(name, "\"0x")?;
        let digits = self.take_until(b'"')?;
        let v = u64::from_str_radix(digits, 16).map_err(|e| e.to_string())?;
        self.eat("\"")?;
        Ok(v)
    }

    fn field_u64_array(&mut self, name: &str) -> Result<Vec<u64>, String> {
        self.key(name, "[")?;
        let mut out = Vec::new();
        if self.peek_eat("]") {
            return Ok(out);
        }
        loop {
            out.push(self.u64()?);
            if self.peek_eat("]") {
                return Ok(out);
            }
            self.eat(",")?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A journal exercising every event kind and both float shapes.
    fn specimen() -> RunJournal {
        let mut a = RankLog::new(0);
        let push = |log: &mut RankLog, vt: f64, tt: f64, kind: EventKind| {
            let seq = log.events.len() as u64;
            log.events.push(Event { seq, vt, tt, kind });
        };
        push(&mut a, 0.0, 0.0, EventKind::Marker { n: 1 });
        push(
            &mut a,
            1.25e-5,
            3e-7,
            EventKind::Signature {
                events: 42,
                call_path: 0xDEAD_BEEF_u64,
            },
        );
        push(
            &mut a,
            1.25e-5,
            4e-7,
            EventKind::ClusterSel {
                marker: 1,
                effective_k: 2,
                lead: 0,
                leads: vec![0, 3],
            },
        );
        push(
            &mut a,
            1.25e-5,
            5e-7,
            EventKind::State {
                marker: 1,
                state: "C",
                decision: "cluster",
            },
        );
        push(
            &mut a,
            2e-5,
            6e-7,
            EventKind::MergeLevel {
                level: 0,
                merges: 3,
                dp_cells: 120,
                fast_path: 1,
                t0: 5e-7,
                t1: 6e-7,
            },
        );
        push(&mut a, 2e-5, 7e-7, EventKind::Retry { peer: 3, tag: 9 });
        push(&mut a, 2e-5, 8e-7, EventKind::Nack { peer: 3, tag: 9 });
        push(&mut a, 2e-5, 9e-7, EventKind::GiveUp { peer: 3, tag: 9 });
        push(
            &mut a,
            2e-5,
            1e-6,
            EventKind::Reelect {
                call_path: 0x7,
                old: 3,
                new: 1,
            },
        );
        push(&mut a, 3e-5, 1e-6, EventKind::Degraded { marker: 2 });
        push(&mut a, 3e-5, 1e-6, EventKind::PeerDead { peer: 3 });
        push(
            &mut a,
            3e-5,
            2e-6,
            EventKind::Snapshot {
                marker: 2,
                ranks: 3,
                ctrs: vec![1, 0, 3, 120, 1, 1, 1, 1, 1, 1],
                hists: vec![2, 100, 104, 105],
            },
        );
        push(
            &mut a,
            3e-5,
            2e-6,
            EventKind::Checkpoint {
                marker: 2,
                bytes: 512,
                deputy: 1,
            },
        );
        push(
            &mut a,
            3e-5,
            2e-6,
            EventKind::Anomaly {
                rank: 3,
                marker: 2,
                kind: AnomalyKind::Flaky,
                score: 6.25,
                cluster: 1,
            },
        );
        push(&mut a, 3e-5, 2e-6, EventKind::Resume { marker: 2, hwm: 12 });
        let mut b = RankLog::new(3);
        push(
            &mut b,
            1e-5,
            0.0,
            EventKind::Fault {
                kind: FaultKind::Corrupt,
                dest: 0,
                tag: 9,
            },
        );
        push(&mut b, 1.5e-5, 0.0, EventKind::Crash { op: 40 });
        push(&mut b, 1.5e-5, 0.0, EventKind::Timeout { peer: 0, tag: 9 });
        push(
            &mut b,
            1.5e-5,
            0.0,
            EventKind::Promote {
                marker: 2,
                old_root: 0,
                restored: 1,
            },
        );
        RunJournal::gather(4, true, vec![b, a])
    }

    #[test]
    fn gather_pads_and_orders_by_rank() {
        let j = specimen();
        assert_eq!(j.logs.len(), 4, "one log per rank");
        for (r, log) in j.logs.iter().enumerate() {
            assert_eq!(log.rank, r);
        }
        assert!(j.logs[1].events.is_empty(), "silent rank padded empty");
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let j = specimen();
        let text = j.to_jsonl();
        let parsed = RunJournal::from_jsonl(&text).expect("canonical journal parses");
        assert_eq!(parsed, j, "parse is lossless");
        assert_eq!(parsed.to_jsonl(), text, "re-serialization is stable");
    }

    #[test]
    fn every_line_is_flat_json() {
        // Cheap structural check: each line is one brace-balanced object
        // with no raw control characters — greppable with line tools.
        for line in specimen().to_jsonl().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), 1, "{line}");
            assert!(!line.contains('\t'));
        }
    }

    #[test]
    fn corruption_is_rejected_not_panicking() {
        let text = specimen().to_jsonl();
        // Whole-line corruptions that must fail loudly.
        for bad in [
            text.replace(MAGIC, "chameleon-obs-v9"),
            text.replace("\"ev\":\"marker\"", "\"ev\":\"meeting\""),
            text.replace("\"seq\":1,", "\"seq\":7,"),
            text.replace("\"state\":\"C\"", "\"state\":\"Q\""),
            text.replace("\"kind\":\"corrupt\"", "\"kind\":\"melt\""),
            text.replace("\"kind\":\"flaky\"", "\"kind\":\"jittery\""),
            text.replace(
                "{\"rank\":0,\"ctr\":\"marker\",\"n\":1}",
                "{\"rank\":0,\"ctr\":\"marker\",\"n\":3}",
            ),
        ] {
            assert_ne!(bad, text, "corruption pattern must apply");
            assert!(RunJournal::from_jsonl(&bad).is_err());
        }
        // Truncation at every line boundary parses-or-errors, never
        // panics; a truncation that still parses (it ended exactly at a
        // rank boundary) must not reconstruct the original journal.
        let original = specimen();
        let lines: Vec<&str> = text.lines().collect();
        for cut in 1..lines.len() {
            let mut t: String = lines[..cut].join("\n");
            t.push('\n');
            if t == text {
                continue;
            }
            if let Ok(j) = RunJournal::from_jsonl(&t) {
                assert_ne!(j, original, "truncation to {cut} lines round-tripped");
            }
        }
    }

    /// [`specimen`]'s canonical bytes, as the encoder has always written
    /// them: one line per event kind, both float shapes, hex signatures.
    const SPECIMEN_JSONL: &str = r#"{"journal":"chameleon-obs-v1","ranks":4,"armed":true}
{"rank":0,"seq":0,"vt":0.0,"tt":0.0,"ev":"marker","n":1}
{"rank":0,"seq":1,"vt":1.25e-5,"tt":3e-7,"ev":"signature","events":42,"cp":"0xdeadbeef"}
{"rank":0,"seq":2,"vt":1.25e-5,"tt":4e-7,"ev":"cluster","marker":1,"k":2,"lead":0,"leads":[0,3]}
{"rank":0,"seq":3,"vt":1.25e-5,"tt":5e-7,"ev":"state","marker":1,"state":"C","decision":"cluster"}
{"rank":0,"seq":4,"vt":2e-5,"tt":6e-7,"ev":"merge_level","level":0,"merges":3,"dp_cells":120,"fast_path":1,"t0":5e-7,"t1":6e-7}
{"rank":0,"seq":5,"vt":2e-5,"tt":7e-7,"ev":"retry","peer":3,"tag":9}
{"rank":0,"seq":6,"vt":2e-5,"tt":8e-7,"ev":"nack","peer":3,"tag":9}
{"rank":0,"seq":7,"vt":2e-5,"tt":9e-7,"ev":"giveup","peer":3,"tag":9}
{"rank":0,"seq":8,"vt":2e-5,"tt":1e-6,"ev":"reelect","cp":"0x7","old":3,"new":1}
{"rank":0,"seq":9,"vt":3e-5,"tt":1e-6,"ev":"degraded","marker":2}
{"rank":0,"seq":10,"vt":3e-5,"tt":1e-6,"ev":"peer_dead","peer":3}
{"rank":0,"seq":11,"vt":3e-5,"tt":2e-6,"ev":"snapshot","marker":2,"ranks":3,"ctrs":[1,0,3,120,1,1,1,1,1,1],"hists":[2,100,104,105]}
{"rank":0,"seq":12,"vt":3e-5,"tt":2e-6,"ev":"checkpoint","marker":2,"bytes":512,"deputy":1}
{"rank":0,"seq":13,"vt":3e-5,"tt":2e-6,"ev":"anomaly","flagged":3,"marker":2,"kind":"flaky","score":6.25,"cluster":1}
{"rank":0,"seq":14,"vt":3e-5,"tt":2e-6,"ev":"resume","marker":2,"hwm":12}
{"rank":0,"ctr":"anomaly","n":1}
{"rank":0,"ctr":"checkpoint","n":1}
{"rank":0,"ctr":"cluster","n":1}
{"rank":0,"ctr":"degraded","n":1}
{"rank":0,"ctr":"giveup","n":1}
{"rank":0,"ctr":"marker","n":1}
{"rank":0,"ctr":"merge_level","n":1}
{"rank":0,"ctr":"nack","n":1}
{"rank":0,"ctr":"peer_dead","n":1}
{"rank":0,"ctr":"reelect","n":1}
{"rank":0,"ctr":"resume","n":1}
{"rank":0,"ctr":"retry","n":1}
{"rank":0,"ctr":"signature","n":1}
{"rank":0,"ctr":"snapshot","n":1}
{"rank":0,"ctr":"state","n":1}
{"rank":3,"seq":0,"vt":1e-5,"tt":0.0,"ev":"fault","kind":"corrupt","dest":0,"tag":9}
{"rank":3,"seq":1,"vt":1.5e-5,"tt":0.0,"ev":"crash","op":40}
{"rank":3,"seq":2,"vt":1.5e-5,"tt":0.0,"ev":"timeout","peer":0,"tag":9}
{"rank":3,"seq":3,"vt":1.5e-5,"tt":0.0,"ev":"promote","marker":2,"old_root":0,"restored":1}
{"rank":3,"ctr":"crash","n":1}
{"rank":3,"ctr":"fault","n":1}
{"rank":3,"ctr":"promote","n":1}
{"rank":3,"ctr":"timeout","n":1}
"#;

    /// `(find, replace, message)`: one garbling per field reader.
    const PINNED_ERRORS: &[(&str, &str, &str)] = &[
        (
            r#","n":1}"#,
            r#","m":1}"#,
            r#"journal line 2: expected ",\"n\":" at byte 49"#,
        ),
        (
            r#""cp":"0xdeadbeef""#,
            r#""cp":"deadbeef""#,
            r#"journal line 3: expected ",\"cp\":\"0x" at byte 69"#,
        ),
        (
            r#""state":"C""#,
            r#""state":C"#,
            r#"journal line 5: expected ",\"state\":\"" at byte 64"#,
        ),
        (
            r#""leads":[0,3]"#,
            r#""leads":0"#,
            r#"journal line 4: expected ",\"leads\":[" at byte 81"#,
        ),
        (
            r#""t0":5e-7"#,
            r#""t_0":5e-7"#,
            r#"journal line 6: expected ",\"t0\":" at byte 106"#,
        ),
        (
            r#""hists":[2,"#,
            r#""hists":[x,"#,
            "journal line 13: expected number at byte 116",
        ),
        (
            r#""kind":"corrupt""#,
            r#""kind":"melt""#,
            "journal line 32: unknown fault kind",
        ),
        // Multi-byte text where a scalar or a label belongs: the byte
        // scans must stop on a character boundary, not inside one.
        (
            r#""ev":"marker","n":1}"#,
            r#""ev":"markér","n":1}"#,
            r#"journal line 2: unknown event label "markér""#,
        ),
        (
            r#""seq":2,"#,
            r#""seq":2é,"#,
            r#"journal line 4: expected ",\"vt\":" at byte 17"#,
        ),
        (
            r#"{"rank":3,"ctr":"crash","n":1}"#,
            r#"{"rank":3,"ctr":"crash","n":3}"#,
            r#"journal line 0: rank 3: counter lines disagree with events (derived {"crash": 1, "fault": 1, "promote": 1, "timeout": 1}, read {"crash": 3, "fault": 1, "promote": 1, "timeout": 1})"#,
        ),
    ];

    /// `text` → journal → `text` is the identity, and every event line is
    /// exactly [`write_event`]'s object for its event.
    fn assert_codec_identity(text: &str) {
        let j = RunJournal::from_jsonl(text).expect("canonical journal parses");
        assert_eq!(j.to_jsonl(), text);
        let mut event_lines = text.lines().skip(1).filter(|l| !l.contains("\"ctr\":"));
        for (rank, e) in j.events() {
            let mut object = String::new();
            write_event(&mut object, rank, e).unwrap();
            assert_eq!(Some(object.as_str()), event_lines.next());
        }
        assert_eq!(event_lines.next(), None, "a line per event, no more");
    }

    #[test]
    fn codec_bytes_are_pinned_for_every_event_kind_and_the_committed_journals() {
        let text = specimen().to_jsonl();
        assert_eq!(text, SPECIMEN_JSONL, "encoder output moved");
        assert_codec_identity(SPECIMEN_JSONL);
        assert_codec_identity(include_str!(
            "../../../tests/fixtures/bt4_chameleon.journal.jsonl"
        ));
        assert_codec_identity(include_str!(
            "../../../tests/fixtures/bt4_chameleon_nosnap.journal.jsonl"
        ));
    }

    #[test]
    fn parse_errors_keep_their_exact_messages() {
        // `chamtrace journal *` and the daemon's 400 bodies relay these
        // verbatim; the field readers must word a mismatch exactly as a
        // literal `eat` of `,"name":<open>` would.
        let garbled = |from: &str, to: &str| {
            assert!(SPECIMEN_JSONL.contains(from), "{from}");
            RunJournal::from_jsonl(&SPECIMEN_JSONL.replacen(from, to, 1))
                .expect_err("garbled journal")
                .to_string()
        };
        for (from, to, want) in PINNED_ERRORS {
            assert_eq!(garbled(from, to), *want, "{from} -> {to}");
        }
        let cut = &SPECIMEN_JSONL[..SPECIMEN_JSONL.len() / 2];
        assert_eq!(
            RunJournal::from_jsonl(cut).unwrap_err().to_string(),
            r#"journal line 14: expected ",\"bytes\":" at byte 67"#
        );
        assert_eq!(
            RunJournal::from_jsonl("not a journal")
                .unwrap_err()
                .to_string(),
            r#"journal line 1: expected "{\"journal\":\"" at byte 0"#
        );
    }

    #[test]
    fn counts_and_summary_agree() {
        let j = specimen();
        assert_eq!(j.count("marker"), 1);
        assert_eq!(j.count("fault"), 1);
        assert_eq!(j.count("crash"), 1);
        assert_eq!(j.count("checkpoint"), 1);
        assert_eq!(j.count("promote"), 1);
        assert_eq!(j.count("anomaly"), 1);
        let s = crate::query::summarize(&j).render(crate::query::Sink::Text);
        assert!(s.contains("ranks=4 armed=yes events=19"), "{s}");
        assert!(s.contains("crash=1"), "{s}");
        assert!(s.contains("rank 3: 4 events"), "{s}");
    }

    #[test]
    fn empty_journal_roundtrips() {
        let j = RunJournal::gather(2, false, Vec::new());
        let text = j.to_jsonl();
        assert_eq!(RunJournal::from_jsonl(&text).unwrap(), j);
        assert_eq!(text.lines().count(), 1, "header only");
    }
}
