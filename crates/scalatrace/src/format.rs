//! The trace-file text format.
//!
//! ScalaTrace writes its global trace as a structured text file that the
//! replay engine (and humans) read back. This module defines an equivalent
//! line-oriented format for [`CompressedTrace`]:
//!
//! ```text
//! SCALATRACE v1
//! L <iters> <body-node-count>
//! E <op> sig=<hex> src=<ep> dest=<ep> tag=<tag> count=<n> comm=<id> ranks=<spec> time=<spec>
//! ```
//!
//! Loop bodies follow their `L` header in preorder. Endpoints are
//! `r<offset>` (relative), `a<rank>` (absolute), `any`, or `-` (absent).
//! Rank sets are `+`-joined sections `start(/iters,stride)*`. Time specs
//! are `count,sum,min,max[,bin:count...]` with only non-zero histogram
//! bins listed.
//!
//! The format is self-contained and round-trips exactly (up to float
//! formatting, which uses Rust's shortest-roundtrip representation and is
//! therefore lossless).

use mpisim::Comm;
use sigkit::StackSig;

use crate::event::EventRecord;
use crate::hist::{TimeStats, BINS};
use crate::op::{Endpoint, MpiOp, OpKind};
use crate::ranklist::{RankList, RankSet};
use crate::trace::{CompressedTrace, TraceNode};

/// Magic first line of a trace file.
pub const HEADER: &str = "SCALATRACE v1";

/// Serialization/parsing error with a line-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError(pub String);

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace format error: {}", self.0)
    }
}

impl std::error::Error for FormatError {}

fn err<T>(msg: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError(msg.into()))
}

/// Serialize a trace to its text representation.
pub fn to_text(trace: &CompressedTrace) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(HEADER);
    out.push('\n');
    for node in trace.nodes() {
        write_node(node, &mut out);
    }
    out
}

fn write_node(node: &TraceNode, out: &mut String) {
    match node {
        TraceNode::Loop { iters, body } => {
            out.push_str(&format!("L {iters} {}\n", body.len()));
            for n in body {
                write_node(n, out);
            }
        }
        TraceNode::Event(e) => {
            out.push_str(&format!(
                "E {} sig={:016x} src={} dest={} tag={} tag2={} count={} comm={} ranks={} time={}\n",
                e.op.kind.mnemonic(),
                e.stack_sig.0,
                fmt_endpoint(&e.op.src),
                fmt_endpoint(&e.op.dest),
                e.op.tag.map_or("-".to_string(), |t| t.to_string()),
                e.op.recv_tag.map_or("-".to_string(), |t| t.to_string()),
                e.op.count,
                e.op.comm.0,
                fmt_rankset(&e.ranks),
                fmt_time(&e.pre_time),
            ));
        }
    }
}

fn fmt_endpoint(ep: &Option<Endpoint>) -> String {
    match ep {
        None => "-".to_string(),
        Some(Endpoint::Relative(off)) => format!("r{off}"),
        Some(Endpoint::Absolute(r)) => format!("a{r}"),
        Some(Endpoint::Any) => "any".to_string(),
    }
}

fn fmt_rankset(rs: &RankSet) -> String {
    if rs.is_empty() {
        return "-".to_string();
    }
    rs.sections()
        .iter()
        .map(|s| {
            let mut part = s.start().to_string();
            for (iters, stride) in s.dims() {
                part.push_str(&format!("/{iters},{stride}"));
            }
            part
        })
        .collect::<Vec<_>>()
        .join("+")
}

fn fmt_time(ts: &TimeStats) -> String {
    let mut s = format!("{},{},{},{}", ts.count(), ts.total(), ts.min(), ts.max());
    for (i, &b) in ts.bins().iter().enumerate() {
        if b != 0 {
            s.push_str(&format!(",{i}:{b}"));
        }
    }
    s
}

/// Parse a trace from its text representation.
///
/// Errors carry the 1-based line number of the offending *original* line
/// and a truncated snippet of its content, so degraded-path logs point at
/// the exact wire bytes that failed.
pub fn from_text(text: &str) -> Result<CompressedTrace, FormatError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        Some((_, other)) => return err(format!("line 1: bad header {:?}", snippet(other))),
        None => return err("empty input: missing header"),
    }
    // Keep each surviving line's original (1-based) number through the
    // comment/blank filter.
    let body: Vec<(usize, &str)> = lines
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut pos = 0;
    let mut nodes = Vec::new();
    while pos < body.len() {
        let (node, next) = parse_node(&body, pos)?;
        nodes.push(node);
        pos = next;
    }
    Ok(CompressedTrace::from_nodes(nodes))
}

/// Truncate a line for inclusion in an error message.
fn snippet(line: &str) -> String {
    const MAX: usize = 60;
    if line.chars().count() > MAX {
        let cut: String = line.chars().take(MAX).collect();
        format!("{cut}…")
    } else {
        line.to_string()
    }
}

/// Attach line context to an error bubbling out of a field-level parser.
fn at_line(lineno: usize, line: &str, e: FormatError) -> FormatError {
    FormatError(format!("line {lineno}: {} in {:?}", e.0, snippet(line)))
}

fn parse_node(lines: &[(usize, &str)], pos: usize) -> Result<(TraceNode, usize), FormatError> {
    let &(lineno, line) = lines.get(pos).ok_or_else(|| {
        let last = lines.last().map_or(1, |&(n, _)| n);
        FormatError(format!(
            "unexpected end of trace after line {last} (loop body shorter than declared)"
        ))
    })?;
    if let Some(rest) = line.strip_prefix("L ") {
        let mut parts = rest.split_whitespace();
        let iters: u64 =
            parse_num(parts.next(), "loop iters").map_err(|e| at_line(lineno, line, e))?;
        let body_len: usize =
            parse_num(parts.next(), "loop body length").map_err(|e| at_line(lineno, line, e))?;
        if iters == 0 {
            return Err(at_line(
                lineno,
                line,
                FormatError("loop with zero iterations".into()),
            ));
        }
        let mut body = Vec::with_capacity(body_len);
        let mut cursor = pos + 1;
        for _ in 0..body_len {
            let (node, next) = parse_node(lines, cursor)?;
            body.push(node);
            cursor = next;
        }
        Ok((TraceNode::Loop { iters, body }, cursor))
    } else if let Some(rest) = line.strip_prefix("E ") {
        let event = parse_event(rest).map_err(|e| at_line(lineno, line, e))?;
        Ok((TraceNode::Event(event), pos + 1))
    } else {
        Err(at_line(
            lineno,
            line,
            FormatError("unrecognized trace line".into()),
        ))
    }
}

fn parse_num<T: std::str::FromStr>(field: Option<&str>, what: &str) -> Result<T, FormatError> {
    field
        .ok_or_else(|| FormatError(format!("missing {what}")))?
        .parse()
        .map_err(|_| FormatError(format!("invalid {what}: {field:?}")))
}

fn parse_event(rest: &str) -> Result<EventRecord, FormatError> {
    let mut parts = rest.split_whitespace();
    let kind = parts
        .next()
        .and_then(OpKind::from_mnemonic)
        .ok_or_else(|| FormatError(format!("bad op in event line: {rest:?}")))?;
    let mut src = None;
    let mut dest = None;
    let mut tag = None;
    let mut recv_tag = None;
    let mut count = 0usize;
    let mut comm = Comm::WORLD;
    let mut sig = None;
    let mut ranks = RankSet::empty();
    let mut time = TimeStats::new();
    for field in parts {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| FormatError(format!("bad field {field:?}")))?;
        match key {
            "sig" => {
                sig = Some(StackSig(
                    u64::from_str_radix(value, 16)
                        .map_err(|_| FormatError(format!("bad sig {value:?}")))?,
                ));
            }
            "src" => src = parse_endpoint(value)?,
            "dest" => dest = parse_endpoint(value)?,
            "tag" => {
                tag = if value == "-" {
                    None
                } else {
                    Some(
                        value
                            .parse()
                            .map_err(|_| FormatError(format!("bad tag {value:?}")))?,
                    )
                };
            }
            "tag2" => {
                recv_tag = if value == "-" {
                    None
                } else {
                    Some(
                        value
                            .parse()
                            .map_err(|_| FormatError(format!("bad tag2 {value:?}")))?,
                    )
                };
            }
            "count" => {
                count = value
                    .parse()
                    .map_err(|_| FormatError(format!("bad count {value:?}")))?;
            }
            "comm" => {
                comm = Comm(
                    value
                        .parse()
                        .map_err(|_| FormatError(format!("bad comm {value:?}")))?,
                );
            }
            "ranks" => ranks = parse_rankset(value)?,
            "time" => time = parse_time(value)?,
            other => return err(format!("unknown field {other:?}")),
        }
    }
    let sig = sig.ok_or_else(|| FormatError("event missing sig".into()))?;
    Ok(EventRecord {
        op: MpiOp {
            kind,
            src,
            dest,
            tag,
            recv_tag,
            count,
            comm,
        },
        stack_sig: sig,
        ranks,
        pre_time: time,
    })
}

fn parse_endpoint(s: &str) -> Result<Option<Endpoint>, FormatError> {
    Ok(match s {
        "-" => None,
        "any" => Some(Endpoint::Any),
        _ if s.starts_with('r') => {
            Some(Endpoint::Relative(s[1..].parse().map_err(|_| {
                FormatError(format!("bad relative endpoint {s:?}"))
            })?))
        }
        _ if s.starts_with('a') => {
            Some(Endpoint::Absolute(s[1..].parse().map_err(|_| {
                FormatError(format!("bad absolute endpoint {s:?}"))
            })?))
        }
        _ => return err(format!("bad endpoint {s:?}")),
    })
}

fn parse_rankset(s: &str) -> Result<RankSet, FormatError> {
    if s == "-" {
        return Ok(RankSet::empty());
    }
    let mut sections = Vec::new();
    for part in s.split('+') {
        let mut pieces = part.split('/');
        let start: usize = pieces
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| FormatError(format!("bad rank section {part:?}")))?;
        let mut dims = Vec::new();
        for dim in pieces {
            let (iters, stride) = dim
                .split_once(',')
                .ok_or_else(|| FormatError(format!("bad rank dim {dim:?}")))?;
            dims.push((
                iters
                    .parse()
                    .map_err(|_| FormatError(format!("bad iters {iters:?}")))?,
                stride
                    .parse()
                    .map_err(|_| FormatError(format!("bad stride {stride:?}")))?,
            ));
        }
        sections.push(RankList::from_parts(start, dims).map_err(FormatError)?);
    }
    Ok(RankSet::from_sections(sections))
}

fn parse_time(s: &str) -> Result<TimeStats, FormatError> {
    let mut fields = s.split(',');
    let count: u64 = parse_num(fields.next(), "time count")?;
    let sum: f64 = parse_num(fields.next(), "time sum")?;
    let min: f64 = parse_num(fields.next(), "time min")?;
    let max: f64 = parse_num(fields.next(), "time max")?;
    let mut bins = [0u32; BINS];
    for pair in fields {
        let (idx, c) = pair
            .split_once(':')
            .ok_or_else(|| FormatError(format!("bad histogram pair {pair:?}")))?;
        let idx: usize = idx
            .parse()
            .map_err(|_| FormatError(format!("bad bin index {idx:?}")))?;
        if idx >= BINS {
            return err(format!("bin index {idx} out of range"));
        }
        bins[idx] = c
            .parse()
            .map_err(|_| FormatError(format!("bad bin count {c:?}")))?;
    }
    Ok(TimeStats::from_parts(count, sum, min, max, bins))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(sig: u64, rank: usize) -> EventRecord {
        EventRecord::new(
            MpiOp::send(Endpoint::Relative(1), 3, 64, Comm::WORLD),
            StackSig(sig),
            rank,
            1.25,
        )
    }

    fn sample_trace() -> CompressedTrace {
        let mut t = CompressedTrace::new();
        for _ in 0..10 {
            t.append(ev(0xabc, 0));
            t.append(EventRecord::new(
                MpiOp::recv(Endpoint::Relative(-1), 3, 64, Comm::WORLD),
                StackSig(0xdef),
                0,
                0.5,
            ));
        }
        t.append(EventRecord::new(
            MpiOp::barrier(Comm::WORLD),
            StackSig(0x111),
            0,
            2.0,
        ));
        t
    }

    #[test]
    fn roundtrip_simple() {
        let t = sample_trace();
        let text = to_text(&t);
        let back = from_text(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn roundtrip_nested_loops() {
        let mut t = CompressedTrace::new();
        for _ in 0..5 {
            for _ in 0..4 {
                t.append(ev(1, 0));
                t.append(ev(2, 0));
            }
            t.append(ev(3, 0));
        }
        let back = from_text(&to_text(&t)).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.dynamic_size(), t.dynamic_size());
    }

    #[test]
    fn roundtrip_all_op_kinds() {
        let mut t = CompressedTrace::new();
        t.append(ev(1, 0));
        t.append(EventRecord::new(
            MpiOp::recv(Endpoint::Any, 7, 16, Comm::WORLD),
            StackSig(2),
            0,
            0.0,
        ));
        t.append(EventRecord::new(
            MpiOp::rooted(OpKind::Reduce, 0, 8, Comm::WORLD),
            StackSig(3),
            0,
            0.1,
        ));
        t.append(EventRecord::new(
            MpiOp::rooted(OpKind::Bcast, 5, 8, Comm::WORLD),
            StackSig(4),
            0,
            0.1,
        ));
        t.append(EventRecord::new(
            MpiOp::barrier(Comm::MARKER),
            StackSig(5),
            0,
            0.0,
        ));
        t.append(EventRecord::new(
            MpiOp {
                kind: OpKind::Allreduce,
                src: None,
                dest: None,
                tag: None,
                recv_tag: None,
                count: 8,
                comm: Comm::WORLD,
            },
            StackSig(6),
            0,
            0.2,
        ));
        let back = from_text(&to_text(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn roundtrip_merged_rankset() {
        use crate::merge::merge_traces;
        let a = {
            let mut t = CompressedTrace::new();
            t.append(ev(9, 0));
            t
        };
        let b = {
            let mut t = CompressedTrace::new();
            t.append(ev(9, 17));
            t
        };
        let m = merge_traces(&a, &b);
        let back = from_text(&to_text(&m)).unwrap();
        assert_eq!(back, m);
        let mut ranks = Vec::new();
        back.visit_events(&mut |e| ranks.push(e.ranks.expand()));
        assert_eq!(ranks, vec![vec![0, 17]]);
    }

    #[test]
    fn roundtrip_sendrecv_with_two_tags() {
        let mut t = CompressedTrace::new();
        t.append(EventRecord::new(
            MpiOp {
                kind: OpKind::SendRecv,
                src: Some(Endpoint::Relative(-1)),
                dest: Some(Endpoint::Relative(1)),
                tag: Some(7),
                recv_tag: Some(9),
                count: 128,
                comm: Comm::WORLD,
            },
            StackSig(0x51),
            0,
            0.5,
        ));
        let back = from_text(&to_text(&t)).unwrap();
        assert_eq!(back, t);
        back.visit_events(&mut |e| {
            assert_eq!(e.op.tag, Some(7));
            assert_eq!(e.op.recv_tag, Some(9));
        });
    }

    #[test]
    fn rejects_bad_header() {
        assert!(from_text("GARBAGE\nE send").is_err());
        assert!(from_text("").is_err());
    }

    #[test]
    fn rejects_truncated_loop() {
        let text = format!("{HEADER}\nL 5 2\nE send sig=0000000000000001 src=- dest=r1 tag=0 count=8 comm=0 ranks=0 time=1,0,0,0\n");
        assert!(from_text(&text).is_err(), "loop body shorter than declared");
    }

    #[test]
    fn rejects_zero_iteration_loop() {
        let text = format!("{HEADER}\nL 0 0\n");
        assert!(from_text(&text).is_err());
    }

    #[test]
    fn rejects_unknown_lines_and_fields() {
        assert!(from_text(&format!("{HEADER}\nX what\n")).is_err());
        assert!(from_text(&format!(
            "{HEADER}\nE send sig=1 bogus=3 ranks=0 time=0,0,0,0\n"
        ))
        .is_err());
    }

    #[test]
    fn rejects_malformed_ranklists() {
        let with_ranks = |ranks: &str| {
            from_text(&format!(
                "{HEADER}\nE send sig=0000000000000001 src=- dest=r1 tag=0 count=8 comm=0 ranks={ranks} time=1,0,0,0\n"
            ))
        };
        assert!(with_ranks("0/3,1").is_ok());
        assert!(with_ranks("0/0,1").is_err(), "zero iterations");
        assert!(with_ranks("2/3,-2").is_err(), "member below zero");
        // Three iterations of stride 0 name one rank three times: `len()`
        // would say 3 where `expand()` yields 1.
        assert!(with_ranks("5/3,0").is_err(), "repeated member");
        assert!(
            with_ranks("0/2,8/3,0").is_err(),
            "repeated member, inner dim"
        );
    }

    #[test]
    fn errors_cite_line_number_and_snippet() {
        // Line 1 is the header, line 2 a comment, line 3 the bad event.
        let text = format!(
            "{HEADER}\n# a comment\nE send sig=ZZZ src=- dest=r1 tag=0 tag2=- count=8 comm=0 ranks=0 time=1,0,0,0\n"
        );
        let e = from_text(&text).unwrap_err();
        assert!(e.0.contains("line 3:"), "got: {}", e.0);
        assert!(e.0.contains("sig"), "got: {}", e.0);
        assert!(e.0.contains("E send"), "snippet of the line, got: {}", e.0);
    }

    #[test]
    fn long_offending_lines_are_truncated() {
        let junk = "X".repeat(500);
        let e = from_text(&format!("{HEADER}\n{junk}\n")).unwrap_err();
        assert!(e.0.contains("line 2:"), "got: {}", e.0);
        assert!(e.0.len() < 200, "snippet must be truncated, got: {}", e.0);
        assert!(e.0.contains('…'));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let t = sample_trace();
        let mut text = to_text(&t);
        text.push_str("\n# trailing comment\n\n");
        assert_eq!(from_text(&text).unwrap(), t);
    }

    #[test]
    fn empty_trace_roundtrip() {
        let t = CompressedTrace::new();
        assert_eq!(from_text(&to_text(&t)).unwrap(), t);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use xrand::Xoshiro256;

    fn random_event(rng: &mut Xoshiro256) -> EventRecord {
        let sig = rng.next_u64();
        let off = rng.range_u64(0, 16) as i64 - 8;
        let count = rng.usize_below(64);
        let op = match rng.below(4) {
            0 => MpiOp::send(Endpoint::Relative(off), 1, count, Comm::WORLD),
            1 => MpiOp::recv(Endpoint::Relative(off), 1, count, Comm::WORLD),
            2 => MpiOp::barrier(Comm::WORLD),
            _ => MpiOp {
                kind: OpKind::Allreduce,
                src: None,
                dest: None,
                tag: None,
                recv_tag: None,
                count,
                comm: Comm::WORLD,
            },
        };
        let dt = rng.f64_unit() * 10.0;
        let mut e = EventRecord::new(op, StackSig(sig), 0, dt);
        let nranks = rng.range_usize(1, 6);
        let ranks: Vec<usize> = {
            let mut rs: Vec<usize> = (0..nranks).map(|_| rng.usize_below(64)).collect();
            rs.sort_unstable();
            rs.dedup();
            rs
        };
        e.set_ranks(RankSet::from_ranks(ranks));
        e
    }

    /// Arbitrary single-level traces round-trip exactly.
    #[test]
    fn roundtrip_arbitrary() {
        let mut rng = Xoshiro256::seed_from_u64(0x4011D);
        for _case in 0..256 {
            let mut t = CompressedTrace::new();
            for _ in 0..rng.usize_below(30) {
                t.append(random_event(&mut rng));
            }
            let back = from_text(&to_text(&t)).unwrap();
            assert_eq!(back, t);
        }
    }
}
