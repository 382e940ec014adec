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
//!
//! # What the parser accepts
//!
//! Lines end at `\n` (a `\r` before it is dropped), as [`str::lines`]
//! splits them. Every line is trimmed of Unicode whitespace
//! ([`str::trim`]); lines that are then empty or start with `#` are
//! skipped but still counted, so error messages cite the line's number in
//! the original text. A record starts with exactly `L ` or `E ` (one ASCII
//! space); after that, fields are separated by any run of Unicode
//! whitespace, as [`str::split_whitespace`] separates them: space, tab,
//! vertical tab and form feed, and on a line with non-ASCII bytes, the
//! non-ASCII whitespace too. Numbers are what `str::parse` accepts for
//! their type (a leading `+` and leading zeros included); `sig` is what
//! `u64::from_str_radix(_, 16)` accepts. Fields after a loop's two numbers
//! are ignored.
//!
//! [`from_text`] reads the input in one pass: a cursor steps from line to
//! line, fields are split byte by byte (a `char` is decoded only at a
//! non-ASCII byte), and integers and 16-digit signatures are decoded from
//! their digits; only a field those fast paths reject (a sign, an
//! overflow, another form) goes through `str::parse`. [`to_text`] writes
//! integers the same way, digit by digit, and leaves only non-integral
//! floats to `core::fmt`.

use std::fmt::Write;
use std::str::FromStr;

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

// Every field is written straight into `out`: no line builds a `String`
// of its own, and no integer goes through `core::fmt`.
fn write_node(node: &TraceNode, out: &mut String) {
    match node {
        TraceNode::Loop { iters, body } => {
            out.push_str("L ");
            push_u64(out, *iters);
            out.push(' ');
            push_u64(out, body.len() as u64);
            out.push('\n');
            for n in body {
                write_node(n, out);
            }
        }
        TraceNode::Event(e) => {
            out.push_str("E ");
            out.push_str(e.op.kind.mnemonic());
            out.push_str(" sig=");
            push_hex16(out, e.stack_sig.0);
            out.push_str(" src=");
            write_endpoint(&e.op.src, out);
            out.push_str(" dest=");
            write_endpoint(&e.op.dest, out);
            out.push_str(" tag=");
            write_opt(e.op.tag, out);
            out.push_str(" tag2=");
            write_opt(e.op.recv_tag, out);
            out.push_str(" count=");
            push_u64(out, e.op.count as u64);
            out.push_str(" comm=");
            push_u64(out, u64::from(e.op.comm.0));
            out.push_str(" ranks=");
            write_rankset(&e.ranks, out);
            out.push_str(" time=");
            write_time(&e.pre_time, out);
            out.push('\n');
        }
    }
}

/// The decimal digits of `v`, as `{v}` writes them.
fn push_u64(out: &mut String, mut v: u64) {
    if v < 10 {
        out.push(char::from(b'0' + v as u8));
        return;
    }
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v > 0 {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// `v` as 16 lower-case hex digits, as `{v:016x}` writes it.
fn push_hex16(out: &mut String, v: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = DIGITS[((v >> (60 - 4 * i)) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

/// `v` as `{v}` writes it. An integral float below 2^53 in magnitude
/// (other than −0.0, which `{}` writes as `-0`) is exactly an `i64`, and
/// `{}` writes it as that integer's digits.
fn push_f64(out: &mut String, v: f64) {
    const EXACT: f64 = (1u64 << 53) as f64;
    if v.fract() == 0.0 && v.abs() < EXACT && !(v == 0.0 && v.is_sign_negative()) {
        push_i64(out, v as i64);
    } else {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{v}");
    }
}

fn write_opt(v: Option<u32>, out: &mut String) {
    match v {
        Some(v) => push_u64(out, u64::from(v)),
        None => out.push('-'),
    }
}

fn write_endpoint(ep: &Option<Endpoint>, out: &mut String) {
    match ep {
        None => out.push('-'),
        Some(Endpoint::Relative(off)) => {
            out.push('r');
            push_i64(out, *off);
        }
        Some(Endpoint::Absolute(r)) => {
            out.push('a');
            push_u64(out, *r as u64);
        }
        Some(Endpoint::Any) => out.push_str("any"),
    }
}

fn write_rankset(rs: &RankSet, out: &mut String) {
    if rs.is_empty() {
        out.push('-');
        return;
    }
    for (i, s) in rs.sections().iter().enumerate() {
        if i > 0 {
            out.push('+');
        }
        push_u64(out, s.start() as u64);
        for &(iters, stride) in s.dims() {
            out.push('/');
            push_u64(out, iters as u64);
            out.push(',');
            push_i64(out, stride);
        }
    }
}

fn write_time(ts: &TimeStats, out: &mut String) {
    push_u64(out, ts.count());
    for v in [ts.total(), ts.min(), ts.max()] {
        out.push(',');
        push_f64(out, v);
    }
    for (i, &b) in ts.bins().iter().enumerate() {
        if b != 0 {
            out.push(',');
            push_u64(out, i as u64);
            out.push(':');
            push_u64(out, u64::from(b));
        }
    }
}

/// Parse a trace from its text representation.
///
/// Errors carry the 1-based line number of the offending *original* line
/// and a truncated snippet of its content, so degraded-path logs point at
/// the exact wire bytes that failed.
pub fn from_text(text: &str) -> Result<CompressedTrace, FormatError> {
    let mut lines = Lines {
        rest: text,
        lineno: 0,
        last_record: 1,
    };
    match lines.next_raw() {
        Some(h) if h.trim() == HEADER => {}
        Some(other) => return err(format!("line 1: bad header {:?}", snippet(other))),
        None => return err("empty input: missing header"),
    }
    let mut nodes = Vec::new();
    while let Some(line) = lines.next_record() {
        nodes.push(parse_node(&mut lines, line)?);
    }
    Ok(CompressedTrace::from_nodes(nodes))
}

/// The parser's cursor: the unread text and the number of the line last
/// read.
struct Lines<'a> {
    rest: &'a str,
    lineno: usize,
    /// Number of the last record line read (1 before any).
    last_record: usize,
}

/// One record line: its 1-based number and its trimmed text.
#[derive(Clone, Copy)]
struct Line<'a> {
    no: usize,
    text: &'a str,
}

impl<'a> Lines<'a> {
    /// The next line as [`str::lines`] yields it.
    fn next_raw(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        self.lineno += 1;
        let line = match self.rest.find('\n') {
            Some(end) => {
                let line = &self.rest[..end];
                self.rest = &self.rest[end + 1..];
                line.strip_suffix('\r').unwrap_or(line)
            }
            None => std::mem::take(&mut self.rest),
        };
        Some(line)
    }

    /// The next line that is neither blank nor a comment, trimmed.
    fn next_record(&mut self) -> Option<Line<'a>> {
        while let Some(raw) = self.next_raw() {
            let text = raw.trim();
            if !text.is_empty() && !text.starts_with('#') {
                self.last_record = self.lineno;
                return Some(Line {
                    no: self.lineno,
                    text,
                });
            }
        }
        None
    }
}

impl Line<'_> {
    /// Attach this line's context to an error bubbling out of a
    /// field-level parser.
    fn error(&self, e: FormatError) -> FormatError {
        FormatError(format!(
            "line {}: {} in {:?}",
            self.no,
            e.0,
            snippet(self.text)
        ))
    }
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

fn parse_node(lines: &mut Lines<'_>, line: Line<'_>) -> Result<TraceNode, FormatError> {
    if let Some(rest) = line.text.strip_prefix("L ") {
        let mut parts = Fields(rest);
        let iters: u64 = field(parts.next(), "loop iters", int).map_err(|e| line.error(e))?;
        let body_len: usize =
            field(parts.next(), "loop body length", int).map_err(|e| line.error(e))?;
        if iters == 0 {
            return Err(line.error(FormatError("loop with zero iterations".into())));
        }
        // Every body node takes a line of at least two bytes, so the
        // declared length reserves no more than the rest of the text can
        // hold.
        let mut body = Vec::with_capacity(body_len.min(lines.rest.len() / 2));
        for _ in 0..body_len {
            let next = lines.next_record().ok_or_else(|| {
                FormatError(format!(
                    "unexpected end of trace after line {} (loop body shorter than declared)",
                    lines.last_record
                ))
            })?;
            body.push(parse_node(lines, next)?);
        }
        Ok(TraceNode::Loop { iters, body })
    } else if let Some(rest) = line.text.strip_prefix("E ") {
        let event = parse_event(rest).map_err(|e| line.error(e))?;
        Ok(TraceNode::Event(event))
    } else {
        Err(line.error(FormatError("unrecognized trace line".into())))
    }
}

/// The whitespace-separated fields of a line, as [`str::split_whitespace`]
/// yields them, found byte by byte: only a non-ASCII byte makes the
/// splitter decode a `char`.
struct Fields<'a>(&'a str);

/// Whether the character starting at byte `i` of `s` is whitespace, and
/// its length in bytes.
fn char_at(s: &str, i: usize) -> (bool, usize) {
    let b = s.as_bytes()[i];
    if b.is_ascii() {
        // The ASCII characters `char::is_whitespace` accepts.
        (matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r'), 1)
    } else {
        let c = s[i..]
            .chars()
            .next()
            .expect("fields end on char boundaries");
        (c.is_whitespace(), c.len_utf8())
    }
}

/// Printable ASCII (`!` to `~`): never whitespace, never part of a
/// multi-byte `char`.
fn printable(b: u8) -> bool {
    b.wrapping_sub(b'!') <= b'~' - b'!'
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let s = self.0;
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b' ' => i += 1,
                b if printable(b) => break,
                _ => match char_at(s, i) {
                    (true, n) => i += n,
                    (false, _) => break,
                },
            }
        }
        if i == bytes.len() {
            self.0 = "";
            return None;
        }
        let start = i;
        while i < bytes.len() {
            if printable(bytes[i]) {
                i += 1;
                continue;
            }
            match char_at(s, i) {
                (true, _) => break,
                (false, n) => i += n,
            }
        }
        self.0 = &s[i..];
        Some(&s[start..i])
    }
}

/// `s.split(sep)` for an ASCII `sep`, searched byte by byte: the pieces
/// of a field are a few bytes long, too short for `memchr` to pay.
struct Pieces<'a> {
    rest: Option<&'a str>,
    sep: u8,
}

fn pieces(s: &str, sep: u8) -> Pieces<'_> {
    Pieces { rest: Some(s), sep }
}

impl<'a> Iterator for Pieces<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let s = self.rest?;
        match cut(s, self.sep) {
            Some((piece, rest)) => {
                self.rest = Some(rest);
                Some(piece)
            }
            None => self.rest.take(),
        }
    }
}

/// `s.split_once(sep)` for an ASCII `sep`, searched byte by byte.
fn cut(s: &str, sep: u8) -> Option<(&str, &str)> {
    let i = s.bytes().position(|b| b == sep)?;
    Some((&s[..i], &s[i + 1..]))
}

/// A required field parsed by `parse`, with today's error messages.
fn field<T>(
    value: Option<&str>,
    what: &str,
    parse: fn(&str) -> Option<T>,
) -> Result<T, FormatError> {
    let s = value.ok_or_else(|| FormatError(format!("missing {what}")))?;
    parse(s).ok_or_else(|| FormatError(format!("invalid {what}: {value:?}")))
}

/// `s.parse::<T>()` for an integer type. Up to 19 plain decimal digits
/// are decoded directly; anything else — a sign, more digits, a value
/// `T` cannot hold, a stray byte — is left to `str::parse`.
fn int<T: FromStr + TryFrom<u64>>(s: &str) -> Option<T> {
    let b = s.as_bytes();
    if !b.is_empty() && b.len() <= 19 {
        let mut v = 0u64;
        let mut plain = true;
        for &c in b {
            let d = c.wrapping_sub(b'0');
            if d > 9 {
                plain = false;
                break;
            }
            v = v * 10 + u64::from(d);
        }
        if plain {
            if let Ok(v) = T::try_from(v) {
                return Some(v);
            }
        }
    }
    s.parse().ok()
}

/// `s.parse::<f64>()`. Up to 15 plain decimal digits name an integer
/// below 2^53, which an `f64` holds exactly.
fn float(s: &str) -> Option<f64> {
    if s.len() <= 15 && !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
        return int::<u64>(s).map(|v| v as f64);
    }
    s.parse().ok()
}

/// `u64::from_str_radix(s, 16)`, decoding the 16-digit form `to_text`
/// writes from a table.
fn hex(s: &str) -> Option<u64> {
    const INVALID: u8 = 0xff;
    const VALUE: [u8; 256] = {
        let mut t = [INVALID; 256];
        let mut i = 0;
        while i < 10 {
            t[b'0' as usize + i] = i as u8;
            i += 1;
        }
        let mut i = 0;
        while i < 6 {
            t[b'a' as usize + i] = 10 + i as u8;
            t[b'A' as usize + i] = 10 + i as u8;
            i += 1;
        }
        t
    };
    if s.len() == 16 {
        let mut v = 0u64;
        let mut plain = true;
        for &c in s.as_bytes() {
            let d = VALUE[c as usize];
            if d == INVALID {
                plain = false;
                break;
            }
            v = (v << 4) | u64::from(d);
        }
        if plain {
            return Some(v);
        }
    }
    u64::from_str_radix(s, 16).ok()
}

fn parse_event(rest: &str) -> Result<EventRecord, FormatError> {
    let mut parts = Fields(rest);
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
        let (key, value) =
            cut(field, b'=').ok_or_else(|| FormatError(format!("bad field {field:?}")))?;
        let bad = |what: &str| FormatError(format!("bad {what} {value:?}"));
        match key {
            "sig" => sig = Some(StackSig(hex(value).ok_or_else(|| bad("sig"))?)),
            "src" => src = parse_endpoint(value)?,
            "dest" => dest = parse_endpoint(value)?,
            "tag" => tag = parse_tag(value).ok_or_else(|| bad("tag"))?,
            "tag2" => recv_tag = parse_tag(value).ok_or_else(|| bad("tag2"))?,
            "count" => count = int(value).ok_or_else(|| bad("count"))?,
            "comm" => comm = Comm(int(value).ok_or_else(|| bad("comm"))?),
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

/// A tag field: `-` for none, else the tag; `None` if neither.
fn parse_tag(s: &str) -> Option<Option<u32>> {
    if s == "-" {
        Some(None)
    } else {
        int(s).map(Some)
    }
}

fn parse_endpoint(s: &str) -> Result<Option<Endpoint>, FormatError> {
    Ok(match s {
        "-" => None,
        "any" => Some(Endpoint::Any),
        _ if s.starts_with('r') => {
            Some(Endpoint::Relative(int(&s[1..]).ok_or_else(|| {
                FormatError(format!("bad relative endpoint {s:?}"))
            })?))
        }
        _ if s.starts_with('a') => {
            Some(Endpoint::Absolute(int(&s[1..]).ok_or_else(|| {
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
    for part in pieces(s, b'+') {
        let mut dims_of = pieces(part, b'/');
        let start: usize = dims_of
            .next()
            .and_then(int)
            .ok_or_else(|| FormatError(format!("bad rank section {part:?}")))?;
        let mut dims = Vec::new();
        for dim in dims_of {
            let (iters, stride) =
                cut(dim, b',').ok_or_else(|| FormatError(format!("bad rank dim {dim:?}")))?;
            dims.push((
                int(iters).ok_or_else(|| FormatError(format!("bad iters {iters:?}")))?,
                int(stride).ok_or_else(|| FormatError(format!("bad stride {stride:?}")))?,
            ));
        }
        sections.push(RankList::from_parts(start, dims).map_err(FormatError)?);
    }
    Ok(RankSet::from_sections(sections))
}

fn parse_time(s: &str) -> Result<TimeStats, FormatError> {
    let mut fields = pieces(s, b',');
    let count: u64 = field(fields.next(), "time count", int)?;
    let sum = field(fields.next(), "time sum", float)?;
    let min = field(fields.next(), "time min", float)?;
    let max = field(fields.next(), "time max", float)?;
    let mut bins = [0u32; BINS];
    for pair in fields {
        let (idx, c) =
            cut(pair, b':').ok_or_else(|| FormatError(format!("bad histogram pair {pair:?}")))?;
        let idx: usize = int(idx).ok_or_else(|| FormatError(format!("bad bin index {idx:?}")))?;
        if idx >= BINS {
            return err(format!("bin index {idx} out of range"));
        }
        bins[idx] = int(c).ok_or_else(|| FormatError(format!("bad bin count {c:?}")))?;
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

    #[test]
    fn huge_declared_loop_lengths_are_errors_not_aborts() {
        // A 27-byte text once reserved 10^8 body nodes (a 22 GB request)
        // and aborted; the largest `usize` overflowed the capacity.
        for len in ["100000000", "18446744073709551615"] {
            let text = format!("{HEADER}\nL 1 {len}\n");
            let e = from_text(&text).unwrap_err();
            assert!(
                e.0.contains("unexpected end of trace after line 2"),
                "got: {}",
                e.0
            );
        }
        let mut text = format!("{HEADER}\nL 1 100000000\n");
        text.push_str(&to_text(&sample_trace())[HEADER.len() + 1..]);
        assert!(from_text(&text).is_err(), "body shorter than declared");
    }
}

#[cfg(test)]
mod reference {
    //! The codec as it was: the writer built one `String` per field, and
    //! the parser collected every trimmed line into a table before parsing
    //! each field through `split`/`parse`. The tests hold [`to_text`] and
    //! [`from_text`] to these bytes and these results.
    use super::*;

    /// The writer as it was, one `String` per field.
    pub(super) fn to_text(trace: &CompressedTrace) -> String {
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

    /// The parser as it was.
    pub(super) fn from_text(text: &str) -> Result<CompressedTrace, FormatError> {
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
            let body_len: usize = parse_num(parts.next(), "loop body length")
                .map_err(|e| at_line(lineno, line, e))?;
            if iters == 0 {
                return Err(at_line(
                    lineno,
                    line,
                    FormatError("loop with zero iterations".into()),
                ));
            }
            // The one departure from the parser as it was: it reserved
            // `body_len` nodes up front, which aborts on a huge declared length.
            let mut body = Vec::new();
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
            let text = to_text(&t);
            assert_eq!(text, reference::to_text(&t));
            assert_eq!(from_text(&text).unwrap(), t);
        }
    }

    /// Beyond `roundtrip_arbitrary`: the same generator with repeated
    /// events (so `append` folds loops), the operations it never draws
    /// (absolute and wildcard endpoints, two tags, rooted collectives), and
    /// merges of consecutive traces (multi-section ranksets).
    #[test]
    fn to_text_writes_the_reference_writers_bytes() {
        let exotic = [
            MpiOp::recv(Endpoint::Any, 7, 16, Comm::WORLD),
            MpiOp::send(Endpoint::Absolute(5), 2, 8, Comm::MARKER),
            MpiOp::rooted(OpKind::Bcast, 3, 8, Comm::WORLD),
            MpiOp {
                kind: OpKind::SendRecv,
                src: Some(Endpoint::Relative(-1)),
                dest: Some(Endpoint::Relative(1)),
                tag: Some(7),
                recv_tag: Some(9),
                count: 128,
                comm: Comm::WORLD,
            },
        ];
        let mut rng = Xoshiro256::seed_from_u64(0x4011D);
        let mut previous = CompressedTrace::new();
        for case in 0..256 {
            let mut t = CompressedTrace::new();
            for _ in 0..rng.usize_below(30) {
                let mut e = random_event(&mut rng);
                if rng.gen_bool(0.2) {
                    e.op = exotic[rng.usize_below(exotic.len())].clone();
                }
                for _ in 0..rng.range_usize(1, 3) {
                    t.append(e.clone());
                }
            }
            assert_eq!(to_text(&t), reference::to_text(&t), "case {case}");
            let merged = crate::merge::merge_traces(&previous, &t);
            assert_eq!(
                to_text(&merged),
                reference::to_text(&merged),
                "merged case {case}"
            );
            previous = t;
        }

        // Floats: `{}`'s shortest round-trip bytes, and integral values
        // written as integers by the digit writer.
        let mut steps = 0.0;
        let mut sums = Vec::new();
        for i in 1..=100_000 {
            steps += 1e-6;
            if i % 9_973 == 0 || i == 100_000 {
                sums.push(steps);
            }
        }
        let two53 = (1u64 << 53) as f64;
        let mut edges = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1e15 - 1.0,
            1e15,
            1e15 + 1.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            -(two53 - 1.0),
            -two53,
            1e16,
            1e300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            0.1 + 0.2,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        edges.extend(sums);
        let mut t = CompressedTrace::new();
        for (i, &v) in edges.iter().enumerate() {
            let mut e = random_event(&mut rng);
            e.stack_sig = StackSig(i as u64);
            let w = edges[(i + 7) % edges.len()];
            e.pre_time = TimeStats::from_parts(i as u64, v, w, -v, [0; BINS]);
            t.append(e);
        }
        let text = to_text(&t);
        assert_eq!(text, reference::to_text(&t));
        let back = from_text(&text).unwrap();
        let bits = |t: &CompressedTrace| {
            let mut v = Vec::new();
            t.visit_events(&mut |e| {
                let ts = &e.pre_time;
                v.push([ts.total(), ts.min(), ts.max()].map(f64::to_bits));
            });
            v
        };
        assert_eq!(bits(&back), bits(&t), "floats round-trip bit for bit");
    }

    /// Seeded mutations of the texts `roundtrip_arbitrary` writes, each
    /// one a way a text may depart from what `to_text` writes.
    fn mutate(text: &str, rng: &mut Xoshiro256) -> String {
        let mut s = text.to_string();
        for _ in 0..rng.range_usize(1, 4) {
            let at = |rng: &mut Xoshiro256, s: &str| {
                let mut i = rng.usize_below(s.len() + 1);
                while !s.is_char_boundary(i) {
                    i -= 1;
                }
                i
            };
            match rng.below(12) {
                // A byte replaced by one of the format's own bytes.
                0 => {
                    const BYTES: &[u8] = b"0123456789abcdefLE =,:/+-#\nrx";
                    let i = at(rng, &s);
                    if i < s.len() && s.as_bytes()[i].is_ascii() {
                        let b = BYTES[rng.usize_below(BYTES.len())] as char;
                        s.replace_range(i..i + 1, b.encode_utf8(&mut [0; 4]));
                    }
                }
                // Truncation.
                1 => {
                    let i = at(rng, &s);
                    s.truncate(i);
                }
                // CRLF line ends, and a stray CR.
                2 => s = s.replace('\n', "\r\n"),
                3 => {
                    let i = at(rng, &s);
                    s.insert(i, '\r');
                }
                // Comment and blank lines, and indentation.
                4 => {
                    let i = s[..at(rng, &s)].rfind('\n').map_or(0, |i| i + 1);
                    let line = ["# note\n", "\n", "  \t\n", "   ", "\t#\n"][rng.usize_below(5)];
                    s.insert_str(i, line);
                }
                // Other ASCII whitespace between fields.
                5 => {
                    let ws = ["\t", "\x0b", "\x0c", "  ", " \t "][rng.usize_below(5)];
                    let i = at(rng, &s);
                    if let Some(j) = s[i..].find(' ') {
                        s.replace_range(i + j..i + j + 1, ws);
                    }
                }
                // A sign or a leading zero before a digit.
                6 | 7 => {
                    let i = at(rng, &s);
                    if let Some(j) = s[i..].find(|c: char| c.is_ascii_digit()) {
                        s.insert(i + j, if rng.gen_bool(0.5) { '+' } else { '0' });
                    }
                }
                // A number too large for its field.
                8 => {
                    let i = at(rng, &s);
                    if let Some(j) = s[i..].find(|c: char| c.is_ascii_digit()) {
                        let big = [
                            "4294967296",
                            "18446744073709551616",
                            "99999999999999999999999",
                        ][rng.usize_below(3)];
                        s.insert_str(i + j, big);
                    }
                }
                // Non-ASCII whitespace for a space, or a non-ASCII byte
                // inside a field.
                9 | 10 => {
                    let i = at(rng, &s);
                    if let Some(j) = s[i..].find(' ') {
                        let c =
                            ['\u{a0}', '\u{85}', '\u{2003}', '\u{3000}', 'é'][rng.usize_below(5)];
                        s.replace_range(i + j..i + j + 1, c.encode_utf8(&mut [0; 4]));
                    }
                }
                // A deleted byte.
                _ => {
                    let i = at(rng, &s);
                    if i < s.len() {
                        s.remove(i);
                    }
                }
            }
        }
        s
    }

    /// The one-pass parser accepts what the parser as it was accepted, with
    /// the same trace or the same error message.
    #[test]
    fn from_text_agrees_with_the_reference_parser() {
        let mut rng = Xoshiro256::seed_from_u64(0x4011D);
        let mut corpus = Vec::new();
        for _case in 0..256 {
            let mut t = CompressedTrace::new();
            for _ in 0..rng.usize_below(30) {
                let e = random_event(&mut rng);
                for _ in 0..rng.range_usize(1, 3) {
                    t.append(e.clone());
                }
            }
            corpus.push(to_text(&t));
        }
        let mut mrng = Xoshiro256::seed_from_u64(0x005E_ED46);
        let (mut oks, mut errs) = (0, 0);
        for (case, text) in corpus.iter().enumerate() {
            for m in 0..16 {
                let mutated = mutate(text, &mut mrng);
                let got = from_text(&mutated);
                let want = reference::from_text(&mutated);
                // Debug strings, so that a NaN compares equal to itself.
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "case {case} mutation {m}: {mutated:?}"
                );
                if got.is_ok() {
                    oks += 1;
                } else {
                    errs += 1;
                }
            }
        }
        // The corpus exercises both outcomes in earnest.
        assert!(oks > 400 && errs > 400, "{oks} accepted, {errs} rejected");
    }
}
