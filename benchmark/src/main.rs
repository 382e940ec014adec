//! `chambench` — the repo's benchmark. See `README.md` beside this crate.
//!
//! One workload per process:
//!
//! ```text
//! chambench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric by name with its unit and, as the last line of
//! standard output, one JSON object `{correct, attempted, failed,
//! metrics}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. Without `--workload` it runs the whole suite, each
//! workload in a process of its own.

mod fold_wl;
mod gen;
mod harness;
mod json;
mod layers;
mod probes;
mod serve_wl;
mod spans;
mod stats;
mod suite;
mod sys;
mod trace_wl;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{measure, Measured, Workload};
use json::Json;
use stats::{median, median_of, quartiles, sorted, tail_percentile};
use sys::Pinning;

/// The five workloads, with why each exists (repeated in BENCHMARK.json).
pub const WORKLOADS: [&str; 5] = [
    "trace_online",
    "trace_finalize",
    "fold_offline",
    "serve_ingest",
    "serve_query",
];

/// Seed used when none is given, and the one `golden.json` pins.
pub const DEFAULT_SEED: u64 = 42;
/// Run length used when none is given (BENCHMARK.json's `run_seconds`).
pub const DEFAULT_SECONDS: u64 = 15;
/// Times set-up is run in an untraced run, to report its median.
const SETUP_REPEATS: usize = 3;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    /// `Some(false)` untraced, `Some(true)` traced, `None` (suite only) both.
    pub trace: Option<bool>,
    pub golden: Option<PathBuf>,
    pub mode: Mode,
}

#[derive(PartialEq)]
pub enum Mode {
    Run,
    Check,
    Spread(usize),
    WriteGolden,
}

const USAGE: &str = "usage: chambench [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]]
                 [--golden FILE] [--check | --spread RUNS | --write-golden]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        golden: None,
        mode: Mode::Run,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = number(value("a number")?)?,
            "--seconds" => args.seconds = number(value("a number")?)?.max(1),
            "--trace" => {
                // Bare `--trace` means `--trace 1`.
                args.trace = Some(match it.next_if(|v| *v == "0" || *v == "1") {
                    Some(v) => v == "1",
                    None => true,
                });
            }
            "--golden" => args.golden = Some(PathBuf::from(value("a file")?)),
            "--check" => args.mode = Mode::Check,
            "--spread" => args.mode = Mode::Spread(number(value("a run count")?)?.max(2) as usize),
            "--write-golden" => args.mode = Mode::WriteGolden,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Where the benchmark's own files live: the directory of its manifest.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// The pinned observations. Compiled in; `--golden` substitutes a file
/// (the test that corrupts a digest does).
struct Golden(Json);

impl Golden {
    fn load(file: Option<&Path>) -> Result<Golden, String> {
        let text = match file {
            None => include_str!("../golden.json").to_string(),
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?,
        };
        Json::parse(&text).map(Golden)
    }

    fn seed(&self) -> Option<u64> {
        self.0.get("seed").and_then(Json::as_u64)
    }

    fn entry(&self, path: &[&str]) -> Option<Json> {
        self.0.at(path).cloned()
    }
}

/// Set one workload up. Everything it takes from outside is the seed.
fn build(
    name: &str,
    seed: u64,
    golden: &Golden,
    pin: &Pinning,
) -> Result<Box<dyn Workload>, String> {
    let pinned = |path: &[&str]| golden.entry(path);
    Ok(match name {
        "trace_online" => Box::new(trace_wl::TraceWorkload::setup(
            trace_wl::Path::Online,
            seed,
            |key| pinned(&[name, key]),
        )),
        "trace_finalize" => Box::new(trace_wl::TraceWorkload::setup(
            trace_wl::Path::Finalize,
            seed,
            |key| pinned(&[name, key]),
        )),
        "fold_offline" => {
            // The inputs depend on the seed, so the digest pin holds for
            // the golden seed only; a missing pin there is a mismatch.
            let at_golden_seed = golden.seed() == Some(seed);
            let pin = at_golden_seed.then(|| pinned(&[name]).unwrap_or(Json::Null));
            Box::new(fold_wl::FoldWorkload::setup(seed, pin))
        }
        "serve_ingest" => {
            let journals = serve_wl::Journals::generate();
            Box::new(serve_wl::IngestWorkload::setup(
                seed,
                journals,
                &out_dir(),
                pin,
            )?)
        }
        "serve_query" => {
            let journals = serve_wl::Journals::generate();
            Box::new(serve_wl::QueryWorkload::setup(
                seed,
                &journals,
                &out_dir(),
                pin,
            )?)
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Print a timing as median, quartiles and sample count.
fn print_timing(name: &str, unit: &str, values: &[f64]) {
    let s = sorted(values);
    if s.len() >= 2 {
        let [q1, _, q3] = quartiles(&s);
        println!(
            "{name:<28} median {:.4} {unit}  q1 {q1:.4}  q3 {q3:.4}  n {}",
            median(&s),
            s.len()
        );
    } else {
        println!("{name:<28} {:.4} {unit}  n {}", median(&s), s.len());
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(m: &Measured, setup_s: &[f64], peak_rss_mb: f64) -> Metrics {
    let op_ms = sorted(&m.op_ms);
    let (tail, pct) = tail_percentile(&op_ms, 0.90);
    print_timing("setup_s", "s", setup_s);
    print_timing("op_ms", "ms", &m.op_ms);
    println!(
        "op tail reported at p{:.1} (ten samples beyond it)",
        pct * 100.0
    );
    let ops = m.ops() as f64;
    vec![
        ("setup_s", median_of(setup_s), "s"),
        ("ops_per_s", m.ops_per_s(), "1/s"),
        ("op_p50_ms", median(&op_ms), "ms"),
        ("op_p90_ms", tail, "ms"),
        ("cpu_ms_per_op", m.cpu.as_secs_f64() * 1e3 / ops, "ms"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("out_bytes_per_op", m.bytes as f64 / ops, "bytes"),
    ]
}

/// Span names the workloads record, each with the layer metric that
/// reports its mean self time per op.
const SPAN_METRICS: [(&str, &str); 9] = [
    ("op", "span.op.self_ms"),
    ("workloads.run", "span.workloads.run.self_ms"),
    ("scalatrace.to_text", "span.scalatrace.to_text.self_ms"),
    ("scalatrace.from_text", "span.scalatrace.from_text.self_ms"),
    ("scalareplay.replay", "span.scalareplay.replay.self_ms"),
    ("scalatrace.merge_all", "span.scalatrace.merge_all.self_ms"),
    (
        "scalatrace.merge_traces",
        "span.scalatrace.merge_traces.self_ms",
    ),
    ("chamserve.push", "span.chamserve.push.self_ms"),
    ("chamserve.get", "span.chamserve.get.self_ms"),
];

/// Per-layer values the traced ops themselves give: self time per span
/// name and per op, and the share of the measured op wall that the spans'
/// self times add up to.
fn span_metrics(traced: &Measured) -> (probes::Values, f64) {
    let by_name = spans::self_time_by_name(&traced.spans);
    let ops = traced.ops() as f64;
    let mut v: probes::Values = Vec::new();
    for (span, metric) in SPAN_METRICS {
        let own = by_name
            .iter()
            .find(|(n, _)| *n == span)
            .map_or(0, |(_, t)| *t);
        v.push((metric, own as f64 / 1e6 / ops));
    }
    let covered: u64 = by_name.iter().map(|(_, t)| t).sum();
    let op_wall_ns: f64 = traced.op_ms.iter().sum::<f64>() * 1e6;
    let cover = covered as f64 / op_wall_ns;
    v.push(("bench.span_cover_frac", cover));
    (v, cover)
}

/// Run one workload in this process and print its result line.
fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let pin = Pinning::detect();
    let golden = Golden::load(args.golden.as_deref())?;
    let traced = args.trace.unwrap_or(false);
    let pinned = pin.one();
    println!(
        "workload {name}  seed {}  seconds {}  trace {}",
        args.seed,
        args.seconds,
        u8::from(traced)
    );
    println!("nproc {}  pinned {pinned}", pin.nproc());
    if !pinned {
        // Unpinned, the same sim run flips between two modes a factor of
        // three apart: a number from either would mean nothing.
        return Err(format!(
            "{name}: cannot pin to one CPU; its timings are unresolved"
        ));
    }

    let timed_setup = || -> Result<(Box<dyn Workload>, f64), String> {
        let t = Instant::now();
        let w = build(name, args.seed, &golden, &pin)?;
        Ok((w, t.elapsed().as_secs_f64()))
    };
    let (mut workload, first_setup_s) = timed_setup()?;
    let length = Duration::from_secs(args.seconds);

    let (metrics, attempted, mut failed): (Metrics, u64, u64);
    if !traced {
        let m = measure(&*workload, length, false);
        let peak_rss_mb = sys::peak_rss_mb().unwrap_or(0.0);
        (attempted, failed) = (m.ops(), m.failed);
        if let Err(e) = workload.finish(m.ops()) {
            println!("post-run check failed: {e}");
            failed += 1;
        }
        // Set-up again, twice, for a steady median — after the timed loop,
        // so that what the repeats leave behind is not in its memory.
        let mut setup_s = vec![first_setup_s];
        for _ in 1..SETUP_REPEATS {
            let (mut again, secs) = timed_setup()?;
            again.finish(0).ok();
            setup_s.push(secs);
        }
        metrics = end_to_end(&m, &setup_s, peak_rss_mb);
    } else {
        // A quarter of the run untraced, a quarter traced: their ratio is
        // what recording spans costs. The layer probes take the rest.
        let plain = measure(&*workload, length / 4, false);
        let with_spans = measure(&*workload, length / 4, true);
        (attempted, failed) = (
            plain.ops() + with_spans.ops(),
            plain.failed + with_spans.failed,
        );
        if let Err(e) = workload.finish(attempted) {
            println!("post-run check failed: {e}");
            failed += 1;
        }
        let file = out_dir().join(format!("trace_{name}.json"));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| {
                let doc = spans::to_json(name, args.seed, &with_spans.spans);
                std::fs::write(&file, doc.encode() + "\n")
            })
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        println!("spans written to {}", file.display());

        let (mut values, cover) = span_metrics(&with_spans);
        values.push((
            "bench.trace_overhead_frac",
            1.0 - with_spans.ops_per_s() / plain.ops_per_s(),
        ));
        if (cover - 1.0).abs() > 0.05 {
            println!("span self times cover {cover:.3} of the op wall; want within 5 % of 1");
            failed += 1;
        }
        let journals = serve_wl::Journals::generate();
        values.extend(probes::run_all(args.seed, &pin, &journals, &out_dir())?);
        metrics = layers::LAYERS
            .iter()
            .map(|l| {
                let value = values.iter().find(|(n, _)| *n == l.name).map(|(_, v)| *v);
                Ok((
                    l.name,
                    value.ok_or(format!("no probe reported {}", l.name))?,
                    l.unit,
                ))
            })
            .collect::<Result<_, String>>()?;
    }

    for (name, value, unit) in &metrics {
        match layers::LAYERS.iter().find(|l| l.name == *name) {
            None => println!("{name:<44} {value:>16.4} {unit}"),
            Some(l) => println!(
                "{name:<44} {value:>16.4} {unit:<6} {} is better; moves {}",
                l.better, l.moves
            ),
        }
    }
    println!(
        "attempted {attempted}  failed {failed}  failed_frac {}",
        failed as f64 / attempted as f64
    );
    let correct = failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", line.encode());
    Ok(correct)
}

/// Observe what `golden.json` should pin and write it.
fn write_golden() -> Result<(), String> {
    let pin = Pinning::detect();
    if !pin.one() {
        return Err("cannot pin to one CPU".into());
    }
    let online = trace_wl::TraceWorkload::setup(trace_wl::Path::Online, DEFAULT_SEED, |_| None);
    let finalize = trace_wl::TraceWorkload::setup(trace_wl::Path::Finalize, DEFAULT_SEED, |_| None);
    let fold = fold_wl::FoldWorkload::setup(DEFAULT_SEED, None);
    let doc = Json::obj([
        ("seed", Json::Num(DEFAULT_SEED as f64)),
        ("trace_online", online.golden_entries()),
        ("trace_finalize", finalize.golden_entries()),
        ("fold_offline", fold.seen),
    ]);
    let file = bench_dir().join("golden.json");
    // One top-level member per line, so a re-pin diffs readably.
    let text = doc
        .encode()
        .replace(",\"trace_", ",\n\"trace_")
        .replace(",\"fold_", ",\n\"fold_");
    std::fs::write(&file, text + "\n").map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("wrote {}", file.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match (&args.mode, &args.workload) {
        (Mode::WriteGolden, _) => write_golden().map(|()| true),
        (Mode::Run, Some(name)) => run_workload(&args, name),
        _ => suite::run(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("chambench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "serve_query",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_query"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15, Some(true)));
        let a = args(&["--trace", "--seed", "3"]).unwrap();
        assert_eq!((a.trace, a.seed), (Some(true), 3));
        assert_eq!(args(&["--trace", "0"]).unwrap().trace, Some(false));
        assert!(args(&[]).unwrap().trace.is_none());
        assert!(args(&["--spread", "10"]).unwrap().mode == Mode::Spread(10));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn compiled_in_golden_parses_and_pins_every_input() {
        let g = Golden::load(None).unwrap();
        assert_eq!(g.seed(), Some(DEFAULT_SEED));
        for (name, p) in trace_wl::ONLINE_INPUTS {
            let e = g
                .entry(&["trace_online", &format!("{name}/p{p}")])
                .expect("pinned");
            assert_eq!(e.get("dropped_events").and_then(Json::as_u64), Some(0));
        }
        for (name, p) in trace_wl::FINALIZE_INPUTS {
            assert!(g
                .entry(&["trace_finalize", &format!("{name}/p{p}")])
                .is_some());
        }
        assert!(g.entry(&["fold_offline", "merged_fnv"]).is_some());
    }

    /// BENCHMARK.json and the code name the same workloads, end-to-end
    /// metrics and layer metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).unwrap();
        let doc = Json::parse(&text).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            let list = doc.get(key).and_then(Json::as_arr).unwrap();
            list.iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        assert_eq!(
            names("end_to_end", "name"),
            [
                "setup_s",
                "ops_per_s",
                "op_p50_ms",
                "op_p90_ms",
                "cpu_ms_per_op",
                "peak_rss_mb",
                "out_bytes_per_op"
            ]
        );
        assert_eq!(
            names("end_to_end", "unit"),
            ["s", "1/s", "ms", "ms", "ms", "MB", "bytes"]
        );
        let code: Vec<&str> = layers::LAYERS.iter().map(|l| l.name).collect();
        assert_eq!(names("per_layer", "name"), code);
        let units: Vec<&str> = layers::LAYERS.iter().map(|l| l.unit).collect();
        assert_eq!(names("per_layer", "unit"), units);
        let better: Vec<&str> = layers::LAYERS.iter().map(|l| l.better).collect();
        assert_eq!(names("per_layer", "better"), better);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS)
        );
    }
}
