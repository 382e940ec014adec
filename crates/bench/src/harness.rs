//! Minimal internal micro-benchmark harness.
//!
//! The hermetic build has no criterion, so `benches/*.rs` are plain
//! `harness = false` binaries driving this module. The API is shaped
//! loosely after criterion's so the bench files read familiar: a
//! [`Harness`], groups and labels, closures timed over auto-sized
//! batches. Results print as a table and serialize to a JSON artifact
//! (hand-rolled writer — no serde either).
//!
//! Methodology: warm up by doubling the batch size until one batch takes
//! at least [`MIN_BATCH`], then time [`BATCHES`] batches and report
//! per-iteration min / median / mean. Median is what comparisons should
//! use; min bounds the noise floor.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use obs::query::json_escape;

/// Target minimum duration of one timed batch.
const MIN_BATCH: std::time::Duration = std::time::Duration::from_millis(5);
/// Timed batches per benchmark.
const BATCHES: usize = 12;
/// Cap on iterations per batch (very fast bodies).
const MAX_ITERS: u64 = 1 << 22;

/// One benchmark's measurement.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark group (e.g. "merge_pairwise").
    pub group: String,
    /// Case label within the group (e.g. "identical/512").
    pub label: String,
    /// Iterations per timed batch.
    pub iters: u64,
    /// Mean nanoseconds per iteration across batches.
    pub mean_ns: f64,
    /// Median nanoseconds per iteration across batches.
    pub median_ns: f64,
    /// Minimum nanoseconds per iteration across batches.
    pub min_ns: f64,
}

/// Collects benchmark samples and renders them.
#[derive(Debug, Default)]
pub struct Harness {
    samples: Vec<Sample>,
}

impl Harness {
    /// Empty harness.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time `f`, recording the measurement under `group`/`label`. Returns
    /// the recorded sample (by reference into the harness).
    pub fn bench<T>(&mut self, group: &str, label: &str, mut f: impl FnMut() -> T) -> &Sample {
        let time_batch = |f: &mut dyn FnMut() -> T, iters: u64| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed()
        };
        // Warmup: find a batch size that runs long enough to time well.
        let mut iters = 1u64;
        loop {
            let took = time_batch(&mut f, iters);
            if took >= MIN_BATCH || iters >= MAX_ITERS {
                break;
            }
            // Jump toward the target, at least doubling.
            let target = MIN_BATCH.as_secs_f64();
            let per_iter = took.as_secs_f64() / iters as f64;
            let needed = if per_iter > 0.0 {
                (target / per_iter).ceil() as u64
            } else {
                iters * 2
            };
            iters = needed.max(iters * 2).min(MAX_ITERS);
        }
        let mut per_iter_ns: Vec<f64> = (0..BATCHES)
            .map(|_| time_batch(&mut f, iters).as_secs_f64() * 1e9 / iters as f64)
            .collect();
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let min_ns = per_iter_ns[0];
        let median_ns = per_iter_ns[BATCHES / 2];
        let mean_ns = per_iter_ns.iter().sum::<f64>() / BATCHES as f64;
        self.samples.push(Sample {
            group: group.to_string(),
            label: label.to_string(),
            iters,
            mean_ns,
            median_ns,
            min_ns,
        });
        self.samples.last().expect("just pushed")
    }

    /// All samples recorded so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Median ns/iter of a recorded benchmark, if present.
    pub fn median_ns(&self, group: &str, label: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.group == group && s.label == label)
            .map(|s| s.median_ns)
    }

    /// Print a summary table to stdout.
    pub fn print_summary(&self) {
        println!(
            "{:<24} {:<28} {:>12} {:>12} {:>12}",
            "group", "label", "median", "mean", "min"
        );
        for s in &self.samples {
            println!(
                "{:<24} {:<28} {:>12} {:>12} {:>12}",
                s.group,
                s.label,
                fmt_ns(s.median_ns),
                fmt_ns(s.mean_ns),
                fmt_ns(s.min_ns)
            );
        }
    }

    /// Render all samples (plus caller-provided derived metrics) as a JSON
    /// document.
    pub fn to_json(&self, derived: &[(String, f64)]) -> String {
        let mut out = String::from("{\n  \"benchmarks\": [\n");
        for (idx, s) in self.samples.iter().enumerate() {
            let comma = if idx + 1 < self.samples.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    {{\"group\": \"{}\", \"label\": \"{}\", \"iters_per_batch\": {}, \
                 \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}}}{}",
                json_escape(&s.group),
                json_escape(&s.label),
                s.iters,
                s.median_ns,
                s.mean_ns,
                s.min_ns,
                comma
            );
        }
        out.push_str("  ],\n  \"derived\": {");
        for (idx, (key, value)) in derived.iter().enumerate() {
            let comma = if idx + 1 < derived.len() { "," } else { "" };
            let _ = write!(out, "\n    \"{}\": {:.4}{}", json_escape(key), value, comma);
        }
        if !derived.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Write the JSON document to `path`, creating parent directories.
    pub fn write_json(&self, path: &Path, derived: &[(String, f64)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(derived))
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_sane_sample() {
        let mut h = Harness::new();
        let s = h.bench("t", "spin", || {
            let mut x = 0u64;
            for i in 0..100u64 {
                x = x.wrapping_add(i * i);
            }
            x
        });
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.iters >= 1);
        assert_eq!(h.samples().len(), 1);
        assert!(h.median_ns("t", "spin").is_some());
        assert!(h.median_ns("t", "missing").is_none());
    }

    #[test]
    fn json_escapes_and_structure() {
        let mut h = Harness::new();
        h.bench("g", "a\"b", || 1u64);
        let j = h.to_json(&[("speedup".to_string(), 2.5)]);
        assert!(j.contains("\\\"")); // escaped quote in label
        assert!(j.contains("\"speedup\": 2.5000"));
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
    }
}
