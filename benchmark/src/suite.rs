//! Whole-suite modes: every workload in a process of its own (so that
//! peak memory and CPU time are that workload's alone), and the two
//! repeatability checks that size and guard the bounds in BENCHMARK.json.

use std::process::Command;

use crate::json::Json;
use crate::stats::{median_of, relative_iqr};
use crate::{bench_dir, Args, Mode, WORKLOADS};

/// An end-to-end metric as BENCHMARK.json defines it.
struct Bounded {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bounded>, String> {
    let file = bench_dir().join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
    let doc = Json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|m| {
            Some(Bounded {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// One child run: its output is passed through, its result line parsed.
fn child(workload: &str, seed: u64, args: &Args, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if let Some(golden) = &args.golden {
        cmd.arg("--golden").arg(golden);
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| format!("{workload}: no result line ({e}); exit {}", out.status))
}

fn metric(result: &Json, name: &str) -> Result<f64, String> {
    result
        .at(&["metrics", name, "value"])
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result has no metric {name:?}"))
}

fn correct(result: &Json) -> bool {
    result.get("correct") == Some(&Json::Bool(true))
}

pub fn run(args: &Args) -> Result<bool, String> {
    let chosen: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    match args.mode {
        Mode::WriteGolden => unreachable!("main writes the goldens itself"),
        Mode::Run => {
            let mut all_correct = true;
            for w in &chosen {
                for traced in [false, true] {
                    if args.trace.is_none_or(|t| t == traced) {
                        all_correct &= correct(&child(w, args.seed, args, traced)?);
                        println!();
                    }
                }
            }
            println!(
                "suite {}",
                if all_correct {
                    "correct"
                } else {
                    "FAILED a correctness check"
                }
            );
            Ok(all_correct)
        }
        Mode::Check => check(args, &chosen),
        Mode::Spread(runs) => spread(args, &chosen, runs),
    }
}

/// The untraced suite twice over: each metric of the second pass may be
/// worse than the first by at most its bound.
fn check(args: &Args, chosen: &[&str]) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut rows = Vec::new();
    let mut pass = true;
    for w in chosen {
        let first = child(w, args.seed, args, false)?;
        let second = child(w, args.seed, args, false)?;
        pass &= correct(&first) && correct(&second);
        for b in &bounds {
            let (a, z) = (metric(&first, &b.name)?, metric(&second, &b.name)?);
            let worse = if b.lower_is_better {
                z / a - 1.0
            } else {
                1.0 - z / a
            };
            let breach = worse > b.bound;
            pass &= !breach;
            rows.push(format!(
                "{w:<15} {:<17} {a:>14.4} {z:>14.4} {:>+8.2}% {:>7.2}% {}",
                b.name,
                worse * 100.0,
                b.bound * 100.0,
                if breach { "BREACH" } else { "ok" }
            ));
        }
    }
    println!(
        "{:<15} {:<17} {:>14} {:>14} {:>9} {:>8}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    rows.iter().for_each(|r| println!("{r}"));
    println!("check {}", if pass { "passed" } else { "FAILED" });
    Ok(pass)
}

/// `runs` runs per workload, each on another seed: the spread the
/// acceptance driver computes (inter-quartile distance over the median),
/// beside the bound it must stay within — and a third of which it should.
fn spread(args: &Args, chosen: &[&str], runs: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut rows = Vec::new();
    let mut pass = true;
    for w in chosen {
        let mut results = Vec::new();
        for i in 0..runs as u64 {
            let r = child(w, args.seed + i, args, false)?;
            pass &= correct(&r);
            results.push(r);
        }
        for b in &bounds {
            let values = results
                .iter()
                .map(|r| metric(r, &b.name))
                .collect::<Result<Vec<_>, _>>()?;
            let iqr = relative_iqr(&values);
            // The driver does not hold setup_s to its spread, only to its drift.
            let breach = iqr > b.bound && b.name != "setup_s";
            pass &= !breach;
            rows.push(format!(
                "{w:<15} {:<17} {:>14.4} {:>7.2}% {:>7.2}% {}",
                b.name,
                median_of(&values),
                iqr * 100.0,
                b.bound * 100.0,
                if breach {
                    "BREACH"
                } else if iqr > b.bound / 3.0 {
                    "above a third of the bound"
                } else {
                    "ok"
                }
            ));
        }
    }
    println!(
        "{:<15} {:<17} {:>14} {:>8} {:>8}  ({runs} runs)",
        "workload", "metric", "median", "iqr/med", "bound"
    );
    rows.iter().for_each(|r| println!("{r}"));
    println!("spread {}", if pass { "within bounds" } else { "FAILED" });
    Ok(pass)
}
