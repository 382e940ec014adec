//! `chamtrace` — inspect, validate, replay, and serve Chameleon/ScalaTrace
//! trace artifacts from the command line.
//!
//! ```text
//! chamtrace info   <trace-file>             # summary statistics
//! chamtrace dump   <trace-file>             # pretty event listing
//! chamtrace check  <trace-file>             # parse + invariant checks
//! chamtrace replay <trace-file> <ranks>     # replay, print virtual time
//!
//! chamtrace journal summarize <journal> [--json]
//! chamtrace journal timeline  <journal> <r> [--json]
//! chamtrace journal spans     <journal> [--json]
//! chamtrace journal metrics   <journal> [--json]
//! chamtrace journal anomalies <journal> [--json]
//! chamtrace journal diff      <a> <b> [--json]
//!                                           # exit 1 on divergence,
//!                                           # 2 if either file is bad
//!
//! chamtrace ckpt info   <blob>              # decode a CKPT1 checkpoint
//! chamtrace ckpt latest <dir>               # newest ckpt-*.bin in a dir
//! chamtrace chaos supervise <ranks> <steps> <seed> <marker> <dir>
//!                           [--push ADDR]   # root-crash + restart demo
//!
//! chamtrace matrix expand <plan>            # list the trial cross product
//! chamtrace matrix run <plan> [--jobs N] [--out DIR] [--push ADDR]
//!                                           # run a scenario matrix
//! chamtrace matrix diff <baseline.json> <results.json>
//!                                           # regression gate (exit 1 on
//!                                           # first divergence)
//!
//! chamtrace serve [--addr A] [--data DIR] [--cache N] [--threads N]
//!                 [--max-body BYTES] [--hot-sessions N] [--backlog N]
//!                 [--faults SPEC]           # trace-service daemon
//! chamtrace push <addr> <run-id> <journal> [--ckpt <blob>] [--retries N]
//!                                           # upload a run at a daemon:
//!                                           # exit 0 ok, 1 rejected,
//!                                           # 2 transport failed
//! ```
//!
//! Journal files are the flight recorder's canonical JSONL
//! (`chameleon-obs-v1`, see OBSERVABILITY.md); malformed input fails
//! with the offending line number and exit code 2 — for `journal diff`
//! that applies to *both* operands: a parse failure in either file is
//! exit 2, never the divergence code 1. Checkpoint blobs are the
//! versioned `CKPT1` binary format (see FAULTS.md "Recovery"); corrupt
//! or truncated blobs also exit 2.
//!
//! The six journal subcommands are the rows of `obs::query::QUERIES`,
//! the table the `chamtrace serve` daemon routes through: each query is
//! computed once and printed through the text sink, or with `--json`
//! through the JSON sink — the same canonical single-line object the
//! daemon returns for the matching endpoint, so CLI and daemon answers
//! diff byte for byte (see OBSERVABILITY.md "Querying journals").
//!
//! Matrix plans are declarative JSON scenario matrices (see
//! EXPERIMENTS.md "Running a matrix"); `matrix run` exits 1 when any
//! trial fails its invariants, `matrix diff` exits 1 naming the first
//! diverging trial + metric, and both exit 2 on malformed plans/tables.
//! `matrix run --push` streams each finished trial's journal at a
//! running daemon (push failures warn but do not fail the trial).
//!
//! Every push — `chamtrace push` and the `--push` hooks — carries a
//! `Content-Crc32` claim and retries transport failures and degraded
//! statuses (408/422/429/500/503) under a seeded-jitter exponential
//! backoff; the daemon's content-digest dedupe makes the retry loop
//! idempotent. `serve --faults` arms the deterministic service fault
//! plan (torn spills, connection drops, ENOSPC, the kill-`-9` stall
//! window) used by the crash-recovery tests and CI leg.

use chameleon::Checkpoint;
use chamserve::{ServeConfig, Server};
use mpisim::CostModel;
use obs::query::{self, QueryError, Sink};
use obs::RunJournal;
use scalatrace::{format, CompressedTrace, RankSet};
use workloads::chaos::{
    latest_checkpoint, marker_entry_ops, root_crash_plan, run_chaos_supervised,
};
use workloads::matrix::{
    diff_results, diff_timings, journal_drilldown, run_plan_with_push, timings_from_json,
    MatrixPlan, MatrixResults,
};

fn load(path: &str) -> CompressedTrace {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1);
    });
    format::from_text(&text).unwrap_or_else(|e| {
        eprintln!("error: {path} is not a valid trace: {e}");
        std::process::exit(1);
    })
}

fn info(path: &str) {
    let t = load(path);
    let mut ranks = RankSet::empty();
    let mut ops = std::collections::BTreeMap::<&str, u64>::new();
    let mut total_time = 0.0;
    t.visit_events(&mut |e| {
        ranks = ranks.union(&e.ranks);
        *ops.entry(e.op.kind.mnemonic()).or_default() += 1;
        total_time += e.pre_time.total();
    });
    println!("trace:            {path}");
    println!("compressed nodes: {}", t.compressed_size());
    println!("dynamic events:   {}", t.dynamic_size());
    println!("ranks covered:    {} ({})", ranks.len(), ranks);
    println!("recorded compute: {total_time:.6}s");
    println!("events by op:");
    for (op, n) in ops {
        println!("  {op:<10} {n}");
    }
}

fn dump(path: &str) {
    let t = load(path);
    print!("{}", format::to_text(&t));
}

fn check(path: &str) {
    let t = load(path);
    let mut problems = 0u32;
    t.visit_events(&mut |e| {
        if e.ranks.is_empty() {
            eprintln!("event with empty ranklist: {:?}", e.op.kind);
            problems += 1;
        }
        if e.pre_time.count() == 0 {
            eprintln!("event with no time samples: {:?}", e.op.kind);
            problems += 1;
        }
    });
    if problems == 0 {
        println!(
            "ok: {} nodes, {} dynamic events",
            t.compressed_size(),
            t.dynamic_size()
        );
    } else {
        eprintln!("{problems} problem(s) found");
        std::process::exit(1);
    }
}

fn replay_cmd(path: &str, ranks: usize) {
    let t = load(path);
    match scalareplay::replay(&t, ranks, CostModel::default()) {
        Ok(rep) => {
            println!("replay virtual time: {:.6}s", rep.replay_vtime);
            println!("events executed:     {}", rep.events_executed);
            println!("events dropped:      {}", rep.dropped_events);
            println!("replay wall time:    {:?}", rep.wall);
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Every `journal <q>` subcommand: look `q` up in the query table the
/// daemon routes through, load the journal(s) with the `RunJournal::load`
/// the daemon's store builds on, and print the text or JSON rendering.
/// Unreadable or malformed input (path + line diagnostic) and a bad rank
/// exit 2; a `diff` that finds a divergence exits 1. `--json` may stand
/// anywhere in the tail.
fn journal_cmd(tail: &[String]) {
    let (flags, args): (Vec<&str>, Vec<&str>) = tail
        .iter()
        .map(String::as_str)
        .partition(|a| *a == "--json");
    let json = !flags.is_empty();
    let [name, path, rest @ ..] = args.as_slice() else {
        usage()
    };
    let Some((q, arg)) = query::find(name, rest) else {
        usage()
    };
    let sink = if json { Sink::Json } else { Sink::Text };
    let load = |path: &str| RunJournal::load(std::path::Path::new(path));
    match q.serve(path, arg, sink, load) {
        Ok((out, diverged)) => {
            print!("{out}");
            if diverged {
                std::process::exit(1);
            }
        }
        Err(QueryError::Bad(e) | QueryError::Load(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn load_ckpt(path: &str) -> Checkpoint {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Checkpoint::decode(&bytes).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    })
}

fn ckpt_info(path: &str) {
    let c = load_ckpt(path);
    println!("checkpoint:      {path}");
    println!("marker:          {}", c.marker);
    println!("marker calls:    {}", c.marker_calls);
    println!("root:            {}", c.root);
    println!("alive:           {} ranks {:?}", c.alive.len(), c.alive);
    println!("journal hwm:     {}", c.journal_hwm);
    println!(
        "graph:           old_call_path={:#x} re_clustering={} lead_flag={}",
        c.old_call_path.0, c.re_clustering, c.lead_flag
    );
    match &c.selection {
        Some(sel) => println!(
            "selection:       k={} leads={:?}",
            sel.effective_k, sel.leads
        ),
        None => println!("selection:       none (pre-clustering)"),
    }
    println!(
        "online trace:    {} nodes, {} dynamic events",
        c.trace.compressed_size(),
        c.trace.dynamic_size()
    );
    println!("metric payload:  {} bytes", c.metrics.len());
}

fn ckpt_latest(dir: &str) {
    match latest_checkpoint(std::path::Path::new(dir)) {
        Some((marker, path)) => println!("marker {marker}: {}", path.display()),
        None => {
            eprintln!("error: no ckpt-*.bin under {dir}");
            std::process::exit(1);
        }
    }
}

/// Demo/debug driver for the tentpole scenario: crash rank 0 at the given
/// marker's entry under the standard lossy link, checkpointing every other
/// marker into `dir`, and let the supervisor restart from the latest blob
/// if the in-place failover cannot complete. With `--push`, the run's
/// journal and latest checkpoint are uploaded at a trace-service daemon
/// under run ID `chaos-s<seed>-m<marker>`.
fn chaos_supervise(
    ranks: usize,
    steps: usize,
    seed: u64,
    marker: usize,
    dir: &str,
    push: Option<&str>,
) {
    if marker >= steps {
        eprintln!("error: marker {marker} out of range (steps={steps})");
        std::process::exit(2);
    }
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    });
    let ops = marker_entry_ops(ranks, steps, root_crash_plan(seed, 0));
    let sup = run_chaos_supervised(
        ranks,
        steps,
        root_crash_plan(seed, ops[marker]),
        2,
        dir,
        true,
    );
    println!("crashed ranks:   {:?}", sup.outcome.crashed);
    println!("restarts:        {}", sup.restarts);
    match sup.resumed_marker {
        Some(m) => println!("resumed from:    marker {m}"),
        None => println!("resumed from:    (in-place failover, no restart)"),
    }
    println!(
        "online trace:    {} nodes, {} dynamic events",
        sup.outcome.online_trace.compressed_size(),
        sup.outcome.online_trace.dynamic_size()
    );
    let promotions: u64 = sup
        .outcome
        .stats
        .iter()
        .flatten()
        .map(|s| s.promotions)
        .max()
        .unwrap_or(0);
    println!("promotions:      {promotions}");
    if let Some(journal) = &sup.outcome.journal {
        println!(
            "journal:         {} events ({} checkpoint, {} promote, {} resume)",
            journal.events().count(),
            journal.count("checkpoint"),
            journal.count("promote"),
            journal.count("resume"),
        );
    }
    if let Some((m, path)) = latest_checkpoint(dir) {
        println!("latest ckpt:     marker {m} at {}", path.display());
    }
    if let Some(addr) = push {
        let run_id = format!("chaos-s{seed:016x}-m{marker:02}");
        if let Some(journal) = &sup.outcome.journal {
            match chamserve::push_journal(addr, &run_id, journal.to_jsonl().as_bytes()) {
                Ok(_) => println!("pushed journal:  {run_id} at {addr}"),
                Err(e) => eprintln!("warning: push journal: {e}"),
            }
        }
        if let Some((_, path)) = latest_checkpoint(dir) {
            match std::fs::read(&path) {
                Ok(blob) => match chamserve::push_checkpoint(addr, &run_id, &blob) {
                    Ok(_) => println!("pushed ckpt:     {run_id} at {addr}"),
                    Err(e) => eprintln!("warning: push checkpoint: {e}"),
                },
                Err(e) => eprintln!("warning: read {}: {e}", path.display()),
            }
        }
    }
}

fn load_plan(path: &str) -> MatrixPlan {
    MatrixPlan::load(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn matrix_expand(path: &str) {
    let plan = load_plan(path);
    let trials = plan.expand();
    for t in &trials {
        println!("{}", t.id);
    }
    eprintln!("{} trial(s) in plan {:?}", trials.len(), plan.name);
}

fn matrix_run(path: &str, jobs: usize, out: &str, push: Option<&str>) {
    let plan = load_plan(path);
    let out_root = std::path::Path::new(out);
    // The push hook streams each finished trial's journal at the daemon;
    // trial IDs are already valid run IDs (`[A-Za-z0-9._-]`). A push
    // failure warns — the trial's own verdict is untouched.
    let hook = push.map(|addr| {
        let addr = addr.to_string();
        move |id: &str, dir: &std::path::Path| {
            let journal_path = dir.join("journal.jsonl");
            let Ok(bytes) = std::fs::read(&journal_path) else {
                return; // journal-less trial (journal axis off)
            };
            if let Err(e) = chamserve::push_journal(&addr, id, &bytes) {
                eprintln!("warning: push {id}: {e}");
            }
        }
    });
    let (results, _timings) = run_plan_with_push(
        &plan,
        out_root,
        jobs,
        hook.as_ref()
            .map(|h| h as &(dyn Fn(&str, &std::path::Path) + Sync)),
    )
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let failed: Vec<&str> = results
        .trials
        .iter()
        .filter(|t| !t.ok)
        .map(|t| t.id.as_str())
        .collect();
    println!(
        "plan {:?}: {} trial(s), {} failed; tables under {}",
        plan.name,
        results.trials.len(),
        failed.len(),
        out_root.join(&plan.name).display(),
    );
    for id in &failed {
        eprintln!("FAILED: {id}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

fn load_results(path: &str) -> MatrixResults {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    MatrixResults::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    })
}

/// Gate `current` against the stored `baseline`: exact on every
/// deterministic field, then (when both sides ship a `timings.json` next
/// to their result table) percentage-banded on wall clocks. When a
/// journal digest diverges and both runs left per-trial `journal.jsonl`
/// artifacts, the first diverging journal event is printed too.
fn matrix_diff(baseline: &str, current: &str) {
    let base = load_results(baseline);
    let cur = load_results(current);
    if let Some(d) = diff_results(&base, &cur) {
        println!("divergence: {d}");
        if d.metric == "journal_digest" {
            let dir_of = |p: &str| {
                std::path::Path::new(p)
                    .parent()
                    .map(|d| d.to_path_buf())
                    .unwrap_or_default()
            };
            if let Some(detail) = journal_drilldown(&dir_of(baseline), &dir_of(current), &d.trial) {
                println!("journal drill-down: {detail}");
            }
        }
        std::process::exit(1);
    }
    let side_timings = |p: &str| -> Option<std::collections::BTreeMap<String, u64>> {
        let path = std::path::Path::new(p).parent()?.join("timings.json");
        timings_from_json(&std::fs::read_to_string(path).ok()?).ok()
    };
    if let (Some(bt), Some(ct)) = (side_timings(baseline), side_timings(current)) {
        if let Some(d) = diff_timings(&bt, &ct, base.timing_tolerance_pct) {
            println!("timing divergence (advisory band): {d}");
            std::process::exit(1);
        }
    }
    println!(
        "identical: {} trial(s) of plan {:?} match the baseline",
        cur.trials.len(),
        cur.plan
    );
}

/// `chamtrace serve`: run the trace-service daemon in the foreground
/// until a `POST /shutdown` arrives.
fn serve_cmd(tail: &[String]) {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = ServeConfig::default();
    let mut rest = tail;
    while let [flag, value, more @ ..] = rest {
        let count = |what: &str| -> usize {
            value.parse().unwrap_or_else(|_| {
                eprintln!("error: invalid {what} {value:?}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => addr = value.clone(),
            "--data" => cfg.data_dir = std::path::PathBuf::from(value),
            "--cache" => cfg.cache_entries = count("cache capacity"),
            "--threads" => cfg.threads = count("thread count"),
            "--max-body" => cfg.max_body = count("body cap"),
            "--hot-sessions" => cfg.hot_sessions = count("hot-session cap"),
            "--backlog" => cfg.backlog = count("backlog"),
            "--faults" => {
                cfg.faults = Some(chamserve::SvcFaultPlan::parse(value).unwrap_or_else(|e| {
                    eprintln!("error: --faults: {e}");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("error: unknown serve flag {other:?}");
                std::process::exit(2);
            }
        }
        rest = more;
    }
    if !rest.is_empty() {
        eprintln!("error: dangling serve argument {:?}", rest[0]);
        std::process::exit(2);
    }
    let server = Server::start(&addr, cfg).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    println!("listening on {}", server.addr());
    server.wait();
}

/// `chamtrace push`: upload one run's journal (and optionally one
/// checkpoint blob) at a daemon, printing the daemon's JSON receipts.
///
/// Exit-code contract (pinned in `crates/bench/tests/cli.rs`):
/// `0` every receipt landed; `1` the daemon *rejected* an upload
/// (semantic failure — retrying cannot help); `2` transport failed after
/// the retry budget (daemon down/flapping — retrying later may help).
/// Both failure modes put the attempt count and last error on stderr.
fn push_cmd(addr: &str, run_id: &str, journal: &str, ckpt: Option<&str>, retries: u32) {
    let policy = chamserve::RetryPolicy {
        attempts: retries.max(1),
        ..chamserve::RetryPolicy::default()
    };
    let settle = |what: &str, outcome: Result<String, chamserve::PushError>| match outcome {
        Ok(receipt) => print!("{receipt}"),
        Err(e @ chamserve::PushError::Rejected { .. }) => {
            eprintln!("error: push {what}: {e}");
            std::process::exit(1);
        }
        Err(e @ chamserve::PushError::Transport { .. }) => {
            eprintln!("error: push {what}: {e}");
            std::process::exit(2);
        }
    };
    let jsonl = std::fs::read(journal).unwrap_or_else(|e| {
        eprintln!("error: cannot read {journal}: {e}");
        std::process::exit(2);
    });
    settle(
        "journal",
        chamserve::push_journal_with(addr, run_id, &jsonl, &policy),
    );
    if let Some(path) = ckpt {
        let blob = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        });
        settle(
            "checkpoint",
            chamserve::push_checkpoint_with(addr, run_id, &blob, &policy),
        );
    }
}

fn usage() -> ! {
    eprintln!("usage: chamtrace info|dump|check <trace-file>");
    eprintln!("       chamtrace replay <trace-file> <ranks>");
    eprintln!("       chamtrace journal summarize|spans|metrics|anomalies <journal> [--json]");
    eprintln!("       chamtrace journal timeline <journal> <rank> [--json]");
    eprintln!("       chamtrace journal diff <journal-a> <journal-b> [--json]");
    eprintln!("       chamtrace ckpt info <blob> | ckpt latest <dir>");
    eprintln!(
        "       chamtrace chaos supervise <ranks> <steps> <seed> <marker> <dir> [--push ADDR]"
    );
    eprintln!("       chamtrace matrix expand <plan>");
    eprintln!("       chamtrace matrix run <plan> [--jobs N] [--out DIR] [--push ADDR]");
    eprintln!("       chamtrace matrix diff <baseline.json> <results.json>");
    eprintln!("       chamtrace serve [--addr A] [--data DIR] [--cache N] [--threads N]");
    eprintln!("                       [--max-body BYTES] [--hot-sessions N] [--backlog N]");
    eprintln!("                       [--faults SPEC]     # seed=..,torn=..,stall_ingest=..");
    eprintln!("       chamtrace push <addr> <run-id> <journal> [--ckpt <blob>] [--retries N]");
    eprintln!("                       # exit 0 ok, 1 rejected, 2 transport failed");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [cmd, path] if cmd == "info" => info(path),
        [cmd, path] if cmd == "dump" => dump(path),
        [cmd, path] if cmd == "check" => check(path),
        [cmd, path, ranks] if cmd == "replay" => {
            let ranks = ranks.parse().unwrap_or_else(|_| {
                eprintln!("error: invalid rank count {ranks:?}");
                std::process::exit(2);
            });
            replay_cmd(path, ranks);
        }
        [j, tail @ ..] if j == "journal" => journal_cmd(tail),
        [c, cmd, path] if c == "ckpt" && cmd == "info" => ckpt_info(path),
        [c, cmd, dir] if c == "ckpt" && cmd == "latest" => ckpt_latest(dir),
        [m, cmd, path] if m == "matrix" && cmd == "expand" => matrix_expand(path),
        [m, cmd, path, tail @ ..] if m == "matrix" && cmd == "run" => {
            let mut jobs = 2usize;
            let mut out = "experiments_out/matrix".to_string();
            let mut push: Option<String> = None;
            let mut rest = tail;
            while let [flag, value, more @ ..] = rest {
                match flag.as_str() {
                    "--jobs" => {
                        jobs = value.parse().unwrap_or_else(|_| {
                            eprintln!("error: invalid job count {value:?}");
                            std::process::exit(2);
                        });
                    }
                    "--out" => out = value.clone(),
                    "--push" => push = Some(value.clone()),
                    other => {
                        eprintln!("error: unknown matrix run flag {other:?}");
                        std::process::exit(2);
                    }
                }
                rest = more;
            }
            if !rest.is_empty() {
                eprintln!("error: dangling matrix run argument {:?}", rest[0]);
                std::process::exit(2);
            }
            matrix_run(path, jobs, &out, push.as_deref());
        }
        [m, cmd, baseline, current] if m == "matrix" && cmd == "diff" => {
            matrix_diff(baseline, current);
        }
        [c, cmd, ranks, steps, seed, marker, dir, tail @ ..]
            if c == "chaos" && cmd == "supervise" =>
        {
            let parse = |what: &str, v: &str| -> usize {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid {what} {v:?}");
                    std::process::exit(2);
                })
            };
            let seed = seed.parse().unwrap_or_else(|_| {
                eprintln!("error: invalid seed {seed:?}");
                std::process::exit(2);
            });
            let push = match tail {
                [] => None,
                [flag, addr] if flag == "--push" => Some(addr.as_str()),
                _ => {
                    eprintln!("error: unknown chaos supervise arguments {tail:?}");
                    std::process::exit(2);
                }
            };
            chaos_supervise(
                parse("rank count", ranks),
                parse("step count", steps),
                seed,
                parse("marker", marker),
                dir,
                push,
            );
        }
        [s, tail @ ..] if s == "serve" => serve_cmd(tail),
        [p, addr, run_id, journal, tail @ ..] if p == "push" => {
            let mut ckpt: Option<&str> = None;
            let mut retries = chamserve::RetryPolicy::default().attempts;
            let mut rest = tail;
            while let [flag, value, more @ ..] = rest {
                match flag.as_str() {
                    "--ckpt" => ckpt = Some(value.as_str()),
                    "--retries" => {
                        retries = value.parse().unwrap_or_else(|_| {
                            eprintln!("error: invalid retry count {value:?}");
                            std::process::exit(2);
                        });
                    }
                    other => {
                        eprintln!("error: unknown push flag {other:?}");
                        std::process::exit(2);
                    }
                }
                rest = more;
            }
            if !rest.is_empty() {
                eprintln!("error: dangling push argument {:?}", rest[0]);
                std::process::exit(2);
            }
            push_cmd(addr, run_id, journal, ckpt, retries);
        }
        _ => usage(),
    }
}
