//! Exit-code contract of the `chamtrace` binary.
//!
//! The documented contract (see the binary's header): exit 0 on success /
//! identity, 1 on a *semantic* divergence or failed trial, 2 on usage
//! errors and malformed input. The subtle case this suite pins: `journal
//! diff` must exit 2 — not the divergence code 1 — when *either* operand
//! fails to parse, including the second one (a malformed second file is a
//! broken input, not evidence of divergence).
//!
//! The text reports of `chamtrace journal <q>` are pinned byte for byte
//! against goldens under `tests/fixtures/serve/` (regenerate with
//! `REGEN_GOLDEN=1 cargo test -p chameleon-bench --test cli`).
//!
//! The matrix subcommands are covered end to end: `matrix run` on the
//! committed smoke plan, then `matrix diff` against the committed
//! baseline (exit 0), against a tampered table (exit 1, naming trial and
//! metric), and against garbage (exit 2).
//!
//! `chamtrace push` has its own pinned contract (0 receipt landed / 1
//! daemon rejected / 2 transport failed after retries), and the crash
//! drill at the bottom runs the real binary: `kill -9` mid-ingest in
//! the stall window between artifact write and manifest commit, then
//! restart and prove the committed run survives byte-identical while
//! the half-ingested one is quarantined.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn chamtrace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chamtrace"))
        .args(args)
        .output()
        .expect("chamtrace spawns")
}

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn fixture(name: &str) -> String {
    repo_path("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Fresh per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cham_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("chamtrace exits, not killed")
}

#[test]
fn no_args_is_usage_error() {
    let out = chamtrace(&[]);
    assert_eq!(code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn journal_diff_exit_codes() {
    let valid_a = fixture("bt4_chameleon.journal.jsonl");
    let valid_b = fixture("bt4_chameleon_nosnap.journal.jsonl");

    // Identity: 0.
    let out = chamtrace(&["journal", "diff", &valid_a, &valid_a]);
    assert_eq!(code(&out), 0, "self-diff must exit 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("identical"));

    // Two valid journals that differ: 1, with the divergence named.
    let out = chamtrace(&["journal", "diff", &valid_a, &valid_b]);
    assert_eq!(code(&out), 1, "semantic divergence must exit 1");
    assert!(String::from_utf8_lossy(&out.stdout).contains("divergence"));

    // Malformed input is exit 2 in *both* operand positions. The second
    // position is the regression this test pins: a parse failure there
    // must not fall through to the divergence code.
    let dir = scratch("journal_diff");
    let malformed = dir.join("broken.journal.jsonl");
    let mut bytes = std::fs::read_to_string(&valid_a).unwrap();
    bytes.truncate(bytes.len() / 2);
    bytes.push_str("\n{not json");
    std::fs::write(&malformed, bytes).unwrap();
    let malformed = malformed.to_string_lossy().into_owned();

    let out = chamtrace(&["journal", "diff", &malformed, &valid_a]);
    assert_eq!(code(&out), 2, "malformed FIRST file must exit 2");
    let out = chamtrace(&["journal", "diff", &valid_a, &malformed]);
    assert_eq!(code(&out), 2, "malformed SECOND file must exit 2, not 1");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error"),
        "parse failure goes to stderr"
    );

    // A missing file is malformed input too, in either position.
    let gone = dir.join("nope.jsonl").to_string_lossy().into_owned();
    assert_eq!(code(&chamtrace(&["journal", "diff", &gone, &valid_a])), 2);
    assert_eq!(code(&chamtrace(&["journal", "diff", &valid_a, &gone])), 2);
    let _ = std::fs::remove_dir_all(dir);
}

/// Compare `text` against `tests/fixtures/<name>`, or rewrite the fixture
/// when `REGEN_GOLDEN` is set (the convention of `tests/serve.rs`).
fn assert_golden(name: &str, text: &str) {
    let path = repo_path("tests/fixtures").join(name);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        text, want,
        "{name} drifted from its golden fixture; if the change is \
         intentional, regenerate with REGEN_GOLDEN=1 and review the diff"
    );
}

/// The text rendering of every query on the committed bt4 journal, byte
/// for byte, and both `journal diff` verdict lines. Paths are given
/// relative to the repository root because the verdict prints them.
#[test]
fn journal_text_reports_match_goldens() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_chamtrace"))
            .current_dir(repo_path(""))
            .args(args)
            .output()
            .expect("chamtrace spawns")
    };
    let bt4 = "tests/fixtures/bt4_chameleon.journal.jsonl";
    for (query, arg, golden) in [
        ("summarize", None, "bt4_summarize"),
        ("timeline", Some("0"), "bt4_timeline_rank0"),
        ("spans", None, "bt4_spans"),
        ("metrics", None, "bt4_metrics"),
        ("anomalies", None, "bt4_anomalies"),
    ] {
        let mut args = vec!["journal", query, bt4];
        args.extend(arg);
        let out = run(&args);
        assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).expect("UTF-8 report");
        assert_golden(&format!("serve/{golden}.txt"), &text);
    }
    let out = run(&["journal", "diff", bt4, bt4]);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("identical: {bt4} and {bt4}\n")
    );
    let nosnap = "tests/fixtures/bt4_chameleon_nosnap.journal.jsonl";
    let out = run(&["journal", "diff", bt4, nosnap]);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "divergence: rank 0 seq 3: snapshot marker=1 ranks=4 vs marker n=2\n"
    );
}

#[test]
fn matrix_expand_lists_the_cross_product() {
    let plan = repo_path("plans/ci_smoke.plan.json");
    let out = chamtrace(&["matrix", "expand", &plan.to_string_lossy()]);
    assert_eq!(code(&out), 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout.lines().collect();
    assert_eq!(ids.len(), 4, "2 workloads x 2 seeds");
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "canonical ID order");
    // Malformed plans are usage errors.
    let out = chamtrace(&["matrix", "expand", "/nonexistent.plan.json"]);
    assert_eq!(code(&out), 2);
}

#[test]
fn matrix_run_and_diff_gate_round_trip() {
    let plan = repo_path("plans/ci_smoke.plan.json");
    let baseline = fixture("matrix_smoke.baseline.json");
    let dir = scratch("matrix_gate");

    // Run the committed smoke plan: all trials pass (exit 0).
    let out = chamtrace(&[
        "matrix",
        "run",
        &plan.to_string_lossy(),
        "--jobs",
        "2",
        "--out",
        &dir.to_string_lossy(),
    ]);
    assert_eq!(
        code(&out),
        0,
        "smoke plan failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results = dir.join("ci-smoke/results.json");
    assert!(results.exists(), "run writes the canonical table");
    assert!(dir.join("ci-smoke/timings.json").exists());

    // Gate against the committed baseline: identical, exit 0.
    let out = chamtrace(&["matrix", "diff", &baseline, &results.to_string_lossy()]);
    assert_eq!(
        code(&out),
        0,
        "fresh run diverged from the committed baseline: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("identical"));

    // Tamper with one determinism field: exit 1, naming trial + metric.
    let text = std::fs::read_to_string(&results).unwrap();
    let tampered_text = text.replacen("\"trace_digest\": \"0x", "\"trace_digest\": \"0y", 1);
    assert_ne!(text, tampered_text, "fixture contains a trace digest");
    let tampered = dir.join("tampered.json");
    std::fs::write(&tampered, tampered_text).unwrap();
    let out = chamtrace(&["matrix", "diff", &baseline, &tampered.to_string_lossy()]);
    assert_eq!(code(&out), 1, "tampered digest must trip the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace_digest"), "metric named: {stdout}");
    assert!(stdout.contains("trial "), "trial named: {stdout}");

    // Garbage operands are exit 2, in either position.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{]").unwrap();
    let garbage = garbage.to_string_lossy().into_owned();
    assert_eq!(
        code(&chamtrace(&[
            "matrix",
            "diff",
            &garbage,
            &results.to_string_lossy()
        ])),
        2
    );
    assert_eq!(
        code(&chamtrace(&["matrix", "diff", &baseline, &garbage])),
        2
    );
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// `chamtrace push` exit-code contract and the kill -9 crash harness
// ---------------------------------------------------------------------

/// `chamtrace push` exit codes, pinned: 0 every receipt landed; 1 the
/// daemon rejected the upload (retrying cannot help); 2 transport failed
/// after the retry budget (daemon down — retrying later may help). Both
/// failure modes name the attempt count / last error on stderr.
#[test]
fn push_exit_code_contract() {
    let dir = scratch("push_codes");
    let server = chamserve::Server::start(
        "127.0.0.1:0",
        chamserve::ServeConfig {
            data_dir: dir.join("data"),
            threads: 2,
            ..chamserve::ServeConfig::default()
        },
    )
    .expect("daemon starts");
    let addr = server.addr().to_string();
    let journal = fixture("bt4_chameleon.journal.jsonl");

    // 0: the receipt lands and is printed.
    let out = chamtrace(&["push", &addr, "ok-run", &journal]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"ok\":true"));

    // 1: the daemon rejects malformed input with 400 — a semantic
    // failure the client must not retry into.
    let malformed = dir.join("broken.journal.jsonl");
    std::fs::write(&malformed, "{not a journal\n").unwrap();
    let out = chamtrace(&["push", &addr, "bad-run", malformed.to_str().unwrap()]);
    assert_eq!(code(&out), 1);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: push journal"), "{err}");
    assert!(err.contains("rejected: HTTP 400"), "{err}");
    server.shutdown();

    // 2: nobody listening — transport fails after the retry budget,
    // and stderr says how many attempts were burned.
    let out = chamtrace(&["push", &addr, "down-run", &journal, "--retries", "2"]);
    assert_eq!(code(&out), 2);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("transport failed after 2 attempt(s)"), "{err}");
}

/// Spawn `chamtrace serve` as a real child process on an ephemeral port,
/// returning the child and the bound address parsed from its stdout.
fn spawn_serve(data: &Path, faults: Option<&str>) -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_chamtrace"));
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--data"])
        .arg(data)
        .args(["--threads", "2"]);
    if let Some(spec) = faults {
        cmd.args(["--faults", spec]);
    }
    let mut child = cmd
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut line)
        .expect("daemon announces its port");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected daemon banner {line:?}"))
        .to_string();
    (child, addr)
}

fn http_get(addr: &str, path: &str) -> (u16, String) {
    let (status, body) =
        chamserve::http::request(addr, "GET", path, &[], std::time::Duration::from_secs(10))
            .expect("GET");
    (status, String::from_utf8(body).expect("UTF-8"))
}

/// The full crash drill against the real binary: a committed run, then
/// `kill -9` while a second ingest is parked (via the seeded fault
/// plan's stall) in the exact window between its artifact write and its
/// manifest commit. The restarted daemon must quarantine the
/// uncommitted artifact and serve the committed run byte-identical to
/// the goldens — the same fixtures the serve integration suite pins.
#[test]
fn kill_nine_mid_ingest_recovers_committed_runs() {
    let data = scratch("kill9");
    let journal = fixture("bt4_chameleon.journal.jsonl");
    let golden = std::fs::read_to_string(repo_path("tests/fixtures/serve/bt4_summarize.json"))
        .expect("committed serve golden");

    // Phase 1: a clean daemon commits run `alpha`, then stops cleanly.
    let (mut first, addr) = spawn_serve(&data, None);
    let out = chamtrace(&["push", &addr, "alpha", &journal]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    let (status, before) = http_get(&addr, "/runs/alpha/summarize");
    assert_eq!(status, 200);
    assert_eq!(before, golden, "pre-crash bytes match the golden");
    chamserve::http::request(
        &addr,
        "POST",
        "/shutdown",
        &[],
        std::time::Duration::from_secs(10),
    )
    .expect("shutdown");
    first.wait().expect("clean daemon exits");

    // Phase 2: restart with the fault plan stalling ingest #0 between
    // artifact write and manifest commit, push run `victim` into that
    // window, and shoot the daemon with SIGKILL while it is parked.
    let (mut second, addr) = spawn_serve(&data, Some("stall_ingest=0,stall_ms=600000"));
    let pusher = Command::new(env!("CARGO_BIN_EXE_chamtrace"))
        .args(["push", &addr, "victim", &journal, "--retries", "1"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("pusher spawns");
    let spilled = data.join("runs/victim/journal.jsonl");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !spilled.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "victim artifact never reached the stall window"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    second.kill().expect("SIGKILL lands"); // kill -9: no destructors run
    second.wait().expect("killed daemon reaped");
    let out = pusher.wait_with_output().expect("pusher exits");
    assert_eq!(
        out.status.code(),
        Some(2),
        "push through a crash is a transport failure: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Phase 3: restart clean on the same data dir. The uncommitted
    // victim artifact is quarantined (it was never manifest-committed),
    // and alpha's bytes survive the crash exactly.
    let (mut third, addr) = spawn_serve(&data, None);
    let (status, after) = http_get(&addr, "/runs/alpha/summarize");
    assert_eq!(status, 200, "{after}");
    assert_eq!(after, golden, "post-crash bytes drifted from the golden");
    let (status, _) = http_get(&addr, "/runs/victim/summarize");
    assert_eq!(status, 404, "the half-ingested run must not resurrect");
    let (_, m) = http_get(&addr, "/metrics");
    assert!(m.contains("\"orphaned\":1"), "quarantine ledger: {m}");
    assert!(
        data.join("quarantine/victim/journal.jsonl").exists(),
        "the condemned artifact is moved aside, not deleted"
    );
    chamserve::http::request(
        &addr,
        "POST",
        "/shutdown",
        &[],
        std::time::Duration::from_secs(10),
    )
    .expect("shutdown");
    third.wait().expect("third daemon exits");
}
