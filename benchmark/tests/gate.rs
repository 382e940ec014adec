//! The correctness gate end to end: the benchmark binary exits 0 on the
//! committed goldens and non-zero — with the failed ops counted in its
//! result line — once a pinned digest is corrupted.

use std::path::PathBuf;
use std::process::Command;

/// Run one short untraced workload; returns the exit code and the last
/// line of standard output.
fn chambench(workload: &str, golden: Option<&PathBuf>) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_chambench"));
    cmd.args(["--workload", workload, "--seconds", "1", "--trace", "0"]);
    if let Some(file) = golden {
        cmd.arg("--golden").arg(file);
    }
    let out = cmd.output().expect("run chambench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code().expect("exit code"), last)
}

/// The committed golden file with `digest` replaced by zeros.
fn corrupted(name: &str, digest_key: &str) -> PathBuf {
    let golden = include_str!("../golden.json");
    let at = golden.find(digest_key).expect("key is pinned") + digest_key.len();
    let mut text = golden.to_string();
    text.replace_range(at..at + 16, "0000000000000000");
    assert_ne!(text, golden);
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&file, text).expect("write corrupted golden");
    file
}

#[test]
fn committed_goldens_pass() {
    let (code, last) = chambench("fold_offline", None);
    assert_eq!(code, 0, "{last}");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");
    assert!(last.contains("\"failed\":0,"), "{last}");
}

#[test]
fn corrupted_fold_digest_fails_every_op() {
    let file = corrupted("golden_fold.json", "\"merged_fnv\":\"");
    let (code, last) = chambench("fold_offline", Some(&file));
    assert_eq!(code, 1, "{last}");
    assert!(last.starts_with("{\"correct\":false,"), "{last}");
    assert!(!last.contains("\"failed\":0,"), "{last}");
}

#[test]
fn corrupted_trace_digest_fails_that_input_only() {
    let file = corrupted(
        "golden_trace.json",
        "\"trace_finalize\":{\"BT/p64\":{\"text_fnv\":\"",
    );
    let (code, last) = chambench("trace_finalize", Some(&file));
    assert_eq!(code, 1, "{last}");
    assert!(last.starts_with("{\"correct\":false,"), "{last}");
    // One input in five carries the corrupted pin.
    let field = |key: &str| -> u64 {
        let at = last.find(key).expect("field") + key.len();
        last[at..].split(',').next().unwrap().parse().unwrap()
    };
    assert_eq!(field("\"failed\":") * 5, field("\"attempted\":"), "{last}");
}
