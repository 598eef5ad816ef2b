//! The study binaries reject malformed command lines before doing any work:
//! exit code 2 and a usage line on standard error, never a silent fallback
//! to a different run.

use std::process::Command;

fn rejects(exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
    assert!(out.stdout.is_empty(), "{exe} {args:?} printed a study");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{exe} {args:?}: {stderr}");
}

#[test]
fn study_binaries_reject_bad_flags() {
    for exe in [
        env!("CARGO_BIN_EXE_serving_study"),
        env!("CARGO_BIN_EXE_dse_study"),
        env!("CARGO_BIN_EXE_perf_harness"),
    ] {
        rejects(exe, &["--smok"]);
        rejects(exe, &["--smoke", "--smoke"]);
        rejects(exe, &["stray"]);
    }
    for exe in [
        env!("CARGO_BIN_EXE_serving_study"),
        env!("CARGO_BIN_EXE_dse_study"),
    ] {
        rejects(exe, &["--trace"]);
        rejects(exe, &["--trace", "--smoke"]);
        rejects(exe, &["--smoke", "--metrics"]);
        rejects(exe, &["--trace", "a.json", "--trace", "b.json"]);
    }
}
