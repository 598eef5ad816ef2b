//! Every binary rejects a malformed command line before doing any work:
//! exit code 2 and a usage line on standard error, never a silent fallback
//! to a different run. An output path the study cannot write is exit code 1
//! with the path on standard error, never a panic.

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
    ] {
        rejects(exe, &["--smok"]);
        rejects(exe, &["--smoke", "--smoke"]);
        rejects(exe, &["stray"]);
        rejects(exe, &["--trace"]);
        rejects(exe, &["--trace", "--smoke"]);
        rejects(exe, &["--smoke", "--metrics"]);
        rejects(exe, &["--trace", "a.json", "--trace", "b.json"]);
    }
}

#[test]
fn study_binaries_report_an_unwritable_output_path() {
    // A regular file is never a directory, so this path is unwritable on
    // every machine.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out.txt");
    for (exe, flag) in [
        (env!("CARGO_BIN_EXE_serving_study"), "--trace"),
        (env!("CARGO_BIN_EXE_dse_study"), "--metrics"),
    ] {
        let out = Command::new(exe)
            .args(["--smoke", flag, path])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe} {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("error: cannot write {path}")),
            "{exe} {flag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{exe} {flag}: {stderr}");
    }
}

#[test]
fn flagless_binaries_reject_any_argument() {
    for exe in [
        env!("CARGO_BIN_EXE_accuracy_study"),
        env!("CARGO_BIN_EXE_backend_matrix"),
        env!("CARGO_BIN_EXE_fig01_memory_wall"),
        env!("CARGO_BIN_EXE_fig04_access_counts"),
        env!("CARGO_BIN_EXE_fig04_breakdowns"),
        env!("CARGO_BIN_EXE_fig05_unit_energy"),
        env!("CARGO_BIN_EXE_fig08a_energy_efficiency"),
        env!("CARGO_BIN_EXE_fig08b_throughput"),
        env!("CARGO_BIN_EXE_fig09_effectiveness"),
        env!("CARGO_BIN_EXE_fig10_area"),
        env!("CARGO_BIN_EXE_fig11_generalization"),
        env!("CARGO_BIN_EXE_table2_components"),
        env!("CARGO_BIN_EXE_table4_peak"),
        env!("CARGO_BIN_EXE_table5_l1_accesses"),
    ] {
        rejects(exe, &["stray"]);
        rejects(exe, &["--smoke"]);
    }
}
