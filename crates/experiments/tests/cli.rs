//! `repro` refuses arguments it cannot parse instead of guessing: a
//! present-but-invalid positional argument exits 2 naming the valid
//! values, before anything runs or is written. An absent one keeps its
//! default. Output that names a format names the current one.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// A per-test output directory that does not exist yet.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_rejected(out: &Output, valid: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(valid), "must list {valid:?}: {stderr}");
}

#[test]
fn mistyped_scale_exits_2_and_writes_nothing() {
    let dir = fresh_dir("scale");
    let out = repro(&["observe", "incast", dir.to_str().unwrap(), "qiuck", "7"]);
    assert_rejected(&out, "quick paper");
    assert!(!dir.exists(), "{} written", dir.display());

    assert_rejected(&repro(&["table1", "paperr"]), "quick paper");
}

#[test]
fn non_numeric_seed_exits_2_and_writes_nothing() {
    let dir = fresh_dir("seed");
    let out = repro(&["observe", "incast", dir.to_str().unwrap(), "quick", "seven"]);
    assert_rejected(&out, "integer");
    assert!(!dir.exists(), "{} written", dir.display());
}

#[test]
fn valid_and_absent_arguments_still_run() {
    assert!(repro(&["table1", "quick"]).status.success());
    assert!(repro(&["table1"]).status.success());
    assert_rejected(&repro(&["tabel1"]), "table1");
}

/// `snapshot inspect` names the format the file carries: the engine's
/// current magic, not a version string of its own.
#[test]
fn snapshot_inspect_prints_the_current_magic() {
    let dir = fresh_dir("snapshot");
    let file = dir.join("s.snap");
    let file = file.to_str().unwrap();
    let save = repro(&["snapshot", "save", file, "incast", "quick", "7", "2000"]);
    assert!(
        save.status.success(),
        "{}",
        String::from_utf8_lossy(&save.stderr)
    );
    let out = repro(&["snapshot", "inspect", file]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let magic = String::from_utf8_lossy(rocc_sim::snapshot::SNAPSHOT_MAGIC);
    assert_eq!(magic, "rocc-snapshot/v8");
    assert_eq!(
        stdout.lines().next(),
        Some(format!("{file}: {magic}").as_str())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_experiment_is_named_before_its_scale_is_read() {
    let out = repro(&["tabel1", "foo"]);
    assert_rejected(&out, "table1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment: tabel1"), "{stderr}");
}
