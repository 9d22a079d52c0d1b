//! The `run_experiments` binary end to end: in both modes, an output
//! directory that cannot be created is a usage error (exit 2 and one
//! `error:` line), raised before any world is generated, not a panic
//! after the whole run.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A path under a regular file, which no `create_dir_all` can make.
fn unusable_out(name: &str) -> PathBuf {
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&file, b"not a directory").expect("write the blocking file");
    file.join("sub")
}

fn assert_out_is_rejected(mode_args: &[&str], out: &Path) {
    let output = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(mode_args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("run run_experiments");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{mode_args:?}: {stderr}");
    let want = format!("error: cannot create output directory {}: ", out.display());
    assert!(stderr.contains(&want), "{mode_args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{mode_args:?}: {stderr}");
}

#[test]
fn unusable_out_is_a_usage_error_in_experiment_mode() {
    let out = unusable_out("cli-experiments-out");
    assert_out_is_rejected(&["--scale", "small"], &out);
}

#[test]
fn unusable_out_is_a_usage_error_in_sweep_mode() {
    let out = unusable_out("cli-sweep-out");
    assert_out_is_rejected(&["--sweep", "base=tiny;seeds=1"], &out);
}
