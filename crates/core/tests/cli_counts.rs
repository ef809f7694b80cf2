//! A zero rack, server or node count is a usage error: `padsim` exits 2
//! with an `error:` line naming the flag, never a panic and never a
//! silent rewrite to 1.

use std::process::Command;

fn assert_usage_error(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_padsim"))
        .args(args)
        .output()
        .expect("padsim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("error:") && l.contains(flag)),
        "{args:?}: no error line naming {flag}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn zero_counts_are_usage_errors() {
    for (args, flag) in [
        (&["--racks", "0"][..], "--racks"),
        (&["--servers", "0"], "--servers"),
        (&["--nodes", "0"], "--nodes"),
        (&["perf", "--racks", "0"], "--racks"),
        (&["perf", "--servers", "0"], "--servers"),
        (&["fault", "--plan", "ci-smoke", "--nodes", "0"], "--nodes"),
        (&["detect", "--racks", "0"], "--racks"),
        (&["detect", "--nodes", "0"], "--nodes"),
    ] {
        assert_usage_error(args, flag);
    }
}
