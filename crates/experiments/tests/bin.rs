//! End-to-end checks of the `repro` command line: `--list` names the
//! experiments, and the retired `-l` alias and the unread `--seed` fail
//! with the usage line.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_repro");
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn list_names_every_experiment() {
    let out = repro(&["--list"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().collect::<Vec<_>>(), siopmp_experiments::ALL);
}

#[test]
fn short_list_alias_is_refused() {
    let out = repro(&["-l"]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `-l`"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
}

#[test]
fn seed_is_refused() {
    // No experiment reads a seed.
    let out = repro(&["--seed", "7", "--list"]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--seed`"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
}
