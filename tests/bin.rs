//! End-to-end checks of the `siopmp-verify` command line: a built-in
//! configuration still lints clean, and the retired `.scn` input, the
//! `--corpus` flag and the unread `--threads` fail with the usage line
//! (`siopmp-scenario lint` is the one `.scn` linter).

use std::process::{Command, Output};

fn verify(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_siopmp-verify");
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn built_in_scenario_lints_clean() {
    let out = verify(&["preset-small"]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn scn_input_and_corpus_flag_are_refused() {
    for (args, error) in [
        (&["--corpus", "corpus"][..], "unknown flag `--corpus`"),
        (
            &["corpus/quickstart.scn"],
            "unknown scenario corpus/quickstart.scn",
        ),
    ] {
        let out = verify(args);
        assert!(!out.status.success(), "{args:?} exited 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: siopmp-verify"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn threads_is_refused() {
    // The lint and the differential sweep run on one thread.
    let out = verify(&["--threads", "2", "preset-small"]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--threads`"), "{stderr}");
    assert!(stderr.contains("usage: siopmp-verify"), "{stderr}");
}
