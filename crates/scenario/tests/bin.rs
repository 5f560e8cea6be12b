//! End-to-end checks of the `siopmp-scenario` command line: a corpus run
//! still passes, and the retired `bench` subcommand and the flags this
//! tool does not read fail with the usage line.

use std::process::{Command, Output};

const QUICKSTART: &str = "../../corpus/quickstart.scn";

fn scenario(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_siopmp-scenario");
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn run_passes_a_corpus_file() {
    let out = scenario(&["run", QUICKSTART]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn removed_and_unread_surfaces_are_refused() {
    for (args, error) in [
        (&["bench", QUICKSTART][..], "unknown command `bench`"),
        (
            &["run", QUICKSTART, "--baseline", "b.txt"],
            "unknown flag `--baseline`",
        ),
        (&["run", QUICKSTART, "--list"], "unknown flag `--list`"),
    ] {
        let out = scenario(args);
        assert!(!out.status.success(), "{args:?} exited 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(error), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: siopmp-scenario"),
            "{args:?}: {stderr}"
        );
    }
}
