//! End-to-end checks of the `siopmp-prove` binary: exit codes, JSON
//! envelope shape, bound overrides, and refusal of the flags it does not
//! read.

use std::process::Command;

fn prove() -> Command {
    Command::new(env!("CARGO_BIN_EXE_siopmp-prove"))
}

#[test]
fn tiny_bounded_run_succeeds_with_enveloped_json() {
    let out = prove()
        .args([
            "--profile",
            "smoke",
            "--max-states",
            "300",
            "--max-depth",
            "3",
            "--skip-mutations",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    for key in [
        "\"schema_version\"",
        "\"prove\"",
        "\"states\"",
        "\"isolation_failures\"",
        "\"false_positive_rate\"",
        "\"mutations\"",
    ] {
        assert!(text.contains(key), "missing {key} in: {text}");
    }
}

#[test]
fn mutation_pass_reports_all_planted_flaws_detected() {
    let out = prove()
        .args(["--max-states", "50", "--max-depth", "2", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    // planted == detected, and at least the 8 required mutations ran.
    let field = |name: &str| -> u64 {
        let tail = text.split(&format!("\"{name}\":")).nth(1).unwrap();
        tail.trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let planted = field("planted");
    let detected = field("detected");
    assert!(planted >= 8, "need >= 8 planted mutations, got {planted}");
    assert_eq!(planted, detected, "undetected mutations: {text}");
}

#[test]
fn unknown_profile_fails_with_usage() {
    let out = prove()
        .args(["--profile", "exhaustive"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("smoke|full"), "{err}");
}

#[test]
fn list_is_refused_with_usage() {
    let out = prove().arg("--list").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag `--list`"), "{err}");
    assert!(err.contains("usage: siopmp-prove"), "{err}");
}
