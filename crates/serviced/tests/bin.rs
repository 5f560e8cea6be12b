//! End-to-end checks of the `siopmp-serviced` command line: an
//! in-process daemon answers `health`, and the common flags the daemon
//! does not read fail with the usage line.

use std::io::Write;
use std::process::{Command, Stdio};

fn serviced() -> Command {
    Command::new(env!("CARGO_BIN_EXE_siopmp-serviced"))
}

#[test]
fn drive_answers_health() {
    let fleet = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serviced-bin-fleet");
    std::fs::create_dir_all(&fleet).unwrap();
    std::fs::copy("../../corpus/quickstart.scn", fleet.join("quickstart.scn")).unwrap();
    let mut child = serviced()
        .args(["drive", "--fleet", fleet.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(b"health\n").unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("binary exits");
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"ready\""),
        "{out:?}"
    );
}

#[test]
fn unread_common_flags_are_refused() {
    for flag in [
        &["--seed", "1"][..],
        &["--threads", "2"],
        &["--out", "o.json"],
        &["--list"],
    ] {
        let out = serviced()
            .args(["replay", "--journal", "J"])
            .args(flag)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{flag:?} exited 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{}`", flag[0])),
            "{stderr}"
        );
        assert!(stderr.contains("usage: siopmp-serviced"), "{stderr}");
    }
}
