//! `siopmp-serviced` binary: real I/O around [`Serviced`].
//!
//! ```text
//! siopmp-serviced serve  --fleet DIR [--journal PATH] [--socket PATH | --stdio] [--chaos]
//! siopmp-serviced drive  [--socket PATH | --fleet DIR [--journal PATH] [--chaos]]
//! siopmp-serviced replay --journal PATH [--json]
//! ```
//!
//! * `serve` loads a fleet of `.scn` tenant configs and serves the
//!   framed protocol (DESIGN.md §14) on a unix socket, or on stdio with
//!   `--stdio`. Wall time maps to virtual ticks at 1 tick = 1 ms.
//!   SIGTERM/SIGINT begin a graceful drain: in-flight frames finish,
//!   new work answers `draining`, the process exits once idle.
//! * `drive` reads request lines from stdin (one verb per line, `#`
//!   comments skipped) and prints one JSON response per line — against
//!   a serving daemon over `--socket`, or an in-process daemon with
//!   `--fleet` (handy for scripted smoke tests).
//! * `replay` inspects a journal offline: records, chain head, and the
//!   exact byte offset + kind of any corruption (exit 1 if corrupt).

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use siopmp::cli::{Args, Spec};
use siopmp::json::{envelope, Json};
use siopmp_serviced::daemon::{Serviced, ServicedConfig};
use siopmp_serviced::fleet::Fleet;
use siopmp_serviced::journal::replay_bytes;
use siopmp_serviced::proto::{parse_request, read_frame, write_frame};

const USAGE: &str = "usage: siopmp-serviced <serve|drive|replay> \
[--fleet DIR] [--journal PATH] [--socket PATH] [--stdio] [--chaos] [--json]";

const SPEC: Spec = Spec {
    tool: "siopmp-serviced",
    usage: USAGE,
    flags: &["--json", "--stdio", "--chaos"],
    options: &["--fleet", "--journal", "--socket"],
};

/// Drain requested by SIGTERM/SIGINT.
static DRAIN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // Zero-dependency signal hookup: `signal` is in every Unix libc the
    // toolchain links anyway. The handler only flips an AtomicBool —
    // async-signal-safe by construction.
    extern "C" fn on_term(_sig: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term);
        signal(SIGINT, on_term);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn fail(message: &str) -> ExitCode {
    eprintln!("siopmp-serviced: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let command = args.remove(0);
    let parsed = match SPEC.parse(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.help || command == "help" || command == "--help" || command == "-h" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match command.as_str() {
        "serve" => serve(&parsed),
        "drive" => drive(&parsed),
        "replay" => replay(&parsed),
        other => fail(&format!("unknown subcommand `{other}`\n{USAGE}")),
    }
}

fn load_daemon(parsed: &Args) -> Result<Serviced, String> {
    let fleet_dir = parsed
        .option("--fleet")
        .ok_or_else(|| format!("--fleet DIR is required here\n{USAGE}"))?;
    let fleet = Fleet::load_dir(Path::new(fleet_dir)).map_err(|e| e.to_string())?;
    let bad = fleet.verify_errors();
    if !bad.is_empty() {
        let names: Vec<&str> = bad.iter().map(|(n, _)| n.as_str()).collect();
        return Err(format!(
            "refusing to serve: static analyzer errors in {}",
            names.join(", ")
        ));
    }
    let journal = parsed.option("--journal").map(PathBuf::from);
    let config = ServicedConfig {
        chaos: parsed.has("--chaos"),
        ..ServicedConfig::default()
    };
    Serviced::start(fleet, journal.as_deref(), config).map_err(|e| e.to_string())
}

/// Runs the daemon loop over any frame transport until EOF or drain.
fn serve_loop(daemon: &mut Serviced, r: &mut impl Read, w: &mut impl Write) -> io::Result<()> {
    let epoch = Instant::now();
    loop {
        if DRAIN.load(Ordering::SeqCst) && !daemon.is_draining() {
            if let Err(e) = daemon.begin_drain() {
                eprintln!("siopmp-serviced: drain journal append failed: {e}");
            }
        }
        let Some(line) = read_frame(r)? else {
            return Ok(());
        };
        // Wall time → virtual ticks (1 ms granularity).
        let now = epoch.elapsed().as_millis() as u64;
        if now > daemon.now() {
            daemon.advance(now - daemon.now());
        }
        let response = match parse_request(&line) {
            Ok(req) => daemon.handle(&req),
            Err(e) => Json::object([("verdict", Json::str("error")), ("error", Json::str(e))]),
        };
        write_frame(w, &response.to_string())?;
    }
}

fn serve(parsed: &Args) -> ExitCode {
    install_signal_handlers();
    let mut daemon = match load_daemon(parsed) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    if parsed.has("--stdio") {
        let stdin = io::stdin();
        let stdout = io::stdout();
        return match serve_loop(&mut daemon, &mut stdin.lock(), &mut stdout.lock()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&format!("serve: {e}")),
        };
    }
    serve_socket(parsed, &mut daemon)
}

#[cfg(unix)]
fn serve_socket(parsed: &Args, daemon: &mut Serviced) -> ExitCode {
    let Some(path) = parsed.option("--socket") else {
        return fail(&format!("serve needs --socket PATH or --stdio\n{USAGE}"));
    };
    let _ = std::fs::remove_file(path);
    let listener = match std::os::unix::net::UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => return fail(&format!("bind {path}: {e}")),
    };
    // One connection at a time: the daemon core is single-threaded by
    // design (determinism is the feature). A dropped connection is not
    // an error; the next client resumes against the same state.
    for stream in listener.incoming() {
        match stream {
            Ok(s) => {
                let mut rd = match s.try_clone() {
                    Ok(c) => c,
                    Err(e) => return fail(&format!("socket clone: {e}")),
                };
                let mut wr = s;
                if let Err(e) = serve_loop(daemon, &mut rd, &mut wr) {
                    eprintln!("siopmp-serviced: connection error: {e}");
                }
                if daemon.is_draining() {
                    break;
                }
            }
            Err(e) => eprintln!("siopmp-serviced: accept: {e}"),
        }
        if DRAIN.load(Ordering::SeqCst) {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    ExitCode::SUCCESS
}

#[cfg(not(unix))]
fn serve_socket(_parsed: &Args, _daemon: &mut Serviced) -> ExitCode {
    fail("socket mode requires unix; use --stdio")
}

/// Sends newline-delimited request lines from stdin to a daemon —
/// across a socket, or an in-process one (`--fleet`). Responses print
/// one JSON document per line.
fn drive(parsed: &Args) -> ExitCode {
    let mut input = String::new();
    if io::stdin().read_to_string(&mut input).is_err() {
        return fail("drive: failed to read stdin");
    }
    let lines: Vec<&str> = input
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();

    if let Some(path) = parsed.option("--socket") {
        return drive_socket(path, &lines);
    }

    // In-process daemon: load the fleet ourselves and answer locally.
    let mut daemon = match load_daemon(parsed) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    for line in lines {
        let response = match parse_request(line) {
            Ok(req) => daemon.handle(&req),
            Err(e) => Json::object([("verdict", Json::str("error")), ("error", Json::str(e))]),
        };
        println!("{response}");
    }
    ExitCode::SUCCESS
}

#[cfg(unix)]
fn drive_socket(path: &str, lines: &[&str]) -> ExitCode {
    let mut stream = match std::os::unix::net::UnixStream::connect(path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("connect {path}: {e}")),
    };
    let mut rd = match stream.try_clone() {
        Ok(c) => c,
        Err(e) => return fail(&format!("socket clone: {e}")),
    };
    for line in lines {
        if write_frame(&mut stream, line).is_err() {
            return fail("drive: daemon closed the socket mid-stream");
        }
        match read_frame(&mut rd) {
            Ok(Some(resp)) => println!("{resp}"),
            Ok(None) => return fail("drive: daemon closed the socket mid-stream"),
            Err(e) => return fail(&format!("drive: {e}")),
        }
    }
    ExitCode::SUCCESS
}

#[cfg(not(unix))]
fn drive_socket(_path: &str, _lines: &[&str]) -> ExitCode {
    fail("socket mode requires unix; use --fleet for an in-process daemon")
}

/// Offline journal inspection: records, chain head, corruption report.
fn replay(parsed: &Args) -> ExitCode {
    let Some(path) = parsed.option("--journal") else {
        return fail(&format!("replay requires --journal PATH\n{USAGE}"));
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    let replay = replay_bytes(&bytes);
    let payload = Json::object([
        ("records", Json::u64(replay.records.len() as u64)),
        ("valid_bytes", Json::u64(replay.valid_bytes as u64)),
        (
            "last_policy_hash",
            match replay.last_policy_hash() {
                Some(h) => Json::str(format!("{h:#018x}")),
                None => Json::Null,
            },
        ),
        (
            "chain_head",
            Json::str(format!("{:#018x}", replay.chain_head())),
        ),
        (
            "corruption",
            match &replay.corruption {
                Some(c) => Json::object([
                    ("kind", Json::str(c.kind.label())),
                    ("offset", Json::u64(c.offset as u64)),
                ]),
                None => Json::Null,
            },
        ),
        (
            "log",
            Json::array(replay.records.iter().map(|r| {
                Json::object([
                    ("seq", Json::u64(r.seq)),
                    ("tick", Json::u64(r.tick)),
                    ("event", Json::str(r.event.label())),
                    ("tenant", Json::str(r.tenant.as_str())),
                    ("detail", Json::str(r.detail.as_str())),
                    ("policy_hash", Json::str(format!("{:#018x}", r.policy_hash))),
                    ("chain", Json::str(format!("{:#018x}", r.chain))),
                ])
            })),
        ),
    ]);
    if parsed.json {
        println!("{}", envelope("serviced-replay", None, 1, payload).pretty());
    } else {
        println!("{}", payload.pretty());
    }
    if replay.corruption.is_some() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
