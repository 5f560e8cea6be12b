//! `admit_storm`: open-loop admission traffic against `siopmp-serviced`.
//!
//! The fleet is three quiet tenants (300 tokens/s each) and one storm
//! tenant (200 tokens/s) with two cold devices. One connection carries
//! 10 000 requests per second on a fixed schedule, from one sender thread
//! and one receiver thread: each second holds 600 quiet checks, 10
//! `switch` requests alternating the storm tenant's cold devices, and
//! storm checks for the rest, so most responses are tenant-rate sheds.
//! Latency runs from when a request was due to be sent, so a stall also
//! delays every request queued behind it.
//!
//! The untraced run drives the real daemon binary (`serve --socket`),
//! built next to the benchmark binary. The traced run drives an
//! in-process copy of the daemon's serve loop, built from the crate's
//! public functions over a socket pair, and times each of them.
//!
//! Checks: every response must parse; quiet checks must be allowed;
//! storm checks allowed or shed; every switch acked; and the journal must
//! replay without corruption, holding one cold-switch record per ack.

use std::io::{self, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use siopmp::json::Json;
use siopmp_serviced::daemon::{Serviced, ServicedConfig};
use siopmp_serviced::fleet::Fleet;
use siopmp_serviced::journal::{replay_bytes, JournalEvent};
use siopmp_serviced::proto::{parse_request, read_frame, write_frame, Request};

use crate::alloc::thread_allocs;
use crate::json::{get_str, parse};
use crate::rng::SplitMix64;
use crate::stats::{mean, median, quantile};
use crate::sys;
use crate::trace::{now_ns, LayerTable, SpanBuf};
use crate::{Outcome, Params};

const RATE: u64 = 10_000;
const QUIET_PER_S: u64 = 600;
const SWITCHES_PER_S: u64 = 10;
/// Share of storm checks (in percent) aimed at the mounted cold device.
const STORM_COLD_PCT: u64 = 2;
const WINDOW_S: u64 = 2;
/// Daemon start-ups timed per untraced run; the last one serves the load.
const SETUPS: usize = 15;

const QUIET_SCN: &str = "\
scenario quiet
config sids=8 mds=8 entries=32 cold_entries=4
fleet rate=300 burst=300 deadline=1000

domain q0
  device 1 hot md=0
  entry md=0 0x10000 0x4000 rw

domain q1
  device 2 hot md=0
  entry md=0 0x20000 0x4000 rw

domain q2
  device 3 hot md=0
  entry md=0 0x30000 0x4000 rw
";

const STORM_SCN: &str = "\
scenario storm
config sids=8 mds=8 entries=32 cold_entries=4
fleet rate=200 burst=20 deadline=1000

domain s
  device 4 hot md=0
  entry md=0 0x40000 0x4000 rw
  device 20 cold
  record 0x50000 0x1000 rw
  device 21 cold
  record 0x51000 0x1000 rw
";

/// What a scheduled request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Quiet,
    Storm,
    Switch,
}

/// One scheduled request, already framed.
struct Planned {
    kind: Kind,
    frame: Vec<u8>,
}

fn framed(text: &str) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + text.len());
    write_frame(&mut frame, text).expect("request frames are small");
    frame
}

/// The seeded schedule: request `i` is due at `i / RATE` seconds.
fn schedule(seed: u64, seconds: f64) -> Vec<Planned> {
    let mut rng = SplitMix64::new(seed, 0x5E5);
    let total = ((seconds * RATE as f64).round() as u64).max(RATE / 10);
    let mut plan = Vec::with_capacity(total as usize);
    let mut mounted: Option<u64> = None;
    let mut quiet_turn = 0u64;
    let mut slots = Vec::new();
    while (plan.len() as u64) < total {
        slots.clear();
        slots.extend(std::iter::repeat_n(Kind::Quiet, QUIET_PER_S as usize));
        slots.extend(std::iter::repeat_n(Kind::Switch, SWITCHES_PER_S as usize));
        slots.resize(RATE as usize, Kind::Storm);
        rng.shuffle(&mut slots);
        for &kind in slots.iter().take((total - plan.len() as u64) as usize) {
            let kind_word = if rng.below(4) == 0 { "write" } else { "read" };
            let slot = rng.below(0x4000 / 64) * 64;
            let text = match kind {
                Kind::Quiet => {
                    let q = quiet_turn % 3;
                    quiet_turn += 1;
                    format!(
                        "check tenant=quiet/q{q} device={} kind={kind_word} addr={:#x} len=64",
                        q + 1,
                        0x10000 * (q + 1) + slot
                    )
                }
                Kind::Switch => {
                    let next = if mounted == Some(20) { 21 } else { 20 };
                    mounted = Some(next);
                    format!("switch tenant=storm/s device={next}")
                }
                Kind::Storm => match mounted {
                    Some(cold) if rng.below(100) < STORM_COLD_PCT => format!(
                        "check tenant=storm/s device={cold} kind=read addr={:#x} len=64",
                        0x50000 + (cold - 20) * 0x1000 + slot % 0x1000
                    ),
                    _ => format!(
                        "check tenant=storm/s device=4 kind={kind_word} addr={:#x} len=64",
                        0x40000 + slot
                    ),
                },
            };
            plan.push(Planned {
                kind,
                frame: framed(&text),
            });
        }
    }
    plan
}

/// How one response compared with what the schedule expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Admitted,
    ShedRate,
    ShedDeadline,
    Switched,
    Wrong,
}

fn judge(kind: Kind, text: &str) -> Answer {
    let Ok(doc) = parse(text) else {
        return Answer::Wrong;
    };
    let answer = match (get_str(&doc, "verdict"), get_str(&doc, "reason")) {
        (Some("allowed"), _) => Answer::Admitted,
        (Some("shed"), Some("tenant_rate")) => Answer::ShedRate,
        (Some("shed"), Some("deadline")) => Answer::ShedDeadline,
        (Some("switched"), _) => Answer::Switched,
        _ => Answer::Wrong,
    };
    let expected = match kind {
        Kind::Quiet => answer == Answer::Admitted,
        Kind::Storm => matches!(
            answer,
            Answer::Admitted | Answer::ShedRate | Answer::ShedDeadline
        ),
        Kind::Switch => answer == Answer::Switched,
    };
    if expected {
        answer
    } else {
        Answer::Wrong
    }
}

/// What the load generator saw.
struct Load {
    /// Per scheduled request: latency from its due time, and the answer
    /// (`None` when no response arrived).
    results: Vec<Option<(u64, Answer)>>,
    /// How late the sender ran against its schedule, per request.
    late_ns: Vec<u64>,
    /// From the first due time to the last response.
    elapsed: Duration,
}

fn due(t0: Instant, i: usize) -> Instant {
    t0 + Duration::from_nanos(i as u64 * 1_000_000_000 / RATE)
}

/// Sends `plan` on its schedule over `stream` and collects the responses.
fn drive_load(stream: &UnixStream, plan: &[Planned]) -> io::Result<Load> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let t0 = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> io::Result<Vec<u64>> {
            sys::tighten_timer_slack();
            let mut late_ns = Vec::with_capacity(plan.len());
            for (i, item) in plan.iter().enumerate() {
                let at = due(t0, i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late_ns.push(Instant::now().saturating_duration_since(at).as_nanos() as u64);
                writer.write_all(&item.frame)?;
            }
            Ok(late_ns)
        });
        let mut results = Vec::with_capacity(plan.len());
        let mut last = t0;
        for (i, item) in plan.iter().enumerate() {
            match read_frame(&mut reader) {
                Ok(Some(text)) => {
                    last = Instant::now();
                    let latency = last.saturating_duration_since(due(t0, i)).as_nanos() as u64;
                    results.push(Some((latency, judge(item.kind, &text))));
                }
                Ok(None) | Err(_) => break,
            }
        }
        results.resize(plan.len(), None);
        let late_ns = sender.join().expect("sender thread")?;
        Ok(Load {
            results,
            late_ns,
            elapsed: last.saturating_duration_since(t0),
        })
    })
}

/// Latency metrics and answer counts of a finished load.
fn score(out: &mut Outcome, plan: &[Planned], load: &Load) -> u64 {
    let mut acked = 0;
    let mut checks = Vec::new();
    let mut switches = Vec::new();
    let mut window_p99 = Vec::new();
    let mut quiet_p99 = Vec::new();
    let per_window = (RATE * WINDOW_S) as usize;
    let windows = (plan.len() / per_window).max(1);
    let mut counts = [0u64; 3];
    for w in 0..windows {
        let end = if w + 1 == windows {
            plan.len()
        } else {
            (w + 1) * per_window
        };
        let mut all = Vec::new();
        let mut quiet = Vec::new();
        for (item, result) in plan[w * per_window..end]
            .iter()
            .zip(&load.results[w * per_window..end])
        {
            out.attempted += 1;
            let Some((latency, answer)) = *result else {
                out.failed += 1;
                continue;
            };
            let us = latency as f64 / 1e3;
            match answer {
                Answer::Wrong => out.failed += 1,
                Answer::Switched => acked += 1,
                Answer::Admitted => counts[0] += 1,
                Answer::ShedRate => counts[1] += 1,
                Answer::ShedDeadline => counts[2] += 1,
            }
            match item.kind {
                Kind::Switch => switches.push(us),
                Kind::Quiet => {
                    quiet.push(us);
                    all.push(us);
                }
                Kind::Storm => all.push(us),
            }
        }
        window_p99.push(quantile(&all, 0.99));
        quiet_p99.push(quantile(&quiet, 0.99));
        checks.extend(all);
    }
    let received = load.results.iter().flatten().count();
    out.metric(
        "ops_per_s",
        received as f64 / load.elapsed.as_secs_f64().max(1e-9),
    );
    out.metric("p50_us", median(&checks));
    out.metric("p99_us", median(&window_p99));
    out.metric("serviced.quiet_p99_us", median(&quiet_p99));
    out.metric("serviced.switch_p50_us", median(&switches));
    out.metric("gen.late_p99_us", quantile(&load.late_ns, 0.99) / 1e3);
    out.metric("serviced.admitted", counts[0] as f64);
    out.metric("serviced.shed.tenant_rate", counts[1] as f64);
    out.metric("serviced.shed.deadline", counts[2] as f64);
    out.notes.push(format!(
        "{} requests in {windows} windows of {WINDOW_S} s; {} checks, {} switches; p99 is the median of the windows' p99 (min {:.1}, max {:.1})",
        plan.len(),
        checks.len(),
        switches.len(),
        quantile(&window_p99, 0.0),
        quantile(&window_p99, 1.0)
    ));
    acked
}

/// Replays the journal and checks it holds one cold-switch record per
/// acked switch.
fn check_journal(out: &mut Outcome, path: &Path, acked: u64) {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return out.problem(format!("cannot read journal {}: {e}", path.display())),
    };
    let replay = replay_bytes(&bytes);
    if let Some(c) = &replay.corruption {
        out.problem(format!(
            "journal corrupt at byte {}: {}",
            c.offset,
            c.kind.label()
        ));
    }
    let switches = replay
        .records
        .iter()
        .filter(|r| r.event == JournalEvent::ColdSwitch)
        .count() as u64;
    if switches != acked {
        out.problem(format!(
            "journal holds {switches} cold switches, {acked} were acked"
        ));
    }
}

fn write_fleet(dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("quiet.scn"), QUIET_SCN)?;
    std::fs::write(dir.join("storm.scn"), STORM_SCN)
}

/// `path` relative to the working directory when it lies below it: unix
/// socket paths are limited to about 100 bytes.
fn short(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// A daemon child process, killed and reaped if still running on drop.
struct Daemon {
    child: Child,
    stream: UnixStream,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn request(stream: &mut UnixStream, text: &str) -> io::Result<String> {
    write_frame(stream, text)?;
    read_frame(stream)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection"))
}

/// Starts the daemon with journal and socket `n` and waits until it
/// answers `health` as ready.
fn start_daemon(binary: &Path, dir: &Path, n: usize) -> Result<Daemon, String> {
    let socket = format!("d{n}.sock");
    let mut child = Command::new(binary)
        .args([
            "serve",
            "--fleet",
            "fleet",
            "--journal",
            &format!("journal{n}.bin"),
            "--socket",
            &socket,
        ])
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
    let path = short(&dir.join(&socket));
    let started = Instant::now();
    let stream = loop {
        match UnixStream::connect(&path) {
            Ok(s) => break s,
            Err(e) => {
                if started.elapsed() > Duration::from_secs(20)
                    || !matches!(child.try_wait(), Ok(None))
                {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("daemon never listened on {}: {e}", path.display()));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    };
    let mut daemon = Daemon { child, stream };
    let health = request(&mut daemon.stream, "health").map_err(|e| format!("health: {e}"))?;
    let doc = parse(&health).map_err(|e| format!("health response: {e}"))?;
    if crate::json::get(&doc, "ready") != Some(&Json::Bool(true)) {
        return Err(format!("daemon not ready: {health}"));
    }
    Ok(daemon)
}

/// Drains the daemon, closes its connection and waits for it to exit.
fn stop_daemon(mut daemon: Daemon) -> Result<(), String> {
    let answer = request(&mut daemon.stream, "drain").map_err(|e| format!("drain: {e}"))?;
    if !answer.contains("\"draining\"") {
        return Err(format!("drain refused: {answer}"));
    }
    let _ = daemon.stream.shutdown(std::net::Shutdown::Both);
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Ok(Some(status)) = daemon.child.try_wait() {
            return if status.success() {
                Ok(())
            } else {
                Err(format!("daemon exited with {status}"))
            };
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err("daemon did not exit after drain".into())
}

fn untraced(dir: &Path, plan: &[Planned], out: &mut Outcome) -> Result<(), String> {
    let binary = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?
        .with_file_name("siopmp-serviced");
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for n in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            stop_daemon(previous)?;
        }
        let t0 = Instant::now();
        daemon = Some(start_daemon(&binary, dir, n)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one start-up");
    let pid = daemon.child.id();
    let cpu0 = sys::task_cpu_seconds(pid).map_err(|e| format!("daemon CPU time: {e}"))?;
    let load = drive_load(&daemon.stream, plan).map_err(|e| format!("load: {e}"))?;
    let cpu = sys::task_cpu_seconds(pid).map_err(|e| format!("daemon CPU time: {e}"))? - cpu0;
    let rss = sys::peak_rss_mb(pid).map_err(|e| format!("daemon peak RSS: {e}"))?;
    stop_daemon(daemon)?;

    let acked = score(out, plan, &load);
    out.metric("cpu_us_per_op", cpu * 1e6 / plan.len() as f64);
    out.metric("peak_rss_mb", rss);
    out.setup(&setup_s);
    check_journal(out, &dir.join(format!("journal{}.bin", SETUPS - 1)), acked);
    Ok(())
}

const LAYERS: &[&str] = &[
    "serviced.serve_loop",
    "serviced.idle",
    "serviced.proto.read_frame",
    "serviced.proto.parse_request",
    "serviced.clock",
    "serviced.daemon.handle.check",
    "serviced.daemon.handle.shed",
    "serviced.daemon.handle.switch",
    "serviced.daemon.handle.other",
    "siopmp.json.to_string",
    "serviced.proto.write_frame",
];
const L_LOOP: usize = 0;
const L_IDLE: usize = 1;
const L_READ: usize = 2;
const L_PARSE: usize = 3;
const L_CLOCK: usize = 4;
/// First of the three handle layers: check, shed, switch.
const L_CHECK: usize = 5;
const L_OTHER: usize = 8;
const L_ENCODE: usize = 9;
const L_WRITE: usize = 10;

/// The traced copy of the daemon's serve loop: the same public calls in
/// the same order, each one timed.
struct Replica {
    buf: SpanBuf,
    /// `(allocations, requests)` per handle class (check, shed, switch).
    allocs: [(u64, u64); 3],
    requests: u64,
    syscalls: u64,
    wall_ns: u64,
}

/// Runs `f` as one leaf span of `layer` for request `req`; returns what
/// `f` computed and the allocations it made.
fn timed<T>(buf: &mut SpanBuf, layer: usize, req: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let (a0, t0) = (thread_allocs(), now_ns());
    let value = f();
    let (t1, a1) = (now_ns(), thread_allocs());
    buf.leaf(layer, t0, t1, 0, req, 1, a1 - a0);
    (value, a1 - a0)
}

fn serve_traced(daemon: &mut Serviced, stream: UnixStream) -> io::Result<Replica> {
    let mut buf = SpanBuf::new(LAYERS, 20_000, true);
    let mut allocs = [(0u64, 0u64); 3];
    let mut rd = stream.try_clone()?;
    let mut wr = stream;
    let syscalls0 = sys::thread_rw_syscalls()?;
    let epoch = Instant::now();
    let start = now_ns();
    buf.open(L_LOOP, 0, 0);
    let mut req = 0u64;
    loop {
        // Wait for the next frame without consuming it, so waiting is
        // not charged to reading.
        timed(&mut buf, L_IDLE, req + 1, || sys::wait_readable(&rd)).0?;
        let (line, mut request_allocs) = timed(&mut buf, L_READ, req + 1, || read_frame(&mut rd));
        let Some(line) = line? else { break };
        req += 1;
        // Wall time to virtual ticks, as the daemon does (1 tick = 1 ms).
        let (_, a) = timed(&mut buf, L_CLOCK, req, || {
            let now = epoch.elapsed().as_millis() as u64;
            if now > daemon.now() {
                daemon.advance(now - daemon.now());
            }
        });
        request_allocs += a;
        let (parsed, a) = timed(&mut buf, L_PARSE, req, || parse_request(&line));
        request_allocs += a;
        // Timed by hand: the layer depends on the verdict.
        let (a0, t0) = (thread_allocs(), now_ns());
        let response = match &parsed {
            Ok(r) => daemon.handle(r),
            Err(e) => Json::object([
                ("verdict", Json::str("error")),
                ("error", Json::str(e.as_str())),
            ]),
        };
        let (t1, a1) = (now_ns(), thread_allocs());
        let class = match (&parsed, get_str(&response, "verdict") == Some("shed")) {
            (Ok(Request::Check { .. }), false) => Some(0),
            (Ok(Request::Check { .. }), true) => Some(1),
            (Ok(Request::Switch { .. }), _) => Some(2),
            _ => None,
        };
        buf.leaf(
            class.map_or(L_OTHER, |c| L_CHECK + c),
            t0,
            t1,
            0,
            req,
            1,
            a1 - a0,
        );
        request_allocs += a1 - a0;
        let (text, a) = timed(&mut buf, L_ENCODE, req, || response.to_string());
        request_allocs += a;
        let (written, a) = timed(&mut buf, L_WRITE, req, || write_frame(&mut wr, &text));
        request_allocs += a;
        written?;
        if let Some(c) = class {
            allocs[c].0 += request_allocs;
            allocs[c].1 += 1;
        }
    }
    buf.close(req);
    Ok(Replica {
        buf,
        allocs,
        requests: req,
        syscalls: sys::thread_rw_syscalls()? - syscalls0,
        wall_ns: now_ns() - start,
    })
}

fn traced(p: &Params, dir: &Path, plan: &[Planned], out: &mut Outcome) -> Result<(), String> {
    let fleet_dir = dir.join("fleet");
    let journal = dir.join("journal-traced.bin");
    let t0 = Instant::now();
    let fleet = Fleet::load_dir(&fleet_dir).map_err(|e| e.to_string())?;
    if !fleet.verify_errors().is_empty() {
        return Err("the benchmark fleet has static analyzer errors".into());
    }
    let mut daemon = Serviced::start(fleet, Some(&journal), ServicedConfig::default())
        .map_err(|e| e.to_string())?;
    out.setup(&[t0.elapsed().as_secs_f64()]);

    let (client, server) = UnixStream::pair().map_err(|e| e.to_string())?;
    let (load, replica) = std::thread::scope(|s| {
        let server = s.spawn(|| serve_traced(&mut daemon, server));
        let load = drive_load(&client, plan);
        let _ = client.shutdown(std::net::Shutdown::Both);
        (load, server.join().expect("serve thread"))
    });
    let load = load.map_err(|e| format!("load: {e}"))?;
    let replica = replica.map_err(|e| format!("serve loop: {e}"))?;

    let acked = score(out, plan, &load);
    check_journal(out, &journal, acked);
    let mut hits = 0.0;
    let mut lookups = 0.0;
    for t in daemon.fleet().tenants() {
        let c = t.unit.telemetry().snapshot().counters;
        let h = c.get("siopmp.cache.hits").copied().unwrap_or(0) as f64;
        hits += h;
        lookups += h + c.get("siopmp.cache.misses").copied().unwrap_or(0) as f64;
    }
    out.metric("core.cache_hit_ratio", hits / lookups.max(1.0));

    let mut table = LayerTable::default();
    table.absorb(replica.buf);
    for (metric, layer) in [
        ("serviced.proto.read_ns", "serviced.proto.read_frame"),
        ("serviced.proto.parse_ns", "serviced.proto.parse_request"),
        ("serviced.proto.write_ns", "serviced.proto.write_frame"),
        ("serviced.json.encode_ns", "siopmp.json.to_string"),
        (
            "serviced.daemon.handle_ns.check",
            "serviced.daemon.handle.check",
        ),
        (
            "serviced.daemon.handle_ns.shed",
            "serviced.daemon.handle.shed",
        ),
        (
            "serviced.daemon.handle_ns.switch",
            "serviced.daemon.handle.switch",
        ),
    ] {
        out.metric(metric, table.get(layer).p50_ns());
    }
    for (metric, (allocs, n)) in [
        "serviced.allocs_per_req.check",
        "serviced.allocs_per_req.shed",
        "serviced.allocs_per_req.switch",
    ]
    .into_iter()
    .zip(replica.allocs)
    {
        out.metric(metric, mean(allocs as f64, n));
    }
    out.metric(
        "serviced.syscalls_per_req",
        mean(replica.syscalls as f64, replica.requests),
    );
    out.finish_trace(&table, "admit_storm", p, replica.wall_ns);
    Ok(())
}

/// Runs `admit_storm`. See the module docs.
///
/// # Errors
///
/// A message when the daemon cannot be started, served or stopped.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let dir = p.work_dir.join(format!("admit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_fleet(&dir.join("fleet")).map_err(|e| format!("cannot write the fleet: {e}"))?;
    let plan = schedule(p.seed, p.seconds);
    let mut out = Outcome::default();
    let result = if p.trace {
        traced(p, &dir, &plan, &mut out)
    } else {
        untraced(&dir, &plan, &mut out)
    };
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| out)
}
