//! What the benchmark reads from the operating system: CPU time, peak
//! memory and syscall counts from `/proc`, and the sender's timer slack.
//! Linux only; every reader returns an error elsewhere.

use std::fs;
use std::io;

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// User plus system CPU seconds consumed so far by this process, threads
/// that have already exited included (`getrusage`, microsecond
/// resolution).
pub fn self_cpu_seconds() -> io::Result<f64> {
    // `struct rusage` on 64-bit Linux: two `timeval`s (user, system) of
    // two 64-bit words each, then fourteen 64-bit counters.
    extern "C" {
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer of the size and alignment of
    // `struct rusage` on 64-bit Linux, and lives across the call.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((usage[0] + usage[2]) as f64 + (usage[1] + usage[3]) as f64 / 1e6)
}

/// CPU seconds consumed so far by the main thread of process `pid` (the
/// whole process, for a single-threaded one), from the nanosecond run
/// time in `/proc/<pid>/schedstat`.
pub fn task_cpu_seconds(pid: u32) -> io::Result<f64> {
    let path = format!("/proc/{pid}/schedstat");
    let stat = fs::read_to_string(&path)?;
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| invalid(format!("{path}: no run time")))?;
    Ok(ns as f64 / 1e9)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let path = format!("/proc/{pid}/status");
    let status = fs::read_to_string(&path)?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| invalid(format!("{path}: no VmHWM line")))?;
    Ok(kb as f64 / 1024.0)
}

/// Read plus write syscalls made so far by the calling thread
/// (`syscr + syscw` of `/proc/thread-self/io`).
pub fn thread_rw_syscalls() -> io::Result<u64> {
    let path = "/proc/thread-self/io";
    let io = fs::read_to_string(path)?;
    let field = |name: &str| -> io::Result<u64> {
        io.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| invalid(format!("{path}: no {name} line")))
    };
    Ok(field("syscr:")? + field("syscw:")?)
}

/// Blocks until `stream` has data to read or has reached end of file,
/// consuming nothing (one `poll`).
pub fn wait_readable(stream: &impl std::os::fd::AsRawFd) -> io::Result<()> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    loop {
        // SAFETY: `fd` is one valid, exclusively borrowed pollfd for the
        // duration of the call; a negative timeout waits without limit.
        let ready = unsafe { poll(&mut fd, 1, -1) };
        if ready >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Sets the calling thread's timer slack to 1 ns, so a sleeping load
/// generator wakes when its schedule says rather than up to the default
/// 50 µs later. Best effort: an error leaves the default slack.
pub fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
    // touches no caller memory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}
