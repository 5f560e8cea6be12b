//! Hand-rolled parser: `.scn` text → [`Scenario`].
//!
//! The format is line-oriented: `#` starts a comment, blank lines and
//! indentation are ignored, and each remaining line is one directive
//! whose first token names it. `scenario <name>` must come first;
//! `domain <name>` opens a domain block that owns every domain-scoped
//! directive (`home`, `device`, `record`, `entry`, `block`, `master`,
//! `then`, `faults`) until the next top-level directive. Numbers accept
//! decimal or `0x` hex, with `_` separators.
//!
//! Errors carry the 1-based source line and a message precise enough to
//! fix the file without reading this module (pinned by the error-message
//! snapshot tests).

use crate::ast::*;
use siopmp::SiopmpConfig;

/// Widest `device <first>..<end>` range: the 16-bit SID space
/// ([`SiopmpConfig::MAX_SIDS`]). Every ID in a range is registered one by
/// one, so an unbounded span would wedge `lint`, `run` and a daemon
/// loading its fleet.
pub const MAX_DEVICE_RANGE: u64 = SiopmpConfig::MAX_SIDS as u64;

/// Largest `count=` of one `master` or `then` traffic segment. Programs
/// are materialised burst by burst (24 bytes each), so the cap bounds a
/// segment at 24 MiB; the corpus uses at most 64.
pub const MAX_BURSTS: u64 = 1 << 20;

/// A parse failure: the offending 1-based line and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScnError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ScnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScnError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ScnError> {
    Err(ScnError {
        line,
        message: message.into(),
    })
}

/// Parses a number: decimal or `0x` hex, `_` separators allowed.
fn num(tok: &str) -> Option<u64> {
    let clean: String = tok.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = clean
        .strip_prefix("0x")
        .or_else(|| clean.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        clean.parse().ok()
    }
}

fn num_or<T: TryFrom<u64>>(line: usize, key: &str, val: &str) -> Result<T, ScnError> {
    let v = num(val).ok_or_else(|| ScnError {
        line,
        message: format!("`{key}` expects a number, got `{val}`"),
    })?;
    T::try_from(v).map_err(|_| ScnError {
        line,
        message: format!("`{key}` value {v} is out of range"),
    })
}

fn split_kv(tok: &str) -> Option<(&str, &str)> {
    let (k, v) = tok.split_once('=')?;
    if k.is_empty() || v.is_empty() {
        return None;
    }
    Some((k, v))
}

fn perms(line: usize, tok: &str) -> Result<Perms, ScnError> {
    match tok {
        "r" => Ok(Perms::R),
        "w" => Ok(Perms::W),
        "rw" => Ok(Perms::Rw),
        other => err(
            line,
            format!("unknown permissions `{other}` (use r, w or rw)"),
        ),
    }
}

fn id_list(line: usize, key: &str, val: &str) -> Result<Vec<u64>, ScnError> {
    val.split(',')
        .map(|part| {
            num(part).ok_or_else(|| ScnError {
                line,
                message: format!("`{key}` expects a comma-separated ID list, got `{val}`"),
            })
        })
        .collect()
}

fn md_list_of(line: usize, val: &str) -> Result<Vec<u16>, ScnError> {
    val.split(',')
        .map(|part| {
            num(part)
                .and_then(|v| u16::try_from(v).ok())
                .ok_or_else(|| ScnError {
                    line,
                    message: format!(
                        "`md` expects a comma-separated list of domain indices, got `{val}`"
                    ),
                })
        })
        .collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
}

/// Parses a `kind=... mode=... base=... [stride=...] count=...` traffic
/// segment from `toks`, consuming the tokens it understands and leaving
/// the rest (master-level options) to the caller.
fn traffic(
    line: usize,
    directive: &str,
    toks: &[&str],
) -> Result<(TrafficDecl, Vec<String>), ScnError> {
    let mut kind = None;
    let mut mode = None;
    let mut base = None;
    let mut stride = None;
    let mut count = None;
    let mut rest = Vec::new();
    for tok in toks {
        match split_kv(tok) {
            Some(("kind", v)) => {
                kind = Some(match v {
                    "read" => Kind::Read,
                    "write" => Kind::Write,
                    other => {
                        return err(line, format!("unknown kind `{other}` (use read or write)"))
                    }
                })
            }
            Some(("mode", v)) => {
                mode = Some(match v {
                    "uniform" => "uniform",
                    "stream" => "stream",
                    other => {
                        return err(
                            line,
                            format!("unknown mode `{other}` (use uniform or stream)"),
                        )
                    }
                })
            }
            Some(("base", v)) => base = Some(num_or::<u64>(line, "base", v)?),
            Some(("stride", v)) => stride = Some(num_or::<u64>(line, "stride", v)?),
            Some(("count", v)) => count = Some(num_or::<u64>(line, "count", v)?),
            _ => rest.push(tok.to_string()),
        }
    }
    let kind = kind.ok_or_else(|| ScnError {
        line,
        message: format!("`{directive}` requires kind=read|write"),
    })?;
    let mode = mode.ok_or_else(|| ScnError {
        line,
        message: format!("`{directive}` requires mode=uniform|stream"),
    })?;
    let base = base.ok_or_else(|| ScnError {
        line,
        message: format!("`{directive}` requires base=<address>"),
    })?;
    let count = count.ok_or_else(|| ScnError {
        line,
        message: format!("`{directive}` requires count=<bursts>"),
    })?;
    if count == 0 {
        return err(line, format!("`{directive}` count must be at least 1"));
    }
    if count > MAX_BURSTS {
        return err(
            line,
            format!("`{directive}` count {count} is above the cap of {MAX_BURSTS} bursts"),
        );
    }
    let mode = match (mode, stride) {
        ("uniform", None) => Mode::Uniform,
        ("uniform", Some(_)) => {
            return err(line, "`stride` only applies to mode=stream");
        }
        ("stream", Some(stride)) => {
            if stride
                .checked_mul(count - 1)
                .and_then(|span| base.checked_add(span))
                .is_none()
            {
                return err(
                    line,
                    format!("`{directive}` stream's last burst address overflows 64 bits"),
                );
            }
            Mode::Stream { stride }
        }
        ("stream", None) => {
            return err(
                line,
                format!("`{directive}` with mode=stream requires stride=<bytes>"),
            );
        }
        _ => unreachable!(),
    };
    Ok((
        TrafficDecl {
            kind,
            mode,
            base,
            count: count as usize,
        },
        rest,
    ))
}

/// Parses one `.scn` document.
///
/// # Errors
///
/// Returns the first [`ScnError`] encountered, with its source line.
pub fn parse(text: &str) -> Result<Scenario, ScnError> {
    let mut scenario: Option<Scenario> = None;
    // Where domain-scoped directives land; None until the first `domain`.
    let mut in_domain = false;
    let mut seen_config = false;
    let mut seen_bus = false;
    let mut seen_run = false;

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let stripped = raw.split('#').next().unwrap_or("");
        let toks: Vec<&str> = stripped.split_whitespace().collect();
        let Some(&directive) = toks.first() else {
            continue;
        };
        let args = &toks[1..];

        if scenario.is_none() {
            if directive != "scenario" {
                return err(line, "expected `scenario <name>` as the first directive");
            }
            let [name] = args else {
                return err(line, "`scenario` takes exactly one name");
            };
            if !valid_name(name) {
                return err(
                    line,
                    format!("scenario name `{name}` must match [a-z0-9_-]+"),
                );
            }
            scenario = Some(Scenario::named(*name));
            continue;
        }
        let scn = scenario.as_mut().expect("checked above");

        match directive {
            "scenario" => return err(line, "duplicate `scenario` directive"),
            "describe" => {
                if scn.description.is_some() {
                    return err(line, "duplicate `describe` directive");
                }
                let text = stripped.trim_start()["describe".len()..].trim();
                if text.is_empty() {
                    return err(line, "`describe` requires a description text");
                }
                scn.description = Some(text.to_string());
            }
            "config" => {
                if seen_config {
                    return err(line, "duplicate `config` directive");
                }
                seen_config = true;
                for tok in args {
                    let Some((k, v)) = split_kv(tok) else {
                        return err(
                            line,
                            format!("`config` expects key=value pairs, got `{tok}`"),
                        );
                    };
                    match k {
                        "sids" => scn.unit.sids = num_or::<u64>(line, k, v)? as usize,
                        "mds" => scn.unit.mds = num_or::<u64>(line, k, v)? as usize,
                        "entries" => scn.unit.entries = num_or::<u64>(line, k, v)? as usize,
                        "cold_entries" => {
                            scn.unit.cold_entries = num_or::<u64>(line, k, v)? as usize
                        }
                        "cache" => scn.unit.cache = num_or::<u64>(line, k, v)? as usize,
                        "log" => scn.unit.log = num_or::<u64>(line, k, v)? as usize,
                        "checker" => {
                            let parts: Vec<&str> = v.split(':').collect();
                            scn.unit.checker = match parts.as_slice() {
                                ["linear"] => Checker::Linear,
                                ["pipelined", s] => Checker::Pipelined {
                                    stages: num_or::<u8>(line, k, s)?,
                                },
                                ["tree", a] => Checker::Tree {
                                    arity: num_or::<u8>(line, k, a)?,
                                },
                                ["mt", s, a] => Checker::Mt {
                                    stages: num_or::<u8>(line, k, s)?,
                                    arity: num_or::<u8>(line, k, a)?,
                                },
                                _ => {
                                    return err(
                                        line,
                                        format!(
                                            "unknown checker `{v}` (use linear, pipelined:<stages>, tree:<arity> or mt:<stages>:<arity>)"
                                        ),
                                    )
                                }
                            };
                        }
                        "violation" => {
                            scn.unit.violation = match v {
                                "masking" => Violation::Masking,
                                "bus_error" => Violation::BusError,
                                other => {
                                    return err(
                                        line,
                                        format!(
                                    "unknown violation mode `{other}` (use masking or bus_error)"
                                ),
                                    )
                                }
                            }
                        }
                        "placement" => {
                            scn.unit.placement = match v {
                                "per_device" => PlacementSpec::PerDevice,
                                "centralized" => PlacementSpec::Centralized,
                                other => {
                                    return err(
                                        line,
                                        format!(
                                    "unknown placement `{other}` (use per_device or centralized)"
                                ),
                                    )
                                }
                            }
                        }
                        "mountable" => {
                            scn.unit.mountable = match v {
                                "on" => true,
                                "off" => false,
                                other => {
                                    return err(
                                        line,
                                        format!("`mountable` is on or off, got `{other}`"),
                                    )
                                }
                            }
                        }
                        other => return err(line, format!("unknown `config` key `{other}`")),
                    }
                }
            }
            "bus" => {
                if seen_bus {
                    return err(line, "duplicate `bus` directive");
                }
                seen_bus = true;
                for tok in args {
                    let Some((k, v)) = split_kv(tok) else {
                        return err(line, format!("`bus` expects key=value pairs, got `{tok}`"));
                    };
                    match k {
                        "bytes" => scn.bus.bytes = num_or::<u64>(line, k, v)?,
                        "beats" => scn.bus.beats = num_or::<u32>(line, k, v)?,
                        "read_latency" => scn.bus.read_latency = num_or::<u32>(line, k, v)?,
                        "write_latency" => scn.bus.write_latency = num_or::<u32>(line, k, v)?,
                        "issue_gap" => scn.bus.issue_gap = num_or::<u32>(line, k, v)?,
                        "derive_checker" => {
                            scn.bus.derive_checker = match v {
                                "on" => true,
                                "off" => false,
                                other => {
                                    return err(
                                        line,
                                        format!("`derive_checker` is on or off, got `{other}`"),
                                    )
                                }
                            }
                        }
                        other => return err(line, format!("unknown `bus` key `{other}`")),
                    }
                }
            }
            "fleet" => {
                if scn.fleet.is_some() {
                    return err(line, "duplicate `fleet` directive");
                }
                let mut decl = FleetParams {
                    rate: 0,
                    burst: 0,
                    deadline: None,
                    retry: None,
                };
                let (mut saw_rate, mut saw_burst) = (false, false);
                for tok in args {
                    let Some((k, v)) = split_kv(tok) else {
                        return err(
                            line,
                            format!("`fleet` expects key=value pairs, got `{tok}`"),
                        );
                    };
                    match k {
                        "rate" => {
                            decl.rate = num_or(line, k, v)?;
                            saw_rate = true;
                        }
                        "burst" => {
                            decl.burst = num_or(line, k, v)?;
                            saw_burst = true;
                        }
                        "deadline" => decl.deadline = Some(num_or(line, k, v)?),
                        "retry" => {
                            let Some((max, backoff)) = v.split_once(':') else {
                                return err(line, "`fleet` retry expects retry=<max>:<backoff>");
                            };
                            decl.retry = Some((
                                num_or(line, "retry max", max)?,
                                num_or(line, "retry backoff", backoff)?,
                            ));
                        }
                        other => return err(line, format!("unknown `fleet` key `{other}`")),
                    }
                }
                if !(saw_rate && saw_burst) {
                    return err(line, "`fleet` requires rate= and burst=");
                }
                if decl.rate == 0 || decl.burst == 0 {
                    return err(line, "`fleet` rate and burst must be at least 1");
                }
                if decl.deadline == Some(0) {
                    return err(line, "`fleet` deadline must be at least 1");
                }
                scn.fleet = Some(decl);
            }
            "explore" => {
                if scn.explore.is_some() {
                    return err(line, "duplicate `explore` directive");
                }
                let mut decl = ExploreParams::default();
                let mut saw_entries = false;
                for tok in args {
                    let Some((k, v)) = split_kv(tok) else {
                        return err(
                            line,
                            format!("`explore` expects key=value pairs, got `{tok}`"),
                        );
                    };
                    match k {
                        "entries" => {
                            decl.entries = id_list(line, k, v)?;
                            saw_entries = true;
                        }
                        "cam_ways" => decl.cam_ways = id_list(line, k, v)?,
                        "stages" => decl.stages = id_list(line, k, v)?,
                        "cache" => decl.cache = id_list(line, k, v)?,
                        "shards" => decl.shards = id_list(line, k, v)?,
                        other => return err(line, format!("unknown `explore` key `{other}`")),
                    }
                }
                if !saw_entries {
                    return err(line, "`explore` requires entries=<list>");
                }
                if decl.entries.contains(&0) {
                    return err(line, "`explore` entries values must be at least 1");
                }
                if decl.cam_ways.contains(&0) {
                    return err(line, "`explore` cam_ways values must be at least 1");
                }
                if decl.stages.iter().any(|&s| !(1..=8).contains(&s)) {
                    return err(line, "`explore` stages values must be between 1 and 8");
                }
                if decl.shards.iter().any(|&s| !(1..=64).contains(&s)) {
                    return err(line, "`explore` shards values must be between 1 and 64");
                }
                scn.explore = Some(decl);
            }
            "domain" => {
                let [name] = args else {
                    return err(line, "`domain` takes exactly one name");
                };
                if !valid_name(name) {
                    return err(line, format!("domain name `{name}` must match [a-z0-9_-]+"));
                }
                if scn.domains.iter().any(|d| d.name == *name) {
                    return err(line, format!("duplicate domain name `{name}`"));
                }
                scn.domains.push(Domain::named(*name));
                in_domain = true;
            }
            "home" | "device" | "record" | "entry" | "block" | "master" | "then" | "faults"
                if !in_domain =>
            {
                return err(
                    line,
                    format!("`{directive}` must appear inside a `domain` block"),
                );
            }
            "home" => {
                let domain = scn.domains.last_mut().expect("in_domain");
                if domain.home.is_some() {
                    return err(line, "duplicate `home` directive in this domain");
                }
                let [base, len] = args else {
                    return err(line, "`home` takes exactly `<base> <len>`");
                };
                domain.home = Some((
                    num_or(line, "home base", base)?,
                    num_or(line, "home len", len)?,
                ));
            }
            "device" => {
                let domain = scn.domains.last_mut().expect("in_domain");
                let (range, rest) = match args {
                    [range, rest @ ..] => (range, rest),
                    [] => return err(line, "`device` takes `<id>[..<end>] hot|cold [md=<list>]`"),
                };
                let (first, count) = match range.split_once("..") {
                    Some((a, b)) => {
                        let first = num(a).ok_or_else(|| ScnError {
                            line,
                            message: format!("bad device range start `{a}`"),
                        })?;
                        let end = num(b).ok_or_else(|| ScnError {
                            line,
                            message: format!("bad device range end `{b}`"),
                        })?;
                        if end <= first {
                            return err(line, format!("device range `{range}` is empty"));
                        }
                        (first, end - first)
                    }
                    None => (
                        num(range).ok_or_else(|| ScnError {
                            line,
                            message: format!("bad device ID `{range}`"),
                        })?,
                        1,
                    ),
                };
                if count > MAX_DEVICE_RANGE {
                    return err(
                        line,
                        format!(
                            "device range `{range}` spans {count} IDs, more than the \
                             {MAX_DEVICE_RANGE} a 16-bit SID space names"
                        ),
                    );
                }
                if first.checked_add(count).is_none() {
                    return err(
                        line,
                        format!(
                            "device ID `{range}` is out of range: IDs end below {:#x}",
                            u64::MAX
                        ),
                    );
                }
                let (temp, options) = match rest {
                    ["hot", options @ ..] => (true, options),
                    ["cold", options @ ..] => (false, options),
                    _ => return err(line, "`device` requires `hot` or `cold` after the ID"),
                };
                let mut mds = Vec::new();
                for tok in options {
                    match split_kv(tok) {
                        Some(("md", v)) => mds = md_list_of(line, v)?,
                        _ => return err(line, format!("unknown `device` option `{tok}`")),
                    }
                }
                let kind = if temp {
                    DeviceKind::Hot { mds }
                } else {
                    DeviceKind::Cold {
                        mds,
                        records: Vec::new(),
                    }
                };
                domain.devices.push(DeviceDecl { first, count, kind });
            }
            "record" => {
                let domain = scn.domains.last_mut().expect("in_domain");
                let [base, len, p] = args else {
                    return err(line, "`record` takes exactly `<base> <len> <perms>`");
                };
                let record = RecordDecl {
                    base: num_or(line, "record base", base)?,
                    len: num_or(line, "record len", len)?,
                    perms: perms(line, p)?,
                };
                match domain.devices.last_mut() {
                    Some(DeviceDecl {
                        kind: DeviceKind::Cold { records, .. },
                        ..
                    }) => records.push(record),
                    _ => return err(line, "`record` must follow a `device ... cold` declaration"),
                }
            }
            "entry" => {
                let domain = scn.domains.last_mut().expect("in_domain");
                let (md, rest) = match args {
                    [first, rest @ ..] => match split_kv(first) {
                        Some(("md", v)) => (num_or::<u16>(line, "md", v)?, rest),
                        _ => return err(line, "`entry` requires md=<domain-index> first"),
                    },
                    [] => return err(line, "`entry` requires md=<domain-index> first"),
                };
                let (base, len, p, locked) = match rest {
                    [base, len, p] => (base, len, p, false),
                    [base, len, p, l] if *l == "locked" => (base, len, p, true),
                    _ => {
                        return err(
                            line,
                            "`entry` takes `md=<md> <base> <len> <perms> [locked]`",
                        )
                    }
                };
                domain.entries.push(EntryDecl {
                    md,
                    base: num_or(line, "entry base", base)?,
                    len: num_or(line, "entry len", len)?,
                    perms: perms(line, p)?,
                    locked,
                });
            }
            "block" => {
                let domain = scn.domains.last_mut().expect("in_domain");
                let [dev] = args else {
                    return err(line, "`block` takes exactly one device ID");
                };
                domain.blocks.push(num_or(line, "block", dev)?);
            }
            "master" => {
                let domain = scn.domains.last_mut().expect("in_domain");
                let (first, rest) = traffic(line, "master", args)?;
                let mut device = None;
                let mut outstanding = 1usize;
                let mut retry: Option<RetryDecl> = None;
                for tok in &rest {
                    match split_kv(tok) {
                        Some(("device", v)) => device = Some(num_or::<u64>(line, "device", v)?),
                        Some(("outstanding", v)) => {
                            outstanding = num_or::<u64>(line, "outstanding", v)? as usize;
                            if outstanding == 0 {
                                return err(line, "`outstanding` must be at least 1");
                            }
                        }
                        Some(("retry", v)) => {
                            let Some((max, backoff)) = v.split_once(':') else {
                                return err(line, "`retry` expects retry=<max>:<backoff>");
                            };
                            retry = Some(RetryDecl {
                                max: num_or(line, "retry max", max)?,
                                backoff: num_or(line, "retry backoff", backoff)?,
                                sid_missing: retry.map(|r| r.sid_missing).unwrap_or(false),
                            });
                        }
                        None if *tok == "retry_sid_missing" => match &mut retry {
                            Some(r) => r.sid_missing = true,
                            None => {
                                return err(
                                    line,
                                    "`retry_sid_missing` requires a `retry=` option first",
                                )
                            }
                        },
                        _ => return err(line, format!("unknown `master` option `{tok}`")),
                    }
                }
                let device = device.ok_or_else(|| ScnError {
                    line,
                    message: "`master` requires device=<id>".to_string(),
                })?;
                domain.masters.push(MasterDecl {
                    device,
                    programs: vec![first],
                    outstanding,
                    retry,
                });
            }
            "then" => {
                let domain = scn.domains.last_mut().expect("in_domain");
                let (seg, rest) = traffic(line, "then", args)?;
                if let Some(extra) = rest.first() {
                    return err(line, format!("unknown `then` option `{extra}`"));
                }
                match domain.masters.last_mut() {
                    Some(m) => m.programs.push(seg),
                    None => return err(line, "`then` must follow a `master` line"),
                }
            }
            "faults" => {
                let domain = scn.domains.last_mut().expect("in_domain");
                if domain.faults.is_some() {
                    return err(line, "duplicate `faults` directive in this domain");
                }
                let mut decl = FaultDecl {
                    seed: 0,
                    horizon: 0,
                    budget: 0,
                    block: Vec::new(),
                    cold: Vec::new(),
                    churn: Vec::new(),
                };
                let (mut saw_seed, mut saw_horizon, mut saw_budget) = (false, false, false);
                for tok in args {
                    let Some((k, v)) = split_kv(tok) else {
                        return err(
                            line,
                            format!("`faults` expects key=value pairs, got `{tok}`"),
                        );
                    };
                    match k {
                        "seed" => {
                            decl.seed = num_or(line, k, v)?;
                            saw_seed = true;
                        }
                        "horizon" => {
                            decl.horizon = num_or(line, k, v)?;
                            saw_horizon = true;
                        }
                        "budget" => {
                            decl.budget = num_or::<u64>(line, k, v)? as usize;
                            saw_budget = true;
                        }
                        "block" => decl.block = id_list(line, k, v)?,
                        "cold" => decl.cold = id_list(line, k, v)?,
                        "churn" => decl.churn = id_list(line, k, v)?,
                        other => return err(line, format!("unknown `faults` key `{other}`")),
                    }
                }
                if !(saw_seed && saw_horizon && saw_budget) {
                    return err(line, "`faults` requires seed=, horizon= and budget=");
                }
                domain.faults = Some(decl);
            }
            "run" => {
                if seen_run {
                    return err(line, "duplicate `run` directive");
                }
                seen_run = true;
                in_domain = false;
                for tok in args {
                    let Some((k, v)) = split_kv(tok) else {
                        return err(line, format!("`run` expects key=value pairs, got `{tok}`"));
                    };
                    match k {
                        "max_cycles" => scn.run.max_cycles = num_or(line, k, v)?,
                        "epoch" => scn.run.epoch = num_or(line, k, v)?,
                        "threads" => {
                            let t = num_or::<u64>(line, k, v)? as usize;
                            if t == 0 {
                                return err(line, "`threads` must be at least 1");
                            }
                            scn.run.threads = Some(t);
                        }
                        other => return err(line, format!("unknown `run` key `{other}`")),
                    }
                }
            }
            "expect" => {
                in_domain = false;
                let expectation =
                    match args {
                        ["completed"] => Expectation::Completed,
                        ["lint", "clean"] => Expectation::LintClean,
                        [metric, op, value] => {
                            let m = Metric::from_token(metric).ok_or_else(|| ScnError {
                                line,
                                message: format!(
                                    "unknown metric `{metric}` (known: {})",
                                    Metric::ALL
                                        .iter()
                                        .map(|(_, s)| *s)
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                ),
                            })?;
                            let op = CmpOp::from_token(op).ok_or_else(|| ScnError {
                                line,
                                message: format!("unknown comparison `{op}` (use == != <= >= < >)"),
                            })?;
                            Expectation::Metric {
                                metric: m,
                                op,
                                value: num_or(line, "expect value", value)?,
                            }
                        }
                        _ => return err(
                            line,
                            "`expect` takes `completed`, `lint clean` or `<metric> <op> <value>`",
                        ),
                    };
                scn.expects.push(expectation);
            }
            other => return err(line, format!("unknown directive `{other}`")),
        }
    }

    match scenario {
        Some(s) => Ok(s),
        None => err(0, "empty scenario: no `scenario <name>` directive found"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_accept_hex_and_separators() {
        assert_eq!(num("0x10"), Some(16));
        assert_eq!(num("1_000"), Some(1000));
        assert_eq!(num("0x1_0000"), Some(0x1_0000));
        assert_eq!(num("zonk"), None);
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = parse("scenario tiny\ndomain d0\n  device 1 hot md=0\n").unwrap();
        assert_eq!(s.name, "tiny");
        assert_eq!(s.unit, UnitParams::default());
        assert_eq!(s.bus, BusParams::default());
        assert_eq!(s.run, RunParams::default());
        assert_eq!(s.domains.len(), 1);
        assert_eq!(
            s.domains[0].devices,
            vec![DeviceDecl {
                first: 1,
                count: 1,
                kind: DeviceKind::Hot { mds: vec![0] },
            }]
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let s = parse("# header\n\nscenario tiny # trailing\n\ndomain d0 # another\n").unwrap();
        assert_eq!(s.domains.len(), 1);
    }

    #[test]
    fn fleet_stanza_parses_and_validates() {
        let s = parse(
            "scenario t\nfleet rate=500 burst=64 deadline=1000 retry=3:8\ndomain d\n  device 1 hot md=0\n",
        )
        .unwrap();
        assert_eq!(
            s.fleet,
            Some(FleetParams {
                rate: 500,
                burst: 64,
                deadline: Some(1000),
                retry: Some((3, 8)),
            })
        );
        // Optional keys default off.
        let s = parse("scenario t\nfleet rate=1 burst=1\ndomain d\n").unwrap();
        assert_eq!(s.fleet.unwrap().deadline, None);
        assert!(
            parse("scenario t\nfleet rate=500\n").is_err(),
            "burst required"
        );
        assert!(
            parse("scenario t\nfleet rate=0 burst=4\n").is_err(),
            "zero rate"
        );
        assert!(parse("scenario t\nfleet rate=1 burst=1 deadline=0\n").is_err());
        assert!(parse("scenario t\nfleet rate=1 burst=1 retry=3\n").is_err());
        assert!(
            parse("scenario t\nfleet rate=1 burst=1\nfleet rate=1 burst=1\n").is_err(),
            "duplicate fleet"
        );
    }

    #[test]
    fn explore_stanza_parses_and_validates() {
        let s = parse(
            "scenario t\nexplore entries=256,512,1024 cam_ways=16,64 stages=1,3 cache=0,1024 shards=1,2\ndomain d\n  device 1 hot md=0\n",
        )
        .unwrap();
        assert_eq!(
            s.explore,
            Some(ExploreParams {
                entries: vec![256, 512, 1024],
                cam_ways: vec![16, 64],
                stages: vec![1, 3],
                cache: vec![0, 1024],
                shards: vec![1, 2],
            })
        );
        // Omitted axes default to the paper point; list order and
        // duplicates are preserved as written (canonicalization happens
        // at sweep time, not parse time).
        let s = parse("scenario t\nexplore entries=1024,256,256\ndomain d\n").unwrap();
        let e = s.explore.unwrap();
        assert_eq!(e.entries, vec![1024, 256, 256]);
        assert_eq!(e.cam_ways, vec![64]);
        assert_eq!(e.stages, vec![3]);
        assert_eq!(e.cache, vec![1024]);
        assert_eq!(e.shards, vec![1]);
        assert!(
            parse("scenario t\nexplore cam_ways=64\n").is_err(),
            "entries required"
        );
        assert!(
            parse("scenario t\nexplore entries=0\n").is_err(),
            "zero entries"
        );
        assert!(
            parse("scenario t\nexplore entries=64 stages=9\n").is_err(),
            "stages out of range"
        );
        assert!(
            parse("scenario t\nexplore entries=64 shards=0\n").is_err(),
            "zero shards"
        );
        assert!(
            parse("scenario t\nexplore entries=64\nexplore entries=64\n").is_err(),
            "duplicate explore"
        );
    }

    #[test]
    fn device_ranges_parse() {
        let s = parse("scenario t\ndomain d\n  device 100..1100 cold\n").unwrap();
        let d = &s.domains[0].devices[0];
        assert_eq!((d.first, d.count), (100, 1000));
    }

    #[test]
    fn numbers_at_their_caps_still_parse() {
        let s = parse(
            "scenario t\ndomain d\n  device 1..65537 cold\n  device 0xffff_ffff_ffff_fffe hot\n  \
             master device=1 kind=read mode=stream base=0xffff_ffff_ff00_0000 stride=0x10 count=0x10_0000\n",
        )
        .unwrap();
        let d = &s.domains[0];
        assert_eq!(d.devices[0].count, MAX_DEVICE_RANGE);
        assert_eq!(d.devices[1].first, u64::MAX - 1);
        assert_eq!(d.masters[0].programs[0].count as u64, MAX_BURSTS);
    }
}
