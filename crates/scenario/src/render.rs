//! Canonical renderer: [`Scenario`] → `.scn` text.
//!
//! The output is the normal form of the format: every `config`/`bus`/`run`
//! key is spelled explicitly (defaults included), addresses and lengths
//! print as hex, counts as decimal. [`crate::parse::parse`] inverts this
//! exactly — `parse(render(s)) == s` for every valid scenario — which is
//! what makes the format safe to machine-generate, normalize and diff.

use crate::ast::*;
use std::fmt::Write as _;

fn perms_str(p: Perms) -> &'static str {
    match p {
        Perms::R => "r",
        Perms::W => "w",
        Perms::Rw => "rw",
    }
}

fn checker_str(c: Checker) -> String {
    match c {
        Checker::Linear => "linear".to_string(),
        Checker::Pipelined { stages } => format!("pipelined:{stages}"),
        Checker::Tree { arity } => format!("tree:{arity}"),
        Checker::Mt { stages, arity } => format!("mt:{stages}:{arity}"),
    }
}

fn on_off(v: bool) -> &'static str {
    if v {
        "on"
    } else {
        "off"
    }
}

fn list(ids: &[u64]) -> String {
    ids.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn md_list(mds: &[u16]) -> String {
    mds.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn traffic(out: &mut String, t: &TrafficDecl) {
    let kind = match t.kind {
        Kind::Read => "read",
        Kind::Write => "write",
    };
    match t.mode {
        Mode::Uniform => {
            let _ = write!(
                out,
                "kind={kind} mode=uniform base={:#x} count={}",
                t.base, t.count
            );
        }
        Mode::Stream { stride } => {
            let _ = write!(
                out,
                "kind={kind} mode=stream base={:#x} stride={stride} count={}",
                t.base, t.count
            );
        }
    }
}

/// Renders `scenario` in canonical `.scn` form.
pub fn render(scenario: &Scenario) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario {}", scenario.name);
    if let Some(d) = &scenario.description {
        let _ = writeln!(out, "describe {d}");
    }
    let u = &scenario.unit;
    let _ = writeln!(
        out,
        "config sids={} mds={} entries={} cold_entries={} log={} checker={} violation={} placement={} mountable={}",
        u.sids,
        u.mds,
        u.entries,
        u.cold_entries,
        u.log,
        checker_str(u.checker),
        match u.violation {
            Violation::Masking => "masking",
            Violation::BusError => "bus_error",
        },
        match u.placement {
            PlacementSpec::PerDevice => "per_device",
            PlacementSpec::Centralized => "centralized",
        },
        on_off(u.mountable),
    );
    let b = &scenario.bus;
    let _ = writeln!(
        out,
        "bus bytes={} beats={} read_latency={} write_latency={} issue_gap={} derive_checker={}",
        b.bytes,
        b.beats,
        b.read_latency,
        b.write_latency,
        b.issue_gap,
        on_off(b.derive_checker),
    );
    if let Some(f) = &scenario.fleet {
        let mut line = format!("fleet rate={} burst={}", f.rate, f.burst);
        if let Some(d) = f.deadline {
            let _ = write!(line, " deadline={d}");
        }
        if let Some((max, backoff)) = f.retry {
            let _ = write!(line, " retry={max}:{backoff}");
        }
        let _ = writeln!(out, "{line}");
    }
    if let Some(e) = &scenario.explore {
        let _ = writeln!(
            out,
            "explore entries={} cam_ways={} stages={} cache={} shards={}",
            list(&e.entries),
            list(&e.cam_ways),
            list(&e.stages),
            list(&e.cache),
            list(&e.shards),
        );
    }
    for domain in &scenario.domains {
        let _ = writeln!(out, "\ndomain {}", domain.name);
        if let Some((base, len)) = domain.home {
            let _ = writeln!(out, "  home {base:#x} {len:#x}");
        }
        for dev in &domain.devices {
            let range = if dev.count == 1 {
                format!("{}", dev.first)
            } else {
                format!("{}..{}", dev.first, dev.first + dev.count)
            };
            match &dev.kind {
                DeviceKind::Hot { mds } => {
                    if mds.is_empty() {
                        let _ = writeln!(out, "  device {range} hot");
                    } else {
                        let _ = writeln!(out, "  device {range} hot md={}", md_list(mds));
                    }
                }
                DeviceKind::Cold { mds, records } => {
                    if mds.is_empty() {
                        let _ = writeln!(out, "  device {range} cold");
                    } else {
                        let _ = writeln!(out, "  device {range} cold md={}", md_list(mds));
                    }
                    for r in records {
                        let _ = writeln!(
                            out,
                            "  record {:#x} {:#x} {}",
                            r.base,
                            r.len,
                            perms_str(r.perms)
                        );
                    }
                }
            }
        }
        for e in &domain.entries {
            let locked = if e.locked { " locked" } else { "" };
            let _ = writeln!(
                out,
                "  entry md={} {:#x} {:#x} {}{locked}",
                e.md,
                e.base,
                e.len,
                perms_str(e.perms)
            );
        }
        for b in &domain.blocks {
            let _ = writeln!(out, "  block {b}");
        }
        for m in &domain.masters {
            let mut line = format!("  master device={} ", m.device);
            traffic(&mut line, &m.programs[0]);
            if m.outstanding != 1 {
                let _ = write!(line, " outstanding={}", m.outstanding);
            }
            if let Some(r) = &m.retry {
                let _ = write!(line, " retry={}:{}", r.max, r.backoff);
                if r.sid_missing {
                    line.push_str(" retry_sid_missing");
                }
            }
            let _ = writeln!(out, "{line}");
            for t in &m.programs[1..] {
                let mut line = String::from("  then ");
                traffic(&mut line, t);
                let _ = writeln!(out, "{line}");
            }
        }
        if let Some(f) = &domain.faults {
            let mut line = format!(
                "  faults seed={} horizon={} budget={}",
                f.seed, f.horizon, f.budget
            );
            if !f.block.is_empty() {
                let _ = write!(line, " block={}", list(&f.block));
            }
            if !f.cold.is_empty() {
                let _ = write!(line, " cold={}", list(&f.cold));
            }
            if !f.churn.is_empty() {
                let _ = write!(line, " churn={}", list(&f.churn));
            }
            let _ = writeln!(out, "{line}");
        }
    }
    let r = &scenario.run;
    let mut line = format!("\nrun max_cycles={} epoch={}", r.max_cycles, r.epoch);
    if let Some(t) = r.threads {
        let _ = write!(line, " threads={t}");
    }
    let _ = writeln!(out, "{line}");
    for e in &scenario.expects {
        match e {
            Expectation::Completed => {
                let _ = writeln!(out, "expect completed");
            }
            Expectation::LintClean => {
                let _ = writeln!(out, "expect lint clean");
            }
            Expectation::Metric { metric, op, value } => {
                let _ = writeln!(out, "expect {} {} {}", metric.as_str(), op.as_str(), value);
            }
        }
    }
    out
}
