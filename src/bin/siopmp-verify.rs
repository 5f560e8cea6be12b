//! `siopmp-verify` — lint the checked-in scenario/experiment
//! configurations with the static analyzer.
//!
//! Every built-in scenario below is a configuration the repository
//! actually ships (config presets, the experiments' monitored-system
//! exercise, the SoC builder examples): the linter assembles each one,
//! runs [`siopmp_verify::analyze`] over the resulting hardware state
//! (plus the monitor's capability map when one exists), and reports the
//! findings.
//!
//! ```text
//! siopmp-verify [--list] [--json] [--seed N] [--out PATH] [--differential] [scenario ...]
//! ```
//!
//! The command line goes through the workspace's one flag grammar
//! ([`siopmp::cli::Spec`]): `--json`, `--list` and `--out` spell the
//! same here as in `repro` and `siopmp-scenario`. Declarative `.scn`
//! files are linted by `siopmp-scenario lint`, the one `.scn` linter.
//! JSON output is the workspace envelope (`schema_version`, `scenario`,
//! `seed`, `threads`, `payload`).
//!
//! Exits non-zero when any scenario carries an Error-severity diagnostic
//! or the differential sweep finds a disagreement — the `verify-lint` CI
//! job gates on that, with `--out` providing the JSON artifact.

use std::process::ExitCode;

use siopmp::cli::Spec;
use siopmp::ids::DeviceId;
use siopmp::json::{envelope, Json};
use siopmp::{Siopmp, SiopmpConfig};
use siopmp_monitor::{MemPerms, SecureMonitor};
use siopmp_suite::soc::{DeviceSpec, SocBuilder};
use siopmp_verify::{analyze, Report, Severity};

const SPEC: Spec = Spec {
    tool: "siopmp-verify",
    usage: "usage: siopmp-verify [--list] [--json] [--seed N] [--out PATH] \
[--differential] [scenario ...]",
    flags: &["--list", "--json", "--differential"],
    options: &["--seed", "--threads", "--out"],
};

struct Scenario {
    name: &'static str,
    description: &'static str,
    build: fn() -> Report,
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "preset-default",
        description: "the paper's default 64-SID / 1024-entry configuration, bare",
        build: || analyze(&Siopmp::build(SiopmpConfig::default(), None), None),
    },
    Scenario {
        name: "preset-original-iopmp",
        description: "the original-IOPMP baseline preset (linear checker, no mountable table)",
        build: || analyze(&Siopmp::build(SiopmpConfig::original_iopmp(), None), None),
    },
    Scenario {
        name: "preset-small",
        description: "the small unit-test preset",
        build: || analyze(&Siopmp::build(SiopmpConfig::small(), None), None),
    },
    Scenario {
        name: "monitor-exercise",
        description: "the experiments' monitored system: one TEE, one mapping, one cold device",
        build: monitor_exercise,
    },
    Scenario {
        name: "soc-two-tenant",
        description: "the SoC builder's two-tenant example (hot devices, disjoint memory)",
        build: soc_two_tenant,
    },
    Scenario {
        name: "cold-churn",
        description: "one hot SID with two cold tenants churning through the mount point",
        build: cold_churn,
    },
];

/// Mirrors `siopmp_experiments::telemetry_exercise`'s configuration work
/// (without driving traffic): one TEE owning a device and memory, one
/// mapping, plus a monitor-bound cold device.
fn monitor_exercise() -> Report {
    let mut m = SecureMonitor::build(SiopmpConfig::small(), None);
    let mem = m.mint_memory(0x8000_0000, 0x10_0000, MemPerms::rw());
    let dev = m.mint_device(DeviceId(1));
    let tee = m.create_tee(vec![mem, dev]).expect("fresh monitor");
    m.device_map(tee, dev, mem, 0x8000_0000, 0x1000, MemPerms::rw())
        .expect("capability covers the mapping");
    m.verify_now()
}

fn soc_two_tenant() -> Report {
    let soc = SocBuilder::new()
        .tenant(
            0x4000_0000,
            0x10_0000,
            vec![DeviceSpec {
                device: DeviceId(1),
                regions: vec![(0x4000_0000, 0x1000, true)],
            }],
        )
        .tenant(
            0x5000_0000,
            0x10_0000,
            vec![DeviceSpec {
                device: DeviceId(2),
                regions: vec![(0x5000_0000, 0x1000, false)],
            }],
        )
        .build()
        .expect("two disjoint tenants assemble");
    soc.monitor.verify_now()
}

fn cold_churn() -> Report {
    let mut cfg = SiopmpConfig::small();
    cfg.num_sids = 2; // one hot SID: every further device goes cold
    let mut m = SecureMonitor::build(cfg, None);
    let mem = m.mint_memory(0x8000_0000, 0x100_0000, MemPerms::rw());
    let devs: Vec<_> = (0..3u64).map(|d| m.mint_device(DeviceId(d))).collect();
    let mut caps = vec![mem];
    caps.extend(devs.iter().copied());
    let tee = m.create_tee(caps).expect("fresh monitor");
    for (i, dev) in devs.iter().enumerate() {
        m.device_map(
            tee,
            *dev,
            mem,
            0x8000_0000 + (i as u64) * 0x1000,
            0x1000,
            MemPerms::rw(),
        )
        .expect("capability covers each mapping");
    }
    // Touch both cold devices so the mount point has churned.
    for d in [1u64, 2] {
        let _ = m.check_dma(&siopmp::request::DmaRequest::new(
            DeviceId(d),
            siopmp::request::AccessKind::Read,
            0x8000_0000 + d * 0x1000,
            64,
        ));
    }
    m.verify_now()
}

fn usage() -> String {
    let mut s = format!("{}\n\nbuilt-in scenarios:\n", SPEC.usage);
    for sc in SCENARIOS {
        s.push_str(&format!("  {:<22} {}\n", sc.name, sc.description));
    }
    s
}

fn main() -> ExitCode {
    let args = match SPEC.parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.help || args.list {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }

    for name in &args.positional {
        if !SCENARIOS.iter().any(|sc| sc.name == name) {
            eprintln!("unknown scenario {name}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    let rendered: Vec<(&str, Report)> = SCENARIOS
        .iter()
        .filter(|sc| args.positional.is_empty() || args.positional.iter().any(|n| n == sc.name))
        .map(|sc| (sc.name, (sc.build)()))
        .collect();

    let mut totals = [0usize; 3]; // info, warning, error
    for (name, report) in &rendered {
        totals[0] += report.count(Severity::Info);
        totals[1] += report.count(Severity::Warning);
        totals[2] += report.count(Severity::Error);
        if !args.json {
            println!(
                "{:<22} {} error(s), {} warning(s), {} info",
                name,
                report.count(Severity::Error),
                report.count(Severity::Warning),
                report.count(Severity::Info),
            );
            for d in report.diagnostics() {
                println!("  [{}] {}: {}", d.severity, d.code, d.message);
            }
        }
    }

    // The measured soundness sweep: predict vs. hardware over randomized
    // configurations, reporting the analyzer's false-positive rate. Runs
    // whenever a JSON payload is produced (the rate is part of the
    // report contract) or on explicit request; any predict/check
    // disagreement is a soundness bug and fails the exit code.
    let differential = if args.json || args.out.is_some() || args.has("--differential") {
        let stats = siopmp_verify::differential::measure(
            siopmp_verify::differential::CONFIGS,
            siopmp_verify::differential::PROBES_PER_CONFIG,
            args.seed.unwrap_or(0),
        );
        if !args.json {
            println!(
                "differential           {} probes over {} configs: {} disagreement(s), \
                 {} Error(s) ({} corroborated), fp rate {:.4}",
                stats.probes,
                stats.configs,
                stats.disagreements,
                stats.error_diagnostics,
                stats.corroborated_errors,
                stats.false_positive_rate,
            );
        }
        Some(stats)
    } else {
        None
    };

    let payload = Json::object([
        (
            "summary",
            Json::object([
                ("errors", Json::u64(totals[2] as u64)),
                ("warnings", Json::u64(totals[1] as u64)),
                ("info", Json::u64(totals[0] as u64)),
                ("scenarios", Json::u64(rendered.len() as u64)),
            ]),
        ),
        (
            "differential",
            differential
                .as_ref()
                .map(|s| s.to_json())
                .unwrap_or(Json::Null),
        ),
        (
            "scenarios",
            Json::array(rendered.iter().map(|(name, report)| {
                Json::object([("name", Json::str(*name)), ("report", report.to_json())])
            })),
        ),
    ]);
    let json = envelope("verify", args.seed, args.threads.unwrap_or(1), payload);
    if args.json {
        println!("{}", json.pretty());
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{}\n", json.pretty())) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let disagreements = differential.as_ref().map_or(0, |s| s.disagreements);
    if totals[2] > 0 || disagreements > 0 {
        eprintln!(
            "siopmp-verify: {} Error-severity finding(s), {} differential disagreement(s)",
            totals[2], disagreements
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
