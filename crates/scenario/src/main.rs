//! `siopmp-scenario` — run, lint, bench and list `.scn` scenario files.
//!
//! ```text
//! siopmp-scenario run   FILE...  [--json] [--seed N] [--threads N] [--out PATH]
//! siopmp-scenario lint  FILE...  [--json] [--out PATH]
//! siopmp-scenario bench FILE...  [--json] [--seed N] [--threads N] [--out DIR] [--baseline FILE]
//! siopmp-scenario prove FILE...  [--json] [--out PATH] [--max-depth N] [--max-states N]
//! siopmp-scenario explore [FILE...] [--json] [--threads N] [--out PATH]
//! siopmp-scenario list  [PATH...]  [--json]
//! ```
//!
//! * `run` compiles each scenario onto the sharded simulator, runs it and
//!   judges its `expect` lines; any failed expectation fails the exit
//!   code.
//! * `lint` compiles each domain's sIOPMP unit and runs the static
//!   analyzer; any Error-severity diagnostic fails the exit code.
//! * `prove` lowers each domain into the bounded model checker
//!   (`siopmp-prove`) and exhaustively explores every mutator sequence
//!   from the compiled state up to the bound; any isolation, soundness
//!   or atomicity violation fails the exit code.
//! * `bench` runs each scenario and reports the host-independent cost
//!   metric (simulated cycles per completed burst) plus wall time;
//!   `--baseline FILE` guards `<name> <cycles_per_burst>` pairs at ±15%.
//! * `explore` sweeps the hardware design space declared by each file's
//!   `explore` stanza (no files = the built-in smoke sweep) over the
//!   calibrated timing/area model and prints the Pareto frontier; an
//!   empty frontier fails the exit code.
//! * `list` scans files or directories (default `corpus/`) and prints
//!   each scenario's name, description and shape.
//!
//! JSON output (stdout with `--json`, file with `--out`) is wrapped in
//! the workspace envelope `{schema_version, scenario, seed, threads,
//! payload}` shared with `repro --json` and `siopmp-verify`.

use siopmp::json::{envelope, Json};
use siopmp_prove::{explore, Bounds};
use siopmp_scenario::cli::Spec;
use siopmp_scenario::{lint, parse, render, run, RunOptions, Scenario};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: siopmp-scenario <run|lint|bench|prove|explore|list> [FILE ...] \
[--json] [--seed N] [--threads N] [--out PATH] [--baseline FILE] \
[--max-depth N] [--max-states N]";

const SPEC: Spec = Spec {
    tool: "siopmp-scenario",
    usage: USAGE,
    flags: &["--render"],
    options: &["--max-depth", "--max-states"],
    deprecated: &[],
};

/// Fractional tolerance of the bench `--baseline` guard, each side.
const BASELINE_TOLERANCE: f64 = 0.15;

fn load(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn emit(doc: &Json, json_stdout: bool, out: Option<&Path>) -> Result<(), String> {
    if json_stdout {
        println!("{}", doc.pretty());
    }
    if let Some(path) = out {
        std::fs::write(path, format!("{}\n", doc.pretty()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Joins per-file envelopes: one file stays a single document, several
/// become an array (so `run a.scn` pipes cleanly into jq either way).
fn join(mut docs: Vec<Json>) -> Json {
    if docs.len() == 1 {
        docs.pop().expect("length checked")
    } else {
        Json::array(docs)
    }
}

fn cmd_run(
    files: &[PathBuf],
    opts: RunOptions,
    json: bool,
    out: Option<&Path>,
) -> Result<bool, String> {
    let mut docs = Vec::new();
    let mut all_passed = true;
    for path in files {
        let scenario = load(path)?;
        let outcome = run(&scenario, &opts).map_err(|e| format!("{}: {e}", path.display()))?;
        all_passed &= outcome.passed();
        if !json {
            let verdict = if outcome.passed() { "pass" } else { "FAIL" };
            println!(
                "{:<28} {verdict}  cycles {:>8}  masters {:>3}  ok {:>6}  cross {:>4}",
                outcome.scenario,
                outcome.report.cycles,
                outcome.report.masters.len(),
                outcome
                    .report
                    .masters
                    .iter()
                    .map(|m| m.bursts_ok)
                    .sum::<usize>(),
                outcome.cross_domain,
            );
            for f in &outcome.failures {
                println!("  FAILED {f}");
            }
        }
        docs.push(envelope(
            &outcome.scenario,
            outcome.seed,
            outcome.threads,
            outcome.to_json(),
        ));
    }
    emit(&join(docs), json, out)?;
    Ok(all_passed)
}

fn cmd_lint(files: &[PathBuf], json: bool, out: Option<&Path>) -> Result<bool, String> {
    let mut docs = Vec::new();
    let mut clean = true;
    for path in files {
        let scenario = load(path)?;
        let lints = lint(&scenario).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut domains = Vec::new();
        for l in &lints {
            clean &= !l.report.has_errors();
            if !json {
                let errors = l
                    .report
                    .diagnostics()
                    .iter()
                    .filter(|d| d.severity == siopmp_verify::Severity::Error)
                    .count();
                println!(
                    "{:<28} {:<16} {} error(s), {} finding(s)",
                    scenario.name,
                    l.domain,
                    errors,
                    l.report.diagnostics().len()
                );
                for d in l.report.diagnostics() {
                    println!("  [{}] {}: {}", d.severity, d.code, d.message);
                }
            }
            domains.push(Json::object([
                ("domain", Json::str(&l.domain)),
                ("report", l.report.to_json()),
            ]));
        }
        docs.push(envelope(
            &scenario.name,
            None,
            1,
            Json::object([("domains", Json::array(domains))]),
        ));
    }
    emit(&join(docs), json, out)?;
    Ok(clean)
}

struct BenchRow {
    name: String,
    cycles: u64,
    completed_bursts: u64,
    wall_ns: u128,
    passed: bool,
}

impl BenchRow {
    fn cycles_per_burst(&self) -> Option<f64> {
        (self.completed_bursts > 0).then(|| self.cycles as f64 / self.completed_bursts as f64)
    }
}

fn cmd_bench(
    files: &[PathBuf],
    opts: RunOptions,
    json: bool,
    out: Option<&Path>,
    baseline: Option<&Path>,
) -> Result<bool, String> {
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut rows = Vec::new();
    for path in files {
        let scenario = load(path)?;
        // One warmup, then the timed run — the cost metric (simulated
        // cycles per burst) is deterministic, only wall time varies.
        let _ = run(&scenario, &opts).map_err(|e| format!("{}: {e}", path.display()))?;
        let started = std::time::Instant::now();
        let outcome = run(&scenario, &opts).map_err(|e| format!("{}: {e}", path.display()))?;
        let wall_ns = started.elapsed().as_nanos();
        let row = BenchRow {
            name: outcome.scenario.clone(),
            cycles: outcome.report.cycles,
            completed_bursts: outcome
                .report
                .masters
                .iter()
                .map(|m| m.bursts_completed as u64)
                .sum(),
            wall_ns,
            passed: outcome.passed(),
        };
        let payload = Json::object([
            ("cycles", Json::u64(row.cycles)),
            ("completed_bursts", Json::u64(row.completed_bursts)),
            (
                "cycles_per_burst",
                Json::f64(row.cycles_per_burst().unwrap_or(0.0)),
            ),
            ("wall_ns", Json::u64(row.wall_ns as u64)),
            ("passed", Json::u64(row.passed as u64)),
        ]);
        let doc = envelope(&row.name, outcome.seed, outcome.threads, payload);
        if json {
            println!("{}", doc.pretty());
        } else {
            println!(
                "{:<28} {:>10} cycles  {:>8} bursts  {:>8.1} cyc/burst  {:>10} ns",
                row.name,
                row.cycles,
                row.completed_bursts,
                row.cycles_per_burst().unwrap_or(0.0),
                row.wall_ns,
            );
        }
        if let Some(dir) = out {
            let file = dir.join(format!("SCN_{}.json", row.name));
            std::fs::write(&file, format!("{}\n", doc.pretty()))
                .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        }
        rows.push(row);
    }
    let mut ok = rows.iter().all(|r| r.passed);
    if let Some(path) = baseline {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        for (n, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let name = parts.next().expect("non-empty line");
            let base: f64 = parts
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|b: &f64| b.is_finite() && *b > 0.0)
                .ok_or(format!(
                    "baseline line {}: expected `<scenario> <cycles_per_burst>`",
                    n + 1
                ))?;
            let Some(row) = rows.iter().find(|r| r.name == name) else {
                println!("baseline: {name} not run, skipping");
                continue;
            };
            match row.cycles_per_burst() {
                Some(got) if got > base * (1.0 + BASELINE_TOLERANCE) => {
                    eprintln!(
                        "baseline: {name} regressed — {got:.1} cyc/burst vs baseline {base:.1}"
                    );
                    ok = false;
                }
                Some(got) if got < base * (1.0 - BASELINE_TOLERANCE) => {
                    println!(
                        "baseline: {name} improved — {got:.1} cyc/burst vs {base:.1}; consider refreshing"
                    );
                }
                Some(_) => {}
                None => {
                    eprintln!("baseline: {name} completed no bursts");
                    ok = false;
                }
            }
        }
    }
    Ok(ok)
}

/// Default bounds of `siopmp-scenario prove` — scenario-lowered models
/// carry full-size configurations (8 SIDs, 32 entries), so the default
/// stays shallower than the `siopmp-prove` micro-model profiles while
/// still covering every mutator pair and most triples.
const PROVE_DEFAULT: Bounds = Bounds {
    max_depth: 4,
    max_states: 4_000,
};

fn prove_bound(
    args: &siopmp_scenario::cli::Args,
    flag: &str,
    default: usize,
) -> Result<usize, String> {
    match args.option(flag) {
        None => Ok(default),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("`{flag}` needs a count >= 1, got `{v}`")),
    }
}

fn cmd_prove(
    files: &[PathBuf],
    args: &siopmp_scenario::cli::Args,
    json: bool,
    out: Option<&Path>,
) -> Result<bool, String> {
    let bounds = Bounds {
        max_depth: prove_bound(args, "--max-depth", PROVE_DEFAULT.max_depth)?,
        max_states: prove_bound(args, "--max-states", PROVE_DEFAULT.max_states)?,
    };
    let mut docs = Vec::new();
    let mut clean = true;
    for path in files {
        let scenario = load(path)?;
        let models =
            siopmp_scenario::lower(&scenario).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut domains = Vec::new();
        for model in &models {
            let report = explore(model, bounds);
            let violations = report.violations_total();
            clean &= violations == 0;
            if !json {
                let verdict = if violations == 0 { "proved" } else { "FAIL" };
                println!(
                    "{:<28} {verdict}  states {:>7}  transitions {:>8}  depth {:>2}  violations {:>3}",
                    model.name, report.states, report.transitions, report.max_depth_reached, violations,
                );
                for example in report
                    .isolation_examples
                    .iter()
                    .chain(&report.soundness_examples)
                    .chain(&report.atomicity_examples)
                {
                    println!("  VIOLATION {example}");
                }
            }
            domains.push(report.to_json());
        }
        docs.push(envelope(
            &scenario.name,
            None,
            1,
            Json::object([
                ("bounds_max_depth", Json::u64(bounds.max_depth as u64)),
                ("bounds_max_states", Json::u64(bounds.max_states as u64)),
                ("domains", Json::array(domains)),
            ]),
        ));
    }
    emit(&join(docs), json, out)?;
    Ok(clean)
}

fn cmd_explore(
    files: &[PathBuf],
    threads: Option<usize>,
    json: bool,
    out: Option<&Path>,
) -> Result<bool, String> {
    use siopmp::explore::Sweep;
    use siopmp_scenario::{sweep_from_params, Explorer};
    // One explorer across all files: the simulated samples depend only on
    // pipeline depth, so sweeps share them.
    let mut explorer = Explorer::new(threads);
    let threads_reported = threads.unwrap_or(1);
    let mut jobs: Vec<(String, Sweep)> = Vec::new();
    if files.is_empty() {
        jobs.push(("explore-smoke".to_string(), Sweep::smoke()));
    }
    for path in files {
        let scenario = load(path)?;
        let Some(params) = &scenario.explore else {
            return Err(format!(
                "{}: no `explore` stanza — declare sweep ranges with \
                 `explore entries=... [cam_ways=...] [stages=...] [cache=...] [shards=...]`",
                path.display()
            ));
        };
        jobs.push((scenario.name.clone(), sweep_from_params(params)));
    }
    let mut docs = Vec::new();
    let mut ok = true;
    for (name, sweep) in &jobs {
        let outcome = explorer
            .evaluate(sweep)
            .map_err(|e| format!("{name}: {e}"))?;
        ok &= !outcome.frontier().is_empty();
        if !json {
            println!("{name}:");
            print!("{}", outcome.render_table());
        }
        docs.push(envelope(name, None, threads_reported, outcome.payload()));
    }
    emit(&join(docs), json, out)?;
    Ok(ok)
}

fn scan(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "scn"))
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path.clone());
        }
    }
    Ok(files)
}

fn cmd_list(paths: &[PathBuf], json: bool, render_mode: bool) -> Result<bool, String> {
    let files = scan(paths)?;
    if files.is_empty() {
        return Err("no .scn files found".to_string());
    }
    let mut items = Vec::new();
    for path in &files {
        let s = load(path)?;
        if render_mode {
            print!("{}", render(&s));
            continue;
        }
        if !json {
            println!(
                "{:<28} {:>2} domain(s) {:>3} master(s)  {}",
                s.name,
                s.domains.len(),
                s.domains.iter().map(|d| d.masters.len()).sum::<usize>(),
                s.description.as_deref().unwrap_or(""),
            );
        }
        items.push(Json::object([
            ("file", Json::str(path.display().to_string())),
            ("name", Json::str(&s.name)),
            (
                "description",
                s.description
                    .as_deref()
                    .map(Json::str)
                    .unwrap_or(Json::Null),
            ),
            ("domains", Json::u64(s.domains.len() as u64)),
            (
                "masters",
                Json::u64(s.domains.iter().map(|d| d.masters.len()).sum::<usize>() as u64),
            ),
        ]));
    }
    if json {
        println!("{}", envelope("list", None, 1, Json::array(items)).pretty());
    }
    Ok(true)
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
    for w in &parsed.warnings {
        eprintln!("{w}");
    }
    if parsed.help || command == "help" || command == "--help" || command == "-h" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let files: Vec<PathBuf> = parsed.positional.iter().map(PathBuf::from).collect();
    let opts = RunOptions {
        seed: parsed.seed,
        threads: parsed.threads,
    };
    let result = match command.as_str() {
        "run" | "lint" | "bench" | "prove" if files.is_empty() => {
            Err(format!("`{command}` needs at least one .scn file\n{USAGE}"))
        }
        "run" => cmd_run(&files, opts, parsed.json, parsed.out.as_deref()),
        "lint" => cmd_lint(&files, parsed.json, parsed.out.as_deref()),
        "prove" => cmd_prove(&files, &parsed, parsed.json, parsed.out.as_deref()),
        "bench" => cmd_bench(
            &files,
            opts,
            parsed.json,
            parsed.out.as_deref(),
            parsed.baseline.as_deref(),
        ),
        "explore" => cmd_explore(&files, parsed.threads, parsed.json, parsed.out.as_deref()),
        "list" => {
            let paths = if files.is_empty() {
                vec![PathBuf::from("corpus")]
            } else {
                files
            };
            cmd_list(&paths, parsed.json, parsed.has("--render"))
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
