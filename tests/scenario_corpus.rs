//! Golden-corpus gate: every `.scn` file committed under `corpus/` must
//! parse, survive the canonical round-trip, lint without a compile
//! error, pass its own `expect` lines, and produce a byte-identical
//! report at 1 and 4 worker threads. Adding a scenario to the corpus is
//! all it takes to put it under this gate.

use std::fs;
use std::path::PathBuf;

use siopmp_scenario::{lint, parse, render, run, RunOptions};

fn corpus_paths() -> Vec<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"));
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("corpus/ directory exists")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 20,
        "the corpus promises at least 20 scenarios, found {}",
        files.len()
    );
    files
}

fn load(path: &PathBuf) -> siopmp_scenario::Scenario {
    let text = fs::read_to_string(path).expect("readable scenario file");
    parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_corpus_file_round_trips_through_the_canonical_form() {
    for path in corpus_paths() {
        let s = load(&path);
        let canon = render(&s);
        let back = parse(&canon).unwrap_or_else(|e| {
            panic!("{}: canonical form failed to re-parse: {e}", path.display())
        });
        assert_eq!(back, s, "{}: parse(render(s)) != s", path.display());
    }
}

#[test]
fn every_corpus_file_lints_without_compile_errors() {
    for path in corpus_paths() {
        let s = load(&path);
        let lints =
            lint(&s).unwrap_or_else(|e| panic!("{}: lint failed to compile: {e}", path.display()));
        assert_eq!(
            lints.len(),
            s.domains.len(),
            "{}: one lint report per domain",
            path.display()
        );
    }
}

#[test]
fn every_corpus_file_passes_its_own_expectations() {
    for path in corpus_paths() {
        let s = load(&path);
        let outcome = run(&s, &RunOptions::default())
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", path.display()));
        assert!(
            outcome.passed(),
            "{}: expectations failed:\n  {}",
            path.display(),
            outcome.failures.join("\n  ")
        );
    }
}

#[test]
fn every_corpus_file_is_thread_count_invariant() {
    for path in corpus_paths() {
        let s = load(&path);
        let opts = |threads| RunOptions {
            threads: Some(threads),
            ..RunOptions::default()
        };
        let serial =
            run(&s, &opts(1)).unwrap_or_else(|e| panic!("{}: run failed: {e}", path.display()));
        let sharded =
            run(&s, &opts(4)).unwrap_or_else(|e| panic!("{}: run failed: {e}", path.display()));
        assert_eq!(
            serial.report.to_json().pretty(),
            sharded.report.to_json().pretty(),
            "{}: report differs between threads=1 and threads=4",
            path.display()
        );
        assert_eq!(
            (serial.cross_domain, serial.unrouted),
            (sharded.cross_domain, sharded.unrouted),
            "{}: routing counters differ between threads=1 and threads=4",
            path.display()
        );
    }
}
