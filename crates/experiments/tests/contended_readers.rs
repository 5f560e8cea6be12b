//! Wait-free shared-checker reads under contention: readers replay a
//! request stream through `SharedSiopmp` handles while the owning thread
//! flaps an entry, forcing snapshot republication.
//!
//! The sweep over 1 to 16 readers runs in every test pass. The
//! `#[ignore]`d wall-clock guard bounds the single-reader arm, the read
//! path's fixed cost per check; run it in release with
//! `cargo test --release -p siopmp-experiments --test contended_readers
//! -- --ignored`. Multi-reader throughput depends on the host's core
//! count and is not guarded.

use siopmp_experiments::contention::ContentionWorkload;
use siopmp_testkit::median_wall_ns;
use std::hint::black_box;

const ENTRIES: usize = 16;
const REQUESTS: usize = 8_000;
const MUTATIONS: usize = 16;

/// Wall-clock bound of the single-reader arm, in ns per check: 170 plus
/// 15%.
const SINGLE_READER_NS_PER_CHECK_BOUND: f64 = 170.0 * 1.15;

#[test]
fn contended_readers_sweeps_reader_counts() {
    for readers in [1, 2, 4, 8, 16] {
        let mut workload = ContentionWorkload::new(ENTRIES, REQUESTS, None);
        let tally = workload.run(readers, MUTATIONS);
        assert_eq!(tally.checks, (readers * REQUESTS) as u64, "no check lost");
        assert_eq!(
            tally.allowed + tally.denied,
            tally.checks,
            "{readers} readers: every check resolved without stalls or torn routes"
        );
        assert!(
            tally.publishes > MUTATIONS as u64,
            "{readers} readers: each flap plus the restore publishes: {}",
            tally.publishes
        );
    }
}

#[test]
#[ignore = "wall clock; run in release with --ignored"]
fn single_reader_check_stays_under_its_wall_clock_bound() {
    let mut workload = ContentionWorkload::new(ENTRIES, REQUESTS, None);
    let ns = median_wall_ns(|| {
        black_box(workload.run(1, MUTATIONS));
    }) as f64
        / REQUESTS as f64;
    println!("single shared reader under a flapping owner: {ns:.1} ns/check");
    assert!(
        ns <= SINGLE_READER_NS_PER_CHECK_BOUND,
        "{ns:.1} ns/check exceeds {SINGLE_READER_NS_PER_CHECK_BOUND:.1}"
    );
}
