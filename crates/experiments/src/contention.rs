//! Contended-readers workload: wait-free `SharedSiopmp` checks racing a
//! mutating owner.
//!
//! This module is the setup half of the `contended_readers` test suite
//! (it is not a paper artifact, so it does not appear in [`crate::ALL`]):
//! it builds a checker with page-aligned entries, each access inside one
//! entry and so answered by the interval index, a deterministic
//! per-reader request stream mixing
//! allowed and denied pages, and a `run` loop that pits N reader threads —
//! each holding a [`siopmp::SharedSiopmp`] handle — against the owning
//! `&mut Siopmp`, which flaps an entry to force snapshot republication
//! while the readers are in flight.
//!
//! Verdicts for the flapped page are timing-dependent (a reader may see
//! the pre- or post-publish snapshot), so [`ContentionTally`] reports
//! aggregate invariants rather than a fixed verdict vector: every check
//! resolves to exactly `Allowed` or `Denied` (no stalls, no torn
//! configurations), and the publish generation advances at least once per
//! writer mutation.

use std::thread;

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, EntryIndex, MdIndex};
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::telemetry::Telemetry;
use siopmp::{CheckOutcome, Siopmp, SiopmpConfig};

/// 4 KiB pages.
const PAGE: u64 = 4096;

/// Base guest-physical address of the entry window.
const BASE: u64 = 0x10_0000;

/// A configured checker plus the deterministic request stream the reader
/// threads replay.
#[derive(Debug)]
pub struct ContentionWorkload {
    unit: Siopmp,
    flap: EntryIndex,
    flap_entry: IopmpEntry,
    requests: Vec<DmaRequest>,
}

/// Aggregate outcome counts from one contended run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContentionTally {
    /// Total checks issued across all reader threads.
    pub checks: u64,
    /// Checks that resolved to [`CheckOutcome::Allowed`].
    pub allowed: u64,
    /// Checks that resolved to a deny outcome.
    pub denied: u64,
    /// Snapshot publications observed (`generation` delta across the run).
    pub publishes: u64,
}

impl ContentionWorkload {
    /// Builds a checker with `entries` page-sized windows for one hot
    /// device and a request stream of `requests_per_reader` beats.
    ///
    /// Entry 0 is the *flap* entry: the writer repeatedly removes and
    /// reinstalls it during [`run`](Self::run). The stream probes every
    /// page round-robin plus one page past the window (a stable deny), so
    /// both verdict classes appear even when the writer is idle.
    pub fn new(entries: usize, requests_per_reader: usize, telemetry: Option<Telemetry>) -> Self {
        assert!(entries >= 2, "need a flap entry plus a stable entry");
        let mut config = SiopmpConfig::small();
        // The entry table partitions evenly across memory domains, so size
        // it so MD0's share covers the workload's windows.
        config.num_entries = config.num_entries.max((entries + 2) * config.num_mds);
        let mut unit = Siopmp::build(config, telemetry);
        let device = DeviceId(1);
        let sid = unit.map_hot_device(device).expect("fresh unit");
        unit.associate_sid_with_md(sid, MdIndex(0)).expect("md 0");
        let mut flap = None;
        let mut flap_entry = None;
        for i in 0..entries {
            let entry = IopmpEntry::new(
                AddressRange::new(BASE + i as u64 * PAGE, PAGE).unwrap(),
                Permissions::rw(),
            );
            let index = unit.install_entry(MdIndex(0), entry).expect("slots sized");
            if i == 0 {
                flap = Some(index);
                flap_entry = Some(entry);
            }
        }
        // Probe every mapped page plus one page past the window, which no
        // entry covers — a deterministic deny arm.
        let requests = (0..requests_per_reader)
            .map(|i| {
                let page = (i % (entries + 1)) as u64;
                let offset = (i as u64 * 64) % PAGE;
                DmaRequest::new(device, AccessKind::Read, BASE + page * PAGE + offset, 8)
            })
            .collect();
        Self {
            unit,
            flap: flap.unwrap(),
            flap_entry: flap_entry.unwrap(),
            requests,
        }
    }

    /// The owning checker (e.g. for stats inspection between runs).
    pub fn unit(&self) -> &Siopmp {
        &self.unit
    }

    /// Runs `readers` threads, each replaying the request stream through
    /// its own [`siopmp::SharedSiopmp`] handle, while this thread (the
    /// owner) flaps entry 0 `writer_mutations` times. The flap entry is
    /// restored before returning, so successive runs start from the same
    /// configuration.
    ///
    /// Panics if any reader observes an outcome other than
    /// `Allowed`/`Denied*` — a stall or routing miss would mean a torn
    /// snapshot leaked through the publish protocol.
    pub fn run(&mut self, readers: usize, writer_mutations: usize) -> ContentionTally {
        let shared = self.unit.share();
        let generation_before = shared.generation();
        let mut tally = ContentionTally::default();
        let reader_tallies: Vec<(u64, u64)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    let checker = shared.clone();
                    let requests = &self.requests;
                    scope.spawn(move || {
                        let (mut allowed, mut denied) = (0u64, 0u64);
                        for req in requests {
                            match checker.check(req) {
                                CheckOutcome::Allowed { .. } => allowed += 1,
                                CheckOutcome::Denied(_) => denied += 1,
                                other => panic!("torn snapshot leaked: {other:?}"),
                            }
                        }
                        (allowed, denied)
                    })
                })
                .collect();
            for i in 0..writer_mutations {
                let replacement = if i % 2 == 0 {
                    None
                } else {
                    Some(self.flap_entry)
                };
                self.unit
                    .set_entry(self.flap, replacement)
                    .expect("flap slot");
                thread::yield_now();
            }
            // Leave the flap entry installed so the next run is identical.
            self.unit
                .set_entry(self.flap, Some(self.flap_entry))
                .expect("flap slot");
            handles
                .into_iter()
                .map(|h| h.join().expect("reader"))
                .collect()
        });
        for (allowed, denied) in reader_tallies {
            tally.allowed += allowed;
            tally.denied += denied;
            tally.checks += allowed + denied;
        }
        tally.publishes = shared.generation() - generation_before;
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_run_is_deterministic() {
        let mut w = ContentionWorkload::new(8, 900, None);
        let tally = w.run(4, 0);
        assert_eq!(tally.checks, 4 * 900);
        // 8 allowed pages + 1 deny page, round-robin: 9th of each cycle denies.
        assert_eq!(tally.denied, 4 * 100);
        assert_eq!(tally.allowed, tally.checks - tally.denied);
        assert_eq!(tally.publishes, 1, "only the restore publish fires");
    }

    #[test]
    fn contended_run_publishes_and_never_tears() {
        let mut w = ContentionWorkload::new(8, 2_000, None);
        let tally = w.run(4, 50);
        assert_eq!(tally.checks, 4 * 2_000);
        assert_eq!(tally.allowed + tally.denied, tally.checks);
        assert!(
            tally.publishes >= 51,
            "each flap plus the restore publishes: {}",
            tally.publishes
        );
        // The deny page misses regardless of flap state; the flap page may
        // land either way, so denies sit between the stable floor and the
        // floor plus every flap-page probe.
        let floor = 4 * 2_000 / 9;
        assert!(tally.denied >= floor as u64, "stable deny arm held");
    }

    #[test]
    fn successive_runs_start_from_identical_config() {
        let mut w = ContentionWorkload::new(4, 500, None);
        let first = w.run(2, 25);
        let quiet_a = w.run(2, 0);
        let quiet_b = w.run(2, 0);
        assert_eq!(quiet_a.allowed, quiet_b.allowed);
        assert_eq!(quiet_a.denied, quiet_b.denied);
        assert!(first.checks == quiet_a.checks);
    }
}
