//! The `DmaProtection` trait and the IOMMU strict/deferred policies.
//!
//! Every I/O-protection mechanism the paper evaluates is expressed as a
//! [`DmaProtection`] implementation: the network workload model calls
//! `map_cycles`/`unmap_cycles` once per packet buffer and adds the returned
//! CPU cycles to the per-packet budget, from which throughput curves follow
//! (Figure 15). The trait also exposes the *attack window* each mechanism
//! leaves open, reproducing the security column of Table 1.

use crate::cmdq::{CommandQueue, InvCommand};
use crate::iotlb::Iotlb;
use crate::iova::{IovaAllocator, IO_PAGE_SIZE};
use crate::pagetable::{IoPageTable, IoPerms};
use siopmp::telemetry::{Counter, Histogram, Telemetry};
use std::collections::HashMap;

/// Pre-resolved handles for the `iommu.*` metrics.
#[derive(Debug, Clone)]
struct IommuCounters {
    maps: Counter,
    unmaps: Counter,
    flushes: Counter,
    map_cycles: Histogram,
    unmap_cycles: Histogram,
}

impl IommuCounters {
    fn attach(t: &Telemetry) -> Self {
        IommuCounters {
            maps: t.counter("iommu.maps"),
            unmaps: t.counter("iommu.unmaps"),
            flushes: t.counter("iommu.flushes"),
            map_cycles: t.histogram("iommu.map_cycles"),
            unmap_cycles: t.histogram("iommu.unmap_cycles"),
        }
    }
}

/// Token returned by a map operation, needed for the matching unmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapHandle {
    /// Device the buffer was mapped for.
    pub device: u64,
    /// IOVA (or PA for region-based mechanisms) of the mapping.
    pub iova: u64,
    /// Mapped length in bytes.
    pub len: u64,
}

/// A DMA protection mechanism with per-operation CPU-cycle accounting.
pub trait DmaProtection {
    /// Short legend name ("IOMMU-strict", "sIOPMP", ...).
    fn name(&self) -> &'static str;

    /// Maps `len` bytes of physical buffer `pa` for `device`; returns the
    /// handle and the CPU cycles consumed.
    fn map(&mut self, device: u64, pa: u64, len: u64) -> (MapHandle, u64);

    /// Unmaps a previously mapped buffer; returns the CPU cycles consumed
    /// (including any synchronous invalidation).
    fn unmap(&mut self, handle: MapHandle) -> u64;

    /// Extra per-packet data-path cycles (bounce-buffer copies etc.);
    /// `bytes` is the packet payload size.
    fn data_path_cycles(&self, bytes: u64) -> u64 {
        let _ = bytes;
        0
    }

    /// Pages currently unmapped by software but still reachable by the
    /// device (stale IOTLB entries) — the attack window. Zero for safe
    /// mechanisms.
    fn attack_window_pages(&self) -> u64 {
        0
    }

    /// Whether the mechanism can express sub-page (byte-granular) regions.
    fn sub_page_granularity(&self) -> bool;
}

/// The "no protection" baseline: DMA goes straight through.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProtection;

impl DmaProtection for NoProtection {
    fn name(&self) -> &'static str {
        "native"
    }

    fn map(&mut self, device: u64, pa: u64, len: u64) -> (MapHandle, u64) {
        (
            MapHandle {
                device,
                iova: pa,
                len,
            },
            0,
        )
    }

    fn unmap(&mut self, _handle: MapHandle) -> u64 {
        0
    }

    fn sub_page_granularity(&self) -> bool {
        true // nothing is checked, so nothing is rounded either
    }
}

/// IOTLB invalidation policy on unmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationPolicy {
    /// Post + sync the invalidation on every unmap (safe, slow).
    Strict,
    /// Batch invalidations; flush when `batch` are pending (fast, leaves
    /// an attack window).
    Deferred {
        /// Flush threshold.
        batch: usize,
    },
}

/// A full IOMMU: IOVA allocator + page table per device, shared IOTLB and
/// invalidation command queue.
#[derive(Debug)]
pub struct Iommu {
    policy: InvalidationPolicy,
    iova: IovaAllocator,
    tables: HashMap<u64, IoPageTable>,
    iotlb: Iotlb,
    cmdq: CommandQueue,
    /// (device, iova) pairs unmapped in software whose IOTLB entries may
    /// still be live — cleared at the next sync.
    stale: Vec<(u64, u64)>,
    telemetry: Telemetry,
    counters: IommuCounters,
}

impl Iommu {
    /// Creates an IOMMU with the given invalidation policy, a 64-entry
    /// IOTLB, and a 1 GiB shared IOVA arena, registering its `iommu.*`
    /// metrics (map/unmap counters, cycle histograms) in `telemetry` —
    /// pass `None` for a private registry.
    pub fn build(policy: InvalidationPolicy, telemetry: impl Into<Option<Telemetry>>) -> Self {
        let telemetry = telemetry.into().unwrap_or_else(Telemetry::new);
        Iommu {
            policy,
            iova: IovaAllocator::new(0x4000_0000, 0x4000_0000),
            tables: HashMap::new(),
            iotlb: Iotlb::new(64),
            cmdq: CommandQueue::new(),
            stale: Vec::new(),
            counters: IommuCounters::attach(&telemetry),
            telemetry,
        }
    }

    /// The IOMMU's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Simulates a device-side translation of `(device, iova)` — used by
    /// tests to demonstrate the deferred-policy attack window. Returns the
    /// translated PA if the IOTLB (or page table) still resolves it.
    pub fn device_translate(&mut self, device: u64, iova: u64) -> Option<u64> {
        if let Some(pte) = self.iotlb.lookup(device, iova) {
            return Some(pte.pa + (iova & (IO_PAGE_SIZE - 1)));
        }
        let table = self.tables.get(&device)?;
        let (pte, _) = table.translate(iova).ok()?;
        self.iotlb.fill(device, iova, pte);
        Some(pte.pa + (iova & (IO_PAGE_SIZE - 1)))
    }

    /// IOTLB statistics (for experiments).
    pub fn iotlb_stats(&self) -> crate::iotlb::IotlbStats {
        self.iotlb.stats()
    }

    fn flush_stale(&mut self) -> u64 {
        self.counters.flushes.inc();
        let (cycles, _) = self.cmdq.sync_and_take();
        for (device, iova) in self.stale.drain(..) {
            self.iotlb.invalidate_page(device, iova);
        }
        cycles
    }
}

impl DmaProtection for Iommu {
    fn name(&self) -> &'static str {
        match self.policy {
            InvalidationPolicy::Strict => "IOMMU-strict",
            InvalidationPolicy::Deferred { .. } => "IOMMU-deferred",
        }
    }

    fn map(&mut self, device: u64, pa: u64, len: u64) -> (MapHandle, u64) {
        let (iova, alloc_cycles) = self
            .iova
            .alloc(len)
            .expect("IOVA arena exhausted — enlarge the arena for this workload");
        let table = self.tables.entry(device).or_default();
        let mut cycles = alloc_cycles;
        let pages = len.div_ceil(IO_PAGE_SIZE);
        for p in 0..pages {
            cycles += table
                .map(
                    iova + p * IO_PAGE_SIZE,
                    (pa & !(IO_PAGE_SIZE - 1)) + p * IO_PAGE_SIZE,
                    IoPerms::rw(),
                )
                .expect("fresh IOVA cannot be already mapped");
        }
        self.counters.maps.inc();
        self.counters.map_cycles.record(cycles);
        (MapHandle { device, iova, len }, cycles)
    }

    fn unmap(&mut self, handle: MapHandle) -> u64 {
        let table = self
            .tables
            .get_mut(&handle.device)
            .expect("unmap of never-mapped device");
        let mut cycles = 0;
        let pages = handle.len.div_ceil(IO_PAGE_SIZE);
        for p in 0..pages {
            let iova = handle.iova + p * IO_PAGE_SIZE;
            cycles += table.unmap(iova).expect("unmap of live handle");
            self.stale.push((handle.device, iova));
        }
        match self.policy {
            InvalidationPolicy::Strict => {
                // Post one invalidation command per page and spin on the
                // sync descriptor until the hardware drains them.
                for p in 0..pages {
                    let iova = handle.iova + p * IO_PAGE_SIZE;
                    cycles += self.cmdq.post(InvCommand::Page {
                        device: handle.device,
                        iova,
                    });
                }
                cycles += self.flush_stale();
            }
            InvalidationPolicy::Deferred { batch } => {
                // Per-page commands are skipped entirely; once the batch
                // threshold is reached a single global invalidation flushes
                // everything — this is the amortisation (and the attack
                // window) of the deferred mode.
                if self.stale.len() >= batch {
                    cycles += self.cmdq.post(InvCommand::Global);
                    cycles += self.flush_stale();
                }
            }
        }
        self.iova
            .free(handle.iova, handle.len)
            .expect("double unmap of handle");
        self.counters.unmaps.inc();
        self.counters.unmap_cycles.record(cycles);
        cycles
    }

    fn attack_window_pages(&self) -> u64 {
        self.stale.len() as u64
    }

    fn sub_page_granularity(&self) -> bool {
        false // page tables round everything to 4 KiB
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_protection_is_free_and_identity() {
        let mut p = NoProtection;
        let (h, cycles) = p.map(1, 0x9000, 100);
        assert_eq!(cycles, 0);
        assert_eq!(h.iova, 0x9000);
        assert_eq!(p.unmap(h), 0);
    }

    #[test]
    fn strict_unmap_is_expensive_and_safe() {
        let mut iommu = Iommu::build(InvalidationPolicy::Strict, None);
        let (h, map_cycles) = iommu.map(1, 0x10_0000, IO_PAGE_SIZE);
        assert!(map_cycles > 0);
        // Device can use the mapping.
        assert!(iommu.device_translate(1, h.iova).is_some());
        let unmap_cycles = iommu.unmap(h);
        // Strict pays the synchronous command-queue drain.
        assert!(
            unmap_cycles > crate::cmdq::CMD_SERVICE_CYCLES,
            "{unmap_cycles}"
        );
        // No attack window remains.
        assert_eq!(iommu.attack_window_pages(), 0);
        assert!(iommu.device_translate(1, h.iova).is_none());
    }

    #[test]
    fn deferred_unmap_is_cheap_but_leaves_window() {
        let mut iommu = Iommu::build(InvalidationPolicy::Deferred { batch: 32 }, None);
        let (h, _) = iommu.map(1, 0x10_0000, IO_PAGE_SIZE);
        // Touch the translation so it is resident in the IOTLB.
        assert!(iommu.device_translate(1, h.iova).is_some());
        let unmap_cycles = iommu.unmap(h);
        assert!(
            unmap_cycles < crate::cmdq::CMD_SERVICE_CYCLES,
            "{unmap_cycles}"
        );
        // ATTACK WINDOW: the device can still translate through the stale
        // IOTLB entry even though software unmapped the buffer.
        assert!(iommu.attack_window_pages() > 0);
        assert!(iommu.device_translate(1, h.iova).is_some());
    }

    #[test]
    fn deferred_window_closes_at_batch_flush() {
        let batch = 4;
        let mut iommu = Iommu::build(InvalidationPolicy::Deferred { batch }, None);
        let mut handles = Vec::new();
        for i in 0..batch as u64 {
            let (h, _) = iommu.map(1, 0x10_0000 + i * IO_PAGE_SIZE, IO_PAGE_SIZE);
            iommu.device_translate(1, h.iova);
            handles.push(h);
        }
        for (i, h) in handles.iter().enumerate() {
            iommu.unmap(*h);
            if i + 1 < batch {
                assert!(iommu.attack_window_pages() > 0);
            }
        }
        // The flush at the batch boundary closed the window.
        assert_eq!(iommu.attack_window_pages(), 0);
        for h in &handles {
            assert!(iommu.device_translate(1, h.iova).is_none());
        }
    }

    #[test]
    fn strict_costs_more_than_deferred_per_packet() {
        let mut strict = Iommu::build(InvalidationPolicy::Strict, None);
        let mut deferred = Iommu::build(InvalidationPolicy::Deferred { batch: 256 }, None);
        let run = |iommu: &mut Iommu| -> u64 {
            let mut total = 0;
            for i in 0..256u64 {
                let (h, c) = iommu.map(1, 0x10_0000 + i * IO_PAGE_SIZE, 1500);
                total += c;
                total += iommu.unmap(h);
            }
            total
        };
        let strict_cost = run(&mut strict);
        let deferred_cost = run(&mut deferred);
        assert!(
            strict_cost > 3 * deferred_cost,
            "strict {strict_cost} vs deferred {deferred_cost}"
        );
    }

    #[test]
    fn iova_space_is_recycled() {
        let mut iommu = Iommu::build(InvalidationPolicy::Strict, None);
        // Far more map/unmap cycles than the arena could hold at once.
        for i in 0..100_000u64 {
            let (h, _) = iommu.map(1, 0x10_0000 + (i % 16) * IO_PAGE_SIZE, 1500);
            iommu.unmap(h);
        }
    }

    #[test]
    fn telemetry_counts_map_unmap_pairs() {
        let t = Telemetry::new();
        let mut iommu = Iommu::build(InvalidationPolicy::Strict, t.clone());
        for i in 0..5u64 {
            let (h, _) = iommu.map(1, 0x10_0000 + i * IO_PAGE_SIZE, 1500);
            iommu.unmap(h);
        }
        let snap = t.snapshot();
        assert_eq!(snap.counters["iommu.maps"], 5);
        assert_eq!(snap.counters["iommu.unmaps"], 5);
        assert_eq!(snap.histograms["iommu.unmap_cycles"].count, 5);
        assert!(
            snap.counters["iommu.flushes"] >= 5,
            "strict flushes per unmap"
        );
    }

    #[test]
    fn page_granularity_reported() {
        assert!(!Iommu::build(InvalidationPolicy::Strict, None).sub_page_granularity());
        assert!(NoProtection.sub_page_granularity());
    }
}
