//! The "dummy node for memory copy" DMA device (Table 2) with
//! scatter-gather descriptor support.

use siopmp::telemetry::{Counter, Telemetry};
use siopmp_bus::{BurstKind, MasterProgram};

/// Pre-resolved handles for the `dma.*` metrics.
#[derive(Debug, Clone)]
struct DmaCounters {
    copy_programs: Counter,
    segments: Counter,
    bursts_emitted: Counter,
    bytes_copied: Counter,
    resets: Counter,
}

impl DmaCounters {
    fn attach(t: &Telemetry) -> Self {
        DmaCounters {
            copy_programs: t.counter("dma.copy_programs"),
            segments: t.counter("dma.segments"),
            bursts_emitted: t.counter("dma.bursts_emitted"),
            bytes_copied: t.counter("dma.bytes_copied"),
            resets: t.counter("dma.resets"),
        }
    }
}

/// One scatter-gather segment: a contiguous byte range to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgSegment {
    /// Source address.
    pub src: u64,
    /// Destination address.
    pub dst: u64,
    /// Bytes to copy.
    pub len: u64,
}

/// A DMA copy engine: reads a scatter-gather list of source buffers and
/// writes them to destinations, in bursts.
///
/// Modern DMA controllers support 512–1024 scatter buffers (§1), which is
/// exactly why sIOPMP needs >1000 IOPMP entries: each live segment wants
/// its own byte-granular protection region.
///
/// # Examples
///
/// ```
/// use siopmp_devices::dma_node::{DmaCopyEngine, SgSegment};
/// let eng = DmaCopyEngine::build(3, 64, None);
/// let prog = eng.copy_program(&[SgSegment { src: 0x1000, dst: 0x8000, len: 128 }]);
/// // 2 read bursts + 2 write bursts for 128 bytes at 64 B/burst.
/// assert_eq!(prog.bursts.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DmaCopyEngine {
    device_id: u64,
    burst_bytes: u64,
    telemetry: Telemetry,
    counters: DmaCounters,
}

impl DmaCopyEngine {
    /// Creates an engine with packet-level `device_id`, moving
    /// `burst_bytes` per burst.
    ///
    /// # Panics
    ///
    /// Panics when `burst_bytes` is zero.
    pub fn build(
        device_id: u64,
        burst_bytes: u64,
        telemetry: impl Into<Option<Telemetry>>,
    ) -> Self {
        let telemetry = telemetry.into().unwrap_or_else(Telemetry::new);
        assert!(burst_bytes > 0, "burst size must be nonzero");
        DmaCopyEngine {
            device_id,
            burst_bytes,
            counters: DmaCounters::attach(&telemetry),
            telemetry,
        }
    }

    /// The engine's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine's device ID.
    pub fn device_id(&self) -> u64 {
        self.device_id
    }

    /// Builds the burst program for copying `segments`: for each segment,
    /// alternating read (source) and write (destination) bursts.
    pub fn copy_program(&self, segments: &[SgSegment]) -> MasterProgram {
        let mut program = MasterProgram::uniform(self.device_id, BurstKind::Read, 0, 0);
        for seg in segments {
            let bursts = seg.len.div_ceil(self.burst_bytes);
            for b in 0..bursts {
                let off = b * self.burst_bytes;
                program.bursts.push(siopmp_bus::BurstRequest {
                    device: siopmp::ids::DeviceId(self.device_id),
                    kind: BurstKind::Read,
                    addr: seg.src + off,
                });
                program.bursts.push(siopmp_bus::BurstRequest {
                    device: siopmp::ids::DeviceId(self.device_id),
                    kind: BurstKind::Write,
                    addr: seg.dst + off,
                });
            }
        }
        self.counters.copy_programs.inc();
        self.counters.segments.add(segments.len() as u64);
        self.counters
            .bursts_emitted
            .add(program.bursts.len() as u64);
        program
    }

    /// Records a device reset: bumps the `dma.resets` counter. The engine
    /// is stateless at the bus level — recovery is expressed by re-issuing
    /// the tail of the copy with [`DmaCopyEngine::resume_program`].
    pub fn reset(&self) {
        self.counters.resets.inc();
    }

    /// Post-reset replay of an interrupted `copy_program(segments)`: skips
    /// the first `completed_pairs` read/write burst pairs (chunks whose
    /// destination write already landed before the reset) and re-issues the
    /// rest. Because each chunk is copied by an idempotent read/write pair,
    /// resuming at the first unconfirmed pair is always safe — at worst a
    /// chunk whose write raced the reset is copied twice.
    pub fn resume_program(&self, segments: &[SgSegment], completed_pairs: usize) -> MasterProgram {
        let mut program = MasterProgram::uniform(self.device_id, BurstKind::Read, 0, 0);
        let mut pair = 0usize;
        for seg in segments {
            let bursts = seg.len.div_ceil(self.burst_bytes);
            for b in 0..bursts {
                if pair >= completed_pairs {
                    let off = b * self.burst_bytes;
                    program.bursts.push(siopmp_bus::BurstRequest {
                        device: siopmp::ids::DeviceId(self.device_id),
                        kind: BurstKind::Read,
                        addr: seg.src + off,
                    });
                    program.bursts.push(siopmp_bus::BurstRequest {
                        device: siopmp::ids::DeviceId(self.device_id),
                        kind: BurstKind::Write,
                        addr: seg.dst + off,
                    });
                }
                pair += 1;
            }
        }
        self.counters.copy_programs.inc();
        self.counters
            .bursts_emitted
            .add(program.bursts.len() as u64);
        program
    }

    /// The memory regions a copy needs, as `(base, len, writable)` triples —
    /// used by the monitor to install IOPMP entries before starting the
    /// engine.
    pub fn required_regions(&self, segments: &[SgSegment]) -> Vec<(u64, u64, bool)> {
        let mut regions = Vec::with_capacity(segments.len() * 2);
        for seg in segments {
            regions.push((seg.src, seg.len, false));
            regions.push((seg.dst, seg.len, true));
        }
        regions
    }

    /// Performs the copy functionally against a [`crate::SparseMemory`]
    /// (the data movement the burst program represents).
    pub fn execute(&self, mem: &mut crate::SparseMemory, segments: &[SgSegment]) {
        for seg in segments {
            let data = mem.read_vec(seg.src, seg.len as usize);
            mem.write(seg.dst, &data);
            self.counters.bytes_copied.add(seg.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseMemory;

    #[test]
    fn program_covers_whole_segment() {
        let eng = DmaCopyEngine::build(1, 64, None);
        let prog = eng.copy_program(&[SgSegment {
            src: 0,
            dst: 0x1000,
            len: 200,
        }]);
        // ceil(200/64) = 4 bursts each way.
        assert_eq!(prog.bursts.len(), 8);
        let reads = prog
            .bursts
            .iter()
            .filter(|b| b.kind == BurstKind::Read)
            .count();
        assert_eq!(reads, 4);
    }

    #[test]
    fn regions_mark_destination_writable() {
        let eng = DmaCopyEngine::build(1, 64, None);
        let regions = eng.required_regions(&[SgSegment {
            src: 0x100,
            dst: 0x200,
            len: 32,
        }]);
        assert_eq!(regions, vec![(0x100, 32, false), (0x200, 32, true)]);
    }

    #[test]
    fn execute_moves_bytes() {
        let eng = DmaCopyEngine::build(1, 64, None);
        let mut mem = SparseMemory::new();
        mem.write(0x100, b"hello dma world!");
        eng.execute(
            &mut mem,
            &[SgSegment {
                src: 0x100,
                dst: 0x900,
                len: 16,
            }],
        );
        assert_eq!(mem.read_vec(0x900, 16), b"hello dma world!".to_vec());
    }

    #[test]
    fn scatter_gather_handles_many_segments() {
        let eng = DmaCopyEngine::build(1, 64, None);
        let segments: Vec<SgSegment> = (0..512)
            .map(|i| SgSegment {
                src: i * 0x100,
                dst: 0x100_0000 + i * 0x100,
                len: 64,
            })
            .collect();
        let prog = eng.copy_program(&segments);
        assert_eq!(prog.bursts.len(), 1024);
        assert_eq!(eng.required_regions(&segments).len(), 1024);
    }

    #[test]
    fn telemetry_counts_segments_and_bytes() {
        let t = Telemetry::new();
        let eng = DmaCopyEngine::build(1, 64, t.clone());
        let segs = [SgSegment {
            src: 0x100,
            dst: 0x900,
            len: 128,
        }];
        let _ = eng.copy_program(&segs);
        let mut mem = SparseMemory::new();
        eng.execute(&mut mem, &segs);
        let snap = t.snapshot();
        assert_eq!(snap.counters["dma.copy_programs"], 1);
        assert_eq!(snap.counters["dma.segments"], 1);
        assert_eq!(snap.counters["dma.bursts_emitted"], 4);
        assert_eq!(snap.counters["dma.bytes_copied"], 128);
    }

    #[test]
    #[should_panic(expected = "burst size")]
    fn zero_burst_size_rejected() {
        let _ = DmaCopyEngine::build(1, 0, None);
    }

    #[test]
    fn resume_skips_completed_pairs_only() {
        let t = Telemetry::new();
        let eng = DmaCopyEngine::build(1, 64, t.clone());
        let segs = [
            SgSegment {
                src: 0,
                dst: 0x1000,
                len: 128, // 2 pairs
            },
            SgSegment {
                src: 0x500,
                dst: 0x2000,
                len: 64, // 1 pair
            },
        ];
        let full = eng.copy_program(&segs);
        eng.reset();
        // 2 pairs confirmed before the reset: the replay crosses the
        // segment boundary and re-issues only the last pair.
        let replay = eng.resume_program(&segs, 2);
        assert_eq!(replay.bursts, full.bursts[4..].to_vec());
        // Resuming past the end yields an empty replay; zero resumes all.
        assert!(eng.resume_program(&segs, 10).bursts.is_empty());
        assert_eq!(eng.resume_program(&segs, 0).bursts, full.bursts);
        assert_eq!(t.snapshot().counters["dma.resets"], 1);
    }
}
