//! An IceNet-flavoured NIC model: RX/TX descriptor rings plus burst-level
//! packet traffic.
//!
//! The NIC is the paper's primary I/O-intensive device (100 Gb/s, Table 2).
//! Each received packet costs the device: one descriptor fetch (read), one
//! payload write into the RX buffer, and one completion write-back. Each
//! transmitted packet costs: one descriptor fetch, one payload read from
//! the TX buffer, and one completion write-back. The byte-granular RX/TX
//! buffers and the control region are exactly the three memory regions the
//! paper's example memory domain contains (§2.2).

use siopmp::ids::DeviceId;
use siopmp::telemetry::{Counter, Telemetry};
use siopmp_bus::{BurstKind, BurstRequest, MasterProgram};

/// Pre-resolved handles for the `nic.*` metrics.
#[derive(Debug, Clone)]
struct NicCounters {
    rx_programs: Counter,
    tx_programs: Counter,
    rogue_programs: Counter,
    bursts_emitted: Counter,
    resets: Counter,
    recovery_programs: Counter,
}

impl NicCounters {
    fn attach(t: &Telemetry) -> Self {
        NicCounters {
            rx_programs: t.counter("nic.rx_programs"),
            tx_programs: t.counter("nic.tx_programs"),
            rogue_programs: t.counter("nic.rogue_programs"),
            bursts_emitted: t.counter("nic.bursts_emitted"),
            resets: t.counter("nic.resets"),
            recovery_programs: t.counter("nic.recovery_programs"),
        }
    }
}

/// Memory layout the NIC driver established for the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicLayout {
    /// Base of the RX buffer region (device writes payloads here).
    pub rx_base: u64,
    /// Base of the TX buffer region (device reads payloads from here).
    pub tx_base: u64,
    /// Base of the descriptor/control ring region (device reads
    /// descriptors and writes completions).
    pub ring_base: u64,
    /// Bytes per packet buffer slot.
    pub slot_bytes: u64,
    /// Number of ring slots per direction.
    pub slots: u32,
}

impl NicLayout {
    /// The three regions of the NIC's memory domain, as
    /// `(base, len, writable)` triples: RX (writable), TX (read-only),
    /// control ring (writable — completions).
    pub fn regions(&self) -> [(u64, u64, bool); 3] {
        let buf_len = self.slot_bytes * self.slots as u64;
        [
            (self.rx_base, buf_len, true),
            (self.tx_base, buf_len, false),
            (self.ring_base, 64 * self.slots as u64 * 2, true),
        ]
    }

    /// Address of RX slot `i` (wraps modulo the ring).
    pub fn rx_slot(&self, i: u32) -> u64 {
        self.rx_base + self.slot_bytes * u64::from(i % self.slots)
    }

    /// Address of TX slot `i` (wraps modulo the ring).
    pub fn tx_slot(&self, i: u32) -> u64 {
        self.tx_base + self.slot_bytes * u64::from(i % self.slots)
    }

    /// Address of the descriptor for direction `rx` and slot `i`.
    pub fn descriptor(&self, rx: bool, i: u32) -> u64 {
        let dir_off = if rx { 0 } else { 64 * u64::from(self.slots) };
        self.ring_base + dir_off + 64 * u64::from(i % self.slots)
    }
}

/// The NIC device model.
///
/// # Examples
///
/// ```
/// use siopmp_devices::nic::{Nic, NicLayout};
/// let nic = Nic::build(0x100, NicLayout {
///     rx_base: 0x8000_0000, tx_base: 0x8010_0000,
///     ring_base: 0x8020_0000, slot_bytes: 2048, slots: 256,
/// }, None);
/// let prog = nic.rx_program(1500, 10);
/// assert!(prog.bursts.len() > 10); // descriptor + payload + completion per packet
/// ```
#[derive(Debug, Clone)]
pub struct Nic {
    device_id: u64,
    layout: NicLayout,
    telemetry: Telemetry,
    counters: NicCounters,
}

impl Nic {
    /// Creates a NIC with packet-level `device_id` over `layout`,
    /// registering its `nic.*` metrics in `telemetry` — pass `None` for a
    /// private registry.
    pub fn build(
        device_id: u64,
        layout: NicLayout,
        telemetry: impl Into<Option<Telemetry>>,
    ) -> Self {
        let telemetry = telemetry.into().unwrap_or_else(Telemetry::new);
        Nic {
            device_id,
            layout,
            counters: NicCounters::attach(&telemetry),
            telemetry,
        }
    }

    /// The NIC's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The NIC's device ID.
    pub fn device_id(&self) -> DeviceId {
        DeviceId(self.device_id)
    }

    /// The NIC's memory layout.
    pub fn layout(&self) -> &NicLayout {
        &self.layout
    }

    fn burst(&self, kind: BurstKind, addr: u64) -> BurstRequest {
        BurstRequest {
            device: DeviceId(self.device_id),
            kind,
            addr,
        }
    }

    fn rx_bursts(&self, program: &mut MasterProgram, mtu: u64, first: u32, packets: u32) {
        for p in first..packets {
            program
                .bursts
                .push(self.burst(BurstKind::Read, self.layout.descriptor(true, p)));
            let slot = self.layout.rx_slot(p);
            for b in 0..mtu.div_ceil(64) {
                program
                    .bursts
                    .push(self.burst(BurstKind::Write, slot + 64 * b));
            }
            program
                .bursts
                .push(self.burst(BurstKind::Write, self.layout.descriptor(true, p)));
        }
    }

    /// Burst program for receiving `packets` packets of `mtu` bytes:
    /// per packet, a descriptor fetch, `ceil(mtu/64)` payload write bursts,
    /// and a completion write-back.
    pub fn rx_program(&self, mtu: u64, packets: u32) -> MasterProgram {
        let mut program = MasterProgram::uniform(self.device_id, BurstKind::Read, 0, 0);
        self.rx_bursts(&mut program, mtu, 0, packets);
        program.outstanding = 8; // NICs pipeline aggressively
        self.counters.rx_programs.inc();
        self.counters
            .bursts_emitted
            .add(program.bursts.len() as u64);
        program
    }

    /// Records a device reset (firmware re-initialising rings and
    /// doorbells after a mid-DMA reset): bumps the `nic.resets` counter.
    pub fn reset(&self) {
        self.counters.resets.inc();
    }

    /// Post-reset RX replay: re-issues the traffic of an interrupted
    /// `rx_program(mtu, packets)` starting at `resume_slot` (typically
    /// [`crate::rings::RingRecovery::resume_slot`] from a recovery scan of
    /// the RX descriptor ring). Packets before the resume slot completed
    /// before the reset and are not re-emitted — their completion flags
    /// make a stray replay a no-op at the data level anyway.
    pub fn rx_recovery_program(&self, mtu: u64, packets: u32, resume_slot: u32) -> MasterProgram {
        let mut program = MasterProgram::uniform(self.device_id, BurstKind::Read, 0, 0);
        self.rx_bursts(&mut program, mtu, resume_slot.min(packets), packets);
        program.outstanding = 8;
        self.counters.recovery_programs.inc();
        self.counters
            .bursts_emitted
            .add(program.bursts.len() as u64);
        program
    }

    /// Burst program for transmitting `packets` packets of `mtu` bytes.
    pub fn tx_program(&self, mtu: u64, packets: u32) -> MasterProgram {
        let mut program = MasterProgram::uniform(self.device_id, BurstKind::Read, 0, 0);
        for p in 0..packets {
            program
                .bursts
                .push(self.burst(BurstKind::Read, self.layout.descriptor(false, p)));
            let slot = self.layout.tx_slot(p);
            for b in 0..mtu.div_ceil(64) {
                program
                    .bursts
                    .push(self.burst(BurstKind::Read, slot + 64 * b));
            }
            program
                .bursts
                .push(self.burst(BurstKind::Write, self.layout.descriptor(false, p)));
        }
        program.outstanding = 8;
        self.counters.tx_programs.inc();
        self.counters
            .bursts_emitted
            .add(program.bursts.len() as u64);
        program
    }

    /// A malicious variant: the same RX traffic but with every payload
    /// write redirected to `target` — the DMA-attack scenario the threat
    /// model defends against (§3.2). Used by the security tests and the
    /// `dma_attack` example.
    pub fn rogue_rx_program(&self, mtu: u64, packets: u32, target: u64) -> MasterProgram {
        self.counters.rogue_programs.inc();
        let mut program = self.rx_program(mtu, packets);
        for b in &mut program.bursts {
            if b.kind == BurstKind::Write {
                b.addr = target;
            }
        }
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> NicLayout {
        NicLayout {
            rx_base: 0x8000_0000,
            tx_base: 0x8010_0000,
            ring_base: 0x8020_0000,
            slot_bytes: 2048,
            slots: 4,
        }
    }

    #[test]
    fn regions_cover_three_domains() {
        let r = layout().regions();
        assert_eq!(r.len(), 3);
        assert!(r[0].2, "RX must be writable");
        assert!(!r[1].2, "TX must be read-only");
        assert!(r[2].2, "ring must be writable for completions");
    }

    #[test]
    fn slots_wrap_around_the_ring() {
        let l = layout();
        assert_eq!(l.rx_slot(0), l.rx_slot(4));
        assert_eq!(l.tx_slot(1), l.tx_slot(5));
        assert_ne!(l.descriptor(true, 0), l.descriptor(false, 0));
    }

    #[test]
    fn rx_program_shape() {
        let nic = Nic::build(7, layout(), None);
        let p = nic.rx_program(1500, 2);
        // Per packet: 1 descriptor read + 24 payload writes + 1 completion.
        assert_eq!(p.bursts.len(), 2 * (1 + 24 + 1));
        assert_eq!(p.bursts[0].kind, BurstKind::Read);
        assert_eq!(p.bursts[1].kind, BurstKind::Write);
    }

    #[test]
    fn tx_program_reads_payload() {
        let nic = Nic::build(7, layout(), None);
        let p = nic.tx_program(64, 1);
        assert_eq!(p.bursts.len(), 3);
        assert_eq!(p.bursts[1].kind, BurstKind::Read);
        assert_eq!(p.bursts[1].addr, layout().tx_slot(0));
    }

    #[test]
    fn rogue_program_redirects_writes_only() {
        let nic = Nic::build(7, layout(), None);
        let p = nic.rogue_rx_program(128, 1, 0xdead_0000);
        for b in &p.bursts {
            match b.kind {
                BurstKind::Write => assert_eq!(b.addr, 0xdead_0000),
                BurstKind::Read => assert_ne!(b.addr, 0xdead_0000),
            }
        }
    }

    #[test]
    fn telemetry_counts_programs_and_bursts() {
        let t = Telemetry::new();
        let nic = Nic::build(7, layout(), t.clone());
        let rx = nic.rx_program(1500, 2);
        let tx = nic.tx_program(64, 1);
        let snap = t.snapshot();
        assert_eq!(snap.counters["nic.rx_programs"], 1);
        assert_eq!(snap.counters["nic.tx_programs"], 1);
        assert_eq!(
            snap.counters["nic.bursts_emitted"],
            (rx.bursts.len() + tx.bursts.len()) as u64
        );
    }

    #[test]
    fn recovery_program_replays_only_pending_slots() {
        let t = Telemetry::new();
        let nic = Nic::build(7, layout(), t.clone());
        let full = nic.rx_program(1500, 4);
        nic.reset();
        let replay = nic.rx_recovery_program(1500, 4, 2);
        // Exactly the last two packets' traffic, addressed identically to
        // the tail of the full program.
        assert_eq!(replay.bursts.len(), full.bursts.len() / 2);
        assert_eq!(replay.bursts, full.bursts[full.bursts.len() / 2..].to_vec());
        // Resuming past the end yields an empty (trivially complete) replay.
        assert!(nic.rx_recovery_program(1500, 4, 9).bursts.is_empty());
        let snap = t.snapshot();
        assert_eq!(snap.counters["nic.resets"], 1);
        assert_eq!(snap.counters["nic.recovery_programs"], 2);
    }

    #[test]
    fn sub_page_packets_fit_byte_granular_regions() {
        // A 128-byte packet occupies 2 bursts, far below a 4 KiB page —
        // the sub-page isolation case the IOMMU cannot express (§1).
        let nic = Nic::build(7, layout(), None);
        let p = nic.rx_program(128, 1);
        let payload_writes = p
            .bursts
            .iter()
            .filter(|b| b.kind == BurstKind::Write)
            .count()
            - 1;
        assert_eq!(payload_writes, 2);
    }
}
