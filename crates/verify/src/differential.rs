//! The measured differential suite: randomized configurations probed
//! through both [`analyze`]'s predictions and the concrete
//! [`Siopmp::check`], with the analyzer's Error-severity findings graded
//! into *corroborated* and *spurious*.
//!
//! The generator used by the soundness property test
//! (`tests/differential.rs`) lives here so the `siopmp-verify` binary and
//! the bounded model checker (`siopmp-prove`) replay the exact same
//! distribution. [`measure`] runs the full sweep — by default the
//! [`CONFIGS`]`×`[`PROBES_PER_CONFIG`] grid the acceptance criteria name —
//! and reports:
//!
//! * **agreement**: every probe where [`crate::Report::predict`] and the hardware
//!   agree (a disagreement is a soundness bug, surfaced as a non-zero
//!   `disagreements` count for callers to gate on);
//! * **false-positive rate**: Error-severity diagnostics are checked for a
//!   concrete witness — a probe inside the flagged region that the
//!   hardware *allows*, taken on a clone of the unit with stalls lifted
//!   and the flagged cold record mounted (an Error is a claim that a
//!   grant exists; the witness is that grant being exercisable). Errors
//!   with no witness are counted spurious, and `spurious / errors` is the
//!   measured false-positive rate the JSON report carries.
//!
//! The capability maps fed to the analyzer are synthesized from the
//! unit's own tables with deliberate dropout (grants withheld, enclave
//! regions claimed over reachable memory), so the Error paths are
//! genuinely exercised rather than vacuously zero.

use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
use siopmp::ids::{DeviceId, MdIndex, SourceId};
use siopmp::json::Json;
use siopmp::mountable::MountableEntry;
use siopmp::request::{AccessKind, DmaRequest};
use siopmp::{Siopmp, SiopmpConfig};
use siopmp_testkit::Gen;

use crate::{analyze, CapabilityMap, DeviceGrants, MemoryGrant, Severity, TeeRegion};

/// Generated configurations per sweep (the acceptance floor is 100).
pub const CONFIGS: u64 = 128;

/// Probes fired per configuration (the acceptance floor is 10k total).
pub const PROBES_PER_CONFIG: usize = 128;

/// A device ID never registered anywhere — probes through it must resolve
/// to deny.
pub const UNKNOWN_DEVICE: DeviceId = DeviceId(999);

/// A random permission nibble, `none` included (a matching `none` entry
/// *denies* — the interesting priority case).
pub fn random_perms(g: &mut Gen) -> Permissions {
    *g.choose(&[
        Permissions::rw(),
        Permissions::read_only(),
        Permissions::write_only(),
        Permissions::none(),
    ])
}

/// A random entry on a small page grid so entries overlap often — the
/// interesting regime for priority reasoning.
pub fn random_entry(g: &mut Gen) -> IopmpEntry {
    let base = g.u64(0..24) * 0x800;
    let len = *g.choose(&[0x100u64, 0x400, 0x800, 0x1000, 0x2000]);
    IopmpEntry::new(AddressRange::new(base, len).unwrap(), random_perms(g))
}

/// Builds a randomized unit — hot devices, random MD associations,
/// overlapping entries, cold registrations, mount churn, promotion and
/// blocked SIDs — and returns it plus every device ID that ever existed
/// in it (all worth probing).
pub fn random_unit(g: &mut Gen) -> (Siopmp, Vec<DeviceId>) {
    let mut cfg = SiopmpConfig::small();
    cfg.num_sids = g.usize(4..9);
    cfg.num_mds = g.usize(4..9);
    cfg.num_entries = g.usize(24..65);
    cfg.cold_md_entries = g.usize(2..5);
    let mut unit = Siopmp::build(cfg, None);
    let cfg = unit.config().clone();
    let hot_mds: Vec<MdIndex> = (0..cfg.cold_md().0).map(MdIndex).collect();

    let mut devices: Vec<DeviceId> = Vec::new();

    // Hot devices with random domain associations.
    let n_hot = g.usize(1..cfg.num_hot_sids().min(5));
    for i in 0..n_hot {
        let device = DeviceId(1 + i as u64);
        let Ok(sid) = unit.map_hot_device(device) else {
            continue;
        };
        devices.push(device);
        for _ in 0..g.usize(1..4) {
            let md = *g.choose(&hot_mds);
            if !unit.is_associated(sid, md).unwrap_or(true) {
                let _ = unit.associate_sid_with_md(sid, md);
            }
        }
    }

    // Entries: deliberately overlapping, mixed permissions, some in
    // windows no SID views.
    for _ in 0..g.usize(4..16) {
        let md = *g.choose(&hot_mds);
        let _ = unit.install_entry(md, random_entry(g)); // MdFull is fine
    }

    // Cold devices with small mountable records.
    let n_cold = g.usize(0..3);
    for i in 0..n_cold {
        let device = DeviceId(100 + i as u64);
        let record = MountableEntry {
            domains: if g.bool_with(0.3) {
                vec![*g.choose(&hot_mds)]
            } else {
                vec![]
            },
            entries: (0..g.usize(0..cfg.cold_md_entries + 1))
                .map(|_| random_entry(g))
                .collect(),
        };
        if unit.register_cold_device(device, record).is_ok() {
            devices.push(device);
        }
    }

    // Mount/unmount churn: each successful mount implicitly unmounts the
    // previous tenant, whose record stays in the extended table. The
    // extended table's iteration order is unspecified, so sort before
    // consuming randomness against it — `measure` must be deterministic
    // in its seed.
    let mut cold_now: Vec<DeviceId> = unit.cold_devices().map(|(d, _)| d).collect();
    cold_now.sort();
    if !cold_now.is_empty() {
        for _ in 0..g.usize(0..3) {
            let device = *g.choose(&cold_now);
            let _ = unit.handle_sid_missing(device); // MdFull is fine
        }
    }

    // CAM remap: promote a cold device into the CAM, possibly evicting a
    // hot victim into the extended table.
    let mut cold_now: Vec<DeviceId> = unit.cold_devices().map(|(d, _)| d).collect();
    cold_now.sort();
    if !cold_now.is_empty() && g.bool_with(0.4) {
        let _ = unit.promote_with_eviction(*g.choose(&cold_now));
    }

    // Occasionally block a SID (stall semantics).
    if g.bool_with(0.25) {
        unit.block_sid(SourceId(g.u16(0..cfg.num_sids as u16)));
    }

    (unit, devices)
}

/// Probe addresses clustered around installed entry edges (where
/// off-by-ones live) plus a few global landmarks.
pub fn edge_addresses(unit: &Siopmp) -> Vec<u64> {
    let mut edges: Vec<u64> = Vec::new();
    for (_, entry) in unit.entries() {
        let r = entry.range();
        edges.extend([
            r.base().saturating_sub(1),
            r.base(),
            r.base() + r.len() / 2,
            r.end().saturating_sub(1),
            r.end(),
        ]);
    }
    edges.extend([0, 0x8000_0000, u64::MAX - 8]);
    edges
}

/// One edge-biased random probe over `devices`.
pub fn random_probe(g: &mut Gen, devices: &[DeviceId], edges: &[u64]) -> DmaRequest {
    let device = *g.choose(devices);
    let kind = if g.bool() {
        AccessKind::Read
    } else {
        AccessKind::Write
    };
    let addr = if g.bool_with(0.8) {
        *g.choose(edges)
    } else {
        g.u64(0..0x2_0000)
    };
    let len = *g.choose(&[0u64, 1, 4, 0x80, 0x400, 0x1000]);
    DmaRequest::new(device, kind, addr, len)
}

/// Synthesizes a capability map from the unit's own tables, with
/// deliberate imperfections: ~20% of the justifying grants are withheld
/// (seeding genuine capability-divergence Errors) and enclave regions are
/// sometimes claimed over memory another SID's device reaches (seeding
/// genuine cross-sid-overlap Errors).
pub fn synth_caps(g: &mut Gen, unit: &Siopmp) -> CapabilityMap {
    let report = analyze(unit, None);
    let mut devices: Vec<DeviceGrants> = Vec::new();
    let mut regions: Vec<TeeRegion> = Vec::new();
    let mut tee = 0u32;

    let mut reachable_spans: Vec<(u64, u64)> = Vec::new();
    for view in report.views() {
        for iv in &view.intervals {
            if iv.perms.read() || iv.perms.write() {
                reachable_spans.push((iv.start, iv.end));
            }
        }
    }

    let cover = |device: DeviceId,
                 spans: Vec<(u64, u64, bool, bool)>,
                 g: &mut Gen,
                 tee: u32|
     -> DeviceGrants {
        let grants = spans
            .into_iter()
            .filter(|_| !g.bool_with(0.2)) // withhold ~20%: real divergence
            .map(|(start, end, read, write)| MemoryGrant {
                base: start,
                len: end - start,
                read,
                write,
            })
            .collect();
        DeviceGrants {
            device,
            tee,
            grants,
        }
    };

    for view in report.views() {
        let Some(device) = view.device else { continue };
        let spans: Vec<(u64, u64, bool, bool)> = view
            .intervals
            .iter()
            .filter(|iv| iv.perms.read() || iv.perms.write())
            .map(|iv| (iv.start, iv.end, iv.perms.read(), iv.perms.write()))
            .collect();
        devices.push(cover(device, spans, g, tee));
        // The TEE owns a region of its own; sometimes it deliberately
        // claims memory other devices reach (a genuine isolation breach
        // the analyzer must flag as cross-sid-overlap).
        if g.bool_with(0.4) && !reachable_spans.is_empty() {
            let (start, end) = *g.choose(&reachable_spans);
            regions.push(TeeRegion {
                tee,
                base: start,
                len: end - start,
            });
        }
        tee += 1;
    }

    // Unmounted cold records are table state too. Sorted: the extended
    // table's iteration order is unspecified and `g` is consumed per
    // record.
    let mut cold: Vec<(DeviceId, &MountableEntry)> = unit.cold_devices().collect();
    cold.sort_by_key(|&(d, _)| d);
    for (device, record) in cold {
        if devices.iter().any(|d| d.device == device) {
            continue;
        }
        let spans: Vec<(u64, u64, bool, bool)> = record
            .entries
            .iter()
            .map(|e| {
                let r = e.range();
                (
                    r.base(),
                    r.end(),
                    e.permissions().read(),
                    e.permissions().write(),
                )
            })
            .collect();
        devices.push(cover(device, spans, g, tee));
        tee += 1;
    }

    CapabilityMap { devices, regions }
}

/// The sweep's measured result (see the module docs for definitions).
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialStats {
    /// Base seed the sweep ran from.
    pub seed: u64,
    /// Configurations generated.
    pub configs: u64,
    /// Total probes fired.
    pub probes: u64,
    /// Probes where prediction and hardware agreed.
    pub agreements: u64,
    /// Probes where they diverged — any non-zero value is a soundness bug.
    pub disagreements: u64,
    /// All diagnostics emitted across the sweep.
    pub diagnostics: u64,
    /// Error-severity diagnostics emitted.
    pub error_diagnostics: u64,
    /// Errors with a concrete hardware witness.
    pub corroborated_errors: u64,
    /// Errors with no witness.
    pub spurious_errors: u64,
    /// `spurious_errors / error_diagnostics` (0 when no Errors fired).
    pub false_positive_rate: f64,
}

impl DifferentialStats {
    /// Serializes the stats for the JSON report payload.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("seed", Json::u64(self.seed)),
            ("configs", Json::u64(self.configs)),
            ("probes", Json::u64(self.probes)),
            ("agreements", Json::u64(self.agreements)),
            ("disagreements", Json::u64(self.disagreements)),
            ("diagnostics", Json::u64(self.diagnostics)),
            ("error_diagnostics", Json::u64(self.error_diagnostics)),
            ("corroborated_errors", Json::u64(self.corroborated_errors)),
            ("spurious_errors", Json::u64(self.spurious_errors)),
            ("false_positive_rate", Json::f64(self.false_positive_rate)),
        ])
    }
}

/// Whether an Error-severity diagnostic has a concrete hardware witness:
/// a probe inside the flagged region the checker *allows*, taken on a
/// clone with every stall lifted and (for an unmounted cold record) the
/// flagged device mounted. A record too large for the cold window — or a
/// claim about memory nothing can actually touch — yields no witness and
/// counts as spurious.
fn corroborate(unit: &Siopmp, diag: &crate::Diagnostic) -> bool {
    let (Some((start, end)), Some(device)) = (diag.region, diag.device) else {
        return false;
    };
    if start >= end {
        return false;
    }
    let mut probe_unit = unit.clone();
    for sid in 0..probe_unit.config().num_sids {
        probe_unit.unblock_sid(SourceId(sid as u16));
    }
    let registered_cold = probe_unit.cold_devices().any(|(d, _)| d == device);
    let is_hot = probe_unit.hot_devices().iter().any(|(_, d)| *d == device);
    if !is_hot && registered_cold && probe_unit.mounted_cold_device() != Some(device) {
        let _ = probe_unit.handle_sid_missing(device); // MdFull: no witness
    }
    let mid = start + (end - start) / 2;
    for addr in [start, mid, end - 1] {
        for kind in [AccessKind::Read, AccessKind::Write] {
            if probe_unit
                .check(&DmaRequest::new(device, kind, addr, 1))
                .is_allowed()
            {
                return true;
            }
        }
    }
    false
}

/// Runs the full differential sweep: `configs` generated units, `probes`
/// probes each, capability maps synthesized per unit, Errors graded for
/// witnesses. Deterministic in `seed`.
pub fn measure(configs: u64, probes_per_config: usize, seed: u64) -> DifferentialStats {
    let mut stats = DifferentialStats {
        seed,
        configs,
        probes: 0,
        agreements: 0,
        disagreements: 0,
        diagnostics: 0,
        error_diagnostics: 0,
        corroborated_errors: 0,
        spurious_errors: 0,
        false_positive_rate: 0.0,
    };
    for case in 0..configs {
        let mut g = Gen::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (mut unit, mut devices) = random_unit(&mut g);
        devices.push(UNKNOWN_DEVICE);
        let caps = synth_caps(&mut g, &unit);
        let report = analyze(&unit, Some(&caps));
        let edges = edge_addresses(&unit);

        for _ in 0..probes_per_config {
            let req = random_probe(&mut g, &devices, &edges);
            let predicted = report.predict(req.device(), req.kind(), req.addr(), req.len());
            let outcome = unit.check(&req);
            stats.probes += 1;
            if predicted.agrees_with(&outcome) {
                stats.agreements += 1;
            } else {
                stats.disagreements += 1;
            }
        }

        stats.diagnostics += report.diagnostics().len() as u64;
        for diag in report.diagnostics() {
            if diag.severity != Severity::Error {
                continue;
            }
            stats.error_diagnostics += 1;
            if corroborate(&unit, diag) {
                stats.corroborated_errors += 1;
            } else {
                stats.spurious_errors += 1;
            }
        }
    }
    if stats.error_diagnostics > 0 {
        stats.false_positive_rate = stats.spurious_errors as f64 / stats.error_diagnostics as f64;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_in_the_seed() {
        let a = measure(8, 16, 42);
        let b = measure(8, 16, 42);
        assert_eq!(a, b);
        let c = measure(8, 16, 43);
        assert!(a.probes == c.probes && a.configs == c.configs);
    }

    #[test]
    fn small_sweep_has_no_disagreements_and_exercises_errors() {
        let stats = measure(32, 32, 7);
        assert_eq!(stats.disagreements, 0, "soundness bug: {stats:?}");
        assert_eq!(stats.agreements, stats.probes);
        // The synthesized capability dropout must actually fire Errors,
        // otherwise the false-positive rate is vacuous.
        assert!(stats.error_diagnostics > 0, "{stats:?}");
        assert!(
            stats.corroborated_errors + stats.spurious_errors == stats.error_diagnostics,
            "{stats:?}"
        );
        assert!((0.0..=1.0).contains(&stats.false_positive_rate));
    }

    #[test]
    fn stats_serialize_to_the_report_payload_shape() {
        let rendered = measure(2, 4, 1).to_json().pretty();
        for key in [
            "false_positive_rate",
            "disagreements",
            "corroborated_errors",
            "spurious_errors",
        ] {
            assert!(rendered.contains(key), "{rendered}");
        }
    }
}
