//! sIOPMP configuration space (Table 2 of the paper).

use crate::checker::CheckerKind;
use crate::error::{Result, SiopmpError};
use crate::violation::ViolationMode;

/// Where the IOPMP checker instances sit in the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Placement {
    /// One checker per master device, in front of the front bus (Fig. 6).
    #[default]
    PerDevice,
    /// A single checker shared by all masters on the system bus.
    Centralized,
}

/// Static configuration of one sIOPMP instance.
///
/// Mirrors the configuration axes from Table 2: number of hardware SIDs,
/// memory domains, IOPMP entries, checker micro-architecture (pipeline
/// stages, tree arbitration), violation mechanism and placement.
///
/// # Examples
///
/// ```
/// use siopmp::SiopmpConfig;
/// let cfg = SiopmpConfig::default();
/// assert_eq!(cfg.num_sids, 64);
/// assert_eq!(cfg.cold_md().index(), cfg.num_mds - 1);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiopmpConfig {
    /// Number of in-SoC source IDs (hot SIDs are `0..num_sids-1`; the last
    /// one is the eSID mount slot for cold devices). Paper default: 64.
    pub num_sids: usize,
    /// Number of memory domains. The last one is reserved for the mounted
    /// cold device (MD62 in the paper's 63-domain configuration).
    pub num_mds: usize,
    /// Total hardware IOPMP entries (32..=1024 in the paper's sweeps).
    pub num_entries: usize,
    /// Entry slots reserved to the cold memory domain.
    pub cold_md_entries: usize,
    /// Checker micro-architecture.
    pub checker: CheckerKind,
    /// How violations are signalled back onto the bus.
    pub violation_mode: ViolationMode,
    /// Where the checker sits.
    pub placement: Placement,
    /// Whether the mountable/extended IOPMP table exists. The original
    /// IOPMP proposal has none — every device must hold a hardware SID,
    /// which is the device-count limitation §4.2 removes.
    pub mountable: bool,
    /// Maximum retained [`crate::violation::ViolationRecord`]s. When the
    /// log is full the oldest record is dropped (and counted in
    /// `siopmp.violation_log_dropped`), bounding memory under adversarial
    /// violation storms.
    pub violation_log_capacity: usize,
}

impl Default for SiopmpConfig {
    /// The paper's headline configuration: 64 SIDs, 63 memory domains
    /// (MD62 = cold mount), 1024 entries (8 reserved for the cold MD),
    /// 2-stage MT checker with binary-tree arbitration, packet-masking
    /// violations, per-device placement.
    fn default() -> Self {
        SiopmpConfig {
            num_sids: 64,
            num_mds: 63,
            num_entries: 1024,
            cold_md_entries: 8,
            checker: CheckerKind::MtChecker {
                stages: 2,
                tree_arity: 2,
            },
            violation_mode: ViolationMode::PacketMasking,
            placement: Placement::PerDevice,
            mountable: true,
            violation_log_capacity: 4096,
        }
    }
}

impl SiopmpConfig {
    /// Most source IDs a unit can have: a SID is 16 bits wide
    /// ([`crate::ids::SourceId`]), and the cold mount SID is
    /// `num_sids - 1`.
    pub const MAX_SIDS: usize = 1 << 16;

    /// Most slots [`SiopmpConfig::num_entries`] may ask for. The paper
    /// sweeps 32..=1024 entries; the table is allocated when the unit is
    /// built, so the cap keeps a mistyped size from allocating without
    /// bound.
    pub const MAX_TABLE_SLOTS: usize = 1 << 20;

    /// Number of SIDs usable by hot devices (`num_sids - 1`; the last SID is
    /// the cold-device mount slot).
    pub fn num_hot_sids(&self) -> usize {
        self.num_sids.saturating_sub(1)
    }

    /// The SID value reserved for the currently-mounted cold device.
    pub fn cold_sid(&self) -> crate::ids::SourceId {
        crate::ids::SourceId((self.num_sids - 1) as u16)
    }

    /// The memory domain dedicated to the mounted cold device (MD62 in the
    /// paper's configuration).
    pub fn cold_md(&self) -> crate::ids::MdIndex {
        crate::ids::MdIndex((self.num_mds - 1) as u16)
    }

    /// Checks internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SiopmpError::InvalidConfig`] when a field combination cannot
    /// describe real hardware (zero-sized tables, cold reservation larger
    /// than the entry table, more MDs than the SRC2MD bitmap can express,
    /// more SIDs than 16 bits can name, tables above
    /// [`SiopmpConfig::MAX_TABLE_SLOTS`]).
    pub fn validate(&self) -> Result<()> {
        if self.num_sids < 2 {
            return Err(SiopmpError::InvalidConfig(
                "need at least one hot SID and the cold mount SID",
            ));
        }
        if self.num_sids > Self::MAX_SIDS {
            return Err(SiopmpError::InvalidConfig(
                "a SID is 16 bits wide, so at most 65536 SIDs",
            ));
        }
        if self.num_mds < 2 {
            return Err(SiopmpError::InvalidConfig(
                "need at least one hot MD and the cold MD",
            ));
        }
        if self.num_mds > 63 {
            return Err(SiopmpError::InvalidConfig(
                "SRC2MD bitmap holds at most 63 memory domains (64-bit register with lock bit)",
            ));
        }
        if self.num_entries == 0 {
            return Err(SiopmpError::InvalidConfig("entry table cannot be empty"));
        }
        if self.num_entries > Self::MAX_TABLE_SLOTS {
            return Err(SiopmpError::InvalidConfig(
                "the entry table holds at most 1 << 20 slots",
            ));
        }
        if self.cold_md_entries == 0 || self.cold_md_entries >= self.num_entries {
            return Err(SiopmpError::InvalidConfig(
                "cold MD reservation must be nonzero and smaller than the entry table",
            ));
        }
        if self.violation_log_capacity == 0 {
            return Err(SiopmpError::InvalidConfig(
                "violation log needs room for at least one record",
            ));
        }
        self.checker.validate()?;
        Ok(())
    }

    /// The original IOPMP proposal as the paper baselines it (§2.2, §6.1):
    /// a linear single-cycle checker over a small entry file, 64 hardware
    /// SIDs, and **no** extended/mountable table — the 65th device simply
    /// cannot be expressed.
    pub fn original_iopmp() -> Self {
        SiopmpConfig {
            num_sids: 64,
            num_mds: 63,
            num_entries: 128,
            cold_md_entries: 8,
            checker: CheckerKind::Linear,
            violation_mode: ViolationMode::BusError,
            placement: Placement::PerDevice,
            mountable: false,
            violation_log_capacity: 4096,
        }
    }

    /// A small configuration convenient for unit tests (8 SIDs, 8 MDs,
    /// 32 entries, 4 cold slots).
    pub fn small() -> Self {
        SiopmpConfig {
            num_sids: 8,
            num_mds: 8,
            num_entries: 32,
            cold_md_entries: 4,
            ..SiopmpConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_headline() {
        let cfg = SiopmpConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.num_sids, 64);
        assert_eq!(cfg.num_mds, 63);
        assert_eq!(cfg.num_entries, 1024);
        assert_eq!(cfg.cold_sid().index(), 63);
        assert_eq!(cfg.cold_md().index(), 62);
        assert_eq!(cfg.num_hot_sids(), 63);
    }

    #[test]
    fn small_config_is_valid() {
        SiopmpConfig::small().validate().unwrap();
    }

    #[test]
    fn rejects_degenerate_configs() {
        let cfg = SiopmpConfig {
            num_sids: 1,
            ..SiopmpConfig::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = SiopmpConfig {
            num_mds: 64,
            ..SiopmpConfig::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = SiopmpConfig {
            num_entries: 0,
            ..SiopmpConfig::default()
        };
        assert!(cfg.validate().is_err());

        let default = SiopmpConfig::default();
        let cfg = SiopmpConfig {
            cold_md_entries: default.num_entries,
            ..default
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fast_path_knobs_default_on_and_bounded() {
        let cfg = SiopmpConfig::default();
        assert_eq!(cfg.violation_log_capacity, 4096);
        let cfg = SiopmpConfig {
            violation_log_capacity: 0,
            ..SiopmpConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn sizes_beyond_the_sid_space_or_the_table_cap_are_rejected() {
        let max = SiopmpConfig::MAX_TABLE_SLOTS;
        // `sids=70000` used to truncate the cold SID to SourceId(4463).
        for (num_sids, num_entries, valid) in [
            (70_000, 1024, false),
            (SiopmpConfig::MAX_SIDS, 1024, true),
            (64, max + 1, false),
            (64, max, true),
        ] {
            let cfg = SiopmpConfig {
                num_sids,
                num_entries,
                ..SiopmpConfig::default()
            };
            assert_eq!(cfg.validate().is_ok(), valid, "{cfg:?}");
        }
    }

    #[test]
    fn placement_default_is_per_device() {
        assert_eq!(Placement::default(), Placement::PerDevice);
    }
}
