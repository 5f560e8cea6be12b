//! Design-space exploration over the calibrated timing/area model.
//!
//! The paper reports a single calibrated design point — 1024 entries behind
//! a 3-stage binary-tree checker, a 64-way remap CAM and a 1024-slot
//! decision cache — but never answers *how an sIOPMP-class block should be
//! sized*. Following the CHERIoT-vs-PMP Ibex area-comparison methodology,
//! this module sweeps the five sizing knobs
//!
//! * IOPMP **entry count** (protection capacity),
//! * remap **CAM ways** (hot-device capacity, §4.3),
//! * checker **pipeline depth** (frequency vs. added latency, §4.1),
//! * **decision-cache slots** (p99 latency vs. area): a modelled hardware
//!   verdict cache in front of the checker, not the software model's check
//!   path, which has no cache (its per-SID interval index lives in
//!   [`crate::snapshot`]),
//! * **checker shards** (N smaller checkers fed round-robin instead of one
//!   monolith — the PR 5/PR 6 scaling lever expressed in hardware),
//!
//! and evaluates each [`DesignPoint`] with the *same* calibrated models the
//! fig10/fig11/fig14 experiments replay ([`crate::timing::analyze`] and
//! [`crate::area::estimate`]); the golden differential test pins the paper
//! point of this module byte-for-byte to those experiment outputs.
//!
//! The frontier is Pareto over five objectives: entry count and CAM ways
//! (capacities, maximised), achievable frequency (maximised), area and p99
//! check latency (minimised). Capacities are objectives rather than filters
//! so that every capacity class contributes its own frequency/area/latency
//! trade-offs — a 256-entry design is *smaller*, not *better*, than the
//! 1024-entry paper point. [`dominates`] requires weak improvement on all
//! five axes plus strict improvement on one; unroutable points (see
//! [`crate::timing::ROUTABLE_MIN_MHZ`]) never enter the frontier.
//!
//! The p99 latency of a point starts from a simulated bus-level p99 (the
//! scenario layer runs a deterministic `ParallelSim` workload sample per
//! pipeline depth) and applies two model terms the sample cannot see:
//! a CAM-capacity miss penalty ([`check_p99_cycles`], costing one
//! [`crate::mountable::cold_switch_cycles`] switch when the hot working set
//! exceeds the ways) and the decision-cache pipeline bypass (a covering
//! hardware cache answers the p99 request combinationally, §5.1).

use crate::area::{estimate, AreaReport};
use crate::checker::CheckerKind;
use crate::mountable::cold_switch_cycles;
use crate::timing::{analyze, TimingReport};

/// Hot devices kept in flight by the deterministic workload sample; a CAM
/// that cannot hold them all pays cold switches on the p99 path.
pub const SAMPLE_ACTIVE_DEVICES: usize = 16;

/// Distinct (SID, page) pairs the workload sample touches; a decision cache
/// covering ≥ 99% of them answers the p99 request combinationally.
pub const SAMPLE_HOT_PAGES: usize = 1024;

/// Cold-record count assumed per mountable switch (the paper's measured
/// 341-cycle switch uses 8 records; see `cold_switch_cycles`).
pub const SWITCH_COLD_ENTRIES: usize = 8;

/// Per-CAM-way LUT cost in % of the SoC (match lines + priority encoder).
pub const CAM_LUT_PER_WAY: f64 = 0.0016;
/// Per-CAM-way FF cost in % of the SoC (tag + SID registers).
pub const CAM_FF_PER_WAY: f64 = 0.0009;
/// Per-decision-cache-slot LUT cost in % of the SoC (lookup mux).
pub const CACHE_LUT_PER_SLOT: f64 = 1.0e-4;
/// Per-decision-cache-slot FF cost in % of the SoC (tag + verdict bits).
pub const CACHE_FF_PER_SLOT: f64 = 2.0e-4;

/// One candidate hardware configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// Total IOPMP entries across all shards.
    pub entries: usize,
    /// Remap CAM ways (one way doubles as the cold-switch landing slot).
    pub cam_ways: usize,
    /// Checker pipeline stages (binary-tree reduction per stage).
    pub stages: u8,
    /// Slots of the modelled hardware decision cache (0 = none).
    pub cache_slots: usize,
    /// Independent checker shards; entries are split evenly across them.
    pub shards: usize,
}

impl DesignPoint {
    /// The paper's calibrated configuration: 1024 entries, a 64-way CAM,
    /// the 3-stage binary MT checker, a 1024-slot decision cache, one
    /// monolithic checker.
    pub fn paper() -> DesignPoint {
        DesignPoint {
            entries: 1024,
            cam_ways: 64,
            stages: 3,
            cache_slots: 1024,
            shards: 1,
        }
    }

    /// The checker micro-architecture of this point. Binary trees are fixed
    /// (the paper's "binary for timing" recommendation); a 1-stage point is
    /// the pure tree-arbitration design of fig14's tree column.
    pub fn checker(self) -> CheckerKind {
        CheckerKind::MtChecker {
            stages: self.stages,
            tree_arity: 2,
        }
    }

    /// Entries per shard (the timing-relevant size: each shard closes
    /// timing independently).
    pub fn shard_entries(self) -> usize {
        self.entries.div_ceil(self.shards)
    }

    /// Pipeline occupancy of one check in nanoseconds at the achievable
    /// clock: `stages` cycles from issue to verdict. This is what
    /// parameterizes the end-to-end workloads ("what would this SoC do").
    pub fn check_latency_ns(self) -> f64 {
        let timing = evaluate(self).timing;
        f64::from(self.stages) * 1000.0 / timing.achievable_mhz
    }
}

/// Frequency, area and derived figures of one evaluated [`DesignPoint`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignCost {
    /// The evaluated point.
    pub point: DesignPoint,
    /// Timing of one shard (shards close timing independently).
    pub timing: TimingReport,
    /// Checker area across all shards. At `shards == 1` this is bitwise
    /// identical to `area::estimate(point.checker(), point.entries)` — the
    /// identity the golden differential test pins against fig14.
    pub checker: AreaReport,
    /// Remap-CAM area ([`CAM_LUT_PER_WAY`]/[`CAM_FF_PER_WAY`] per way).
    pub cam: AreaReport,
    /// Decision-cache area (per-slot constants above).
    pub cache: AreaReport,
}

impl DesignCost {
    /// Total extra LUTs, % of the SoC.
    pub fn lut_pct(&self) -> f64 {
        self.checker.lut_pct + self.cam.lut_pct + self.cache.lut_pct
    }

    /// Total extra FFs, % of the SoC.
    pub fn ff_pct(&self) -> f64 {
        self.checker.ff_pct + self.cam.ff_pct + self.cache.ff_pct
    }

    /// The scalar area objective: LUT% + FF%.
    pub fn area_pct(&self) -> f64 {
        self.lut_pct() + self.ff_pct()
    }

    /// The five-objective view used for Pareto comparison, given the
    /// point's modelled p99 check latency in nanoseconds.
    pub fn objectives(&self, p99_ns: f64) -> Objectives {
        Objectives {
            entries: self.point.entries,
            cam_ways: self.point.cam_ways,
            freq_mhz: self.timing.achievable_mhz,
            area_pct: self.area_pct(),
            p99_ns,
        }
    }
}

/// Evaluates the timing/area model at `point`.
///
/// Sharding splits the entry array into `shards` independent checkers of
/// `shard_entries` each: timing is that of one shard, area is one shard's
/// cost times the shard count (each shard is a full checker instance,
/// control FSM included).
///
/// # Panics
///
/// Panics on a degenerate point (`entries`, `stages` or `shards` of 0).
pub fn evaluate(point: DesignPoint) -> DesignCost {
    assert!(point.entries >= 1, "design point needs entries");
    assert!(point.stages >= 1, "design point needs a pipeline stage");
    assert!(point.shards >= 1, "design point needs a checker shard");
    let kind = point.checker();
    let per_shard = point.shard_entries();
    let timing = analyze(kind, per_shard);
    let base = estimate(kind, per_shard);
    // `shards == 1` multiplies by exactly 1.0, which is an IEEE identity —
    // the unsharded checker area stays bitwise equal to `estimate()`.
    let shards = point.shards as f64;
    DesignCost {
        point,
        timing,
        checker: AreaReport {
            lut_pct: base.lut_pct * shards,
            ff_pct: base.ff_pct * shards,
        },
        cam: AreaReport {
            lut_pct: CAM_LUT_PER_WAY * point.cam_ways as f64,
            ff_pct: CAM_FF_PER_WAY * point.cam_ways as f64,
        },
        cache: AreaReport {
            lut_pct: CACHE_LUT_PER_SLOT * point.cache_slots as f64,
            ff_pct: CACHE_FF_PER_SLOT * point.cache_slots as f64,
        },
    }
}

/// Applies the model terms the simulated sample cannot see to its measured
/// bus-level p99, returning the point's p99 check-path latency in cycles.
///
/// * **CAM capacity**: the sample keeps [`SAMPLE_ACTIVE_DEVICES`] devices
///   in flight; one CAM way is consumed as the cold-switch landing slot, so
///   a CAM with fewer than `SAMPLE_ACTIVE_DEVICES + 1` ways thrashes — more
///   than 1% of requests arrive for an unmapped device and the p99 request
///   pays one mountable cold switch (341 cycles at 8 records, the paper's
///   measured figure).
/// * **Decision cache**: a cache covering ≥ 99% of [`SAMPLE_HOT_PAGES`]
///   answers the p99 request combinationally, bypassing the pipeline's
///   `stages - 1` extra cycles. (With a 1-stage checker the bypass saves
///   nothing — spending area on a cache for a combinational checker is how
///   a point gets dominated.)
pub fn check_p99_cycles(point: DesignPoint, sim_p99_cycles: u64) -> u64 {
    let mut p99 = sim_p99_cycles;
    let hot_capacity = point.cam_ways.saturating_sub(1);
    if hot_capacity < SAMPLE_ACTIVE_DEVICES {
        p99 += cold_switch_cycles(SWITCH_COLD_ENTRIES);
    }
    if point.cache_slots * 100 >= SAMPLE_HOT_PAGES * 99 {
        p99 = p99
            .saturating_sub(u64::from(point.checker().extra_cycles()))
            .max(1);
    }
    p99
}

/// Converts a cycle count at `timing`'s achievable clock to nanoseconds.
pub fn cycles_to_ns(cycles: u64, timing: &TimingReport) -> f64 {
    cycles as f64 * 1000.0 / timing.achievable_mhz
}

/// The five Pareto objectives of one design point. Capacities maximise,
/// frequency maximises, area and latency minimise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Protection capacity (maximised).
    pub entries: usize,
    /// Hot-device capacity (maximised).
    pub cam_ways: usize,
    /// Achievable clock in MHz (maximised).
    pub freq_mhz: f64,
    /// LUT% + FF% (minimised).
    pub area_pct: f64,
    /// Modelled p99 check latency in ns (minimised).
    pub p99_ns: f64,
}

/// Whether `a` Pareto-dominates `b`: weakly better on all five objectives
/// and strictly better on at least one.
pub fn dominates(a: &Objectives, b: &Objectives) -> bool {
    let weak = a.entries >= b.entries
        && a.cam_ways >= b.cam_ways
        && a.freq_mhz >= b.freq_mhz
        && a.area_pct <= b.area_pct
        && a.p99_ns <= b.p99_ns;
    let strict = a.entries > b.entries
        || a.cam_ways > b.cam_ways
        || a.freq_mhz > b.freq_mhz
        || a.area_pct < b.area_pct
        || a.p99_ns < b.p99_ns;
    weak && strict
}

/// Indices (ascending) of the non-dominated members of `objs`. O(n²) on
/// purpose: the property suite uses this as the independent oracle and the
/// sweeps are small.
pub fn frontier_indices(objs: &[Objectives]) -> Vec<usize> {
    (0..objs.len())
        .filter(|&i| !objs.iter().any(|other| dominates(other, &objs[i])))
        .collect()
}

/// A sweep: one value list per sizing knob; the cross product is the
/// candidate set. [`Sweep::canonicalized`] sorts and dedups every axis, so
/// any permutation (or duplication) of the declared values enumerates the
/// identical point list — the permutation-invariance property holds by
/// construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sweep {
    /// Entry counts to sweep.
    pub entries: Vec<usize>,
    /// CAM way counts to sweep.
    pub cam_ways: Vec<usize>,
    /// Pipeline depths to sweep.
    pub stages: Vec<u8>,
    /// Decision-cache sizes to sweep (0 = no cache).
    pub cache_slots: Vec<usize>,
    /// Shard counts to sweep.
    pub shards: Vec<usize>,
}

impl Sweep {
    /// The paper point alone (the golden-test sweep).
    pub fn paper() -> Sweep {
        let p = DesignPoint::paper();
        Sweep {
            entries: vec![p.entries],
            cam_ways: vec![p.cam_ways],
            stages: vec![p.stages],
            cache_slots: vec![p.cache_slots],
            shards: vec![p.shards],
        }
    }

    /// The default smoke sweep: 96 points bracketing the paper point on
    /// every axis (used by the CLI with no files and by the CI smoke job).
    pub fn smoke() -> Sweep {
        Sweep {
            entries: vec![256, 512, 1024, 2048],
            cam_ways: vec![16, 64],
            stages: vec![1, 2, 3],
            cache_slots: vec![0, 1024],
            shards: vec![1, 2],
        }
    }

    /// Sorts and dedups every axis in place.
    pub fn canonicalize(&mut self) {
        self.entries.sort_unstable();
        self.entries.dedup();
        self.cam_ways.sort_unstable();
        self.cam_ways.dedup();
        self.stages.sort_unstable();
        self.stages.dedup();
        self.cache_slots.sort_unstable();
        self.cache_slots.dedup();
        self.shards.sort_unstable();
        self.shards.dedup();
    }

    /// The canonical form (sorted, deduped axes).
    pub fn canonicalized(mut self) -> Sweep {
        self.canonicalize();
        self
    }

    /// Number of points the cross product enumerates.
    pub fn len(&self) -> usize {
        self.entries.len()
            * self.cam_ways.len()
            * self.stages.len()
            * self.cache_slots.len()
            * self.shards.len()
    }

    /// Whether any axis is empty (no points).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the cross product in canonical axis order (entries
    /// outermost, shards innermost).
    pub fn points(&self) -> Vec<DesignPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &entries in &self.entries {
            for &cam_ways in &self.cam_ways {
                for &stages in &self.stages {
                    for &cache_slots in &self.cache_slots {
                        for &shards in &self.shards {
                            out.push(DesignPoint {
                                entries,
                                cam_ways,
                                stages,
                                cache_slots,
                                shards,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::FIGURE14_ENTRIES;

    fn bits(x: f64) -> u64 {
        x.to_bits()
    }

    #[test]
    fn paper_point_reuses_fig10_fig14_models_bitwise() {
        // The explorer must not fork the calibrated models: at shards == 1
        // its checker cost IS `estimate()` and its timing IS `analyze()`,
        // down to the bit pattern.
        let kind = CheckerKind::MtChecker {
            stages: 3,
            tree_arity: 2,
        };
        let cost = evaluate(DesignPoint::paper());
        let area = estimate(kind, 1024);
        let timing = analyze(kind, 1024);
        assert_eq!(bits(cost.checker.lut_pct), bits(area.lut_pct));
        assert_eq!(bits(cost.checker.ff_pct), bits(area.ff_pct));
        assert_eq!(
            bits(cost.timing.critical_path_ns),
            bits(timing.critical_path_ns)
        );
        assert_eq!(
            bits(cost.timing.achievable_mhz),
            bits(timing.achievable_mhz)
        );
        assert!(cost.timing.meets_platform_target);
    }

    #[test]
    fn single_stage_point_is_fig14s_tree_column() {
        // A 1-stage MT checker is the pure tree-arbitration design: its
        // area must match fig14's tree column bitwise at every swept size.
        for n in FIGURE14_ENTRIES {
            let point = DesignPoint {
                entries: n,
                cam_ways: 64,
                stages: 1,
                cache_slots: 0,
                shards: 1,
            };
            let tree = estimate(CheckerKind::Tree { tree_arity: 2 }, n);
            let cost = evaluate(point);
            assert_eq!(bits(cost.checker.lut_pct), bits(tree.lut_pct), "n={n}");
            assert_eq!(bits(cost.checker.ff_pct), bits(tree.ff_pct), "n={n}");
        }
    }

    #[test]
    fn area_is_monotone_in_entries_and_cam_ways() {
        let mut prev = 0.0;
        for entries in [64, 128, 256, 512, 1024, 2048] {
            let p = DesignPoint {
                entries,
                ..DesignPoint::paper()
            };
            let a = evaluate(p).area_pct();
            assert!(a > prev, "entries={entries}");
            prev = a;
        }
        let mut prev = 0.0;
        for cam_ways in [4, 16, 64, 128, 256] {
            let p = DesignPoint {
                cam_ways,
                ..DesignPoint::paper()
            };
            let a = evaluate(p).area_pct();
            assert!(a > prev, "cam_ways={cam_ways}");
            prev = a;
        }
    }

    #[test]
    fn sharding_trades_area_for_frequency() {
        // Two 512-entry shards close timing like a 512-entry checker but
        // cost exactly two of them.
        let two = DesignPoint {
            shards: 2,
            ..DesignPoint::paper()
        };
        let cost = evaluate(two);
        let kind = two.checker();
        let half = analyze(kind, 512);
        assert_eq!(bits(cost.timing.achievable_mhz), bits(half.achievable_mhz));
        let one = estimate(kind, 512);
        assert_eq!(bits(cost.checker.lut_pct), bits(one.lut_pct * 2.0));
        assert!(cost.checker.lut_pct > evaluate(DesignPoint::paper()).checker.lut_pct);
    }

    #[test]
    fn small_cam_pays_a_cold_switch_on_the_p99_path() {
        let big = DesignPoint::paper();
        let small = DesignPoint { cam_ways: 8, ..big };
        let sim = 40;
        assert_eq!(
            check_p99_cycles(small, sim),
            check_p99_cycles(big, sim) + cold_switch_cycles(SWITCH_COLD_ENTRIES)
        );
        // 17 ways (16 hot + the cold slot) is the smallest CAM that holds
        // the sample working set.
        let exact = DesignPoint {
            cam_ways: 17,
            ..big
        };
        assert_eq!(check_p99_cycles(exact, sim), check_p99_cycles(big, sim));
    }

    #[test]
    fn covering_cache_bypasses_the_pipeline() {
        let cached = DesignPoint::paper(); // stages 3, cache 1024
        let uncached = DesignPoint {
            cache_slots: 0,
            ..cached
        };
        assert_eq!(check_p99_cycles(uncached, 40), 40);
        assert_eq!(check_p99_cycles(cached, 40), 38);
        // A combinational checker has nothing to bypass.
        let flat = DesignPoint {
            stages: 1,
            ..cached
        };
        assert_eq!(check_p99_cycles(flat, 40), 40);
    }

    #[test]
    fn paper_point_check_latency_is_50ns() {
        // 3 pipeline cycles at the 60 MHz platform clock.
        let ns = DesignPoint::paper().check_latency_ns();
        assert!((ns - 50.0).abs() < 1e-9, "got {ns}");
    }

    #[test]
    fn dominance_is_irreflexive_and_directional() {
        let base = evaluate(DesignPoint::paper()).objectives(50.0);
        assert!(!dominates(&base, &base));
        let worse = Objectives {
            area_pct: base.area_pct + 1.0,
            ..base
        };
        assert!(dominates(&base, &worse));
        assert!(!dominates(&worse, &base));
    }

    #[test]
    fn frontier_oracle_rejects_dominated_points() {
        let a = Objectives {
            entries: 1024,
            cam_ways: 64,
            freq_mhz: 60.0,
            area_pct: 2.0,
            p99_ns: 500.0,
        };
        let dominated = Objectives { area_pct: 3.0, ..a };
        let smaller_cheaper = Objectives {
            entries: 256,
            area_pct: 1.0,
            ..a
        };
        let front = frontier_indices(&[a, dominated, smaller_cheaper]);
        // The smaller-but-cheaper point survives (capacity is an
        // objective); the strictly-worse one does not.
        assert_eq!(front, vec![0, 2]);
    }

    #[test]
    fn sweep_canonicalization_is_permutation_invariant() {
        let a = Sweep {
            entries: vec![1024, 256, 512, 256],
            cam_ways: vec![64, 16],
            stages: vec![3, 1],
            cache_slots: vec![1024, 0],
            shards: vec![2, 1],
        }
        .canonicalized();
        let b = Sweep {
            entries: vec![256, 512, 1024],
            cam_ways: vec![16, 64],
            stages: vec![1, 3],
            cache_slots: vec![0, 1024],
            shards: vec![1, 2],
        }
        .canonicalized();
        assert_eq!(a, b);
        assert_eq!(a.points(), b.points());
        assert_eq!(a.len(), 3 * 2 * 2 * 2 * 2);
    }

    #[test]
    fn smoke_sweep_contains_the_paper_point() {
        assert!(Sweep::smoke().points().contains(&DesignPoint::paper()));
        assert_eq!(Sweep::paper().points(), vec![DesignPoint::paper()]);
    }
}
