//! Runtime counters exposed by the sIOPMP unit.
//!
//! The hardware exposes these through MMIO status registers; the monitor's
//! implicit hot/cold promotion policy reads them (a device that keeps
//! appearing in `cold_switches` should be promoted to a hot SID, §4.3).
//!
//! Since the observability rework these counters live in the unit's
//! [`crate::telemetry::Telemetry`] registry (under `siopmp.*` names);
//! [`SiopmpStats`] is the legacy *view* materialized from those counters by
//! [`CoreCounters::snapshot`].

use crate::telemetry::{Counter, Telemetry};

/// Counters accumulated by one [`crate::Siopmp`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiopmpStats {
    /// Total checks performed.
    pub checks: u64,
    /// Checks that were allowed.
    pub allowed: u64,
    /// Checks denied by a matching entry without permission.
    pub denied_permission: u64,
    /// Checks denied because no entry matched.
    pub denied_no_match: u64,
    /// Requests stalled because their SID was blocked (atomicity, §5.3).
    pub blocked: u64,
    /// SID-missing interrupts raised (cold device with no mounted state).
    pub sid_missing_interrupts: u64,
    /// Cold-device switches completed.
    pub cold_switches: u64,
    /// Requests satisfied through the eSID (mounted cold device) path.
    pub cold_hits: u64,
    /// Requests satisfied through the CAM (hot device) path.
    pub hot_hits: u64,
    /// Violation interrupts raised.
    pub violations: u64,
    /// Checks answered from the page-granular decision cache.
    pub cache_hits: u64,
    /// Cache-eligible checks that had to walk the compiled view.
    pub cache_misses: u64,
    /// Compiled per-SID views (re)built, once per SID per published
    /// snapshot.
    pub cache_view_rebuilds: u64,
    /// Violation records dropped because the bounded log was full.
    pub violation_log_dropped: u64,
}

impl SiopmpStats {
    /// Fraction of checks that were denied (either way); `0.0` when no
    /// checks have been performed.
    pub fn deny_rate(&self) -> f64 {
        if self.checks == 0 {
            return 0.0;
        }
        (self.denied_permission + self.denied_no_match) as f64 / self.checks as f64
    }

    /// Fraction of cache-eligible checks answered from the decision
    /// cache; `0.0` before any eligible check.
    pub fn cache_hit_rate(&self) -> f64 {
        let eligible = self.cache_hits + self.cache_misses;
        if eligible == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / eligible as f64
    }
}

/// Pre-resolved [`Counter`] handles for every `siopmp.*` metric, so the
/// check hot path pays one relaxed atomic add per event instead of a
/// registry lookup.
#[derive(Debug, Clone)]
pub struct CoreCounters {
    /// `siopmp.checks`
    pub checks: Counter,
    /// `siopmp.allowed`
    pub allowed: Counter,
    /// `siopmp.denied_permission`
    pub denied_permission: Counter,
    /// `siopmp.denied_no_match`
    pub denied_no_match: Counter,
    /// `siopmp.blocked`
    pub blocked: Counter,
    /// `siopmp.sid_missing_interrupts`
    pub sid_missing_interrupts: Counter,
    /// `siopmp.cold_switches`
    pub cold_switches: Counter,
    /// `siopmp.cold_hits`
    pub cold_hits: Counter,
    /// `siopmp.hot_hits`
    pub hot_hits: Counter,
    /// `siopmp.violations`
    pub violations: Counter,
    /// `siopmp.cache.hits`
    pub cache_hits: Counter,
    /// `siopmp.cache.misses`
    pub cache_misses: Counter,
    /// `siopmp.cache.view_rebuilds`
    pub cache_view_rebuilds: Counter,
    /// `siopmp.violation_log_dropped`
    pub violation_log_dropped: Counter,
}

impl CoreCounters {
    /// Resolves (creating on first use) every `siopmp.*` counter in `t`.
    pub fn attach(t: &Telemetry) -> Self {
        CoreCounters {
            checks: t.counter("siopmp.checks"),
            allowed: t.counter("siopmp.allowed"),
            denied_permission: t.counter("siopmp.denied_permission"),
            denied_no_match: t.counter("siopmp.denied_no_match"),
            blocked: t.counter("siopmp.blocked"),
            sid_missing_interrupts: t.counter("siopmp.sid_missing_interrupts"),
            cold_switches: t.counter("siopmp.cold_switches"),
            cold_hits: t.counter("siopmp.cold_hits"),
            hot_hits: t.counter("siopmp.hot_hits"),
            violations: t.counter("siopmp.violations"),
            cache_hits: t.counter("siopmp.cache.hits"),
            cache_misses: t.counter("siopmp.cache.misses"),
            cache_view_rebuilds: t.counter("siopmp.cache.view_rebuilds"),
            violation_log_dropped: t.counter("siopmp.violation_log_dropped"),
        }
    }

    /// Materializes the legacy stats struct from the live counters.
    pub fn snapshot(&self) -> SiopmpStats {
        SiopmpStats {
            checks: self.checks.get(),
            allowed: self.allowed.get(),
            denied_permission: self.denied_permission.get(),
            denied_no_match: self.denied_no_match.get(),
            blocked: self.blocked.get(),
            sid_missing_interrupts: self.sid_missing_interrupts.get(),
            cold_switches: self.cold_switches.get(),
            cold_hits: self.cold_hits.get(),
            hot_hits: self.hot_hits.get(),
            violations: self.violations.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_view_rebuilds: self.cache_view_rebuilds.get(),
            violation_log_dropped: self.violation_log_dropped.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_materialize_into_stats() {
        let t = Telemetry::new();
        let c = CoreCounters::attach(&t);
        c.checks.add(4);
        c.hot_hits.add(3);
        c.denied_no_match.inc();
        let s = c.snapshot();
        assert_eq!(s.checks, 4);
        assert_eq!(s.hot_hits, 3);
        assert_eq!(s.denied_no_match, 1);
        // The same numbers are visible through the registry.
        assert_eq!(t.snapshot().counters["siopmp.checks"], 4);
    }

    #[test]
    fn cache_counters_materialize_under_their_namespace() {
        let t = Telemetry::new();
        let c = CoreCounters::attach(&t);
        c.cache_hits.add(3);
        c.cache_misses.inc();
        c.cache_view_rebuilds.inc();
        c.violation_log_dropped.add(5);
        let s = c.snapshot();
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_view_rebuilds, 1);
        assert_eq!(s.violation_log_dropped, 5);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(t.snapshot().counters["siopmp.cache.hits"], 3);
    }

    #[test]
    fn cache_hit_rate_handles_no_eligible_checks() {
        assert_eq!(SiopmpStats::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn deny_rate_handles_zero_checks() {
        assert_eq!(SiopmpStats::default().deny_rate(), 0.0);
    }

    #[test]
    fn deny_rate_counts_both_kinds() {
        let s = SiopmpStats {
            checks: 10,
            denied_permission: 2,
            denied_no_match: 3,
            ..Default::default()
        };
        assert!((s.deny_rate() - 0.5).abs() < 1e-12);
    }
}
