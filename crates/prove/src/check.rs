//! The per-state proof obligations.
//!
//! Every canonically-distinct state the explorer reaches is pushed
//! through [`check_state`], which asserts three things:
//!
//! 1. **Isolation** — every probe the hardware allows comes from a
//!    known device and lies entirely inside that device's tenant
//!    region; additionally the *abstract* reachability map of every
//!    device-backed SID view stays inside the owner region (so a gap in
//!    the probe grid cannot hide a violation the interval map exposes).
//! 2. **Cross-validation soundness** — [`siopmp_verify::analyze`]'s
//!    [`Report::predict`] must agree with the concrete checker on every
//!    probe, and every actually-violating probe must be covered by an
//!    Error-severity diagnostic (a missed violation is a hard soundness
//!    failure of the analyzer).
//! 3. **False-positive accounting** — every Error diagnostic must be
//!    corroborated by an allowed probe overlapping the flagged region;
//!    uncorroborated Errors are counted (not failed) and surface as the
//!    measured false-positive rate in the JSON report.
//!
//! [`Report::predict`]: siopmp_verify::Report::predict

use crate::model::Model;
use siopmp::request::DmaRequest;
use siopmp::Siopmp;
use siopmp_verify::{analyze, CapabilityMap, Severity};

/// What one state contributed to the proof: hard failures (isolation,
/// soundness) and false-positive bookkeeping.
#[derive(Debug, Default, Clone)]
pub struct StateFindings {
    /// Isolation-invariant violations (hard failures).
    pub isolation: Vec<String>,
    /// Analyzer soundness failures: predict/check divergence or a
    /// violating probe no Error diagnostic covers (hard failures).
    pub soundness: Vec<String>,
    /// Probes evaluated in this state.
    pub probes: u64,
    /// Error-severity diagnostics the analyzer raised.
    pub errors: u64,
    /// Errors corroborated by an allowed probe inside the region.
    pub corroborated: u64,
    /// Errors with no probe witness (the false-positive numerator).
    pub spurious: u64,
}

impl StateFindings {
    /// Whether this state tripped any *hard* check (planted-mutation
    /// detection also accepts a corroborated analyzer Error).
    pub fn clean(&self) -> bool {
        self.isolation.is_empty() && self.soundness.is_empty()
    }
}

/// Runs every proof obligation against one concrete state.
///
/// Probing goes through a [`SharedSiopmp`](siopmp::SharedSiopmp) handle:
/// snapshot routing is pure (no CAM reference-bit training), so checking
/// a state never perturbs its canonical encoding — the explorer relies on
/// this.
pub fn check_state(
    unit: &Siopmp,
    model: &Model,
    probes: &[DmaRequest],
    caps: &CapabilityMap,
) -> StateFindings {
    let shared = unit.share();
    let outcomes = shared.check_batch(probes);
    let report = analyze(unit, Some(caps));
    let mut f = StateFindings {
        probes: probes.len() as u64,
        ..StateFindings::default()
    };

    // Probe-level isolation + predict/check agreement.
    let mut violating: Vec<&DmaRequest> = Vec::new();
    for (req, outcome) in probes.iter().zip(&outcomes) {
        let predicted = report.predict(req.device(), req.kind(), req.addr(), req.len());
        if !predicted.agrees_with(outcome) {
            f.soundness.push(format!(
                "predict/check divergence: {:?} {:?} addr={:#x} len={:#x} — \
                 analyzer predicted {predicted:?}, hardware said {outcome:?}",
                req.device(),
                req.kind(),
                req.addr(),
                req.len()
            ));
        }
        if outcome.is_allowed() {
            let inside = model
                .tenant_of(req.device())
                .is_some_and(|t| t.contains(req.addr(), req.len()));
            if !inside {
                f.isolation.push(format!(
                    "{:?} {:?} allowed at addr={:#x} len={:#x} outside its tenant region",
                    req.device(),
                    req.kind(),
                    req.addr(),
                    req.len()
                ));
                violating.push(req);
            }
        }
    }

    // Abstract isolation: the interval map of every device-backed view
    // must stay inside the owner's region (covers bytes the grid skips).
    for view in report.views() {
        let Some(device) = view.device else { continue };
        let Some(tenant) = model.tenant_of(device) else {
            // A view backed by a device no tenant owns is itself a leak.
            f.isolation.push(format!(
                "{:?} resolves to unknown device {device:?}",
                view.sid
            ));
            continue;
        };
        for iv in &view.intervals {
            if !iv.perms.read() && !iv.perms.write() {
                continue;
            }
            if iv.start < tenant.region.0 || iv.end > tenant.region.1 {
                f.isolation.push(format!(
                    "{:?} ({device:?}) reaches [{:#x}, {:#x}) escaping tenant {} \
                     region [{:#x}, {:#x})",
                    view.sid, iv.start, iv.end, tenant.id, tenant.region.0, tenant.region.1
                ));
            }
        }
    }

    // Error corroboration: measured false positives, never silent.
    let error_diags: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    for diag in &error_diags {
        f.errors += 1;
        let witnessed = match (diag.device, diag.region) {
            (Some(device), Some((start, end))) => {
                probes.iter().zip(&outcomes).any(|(req, outcome)| {
                    outcome.is_allowed()
                        && req.device() == device
                        && !req.is_empty()
                        && req.addr() < end
                        && req.addr().saturating_add(req.len()) > start
                })
            }
            _ => false,
        };
        if witnessed {
            f.corroborated += 1;
        } else {
            f.spurious += 1;
        }
    }

    // A violating probe no Error covers = the analyzer *missed* a real
    // isolation breach: hard soundness failure.
    for req in violating {
        let covered = error_diags.iter().any(|d| {
            d.device == Some(req.device())
                && d.region.is_some_and(|(start, end)| {
                    req.addr() < end && req.addr().saturating_add(req.len()) > start
                })
        });
        if !covered {
            f.soundness.push(format!(
                "violating access {:?} {:?} addr={:#x} len={:#x} is covered by no \
                 Error diagnostic — the analyzer missed a real breach",
                req.device(),
                req.kind(),
                req.addr(),
                req.len()
            ));
        }
    }

    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn the_initial_micro_state_is_clean() {
        let model = Model::two_tenant_micro();
        let probes = model.probes();
        let caps = model.caps();
        let f = check_state(&model.initial, &model, &probes, &caps);
        assert!(f.clean(), "initial state dirty: {f:?}");
        assert_eq!(f.errors, 0, "caps are complete — no Errors expected");
        assert_eq!(f.probes, probes.len() as u64);
    }

    #[test]
    fn checking_a_state_does_not_perturb_its_canonical_encoding() {
        let model = Model::two_tenant_micro();
        let probes = model.probes();
        let caps = model.caps();
        let before = model.initial.canonical_state();
        let _ = check_state(&model.initial, &model, &probes, &caps);
        let _ = check_state(&model.initial, &model, &probes, &caps);
        assert_eq!(before, model.initial.canonical_state());
    }
}
