//! An NVDLA-flavoured accelerator model: large streaming reads of weights
//! and activations, followed by result writes.

use siopmp::ids::DeviceId;
use siopmp::telemetry::{Counter, Telemetry};
use siopmp_bus::{BurstKind, BurstRequest, MasterProgram};

/// Pre-resolved handles for the `accel.*` metrics.
#[derive(Debug, Clone)]
struct AccelCounters {
    jobs: Counter,
    bursts_emitted: Counter,
}

impl AccelCounters {
    fn attach(t: &Telemetry) -> Self {
        AccelCounters {
            jobs: t.counter("accel.jobs"),
            bursts_emitted: t.counter("accel.bursts_emitted"),
        }
    }
}

/// One inference job's memory footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelJob {
    /// Base of the weight buffer (read).
    pub weights_base: u64,
    /// Bytes of weights.
    pub weights_len: u64,
    /// Base of the activation/input buffer (read).
    pub input_base: u64,
    /// Bytes of input.
    pub input_len: u64,
    /// Base of the output buffer (write).
    pub output_base: u64,
    /// Bytes of output.
    pub output_len: u64,
}

/// A deep-learning accelerator: the paper's NVDLA device (Table 2).
///
/// Unlike the NIC's many small buffers, the accelerator streams a few very
/// large contiguous regions — the *light load* end of Table 1's workload
/// spectrum (fixed mapping, bandwidth-bound).
///
/// # Examples
///
/// ```
/// use siopmp_devices::accel::{Accelerator, AccelJob};
/// let acc = Accelerator::build(0x200, None);
/// let job = AccelJob {
///     weights_base: 0x9000_0000, weights_len: 4096,
///     input_base: 0x9100_0000, input_len: 1024,
///     output_base: 0x9200_0000, output_len: 512,
/// };
/// let prog = acc.job_program(&job);
/// assert_eq!(prog.bursts.len(), (4096 + 1024 + 512) / 64);
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    device_id: u64,
    telemetry: Telemetry,
    counters: AccelCounters,
}

impl Accelerator {
    /// Creates an accelerator with packet-level `device_id`, registering
    /// its `accel.*` metrics in `telemetry` — pass `None` for a private
    /// registry.
    pub fn build(device_id: u64, telemetry: impl Into<Option<Telemetry>>) -> Self {
        let telemetry = telemetry.into().unwrap_or_else(Telemetry::new);
        Accelerator {
            device_id,
            counters: AccelCounters::attach(&telemetry),
            telemetry,
        }
    }

    /// The accelerator's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The accelerator's device ID.
    pub fn device_id(&self) -> DeviceId {
        DeviceId(self.device_id)
    }

    /// Burst program for one job: stream weights, stream input, write
    /// output, 64 bytes per burst.
    pub fn job_program(&self, job: &AccelJob) -> MasterProgram {
        let dev = DeviceId(self.device_id);
        let mut program = MasterProgram::uniform(self.device_id, BurstKind::Read, 0, 0);
        let mut push = |kind, base: u64, len: u64| {
            for b in 0..len.div_ceil(64) {
                program.bursts.push(BurstRequest {
                    device: dev,
                    kind,
                    addr: base + 64 * b,
                });
            }
        };
        push(BurstKind::Read, job.weights_base, job.weights_len);
        push(BurstKind::Read, job.input_base, job.input_len);
        push(BurstKind::Write, job.output_base, job.output_len);
        program.outstanding = 16; // accelerators saturate the bus
        self.counters.jobs.inc();
        self.counters
            .bursts_emitted
            .add(program.bursts.len() as u64);
        program
    }

    /// The job's memory regions as `(base, len, writable)` triples.
    pub fn required_regions(&self, job: &AccelJob) -> Vec<(u64, u64, bool)> {
        vec![
            (job.weights_base, job.weights_len, false),
            (job.input_base, job.input_len, false),
            (job.output_base, job.output_len, true),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> AccelJob {
        AccelJob {
            weights_base: 0x1000,
            weights_len: 256,
            input_base: 0x2000,
            input_len: 128,
            output_base: 0x3000,
            output_len: 64,
        }
    }

    #[test]
    fn program_streams_all_regions() {
        let acc = Accelerator::build(9, None);
        let p = acc.job_program(&job());
        assert_eq!(p.bursts.len(), 4 + 2 + 1);
        let writes = p
            .bursts
            .iter()
            .filter(|b| b.kind == BurstKind::Write)
            .count();
        assert_eq!(writes, 1);
        assert_eq!(p.outstanding, 16);
    }

    #[test]
    fn regions_mark_only_output_writable() {
        let acc = Accelerator::build(9, None);
        let regions = acc.required_regions(&job());
        assert_eq!(regions.iter().filter(|(_, _, w)| *w).count(), 1);
        assert_eq!(regions[2].0, 0x3000);
    }

    #[test]
    fn telemetry_counts_jobs() {
        let t = Telemetry::new();
        let acc = Accelerator::build(9, t.clone());
        let p = acc.job_program(&job());
        let snap = t.snapshot();
        assert_eq!(snap.counters["accel.jobs"], 1);
        assert_eq!(snap.counters["accel.bursts_emitted"], p.bursts.len() as u64);
    }

    #[test]
    fn odd_lengths_round_up_to_bursts() {
        let acc = Accelerator::build(9, None);
        let j = AccelJob {
            weights_len: 65,
            input_len: 1,
            output_len: 63,
            ..job()
        };
        let p = acc.job_program(&j);
        assert_eq!(p.bursts.len(), 2 + 1 + 1);
    }
}
