//! The cycle-driven bus simulation engine.
//!
//! Topology (Figure 6 of the paper): each master's bursts pass through the
//! IOPMP checker shim, win arbitration on the shared request channel (A),
//! reach memory, and return over the shared response channel (D). Both
//! channels carry one beat per cycle and are **burst-atomic**: once a burst
//! starts transferring, it keeps its channel until the last beat (as
//! TileLink/AXI slaves deliver bursts contiguously).
//!
//! Timing rules:
//!
//! * a read burst sends 1 request beat and receives `beats_per_burst`
//!   response beats after `mem_read_latency` (+1 per checker pipeline
//!   stage, +1 for packet-masking response interposition);
//! * a write burst sends `beats_per_burst` request beats and receives one
//!   acknowledgement beat after `mem_write_latency`. Writes are **early
//!   validated**: the address beat is checked while the data beats are
//!   still streaming, so checker pipeline latency is hidden behind the
//!   burst itself (§6.2: "a write request can be early validated");
//! * a denied burst under bus-error handling is truncated: the dummy node
//!   answers with a single error beat one cycle after the check resolves
//!   and the master cancels its remaining request beats;
//! * a denied burst under packet masking runs to completion with masked
//!   strobes / cleared data — same timing as a legal burst.

use crate::config::BusConfig;
use crate::faults::{FaultKind, FaultPlan};
use crate::master::MasterProgram;
use crate::packet::{BurstKind, BurstRequest, BurstStatus};
use crate::policy::{AccessPolicy, PolicyVerdict};
use crate::report::{MasterReport, SimReport};
use crate::trace::{TraceBuffer, TraceEvent, TraceKind};
use siopmp::ids::DeviceId;
use siopmp::telemetry::{Counter, Histogram, Telemetry};

/// Cycles a master pauses after its device resets mid-DMA before it may
/// issue again (firmware re-initialising rings and doorbells).
pub const RESET_RECOVERY_CYCLES: u64 = 16;

/// Pre-resolved handles for the `bus.*` metrics, mirroring the aggregate
/// side of [`SimReport`] into the shared registry (the per-master breakdown
/// stays in [`MasterReport`]; these are the fleet-wide view).
#[derive(Debug, Clone)]
struct BusCounters {
    bursts_issued: Counter,
    bursts_completed: Counter,
    bursts_ok: Counter,
    bursts_masked: Counter,
    bursts_bus_error: Counter,
    bursts_stalled: Counter,
    bursts_sid_missing: Counter,
    bytes_transferred: Counter,
    retries: Counter,
    retry_exhausted: Counter,
    backoff_cycles: Counter,
    faults_injected: Counter,
}

impl BusCounters {
    fn attach(t: &Telemetry) -> Self {
        BusCounters {
            bursts_issued: t.counter("bus.bursts_issued"),
            bursts_completed: t.counter("bus.bursts_completed"),
            bursts_ok: t.counter("bus.bursts_ok"),
            bursts_masked: t.counter("bus.bursts_masked"),
            bursts_bus_error: t.counter("bus.bursts_bus_error"),
            bursts_stalled: t.counter("bus.bursts_stalled"),
            bursts_sid_missing: t.counter("bus.bursts_sid_missing"),
            bytes_transferred: t.counter("bus.bytes_transferred"),
            retries: t.counter("bus.retries"),
            retry_exhausted: t.counter("bus.retry_exhausted"),
            backoff_cycles: t.counter("bus.backoff_cycles"),
            faults_injected: t.counter("bus.faults_injected"),
        }
    }
}

/// One authorisation decision as resolved at issue time, plus how the
/// burst eventually terminated. The `generation` field counts the
/// control-plane mutations applied so far, which is what lets a post-hoc
/// differential pin every verdict to the exact configuration that was
/// live when it was made (see the chaos suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Cycle the burst was issued (and the verdict resolved).
    pub cycle: u64,
    /// Issuing master's index.
    pub master: usize,
    /// Device the burst claims to be from.
    pub device: DeviceId,
    /// Read or write.
    pub kind: BurstKind,
    /// Target address.
    pub addr: u64,
    /// Checked length in bytes (one burst).
    pub len: u64,
    /// The verdict the checker pinned to the burst at issue.
    pub verdict: PolicyVerdict,
    /// Control-plane configuration generation live at issue time.
    pub generation: u64,
    /// Retry attempt number (0 = first issue).
    pub attempt: u32,
    /// Terminal status, filled when the burst resolves (`None` if the
    /// run stopped while it was still in flight).
    pub status: Option<BurstStatus>,
}

#[derive(Debug)]
struct Flight {
    master: usize,
    req: BurstRequest,
    kind: BurstKind,
    verdict: PolicyVerdict,
    issue_cycle: u64,
    req_beats_sent: u32,
    req_beats_total: u32,
    arrival_at_mem: Option<u64>,
    resp_ready_at: Option<u64>,
    resp_beats_recv: u32,
    resp_beats_total: u32,
    cancelled: bool,
    /// A fault hit this flight (slave error / reset / forced abort), so
    /// its terminal error is transient rather than a protection verdict.
    faulted: bool,
    attempt: u32,
    decision: Option<usize>,
    done: Option<BurstStatus>,
}

#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    eligible: u64,
    burst: BurstRequest,
    attempt: u32,
}

/// A burst that completed `Ok` against an address *outside* this
/// simulator's home window — traffic bound for another shard of a
/// [`crate::parallel::ParallelSim`]. The coordinator collects these at
/// every epoch barrier and re-injects them into the owning shard in
/// `(cycle, domain, master, seq)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgressRecord {
    /// Cycle the burst completed locally.
    pub cycle: u64,
    /// Index of the master that issued it.
    pub master: usize,
    /// Per-simulator monotone sequence number — the deterministic
    /// tie-break for bursts completing on the same cycle from the same
    /// master.
    pub seq: u64,
    /// The completed burst (original device ID preserved, so the
    /// destination shard's policy re-checks it under that identity).
    pub burst: BurstRequest,
}

#[derive(Debug)]
struct MasterState {
    program: MasterProgram,
    next_burst: usize,
    in_flight: usize,
    next_issue_ok: u64,
    retry_queue: Vec<RetryEntry>,
    report: MasterReport,
}

/// The simulator: masters, channels, memory, and the checker shim.
///
/// See the [crate-level docs](crate) for an end-to-end example.
pub struct BusSim {
    config: BusConfig,
    policy: Box<dyn AccessPolicy>,
    masters: Vec<MasterState>,
    /// Flights in issue order. Resolved flights stay until they make up
    /// half the table, then `retire_resolved` drops them, so every
    /// per-cycle scan costs O(live flights), not O(flights ever issued).
    flights: Vec<Flight>,
    /// Resolved flights still in `flights`.
    resolved: usize,
    /// Whether flights issued after the last one in `flights` have been
    /// retired, i.e. the last slot no longer holds the newest flight.
    tail_retired: bool,
    a_owner: Option<usize>,
    d_owner: Option<usize>,
    rr_a: usize,
    rr_d: usize,
    cycle: u64,
    trace: Option<TraceBuffer>,
    telemetry: Telemetry,
    counters: BusCounters,
    burst_latency: Histogram,
    plan: FaultPlan,
    plan_cursor: usize,
    generation: u64,
    a_stall_until: u64,
    control_faults: usize,
    decision_log: Option<Vec<DecisionRecord>>,
    /// Reused per-cycle buffer for the two-phase (select, then batch-decide)
    /// issue path; always empty between steps.
    issue_scratch: Vec<(usize, BurstRequest, u32)>,
    /// Addresses this simulator owns; `Ok` completions outside it are
    /// captured as egress for a parallel coordinator. `None` (the serial
    /// default) captures nothing.
    home_window: Option<(u64, u64)>,
    egress: Vec<EgressRecord>,
    egress_seq: u64,
}

impl std::fmt::Debug for BusSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusSim")
            .field("cycle", &self.cycle)
            .field("masters", &self.masters.len())
            .field("flights", &self.flights.len())
            .finish()
    }
}

impl BusSim {
    /// Creates a simulator over `config` with the given access policy,
    /// registering its `bus.*` metrics (aggregate burst counters and the
    /// `bus.burst_latency_cycles` histogram) in `telemetry` — pass `None`
    /// for a private registry.
    pub fn build(
        config: BusConfig,
        policy: Box<dyn AccessPolicy>,
        telemetry: impl Into<Option<Telemetry>>,
    ) -> Self {
        let telemetry = telemetry.into().unwrap_or_else(Telemetry::new);
        BusSim {
            config,
            policy,
            masters: Vec::new(),
            flights: Vec::new(),
            resolved: 0,
            tail_retired: false,
            a_owner: None,
            d_owner: None,
            rr_a: 0,
            rr_d: 0,
            cycle: 0,
            trace: None,
            counters: BusCounters::attach(&telemetry),
            burst_latency: telemetry.histogram("bus.burst_latency_cycles"),
            telemetry,
            plan: FaultPlan::empty(),
            plan_cursor: 0,
            generation: 0,
            a_stall_until: 0,
            control_faults: 0,
            decision_log: None,
            issue_scratch: Vec::new(),
            home_window: None,
            egress: Vec::new(),
            egress_seq: 0,
        }
    }

    /// The simulator's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enables event tracing with a buffer of `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// The trace buffer, when tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Adds a master and returns its index.
    pub fn add_master(&mut self, program: MasterProgram) -> usize {
        self.masters.push(MasterState {
            program,
            next_burst: 0,
            in_flight: 0,
            next_issue_ok: 0,
            retry_queue: Vec::new(),
            report: MasterReport::default(),
        });
        self.masters.len() - 1
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Installs a fault plan; events at cycles already in the past are
    /// applied on the next step. Replaces any previous plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.plan_cursor = 0;
    }

    /// Control-plane configuration generation: bumped each time a fault
    /// (or [`BusSim::apply_control`]) actually changes the policy's
    /// configuration. Verdicts in the decision log are tagged with the
    /// generation live when they were resolved.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Applies a control op through the policy outside of any fault plan
    /// (monitor models use this to drive quiesced switches). Returns
    /// whether the configuration changed (and the generation advanced).
    pub fn apply_control(&mut self, op: &crate::policy::ControlOp) -> bool {
        let changed = self.policy.control(op);
        if changed {
            self.generation += 1;
        }
        changed
    }

    /// Starts recording one [`DecisionRecord`] per issued burst attempt.
    pub fn enable_decision_log(&mut self) {
        self.decision_log = Some(Vec::new());
    }

    /// The recorded decisions, when logging is enabled.
    pub fn decision_log(&self) -> Option<&[DecisionRecord]> {
        self.decision_log.as_deref()
    }

    /// The access policy.
    pub fn policy(&self) -> &dyn AccessPolicy {
        &*self.policy
    }

    /// Mutable access to the policy. Reconfiguring it directly bypasses
    /// generation tracking — prefer [`BusSim::apply_control`] when the
    /// decision log is in use.
    pub fn policy_mut(&mut self) -> &mut dyn AccessPolicy {
        &mut *self.policy
    }

    /// Bursts currently in flight that carry `device`'s ID — the quantity
    /// a quiesce/drain protocol must see reach zero before committing a
    /// switch affecting that device.
    pub fn in_flight_for_device(&self, device: DeviceId) -> usize {
        self.flights
            .iter()
            .filter(|f| f.done.is_none() && f.req.device == device)
            .count()
    }

    /// Total bursts currently in flight across all masters.
    pub fn in_flight_total(&self) -> usize {
        self.flights.iter().filter(|f| f.done.is_none()).count()
    }

    /// Forcibly aborts every in-flight burst carrying `device`'s ID (the
    /// drain protocol's timeout path). Each aborted burst terminates with
    /// a bus error this cycle; masters with a retry policy will re-issue
    /// it, re-deciding under whatever configuration is then live. Returns
    /// the number of bursts aborted.
    pub fn abort_in_flight_for_device(&mut self, device: DeviceId) -> usize {
        let t = self.cycle;
        let mut aborted = 0;
        for idx in 0..self.flights.len() {
            let f = &mut self.flights[idx];
            if f.done.is_none() && f.req.device == device {
                f.faulted = true;
                f.cancelled = true;
                self.resolve_terminal(idx, BurstStatus::BusError, t);
                aborted += 1;
            }
        }
        aborted
    }

    /// Whether every master has drained its program: nothing left to
    /// issue, nothing in flight, nothing queued for retry. Chaos tests
    /// step the simulator manually (snapshotting configuration between
    /// steps) and use this as their loop condition.
    pub fn all_done(&self) -> bool {
        self.masters.iter().all(|m| {
            m.next_burst == m.program.bursts.len() && m.in_flight == 0 && m.retry_queue.is_empty()
        })
    }

    /// Runs until every master drains its program or `max_cycles` elapse.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> SimReport {
        while !self.all_done() && self.cycle < max_cycles {
            self.step();
        }
        self.report()
    }

    /// The run's report as of the current cycle. `run_to_completion`
    /// returns exactly this; parallel coordinators call it per shard and
    /// concatenate.
    pub fn report(&self) -> SimReport {
        SimReport {
            cycles: self.cycle,
            masters: self.masters.iter().map(|m| m.report.clone()).collect(),
            completed: self.all_done(),
            control_faults: self.control_faults,
        }
    }

    /// Declares `[base, base + len)` as this simulator's own address space.
    /// From then on, every burst that completes `Ok` at an address outside
    /// the window is recorded as an [`EgressRecord`] for a parallel
    /// coordinator to collect with [`BusSim::take_egress`]. Serial,
    /// standalone simulations never set a window and are unaffected.
    pub fn set_home_window(&mut self, base: u64, len: u64) {
        self.home_window = Some((base, len));
    }

    /// The configured home window, if any.
    pub fn home_window(&self) -> Option<(u64, u64)> {
        self.home_window
    }

    /// Drains the egress records accumulated since the last call, in
    /// completion order (which is also `(cycle, master, seq)` order for a
    /// single shard, since `seq` is assigned at completion).
    pub fn take_egress(&mut self) -> Vec<EgressRecord> {
        std::mem::take(&mut self.egress)
    }

    /// Number of masters attached.
    pub fn master_count(&self) -> usize {
        self.masters.len()
    }

    /// Appends bursts to `master`'s program mid-run (the parallel engine's
    /// barrier-time delivery of cross-domain traffic). The master issues
    /// them after its current program position, under its usual
    /// outstanding/retry policy; a drained simulation becomes live again.
    pub fn extend_master_program(
        &mut self,
        master: usize,
        bursts: impl IntoIterator<Item = BurstRequest>,
    ) {
        self.masters[master].program.bursts.extend(bursts);
    }

    /// Advances the simulation by one cycle.
    pub fn step(&mut self) {
        let t = self.cycle;
        self.apply_faults(t);
        self.issue_bursts(t);
        self.channel_a_beat(t);
        self.memory_schedule(t);
        self.channel_d_beat(t);
        self.cycle += 1;
        if self.resolved > 0 && 2 * self.resolved >= self.flights.len() {
            self.retire_resolved();
        }
    }

    /// Drops every resolved flight, keeping the live ones in issue order.
    /// Channel owners move to their flights' new slots, and each
    /// round-robin pointer moves down by the number of flights dropped
    /// before it. The scans skip resolved flights anyway, so they visit
    /// the live flights in the same order as over a table that kept every
    /// flight; `tail_retired` preserves the one rule that depended on that
    /// table's length, the wrap after its last slot.
    fn retire_resolved(&mut self) {
        if self.flights.last().is_some_and(|f| f.done.is_some()) {
            self.tail_retired = true;
        }
        let (mut rr_a, mut rr_d) = (self.rr_a, self.rr_d);
        let mut kept = 0;
        for idx in 0..self.flights.len() {
            if self.flights[idx].done.is_some() {
                rr_a -= usize::from(idx < self.rr_a);
                rr_d -= usize::from(idx < self.rr_d);
                continue;
            }
            if self.a_owner == Some(idx) {
                self.a_owner = Some(kept);
            }
            if self.d_owner == Some(idx) {
                self.d_owner = Some(kept);
            }
            self.flights.swap(kept, idx);
            kept += 1;
        }
        self.flights.truncate(kept);
        self.rr_a = rr_a;
        self.rr_d = rr_d;
        self.resolved = 0;
    }

    /// Applies every fault-plan event scheduled at or before `t`.
    fn apply_faults(&mut self, t: u64) {
        while self.plan_cursor < self.plan.events().len()
            && self.plan.events()[self.plan_cursor].at <= t
        {
            let event = self.plan.events()[self.plan_cursor];
            self.plan_cursor += 1;
            self.apply_fault(t, event.kind);
        }
    }

    /// Oldest live (un-resolved, not already error-bound) flight of
    /// `master`, if any.
    fn pick_live_flight(&self, master: usize) -> Option<usize> {
        self.flights
            .iter()
            .position(|f| f.master == master && f.done.is_none() && !f.cancelled)
    }

    fn count_master_fault(&mut self, master: usize) {
        self.masters[master].report.faults_injected += 1;
        self.counters.faults_injected.inc();
    }

    fn apply_fault(&mut self, t: u64, kind: FaultKind) {
        match kind {
            FaultKind::SlaveError { master } => {
                let Some(idx) = self.pick_live_flight(master) else {
                    return;
                };
                let f = &mut self.flights[idx];
                // The slave errors the burst: truncate the response to one
                // more (error) beat, regardless of the verdict.
                f.faulted = true;
                f.cancelled = true;
                f.resp_beats_total = f.resp_beats_recv + 1;
                if f.resp_ready_at.is_none() {
                    f.resp_ready_at = Some(t + 1);
                }
                self.count_master_fault(master);
            }
            FaultKind::DropBeat { master } => {
                let Some(idx) = self.pick_live_flight(master) else {
                    return;
                };
                let f = &mut self.flights[idx];
                // A link-level retransmit: the lost beat is resent, so the
                // burst merely pays an extra channel slot.
                if f.resp_beats_recv > 0 && f.resp_beats_recv < f.resp_beats_total {
                    f.resp_beats_recv -= 1;
                } else if f.req_beats_sent > 0 && f.req_beats_sent < f.req_beats_total {
                    f.req_beats_sent -= 1;
                } else {
                    return;
                }
                self.count_master_fault(master);
            }
            FaultKind::DuplicateBeat { master } => {
                let Some(idx) = self.pick_live_flight(master) else {
                    return;
                };
                let f = &mut self.flights[idx];
                // The duplicated beat wastes a slot: push the next
                // response (or memory arrival) out by one cycle.
                if let Some(r) = f.resp_ready_at {
                    f.resp_ready_at = Some(r.max(t) + 1);
                } else if let Some(a) = f.arrival_at_mem {
                    f.arrival_at_mem = Some(a.max(t) + 1);
                } else {
                    return;
                }
                self.count_master_fault(master);
            }
            FaultKind::DelayedGrant { cycles } => {
                self.a_stall_until = self.a_stall_until.max(t + cycles);
                self.control_faults += 1;
                self.counters.faults_injected.inc();
            }
            FaultKind::DeviceReset { master } => {
                if master >= self.masters.len() {
                    return;
                }
                let live: Vec<usize> = self
                    .flights
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.master == master && f.done.is_none())
                    .map(|(i, _)| i)
                    .collect();
                for idx in &live {
                    let f = &mut self.flights[*idx];
                    f.faulted = true;
                    f.cancelled = true;
                    self.resolve_terminal(*idx, BurstStatus::BusError, t);
                }
                let m = &mut self.masters[master];
                m.next_issue_ok = m.next_issue_ok.max(t + RESET_RECOVERY_CYCLES);
                self.count_master_fault(master);
            }
            FaultKind::Control(op) => {
                if self.policy.control(&op) {
                    self.generation += 1;
                    self.control_faults += 1;
                    self.counters.faults_injected.inc();
                }
            }
        }
    }

    /// Issue new bursts from masters with spare outstanding slots. Retried
    /// bursts whose backoff elapsed take priority over fresh program
    /// bursts; either way the verdict is re-resolved at issue time.
    ///
    /// Issuing is two-phase: first every eligible master (in index order)
    /// commits its next burst to the cycle's batch, then one
    /// [`AccessPolicy::decide_batch`] call resolves all their verdicts —
    /// letting an sIOPMP policy route each distinct device once per
    /// batch. Selection, counter and trace order are identical to
    /// deciding per master.
    fn issue_bursts(&mut self, t: u64) {
        debug_assert!(self.issue_scratch.is_empty());
        let mut batch = std::mem::take(&mut self.issue_scratch);
        for mi in 0..self.masters.len() {
            // One issue per master per cycle (the request queue accepts a
            // single burst header per cycle).
            let m = &mut self.masters[mi];
            if m.in_flight >= m.program.outstanding || t < m.next_issue_ok {
                continue;
            }
            let (burst, attempt) =
                if let Some(pos) = m.retry_queue.iter().position(|r| r.eligible <= t) {
                    let entry = m.retry_queue.swap_remove(pos);
                    (entry.burst, entry.attempt)
                } else if m.next_burst < m.program.bursts.len() {
                    let burst = m.program.bursts[m.next_burst];
                    m.next_burst += 1;
                    (burst, 0)
                } else {
                    continue;
                };
            m.in_flight += 1;
            batch.push((mi, burst, attempt));
        }
        if batch.is_empty() {
            self.issue_scratch = batch;
            return;
        }
        let len = self.config.burst_bytes();
        let reqs: Vec<(DeviceId, siopmp::request::AccessKind, u64, u64)> = batch
            .iter()
            .map(|&(_, burst, _)| (burst.device, burst.kind.access(), burst.addr, len))
            .collect();
        let verdicts = self.policy.decide_batch(&reqs);
        debug_assert_eq!(verdicts.len(), batch.len());
        for (&(mi, burst, attempt), &verdict) in batch.iter().zip(&verdicts) {
            let (req_total, resp_total) = match burst.kind {
                BurstKind::Read => (1, self.config.beats_per_burst),
                BurstKind::Write => (self.config.beats_per_burst, 1),
            };
            if let Some(trace) = &mut self.trace {
                trace.record(TraceEvent {
                    cycle: t,
                    master: mi,
                    burst_kind: burst.kind,
                    kind: TraceKind::Issued,
                });
            }
            self.counters.bursts_issued.inc();
            let decision = self.decision_log.as_mut().map(|log| {
                log.push(DecisionRecord {
                    cycle: t,
                    master: mi,
                    device: burst.device,
                    kind: burst.kind,
                    addr: burst.addr,
                    len,
                    verdict,
                    generation: self.generation,
                    attempt,
                    status: None,
                });
                log.len() - 1
            });
            self.tail_retired = false;
            self.flights.push(Flight {
                master: mi,
                req: burst,
                kind: burst.kind,
                verdict,
                issue_cycle: t,
                req_beats_sent: 0,
                req_beats_total: req_total,
                arrival_at_mem: None,
                resp_ready_at: None,
                resp_beats_recv: 0,
                resp_beats_total: resp_total,
                cancelled: false,
                faulted: false,
                attempt,
                decision,
                done: None,
            });
        }
        batch.clear();
        self.issue_scratch = batch;
    }

    /// Where the next round-robin scan starts after a pick in slot `idx`:
    /// the following slot, or slot 0 after a pick of the newest flight
    /// ever issued — the last slot of a table that never retired a flight.
    /// A last slot whose newer flights were retired does not wrap, so the
    /// scan still reaches flights issued next before the older ones.
    fn next_after(&self, idx: usize) -> usize {
        if idx + 1 == self.flights.len() && !self.tail_retired {
            0
        } else {
            idx + 1
        }
    }

    /// One beat of request-channel arbitration (burst-atomic).
    fn channel_a_beat(&mut self, t: u64) {
        if t < self.a_stall_until {
            return; // injected DelayedGrant: the arbiter withholds grants
        }
        let wants_a =
            |f: &Flight| f.done.is_none() && !f.cancelled && f.req_beats_sent < f.req_beats_total;
        // Release or keep the current owner.
        if let Some(idx) = self.a_owner {
            if !wants_a(&self.flights[idx]) {
                self.a_owner = None;
            }
        }
        if self.a_owner.is_none() {
            if let Some(idx) = round_robin(&self.flights, self.rr_a, wants_a) {
                self.a_owner = Some(idx);
                self.rr_a = self.next_after(idx);
            }
        }
        let Some(idx) = self.a_owner else { return };
        let k = self.config.checker_extra_cycles;
        let truncates = self.config.bus_error_truncates;
        let f = &mut self.flights[idx];
        let first_beat = f.req_beats_sent == 0;
        f.req_beats_sent += 1;

        if first_beat && !f.verdict.is_allowed() && truncates {
            // Bus-error handling: the dummy node answers as soon as the
            // check resolves; the master cancels the rest of the burst.
            f.cancelled = true;
            f.resp_ready_at = Some(t + u64::from(k) + 1);
            f.resp_beats_total = 1;
            self.a_owner = None;
            return;
        }
        if f.req_beats_sent == f.req_beats_total {
            // Reads pay the checker pipeline on the single address beat;
            // writes are early-validated while their data beats stream, so
            // only the residue of the pipeline that exceeds the burst
            // length is exposed.
            let exposed = match f.kind {
                BurstKind::Read => u64::from(k),
                BurstKind::Write => u64::from(k.saturating_sub(f.req_beats_total - 1)),
            };
            let arb = u64::from(self.config.placement_arbitration_cycles);
            f.arrival_at_mem = Some(t + exposed + arb);
            let master = f.master;
            let kind = f.kind;
            if let Some(trace) = &mut self.trace {
                trace.record(TraceEvent {
                    cycle: t + exposed + arb,
                    master,
                    burst_kind: kind,
                    kind: TraceKind::ArrivedAtMemory,
                });
            }
            self.a_owner = None;
        }
    }

    /// Memory controller: turn fully-arrived requests into scheduled
    /// responses.
    fn memory_schedule(&mut self, t: u64) {
        for f in &mut self.flights {
            if f.done.is_some() || f.resp_ready_at.is_some() {
                continue;
            }
            let Some(arrival) = f.arrival_at_mem else {
                continue;
            };
            if t < arrival {
                continue;
            }
            let latency = match f.kind {
                BurstKind::Read => self.config.mem_read_latency + self.config.masking_read_extra,
                BurstKind::Write => self.config.mem_write_latency,
            };
            f.resp_ready_at = Some(arrival + u64::from(latency));
        }
    }

    /// One beat of response-channel arbitration (burst-atomic).
    fn channel_d_beat(&mut self, t: u64) {
        let ready_d = |f: &Flight| {
            f.done.is_none()
                && f.resp_ready_at
                    .is_some_and(|r| t >= r + u64::from(f.resp_beats_recv))
                && f.resp_beats_recv < f.resp_beats_total
        };
        if let Some(idx) = self.d_owner {
            let f = &self.flights[idx];
            if f.done.is_some() || f.resp_beats_recv >= f.resp_beats_total {
                self.d_owner = None;
            }
        }
        if self.d_owner.is_none() {
            if let Some(idx) = round_robin(&self.flights, self.rr_d, ready_d) {
                self.d_owner = Some(idx);
                self.rr_d = self.next_after(idx);
            }
        }
        let Some(idx) = self.d_owner else { return };
        if !ready_d(&self.flights[idx]) {
            return; // owner's next beat not ready yet (streams are paced)
        }
        let f = &mut self.flights[idx];
        f.resp_beats_recv += 1;
        if f.resp_beats_recv == f.resp_beats_total {
            let status = if f.cancelled {
                BurstStatus::BusError
            } else if f.verdict.is_allowed() {
                BurstStatus::Ok
            } else {
                BurstStatus::Masked
            };
            self.resolve_terminal(idx, status, t);
        }
    }

    /// Terminal resolution of flight `idx` at cycle `t` with bus status
    /// `status`. Transient refusals (stalls, injected faults, optionally
    /// SID-missing) under an enabled retry policy with remaining budget
    /// re-queue the burst after its exponential backoff instead of
    /// completing; everything else counts as completed, including bursts
    /// whose retry budget just ran out (`retry_exhausted`).
    fn resolve_terminal(&mut self, idx: usize, status: BurstStatus, t: u64) {
        let f = &mut self.flights[idx];
        if f.done.is_some() {
            return;
        }
        let verdict = f.verdict;
        let faulted = f.faulted;
        let attempt = f.attempt;
        let req = f.req;
        let decision = f.decision;
        let issue_cycle = f.issue_cycle;
        let master = f.master;
        let burst_kind = f.kind;
        f.done = Some(status);
        self.resolved += 1;
        if self.a_owner == Some(idx) {
            self.a_owner = None;
        }
        if self.d_owner == Some(idx) {
            self.d_owner = None;
        }
        if let (Some(di), Some(log)) = (decision, self.decision_log.as_mut()) {
            log[di].status = Some(status);
        }
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEvent {
                cycle: t,
                master,
                burst_kind,
                kind: TraceKind::Completed(status),
            });
        }
        let issue_gap = u64::from(self.config.issue_gap);
        let burst_bytes = self.config.burst_bytes();
        let retry = self.masters[master].program.retry;
        let transient = status != BurstStatus::Ok
            && (faulted
                || verdict == PolicyVerdict::Stalled
                || (verdict == PolicyVerdict::SidMissing && retry.retry_sid_missing));
        if transient && retry.is_enabled() && attempt < retry.max_retries {
            // Retry: the refusal is not terminal for the burst. The
            // re-issue will re-resolve its verdict under whatever
            // configuration is live then.
            let next_attempt = attempt + 1;
            let backoff = retry.backoff_for(next_attempt);
            self.counters.retries.inc();
            self.counters.backoff_cycles.add(backoff);
            let m = &mut self.masters[master];
            m.in_flight -= 1;
            m.next_issue_ok = m.next_issue_ok.max(t + 1 + issue_gap);
            m.report.bursts_retried += 1;
            m.retry_queue.push(RetryEntry {
                eligible: t + 1 + backoff,
                burst: req,
                attempt: next_attempt,
            });
            return;
        }
        if status == BurstStatus::Ok {
            if let Some((base, len)) = self.home_window {
                if req.addr < base || req.addr >= base.saturating_add(len) {
                    // Cross-domain traffic: completed here (the local
                    // checker approved it), now owed to the shard that owns
                    // the address.
                    let seq = self.egress_seq;
                    self.egress_seq += 1;
                    self.egress.push(EgressRecord {
                        cycle: t,
                        master,
                        seq,
                        burst: req,
                    });
                }
            }
        }
        let latency = t - issue_cycle + 1;
        self.counters.bursts_completed.inc();
        self.burst_latency.record(latency);
        match status {
            BurstStatus::Ok => {
                self.counters.bursts_ok.inc();
                self.counters.bytes_transferred.add(burst_bytes);
            }
            BurstStatus::Masked => self.counters.bursts_masked.inc(),
            BurstStatus::BusError => self.counters.bursts_bus_error.inc(),
        }
        match verdict {
            PolicyVerdict::Stalled => self.counters.bursts_stalled.inc(),
            PolicyVerdict::SidMissing => self.counters.bursts_sid_missing.inc(),
            _ => {}
        }
        if transient && retry.is_enabled() {
            self.counters.retry_exhausted.inc();
        }
        let m = &mut self.masters[master];
        m.in_flight -= 1;
        m.next_issue_ok = m.next_issue_ok.max(t + 1 + issue_gap);
        let r = &mut m.report;
        r.bursts_completed += 1;
        r.total_latency_cycles += latency;
        r.last_completion_cycle = t;
        if transient && retry.is_enabled() {
            r.retry_exhausted += 1;
        }
        match status {
            BurstStatus::Ok => {
                r.bursts_ok += 1;
                r.bytes_transferred += burst_bytes;
            }
            BurstStatus::Masked => r.bursts_masked += 1,
            BurstStatus::BusError => r.bursts_bus_error += 1,
        }
        match verdict {
            PolicyVerdict::Stalled => r.bursts_stalled += 1,
            PolicyVerdict::SidMissing => r.bursts_sid_missing += 1,
            _ => {}
        }
    }
}

/// The first flight at or after slot `from` that `wants`, wrapping once
/// past the end of the table.
fn round_robin(flights: &[Flight], from: usize, wants: impl Fn(&Flight) -> bool) -> Option<usize> {
    (from..flights.len())
        .chain(0..from)
        .find(|&idx| wants(&flights[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AllowAll, DenyRange};

    fn run(config: BusConfig, programs: Vec<MasterProgram>) -> SimReport {
        let mut sim = BusSim::build(config, Box::new(AllowAll), None);
        for p in programs {
            sim.add_master(p);
        }
        sim.run_to_completion(1_000_000)
    }

    #[test]
    fn single_read_burst_latency_matches_model() {
        // issue @0, A beat @0, resp ready @14, beats 14..21, complete @21.
        let r = run(
            BusConfig::default(),
            vec![MasterProgram::uniform(1, BurstKind::Read, 0x0, 1)],
        );
        assert!(r.completed);
        assert_eq!(r.masters[0].bursts_completed, 1);
        assert_eq!(r.masters[0].mean_latency(), Some(22.0));
    }

    #[test]
    fn flight_table_stays_bounded_by_live_flights() {
        // 20 000 bursts; master 2's are all denied, so bus-error
        // truncations resolve flights out of issue order. Retirement must
        // keep the table within twice the live flights after every step.
        let mut sim = BusSim::build(
            BusConfig::default(),
            Box::new(DenyRange {
                base: 0x3000,
                len: 0x1000,
            }),
            None,
        );
        for (m, outstanding) in [1usize, 2, 4, 8].into_iter().enumerate() {
            let kind = if m % 2 == 0 {
                BurstKind::Read
            } else {
                BurstKind::Write
            };
            let base = 0x1000 * (m as u64 + 1);
            sim.add_master(
                MasterProgram::uniform(m as u64 + 1, kind, base, 5_000)
                    .with_outstanding(outstanding),
            );
        }
        while !sim.all_done() {
            sim.step();
            assert!(
                sim.flights.len() <= 2 * sim.in_flight_total() + 1,
                "cycle {}: {} flights for {} live",
                sim.cycle(),
                sim.flights.len(),
                sim.in_flight_total()
            );
        }
        let r = sim.report();
        assert_eq!(
            r.masters.iter().map(|m| m.bursts_completed).sum::<usize>(),
            20_000
        );
        assert_eq!(r.masters[2].bursts_bus_error, 5_000);
    }

    #[test]
    fn single_write_burst_latency_matches_model() {
        // beats @0..7, ack ready @15, complete @15 -> latency 16.
        let r = run(
            BusConfig::default(),
            vec![MasterProgram::uniform(1, BurstKind::Write, 0x0, 1)],
        );
        assert_eq!(r.masters[0].mean_latency(), Some(16.0));
    }

    #[test]
    fn sixty_four_read_bursts_near_paper_baseline() {
        // Paper Figure 11: 64 consecutive read bursts, no pipeline: 1510
        // cycles. Our calibrated model: ~1470.
        let r = run(
            BusConfig::default(),
            vec![MasterProgram::uniform(1, BurstKind::Read, 0x0, 64)],
        );
        let makespan = r.makespan();
        assert!((1400..=1600).contains(&makespan), "makespan {makespan}");
    }

    #[test]
    fn sixty_four_write_bursts_near_paper_baseline() {
        // Paper: 1081 cycles; model: ~1086.
        let r = run(
            BusConfig::default(),
            vec![MasterProgram::uniform(1, BurstKind::Write, 0x0, 64)],
        );
        let makespan = r.makespan();
        assert!((1000..=1150).contains(&makespan), "makespan {makespan}");
    }

    #[test]
    fn pipeline_adds_one_cycle_per_read_request() {
        let base = run(
            BusConfig::default(),
            vec![MasterProgram::uniform(1, BurstKind::Read, 0x0, 64)],
        )
        .makespan();
        let cfg = BusConfig {
            checker_extra_cycles: 1,
            ..BusConfig::default()
        };
        let piped = run(
            cfg,
            vec![MasterProgram::uniform(1, BurstKind::Read, 0x0, 64)],
        )
        .makespan();
        assert_eq!(piped - base, 64);
    }

    #[test]
    fn write_pipeline_latency_is_hidden_by_early_validation() {
        let base = run(
            BusConfig::default(),
            vec![MasterProgram::uniform(1, BurstKind::Write, 0x0, 64)],
        )
        .makespan();
        let cfg = BusConfig {
            checker_extra_cycles: 2,
            ..BusConfig::default()
        };
        let piped = run(
            cfg,
            vec![MasterProgram::uniform(1, BurstKind::Write, 0x0, 64)],
        )
        .makespan();
        // 2 pipeline stages < 8 data beats: fully hidden.
        assert_eq!(piped, base);
    }

    #[test]
    fn masking_interposes_read_responses() {
        let cfg = BusConfig {
            masking_read_extra: 1,
            bus_error_truncates: false,
            ..BusConfig::default()
        };
        let masked = run(
            cfg,
            vec![MasterProgram::uniform(1, BurstKind::Read, 0x0, 64)],
        )
        .makespan();
        let base = run(
            BusConfig::default(),
            vec![MasterProgram::uniform(1, BurstKind::Read, 0x0, 64)],
        )
        .makespan();
        assert_eq!(masked - base, 64);
    }

    #[test]
    fn bus_error_truncates_violating_bursts_early() {
        let mut sim = BusSim::build(
            BusConfig::default(),
            Box::new(DenyRange {
                base: 0,
                len: u64::MAX,
            }),
            None,
        );
        sim.add_master(MasterProgram::uniform(1, BurstKind::Read, 0x0, 64));
        let r = sim.run_to_completion(100_000);
        assert_eq!(r.masters[0].bursts_bus_error, 64);
        assert_eq!(r.masters[0].bytes_transferred, 0);
        // Early truncation: far faster than the legal 1470-cycle run.
        assert!(r.makespan() < 400, "makespan {}", r.makespan());
    }

    #[test]
    fn masking_violations_run_full_length() {
        let cfg = BusConfig {
            bus_error_truncates: false,
            masking_read_extra: 1,
            ..BusConfig::default()
        };
        let mut sim = BusSim::build(
            cfg,
            Box::new(DenyRange {
                base: 0,
                len: u64::MAX,
            }),
            None,
        );
        sim.add_master(MasterProgram::uniform(1, BurstKind::Read, 0x0, 64));
        let r = sim.run_to_completion(100_000);
        assert_eq!(r.masters[0].bursts_masked, 64);
        assert_eq!(r.masters[0].bytes_transferred, 0);
        // The device must process the whole masked burst (paper §6.2).
        assert!(r.makespan() > 1400, "makespan {}", r.makespan());
    }

    #[test]
    fn two_reader_bandwidth_near_paper_figure() {
        // Paper Figure 12: Read-Read two nodes ≈ 5.18 B/cycle (no pipe).
        let r = run(
            BusConfig::default(),
            vec![
                MasterProgram::uniform(1, BurstKind::Read, 0x0, 256),
                MasterProgram::uniform(2, BurstKind::Read, 0x1000, 256),
            ],
        );
        let bpc = r.bytes_per_cycle();
        assert!((4.9..=5.6).contains(&bpc), "bytes/cycle {bpc}");
    }

    #[test]
    fn pipeline_costs_two_percent_read_bandwidth() {
        let base = run(
            BusConfig::default(),
            vec![
                MasterProgram::uniform(1, BurstKind::Read, 0x0, 256),
                MasterProgram::uniform(2, BurstKind::Read, 0x1000, 256),
            ],
        )
        .bytes_per_cycle();
        let cfg = BusConfig {
            checker_extra_cycles: 1,
            ..BusConfig::default()
        };
        let piped = run(
            cfg,
            vec![
                MasterProgram::uniform(1, BurstKind::Read, 0x0, 256),
                MasterProgram::uniform(2, BurstKind::Read, 0x1000, 256),
            ],
        )
        .bytes_per_cycle();
        let loss = 1.0 - piped / base;
        assert!(loss > 0.0 && loss < 0.08, "loss {loss}");
    }

    #[test]
    fn write_write_bandwidth_unaffected_by_pipeline() {
        let mk = |k| {
            let cfg = BusConfig {
                checker_extra_cycles: k,
                ..BusConfig::default()
            };
            run(
                cfg,
                vec![
                    MasterProgram::uniform(1, BurstKind::Write, 0x0, 256),
                    MasterProgram::uniform(2, BurstKind::Write, 0x1000, 256),
                ],
            )
            .bytes_per_cycle()
        };
        let base = mk(0);
        let piped = mk(2);
        assert!((piped - base).abs() < 0.05, "{base} vs {piped}");
        assert!(base > 6.0, "writes should be fast: {base}");
    }

    #[test]
    fn outstanding_transactions_raise_throughput() {
        let serial = run(
            BusConfig::default(),
            vec![MasterProgram::uniform(1, BurstKind::Read, 0x0, 128)],
        )
        .bytes_per_cycle();
        let overlapped = run(
            BusConfig::default(),
            vec![MasterProgram::uniform(1, BurstKind::Read, 0x0, 128).with_outstanding(4)],
        )
        .bytes_per_cycle();
        assert!(overlapped > 1.5 * serial, "{serial} -> {overlapped}");
    }

    #[test]
    fn run_stops_at_cycle_budget() {
        let mut sim = BusSim::build(BusConfig::default(), Box::new(AllowAll), None);
        sim.add_master(MasterProgram::uniform(1, BurstKind::Read, 0x0, 1_000_000));
        let r = sim.run_to_completion(100);
        assert!(!r.completed);
        assert_eq!(r.cycles, 100);
    }

    #[test]
    fn telemetry_mirrors_the_report_aggregates() {
        let t = siopmp::telemetry::Telemetry::new();
        let mut sim = BusSim::build(BusConfig::default(), Box::new(AllowAll), t.clone());
        sim.add_master(MasterProgram::uniform(1, BurstKind::Read, 0x0, 8));
        let r = sim.run_to_completion(100_000);
        let snap = t.snapshot();
        assert_eq!(snap.counters["bus.bursts_issued"], 8);
        assert_eq!(snap.counters["bus.bursts_completed"], 8);
        assert_eq!(
            snap.counters["bus.bytes_transferred"],
            r.masters[0].bytes_transferred
        );
        let lat = &snap.histograms["bus.burst_latency_cycles"];
        assert_eq!(lat.count, 8);
        assert!(lat.max >= 22, "latency max {}", lat.max);
    }

    #[test]
    fn stalls_and_sid_missing_are_counted_separately() {
        use crate::policy::SiopmpPolicy;
        use siopmp::ids::DeviceId;
        use siopmp::mountable::MountableEntry;

        let mut unit = siopmp::Siopmp::build(siopmp::SiopmpConfig::small(), None);
        let sid = unit.map_hot_device(DeviceId(1)).unwrap();
        unit.block_sid(sid); // every burst from device 1 stalls
        unit.register_cold_device(
            DeviceId(2),
            MountableEntry {
                domains: vec![],
                entries: vec![],
            },
        )
        .unwrap(); // device 2 raises SID-missing until mounted

        let t = siopmp::telemetry::Telemetry::new();
        let mut sim = BusSim::build(
            BusConfig::default(),
            Box::new(SiopmpPolicy::new(unit)),
            t.clone(),
        );
        sim.add_master(MasterProgram::uniform(1, BurstKind::Read, 0x0, 3));
        sim.add_master(MasterProgram::uniform(2, BurstKind::Read, 0x0, 2));
        let r = sim.run_to_completion(100_000);
        assert_eq!(r.masters[0].bursts_stalled, 3);
        assert_eq!(r.masters[0].bursts_sid_missing, 0);
        assert_eq!(r.masters[1].bursts_sid_missing, 2);
        // Refusals still resolve to a terminal bus status; the verdict
        // classes are an orthogonal breakdown.
        assert_eq!(r.masters[0].bursts_bus_error, 3);
        let snap = t.snapshot();
        assert_eq!(snap.counters["bus.bursts_stalled"], 3);
        assert_eq!(snap.counters["bus.bursts_sid_missing"], 2);
    }

    #[test]
    fn empty_simulation_completes_immediately() {
        let mut sim = BusSim::build(BusConfig::default(), Box::new(AllowAll), None);
        let r = sim.run_to_completion(100);
        assert!(r.completed);
        assert_eq!(r.cycles, 0);
    }

    /// A unit whose hot `device` is fully authorised but blocked: every
    /// burst stalls until the SID is unblocked.
    fn blocked_unit(device: u64) -> (siopmp::Siopmp, siopmp::ids::SourceId) {
        use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
        use siopmp::ids::MdIndex;

        let mut unit = siopmp::Siopmp::build(siopmp::SiopmpConfig::small(), None);
        let sid = unit.map_hot_device(DeviceId(device)).unwrap();
        unit.associate_sid_with_md(sid, MdIndex(0)).unwrap();
        unit.install_entry(
            MdIndex(0),
            IopmpEntry::new(AddressRange::new(0x0, 0x1_0000).unwrap(), Permissions::rw()),
        )
        .unwrap();
        unit.block_sid(sid);
        (unit, sid)
    }

    #[test]
    fn retries_recover_once_the_stall_clears() {
        use crate::faults::{FaultEvent, FaultKind, FaultPlan};
        use crate::master::RetryPolicy;
        use crate::policy::{ControlOp, SiopmpPolicy};

        let (unit, sid) = blocked_unit(1);
        let t = siopmp::telemetry::Telemetry::new();
        let mut sim = BusSim::build(
            BusConfig::default(),
            Box::new(SiopmpPolicy::new(unit)),
            t.clone(),
        );
        sim.add_master(
            MasterProgram::uniform(1, BurstKind::Read, 0x0, 3)
                .with_retry(RetryPolicy::bounded(10, 4)),
        );
        sim.set_fault_plan(FaultPlan::from_events(
            0,
            vec![FaultEvent {
                at: 50,
                kind: FaultKind::Control(ControlOp::UnblockSid(sid)),
            }],
        ));
        let r = sim.run_to_completion(100_000);
        assert!(r.completed);
        assert_eq!(r.masters[0].bursts_ok, 3, "{:?}", r.masters[0]);
        assert_eq!(r.masters[0].retry_exhausted, 0);
        assert!(r.masters[0].bursts_retried > 0);
        assert_eq!(sim.generation(), 1);
        let snap = t.snapshot();
        assert_eq!(
            snap.counters["bus.retries"],
            r.masters[0].bursts_retried as u64
        );
        assert!(snap.counters["bus.backoff_cycles"] > 0);
    }

    #[test]
    fn retry_budget_exhaustion_is_reported_not_hung() {
        use crate::master::RetryPolicy;
        use crate::policy::SiopmpPolicy;

        let (unit, _sid) = blocked_unit(1);
        let mut sim = BusSim::build(
            BusConfig::default(),
            Box::new(SiopmpPolicy::new(unit)),
            None,
        );
        sim.add_master(
            MasterProgram::uniform(1, BurstKind::Read, 0x0, 2)
                .with_retry(RetryPolicy::bounded(3, 2)),
        );
        let r = sim.run_to_completion(100_000);
        assert!(r.completed, "exhaustion must terminate the run");
        assert_eq!(r.masters[0].bursts_completed, 2);
        assert_eq!(r.masters[0].bursts_retried, 6); // 3 retries per burst
        assert_eq!(r.masters[0].retry_exhausted, 2);
        assert_eq!(r.masters[0].bursts_ok, 0);
        assert_eq!(r.masters[0].bursts_stalled, 2);
    }

    #[test]
    fn delayed_grant_stalls_the_request_channel() {
        use crate::faults::{FaultEvent, FaultKind, FaultPlan};

        let mut sim = BusSim::build(BusConfig::default(), Box::new(AllowAll), None);
        sim.add_master(MasterProgram::uniform(1, BurstKind::Read, 0x0, 1));
        sim.set_fault_plan(FaultPlan::from_events(
            0,
            vec![FaultEvent {
                at: 0,
                kind: FaultKind::DelayedGrant { cycles: 40 },
            }],
        ));
        let r = sim.run_to_completion(10_000);
        assert!(r.completed);
        // Baseline latency is 22; the 40-cycle grant stall shifts it.
        assert!(r.makespan() >= 60, "makespan {}", r.makespan());
        assert_eq!(r.control_faults, 1);
        assert_eq!(r.total_faults_injected(), 1);
    }

    #[test]
    fn device_reset_aborts_in_flight_and_retry_recovers() {
        use crate::faults::{FaultEvent, FaultKind, FaultPlan};
        use crate::master::RetryPolicy;

        let mut sim = BusSim::build(BusConfig::default(), Box::new(AllowAll), None);
        sim.add_master(
            MasterProgram::uniform(1, BurstKind::Read, 0x0, 4)
                .with_retry(RetryPolicy::bounded(5, 2)),
        );
        sim.set_fault_plan(FaultPlan::from_events(
            0,
            vec![FaultEvent {
                at: 5,
                kind: FaultKind::DeviceReset { master: 0 },
            }],
        ));
        let r = sim.run_to_completion(100_000);
        assert!(r.completed);
        // The aborted burst was transient (faulted), so it was re-issued
        // and every program burst still moved its data.
        assert_eq!(r.masters[0].bursts_ok, 4);
        assert!(r.masters[0].bursts_retried >= 1);
        assert_eq!(r.masters[0].faults_injected, 1);
    }

    #[test]
    fn decision_log_pins_verdicts_to_generations() {
        use crate::faults::{FaultEvent, FaultKind, FaultPlan};
        use crate::master::RetryPolicy;
        use crate::policy::{ControlOp, SiopmpPolicy};

        let (unit, sid) = blocked_unit(1);
        let mut sim = BusSim::build(
            BusConfig::default(),
            Box::new(SiopmpPolicy::new(unit)),
            None,
        );
        sim.enable_decision_log();
        sim.add_master(
            MasterProgram::uniform(1, BurstKind::Read, 0x0, 1)
                .with_retry(RetryPolicy::bounded(10, 8)),
        );
        sim.set_fault_plan(FaultPlan::from_events(
            0,
            vec![FaultEvent {
                at: 30,
                kind: FaultKind::Control(ControlOp::UnblockSid(sid)),
            }],
        ));
        let r = sim.run_to_completion(100_000);
        assert!(r.completed);
        let log = sim.decision_log().unwrap();
        assert!(log.len() >= 2, "at least one retry: {log:?}");
        // Every attempt resolved, attempts are numbered, and the final
        // attempt was re-decided under the post-unblock generation.
        assert!(log.iter().all(|d| d.status.is_some()));
        assert_eq!(log[0].attempt, 0);
        assert_eq!(log[0].generation, 0);
        assert_eq!(log[0].verdict, PolicyVerdict::Stalled);
        let last = log.last().unwrap();
        assert_eq!(last.generation, 1);
        assert_eq!(last.verdict, PolicyVerdict::Allowed);
        assert_eq!(last.status, Some(BurstStatus::Ok));
    }

    #[test]
    fn forced_abort_for_device_is_scoped() {
        let mut sim = BusSim::build(BusConfig::default(), Box::new(AllowAll), None);
        sim.add_master(MasterProgram::uniform(1, BurstKind::Read, 0x0, 1));
        sim.add_master(MasterProgram::uniform(2, BurstKind::Read, 0x0, 1));
        for _ in 0..3 {
            sim.step();
        }
        assert_eq!(sim.in_flight_for_device(DeviceId(1)), 1);
        assert_eq!(sim.in_flight_total(), 2);
        assert_eq!(sim.abort_in_flight_for_device(DeviceId(1)), 1);
        assert_eq!(sim.in_flight_for_device(DeviceId(1)), 0);
        assert_eq!(sim.in_flight_for_device(DeviceId(2)), 1);
        let r = sim.run_to_completion(100_000);
        assert_eq!(r.masters[0].bursts_bus_error, 1);
        assert_eq!(r.masters[1].bursts_ok, 1);
    }
}
