//! Deterministic sharded parallel simulation.
//!
//! The paper's headline claim is *scalability* — 1024 entries and tens of
//! concurrent DMA masters — but a single-threaded cycle-driven [`BusSim`]
//! makes large sweeps wall-clock bound by the host. Following the
//! deterministic parallel-discrete-event tradition (gem5's multi-queue
//! event model, FireSim's token-synchronised partitioning), this module
//! partitions masters and slaves into per-domain shards, each advanced by
//! a worker thread in fixed cycle *epochs*, with cross-domain bursts
//! exchanged only at epoch barriers.
//!
//! # Determinism argument
//!
//! Any thread count — including 1 — produces identical traces, telemetry
//! and verdicts, because nothing observable ever depends on thread
//! arrival order:
//!
//! 1. **Shards are disjoint.** Each shard owns its own [`BusSim`] (policy,
//!    masters, fault plan, telemetry registry). [`ParallelSim::run`]
//!    starts its worker threads once; every epoch it hands each worker a
//!    fixed chunk of shards over a channel and takes the chunks back at
//!    the barrier. Between two barriers a shard belongs to exactly one
//!    worker, so advancing shards concurrently is trivially equivalent to
//!    advancing them in any serial order.
//! 2. **Exchange is totally ordered.** At a barrier, every shard's egress
//!    (bursts that completed `Ok` against an address outside the shard's
//!    home window) is collected and sorted by `(cycle, domain, master,
//!    seq)` — a key that is itself computed deterministically inside each
//!    shard — never by which worker finished first. Delivery appends to
//!    the destination's bridge master in that order.
//! 3. **Folding is ordered too.** Per-shard telemetry registries are
//!    folded into the merged registry in domain order at each barrier,
//!    through handle pairs resolved once per metric (see [`DeltaFold`]).
//!    A worker sends its chunk back only after advancing it, and the
//!    channel's send/receive pair is the happens-before edge that makes
//!    the shard's relaxed atomic counters visible to the coordinator.
//!
//! Since epoch boundaries, exchange order and fold order are all functions
//! of the simulation state alone, the *entire* run is a function of the
//! inputs — the thread count only chooses how many shards advance at once.
//! With a single domain and no cross traffic, the engine performs exactly
//! the serial engine's step sequence, so its report and trace are
//! byte-identical to [`BusSim::run_to_completion`] (pinned by the
//! golden-trace test).
//!
//! Cross-domain bursts keep their original device IDs, so the destination
//! shard's policy re-checks them under the source identity — a
//! hierarchical double-check: the source sIOPMP authorised the egress, the
//! destination sIOPMP must independently authorise the ingress.

use crate::config::BusConfig;
use crate::faults::FaultPlan;
use crate::master::MasterProgram;
use crate::packet::BurstRequest;
use crate::policy::AccessPolicy;
use crate::report::SimReport;
use crate::sim::BusSim;
use siopmp::telemetry::{Counter, DeltaFold, Telemetry};
use std::sync::mpsc;
use std::thread;

/// Default barrier spacing. Large enough to amortise barrier costs, small
/// enough that cross-domain latency (traffic waits for the next barrier)
/// stays modest relative to typical burst programs.
pub const DEFAULT_EPOCH_CYCLES: u64 = 256;

/// Device IDs `BRIDGE_DEVICE_BASE + domain` identify the per-shard bridge
/// masters that replay cross-domain traffic. Pick domain device IDs below
/// this to avoid collisions.
pub const BRIDGE_DEVICE_BASE: u64 = 0xB21D_6E00;

/// Everything one shard of a [`ParallelSim`] needs: its bus configuration,
/// access policy, masters, fault plan, owned address window and telemetry
/// registry.
///
/// Build the policy's sIOPMP unit against [`DomainSpec::telemetry`] (and
/// let the shard's `BusSim` share it) so the domain's `siopmp.*` and
/// `bus.*` metrics all land in the same per-shard registry — that registry
/// is what gets folded into the merged one at each barrier. Each domain
/// must have its **own** registry; sharing one across domains would
/// double-fold.
pub struct DomainSpec {
    /// Bus timing configuration for this shard.
    pub config: BusConfig,
    /// Access policy for this shard.
    pub policy: Box<dyn AccessPolicy>,
    /// Master programs local to this shard.
    pub masters: Vec<MasterProgram>,
    /// Fault schedule local to this shard (see [`FaultPlan::for_domain`]).
    pub fault_plan: FaultPlan,
    /// `(base, len)` of the addresses this shard owns. `Ok` completions
    /// outside it become cross-domain traffic. `None` keeps everything
    /// local (no egress is ever produced).
    pub home_window: Option<(u64, u64)>,
    /// The shard's private telemetry registry.
    pub telemetry: Telemetry,
}

impl DomainSpec {
    /// The fluent entry point: a spec checking against `policy`, with the
    /// default bus configuration, no masters, no faults, no home window
    /// and a fresh telemetry registry. Refine it with the `with_*`
    /// builders:
    ///
    /// ```
    /// use siopmp_bus::parallel::DomainSpec;
    /// use siopmp_bus::policy::AllowAll;
    /// use siopmp_bus::{BurstKind, BusConfig, MasterProgram};
    ///
    /// let spec = DomainSpec::for_policy(AllowAll)
    ///     .with_config(BusConfig::default().with_issue_gap(2))
    ///     .with_home_window(0x1000, 0x1000)
    ///     .with_master(MasterProgram::uniform(1, BurstKind::Read, 0x1000, 4));
    /// ```
    pub fn for_policy(policy: impl AccessPolicy + 'static) -> Self {
        DomainSpec {
            config: BusConfig::default(),
            policy: Box::new(policy),
            masters: Vec::new(),
            fault_plan: FaultPlan::empty(),
            home_window: None,
            telemetry: Telemetry::new(),
        }
    }

    /// Like [`DomainSpec::for_policy`] for policies that are already boxed
    /// (e.g. chosen at runtime from a `dyn` table).
    pub fn for_boxed_policy(policy: Box<dyn AccessPolicy>) -> Self {
        DomainSpec {
            config: BusConfig::default(),
            policy,
            masters: Vec::new(),
            fault_plan: FaultPlan::empty(),
            home_window: None,
            telemetry: Telemetry::new(),
        }
    }

    /// Sets the bus timing configuration (builder style).
    pub fn with_config(mut self, config: BusConfig) -> Self {
        self.config = config;
        self
    }

    /// Adds a master program (builder style).
    pub fn with_master(mut self, program: MasterProgram) -> Self {
        self.masters.push(program);
        self
    }

    /// Sets the fault plan (builder style).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the owned address window (builder style).
    pub fn with_home_window(mut self, base: u64, len: u64) -> Self {
        self.home_window = Some((base, len));
        self
    }

    /// Uses `telemetry` as the shard registry (builder style) — pass the
    /// registry the shard's sIOPMP unit was built against.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// A spec whose shard checks against a **shared** sIOPMP checker
    /// ([`siopmp::SharedSiopmp`]) instead of owning a unit: every shard
    /// built this way — plus any other thread holding a handle — answers
    /// from the same published snapshot, the software analogue of the
    /// paper's single multi-ported MT checker fronting all bus masters.
    ///
    /// The shared unit's `siopmp.*` counters live in the *owner's*
    /// registry, not the shard registries folded at each barrier, so the
    /// merged report carries only `bus.*` metrics for such shards; read
    /// protection counters from the owning unit's telemetry instead.
    pub fn with_shared_checker(config: BusConfig, checker: siopmp::SharedSiopmp) -> Self {
        DomainSpec::for_policy(crate::policy::SharedSiopmpPolicy::new(checker)).with_config(config)
    }
}

struct Shard {
    sim: BusSim,
    window: Option<(u64, u64)>,
    /// Master index of the lazily created bridge. Lazy so that a domain
    /// that never receives cross traffic reports exactly the masters it
    /// was built with (which is what makes a single-domain parallel run
    /// byte-identical to the serial engine).
    bridge: Option<usize>,
    /// Folds the shard's registry into the merged one.
    fold: DeltaFold,
}

impl Shard {
    /// Steps the shard to `target` cycles, or until it drains.
    fn advance(&mut self, target: u64) {
        while self.sim.cycle() < target && !self.sim.all_done() {
            self.sim.step();
        }
    }
}

/// The worker threads of one [`ParallelSim::run`]. Each epoch, every
/// worker receives its chunk of shards and the barrier cycle over one
/// channel, advances the chunk and sends it back over another. Both sides
/// block on the channels; nothing spins.
struct Pool<'scope> {
    workers: Vec<Worker<'scope>>,
    /// Shards per worker: the same partition every epoch.
    chunk: usize,
}

struct Worker<'scope> {
    work: mpsc::Sender<(Vec<Shard>, u64)>,
    done: mpsc::Receiver<Vec<Shard>>,
    thread: thread::ScopedJoinHandle<'scope, ()>,
}

impl<'scope> Pool<'scope> {
    /// Starts up to `threads` workers for `shards` shards, each owning a
    /// chunk of `ceil(shards / threads)` consecutive domains.
    fn start<'env>(
        scope: &'scope thread::Scope<'scope, 'env>,
        shards: usize,
        threads: usize,
    ) -> Self {
        let chunk = shards.div_ceil(threads);
        let workers = (0..shards.div_ceil(chunk))
            .map(|_| {
                let (work, inbox) = mpsc::channel::<(Vec<Shard>, u64)>();
                let (outbox, done) = mpsc::channel();
                let thread = scope.spawn(move || {
                    for (mut shards, target) in inbox {
                        for shard in &mut shards {
                            shard.advance(target);
                        }
                        if outbox.send(shards).is_err() {
                            return;
                        }
                    }
                });
                Worker { work, done, thread }
            })
            .collect();
        Pool { workers, chunk }
    }

    /// Advances every shard to `target` on the workers and puts the
    /// shards back in domain order. If a worker panicked, re-raises its
    /// panic here.
    fn advance(&mut self, shards: &mut Vec<Shard>, target: u64) {
        let mut rest = std::mem::take(shards);
        for worker in &self.workers {
            let tail = rest.split_off(self.chunk.min(rest.len()));
            if worker.work.send((rest, target)).is_err() {
                self.propagate_panic();
            }
            rest = tail;
        }
        for i in 0..self.workers.len() {
            match self.workers[i].done.recv() {
                Ok(chunk) => shards.extend(chunk),
                Err(_) => self.propagate_panic(),
            }
        }
    }

    /// A worker hung up mid-epoch, which only a panic does. Closes every
    /// work channel so the other workers exit, joins them all, and
    /// resumes the first panic on the calling thread.
    fn propagate_panic(&mut self) -> ! {
        let threads: Vec<_> = self.workers.drain(..).map(|w| w.thread).collect();
        for thread in threads {
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
        unreachable!("a ParallelSim worker hung up without panicking")
    }
}

/// The sharded parallel engine. See the [module docs](self) for the
/// determinism argument.
pub struct ParallelSim {
    shards: Vec<Shard>,
    epoch_cycles: u64,
    threads: usize,
    merged: Telemetry,
    epochs: Counter,
    cross_domain: Counter,
    unrouted: Counter,
}

impl std::fmt::Debug for ParallelSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelSim")
            .field("domains", &self.shards.len())
            .field("threads", &self.threads)
            .field("epoch_cycles", &self.epoch_cycles)
            .finish()
    }
}

impl ParallelSim {
    /// An engine advancing shards in `epoch_cycles`-cycle epochs using
    /// `threads` worker threads, with a private merged registry. Both
    /// parameters affect wall clock only, never results: `threads` is
    /// clamped to `[1, domains]` and the epoch length to at least 1.
    pub fn new(epoch_cycles: u64, threads: usize) -> Self {
        Self::build(epoch_cycles, threads, None)
    }

    /// Like [`ParallelSim::new`], but folding the merged metrics into the
    /// caller's `telemetry` registry.
    pub fn build(
        epoch_cycles: u64,
        threads: usize,
        telemetry: impl Into<Option<Telemetry>>,
    ) -> Self {
        let merged = telemetry.into().unwrap_or_else(Telemetry::new);
        ParallelSim {
            shards: Vec::new(),
            epoch_cycles: epoch_cycles.max(1),
            threads: threads.max(1),
            epochs: merged.counter("parallel.epochs"),
            cross_domain: merged.counter("parallel.cross_domain_bursts"),
            unrouted: merged.counter("parallel.unrouted_egress"),
            merged,
        }
    }

    /// Adds a shard built from `spec` and returns its domain index.
    /// Domains are ordered by insertion; the index is the `domain` field
    /// of the cross-domain exchange key.
    pub fn add_domain(&mut self, spec: DomainSpec) -> usize {
        let mut sim = BusSim::build(spec.config, spec.policy, spec.telemetry.clone());
        let fold = DeltaFold::new(&spec.telemetry, &self.merged);
        if let Some((base, len)) = spec.home_window {
            sim.set_home_window(base, len);
        }
        sim.set_fault_plan(spec.fault_plan);
        for program in spec.masters {
            sim.add_master(program);
        }
        self.shards.push(Shard {
            sim,
            window: spec.home_window,
            bridge: None,
            fold,
        });
        self.shards.len() - 1
    }

    /// Number of domains.
    pub fn domains(&self) -> usize {
        self.shards.len()
    }

    /// The shard simulator for `domain` (e.g. to read its trace).
    pub fn domain(&self, domain: usize) -> &BusSim {
        &self.shards[domain].sim
    }

    /// Mutable access to the shard simulator for `domain`.
    pub fn domain_mut(&mut self, domain: usize) -> &mut BusSim {
        &mut self.shards[domain].sim
    }

    /// The merged telemetry registry: per-shard `siopmp.*`/`bus.*` metrics
    /// folded at every barrier, plus the engine's own `parallel.*`
    /// counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.merged
    }

    /// Enables event tracing on every shard.
    pub fn enable_trace(&mut self, capacity: usize) {
        for shard in &mut self.shards {
            shard.sim.enable_trace(capacity);
        }
    }

    /// Runs every shard to completion (or `max_cycles`, whichever is
    /// first), exchanging cross-domain bursts at epoch barriers. The
    /// merged report concatenates per-shard master reports in domain
    /// order (bridge masters, where created, appear after their domain's
    /// own masters); `cycles` is the maximum over shards.
    ///
    /// With more than one thread, the workers start here and stop when
    /// the run ends. A panic on a worker (in a policy, say) propagates
    /// out of this call; the engine must not be used after that.
    pub fn run(&mut self, max_cycles: u64) -> SimReport {
        // The partition is irrelevant to results — shards are disjoint —
        // so only the clamped thread count's wall clock differs.
        let threads = self.threads.min(self.shards.len());
        if threads <= 1 {
            self.run_epochs(max_cycles, |shards, target| {
                for shard in shards {
                    shard.advance(target);
                }
            });
        } else {
            thread::scope(|scope| {
                let mut pool = Pool::start(scope, self.shards.len(), threads);
                self.run_epochs(max_cycles, |shards, target| pool.advance(shards, target));
            });
        }
        // Barrier-time delivery may have stepped shards (catching them up
        // to the barrier); fold whatever that produced.
        self.fold_telemetry();
        self.report()
    }

    /// The epoch loop: `advance` every shard to the next barrier, fold
    /// telemetry, exchange cross-domain traffic, until every shard drains
    /// with nothing in transit or the cycle budget runs out.
    fn run_epochs(&mut self, max_cycles: u64, mut advance: impl FnMut(&mut Vec<Shard>, u64)) {
        let mut target = 0u64;
        loop {
            target = (target + self.epoch_cycles).min(max_cycles);
            advance(&mut self.shards, target);
            self.fold_telemetry();
            let moved = self.exchange(target);
            self.epochs.inc();
            let all_done = self.shards.iter().all(|s| s.sim.all_done());
            if moved == 0 && (all_done || target >= max_cycles) {
                break;
            }
        }
    }

    /// The merged report as of the current state (what [`ParallelSim::run`]
    /// returns).
    pub fn report(&self) -> SimReport {
        let mut merged = SimReport {
            completed: true,
            ..SimReport::default()
        };
        for shard in &self.shards {
            let r = shard.sim.report();
            merged.cycles = merged.cycles.max(r.cycles);
            merged.completed &= r.completed;
            merged.control_faults += r.control_faults;
            merged.masters.extend(r.masters);
        }
        merged
    }

    /// Folds each shard's telemetry delta since the previous barrier into
    /// the merged registry, in domain order.
    fn fold_telemetry(&mut self) {
        for shard in &mut self.shards {
            shard.fold.fold();
        }
    }

    /// Collects every shard's egress, orders it by `(cycle, domain,
    /// master, seq)`, and delivers each burst to the domain whose home
    /// window contains its address (via that domain's bridge master,
    /// created on first delivery). Bursts no window claims are dropped and
    /// counted in `parallel.unrouted_egress`. Returns the number of
    /// bursts delivered.
    fn exchange(&mut self, target: u64) -> usize {
        let mut outbound: Vec<(u64, usize, usize, u64, BurstRequest)> = Vec::new();
        for (domain, shard) in self.shards.iter_mut().enumerate() {
            for e in shard.sim.take_egress() {
                outbound.push((e.cycle, domain, e.master, e.seq, e.burst));
            }
        }
        if outbound.is_empty() {
            return 0;
        }
        // The deterministic exchange order — never thread arrival order.
        outbound.sort_by_key(|&(cycle, domain, master, seq, _)| (cycle, domain, master, seq));
        let windows: Vec<Option<(u64, u64)>> = self.shards.iter().map(|s| s.window).collect();
        let mut per_dest: Vec<Vec<BurstRequest>> = vec![Vec::new(); self.shards.len()];
        let mut moved = 0;
        for (_cycle, source, _master, _seq, burst) in outbound {
            let dest = windows.iter().enumerate().find(|(domain, window)| {
                *domain != source
                    && window.is_some_and(|(base, len)| {
                        burst.addr >= base && burst.addr < base.saturating_add(len)
                    })
            });
            match dest {
                Some((domain, _)) => {
                    per_dest[domain].push(burst);
                    moved += 1;
                    self.cross_domain.inc();
                }
                None => self.unrouted.inc(),
            }
        }
        for (domain, bursts) in per_dest.into_iter().enumerate() {
            if bursts.is_empty() {
                continue;
            }
            let shard = &mut self.shards[domain];
            // A drained shard may have stopped short of the barrier; catch
            // it up (idle cycles, applying any pending fault events) so the
            // delivery lands at the barrier cycle on every thread count.
            while shard.sim.cycle() < target {
                shard.sim.step();
            }
            let bridge = *shard.bridge.get_or_insert_with(|| {
                shard.sim.add_master(
                    MasterProgram::empty(BRIDGE_DEVICE_BASE + domain as u64).with_outstanding(4),
                )
            });
            shard.sim.extend_master_program(bridge, bursts);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::BurstKind;
    use crate::policy::{AllowAll, DenyRange};

    fn two_domain_sim(threads: usize) -> ParallelSim {
        let mut psim = ParallelSim::new(64, threads);
        // Domain 0 owns [0x1000, 0x2000); its master also writes into
        // domain 1's window.
        psim.add_domain(
            DomainSpec::for_policy(AllowAll)
                .with_home_window(0x1000, 0x1000)
                .with_master(
                    MasterProgram::streaming(1, BurstKind::Read, 0x1000, 64, 4)
                        .chain(MasterProgram::streaming(1, BurstKind::Write, 0x2000, 64, 2)),
                ),
        );
        psim.add_domain(
            DomainSpec::for_policy(AllowAll)
                .with_home_window(0x2000, 0x1000)
                .with_master(MasterProgram::streaming(2, BurstKind::Read, 0x2000, 64, 4)),
        );
        psim
    }

    #[test]
    fn single_domain_matches_serial_engine() {
        let mut serial = BusSim::build(BusConfig::default(), Box::new(AllowAll), None);
        serial.add_master(MasterProgram::streaming(1, BurstKind::Read, 0x0, 64, 16));
        let want = serial.run_to_completion(100_000);

        let mut psim = ParallelSim::new(32, 4);
        psim.add_domain(
            DomainSpec::for_policy(AllowAll).with_master(MasterProgram::streaming(
                1,
                BurstKind::Read,
                0x0,
                64,
                16,
            )),
        );
        let got = psim.run(100_000);
        assert_eq!(got, want);
        assert_eq!(
            got.to_json().pretty(),
            want.to_json().pretty(),
            "single-domain parallel run must be byte-identical to serial"
        );
    }

    #[test]
    fn cross_domain_bursts_reach_the_owning_shard() {
        let mut psim = two_domain_sim(2);
        let report = psim.run(100_000);
        assert!(report.completed);
        // Domain 1 grew a bridge master that replayed the 2 cross writes.
        assert_eq!(report.masters.len(), 3);
        let bridge = &report.masters[2];
        assert_eq!(bridge.bursts_completed, 2);
        assert_eq!(
            psim.telemetry()
                .counter("parallel.cross_domain_bursts")
                .get(),
            2
        );
        assert_eq!(
            psim.telemetry().counter("parallel.unrouted_egress").get(),
            0
        );
    }

    #[test]
    fn thread_counts_agree_byte_for_byte() {
        let baseline = {
            let mut psim = two_domain_sim(1);
            let report = psim.run(100_000);
            (
                report.to_json().pretty(),
                psim.telemetry().snapshot().to_json().pretty(),
            )
        };
        for threads in [2, 4] {
            let mut psim = two_domain_sim(threads);
            let report = psim.run(100_000);
            assert_eq!(report.to_json().pretty(), baseline.0, "threads={threads}");
            assert_eq!(
                psim.telemetry().snapshot().to_json().pretty(),
                baseline.1,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn unrouted_egress_is_dropped_and_counted() {
        let mut psim = ParallelSim::new(64, 1);
        psim.add_domain(
            DomainSpec::for_policy(AllowAll)
                .with_home_window(0x1000, 0x1000)
                .with_master(MasterProgram::uniform(1, BurstKind::Write, 0xdead_0000, 3)),
        );
        let report = psim.run(100_000);
        assert!(report.completed);
        assert_eq!(
            psim.telemetry().counter("parallel.unrouted_egress").get(),
            3
        );
        assert_eq!(
            psim.telemetry()
                .counter("parallel.cross_domain_bursts")
                .get(),
            0
        );
    }

    #[test]
    fn denied_bursts_never_cross_domains() {
        let mut psim = ParallelSim::new(64, 1);
        // Domain 0 denies the foreign range, so nothing completes Ok
        // against it and no egress is produced.
        psim.add_domain(
            DomainSpec::for_policy(DenyRange {
                base: 0x2000,
                len: 0x1000,
            })
            .with_home_window(0x1000, 0x1000)
            .with_master(MasterProgram::uniform(1, BurstKind::Write, 0x2000, 2)),
        );
        psim.add_domain(DomainSpec::for_policy(AllowAll).with_home_window(0x2000, 0x1000));
        let report = psim.run(100_000);
        assert!(report.completed);
        assert_eq!(report.masters[0].bursts_bus_error, 2);
        assert_eq!(
            psim.telemetry()
                .counter("parallel.cross_domain_bursts")
                .get(),
            0
        );
        assert_eq!(report.masters.len(), 1, "no bridge was ever created");
    }

    /// Allows every access until its `n`-th decision, then panics.
    struct PanicsOnDecision(usize);

    impl AccessPolicy for PanicsOnDecision {
        fn decide(
            &mut self,
            _: siopmp::ids::DeviceId,
            _: siopmp::request::AccessKind,
            _: u64,
            _: u64,
        ) -> crate::policy::PolicyVerdict {
            self.0 -= 1;
            assert!(self.0 > 0, "policy failed on purpose");
            crate::policy::PolicyVerdict::Allowed
        }
    }

    /// Two domains on two workers; domain 1's policy panics mid-run.
    fn run_with_a_panicking_policy() -> SimReport {
        let mut psim = ParallelSim::new(16, 2);
        psim.add_domain(
            DomainSpec::for_policy(AllowAll).with_master(MasterProgram::uniform(
                1,
                BurstKind::Read,
                0x0,
                64,
            )),
        );
        psim.add_domain(
            DomainSpec::for_policy(PanicsOnDecision(20)).with_master(MasterProgram::uniform(
                2,
                BurstKind::Read,
                0x0,
                64,
            )),
        );
        psim.run(100_000)
    }

    #[test]
    fn worker_panics_propagate_out_of_run() {
        // The run happens on a helper thread so that a hang fails the
        // test on the timeout below instead of wedging the suite.
        let (tx, rx) = mpsc::channel();
        let helper = thread::spawn(move || {
            let panic = std::panic::catch_unwind(run_with_a_panicking_policy).err();
            let _ = tx.send(panic.map(|p| p.downcast_ref::<&str>().map(|s| s.to_string())));
        });
        let panic = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("run hung after a worker panicked");
        helper.join().expect("the helper caught the panic itself");
        let message = panic.expect("a worker panic must propagate out of run");
        assert_eq!(message.as_deref(), Some("policy failed on purpose"));
    }

    #[test]
    fn cycle_budget_bounds_every_shard() {
        let mut psim = ParallelSim::new(64, 2);
        for d in 0..2u64 {
            psim.add_domain(
                DomainSpec::for_policy(AllowAll).with_master(MasterProgram::uniform(
                    d + 1,
                    BurstKind::Read,
                    0x0,
                    1_000_000,
                )),
            );
        }
        let report = psim.run(200);
        assert!(!report.completed);
        assert_eq!(report.cycles, 200);
    }

    #[test]
    fn shards_share_one_checker_deterministically() {
        use siopmp::entry::{AddressRange, IopmpEntry, Permissions};
        use siopmp::ids::{DeviceId as Dev, MdIndex};

        // Two shards front the same published snapshot through shared
        // handles: device 1 is authorised, device 9 is unknown (denied).
        // Results and protection counters must not depend on how the
        // shards are scheduled across worker threads.
        let run = |threads: usize| {
            let mut unit = siopmp::Siopmp::build(siopmp::SiopmpConfig::small(), None);
            let sid = unit.map_hot_device(Dev(1)).unwrap();
            unit.associate_sid_with_md(sid, MdIndex(0)).unwrap();
            unit.install_entry(
                MdIndex(0),
                IopmpEntry::new(
                    AddressRange::new(0x1000, 0x1000).unwrap(),
                    Permissions::rw(),
                ),
            )
            .unwrap();
            let mut psim = ParallelSim::new(64, threads);
            psim.add_domain(
                DomainSpec::with_shared_checker(BusConfig::default(), unit.share())
                    .with_master(MasterProgram::streaming(1, BurstKind::Read, 0x1000, 64, 4)),
            );
            psim.add_domain(
                DomainSpec::with_shared_checker(BusConfig::default(), unit.share())
                    .with_master(MasterProgram::streaming(9, BurstKind::Write, 0x1000, 64, 2)),
            );
            let report = psim.run(100_000);
            assert!(report.completed);
            (report.to_json().pretty(), unit.stats())
        };

        let (baseline_report, baseline_stats) = run(1);
        assert!(baseline_stats.checks > 0);
        assert!(baseline_stats.allowed > 0);
        assert!(baseline_stats.violations > 0, "device 9 must be denied");
        for threads in [2, 4] {
            let (report, stats) = run(threads);
            assert_eq!(report, baseline_report, "threads={threads}");
            assert_eq!(stats, baseline_stats, "threads={threads}");
        }
    }
}
