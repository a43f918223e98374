//! The campaign runner.
//!
//! Campaigns run on a **checkpoint-tree fork** engine by default: the
//! fault-free golden trajectory is simulated exactly once, dropping a
//! *pool* of [`leon3_model::Snapshot`] checkpoints along the way — one at
//! the reset state, one at each requested injection boundary, and (with
//! [`Campaign::with_checkpoint_stride`]) one every K cycles. Every
//! (site, kind, instant) job restores the nearest ancestor checkpoint at
//! or before its own injection boundary and replays only the fault-free
//! gap before activation, so no campaign — single-instant, multi-instant
//! or transient sweep — ever re-executes a prefix cycle twice, and no job
//! ever falls back to full re-execution. A dense instant sweep thins its
//! per-boundary checkpoints to a bounded pool (trading bounded replay for
//! bounded memory). Two further cost levers ride on the same machinery:
//!
//! * **site-activation tracking** — the golden run records, per net, the
//!   cycle of its last read. A permanent fault is observable only through a
//!   net *read*, and a faulty run tracks the golden trajectory until its
//!   first diverging read, so a job whose injected net the golden run never
//!   reads from the injection instant on is classified `NoEffect` without
//!   simulating a single cycle;
//! * **streaming divergence detection** — each off-core write of a faulty
//!   run is compared against the golden stream as it is emitted, and the
//!   run is short-circuited at the first mismatching or extra write.
//!
//! [`Execution::FullReexecution`] retains the pre-fork engine (every job
//! re-simulated from reset). Both engines produce **bit-identical
//! records**; only the [`crate::CampaignStats`] cost accounting differs.
//!
//! # Fault tolerance
//!
//! Campaigns are built to survive the failure modes of long runs:
//!
//! * **panic isolation** — every job executes under
//!   [`std::panic::catch_unwind`]. A panicking job is retried once from a
//!   fresh model restore; a second panic records the job as
//!   [`FaultOutcome::EngineAnomaly`] (payload preserved) and the campaign
//!   continues, losing at most that one job;
//! * **wall-clock watchdog** — [`Campaign::with_deadline`] bounds each job
//!   by wall-clock time (cooperatively checked in the run loop) on top of
//!   the architectural cycle budget; overruns classify as
//!   [`FaultOutcome::Hang`] and are counted in `CampaignStats::timed_out`;
//! * **write-ahead result journal** — [`Campaign::run_journaled`] appends
//!   one flushed JSONL line per completed job, and [`Campaign::resume`]
//!   validates the journal header (workload hash, configuration
//!   fingerprint, job universe), replays completed jobs and simulates only
//!   the rest, reconstituting a bit-identical [`CampaignResult`];
//! * **structured configuration errors** — invalid configurations surface
//!   as [`CampaignError`] from the `try_*` entry points instead of
//!   panicking ([`Campaign::run`] keeps the panicking contract for
//!   existing callers).

use crate::error::{CampaignError, JournalError};
use crate::journal::{self, fnv1a64, Entry, Header, Journal, FNV_OFFSET};
use crate::result::{CampaignResult, CampaignStats, FaultOutcome, FaultRecord};
use crate::safety::{self, Detection, DetectionContext, SafetyConfig};
use crate::sites::{fault_sites, sample_sites, targeted_sites, AttackTarget, FaultSite, Target};
use crate::static_analysis::{PrunedBy, StaticAnalysis};
use crate::wire::kind_to_token;
use analysis::SplitMix64;
use leon3_model::{Leon3, Leon3Config, Snapshot};
use rtl_sim::{Fault, FaultKind, NetId};
use sparc_asm::Program;
use sparc_iss::{BusEvent, Exit, StepEvent};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// Maximum number of live checkpoints a fork-engine campaign keeps in its
/// pool. A dense instant sweep (or a tight [`Campaign::with_checkpoint_stride`])
/// is thinned evenly to this cap — always keeping the reset state and the
/// deepest boundary — so pool memory stays bounded; jobs whose exact
/// boundary was thinned away replay the bounded gap from the nearest
/// surviving ancestor checkpoint instead.
pub const MAX_POOL_CHECKPOINTS: usize = 32;

/// The fault-free reference execution of a workload on the RTL model.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// The off-core write stream.
    pub writes: Vec<BusEvent>,
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles consumed.
    pub cycles: u64,
    /// The exit code.
    pub exit_code: u32,
    /// The largest gap in cycles between consecutive off-core writes,
    /// measured from cycle 0 (no trailing gap after the last write): the
    /// floor a simulated watchdog timeout must clear to stay silent on
    /// the fault-free run.
    pub max_write_gap: u64,
    /// Cumulative cycle count after each `step()` call, for locating the
    /// last instruction boundary strictly before an injection instant.
    step_cycles: Vec<u64>,
    /// Per-net cycle of the last golden read (`None` = never read),
    /// indexed by raw net id.
    net_last_read: Vec<Option<u64>>,
}

impl GoldenRun {
    /// Execute the golden run.
    ///
    /// # Panics
    ///
    /// Panics if the workload does not halt — golden runs must be
    /// trap-free and terminating by construction.
    pub fn capture(program: &Program, config: &Leon3Config) -> GoldenRun {
        let mut cpu = Leon3::new(config.clone());
        cpu.enable_read_tracking();
        cpu.load(program);
        let mut step_cycles = Vec::new();
        let exit_code = loop {
            let event = cpu.step();
            step_cycles.push(cpu.cycles());
            if event == StepEvent::Stopped {
                match cpu.exit() {
                    Some(Exit::Halted(code)) => break code,
                    other => panic!("golden run did not halt: {other:?}"),
                }
            }
        };
        let net_last_read = (0..cpu.pool().len())
            .map(|i| cpu.net_last_read(NetId::from_raw(i as u32)))
            .collect();
        let writes: Vec<BusEvent> = cpu.bus_trace().writes().copied().collect();
        let mut max_write_gap = 0;
        let mut last = 0;
        for w in &writes {
            max_write_gap = max_write_gap.max(w.at.saturating_sub(last));
            last = w.at;
        }
        GoldenRun {
            writes,
            instructions: cpu.stats().instructions,
            cycles: cpu.cycles(),
            exit_code,
            max_write_gap,
            step_cycles,
            net_last_read,
        }
    }

    /// Number of `step()` calls that complete strictly before
    /// `injection_cycle` — the longest fault-free prefix every job of a
    /// campaign injecting at that instant can share.
    pub fn prefix_steps(&self, injection_cycle: u64) -> usize {
        self.step_cycles.partition_point(|&c| c < injection_cycle)
    }

    /// Cycle count after `steps` completed `step()` calls (0 at reset).
    /// The checkpoint pool uses this to price the fault-free gap between
    /// an ancestor checkpoint and a job's injection boundary.
    pub fn cycle_at_step(&self, steps: usize) -> u64 {
        if steps == 0 {
            0
        } else {
            self.step_cycles[steps - 1]
        }
    }

    /// Whether the golden run reads `net` at or after `cycle`.
    ///
    /// A permanent fault perturbs execution only through a [`NetId`] read,
    /// and a faulty run is cycle-identical to the golden run until its
    /// first read of a perturbed net — so when this returns `false` for an
    /// injection at `cycle`, the faulty run provably reproduces the golden
    /// run to the end.
    pub fn net_exercised_from(&self, net: NetId, cycle: u64) -> bool {
        self.net_last_read
            .get(net.raw() as usize)
            .copied()
            .flatten()
            .is_some_and(|last| last >= cycle)
    }
}

/// When a campaign's faults appear (permanent from then on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionInstant {
    /// An absolute cycle.
    Cycle(u64),
    /// A fraction of the golden run's length (e.g. `0.05` = after 5% of
    /// the golden cycles). This is how the paper's "fixed injection
    /// instant" is expressed portably across workloads — and what makes
    /// open-line faults hold a *live* value rather than the reset value.
    Fraction(f64),
}

/// How a campaign executes its fault universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Execution {
    /// Checkpoint-tree fork: simulate the fault-free trajectory once,
    /// dropping a pool of checkpoints (reset state, every requested
    /// injection boundary, plus an optional periodic grid), and resume
    /// every job from its nearest ancestor checkpoint, replaying only the
    /// fault-free gap. Jobs whose nets the golden run never reads from
    /// the injection instant on are classified without simulation. There
    /// is no full-re-execution fallback: the reset-state checkpoint is an
    /// ancestor of every instant.
    #[default]
    Fork,
    /// Re-simulate every job from reset. Kept as the equivalence baseline
    /// and for A/B benchmarking; produces bit-identical records.
    FullReexecution,
}

/// A fault-injection campaign: one workload, one injection domain, a fault
/// list and a set of fault models.
#[derive(Debug, Clone)]
pub struct Campaign {
    program: Program,
    target: Target,
    kinds: Vec<FaultKind>,
    sample: Option<(usize, u64)>,
    sites_override: Option<Vec<FaultSite>>,
    attack_targets: Option<Vec<AttackTarget>>,
    injection: InjectionInstant,
    execution: Execution,
    deadline: Option<Duration>,
    config: Leon3Config,
    safety: SafetyConfig,
    shard: Option<(u32, u32)>,
    checkpoint_stride: Option<u64>,
    static_analysis: bool,
    static_audit: Option<(usize, u64)>,
}

impl Campaign {
    /// A campaign over the full fault universe of `target` with all three
    /// fault models.
    pub fn new(program: Program, target: Target) -> Campaign {
        Campaign {
            program,
            target,
            kinds: FaultKind::ALL.to_vec(),
            sample: None,
            sites_override: None,
            attack_targets: None,
            injection: InjectionInstant::Cycle(0),
            execution: Execution::default(),
            deadline: None,
            config: Leon3Config::default(),
            safety: SafetyConfig::default(),
            shard: None,
            checkpoint_stride: None,
            static_analysis: false,
            static_audit: None,
        }
    }

    /// The modelled safety mechanisms.
    pub fn safety(&self) -> SafetyConfig {
        self.safety
    }

    /// The hash of the workload image — the first half of
    /// [`Campaign::fingerprint`], shared by every campaign over the same
    /// program.
    pub fn workload_hash(&self) -> u64 {
        workload_hash(&self.program)
    }

    /// Configure the modelled safety mechanisms (see [`SafetyConfig`]).
    /// All mechanisms are off by default, in which case every record's
    /// detection is [`Detection::Undetected`] and outcomes are
    /// bit-identical to a mechanism-free campaign.
    #[must_use]
    pub fn with_safety(mut self, safety: SafetyConfig) -> Campaign {
        self.safety = safety;
        self
    }

    /// Enable the windowed lockstep comparator: the checker fires at the
    /// first `window`-write boundary at or past the divergence. A zero
    /// window is reported as [`CampaignError::ZeroLockstepWindow`] when
    /// the campaign runs.
    #[must_use]
    pub fn with_lockstep_window(mut self, window: u64) -> Campaign {
        self.safety.lockstep_window = Some(window);
        self
    }

    /// Enable (or disable) per-line cache parity in the simulated CMEM.
    /// The parity bits are themselves injectable fault sites.
    #[must_use]
    pub fn with_parity(mut self, enabled: bool) -> Campaign {
        self.safety.parity = enabled;
        self
    }

    /// Enable the simulated-time hardware watchdog, kicked by every
    /// off-core write. A timeout no longer than the golden run's largest
    /// inter-write gap is reported as [`CampaignError::WatchdogTooTight`]
    /// when the campaign runs.
    #[must_use]
    pub fn with_watchdog_cycles(mut self, timeout: u64) -> Campaign {
        self.safety.watchdog_cycles = Some(timeout);
        self
    }

    /// Restrict to a seeded stratified sample of `n` sites.
    #[must_use]
    pub fn with_sample(mut self, n: usize, seed: u64) -> Campaign {
        self.sample = Some((n, seed));
        self
    }

    /// Restrict the fault models. An empty list is reported as
    /// [`CampaignError::NoFaultKinds`] when the campaign runs.
    #[must_use]
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> Campaign {
        self.kinds = kinds.to_vec();
        self
    }

    /// Inject exactly this fault list, bypassing enumeration and sampling
    /// (custom fault lists, regression lists, or deliberately poisoned
    /// sites in the panic-isolation tests).
    #[must_use]
    pub fn with_sites(mut self, sites: Vec<FaultSite>) -> Campaign {
        self.sites_override = Some(sites);
        self
    }

    /// Restrict the fault universe to the attack-surface classes'
    /// semantic nets ([`crate::targeted_sites`]): branch condition,
    /// status register and/or program-counter state — the InjectV-style
    /// targeted campaign shape. Replaces domain enumeration; a seeded
    /// sample still applies on top when the class universe is larger
    /// than the sample. An explicit [`Campaign::with_sites`] list wins
    /// over both. An empty class list is reported as
    /// [`CampaignError::NoFaultSites`] when the campaign runs.
    #[must_use]
    pub fn with_attack_targets(mut self, targets: &[AttackTarget]) -> Campaign {
        let mut targets = targets.to_vec();
        targets.sort();
        targets.dedup();
        self.attack_targets = Some(targets);
        self
    }

    /// Set the injection instant (cycle at which faults appear; they are
    /// permanent from then on). Defaults to cycle 0.
    #[must_use]
    pub fn with_injection_cycle(mut self, cycle: u64) -> Campaign {
        self.injection = InjectionInstant::Cycle(cycle);
        self
    }

    /// Set the injection instant as a fraction of the golden run's cycle
    /// count. A fraction outside `[0, 1]` is reported as
    /// [`CampaignError::InjectionPastEnd`] when the campaign runs.
    #[must_use]
    pub fn with_injection_fraction(mut self, fraction: f64) -> Campaign {
        self.injection = InjectionInstant::Fraction(fraction);
        self
    }

    /// Select the execution engine. Defaults to [`Execution::Fork`].
    #[must_use]
    pub fn with_execution(mut self, execution: Execution) -> Campaign {
        self.execution = execution;
        self
    }

    /// Bound every job by wall-clock time on top of the architectural
    /// cycle budget. Overruns classify as [`FaultOutcome::Hang`] and are
    /// counted in [`CampaignStats::timed_out`]. Off by default — and best
    /// kept generous: a deadline that fires on a job the cycle budget
    /// would have classified differently makes results host-load
    /// dependent. The deadline does not enter the journal fingerprint for
    /// the same reason.
    #[must_use]
    pub fn with_deadline(mut self, per_job: Duration) -> Campaign {
        self.deadline = Some(per_job);
        self
    }

    /// Run only shard `index` of `count`: the planned job list is
    /// partitioned deterministically by stride (job `j` belongs to shard
    /// `j % count`), so `count` processes each simulate a disjoint slice
    /// of the same campaign and [`crate::wire::merge_shards`] recombines
    /// their results into the unsharded [`CampaignResult`] bit-for-bit.
    /// `index >= count` (or a zero `count`) is reported as
    /// [`CampaignError::BadShard`] when the campaign runs. The shard
    /// coordinates enter the journal fingerprint — a shard refuses
    /// another shard's journal — but not [`Campaign::fingerprint`], which
    /// identifies the whole campaign.
    #[must_use]
    pub fn with_shard(mut self, index: u32, count: u32) -> Campaign {
        self.shard = Some((index, count));
        self
    }

    /// Drop a periodic checkpoint into the fork engine's pool every
    /// `stride` cycles of the golden trajectory, in addition to the
    /// per-boundary checkpoints. A denser grid shortens the fault-free
    /// gap a thinned-pool job must replay at the price of snapshot
    /// memory; without it the pool holds only the reset state and the
    /// requested injection boundaries. A zero stride is reported as
    /// [`CampaignError::ZeroCheckpointStride`] when the campaign runs.
    /// The stride enters the configuration fingerprint (it changes every
    /// job's cost delta), so a resumed journal must agree on it.
    #[must_use]
    pub fn with_checkpoint_stride(mut self, stride: u64) -> Campaign {
        self.checkpoint_stride = Some(stride);
        self
    }

    /// Override the platform configuration.
    ///
    /// Bus-read tracing is forced off for classification runs: outcomes
    /// are defined over the off-core *write* stream.
    #[must_use]
    pub fn with_config(mut self, config: Leon3Config) -> Campaign {
        self.config = config;
        self
    }

    /// Enable static net-graph analysis (see [`StaticAnalysis`]): jobs on
    /// provably-unobservable nets — and transient flips on transient-safe
    /// latches — are recorded as benign with [`PrunedBy::Static`]
    /// provenance instead of being simulated, and stuck-at jobs on
    /// collapsed equivalence-class members copy their simulated
    /// representative's outcome with [`PrunedBy::Collapsed`] provenance.
    /// Every planned job still gets a record; nothing is silently
    /// dropped. Pruned and collapsed jobs are counted in
    /// [`CampaignStats::statically_pruned`] and the classes in
    /// [`CampaignStats::collapsed_classes`]. Off by default; the flag
    /// enters the configuration fingerprint. Dual-point campaigns refuse
    /// the flag with [`CampaignError::StaticWithPairs`].
    #[must_use]
    pub fn with_static_analysis(mut self, enabled: bool) -> Campaign {
        self.static_analysis = enabled;
        self
    }

    /// Audit the static analyzer: after the campaign completes, fully
    /// re-simulate (from reset) a seeded sample of up to `n` pruned or
    /// collapsed jobs and fail with [`CampaignError::StaticAuditFailed`]
    /// if any re-simulation contradicts the synthesised record. The audit
    /// work is a verification pass and is not billed in
    /// [`CampaignStats`]. Requires [`Campaign::with_static_analysis`];
    /// configuring it alone is reported as
    /// [`CampaignError::AuditWithoutStaticAnalysis`].
    #[must_use]
    pub fn with_static_audit(mut self, n: usize, seed: u64) -> Campaign {
        self.static_audit = Some((n, seed));
        self
    }

    /// The fault list this campaign will inject. Enumerated against the
    /// effective classification configuration, so an enabled parity
    /// mechanism contributes its parity bits as injectable sites.
    pub fn sites(&self) -> Vec<FaultSite> {
        if let Some(sites) = &self.sites_override {
            return sites.clone();
        }
        let reference = Leon3::new(self.classification_config());
        let all = match &self.attack_targets {
            Some(targets) => targeted_sites(&reference, targets),
            None => fault_sites(&reference, self.target),
        };
        match self.sample {
            Some((n, seed)) => sample_sites(&all, n, seed),
            None => all,
        }
    }

    /// Run the campaign on `threads` worker threads and aggregate.
    ///
    /// The result's [`CampaignResult::stats`] reports what the configured
    /// [`Execution`] engine actually simulated; the records themselves are
    /// engine-independent.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`Campaign::try_run`]
    /// for the structured-error contract) or the golden run does not
    /// halt.
    pub fn run(&self, threads: usize) -> CampaignResult {
        self.try_run(threads)
            .unwrap_or_else(|e| panic!("invalid campaign: {e}"))
    }

    /// Run the campaign, reporting configuration mistakes as
    /// [`CampaignError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Fails on zero threads, an empty fault-model list, an empty fault
    /// list, or an injection fraction outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt (a workload bug, not a
    /// configuration error).
    pub fn try_run(&self, threads: usize) -> Result<CampaignResult, CampaignError> {
        self.run_listed(threads, false, JournalMode::None, None)
    }

    /// Capture this campaign's golden run once for reuse across many
    /// campaigns over the same workload (e.g. a service sweeping fault
    /// kinds or instants over one benchmark). The preparation pins the
    /// workload image and the classification platform configuration;
    /// [`Campaign::try_run_prepared`] refuses a mismatch.
    ///
    /// # Errors
    ///
    /// Fails on the [`Campaign::try_run`] validation conditions.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt.
    pub fn prepare(&self) -> Result<PreparedWorkload, CampaignError> {
        self.validate(1)?;
        let config = self.classification_config();
        Ok(PreparedWorkload {
            workload: workload_hash(&self.program),
            config: format!("{config:?}"),
            golden: GoldenRun::capture(&self.program, &config),
        })
    }

    /// [`Campaign::try_run`] reusing a [`PreparedWorkload`]'s golden run
    /// instead of re-capturing it. The result is byte-identical to
    /// [`Campaign::try_run`] — golden capture is never billed in
    /// [`CampaignStats`], so only wall-clock time changes.
    ///
    /// # Errors
    ///
    /// Fails on the [`Campaign::try_run`] conditions, or
    /// [`CampaignError::PreparedMismatch`] if `prepared` was built for a
    /// different workload or platform configuration.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt.
    pub fn try_run_prepared(
        &self,
        threads: usize,
        prepared: &PreparedWorkload,
    ) -> Result<CampaignResult, CampaignError> {
        self.run_listed(threads, false, JournalMode::None, Some(prepared))
    }

    /// Dual-point variant for ISO 26262 latent-fault analysis: the sampled
    /// site list is chained into overlapping pairs `(s0,s1), (s1,s2), …`
    /// and both faults of a pair are present simultaneously. The record's
    /// `site` is the pair's first site.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`Campaign::try_run_pairs`]) or the golden run does not halt.
    pub fn run_pairs(&self, threads: usize) -> CampaignResult {
        self.try_run_pairs(threads)
            .unwrap_or_else(|e| panic!("invalid campaign: {e}"))
    }

    /// Dual-point variant of [`Campaign::try_run`].
    ///
    /// # Errors
    ///
    /// Fails on the [`Campaign::try_run`] conditions, or fewer than two
    /// sites in the fault list.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt.
    pub fn try_run_pairs(&self, threads: usize) -> Result<CampaignResult, CampaignError> {
        self.run_listed(threads, true, JournalMode::None, None)
    }

    /// Run the campaign with a write-ahead result journal at `path`: the
    /// file is created (truncated) with a validating header, and every
    /// completed job appends one flushed JSONL line *before* its record is
    /// published. A killed process loses at most the job lines in flight;
    /// [`Campaign::resume`] picks the campaign back up.
    ///
    /// # Errors
    ///
    /// Fails on the [`Campaign::try_run`] conditions or journal I/O
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt.
    pub fn run_journaled(
        &self,
        threads: usize,
        path: &Path,
    ) -> Result<CampaignResult, CampaignError> {
        self.run_listed(threads, false, JournalMode::Create(path), None)
    }

    /// Resume a campaign from the write-ahead journal at `path`: the
    /// header is validated against this campaign (workload hash,
    /// configuration fingerprint, job universe, resolved injection
    /// instant), completed jobs are replayed from the journal, and only
    /// the remaining jobs are simulated — appending to the same journal,
    /// so a resumed journal ends complete. The reconstituted
    /// [`CampaignResult`] is bit-identical to an uninterrupted
    /// [`Campaign::run_journaled`] (records, latencies, and stats, modulo
    /// [`CampaignStats::resumed`]). A torn final line (the kill landed
    /// mid-append) is dropped and its job re-run.
    ///
    /// # Errors
    ///
    /// Fails on the [`Campaign::try_run`] conditions, journal I/O or
    /// parse errors, or a journal that does not belong to this campaign.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt.
    pub fn resume(&self, threads: usize, path: &Path) -> Result<CampaignResult, CampaignError> {
        self.run_listed(threads, false, JournalMode::Resume(path), None)
    }

    /// Run the same fault list at several injection instants as **one**
    /// campaign sharing one golden run and one checkpoint pool, returning
    /// one result per instant (in order). Under [`Execution::Fork`] the
    /// pool holds a checkpoint at (or, for a thinned dense sweep, an
    /// ancestor of) every instant's boundary, so **no** job falls back to
    /// full re-execution — any (site, kind, instant) forks or replays a
    /// bounded gap, and cold sites still skip simulation entirely. The
    /// pool-construction pass is billed to the first instant's stats.
    ///
    /// # Errors
    ///
    /// Fails on the [`Campaign::try_run`] conditions, an empty `instants`
    /// list, or any fraction outside `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt.
    pub fn try_run_multi(
        &self,
        threads: usize,
        instants: &[InjectionInstant],
    ) -> Result<Vec<CampaignResult>, CampaignError> {
        self.run_multi(threads, instants, JournalMode::None)
    }

    /// Multi-instant variant of [`Campaign::run_journaled`]: one
    /// write-ahead journal covers the whole sweep, with the instant list
    /// pinned in the header (`instants`, `instants_hash`).
    ///
    /// # Errors
    ///
    /// Fails on the [`Campaign::try_run_multi`] conditions or journal I/O
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt.
    pub fn run_multi_journaled(
        &self,
        threads: usize,
        instants: &[InjectionInstant],
        path: &Path,
    ) -> Result<Vec<CampaignResult>, CampaignError> {
        self.run_multi(threads, instants, JournalMode::Create(path))
    }

    /// Resume a multi-instant sweep from its write-ahead journal. The
    /// header must match this campaign *and* this instant list — a sweep
    /// over different instants, or a campaign with a different
    /// [`Campaign::with_checkpoint_stride`], is refused with
    /// [`JournalError::HeaderMismatch`].
    ///
    /// # Errors
    ///
    /// Fails on the [`Campaign::try_run_multi`] conditions, journal I/O
    /// or parse errors, or a journal that does not belong to this sweep.
    ///
    /// # Panics
    ///
    /// Panics if the golden run does not halt.
    pub fn resume_multi(
        &self,
        threads: usize,
        instants: &[InjectionInstant],
        path: &Path,
    ) -> Result<Vec<CampaignResult>, CampaignError> {
        self.run_multi(threads, instants, JournalMode::Resume(path))
    }

    fn run_multi(
        &self,
        threads: usize,
        instants: &[InjectionInstant],
        journal: JournalMode<'_>,
    ) -> Result<Vec<CampaignResult>, CampaignError> {
        self.validate(threads)?;
        if instants.is_empty() {
            return Err(CampaignError::NoInstants);
        }
        let config = self.classification_config();
        let golden = GoldenRun::capture(&self.program, &config);
        self.validate_watchdog(&golden)?;
        let cycles = instants
            .iter()
            .map(|&instant| resolve_instant(instant, &golden))
            .collect::<Result<Vec<u64>, CampaignError>>()?;
        let sites = self.sites();
        if sites.is_empty() {
            return Err(CampaignError::NoFaultSites);
        }
        let mut jobs = Vec::with_capacity(cycles.len() * sites.len() * self.kinds.len());
        for (group, &injection_cycle) in cycles.iter().enumerate() {
            for &site in &sites {
                for &kind in &self.kinds {
                    jobs.push(Job {
                        sites: [site, site],
                        n_sites: 1,
                        kind,
                        injection_cycle,
                        group,
                    });
                }
            }
        }
        let jobs = self.apply_shard(jobs);
        let plan = self.static_plan(&jobs);
        let header = self.header(false, jobs.len(), &cycles, &golden);
        let (writer, prefilled, _) = open_journal(&header, &jobs, journal)?;
        // Per-instant resumed counts (the campaign-level `resumed` of the
        // single-instant path, split by group).
        let mut resumed_by_group = vec![0usize; instants.len()];
        for (job, slot) in jobs.iter().zip(&prefilled) {
            resumed_by_group[job.group] += usize::from(slot.is_some());
        }
        let pool = self.build_pool(&config, &golden, &cycles);
        let per_job = self.execute_jobs(
            threads,
            &config,
            &golden,
            pool.as_ref(),
            &jobs,
            writer,
            prefilled,
            plan.as_deref(),
        )?;
        if let Some(plan) = &plan {
            self.run_static_audit(&config, &golden, &jobs, plan, &per_job)?;
        }
        let mut grouped: Vec<(Vec<FaultRecord>, CampaignStats)> = resumed_by_group
            .iter()
            .map(|&resumed| {
                (
                    Vec::new(),
                    CampaignStats {
                        golden_cycles: golden.cycles,
                        resumed,
                        ..CampaignStats::default()
                    },
                )
            })
            .collect();
        for (job, (record, delta)) in jobs.iter().zip(per_job) {
            let (records, stats) = &mut grouped[job.group];
            records.push(record);
            stats.jobs += 1;
            stats.merge(&delta);
        }
        if let Some(pool) = &pool {
            // The pool-construction pass is simulated once; bill it to
            // the first instant.
            grouped[0].1.prefix_cycles = pool.build_cycles();
            grouped[0].1.cycles_simulated += pool.build_cycles();
            grouped[0].1.checkpoints_taken = pool.len();
            grouped[0].1.checkpoint_bytes = pool.bytes();
        }
        if let Some(plan) = &plan {
            for (group, entry) in grouped.iter_mut().enumerate() {
                entry.1.collapsed_classes = collapsed_class_count(plan, &jobs, group);
            }
        }
        Ok(grouped
            .into_iter()
            .map(|(records, stats)| CampaignResult::with_stats(records, stats))
            .collect())
    }

    /// Reject configurations that previously died as config-time panics.
    fn validate(&self, threads: usize) -> Result<(), CampaignError> {
        if threads == 0 {
            return Err(CampaignError::ZeroThreads);
        }
        if self.kinds.is_empty() {
            return Err(CampaignError::NoFaultKinds);
        }
        for &kind in &self.kinds {
            if let Err(reason) = kind.validate() {
                return Err(CampaignError::InvalidFaultKind { reason });
            }
        }
        if let InjectionInstant::Fraction(f) = self.injection {
            if !(0.0..=1.0).contains(&f) {
                return Err(CampaignError::InjectionPastEnd { fraction: f });
            }
        }
        if self.safety.lockstep_window == Some(0) {
            return Err(CampaignError::ZeroLockstepWindow);
        }
        if self.checkpoint_stride == Some(0) {
            return Err(CampaignError::ZeroCheckpointStride);
        }
        if let Some((index, count)) = self.shard {
            if count == 0 || index >= count {
                return Err(CampaignError::BadShard { index, count });
            }
        }
        if self.static_audit.is_some() && !self.static_analysis {
            return Err(CampaignError::AuditWithoutStaticAnalysis);
        }
        Ok(())
    }

    /// Keep only this shard's stride of the planned job list (identity
    /// when the campaign is unsharded).
    fn apply_shard(&self, jobs: Vec<Job>) -> Vec<Job> {
        match self.shard {
            None => jobs,
            Some((index, count)) => jobs
                .into_iter()
                .enumerate()
                .filter(|(j, _)| j % count as usize == index as usize)
                .map(|(_, job)| job)
                .collect(),
        }
    }

    /// Reject a watchdog timeout that would fire on the fault-free run.
    /// Needs the golden run, so it cannot live in [`Campaign::validate`].
    fn validate_watchdog(&self, golden: &GoldenRun) -> Result<(), CampaignError> {
        if let Some(timeout) = self.safety.watchdog_cycles {
            if timeout <= golden.max_write_gap {
                return Err(CampaignError::WatchdogTooTight {
                    timeout_cycles: timeout,
                    golden_max_gap: golden.max_write_gap,
                });
            }
        }
        Ok(())
    }

    /// The single-instant run path shared by `try_run`, `try_run_pairs`,
    /// `run_journaled`, `resume` and `try_run_prepared`. When `prepared`
    /// is given its golden run is reused instead of re-captured; the
    /// result is byte-identical either way, since golden capture is never
    /// billed in [`CampaignStats`].
    fn run_listed(
        &self,
        threads: usize,
        pairs: bool,
        journal: JournalMode<'_>,
        prepared: Option<&PreparedWorkload>,
    ) -> Result<CampaignResult, CampaignError> {
        self.validate(threads)?;
        let config = self.classification_config();
        let captured;
        let golden = match prepared {
            Some(p) => {
                p.check(&self.program, &config)?;
                &p.golden
            }
            None => {
                captured = GoldenRun::capture(&self.program, &config);
                &captured
            }
        };
        self.validate_watchdog(golden)?;
        if pairs && self.static_analysis {
            return Err(CampaignError::StaticWithPairs);
        }
        let injection_cycle = resolve_instant(self.injection, golden)?;
        let sites = self.sites();
        if sites.is_empty() {
            return Err(CampaignError::NoFaultSites);
        }
        let jobs = self.plan_jobs(&sites, pairs, injection_cycle)?;
        let plan = self.static_plan(&jobs);
        let header = self.header(pairs, jobs.len(), &[injection_cycle], golden);
        let (writer, prefilled, resumed) = open_journal(&header, &jobs, journal)?;
        let pool = self.build_pool(&config, golden, &[injection_cycle]);
        let per_job = self.execute_jobs(
            threads,
            &config,
            golden,
            pool.as_ref(),
            &jobs,
            writer,
            prefilled,
            plan.as_deref(),
        )?;
        if let Some(plan) = &plan {
            self.run_static_audit(&config, golden, &jobs, plan, &per_job)?;
        }
        let mut stats = CampaignStats {
            jobs: jobs.len(),
            golden_cycles: golden.cycles,
            resumed,
            ..CampaignStats::default()
        };
        if let Some(plan) = &plan {
            stats.collapsed_classes = collapsed_class_count(plan, &jobs, 0);
        }
        if let Some(pool) = &pool {
            // The checkpoint pool is simulated exactly once.
            stats.prefix_cycles = pool.build_cycles();
            stats.cycles_simulated = pool.build_cycles();
            stats.checkpoints_taken = pool.len();
            stats.checkpoint_bytes = pool.bytes();
        }
        let mut records = Vec::with_capacity(per_job.len());
        for (record, delta) in per_job {
            stats.merge(&delta);
            records.push(record);
        }
        Ok(CampaignResult::with_stats(records, stats))
    }

    /// The journal header identifying this campaign over `cycles` (one
    /// entry per resolved instant; single-instant paths pass one).
    fn header(&self, pairs: bool, jobs: usize, cycles: &[u64], golden: &GoldenRun) -> Header {
        let mut instants_hash = FNV_OFFSET;
        for &c in cycles {
            instants_hash = fnv1a64(instants_hash, &c.to_be_bytes());
        }
        Header {
            workload: workload_hash(&self.program),
            fingerprint: self.config_fingerprint(pairs),
            jobs,
            injection_cycle: cycles[0],
            golden_cycles: golden.cycles,
            instants: cycles.len(),
            instants_hash,
            checkpoint_stride: self.checkpoint_stride.unwrap_or(0),
            kinds: self.kinds.iter().map(|&k| kind_to_token(k)).collect(),
        }
    }

    /// Expand the fault list into the campaign's job universe.
    fn plan_jobs(
        &self,
        sites: &[FaultSite],
        pairs: bool,
        injection_cycle: u64,
    ) -> Result<Vec<Job>, CampaignError> {
        let jobs: Vec<Job> = if pairs {
            if sites.len() < 2 {
                return Err(CampaignError::NotEnoughSitesForPairs {
                    available: sites.len(),
                });
            }
            sites
                .windows(2)
                .flat_map(|w| {
                    self.kinds.iter().map(move |&kind| Job {
                        sites: [w[0], w[1]],
                        n_sites: 2,
                        kind,
                        injection_cycle,
                        group: 0,
                    })
                })
                .collect()
        } else {
            sites
                .iter()
                .flat_map(|&site| {
                    self.kinds.iter().map(move |&kind| Job {
                        sites: [site, site],
                        n_sites: 1,
                        kind,
                        injection_cycle,
                        group: 0,
                    })
                })
                .collect()
        };
        Ok(self.apply_shard(jobs))
    }

    /// Hash of everything that determines the job universe and its
    /// records: used to refuse resuming a journal of a different
    /// campaign. The wall-clock deadline is deliberately excluded — it
    /// cannot change which jobs exist or what a completed job recorded.
    /// The shard coordinates are *included*: a shard's journal holds only
    /// that shard's jobs, so another shard must refuse it.
    fn config_fingerprint(&self, pairs: bool) -> u64 {
        let mut s = String::new();
        let _ = write!(
            s,
            "{:?}|{:?}|{:?}|{:?}|targets={:?}|{:?}|{:?}|{:?}|pairs={pairs}|{:?}|shard={:?}|stride={:?}|static={:?}|audit={:?}",
            self.target,
            self.kinds,
            self.sample,
            self.sites_override,
            self.attack_targets,
            self.injection,
            self.execution,
            self.config,
            self.safety,
            self.shard,
            self.checkpoint_stride,
            self.static_analysis,
            self.static_audit,
        );
        fnv1a64(FNV_OFFSET, s.as_bytes())
    }

    /// The campaign's public identity: `workload_hash-config_fingerprint`,
    /// both as 16-digit hex — the same two hashes the journal header
    /// carries, rendered as one string. The service's result cache and
    /// the shard merge key on it. Computed with the shard coordinates
    /// cleared, so every shard of one campaign (and the unsharded run)
    /// shares one fingerprint; like the journal fingerprint, the
    /// wall-clock deadline is excluded.
    pub fn fingerprint(&self) -> String {
        let mut identity = self.clone();
        identity.shard = None;
        format!(
            "{:016x}-{:016x}",
            workload_hash(&self.program),
            identity.config_fingerprint(false)
        )
    }

    /// The platform configuration used for classification runs. Bus-read
    /// tracing is forced off: outcomes are classified against the off-core
    /// write stream, and the divergence cursor indexes writes. CMEM parity
    /// follows the safety configuration, so the parity nets exist exactly
    /// when the mechanism is modelled.
    fn classification_config(&self) -> Leon3Config {
        let mut config = self.config.clone();
        config.trace_reads = false;
        config.cmem_parity = self.safety.parity;
        config
    }

    /// Simulate the golden trajectory once (fork engine only), dropping a
    /// [`Checkpoint`] at the reset state, at every requested injection
    /// boundary, and — under [`Campaign::with_checkpoint_stride`] — every
    /// `stride` cycles up to the deepest boundary. Each checkpoint sits
    /// at the last instruction boundary whose cycle count is strictly
    /// below its target cycle, so the activation tick — and an open-line
    /// fault's held value — are bit-identical to a run from reset.
    /// Candidates are deduplicated and, beyond [`MAX_POOL_CHECKPOINTS`],
    /// thinned evenly (always keeping the reset state and the deepest
    /// boundary) so pool memory stays bounded; a job whose exact boundary
    /// was thinned away replays the gap from the nearest surviving
    /// ancestor. Returns `None` under [`Execution::FullReexecution`].
    fn build_pool(
        &self,
        config: &Leon3Config,
        golden: &GoldenRun,
        instant_cycles: &[u64],
    ) -> Option<CheckpointPool> {
        if self.execution != Execution::Fork {
            return None;
        }
        let mut boundaries: Vec<u64> = vec![0];
        let mut deepest_cycle = 0u64;
        for &cycle in instant_cycles {
            boundaries.push(golden.prefix_steps(cycle) as u64);
            deepest_cycle = deepest_cycle.max(cycle);
        }
        if let Some(stride) = self.checkpoint_stride {
            let mut at = stride;
            while at <= deepest_cycle {
                boundaries.push(golden.prefix_steps(at) as u64);
                at += stride;
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        if boundaries.len() > MAX_POOL_CHECKPOINTS {
            let last = boundaries.len() - 1;
            let mut kept: Vec<u64> = (0..MAX_POOL_CHECKPOINTS)
                .map(|i| boundaries[i * last / (MAX_POOL_CHECKPOINTS - 1)])
                .collect();
            kept.dedup();
            boundaries = kept;
        }
        // One monotone sweep: each checkpoint continues stepping from the
        // previous one, so pool construction costs the deepest boundary
        // once, not the sum of all boundaries.
        let mut cpu = Leon3::new(config.clone());
        cpu.load(&self.program);
        let mut stepped = 0u64;
        let mut checkpoints = Vec::with_capacity(boundaries.len());
        let mut bytes = 0u64;
        for &steps in &boundaries {
            while stepped < steps {
                cpu.step();
                stepped += 1;
            }
            let snapshot = cpu.snapshot();
            bytes += snapshot.approx_bytes() as u64;
            checkpoints.push(Checkpoint { snapshot, steps });
        }
        Some(CheckpointPool { checkpoints, bytes })
    }

    /// Run `jobs` on `threads` workers, honouring prefilled (resumed)
    /// slots and appending each completed job to the journal before its
    /// record is published. With a static `plan`, the workers simulate
    /// only the [`StaticVerdict::Simulate`] jobs; the pruned and
    /// collapsed records are synthesised on the main thread afterwards
    /// (so a collapsed member always finds its representative's slot
    /// filled) and journaled in that order — representative entries
    /// strictly precede member entries, keeping resume torn-line-safe.
    #[allow(clippy::too_many_arguments)]
    fn execute_jobs(
        &self,
        threads: usize,
        config: &Leon3Config,
        golden: &GoldenRun,
        pool: Option<&CheckpointPool>,
        jobs: &[Job],
        journal: Option<Journal>,
        prefilled: Vec<Option<(FaultRecord, CampaignStats)>>,
        plan: Option<&[StaticVerdict]>,
    ) -> Result<Vec<(FaultRecord, CampaignStats)>, CampaignError> {
        let ctx = JobContext {
            program: &self.program,
            golden,
            pool,
            deadline: self.deadline,
            safety: self.safety,
        };
        let next = std::sync::atomic::AtomicUsize::new(0);
        // Which slots were reconstituted from the journal; read-only, so
        // workers can skip them without taking the lock.
        let done: Vec<bool> = prefilled.iter().map(Option::is_some).collect();
        let shared = std::sync::Mutex::new(SharedState {
            slots: prefilled,
            journal,
            journal_error: None,
        });
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // One model instance per worker, reset or restored
                    // between runs.
                    let mut cpu = Leon3::new(config.clone());
                    loop {
                        let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if idx >= jobs.len() {
                            break;
                        }
                        if done[idx] {
                            continue;
                        }
                        if plan.is_some_and(|p| p[idx] != StaticVerdict::Simulate) {
                            continue;
                        }
                        let job = &jobs[idx];
                        let (outcome, detection, mut delta) = run_job_isolated(&mut cpu, &ctx, job);
                        let record = FaultRecord {
                            site: job.sites[0],
                            kind: job.kind,
                            outcome,
                            activated: job
                                .sites()
                                .iter()
                                .any(|s| ctx.golden.net_exercised_from(s.net, job.injection_cycle)),
                            detection,
                            pruned_by: None,
                        };
                        delta.count_bucket(&record);
                        // Jobs are panic-isolated, so a poisoned lock can
                        // only mean a panic *outside* a job (e.g. an OOM
                        // abort path); every update below is
                        // whole-record, so recovery is safe.
                        let mut guard = shared.lock().unwrap_or_else(PoisonError::into_inner);
                        if guard.journal_error.is_none() {
                            if let Some(journal) = guard.journal.as_mut() {
                                // Write-ahead: the line is flushed before
                                // the record is published in memory.
                                if let Err(e) = journal.append(&Entry {
                                    job: idx,
                                    record: record.clone(),
                                    delta,
                                }) {
                                    guard.journal_error = Some(e);
                                    guard.journal = None;
                                }
                            }
                        }
                        guard.slots[idx] = Some((record, delta));
                    }
                });
            }
        });
        let mut shared = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = shared.journal_error {
            return Err(e.into());
        }
        if let Some(plan) = plan {
            for idx in 0..jobs.len() {
                if shared.slots[idx].is_some() {
                    // Simulated by a worker, or resumed from the journal.
                    continue;
                }
                let job = &jobs[idx];
                let (record, delta) = match plan[idx] {
                    StaticVerdict::Simulate => {
                        unreachable!("unpruned slots are filled by the workers")
                    }
                    StaticVerdict::Prune => synthesize_pruned(golden, job),
                    StaticVerdict::Member { rep } => {
                        let rep_record = shared.slots[rep]
                            .as_ref()
                            .expect("class representatives are never pruned")
                            .0
                            .clone();
                        synthesize_member(golden, job, &rep_record)
                    }
                };
                if let Some(journal) = shared.journal.as_mut() {
                    journal.append(&Entry {
                        job: idx,
                        record: record.clone(),
                        delta,
                    })?;
                }
                shared.slots[idx] = Some((record, delta));
            }
        }
        Ok(shared
            .slots
            .into_iter()
            // Invariant: the atomic counter hands every index to exactly
            // one worker, prefilled indices arrive occupied, and the
            // synthesis pass above fills every pruned/collapsed slot — so
            // every slot is filled once the scope joins.
            .map(|slot| slot.expect("all jobs ran"))
            .collect())
    }

    /// Compute the per-job static verdicts, or `None` when the analyzer
    /// is disabled. Deterministic in the (post-shard) job list: the same
    /// campaign resumes to the same plan. Collapsing is shard-local — a
    /// member is collapsed only onto a representative job present (and
    /// simulated) in this shard's own list, so no record ever depends on
    /// another shard's results.
    fn static_plan(&self, jobs: &[Job]) -> Option<Vec<StaticVerdict>> {
        if !self.static_analysis {
            return None;
        }
        let sa = StaticAnalysis::for_config(&self.classification_config());
        let mut verdicts = Vec::with_capacity(jobs.len());
        // (root net, bit, kind, group) -> index of the simulated job on
        // the class-root net that members of the class copy from.
        let mut reps: std::collections::HashMap<(u32, u8, FaultKind, usize), usize> =
            std::collections::HashMap::new();
        for (idx, job) in jobs.iter().enumerate() {
            debug_assert_eq!(job.n_sites, 1, "pairs are rejected before planning");
            let site = job.sites[0];
            if sa.prunes(site.net, job.kind) {
                verdicts.push(StaticVerdict::Prune);
                continue;
            }
            verdicts.push(StaticVerdict::Simulate);
            if StaticAnalysis::collapsible(job.kind) && sa.class_root(site.net) == site.net {
                reps.entry((site.net.raw(), site.bit, job.kind, job.group))
                    .or_insert(idx);
            }
        }
        for (idx, job) in jobs.iter().enumerate() {
            if verdicts[idx] != StaticVerdict::Simulate || !StaticAnalysis::collapsible(job.kind) {
                continue;
            }
            let site = job.sites[0];
            let root = sa.class_root(site.net);
            if root == site.net {
                continue;
            }
            if let Some(&rep) = reps.get(&(root.raw(), site.bit, job.kind, job.group)) {
                verdicts[idx] = StaticVerdict::Member { rep };
            }
        }
        Some(verdicts)
    }

    /// Re-simulate a seeded sample of pruned/collapsed jobs from reset
    /// (no checkpoint shortcuts, no activation skip) and fail if any
    /// contradicts its synthesised record. Verification work: not billed
    /// in [`CampaignStats`] and run without the wall-clock deadline so
    /// the verdict stays host-independent.
    fn run_static_audit(
        &self,
        config: &Leon3Config,
        golden: &GoldenRun,
        jobs: &[Job],
        plan: &[StaticVerdict],
        per_job: &[(FaultRecord, CampaignStats)],
    ) -> Result<(), CampaignError> {
        let Some((n, seed)) = self.static_audit else {
            return Ok(());
        };
        let mut candidates: Vec<usize> = plan
            .iter()
            .enumerate()
            .filter(|(_, v)| !matches!(v, StaticVerdict::Simulate))
            .map(|(i, _)| i)
            .collect();
        let take = n.min(candidates.len());
        let mut rng = SplitMix64::new(seed);
        for i in 0..take {
            let j = i + rng.gen_range((candidates.len() - i) as u64) as usize;
            candidates.swap(i, j);
        }
        let ctx = JobContext {
            program: &self.program,
            golden,
            pool: None,
            deadline: None,
            safety: self.safety,
        };
        let mut cpu = Leon3::new(config.clone());
        for &idx in &candidates[..take] {
            let mut scratch = CampaignStats::default();
            let (outcome, detection) = run_job(&mut cpu, &ctx, &mut scratch, &jobs[idx]);
            let synthesised = &per_job[idx].0;
            if outcome != synthesised.outcome || detection != synthesised.detection {
                return Err(CampaignError::StaticAuditFailed {
                    job: idx,
                    detail: format!(
                        "analyzer recorded {:?}/{:?}, full re-simulation produced {:?}/{:?}",
                        synthesised.outcome, synthesised.detection, outcome, detection
                    ),
                });
            }
        }
        Ok(())
    }
}

/// A workload's golden run captured once for reuse across campaigns (see
/// [`Campaign::prepare`]). Cheap to share behind an `Arc`: campaigns
/// borrow it read-only.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// Hash of the workload image this golden run belongs to.
    workload: u64,
    /// Debug rendering of the classification platform configuration —
    /// the golden trajectory depends on every field of it.
    config: String,
    golden: GoldenRun,
}

impl PreparedWorkload {
    /// The workload-image hash this preparation pins.
    pub fn workload_hash(&self) -> u64 {
        self.workload
    }

    /// Refuse reuse across a different workload or platform configuration.
    fn check(&self, program: &Program, config: &Leon3Config) -> Result<(), CampaignError> {
        if self.workload != workload_hash(program) {
            return Err(CampaignError::PreparedMismatch { field: "workload" });
        }
        if self.config != format!("{config:?}") {
            return Err(CampaignError::PreparedMismatch { field: "config" });
        }
        Ok(())
    }
}

/// Where `run_listed`/`run_multi` journal to, if anywhere.
enum JournalMode<'a> {
    None,
    Create(&'a Path),
    Resume(&'a Path),
}

/// Open (or resume) the journal for `jobs`: the writer, the prefilled
/// result slots, and how many jobs were reconstituted from disk.
#[allow(clippy::type_complexity)]
fn open_journal(
    expected: &Header,
    jobs: &[Job],
    mode: JournalMode<'_>,
) -> Result<
    (
        Option<Journal>,
        Vec<Option<(FaultRecord, CampaignStats)>>,
        usize,
    ),
    CampaignError,
> {
    match mode {
        JournalMode::None => Ok((None, vec![None; jobs.len()], 0)),
        JournalMode::Create(path) => Ok((
            Some(Journal::create(path, expected)?),
            vec![None; jobs.len()],
            0,
        )),
        JournalMode::Resume(path) => {
            let (found, entries, truncated) = journal::read(path)?;
            check_header(expected, &found)?;
            let mut prefilled: Vec<Option<(FaultRecord, CampaignStats)>> = vec![None; jobs.len()];
            let mut resumed = 0;
            for entry in &entries {
                let job = jobs.get(entry.job).ok_or(JournalError::JobOutOfRange {
                    job: entry.job,
                    jobs: jobs.len(),
                })?;
                if entry.record.site != job.sites[0] || entry.record.kind != job.kind {
                    return Err(JournalError::JobMismatch { job: entry.job }.into());
                }
                if prefilled[entry.job].is_none() {
                    resumed += 1;
                }
                prefilled[entry.job] = Some((entry.record.clone(), entry.delta));
            }
            let writer = if truncated {
                // The kill landed mid-append, so the file ends in a
                // torn fragment with no newline — appending onto it
                // would corrupt the next line. Rewrite the validated
                // prefix (serialization is canonical) and go on from
                // there.
                let mut journal = Journal::create(path, expected)?;
                for entry in &entries {
                    journal.append(entry)?;
                }
                journal
            } else {
                Journal::open_append(path)?
            };
            Ok((Some(writer), prefilled, resumed))
        }
    }
}

/// Worker-shared mutable state, updated whole-record under one lock.
struct SharedState {
    slots: Vec<Option<(FaultRecord, CampaignStats)>>,
    journal: Option<Journal>,
    journal_error: Option<JournalError>,
}

/// Resolve an instant against the golden run, rejecting fractions outside
/// the run.
fn resolve_instant(instant: InjectionInstant, golden: &GoldenRun) -> Result<u64, CampaignError> {
    match instant {
        InjectionInstant::Cycle(c) => Ok(c),
        InjectionInstant::Fraction(f) if (0.0..=1.0).contains(&f) => {
            Ok((golden.cycles as f64 * f) as u64)
        }
        InjectionInstant::Fraction(f) => Err(CampaignError::InjectionPastEnd { fraction: f }),
    }
}

/// Hash of the workload image (entry + segments), for journal validation.
fn workload_hash(program: &Program) -> u64 {
    let mut h = fnv1a64(FNV_OFFSET, &program.entry.to_be_bytes());
    for seg in &program.segments {
        h = fnv1a64(h, &seg.base.to_be_bytes());
        h = fnv1a64(h, &(seg.bytes.len() as u64).to_be_bytes());
        h = fnv1a64(h, &seg.bytes);
    }
    h
}

/// Field-by-field header validation with a precise error. The opaque
/// configuration fingerprint is checked *after* the named structural
/// fields — including the fault-kind token list with its time-varying
/// parameters — so a mismatch one of them can explain (a different
/// checkpoint stride, instant list, fault schedule or job universe) is
/// reported by name.
fn check_header(expected: &Header, found: &Header) -> Result<(), JournalError> {
    let structural: [(&'static str, u64, u64); 5] = [
        ("workload", expected.workload, found.workload),
        ("jobs", expected.jobs as u64, found.jobs as u64),
        ("instants", expected.instants as u64, found.instants as u64),
        ("instants_hash", expected.instants_hash, found.instants_hash),
        (
            "checkpoint_stride",
            expected.checkpoint_stride,
            found.checkpoint_stride,
        ),
    ];
    for (field, want, got) in structural {
        if want != got {
            return Err(JournalError::HeaderMismatch {
                field,
                expected: want.to_string(),
                found: got.to_string(),
            });
        }
    }
    check_header_kinds(&expected.kinds, &found.kinds)?;
    let trailing: [(&'static str, u64, u64); 3] = [
        ("fingerprint", expected.fingerprint, found.fingerprint),
        (
            "injection_cycle",
            expected.injection_cycle,
            found.injection_cycle,
        ),
        ("golden_cycles", expected.golden_cycles, found.golden_cycles),
    ];
    for (field, want, got) in trailing {
        if want != got {
            return Err(JournalError::HeaderMismatch {
                field,
                expected: want.to_string(),
                found: got.to_string(),
            });
        }
    }
    Ok(())
}

/// Compare the header's fault-kind token lists, naming the first
/// mismatched *parameter* field (e.g. `kinds.period`) when two kinds
/// share a base name and differ only in a time-varying parameter, and
/// the `kinds` list itself otherwise.
fn check_header_kinds(expected: &[String], found: &[String]) -> Result<(), JournalError> {
    let list_mismatch = || JournalError::HeaderMismatch {
        field: "kinds",
        expected: expected.join(","),
        found: found.join(","),
    };
    if expected.len() != found.len() {
        return Err(list_mismatch());
    }
    for (want, got) in expected.iter().zip(found) {
        if want == got {
            continue;
        }
        let split = |token: &str| -> (String, Vec<(String, String)>) {
            match token.split_once('(') {
                Some((base, rest)) => (
                    base.to_string(),
                    rest.trim_end_matches(')')
                        .split(',')
                        .filter_map(|pair| {
                            pair.split_once('=')
                                .map(|(k, v)| (k.to_string(), v.to_string()))
                        })
                        .collect(),
                ),
                None => (token.to_string(), Vec::new()),
            }
        };
        let (want_base, want_params) = split(want);
        let (got_base, got_params) = split(got);
        if want_base != got_base || want_params.len() != got_params.len() {
            return Err(list_mismatch());
        }
        for ((wk, wv), (gk, gv)) in want_params.iter().zip(&got_params) {
            if wk != gk {
                return Err(list_mismatch());
            }
            if wv != gv {
                let field = match wk.as_str() {
                    "level" => "kinds.level",
                    "period" => "kinds.period",
                    "duty" => "kinds.duty",
                    "phase" => "kinds.phase",
                    "flips" => "kinds.flips",
                    "spacing" => "kinds.spacing",
                    _ => "kinds",
                };
                return Err(JournalError::HeaderMismatch {
                    field,
                    expected: wv.clone(),
                    found: gv.clone(),
                });
            }
        }
        return Err(list_mismatch());
    }
    Ok(())
}

/// The static analyzer's verdict for one planned job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StaticVerdict {
    /// No static argument applies: simulate normally.
    Simulate,
    /// Provably benign (unobservable net, or a transient flip on a
    /// transient-safe latch): record `NoEffect` without simulation.
    Prune,
    /// Stuck-at equivalence-class member: copy the outcome of the
    /// representative job at this index of the same (post-shard) list.
    Member { rep: usize },
}

/// The record and cost delta of a statically pruned job. The `activated`
/// flag is computed honestly from the golden trace — a pruned fault on a
/// hot-but-unobservable net is *safe*, not *latent* — so the record is
/// bit-identical (modulo provenance) to what a full simulation would
/// produce, which is exactly what the audit mode re-checks.
fn synthesize_pruned(golden: &GoldenRun, job: &Job) -> (FaultRecord, CampaignStats) {
    let record = FaultRecord {
        site: job.sites[0],
        kind: job.kind,
        outcome: FaultOutcome::NoEffect,
        activated: golden.net_exercised_from(job.sites[0].net, job.injection_cycle),
        detection: Detection::Undetected,
        pruned_by: Some(PrunedBy::Static),
    };
    let mut delta = CampaignStats {
        statically_pruned: 1,
        cycles_avoided: golden.cycles,
        ..CampaignStats::default()
    };
    delta.count_bucket(&record);
    (record, delta)
}

/// The record and cost delta of a collapsed equivalence-class member:
/// outcome and detection are copied from the simulated representative
/// (the runs are behaviourally identical by the stuck-at equivalence
/// argument); the `activated` flag is the member's own.
fn synthesize_member(
    golden: &GoldenRun,
    job: &Job,
    rep: &FaultRecord,
) -> (FaultRecord, CampaignStats) {
    let record = FaultRecord {
        site: job.sites[0],
        kind: job.kind,
        outcome: rep.outcome.clone(),
        activated: golden.net_exercised_from(job.sites[0].net, job.injection_cycle),
        detection: rep.detection,
        pruned_by: Some(PrunedBy::Collapsed),
    };
    let mut delta = CampaignStats {
        statically_pruned: 1,
        cycles_avoided: golden.cycles,
        ..CampaignStats::default()
    };
    delta.count_bucket(&record);
    (record, delta)
}

/// How many distinct representatives the members of `group` collapse
/// onto — the campaign-level [`CampaignStats::collapsed_classes`].
fn collapsed_class_count(plan: &[StaticVerdict], jobs: &[Job], group: usize) -> usize {
    let mut reps = std::collections::BTreeSet::new();
    for (verdict, job) in plan.iter().zip(jobs) {
        if job.group == group {
            if let StaticVerdict::Member { rep } = *verdict {
                reps.insert(rep);
            }
        }
    }
    reps.len()
}

/// One unit of campaign work: one or two simultaneous faults of one model
/// at one injection instant.
#[derive(Clone, Copy)]
struct Job {
    sites: [FaultSite; 2],
    n_sites: usize,
    kind: FaultKind,
    injection_cycle: u64,
    /// Which result bucket the job belongs to (instant index in
    /// `try_run_multi`; always 0 for single-instant campaigns).
    group: usize,
}

impl Job {
    fn sites(&self) -> &[FaultSite] {
        &self.sites[..self.n_sites]
    }
}

/// One fault-free snapshot of the golden trajectory, restorable by any
/// job whose injection boundary lies at or beyond `steps`.
struct Checkpoint {
    snapshot: Snapshot,
    /// `step()` calls consumed before the snapshot, so a restored run's
    /// hang budget counts exactly as a run from reset would.
    steps: u64,
}

/// The fork engine's checkpoint pool: golden-trajectory snapshots sorted
/// by depth (always starting at the reset state), shared read-only by
/// every worker.
struct CheckpointPool {
    checkpoints: Vec<Checkpoint>,
    /// Approximate resident bytes across every snapshot in the pool.
    bytes: u64,
}

impl CheckpointPool {
    /// The deepest checkpoint at or before `boundary` (in steps). The
    /// pool always holds the reset-state checkpoint (`steps == 0`), so
    /// every boundary has an ancestor.
    fn nearest(&self, boundary: u64) -> &Checkpoint {
        let idx = self.checkpoints.partition_point(|c| c.steps <= boundary);
        &self.checkpoints[idx - 1]
    }

    /// Cycles simulated to build the pool: the deepest checkpoint's
    /// cycle, since construction is one monotone sweep.
    fn build_cycles(&self) -> u64 {
        self.checkpoints.last().map_or(0, |c| c.snapshot.cycle())
    }

    fn len(&self) -> usize {
        self.checkpoints.len()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Everything a worker needs to classify one job.
struct JobContext<'a> {
    program: &'a Program,
    golden: &'a GoldenRun,
    /// The checkpoint pool (fork engine only).
    pool: Option<&'a CheckpointPool>,
    /// Per-job wall-clock budget, if configured.
    deadline: Option<Duration>,
    /// Which safety mechanisms to evaluate over the observation.
    safety: SafetyConfig,
}

/// Classify one job with panic isolation: a panicking attempt is retried
/// once from a fresh model restore (the job entry points `restore`/`reset`
/// the model, so the retry never sees torn state); a second panic yields
/// [`FaultOutcome::EngineAnomaly`] with the panic payload.
fn run_job_isolated(
    cpu: &mut Leon3,
    ctx: &JobContext<'_>,
    job: &Job,
) -> (FaultOutcome, Detection, CampaignStats) {
    for attempt in 0..2 {
        // `&mut Leon3` is not `UnwindSafe` by definition, but the model
        // documents its unwind boundary: `restore`/`reset`/`load` rebuild
        // every field, so a torn model from a caught panic cannot leak
        // into the next run (see `leon3_model::Leon3` docs).
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut delta = CampaignStats::default();
            let (outcome, detection) = run_job(cpu, ctx, &mut delta, job);
            (outcome, detection, delta)
        }));
        match run {
            Ok((outcome, detection, mut delta)) => {
                delta.retried = usize::from(attempt > 0);
                return (outcome, detection, delta);
            }
            Err(_) if attempt == 0 => continue,
            Err(payload) => {
                let delta = CampaignStats {
                    retried: 1,
                    anomalies: 1,
                    ..CampaignStats::default()
                };
                return (
                    FaultOutcome::EngineAnomaly {
                        // `&*` derefs the box: `&payload` would coerce
                        // the `Box` itself to `&dyn Any` and every
                        // downcast would miss.
                        payload: panic_message(&*payload),
                    },
                    Detection::Undetected,
                    delta,
                );
            }
        }
    }
    unreachable!("the retry loop returns on every branch")
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Classify one job. On the fork engine the model is restored from the
/// nearest-ancestor checkpoint — replaying any gap up to the injection
/// boundary with the fault armed but not yet active, so the activation
/// tick is bit-identical to a run from reset — or the job is skipped
/// outright when the golden run never reads any injected net from the
/// injection instant on. On the full-reexecution engine the model is
/// reset and re-run from cycle 0.
fn run_job(
    cpu: &mut Leon3,
    ctx: &JobContext<'_>,
    tally: &mut CampaignStats,
    job: &Job,
) -> (FaultOutcome, Detection) {
    let deadline = ctx.deadline.map(|d| Instant::now() + d);
    if let Some(pool) = ctx.pool {
        let inert = job
            .sites()
            .iter()
            .all(|s| !ctx.golden.net_exercised_from(s.net, job.injection_cycle));
        if inert {
            // The fault can never be read: the faulty run reproduces
            // the golden run to the end by construction. (This theorem
            // is about the golden run, so it holds at any instant — and
            // it equally means no mechanism can fire.)
            tally.skipped_inactive += 1;
            tally.cycles_avoided += ctx.golden.cycles;
            return (FaultOutcome::NoEffect, Detection::Undetected);
        }
        let boundary = ctx.golden.prefix_steps(job.injection_cycle) as u64;
        let ckpt = pool.nearest(boundary);
        if ckpt.steps == boundary {
            tally.forked += 1;
        } else {
            tally.restored_from_checkpoint += 1;
            tally.replay_cycles +=
                ctx.golden.cycle_at_step(boundary as usize) - ckpt.snapshot.cycle();
        }
        cpu.restore(&ckpt.snapshot);
        inject_all(cpu, job);
        let run = observe(
            cpu,
            ctx.golden,
            job.injection_cycle,
            ckpt.steps,
            ckpt.snapshot.trace_len(),
            deadline,
        );
        tally.cycles_simulated += cpu.cycles() - ckpt.snapshot.cycle();
        tally.cycles_avoided += ckpt.snapshot.cycle();
        tally.short_circuited += usize::from(run.short_circuited);
        tally.timed_out += usize::from(run.timed_out);
        let detection = classify_run(cpu, ctx, job, &run);
        return (run.outcome, detection);
    }
    tally.full_reexecutions += 1;
    cpu.reset();
    cpu.load(ctx.program);
    inject_all(cpu, job);
    let run = observe(cpu, ctx.golden, job.injection_cycle, 0, 0, deadline);
    tally.cycles_simulated += cpu.cycles();
    tally.short_circuited += usize::from(run.short_circuited);
    tally.timed_out += usize::from(run.timed_out);
    let detection = classify_run(cpu, ctx, job, &run);
    (run.outcome, detection)
}

/// Evaluate the safety mechanisms over a finished observation. The fork
/// engine restores the prefix trace into the model, so the faulty write
/// stream is always the full from-cycle-0 trace either way.
fn classify_run(cpu: &Leon3, ctx: &JobContext<'_>, job: &Job, run: &Observation) -> Detection {
    safety::classify(
        &ctx.safety,
        &run.outcome,
        &DetectionContext {
            golden_writes: &ctx.golden.writes,
            faulty_writes: cpu.bus_trace().events(),
            matched: run.matched,
            parity_event: cpu.parity_detected_at(),
            injection_cycle: job.injection_cycle,
            kind: job.kind,
            truncated: run.short_circuited || run.timed_out,
        },
    )
}

fn inject_all(cpu: &mut Leon3, job: &Job) {
    for site in job.sites() {
        cpu.inject(Fault {
            net: site.net,
            bit: site.bit,
            kind: job.kind,
            from_cycle: job.injection_cycle,
        });
    }
}

/// What [`observe`] saw.
struct Observation {
    outcome: FaultOutcome,
    /// The run was cut short at a diverging write, before the faulty core
    /// reached a halt, error-mode stop or its cycle budget.
    short_circuited: bool,
    /// The run overran its wall-clock deadline (classified `Hang`).
    timed_out: bool,
    /// Leading writes that matched the golden stream — where the lockstep
    /// divergence cursor stopped, for outcomes that carry no index.
    matched: usize,
}

/// Run an already-prepared (loaded/restored and injected) model to
/// completion, classifying against the golden run with online divergence
/// detection. `steps_done` and `writes_checked` seed the hang budget and
/// the divergence cursor when resuming from a prefix snapshot; both are 0
/// for a run from reset. `deadline` is the cooperative wall-clock
/// watchdog, checked every 256 steps.
fn observe(
    cpu: &mut Leon3,
    golden: &GoldenRun,
    injection_cycle: u64,
    steps_done: u64,
    writes_checked: usize,
    deadline: Option<Instant>,
) -> Observation {
    // Budget: generous multiple of the golden run, so hangs terminate.
    let budget = golden.instructions * 2 + 10_000;
    let mut executed: u64 = steps_done;
    let mut checked: usize = writes_checked;
    let mut ticks: u32 = 0;
    let stop = |outcome, matched| Observation {
        outcome,
        short_circuited: true,
        timed_out: false,
        matched,
    };
    loop {
        if let Some(d) = deadline {
            if ticks & 0xff == 0 && Instant::now() >= d {
                return Observation {
                    outcome: FaultOutcome::Hang {
                        latency_cycles: cpu.cycles().saturating_sub(injection_cycle),
                    },
                    short_circuited: false,
                    timed_out: true,
                    matched: checked,
                };
            }
        }
        ticks = ticks.wrapping_add(1);
        let event = cpu.step();
        executed += 1;
        // Compare any newly produced writes against the golden stream.
        let writes = cpu.bus_trace().events();
        while checked < writes.len() {
            let w = &writes[checked];
            match golden.writes.get(checked) {
                None => {
                    // Extra write beyond the golden stream.
                    return stop(
                        FaultOutcome::Failure {
                            divergence: checked,
                            latency_cycles: w.at.saturating_sub(injection_cycle),
                        },
                        checked,
                    );
                }
                Some(g) if !w.same_payload(g) => {
                    return stop(
                        FaultOutcome::Failure {
                            divergence: checked,
                            latency_cycles: w.at.saturating_sub(injection_cycle),
                        },
                        checked,
                    );
                }
                Some(_) => checked += 1,
            }
        }
        if event == StepEvent::Stopped {
            break;
        }
        if executed >= budget {
            return Observation {
                outcome: FaultOutcome::Hang {
                    latency_cycles: cpu.cycles().saturating_sub(injection_cycle),
                },
                short_circuited: false,
                timed_out: false,
                matched: checked,
            };
        }
    }
    let outcome = match cpu.exit() {
        Some(Exit::Halted(code)) => {
            if checked < golden.writes.len() {
                // Truncated write stream: the missing write is detected at
                // the moment the golden core produces it.
                FaultOutcome::Failure {
                    divergence: checked,
                    latency_cycles: golden.writes[checked].at.saturating_sub(injection_cycle),
                }
            } else if code != golden.exit_code {
                FaultOutcome::Failure {
                    divergence: checked,
                    latency_cycles: cpu.cycles().saturating_sub(injection_cycle),
                }
            } else {
                FaultOutcome::NoEffect
            }
        }
        Some(Exit::ErrorMode(_)) => FaultOutcome::ErrorModeStop {
            latency_cycles: cpu.cycles().saturating_sub(injection_cycle),
        },
        None => FaultOutcome::Hang {
            latency_cycles: cpu.cycles().saturating_sub(injection_cycle),
        },
    };
    Observation {
        outcome,
        short_circuited: false,
        timed_out: false,
        matched: checked,
    }
}

/// Execute one faulty run from reset (full re-execution), comparing the
/// write stream against the golden run online and stopping at the first
/// divergence.
#[cfg(test)]
fn run_one(
    cpu: &mut Leon3,
    program: &Program,
    golden: &GoldenRun,
    site: FaultSite,
    kind: FaultKind,
    injection_cycle: u64,
) -> FaultOutcome {
    cpu.reset();
    cpu.load(program);
    cpu.inject(Fault {
        net: site.net,
        bit: site.bit,
        kind,
        from_cycle: injection_cycle,
    });
    observe(cpu, golden, injection_cycle, 0, 0, None).outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparc_asm::assemble;
    use sparc_isa::Unit;

    fn small_program() -> Program {
        assemble(
            r#"
            _start:
                set 0x40001000, %l0
                mov 10, %l1
                mov 0, %o0
            loop:
                add %o0, %l1, %o0
                st %o0, [%l0]
                add %l0, 4, %l0
                subcc %l1, 1, %l1
                bne loop
                 nop
                halt
            "#,
        )
        .expect("assembles")
    }

    #[test]
    fn attack_targets_restrict_the_fault_universe() {
        let program = small_program();
        let full = Campaign::new(program.clone(), Target::IntegerUnit).sites();
        let targeted = Campaign::new(program.clone(), Target::IntegerUnit)
            .with_attack_targets(&[AttackTarget::BranchCondition])
            .sites();
        assert!(!targeted.is_empty());
        assert!(targeted.len() < full.len());
        let reference = Leon3::new(Leon3Config::default());
        assert_eq!(
            targeted,
            targeted_sites(&reference, &[AttackTarget::BranchCondition])
        );
        // Duplicate and unordered class lists canonicalize, so the
        // fingerprint (and thus journal identity) is order-insensitive.
        let a = Campaign::new(program.clone(), Target::IntegerUnit).with_attack_targets(&[
            AttackTarget::StatusRegister,
            AttackTarget::BranchCondition,
            AttackTarget::BranchCondition,
        ]);
        let b = Campaign::new(program.clone(), Target::IntegerUnit)
            .with_attack_targets(&[AttackTarget::BranchCondition, AttackTarget::StatusRegister]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // ...but a targeted campaign never shares an identity with the
        // untargeted enumeration of the same domain.
        let plain = Campaign::new(program, Target::IntegerUnit);
        assert_ne!(a.fingerprint(), plain.fingerprint());
    }

    #[test]
    fn golden_run_captures_writes() {
        let golden = GoldenRun::capture(&small_program(), &Leon3Config::default());
        assert_eq!(golden.writes.len(), 10);
        assert!(golden.instructions > 30);
        // One step-cycle entry per step() call, monotonically increasing,
        // ending at the golden cycle count.
        assert!(golden.step_cycles.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(golden.step_cycles.last().copied(), Some(golden.cycles));
        assert_eq!(golden.prefix_steps(0), 0);
        assert_eq!(
            golden.prefix_steps(golden.cycles + 1),
            golden.step_cycles.len()
        );
    }

    #[test]
    fn no_fault_site_is_flagged_without_cause() {
        // A fault on a net the program never meaningfully exercises (a high
        // register-file slot) must be NoEffect; a fault on the PC must
        // fail.
        let program = small_program();
        let cpu = Leon3::new(Leon3Config::default());
        let pc_net = cpu.nets().pc;
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        let mut worker = Leon3::new(Leon3Config::default());
        let out = run_one(
            &mut worker,
            &program,
            &golden,
            FaultSite {
                net: pc_net,
                bit: 2,
                unit: Unit::Fetch,
            },
            FaultKind::StuckAt1,
            0,
        );
        assert!(out.is_failure(), "PC stuck-at must fail: {out:?}");

        let unused_rf = cpu.nets().rf[100];
        let out = run_one(
            &mut worker,
            &program,
            &golden,
            FaultSite {
                net: unused_rf,
                bit: 5,
                unit: Unit::RegFile,
            },
            FaultKind::StuckAt1,
            0,
        );
        assert_eq!(out, FaultOutcome::NoEffect);
    }

    #[test]
    fn open_line_is_weaker_than_stuck_at() {
        // On a net whose value is already 0, open-line (hold 0) at cycle 0
        // behaves like stuck-at-0 on day one; this test just exercises the
        // path end-to-end for all three models.
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit).with_sample(30, 7);
        let result = campaign.run(4);
        for kind in FaultKind::ALL {
            let s = result.summary(kind);
            assert!(s.injections >= 30, "{kind}: {}", s.injections);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let program = small_program();
        let campaign = Campaign::new(program.clone(), Target::IntegerUnit)
            .with_sample(20, 99)
            .with_kinds(&[FaultKind::StuckAt1]);
        let a = campaign.run(4);
        let b = campaign.run(2);
        assert_eq!(
            a.records(),
            b.records(),
            "thread count must not change results"
        );
    }

    #[test]
    fn injection_cycle_delays_the_fault() {
        // Injecting a PC fault long after the program halted is NoEffect.
        let program = small_program();
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        let cpu = Leon3::new(Leon3Config::default());
        let site = FaultSite {
            net: cpu.nets().pc,
            bit: 2,
            unit: Unit::Fetch,
        };
        let mut worker = Leon3::new(Leon3Config::default());
        let late = run_one(
            &mut worker,
            &program,
            &golden,
            site,
            FaultKind::StuckAt1,
            golden.cycles + 1000,
        );
        assert_eq!(late, FaultOutcome::NoEffect);
        let early = run_one(&mut worker, &program, &golden, site, FaultKind::StuckAt1, 0);
        assert!(early.is_failure());
    }

    #[test]
    fn fork_engine_matches_full_reexecution_mid_run() {
        // The correctness bar of the fork engine: bit-identical records,
        // fewer cycles simulated. A mid-run injection instant exercises
        // the shared prefix snapshot and open-line live-value capture.
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_sample(25, 11)
            .with_injection_fraction(0.4);
        let fork = campaign.run(4);
        let full = campaign
            .clone()
            .with_execution(Execution::FullReexecution)
            .run(4);
        assert_eq!(fork.records(), full.records());
        assert!(
            fork.stats().cycles_simulated < full.stats().cycles_simulated,
            "fork must simulate fewer cycles: {} vs {}",
            fork.stats().cycles_simulated,
            full.stats().cycles_simulated,
        );
        assert_eq!(fork.stats().jobs, full.stats().jobs);
        assert_eq!(
            fork.stats().forked + fork.stats().skipped_inactive,
            fork.stats().jobs,
            "every fork-engine job is either forked or tracker-skipped",
        );
        assert_eq!(full.stats().full_reexecutions, full.stats().jobs);
        assert_eq!(full.stats().cycles_avoided, 0);
    }

    #[test]
    fn pair_campaign_forks_and_matches_full_reexecution() {
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_sample(12, 5)
            .with_kinds(&[FaultKind::StuckAt0, FaultKind::OpenLine])
            .with_injection_fraction(0.25);
        let fork = campaign.run_pairs(4);
        let full = campaign
            .clone()
            .with_execution(Execution::FullReexecution)
            .run_pairs(4);
        assert_eq!(fork.records(), full.records());
        assert!(fork.stats().cycles_simulated < full.stats().cycles_simulated);
    }

    #[test]
    fn activation_tracker_skips_cold_sites() {
        // Injecting long after the halt leaves every net unread from the
        // injection instant on: the fork engine classifies the whole
        // campaign without simulating a single faulty cycle.
        let program = small_program();
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_sample(10, 23)
            .with_injection_cycle(golden.cycles + 1000);
        let result = campaign.run(2);
        assert!(result
            .records()
            .iter()
            .all(|r| r.outcome == FaultOutcome::NoEffect));
        assert_eq!(result.stats().skipped_inactive, result.stats().jobs);
        assert_eq!(result.stats().forked, 0);
        // Only the (full-length) prefix was simulated, once.
        assert_eq!(result.stats().cycles_simulated, golden.cycles);
    }

    #[test]
    fn failures_short_circuit_before_the_faulty_halt() {
        // A PC stuck-at diverges almost immediately; the stream comparator
        // must cut the run at the first bad write rather than simulate to
        // the budget.
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_sample(40, 3)
            .with_kinds(&[FaultKind::StuckAt1]);
        let result = campaign.run(4);
        let failures = result
            .records()
            .iter()
            .filter(|r| r.outcome.is_failure())
            .count();
        assert!(failures > 0, "expected some failures in an IU campaign");
        assert!(
            result.stats().short_circuited > 0,
            "diverging runs must be cut short: {:?}",
            result.stats(),
        );
    }

    #[test]
    fn config_errors_are_structured() {
        let program = small_program();
        let campaign = Campaign::new(program.clone(), Target::IntegerUnit).with_sample(5, 1);
        assert_eq!(campaign.try_run(0), Err(CampaignError::ZeroThreads));
        assert_eq!(
            campaign.clone().with_kinds(&[]).try_run(2),
            Err(CampaignError::NoFaultKinds)
        );
        assert_eq!(
            campaign.clone().with_sites(Vec::new()).try_run(2),
            Err(CampaignError::NoFaultSites)
        );
        let err = campaign
            .clone()
            .with_injection_fraction(1.5)
            .try_run(2)
            .unwrap_err();
        assert!(
            matches!(err, CampaignError::InjectionPastEnd { .. }),
            "{err}"
        );
        assert_eq!(
            campaign.try_run_multi(2, &[]),
            Err(CampaignError::NoInstants)
        );
        assert!(matches!(
            Campaign::new(program, Target::IntegerUnit)
                .with_sites(vec![FaultSite {
                    net: NetId::from_raw(0),
                    bit: 0,
                    unit: Unit::Fetch,
                }])
                .try_run_pairs(2),
            Err(CampaignError::NotEnoughSitesForPairs { available: 1 })
        ));
    }

    #[test]
    fn zero_deadline_times_out_every_simulated_job() {
        // A zero wall-clock budget fires the watchdog before the first
        // step of every non-skipped job: all are classified Hang with the
        // timed_out counter, and the campaign still terminates.
        let program = small_program();
        let result = Campaign::new(program, Target::IntegerUnit)
            .with_sample(10, 17)
            .with_kinds(&[FaultKind::StuckAt1])
            .with_deadline(Duration::ZERO)
            .run(2);
        let stats = result.stats();
        assert!(stats.timed_out > 0, "{stats:?}");
        assert_eq!(stats.timed_out, stats.forked, "{stats:?}");
        for r in result.records() {
            assert!(
                matches!(
                    r.outcome,
                    FaultOutcome::Hang { .. } | FaultOutcome::NoEffect
                ),
                "{r:?}"
            );
        }
    }

    #[test]
    fn safety_config_mistakes_are_structured() {
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit).with_sample(5, 1);
        assert_eq!(
            campaign.clone().with_lockstep_window(0).try_run(2),
            Err(CampaignError::ZeroLockstepWindow)
        );
        // A 1-cycle watchdog cannot outlast even the tightest golden
        // inter-write gap.
        let err = campaign.with_watchdog_cycles(1).try_run(2).unwrap_err();
        assert!(
            matches!(err, CampaignError::WatchdogTooTight { .. }),
            "{err}"
        );
    }

    #[test]
    fn multi_instant_matches_separate_campaigns() {
        // One multi-instant campaign must reproduce, per instant, the
        // records of a dedicated campaign at that instant — with every
        // instant forking from its own pool checkpoint, never falling
        // back to full re-execution.
        let program = small_program();
        let campaign = Campaign::new(program, Target::IntegerUnit)
            .with_sample(12, 29)
            .with_kinds(&[FaultKind::StuckAt1, FaultKind::OpenLine]);
        let instants = [
            InjectionInstant::Fraction(0.2),
            InjectionInstant::Fraction(0.6),
        ];
        let multi = campaign.try_run_multi(4, &instants).expect("valid");
        assert_eq!(multi.len(), 2);
        for (instant, result) in instants.iter().zip(&multi) {
            let single = match instant {
                InjectionInstant::Fraction(f) => {
                    campaign.clone().with_injection_fraction(*f).run(4)
                }
                InjectionInstant::Cycle(c) => campaign.clone().with_injection_cycle(*c).run(4),
            };
            assert_eq!(result.records(), single.records());
        }
        // Every instant has its own checkpoint in the pool: no instant
        // falls back to full re-execution, and each one forks whenever it
        // has an active job.
        for result in &multi {
            assert_eq!(result.stats().full_reexecutions, 0, "{:?}", result.stats());
            assert!(
                result.stats().forked + result.stats().skipped_inactive == result.stats().jobs,
                "{:?}",
                result.stats()
            );
        }
        assert!(multi[0].stats().forked > 0, "{:?}", multi[0].stats());
        assert!(multi[1].stats().forked > 0, "{:?}", multi[1].stats());
        // The pool (one reset checkpoint + one per instant boundary) is
        // billed to the first instant.
        assert_eq!(multi[0].stats().checkpoints_taken, 3);
        assert_eq!(multi[1].stats().checkpoints_taken, 0);
        assert!(multi[0].stats().checkpoint_bytes > 0);
    }

    #[test]
    fn prepared_workload_reuses_golden_and_refuses_mismatch() {
        let program = small_program();
        let campaign = Campaign::new(program.clone(), Target::IntegerUnit).with_sample(8, 11);
        let prepared = campaign.prepare().expect("valid");
        let direct = campaign.try_run(2).expect("valid");
        let reused = campaign.try_run_prepared(2, &prepared).expect("valid");
        assert_eq!(direct.records(), reused.records());
        assert_eq!(direct.stats(), reused.stats());
        // A different platform configuration invalidates the preparation
        // (parity toggles the classification config's cmem_parity).
        let other = campaign.clone().with_parity(true);
        assert!(matches!(
            other.try_run_prepared(2, &prepared),
            Err(CampaignError::PreparedMismatch { field: "config" })
        ));
    }

    #[test]
    fn zero_checkpoint_stride_is_refused() {
        let campaign = Campaign::new(small_program(), Target::IntegerUnit)
            .with_sample(4, 7)
            .with_checkpoint_stride(0);
        assert!(matches!(
            campaign.try_run(1),
            Err(CampaignError::ZeroCheckpointStride)
        ));
    }

    #[test]
    fn stride_checkpoints_bound_the_replay_gap() {
        // A stride adds grid checkpoints between reset and the injection
        // boundary; the job's own boundary checkpoint still exists, so
        // records and fork counts are unchanged by the stride.
        let program = small_program();
        let base = Campaign::new(program, Target::IntegerUnit)
            .with_sample(10, 13)
            .with_injection_fraction(0.8);
        let plain = base.clone().try_run(2).expect("valid");
        let strided = base.with_checkpoint_stride(50).try_run(2).expect("valid");
        assert_eq!(plain.records(), strided.records());
        assert_eq!(plain.stats().forked, strided.stats().forked);
        assert_eq!(strided.stats().replay_cycles, 0);
        assert!(strided.stats().checkpoints_taken > plain.stats().checkpoints_taken);
    }
}
