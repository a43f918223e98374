//! The verifd server: one accept loop, one router, one job-id space, one
//! lease table, one result store.
//!
//! Every submission becomes a **job** of one or more **slots** in the
//! [`LeaseTable`], the server's only queue:
//!
//! * `POST /campaign` enqueues one slot (slot `i` of `n` when the spec
//!   carries `shard i/n`);
//! * `POST /fleet` cuts one campaign spec into `n` slots;
//! * `POST /correlate` enqueues one correlation-sweep slot.
//!
//! Slots are run by `workers` in-process workers, which lease straight
//! from the table (their leases never expire), and by remote runners
//! speaking the lease protocol (`/register`, `/lease`, `/heartbeat`,
//! `/complete`, `/fail`) under wall-clock TTLs. Both run
//! [`crate::spec::execute`]; in-process workers route every campaign
//! through a golden-run cache shared across specs. Every completed slot
//! lands in the [`ResultStore`] — in memory, or a directory that
//! survives restarts — which is the only result cache: a slot whose
//! address already holds a result is never queued again.
//!
//! Honesty properties:
//!
//! * over capacity or draining → `503` with `Retry-After`, never
//!   accept-then-stall;
//! * a slot that burns `max_attempts` leases is poisoned and its job
//!   ends **degraded** (or **failed**, when no slot finished), naming the
//!   missing slots instead of hanging;
//! * a completed slot's `resumed` counters are normalized to zero (the
//!   count moves to `/stats` as `jobs_recovered_total`), so a job that
//!   survived runner deaths is bit-identical to one that never saw a
//!   fault;
//! * graceful shutdown drains every incomplete job to the drain file,
//!   and startup re-submits it — finished slots come from the store.
//!
//! Requests are handled inline on the accept thread: every route is a
//! table or store operation, never a simulation. A client gets one
//! [`IO_TIMEOUT`] to send its whole request and one to take its reply —
//! deadlines, not per-read timeouts, so neither an idle client nor one
//! trickling bytes holds the other routes longer. A `?watch` stream gets
//! its own thread.

use crate::http::{
    finish_chunks, read_request, write_chunk, write_chunked_head, write_response,
    write_response_with, Deadline, Request,
};
use crate::lease::{LeasePolicy, LeaseTable, ShardKey};
use crate::spec::{execute, CampaignSpec, JobSpec};
use crate::store::{address, ResultStore};
use fault_inject::wire::fleet::{
    Ack, Complete, Fail, Heartbeat, JobOutput, LeaseGrant, LeaseReply, LeaseRequest, Register,
    Registered,
};
use fault_inject::wire::{escape_json, merge_shards, Json, ShardResult};
use fault_inject::{
    journal, merge_correlation_shards, Campaign, CampaignResult, CorrelationReport,
    CorrelationSpec, PredictRequest, Prediction, PreparedWorkload,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deadline for reading one whole request, and again for writing its
/// reply: a client holds the accept loop for at most twice this long,
/// however slowly it sends or reads.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// In-process worker threads. Zero makes the server a pure fleet
    /// coordinator: slots queue until a remote runner leases them.
    pub workers: usize,
    /// Bound on queued slots across all jobs; a submission that would
    /// exceed it is refused with `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Threads each in-process worker hands to a campaign (campaigns are
    /// deterministic in this, so it is a pure throughput knob).
    pub job_threads: usize,
    /// Remote lease TTL in milliseconds.
    pub lease_ttl_ms: u64,
    /// Heartbeat interval handed to runners (and the `NoWork` retry
    /// hint). Should be a few times smaller than the TTL.
    pub heartbeat_ms: u64,
    /// Leases a slot may consume before it is poisoned.
    pub max_attempts: u64,
    /// First re-queue backoff in milliseconds; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// The `Retry-After` value (seconds) sent with every `503`.
    pub retry_after_s: u64,
    /// How often expired leases are reaped, idle workers re-check the
    /// table, and a progress watch polls, in milliseconds.
    pub poll_ms: u64,
    /// The result store directory; `None` keeps results in memory.
    pub store_path: Option<PathBuf>,
    /// Where graceful shutdown journals incomplete jobs (one submission
    /// body per line), re-submitted automatically on the next startup.
    /// `None` disables both.
    pub drain_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            job_threads: 4,
            lease_ttl_ms: 10_000,
            heartbeat_ms: 2_000,
            max_attempts: 3,
            backoff_base_ms: 250,
            backoff_cap_ms: 5_000,
            retry_after_s: 2,
            poll_ms: 100,
            store_path: None,
            drain_path: None,
        }
    }
}

/// The server's command-line flags, as every usage text prints them.
pub const SERVER_FLAGS: &str = "[--addr HOST:PORT] [--workers N] [--queue-depth N] \
     [--job-threads N] [--lease-ttl-ms N] [--heartbeat-ms N] [--max-attempts N] \
     [--backoff-ms N] [--backoff-cap-ms N] [--store PATH] [--drain PATH]";

impl ServerConfig {
    /// Apply [`SERVER_FLAGS`] on top of `base` — the one server flag
    /// parser, shared by `verifd`, `verifd coordinator`, `repro serve`
    /// and `repro fleet coordinate`, which differ only in `base`.
    ///
    /// # Errors
    ///
    /// Names the unknown flag, the flag missing its value, the value that
    /// does not parse, or the bound a value breaks.
    pub fn from_args(args: &[String], base: ServerConfig) -> Result<ServerConfig, String> {
        let mut config = base;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--addr" => config.addr.clone_from(value),
                "--workers" => config.workers = number(flag, value)?,
                "--queue-depth" => config.queue_depth = number(flag, value)?,
                "--job-threads" => config.job_threads = number(flag, value)?,
                "--lease-ttl-ms" => config.lease_ttl_ms = number(flag, value)?,
                "--heartbeat-ms" => config.heartbeat_ms = number(flag, value)?,
                "--max-attempts" => config.max_attempts = number(flag, value)?,
                "--backoff-ms" => config.backoff_base_ms = number(flag, value)?,
                "--backoff-cap-ms" => config.backoff_cap_ms = number(flag, value)?,
                "--store" => config.store_path = Some(PathBuf::from(value)),
                "--drain" => config.drain_path = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if config.queue_depth == 0
            || config.job_threads == 0
            || config.max_attempts == 0
            || config.lease_ttl_ms == 0
        {
            return Err("`--queue-depth`, `--job-threads`, `--max-attempts` and \
                        `--lease-ttl-ms` must be at least 1"
                .to_string());
        }
        Ok(config)
    }

    fn policy(&self) -> LeasePolicy {
        LeasePolicy {
            ttl_ms: self.lease_ttl_ms,
            max_attempts: self.max_attempts,
            backoff_base_ms: self.backoff_base_ms,
            backoff_cap_ms: self.backoff_cap_ms,
        }
    }
}

/// Parse one flag value.
pub(crate) fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("`{flag}` needs a non-negative integer, got `{raw}`"))
}

/// The fleet coordinator's configuration: a [`ServerConfig`] with zero
/// in-process workers and an on-disk store. [`Server::start`] takes it
/// directly.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// As [`ServerConfig::addr`].
    pub addr: String,
    /// As [`ServerConfig::queue_depth`].
    pub queue_depth: usize,
    /// As [`ServerConfig::lease_ttl_ms`].
    pub lease_ttl_ms: u64,
    /// As [`ServerConfig::heartbeat_ms`].
    pub heartbeat_ms: u64,
    /// As [`ServerConfig::max_attempts`].
    pub max_attempts: u64,
    /// As [`ServerConfig::backoff_base_ms`].
    pub backoff_base_ms: u64,
    /// As [`ServerConfig::backoff_cap_ms`].
    pub backoff_cap_ms: u64,
    /// As [`ServerConfig::retry_after_s`].
    pub retry_after_s: u64,
    /// As [`ServerConfig::poll_ms`].
    pub poll_ms: u64,
    /// The result store directory.
    pub store_path: PathBuf,
    /// As [`ServerConfig::drain_path`].
    pub drain_path: Option<PathBuf>,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        let base = ServerConfig::default();
        CoordinatorConfig {
            addr: base.addr,
            queue_depth: 256,
            lease_ttl_ms: base.lease_ttl_ms,
            heartbeat_ms: base.heartbeat_ms,
            max_attempts: base.max_attempts,
            backoff_base_ms: base.backoff_base_ms,
            backoff_cap_ms: base.backoff_cap_ms,
            retry_after_s: base.retry_after_s,
            poll_ms: base.poll_ms,
            store_path: PathBuf::from("verifd-store"),
            drain_path: None,
        }
    }
}

impl From<CoordinatorConfig> for ServerConfig {
    fn from(c: CoordinatorConfig) -> ServerConfig {
        ServerConfig {
            addr: c.addr,
            workers: 0,
            queue_depth: c.queue_depth,
            lease_ttl_ms: c.lease_ttl_ms,
            heartbeat_ms: c.heartbeat_ms,
            max_attempts: c.max_attempts,
            backoff_base_ms: c.backoff_base_ms,
            backoff_cap_ms: c.backoff_cap_ms,
            retry_after_s: c.retry_after_s,
            poll_ms: c.poll_ms,
            store_path: Some(c.store_path),
            drain_path: c.drain_path,
            ..ServerConfig::default()
        }
    }
}

/// The fleet coordinator is a [`Server`] started from a
/// [`CoordinatorConfig`].
pub type Coordinator = Server;

/// One submission.
struct Job {
    /// As submitted (a `/fleet` spec carries no shard coordinates).
    spec: JobSpec,
    /// `Some(n)`: a `/fleet` submission cut into `n` slots.
    fleet: Option<u32>,
    /// The spec's shard-independent fingerprint.
    fingerprint: String,
    /// Slots already in the store at submission (never queued).
    prefilled: u32,
    /// The most recent failure reported for any slot.
    error: Option<String>,
}

impl Job {
    fn slots(&self) -> u32 {
        self.fleet.unwrap_or(1)
    }

    /// Slot `k`'s shard geometry.
    fn geometry(&self, k: u32) -> (u32, u32) {
        match self.fleet {
            Some(n) => (k, n),
            None => self.spec.shard().unwrap_or((0, 1)),
        }
    }

    /// The spec slot `k` runs.
    fn slot(&self, k: u32) -> JobSpec {
        match self.fleet {
            Some(n) => self.spec.with_shard(k, n),
            None => self.spec.clone(),
        }
    }

    /// Slot `k`'s result-store address.
    fn address(&self, k: u32) -> String {
        address(&self.fingerprint, self.geometry(k), self.spec.deadline_ms())
    }

    /// The submission body that recreates this job (a drain-file line).
    fn submission(&self) -> String {
        match (&self.spec, self.fleet) {
            (JobSpec::Campaign(spec), Some(n)) => spec.to_fleet_json(n),
            (spec, _) => spec.to_json(),
        }
    }
}

/// One job's slot counts.
struct Progress {
    done: u32,
    poisoned: u32,
    started: bool,
    total: u32,
}

impl Progress {
    /// The status vocabulary: `queued`, `running`, `done`, `degraded`
    /// (terminal, some slots poisoned) or `failed` (every slot poisoned).
    fn phase(&self) -> &'static str {
        if self.done == self.total {
            "done"
        } else if self.done + self.poisoned == self.total {
            if self.done == 0 {
                "failed"
            } else {
                "degraded"
            }
        } else if self.started {
            "running"
        } else {
            "queued"
        }
    }
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    /// Jobs whose last slot completed under a lease.
    completed: u64,
    rejected_busy: u64,
    drain_resubmitted: u64,
    cache_hits: u64,
    cache_misses: u64,
    golden_cache_hits: u64,
    golden_cache_misses: u64,
    /// Golden-cache hits where the stored capture came from a *different*
    /// campaign spec — the workload-hash dedup paying off across specs.
    golden_store_hits: u64,
    predictions: u64,
    cycles_simulated_total: u64,
    statically_pruned_total: u64,
    collapsed_classes_total: u64,
    /// Jobs recovered from uploaded partial journals (the `resumed`
    /// counts normalized out of accepted results).
    jobs_recovered_total: u64,
    /// Outputs and failures reported under a lease no longer live.
    stale_uploads: u64,
}

type Reply = (u16, String);

struct Inner {
    /// Job `id` lives at index `id - 1`.
    jobs: Vec<Job>,
    /// Dedup: the key of every job → its id (see [`enqueue`]).
    by_key: HashMap<String, u64>,
    table: LeaseTable,
    store: ResultStore,
    /// Fitted correlation models by sweep fingerprint, ready to answer
    /// `/predict` with zero simulated cycles.
    models: HashMap<String, CorrelationReport>,
    /// The most recently fitted model (`/predict`'s default).
    latest_model: Option<String>,
    /// Runner `id` is `(name, threads, slots completed)` at index
    /// `id - 1`.
    runners: Vec<(String, u64, u64)>,
    busy: usize,
    draining: bool,
    counters: Counters,
}

impl Inner {
    fn job(&self, id: u64) -> Result<&Job, Reply> {
        usize::try_from(id)
            .ok()
            .and_then(|i| i.checked_sub(1))
            .and_then(|i| self.jobs.get(i))
            .ok_or_else(|| (404, err_json(&format!("no such campaign {id}"))))
    }

    fn progress(&self, id: u64) -> Progress {
        let job = &self.jobs[id as usize - 1];
        let s = self.table.campaign_snapshot(id);
        Progress {
            done: s.done as u32 + job.prefilled,
            poisoned: s.poisoned as u32,
            started: s.leased + s.done + s.poisoned > 0,
            total: job.slots(),
        }
    }

    /// A fitted sweep becomes the predictor's model.
    fn register_model(&mut self, report: CorrelationReport) {
        self.latest_model = Some(report.fingerprint.clone());
        self.models.insert(report.fingerprint.clone(), report);
    }
}

struct Shared {
    inner: Mutex<Inner>,
    /// One golden run per (workload hash, parity), shared read-only by
    /// in-process workers: any two campaigns whose programs hash the same
    /// — a kind sweep of one benchmark, a correlation cell, a resubmitted
    /// drain — reuse one capture. The value remembers the fingerprint
    /// that populated it, so cross-spec hits are countable. Separate from
    /// `inner` so a capture in flight never blocks routes.
    golden: Mutex<HashMap<String, (Arc<PreparedWorkload>, String)>>,
    work: Condvar,
    shutdown: AtomicBool,
    epoch: Instant,
    config: ServerConfig,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Jobs are panic-isolated and every update is whole-record, so
        // recovery from a poisoned lock is safe.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Milliseconds since the server started — the lease table's clock.
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or hit `POST /shutdown`) for a graceful stop.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, open the store, re-submit any drained jobs, spawn the accept
    /// loop, the lease reaper and the in-process workers, and return.
    ///
    /// # Errors
    ///
    /// Fails if the address cannot be bound or the store directory
    /// cannot be created.
    pub fn start(config: impl Into<ServerConfig>) -> std::io::Result<Server> {
        let config = config.into();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = ResultStore::open(config.store_path.as_deref())?;
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                jobs: Vec::new(),
                by_key: HashMap::new(),
                table: LeaseTable::new(config.policy()),
                store,
                models: HashMap::new(),
                latest_model: None,
                runners: Vec::new(),
                busy: 0,
                draining: false,
                counters: Counters::default(),
            }),
            golden: Mutex::new(HashMap::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            config,
        });
        resubmit_drained(&shared);
        let spawn = |body: fn(&Arc<Shared>)| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || body(&shared))
        };
        let mut threads = vec![spawn(reaper_loop)];
        threads.extend((0..shared.config.workers).map(|_| spawn(worker_loop)));
        threads.push({
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        });
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: refuse new work, journal every incomplete job
    /// to the drain file, let in-flight slots finish, join every thread.
    /// Returns how many jobs were drained.
    ///
    /// # Errors
    ///
    /// Fails if the drain journal cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked (jobs are panic-isolated, so
    /// none is expected to).
    pub fn shutdown(self) -> std::io::Result<usize> {
        let drained = begin_shutdown(&self.shared)?;
        // The accept thread may be blocked in accept(); one throwaway
        // connection gets it to its shutdown check.
        let _ = TcpStream::connect(self.addr);
        self.join();
        Ok(drained)
    }

    /// Block until the server stops (via `POST /shutdown`).
    ///
    /// # Panics
    ///
    /// As [`Server::shutdown`].
    pub fn join(self) {
        for thread in self.threads {
            thread.join().expect("server thread");
        }
    }
}

/// Re-submit the jobs journaled by the previous process's graceful
/// shutdown, then remove the file (a later shutdown rewrites it).
fn resubmit_drained(shared: &Shared) {
    let Some(path) = &shared.config.drain_path else {
        return;
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    for line in text.lines().filter(|line| !line.trim().is_empty()) {
        let submitted = match Json::parse(line) {
            Ok(v) if v.get("shards").is_some() => submit_fleet(shared, line),
            Ok(v) if v.get("benchmarks").is_some() => submit_correlation(shared, line),
            _ => submit_campaign(shared, line),
        };
        if submitted.is_ok() {
            shared.lock().counters.drain_resubmitted += 1;
        }
    }
    let _ = std::fs::remove_file(path);
}

/// Stop accepting work, journal every incomplete job to the drain file,
/// and release every thread. Returns the jobs drained.
fn begin_shutdown(shared: &Shared) -> std::io::Result<usize> {
    let lines: Vec<String> = {
        let mut inner = shared.lock();
        inner.draining = true;
        let mut ids: Vec<u64> = inner.table.drain().iter().map(|k| k.campaign).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.iter()
            .map(|&id| inner.jobs[id as usize - 1].submission())
            .collect()
    };
    if let (Some(path), false) = (&shared.config.drain_path, lines.is_empty()) {
        let mut file = std::fs::File::create(path)?;
        for line in &lines {
            writeln!(file, "{line}")?;
        }
        file.flush()?;
    }
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.work.notify_all();
    Ok(lines.len())
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let Ok((mut stream, _)) = listener.accept() else {
            continue;
        };
        let (status, body) = match read_request(Deadline::after(&stream, IO_TIMEOUT)) {
            Ok(request) => {
                if let Some(id) = watch_request(&request) {
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    let shared = Arc::clone(shared);
                    std::thread::spawn(move || stream_progress(&shared, &mut stream, id));
                    continue;
                }
                route(shared, &request).unwrap_or_else(|refusal| refusal)
            }
            Err(e) => bad(e),
        };
        // Every refusal is honest about when to try again.
        let retry_after = shared.config.retry_after_s.to_string();
        let headers: &[(&str, &str)] = if status == 503 {
            &[("retry-after", retry_after.as_str())]
        } else {
            &[]
        };
        let _ = write_response_with(
            &mut Deadline::after(&stream, IO_TIMEOUT),
            status,
            headers,
            &body,
        );
    }
}

fn reaper_loop(shared: &Arc<Shared>) {
    let poll = Duration::from_millis(shared.config.poll_ms.max(1));
    let mut inner = shared.lock();
    while !shared.shutdown.load(Ordering::SeqCst) {
        // The condvar wakes the reaper at shutdown, not a poll later.
        inner = shared
            .work
            .wait_timeout(inner, poll)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        let now = shared.now_ms();
        inner.table.reap(now);
    }
}

/// An in-process worker: lease straight from the table (never-expiring
/// leases), run the slot, hand the output to the same completion path a
/// runner's upload takes.
fn worker_loop(shared: &Arc<Shared>) {
    let poll = Duration::from_millis(shared.config.poll_ms.max(1));
    let mut inner = shared.lock();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(grant) = inner.table.acquire_local(shared.now_ms()) else {
            // The timeout picks up slots whose retry backoff elapsed.
            inner = shared
                .work
                .wait_timeout(inner, poll)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            continue;
        };
        let spec = inner.jobs[grant.key.campaign as usize - 1].slot(grant.key.shard);
        inner.busy += 1;
        drop(inner);
        let outcome = execute(&spec, &mut |campaign| run_local(shared, campaign));
        inner = shared.lock();
        inner.busy -= 1;
        let now = shared.now_ms();
        match outcome {
            Ok(output) => {
                let _ = accept(&mut inner, now, grant.lease_id, output);
            }
            Err(error) => {
                fail_lease(&mut inner, now, grant.lease_id, error, None);
            }
        }
    }
}

/// Run one campaign in-process, its golden run fetched from (or captured
/// into) the shared cache. The cache key is exactly the inputs that reach
/// the capture: the workload hash — so any two specs generating the same
/// program image share one capture — and parity, the only
/// classification setting a spec controls. The result is byte-identical
/// to an uncached run.
fn run_local(shared: &Shared, campaign: &Campaign) -> Result<CampaignResult, String> {
    let fingerprint = campaign.fingerprint();
    let key = format!(
        "{:016x}|parity={}",
        campaign.workload_hash(),
        campaign.safety().parity
    );
    let golden = || shared.golden.lock().unwrap_or_else(PoisonError::into_inner);
    let cached = golden().get(&key).cloned();
    let prepared = match cached {
        Some((prepared, captured_by)) => {
            let mut inner = shared.lock();
            inner.counters.golden_cache_hits += 1;
            if captured_by != fingerprint {
                inner.counters.golden_store_hits += 1;
            }
            prepared
        }
        None => {
            let prepared = Arc::new(campaign.prepare().map_err(|e| e.to_string())?);
            golden().insert(key, (Arc::clone(&prepared), fingerprint));
            shared.lock().counters.golden_cache_misses += 1;
            prepared
        }
    };
    campaign
        .try_run_prepared(shared.config.job_threads, &prepared)
        .map_err(|e| e.to_string())
}

/// Take one slot's output under its lease — the one completion path for
/// in-process workers and remote runners. The output must be the slot
/// the lease covers; its recovery counters move to `/stats`; an
/// unsharded sweep is fitted and registered as a model; the output lands
/// in the store. `Ok(false)`: the lease is stale and the output is
/// dropped. `Err`: the output was refused and the lease failed.
fn accept(
    inner: &mut Inner,
    now: u64,
    lease_id: u64,
    mut output: JobOutput,
) -> Result<bool, String> {
    let Some(key) = inner.table.leased_key(lease_id) else {
        inner.counters.stale_uploads += 1;
        return Ok(false);
    };
    let job = &inner.jobs[key.campaign as usize - 1];
    let identity = match &output {
        JobOutput::Campaign(s) => (s.fingerprint.clone(), (s.index, s.count)),
        JobOutput::Correlation(s) => (s.spec.fingerprint(), (s.index, s.count)),
    };
    if identity != (job.fingerprint.clone(), job.geometry(key.shard)) {
        let error = "uploaded output does not match the leased slot".to_string();
        fail_lease(inner, now, lease_id, error.clone(), None);
        return Err(error);
    }
    let address = job.address(key.shard);
    let unsharded_sweep = matches!(&job.spec, JobSpec::Correlation(spec) if spec.shard.is_none());
    if let (JobOutput::Correlation(shard), true) = (&output, unsharded_sweep) {
        match merge_correlation_shards(vec![shard.clone()]) {
            Ok(report) => inner.register_model(report),
            Err(error) => {
                fail_lease(inner, now, lease_id, error.clone(), None);
                return Err(error);
            }
        }
    }
    // A resumed slot must be bit-identical to a never-interrupted one;
    // the recovery count is fleet truth, so it moves to /stats.
    let c = &mut inner.counters;
    for shard in output.shards_mut() {
        let mut stats = *shard.result.stats();
        c.cycles_simulated_total += stats.cycles_simulated;
        c.statically_pruned_total += stats.statically_pruned as u64;
        c.collapsed_classes_total += stats.collapsed_classes as u64;
        if stats.resumed > 0 {
            c.jobs_recovered_total += stats.resumed as u64;
            stats.resumed = 0;
            shard.result = CampaignResult::with_stats(shard.result.records().to_vec(), stats);
        }
    }
    inner.table.complete(lease_id);
    let _ = inner.store.put(&address, output);
    let progress = inner.progress(key.campaign);
    if progress.done == progress.total {
        inner.counters.completed += 1;
    }
    Ok(true)
}

/// Fail a live lease (re-queued with backoff, or poisoned), recording
/// the reason on its job. `false` for a stale lease.
fn fail_lease(
    inner: &mut Inner,
    now: u64,
    lease_id: u64,
    error: String,
    journal: Option<String>,
) -> bool {
    let Some(key) = inner.table.leased_key(lease_id) else {
        inner.counters.stale_uploads += 1;
        return false;
    };
    inner.jobs[key.campaign as usize - 1].error = Some(error);
    inner.table.fail(now, lease_id, journal).is_some()
}

fn err_json(message: &str) -> String {
    format!("{{\"error\":{}}}", escape_json(message))
}

fn bad(e: impl std::fmt::Display) -> Reply {
    (400, err_json(&e.to_string()))
}

fn route(shared: &Shared, request: &Request) -> Result<Reply, Reply> {
    let body = request.body.as_str();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let draining = shared.lock().draining;
            Ok((200, format!("{{\"ok\":true,\"draining\":{draining}}}")))
        }
        ("GET", "/stats") => Ok((200, stats_json(shared))),
        ("POST", "/campaign") => submit_campaign(shared, body),
        ("POST", "/fleet") => submit_fleet(shared, body),
        ("POST", "/correlate") => submit_correlation(shared, body),
        ("GET", path) if path.starts_with("/campaign/") => {
            let rest = &path["/campaign/".len()..];
            match rest.split_once("/shard/") {
                Some((id, shard)) => match (id.parse(), shard.parse()) {
                    (Ok(id), Ok(shard)) => shard_status(shared, id, shard),
                    _ => Err(bad("campaign and shard ids are integers")),
                },
                None => job_status(
                    shared,
                    rest.parse().map_err(|_| bad("campaign ids are integers"))?,
                ),
            }
        }
        ("POST", "/predict") => predict(shared, body),
        ("POST", "/merge") => merge(shared, body),
        ("POST", "/register") => register(shared, body),
        ("POST", "/lease") => lease(shared, body),
        ("POST", "/heartbeat") => heartbeat(shared, body),
        ("POST", "/complete") => complete(shared, body),
        ("POST", "/fail") => fail(shared, body),
        ("POST", "/shutdown") => match begin_shutdown(shared) {
            Ok(drained) => Ok((200, format!("{{\"ok\":true,\"drained\":{drained}}}"))),
            Err(e) => Err((503, err_json(&format!("drain journal failed: {e}")))),
        },
        ("GET" | "POST", _) => Err((404, err_json("no such endpoint"))),
        _ => Err((405, err_json("method not allowed"))),
    }
}

fn stats_json(shared: &Shared) -> String {
    let golden_entries = shared
        .golden
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .len();
    let inner = shared.lock();
    let leases = inner.table.counters();
    let snapshot = inner.table.snapshot();
    let c = &inner.counters;
    let workers = shared.config.workers;
    let utilization = if workers == 0 {
        0.0
    } else {
        inner.busy as f64 / workers as f64
    };
    let mut s = String::with_capacity(1024);
    let _ = write!(
        s,
        "{{\"queue_depth\":{},\"queue_capacity\":{},\"workers\":{workers},\"busy\":{},\
         \"utilization\":{utilization},\"jobs\":{},\"runners\":{},\"submitted\":{},\
         \"completed\":{},\"rejected_busy\":{},\"drain_resubmitted\":{},\"cache_hits\":{},\
         \"cache_misses\":{},\"golden_cache_entries\":{golden_entries},\
         \"golden_cache_hits\":{},\"golden_cache_misses\":{},\"golden_store_hits\":{},\
         \"cycles_simulated_total\":{},\"statically_pruned\":{},\"collapsed_classes\":{},\
         \"models_cached\":{},\"predictions\":{},\"leases_active\":{},\"leases_granted\":{},\
         \"leases_expired\":{},\"leases_failed\":{},\"leases_retried\":{},\"shards_done\":{},\
         \"shards_poisoned\":{},\"stale_uploads\":{},\"jobs_recovered_total\":{},\
         \"store_puts\":{},\"store_dedup_hits\":{},\"draining\":{},\"fleet\":[",
        snapshot.queued,
        shared.config.queue_depth,
        inner.busy,
        inner.jobs.len(),
        inner.runners.len(),
        c.submitted,
        c.completed,
        c.rejected_busy,
        c.drain_resubmitted,
        c.cache_hits,
        c.cache_misses,
        c.golden_cache_hits,
        c.golden_cache_misses,
        c.golden_store_hits,
        c.cycles_simulated_total,
        c.statically_pruned_total,
        c.collapsed_classes_total,
        inner.models.len(),
        c.predictions,
        snapshot.leased,
        leases.granted,
        leases.expired,
        leases.failed,
        leases.retried,
        leases.completed,
        leases.poisoned,
        c.stale_uploads,
        c.jobs_recovered_total,
        inner.store.puts(),
        inner.store.dedup_hits(),
        inner.draining,
    );
    // The registered fleet, ids ascending.
    for (i, (name, threads, completed)) in inner.runners.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"runner_id\":{},\"name\":{},\"threads\":{threads},\"completed\":{completed}}}",
            i + 1,
            escape_json(name),
        );
    }
    s.push_str("]}");
    s
}

/// Refuse shard coordinates up front so a bad spec fails the submission,
/// not a worker.
fn check_shard(shard: Option<(u32, u32)>) -> Result<(), Reply> {
    match shard {
        Some((index, count)) if count == 0 || index >= count => {
            Err(bad(format!("shard {index}/{count} out of range")))
        }
        _ => Ok(()),
    }
}

/// `POST /campaign`: one slot.
fn submit_campaign(shared: &Shared, body: &str) -> Result<Reply, Reply> {
    let spec = CampaignSpec::parse(body).map_err(bad)?;
    check_shard(spec.shard)?;
    enqueue(shared, JobSpec::Campaign(spec), None)
}

/// `POST /fleet`: a campaign spec plus `"shards":n`, cut into `n` slots.
fn submit_fleet(shared: &Shared, body: &str) -> Result<Reply, Reply> {
    let v = Json::parse(body).map_err(bad)?;
    let spec = CampaignSpec::from_obj(&v).map_err(bad)?;
    if spec.shard.is_some() {
        return Err(bad(
            "fleet specs carry `shards`, not `shard_index`/`shard_count` (the server cuts the shards)",
        ));
    }
    let shards = match v.get_u64("shards") {
        Some(n) if (1..=4096).contains(&n) => u32::try_from(n).expect("bounded above"),
        Some(_) => return Err(bad("`shards` must be between 1 and 4096")),
        None => return Err(bad("missing `shards`")),
    };
    enqueue(shared, JobSpec::Campaign(spec), Some(shards))
}

/// `POST /correlate`: one correlation-sweep slot. An unsharded sweep is
/// fitted into a model; a sharded one waits for `/merge`.
fn submit_correlation(shared: &Shared, body: &str) -> Result<Reply, Reply> {
    let spec = CorrelationSpec::parse(body).map_err(bad)?;
    check_shard(spec.shard)?;
    enqueue(shared, JobSpec::Correlation(spec), None)
}

/// Admit one job. A resubmission of a live or finished job returns that
/// job (a finished one is a cache hit: zero simulated cycles); a failed
/// or degraded one is retried by a fresh job. Slots the store already
/// holds are never queued.
fn enqueue(shared: &Shared, spec: JobSpec, fleet: Option<u32>) -> Result<Reply, Reply> {
    let fingerprint = spec.fingerprint();
    let job = Job {
        spec,
        fleet,
        fingerprint,
        prefilled: 0,
        error: None,
    };
    let key = match fleet {
        Some(_) => format!("fleet:{}", job.address(0)),
        None => job.address(0),
    };
    let mut inner = shared.lock();
    if inner.draining {
        return Err((503, err_json("server is draining")));
    }
    if let Some(&id) = inner.by_key.get(&key) {
        let progress = inner.progress(id);
        if progress.poisoned == 0 {
            if progress.done == progress.total {
                inner.counters.cache_hits += 1;
            }
            return Ok(accepted(id, &progress));
        }
    }
    let missing: Vec<u32> = (0..job.slots())
        .filter(|&k| !inner.store.contains(&job.address(k)))
        .collect();
    if inner.table.snapshot().queued as usize + missing.len() > shared.config.queue_depth {
        inner.counters.rejected_busy += 1;
        return Err((503, err_json("queue full")));
    }
    let id = inner.jobs.len() as u64 + 1;
    for &shard in &missing {
        inner.table.enqueue(ShardKey {
            campaign: id,
            shard,
        });
    }
    if missing.is_empty() {
        inner.counters.cache_hits += 1;
        if let JobSpec::Correlation(sweep) = &job.spec {
            let report = match inner.store.get(&job.address(0)).map(Cow::into_owned) {
                Some(JobOutput::Correlation(shard)) if sweep.shard.is_none() => {
                    merge_correlation_shards(vec![shard]).ok()
                }
                _ => None,
            };
            if let Some(report) = report {
                inner.register_model(report);
            }
        }
    } else {
        inner.counters.cache_misses += 1;
        shared.work.notify_all();
    }
    inner.counters.submitted += 1;
    inner.jobs.push(Job {
        prefilled: job.slots() - missing.len() as u32,
        ..job
    });
    inner.by_key.insert(key, id);
    let progress = inner.progress(id);
    Ok(accepted(id, &progress))
}

fn accepted(id: u64, p: &Progress) -> Reply {
    (
        200,
        format!(
            "{{\"id\":{id},\"status\":\"{}\",\"shards\":{},\"cached\":{}}}",
            p.phase(),
            p.total,
            p.done
        ),
    )
}

/// A done job's output.
// Lives on the stack for one request; boxing the large variant would
// only add an allocation per status poll.
#[allow(clippy::large_enum_variant)]
enum Done<'a> {
    /// A slot output: a campaign job's (merged) result, or a sharded
    /// sweep's partial.
    Slot(Cow<'a, JobOutput>),
    /// An unsharded sweep's fitted model.
    Report(&'a CorrelationReport),
}

/// Look up a done job's output. A campaign job of several slots is merged
/// once and memoized in the store under slot `0/1` — the address the
/// unsharded campaign has anyway.
fn output(inner: &mut Inner, id: u64) -> Result<Done<'_>, String> {
    let job = &inner.jobs[id as usize - 1];
    let missing = |k: u32| format!("slot {k} missing from the store");
    let whole = match &job.spec {
        JobSpec::Correlation(spec) if spec.shard.is_none() => {
            return inner
                .models
                .get(&job.fingerprint)
                .map(Done::Report)
                .ok_or_else(|| "the sweep has no fitted model".to_string())
        }
        JobSpec::Campaign(spec) if job.slots() > 1 => {
            let whole = address(&job.fingerprint, (0, 1), spec.deadline_ms);
            if !inner.store.contains(&whole) {
                let parts = (0..job.slots())
                    .map(
                        |k| match inner.store.get(&job.address(k)).map(Cow::into_owned) {
                            Some(JobOutput::Campaign(shard)) => Ok(shard),
                            _ => Err(missing(k)),
                        },
                    )
                    .collect::<Result<Vec<ShardResult>, String>>()?;
                let merged = merge_shards(parts).map_err(|e| e.to_string())?;
                let _ = inner.store.put(&whole, JobOutput::Campaign(merged));
            }
            whole
        }
        _ => job.address(0),
    };
    inner
        .store
        .get(&whole)
        .map(Done::Slot)
        .ok_or_else(|| missing(0))
}

fn job_status(shared: &Shared, id: u64) -> Result<Reply, Reply> {
    let mut inner = shared.lock();
    let error = inner.job(id)?.error.clone();
    let progress = inner.progress(id);
    let mut s = format!(
        "{{\"id\":{id},\"status\":\"{}\",\"done\":{},\"total\":{}",
        progress.phase(),
        progress.done,
        progress.total
    );
    let missing = inner.table.poisoned_shards(id);
    if !missing.is_empty() {
        let list: Vec<String> = missing.iter().map(u32::to_string).collect();
        let _ = write!(s, ",\"missing\":[{}]", list.join(","));
        if let Some(error) = error {
            let _ = write!(s, ",\"error\":{}", escape_json(&error));
        }
    }
    if progress.done == progress.total {
        let (field, text) = match output(&mut inner, id).map_err(|e| (503, err_json(&e)))? {
            Done::Report(report) => ("report", report.to_json()),
            Done::Slot(slot) => match &*slot {
                JobOutput::Campaign(shard) => ("campaign", shard.to_json()),
                JobOutput::Correlation(shard) => ("shard", shard.to_json()),
            },
        };
        let _ = write!(s, ",\"{field}\":{text}");
    }
    s.push('}');
    Ok((200, s))
}

fn shard_status(shared: &Shared, id: u64, shard: u32) -> Result<Reply, Reply> {
    let inner = shared.lock();
    let job = inner.job(id)?;
    if shard >= job.slots() {
        return Err((404, err_json("shard index out of range")));
    }
    match inner.store.get(&job.address(shard)) {
        Some(output) => Ok((200, output.to_json())),
        None => Err((404, err_json("shard not complete"))),
    }
}

/// `GET /campaign/{id}?watch` → the id to stream.
fn watch_request(request: &Request) -> Option<u64> {
    let id = request
        .path
        .strip_prefix("/campaign/")?
        .strip_suffix("?watch")?;
    (request.method == "GET").then(|| id.parse().ok())?
}

/// Stream progress lines (one JSON object per chunk) until the job is
/// terminal, then a final status line.
fn stream_progress(shared: &Shared, stream: &mut TcpStream, id: u64) {
    if let Err((status, body)) = shared.lock().job(id).map(|_| ()) {
        let _ = write_response(stream, status, &body);
        return;
    }
    if write_chunked_head(stream, 200).is_err() {
        return;
    }
    let mut last = String::new();
    loop {
        let progress = shared.lock().progress(id);
        let line = format!(
            "{{\"done\":{},\"poisoned\":{},\"total\":{}}}\n",
            progress.done, progress.poisoned, progress.total
        );
        if line != last {
            if write_chunk(stream, &line).is_err() {
                return;
            }
            last = line;
        }
        if progress.done + progress.poisoned == progress.total
            || shared.shutdown.load(Ordering::SeqCst)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(shared.config.poll_ms));
    }
    let (_, status) = job_status(shared, id).unwrap_or_else(|refusal| refusal);
    let _ = write_chunk(stream, &format!("{status}\n"));
    let _ = finish_chunks(stream);
}

/// `POST /predict`: evaluate a cached fitted model — an opcode histogram
/// or a swept benchmark label in, predicted `Pf` with its residual band
/// out. This route never simulates.
fn predict(shared: &Shared, body: &str) -> Result<Reply, Reply> {
    let request = PredictRequest::parse(body).map_err(bad)?;
    let not_found = |message: String| (404, err_json(&message));
    let mut inner = shared.lock();
    let fingerprint = match &request.fingerprint {
        Some(fp) => fp.clone(),
        None => inner
            .latest_model
            .clone()
            .ok_or_else(|| not_found("no fitted model; run /correlate first".to_string()))?,
    };
    let report = inner
        .models
        .get(&fingerprint)
        .ok_or_else(|| not_found(format!("no model for sweep {fingerprint}")))?;
    let domain = report
        .domain(request.target, request.kind)
        .ok_or_else(|| not_found("the model was not fitted for that domain".to_string()))?;
    let diversity = match request.diversity() {
        Some(d) => d,
        None => {
            let label = request.benchmark.as_deref().unwrap_or_default();
            report
                .cells
                .iter()
                .find(|cell| cell.label == label)
                .ok_or_else(|| not_found(format!("`{label}` was not part of the sweep")))?
                .diversity
        }
    };
    let prediction = Prediction::evaluate(&fingerprint, domain, diversity);
    inner.counters.predictions += 1;
    Ok((200, prediction.to_json()))
}

/// `POST /merge`: recombine done jobs — campaign shards through
/// [`merge_shards`], or sweep shards through [`merge_correlation_shards`]
/// (the fitted model is registered). The two are different algebras and
/// never mix.
fn merge(shared: &Shared, body: &str) -> Result<Reply, Reply> {
    let v = Json::parse(body).map_err(bad)?;
    let ids: Vec<u64> = v
        .get_array("ids")
        .ok_or_else(|| bad("missing `ids`"))?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<Vec<u64>>>()
        .ok_or_else(|| bad("`ids` items must be integers"))?;
    let mut inner = shared.lock();
    let (mut campaigns, mut sweeps) = (Vec::new(), Vec::new());
    for &id in &ids {
        inner.job(id)?;
        let progress = inner.progress(id);
        if progress.done != progress.total {
            return Err(bad(format!("campaign {id} is {}", progress.phase())));
        }
        match output(&mut inner, id).map_err(|e| (503, err_json(&e)))? {
            Done::Slot(slot) => match slot.into_owned() {
                JobOutput::Campaign(shard) => campaigns.push(shard),
                JobOutput::Correlation(shard) => sweeps.push(shard),
            },
            Done::Report(_) => {
                return Err(bad("cannot merge campaign shards with correlation jobs"))
            }
        }
    }
    if !sweeps.is_empty() {
        if !campaigns.is_empty() {
            return Err(bad("cannot merge campaign shards with correlation jobs"));
        }
        let report = merge_correlation_shards(sweeps).map_err(|e| {
            let body = format!("{{\"error\":{},\"kind\":\"correlation\"}}", escape_json(&e));
            (409, body)
        })?;
        let json = report.to_json();
        inner.register_model(report);
        return Ok((200, json));
    }
    // Refusals reuse the journal's header-mismatch semantics; they are
    // conflicts between the supplied shards, not bad syntax.
    match merge_shards(campaigns) {
        Ok(merged) => Ok((200, merged.to_json())),
        Err(e) => {
            let kind = match &e {
                fault_inject::JournalError::HeaderMismatch { field, .. } => field,
                _ => "malformed",
            };
            let body = format!(
                "{{\"error\":{},\"kind\":{}}}",
                escape_json(&e.to_string()),
                escape_json(kind)
            );
            Err((409, body))
        }
    }
}

fn register(shared: &Shared, body: &str) -> Result<Reply, Reply> {
    let request = Json::parse(body)
        .and_then(|v| Register::from_obj(&v))
        .map_err(bad)?;
    let mut inner = shared.lock();
    inner.runners.push((request.name, request.threads, 0));
    let reply = Registered {
        runner_id: inner.runners.len() as u64,
        lease_ms: shared.config.lease_ttl_ms,
        heartbeat_ms: shared.config.heartbeat_ms,
    };
    Ok((200, reply.to_json()))
}

fn lease(shared: &Shared, body: &str) -> Result<Reply, Reply> {
    let request = Json::parse(body)
        .and_then(|v| LeaseRequest::from_obj(&v))
        .map_err(bad)?;
    let now = shared.now_ms();
    let mut inner = shared.lock();
    if request.runner_id == 0 || request.runner_id > inner.runners.len() as u64 {
        return Err(bad("unknown runner (register first)"));
    }
    let no_work = |draining: bool| {
        let reply = LeaseReply::NoWork {
            retry_ms: shared.config.heartbeat_ms,
            draining,
        };
        Ok((200, reply.to_json()))
    };
    if inner.draining {
        return no_work(true);
    }
    // Lazy reap on the grant path: a lease request never waits a poll
    // interval behind a dead runner.
    inner.table.reap(now);
    let Some(granted) = inner.table.acquire(now) else {
        return no_work(false);
    };
    let spec = inner.jobs[granted.key.campaign as usize - 1].slot(granted.key.shard);
    let reply = LeaseReply::Grant(LeaseGrant {
        lease_id: granted.lease_id,
        campaign_id: granted.key.campaign,
        attempt: granted.attempt,
        spec: Json::parse(&spec.to_json()).expect("canonical spec parses"),
        journal: granted.journal,
    });
    Ok((200, reply.to_json()))
}

fn heartbeat(shared: &Shared, body: &str) -> Result<Reply, Reply> {
    let request = Json::parse(body)
        .and_then(|v| Heartbeat::from_obj(&v))
        .map_err(bad)?;
    let now = shared.now_ms();
    let mut inner = shared.lock();
    let ok = inner.table.heartbeat(now, request.lease_id);
    let draining = inner.draining;
    Ok((200, Ack { ok, draining }.to_json()))
}

fn complete(shared: &Shared, body: &str) -> Result<Reply, Reply> {
    let request = Json::parse(body)
        .and_then(|v| Complete::from_obj(&v))
        .map_err(bad)?;
    let now = shared.now_ms();
    let mut inner = shared.lock();
    let ok = accept(&mut inner, now, request.lease_id, request.output).map_err(bad)?;
    let index = request.runner_id.checked_sub(1);
    if let (true, Some(runner)) = (ok, index.and_then(|i| inner.runners.get_mut(i as usize))) {
        runner.2 += 1;
    }
    let draining = inner.draining;
    Ok((200, Ack { ok, draining }.to_json()))
}

fn fail(shared: &Shared, body: &str) -> Result<Reply, Reply> {
    let request = Json::parse(body)
        .and_then(|v| Fail::from_obj(&v))
        .map_err(bad)?;
    let now = shared.now_ms();
    let mut inner = shared.lock();
    // Only a journal that parses (torn final line allowed — that is the
    // recovery path) is handed to the next holder.
    let journal = request
        .journal
        .filter(|text| journal::read_str(text).is_ok());
    let ok = fail_lease(&mut inner, now, request.lease_id, request.error, journal);
    let draining = inner.draining;
    Ok((200, Ack { ok, draining }.to_json()))
}
