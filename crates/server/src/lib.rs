//! `verifd` — the campaign server.
//!
//! Every capability of the workspace runs as a one-shot CLI process too,
//! but each invocation re-derives the golden run and re-simulates
//! campaigns other callers already paid for. `verifd` makes the campaign
//! engine a resident service, on one node or across a fleet, behind one
//! [`Server`]:
//!
//! * a **request layer** ([`http`]) — hand-rolled HTTP/1.1 over
//!   `std::net::TcpListener` with per-request deadlines, speaking the
//!   journal's hand-rolled JSON dialect ([`fault_inject::wire`]); no
//!   registry dependencies;
//! * the **server** ([`server`]) — one accept loop and router for every
//!   route: `/campaign` (one slot, or slot `i/n` of a sharded spec),
//!   `/fleet` (one spec cut into `n` slots), `/correlate` (a Fig. 7
//!   sweep), `/predict` (a fitted model, zero simulated cycles),
//!   `/merge`, the runner protocol, `/campaign/{id}?watch`, `/stats` and
//!   a graceful `/shutdown` that drains incomplete jobs to a file the
//!   next startup re-submits;
//! * one **queue**, the pure [`lease`] table — queued → leased →
//!   retrying → done | poisoned, driven by an injected clock so every
//!   transition is unit-testable without I/O. In-process workers lease
//!   from it directly (their leases never expire); remote runners lease
//!   under wall-clock TTLs with capped exponential backoff, and a slot
//!   that burns `max_attempts` leases is poisoned, so its job ends
//!   **degraded**, naming the missing slots;
//! * one **result cache**, the content-addressed [`store`] — one result
//!   per `fingerprint + shard geometry + deadline`, in memory or in a
//!   directory that survives restarts, so a repeated spec returns
//!   bit-identical bytes without simulating a cycle, whichever node or
//!   runner first computed it;
//! * one **job function**, [`spec::execute`], run by in-process workers
//!   (through a golden-run cache shared across specs) and by the fleet
//!   [`runner`] (journaled: a failed lease uploads its partial journal,
//!   so the next holder resumes instead of re-simulating; a `--chaos`
//!   seed arms a deterministic lease-fault injector for tests).
//!
//! Shard results merge bit-for-bit via [`fault_inject::merge_shards`] and
//! [`fault_inject::merge_correlation_shards`]. The `repro` CLI's `serve`,
//! `submit`, `merge`, `correlate`, `predict` and `fleet` verbs are built
//! on [`client`]; the `verifd` binary and `repro` share the flag parsers
//! [`ServerConfig::from_args`] and [`RunnerConfig::from_args`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod lease;
pub mod runner;
pub mod server;
pub mod spec;
pub mod store;

pub use client::{ClientError, FleetStatus, StatusReply, SubmitReply};
pub use lease::{LeaseCounters, LeasePolicy, LeaseSnapshot, LeaseTable, ShardKey};
pub use runner::{Runner, RunnerConfig, RUNNER_FLAGS};
pub use server::{Coordinator, CoordinatorConfig, Server, ServerConfig, SERVER_FLAGS};
pub use spec::{CampaignSpec, JobSpec};
pub use store::ResultStore;
