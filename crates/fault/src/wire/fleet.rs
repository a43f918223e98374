//! Fleet protocol messages: runner registration, shard leases,
//! heartbeats, and shard completion/failure reports.
//!
//! The coordinator/runner split lives in the `verifd` crate; the
//! messages live here, next to the rest of the wire dialect, so every
//! byte that crosses a fleet socket is serialized by the same canonical
//! JSON code as the journal and the campaign results. The job spec
//! inside a [`LeaseGrant`] (a campaign spec or a correlation sweep) is
//! deliberately opaque at this layer — an already-canonical [`Json`]
//! object the server produced and the runner re-parses — because the
//! campaign spec type itself belongs to the service crate.
//!
//! Lifecycle on the wire:
//!
//! ```text
//! runner                         coordinator
//!   | -- Register ------------------> |       POST /register
//!   | <------------------ Registered  |
//!   | -- LeaseRequest --------------> |       POST /lease
//!   | <--- LeaseReply::Grant/NoWork   |
//!   | -- Heartbeat (every interval) > |       POST /heartbeat
//!   | <------------------------- Ack  |       (ok=false: lease lost)
//!   | -- Complete{JobOutput} -------> |       POST /complete
//!   | -- Fail{error, journal?} -----> |       POST /fail
//!   | <------------------------- Ack  |       (ok=false: lease lost)
//! ```

use super::{escape_json, Json, ShardResult};
use crate::correlation::CorrelationShard;
use std::fmt::Write as _;

/// A runner introducing itself to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register {
    /// Human-readable runner name (hostname, pod name, …) for `/stats`.
    pub name: String,
    /// How many job threads the runner hands each campaign.
    pub threads: u64,
}

impl Register {
    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"threads\":{}}}",
            escape_json(&self.name),
            self.threads
        )
    }

    /// Parse from an already-parsed object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<Register, String> {
        Ok(Register {
            name: v.get_str("name").ok_or("missing `name`")?.to_string(),
            threads: v.get_u64("threads").ok_or("missing `threads`")?,
        })
    }
}

/// The coordinator's answer to a [`Register`]: the runner's identity and
/// the lease timing contract it must honour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registered {
    /// The coordinator-assigned runner id, quoted in every later message.
    pub runner_id: u64,
    /// Wall-clock lease lifetime: a lease not heartbeat-renewed within
    /// this many milliseconds is expired and its shard re-queued.
    pub lease_ms: u64,
    /// How often the runner should heartbeat an active lease.
    pub heartbeat_ms: u64,
}

impl Registered {
    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"runner_id\":{},\"lease_ms\":{},\"heartbeat_ms\":{}}}",
            self.runner_id, self.lease_ms, self.heartbeat_ms
        )
    }

    /// Parse from an already-parsed object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<Registered, String> {
        Ok(Registered {
            runner_id: v.get_u64("runner_id").ok_or("missing `runner_id`")?,
            lease_ms: v.get_u64("lease_ms").ok_or("missing `lease_ms`")?,
            heartbeat_ms: v.get_u64("heartbeat_ms").ok_or("missing `heartbeat_ms`")?,
        })
    }
}

/// A registered runner asking for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseRequest {
    /// The id from [`Registered`].
    pub runner_id: u64,
}

impl LeaseRequest {
    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        format!("{{\"runner_id\":{}}}", self.runner_id)
    }

    /// Parse from an already-parsed object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<LeaseRequest, String> {
        Ok(LeaseRequest {
            runner_id: v.get_u64("runner_id").ok_or("missing `runner_id`")?,
        })
    }
}

/// One granted shard lease: which campaign shard to run, under which
/// lease id, and — when a previous holder died mid-shard and uploaded
/// its partial journal — the journal text to resume from.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseGrant {
    /// The lease id, quoted in heartbeats and the completion report.
    pub lease_id: u64,
    /// The coordinator's campaign id (for logging and `/campaign/{id}`).
    pub campaign_id: u64,
    /// Which lease attempt this is for the shard (1 = first holder).
    pub attempt: u64,
    /// The canonical job spec — a campaign spec with its shard
    /// coordinates already set, or a correlation sweep. The runner
    /// re-parses it; the protocol layer does not interpret it.
    pub spec: Json,
    /// Partial shard journal (JSONL text) uploaded by a previous failed
    /// holder; the runner writes it locally and resumes instead of
    /// re-simulating from zero.
    pub journal: Option<String>,
}

/// The coordinator's answer to a [`LeaseRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum LeaseReply {
    /// Work: one shard lease.
    Grant(LeaseGrant),
    /// No leasable shard right now.
    NoWork {
        /// How long the runner should wait before asking again.
        retry_ms: u64,
        /// The coordinator is shutting down; queued work is being
        /// drained, not granted.
        draining: bool,
    },
}

impl LeaseReply {
    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        match self {
            LeaseReply::Grant(grant) => {
                let mut s = format!(
                    "{{\"lease_id\":{},\"campaign_id\":{},\"attempt\":{},\"spec\":{}",
                    grant.lease_id,
                    grant.campaign_id,
                    grant.attempt,
                    grant.spec.to_json(),
                );
                if let Some(journal) = &grant.journal {
                    let _ = write!(s, ",\"journal\":{}", escape_json(journal));
                }
                s.push('}');
                s
            }
            LeaseReply::NoWork { retry_ms, draining } => {
                format!("{{\"retry_ms\":{retry_ms},\"draining\":{draining}}}")
            }
        }
    }

    /// Parse from an already-parsed object (a grant carries `lease_id`,
    /// a no-work reply carries `retry_ms`).
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<LeaseReply, String> {
        if let Some(lease_id) = v.get_u64("lease_id") {
            return Ok(LeaseReply::Grant(LeaseGrant {
                lease_id,
                campaign_id: v.get_u64("campaign_id").ok_or("missing `campaign_id`")?,
                attempt: v.get_u64("attempt").ok_or("missing `attempt`")?,
                spec: v.get("spec").ok_or("missing `spec`")?.clone(),
                journal: v.get_str("journal").map(str::to_string),
            }));
        }
        Ok(LeaseReply::NoWork {
            retry_ms: v.get_u64("retry_ms").ok_or("missing `retry_ms`")?,
            draining: v.get_bool("draining").unwrap_or(false),
        })
    }
}

/// A lease renewal. Sent every [`Registered::heartbeat_ms`]; a lease the
/// coordinator has not heard about for [`Registered::lease_ms`] expires
/// and its shard is re-queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The id from [`Registered`].
    pub runner_id: u64,
    /// The lease being renewed.
    pub lease_id: u64,
}

impl Heartbeat {
    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"runner_id\":{},\"lease_id\":{}}}",
            self.runner_id, self.lease_id
        )
    }

    /// Parse from an already-parsed object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<Heartbeat, String> {
        Ok(Heartbeat {
            runner_id: v.get_u64("runner_id").ok_or("missing `runner_id`")?,
            lease_id: v.get_u64("lease_id").ok_or("missing `lease_id`")?,
        })
    }
}

/// The coordinator's acknowledgement of a [`Heartbeat`], a [`Complete`]
/// or a [`Fail`]. `ok == false` means the lease is no longer held (it
/// expired and the shard was re-queued, or was completed by someone
/// else): the runner should discard the lease and any local state for
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Whether the lease was still valid when the message arrived.
    pub ok: bool,
    /// The coordinator is shutting down.
    pub draining: bool,
}

impl Ack {
    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        format!("{{\"ok\":{},\"draining\":{}}}", self.ok, self.draining)
    }

    /// Parse from an already-parsed object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<Ack, String> {
        Ok(Ack {
            ok: v.get_bool("ok").ok_or("missing `ok`")?,
            draining: v.get_bool("draining").unwrap_or(false),
        })
    }
}

/// What one leased slot produces: a campaign shard, or one shard of a
/// correlation sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// A campaign shard's full result.
    Campaign(ShardResult),
    /// A correlation sweep's shard: cell measurements plus every cell
    /// campaign's slice.
    Correlation(CorrelationShard),
}

impl JobOutput {
    /// Serialize as one canonical JSON object (the inner value's own
    /// canonical form).
    pub fn to_json(&self) -> String {
        match self {
            JobOutput::Campaign(shard) => shard.to_json(),
            JobOutput::Correlation(shard) => shard.to_json(),
        }
    }

    /// Parse from an already-parsed [`JobOutput::to_json`] object: a
    /// correlation shard is the only shape with a `cells` list.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<JobOutput, String> {
        if v.get("cells").is_some() {
            CorrelationShard::from_obj(v).map(JobOutput::Correlation)
        } else {
            ShardResult::from_obj(v).map(JobOutput::Campaign)
        }
    }

    /// Every campaign result inside, in job order.
    pub fn shards_mut(&mut self) -> &mut [ShardResult] {
        match self {
            JobOutput::Campaign(shard) => std::slice::from_mut(shard),
            JobOutput::Correlation(shard) => &mut shard.results,
        }
    }
}

/// A completed slot, uploaded under its lease. On the wire a campaign
/// shard travels as `"shard"` and a correlation shard as
/// `"correlation"`.
#[derive(Debug, Clone, PartialEq)]
pub struct Complete {
    /// The id from [`Registered`].
    pub runner_id: u64,
    /// The lease the slot ran under.
    pub lease_id: u64,
    /// The slot's full output.
    pub output: JobOutput,
}

impl Complete {
    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        let field = match self.output {
            JobOutput::Campaign(_) => "shard",
            JobOutput::Correlation(_) => "correlation",
        };
        format!(
            "{{\"runner_id\":{},\"lease_id\":{},\"{field}\":{}}}",
            self.runner_id,
            self.lease_id,
            self.output.to_json()
        )
    }

    /// Parse from an already-parsed object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<Complete, String> {
        let output = match (v.get("shard"), v.get("correlation")) {
            (Some(shard), None) => JobOutput::Campaign(ShardResult::from_obj(shard)?),
            (None, Some(shard)) => JobOutput::Correlation(CorrelationShard::from_obj(shard)?),
            _ => return Err("give one of `shard` or `correlation`".to_string()),
        };
        Ok(Complete {
            runner_id: v.get_u64("runner_id").ok_or("missing `runner_id`")?,
            lease_id: v.get_u64("lease_id").ok_or("missing `lease_id`")?,
            output,
        })
    }
}

/// A failed lease: the runner caught a panic, an engine error, or an
/// injected chaos fault, and reports it instead of silently vanishing.
/// The optional journal is the shard's partial write-ahead journal; the
/// coordinator validates it (torn final lines included) and hands it to
/// the shard's next lease holder so completed jobs are never
/// re-simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fail {
    /// The id from [`Registered`].
    pub runner_id: u64,
    /// The lease being failed.
    pub lease_id: u64,
    /// Human-readable failure reason (surfaced in `/stats` and logs).
    pub error: String,
    /// Partial shard journal text (JSONL), when one survived the failure.
    pub journal: Option<String>,
}

impl Fail {
    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"runner_id\":{},\"lease_id\":{},\"error\":{}",
            self.runner_id,
            self.lease_id,
            escape_json(&self.error)
        );
        if let Some(journal) = &self.journal {
            let _ = write!(s, ",\"journal\":{}", escape_json(journal));
        }
        s.push('}');
        s
    }

    /// Parse from an already-parsed object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<Fail, String> {
        Ok(Fail {
            runner_id: v.get_u64("runner_id").ok_or("missing `runner_id`")?,
            lease_id: v.get_u64("lease_id").ok_or("missing `lease_id`")?,
            error: v.get_str("error").ok_or("missing `error`")?.to_string(),
            journal: v.get_str("journal").map(str::to_string),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{CampaignResult, CampaignStats};

    fn reparse(text: &str) -> Json {
        Json::parse(text).expect("canonical text parses")
    }

    #[test]
    fn registration_round_trips() {
        let register = Register {
            name: "runner-a \"🦀\"".to_string(),
            threads: 4,
        };
        assert_eq!(
            Register::from_obj(&reparse(&register.to_json())).unwrap(),
            register
        );
        let registered = Registered {
            runner_id: 7,
            lease_ms: 5_000,
            heartbeat_ms: 1_000,
        };
        assert_eq!(
            Registered::from_obj(&reparse(&registered.to_json())).unwrap(),
            registered
        );
    }

    #[test]
    fn lease_replies_round_trip() {
        let spec =
            reparse(r#"{"benchmark":"rspeed","target":"iu","shard_index":1,"shard_count":3}"#);
        for journal in [None, Some("header\nentry one\ntorn ent".to_string())] {
            let grant = LeaseReply::Grant(LeaseGrant {
                lease_id: 41,
                campaign_id: 3,
                attempt: 2,
                spec: spec.clone(),
                journal,
            });
            assert_eq!(
                LeaseReply::from_obj(&reparse(&grant.to_json())).unwrap(),
                grant
            );
        }
        let nowork = LeaseReply::NoWork {
            retry_ms: 250,
            draining: true,
        };
        assert_eq!(
            LeaseReply::from_obj(&reparse(&nowork.to_json())).unwrap(),
            nowork
        );
    }

    #[test]
    fn embedded_spec_stays_canonical() {
        // The grant must not perturb the spec bytes: the runner's parse
        // of the embedded object re-serializes byte-identically.
        let text = r#"{"benchmark":"rspeed","target":"iu","kinds":["stuck-at-1"],"sample":8,"seed":3,"shard_index":0,"shard_count":2}"#;
        let grant = LeaseReply::Grant(LeaseGrant {
            lease_id: 1,
            campaign_id: 1,
            attempt: 1,
            spec: reparse(text),
            journal: None,
        });
        let wire = grant.to_json();
        let LeaseReply::Grant(parsed) = LeaseReply::from_obj(&reparse(&wire)).unwrap() else {
            panic!("grant expected");
        };
        assert_eq!(parsed.spec.to_json(), text);
    }

    #[test]
    fn heartbeat_and_acks_round_trip() {
        let hb = Heartbeat {
            runner_id: 2,
            lease_id: 9,
        };
        assert_eq!(Heartbeat::from_obj(&reparse(&hb.to_json())).unwrap(), hb);
        for (ok, draining) in [(true, false), (false, true)] {
            let ack = Ack { ok, draining };
            assert_eq!(Ack::from_obj(&reparse(&ack.to_json())).unwrap(), ack);
        }
    }

    #[test]
    fn completion_and_failure_round_trip() {
        let shard = ShardResult {
            fingerprint: "aa-bb".to_string(),
            index: 1,
            count: 2,
            result: CampaignResult::with_stats(Vec::new(), CampaignStats::default()),
        };
        let correlation = CorrelationShard {
            spec: crate::correlation::CorrelationSpec::new(),
            index: 0,
            count: 1,
            cells: Vec::new(),
            results: vec![shard.clone()],
        };
        for output in [
            JobOutput::Campaign(shard),
            JobOutput::Correlation(correlation),
        ] {
            let complete = Complete {
                runner_id: 2,
                lease_id: 9,
                output,
            };
            assert_eq!(
                Complete::from_obj(&reparse(&complete.to_json())).unwrap(),
                complete
            );
        }
        let fail = Fail {
            runner_id: 2,
            lease_id: 9,
            error: "chaos: injected crash\nafter 3 jobs".to_string(),
            journal: Some("{\"journal\":\"…\"}\n{\"job\":0}\n{\"jo".to_string()),
        };
        assert_eq!(Fail::from_obj(&reparse(&fail.to_json())).unwrap(), fail);
        let bare = Fail {
            journal: None,
            ..fail
        };
        assert_eq!(Fail::from_obj(&reparse(&bare.to_json())).unwrap(), bare);
    }
}
