//! The job request: everything a client must say to name a campaign or
//! a correlation sweep, its canonical JSON form, and [`execute`] — the
//! one job function in-process workers and remote runners both run.

use fault_inject::wire::fleet::JobOutput;
use fault_inject::wire::{
    escape_json, kind_from_token, kind_to_token, target_from_token, target_to_token, Json,
};
use fault_inject::{
    AttackTarget, Campaign, CampaignResult, CorrelationSpec, InjectionInstant, SafetyConfig,
    ShardResult, Target,
};
use rtl_sim::FaultKind;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use workloads::{Benchmark, Params};

/// A campaign request, as submitted to `POST /campaign`.
///
/// The JSON form uses the workspace's own names throughout: benchmarks as
/// `Benchmark::name` (`"rspeed"`), targets as the CLI tokens
/// (`"iu"`/`"cmem"`/`"whole"`), fault kinds as the wire tokens of
/// `fault_inject::wire::kind_to_token` — the plain `FaultKind::name`
/// for parameterless kinds (`"stuck-at-1"`), the parameterized form for
/// time-varying ones (`"intermittent-stuck(level=1,period=8,duty=2,phase=0)"`,
/// `"transient-burst(flips=3,spacing=4)"`). An optional `targets` list of
/// attack-surface classes (`"branch"`/`"psr"`/`"pc"`) restricts the fault
/// universe to those semantic nets. Everything except `benchmark` and
/// `target` is optional:
///
/// ```json
/// {"benchmark":"rspeed","target":"iu","kinds":["stuck-at-1"],
///  "targets":["branch","psr"],
///  "sample":40,"seed":7,"injection_fraction":0.3,
///  "lockstep_window":64,"parity":true,"watchdog_cycles":50000,
///  "deadline_ms":2000,"shard_index":0,"shard_count":2}
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Which workload to run (default `Params`).
    pub benchmark: Benchmark,
    /// Which fault domain to inject into.
    pub target: Target,
    /// The fault models (all permanent models when absent on the wire).
    pub kinds: Vec<FaultKind>,
    /// Optional attack-surface classes restricting the fault universe to
    /// semantically meaningful nets (see `Campaign::with_attack_targets`);
    /// full domain enumeration when absent. Held in canonical (sorted,
    /// deduplicated) order.
    pub targets: Option<Vec<AttackTarget>>,
    /// Optional `(sample, seed)` site sampling; exhaustive when absent.
    pub sample: Option<(usize, u64)>,
    /// When the faults appear (cycle 0 when absent on the wire).
    pub injection: InjectionInstant,
    /// Optional checkpoint stride in cycles: the fork engine drops a
    /// pool checkpoint every this-many cycles on top of the per-instant
    /// ones (see `Campaign::with_checkpoint_stride`). Enters the
    /// fingerprint — it changes every job's cost accounting.
    pub checkpoint_stride: Option<u64>,
    /// Which safety mechanisms to model (all off when absent).
    pub safety: SafetyConfig,
    /// Optional per-job wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Optional `(index, count)` shard coordinates.
    pub shard: Option<(u32, u32)>,
    /// Enable static net-graph pruning and stuck-at fault collapsing
    /// (see `Campaign::with_static_analysis`). Enters the fingerprint —
    /// pruned jobs carry provenance instead of a simulated run.
    pub static_analysis: bool,
}

impl CampaignSpec {
    /// A minimal spec: every optional field at its default.
    pub fn new(benchmark: Benchmark, target: Target) -> CampaignSpec {
        CampaignSpec {
            benchmark,
            target,
            kinds: FaultKind::ALL.to_vec(),
            targets: None,
            sample: None,
            injection: InjectionInstant::Cycle(0),
            checkpoint_stride: None,
            safety: SafetyConfig::default(),
            deadline_ms: None,
            shard: None,
            static_analysis: false,
        }
    }

    /// Serialize as one canonical JSON object (absent options are
    /// omitted, not `null` — the dialect has no `null`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(
            s,
            "{{\"benchmark\":{},\"target\":\"{}\"",
            escape_json(self.benchmark.name()),
            target_to_token(self.target),
        );
        s.push_str(",\"kinds\":[");
        for (i, kind) in self.kinds.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\"", kind_to_token(*kind));
        }
        s.push(']');
        if let Some(targets) = &self.targets {
            s.push_str(",\"targets\":[");
            for (i, target) in targets.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\"", target.token());
            }
            s.push(']');
        }
        if let Some((n, seed)) = self.sample {
            let _ = write!(s, ",\"sample\":{n},\"seed\":{seed}");
        }
        match self.injection {
            InjectionInstant::Cycle(0) => {}
            InjectionInstant::Cycle(c) => {
                let _ = write!(s, ",\"injection_cycle\":{c}");
            }
            InjectionInstant::Fraction(f) => {
                let _ = write!(s, ",\"injection_fraction\":{f}");
            }
        }
        if let Some(stride) = self.checkpoint_stride {
            let _ = write!(s, ",\"checkpoint_stride\":{stride}");
        }
        if let Some(w) = self.safety.lockstep_window {
            let _ = write!(s, ",\"lockstep_window\":{w}");
        }
        if self.safety.parity {
            s.push_str(",\"parity\":true");
        }
        if let Some(w) = self.safety.watchdog_cycles {
            let _ = write!(s, ",\"watchdog_cycles\":{w}");
        }
        if let Some(ms) = self.deadline_ms {
            let _ = write!(s, ",\"deadline_ms\":{ms}");
        }
        if let Some((index, count)) = self.shard {
            let _ = write!(s, ",\"shard_index\":{index},\"shard_count\":{count}");
        }
        if self.static_analysis {
            s.push_str(",\"static_analysis\":true");
        }
        s.push('}');
        s
    }

    /// The `POST /fleet` body: this spec plus `"shards":n`.
    pub fn to_fleet_json(&self, shards: u32) -> String {
        let json = self.to_json();
        format!("{},\"shards\":{shards}}}", &json[..json.len() - 1])
    }

    /// Parse a spec from its JSON text.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on syntax errors, unknown
    /// names, or inconsistent option pairs (`sample` without `seed`,
    /// both injection forms at once, half a shard).
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let v = Json::parse(text)?;
        CampaignSpec::from_obj(&v)
    }

    /// Parse a spec from an already-parsed object.
    ///
    /// # Errors
    ///
    /// As [`CampaignSpec::parse`].
    pub fn from_obj(v: &Json) -> Result<CampaignSpec, String> {
        let benchmark_name = v.get_str("benchmark").ok_or("missing `benchmark`")?;
        let benchmark = Benchmark::by_name(benchmark_name)
            .ok_or_else(|| format!("unknown benchmark `{benchmark_name}`"))?;
        let target_name = v.get_str("target").ok_or("missing `target`")?;
        let target = target_from_token(target_name)
            .ok_or_else(|| format!("unknown target `{target_name}` (iu, cmem or whole)"))?;
        let kinds = match v.get_array("kinds") {
            None => FaultKind::ALL.to_vec(),
            Some(items) => items
                .iter()
                .map(|item| {
                    let token = item.as_str().ok_or("`kinds` items must be strings")?;
                    kind_from_token(token)
                })
                .collect::<Result<Vec<FaultKind>, String>>()?,
        };
        let targets = match v.get_array("targets") {
            None => None,
            Some(items) => {
                let mut targets = items
                    .iter()
                    .map(|item| {
                        let token = item.as_str().ok_or("`targets` items must be strings")?;
                        AttackTarget::from_token(token).ok_or_else(|| {
                            format!("unknown attack target `{token}` (branch, psr or pc)")
                        })
                    })
                    .collect::<Result<Vec<AttackTarget>, String>>()?;
                targets.sort();
                targets.dedup();
                Some(targets)
            }
        };
        let sample = match (v.get_u64("sample"), v.get_u64("seed")) {
            (Some(n), Some(seed)) => Some((n as usize, seed)),
            (None, None) => None,
            _ => return Err("`sample` and `seed` come together or not at all".to_string()),
        };
        let injection = match (
            v.get_u64("injection_cycle"),
            v.get_f64("injection_fraction"),
        ) {
            (Some(_), Some(_)) => {
                return Err("give `injection_cycle` or `injection_fraction`, not both".to_string())
            }
            (Some(c), None) => InjectionInstant::Cycle(c),
            (None, Some(f)) => InjectionInstant::Fraction(f),
            (None, None) => InjectionInstant::Cycle(0),
        };
        let safety = SafetyConfig {
            lockstep_window: v.get_u64("lockstep_window"),
            parity: v.get_bool("parity").unwrap_or(false),
            watchdog_cycles: v.get_u64("watchdog_cycles"),
        };
        let shard = match (v.get_u64("shard_index"), v.get_u64("shard_count")) {
            (Some(i), Some(n)) => Some((i as u32, n as u32)),
            (None, None) => None,
            _ => return Err("`shard_index` and `shard_count` come together".to_string()),
        };
        Ok(CampaignSpec {
            benchmark,
            target,
            kinds,
            targets,
            sample,
            injection,
            checkpoint_stride: v.get_u64("checkpoint_stride"),
            safety,
            deadline_ms: v.get_u64("deadline_ms"),
            shard,
            static_analysis: v.get_bool("static_analysis").unwrap_or(false),
        })
    }

    /// Build the runnable campaign this spec names.
    pub fn to_campaign(&self) -> Campaign {
        let mut campaign = Campaign::new(self.benchmark.program(&Params::default()), self.target)
            .with_kinds(&self.kinds)
            .with_safety(self.safety);
        if let Some(targets) = &self.targets {
            campaign = campaign.with_attack_targets(targets);
        }
        if let Some((n, seed)) = self.sample {
            campaign = campaign.with_sample(n, seed);
        }
        campaign = match self.injection {
            InjectionInstant::Cycle(c) => campaign.with_injection_cycle(c),
            InjectionInstant::Fraction(f) => campaign.with_injection_fraction(f),
        };
        if let Some(stride) = self.checkpoint_stride {
            campaign = campaign.with_checkpoint_stride(stride);
        }
        if let Some(ms) = self.deadline_ms {
            campaign = campaign.with_deadline(Duration::from_millis(ms));
        }
        if let Some((index, count)) = self.shard {
            campaign = campaign.with_shard(index, count);
        }
        campaign.with_static_analysis(self.static_analysis)
    }

    /// The campaign's public fingerprint (shard-independent — see
    /// [`Campaign::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        self.to_campaign().fingerprint()
    }

    /// The result-store address of this spec's result (see
    /// [`crate::store::address`]). The fingerprint deliberately excludes
    /// the shard coordinates (all shards of one campaign share it) and
    /// the wall-clock deadline (it cannot change which jobs exist) — but
    /// both *can* change the bytes of this spec's result, so the address
    /// appends them. The unsharded campaign normalizes to shard `0/1`.
    pub fn cache_key(&self) -> String {
        crate::store::address(
            &self.fingerprint(),
            self.shard.unwrap_or((0, 1)),
            self.deadline_ms,
        )
    }
}

/// What one job names: a campaign (possibly one shard of one) or a
/// correlation sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A campaign, as `POST /campaign` and `POST /fleet` take it.
    Campaign(CampaignSpec),
    /// A correlation sweep, as `POST /correlate` takes it.
    Correlation(CorrelationSpec),
}

impl JobSpec {
    /// Parse either kind from an already-parsed object: a correlation
    /// sweep is the only shape with a `benchmarks` list.
    ///
    /// # Errors
    ///
    /// As [`CampaignSpec::from_obj`] and [`CorrelationSpec::from_obj`].
    pub fn from_obj(v: &Json) -> Result<JobSpec, String> {
        if v.get("benchmarks").is_some() {
            CorrelationSpec::from_obj(v).map(JobSpec::Correlation)
        } else {
            CampaignSpec::from_obj(v).map(JobSpec::Campaign)
        }
    }

    /// The canonical JSON form of the inner spec.
    pub fn to_json(&self) -> String {
        match self {
            JobSpec::Campaign(spec) => spec.to_json(),
            JobSpec::Correlation(spec) => spec.to_json(),
        }
    }

    /// The shard-independent public fingerprint.
    pub fn fingerprint(&self) -> String {
        match self {
            JobSpec::Campaign(spec) => spec.fingerprint(),
            JobSpec::Correlation(spec) => spec.fingerprint(),
        }
    }

    /// The shard coordinates, if any.
    pub fn shard(&self) -> Option<(u32, u32)> {
        match self {
            JobSpec::Campaign(spec) => spec.shard,
            JobSpec::Correlation(spec) => spec.shard,
        }
    }

    /// The per-job deadline (campaigns only), part of every address.
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            JobSpec::Campaign(spec) => spec.deadline_ms,
            JobSpec::Correlation(_) => None,
        }
    }

    /// This spec cut to shard `index` of `count`.
    #[must_use]
    pub fn with_shard(&self, index: u32, count: u32) -> JobSpec {
        let mut spec = self.clone();
        match &mut spec {
            JobSpec::Campaign(s) => s.shard = Some((index, count)),
            JobSpec::Correlation(s) => s.shard = Some((index, count)),
        }
        spec
    }
}

/// Run one job slot. `run` executes each campaign — an in-process worker
/// through its golden-run cache, a runner journaled — and the output is
/// byte-identical either way. Panics are caught and stringified: a
/// panicking workload must fail the slot, not the thread running it.
///
/// # Errors
///
/// The first error `run` returns, or the panic message.
pub fn execute(
    spec: &JobSpec,
    run: &mut dyn FnMut(&Campaign) -> Result<CampaignResult, String>,
) -> Result<JobOutput, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| match spec {
        JobSpec::Campaign(spec) => {
            let campaign = spec.to_campaign();
            let (index, count) = spec.shard.unwrap_or((0, 1));
            Ok(JobOutput::Campaign(ShardResult {
                result: run(&campaign)?,
                fingerprint: campaign.fingerprint(),
                index,
                count,
            }))
        }
        JobSpec::Correlation(spec) => spec.run_with(run).map(JobOutput::Correlation),
    }));
    outcome.unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("job panicked: {message}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let mut spec = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
        spec.kinds = vec![
            FaultKind::StuckAt1,
            FaultKind::OpenLine,
            FaultKind::IntermittentStuck {
                level: true,
                period: 8,
                duty: 2,
                phase: 3,
            },
            FaultKind::TransientBurst {
                flips: 3,
                spacing: 40,
            },
        ];
        spec.targets = Some(vec![
            AttackTarget::BranchCondition,
            AttackTarget::StatusRegister,
        ]);
        spec.sample = Some((40, 7));
        spec.injection = InjectionInstant::Fraction(0.3);
        spec.checkpoint_stride = Some(10_000);
        spec.safety = SafetyConfig {
            lockstep_window: Some(64),
            parity: true,
            watchdog_cycles: Some(50_000),
        };
        spec.deadline_ms = Some(2_000);
        spec.shard = Some((1, 4));
        spec.static_analysis = true;
        let parsed = CampaignSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        // Canonical: the round trip reproduces the bytes.
        assert_eq!(parsed.to_json(), spec.to_json());
    }

    #[test]
    fn minimal_spec_defaults() {
        let spec = CampaignSpec::parse(r#"{"benchmark":"rspeed","target":"cmem"}"#).unwrap();
        assert_eq!(spec.kinds, FaultKind::ALL.to_vec());
        assert_eq!(spec.injection, InjectionInstant::Cycle(0));
        assert_eq!(spec.sample, None);
        assert_eq!(spec.shard, None);
        assert_eq!(spec.checkpoint_stride, None);
        assert!(!spec.safety.any_enabled());
    }

    #[test]
    fn checkpoint_stride_changes_the_fingerprint() {
        // The stride changes every entry's cost accounting, so two specs
        // differing only in stride must not share cached results.
        let mut a = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
        a.sample = Some((10, 3));
        let mut b = a.clone();
        b.checkpoint_stride = Some(5_000);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn static_analysis_changes_the_fingerprint() {
        // Pruned jobs carry provenance instead of a simulated run, so a
        // static spec must not share cached results with a plain one.
        let mut a = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
        a.sample = Some((10, 3));
        let mut b = a.clone();
        b.static_analysis = true;
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.cache_key(), b.cache_key());
        // Off is the wire default and stays byte-identical to the
        // pre-static-analysis canonical form.
        assert!(!a.to_json().contains("static_analysis"));
        assert!(b.to_json().ends_with(",\"static_analysis\":true}"));
    }

    #[test]
    fn inconsistent_specs_are_refused() {
        for bad in [
            r#"{"benchmark":"rspeed"}"#,
            r#"{"benchmark":"nope","target":"iu"}"#,
            r#"{"benchmark":"rspeed","target":"alu"}"#,
            r#"{"benchmark":"rspeed","target":"iu","sample":10}"#,
            r#"{"benchmark":"rspeed","target":"iu","injection_cycle":5,"injection_fraction":0.5}"#,
            r#"{"benchmark":"rspeed","target":"iu","shard_index":0}"#,
            r#"{"benchmark":"rspeed","target":"iu","kinds":["bitrot"]}"#,
            // Out-of-range and malformed parameterized kind tokens.
            r#"{"benchmark":"rspeed","target":"iu","kinds":["intermittent-stuck(level=1,period=4,duty=9,phase=0)"]}"#,
            r#"{"benchmark":"rspeed","target":"iu","kinds":["transient-burst(flips=0,spacing=1)"]}"#,
            r#"{"benchmark":"rspeed","target":"iu","kinds":["transient-burst(spacing=1,flips=2)"]}"#,
            r#"{"benchmark":"rspeed","target":"iu","targets":["alu"]}"#,
        ] {
            assert!(CampaignSpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn targets_normalize_and_change_the_fingerprint() {
        let mut a = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
        a.kinds = vec![FaultKind::StuckAt1];
        a.sample = Some((10, 3));
        let mut b = a.clone();
        b.targets = Some(vec![AttackTarget::BranchCondition]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.cache_key(), b.cache_key());
        assert!(!a.to_json().contains("targets"));
        assert!(b.to_json().contains(",\"targets\":[\"branch\"]"));
        // The wire accepts any order and duplicates; the parsed spec (and
        // its canonical bytes) are sorted and deduplicated.
        let spec = CampaignSpec::parse(
            r#"{"benchmark":"rspeed","target":"iu","targets":["psr","branch","psr"]}"#,
        )
        .unwrap();
        assert_eq!(
            spec.targets,
            Some(vec![
                AttackTarget::BranchCondition,
                AttackTarget::StatusRegister
            ])
        );
        assert!(spec.to_json().contains(",\"targets\":[\"branch\",\"psr\"]"));
    }

    #[test]
    fn time_varying_kind_parameters_enter_the_fingerprint() {
        // Two intermittent campaigns differing only in duty cycle run
        // different fault schedules — they must not share cached results.
        let mut a = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
        a.kinds = vec![FaultKind::IntermittentStuck {
            level: true,
            period: 8,
            duty: 2,
            phase: 0,
        }];
        a.sample = Some((10, 3));
        let mut b = a.clone();
        b.kinds = vec![FaultKind::IntermittentStuck {
            level: true,
            period: 8,
            duty: 4,
            phase: 0,
        }];
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.to_json(), b.to_json());
    }

    #[test]
    fn shards_share_the_fingerprint_but_not_the_cache_key() {
        let mut a = CampaignSpec::new(Benchmark::Rspeed, Target::IntegerUnit);
        a.sample = Some((10, 3));
        let mut b = a.clone();
        b.shard = Some((1, 2));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.cache_key(), b.cache_key());
        // The deadline is outside the fingerprint but inside the cache key.
        let mut c = a.clone();
        c.deadline_ms = Some(100);
        assert_eq!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.cache_key(), c.cache_key());
    }
}
