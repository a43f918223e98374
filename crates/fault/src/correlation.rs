//! Correlation sweeps: the paper's headline experiment as a first-class
//! campaign type.
//!
//! A [`CorrelationSpec`] names a cross-product sweep — benchmarks ×
//! input datasets × injection domains — whose per-workload failure
//! probabilities, paired with ISS-measured instruction diversity,
//! calibrate the paper's `Pf = a·ln(D) + b` model (Fig. 7). The sweep
//! reuses the campaign engine wholesale: every cell is an ordinary
//! [`Campaign`], sharded with the same stride partition, merged with the
//! same bit-for-bit [`merge_shards`], and cacheable under the same
//! fingerprints.
//!
//! The output is a wire-serializable [`CorrelationReport`]: one fitted
//! [`FittedModel`] per (domain, fault-kind) pair plus the calibration
//! points and per-unit diversity `D_m` behind it. A report is all a
//! predictor needs — [`PredictRequest`] / [`Prediction`] are the
//! histogram-in/Pf-out messages the `verifd` service speaks, and answering
//! them simulates nothing.
//!
//! Determinism: a sweep cut into shards ([`CorrelationSpec::shard`]), run
//! anywhere, and recombined with [`merge_correlation_shards`] produces a
//! report **byte-identical** to the unsharded run's.

use crate::campaign::{Campaign, InjectionInstant, PreparedWorkload};
use crate::error::CampaignError;
use crate::journal::{fnv1a64, FNV_OFFSET};
use crate::result::CampaignResult;
use crate::sites::Target;
use crate::wire::{
    escape_json, kind_from_token, kind_to_token, merge_shards, target_from_token, target_to_token,
    Json, ShardResult,
};
use analysis::{CorrelationPoint, FittedModel};
use rtl_sim::FaultKind;
use sparc_asm::Program;
use sparc_isa::{Opcode, Unit};
use sparc_iss::{Iss, IssConfig, RunOutcome};
use std::fmt;
use std::fmt::Write as _;
use workloads::{Benchmark, Params, DATASETS};

/// Which input datasets a sweep runs per benchmark (the paper's Fig. 3
/// input-variability study ships three per automotive kernel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetSelection {
    /// Dataset 0 only (the wire default).
    First,
    /// Every dataset, `0..workloads::DATASETS`.
    All,
    /// An explicit list, held sorted and deduplicated.
    List(Vec<usize>),
}

impl DatasetSelection {
    /// The dataset indices this selection names, in ascending order.
    pub fn indices(&self) -> Vec<usize> {
        match self {
            DatasetSelection::First => vec![0],
            DatasetSelection::All => (0..DATASETS).collect(),
            DatasetSelection::List(list) => list.clone(),
        }
    }
}

/// One workload of a sweep: a benchmark in full or excerpt form, on one
/// input dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrelationCell {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The input dataset index.
    pub dataset: usize,
    /// Whether this cell runs the init-phase excerpt instead of the full
    /// kernel — the paper's low-diversity Fig. 3 subjects, which anchor
    /// the left end of the Fig. 7 fit.
    pub excerpt: bool,
}

impl CorrelationCell {
    /// The cell's stable label: `rspeed`, `rspeed-excerpt`, `rspeed@1`,
    /// `rspeed-excerpt@2` — calibration points carry it, and a
    /// [`PredictRequest::benchmark`] looks models up by it.
    pub fn label(&self) -> String {
        let mut label = self.benchmark.name().to_string();
        if self.excerpt {
            label.push_str("-excerpt");
        }
        if self.dataset != 0 {
            let _ = write!(label, "@{}", self.dataset);
        }
        label
    }

    /// Generate the cell's program.
    pub fn program(&self) -> Program {
        if self.excerpt {
            self.benchmark.excerpt(self.dataset)
        } else {
            self.benchmark.program(&Params {
                dataset: self.dataset,
                ..Params::default()
            })
        }
    }

    /// Run the cell on the ISS and measure its diversity `D` and per-unit
    /// refinement `D_m`.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to halt within a generous budget —
    /// that is a workload bug, not a runtime condition.
    pub fn measure(&self) -> CellMeasurement {
        let program = self.program();
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        let outcome = iss.run(200_000_000);
        assert!(
            matches!(outcome, RunOutcome::Halted { .. }),
            "{} did not halt: {outcome:?}",
            self.label()
        );
        let stats = iss.stats();
        let unit_diversity: Vec<(String, u64)> = Unit::ALL
            .into_iter()
            .map(|unit| (unit.name().to_string(), stats.unit_diversity(unit) as u64))
            .filter(|&(_, d)| d > 0)
            .collect();
        CellMeasurement {
            label: self.label(),
            diversity: stats.diversity() as u64,
            unit_diversity,
        }
    }
}

/// A cell's ISS-side measurement: overall diversity plus the per-unit
/// `D_m` refinement (units with zero diversity are omitted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellMeasurement {
    /// The cell's [`CorrelationCell::label`].
    pub label: String,
    /// Instruction diversity `D`: unique opcodes executed.
    pub diversity: u64,
    /// Per-unit diversity `D_m`, in `Unit::ALL` order, nonzero units only.
    pub unit_diversity: Vec<(String, u64)>,
}

impl CellMeasurement {
    fn write_json(&self, s: &mut String) {
        let _ = write!(
            s,
            "{{\"label\":{},\"diversity\":{},\"units\":{{",
            escape_json(&self.label),
            self.diversity
        );
        for (i, (unit, d)) in self.unit_diversity.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{d}", escape_json(unit));
        }
        s.push_str("}}");
    }

    fn from_obj(v: &Json) -> Result<CellMeasurement, String> {
        let units = match v.get("units").ok_or("cell missing `units`")? {
            Json::Object(fields) => fields
                .iter()
                .map(|(unit, d)| match d {
                    Json::Num(d) => Ok((unit.clone(), *d)),
                    _ => Err(format!("unit diversity `{unit}` must be an integer")),
                })
                .collect::<Result<Vec<(String, u64)>, String>>()?,
            _ => return Err("cell `units` must be an object".to_string()),
        };
        Ok(CellMeasurement {
            label: v
                .get_str("label")
                .ok_or("cell missing `label`")?
                .to_string(),
            diversity: v.get_u64("diversity").ok_or("cell missing `diversity`")?,
            unit_diversity: units,
        })
    }
}

/// A correlation sweep request: the cross-product of benchmarks ×
/// datasets × injection domains, every cell running the same fault kinds
/// under the same sampling and injection instant.
///
/// The canonical JSON form mirrors `CampaignSpec`'s conventions — wire
/// tokens for targets and kinds, absent fields for defaults:
///
/// ```json
/// {"benchmarks":["rspeed","intbench"],"targets":["iu"],
///  "kinds":["stuck-at-1"],"datasets":"all","sample":24,"seed":7,
///  "injection_fraction":0.3,"shard_index":0,"shard_count":2}
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationSpec {
    /// The benchmarks to sweep, held sorted (suite order) and
    /// deduplicated.
    pub benchmarks: Vec<Benchmark>,
    /// The injection domains, held sorted (`iu`, `cmem`, `whole`) and
    /// deduplicated.
    pub targets: Vec<Target>,
    /// The fault models every cell runs, in request order.
    pub kinds: Vec<FaultKind>,
    /// Which input datasets each benchmark contributes.
    pub datasets: DatasetSelection,
    /// Whether benchmarks with an init-phase excerpt also contribute the
    /// excerpt as a low-diversity cell (on by default — the paper's
    /// Fig. 7 fit leans on those points).
    pub include_excerpts: bool,
    /// Optional `(sample, seed)` site sampling; exhaustive when absent.
    pub sample: Option<(usize, u64)>,
    /// When the faults appear (cycle 0 when absent on the wire).
    pub injection: InjectionInstant,
    /// Optional `(index, count)` shard coordinates, applied to **every**
    /// cell's campaign — one correlation shard holds the same stride
    /// slice of every cell.
    pub shard: Option<(u32, u32)>,
}

impl CorrelationSpec {
    /// The paper's sweep: the six Table 1 benchmarks plus their excerpts,
    /// stuck-at-1 at IU nodes, first dataset.
    pub fn new() -> CorrelationSpec {
        let mut benchmarks = Benchmark::TABLE1_AUTOMOTIVE.to_vec();
        benchmarks.extend(Benchmark::TABLE1_SYNTHETIC);
        benchmarks.sort();
        CorrelationSpec {
            benchmarks,
            targets: vec![Target::IntegerUnit],
            kinds: vec![FaultKind::StuckAt1],
            datasets: DatasetSelection::First,
            include_excerpts: true,
            sample: None,
            injection: InjectionInstant::Cycle(0),
            shard: None,
        }
    }

    /// The sweep's workloads, in a deterministic order: benchmarks in
    /// spec order, datasets ascending, the full kernel before its
    /// excerpt.
    pub fn cells(&self) -> Vec<CorrelationCell> {
        let mut cells = Vec::new();
        for &benchmark in &self.benchmarks {
            for dataset in self.datasets.indices() {
                cells.push(CorrelationCell {
                    benchmark,
                    dataset,
                    excerpt: false,
                });
                if self.include_excerpts && benchmark.has_excerpt() {
                    cells.push(CorrelationCell {
                        benchmark,
                        dataset,
                        excerpt: true,
                    });
                }
            }
        }
        cells
    }

    /// The sweep's campaigns, cell-major (every target of a cell before
    /// the next cell). Job `j` is cell `j / targets.len()`, target
    /// `j % targets.len()` — shard results are indexed the same way.
    pub fn jobs(&self) -> Vec<(CorrelationCell, Target)> {
        let mut jobs = Vec::new();
        for cell in self.cells() {
            for &target in &self.targets {
                jobs.push((cell, target));
            }
        }
        jobs
    }

    /// Build one cell's campaign: the spec's kinds, sampling, injection
    /// instant and shard coordinates over the cell's program and the
    /// given domain.
    pub fn campaign(&self, cell: &CorrelationCell, target: Target) -> Campaign {
        let mut campaign = Campaign::new(cell.program(), target).with_kinds(&self.kinds);
        if let Some((n, seed)) = self.sample {
            campaign = campaign.with_sample(n, seed);
        }
        campaign = match self.injection {
            InjectionInstant::Cycle(c) => campaign.with_injection_cycle(c),
            InjectionInstant::Fraction(f) => campaign.with_injection_fraction(f),
        };
        if let Some((index, count)) = self.shard {
            campaign = campaign.with_shard(index, count);
        }
        campaign
    }

    /// Serialize as one canonical JSON object (absent options are
    /// omitted — the dialect has no `null`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str("{\"benchmarks\":[");
        for (i, benchmark) in self.benchmarks.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\"", benchmark.name());
        }
        s.push_str("],\"targets\":[");
        for (i, target) in self.targets.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\"", target_to_token(*target));
        }
        s.push_str("],\"kinds\":[");
        for (i, kind) in self.kinds.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\"", kind_to_token(*kind));
        }
        s.push(']');
        match &self.datasets {
            DatasetSelection::First => {}
            DatasetSelection::All => s.push_str(",\"datasets\":\"all\""),
            DatasetSelection::List(list) => {
                s.push_str(",\"datasets\":[");
                for (i, dataset) in list.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{dataset}");
                }
                s.push(']');
            }
        }
        if !self.include_excerpts {
            s.push_str(",\"excerpts\":false");
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
        if let Some((index, count)) = self.shard {
            let _ = write!(s, ",\"shard_index\":{index},\"shard_count\":{count}");
        }
        s.push('}');
        s
    }

    /// Parse a spec from its JSON text.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on syntax errors, unknown
    /// names, or inconsistent option pairs.
    pub fn parse(text: &str) -> Result<CorrelationSpec, String> {
        CorrelationSpec::from_obj(&Json::parse(text)?)
    }

    /// Parse a spec from an already-parsed object.
    ///
    /// # Errors
    ///
    /// As [`CorrelationSpec::parse`].
    pub fn from_obj(v: &Json) -> Result<CorrelationSpec, String> {
        let mut benchmarks = v
            .get_array("benchmarks")
            .ok_or("missing `benchmarks`")?
            .iter()
            .map(|item| {
                let name = item.as_str().ok_or("`benchmarks` items must be strings")?;
                Benchmark::by_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))
            })
            .collect::<Result<Vec<Benchmark>, String>>()?;
        benchmarks.sort();
        benchmarks.dedup();
        if benchmarks.is_empty() {
            return Err("`benchmarks` must not be empty".to_string());
        }
        let mut targets = v
            .get_array("targets")
            .ok_or("missing `targets`")?
            .iter()
            .map(|item| {
                let token = item.as_str().ok_or("`targets` items must be strings")?;
                target_from_token(token)
                    .ok_or_else(|| format!("unknown target `{token}` (iu, cmem or whole)"))
            })
            .collect::<Result<Vec<Target>, String>>()?;
        targets.sort_by_key(|t| target_order(*t));
        targets.dedup();
        if targets.is_empty() {
            return Err("`targets` must not be empty".to_string());
        }
        let kinds = match v.get_array("kinds") {
            None => vec![FaultKind::StuckAt1],
            Some(items) => items
                .iter()
                .map(|item| {
                    let token = item.as_str().ok_or("`kinds` items must be strings")?;
                    kind_from_token(token)
                })
                .collect::<Result<Vec<FaultKind>, String>>()?,
        };
        if kinds.is_empty() {
            return Err("`kinds` must not be empty".to_string());
        }
        let datasets = match v.get("datasets") {
            None => DatasetSelection::First,
            Some(Json::Str(word)) => match word.as_str() {
                "all" => DatasetSelection::All,
                "first" => DatasetSelection::First,
                other => return Err(format!("unknown dataset selection `{other}`")),
            },
            Some(Json::Array(items)) => {
                let mut list = items
                    .iter()
                    .map(|item| {
                        let dataset =
                            item.as_u64().ok_or("`datasets` items must be integers")? as usize;
                        if dataset >= DATASETS {
                            return Err(format!("dataset {dataset} out of range (0..{DATASETS})"));
                        }
                        Ok(dataset)
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
                list.sort_unstable();
                list.dedup();
                if list.is_empty() {
                    return Err("`datasets` must not be empty".to_string());
                }
                DatasetSelection::List(list)
            }
            Some(_) => return Err("`datasets` is \"all\", \"first\" or a list".to_string()),
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
        let shard = match (v.get_u64("shard_index"), v.get_u64("shard_count")) {
            (Some(i), Some(n)) => Some((i as u32, n as u32)),
            (None, None) => None,
            _ => return Err("`shard_index` and `shard_count` come together".to_string()),
        };
        Ok(CorrelationSpec {
            benchmarks,
            targets,
            kinds,
            datasets,
            include_excerpts: v.get_bool("excerpts").unwrap_or(true),
            sample,
            injection,
            shard,
        })
    }

    /// The sweep's public fingerprint: an FNV-1a hash of the canonical
    /// spec bytes with the shard coordinates cleared, so every shard of
    /// one sweep (and the unsharded run) shares it. The service's model
    /// cache keys on it.
    pub fn fingerprint(&self) -> String {
        let mut identity = self.clone();
        identity.shard = None;
        format!(
            "corr-{:016x}",
            fnv1a64(FNV_OFFSET, identity.to_json().as_bytes())
        )
    }

    /// The service's result-cache key: the fingerprint plus the shard
    /// coordinates (the unsharded sweep normalizes to `0/1`).
    pub fn cache_key(&self) -> String {
        let (index, count) = self.shard.unwrap_or((0, 1));
        format!("{}|shard={index}/{count}", self.fingerprint())
    }

    /// Run this spec's shard of every cell, measuring each cell's ISS
    /// diversity along the way. The unsharded spec produces the single
    /// shard `0/1`; pass the result (with its siblings) to
    /// [`merge_correlation_shards`] for the fitted report.
    ///
    /// # Errors
    ///
    /// Propagates the first cell campaign's [`CampaignError`].
    pub fn run(&self, threads: usize) -> Result<CorrelationShard, CampaignError> {
        // One golden capture per cell, shared across its domains — the
        // prepared workload depends on the program and platform config,
        // not on where faults go.
        let mut prepared: Option<(u64, PreparedWorkload)> = None;
        self.run_with(|campaign| {
            let workload = campaign.workload_hash();
            if prepared.as_ref().map(|(hash, _)| *hash) != Some(workload) {
                prepared = Some((workload, campaign.prepare()?));
            }
            let (_, golden) = prepared.as_ref().expect("prepared above");
            campaign.try_run_prepared(threads, golden)
        })
    }

    /// [`CorrelationSpec::run`] with the caller executing each cell
    /// campaign (cell-major, targets inner): a service routes them
    /// through its golden-run cache, a fleet runner through its journal.
    /// The shard is byte-identical whichever executor produced the
    /// campaign results.
    ///
    /// # Errors
    ///
    /// Propagates the first error `run` returns.
    pub fn run_with<E>(
        &self,
        mut run: impl FnMut(&Campaign) -> Result<CampaignResult, E>,
    ) -> Result<CorrelationShard, E> {
        let (index, count) = self.shard.unwrap_or((0, 1));
        let mut spec = self.clone();
        spec.shard = None;
        let cells = self.cells();
        let measurements = cells.iter().map(CorrelationCell::measure).collect();
        let mut results = Vec::new();
        for cell in &cells {
            for &target in &self.targets {
                let campaign = self.campaign(cell, target);
                let result = run(&campaign)?;
                results.push(ShardResult {
                    fingerprint: campaign.fingerprint(),
                    index,
                    count,
                    result,
                });
            }
        }
        Ok(CorrelationShard {
            spec,
            index,
            count,
            cells: measurements,
            results,
        })
    }

    /// Run the unsharded sweep end to end and fit the report.
    ///
    /// # Errors
    ///
    /// Fails on a sharded spec (run its shards individually and merge),
    /// a campaign error, or a degenerate fit.
    pub fn run_report(&self, threads: usize) -> Result<CorrelationReport, String> {
        if self.shard.is_some() {
            return Err("run_report takes the unsharded spec; run shards and merge".to_string());
        }
        let shard = self.run(threads).map_err(|e| e.to_string())?;
        merge_correlation_shards(vec![shard])
    }
}

impl Default for CorrelationSpec {
    fn default() -> CorrelationSpec {
        CorrelationSpec::new()
    }
}

/// A deterministic sort key for targets on the wire (`iu` before `cmem`
/// before `whole`).
fn target_order(target: Target) -> usize {
    match target {
        Target::IntegerUnit => 0,
        Target::CacheMemory => 1,
        Target::Whole => 2,
    }
}

/// One shard's worth of a correlation sweep: the spec (shard cleared),
/// this shard's coordinates, every cell's ISS measurement, and this
/// shard's slice of every cell campaign — one [`ShardResult`] per
/// [`CorrelationSpec::jobs`] entry, in job order.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationShard {
    /// The sweep (with `shard: None` — coordinates live below).
    pub spec: CorrelationSpec,
    /// Which shard this is (`0..count`).
    pub index: u32,
    /// How many shards the sweep was split into.
    pub count: u32,
    /// Every cell's ISS measurement (identical across shards).
    pub cells: Vec<CellMeasurement>,
    /// This shard's campaign results, in job order.
    pub results: Vec<ShardResult>,
}

impl CorrelationShard {
    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"spec\":{},\"shard_index\":{},\"shard_count\":{},\"cells\":[",
            self.spec.to_json(),
            self.index,
            self.count
        );
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            cell.write_json(&mut s);
        }
        s.push_str("],\"results\":[");
        for (i, result) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&result.to_json());
        }
        s.push_str("]}");
        s
    }

    /// Reconstruct from a parsed [`CorrelationShard::to_json`] object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<CorrelationShard, String> {
        Ok(CorrelationShard {
            spec: CorrelationSpec::from_obj(v.get("spec").ok_or("missing `spec`")?)?,
            index: v.get_u64("shard_index").ok_or("missing `shard_index`")? as u32,
            count: v.get_u64("shard_count").ok_or("missing `shard_count`")? as u32,
            cells: v
                .get_array("cells")
                .ok_or("missing `cells`")?
                .iter()
                .map(CellMeasurement::from_obj)
                .collect::<Result<Vec<CellMeasurement>, String>>()?,
            results: v
                .get_array("results")
                .ok_or("missing `results`")?
                .iter()
                .map(ShardResult::from_obj)
                .collect::<Result<Vec<ShardResult>, String>>()?,
        })
    }

    /// Parse a [`CorrelationShard::to_json`] string.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on syntax or schema errors.
    pub fn parse(text: &str) -> Result<CorrelationShard, String> {
        CorrelationShard::from_obj(&Json::parse(text)?)
    }
}

/// Recombine the shards of one correlation sweep and fit the report,
/// **bit-identically** to the unsharded run: every cell's campaign merges
/// through [`merge_shards`], so the per-cell `Pf` values — and therefore
/// the fitted coefficients — are exactly the unsharded ones.
///
/// # Errors
///
/// Refuses shards of different sweeps, inconsistent geometry, disagreeing
/// cell measurements, or a degenerate fit.
pub fn merge_correlation_shards(
    mut shards: Vec<CorrelationShard>,
) -> Result<CorrelationReport, String> {
    let Some(first) = shards.first() else {
        return Err("no shards to merge".to_string());
    };
    let spec = first.spec.clone();
    let fingerprint = spec.fingerprint();
    let count = first.count;
    let cells = first.cells.clone();
    let jobs = spec.jobs().len();
    if shards.len() != count as usize {
        return Err(format!(
            "sweep declares {count} shards, {} supplied",
            shards.len()
        ));
    }
    for s in &shards {
        if s.spec.fingerprint() != fingerprint {
            return Err(format!(
                "sweep mismatch: {} vs {fingerprint}",
                s.spec.fingerprint()
            ));
        }
        if s.count != count {
            return Err(format!("shard_count mismatch: {} vs {count}", s.count));
        }
    }
    for s in &shards {
        if s.cells != cells {
            return Err("cell measurements disagree between shards".to_string());
        }
        if s.results.len() != jobs {
            return Err(format!(
                "shard {} carries {} results, sweep has {jobs} jobs",
                s.index,
                s.results.len()
            ));
        }
    }
    shards.sort_by_key(|s| s.index);
    for (i, s) in shards.iter().enumerate() {
        if s.index != i as u32 {
            return Err(format!("missing or duplicate shard index {i}"));
        }
    }
    let mut merged = Vec::with_capacity(jobs);
    for j in 0..jobs {
        let slices: Vec<ShardResult> = shards.iter().map(|s| s.results[j].clone()).collect();
        merged.push(merge_shards(slices).map_err(|e| e.to_string())?.result);
    }
    fit_report(&spec, &cells, &merged)
}

/// Fit one report from per-cell measurements and merged per-job results.
fn fit_report(
    spec: &CorrelationSpec,
    cells: &[CellMeasurement],
    merged: &[CampaignResult],
) -> Result<CorrelationReport, String> {
    let mut domains = Vec::new();
    for (ti, &target) in spec.targets.iter().enumerate() {
        for &kind in &spec.kinds {
            let points: Vec<SweepPoint> = cells
                .iter()
                .enumerate()
                .map(|(ci, cell)| SweepPoint {
                    label: cell.label.clone(),
                    diversity: cell.diversity,
                    pf: merged[ci * spec.targets.len() + ti].pf(kind),
                })
                .collect();
            let calibration: Vec<CorrelationPoint> = points
                .iter()
                .map(|p| CorrelationPoint {
                    label: p.label.clone(),
                    diversity: p.diversity as f64,
                    pf: p.pf,
                })
                .collect();
            let model = FittedModel::fit(&calibration).map_err(|e| {
                format!(
                    "fit failed for {}/{}: {e:?}",
                    target_to_token(target),
                    kind_to_token(kind)
                )
            })?;
            domains.push(DomainFit {
                target,
                kind,
                model,
                points,
            });
        }
    }
    Ok(CorrelationReport {
        fingerprint: spec.fingerprint(),
        cells: cells.to_vec(),
        domains,
    })
}

/// One calibration point of a fitted domain.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The cell's label.
    pub label: String,
    /// The cell's instruction diversity.
    pub diversity: u64,
    /// The cell's measured failure probability in this domain.
    pub pf: f64,
}

/// One (injection domain, fault kind) slice of the sweep with its fitted
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainFit {
    /// The injection domain.
    pub target: Target,
    /// The fault model.
    pub kind: FaultKind,
    /// The calibrated `Pf = a·ln(D) + b` model.
    pub model: FittedModel,
    /// The calibration points, in cell order.
    pub points: Vec<SweepPoint>,
}

/// The fitted output of a correlation sweep: every domain's model plus
/// the measurements behind it. Canonically wire-serializable, so two
/// paths to the same sweep produce byte-identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationReport {
    /// The sweep's [`CorrelationSpec::fingerprint`].
    pub fingerprint: String,
    /// Every cell's ISS measurement (`D` and `D_m`), in cell order.
    pub cells: Vec<CellMeasurement>,
    /// One fit per (target, kind) pair, targets outer, kinds inner.
    pub domains: Vec<DomainFit>,
}

impl CorrelationReport {
    /// The fit for one (domain, kind) pair.
    pub fn domain(&self, target: Target, kind: FaultKind) -> Option<&DomainFit> {
        self.domains
            .iter()
            .find(|d| d.target == target && d.kind == kind)
    }

    /// The best-correlating domain (highest R²) — what the acceptance
    /// gate and the CLI summary report.
    pub fn best_domain(&self) -> &DomainFit {
        self.domains
            .iter()
            .max_by(|a, b| a.model.r2.total_cmp(&b.model.r2))
            .expect("a report has at least one domain")
    }

    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"fingerprint\":{},\"cells\":[",
            escape_json(&self.fingerprint)
        );
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            cell.write_json(&mut s);
        }
        s.push_str("],\"domains\":[");
        for (i, domain) in self.domains.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"target\":\"{}\",\"kind\":\"{}\",\"model\":{},\"points\":[",
                target_to_token(domain.target),
                kind_to_token(domain.kind),
                fitted_model_to_json(&domain.model)
            );
            for (j, point) in domain.points.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"label\":{},\"diversity\":{},\"pf\":{}}}",
                    escape_json(&point.label),
                    point.diversity,
                    point.pf
                );
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }

    /// Reconstruct from a parsed [`CorrelationReport::to_json`] object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing or mistyped field.
    pub fn from_obj(v: &Json) -> Result<CorrelationReport, String> {
        let domains = v
            .get_array("domains")
            .ok_or("missing `domains`")?
            .iter()
            .map(|d| {
                let target_token = d.get_str("target").ok_or("domain missing `target`")?;
                let target = target_from_token(target_token)
                    .ok_or_else(|| format!("unknown target `{target_token}`"))?;
                let kind = kind_from_token(d.get_str("kind").ok_or("domain missing `kind`")?)?;
                let model = fitted_model_from_obj(d.get("model").ok_or("domain missing `model`")?)?;
                let points = d
                    .get_array("points")
                    .ok_or("domain missing `points`")?
                    .iter()
                    .map(|p| {
                        Ok(SweepPoint {
                            label: p
                                .get_str("label")
                                .ok_or("point missing `label`")?
                                .to_string(),
                            diversity: p.get_u64("diversity").ok_or("point missing `diversity`")?,
                            pf: p.get_f64("pf").ok_or("point missing `pf`")?,
                        })
                    })
                    .collect::<Result<Vec<SweepPoint>, String>>()?;
                Ok(DomainFit {
                    target,
                    kind,
                    model,
                    points,
                })
            })
            .collect::<Result<Vec<DomainFit>, String>>()?;
        if domains.is_empty() {
            return Err("a report carries at least one domain".to_string());
        }
        Ok(CorrelationReport {
            fingerprint: v
                .get_str("fingerprint")
                .ok_or("missing `fingerprint`")?
                .to_string(),
            cells: v
                .get_array("cells")
                .ok_or("missing `cells`")?
                .iter()
                .map(CellMeasurement::from_obj)
                .collect::<Result<Vec<CellMeasurement>, String>>()?,
            domains,
        })
    }

    /// Parse a [`CorrelationReport::to_json`] string.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on syntax or schema errors.
    pub fn parse(text: &str) -> Result<CorrelationReport, String> {
        CorrelationReport::from_obj(&Json::parse(text)?)
    }
}

impl fmt::Display for CorrelationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for domain in &self.domains {
            writeln!(
                f,
                "{} @ {}: Pf = {:.4}·ln(D) {} {:.4}   (R² = {:.4}, n = {}, band ±{:.4})",
                kind_to_token(domain.kind),
                target_to_token(domain.target),
                domain.model.a,
                if domain.model.b < 0.0 { "-" } else { "+" },
                domain.model.b.abs(),
                domain.model.r2,
                domain.model.n,
                domain.model.band(),
            )?;
            for point in &domain.points {
                writeln!(
                    f,
                    "  {:>18}  D = {:>3}  Pf = {:.4}",
                    point.label, point.diversity, point.pf
                )?;
            }
        }
        Ok(())
    }
}

/// Serialize a [`FittedModel`] as one canonical JSON object.
pub fn fitted_model_to_json(model: &FittedModel) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"a\":{},\"b\":{},\"r2\":{},\"n\":{},\"residuals\":[",
        model.a, model.b, model.r2, model.n
    );
    for (i, r) in model.residuals.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{r}");
    }
    s.push_str("]}");
    s
}

/// Reconstruct a [`FittedModel`] from a parsed [`fitted_model_to_json`]
/// object, refusing non-finite coefficients (NaN would not even reparse).
///
/// # Errors
///
/// Fails with a human-readable reason on a missing, mistyped or
/// non-finite field.
pub fn fitted_model_from_obj(v: &Json) -> Result<FittedModel, String> {
    let num = |key: &str| {
        v.get_f64(key)
            .ok_or_else(|| format!("model missing numeric `{key}`"))
    };
    let residuals = v
        .get_array("residuals")
        .ok_or("model missing `residuals`")?
        .iter()
        .map(|r| match r {
            Json::Float(f) => Ok(*f),
            Json::Num(n) => Ok(*n as f64),
            _ => Err("`residuals` items must be numbers".to_string()),
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let model = FittedModel {
        a: num("a")?,
        b: num("b")?,
        r2: num("r2")?,
        n: v.get_u64("n").ok_or("model missing `n`")? as usize,
        residuals,
    };
    if !model.a.is_finite()
        || !model.b.is_finite()
        || !model.r2.is_finite()
        || model.residuals.iter().any(|r| !r.is_finite())
    {
        return Err("model coefficients must be finite".to_string());
    }
    Ok(model)
}

/// A prediction request: either a calibration-point label (`benchmark`)
/// or an opcode histogram straight off an ISS run; plus which cached
/// model to consult. Canonical JSON:
///
/// ```json
/// {"histogram":{"add":120,"bne":31},"target":"cmem","kind":"open-line"}
/// ```
///
/// `target`/`kind` default to the paper's Fig. 7 domain (`iu`,
/// `stuck-at-1`) and are omitted on the wire at their defaults;
/// `fingerprint` (absent: the service's most recent model) selects the
/// sweep to predict from.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// A calibration-point label to look up (e.g. `"rspeed"`).
    pub benchmark: Option<String>,
    /// An opcode histogram (mnemonic → executed count), held sorted by
    /// mnemonic. Diversity is its entry count.
    pub histogram: Option<Vec<(String, u64)>>,
    /// The injection domain to predict for.
    pub target: Target,
    /// The fault model to predict for.
    pub kind: FaultKind,
    /// Which cached sweep to consult (`None`: the most recent).
    pub fingerprint: Option<String>,
}

impl PredictRequest {
    /// A request predicting from an opcode histogram in the default
    /// (Fig. 7) domain.
    pub fn from_histogram(histogram: Vec<(String, u64)>) -> PredictRequest {
        PredictRequest {
            benchmark: None,
            histogram: Some(histogram),
            target: Target::IntegerUnit,
            kind: FaultKind::StuckAt1,
            fingerprint: None,
        }
    }

    /// A request predicting a calibration point by label in the default
    /// (Fig. 7) domain.
    pub fn from_benchmark(label: &str) -> PredictRequest {
        PredictRequest {
            benchmark: Some(label.to_string()),
            histogram: None,
            target: Target::IntegerUnit,
            kind: FaultKind::StuckAt1,
            fingerprint: None,
        }
    }

    /// The requested diversity: the histogram's entry count, or `None`
    /// for a label lookup (the model's stored point carries it).
    pub fn diversity(&self) -> Option<u64> {
        self.histogram.as_ref().map(|h| h.len() as u64)
    }

    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push('{');
        let mut first = true;
        if let Some(benchmark) = &self.benchmark {
            let _ = write!(s, "\"benchmark\":{}", escape_json(benchmark));
            first = false;
        }
        if let Some(histogram) = &self.histogram {
            if !first {
                s.push(',');
            }
            s.push_str("\"histogram\":{");
            for (i, (mnemonic, count)) in histogram.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{}:{count}", escape_json(mnemonic));
            }
            s.push('}');
            first = false;
        }
        if self.target != Target::IntegerUnit {
            if !first {
                s.push(',');
            }
            let _ = write!(s, "\"target\":\"{}\"", target_to_token(self.target));
            first = false;
        }
        if self.kind != FaultKind::StuckAt1 {
            if !first {
                s.push(',');
            }
            let _ = write!(s, "\"kind\":\"{}\"", kind_to_token(self.kind));
            first = false;
        }
        if let Some(fingerprint) = &self.fingerprint {
            if !first {
                s.push(',');
            }
            let _ = write!(s, "\"fingerprint\":{}", escape_json(fingerprint));
        }
        s.push('}');
        s
    }

    /// Parse a request from its JSON text.
    ///
    /// # Errors
    ///
    /// Fails on syntax errors, an unknown opcode mnemonic, a zero count,
    /// or a request carrying neither (or both of) `benchmark` and
    /// `histogram`.
    pub fn parse(text: &str) -> Result<PredictRequest, String> {
        PredictRequest::from_obj(&Json::parse(text)?)
    }

    /// Parse a request from an already-parsed object.
    ///
    /// # Errors
    ///
    /// As [`PredictRequest::parse`].
    pub fn from_obj(v: &Json) -> Result<PredictRequest, String> {
        let benchmark = v.get_str("benchmark").map(str::to_string);
        let histogram = match v.get("histogram") {
            None => None,
            Some(Json::Object(fields)) => {
                let mut entries = fields
                    .iter()
                    .map(|(mnemonic, count)| {
                        if !Opcode::ALL.iter().any(|op| op.mnemonic() == mnemonic) {
                            return Err(format!("unknown opcode mnemonic `{mnemonic}`"));
                        }
                        match count {
                            Json::Num(n) if *n > 0 => Ok((mnemonic.clone(), *n)),
                            Json::Num(_) => Err(format!("opcode `{mnemonic}` has a zero count")),
                            _ => Err(format!("count for `{mnemonic}` must be an integer")),
                        }
                    })
                    .collect::<Result<Vec<(String, u64)>, String>>()?;
                let before = entries.len();
                entries.sort();
                entries.dedup_by(|a, b| a.0 == b.0);
                if entries.len() != before {
                    return Err("duplicate opcode mnemonic in `histogram`".to_string());
                }
                if entries.is_empty() {
                    return Err("`histogram` must not be empty".to_string());
                }
                Some(entries)
            }
            Some(_) => return Err("`histogram` must be an object".to_string()),
        };
        match (&benchmark, &histogram) {
            (None, None) => return Err("give `benchmark` or `histogram`".to_string()),
            (Some(_), Some(_)) => {
                return Err("give `benchmark` or `histogram`, not both".to_string())
            }
            _ => {}
        }
        let target = match v.get_str("target") {
            None => Target::IntegerUnit,
            Some(token) => target_from_token(token)
                .ok_or_else(|| format!("unknown target `{token}` (iu, cmem or whole)"))?,
        };
        let kind = match v.get_str("kind") {
            None => FaultKind::StuckAt1,
            Some(token) => kind_from_token(token)?,
        };
        Ok(PredictRequest {
            benchmark,
            histogram,
            target,
            kind,
            fingerprint: v.get_str("fingerprint").map(str::to_string),
        })
    }
}

/// A served prediction: `Pf` with its honest residual band, plus the
/// provenance (which sweep, domain and diversity produced it).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The predicted failure probability, clamped to `[0, 1]`.
    pub pf: f64,
    /// The model's residual band: the prediction is `pf ± band`.
    pub band: f64,
    /// The diversity the prediction was evaluated at.
    pub diversity: u64,
    /// The sweep the model was fitted from.
    pub fingerprint: String,
    /// The injection domain.
    pub target: Target,
    /// The fault model.
    pub kind: FaultKind,
}

impl Prediction {
    /// Evaluate one domain's model at a diversity.
    pub fn evaluate(fingerprint: &str, domain: &DomainFit, diversity: u64) -> Prediction {
        Prediction {
            pf: domain.model.predict(diversity as f64),
            band: domain.model.band(),
            diversity,
            fingerprint: fingerprint.to_string(),
            target: domain.target,
            kind: domain.kind,
        }
    }

    /// Serialize as one canonical JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"pf\":{},\"band\":{},\"diversity\":{},\"fingerprint\":{},\"target\":\"{}\",\"kind\":\"{}\"}}",
            self.pf,
            self.band,
            self.diversity,
            escape_json(&self.fingerprint),
            target_to_token(self.target),
            kind_to_token(self.kind),
        )
    }

    /// Reconstruct from a parsed [`Prediction::to_json`] object.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on a missing, mistyped or
    /// non-finite field.
    pub fn from_obj(v: &Json) -> Result<Prediction, String> {
        let pf = v.get_f64("pf").ok_or("missing `pf`")?;
        let band = v.get_f64("band").ok_or("missing `band`")?;
        if !pf.is_finite() || !band.is_finite() {
            return Err("prediction must be finite".to_string());
        }
        let target_token = v.get_str("target").ok_or("missing `target`")?;
        Ok(Prediction {
            pf,
            band,
            diversity: v.get_u64("diversity").ok_or("missing `diversity`")?,
            fingerprint: v
                .get_str("fingerprint")
                .ok_or("missing `fingerprint`")?
                .to_string(),
            target: target_from_token(target_token)
                .ok_or_else(|| format!("unknown target `{target_token}`"))?,
            kind: kind_from_token(v.get_str("kind").ok_or("missing `kind`")?)?,
        })
    }

    /// Parse a [`Prediction::to_json`] string.
    ///
    /// # Errors
    ///
    /// Fails with a human-readable reason on syntax or schema errors.
    pub fn parse(text: &str) -> Result<Prediction, String> {
        Prediction::from_obj(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_covers_the_paper_sweep() {
        let spec = CorrelationSpec::new();
        assert_eq!(spec.benchmarks.len(), 6);
        // 6 full kernels + 2 excerpts (ttsprk and rspeed are the Table 1
        // benchmarks with excerpt variants).
        let cells = spec.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells.iter().filter(|c| c.excerpt).count(), 2);
        assert_eq!(spec.jobs().len(), cells.len());
    }

    #[test]
    fn spec_round_trips_canonically() {
        let mut spec = CorrelationSpec::new();
        spec.benchmarks = vec![Benchmark::Rspeed, Benchmark::Intbench];
        spec.targets = vec![Target::IntegerUnit, Target::CacheMemory];
        spec.kinds = vec![FaultKind::StuckAt1, FaultKind::OpenLine];
        spec.datasets = DatasetSelection::List(vec![0, 2]);
        spec.include_excerpts = false;
        spec.sample = Some((24, 7));
        spec.injection = InjectionInstant::Fraction(0.3);
        spec.shard = Some((1, 2));
        // Canonical order: benchmarks sort into suite order.
        spec.benchmarks.sort();
        let parsed = CorrelationSpec::parse(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json(), spec.to_json());
    }

    #[test]
    fn minimal_spec_defaults() {
        let spec = CorrelationSpec::parse(r#"{"benchmarks":["rspeed"],"targets":["iu"]}"#).unwrap();
        assert_eq!(spec.kinds, vec![FaultKind::StuckAt1]);
        assert_eq!(spec.datasets, DatasetSelection::First);
        assert!(spec.include_excerpts);
        assert_eq!(spec.injection, InjectionInstant::Cycle(0));
        assert_eq!(spec.shard, None);
        // Defaults stay off the wire.
        assert!(!spec.to_json().contains("datasets"));
        assert!(!spec.to_json().contains("excerpts"));
    }

    #[test]
    fn dataset_selections_shape_the_cells() {
        let mut spec = CorrelationSpec::new();
        spec.benchmarks = vec![Benchmark::Rspeed];
        spec.include_excerpts = false;
        assert_eq!(spec.cells().len(), 1);
        spec.datasets = DatasetSelection::All;
        assert_eq!(spec.cells().len(), DATASETS);
        spec.datasets = DatasetSelection::List(vec![0, 2]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].label(), "rspeed");
        assert_eq!(cells[1].label(), "rspeed@2");
        spec.include_excerpts = true;
        assert_eq!(spec.cells().len(), 4, "rspeed has an excerpt per dataset");
        assert_eq!(spec.cells()[1].label(), "rspeed-excerpt");
    }

    #[test]
    fn shard_is_outside_the_fingerprint_but_inside_the_cache_key() {
        let mut a = CorrelationSpec::new();
        a.sample = Some((8, 3));
        let mut b = a.clone();
        b.shard = Some((1, 2));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.cache_key(), b.cache_key());
        let mut c = a.clone();
        c.datasets = DatasetSelection::All;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn inconsistent_specs_are_refused() {
        for bad in [
            r#"{"targets":["iu"]}"#,
            r#"{"benchmarks":[],"targets":["iu"]}"#,
            r#"{"benchmarks":["nope"],"targets":["iu"]}"#,
            r#"{"benchmarks":["rspeed"],"targets":[]}"#,
            r#"{"benchmarks":["rspeed"],"targets":["alu"]}"#,
            r#"{"benchmarks":["rspeed"],"targets":["iu"],"kinds":[]}"#,
            r#"{"benchmarks":["rspeed"],"targets":["iu"],"kinds":["bitrot"]}"#,
            r#"{"benchmarks":["rspeed"],"targets":["iu"],"datasets":"some"}"#,
            r#"{"benchmarks":["rspeed"],"targets":["iu"],"datasets":[3]}"#,
            r#"{"benchmarks":["rspeed"],"targets":["iu"],"datasets":[]}"#,
            r#"{"benchmarks":["rspeed"],"targets":["iu"],"sample":10}"#,
            r#"{"benchmarks":["rspeed"],"targets":["iu"],"shard_index":0}"#,
        ] {
            assert!(CorrelationSpec::parse(bad).is_err(), "{bad}");
        }
    }

    fn sample_model() -> FittedModel {
        FittedModel {
            a: 0.0838,
            b: -0.0191,
            r2: 0.9246,
            n: 3,
            residuals: vec![0.01, -0.02, 0.0],
        }
    }

    #[test]
    fn fitted_model_round_trips_with_negative_coefficients() {
        let model = sample_model();
        let text = fitted_model_to_json(&model);
        assert!(text.contains("\"b\":-0.0191"));
        let back = fitted_model_from_obj(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, model);
        assert_eq!(fitted_model_to_json(&back), text);
    }

    #[test]
    fn report_round_trips() {
        let report = CorrelationReport {
            fingerprint: "corr-0123456789abcdef".to_string(),
            cells: vec![CellMeasurement {
                label: "rspeed".to_string(),
                diversity: 44,
                unit_diversity: vec![("fetch".to_string(), 44), ("alu-add".to_string(), 7)],
            }],
            domains: vec![DomainFit {
                target: Target::IntegerUnit,
                kind: FaultKind::StuckAt1,
                model: sample_model(),
                points: vec![SweepPoint {
                    label: "rspeed".to_string(),
                    diversity: 44,
                    pf: 0.28,
                }],
            }],
        };
        let text = report.to_json();
        let back = CorrelationReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
        assert_eq!(
            report
                .domain(Target::IntegerUnit, FaultKind::StuckAt1)
                .unwrap()
                .model
                .n,
            3
        );
        assert!(report
            .domain(Target::CacheMemory, FaultKind::StuckAt1)
            .is_none());
    }

    #[test]
    fn predict_messages_round_trip_and_validate() {
        let request =
            PredictRequest::from_histogram(vec![("add".to_string(), 120), ("bne".to_string(), 31)]);
        let text = request.to_json();
        assert_eq!(text, r#"{"histogram":{"add":120,"bne":31}}"#);
        assert_eq!(PredictRequest::parse(&text).unwrap(), request);
        let by_name = PredictRequest::from_benchmark("rspeed");
        assert_eq!(PredictRequest::parse(&by_name.to_json()).unwrap(), by_name);
        assert_eq!(request.diversity(), Some(2));
        assert_eq!(by_name.diversity(), None);
        for bad in [
            "{}",
            r#"{"benchmark":"rspeed","histogram":{"add":1}}"#,
            r#"{"histogram":{"frobnicate":1}}"#,
            r#"{"histogram":{"add":0}}"#,
            r#"{"histogram":{}}"#,
            r#"{"histogram":{"add":1},"target":"alu"}"#,
        ] {
            assert!(PredictRequest::parse(bad).is_err(), "{bad}");
        }
        let prediction = Prediction {
            pf: 0.29,
            band: 0.02,
            diversity: 40,
            fingerprint: "corr-aa".to_string(),
            target: Target::IntegerUnit,
            kind: FaultKind::StuckAt1,
        };
        assert_eq!(
            Prediction::parse(&prediction.to_json()).unwrap(),
            prediction
        );
    }

    #[test]
    fn merge_refuses_mismatched_sweeps() {
        let spec = {
            let mut s = CorrelationSpec::new();
            s.benchmarks = vec![Benchmark::Intbench];
            s.include_excerpts = false;
            s.sample = Some((2, 1));
            s
        };
        let shard = CorrelationShard {
            spec: spec.clone(),
            index: 0,
            count: 2,
            cells: vec![],
            results: vec![],
        };
        assert!(merge_correlation_shards(vec![]).is_err());
        // One shard of a two-shard sweep.
        assert!(merge_correlation_shards(vec![shard.clone()])
            .unwrap_err()
            .contains("2 shards"));
        let mut other = shard.clone();
        other.index = 1;
        other.spec.sample = Some((4, 1));
        assert!(merge_correlation_shards(vec![shard, other])
            .unwrap_err()
            .contains("sweep mismatch"));
    }
}
