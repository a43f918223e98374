//! The iu-transient-dense sweep: rspeed with IU faults over a 48-instant
//! injection grid × {transient flip, intermittent stuck, transient
//! burst}, checkpoint stride golden/4, static analysis on, write-ahead
//! journaled through `Campaign::run_multi_journaled` on `nproc` threads.
//! More instants than the 32-slot checkpoint pool keeps restore, replay
//! and journal append on the blocking path.
//!
//! It is not a workload of its own: its end-to-end figures moved with
//! host speed past the 0.25 bounds (ten-run quartile spreads up to 0.29
//! within a few minutes). Iss-predict's traced run decomposes one sweep
//! after its window and reports the sweep's per-layer metrics.
//!
//! The sweep injects one bit of each of twelve nets: the first net of
//! each twelfth of the IU net list. These sites are the same for every
//! seed. Site cost is heavy tailed: in a probe of 64 sites, 7 took 60%
//! of the time, each 7-20x a typical site (live register-file nets whose
//! faults stay masked and run every job to the end). The seed moves the
//! injection grid's phase and the intermittent and burst schedules, which
//! changes every record but not which nets are hot.
//!
//! Oracle: the same sweep unjournaled (`try_run_multi`) must give
//! identical records and stats, the journal must read back to the same
//! records, and a seeded job re-simulated from reset
//! (`Execution::FullReexecution`) must give the same record.

use crate::layers;
use crate::report::Outcome;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{derive, Run};
use analysis::SplitMix64;
use fault_inject::journal;
use fault_inject::wire::result_to_json;
use fault_inject::{
    fault_sites, Campaign, CampaignResult, CampaignStats, Execution, FaultSite, GoldenRun,
    InjectionInstant, ShardResult, StaticAnalysis, Target,
};
use leon3_model::{Leon3, Leon3Config};
use rtl_sim::FaultKind;
use sparc_asm::Program;
use std::path::Path;
use std::time::Instant;
use workloads::{Benchmark, Params};

const INSTANTS: usize = 48;
/// IU sites per campaign.
const SITES: usize = 12;

/// The three time-varying fault models, with seeded schedules.
pub fn kinds(seed: u64) -> [FaultKind; 3] {
    [
        FaultKind::TransientFlip,
        FaultKind::IntermittentStuck {
            level: true,
            period: 8,
            duty: 2,
            phase: derive(seed, 4) % 8,
        },
        FaultKind::TransientBurst {
            flips: 3,
            spacing: 3 + derive(seed, 5) % 5,
        },
    ]
}

/// The 48-instant grid, shifted by a seeded phase of up to one step.
pub fn instants(seed: u64) -> Vec<InjectionInstant> {
    let phase = (derive(seed, 6) % 1024) as f64 / 1024.0;
    (0..INSTANTS)
        .map(|i| InjectionInstant::Fraction((i as f64 + phase) / INSTANTS as f64))
        .collect()
}

/// The sites of campaign `k`: from each twelfth of the net list, its
/// `k`-th net (wrapping), at a fixed pseudo-random bit.
pub fn sites(universe: &[FaultSite], k: u64) -> Vec<FaultSite> {
    let nets: Vec<&[FaultSite]> = universe.chunk_by(|a, b| a.net == b.net).collect();
    let slice = nets.len() / SITES;
    (0..SITES)
        .map(|j| {
            let bits = nets[j * slice + (k % slice as u64) as usize];
            bits[(derive(0x51735, (k << 8) | j as u64) % bits.len() as u64) as usize]
        })
        .collect()
}

/// A campaign of the workload's fixed shape over the given sites.
fn campaign(program: &Program, golden: &GoldenRun, seed: u64, sites: Vec<FaultSite>) -> Campaign {
    Campaign::new(program.clone(), Target::IntegerUnit)
        .with_sites(sites)
        .with_kinds(&kinds(seed))
        .with_checkpoint_stride(golden.cycles / 4)
        .with_static_analysis(true)
}

/// Canonical bytes of a sweep's per-instant results.
fn canonical(results: &[CampaignResult]) -> Vec<String> {
    results.iter().map(result_to_json).collect()
}

/// The oracle comparison for one sweep: `reference` is the unjournaled
/// run, `journal` the measured run's write-ahead journal.
pub fn check_sweep(
    measured: &[CampaignResult],
    reference: &[CampaignResult],
    journal: Option<&Path>,
) -> Result<(), String> {
    if measured.len() != reference.len() {
        return Err(format!(
            "{} instants measured, {} expected",
            measured.len(),
            reference.len()
        ));
    }
    let (m, r) = (canonical(measured), canonical(reference));
    if let Some(i) = (0..m.len()).find(|&i| m[i] != r[i]) {
        return Err(format!(
            "instant {i}: journaled sweep differs from unjournaled"
        ));
    }
    if let Some(path) = journal {
        let (_, entries, torn) = journal::read(path).map_err(|e| e.to_string())?;
        // Entries are in completion order; compare as multisets.
        let mut returned: Vec<String> = measured
            .iter()
            .flat_map(CampaignResult::records)
            .map(|r| format!("{r:?}"))
            .collect();
        let mut journaled: Vec<String> =
            entries.iter().map(|e| format!("{:?}", e.record)).collect();
        returned.sort();
        journaled.sort();
        if torn || returned != journaled {
            return Err(format!(
                "journal ({} entries) differs from the {} returned records",
                journaled.len(),
                returned.len()
            ));
        }
    }
    Ok(())
}

/// Re-simulate one seeded (site, kind, instant) job from reset and
/// compare its record with the sweep's.
fn spot_check(
    campaign: &Campaign,
    instants: &[InjectionInstant],
    measured: &[CampaignResult],
    rng: &mut SplitMix64,
) -> Result<(), String> {
    let i = rng.gen_range(instants.len() as u64) as usize;
    let records = measured[i].records();
    let record = &records[rng.gen_range(records.len() as u64) as usize];
    let full = campaign
        .clone()
        .with_sites(vec![record.site])
        .with_kinds(&[record.kind])
        .with_execution(Execution::FullReexecution)
        .try_run_multi(1, &instants[i..=i])
        .map_err(|e| e.to_string())?;
    match full[0].records() {
        [only] if only == record => Ok(()),
        other => Err(format!(
            "instant {i}: fork record {record:?} but full re-execution gives {other:?}"
        )),
    }
}

/// One sweep through its public pieces, for iss-predict's traced run:
/// golden run, static analysis, the sweep journaled and unjournaled, its
/// exact counts, snapshot/restore at its checkpoint instants, `NetPool`
/// calls, wire form, journal appends and the stride-grid question.
pub fn traced_sweep(outcome: &mut Outcome, tracer: &mut Tracer, run: &Run) {
    let threads = crate::nproc();
    let config = Leon3Config::default();
    let program = tracer.span("workloads", "program", |_| {
        Benchmark::Rspeed.program(&Params::default())
    });
    let golden = tracer.span("fault", "golden", |_| GoldenRun::capture(&program, &config));
    let universe = tracer.span("fault", "sites", |_| {
        fault_sites(&Leon3::new(config.clone()), Target::IntegerUnit)
    });
    let c0 = campaign(&program, &golden, run.seed, sites(&universe, 0));
    let instants = instants(run.seed);
    let dir = run.scratch_dir("iu");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let journal_path = dir.join("sweep.jsonl");

    // The sweep journaled and unjournaled, in both orders, so
    // `fault.journal_share` carries no run-order bias.
    let (mut journaled_s, mut unjournaled_s) = (0.0, 0.0);
    let (mut measured, mut reference) = (Vec::new(), Vec::new());
    for journaled in [true, false, false, true] {
        let t = Instant::now();
        if journaled {
            measured.push(tracer.span("fault", "run_multi_journaled", |_| {
                c0.run_multi_journaled(threads, &instants, &journal_path)
            }));
            journaled_s += t.elapsed().as_secs_f64();
        } else {
            reference.push(tracer.span("fault", "run_multi", |_| {
                c0.try_run_multi(threads, &instants)
            }));
            unjournaled_s += t.elapsed().as_secs_f64();
        }
    }
    outcome.exact("fault.journal_share", journaled_s / unjournaled_s);
    let mut rng = SplitMix64::new(derive(run.seed, 3));
    let mut results0 = None;
    for (m, r) in measured.into_iter().zip(reference) {
        let verdict = m
            .map_err(|e| e.to_string())
            .and_then(|m| Ok((m, r.map_err(|e| e.to_string())?)))
            .and_then(|(m, r)| {
                check_sweep(&m, &r, Some(&journal_path))?;
                spot_check(&c0, &instants, &m, &mut rng)?;
                Ok(m)
            });
        match verdict {
            Ok(m) => {
                outcome.check(Ok(()));
                results0 = Some(m);
            }
            Err(e) => outcome.check(Err(format!("iu-transient-dense sweep: {e}"))),
        }
    }
    let Some(results0) = results0 else { return };
    let mut stats = CampaignStats::default();
    for r in &results0 {
        stats.merge(r.stats());
    }
    // Exact counts, identical for a seed.
    layers::put_campaign_counts(outcome, &stats);

    let t0 = Instant::now();
    let prepared = tracer.span("fault", "golden", |_| c0.prepare().expect("prepare"));
    let golden_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    tracer.span("fault", "static", |_| StaticAnalysis::for_config(&config));
    let static_ms = t1.elapsed().as_secs_f64() * 1e3;
    drop(prepared);
    let t2 = Instant::now();
    let fork = tracer.span("fault", "run_multi", |_| {
        c0.try_run_multi(threads, &instants).expect("sweep")
    });
    let run_ms = t2.elapsed().as_secs_f64() * 1e3;
    outcome.exact("fault.golden_ms", golden_ms);
    outcome.exact("fault.static_ms", static_ms);
    outcome.exact("fault.jobs_ms", run_ms - golden_ms - static_ms);
    assert_eq!(
        canonical(&fork),
        canonical(&results0),
        "deterministic sweep"
    );

    // The sweep's own checkpoint instants: the stride grid.
    let stride = golden.cycles / 4;
    let grid: Vec<u64> = (1..4).map(|i| i * stride).collect();
    layers::leon3_snapshots(outcome, tracer, &program, &config, &grid);
    layers::netpool(outcome, tracer, &config);
    let shards: Vec<ShardResult> = results0
        .iter()
        .map(|result| layers::unsharded(&c0, result.clone()))
        .collect();
    layers::wire(outcome, tracer, &shards);
    let append_us = layers::journal_append_us(tracer, &journal_path, &dir);
    outcome.exact("fault.journal_append_us", append_us);

    // The same sweep with and without the stride grid, alternated three
    // times: BENCH_checkpoint.json read 1.11x (fork over full) at density
    // 48 / stride golden/4 against 2.1-2.2x for its neighbours, i.e. a
    // stride-4 sweep taking about twice as long as a stride-0 one.
    let plain = Campaign::new(program.clone(), Target::IntegerUnit)
        .with_sites(c0.sites())
        .with_kinds(&kinds(run.seed))
        .with_static_analysis(true);
    let ratios: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            tracer.span("fault", "sweep_stride4", |_| {
                c0.try_run_multi(threads, &instants)
                    .expect("stride-4 sweep")
            });
            let stride4 = t.elapsed().as_secs_f64();
            let t = Instant::now();
            tracer.span("fault", "sweep_stride0", |_| {
                plain
                    .try_run_multi(threads, &instants)
                    .expect("stride-0 sweep")
            });
            stride4 / t.elapsed().as_secs_f64()
        })
        .collect();
    outcome.put("fault.stride4_time_ratio", Summary::of(&ratios));
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_inject::FaultOutcome;

    #[test]
    fn oracle_rejects_one_flipped_record() {
        let program = Benchmark::Intbench.program(&Params::default());
        let golden = GoldenRun::capture(&program, &Leon3Config::default());
        let universe = fault_sites(&Leon3::new(Leon3Config::default()), Target::IntegerUnit);
        let c = campaign(&program, &golden, 7, sites(&universe, 0)[..2].to_vec());
        let instants = &instants(7)[..3];
        let measured = c.try_run_multi(1, instants).expect("sweep");
        let reference = c.try_run_multi(2, instants).expect("sweep");
        let mut outcome = Outcome::default();
        outcome.check(check_sweep(&measured, &reference, None));
        let mut records = measured[1].records().to_vec();
        records[0].outcome = match records[0].outcome {
            FaultOutcome::NoEffect => FaultOutcome::Failure {
                divergence: 0,
                latency_cycles: 1,
            },
            _ => FaultOutcome::NoEffect,
        };
        let mut corrupted = measured.clone();
        corrupted[1] = CampaignResult::with_stats(records, *measured[1].stats());
        outcome.check(check_sweep(&corrupted, &reference, None));
        assert_eq!((outcome.attempted, outcome.failed), (2, 1));
    }
}
