//! The paper's end use case: calibrate the diversity model on a set of
//! workloads with RTL campaigns once, then predict the fault-to-failure
//! probability of *new* software from ISS-only information — no RTL
//! simulation needed.
//!
//! We calibrate on five benchmarks plus the excerpts and hold out `canrdr`
//! for validation.
//!
//! ```text
//! cargo run --release --example diversity_predictor [sample]
//! ```

use fault_inject::{Campaign, DomainFit, SweepPoint, Target};
use rtl_sim::FaultKind;
use sparc_asm::Program;
use workloads::{profile, Benchmark, Params};

/// Stuck-at-1 Pf at IU nodes, measured by an RTL campaign.
fn rtl_pf(program: Program, sample: usize, threads: usize) -> f64 {
    Campaign::new(program, Target::IntegerUnit)
        .with_kinds(&[FaultKind::StuckAt1])
        .with_sample(sample, 0xCA11B)
        .run(threads)
        .pf(FaultKind::StuckAt1)
}

/// One calibration point: the ISS-measured diversity and the RTL Pf.
fn calibrate(label: String, program: Program, sample: usize, threads: usize) -> SweepPoint {
    SweepPoint {
        label,
        diversity: profile(&program).diversity() as u64,
        pf: rtl_pf(program, sample, threads),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sample: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let calibration_set = [
        Benchmark::Puwmod,
        Benchmark::Ttsprk,
        Benchmark::Rspeed,
        Benchmark::Membench,
        Benchmark::Intbench,
    ];
    let held_out = Benchmark::Canrdr;

    println!(
        "calibrating on {} workloads plus 6 excerpts ({sample} sites each)…",
        calibration_set.len()
    );
    let mut points: Vec<SweepPoint> = calibration_set
        .iter()
        .map(|b| {
            calibrate(
                b.to_string(),
                b.program(&Params::default()),
                sample,
                threads,
            )
        })
        .collect();
    // Excerpts widen the diversity range at the low end.
    points.extend(
        Benchmark::EXCERPT_SUBSET_A
            .iter()
            .chain(&Benchmark::EXCERPT_SUBSET_B)
            .map(|b| calibrate(format!("{b}-excerpt"), b.excerpt(0), sample, threads)),
    );
    let fit = DomainFit::fit(Target::IntegerUnit, FaultKind::StuckAt1, points)?;
    print!("\ncalibrated model: {fit}");

    // Predict the held-out workload from the ISS alone…
    let program = held_out.program(&Params::default());
    let d = profile(&program).diversity();
    let predicted = fit.model.predict(d as f64);
    // …then verify against an actual RTL campaign.
    let measured = rtl_pf(program, sample, threads);
    println!(
        "\nheld-out {held_out}: D = {d}, predicted Pf = {:.2}% ± {:.2} pp, \
         RTL-measured Pf = {:.2}% ({:+.2} pp)",
        predicted * 100.0,
        fit.model.band() * 100.0,
        measured * 100.0,
        (predicted - measured) * 100.0
    );
    Ok(())
}
