//! The simulation-time experiment's core measurement: instructions per
//! second of the ISS, the fast RTL model and the faithful-clocking RTL
//! model (which pays an event-driven simulator's per-cycle evaluation
//! load).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use leon3_model::{Leon3, Leon3Config};
use sparc_iss::{Iss, IssConfig};
use std::hint::black_box;
use workloads::{profile, Benchmark, Params};

fn bench(c: &mut Criterion) {
    let program = Benchmark::Intbench.program(&Params::default());
    // Pre-measure instruction count for throughput scaling.
    let insns = profile(&program).instructions;

    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(insns));

    group.bench_function("iss", |b| {
        b.iter(|| {
            let mut iss = Iss::new(IssConfig::default());
            iss.load(black_box(&program));
            black_box(iss.run(10_000_000))
        });
    });
    group.bench_function("rtl_fast", |b| {
        b.iter(|| {
            let mut rtl = Leon3::new(Leon3Config::default());
            rtl.load(black_box(&program));
            black_box(rtl.run(10_000_000))
        });
    });
    group.bench_function("rtl_faithful", |b| {
        b.iter(|| {
            let mut rtl = Leon3::new(Leon3Config {
                faithful_clocking: true,
                ..Leon3Config::default()
            });
            rtl.load(black_box(&program));
            black_box(rtl.run(10_000_000))
        });
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
