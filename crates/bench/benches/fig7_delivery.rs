//! Per-figure bench: the Fig. 7 delivery-rate-vs-pause scenario at reduced
//! scale, asserting the figure's invariant (high delivery for every
//! protocol).  `experiments --fig 7` regenerates the
//! full-scale rows.

use criterion::{criterion_group, criterion_main, Criterion};
use ecgrid_bench::bench_scenario;
use runner::{run_scenario, ProtocolKind};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_delivery");
    g.sample_size(10);
    for p in ProtocolKind::ALL {
        g.bench_function(p.name(), |b| {
            b.iter(|| {
                let r = run_scenario(&bench_scenario(p, 42));
                let pdr = r.pdr.unwrap_or(0.0);
                assert!(pdr > 0.5, "{} pdr {pdr}", p.name());
                pdr
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
