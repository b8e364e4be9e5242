//! Per-figure bench: the Fig. 4 lifetime scenario (alive-fraction curve)
//! at reduced scale — measures the cost of regenerating one curve point
//! set per protocol.  `experiments --fig 4` regenerates
//! the full-scale figure rows.

use criterion::{criterion_group, criterion_main, Criterion};
use ecgrid_bench::bench_scenario;
use runner::{run_scenario, ProtocolKind};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_lifetime");
    g.sample_size(10);
    for p in ProtocolKind::ALL {
        g.bench_function(p.name(), |b| {
            b.iter(|| {
                let r = run_scenario(&bench_scenario(p, 42));
                assert!(!r.alive.is_empty());
                r.alive.last_value()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
