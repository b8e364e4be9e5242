//! Per-figure bench: the Fig. 8 density sweep at reduced scale — scaling
//! of simulation cost with host count.  `experiments --fig 8` regenerates
//! the full-scale rows.

use criterion::{criterion_group, criterion_main, Criterion};
use ecgrid_bench::bench_scenario;
use runner::{run_scenario, ProtocolKind, Scenario};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_density");
    g.sample_size(10);
    for n in [25usize, 50, 100] {
        g.bench_function(format!("ecgrid_{n}_hosts"), |b| {
            b.iter(|| {
                let sc = Scenario {
                    n_hosts: n,
                    ..bench_scenario(ProtocolKind::Ecgrid, 42)
                };
                let r = run_scenario(&sc);
                r.alive.last_value()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
