//! Per-figure bench: the Fig. 5 energy (aen) scenario at reduced scale —
//! checks the invariant the figure plots (aen(GRID) > aen(ECGRID)) on
//! every iteration.  `experiments --fig 5` regenerates
//! the full-scale figure rows.

use criterion::{criterion_group, criterion_main, Criterion};
use ecgrid_bench::bench_scenario;
use runner::{run_scenario, ProtocolKind};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_energy");
    g.sample_size(10);
    g.bench_function("grid_vs_ecgrid_aen", |b| {
        b.iter(|| {
            let grid = run_scenario(&bench_scenario(ProtocolKind::Grid, 42));
            let ec = run_scenario(&bench_scenario(ProtocolKind::Ecgrid, 42));
            let (g_aen, e_aen) = (grid.aen.last_value().unwrap(), ec.aen.last_value().unwrap());
            assert!(g_aen > e_aen, "GRID must out-consume ECGRID: {g_aen} vs {e_aen}");
            g_aen - e_aen
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
