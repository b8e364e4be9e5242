//! Per-figure bench: the Fig. 6 latency-vs-pause scenario at reduced
//! scale.  `experiments --fig 6` regenerates the figure.

use criterion::{criterion_group, criterion_main, Criterion};
use ecgrid_bench::bench_scenario;
use runner::{run_scenario, ProtocolKind, Scenario};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_latency");
    g.sample_size(10);
    for pause in [0.0, 300.0] {
        g.bench_function(format!("ecgrid_pause{pause}"), |b| {
            b.iter(|| {
                let sc = Scenario {
                    pause_secs: pause,
                    ..bench_scenario(ProtocolKind::Ecgrid, 42)
                };
                let r = run_scenario(&sc);
                let lat = r.latency_ms.expect("packets must be delivered");
                assert!(lat < 100.0, "latency {lat} ms");
                lat
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
