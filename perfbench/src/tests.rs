//! Cross-module tests: `BENCHMARK.json` against the driver's contract and
//! against what the binary emits, the scenario file, and a smoke pass of
//! all four workloads at toy sizes.

use crate::bench::{self, Settings, DEFAULT_SEED};
use crate::json::{self, Value};
use crate::report::{self, Declaration, DECLARATION};
use crate::span::{self_times, Tracer};
use crate::workloads::{self, hetero_mobile::SCN};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn name_ok(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

#[test]
fn declaration_meets_the_drivers_contract() {
    assert!(DECLARATION.len() <= 64 * 1024);
    let v = json::parse(DECLARATION).unwrap();
    assert_eq!(
        keys(&v),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let strings = |key: &str| -> Vec<&str> {
        v.get(key)
            .unwrap()
            .as_arr()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect()
    };
    let command = strings("command");
    assert!(!command.is_empty() && command.len() <= 32 && command.iter().all(|s| s.len() <= 200));
    assert!(command.iter().all(|s| !s.starts_with('/') && !s.contains("..")));
    assert_eq!(strings("paths"), ["perfbench"]);
    let run_seconds = v.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));

    let mut names = BTreeSet::new();
    let workloads = v.get("workloads").unwrap().as_arr();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let (name, why) = (
            w.get("name").unwrap().as_str().unwrap(),
            w.get("why").unwrap().as_str().unwrap(),
        );
        assert!(name_ok(name) && names.insert(name), "{name}");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{name}: why"
        );
    }
    let end_to_end = v.get("end_to_end").unwrap().as_arr();
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let per_layer = v.get("per_layer").unwrap().as_arr();
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["better", "name", "unit"]);
    }
    for m in end_to_end.iter().chain(per_layer) {
        let name = m.get("name").unwrap().as_str().unwrap();
        assert!(name_ok(name) && names.insert(name), "{name}");
        assert!(unit_ok(m.get("unit").unwrap().as_str().unwrap()), "{name}: unit");
        assert!(
            matches!(m.get("better").unwrap().as_str(), Some("lower" | "higher")),
            "{name}"
        );
    }
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").unwrap().as_str() == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
    let largest = end_to_end
        .iter()
        .map(|m| m.get("bound").unwrap().as_f64().unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").unwrap().as_f64(), Some(largest));

    // 4 + 22 x workloads runs, each the timed pass plus about ten seconds
    // of setup and verification, and two builds: inside the 3420 s budget
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(runs * (run_seconds + 10.0) + 2.0 * 120.0 <= 3420.0);
}

#[test]
fn scenario_file_parses_and_round_trips() {
    let spec = scenario::parse(SCN).expect("hetero_mobile.scn parses");
    assert_eq!(spec.total_hosts(), 296);
    assert_eq!(spec.groups.len(), 4);
    assert_eq!(scenario::parse(&spec.to_text()).unwrap(), spec);
}

/// Units whose metrics the driver treats as times: a declared per-layer
/// metric with one of these must be measured by every workload.
const TIME_UNITS: [&str; 4] = ["s", "ms", "us", "ns"];

#[test]
fn smoke_pass_of_all_workloads_emits_what_is_declared() {
    let decl = Declaration::load();
    assert_eq!(decl.workloads, workloads::NAMES);
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let settings = Settings {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        reps: Some(1),
        smoke: true,
        traced: true,
        bless: false,
        state_dir: bench::default_state_dir().with_file_name("benchmark-test"),
        digest_dir: manifest.join("workloads/digests"),
    };
    let mut tracer = Tracer::new(true);
    // declared per-layer metric -> workloads that measured it
    let mut measured_by: BTreeMap<String, usize> = BTreeMap::new();
    for name in workloads::NAMES {
        let mut w = workloads::make(name, settings.seed, true, &settings.state_dir).unwrap();
        let r = bench::run(w.as_mut(), &settings, &mut tracer);
        assert!(r.correct(), "{name}: {:?}", r.complaints);
        assert!(r.attempted > 0 && r.failed == 0);
        assert!(
            r.span_cover_error < 0.02,
            "{name}: spans miss {} of the wall",
            r.span_cover_error
        );

        let emitted: Vec<&str> = r.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = decl.end_to_end.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(emitted, declared, "{name}");
        for (m, d) in r.end_to_end.iter().zip(&decl.end_to_end) {
            assert_eq!(m.unit, d.unit, "{name}: {}", m.name);
            assert!(
                m.value().is_finite() && m.value() > 0.0,
                "{name}: {} = {}",
                m.name,
                m.value()
            );
        }
        for m in &r.per_layer {
            assert!(
                name_ok(&m.name) && unit_ok(m.unit),
                "{name}: {} [{}]",
                m.name,
                m.unit
            );
            assert!(
                m.summary.is_none() || m.value().is_finite(),
                "{name}: {} = {}",
                m.name,
                m.value()
            );
            if let Some(d) = decl.per_layer.iter().find(|d| d.name == m.name) {
                assert_eq!(m.unit, d.unit, "{name}: {}", m.name);
                *measured_by.entry(m.name.clone()).or_default() += 1;
            }
        }

        // the driver's line: exactly the declared metrics, as numbers
        for (traced, declared) in [(false, &decl.end_to_end), (true, &decl.per_layer)] {
            let line = json::parse(&report::result_line(&r, &decl, traced)).unwrap();
            assert_eq!(keys(&line), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(metrics.len(), declared.len());
            for d in declared {
                let m = metrics
                    .get(&d.name)
                    .unwrap_or_else(|| panic!("{name}: {} missing", d.name));
                assert_eq!(keys(m), ["unit", "value"]);
                assert!(
                    m.get("value").unwrap().as_f64().is_some(),
                    "{name}: {} is not a number",
                    d.name
                );
            }
        }
    }
    for d in &decl.per_layer {
        let n = measured_by.get(&d.name).copied().unwrap_or(0);
        assert!(n > 0, "{} is declared but no workload measures it", d.name);
        assert!(
            n == workloads::NAMES.len() || !TIME_UNITS.contains(&d.unit.as_str()),
            "{} is a time, so every workload must measure it ({n} do)",
            d.name
        );
    }

    // span bookkeeping: parents precede children, intervals are ordered,
    // self time never exceeds duration
    let spans = tracer.spans();
    assert!(spans.iter().any(|s| s.parent.is_none()) && spans.iter().any(|s| s.parent.is_some()));
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        assert!(s.parent.is_none_or(|p| p < i) && s.end_ns >= s.start_ns && own <= s.duration_ns());
        assert!(!s.run.is_empty(), "span {} has no run id", s.name);
    }
    let path = bench::trace_path(&settings.state_dir);
    tracer.write_jsonl(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), spans.len());
    assert!(text.lines().all(|l| json::parse(l).is_ok()));
    let _ = std::fs::remove_dir_all(&settings.state_dir);
}
