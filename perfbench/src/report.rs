//! What the benchmark prints and writes: the one-line result the driver
//! reads, a table for people, the `--out` record with its history line,
//! and `--compare`.

use crate::bench::WorkloadReport;
use crate::core::Metric;
use crate::json::{self, number, quote, Value};
use crate::stats::Summary;
use std::io::Write as _;
use std::path::Path;

/// The repository's `BENCHMARK.json`: the declared workloads and metrics,
/// with units, directions and bounds.  Compiled in, so the binary and
/// the declaration cannot drift apart unnoticed (the tests compare them).
pub const DECLARATION: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

pub struct Declaration {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
    pub run_seconds: f64,
}

impl Declaration {
    pub fn load() -> Declaration {
        let v = json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
        let metrics = |key: &str| -> Vec<Declared> {
            v.get(key)
                .map_or(&[][..], Value::as_arr)
                .iter()
                .map(|m| Declared {
                    name: m.get("name").and_then(Value::as_str).unwrap_or("").to_string(),
                    unit: m.get("unit").and_then(Value::as_str).unwrap_or("").to_string(),
                    higher_is_better: m.get("better").and_then(Value::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Declaration {
            workloads: v
                .get("workloads")
                .map_or(&[][..], Value::as_arr)
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            run_seconds: v.get("run_seconds").and_then(Value::as_f64).unwrap_or(10.0),
        }
    }
}

/// The last line of standard output: exactly the declared metrics of the
/// run's kind (end-to-end untraced, per-layer traced).  A declared layer
/// metric a workload does not enter reads 0; none of those is a time.
pub fn result_line(r: &WorkloadReport, decl: &Declaration, traced: bool) -> String {
    let (declared, measured) = if traced {
        (&decl.per_layer, &r.per_layer)
    } else {
        (&decl.end_to_end, &r.end_to_end)
    };
    let metrics: Vec<String> = declared
        .iter()
        .map(|d| {
            let value = measured
                .iter()
                .find(|m| m.name == d.name)
                .map_or(0.0, Metric::value);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(&d.name),
                number(value),
                quote(&d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    )
}

fn row(m: &Metric) -> String {
    match m.summary {
        None => format!("  {:<44} {:>16} {}", m.name, "unmeasured", m.unit),
        Some(s) if s.n > 1 => format!(
            "  {:<44} {:>16.6} {:<6} (min {:.6}, max {:.6}, n {})",
            m.name, s.median, m.unit, s.min, s.max, s.n
        ),
        Some(s) => format!("  {:<44} {:>16.6} {}", m.name, s.median, m.unit),
    }
}

/// The table for people (standard error, so the result line stays last
/// and alone on standard output).
pub fn print_table(r: &WorkloadReport) {
    eprintln!("== {} — {}", r.name, r.sizes);
    eprintln!(
        "   {} operations, {} failed{}",
        r.attempted,
        r.failed,
        if r.correct() { "" } else { "  ** INCORRECT **" }
    );
    for c in &r.complaints {
        eprintln!("   ! {c}");
    }
    eprintln!(" end to end");
    for m in &r.end_to_end {
        eprintln!("{}", row(m));
    }
    eprintln!(" per layer");
    for m in &r.per_layer {
        eprintln!("{}", row(m));
    }
}

/// Where each span name spent its time, widest self time first.
pub fn print_span_breakdown(spans: &[crate::span::Span]) {
    let mut rows: Vec<_> = crate::span::by_name(spans).into_iter().collect();
    rows.sort_by_key(|(_, (_, _, own))| std::cmp::Reverse(*own));
    eprintln!(" spans (calls, total ms, self ms)");
    for (name, (calls, total, own)) in rows {
        eprintln!(
            "  {name:<44} {calls:>6} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn metric_json(m: &Metric) -> String {
    match m.summary {
        None => format!(
            "{}:{{\"unit\":{},\"value\":\"unmeasured\"}}",
            quote(&m.name),
            quote(m.unit)
        ),
        Some(s) => format!(
            "{}:{{\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"n\":{}}}",
            quote(&m.name),
            quote(m.unit),
            number(s.median),
            number(s.q1),
            number(s.q3),
            number(s.min),
            number(s.max),
            s.n
        ),
    }
}

/// Facts about the host and the run that every record carries.
pub struct RunInfo {
    pub commit: String,
    pub seed: u64,
    pub smoke: bool,
    pub nproc: usize,
    pub loadavg: String,
}

/// One record of a whole invocation, on one line.
pub fn record(info: &RunInfo, reports: &[WorkloadReport]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            let group = |ms: &[Metric]| ms.iter().map(metric_json).collect::<Vec<_>>().join(",");
            format!(
                "{}:{{\"sizes\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{{{}}},\"per_layer\":{{{}}}}}",
                quote(r.name),
                quote(&r.sizes),
                r.correct(),
                r.attempted,
                r.failed,
                group(&r.end_to_end),
                group(&r.per_layer)
            )
        })
        .collect();
    format!(
        "{{\"commit\":{},\"seed\":{},\"smoke\":{},\"nproc\":{},\"loadavg\":{},\"workloads\":{{{}}}}}",
        quote(&info.commit),
        info.seed,
        info.smoke,
        info.nproc,
        quote(&info.loadavg),
        workloads.join(",")
    )
}

/// Write the record to `out` and append it to the history file, so the
/// trajectory is more than one overwritten snapshot.
pub fn write_record(line: &str, out: &Path, history: &Path) -> std::io::Result<()> {
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(out, format!("{line}\n"))?;
    if let Some(dir) = history.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut h = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)?;
    writeln!(h, "{line}")
}

/// Verdict on one end-to-end metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound, and the two
    /// sides overlap: neither "unchanged" nor "worse" can be claimed.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare `b` (the change) with `a` (the parent) for a metric with the
/// given direction and bound.
pub fn judge(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    // relative change in the worsening direction: positive = worse
    let worse_by = if higher_is_better {
        (a.median - b.median) / a.median.abs()
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let every_b_better = if higher_is_better {
        b.min > a.max
    } else {
        b.max < a.min
    };
    let verdict = if a.spread().max(b.spread()) > bound && !every_b_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn summary_of(v: &Value) -> Option<Summary> {
    Some(Summary {
        median: v.get("median")?.as_f64()?,
        q1: v.get("q1")?.as_f64()?,
        q3: v.get("q3")?.as_f64()?,
        min: v.get("min")?.as_f64()?,
        max: v.get("max")?.as_f64()?,
        n: v.get("n")?.as_f64()? as usize,
    })
}

/// `--compare A B`: every workload × metric present in both records.
/// Returns the text and whether anything regressed (an end-to-end metric
/// past its bound, or more failed operations).
pub fn compare(a: &Value, b: &Value, decl: &Declaration) -> (String, bool) {
    let mut text = String::new();
    let mut regressed = false;
    let empty = std::collections::BTreeMap::new();
    let workloads = |v: &'_ Value| {
        v.get("workloads")
            .and_then(Value::as_obj)
            .cloned()
            .unwrap_or_default()
    };
    let (wa, wb) = (workloads(a), workloads(b));
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else { continue };
        text.push_str(&format!("== {name}\n"));
        let failed = |r: &Value| r.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        if failed(rb) > failed(ra) {
            regressed = true;
            text.push_str(&format!(
                "  failed operations rose from {} to {}: regressed\n",
                failed(ra),
                failed(rb)
            ));
        }
        for (group, declared) in [("end_to_end", &decl.end_to_end), ("per_layer", &decl.per_layer)] {
            let ma = ra.get(group).and_then(Value::as_obj).unwrap_or(&empty);
            let mb = rb.get(group).and_then(Value::as_obj).unwrap_or(&empty);
            for (metric, va) in ma {
                let (Some(sa), Some(sb)) = (summary_of(va), mb.get(metric).and_then(summary_of)) else {
                    continue;
                };
                let unit = va.get("unit").and_then(Value::as_str).unwrap_or("");
                let d = declared.iter().find(|d| &d.name == metric);
                let diff = if sa.median == 0.0 {
                    0.0
                } else {
                    (sb.median - sa.median) / sa.median.abs() * 100.0
                };
                let tail = match d.and_then(|d| d.bound.map(|bound| (d, bound))) {
                    Some((d, bound)) => {
                        let (_, verdict) = judge(&sa, &sb, d.higher_is_better, bound);
                        regressed |= verdict == Verdict::Regressed;
                        format!("bound {:.0}%  {}", bound * 100.0, verdict.name())
                    }
                    None => String::new(),
                };
                text.push_str(&format!(
                    "  {metric:<44} {:>16.6} -> {:>16.6} {unit:<6} {diff:>+8.2}%  {tail}\n",
                    sa.median, sb.median
                ));
            }
        }
    }
    (text, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A summary whose quartiles sit at its extremes.
    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            q1: min,
            q3: max,
            min,
            max,
            n: 5,
        }
    }

    #[test]
    fn tight_runs_within_the_bound_are_ok_and_past_it_regressed() {
        let a = s(10.0, 9.9, 10.1);
        assert_eq!(judge(&a, &s(10.5, 10.4, 10.6), false, 0.10).1, Verdict::Ok);
        assert_eq!(judge(&a, &s(11.5, 11.4, 11.6), false, 0.10).1, Verdict::Regressed);
        // direction flips for a rate
        assert_eq!(judge(&a, &s(8.5, 8.4, 8.6), true, 0.10).1, Verdict::Regressed);
        assert_eq!(judge(&a, &s(11.5, 11.4, 11.6), true, 0.10).1, Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let a = s(10.0, 8.0, 12.0);
        assert_eq!(judge(&a, &s(10.2, 9.0, 11.0), false, 0.10).1, Verdict::Unresolved);
        assert_eq!(judge(&a, &s(7.0, 6.5, 7.5), false, 0.10).1, Verdict::Ok);
    }

    #[test]
    fn compare_flags_a_regression_and_a_rise_in_failures() {
        let decl = Declaration::load();
        let rec = |rate: f64, failed: u64| {
            json::parse(&format!(
                "{{\"workloads\":{{\"scale_5k\":{{\"failed\":{failed},\"end_to_end\":{{\"events_per_cal_s\":\
                 {{\"unit\":\"1/s\",\"median\":{rate},\"q1\":{rate},\"q3\":{rate},\"min\":{rate},\"max\":{rate},\"n\":3}}}},\"per_layer\":{{}}}}}}}}"
            ))
            .unwrap()
        };
        let (text, bad) = compare(&rec(100.0, 0), &rec(95.0, 0), &decl);
        assert!(!bad, "{text}");
        assert!(text.contains("events_per_cal_s") && text.contains("ok"));
        let (text, bad) = compare(&rec(100.0, 0), &rec(60.0, 0), &decl);
        assert!(bad && text.contains("regressed"), "{text}");
        let (_, bad) = compare(&rec(100.0, 0), &rec(100.0, 1), &decl);
        assert!(bad);
    }
}
