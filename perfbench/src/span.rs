//! Harness-side tracing: a span around every call the benchmark makes
//! into a layer.  Spans stay in memory and are written out when the run
//! ends; nothing inside the crates is instrumented.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.  `parent` indexes the span that was open when
/// this one started (`None` = a root); `run` is the workload/rep/job id
/// every span of one operation shares.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder.  A disabled tracer runs the closure and records
/// nothing, so the timed pass and the traced pass share one code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: String,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: String::new(),
        }
    }

    /// Label the spans recorded from now on (workload/rep/job).
    pub fn set_run(&mut self, run: impl Into<String>) {
        if self.enabled {
            self.run = run.into();
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through the
    /// tracer it is handed become children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run.clone(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record an interval measured elsewhere (e.g. submit → first frame,
    /// which ends inside a callback) as a child of the open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: at(start),
            end_ns: at(end).max(at(start)),
            parent: self.open.last().copied(),
            run: self.run.clone(),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                crate::json::quote(&s.name),
                s.start_ns,
                s.end_ns,
                crate::json::quote(&s.run)
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may overlap each other, so the
/// cover is the union of their intervals, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per span name: (calls, total ns, self ns), for the printed breakdown.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            run: "t".into(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 70, Some(0)),
            span("a.inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // first_frame and stream_job both start at submit and overlap
        let spans = vec![
            span("job", 0, 100, None),
            span("first_frame", 10, 30, Some(0)),
            span("stream_job", 10, 90, Some(0)),
            span("late", 95, 120, Some(0)), // clipped to the parent
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80 - 5);
    }

    #[test]
    fn nested_closures_record_parents_and_cover_the_root() {
        let mut tr = Tracer::new(true);
        tr.set_run("w/0");
        tr.span("root", |tr| {
            tr.span("child", |tr| tr.span("leaf", |_| std::hint::black_box(1 + 1)));
            let t = Instant::now();
            tr.record("measured", t, Instant::now());
        });
        let spans = tr.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "child", "leaf", "measured"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == "w/0" && s.end_ns >= s.start_ns));
        let by = by_name(spans);
        assert_eq!(by["root"].0, 1);
        assert_eq!(by.values().map(|v| v.2).sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        tr.record("y", Instant::now(), Instant::now());
        assert!(tr.spans().is_empty());
    }
}
