//! Rendering experiment output: paper-style ASCII tables and CSV files.

use metrics::TimeSeries;
use service::fsutil::write_atomic_durable;
use std::fmt::Write as _;
use std::path::Path;

/// `x` through `f`, or `none` when absent.
pub fn opt_or<T>(x: Option<T>, none: &str, f: impl Fn(T) -> String) -> String {
    x.map(f).unwrap_or_else(|| none.into())
}

/// A named series for a figure column; `None` is a point the sweep could
/// not produce (every replica quarantined), rendered as `-` under its own
/// header rather than dropped.
pub type Labelled<'a> = (&'a str, Option<&'a TimeSeries>);

/// The samples of the first present series — the time axis all of them
/// must share (empty when no series is present).
fn time_axis<'a>(labelled: &[Labelled<'a>]) -> &'a [metrics::TimePoint] {
    let mut present = labelled.iter().filter_map(|(_, s)| *s);
    let axis = present.next().map_or(&[][..], TimeSeries::points);
    for s in present {
        assert_eq!(s.len(), axis.len(), "series must share sample times");
    }
    axis
}

/// Render several labelled series (sharing sample times) as a table whose
/// first column is time — the row/series format of Figs. 4, 5 and 8.
/// `every` subsamples rows (e.g. 10 = every 10th sample).
pub fn render_series_table(title: &str, labelled: &[Labelled<'_>], every: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let _ = write!(out, "{:>8}", "t(s)");
    for (name, _) in labelled {
        let _ = write!(out, " {name:>10}");
    }
    let _ = writeln!(out);
    for (i, at) in time_axis(labelled).iter().enumerate().step_by(every.max(1)) {
        let _ = write!(out, "{:>8.0}", at.t_secs);
        for (_, s) in labelled {
            let _ = match s {
                Some(s) => write!(out, " {:>10.4}", s.points()[i].value),
                None => write!(out, " {:>10}", "-"),
            };
        }
        let _ = writeln!(out);
    }
    out
}

/// Write rows as CSV under `results/`.  The first row should be a header.
/// Crash-safe and durable: see [`write_atomic_durable`].
pub fn write_csv(path: &Path, rows: &[Vec<String>]) -> std::io::Result<()> {
    let mut body = String::new();
    for row in rows {
        let _ = writeln!(body, "{}", row.join(","));
    }
    write_atomic_durable(path, body.as_bytes())
}

/// CSV rows for labelled series sharing sample times.
pub fn series_csv_rows(labelled: &[Labelled<'_>]) -> Vec<Vec<String>> {
    let mut header = vec!["t_secs".to_string()];
    header.extend(labelled.iter().map(|(n, _)| n.to_string()));
    let mut rows = vec![header];
    for (i, at) in time_axis(labelled).iter().enumerate() {
        let mut row = vec![format!("{}", at.t_secs)];
        for (_, s) in labelled {
            row.push(s.map(|s| format!("{}", s.points()[i].value)).unwrap_or_default());
        }
        rows.push(row);
    }
    rows
}

/// Render labelled series (sharing sample times) as an ASCII chart —
/// value on the y axis, time on the x axis, one plot character per series.
/// Good enough to eyeball the paper's curve shapes in a terminal.
pub fn render_ascii_chart(title: &str, labelled: &[Labelled<'_>], width: usize, height: usize) -> String {
    assert!(width >= 10 && height >= 4);
    const MARKS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let axis = time_axis(labelled);
    let (Some(first), Some(last)) = (axis.first(), axis.last()) else {
        return format!(
            "## {title}
(no samples)
"
        );
    };
    let t_min = first.t_secs;
    let t_max = last.t_secs.max(t_min + 1e-9);
    let mut v_max = f64::MIN;
    let mut v_min = f64::MAX;
    for p in labelled
        .iter()
        .filter_map(|(_, s)| *s)
        .flat_map(TimeSeries::points)
    {
        v_max = v_max.max(p.value);
        v_min = v_min.min(p.value);
    }
    if (v_max - v_min).abs() < 1e-12 {
        v_max = v_min + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, s)) in labelled.iter().enumerate() {
        // a missing series keeps its mark, so the legend stays aligned
        let mark = MARKS[si % MARKS.len()];
        for p in s.iter().flat_map(|s| s.points()) {
            let x = ((p.t_secs - t_min) / (t_max - t_min) * (width - 1) as f64).round() as usize;
            let y = ((p.value - v_min) / (v_max - v_min) * (height - 1) as f64).round() as usize;
            let row = height - 1 - y.min(height - 1);
            grid[row][x.min(width - 1)] = mark;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let _ = writeln!(out, "{v_max:>9.3} ┐");
    for row in &grid {
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{:>9} │{line}", "");
    }
    let _ = writeln!(out, "{v_min:>9.3} ┴{}", "─".repeat(width));
    let _ = writeln!(
        out,
        "{:>10} {t_min:<8.0}{:>w$.0}",
        "t(s):",
        t_max,
        w = width.saturating_sub(8)
    );
    let legend: Vec<String> = labelled
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {}", MARKS[i % MARKS.len()], name))
        .collect();
    let _ = writeln!(out, "{:>11}{}", "", legend.join("   "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[(f64, f64)]) -> TimeSeries {
        vals.iter().copied().collect()
    }

    #[test]
    fn table_renders_all_series() {
        let a = series(&[(0.0, 1.0), (10.0, 0.9)]);
        let b = series(&[(0.0, 1.0), (10.0, 0.8)]);
        let t = render_series_table("Fig. X", &[("GRID", Some(&a)), ("ECGRID", Some(&b))], 1);
        assert!(t.contains("GRID"));
        assert!(t.contains("ECGRID"));
        assert!(t.contains("0.9"));
        assert!(t.contains("0.8"));
        assert_eq!(t.lines().count(), 4); // title + header + 2 rows
    }

    #[test]
    fn subsampling_reduces_rows() {
        let a: TimeSeries = (0..100).map(|i| (i as f64, 1.0)).collect();
        let t = render_series_table("T", &[("x", Some(&a))], 10);
        assert_eq!(t.lines().count(), 2 + 10);
    }

    #[test]
    fn ascii_chart_plots_all_series() {
        let a: TimeSeries = (0..50)
            .map(|i| (i as f64 * 10.0, 1.0 - i as f64 / 50.0))
            .collect();
        let b: TimeSeries = (0..50)
            .map(|i| (i as f64 * 10.0, (i as f64 / 50.0 - 0.5).abs()))
            .collect();
        let chart = render_ascii_chart("shapes", &[("down", Some(&a)), ("vee", Some(&b))], 60, 12);
        assert!(chart.contains("## shapes"));
        assert!(chart.contains('*') && chart.contains('o'), "both marks plotted");
        assert!(
            chart.contains("* down") && chart.contains("o vee"),
            "legend present"
        );
        // the chart body has exactly `height` grid rows
        let grid_rows = chart.lines().filter(|l| l.contains('│')).count();
        assert_eq!(grid_rows, 12);
    }

    #[test]
    fn ascii_chart_handles_flat_series() {
        let a: TimeSeries = (0..5).map(|i| (i as f64, 1.0)).collect();
        let chart = render_ascii_chart("flat", &[("c", Some(&a))], 20, 4);
        assert!(chart.contains('*'));
    }

    #[test]
    fn csv_roundtrip() {
        let a = series(&[(0.0, 1.0), (10.0, 0.5)]);
        let rows = series_csv_rows(&[("alive", Some(&a))]);
        assert_eq!(rows[0], vec!["t_secs", "alive"]);
        assert_eq!(rows[2], vec!["10", "0.5"]);
        let dir = std::env::temp_dir().join("ecgrid_report_test");
        let path = dir.join("t.csv");
        write_csv(&path, &rows).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("t_secs,alive"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
