//! Table and CSV output.

use std::fmt::Write as _;
use std::path::Path;

use crate::journal::atomic_write;
use crate::stats::Figure;

/// Renders a figure as an aligned text table (x column, then one
/// `mean (min–max)` column per series).
pub fn render_table(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {} — {}\n", fig.id, fig.title));
    out.push_str(&format!("   y = {}\n\n", fig.y_label));

    let x_width = fig.x_label.len().max(10);
    let col_width = 24;
    out.push_str(&format!("{:>x_width$}", fig.x_label));
    for s in &fig.series {
        out.push_str(&format!(" | {:^col_width$}", s.label));
    }
    out.push('\n');
    out.push_str(&"-".repeat(x_width + fig.series.len() * (col_width + 3)));
    out.push('\n');

    let n_points = fig.series.first().map_or(0, |s| s.points.len());
    for i in 0..n_points {
        let x = fig.series[0].points[i].0;
        out.push_str(&format!("{:>x_width$}", trim_float(x)));
        for s in &fig.series {
            let (_, sum) = s.points[i];
            // n == 0 marks a point whose every trial failed (see
            // `Summary::hole`): render the hole, not fake zeros.
            let cell = if sum.n == 0 {
                "(no data)".to_string()
            } else {
                format!(
                    "{} ({}–{})",
                    trim_float(sum.mean),
                    trim_float(sum.min),
                    trim_float(sum.max)
                )
            };
            out.push_str(&format!(" | {cell:^col_width$}"));
        }
        out.push('\n');
    }
    out.push('\n');
    out
}

fn trim_float(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 && v.abs() < 1e9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Writes a figure as `<dir>/<id>.csv` with one row per (series, x),
/// atomically: the full file is built in memory, then written via
/// tmp-file + fsync + rename, so a crash never leaves a partial CSV.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(fig: &Figure, dir: &Path) -> std::io::Result<()> {
    let mut out = String::from("figure,series,x,mean,min,max,n\n");
    for s in &fig.series {
        for (x, sum) in &s.points {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                fig.id, s.label, x, sum.mean, sum.min, sum.max, sum.n
            );
        }
    }
    atomic_write(&dir.join(format!("{}.csv", fig.id)), out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Series, Summary};

    fn sample_figure() -> Figure {
        Figure {
            id: "figX".into(),
            title: "sample".into(),
            x_label: "users".into(),
            y_label: "load".into(),
            series: vec![Series {
                label: "SSA".into(),
                points: vec![(50.0, Summary::of(&[1.0, 2.0]))],
            }],
        }
    }

    #[test]
    fn table_contains_series_and_values() {
        let t = render_table(&sample_figure());
        assert!(t.contains("figX"));
        assert!(t.contains("SSA"));
        assert!(t.contains("1.5000 (1–2)"));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mcast_report_test_{}", std::process::id()));
        write_csv(&sample_figure(), &dir).unwrap();
        let content = std::fs::read_to_string(dir.join("figX.csv")).unwrap();
        assert!(content.starts_with("figure,series,x,mean,min,max,n"));
        assert!(content.contains("figX,SSA,50,1.5,1,2,2"));
    }
}
