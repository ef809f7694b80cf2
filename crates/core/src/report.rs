//! Shared rendering helpers for experiment output.
//!
//! Every experiment module produces structured data; these helpers turn
//! that data into the aligned text the benchmark binaries print, so
//! paper-vs-measured comparison stays uniform across experiments.

use simkit::series::TimeSeries;

/// Renders a `(x, y)` series as `x<tab>y` lines with a header — the
/// gnuplot-friendly format all figure regenerators emit.
pub fn render_xy_series(
    title: &str,
    x_label: &str,
    y_label: &str,
    points: &[(f64, f64)],
) -> String {
    let mut out = format!("# {title}\n# {x_label}\t{y_label}\n");
    for (x, y) in points {
        out.push_str(&format!("{x:.4}\t{y:.4}\n"));
    }
    out
}

/// Renders a time series as `seconds<tab>value` lines.
pub fn render_time_series(title: &str, y_label: &str, series: &TimeSeries) -> String {
    let points: Vec<(f64, f64)> = series.iter().map(|(t, v)| (t.as_secs_f64(), v)).collect();
    render_xy_series(title, "seconds", y_label, &points)
}

/// Renders several named series sharing an x axis, one column per series.
///
/// # Panics
///
/// Panics if the series have different lengths.
pub fn render_multi_series(
    title: &str,
    x_label: &str,
    xs: &[f64],
    columns: &[(&str, Vec<f64>)],
) -> String {
    for (name, ys) in columns {
        assert_eq!(ys.len(), xs.len(), "column {name} length mismatch");
    }
    let mut out = format!("# {title}\n# {x_label}");
    for (name, _) in columns {
        out.push_str(&format!("\t{name}"));
    }
    out.push('\n');
    for (i, x) in xs.iter().enumerate() {
        out.push_str(&format!("{x:.4}"));
        for (_, ys) in columns {
            out.push_str(&format!("\t{:.4}", ys[i]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::time::{SimDuration, SimTime};

    #[test]
    fn xy_series_renders_rows() {
        let s = render_xy_series("Fig X", "watts", "cdf", &[(1.0, 0.5), (2.0, 1.0)]);
        assert!(s.starts_with("# Fig X\n# watts\tcdf\n"));
        assert!(s.contains("1.0000\t0.5000"));
        assert!(s.contains("2.0000\t1.0000"));
    }

    #[test]
    fn time_series_uses_seconds() {
        let ts = TimeSeries::new(SimTime::ZERO, SimDuration::from_secs(5), vec![7.0, 8.0]);
        let s = render_time_series("t", "v", &ts);
        assert!(s.contains("0.0000\t7.0000"));
        assert!(s.contains("5.0000\t8.0000"));
    }

    #[test]
    fn multi_series_columns() {
        let s = render_multi_series(
            "Fig 16",
            "rate",
            &[0.16, 0.5],
            &[("PS", vec![0.97, 0.91]), ("PAD", vec![0.99, 0.97])],
        );
        assert!(s.contains("# rate\tPS\tPAD"));
        assert!(s.contains("0.5000\t0.9100\t0.9700"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn multi_series_rejects_ragged() {
        render_multi_series("x", "x", &[1.0], &[("a", vec![])]);
    }
}
