//! # delprop-bench — experiment harness
//!
//! Each public `ex_*` function in [`experiments`] regenerates one
//! table/figure experiment of `EXPERIMENTS.md` and returns its report as
//! text; the `harness` binary dispatches on experiment ids, and its
//! timed experiments cover the runtime claims.

pub mod experiments;
// The JSON value type moved to its own crate (the serving daemon's
// wire protocol shares it); re-exported here so `delprop_bench::json`
// paths keep working.
pub use delprop_json as json;

/// Format a ratio or sentinel when the denominator is ~0.
pub fn ratio(num: f64, den: f64) -> String {
    if den > 1e-9 {
        format!("{:.2}", num / den)
    } else if num > 1e-9 {
        "inf".to_string()
    } else {
        "1.00".to_string()
    }
}

/// Render rows as a fixed-width table with a header.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    let mut out = String::new();
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 3 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns() {
        let t = table(
            &["a", "long"],
            &[vec!["1".into(), "2".into()], vec!["100".into(), "x".into()]],
        );
        assert!(t.contains("100 |"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(ratio(0.0, 0.0), "1.00");
        assert_eq!(ratio(1.0, 0.0), "inf");
        assert_eq!(ratio(3.0, 2.0), "1.50");
    }
}
