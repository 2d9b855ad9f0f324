//! CSV and Markdown rendering of experiment results.

use crate::experiment::ExperimentRow;
use crate::sweep::SweepRow;
use std::fmt::Write as _;

/// Renders raw sweep rows as CSV (one line per heuristic × trace × factor).
pub fn sweep_to_csv(rows: &[SweepRow]) -> String {
    let mut out =
        String::from("kernel,rank,factor,capacity_bytes,heuristic,makespan_us,omim_us,ratio\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{:.6}",
            r.kernel,
            r.rank,
            r.factor,
            r.capacity.bytes(),
            r.heuristic,
            r.makespan.ticks(),
            r.omim.ticks(),
            r.ratio
        );
    }
    out
}

/// Renders aggregated experiment rows as a Markdown table grouped by factor,
/// the table the figure benches of `dts_bench` print (ARCHITECTURE.md maps
/// each figure to its bench).
pub fn experiment_to_markdown(title: &str, rows: &[ExperimentRow]) -> String {
    let mut out = format!("### {title}\n\n");
    let _ = writeln!(out, "| factor | series | median ratio | q1 | q3 | max |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {:.3} | {} | {:.4} | {:.4} | {:.4} | {:.4} |",
            r.factor, r.label, r.ratios.median, r.ratios.q1, r.ratios.q3, r.ratios.max
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::BoxplotStats;
    use dts_core::{MemSize, Time};

    fn sweep_row() -> SweepRow {
        SweepRow {
            kernel: "HF".into(),
            rank: 0,
            factor: 1.25,
            capacity: MemSize::from_bytes(220_000),
            heuristic: "OOLCMR".into(),
            makespan: Time::from_micros(1234),
            omim: Time::from_micros(1200),
            ratio: 1.0283,
        }
    }

    fn experiment_row() -> ExperimentRow {
        ExperimentRow {
            kernel: "HF".into(),
            factor: 1.25,
            label: "OOLCMR".into(),
            ratios: BoxplotStats::of(&[1.0, 1.05, 1.1]).unwrap(),
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sweep_to_csv(&[sweep_row()]);
        assert!(csv.starts_with("kernel,rank,factor"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("OOLCMR"));
    }

    #[test]
    fn markdown_table_is_well_formed() {
        let md = experiment_to_markdown("Fig. 9", &[experiment_row(), experiment_row()]);
        assert!(md.starts_with("### Fig. 9"));
        assert_eq!(md.lines().filter(|l| l.starts_with('|')).count(), 4);
    }
}
