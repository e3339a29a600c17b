//! Plot-ready CSV export for the figure experiments.
//!
//! `repro dump <dir> [quick|paper]` writes one CSV per figure so the
//! paper's plots can be regenerated with any plotting tool. Formats are
//! deliberately simple: one header row, comma-separated, time in
//! milliseconds, rates in Gb/s, queues in KB, FCTs in ms.

use crate::fct::{fct_grid_supervised, BufferRegime, FatTreeConfig, SchemeFcts, Workload};
use crate::micro;
use crate::parallel::ExecMode;
use crate::supervisor::Supervisor;
use crate::Scale;
use rocc_sim::prelude::Sample;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

fn series_csv(columns: &[(&str, &[Sample])]) -> String {
    let mut out = String::new();
    out.push_str("t_ms");
    for (name, _) in columns {
        let _ = write!(out, ",{name}");
    }
    out.push('\n');
    let len = columns.iter().map(|(_, s)| s.len()).min().unwrap_or(0);
    for i in 0..len {
        let _ = write!(out, "{:.3}", columns[0].1[i].t.as_millis_f64());
        for (_, s) in columns {
            let _ = write!(out, ",{:.6}", s[i].v);
        }
        out.push('\n');
    }
    out
}

fn fct_csv(results: &[SchemeFcts]) -> String {
    let mut out = String::from("scheme,bin_bytes,count,avg_ms,avg_ci_ms,p90_ms,p90_ci_ms,p99_ms,p99_ci_ms\n");
    for r in results {
        for b in &r.bins {
            let _ = writeln!(
                out,
                "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
                r.scheme.name(),
                b.bin,
                b.count,
                b.avg.mean * 1e3,
                b.avg.ci95 * 1e3,
                b.p90.mean * 1e3,
                b.p90.ci95 * 1e3,
                b.p99.mean * 1e3,
                b.p99.ci95 * 1e3,
            );
        }
    }
    out
}

/// Write every figure's plot data into `dir`. Returns the file list.
pub fn dump_all(dir: &Path, scale: Scale) -> io::Result<Vec<String>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut save = |name: &str, content: String| -> io::Result<()> {
        fs::write(dir.join(name), content)?;
        written.push(name.to_string());
        Ok(())
    };

    // Fig. 8: queue + rate series per (B, N) case.
    for case in micro::fig8(scale) {
        let name = format!("fig8_{}g_n{}.csv", case.gbps, case.n);
        save(
            &name,
            series_csv(&[
                ("queue_bytes", &case.queue),
                ("rate_bps", &case.rate),
            ]),
        )?;
    }

    // Fig. 9: load-swing series.
    let f9 = micro::fig9(scale);
    save(
        "fig9.csv",
        series_csv(&[("queue_bytes", &f9.queue), ("rate_bps", &f9.rate)]),
    )?;

    // Fig. 11: per-scheme queue/utilization series + per-flow rates.
    let mut f11_rates = String::from("scheme,flow,rate_bps\n");
    for row in micro::fig11(scale) {
        let name = format!(
            "fig11_{}.csv",
            row.scheme.name().to_lowercase().replace('+', "_")
        );
        save(
            &name,
            series_csv(&[("queue_bytes", &row.queue), ("tput_bps", &row.util)]),
        )?;
        for (i, r) in row.per_flow_rate.iter().enumerate() {
            let _ = writeln!(f11_rates, "{},{},{:.0}", row.scheme.name(), i, r);
        }
    }
    save("fig11_rates.csv", f11_rates)?;

    // Fig. 12: fairness bars.
    let mut f12 = String::from("figure,scheme,flow,throughput_bps\n");
    for row in micro::fig12a(scale) {
        for (i, t) in row.throughput.iter().enumerate() {
            let _ = writeln!(f12, "12a,{},D{},{:.0}", row.scheme.name(), i, t);
        }
    }
    for row in micro::fig12b(scale) {
        for (i, t) in row.throughput.iter().enumerate() {
            let _ = writeln!(f12, "12b,{},D{},{:.0}", row.scheme.name(), i, t);
        }
    }
    save("fig12.csv", f12)?;

    // Fig. 13: queue series per cell.
    for run in micro::fig13(scale) {
        let name = format!("fig13_{}_{}.csv", run.profile, run.scenario);
        save(&name, series_csv(&[("queue_bytes", &run.queue)]))?;
    }

    // Figs. 14–16 + Table 3 source data.
    let cfg = FatTreeConfig::for_scale(scale);
    let sup = Supervisor::new(ExecMode::Parallel);
    for wl in [Workload::WebSearch, Workload::FbHadoop] {
        let (res, _) = fct_grid_supervised(wl, 0.7, &cfg, BufferRegime::Pfc, &sup);
        let name = format!("fct_{}.csv", wl.name().to_lowercase());
        save(&name, fct_csv(&res))?;
    }

    // Fig. 19: per-flow series per scheme.
    for run in micro::fig19(scale) {
        let name = format!("fig19_{}.csv", run.scheme.name().to_lowercase());
        let cols: Vec<(String, &[Sample])> = run
            .flow_series
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("flow{i}_bps"), s.as_slice()))
            .collect();
        let borrowed: Vec<(&str, &[Sample])> =
            cols.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        save(&name, series_csv(&borrowed))?;
    }

    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocc_sim::prelude::SimTime;

    #[test]
    fn series_csv_formats_rows() {
        let a = vec![
            Sample {
                t: SimTime::from_millis(1),
                v: 100.0,
            },
            Sample {
                t: SimTime::from_millis(2),
                v: 200.0,
            },
        ];
        let b: Vec<Sample> = a.iter().map(|s| Sample { t: s.t, v: s.v * 3.0 }).collect();
        let csv = series_csv(&[("x", &a), ("y", &b)]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("t_ms,x,y"));
        assert_eq!(lines.next(), Some("1.000,100.000000,300.000000"));
        assert_eq!(lines.next(), Some("2.000,200.000000,600.000000"));
    }

    #[test]
    fn fct_csv_has_header_and_rows() {
        use rocc_sim::prelude::SimDuration;
        let cfg = FatTreeConfig {
            hosts_per_edge: 3,
            trunks: 1,
            window: SimDuration::from_millis(1),
            max_drain: SimDuration::from_millis(400),
            reps: 1,
        };
        let sup = Supervisor::new(ExecMode::Parallel);
        let (rows, _) = fct_grid_supervised(Workload::FbHadoop, 0.5, &cfg, BufferRegime::Pfc, &sup);
        let csv = fct_csv(&rows);
        assert!(csv.starts_with("scheme,bin_bytes,count"));
        assert!(csv.lines().count() > 5);
        assert!(csv.contains("RoCC,"));
    }
}
