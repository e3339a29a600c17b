//! `repro` — regenerate every table and figure of the RoCC paper.
//!
//! ```text
//! repro <experiment> [quick|paper]
//! repro all [quick|paper]
//! ```
//!
//! Experiments: fig5 fig6 fig7 fig8 fig9 fig11 fig12a fig12b fig13 fig14
//! fig15 fig16 table3 fig17 fig18 fig19 fig20 table1 ablation chaos

use rocc_experiments::fct::{
    fct_comparison_supervised, fold_increase, table3, BufferRegime, SchemeFcts, Workload,
};
use rocc_experiments::parallel::ExecMode;
use rocc_experiments::supervisor::{CampaignReport, SnapshotStore, Supervisor};
use rocc_experiments::{analytic, micro, observatory, table1, Scale};
use rocc_sim::prelude::{write_artifact, Sample};

/// How to read one kind of positional argument, and the valid values to
/// name when it does not parse.
type Parser<T> = (fn(&str) -> Option<T>, &'static str);
const SCALE: Parser<Scale> = (Scale::parse, "quick paper");
const COUNT: Parser<u64> = (|s| s.parse().ok(), "a non-negative integer");

/// Positional argument `i`: `default` when absent; when present but
/// invalid, exit 2 naming the valid values — never a silent guess.
fn arg<T>(args: &[String], i: usize, default: T, (parse, valid): Parser<T>) -> T {
    match args.get(i) {
        None => default,
        Some(s) => parse(s).unwrap_or_else(|| {
            eprintln!("invalid argument {i} {s:?}: expected {valid}");
            std::process::exit(2)
        }),
    }
}

fn human_bytes(b: f64) -> String {
    if b >= 1e6 {
        format!("{:.1}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1}KB", b / 1e3)
    } else {
        format!("{b:.0}B")
    }
}

fn size_label(b: u64) -> String {
    if b >= 1_000_000 {
        format!("{}M", b / 1_000_000)
    } else if b >= 1_000 {
        format!("{}K", b / 1_000)
    } else {
        format!("{b}")
    }
}

/// Print a decimated (time, value) series as rows.
fn print_series(label: &str, series: &[Sample], every: usize, unit: &str, scale: f64) {
    println!("# {label}");
    for s in series.iter().step_by(every.max(1)) {
        println!("  t={:8.2}ms  {:10.2} {unit}", s.t.as_millis_f64(), s.v / scale);
    }
}

fn run_fig5() {
    println!("== Fig. 5: phase margin vs (alpha, beta), T=40us, N=2 ==");
    let pts = analytic::fig5(10);
    println!("{:>10} {:>10} {:>12}", "alpha", "beta", "margin(deg)");
    for p in pts {
        println!(
            "{:>10.4} {:>10.4} {:>12.1}{}",
            p.alpha,
            p.beta,
            p.phase_margin_deg,
            if p.phase_margin_deg > 0.0 { "  stable" } else { "  UNSTABLE" }
        );
    }
}

fn run_fig6() {
    println!("== Fig. 6: stability margin for N=2 vs N=10 (alpha=0.3, beta=3) ==");
    let r = analytic::fig6();
    println!("phase margin N=2 : {:+.1} deg", r.pm_n2);
    println!("phase margin N=10: {:+.1} deg", r.pm_n10);
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>10}",
        "w(rad/s)", "gain2(dB)", "ph2(deg)", "gain10", "ph10"
    );
    for (a, b) in r.n2.iter().zip(&r.n10).step_by(12) {
        println!(
            "{:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            a.w, a.gain_db, a.phase_deg, b.gain_db, b.phase_deg
        );
    }
}

fn run_fig7() {
    println!("== Fig. 7: margin (a) and loop bandwidth (b) vs N, six alpha:beta pairs ==");
    let series = analytic::fig7();
    print!("{:>18}", "alpha:beta");
    for p in &series[0].points {
        print!(" {:>9}", format!("N={}", p.n));
    }
    println!();
    for s in &series {
        print!("{:>18}", format!("{:.4}:{:.4}", s.alpha, s.beta));
        for p in &s.points {
            print!(" {:>9.1}", p.phase_margin_deg);
        }
        println!("   (margin deg)");
        print!("{:>18}", "");
        for p in &s.points {
            print!(" {:>9.0}", p.bandwidth_hz);
        }
        println!("   (bandwidth Hz)");
    }
}

fn run_fig8(scale: Scale) {
    println!("== Fig. 8: fairness & stability, N in {{2,10,100}}, B in {{40,100}}G, 90% load ==");
    for c in micro::fig8(scale) {
        let mean_gbps: f64 =
            c.per_flow_goodput.iter().sum::<f64>() / c.per_flow_goodput.len() as f64 / 1e9;
        let ideal = c.gbps as f64 / c.n as f64 * (1000.0 / 1048.0);
        println!(
            "B={:>3}G N={:>3}: queue {:>8} +- {:>8}, per-flow {:>6.2} Gb/s (ideal {:>6.2}), settle {}",
            c.gbps,
            c.n,
            human_bytes(c.queue_mean),
            human_bytes(c.queue_sd),
            mean_gbps,
            ideal,
            c.settle.map_or("never".into(), |t| format!("{t}")),
        );
    }
}

fn run_fig9(scale: Scale) {
    println!("== Fig. 9: convergence under exponential load swing 3 -> 96 -> 3 flows ==");
    let r = micro::fig9(scale);
    println!("# active-flow steps:");
    for (t, n) in &r.steps {
        println!("  t={:6.1}ms  N={n}", t.as_millis_f64());
    }
    print_series("queue (KB)", &r.queue, 40, "KB", 1e3);
    print_series("flow-0 RP rate (Gb/s)", &r.rate, 40, "Gb/s", 1e9);
}

fn run_fig11(scale: Scale) {
    println!("== Fig. 11: RoCC vs TIMELY/QCN/DCQCN/DCQCN+PI/HPCC (N=10, 40G) ==");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "scheme", "rate avg", "rate min", "rate max", "queue avg", "util"
    );
    for row in micro::fig11(scale) {
        let n = row.per_flow_rate.len() as f64;
        let avg = row.per_flow_rate.iter().sum::<f64>() / n / 1e9;
        let min = row.per_flow_rate.iter().cloned().fold(f64::MAX, f64::min) / 1e9;
        let max = row.per_flow_rate.iter().cloned().fold(f64::MIN, f64::max) / 1e9;
        println!(
            "{:>10} {:>9.2}G/s {:>9.2}G/s {:>9.2}G/s {:>12} {:>7.1}%",
            row.scheme.name(),
            avg,
            min,
            max,
            human_bytes(row.queue_mean),
            row.util_mean * 100.0
        );
    }
}

fn run_fig12a(scale: Scale) {
    println!("== Fig. 12a: multi-bottleneck fairness (expected: D0,D5 = 5 Gb/s; D1-D4 = 8.75) ==");
    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scheme", "D0", "D1", "D2", "D3", "D4", "D5"
    );
    for row in micro::fig12a(scale) {
        print!("{:>10}", row.scheme.name());
        for t in &row.throughput {
            print!(" {:>8.2}", t / 1e9);
        }
        println!("   (Gb/s)");
    }
}

fn run_fig12b(scale: Scale) {
    println!("== Fig. 12b: asymmetric-topology fairness (expected: all 14.29 Gb/s) ==");
    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scheme", "D0", "D1", "D2", "D3", "D4", "D5", "D6"
    );
    for row in micro::fig12b(scale) {
        print!("{:>10}", row.scheme.name());
        for t in &row.throughput {
            print!(" {:>8.2}", t / 1e9);
        }
        println!("   (Gb/s)");
    }
}

fn run_fig13(scale: Scale) {
    println!("== Fig. 13: DPDK-testbed profile vs clean simulation (3x10G sources) ==");
    for r in micro::fig13(scale) {
        let rates: Vec<String> = r.goodput.iter().map(|g| format!("{:.2}", g / 1e9)).collect();
        println!(
            "{:>8}-{:<4} queue mean {:>8}  per-flow Gb/s [{}]",
            r.profile,
            r.scenario,
            human_bytes(r.queue_mean),
            rates.join(", ")
        );
    }
    println!("(expected: queue stabilizes at 75 KB in all four; uni -> ~3.2 Gb/s each; mix -> ~6/3/1 Gb/s)");
}

fn print_fct_table(results: &[SchemeFcts], which: &str) {
    let bins: Vec<u64> = results[0].bins.iter().map(|b| b.bin).collect();
    print!("{:>10}", "scheme");
    for b in &bins {
        print!(" {:>9}", size_label(*b));
    }
    println!();
    for r in results {
        print!("{:>10}", r.scheme.name());
        for b in &r.bins {
            let stat = match which {
                "avg" => b.avg,
                "p90" => b.p90,
                _ => b.p99,
            };
            if b.count == 0 {
                print!(" {:>9}", "-");
            } else {
                print!(" {:>9.3}", stat.mean * 1e3);
            }
        }
        println!("   (FCT ms, {which})");
    }
}

fn run_fct(scale: Scale, which: &str, fig: &str, sup: &Supervisor) -> Vec<CampaignReport> {
    println!("== {fig}: {which} FCT by flow size, 70% load, DCQCN vs HPCC vs RoCC ==");
    let mut reports = Vec::new();
    for wl in [Workload::WebSearch, Workload::FbHadoop] {
        println!("-- {} --", wl.name());
        let (res, rep) = fct_comparison_supervised(wl, 0.7, scale, BufferRegime::Pfc, sup);
        print_fct_table(&res, which);
        reports.push(rep);
    }
    reports
}

/// One pass over both workloads printing Figs. 14/15/16 + Table 3 + the
/// Fig. 17 side data — the efficient path for paper-scale runs.
fn run_fct_all(scale: Scale, sup: &Supervisor) -> Vec<CampaignReport> {
    println!("== Figs. 14-16 + Table 3 + Fig. 17, one pass, 70% load ==");
    let mut reports = Vec::new();
    for wl in [Workload::WebSearch, Workload::FbHadoop] {
        println!("-- {} --", wl.name());
        let (res, rep) = fct_comparison_supervised(wl, 0.7, scale, BufferRegime::Pfc, sup);
        reports.push(rep);
        for which in ["avg", "p90", "p99"] {
            print_fct_table(&res, which);
        }
        if wl == Workload::FbHadoop {
            println!("Table 3 (flow-level rate allocation):");
            for row in table3(&res) {
                println!(
                    "  {:>8}: {:>10.2} +- {:>10.2} Mb/s",
                    row.scheme.name(),
                    row.mean_bps / 1e6,
                    row.std_bps / 1e6
                );
            }
        } else {
            println!("Fig. 17 (queues KB core/ingress/egress, PFC counts):");
            for r in &res {
                println!(
                    "  {:>8}: q {:>8.1}/{:>8.1}/{:>8.1}  pfc {:>6.1}/{:>6.1}/{:>6.1}",
                    r.scheme.name(),
                    r.queues[0] / 1e3,
                    r.queues[1] / 1e3,
                    r.queues[2] / 1e3,
                    r.pfc[0],
                    r.pfc[1],
                    r.pfc[2]
                );
            }
        }
    }
    reports
}

fn run_table3(scale: Scale, sup: &Supervisor) -> Vec<CampaignReport> {
    println!("== Table 3: flow-level rate allocation, FB_Hadoop at 70% ==");
    let (res, rep) = fct_comparison_supervised(Workload::FbHadoop, 0.7, scale, BufferRegime::Pfc, sup);
    println!("{:>10} {:>16} {:>16}", "scheme", "avg rate (Mb/s)", "std dev (Mb/s)");
    for row in table3(&res) {
        println!(
            "{:>10} {:>16.2} {:>16.2}",
            row.scheme.name(),
            row.mean_bps / 1e6,
            row.std_bps / 1e6
        );
    }
    vec![rep]
}

fn run_fig17(scale: Scale, sup: &Supervisor) -> Vec<CampaignReport> {
    println!("== Fig. 17: avg queue size & PFC activation by CP class, WebSearch 70% ==");
    let (res, rep) = fct_comparison_supervised(Workload::WebSearch, 0.7, scale, BufferRegime::Pfc, sup);
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "scheme", "q-core", "q-ingress", "q-egress", "pfc-core", "pfc-ingr", "pfc-egr"
    );
    for r in &res {
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>10.1} {:>10.1} {:>10.1}",
            r.scheme.name(),
            human_bytes(r.queues[0]),
            human_bytes(r.queues[1]),
            human_bytes(r.queues[2]),
            r.pfc[0],
            r.pfc[1],
            r.pfc[2]
        );
    }
    vec![rep]
}

fn run_fold(
    scale: Scale,
    regime: BufferRegime,
    fig: &str,
    label: &str,
    sup: &Supervisor,
) -> Vec<CampaignReport> {
    println!("== {fig}: {label}, FB_Hadoop 70% ==");
    let (base, rep_base) =
        fct_comparison_supervised(Workload::FbHadoop, 0.7, scale, BufferRegime::Pfc, sup);
    let (alt, rep_alt) = fct_comparison_supervised(Workload::FbHadoop, 0.7, scale, regime, sup);
    for row in fold_increase(&base, &alt) {
        print!("{:>10}", row.scheme.name());
        for (bin, fct, fold) in &row.bins {
            print!(" {}:{:.2}ms({:.1}x)", size_label(*bin), fct * 1e3, fold);
        }
        println!();
        println!(
            "{:>10}  retx share {:.2}%, drops {}",
            "",
            row.retx_fraction * 100.0,
            row.drops
        );
    }
    vec![rep_base, rep_alt]
}

fn run_fig19(scale: Scale) {
    println!("== Fig. 19 (A.1): DCQCN & HPCC verification — staggered 4-flow convergence ==");
    for run in micro::fig19(scale) {
        println!("-- {} --", run.scheme.name());
        let len = run.flow_series[0].len();
        for i in (0..len).step_by((len / 16).max(1)) {
            let t = run.flow_series[0][i].t;
            let vals: Vec<String> = run
                .flow_series
                .iter()
                .map(|s| format!("{:5.1}", s[i].v / 1e9))
                .collect();
            println!("  t={:7.1}ms  [{}] Gb/s", t.as_millis_f64(), vals.join(" "));
        }
    }
}

fn run_ablation() {
    use rocc_experiments::ablation;
    println!("== Ablations: RoCC design choices (DESIGN.md §5) ==");
    let print = |rs: &[ablation::AblationResult]| {
        for r in rs {
            println!(
                "{:>22}: settle {:>9}, queue {:>8} +- {:>8}, fairness {:.4}, CNPs {:>7}, goodput {:>5.2} Gb/s",
                r.variant,
                r.settle.map_or("never".into(), |t| format!("{t}")),
                human_bytes(r.queue_mean),
                human_bytes(r.queue_sd),
                r.fairness,
                r.cnps,
                r.mean_goodput / 1e9,
            );
        }
    };
    println!("-- auto-tuning (N = 64) --");
    print(&ablation::ablate_auto_tune(64));
    println!("-- multiplicative decrease (N = 10) --");
    print(&ablation::ablate_md(10));
    println!("-- flow-table policy (N = 10) --");
    print(&ablation::ablate_flow_table(10));
    println!("-- CNP prioritization (N = 10) --");
    print(&ablation::ablate_cnp_priority(10));
}

fn run_chaos(scale: Scale, sup: &Supervisor) -> Vec<CampaignReport> {
    use rocc_experiments::chaos;
    println!("== Chaos: RoCC vs DCQCN under CNP loss (finite flows, 40G dumbbell) ==");
    println!(
        "{:>10} {:>9} {:>11} {:>12} {:>12} {:>12} {:>10}",
        "scheme", "cnp-loss", "completed", "mean FCT", "max FCT", "goodput", "cnps-lost"
    );
    let (cells, rep) = chaos::cnp_loss_sweep_supervised(scale, sup);
    for c in cells.iter().flatten() {
        println!(
            "{:>10} {:>8.1}% {:>8}/{:<2} {:>9.3}ms {:>9.3}ms {:>9.2}G/s {:>10}",
            c.scheme.name(),
            c.cnp_loss * 100.0,
            c.completed,
            c.flows,
            c.mean_fct_ms,
            c.max_fct_ms,
            c.mean_goodput_bps / 1e9,
            c.ctrl_lost
        );
    }
    println!("== Chaos: total CNP blackout — fast recovery back to line rate ==");
    let b = chaos::cnp_blackout(scale);
    println!(
        "throttled at {:.1} Gb/s; blackout from {}; recovered to {:.1} Gb/s ({} CNPs destroyed)",
        b.pre_blackout_gbps, b.blackout_start, b.post_recovery_gbps, b.cnps_lost
    );
    print_series("flow-0 RP rate (Gb/s)", &b.rate, 8, "Gb/s", 1e9);
    println!("== Chaos: PFC pause storm — watchdog pause pressure by scheme ==");
    println!(
        "{:>10} {:>11} {:>12} {:>8} {:>10} {:>14}",
        "scheme", "completed", "max-paused", "depth", "victims", "victim FCT"
    );
    for c in chaos::pause_storm(scale) {
        println!(
            "{:>10} {:>8}/{:<2} {:>11.1}% {:>8} {:>10} {:>11.3}ms",
            c.scheme.map(|s| s.name()).unwrap_or("none"),
            c.completed,
            c.flows,
            c.max_pause_fraction * 100.0,
            c.max_pause_depth,
            c.victims.len(),
            c.victim_fct_ms
        );
    }
    println!("== Chaos: PFC ring deadlock probe (5-switch cyclic buffer dependency) ==");
    for c in chaos::deadlock_probe() {
        if c.cycle_len > 0 {
            println!(
                "{:>10}: DEADLOCK — {}-node pause cycle confirmed at {:.1} µs",
                c.scheme, c.cycle_len, c.detected_at_us
            );
        } else {
            println!(
                "{:>10}: {}",
                c.scheme,
                if c.completed { "all flows completed" } else { "stalled without a cycle" }
            );
        }
        println!("{:>12}{}", "", c.verdict_json);
    }
    vec![rep]
}

fn run_table1() {
    println!("== Table 1: comparison of selected congestion control solutions ==");
    for r in table1::table1() {
        println!(
            "{:>8} | switch: {:<34} | source: {:<46} | dest: {}",
            r.solution, r.switch_action, r.source_action, r.destination_action
        );
    }
}

/// Print campaign reports for failed campaigns to stderr and exit nonzero.
///
/// The uniform failure contract for every supervised subcommand: partial
/// results have already been printed/written, the report JSON names each
/// failed cell, and the exit status tells CI the campaign degraded.
fn finish(reports: &[CampaignReport]) {
    let failed: Vec<&CampaignReport> = reports.iter().filter(|r| !r.all_ok()).collect();
    if failed.is_empty() {
        return;
    }
    for r in failed {
        eprintln!("{}", r.to_json());
    }
    std::process::exit(1);
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    // `--fail-fast` / `--keep-going` may appear anywhere; last one wins.
    // Default is keep-going: run every cell, report failures at the end.
    let mut fail_fast = false;
    args.retain(|a| match a.as_str() {
        "--fail-fast" => {
            fail_fast = true;
            false
        }
        "--keep-going" => {
            fail_fast = false;
            false
        }
        _ => true,
    });
    let exp = args.get(1).map(String::as_str).unwrap_or("help");
    let sup = Supervisor::new(ExecMode::Parallel).with_fail_fast(fail_fast);
    let all = [
        "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig11", "fig12a", "fig12b",
        "fig13", "fig14", "fig15", "fig16", "table3", "fig17", "fig18", "fig19", "fig20",
        "ablation", "chaos",
    ];
    let run_one = |name: &str, scale: Scale| -> Vec<CampaignReport> {
        match name {
        "fig5" => {
            run_fig5();
            Vec::new()
        }
        "fig6" => {
            run_fig6();
            Vec::new()
        }
        "fig7" => {
            run_fig7();
            Vec::new()
        }
        "fig8" => {
            run_fig8(scale);
            Vec::new()
        }
        "fig9" => {
            run_fig9(scale);
            Vec::new()
        }
        "fig11" => {
            run_fig11(scale);
            Vec::new()
        }
        "fig12a" => {
            run_fig12a(scale);
            Vec::new()
        }
        "fig12b" => {
            run_fig12b(scale);
            Vec::new()
        }
        "fig13" => {
            run_fig13(scale);
            Vec::new()
        }
        "fct" => run_fct_all(scale, &sup),
        "fig14" => run_fct(scale, "avg", "Fig. 14", &sup),
        "fig15" => run_fct(scale, "p90", "Fig. 15", &sup),
        "fig16" => run_fct(scale, "p99", "Fig. 16", &sup),
        "table3" => run_table3(scale, &sup),
        "fig17" => run_fig17(scale, &sup),
        "fig18" => run_fold(
            scale,
            BufferRegime::Unlimited,
            "Fig. 18",
            "PFC off + unlimited buffer",
            &sup,
        ),
        "fig19" => {
            run_fig19(scale);
            Vec::new()
        }
        "fig20" => run_fold(scale, BufferRegime::Lossy3x, "Fig. 20", "lossy + go-back-N", &sup),
        "table1" => {
            run_table1();
            Vec::new()
        }
        "ablation" => {
            run_ablation();
            Vec::new()
        }
        "chaos" => run_chaos(scale, &sup),
        "probe" => {
            // Hidden: one paper-scale fat-tree run, for timing/feasibility.
            use rocc_experiments::fct::{run_fat_tree, FatTreeConfig};
            use rocc_experiments::Scheme;
            let cfg = FatTreeConfig::for_scale(Scale::Paper);
            let t0 = std::time::Instant::now();
            let out = run_fat_tree(
                Scheme::Rocc,
                Workload::FbHadoop,
                0.7,
                &cfg,
                BufferRegime::Pfc,
                1,
            );
            println!(
                "paper-scale RoCC FB_Hadoop: {} flows, completed={}, wall {:?}",
                out.fcts.len(),
                out.all_completed,
                t0.elapsed()
            );
            Vec::new()
        }
        other => unreachable!("experiment {other} not checked against `all`"),
        }
    };
    match exp {
        "trace" => {
            let scenario = args.get(2).map(String::as_str).unwrap_or("incast");
            let dir = args.get(3).map(String::as_str).unwrap_or("trace_out");
            let scale = arg(&args, 4, Scale::Quick, SCALE);
            let names: Vec<&str> = if scenario == "all" {
                rocc_experiments::trace::SCENARIOS.to_vec()
            } else {
                vec![scenario]
            };
            for name in names {
                let Some(r) = rocc_experiments::trace::run(name, scale) else {
                    eprintln!("unknown trace scenario: {name}");
                    eprintln!(
                        "scenarios: {} all",
                        rocc_experiments::trace::SCENARIOS.join(" ")
                    );
                    std::process::exit(2);
                };
                let timeline = format!("{dir}/trace_{name}.jsonl");
                let summary = format!("{dir}/trace_{name}_summary.json");
                if let Err(e) = write_artifact(&timeline, &r.timeline_jsonl())
                    .and_then(|()| write_artifact(&summary, &r.summary_json))
                {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
                println!(
                    "{name}: {} events ({} drop, {} pfc, {} cnp, {} cp_decision, {} rp_transition, {} fault), {}/{} flows completed",
                    r.events.len(),
                    r.counts.drop,
                    r.counts.pfc,
                    r.counts.cnp,
                    r.counts.cp_decision,
                    r.counts.rp_transition,
                    r.counts.fault,
                    r.completed,
                    r.flows,
                );
                println!("  wrote {timeline}");
                println!("  wrote {summary}");
            }
        }
        "observe" => {
            let scenario = args.get(2).map(String::as_str).unwrap_or("incast");
            let dir = args.get(3).map(String::as_str).unwrap_or("observatory_out");
            let scale = arg(&args, 4, Scale::Quick, SCALE);
            let seed = arg(&args, 5, observatory::GOLDEN_SEED, COUNT);
            let Some(run) = observatory::observe(scenario, scale, seed) else {
                eprintln!("unknown observe scenario: {scenario}");
                eprintln!("scenarios: {}", observatory::SCENARIOS.join(" "));
                std::process::exit(2);
            };
            println!(
                "{scenario}: seed {seed}, {}/{} flows completed, {} metric rows",
                run.completed,
                run.flows,
                run.metrics_jsonl.lines().count(),
            );
            match run.write_artifacts(dir) {
                Ok(paths) => {
                    for p in paths {
                        println!("  wrote {p}");
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
            if !run.verdict.is_complete() {
                eprintln!("{}", run.verdict.to_json());
                std::process::exit(1);
            }
        }
        "profile" => {
            let scenario = args.get(2).map(String::as_str).unwrap_or("incast");
            let dir = args.get(3).map(String::as_str).unwrap_or("profile_out");
            let scale = arg(&args, 4, Scale::Quick, SCALE);
            let seed = arg(&args, 5, observatory::GOLDEN_SEED, COUNT);
            let Some(run) = rocc_experiments::profiling::profile(scenario, scale, seed) else {
                eprintln!("unknown profile scenario: {scenario}");
                eprintln!(
                    "scenarios: {}",
                    rocc_experiments::profiling::SCENARIOS.join(" ")
                );
                std::process::exit(2);
            };
            println!(
                "{scenario}: seed {seed}, {}/{} flows completed, {} events in {:.3}s = {:.0} events/sec",
                run.completed,
                run.flows,
                run.events,
                run.wall_seconds,
                run.events_per_sec(),
            );
            print!("{}", run.render_table());
            let sum = run.share_sum();
            println!("phase share sum: {:.2}% of measured wall", 100.0 * sum);
            match run.write_artifacts(dir) {
                Ok(paths) => {
                    for p in paths {
                        println!("  wrote {p}");
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
            if (sum - 1.0).abs() >= 0.05 {
                eprintln!("phase shares sum to {sum:.4}, outside the 5% acceptance band");
                std::process::exit(1);
            }
            if !run.verdict.is_complete() {
                eprintln!("{}", run.verdict.to_json());
                std::process::exit(1);
            }
        }
        "sweep" => {
            let scenario = args.get(2).map(String::as_str).unwrap_or("incast");
            let dir = args.get(3).map(String::as_str).unwrap_or("sweep_out");
            let scale = arg(&args, 4, Scale::Quick, SCALE);
            let nseeds: u64 = arg(&args, 5, 4, COUNT);
            let mode = arg(&args, 6, ExecMode::Parallel, (ExecMode::parse, "serial parallel"));
            let seeds: Vec<u64> =
                (0..nseeds).map(|i| observatory::GOLDEN_SEED + i).collect();
            let journal = format!("{dir}/checkpoint.jsonl");
            let snapshots = SnapshotStore::new(format!("{dir}/snapshots"));
            let sweep_sup = Supervisor::new(mode)
                .with_fail_fast(fail_fast)
                .with_journal(&journal);
            let Some(out) =
                observatory::sweep_with_snapshots(scenario, scale, &seeds, &sweep_sup, &snapshots)
            else {
                eprintln!("unknown sweep scenario: {scenario}");
                eprintln!("scenarios: {}", observatory::SCENARIOS.join(" "));
                std::process::exit(2);
            };
            let rep = &out.report;
            println!(
                "{scenario}: {} cells ({} ok, {} cached from {journal})",
                rep.total, rep.ok, rep.cached
            );
            let writes = [
                (format!("{dir}/aggregate.json"), out.aggregate_json()),
                (format!("{dir}/failure_report.json"), rep.to_json() + "\n"),
                (format!("{dir}/quarantine.json"), rep.quarantine_json() + "\n"),
            ];
            for (path, doc) in &writes {
                if let Err(e) = write_artifact(path, doc) {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
                println!("  wrote {path}");
            }
            finish(std::slice::from_ref(rep));
        }
        "snapshot" => {
            let mode = args.get(2).map(String::as_str).unwrap_or("");
            let usage = "usage: repro snapshot save <file> [scenario] [quick|paper] [seed] [events]\n\
                         \x20      repro snapshot restore <file> [scenario] [quick|paper] [seed]\n\
                         \x20      repro snapshot inspect <file>";
            let Some(file) = args.get(3).map(String::as_str) else {
                eprintln!("{usage}");
                std::process::exit(2);
            };
            let scenario = args.get(4).map(String::as_str).unwrap_or("incast");
            let scale = arg(&args, 5, Scale::Quick, SCALE);
            let seed: u64 = arg(&args, 6, observatory::GOLDEN_SEED, COUNT);
            match mode {
                "save" => {
                    let events: u64 = arg(&args, 7, 20_000, COUNT);
                    let Some((mut sim, _, _)) =
                        observatory::scenario_sim(scenario, scale, seed)
                    else {
                        eprintln!("unknown snapshot scenario: {scenario}");
                        std::process::exit(2);
                    };
                    sim.run_until_event(events);
                    let bytes = sim.snapshot();
                    if let Some(parent) = std::path::Path::new(file).parent() {
                        std::fs::create_dir_all(parent).ok();
                    }
                    if let Err(e) = std::fs::write(file, &bytes) {
                        eprintln!("cannot write {file}: {e}");
                        std::process::exit(1);
                    }
                    println!(
                        "wrote {file}: {} bytes at event {} (t={} ns)",
                        bytes.len(),
                        sim.events_processed(),
                        sim.kernel.now.as_nanos(),
                    );
                }
                "restore" => {
                    let bytes = match std::fs::read(file) {
                        Ok(b) => b,
                        Err(e) => {
                            eprintln!("cannot read {file}: {e}");
                            std::process::exit(1);
                        }
                    };
                    let Some((mut sim, flows, horizon)) =
                        observatory::scenario_sim(scenario, scale, seed)
                    else {
                        eprintln!("unknown snapshot scenario: {scenario}");
                        std::process::exit(2);
                    };
                    if let Err(e) = sim.restore(&bytes) {
                        eprintln!("restore failed: {e}");
                        std::process::exit(1);
                    }
                    let verdict = sim.run_until_flows_done(horizon);
                    let resumed = observatory::digest(&sim.trace.observatory_jsonl());
                    println!(
                        "resumed {scenario}: {}/{flows} flows completed, metrics digest {resumed}",
                        sim.trace.fcts.len(),
                    );
                    // Control: the same run uninterrupted. Identical
                    // metrics prove the snapshot changed nothing.
                    let control = observatory::observe(scenario, scale, seed)
                        .expect("scenario validated above");
                    let control_digest = observatory::digest(&control.metrics_jsonl);
                    if resumed == control_digest && verdict.err().is_none() {
                        println!("MATCH: resumed run is byte-identical to the uninterrupted control");
                    } else {
                        eprintln!(
                            "MISMATCH: control digest {control_digest}, resumed {resumed}"
                        );
                        std::process::exit(1);
                    }
                }
                "inspect" => {
                    let bytes = match std::fs::read(file) {
                        Ok(b) => b,
                        Err(e) => {
                            eprintln!("cannot read {file}: {e}");
                            std::process::exit(1);
                        }
                    };
                    match rocc_sim::snapshot::sections(&bytes) {
                        Ok((info, sections)) => {
                            println!("{file}: {}", rocc_sim::snapshot::SNAPSHOT_FORMAT);
                            println!("  seed:             {}", info.seed);
                            println!("  config digest:    {:016x}", info.config_digest);
                            println!("  sim time:         {} ns", info.now_ns);
                            println!("  events processed: {}", info.events_processed);
                            println!(
                                "  size:             {} bytes ({} body)",
                                info.total_len, info.body_len
                            );
                            println!("  sections:         {}", sections.len());
                            for (name, payload) in sections {
                                println!(
                                    "    {name:<12} {:>9} bytes  digest {:016x}",
                                    payload.len(),
                                    rocc_stats::digest::fnv1a_64(payload)
                                );
                            }
                        }
                        Err(e) => {
                            eprintln!("{file}: invalid snapshot: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                other => {
                    eprintln!("unknown snapshot mode: {other}\n{usage}");
                    std::process::exit(2);
                }
            }
        }
        "compare" => {
            let (Some(a), Some(b)) = (args.get(2), args.get(3)) else {
                eprintln!("usage: repro compare <runA dir|metrics.jsonl> <runB dir|metrics.jsonl>");
                std::process::exit(2);
            };
            let (sa, sb) = match (observatory::load_summary(a), observatory::load_summary(b)) {
                (Ok(sa), Ok(sb)) => (sa, sb),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            };
            let report = observatory::compare(&sa, &sb);
            print!("{}", report.render());
            println!("{}", report.to_json());
            if !report.pass() {
                std::process::exit(1);
            }
        }
        "diverge" => {
            use rocc_experiments::diverge::{self, DivergeSpec};
            use rocc_sim::digest::BisectOutcome;
            let usage = "usage: repro diverge <specA> <specB> [scenario] [dir] [quick|paper] [seed] [max_events]\n\
                         \x20      repro diverge record <spec> <out.jsonl> [scenario] [quick|paper] [seed] [stride]\n\
                         \x20      repro diverge ledgers <a.jsonl> <b.jsonl>\n\
                         specs: clean | flip@<event> (inject an RP rate bit-flip after that many\n\
                         dispatched events); scenarios: chaos incast";
            match args.get(2).map(String::as_str) {
                Some("record") => {
                    let (Some(spec), Some(out)) = (args.get(3), args.get(4)) else {
                        eprintln!("{usage}");
                        std::process::exit(2);
                    };
                    let Some(spec) = DivergeSpec::parse(spec) else {
                        eprintln!("bad spec: {spec}\n{usage}");
                        std::process::exit(2);
                    };
                    let scenario = args.get(5).map(String::as_str).unwrap_or("chaos");
                    let scale = arg(&args, 6, Scale::Quick, SCALE);
                    let seed: u64 = arg(&args, 7, observatory::GOLDEN_SEED, COUNT);
                    let stride: u64 = arg(&args, 8, diverge::DEFAULT_LEDGER_STRIDE, COUNT);
                    match diverge::record_ledger(spec, scenario, scale, seed, stride) {
                        Ok(jsonl) => {
                            let rows = jsonl.lines().count();
                            if let Err(e) = write_artifact(out, &jsonl) {
                                eprintln!("{e}");
                                std::process::exit(1);
                            }
                            println!(
                                "wrote {out}: {rows} digest rows (stride {stride}, {} seed {seed})",
                                spec.label(),
                            );
                        }
                        Err(e) => {
                            eprintln!("{e}");
                            std::process::exit(2);
                        }
                    }
                }
                Some("ledgers") => {
                    let (Some(pa), Some(pb)) = (args.get(3), args.get(4)) else {
                        eprintln!("{usage}");
                        std::process::exit(2);
                    };
                    let read = |p: &str| {
                        std::fs::read_to_string(p).unwrap_or_else(|e| {
                            eprintln!("cannot read {p}: {e}");
                            std::process::exit(1);
                        })
                    };
                    let (ta, tb) = (read(pa), read(pb));
                    let (div, (torn_a, torn_b)) = diverge::diverge_ledgers(&ta, &tb);
                    if torn_a {
                        eprintln!("note: {pa} has a torn tail line (skipped)");
                    }
                    if torn_b {
                        eprintln!("note: {pb} has a torn tail line (skipped)");
                    }
                    match div {
                        Some(d) => {
                            println!(
                                "DIVERGED at ledger row event {} (t_a {} ns, t_b {} ns): {}",
                                d.events,
                                d.t_ns_a,
                                d.t_ns_b,
                                d.components.join(", "),
                            );
                            println!(
                                "(ledger rows bound the divergence to one stride; \
                                 run `repro diverge` on the specs to pin the exact event)"
                            );
                            std::process::exit(1);
                        }
                        None => println!("ledgers agree on every comparable row"),
                    }
                }
                Some(sa) => {
                    let Some(sb) = args.get(3).map(String::as_str) else {
                        eprintln!("{usage}");
                        std::process::exit(2);
                    };
                    let (Some(spec_a), Some(spec_b)) =
                        (DivergeSpec::parse(sa), DivergeSpec::parse(sb))
                    else {
                        eprintln!("bad spec: {sa} / {sb}\n{usage}");
                        std::process::exit(2);
                    };
                    let scenario = args.get(4).map(String::as_str).unwrap_or("chaos");
                    let dir = args.get(5).map(String::as_str).unwrap_or("diverge_out");
                    let scale = arg(&args, 6, Scale::Quick, SCALE);
                    let seed: u64 = arg(&args, 7, observatory::GOLDEN_SEED, COUNT);
                    let max_events: u64 = arg(&args, 8, diverge::DEFAULT_MAX_EVENTS, COUNT);
                    let r = match diverge::diverge(
                        spec_a, spec_b, scenario, scale, seed, max_events,
                    ) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("{e}\n{usage}");
                            std::process::exit(2);
                        }
                    };
                    if r.swapped {
                        println!(
                            "(specs swapped: perturbed run is side B = {})",
                            r.spec_b.label()
                        );
                    }
                    match r.outcome {
                        BisectOutcome::Identical { events } => {
                            println!(
                                "IDENTICAL: {} and {} agree on every component digest through {events} events ({scenario}, seed {seed})",
                                r.spec_a.label(),
                                r.spec_b.label(),
                            );
                        }
                        BisectOutcome::Diverged(rep) => {
                            println!(
                                "DIVERGED ({scenario}, seed {seed}, a={} b={}): {}",
                                r.spec_a.label(),
                                r.spec_b.label(),
                                rep.summary(),
                            );
                            if let Some(e) = &rep.event_a {
                                println!("  event a: {e}");
                            }
                            if let Some(e) = &rep.event_b {
                                println!("  event b: {e}");
                            }
                            let path = format!("{dir}/divergence_report.json");
                            if let Err(e) = write_artifact(&path, &rep.to_json()) {
                                eprintln!("{e}");
                                std::process::exit(1);
                            }
                            println!("  wrote {path}");
                            std::process::exit(1);
                        }
                    }
                }
                None => {
                    eprintln!("{usage}");
                    std::process::exit(2);
                }
            }
        }
        "golden" => {
            let mode = args.get(2).map(String::as_str).unwrap_or("check");
            let path = args
                .get(3)
                .map(String::as_str)
                .unwrap_or("golden/observatory.json");
            match mode {
                "write" => {
                    let doc = observatory::golden_json(&observatory::golden_run());
                    if let Err(e) = write_artifact(path, &doc) {
                        eprintln!("{e}");
                        std::process::exit(1);
                    }
                    println!("wrote {path}");
                }
                "check" => match observatory::golden_check(path) {
                    Ok(msg) => println!("{msg}"),
                    Err(msg) => {
                        eprintln!("{msg}");
                        std::process::exit(1);
                    }
                },
                other => {
                    eprintln!("unknown golden mode: {other} (expected check|write)");
                    std::process::exit(2);
                }
            }
        }
        "dump" => {
            let dir = args.get(2).map(String::as_str).unwrap_or("repro_data");
            let scale = arg(&args, 3, Scale::Quick, SCALE);
            match rocc_experiments::csv::dump_all(std::path::Path::new(dir), scale) {
                Ok(files) => {
                    println!("wrote {} CSV files to {dir}/:", files.len());
                    for f in files {
                        println!("  {f}");
                    }
                }
                Err(e) => {
                    eprintln!("dump failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "all" => {
            let scale = arg(&args, 2, Scale::Quick, SCALE);
            let mut reports = Vec::new();
            for name in all {
                reports.extend(run_one(name, scale));
                println!();
            }
            finish(&reports);
        }
        "help" | "--help" | "-h" => {
            println!("usage: repro <experiment|all> [quick|paper] [--fail-fast|--keep-going]");
            println!("       repro dump <dir> [quick|paper]   (plot-ready CSVs)");
            println!("       repro trace <scenario|all> [dir] [quick|paper]   (telemetry timeline + summary)");
            println!("       repro observe <scenario> [dir] [quick|paper] [seed]   (metrics JSONL + Perfetto trace + manifest)");
            println!("       repro profile <scenario> [dir] [quick|paper] [seed]   (phase profiler: rocc-perf-profile/v1 + Perfetto engine counters)");
            println!("       repro sweep <scenario> [dir] [quick|paper] [nseeds] [serial|parallel]   (checkpointed multi-seed campaign, resumable mid-cell)");
            println!("       repro snapshot save|restore|inspect <file> [scenario] [quick|paper] [seed] [events]   (engine snapshots by hand)");
            println!("       repro compare <runA> <runB>   (cross-run fidelity gate)");
            println!("       repro diverge <specA> <specB> [scenario] [dir] [quick|paper] [seed]   (bisect two runs to the first divergent event)");
            println!("       repro diverge record <spec> <out.jsonl> | ledgers <a> <b>   (strided digest ledgers, offline diff)");
            println!("       repro golden [check|write] [path]   (pinned-run digest gate)");
            println!("supervised subcommands exit nonzero with a campaign-report JSON on any cell failure;");
            println!("--fail-fast stops scheduling new cells after the first failure (default: --keep-going)");
            println!("experiments: {}", all.join(" "));
            println!(
                "trace scenarios: {}",
                rocc_experiments::trace::SCENARIOS.join(" ")
            );
            println!(
                "observe scenarios: {}",
                observatory::SCENARIOS.join(" ")
            );
        }
        // The name before the scale, so a typo in it is reported as one.
        name if all.contains(&name) || name == "fct" || name == "probe" => {
            finish(&run_one(name, arg(&args, 2, Scale::Quick, SCALE)))
        }
        other => {
            eprintln!("unknown experiment: {other}");
            eprintln!("experiments: {}", all.join(" "));
            std::process::exit(2);
        }
    }
}
