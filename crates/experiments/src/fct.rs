//! Large-scale fat-tree experiments (§6.3 and App. A.2): flow completion
//! times by flow-size bin (Figs. 14–16), per-flow rate allocation
//! (Table 3), queue depth and PFC activation by congestion-point class
//! (Fig. 17), unlimited-buffer behaviour (Fig. 18), and the lossy
//! go-back-N study (Fig. 20).

use crate::micro::sim_with;
use crate::observatory::digest;
use crate::scenarios::{self, FatTree};
use crate::schemes::Scheme;
use crate::supervisor::{CampaignReport, FnCodec, Supervisor};
use crate::Scale;
use rocc_sim::prelude::*;
use rocc_stats::{bin_values, json, mean_ci95, percentile, MeanCi};
use rocc_workloads::{FlowSizeDist, PoissonWorkload};

/// Which workload distribution drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DCTCP WebSearch (throughput-sensitive large flows).
    WebSearch,
    /// Facebook Hadoop (latency-sensitive small flows).
    FbHadoop,
}

impl Workload {
    /// The distribution object.
    pub fn dist(self) -> FlowSizeDist {
        match self {
            Workload::WebSearch => FlowSizeDist::web_search(),
            Workload::FbHadoop => FlowSizeDist::fb_hadoop(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WebSearch => "WebSearch",
            Workload::FbHadoop => "FB_Hadoop",
        }
    }
}

/// Switch buffering regime for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferRegime {
    /// PFC-protected lossless fabric (the default, §6.3).
    Pfc,
    /// PFC off, unbounded buffers (Fig. 18).
    Unlimited,
    /// PFC off, tail-drop at 3× the PFC threshold, go-back-N recovery
    /// (Fig. 20 / App. A.2).
    Lossy3x,
}

/// Fat-tree scenario dimensions.
#[derive(Debug, Clone, Copy)]
pub struct FatTreeConfig {
    /// Hosts per edge switch (paper: 30).
    pub hosts_per_edge: usize,
    /// 100 GbE trunks per edge-core pair (paper: 2).
    pub trunks: usize,
    /// Flow-arrival window.
    pub window: SimDuration,
    /// Hard stop for the drain phase.
    pub max_drain: SimDuration,
    /// Independent repetitions (paper: 5).
    pub reps: usize,
}

impl FatTreeConfig {
    /// Dimensions for the requested scale; both preserve the paper's 2:1
    /// oversubscription and traffic pattern (edges 0/1 → edge 2).
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => FatTreeConfig {
                hosts_per_edge: 6,
                trunks: 1,
                window: SimDuration::from_millis(8),
                max_drain: SimDuration::from_millis(800),
                reps: 2,
            },
            Scale::Paper => FatTreeConfig {
                hosts_per_edge: 30,
                trunks: 2,
                window: SimDuration::from_millis(50),
                max_drain: SimDuration::from_millis(3000),
                reps: 5,
            },
        }
    }
}

/// Everything measured in one fat-tree run.
#[derive(Debug)]
pub struct RunOutput {
    /// (flow size, FCT seconds) for every completed flow.
    pub fcts: Vec<(u64, f64)>,
    /// PFC pause events at core switches.
    pub pfc_core: u64,
    /// PFC pause events at ingress edge switches (edges 0, 1).
    pub pfc_ingress: u64,
    /// PFC pause events at the egress edge switch (edge 2).
    pub pfc_egress: u64,
    /// Mean queue depth over core CP ports (bytes).
    pub q_core: f64,
    /// Mean queue depth over ingress-edge uplink ports (bytes).
    pub q_ingress: f64,
    /// Mean queue depth over egress-edge host ports (bytes).
    pub q_egress: f64,
    /// Data bytes retransmitted (go-back-N).
    pub retx_bytes: u64,
    /// Data bytes transmitted (incl. retransmissions).
    pub tx_data_bytes: u64,
    /// Packets dropped (lossy regime).
    pub drops: u64,
    /// Number of flows offered.
    pub offered_flows: usize,
    /// True if every flow completed within the drain budget.
    pub all_completed: bool,
}

// The checkpoint journal's cell record. Floats are written in their
// shortest round-trip form, so [`RunOutput::from_json`] reconstructs
// bit-identical values and a journal-replayed cell aggregates
// byte-identically to a fresh run.
json::record!(RunOutput {
    fcts,
    pfc = [pfc_core, pfc_ingress, pfc_egress],
    q = [q_core, q_ingress, q_egress],
    retx_bytes,
    tx_data_bytes,
    drops,
    offered_flows,
    all_completed,
});

impl RunOutput {
    /// Canonical single-line JSON rendering for the checkpoint journal.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Strict parse of [`RunOutput::to_json`] output. Any anomaly (torn
    /// journal line, schema drift) yields `None`, which makes the
    /// supervisor re-run the cell — always safe.
    pub fn from_json(s: &str) -> Option<RunOutput> {
        json::from_str(s)
    }
}

fn class_avg(trace: &Trace, ports: &[(NodeId, PortId)]) -> f64 {
    let vals: Vec<f64> = ports
        .iter()
        .filter_map(|&(n, p)| trace.queue_avg(n, p))
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// The simulator config a fat-tree run uses for `regime` at `seed` —
/// shared by [`run_fat_tree_verdict`] and [`fct_cell_key`] so the journal
/// key hashes exactly the config the cell runs.
pub fn fat_tree_sim_config(regime: BufferRegime, seed: u64) -> SimConfig {
    let mut sim_cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    sim_cfg.buffer_mode = match regime {
        BufferRegime::Pfc => BufferMode::LosslessPfc,
        BufferRegime::Unlimited => {
            // Without PFC or drops, deep DCQCN queues would trip the
            // go-back-N timeout spuriously; a lossless fabric does not
            // rely on timeouts, so push the RTO out of the way to isolate
            // pure queueing effects (Fig. 18's subject).
            sim_cfg.rto = SimDuration::from_millis(200);
            BufferMode::Unlimited
        }
        BufferRegime::Lossy3x => BufferMode::LossyTailDrop {
            limit_bytes: 3 * sim_cfg.pfc.xoff_40g,
        },
    };
    sim_cfg
}

/// Run one fat-tree experiment instance, discarding the typed verdict
/// (kept for callers that only consume the measurements; the supervised
/// grid uses [`run_fat_tree_verdict`]).
pub fn run_fat_tree(
    scheme: Scheme,
    workload: Workload,
    load: f64,
    cfg: &FatTreeConfig,
    regime: BufferRegime,
    seed: u64,
) -> RunOutput {
    run_fat_tree_verdict(scheme, workload, load, cfg, regime, seed).0
}

/// Run one fat-tree experiment instance and return both the measurements
/// and the run's typed verdict.
pub fn run_fat_tree_verdict(
    scheme: Scheme,
    workload: Workload,
    load: f64,
    cfg: &FatTreeConfig,
    regime: BufferRegime,
    seed: u64,
) -> (RunOutput, RunVerdict) {
    let ft: FatTree = scenarios::fat_tree(cfg.hosts_per_edge, cfg.trunks);
    let sim_cfg = fat_tree_sim_config(regime, seed);
    // Fat-tree base RTT: 4 links × 1.5 µs each way + serialization ≈ 13 µs.
    let mut sim = sim_with(ft.topo.clone(), scheme, 13, sim_cfg);
    sim.trace.sample_period = Some(SimDuration::from_micros(200));
    // Queue averages cover the loaded window only, not the drain phase.
    sim.trace.avg_until = Some(SimTime::ZERO + cfg.window);
    for &(n, p) in ft
        .core_cp_ports
        .iter()
        .chain(&ft.ingress_cp_ports)
        .chain(&ft.egress_cp_ports)
    {
        sim.trace.watch_queue_avg(n, p);
    }

    // Workload: every host behind edges 0/1 sends to hosts behind edge 2.
    let wl = PoissonWorkload {
        dist: workload.dist(),
        load,
        link_bps: 40_000_000_000,
        duration_ns: cfg.window.as_nanos(),
    };
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0x9e37);
    let mut gen = Vec::new();
    wl.generate(
        &mut rng,
        ft.senders.len(),
        ft.receivers.len(),
        false,
        &mut gen,
    );
    let offered_flows = gen.len();
    for (i, g) in gen.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: ft.senders[g.src_idx],
            dst: ft.receivers[g.dst_idx],
            size: g.size,
            start: SimTime::from_nanos(g.start_ns),
            offered: None,
        });
    }
    let verdict = sim.run_until_flows_done(SimTime::ZERO + cfg.window + cfg.max_drain);
    let all_completed = verdict.is_complete();

    // Classify PFC events by the switch that generated the pause.
    let is_core = |n: NodeId| ft.cores.contains(&n);
    let is_egress_edge = |n: NodeId| n == ft.edges[2];
    let (mut pfc_core, mut pfc_ingress, mut pfc_egress) = (0u64, 0u64, 0u64);
    for e in &sim.trace.pfc_events {
        if is_core(e.node) {
            pfc_core += 1;
        } else if is_egress_edge(e.node) {
            pfc_egress += 1;
        } else {
            pfc_ingress += 1;
        }
    }
    let out = RunOutput {
        fcts: sim
            .trace
            .fcts
            .iter()
            .map(|r| (r.size, r.fct().as_secs_f64()))
            .collect(),
        pfc_core,
        pfc_ingress,
        pfc_egress,
        q_core: class_avg(&sim.trace, &ft.core_cp_ports),
        q_ingress: class_avg(&sim.trace, &ft.ingress_cp_ports),
        q_egress: class_avg(&sim.trace, &ft.egress_cp_ports),
        retx_bytes: sim.trace.retx_bytes,
        tx_data_bytes: sim.trace.tx_data_bytes,
        drops: sim.trace.drops,
        offered_flows,
        all_completed,
    };
    (out, verdict)
}

/// FCT statistics for one flow-size bin, aggregated over repetitions.
#[derive(Debug, Clone, Copy)]
pub struct FctBinStat {
    /// Bin edge (bytes).
    pub bin: u64,
    /// Mean FCT (seconds) ± 95% CI over repetitions.
    pub avg: MeanCi,
    /// 90th-percentile FCT ± CI.
    pub p90: MeanCi,
    /// 99th-percentile FCT ± CI.
    pub p99: MeanCi,
    /// Total flows in the bin across repetitions.
    pub count: usize,
}

/// One scheme's FCT table plus the side observations reused by Figs. 17,
/// 18, 20 and Table 3.
#[derive(Debug)]
pub struct SchemeFcts {
    /// The scheme.
    pub scheme: Scheme,
    /// Per-bin statistics (bins from the workload's published axis).
    pub bins: Vec<FctBinStat>,
    /// Per-flow average rate = size/FCT, pooled across reps (bits/s).
    pub flow_rates: Vec<f64>,
    /// PFC counts per class, averaged over reps.
    pub pfc: [f64; 3],
    /// Average queue depth per class (core, ingress, egress; bytes).
    pub queues: [f64; 3],
    /// Retransmitted-bytes fraction of transmitted data bytes.
    pub retx_fraction: f64,
    /// Total drops, summed over reps.
    pub drops: u64,
    /// True if all reps drained completely.
    pub all_completed: bool,
}

impl SchemeFcts {
    /// Canonical JSON rendering: fixed field order, shortest-roundtrip
    /// float formatting. Two runs that computed bit-identical statistics
    /// produce byte-identical strings, which the determinism suite
    /// compares directly.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("scheme", self.scheme.name())
                .objects("bins", &self.bins, |o, b| {
                    o.field("bin", &b.bin)
                        .field("avg", &b.avg.mean)
                        .field("avg_ci", &b.avg.ci95)
                        .field("p90", &b.p90.mean)
                        .field("p90_ci", &b.p90.ci95)
                        .field("p99", &b.p99.mean)
                        .field("p99_ci", &b.p99.ci95)
                        .field("count", &b.count);
                })
                .field("flow_rates", &self.flow_rates)
                .field("pfc", &self.pfc)
                .field("queues", &self.queues)
                .field("retx_fraction", &self.retx_fraction)
                .field("drops", &self.drops)
                .field("all_completed", &self.all_completed);
        })
    }
}

/// Seed for repetition `rep`.
fn rep_seed(rep: usize) -> u64 {
    1000 + rep as u64
}

/// Fold per-repetition outputs (in repetition order) into one scheme row.
pub fn aggregate_outputs(
    scheme: Scheme,
    workload: Workload,
    cfg: &FatTreeConfig,
    outputs: &[RunOutput],
) -> SchemeFcts {
    let edges = workload.dist().report_bins();
    let mut per_rep_avg: Vec<Vec<f64>> = vec![Vec::new(); edges.len()];
    let mut per_rep_p90: Vec<Vec<f64>> = vec![Vec::new(); edges.len()];
    let mut per_rep_p99: Vec<Vec<f64>> = vec![Vec::new(); edges.len()];
    let mut counts = vec![0usize; edges.len()];
    let mut flow_rates = Vec::new();
    let mut pfc = [0.0f64; 3];
    let mut queues = [0.0f64; 3];
    let (mut retx, mut tx, mut drops) = (0u64, 0u64, 0u64);
    let mut all_completed = true;
    for out in outputs {
        all_completed &= out.all_completed;
        let binned = bin_values(
            &edges,
            out.fcts.iter().map(|&(size, fct)| (size, fct)),
        );
        for (i, b) in binned.iter().enumerate() {
            counts[i] += b.len();
            if let Some(s) = rocc_stats::summarize(b) {
                per_rep_avg[i].push(s.mean);
            }
            if let Ok(p) = percentile(b, 0.90) {
                per_rep_p90[i].push(p);
            }
            if let Ok(p) = percentile(b, 0.99) {
                per_rep_p99[i].push(p);
            }
        }
        // Table 3 records flow-level rates "at sources"; size/FCT is a
        // faithful proxy only for flows that live through many update
        // intervals — short flows finish inside one rate plateau and their
        // size/FCT mostly measures serialization + base RTT, which would
        // swamp the allocation variance the table is about.
        flow_rates.extend(
            out.fcts
                .iter()
                .filter(|&&(size, fct)| fct > 0.0 && size >= 50_000)
                .map(|&(size, fct)| size as f64 * 8.0 / fct),
        );
        pfc[0] += out.pfc_core as f64 / cfg.reps as f64;
        pfc[1] += out.pfc_ingress as f64 / cfg.reps as f64;
        pfc[2] += out.pfc_egress as f64 / cfg.reps as f64;
        queues[0] += out.q_core / cfg.reps as f64;
        queues[1] += out.q_ingress / cfg.reps as f64;
        queues[2] += out.q_egress / cfg.reps as f64;
        retx += out.retx_bytes;
        tx += out.tx_data_bytes;
        drops += out.drops;
    }
    let bins = edges
        .iter()
        .enumerate()
        .map(|(i, &bin)| FctBinStat {
            bin,
            avg: mean_ci95(&per_rep_avg[i]).unwrap_or(MeanCi {
                mean: 0.0,
                ci95: 0.0,
                n: 0,
            }),
            p90: mean_ci95(&per_rep_p90[i]).unwrap_or(MeanCi {
                mean: 0.0,
                ci95: 0.0,
                n: 0,
            }),
            p99: mean_ci95(&per_rep_p99[i]).unwrap_or(MeanCi {
                mean: 0.0,
                ci95: 0.0,
                n: 0,
            }),
            count: counts[i],
        })
        .collect();
    SchemeFcts {
        scheme,
        bins,
        flow_rates,
        pfc,
        queues,
        retx_fraction: if tx == 0 { 0.0 } else { retx as f64 / tx as f64 },
        drops,
        all_completed,
    }
}

/// Journal key for one `(scheme, rep)` fat-tree cell: the seed-zeroed
/// simulator-config digest (the observatory's config-hash idiom) extended
/// with a digest of the experiment dimensions, plus a human-readable
/// suffix naming the cell.
pub fn fct_cell_key(
    scheme: Scheme,
    workload: Workload,
    load: f64,
    cfg: &FatTreeConfig,
    regime: BufferRegime,
    rep: usize,
) -> String {
    let sim_hash = digest(&format!("{:?}", fat_tree_sim_config(regime, 0)));
    let dims_hash = digest(&format!("{cfg:?}|load={load:?}"));
    format!(
        "fct/{}/{}/{}/rep{}/{}{}",
        scheme.name(),
        workload.name(),
        match regime {
            BufferRegime::Pfc => "pfc",
            BufferRegime::Unlimited => "unlimited",
            BufferRegime::Lossy3x => "lossy3x",
        },
        rep,
        sim_hash,
        dims_hash
    )
}

/// Figs. 14–16: the DCQCN / HPCC / RoCC FCT comparison on one workload at
/// one load level (the avg, p90 and p99 views come from the same runs),
/// at the dimensions of `scale`. See [`fct_grid_supervised`].
pub fn fct_comparison_supervised(
    workload: Workload,
    load: f64,
    scale: Scale,
    regime: BufferRegime,
    sup: &Supervisor,
) -> (Vec<SchemeFcts>, CampaignReport) {
    fct_grid_supervised(workload, load, &FatTreeConfig::for_scale(scale), regime, sup)
}

/// The full `scheme × repetition` grid at an explicit config, under
/// `sup`: every cell runs with panic isolation and a typed outcome, so a
/// failed cell degrades the aggregates instead of aborting the sweep, and
/// the report carries the failure detail for the CLI's exit-code
/// decision. Cells are independent simulations aggregated in grid order,
/// so serial and parallel [`crate::parallel::ExecMode`] supervisors give
/// bit-identical rows (pinned by `tests/determinism.rs`).
///
/// Cells cut off by a runtime budget guard or failing with a protocol
/// verdict are excluded from their scheme's aggregate (partial results)
/// and recorded in the campaign report; a scheme whose cells all failed
/// still yields a row, with empty statistics and `all_completed ==
/// false`.
pub fn fct_grid_supervised(
    workload: Workload,
    load: f64,
    cfg: &FatTreeConfig,
    regime: BufferRegime,
    sup: &Supervisor,
) -> (Vec<SchemeFcts>, CampaignReport) {
    let schemes = Scheme::large_scale_set();
    // Scheme-major grid of independent cells; cell (si, rep) is one run.
    let cells: Vec<(String, (usize, usize))> = (0..schemes.len())
        .flat_map(|si| {
            (0..cfg.reps).map(move |rep| (si, rep))
        })
        .map(|(si, rep)| {
            (
                fct_cell_key(schemes[si], workload, load, cfg, regime, rep),
                (si, rep),
            )
        })
        .collect();
    let codec = FnCodec(RunOutput::to_json, RunOutput::from_json);
    let campaign = sup.run(cells, &codec, |&(si, rep)| {
        let (out, verdict) = run_fat_tree_verdict(
            schemes[si],
            workload,
            load,
            cfg,
            regime,
            rep_seed(rep),
        );
        match verdict.err() {
            // Budget guards mean the cell itself was runaway: no usable
            // measurement. Protocol-level verdicts (e.g. a deadline with
            // flows outstanding) still measured something — the paper's
            // FCT figures *want* those partial runs, flagged through
            // `all_completed` — so only budget failures fail the cell.
            Some(e) if e.is_budget() => Err(e.clone()),
            _ => Ok(out),
        }
    });
    let report = campaign.report();
    let mut results = campaign.into_results().into_iter();
    let rows = schemes
        .iter()
        .map(|&scheme| {
            let ok: Vec<RunOutput> = results.by_ref().take(cfg.reps).flatten().collect();
            let mut row = aggregate_outputs(scheme, workload, cfg, &ok);
            // A dropped cell means the sweep is incomplete even if every
            // surviving rep drained cleanly.
            row.all_completed &= ok.len() == cfg.reps;
            row
        })
        .collect();
    (rows, report)
}

/// Table 3 row: flow-level rate allocation.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    /// The scheme.
    pub scheme: Scheme,
    /// Average per-flow rate (bits/s).
    pub mean_bps: f64,
    /// Standard deviation (bits/s).
    pub std_bps: f64,
}

/// Table 3 from an existing FCT comparison (FB_Hadoop at 70%).
pub fn table3(results: &[SchemeFcts]) -> Vec<Table3Row> {
    results
        .iter()
        .map(|r| {
            let s = rocc_stats::summarize(&r.flow_rates).expect("no flows");
            Table3Row {
                scheme: r.scheme,
                mean_bps: s.mean,
                std_bps: s.std_dev,
            }
        })
        .collect()
}

/// Fig. 18 / Fig. 20: per-bin fold increase of average FCT versus a PFC
/// baseline from the same workload/load/scale.
#[derive(Debug)]
pub struct FoldRow {
    /// The scheme.
    pub scheme: Scheme,
    /// (bin, avg FCT seconds, fold increase vs baseline).
    pub bins: Vec<(u64, f64, f64)>,
    /// Retransmission share of transmitted bytes (Fig. 20).
    pub retx_fraction: f64,
    /// Total drops.
    pub drops: u64,
}

/// Compute fold increases of `alt` (unlimited/lossy run) over `baseline`
/// (PFC run), scheme by scheme.
pub fn fold_increase(baseline: &[SchemeFcts], alt: &[SchemeFcts]) -> Vec<FoldRow> {
    alt.iter()
        .map(|a| {
            let b = baseline
                .iter()
                .find(|b| b.scheme == a.scheme)
                .expect("baseline missing scheme");
            let bins = a
                .bins
                .iter()
                .zip(&b.bins)
                .map(|(ab, bb)| {
                    let fold = if bb.avg.mean > 0.0 {
                        ab.avg.mean / bb.avg.mean
                    } else {
                        0.0
                    };
                    (ab.bin, ab.avg.mean, fold)
                })
                .collect();
            FoldRow {
                scheme: a.scheme,
                bins,
                retx_fraction: a.retx_fraction,
                drops: a.drops,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ExecMode;

    /// A tiny smoke-scale config so the unit test stays fast.
    fn tiny() -> FatTreeConfig {
        FatTreeConfig {
            hosts_per_edge: 3,
            trunks: 1,
            window: SimDuration::from_millis(2),
            max_drain: SimDuration::from_millis(400),
            reps: 1,
        }
    }

    #[test]
    fn rocc_fat_tree_run_completes_and_measures() {
        let out = run_fat_tree(
            Scheme::Rocc,
            Workload::FbHadoop,
            0.5,
            &tiny(),
            BufferRegime::Pfc,
            7,
        );
        assert!(out.offered_flows > 50, "workload too thin: {}", out.offered_flows);
        assert!(out.all_completed, "flows stuck");
        assert_eq!(out.fcts.len(), out.offered_flows);
        assert_eq!(out.drops, 0);
        assert!(out.fcts.iter().all(|&(_, fct)| fct > 0.0));
    }

    #[test]
    fn lossy_regime_reports_drops_or_clean_run() {
        let out = run_fat_tree(
            Scheme::Rocc,
            Workload::FbHadoop,
            0.5,
            &tiny(),
            BufferRegime::Lossy3x,
            7,
        );
        // RoCC keeps queues near Qref, far below 1.5 MB: expect no drops.
        assert!(out.all_completed);
        assert_eq!(out.drops, 0);
    }

    #[test]
    fn run_output_json_roundtrip_is_exact() {
        let out = run_fat_tree(
            Scheme::Rocc,
            Workload::FbHadoop,
            0.5,
            &tiny(),
            BufferRegime::Pfc,
            7,
        );
        assert!(!out.fcts.is_empty());
        let json = out.to_json();
        let back = RunOutput::from_json(&json).expect("roundtrip parse");
        assert_eq!(back.to_json(), json, "re-encode must be byte-identical");
        assert_eq!(back.fcts, out.fcts);
        // A torn journal value must be rejected, not half-parsed.
        assert!(RunOutput::from_json(&json[..json.len() - 3]).is_none());
        assert!(RunOutput::from_json("{}").is_none());
    }

    #[test]
    fn cell_keys_name_cells_uniquely() {
        let cfg = tiny();
        let base = fct_cell_key(
            Scheme::Rocc,
            Workload::FbHadoop,
            0.5,
            &cfg,
            BufferRegime::Pfc,
            0,
        );
        for (other, why) in [
            (
                fct_cell_key(Scheme::Rocc, Workload::FbHadoop, 0.5, &cfg, BufferRegime::Pfc, 1),
                "rep",
            ),
            (
                fct_cell_key(Scheme::Dcqcn, Workload::FbHadoop, 0.5, &cfg, BufferRegime::Pfc, 0),
                "scheme",
            ),
            (
                fct_cell_key(Scheme::Rocc, Workload::WebSearch, 0.5, &cfg, BufferRegime::Pfc, 0),
                "workload",
            ),
            (
                fct_cell_key(Scheme::Rocc, Workload::FbHadoop, 0.7, &cfg, BufferRegime::Pfc, 0),
                "load",
            ),
            (
                fct_cell_key(Scheme::Rocc, Workload::FbHadoop, 0.5, &cfg, BufferRegime::Lossy3x, 0),
                "regime",
            ),
        ] {
            assert_ne!(base, other, "key must separate cells by {why}");
        }
        // Same cell → same key (the resume identity).
        assert_eq!(
            base,
            fct_cell_key(Scheme::Rocc, Workload::FbHadoop, 0.5, &cfg, BufferRegime::Pfc, 0)
        );
    }

    #[test]
    fn scheme_fcts_aggregates_bins() {
        let sup = Supervisor::new(ExecMode::Parallel);
        let (rows, report) =
            fct_grid_supervised(Workload::FbHadoop, 0.5, &tiny(), BufferRegime::Pfc, &sup);
        assert!(report.all_ok());
        let r = rows.iter().find(|r| r.scheme == Scheme::Rocc).unwrap();
        assert_eq!(r.bins.len(), 10);
        let total: usize = r.bins.iter().map(|b| b.count).sum();
        assert!(total > 50);
        assert!(r.all_completed);
        // Small-flow bins must show smaller average FCT than the 100K bin.
        let first = r.bins.first().unwrap();
        let last = r.bins.last().unwrap();
        if first.count > 0 && last.count > 0 {
            assert!(first.avg.mean < last.avg.mean);
        }
    }
}
