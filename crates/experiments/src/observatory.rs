//! `repro observe` / `repro compare` / `repro golden`: the run observatory.
//!
//! [`observe`] runs one scenario with the sim-side observatory sampler on
//! and produces three artifacts next to each other:
//!
//! 1. `metrics_<scenario>.jsonl` — the time-series rows
//!    ([`rocc_sim::metrics::MetricRow`]): egress queue depth, CP fair rate
//!    with auto-tune region, per-flow RP rate/goodput, cumulative PFC
//!    pause time;
//! 2. `perfetto_<scenario>.json` — a Chrome-trace export of the same run,
//!    loadable in `ui.perfetto.dev` (flows as tracks, PFC pauses as
//!    slices, CNP→RP causality as flow arrows);
//! 3. `manifest_<scenario>.json` — the run manifest: scenario, scheme,
//!    seed, scale, a config hash (seed excluded, so two seeds of the same
//!    config share it), the git revision, content digests of the other
//!    two artifacts, and the fidelity summary.
//!
//! [`compare`] diffs the fidelity summaries of two runs — Jain's fairness
//! index, fair-rate convergence time, queue-depth p99, and queue-histogram
//! total-variation distance — against typed thresholds: the cross-run
//! fidelity gate CI runs on two seeds of the same config.
//!
//! [`golden_check`] re-runs the pinned golden config and compares its
//! metrics digest against the committed baseline (`golden/observatory.json`);
//! `repro golden write` regenerates it after an intentional change.

use crate::micro;
use crate::scenarios;
use crate::schemes::Scheme;
use crate::supervisor::{
    CampaignReport, CellSnapshot, FnCodec, SnapshotStore, Supervisor,
};
use crate::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rocc_sim::prelude::*;
use rocc_stats::json::{Hex, Json, Raw};
use rocc_stats::{convergence_time, histogram_distance, jain_fairness, json, percentile};
use std::collections::BTreeMap;

/// Scenario names accepted by [`observe`].
pub const SCENARIOS: [&str; 1] = ["incast"];

/// The seed the committed golden baseline is pinned to.
pub const GOLDEN_SEED: u64 = 7;

/// Everything one observed run produced, ready to be written as artifacts.
#[derive(Debug)]
pub struct ObserveRun {
    /// Scenario name (an entry of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Simulation seed.
    pub seed: u64,
    /// Run scale.
    pub scale: Scale,
    /// Flows offered.
    pub flows: usize,
    /// Flows that completed within the horizon.
    pub completed: usize,
    /// The observatory time series as a JSONL document.
    pub metrics_jsonl: String,
    /// Chrome-trace export of the run (Perfetto-loadable).
    pub perfetto_json: String,
    /// `Debug` rendering of the config with the seed zeroed — the input
    /// to the manifest's config hash.
    pub config_debug: String,
    /// The run's typed verdict (campaign drivers classify failures from
    /// it; the manifest embeds its JSON form).
    pub verdict: RunVerdict,
    /// Every `ROCC_*` environment override in effect during the run,
    /// sorted by name — the out-of-config knobs (sanitizer mode, verdict
    /// directory, …) that a manifest must pin for a run to be
    /// reproducible from its artifacts alone.
    pub env_overrides: Vec<(String, String)>,
}

impl ObserveRun {
    /// The run manifest as one JSON document.
    pub fn manifest_json(&self) -> String {
        json::object(|o| {
            o.field("schema", "rocc-run-manifest/v1")
                .field("scenario", self.scenario)
                .field("scheme", "rocc")
                .field("seed", &self.seed)
                .field("scale", scale_name(self.scale))
                .field("flows", &self.flows)
                .field("completed", &self.completed)
                .object("env_overrides", |o| {
                    for (k, v) in &self.env_overrides {
                        o.field(k, v);
                    }
                })
                .field("config_hash", &digest(&self.config_debug))
                .field("git_rev", &git_rev())
                .field("metrics_digest", &digest(&self.metrics_jsonl))
                .field("perfetto_digest", &digest(&self.perfetto_json))
                .raw("verdict", &self.verdict.to_json())
                .raw(
                    "fidelity",
                    &summarize_metrics(&self.metrics_jsonl).to_json(),
                );
        })
    }

    /// Write the three artifacts into `dir` (created if missing). Returns
    /// the paths written.
    pub fn write_artifacts(&self, dir: &str) -> Result<Vec<String>, ArtifactError> {
        let paths = [
            (
                format!("{dir}/metrics_{}.jsonl", self.scenario),
                &self.metrics_jsonl,
            ),
            (
                format!("{dir}/perfetto_{}.json", self.scenario),
                &self.perfetto_json,
            ),
            (
                format!("{dir}/manifest_{}.json", self.scenario),
                &self.manifest_json(),
            ),
        ];
        let mut written = Vec::new();
        for (path, contents) in &paths {
            write_artifact(path, contents)?;
            written.push(path.clone());
        }
        Ok(written)
    }
}

/// CLI scale label, matching [`Scale::parse`].
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Paper => "paper",
    }
}

/// Run one named scenario with the observatory on. `None` for an unknown
/// scenario name.
pub fn observe(scenario: &str, scale: Scale, seed: u64) -> Option<ObserveRun> {
    match scenario {
        "incast" => Some(incast(scale, seed)),
        _ => None,
    }
}

/// Crash-recoverable variant of [`observe`]: resumes from the cell's
/// journaled snapshot when one exists and keeps checkpointing while it
/// runs. `None` for an unknown scenario name.
pub fn observe_resumable(
    scenario: &str,
    scale: Scale,
    seed: u64,
    snap: &CellSnapshot,
) -> Option<ObserveRun> {
    match scenario {
        "incast" => Some(incast_resumable(scale, seed, snap)),
        _ => None,
    }
}

/// The seed-zeroed simulator config a scenario runs, rendered with
/// `Debug` — the input to the manifest's config hash and to sweep
/// journal keys (computable without running the scenario). `None` for an
/// unknown scenario name.
pub fn scenario_config_debug(scenario: &str) -> Option<String> {
    match scenario {
        "incast" => Some(format!(
            "{:?}",
            SimConfig {
                seed: 0,
                ..SimConfig::default()
            }
        )),
        _ => None,
    }
}

/// N-to-1 RoCC incast on the 40G dumbbell, observed: bottleneck queue and
/// every flow watched, 10 µs sampling, full event telemetry for the
/// Perfetto export. Start times carry a small seed-derived jitter so
/// different seeds genuinely produce different runs (the fabric itself is
/// single-path, so the topology alone would not consume the seed).
pub fn incast(scale: Scale, seed: u64) -> ObserveRun {
    let (sim, n, horizon) = build_incast(scale, seed);
    finish_incast(sim, n, horizon, scale, seed)
}

/// Auto-checkpoint stride (events) for sweep cells. Coarse enough that
/// the save cost stays in the noise for quick cells, fine enough that a
/// crash mid-cell loses at most a fraction of a paper-scale run.
pub const SWEEP_CHECKPOINT_STRIDE: u64 = 20_000;

/// [`incast`] with sub-cell crash recovery: if the cell's snapshot store
/// holds a journaled checkpoint for this cell, restore it into an
/// identically rebuilt sim and continue from there; otherwise start
/// fresh. Either way the run keeps journaling checkpoints through
/// `snap`'s sink. A snapshot that fails the engine's seed/config-digest
/// check (stale config, deep corruption) is discarded and the cell
/// restarts from scratch — never quarantined.
pub fn incast_resumable(scale: Scale, seed: u64, snap: &CellSnapshot) -> ObserveRun {
    let (mut sim, n, horizon) = build_incast(scale, seed);
    if let Some(bytes) = &snap.resume {
        if sim.restore(bytes).is_err() {
            // Restore may leave the sim partially overwritten on error:
            // discard it and rebuild for a clean fresh start.
            sim = build_incast(scale, seed).0;
        }
    }
    sim.enable_auto_checkpoint(SWEEP_CHECKPOINT_STRIDE, snap.sink());
    finish_incast(sim, n, horizon, scale, seed)
}

/// Build (without running) the sim a named scenario would run — the
/// entry point `repro snapshot save/restore` uses to step, checkpoint,
/// and resume a run by hand. Returns the sim, its flow count, and the
/// run horizon. `None` for an unknown scenario name.
pub fn scenario_sim(
    scenario: &str,
    scale: Scale,
    seed: u64,
) -> Option<(Sim, usize, SimTime)> {
    match scenario {
        "incast" => Some(build_incast(scale, seed)),
        _ => None,
    }
}

/// Everything [`incast`] does up to (not including) running the sim, so
/// the resumable path can rebuild an identical sim to restore into.
fn build_incast(scale: Scale, seed: u64) -> (Sim, usize, SimTime) {
    let (n, size, horizon) = match scale {
        Scale::Quick => (8usize, 2_000_000u64, SimTime::from_millis(200)),
        Scale::Paper => (16, 10_000_000, SimTime::from_millis(1000)),
    };
    let d = scenarios::dumbbell(n, BitRate::from_gbps(40));
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = micro::sim_with(d.topo, Scheme::Rocc, 7, cfg);
    sim.trace.telemetry.collect(EventMask::ALL);
    sim.trace.observatory.enable();
    sim.trace.sample_period = Some(SimDuration::from_micros(10));
    sim.trace.watch_queue(d.switch, d.bottleneck_port);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for (i, &s) in d.senders.iter().enumerate() {
        sim.trace.watch_flow_rate(FlowId(i as u64));
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst: d.receiver,
            size,
            start: SimTime::from_nanos(rng.gen_range(0..10_000)),
            offered: None,
        });
    }
    (sim, n, horizon)
}

/// Run a built incast sim to its horizon and package the artifacts.
fn finish_incast(
    mut sim: Sim,
    n: usize,
    horizon: SimTime,
    scale: Scale,
    seed: u64,
) -> ObserveRun {
    let config_debug =
        scenario_config_debug("incast").expect("incast is a known scenario");
    let verdict = sim.run_until_flows_done(horizon);
    ObserveRun {
        scenario: "incast",
        seed,
        scale,
        flows: n,
        completed: sim.trace.fcts.len(),
        metrics_jsonl: sim.trace.observatory_jsonl(),
        perfetto_json: export_chrome_trace(&sim),
        config_debug,
        verdict,
        env_overrides: rocc_env_overrides(),
    }
}

/// Every `ROCC_*` environment variable currently set, sorted by name —
/// the out-of-config knobs the run manifest records.
pub fn rocc_env_overrides() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ROCC_"))
        .collect();
    vars.sort();
    vars
}

// ---------------------------------------------------------------------------
// Resumable multi-seed sweeps (`repro sweep`)

/// The compact per-seed record a sweep campaign aggregates — everything
/// needed to prove two campaigns observed the same runs, without storing
/// the runs themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCellSummary {
    /// Simulation seed.
    pub seed: u64,
    /// Flows offered.
    pub flows: u64,
    /// Flows completed within the horizon.
    pub completed: u64,
    /// Digest of the run's metrics JSONL.
    pub metrics_digest: String,
    /// Seed-zeroed config hash (shared by every cell of the sweep).
    pub config_hash: String,
}

impl SweepCellSummary {
    /// Reduce a finished observed run to its sweep summary.
    pub fn from_run(run: &ObserveRun) -> SweepCellSummary {
        SweepCellSummary {
            seed: run.seed,
            flows: run.flows as u64,
            completed: run.completed as u64,
            metrics_digest: digest(&run.metrics_jsonl),
            config_hash: digest(&run.config_debug),
        }
    }

    /// Canonical single-line JSON rendering (journal codec + aggregate
    /// rows). Byte-determinism of the sweep aggregate rests on this.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Strict parse of [`SweepCellSummary::to_json`]; `None` on any
    /// anomaly (the supervisor then re-runs the cell).
    pub fn from_json(s: &str) -> Option<SweepCellSummary> {
        json::from_str(s)
    }
}

json::record!(SweepCellSummary {
    seed,
    flows,
    completed,
    metrics_digest: Hex,
    config_hash: Hex,
});

/// Result of a supervised multi-seed sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Run scale.
    pub scale: Scale,
    /// Per-seed summaries in input (seed) order; failed cells are `None`.
    pub cells: Vec<Option<SweepCellSummary>>,
    /// Campaign summary: counts, failures, quarantine.
    pub report: CampaignReport,
}

impl SweepOutcome {
    /// The sweep aggregate artifact. Built purely from the per-cell
    /// summaries in input order, so a killed-then-resumed campaign (which
    /// replays finished cells from the checkpoint journal) renders bytes
    /// identical to an uninterrupted run — `cmp`-able in CI.
    pub fn aggregate_json(&self) -> String {
        let mut cells = String::new();
        json::put_array(&mut cells, self.cells.iter().flatten(), |out, c| c.put(out));
        // The campaign digest covers the rows, not the brackets around them.
        let body = &cells[1..cells.len() - 1];
        json::object(|o| {
            o.field("schema", "rocc-sweep-aggregate/v1")
                .field("scenario", &self.scenario)
                .field("scale", scale_name(self.scale))
                .raw("cells", &cells)
                .field("campaign_digest", &digest(body));
        }) + "\n"
    }
}

/// Journal key for one sweep cell: scenario, scale and seed plus the
/// seed-zeroed config hash, so a config change invalidates the journal
/// while a resume after a crash matches it.
pub fn sweep_cell_key(scenario: &str, scale: Scale, config_hash: &str, seed: u64) -> String {
    format!(
        "observe/{scenario}/{}/seed{seed}/{config_hash}",
        scale_name(scale)
    )
}

/// Run `scenario` once per seed under the campaign supervisor, with
/// sub-cell crash recovery: every in-flight cell journals engine
/// snapshots to `snapshots` as it runs, and a resumed campaign restarts
/// unfinished cells from their latest checkpoint instead of from scratch.
/// Finished cells replay from the supervisor's journal; the aggregate is
/// byte-identical either way. A cell whose run fails its verdict
/// (deadline, deadlock, budget guard) fails the cell — a sweep's cells
/// are expected to complete cleanly, unlike the tolerant single-run
/// [`observe`] path. `None` for an unknown scenario name.
pub fn sweep_with_snapshots(
    scenario: &str,
    scale: Scale,
    seeds: &[u64],
    sup: &Supervisor,
    snapshots: &SnapshotStore,
) -> Option<SweepOutcome> {
    let config_hash = digest(&scenario_config_debug(scenario)?);
    let cells: Vec<(String, u64)> = seeds
        .iter()
        .map(|&seed| (sweep_cell_key(scenario, scale, &config_hash, seed), seed))
        .collect();
    let codec = FnCodec(SweepCellSummary::to_json, SweepCellSummary::from_json);
    let scenario_owned = scenario.to_string();
    let campaign = sup.run_resumable(snapshots, cells, &codec, move |&seed, snap| {
        let run = observe_resumable(&scenario_owned, scale, seed, &snap)
            .expect("scenario validated before the campaign started");
        match run.verdict.err() {
            Some(e) => Err(e.clone()),
            None => Ok(SweepCellSummary::from_run(&run)),
        }
    });
    let report = campaign.report();
    Some(SweepOutcome {
        scenario: scenario.to_string(),
        scale,
        cells: campaign.into_results(),
        report,
    })
}

// ---------------------------------------------------------------------------
// Digests

/// FNV-1a digest as 16 lowercase hex digits.
pub fn digest(data: &str) -> String {
    rocc_stats::digest::hex_digest(data.as_bytes())
}

/// Best-effort short git revision ("unknown" outside a work tree).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

// ---------------------------------------------------------------------------
// Fidelity summary (parsed back out of the metrics JSONL)

/// The scalar fidelity metrics of one run, derived from its metrics JSONL.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelitySummary {
    /// Jain's fairness index over per-flow mean goodput in the tail half
    /// of the run (1.0 when no flow rows exist).
    pub jain: f64,
    /// First time (seconds) after which the busiest CP's fair rate stays
    /// within 15% of its final value; `None` when it never settles.
    pub conv_time_s: Option<f64>,
    /// p99 of the watched queue depth, bytes.
    pub queue_p99: f64,
    /// Final cumulative PFC pause time, nanoseconds.
    pub cum_pause_ns: u64,
    /// Log-linear histogram of queue-depth samples, as ascending
    /// `(bucket_lower_bound, count)` pairs — the exchange format
    /// [`histogram_distance`] consumes.
    pub queue_buckets: Vec<(u64, u64)>,
}

impl FidelitySummary {
    /// Serialize as one JSON object (embedded in the run manifest), in
    /// fixed decimals.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.fixed("jain", Some(self.jain), 6)
                .fixed("conv_time_us", self.conv_time_s.map(|t| t * 1e6), 1)
                .fixed("queue_p99_bytes", Some(self.queue_p99), 1)
                .field("cum_pause_ns", &self.cum_pause_ns);
        })
    }
}

/// Reduce a metrics JSONL document to its [`FidelitySummary`], skipping
/// any line that is not a whole row ([`load_summary`] refuses them).
pub fn summarize_metrics(jsonl: &str) -> FidelitySummary {
    let rows: Vec<MetricRow> = jsonl.lines().filter_map(MetricRow::from_json).collect();
    summarize_rows(&rows)
}

fn summarize_rows(rows: &[MetricRow]) -> FidelitySummary {
    let row_t = |r: &MetricRow| match *r {
        MetricRow::Queue { t, .. }
        | MetricRow::Cp { t, .. }
        | MetricRow::Flow { t, .. }
        | MetricRow::Pfc { t, .. } => t.as_nanos(),
    };
    let tail_from = rows.iter().map(row_t).max().unwrap_or(0) / 2;

    // Per-flow mean goodput over the tail half → Jain.
    let mut goodput: BTreeMap<FlowId, (f64, u64)> = BTreeMap::new();
    // Fair-rate series of the busiest CP → convergence time.
    let mut cp_series: BTreeMap<CpId, Vec<(f64, f64)>> = BTreeMap::new();
    // Queue-depth samples → p99 + histogram.
    let mut queue_samples: Vec<f64> = Vec::new();
    let mut queue_hist = Histogram::new();
    let mut cum_pause_ns: u64 = 0;

    for row in rows {
        match *row {
            MetricRow::Flow {
                t,
                flow,
                goodput_bps,
                ..
            } if t.as_nanos() >= tail_from => {
                let e = goodput.entry(flow).or_insert((0.0, 0));
                e.0 += goodput_bps as f64;
                e.1 += 1;
            }
            MetricRow::Cp {
                t,
                cp,
                fair_rate_units,
                ..
            } => cp_series
                .entry(cp)
                .or_default()
                .push((t.as_nanos() as f64 / 1e9, fair_rate_units as f64)),
            MetricRow::Queue { bytes, .. } => {
                queue_samples.push(bytes as f64);
                queue_hist.record(bytes);
            }
            MetricRow::Pfc {
                cum_pause_ns: c, ..
            } => cum_pause_ns = cum_pause_ns.max(c),
            MetricRow::Flow { .. } => {}
        }
    }

    let means: Vec<f64> = goodput
        .values()
        .filter(|(_, n)| *n > 0)
        .map(|(s, n)| s / *n as f64)
        .collect();
    let jain = jain_fairness(&means).unwrap_or(1.0);

    let conv_time_s = cp_series
        .values()
        .max_by_key(|s| s.len())
        .and_then(|series| {
            let tail = &series[series.len() - (series.len() / 4).max(1)..];
            let target = tail.iter().map(|&(_, v)| v).sum::<f64>() / tail.len() as f64;
            convergence_time(series, target, 0.15).ok().flatten()
        });

    let queue_p99 = percentile(&queue_samples, 0.99).unwrap_or(0.0);

    FidelitySummary {
        jain,
        conv_time_s,
        queue_p99,
        cum_pause_ns,
        queue_buckets: queue_hist.nonempty_buckets(),
    }
}

// ---------------------------------------------------------------------------
// Cross-run comparison

/// One fidelity metric compared across two runs, with its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityCheck {
    /// Metric name.
    pub name: &'static str,
    /// Value in run A.
    pub a: f64,
    /// Value in run B.
    pub b: f64,
    /// The compared delta (absolute difference, ratio, or distance —
    /// per-metric, see [`compare`]).
    pub delta: f64,
    /// The pass threshold on `delta`.
    pub limit: f64,
    /// Did the check pass?
    pub pass: bool,
}

/// The full comparison report of two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// One entry per fidelity metric.
    pub checks: Vec<FidelityCheck>,
}

impl CompareReport {
    /// Did every check pass?
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Serialize as one JSON object, each check's numbers in six fixed
    /// decimals; a non-finite one (the `conv_time` delta when only one run
    /// settles is infinite) is `null`, which JSON has and `inf` is not.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("pass", &self.pass())
                .objects("checks", &self.checks, |o, c| {
                    o.field("name", c.name)
                        .fixed("a", Some(c.a), 6)
                        .fixed("b", Some(c.b), 6)
                        .fixed("delta", Some(c.delta), 6)
                        .fixed("limit", Some(c.limit), 6)
                        .field("pass", &c.pass);
                });
        })
    }

    /// Human-readable table for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            out.push_str(&format!(
                "{:<22} a={:<14.4} b={:<14.4} delta={:<10.4} limit={:<8.4} {}\n",
                c.name,
                c.a,
                c.b,
                c.delta,
                c.limit,
                if c.pass { "PASS" } else { "FAIL" }
            ));
        }
        out.push_str(if self.pass() {
            "fidelity: PASS\n"
        } else {
            "fidelity: FAIL\n"
        });
        out
    }
}

/// Compare the fidelity summaries of two runs of the same config
/// (different seeds). Thresholds are deliberately loose enough that two
/// seeds of the golden incast pass, and tight enough that a different
/// scheme or a broken controller fails:
///
/// * `jain` — absolute difference ≤ 0.05 (both runs must be ~equally fair),
/// * `conv_time` — relative difference ≤ 75% (settling time is the
///   noisiest metric across seeds); both-never-settling also passes,
///   one-sided settling fails,
/// * `queue_p99` — ratio ≤ 1.5×,
/// * `queue_hist` — total-variation distance ≤ 0.35.
pub fn compare(a: &FidelitySummary, b: &FidelitySummary) -> CompareReport {
    let mut checks = Vec::new();

    let d = (a.jain - b.jain).abs();
    checks.push(FidelityCheck {
        name: "jain_fairness",
        a: a.jain,
        b: b.jain,
        delta: d,
        limit: 0.05,
        pass: d <= 0.05,
    });

    let (ca, cb) = (a.conv_time_s, b.conv_time_s);
    let (va, vb) = (ca.unwrap_or(-1.0), cb.unwrap_or(-1.0));
    let (delta, pass) = match (ca, cb) {
        (Some(x), Some(y)) => {
            let rel = (x - y).abs() / x.max(y).max(1e-9);
            (rel, rel <= 0.75)
        }
        (None, None) => (0.0, true),
        _ => (f64::INFINITY, false),
    };
    checks.push(FidelityCheck {
        name: "conv_time",
        a: va,
        b: vb,
        delta,
        limit: 0.75,
        pass,
    });

    let (lo, hi) = (a.queue_p99.min(b.queue_p99), a.queue_p99.max(b.queue_p99));
    let ratio = if hi == 0.0 { 1.0 } else { hi / lo.max(1.0) };
    checks.push(FidelityCheck {
        name: "queue_p99",
        a: a.queue_p99,
        b: b.queue_p99,
        delta: ratio,
        limit: 1.5,
        pass: ratio <= 1.5,
    });

    let tv = histogram_distance(&a.queue_buckets, &b.queue_buckets).unwrap_or(1.0);
    checks.push(FidelityCheck {
        name: "queue_hist_tv",
        a: a.queue_buckets.iter().map(|&(_, c)| c).sum::<u64>() as f64,
        b: b.queue_buckets.iter().map(|&(_, c)| c).sum::<u64>() as f64,
        delta: tv,
        limit: 0.35,
        pass: tv <= 0.35,
    });

    CompareReport { checks }
}

/// Locate the metrics JSONL for a run directory (or accept a direct file
/// path), read it, and summarize. Returns an error string suitable for
/// the CLI, naming `path:line` for the first non-blank line that is not a
/// complete metrics row (not JSON, torn, or of an unknown type).
pub fn load_summary(path: &str) -> Result<FidelitySummary, String> {
    let p = std::path::Path::new(path);
    let file = if p.is_dir() {
        let mut found = None;
        let mut entries: Vec<_> = std::fs::read_dir(p)
            .map_err(|e| format!("cannot read {path}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for e in entries {
            let name = e.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("metrics_") && name.ends_with(".jsonl") {
                found = Some(e);
                break;
            }
        }
        found.ok_or_else(|| format!("no metrics_*.jsonl in {path}"))?
    } else {
        p.to_path_buf()
    };
    let jsonl = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let mut rows = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if !line.trim().is_empty() {
            let bad = || format!("{}:{}: not a complete metrics row", file.display(), i + 1);
            rows.push(MetricRow::from_json(line).ok_or_else(bad)?);
        }
    }
    Ok(summarize_rows(&rows))
}

// ---------------------------------------------------------------------------
// Golden gate

/// The committed golden baseline document (`rocc-observatory-golden/v1`)
/// of the pinned quick incast: what `repro golden write` writes and
/// [`golden_check`] reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenDoc {
    /// Scenario name.
    pub scenario: String,
    /// Scale name.
    pub scale: String,
    /// Simulation seed.
    pub seed: u64,
    /// Digest of the run's metrics JSONL: the gated value.
    pub metrics_digest: String,
    /// The run's [`FidelitySummary`], as the JSON object it was written as.
    pub fidelity: String,
}

json::record!(GoldenDoc {
    "schema" = "rocc-observatory-golden/v1";
    scenario,
    scale,
    seed,
    metrics_digest: Hex,
    fidelity: Raw,
});

impl GoldenDoc {
    /// One JSON object and a newline.
    pub fn to_json(&self) -> String {
        json::to_string(self) + "\n"
    }

    /// Strict parse of [`GoldenDoc::to_json`]; `None` on any anomaly,
    /// a `fidelity` that is not an object among them.
    pub fn from_json(doc: &str) -> Option<GoldenDoc> {
        json::from_str(doc).filter(|g: &GoldenDoc| g.fidelity.starts_with('{'))
    }
}

/// The golden document of a finished run, as text.
pub fn golden_json(run: &ObserveRun) -> String {
    let doc = GoldenDoc {
        scenario: run.scenario.to_string(),
        scale: scale_name(run.scale).to_string(),
        seed: run.seed,
        metrics_digest: digest(&run.metrics_jsonl),
        fidelity: summarize_metrics(&run.metrics_jsonl).to_json(),
    };
    doc.to_json()
}

/// Run the pinned golden config and produce its baseline document.
pub fn golden_run() -> ObserveRun {
    incast(Scale::Quick, GOLDEN_SEED)
}

/// Re-run the pinned config and diff its metrics digest against the
/// committed baseline at `path`. `Ok` carries a confirmation line; `Err`
/// the failure with the regeneration instruction.
pub fn golden_check(path: &str) -> Result<String, String> {
    let committed =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read golden {path}: {e}"))?;
    let want = GoldenDoc::from_json(&committed)
        .ok_or_else(|| format!("golden {path} is not a rocc-observatory-golden/v1 document"))?
        .metrics_digest;
    let run = golden_run();
    let got = digest(&run.metrics_jsonl);
    if got == want {
        Ok(format!("golden: PASS (metrics_digest {got})"))
    } else {
        Err(format!(
            "golden: FAIL — metrics_digest {got} != committed {want}\n\
             The observatory time series changed. If intentional, regenerate with\n\
             `cargo run --release -p rocc-experiments --bin repro -- golden write`\n\
             and commit the new {path}."
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_ne!(digest("a"), digest("b"));
    }

    /// Override names come from the environment: the manifest escapes
    /// them like their values.
    #[test]
    fn manifest_escapes_env_override_names() {
        let run = ObserveRun {
            scenario: "incast",
            seed: 1,
            scale: Scale::Quick,
            flows: 0,
            completed: 0,
            metrics_jsonl: String::new(),
            perfetto_json: String::new(),
            config_debug: String::new(),
            verdict: RunVerdict::Completed { flows: 0 },
            env_overrides: vec![("ROCC_\"Q\\".to_string(), "v\"".to_string())],
        };
        let manifest = run.manifest_json();
        assert!(
            manifest.contains("\"env_overrides\":{\"ROCC_\\\"Q\\\\\":\"v\\\"\"}"),
            "{manifest}"
        );
    }

    #[test]
    fn sweep_cell_summary_roundtrips_and_rejects_torn_lines() {
        let c = SweepCellSummary {
            seed: 9,
            flows: 8,
            completed: 8,
            metrics_digest: "0123456789abcdef".to_string(),
            config_hash: "fedcba9876543210".to_string(),
        };
        let json = c.to_json();
        assert_eq!(SweepCellSummary::from_json(&json), Some(c.clone()));
        assert_eq!(SweepCellSummary::from_json(&json[..json.len() - 9]), None);
        assert_eq!(SweepCellSummary::from_json("{}"), None);
    }

    #[test]
    fn sweep_cell_keys_embed_config_and_seed() {
        let h = digest(&scenario_config_debug("incast").unwrap());
        let a = sweep_cell_key("incast", Scale::Quick, &h, 7);
        let b = sweep_cell_key("incast", Scale::Quick, &h, 8);
        assert_ne!(a, b);
        assert!(a.contains(&h), "{a}");
        assert_ne!(a, sweep_cell_key("incast", Scale::Paper, &h, 7));
        assert!(scenario_config_debug("nope").is_none());
    }

    #[test]
    fn summarize_reduces_a_synthetic_series() {
        let mut jsonl = String::new();
        // Two flows, perfectly fair in the tail.
        for t in [0u64, 100_000, 200_000, 300_000] {
            for f in 0..2u64 {
                jsonl.push_str(&format!(
                    "{{\"t_ns\":{t},\"type\":\"flow\",\"flow\":{f},\"rp_bps\":5,\"goodput_bps\":{}}}\n",
                    if t < 150_000 { 1 + f } else { 10 }
                ));
            }
            jsonl.push_str(&format!(
                "{{\"t_ns\":{t},\"type\":\"queue\",\"node\":0,\"port\":0,\"bytes\":{}}}\n",
                t / 1000
            ));
            jsonl.push_str(&format!(
                "{{\"t_ns\":{t},\"type\":\"cp\",\"node\":0,\"port\":0,\"fair_rate_units\":{},\"region\":0,\"alpha\":0.5,\"beta\":1.5}}\n",
                if t == 0 { 1000 } else { 500 }
            ));
            jsonl.push_str(&format!(
                "{{\"t_ns\":{t},\"type\":\"pfc\",\"cum_pause_ns\":{}}}\n",
                t / 10
            ));
        }
        let s = summarize_metrics(&jsonl);
        assert!((s.jain - 1.0).abs() < 1e-9, "tail goodput is equal: {s:?}");
        // Rate steps 1000 → 500 at t=100 µs and holds: converges there.
        assert!((s.conv_time_s.unwrap() - 1e-4).abs() < 1e-9, "{s:?}");
        assert_eq!(s.cum_pause_ns, 30_000);
        assert!(s.queue_p99 > 0.0);
        assert!(!s.queue_buckets.is_empty());
        // A run is trivially fidelity-equal to itself.
        let rep = compare(&s, &s);
        assert!(rep.pass(), "{}", rep.render());
        assert!(rep.to_json().contains("\"pass\":true"));
    }

    #[test]
    fn compare_flags_divergent_runs() {
        let a = FidelitySummary {
            jain: 0.99,
            conv_time_s: Some(1e-3),
            queue_p99: 10_000.0,
            cum_pause_ns: 0,
            queue_buckets: vec![(0, 100)],
        };
        let b = FidelitySummary {
            jain: 0.60, // very unfair
            conv_time_s: None,
            queue_p99: 100_000.0,
            cum_pause_ns: 0,
            queue_buckets: vec![(1 << 20, 100)],
        };
        let rep = compare(&a, &b);
        assert!(!rep.pass());
        for c in &rep.checks {
            assert!(!c.pass, "{} should fail on divergent runs", c.name);
        }
        let rendered = rep.render();
        assert!(rendered.contains("FAIL"));
        // Only `a` settles, so the conv_time delta is infinite: JSON null.
        let json = rep.to_json();
        assert!(json.contains("\"delta\":null") && !json.contains("inf"), "{json}");
    }
}
