//! The benchmark's declaration: which metrics exist, their units,
//! directions and regression bounds, and the `BENCHMARK.json` built from
//! these tables. The tables are the single source: `suite manifest` prints
//! the file, a test checks the committed copy against it, `suite compare`
//! applies the bounds, and a run refuses to report a metric that is not
//! listed here.

use crate::json::Value;
use crate::stats::Better::{self, Higher, Lower};
use crate::workloads::Workload;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. `failed_share` of the issue is the `failed` /
/// `attempted` pair of every result line: a metric that is 0 on every good
/// run cannot carry a relative bound.
///
/// One bound per metric has to hold on every workload, so each is sized by
/// the noisiest one. Two sets of ten runs with ten seeds each, on the shared
/// 2-vCPU VM this was written on, spread (quartile distance ÷ median) by at
/// most 6.9 % in `wall_s` (`ft_hadoop_audited`, whose fault pattern makes
/// placements differ; 1.4–4.7 % elsewhere), 9.4 % in `peak_rss_mb` (the
/// FB_Hadoop cells, whose table and bucket capacities double at
/// placement-dependent moments; ≤ 1.2 % on the incast and the campaign) and
/// 7.3 % in `setup_s`; the bounds are about three times that, which also
/// leaves room for the host's slow phases. The driver compares medians of
/// many runs, which are steadier than one run.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "sim_pkts_per_s",
        unit: "pkt/s",
        better: Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// A per-layer metric (no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the part before the first dot is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement (for exact `sim.*` statistics the
    /// only acceptable change is none).
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, grouped by the module they measure.
pub const PER_LAYER: [PerLayer; 68] = [
    // sim::engine
    layer("engine.events", "count", Lower),
    layer("engine.ns_per_event", "ns", Lower),
    layer("engine.pushes_per_event", "ratio", Lower),
    layer("engine.peak_pending", "count", Lower),
    layer("engine.mix.arrive", "share", Lower),
    layer("engine.mix.switch_tx_done", "share", Lower),
    layer("engine.mix.host_tx_done", "share", Lower),
    layer("engine.mix.host_wake", "share", Lower),
    layer("engine.mix.cp_timer", "share", Lower),
    layer("engine.mix.host_cc_timer", "share", Lower),
    layer("engine.mix.feedback", "share", Lower),
    layer("engine.mix.flow_start", "share", Lower),
    layer("engine.step_ns", "ns", Lower),
    // sim::sched
    layer("sched.push_ns", "ns", Lower),
    layer("sched.pop_ns", "ns", Lower),
    layer("sched.cascades_per_kpop", "ratio", Lower),
    layer("sched.rebases", "count", Lower),
    // sim::slab
    layer("slab.alloc_free_ns", "ns", Lower),
    layer("slab.peak_live", "count", Lower),
    // sim::topology
    layer("topology.route_ns", "ns", Lower),
    layer("topology.build_ms", "ms", Lower),
    // sim::switch
    layer("switch.hop_ns", "ns", Lower),
    layer("sim.pfc_pauses", "count", Lower),
    layer("sim.queue_mean_kb", "kB", Lower),
    // sim::host
    layer("host.pkt_ns", "ns", Lower),
    layer("host.paced_pkt_ns", "ns", Lower),
    layer("host.flow_churn_ns", "ns", Lower),
    // core::{cp, flow_table, cnp, rp}
    layer("cp.update_ns", "ns", Lower),
    layer("cp.flow_table_ns", "ns", Lower),
    layer("cnp.codec_ns", "ns", Lower),
    layer("rp.on_cnp_ns", "ns", Lower),
    layer("sim.cnps", "count", Lower),
    // baselines
    layer("dcqcn.on_feedback_ns", "ns", Lower),
    layer("hpcc.on_ack_ns", "ns", Lower),
    // sim::{snapshot, digest}
    layer("snapshot.encode_ms", "ms", Lower),
    layer("snapshot.bytes", "count", Lower),
    layer("snapshot.restore_ms", "ms", Lower),
    layer("digest.state_ms", "ms", Lower),
    // instrumentation gates, each enabled alone
    layer("gate.sanitizer_pct", "%", Lower),
    layer("gate.telemetry_pct", "%", Lower),
    layer("gate.observatory_pct", "%", Lower),
    layer("gate.profiler_pct", "%", Lower),
    // experiments::{parallel, supervisor, fct}
    layer("parallel.speedup", "ratio", Higher),
    layer("parallel.workers", "count", Higher),
    layer("supervisor.journal_replay_ms", "ms", Lower),
    layer("fct.aggregate_ms", "ms", Lower),
    // the benchmark's own generator
    layer("gen.flows", "count", Higher),
    layer("gen.ms", "ms", Lower),
    // simulated statistics: exact, and a perf PR leaves every one unchanged
    layer("sim.flows", "count", Higher),
    layer("sim.fct_p50_us", "us", Lower),
    layer("sim.fct_p99_us", "us", Lower),
    layer("sim.retx_bytes", "count", Lower),
    layer("sim.drops", "count", Lower),
    layer("sim.output_digest32", "count", Lower),
    // the engine's own phase profiler, as ns per event
    layer("prof.sched_pop_ns", "ns", Lower),
    layer("prof.sched_push_ns", "ns", Lower),
    layer("prof.dispatch_ns", "ns", Lower),
    layer("prof.switch_forward_ns", "ns", Lower),
    layer("prof.host_compute_ns", "ns", Lower),
    layer("prof.cp_tick_ns", "ns", Lower),
    layer("prof.telemetry_ns", "ns", Lower),
    layer("prof.observatory_ns", "ns", Lower),
    layer("prof.sanitizer_ns", "ns", Lower),
    // do the layer budgets add up?
    layer("reconcile.layers_ns_per_event", "ns", Lower),
    layer("reconcile.gap_pct", "%", Lower),
    layer("reconcile.prof_gap_pct", "%", Lower),
    // cost of the traced run itself
    layer("trace.overhead_pct", "%", Lower),
    // continuity with rocc-bench/v2
    layer("legacy.incast_v2_events_per_s", "1/s", Higher),
];

/// `BENCHMARK.json`, exactly the keys the benchmark contract names.
pub fn benchmark_json() -> Value {
    let strs = |v: &[&str]| Value::Arr(v.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perfsuite/Cargo.toml",
                "--bin",
                "suite",
                "--",
            ]),
        ),
        ("paths", strs(&["perfsuite"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.word())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "x")))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(unit_ok(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s takes the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let generated = benchmark_json();
        assert_eq!(crate::json::parse(&generated.pretty()).unwrap(), generated);
        assert!(generated.pretty().len() < 64 * 1024);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            crate::json::parse(&committed).expect("BENCHMARK.json parses"),
            generated,
            "BENCHMARK.json is stale: regenerate it with `suite manifest > BENCHMARK.json`"
        );
        let keys: Vec<&str> = generated
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
