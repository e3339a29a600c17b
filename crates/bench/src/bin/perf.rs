//! Engine performance benchmark: events/sec on a chaos-grade incast
//! (profiler off *and* on, so profiler overhead is measured every run),
//! end-to-end wall-clock on the multi-seed incast sweep (serial and
//! parallel), and a per-phase breakdown from the phase profiler — emitted
//! as `BENCH_sim.json` (schema `rocc-bench/v2`) plus a
//! `rocc-perf-profile/v1` artifact, and gated by the multi-metric ratchet
//! in [`rocc_bench::ratchet`].
//!
//! The engine leg is a fixed, seeded input (12 senders × 4 MB = 48,000
//! data packets), so `engine_events` repeats exactly and `perf check`
//! gates it with zero tolerance: one event more than the baseline fails.
//! events/sec is only comparable between commits that process the same
//! events. The baseline was re-captured when the transport stopped pushing
//! a dead RTO timer per data packet and per ACK (502,590 → 445,049 events
//! for the same packets): the events that remain each do more work on
//! average, so events/sec across that commit says nothing — compare
//! `engine_wall_seconds` for the fixed input (equivalently 48,000 packets
//! ÷ wall) instead.
//!
//! Usage:
//!
//! ```text
//! perf bench <out_dir> [<baseline>]
//!                               — run benchmarks; write
//!                                 <out_dir>/BENCH_sim.json and
//!                                 <out_dir>/perf_profile.json.
//!                                 Speedups are computed against the
//!                                 recorded previous ratchet entry
//!                                 (default: ./BENCH_sim.json), not a
//!                                 hardcoded constant.
//! perf check <fresh> <base>     — exit nonzero if <fresh> regressed
//!                                 past any ratchet tolerance vs <base>
//!                                 (engine_events: any increase)
//! perf ratchet <fresh> <base> [<out>]
//!                               — fold <fresh> into the ratchet,
//!                                 writing the advanced baseline to
//!                                 <out> (default: <base> in place)
//! ```

use rocc_bench::ratchet;
use rocc_experiments::micro::sim_with;
use rocc_experiments::parallel::{map_cells, worker_threads, ExecMode};
use rocc_experiments::schemes::Scheme;
use rocc_sim::prelude::*;

/// Dumbbell: `n` senders incast one receiver through a single switch.
fn dumbbell(n: usize, gbps: u64) -> (Topology, Vec<NodeId>, NodeId) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let dst = b.add_host("dst");
    b.connect(sw, dst, BitRate::from_gbps(gbps), SimDuration::from_micros(1));
    let mut srcs = Vec::new();
    for i in 0..n {
        let h = b.add_host(format!("s{i}"));
        b.connect(h, sw, BitRate::from_gbps(gbps), SimDuration::from_micros(1));
        srcs.push(h);
    }
    (b.build(), srcs, dst)
}

/// One incast run: `senders` flows of `size` bytes under `scheme`,
/// optionally with the phase profiler live. Returns the finished sim.
fn incast_run(scheme: Scheme, senders: usize, size: u64, seed: u64, profile: bool) -> Sim {
    let (topo, srcs, dst) = dumbbell(senders, 40);
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = sim_with(topo, scheme, 4, cfg);
    if profile {
        sim.enable_profiler();
    }
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim.run_until_flows_done(SimTime::from_millis(400)).assert_complete();
    sim
}

/// One incast cell for the sweep: (events processed, wall seconds).
fn incast_cell(scheme: Scheme, senders: usize, size: u64, seed: u64) -> (u64, f64) {
    let sim = incast_run(scheme, senders, size, seed, false);
    let p = sim.profile();
    (p.events_processed, p.wall_seconds)
}

/// Repetitions of the off/on engine pair. Single-run wall noise on a
/// shared host is several percent — larger than the overhead being
/// measured — so the estimator needs an ensemble to average over.
const ENGINE_REPS: usize = 25;
/// Walls kept per configuration after trimming the slowest runs.
const ENGINE_KEEP: usize = 16;

/// Single-thread engine throughput: the large RoCC incast with the
/// profiler off and on, reps *interleaved* so thermal/scheduler drift on
/// the host hits both configurations equally. Profiler overhead is
/// estimated by a trimmed-sum ratio: sort each configuration's walls,
/// drop the slowest `ENGINE_REPS - ENGINE_KEEP` (scheduler-noise spikes
/// are one-sided), and compare the sums of the remainder — far more
/// stable than any single-pair or best-vs-best comparison when the true
/// overhead is a couple of percent. Returns the best-wall sim of each
/// configuration plus the overhead estimate: `(off, on, overhead_pct)`.
fn bench_engine() -> (Sim, Sim, f64) {
    let mut best_off: Option<Sim> = None;
    let mut best_on: Option<Sim> = None;
    let mut walls_off = Vec::new();
    let mut walls_on = Vec::new();
    let keep_best = |slot: &mut Option<Sim>, sim: Sim| {
        if slot
            .as_ref()
            .is_none_or(|b| sim.profile().wall_seconds < b.profile().wall_seconds)
        {
            *slot = Some(sim);
        }
    };
    for rep in 0..ENGINE_REPS as u64 {
        // Alternate which configuration runs first so any slow drift in
        // host load cancels instead of biasing one side.
        let (a, b) = (rep % 2 == 0, rep % 2 == 1);
        let first = incast_run(Scheme::Rocc, 12, 4_000_000, 100 + rep, a);
        let second = incast_run(Scheme::Rocc, 12, 4_000_000, 100 + rep, b);
        let (off, on) = if a { (second, first) } else { (first, second) };
        walls_off.push(off.profile().wall_seconds);
        walls_on.push(on.profile().wall_seconds);
        keep_best(&mut best_off, off);
        keep_best(&mut best_on, on);
    }
    let trimmed_sum = |walls: &mut Vec<f64>| {
        walls.sort_by(|a, b| a.total_cmp(b));
        walls.iter().take(ENGINE_KEEP).sum::<f64>()
    };
    let sum_off = trimmed_sum(&mut walls_off);
    let sum_on = trimmed_sum(&mut walls_on);
    let overhead_pct = 100.0 * (sum_on / sum_off - 1.0);
    (best_off.unwrap(), best_on.unwrap(), overhead_pct)
}

/// The multi-seed incast sweep grid: 3 schemes × 5 seeds.
fn sweep_cells() -> Vec<(Scheme, u64)> {
    let mut cells = Vec::new();
    for scheme in Scheme::large_scale_set() {
        for seed in 0..5u64 {
            cells.push((scheme, 1000 + seed));
        }
    }
    cells
}

/// Run the sweep in the given mode, returning (wall seconds, total
/// events processed across cells — identical in both modes by
/// construction, asserted by the caller).
fn run_sweep(mode: ExecMode) -> (f64, u64) {
    let t0 = std::time::Instant::now();
    let events = map_cells(mode, sweep_cells(), |(scheme, seed)| {
        incast_cell(scheme, 6, 1_000_000, seed).0
    });
    (t0.elapsed().as_secs_f64(), events.iter().sum())
}

/// Render the per-phase breakdown block for the v2 document.
fn phases_json(sim: &Sim) -> String {
    let rows: Vec<String> = sim
        .kernel
        .prof
        .phase_shares(sim.profiled_pushes())
        .iter()
        .map(|(name, share, count)| {
            format!("{{\"phase\":\"{name}\",\"share\":{share:.6},\"count\":{count}}}")
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Baseline figures extracted from the previous ratchet entry: engine
/// throughput and the best sweep wall. `None` fields mean the baseline
/// document is missing or predates the key — speedups then report 1.0.
struct Baseline {
    events_per_sec: Option<f64>,
    sweep_wall_seconds: Option<f64>,
}

/// Read the committed baseline document (the previous ratchet entry).
/// A missing file is not an error — first runs and fresh checkouts just
/// get neutral speedups.
fn load_baseline(path: &str) -> Baseline {
    let Ok(doc) = std::fs::read_to_string(path) else {
        eprintln!("note: no baseline at {path}; speedups will read 1.00x");
        return Baseline {
            events_per_sec: None,
            sweep_wall_seconds: None,
        };
    };
    let serial = ratchet::json_number(&doc, "serial_wall_seconds");
    let parallel = ratchet::json_number(&doc, "parallel_wall_seconds");
    let sweep = match (serial, parallel) {
        (Some(s), Some(p)) => Some(s.min(p)),
        (s, p) => s.or(p),
    };
    Baseline {
        events_per_sec: ratchet::json_number(&doc, "events_per_sec"),
        sweep_wall_seconds: sweep,
    }
}

fn cmd_bench(out_dir: &str, baseline_path: &str) {
    let base = load_baseline(baseline_path);
    // Engine throughput, profiler off (the production configuration) and
    // on (measures overhead, produces the per-phase attribution +
    // perf-profile artifact), reps interleaved.
    let (off, on, overhead_pct) = bench_engine();
    let p_off = off.profile();
    let eps = p_off.events_per_sec();
    let p_on = on.profile();
    let eps_on = p_on.events_per_sec();

    let cells = sweep_cells().len();
    let (sweep_serial, ev_serial) = run_sweep(ExecMode::Serial);
    let (sweep_parallel, ev_parallel) = run_sweep(ExecMode::Parallel);
    assert_eq!(
        ev_serial, ev_parallel,
        "parallel sweep processed a different event count — determinism broken"
    );
    let threads = worker_threads(ExecMode::Parallel, cells);
    let sweep_best = sweep_serial.min(sweep_parallel);
    // Speedups are relative to the previous ratchet entry, so they track
    // the most recent accepted baseline rather than a frozen constant.
    let engine_speedup = ratchet::speedup(Some(eps), base.events_per_sec);
    let sweep_speedup = ratchet::speedup(base.sweep_wall_seconds, Some(sweep_best));
    let base_eps = base.events_per_sec.unwrap_or(eps);
    let base_sweep = base.sweep_wall_seconds.unwrap_or(sweep_best);
    println!(
        "engine: {} events in {:.3}s = {eps:.0} events/sec ({engine_speedup:.2}x vs baseline)",
        p_off.events_processed, p_off.wall_seconds
    );
    println!("engine (profiled): {eps_on:.0} events/sec — profiler overhead {overhead_pct:.2}%");
    println!("sweep (serial):   {sweep_serial:.3}s over {ev_serial} events");
    println!("sweep (parallel): {sweep_parallel:.3}s on {threads} thread(s)");
    println!("sweep speedup vs baseline: {sweep_speedup:.2}x");
    let json = format!(
        "{{\"schema\":\"rocc-bench/v2\",\
         \"engine\":{{\"scheduler\":\"wheel\",\"engine_events\":{},\"engine_wall_seconds\":{},\
         \"events_per_sec\":{eps},\
         \"baseline_events_per_sec\":{base_eps},\"engine_speedup\":{engine_speedup}}},\
         \"profiler\":{{\"profiled_events_per_sec\":{eps_on},\"profiler_overhead_pct\":{overhead_pct},\
         \"phases\":{}}},\
         \"sweep\":{{\"serial_wall_seconds\":{sweep_serial},\"parallel_wall_seconds\":{sweep_parallel},\
         \"threads\":{threads},\"events_total\":{ev_serial},\
         \"baseline_sweep_wall_seconds\":{base_sweep},\"sweep_speedup\":{sweep_speedup}}}}}",
        p_off.events_processed,
        p_off.wall_seconds,
        phases_json(&on)
    );
    std::fs::create_dir_all(out_dir).expect("create out dir");
    let path = format!("{out_dir}/BENCH_sim.json");
    std::fs::write(&path, json).expect("write BENCH_sim.json");
    println!("wrote {path}");
    let profile_path = format!("{out_dir}/perf_profile.json");
    std::fs::write(&profile_path, on.perf_profile_json()).expect("write perf_profile.json");
    println!("wrote {profile_path}");
}

fn cmd_check(fresh_path: &str, base_path: &str) {
    let fresh = std::fs::read_to_string(fresh_path).expect("read fresh BENCH_sim.json");
    let base = std::fs::read_to_string(base_path).expect("read base BENCH_sim.json");
    let verdicts = ratchet::check(&fresh, &base);
    let mut failed = false;
    for v in &verdicts {
        if v.failed() {
            failed = true;
            eprintln!("FAIL {}", v.line());
        } else {
            println!("  ok {}", v.line());
        }
    }
    if failed {
        eprintln!("perf check FAILED against the ratchet");
        std::process::exit(1);
    }
    println!("perf check passed ({} metrics)", verdicts.len());
}

fn cmd_ratchet(fresh_path: &str, base_path: &str, out_path: &str) {
    let fresh = std::fs::read_to_string(fresh_path).expect("read fresh BENCH_sim.json");
    let base = std::fs::read_to_string(base_path).expect("read base BENCH_sim.json");
    let (next, log) = ratchet::advance(&fresh, &base);
    for line in &log {
        println!("  {line}");
    }
    std::fs::write(out_path, next).expect("write advanced ratchet");
    println!("wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(|s| s.as_str()) {
        Some("bench") => {
            let out_dir = args.get(2).map(|s| s.as_str()).unwrap_or("bench_out");
            let baseline = args.get(3).map(|s| s.as_str()).unwrap_or("BENCH_sim.json");
            cmd_bench(out_dir, baseline);
        }
        Some("check") => {
            let (Some(fresh), Some(base)) = (args.get(2), args.get(3)) else {
                eprintln!("usage: perf check <fresh> <base>");
                std::process::exit(2);
            };
            cmd_check(fresh, base);
        }
        Some("ratchet") => {
            let (Some(fresh), Some(base)) = (args.get(2), args.get(3)) else {
                eprintln!("usage: perf ratchet <fresh> <base> [<out>]");
                std::process::exit(2);
            };
            let out = args.get(4).unwrap_or(base).clone();
            cmd_ratchet(fresh, base, &out);
        }
        _ => {
            eprintln!(
                "usage: perf bench <out_dir> [<baseline>] | perf check <fresh> <base> | perf ratchet <fresh> <base> [<out>]"
            );
            std::process::exit(2);
        }
    }
}
