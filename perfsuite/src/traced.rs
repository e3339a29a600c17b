//! The traced run: per-layer metrics, the span trace, and the check that
//! the layer budgets add up to the end-to-end figure.
//!
//! Layers come in two kinds. *Workload-derived* numbers (`engine.*`,
//! `sim.*`, `prof.*`, `sched.*`, `reconcile.*`, `slab.peak_live`, `gen.*`,
//! `topology.build_ms`, `cp.update_ns`, `trace.overhead_pct`) are read off
//! this workload's own runs. *Fixed probes* (everything else) run the same
//! small input under every workload, so each traced run reports every
//! per-layer metric and the probes are comparable across workloads.
//!
//! `campaign_fct_grid` runs its simulations inside `fct_grid_supervised`,
//! out of the harness's reach; its workload-derived layers are measured on
//! the benchmark's own FB_Hadoop RoCC cell (the `ft_hadoop_rocc` leg — same
//! fabric, distribution and scheme as a third of the grid), and its trace
//! adds the spans of one full-size campaign repetition.

use crate::run::{timed_reps, RunResult};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::surface::{self, Cc, Instr, SchedOp};
use crate::workloads::{self, Mode, Rep, Workload};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Phase shares and dispatch mix of a traced repetition, legs merged
/// (shares weighted by each leg's event count).
#[derive(Default)]
struct Profile {
    events: f64,
    phase_ns_share: HashMap<&'static str, f64>,
    mix: HashMap<&'static str, u64>,
    queue: Vec<u64>,
}

impl Profile {
    fn absorb(&mut self, leg: &surface::Leg) {
        let events = leg.events() as f64;
        for (name, share) in leg.phase_shares() {
            *self.phase_ns_share.entry(name).or_default() += share * events;
        }
        for (name, count) in leg.dispatch_mix() {
            *self.mix.entry(name).or_default() += count;
        }
        self.events += events;
        if self.queue.is_empty() {
            self.queue = leg.queue_series();
        }
    }

    fn share(&self, phase: &str) -> f64 {
        self.phase_ns_share.get(phase).copied().unwrap_or(0.0) / self.events.max(1.0)
    }

    fn count(&self, kind: &str) -> f64 {
        self.mix.get(kind).copied().unwrap_or(0) as f64
    }
}

/// The first events of the workload's first leg, driven through
/// `Sim::step`: the recorded scheduler stream and the cost of a
/// `step`-driven loop.
struct StepWindow {
    ops: Vec<SchedOp>,
    step_ns: f64,
}

fn step_window(w: Workload, seed: u64, spans: &mut Spans) -> StepWindow {
    let mut leg = workloads::first_leg(w, seed, spans);
    // (popped seq, its due time, push counter before and after the step)
    let mut steps: Vec<(u64, u64, u64, u64)> = Vec::new();
    let started = Instant::now();
    spans.scope("sched.record", |spans| {
        while steps.len() < 200_000 && started.elapsed().as_secs_f64() < 0.6 {
            let Some((at, seq)) = leg.next_event() else {
                break;
            };
            let before = leg.pushes();
            if !leg.step() {
                break;
            }
            steps.push((seq, at, before, leg.pushes()));
        }
        spans.add_events(steps.len() as u64);
    });
    // An event's due time is only seen when it pops; pushes that do not pop
    // inside the window are left out (they sort after every recorded pop, so
    // the recorded order is unaffected).
    let due: HashMap<u64, u64> = steps.iter().map(|&(seq, at, _, _)| (seq, at)).collect();
    let mut ops = Vec::with_capacity(steps.len() * 2);
    let push = |ops: &mut Vec<SchedOp>, seq: u64| {
        if let Some(&at) = due.get(&seq) {
            ops.push(SchedOp::Push { at, seq });
        }
    };
    for seq in 1..=steps.first().map_or(0, |s| s.2) {
        push(&mut ops, seq);
    }
    for &(seq, _, before, after) in &steps {
        ops.push(SchedOp::Pop { seq });
        for pushed in before + 1..=after {
            push(&mut ops, pushed);
        }
    }
    // The same loop without the recorder: what `Sim::step` costs per event.
    let step_ns = spans.scope("engine.step_loop", |spans| {
        let t0 = Instant::now();
        let mut n = 0u64;
        while n < 300_000 && leg.step() {
            n += 1;
        }
        spans.add_events(n);
        t0.elapsed().as_nanos() as f64 / n.max(1) as f64
    });
    StepWindow { ops, step_ns }
}

/// `Sim::snapshot` / `restore` / `state_digest` on the FB_Hadoop RoCC leg
/// 1 ms of simulated time into its run: `(encode ms, bytes, restore ms,
/// digest ms)`.
fn snapshot_probe(
    seed: u64,
    spans: &mut Spans,
    problems: &mut Vec<String>,
) -> (f64, f64, f64, f64) {
    let w = Workload::FtHadoopRocc;
    let mut leg = workloads::first_leg(w, seed, &mut Spans::off());
    leg.run_slice(1_000_000);
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    let (mut enc, mut dig, mut res) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        bytes = spans.scope("sim.snapshot", |_| leg.snapshot());
        enc.push(ms(t0));
        let t0 = Instant::now();
        let want = spans.scope("sim.digest", |_| leg.state_digest());
        dig.push(ms(t0));
        let mut fresh = workloads::first_leg(w, seed, &mut Spans::off());
        let t0 = Instant::now();
        let ok = spans.scope("sim.restore", |_| fresh.restore(&bytes));
        res.push(ms(t0));
        if !ok || fresh.state_digest() != want {
            problems.push("snapshot probe: restored state digest differs".into());
        }
    }
    let fastest = |v: &[f64]| Summary::of(v).min;
    (
        fastest(&enc),
        bytes.len() as f64,
        fastest(&res),
        fastest(&dig),
    )
}

/// Each instrumentation gate enabled alone on an eighth-scale FB_Hadoop
/// RoCC cell, three rounds with the order rotated: percent of the fastest
/// gated run over the fastest bare run, `[sanitizer, telemetry,
/// observatory, profiler]`. (Fastest-of-three: a 0.15 s run on a shared
/// host is only ever slowed by noise, never sped up.)
fn gate_probe(seed: u64, spans: &mut Spans) -> [f64; 4] {
    let w = Workload::FtHadoopRocc;
    let configs = [
        Instr::default(),
        Instr {
            sanitizer: true,
            ..Instr::default()
        },
        Instr {
            telemetry: true,
            ..Instr::default()
        },
        Instr {
            observatory: true,
            ..Instr::default()
        },
        Instr {
            profiler: true,
            ..Instr::default()
        },
    ];
    let mut best = [f64::INFINITY; 5];
    spans.scope("gate.probe", |_| {
        for round in 0..3 {
            for k in 0..configs.len() {
                let c = (k + round) % configs.len();
                let rep = workloads::sim_rep(
                    w,
                    seed,
                    0.125,
                    Mode::Timed,
                    configs[c],
                    &mut Spans::off(),
                    &mut |_| {},
                );
                best[c] = best[c].min(rep.wall_s);
            }
        }
    });
    [1, 2, 3, 4].map(|g| over_pct(best[g], best[0]))
}

/// An eighth-scale campaign, serial then parallel: `(speedup, workers,
/// journal replay ms, aggregate ms)`.
fn campaign_probe(
    seed: u64,
    out_dir: &Path,
    spans: &mut Spans,
    problems: &mut Vec<String>,
) -> (f64, f64, f64, f64) {
    let scale = 0.125;
    let ser_journal = workloads::journal_path(out_dir, seed, "probe-ser");
    let par_journal = workloads::journal_path(out_dir, seed, "probe-par");
    let (ser, agg_ser) = spans.scope("campaign.serial", |s| {
        workloads::campaign_rep(&ser_journal, scale, false, s)
    });
    let (par, agg_par) = spans.scope("campaign.parallel", |s| {
        workloads::campaign_rep(&par_journal, scale, true, s)
    });
    for p in ser.problems.iter().chain(&par.problems) {
        problems.push(format!("campaign probe: {p}"));
    }
    if agg_ser != agg_par {
        problems.push("campaign probe: serial and parallel aggregates differ".into());
    }
    let cfg = surface::campaign_config(scale);
    let cells = surface::journal_cells(&par_journal);
    let t0 = Instant::now();
    std::hint::black_box(spans.scope("fct.aggregate", |_| surface::aggregate(&cfg, &cells)));
    let aggregate_ms = t0.elapsed().as_secs_f64() * 1e3;
    (
        ser.wall_s / par.wall_s,
        surface::campaign_workers(&cfg) as f64,
        par.replay_s * 1e3,
        aggregate_ms,
    )
}

/// `(num / den − 1)` in percent; 0 where there is nothing to compare with
/// (a result line must hold numbers only).
fn over_pct(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        (num / den - 1.0) * 100.0
    } else {
        0.0
    }
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

/// The traced run of `w`: a few untraced repetitions for the baseline,
/// one traced repetition, the step window, the probes, the reconciliation.
/// Writes `<out_dir>/trace/<workload>.json`.
pub fn per_layer(w: Workload, seed: u64, seconds: f64, out_dir: &Path) -> RunResult {
    let mut result = RunResult::default();
    let mut spans = Spans::on(format!("{}-seed{seed}", w.name()));
    // Everything traced runs the run's input 0: the one the warm-up ran.
    let first = crate::gen::input_seed(seed, 0);
    // The simulator workload whose legs the engine-level layers are read
    // from (see the module docs for the campaign).
    let sim_w = if w == Workload::CampaignFctGrid {
        Workload::FtHadoopRocc
    } else {
        w
    };

    // Untraced baseline: a quarter of the budget, at least one repetition.
    let timed = timed_reps(sim_w, seed, seconds / 4.0, 1, out_dir, &mut result);
    let base: &Rep = &timed.warm;
    let o = &base.outcome;
    // Repetitions rotate through inputs whose event counts differ by a
    // percent or so: take ns/event per repetition, then the fastest (host
    // noise only ever adds time; see `run::end_to_end`).
    let per_event: Vec<f64> = timed
        .reps
        .iter()
        .map(|r| r.wall_s * 1e9 / r.outcome.events as f64)
        .collect();
    let per_event = Summary::of(&per_event);
    let ns_per_event = per_event.min;
    let wall_s = ns_per_event * o.events as f64 / 1e9;

    // The traced repetition.
    let mut profile = Profile::default();
    let traced = spans.scope("rep", |spans| {
        workloads::sim_rep(
            sim_w,
            first,
            1.0,
            Mode::Traced,
            sim_w.instr(),
            spans,
            &mut |leg| profile.absorb(leg),
        )
    });
    for p in &traced.problems {
        result.problems.push(format!("traced rep: {p}"));
    }
    if traced.outcome.digest != o.digest {
        result.problems.push(format!(
            "traced run digest {:x} differs from the timed runs' {:x}",
            traced.outcome.digest, o.digest
        ));
    }
    if w == Workload::CampaignFctGrid {
        let journal = workloads::journal_path(out_dir, seed, "traced");
        let (rep, _) = spans.scope("rep.campaign", |s| {
            workloads::campaign_rep(&journal, 1.0, true, s)
        });
        for p in &rep.problems {
            result.problems.push(format!("traced campaign rep: {p}"));
        }
        result.attempted += rep.outcome.offered as u64;
        result.failed += (rep.outcome.offered - rep.outcome.completed) as u64;
    }

    // Probes.
    let window = step_window(sim_w, first, &mut spans);
    let replay = spans.scope("sched.replay", |_| surface::sched_replay(&window.ops));
    if !replay.order_ok {
        result
            .problems
            .push("scheduler replay popped in a different order than recorded".into());
    }
    let slab_ns = spans.scope("slab.probe", |_| surface::slab_alloc_free_ns(o.slab_peak));
    let route_ns = spans.scope("topology.probe", |_| {
        surface::topology_route_ns(&Workload::FtHadoopRocc.fabric())
    });
    let hs = spans.scope("host_switch.probe", |_| surface::host_switch_probes());
    let cp_update_ns = spans.scope("cp.probe", |_| surface::cp_update_ns(&profile.queue));
    let flow_table_ns = spans.scope("cp.table_probe", |_| surface::cp_flow_table_ns());
    let cnp_ns = spans.scope("cnp.probe", |_| surface::cnp_codec_ns());
    let rp_ns = spans.scope("rp.probe", |_| surface::on_feedback_ns(Cc::Rocc));
    let dcqcn_ns = spans.scope("dcqcn.probe", |_| surface::on_feedback_ns(Cc::Dcqcn));
    let hpcc_ns = spans.scope("hpcc.probe", |_| surface::hpcc_on_ack_ns());
    let (enc_ms, snap_bytes, restore_ms, digest_ms) =
        snapshot_probe(first, &mut spans, &mut result.problems);
    let gates = gate_probe(first, &mut spans);
    let (speedup, workers, replay_ms, aggregate_ms) =
        campaign_probe(seed, out_dir, &mut spans, &mut result.problems);
    let legacy_reps = if w == Workload::IncastRocc { 25 } else { 7 };
    let legacy: Vec<f64> = spans.scope("legacy.incast_v2", |_| {
        (0..legacy_reps)
            .map(|rep| {
                let (events, wall) = surface::legacy_incast_v2(rep);
                events as f64 / wall
            })
            .collect()
    });

    // Derived figures.
    let events = o.events as f64;
    let sched_ns = replay.pop_ns + replay.push_ns;
    let pkts = base.packets as f64;
    let fabric = sim_w.fabric();
    // Hosts that interleave many flows pay the ready ring + pacing heap.
    let paced = o.offered > 2 * sim_w.legs() * fabric.senders();
    let host_ns = if paced { hs.paced_pkt_ns } else { hs.pkt_ns };
    let hops = fabric.switch_hops() as f64;
    let (feedback_ns, ack_ns) = match sim_w {
        // Half the packets of the baselines workload run under HPCC, whose
        // per-ACK INT processing is its congestion control.
        Workload::FtHadoopBaselines => (dcqcn_ns, hpcc_ns * pkts / 2.0),
        _ => (rp_ns, 0.0),
    };
    let bare_ns = pkts * (host_ns + hops * hs.hop_ns)
        + o.offered as f64 * hs.flow_churn_ns
        + profile.count("cp_timer") * (sched_ns + cp_update_ns)
        + profile.count("feedback") * (sched_ns + feedback_ns)
        + (profile.count("host_cc_timer") + profile.count("host_wake")) * sched_ns
        + ack_ns;
    // Instruments the workload's timed runs keep on: each gate's measured
    // percentage on top of the bare run, plus one snapshot per checkpoint
    // and one state digest per ledger row.
    let instr = sim_w.instr();
    let gated_pct: f64 = [
        instr.sanitizer,
        instr.telemetry,
        instr.observatory,
        instr.profiler,
    ]
    .iter()
    .zip(gates)
    .map(|(&on, pct)| if on { pct } else { 0.0 })
    .sum();
    let layers_ns = (bare_ns * (1.0 + gated_pct / 100.0)
        + o.checkpoints as f64 * enc_ms * 1e6
        + o.ledger_rows as f64 * digest_ms * 1e6)
        / events;
    let gap_pct = over_pct(layers_ns, ns_per_event);
    let probe_sched_ns = (replay.pop_ns * events + replay.push_ns * o.pushes as f64) / events;
    let prof_sched_ns = (profile.share("sched_pop") + profile.share("sched_push")) * ns_per_event;
    let prof_gap_pct = over_pct(probe_sched_ns, prof_sched_ns);
    for (what, gap) in [
        ("layer probes vs measured ns/event", gap_pct),
        ("scheduler replay vs phase profiler", prof_gap_pct),
    ] {
        if gap.abs() > 10.0 {
            result
                .findings
                .push(format!("{}: {what} differ by {gap:+.1} %", w.name()));
        }
    }

    let r = &mut result;
    r.push("engine.events", events, None);
    r.push("engine.ns_per_event", ns_per_event, Some(per_event));
    r.push("engine.pushes_per_event", o.pushes as f64 / events, None);
    r.push("engine.peak_pending", o.peak_pending as f64, None);
    for kind in [
        "arrive",
        "switch_tx_done",
        "host_tx_done",
        "host_wake",
        "cp_timer",
        "host_cc_timer",
        "feedback",
        "flow_start",
    ] {
        r.push(
            &format!("engine.mix.{kind}"),
            profile.count(kind) / profile.events.max(1.0),
            None,
        );
    }
    r.push("engine.step_ns", window.step_ns, None);
    r.push("sched.push_ns", replay.push_ns, None);
    r.push("sched.pop_ns", replay.pop_ns, None);
    r.push(
        "sched.cascades_per_kpop",
        o.cascades as f64 * 1e3 / events,
        None,
    );
    r.push("sched.rebases", o.rebases as f64, None);
    r.push("slab.alloc_free_ns", slab_ns, None);
    r.push("slab.peak_live", o.slab_peak as f64, None);
    r.push("topology.route_ns", route_ns, None);
    r.push("topology.build_ms", base.topo_s * 1e3, None);
    r.push("switch.hop_ns", hs.hop_ns, None);
    r.push("sim.pfc_pauses", o.pfc_pauses as f64, None);
    r.push("sim.queue_mean_kb", o.queue_mean_bytes / 1e3, None);
    r.push("host.pkt_ns", hs.pkt_ns, None);
    r.push("host.paced_pkt_ns", hs.paced_pkt_ns, None);
    r.push("host.flow_churn_ns", hs.flow_churn_ns, None);
    r.push("cp.update_ns", cp_update_ns, None);
    r.push("cp.flow_table_ns", flow_table_ns, None);
    r.push("cnp.codec_ns", cnp_ns, None);
    r.push("rp.on_cnp_ns", rp_ns, None);
    r.push("sim.cnps", o.cnps as f64, None);
    r.push("dcqcn.on_feedback_ns", dcqcn_ns, None);
    r.push("hpcc.on_ack_ns", hpcc_ns, None);
    r.push("snapshot.encode_ms", enc_ms, None);
    r.push("snapshot.bytes", snap_bytes, None);
    r.push("snapshot.restore_ms", restore_ms, None);
    r.push("digest.state_ms", digest_ms, None);
    for (name, v) in [
        "gate.sanitizer_pct",
        "gate.telemetry_pct",
        "gate.observatory_pct",
        "gate.profiler_pct",
    ]
    .iter()
    .zip(gates)
    {
        r.push(name, v, None);
    }
    r.push("parallel.speedup", speedup, None);
    r.push("parallel.workers", workers, None);
    r.push("supervisor.journal_replay_ms", replay_ms, None);
    r.push("fct.aggregate_ms", aggregate_ms, None);
    r.push("gen.flows", (o.offered / sim_w.legs()) as f64, None);
    r.push("gen.ms", base.gen_s * 1e3, None);
    r.push("sim.flows", o.completed as f64, None);
    r.push("sim.fct_p50_us", percentile(&o.fct_ns, 0.5) / 1e3, None);
    r.push("sim.fct_p99_us", percentile(&o.fct_ns, 0.99) / 1e3, None);
    r.push("sim.retx_bytes", o.retx_bytes as f64, None);
    r.push("sim.drops", o.drops as f64, None);
    r.push("sim.output_digest32", (o.digest & 0xffff_ffff) as f64, None);
    for phase in [
        "sched_pop",
        "sched_push",
        "dispatch",
        "switch_forward",
        "host_compute",
        "cp_tick",
        "telemetry",
        "observatory",
        "sanitizer",
    ] {
        r.push(
            &format!("prof.{phase}_ns"),
            profile.share(phase) * ns_per_event,
            None,
        );
    }
    r.push("reconcile.layers_ns_per_event", layers_ns, None);
    r.push("reconcile.gap_pct", gap_pct, None);
    r.push("reconcile.prof_gap_pct", prof_gap_pct, None);
    r.push("trace.overhead_pct", over_pct(traced.wall_s, wall_s), None);
    let legacy = Summary::of(&legacy);
    r.push("legacy.incast_v2_events_per_s", legacy.max, Some(legacy));

    let path = out_dir.join("trace").join(format!("{}.json", w.name()));
    let written = std::fs::create_dir_all(path.parent().expect("trace dir"))
        .and_then(|()| std::fs::write(&path, spans.to_json().pretty()));
    if let Err(e) = written {
        result
            .problems
            .push(format!("could not write {}: {e}", path.display()));
    }
    result
}
