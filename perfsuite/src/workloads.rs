//! The six workloads: what each one builds, runs and checks in one
//! repetition. All time here is host time; the simulated statistics a
//! repetition returns are exact and must repeat bit for bit.

use crate::gen::{self, Flow, OpenLoop};
use crate::spans::Spans;
use crate::surface::{self, Cc, Dist, Fabric, Instr, Leg, Outcome, ACCESS_BPS, PAYLOAD};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 12→1 dumbbell incast, 64 MB per flow, RoCC.
    IncastRocc,
    /// Quick fat-tree, WebSearch at load 0.7, RoCC.
    FtWebsearchRocc,
    /// Quick fat-tree, FB_Hadoop at load 0.7, RoCC.
    FtHadoopRocc,
    /// The FB_Hadoop schedule under DCQCN, then HPCC.
    FtHadoopBaselines,
    /// FB_Hadoop under RoCC with a fault plan and every instrument on.
    FtHadoopAudited,
    /// The supervised parallel 3-scheme × 2-rep FB_Hadoop grid.
    CampaignFctGrid,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::IncastRocc,
        Workload::FtWebsearchRocc,
        Workload::FtHadoopRocc,
        Workload::FtHadoopBaselines,
        Workload::FtHadoopAudited,
        Workload::CampaignFctGrid,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IncastRocc => "incast_rocc",
            Workload::FtWebsearchRocc => "ft_websearch_rocc",
            Workload::FtHadoopRocc => "ft_hadoop_rocc",
            Workload::FtHadoopBaselines => "ft_hadoop_baselines",
            Workload::FtHadoopAudited => "ft_hadoop_audited",
            Workload::CampaignFctGrid => "campaign_fct_grid",
        }
    }

    /// Why the workload is in the benchmark (one line, ≤ 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::IncastRocc => "12 long flows through one switch: scheduler, host TX pacing and dispatch do nearly all the work; ECMP, flow churn and CP table size do none. Continuity with the v2 incast.",
            Workload::FtWebsearchRocc => "Few long flows over 3 switch hops: switch enqueue/dequeue/forward, ECMP route, slab traffic and PFC dominate; flow churn is negligible.",
            Workload::FtHadoopRocc => "Thousands of tiny flows on the same fabric: flow start/finish churn, many flows per host in the pacing heap, CP flow-table churn, FCT recording.",
            Workload::FtHadoopBaselines => "The same schedule under DCQCN then HPCC: exercises crates/baselines (ECN, CNP timers, INT) and bypasses core CP/RP, so a core change must leave it flat.",
            Workload::FtHadoopAudited => "Faults, sanitizer, telemetry, observatory, auto-checkpoint and digest ledger all on: the slow path plus Sim::snapshot and state_digest, where codec changes show.",
            Workload::CampaignFctGrid => "fct_grid_supervised, 3 schemes x 2 reps on 2 workers with journal and JSON codec: what repro fig14 users wait for; the only one where thread fan-out matters.",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn ccs(self) -> &'static [Cc] {
        match self {
            Workload::FtHadoopBaselines => &[Cc::Dcqcn, Cc::Hpcc],
            _ => &[Cc::Rocc],
        }
    }

    /// The instrumentation the workload's timed repetitions run with.
    pub fn instr(self) -> Instr {
        match self {
            Workload::FtHadoopAudited => Instr::audited(),
            _ => Instr::default(),
        }
    }

    /// Simulations one repetition runs.
    pub fn legs(self) -> usize {
        self.ccs().len()
    }

    /// Build the workload's topology.
    pub fn fabric(self) -> Fabric {
        match self {
            Workload::IncastRocc => surface::dumbbell(12),
            _ => surface::fat_tree_quick(),
        }
    }

    /// Arrival window (simulated ns) at `scale`.
    fn window_ns(self, scale: f64) -> u64 {
        let full = match self {
            // 12 × 64 MB at 40 G drain in ≈ 154 ms.
            Workload::IncastRocc => 150_000_000.0,
            _ => 8_000_000.0,
        };
        (full * scale) as u64
    }

    /// The flow schedule for `seed` at `scale` (1.0 = the benchmark's size).
    pub fn flows(self, fabric: &Fabric, seed: u64, scale: f64) -> Vec<Flow> {
        let dist = match self {
            Workload::IncastRocc => {
                return gen::incast(seed, fabric.senders(), (64e6 * scale) as u64)
            }
            Workload::FtWebsearchRocc => Dist::WebSearch,
            _ => Dist::Hadoop,
        };
        let shape = OpenLoop {
            senders: fabric.senders(),
            receivers: fabric.receivers(),
            load: 0.7,
            link_bps: ACCESS_BPS,
            window_ns: self.window_ns(scale),
        };
        shape.schedule(seed, dist.mean(), |u| dist.quantile(u))
    }
}

/// How a repetition runs its legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One `run_until_flows_done` call, every instrument the workload does
    /// not ask for off. What the end-to-end metrics time.
    Timed,
    /// The traced run: phase profiler on, the run cut into 1 ms-of-sim-time
    /// `run_until` slices, the first congestion point's queue recorded.
    Traced,
}

/// One repetition's measurements and checks.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds from the start of input generation to the first
    /// `run_*` call (summed over the workload's legs).
    pub setup_s: f64,
    /// Host seconds generating the flow schedule.
    pub gen_s: f64,
    /// Host seconds building the topology.
    pub topo_s: f64,
    /// Host seconds inside the run call(s).
    pub wall_s: f64,
    /// Campaign only: host seconds of the same call again on the complete
    /// journal.
    pub replay_s: f64,
    /// Data packets delivered (fixed by the inputs).
    pub packets: u64,
    /// The legs' outcomes, merged.
    pub outcome: Outcome,
    /// Failed correctness checks; empty means the repetition is good.
    pub problems: Vec<String>,
}

fn check(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// One repetition's inputs: the fabric, the flow schedule made from `seed`,
/// and the arrival window the legs average their queues over.
pub struct Input {
    fabric: Fabric,
    flows: Vec<Flow>,
    seed: u64,
    window_ns: u64,
}

impl Workload {
    /// Build the fabric and generate the schedule for `seed` at `scale`.
    pub fn input(self, seed: u64, scale: f64) -> Input {
        let fabric = self.fabric();
        let flows = self.flows(&fabric, seed, scale);
        Input {
            fabric,
            flows,
            seed,
            window_ns: self.window_ns(scale),
        }
    }
}

/// `Sim::new` under `cc` and `instr`, then every `add_flow`.
fn build_leg(input: &Input, cc: Cc, instr: Instr, spans: &mut Spans) -> Leg {
    let mut leg = spans.scope("sim.new", |_| {
        Leg::new(&input.fabric, cc, input.seed, input.window_ns, instr)
    });
    spans.scope("sim.add_flows", |_| {
        leg.add_flows(&input.fabric, &input.flows)
    });
    leg
}

/// The workload's first leg at full size, built and loaded but not run (the
/// step window and the snapshot probe drive it themselves).
pub fn first_leg(w: Workload, seed: u64, spans: &mut Spans) -> Leg {
    build_leg(&w.input(seed, 1.0), w.ccs()[0], w.instr(), spans)
}

/// Run a loaded leg to completion; returns (verdict complete, host seconds).
fn run_leg(leg: &mut Leg, mode: Mode, spans: &mut Spans) -> (bool, f64) {
    let t0 = Instant::now();
    let complete = spans.scope("sim.run", |spans| {
        if mode == Mode::Traced {
            let mut t = leg.now_ns();
            loop {
                t += 1_000_000;
                if t >= leg.deadline_ns() || leg.all_done() {
                    break;
                }
                spans.scope("sim.run.slice", |spans| {
                    let n = leg.run_slice(t);
                    spans.add_events(n);
                });
            }
        }
        let before = leg.events();
        let complete = leg.run();
        spans.add_events(leg.events() - before);
        complete
    });
    (complete, t0.elapsed().as_secs_f64())
}

/// One repetition of a simulator workload (everything but the campaign)
/// under `instr` (normally [`Workload::instr`]; the gate probes override
/// it). `after_leg` sees each leg once its run has ended.
pub fn sim_rep(
    w: Workload,
    seed: u64,
    scale: f64,
    mode: Mode,
    mut instr: Instr,
    spans: &mut Spans,
    after_leg: &mut dyn FnMut(&Leg),
) -> Rep {
    let mut rep = Rep::default();
    let t0 = Instant::now();
    let fabric = spans.scope("topology.build", |_| w.fabric());
    rep.topo_s = t0.elapsed().as_secs_f64();
    let t_gen = Instant::now();
    let flows = spans.scope("gen", |_| w.flows(&fabric, seed, scale));
    rep.gen_s = t_gen.elapsed().as_secs_f64();
    let input = Input {
        fabric,
        flows,
        seed,
        window_ns: w.window_ns(scale),
    };
    let flows = &input.flows;
    rep.packets = gen::packets(flows, PAYLOAD) * w.ccs().len() as u64;
    let bytes: u64 = flows.iter().map(|f| f.size).sum();
    if mode == Mode::Traced {
        instr.profiler = true;
        instr.queue_series = true;
    }
    let mut setup_from = t0;
    for &cc in w.ccs() {
        let mut leg = build_leg(&input, cc, instr, spans);
        rep.setup_s += setup_from.elapsed().as_secs_f64();
        let (complete, wall) = run_leg(&mut leg, mode, spans);
        rep.wall_s += wall;
        let o = leg.outcome(complete);
        let p = &mut rep.problems;
        check(p, o.complete, || {
            format!("{cc:?}: run verdict is not Completed")
        });
        check(p, o.offered == flows.len(), || {
            format!(
                "{cc:?}: {} flows registered, generator made {}",
                o.offered,
                flows.len()
            )
        });
        check(p, o.completed == o.offered, || {
            format!("{cc:?}: {} of {} flows completed", o.completed, o.offered)
        });
        check(p, o.delivered == bytes, || {
            format!("{cc:?}: delivered {} bytes, offered {bytes}", o.delivered)
        });
        check(p, o.drops == 0, || {
            format!("{cc:?}: {} drops on a PFC fabric", o.drops)
        });
        if instr.faults {
            check(p, o.fault_losses > 0, || {
                "fault plan destroyed no packet".into()
            });
            check(p, o.retx_bytes > 0, || {
                "no retransmission under data loss".into()
            });
        } else {
            check(p, o.fault_losses == 0 && o.retx_bytes == 0, || {
                format!(
                    "{cc:?}: losses {} / retx {} without a fault plan",
                    o.fault_losses, o.retx_bytes
                )
            });
        }
        if instr.checkpoint_every.is_some() && scale >= 1.0 {
            check(p, o.checkpoints > 0 && o.ledger_rows > 0, || {
                format!(
                    "{} checkpoints, {} ledger rows",
                    o.checkpoints, o.ledger_rows
                )
            });
        }
        after_leg(&leg);
        rep.outcome.merge(o);
        setup_from = Instant::now();
    }
    rep
}

/// Workload 5's extra check: `checkpoint` (the last auto-checkpoint of a
/// finished audited leg run under `instr`) restored into an identically
/// rebuilt leg and run to the end must give that leg's `(digest, events)`.
pub fn restore_check(
    seed: u64,
    scale: f64,
    instr: Instr,
    checkpoint: &[u8],
    want: (u64, u64),
) -> Result<(), String> {
    let input = Workload::FtHadoopAudited.input(seed, scale);
    let mut leg = build_leg(&input, Cc::Rocc, instr, &mut Spans::off());
    if !leg.restore(checkpoint) {
        return Err("Sim::restore rejected the run's own checkpoint".into());
    }
    let complete = leg.run();
    let got = leg.outcome(complete);
    if (got.digest, got.events) == want {
        Ok(())
    } else {
        Err(format!(
            "restored run: digest {:x} after {} events, uninterrupted: {:x} after {}",
            got.digest, got.events, want.0, want.1
        ))
    }
}

/// Where the campaign's journal lives for this run.
pub fn journal_path(out_dir: &Path, seed: u64, tag: &str) -> PathBuf {
    out_dir
        .join("journal")
        .join(format!("campaign-seed{seed}-{tag}.jsonl"))
}

/// One repetition of the campaign. The grid's flow schedules are fixed by
/// `rocc-experiments` (rep seeds 1000, 1001); `--seed` only names the
/// journal file.
pub fn campaign_rep(
    journal: &Path,
    scale: f64,
    parallel: bool,
    spans: &mut Spans,
) -> (Rep, String) {
    let mut rep = Rep::default();
    let cfg = surface::campaign_config(scale);
    let t0 = Instant::now();
    let sup = spans.scope("campaign.setup", |_| {
        surface::campaign_setup(&cfg, parallel, journal)
    });
    rep.setup_s = t0.elapsed().as_secs_f64();
    let t_run = Instant::now();
    let run = spans.scope("campaign.run", |_| surface::campaign_run(&cfg, &sup));
    rep.wall_s = t_run.elapsed().as_secs_f64();
    let cells = surface::journal_cells(journal);
    let (outcome, packets) = surface::campaign_outcome(&cells, run.ok);
    rep.packets = packets;
    let p = &mut rep.problems;
    check(p, run.ok, || {
        "a cell failed or a scheme row did not drain".into()
    });
    let grid = surface::campaign_cells(&cfg);
    check(p, cells.len() == grid, || {
        format!("journal holds {} cells, grid has {grid}", cells.len())
    });
    check(p, outcome.completed == outcome.offered, || {
        format!(
            "{} of {} flows completed",
            outcome.completed, outcome.offered
        )
    });
    check(p, outcome.drops == 0, || {
        format!("{} drops on a PFC fabric", outcome.drops)
    });
    // The same call again on the complete journal replays every cell and
    // must aggregate byte-identically.
    let t_replay = Instant::now();
    let replay = spans.scope("campaign.replay", |_| surface::campaign_run(&cfg, &sup));
    rep.replay_s = t_replay.elapsed().as_secs_f64();
    check(p, replay.aggregates == run.aggregates, || {
        "journal replay aggregates differ from the fresh run".into()
    });
    rep.outcome = outcome;
    (rep, run.aggregates)
}

/// Host seconds to set up every leg of one repetition of `w` (inputs,
/// topology, `Sim::new`, every `add_flow`) without running it.
fn sim_setup_s(w: Workload, seed: u64) -> f64 {
    let mut from = Instant::now();
    let input = w.input(seed, 1.0);
    let mut total = 0.0;
    for &cc in w.ccs() {
        let leg = build_leg(&input, cc, w.instr(), &mut Spans::off());
        total += from.elapsed().as_secs_f64();
        drop(leg);
        from = Instant::now();
    }
    total
}

/// One timed repetition of any workload.
///
/// The campaign's cells set themselves up inside `fct_grid_supervised`,
/// where the harness cannot time them apart from their runs; so that work
/// a later change moves into `Sim::new` or `add_flow` still shows, the
/// campaign's `setup_s` is its supervisor set-up plus the set-up of one
/// FB_Hadoop RoCC cell built through the benchmark's own calls.
pub fn timed_rep(w: Workload, seed: u64, out_dir: &Path, spans: &mut Spans) -> Rep {
    match w {
        Workload::CampaignFctGrid => {
            let mut rep = campaign_rep(&journal_path(out_dir, seed, "par"), 1.0, true, spans).0;
            rep.setup_s += sim_setup_s(Workload::FtHadoopRocc, seed);
            rep
        }
        _ => sim_rep(w, seed, 1.0, Mode::Timed, w.instr(), spans, &mut |_| {}),
    }
}

/// Set-up alone, for extra `setup_s` samples.
pub fn setup_only(w: Workload, seed: u64, out_dir: &Path) -> f64 {
    match w {
        Workload::CampaignFctGrid => {
            let t0 = Instant::now();
            let cfg = surface::campaign_config(1.0);
            let journal = journal_path(out_dir, seed, "setup");
            std::hint::black_box(surface::campaign_setup(&cfg, true, &journal));
            t0.elapsed().as_secs_f64() + sim_setup_s(Workload::FtHadoopRocc, seed)
        }
        _ => sim_setup_s(w, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w
                .name()
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn default_size_flow_counts_are_fixed_by_the_distribution() {
        let fabric = surface::fat_tree_quick();
        let ws = Workload::FtWebsearchRocc.flows(&fabric, 11, 1.0);
        let hd = Workload::FtHadoopRocc.flows(&fabric, 11, 1.0);
        // 12 senders · 0.7 · 40 Gb/s · 8 ms = 336 MB, over the distributions' means.
        assert_eq!(ws.len(), (336e6 / Dist::WebSearch.mean()).round() as usize);
        assert_eq!(hd.len(), (336e6 / Dist::Hadoop.mean()).round() as usize);
        assert!(ws.len() > 150 && ws.len() < 300, "{}", ws.len());
        assert!(hd.len() > 10_000, "{}", hd.len());
        assert_eq!(hd, Workload::FtHadoopAudited.flows(&fabric, 11, 1.0));
    }

    #[test]
    fn every_simulator_workload_completes_at_one_twentieth_scale() {
        for w in Workload::ALL {
            if w == Workload::CampaignFctGrid {
                continue;
            }
            for mode in [Mode::Timed, Mode::Traced] {
                let rep = sim_rep(
                    w,
                    11,
                    0.05,
                    mode,
                    w.instr(),
                    &mut Spans::on("t"),
                    &mut |_| {},
                );
                assert!(
                    rep.problems.is_empty(),
                    "{} {mode:?}: {:?}",
                    w.name(),
                    rep.problems
                );
                assert!(rep.wall_s > 0.0 && rep.setup_s > 0.0 && rep.packets > 0);
            }
        }
    }

    #[test]
    fn timed_and_traced_runs_agree_on_the_output_digest() {
        let w = Workload::FtHadoopRocc;
        let a = sim_rep(
            w,
            7,
            0.05,
            Mode::Timed,
            w.instr(),
            &mut Spans::off(),
            &mut |_| {},
        );
        let b = sim_rep(
            w,
            7,
            0.05,
            Mode::Traced,
            w.instr(),
            &mut Spans::on("t"),
            &mut |_| {},
        );
        assert_eq!(a.outcome.digest, b.outcome.digest);
        assert_eq!(a.outcome.fct_ns, b.outcome.fct_ns);
    }

    #[test]
    fn audited_run_restores_from_its_own_checkpoint() {
        let w = Workload::FtHadoopAudited;
        let instr = Instr {
            checkpoint_every: Some(50_000),
            ledger_every: Some(50_000),
            ..w.instr()
        };
        let mut checkpoint = None;
        let rep = sim_rep(
            w,
            11,
            0.05,
            Mode::Timed,
            instr,
            &mut Spans::off(),
            &mut |leg| {
                checkpoint = leg.last_checkpoint();
            },
        );
        assert!(rep.problems.is_empty(), "{:?}", rep.problems);
        assert!(rep.outcome.checkpoints > 0 && rep.outcome.ledger_rows > 0);
        let want = (rep.outcome.digest, rep.outcome.events);
        restore_check(11, 0.05, instr, &checkpoint.expect("a checkpoint"), want).unwrap();
        assert!(restore_check(11, 0.05, instr, &[1, 2, 3], want).is_err());
    }

    #[test]
    fn campaign_completes_at_one_twentieth_scale_serial_equals_parallel() {
        let dir = std::env::temp_dir().join(format!("perfsuite-test-{}", std::process::id()));
        let (par, agg_par) =
            campaign_rep(&journal_path(&dir, 1, "par"), 0.05, true, &mut Spans::off());
        let (ser, agg_ser) = campaign_rep(
            &journal_path(&dir, 1, "ser"),
            0.05,
            false,
            &mut Spans::off(),
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert!(par.problems.is_empty(), "{:?}", par.problems);
        assert!(ser.problems.is_empty(), "{:?}", ser.problems);
        assert_eq!(agg_par, agg_ser);
        assert_eq!(par.outcome.digest, ser.outcome.digest);
    }
}
