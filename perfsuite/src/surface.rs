//! The one file that calls into the simulator. Everything the benchmark
//! needs from `rocc-sim`, `rocc-core` and `rocc-experiments` goes through
//! the functions below, and only through public items the repository's own
//! experiments use; the rest of the suite times, counts and checks what
//! these return. A PR that has to change one of these signatures changes
//! the benchmark, and so is a benchmark PR first.

use crate::gen::Flow;
use rocc_core::{Cnp, CpParams, FairRateCalculator, FlowTablePolicy};
use rocc_experiments::fct::{self, BufferRegime, FatTreeConfig, RunOutput, Workload};
use rocc_experiments::micro::sim_with;
use rocc_experiments::parallel::{worker_threads, ExecMode};
use rocc_experiments::scenarios;
use rocc_experiments::schemes::Scheme;
use rocc_experiments::supervisor::{load_journal, Supervisor};
use rocc_experiments::Scale;
use rocc_sim::prelude::*;
// By glob and by method syntax, so the scheduler probe keeps compiling when
// `push`/`pop` move from the `Scheduler` trait to inherent methods.
#[allow(unused_imports)]
use rocc_sim::sched::*;
use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Bytes of payload per data packet (`SimConfig::default().mtu_payload`).
pub const PAYLOAD: u64 = 1000;
/// Access-link rate of every host in every fabric here.
pub const ACCESS_BPS: u64 = 40_000_000_000;

/// The simulator reads these when a `Sim` is built; a stray value in the
/// caller's shell must not change what is measured.
pub fn clear_env() {
    for k in ["ROCC_SCHEDULER", "ROCC_SANITIZE", "ROCC_VERDICT_DIR"] {
        std::env::remove_var(k);
    }
}

// ------------------------------------------------------------------ inputs

/// Flow-size distribution of a fat-tree workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// DCTCP WebSearch.
    WebSearch,
    /// Facebook Hadoop.
    Hadoop,
}

impl Dist {
    fn workload(self) -> Workload {
        match self {
            Dist::WebSearch => Workload::WebSearch,
            Dist::Hadoop => Workload::FbHadoop,
        }
    }

    /// Mean flow size, bytes.
    pub fn mean(self) -> f64 {
        self.workload().dist().mean()
    }

    /// Size at cumulative probability `u`.
    pub fn quantile(self, u: f64) -> u64 {
        self.workload().dist().quantile(u)
    }
}

/// Congestion-control scheme of a leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cc {
    /// RoCC (`crates/core`).
    Rocc,
    /// DCQCN (`crates/baselines`).
    Dcqcn,
    /// HPCC (`crates/baselines`).
    Hpcc,
}

impl Cc {
    fn scheme(self) -> Scheme {
        match self {
            Cc::Rocc => Scheme::Rocc,
            Cc::Dcqcn => Scheme::Dcqcn,
            Cc::Hpcc => Scheme::Hpcc,
        }
    }
}

/// A built topology plus the host lists the generator indexes into.
pub struct Fabric {
    topo: Topology,
    senders: Vec<NodeId>,
    receivers: Vec<NodeId>,
    /// Congestion-point ports whose mean depth is `sim.queue_mean_kb`.
    cp_ports: Vec<(NodeId, PortId)>,
    base_rtt_us: u64,
    hops: u64,
}

impl Fabric {
    /// Number of sending hosts.
    pub fn senders(&self) -> usize {
        self.senders.len()
    }

    /// Number of receiving hosts.
    pub fn receivers(&self) -> usize {
        self.receivers.len()
    }

    /// Switches a data packet crosses from a sender to a receiver.
    pub fn switch_hops(&self) -> u64 {
        self.hops
    }
}

/// `n` senders, one switch, one receiver, all links 40 G / 1 µs — the
/// dumbbell of the retired `perf` binary, so the continuity row runs the
/// same network.
pub fn dumbbell(n: usize) -> Fabric {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let dst = b.add_host("dst");
    let (port, _) = b.connect(sw, dst, BitRate::from_gbps(40), SimDuration::from_micros(1));
    let senders = (0..n)
        .map(|i| {
            let h = b.add_host(format!("s{i}"));
            b.connect(h, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
            h
        })
        .collect();
    Fabric {
        topo: b.build(),
        senders,
        receivers: vec![dst],
        cp_ports: vec![(sw, port)],
        base_rtt_us: 4,
        hops: 1,
    }
}

/// The quick-scale fat-tree of `repro fig14…`: 6 hosts per edge, 1 trunk,
/// 2:1 oversubscribed; edges 0/1 send to edge 2.
pub fn fat_tree_quick() -> Fabric {
    let c = FatTreeConfig::for_scale(Scale::Quick);
    let ft = scenarios::fat_tree(c.hosts_per_edge, c.trunks);
    let cp_ports = ft
        .core_cp_ports
        .iter()
        .chain(&ft.ingress_cp_ports)
        .chain(&ft.egress_cp_ports)
        .copied()
        .collect();
    Fabric {
        topo: ft.topo,
        senders: ft.senders,
        receivers: ft.receivers,
        cp_ports,
        base_rtt_us: 13,
        hops: 3,
    }
}

/// `switches` switches in a line between one sender and one receiver
/// (the differential switch / host probes).
fn line(switches: usize) -> Fabric {
    let mut b = TopologyBuilder::new();
    let rate = BitRate::from_gbps(40);
    let delay = SimDuration::from_micros(1);
    let src = b.add_host("src");
    let dst = b.add_host("dst");
    let sws: Vec<NodeId> = (0..switches)
        .map(|i| b.add_switch(format!("sw{i}"), NodeRole::Switch))
        .collect();
    b.connect(src, sws[0], rate, delay);
    for w in sws.windows(2) {
        b.connect(w[0], w[1], rate, delay);
    }
    b.connect(sws[switches - 1], dst, rate, delay);
    Fabric {
        topo: b.build(),
        senders: vec![src],
        receivers: vec![dst],
        cp_ports: Vec::new(),
        base_rtt_us: 4,
        hops: switches as u64,
    }
}

// -------------------------------------------------------------------- legs

/// Which instrumentation a leg runs with. `Default` is everything off —
/// the configuration every timed repetition uses unless the workload is
/// the audited one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Instr {
    /// Invariant sanitizer + PFC watchdog.
    pub sanitizer: bool,
    /// Telemetry collection of every event class plus metrics.
    pub telemetry: bool,
    /// Observatory sampler.
    pub observatory: bool,
    /// Phase profiler.
    pub profiler: bool,
    /// `Sim::snapshot` every this many events.
    pub checkpoint_every: Option<u64>,
    /// `Sim::state_digest` every this many events.
    pub ledger_every: Option<u64>,
    /// Fault plan: 0.2 % data loss, 1 % CNP loss, one 100 µs trunk flap.
    pub faults: bool,
    /// Record the first congestion point's queue series (traced run only;
    /// feeds the `cp.update_ns` probe).
    pub queue_series: bool,
}

impl Instr {
    /// Every gate on (workload `ft_hadoop_audited`).
    pub fn audited() -> Self {
        Instr {
            sanitizer: true,
            telemetry: true,
            observatory: true,
            checkpoint_every: Some(1_000_000),
            ledger_every: Some(1_000_000),
            faults: true,
            ..Instr::default()
        }
    }
}

/// The last auto-checkpoint a leg took, and how many it took.
#[derive(Default)]
struct Checkpoints {
    taken: u64,
    last: Option<Vec<u8>>,
}

/// One simulation: built, loaded with flows, run, then read.
pub struct Leg {
    sim: Sim,
    deadline: SimTime,
    checkpoints: Rc<RefCell<Checkpoints>>,
}

/// What a finished leg produced, as plain numbers.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The run's verdict was `Completed`.
    pub complete: bool,
    /// Flows registered.
    pub offered: usize,
    /// Flows with an FCT record.
    pub completed: usize,
    /// Σ receiver-side delivered bytes over all flows.
    pub delivered: u64,
    /// Buffer drops + unroutable drops (zero on a lossless fabric).
    pub drops: u64,
    /// Packets destroyed by the fault plan.
    pub fault_losses: u64,
    /// Go-back-N retransmitted bytes.
    pub retx_bytes: u64,
    /// PFC pause frames sent.
    pub pfc_pauses: u64,
    /// Control packets emitted by switch CC (RoCC CNPs, DCQCN CNPs, …).
    pub cnps: u64,
    /// Mean depth over the fabric's congestion-point ports, bytes.
    pub queue_mean_bytes: f64,
    /// FCTs in simulated ns, ascending.
    pub fct_ns: Vec<u64>,
    /// FNV-1a-64 over sorted (flow, size, FCT) plus the counters above.
    pub digest: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// Scheduler pushes.
    pub pushes: u64,
    /// Deepest event queue.
    pub peak_pending: usize,
    /// Most packets live in the slab at once.
    pub slab_peak: usize,
    /// Timing-wheel cascades.
    pub cascades: u64,
    /// Timing-wheel rebases.
    pub rebases: u64,
    /// Auto-checkpoints taken.
    pub checkpoints: u64,
    /// Digest-ledger rows recorded.
    pub ledger_rows: usize,
}

impl Outcome {
    /// Fold a further leg of the same repetition into this outcome: counts
    /// add, peaks take the maximum, digests chain in leg order.
    pub fn merge(&mut self, o: Outcome) {
        if self.offered == 0 {
            *self = o;
            return;
        }
        self.complete &= o.complete;
        self.offered += o.offered;
        self.completed += o.completed;
        self.delivered += o.delivered;
        self.drops += o.drops;
        self.fault_losses += o.fault_losses;
        self.retx_bytes += o.retx_bytes;
        self.pfc_pauses += o.pfc_pauses;
        self.cnps += o.cnps;
        self.queue_mean_bytes = (self.queue_mean_bytes + o.queue_mean_bytes) / 2.0;
        self.fct_ns.extend(o.fct_ns);
        self.fct_ns.sort_unstable();
        fnv1a(&mut self.digest, o.digest);
        self.events += o.events;
        self.pushes += o.pushes;
        self.peak_pending = self.peak_pending.max(o.peak_pending);
        self.slab_peak = self.slab_peak.max(o.slab_peak);
        self.cascades += o.cascades;
        self.rebases += o.rebases;
        self.checkpoints += o.checkpoints;
        self.ledger_rows += o.ledger_rows;
    }
}

/// `Sim::add_flow` for every flow of `flows`; ids are list positions.
fn add_flows(sim: &mut Sim, fabric: &Fabric, flows: &[Flow]) {
    for (i, f) in flows.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: fabric.senders[f.src],
            dst: fabric.receivers[f.dst],
            size: f.size,
            start: SimTime::from_nanos(f.start_ns),
            offered: None,
        });
    }
}

fn fnv1a(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Leg {
    /// `Sim::new` over `fabric` under `cc`, configured like a §6.3 cell:
    /// lossless PFC, 200 µs sampling, queue averages over the arrival
    /// `window`, and the quick config's 800 ms drain bound after it.
    pub fn new(fabric: &Fabric, cc: Cc, seed: u64, window_ns: u64, instr: Instr) -> Leg {
        let mut cfg = fct::fat_tree_sim_config(BufferRegime::Pfc, seed);
        if instr.faults {
            let (node, port) = fabric.cp_ports[0];
            cfg.fault_plan = FaultPlan::default()
                .with_loss(FaultTarget::Data, 0.002)
                .with_loss(FaultTarget::Cnp, 0.01)
                .with_flap(
                    fabric.topo.out_link(node, port),
                    SimTime::from_nanos(window_ns / 4),
                    SimTime::from_nanos(window_ns / 4 + 100_000),
                );
        }
        let mut sim = sim_with(fabric.topo.clone(), cc.scheme(), fabric.base_rtt_us, cfg);
        sim.trace.sample_period = Some(SimDuration::from_micros(200));
        sim.trace.avg_until = Some(SimTime::from_nanos(window_ns));
        for &(n, p) in &fabric.cp_ports {
            sim.trace.watch_queue_avg(n, p);
        }
        if instr.queue_series {
            if let Some(&(n, p)) = fabric.cp_ports.first() {
                sim.trace.watch_queue(n, p);
            }
        }
        if instr.sanitizer {
            sim.enable_sanitizer();
        }
        if instr.telemetry {
            sim.trace.telemetry.collect(EventMask::ALL);
            sim.trace.telemetry.enable_metrics();
        }
        if instr.observatory {
            sim.trace.observatory.enable();
        }
        if instr.profiler {
            sim.enable_profiler();
        }
        let checkpoints = Rc::new(RefCell::new(Checkpoints::default()));
        if let Some(stride) = instr.checkpoint_every {
            let sink = Rc::clone(&checkpoints);
            sim.enable_auto_checkpoint(
                stride,
                Box::new(move |_events, bytes| {
                    let mut c = sink.borrow_mut();
                    c.taken += 1;
                    c.last = Some(bytes.to_vec());
                }),
            );
        }
        if let Some(stride) = instr.ledger_every {
            sim.enable_digest_ledger(stride);
        }
        Leg {
            sim,
            deadline: SimTime::from_nanos(window_ns) + SimDuration::from_millis(800),
            checkpoints,
        }
    }

    /// Register `flows` (ids are list positions).
    pub fn add_flows(&mut self, fabric: &Fabric, flows: &[Flow]) {
        add_flows(&mut self.sim, fabric, flows);
    }

    /// `Sim::run_until_flows_done` to the leg's deadline.
    pub fn run(&mut self) -> bool {
        self.sim.run_until_flows_done(self.deadline).is_complete()
    }

    /// `Sim::run_until(t_ns)`; returns events dispatched by the slice.
    pub fn run_slice(&mut self, t_ns: u64) -> u64 {
        let before = self.sim.events_processed();
        self.sim.run_until(SimTime::from_nanos(t_ns));
        self.sim.events_processed() - before
    }

    /// `Sim::step`.
    pub fn step(&mut self) -> bool {
        self.sim.step()
    }

    /// Simulated now, ns.
    pub fn now_ns(&self) -> u64 {
        self.sim.kernel.now.as_nanos()
    }

    /// Deadline, simulated ns.
    pub fn deadline_ns(&self) -> u64 {
        self.deadline.as_nanos()
    }

    /// Every registered flow has an FCT record.
    pub fn all_done(&self) -> bool {
        self.sim.trace.fcts.len() == self.sim.flows().len()
    }

    /// Events dispatched so far.
    pub fn events(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Scheduler pushes so far (the kernel's sequence counter).
    pub fn pushes(&self) -> u64 {
        self.sim.profiled_pushes()
    }

    /// `(at ns, seq)` of the next event to dispatch, parsed from
    /// `Sim::next_event_brief` (`"[at N ns, seq S] Kind { .. }"`).
    pub fn next_event(&self) -> Option<(u64, u64)> {
        let brief = self.sim.next_event_brief()?;
        let rest = brief.strip_prefix("[at ")?;
        let (at, rest) = rest.split_once(" ns, seq ")?;
        let (seq, _kind) = rest.split_once("] ")?;
        Some((at.parse().ok()?, seq.parse().ok()?))
    }

    /// `Sim::snapshot`.
    pub fn snapshot(&self) -> Vec<u8> {
        self.sim.snapshot()
    }

    /// `Sim::restore` into this (identically rebuilt) leg.
    pub fn restore(&mut self, bytes: &[u8]) -> bool {
        self.sim.restore(bytes).is_ok()
    }

    /// `Sim::state_digest`, folded to one word.
    pub fn state_digest(&self) -> u64 {
        rocc_sim::digest::combined_digest(&self.sim.state_digest())
    }

    /// The last auto-checkpoint taken, if any.
    pub fn last_checkpoint(&self) -> Option<Vec<u8>> {
        self.checkpoints.borrow().last.clone()
    }

    /// Phase profiler rows `(phase, share of sampled wall time)`;
    /// meaningful after a run with `Instr::profiler`.
    pub fn phase_shares(&self) -> Vec<(&'static str, f64)> {
        let rows = self
            .sim
            .kernel
            .prof
            .phase_shares(self.sim.profiled_pushes());
        rows.into_iter()
            .map(|(name, share, _)| (name, share))
            .collect()
    }

    /// The profiler's dispatch mix `(event kind, count)`.
    pub fn dispatch_mix(&self) -> Vec<(&'static str, u64)> {
        self.sim.kernel.prof.dispatch_mix()
    }

    /// The recorded queue series of the first congestion point, bytes.
    pub fn queue_series(&self) -> Vec<u64> {
        self.sim
            .trace
            .queue_series
            .first()
            .map(|s| s.iter().map(|x| x.v as u64).collect())
            .unwrap_or_default()
    }

    /// Read the finished (or stopped) leg.
    pub fn outcome(&self, complete: bool) -> Outcome {
        let sim = &self.sim;
        let t = &sim.trace;
        let mut recs: Vec<(u64, u64, u64)> = t
            .fcts
            .iter()
            .map(|r| (r.flow.0, r.size, r.fct().as_nanos()))
            .collect();
        recs.sort_unstable();
        let delivered = sim.flows().iter().map(|f| t.delivered_bytes(f.id)).sum();
        let drops = t.drops + t.unroutable_drops;
        let pfc_pauses = t.pfc_events.len() as u64;
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for &(flow, size, fct) in &recs {
            fnv1a(&mut digest, flow);
            fnv1a(&mut digest, size);
            fnv1a(&mut digest, fct);
        }
        for v in [pfc_pauses, drops, t.retx_bytes] {
            fnv1a(&mut digest, v);
        }
        let mut fct_ns: Vec<u64> = recs.iter().map(|r| r.2).collect();
        fct_ns.sort_unstable();
        let ports = t.watched_avg_ports();
        let queue_mean_bytes = if ports.is_empty() {
            0.0
        } else {
            ports
                .iter()
                .filter_map(|&(n, p)| t.queue_avg(n, p))
                .sum::<f64>()
                / ports.len() as f64
        };
        let sched = sim.kernel.scheduler_stats();
        Outcome {
            complete,
            offered: sim.flows().len(),
            completed: recs.len(),
            delivered,
            drops,
            fault_losses: t.faults.total(),
            retx_bytes: t.retx_bytes,
            pfc_pauses,
            cnps: t.ctrl_emitted,
            queue_mean_bytes,
            fct_ns,
            digest,
            events: sim.events_processed(),
            pushes: sim.profiled_pushes(),
            peak_pending: sim.kernel.peak_pending(),
            slab_peak: sim.kernel.packets.peak_live(),
            cascades: sched.cascades,
            rebases: sched.rebases,
            checkpoints: self.checkpoints.borrow().taken,
            ledger_rows: sim.digest_ledger().map_or(0, |l| l.entries().len()),
        }
    }
}

// ---------------------------------------------------------------- campaign

/// Result of one `fct_grid_supervised` call.
pub struct CampaignRun {
    /// Every cell succeeded and every scheme row drained.
    pub ok: bool,
    /// The scheme rows' canonical JSON, concatenated.
    pub aggregates: String,
}

/// The campaign grid's dimensions: the quick config, with the arrival
/// window scaled by `scale` (1.0 = what `repro fig14` runs).
pub fn campaign_config(scale: f64) -> FatTreeConfig {
    let mut c = FatTreeConfig::for_scale(Scale::Quick);
    c.window = SimDuration::from_nanos((c.window.as_nanos() as f64 * scale) as u64);
    c
}

/// Supervisor + journal set-up and the grid's cell keys: what a campaign
/// does before its first cell runs.
pub fn campaign_setup(cfg: &FatTreeConfig, parallel: bool, journal: &Path) -> Supervisor {
    let _ = std::fs::remove_file(journal);
    if let Some(dir) = journal.parent() {
        std::fs::create_dir_all(dir).expect("create journal directory");
    }
    for scheme in Scheme::large_scale_set() {
        for rep in 0..cfg.reps {
            black_box(fct::fct_cell_key(
                scheme,
                Workload::FbHadoop,
                0.7,
                cfg,
                BufferRegime::Pfc,
                rep,
            ));
        }
    }
    let mode = if parallel {
        ExecMode::Parallel
    } else {
        ExecMode::Serial
    };
    Supervisor::new(mode).with_journal(journal)
}

/// `fct_grid_supervised(FbHadoop, 0.7, cfg, Pfc, sup)`: 3 schemes × 2 reps.
pub fn campaign_run(cfg: &FatTreeConfig, sup: &Supervisor) -> CampaignRun {
    let (rows, report) =
        fct::fct_grid_supervised(Workload::FbHadoop, 0.7, cfg, BufferRegime::Pfc, sup);
    CampaignRun {
        ok: report.all_ok() && rows.iter().all(|r| r.all_completed),
        aggregates: rows
            .iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

/// Cells in the grid: 3 schemes × `cfg.reps`.
pub fn campaign_cells(cfg: &FatTreeConfig) -> usize {
    Scheme::large_scale_set().len() * cfg.reps
}

/// Worker threads a parallel run of the grid uses here.
pub fn campaign_workers(cfg: &FatTreeConfig) -> usize {
    worker_threads(ExecMode::Parallel, campaign_cells(cfg))
}

/// The journal's decoded cells, sorted by cell key: a parallel campaign
/// appends them in completion order, and the key order (DCQCN, HPCC, RoCC;
/// rep 0, 1) happens to be the grid's.
pub fn journal_cells(journal: &Path) -> Vec<RunOutput> {
    let mut entries = load_journal(journal);
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    entries
        .iter()
        .filter_map(|e| RunOutput::from_json(e.result_raw.as_deref()?))
        .collect()
}

/// Fold journal cells into an [`Outcome`] (flows, packets' sizes, digest).
pub fn campaign_outcome(cells: &[RunOutput], ok: bool) -> (Outcome, u64) {
    let mut o = Outcome {
        complete: ok,
        ..Outcome::default()
    };
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut packets = 0;
    for c in cells {
        o.offered += c.offered_flows;
        o.completed += c.fcts.len();
        o.drops += c.drops;
        o.retx_bytes += c.retx_bytes;
        o.pfc_pauses += c.pfc_core + c.pfc_ingress + c.pfc_egress;
        o.queue_mean_bytes += (c.q_core + c.q_ingress + c.q_egress) / (3.0 * cells.len() as f64);
        for &(size, fct) in &c.fcts {
            o.delivered += size;
            packets += size.div_ceil(PAYLOAD);
            let ns = (fct * 1e9).round() as u64;
            o.fct_ns.push(ns);
            fnv1a(&mut digest, size);
            fnv1a(&mut digest, ns);
        }
    }
    for v in [o.pfc_pauses, o.drops, o.retx_bytes] {
        fnv1a(&mut digest, v);
    }
    o.fct_ns.sort_unstable();
    o.digest = digest;
    (o, packets)
}

/// `aggregate_outputs` over the RoCC cells of a journal (the last
/// `cfg.reps` cells: the grid is scheme-major, RoCC last).
pub fn aggregate(cfg: &FatTreeConfig, cells: &[RunOutput]) -> usize {
    let rocc = &cells[cells.len().saturating_sub(cfg.reps)..];
    fct::aggregate_outputs(Scheme::Rocc, Workload::FbHadoop, cfg, rocc)
        .to_json()
        .len()
}

// ------------------------------------------------------------------ probes
//
// Each probe returns nanoseconds per operation for one layer, measured
// outside any simulation unless it says otherwise. `reps` loops are sized
// so one probe takes tens of milliseconds.

fn ns_per(t0: Instant, ops: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// One recorded scheduler operation.
#[derive(Debug, Clone, Copy)]
pub enum SchedOp {
    /// `push` of an event due at `at` with sequence number `seq`.
    Push {
        /// Due time, ns.
        at: u64,
        /// Sequence number.
        seq: u64,
    },
    /// `pop`, which must return sequence number `seq`.
    Pop {
        /// Expected sequence number.
        seq: u64,
    },
}

/// Result of replaying a recorded stream through an isolated wheel.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedReplay {
    /// ns per push.
    pub push_ns: f64,
    /// ns per pop.
    pub pop_ns: f64,
    /// Every pop returned the recorded sequence number.
    pub order_ok: bool,
}

fn replay_pass(ops: &[SchedOp], time_push: bool, time_pop: bool) -> (f64, f64, bool) {
    let mut wheel = TimingWheel::default();
    let (mut t_push, mut t_pop, mut ok) = (0u128, 0u128, true);
    for op in ops {
        match *op {
            SchedOp::Push { at, seq } => {
                let s = Scheduled {
                    at: SimTime::from_nanos(at),
                    seq,
                    ev: Event::Sample,
                };
                if time_push {
                    let t0 = Instant::now();
                    wheel.push(s);
                    t_push += t0.elapsed().as_nanos();
                } else {
                    wheel.push(s);
                }
            }
            SchedOp::Pop { seq } => {
                let got = if time_pop {
                    let t0 = Instant::now();
                    let got = wheel.pop();
                    t_pop += t0.elapsed().as_nanos();
                    got
                } else {
                    wheel.pop()
                };
                ok &= got.map(|s| s.seq) == Some(seq);
            }
        }
    }
    (t_push as f64, t_pop as f64, ok)
}

/// Replay `ops` through a fresh `TimingWheel`. The total is the fastest of
/// five passes with no clock reads inside; two instrumented passes (one timing only pushes,
/// one only pops, clock overhead subtracted) give the push : pop split.
pub fn sched_replay(ops: &[SchedOp]) -> SchedReplay {
    let pushes = ops
        .iter()
        .filter(|o| matches!(o, SchedOp::Push { .. }))
        .count() as u64;
    let pops = ops.len() as u64 - pushes;
    if pushes == 0 || pops == 0 {
        return SchedReplay::default();
    }
    // What an empty timed region reads: the clock's own latency, which
    // every instrumented push / pop below also contains.
    let clock_ns = (0..20_000)
        .map(|_| Instant::now().elapsed().as_nanos() as f64)
        .sum::<f64>()
        / 20_000.0;
    let mut total = f64::INFINITY;
    let mut order_ok = true;
    for _ in 0..5 {
        let t0 = Instant::now();
        let (_, _, ok) = replay_pass(ops, false, false);
        total = total.min(t0.elapsed().as_nanos() as f64);
        order_ok &= ok;
    }
    let (raw_push, _, _) = replay_pass(ops, true, false);
    let (_, raw_pop, _) = replay_pass(ops, false, true);
    let push_part = (raw_push - clock_ns * pushes as f64).max(1.0);
    let pop_part = (raw_pop - clock_ns * pops as f64).max(1.0);
    let push_share = push_part / (push_part + pop_part);
    SchedReplay {
        push_ns: total * push_share / pushes as f64,
        pop_ns: total * (1.0 - push_share) / pops as f64,
        order_ok,
    }
}

/// `PacketSlab` alloc + take at a steady `live` packets in flight.
pub fn slab_alloc_free_ns(live: usize) -> f64 {
    let pkt = Packet {
        flow: FlowId(1),
        src: NodeId(0),
        dst: NodeId(1),
        kind: PacketKind::Data {
            seq: 0,
            payload: PAYLOAD,
            last: false,
        },
        ecn: false,
        int: IntStack::new(),
        sent_at: SimTime::ZERO,
    };
    let live = live.max(1);
    let mut slab = PacketSlab::new();
    let mut ring: Vec<PacketRef> = (0..live).map(|_| slab.alloc(pkt)).collect();
    let ops = 400_000u64;
    let t0 = Instant::now();
    for i in 0..ops as usize {
        let slot = i % live;
        black_box(slab.take(ring[slot]));
        ring[slot] = slab.alloc(black_box(pkt));
    }
    ns_per(t0, ops)
}

/// `Topology::route` at an edge switch of the quick fat-tree (3 ECMP
/// candidates), over distinct flow ids.
pub fn topology_route_ns(fabric: &Fabric) -> f64 {
    let topo = &fabric.topo;
    let edge = topo.neighbor(fabric.senders[0], PortId(0));
    let ops = 1_000_000u64;
    let t0 = Instant::now();
    let mut acc = 0usize;
    for i in 0..ops {
        let dst = fabric.receivers[(i % fabric.receivers.len() as u64) as usize];
        acc += topo.route(edge, dst, FlowId(i)).map_or(0, |p| p.0);
    }
    black_box(acc);
    ns_per(t0, ops)
}

/// Wall seconds of `run_until_flows_done` for `flows` on `fabric` under
/// `host_cc` with no switch CC (the differential host / switch probes).
fn bare_run(fabric: &Fabric, host_cc: Box<dyn HostCcFactory>, flows: &[Flow]) -> f64 {
    let mut sim = Sim::new(
        fabric.topo.clone(),
        SimConfig::default(),
        host_cc,
        Box::new(NullSwitchCcFactory),
    );
    add_flows(&mut sim, fabric, flows);
    let t0 = Instant::now();
    let ok = sim
        .run_until_flows_done(SimTime::from_millis(2_000))
        .is_complete();
    let wall = t0.elapsed().as_secs_f64();
    assert!(ok, "probe flows did not complete");
    wall
}

/// The differential host and switch probes, ns per data packet.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSwitchProbes {
    /// One extra switch on the path of one packet (data hop + its ACK).
    pub hop_ns: f64,
    /// Both end hosts, one line-rate flow.
    pub pkt_ns: f64,
    /// Both end hosts, 256 concurrent paced flows.
    pub paced_pkt_ns: f64,
    /// Starting and finishing one flow.
    pub flow_churn_ns: f64,
}

/// Run the two-host probes: a line-rate flow over 1 and 5 switches, 256
/// fixed-rate flows, and N one-packet flows against one N-packet flow.
pub fn host_switch_probes() -> HostSwitchProbes {
    let pkts = 60_000u64;
    let one = [Flow {
        src: 0,
        dst: 0,
        size: pkts * PAYLOAD,
        start_ns: 0,
    }];
    let null = || -> Box<dyn HostCcFactory> { Box::new(NullHostCcFactory) };
    let (short, long) = (line(1), line(5));
    let best = |f: &dyn Fn() -> f64| (0..3).map(|_| f()).fold(f64::INFINITY, f64::min);
    let w1 = best(&|| bare_run(&short, null(), &one));
    let w5 = best(&|| bare_run(&long, null(), &one));
    let hop_ns = ((w5 - w1) * 1e9 / (pkts * 4) as f64).max(0.0);
    let pkt_ns = (w1 * 1e9 / pkts as f64 - hop_ns).max(0.0);

    let paced: Vec<Flow> = (0..256)
        .map(|_| Flow {
            src: 0,
            dst: 0,
            size: pkts / 256 * PAYLOAD,
            start_ns: 0,
        })
        .collect();
    let paced_pkts = 256 * (pkts / 256);
    let rate = BitRate::from_bps(ACCESS_BPS / 256);
    let wp = best(&|| {
        bare_run(
            &short,
            Box::new(FixedRateFactory::new(Vec::new(), Some(rate))),
            &paced,
        )
    });
    let paced_pkt_ns = (wp * 1e9 / paced_pkts as f64 - hop_ns).max(0.0);

    let n = 20_000u64;
    let many: Vec<Flow> = (0..n)
        .map(|i| Flow {
            src: 0,
            dst: 0,
            size: PAYLOAD,
            start_ns: i * 250,
        })
        .collect();
    let single = [Flow {
        src: 0,
        dst: 0,
        size: n * PAYLOAD,
        start_ns: 0,
    }];
    let wm = best(&|| bare_run(&short, null(), &many));
    let ws = best(&|| bare_run(&short, null(), &single));
    HostSwitchProbes {
        hop_ns,
        pkt_ns,
        paced_pkt_ns,
        flow_churn_ns: ((wm - ws) * 1e9 / n as f64).max(0.0),
    }
}

/// `FairRateCalculator::update` over `queue` (bytes), cycled.
pub fn cp_update_ns(queue: &[u64]) -> f64 {
    let fallback = [150_000u64, 180_000, 90_000, 400_000, 0];
    let queue = if queue.is_empty() {
        &fallback[..]
    } else {
        queue
    };
    let mut calc = FairRateCalculator::new(CpParams::for_40g());
    let ops = 1_000_000u64;
    let t0 = Instant::now();
    for i in 0..ops as usize {
        black_box(calc.update(black_box(queue[i % queue.len()])));
    }
    ns_per(t0, ops)
}

/// One `on_enqueue` + `on_dequeue` on the paper-default flow table with
/// 64 flows resident.
pub fn cp_flow_table_ns() -> f64 {
    let mut table = FlowTablePolicy::InQueue.build();
    let now = SimTime::ZERO;
    for f in 0..64 {
        table.on_enqueue(now, FlowId(f), NodeId(f as usize), 0.5);
    }
    let ops = 500_000u64;
    let t0 = Instant::now();
    for i in 0..ops {
        let flow = FlowId(64 + i % 4096);
        table.on_enqueue(now, flow, NodeId(1), 0.5);
        table.on_dequeue(now, flow);
    }
    black_box(table.len());
    ns_per(t0, ops)
}

/// CNP wire encode + decode.
pub fn cnp_codec_ns() -> f64 {
    let cp = CpId {
        node: NodeId(3),
        port: PortId(1),
    };
    let mut buf = Vec::with_capacity(64);
    let ops = 1_000_000u64;
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..ops {
        buf.clear();
        Cnp {
            fair_rate_units: (i % 4000) as u32,
            cp,
            flow: FlowId(i),
        }
        .encode(&mut buf);
        acc += Cnp::decode(black_box(&buf)).map_or(0, |c| c.fair_rate_units as u64);
    }
    black_box(acc);
    ns_per(t0, ops)
}

fn host_cc(cc: Cc) -> Box<dyn HostCc> {
    let (factory, _) = cc.scheme().factories(SimDuration::from_micros(13));
    factory.make(FlowId(1), BitRate::from_bps(ACCESS_BPS))
}

fn cc_ctx() -> HostCcCtx {
    HostCcCtx {
        now: SimTime::ZERO,
        link_rate: BitRate::from_bps(ACCESS_BPS),
        set_timers: Vec::new(),
        cancel_timers: Vec::new(),
        events: Vec::new(),
        event_mask: EventMask::NONE,
    }
}

/// `HostCc::on_feedback` with the scheme's own feedback packet (RoCC: a
/// CNP through Alg. 2; DCQCN: a CNP through its rate cut).
pub fn on_feedback_ns(cc: Cc) -> f64 {
    let mut rp = host_cc(cc);
    let mut ctx = cc_ctx();
    let cp = CpId {
        node: NodeId(3),
        port: PortId(1),
    };
    let ops = 1_000_000u64;
    let t0 = Instant::now();
    for i in 0..ops {
        ctx.now = SimTime::from_nanos(i * 40_000);
        ctx.set_timers.clear();
        ctx.cancel_timers.clear();
        let fb = match cc {
            Cc::Dcqcn => FeedbackEvent::DcqcnCnp,
            _ => FeedbackEvent::RoccCnp {
                fair_rate_units: 400 + (i % 3000) as u32,
                cp,
            },
        };
        rp.on_feedback(&mut ctx, black_box(fb));
    }
    black_box(rp.decision());
    ns_per(t0, ops)
}

/// HPCC `HostCc::on_ack` with a 3-hop INT stack.
pub fn hpcc_on_ack_ns() -> f64 {
    let mut cc = host_cc(Cc::Hpcc);
    let mut ctx = cc_ctx();
    let ops = 500_000u64;
    let t0 = Instant::now();
    for i in 0..ops {
        ctx.now = SimTime::from_nanos(i * 250);
        ctx.set_timers.clear();
        ctx.cancel_timers.clear();
        let mut int = IntStack::new();
        for hop in 0..3 {
            int.push(IntHop {
                qlen_bytes: (i % 50) * 1000,
                tx_bytes: i * 1048 + hop,
                ts_ns: i * 250,
                rate: BitRate::from_gbps(40),
            });
        }
        cc.on_ack(
            &mut ctx,
            black_box(AckEvent {
                newly_acked: PAYLOAD,
                cum_seq: i * PAYLOAD,
                rtt: SimDuration::from_micros(13),
                ecn_echo: false,
                int,
            }),
        );
    }
    black_box(cc.decision());
    ns_per(t0, ops)
}

/// The retired `rocc-bench/v2` engine figure: 12 × 4 MB RoCC incast, seed
/// `100 + rep`; returns `(events, wall seconds)` of one repetition.
pub fn legacy_incast_v2(rep: u64) -> (u64, f64) {
    let fabric = dumbbell(12);
    let cfg = SimConfig {
        seed: 100 + rep,
        ..SimConfig::default()
    };
    let mut sim = sim_with(fabric.topo.clone(), Scheme::Rocc, 4, cfg);
    let flows: Vec<Flow> = (0..fabric.senders.len())
        .map(|src| Flow {
            src,
            dst: 0,
            size: 4_000_000,
            start_ns: 0,
        })
        .collect();
    add_flows(&mut sim, &fabric, &flows);
    let t0 = Instant::now();
    sim.run_until_flows_done(SimTime::from_millis(400))
        .assert_complete();
    (sim.events_processed(), t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::OpenLoop;

    #[test]
    fn real_distributions_carry_the_load_within_five_percent() {
        let fabric = fat_tree_quick();
        let shape = OpenLoop {
            senders: fabric.senders(),
            receivers: fabric.receivers(),
            load: 0.7,
            link_bps: ACCESS_BPS,
            window_ns: 8_000_000,
        };
        for dist in [Dist::WebSearch, Dist::Hadoop] {
            let flows = shape.schedule(11, dist.mean(), |u| dist.quantile(u));
            let load = shape.offered_load(&flows);
            assert!((load - 0.7).abs() < 0.035, "{dist:?}: offered load {load}");
        }
    }

    #[test]
    fn next_event_brief_parses() {
        let fabric = dumbbell(2);
        let mut leg = Leg::new(&fabric, Cc::Rocc, 1, 1_000_000, Instr::default());
        leg.add_flows(&fabric, &crate::gen::incast(1, 2, 10_000));
        let (at, seq) = leg.next_event().expect("queue is not empty");
        assert!(seq > 0 && at < 10_000, "{at} {seq}");
        assert!(leg.step());
    }

    #[test]
    fn sched_replay_checks_pop_order() {
        let ops = [
            SchedOp::Push { at: 50, seq: 1 },
            SchedOp::Push { at: 10, seq: 2 },
            SchedOp::Pop { seq: 2 },
            SchedOp::Push { at: 10, seq: 3 },
            SchedOp::Pop { seq: 3 },
            SchedOp::Pop { seq: 1 },
        ];
        assert!(sched_replay(&ops).order_ok);
        let wrong = [
            SchedOp::Push { at: 50, seq: 1 },
            SchedOp::Push { at: 10, seq: 2 },
            SchedOp::Pop { seq: 1 },
            SchedOp::Pop { seq: 2 },
        ];
        assert!(!sched_replay(&wrong).order_ok);
    }
}
