//! Build your own congestion control on the simulator's traits.
//!
//! The simulator is scheme-agnostic: anything implementing
//! [`SwitchCc`]/[`HostCc`] can be dropped in next to RoCC and the paper's
//! baselines. This example implements "TinyCC" — a deliberately simple
//! switch-driven scheme (threshold on/off rate feedback, no PI, no
//! auto-tuning) — runs it against RoCC on the same scenario, and shows
//! why the paper's control loop earns its complexity.
//!
//! A scheme's snapshot layout is one list of its dynamic fields, given to
//! `cc_state!`: the same list writes the words into an engine checkpoint
//! and reads them back, strictly — a stream written by another
//! controller is refused rather than half-applied.
//!
//! ```text
//! cargo run --release --example custom_scheme
//! cargo test --example custom_scheme     # its state survives a checkpoint
//! ```

use rocc::core::{RoccHostCcFactory, RoccSwitchCcFactory};
use rocc::sim::cc::{
    cc_state, CtrlEmit, FeedbackEvent, HostCc, HostCcCtx, HostCcFactory, PacketMeta,
    RateDecision, SwitchCc, SwitchCcCtx, SwitchCcFactory,
};
use rocc::sim::prelude::*;
use std::collections::BTreeMap;

/// TinyCC congestion point: every 40 µs, if the queue is above 100 KB,
/// tell every queued flow to run at C/8; if it is below 50 KB, tell them
/// to run at line rate. Bang-bang control — no PI, no auto-tuning.
struct TinySwitchCc {
    cp: CpId,
    line_rate: BitRate,
    /// Packets queued per flow, and the flow's source. Ordered, so the
    /// feedback order (and with it the whole run) is deterministic.
    queued: BTreeMap<FlowId, (u32, NodeId)>,
}

impl SwitchCc for TinySwitchCc {
    fn timer_period(&self) -> Option<SimDuration> {
        Some(SimDuration::from_micros(40))
    }

    fn on_timer(&mut self, ctx: &mut SwitchCcCtx<'_>) {
        let rate_units = if ctx.qlen_bytes > 100_000 {
            (self.line_rate.as_bps() / 8 / 10_000_000) as u32 // C/8 in ΔF units
        } else if ctx.qlen_bytes < 50_000 {
            (self.line_rate.as_bps() / 10_000_000) as u32 // line rate
        } else {
            return; // dead band: say nothing
        };
        for (&flow, &(_, src)) in &self.queued {
            ctx.emits.push(CtrlEmit {
                flow,
                to: src,
                kind: PacketKind::RoccCnp {
                    fair_rate_units: rate_units,
                    cp: self.cp,
                },
            });
        }
    }

    fn on_enqueue(&mut self, _ctx: &mut SwitchCcCtx<'_>, pkt: PacketMeta) -> bool {
        let e = self.queued.entry(pkt.flow).or_insert((0, pkt.src));
        e.0 += 1;
        false
    }

    fn on_dequeue(&mut self, _ctx: &mut SwitchCcCtx<'_>, pkt: PacketMeta) -> Option<IntHop> {
        if let Some(e) = self.queued.get_mut(&pkt.flow) {
            e.0 -= 1;
            if e.0 == 0 {
                self.queued.remove(&pkt.flow);
            }
        }
        None
    }
}

// `cp` and `line_rate` are configuration; `queued` is the state.
cc_state!(TinySwitchCc { queued });

struct TinySwitchFactory;

impl SwitchCcFactory for TinySwitchFactory {
    fn make(&self, cp: CpId, link_rate: BitRate) -> Box<dyn SwitchCc> {
        Box::new(TinySwitchCc {
            cp,
            line_rate: link_rate,
            queued: BTreeMap::new(),
        })
    }
}

/// TinyCC reaction point: obey the last rate heard, no arbitration, no
/// fast recovery (rate only changes when told).
struct TinyHostCc {
    rate: BitRate,
}

impl HostCc for TinyHostCc {
    fn decision(&self) -> RateDecision {
        RateDecision::line_rate(self.rate)
    }

    fn on_feedback(&mut self, _ctx: &mut HostCcCtx, fb: FeedbackEvent) {
        if let FeedbackEvent::RoccCnp {
            fair_rate_units, ..
        } = fb
        {
            self.rate = BitRate::from_mbps(10).scale(fair_rate_units as f64);
        }
    }
}

cc_state!(TinyHostCc { rate });

struct TinyHostFactory;

impl HostCcFactory for TinyHostFactory {
    fn make(&self, _flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc> {
        Box::new(TinyHostCc { rate: link_rate })
    }
}

const N: usize = 8;

/// `N` senders offering 36 Gb/s each into one 40G port, with the
/// bottleneck queue sampled every 100 µs. Returns the sim and the
/// bottleneck (switch, port).
fn incast(
    host_cc: Box<dyn HostCcFactory>,
    switch_cc: Box<dyn SwitchCcFactory>,
) -> (Sim, NodeId, PortId) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let dst = b.add_host("dst");
    let (port, _) = b.connect(sw, dst, BitRate::from_gbps(40), SimDuration::from_micros(1));
    let mut senders = Vec::new();
    for i in 0..N {
        let h = b.add_host(format!("s{i}"));
        b.connect(h, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
        senders.push(h);
    }
    let mut sim = Sim::new(b.build(), SimConfig::default(), host_cc, switch_cc);
    sim.trace.sample_period = Some(SimDuration::from_micros(100));
    sim.trace.watch_queue(sw, port);
    for (i, &s) in senders.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: u64::MAX,
            start: SimTime::ZERO,
            offered: Some(BitRate::from_gbps(36)),
        });
    }
    (sim, sw, port)
}

fn run(
    name: &str,
    host_cc: Box<dyn HostCcFactory>,
    switch_cc: Box<dyn SwitchCcFactory>,
) -> (f64, f64, f64) {
    let (mut sim, sw, port) = incast(host_cc, switch_cc);
    sim.run_until(SimTime::from_millis(8));
    let base: Vec<u64> = (0..N)
        .map(|i| sim.trace.delivered_bytes(FlowId(i as u64)))
        .collect();
    let (_, t0) = sim.switch(sw).snapshot(port, sim.kernel.now);
    sim.run_until(SimTime::from_millis(16));
    let (_, t1) = sim.switch(sw).snapshot(port, sim.kernel.now);
    let util = (t1 - t0) as f64 * 8.0 / 8e-3 / 40e9;
    let rates: Vec<f64> = (0..N)
        .map(|i| (sim.trace.delivered_bytes(FlowId(i as u64)) - base[i]) as f64 * 8.0 / 8e-3)
        .collect();
    let tail: Vec<f64> = sim.trace.queue_series[0]
        .iter()
        .filter(|s| s.t >= SimTime::from_millis(8))
        .map(|s| s.v)
        .collect();
    let qmean = tail.iter().sum::<f64>() / tail.len() as f64;
    let qsd = (tail.iter().map(|v| (v - qmean).powi(2)).sum::<f64>() / tail.len() as f64).sqrt();
    println!("{name}:");
    println!("  utilization      {:>6.1}%", util * 100.0);
    println!(
        "  queue            {:>6.0} KB +- {:.0} KB",
        qmean / 1e3,
        qsd / 1e3
    );
    println!(
        "  fairness (Jain)  {:>6.4}",
        rocc::stats::jain_fairness(&rates).unwrap()
    );
    (util, qmean, qsd)
}

fn main() {
    println!("Custom scheme demo: bang-bang \"TinyCC\" vs RoCC (8 flows, 40G)\n");
    let (_, _, tiny_sd) = run("TinyCC", Box::new(TinyHostFactory), Box::new(TinySwitchFactory));
    println!();
    let (_, _, rocc_sd) = run(
        "RoCC",
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    println!();
    println!(
        "TinyCC's queue oscillates {:.1}x harder than RoCC's — bang-bang",
        tiny_sd / rocc_sd.max(1.0)
    );
    println!("feedback cannot find the fair rate; the paper's PI controller can.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Sim {
        incast(Box::new(TinyHostFactory), Box::new(TinySwitchFactory)).0
    }

    /// A scheme written outside the repo survives a checkpoint: TinyCC
    /// snapshotted mid-run (after feedback has moved its rates and filled
    /// its queue map) and restored into a fresh sim continues
    /// byte-identically to the uninterrupted run.
    #[test]
    fn snapshot_restore_continues_byte_identically() {
        let end = SimTime::from_millis(1);
        let mut whole = tiny();
        whole.run_until(end);

        let mut donor = tiny();
        donor.run_until_event(20_000);
        assert!(donor.trace.ctrl_emitted > 0, "cut must follow feedback");
        let mut resumed = tiny();
        resumed.restore(&donor.snapshot()).expect("restore");
        resumed.run_until(end);
        assert!(resumed.snapshot() == whole.snapshot(), "resumed run diverged");
    }

    /// A RoCC checkpoint of the same setup restored into TinyCC: the
    /// header matches (same seed and config), but RoCC's controller words
    /// do not decode under TinyCC's lists, so the restore is refused.
    #[test]
    fn another_schemes_snapshot_is_refused() {
        let (mut rocc, _, _) = incast(
            Box::new(RoccHostCcFactory::new()),
            Box::new(RoccSwitchCcFactory::new()),
        );
        rocc.run_until_event(20_000);
        let got = tiny().restore(&rocc.snapshot());
        assert!(matches!(got, Err(SnapshotError::Malformed(_))), "{got:?}");
    }
}
