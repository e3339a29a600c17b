//! HPCC (Li et al., SIGCOMM '19) — in-band-telemetry window control, the
//! strongest source-driven baseline in the RoCC comparison.
//!
//! * **Switch**: stamps an INT record (queue length, cumulative tx bytes,
//!   timestamp, line rate) on every departing data packet.
//! * **Receiver**: echoes the INT stack on the ACK.
//! * **Sender**: for every hop computes utilization
//!   `U_i = qlen_i / (B_i · T) + txRate_i / B_i` from consecutive INT
//!   snapshots, takes `U = max_i U_i`, and steers the window:
//!   multiplicative adjustment `W = Wc / (U/η) + W_ai` when `U ≥ η` (or the
//!   additive-increase stage budget is spent), otherwise additive
//!   `W = Wc + W_ai`. The reference window `Wc` is updated once per RTT.
//!   Pacing rate follows `W / T`.
//!
//! η < 1 deliberately trades a slice of bandwidth for near-empty queues —
//! the headroom the RoCC paper points to when comparing throughput and tail
//! FCT for long flows.

use rocc_sim::cc::{
    AckEvent, HostCc, HostCcCtx, PacketMeta, RateDecision, SwitchCc, SwitchCcCtx, SwitchCcFactory,
};
use rocc_sim::prelude::{BitRate, CpId, FlowId, IntHop, SimDuration};

/// HPCC sender parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HpccParams {
    /// Target utilization η (paper: 0.95).
    pub eta: f64,
    /// Max additive-increase stages per multiplicative sync (paper: 5).
    pub max_stage: u32,
    /// Base (unloaded) network RTT — sets the BDP window and pacing.
    pub base_rtt: SimDuration,
    /// Additive-increase step in bytes (per update); the HPCC paper picks
    /// `W_AI = W_init·(1−η)/N` so N flows can close the (1−η) gap — i.e.
    /// proportional to the flow's own BDP. `0` means "derive from W_init"
    /// (the faithful behaviour, which also reproduces HPCC's bias toward
    /// fast-NIC hosts on asymmetric topologies, paper Fig. 12b).
    pub w_ai: u64,
}

impl Default for HpccParams {
    fn default() -> Self {
        HpccParams {
            eta: 0.95,
            max_stage: 5,
            base_rtt: SimDuration::from_micros(12),
            w_ai: 0,
        }
    }
}

/// HPCC's switch side: INT stamping at dequeue.
pub struct HpccSwitchCc;

impl SwitchCc for HpccSwitchCc {
    fn on_dequeue(&mut self, ctx: &mut SwitchCcCtx<'_>, _pkt: PacketMeta) -> Option<IntHop> {
        Some(IntHop {
            qlen_bytes: ctx.qlen_bytes,
            tx_bytes: ctx.tx_bytes,
            ts_ns: ctx.now.as_nanos(),
            rate: ctx.link_rate,
        })
    }
}

// INT stamping reads the port, keeps nothing: no state.
rocc_sim::cc_state!(HpccSwitchCc {});

/// Factory for [`HpccSwitchCc`].
#[derive(Debug, Default, Clone, Copy)]
pub struct HpccSwitchCcFactory;

impl SwitchCcFactory for HpccSwitchCcFactory {
    fn make(&self, _cp: CpId, _link_rate: BitRate) -> Box<dyn SwitchCc> {
        Box::new(HpccSwitchCc)
    }
}

/// Per-hop INT snapshot retained between ACKs.
#[derive(Debug, Clone, Copy, Default)]
struct HopRef {
    tx_bytes: u64,
    ts_ns: u64,
    valid: bool,
}

rocc_sim::cc_state!(HopRef { tx_bytes, ts_ns, valid });

/// HPCC's per-flow sender state.
pub struct HpccHostCc {
    p: HpccParams,
    r_max: BitRate,
    /// Current window (bytes).
    w: f64,
    /// Reference window Wc (bytes), synced once per RTT.
    wc: f64,
    inc_stage: u32,
    /// Sequence number that ends the current RTT round.
    last_update_seq: u64,
    hop_ref: [HopRef; rocc_sim::packet::MAX_INT_HOPS],
}

impl HpccHostCc {
    /// Start at the BDP window (W_init = B · T_base).
    pub fn new(mut p: HpccParams, r_max: BitRate) -> Self {
        let w_init = r_max.bytes_over(p.base_rtt) as f64;
        if p.w_ai == 0 {
            // W_AI = W_init·(1−η)/N with N = 16 expected concurrent flows.
            p.w_ai = ((w_init * (1.0 - p.eta) / 16.0) as u64).max(100);
        }
        HpccHostCc {
            p,
            r_max,
            w: w_init,
            wc: w_init,
            inc_stage: 0,
            last_update_seq: 0,
            hop_ref: Default::default(),
        }
    }

    /// Current window in bytes (tests).
    pub fn window(&self) -> u64 {
        self.w.max(0.0) as u64
    }

    /// Max per-hop utilization from the echoed INT stack versus the stored
    /// reference snapshots. Returns `None` until references exist.
    fn max_utilization(&mut self, hops: &[IntHop]) -> Option<f64> {
        let mut u_max: Option<f64> = None;
        for (i, h) in hops.iter().enumerate() {
            let r = &mut self.hop_ref[i];
            if r.valid && h.ts_ns > r.ts_ns {
                let dt = (h.ts_ns - r.ts_ns) as f64 / 1e9;
                let tx_rate = (h.tx_bytes.wrapping_sub(r.tx_bytes)) as f64 * 8.0 / dt;
                let b = h.rate.as_bps() as f64;
                let u = h.qlen_bytes as f64 * 8.0 / (b * self.p.base_rtt.as_secs_f64())
                    + tx_rate / b;
                u_max = Some(u_max.map_or(u, |m: f64| m.max(u)));
            }
            *r = HopRef {
                tx_bytes: h.tx_bytes,
                ts_ns: h.ts_ns,
                valid: true,
            };
        }
        u_max
    }
}

impl HostCc for HpccHostCc {
    fn decision(&self) -> RateDecision {
        let w = self.w.max(1500.0); // never below one MTU
        let rate = BitRate::from_bps((w * 8.0 / self.p.base_rtt.as_secs_f64()) as u64);
        RateDecision {
            rate: rate.min(self.r_max),
            window_bytes: Some(w as u64),
        }
    }

    fn on_ack(&mut self, _ctx: &mut HostCcCtx, ack: AckEvent) {
        let hops = ack.int;
        let Some(u) = self.max_utilization(hops.hops()) else {
            return;
        };
        let new_round = ack.cum_seq > self.last_update_seq;
        if u >= self.p.eta || self.inc_stage >= self.p.max_stage {
            // Multiplicative adjustment toward η utilization.
            self.w = self.wc / (u / self.p.eta) + self.p.w_ai as f64;
            if new_round {
                self.wc = self.w;
                self.inc_stage = 0;
                self.last_update_seq = ack.cum_seq + self.window();
            }
        } else {
            self.w = self.wc + self.p.w_ai as f64;
            if new_round {
                self.wc = self.w;
                self.inc_stage += 1;
                self.last_update_seq = ack.cum_seq + self.window();
            }
        }
        // Window stays within [1 MTU, 2 × BDP-at-line-rate].
        let w_cap = self.r_max.bytes_over(self.p.base_rtt) as f64 * 2.0;
        self.w = self.w.clamp(1500.0, w_cap);
    }
}

// `p` and `r_max` are configuration.
rocc_sim::cc_state!(HpccHostCc { w, wc, inc_stage, last_update_seq, hop_ref });

/// Factory for [`HpccHostCc`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HpccHostCcFactory {
    /// Parameter override.
    pub params: Option<HpccParams>,
}

impl rocc_sim::cc::HostCcFactory for HpccHostCcFactory {
    fn make(&self, _flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc> {
        Box::new(HpccHostCc::new(self.params.unwrap_or_default(), link_rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocc_sim::packet::IntStack;
    use rocc_sim::prelude::SimTime;

    fn ctx() -> HostCcCtx {
        HostCcCtx {
            now: SimTime::ZERO,
            link_rate: BitRate::from_gbps(40),
            set_timers: Vec::new(),
            cancel_timers: Vec::new(),
            events: Vec::new(),
            event_mask: rocc_sim::telemetry::EventMask::NONE,
        }
    }

    fn hop(qlen: u64, tx: u64, ts_us: u64) -> IntHop {
        IntHop {
            qlen_bytes: qlen,
            tx_bytes: tx,
            ts_ns: ts_us * 1000,
            rate: BitRate::from_gbps(40),
        }
    }

    fn ack_with(hops: &[IntHop], cum: u64) -> AckEvent {
        let mut int = IntStack::new();
        for h in hops {
            int.push(*h);
        }
        AckEvent {
            newly_acked: 1000,
            cum_seq: cum,
            rtt: SimDuration::from_micros(12),
            ecn_echo: false,
            int,
        }
    }

    #[test]
    fn starts_at_bdp() {
        let cc = HpccHostCc::new(HpccParams::default(), BitRate::from_gbps(40));
        // 40 Gb/s × 12 µs = 60 kB.
        assert_eq!(cc.window(), 60_000);
        assert!(cc.decision().window_bytes.is_some());
    }

    #[test]
    fn overloaded_link_shrinks_window() {
        let mut cc = HpccHostCc::new(HpccParams::default(), BitRate::from_gbps(40));
        let mut c = ctx();
        // First ACK establishes references.
        cc.on_ack(&mut c, ack_with(&[hop(0, 0, 0)], 1000));
        let w0 = cc.window();
        // Deep queue + line-rate tx → U well above η.
        cc.on_ack(&mut c, ack_with(&[hop(300_000, 50_000, 10)], 2000));
        assert!(cc.window() < w0, "window {w0} -> {}", cc.window());
    }

    #[test]
    fn idle_link_grows_window() {
        let mut cc = HpccHostCc::new(HpccParams::default(), BitRate::from_gbps(40));
        let mut c = ctx();
        cc.on_ack(&mut c, ack_with(&[hop(0, 0, 0)], 1000));
        let w0 = cc.window();
        // Empty queue, low tx rate → U ≈ 0.1.
        cc.on_ack(&mut c, ack_with(&[hop(0, 5_000, 10)], 2000));
        assert!(cc.window() >= w0, "window {w0} -> {}", cc.window());
    }

    #[test]
    fn utilization_takes_max_over_hops() {
        let mut cc = HpccHostCc::new(HpccParams::default(), BitRate::from_gbps(40));
        // Prime references on two hops.
        cc.max_utilization(&[hop(0, 0, 0), hop(0, 0, 0)]);
        // Hop 0 idle; hop 1 saturated.
        let u = cc
            .max_utilization(&[hop(0, 1_000, 10), hop(200_000, 50_000, 10)])
            .unwrap();
        assert!(u > 1.0, "saturated hop must dominate: U = {u}");
    }

    #[test]
    fn window_never_collapses_below_mtu() {
        let mut cc = HpccHostCc::new(HpccParams::default(), BitRate::from_gbps(40));
        let mut c = ctx();
        cc.on_ack(&mut c, ack_with(&[hop(0, 0, 0)], 1000));
        for i in 1..50 {
            cc.on_ack(
                &mut c,
                ack_with(&[hop(10_000_000, i * 60_000, i * 10)], (i + 1) * 1000),
            );
        }
        assert!(cc.window() >= 1500);
        assert!(cc.decision().rate.as_bps() > 0);
    }

    #[test]
    fn additive_stages_then_multiplicative_sync() {
        let p = HpccParams::default();
        let mut cc = HpccHostCc::new(p, BitRate::from_gbps(40));
        let mut c = ctx();
        cc.on_ack(&mut c, ack_with(&[hop(0, 0, 0)], 1000));
        // Low utilization for many RTT rounds: additive growth, stage
        // counter capped by max_stage.
        let mut cum = 1000;
        for i in 1..20u64 {
            cum += 100_000; // advance a full window each time → new round
            cc.on_ack(&mut c, ack_with(&[hop(0, i * 2_000, i * 12)], cum));
        }
        assert!(cc.inc_stage <= p.max_stage);
    }
}
