//! The RoCC congestion point wired into the simulator: fair-rate calculator
//! + flow table + feedback generator (paper Fig. 2).
//!
//! Every update interval T the CP recomputes the fair rate from the egress
//! queue depth and — while the port is congested (F < Fmax) — sends one CNP
//! carrying the rate to the source of every flow the flow table tracks.

use crate::cp::FairRateCalculator;
use crate::flow_table::{FlowEntry, FlowTable, FlowTablePolicy};
use crate::params::CpParams;
use rocc_sim::cc::{CtrlEmit, PacketMeta, SwitchCc, SwitchCcCtx, SwitchCcFactory};
use rocc_sim::prelude::{BitRate, CpId, IntHop, PacketKind, SimDuration};
use rocc_sim::telemetry::{CcEvent, EventMask};
use rand::Rng;

/// Where the fair-rate computation runs (paper §3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CpMode {
    /// The switch computes F and CNPs carry the rate (the default).
    #[default]
    SwitchComputed,
    /// The switch only ships queue reports (Qcur + Fmax); each host
    /// replicates Alg. 1 locally. Pair with
    /// [`crate::host_calc::HostCalcRoccFactory`] at the sources.
    HostComputed,
}

/// RoCC's per-egress-port congestion point.
pub struct RoccSwitchCc {
    calc: FairRateCalculator,
    table: Box<dyn FlowTable + Send>,
    cp: CpId,
    mode: CpMode,
    scratch: Vec<FlowEntry>,
}

impl RoccSwitchCc {
    /// Build a CP with the given parameters and flow-table policy.
    pub fn new(cp: CpId, params: CpParams, policy: FlowTablePolicy) -> Self {
        Self::with_mode(cp, params, policy, CpMode::SwitchComputed)
    }

    /// Build a CP selecting where the rate computation runs (§3.6).
    pub fn with_mode(
        cp: CpId,
        params: CpParams,
        policy: FlowTablePolicy,
        mode: CpMode,
    ) -> Self {
        RoccSwitchCc {
            calc: FairRateCalculator::new(params),
            table: policy.build(),
            cp,
            mode,
            scratch: Vec::new(),
        }
    }

    /// Current fair rate (diagnostics).
    pub fn fair_rate(&self) -> BitRate {
        self.calc.fair_rate()
    }
}

impl SwitchCc for RoccSwitchCc {
    fn timer_period(&self) -> Option<SimDuration> {
        Some(self.calc.params().update_interval)
    }

    fn on_timer(&mut self, ctx: &mut SwitchCcCtx<'_>) {
        if self.mode == CpMode::HostComputed {
            // §3.6: no arithmetic at the switch — ship the raw queue depth
            // to every tracked flow; hosts replicate Alg. 1. The flow table
            // (flows currently queued) is also the congestion gate.
            let p = self.calc.params();
            let q_cur_units = (ctx.qlen_bytes / p.delta_q).min(u32::MAX as u64) as u32;
            let f_max_units = p.f_max;
            self.scratch.clear();
            self.table.recipients(ctx.now, &mut self.scratch);
            for e in &self.scratch {
                ctx.emits.push(CtrlEmit {
                    flow: e.flow,
                    to: e.src,
                    kind: PacketKind::RoccQueueReport {
                        q_cur_units,
                        f_max_units,
                        cp: self.cp,
                    },
                });
            }
            return;
        }
        let (units, kind) = self.calc.update(ctx.qlen_bytes);
        if ctx.wants(EventMask::CP_DECISION) {
            // The decision fires every tick, congested or not — the PI
            // branch raising F back toward Fmax is as diagnostic as MD.
            let lu = self
                .calc
                .last_update()
                .expect("update() was just called");
            ctx.events.push(CcEvent::CpDecision {
                kind: kind.into(),
                fair_rate_units: units,
                alpha: lu.alpha,
                beta: lu.beta,
                region: lu.region,
                qlen_bytes: ctx.qlen_bytes,
            });
        }
        if !self.calc.is_congested() {
            return; // uncongested ports stay silent (§3.4: feedback goes
                    // only to flows causing congestion)
        }
        self.scratch.clear();
        self.table.recipients(ctx.now, &mut self.scratch);
        for e in &self.scratch {
            ctx.emits.push(CtrlEmit {
                flow: e.flow,
                to: e.src,
                kind: PacketKind::RoccCnp {
                    fair_rate_units: units,
                    cp: self.cp,
                },
            });
        }
    }

    fn on_enqueue(&mut self, ctx: &mut SwitchCcCtx<'_>, pkt: PacketMeta) -> bool {
        let r: f64 = ctx.rng.gen();
        self.table.on_enqueue(ctx.now, pkt.flow, pkt.src, r);
        false // RoCC does not mark ECN
    }

    fn on_dequeue(&mut self, ctx: &mut SwitchCcCtx<'_>, pkt: PacketMeta) -> Option<IntHop> {
        self.table.on_dequeue(ctx.now, pkt.flow);
        None // RoCC does not stamp INT
    }
}

// The calculator's words, then the flow table's; `cp`, `mode` and the
// scratch buffer are configuration or per-tick.
rocc_sim::cc_state!(RoccSwitchCc { calc, table });

/// Factory installing [`RoccSwitchCc`] on every switch egress port, with
/// parameters derived from each port's line rate (paper §6 profiles) unless
/// overridden.
pub struct RoccSwitchCcFactory {
    /// Parameter override; when `None`, [`CpParams::for_link_rate`] applies.
    pub params_override: Option<CpParams>,
    /// Flow-table policy (paper default: in-queue).
    pub policy: FlowTablePolicy,
    /// Where the rate computation runs (§3.6).
    pub mode: CpMode,
}

impl Default for RoccSwitchCcFactory {
    fn default() -> Self {
        RoccSwitchCcFactory {
            params_override: None,
            policy: FlowTablePolicy::InQueue,
            mode: CpMode::SwitchComputed,
        }
    }
}

impl RoccSwitchCcFactory {
    /// Paper-default factory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the CP parameters on every port.
    pub fn with_params(mut self, p: CpParams) -> Self {
        self.params_override = Some(p);
        self
    }

    /// Select a flow-table policy.
    pub fn with_policy(mut self, policy: FlowTablePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Select host-side rate computation (§3.6). This also switches the
    /// flow table to the bounded age-evicted policy: host replicas need a
    /// continuous report stream (including through empty-queue intervals,
    /// which is when Alg. 1 *raises* F) — the in-queue table would starve
    /// them exactly then, leaving replicas frozen at stale low rates.
    pub fn host_computed(mut self) -> Self {
        self.mode = CpMode::HostComputed;
        self.policy = FlowTablePolicy::BoundedAge {
            capacity: 1024,
            idle_timeout_ns: 1_000_000, // keep reporting 1 ms past last packet
        };
        self
    }
}

impl SwitchCcFactory for RoccSwitchCcFactory {
    fn make(&self, cp: CpId, link_rate: BitRate) -> Box<dyn SwitchCc> {
        let params = self
            .params_override
            .unwrap_or_else(|| CpParams::for_link_rate(link_rate));
        Box::new(RoccSwitchCc::with_mode(cp, params, self.policy, self.mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rocc_sim::prelude::{FlowId, NodeId, PortId, SimTime};

    fn cp() -> CpId {
        CpId {
            node: NodeId(5),
            port: PortId(2),
        }
    }

    fn ctx<'a>(rng: &'a mut rand::rngs::StdRng, qlen: u64) -> SwitchCcCtx<'a> {
        SwitchCcCtx {
            now: SimTime::from_micros(40),
            cp: cp(),
            qlen_bytes: qlen,
            link_rate: BitRate::from_gbps(40),
            tx_bytes: 0,
            rng,
            emits: Vec::new(),
            events: Vec::new(),
            event_mask: EventMask::ALL,
        }
    }

    #[test]
    fn silent_when_uncongested() {
        let mut cc = RoccSwitchCc::new(cp(), CpParams::for_40g(), FlowTablePolicy::InQueue);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut c = ctx(&mut rng, 0);
        let meta = PacketMeta {
            flow: FlowId(1),
            src: NodeId(0),
            wire_bytes: 1048,
        };
        cc.on_enqueue(&mut c, meta);
        cc.on_timer(&mut c);
        assert!(c.emits.is_empty(), "no CNPs while F = Fmax");
    }

    #[test]
    fn emits_cnp_per_queued_flow_when_congested() {
        let mut cc = RoccSwitchCc::new(cp(), CpParams::for_40g(), FlowTablePolicy::InQueue);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut c = ctx(&mut rng, 0);
        for i in 0..3 {
            let meta = PacketMeta {
                flow: FlowId(i),
                src: NodeId(10 + i as usize),
                wire_bytes: 1048,
            };
            cc.on_enqueue(&mut c, meta);
        }
        // Deep queue drives MD → F = Fmin → congested.
        let mut c = ctx(&mut rng, 400_000);
        cc.on_timer(&mut c);
        assert_eq!(c.emits.len(), 3);
        for e in &c.emits {
            match e.kind {
                PacketKind::RoccCnp {
                    fair_rate_units,
                    cp: got,
                } => {
                    assert_eq!(fair_rate_units, 10); // Fmin after MD
                    assert_eq!(got, cp());
                }
                _ => panic!("expected RoccCnp, got {:?}", e.kind),
            }
        }
        // Feedback targets the flow sources.
        let dsts: Vec<_> = c.emits.iter().map(|e| e.to).collect();
        assert_eq!(dsts, vec![NodeId(10), NodeId(11), NodeId(12)]);
    }

    #[test]
    fn dequeue_removes_flow_from_default_table() {
        let mut cc = RoccSwitchCc::new(cp(), CpParams::for_40g(), FlowTablePolicy::InQueue);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut c = ctx(&mut rng, 0);
        let meta = PacketMeta {
            flow: FlowId(1),
            src: NodeId(9),
            wire_bytes: 1048,
        };
        cc.on_enqueue(&mut c, meta);
        cc.on_dequeue(&mut c, meta);
        let mut c = ctx(&mut rng, 400_000);
        cc.on_timer(&mut c);
        assert!(c.emits.is_empty(), "flow left the queue; no CNP");
    }

    #[test]
    fn factory_selects_params_by_link_rate() {
        let f = RoccSwitchCcFactory::new();
        // 100G port gets the 100G profile (T identical; probe via timer).
        let cc100 = f.make(cp(), BitRate::from_gbps(100));
        assert_eq!(cc100.timer_period(), Some(SimDuration::from_micros(40)));
        let cc10 = f.make(cp(), BitRate::from_gbps(10));
        assert_eq!(cc10.timer_period(), Some(SimDuration::from_micros(100)));
    }
}
