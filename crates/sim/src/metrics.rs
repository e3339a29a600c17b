//! The run observatory: a periodic time-series sampler over the quantities
//! the paper plots — egress queue depth, CP fair rate with its auto-tune
//! region, per-flow RP rate and goodput, and cumulative PFC pause time.
//!
//! The observatory rides the engine's existing `Sample` tick (it schedules
//! no events of its own) and is fed through the same one-branch gating
//! pattern as [`crate::telemetry::Telemetry`]: every emission site tests a
//! single bitmask and constructs nothing while the observatory is disabled.
//! It performs pure reads — no RNG, event-queue, or CC-state access — so a
//! run with the observatory on is bit-identical to the same seed with it
//! off (pinned by the `observer_effect` integration test).
//!
//! Output is one JSONL document ([`Observatory::to_jsonl`]); each line is
//! one [`MetricRow`]. Rows appear in emission order, which is deterministic
//! (sample ticks are totally ordered and per-tick iteration uses `BTreeMap`
//! ordering).

use crate::packet::{CpId, FlowId};
use crate::snapshot::{struct_codec, tag_codec};
use crate::telemetry::{EventMask, SimEvent};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, PortId};
use rocc_stats::json;
use std::collections::BTreeMap;

/// Latest CP controller state, updated on every `CpDecision` event and
/// re-emitted at each sample tick so the fair-rate series is uniformly
/// spaced even when the controller holds steady.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CpState {
    fair_rate_units: u32,
    region: u32,
    alpha: f64,
    beta: f64,
}

struct_codec!(CpState { fair_rate_units, region, alpha, beta });

/// One time-series sample. Serialized as one JSONL line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricRow {
    /// Egress data-queue depth of a watched queue.
    Queue {
        /// Sample time.
        t: SimTime,
        /// The switch.
        node: NodeId,
        /// The egress port.
        port: PortId,
        /// Queue depth in bytes.
        bytes: u64,
    },
    /// CP fair-rate controller state (latest Alg. 1 outcome).
    Cp {
        /// Sample time.
        t: SimTime,
        /// The congestion point.
        cp: CpId,
        /// Fair rate in multiples of ΔF.
        fair_rate_units: u32,
        /// Auto-tune region index (0..=5).
        region: u32,
        /// Proportional gain in force.
        alpha: f64,
        /// Integral gain in force.
        beta: f64,
    },
    /// Per-flow sender rate and receiver goodput.
    Flow {
        /// Sample time.
        t: SimTime,
        /// The flow.
        flow: FlowId,
        /// RP rate-limiter value at the sender, bits/s (0 when the flow is
        /// not installed or already finished).
        rp_bps: u64,
        /// Receiver-side goodput over the last sample period, bits/s.
        goodput_bps: u64,
    },
    /// Cumulative PFC pause time across all ports, including pauses still
    /// open at the sample instant.
    Pfc {
        /// Sample time.
        t: SimTime,
        /// Total paused port-time so far, nanoseconds.
        cum_pause_ns: u64,
    },
}

// The metrics JSONL schema: `t_ns`, the row `type`, then that type's
// fields, `cp` as its `node` and `port`.
json::record!(MetricRow {
    t as t_ns;
    "type";
    Queue = "queue" { node, port, bytes },
    Cp = "cp" { cp: CpId { node, port }, fair_rate_units, region, alpha, beta },
    Flow = "flow" { flow, rp_bps, goodput_bps },
    Pfc = "pfc" { cum_pause_ns },
});

impl MetricRow {
    /// Serialize as one JSON object (one JSONL line).
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Read one metrics JSONL line back as a whole row: one JSON object of
    /// `t_ns`, a known `type` and exactly that type's fields, in order,
    /// each holding a value its field can take.
    pub fn from_json(line: &str) -> Option<MetricRow> {
        json::from_str(line)
    }
}

/// The observatory sink, embedded in [`crate::trace::Trace`]. Disabled by
/// default; [`Observatory::enable`] turns it on. While enabled it consumes
/// PFC and CP-decision events (via [`crate::trace::Trace::publish_event`])
/// and is fed queue/flow samples by the engine's sample tick.
#[derive(Debug, Default)]
pub struct Observatory {
    enabled: bool,
    rows: Vec<MetricRow>,
    /// Latest controller state per CP, re-emitted each tick. `BTreeMap`
    /// because per-tick iteration order reaches the output.
    cp_state: BTreeMap<CpId, CpState>,
    /// Open PFC pause intervals by (switch, ingress port).
    pause_open: BTreeMap<(NodeId, PortId), SimTime>,
    /// Closed-interval pause time accumulated so far.
    cum_pause: SimDuration,
}

impl Observatory {
    /// New, disabled observatory.
    pub fn new() -> Self {
        Observatory::default()
    }

    /// Turn sampling on. The engine only emits rows while a
    /// [`crate::trace::Trace::sample_period`] is also set.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Is the observatory collecting?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Event classes the observatory consumes: the one-branch gate unions
    /// this into [`crate::trace::Trace::wants`].
    pub fn wants_mask(&self) -> EventMask {
        if self.enabled {
            EventMask::PFC | EventMask::CP_DECISION
        } else {
            EventMask::NONE
        }
    }

    /// CC classes the observatory needs buffered by CC callbacks.
    pub fn cc_mask(&self) -> EventMask {
        if self.enabled {
            EventMask::CP_DECISION
        } else {
            EventMask::NONE
        }
    }

    /// Consume one published event (no-op unless enabled and interesting).
    pub fn observe(&mut self, ev: &SimEvent) {
        if !self.enabled {
            return;
        }
        match *ev {
            SimEvent::CpDecision {
                cp,
                fair_rate_units,
                alpha,
                beta,
                region,
                ..
            } => {
                self.cp_state.insert(
                    cp,
                    CpState {
                        fair_rate_units,
                        region,
                        alpha,
                        beta,
                    },
                );
            }
            SimEvent::Pfc {
                t,
                node,
                port,
                pause,
            } => {
                if pause {
                    self.pause_open.entry((node, port)).or_insert(t);
                } else if let Some(start) = self.pause_open.remove(&(node, port)) {
                    self.cum_pause += t.saturating_since(start);
                }
            }
            _ => {}
        }
    }

    /// Record a queue-depth sample (engine, on the sample tick).
    pub fn note_queue_sample(&mut self, t: SimTime, node: NodeId, port: PortId, bytes: u64) {
        if self.enabled {
            self.rows.push(MetricRow::Queue {
                t,
                node,
                port,
                bytes,
            });
        }
    }

    /// Record a per-flow sample (engine, on the sample tick).
    pub fn note_flow_sample(&mut self, t: SimTime, flow: FlowId, rp_bps: u64, goodput_bps: u64) {
        if self.enabled {
            self.rows.push(MetricRow::Flow {
                t,
                flow,
                rp_bps,
                goodput_bps,
            });
        }
    }

    /// Close one sample tick: emit the latest CP state for every known CP
    /// and the cumulative PFC pause time (open pauses counted up to `t`).
    pub fn sample_tick(&mut self, t: SimTime) {
        if !self.enabled {
            return;
        }
        for (&cp, s) in &self.cp_state {
            self.rows.push(MetricRow::Cp {
                t,
                cp,
                fair_rate_units: s.fair_rate_units,
                region: s.region,
                alpha: s.alpha,
                beta: s.beta,
            });
        }
        let mut open = SimDuration::ZERO;
        for &start in self.pause_open.values() {
            open += t.saturating_since(start);
        }
        self.rows.push(MetricRow::Pfc {
            t,
            cum_pause_ns: (self.cum_pause + open).as_nanos(),
        });
    }

    /// All rows collected so far, in emission order.
    pub fn rows(&self) -> &[MetricRow] {
        &self.rows
    }

    /// Cumulative closed-interval PFC pause time.
    pub fn cum_pause(&self) -> SimDuration {
        self.cum_pause
    }

    /// The whole time series as a JSONL document (one row per line).
    pub fn to_jsonl(&self) -> String {
        json::jsonl(&self.rows)
    }
}

// The observatory's dynamic state — collected rows, latest CP state, open
// pause intervals, accumulated pause time — after the `enabled` flag,
// which is configuration recorded so a restore can check the rebuilt run.
struct_codec!(Observatory { enabled, rows, cp_state, pause_open, cum_pause });

tag_codec!(MetricRow {
    Queue { t, node, port, bytes } = 0,
    Cp { t, cp, fair_rate_units, region, alpha, beta } = 1,
    Flow { t, flow, rp_bps, goodput_bps } = 2,
    Pfc { t, cum_pause_ns } = 3,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(n: usize, p: usize) -> CpId {
        CpId {
            node: NodeId(n),
            port: PortId(p),
        }
    }

    #[test]
    fn disabled_observatory_collects_nothing() {
        let mut o = Observatory::new();
        assert!(o.wants_mask().is_empty());
        o.note_queue_sample(SimTime::ZERO, NodeId(0), PortId(0), 100);
        o.sample_tick(SimTime::ZERO);
        assert!(o.rows().is_empty());
        assert!(o.to_jsonl().is_empty());
    }

    #[test]
    fn cp_state_reemitted_each_tick() {
        let mut o = Observatory::new();
        o.enable();
        o.observe(&SimEvent::CpDecision {
            t: SimTime::from_micros(1),
            cp: cp(3, 1),
            kind: crate::telemetry::CpDecisionKind::Pi,
            fair_rate_units: 500,
            alpha: 0.3,
            beta: 1.5,
            region: 2,
            qlen_bytes: 1000,
        });
        o.sample_tick(SimTime::from_micros(10));
        o.sample_tick(SimTime::from_micros(20));
        let cps: Vec<_> = o
            .rows()
            .iter()
            .filter(|r| matches!(r, MetricRow::Cp { .. }))
            .collect();
        assert_eq!(cps.len(), 2, "CP state must re-emit on every tick");
        let jsonl = o.to_jsonl();
        assert!(jsonl.contains("\"type\":\"cp\""));
        assert!(jsonl.contains("\"fair_rate_units\":500"));
        assert!(jsonl.contains("\"region\":2"));
    }

    #[test]
    fn pfc_pause_accumulates_including_open_intervals() {
        let mut o = Observatory::new();
        o.enable();
        let pfc = |t, pause| SimEvent::Pfc {
            t: SimTime::from_micros(t),
            node: NodeId(1),
            port: PortId(0),
            pause,
        };
        o.observe(&pfc(10, true));
        o.observe(&pfc(15, false)); // 5 µs closed
        o.observe(&pfc(20, true)); // open at tick time
        o.sample_tick(SimTime::from_micros(22));
        let MetricRow::Pfc { cum_pause_ns, .. } = o.rows().last().copied().unwrap() else {
            panic!("last row must be the PFC cumulative sample");
        };
        assert_eq!(cum_pause_ns, 7_000); // 5 closed + 2 open
        assert_eq!(o.cum_pause(), SimDuration::from_micros(5));
    }

    #[test]
    fn row_json_shapes() {
        let r = MetricRow::Queue {
            t: SimTime::from_micros(3),
            node: NodeId(2),
            port: PortId(1),
            bytes: 4096,
        };
        assert_eq!(
            r.to_json(),
            "{\"t_ns\":3000,\"type\":\"queue\",\"node\":2,\"port\":1,\"bytes\":4096}"
        );
        let r = MetricRow::Flow {
            t: SimTime::ZERO,
            flow: FlowId(7),
            rp_bps: 1_000_000,
            goodput_bps: 900_000,
        };
        assert!(r.to_json().contains("\"type\":\"flow\""));
        assert!(r.to_json().contains("\"rp_bps\":1000000"));
    }

    #[test]
    fn metric_rows_decode_whole_or_not_at_all() {
        let line = "{\"t_ns\":3000,\"type\":\"queue\",\"node\":2,\"port\":1,\"bytes\":4096}";
        let row = MetricRow::Queue {
            t: SimTime::from_nanos(3000),
            node: NodeId(2),
            port: PortId(1),
            bytes: 4096,
        };
        assert_eq!(MetricRow::from_json(line), Some(row));
        for bad in [
            "{\"t_ns\":3000,\"type\":\"queue\",\"node\":2,\"port\":1}",
            "{\"t_ns\":3000,\"type\":\"queue\",\"node\":2,\"bytes\":4096,\"port\":1}",
            "{\"t_ns\":3000,\"type\":\"queue\",\"node\":2,\"port\":1,\"bytes\":4096,\"x\":0}",
            "{\"t_ns\":3000,\"type\":\"queue\",\"node\":2,\"port\":1,\"bytes\":4.5}",
            "{\"t_ns\":3000,\"type\":\"tide\",\"node\":2,\"port\":1,\"bytes\":4096}",
            "{\"type\":\"queue\",\"t_ns\":3000,\"node\":2,\"port\":1,\"bytes\":4096}",
            "{\"t_ns\":3000,\"type\":\"cp\",\"node\":0,\"port\":0,\"fair_rate_units\":4294967296,\"region\":0,\"alpha\":0.5,\"beta\":1.5}",
        ] {
            assert_eq!(MetricRow::from_json(bad), None, "{bad}");
        }
    }
}
