//! The run observatory: a periodic time series of the quantities the
//! paper plots — egress queue depth, CP fair rate with its auto-tune
//! region, per-flow RP rate and goodput, and cumulative PFC pause time.
//!
//! The observatory rides the engine's existing `Sample` tick (it schedules
//! no events of its own). Its rows are not kept during the run: the trace
//! already samples the queues and goodputs, and the event log holds every
//! PFC frame and CP decision, so [`crate::trace::Trace::observatory_rows`]
//! folds the rows from those at export. All the observatory records per
//! tick is what neither source holds: the tick's instant, the log length
//! at the tick (a CP decision at the tick's own instant may come before or
//! after it), and each watched flow's sender rate. Enabling it adds PFC
//! and CP decisions to the log. Recording is pure reads — no RNG,
//! event-queue, or CC-state access — so a run with the observatory on is
//! bit-identical to the same seed with it off (pinned by the
//! `observer_effect` integration test).
//!
//! Output is one JSONL document ([`crate::trace::Trace::observatory_jsonl`]);
//! each line is one [`MetricRow`]. Per tick, rows come in a fixed order:
//! watched queues, watched flows, CPs in id order, then PFC.

use crate::packet::{CpId, FlowId};
use crate::snapshot::{struct_codec, SnapshotError};
use crate::telemetry::{EventMask, SimEvent};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, PortId};
use crate::trace::{Sample, Trace};
use rocc_stats::json;
use std::collections::BTreeMap;

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

/// Classes the observatory adds to the log once enabled.
const OBSERVED: EventMask = EventMask(EventMask::PFC.0 | EventMask::CP_DECISION.0);

/// One sample tick as the observatory saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tick {
    /// The tick's instant.
    t: SimTime,
    /// Length of the event log when the tick fired.
    logged: usize,
}

struct_codec!(Tick { t, logged });

/// The observatory, embedded in [`crate::trace::Trace`]. Disabled by
/// default; [`Observatory::enable`] turns it on, before the run. The
/// engine only ticks it while a [`crate::trace::Trace::sample_period`] is
/// also set.
#[derive(Debug, Default)]
pub struct Observatory {
    /// [`OBSERVED`] once enabled, none before.
    classes: EventMask,
    /// Every sample tick since enabled.
    ticks: Vec<Tick>,
    /// Each watched flow's sender rate at every tick, bits/s (0 when the
    /// flow has no rate limiter), parallel to the trace's watched flows.
    rp_bps: Vec<Vec<u64>>,
}

/// The entry `behind` places from the end of `series`, if it is that long:
/// every series gains one entry per tick, so the entries of one tick sit
/// at the same distance from the end of each.
fn from_end<T: Copy>(series: &[T], behind: usize) -> Option<T> {
    series.len().checked_sub(behind).map(|i| series[i])
}

impl Observatory {
    /// New, disabled observatory.
    pub fn new() -> Self {
        Observatory::default()
    }

    /// Turn sampling on.
    pub fn enable(&mut self) {
        self.classes = OBSERVED;
    }

    /// Is the observatory collecting?
    pub fn is_enabled(&self) -> bool {
        !self.classes.is_empty()
    }

    /// Event classes the observatory needs in the log: the one-branch gate
    /// unions this into [`crate::trace::Trace::wants`].
    pub fn classes(&self) -> EventMask {
        self.classes
    }

    /// Record one sample tick (engine, after the trace's own samples):
    /// the log length and each watched flow's sender rate.
    pub(crate) fn tick(&mut self, t: SimTime, logged: usize, rp_bps: Vec<u64>) {
        self.ticks.push(Tick { t, logged });
        if self.rp_bps.len() < rp_bps.len() {
            self.rp_bps.resize(rp_bps.len(), Vec::new());
        }
        for (series, bps) in self.rp_bps.iter_mut().zip(rp_bps) {
            series.push(bps);
        }
    }

    /// Refuse restored state that does not fit the restored log and
    /// watches: tick marks past the log or out of order, or more flows
    /// than are watched.
    pub(crate) fn check(&self, logged: usize, flows: usize) -> Result<(), SnapshotError> {
        let mut at = 0;
        for tick in &self.ticks {
            if tick.logged < at || tick.logged > logged {
                return Err(SnapshotError::Malformed("observatory tick past the log"));
            }
            at = tick.logged;
        }
        if self.rp_bps.len() > flows || self.rp_bps.iter().any(|s| s.len() > self.ticks.len()) {
            return Err(SnapshotError::Malformed("observatory flows differ"));
        }
        Ok(())
    }

    /// Fold the rows from the ticks, the trace's series and its log.
    pub(crate) fn rows(&self, trace: &Trace) -> Vec<MetricRow> {
        let mut events = trace.telemetry.events.iter();
        let mut rows = Vec::new();
        // Latest controller state per CP, re-emitted each tick so the
        // fair-rate series is uniformly spaced even when the controller
        // holds steady. `BTreeMap`: its order reaches the output.
        let mut cp_state = BTreeMap::new();
        let mut pause_open = BTreeMap::new();
        let mut cum_pause = SimDuration::ZERO;
        let mut folded = 0;
        for (k, &Tick { t, logged }) in self.ticks.iter().enumerate() {
            for ev in events.by_ref().take(logged - folded) {
                match ev {
                    SimEvent::CpDecision {
                        cp,
                        fair_rate_units,
                        alpha,
                        beta,
                        region,
                        ..
                    } => {
                        cp_state.insert(cp, (fair_rate_units, region, alpha, beta));
                    }
                    SimEvent::Pfc {
                        t,
                        node,
                        port,
                        pause,
                    } => {
                        if pause {
                            pause_open.entry((node, port)).or_insert(t);
                        } else if let Some(start) = pause_open.remove(&(node, port)) {
                            cum_pause += t.saturating_since(start);
                        }
                    }
                    _ => {}
                }
            }
            folded = logged;
            let behind = self.ticks.len() - k;
            let queues = trace.watched_queues().iter().zip(&trace.queue_series);
            for (&(node, port), series) in queues {
                if let Some(Sample { v, .. }) = from_end(series, behind) {
                    let bytes = v as u64;
                    rows.push(MetricRow::Queue { t, node, port, bytes });
                }
            }
            let flows = trace.watched_flows().iter().zip(&trace.flow_rate_series);
            for ((&flow, goodput), rp) in flows.zip(&self.rp_bps) {
                if let (Some(g), Some(rp_bps)) = (from_end(goodput, behind), from_end(rp, behind)) {
                    let goodput_bps = g.v as u64;
                    rows.push(MetricRow::Flow { t, flow, rp_bps, goodput_bps });
                }
            }
            for (&cp, &(fair_rate_units, region, alpha, beta)) in &cp_state {
                rows.push(MetricRow::Cp {
                    t,
                    cp,
                    fair_rate_units,
                    region,
                    alpha,
                    beta,
                });
            }
            let open = pause_open.values().fold(SimDuration::ZERO, |open, &start| {
                open + t.saturating_since(start)
            });
            let cum_pause_ns = (cum_pause + open).as_nanos();
            rows.push(MetricRow::Pfc { t, cum_pause_ns });
        }
        rows
    }
}

// The enable mask is configuration recorded so a restore can check the
// rebuilt run; the tick marks and sender rates are what the rows need
// beyond the trace's series and log.
struct_codec!(Observatory { classes, ticks, rp_bps });

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(n: usize, p: usize) -> CpId {
        CpId {
            node: NodeId(n),
            port: PortId(p),
        }
    }

    /// Log the events, then tick the observatory at `at` µs with no
    /// watched flows.
    fn tick_after(tr: &mut Trace, at: u64, events: &[SimEvent]) {
        for &ev in events {
            tr.publish_event(ev);
        }
        let logged = tr.telemetry.events.len();
        tr.observatory.tick(SimTime::from_micros(at), logged, Vec::new());
    }

    #[test]
    fn disabled_observatory_collects_nothing() {
        let mut tr = Trace::new();
        assert!(tr.observatory.classes().is_empty());
        assert!(!tr.wants(EventMask::PFC | EventMask::CP_DECISION));
        tr.watch_queue(NodeId(0), PortId(0));
        tr.record_queue_sample(0, SimTime::ZERO, 100);
        assert!(tr.observatory_rows().is_empty());
        assert!(tr.observatory_jsonl().is_empty());
    }

    #[test]
    fn cp_state_reemitted_each_tick() {
        let mut tr = Trace::new();
        tr.observatory.enable();
        let decision = |t, fair_rate_units| SimEvent::CpDecision {
            t: SimTime::from_micros(t),
            cp: cp(3, 1),
            kind: crate::telemetry::CpDecisionKind::Pi,
            fair_rate_units,
            alpha: 0.3,
            beta: 1.5,
            region: 2,
            qlen_bytes: 1000,
        };
        tick_after(&mut tr, 10, &[decision(1, 500)]);
        // A decision at the tick's own instant, logged after the tick,
        // shows from the next tick on.
        tick_after(&mut tr, 20, &[]);
        tick_after(&mut tr, 30, &[decision(20, 600)]);
        let rates: Vec<_> = tr
            .observatory_rows()
            .iter()
            .filter_map(|r| match r {
                MetricRow::Cp { fair_rate_units, .. } => Some(*fair_rate_units),
                _ => None,
            })
            .collect();
        assert_eq!(rates, [500, 500, 600], "CP state must re-emit on every tick");
        let jsonl = tr.observatory_jsonl();
        assert!(jsonl.contains("\"type\":\"cp\""));
        assert!(jsonl.contains("\"fair_rate_units\":500"));
        assert!(jsonl.contains("\"region\":2"));
    }

    #[test]
    fn pfc_pause_accumulates_including_open_intervals() {
        let mut tr = Trace::new();
        tr.observatory.enable();
        let pfc = |t, pause| SimEvent::Pfc {
            t: SimTime::from_micros(t),
            node: NodeId(1),
            port: PortId(0),
            pause,
        };
        tick_after(&mut tr, 17, &[pfc(10, true), pfc(15, false)]); // 5 µs closed
        tick_after(&mut tr, 22, &[pfc(20, true)]); // open at tick time
        let cum: Vec<_> = tr
            .observatory_rows()
            .iter()
            .filter_map(|r| match r {
                MetricRow::Pfc { cum_pause_ns, .. } => Some(*cum_pause_ns),
                _ => None,
            })
            .collect();
        assert_eq!(cum, [5_000, 7_000]); // then 5 closed + 2 open
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
