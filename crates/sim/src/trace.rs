//! Run instrumentation: queue-depth samplers, flow rates, PFC counters,
//! flow-completion records.
//!
//! Experiments register what they want observed before the run; the engine
//! feeds the trace during the run; afterwards the experiment reads the
//! collected series. All counters are exact (event-driven); samplers are
//! periodic snapshots.

use crate::fastmap::FxHashMap;
use crate::metrics::{MetricRow, Observatory};
use crate::packet::FlowId;
use crate::snapshot::{sorted, struct_codec, SnapReader, SnapWriter, SnapshotError};
use crate::telemetry::{EventLog, EventMask, Metrics, SimEvent, Telemetry};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, PortId};
use rocc_stats::json;

/// One point of a sampled time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Sample timestamp.
    pub t: SimTime,
    /// Sampled value (bytes for queues, bits/s for rates).
    pub v: f64,
}

/// A flow's completion record.
#[derive(Debug, Clone, Copy)]
pub struct FctRecord {
    /// The flow.
    pub flow: FlowId,
    /// Application bytes transferred.
    pub size: u64,
    /// First-packet send time.
    pub start: SimTime,
    /// Last-byte arrival time at the receiver.
    pub end: SimTime,
}

struct_codec!(Sample { t, v });

struct_codec!(FctRecord { flow, size, start, end });

impl FctRecord {
    /// Flow completion time.
    pub fn fct(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// One PFC pause event.
#[derive(Debug, Clone, Copy)]
pub struct PfcEvent {
    /// When the PAUSE was generated.
    pub t: SimTime,
    /// Switch that generated it.
    pub node: NodeId,
    /// Ingress port whose occupancy crossed the threshold.
    pub port: PortId,
}

struct_codec!(PfcEvent { t, node, port });

/// Counts of packets destroyed by injected faults, per class. Kept separate
/// from congestion [`Trace::drops`] so experiments can attribute loss to the
/// fault plan versus to queue overflow.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounters {
    /// Data packets lost to random link loss.
    pub data_lost: u64,
    /// Control packets (ACK/NACK/feedback) lost to random link loss.
    pub ctrl_lost: u64,
    /// Data packets delivered corrupted and discarded at the receiver.
    pub data_corrupted: u64,
    /// Control packets delivered corrupted and discarded at the receiver.
    pub ctrl_corrupted: u64,
    /// Packets of any class destroyed because their link was down (in
    /// flight at the flap instant, or transmitted onto a dead link).
    pub link_down_drops: u64,
    /// Packets of any class discarded because their destination host was
    /// paused or crashed.
    pub host_down_drops: u64,
    /// Packets duplicated in transit (both copies delivered). Not counted
    /// in [`FaultCounters::total`]: duplication destroys nothing.
    pub duplicated: u64,
    /// Packets delivered out of order by an injected reorder fault. Not
    /// counted in [`FaultCounters::total`]: reordering destroys nothing.
    pub reordered: u64,
    /// Engine events (flow starts, CC timers) abandoned because their host
    /// is permanently crashed — down with no restore scheduled — instead of
    /// being re-queued every retry interval until the deadline. These are
    /// events, not packets, so they are excluded from
    /// [`FaultCounters::total`].
    pub abandoned_events: u64,
}

struct_codec!(FaultCounters {
    data_lost,
    ctrl_lost,
    data_corrupted,
    ctrl_corrupted,
    link_down_drops,
    host_down_drops,
    duplicated,
    reordered,
    abandoned_events,
});

impl FaultCounters {
    /// Total packets *destroyed* by fault injection across all classes
    /// (duplication and reordering perturb delivery without destroying
    /// packets, so they are excluded).
    pub fn total(&self) -> u64 {
        self.data_lost
            + self.ctrl_lost
            + self.data_corrupted
            + self.ctrl_corrupted
            + self.link_down_drops
            + self.host_down_drops
    }
}

/// Everything recorded during one run.
#[derive(Debug, Default)]
pub struct Trace {
    /// The typed event log, from which the metrics registry is folded
    /// ([`Trace::metrics`]). Fully disabled by default (see
    /// [`crate::telemetry`]).
    pub telemetry: Telemetry,
    /// Time-series observatory: periodic queue/CP/flow/PFC rows, folded
    /// at export ([`Trace::observatory_rows`]). Fully disabled by default
    /// (see [`crate::metrics`]).
    pub observatory: Observatory,
    /// Ports whose egress data-queue depth is sampled.
    watched_queues: Vec<(NodeId, PortId)>,
    /// Index into `watched_queues`/`queue_peak` by (node, port), so the
    /// per-enqueue peak update is O(1) instead of a scan over every
    /// watched queue.
    queue_index: FxHashMap<(NodeId, PortId), usize>,
    /// Sampled queue series, parallel to `watched_queues`.
    pub queue_series: Vec<Vec<Sample>>,
    /// Flows whose goodput (receiver-side delivery rate) is sampled.
    watched_flows: Vec<FlowId>,
    /// Sampled goodput series (bits/s), parallel to `watched_flows`.
    pub flow_rate_series: Vec<Vec<Sample>>,
    /// Receiver-side cumulative delivered bytes per watched flow.
    delivered: FxHashMap<FlowId, u64>,
    delivered_at_last_sample: Vec<u64>,
    /// Ports whose egress throughput is sampled.
    watched_ports: Vec<(NodeId, PortId)>,
    /// Sampled throughput series (bits/s), parallel to `watched_ports`.
    pub port_tput_series: Vec<Vec<Sample>>,
    tx_at_last_sample: Vec<u64>,
    /// Sampling period; `None` disables periodic sampling.
    pub sample_period: Option<SimDuration>,
    /// All PFC pause events.
    pub pfc_events: Vec<PfcEvent>,
    /// Completed flows.
    pub fcts: Vec<FctRecord>,
    /// Total data bytes retransmitted (go-back-N rollbacks).
    pub retx_bytes: u64,
    /// Total data bytes transmitted by senders (including retransmissions).
    pub tx_data_bytes: u64,
    /// Total feedback packets (RoCC CNPs / QCN Fb) emitted by switches.
    pub ctrl_emitted: u64,
    /// Packets dropped at switches by queue overflow (lossy mode tail
    /// drops). Routing failures and injected faults are counted separately
    /// in [`Trace::unroutable_drops`] and [`Trace::faults`].
    pub drops: u64,
    /// Packets discarded at a switch because no route to the destination
    /// existed. Distinct from congestion [`Trace::drops`]: any nonzero value
    /// here indicates a topology/routing bug, not load.
    pub unroutable_drops: u64,
    /// Packets destroyed by injected faults, by class.
    pub faults: FaultCounters,
    /// Peak egress-queue depth observed per watched queue (exact, not
    /// sampled), parallel to `watched_queues`.
    pub queue_peak: Vec<u64>,
    /// Sum of per-sample queue depths for all switch egress ports keyed by
    /// (node, port) — exact time-weighted accounting is done by the caller
    /// via sampling; this map holds cumulative (sum, count) per port.
    pub queue_avg_acc: FxHashMap<(NodeId, PortId), (f64, u64)>,
    /// Ports whose average queue should be accumulated at every sample tick.
    watched_avg_ports: Vec<(NodeId, PortId)>,
    /// Stop accumulating queue averages after this instant (e.g. the end
    /// of a workload's arrival window, so drain phases don't dilute them).
    pub avg_until: Option<SimTime>,
    /// Per-flow sender-side current CC rate samples (bits/s), if watched.
    watched_cc_flows: Vec<FlowId>,
    /// Sampled CC-rate series, parallel to `watched_cc_flows`.
    pub cc_rate_series: Vec<Vec<Sample>>,
}

impl Trace {
    /// New, empty trace with no sampling.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Watch an egress data queue (sampled series + exact peak).
    pub fn watch_queue(&mut self, node: NodeId, port: PortId) {
        self.queue_index
            .entry((node, port))
            .or_insert(self.watched_queues.len());
        self.watched_queues.push((node, port));
        self.queue_series.push(Vec::new());
        self.queue_peak.push(0);
    }

    /// Watch a flow's receiver-side goodput.
    pub fn watch_flow_rate(&mut self, flow: FlowId) {
        self.watched_flows.push(flow);
        self.flow_rate_series.push(Vec::new());
        self.delivered_at_last_sample.push(0);
    }

    /// Watch an egress port's throughput.
    pub fn watch_port_tput(&mut self, node: NodeId, port: PortId) {
        self.watched_ports.push((node, port));
        self.port_tput_series.push(Vec::new());
        self.tx_at_last_sample.push(0);
    }

    /// Accumulate the long-run average depth of a queue.
    pub fn watch_queue_avg(&mut self, node: NodeId, port: PortId) {
        self.watched_avg_ports.push((node, port));
        self.queue_avg_acc.insert((node, port), (0.0, 0));
    }

    /// Watch a sender flow's instantaneous CC rate.
    pub fn watch_cc_rate(&mut self, flow: FlowId) {
        self.watched_cc_flows.push(flow);
        self.cc_rate_series.push(Vec::new());
    }

    /// Watched queue list (engine-facing).
    pub fn watched_queues(&self) -> &[(NodeId, PortId)] {
        &self.watched_queues
    }

    /// Watched throughput-port list (engine-facing).
    pub fn watched_ports(&self) -> &[(NodeId, PortId)] {
        &self.watched_ports
    }

    /// Watched average-queue port list (engine-facing).
    pub fn watched_avg_ports(&self) -> &[(NodeId, PortId)] {
        &self.watched_avg_ports
    }

    /// Watched goodput flows (engine-facing).
    pub fn watched_flows(&self) -> &[FlowId] {
        &self.watched_flows
    }

    /// Watched CC-rate flows (engine-facing).
    pub fn watched_cc_flows(&self) -> &[FlowId] {
        &self.watched_cc_flows
    }

    /// Record a queue-depth sample for watched queue `idx`.
    pub fn record_queue_sample(&mut self, idx: usize, t: SimTime, bytes: u64) {
        self.queue_series[idx].push(Sample {
            t,
            v: bytes as f64,
        });
    }

    /// Record exact queue peak (called on every enqueue by the engine).
    /// O(1) via the (node, port) index — this runs for every data packet
    /// enqueued at every switch.
    pub fn note_queue_depth(&mut self, node: NodeId, port: PortId, bytes: u64) {
        if let Some(&i) = self.queue_index.get(&(node, port)) {
            if bytes > self.queue_peak[i] {
                self.queue_peak[i] = bytes;
            }
        }
    }

    /// Accumulate an average-queue sample (ignored past [`Trace::avg_until`]).
    pub fn record_queue_avg(&mut self, t: SimTime, node: NodeId, port: PortId, bytes: u64) {
        if let Some(cut) = self.avg_until {
            if t > cut {
                return;
            }
        }
        if let Some(e) = self.queue_avg_acc.get_mut(&(node, port)) {
            e.0 += bytes as f64;
            e.1 += 1;
        }
    }

    /// Long-run average queue depth of a watched port, in bytes.
    pub fn queue_avg(&self, node: NodeId, port: PortId) -> Option<f64> {
        self.queue_avg_acc
            .get(&(node, port))
            .map(|(s, c)| if *c == 0 { 0.0 } else { s / *c as f64 })
    }

    /// Record receiver-side delivery of `bytes` for `flow`.
    pub fn note_delivery(&mut self, flow: FlowId, bytes: u64) {
        *self.delivered.entry(flow).or_insert(0) += bytes;
    }

    /// Take a goodput sample for every watched flow (engine, on sample tick).
    pub fn sample_flow_rates(&mut self, t: SimTime, period: SimDuration) {
        let secs = period.as_secs_f64();
        for (i, f) in self.watched_flows.iter().enumerate() {
            let cur = self.delivered.get(f).copied().unwrap_or(0);
            let delta = cur - self.delivered_at_last_sample[i];
            self.delivered_at_last_sample[i] = cur;
            self.flow_rate_series[i].push(Sample {
                t,
                v: delta as f64 * 8.0 / secs,
            });
        }
    }

    /// Take a throughput sample for watched port `idx` given its cumulative
    /// tx byte counter.
    pub fn sample_port_tput(
        &mut self,
        idx: usize,
        t: SimTime,
        tx_bytes: u64,
        period: SimDuration,
    ) {
        let delta = tx_bytes - self.tx_at_last_sample[idx];
        self.tx_at_last_sample[idx] += delta;
        self.port_tput_series[idx].push(Sample {
            t,
            v: delta as f64 * 8.0 / period.as_secs_f64(),
        });
    }

    /// Record a CC-rate sample for watched flow index `idx`.
    pub fn record_cc_rate(&mut self, idx: usize, t: SimTime, bps: f64) {
        self.cc_rate_series[idx].push(Sample { t, v: bps });
    }

    /// Classes the log keeps: what telemetry collects plus what the
    /// observatory folds.
    #[inline]
    fn log_classes(&self) -> EventMask {
        self.telemetry.classes().union(self.observatory.classes())
    }

    /// One-branch hot-path guard: does the log keep events of `class`?
    /// Emission sites call this before constructing a [`SimEvent`].
    #[inline]
    pub fn wants(&self, class: EventMask) -> bool {
        self.log_classes().intersects(class)
    }

    /// Classes CC callbacks should buffer: the decision classes the log
    /// keeps.
    pub fn cc_mask(&self) -> EventMask {
        EventMask(self.log_classes().0 & (EventMask::CP_DECISION.0 | EventMask::RP_TRANSITION.0))
    }

    /// Append one event to the log if its class is kept.
    pub fn publish_event(&mut self, ev: SimEvent) {
        if self.wants(ev.class()) {
            self.telemetry.events.push(ev);
        }
    }

    /// Record a PFC pause event.
    pub fn note_pfc(&mut self, t: SimTime, node: NodeId, port: PortId) {
        self.pfc_events.push(PfcEvent { t, node, port });
        if self.wants(EventMask::PFC) {
            self.publish_event(SimEvent::Pfc {
                t,
                node,
                port,
                pause: true,
            });
        }
    }

    /// Record a PFC resume (XON) event. Resumes are not kept in
    /// [`Trace::pfc_events`] (which counts pauses, matching the paper's
    /// PFC metric) but are visible to telemetry and the observatory.
    pub fn note_pfc_resume(&mut self, t: SimTime, node: NodeId, port: PortId) {
        if self.wants(EventMask::PFC) {
            self.publish_event(SimEvent::Pfc {
                t,
                node,
                port,
                pause: false,
            });
        }
    }

    /// Record a completed flow.
    pub fn note_fct(&mut self, rec: FctRecord) {
        self.fcts.push(rec);
    }

    /// Overwrite a flow's delivered-bytes counter (the sanitizer's
    /// negative tests).
    #[cfg(test)]
    pub(crate) fn corrupt_delivered(&mut self, flow: FlowId, bytes: u64) {
        self.delivered.insert(flow, bytes);
    }

    /// The metrics registry, folded from the log, the completed flows and
    /// the sampled queue series: a counter per logged event kind and label
    /// set, and the FCT, queue-depth and CNP inter-arrival histograms.
    pub fn metrics(&self) -> Metrics {
        Metrics::fold(&self.telemetry.events, &self.fcts, &self.queue_series)
    }

    /// The metrics registry as one JSON document.
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }

    /// The observatory time series, folded from its tick marks, the
    /// sampled series and the log (empty unless the observatory was on).
    pub fn observatory_rows(&self) -> Vec<MetricRow> {
        self.observatory.rows(self)
    }

    /// The observatory time series as a JSONL document (one
    /// [`MetricRow`] per line).
    pub fn observatory_jsonl(&self) -> String {
        json::jsonl(&self.observatory_rows())
    }

    /// Total delivered bytes for a flow (receiver side).
    pub fn delivered_bytes(&self, flow: FlowId) -> u64 {
        self.delivered.get(&flow).copied().unwrap_or(0)
    }

    /// Serialize the trace's state: the watch lists (configuration the
    /// restoring run re-registers; the decode checks them), the sampled
    /// series, delivery accounting (sorted by key for determinism),
    /// counters, fault counters, the event log (its bytes, copied) and the
    /// observatory's tick marks. Sample period and `avg_until` are
    /// configuration too.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.watched_queues);
        w.put(&self.watched_flows);
        w.put(&self.watched_ports);
        w.put(&self.watched_avg_ports);
        w.put(&self.watched_cc_flows);
        w.put(&self.queue_series);
        w.put(&self.flow_rate_series);
        w.put(&self.port_tput_series);
        w.put(&self.cc_rate_series);
        w.put(&sorted(&self.delivered));
        w.put(&self.delivered_at_last_sample);
        w.put(&self.tx_at_last_sample);
        w.put(&self.pfc_events);
        w.put(&self.fcts);
        w.put(&self.retx_bytes);
        w.put(&self.tx_data_bytes);
        w.put(&self.ctrl_emitted);
        w.put(&self.drops);
        w.put(&self.unroutable_drops);
        w.put(&self.faults);
        w.put(&self.queue_peak);
        w.put(&sorted(&self.queue_avg_acc));
        w.put(&self.telemetry.classes());
        w.put(&self.telemetry.events);
        w.put(&self.observatory);
    }

    /// Overwrite the trace's dynamic state from a [`Trace::save_state`]
    /// stream. Fails if the watch lists, telemetry classes or observatory
    /// switch of the rebuilt run do not match the captured ones, or if the
    /// log holds an event of a class the rebuilt run does not keep.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        /// `Ok` if the captured watch list is the registered one.
        fn same<T: PartialEq>(captured: Vec<T>, registered: &[T]) -> Result<(), SnapshotError> {
            if captured == registered {
                Ok(())
            } else {
                Err(SnapshotError::Malformed("watch list differs"))
            }
        }
        /// `v` if it has one entry per registered watch.
        fn per_watch<T>(v: Vec<T>, watches: usize) -> Result<Vec<T>, SnapshotError> {
            if v.len() == watches {
                Ok(v)
            } else {
                Err(SnapshotError::Malformed("watch count differs"))
            }
        }
        same(r.get()?, &self.watched_queues)?;
        same(r.get()?, &self.watched_flows)?;
        same(r.get()?, &self.watched_ports)?;
        same(r.get()?, &self.watched_avg_ports)?;
        same(r.get()?, &self.watched_cc_flows)?;
        self.queue_series = per_watch(r.get()?, self.watched_queues.len())?;
        self.flow_rate_series = per_watch(r.get()?, self.watched_flows.len())?;
        self.port_tput_series = per_watch(r.get()?, self.watched_ports.len())?;
        self.cc_rate_series = per_watch(r.get()?, self.watched_cc_flows.len())?;
        self.delivered = r.get::<Vec<(FlowId, u64)>>()?.into_iter().collect();
        self.delivered_at_last_sample = per_watch(r.get()?, self.watched_flows.len())?;
        self.tx_at_last_sample = per_watch(r.get()?, self.watched_ports.len())?;
        self.pfc_events = r.get()?;
        self.fcts = r.get()?;
        self.retx_bytes = r.get()?;
        self.tx_data_bytes = r.get()?;
        self.ctrl_emitted = r.get()?;
        self.drops = r.get()?;
        self.unroutable_drops = r.get()?;
        self.faults = r.get()?;
        self.queue_peak = per_watch(r.get()?, self.watched_queues.len())?;
        let avg: Vec<((NodeId, PortId), (f64, u64))> = r.get()?;
        let avg_ports = avg.iter().map(|(port, _)| port);
        if avg.len() != self.queue_avg_acc.len()
            || avg_ports.into_iter().any(|p| !self.queue_avg_acc.contains_key(p))
        {
            return Err(SnapshotError::Malformed("queue average ports differ"));
        }
        self.queue_avg_acc = avg.into_iter().collect();
        if r.get::<EventMask>()? != self.telemetry.classes() {
            return Err(SnapshotError::Malformed("telemetry enable masks differ"));
        }
        let events = EventLog::read(r, self.log_classes())?;
        let observatory: Observatory = r.get()?;
        if observatory.classes() != self.observatory.classes() {
            return Err(SnapshotError::Malformed("observatory enable flag differs"));
        }
        observatory.check(events.len(), self.watched_flows.len())?;
        self.telemetry.events = events;
        self.observatory = observatory;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fct_record_duration() {
        let r = FctRecord {
            flow: FlowId(1),
            size: 1000,
            start: SimTime::from_micros(10),
            end: SimTime::from_micros(110),
        };
        assert_eq!(r.fct(), SimDuration::from_micros(100));
    }

    #[test]
    fn goodput_sampling() {
        let mut tr = Trace::new();
        tr.watch_flow_rate(FlowId(1));
        tr.note_delivery(FlowId(1), 125_000); // 1 Mbit
        tr.sample_flow_rates(SimTime::from_millis(1), SimDuration::from_millis(1));
        assert!((tr.flow_rate_series[0][0].v - 1e9).abs() < 1.0);
        // Next window delivers nothing.
        tr.sample_flow_rates(SimTime::from_millis(2), SimDuration::from_millis(1));
        assert_eq!(tr.flow_rate_series[0][1].v, 0.0);
    }

    #[test]
    fn fault_counters_total() {
        let mut f = FaultCounters::default();
        assert_eq!(f.total(), 0);
        f.data_lost = 3;
        f.ctrl_corrupted = 2;
        f.link_down_drops = 1;
        f.host_down_drops = 4;
        assert_eq!(f.total(), 10);
        // Duplication/reordering perturb but don't destroy — excluded.
        f.duplicated = 7;
        f.reordered = 9;
        assert_eq!(f.total(), 10);
    }

    #[test]
    fn queue_peak_tracking() {
        let mut tr = Trace::new();
        tr.watch_queue(NodeId(3), PortId(1));
        tr.note_queue_depth(NodeId(3), PortId(1), 100);
        tr.note_queue_depth(NodeId(3), PortId(1), 50);
        tr.note_queue_depth(NodeId(9), PortId(1), 999); // unwatched
        assert_eq!(tr.queue_peak[0], 100);
    }

    #[test]
    fn queue_average_accumulation() {
        let mut tr = Trace::new();
        tr.watch_queue_avg(NodeId(0), PortId(0));
        tr.record_queue_avg(SimTime::ZERO, NodeId(0), PortId(0), 100);
        tr.record_queue_avg(SimTime::ZERO, NodeId(0), PortId(0), 300);
        assert_eq!(tr.queue_avg(NodeId(0), PortId(0)), Some(200.0));
        assert_eq!(tr.queue_avg(NodeId(1), PortId(0)), None);
        // Samples past the cutoff are ignored.
        tr.avg_until = Some(SimTime::from_micros(1));
        tr.record_queue_avg(SimTime::from_micros(2), NodeId(0), PortId(0), 900);
        assert_eq!(tr.queue_avg(NodeId(0), PortId(0)), Some(200.0));
    }
}
