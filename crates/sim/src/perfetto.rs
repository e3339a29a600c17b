//! Chrome-trace / Perfetto export: renders a finished run as a JSON trace
//! that loads directly in `ui.perfetto.dev` (or `chrome://tracing`).
//!
//! Track layout:
//!
//! * **Process 1 — flows.** One thread per flow. The flow's lifetime is a
//!   slice (start → completion, or run end if unfinished); RP transitions
//!   are instant events on the flow's track; the RP rate limiter is a
//!   per-flow counter.
//! * **Process 100+n — each switch n.** One thread per egress port. PFC
//!   pause→resume windows are slices; CNP emissions are instants; sampled
//!   queue depth and the CP fair rate are counters.
//! * **CNP causality.** Every CNP emission opens a flow arrow (`ph:"s"`)
//!   on the congestion point's track, finished (`ph:"f"`) at the next RP
//!   transition of the steered flow — the per-hop feedback path is visible
//!   as arrows from switch to sender.
//! * **Process 999 — engine.** Present only when the phase profiler was
//!   enabled for the run: event-heap depth and live wire-packet slab
//!   occupancy as counter tracks, sampled at the profiler's heap stride.
//!
//! Timestamps are microseconds (the Chrome trace convention); the exporter
//! is a pure read over the collected [`crate::trace::Trace`], so exporting
//! cannot perturb a run.

use crate::engine::Sim;
use crate::fastmap::FxHashMap;
use crate::packet::FlowId;
use crate::telemetry::SimEvent;
use crate::time::SimTime;
use rocc_stats::json::{self, Json, Obj};

/// Process id of the flow tracks.
const FLOW_PID: u64 = 1;
/// Process-id base for switches: switch n gets pid `SWITCH_PID_BASE + n`.
const SWITCH_PID_BASE: u64 = 100;
/// Process id of the engine-internals tracks (profiler counters).
const ENGINE_PID: u64 = 999;

fn us(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1000.0
}

/// The trace's events, each one JSON object.
struct Events(Vec<String>);

impl Events {
    /// One event: `ph`, `pid`, `tid`, then the members `rest` writes.
    fn push(&mut self, ph: &str, pid: u64, tid: impl Json, rest: impl FnOnce(&mut Obj)) {
        self.0.push(json::object(|o| {
            o.field("ph", ph).field("pid", &pid).field("tid", &tid);
            rest(o);
        }));
    }

    /// A metadata event naming a process (`tid` 0) or a thread.
    fn meta(&mut self, pid: u64, tid: u64, what: &str, name: &str) {
        self.push("M", pid, tid, |o| {
            o.field("name", what).object("args", |o| {
                o.field("name", name);
            });
        });
    }

    /// A complete ("X") slice over `span`.
    fn slice(&mut self, pid: u64, tid: impl Json, span: (SimTime, SimTime), name: &str) {
        let (start, stop) = (us(span.0), us(span.1));
        let cat = if pid == FLOW_PID { "flow" } else { "pfc" };
        self.push("X", pid, tid, |o| {
            o.field("ts", &start)
                .field("dur", &(stop - start).max(0.0))
                .field("name", name)
                .field("cat", cat);
        });
    }

    /// A counter ("C") sample: one named series holding its value.
    fn counter(&mut self, pid: u64, tid: impl Json, t: SimTime, name: &str, arg: (&str, u64)) {
        let (series, value) = arg;
        self.push("C", pid, tid, |o| {
            o.field("ts", &us(t))
                .field("name", name)
                .object("args", |o| {
                    o.field(series, &value);
                });
        });
    }
}

/// Export the run as a Chrome-trace JSON document.
pub fn export_chrome_trace(sim: &Sim) -> String {
    let mut ev = Events(Vec::new());
    let end = sim.kernel.now;

    // ---- flow process: metadata, lifetime slices, completion map.
    ev.meta(FLOW_PID, 0, "process_name", "flows");
    let mut fct_end: FxHashMap<FlowId, SimTime> = FxHashMap::default();
    for r in &sim.trace.fcts {
        fct_end.insert(r.flow, r.end);
    }
    for spec in sim.flows() {
        let tid = spec.id.0;
        ev.meta(FLOW_PID, tid, "thread_name", &format!("flow {tid}"));
        let done = fct_end.get(&spec.id).copied();
        let name = if done.is_some() {
            format!("flow {} ({} B)", spec.id.0, spec.size)
        } else {
            format!("flow {} ({} B, unfinished)", spec.id.0, spec.size)
        };
        ev.slice(FLOW_PID, tid, (spec.start, done.unwrap_or(end)), &name);
    }

    // ---- switch processes: metadata for every switch that appears.
    let mut switch_named: Vec<bool> = vec![false; sim.topo().nodes().len()];
    let mut name_switch = |ev: &mut Events, node: usize| {
        if !switch_named[node] {
            switch_named[node] = true;
            let pid = SWITCH_PID_BASE + node as u64;
            ev.meta(pid, 0, "process_name", &format!("switch {node}"));
        }
    };

    // ---- telemetry event pass: PFC slices, CNP arrows, RP instants,
    // fair-rate and RP-rate counters.
    let mut pause_open: FxHashMap<(usize, usize), SimTime> = FxHashMap::default();
    // CNP arrows pending per flow: (arrow id, emit time).
    let mut pending_cnp: FxHashMap<FlowId, Vec<u64>> = FxHashMap::default();
    let mut arrow_id: u64 = 0;
    for e in &sim.trace.telemetry.events {
        match e {
            SimEvent::Pfc {
                t,
                node,
                port,
                pause,
            } => {
                name_switch(&mut ev, node.0);
                let pid = SWITCH_PID_BASE + node.0 as u64;
                if pause {
                    pause_open.entry((node.0, port.0)).or_insert(t);
                } else if let Some(start) = pause_open.remove(&(node.0, port.0)) {
                    ev.slice(pid, port, (start, t), "PFC paused");
                }
            }
            SimEvent::CnpEmit {
                t,
                cp,
                flow,
                fair_rate_units,
            } => {
                name_switch(&mut ev, cp.node.0);
                let pid = SWITCH_PID_BASE + cp.node.0 as u64;
                arrow_id += 1;
                ev.push("s", pid, cp.port, |o| {
                    o.field("ts", &us(t))
                        .field("id", &arrow_id)
                        .field("name", "cnp")
                        .field("cat", "cnp")
                        .object("args", |o| {
                            o.field("flow", &flow)
                                .field("fair_rate_units", &fair_rate_units);
                        });
                });
                pending_cnp.entry(flow).or_default().push(arrow_id);
            }
            SimEvent::RpTransition {
                t,
                flow,
                kind,
                rate_bps,
                ..
            } => {
                ev.push("i", FLOW_PID, flow, |o| {
                    o.field("ts", &us(t))
                        .field("s", "t")
                        .field("name", &format!("rp {}", kind.as_str()))
                        .field("cat", "rp")
                        .object("args", |o| {
                            o.field("rate_bps", &rate_bps);
                        });
                });
                let name = format!("rp Mbps flow {}", flow.0);
                ev.counter(FLOW_PID, flow, t, &name, ("mbps", rate_bps / 1_000_000));
                // A CNP-driven transition closes the oldest pending arrow
                // for this flow (recovery doublings are timer-driven).
                if kind != crate::telemetry::RpTransitionKind::RecoveryDouble {
                    if let Some(ids) = pending_cnp.get_mut(&flow) {
                        if !ids.is_empty() {
                            let id = ids.remove(0);
                            ev.0.push(json::object(|o| {
                                o.field("ph", "f")
                                    .field("bp", "e")
                                    .field("pid", &FLOW_PID)
                                    .field("tid", &flow)
                                    .field("ts", &us(t))
                                    .field("id", &id)
                                    .field("name", "cnp")
                                    .field("cat", "cnp");
                            }));
                        }
                    }
                }
            }
            SimEvent::CpDecision {
                t,
                cp,
                fair_rate_units,
                ..
            } => {
                name_switch(&mut ev, cp.node.0);
                let pid = SWITCH_PID_BASE + cp.node.0 as u64;
                let name = format!("fair_rate_units p{}", cp.port.0);
                let units = u64::from(fair_rate_units);
                ev.counter(pid, cp.port, t, &name, ("units", units));
            }
            _ => {}
        }
    }
    // Pauses still open at run end render as slices ending at `now`.
    let mut open: Vec<((usize, usize), SimTime)> = pause_open.into_iter().collect();
    open.sort();
    for ((node, port), start) in open {
        let pid = SWITCH_PID_BASE + node as u64;
        name_switch(&mut ev, node);
        ev.slice(pid, port, (start, end), "PFC paused (open)");
    }

    // ---- sampled queue-depth counters from the classic trace series.
    for (i, &(node, port)) in sim.trace.watched_queues().iter().enumerate() {
        name_switch(&mut ev, node.0);
        let pid = SWITCH_PID_BASE + node.0 as u64;
        let name = format!("queue bytes p{}", port.0);
        for s in &sim.trace.queue_series[i] {
            ev.counter(pid, port, s.t, &name, ("bytes", s.v as u64));
        }
    }

    // ---- engine internals: heap-depth / slab-occupancy counters from the
    // phase profiler, when it was enabled for this run.
    if sim.kernel.prof.is_enabled() && !sim.kernel.prof.heap_series().is_empty() {
        ev.meta(ENGINE_PID, 0, "process_name", "engine");
        ev.meta(ENGINE_PID, 0, "thread_name", "scheduler");
        for s in sim.kernel.prof.heap_series() {
            let t = SimTime::from_nanos(s.t_ns);
            let (heap, live) = (("events", s.heap), ("packets", s.slab_live));
            ev.counter(ENGINE_PID, 0u64, t, "event heap depth", heap);
            ev.counter(ENGINE_PID, 0u64, t, "slab live packets", live);
        }
    }

    json::object(|o| {
        o.field("displayTimeUnit", "ns")
            .raw("traceEvents", &json::lines(&ev.0));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{NullHostCcFactory, NullSwitchCcFactory};
    use crate::config::SimConfig;
    use crate::engine::FlowSpec;
    use crate::telemetry::EventMask;
    use crate::time::SimDuration;
    use crate::topology::{NodeRole, TopologyBuilder};
    use crate::units::BitRate;

    #[test]
    fn trace_covers_flows_pfc_and_queues() {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch("sw", NodeRole::Switch);
        let d = b.add_host("d");
        b.connect(d, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
        let mut srcs = Vec::new();
        for i in 0..4 {
            let h = b.add_host(format!("s{i}"));
            b.connect(h, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
            srcs.push(h);
        }
        let mut sim = Sim::new(
            b.build(),
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.trace.telemetry.collect(EventMask::ALL);
        sim.trace.sample_period = Some(SimDuration::from_micros(20));
        sim.trace.watch_queue(sw, crate::topology::PortId(0));
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst: d,
                size: 1_000_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        sim.run_until_flows_done(SimTime::from_millis(100))
            .assert_complete();
        let json = export_chrome_trace(&sim);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Flow lifetime slices, process metadata, PFC slices, queue counters.
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"flows\""));
        assert!(json.contains("\"cat\":\"flow\""));
        assert!(json.contains("\"name\":\"PFC paused\""));
        assert!(json.contains("queue bytes p0"));
        // Every slice has non-negative duration and balanced braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains("\"dur\":-"));
        // Profiler was off: no engine-internals process in the trace.
        assert!(!json.contains("event heap depth"));
    }

    #[test]
    fn profiler_adds_engine_counter_tracks() {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch("sw", NodeRole::Switch);
        let d = b.add_host("d");
        b.connect(d, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
        let s = b.add_host("s");
        b.connect(s, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
        let mut sim = Sim::new(
            b.build(),
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.enable_profiler();
        sim.add_flow(FlowSpec {
            id: FlowId(0),
            src: s,
            dst: d,
            size: 500_000,
            start: SimTime::ZERO,
            offered: None,
        });
        sim.run_until_flows_done(SimTime::from_millis(100))
            .assert_complete();
        let json = export_chrome_trace(&sim);
        assert!(json.contains("\"name\":\"engine\""));
        assert!(json.contains("event heap depth"));
        assert!(json.contains("slab live packets"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
