//! Flow tables: who gets the CNPs (paper §3.4).
//!
//! The CP must know which flows to notify. The paper's default tracks "the
//! flows currently in the queue" — table size bounded by the queue itself.
//! It also sketches alternatives; we implement three of the five:
//!
//! 1. [`InQueueTable`] — the default: a flow is present exactly while it
//!    has packets in the egress queue.
//! 2. [`BoundedAgeTable`] — option (2): capacity bounded by Fmax/Fmin (the
//!    maximum number of concurrent congesting flows) with age-based
//!    eviction.
//! 3. [`SamplingTable`] — options (4)/(5) (ElephantTrap / BubbleCache
//!    spirit): packets are sampled with probability p; sampled flows gain
//!    frequency, and the least-frequently-used entry is evicted when full.
//!    Elephants dominate samples, so persistent congesters stay resident.
//!
//! Every implementation exposes the same trait so the switch CC can swap
//! policies (the paper notes selective feedback trades stability margin
//! for state).

use rocc_sim::cc::CcState;
use rocc_sim::prelude::{FlowId, NodeId, SimTime};
use std::collections::HashMap;

/// A flow table entry: the flow and where its CNPs must be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEntry {
    /// The flow.
    pub flow: FlowId,
    /// The flow's source host.
    pub src: NodeId,
}

/// The CP's view of which flows should receive feedback. Its
/// [`CcState`] is the table's contents, part of the CP's snapshot words.
pub trait FlowTable: CcState {
    /// A data packet of `flow` (from `src`) was enqueued.
    fn on_enqueue(&mut self, now: SimTime, flow: FlowId, src: NodeId, rand01: f64);

    /// A data packet of `flow` left the queue.
    fn on_dequeue(&mut self, now: SimTime, flow: FlowId);

    /// Flows to notify at this fair-rate interval.
    fn recipients(&mut self, now: SimTime, out: &mut Vec<FlowEntry>);

    /// Number of tracked flows (diagnostics).
    fn len(&self) -> usize;

    /// True when no flows are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Default policy: flows with at least one packet currently queued.
#[derive(Debug, Default)]
pub struct InQueueTable {
    counts: HashMap<FlowId, (u32, NodeId)>,
}

impl InQueueTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FlowTable for InQueueTable {
    fn on_enqueue(&mut self, _now: SimTime, flow: FlowId, src: NodeId, _rand01: f64) {
        let e = self.counts.entry(flow).or_insert((0, src));
        e.0 += 1;
        e.1 = src;
    }

    fn on_dequeue(&mut self, _now: SimTime, flow: FlowId) {
        if let Some(e) = self.counts.get_mut(&flow) {
            // Saturating: enqueue/dequeue can desynchronize under fault
            // churn (a crashed host's flow re-entering the queue while an
            // entry count was already at its floor), and a stray dequeue
            // must degrade to a no-op rather than panic on underflow.
            e.0 = e.0.saturating_sub(1);
            if e.0 == 0 {
                self.counts.remove(&flow);
            }
        }
    }

    fn recipients(&mut self, _now: SimTime, out: &mut Vec<FlowEntry>) {
        out.extend(
            self.counts
                .iter()
                .map(|(&flow, &(_, src))| FlowEntry { flow, src }),
        );
        // Deterministic order regardless of hash-map iteration.
        out.sort_by_key(|e| e.flow);
    }

    fn len(&self) -> usize {
        self.counts.len()
    }
}

rocc_sim::cc_state!(InQueueTable { counts });

/// Bounded table with age-based eviction: RoCC's Fmin bounds concurrent
/// congesting flows by Fmax/Fmin, so a table of that size suffices; the
/// stalest entry is evicted on overflow.
#[derive(Debug)]
pub struct BoundedAgeTable {
    capacity: usize,
    /// flow → (source, last time a packet was seen).
    entries: HashMap<FlowId, (NodeId, SimTime)>,
    /// Entries idle longer than this are dropped from the recipient list.
    idle_timeout_ns: u64,
}

impl BoundedAgeTable {
    /// `capacity` is typically `Fmax / Fmin` (400 for the 40 Gb/s profile).
    pub fn new(capacity: usize, idle_timeout_ns: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        BoundedAgeTable {
            capacity,
            entries: HashMap::new(),
            idle_timeout_ns,
        }
    }
}

impl FlowTable for BoundedAgeTable {
    fn on_enqueue(&mut self, now: SimTime, flow: FlowId, src: NodeId, _rand01: f64) {
        if !self.entries.contains_key(&flow) && self.entries.len() >= self.capacity {
            // Evict the stalest entry (deterministic tie-break on flow id).
            if let Some((&victim, _)) = self
                .entries
                .iter()
                .min_by_key(|(f, (_, t))| (t.as_nanos(), f.0))
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(flow, (src, now));
    }

    fn on_dequeue(&mut self, _now: SimTime, _flow: FlowId) {
        // Age-based: dequeues do not remove entries.
    }

    fn recipients(&mut self, now: SimTime, out: &mut Vec<FlowEntry>) {
        let timeout = self.idle_timeout_ns;
        self.entries
            .retain(|_, (_, t)| now.as_nanos().saturating_sub(t.as_nanos()) <= timeout);
        out.extend(
            self.entries
                .iter()
                .map(|(&flow, &(src, _))| FlowEntry { flow, src }),
        );
        out.sort_by_key(|e| e.flow);
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

// `capacity` and `idle_timeout_ns` are configuration.
rocc_sim::cc_state!(BoundedAgeTable { entries });

/// Sampling table in the ElephantTrap/BubbleCache spirit: sample arriving
/// packets with probability `p`; sampled flows bump a frequency counter;
/// when full, the least-frequently-used entry is halved/evicted. Elephants
/// dominate samples and stay resident — at the cost of missing some mice
/// (lower stability margin, as the paper notes).
#[derive(Debug)]
pub struct SamplingTable {
    capacity: usize,
    sample_prob: f64,
    entries: HashMap<FlowId, (NodeId, u32)>,
}

impl SamplingTable {
    /// Sample with probability `sample_prob`, keep at most `capacity` flows.
    pub fn new(capacity: usize, sample_prob: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            (0.0..=1.0).contains(&sample_prob),
            "probability out of range"
        );
        SamplingTable {
            capacity,
            sample_prob,
            entries: HashMap::new(),
        }
    }
}

impl FlowTable for SamplingTable {
    fn on_enqueue(&mut self, _now: SimTime, flow: FlowId, src: NodeId, rand01: f64) {
        if rand01 >= self.sample_prob {
            return;
        }
        if let Some(e) = self.entries.get_mut(&flow) {
            e.1 = e.1.saturating_add(1);
            return;
        }
        if self.entries.len() >= self.capacity {
            // LFU eviction (deterministic tie-break on flow id).
            if let Some((&victim, &(_, freq))) = self
                .entries
                .iter()
                .min_by_key(|(f, (_, c))| (*c, f.0))
            {
                if freq > 1 {
                    // Decay instead of evict: the newcomer must keep
                    // sampling to displace a strong elephant.
                    for e in self.entries.values_mut() {
                        e.1 /= 2;
                    }
                    return;
                }
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(flow, (src, 1));
    }

    fn on_dequeue(&mut self, _now: SimTime, _flow: FlowId) {}

    fn recipients(&mut self, _now: SimTime, out: &mut Vec<FlowEntry>) {
        out.extend(
            self.entries
                .iter()
                .map(|(&flow, &(src, _))| FlowEntry { flow, src }),
        );
        out.sort_by_key(|e| e.flow);
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

// `capacity` and `sample_prob` are configuration.
rocc_sim::cc_state!(SamplingTable { entries });

/// Which flow-table policy a RoCC switch uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowTablePolicy {
    /// [`InQueueTable`] (paper default).
    InQueue,
    /// [`BoundedAgeTable`] with the given capacity and idle timeout (ns).
    BoundedAge {
        /// Maximum tracked flows.
        capacity: usize,
        /// Idle eviction horizon in nanoseconds.
        idle_timeout_ns: u64,
    },
    /// [`SamplingTable`] with the given capacity and sampling probability.
    Sampling {
        /// Maximum tracked flows.
        capacity: usize,
        /// Per-packet sampling probability.
        sample_prob: f64,
    },
}

impl FlowTablePolicy {
    /// Instantiate the table.
    pub fn build(&self) -> Box<dyn FlowTable + Send> {
        match *self {
            FlowTablePolicy::InQueue => Box::new(InQueueTable::new()),
            FlowTablePolicy::BoundedAge {
                capacity,
                idle_timeout_ns,
            } => Box::new(BoundedAgeTable::new(capacity, idle_timeout_ns)),
            FlowTablePolicy::Sampling {
                capacity,
                sample_prob,
            } => Box::new(SamplingTable::new(capacity, sample_prob)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn in_queue_tracks_occupancy() {
        let mut tab = InQueueTable::new();
        tab.on_enqueue(t(0), FlowId(1), NodeId(10), 0.0);
        tab.on_enqueue(t(0), FlowId(1), NodeId(10), 0.0);
        tab.on_enqueue(t(0), FlowId(2), NodeId(11), 0.0);
        assert_eq!(tab.len(), 2);
        tab.on_dequeue(t(1), FlowId(1));
        assert_eq!(tab.len(), 2, "flow 1 still has one packet queued");
        tab.on_dequeue(t(1), FlowId(1));
        assert_eq!(tab.len(), 1, "flow 1 left the queue");
        let mut out = Vec::new();
        tab.recipients(t(2), &mut out);
        assert_eq!(
            out,
            vec![FlowEntry {
                flow: FlowId(2),
                src: NodeId(11)
            }]
        );
    }

    #[test]
    fn in_queue_dequeue_of_unknown_flow_is_noop() {
        let mut tab = InQueueTable::new();
        tab.on_dequeue(t(0), FlowId(99));
        assert!(tab.is_empty());
    }

    #[test]
    fn in_queue_survives_desynchronized_churn() {
        // Fault-injected crashes can replay dequeues for counts that were
        // already drained; the table must stay consistent, never panic.
        let mut tab = InQueueTable::new();
        tab.on_enqueue(t(0), FlowId(1), NodeId(1), 0.0);
        tab.on_dequeue(t(1), FlowId(1));
        tab.on_dequeue(t(1), FlowId(1)); // stray duplicate
        assert!(tab.is_empty());
        // Re-entry after the churn behaves like a fresh flow.
        tab.on_enqueue(t(2), FlowId(1), NodeId(2), 0.0);
        assert_eq!(tab.len(), 1);
        let mut out = Vec::new();
        tab.recipients(t(2), &mut out);
        assert_eq!(out[0].src, NodeId(2), "source updated on re-entry");
    }

    #[test]
    fn bounded_age_evicts_stalest() {
        let mut tab = BoundedAgeTable::new(2, u64::MAX);
        tab.on_enqueue(t(0), FlowId(1), NodeId(1), 0.0);
        tab.on_enqueue(t(1), FlowId(2), NodeId(2), 0.0);
        tab.on_enqueue(t(2), FlowId(3), NodeId(3), 0.0); // evicts flow 1
        let mut out = Vec::new();
        tab.recipients(t(3), &mut out);
        let flows: Vec<_> = out.iter().map(|e| e.flow).collect();
        assert_eq!(flows, vec![FlowId(2), FlowId(3)]);
    }

    #[test]
    fn bounded_age_idle_timeout_drops_entries() {
        let mut tab = BoundedAgeTable::new(8, 1_000); // 1 µs horizon
        tab.on_enqueue(t(0), FlowId(1), NodeId(1), 0.0);
        tab.on_enqueue(t(5), FlowId(2), NodeId(2), 0.0);
        let mut out = Vec::new();
        tab.recipients(t(5), &mut out);
        let flows: Vec<_> = out.iter().map(|e| e.flow).collect();
        assert_eq!(flows, vec![FlowId(2)], "flow 1 idled out");
    }

    #[test]
    fn sampling_table_respects_probability() {
        let mut tab = SamplingTable::new(8, 0.5);
        tab.on_enqueue(t(0), FlowId(1), NodeId(1), 0.7); // not sampled
        assert!(tab.is_empty());
        tab.on_enqueue(t(0), FlowId(1), NodeId(1), 0.2); // sampled
        assert_eq!(tab.len(), 1);
    }

    #[test]
    fn sampling_table_keeps_elephants_under_pressure() {
        let mut tab = SamplingTable::new(2, 1.0);
        // Elephant flow 1 sampled many times.
        for _ in 0..10 {
            tab.on_enqueue(t(0), FlowId(1), NodeId(1), 0.0);
        }
        tab.on_enqueue(t(0), FlowId(2), NodeId(2), 0.0);
        // A parade of one-hit mice must not displace the elephant.
        for m in 10..30 {
            tab.on_enqueue(t(1), FlowId(m), NodeId(5), 0.0);
        }
        let mut out = Vec::new();
        tab.recipients(t(2), &mut out);
        assert!(
            out.iter().any(|e| e.flow == FlowId(1)),
            "elephant evicted: {out:?}"
        );
        assert!(tab.len() <= 2);
    }

    #[test]
    fn policy_builders() {
        assert_eq!(FlowTablePolicy::InQueue.build().len(), 0);
        assert_eq!(
            FlowTablePolicy::BoundedAge {
                capacity: 4,
                idle_timeout_ns: 1
            }
            .build()
            .len(),
            0
        );
        assert_eq!(
            FlowTablePolicy::Sampling {
                capacity: 4,
                sample_prob: 0.1
            }
            .build()
            .len(),
            0
        );
    }
}
