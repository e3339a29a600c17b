//! # rocc-sim — a deterministic packet-level datacenter network simulator
//!
//! This crate is the simulation substrate for the RoCC reproduction
//! (CoNEXT '20): a single-threaded, event-driven, packet-level model of an
//! RDMA datacenter fabric, standing in for the paper's OMNeT++/INET setup.
//!
//! It models:
//!
//! * full-duplex links with line-rate serialization and propagation delay,
//! * store-and-forward switches with per-egress FIFO data queues, a
//!   strict-priority control queue (prioritized CNPs, paper §3.3), ECMP
//!   routing, and per-ingress PFC (802.1Qbb) pause/resume with the paper's
//!   500 KB / 800 KB thresholds,
//! * hosts with per-flow rate limiters, optional windows, a go-back-N
//!   reliable transport, and the 15 µs RP feedback reaction delay,
//! * three buffering regimes: lossless PFC, unlimited buffers (Fig. 18),
//!   and tail-drop with go-back-N recovery (Fig. 20).
//!
//! Congestion control is pluggable via the [`cc::SwitchCc`] (congestion
//! point) and [`cc::HostCc`] (reaction point) traits; `rocc-core` implements
//! RoCC itself, `rocc-baselines` the comparison schemes.
//!
//! ## Example
//!
//! ```
//! use rocc_sim::prelude::*;
//!
//! // Two senders incast one receiver through a switch.
//! let mut b = TopologyBuilder::new();
//! let sw = b.add_switch("sw", NodeRole::Switch);
//! let dst = b.add_host("dst");
//! b.connect(dst, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
//! let mut srcs = vec![];
//! for i in 0..2 {
//!     let h = b.add_host(format!("src{i}"));
//!     b.connect(h, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
//!     srcs.push(h);
//! }
//! let mut sim = Sim::new(
//!     b.build(),
//!     SimConfig::default(),
//!     Box::new(NullHostCcFactory),
//!     Box::new(NullSwitchCcFactory),
//! );
//! for (i, &s) in srcs.iter().enumerate() {
//!     sim.add_flow(FlowSpec {
//!         id: FlowId(i as u64),
//!         src: s,
//!         dst,
//!         size: 1_000_000,
//!         start: SimTime::ZERO,
//!         offered: None,
//!     });
//! }
//! sim.run_until_flows_done(SimTime::from_millis(50)).assert_complete();
//! assert_eq!(sim.trace.fcts.len(), 2);
//! ```
//!
//! Determinism: for a fixed [`config::SimConfig::seed`] and identical
//! inputs, every run produces identical results — events at equal
//! timestamps are ordered by insertion sequence.

#![warn(missing_docs)]

pub mod artifacts;
pub mod cc;
pub mod config;
pub mod digest;
pub mod engine;
pub mod fastmap;
pub mod fault;
pub mod host;
pub mod metrics;
pub mod packet;
pub mod perfetto;
pub mod profiler;
pub mod sanitizer;
pub mod sched;
pub mod slab;
pub mod snapshot;
pub mod switch;
pub mod telemetry;
pub mod time;
pub mod topology;
pub mod trace;
pub mod units;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::artifacts::{ensure_dir, write_artifact, ArtifactError};
    pub use crate::cc::{
        AckEvent, CcState, CtrlEmit, FeedbackEvent, FixedRateFactory, HostCc, HostCcCtx,
        HostCcFactory, NullHostCcFactory, NullSwitchCcFactory, PacketMeta, RateDecision, SwitchCc,
        SwitchCcCtx, SwitchCcFactory,
    };
    pub use crate::config::{
        BufferMode, ConfigError, PfcConfig, RunBudget, SimConfig, DEFAULT_STALL_EVENTS,
    };
    pub use crate::digest::{
        bisect_divergence, first_ledger_divergence, parse_ledger_jsonl, BisectOptions,
        BisectOutcome, ComponentDigests, DigestLedger, DigestLedgerEntry,
        DivergenceReport, LedgerDivergence, ParsedLedger, WordDiff, DIGEST_LEDGER_SCHEMA,
        DIVERGENCE_REPORT_SCHEMA,
    };
    pub use crate::engine::{CheckpointSink, Event, FlowSpec, Kernel, Sim};
    pub use crate::fastmap::{FxHashMap, FxHashSet, FxHasher};
    pub use crate::fault::{
        FaultDecision, FaultEvent, FaultPlan, FaultState, FaultTarget, HostFault, HostFaultKind,
        LinkFault, LinkFlap,
    };
    pub use crate::metrics::{MetricRow, Observatory};
    pub use crate::packet::{CpId, FlowId, IntHop, IntStack, Packet, PacketKind};
    pub use crate::perfetto::export_chrome_trace;
    pub use crate::profiler::{DepthSample, Phase, PhaseProfiler, ProfileContext};
    pub use crate::sanitizer::{
        PauseCycleNode, PauseReport, RunVerdict, Sanitizer, SanitizerReport, SimError,
    };
    pub use crate::sched::{SchedStats, Scheduled, TimingWheel, WHEEL_LEVELS};
    pub use crate::slab::{PacketHead, PacketRef, PacketSlab};
    pub use crate::snapshot::{
        config_digest, inspect, SnapshotError, SnapshotInfo, SNAPSHOT_MAGIC,
    };
    pub use crate::telemetry::{
        CcEvent, CounterLabels, CpDecisionKind, DropCause, EventLog, EventMask, Histogram,
        Metrics, RpTransitionKind, SimEvent, SimProfile, Telemetry, VerdictKind,
    };
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{LinkId, NodeId, NodeRole, PortId, Topology, TopologyBuilder};
    pub use crate::trace::{FaultCounters, FctRecord, PfcEvent, Sample, Trace};
    pub use crate::units::{kb, mb, BitRate};
}
