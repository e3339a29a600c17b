//! # rocc-bench — the `perf` engine benchmark and its ratchet
//!
//! What is left of the first benchmark system: `src/bin/perf.rs` (the
//! fixed seeded incast behind `BENCH_sim.json`, `perf bench|check|ratchet`)
//! and [`ratchet`], the multi-metric gate CI's `bench` job applies to it.
//! `perfsuite/` measures everything this does and more; both go, with the
//! CI leg, when a benchmark PR moves the exact-event-count gate and the
//! profiler-overhead ceiling into `suite compare` (ROADMAP item 1).

#![warn(missing_docs)]

pub mod ratchet;
