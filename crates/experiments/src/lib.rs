//! # rocc-experiments — the reproduction harness
//!
//! One module per table/figure of the RoCC paper (CoNEXT '20). Each
//! experiment builds its scenario from `rocc-sim` topologies, wires in the
//! scheme under test from `rocc-core`/`rocc-baselines`, drives the
//! published workloads from `rocc-workloads`, and returns structured
//! results; the `repro` binary renders them as the paper's rows/series.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Fig. 5 (margin surface) | [`analytic::fig5`] |
//! | Fig. 6 (Bode, N = 2 vs 10) | [`analytic::fig6`] |
//! | Fig. 7a/b (margin & bandwidth vs N) | [`analytic::fig7`] |
//! | Fig. 8 (fairness/stability) | [`micro::fig8`] |
//! | Fig. 9 (convergence) | [`micro::fig9`] |
//! | Fig. 11a–c (scheme comparison) | [`micro::fig11`] |
//! | Fig. 12a (multi-bottleneck) | [`micro::fig12a`] |
//! | Fig. 12b (asymmetric) | [`micro::fig12b`] |
//! | Fig. 13 (testbed vs sim) | [`micro::fig13`] |
//! | Figs. 14–16 (FCT by bin) | [`fct::fct_comparison_supervised`] |
//! | Table 3 (rate allocation) | [`fct::table3`] |
//! | Fig. 17 (queues & PFC by CP) | [`fct::fct_comparison_supervised`] (side data) |
//! | Fig. 18 (unlimited buffer) | [`fct::fold_increase`] |
//! | Fig. 19 (baseline verification) | [`micro::fig19`] |
//! | Fig. 20 (lossy go-back-N) | [`fct::fold_increase`] |
//! | Table 1 (qualitative) | [`table1::table1`] |
//!
//! Beyond the paper's figures, [`chaos`] stresses the robustness claims
//! directly with the simulator's fault-injection layer (CNP loss sweeps
//! and total-blackout recovery), and [`trace`] replays micro scenarios
//! with the structured telemetry layer enabled, exporting the typed
//! event timeline, the metrics registry, and simulator self-profiling
//! (`repro trace <scenario>`).
//!
//! Grid-shaped experiments run under the [`supervisor`]: every cell is
//! panic-isolated, classified into a typed outcome, retried when
//! transient, quarantined when not, and — with a checkpoint journal
//! attached — resumable after a crash with byte-identical aggregates.

#![warn(missing_docs)]

pub mod ablation;
pub mod analytic;
pub mod chaos;
pub mod csv;
pub mod diverge;
pub mod fct;
pub mod micro;
pub mod observatory;
pub mod parallel;
pub mod profiling;
pub mod scenarios;
pub mod schemes;
pub mod supervisor;
pub mod table1;
pub mod trace;

pub use schemes::Scheme;

/// Experiment scale: `Quick` finishes in seconds-to-minutes on a laptop
/// (reduced hosts/duration/repetitions, same oversubscription and traffic
/// shape); `Paper` uses the published dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced dimensions for CI and quick local runs.
    Quick,
    /// The paper's dimensions (30 hosts/edge, 2 trunks, 5 repetitions).
    Paper,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }
}
