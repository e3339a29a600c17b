//! The `repro trace` run summaries, pinned: per-class event counts, the
//! Alg. 1 branch and Alg. 2 transition counts and the metrics registry
//! of both scenarios, as FNV-1a-64 digests of the summary JSON.
//!
//! The summary is assembled after the run from what the run recorded, so
//! how the sinks keep their state during the run is free to change; the
//! summary text is not.

use rocc_experiments::{trace, Scale};
use rocc_stats::digest::fnv1a_64;

#[test]
fn trace_summaries_are_pinned() {
    for (scenario, want) in [
        ("incast", 0xf626_dce3_18ae_07ea_u64),
        ("recovery", 0xa860_a3ed_18e6_2b82),
    ] {
        let run = trace::run(scenario, Scale::Quick).expect("a known scenario");
        let got = fnv1a_64(run.summary_json.as_bytes());
        assert_eq!(got, want, "{scenario}: summary moved (digest {got:#018x})");
    }
}
