//! The `repro trace` exports, pinned: the run summaries (per-class event
//! counts, the Alg. 1 branch and Alg. 2 transition counts and the metrics
//! registry) and the JSONL event timelines of both scenarios, as FNV-1a-64
//! digests of their text.
//!
//! Both are assembled after the run from what the run recorded, so how
//! the sinks keep their state during the run is free to change; the text
//! is not.

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

/// The timeline is the export most directly re-derived from the event
/// log: one line per logged event, in emission order.
#[test]
fn trace_timelines_are_pinned() {
    for (scenario, want) in [
        ("incast", 0x1ba1_7711_24f6_28e6_u64),
        ("recovery", 0x52ee_86fd_2b0f_dcca),
    ] {
        let run = trace::run(scenario, Scale::Quick).expect("a known scenario");
        let got = fnv1a_64(run.timeline_jsonl().as_bytes());
        assert_eq!(got, want, "{scenario}: timeline moved (digest {got:#018x})");
    }
}
