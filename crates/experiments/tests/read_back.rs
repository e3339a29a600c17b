//! Every record the repo writes and later reads back, in one table: a
//! `RunOutput` and a `SweepCellSummary` (journal codecs), journal ok and
//! failure lines, a digest-ledger row, each `MetricRow` type, and the
//! golden document (built, and as committed). For each, reading the
//! written text and writing what was read gives the same bytes, and no
//! proper prefix of the record reads at all.

use rocc_experiments::fct::RunOutput;
use rocc_experiments::observatory::{FidelitySummary, GoldenDoc, SweepCellSummary};
use rocc_experiments::supervisor::JournalEntry;
use rocc_sim::digest::{parse_ledger_jsonl, ComponentDigests, DigestLedger, DigestLedgerEntry};
use rocc_sim::prelude::*;

/// A record: its written text, and a read that re-writes what it
/// accepted (`None` when the read refuses the text).
struct Case {
    name: &'static str,
    text: String,
    reread: fn(&str) -> Option<String>,
}

fn cases() -> Vec<Case> {
    let run_output = RunOutput {
        fcts: vec![(1_000, 1.25e-5), (u64::MAX, 0.1), (64, 3.0)],
        pfc_core: 1,
        pfc_ingress: 0,
        pfc_egress: 7,
        q_core: 0.0,
        q_ingress: 1536.5,
        q_egress: 1e-7,
        retx_bytes: 0,
        tx_data_bytes: 99,
        drops: 2,
        offered_flows: 3,
        all_completed: false,
    };
    let sweep_cell = SweepCellSummary {
        seed: 7,
        flows: 8,
        completed: 6,
        metrics_digest: "0123456789abcdef".to_string(),
        config_hash: "fedcba9876543210".to_string(),
    };
    let journal_ok = JournalEntry {
        key: "fct/RoCC/rep0 \"q\" \\ \t".to_string(),
        outcome: "ok".to_string(),
        attempts: 2,
        result_raw: Some(run_output.to_json()),
        detail_raw: None,
    };
    let drained = SimError::Drained {
        at: SimTime::from_millis(3),
        incomplete_flows: 4,
    };
    let journal_failure = JournalEntry {
        key: "observe/incast/quick/seed9/0123456789abcdef".to_string(),
        outcome: "failed_verdict".to_string(),
        attempts: 1,
        result_raw: None,
        detail_raw: Some(drained.to_json()),
    };
    let mut ledger = DigestLedger::new(1000);
    ledger.push(DigestLedgerEntry {
        events: 4000,
        t_ns: 123_456,
        digests: ComponentDigests::from_entries(vec![
            ("kernel".to_string(), 0x0123_4567_89ab_cdef),
            ("host/3".to_string(), u64::MAX),
        ]),
    });
    let t = SimTime::from_nanos(250_000);
    let cp = CpId {
        node: NodeId(4),
        port: PortId(2),
    };
    let rows = [
        MetricRow::Queue {
            t,
            node: cp.node,
            port: cp.port,
            bytes: 151_200,
        },
        MetricRow::Cp {
            t,
            cp,
            fair_rate_units: 380,
            region: 3,
            alpha: 0.3,
            beta: 1.5e-3,
        },
        MetricRow::Flow {
            t,
            flow: FlowId(11),
            rp_bps: 3_800_000_000,
            goodput_bps: 3_790_000_123,
        },
        MetricRow::Pfc { t, cum_pause_ns: 0 },
    ];
    let fidelity = FidelitySummary {
        jain: 0.984779,
        conv_time_s: None,
        queue_p99: 1539291.9,
        cum_pause_ns: 12,
        queue_buckets: Vec::new(),
    };
    let golden = GoldenDoc {
        scenario: "incast".to_string(),
        scale: "quick".to_string(),
        seed: 7,
        metrics_digest: "b5b76377d3c86a98".to_string(),
        fidelity: fidelity.to_json(),
    };
    let committed = include_str!("../../../golden/observatory.json");

    let mut cases = vec![
        Case {
            name: "RunOutput",
            text: run_output.to_json(),
            reread: |s| RunOutput::from_json(s).map(|r| r.to_json()),
        },
        Case {
            name: "SweepCellSummary",
            text: sweep_cell.to_json(),
            reread: |s| SweepCellSummary::from_json(s).map(|c| c.to_json()),
        },
        Case {
            name: "journal ok line",
            text: journal_ok.to_line(),
            reread: |s| JournalEntry::parse(s).map(|e| e.to_line()),
        },
        Case {
            name: "journal failure line",
            text: journal_failure.to_line(),
            reread: |s| JournalEntry::parse(s).map(|e| e.to_line()),
        },
        Case {
            name: "ledger row",
            text: ledger.to_jsonl(),
            reread: |s| {
                let parsed = parse_ledger_jsonl(s);
                if parsed.torn_tail || parsed.entries.is_empty() {
                    return None;
                }
                let mut ledger = DigestLedger::new(1000);
                parsed.entries.into_iter().for_each(|e| ledger.push(e));
                Some(ledger.to_jsonl())
            },
        },
        Case {
            name: "golden doc",
            text: golden.to_json(),
            reread: |s| GoldenDoc::from_json(s).map(|g| g.to_json()),
        },
        Case {
            name: "golden/observatory.json",
            text: committed.to_string(),
            reread: |s| GoldenDoc::from_json(s).map(|g| g.to_json()),
        },
    ];
    for (row, name) in rows
        .iter()
        .zip(["queue row", "cp row", "flow row", "pfc row"])
    {
        cases.push(Case {
            name,
            text: row.to_json(),
            reread: |s| MetricRow::from_json(s).map(|r| r.to_json()),
        });
    }
    cases
}

#[test]
fn every_record_rewrites_byte_identically_and_no_prefix_reads() {
    for case in cases() {
        assert_eq!(
            (case.reread)(&case.text).as_deref(),
            Some(case.text.as_str()),
            "{}: write → read → write changed the bytes",
            case.name
        );
        // A line record's newline ends it; the record is what precedes it.
        let record = case.text.trim_end_matches('\n');
        for cut in 0..record.len() {
            assert_eq!(
                (case.reread)(&record[..cut]),
                None,
                "{}: the prefix {:?} read back",
                case.name,
                &record[..cut]
            );
        }
    }
}

/// A journal the parent writer left, whose `RunOutput` floats are in
/// `{:?}` form (`1.25e-5`, `3.0`, `1e-7`), still replays: its line decodes
/// to the same field values, bit for bit, as the line written today.
#[test]
fn a_run_output_line_in_the_old_float_form_decodes_to_the_same_values() {
    let old = concat!(
        r#"{"fcts":[[1000,1.25e-5],[18446744073709551615,0.1],[64,3.0]],"pfc":[1,0,7],"#,
        r#""q":[0.0,1536.5,1e-7],"retx_bytes":0,"tx_data_bytes":99,"drops":2,"#,
        r#""offered_flows":3,"all_completed":false}"#
    );
    let value = RunOutput {
        fcts: vec![(1_000, 1.25e-5), (u64::MAX, 0.1), (64, 3.0)],
        pfc_core: 1,
        pfc_ingress: 0,
        pfc_egress: 7,
        q_core: 0.0,
        q_ingress: 1536.5,
        q_egress: 1e-7,
        retx_bytes: 0,
        tx_data_bytes: 99,
        drops: 2,
        offered_flows: 3,
        all_completed: false,
    };
    let new = value.to_json();
    assert_ne!(new, old, "the float form did change");
    let (old, new) = (RunOutput::from_json(old), RunOutput::from_json(&new));
    // `{:?}` prints each float's shortest round-trip form, so equal
    // renderings are equal bits.
    assert_eq!(format!("{old:?}"), format!("{:?}", Some(&value)));
    assert_eq!(format!("{new:?}"), format!("{:?}", Some(&value)));
}
