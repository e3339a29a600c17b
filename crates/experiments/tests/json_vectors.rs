//! The exact text of every JSON record with a public writer, pinned: one
//! hand-built value per variant of each (every `SimEvent` kind, every
//! `SimError` / `RunVerdict` variant, every `MetricRow` type), a ledger
//! row, a sweep cell, a `SchemeFcts` row, journal ok and failure lines, a
//! campaign report with one failure of each class and its quarantine,
//! fidelity summaries and a compare report, the golden document, the
//! metrics registry and histograms. Strings that need escapes are among
//! the values. A change to any writer that moves one byte fails here.

use rocc_experiments::fct::{FctBinStat, RunOutput, SchemeFcts};
use rocc_experiments::observatory::{compare, FidelitySummary, GoldenDoc, SweepCellSummary};
use rocc_experiments::schemes::Scheme;
use rocc_experiments::supervisor::{CampaignReport, CellOutcome, FailureEntry, JournalEntry};
use rocc_sim::prelude::*;
use rocc_stats::MeanCi;

/// Assert each `(name, written, pinned)` row, reporting every mismatch.
fn check(rows: &[(&str, String, &str)]) {
    let bad: Vec<String> = rows
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}:\n  got  {got}\n  want {want}"))
        .collect();
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

fn cp(node: usize, port: usize) -> CpId {
    CpId {
        node: NodeId(node),
        port: PortId(port),
    }
}

#[test]
fn sim_events_are_pinned() {
    let t = SimTime::from_nanos(1_500);
    let events = [
        SimEvent::Drop {
            t,
            node: NodeId(3),
            flow: FlowId(9),
            cause: DropCause::FaultCorrupt,
        },
        SimEvent::Pfc {
            t,
            node: NodeId(3),
            port: PortId(1),
            pause: true,
        },
        SimEvent::Pfc {
            t,
            node: NodeId(3),
            port: PortId(1),
            pause: false,
        },
        SimEvent::CnpEmit {
            t,
            cp: cp(4, 2),
            flow: FlowId(9),
            fair_rate_units: 77,
        },
        SimEvent::CpDecision {
            t,
            cp: cp(4, 2),
            kind: CpDecisionKind::Pi,
            fair_rate_units: 380,
            alpha: 0.3,
            beta: 1.5e-3,
            region: 2,
            qlen_bytes: 151_200,
        },
        SimEvent::RpTransition {
            t,
            node: NodeId(1),
            flow: FlowId(9),
            kind: RpTransitionKind::CpSwitch,
            rate_bps: 4_000_000_000,
            cp: Some(cp(4, 2)),
        },
        SimEvent::RpTransition {
            t,
            node: NodeId(1),
            flow: FlowId(9),
            kind: RpTransitionKind::Uninstall,
            rate_bps: 0,
            cp: None,
        },
        SimEvent::Fault {
            t,
            fault: FaultEvent::LinkDown(LinkId(5)),
        },
        SimEvent::Fault {
            t,
            fault: FaultEvent::LinkUp(LinkId(5)),
        },
        SimEvent::Fault {
            t,
            fault: FaultEvent::HostPause(NodeId(6)),
        },
        SimEvent::Fault {
            t,
            fault: FaultEvent::HostCrash(NodeId(6)),
        },
        SimEvent::Fault {
            t,
            fault: FaultEvent::HostRestore(NodeId(6)),
        },
        SimEvent::PauseEdge {
            t,
            from: cp(4, 2),
            to: cp(5, 0),
        },
        SimEvent::Verdict {
            t,
            kind: VerdictKind::PfcDeadlock,
            cycle_len: 3,
        },
    ];
    let pinned = [
        r#"{"t_ns":1500,"type":"drop","node":3,"flow":9,"cause":"fault_corrupt"}"#,
        r#"{"t_ns":1500,"type":"pfc","node":3,"port":1,"action":"pause"}"#,
        r#"{"t_ns":1500,"type":"pfc","node":3,"port":1,"action":"resume"}"#,
        r#"{"t_ns":1500,"type":"cnp","node":4,"port":2,"flow":9,"fair_rate_units":77}"#,
        r#"{"t_ns":1500,"type":"cp_decision","node":4,"port":2,"kind":"pi","fair_rate_units":380,"alpha":0.3,"beta":0.0015,"region":2,"qlen_bytes":151200}"#,
        r#"{"t_ns":1500,"type":"rp_transition","node":1,"flow":9,"kind":"cp_switch","rate_bps":4000000000,"cp":{"node":4,"port":2}}"#,
        r#"{"t_ns":1500,"type":"rp_transition","node":1,"flow":9,"kind":"uninstall","rate_bps":0,"cp":null}"#,
        r#"{"t_ns":1500,"type":"fault","kind":"link_down","target":5}"#,
        r#"{"t_ns":1500,"type":"fault","kind":"link_up","target":5}"#,
        r#"{"t_ns":1500,"type":"fault","kind":"host_pause","target":6}"#,
        r#"{"t_ns":1500,"type":"fault","kind":"host_crash","target":6}"#,
        r#"{"t_ns":1500,"type":"fault","kind":"host_restore","target":6}"#,
        r#"{"t_ns":1500,"type":"pause_edge","from":{"node":4,"port":2},"to":{"node":5,"port":0}}"#,
        r#"{"t_ns":1500,"type":"verdict","kind":"pfc_deadlock","cycle_len":3}"#,
    ];
    let rows: Vec<_> = events
        .iter()
        .zip(pinned)
        .map(|(e, want)| ("SimEvent", e.to_json(), want))
        .collect();
    assert_eq!(rows.len(), events.len());
    check(&rows);
}

fn errors() -> Vec<SimError> {
    let at = SimTime::from_millis(2);
    vec![
        SimError::PfcDeadlock {
            detected_at: at,
            cycle: vec![
                PauseCycleNode {
                    node: NodeId(4),
                    port: PortId(2),
                    qlen_bytes: 300_000,
                    ingress_buffered: 12,
                },
                PauseCycleNode {
                    node: NodeId(5),
                    port: PortId(0),
                    qlen_bytes: 0,
                    ingress_buffered: 1,
                },
            ],
            victims: vec![FlowId(2), FlowId(7)],
        },
        SimError::DeadlineExceeded {
            at,
            incomplete_flows: 3,
            paused_ports: 1,
        },
        SimError::Drained {
            at,
            incomplete_flows: 4,
        },
        SimError::InvariantViolation {
            at,
            violations: vec![
                "bytes \"lost\" at switch\\4".to_string(),
                "tab\there\nline\u{1}".to_string(),
            ],
        },
        SimError::BudgetExhausted {
            at,
            events: 5_000_000,
            limit: 5_000_000,
            incomplete_flows: 2,
        },
        SimError::Stalled {
            at,
            events_at_instant: 100,
            incomplete_flows: 1,
        },
        SimError::WallClockExceeded {
            at,
            wall_ms: 61_000,
            limit_ms: 60_000,
            incomplete_flows: 8,
        },
    ]
}

#[test]
fn verdicts_are_pinned() {
    let pinned = [
        r#"{"verdict":"pfc_deadlock","t_ns":2000000,"cycle":[{"node":4,"port":2,"qlen_bytes":300000,"ingress_buffered":12},{"node":5,"port":0,"qlen_bytes":0,"ingress_buffered":1}],"victims":[2,7]}"#,
        r#"{"verdict":"deadline_exceeded","t_ns":2000000,"incomplete_flows":3,"paused_ports":1}"#,
        r#"{"verdict":"drained","t_ns":2000000,"incomplete_flows":4}"#,
        r#"{"verdict":"invariant_violation","t_ns":2000000,"violations":["bytes \"lost\" at switch\\4","tab\there\nline\u0001"]}"#,
        r#"{"verdict":"budget_exhausted","t_ns":2000000,"events":5000000,"limit":5000000,"incomplete_flows":2}"#,
        r#"{"verdict":"stalled","t_ns":2000000,"events_at_instant":100,"incomplete_flows":1}"#,
        r#"{"verdict":"wall_clock_exceeded","t_ns":2000000,"wall_ms":61000,"limit_ms":60000,"incomplete_flows":8}"#,
    ];
    let errors = errors();
    assert_eq!(errors.len(), pinned.len());
    let mut rows: Vec<_> = errors
        .iter()
        .zip(pinned)
        .map(|(e, want)| ("SimError", e.to_json(), want))
        .collect();
    rows.push((
        "RunVerdict::Completed",
        RunVerdict::Completed { flows: 12 }.to_json(),
        r#"{"verdict":"completed","flows":12}"#,
    ));
    rows.push((
        "RunVerdict::Failed",
        RunVerdict::Failed(errors[2].clone()).to_json(),
        pinned[2],
    ));
    check(&rows);
}

#[test]
fn metric_rows_and_ledger_rows_are_pinned() {
    let t = SimTime::from_nanos(250_000);
    let rows = [
        MetricRow::Queue {
            t,
            node: NodeId(4),
            port: PortId(2),
            bytes: 151_200,
        },
        MetricRow::Cp {
            t,
            cp: cp(4, 2),
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
    let pinned = [
        r#"{"t_ns":250000,"type":"queue","node":4,"port":2,"bytes":151200}"#,
        r#"{"t_ns":250000,"type":"cp","node":4,"port":2,"fair_rate_units":380,"region":3,"alpha":0.3,"beta":0.0015}"#,
        r#"{"t_ns":250000,"type":"flow","flow":11,"rp_bps":3800000000,"goodput_bps":3790000123}"#,
        r#"{"t_ns":250000,"type":"pfc","cum_pause_ns":0}"#,
    ];
    let mut out: Vec<_> = rows
        .iter()
        .zip(pinned)
        .map(|(r, want)| ("MetricRow", r.to_json(), want))
        .collect();
    let mut ledger = DigestLedger::new(1000);
    ledger.push(DigestLedgerEntry {
        events: 4000,
        t_ns: 123_456,
        digests: ComponentDigests::from_entries(vec![
            ("kernel".to_string(), 0x0123_4567_89ab_cdef),
            ("host/\"3\"\\".to_string(), u64::MAX),
        ]),
    });
    out.push((
        "ledger row",
        ledger.to_jsonl(),
        "{\"schema\":\"rocc-digest-ledger/v1\",\"event\":4000,\"t_ns\":123456,\"digests\":{\"kernel\":\"0123456789abcdef\",\"host/\\\"3\\\"\\\\\":\"ffffffffffffffff\"}}\n",
    ));
    check(&out);
}

#[test]
fn campaign_records_are_pinned() {
    let sweep_cell = SweepCellSummary {
        seed: 7,
        flows: 8,
        completed: 6,
        metrics_digest: "0123456789abcdef".to_string(),
        config_hash: "fedcba9876543210".to_string(),
    };
    let ci = |mean, ci95| MeanCi { mean, ci95, n: 2 };
    let scheme = SchemeFcts {
        scheme: Scheme::DcqcnPi,
        bins: vec![
            FctBinStat {
                bin: 10_000,
                avg: ci(1.25e-5, 0.0),
                p90: ci(3.0, 0.5),
                p99: ci(1e-7, 2.5e-8),
                count: 41,
            },
            FctBinStat {
                bin: 1_000_000,
                avg: ci(0.001, 0.0001),
                p90: ci(0.002, 0.0),
                p99: ci(0.004, 0.0),
                count: 2,
            },
        ],
        flow_rates: vec![3.8e9, 0.5, 1e-7],
        pfc: [1.5, 0.0, 12.0],
        queues: [150_000.25, 0.0, 1536.5],
        retx_fraction: 0.0125,
        drops: 3,
        all_completed: true,
    };
    let drained = SimError::Drained {
        at: SimTime::from_millis(3),
        incomplete_flows: 4,
    };
    let journal_ok = JournalEntry {
        key: "fct/RoCC/rep0 \"q\" \\ \t".to_string(),
        outcome: "ok".to_string(),
        attempts: 2,
        result_raw: Some(sweep_cell.to_json()),
        detail_raw: None,
    };
    let journal_failure = JournalEntry {
        key: "observe/incast/quick/seed9/0123456789abcdef".to_string(),
        outcome: "failed_verdict".to_string(),
        attempts: 1,
        result_raw: None,
        detail_raw: Some(drained.to_json()),
    };
    let budget = SimError::Stalled {
        at: SimTime::from_millis(1),
        events_at_instant: 100,
        incomplete_flows: 1,
    };
    let outcomes: [(&str, CellOutcome<u64>); 4] = [
        (
            "cell/\"panicked\"",
            CellOutcome::Panicked {
                message: "boom \"x\"\n\\".to_string(),
            },
        ),
        (
            "cell/verdict",
            CellOutcome::FailedVerdict { error: drained },
        ),
        (
            "cell/budget",
            CellOutcome::BudgetExhausted { error: budget },
        ),
        ("cell/skipped", CellOutcome::Skipped),
    ];
    let failures = outcomes
        .iter()
        .map(|(key, o)| FailureEntry {
            key: key.to_string(),
            class: o.class(),
            attempts: 3,
            detail_json: o.detail_json().expect("a failure has a detail"),
        })
        .collect();
    let report = CampaignReport {
        total: 6,
        ok: 2,
        cached: 1,
        panicked: 1,
        failed_verdict: 1,
        budget_exhausted: 1,
        skipped: 1,
        failures,
    };
    let empty = CampaignReport::default();
    check(&[
        (
            "SweepCellSummary",
            sweep_cell.to_json(),
            r#"{"seed":7,"flows":8,"completed":6,"metrics_digest":"0123456789abcdef","config_hash":"fedcba9876543210"}"#,
        ),
        (
            "SchemeFcts",
            scheme.to_json(),
            r#"{"scheme":"DCQCN+PI","bins":[{"bin":10000,"avg":0.0000125,"avg_ci":0,"p90":3,"p90_ci":0.5,"p99":0.0000001,"p99_ci":0.000000025,"count":41},{"bin":1000000,"avg":0.001,"avg_ci":0.0001,"p90":0.002,"p90_ci":0,"p99":0.004,"p99_ci":0,"count":2}],"flow_rates":[3800000000,0.5,0.0000001],"pfc":[1.5,0,12],"queues":[150000.25,0,1536.5],"retx_fraction":0.0125,"drops":3,"all_completed":true}"#,
        ),
        (
            "journal ok line",
            journal_ok.to_line(),
            "{\"key\":\"fct/RoCC/rep0 \\\"q\\\" \\\\ \\t\",\"outcome\":\"ok\",\"attempts\":2,\"result\":{\"seed\":7,\"flows\":8,\"completed\":6,\"metrics_digest\":\"0123456789abcdef\",\"config_hash\":\"fedcba9876543210\"}}\n",
        ),
        (
            "journal failure line",
            journal_failure.to_line(),
            "{\"key\":\"observe/incast/quick/seed9/0123456789abcdef\",\"outcome\":\"failed_verdict\",\"attempts\":1,\"detail\":{\"verdict\":\"drained\",\"t_ns\":3000000,\"incomplete_flows\":4}}\n",
        ),
        (
            "CampaignReport",
            report.to_json(),
            r#"{"schema":"rocc-campaign-report/v1","total":6,"ok":2,"cached":1,"panicked":1,"failed_verdict":1,"budget_exhausted":1,"skipped":1,"failures":[{"key":"cell/\"panicked\"","class":"panicked","attempts":3,"detail":"boom \"x\"\n\\"},{"key":"cell/verdict","class":"failed_verdict","attempts":3,"detail":{"verdict":"drained","t_ns":3000000,"incomplete_flows":4}},{"key":"cell/budget","class":"budget_exhausted","attempts":3,"detail":{"verdict":"stalled","t_ns":1000000,"events_at_instant":100,"incomplete_flows":1}},{"key":"cell/skipped","class":"skipped","attempts":3,"detail":"skipped by fail-fast"}]}"#,
        ),
        (
            "quarantine",
            report.quarantine_json(),
            r#"[{"key":"cell/\"panicked\"","class":"panicked","attempts":3,"detail":"boom \"x\"\n\\"},{"key":"cell/verdict","class":"failed_verdict","attempts":3,"detail":{"verdict":"drained","t_ns":3000000,"incomplete_flows":4}},{"key":"cell/budget","class":"budget_exhausted","attempts":3,"detail":{"verdict":"stalled","t_ns":1000000,"events_at_instant":100,"incomplete_flows":1}}]"#,
        ),
        (
            "empty CampaignReport",
            empty.to_json(),
            r#"{"schema":"rocc-campaign-report/v1","total":0,"ok":0,"cached":0,"panicked":0,"failed_verdict":0,"budget_exhausted":0,"skipped":0,"failures":[]}"#,
        ),
        ("empty quarantine", empty.quarantine_json(), "[]"),
    ]);
}

#[test]
fn fidelity_and_golden_documents_are_pinned() {
    let settled = FidelitySummary {
        jain: 0.98477912,
        conv_time_s: Some(0.00123456),
        queue_p99: 1539291.94,
        cum_pause_ns: 12,
        queue_buckets: vec![(100, 3), (4096, 1)],
    };
    let unsettled = FidelitySummary {
        jain: 1.0,
        conv_time_s: None,
        queue_p99: 0.0,
        cum_pause_ns: 0,
        queue_buckets: vec![(100, 1)],
    };
    let report = compare(&settled, &unsettled);
    let golden = GoldenDoc {
        scenario: "in\"cast\\".to_string(),
        scale: "quick".to_string(),
        seed: 7,
        metrics_digest: "b5b76377d3c86a98".to_string(),
        fidelity: settled.to_json(),
    };
    check(&[
        (
            "FidelitySummary settled",
            settled.to_json(),
            r#"{"jain":0.984779,"conv_time_us":1234.6,"queue_p99_bytes":1539291.9,"cum_pause_ns":12}"#,
        ),
        (
            "FidelitySummary unsettled",
            unsettled.to_json(),
            r#"{"jain":1.000000,"conv_time_us":null,"queue_p99_bytes":0.0,"cum_pause_ns":0}"#,
        ),
        (
            "CompareReport",
            report.to_json(),
            r#"{"pass":false,"checks":[{"name":"jain_fairness","a":0.984779,"b":1.000000,"delta":0.015221,"limit":0.050000,"pass":true},{"name":"conv_time","a":0.001235,"b":-1.000000,"delta":null,"limit":0.750000,"pass":false},{"name":"queue_p99","a":1539291.940000,"b":0.000000,"delta":1539291.940000,"limit":1.500000,"pass":false},{"name":"queue_hist_tv","a":4.000000,"b":1.000000,"delta":0.250000,"limit":0.350000,"pass":true}]}"#,
        ),
        (
            "GoldenDoc",
            golden.to_json(),
            "{\"schema\":\"rocc-observatory-golden/v1\",\"scenario\":\"in\\\"cast\\\\\",\"scale\":\"quick\",\"seed\":7,\"metrics_digest\":\"b5b76377d3c86a98\",\"fidelity\":{\"jain\":0.984779,\"conv_time_us\":1234.6,\"queue_p99_bytes\":1539291.9,\"cum_pause_ns\":12}}\n",
        ),
    ]);
}

#[test]
fn histograms_and_the_metrics_registry_are_pinned() {
    let empty = Histogram::new();
    let mut filled = Histogram::new();
    for v in [3, 3, 40, 1_000, 123_456] {
        filled.record(v);
    }
    let mut t = Trace::new();
    t.telemetry.enable_metrics();
    let at = SimTime::from_nanos(10);
    t.publish_event(SimEvent::Drop {
        t: at,
        node: NodeId(2),
        flow: FlowId(5),
        cause: DropCause::Congestion,
    });
    t.publish_event(SimEvent::CnpEmit {
        t: at,
        cp: cp(2, 1),
        flow: FlowId(5),
        fair_rate_units: 10,
    });
    let (flow, start) = (FlowId(5), SimTime::ZERO);
    let end = SimTime::from_nanos(20_000);
    t.note_fct(FctRecord { flow, size: 1, start, end });
    t.watch_queue(NodeId(2), PortId(1));
    t.record_queue_sample(0, at, 4_096);
    check(&[
        (
            "empty Histogram",
            empty.to_json("ns"),
            r#"{"unit":"ns","count":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"buckets":[]}"#,
        ),
        (
            "filled Histogram",
            filled.to_json("bytes"),
            r#"{"unit":"bytes","count":5,"min":3,"max":123456,"mean":24900.4,"p50":40,"p90":122880,"p99":122880,"buckets":[[3,2],[40,1],[992,1],[122880,1]]}"#,
        ),
        (
            "metrics registry",
            t.metrics_json(),
            r#"{"counters":[{"name":"cnp.emit","labels":{"node":2,"port":1},"value":1},{"name":"drop.congestion","labels":{"node":2,"flow":5},"value":1}],"histograms":{"fct":{"unit":"ns","count":1,"min":20000,"max":20000,"mean":20000,"p50":20000,"p90":20000,"p99":20000,"buckets":[[19968,1]]},"queue_depth":{"unit":"bytes","count":1,"min":4096,"max":4096,"mean":4096,"p50":4096,"p90":4096,"p99":4096,"buckets":[[4096,1]]},"cnp_interarrival":{"unit":"ns","count":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"buckets":[]}}}"#,
        ),
    ]);
}

/// The two records whose text changed on purpose, in their new form:
/// `RunOutput` floats in the shortest round-trip form `Display` writes
/// (`{:?}` wrote `1.25e-5`, `3.0`, `1e-7`), and the divergence report as
/// one compact object.
#[test]
fn run_output_and_divergence_report_are_pinned() {
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
    let report = DivergenceReport {
        first_divergent_event: 40_000,
        t_ns_a: 1_682_518,
        t_ns_b: 1_682_519,
        component: "host/2".to_string(),
        digest_a: "410268399fb2385a".to_string(),
        digest_b: "d0c6373d5206301a".to_string(),
        differing_components: vec!["host/2".to_string(), "sched".to_string()],
        event_a: Some("[at 1682518 ns] Arrive { \"x\\\" }".to_string()),
        event_b: None,
        word_diff: vec![
            WordDiff {
                index: 18,
                a: 0xaba9500000,
                b: 0xeba9500000,
            },
            WordDiff {
                index: 19,
                a: u64::MAX,
                b: 0,
            },
        ],
        words_a: 30,
        words_b: 31,
        probes: 11,
        events_scanned: 40_960,
    };
    check(&[
        (
            "RunOutput",
            run_output.to_json(),
            r#"{"fcts":[[1000,0.0000125],[18446744073709551615,0.1],[64,3]],"pfc":[1,0,7],"q":[0,1536.5,0.0000001],"retx_bytes":0,"tx_data_bytes":99,"drops":2,"offered_flows":3,"all_completed":false}"#,
        ),
        (
            "DivergenceReport",
            report.to_json(),
            concat!(
                r#"{"schema":"rocc-divergence-report/v1","first_divergent_event":40000,"t_ns_a":1682518,"t_ns_b":1682519,"component":"host/2","digest_a":"410268399fb2385a","digest_b":"d0c6373d5206301a","differing_components":["host/2","sched"],"event_a":"[at 1682518 ns] Arrive { \"x\\\" }","event_b":null,"words_a":30,"words_b":31,"word_diff":[{"word":18,"a":"000000aba9500000","b":"000000eba9500000"},{"word":19,"a":"ffffffffffffffff","b":"0000000000000000"}],"probes":11,"events_scanned":40960}"#,
                "\n"
            ),
        ),
    ]);
}

/// The verdict list that writes each `SimError` variant reads it back.
#[test]
fn verdicts_read_back_as_written() {
    for e in errors() {
        let text = e.to_json();
        let back: Option<SimError> = rocc_stats::json::from_str(&text);
        assert_eq!(back.as_ref(), Some(&e), "{text}");
    }
}
