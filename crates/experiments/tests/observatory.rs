//! End-to-end shape of the run observatory: `observe` produces a
//! Perfetto-loadable trace, a metrics JSONL, and a manifest whose digests
//! match the artifacts; two seeds of the same config pass the cross-run
//! fidelity gate; and runs are reproducible digest-for-digest.

use rocc_experiments::observatory::{
    compare, digest, golden_json, incast, load_summary, observe, summarize_metrics, GOLDEN_SEED,
};
use rocc_experiments::Scale;
use rocc_sim::prelude::{MetricRow, NodeId, PortId, SimTime};

fn tmp_dir(name: &str) -> String {
    let d = std::env::temp_dir().join(format!("rocc_obs_{name}_{}", std::process::id()));
    d.to_str().unwrap().to_string()
}

#[test]
fn observe_produces_all_three_artifacts() {
    let run = observe("incast", Scale::Quick, GOLDEN_SEED).expect("incast is a known scenario");
    assert!(observe("nope", Scale::Quick, 1).is_none());
    assert_eq!(run.completed, run.flows, "quick incast must finish");

    // Metrics JSONL covers all four row types.
    for ty in ["queue", "cp", "flow", "pfc"] {
        assert!(
            run.metrics_jsonl.contains(&format!("\"type\":\"{ty}\"")),
            "metrics missing {ty} rows"
        );
    }

    // Perfetto export is a chrome trace with flow tracks and counters.
    assert!(run.perfetto_json.starts_with("{\"displayTimeUnit\":\"ns\""));
    assert!(run.perfetto_json.ends_with("]}"));
    assert!(run.perfetto_json.contains("\"process_name\""));
    assert!(run.perfetto_json.contains("flow 0"));

    // Manifest digests match the artifacts they describe.
    let manifest = run.manifest_json();
    assert!(manifest.contains("\"schema\":\"rocc-run-manifest/v1\""));
    assert!(manifest.contains(&format!("\"seed\":{GOLDEN_SEED}")));
    assert!(manifest.contains(&format!(
        "\"metrics_digest\":\"{}\"",
        digest(&run.metrics_jsonl)
    )));
    assert!(manifest.contains(&format!(
        "\"perfetto_digest\":\"{}\"",
        digest(&run.perfetto_json)
    )));

    // write_artifacts creates the directory chain and all three files.
    let dir = tmp_dir("artifacts");
    let nested = format!("{dir}/a/b");
    let paths = run.write_artifacts(&nested).expect("write artifacts");
    assert_eq!(paths.len(), 3);
    for p in &paths {
        let meta = std::fs::metadata(p).expect("artifact exists");
        assert!(meta.len() > 0, "{p} is empty");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_seeds_of_the_same_config_pass_the_fidelity_gate() {
    let a = incast(Scale::Quick, 7);
    let b = incast(Scale::Quick, 8);
    // Different seeds genuinely produce different runs...
    assert_ne!(
        digest(&a.metrics_jsonl),
        digest(&b.metrics_jsonl),
        "seeds 7 and 8 produced identical time series"
    );
    // ...but the same config shares one config hash,
    assert_eq!(a.config_debug, b.config_debug);
    // and their fidelity metrics agree within the gate's thresholds.
    let report = compare(
        &summarize_metrics(&a.metrics_jsonl),
        &summarize_metrics(&b.metrics_jsonl),
    );
    assert!(report.pass(), "fidelity gate failed:\n{}", report.render());
}

#[test]
fn observed_runs_are_reproducible() {
    let a = incast(Scale::Quick, GOLDEN_SEED);
    let b = incast(Scale::Quick, GOLDEN_SEED);
    assert_eq!(digest(&a.metrics_jsonl), digest(&b.metrics_jsonl));
    assert_eq!(digest(&a.perfetto_json), digest(&b.perfetto_json));
    // The golden document is a pure function of the run.
    let g = golden_json(&a);
    assert_eq!(g, golden_json(&b));
    assert!(g.contains("\"schema\":\"rocc-observatory-golden/v1\""));
    assert!(g.contains("\"metrics_digest\""));
}

/// `load_summary` refuses what it cannot read, naming the file and line:
/// a file that is not JSON, a run whose last row was cut off mid-object,
/// a torn row spliced onto the next, two rows on one line, and a float in
/// an integer field. The same rows whole load.
#[test]
fn load_summary_refuses_unreadable_rows() {
    let dir = tmp_dir("load_summary");
    std::fs::create_dir_all(&dir).unwrap();
    let queue = |ns, bytes| MetricRow::Queue {
        t: SimTime::from_nanos(ns),
        node: NodeId(1),
        port: PortId(2),
        bytes,
    };
    let rows = format!(
        "{}\n{}\n",
        queue(1000, 1500).to_json(),
        queue(2000, 3000).to_json()
    );
    let write = |name: &str, doc: &str| {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, doc).unwrap();
        path
    };

    let whole = load_summary(&write("whole.jsonl", &rows)).expect("whole rows load");
    assert_eq!(whole, summarize_metrics(&rows));
    assert_eq!(whole.queue_buckets.iter().map(|&(_, c)| c).sum::<u64>(), 2);

    let torn = write("torn.jsonl", &rows[..rows.len() - 4]);
    let err = load_summary(&torn).expect_err("a torn row is refused");
    assert!(err.starts_with(&format!("{torn}:2:")), "{err}");

    let garbage = write("garbage.jsonl", "not json at all\n");
    let err = load_summary(&garbage).expect_err("a non-JSON file is refused");
    assert!(err.starts_with(&format!("{garbage}:1:")), "{err}");

    // A row torn mid-object with the next row written onto its tail, two
    // rows on one line, and a float in an integer field: each still
    // carries every member name a row needs, and each is refused.
    let (first, second) = rows.split_once('\n').unwrap();
    let spliced = format!("{first}\n{}{second}", &first[..first.len() / 2]);
    let doubled = format!("{first}\n{first}{second}");
    let pfc = MetricRow::Pfc {
        t: SimTime::from_nanos(3000),
        cum_pause_ns: 12,
    };
    let float = format!("{rows}{}\n", pfc.to_json().replace(":12}", ":12.5e9}"));
    for (name, doc, line) in [
        ("spliced.jsonl", spliced, 2),
        ("doubled.jsonl", doubled, 2),
        ("float.jsonl", float, 3),
    ] {
        let path = write(name, &doc);
        let err = load_summary(&path).expect_err(name);
        assert!(err.starts_with(&format!("{path}:{line}:")), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
