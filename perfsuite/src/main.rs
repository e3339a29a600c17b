//! `suite` — the repository's benchmark.
//!
//! ```text
//! suite --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//!         one run of one workload; the last line of standard output is the
//!         result object of the benchmark contract (end-to-end metrics with
//!         --trace 0, per-layer metrics with --trace 1)
//! suite all [--seed <n>] [--seconds <s>] [--out <dir>]
//!         every workload, each run in a fresh child process of this
//!         program (so peak memory is per workload), both untraced and
//!         traced; prints every metric and writes <dir>/results.json
//! suite compare <a.json> <b.json>
//!         apply each end-to-end metric's bound to two result files (b
//!         against a) and demand identical simulated statistics; exits 1
//!         on a breach
//! suite manifest
//!         print BENCHMARK.json as generated from the metric tables
//! ```

mod gen;
mod json;
mod manifest;
mod run;
mod spans;
mod stats;
mod surface;
mod traced;
mod workloads;

use json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::Workload;

/// Parsed `--flag value` options.
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 11,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => o.workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// One contract run in this process.
fn cmd_run(o: &Opts) -> Result<(), String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let w = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    surface::clear_env();
    // Before any thread exists: the campaign's pool width is part of the
    // workload's definition, not of the host.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let result = if o.trace {
        traced::per_layer(w, o.seed, o.seconds, &o.out)
    } else {
        run::end_to_end(w, o.seed, o.seconds, &o.out)
    };
    let kind = if o.trace {
        "per-layer (traced run)"
    } else {
        "end-to-end"
    };
    result.print_table(&format!("{} seed {} — {kind}", w.name(), o.seed));
    println!("detail: {}", result.detail().render());
    println!("{}", result.contract_line());
    Ok(())
}

/// Every workload, untraced then traced, each in a child process.
fn cmd_all(o: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut sections = Vec::new();
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", trace])
                .args([
                    "--seed",
                    &o.seed.to_string(),
                    "--seconds",
                    &o.seconds.to_string(),
                ])
                .arg("--out")
                .arg(&o.out)
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let detail = stdout.lines().find_map(|l| l.strip_prefix("detail: "));
            let Some(detail) = detail.filter(|_| out.status.success()) else {
                return Err(format!(
                    "{} --trace {trace} failed ({}):\n{}{}",
                    w.name(),
                    out.status,
                    stdout,
                    String::from_utf8_lossy(&out.stderr)
                ));
            };
            for line in stdout
                .lines()
                .filter(|l| !l.starts_with("detail: ") && !l.starts_with('{'))
            {
                println!("{line}");
            }
            let detail = json::parse(detail)?;
            all_correct &= detail.get("correct") == Some(&Value::Bool(true));
            sections.push(detail);
        }
        let per_layer = sections.pop().expect("traced section");
        let end_to_end = sections.pop().expect("untraced section");
        workloads.push((
            w.name(),
            Value::obj([("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    let doc = Value::obj([
        ("schema", Value::str("rocc-perfsuite/v1")),
        ("seed", Value::Num(o.seed as f64)),
        ("seconds", Value::Num(o.seconds)),
        ("workloads", Value::obj(workloads)),
    ]);
    let path = o.out.join("results.json");
    std::fs::create_dir_all(&o.out)
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `b` against `a`: every end-to-end metric within its bound, every exact
/// statistic identical. Returns whether everything held and the report.
fn compare(a: &Value, b: &Value) -> (bool, Vec<String>) {
    let mut ok = true;
    let mut report = Vec::new();
    let value = |doc: &Value, w: &str, section: &str, metric: &str| {
        let metrics = doc.get("workloads")?.get(w)?.get(section)?.get("metrics")?;
        metrics.get(metric)?.get("value")?.num()
    };
    for w in Workload::ALL.map(|w| w.name()) {
        for m in manifest::END_TO_END {
            let (Some(va), Some(vb)) = (
                value(a, w, "end_to_end", m.name),
                value(b, w, "end_to_end", m.name),
            ) else {
                report.push(format!("MISSING {w} {}", m.name));
                ok = false;
                continue;
            };
            let worse = stats::worse_by(va, vb, m.better);
            let verdict = if worse > m.bound { "BREACH" } else { "ok" };
            ok &= worse <= m.bound;
            report.push(format!(
                "{verdict:<7} {w:<22} {:<16} {va:>14.6} -> {vb:>14.6} {:<6} {:+.2} % worse (bound {:.0} %)",
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0
            ));
        }
        let exact = manifest::PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("sim.") || m.name == "engine.events");
        for m in exact {
            let (va, vb) = (
                value(a, w, "per_layer", m.name),
                value(b, w, "per_layer", m.name),
            );
            if va != vb || va.is_none() {
                report.push(format!(
                    "DIFFERS {w:<22} {:<20} {va:?} -> {vb:?} (must be identical)",
                    m.name
                ));
                ok = false;
            }
        }
    }
    (ok, report)
}

fn cmd_compare(a: &str, b: &str) -> Result<bool, String> {
    let (ok, report) = compare(&load(a)?, &load(b)?);
    for line in report {
        println!("{line}");
    }
    if ok {
        println!("compare: within every bound, simulated statistics identical");
    } else {
        println!("compare: FAILED");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => parse_opts(&args[1..]).and_then(|o| cmd_all(&o)),
        Some("compare") if args.len() == 3 => cmd_compare(&args[1], &args[2]),
        Some("manifest") => {
            print!("{}", manifest::benchmark_json().pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => parse_opts(&args).and_then(|o| cmd_run(&o).map(|()| true)),
        _ => Err("usage: suite --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] | all [--seed <n>] [--seconds <s>] [--out <dir>] | compare <a.json> <b.json> | manifest".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A results document in which every metric of every workload is
    /// `value`, except `wall_s` and `sim.flows`.
    fn results(wall_s: f64, sim_flows: f64) -> Value {
        let section = |names: Vec<&'static str>| {
            let metrics = names.into_iter().map(|n| {
                let v = match n {
                    "wall_s" => wall_s,
                    "sim.flows" => sim_flows,
                    _ => 100.0,
                };
                (n, Value::obj([("value", Value::Num(v))]))
            });
            Value::obj([("metrics", Value::obj(metrics))])
        };
        let workloads = Workload::ALL.map(|w| {
            let e2e = section(manifest::END_TO_END.iter().map(|m| m.name).collect());
            let layers = section(manifest::PER_LAYER.iter().map(|m| m.name).collect());
            (
                w.name(),
                Value::obj([("end_to_end", e2e), ("per_layer", layers)]),
            )
        });
        Value::obj([("workloads", Value::obj(workloads))])
    }

    #[test]
    fn compare_applies_each_bound_and_demands_identical_sim_statistics() {
        let base = results(1.0, 12.0);
        assert!(compare(&base, &base).0);
        // wall_s may worsen by its bound, not by more; getting faster is fine.
        assert!(compare(&base, &results(1.19, 12.0)).0);
        assert!(compare(&base, &results(0.5, 12.0)).0);
        let (ok, report) = compare(&base, &results(1.21, 12.0));
        assert!(!ok);
        assert_eq!(report.iter().filter(|l| l.starts_with("BREACH")).count(), 6);
        // A simulated statistic that moved is a behaviour change.
        let (ok, report) = compare(&base, &results(1.0, 13.0));
        assert!(!ok && report.iter().any(|l| l.starts_with("DIFFERS")));
        // A missing workload or metric is not a pass.
        assert!(!compare(&base, &Value::obj([("workloads", Value::obj::<&str>([]))])).0);
    }

    #[test]
    fn options_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_opts(&args(
            "--workload incast_rocc --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("incast_rocc"), 7, 2.5, true)
        );
        for bad in [
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds",
            "--what 1",
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad}");
        }
    }
}
