//! One benchmark run of one workload: the warm-up, the timed repetitions,
//! their correctness checks, and the end-to-end metrics. (The per-layer
//! metrics of a traced run are in [`crate::traced`].)

use crate::gen::input_seed;
use crate::json::Value;
use crate::manifest::{END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{self, Mode, Rep, Workload};
use std::path::Path;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value: for a timing, the fastest repetition (see [`end_to_end`]).
    pub value: f64,
    /// Spread over the run's repetitions, where there are repetitions.
    pub summary: Option<Summary>,
}

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Flows offered over the timed repetitions.
    pub attempted: u64,
    /// Flows not completed, plus every flow of a repetition that failed a
    /// check.
    pub failed: u64,
    /// Failed checks, in words.
    pub problems: Vec<String>,
    /// Things a reader should know that are not failures (a layer budget
    /// that does not add up, …).
    pub findings: Vec<String>,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// No operation failed and no check did.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Add a metric; its unit comes from the manifest, and a name the
    /// manifest does not list is a bug in the suite.
    pub fn push(&mut self, name: &str, value: f64, summary: Option<Summary>) {
        let (name, unit) = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the manifest"));
        self.metrics.push(Metric {
            name,
            unit,
            value,
            summary,
        });
    }

    /// The result line of the benchmark contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// Everything, for `suite all`'s result file.
    pub fn detail(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "problems",
                Value::Arr(self.problems.iter().map(Value::str).collect()),
            ),
            (
                "findings",
                Value::Arr(self.findings.iter().map(Value::str).collect()),
            ),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|m| {
                    let mut fields = vec![
                        ("value".to_string(), Value::Num(m.value)),
                        ("unit".to_string(), Value::str(m.unit)),
                    ];
                    if let Some(s) = m.summary {
                        for (k, v) in [
                            ("median", s.median),
                            ("min", s.min),
                            ("max", s.max),
                            ("mad", s.mad),
                            ("n", s.n as f64),
                        ] {
                            fields.push((k.to_string(), Value::Num(v)));
                        }
                    }
                    (m.name, Value::Obj(fields))
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        for m in &self.metrics {
            match m.summary {
                Some(s) => println!(
                    "{:<34} {:>16.6} {:<6} median {:.6} min {:.6} max {:.6} mad {:.6} n {}",
                    m.name, m.value, m.unit, s.median, s.min, s.max, s.mad, s.n
                ),
                None => println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit),
            }
        }
        println!(
            "{:<34} {:>16.6} ratio ({} of {} flows)",
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
        for f in &self.findings {
            println!("finding: {f}");
        }
    }
}

/// A warm-up repetition (discarded from the timings; its outputs are the
/// reference every timed repetition must reproduce) and the timed ones.
pub struct Timed {
    /// The discarded warm-up.
    pub warm: Rep,
    /// The timed repetitions.
    pub reps: Vec<Rep>,
}

/// Fewest timed repetitions of a run.
const MIN_REPS: usize = 3;

/// Warm up once, then repeat `w` until `seconds` have passed (at least
/// `min_reps` times), checking every repetition and booking its flows into
/// `result`.
///
/// Repetition `r` runs input `r` of the run's seed ([`input_seed`]); the
/// warm-up runs input 0, so repetition 0 must reproduce it bit for bit.
/// Rotating inputs matters most for memory: the high-water mark of one
/// placement of the FB_Hadoop schedule sits anywhere in a ±12 % band
/// (bucket and table capacities double at different moments), while the
/// maximum over the handful of placements a run visits is steady. The
/// campaign's inputs are fixed by `rocc-experiments`, so every one of its
/// repetitions is input 0.
pub fn timed_reps(
    w: Workload,
    seed: u64,
    seconds: f64,
    min_reps: usize,
    out_dir: &Path,
    result: &mut RunResult,
) -> Timed {
    let mut checkpoint = None;
    let first = input_seed(seed, 0);
    let warm = match w {
        Workload::CampaignFctGrid => workloads::timed_rep(w, first, out_dir, &mut Spans::off()),
        _ => workloads::sim_rep(
            w,
            first,
            1.0,
            Mode::Timed,
            w.instr(),
            &mut Spans::off(),
            &mut |leg| {
                checkpoint = leg.last_checkpoint();
            },
        ),
    };
    for p in &warm.problems {
        result.problems.push(format!("warm-up: {p}"));
    }
    if w == Workload::FtHadoopAudited {
        let want = (warm.outcome.digest, warm.outcome.events);
        let restored = checkpoint
            .ok_or_else(|| "the audited run took no checkpoint".to_string())
            .and_then(|bytes| workloads::restore_check(first, 1.0, w.instr(), &bytes, want));
        if let Err(e) = restored {
            result.problems.push(e);
        }
    }
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        let input = if w == Workload::CampaignFctGrid {
            0
        } else {
            reps.len()
        };
        let rep = workloads::timed_rep(w, input_seed(seed, input), out_dir, &mut Spans::off());
        let offered = rep.outcome.offered as u64;
        let same = input != 0
            || (rep.outcome.digest, rep.outcome.events)
                == (warm.outcome.digest, warm.outcome.events);
        if !same {
            result.problems.push(format!(
                "rep {}: digest {:x} / {} events, warm-up {:x} / {}",
                reps.len(),
                rep.outcome.digest,
                rep.outcome.events,
                warm.outcome.digest,
                warm.outcome.events
            ));
        }
        for p in &rep.problems {
            result.problems.push(format!("rep {}: {p}", reps.len()));
        }
        result.attempted += offered;
        result.failed += if rep.problems.is_empty() && same {
            offered - rep.outcome.completed as u64
        } else {
            offered
        };
        reps.push(rep);
    }
    Timed { warm, reps }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run: tracing and profiling off.
///
/// Each timing is reported as its **fastest** repetition, with median, min,
/// max, MAD and n beside it. The simulator is deterministic, so the spread
/// of its host time is the host's: on the shared 2-vCPU VM this was written
/// on, the repetitions of one 25 s `ft_hadoop_rocc` run ranged 1057–1438 ms,
/// in bursts about a repetition long, while the fastest repetitions of three
/// such runs agreed within 2 % — and over ten-run sets a median-based
/// `wall_s` moved by a third between two sets half an hour apart. Noise that
/// only ever adds time is best removed by taking the minimum.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64, out_dir: &Path) -> RunResult {
    let mut result = RunResult::default();
    let timed = timed_reps(w, seed, seconds, MIN_REPS, out_dir, &mut result);
    // Memory is read before the extra set-ups below: it is the high-water
    // mark of the repetitions a user would run.
    let rss = peak_rss_mb();
    let walls: Vec<f64> = timed.reps.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = timed
        .reps
        .iter()
        .map(|r| r.packets as f64 / r.wall_s)
        .collect();
    // Set-up is milliseconds at most (microseconds for the incast and the
    // campaign): set up again, alone, at least 31 times and then for a fifth
    // of a second more.
    let mut setups: Vec<f64> = timed.reps.iter().map(|r| r.setup_s).collect();
    let started = Instant::now();
    while setups.len() < 31 || (started.elapsed().as_secs_f64() < 0.2 && setups.len() < 1001) {
        setups.push(workloads::setup_only(w, input_seed(seed, 0), out_dir));
    }
    let (walls, rates, setups) = (
        Summary::of(&walls),
        Summary::of(&rates),
        Summary::of(&setups),
    );
    result.push("wall_s", walls.min, Some(walls));
    result.push("sim_pkts_per_s", rates.max, Some(rates));
    result.push("peak_rss_mb", rss, None);
    result.push("setup_s", setups.min, Some(setups));
    result
}
