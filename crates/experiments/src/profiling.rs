//! `repro profile`: the engine performance observatory over a scenario.
//!
//! Runs one scenario with the phase profiler live and produces two
//! artifacts:
//!
//! 1. `profile_<scenario>.json` — the `rocc-perf-profile/v1` document:
//!    per-phase wall-time shares and exact event counts, scheduler
//!    introspection (push/pop totals, heap-depth time series,
//!    same-timestamp burst histogram, event-type dispatch mix), and
//!    slab/fastmap load;
//! 2. `profile_<scenario>_perfetto.json` — the Chrome-trace export of the
//!    same run, which with the profiler on additionally carries the
//!    engine-internals counter tracks (heap depth, live slab packets).
//!
//! The scenario deliberately runs with full telemetry and the observatory
//! sampler enabled: the point of phase attribution is to see what the
//! instrumentation itself costs next to switch/host/CP work, so the
//! profiled configuration is the *most* observed one, not the leanest.

use crate::observatory;
use crate::Scale;
use rocc_sim::prelude::*;

/// Scenario names accepted by [`profile`].
pub const SCENARIOS: [&str; 1] = ["incast"];

/// Everything one profiled run produced.
#[derive(Debug)]
pub struct ProfileRun {
    /// Scenario name (an entry of [`SCENARIOS`]).
    pub scenario: &'static str,
    /// Simulation seed.
    pub seed: u64,
    /// Run scale.
    pub scale: Scale,
    /// Flows offered.
    pub flows: usize,
    /// Flows that completed within the horizon.
    pub completed: usize,
    /// Events processed.
    pub events: u64,
    /// Wall-clock seconds spent running.
    pub wall_seconds: f64,
    /// Per-phase `(name, wall-time share, exact event count)` rows.
    pub shares: Vec<(&'static str, f64, u64)>,
    /// The `rocc-perf-profile/v1` document.
    pub profile_json: String,
    /// Chrome-trace export with engine-internals counter tracks.
    pub perfetto_json: String,
    /// The run's typed verdict.
    pub verdict: RunVerdict,
}

impl ProfileRun {
    /// Sum of the per-phase wall-time shares. By construction the sampled
    /// shares are normalized against the total measured wall, so this is
    /// 1.0 up to floating-point noise — the acceptance gate checks it
    /// stays within 5%.
    pub fn share_sum(&self) -> f64 {
        self.shares.iter().map(|(_, s, _)| s).sum()
    }

    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Render the per-phase breakdown as an aligned text table, largest
    /// share first (the EXPERIMENTS.md "profiling" table is this output).
    pub fn render_table(&self) -> String {
        let mut rows = self.shares.clone();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut out = format!(
            "{:<16} {:>8} {:>12} {:>12}\n",
            "phase", "share", "wall_ms", "count"
        );
        for (name, share, count) in rows {
            out.push_str(&format!(
                "{name:<16} {:>7.2}% {:>12.3} {count:>12}\n",
                100.0 * share,
                share * self.wall_seconds * 1e3,
            ));
        }
        out
    }

    /// Write the two artifacts into `dir` (created if missing). Returns
    /// the paths written.
    pub fn write_artifacts(&self, dir: &str) -> Result<Vec<String>, ArtifactError> {
        let paths = [
            (
                format!("{dir}/profile_{}.json", self.scenario),
                &self.profile_json,
            ),
            (
                format!("{dir}/profile_{}_perfetto.json", self.scenario),
                &self.perfetto_json,
            ),
        ];
        let mut written = Vec::new();
        for (path, contents) in &paths {
            write_artifact(path, contents)?;
            written.push(path.clone());
        }
        Ok(written)
    }
}

/// Run one named scenario under the phase profiler. `None` for an unknown
/// scenario name.
pub fn profile(scenario: &str, scale: Scale, seed: u64) -> Option<ProfileRun> {
    match scenario {
        "incast" => Some(incast(scale, seed)),
        _ => None,
    }
}

/// N-to-1 RoCC incast on the 40G dumbbell, profiled: the observatory's
/// incast ([`observatory::scenario_sim`]) — full telemetry and the
/// observatory sampler — with the phase profiler live too.
pub fn incast(scale: Scale, seed: u64) -> ProfileRun {
    let (mut sim, flows, horizon) =
        observatory::scenario_sim("incast", scale, seed).expect("incast is a known scenario");
    sim.enable_profiler();
    let verdict = sim.run_until_flows_done(horizon);
    let p = sim.profile();
    ProfileRun {
        scenario: "incast",
        seed,
        scale,
        flows,
        completed: sim.trace.fcts.len(),
        events: p.events_processed,
        wall_seconds: p.wall_seconds,
        shares: sim.kernel.prof.phase_shares(sim.profiled_pushes()),
        profile_json: sim.perf_profile_json(),
        perfetto_json: export_chrome_trace(&sim),
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_incast_produces_consistent_artifacts() {
        let run = incast(Scale::Quick, 7);
        assert!(run.verdict.is_complete());
        assert_eq!(run.completed, run.flows);
        assert!(run.events > 0);
        let sum = run.share_sum();
        assert!((sum - 1.0).abs() < 0.05, "share sum {sum}");
        assert!(run.profile_json.contains("\"schema\":\"rocc-perf-profile/v1\""));
        assert!(run.perfetto_json.contains("event heap depth"));
        let table = run.render_table();
        assert!(table.contains("switch_forward"));
        assert!(table.contains("host_compute"));
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        assert!(profile("warp-drive", Scale::Quick, 1).is_none());
    }
}
