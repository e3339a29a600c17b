//! Parallel-runner determinism: the rayon fan-out over `(scheme, seed)`
//! cells must be **byte-identical** to the serial loop — same per-bin
//! statistics, same pooled flow rates, same side observations — because
//! each cell is an isolated simulation and results aggregate in grid
//! order regardless of thread scheduling. Rendering both runs through
//! the canonical JSON writer and comparing strings pins every f64 bit.

use proptest::prelude::*;
use rocc_experiments::fct::{
    fct_grid_supervised, run_fat_tree, BufferRegime, FatTreeConfig, SchemeFcts, Workload,
};
use rocc_experiments::parallel::{map_cells, ExecMode};
use rocc_experiments::supervisor::Supervisor;
use rocc_experiments::Scheme;
use rocc_sim::prelude::*;

/// The FbHadoop 50% PFC grid at `cfg` under a keep-going supervisor.
fn grid_rows(cfg: &FatTreeConfig, mode: ExecMode) -> Vec<SchemeFcts> {
    let sup = Supervisor::new(mode);
    fct_grid_supervised(Workload::FbHadoop, 0.5, cfg, BufferRegime::Pfc, &sup).0
}

/// Miniature fat-tree config: big enough to exercise real contention,
/// small enough that 3 schemes × 5 reps × 2 modes stays test-sized.
fn tiny(reps: usize) -> FatTreeConfig {
    FatTreeConfig {
        hosts_per_edge: 3,
        trunks: 1,
        window: SimDuration::from_millis(1),
        max_drain: SimDuration::from_millis(400),
        reps,
    }
}

/// The headline guarantee: 3 schemes × 5 seeds, serial vs parallel,
/// byte-identical JSON.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let cfg = tiny(5);
    let serial = grid_rows(&cfg, ExecMode::Serial);
    let parallel = grid_rows(&cfg, ExecMode::Parallel);
    assert_eq!(serial.len(), 3);
    assert_eq!(parallel.len(), 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sj, pj) = (s.to_json(), p.to_json());
        assert!(!sj.is_empty() && sj.starts_with('{'));
        assert_eq!(sj, pj, "scheme {} diverged between modes", s.scheme.name());
    }
}

/// Grid order: `fct_grid_supervised` must aggregate cell (si, rep) into row si no
/// matter which worker ran it. Rerunning one cell standalone must
/// reproduce what the grid saw (cells share no state).
#[test]
fn grid_cells_are_independent_and_order_stable() {
    let cfg = tiny(2);
    let rows = grid_rows(&cfg, ExecMode::Parallel);
    let expected: Vec<Scheme> = Scheme::large_scale_set().to_vec();
    let got: Vec<Scheme> = rows.iter().map(|r| r.scheme).collect();
    assert_eq!(got, expected, "rows must follow large_scale_set order");

    // Re-run one cell by hand (seed 1000 = rep 0) and cross-check a raw
    // observable against the aggregated row.
    let lone = run_fat_tree(
        Scheme::Rocc,
        Workload::FbHadoop,
        0.5,
        &cfg,
        BufferRegime::Pfc,
        1000,
    );
    let rocc_row = rows.iter().find(|r| r.scheme == Scheme::Rocc).unwrap();
    let row_count: usize = rocc_row.bins.iter().map(|b| b.count).sum();
    assert!(
        row_count >= lone.fcts.len(),
        "aggregate ({row_count}) must include rep-0 flows ({})",
        lone.fcts.len()
    );
    assert!(lone.all_completed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any thread count (including oversubscribed ones) yields the same
    /// index-ordered results as the serial map — the property the whole
    /// sweep determinism rests on, checked at the map_cells layer where
    /// it is cheap enough to sample many shapes.
    #[test]
    fn map_cells_order_stable_for_any_shape(
        n in 0usize..200,
        mul in 1u64..1000,
    ) {
        let cells: Vec<u64> = (0..n as u64).collect();
        let f = |c: u64| c.wrapping_mul(mul) ^ (c << 7);
        let serial = map_cells(ExecMode::Serial, cells.clone(), f);
        let par = map_cells(ExecMode::Parallel, cells, f);
        prop_assert_eq!(serial, par);
    }

    /// Seeded single-cell runs are reproducible: the same (seed) cell run
    /// twice gives identical FCT vectors. (This is what lets the grid
    /// fan out without recording anything but the seed.)
    #[test]
    fn single_cell_is_seed_reproducible(seed in 0u64..3) {
        let cfg = tiny(1);
        let a = run_fat_tree(
            Scheme::Rocc, Workload::FbHadoop, 0.4, &cfg,
            BufferRegime::Pfc, 1000 + seed,
        );
        let b = run_fat_tree(
            Scheme::Rocc, Workload::FbHadoop, 0.4, &cfg,
            BufferRegime::Pfc, 1000 + seed,
        );
        prop_assert_eq!(a.fcts, b.fcts);
        prop_assert_eq!(a.pfc_core, b.pfc_core);
        prop_assert_eq!(a.tx_data_bytes, b.tx_data_bytes);
    }
}
