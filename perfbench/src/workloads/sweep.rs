//! `sweep`: `run_sweep` over a grid of `small` worlds, two threads
//! across cells, each seed also scored under an AMS-IX outage. The only
//! workload that times world generation and per-world fixed costs
//! (routing-oracle index build, fusion, campaign, the one-thread
//! `run_pipeline` each cell calls), with parallelism across worlds
//! rather than within one: a change that buys large-world speed with
//! per-world precomputation shows its cost here.

use super::{engine, secs, Params, Size};
use crate::host::Window;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use opeer_bench::fleet::{run_sweep, SweepGrid};
use opeer_core::engine::ParallelConfig;
use opeer_core::pipeline::PipelineConfig;
use opeer_core::scenario::run_scenario_epoch;
use opeer_topology::WorldConfig;
use std::time::{Duration, Instant};

/// World seeds in the full grid.
pub const SEEDS: usize = 32;
/// World seeds in the canary grid.
const CANARY_SEEDS: usize = 2;
/// The what-if scenario every seed is also scored under.
pub const SCENARIO: &str = "ixp-outage:AMS-IX";
/// Worlds re-timed per layer in the traced run.
const LAYER_SAMPLE: usize = 4;
/// Grid parses timed for `setup_s`; it is their median.
const SETUP_REPEATS: usize = 64;
/// Idle time before each timed parse. A parse is a few microseconds, and
/// back-to-back parses on a shared host run at one of two speeds, about
/// a factor of two apart, that hold for milliseconds: the median of a hot
/// loop reads whichever state the host was in. Parses spaced out like
/// this are each a one-off, as a setup is in use.
const SETUP_SPACING: Duration = Duration::from_millis(5);

/// The grid spec for a workload seed: `n` consecutive world seeds
/// derived from it.
pub fn grid_spec(seed: u64, n: usize) -> String {
    let seeds: Vec<String> = (0..n as u64)
        .map(|i| seed.wrapping_mul(1000).wrapping_add(i).to_string())
        .collect();
    format!("base=small; seeds={}; scenario={SCENARIO}", seeds.join(","))
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let n = match p.size {
        Size::Full => SEEDS,
        Size::Canary => CANARY_SEEDS,
    };
    let mut out = Outcome {
        attempted: (2 * n) as u64,
        ..Outcome::default()
    };
    let spec = grid_spec(p.seed, n);
    // A canary's `setup_s` is never reported: one parse is enough.
    let repeats = match p.size {
        Size::Full => SETUP_REPEATS,
        Size::Canary => 1,
    };
    let mut setups = Vec::with_capacity(repeats);
    let mut grid = SweepGrid::parse(&spec);
    for _ in 0..repeats {
        std::thread::sleep(SETUP_SPACING);
        let setup = Instant::now();
        grid = std::hint::black_box(SweepGrid::parse(&spec));
        setups.push(secs(setup));
    }
    let grid = match grid {
        Ok(grid) => grid,
        Err(e) => {
            out.check(false, format!("grid spec rejected: {e}"));
            return out;
        }
    };

    let window = Window::open();
    let started = Instant::now();
    let report = run_sweep(&grid, &engine());
    let sweep_s = secs(started);
    let host = window.close();
    out.host = Some(host);

    let report = match report {
        Ok(report) => report,
        Err(e) => {
            out.check(false, format!("run_sweep failed: {e}"));
            return out;
        }
    };
    out.check(report.identity, "fleet identity gate failed");
    out.check(
        report.cells.len() == 2 * n,
        "grid produced the wrong number of cells",
    );
    let empty = report
        .cells
        .iter()
        .filter(|c| c.stats.classified == 0)
        .count();
    out.check(empty == 0, format!("{empty} cells classified nothing"));

    if p.trace {
        let cells: Vec<f64> = report.cells.iter().map(|c| c.wall_ms).collect();
        out.set("fleet.cell_p50_ms", median(&cells));
        // Cells run back to back on each engine thread; the identity
        // re-runs are the part of the wall no cell explains.
        out.set(
            "trace.coverage",
            cells.iter().sum::<f64>() / (sweep_s * 1e3 * super::ENGINE_THREADS as f64),
        );
        layer_sample(&mut out, &grid);
        out.set("host.ref_ms", host.ref_ms());
        out.set("host.steal_pct", host.steal_pct);
        return out;
    }
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", host.peak_rss_mib);
    out.set("sweep_s", sweep_s);
    out
}

/// Re-times a cell's world generation, scenario transform and
/// scenario epoch on the first grid seeds, one thread, one span each.
fn layer_sample(out: &mut Outcome, grid: &SweepGrid) {
    let cfg = PipelineConfig::default();
    let one = ParallelConfig::new(1);
    let scenario = &grid.scenarios[0];
    let mut tr = Tracer::new();
    for &seed in grid.seeds.iter().take(LAYER_SAMPLE) {
        let world = tr.span("topology.generate", |_| WorldConfig::small(seed).generate());
        let shifted = tr.span("topology.scenario", |_| scenario.apply(&world));
        std::hint::black_box(tr.span("core.scenario_epoch", |_| {
            run_scenario_epoch(&world, &shifted, seed, &cfg, &one)
        }));
    }
    out.set(
        "topology.generate_ms",
        median(&tr.durations_ms("topology.generate")),
    );
    out.set(
        "topology.scenario_ms",
        median(&tr.durations_ms("topology.scenario")),
    );
    out.set(
        "core.scenario_epoch_ms",
        median(&tr.durations_ms("core.scenario_epoch")),
    );
    out.spans_json = Some(tr.to_json());
}
