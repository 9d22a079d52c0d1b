//! The engine scaling study: sequential references vs the worker pool
//! at several thread counts — for measurement assembly, for the
//! inference pipeline, and for the two back to back — with
//! byte-identity checks and a machine-readable report
//! (`BENCH_pipeline.json`, schema `opeer-bench-pipeline/10`).
//!
//! Used by `run_experiments --bench-pipeline` (which is what CI's
//! bench-smoke and perf jobs run and archive). The README documents the
//! report schema field by field.

use opeer_core::engine::ParallelConfig;
use opeer_core::incremental::IncrementalPipeline;
use opeer_core::pipeline::{run_pipeline, PipelineConfig};
use opeer_core::InferenceInput;
use opeer_topology::World;
use serde::Serialize;
use std::time::Instant;

/// Thread counts the study sweeps by default.
pub const DEFAULT_THREAD_SWEEP: &[usize] = &[1, 2, 4, 8];

/// Wall-clock statistics over the timed samples, milliseconds.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TimingMs {
    /// Fastest sample.
    pub min: f64,
    /// Mean of all samples.
    pub mean: f64,
    /// Slowest sample.
    pub max: f64,
}

impl TimingMs {
    fn from_samples(samples: &[f64]) -> TimingMs {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(0.0, f64::max);
        let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
        TimingMs { min, mean, max }
    }
}

/// One thread count's measurements for one studied phase.
#[derive(Debug, Clone, Serialize)]
pub struct ThreadPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock stats of the parallel run.
    pub timing_ms: TimingMs,
    /// `min(sequential) / min(parallel)` — the conventional best-vs-best
    /// scaling ratio.
    pub speedup: f64,
    /// Whether the parallel result was byte-identical to sequential.
    pub identical: bool,
}

/// One studied phase: its sequential reference and the thread sweep.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseScaling {
    /// Sequential reference stats.
    pub sequential_ms: TimingMs,
    /// One point per swept thread count.
    pub points: Vec<ThreadPoint>,
    /// Whether every parallel run of this phase matched sequential.
    pub all_identical: bool,
}

impl PhaseScaling {
    /// Speedup at a given thread count, if it was swept.
    pub fn speedup_at(&self, threads: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.threads == threads)
            .map(|p| p.speedup)
    }

    /// The best speedup among the points that fit on the host
    /// (`threads <= host_parallelism`). An over-subscribed point times
    /// the scheduler, not the engine, so it cannot set the best; with no
    /// fitting multi-thread point this is the 1-thread point.
    pub fn best_speedup_within(&self, host_parallelism: usize) -> f64 {
        self.points
            .iter()
            .filter(|p| p.threads <= host_parallelism.max(1))
            .map(|p| p.speedup)
            .fold(0.0, f64::max)
    }
}

/// BENCH schema tag shared by every report this crate writes
/// (`BENCH_pipeline.json`, `BENCH_sweep.json`). v10 dropped the
/// `streaming`, `serving`, `gateway`, `archive` and `memory` sections,
/// leaving the three phases.
pub const BENCH_SCHEMA: &str = "opeer-bench-pipeline/10";

/// The full study report, serialised as `BENCH_pipeline.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingReport {
    /// Report schema tag, bumped on layout changes.
    pub schema: &'static str,
    /// World scale label (`small` / `large` / `paper`).
    pub world: String,
    /// Seed the world and input were built from.
    pub seed: u64,
    /// Observed IXPs in the assembled input.
    pub ixps: usize,
    /// Member interfaces across them.
    pub interfaces: usize,
    /// Inferences the pipeline produced.
    pub inferences: usize,
    /// Timed samples per configuration.
    pub samples: usize,
    /// The machine's available parallelism when the study ran.
    pub host_parallelism: usize,
    /// Best pipeline-phase speedup across the swept thread counts that
    /// fit on the host ([`PhaseScaling::best_speedup_within`]) — the
    /// number CI's perf gate floors (new in schema 6): `run_pipeline`
    /// against `IncrementalPipeline::new`, the production parallel path.
    pub best_pipeline_speedup: f64,
    /// Measurement assembly: `InferenceInput::assemble` vs
    /// `assemble_parallel` (registry fusion + campaign + corpus +
    /// `prefix2as` sharded over the pool). `assemble` *is*
    /// `assemble_parallel` at one thread, so the 1-thread point reports
    /// the sequential samples instead of timing the same call again.
    pub assembly: PhaseScaling,
    /// The five-step inference: `run_pipeline` vs
    /// `IncrementalPipeline::new` (the full recompute
    /// `PeeringService::build` runs), each over an input assembled
    /// outside the timed window.
    pub pipeline: PhaseScaling,
    /// End to end: sequential `assemble` + `run_pipeline` vs
    /// `assemble_parallel` + `IncrementalPipeline::new`.
    pub end_to_end: PhaseScaling,
    /// Whether every parallel run in every phase matched its sequential
    /// reference byte for byte: the gate `run_experiments
    /// --bench-pipeline` enforces with its exit code.
    pub all_identical: bool,
}

impl ScalingReport {
    /// Pipeline speedup at a given thread count, if it was swept.
    pub fn speedup_at(&self, threads: usize) -> Option<f64> {
        self.pipeline.speedup_at(threads)
    }
}

/// Times `samples` runs of `f`, keeping the last result. `setup`
/// builds each sample's argument and `audit` checks each sample's
/// result, both **outside** the timed window — identity checks (a deep
/// walk of the whole artifact set) must not be charged to the parallel
/// runs they audit, or every reported speedup would be biased downward.
/// The previous sample is likewise dropped before the clock starts.
fn timed_audited<S, R>(
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> R,
    mut audit: impl FnMut(&R) -> bool,
) -> (TimingMs, bool, R) {
    let mut times = Vec::with_capacity(samples);
    let mut ok = true;
    let mut last = None;
    for _ in 0..samples {
        drop(last.take());
        let arg = setup();
        let t0 = Instant::now();
        let r = f(arg);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        ok &= audit(&r);
        last = Some(r);
    }
    (
        TimingMs::from_samples(&times),
        ok,
        last.expect("samples >= 1"),
    )
}

/// Times `samples` runs of `f` with no audit.
fn timed<R>(samples: usize, mut f: impl FnMut() -> R) -> (TimingMs, R) {
    let (timing, _, last) = timed_audited(samples, || (), |()| f(), |_| true);
    (timing, last)
}

/// Runs the study: for each of the three phases (assembly, pipeline,
/// end-to-end), `samples` timed sequential runs, then `samples` timed
/// parallel runs per thread count, each checked byte-for-byte against
/// the sequential reference.
pub fn run_scaling_study(
    world_label: &str,
    world: &World,
    seed: u64,
    thread_sweep: &[usize],
    samples: usize,
) -> ScalingReport {
    let samples = samples.max(1);
    let cfg = PipelineConfig::default();

    // ---- assembly ----
    let (assembly_seq_ms, input) = timed(samples, || InferenceInput::assemble(world, seed));
    let mut assembly_points = Vec::with_capacity(thread_sweep.len());
    for &threads in thread_sweep {
        if threads == 1 {
            // `assemble` is `assemble_parallel` at one thread: its
            // samples are this point's samples.
            assembly_points.push(ThreadPoint {
                threads,
                timing_ms: assembly_seq_ms,
                speedup: 1.0,
                identical: true,
            });
            continue;
        }
        let par = ParallelConfig::new(threads);
        let (timing_ms, identical, _) = timed_audited(
            samples,
            || (),
            |()| InferenceInput::assemble_parallel(world, seed, &par),
            |r| r.content_eq(&input),
        );
        assembly_points.push(ThreadPoint {
            threads,
            timing_ms,
            speedup: assembly_seq_ms.min / timing_ms.min.max(f64::EPSILON),
            identical,
        });
    }
    let assembly = PhaseScaling {
        sequential_ms: assembly_seq_ms,
        all_identical: assembly_points.iter().all(|p| p.identical),
        points: assembly_points,
    };

    // ---- pipeline ----
    let (pipeline_seq_ms, sequential) = timed(samples, || run_pipeline(&input, &cfg));
    let mut pipeline_points = Vec::with_capacity(thread_sweep.len());
    for &threads in thread_sweep {
        let par = ParallelConfig::new(threads);
        let (timing_ms, identical, _) = timed_audited(
            samples,
            || InferenceInput::assemble_parallel(world, seed, &par),
            |assembled| IncrementalPipeline::new(assembled, &cfg, &par),
            |pipe| *pipe.result() == sequential,
        );
        pipeline_points.push(ThreadPoint {
            threads,
            timing_ms,
            speedup: pipeline_seq_ms.min / timing_ms.min.max(f64::EPSILON),
            identical,
        });
    }
    let pipeline = PhaseScaling {
        sequential_ms: pipeline_seq_ms,
        all_identical: pipeline_points.iter().all(|p| p.identical),
        points: pipeline_points,
    };

    // ---- end to end ----
    // Sequential reference = assemble + infer back to back; its timing
    // is the sum of the phases already measured.
    let e2e_seq_ms = TimingMs {
        min: assembly.sequential_ms.min + pipeline.sequential_ms.min,
        mean: assembly.sequential_ms.mean + pipeline.sequential_ms.mean,
        max: assembly.sequential_ms.max + pipeline.sequential_ms.max,
    };
    let mut e2e_points = Vec::with_capacity(thread_sweep.len());
    for &threads in thread_sweep {
        let par = ParallelConfig::new(threads);
        let (timing_ms, identical, _) = timed_audited(
            samples,
            || (),
            |()| {
                let assembled = InferenceInput::assemble_parallel(world, seed, &par);
                IncrementalPipeline::new(assembled, &cfg, &par)
            },
            |pipe| pipe.input().content_eq(&input) && *pipe.result() == sequential,
        );
        e2e_points.push(ThreadPoint {
            threads,
            timing_ms,
            speedup: e2e_seq_ms.min / timing_ms.min.max(f64::EPSILON),
            identical,
        });
    }
    let end_to_end = PhaseScaling {
        sequential_ms: e2e_seq_ms,
        all_identical: e2e_points.iter().all(|p| p.identical),
        points: e2e_points,
    };

    let all_identical =
        assembly.all_identical && pipeline.all_identical && end_to_end.all_identical;
    let host_parallelism = ParallelConfig::available_parallelism();
    let best_pipeline_speedup = pipeline.best_speedup_within(host_parallelism);
    ScalingReport {
        schema: BENCH_SCHEMA,
        world: world_label.to_string(),
        seed,
        ixps: input.observed.ixps.len(),
        interfaces: input.observed.total_interfaces(),
        inferences: sequential.inferences.len(),
        samples,
        host_parallelism,
        best_pipeline_speedup,
        assembly,
        pipeline,
        end_to_end,
        all_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_topology::WorldConfig;

    #[test]
    fn study_reports_identical_results_on_small_world() {
        let world = WorldConfig::small(7).generate();
        let report = run_scaling_study("small", &world, 7, &[1, 2], 1);
        assert!(report.all_identical, "a parallel phase diverged");
        assert!(report.assembly.all_identical);
        assert!(report.pipeline.all_identical);
        assert!(report.end_to_end.all_identical);
        assert_eq!(report.pipeline.points.len(), 2);
        assert_eq!(report.assembly.points.len(), 2);
        assert_eq!(report.end_to_end.points.len(), 2);
        assert!(report.speedup_at(2).is_some());
        assert!(report.assembly.speedup_at(2).is_some());
        assert!(report.pipeline.sequential_ms.min > 0.0);
        assert!(report.assembly.sequential_ms.min > 0.0);
        // The assembly phase's 1-thread point is its sequential samples,
        // not a second timing of the same call.
        let one = &report.assembly.points[0];
        assert_eq!(one.threads, 1);
        assert_eq!(one.timing_ms.min, report.assembly.sequential_ms.min);
        assert_eq!(one.timing_ms.mean, report.assembly.sequential_ms.mean);
        assert_eq!(one.speedup, 1.0);
        assert_eq!(
            report.best_pipeline_speedup,
            report.pipeline.best_speedup_within(report.host_parallelism)
        );
        assert!(report
            .pipeline
            .points
            .iter()
            .any(|p| p.threads <= report.host_parallelism.max(1)
                && p.speedup == report.best_pipeline_speedup));
        let json = serde_json::to_string(&report).expect("report serialises");
        assert!(json.contains("\"schema\":"));
        assert!(json.contains("opeer-bench-pipeline/10"));
        assert!(json.contains("\"best_pipeline_speedup\":"));
        assert!(json.contains("\"assembly\":"));
        assert!(json.contains("\"end_to_end\":"));
    }

    #[test]
    fn best_speedup_ignores_oversubscribed_points() {
        let point = |threads, speedup| ThreadPoint {
            threads,
            timing_ms: TimingMs::from_samples(&[1.0]),
            speedup,
            identical: true,
        };
        let phase = PhaseScaling {
            sequential_ms: TimingMs::from_samples(&[1.0]),
            points: vec![
                point(1, 0.97),
                point(2, 1.08),
                point(4, 1.31),
                point(8, 1.47),
            ],
            all_identical: true,
        };
        // A 2-vCPU host: the 8-thread point's 1.47 is noise, not scaling.
        assert_eq!(phase.best_speedup_within(2), 1.08);
        assert_eq!(phase.best_speedup_within(8), 1.47);
        assert_eq!(phase.best_speedup_within(16), 1.47);
        // No multi-thread point fits: the 1-thread point stands in.
        assert_eq!(phase.best_speedup_within(1), 0.97);
    }
}
