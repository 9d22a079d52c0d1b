//! Regenerates every table and figure of the paper — or, with
//! `--bench-pipeline`, runs the engine scaling study, or, with
//! `--epochs N`, replays the measurements through the incremental
//! pipeline in N epoch batches, or, with `--archive-months N`, replays
//! N monthly world revisions through the longitudinal snapshot
//! archive, or, with `--sweep GRIDSPEC`, runs the multi-world fleet
//! over a seed × knob × scenario grid, or, with `--compare-bench`,
//! diffs two scaling reports as a regression gate.
//!
//! ```text
//! run_experiments [--scale paper|large|xlarge|small] [--seed N] [--out DIR]
//!                 [--bench-pipeline] [--bench-samples N] [--epochs N]
//!                 [--archive-months N]
//!                 [--min-host-parallelism N] [--min-pipeline-speedup X]
//! run_experiments --sweep GRIDSPEC [--out DIR]
//! run_experiments --compare-bench OLD.json NEW.json [--tolerance X]
//! ```
//!
//! Unknown and **duplicate** flags are rejected with a usage message
//! and exit code 2 — a grid-spec typo must never silently fall through
//! to the default experiment run.
//!
//! Experiment mode writes one `<id>.txt` and one `<id>.json` per
//! experiment into the output directory and prints the text reports to
//! stdout. The default output directory is `target/experiments`.
//!
//! Bench mode sweeps the worker pool over 1/2/4/8 threads against the
//! sequential references — three phases: measurement assembly
//! (`assemble_parallel` vs `assemble`), inference
//! (`IncrementalPipeline::new` vs `run_pipeline`, over inputs assembled
//! outside the timed window), and the two back to back — plus a
//! streaming epoch replay through the incremental pipeline, a
//! serving-throughput sweep (reader threads querying the
//! `PeeringService` while a writer streams epochs), the wire-level
//! gateway load study (HTTP clients over loopback sockets against an
//! `opeer-gateway` fronting the same service), and the longitudinal
//! archive replay (monthly world revisions retained as time-travel
//! epochs, `--archive-months N` months of them), writes the
//! machine-readable report to `<out>/BENCH_pipeline.json` (schema
//! `opeer-bench-pipeline/9`, documented in the README), and **exits
//! non-zero if any run is not byte-identical to its sequential
//! reference, if any serving reader observed a non-monotonic epoch, if
//! the gateway study's expected-status / taxonomy / zero-panic gate
//! failed, or if the archive replay diverged** (this is the check CI's
//! bench-smoke job enforces). The
//! optional perf-gate floors harden it further for CI's multicore perf
//! job: `--min-host-parallelism N` fails the run on a runner with
//! fewer than N available cores, and `--min-pipeline-speedup X` fails
//! it when the best pipeline-phase speedup across the thread sweep
//! lands below X.
//!
//! Compare mode (`--compare-bench OLD.json NEW.json`) reads two
//! scaling reports — any schema version that carries the phase
//! sections — and **exits non-zero if any phase at any shared thread
//! count regressed by more than the tolerance** (20 % mean wall-clock
//! by default, `--tolerance 0.2`-style override). CI's perf job runs
//! it against the committed milestone report.
//!
//! Streaming mode (`--epochs N` without `--bench-pipeline`) drives the
//! incremental pipeline alone: measurements are delivered in N epoch
//! batches, per-epoch wall-clock and dirty-shard counts are printed,
//! and the process **exits non-zero if the incremental result diverges
//! from the one-shot pipeline** — the same contract as
//! `--bench-pipeline` (CI's determinism job replays this under its
//! `OPEER_THREADS` matrix).
//!
//! Archive mode (`--archive-months N` without `--bench-pipeline`)
//! drives the longitudinal archive alone: N monthly world revisions
//! stream through a `SnapshotArchive`, per-month wall-clock and
//! dirty-shard counts, time-travel query throughput, and the
//! retained-bytes estimate are printed, and the process **exits
//! non-zero if the final archived state diverges from the one-shot
//! pipeline over the accumulated input**. With `--bench-pipeline`, the
//! flag sets how many months the report's `archive` section replays.
//!
//! Memory mode (`--memory-study`) drives the structural-sharing study
//! alone: an epoch stream (measurement fill, then a content-free
//! steady-state tail) through a retention-capped archive (cap from
//! `OPEER_ARCHIVE_RETAIN`, default 6), with per-epoch publish dirty
//! sets, publish wall-clock, and deduplicated retained bytes. Writes
//! `<out>/BENCH_memory.json` and **exits non-zero unless every gate
//! holds**: byte-identity against the non-shared baseline, flat
//! retained bytes after compaction, full pointer sharing on clean
//! epochs, and a ≥10× zero-dirty publish speedup. `--epochs N`
//! overrides the stream length (default 24).
//! Bench, streaming, archive, and memory modes default to
//! `--scale large`; experiment mode defaults to `--scale paper`.
//!
//! Sweep mode (`--sweep GRIDSPEC`) runs the multi-world fleet: one
//! world per (knob, seed) cell fanned over the worker pool, optionally
//! extended with what-if scenario cells, aggregated into mean ± 95 %
//! confidence bands (grid-spec syntax in `opeer_bench::fleet`). Writes
//! `<out>/BENCH_sweep.json` (schema v9's `sweep` section) and **exits
//! non-zero unless the identity gate holds** — the first baseline cell
//! must reproduce on a fresh re-run and the first scenario cell's
//! delta path must equal a one-shot assemble + pipeline on the
//! scenario world. CI's sweep-smoke step enforces this.

use opeer_bench::{
    memory_gates_hold, run_all, run_archive_study, run_memory_study, run_scaling_study,
    run_streaming_session, Session, DEFAULT_ARCHIVE_MONTHS, DEFAULT_MEMORY_EPOCHS,
    DEFAULT_MEMORY_RETAIN, DEFAULT_STREAMING_EPOCHS, DEFAULT_THREAD_SWEEP,
};
use opeer_core::engine::ParallelConfig;
use opeer_core::pipeline::PipelineConfig;
use opeer_topology::WorldConfig;
use std::io::Write;
use std::path::PathBuf;

#[derive(Debug)]
struct Args {
    scale: Option<String>,
    seed: u64,
    out: PathBuf,
    bench_pipeline: bool,
    bench_samples: usize,
    epochs: Option<usize>,
    archive_months: Option<u32>,
    memory_study: bool,
    sweep: Option<String>,
    min_host_parallelism: Option<usize>,
    min_pipeline_speedup: Option<f64>,
    compare_bench: Option<(PathBuf, PathBuf)>,
    tolerance: f64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: None,
            seed: 42,
            out: PathBuf::from("target/experiments"),
            bench_pipeline: false,
            bench_samples: 5,
            epochs: None,
            archive_months: None,
            memory_study: false,
            sweep: None,
            min_host_parallelism: None,
            min_pipeline_speedup: None,
            compare_bench: None,
            tolerance: opeer_bench::DEFAULT_TOLERANCE,
        }
    }
}

/// Pure argv parser. `Err("")` requests the help text (exit 0); any
/// other `Err` is a usage error (exit 2). Unknown flags and **repeated**
/// flags are both errors — every flag takes effect exactly once, so a
/// later duplicate can't silently overwrite an earlier value.
fn parse_from(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut seen: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if matches!(flag, "--help" | "-h") {
            return Err(String::new());
        }
        if seen.iter().any(|s| s == flag) {
            return Err(format!("duplicate flag {flag}"));
        }
        seen.push(flag.to_string());
        match flag {
            "--scale" => {
                args.scale = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "missing --scale value".to_string())?,
                )
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| "bad --seed value".to_string())?
            }
            "--out" => {
                args.out = PathBuf::from(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "missing --out value".to_string())?,
                )
            }
            "--bench-pipeline" => args.bench_pipeline = true,
            "--bench-samples" => {
                args.bench_samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "bad --bench-samples value".to_string())?
            }
            "--epochs" => {
                args.epochs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| "bad --epochs value".to_string())?,
                )
            }
            "--archive-months" => {
                args.archive_months = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| "bad --archive-months value".to_string())?,
                )
            }
            "--memory-study" => args.memory_study = true,
            "--sweep" => {
                args.sweep = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "missing --sweep GRIDSPEC".to_string())?,
                )
            }
            "--min-host-parallelism" => {
                args.min_host_parallelism = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| "bad --min-host-parallelism value".to_string())?,
                )
            }
            "--min-pipeline-speedup" => {
                args.min_pipeline_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&x: &f64| x.is_finite() && x > 0.0)
                        .ok_or_else(|| "bad --min-pipeline-speedup value".to_string())?,
                )
            }
            "--compare-bench" => {
                let old = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "missing --compare-bench OLD.json".to_string())?;
                let new = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "missing --compare-bench NEW.json".to_string())?;
                args.compare_bench = Some((PathBuf::from(old), PathBuf::from(new)));
            }
            "--tolerance" => {
                args.tolerance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&x: &f64| x.is_finite() && x >= 0.0)
                    .ok_or_else(|| "bad --tolerance value".to_string())?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse_from(&argv).unwrap_or_else(|err| usage(&err))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: run_experiments [--scale paper|large|xlarge|small] [--seed N] [--out DIR] \
                       [--bench-pipeline] [--bench-samples N] [--epochs N] \
                       [--archive-months N] [--memory-study] \
                       [--min-host-parallelism N] [--min-pipeline-speedup X]\n\
       run_experiments --sweep GRIDSPEC [--out DIR]\n\
       run_experiments --compare-bench OLD.json NEW.json [--tolerance X]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn world_config(scale: &str, seed: u64) -> WorldConfig {
    match scale {
        "paper" => WorldConfig::paper(seed),
        "large" => WorldConfig::large(seed),
        "xlarge" => WorldConfig::xlarge(seed),
        "small" => WorldConfig::small(seed),
        other => usage(&format!("unknown scale {other}")),
    }
}

/// Compare mode: the regression gate between two scaling reports.
fn run_compare_bench(old_path: &PathBuf, new_path: &PathBuf, tolerance: f64) -> ! {
    let load = |path: &PathBuf| -> serde_json::Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {}: {e}", path.display());
            std::process::exit(2);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("error: {} is not valid JSON: {e}", path.display());
            std::process::exit(2);
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    match opeer_bench::compare_reports(&old, &new, tolerance) {
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        Ok(cmp) => {
            println!(
                "compared {} configurations ({} vs {}), tolerance {:.0} %",
                cmp.compared,
                old_path.display(),
                new_path.display(),
                tolerance * 100.0
            );
            for r in &cmp.regressions {
                println!("  REGRESSION: {r}");
            }
            if cmp.passed() {
                println!("  no regression past tolerance");
                std::process::exit(0);
            }
            eprintln!(
                "error: {} configuration(s) regressed past {:.0} %",
                cmp.regressions.len(),
                tolerance * 100.0
            );
            std::process::exit(1);
        }
    }
}

/// Sweep mode: the multi-world fleet with confidence bands.
fn run_sweep_mode(args: &Args, spec: &str) -> ! {
    let grid = match opeer_bench::SweepGrid::parse(spec) {
        Ok(grid) => grid,
        Err(e) => usage(&format!("bad --sweep grid spec: {e}")),
    };
    let par = ParallelConfig::from_env();
    eprintln!(
        "sweep: {} knobs × {} seeds × (1 + {} scenarios) = {} cells on {} threads...",
        grid.knobs.len(),
        grid.seeds.len(),
        grid.scenarios.len(),
        grid.n_cells(),
        par.threads
    );
    eprintln!("  canonical spec: {}", grid.spec);
    let report = match opeer_bench::run_sweep(&grid, &par) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: sweep failed: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "[sweep] {} cells, {} band groups",
        report.cells.len(),
        report.bands.len()
    );
    for band in &report.bands {
        let scenario = band.scenario.as_deref().unwrap_or("baseline");
        println!("  knob={} scenario={scenario}", band.knob);
        println!(
            "    remote share {:.4} ± {:.4}  accuracy {:.4} ± {:.4}  coverage {:.4} ± {:.4}",
            band.remote_share.mean,
            band.remote_share.width() / 2.0,
            band.accuracy.mean,
            band.accuracy.width() / 2.0,
            band.coverage.mean,
            band.coverage.width() / 2.0,
        );
        if let Some(delta) = &band.share_delta {
            println!(
                "    share delta  {:+.4} ± {:.4}",
                delta.mean,
                delta.width() / 2.0
            );
        }
    }
    println!(
        "  total {:.1} ms, mean cell {:.1} ms, identity={}",
        report.total_wall_ms, report.mean_cell_wall_ms, report.identity
    );

    std::fs::create_dir_all(&args.out).expect("create output directory");
    let path = args.out.join("BENCH_sweep.json");
    let bench = opeer_bench::SweepBenchReport::new(report);
    let json = serde_json::to_string_pretty(&bench).expect("report serialises");
    std::fs::write(&path, json).expect("write BENCH_sweep.json");
    println!("wrote {}", path.display());

    if !bench.sweep.identity {
        eprintln!("error: sweep identity gate failed — cell results are not reproducible");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Bench mode: the engine scaling study plus the determinism gate.
fn run_bench_pipeline(args: &Args) -> ! {
    let scale = args.scale.as_deref().unwrap_or("large");
    let cfg = world_config(scale, args.seed);
    eprintln!("generating world (scale={scale}, seed={})...", args.seed);
    let t0 = std::time::Instant::now();
    let world = cfg.generate();
    eprintln!("  {} [{:?}]", world.summary(), t0.elapsed());

    let epochs = args.epochs.unwrap_or(DEFAULT_STREAMING_EPOCHS);
    let archive_months = args.archive_months.unwrap_or(DEFAULT_ARCHIVE_MONTHS);
    eprintln!(
        "scaling study: {} samples per point, threads {:?}, {} streaming epochs, {} archive months...",
        args.bench_samples, DEFAULT_THREAD_SWEEP, epochs, archive_months
    );
    let report = run_scaling_study(
        scale,
        &world,
        args.seed,
        DEFAULT_THREAD_SWEEP,
        args.bench_samples,
        epochs,
        archive_months,
    );

    for (phase, scaling) in [
        ("assembly", &report.assembly),
        ("pipeline", &report.pipeline),
        ("end-to-end", &report.end_to_end),
    ] {
        println!("[{phase}]");
        println!(
            "  sequential      [{:8.3} {:8.3} {:8.3}] ms",
            scaling.sequential_ms.min, scaling.sequential_ms.mean, scaling.sequential_ms.max
        );
        for p in &scaling.points {
            println!(
                "  threads={:<2}      [{:8.3} {:8.3} {:8.3}] ms  speedup {:.2}x  identical={}",
                p.threads,
                p.timing_ms.min,
                p.timing_ms.mean,
                p.timing_ms.max,
                p.speedup,
                p.identical
            );
        }
    }
    print_streaming(&report.streaming);
    print_serving(&report.serving);
    print_gateway(&report.gateway);
    print_archive(&report.archive);
    print_memory(&report.memory);

    std::fs::create_dir_all(&args.out).expect("create output directory");
    let path = args.out.join("BENCH_pipeline.json");
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&path, json).expect("write BENCH_pipeline.json");
    println!("wrote {}", path.display());

    let mut failed = false;
    if !report.all_identical {
        eprintln!("error: parallel results diverged from the sequential reference");
        failed = true;
    }
    if let Some(min) = args.min_host_parallelism {
        if report.host_parallelism < min {
            eprintln!(
                "error: host parallelism {} below required floor {min} \
                 (perf gate needs a multicore runner)",
                report.host_parallelism
            );
            failed = true;
        }
    }
    if let Some(min) = args.min_pipeline_speedup {
        if report.best_pipeline_speedup < min {
            eprintln!(
                "error: best pipeline speedup {:.2}x below required floor {min}x",
                report.best_pipeline_speedup
            );
            failed = true;
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// Streaming mode: the incremental epoch replay plus the identity gate.
fn run_streaming(args: &Args, epochs: usize) -> ! {
    let scale = args.scale.as_deref().unwrap_or("large");
    let cfg = world_config(scale, args.seed);
    eprintln!("generating world (scale={scale}, seed={})...", args.seed);
    let t0 = std::time::Instant::now();
    let world = cfg.generate();
    eprintln!("  {} [{:?}]", world.summary(), t0.elapsed());

    let par = ParallelConfig::from_env();
    eprintln!(
        "streaming replay: {} epochs, {} worker threads...",
        epochs, par.threads
    );
    let report = run_streaming_session(&world, args.seed, epochs, &PipelineConfig::default(), &par);
    print_streaming(&report);

    if !report.identical {
        eprintln!("error: incremental replay diverged from the one-shot pipeline");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Archive mode: the longitudinal monthly replay plus the identity gate.
fn run_archive(args: &Args, months: u32) -> ! {
    let scale = args.scale.as_deref().unwrap_or("large");
    let cfg = world_config(scale, args.seed);
    eprintln!("generating world (scale={scale}, seed={})...", args.seed);
    let t0 = std::time::Instant::now();
    let world = cfg.generate();
    eprintln!("  {} [{:?}]", world.summary(), t0.elapsed());

    let par = ParallelConfig::from_env();
    eprintln!(
        "archive replay: {} months, {} worker threads...",
        months, par.threads
    );
    let report = run_archive_study(&world, args.seed, months, &PipelineConfig::default(), &par);
    print_archive(&report);

    if !report.identical {
        eprintln!("error: archive replay diverged from the one-shot pipeline");
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// Memory mode: the structural-sharing study plus its four gates.
fn run_memory(args: &Args) -> ! {
    let scale = args.scale.as_deref().unwrap_or("large");
    let cfg = world_config(scale, args.seed);
    eprintln!("generating world (scale={scale}, seed={})...", args.seed);
    let t0 = std::time::Instant::now();
    let world = cfg.generate();
    eprintln!("  {} [{:?}]", world.summary(), t0.elapsed());

    let par = ParallelConfig::from_env();
    let epochs = args.epochs.unwrap_or(DEFAULT_MEMORY_EPOCHS);
    let retain = std::env::var(opeer_core::archive::RETAIN_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_MEMORY_RETAIN);
    eprintln!(
        "memory study: {} epochs, retain {}, {} worker threads...",
        epochs, retain, par.threads
    );
    let report = run_memory_study(
        &world,
        args.seed,
        epochs,
        retain,
        &PipelineConfig::default(),
        &par,
    );
    print_memory(&report);

    std::fs::create_dir_all(&args.out).expect("create output directory");
    let path = args.out.join("BENCH_memory.json");
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&path, json).expect("write BENCH_memory.json");
    println!("wrote {}", path.display());

    if !report.identical {
        eprintln!("error: shared snapshots diverged from the non-shared baseline");
    }
    if !report.flat_after_compaction {
        eprintln!("error: retained bytes drifted past tolerance after compaction");
    }
    if !report.zero_dirty_shared_all {
        eprintln!("error: a clean epoch rebuilt a partition instead of sharing it");
    }
    if report.publish_speedup < opeer_bench::memory::MIN_PUBLISH_SPEEDUP {
        eprintln!(
            "error: zero-dirty publish speedup {:.1}x below the {:.0}x floor",
            report.publish_speedup,
            opeer_bench::memory::MIN_PUBLISH_SPEEDUP
        );
    }
    std::process::exit(if memory_gates_hold(&report) { 0 } else { 1 });
}

fn print_memory(m: &opeer_bench::MemoryReport) {
    println!(
        "[memory: {} epochs ({} fill), retain {}]",
        m.epochs, m.fill_epochs, m.retain
    );
    for e in &m.per_epoch {
        println!(
            "  epoch {:<2} +{:>6} obs +{:>6} traces  dirty_ixps={:<3} dirty_asns={:<4} clean={:<5} publish {:8.3} ms  retained {} epochs / {:>9} bytes  shared/owned {}/{}",
            e.epoch,
            e.campaign_observations,
            e.corpus_traces,
            e.dirty_ixps,
            e.dirty_asns,
            e.clean,
            e.publish_ms,
            e.retained_epochs,
            e.retained_bytes,
            e.shared_partitions,
            e.owned_partitions,
        );
    }
    println!(
        "  final: ~{} retained bytes; flat_after_compaction={}; \
         full publish {:.3} ms vs zero-dirty {:.6} ms ({:.0}x); \
         zero_dirty_shared_all={}; identical={}",
        m.retained_bytes_final,
        m.flat_after_compaction,
        m.full_publish_ms,
        m.zero_dirty_publish_ms,
        m.publish_speedup,
        m.zero_dirty_shared_all,
        m.identical
    );
}

fn print_streaming(s: &opeer_bench::StreamingReport) {
    println!("[streaming: {} epochs]", s.epochs);
    println!("  base (registry + vps + prefix2as)  {:8.3} ms", s.base_ms);
    for e in &s.per_epoch {
        println!(
            "  epoch {:<2} +{:>6} obs +{:>6} traces  {:8.3} ms  dirty: s1={} s2={} s3={} corpus={} s4={} s5={}",
            e.epoch,
            e.campaign_observations,
            e.corpus_traces,
            e.wall_ms,
            e.dirty.step1_ixps,
            e.dirty.step2_observations,
            e.dirty.step3_targets,
            e.dirty.corpus_traces,
            e.dirty.step4_candidates,
            e.dirty.step5_ixps,
        );
    }
    println!(
        "  last epoch: {} of {} shard units dirty; {:.3} ms vs {:.3} ms full re-run; identical={}",
        s.last_epoch_dirty, s.total_shards, s.last_epoch_ms, s.full_rerun_ms, s.identical
    );
}

fn print_gateway(g: &opeer_bench::GatewayReport) {
    println!("[gateway: {} epochs streamed per point]", g.epochs);
    for p in &g.points {
        println!(
            "  conns={:<2} {:>9} requests in {:8.3} ms  {:>10.0} req/s  epochs seen ..{} monotonic={} statuses_expected={}",
            p.connections,
            p.requests,
            p.wall_ms,
            p.rps,
            p.max_epoch_seen,
            p.epochs_monotonic,
            p.statuses_expected,
        );
        for r in &p.routes {
            println!(
                "    {:<9} {:>8} req {:>6} err  p50 {:>7} µs  p99 {:>7} µs  max {:>7} µs",
                r.route, r.requests, r.errors, r.p50_us, r.p99_us, r.max_us
            );
        }
    }
    println!(
        "  ok={} epochs_monotonic={} statuses_expected={} panics={}",
        g.ok, g.epochs_monotonic, g.statuses_expected, g.panics
    );
}

fn print_serving(s: &opeer_bench::ServingReport) {
    println!("[serving: {} epochs streamed per point]", s.epochs);
    for p in &s.points {
        println!(
            "  readers={:<2} {:>9} queries in {:8.3} ms  {:>12.0} q/s  epochs seen [{}..{}] monotonic={}",
            p.readers,
            p.queries,
            p.wall_ms,
            p.qps,
            p.min_epoch_seen,
            p.max_epoch_seen,
            p.epochs_monotonic,
        );
    }
    println!(
        "  identical={} epochs_monotonic={} tags_consistent={}",
        s.identical, s.epochs_monotonic, s.tags_consistent
    );
}

fn print_archive(a: &opeer_bench::ArchiveReport) {
    println!("[archive: {} months replayed]", a.months);
    println!("  base epoch build                   {:8.3} ms", a.base_ms);
    for m in &a.per_month {
        println!(
            "  month {:<2} epoch {:<2} registry={:<5} +{:>6} obs +{:>6} traces  {:8.3} ms  dirty={}",
            m.month,
            m.epoch,
            m.registry_revision,
            m.campaign_observations,
            m.corpus_traces,
            m.wall_ms,
            m.dirty.total(),
        );
    }
    println!(
        "  {} epochs archived in {:.3} ms; {} time-travel queries at {:.0} q/s; ~{} retained bytes; identical={}",
        a.epochs_archived, a.replay_ms, a.queries, a.query_qps, a.retained_bytes, a.identical
    );
}

fn main() {
    let args = parse_args();
    if let Some((old, new)) = &args.compare_bench {
        run_compare_bench(old, new, args.tolerance);
    }
    if let Some(spec) = &args.sweep {
        run_sweep_mode(&args, spec);
    }
    if args.bench_pipeline {
        run_bench_pipeline(&args);
    }
    if args.memory_study {
        run_memory(&args);
    }
    if let Some(epochs) = args.epochs {
        run_streaming(&args, epochs);
    }
    if let Some(months) = args.archive_months {
        run_archive(&args, months);
    }
    let scale = args.scale.as_deref().unwrap_or("paper").to_string();
    let cfg = world_config(&scale, args.seed);

    eprintln!("generating world (scale={scale}, seed={})...", args.seed);
    let t0 = std::time::Instant::now();
    let world = cfg.generate();
    eprintln!("  {} [{:?}]", world.summary(), t0.elapsed());

    eprintln!("building measurement/inference session...");
    let t1 = std::time::Instant::now();
    let session = Session::new(&world, args.seed);
    {
        let input = session.input();
        eprintln!(
            "  campaign: {} observations; corpus: {} traceroutes; inferences: {} [{:?}]",
            input.campaign.observations.len(),
            input.corpus.len(),
            session.result().inferences.len(),
            t1.elapsed()
        );
    }

    std::fs::create_dir_all(&args.out).expect("create output directory");
    let t2 = std::time::Instant::now();
    let all = run_all(&session);
    eprintln!("experiments done [{:?}]", t2.elapsed());

    for r in &all {
        let mut txt =
            std::fs::File::create(args.out.join(format!("{}.txt", r.id))).expect("write .txt");
        writeln!(txt, "# {}\n\n{}", r.title, r.text).expect("write text");
        let json = serde_json::to_string_pretty(&r.json).expect("serialise");
        std::fs::write(args.out.join(format!("{}.json", r.id)), json).expect("write .json");

        println!("════════════════════════════════════════════════════════════");
        println!("{} — {}", r.id, r.title);
        println!("────────────────────────────────────────────────────────────");
        println!("{}", r.text);
    }
    println!("wrote {} experiments to {}", all.len(), args.out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_when_no_flags() {
        let args = parse_from(&[]).expect("empty argv parses");
        assert_eq!(args.seed, 42);
        assert_eq!(args.out, PathBuf::from("target/experiments"));
        assert!(args.scale.is_none());
        assert!(args.sweep.is_none());
        assert!(!args.bench_pipeline);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse_from(&argv(&["--swep", "base=tiny"])).unwrap_err();
        assert!(err.contains("unknown flag --swep"), "{err}");
    }

    #[test]
    fn duplicate_value_flag_is_rejected() {
        let err = parse_from(&argv(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.contains("duplicate flag --seed"), "{err}");
    }

    #[test]
    fn duplicate_boolean_flag_is_rejected() {
        let err = parse_from(&argv(&["--memory-study", "--memory-study"])).unwrap_err();
        assert!(err.contains("duplicate flag --memory-study"), "{err}");
    }

    #[test]
    fn help_is_an_empty_error() {
        assert_eq!(parse_from(&argv(&["-h"])).unwrap_err(), "");
        assert_eq!(
            parse_from(&argv(&["--seed", "7", "--help"])).unwrap_err(),
            ""
        );
    }

    #[test]
    fn sweep_spec_is_captured() {
        let args = parse_from(&argv(&["--sweep", "base=tiny;seeds=1,2", "--out", "x"]))
            .expect("sweep argv parses");
        assert_eq!(args.sweep.as_deref(), Some("base=tiny;seeds=1,2"));
        assert_eq!(args.out, PathBuf::from("x"));
    }

    #[test]
    fn sweep_without_spec_is_rejected() {
        let err = parse_from(&argv(&["--sweep"])).unwrap_err();
        assert!(err.contains("missing --sweep"), "{err}");
    }

    #[test]
    fn bad_numeric_values_are_rejected() {
        assert!(parse_from(&argv(&["--seed", "x"])).is_err());
        assert!(parse_from(&argv(&["--bench-samples", "0"])).is_err());
        assert!(parse_from(&argv(&["--tolerance", "-1"])).is_err());
    }
}
