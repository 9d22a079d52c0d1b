//! Regenerates every table and figure of the paper — or, with
//! `--bench-pipeline`, runs the engine scaling study, or, with
//! `--sweep GRIDSPEC`, runs the multi-world fleet over a seed × knob ×
//! scenario grid, or, with `--compare-bench`, diffs two scaling reports
//! as a regression gate.
//!
//! ```text
//! run_experiments [--scale paper|large|xlarge|small] [--seed N] [--out DIR]
//! run_experiments --bench-pipeline [--scale S] [--seed N] [--out DIR] [--bench-samples N]
//!                 [--min-host-parallelism N] [--min-pipeline-speedup X]
//! run_experiments --sweep GRIDSPEC [--out DIR]
//! run_experiments --compare-bench OLD.json NEW.json [--tolerance X]
//! ```
//!
//! Unknown and **duplicate** flags are rejected with a usage message
//! and exit code 2 — a grid-spec typo must never silently fall through
//! to the default experiment run. So are a second mode flag and a flag
//! the selected mode does not read: `--min-pipeline-speedup` without
//! `--bench-pipeline` would otherwise skip its floor in silence.
//!
//! Experiment mode writes one `<id>.txt` and one `<id>.json` per
//! experiment into the output directory and prints the text reports to
//! stdout. The default output directory is `target/experiments`.
//!
//! Bench mode sweeps the worker pool over 1/2/4/8 threads against the
//! sequential references — three phases: measurement assembly
//! (`assemble_parallel` vs `assemble`), inference
//! (`IncrementalPipeline::new` vs `run_pipeline`, over inputs assembled
//! outside the timed window), and the two back to back — writes the
//! machine-readable report to `<out>/BENCH_pipeline.json` (schema
//! `opeer-bench-pipeline/10`, documented in the README), and **exits
//! non-zero if any run is not byte-identical to its sequential
//! reference** (this is the check CI's bench-smoke job enforces). The
//! optional perf-gate floors harden it further for CI's multicore perf
//! job: `--min-host-parallelism N` fails the run on a runner with
//! fewer than N available cores, and `--min-pipeline-speedup X` fails
//! it when the best pipeline-phase speedup among the swept thread
//! counts that fit on the host lands below X. Bench mode defaults to
//! `--scale large`; experiment mode defaults to `--scale paper`.
//!
//! Compare mode (`--compare-bench OLD.json NEW.json`) reads two
//! scaling reports — any schema version that carries the phase
//! sections — and **exits non-zero if any phase at any shared thread
//! count regressed by more than the tolerance** (20 % mean wall-clock
//! by default, `--tolerance 0.2`-style override). CI's perf job runs
//! it against the committed milestone report.
//!
//! Sweep mode (`--sweep GRIDSPEC`) runs the multi-world fleet: one
//! world per (knob, seed) cell fanned over the worker pool, optionally
//! extended with what-if scenario cells, aggregated into mean ± 95 %
//! confidence bands (grid-spec syntax in `opeer_bench::fleet`). Writes
//! `<out>/BENCH_sweep.json` (the `sweep` section) and **exits
//! non-zero unless the identity gate holds** — the first baseline cell
//! must reproduce on a fresh re-run and the first scenario cell's
//! delta path must equal a one-shot assemble + pipeline on the
//! scenario world. CI's sweep-smoke step enforces this.

use opeer_bench::{run_all, run_scaling_study, Session, DEFAULT_THREAD_SWEEP};
use opeer_core::engine::ParallelConfig;
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
            sweep: None,
            min_host_parallelism: None,
            min_pipeline_speedup: None,
            compare_bench: None,
            tolerance: opeer_bench::DEFAULT_TOLERANCE,
        }
    }
}

/// The flags each mode reads, keyed by the flag that selects it
/// (`None` is experiment mode).
const MODES: &[(Option<&str>, &[&str])] = &[
    (None, &["--scale", "--seed", "--out"]),
    (
        Some("--bench-pipeline"),
        &[
            "--bench-pipeline",
            "--scale",
            "--seed",
            "--out",
            "--bench-samples",
            "--min-host-parallelism",
            "--min-pipeline-speedup",
        ],
    ),
    (Some("--sweep"), &["--sweep", "--out"]),
    (Some("--compare-bench"), &["--compare-bench", "--tolerance"]),
];

/// Pure argv parser. `Err("")` requests the help text (exit 0); any
/// other `Err` is a usage error (exit 2). Unknown flags and **repeated**
/// flags are both errors — every flag takes effect exactly once, so a
/// later duplicate can't silently overwrite an earlier value. So are a
/// second mode flag and a flag the selected mode does not read
/// ([`MODES`]): a floor or a tolerance that no code reads must not
/// look as if it had been applied.
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
    let selected: Vec<&str> = MODES
        .iter()
        .filter_map(|&(mode, _)| mode)
        .filter(|mode| seen.iter().any(|s| s == mode))
        .collect();
    if let [first, second, ..] = selected[..] {
        return Err(format!("{first} and {second} select different modes"));
    }
    let mode = selected.first().copied();
    let (_, reads) = MODES
        .iter()
        .find(|&&(m, _)| m == mode)
        .expect("every mode is listed");
    if let Some(flag) = seen.iter().find(|f| !reads.contains(&f.as_str())) {
        return Err(match mode {
            Some(mode) => format!("{flag} is not read with {mode}"),
            None => {
                let reader = MODES
                    .iter()
                    .find(|(_, r)| r.contains(&flag.as_str()))
                    .and_then(|&(m, _)| m)
                    .expect("every known flag is read by some mode");
                format!("{flag} is only read with {reader}")
            }
        });
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
        "usage: run_experiments [--scale paper|large|xlarge|small] [--seed N] [--out DIR]\n\
       run_experiments --bench-pipeline [--scale S] [--seed N] [--out DIR] [--bench-samples N] \
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

    eprintln!(
        "scaling study: {} samples per point, threads {:?}...",
        args.bench_samples, DEFAULT_THREAD_SWEEP
    );
    let report = run_scaling_study(
        scale,
        &world,
        args.seed,
        DEFAULT_THREAD_SWEEP,
        args.bench_samples,
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
        // The retired study flags are unknown too.
        for flag in ["--epochs", "--archive-months", "--memory-study"] {
            let err = parse_from(&argv(&[flag, "3"])).unwrap_err();
            assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
        }
    }

    #[test]
    fn second_mode_flag_is_rejected() {
        for modes in [
            &["--bench-pipeline", "--sweep", "base=tiny"][..],
            &["--sweep", "base=tiny", "--bench-pipeline"],
            &["--compare-bench", "a.json", "b.json", "--bench-pipeline"],
            &[
                "--sweep",
                "base=tiny",
                "--compare-bench",
                "a.json",
                "b.json",
            ],
        ] {
            let err = parse_from(&argv(modes)).unwrap_err();
            assert!(err.contains("select different modes"), "{modes:?}: {err}");
        }
    }

    #[test]
    fn flag_the_mode_does_not_read_is_rejected() {
        for (flags, want) in [
            (
                &["--min-pipeline-speedup", "99", "--scale", "small"][..],
                "--min-pipeline-speedup is only read with --bench-pipeline",
            ),
            (
                &["--min-host-parallelism", "2"],
                "--min-host-parallelism is only read with --bench-pipeline",
            ),
            (
                &["--bench-samples", "3"],
                "--bench-samples is only read with --bench-pipeline",
            ),
            (
                &["--tolerance", "0.5"],
                "--tolerance is only read with --compare-bench",
            ),
            (
                &["--bench-pipeline", "--tolerance", "0.5"],
                "--tolerance is not read with --bench-pipeline",
            ),
            (
                &["--sweep", "base=tiny", "--seed", "3"],
                "--seed is not read with --sweep",
            ),
            (
                &["--sweep", "base=tiny", "--bench-samples", "3"],
                "--bench-samples is not read with --sweep",
            ),
            (
                &["--compare-bench", "a.json", "b.json", "--out", "x"],
                "--out is not read with --compare-bench",
            ),
        ] {
            let err = parse_from(&argv(flags)).unwrap_err();
            assert!(err.contains(want), "{flags:?}: {err}");
        }
    }

    #[test]
    fn each_mode_takes_the_flags_it_reads() {
        let args = parse_from(&argv(&[
            "--bench-pipeline",
            "--scale",
            "small",
            "--seed",
            "7",
            "--out",
            "x",
            "--bench-samples",
            "2",
            "--min-host-parallelism",
            "2",
            "--min-pipeline-speedup",
            "1.25",
        ]))
        .expect("bench argv parses");
        assert!(args.bench_pipeline);
        assert_eq!(args.bench_samples, 2);
        assert_eq!(args.min_pipeline_speedup, Some(1.25));
        let args = parse_from(&argv(&[
            "--compare-bench",
            "a.json",
            "b.json",
            "--tolerance",
            "0.5",
        ]))
        .expect("compare argv parses");
        assert_eq!(args.tolerance, 0.5);
        assert!(args.compare_bench.is_some());
        let args = parse_from(&argv(&["--scale", "small", "--seed", "3", "--out", "x"]))
            .expect("experiment argv parses");
        assert_eq!(args.scale.as_deref(), Some("small"));
        assert_eq!(args.seed, 3);
    }

    #[test]
    fn duplicate_value_flag_is_rejected() {
        let err = parse_from(&argv(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.contains("duplicate flag --seed"), "{err}");
    }

    #[test]
    fn duplicate_boolean_flag_is_rejected() {
        let err = parse_from(&argv(&["--bench-pipeline", "--bench-pipeline"])).unwrap_err();
        assert!(err.contains("duplicate flag --bench-pipeline"), "{err}");
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
