//! Regenerates every table and figure of the paper, or, with
//! `--sweep GRIDSPEC`, runs the multi-world fleet over a seed × knob ×
//! scenario grid.
//!
//! ```text
//! run_experiments [--scale paper|large|xlarge|small] [--seed N] [--out DIR]
//! run_experiments --sweep GRIDSPEC [--out DIR]
//! ```
//!
//! Unknown and **duplicate** flags are rejected with a usage message
//! and exit code 2 — a grid-spec typo must never silently fall through
//! to the default experiment run. So is a flag the selected mode does
//! not read (`--seed` with `--sweep` would otherwise look as if it had
//! been applied), and so is an output directory that cannot be created:
//! it is created before any world is generated.
//!
//! Experiment mode writes one `<id>.txt` and one `<id>.json` per
//! experiment into the output directory and prints the text reports to
//! stdout. The default scale is `paper`, the default output directory
//! `target/experiments`.
//!
//! Sweep mode (`--sweep GRIDSPEC`) runs the multi-world fleet: one
//! world per (knob, seed) cell fanned over the worker pool, optionally
//! extended with what-if scenario cells, aggregated into mean ± 95 %
//! confidence bands (grid-spec syntax in `opeer_bench::fleet`). Writes
//! `<out>/BENCH_sweep.json` (the `sweep` section) and **exits
//! non-zero unless the identity gate holds** — the first baseline cell
//! must reproduce on a fresh re-run and the first scenario cell's
//! delta path must equal a one-shot assemble + pipeline on the
//! scenario world. CI's sweep-fleet job enforces this.

use opeer_bench::{run_all, Session};
use opeer_core::engine::ParallelConfig;
use opeer_topology::WorldConfig;
use std::io::Write;
use std::path::{Path, PathBuf};

#[derive(Debug)]
struct Args {
    scale: Option<String>,
    seed: u64,
    out: PathBuf,
    sweep: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: None,
            seed: 42,
            out: PathBuf::from("target/experiments"),
            sweep: None,
        }
    }
}

/// The flags each mode reads, keyed by the flag that selects it
/// (`None` is experiment mode).
const MODES: &[(Option<&str>, &[&str])] = &[
    (None, &["--scale", "--seed", "--out"]),
    (Some("--sweep"), &["--sweep", "--out"]),
];

/// Pure argv parser. `Err("")` requests the help text (exit 0); any
/// other `Err` is a usage error (exit 2). Unknown flags and **repeated**
/// flags are both errors — every flag takes effect exactly once, so a
/// later duplicate can't silently overwrite an earlier value. So is a
/// flag the selected mode does not read ([`MODES`]): it must not look as
/// if it had been applied.
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
            "--sweep" => {
                args.sweep = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "missing --sweep GRIDSPEC".to_string())?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mode = MODES
        .iter()
        .filter_map(|&(mode, _)| mode)
        .find(|mode| seen.iter().any(|s| s == mode));
    let (_, reads) = MODES
        .iter()
        .find(|&&(m, _)| m == mode)
        .expect("every mode is listed");
    if let Some(flag) = seen.iter().find(|f| !reads.contains(&f.as_str())) {
        let mode = mode.unwrap_or("experiment mode");
        return Err(format!("{flag} is not read with {mode}"));
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
    eprintln!("usage: run_experiments [--scale paper|large|xlarge|small] [--seed N] [--out DIR]");
    eprintln!("       run_experiments --sweep GRIDSPEC [--out DIR]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Creates the output directory before any world is generated, so an
/// unusable `--out` is a usage error up front, not a panic after the run.
fn create_out(dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        usage(&format!(
            "cannot create output directory {}: {e}",
            dir.display()
        ));
    }
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

/// Sweep mode: the multi-world fleet with confidence bands.
fn run_sweep_mode(args: &Args, spec: &str) -> ! {
    let grid = match opeer_bench::SweepGrid::parse(spec) {
        Ok(grid) => grid,
        Err(e) => usage(&format!("bad --sweep grid spec: {e}")),
    };
    create_out(&args.out);
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

fn main() {
    let args = parse_args();
    if let Some(spec) = &args.sweep {
        run_sweep_mode(&args, spec);
    }
    let scale = args.scale.as_deref().unwrap_or("paper");
    let cfg = world_config(scale, args.seed);
    create_out(&args.out);

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
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse_from(&argv(&["--swep", "base=tiny"])).unwrap_err();
        assert!(err.contains("unknown flag --swep"), "{err}");
        // The retired study and scaling-benchmark flags are unknown too.
        for flag in [
            "--epochs",
            "--archive-months",
            "--memory-study",
            "--bench-pipeline",
            "--bench-samples",
            "--min-host-parallelism",
            "--min-pipeline-speedup",
            "--compare-bench",
            "--tolerance",
        ] {
            let err = parse_from(&argv(&[flag, "3"])).unwrap_err();
            assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
        }
    }

    #[test]
    fn flag_the_mode_does_not_read_is_rejected() {
        for (flags, want) in [
            (
                &["--sweep", "base=tiny", "--seed", "3"][..],
                "--seed is not read with --sweep",
            ),
            (
                &["--scale", "small", "--sweep", "base=tiny"],
                "--scale is not read with --sweep",
            ),
        ] {
            let err = parse_from(&argv(flags)).unwrap_err();
            assert!(err.contains(want), "{flags:?}: {err}");
        }
    }

    #[test]
    fn each_mode_takes_the_flags_it_reads() {
        let args = parse_from(&argv(&["--scale", "small", "--seed", "3", "--out", "x"]))
            .expect("experiment argv parses");
        assert_eq!(args.scale.as_deref(), Some("small"));
        assert_eq!(args.seed, 3);
        assert_eq!(args.out, PathBuf::from("x"));
        let args =
            parse_from(&argv(&["--out", "y", "--sweep", "base=tiny"])).expect("sweep argv parses");
        assert_eq!(args.sweep.as_deref(), Some("base=tiny"));
        assert_eq!(args.out, PathBuf::from("y"));
    }

    #[test]
    fn duplicate_value_flag_is_rejected() {
        let err = parse_from(&argv(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.contains("duplicate flag --seed"), "{err}");
    }

    /// No flag is boolean any more; the mode flag `--sweep` is the one a
    /// repeat must not re-select. The repeat is refused before its value
    /// is read, so a bare second `--sweep` is a duplicate too.
    #[test]
    fn duplicate_boolean_flag_is_rejected() {
        for flags in [
            &["--sweep", "base=tiny", "--sweep", "seeds=1"][..],
            &["--sweep", "base=tiny", "--sweep"],
        ] {
            let err = parse_from(&argv(flags)).unwrap_err();
            assert!(err.contains("duplicate flag --sweep"), "{flags:?}: {err}");
        }
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
        assert!(parse_from(&argv(&["--seed", "-1"])).is_err());
        assert!(parse_from(&argv(&["--seed"])).is_err());
    }
}
