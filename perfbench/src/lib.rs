//! End-to-end and per-layer benchmark for the opeer stack.
//!
//! One invocation runs one named workload at full size with a given
//! seed and prints one result line. Untraced (`--trace 0`) the line
//! carries every end-to-end metric, traced (`--trace 1`) every
//! per-layer metric (see `BENCHMARK.json` and `perfbench/README.md`).
//!
//! A workload owns only the end-to-end metrics of the work its window
//! times. Because every result line must still carry every metric, the
//! other three workloads also run as *canaries* — the same code on a
//! small world, a two-seed grid and a short window, with a fixed seed —
//! and fill the metrics the workload does not own, each with the
//! quartile of its rounds nearest the best one. Each canary runs in a
//! child process of this program, half of its rounds before the workload
//! and half after it, so the workload's window starts from a fresh heap
//! and every canary reading is that of a fresh process; their output
//! checks count like the workload's.

pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::{result_line, Outcome, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use workloads::{Params, Size, Workload};

/// Seed of every canary run (fixed, so a canary's work never varies).
pub const CANARY_SEED: u64 = 42;
/// Window of the `wire_read` canary, seconds.
pub const CANARY_SECONDS: f64 = 1.0;
/// Untraced rounds of a canary, half before the workload and half after
/// it. Each round runs every canary that has rounds left; a canary
/// metric is the quartile of its rounds nearest the best one (the lower
/// quartile of a time). The work of a canary never varies, so what moves
/// its rounds is the host: slow stretches (CPU steal stalls a two-thread
/// run) and, more rarely, fast ones. The best round follows the fast
/// stretches and the median the slow ones; the quartile follows neither
/// (see `perfbench/README.md`). The counts trade steadiness against run
/// time.
fn canary_rounds(canary: Workload) -> usize {
    match canary {
        // A build of about 70 ms.
        Workload::ColdBuild => 5,
        // Epochs of about 2 ms, whose p90 a thread held up by the host moves.
        Workload::EpochStream => 7,
        // The server's fixed stall sets the median; two rounds steady the
        // p99 of a 45-request window.
        Workload::WireRead => 2,
        // About 0.6 s of cells, whose rounds move ±20 %.
        Workload::Sweep => 5,
    }
}

/// A finished invocation.
pub struct Run {
    /// The result line (the last line of standard output).
    pub line: String,
    /// Diagnostics for standard error: failed checks and host readings.
    pub notes: Vec<String>,
    /// The traced runs' spans as one JSON document.
    pub spans_json: Option<String>,
}

/// Runs `workload` at full size between two halves of the canaries'
/// rounds, each canary in a child process, and assembles the result
/// line. `Err` means the harness itself
/// is broken (a canary could not run or a metric was never measured),
/// not that a check failed.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    let higher = |name: &str| catalog.iter().any(|(n, _, b)| *n == name && *b == "higher");
    // Every round's reading per (canary, metric), keyed by the canary's
    // position in `Workload::ALL`: where several canaries measure a
    // metric, the first one's readings fill it, never a mix of different
    // work.
    let mut readings: BTreeMap<(usize, &'static str), Vec<f64>> = BTreeMap::new();
    let mut notes = Vec::new();
    let mut correct = true;
    let mut spans = Vec::new();
    // Untraced, a canary runs only if it measures something the workload
    // does not; traced, every canary runs once and adds layers.
    let rounds = |c: Workload| {
        if c == workload {
            0
        } else if trace {
            1
        } else if c.owns().iter().any(|m| !workload.owns().contains(m)) {
            canary_rounds(c)
        } else {
            0
        }
    };
    // Rounds `0..counts(c)` of every canary `c`, interleaved.
    let mut canary_rounds_of = |counts: &dyn Fn(Workload) -> usize| -> Result<(), String> {
        let most = Workload::ALL.into_iter().map(counts).max().unwrap_or(0);
        for round in 0..most {
            for (position, canary) in Workload::ALL
                .into_iter()
                .enumerate()
                .filter(|&(_, c)| round < counts(c))
            {
                let out = run_canary(canary, trace)?;
                for (&name, &value) in &out.values {
                    readings.entry((position, name)).or_default().push(value);
                }
                notes.extend(
                    out.problems
                        .iter()
                        .map(|p| format!("{} canary: check failed: {p}", canary.name())),
                );
                notes.extend(
                    out.notes
                        .iter()
                        .map(|n| format!("{} canary: {n}", canary.name())),
                );
                correct &= out.correct();
                if let Some(s) = &out.spans_json {
                    spans.push(format!(
                        "{{\"workload\":\"{}\",\"size\":\"canary\",\"spans\":{s}}}",
                        canary.name()
                    ));
                }
            }
        }
        Ok(())
    };
    // Half of each canary's rounds run before the workload and half after
    // it, so its quartile is drawn from the whole run rather than from one
    // stretch of the host. Being child processes, neither half shares
    // a heap with the workload.
    let before = |c: Workload| rounds(c).div_ceil(2);
    canary_rounds_of(&before)?;
    let home = workload.run(&Params {
        size: Size::Full,
        seed,
        seconds,
        trace,
    });
    canary_rounds_of(&|c| rounds(c) - before(c))?;
    if !trace {
        for ((position, name), values) in &readings {
            let values: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            notes.push(format!(
                "{} canary: {name} rounds {}",
                Workload::ALL[*position].name(),
                values.join(" ")
            ));
        }
    }
    notes.extend(
        home.problems
            .iter()
            .map(|p| format!("{}: check failed: {p}", workload.name())),
    );
    notes.extend(
        home.notes
            .iter()
            .map(|n| format!("{}: {n}", workload.name())),
    );
    if let Some(h) = home.host {
        notes.push(format!(
            "{}: engine_threads={} gateway_workers={} clients={} host_ref_ms_before={:.3} host_ref_ms_after={:.3} steal_pct={:.3}",
            workload.name(),
            workloads::ENGINE_THREADS,
            workloads::GATEWAY_WORKERS,
            workloads::CLIENTS,
            h.ref_before_ms,
            h.ref_after_ms,
            h.steal_pct
        ));
    }
    correct &= home.correct();
    if let Some(s) = &home.spans_json {
        spans.push(format!(
            "{{\"workload\":\"{}\",\"size\":\"full\",\"spans\":{s}}}",
            workload.name()
        ));
    }
    let mut values = home.values;
    for ((_, name), rounds) in &readings {
        let q = if higher(name) { 0.75 } else { 0.25 };
        values
            .entry(name)
            .or_insert_with(|| stats::quantile(rounds, q));
    }

    let attempted = home.attempted.max(1);
    let failed = if correct { home.failed } else { attempted };
    let line = result_line(correct, attempted, failed, &values, catalog)
        .map_err(|e| format!("{e}; {}", notes.join("; ")))?;
    Ok(Run {
        line,
        notes,
        spans_json: (!spans.is_empty()).then(|| format!("[{}]", spans.join(","))),
    })
}

/// Runs `canary` at canary size in a child process of this program (see
/// [`canary_lines`]) and waits for it to end. `Err` if the child could
/// not run or did not report.
fn run_canary(canary: Workload, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let child = Command::new(exe)
        .args([
            "--workload",
            canary.name(),
            "--seed",
            &CANARY_SEED.to_string(),
            "--seconds",
            &CANARY_SECONDS.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
            "--canary",
            "1",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{} canary did not start: {e}", canary.name()))?;
    if !child.status.success() {
        return Err(format!("{} canary {}", canary.name(), child.status));
    }
    Outcome::from_lines(&String::from_utf8_lossy(&child.stdout))
        .map_err(|e| format!("{} canary: {e}", canary.name()))
}

/// The child side of a canary: runs `workload` at canary size and
/// returns its outcome as [`Outcome::to_lines`] text.
pub fn canary_lines(workload: Workload, seed: u64, seconds: f64, trace: bool) -> String {
    workload
        .run(&Params {
            size: Size::Canary,
            seed,
            seconds,
            trace,
        })
        .to_lines()
}
