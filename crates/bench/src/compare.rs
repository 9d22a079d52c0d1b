//! Regression comparison between two `BENCH_pipeline.json` reports.
//!
//! CI's perf job runs the scaling study twice per history: once when a
//! milestone is committed, and once per pull request. This module diffs
//! the two machine-readable reports phase by phase and flags every
//! configuration whose mean wall-clock regressed by more than a
//! tolerance (20 % by default — wide enough to absorb shared-runner
//! noise at `--bench-samples 2`, narrow enough to catch a real
//! algorithmic slip).
//!
//! The diff is **schema-tolerant**: it reads the reports as loose JSON
//! and only compares fields both sides carry, so a schema-5 baseline
//! can gate a schema-6 candidate (and vice versa) across the exact
//! phase/thread-count grid they share. Thread counts present on one
//! side only are skipped, not failed — sweeps legitimately differ
//! across runner shapes. Any other section (the `memory` and `sweep`
//! sections older schemas carried, for one) is ignored.

use serde_json::Value;

/// Default regression tolerance: a configuration fails when its new
/// mean exceeds the old mean by more than this fraction.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// The phases every report schema to date carries.
const PHASES: &[&str] = &["assembly", "pipeline", "end_to_end"];

/// One regressed configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Phase name (`assembly` / `pipeline` / `end_to_end`).
    pub phase: String,
    /// Thread count of the regressed point, or `None` for the
    /// sequential reference.
    pub threads: Option<usize>,
    /// Baseline mean wall-clock, milliseconds.
    pub old_mean_ms: f64,
    /// Candidate mean wall-clock, milliseconds.
    pub new_mean_ms: f64,
    /// `new / old` — always `> 1 + tolerance` for a reported entry.
    pub ratio: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.threads {
            Some(t) => write!(
                f,
                "{} @ {} threads: {:.3} ms -> {:.3} ms ({:+.1} %)",
                self.phase,
                t,
                self.old_mean_ms,
                self.new_mean_ms,
                (self.ratio - 1.0) * 100.0
            ),
            None => write!(
                f,
                "{} sequential: {:.3} ms -> {:.3} ms ({:+.1} %)",
                self.phase,
                self.old_mean_ms,
                self.new_mean_ms,
                (self.ratio - 1.0) * 100.0
            ),
        }
    }
}

/// The outcome of a comparison: every shared configuration that
/// regressed past the tolerance, plus how many were compared at all
/// (so an empty regression list on a zero-overlap diff is detectable).
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Configurations (sequential references + thread points) compared.
    pub compared: usize,
    /// Configurations that regressed past the tolerance.
    pub regressions: Vec<Regression>,
}

impl Comparison {
    /// Whether the candidate passes the gate: at least one shared
    /// configuration was compared and none regressed.
    pub fn passed(&self) -> bool {
        self.compared > 0 && self.regressions.is_empty()
    }
}

fn mean_of(timing: &Value) -> Option<f64> {
    timing.get("mean")?.as_f64().filter(|m| m.is_finite())
}

/// Compares a phase's sequential reference and per-thread points,
/// appending regressions. Returns how many configurations overlapped.
fn compare_phase(
    phase: &str,
    old: &Value,
    new: &Value,
    tolerance: f64,
    out: &mut Vec<Regression>,
) -> usize {
    let mut compared = 0;
    if let (Some(o), Some(n)) = (
        old.get("sequential_ms").and_then(mean_of),
        new.get("sequential_ms").and_then(mean_of),
    ) {
        compared += 1;
        if n > o * (1.0 + tolerance) {
            out.push(Regression {
                phase: phase.to_string(),
                threads: None,
                old_mean_ms: o,
                new_mean_ms: n,
                ratio: n / o.max(f64::EPSILON),
            });
        }
    }
    let empty = Vec::new();
    let old_points = old
        .get("points")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    let new_points = new
        .get("points")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    for op in old_points {
        let Some(threads) = op.get("threads").and_then(Value::as_u64) else {
            continue;
        };
        // Match by thread count, not position: sweeps may differ.
        let Some(np) = new_points
            .iter()
            .find(|p| p.get("threads").and_then(Value::as_u64) == Some(threads))
        else {
            continue;
        };
        let (Some(o), Some(n)) = (
            op.get("timing_ms").and_then(mean_of),
            np.get("timing_ms").and_then(mean_of),
        ) else {
            continue;
        };
        compared += 1;
        if n > o * (1.0 + tolerance) {
            out.push(Regression {
                phase: phase.to_string(),
                threads: Some(threads as usize),
                old_mean_ms: o,
                new_mean_ms: n,
                ratio: n / o.max(f64::EPSILON),
            });
        }
    }
    compared
}

/// Diffs two parsed reports. Errors only on structurally unusable
/// input (no recognizable phase on either side); missing individual
/// fields are skipped.
pub fn compare_reports(old: &Value, new: &Value, tolerance: f64) -> Result<Comparison, String> {
    if old.as_object().is_none() || new.as_object().is_none() {
        return Err("both reports must be JSON objects".to_string());
    }
    let mut regressions = Vec::new();
    let mut compared = 0;
    for &phase in PHASES {
        if let (Some(o), Some(n)) = (old.get(phase), new.get(phase)) {
            compared += compare_phase(phase, o, n, tolerance, &mut regressions);
        }
    }
    if compared == 0 {
        return Err(format!(
            "no comparable phase configurations (expected {PHASES:?} with sequential_ms/points)"
        ));
    }
    Ok(Comparison {
        compared,
        regressions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("fixture parses")
    }

    /// A report fixture with one shared `per_thread` sweep across the
    /// three phases (each phase's times scaled so regressions stay
    /// phase-local), overriding `overrides` pairs like
    /// `("pipeline", Some(8), 30.0)` on the mean.
    fn report(
        schema: &str,
        seq: f64,
        per_thread: &[(u64, f64)],
        overrides: &[(&str, Option<u64>, f64)],
    ) -> Value {
        let mut phases = String::new();
        for (i, (phase, scale)) in [("assembly", 10.0), ("pipeline", 1.0), ("end_to_end", 11.0)]
            .iter()
            .enumerate()
        {
            if i > 0 {
                phases.push(',');
            }
            let seq_mean = overrides
                .iter()
                .find(|(p, t, _)| p == phase && t.is_none())
                .map(|&(_, _, v)| v)
                .unwrap_or(seq * scale);
            let points = per_thread
                .iter()
                .map(|&(t, ms)| {
                    let mean = overrides
                        .iter()
                        .find(|(p, ot, _)| p == phase && *ot == Some(t))
                        .map(|&(_, _, v)| v)
                        .unwrap_or(ms * scale);
                    format!(
                        r#"{{"threads": {t}, "timing_ms": {{"min": {mean}, "mean": {mean}, "max": {mean}}}, "speedup": 1.0, "identical": true}}"#
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            phases.push_str(&format!(
                r#""{phase}": {{"sequential_ms": {{"min": {seq_mean}, "mean": {seq_mean}, "max": {seq_mean}}}, "points": [{points}]}}"#
            ));
        }
        parse(&format!(r#"{{"schema": "{schema}", {phases}}}"#))
    }

    const V6: &str = "opeer-bench-pipeline/6";

    #[test]
    fn identical_reports_pass() {
        let r = report(V6, 100.0, &[(1, 100.0), (2, 55.0), (8, 20.0)], &[]);
        let c = compare_reports(&r, &r, DEFAULT_TOLERANCE).expect("comparable");
        // 3 phases × (1 sequential + 3 points).
        assert_eq!(c.compared, 12);
        assert!(c.passed(), "{:?}", c.regressions);
    }

    #[test]
    fn within_tolerance_noise_passes() {
        let old = report(V6, 100.0, &[(1, 100.0), (8, 20.0)], &[]);
        let new = report(V6, 115.0, &[(1, 115.0), (8, 23.0)], &[]);
        let c = compare_reports(&old, &new, DEFAULT_TOLERANCE).expect("comparable");
        assert!(c.passed(), "{:?}", c.regressions);
    }

    #[test]
    fn regression_past_tolerance_fails_with_the_culprit_named() {
        let old = report(V6, 100.0, &[(1, 100.0), (8, 20.0)], &[]);
        // Slow the 8-thread pipeline point by 50 %.
        let new = report(
            V6,
            100.0,
            &[(1, 100.0), (8, 20.0)],
            &[("pipeline", Some(8), 30.0)],
        );
        let c = compare_reports(&old, &new, DEFAULT_TOLERANCE).expect("comparable");
        assert!(!c.passed());
        assert_eq!(c.regressions.len(), 1);
        let r = &c.regressions[0];
        assert_eq!(r.phase, "pipeline");
        assert_eq!(r.threads, Some(8));
        assert!((r.ratio - 1.5).abs() < 1e-9);
        assert!(r.to_string().contains("pipeline @ 8 threads"));
    }

    #[test]
    fn sequential_regression_is_caught_too() {
        let old = report(V6, 100.0, &[(1, 100.0)], &[]);
        let new = report(
            V6,
            100.0,
            &[(1, 100.0)],
            &[("end_to_end", None, 11.0 * 100.0 * 1.4)],
        );
        let c = compare_reports(&old, &new, DEFAULT_TOLERANCE).expect("comparable");
        assert_eq!(c.regressions.len(), 1);
        assert_eq!(c.regressions[0].threads, None);
        assert_eq!(c.regressions[0].phase, "end_to_end");
    }

    #[test]
    fn disjoint_thread_sweeps_compare_only_the_overlap() {
        let old = report(V6, 100.0, &[(1, 100.0), (4, 30.0)], &[]);
        let new = report(V6, 100.0, &[(1, 100.0), (16, 10.0)], &[]);
        let c = compare_reports(&old, &new, DEFAULT_TOLERANCE).expect("comparable");
        // 3 phases × (sequential + the shared threads=1 point).
        assert_eq!(c.compared, 6);
        assert!(c.passed());
    }

    #[test]
    fn older_schema_without_new_fields_still_compares() {
        // Schema 5 had no best_pipeline_speedup; the diff reads phases only.
        let old = report(
            "opeer-bench-pipeline/5",
            100.0,
            &[(1, 100.0), (8, 20.0)],
            &[],
        );
        let new = report(V6, 100.0, &[(1, 100.0), (8, 20.0)], &[]);
        let c = compare_reports(&old, &new, DEFAULT_TOLERANCE).expect("comparable");
        assert!(c.passed());
    }

    /// Wraps a phase fixture with a `memory` section, as schema 8 and 9
    /// reports carried.
    fn with_memory(mut report: Value) -> Value {
        let section = parse(
            r#"{"full_publish_ms": 50.0, "zero_dirty_publish_ms": 0.5, "retained_bytes_final": 1000000}"#,
        );
        let Value::Object(members) = &mut report else {
            panic!("object fixture");
        };
        members.push(("memory".to_string(), section));
        report
    }

    #[test]
    fn schema_7_baseline_without_memory_skips_the_section() {
        let old = report("opeer-bench-pipeline/7", 100.0, &[(1, 100.0)], &[]);
        let new = with_memory(report(V6, 100.0, &[(1, 100.0)], &[]));
        let c = compare_reports(&old, &new, DEFAULT_TOLERANCE).expect("comparable");
        assert_eq!(c.compared, 6);
        assert!(c.passed());
        // A section on both sides is not compared either: only the
        // phases are gated.
        let c = compare_reports(&new, &new, DEFAULT_TOLERANCE).expect("comparable");
        assert_eq!(c.compared, 6);
    }

    #[test]
    fn pipeline_baseline_without_sweep_skips_the_section() {
        // A v8 BENCH_pipeline.json gating a candidate that carries a
        // `sweep` section must not fail the diff.
        let old = report("opeer-bench-pipeline/8", 100.0, &[(1, 100.0)], &[]);
        let Value::Object(members) = &mut report(V6, 100.0, &[(1, 100.0)], &[]).clone() else {
            panic!("object fixture");
        };
        members.push((
            "sweep".to_string(),
            parse(r#"{"total_wall_ms": 5.0, "mean_cell_wall_ms": 1.0}"#),
        ));
        let new = Value::Object(members.clone());
        let c = compare_reports(&old, &new, DEFAULT_TOLERANCE).expect("comparable");
        assert_eq!(c.compared, 6);
        assert!(c.passed());
        // A `BENCH_sweep.json` carries no phase, so diffing two of them
        // is an error, not a vacuous pass.
        let sweep_only = parse(
            r#"{"schema": "opeer-bench-pipeline/10", "sweep": {"total_wall_ms": 5.0, "mean_cell_wall_ms": 1.0}}"#,
        );
        assert!(compare_reports(&sweep_only, &sweep_only, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn structurally_unusable_reports_error_instead_of_vacuously_passing() {
        assert!(compare_reports(&parse("[]"), &parse("{}"), DEFAULT_TOLERANCE).is_err());
        assert!(compare_reports(&parse("{}"), &parse("{}"), DEFAULT_TOLERANCE).is_err());
        let no_overlap = parse(r#"{"assembly": {"points": []}}"#);
        assert!(compare_reports(&no_overlap, &no_overlap, DEFAULT_TOLERANCE).is_err());
    }
}
