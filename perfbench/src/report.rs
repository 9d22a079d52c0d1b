//! The metric catalog and the result line.
//!
//! The catalog mirrors `BENCHMARK.json` (a self-test holds the two
//! together): every run prints every end-to-end metric untraced, and
//! every per-layer metric traced.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit, better)`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("build_s", "s", "lower"),
    ("fresh_p50_ms", "ms", "lower"),
    ("fresh_p90_ms", "ms", "lower"),
    ("revision_p50_ms", "ms", "lower"),
    ("rtt_p50_us", "us", "lower"),
    ("rtt_p99_us", "us", "lower"),
    ("rps", "1/s", "higher"),
    ("sweep_s", "s", "lower"),
];

/// Per-layer metrics, `(name, unit, better)`, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("topology.generate_ms", "ms", "lower"),
    ("topology.routes_to_ms", "ms", "lower"),
    ("topology.routes_to_calls", "count", "lower"),
    ("topology.route_entries", "count", "lower"),
    ("topology.route_entries_used_ratio", "ratio", "higher"),
    ("measure.engine_new_ms", "ms", "lower"),
    ("measure.corpus_plan_ms", "ms", "lower"),
    ("measure.trace_ms", "ms", "lower"),
    ("measure.traces", "count", "higher"),
    ("measure.traces_per_table", "ratio", "higher"),
    ("measure.vps_ms", "ms", "lower"),
    ("measure.campaign_ms", "ms", "lower"),
    ("measure.campaign_observations", "count", "higher"),
    ("registry.fusion_ms", "ms", "lower"),
    ("bgp.prefix2as_ms", "ms", "lower"),
    ("bgp.prefixes", "count", "higher"),
    ("core.intern_ms", "ms", "lower"),
    ("core.step1_ms", "ms", "lower"),
    ("core.step2_ms", "ms", "lower"),
    ("core.step3_ms", "ms", "lower"),
    ("core.step4_ms", "ms", "lower"),
    ("core.step5_ms", "ms", "lower"),
    ("core.pipeline_full_ms", "ms", "lower"),
    ("core.assemble_seq_ms", "ms", "lower"),
    ("core.pipeline_seq_ms", "ms", "lower"),
    ("core.recompute_p50_ms", "ms", "lower"),
    ("core.dirty_units", "count", "lower"),
    ("core.dirty_share", "ratio", "lower"),
    ("core.dirty_step2_observations", "count", "lower"),
    ("core.dirty_step3_targets", "count", "lower"),
    ("core.dirty_corpus_traces", "count", "lower"),
    ("core.dirty_step4_candidates", "count", "lower"),
    ("core.dirty_step5_ixps", "count", "lower"),
    ("core.epoch_parallel_speedup", "ratio", "higher"),
    ("core.revision_parallel_speedup", "ratio", "higher"),
    ("service.publish_p50_ms", "ms", "lower"),
    ("service.publish_full_ms", "ms", "lower"),
    ("service.shared_partition_ratio", "ratio", "higher"),
    ("service.publish_dirty_ixps", "count", "lower"),
    ("service.publish_dirty_asns", "count", "lower"),
    ("service.fresh_query_us", "us", "lower"),
    ("service.verdict_us", "us", "lower"),
    ("service.asn_report_us", "us", "lower"),
    ("service.ixp_report_us", "us", "lower"),
    ("service.explain_us", "us", "lower"),
    ("service.query64_us", "us", "lower"),
    ("archive.evict_us", "us", "lower"),
    ("archive.retained_epochs", "count", "higher"),
    ("archive.retained_bytes", "bytes", "lower"),
    ("archive.at_us", "us", "lower"),
    ("archive.trend_us", "us", "lower"),
    ("archive.churn_us", "us", "lower"),
    ("gateway.dispatch_verdict_us", "us", "lower"),
    ("gateway.dispatch_asn_us", "us", "lower"),
    ("gateway.dispatch_ixp_us", "us", "lower"),
    ("gateway.dispatch_explain_us", "us", "lower"),
    ("gateway.dispatch_query_us", "us", "lower"),
    ("gateway.dispatch_trend_us", "us", "lower"),
    ("gateway.dispatch_churn_us", "us", "lower"),
    ("gateway.response_bytes", "bytes", "lower"),
    ("gateway.transport_p50_us", "us", "lower"),
    ("topology.scenario_ms", "ms", "lower"),
    ("core.scenario_epoch_ms", "ms", "lower"),
    ("fleet.cell_p50_ms", "ms", "lower"),
    ("host.ref_ms", "ms", "lower"),
    ("host.steal_pct", "%", "lower"),
    ("trace.coverage", "ratio", "higher"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (builds, epochs, requests or cells).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Every output check that failed, as text; empty when all held.
    pub problems: Vec<String>,
    /// Diagnostics for standard error that are not failures.
    pub notes: Vec<String>,
    /// Measured values by metric name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// The traced run's spans as JSON, for the span file.
    pub spans_json: Option<String>,
    /// Host readings around the timed window.
    pub host: Option<crate::host::HostReading>,
}

impl Outcome {
    /// Records an output check; a failed one fails every operation of
    /// the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
            self.failed = self.attempted;
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The outcome as text lines, for a parent process to read back with
    /// [`Outcome::from_lines`]: `attempted N`, `failed N`, `value NAME X`,
    /// `problem TEXT`, `note TEXT` and `spans JSON`. Host readings are
    /// not carried.
    pub fn to_lines(&self) -> String {
        let one_line = |text: &str| text.replace(['\r', '\n'], " ");
        let mut out = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for (name, value) in &self.values {
            let _ = writeln!(out, "value {name} {value:?}");
        }
        for problem in &self.problems {
            let _ = writeln!(out, "problem {}", one_line(problem));
        }
        for note in &self.notes {
            let _ = writeln!(out, "note {}", one_line(note));
        }
        if let Some(spans) = &self.spans_json {
            let _ = writeln!(out, "spans {spans}");
        }
        out
    }

    /// Parses [`Outcome::to_lines`]. Metric names must be in the
    /// end-to-end or the per-layer catalog.
    pub fn from_lines(text: &str) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let count = || {
                rest.parse::<u64>()
                    .map_err(|_| format!("bad count in `{line}`"))
            };
            match key {
                "attempted" => out.attempted = count()?,
                "failed" => out.failed = count()?,
                "value" => {
                    let (name, value) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("bad value line `{line}`"))?;
                    let name = END_TO_END
                        .iter()
                        .chain(PER_LAYER)
                        .map(|(n, _, _)| *n)
                        .find(|n| *n == name)
                        .ok_or_else(|| format!("unknown metric `{name}`"))?;
                    let value = value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value in `{line}`"))?;
                    out.set(name, value);
                }
                "problem" => out.problems.push(rest.to_string()),
                "note" => out.notes.push(rest.to_string()),
                "spans" => out.spans_json = Some(rest.to_string()),
                _ => return Err(format!("unexpected line `{line}`")),
            }
        }
        Ok(out)
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `catalog`, or the first metric missing or not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &BTreeMap<&'static str, f64>,
    catalog: &[(&str, &str, &str)],
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit, _)) in catalog.iter().enumerate() {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}
