//! Harness self-tests: a broken harness should fail here, in seconds,
//! not after a full set of benchmark runs. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use opeer_core::input::InferenceInput;
use opeer_perfbench::report::{result_line, Outcome, END_TO_END, PER_LAYER};
use opeer_perfbench::stats::{beyond, median, percentile, quantile, tail_percentile, MIN_BEYOND};
use opeer_perfbench::trace::{self_times, Span, Tracer};
use opeer_perfbench::workloads::{fingerprint, Params, Size, Workload};
use opeer_topology::WorldConfig;
use std::collections::{BTreeMap, BTreeSet};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quantile_interpolates_between_ranks() {
    let rounds = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(quantile(&rounds, 0.0), 1.0);
    assert_eq!(quantile(&rounds, 0.25), 2.0);
    assert_eq!(quantile(&rounds, 0.5), 3.0);
    assert_eq!(quantile(&rounds, 1.0), 5.0);
    assert_eq!(quantile(&[1.0, 3.0], 0.25), 1.5);
    assert_eq!(quantile(&[1.0, 2.0, 3.0, 5.0], 0.75), 3.5);
    assert_eq!(quantile(&[7.0], 0.25), 7.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.5), 50.0);
    assert_eq!(percentile(&samples, 0.9), 90.0);
    assert_eq!(percentile(&samples, 0.99), 99.0);
    assert_eq!(percentile(&samples, 1.0), 100.0);
    assert_eq!(percentile(&[5.0, 1.0], 0.5), 1.0);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    // p99 needs 1000 samples; p90 needs 100.
    assert_eq!(beyond(1000, 0.99), MIN_BEYOND);
    assert_eq!(beyond(999, 0.99), MIN_BEYOND - 1);
    assert_eq!(beyond(100, 0.9), MIN_BEYOND);
    assert_eq!(beyond(99, 0.9), MIN_BEYOND - 1);
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail_percentile(&thousand, 0.99), Ok(990.0));
    assert!(tail_percentile(&thousand[..999], 0.99).is_err());
    let stream: Vec<f64> = (1..=128).map(f64::from).collect();
    assert_eq!(tail_percentile(&stream, 0.9), Ok(116.0));
    assert!(tail_percentile(&stream[..99], 0.9).is_err());
    assert!(tail_percentile(&[], 0.5).is_err());
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("b", 30, 60, Some(0)), // overlaps a: the union counts once
        span("a.inner", 15, 20, Some(1)),
        span("late", 90, 120, Some(0)), // clipped to the parent's end
        span("other_root", 200, 210, None),
    ];
    assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 30, 10]);
}

#[test]
fn tracer_nests_spans_under_the_open_one() {
    let mut tr = Tracer::new();
    let out = tr.span("outer", |tr| {
        tr.span("first", |_| ());
        tr.span("second", |tr| tr.span("deep", |_| 7))
    });
    assert_eq!(out, 7);
    let parents: Vec<(&str, Option<usize>)> =
        tr.spans().iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(
        parents,
        vec![
            ("outer", None),
            ("first", Some(0)),
            ("second", Some(0)),
            ("deep", Some(2))
        ]
    );
    let self_ms = tr.self_ms_by_name();
    let total: f64 = self_ms.values().sum();
    assert!((total - tr.durations_ms("outer")[0]).abs() < 1e-6);
    assert!(tr.to_json().starts_with("[{\"name\":\"outer\""));
}

#[test]
fn result_line_carries_every_catalog_metric() {
    let values: BTreeMap<&'static str, f64> =
        END_TO_END.iter().map(|(n, _, _)| (*n, 1.5)).collect();
    let line = result_line(true, 3, 0, &values, END_TO_END).expect("complete catalog");
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"rps\": {\"value\": 1.5, \"unit\": \"1/s\"}"));
    let mut partial = values.clone();
    partial.remove("sweep_s");
    assert!(result_line(true, 3, 0, &partial, END_TO_END).is_err());
    partial.insert("sweep_s", f64::NAN);
    assert!(result_line(true, 3, 0, &partial, END_TO_END).is_err());
}

#[test]
fn failed_check_fails_every_operation() {
    let mut out = Outcome {
        attempted: 5,
        ..Outcome::default()
    };
    out.check(true, "fine");
    assert!(out.correct());
    out.check(false, "broken");
    assert_eq!(out.failed, 5);
    assert!(!out.correct());
}

#[test]
fn outcome_lines_round_trip() {
    let mut out = Outcome {
        attempted: 7,
        failed: 2,
        ..Outcome::default()
    };
    out.set("build_s", 0.1 + 0.2);
    out.set("rtt_p50_us", 43_995.125);
    out.set("trace.coverage", 1e-9);
    out.problems.push("two lines\nfolded".to_string());
    out.notes.push("skipped: {404: 3}".to_string());
    out.spans_json = Some("[{\"name\":\"a\"}]".to_string());
    let back = Outcome::from_lines(&out.to_lines()).expect("own lines parse");
    assert_eq!((back.attempted, back.failed), (7, 2));
    assert_eq!(back.values, out.values, "values round-trip exactly");
    assert_eq!(back.problems, vec!["two lines folded".to_string()]);
    assert_eq!(back.notes, out.notes);
    assert_eq!(back.spans_json, out.spans_json);
    assert!(Outcome::from_lines("value no_such_metric 1.0").is_err());
    assert!(Outcome::from_lines("attempted many").is_err());
}

#[test]
fn fingerprint_tracks_input_content() {
    let world = WorldConfig::small(5).generate();
    let input = InferenceInput::assemble(&world, 5);
    let again = InferenceInput::assemble(&world, 5);
    assert!(input.content_eq(&again));
    assert_eq!(fingerprint(&input), fingerprint(&again));
    let mut shorter = InferenceInput::assemble(&world, 5);
    shorter.corpus.pop();
    assert_ne!(fingerprint(&input), fingerprint(&shorter));
    let mut moved = InferenceInput::assemble(&world, 5);
    moved.campaign.observations.swap(0, 1);
    assert_ne!(fingerprint(&input), fingerprint(&moved));
}

/// Minimal reader for the flat parts of BENCHMARK.json this test needs:
/// the `name`, `unit` and `better` strings of one array, in order.
fn metric_fields(json: &str, array: &str) -> Vec<(String, String, String)> {
    let start = json.find(&format!("\"{array}\"")).expect("array present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("string closes");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let owned = |c: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        c.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(metric_fields(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(metric_fields(&json, "per_layer"), owned(PER_LAYER));
}

fn canary(workload: Workload, trace: bool) -> Outcome {
    let out = workload.run(&Params {
        size: Size::Canary,
        seed: 7,
        seconds: 1.0,
        trace,
    });
    assert!(
        out.correct(),
        "{} (trace {trace}) failed its checks: {:?}",
        workload.name(),
        out.problems
    );
    assert!(out.attempted > 0);
    out
}

/// Every workload finishes on a small world with every check passing,
/// and between them the workloads measure every catalog metric.
fn workloads_cover(trace: bool, catalog: &[(&str, &str, &str)]) {
    let mut measured = BTreeSet::new();
    for w in Workload::ALL {
        let out = canary(w, trace);
        if !trace {
            let own: BTreeSet<&str> = out.values.keys().copied().collect();
            assert_eq!(own, w.owns().iter().copied().collect(), "{} owns", w.name());
        }
        for (name, value) in &out.values {
            assert!(value.is_finite(), "{} measured {name} = {value}", w.name());
            measured.insert(*name);
        }
    }
    let missing: Vec<&str> = catalog
        .iter()
        .map(|(n, _, _)| *n)
        .filter(|n| !measured.contains(n))
        .collect();
    assert!(missing.is_empty(), "never measured: {missing:?}");
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    workloads_cover(false, END_TO_END);
}

#[test]
fn every_workload_passes_its_checks_traced() {
    workloads_cover(true, PER_LAYER);
}
