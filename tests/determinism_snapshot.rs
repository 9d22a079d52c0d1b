//! Pipeline determinism snapshot (Fig. 10a-style per-step ledger).
//!
//! Pins the exact number of inferences each methodology step produces
//! on one fixed-seed world, split by verdict. Unlike the tolerance
//! bands in `end_to_end.rs`, these are exact equalities: any refactor
//! that silently shifts work between steps (or changes a verdict)
//! trips this test even if aggregate accuracy stays identical.
//!
//! If a change intentionally alters step attribution, regenerate the
//! ledger by running the test and copying the printed actual counts —
//! and say so in the commit message.

use opeer::prelude::*;

const SEED: u64 = 42;

/// (step, local count, remote count) — regenerate via test output.
const EXPECTED_LEDGER: &[(Step, usize, usize)] = &[
    (Step::PortCapacity, 0, 56),
    (Step::RttColo, 261, 69),
    (Step::MultiIxp, 0, 3),
    (Step::PrivateLinks, 17, 13),
];

const EXPECTED_UNCLASSIFIED: usize = 211;

fn ledger(result: &PipelineResult) -> Vec<(Step, usize, usize)> {
    [
        Step::PortCapacity,
        Step::RttColo,
        Step::MultiIxp,
        Step::PrivateLinks,
    ]
    .into_iter()
    .map(|step| {
        let local = result
            .by_step(step)
            .filter(|i| !i.verdict.is_remote())
            .count();
        let remote = result
            .by_step(step)
            .filter(|i| i.verdict.is_remote())
            .count();
        (step, local, remote)
    })
    .collect()
}

#[test]
fn per_step_inference_counts_are_pinned() {
    let world = WorldConfig::small(SEED).generate();
    let input = InferenceInput::assemble(&world, SEED);
    let result = run_pipeline(&input, &PipelineConfig::default());

    let actual = ledger(&result);
    assert_eq!(
        (actual.as_slice(), result.unclassified.len()),
        (EXPECTED_LEDGER, EXPECTED_UNCLASSIFIED),
        "per-step ledger drifted; actual (step, local, remote): {actual:?}, \
         unclassified: {}",
        result.unclassified.len()
    );
}

#[test]
fn ledger_is_stable_across_reruns() {
    let run = || {
        let world = WorldConfig::small(SEED).generate();
        let input = InferenceInput::assemble(&world, SEED);
        let result = run_pipeline(&input, &PipelineConfig::default());
        (ledger(&result), result.unclassified.len())
    };
    assert_eq!(run(), run());
}

/// The incremental pipeline, replaying the measurements in epoch
/// batches at the `OPEER_THREADS`-selected pool size, must land on the
/// same pinned ledger and the same sequential result byte for byte —
/// CI's determinism matrix re-runs this at 1/2/8 threads.
#[test]
fn incremental_epoch_replay_matches_pinned_ledger_under_env_threads() {
    use opeer::measure::campaign::campaign_batches;
    use opeer::measure::traceroute::corpus_batches;

    let world = WorldConfig::small(SEED).generate();
    let input = InferenceInput::assemble(&world, SEED);
    let sequential = run_pipeline(&input, &PipelineConfig::default());

    let (_, campaign_cfg, corpus_cfg) = opeer::core::input::default_configs(SEED);
    let camp = campaign_batches(&world, &input.vps, campaign_cfg, 3);
    let corp = corpus_batches(&world, corpus_cfg, 3);
    let deltas = InputDelta::zip_batches(camp, corp);

    let par = ParallelConfig::from_env();
    let (pipe, result) = run_pipeline_incremental(
        InferenceInput::assemble_base(&world, SEED),
        deltas,
        &PipelineConfig::default(),
        &par,
    );
    assert!(
        pipe.input().content_eq(&input),
        "epoch replay reassembled different input at {} threads",
        par.threads
    );
    let actual = ledger(&result);
    assert_eq!(
        (actual.as_slice(), result.unclassified.len()),
        (EXPECTED_LEDGER, EXPECTED_UNCLASSIFIED),
        "incremental ledger drifted at {} threads; actual: {actual:?}, unclassified: {}",
        par.threads,
        result.unclassified.len()
    );
    assert_eq!(
        result, sequential,
        "incremental result diverged from sequential at {} threads",
        par.threads
    );
}

/// The serving layer, at the `OPEER_THREADS`-selected pool size (CI
/// runs this under a 1/2/8 matrix), must publish a snapshot whose
/// retained result — one `IncrementalPipeline::new` run, the parallel
/// one-shot path — matches the pinned ledger and the sequential
/// pipeline byte for byte, and its indexed rollups must agree with the
/// ledger tally this file pins.
#[test]
fn service_snapshot_matches_pinned_ledger_under_env_threads() {
    let world = WorldConfig::small(SEED).generate();
    let input = InferenceInput::assemble(&world, SEED);
    let sequential = run_pipeline(&input, &PipelineConfig::default());

    let par = ParallelConfig::from_env();
    let service = PeeringService::build(
        InferenceInput::assemble(&world, SEED),
        &PipelineConfig::default(),
        &par,
    );
    let snapshot = service.snapshot();
    assert_eq!(snapshot.epoch(), 0);
    let actual = ledger(snapshot.result());
    assert_eq!(
        (actual.as_slice(), snapshot.result().unclassified.len()),
        (EXPECTED_LEDGER, EXPECTED_UNCLASSIFIED),
        "service snapshot ledger drifted at {} threads; actual: {actual:?}",
        par.threads
    );
    assert_eq!(
        *snapshot.result(),
        sequential,
        "service snapshot diverged from sequential at {} threads",
        par.threads
    );
    // The indexed rollups must tally to the same pinned totals.
    let inferred: usize = snapshot
        .ixp_rollups()
        .iter()
        .map(|r| r.local + r.remote)
        .sum();
    let unclassified: usize = snapshot.ixp_rollups().iter().map(|r| r.unclassified).sum();
    assert_eq!(inferred, sequential.inferences.len());
    assert_eq!(unclassified, EXPECTED_UNCLASSIFIED);
}

/// (registry revision?, campaign observations, corpus traces) per
/// observation month of the seed-42 monthly evolution stream —
/// regenerate via test output.
const EXPECTED_MONTHLY_STREAM: &[(bool, usize, usize)] = &[
    (true, 908, 2791),
    (true, 771, 2796),
    (true, 778, 2811),
    (true, 721, 2803),
    (true, 939, 2814),
];

/// Inferences / unclassified after replaying the full seed-42 stream.
const EXPECTED_MONTHLY_FINAL: (usize, usize) = (445, 138);

/// The monthly evolution adapter is a pure function of
/// `(world, seed, month)`: emitting months `0..=k` and then `k+1..=n`
/// must produce exactly the stream of a single `0..=n` call, and the
/// seed-42 stream itself is pinned — both its per-month shape and the
/// state it replays to. Any drift in world evolution, registry fusion,
/// or the measurement planes trips this before the archive oracle does.
#[test]
fn monthly_delta_stream_is_prefix_consistent_and_pinned() {
    let world = WorldConfig::small(SEED).generate();
    let full = monthly_deltas(&world, SEED, 0..=4);

    // Prefix consistency: any split point yields the same stream.
    let delta_eq = |a: &InputDelta, b: &InputDelta| {
        a.campaign == b.campaign && a.corpus == b.corpus && a.registry == b.registry
    };
    for k in 0..4u32 {
        let mut split = monthly_deltas(&world, SEED, 0..=k);
        split.extend(monthly_deltas(&world, SEED, k + 1..=4));
        assert_eq!(split.len(), full.len());
        assert!(
            split.iter().zip(&full).all(|(a, b)| delta_eq(a, b)),
            "stream split at month {k} diverged from the one-shot stream"
        );
    }

    // The seed-42 stream shape is pinned.
    let actual: Vec<(bool, usize, usize)> = full
        .iter()
        .map(|d| {
            (
                d.registry.is_some(),
                d.campaign.as_ref().map_or(0, |c| c.observations.len()),
                d.corpus.len(),
            )
        })
        .collect();
    assert_eq!(
        actual.as_slice(),
        EXPECTED_MONTHLY_STREAM,
        "monthly stream shape drifted; actual: {actual:?}"
    );

    // And so is the state it replays to, at the
    // `OPEER_THREADS`-selected pool size.
    let par = ParallelConfig::from_env();
    let service = PeeringService::build(
        InferenceInput::assemble_base(&world, SEED),
        &PipelineConfig::default(),
        &par,
    );
    for delta in full {
        service.apply(delta);
    }
    let snap = service.snapshot();
    assert_eq!(snap.epoch(), 5);
    let final_counts = (
        snap.result().inferences.len(),
        snap.result().unclassified.len(),
    );
    assert_eq!(
        final_counts, EXPECTED_MONTHLY_FINAL,
        "replayed monthly state drifted at {} threads",
        par.threads
    );
}

/// Parallel assembly at the `OPEER_THREADS`-selected pool size must
/// reproduce the sequential artifacts, and the service built over it
/// the pinned ledger, byte for byte.
#[test]
fn parallel_assembly_matches_pinned_ledger_under_env_threads() {
    let world = WorldConfig::small(SEED).generate();
    let input = InferenceInput::assemble(&world, SEED);

    let par = ParallelConfig::from_env();
    let assembled = InferenceInput::assemble_parallel(&world, SEED, &par);
    assert!(
        assembled.content_eq(&input),
        "parallel assembly diverged at {} threads",
        par.threads
    );
    let service = PeeringService::build(assembled, &PipelineConfig::default(), &par);
    let snapshot = service.snapshot();
    let result = snapshot.result();
    let actual = ledger(result);
    assert_eq!(
        (actual.as_slice(), result.unclassified.len()),
        (EXPECTED_LEDGER, EXPECTED_UNCLASSIFIED),
        "ledger over parallel-assembled input drifted at {} threads; actual: {actual:?}",
        par.threads
    );
}
