//! Incremental/one-shot equivalence of the delta-driven pipeline.
//!
//! The contract under test is the headline invariant of the streaming
//! refactor: **for every consecutive partition of the measurements into
//! epoch batches, at every thread count, the `PipelineResult` after the
//! last epoch is byte-identical to the one-shot `run_pipeline` over the
//! fully assembled input** — same inferences, same diagnostics, same
//! `StepCounts`. The proptest drives random partitions over generated
//! worlds; the deterministic tests pin the mid-stream invariant (every
//! *prefix* of the stream also matches its one-shot counterpart) and
//! the dirty-shard accounting that makes the replay incremental at all.

use opeer::measure::campaign::{campaign_batches, CampaignResult};
use opeer::measure::traceroute::corpus_batches;
use opeer::prelude::*;
use proptest::prelude::*;

/// Same tiny world as `tests/parallel_equivalence.rs`: world generation
/// and assembly dominate each proptest case, not the pipeline.
fn tiny_world(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::small(seed);
    cfg.scale = 0.02;
    cfg.n_small_ixps = 6;
    cfg.n_background_ases = 50;
    cfg.n_switchers = 2;
    cfg
}

/// Cuts `0..n` at the given per-mille fractions (sorted, deduplicated)
/// into consecutive, possibly empty ranges covering the whole span —
/// the arbitrary-partition generator of the proptest.
fn cut(n: usize, permille: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut cuts: Vec<usize> = permille.iter().map(|&p| n * p.min(1000) / 1000).collect();
    cuts.sort_unstable();
    let mut ranges = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0;
    for c in cuts {
        ranges.push(start..c.max(start));
        start = c.max(start);
    }
    ranges.push(start..n);
    ranges
}

/// Builds epoch deltas by slicing a fully assembled input's campaign
/// and corpus at independent cut points. Empty slices are legal deltas.
fn deltas_from_cuts(
    full: &InferenceInput<'_>,
    campaign_permille: &[usize],
    corpus_permille: &[usize],
) -> Vec<InputDelta> {
    let obs_ranges = cut(full.campaign.observations.len(), campaign_permille);
    let stat_ranges = cut(full.campaign.vp_stats.len(), campaign_permille);
    let corpus_ranges = cut(full.corpus.len(), corpus_permille);
    (0..obs_ranges.len().max(corpus_ranges.len()))
        .map(|e| InputDelta {
            campaign: obs_ranges.get(e).map(|r| CampaignResult {
                observations: full.campaign.observations[r.clone()].to_vec(),
                vp_stats: full.campaign.vp_stats[stat_ranges[e].clone()].to_vec(),
            }),
            corpus: corpus_ranges
                .get(e)
                .map(|r| full.corpus[r.clone()].to_vec())
                .unwrap_or_default(),
            registry: None,
        })
        .collect()
}

proptest! {
    // Case count comes from proptest.toml (PROPTEST_CASES overrides).
    // Each case: one world, one one-shot reference, and one random
    // 4-way partition of campaign + corpus replayed at 1 and at a
    // random 2..=8 thread count.
    #[test]
    fn incremental_equals_one_shot_for_any_partition(
        seed in 0u64..10_000,
        threads in 2usize..=8,
        camp_cuts in proptest::collection::vec(0usize..=1000, 3),
        corp_cuts in proptest::collection::vec(0usize..=1000, 3),
    ) {
        let world = tiny_world(seed).generate();
        let full = InferenceInput::assemble(&world, seed);
        let cfg = PipelineConfig::default();
        let one_shot = run_pipeline(&full, &cfg);
        let deltas = deltas_from_cuts(&full, &camp_cuts, &corp_cuts);
        for n in [1, threads] {
            let (pipe, result) = run_pipeline_incremental(
                InferenceInput::assemble_base(&world, seed),
                deltas_from_cuts(&full, &camp_cuts, &corp_cuts),
                &cfg,
                &ParallelConfig::new(n),
            );
            prop_assert!(
                pipe.input().content_eq(&full),
                "accumulated input diverged on seed {} at {} threads ({} epochs)",
                seed, n, deltas.len()
            );
            prop_assert_eq!(
                &result,
                &one_shot,
                "incremental result diverged on seed {} at {} threads ({} epochs)",
                seed, n, deltas.len()
            );
        }
    }
}

#[test]
fn every_epoch_prefix_matches_its_one_shot() {
    // The mid-stream invariant: after *each* apply — not just the last —
    // the retained result equals a one-shot run over the input
    // accumulated so far. This is what makes the retained state usable
    // as a live view, not only as a cheaper way to reach the end.
    let world = WorldConfig::small(11).generate();
    let seed = 11;
    let full = InferenceInput::assemble(&world, seed);
    let (_, campaign_cfg, corpus_cfg) = opeer::core::input::default_configs(seed);
    let camp = campaign_batches(&world, &full.vps, campaign_cfg, 3);
    let corp = corpus_batches(&world, corpus_cfg, 3);

    let cfg = PipelineConfig::default();
    let mut pipe = IncrementalPipeline::new(
        InferenceInput::assemble_base(&world, seed),
        &cfg,
        &ParallelConfig::new(2),
    );
    let mut prefix = InferenceInput::assemble_base(&world, seed);
    for e in 0..camp.len().max(corp.len()) {
        let campaign = camp.get(e).cloned();
        let corpus = corp.get(e).cloned().unwrap_or_default();
        if let Some(c) = &campaign {
            prefix.campaign.absorb(c.clone());
        }
        prefix.corpus.extend(corpus.iter().cloned());
        pipe.apply(InputDelta {
            campaign,
            corpus,
            registry: None,
        });
        let reference = run_pipeline(&prefix, &cfg);
        assert!(
            pipe.input().content_eq(&prefix),
            "epoch {e}: accumulated input diverged"
        );
        assert_eq!(
            *pipe.result(),
            reference,
            "epoch {e}: mid-stream result diverged from its one-shot"
        );
    }
    assert!(
        pipe.input().content_eq(&full),
        "stream did not reconstruct the full input"
    );
}

#[test]
fn epoch_replay_is_incremental_not_a_disguised_rerun() {
    // Dirty-shard accounting: a later epoch must leave most of the
    // retained state untouched — step 1 entirely (no registry deltas),
    // and strictly fewer step-3 targets / step-4 candidates than the
    // totals. This is the cost claim behind the BENCH schema-v3
    // streaming section, pinned here so it cannot silently regress into
    // recompute-everything (which would pass every equality test).
    let world = WorldConfig::small(109).generate();
    let seed = 109;
    let full = InferenceInput::assemble(&world, seed);
    let (_, campaign_cfg, corpus_cfg) = opeer::core::input::default_configs(seed);
    let camp = campaign_batches(&world, &full.vps, campaign_cfg, 4);
    let corp = corpus_batches(&world, corpus_cfg, 4);

    let mut pipe = IncrementalPipeline::new(
        InferenceInput::assemble_base(&world, seed),
        &PipelineConfig::default(),
        &ParallelConfig::new(2),
    );
    let mut last = DirtyCounts::default();
    for (e, delta) in InputDelta::zip_batches(camp, corp).into_iter().enumerate() {
        pipe.apply(delta);
        last = pipe.last_dirty();
        assert_eq!(
            last.step1_ixps, 0,
            "epoch {e} re-ran step 1 without a registry revision"
        );
    }
    let totals = pipe.totals();
    assert!(totals.targets > 0 && totals.step4_candidates > 0);
    assert!(
        last.step3_targets < totals.targets,
        "last epoch re-evaluated every target ({} of {})",
        last.step3_targets,
        totals.targets
    );
    assert!(
        last.step4_candidates < totals.step4_candidates,
        "last epoch re-classified every candidate ({} of {})",
        last.step4_candidates,
        totals.step4_candidates
    );
    assert!(
        last.total() < totals.total() / 2,
        "last epoch recomputed {} of {} shard units",
        last.total(),
        totals.total()
    );
}

#[test]
fn thread_count_never_leaks_into_the_incremental_result() {
    // Same partition, pool sizes from degenerate to oversubscribed:
    // every final result must be identical to every other.
    let world = WorldConfig::small(4242).generate();
    let seed = 4242;
    let full = InferenceInput::assemble(&world, seed);
    let deltas = |cuts: &[usize]| deltas_from_cuts(&full, cuts, cuts);
    let reference = run_pipeline_incremental(
        InferenceInput::assemble_base(&world, seed),
        deltas(&[250, 500, 750]),
        &PipelineConfig::default(),
        &ParallelConfig::new(1),
    )
    .1;
    for threads in [2, 3, 8, 64] {
        let (_, result) = run_pipeline_incremental(
            InferenceInput::assemble_base(&world, seed),
            deltas(&[250, 500, 750]),
            &PipelineConfig::default(),
            &ParallelConfig::new(threads),
        );
        assert_eq!(
            result, reference,
            "thread count {threads} changed the result"
        );
    }
}

#[test]
fn lg_rounding_off_reaches_the_incremental_pipeline() {
    // A non-default config must flow through the product, not only the
    // reference: with the §6.1 rounding correction off, the full
    // recompute and a 3-epoch replay both equal `run_pipeline` under
    // the same config, and that result differs from the default one.
    let world = WorldConfig::small(11).generate();
    let seed = 11;
    let full = InferenceInput::assemble(&world, seed);
    let cfg = PipelineConfig::builder()
        .honor_lg_rounding(false)
        .build()
        .expect("valid config");
    let reference = run_pipeline(&full, &cfg);
    assert_ne!(
        reference,
        run_pipeline(&full, &PipelineConfig::default()),
        "rounding correction changed nothing on this world"
    );

    let par = ParallelConfig::new(2);
    let rebuilt = IncrementalPipeline::new(InferenceInput::assemble(&world, seed), &cfg, &par);
    assert_eq!(*rebuilt.result(), reference, "full recompute diverged");

    let (_, campaign_cfg, corpus_cfg) = opeer::core::input::default_configs(seed);
    let deltas = InputDelta::zip_batches(
        campaign_batches(&world, &full.vps, campaign_cfg, 3),
        corpus_batches(&world, corpus_cfg, 3),
    );
    assert_eq!(deltas.len(), 3);
    let (_, replayed) = run_pipeline_incremental(
        InferenceInput::assemble_base(&world, seed),
        deltas,
        &cfg,
        &par,
    );
    assert_eq!(replayed, reference, "3-epoch replay diverged");
}
