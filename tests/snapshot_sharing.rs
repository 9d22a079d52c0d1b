//! Structural-sharing oracle for the partitioned [`Snapshot`] publish:
//! a zero-dirty epoch must publish with **100 % partition
//! pointer-equality** to the prior snapshot (the whole publish is
//! refcount bumps), a dirty epoch must rebuild exactly the partitions
//! its [`PublishDirty`] sets name — never aliasing a stale partition
//! for a dirty IXP or ASN segment, never copying a clean one — and
//! whatever was shared, every answer must stay byte-identical to a
//! from-scratch [`Snapshot::build_full`] at the same epoch.

use opeer::core::input::default_configs;
use opeer::core::service::SEGMENT_WIDTH;
use opeer::measure::campaign::{campaign_batches, CampaignResult};
use opeer::measure::traceroute::corpus_batches;
use opeer::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Instant;

/// Same tiny world as the other equivalence suites: world generation
/// and assembly dominate each case, not the pipeline.
fn tiny_world(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::small(seed);
    cfg.scale = 0.02;
    cfg.n_small_ixps = 6;
    cfg.n_background_ases = 50;
    cfg.n_switchers = 2;
    cfg
}

/// Cuts `0..n` at the given per-mille fractions into consecutive,
/// possibly empty ranges covering the whole span.
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
/// and corpus at independent cut points.
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

/// The dirty ASN set mapped onto segment indices, exactly as the delta
/// publish maps it (unknown ASNs cannot have a segment and are
/// skipped).
fn dirty_segments(publish: &PublishDirty, input: &InferenceInput<'_>) -> BTreeSet<usize> {
    publish
        .asns
        .iter()
        .filter_map(|&asn| input.interns.asn_id(asn))
        .map(|id| id.0 as usize / SEGMENT_WIDTH)
        .collect()
}

/// The sharing oracle for one published epoch: pointer identities must
/// follow the publish's dirty sets partition by partition, and the
/// published answers must equal a from-scratch build.
fn assert_sharing_structure(
    report: &ApplyReport,
    prev_ptrs: &PartitionPtrs,
    input: &InferenceInput<'_>,
    par: &ParallelConfig,
) {
    let snap = &report.snapshot;
    let ptrs = snap.partition_ptrs();
    let publish = &report.publish;

    if publish.is_clean() {
        // Zero-dirty epoch: every partition — registry, core,
        // contributions, all IXPs, all segments — is the prior Arc.
        assert_eq!(
            &ptrs, prev_ptrs,
            "clean epoch must share 100 % of its partitions"
        );
        return;
    }

    if publish.full {
        // Registry revision / construction: everything is rebuilt, and
        // with the previous snapshot still alive no fresh allocation
        // can reuse its addresses.
        assert_ne!(ptrs.registry, prev_ptrs.registry, "full rebuild aliased");
        assert_ne!(ptrs.core, prev_ptrs.core, "full rebuild aliased");
    } else {
        // Measurement-only epoch: the registry partition is a pure
        // function of the untouched registry view.
        assert_eq!(ptrs.registry, prev_ptrs.registry, "registry must share");
        // The merged result changed, so the core partition is fresh.
        assert_ne!(ptrs.core, prev_ptrs.core, "core must rebuild");
        assert_eq!(ptrs.ixps.len(), prev_ptrs.ixps.len(), "IXP grid moved");
        for (i, (new_ptr, old_ptr)) in ptrs.ixps.iter().zip(&prev_ptrs.ixps).enumerate() {
            if publish.ixps.contains(&i) {
                assert_ne!(
                    new_ptr, old_ptr,
                    "dirty IXP {i} aliased its stale partition"
                );
            } else {
                assert_eq!(new_ptr, old_ptr, "clean IXP {i} was copied, not shared");
            }
        }
        let dirty_segs = dirty_segments(publish, input);
        assert_eq!(ptrs.segments.len(), prev_ptrs.segments.len());
        for (s, (new_ptr, old_ptr)) in ptrs.segments.iter().zip(&prev_ptrs.segments).enumerate() {
            if dirty_segs.contains(&s) {
                assert_ne!(
                    new_ptr, old_ptr,
                    "dirty ASN segment {s} aliased its stale partition"
                );
            } else {
                assert_eq!(new_ptr, old_ptr, "clean segment {s} was copied, not shared");
            }
        }
        // Contributions are derived from the rollups: shared iff no
        // rollup was rebuilt.
        if publish.ixps.is_empty() {
            assert_eq!(ptrs.contributions, prev_ptrs.contributions);
        } else {
            assert_ne!(ptrs.contributions, prev_ptrs.contributions);
        }
    }

    // Whatever was shared, the published snapshot must answer exactly
    // like a from-scratch build over the same state.
    let baseline = Snapshot::build_full(report.epoch, input, snap.result().clone(), par);
    assert!(
        snap.content_eq(&baseline),
        "delta publish diverged from the non-shared baseline at epoch {}",
        report.epoch
    );
}

proptest! {
    // Case count comes from proptest.toml (PROPTEST_CASES overrides).
    // Each case: one world, a random 3-way epoch partition, a random
    // pool size. After every real epoch the sharing structure is
    // audited, and a zero-dirty epoch is injected and must publish by
    // pointer equality alone.
    #[test]
    fn publish_shares_exactly_the_clean_partitions(
        seed in 0u64..10_000,
        threads in 1usize..=6,
        camp_cuts in proptest::collection::vec(0usize..=1000, 2),
        corp_cuts in proptest::collection::vec(0usize..=1000, 2),
    ) {
        let world = tiny_world(seed).generate();
        let full = InferenceInput::assemble(&world, seed);
        let cfg = PipelineConfig::default();
        let par = ParallelConfig::new(threads);
        let deltas = deltas_from_cuts(&full, &camp_cuts, &corp_cuts);

        let service = PeeringService::build(
            InferenceInput::assemble_base(&world, seed),
            &cfg,
            &par,
        );
        for delta in deltas {
            let prev = service.snapshot();
            let prev_ptrs = prev.partition_ptrs();
            let report = service.apply_reported(delta);
            {
                let input = service.input();
                assert_sharing_structure(&report, &prev_ptrs, &input, &par);
            }

            // A zero-dirty epoch right after: the pipeline's early-exit
            // marks the publish clean, so the snapshot must be 100 %
            // pointer-equal to the one just published.
            let before = report.snapshot.partition_ptrs();
            let clean = service.apply_reported(InputDelta::default());
            prop_assert!(clean.publish.is_clean(), "empty delta must publish clean");
            prop_assert_eq!(
                clean.snapshot.partition_ptrs(),
                before,
                "zero-dirty epoch must share every partition"
            );
            prop_assert_eq!(clean.epoch, report.epoch + 1);
        }
        prop_assert!(
            service.input().content_eq(&full),
            "accumulated input diverged on seed {}", seed
        );
    }
}

/// The deterministic spine of the proptest: an empty delta stream on a
/// warm service publishes epoch after epoch with full pointer equality
/// while every epoch tag still advances, and the deduplicated retained
/// size of the whole stream stays that of roughly one snapshot.
#[test]
fn empty_delta_stream_is_refcount_bumps_all_the_way_down() {
    let seed = 2018;
    let world = WorldConfig::small(seed).generate();
    let service = PeeringService::build(
        InferenceInput::assemble(&world, seed),
        &PipelineConfig::default(),
        &ParallelConfig::new(2),
    );
    let first = service.snapshot();
    let ptrs = first.partition_ptrs();
    let mut retained = vec![first.clone()];
    for e in 1..=16u64 {
        let report = service.apply_reported(InputDelta::default());
        assert_eq!(report.epoch, e);
        assert!(report.publish.is_clean());
        assert_eq!(report.snapshot.partition_ptrs(), ptrs);
        assert_eq!(report.snapshot.epoch(), e);
        retained.push(report.snapshot.clone());
    }
    // All 17 retained snapshots share one set of partitions: counted
    // with deduplication they cost one snapshot plus 16 headers.
    let mut seen = PartitionSeen::default();
    let deduped: usize = retained
        .iter()
        .map(|s| s.retained_bytes_deduped(&mut seen))
        .sum();
    let alone = first.retained_bytes();
    assert!(
        deduped < alone + retained.len() * 4096,
        "deduped {deduped} bytes should be ~one snapshot ({alone}) plus headers"
    );
    // And the shared snapshot still answers queries at each epoch tag.
    assert_eq!(retained[3].epoch(), 3);
    assert_eq!(retained[3].result(), first.result());
}

/// The memory gates of an unbounded epoch stream through a
/// retention-capped archive: a fill phase of campaign/corpus batches,
/// then a tail of empty deltas (the steady state such a stream spends
/// its life in). The cap holds after every apply; once the window holds
/// only tail snapshots, the deduplicated retained bytes stay flat; every
/// clean publish shares all partitions with its predecessor and costs at
/// least 10× less than a from-scratch build; and the final snapshot
/// answers exactly like a non-shared baseline over the one-shot result.
#[test]
fn retention_capped_stream_keeps_a_flat_ceiling_and_cheap_clean_publishes() {
    const RETAIN: usize = 3;
    const FILL_BATCHES: usize = 4;
    const TAIL: usize = 8;
    let seed = 7;
    let world = WorldConfig::small(seed).generate();
    let cfg = PipelineConfig::default();
    let par = ParallelConfig::new(2);
    let service = PeeringService::build(InferenceInput::assemble_base(&world, seed), &cfg, &par);
    let archive = SnapshotArchive::attach_with_retention(&service, Some(RETAIN));

    let (_registry, campaign_cfg, corpus_cfg) = default_configs(seed);
    let camp = campaign_batches(&world, &service.input().vps, campaign_cfg, FILL_BATCHES);
    let corp = corpus_batches(&world, corpus_cfg, FILL_BATCHES);
    let mut deltas = InputDelta::zip_batches(camp, corp);
    let fill = deltas.len();
    assert!(fill >= 2, "need a real fill phase, got {fill} batches");
    deltas.extend((0..TAIL).map(|_| InputDelta::default()));

    let mut prev_ptrs = service.snapshot().partition_ptrs();
    let mut fill_dirty_ixps = 0;
    let mut window_bytes = Vec::new();
    let mut clean_publish_ms = Vec::new();
    for delta in deltas {
        let report = archive.apply_reported(delta);
        let epoch = report.epoch as usize;
        assert!(
            archive.len() <= RETAIN,
            "epoch {epoch}: {} snapshots retained past the cap of {RETAIN}",
            archive.len()
        );
        let ptrs = report.snapshot.partition_ptrs();
        if epoch <= fill {
            fill_dirty_ixps += report.publish.ixps.len();
        } else {
            assert!(
                report.publish.is_clean(),
                "empty delta {epoch} published dirty"
            );
        }
        if report.publish.is_clean() {
            assert_eq!(ptrs, prev_ptrs, "clean epoch {epoch} rebuilt a partition");
            clean_publish_ms.push(report.publish_ms);
        }
        prev_ptrs = ptrs;
        // The oldest retained epoch, `epoch + 1 - RETAIN`, is past the
        // fill: the window holds only tail snapshots.
        if epoch >= fill + RETAIN {
            assert_eq!(archive.len(), RETAIN);
            window_bytes.push(archive.retained_bytes());
        }
    }
    assert!(
        fill_dirty_ixps > 0,
        "the fill phase rebuilt no IXP partition"
    );
    assert!(window_bytes.len() >= 2, "steady-state window too short");
    let max = *window_bytes.iter().max().expect("non-empty window") as f64;
    let min = *window_bytes.iter().min().expect("non-empty window") as f64;
    assert!(
        min > 0.0 && max / min <= 1.10,
        "retained bytes drifted in the steady state: {window_bytes:?}"
    );

    // Identity: the accumulated input and the served result equal the
    // one-shot path, and the shared snapshot equals a non-shared build.
    let latest = archive.latest();
    let full_input = InferenceInput::assemble(&world, seed);
    let one_shot = run_pipeline(&full_input, &cfg);
    assert!(*latest.result() == one_shot, "served result diverged");
    let input = service.input();
    assert!(input.content_eq(&full_input), "accumulated input diverged");
    let result = one_shot.clone();
    let t = Instant::now();
    let baseline = Snapshot::build_full(latest.epoch(), &input, result, &par);
    let full_publish_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(
        latest.content_eq(&baseline),
        "shared snapshot diverged from the non-shared baseline"
    );

    // A clean publish is refcount bumps: at least 10× below a full build.
    let clean_ms = clean_publish_ms.iter().sum::<f64>() / clean_publish_ms.len() as f64;
    assert!(
        full_publish_ms >= 10.0 * clean_ms,
        "clean publish {clean_ms:.6} ms is not 10x below a full build ({full_publish_ms:.3} ms)"
    );
}
