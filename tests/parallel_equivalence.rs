//! Parallel/sequential equivalence of assembly and inference.
//!
//! The contract is exact: for any world, any seed, and any thread
//! count, `assemble_parallel` must reproduce `assemble`, and
//! `IncrementalPipeline::new` (the parallel one-shot run the service
//! builds on) must produce a byte-identical `PipelineResult` to the
//! sequential `run_pipeline` — same inferences in the same order, same
//! diagnostics, same per-step counts. The proptest below drives that
//! over generated worlds; the merge tests pin the deterministic
//! shard-merge ordering the parallel paths rely on.

use opeer::core::steps::Ledger;
use opeer::prelude::*;
use proptest::prelude::*;

/// A deliberately tiny world so the 64-case budget (proptest.toml)
/// stays cheap: world generation and input assembly dominate each case,
/// not the pipeline itself. The structure (37 named IXPs, resellers,
/// multi-IXP routers, PNIs) is the same as `WorldConfig::small`.
fn tiny_world(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::small(seed);
    cfg.scale = 0.02;
    cfg.n_small_ixps = 6;
    cfg.n_background_ases = 50;
    cfg.n_switchers = 2;
    cfg
}

proptest! {
    // Case count comes from proptest.toml (PROPTEST_CASES overrides);
    // each case covers world generation, sequential and parallel
    // assembly, the sequential reference and two pool sizes.
    #[test]
    fn parallel_equals_sequential_for_any_seed(
        seed in 0u64..10_000,
        threads in 2usize..=8,
    ) {
        let world = tiny_world(seed).generate();
        let input = InferenceInput::assemble(&world, seed);
        let cfg = PipelineConfig::default();
        let sequential = run_pipeline(&input, &cfg);
        for n in [1, threads] {
            let par = ParallelConfig::new(n);
            let assembled = InferenceInput::assemble_parallel(&world, seed, &par);
            let pipe = IncrementalPipeline::new(assembled, &cfg, &par);
            prop_assert!(
                pipe.input().content_eq(&input),
                "parallel assembly with {} threads diverged on seed {}",
                n,
                seed
            );
            prop_assert_eq!(
                pipe.result(),
                &sequential,
                "pipeline with {} threads diverged on seed {}",
                n,
                seed
            );
        }
    }
}

#[test]
fn shard_merge_order_decides_address_conflicts() {
    // Two shards claiming the same address: the shard absorbed first
    // must win, and the merged ledger must match what a sequential pass
    // over shard-0-then-shard-1 work would record.
    let inf = |addr: &str, ixp: usize, verdict: Verdict| Inference {
        addr: addr.parse().expect("valid address"),
        ixp,
        asn: opeer::net::Asn::new(64_000),
        verdict,
        step: Step::PortCapacity,
        evidence: String::new(),
    };
    let mut shard0 = Ledger::new();
    shard0.record(inf("185.0.0.10", 0, Verdict::Remote));
    shard0.record(inf("185.0.0.11", 0, Verdict::Local));
    let mut shard1 = Ledger::new();
    shard1.record(inf("185.0.0.10", 1, Verdict::Local));

    let mut merged = Ledger::new();
    assert_eq!(merged.absorb(shard0), 2);
    assert_eq!(
        merged.absorb(shard1),
        0,
        "conflicting entry must be dropped"
    );

    let winner = merged
        .get("185.0.0.10".parse().expect("valid address"))
        .expect("address classified");
    assert_eq!(winner.verdict, Verdict::Remote);
    assert_eq!(winner.ixp, 0, "shard 0 (lower IXP range) must win");
    // Output iteration stays address-sorted after the merge.
    let addrs: Vec<_> = merged.all().map(|i| i.addr).collect();
    let mut sorted = addrs.clone();
    sorted.sort();
    assert_eq!(addrs, sorted);
}

#[test]
fn campaign_partials_merge_in_shard_order_on_overlapping_targets() {
    // Assembly shards the campaign by VP chunk. VPs of one IXP probe
    // the *same* member interfaces, so a chunk boundary through an
    // IXP's VP set makes two partials carry observations for
    // overlapping targets. The merge contract: absorb in range order ==
    // the sequential per-VP concatenation, byte for byte — order
    // matters downstream because step 2 breaks RTT ties by first
    // appearance.
    use opeer::measure::campaign::{run_campaign, CampaignConfig};
    use opeer::measure::discover_vps;

    let world = WorldConfig::small(77).generate();
    let vps = discover_vps(&world, 77);
    let cfg = CampaignConfig::study(77);
    let sequential = run_campaign(&world, &vps, cfg);

    // Splits through the middle of an IXP's VP group put observations
    // of the same targets into both partials (plus a few generic
    // splits for coverage).
    let mut splits: Vec<usize> = vec![1, vps.len() / 2, vps.len() - 1];
    splits.extend(
        (1..vps.len())
            .filter(|&s| vps[s - 1].ixp == vps[s].ixp)
            .take(4),
    );

    let mut max_overlap = 0usize;
    for &split in &splits {
        let (a, b) = vps.split_at(split);
        let ra = run_campaign(&world, a, cfg);
        let rb = run_campaign(&world, b, cfg);
        let ta: std::collections::HashSet<_> = ra.observations.iter().map(|o| o.target).collect();
        max_overlap = max_overlap.max(
            rb.observations
                .iter()
                .filter(|o| ta.contains(&o.target))
                .count(),
        );
        let mut merged = ra;
        merged.absorb(rb);
        assert_eq!(
            merged, sequential,
            "split at {split} changed the merged campaign"
        );
    }
    // Sanity: at least one tested split produced overlapping targets,
    // so the equality above exercised the interesting case.
    assert!(max_overlap > 0, "no split produced overlapping targets");
}

#[test]
fn corpus_shards_concatenate_to_sequential_corpus() {
    use opeer::measure::traceroute::{build_corpus, plan_corpus, CorpusConfig};

    let world = WorldConfig::small(77).generate();
    let cfg = CorpusConfig {
        seed: 77,
        n_random: 200,
        ..CorpusConfig::default()
    };
    let sequential = build_corpus(&world, cfg);
    let plan = plan_corpus(&world, &cfg);
    // Uneven three-way partition of the destination range.
    let n = plan.len();
    let cuts = [0, n / 4, (2 * n) / 3, n];
    let mut merged = Vec::new();
    for w in cuts.windows(2) {
        merged.extend(plan.trace_shard(&world, &cfg, w[0]..w[1]));
    }
    assert_eq!(merged, sequential, "sharded corpus diverged");
}

#[test]
fn engine_thread_count_does_not_leak_into_result() {
    // Same world, sweep of pool sizes (including more threads than
    // shards): every input and result must be identical to every other
    // and to the sequential reference.
    let world = WorldConfig::small(4242).generate();
    let input = InferenceInput::assemble(&world, 4242);
    let cfg = PipelineConfig::default();
    let sequential = run_pipeline(&input, &cfg);
    let build = |threads: usize| {
        let par = ParallelConfig::new(threads);
        IncrementalPipeline::new(
            InferenceInput::assemble_parallel(&world, 4242, &par),
            &cfg,
            &par,
        )
    };
    let reference = build(1);
    assert!(reference.input().content_eq(&input));
    assert_eq!(*reference.result(), sequential);
    for threads in [2, 3, 5, 16, 64] {
        let pipe = build(threads);
        assert!(
            pipe.input().content_eq(&input),
            "thread count {threads} changed the input"
        );
        assert_eq!(
            pipe.result(),
            reference.result(),
            "thread count {threads} changed the result"
        );
    }
}
