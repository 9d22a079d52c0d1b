//! `cold_build`: world → first published snapshot, the analyst's batch
//! path. Untraced, the window is `assemble_parallel` + `PeeringService::build`
//! at two threads, the only build in its process (repeated builds in one
//! process ratchet peak RSS up; the canaries run in child processes).
//! Traced, the build is decomposed at one thread through the same public
//! calls `InferenceInput::assemble_with` and `run_pipeline` make, and the
//! layer self-times are held against an untraced one-thread build
//! (`trace.coverage`).

use super::{engine, ms, secs, Params, Size};
use crate::host::Window;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{self_times, Tracer};
use opeer_bgp::Collector;
use opeer_core::engine::ParallelConfig;
use opeer_core::incremental::IncrementalPipeline;
use opeer_core::input::{default_configs, InferenceInput};
use opeer_core::intern::InternTables;
use opeer_core::pipeline::{run_pipeline, PipelineConfig, PipelineResult, StepCounts};
use opeer_core::service::{PeeringService, Snapshot};
use opeer_core::steps::{step1, step2, step3, step4, step5, Ledger};
use opeer_core::types::Unclassified;
use opeer_measure::campaign::run_campaign;
use opeer_measure::traceroute::{plan_corpus, Traceroute, TracerouteEngine};
use opeer_measure::vp::discover_vps;
use opeer_measure::LatencyModel;
use opeer_registry::build_observed_world;
use opeer_topology::{AsId, AsKind, World};
use std::collections::BTreeSet;
use std::ops::Range;
use std::time::Instant;

/// Destinations whose route table is re-timed to split routing from
/// tracing (the per-destination corpus spans cover both).
const ROUTE_SAMPLE: usize = 64;

/// World generations timed in an untraced run; `setup_s` is their
/// median (the setup is nothing but generation, and one generation
/// alone spreads about 30 % between runs on a shared host). The repeats
/// run after the window, so they leave nothing in its heap.
const GENERATIONS: usize = 3;

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let setup = Instant::now();
    let world = p.world().generate();
    let generate_ms = ms(setup);
    if p.trace {
        return traced(p, &world, generate_ms);
    }
    let cfg = PipelineConfig::default();
    let par = engine();

    let window = Window::open();
    let started = Instant::now();
    let input = InferenceInput::assemble_parallel(&world, p.seed, &par);
    let service = PeeringService::build(input, &cfg, &par);
    let snapshot = service.snapshot();
    let build_s = secs(started);
    let host = window.close();

    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    let expected = run_pipeline(&service.input(), &cfg);
    out.check(
        snapshot.epoch() == 0 && *snapshot.result() == expected,
        "published snapshot differs from run_pipeline",
    );
    drop((expected, snapshot, service));
    // A canary's `setup_s` is never reported: one generation is enough.
    let generations = match p.size {
        Size::Full => GENERATIONS,
        Size::Canary => 1,
    };
    let mut setups = vec![generate_ms / 1e3];
    for _ in 1..generations {
        let setup = Instant::now();
        std::hint::black_box(p.world().generate());
        setups.push(secs(setup));
    }
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", host.peak_rss_mib);
    out.set("build_s", build_s);
    out.host = Some(host);
    out
}

/// The AS whose route collector feeds `prefix2as` (the assembly's rule:
/// the first global transit AS).
fn collector_peer(world: &World) -> AsId {
    let peer = world
        .ases
        .iter()
        .position(|a| matches!(a.kind, AsKind::TransitGlobal))
        .unwrap_or(0);
    AsId::from_index(peer)
}

/// The destination AS a traceroute was aimed at (the engine's own rule
/// in `TracerouteEngine::trace_fresh`).
fn destination_as(world: &World, tr: &Traceroute) -> Option<AsId> {
    match world.iface_by_addr(tr.dst) {
        Some(ifc) => {
            let router = world.interfaces[ifc.index()].router;
            Some(world.routers[router.index()].owner)
        }
        None => world.origin_of_addr(tr.dst),
    }
}

/// The owner AS of a traceroute's first hop (its source).
fn source_as(world: &World, tr: &Traceroute) -> Option<AsId> {
    let ifc = world.iface_by_addr(tr.src)?;
    let router = world.interfaces[ifc.index()].router;
    Some(world.routers[router.index()].owner)
}

/// One-thread assembly through `assemble_with`'s calls, one span per
/// layer and one `measure.trace_shard` span per corpus destination.
/// Returns the input, each destination's range in the corpus, and the
/// traceroute engine (whose routing oracle the route sample reuses).
fn assemble_traced<'w>(
    tr: &mut Tracer,
    world: &'w World,
    seed: u64,
) -> (InferenceInput<'w>, Vec<Range<usize>>, TracerouteEngine<'w>) {
    let (registry, campaign_cfg, corpus_cfg) = default_configs(seed);
    let (observed, table1) = tr.span("registry.fusion", |_| {
        build_observed_world(world, &registry)
    });
    let vps = tr.span("measure.vps", |_| discover_vps(world, seed));
    let campaign = tr.span("measure.campaign", |_| {
        run_campaign(world, &vps, campaign_cfg)
    });
    let plan = tr.span("measure.corpus_plan", |_| plan_corpus(world, &corpus_cfg));
    let engine = tr.span("measure.engine_new", |_| {
        TracerouteEngine::new(world, LatencyModel::new(corpus_cfg.seed))
    });
    let mut corpus = Vec::new();
    let mut ranges = Vec::with_capacity(plan.len());
    tr.span("measure.corpus", |tr| {
        for i in 0..plan.len() {
            let part = tr.span("measure.trace_shard", |_| {
                plan.trace_shard_on(&engine, i..i + 1)
            });
            ranges.push(corpus.len()..corpus.len() + part.len());
            corpus.extend(part);
        }
    });
    let ip2as = tr.span("bgp.prefix2as", |_| {
        Collector::build(world, collector_peer(world)).prefix2as()
    });
    let interns = tr.span("core.intern", |_| InternTables::from_observed(&observed));
    let input = InferenceInput {
        world,
        observed,
        table1,
        vps,
        campaign,
        corpus,
        ip2as,
        interns,
    };
    (input, ranges, engine)
}

/// `run_pipeline`'s five steps, in its order, one span each.
fn pipeline_traced(
    tr: &mut Tracer,
    input: &InferenceInput<'_>,
    cfg: &PipelineConfig,
) -> PipelineResult {
    let mut ledger = Ledger::new();
    let n1 = tr.span("core.step1", |_| step1::apply(input, &mut ledger));
    let observations = tr.span("core.step2", |_| step2::consolidate(input));
    let step3_details = tr.span("core.step3", |_| {
        step3::apply_with_rounding(
            input,
            &observations,
            &cfg.speed,
            &mut ledger,
            cfg.honor_lg_rounding,
        )
    });
    let n3 = ledger.len() - n1;
    let multi_ixp_routers = tr.span("core.step4", |_| {
        let index = step4::Step3Index::build(&input.interns, step3_details.iter().copied());
        step4::apply(input, &index, &cfg.alias, &mut ledger)
    });
    let n4 = ledger.len() - n1 - n3;
    let n5 = tr.span("core.step5", |_| {
        step5::apply(input, &cfg.alias, &mut ledger)
    });
    let mut unclassified = Vec::new();
    for (ixp_idx, ixp) in input.observed.ixps.iter().enumerate() {
        for (&addr, &asn) in &ixp.interfaces {
            if !ledger.known(addr) {
                unclassified.push(Unclassified {
                    addr,
                    ixp: ixp_idx,
                    asn,
                });
            }
        }
    }
    PipelineResult {
        inferences: ledger.all().collect(),
        unclassified,
        observations,
        step3_details,
        multi_ixp_routers,
        counts: StepCounts {
            baseline: 0,
            port_capacity: n1,
            rtt_colo: n3,
            multi_ixp: n4,
            private_links: n5,
        },
    }
}

/// Spans that only group other spans; their self time is glue, not a
/// layer.
const GROUPS: &[&str] = &["build", "assemble", "measure.corpus", "pipeline"];

fn traced(p: &Params, world: &World, generate_ms: f64) -> Outcome {
    let cfg = PipelineConfig::default();
    let one = ParallelConfig::new(1);
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };

    // The untraced one-thread build the layer self-times must account
    // for, run before and after the traced one so host drift between
    // them averages out.
    let reference_build = || {
        let started = Instant::now();
        let service = PeeringService::build(
            InferenceInput::assemble_parallel(world, p.seed, &one),
            &cfg,
            &one,
        );
        (service, ms(started))
    };
    let (reference, reference_before_ms) = reference_build();

    let window = Window::open();
    let mut tr = Tracer::new();
    let (input, ranges, engine, result, snapshot) = tr.span("build", |tr| {
        let (input, ranges, engine) = tr.span("assemble", |tr| assemble_traced(tr, world, p.seed));
        let result = tr.span("pipeline", |tr| pipeline_traced(tr, &input, &cfg));
        let snapshot = tr.span("service.build_full", |_| {
            Snapshot::build_full(0, &input, result.clone(), &one)
        });
        (input, ranges, engine, result, snapshot)
    });
    let host = window.close();

    // Layer self-times against the reference build.
    let self_ns = self_times(tr.spans());
    let layer_ns: u64 = tr
        .spans()
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| !GROUPS.contains(&s.name))
        .map(|(_, ns)| *ns)
        .sum();

    // Split each destination's span into routing and tracing: on a
    // strided sample of destinations, re-time `routes_to` and then the
    // traces over its table, and apply the sample's routing share to the
    // whole corpus.
    let sampled: Vec<usize> = (0..ranges.len())
        .filter(|&i| !ranges[i].is_empty())
        .step_by((ranges.len() / ROUTE_SAMPLE).max(1))
        .take(ROUTE_SAMPLE)
        .collect();
    let (mut route_ms, mut retrace_ms) = (0.0, 0.0);
    let (mut entries, mut used) = (0usize, 0usize);
    for &i in &sampled {
        let traces = &input.corpus[ranges[i].clone()];
        let Some(dst) = destination_as(world, &traces[0]) else {
            continue;
        };
        let t = Instant::now();
        let table = engine.oracle().routes_to(dst);
        route_ms += ms(t);
        let sources: Vec<Option<AsId>> = traces.iter().map(|tr| source_as(world, tr)).collect();
        let t = Instant::now();
        let retraced: Vec<Option<Traceroute>> = traces
            .iter()
            .zip(&sources)
            .map(|(tr, src)| src.and_then(|src| engine.trace(&table, src, tr.dst)))
            .collect();
        retrace_ms += ms(t);
        out.check(
            retraced
                .iter()
                .zip(traces)
                .all(|(a, b)| a.as_ref() == Some(b)),
            "re-traced sample differs from the corpus",
        );
        let mut on_paths = BTreeSet::new();
        for path in sources.iter().filter_map(|src| table.as_path((*src)?)) {
            on_paths.extend(path.into_iter().map(|(asid, _)| asid));
        }
        entries += table.reachable_count();
        used += on_paths.len();
    }
    let total_shard_ms: f64 = tr.durations_ms("measure.trace_shard").iter().sum();
    let routing_ms = total_shard_ms * route_ms / (route_ms + retrace_ms).max(f64::MIN_POSITIVE);

    // The full recompute `PeeringService::build` runs, at one thread.
    let expected = run_pipeline(&input, &cfg);
    out.check(
        result == expected,
        "traced five steps differ from run_pipeline",
    );
    out.check(
        input.content_eq(&reference.input()),
        "traced assembly differs from assemble_parallel",
    );
    out.check(
        snapshot.content_eq(&reference.snapshot()),
        "traced build_full differs from PeeringService::build",
    );
    drop(reference);
    let (_, reference_after_ms) = reference_build();
    let reference_ms = (reference_before_ms + reference_after_ms) / 2.0;
    let started = Instant::now();
    let full = IncrementalPipeline::new(input, &cfg, &one);
    let pipeline_full_ms = ms(started);
    out.check(
        *full.result() == expected,
        "incremental full recompute differs from run_pipeline",
    );

    let self_ms = tr.self_ms_by_name();
    let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let span_ms = |name: &str| tr.durations_ms(name).iter().sum::<f64>();
    let dsts = ranges.len().max(1) as f64;
    let traces = full.input().corpus.len() as f64;
    out.set("topology.generate_ms", generate_ms);
    out.set("topology.routes_to_ms", routing_ms);
    out.set("topology.routes_to_calls", ranges.len() as f64);
    out.set(
        "topology.route_entries",
        entries as f64 / sampled.len().max(1) as f64,
    );
    out.set(
        "topology.route_entries_used_ratio",
        used as f64 / entries.max(1) as f64,
    );
    out.set("measure.engine_new_ms", layer("measure.engine_new"));
    out.set("measure.corpus_plan_ms", layer("measure.corpus_plan"));
    out.set("measure.trace_ms", total_shard_ms - routing_ms);
    out.set("measure.traces", traces);
    out.set("measure.traces_per_table", traces / dsts);
    out.set("measure.vps_ms", layer("measure.vps"));
    out.set("measure.campaign_ms", layer("measure.campaign"));
    out.set(
        "measure.campaign_observations",
        full.input().campaign.observations.len() as f64,
    );
    out.set("registry.fusion_ms", layer("registry.fusion"));
    out.set("bgp.prefix2as_ms", layer("bgp.prefix2as"));
    out.set("bgp.prefixes", full.input().ip2as.num_prefixes() as f64);
    out.set("core.intern_ms", layer("core.intern"));
    out.set("core.step1_ms", layer("core.step1"));
    out.set("core.step2_ms", layer("core.step2"));
    out.set("core.step3_ms", layer("core.step3"));
    out.set("core.step4_ms", layer("core.step4"));
    out.set("core.step5_ms", layer("core.step5"));
    out.set("core.pipeline_full_ms", pipeline_full_ms);
    out.set("core.assemble_seq_ms", span_ms("assemble"));
    out.set("core.pipeline_seq_ms", span_ms("pipeline"));
    out.set("service.publish_full_ms", layer("service.build_full"));
    out.set("trace.coverage", layer_ns as f64 / 1e6 / reference_ms);
    out.set("host.ref_ms", host.ref_ms());
    out.set("host.steal_pct", host.steal_pct);
    out.spans_json = Some(tr.to_json());
    out.host = Some(host);
    out
}
