//! Incremental, delta-driven execution of the five-step pipeline.
//!
//! [`crate::pipeline::run_pipeline`] is a pure function of a frozen
//! [`InferenceInput`]; this module re-expresses it as an **incremental
//! dataflow** for streaming ingestion: campaign observations and public
//! traceroutes arrive in epoch batches ([`InputDelta`]), and a retained
//! [`IncrementalPipeline`] recomputes only the shards each delta
//! touches — step 1 by IXP, step 2 by campaign chunk, step 3 by target,
//! step 4 by corpus chunk + candidate ASN, step 5 by member interface —
//! then commits them with the fixed order and first-writer-wins
//! semantics of the sequential pass.
//!
//! ## The dirty-shard model
//!
//! The cache holds **per-shard outputs**: the merged step-1 ledger, the
//! step-2 consolidation map, per-target step-3 evaluations (and their
//! dense [`step4::Step3Index`] rows), the merged steps-1–3 ledger, the
//! set-union step-4 evidence and per-candidate outcomes, the append-only
//! step-5 evidence, the post-step-4 unknown set and one step-5 vote per
//! member interface. Each [`IncrementalPipeline::apply`] recomputes the
//! dirty shards on the engine's [`map_indexed`] pool and patches the
//! merged state only where a shard's output moved.
//!
//! Dirtiness propagates along real data dependencies:
//!
//! * a **campaign batch** consolidates only its own observation range
//!   (step 2); targets whose best observation changed re-evaluate
//!   (step 3), and the steps-1–3 ledger replaces or removes each
//!   changed inference in place; candidates whose own LAN priors or
//!   annuli changed re-classify (step 4);
//! * a **corpus batch** is scanned once for step-4 pairs/crossings and
//!   once for step-5 private adjacencies; only candidate ASNs whose
//!   evidence actually **grew** re-classify, and only unknown
//!   interfaces of an ASN with new witnesses re-vote;
//! * the **unknown set** moves only at addresses whose step-3 or step-4
//!   record moved; an interface that enters it without a cached vote
//!   is voted;
//! * a **registry revision** invalidates everything — the fused dataset
//!   is the substrate every step resolves through, so it triggers a
//!   full re-run (equivalent to a fresh [`IncrementalPipeline::new`]).
//!
//! Evidence is monotone within a registry epoch (campaign and corpus
//! only append), which is what makes the per-candidate and per-interface
//! caches sound: a clean shard's inputs are byte-identical to the ones
//! it was computed from. A step-5 vote
//! ([`step5::classify_interface`]) reads only its interface, the
//! registry, the alias data and the witness list of its own member ASN,
//! so it stays valid until that list grows.
//!
//! ## Why the merge is exact
//!
//! [`IncrementalPipeline::new`] is a full recompute: every shard is
//! dirty, so it is the parallel one-shot run of the five steps (what
//! [`crate::service::PeeringService::build`] runs). Each step shards
//! along the axis where its work is provably independent, then commits
//! in a fixed order:
//!
//! * **Step 1** shards by observed IXP: port-capacity evidence never
//!   leaves its IXP. Shard ledgers are absorbed in IXP order, and
//!   [`crate::steps::Ledger::absorb`] keeps the first writer on
//!   address collisions — the same winner a sequential scan picks.
//! * **Step 2** shards by campaign chunk: the best-observation
//!   preference only replaces an incumbent with a strictly better
//!   candidate, so folding chunk maps in campaign order reproduces the
//!   sequential scan's winners, ties included.
//! * **Step 3** shards by *target* over the merged observation map:
//!   [`crate::steps::step3::evaluate_observation`] is pure per target,
//!   and the address-keyed cache preserves the sequential detail order.
//! * **Step 4** shards its corpus scan by traceroute chunk (set-union
//!   merge is order-independent) and its classification by candidate
//!   ASN: propagation only ever touches the candidate's own LAN
//!   interfaces, so verdicts of other candidates can never feed back.
//!   Every recorded inference is an interface of its own candidate that
//!   the steps-1–3 ledger leaves unknown.
//! * **Step 5** shards by member interface against the frozen
//!   post-step-4 unknown set: the facility vote never reads the ledger,
//!   and each LAN address is visited once.
//!
//! The three record sets therefore hold disjoint addresses (each
//! member interface address belongs to one IXP, the single-membership
//! lemma [`PublishDirty`] also rests on), so every record counts and the
//! final inferences are one address-ordered merge of the steps-1–3
//! ledger, the step-4 records and the step-5 proposals.
//!
//! The worker pool itself is free to schedule shards in any order —
//! results land in per-shard slots and are merged by index, never by
//! completion time ([`map_indexed`]).
//!
//! ## The contract
//!
//! For **any** consecutive partition of the measurements into epoch
//! batches, at **any** thread count, the [`PipelineResult`] after the
//! last epoch is byte-identical to the one-shot
//! [`run_pipeline`][crate::pipeline::run_pipeline] over the fully
//! assembled input — `tests/incremental_equivalence.rs` proptests this
//! over random partitions, and the pinned snapshot re-checks it under
//! CI's `OPEER_THREADS` matrix.

use crate::engine::{map_indexed, shard_ranges, ParallelConfig};
use crate::input::InferenceInput;
use crate::intern::AddrId;
use crate::pipeline::{PipelineConfig, PipelineResult, StepCounts};
use crate::steps::step2::RttObservation;
use crate::steps::step3::Step3Detail;
use crate::steps::step4::{self, CandidateOutcome, CorpusChunk, Step3Index, Step4Evidence};
use crate::steps::step5::{self, PrivateEvidence};
use crate::steps::{step1, step2, step3, Ledger};
use crate::types::{Inference, Step, Unclassified, Verdict};
use opeer_measure::campaign::CampaignResult;
use opeer_measure::traceroute::Traceroute;
use opeer_net::Asn;
use opeer_registry::{ObservedWorld, Table1Stats};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One cached step-3 evaluation: the per-target detail plus the
/// inference it produced, if any.
type Step3Eval = (Step3Detail, Option<Inference>);

/// One step-5 facility vote: the verdict and its evidence line, or
/// `None` when the vote left the interface unclassified.
type Vote = Option<(Verdict, String)>;

/// One epoch's worth of new input: any combination of a campaign
/// partial, a traceroute batch, and a registry revision.
///
/// Campaign partials must be [`CampaignResult::absorb`]-compatible —
/// produced over VP ranges that continue where the retained campaign
/// left off (e.g. the epoch slices of
/// [`opeer_measure::campaign::campaign_batches`]), because step 2
/// breaks RTT ties by first appearance. Corpus batches concatenate in
/// arrival order (e.g.
/// [`opeer_measure::traceroute::corpus_batches`]); any consecutive
/// slicing works since step 4/5 evidence merges are order-independent
/// sets and in-order appends respectively.
#[derive(Default)]
pub struct InputDelta {
    /// New campaign observations (appended via [`CampaignResult::absorb`]).
    pub campaign: Option<CampaignResult>,
    /// New public traceroutes (appended to the corpus).
    pub corpus: Vec<Traceroute>,
    /// A registry revision replacing the fused dataset (full re-run).
    pub registry: Option<Box<(ObservedWorld, Table1Stats)>>,
}

impl InputDelta {
    /// A delta carrying one campaign partial.
    pub fn campaign(partial: CampaignResult) -> Self {
        InputDelta {
            campaign: Some(partial),
            ..InputDelta::default()
        }
    }

    /// A delta carrying one traceroute batch.
    pub fn corpus(batch: Vec<Traceroute>) -> Self {
        InputDelta {
            corpus: batch,
            ..InputDelta::default()
        }
    }

    /// A delta carrying a registry revision.
    pub fn registry(observed: ObservedWorld, table1: Table1Stats) -> Self {
        InputDelta {
            registry: Some(Box::new((observed, table1))),
            ..InputDelta::default()
        }
    }

    /// Adds a campaign partial to this delta.
    pub fn with_campaign(mut self, partial: CampaignResult) -> Self {
        self.campaign = Some(partial);
        self
    }

    /// Adds a traceroute batch to this delta.
    pub fn with_corpus(mut self, batch: Vec<Traceroute>) -> Self {
        self.corpus = batch;
        self
    }

    /// Whether the delta carries nothing at all.
    pub fn is_empty(&self) -> bool {
        self.campaign.is_none() && self.corpus.is_empty() && self.registry.is_none()
    }

    /// Zips parallel campaign and corpus batch lists — the outputs of
    /// [`opeer_measure::campaign::campaign_batches`] and
    /// [`opeer_measure::traceroute::corpus_batches`] — into one delta
    /// per epoch, padding the shorter list with an empty half.
    pub fn zip_batches(
        campaign: Vec<CampaignResult>,
        corpus: Vec<Vec<Traceroute>>,
    ) -> Vec<InputDelta> {
        let epochs = campaign.len().max(corpus.len());
        let mut campaign = campaign.into_iter();
        let mut corpus = corpus.into_iter();
        (0..epochs)
            .map(|_| InputDelta {
                campaign: campaign.next(),
                corpus: corpus.next().unwrap_or_default(),
                registry: None,
            })
            .collect()
    }
}

/// How much work one [`IncrementalPipeline::apply`] actually did, in
/// shard units along each step's axis. Reported per publish in
/// [`ApplyReport::dirty`](crate::service::ApplyReport::dirty) and kept
/// per archived epoch in
/// [`DirtyRecord`](crate::archive::DirtyRecord), so the saving of a
/// delta re-run over a full re-run stays visible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirtyCounts {
    /// Step-1 IXP shards recomputed (registry revisions only).
    pub step1_ixps: usize,
    /// New campaign observations consolidated by step 2.
    pub step2_observations: usize,
    /// Step-3 targets re-evaluated (new or improved best observation).
    pub step3_targets: usize,
    /// New traceroutes scanned for step-4 and step-5 evidence.
    pub corpus_traces: usize,
    /// Step-4 candidate ASNs re-classified (alias resolution and rule
    /// application — the expensive per-candidate work).
    pub step4_candidates: usize,
    /// IXPs whose step-5 proposals were rebuilt: every IXP on a full
    /// run, otherwise those holding an interface that was re-voted or
    /// entered or left the unknown set.
    pub step5_ixps: usize,
}

impl DirtyCounts {
    /// Total dirty shard units across all axes.
    pub fn total(&self) -> usize {
        self.step1_ixps
            + self.step2_observations
            + self.step3_targets
            + self.corpus_traces
            + self.step4_candidates
            + self.step5_ixps
    }
}

/// The full shard population along each axis — what a from-scratch run
/// recomputes. The denominator for [`DirtyCounts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTotals {
    /// Observed IXPs (the step-1 and step-5 axis).
    pub ixps: usize,
    /// Campaign observations held (the step-2 axis).
    pub campaign_observations: usize,
    /// Consolidated targets (the step-3 axis).
    pub targets: usize,
    /// Corpus traceroutes held (the evidence-scan axis).
    pub corpus_traces: usize,
    /// Multi-IXP candidate ASNs (the step-4 classification axis).
    pub step4_candidates: usize,
}

impl ShardTotals {
    /// Total shard units across all axes.
    pub fn total(&self) -> usize {
        self.ixps * 2
            + self.campaign_observations
            + self.targets
            + self.corpus_traces
            + self.step4_candidates
    }
}

/// Exact publish-time dirty sets of one [`IncrementalPipeline::apply`]:
/// which per-IXP and per-ASN snapshot partitions the epoch's changes can
/// reach. Where [`DirtyCounts`] reports how much *recompute* work an
/// epoch did, `PublishDirty` reports what the recompute actually
/// *changed* — the two differ because a re-classified shard usually
/// reproduces its old output byte-for-byte.
///
/// Soundness: every ledger record and residual [`Unclassified`] at an
/// address carries that address's single membership identity
/// (`ObservedWorld::member_of_addr` — one `(ixp, asn)` per interface),
/// so marking the old and the new record of every changed shard covers
/// commit-order shadowing cascades too: if a changed shard's write
/// shadows (or stops shadowing) another shard's record at the same
/// address, both records agree on `(ixp, asn)` and the partitions are
/// already marked. [`crate::service::Snapshot::build_delta`] rebuilds
/// exactly the marked partitions and shares the rest by `Arc` clone;
/// the equivalence suites and `tests/snapshot_sharing.rs` pin the
/// byte-identity of the shared result against a from-scratch build.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PublishDirty {
    /// Everything is dirty (construction or registry revision): the
    /// publish must rebuild every partition from scratch.
    pub full: bool,
    /// Whether the merged [`PipelineResult`] changed at all. When
    /// `false`, the previous snapshot is provably still exact and the
    /// publish can share it wholesale.
    pub result_changed: bool,
    /// Observed-IXP indices whose per-IXP partitions must rebuild.
    pub ixps: BTreeSet<usize>,
    /// Member ASNs whose per-ASN report partitions must rebuild.
    pub asns: BTreeSet<Asn>,
}

impl PublishDirty {
    /// A fully-dirty marker (what a from-scratch build implies).
    pub fn full() -> Self {
        PublishDirty {
            full: true,
            result_changed: true,
            ..PublishDirty::default()
        }
    }

    /// Whether nothing observable changed — the previous snapshot can be
    /// re-published as-is.
    pub fn is_clean(&self) -> bool {
        !self.full && !self.result_changed
    }

    fn mark(&mut self, inf: &Inference) {
        self.ixps.insert(inf.ixp);
        self.asns.insert(inf.asn);
    }
}

/// Retained state of the incremental pipeline: the accumulated input
/// plus every per-shard output of the last run, so the next
/// [`IncrementalPipeline::apply`] can recompute only what a delta
/// touches. See the [module docs](self) for the dirty-shard model.
pub struct IncrementalPipeline<'w> {
    input: InferenceInput<'w>,
    cfg: PipelineConfig,
    par: ParallelConfig,

    // ---- registry-derived tables (rebuilt on revisions) ----
    /// Every member interface as its residual [`Unclassified`] row,
    /// dense by [`AddrId`].
    members: Vec<Unclassified>,
    /// Member-interface ids in IXP-major, address-minor order: the order
    /// of the residual `unclassified` rows.
    rows: Vec<AddrId>,

    // ---- per-shard caches ----
    /// Step 1: the per-IXP ledgers, absorbed in IXP order.
    ledger1: Ledger,
    /// Step 2: the merged best-observation map.
    observations: BTreeMap<Ipv4Addr, RttObservation>,
    /// Step 3: per-target evaluation (detail + optional inference).
    step3: BTreeMap<Ipv4Addr, Step3Eval>,
    /// Step 3: the details dense by [`AddrId`] — the rows of step 4's
    /// [`step4::Step3Index`], patched per re-evaluated target.
    step3_rows: Vec<Option<Step3Detail>>,
    /// Merged steps-1–3 ledger (step 4's frozen priors): `ledger1` plus
    /// every step-3 inference at an address step 1 left unknown,
    /// patched in place per re-evaluated target.
    ledger123: Ledger,
    /// Step 4: lookup data + set-union corpus evidence (grows in place).
    evidence: Step4Evidence,
    /// Step 4: cached outcome per candidate ASN.
    outcomes: BTreeMap<Asn, CandidateOutcome>,
    /// Step 5: append-only private-adjacency evidence.
    ev5: PrivateEvidence,
    /// Step 5's input set: whether each member interface is still
    /// unknown after steps 1–4, dense by [`AddrId`].
    unknown: Vec<bool>,
    /// Step 5: the cached facility vote per member interface, dense by
    /// [`AddrId`]; `None` where no vote is cached. Every unknown
    /// interface holds one.
    votes: Vec<Option<Vote>>,
    /// The interfaces the last recompute voted on.
    voted: Vec<AddrId>,

    /// The result of the last run, shared with the snapshot that
    /// publishes it.
    result: Arc<PipelineResult>,
    last_dirty: DirtyCounts,
    last_publish: PublishDirty,
    epochs_applied: usize,
}

impl<'w> IncrementalPipeline<'w> {
    /// Builds the retained pipeline over an initial input (epoch 0) and
    /// runs it once. The input may be measurement-free
    /// ([`InferenceInput::assemble_base`]) with batches streamed in via
    /// [`IncrementalPipeline::apply`], or fully assembled for a warm
    /// start.
    pub fn new(input: InferenceInput<'w>, cfg: &PipelineConfig, par: &ParallelConfig) -> Self {
        let mut pipe = IncrementalPipeline {
            input,
            cfg: *cfg,
            par: *par,
            members: Vec::new(),
            rows: Vec::new(),
            ledger1: Ledger::new(),
            observations: BTreeMap::new(),
            step3: BTreeMap::new(),
            step3_rows: Vec::new(),
            ledger123: Ledger::new(),
            evidence: Step4Evidence {
                data: opeer_traix::IxpData::new(),
                as_pairs: BTreeMap::new(),
                crossings: BTreeMap::new(),
                lan_ifaces: BTreeMap::new(),
            },
            outcomes: BTreeMap::new(),
            ev5: PrivateEvidence::default(),
            unknown: Vec::new(),
            votes: Vec::new(),
            voted: Vec::new(),
            result: Arc::new(PipelineResult {
                inferences: Vec::new(),
                unclassified: Vec::new(),
                observations: BTreeMap::new(),
                step3_details: Vec::new(),
                multi_ixp_routers: Vec::new(),
                counts: StepCounts::default(),
            }),
            last_dirty: DirtyCounts::default(),
            last_publish: PublishDirty::full(),
            epochs_applied: 0,
        };
        pipe.recompute(true, 0, 0);
        pipe
    }

    /// Absorbs one delta and brings the result up to date, recomputing
    /// only the dirty shards. Returns the refreshed result — always
    /// byte-identical to a one-shot [`crate::pipeline::run_pipeline`]
    /// over the accumulated input.
    pub fn apply(&mut self, delta: InputDelta) -> &PipelineResult {
        let registry_changed = delta.registry.is_some();
        if let Some(rev) = delta.registry {
            let (observed, table1) = *rev;
            self.input.observed = observed;
            self.input.table1 = table1;
            // The dense-id universes are derived from the observed
            // world, so a registry revision invalidates them; rebuilt
            // here, once, exactly like assembly does.
            self.input.interns = crate::intern::InternTables::from_observed(&self.input.observed);
        }
        let campaign_start = self.input.campaign.observations.len();
        if let Some(partial) = delta.campaign {
            self.input.campaign.absorb(partial);
        }
        let corpus_start = self.input.corpus.len();
        self.input.corpus.extend(delta.corpus);

        self.epochs_applied += 1;
        self.recompute(registry_changed, campaign_start, corpus_start);
        &self.result
    }

    /// The accumulated input (what a one-shot run would consume).
    pub fn input(&self) -> &InferenceInput<'w> {
        &self.input
    }

    /// The current result (after the last applied delta).
    pub fn result(&self) -> &PipelineResult {
        &self.result
    }

    /// The current result as the shared allocation a snapshot publishes
    /// without copying it.
    pub(crate) fn shared_result(&self) -> &Arc<PipelineResult> {
        &self.result
    }

    /// Shard units the last [`IncrementalPipeline::apply`] (or
    /// [`IncrementalPipeline::new`]) recomputed.
    pub fn last_dirty(&self) -> DirtyCounts {
        self.last_dirty
    }

    /// The publish-time dirty sets of the last
    /// [`IncrementalPipeline::apply`] — which snapshot partitions it can
    /// have changed. See [`PublishDirty`].
    pub fn last_publish(&self) -> &PublishDirty {
        &self.last_publish
    }

    /// The engine configuration this pipeline fans shard work over —
    /// publishers reuse it so snapshot partition rebuilds run on the
    /// same pool shape as the recompute itself.
    pub fn parallel(&self) -> &ParallelConfig {
        &self.par
    }

    /// The full shard population a from-scratch run would compute.
    pub fn totals(&self) -> ShardTotals {
        ShardTotals {
            ixps: self.input.observed.ixps.len(),
            campaign_observations: self.input.campaign.observations.len(),
            targets: self.observations.len(),
            corpus_traces: self.input.corpus.len(),
            step4_candidates: step4::candidates(&self.evidence).len(),
        }
    }

    /// Number of deltas applied since construction.
    pub fn epochs_applied(&self) -> usize {
        self.epochs_applied
    }

    /// Resets every cache for a full recompute: the registry-derived
    /// tables, empty measurement caches, and step 1, which is a pure
    /// function of the registry (campaign/corpus deltas never dirty it).
    fn reset(&mut self, threads: usize) {
        let input = &self.input;
        let interns = &input.interns;
        let mut members: Vec<(AddrId, Unclassified)> = Vec::with_capacity(interns.addrs.len());
        for (ixp, x) in input.observed.ixps.iter().enumerate() {
            for (&addr, &asn) in &x.interfaces {
                let id = interns
                    .addr_id(addr)
                    .expect("the input interns every member interface");
                members.push((id, Unclassified { addr, ixp, asn }));
            }
        }
        self.rows = members.iter().map(|&(id, _)| id).collect();
        members.sort_by_key(|&(id, _)| id);
        members.dedup_by_key(|&mut (id, _)| id);
        debug_assert_eq!(
            members.len(),
            self.rows.len(),
            "a member interface address is listed at two IXPs"
        );
        self.members = members.into_iter().map(|(_, m)| m).collect();
        let n_ids = self.members.len();

        self.evidence = Step4Evidence::from_registry(input);
        self.ev5 = PrivateEvidence::default();
        self.observations.clear();
        self.step3.clear();
        self.step3_rows = vec![None; n_ids];
        self.outcomes.clear();
        self.votes = vec![None; n_ids];

        let shards = map_indexed(input.observed.ixps.len(), threads, |i| {
            let mut ledger = Ledger::new();
            step1::apply_to_ixps(input, i..i + 1, &mut ledger);
            ledger
        });
        self.ledger1 = Ledger::new();
        for shard in shards {
            self.ledger1.absorb(shard);
        }
        self.ledger123 = self.ledger1.clone();
    }

    /// Whether interface `id` is unknown after steps 1–4: not in
    /// `ledger123`, and not recorded by its own ASN's step-4 outcome
    /// (every step-4 record is an interface of its candidate ASN).
    fn unknown_after_step4(&self, id: AddrId) -> bool {
        let m = &self.members[id.0 as usize];
        !self.ledger123.known(m.addr)
            && !self
                .outcomes
                .get(&m.asn)
                .is_some_and(|o| o.recorded.iter().any(|r| r.addr == m.addr))
    }

    /// Step 5's output at one interface: `None` when steps 1–4 classified
    /// it, else its vote — a proposal, or `None` for a residual row.
    fn step5_output(&self, id: AddrId) -> Option<&Vote> {
        let id = id.0 as usize;
        self.votes[id].as_ref().filter(|_| self.unknown[id])
    }

    /// Recomputes dirty shards and commits the result. `full` rebuilds
    /// everything (construction, registry revisions); otherwise only the
    /// campaign observations from `campaign_start` and corpus traces
    /// from `corpus_start` are new.
    fn recompute(&mut self, full: bool, campaign_start: usize, corpus_start: usize) {
        let threads = self.par.threads.max(1);
        let n_shards = threads * 4;
        let mut dirty = DirtyCounts::default();
        let mut publish = PublishDirty {
            full,
            result_changed: full,
            ..PublishDirty::default()
        };

        // A delta that carried nothing can change nothing: every cache
        // is a pure function of the (unchanged) accumulated input, so
        // the retained result is still exact. Skip everything — the
        // publish layer shares the previous snapshot wholesale off the
        // `is_clean` marker.
        if !full
            && self.input.campaign.observations.len() == campaign_start
            && self.input.corpus.len() == corpus_start
        {
            self.voted.clear();
            self.last_dirty = dirty;
            self.last_publish = publish;
            return;
        }

        let (campaign_start, corpus_start) = if full {
            self.reset(threads);
            dirty.step1_ixps = self.input.observed.ixps.len();
            (0, 0)
        } else {
            (campaign_start, corpus_start)
        };

        // ---- step 2: consolidate the new campaign range by chunk ----
        let new_obs = self.input.campaign.observations.len() - campaign_start;
        let step3_dirty: Vec<Ipv4Addr> = {
            let input = &self.input;
            let chunk_ranges: Vec<std::ops::Range<usize>> = shard_ranges(new_obs, n_shards)
                .into_iter()
                .map(|r| campaign_start + r.start..campaign_start + r.end)
                .collect();
            let chunks = map_indexed(chunk_ranges.len(), threads, |i| {
                step2::consolidate_chunk(input, chunk_ranges[i].clone())
            });
            let touched: BTreeSet<Ipv4Addr> =
                chunks.iter().flat_map(|c| c.keys().copied()).collect();
            let before: BTreeMap<Ipv4Addr, Option<RttObservation>> = touched
                .iter()
                .map(|a| (*a, self.observations.get(a).copied()))
                .collect();
            for chunk in chunks {
                step2::merge_consolidated(&mut self.observations, chunk);
            }
            touched
                .into_iter()
                .filter(|a| self.observations.get(a).copied() != before[a])
                .collect()
        };
        dirty.step2_observations = new_obs;

        // ---- step 3: re-evaluate only the changed targets, patching
        // `ledger123` (step 4/5's frozen priors) where an inference
        // changed, unless step 1 holds the address (step 1 wins) ----
        let step3_changed: Vec<Ipv4Addr> = {
            let input = &self.input;
            let observations = &self.observations;
            let speed = self.cfg.speed;
            let honor = self.cfg.honor_lg_rounding;
            let targets = &step3_dirty;
            let target_ranges = shard_ranges(targets.len(), n_shards);
            let evaluated: Vec<Vec<(Ipv4Addr, Step3Eval)>> =
                map_indexed(target_ranges.len(), threads, |i| {
                    target_ranges[i]
                        .clone()
                        .map(|k| {
                            let addr = targets[k];
                            let o = &observations[&addr];
                            (addr, step3::evaluate_observation(input, o, &speed, honor))
                        })
                        .collect()
                });
            let mut changed = Vec::new();
            for (addr, eval) in evaluated.into_iter().flatten() {
                let old = self.step3.get(&addr);
                if old == Some(&eval) {
                    continue;
                }
                let old_inference = old.and_then(|(_, inf)| inf.as_ref());
                if old_inference != eval.1.as_ref() && !self.ledger1.known(addr) {
                    match &eval.1 {
                        Some(new) => self.ledger123.replace(new.clone()),
                        None => self.ledger123.remove(addr),
                    };
                }
                if !full {
                    if let Some(old) = old_inference {
                        publish.mark(old);
                    }
                    if let Some(new) = &eval.1 {
                        publish.mark(new);
                    }
                }
                Step3Index::patch(&self.input.interns, &mut self.step3_rows, eval.0);
                changed.push(addr);
                self.step3.insert(addr, eval);
            }
            changed
        };
        dirty.step3_targets = step3_dirty.len();
        // The merged result embeds the observation map and the step-3
        // details, so any surviving observation change dirties it even
        // when no inference flipped.
        publish.result_changed |= !step3_dirty.is_empty();

        // ---- evidence scans over the new corpus range ----
        let new_traces = self.input.corpus.len() - corpus_start;
        let trace_ranges: Vec<std::ops::Range<usize>> = shard_ranges(new_traces, n_shards)
            .into_iter()
            .map(|r| corpus_start + r.start..corpus_start + r.end)
            .collect();
        let mut ev4_dirty: BTreeSet<Asn> = BTreeSet::new();
        {
            let input = &self.input;
            let data = &self.evidence.data;
            let chunks = map_indexed(trace_ranges.len(), threads, |i| {
                step4::scan_corpus(input, data, trace_ranges[i].clone())
            });
            for chunk in chunks {
                absorb_chunk_tracking(&mut self.evidence, chunk, &mut ev4_dirty);
            }
        }
        let mut ev5_dirty: BTreeSet<Asn> = BTreeSet::new();
        {
            let input = &self.input;
            let data = &self.evidence.data;
            let chunks = map_indexed(trace_ranges.len(), threads, |i| {
                step5::harvest_chunk(input, data, trace_ranges[i].clone())
            });
            for chunk in chunks {
                ev5_dirty.extend(chunk.asns());
                self.ev5.absorb(chunk);
            }
        }
        dirty.corpus_traces = new_traces;

        // ---- step 4: re-classify dirty candidates against the frozen
        // priors (new candidates, grown evidence, or changed own-LAN
        // priors/annuli). An outcome reads priors and step-3 rows only at
        // its candidate's own LAN interfaces, so a changed target dirties
        // exactly the ASN that owns it. ----
        let prior_changed: BTreeSet<Asn> = if full {
            BTreeSet::new()
        } else {
            step3_changed
                .iter()
                .filter_map(|&a| self.input.interns.addr_id(a))
                .map(|id| self.members[id.0 as usize].asn)
                .collect()
        };
        // Where the post-step-4 known set can have moved: targets whose
        // step-3 evaluation changed, and records of changed outcomes.
        let mut moved = step3_changed;
        {
            let dirty_cands: Vec<Asn> = step4::candidates(&self.evidence)
                .into_iter()
                .filter(|asn| {
                    !self.outcomes.contains_key(asn)
                        || ev4_dirty.contains(asn)
                        || prior_changed.contains(asn)
                })
                .collect();
            let input = &self.input;
            let evidence = &self.evidence;
            let priors = &self.ledger123;
            let alias = &self.cfg.alias;
            let details = Step3Index::over(&input.interns, &self.step3_rows);
            let fresh = map_indexed(dirty_cands.len(), threads, |i| {
                step4::classify_candidate(input, evidence, dirty_cands[i], &details, alias, priors)
            });
            for (asn, outcome) in dirty_cands.iter().zip(fresh) {
                let old = self.outcomes.insert(*asn, outcome);
                if full {
                    continue;
                }
                let new = &self.outcomes[asn];
                if old.as_ref() != Some(new) {
                    // The candidate's findings land in its per-ASN report
                    // partition; old and new records cover every address
                    // whose winning ledger entry can move.
                    publish.result_changed = true;
                    publish.asns.insert(*asn);
                    for inf in old
                        .iter()
                        .flat_map(|o| o.recorded.iter())
                        .chain(new.recorded.iter())
                    {
                        publish.mark(inf);
                        moved.push(inf.addr);
                    }
                }
            }
            dirty.step4_candidates = dirty_cands.len();
        }

        // ---- commit step 4 into the unknown set. Step 4 records only
        // interfaces `ledger123` leaves unknown, each of its own
        // candidate ASN, so the post-step-4 known set is `ledger123`
        // plus those records, and it moves only where a step-3 or step-4
        // record moved. ----
        let flips: Vec<AddrId> = if full {
            let interns = &self.input.interns;
            self.unknown = vec![true; self.members.len()];
            let step4_addrs = self
                .outcomes
                .values()
                .flat_map(|o| o.recorded.iter().map(|r| r.addr));
            for addr in self.ledger123.addrs().chain(step4_addrs) {
                if let Some(id) = interns.addr_id(addr) {
                    self.unknown[id.0 as usize] = false;
                }
            }
            Vec::new()
        } else {
            let mut ids: Vec<AddrId> = moved
                .iter()
                .filter_map(|&a| self.input.interns.addr_id(a))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.retain(|&id| self.unknown[id.0 as usize] != self.unknown_after_step4(id));
            ids
        };

        // ---- step 5: vote the unknown interfaces whose vote inputs
        // changed. A vote reads only its interface, the registry and the
        // witness list of its own ASN, so it stays valid until that list
        // grows. ----
        let (voted, touched, before) = if full {
            let voted: Vec<AddrId> = (0..self.members.len())
                .filter(|&i| self.unknown[i])
                .map(|i| AddrId(i as u32))
                .collect();
            (voted, Vec::new(), Vec::new())
        } else {
            let grown: Vec<AddrId> = ev5_dirty
                .iter()
                .filter_map(|asn| self.evidence.lan_ifaces.get(asn))
                .flatten()
                .filter_map(|&(a, _)| self.input.interns.addr_id(a))
                .collect();
            // Step 5's output can move only at these interfaces; their
            // outputs before the epoch decide what the publish marks.
            let mut touched: Vec<AddrId> = flips.iter().chain(&grown).copied().collect();
            touched.sort_unstable();
            touched.dedup();
            let before: Vec<Option<Vote>> = touched
                .iter()
                .map(|&id| self.step5_output(id).cloned())
                .collect();
            for id in &flips {
                let slot = &mut self.unknown[id.0 as usize];
                *slot = !*slot;
            }
            for id in &grown {
                self.votes[id.0 as usize] = None;
            }
            let voted: Vec<AddrId> = touched
                .iter()
                .copied()
                .filter(|id| self.unknown[id.0 as usize] && self.votes[id.0 as usize].is_none())
                .collect();
            (voted, touched, before)
        };
        {
            let input = &self.input;
            let ev5 = &self.ev5;
            let alias = &self.cfg.alias;
            let members = &self.members;
            let fresh = map_indexed(voted.len(), threads, |k| {
                let m = &members[voted[k].0 as usize];
                step5::classify_interface(input, ev5, alias, m.ixp, m.addr, m.asn)
            });
            for (id, vote) in voted.iter().zip(fresh) {
                self.votes[id.0 as usize] = Some(vote);
            }
        }
        for (&id, was) in touched.iter().zip(&before) {
            if self.step5_output(id) != was.as_ref() {
                // A proposal or residual row appeared, vanished or
                // changed: it lands in its IXP's rollup and its ASN's
                // report partition.
                let m = &self.members[id.0 as usize];
                publish.result_changed = true;
                publish.ixps.insert(m.ixp);
                publish.asns.insert(m.asn);
            }
        }
        dirty.step5_ixps = if full {
            self.input.observed.ixps.len()
        } else {
            voted
                .iter()
                .chain(&flips)
                .map(|id| self.members[id.0 as usize].ixp)
                .collect::<BTreeSet<usize>>()
                .len()
        };
        self.voted = voted;
        self.last_dirty = dirty;

        // ---- the result. Steps 1–3 (`ledger123`), step 4 and step 5
        // hold disjoint addresses, so the inferences are one
        // address-ordered merge and every record counts. ----
        if publish.result_changed {
            let mut late: Vec<Inference> = self
                .outcomes
                .values()
                .flat_map(|o| o.recorded.iter().cloned())
                .collect();
            let n4 = late.len();
            for (id, member) in self.members.iter().enumerate() {
                if let Some(Some((verdict, why))) = self.step5_output(AddrId(id as u32)) {
                    late.push(Inference {
                        addr: member.addr,
                        ixp: member.ixp,
                        asn: member.asn,
                        verdict: *verdict,
                        step: Step::PrivateLinks,
                        evidence: why.clone(),
                    });
                }
            }
            let n5 = late.len() - n4;
            late.sort_unstable_by_key(|inf| inf.addr);
            self.result = Arc::new(PipelineResult {
                inferences: merge_by_addr(self.ledger123.all(), late),
                unclassified: self
                    .rows
                    .iter()
                    .filter(|&&id| matches!(self.step5_output(id), Some(None)))
                    .map(|id| self.members[id.0 as usize].clone())
                    .collect(),
                observations: self.observations.clone(),
                step3_details: self.step3.values().map(|(d, _)| *d).collect(),
                multi_ixp_routers: self
                    .outcomes
                    .values()
                    .flat_map(|o| o.findings.iter().cloned())
                    .collect(),
                counts: StepCounts {
                    baseline: 0,
                    port_capacity: self.ledger1.len(),
                    rtt_colo: self.ledger123.len() - self.ledger1.len(),
                    multi_ixp: n4,
                    private_links: n5,
                },
            });
        }
        self.last_publish = publish;
    }
}

/// Merges the address-ordered `ledger` records with `late` records
/// (address-ordered, at addresses the ledger does not hold).
fn merge_by_addr(ledger: impl Iterator<Item = Inference>, late: Vec<Inference>) -> Vec<Inference> {
    let mut out = Vec::with_capacity(ledger.size_hint().0 + late.len());
    let mut late = late.into_iter().peekable();
    for inf in ledger {
        while let Some(l) = late.next_if(|l| l.addr < inf.addr) {
            out.push(l);
        }
        out.push(inf);
    }
    out.extend(late);
    out
}

/// Set-unions a freshly scanned chunk into the retained step-4 evidence,
/// recording which ASNs actually gained a pair or crossing — the ASNs
/// whose classification inputs changed.
fn absorb_chunk_tracking(
    evidence: &mut Step4Evidence,
    chunk: CorpusChunk,
    grew: &mut BTreeSet<Asn>,
) {
    for (asn, pairs) in chunk.as_pairs {
        let entry = evidence.as_pairs.entry(asn).or_default();
        for p in pairs {
            if entry.insert(p) {
                grew.insert(asn);
            }
        }
    }
    for (asn, ixps) in chunk.crossings {
        let entry = evidence.crossings.entry(asn).or_default();
        for i in ixps {
            if entry.insert(i) {
                grew.insert(asn);
            }
        }
    }
}

/// Runs the pipeline incrementally: builds the retained state over
/// `base` (typically [`InferenceInput::assemble_base`]), applies every
/// delta in order, and returns the pipeline plus the final result —
/// byte-identical to [`crate::pipeline::run_pipeline`] over the fully
/// accumulated input, for any partition and any thread count.
pub fn run_pipeline_incremental<'w>(
    base: InferenceInput<'w>,
    deltas: impl IntoIterator<Item = InputDelta>,
    cfg: &PipelineConfig,
    par: &ParallelConfig,
) -> (IncrementalPipeline<'w>, PipelineResult) {
    let mut pipe = IncrementalPipeline::new(base, cfg, par);
    for delta in deltas {
        pipe.apply(delta);
    }
    let result = pipe.result().clone();
    (pipe, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_pipeline;
    use opeer_measure::campaign::campaign_batches;
    use opeer_measure::traceroute::corpus_batches;
    use opeer_topology::WorldConfig;

    fn epoch_deltas(full: &InferenceInput<'_>, epochs: usize, seed: u64) -> Vec<InputDelta> {
        let (_, campaign_cfg, corpus_cfg) = crate::input::default_configs(seed);
        let camp = campaign_batches(full.world, &full.vps, campaign_cfg, epochs);
        let corp = corpus_batches(full.world, corpus_cfg, epochs);
        InputDelta::zip_batches(camp, corp)
    }

    #[test]
    fn epoch_replay_matches_one_shot() {
        let world = WorldConfig::small(109).generate();
        let full = InferenceInput::assemble(&world, 109);
        let one_shot = run_pipeline(&full, &PipelineConfig::default());
        for epochs in [1, 3] {
            let deltas = epoch_deltas(&full, epochs, 109);
            let (pipe, result) = run_pipeline_incremental(
                InferenceInput::assemble_base(&world, 109),
                deltas,
                &PipelineConfig::default(),
                &ParallelConfig::new(2),
            );
            assert!(
                pipe.input().content_eq(&full),
                "{epochs}-epoch accumulated input diverged"
            );
            assert_eq!(result, one_shot, "{epochs}-epoch result diverged");
        }
    }

    #[test]
    fn warm_start_over_full_input_matches_one_shot() {
        let world = WorldConfig::small(7).generate();
        let full = InferenceInput::assemble(&world, 7);
        let one_shot = run_pipeline(&full, &PipelineConfig::default());
        let pipe =
            IncrementalPipeline::new(full, &PipelineConfig::default(), &ParallelConfig::new(3));
        assert_eq!(*pipe.result(), one_shot);
    }

    #[test]
    fn empty_delta_is_cheap_and_stable() {
        let world = WorldConfig::small(7).generate();
        let full = InferenceInput::assemble(&world, 7);
        let mut pipe =
            IncrementalPipeline::new(full, &PipelineConfig::default(), &ParallelConfig::new(1));
        let before = pipe.result().clone();
        pipe.apply(InputDelta::default());
        assert_eq!(*pipe.result(), before);
        let dirty = pipe.last_dirty();
        assert_eq!(dirty.step1_ixps, 0);
        assert_eq!(dirty.step2_observations, 0);
        assert_eq!(dirty.step3_targets, 0);
        assert_eq!(dirty.corpus_traces, 0);
        assert_eq!(dirty.step4_candidates, 0);
        assert_eq!(dirty.step5_ixps, 0);
    }

    #[test]
    fn single_epoch_delta_does_less_work_than_full_rerun() {
        let world = WorldConfig::small(109).generate();
        let full = InferenceInput::assemble(&world, 109);
        let deltas = epoch_deltas(&full, 4, 109);
        let mut pipe = IncrementalPipeline::new(
            InferenceInput::assemble_base(&world, 109),
            &PipelineConfig::default(),
            &ParallelConfig::new(2),
        );
        let mut last = DirtyCounts::default();
        for delta in deltas {
            pipe.apply(delta);
            last = pipe.last_dirty();
        }
        let totals = pipe.totals();
        assert!(
            last.total() < totals.total() / 2,
            "last epoch recomputed {last:?} of {totals:?} — not incremental"
        );
        assert!(
            last.step1_ixps == 0,
            "step 1 must stay clean without registry deltas"
        );
        assert!(
            last.step3_targets < totals.targets,
            "every target re-evaluated on the last epoch"
        );
    }

    #[test]
    fn registry_revision_triggers_full_rerun_and_stays_identical() {
        let world = WorldConfig::small(31).generate();
        let full = InferenceInput::assemble(&world, 31);
        let one_shot = run_pipeline(&full, &PipelineConfig::default());
        let mut pipe = IncrementalPipeline::new(
            InferenceInput::assemble(&world, 31),
            &PipelineConfig::default(),
            &ParallelConfig::new(2),
        );
        // Re-deliver the same registry as a revision: the result must be
        // unchanged, and the whole shard population must have been
        // recomputed (the revision invalidates everything).
        let observed = pipe.input().observed.clone();
        let table1 = pipe.input().table1.clone();
        pipe.apply(InputDelta::registry(observed, table1));
        assert_eq!(*pipe.result(), one_shot);
        let dirty = pipe.last_dirty();
        let totals = pipe.totals();
        assert_eq!(dirty.step1_ixps, totals.ixps);
        assert_eq!(dirty.step5_ixps, totals.ixps);
        assert_eq!(dirty.corpus_traces, totals.corpus_traces);
    }

    /// Every cache the pipeline keeps across epochs, checked against a
    /// from-scratch rebuild over the accumulated input.
    fn assert_caches_are_exact(pipe: &IncrementalPipeline<'_>, label: &str) {
        let input = &pipe.input;
        let cfg = &pipe.cfg;
        let mut ledger = Ledger::new();
        let n1 = step1::apply(input, &mut ledger);
        let details = step3::apply_with_rounding(
            input,
            &step2::consolidate(input),
            &cfg.speed,
            &mut ledger,
            cfg.honor_lg_rounding,
        );
        assert_eq!(
            pipe.ledger123.all().collect::<Vec<_>>(),
            ledger.all().collect::<Vec<_>>(),
            "{label}: ledger123"
        );
        assert_eq!(
            (
                pipe.ledger1.len(),
                pipe.ledger123.len() - pipe.ledger1.len()
            ),
            (n1, ledger.len() - n1),
            "{label}: step counts"
        );
        let rebuilt = Step3Index::build(&input.interns, details.iter().copied());
        let kept = Step3Index::over(&input.interns, &pipe.step3_rows);
        for &addr in input.interns.addrs.keys() {
            assert_eq!(kept.get(addr), rebuilt.get(addr), "{label}: row of {addr}");
        }
        step4::apply(input, &rebuilt, &cfg.alias, &mut ledger);
        let ev5 = step5::harvest(input);
        for (id, m) in pipe.members.iter().enumerate() {
            assert_eq!(
                pipe.unknown[id],
                !ledger.known(m.addr),
                "{label}: unknown set at {}",
                m.addr
            );
            if pipe.unknown[id] {
                let now = step5::classify_interface(input, &ev5, &cfg.alias, m.ixp, m.addr, m.asn);
                assert_eq!(pipe.votes[id], Some(now), "{label}: vote of {}", m.addr);
            }
        }
    }

    #[test]
    fn retained_caches_equal_their_rebuilds() {
        // Seed 339 has epochs that drop a step-3 inference, so the
        // ledger check also runs right after an in-place removal.
        let mut step3_removals = 0;
        for seed in [109, 31, 339] {
            let world = WorldConfig::small(seed).generate();
            let full = InferenceInput::assemble(&world, seed);
            let (_, campaign_cfg, corpus_cfg) = crate::input::default_configs(seed);
            let camp = campaign_batches(full.world, &full.vps, campaign_cfg, 8);
            let corp = corpus_batches(full.world, corpus_cfg, 8);
            // Odd epochs arrive as a campaign-only then a corpus-only
            // delta; an empty delta and a same-registry revision are
            // spliced in after epochs 2 and 5.
            let deltas = || {
                let mut out = Vec::new();
                for (k, (c, t)) in camp.iter().zip(&corp).enumerate() {
                    if k % 2 == 0 {
                        out.push(InputDelta::campaign(c.clone()).with_corpus(t.clone()));
                    } else {
                        out.push(InputDelta::campaign(c.clone()));
                        out.push(InputDelta::corpus(t.clone()));
                    }
                    match k {
                        2 => out.push(InputDelta::default()),
                        5 => out.push(InputDelta::registry(
                            full.observed.clone(),
                            full.table1.clone(),
                        )),
                        _ => {}
                    }
                }
                out
            };
            let mut pipes: Vec<IncrementalPipeline<'_>> = [1, 2]
                .iter()
                .map(|&t| {
                    IncrementalPipeline::new(
                        InferenceInput::assemble_base(&world, seed),
                        &PipelineConfig::default(),
                        &ParallelConfig::new(t),
                    )
                })
                .collect();
            let n_deltas = deltas().len();
            let mut streams: Vec<_> = pipes.iter().map(|_| deltas().into_iter()).collect();
            let (mut corpus_only, mut voted_on_corpus_only) = (0, 0);
            for e in 0..n_deltas {
                for (pipe, stream) in pipes.iter_mut().zip(&mut streams) {
                    let delta = stream.next().expect("one stream per pipeline");
                    let is_corpus_only = delta.campaign.is_none()
                        && delta.registry.is_none()
                        && !delta.corpus.is_empty();
                    let corpus_start = pipe.input.corpus.len();
                    let unknown_before = pipe.unknown.clone();
                    let step3_held: Vec<Ipv4Addr> = pipe
                        .step3
                        .iter()
                        .filter(|(a, (_, inf))| inf.is_some() && !pipe.ledger1.known(**a))
                        .map(|(a, _)| *a)
                        .collect();
                    pipe.apply(delta);
                    step3_removals += step3_held
                        .iter()
                        .filter(|a| pipe.step3[*a].1.is_none())
                        .count();
                    let label = format!("seed {seed}, {} threads, delta {e}", pipe.par.threads);
                    assert_caches_are_exact(pipe, &label);
                    if !is_corpus_only {
                        continue;
                    }
                    corpus_only += 1;
                    voted_on_corpus_only += pipe.voted.len();
                    let grown = step5::harvest_chunk(
                        &pipe.input,
                        &pipe.evidence.data,
                        corpus_start..pipe.input.corpus.len(),
                    );
                    let grown_ifaces: BTreeSet<Ipv4Addr> = grown
                        .asns()
                        .filter_map(|asn| pipe.evidence.lan_ifaces.get(&asn))
                        .flatten()
                        .map(|&(addr, _)| addr)
                        .collect();
                    for id in &pipe.voted {
                        let i = id.0 as usize;
                        let newly_unknown = pipe.unknown[i] && !unknown_before[i];
                        assert!(
                            newly_unknown || grown_ifaces.contains(&pipe.members[i].addr),
                            "{label}: re-voted {} without new witnesses or a new unknown",
                            pipe.members[i].addr
                        );
                    }
                }
            }
            assert!(corpus_only >= 8, "seed {seed}: too few corpus-only epochs");
            assert!(
                voted_on_corpus_only > 0,
                "seed {seed}: no corpus-only epoch re-voted anything"
            );
            let one_shot = run_pipeline(&full, &PipelineConfig::default());
            for pipe in &pipes {
                assert_eq!(*pipe.result(), one_shot, "seed {seed}: final result");
            }
        }
        assert!(step3_removals > 0, "no epoch dropped a step-3 inference");
    }
}
