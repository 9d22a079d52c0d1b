//! The snapshot-serving query layer: [`PeeringService`].
//!
//! The pipeline's consumers are overwhelmingly *readers* — "is this peer
//! at this IXP remote, and why?" is the paper's operational product
//! (§6, §7) — while the incremental pipeline
//! ([`crate::incremental::IncrementalPipeline`]) is a *writer* that
//! mutates retained state on every epoch. This module is the boundary
//! between the two:
//!
//! * the **write side** owns the incremental pipeline behind a mutex;
//!   [`PeeringService::apply`] absorbs an [`InputDelta`], recomputes the
//!   dirty shards, and *publishes* the refreshed result;
//! * the **read side** is an immutable, epoch-versioned [`Snapshot`]
//!   behind an `Arc` swap: publication replaces the `Arc` pointer, so a
//!   reader that grabbed the previous snapshot keeps a fully consistent
//!   view for as long as it holds it, and a fresh
//!   [`PeeringService::snapshot`] call observes the new epoch. Readers
//!   hold a lock only for the duration of an `Arc` refcount bump —
//!   query evaluation itself never takes any lock and never blocks the
//!   writer.
//!
//! Every query answer is tagged with the [`Snapshot::epoch`] it was
//! computed from, so a caller interleaving queries with a live writer
//! can always tell which ingest state an answer reflects. Published
//! epochs are strictly monotonic (the swap happens under the writer
//! mutex).
//!
//! ## Indexes, built once per publish
//!
//! A [`Snapshot`] is not a bare [`PipelineResult`]: at publish time it
//! builds the lookup structure each query family needs, so the typed
//! queries are O(1)/O(log n)/O(k) instead of O(n) scans over the
//! inference vector. The indexes are dense-id flat arrays rather than
//! per-key maps (ARCHITECTURE.md, "memory layout"):
//!
//! * by interface address → inference / unclassified record
//!   ([`Snapshot::verdict`], [`Snapshot::explain`]) — binary search on
//!   the address-sorted result vectors themselves plus one sorted side
//!   index for the residual records;
//! * by member ASN → that member's interfaces, step-4 router findings,
//!   and colocation facilities ([`Snapshot::asn_report`]) — rows over
//!   the input's interned [`crate::intern::AsnId`] universe: interface
//!   records and findings in per-ASN-range segments, colocation in the
//!   registry partition;
//! * per-IXP rollups — verdict tallies, per-step [`StepCounts`], remote
//!   share, step contributions — computed once
//!   ([`Snapshot::ixp_report`], [`Snapshot::ixp_rollups`],
//!   [`Snapshot::step_contributions`]).
//!
//! ## The contract
//!
//! Snapshot answers are a pure function of the retained
//! [`PipelineResult`] plus the fused registry view, and the retained
//! result is byte-identical to a one-shot
//! [`run_pipeline`][crate::pipeline::run_pipeline] over the accumulated
//! input at every epoch and every `OPEER_THREADS` (the incremental
//! contract). Therefore every query answer equals a naive scan of the
//! equivalent one-shot result — `tests/service_oracle.rs` proptests
//! exactly that, across random worlds × epoch partitions × thread
//! counts.

use crate::engine::{map_indexed, shard_ranges, ParallelConfig};
use crate::incremental::{DirtyCounts, IncrementalPipeline, InputDelta, PublishDirty};
use crate::input::InferenceInput;
use crate::intern::InternTables;
use crate::pipeline::{PipelineConfig, PipelineResult, StepCounts};
use crate::steps::step2::RttObservation;
use crate::steps::step3::Step3Detail;
use crate::steps::step4::MultiIxpFinding;
use crate::types::{Step, Verdict};
use opeer_net::Asn;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Largest batch [`Snapshot::query`] accepts.
pub const MAX_BATCH: usize = 4096;

// ---------------------------------------------------------------------
// error taxonomy
// ---------------------------------------------------------------------

/// Why a query could not be answered. Serde-serializable, so a wire
/// layer can ship the rejection as-is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceError {
    /// The observed IXP index is out of range for this snapshot.
    UnknownIxp {
        /// The requested index.
        ixp: usize,
        /// How many observed IXPs the snapshot holds.
        ixps: usize,
    },
    /// The interface address is not an observed member interface (at
    /// the given IXP, when the query names one).
    UnknownInterface {
        /// The IXP the query scoped the lookup to, if any.
        ixp: Option<usize>,
        /// The requested address.
        addr: Ipv4Addr,
    },
    /// No observed member interface belongs to this ASN.
    UnknownAsn {
        /// The requested ASN.
        asn: Asn,
    },
    /// The batch is larger than [`MAX_BATCH`]. (An empty batch is a
    /// valid no-op — a wire gateway probes liveness with one — and
    /// answers `Ok(vec![])`, so emptiness is not an error.)
    InvalidBatch {
        /// The rejected batch length.
        len: usize,
        /// The maximum accepted length.
        max: usize,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownIxp { ixp, ixps } => {
                write!(f, "unknown IXP index {ixp} (snapshot holds {ixps})")
            }
            ServiceError::UnknownInterface { ixp: Some(i), addr } => {
                write!(f, "{addr} is not an observed member interface of IXP {i}")
            }
            ServiceError::UnknownInterface { ixp: None, addr } => {
                write!(f, "{addr} is not an observed member interface")
            }
            ServiceError::UnknownAsn { asn } => {
                write!(f, "no observed member interface belongs to {asn}")
            }
            ServiceError::InvalidBatch { len, max } => {
                write!(f, "invalid batch of {len} requests (accepted: 0..={max})")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

// ---------------------------------------------------------------------
// wire types
// ---------------------------------------------------------------------

/// The answer to a point verdict lookup.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictAnswer {
    /// Epoch of the snapshot that produced this answer.
    pub epoch: u64,
    /// The interface address.
    pub addr: Ipv4Addr,
    /// Observed IXP index the interface belongs to.
    pub ixp: usize,
    /// Member ASN.
    pub asn: Asn,
    /// The verdict; `None` when the interface is observed but no step
    /// classified it.
    pub verdict: Option<Verdict>,
    /// The step that produced the verdict, when there is one.
    pub step: Option<Step>,
}

/// One observed IXP's precomputed verdict rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IxpRollup {
    /// Observed IXP index.
    pub ixp: usize,
    /// The IXP's registry name.
    pub name: String,
    /// Observed member interfaces.
    pub interfaces: usize,
    /// Interfaces classified local.
    pub local: usize,
    /// Interfaces classified remote.
    pub remote: usize,
    /// Interfaces no step classified.
    pub unclassified: usize,
    /// Per-step contribution counts.
    pub counts: StepCounts,
    /// `remote / (local + remote)`; 0 when nothing was inferred.
    pub remote_share: f64,
}

/// An indexable, iterable view over a snapshot's per-IXP rollup
/// partitions ([`Snapshot::ixp_rollups`]). Behaves like the
/// `&[IxpRollup]` slice it replaced — `len`/`get`/indexing/iteration —
/// over rollups that now live behind individually shared `Arc`s.
#[derive(Clone, Copy)]
pub struct IxpRollups<'a>(&'a [Arc<IxpRollup>]);

impl<'a> IxpRollups<'a> {
    /// Number of observed IXPs.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no IXPs were observed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The rollup for one IXP index, if in range.
    pub fn get(&self, ixp: usize) -> Option<&'a IxpRollup> {
        self.0.get(ixp).map(|r| &**r)
    }

    /// Iterates the rollups in IXP-index order.
    pub fn iter(&self) -> <IxpRollups<'a> as IntoIterator>::IntoIter {
        (*self).into_iter()
    }
}

impl<'a> IntoIterator for IxpRollups<'a> {
    type Item = &'a IxpRollup;
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, Arc<IxpRollup>>,
        fn(&'a Arc<IxpRollup>) -> &'a IxpRollup,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|r| &**r)
    }
}

impl<'a> IntoIterator for &IxpRollups<'a> {
    type Item = &'a IxpRollup;
    type IntoIter = <IxpRollups<'a> as IntoIterator>::IntoIter;

    fn into_iter(self) -> Self::IntoIter {
        (*self).into_iter()
    }
}

impl std::ops::Index<usize> for IxpRollups<'_> {
    type Output = IxpRollup;

    fn index(&self, ixp: usize) -> &IxpRollup {
        &self.0[ixp]
    }
}

/// The answer to an IXP report query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IxpReport {
    /// Epoch of the snapshot that produced this answer.
    pub epoch: u64,
    /// The rollup for the requested IXP.
    pub rollup: IxpRollup,
}

/// The answer to a member (ASN) report query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsnReport {
    /// Epoch of the snapshot that produced this answer.
    pub epoch: u64,
    /// The member ASN.
    pub asn: Asn,
    /// Every observed interface of the member, in address order, each
    /// with its verdict (or `None` when unclassified).
    pub interfaces: Vec<VerdictAnswer>,
    /// Distinct observed IXPs the member holds interfaces at, ascending.
    pub ixps: Vec<usize>,
    /// Interfaces classified local.
    pub local: usize,
    /// Interfaces classified remote.
    pub remote: usize,
    /// Interfaces no step classified.
    pub unclassified: usize,
    /// Per-step contribution counts over the member's interfaces.
    pub counts: StepCounts,
}

/// The full evidence chain behind one interface's verdict: what the
/// inferring step said, the RTT material and feasibility annulus it
/// read, the member's colocation record, and the alias/multi-IXP
/// router witnesses that touch the interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// Epoch of the snapshot that produced this answer.
    pub epoch: u64,
    /// The interface address.
    pub addr: Ipv4Addr,
    /// Observed IXP index the interface belongs to.
    pub ixp: usize,
    /// Member ASN.
    pub asn: Asn,
    /// The verdict; `None` when no step classified the interface.
    pub verdict: Option<Verdict>,
    /// The step that produced the verdict.
    pub step: Option<Step>,
    /// The inferring step's human-readable evidence line.
    pub evidence: Option<String>,
    /// The consolidated step-2 ping observation, if the campaign
    /// reached the interface.
    pub observation: Option<RttObservation>,
    /// The step-3 feasibility evaluation: annulus bounds and feasible
    /// IXP facility count.
    pub annulus: Option<Step3Detail>,
    /// Facility indices the fused registry colocates the member in.
    pub colo_facilities: Vec<usize>,
    /// Step-4 router findings of the member that involve this interface
    /// (alias groups containing it, or routers facing its IXP).
    pub multi_ixp_witnesses: Vec<MultiIxpFinding>,
}

/// One request of a [`Snapshot::query`] batch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryRequest {
    /// Point verdict lookup: is this interface at this IXP remote?
    Verdict {
        /// Observed IXP index.
        ixp: usize,
        /// Member interface address.
        iface: Ipv4Addr,
    },
    /// Member report across all its observed interfaces.
    AsnReport {
        /// Member ASN.
        asn: Asn,
    },
    /// Per-IXP rollup report.
    IxpReport {
        /// Observed IXP index.
        ixp: usize,
    },
    /// Full evidence chain for one interface.
    Explain {
        /// Member interface address.
        iface: Ipv4Addr,
    },
}

/// One answer of a [`Snapshot::query`] batch, positionally matching the
/// request. Per-item failures are embedded (the batch itself only fails
/// on an invalid shape).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryResponse {
    /// Answer to [`QueryRequest::Verdict`].
    Verdict(VerdictAnswer),
    /// Answer to [`QueryRequest::AsnReport`].
    Asn(AsnReport),
    /// Answer to [`QueryRequest::IxpReport`].
    Ixp(IxpReport),
    /// Answer to [`QueryRequest::Explain`].
    Explain(Explanation),
    /// The request could not be answered.
    Error(ServiceError),
}

// ---------------------------------------------------------------------
// snapshot
// ---------------------------------------------------------------------

/// ASN ids per per-ASN report segment: the granularity of per-ASN partition
/// sharing. Small enough that one dirty member invalidates only its
/// 64-id neighbourhood, large enough that segment headers stay noise
/// next to the records they hold. Public so the sharing tests can map
/// a dirty ASN to the segment it must have invalidated.
pub const SEGMENT_WIDTH: usize = 64;

/// The registry-derived partition: the dense-id tables plus the per-ASN
/// colocation rows. A pure function of the fused registry view, so
/// delta publishes share it untouched epoch after epoch until a
/// registry revision forces a full rebuild.
#[derive(Debug, PartialEq)]
struct RegistryPart {
    /// The dense-id tables of the input this snapshot was published
    /// from (cloned — the snapshot outlives the write side's epoch).
    interns: InternTables,
    /// ASN id → colocation facility indices (fused registry view).
    colo: Vec<Vec<usize>>,
}

/// The merged-result partition: the retained [`PipelineResult`] plus
/// the address-keyed side index and the overall share. The result
/// vectors are position-dependent (one changed record shifts every
/// index after it), so this partition cannot be split further — it is
/// rebuilt whenever the epoch changed *any* merged record and shared
/// wholesale when the epoch changed nothing. The result itself is the
/// pipeline's own allocation, shared rather than copied at publish.
#[derive(Debug, PartialEq)]
struct CorePart {
    result: Arc<PipelineResult>,
    /// `(addr, index into result.unclassified)`, sorted by address (the
    /// residual scan emits (ixp, addr) order, so it needs this index;
    /// `inferences`/`step3_details` do not).
    unclassified_by_addr: Vec<(Ipv4Addr, u32)>,
    /// Overall `remote / inferred` share.
    remote_share: f64,
}

impl CorePart {
    fn build(result: Arc<PipelineResult>) -> CorePart {
        // The binary-searchable result vectors must be address-sorted;
        // both come out of address-ordered ledger/consolidation merges.
        debug_assert!(result.inferences.windows(2).all(|w| w[0].addr < w[1].addr));
        debug_assert!(result
            .step3_details
            .windows(2)
            .all(|w| w[0].addr < w[1].addr));
        let mut unclassified_by_addr: Vec<(Ipv4Addr, u32)> = result
            .unclassified
            .iter()
            .enumerate()
            .map(|(idx, u)| (u.addr, idx as u32))
            .collect();
        // Stable by-address sort, then keep the *last* record per
        // address — the order a map insertion pass would have kept.
        unclassified_by_addr.sort_by_key(|&(addr, _)| addr);
        unclassified_by_addr.reverse();
        unclassified_by_addr.dedup_by_key(|&mut (addr, _)| addr);
        unclassified_by_addr.reverse();
        let remote_share = result.remote_share();
        CorePart {
            result,
            unclassified_by_addr,
            remote_share,
        }
    }
}

/// One member interface's materialized report row. Unlike a CSR of
/// *positions into the result vectors* — which shift globally on any
/// result change — the rows carry their content, so a segment stays
/// valid (and shareable across epochs) as long as its own members'
/// records are unchanged.
#[derive(Debug, Clone, PartialEq)]
struct MemberRecord {
    addr: Ipv4Addr,
    ixp: u32,
    verdict: Option<Verdict>,
    step: Option<Step>,
}

/// The per-ASN report partition covering [`SEGMENT_WIDTH`] consecutive
/// interned [`crate::intern::AsnId`]s: each row holds one member's
/// interface records (address order) and step-4 router findings (result
/// order). A delta publish rebuilds only the segments containing a
/// dirty ASN and `Arc`-shares the rest.
#[derive(Debug, Clone, PartialEq)]
struct AsnSegment {
    /// Interface records per ASN id in range, address-sorted.
    records: Vec<Vec<MemberRecord>>,
    /// Step-4 findings per ASN id in range, result order.
    findings: Vec<Vec<MultiIxpFinding>>,
}

/// Per-IXP tallies of one result shard. Summed across shards — sums are
/// order-independent, so any sharding merges to the same rollup.
#[derive(Clone, Copy, Default)]
struct RollupTally {
    local: usize,
    remote: usize,
    unclassified: usize,
    counts: StepCounts,
}

/// Builds fresh rollups for the listed IXP indices with one sharded
/// tally pass over the result, fanned over the engine pool.
fn build_rollups_for(
    input: &InferenceInput<'_>,
    result: &PipelineResult,
    dirty: &[usize],
    threads: usize,
) -> Vec<Arc<IxpRollup>> {
    let n_ixps = input.observed.ixps.len();
    let mut pos: Vec<Option<u32>> = vec![None; n_ixps];
    for (k, &i) in dirty.iter().enumerate() {
        pos[i] = Some(k as u32);
    }
    let pos = &pos;
    let inf_ranges = shard_ranges(result.inferences.len(), threads * 4);
    let unc_ranges = shard_ranges(result.unclassified.len(), threads * 4);
    let n_shards = inf_ranges.len().max(unc_ranges.len());
    let tallies = map_indexed(n_shards, threads, |s| {
        let mut t = vec![RollupTally::default(); dirty.len()];
        if let Some(r) = inf_ranges.get(s) {
            for inf in &result.inferences[r.clone()] {
                if let Some(&Some(k)) = pos.get(inf.ixp) {
                    let t = &mut t[k as usize];
                    match inf.verdict {
                        Verdict::Local => t.local += 1,
                        Verdict::Remote => t.remote += 1,
                    }
                    t.counts.record(inf.step);
                }
            }
        }
        if let Some(r) = unc_ranges.get(s) {
            for u in &result.unclassified[r.clone()] {
                if let Some(&Some(k)) = pos.get(u.ixp) {
                    t[k as usize].unclassified += 1;
                }
            }
        }
        t
    });
    let mut merged = vec![RollupTally::default(); dirty.len()];
    for shard in tallies {
        for (m, t) in merged.iter_mut().zip(shard) {
            m.local += t.local;
            m.remote += t.remote;
            m.unclassified += t.unclassified;
            m.counts.baseline += t.counts.baseline;
            m.counts.port_capacity += t.counts.port_capacity;
            m.counts.rtt_colo += t.counts.rtt_colo;
            m.counts.multi_ixp += t.counts.multi_ixp;
            m.counts.private_links += t.counts.private_links;
        }
    }
    dirty
        .iter()
        .zip(merged)
        .map(|(&i, t)| {
            let inferred = t.local + t.remote;
            Arc::new(IxpRollup {
                ixp: i,
                name: input.observed.ixps[i].name.clone(),
                interfaces: input.observed.ixps[i].interfaces.len(),
                local: t.local,
                remote: t.remote,
                unclassified: t.unclassified,
                counts: t.counts,
                remote_share: if inferred > 0 {
                    t.remote as f64 / inferred as f64
                } else {
                    0.0
                },
            })
        })
        .collect()
}

/// Builds fresh report segments for the listed segment indices: one
/// sequential bucketing pass over the result (preserving commit order),
/// then per-row address sorts.
fn build_segments_for(
    interns: &InternTables,
    result: &PipelineResult,
    dirty: &[usize],
    n_segs: usize,
) -> Vec<Arc<AsnSegment>> {
    let mut pos: Vec<Option<u32>> = vec![None; n_segs];
    for (k, &s) in dirty.iter().enumerate() {
        pos[s] = Some(k as u32);
    }
    let mut segs: Vec<AsnSegment> = dirty
        .iter()
        .map(|_| AsnSegment {
            records: vec![Vec::new(); SEGMENT_WIDTH],
            findings: vec![Vec::new(); SEGMENT_WIDTH],
        })
        .collect();
    // Items without an interned ASN are skipped — they can never be
    // queried, since report queries key on observed member ASNs.
    let slot = |asn: Asn| -> Option<(usize, usize)> {
        let id = interns.asn_id(asn)?.0 as usize;
        let k = pos[id / SEGMENT_WIDTH]?;
        Some((k as usize, id % SEGMENT_WIDTH))
    };
    for inf in &result.inferences {
        if let Some((k, row)) = slot(inf.asn) {
            segs[k].records[row].push(MemberRecord {
                addr: inf.addr,
                ixp: inf.ixp as u32,
                verdict: Some(inf.verdict),
                step: Some(inf.step),
            });
        }
    }
    for u in &result.unclassified {
        if let Some((k, row)) = slot(u.asn) {
            segs[k].records[row].push(MemberRecord {
                addr: u.addr,
                ixp: u.ixp as u32,
                verdict: None,
                step: None,
            });
        }
    }
    for f in &result.multi_ixp_routers {
        if let Some((k, row)) = slot(f.asn) {
            segs[k].findings[row].push(f.clone());
        }
    }
    for seg in &mut segs {
        for row in &mut seg.records {
            // Stable by-address sort: inferred records arrive address-
            // sorted, residual records after them — the same order the
            // CSR-rows-then-sort pass produced.
            row.sort_by_key(|r| r.addr);
        }
    }
    segs.into_iter().map(Arc::new).collect()
}

/// The contribution map is derived from the full rollup set, so it is
/// one partition of its own: rebuilt when any rollup changed, shared
/// otherwise.
fn contributions_of(ixps: &[Arc<IxpRollup>]) -> BTreeMap<usize, StepCounts> {
    ixps.iter()
        .filter(|r| r.counts.total() > 0)
        .map(|r| (r.ixp, r.counts))
        .collect()
}

/// An immutable, epoch-versioned view of the pipeline output with the
/// query indexes built once at publish time. Cheap to share
/// (`Arc<Snapshot>`); all methods take `&self` and never lock.
///
/// The indexes are dense-id flat arrays, not maps (see the
/// "memory layout" section of ARCHITECTURE.md): point lookups binary
/// search the result vectors directly — `result.inferences` and
/// `result.step3_details` are already address-sorted, so they *are*
/// their own index — and the per-ASN families are rows over the input's
/// interned [`crate::intern::AsnId`] universe: `AsnSegment` rows of
/// `MemberRecord`s and step-4 findings, plus the registry partition's
/// colocation rows.
pub struct Snapshot {
    epoch: u64,
    /// Registry-derived partition (interns + colocation rows).
    registry: Arc<RegistryPart>,
    /// Merged-result partition (result vectors + address side index).
    core: Arc<CorePart>,
    /// One rollup partition per observed IXP, individually shareable.
    ixps: Vec<Arc<IxpRollup>>,
    /// Report partitions over the interned ASN universe, one per
    /// [`SEGMENT_WIDTH`] ids.
    segments: Vec<Arc<AsnSegment>>,
    /// Per-IXP step contributions, derived from the full rollup set at
    /// publish time (the seed rebuilt this map on every call).
    contributions: Arc<BTreeMap<usize, StepCounts>>,
}

/// Raw partition pointer identities of one snapshot — the sharing
/// structure made inspectable, for gauges and the sharing proptests.
/// Two snapshots share a partition iff the corresponding entries are
/// equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPtrs {
    /// The registry partition.
    pub registry: usize,
    /// The merged-result partition.
    pub core: usize,
    /// The step-contribution map partition.
    pub contributions: usize,
    /// The per-IXP rollup partitions, by IXP index.
    pub ixps: Vec<usize>,
    /// The per-ASN report segments, by segment index.
    pub segments: Vec<usize>,
}

/// A partition identity set for **deduplicated** deep-size accounting
/// across snapshots: partitions already counted through one snapshot
/// are skipped when reached again through another. See
/// [`Snapshot::retained_bytes_deduped`].
#[derive(Debug, Default)]
pub struct PartitionSeen(BTreeSet<usize>);

impl PartitionSeen {
    fn first(&mut self, ptr: usize) -> bool {
        self.0.insert(ptr)
    }
}

impl Snapshot {
    /// Builds every partition from scratch (the from-scratch publish
    /// pass — construction, registry revisions, and the non-shared
    /// baseline the sharing tests and benches compare against).
    pub fn build_full(
        epoch: u64,
        input: &InferenceInput<'_>,
        result: PipelineResult,
        par: &ParallelConfig,
    ) -> Snapshot {
        Snapshot::build_full_shared(epoch, input, Arc::new(result), par)
    }

    /// [`Snapshot::build_full`] over a result the caller keeps sharing.
    fn build_full_shared(
        epoch: u64,
        input: &InferenceInput<'_>,
        result: Arc<PipelineResult>,
        par: &ParallelConfig,
    ) -> Snapshot {
        let threads = par.threads.max(1);
        let interns = input.interns.clone();
        let n_asns = interns.asns.len();
        // Colocation rows for the whole interned universe (dense by
        // ASN id; the fused per-AS table also covers non-members).
        let colo = interns
            .asns
            .keys()
            .iter()
            .map(|&asn| {
                input
                    .observed
                    .facilities_of_as(asn)
                    .map(<[usize]>::to_vec)
                    .unwrap_or_default()
            })
            .collect();
        let registry = Arc::new(RegistryPart { interns, colo });
        let all_ixps: Vec<usize> = (0..input.observed.ixps.len()).collect();
        let ixps = build_rollups_for(input, &result, &all_ixps, threads);
        let n_segs = n_asns.div_ceil(SEGMENT_WIDTH);
        let all_segs: Vec<usize> = (0..n_segs).collect();
        let segments = build_segments_for(&registry.interns, &result, &all_segs, n_segs);
        let contributions = Arc::new(contributions_of(&ixps));
        let core = Arc::new(CorePart::build(result));
        Snapshot {
            epoch,
            registry,
            core,
            ixps,
            segments,
            contributions,
        }
    }

    /// Publishes by *delta* against the previous snapshot: partitions
    /// the epoch's [`PublishDirty`] sets cannot have touched are shared
    /// by `Arc` clone, and only the dirty per-IXP rollups / per-ASN
    /// segments are rebuilt (fanned over the engine pool). A clean
    /// epoch shares everything — including the result vectors — so its
    /// publish cost is a handful of refcount bumps regardless of world
    /// size. The answers are byte-identical to [`Snapshot::build_full`]
    /// over the same result: `tests/snapshot_sharing.rs` pins that.
    pub fn build_delta(
        epoch: u64,
        input: &InferenceInput<'_>,
        result: &Arc<PipelineResult>,
        prev: &Snapshot,
        publish: &PublishDirty,
        par: &ParallelConfig,
    ) -> Snapshot {
        if publish.is_clean() {
            return Snapshot {
                epoch,
                registry: Arc::clone(&prev.registry),
                core: Arc::clone(&prev.core),
                ixps: prev.ixps.clone(),
                segments: prev.segments.clone(),
                contributions: Arc::clone(&prev.contributions),
            };
        }
        if publish.full {
            return Snapshot::build_full_shared(epoch, input, Arc::clone(result), par);
        }
        let threads = par.threads.max(1);
        let registry = Arc::clone(&prev.registry);
        let dirty_ixps: Vec<usize> = publish
            .ixps
            .iter()
            .copied()
            .filter(|&i| i < prev.ixps.len())
            .collect();
        let mut ixps = prev.ixps.clone();
        for (&i, rollup) in
            dirty_ixps
                .iter()
                .zip(build_rollups_for(input, result, &dirty_ixps, threads))
        {
            ixps[i] = rollup;
        }
        let n_segs = prev.segments.len();
        let dirty_segs: Vec<usize> = publish
            .asns
            .iter()
            .filter_map(|&asn| registry.interns.asn_id(asn))
            .map(|id| id.0 as usize / SEGMENT_WIDTH)
            .collect::<BTreeSet<usize>>()
            .into_iter()
            .collect();
        let mut segments = prev.segments.clone();
        for (&s, seg) in dirty_segs.iter().zip(build_segments_for(
            &registry.interns,
            result,
            &dirty_segs,
            n_segs,
        )) {
            segments[s] = seg;
        }
        let contributions = if dirty_ixps.is_empty() {
            Arc::clone(&prev.contributions)
        } else {
            Arc::new(contributions_of(&ixps))
        };
        let core = Arc::new(CorePart::build(Arc::clone(result)));
        Snapshot {
            epoch,
            registry,
            core,
            ixps,
            segments,
            contributions,
        }
    }

    /// The ingest epoch this snapshot reflects: the number of deltas the
    /// write side had applied when it was published.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The full retained [`PipelineResult`] — for bulk consumers
    /// (experiments, figure regeneration) that genuinely need every
    /// record. Point and report queries should use the typed methods,
    /// which hit the indexes instead.
    pub fn result(&self) -> &PipelineResult {
        &self.core.result
    }

    /// Number of observed IXPs.
    pub fn ixp_count(&self) -> usize {
        self.ixps.len()
    }

    /// Overall fraction of inferred interfaces classified remote.
    pub fn remote_share(&self) -> f64 {
        self.core.remote_share
    }

    /// Every observed IXP's precomputed rollup, as an indexable view
    /// over the per-IXP partitions.
    pub fn ixp_rollups(&self) -> IxpRollups<'_> {
        IxpRollups(&self.ixps)
    }

    /// Per-IXP step-contribution counts (Fig. 10a), computed once at
    /// publish time and served by reference: only IXPs with at least
    /// one inference appear, exactly like
    /// [`PipelineResult::step_contributions`].
    pub fn step_contributions(&self) -> &BTreeMap<usize, StepCounts> {
        &self.contributions
    }

    /// Point lookup: the verdict for one member interface at one IXP.
    /// O(log n) in the interface count; no scan.
    pub fn verdict(&self, ixp: usize, iface: Ipv4Addr) -> Result<VerdictAnswer, ServiceError> {
        if ixp >= self.ixps.len() {
            return Err(ServiceError::UnknownIxp {
                ixp,
                ixps: self.ixps.len(),
            });
        }
        let answer = self
            .answer_for_addr(iface)
            .ok_or(ServiceError::UnknownInterface {
                ixp: Some(ixp),
                addr: iface,
            })?;
        if answer.ixp != ixp {
            // Observed, but at a different exchange than the caller
            // scoped the lookup to.
            return Err(ServiceError::UnknownInterface {
                ixp: Some(ixp),
                addr: iface,
            });
        }
        Ok(answer)
    }

    /// Index into `result.inferences` for an address — the inference
    /// vector is address-sorted, so it is its own index.
    fn inference_idx(&self, addr: Ipv4Addr) -> Option<usize> {
        self.core
            .result
            .inferences
            .binary_search_by(|i| i.addr.cmp(&addr))
            .ok()
    }

    /// Index into `result.unclassified` for an address, via the sorted
    /// side index.
    fn unclassified_idx(&self, addr: Ipv4Addr) -> Option<usize> {
        self.core
            .unclassified_by_addr
            .binary_search_by(|&(a, _)| a.cmp(&addr))
            .ok()
            .map(|pos| self.core.unclassified_by_addr[pos].1 as usize)
    }

    /// The verdict entry for an address regardless of IXP, if observed.
    fn answer_for_addr(&self, addr: Ipv4Addr) -> Option<VerdictAnswer> {
        if let Some(idx) = self.inference_idx(addr) {
            let inf = &self.core.result.inferences[idx];
            return Some(VerdictAnswer {
                epoch: self.epoch,
                addr: inf.addr,
                ixp: inf.ixp,
                asn: inf.asn,
                verdict: Some(inf.verdict),
                step: Some(inf.step),
            });
        }
        let idx = self.unclassified_idx(addr)?;
        let u = &self.core.result.unclassified[idx];
        Some(VerdictAnswer {
            epoch: self.epoch,
            addr: u.addr,
            ixp: u.ixp,
            asn: u.asn,
            verdict: None,
            step: None,
        })
    }

    /// Member report: every observed interface of an ASN with its
    /// verdict, plus tallies. O(k) in the member's interface count.
    pub fn asn_report(&self, asn: Asn) -> Result<AsnReport, ServiceError> {
        let id = self
            .registry
            .interns
            .asn_id(asn)
            .ok_or(ServiceError::UnknownAsn { asn })?
            .0 as usize;
        let records = &self.segments[id / SEGMENT_WIDTH].records[id % SEGMENT_WIDTH];
        if records.is_empty() {
            // Interned (a member somewhere in the registry universe)
            // but without a single interface record in this result —
            // the same `UnknownAsn` the map-keyed index answered.
            return Err(ServiceError::UnknownAsn { asn });
        }
        // The segment rows are materialized position-independent (no
        // epoch, no ASN): the answers are stamped here, so a partition
        // shared across epochs still reports each reader's own epoch.
        let mut counts = StepCounts::default();
        let (mut local, mut remote, mut unclassified) = (0, 0, 0);
        let interfaces: Vec<VerdictAnswer> = records
            .iter()
            .map(|r| {
                match r.verdict {
                    Some(Verdict::Local) => local += 1,
                    Some(Verdict::Remote) => remote += 1,
                    None => unclassified += 1,
                }
                if let Some(step) = r.step {
                    counts.record(step);
                }
                VerdictAnswer {
                    epoch: self.epoch,
                    addr: r.addr,
                    ixp: r.ixp as usize,
                    asn,
                    verdict: r.verdict,
                    step: r.step,
                }
            })
            .collect();
        let mut ixps: Vec<usize> = interfaces.iter().map(|a| a.ixp).collect();
        ixps.sort_unstable();
        ixps.dedup();
        Ok(AsnReport {
            epoch: self.epoch,
            asn,
            interfaces,
            ixps,
            local,
            remote,
            unclassified,
            counts,
        })
    }

    /// Per-IXP report, served from the precomputed rollup. O(1) plus
    /// the rollup clone.
    pub fn ixp_report(&self, ixp: usize) -> Result<IxpReport, ServiceError> {
        let rollup = self.ixps.get(ixp).ok_or(ServiceError::UnknownIxp {
            ixp,
            ixps: self.ixps.len(),
        })?;
        Ok(IxpReport {
            epoch: self.epoch,
            rollup: IxpRollup::clone(rollup),
        })
    }

    /// The evidence chain for one interface: verdict and inferring step,
    /// the step-2 observation and step-3 annulus it read, the member's
    /// colocation facilities, and the multi-IXP router witnesses that
    /// involve the interface (alias groups containing it, or routers of
    /// the member facing its IXP).
    pub fn explain(&self, iface: Ipv4Addr) -> Result<Explanation, ServiceError> {
        let base = self
            .answer_for_addr(iface)
            .ok_or(ServiceError::UnknownInterface {
                ixp: None,
                addr: iface,
            })?;
        let evidence = self
            .inference_idx(iface)
            .map(|idx| self.core.result.inferences[idx].evidence.clone());
        let observation = self.core.result.observations.get(&iface).copied();
        let annulus = self
            .core
            .result
            .step3_details
            .binary_search_by(|d| d.addr.cmp(&iface))
            .ok()
            .map(|idx| self.core.result.step3_details[idx]);
        let asn_id = self
            .registry
            .interns
            .asn_id(base.asn)
            .map(|id| id.0 as usize);
        let colo_facilities = asn_id
            .map(|id| self.registry.colo[id].clone())
            .unwrap_or_default();
        let multi_ixp_witnesses = asn_id
            .map(|id| {
                self.segments[id / SEGMENT_WIDTH].findings[id % SEGMENT_WIDTH]
                    .iter()
                    .filter(|f| f.ifaces.contains(&iface) || f.next_hop_ixps.contains(&base.ixp))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        Ok(Explanation {
            epoch: self.epoch,
            addr: base.addr,
            ixp: base.ixp,
            asn: base.asn,
            verdict: base.verdict,
            step: base.step,
            evidence,
            observation,
            annulus,
            colo_facilities,
            multi_ixp_witnesses,
        })
    }

    /// Deep size of this snapshot's partition graph in bytes, every
    /// partition counted in full. Real element-size accounting
    /// (strings and nested vectors by length) — not an allocator
    /// audit, but a measure that moves one-for-one with what the
    /// snapshot actually pins. For cross-snapshot accounting that
    /// counts shared partitions once, use
    /// [`Snapshot::retained_bytes_deduped`].
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes_deduped(&mut PartitionSeen::default())
    }

    /// Deep size in bytes of the partitions of this snapshot **not
    /// already counted** through `seen`: a partition reached earlier
    /// through another snapshot's call on the same `seen` contributes
    /// zero, so summing over an archive yields the true footprint of
    /// the shared partition graph rather than epochs × full size.
    pub fn retained_bytes_deduped(&self, seen: &mut PartitionSeen) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Snapshot>()
            + self.ixps.capacity() * size_of::<Arc<IxpRollup>>()
            + self.segments.capacity() * size_of::<Arc<AsnSegment>>();
        if seen.first(Arc::as_ptr(&self.registry) as usize) {
            let interns = &self.registry.interns;
            bytes += size_of::<RegistryPart>();
            bytes += size_of_val(interns.addrs.keys());
            bytes += size_of_val(interns.asns.keys());
            bytes += self
                .registry
                .colo
                .iter()
                .map(|row| size_of::<Vec<usize>>() + row.capacity() * size_of::<usize>())
                .sum::<usize>();
        }
        if seen.first(Arc::as_ptr(&self.core) as usize) {
            let result = &self.core.result;
            bytes += size_of::<CorePart>();
            bytes += result.inferences.capacity() * size_of::<crate::types::Inference>();
            bytes += result
                .inferences
                .iter()
                .map(|i| i.evidence.len())
                .sum::<usize>();
            bytes += result.unclassified.capacity() * size_of::<crate::types::Unclassified>();
            bytes += result.observations.len()
                * (size_of::<Ipv4Addr>() + size_of::<RttObservation>() + 4 * size_of::<usize>());
            bytes += result.step3_details.capacity() * size_of::<Step3Detail>();
            bytes += result.multi_ixp_routers.capacity() * size_of::<MultiIxpFinding>();
            bytes += result
                .multi_ixp_routers
                .iter()
                .map(|f| {
                    f.ifaces.capacity() * size_of::<Ipv4Addr>()
                        + f.next_hop_ixps.len() * size_of::<usize>()
                })
                .sum::<usize>();
            bytes += self.core.unclassified_by_addr.capacity() * size_of::<(Ipv4Addr, u32)>();
        }
        if seen.first(Arc::as_ptr(&self.contributions) as usize) {
            bytes += self.contributions.len()
                * (size_of::<usize>() + size_of::<StepCounts>() + 4 * size_of::<usize>());
        }
        for rollup in &self.ixps {
            if seen.first(Arc::as_ptr(rollup) as usize) {
                bytes += size_of::<IxpRollup>() + rollup.name.len();
            }
        }
        for seg in &self.segments {
            if seen.first(Arc::as_ptr(seg) as usize) {
                bytes += size_of::<AsnSegment>();
                bytes += seg
                    .records
                    .iter()
                    .map(|row| {
                        size_of::<Vec<MemberRecord>>() + row.capacity() * size_of::<MemberRecord>()
                    })
                    .sum::<usize>();
                bytes += seg
                    .findings
                    .iter()
                    .map(|row| {
                        size_of::<Vec<MultiIxpFinding>>()
                            + row.capacity() * size_of::<MultiIxpFinding>()
                            + row
                                .iter()
                                .map(|f| {
                                    f.ifaces.capacity() * size_of::<Ipv4Addr>()
                                        + f.next_hop_ixps.len() * size_of::<usize>()
                                })
                                .sum::<usize>()
                    })
                    .sum::<usize>();
            }
        }
        bytes
    }

    /// How many of this snapshot's partitions are shared with at least
    /// one other holder (`strong_count > 1`) versus solely owned.
    /// Served by the gateway's `/metrics` snapshot gauges.
    pub fn partition_counts(&self) -> (usize, usize) {
        let (mut shared, mut owned) = (0, 0);
        let mut tally = |n: usize| {
            if n > 1 {
                shared += 1;
            } else {
                owned += 1;
            }
        };
        tally(Arc::strong_count(&self.registry));
        tally(Arc::strong_count(&self.core));
        tally(Arc::strong_count(&self.contributions));
        for rollup in &self.ixps {
            tally(Arc::strong_count(rollup));
        }
        for seg in &self.segments {
            tally(Arc::strong_count(seg));
        }
        (shared, owned)
    }

    /// The raw partition pointer identities — equality between two
    /// snapshots' entries means the partition is structurally shared.
    pub fn partition_ptrs(&self) -> PartitionPtrs {
        PartitionPtrs {
            registry: Arc::as_ptr(&self.registry) as usize,
            core: Arc::as_ptr(&self.core) as usize,
            contributions: Arc::as_ptr(&self.contributions) as usize,
            ixps: self.ixps.iter().map(|r| Arc::as_ptr(r) as usize).collect(),
            segments: self
                .segments
                .iter()
                .map(|s| Arc::as_ptr(s) as usize)
                .collect(),
        }
    }

    /// Structural equality over partition *contents* (epoch included),
    /// ignoring whether partitions are shared or rebuilt — the
    /// byte-identity check the sharing tests (`tests/snapshot_sharing.rs`,
    /// the retention-capped stream included) run against a non-shared
    /// [`Snapshot::build_full`] baseline.
    pub fn content_eq(&self, other: &Snapshot) -> bool {
        self.epoch == other.epoch
            && *self.registry == *other.registry
            && *self.core == *other.core
            && *self.contributions == *other.contributions
            && self.ixps.len() == other.ixps.len()
            && self.ixps.iter().zip(&other.ixps).all(|(a, b)| **a == **b)
            && self.segments.len() == other.segments.len()
            && self
                .segments
                .iter()
                .zip(&other.segments)
                .all(|(a, b)| **a == **b)
    }

    /// Answers a batch of requests positionally. The batch itself is
    /// rejected ([`ServiceError::InvalidBatch`]) only when larger than
    /// [`MAX_BATCH`]; an **empty batch is a valid no-op** answering an
    /// empty `Vec` (a wire gateway's health probe is exactly that).
    /// Per-item failures come back embedded as
    /// [`QueryResponse::Error`], so one bad request cannot void its
    /// neighbours.
    pub fn query(&self, requests: &[QueryRequest]) -> Result<Vec<QueryResponse>, ServiceError> {
        if requests.len() > MAX_BATCH {
            return Err(ServiceError::InvalidBatch {
                len: requests.len(),
                max: MAX_BATCH,
            });
        }
        Ok(requests.iter().map(|r| self.answer(r)).collect())
    }

    fn answer(&self, request: &QueryRequest) -> QueryResponse {
        match *request {
            QueryRequest::Verdict { ixp, iface } => match self.verdict(ixp, iface) {
                Ok(a) => QueryResponse::Verdict(a),
                Err(e) => QueryResponse::Error(e),
            },
            QueryRequest::AsnReport { asn } => match self.asn_report(asn) {
                Ok(a) => QueryResponse::Asn(a),
                Err(e) => QueryResponse::Error(e),
            },
            QueryRequest::IxpReport { ixp } => match self.ixp_report(ixp) {
                Ok(a) => QueryResponse::Ixp(a),
                Err(e) => QueryResponse::Error(e),
            },
            QueryRequest::Explain { iface } => match self.explain(iface) {
                Ok(a) => QueryResponse::Explain(a),
                Err(e) => QueryResponse::Error(e),
            },
        }
    }
}

// ---------------------------------------------------------------------
// service
// ---------------------------------------------------------------------

/// Read access to the write side's accumulated input. Holds the writer
/// mutex for its lifetime — drop it before calling
/// [`PeeringService::apply`] from the same thread.
pub struct InputGuard<'a, 'w> {
    guard: MutexGuard<'a, IncrementalPipeline<'w>>,
}

impl<'w> std::ops::Deref for InputGuard<'_, 'w> {
    type Target = InferenceInput<'w>;

    fn deref(&self) -> &InferenceInput<'w> {
        self.guard.input()
    }
}

/// What one [`PeeringService::apply_reported`] call published: the new
/// epoch, the snapshot it swapped in (the same `Arc` a concurrent
/// [`PeeringService::snapshot`] call would now return), and the
/// dirty-shard accounting of the recompute. This is the hook the
/// longitudinal archive ([`crate::archive::SnapshotArchive`]) layers
/// on — retention is a clone of the already-published `Arc`, so the
/// write path does no extra work.
pub struct ApplyReport {
    /// The newly published epoch.
    pub epoch: u64,
    /// The published snapshot (shared with the service's read side).
    pub snapshot: Arc<Snapshot>,
    /// Shard units this apply recomputed.
    pub dirty: DirtyCounts,
    /// The exact publish-time dirty sets the delta publish rebuilt
    /// from — which IXP rollups and ASN segments could have changed.
    pub publish: PublishDirty,
    /// Wall-clock milliseconds the snapshot publish took (partition
    /// sharing + dirty rebuilds; excludes the pipeline recompute).
    pub publish_ms: f64,
}

/// The concurrently-readable peering lookup service: an
/// [`IncrementalPipeline`] on the write side, an `Arc`-swapped
/// [`Snapshot`] on the read side. See the [module docs](self).
pub struct PeeringService<'w> {
    write: Mutex<IncrementalPipeline<'w>>,
    current: RwLock<Arc<Snapshot>>,
}

impl<'w> PeeringService<'w> {
    /// Wraps an already-built incremental pipeline (warm or
    /// measurement-free base) and publishes its current state as the
    /// initial snapshot.
    pub fn new(pipeline: IncrementalPipeline<'w>) -> Self {
        let par = *pipeline.parallel();
        let snapshot = Arc::new(Snapshot::build_full_shared(
            pipeline.epochs_applied() as u64,
            pipeline.input(),
            Arc::clone(pipeline.shared_result()),
            &par,
        ));
        PeeringService {
            write: Mutex::new(pipeline),
            current: RwLock::new(snapshot),
        }
    }

    /// Builds the service over an input: runs the pipeline once (on the
    /// engine's worker pool) and publishes epoch 0. Pass
    /// [`InferenceInput::assemble_base`] output to start measurement-free
    /// and stream batches in via [`PeeringService::apply`], or a fully
    /// assembled input for a warm start.
    pub fn build(input: InferenceInput<'w>, cfg: &PipelineConfig, par: &ParallelConfig) -> Self {
        Self::new(IncrementalPipeline::new(input, cfg, par))
    }

    /// Absorbs one delta on the write side (recomputing only the dirty
    /// shards) and publishes the refreshed snapshot. Returns the newly
    /// published epoch. Writers serialize on the internal mutex; the
    /// publish is an `Arc` pointer swap, so in-flight readers keep
    /// their old snapshot and new [`PeeringService::snapshot`] calls see
    /// this epoch. Published epochs are strictly monotonic.
    pub fn apply(&self, delta: InputDelta) -> u64 {
        self.apply_reported(delta).epoch
    }

    /// [`PeeringService::apply`], reporting what was published: the
    /// epoch, the snapshot `Arc` itself, and the dirty-shard counts of
    /// the recompute. The publish path is identical — this is `apply`
    /// (which delegates here) plus an `Arc` clone, so layering the
    /// archive on it cannot perturb the write side.
    pub fn apply_reported(&self, delta: InputDelta) -> ApplyReport {
        let mut pipe = self.write.lock().expect("service writer poisoned");
        pipe.apply(delta);
        let epoch = pipe.epochs_applied() as u64;
        let dirty = pipe.last_dirty();
        let publish = pipe.last_publish().clone();
        let par = *pipe.parallel();
        let prev = self.current.read().expect("snapshot slot poisoned").clone();
        let started = Instant::now();
        let snapshot = Arc::new(Snapshot::build_delta(
            epoch,
            pipe.input(),
            pipe.shared_result(),
            &prev,
            &publish,
            &par,
        ));
        let publish_ms = started.elapsed().as_secs_f64() * 1e3;
        // Swap while still holding the writer mutex: concurrent apply()
        // calls cannot publish out of order.
        *self.current.write().expect("snapshot slot poisoned") = Arc::clone(&snapshot);
        ApplyReport {
            epoch,
            snapshot,
            dirty,
            publish,
            publish_ms,
        }
    }

    /// Shard units the write side's last apply (or initial build)
    /// recomputed. Takes the writer mutex for the read.
    pub fn last_dirty(&self) -> DirtyCounts {
        self.write
            .lock()
            .expect("service writer poisoned")
            .last_dirty()
    }

    /// The current snapshot. The lock is held only for the `Arc`
    /// refcount bump; the returned snapshot stays fully consistent (and
    /// keeps answering at its epoch) however long the caller holds it.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.current.read().expect("snapshot slot poisoned").clone()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Read access to the accumulated input (the write side's view —
    /// what a one-shot run at the current epoch would consume). Holds
    /// the writer mutex until dropped.
    pub fn input(&self) -> InputGuard<'_, 'w> {
        InputGuard {
            guard: self.write.lock().expect("service writer poisoned"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_pipeline;
    use opeer_topology::WorldConfig;

    fn service(seed: u64) -> (opeer_topology::World, PipelineResult) {
        let world = WorldConfig::small(seed).generate();
        let input = InferenceInput::assemble(&world, seed);
        let result = run_pipeline(&input, &PipelineConfig::default());
        (world, result)
    }

    #[test]
    fn point_queries_match_naive_scans() {
        let (world, one_shot) = service(42);
        let input = InferenceInput::assemble(&world, 42);
        let svc = PeeringService::build(
            InferenceInput::assemble(&world, 42),
            &PipelineConfig::default(),
            &ParallelConfig::new(2),
        );
        let snap = svc.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(*snap.result(), one_shot, "warm start must equal one-shot");

        // Every inference answers with its own verdict.
        for inf in &one_shot.inferences {
            let a = snap.verdict(inf.ixp, inf.addr).expect("inferred iface");
            assert_eq!(a.verdict, Some(inf.verdict));
            assert_eq!(a.step, Some(inf.step));
            assert_eq!(a.asn, inf.asn);
            assert_eq!(a.epoch, 0);
        }
        // Every unclassified interface answers verdict: None.
        for u in &one_shot.unclassified {
            let a = snap.verdict(u.ixp, u.addr).expect("observed iface");
            assert_eq!(a.verdict, None);
            assert_eq!(a.step, None);
        }
        // Rollups agree with a naive per-IXP scan.
        for rollup in snap.ixp_rollups() {
            let local = one_shot
                .for_ixp(rollup.ixp)
                .filter(|i| !i.verdict.is_remote())
                .count();
            let remote = one_shot
                .for_ixp(rollup.ixp)
                .filter(|i| i.verdict.is_remote())
                .count();
            let unclassified = one_shot
                .unclassified
                .iter()
                .filter(|u| u.ixp == rollup.ixp)
                .count();
            assert_eq!(
                (rollup.local, rollup.remote),
                (local, remote),
                "ixp {}",
                rollup.ixp
            );
            assert_eq!(rollup.unclassified, unclassified);
            assert_eq!(
                rollup.interfaces,
                input.observed.ixps[rollup.ixp].interfaces.len()
            );
            assert_eq!(rollup.name, input.observed.ixps[rollup.ixp].name);
        }
        assert_eq!(*snap.step_contributions(), one_shot.step_contributions());
        assert_eq!(snap.remote_share(), one_shot.remote_share());
    }

    #[test]
    fn step_contributions_are_computed_once_per_publish() {
        let world = WorldConfig::small(11).generate();
        let svc = PeeringService::build(
            InferenceInput::assemble(&world, 11),
            &PipelineConfig::default(),
            &ParallelConfig::new(1),
        );
        let snap = svc.snapshot();
        // Two calls return the same allocation: the map is a publish-time
        // field, not rebuilt per call (the seed's behavior).
        assert!(std::ptr::eq(
            snap.step_contributions(),
            snap.step_contributions()
        ));
        // And the cached map still matches the naive recomputation.
        assert_eq!(
            *snap.step_contributions(),
            snap.result().step_contributions()
        );
    }

    #[test]
    fn error_taxonomy() {
        let world = WorldConfig::small(7).generate();
        let svc = PeeringService::build(
            InferenceInput::assemble(&world, 7),
            &PipelineConfig::default(),
            &ParallelConfig::new(1),
        );
        let snap = svc.snapshot();
        let n = snap.ixp_count();
        assert!(n > 0);

        let bogus: Ipv4Addr = "203.0.113.77".parse().expect("valid");
        assert_eq!(
            snap.verdict(n, bogus),
            Err(ServiceError::UnknownIxp { ixp: n, ixps: n })
        );
        assert_eq!(
            snap.verdict(0, bogus),
            Err(ServiceError::UnknownInterface {
                ixp: Some(0),
                addr: bogus
            })
        );
        assert_eq!(
            snap.explain(bogus),
            Err(ServiceError::UnknownInterface {
                ixp: None,
                addr: bogus
            })
        );
        assert_eq!(
            snap.asn_report(Asn::new(64_999)),
            Err(ServiceError::UnknownAsn {
                asn: Asn::new(64_999)
            })
        );
        assert!(matches!(
            snap.ixp_report(n),
            Err(ServiceError::UnknownIxp { .. })
        ));
        // A verdict scoped to the wrong IXP is an unknown interface
        // there, not a silent cross-IXP answer.
        let inf = &snap.result().inferences[0];
        let wrong = (inf.ixp + 1) % n;
        if wrong != inf.ixp {
            assert_eq!(
                snap.verdict(wrong, inf.addr),
                Err(ServiceError::UnknownInterface {
                    ixp: Some(wrong),
                    addr: inf.addr
                })
            );
        }

        // An empty batch is a valid no-op (gateway health probes send
        // one), not an InvalidBatch rejection.
        assert_eq!(snap.query(&[]), Ok(Vec::new()));
        let full = vec![QueryRequest::IxpReport { ixp: 0 }; MAX_BATCH];
        assert_eq!(snap.query(&full).expect("at the limit").len(), MAX_BATCH);
        let oversized = vec![QueryRequest::IxpReport { ixp: 0 }; MAX_BATCH + 1];
        assert!(matches!(
            snap.query(&oversized),
            Err(ServiceError::InvalidBatch { .. })
        ));
        // Per-item failures embed; neighbours still answer.
        let mixed = snap
            .query(&[
                QueryRequest::IxpReport { ixp: 0 },
                QueryRequest::Explain { iface: bogus },
            ])
            .expect("valid batch shape");
        assert!(matches!(mixed[0], QueryResponse::Ixp(_)));
        assert!(matches!(
            mixed[1],
            QueryResponse::Error(ServiceError::UnknownInterface { .. })
        ));
    }

    #[test]
    fn apply_bumps_epoch_and_swaps_snapshot() {
        let world = WorldConfig::small(7).generate();
        let svc = PeeringService::build(
            InferenceInput::assemble(&world, 7),
            &PipelineConfig::default(),
            &ParallelConfig::new(1),
        );
        let old = svc.snapshot();
        assert_eq!(old.epoch(), 0);
        let e1 = svc.apply(InputDelta::default());
        assert_eq!(e1, 1);
        let new = svc.snapshot();
        assert_eq!(new.epoch(), 1);
        // The reader that grabbed the old snapshot still sees epoch 0,
        // and its answers stay tagged with it.
        assert_eq!(old.epoch(), 0);
        let addr = old.result().inferences[0].addr;
        let ixp = old.result().inferences[0].ixp;
        assert_eq!(old.verdict(ixp, addr).expect("known").epoch, 0);
        assert_eq!(new.verdict(ixp, addr).expect("known").epoch, 1);
        // An empty delta changes nothing but the tag.
        assert_eq!(*new.result(), *old.result());
    }

    #[test]
    fn explain_assembles_the_evidence_chain() {
        let (world, one_shot) = service(42);
        let svc = PeeringService::build(
            InferenceInput::assemble(&world, 42),
            &PipelineConfig::default(),
            &ParallelConfig::new(2),
        );
        let snap = svc.snapshot();
        let mut with_observation = 0;
        let mut with_witnesses = 0;
        for inf in &one_shot.inferences {
            let e = snap.explain(inf.addr).expect("inferred iface");
            assert_eq!(e.verdict, Some(inf.verdict));
            assert_eq!(e.evidence.as_deref(), Some(inf.evidence.as_str()));
            assert_eq!(e.observation, one_shot.observations.get(&inf.addr).copied());
            assert_eq!(
                e.annulus,
                one_shot
                    .step3_details
                    .iter()
                    .find(|d| d.addr == inf.addr)
                    .copied()
            );
            let naive: Vec<&MultiIxpFinding> = one_shot
                .multi_ixp_routers
                .iter()
                .filter(|f| {
                    f.asn == inf.asn
                        && (f.ifaces.contains(&inf.addr) || f.next_hop_ixps.contains(&inf.ixp))
                })
                .collect();
            assert_eq!(e.multi_ixp_witnesses.len(), naive.len());
            with_observation += usize::from(e.observation.is_some());
            with_witnesses += usize::from(!e.multi_ixp_witnesses.is_empty());
        }
        assert!(with_observation > 0, "no explanation carried RTT material");
        assert!(
            with_witnesses > 0,
            "no explanation carried router witnesses"
        );
    }

    #[test]
    fn zero_inferred_ixps_serialize_finite_shares() {
        // A measurement-free base service: no campaign, no corpus, so
        // most (often all) IXPs have zero inferred interfaces. Every
        // rollup's remote_share must be exactly 0.0 there — never the
        // NaN a naive remote/(local+remote) would produce — and the
        // whole rollup set must survive the strict wire serializer,
        // which rejects non-finite floats outright.
        let world = WorldConfig::small(11).generate();
        let svc = PeeringService::build(
            InferenceInput::assemble_base(&world, 11),
            &PipelineConfig::default(),
            &ParallelConfig::new(1),
        );
        let snap = svc.snapshot();
        let zero_inferred: Vec<_> = snap
            .ixp_rollups()
            .iter()
            .filter(|r| r.local + r.remote == 0)
            .collect();
        assert!(
            !zero_inferred.is_empty(),
            "base snapshot unexpectedly inferred something at every IXP"
        );
        for rollup in zero_inferred {
            assert_eq!(rollup.remote_share, 0.0, "ixp {}", rollup.ixp);
        }
        for rollup in snap.ixp_rollups() {
            assert!(rollup.remote_share.is_finite());
        }
        assert!(snap.remote_share().is_finite());

        // The full wire path: every rollup report serialises (the
        // strict serializer would error on NaN/∞) and round-trips.
        for ixp in 0..snap.ixp_count() {
            let report = snap.ixp_report(ixp).expect("observed IXP");
            let json = serde_json::to_string(QueryResponse::Ixp(report.clone()))
                .expect("zero-inferred rollup must serialize finitely");
            let back: QueryResponse = serde_json::from_str(&json).expect("reparses");
            assert_eq!(back, QueryResponse::Ixp(report));
        }

        // And the serializer really is strict: a non-finite share is a
        // loud error, not a silent `null` on the wire.
        let mut poisoned = snap.ixp_rollups()[0].clone();
        poisoned.remote_share = f64::NAN;
        assert!(serde_json::to_string(&poisoned).is_err());
        poisoned.remote_share = f64::INFINITY;
        assert!(serde_json::to_string(&poisoned).is_err());
    }

    #[test]
    fn wire_types_round_trip_through_serde() {
        let req = vec![
            QueryRequest::Verdict {
                ixp: 3,
                iface: "185.1.2.3".parse().expect("valid"),
            },
            QueryRequest::AsnReport {
                asn: Asn::new(64512),
            },
            QueryRequest::Explain {
                iface: "185.9.9.9".parse().expect("valid"),
            },
        ];
        let json = serde_json::to_string(&req).expect("requests serialise");
        let back: Vec<QueryRequest> = serde_json::from_str(&json).expect("requests parse");
        assert_eq!(back, req);

        let resp = QueryResponse::Error(ServiceError::InvalidBatch {
            len: 0,
            max: MAX_BATCH,
        });
        let json = serde_json::to_string(&resp).expect("response serialises");
        let back: QueryResponse = serde_json::from_str(&json).expect("response parses");
        assert_eq!(back, resp);

        let answer = QueryResponse::Verdict(VerdictAnswer {
            epoch: 9,
            addr: "185.1.2.3".parse().expect("valid"),
            ixp: 3,
            asn: Asn::new(64512),
            verdict: Some(Verdict::Remote),
            step: Some(Step::RttColo),
        });
        let json = serde_json::to_string(&answer).expect("answer serialises");
        let back: QueryResponse = serde_json::from_str(&json).expect("answer parses");
        assert_eq!(back, answer);
    }
}
