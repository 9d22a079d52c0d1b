//! The longitudinal archive: epoch-indexed time-travel over a
//! [`PeeringService`]'s published snapshots.
//!
//! [`PeeringService::apply`] publishes an immutable, epoch-tagged
//! [`Snapshot`] behind an `Arc` swap and then forgets the previous one.
//! A [`SnapshotArchive`] layers on top of the service and *retains*
//! every published epoch: each [`SnapshotArchive::apply`] goes through
//! [`PeeringService::apply_reported`] — the exact same publish path —
//! and then clones the already-published `Arc` into a sorted epoch
//! index. Retention therefore costs one `Arc` refcount bump and one
//! index insert per epoch; the snapshots themselves are shared with
//! the service's read side, never copied.
//!
//! On that index the archive serves:
//!
//! * **time travel** — [`SnapshotArchive::at`] /
//!   [`SnapshotArchive::range`] resolve epochs to retained snapshots,
//!   whose typed queries
//!   ([`Snapshot::verdict`], [`Snapshot::asn_report`],
//!   [`Snapshot::ixp_report`], [`Snapshot::explain`]) then answer *as
//!   of* that epoch;
//! * **longitudinal aggregations** — per-IXP remote-share trend lines
//!   ([`SnapshotArchive::trend`]), per-ASN verdict churn between
//!   consecutive epochs ([`SnapshotArchive::churn`]), and per-epoch
//!   dirty-shard accounting ([`SnapshotArchive::dirty_log`]).
//!
//! ## The contract
//!
//! Because every archived snapshot is the very `Arc` the service
//! published, a time-travel answer at epoch `e` is byte-identical to
//! what a [`PeeringService::snapshot`] reader at epoch `e` saw — which
//! the serving contract in turn pins to a one-shot
//! [`run_pipeline`][crate::pipeline::run_pipeline] over the input
//! prefix through `e`. `tests/archive_oracle.rs` proptests exactly
//! that, across random worlds × epoch partitions × thread counts, and
//! checks the trend/churn aggregations against naive recomputes from
//! the per-epoch results.
//!
//! The archive holds only an immutable borrow of the service plus its
//! own `RwLock`-guarded index, so a writer thread can stream deltas
//! through [`SnapshotArchive::apply`] while reader threads time-travel
//! concurrently. Dropping the archive drops its `Arc` clones — every
//! non-latest snapshot is released; the latest stays alive through the
//! service (`archive_retention_releases_on_drop` pins this).
//!
//! ## Bounded memory
//!
//! Snapshots published by delta share their unchanged partitions with
//! their neighbours, so [`SnapshotArchive::retained_bytes`] counts each
//! shared partition **once** — the true footprint of the partition
//! graph. For a hard ceiling under unbounded epoch streams, attach with
//! a retention cap ([`SnapshotArchive::attach_with_retention`]): after
//! every apply the archive compacts to the `k` newest snapshots,
//! evicting oldest-first. Evicted epochs answer
//! [`ArchiveError::NotArchived`] and keep their
//! [`DirtyRecord`]s in [`SnapshotArchive::dirty_log`]; their snapshots
//! are re-derivable, not lost — replay the same input stream (e.g.
//! [`crate::evolution::monthly_deltas`]) through a fresh service up to
//! the evicted epoch and the serving contract guarantees byte-identical
//! answers (`tests/archive_oracle.rs` exercises exactly this replay).

use crate::incremental::{DirtyCounts, InputDelta};
use crate::service::{PartitionSeen, PeeringService, ServiceError, Snapshot};
use crate::types::Verdict;
use opeer_net::Asn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::RangeInclusive;
use std::sync::{Arc, RwLock};

// ---------------------------------------------------------------------
// error taxonomy
// ---------------------------------------------------------------------

/// Why a time-travel query could not be answered. Serde-serializable,
/// like [`ServiceError`], so the gateway ships rejections as-is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArchiveError {
    /// The requested epoch has not been published yet.
    FutureEpoch {
        /// The requested epoch.
        requested: u64,
        /// The newest archived epoch.
        latest: u64,
    },
    /// The epoch is within the archived span but no snapshot was
    /// retained for it (the archive was attached after it, or a gap
    /// was never published through this archive).
    NotArchived {
        /// The requested epoch.
        requested: u64,
        /// The oldest archived epoch.
        first: u64,
        /// The newest archived epoch.
        latest: u64,
    },
    /// The archive holds no snapshots at all, so no epoch resolves.
    Empty,
    /// The epoch resolved, but the query failed on that snapshot.
    Service(ServiceError),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::FutureEpoch { requested, latest } => {
                write!(
                    f,
                    "epoch {requested} has not been published (latest: {latest})"
                )
            }
            ArchiveError::NotArchived {
                requested,
                first,
                latest,
            } => write!(
                f,
                "epoch {requested} is not archived (archive spans {first}..={latest})"
            ),
            ArchiveError::Empty => write!(f, "the archive holds no snapshots"),
            ArchiveError::Service(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<ServiceError> for ArchiveError {
    fn from(err: ServiceError) -> ArchiveError {
        ArchiveError::Service(err)
    }
}

// ---------------------------------------------------------------------
// longitudinal wire types
// ---------------------------------------------------------------------

/// One epoch's point on an IXP's trend line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrendPoint {
    /// The archived epoch this point reflects.
    pub epoch: u64,
    /// Observed member interfaces at the IXP.
    pub interfaces: usize,
    /// Interfaces classified local.
    pub local: usize,
    /// Interfaces classified remote.
    pub remote: usize,
    /// Interfaces no step classified.
    pub unclassified: usize,
    /// `remote / (local + remote)`; 0 when nothing was inferred.
    pub remote_share: f64,
}

/// A per-IXP remote-share trend line across the archived epochs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrendLine {
    /// Observed IXP index.
    pub ixp: usize,
    /// The IXP's registry name (as of the newest epoch observing it).
    pub name: String,
    /// One point per archived epoch at which the IXP was observed,
    /// ascending by epoch.
    pub points: Vec<TrendPoint>,
}

/// Verdict churn between one consecutive pair of archived epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnPoint {
    /// The later epoch of the pair.
    pub epoch: u64,
    /// Interfaces present at both epochs whose verdict changed
    /// (including classified ↔ unclassified transitions).
    pub flips: usize,
    /// Interfaces observed at the later epoch but not the earlier.
    pub appeared: usize,
    /// Interfaces observed at the earlier epoch but not the later.
    pub disappeared: usize,
}

/// A member ASN's verdict churn across the archived epochs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// The member ASN.
    pub asn: Asn,
    /// Total verdict flips across all consecutive epoch pairs.
    pub flips: usize,
    /// Total interface appearances.
    pub appeared: usize,
    /// Total interface disappearances.
    pub disappeared: usize,
    /// One record per consecutive archived-epoch pair, ascending.
    pub per_epoch: Vec<ChurnPoint>,
}

/// One epoch's dirty-shard accounting, as retained by the archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirtyRecord {
    /// The archived epoch.
    pub epoch: u64,
    /// Shard units the apply that published this epoch recomputed.
    pub dirty: DirtyCounts,
}

// ---------------------------------------------------------------------
// the archive
// ---------------------------------------------------------------------

/// One retained epoch: the published snapshot (Arc-shared with the
/// service) and the dirty-shard counts of the apply that produced it.
struct ArchivedEpoch {
    epoch: u64,
    snapshot: Arc<Snapshot>,
    dirty: DirtyCounts,
}

/// The lock-guarded archive state: the retained snapshots plus the
/// complete dirty-accounting log (eviction drops snapshots, never
/// history).
struct ArchiveIndex {
    /// Retained epochs, ascending by epoch. Insertion keeps the sort
    /// even if concurrent [`SnapshotArchive::apply`] calls race past
    /// the publish and reach the index out of order.
    epochs: Vec<ArchivedEpoch>,
    /// Dirty-shard accounting for **every** epoch ever archived,
    /// ascending — retained and evicted alike.
    dirty: Vec<DirtyRecord>,
}

impl ArchiveIndex {
    fn record_dirty(&mut self, record: DirtyRecord) {
        match self.dirty.binary_search_by_key(&record.epoch, |r| r.epoch) {
            Ok(pos) => self.dirty[pos] = record,
            Err(pos) => self.dirty.insert(pos, record),
        }
    }

    /// Evicts the oldest retained snapshots until at most `keep` remain.
    /// The newest snapshot is never evicted (a `keep` of 0 acts as 1),
    /// and the dirty log keeps the evicted epochs' records. Returns the
    /// evicted entries, so the caller can free them (an evicted snapshot
    /// is often the last owner of its result) after releasing the lock.
    fn evict_to(&mut self, keep: usize) -> Vec<ArchivedEpoch> {
        let keep = keep.max(1);
        let evict = self.epochs.len().saturating_sub(keep);
        self.epochs.drain(..evict).collect()
    }
}

/// The epoch-indexed snapshot archive. See the [module docs](self).
pub struct SnapshotArchive<'s, 'w> {
    service: &'s PeeringService<'w>,
    inner: RwLock<ArchiveIndex>,
    /// Retention cap: `Some(k)` keeps at most `k` snapshots, evicting
    /// the oldest after each apply; `None` retains every epoch.
    retain: Option<usize>,
}

impl<'s, 'w> SnapshotArchive<'s, 'w> {
    /// Attaches an archive to a service, retaining the currently
    /// published snapshot as the first archived epoch and every epoch
    /// after it; use [`SnapshotArchive::attach_with_retention`] to cap
    /// retention.
    pub fn attach(service: &'s PeeringService<'w>) -> Self {
        Self::attach_with_retention(service, None)
    }

    /// [`SnapshotArchive::attach`] with an explicit retention cap:
    /// `Some(k)` bounds the archive to the `k` newest snapshots
    /// (evicting oldest-first after each apply), `None` retains every
    /// epoch. Evicted epochs answer [`ArchiveError::NotArchived`]; they
    /// are re-derivable, not lost — replay the input stream (e.g.
    /// [`crate::evolution::monthly_deltas`]) through a fresh service up
    /// to the evicted epoch and the serving contract guarantees a
    /// byte-identical snapshot (`tests/archive_oracle.rs` pins this).
    pub fn attach_with_retention(service: &'s PeeringService<'w>, retain: Option<usize>) -> Self {
        let snapshot = service.snapshot();
        let epoch = snapshot.epoch();
        let dirty = service.last_dirty();
        let first = ArchivedEpoch {
            epoch,
            snapshot,
            dirty,
        };
        SnapshotArchive {
            service,
            inner: RwLock::new(ArchiveIndex {
                epochs: vec![first],
                dirty: vec![DirtyRecord { epoch, dirty }],
            }),
            retain,
        }
    }

    /// The retention cap this archive compacts to, if bounded.
    pub fn retention(&self) -> Option<usize> {
        self.retain
    }

    /// The underlying service.
    pub fn service(&self) -> &'s PeeringService<'w> {
        self.service
    }

    /// Applies one delta through [`PeeringService::apply_reported`] and
    /// retains the published snapshot. Returns the new epoch. The
    /// service's own publish path is untouched — retention is an `Arc`
    /// clone of the snapshot the service already swapped in.
    pub fn apply(&self, delta: InputDelta) -> u64 {
        self.apply_reported(delta).epoch
    }

    /// [`SnapshotArchive::apply`], returning the service's full
    /// [`crate::service::ApplyReport`] (publish dirty sets and publish
    /// wall-clock included) — what the retention-capped stream test in
    /// `tests/snapshot_sharing.rs` and perfbench's `epoch_stream` read.
    pub fn apply_reported(&self, delta: InputDelta) -> crate::service::ApplyReport {
        let report = self.service.apply_reported(delta);
        let mut inner = self.inner.write().expect("archive index poisoned");
        match inner
            .epochs
            .binary_search_by_key(&report.epoch, |e| e.epoch)
        {
            // Epochs are strictly monotonic per service, so a hit can
            // only be a re-delivery; keep the newest snapshot for it.
            Ok(pos) => {
                inner.epochs[pos].snapshot = Arc::clone(&report.snapshot);
                inner.epochs[pos].dirty = report.dirty;
            }
            Err(pos) => inner.epochs.insert(
                pos,
                ArchivedEpoch {
                    epoch: report.epoch,
                    snapshot: Arc::clone(&report.snapshot),
                    dirty: report.dirty,
                },
            ),
        }
        inner.record_dirty(DirtyRecord {
            epoch: report.epoch,
            dirty: report.dirty,
        });
        // Compaction rides the same lock, so the memory ceiling holds the
        // moment apply returns; the evicted snapshots are freed after the
        // lock is released, so readers never wait on the deallocation.
        let evicted = self.retain.map(|keep| inner.evict_to(keep));
        drop(inner);
        drop(evicted);
        report
    }

    /// Evicts the oldest retained snapshots until at most `keep`
    /// remain (the newest is never evicted; `keep == 0` acts as 1).
    /// Returns how many snapshots were released. The dirty log keeps
    /// the evicted epochs' records, and evicted epochs remain
    /// re-derivable by replaying the input stream — see
    /// [`SnapshotArchive::attach_with_retention`].
    pub fn evict_to(&self, keep: usize) -> usize {
        let evicted = self
            .inner
            .write()
            .expect("archive index poisoned")
            .evict_to(keep);
        // The guard is a temporary of the statement above: the snapshots
        // are freed here, outside the lock.
        evicted.len()
    }

    /// The service's current snapshot — the same `Arc` pointer
    /// [`PeeringService::snapshot`] returns, untouched by retention.
    pub fn latest(&self) -> Arc<Snapshot> {
        self.service.snapshot()
    }

    /// Number of retained (still-archived) epochs.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("archive index poisoned")
            .epochs
            .len()
    }

    /// Whether the archive holds no epochs (only possible before
    /// [`SnapshotArchive::attach`] returns — attach retains one).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The oldest retained epoch, if any (eviction advances it).
    pub fn first_epoch(&self) -> Option<u64> {
        let inner = self.inner.read().expect("archive index poisoned");
        inner.epochs.first().map(|e| e.epoch)
    }

    /// The newest archived epoch, if any.
    pub fn latest_epoch(&self) -> Option<u64> {
        let inner = self.inner.read().expect("archive index poisoned");
        inner.epochs.last().map(|e| e.epoch)
    }

    /// The snapshot archived at exactly `epoch`. An evicted epoch
    /// answers [`ArchiveError::NotArchived`] — re-derivable by replay,
    /// see [`SnapshotArchive::attach_with_retention`].
    pub fn at(&self, epoch: u64) -> Result<Arc<Snapshot>, ArchiveError> {
        let inner = self.inner.read().expect("archive index poisoned");
        Self::resolve(&inner.epochs, epoch).map(|pos| Arc::clone(&inner.epochs[pos].snapshot))
    }

    /// Every archived `(epoch, snapshot)` within the inclusive range,
    /// ascending by epoch. Epochs in the range that were never archived
    /// are simply absent; an empty result is not an error.
    pub fn range(&self, epochs: RangeInclusive<u64>) -> Vec<(u64, Arc<Snapshot>)> {
        let inner = self.inner.read().expect("archive index poisoned");
        inner
            .epochs
            .iter()
            .filter(|e| epochs.contains(&e.epoch))
            .map(|e| (e.epoch, Arc::clone(&e.snapshot)))
            .collect()
    }

    /// The remote-share trend line of one IXP across every archived
    /// epoch observing it, ascending. Registry revisions can change the
    /// observed IXP population, so epochs where the index is out of
    /// range contribute no point; the lookup errors only when **no**
    /// archived epoch observes the IXP.
    pub fn trend(&self, ixp: usize) -> Result<TrendLine, ArchiveError> {
        let inner = self.inner.read().expect("archive index poisoned");
        Self::bounds(&inner.epochs)?;
        let mut name = None;
        let points: Vec<TrendPoint> = inner
            .epochs
            .iter()
            .filter_map(|e| {
                let rollup = e.snapshot.ixp_rollups().get(ixp)?;
                name = Some(rollup.name.clone());
                Some(TrendPoint {
                    epoch: e.epoch,
                    interfaces: rollup.interfaces,
                    local: rollup.local,
                    remote: rollup.remote,
                    unclassified: rollup.unclassified,
                    remote_share: rollup.remote_share,
                })
            })
            .collect();
        match name {
            Some(name) => Ok(TrendLine { ixp, name, points }),
            None => {
                let latest = inner.epochs.last().expect("bounds checked non-empty");
                Err(ArchiveError::Service(ServiceError::UnknownIxp {
                    ixp,
                    ixps: latest.snapshot.ixp_count(),
                }))
            }
        }
    }

    /// One member ASN's verdict churn between every consecutive pair of
    /// archived epochs: a **flip** is an interface present at both
    /// epochs whose verdict changed (classified ↔ unclassified
    /// included); appearances and disappearances count membership
    /// churn. An ASN unknown at some epoch simply has no interfaces
    /// there; the lookup errors only when it is unknown at **every**
    /// archived epoch.
    pub fn churn(&self, asn: Asn) -> Result<ChurnReport, ArchiveError> {
        let inner = self.inner.read().expect("archive index poisoned");
        Self::bounds(&inner.epochs)?;
        let mut known_anywhere = false;
        let verdicts: Vec<(u64, BTreeMap<Ipv4Addr, Option<Verdict>>)> = inner
            .epochs
            .iter()
            .map(|e| {
                let map = match e.snapshot.asn_report(asn) {
                    Ok(report) => {
                        known_anywhere = true;
                        report
                            .interfaces
                            .iter()
                            .map(|a| (a.addr, a.verdict))
                            .collect()
                    }
                    Err(_) => BTreeMap::new(),
                };
                (e.epoch, map)
            })
            .collect();
        if !known_anywhere {
            return Err(ArchiveError::Service(ServiceError::UnknownAsn { asn }));
        }
        let per_epoch: Vec<ChurnPoint> = verdicts
            .windows(2)
            .map(|pair| {
                let (_, earlier) = &pair[0];
                let (epoch, later) = &pair[1];
                let flips = later
                    .iter()
                    .filter(|(addr, v)| earlier.get(*addr).is_some_and(|prev| prev != *v))
                    .count();
                let appeared = later.keys().filter(|a| !earlier.contains_key(a)).count();
                let disappeared = earlier.keys().filter(|a| !later.contains_key(a)).count();
                ChurnPoint {
                    epoch: *epoch,
                    flips,
                    appeared,
                    disappeared,
                }
            })
            .collect();
        Ok(ChurnReport {
            asn,
            flips: per_epoch.iter().map(|p| p.flips).sum(),
            appeared: per_epoch.iter().map(|p| p.appeared).sum(),
            disappeared: per_epoch.iter().map(|p| p.disappeared).sum(),
            per_epoch,
        })
    }

    /// Per-epoch dirty-shard accounting, ascending by epoch — complete
    /// over every epoch ever archived: eviction drops snapshots, never
    /// this history.
    pub fn dirty_log(&self) -> Vec<DirtyRecord> {
        self.inner
            .read()
            .expect("archive index poisoned")
            .dirty
            .clone()
    }

    /// Deep size in bytes of everything the archived snapshots retain,
    /// **counting each shared partition once**: snapshots published by
    /// delta share most partitions with their neighbours, so this is
    /// the true footprint of the partition graph, not epochs × full
    /// snapshot size ([`Snapshot::retained_bytes_deduped`] threaded
    /// over the index with one shared [`PartitionSeen`]).
    pub fn retained_bytes(&self) -> usize {
        let inner = self.inner.read().expect("archive index poisoned");
        let mut seen = PartitionSeen::default();
        inner
            .epochs
            .iter()
            .map(|e| e.snapshot.retained_bytes_deduped(&mut seen))
            .sum()
    }

    /// Shared/owned partition counts over the newest retained snapshot
    /// (`strong_count > 1` means shared — with older archived epochs,
    /// the service's read side, or any other holder). Served by the
    /// gateway's `/metrics` snapshot gauges.
    pub fn partition_counts(&self) -> (usize, usize) {
        let inner = self.inner.read().expect("archive index poisoned");
        inner
            .epochs
            .last()
            .map(|e| e.snapshot.partition_counts())
            .unwrap_or((0, 0))
    }

    /// Resolves an exact epoch to its index position, with the full
    /// typed taxonomy.
    fn resolve(inner: &[ArchivedEpoch], epoch: u64) -> Result<usize, ArchiveError> {
        let (first, latest) = Self::bounds(inner)?;
        match inner.binary_search_by_key(&epoch, |e| e.epoch) {
            Ok(pos) => Ok(pos),
            Err(_) if epoch > latest => Err(ArchiveError::FutureEpoch {
                requested: epoch,
                latest,
            }),
            Err(_) => Err(ArchiveError::NotArchived {
                requested: epoch,
                first,
                latest,
            }),
        }
    }

    fn bounds(inner: &[ArchivedEpoch]) -> Result<(u64, u64), ArchiveError> {
        match (inner.first(), inner.last()) {
            (Some(first), Some(last)) => Ok((first.epoch, last.epoch)),
            _ => Err(ArchiveError::Empty),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ParallelConfig;
    use crate::input::InferenceInput;
    use crate::pipeline::PipelineConfig;
    use opeer_measure::campaign::campaign_batches;
    use opeer_measure::traceroute::corpus_batches;
    use opeer_topology::WorldConfig;

    fn service_with_deltas(
        world: &opeer_topology::World,
        seed: u64,
        epochs: usize,
    ) -> (PeeringService<'_>, Vec<InputDelta>) {
        let service = PeeringService::build(
            InferenceInput::assemble_base(world, seed),
            &PipelineConfig::default(),
            &ParallelConfig::new(2),
        );
        let (_, campaign_cfg, corpus_cfg) = crate::input::default_configs(seed);
        let camp = campaign_batches(world, &service.input().vps, campaign_cfg, epochs);
        let corp = corpus_batches(world, corpus_cfg, epochs);
        let deltas = InputDelta::zip_batches(camp, corp);
        (service, deltas)
    }

    #[test]
    fn archive_indexes_every_epoch_and_time_travels() {
        let world = WorldConfig::small(42).generate();
        let (service, deltas) = service_with_deltas(&world, 42, 3);
        let archive = SnapshotArchive::attach(&service);
        assert_eq!(archive.len(), 1);
        assert_eq!(archive.first_epoch(), Some(0));

        let mut snapshots = vec![archive.latest()];
        for delta in deltas {
            archive.apply(delta);
            snapshots.push(archive.latest());
        }
        let n = snapshots.len() as u64;
        assert_eq!(archive.len() as u64, n);
        assert_eq!(archive.latest_epoch(), Some(n - 1));

        // at(): every archived epoch resolves to the exact Arc the
        // service published at that epoch.
        for (e, snap) in snapshots.iter().enumerate() {
            let archived = archive.at(e as u64).expect("archived epoch");
            assert!(Arc::ptr_eq(&archived, snap), "epoch {e} is a copy");
            assert_eq!(archived.epoch(), e as u64);
        }

        // range(): inclusive, ascending, clipped.
        let mid = archive.range(1..=n - 2);
        assert_eq!(mid.len() as u64, n - 2);
        assert!(mid.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(archive.range(n + 1..=n + 9).is_empty());

        // Typed errors on the exact lookup.
        assert!(matches!(
            archive.at(n + 1),
            Err(ArchiveError::FutureEpoch { .. })
        ));

        // dirty_log covers every epoch; epoch 0 (the warm build) and
        // each delta epoch carry their own counts.
        let log = archive.dirty_log();
        assert_eq!(log.len() as u64, n);
        assert!(log.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert!(log[1..].iter().any(|r| r.dirty.total() > 0));

        assert!(archive.retained_bytes() > 0);
    }

    #[test]
    fn archive_does_not_perturb_the_write_path() {
        // Satellite pin: with an archive attached, latest() must stay
        // pointer-identical to the service's own snapshot, epochs must
        // stay strictly monotonic, and apply-through-archive must be
        // observationally identical to apply-through-service.
        let world = WorldConfig::small(7).generate();
        let (service, deltas) = service_with_deltas(&world, 7, 4);
        let archive = SnapshotArchive::attach(&service);
        let mut last_epoch = service.epoch();
        for delta in deltas {
            let epoch = archive.apply(delta);
            assert_eq!(epoch, last_epoch + 1, "epoch monotonicity broken");
            last_epoch = epoch;
            // The service's reader surface and the archive's latest()
            // are the same Arc — retention added no publish step.
            assert!(Arc::ptr_eq(&archive.latest(), &service.snapshot()));
            assert_eq!(service.epoch(), epoch);
        }
        // And the archived tail equals the service's current state.
        let at_last = archive.at(last_epoch).expect("archived");
        assert!(Arc::ptr_eq(&at_last, &service.snapshot()));
    }

    #[test]
    fn archive_retention_releases_on_drop() {
        // Satellite pin: dropping the archive releases every non-latest
        // snapshot (the service keeps only the latest alive).
        let world = WorldConfig::small(11).generate();
        let (service, deltas) = service_with_deltas(&world, 11, 2);
        let archive = SnapshotArchive::attach(&service);
        for delta in deltas {
            archive.apply(delta);
        }
        let old = archive.at(0).expect("epoch 0 archived");
        let latest = archive.latest();
        let weak_old = Arc::downgrade(&old);
        let weak_latest = Arc::downgrade(&latest);
        // While archived: our probe + the archive's retained clone.
        assert!(Arc::strong_count(&old) >= 2);
        drop(old);
        drop(latest);
        drop(archive);
        assert!(
            weak_old.upgrade().is_none(),
            "dropping the archive must release non-latest snapshots"
        );
        assert!(
            weak_latest.upgrade().is_some(),
            "the latest snapshot must stay alive through the service"
        );
    }

    #[test]
    fn trend_and_churn_aggregate_across_epochs() {
        let world = WorldConfig::small(42).generate();
        let (service, deltas) = service_with_deltas(&world, 42, 3);
        let archive = SnapshotArchive::attach(&service);
        for delta in deltas {
            archive.apply(delta);
        }
        let latest = archive.latest();
        let n_epochs = archive.len();

        // Trend: one point per epoch, epoch-ascending, matching the
        // per-epoch rollups.
        let trend = archive.trend(0).expect("IXP 0 observed");
        assert_eq!(trend.points.len(), n_epochs);
        assert!(trend.points.windows(2).all(|w| w[0].epoch < w[1].epoch));
        for point in &trend.points {
            let snap = archive.at(point.epoch).expect("archived");
            let rollup = &snap.ixp_rollups()[0];
            assert_eq!(point.remote, rollup.remote);
            assert_eq!(point.remote_share, rollup.remote_share);
        }
        assert!(matches!(
            archive.trend(latest.ixp_count() + 10),
            Err(ArchiveError::Service(ServiceError::UnknownIxp { .. }))
        ));

        // Churn: membership comes from the registry (static here), so
        // appearances stay zero — but verdicts flip as measurement
        // epochs accumulate (`None` at the measurement-free base epoch,
        // classified by the end for any inferred interface).
        let asn = latest.result().inferences[0].asn;
        let churn = archive.churn(asn).expect("member ASN churn");
        assert_eq!(churn.per_epoch.len(), n_epochs - 1);
        assert_eq!(churn.appeared, 0, "static registry cannot churn members");
        assert!(
            churn.flips > 0,
            "accumulating measurements must flip verdicts"
        );
        assert_eq!(
            churn.flips,
            churn.per_epoch.iter().map(|p| p.flips).sum::<usize>()
        );
        assert!(matches!(
            archive.churn(Asn::new(64_999)),
            Err(ArchiveError::Service(ServiceError::UnknownAsn { .. }))
        ));
    }

    #[test]
    fn retention_cap_evicts_oldest_and_keeps_history() {
        let world = WorldConfig::small(13).generate();
        let (service, deltas) = service_with_deltas(&world, 13, 4);
        let archive = SnapshotArchive::attach_with_retention(&service, Some(2));
        assert_eq!(archive.retention(), Some(2));
        let n = deltas.len() as u64;
        for delta in deltas {
            archive.apply(delta);
            assert!(archive.len() <= 2, "cap must hold after every apply");
        }
        assert_eq!(archive.len(), 2);
        assert_eq!(archive.first_epoch(), Some(n - 1));
        assert_eq!(archive.latest_epoch(), Some(n));
        // Evicted epochs answer NotArchived; the dirty log stays
        // complete across evictions.
        assert!(matches!(
            archive.at(0),
            Err(ArchiveError::NotArchived { .. })
        ));
        let log = archive.dirty_log();
        assert_eq!(log.len() as u64, n + 1);
        assert!(log.windows(2).all(|w| w[0].epoch < w[1].epoch));
        // Deduped accounting: consecutive delta-published snapshots
        // share partitions, so the archive total is strictly below the
        // sum of standalone per-snapshot sizes.
        let full_sum: usize = (n - 1..=n)
            .map(|e| archive.at(e).expect("retained").retained_bytes())
            .sum();
        assert!(archive.retained_bytes() < full_sum);
        // Manual eviction never drops the newest snapshot.
        assert_eq!(archive.evict_to(0), 1);
        assert_eq!(archive.len(), 1);
        assert_eq!(archive.first_epoch(), Some(n));
    }

    #[test]
    fn archive_error_display_and_serde_round_trip() {
        let errors = [
            ArchiveError::FutureEpoch {
                requested: 9,
                latest: 3,
            },
            ArchiveError::NotArchived {
                requested: 2,
                first: 3,
                latest: 7,
            },
            ArchiveError::Empty,
            ArchiveError::Service(ServiceError::UnknownAsn {
                asn: Asn::new(64512),
            }),
        ];
        for err in errors {
            assert!(!err.to_string().is_empty());
            let json = serde_json::to_string(err).expect("serializes");
            let back: ArchiveError = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, err);
        }
    }
}
