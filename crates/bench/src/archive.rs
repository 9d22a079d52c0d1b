//! The longitudinal archive study: replay N monthly world revisions
//! ([`opeer_core::evolution::monthly_deltas`]) through a
//! [`SnapshotArchive`] over a live [`PeeringService`] and record what
//! the history cost — per-month wall-clock and dirty-shard counts,
//! archive time-travel query throughput, and the retained-bytes
//! estimate of keeping every epoch alive.
//!
//! This is the `archive` section of `BENCH_pipeline.json` (schema v7)
//! and the engine behind `run_experiments --archive-months N`. Like
//! every other section it carries its own byte-identity gate: the final
//! archived state must equal a one-shot [`run_pipeline`] over the
//! accumulated input, or the binary exits non-zero.

use opeer_core::archive::SnapshotArchive;
use opeer_core::engine::ParallelConfig;
use opeer_core::evolution::monthly_deltas;
use opeer_core::incremental::DirtyCounts;
use opeer_core::pipeline::{run_pipeline, PipelineConfig};
use opeer_core::service::PeeringService;
use opeer_core::InferenceInput;
use opeer_topology::World;
use serde::Serialize;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Months the archive section of the scaling study replays by default.
pub const DEFAULT_ARCHIVE_MONTHS: u32 = 6;

/// Time-travel queries issued by the throughput leg.
const QUERY_COUNT: usize = 5_000;

/// What one month's replay cost.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MonthCost {
    /// The month replayed (0-based observation month).
    pub month: u32,
    /// The epoch the month published into the archive.
    pub epoch: u64,
    /// Whether the month carried a registry revision (membership or
    /// fusion change ⇒ full recompute).
    pub registry_revision: bool,
    /// New campaign observations delivered this month.
    pub campaign_observations: usize,
    /// New corpus traceroutes delivered this month.
    pub corpus_traces: usize,
    /// Wall-clock of the archive `apply`, ms (delta generation happens
    /// outside the clock).
    pub wall_ms: f64,
    /// Shard units the apply recomputed, per step axis.
    pub dirty: DirtyCounts,
}

/// The archive study, serialised into `BENCH_pipeline.json`'s
/// `archive` section (schema v7).
#[derive(Debug, Clone, Serialize)]
pub struct ArchiveReport {
    /// Months replayed (epochs published on top of the base epoch).
    pub months: u32,
    /// Wall-clock of the epoch-0 base build, ms.
    pub base_ms: f64,
    /// Total wall-clock of all monthly applies, ms.
    pub replay_ms: f64,
    /// Per-month replay costs, in month order.
    pub per_month: Vec<MonthCost>,
    /// Epochs held by the archive after the replay (months + base).
    pub epochs_archived: usize,
    /// Time-travel queries issued by the throughput leg.
    pub queries: usize,
    /// Archive point-query throughput: `at(epoch)` plus
    /// `Snapshot::verdict` calls/sec, round-robin over every archived
    /// epoch.
    pub query_qps: f64,
    /// [`SnapshotArchive::retained_bytes`] after the replay (deep
    /// size, shared partitions counted once).
    pub retained_bytes: usize,
    /// Whether the final archived state was byte-identical to a
    /// one-shot [`run_pipeline`] over the accumulated input, the
    /// archive indexed every epoch exactly once, and the epoch sequence
    /// is strictly monotonic. The gate `run_experiments
    /// --archive-months` enforces with its exit code.
    pub identical: bool,
}

/// Replays `months` monthly world revisions through an archive-backed
/// service and audits the final state against the one-shot path.
pub fn run_archive_study(
    world: &World,
    seed: u64,
    months: u32,
    cfg: &PipelineConfig,
    par: &ParallelConfig,
) -> ArchiveReport {
    let months = months.max(1);

    let t0 = Instant::now();
    let service = PeeringService::build(InferenceInput::assemble_base(world, seed), cfg, par);
    let archive = SnapshotArchive::attach(&service);
    let base_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Delta emission (world evolution + monthly measurement campaigns)
    // happens outside the timed windows: the study measures archive
    // ingestion, not measurement generation.
    let deltas = monthly_deltas(world, seed, 0..=months - 1);

    let mut per_month = Vec::with_capacity(deltas.len());
    let mut replay_ms = 0.0;
    for (m, delta) in deltas.into_iter().enumerate() {
        let registry_revision = delta.registry.is_some();
        let campaign_observations = delta.campaign.as_ref().map_or(0, |c| c.observations.len());
        let corpus_traces = delta.corpus.len();
        let t = Instant::now();
        let epoch = archive.apply(delta);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        replay_ms += wall_ms;
        per_month.push(MonthCost {
            month: m as u32,
            epoch,
            registry_revision,
            campaign_observations,
            corpus_traces,
            wall_ms,
            dirty: service.last_dirty(),
        });
    }

    // The identity gate: the final archived snapshot must equal a
    // one-shot pipeline over the accumulated input, the archive must
    // hold base + one epoch per month, and epochs must be strictly
    // ascending.
    let one_shot = {
        let input = service.input();
        run_pipeline(&input, cfg)
    };
    let latest = archive.latest();
    let epochs_archived = archive.len();
    let log = archive.dirty_log();
    let identical = *latest.result() == one_shot
        && epochs_archived == per_month.len() + 1
        && log.windows(2).all(|w| w[0].epoch < w[1].epoch);

    // Throughput: point time-travel queries round-robin across every
    // archived epoch and a fixed working set of interfaces.
    let targets: Vec<(usize, Ipv4Addr)> = latest
        .result()
        .inferences
        .iter()
        .take(64)
        .map(|i| (i.ixp, i.addr))
        .collect();
    let (queries, query_qps) = if targets.is_empty() {
        (0, 0.0)
    } else {
        let mut hits = 0usize;
        let t = Instant::now();
        for q in 0..QUERY_COUNT {
            let (ixp, addr) = targets[q % targets.len()];
            let epoch = (q % epochs_archived) as u64;
            if archive
                .at(epoch)
                .is_ok_and(|snapshot| snapshot.verdict(ixp, addr).is_ok())
            {
                hits += 1;
            }
        }
        let secs = t.elapsed().as_secs_f64();
        assert!(hits > 0, "no archive query resolved");
        (QUERY_COUNT, QUERY_COUNT as f64 / secs.max(f64::EPSILON))
    };

    ArchiveReport {
        months,
        base_ms,
        replay_ms,
        per_month,
        epochs_archived,
        queries,
        query_qps,
        retained_bytes: archive.retained_bytes(),
        identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_topology::WorldConfig;

    #[test]
    fn archive_replay_is_identical_and_accounted() {
        let world = WorldConfig::small(7).generate();
        let report = run_archive_study(
            &world,
            7,
            3,
            &PipelineConfig::default(),
            &ParallelConfig::new(2),
        );
        assert!(report.identical, "archive replay diverged");
        assert_eq!(report.months, 3);
        assert_eq!(report.per_month.len(), 3);
        assert_eq!(report.epochs_archived, 4);
        assert!(
            report.per_month[0].registry_revision,
            "month 0 must establish the registry"
        );
        assert!(report.per_month.iter().all(|m| m.dirty.total() > 0));
        assert!(report.query_qps > 0.0);
        assert!(report.retained_bytes > 0);
        let json = serde_json::to_string(&report).expect("report serialises");
        assert!(json.contains("\"per_month\":"));
        assert!(json.contains("\"identical\":true"));
    }
}
