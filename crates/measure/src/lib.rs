//! # opeer-measure — the simulated measurement plane
//!
//! The paper's data plane consisted of pings from looking glasses and RIPE
//! Atlas probes colocated with IXPs (§3.1), 3.15 billion public Atlas
//! traceroutes, and Y.1731 inter-facility delay matrices volunteered by
//! NL-IX and NET-IX. This crate reproduces that plane over the synthetic
//! [`opeer_topology::World`], artifact for artifact:
//!
//! * [`latency`] — the delay model. Every path's base RTT derives from
//!   geodesic distance and a stable per-path effective speed drawn
//!   between the [`opeer_geo::SpeedModel`] bounds (the same bounds Step 3
//!   of the inference uses — the model is calibrated to the world exactly
//!   as the paper's fit was calibrated to its Y.1731 data), plus
//!   processing overhead, per-sample jitter, transient spikes, and a
//!   small rate of slow-path outliers that defeat the bounds.
//! * [`vp`] — vantage points: per-IXP looking glasses (some of which
//!   round RTTs *up* to whole milliseconds, §6.1) and Atlas probes, some
//!   hosted in IXP facilities, some on distant management LANs (their
//!   consistently inflated RTTs must be filtered), some dead.
//! * [`ping`] — the ping engine, with reply-TTL semantics feeding the
//!   TTL-match/TTL-switch filters of `opeer-net`.
//! * [`campaign`] — measurement campaigns: the §5.2 protocol (24 samples
//!   per pair over two days) and the §4.1 control protocol (every 20
//!   minutes for two days), producing minimum-RTT observations and
//!   response-rate statistics (Table 5, Fig. 9a/9b).
//! * [`traceroute`] — the traceroute engine over policy-routed paths and
//!   a public-corpus builder standing in for the Atlas measurement
//!   archive.
//! * [`y1731`] — demarcation-point delay matrices for wide-area IXPs
//!   (Fig. 2a, Fig. 6).
//! * [`ipid`] — IP-ID probing of interfaces, the raw signal for
//!   MIDAR-style alias resolution in `opeer-alias`.
//!
//! ## Key types and entry points
//!
//! [`vp::discover_vps`] finds the vantage points;
//! [`campaign::run_campaign`] runs the §5.2 protocol over them;
//! [`traceroute::build_corpus`] stands in for the public Atlas archive.
//! [`CampaignResult`], [`Traceroute`], and the per-VP [`VpStats`] are
//! what the inference pipeline consumes.
//!
//! ## Shard-task structure
//!
//! Every campaign and corpus is a deterministic function of `(world,
//! seed)` decomposed into **pure shard units** so `opeer-core`'s worker
//! pool can execute them in any schedule:
//!
//! * [`campaign::probe_vp`] is the campaign's unit — one VP's probes,
//!   no shared state. Within it, each (VP, target) pair's fixed part
//!   (interface lookup, drop checks, base RTT, reply TTL) is computed
//!   once and only the per-sample loss, jitter and TTL draws repeat.
//!   [`run_campaign`][campaign::run_campaign] is the in-order
//!   concatenation over a VP slice, and [`CampaignResult::absorb`]
//!   merges consecutive-chunk partials back into that exact byte
//!   sequence.
//! * [`traceroute::plan_corpus`] separates the cheap probe schedule
//!   from tracing; [`traceroute::CorpusPlan::trace_shard_on`] traces any
//!   destination range on one shared engine, independently of the
//!   other ranges, and range-order concatenation equals
//!   [`traceroute::build_corpus`].
//! * [`ipid::probe_ipid`] / [`ipid::probe_train`] are pure per
//!   `(interface, time)` — alias resolution's probe trains parallelise
//!   per target for free.
//!
//! There is no mutable RNG anywhere in the plane: every draw is a
//! stable hash keyed by `(seed, entity ids, sample index)`, i.e. each
//! VP, target, and hop owns an implicit RNG sub-stream that no other
//! shard can perturb. That is what makes the parallel assembly in
//! `opeer-core` byte-identical to the sequential one.

#![warn(missing_docs)]

pub mod campaign;
pub mod ipid;
pub mod latency;
pub mod ping;
pub mod traceroute;
pub mod vp;
pub mod y1731;

pub use campaign::{CampaignConfig, CampaignResult, PingObservation, VpStats};
pub use traceroute::CorpusPlan;

/// Splits `0..n` into at most `k` contiguous, nearly equal, non-empty
/// batches (fewer when `n < k`; none when `n == 0`) — the epoch axis of
/// the streaming emitters ([`campaign::campaign_batches`],
/// [`traceroute::corpus_batches`]) **and** the shard axis of
/// `opeer-core`'s engine (`shard_ranges` delegates here, so scheduler
/// and batch layer can never disagree on cut points).
///
/// The *choice* of cut points never matters for results: both emitters
/// produce batches whose in-order merge is byte-identical to the
/// one-shot artifact for **any** consecutive partition.
pub fn batch_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let k = k.max(1);
    if n == 0 {
        return Vec::new();
    }
    let k = k.min(n);
    let base = n / k;
    let extra = n % k;
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}
pub use latency::LatencyModel;
pub use ping::{PingEngine, PingReply};
pub use traceroute::{CorpusConfig, TraceSample, Traceroute, TracerouteEngine};
pub use vp::{discover_vps, AtlasHost, VantagePoint, VpId, VpKind};
pub use y1731::facility_delay_matrix;
