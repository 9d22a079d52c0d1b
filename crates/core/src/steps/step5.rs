//! Step 5 — localisation via private connectivity (§5.1.4, §5.2).
//!
//! The last resort, a Constrained-Facility-Search-style vote \[48\]:
//! private interconnections are overwhelmingly patched inside one
//! facility, so the facilities shared by a router's private AS neighbors
//! reveal where the router is. If exactly one such facility belongs to
//! the IXP, the member is local; otherwise remote. Transit adjacencies
//! count as private interconnections, exactly as in the paper (any
//! non-IXP AS-level hop pair).
//!
//! Two practical details make the vote discriminative:
//!
//! * neighbors with sprawling colocation footprints (global carriers in
//!   dozens of facilities) are near-uninformative witnesses, so votes are
//!   weighted by `1/|facilities|` and the widest footprints are skipped;
//! * `Fcommon` is the single best-scoring facility (deterministic
//!   tie-break), because colocated tenants routinely share several
//!   facilities and keeping all of them would force `|FIXP ∩ Fcommon| > 1`
//!   and a spurious "remote".

use crate::input::InferenceInput;
use crate::steps::step4::ixp_data;
use crate::steps::Ledger;
use crate::types::{Inference, Step, Verdict};
use opeer_alias::{resolve, AliasConfig};
use opeer_net::Asn;
use opeer_traix::private_as_links;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Minimum voters (with facility data) required to vote.
const MIN_VOTERS: usize = 2;
/// A facility must accumulate this much weighted support before it can
/// certify locality (≈ one small-footprint witness or several mid-sized
/// ones agreeing).
const LOCAL_SCORE_FLOOR: f64 = 0.30;
/// Remote requires the best non-IXP facility to dominate the best IXP
/// facility by this factor.
const REMOTE_DOMINANCE: f64 = 2.0;

/// The private-adjacency evidence harvested from the corpus.
#[derive(Default)]
pub struct PrivateEvidence {
    neighbor_addrs: BTreeMap<Asn, Vec<(Ipv4Addr, Asn)>>,
}

impl PrivateEvidence {
    /// ASNs with at least one private-adjacency witness. The incremental
    /// pipeline uses this on a freshly harvested chunk to find the ASNs
    /// whose witness lists grow — any of their interfaces may re-vote.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.neighbor_addrs.keys().copied()
    }

    /// Appends another chunk's adjacencies. Per-ASN witness lists are
    /// kept in corpus order, so absorbing chunks in corpus-chunk order
    /// reproduces exactly what one sequential scan builds.
    pub fn absorb(&mut self, other: PrivateEvidence) {
        for (asn, mut addrs) in other.neighbor_addrs {
            self.neighbor_addrs
                .entry(asn)
                .or_default()
                .append(&mut addrs);
        }
    }
}

/// Harvests private AS adjacencies (with their witnessing interface
/// addresses) from a contiguous range of the traceroute corpus — the
/// corpus-scan task of the parallel engine.
pub fn harvest_chunk(
    input: &InferenceInput<'_>,
    data: &opeer_traix::IxpData,
    range: std::ops::Range<usize>,
) -> PrivateEvidence {
    let mut neighbor_addrs: BTreeMap<Asn, Vec<(Ipv4Addr, Asn)>> = BTreeMap::new();
    for tr in &input.corpus[range] {
        let hops: Vec<Option<Ipv4Addr>> = tr.hops.iter().map(|h| h.map(|s| s.addr)).collect();
        for link in private_as_links(&hops, data, &input.ip2as) {
            // Both directions: each side's interface witnesses the link.
            neighbor_addrs
                .entry(link.a)
                .or_default()
                .push((link.a_addr, link.b));
            neighbor_addrs
                .entry(link.b)
                .or_default()
                .push((link.b_addr, link.a));
        }
    }
    PrivateEvidence { neighbor_addrs }
}

/// Harvests the full corpus with one sequential scan.
pub fn harvest(input: &InferenceInput<'_>) -> PrivateEvidence {
    let data = ixp_data(input);
    harvest_chunk(input, &data, 0..input.corpus.len())
}

/// Classifies one member interface through the facility vote. Returns
/// `None` when the evidence is insufficient. This is the per-interface
/// unit the incremental pipeline shards and caches: it reads only the
/// interface, the witness list of its own ASN `asn`, and world,
/// registry and alias data, never the ledger.
pub fn classify_interface(
    input: &InferenceInput<'_>,
    evidence: &PrivateEvidence,
    alias_cfg: &AliasConfig,
    ixp_idx: usize,
    lan_addr: Ipv4Addr,
    asn: Asn,
) -> Option<(Verdict, String)> {
    let ixp = &input.observed.ixps[ixp_idx];
    let private = evidence.neighbor_addrs.get(&asn)?;

    // Alias the member's LAN interface with its private-side interfaces:
    // only neighbors seen on the *same router* vote.
    let mut addrs: BTreeSet<Ipv4Addr> = BTreeSet::new();
    addrs.insert(lan_addr);
    for &(a, _) in private {
        addrs.insert(a);
    }
    let iface_ids: Vec<opeer_topology::IfaceId> = addrs
        .iter()
        .filter_map(|&a| input.world.iface_by_addr(a))
        .collect();
    let sets = resolve(input.world, &iface_ids, alias_cfg);
    let lan_group = input
        .world
        .iface_by_addr(lan_addr)
        .and_then(|i| sets.group_of(i));

    let mut voters: Vec<Asn> = Vec::new();
    for &(a, neighbor) in private {
        let same_router = match (
            lan_group,
            input.world.iface_by_addr(a).and_then(|i| sets.group_of(i)),
        ) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        };
        if same_router {
            voters.push(neighbor);
        }
    }
    voters.sort();
    voters.dedup();

    // Footprint-weighted facility vote: a witness present in k facilities
    // contributes 1/k to each — a tenant in two sites pins the router
    // down, a global carrier in forty says almost nothing.
    let mut scores: BTreeMap<usize, f64> = BTreeMap::new();
    let mut with_data = 0usize;
    for n in &voters {
        let Some(facs) = input.observed.facilities_of_as(*n) else {
            continue;
        };
        if facs.is_empty() {
            continue;
        }
        with_data += 1;
        let w = 1.0 / facs.len() as f64;
        for &f in facs {
            *scores.entry(f).or_insert(0.0) += w;
        }
    }
    if with_data < MIN_VOTERS {
        return None;
    }
    let best_score = scores.values().copied().fold(0.0f64, f64::max);
    let ixp_score = ixp
        .facility_idxs
        .iter()
        .filter_map(|f| scores.get(f))
        .copied()
        .fold(0.0f64, f64::max);

    if ixp_score >= LOCAL_SCORE_FLOOR && ixp_score >= 0.8 * best_score {
        return Some((
            Verdict::Local,
            format!(
                "{} private neighbors anchor the router at a {} facility (score {:.2})",
                with_data, ixp.name, ixp_score
            ),
        ));
    }
    if best_score >= REMOTE_DOMINANCE * ixp_score.max(1e-9) || ixp_score == 0.0 {
        return Some((
            Verdict::Remote,
            format!(
                "{} private neighbors place the router away from {} (best {:.2} vs IXP {:.2})",
                with_data, ixp.name, best_score, ixp_score
            ),
        ));
    }
    None // ambiguous vote: leave to no-inference
}

/// Proposes step-5 inferences for a contiguous range of observed IXP
/// indices, against a frozen view of the ledger. `classify_interface`
/// never reads the ledger and every LAN address is visited exactly
/// once, so the known-check only depends on steps 1–4 state.
pub fn propose_for_ixps(
    input: &InferenceInput<'_>,
    evidence: &PrivateEvidence,
    alias_cfg: &AliasConfig,
    ixps: std::ops::Range<usize>,
    ledger: &Ledger,
) -> Vec<Inference> {
    let mut proposals = Vec::new();
    for ixp_idx in ixps {
        let ixp = &input.observed.ixps[ixp_idx];
        for (&lan_addr, &asn) in &ixp.interfaces {
            if ledger.known(lan_addr) {
                continue;
            }
            let Some((verdict, why)) =
                classify_interface(input, evidence, alias_cfg, ixp_idx, lan_addr, asn)
            else {
                continue;
            };
            proposals.push(Inference {
                addr: lan_addr,
                ixp: ixp_idx,
                asn,
                verdict,
                step: Step::PrivateLinks,
                evidence: why,
            });
        }
    }
    proposals
}

/// Applies step 5 to every observed member interface still unknown.
/// Returns the number of new inferences.
pub fn apply(input: &InferenceInput<'_>, alias_cfg: &AliasConfig, ledger: &mut Ledger) -> usize {
    let evidence = harvest(input);
    let proposals = propose_for_ixps(
        input,
        &evidence,
        alias_cfg,
        0..input.observed.ixps.len(),
        ledger,
    );
    let mut new = 0;
    for inf in proposals {
        if ledger.record(inf) {
            new += 1;
        }
    }
    new
}

/// Standalone mode (Table 4 semantics): classifies *every* member
/// interface the vote can reach, regardless of other steps' verdicts.
pub fn classify_all(input: &InferenceInput<'_>, alias_cfg: &AliasConfig) -> Vec<Inference> {
    let evidence = harvest(input);
    let mut out = Vec::new();
    for (ixp_idx, ixp) in input.observed.ixps.iter().enumerate() {
        for (&lan_addr, &asn) in &ixp.interfaces {
            if let Some((verdict, why)) =
                classify_interface(input, &evidence, alias_cfg, ixp_idx, lan_addr, asn)
            {
                out.push(Inference {
                    addr: lan_addr,
                    ixp: ixp_idx,
                    asn,
                    verdict,
                    step: Step::PrivateLinks,
                    evidence: why,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steps::{step1, step2, step3, step4};
    use opeer_geo::SpeedModel;
    use opeer_topology::WorldConfig;

    #[test]
    fn last_resort_adds_inferences_with_fair_accuracy() {
        let w = WorldConfig::small(103).generate();
        let input = InferenceInput::assemble(&w, 7);
        let mut ledger = Ledger::new();
        step1::apply(&input, &mut ledger);
        let obs = step2::consolidate(&input);
        let details_vec = step3::apply(&input, &obs, &SpeedModel::default(), &mut ledger);
        let details = step4::Step3Index::build(&input.interns, details_vec.iter().copied());
        step4::apply(&input, &details, &AliasConfig::default(), &mut ledger);
        let before = ledger.len();
        let added = apply(&input, &AliasConfig::default(), &mut ledger);
        assert_eq!(ledger.len(), before + added);

        if added >= 10 {
            let (mut ok, mut bad) = (0usize, 0usize);
            for inf in ledger.all() {
                if inf.step != Step::PrivateLinks {
                    continue;
                }
                let Some(ifc) = w.iface_by_addr(inf.addr) else {
                    continue;
                };
                let Some(mid) = w.membership_of_iface(ifc) else {
                    continue;
                };
                if w.memberships[mid.index()].truth.is_remote() == inf.verdict.is_remote() {
                    ok += 1;
                } else {
                    bad += 1;
                }
            }
            let acc = ok as f64 / (ok + bad).max(1) as f64;
            assert!(
                acc > 0.6,
                "step-5 accuracy {acc} over {} inferences",
                ok + bad
            );
        }
    }

    #[test]
    fn never_overrides_existing_verdicts() {
        let w = WorldConfig::small(103).generate();
        let input = InferenceInput::assemble(&w, 7);
        let mut ledger = Ledger::new();
        step1::apply(&input, &mut ledger);
        let snapshot: Vec<(Ipv4Addr, Verdict)> =
            ledger.all().map(|i| (i.addr, i.verdict)).collect();
        apply(&input, &AliasConfig::default(), &mut ledger);
        for (addr, v) in snapshot {
            assert_eq!(ledger.verdict(addr), Some(v), "step 5 overrode {addr}");
        }
    }

    #[test]
    fn standalone_covers_at_least_the_marginal_set() {
        let w = WorldConfig::small(103).generate();
        let input = InferenceInput::assemble(&w, 7);
        let standalone = classify_all(&input, &AliasConfig::default());
        let mut ledger = Ledger::new();
        let marginal = apply(&input, &AliasConfig::default(), &mut ledger);
        assert!(
            standalone.len() >= marginal,
            "standalone {} < marginal {}",
            standalone.len(),
            marginal
        );
    }
}
