//! Step 4 — multi-IXP router inference (§5.1.3, §5.2, Fig. 3).
//!
//! From the traceroute corpus, every hop pair `{IPx, IPixp}` says "an
//! interface of member AS *x* sits right next to this IXP". ASes that
//! appear next to more than one IXP get their observed interfaces
//! alias-resolved (MIDAR-style, conservative); a resolved router facing
//! several IXPs is a *multi-IXP router*, and a verdict already known for
//! one of its IXPs propagates to the others under the paper's facility
//! conditions:
//!
//! * **local multi-IXP** (Fig. 3a) — prior *local* at one IXP and all the
//!   involved IXPs share a facility ⇒ local everywhere;
//! * **remote multi-IXP** (Fig. 3b) — prior *remote* at `IXP_R` and
//!   either all involved IXPs share a facility, or every involved IXP's
//!   facilities lie closer to `IXP_R` than the member possibly is
//!   (condition 2(b), using step 3's inner annulus bound `dmin`) ⇒
//!   remote everywhere;
//! * **hybrid** (Fig. 3c) — prior *local* at `IXP_L`; involved IXPs with
//!   no common facility with `IXP_L`, or farther from it than the
//!   member's outer bound `dmax` allows (condition 3(b)), are remote.

use crate::input::InferenceInput;
use crate::intern::InternTables;
use crate::steps::step3::Step3Detail;
use crate::steps::Ledger;
use crate::types::{Inference, Step, Verdict};
use opeer_alias::{resolve, AliasConfig};
use opeer_net::Asn;
use opeer_traix::{member_ixp_pairs, IxpData};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Dense rows of step-3 annulus details over the input's interned
/// address universe ([`crate::intern::AddrId`]), replacing the
/// per-candidate `BTreeMap<Ipv4Addr, Step3Detail>` walks: one flat
/// `Vec<Option<Step3Detail>>` built once per run, indexed through the
/// interner's binary search. Classification only ever looks details up
/// for the candidate's own LAN interfaces, and those are member
/// interfaces — always interned — so a detail for a non-interned
/// address (never produced by the campaign emitters) is unreachable
/// and dropped.
///
/// The rows are owned when built here, or borrowed from a caller that
/// keeps them across runs ([`Step3Index::over`]): the incremental
/// pipeline patches only the rows of re-evaluated targets.
pub struct Step3Index<'a> {
    interns: &'a InternTables,
    rows: Cow<'a, [Option<Step3Detail>]>,
}

impl<'a> Step3Index<'a> {
    /// Builds the dense rows from per-target details (any order).
    pub fn build(
        interns: &'a InternTables,
        details: impl IntoIterator<Item = Step3Detail>,
    ) -> Step3Index<'a> {
        let mut rows = vec![None; interns.addrs.len()];
        for d in details {
            Self::patch(interns, &mut rows, d);
        }
        Step3Index {
            interns,
            rows: Cow::Owned(rows),
        }
    }

    /// A view over rows kept by the caller, dense by [`crate::intern::AddrId`]
    /// of `interns`.
    pub fn over(interns: &'a InternTables, rows: &'a [Option<Step3Detail>]) -> Step3Index<'a> {
        debug_assert_eq!(rows.len(), interns.addrs.len());
        Step3Index {
            interns,
            rows: Cow::Borrowed(rows),
        }
    }

    /// Writes one detail into its row of caller-kept `rows` — the
    /// single-row step of [`Step3Index::build`].
    pub fn patch(interns: &InternTables, rows: &mut [Option<Step3Detail>], detail: Step3Detail) {
        if let Some(id) = interns.addr_id(detail.addr) {
            rows[id.0 as usize] = Some(detail);
        }
    }

    /// The step-3 detail evaluated for one address, if any.
    pub fn get(&self, addr: Ipv4Addr) -> Option<Step3Detail> {
        let id = self.interns.addr_id(addr)?;
        self.rows[id.0 as usize]
    }
}

/// The candidate-local verdict overlay: dense rows over the candidate's
/// own sorted address set (rank via binary search) instead of a
/// per-candidate `BTreeMap<Ipv4Addr, Inference>` allocation. Only the
/// verdict is overlaid — that is all [`classify`] ever read from the
/// map's `Inference` values.
struct LocalRows<'a> {
    addrs: &'a [Ipv4Addr],
    verdicts: Vec<Option<Verdict>>,
}

impl<'a> LocalRows<'a> {
    fn new(addrs: &'a [Ipv4Addr]) -> LocalRows<'a> {
        LocalRows {
            addrs,
            verdicts: vec![None; addrs.len()],
        }
    }

    fn rank(&self, addr: Ipv4Addr) -> Option<usize> {
        self.addrs.binary_search(&addr).ok()
    }

    fn get(&self, addr: Ipv4Addr) -> Option<Verdict> {
        self.rank(addr).and_then(|i| self.verdicts[i])
    }

    fn known(&self, addr: Ipv4Addr) -> bool {
        self.get(addr).is_some()
    }

    fn set(&mut self, addr: Ipv4Addr, verdict: Verdict) {
        if let Some(i) = self.rank(addr) {
            self.verdicts[i] = Some(verdict);
        }
    }
}

/// Classification of one multi-IXP router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterClass {
    /// Local to all involved IXPs (Fig. 3a).
    Local,
    /// Remote to all involved IXPs (Fig. 3b).
    Remote,
    /// Local to a subset, remote to the rest (Fig. 3c).
    Hybrid,
}

/// One discovered router (alias group) and its classification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiIxpFinding {
    /// Owning member ASN.
    pub asn: Asn,
    /// Alias-grouped interface addresses.
    pub ifaces: Vec<Ipv4Addr>,
    /// IXPs this router faces (observed indices).
    pub next_hop_ixps: BTreeSet<usize>,
    /// Classification, when the conditions resolved one.
    pub class: Option<RouterClass>,
}

/// Builds the traIXroute lookup data from the fused registry.
pub fn ixp_data(input: &InferenceInput<'_>) -> IxpData {
    let mut data = IxpData::new();
    for (i, ixp) in input.observed.ixps.iter().enumerate() {
        data.add_ixp(i as u32, &ixp.prefixes);
        for (&addr, &asn) in &ixp.interfaces {
            data.add_interface(i as u32, addr, asn);
        }
    }
    data
}

/// Pre-harvested step-4 evidence: the traIXroute lookup data plus
/// everything the corpus scan and registry produce. Building it is a
/// pure function of the input, so the incremental pipeline can harvest
/// corpus chunks on worker threads and merge them (sets union
/// order-independently) before the per-candidate classification.
pub struct Step4Evidence {
    /// traIXroute lookup structures over the observed IXPs.
    pub data: IxpData,
    /// `{IPx, IXP}` pairs per member AS from the corpus.
    pub as_pairs: BTreeMap<Asn, BTreeSet<(Ipv4Addr, usize)>>,
    /// IXPs each AS appears to cross (either side of a crossing).
    pub crossings: BTreeMap<Asn, BTreeSet<usize>>,
    /// LAN interfaces per ASN across the observed IXPs.
    pub lan_ifaces: BTreeMap<Asn, Vec<(Ipv4Addr, usize)>>,
}

impl Step4Evidence {
    /// The registry half of the evidence — the traIXroute lookup data
    /// and every member's LAN interfaces — with an empty corpus half.
    pub(crate) fn from_registry(input: &InferenceInput<'_>) -> Self {
        let mut lan_ifaces: BTreeMap<Asn, Vec<(Ipv4Addr, usize)>> = BTreeMap::new();
        for (i, ixp) in input.observed.ixps.iter().enumerate() {
            for (&addr, &asn) in &ixp.interfaces {
                lan_ifaces.entry(asn).or_default().push((addr, i));
            }
        }
        Step4Evidence {
            data: ixp_data(input),
            as_pairs: BTreeMap::new(),
            crossings: BTreeMap::new(),
            lan_ifaces,
        }
    }
}

/// The corpus-derived half of [`Step4Evidence`], for one chunk of the
/// traceroute corpus.
#[derive(Default)]
pub struct CorpusChunk {
    /// `{IPx, IXP}` pairs per member AS.
    pub as_pairs: BTreeMap<Asn, BTreeSet<(Ipv4Addr, usize)>>,
    /// IXPs each AS appears to cross.
    pub crossings: BTreeMap<Asn, BTreeSet<usize>>,
}

/// Scans a contiguous range of the traceroute corpus for `{IPx, IPixp}`
/// pairs and crossing evidence — a member "appears to peer at" an IXP
/// whether it is the near or far side of the crossing.
pub fn scan_corpus(
    input: &InferenceInput<'_>,
    data: &IxpData,
    range: std::ops::Range<usize>,
) -> CorpusChunk {
    let mut chunk = CorpusChunk::default();
    for tr in &input.corpus[range] {
        let hops: Vec<Option<Ipv4Addr>> = tr.hops.iter().map(|h| h.map(|s| s.addr)).collect();
        for p in member_ixp_pairs(&hops, data, &input.ip2as) {
            chunk
                .as_pairs
                .entry(p.member)
                .or_default()
                .insert((p.member_addr, p.ixp as usize));
            chunk
                .crossings
                .entry(p.member)
                .or_default()
                .insert(p.ixp as usize);
        }
        for c in opeer_traix::detect_crossings(&hops, data, &input.ip2as) {
            chunk
                .crossings
                .entry(c.from)
                .or_default()
                .insert(c.ixp as usize);
            chunk
                .crossings
                .entry(c.to)
                .or_default()
                .insert(c.ixp as usize);
        }
    }
    chunk
}

/// Harvests the full evidence set with one sequential corpus scan.
pub fn harvest(input: &InferenceInput<'_>) -> Step4Evidence {
    let registry = Step4Evidence::from_registry(input);
    let chunk = scan_corpus(input, &registry.data, 0..input.corpus.len());
    Step4Evidence {
        as_pairs: chunk.as_pairs,
        crossings: chunk.crossings,
        ..registry
    }
}

/// Multi-IXP candidate ASNs in ascending order: ASes whose crossing
/// evidence spans ≥ 2 distinct IXPs.
pub fn candidates(evidence: &Step4Evidence) -> Vec<Asn> {
    evidence
        .crossings
        .iter()
        .filter(|(_, ixps)| ixps.len() >= 2)
        .map(|(&asn, _)| asn)
        .collect()
}

/// Everything one candidate AS produced: the router findings plus the
/// inferences to commit. `recorded` holds the pipeline-mode inferences
/// (those that passed the not-already-known check against `priors` and
/// this candidate's own earlier groups); `all` holds every constructed
/// inference (standalone / Table 4 semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateOutcome {
    /// Router findings of this AS, in group order.
    pub findings: Vec<MultiIxpFinding>,
    /// Pipeline-mode inferences, in the order they were made.
    pub recorded: Vec<Inference>,
    /// Every constructed inference, including already-known addresses.
    pub all: Vec<Inference>,
}

/// Classifies one candidate AS — the per-shard task of the parallel
/// engine. Pure with respect to `priors`: step-4 verdicts of *other*
/// ASes can never influence this AS (classification only reads the
/// candidate's own LAN interfaces, and those are written only while
/// processing the candidate itself), so candidates may run in any order
/// or concurrently, as long as outcomes are committed in ascending ASN
/// order afterwards.
pub fn classify_candidate(
    input: &InferenceInput<'_>,
    evidence: &Step4Evidence,
    asn: Asn,
    details: &Step3Index<'_>,
    alias_cfg: &AliasConfig,
    priors: &Ledger,
) -> CandidateOutcome {
    let empty: BTreeSet<(Ipv4Addr, usize)> = BTreeSet::new();
    let pairs = evidence.as_pairs.get(&asn).unwrap_or(&empty);
    let mut outcome = CandidateOutcome {
        findings: Vec::new(),
        recorded: Vec::new(),
        all: Vec::new(),
    };

    // Alias-resolve all the candidate's observed interfaces. The sorted
    // dedup'd vector doubles as the rank space for the candidate-local
    // verdict overlay below (pairs come out of a BTreeSet, so the merge
    // preserves the old set-iteration order).
    let mut addrs: Vec<Ipv4Addr> = pairs.iter().map(|&(a, _)| a).collect();
    addrs.extend(
        evidence
            .lan_ifaces
            .get(&asn)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .map(|&(a, _)| a),
    );
    addrs.sort_unstable();
    addrs.dedup();
    // Same-candidate writes: earlier groups of this AS seed later ones,
    // exactly as the sequential ledger did mid-loop.
    let mut local = LocalRows::new(&addrs);
    let iface_ids: Vec<opeer_topology::IfaceId> = addrs
        .iter()
        .filter_map(|&a| input.world.iface_by_addr(a))
        .collect();
    let sets = resolve(input.world, &iface_ids, alias_cfg);

    // Group interfaces per resolved router; singletons stay alone.
    // Group ids are dense alias-set indices, so a flat row per id
    // reproduces the old ascending-key map iteration exactly.
    let mut groups: Vec<Vec<Ipv4Addr>> = Vec::new();
    let mut singles: Vec<Ipv4Addr> = Vec::new();
    for &a in &addrs {
        match input.world.iface_by_addr(a).and_then(|i| sets.group_of(i)) {
            Some(g) => {
                if g >= groups.len() {
                    groups.resize_with(g + 1, Vec::new);
                }
                groups[g].push(a);
            }
            None => singles.push(a),
        }
    }
    let mut all_groups: Vec<Vec<Ipv4Addr>> = groups.into_iter().filter(|g| !g.is_empty()).collect();
    all_groups.extend(singles.into_iter().map(|a| vec![a]));

    for group in all_groups {
        // IXPs this group faces: pair-derived next hops + the IXPs of
        // its own LAN addresses.
        let mut next_hop: BTreeSet<usize> = BTreeSet::new();
        for &a in &group {
            for &(pa, ixp) in pairs {
                if pa == a {
                    next_hop.insert(ixp);
                }
            }
            if let Some((ixp, owner)) = input.observed.member_of_addr(a) {
                if owner == asn {
                    next_hop.insert(ixp);
                }
            }
        }
        if next_hop.len() < 2 {
            continue;
        }

        let class = classify(
            input,
            asn,
            &next_hop,
            details,
            priors,
            &local,
            &evidence.lan_ifaces,
        );
        // Propagate: in pipeline mode only to unknown memberships; in
        // standalone mode every involved interface gets the step's own
        // verdict (Table 4 semantics).
        if let Some((class, verdicts)) = &class {
            for (ixp, verdict) in verdicts {
                if let Some(lans) = evidence.lan_ifaces.get(&asn) {
                    for &(addr, lan_ixp) in lans {
                        if lan_ixp != *ixp {
                            continue;
                        }
                        let inf = Inference {
                            addr,
                            ixp: *ixp,
                            asn,
                            verdict: *verdict,
                            step: Step::MultiIxp,
                            evidence: format!(
                                "{class:?} multi-IXP router facing {} IXPs",
                                next_hop.len()
                            ),
                        };
                        outcome.all.push(inf.clone());
                        if !priors.known(addr) && !local.known(addr) {
                            local.set(addr, inf.verdict);
                            outcome.recorded.push(inf);
                        }
                    }
                }
            }
        }
        outcome.findings.push(MultiIxpFinding {
            asn,
            ifaces: group,
            next_hop_ixps: next_hop,
            class: class.map(|(c, _)| c),
        });
    }
    outcome
}

/// Applies step 4. Returns the router findings (Fig. 9d's data) and
/// records propagated inferences in the ledger.
pub fn apply(
    input: &InferenceInput<'_>,
    details: &Step3Index<'_>,
    alias_cfg: &AliasConfig,
    ledger: &mut Ledger,
) -> Vec<MultiIxpFinding> {
    let evidence = harvest(input);
    let mut findings = Vec::new();
    for asn in candidates(&evidence) {
        let outcome = classify_candidate(input, &evidence, asn, details, alias_cfg, ledger);
        for inf in outcome.recorded {
            ledger.record(inf);
        }
        findings.extend(outcome.findings);
    }
    findings
}

/// Standalone mode (Table 4 semantics): classifies every interface the
/// multi-IXP propagation can reach, using `priors` (typically steps 1–3)
/// for the seed verdicts but emitting its own verdicts for all involved
/// interfaces, classified or not.
pub fn classify_all(
    input: &InferenceInput<'_>,
    details: &Step3Index<'_>,
    alias_cfg: &AliasConfig,
    priors: &Ledger,
) -> (Vec<MultiIxpFinding>, Vec<Inference>) {
    let evidence = harvest(input);
    let mut scratch = priors.clone();
    let mut findings = Vec::new();
    let mut collected = Vec::new();
    for asn in candidates(&evidence) {
        let outcome = classify_candidate(input, &evidence, asn, details, alias_cfg, &scratch);
        for inf in outcome.recorded {
            scratch.record(inf);
        }
        collected.extend(outcome.all);
        findings.extend(outcome.findings);
    }
    (findings, collected)
}

/// Applies the three classification rules. Returns the class and the
/// per-IXP verdicts to propagate. `local` overlays the candidate's own
/// not-yet-committed verdicts on top of `priors`.
#[allow(clippy::type_complexity)]
fn classify(
    input: &InferenceInput<'_>,
    asn: Asn,
    involved: &BTreeSet<usize>,
    details: &Step3Index<'_>,
    priors: &Ledger,
    local: &LocalRows<'_>,
    lan_ifaces: &BTreeMap<Asn, Vec<(Ipv4Addr, usize)>>,
) -> Option<(RouterClass, Vec<(usize, Verdict)>)> {
    let verdict_of =
        |addr: Ipv4Addr| -> Option<Verdict> { priors.verdict(addr).or(local.get(addr)) };
    // Prior verdicts of this AS at the involved IXPs, with their annuli.
    // The sorted rows keep the LAST verdict written per IXP (matching the
    // old map's insert-overwrites semantics) and iterate IXP-ascending.
    let mut prior: Vec<(usize, (Verdict, Option<Step3Detail>))> = Vec::new();
    if let Some(lans) = lan_ifaces.get(&asn) {
        for &(addr, ixp) in lans {
            if !involved.contains(&ixp) {
                continue;
            }
            if let Some(v) = verdict_of(addr) {
                prior.push((ixp, (v, details.get(addr))));
            }
        }
    }
    prior.sort_by_key(|&(ixp, _)| ixp);
    prior.reverse();
    prior.dedup_by_key(|&mut (ixp, _)| ixp);
    prior.reverse();

    let share_facility = |a: usize, b: usize| -> bool {
        input.observed.ixps[a]
            .facility_idxs
            .iter()
            .any(|f| input.observed.ixps[b].facility_idxs.contains(f))
    };
    let all_share = || -> bool {
        let v: Vec<usize> = involved.iter().copied().collect();
        v.windows(2).all(|w| share_facility(w[0], w[1]))
            && (v.len() < 2 || share_facility(v[0], *v.last().expect("non-empty")))
    };
    let ixp_pair_dist = |a: usize, b: usize, max: bool| -> Option<f64> {
        let fa = &input.observed.ixps[a].facility_idxs;
        let fb = &input.observed.ixps[b].facility_idxs;
        let mut best: Option<f64> = None;
        for &x in fa {
            for &y in fb {
                let d = input.observed.facilities[x]
                    .location
                    .distance_km(&input.observed.facilities[y].location);
                best = Some(match best {
                    None => d,
                    Some(cur) if max => cur.max(d),
                    Some(cur) => cur.min(d),
                });
            }
        }
        best
    };

    // Rule 1: local multi-IXP router.
    if let Some(&(l_ixp, _)) = prior.iter().find(|(_, (v, _))| *v == Verdict::Local) {
        if all_share() {
            let _ = l_ixp;
            return Some((
                RouterClass::Local,
                involved.iter().map(|&i| (i, Verdict::Local)).collect(),
            ));
        }
    }

    // Rule 2: remote multi-IXP router.
    if let Some(&(r_ixp, (_, det))) = prior.iter().find(|(_, (v, _))| *v == Verdict::Remote) {
        let cond_a = all_share();
        let cond_b = det.is_some_and(|d| {
            involved.iter().all(|&x| {
                x == r_ixp
                    || ixp_pair_dist(x, r_ixp, true).is_some_and(|max_d| max_d < d.annulus.min_km)
            })
        });
        if cond_a || cond_b {
            return Some((
                RouterClass::Remote,
                involved.iter().map(|&i| (i, Verdict::Remote)).collect(),
            ));
        }
    }

    // Rule 3: hybrid.
    if let Some(&(l_ixp, (_, det))) = prior.iter().find(|(_, (v, _))| *v == Verdict::Local) {
        let mut verdicts: Vec<(usize, Verdict)> = vec![(l_ixp, Verdict::Local)];
        let mut any_remote = false;
        for &x in involved {
            if x == l_ixp {
                continue;
            }
            if share_facility(l_ixp, x) {
                verdicts.push((x, Verdict::Local));
                continue;
            }
            let cond_b = det.is_some_and(|d| {
                ixp_pair_dist(l_ixp, x, false).is_some_and(|min_d| min_d > d.annulus.max_km)
            });
            // Condition (a): no common facility at all — already true here.
            let cond_a = true;
            if cond_a || cond_b {
                verdicts.push((x, Verdict::Remote));
                any_remote = true;
            }
        }
        if any_remote {
            return Some((RouterClass::Hybrid, verdicts));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steps::{step2, step3};
    use opeer_geo::SpeedModel;
    use opeer_topology::WorldConfig;

    fn run(seed: u64) -> (opeer_topology::World, Vec<MultiIxpFinding>, Ledger) {
        let w = WorldConfig::small(seed).generate();
        let input = InferenceInput::assemble(&w, seed);
        let mut ledger = Ledger::new();
        crate::steps::step1::apply(&input, &mut ledger);
        let obs = step2::consolidate(&input);
        let details_vec = step3::apply(&input, &obs, &SpeedModel::default(), &mut ledger);
        let details = Step3Index::build(&input.interns, details_vec.iter().copied());
        let before = ledger.len();
        let findings = apply(&input, &details, &AliasConfig::default(), &mut ledger);
        assert!(ledger.len() >= before);
        (w, findings, ledger)
    }

    #[test]
    fn finds_multi_ixp_routers() {
        let (_w, findings, _ledger) = run(101);
        assert!(!findings.is_empty(), "no multi-IXP routers discovered");
        for f in &findings {
            assert!(f.next_hop_ixps.len() >= 2);
            assert!(!f.ifaces.is_empty());
        }
    }

    #[test]
    fn propagated_verdicts_are_mostly_correct() {
        let (w, _findings, ledger) = run(101);
        let (mut ok, mut bad) = (0usize, 0usize);
        for inf in ledger.all() {
            if inf.step != Step::MultiIxp {
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
        if ok + bad >= 10 {
            let acc = ok as f64 / (ok + bad) as f64;
            assert!(
                acc > 0.75,
                "step-4 accuracy {acc} over {} inferences",
                ok + bad
            );
        }
    }

    #[test]
    fn groups_respect_alias_truth() {
        // Every multi-address group must really be one router.
        let (w, findings, _ledger) = run(101);
        for f in &findings {
            if f.ifaces.len() < 2 {
                continue;
            }
            let routers: BTreeSet<_> = f
                .ifaces
                .iter()
                .filter_map(|&a| w.iface_by_addr(a))
                .map(|i| w.interfaces[i.index()].router)
                .collect();
            assert_eq!(
                routers.len(),
                1,
                "alias group spans routers: {:?}",
                f.ifaces
            );
        }
    }
}
