//! Ablations of the design choices the paper's method rests on.
//!
//! Three questions the paper's design implies but never isolates:
//!
//! 1. **Cumulative step value** — what do coverage and accuracy look
//!    like after step 1, after steps 1–3, 1–4, 1–5? (§5.2 argues the
//!    order; this measures it.)
//! 2. **Baseline threshold sweep** — is there *any* RTT threshold that
//!    fixes the baseline? (§4.1 claims no: FNR/FPR trade off.)
//! 3. **The §6.1 rounding correction** — how much accuracy does the
//!    `RTT′min = RTTmin − 1` adjustment for integer-rounding LGs buy?
//! 4. **Beyond pings (§8)** — the traceroute-derived-RTT variant of
//!    steps 2+3, needing no in-IXP vantage points at all.

use super::Rendered;
use crate::session::Session;
use opeer_core::baseline::run_baseline;
use opeer_core::metrics::score;
use opeer_core::pipeline::PipelineConfig;
use opeer_core::steps::{step1, step2, step3, step4, step5, Ledger};
use opeer_core::types::Inference;
use opeer_geo::SpeedModel;
use opeer_registry::ValidationDataset;
use opeer_topology::ValidationRole;
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    variant: String,
    acc: f64,
    pre: f64,
    cov: f64,
    fpr: f64,
    fnr: f64,
}

fn row(label: &str, inferences: &[Inference], validation: &ValidationDataset) -> AblationRow {
    let m = score(inferences, validation, Some(ValidationRole::Test));
    AblationRow {
        variant: label.to_string(),
        acc: m.acc(),
        pre: m.pre(),
        cov: m.cov(),
        fpr: m.fpr(),
        fnr: m.fnr(),
    }
}

/// The ablation suite (one experiment, several variant tables).
pub fn ablations(s: &Session<'_>) -> Rendered {
    let input = s.input();
    let validation = &input.observed.validation;
    let cfg = PipelineConfig::default();
    let mut rows: Vec<AblationRow> = Vec::new();

    // --- 1. cumulative steps ---
    let observations = step2::consolidate(&input);
    {
        let mut ledger = Ledger::new();
        step1::apply(&input, &mut ledger);
        rows.push(row(
            "steps 1",
            &ledger.all().collect::<Vec<_>>(),
            validation,
        ));

        let details_vec = step3::apply(&input, &observations, &cfg.speed, &mut ledger);
        rows.push(row(
            "steps 1–3",
            &ledger.all().collect::<Vec<_>>(),
            validation,
        ));

        let details = step4::Step3Index::build(&input.interns, details_vec.iter().copied());
        step4::apply(&input, &details, &cfg.alias, &mut ledger);
        rows.push(row(
            "steps 1–4",
            &ledger.all().collect::<Vec<_>>(),
            validation,
        ));

        step5::apply(&input, &cfg.alias, &mut ledger);
        rows.push(row(
            "steps 1–5",
            &ledger.all().collect::<Vec<_>>(),
            validation,
        ));
    }

    // --- 2. baseline threshold sweep ---
    for threshold in [2.0, 5.0, 10.0, 20.0] {
        let b = run_baseline(&input, threshold);
        rows.push(row(&format!("baseline {threshold} ms"), &b, validation));
    }

    // --- 3. rounding correction off ---
    {
        let mut ledger = Ledger::new();
        step1::apply(&input, &mut ledger);
        step3::apply_with_rounding(&input, &observations, &cfg.speed, &mut ledger, false);
        rows.push(row(
            "steps 1–3, no RTT′ correction",
            &ledger.all().collect::<Vec<_>>(),
            validation,
        ));
    }

    // --- 4. beyond pings: traceroute-derived steps 2+3 ---
    {
        let pingless = opeer_core::beyond_pings::pingless_rtt_colo(&input, &SpeedModel::default());
        rows.push(row("traceroute-RTT steps 2+3 (§8)", &pingless, validation));
    }

    let mut text = format!(
        "{:<34} {:>6} {:>6} {:>6} {:>6} {:>6}\n",
        "variant", "ACC", "PRE", "COV", "FPR", "FNR"
    );
    for r in &rows {
        text.push_str(&format!(
            "{:<34} {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}%\n",
            r.variant,
            r.acc * 100.0,
            r.pre * 100.0,
            r.cov * 100.0,
            r.fpr * 100.0,
            r.fnr * 100.0
        ));
    }
    Rendered::new(
        "ablations",
        "Ablations: step value, thresholds, corrections",
        text,
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_topology::WorldConfig;

    #[test]
    fn cumulative_steps_never_lose_coverage() {
        let w = WorldConfig::small(167).generate();
        let s = Session::new(&w, 12);
        let r = ablations(&s);
        let rows: Vec<serde_json::Value> = serde_json::from_value(r.json).expect("json");
        let cov = |name: &str| -> f64 {
            rows.iter()
                .find(|v| v["variant"].as_str() == Some(name))
                .and_then(|v| v["cov"].as_f64())
                .expect("variant present")
        };
        assert!(cov("steps 1") <= cov("steps 1–3") + 1e-9);
        assert!(cov("steps 1–3") <= cov("steps 1–4") + 1e-9);
        assert!(cov("steps 1–4") <= cov("steps 1–5") + 1e-9);
    }

    #[test]
    fn no_threshold_beats_the_methodology() {
        let w = WorldConfig::small(167).generate();
        let s = Session::new(&w, 12);
        let r = ablations(&s);
        let rows: Vec<serde_json::Value> = serde_json::from_value(r.json).expect("json");
        let full_acc = rows
            .iter()
            .find(|v| v["variant"].as_str() == Some("steps 1–5"))
            .and_then(|v| v["acc"].as_f64())
            .expect("present");
        for t in [
            "baseline 2 ms",
            "baseline 5 ms",
            "baseline 10 ms",
            "baseline 20 ms",
        ] {
            let acc = rows
                .iter()
                .find(|v| v["variant"].as_str() == Some(t))
                .and_then(|v| v["acc"].as_f64())
                .expect("present");
            assert!(
                full_acc > acc,
                "{t} accuracy {acc} beats the methodology {full_acc}"
            );
        }
    }
}
