//! One experiment per table/figure of the paper; [`run_all`] renders
//! them all (README, "Reproducing the paper's artifacts").

pub mod ablations;
pub mod fig_analysis;
pub mod fig_datasets;
pub mod fig_inference;
pub mod tables;
pub mod util;

use crate::session::Session;
use serde::Serialize;

/// A rendered experiment: identifier, title, human-readable text, and a
/// machine-readable JSON payload.
#[derive(Debug, Clone, Serialize)]
pub struct Rendered {
    /// Artifact id, e.g. `"table4"` or `"fig9b"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// The regenerated rows/series as text.
    pub text: String,
    /// The same data as JSON.
    pub json: serde_json::Value,
}

impl Rendered {
    /// Builds a rendered experiment from serialisable data.
    pub fn new<T: Serialize>(id: &str, title: &str, text: String, data: &T) -> Self {
        Rendered {
            id: id.to_string(),
            title: title.to_string(),
            text,
            json: serde_json::to_value(data).expect("experiment data serialises"),
        }
    }
}

/// Runs every experiment against one session, in paper order.
pub fn run_all(s: &Session<'_>) -> Vec<Rendered> {
    vec![
        tables::table1(s),
        tables::table2(s),
        tables::table4(s),
        tables::table5(s),
        fig_datasets::fig1a(s),
        fig_datasets::fig1b(s),
        fig_datasets::fig2a(s),
        fig_datasets::fig2b(s),
        fig_datasets::fig4(s),
        fig_datasets::fig5(s),
        fig_datasets::fig6(s),
        fig_inference::fig8(s),
        fig_inference::fig9a(s),
        fig_inference::fig9b(s),
        fig_inference::fig9c(s),
        fig_inference::fig9d(s),
        fig_inference::fig10a(s),
        fig_inference::fig10b(s),
        fig_analysis::fig11a(s),
        fig_analysis::fig11b(s),
        fig_analysis::fig12a(s),
        fig_analysis::fig12b(s),
        fig_analysis::sec64(s),
        ablations::ablations(s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use opeer_topology::WorldConfig;

    #[test]
    fn all_experiments_run_at_test_scale() {
        let w = WorldConfig::small(137).generate();
        let s = Session::new(&w, 4);
        let all = run_all(&s);
        assert_eq!(all.len(), 24, "every table/figure plus the ablation suite");
        let mut ids = std::collections::HashSet::new();
        for r in &all {
            assert!(!r.text.is_empty(), "{} rendered empty", r.id);
            assert!(ids.insert(r.id.clone()), "duplicate id {}", r.id);
            assert!(!r.json.is_null(), "{} has no data", r.id);
        }
    }
}
