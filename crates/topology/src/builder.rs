//! Validation of hand-edited [`WorldConfig`] values.
//!
//! Sweep grids build many hand-tweaked configs; a typo'd probability or
//! an inverted capacity bound would otherwise generate a silently
//! degenerate world (or panic deep inside the generator).
//! [`WorldConfig::validate`] rejects out-of-range knobs with a typed
//! [`WorldConfigError`].

use std::fmt;

use crate::gen::WorldConfig;

/// Why a [`WorldConfig`] was rejected by [`WorldConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorldConfigError {
    /// A probability field lies outside `[0, 1]` (or is NaN).
    ProbabilityOutOfRange {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The remote-distance mixture has a weight outside `[0, 1]` or the
    /// first three weights sum past 1 (the fourth is the remainder).
    RemoteMixInvalid {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The port-capacity tier weights are outside `[0, 1]` or
    /// `p_local_ge + p_local_10ge` exceeds 1.
    PortWeightsInvalid {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// `min_physical_mbps` exceeds `max_physical_mbps`.
    InvertedCapacityBounds {
        /// Configured lower bound (Mbps).
        min: u32,
        /// Configured upper bound (Mbps).
        max: u32,
    },
    /// `scale` is not a finite positive number.
    ScaleInvalid {
        /// The rejected value.
        value: f64,
    },
    /// A member/population count that must be at least 1 is zero.
    ZeroMemberCount {
        /// Name of the offending field.
        field: &'static str,
    },
    /// `observation_month` falls outside `1..=timeline_months`, or the
    /// timeline is empty.
    ObservationOutOfWindow {
        /// Configured observation month.
        observation_month: u32,
        /// Configured timeline length in months.
        timeline_months: u32,
    },
    /// A mean-count field is negative or non-finite.
    MeanInvalid {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for WorldConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldConfigError::ProbabilityOutOfRange { field, value } => {
                write!(f, "probability `{field}` = {value} is outside [0, 1]")
            }
            WorldConfigError::RemoteMixInvalid { detail } => {
                write!(f, "remote_mix invalid: {detail}")
            }
            WorldConfigError::PortWeightsInvalid { detail } => {
                write!(f, "port_capacity weights invalid: {detail}")
            }
            WorldConfigError::InvertedCapacityBounds { min, max } => write!(
                f,
                "port_capacity bounds inverted: min {min} Mbps > max {max} Mbps"
            ),
            WorldConfigError::ScaleInvalid { value } => {
                write!(f, "scale = {value} must be finite and > 0")
            }
            WorldConfigError::ZeroMemberCount { field } => {
                write!(f, "`{field}` must be at least 1")
            }
            WorldConfigError::ObservationOutOfWindow {
                observation_month,
                timeline_months,
            } => write!(
                f,
                "observation_month {observation_month} outside timeline 1..={timeline_months}"
            ),
            WorldConfigError::MeanInvalid { field, value } => {
                write!(f, "mean `{field}` = {value} must be finite and >= 0")
            }
        }
    }
}

impl std::error::Error for WorldConfigError {}

fn check_prob(field: &'static str, value: f64) -> Result<(), WorldConfigError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(WorldConfigError::ProbabilityOutOfRange { field, value })
    }
}

impl WorldConfig {
    /// Checks every knob for internal consistency.
    ///
    /// The stock constructors (`default`/`small`/`paper`/…) always pass;
    /// hand-edited configs — sweep-grid cells in particular — should be
    /// funnelled through this so degenerate worlds fail loudly before
    /// generation.
    pub fn validate(&self) -> Result<(), WorldConfigError> {
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(WorldConfigError::ScaleInvalid { value: self.scale });
        }
        if self.n_background_ases == 0 {
            return Err(WorldConfigError::ZeroMemberCount {
                field: "n_background_ases",
            });
        }
        if self.timeline_months == 0
            || self.observation_month == 0
            || self.observation_month > self.timeline_months
        {
            return Err(WorldConfigError::ObservationOutOfWindow {
                observation_month: self.observation_month,
                timeline_months: self.timeline_months,
            });
        }

        for (field, value) in [
            ("p_small_wide_area", self.p_small_wide_area),
            ("p_reseller_given_remote", self.p_reseller_given_remote),
            ("p_submin_given_reseller", self.p_submin_given_reseller),
            ("p_colocated_reseller", self.p_colocated_reseller),
            ("p_legacy_submin_local", self.p_legacy_submin_local),
            ("p_local_share_router", self.p_local_share_router),
            ("p_remote_share_router", self.p_remote_share_router),
            ("p_hybrid_attach_facility", self.p_hybrid_attach_facility),
            ("p_ipid_shared", self.p_ipid_shared),
            ("p_ipid_random", self.p_ipid_random),
            ("p_iface_responds", self.p_iface_responds),
            ("p_join_window_local", self.p_join_window_local),
            ("p_join_window_remote", self.p_join_window_remote),
        ] {
            check_prob(field, value)?;
        }
        if self.p_ipid_shared + self.p_ipid_random > 1.0 + 1e-9 {
            return Err(WorldConfigError::ProbabilityOutOfRange {
                field: "p_ipid_shared + p_ipid_random",
                value: self.p_ipid_shared + self.p_ipid_random,
            });
        }

        let mix = self.remote_mix;
        for (name, w) in [
            ("same_metro", mix.same_metro),
            ("regional", mix.regional),
            ("continental", mix.continental),
            ("intercontinental", mix.intercontinental),
        ] {
            if !(w.is_finite() && (0.0..=1.0).contains(&w)) {
                return Err(WorldConfigError::RemoteMixInvalid {
                    detail: format!("weight `{name}` = {w} is outside [0, 1]"),
                });
            }
        }
        let head = mix.same_metro + mix.regional + mix.continental;
        if head > 1.0 + 1e-9 {
            return Err(WorldConfigError::RemoteMixInvalid {
                detail: format!("same_metro + regional + continental = {head} exceeds 1"),
            });
        }

        let ports = self.port_capacity;
        for (name, w) in [
            ("p_local_ge", ports.p_local_ge),
            ("p_local_10ge", ports.p_local_10ge),
            ("p_cable_ge", ports.p_cable_ge),
        ] {
            if !(w.is_finite() && (0.0..=1.0).contains(&w)) {
                return Err(WorldConfigError::PortWeightsInvalid {
                    detail: format!("weight `{name}` = {w} is outside [0, 1]"),
                });
            }
        }
        if ports.p_local_ge + ports.p_local_10ge > 1.0 + 1e-9 {
            return Err(WorldConfigError::PortWeightsInvalid {
                detail: format!(
                    "p_local_ge + p_local_10ge = {} exceeds 1",
                    ports.p_local_ge + ports.p_local_10ge
                ),
            });
        }
        if ports.min_physical_mbps > ports.max_physical_mbps {
            return Err(WorldConfigError::InvertedCapacityBounds {
                min: ports.min_physical_mbps,
                max: ports.max_physical_mbps,
            });
        }

        for (field, value) in [
            ("mean_pnis_per_local", self.mean_pnis_per_local),
            ("departures_per_join", self.departures_per_join),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(WorldConfigError::MeanInvalid { field, value });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{capacity, PortCapacityDist, RemoteMix};

    #[test]
    fn stock_constructors_validate() {
        for cfg in [
            WorldConfig::default(),
            WorldConfig::small(7),
            WorldConfig::paper(7),
            WorldConfig::large(7),
            WorldConfig::xlarge(7),
        ] {
            cfg.validate().expect("stock config must validate");
        }
    }

    /// `WorldConfig::default()` with one edit applied, validated.
    fn validate_edited(edit: impl FnOnce(&mut WorldConfig)) -> Result<(), WorldConfigError> {
        let mut cfg = WorldConfig::default();
        edit(&mut cfg);
        cfg.validate()
    }

    #[test]
    fn builder_happy_path() {
        validate_edited(|c| {
            c.seed = 99;
            c.scale = 0.5;
            c.n_small_ixps = 10;
            c.p_reseller_given_remote = 0.4;
        })
        .expect("in-range edits must validate");
    }

    #[test]
    fn rejects_out_of_range_probability() {
        let err = validate_edited(|c| c.p_reseller_given_remote = 1.3).unwrap_err();
        assert!(matches!(
            err,
            WorldConfigError::ProbabilityOutOfRange {
                field: "p_reseller_given_remote",
                ..
            }
        ));
        let err = validate_edited(|c| c.p_ipid_shared = f64::NAN).unwrap_err();
        assert!(matches!(
            err,
            WorldConfigError::ProbabilityOutOfRange {
                field: "p_ipid_shared",
                ..
            }
        ));
    }

    #[test]
    fn rejects_zero_member_count() {
        let err = validate_edited(|c| c.n_background_ases = 0).unwrap_err();
        assert!(matches!(
            err,
            WorldConfigError::ZeroMemberCount {
                field: "n_background_ases"
            }
        ));
    }

    #[test]
    fn rejects_inverted_capacity_bounds() {
        let ports = PortCapacityDist {
            min_physical_mbps: capacity::TEN_GE,
            max_physical_mbps: capacity::GE,
            ..PortCapacityDist::default()
        };
        let err = validate_edited(|c| c.port_capacity = ports).unwrap_err();
        assert_eq!(
            err,
            WorldConfigError::InvertedCapacityBounds {
                min: capacity::TEN_GE,
                max: capacity::GE,
            }
        );
    }

    #[test]
    fn rejects_bad_remote_mix_and_port_weights() {
        let err = validate_edited(|c| {
            c.remote_mix = RemoteMix {
                same_metro: 0.6,
                regional: 0.5,
                continental: 0.2,
                intercontinental: 0.0,
            }
        })
        .unwrap_err();
        assert!(matches!(err, WorldConfigError::RemoteMixInvalid { .. }));

        let err = validate_edited(|c| {
            c.port_capacity = PortCapacityDist {
                p_local_ge: 0.8,
                p_local_10ge: 0.4,
                ..PortCapacityDist::default()
            }
        })
        .unwrap_err();
        assert!(matches!(err, WorldConfigError::PortWeightsInvalid { .. }));
    }

    #[test]
    fn rejects_bad_scale_and_window() {
        assert!(matches!(
            validate_edited(|c| c.scale = 0.0).unwrap_err(),
            WorldConfigError::ScaleInvalid { .. }
        ));
        assert!(matches!(
            validate_edited(|c| c.observation_month = 20).unwrap_err(),
            WorldConfigError::ObservationOutOfWindow { .. }
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let msg = WorldConfigError::InvertedCapacityBounds {
            min: 10_000,
            max: 1_000,
        }
        .to_string();
        assert!(msg.contains("10000") && msg.contains("1000"));
    }
}
