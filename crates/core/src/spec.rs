//! Data-driven governor construction: [`GovernorSpec`] and its registry.
//!
//! Experiments used to duplicate `Box<dyn Governor>` factory closures at
//! every call site. A `GovernorSpec` is the declarative replacement: a
//! serializable description of a governor stack (including nested
//! [`Watchdog`] / [`ThermalGuard`] wrappers) that [`GovernorSpec::build`]
//! turns into a live governor against a chosen set of models. The JSON
//! form doubles as run provenance: the experiment harness records it in
//! the `--trace-out` JSONL header, so a trace file says exactly which
//! policy produced it.
//!
//! The crate vendors no serde, so the JSON codec is hand-rolled: a fixed
//! key order on output and the shared [`crate::json`] recursive-descent
//! parser on input, with the round-trip (`to_json` → `from_json` →
//! `to_json`) an identity. The parser rejects duplicate keys and
//! non-finite numeric literals outright (see [`crate::json`]).

use aapm_models::perf_model::{PerfModel, PerfModelParams};
use aapm_models::power_model::PowerModel;
use aapm_platform::error::{PlatformError, Result};
use aapm_platform::pstate::PStateId;
use aapm_platform::units::Seconds;

use crate::adaptive::{Adaptive, AdaptiveConfig};
use crate::baselines::{DemandBasedSwitching, StaticClock, Unconstrained};
use crate::json::Json;
use crate::combined_pm::CombinedPm;
use crate::feedback::FeedbackPm;
use crate::governor::{BoxedGovernor, Governor};
use crate::limits::{PerformanceFloor, PowerLimit};
use crate::phase_pm::PhasePm;
use crate::pm::PerformanceMaximizer;
use crate::ps::PowerSave;
use crate::slo_save::SloSave;
use crate::thermal_guard::ThermalGuard;
use crate::throttle_save::ThrottleSave;
use crate::watchdog::Watchdog;

/// The models a spec is built against. Specs carry policy *parameters*
/// (limits, floors, targets); the estimation models come from the caller —
/// typically a characterized [`PowerModel`] and the paper's eq.-3
/// [`PerfModel`].
#[derive(Debug, Clone)]
pub struct SpecModels {
    /// Power model for PM-family governors.
    pub power: PowerModel,
    /// Performance model for PS.
    pub perf: PerfModel,
}

impl Default for SpecModels {
    /// The paper's published models (Table II power, eq.-3 performance).
    fn default() -> Self {
        SpecModels {
            power: PowerModel::paper_table_ii(),
            perf: PerfModel::new(PerfModelParams::paper()),
        }
    }
}

/// A serializable description of a governor stack.
///
/// # Examples
///
/// ```
/// use aapm::spec::{GovernorSpec, SpecModels};
///
/// let spec = GovernorSpec::Watchdog {
///     inner: Box::new(GovernorSpec::Pm { limit_w: 12.5 }),
/// };
/// assert_eq!(spec.to_json(), r#"{"kind":"watchdog","inner":{"kind":"pm","limit_w":12.5}}"#);
/// assert_eq!(GovernorSpec::from_json(&spec.to_json())?, spec);
/// let governor = spec.build(&SpecModels::default())?;
/// assert_eq!(governor.name(), "watchdog<pm>");
/// # Ok::<(), aapm_platform::error::PlatformError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum GovernorSpec {
    /// [`Unconstrained`]: always the highest p-state.
    Unconstrained,
    /// [`StaticClock`] pinned to p-state index `pstate`.
    StaticClock {
        /// P-state table index to pin.
        pstate: usize,
    },
    /// [`DemandBasedSwitching`] at a target utilization.
    Dbs {
        /// Utilization setpoint in (0, 1].
        target_utilization: f64,
    },
    /// [`PerformanceMaximizer`] under a power limit.
    Pm {
        /// Power limit in watts.
        limit_w: f64,
    },
    /// [`PowerSave`] above a performance floor.
    Ps {
        /// Performance floor as a fraction of peak in (0, 1].
        floor: f64,
    },
    /// [`FeedbackPm`]: PM with measured-power feedback.
    FeedbackPm {
        /// Power limit in watts.
        limit_w: f64,
    },
    /// [`CombinedPm`]: PM with clock modulation for deep caps.
    CombinedPm {
        /// Power limit in watts.
        limit_w: f64,
    },
    /// [`PhasePm`]: PM with phase-aware raise decisions.
    PhasePm {
        /// Power limit in watts.
        limit_w: f64,
    },
    /// [`ThrottleSave`]: clock modulation above a performance floor.
    ThrottleSave {
        /// Performance floor as a fraction of peak in (0, 1].
        floor: f64,
    },
    /// [`SloSave`]: energy saver under a p99 sojourn-time SLO (serve
    /// workloads).
    SloSave {
        /// The p99 sojourn-time SLO in milliseconds.
        slo_ms: f64,
    },
    /// [`Watchdog`] wrapped around an inner spec.
    Watchdog {
        /// The wrapped governor's spec.
        inner: Box<GovernorSpec>,
    },
    /// [`ThermalGuard`] wrapped around an inner spec.
    ThermalGuard {
        /// The wrapped governor's spec.
        inner: Box<GovernorSpec>,
    },
    /// [`Adaptive`] online model refit wrapped around an inner spec.
    Adaptive {
        /// RLS forgetting factor in (0, 1].
        forgetting: f64,
        /// Accepted samples per p-state between refit pushes (also the
        /// outage threshold).
        window: usize,
        /// Counter basis: 1 = DPC only (paper), 2 = DPC + DCU (Mazzola).
        counters: usize,
        /// The wrapped governor's spec.
        inner: Box<GovernorSpec>,
    },
}

/// One registry row: spec kind, JSON parameters, and what it builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryEntry {
    /// The `"kind"` discriminator in the JSON form.
    pub kind: &'static str,
    /// The other JSON keys the kind takes.
    pub params: &'static str,
    /// One-line description of the governor built.
    pub description: &'static str,
}

/// Every kind the registry can build, for `--list-governors` and docs.
pub const REGISTRY: &[RegistryEntry] = &[
    RegistryEntry {
        kind: "unconstrained",
        params: "",
        description: "always the highest p-state (performance baseline)",
    },
    RegistryEntry {
        kind: "static-clock",
        params: "pstate",
        description: "pinned to one p-state (worst-case static clocking)",
    },
    RegistryEntry {
        kind: "dbs",
        params: "target_utilization",
        description: "demand-based switching toward a utilization setpoint",
    },
    RegistryEntry {
        kind: "pm",
        params: "limit_w",
        description: "performance maximizer under a power limit (paper PM)",
    },
    RegistryEntry {
        kind: "ps",
        params: "floor",
        description: "power saver above a performance floor (paper PS)",
    },
    RegistryEntry {
        kind: "feedback-pm",
        params: "limit_w",
        description: "PM with measured-power feedback correction",
    },
    RegistryEntry {
        kind: "combined-pm",
        params: "limit_w",
        description: "PM plus clock modulation for deep power caps",
    },
    RegistryEntry {
        kind: "phase-pm",
        params: "limit_w",
        description: "PM with phase-change-triggered immediate raises",
    },
    RegistryEntry {
        kind: "throttle-save",
        params: "floor",
        description: "clock-modulation-only power saver above a floor",
    },
    RegistryEntry {
        kind: "slo-save",
        params: "slo_ms",
        description: "energy saver under a p99 sojourn-time SLO (serve workloads)",
    },
    RegistryEntry {
        kind: "watchdog",
        params: "inner",
        description: "telemetry-blackout watchdog wrapped around an inner spec",
    },
    RegistryEntry {
        kind: "thermal-guard",
        params: "inner",
        description: "die-temperature envelope wrapped around an inner spec",
    },
    RegistryEntry {
        kind: "adaptive",
        params: "forgetting, window, counters, inner",
        description: "online RLS refit of the power model around an inner spec",
    },
];

impl GovernorSpec {
    /// The `"kind"` discriminator of this spec's JSON form.
    pub fn kind(&self) -> &'static str {
        match self {
            GovernorSpec::Unconstrained => "unconstrained",
            GovernorSpec::StaticClock { .. } => "static-clock",
            GovernorSpec::Dbs { .. } => "dbs",
            GovernorSpec::Pm { .. } => "pm",
            GovernorSpec::Ps { .. } => "ps",
            GovernorSpec::FeedbackPm { .. } => "feedback-pm",
            GovernorSpec::CombinedPm { .. } => "combined-pm",
            GovernorSpec::PhasePm { .. } => "phase-pm",
            GovernorSpec::ThrottleSave { .. } => "throttle-save",
            GovernorSpec::SloSave { .. } => "slo-save",
            GovernorSpec::Watchdog { .. } => "watchdog",
            GovernorSpec::ThermalGuard { .. } => "thermal-guard",
            GovernorSpec::Adaptive { .. } => "adaptive",
        }
    }

    /// The report name the built governor will carry (`"pm"`,
    /// `"watchdog<pm>"`, …) without building it.
    pub fn governor_name(&self) -> String {
        match self {
            GovernorSpec::Unconstrained => "unconstrained".to_owned(),
            GovernorSpec::StaticClock { pstate } => format!("static-p{pstate}"),
            GovernorSpec::Dbs { .. } => "dbs".to_owned(),
            GovernorSpec::Pm { .. } => "pm".to_owned(),
            GovernorSpec::Ps { .. } => "ps".to_owned(),
            GovernorSpec::FeedbackPm { .. } => "pm-feedback".to_owned(),
            GovernorSpec::CombinedPm { .. } => "pm-combined".to_owned(),
            GovernorSpec::PhasePm { .. } => "pm-phase".to_owned(),
            GovernorSpec::ThrottleSave { .. } => "throttle-save".to_owned(),
            GovernorSpec::SloSave { .. } => "slo-save".to_owned(),
            GovernorSpec::Watchdog { inner } => format!("watchdog<{}>", inner.governor_name()),
            GovernorSpec::ThermalGuard { inner } => format!("thermal<{}>", inner.governor_name()),
            GovernorSpec::Adaptive { inner, .. } => format!("adaptive<{}>", inner.governor_name()),
        }
    }

    /// Builds the governor stack this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation ([`PowerLimit::new`],
    /// [`PerformanceFloor::new`], [`DemandBasedSwitching::with_target`]).
    pub fn build(&self, models: &SpecModels) -> Result<Box<dyn Governor>> {
        Ok(match self {
            GovernorSpec::Unconstrained => Box::new(Unconstrained::new()),
            GovernorSpec::StaticClock { pstate } => {
                Box::new(StaticClock::new(PStateId::new(*pstate)))
            }
            GovernorSpec::Dbs { target_utilization } => {
                Box::new(DemandBasedSwitching::with_target(*target_utilization)?)
            }
            GovernorSpec::Pm { limit_w } => Box::new(PerformanceMaximizer::new(
                models.power.clone(),
                PowerLimit::new(*limit_w)?,
            )),
            GovernorSpec::Ps { floor } => {
                Box::new(PowerSave::new(models.perf, PerformanceFloor::new(*floor)?))
            }
            GovernorSpec::FeedbackPm { limit_w } => {
                Box::new(FeedbackPm::new(models.power.clone(), PowerLimit::new(*limit_w)?))
            }
            GovernorSpec::CombinedPm { limit_w } => {
                Box::new(CombinedPm::new(models.power.clone(), PowerLimit::new(*limit_w)?))
            }
            GovernorSpec::PhasePm { limit_w } => {
                Box::new(PhasePm::new(models.power.clone(), PowerLimit::new(*limit_w)?))
            }
            GovernorSpec::ThrottleSave { floor } => {
                Box::new(ThrottleSave::new(PerformanceFloor::new(*floor)?))
            }
            GovernorSpec::SloSave { slo_ms } => {
                Box::new(SloSave::new(Seconds::from_millis(*slo_ms))?)
            }
            GovernorSpec::Watchdog { inner } => {
                Box::new(Watchdog::new(BoxedGovernor(inner.build(models)?)))
            }
            GovernorSpec::ThermalGuard { inner } => {
                Box::new(ThermalGuard::new(BoxedGovernor(inner.build(models)?)))
            }
            GovernorSpec::Adaptive { forgetting, window, counters, inner } => {
                let multi_counter = match counters {
                    1 => false,
                    2 => true,
                    other => {
                        return Err(invalid(format!(
                            "adaptive \"counters\" must be 1 or 2, got {other}"
                        )))
                    }
                };
                let config = AdaptiveConfig { forgetting: *forgetting, window: *window, multi_counter };
                Box::new(Adaptive::with_config(
                    BoxedGovernor(inner.build(models)?),
                    models.power.clone(),
                    config,
                )?)
            }
        })
    }

    /// Renders the spec as one line of JSON with a fixed key order
    /// (`"kind"` first), so equal specs render identically.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(48);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"kind\":\"{}\"", self.kind());
        match self {
            GovernorSpec::Unconstrained => {}
            GovernorSpec::StaticClock { pstate } => {
                let _ = write!(out, ",\"pstate\":{pstate}");
            }
            GovernorSpec::Dbs { target_utilization } => {
                let _ = write!(out, ",\"target_utilization\":{target_utilization}");
            }
            GovernorSpec::Pm { limit_w }
            | GovernorSpec::FeedbackPm { limit_w }
            | GovernorSpec::CombinedPm { limit_w }
            | GovernorSpec::PhasePm { limit_w } => {
                let _ = write!(out, ",\"limit_w\":{limit_w}");
            }
            GovernorSpec::Ps { floor } | GovernorSpec::ThrottleSave { floor } => {
                let _ = write!(out, ",\"floor\":{floor}");
            }
            GovernorSpec::SloSave { slo_ms } => {
                let _ = write!(out, ",\"slo_ms\":{slo_ms}");
            }
            GovernorSpec::Watchdog { inner } | GovernorSpec::ThermalGuard { inner } => {
                out.push_str(",\"inner\":");
                inner.write_json(out);
            }
            GovernorSpec::Adaptive { forgetting, window, counters, inner } => {
                let _ = write!(
                    out,
                    ",\"forgetting\":{forgetting},\"window\":{window},\"counters\":{counters}"
                );
                out.push_str(",\"inner\":");
                inner.write_json(out);
            }
        }
        out.push('}');
    }

    /// Parses a spec from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] on malformed JSON
    /// (including duplicate keys and non-finite numbers — see
    /// [`crate::json`]), an unknown `"kind"`, or missing/extra keys.
    pub fn from_json(text: &str) -> Result<Self> {
        let value = crate::json::parse(text).map_err(invalid)?;
        GovernorSpec::from_value(&value)
    }

    /// Parses a spec from an already-parsed [`Json`] value — the hook the
    /// fuzz harness's scenario grammar uses to embed specs in larger
    /// documents.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] on an unknown `"kind"` or
    /// missing/extra keys.
    pub fn from_value(value: &Json) -> Result<Self> {
        let Json::Object(fields) = value else {
            return Err(invalid("governor spec must be a JSON object".to_owned()));
        };
        let kind = match fields.iter().find(|(k, _)| k == "kind") {
            Some((_, Json::String(kind))) => kind.as_str(),
            Some(_) => return Err(invalid("\"kind\" must be a string".to_owned())),
            None => return Err(invalid("governor spec missing \"kind\"".to_owned())),
        };
        let expect_number = |key: &str| -> Result<f64> {
            match fields.iter().find(|(k, _)| k == key) {
                Some((_, Json::Number(v))) => Ok(*v),
                Some(_) => Err(invalid(format!("\"{key}\" must be a number for kind \"{kind}\""))),
                None => Err(invalid(format!("kind \"{kind}\" requires \"{key}\""))),
            }
        };
        let expect_keys = |keys: &[&str]| -> Result<()> {
            for (k, _) in fields {
                if k != "kind" && !keys.contains(&k.as_str()) {
                    return Err(invalid(format!("unexpected key \"{k}\" for kind \"{kind}\"")));
                }
            }
            Ok(())
        };
        let spec = match kind {
            "unconstrained" => {
                expect_keys(&[])?;
                GovernorSpec::Unconstrained
            }
            "static-clock" => {
                expect_keys(&["pstate"])?;
                let raw = expect_number("pstate")?;
                if raw < 0.0 || raw.fract() != 0.0 || !raw.is_finite() {
                    return Err(invalid(format!(
                        "\"pstate\" must be a non-negative integer, got {raw}"
                    )));
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                GovernorSpec::StaticClock { pstate: raw as usize }
            }
            "dbs" => {
                expect_keys(&["target_utilization"])?;
                GovernorSpec::Dbs { target_utilization: expect_number("target_utilization")? }
            }
            "pm" => {
                expect_keys(&["limit_w"])?;
                GovernorSpec::Pm { limit_w: expect_number("limit_w")? }
            }
            "ps" => {
                expect_keys(&["floor"])?;
                GovernorSpec::Ps { floor: expect_number("floor")? }
            }
            "feedback-pm" => {
                expect_keys(&["limit_w"])?;
                GovernorSpec::FeedbackPm { limit_w: expect_number("limit_w")? }
            }
            "combined-pm" => {
                expect_keys(&["limit_w"])?;
                GovernorSpec::CombinedPm { limit_w: expect_number("limit_w")? }
            }
            "phase-pm" => {
                expect_keys(&["limit_w"])?;
                GovernorSpec::PhasePm { limit_w: expect_number("limit_w")? }
            }
            "throttle-save" => {
                expect_keys(&["floor"])?;
                GovernorSpec::ThrottleSave { floor: expect_number("floor")? }
            }
            "slo-save" => {
                expect_keys(&["slo_ms"])?;
                GovernorSpec::SloSave { slo_ms: expect_number("slo_ms")? }
            }
            "watchdog" | "thermal-guard" => {
                expect_keys(&["inner"])?;
                let inner = match fields.iter().find(|(k, _)| k == "inner") {
                    Some((_, value)) => Box::new(GovernorSpec::from_value(value)?),
                    None => {
                        return Err(invalid(format!("kind \"{kind}\" requires \"inner\"")));
                    }
                };
                if kind == "watchdog" {
                    GovernorSpec::Watchdog { inner }
                } else {
                    GovernorSpec::ThermalGuard { inner }
                }
            }
            "adaptive" => {
                expect_keys(&["forgetting", "window", "counters", "inner"])?;
                let expect_integer = |key: &str| -> Result<usize> {
                    let raw = expect_number(key)?;
                    if raw < 0.0 || raw.fract() != 0.0 || !raw.is_finite() {
                        return Err(invalid(format!(
                            "\"{key}\" must be a non-negative integer, got {raw}"
                        )));
                    }
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    Ok(raw as usize)
                };
                let inner = match fields.iter().find(|(k, _)| k == "inner") {
                    Some((_, value)) => Box::new(GovernorSpec::from_value(value)?),
                    None => {
                        return Err(invalid(format!("kind \"{kind}\" requires \"inner\"")));
                    }
                };
                GovernorSpec::Adaptive {
                    forgetting: expect_number("forgetting")?,
                    window: expect_integer("window")?,
                    counters: expect_integer("counters")?,
                    inner,
                }
            }
            other => {
                let known: Vec<&str> = REGISTRY.iter().map(|e| e.kind).collect();
                return Err(invalid(format!(
                    "unknown governor kind \"{other}\" (known: {})",
                    known.join(", ")
                )));
            }
        };
        Ok(spec)
    }
}

fn invalid(reason: String) -> PlatformError {
    PlatformError::InvalidConfig { parameter: "governor_spec", reason }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Vec<GovernorSpec> {
        vec![
            GovernorSpec::Unconstrained,
            GovernorSpec::StaticClock { pstate: 4 },
            GovernorSpec::Dbs { target_utilization: 0.8 },
            GovernorSpec::Pm { limit_w: 12.5 },
            GovernorSpec::Ps { floor: 0.6 },
            GovernorSpec::FeedbackPm { limit_w: 17.5 },
            GovernorSpec::CombinedPm { limit_w: 3.5 },
            GovernorSpec::PhasePm { limit_w: 10.5 },
            GovernorSpec::ThrottleSave { floor: 0.75 },
            GovernorSpec::SloSave { slo_ms: 50.0 },
            GovernorSpec::Watchdog { inner: Box::new(GovernorSpec::Pm { limit_w: 12.5 }) },
            GovernorSpec::Watchdog { inner: Box::new(GovernorSpec::SloSave { slo_ms: 80.0 }) },
            GovernorSpec::ThermalGuard {
                inner: Box::new(GovernorSpec::Watchdog {
                    inner: Box::new(GovernorSpec::Ps { floor: 0.8 }),
                }),
            },
            GovernorSpec::Adaptive {
                forgetting: 0.98,
                window: 50,
                counters: 1,
                inner: Box::new(GovernorSpec::Pm { limit_w: 13.5 }),
            },
            GovernorSpec::Watchdog {
                inner: Box::new(GovernorSpec::Adaptive {
                    forgetting: 0.95,
                    window: 40,
                    counters: 2,
                    inner: Box::new(GovernorSpec::FeedbackPm { limit_w: 12.5 }),
                }),
            },
        ]
    }

    /// JSON → spec → JSON is an identity, including nested wrappers.
    #[test]
    fn json_round_trip_is_identity() {
        for spec in every_kind() {
            let json = spec.to_json();
            let parsed = GovernorSpec::from_json(&json).unwrap();
            assert_eq!(parsed, spec, "{json}");
            assert_eq!(parsed.to_json(), json, "second render must match the first");
        }
    }

    /// Every registry kind builds, and the built governor's report name
    /// matches the spec's predicted name.
    #[test]
    fn every_kind_builds_with_matching_name() {
        let models = SpecModels::default();
        for spec in every_kind() {
            let governor = spec.build(&models).unwrap();
            assert_eq!(governor.name(), spec.governor_name(), "{}", spec.to_json());
        }
        let kinds: Vec<&str> = every_kind().iter().map(GovernorSpec::kind).collect();
        for entry in REGISTRY {
            assert!(kinds.contains(&entry.kind), "untested registry kind {}", entry.kind);
        }
    }

    #[test]
    fn whitespace_and_key_order_are_tolerated() {
        let spec = GovernorSpec::from_json(
            " { \"limit_w\" : 14.5 ,\n\t\"kind\" : \"pm\" } ",
        )
        .unwrap();
        assert_eq!(spec, GovernorSpec::Pm { limit_w: 14.5 });
    }

    #[test]
    fn nested_wrapper_round_trips_through_build() {
        let json = r#"{"kind":"watchdog","inner":{"kind":"thermal-guard","inner":{"kind":"pm","limit_w":12.5}}}"#;
        let spec = GovernorSpec::from_json(json).unwrap();
        assert_eq!(spec.to_json(), json);
        let governor = spec.build(&SpecModels::default()).unwrap();
        assert_eq!(governor.name(), "watchdog<thermal<pm>>");
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "",
            "[]",
            "{\"kind\":\"pm\"}",                          // missing limit_w
            "{\"kind\":\"pm\",\"limit_w\":\"x\"}",        // wrong type
            "{\"kind\":\"pm\",\"limit_w\":1,\"z\":2}",    // extra key
            "{\"kind\":\"nope\"}",                        // unknown kind
            "{\"kind\":\"watchdog\"}",                    // missing inner
            "{\"kind\":\"static-clock\",\"pstate\":1.5}", // fractional index
            "{\"kind\":\"pm\",\"limit_w\":1} trailing",
            "{\"kind\":\"pm\",\"limit_w\":1,\"limit_w\":2}", // duplicate key
        ] {
            assert!(GovernorSpec::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// A numeric literal that overflows f64 (the JSON spelling of ±inf)
    /// must be rejected with an error that names the problem; NaN has no
    /// JSON spelling and the keyword forms must not parse either.
    #[test]
    fn non_finite_numerics_are_rejected_with_explicit_errors() {
        for bad in [
            "{\"kind\":\"pm\",\"limit_w\":1e999}",
            "{\"kind\":\"pm\",\"limit_w\":-1e999}",
            "{\"kind\":\"dbs\",\"target_utilization\":2e308}",
        ] {
            let err = GovernorSpec::from_json(bad).unwrap_err();
            assert!(
                err.to_string().contains("non-finite number"),
                "{bad:?} must be rejected as non-finite, got: {err}"
            );
        }
        for bad in [
            "{\"kind\":\"pm\",\"limit_w\":NaN}",
            "{\"kind\":\"pm\",\"limit_w\":inf}",
            "{\"kind\":\"pm\",\"limit_w\":-Infinity}",
        ] {
            assert!(GovernorSpec::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Duplicate keys are rejected (not last-one-wins) and the error names
    /// the offending key, at any nesting depth.
    #[test]
    fn duplicate_keys_are_rejected_with_explicit_errors() {
        let err = GovernorSpec::from_json("{\"kind\":\"pm\",\"limit_w\":1,\"limit_w\":2}")
            .unwrap_err();
        assert!(
            err.to_string().contains("duplicate key \"limit_w\""),
            "error must name the duplicated key, got: {err}"
        );
        let nested = "{\"kind\":\"watchdog\",\"inner\":{\"kind\":\"ps\",\"floor\":0.8,\"floor\":0.9}}";
        let err = GovernorSpec::from_json(nested).unwrap_err();
        assert!(err.to_string().contains("duplicate key \"floor\""), "got: {err}");
    }

    /// Invalid parameter values surface at build time via the constructors'
    /// own validation.
    #[test]
    fn build_propagates_parameter_validation() {
        let models = SpecModels::default();
        assert!(GovernorSpec::Pm { limit_w: -1.0 }.build(&models).is_err());
        assert!(GovernorSpec::Ps { floor: 1.5 }.build(&models).is_err());
        assert!(GovernorSpec::Dbs { target_utilization: 0.0 }.build(&models).is_err());
        let inner = Box::new(GovernorSpec::Pm { limit_w: 13.5 });
        let bad_forgetting = GovernorSpec::Adaptive {
            forgetting: 0.0,
            window: 50,
            counters: 1,
            inner: inner.clone(),
        };
        assert!(bad_forgetting.build(&models).is_err());
        let bad_window =
            GovernorSpec::Adaptive { forgetting: 0.98, window: 0, counters: 1, inner: inner.clone() };
        assert!(bad_window.build(&models).is_err());
        let bad_counters =
            GovernorSpec::Adaptive { forgetting: 0.98, window: 50, counters: 3, inner };
        assert!(bad_counters.build(&models).is_err());
    }

    /// The adaptive kind round-trips with its full parameter set and
    /// composes under and over the other wrappers.
    #[test]
    fn adaptive_spec_round_trips_and_builds() {
        let json = r#"{"kind":"adaptive","forgetting":0.98,"window":50,"counters":2,"inner":{"kind":"pm","limit_w":13.5}}"#;
        let spec = GovernorSpec::from_json(json).unwrap();
        assert_eq!(spec.to_json(), json);
        let governor = spec.build(&SpecModels::default()).unwrap();
        assert_eq!(governor.name(), "adaptive<pm>");
        // Under a watchdog, over a thermal guard.
        let stacked = r#"{"kind":"watchdog","inner":{"kind":"adaptive","forgetting":0.95,"window":30,"counters":1,"inner":{"kind":"thermal-guard","inner":{"kind":"pm","limit_w":12.5}}}}"#;
        let spec = GovernorSpec::from_json(stacked).unwrap();
        assert_eq!(spec.to_json(), stacked);
        let governor = spec.build(&SpecModels::default()).unwrap();
        assert_eq!(governor.name(), "watchdog<adaptive<thermal<pm>>>");
        // Malformed adaptive parameters are rejected at parse time.
        for bad in [
            r#"{"kind":"adaptive","forgetting":0.98,"window":50,"counters":1}"#,
            r#"{"kind":"adaptive","forgetting":0.98,"window":1.5,"counters":1,"inner":{"kind":"pm","limit_w":13.5}}"#,
            r#"{"kind":"adaptive","forgetting":0.98,"window":50,"counters":-1,"inner":{"kind":"pm","limit_w":13.5}}"#,
            r#"{"kind":"adaptive","window":50,"counters":1,"inner":{"kind":"pm","limit_w":13.5}}"#,
        ] {
            assert!(GovernorSpec::from_json(bad).is_err(), "accepted {bad}");
        }
    }
}
