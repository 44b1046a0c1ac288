//! The serializable adversarial scenario: spec + program + faults +
//! commands, with a hand-rolled JSON codec over [`aapm::json`].
//!
//! A [`Scenario`] is everything needed to reproduce one adversarial
//! session bit-for-bit: the governor stack (as a [`GovernorSpec`]), the
//! phase program (as explicit segment parameters, not a workload name, so
//! fixtures survive suite changes), the fault plan (stochastic rates plus
//! scheduled windows), the scheduled command stream, and the oracle
//! thresholds its verdict is judged against. The JSON form is the corpus
//! fixture format documented in `corpus/README.md`; the round-trip
//! `to_json` → `from_json` → `to_json` is an identity.

use aapm::json::{self, Json};
use aapm::runtime::ScheduledCommand;
use aapm::spec::GovernorSpec;
use aapm::GovernorCommand;
use aapm::limits::{PerformanceFloor, PowerLimit};
use aapm_platform::error::{PlatformError, Result};
use aapm_platform::phase::PhaseDescriptor;
use aapm_platform::program::PhaseProgram;
use aapm_platform::units::Seconds;
use aapm_telemetry::faults::{FaultConfig, FaultKind, FaultWindow};

/// One program segment, as raw phase parameters (the 12 knobs of
/// [`PhaseDescriptor`] plus the instruction budget).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSpec {
    /// Segment name (reports and error messages only).
    pub name: String,
    /// Instruction budget.
    pub instructions: u64,
    /// Core cycles per instruction, memory aside.
    pub core_cpi: f64,
    /// Decoded-per-retired instruction ratio (≥ 1).
    pub decode_ratio: f64,
    /// Floating-point fraction of the mix.
    pub fp_fraction: f64,
    /// Memory-access fraction of the mix.
    pub mem_fraction: f64,
    /// L1 misses per instruction (≤ `mem_fraction`).
    pub l1_mpi: f64,
    /// L2 misses per instruction (≤ `l1_mpi` + prefetches).
    pub l2_mpi: f64,
    /// Memory/compute overlap in [0, 1).
    pub overlap: f64,
    /// Switching-activity factor.
    pub activity: f64,
    /// Branch fraction of the mix.
    pub branch_fraction: f64,
    /// Branch mispredict rate.
    pub mispredict_rate: f64,
    /// Hardware prefetches per instruction.
    pub prefetch_per_inst: f64,
}

impl SegmentSpec {
    /// Builds the platform phase, re-running all phase validation.
    ///
    /// # Errors
    ///
    /// Propagates [`PhaseDescriptor`] builder validation.
    pub fn build(&self) -> Result<PhaseDescriptor> {
        PhaseDescriptor::builder(self.name.clone())
            .instructions(self.instructions)
            .core_cpi(self.core_cpi)
            .decode_ratio(self.decode_ratio)
            .fp_fraction(self.fp_fraction)
            .mem_fraction(self.mem_fraction)
            .l1_mpi(self.l1_mpi)
            .l2_mpi(self.l2_mpi)
            .overlap(self.overlap)
            .activity(self.activity)
            .branch_fraction(self.branch_fraction)
            .mispredict_rate(self.mispredict_rate)
            .prefetch_per_inst(self.prefetch_per_inst)
            .build()
    }
}

/// A serializable phase program: named segment list.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// Program name.
    pub name: String,
    /// The segments, run back to back.
    pub segments: Vec<SegmentSpec>,
}

impl ProgramSpec {
    /// Builds the platform program.
    ///
    /// # Errors
    ///
    /// Propagates segment validation; an empty segment list is rejected by
    /// [`PhaseProgram::new`].
    pub fn build(&self) -> Result<PhaseProgram> {
        let phases: Result<Vec<PhaseDescriptor>> =
            self.segments.iter().map(SegmentSpec::build).collect();
        PhaseProgram::new(self.name.clone(), phases?)
    }
}

/// A scheduled outage window in the serializable form.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    /// What fails (serialized via [`FaultKind::as_str`]).
    pub kind: FaultKind,
    /// Start of the outage in simulated seconds (inclusive).
    pub start: f64,
    /// End of the outage in simulated seconds (exclusive).
    pub end: f64,
}

impl WindowSpec {
    /// The platform fault window.
    pub fn window(&self) -> FaultWindow {
        FaultWindow {
            start: Seconds::new(self.start),
            end: Seconds::new(self.end),
            kind: self.kind,
        }
    }
}

/// The fault plan: stochastic rates plus scheduled windows.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Stochastic rates, the plan seed, and the stall/retry knobs.
    pub config: FaultConfig,
    /// Scheduled outage windows.
    pub windows: Vec<WindowSpec>,
}

impl FaultSpec {
    /// A fault-free plan.
    pub fn inert() -> FaultSpec {
        FaultSpec { config: FaultConfig::default(), windows: Vec::new() }
    }

    /// The platform fault windows.
    pub fn fault_windows(&self) -> Vec<FaultWindow> {
        self.windows.iter().map(WindowSpec::window).collect()
    }
}

/// Which governor knob a scheduled command sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// [`GovernorCommand::SetPowerLimit`].
    PowerLimit,
    /// [`GovernorCommand::SetPerformanceFloor`].
    PerformanceFloor,
}

impl CommandKind {
    /// The stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            CommandKind::PowerLimit => "power-limit",
            CommandKind::PerformanceFloor => "performance-floor",
        }
    }

    /// Parses a serialized name; `None` for unknown names.
    pub fn from_name(name: &str) -> Option<CommandKind> {
        match name {
            "power-limit" => Some(CommandKind::PowerLimit),
            "performance-floor" => Some(CommandKind::PerformanceFloor),
            _ => None,
        }
    }
}

/// One scheduled command in the serializable form.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandSpec {
    /// Delivery time in simulated seconds.
    pub at: f64,
    /// Which knob is set.
    pub set: CommandKind,
    /// The new value (watts for limits, fraction for floors).
    pub value: f64,
}

impl CommandSpec {
    /// The runtime command.
    ///
    /// # Errors
    ///
    /// Propagates [`PowerLimit::new`] / [`PerformanceFloor::new`]
    /// validation.
    pub fn command(&self) -> Result<ScheduledCommand> {
        let command = match self.set {
            CommandKind::PowerLimit => {
                GovernorCommand::SetPowerLimit(PowerLimit::new(self.value)?)
            }
            CommandKind::PerformanceFloor => {
                GovernorCommand::SetPerformanceFloor(PerformanceFloor::new(self.value)?)
            }
        };
        Ok(ScheduledCommand { at: Seconds::new(self.at), command })
    }
}

/// Oracle thresholds a scenario's verdict is judged against. Committing
/// the thresholds with the scenario makes each fixture self-contained:
/// the replay runner needs no out-of-band expectations.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleParams {
    /// Maximum tolerated cap-violation fraction (paper metric: fraction of
    /// 100 ms windows whose mean measured power exceeds the active limit).
    /// `0.0` demands strict adherence; the galgel-style fixture records a
    /// deliberate failure against `0.0`.
    pub max_cap_violation: f64,
    /// Slack added to the floor's allowed performance reduction before the
    /// floor property fails (absorbs eq.-3 model error, paper §5.2).
    pub floor_tolerance: f64,
    /// Extra intervals (beyond the watchdog's loss threshold) the liveness
    /// property allows before the safe p-state must appear in the trace.
    pub liveness_slack_intervals: usize,
}

impl Default for OracleParams {
    fn default() -> Self {
        OracleParams {
            max_cap_violation: 0.0,
            floor_tolerance: 0.05,
            liveness_slack_intervals: 10,
        }
    }
}

/// A complete adversarial scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (fixture file stem by convention).
    pub name: String,
    /// Machine + simulation seed.
    pub seed: u64,
    /// Safety cap on control intervals.
    pub max_samples: usize,
    /// The governor stack under test.
    pub governor: GovernorSpec,
    /// The phase program.
    pub program: ProgramSpec,
    /// The fault plan.
    pub faults: FaultSpec,
    /// The scheduled command stream.
    pub commands: Vec<CommandSpec>,
    /// Verdict thresholds.
    pub oracles: OracleParams,
}

fn invalid(reason: String) -> PlatformError {
    PlatformError::InvalidConfig { parameter: "scenario", reason }
}

fn write_f64(out: &mut String, value: f64) {
    use std::fmt::Write as _;
    debug_assert!(value.is_finite(), "scenario numbers are finite by construction");
    let _ = write!(out, "{value}");
}

impl Scenario {
    /// Renders the scenario as pretty-printed JSON (the fixture format).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"name\": ");
        json::write_string(&mut out, &self.name);
        let _ = write!(out, ",\n  \"seed\": {},\n  \"max_samples\": {}", self.seed, self.max_samples);
        let _ = write!(out, ",\n  \"governor\": {}", self.governor.to_json());
        out.push_str(",\n  \"oracles\": {\"max_cap_violation\": ");
        write_f64(&mut out, self.oracles.max_cap_violation);
        out.push_str(", \"floor_tolerance\": ");
        write_f64(&mut out, self.oracles.floor_tolerance);
        let _ = write!(
            out,
            ", \"liveness_slack_intervals\": {}}}",
            self.oracles.liveness_slack_intervals
        );
        // Faults: seed + knobs + every stochastic rate, explicitly.
        let config = &self.faults.config;
        let _ = write!(
            out,
            ",\n  \"faults\": {{\"seed\": {}, \"stall_intervals\": {}, \"retry_limit\": {}",
            config.seed, config.stall_intervals, config.retry_limit
        );
        for (name, value) in config.rates() {
            let _ = write!(out, ", \"{name}\": ");
            write_f64(&mut out, value);
        }
        out.push('}');
        out.push_str(",\n  \"windows\": [");
        for (i, window) in self.faults.windows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {{\"kind\": \"{}\", \"start\": ", window.kind.as_str());
            write_f64(&mut out, window.start);
            out.push_str(", \"end\": ");
            write_f64(&mut out, window.end);
            out.push('}');
        }
        out.push_str(if self.faults.windows.is_empty() { "]" } else { "\n  ]" });
        out.push_str(",\n  \"commands\": [");
        for (i, command) in self.commands.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {{\"at\": ");
            write_f64(&mut out, command.at);
            let _ = write!(out, ", \"set\": \"{}\", \"value\": ", command.set.as_str());
            write_f64(&mut out, command.value);
            out.push('}');
        }
        out.push_str(if self.commands.is_empty() { "]" } else { "\n  ]" });
        out.push_str(",\n  \"program\": {\"name\": ");
        json::write_string(&mut out, &self.program.name);
        out.push_str(", \"segments\": [");
        for (i, segment) in self.program.segments.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": ");
            json::write_string(&mut out, &segment.name);
            let _ = write!(out, ", \"instructions\": {}", segment.instructions);
            for (key, value) in [
                ("core_cpi", segment.core_cpi),
                ("decode_ratio", segment.decode_ratio),
                ("fp_fraction", segment.fp_fraction),
                ("mem_fraction", segment.mem_fraction),
                ("l1_mpi", segment.l1_mpi),
                ("l2_mpi", segment.l2_mpi),
                ("overlap", segment.overlap),
                ("activity", segment.activity),
                ("branch_fraction", segment.branch_fraction),
                ("mispredict_rate", segment.mispredict_rate),
                ("prefetch_per_inst", segment.prefetch_per_inst),
            ] {
                let _ = write!(out, ", \"{key}\": ");
                write_f64(&mut out, value);
            }
            out.push('}');
        }
        out.push_str(if self.program.segments.is_empty() { "]}" } else { "\n  ]}" });
        out.push_str("\n}");
        out
    }

    /// Parses a scenario from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidConfig`] on malformed JSON
    /// (duplicate keys and non-finite numbers included), unknown keys or
    /// kind names, or out-of-range values.
    pub fn from_json(text: &str) -> Result<Scenario> {
        let value = json::parse(text).map_err(invalid)?;
        Scenario::from_value(&value)
    }

    /// Parses a scenario from an already-parsed [`Json`] value.
    ///
    /// # Errors
    ///
    /// See [`Scenario::from_json`].
    pub fn from_value(value: &Json) -> Result<Scenario> {
        let fields = value
            .as_object()
            .ok_or_else(|| invalid("scenario must be a JSON object".to_owned()))?;
        for (key, _) in fields {
            if !matches!(
                key.as_str(),
                "name" | "seed" | "max_samples" | "governor" | "oracles" | "faults"
                    | "windows" | "commands" | "program"
            ) {
                return Err(invalid(format!("unexpected scenario key \"{key}\"")));
            }
        }
        let name = expect_string(value, "name", "scenario")?;
        let seed = expect_u64(value, "seed", "scenario")?;
        let max_samples = usize::try_from(expect_u64(value, "max_samples", "scenario")?)
            .map_err(|_| invalid("\"max_samples\" out of range".to_owned()))?;
        let governor = GovernorSpec::from_value(
            value.get("governor").ok_or_else(|| invalid("scenario requires \"governor\"".into()))?,
        )?;
        let oracles = parse_oracles(
            value.get("oracles").ok_or_else(|| invalid("scenario requires \"oracles\"".into()))?,
        )?;
        let config = parse_fault_config(
            value.get("faults").ok_or_else(|| invalid("scenario requires \"faults\"".into()))?,
        )?;
        let windows = parse_windows(
            value.get("windows").ok_or_else(|| invalid("scenario requires \"windows\"".into()))?,
        )?;
        let commands = parse_commands(
            value.get("commands").ok_or_else(|| invalid("scenario requires \"commands\"".into()))?,
        )?;
        let program = parse_program(
            value.get("program").ok_or_else(|| invalid("scenario requires \"program\"".into()))?,
        )?;
        Ok(Scenario {
            name,
            seed,
            max_samples,
            governor,
            program,
            faults: FaultSpec { config, windows },
            commands,
            oracles,
        })
    }
}

fn expect_string(value: &Json, key: &str, context: &str) -> Result<String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| invalid(format!("{context} requires string \"{key}\"")))
}

fn expect_f64(value: &Json, key: &str, context: &str) -> Result<f64> {
    value
        .get(key)
        .and_then(Json::as_number)
        .ok_or_else(|| invalid(format!("{context} requires number \"{key}\"")))
}

fn expect_u64(value: &Json, key: &str, context: &str) -> Result<u64> {
    let raw = expect_f64(value, key, context)?;
    if raw < 0.0 || raw.fract() != 0.0 || raw > 2f64.powi(53) {
        return Err(invalid(format!(
            "\"{key}\" must be a non-negative integer, got {raw}"
        )));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(raw as u64)
}

fn parse_oracles(value: &Json) -> Result<OracleParams> {
    for (key, _) in value
        .as_object()
        .ok_or_else(|| invalid("\"oracles\" must be an object".to_owned()))?
    {
        if !matches!(
            key.as_str(),
            "max_cap_violation" | "floor_tolerance" | "liveness_slack_intervals"
        ) {
            return Err(invalid(format!("unexpected oracle key \"{key}\"")));
        }
    }
    Ok(OracleParams {
        max_cap_violation: expect_f64(value, "max_cap_violation", "oracles")?,
        floor_tolerance: expect_f64(value, "floor_tolerance", "oracles")?,
        liveness_slack_intervals: usize::try_from(expect_u64(
            value,
            "liveness_slack_intervals",
            "oracles",
        )?)
        .map_err(|_| invalid("\"liveness_slack_intervals\" out of range".to_owned()))?,
    })
}

fn parse_fault_config(value: &Json) -> Result<FaultConfig> {
    let fields = value
        .as_object()
        .ok_or_else(|| invalid("\"faults\" must be an object".to_owned()))?;
    let mut config = FaultConfig {
        seed: expect_u64(value, "seed", "faults")?,
        stall_intervals: usize::try_from(expect_u64(value, "stall_intervals", "faults")?)
            .map_err(|_| invalid("\"stall_intervals\" out of range".to_owned()))?,
        retry_limit: usize::try_from(expect_u64(value, "retry_limit", "faults")?)
            .map_err(|_| invalid("\"retry_limit\" out of range".to_owned()))?,
        ..FaultConfig::default()
    };
    for (key, entry) in fields {
        if matches!(key.as_str(), "seed" | "stall_intervals" | "retry_limit") {
            continue;
        }
        let rate = entry
            .as_number()
            .ok_or_else(|| invalid(format!("fault rate \"{key}\" must be a number")))?;
        if !config.set_rate(key, rate) {
            return Err(invalid(format!("unknown fault key \"{key}\"")));
        }
    }
    config.validate()?;
    Ok(config)
}

fn parse_windows(value: &Json) -> Result<Vec<WindowSpec>> {
    let items = value
        .as_array()
        .ok_or_else(|| invalid("\"windows\" must be an array".to_owned()))?;
    items
        .iter()
        .map(|item| {
            for (key, _) in item
                .as_object()
                .ok_or_else(|| invalid("each window must be an object".to_owned()))?
            {
                if !matches!(key.as_str(), "kind" | "start" | "end") {
                    return Err(invalid(format!("unexpected window key \"{key}\"")));
                }
            }
            let kind_name = expect_string(item, "kind", "window")?;
            let kind = FaultKind::from_name(&kind_name).ok_or_else(|| {
                let known: Vec<&str> = FaultKind::ALL.iter().map(|k| k.as_str()).collect();
                invalid(format!(
                    "unknown fault kind \"{kind_name}\" (known: {})",
                    known.join(", ")
                ))
            })?;
            let spec = WindowSpec {
                kind,
                start: expect_f64(item, "start", "window")?,
                end: expect_f64(item, "end", "window")?,
            };
            if spec.start >= spec.end {
                return Err(invalid(format!(
                    "window [{}, {}) must be non-empty",
                    spec.start, spec.end
                )));
            }
            Ok(spec)
        })
        .collect()
}

fn parse_commands(value: &Json) -> Result<Vec<CommandSpec>> {
    let items = value
        .as_array()
        .ok_or_else(|| invalid("\"commands\" must be an array".to_owned()))?;
    items
        .iter()
        .map(|item| {
            for (key, _) in item
                .as_object()
                .ok_or_else(|| invalid("each command must be an object".to_owned()))?
            {
                if !matches!(key.as_str(), "at" | "set" | "value") {
                    return Err(invalid(format!("unexpected command key \"{key}\"")));
                }
            }
            let set_name = expect_string(item, "set", "command")?;
            let set = CommandKind::from_name(&set_name).ok_or_else(|| {
                invalid(format!(
                    "unknown command target \"{set_name}\" \
                     (known: power-limit, performance-floor)"
                ))
            })?;
            let spec = CommandSpec {
                at: expect_f64(item, "at", "command")?,
                set,
                value: expect_f64(item, "value", "command")?,
            };
            // Fail early with a scenario-level message; the runtime would
            // reject these at build time anyway.
            spec.command()?;
            Ok(spec)
        })
        .collect()
}

fn parse_program(value: &Json) -> Result<ProgramSpec> {
    for (key, _) in value
        .as_object()
        .ok_or_else(|| invalid("\"program\" must be an object".to_owned()))?
    {
        if !matches!(key.as_str(), "name" | "segments") {
            return Err(invalid(format!("unexpected program key \"{key}\"")));
        }
    }
    let name = expect_string(value, "name", "program")?;
    let items = value
        .get("segments")
        .and_then(Json::as_array)
        .ok_or_else(|| invalid("program requires array \"segments\"".to_owned()))?;
    let segments: Result<Vec<SegmentSpec>> = items
        .iter()
        .map(|item| {
            for (key, _) in item
                .as_object()
                .ok_or_else(|| invalid("each segment must be an object".to_owned()))?
            {
                if !matches!(
                    key.as_str(),
                    "name" | "instructions" | "core_cpi" | "decode_ratio" | "fp_fraction"
                        | "mem_fraction" | "l1_mpi" | "l2_mpi" | "overlap" | "activity"
                        | "branch_fraction" | "mispredict_rate" | "prefetch_per_inst"
                ) {
                    return Err(invalid(format!("unexpected segment key \"{key}\"")));
                }
            }
            let segment = SegmentSpec {
                name: expect_string(item, "name", "segment")?,
                instructions: expect_u64(item, "instructions", "segment")?,
                core_cpi: expect_f64(item, "core_cpi", "segment")?,
                decode_ratio: expect_f64(item, "decode_ratio", "segment")?,
                fp_fraction: expect_f64(item, "fp_fraction", "segment")?,
                mem_fraction: expect_f64(item, "mem_fraction", "segment")?,
                l1_mpi: expect_f64(item, "l1_mpi", "segment")?,
                l2_mpi: expect_f64(item, "l2_mpi", "segment")?,
                overlap: expect_f64(item, "overlap", "segment")?,
                activity: expect_f64(item, "activity", "segment")?,
                branch_fraction: expect_f64(item, "branch_fraction", "segment")?,
                mispredict_rate: expect_f64(item, "mispredict_rate", "segment")?,
                prefetch_per_inst: expect_f64(item, "prefetch_per_inst", "segment")?,
            };
            // Validate eagerly so corrupted fixtures fail at parse time.
            segment.build()?;
            Ok(segment)
        })
        .collect();
    Ok(ProgramSpec { name, segments: segments? })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenario() -> Scenario {
        Scenario {
            name: "sample".to_owned(),
            seed: 42,
            max_samples: 3000,
            governor: GovernorSpec::Watchdog {
                inner: Box::new(GovernorSpec::Pm { limit_w: 13.5 }),
            },
            program: ProgramSpec {
                name: "two-phase".to_owned(),
                segments: vec![
                    SegmentSpec {
                        name: "burst".to_owned(),
                        instructions: 80_000_000,
                        core_cpi: 0.5,
                        decode_ratio: 1.15,
                        fp_fraction: 0.4,
                        mem_fraction: 0.2,
                        l1_mpi: 0.01,
                        l2_mpi: 0.001,
                        overlap: 0.3,
                        activity: 1.25,
                        branch_fraction: 0.1,
                        mispredict_rate: 0.02,
                        prefetch_per_inst: 0.002,
                    },
                    SegmentSpec {
                        name: "quiet".to_owned(),
                        instructions: 40_000_000,
                        core_cpi: 1.8,
                        decode_ratio: 1.05,
                        fp_fraction: 0.05,
                        mem_fraction: 0.45,
                        l1_mpi: 0.09,
                        l2_mpi: 0.03,
                        overlap: 0.1,
                        activity: 0.8,
                        branch_fraction: 0.15,
                        mispredict_rate: 0.05,
                        prefetch_per_inst: 0.01,
                    },
                ],
            },
            faults: FaultSpec {
                config: FaultConfig {
                    seed: 7,
                    power_dropout_rate: 0.05,
                    ..FaultConfig::default()
                },
                windows: vec![WindowSpec {
                    kind: FaultKind::Blackout,
                    start: 0.5,
                    end: 1.0,
                }],
            },
            commands: vec![CommandSpec { at: 0.8, set: CommandKind::PowerLimit, value: 9.0 }],
            oracles: OracleParams::default(),
        }
    }

    /// JSON → scenario → JSON is an identity, and the parsed scenario is
    /// structurally equal.
    #[test]
    fn json_round_trip_is_identity() {
        let scenario = sample_scenario();
        let rendered = scenario.to_json();
        let parsed = Scenario::from_json(&rendered).unwrap();
        assert_eq!(parsed, scenario);
        assert_eq!(parsed.to_json(), rendered, "second render must match the first");
    }

    /// Empty windows/commands render as empty arrays and round-trip.
    #[test]
    fn minimal_scenario_round_trips() {
        let scenario = Scenario {
            faults: FaultSpec::inert(),
            commands: Vec::new(),
            ..sample_scenario()
        };
        let parsed = Scenario::from_json(&scenario.to_json()).unwrap();
        assert_eq!(parsed, scenario);
    }

    #[test]
    fn builds_platform_objects() {
        let scenario = sample_scenario();
        let program = scenario.program.build().unwrap();
        assert_eq!(program.len(), 2);
        assert_eq!(program.total_instructions(), 120_000_000);
        assert_eq!(scenario.faults.fault_windows().len(), 1);
        let command = scenario.commands[0].command().unwrap();
        assert_eq!(command.at, Seconds::new(0.8));
    }

    #[test]
    fn malformed_scenarios_are_rejected() {
        let good = sample_scenario().to_json();
        for (bad, why) in [
            (good.replace("\"seed\": 42", "\"seed\": -1"), "negative seed"),
            (good.replace("\"kind\": \"blackout\"", "\"kind\": \"gamma\""), "unknown fault kind"),
            (good.replace("\"set\": \"power-limit\"", "\"set\": \"voltage\""), "unknown command"),
            (good.replace("\"core_cpi\": 0.5", "\"core_cpi\": -0.5"), "invalid phase"),
            (good.replace("\"max_samples\": 3000", "\"max_samples\": 3000, \"zzz\": 1"), "extra key"),
            (good.replace("\"start\": 0.5", "\"start\": 2.5"), "empty window"),
            (good.replace("\"value\": 9", "\"value\": -9"), "invalid limit"),
        ] {
            assert!(Scenario::from_json(&bad).is_err(), "accepted scenario with {why}");
        }
    }
}
