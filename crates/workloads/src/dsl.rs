//! A small text format for defining workloads without recompiling.
//!
//! Downstream users of the reproduction (and `aapm-sim --workload-file`)
//! can describe phase programs in a line-based format:
//!
//! ```text
//! # comments start with '#'
//! name = my-workload
//! repeat = 2                      # repeat the phase list (default 1)
//!
//! [phase warmup]
//! seconds_at_2ghz = 0.5           # or: instructions = 1000000000
//! core_cpi = 0.8
//! decode_ratio = 1.2
//! mem_fraction = 0.4
//! l1_mpi = 0.03
//! l2_mpi = 0.004
//! overlap = 0.3
//!
//! [phase hot]
//! instructions = 2000000000
//! core_cpi = 0.5
//! activity = 1.25
//! ```
//!
//! Every phase key except the budget (`instructions` or `seconds_at_2ghz`)
//! is optional and falls back to the [`PhaseDescriptor`] builder defaults.
//! Parsing validates through the same builder as programmatic construction,
//! so a file can never express an invalid phase.

use std::error::Error as StdError;
use std::fmt;

use aapm_platform::phase::{PhaseDescriptor, PhaseDescriptorBuilder};
use aapm_platform::pipeline::{evaluate, MemoryTimings};
use aapm_platform::program::PhaseProgram;
use aapm_platform::pstate::PStateTable;

/// A parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct DslError {
    /// 1-based line the error was detected on (0 for file-level errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl DslError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        DslError { line, message: message.into() }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "workload file: {}", self.message)
        } else {
            write!(f, "workload file line {}: {}", self.line, self.message)
        }
    }
}

impl StdError for DslError {}

/// One phase under construction.
struct PendingPhase {
    name: String,
    line: usize,
    builder: PhaseDescriptorBuilder,
    instructions: Option<u64>,
    seconds_at_2ghz: Option<f64>,
}

impl PendingPhase {
    fn new(name: &str, line: usize) -> Self {
        PendingPhase {
            name: name.to_owned(),
            line,
            builder: PhaseDescriptor::builder(name),
            instructions: None,
            seconds_at_2ghz: None,
        }
    }

    fn finish(mut self) -> Result<PhaseDescriptor, DslError> {
        let budget = match (self.instructions, self.seconds_at_2ghz) {
            (Some(_), Some(_)) => {
                return Err(DslError::at(
                    self.line,
                    format!(
                        "phase `{}` sets both `instructions` and `seconds_at_2ghz`; pick one",
                        self.name
                    ),
                ))
            }
            (Some(instructions), None) => instructions,
            (None, Some(seconds)) => {
                // Convert wall-clock at the top p-state to an instruction
                // budget using the analytic model, exactly as the built-in
                // SPEC suite does.
                let proto = self
                    .builder
                    .instructions(1)
                    .build()
                    .map_err(|e| DslError::at(self.line, e.to_string()))?;
                let table = PStateTable::pentium_m_755();
                let top = table.get(table.highest()).expect("table non-empty");
                let ips = evaluate(&proto, top, &MemoryTimings::pentium_m_755())
                    .instructions_per_second;
                (ips * seconds).round().max(1.0) as u64
            }
            (None, None) => {
                return Err(DslError::at(
                    self.line,
                    format!(
                        "phase `{}` needs `instructions` or `seconds_at_2ghz`",
                        self.name
                    ),
                ))
            }
        };
        self.builder
            .instructions(budget)
            .build()
            .map_err(|e| DslError::at(self.line, e.to_string()))
    }

    fn set(&mut self, key: &str, value: &str, line: usize) -> Result<(), DslError> {
        let float = |v: &str| {
            v.parse::<f64>()
                .map_err(|e| DslError::at(line, format!("`{key}`: {e}")))
        };
        match key {
            "instructions" => {
                let parsed = value
                    .parse::<f64>()
                    .map_err(|e| DslError::at(line, format!("`instructions`: {e}")))?;
                if !(parsed.is_finite() && parsed >= 1.0) {
                    return Err(DslError::at(line, "`instructions` must be >= 1"));
                }
                self.instructions = Some(parsed as u64);
            }
            "seconds_at_2ghz" => self.seconds_at_2ghz = Some(float(value)?),
            "core_cpi" => {
                self.builder.core_cpi(float(value)?);
            }
            "decode_ratio" => {
                self.builder.decode_ratio(float(value)?);
            }
            "fp_fraction" => {
                self.builder.fp_fraction(float(value)?);
            }
            "mem_fraction" => {
                self.builder.mem_fraction(float(value)?);
            }
            "l1_mpi" => {
                self.builder.l1_mpi(float(value)?);
            }
            "l2_mpi" => {
                self.builder.l2_mpi(float(value)?);
            }
            "overlap" => {
                self.builder.overlap(float(value)?);
            }
            "activity" => {
                self.builder.activity(float(value)?);
            }
            "branch_fraction" => {
                self.builder.branch_fraction(float(value)?);
            }
            "mispredict_rate" => {
                self.builder.mispredict_rate(float(value)?);
            }
            "prefetch_per_inst" => {
                self.builder.prefetch_per_inst(float(value)?);
            }
            other => {
                return Err(DslError::at(line, format!("unknown phase key `{other}`")))
            }
        }
        Ok(())
    }
}

/// Parses a workload definition into a [`PhaseProgram`].
///
/// # Errors
///
/// Returns a [`DslError`] with the offending line for syntax errors,
/// unknown keys, missing budgets, or phase-invariant violations.
///
/// # Examples
///
/// ```
/// use aapm_workloads::dsl::parse_program;
///
/// let program = parse_program(
///     "name = demo\n\
///      [phase only]\n\
///      instructions = 1000\n\
///      core_cpi = 0.9\n",
/// )?;
/// assert_eq!(program.name(), "demo");
/// assert_eq!(program.total_instructions(), 1000);
/// # Ok::<(), aapm_workloads::dsl::DslError>(())
/// ```
pub fn parse_program(text: &str) -> Result<PhaseProgram, DslError> {
    let mut name: Option<String> = None;
    let mut repeat: usize = 1;
    let mut phases: Vec<PhaseDescriptor> = Vec::new();
    let mut pending: Option<PendingPhase> = None;

    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(section) = line.strip_prefix('[') {
            let section = section
                .strip_suffix(']')
                .ok_or_else(|| DslError::at(line_no, "unterminated section header"))?
                .trim();
            let phase_name = section
                .strip_prefix("phase")
                .ok_or_else(|| {
                    DslError::at(line_no, format!("unknown section `[{section}]`"))
                })?
                .trim();
            if phase_name.is_empty() {
                return Err(DslError::at(line_no, "phase sections need a name: [phase NAME]"));
            }
            if let Some(done) = pending.take() {
                phases.push(done.finish()?);
            }
            pending = Some(PendingPhase::new(phase_name, line_no));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(DslError::at(line_no, format!("expected `key = value`, got `{line}`")));
        };
        let (key, value) = (key.trim(), value.trim());
        match &mut pending {
            Some(phase) => phase.set(key, value, line_no)?,
            None => match key {
                "name" => name = Some(value.to_owned()),
                "repeat" => {
                    repeat = value
                        .parse::<usize>()
                        .map_err(|e| DslError::at(line_no, format!("`repeat`: {e}")))?;
                    if repeat == 0 {
                        return Err(DslError::at(line_no, "`repeat` must be at least 1"));
                    }
                }
                other => {
                    return Err(DslError::at(
                        line_no,
                        format!("unknown top-level key `{other}` (phases start with [phase NAME])"),
                    ))
                }
            },
        }
    }
    if let Some(done) = pending.take() {
        phases.push(done.finish()?);
    }
    if phases.is_empty() {
        return Err(DslError::at(0, "no phases defined"));
    }
    let name = name.unwrap_or_else(|| "custom-workload".to_owned());
    let program = PhaseProgram::new(name, phases)
        .map_err(|e| DslError::at(0, e.to_string()))?;
    Ok(if repeat > 1 { program.repeated(repeat) } else { program })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = "\
# demo workload
name = demo
repeat = 2

[phase warm]            # comment after header
seconds_at_2ghz = 0.1
core_cpi = 0.8

[phase hot]
instructions = 5000
core_cpi = 0.5
activity = 1.2
";

    #[test]
    fn example_parses() {
        let program = parse_program(EXAMPLE).unwrap();
        assert_eq!(program.name(), "demo");
        assert_eq!(program.len(), 4, "two phases repeated twice");
        assert_eq!(program.phases()[1].instructions(), 5000);
        assert!((program.phases()[1].activity() - 1.2).abs() < 1e-12);
        // seconds_at_2ghz converts via the analytic model: 0.1 s at 2 GHz
        // with CPI 0.8 + default mispredicts ≈ 238 M instructions.
        let warm = &program.phases()[0];
        assert!(warm.instructions() > 200_000_000 && warm.instructions() < 260_000_000);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_program("name = x\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("key = value"));

        let err = parse_program("[phase p]\nnot_a_key = 1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown phase key"));

        let err = parse_program("[phase p]\ncore_cpi = fast\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn missing_budget_is_rejected() {
        let err = parse_program("[phase p]\ncore_cpi = 0.5\n").unwrap_err();
        assert!(err.message.contains("needs `instructions` or `seconds_at_2ghz`"));
    }

    #[test]
    fn both_budgets_rejected() {
        let err =
            parse_program("[phase p]\ninstructions = 10\nseconds_at_2ghz = 1\n").unwrap_err();
        assert!(err.message.contains("pick one"));
    }

    #[test]
    fn invalid_phase_parameters_surface_builder_errors() {
        let err = parse_program("[phase p]\ninstructions = 10\ndecode_ratio = 0.5\n")
            .unwrap_err();
        assert!(err.message.contains("decode ratio"), "{}", err.message);
    }

    #[test]
    fn empty_file_is_an_error() {
        let err = parse_program("name = empty\n").unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.message.contains("no phases"));
    }

    #[test]
    fn unknown_sections_and_top_level_keys_rejected() {
        assert!(parse_program("[stage x]\n").is_err());
        assert!(parse_program("colour = blue\n").is_err());
        assert!(parse_program("repeat = 0\n[phase p]\ninstructions = 1\n").is_err());
    }
}
