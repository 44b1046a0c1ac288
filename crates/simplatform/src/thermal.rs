//! Die-temperature model.
//!
//! The paper frames DVFS control as a response to *power and thermal*
//! constraints ("programmable power and thermal envelopes", "partial
//! supply/cooling failures"). The platform therefore carries a
//! first-order RC thermal model of the die + heatsink path:
//!
//! ```text
//! τ · dT/dt = P · R_th − (T − T_ambient)
//! ```
//!
//! integrated per simulation step. A steady power `P` settles at
//! `T_ambient + P · R_th`; transients decay with time constant `τ`.
//! The thermally-guarded governor in `aapm` uses this through a quantized
//! on-die sensor in `aapm-telemetry`.

use std::fmt;

use crate::units::{Seconds, Watts};

/// A temperature in degrees Celsius.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(f64);

impl Celsius {
    /// Creates a temperature.
    ///
    /// # Panics
    ///
    /// Panics if `degrees` is not finite.
    pub fn new(degrees: f64) -> Self {
        assert!(degrees.is_finite(), "temperature must be finite");
        Celsius(degrees)
    }

    /// The temperature in degrees Celsius.
    pub fn degrees(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} °C", self.0)
    }
}

/// Physical parameters of the die → heatsink → ambient path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Ambient (heatsink inlet) temperature.
    pub ambient: Celsius,
    /// Junction-to-ambient thermal resistance in °C per watt.
    pub resistance_c_per_w: f64,
    /// Thermal time constant of the package.
    pub time_constant: Seconds,
}

impl ThermalParams {
    /// A mobile package in the Pentium M class: 35 °C ambient inside the
    /// chassis, ≈2.8 °C/W junction-to-ambient, a ~4 s package time
    /// constant. Sustained 17.8 W (the FMA worst case) settles near 85 °C,
    /// just under the part's 100 °C junction limit.
    pub fn pentium_m_mobile() -> Self {
        ThermalParams {
            ambient: Celsius::new(35.0),
            resistance_c_per_w: 2.8,
            time_constant: Seconds::new(4.0),
        }
    }
}

impl Default for ThermalParams {
    fn default() -> Self {
        ThermalParams::pentium_m_mobile()
    }
}

/// The integrating RC thermal model.
///
/// # Examples
///
/// ```
/// use aapm_platform::thermal::{ThermalModel, ThermalParams};
/// use aapm_platform::units::{Seconds, Watts};
///
/// let mut model = ThermalModel::new(ThermalParams::pentium_m_mobile());
/// // A long stretch at 10 W settles near 35 + 10·2.8 = 63 °C.
/// for _ in 0..10_000 {
///     model.advance(Watts::new(10.0), Seconds::from_millis(10.0));
/// }
/// assert!((model.temperature().degrees() - 63.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    params: ThermalParams,
    temperature: Celsius,
}

impl ThermalModel {
    /// Creates a model settled at ambient temperature.
    pub fn new(params: ThermalParams) -> Self {
        ThermalModel { params, temperature: params.ambient }
    }

    /// The model parameters.
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// Current die temperature.
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// The temperature a sustained power level would settle at.
    pub fn steady_state(&self, power: Watts) -> Celsius {
        Celsius::new(self.params.ambient.degrees() + power.watts() * self.params.resistance_c_per_w)
    }

    /// Integrates `dt` of dissipation at `power` (exact exponential step,
    /// stable for any `dt`).
    pub fn advance(&mut self, power: Watts, dt: Seconds) {
        let target = self.steady_state(power).degrees();
        let decay = (-dt.seconds() / self.params.time_constant.seconds()).exp();
        let now = target + (self.temperature.degrees() - target) * decay;
        self.temperature = Celsius::new(now);
    }

    /// Resets the die to ambient (e.g. after a long idle).
    pub fn reset(&mut self) {
        self.temperature = self.params.ambient;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ThermalModel {
        ThermalModel::new(ThermalParams::pentium_m_mobile())
    }

    #[test]
    fn starts_at_ambient() {
        assert_eq!(model().temperature(), Celsius::new(35.0));
    }

    #[test]
    fn converges_to_steady_state() {
        let mut m = model();
        for _ in 0..20_000 {
            m.advance(Watts::new(17.8), Seconds::from_millis(10.0));
        }
        let expected = 35.0 + 17.8 * 2.8;
        assert!((m.temperature().degrees() - expected).abs() < 0.1);
    }

    #[test]
    fn transient_follows_time_constant() {
        let mut m = model();
        // One time constant of heating covers 1 − 1/e ≈ 63.2% of the step.
        m.advance(Watts::new(10.0), Seconds::new(4.0));
        let target = 63.0;
        let expected = target - (target - 35.0) * (-1.0f64).exp();
        assert!((m.temperature().degrees() - expected).abs() < 0.01);
    }

    #[test]
    fn cooling_works_symmetrically() {
        let mut m = model();
        for _ in 0..5_000 {
            m.advance(Watts::new(18.0), Seconds::from_millis(10.0));
        }
        let hot = m.temperature();
        for _ in 0..5_000 {
            m.advance(Watts::ZERO, Seconds::from_millis(10.0));
        }
        assert!(m.temperature() < hot);
        assert!((m.temperature().degrees() - 35.0).abs() < 1.0);
    }

    #[test]
    fn exponential_step_is_timestep_invariant() {
        // One 1 s step equals one hundred 10 ms steps.
        let mut coarse = model();
        coarse.advance(Watts::new(12.0), Seconds::new(1.0));
        let mut fine = model();
        for _ in 0..100 {
            fine.advance(Watts::new(12.0), Seconds::from_millis(10.0));
        }
        assert!((coarse.temperature().degrees() - fine.temperature().degrees()).abs() < 1e-9);
    }

    #[test]
    fn reset_returns_to_ambient() {
        let mut m = model();
        m.advance(Watts::new(18.0), Seconds::new(10.0));
        m.reset();
        assert_eq!(m.temperature(), Celsius::new(35.0));
    }
}
