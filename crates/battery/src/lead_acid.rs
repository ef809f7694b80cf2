//! Lead-acid battery cabinets.
//!
//! The paper's per-rack DEB units are lead-acid (Facebook Open Compute V1
//! battery cabinet \[2\]). This module layers two chemistry realities on top
//! of [`KibamBattery`]:
//!
//! * a **maximum discharge rate** derived from cell limits — "normally 48 A
//!   for a 2 Ah lead-acid battery cell" (§IV.A), i.e. a 24C rate cap — the
//!   reason vDEB's Algorithm 1 bounds per-rack discharge by `P_ideal`;
//! * **aging accounting** in equivalent full cycles, since "further
//!   increasing the output current … can greatly accelerate the aging of
//!   lead-acid batteries" (§IV.B) is the argument for using super-capacitors
//!   in µDEB instead.

use simkit::time::SimDuration;

use crate::kibam::{KibamBattery, KibamParams};
use crate::model::EnergyStorage;
use crate::units::{Joules, WattHours, Watts};

/// C-rate cap for safe lead-acid discharge: 48 A on a 2 Ah cell = 24C.
const MAX_C_RATE_PER_HOUR: f64 = 24.0;

/// A lead-acid battery pack: KiBaM dynamics + rate cap + aging counters.
///
/// # Example
///
/// ```
/// use battery::lead_acid::LeadAcidBattery;
/// use battery::model::EnergyStorage;
/// use battery::units::Watts;
/// use simkit::time::SimDuration;
///
/// let mut b = LeadAcidBattery::with_autonomy(Watts(5210.0), SimDuration::from_secs(50));
/// b.discharge(Watts(5210.0), SimDuration::from_secs(50));
/// // A full drain is roughly one equivalent cycle.
/// assert!(b.equivalent_cycles() > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeadAcidBattery {
    inner: KibamBattery,
    /// Deepest state-of-charge seen since the last full charge.
    deepest_soc: f64,
    /// Count of deep-discharge excursions (SOC below 20%), an aging proxy.
    deep_discharges: u32,
    was_above_deep: bool,
}

/// SOC below which an excursion counts as a deep discharge.
const DEEP_DISCHARGE_SOC: f64 = 0.2;

impl LeadAcidBattery {
    /// Creates a pack with the given nominal capacity, using lead-acid
    /// KiBaM defaults and the 24C rate cap.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn new(capacity: Joules) -> Self {
        let rate_limit = Watts(WattHours::from(capacity).0 * MAX_C_RATE_PER_HOUR);
        LeadAcidBattery {
            inner: KibamBattery::new(capacity, KibamParams::lead_acid(), rate_limit),
            deepest_soc: 1.0,
            deep_discharges: 0,
            was_above_deep: true,
        }
    }

    /// Sizes the pack to sustain `power` for `duration` from full — the
    /// paper's cabinet spec ("50 seconds under full load").
    pub fn with_autonomy(power: Watts, duration: SimDuration) -> Self {
        let inner = KibamBattery::sized_for(power, duration, KibamParams::lead_acid());
        LeadAcidBattery {
            inner,
            deepest_soc: 1.0,
            deep_discharges: 0,
            was_above_deep: true,
        }
    }

    /// Equivalent full cycles so far (lifetime throughput ÷ capacity).
    pub fn equivalent_cycles(&self) -> f64 {
        self.inner.discharged_total() / self.inner.capacity()
    }

    /// Number of deep-discharge excursions (SOC dipped below 20%).
    pub fn deep_discharges(&self) -> u32 {
        self.deep_discharges
    }

    /// Deepest SOC reached so far.
    pub fn deepest_soc(&self) -> f64 {
        self.deepest_soc
    }

    /// Crude state-of-health estimate in `[0, 1]`: each equivalent cycle
    /// costs 1/1500 of life, each deep discharge an extra 1/500 (typical
    /// VRLA cycle-life figures).
    pub fn health(&self) -> f64 {
        (1.0 - self.equivalent_cycles() / 1500.0 - f64::from(self.deep_discharges) / 500.0)
            .clamp(0.0, 1.0)
    }

    /// Directly sets the SOC (scenario setup).
    ///
    /// # Panics
    ///
    /// Panics if `soc` is outside `[0, 1]`.
    pub fn set_soc(&mut self, soc: f64) {
        self.inner.set_soc(soc);
        self.track_soc();
    }

    /// Lets the battery rest (valve diffusion only, no terminal flow).
    pub fn rest(&mut self, dt: SimDuration) {
        self.inner.rest(dt);
    }

    /// Underlying KiBaM model.
    pub fn kibam(&self) -> &KibamBattery {
        &self.inner
    }

    fn track_soc(&mut self) {
        let soc = self.inner.soc();
        self.deepest_soc = self.deepest_soc.min(soc);
        if soc < DEEP_DISCHARGE_SOC {
            if self.was_above_deep {
                self.deep_discharges += 1;
            }
            self.was_above_deep = false;
        } else if soc > DEEP_DISCHARGE_SOC + 0.1 {
            // Hysteresis so oscillation around the line counts once.
            self.was_above_deep = true;
        }
    }
}

impl EnergyStorage for LeadAcidBattery {
    fn capacity(&self) -> Joules {
        self.inner.capacity()
    }

    fn stored(&self) -> Joules {
        self.inner.stored()
    }

    fn max_discharge_power(&self) -> Watts {
        self.inner.max_discharge_power()
    }

    fn max_charge_power(&self) -> Watts {
        self.inner.max_charge_power()
    }

    fn discharge(&mut self, power: Watts, dt: SimDuration) -> Watts {
        let delivered = self.inner.discharge(power, dt);
        self.track_soc();
        delivered
    }

    fn charge(&mut self, power: Watts, dt: SimDuration) -> Watts {
        let accepted = self.inner.charge(power, dt);
        self.track_soc();
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_cap_is_24c() {
        // 1 Wh battery => 24 W cap.
        let b = LeadAcidBattery::new(Joules(3600.0));
        assert!(b.max_discharge_power() <= Watts(24.0 + 1e-9));
    }

    #[test]
    fn autonomy_constructor_meets_spec() {
        let mut b = LeadAcidBattery::with_autonomy(Watts(800.0), SimDuration::from_secs(50));
        let mut t = 0.0;
        loop {
            let got = b.discharge(Watts(800.0), SimDuration::from_millis(250));
            if got.0 < 800.0 - 1e-6 {
                break;
            }
            t += 0.25;
            assert!(t < 200.0, "battery never sagged");
        }
        assert!(t >= 50.0, "sustained only {t}s of the 50s spec");
    }

    #[test]
    fn deep_discharge_counted_once_per_excursion() {
        let mut b = LeadAcidBattery::new(Joules(100_000.0));
        b.set_soc(0.15);
        assert_eq!(b.deep_discharges(), 1);
        b.set_soc(0.18); // still deep: no new excursion
        assert_eq!(b.deep_discharges(), 1);
        b.set_soc(0.9); // recover
        b.set_soc(0.1); // new excursion
        assert_eq!(b.deep_discharges(), 2);
    }

    #[test]
    fn health_declines_with_use() {
        let mut b = LeadAcidBattery::new(Joules(10_000.0));
        let fresh = b.health();
        for _ in 0..20 {
            b.set_soc(1.0);
            while b.discharge(b.max_discharge_power(), SimDuration::SECOND).0 > 1.0 {}
        }
        assert!(b.health() < fresh);
        assert!(b.health() >= 0.0);
    }

    #[test]
    fn deepest_soc_tracks_minimum() {
        let mut b = LeadAcidBattery::new(Joules(100_000.0));
        b.set_soc(0.4);
        b.set_soc(0.7);
        assert!((b.deepest_soc() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn energy_storage_delegation() {
        let mut b = LeadAcidBattery::new(Joules(36_000.0));
        assert_eq!(b.capacity(), Joules(36_000.0));
        let before = b.stored();
        b.discharge(Watts(100.0), SimDuration::from_secs(10));
        assert!((before - b.stored()).0 > 0.0);
        b.charge(Watts(100.0), SimDuration::from_secs(10));
        assert!(b.stored() > Joules(0.0));
    }
}
