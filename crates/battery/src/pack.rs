//! Rack battery cabinets.
//!
//! A [`BatteryCabinet`] is what a rack actually mounts: a lead-acid pack
//! behind a low-voltage disconnect, plus a charge controller — the
//! Facebook Open Compute "V1" arrangement the paper assumes ("Each rack
//! has a dedicated battery cabinet for power shaving. The fully charged
//! battery can sustain 50 seconds under full load", §V).

use simkit::time::SimDuration;

use crate::charge::{ChargeController, ChargePolicy};
use crate::lead_acid::LeadAcidBattery;
use crate::lvd::LowVoltageDisconnect;
use crate::model::EnergyStorage;
use crate::units::{Joules, WattHours, Watts};

/// A complete rack battery cabinet: lead-acid pack + LVD + charger.
///
/// # Example
///
/// ```
/// use battery::pack::BatteryCabinet;
/// use battery::model::EnergyStorage;
/// use battery::units::Watts;
/// use simkit::time::SimDuration;
///
/// // The paper's configuration for a 5210 W rack.
/// let mut cab = BatteryCabinet::facebook_v1(Watts(5210.0));
/// assert!(cab.soc() > 0.99);
/// let p = cab.discharge(Watts(2000.0), SimDuration::from_secs(5));
/// assert_eq!(p, Watts(2000.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryCabinet {
    storage: LowVoltageDisconnect<LeadAcidBattery>,
    charger: ChargeController,
    /// Usable-capacity multiplier in `(0, 1]`: aged or faulted packs
    /// cannot hold their nameplate energy. Charging stops at
    /// `capacity_factor × capacity`; applying a lower factor sheds any
    /// excess immediately (the charge the plates can no longer hold).
    capacity_factor: f64,
}

impl BatteryCabinet {
    /// Builds the paper's standard cabinet for a rack of the given peak
    /// power: 50 s autonomy at full load, online charging at 10% of rack
    /// peak.
    ///
    /// # Panics
    ///
    /// Panics if `rack_peak` is not positive.
    pub fn facebook_v1(rack_peak: Watts) -> Self {
        assert!(rack_peak.0 > 0.0, "rack peak power must be positive");
        Self::with_autonomy(rack_peak, SimDuration::from_secs(50), ChargePolicy::Online)
    }

    /// Builds a cabinet sustaining `power` for `duration`, recharged per
    /// `policy` at a realistic lead-acid rate of 0.25C (a full recharge
    /// takes ~4–5 hours — why drained cabinets stay vulnerable for so
    /// long, and why Figure 5's offline charging doubles SOC variation).
    ///
    /// The pack is sized ~11% larger than the bare autonomy requirement so
    /// the low-voltage disconnect (which isolates the pack at 8% SOC) does
    /// not cut the promised window short.
    pub fn with_autonomy(power: Watts, duration: SimDuration, policy: ChargePolicy) -> Self {
        let padded = SimDuration::from_secs_f64(duration.as_secs_f64() / 0.90);
        let battery = LeadAcidBattery::with_autonomy(power, padded);
        let charge_rate = Watts(WattHours::from(battery.capacity()).0 * 0.25);
        BatteryCabinet {
            storage: LowVoltageDisconnect::new(battery),
            charger: ChargeController::new(policy, charge_rate),
            capacity_factor: 1.0,
        }
    }

    /// Builds a cabinet with an explicit capacity and charge policy.
    pub fn with_capacity(capacity: Joules, policy: ChargePolicy, charge_rate: Watts) -> Self {
        BatteryCabinet {
            storage: LowVoltageDisconnect::new(LeadAcidBattery::new(capacity)),
            charger: ChargeController::new(policy, charge_rate),
            capacity_factor: 1.0,
        }
    }

    /// The current usable-capacity multiplier.
    pub fn capacity_factor(&self) -> f64 {
        self.capacity_factor
    }

    /// Applies capacity fade: the pack can only hold
    /// `factor × capacity` from now on. If it currently holds more, the
    /// excess is shed immediately. `factor = 1.0` restores the nameplate
    /// ceiling (it does not refund shed energy).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn set_capacity_factor(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "capacity factor {factor} not in (0,1]"
        );
        self.capacity_factor = factor;
        if self.soc() > factor {
            self.storage.inner_mut().set_soc(factor);
        }
    }

    /// Caps a charging request so stored energy never exceeds the faded
    /// ceiling.
    fn fade_limited(&self, power: Watts, dt: SimDuration) -> Watts {
        let room = (self.capacity().0 * self.capacity_factor - self.stored().0).max(0.0);
        power.min(Watts(room / dt.as_secs_f64().max(1e-9)))
    }

    /// Whether the LVD currently connects the battery to the bus.
    pub fn is_connected(&self) -> bool {
        self.storage.is_connected()
    }

    /// How many vulnerability windows (LVD isolations) have occurred.
    pub fn disconnect_count(&self) -> u32 {
        self.storage.disconnect_count()
    }

    /// The lead-acid pack (aging counters, deep-discharge stats).
    pub fn battery(&self) -> &LeadAcidBattery {
        self.storage.inner()
    }

    /// Scenario setup: set the pack SOC directly.
    ///
    /// # Panics
    ///
    /// Panics if `soc` is outside `[0, 1]`.
    pub fn set_soc(&mut self, soc: f64) {
        self.storage.inner_mut().set_soc(soc);
    }

    /// One charging step: given spare budget `headroom`, draws the power
    /// the charge policy dictates and stores it. Returns the grid power
    /// actually consumed by charging.
    pub fn charge_step(&mut self, headroom: Watts, dt: SimDuration) -> Watts {
        let desired = self.charger.desired_power(self.soc(), headroom);
        let desired = self.fade_limited(desired, dt);
        if desired.0 <= 0.0 {
            // Idle: still let the chemistry rest/diffuse.
            self.storage.inner_mut().rest(dt);
            return Watts::ZERO;
        }
        self.storage.charge(desired, dt)
    }

    /// The configured charge policy.
    pub fn charge_policy(&self) -> ChargePolicy {
        self.charger.policy()
    }
}

impl EnergyStorage for BatteryCabinet {
    fn capacity(&self) -> Joules {
        self.storage.capacity()
    }

    fn stored(&self) -> Joules {
        self.storage.stored()
    }

    fn max_discharge_power(&self) -> Watts {
        self.storage.max_discharge_power()
    }

    fn max_charge_power(&self) -> Watts {
        self.storage.max_charge_power()
    }

    fn discharge(&mut self, power: Watts, dt: SimDuration) -> Watts {
        self.storage.discharge(power, dt)
    }

    fn charge(&mut self, power: Watts, dt: SimDuration) -> Watts {
        let allowed = self.fade_limited(power, dt);
        self.storage.charge(allowed, dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facebook_v1_sustains_50s() {
        let mut cab = BatteryCabinet::facebook_v1(Watts(5210.0));
        let mut t = 0.0;
        while cab
            .discharge(Watts(5210.0), SimDuration::from_millis(250))
            .0
            >= 5210.0 - 1e-6
        {
            t += 0.25;
            assert!(t < 300.0);
        }
        assert!(t >= 50.0, "cabinet sustained only {t}s");
    }

    #[test]
    fn charge_step_respects_online_headroom() {
        let mut cab = BatteryCabinet::facebook_v1(Watts(1000.0));
        cab.set_soc(0.5);
        // Online policy, zero headroom: no draw.
        assert_eq!(
            cab.charge_step(Watts(0.0), SimDuration::SECOND),
            Watts::ZERO
        );
        // With headroom: draws up to min(0.25C rate, headroom).
        let drawn = cab.charge_step(Watts(60.0), SimDuration::SECOND);
        assert!(drawn.0 > 0.0 && drawn.0 <= 60.0 + 1e-9, "drew {drawn:?}");
    }

    #[test]
    fn offline_cabinet_latches() {
        let mut cab = BatteryCabinet::with_autonomy(
            Watts(1000.0),
            SimDuration::from_secs(50),
            ChargePolicy::offline_default(),
        );
        cab.set_soc(0.5);
        // Above trigger: idle even with headroom.
        assert_eq!(
            cab.charge_step(Watts(500.0), SimDuration::SECOND),
            Watts::ZERO
        );
        cab.set_soc(0.35);
        // At/below trigger: draws rated power regardless of headroom.
        let drawn = cab.charge_step(Watts(0.0), SimDuration::SECOND);
        assert!(drawn.0 > 0.0);
    }

    #[test]
    fn lvd_protects_cabinet() {
        let mut cab = BatteryCabinet::facebook_v1(Watts(1000.0));
        // Flatten it.
        while cab.is_connected() {
            cab.discharge(Watts(1000.0), SimDuration::SECOND);
        }
        assert_eq!(
            cab.discharge(Watts(500.0), SimDuration::SECOND),
            Watts::ZERO
        );
        assert_eq!(cab.disconnect_count(), 1);
    }

    #[test]
    fn capacity_fade_caps_stored_energy() {
        let mut cab = BatteryCabinet::facebook_v1(Watts(1000.0));
        assert_eq!(cab.capacity_factor(), 1.0);
        cab.set_capacity_factor(0.6);
        // The full pack sheds down to the faded ceiling at once.
        assert!(
            (cab.soc() - 0.6).abs() < 1e-9,
            "soc {} after fade",
            cab.soc()
        );
        // Charging cannot push past the ceiling, however long it runs.
        for _ in 0..1000 {
            cab.charge(Watts(10_000.0), SimDuration::from_secs(60));
        }
        assert!(
            cab.soc() <= 0.6 + 1e-9,
            "soc {} exceeds faded ceiling",
            cab.soc()
        );
        // Restoring the factor reopens headroom but refunds nothing.
        cab.set_capacity_factor(1.0);
        assert!((cab.soc() - 0.6).abs() < 1e-6);
        cab.charge(Watts(500.0), SimDuration::from_secs(60));
        assert!(cab.soc() > 0.6);
    }

    #[test]
    #[should_panic(expected = "not in (0,1]")]
    fn zero_capacity_factor_rejected() {
        let mut cab = BatteryCabinet::facebook_v1(Watts(1000.0));
        cab.set_capacity_factor(0.0);
    }

    #[test]
    fn set_soc_round_trip() {
        let mut cab = BatteryCabinet::facebook_v1(Watts(2000.0));
        cab.set_soc(0.42);
        assert!((cab.soc() - 0.42).abs() < 1e-9);
    }
}
