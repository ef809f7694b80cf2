//! The [`EnergyStorage`] abstraction.
//!
//! Every backup device in the workspace — KiBaM lead-acid cabinets,
//! µDEB super-capacitors, whole virtual pools — exposes the same small
//! power-in/power-out interface, so the PAD controller and the schemes
//! under comparison are written once against this trait.

use simkit::time::SimDuration;

use crate::units::{Joules, Watts};

/// A rechargeable energy-storage device.
///
/// Power flows are *requested*; implementations return what was actually
/// delivered/accepted after enforcing their physical limits (rate caps,
/// empty/full wells). All implementations must uphold:
///
/// * delivered/accepted power is in `[0, requested]`;
/// * stored energy never goes negative nor above capacity;
/// * `discharge` strictly reduces stored energy by `delivered × dt`
///   (divided by efficiency where applicable), `charge` increases it.
///
/// # Example
///
/// ```
/// use battery::prelude::*;
/// use simkit::time::SimDuration;
///
/// fn drain_to_empty<S: EnergyStorage>(dev: &mut S) -> u64 {
///     let mut seconds = 0;
///     while dev.soc() > 0.01 && seconds < 10_000 {
///         dev.discharge(dev.max_discharge_power(), SimDuration::SECOND);
///         seconds += 1;
///     }
///     seconds
/// }
///
/// let mut b = LeadAcidBattery::with_autonomy(Watts(1000.0), SimDuration::from_secs(50));
/// assert!(drain_to_empty(&mut b) >= 50);
/// ```
pub trait EnergyStorage {
    /// Nominal full-charge energy.
    fn capacity(&self) -> Joules;

    /// Energy currently stored.
    fn stored(&self) -> Joules;

    /// State of charge in `[0, 1]`.
    fn soc(&self) -> f64 {
        let cap = self.capacity();
        if cap.0 <= 0.0 {
            0.0
        } else {
            (self.stored() / cap).clamp(0.0, 1.0)
        }
    }

    /// Maximum power the device can deliver *right now* (may depend on
    /// state of charge).
    fn max_discharge_power(&self) -> Watts;

    /// Maximum power the device can absorb right now.
    fn max_charge_power(&self) -> Watts;

    /// Draws up to `power` for `dt`; returns the power actually delivered
    /// (constant over the step).
    fn discharge(&mut self, power: Watts, dt: SimDuration) -> Watts;

    /// Stores up to `power` for `dt`; returns the power actually accepted.
    fn charge(&mut self, power: Watts, dt: SimDuration) -> Watts;

    /// `true` once the device is effectively empty (< 0.5% SOC).
    fn is_depleted(&self) -> bool {
        self.soc() < 0.005
    }

    /// How long the device could sustain `power`, ignoring rate limits —
    /// the *autonomy time* an attacker tries to learn in Phase I.
    fn autonomy_at(&self, power: Watts) -> SimDuration {
        if power.0 <= 0.0 {
            return SimDuration::from_hours(24 * 365);
        }
        self.stored() / power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivially simple storage for testing trait defaults.
    struct Bucket {
        stored: Joules,
        cap: Joules,
    }

    impl EnergyStorage for Bucket {
        fn capacity(&self) -> Joules {
            self.cap
        }
        fn stored(&self) -> Joules {
            self.stored
        }
        fn max_discharge_power(&self) -> Watts {
            Watts(f64::MAX)
        }
        fn max_charge_power(&self) -> Watts {
            Watts(f64::MAX)
        }
        fn discharge(&mut self, power: Watts, dt: SimDuration) -> Watts {
            let want = power * dt;
            let take = want.min(self.stored);
            self.stored -= take;
            take / dt
        }
        fn charge(&mut self, power: Watts, dt: SimDuration) -> Watts {
            let want = power * dt;
            let take = want.min(self.cap - self.stored);
            self.stored += take;
            take / dt
        }
    }

    #[test]
    fn soc_defaults() {
        let b = Bucket {
            stored: Joules(50.0),
            cap: Joules(100.0),
        };
        assert_eq!(b.soc(), 0.5);
        assert!(!b.is_depleted());
        let empty = Bucket {
            stored: Joules(0.0),
            cap: Joules(100.0),
        };
        assert!(empty.is_depleted());
    }

    #[test]
    fn soc_of_zero_capacity_is_zero() {
        let b = Bucket {
            stored: Joules(0.0),
            cap: Joules(0.0),
        };
        assert_eq!(b.soc(), 0.0);
    }

    #[test]
    fn autonomy_matches_energy_over_power() {
        let b = Bucket {
            stored: Joules(1000.0),
            cap: Joules(1000.0),
        };
        assert_eq!(b.autonomy_at(Watts(100.0)), SimDuration::from_secs(10));
        // Zero power => effectively infinite autonomy.
        assert!(b.autonomy_at(Watts(0.0)) >= SimDuration::from_hours(1000));
    }
}
