//! Energy-storage substrate for the PAD reproduction.
//!
//! This crate models every storage device the paper's evaluation relies on:
//!
//! * [`kibam`] — the Kinetic Battery Model (KiBaM), the exact model the
//!   paper embeds in its simulator ("we … calculate the capacity decrease
//!   and increase using a kinetic battery model (KiBaM) at each
//!   fine-grained timestamp", §V);
//! * [`lead_acid`] — a lead-acid cabinet built on KiBaM with a maximum
//!   discharge-rate limit ("normally 48A for a 2Ah lead-acid battery
//!   cell") and cycle-throughput aging accounting;
//! * [`supercap`] — the super-capacitor used by µDEB: tiny energy, huge
//!   power, no cycle-life concerns;
//! * [`charge`] — the two charging disciplines of Figure 5 (*online*
//!   opportunistic recharge vs *offline* threshold recharge);
//! * [`lvd`] — the low-voltage disconnect that isolates deeply discharged
//!   batteries (Facebook-style, 1.75 V/cell), which is precisely what the
//!   Phase-I attacker exploits;
//! * [`pack`] — the rack battery cabinet and its sizing helpers ("fully
//!   charged battery can sustain 50 seconds under full load");
//! * [`units`] — `Watts`/`Joules`/`WattHours`/… newtypes shared by the
//!   whole workspace (re-exported by `powerinfra`).
//!
//! # Example
//!
//! ```
//! use battery::prelude::*;
//! use simkit::time::SimDuration;
//!
//! // A cabinet sized like the paper's: sustains a 5210 W rack for 50 s.
//! let mut cabinet = LeadAcidBattery::with_autonomy(Watts(5210.0), SimDuration::from_secs(50));
//! assert!((cabinet.soc() - 1.0).abs() < 1e-9);
//!
//! // Drain at full rack power for 25 s: a sizable share of the energy is gone.
//! let delivered = cabinet.discharge(Watts(5210.0), SimDuration::from_secs(25));
//! assert!(delivered.0 > 0.0);
//! assert!(cabinet.soc() < 0.75);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod aging;
pub mod charge;
pub mod kibam;
pub mod lead_acid;
pub mod lvd;
pub mod model;
pub mod pack;
pub mod supercap;
pub mod units;

/// Convenient re-exports of the most common `battery` items.
pub mod prelude {
    pub use crate::aging::{CycleCounter, LifeModel};
    pub use crate::charge::{ChargeController, ChargePolicy};
    pub use crate::kibam::{KibamBattery, KibamParams};
    pub use crate::lead_acid::LeadAcidBattery;
    pub use crate::lvd::LowVoltageDisconnect;
    pub use crate::model::EnergyStorage;
    pub use crate::pack::BatteryCabinet;
    pub use crate::supercap::SuperCapacitor;
    pub use crate::units::{Joules, WattHours, Watts};
}

pub use aging::{CycleCounter, LifeModel};
pub use charge::{ChargeController, ChargePolicy};
pub use kibam::{KibamBattery, KibamParams};
pub use lead_acid::LeadAcidBattery;
pub use lvd::LowVoltageDisconnect;
pub use model::EnergyStorage;
pub use pack::BatteryCabinet;
pub use supercap::SuperCapacitor;
pub use units::{Joules, WattHours, Watts};
