//! Electrical substrate for the PAD reproduction.
//!
//! Models the power-delivery path of Figure 4 in the paper: servers with a
//! linear idle→peak power curve ([`server`]), racks that bundle servers
//! with a battery cabinet and a breaker ([`rack`]), the cluster PDU with
//! per-outlet soft limits and an oversubscribed budget ([`pdu`]), the
//! inverse-time thermal circuit breaker an attacker tries to trip
//! ([`breaker`]), utilization meters at configurable sampling intervals
//! ([`metering`] — Table I's knob), and the DVFS power-capping actuator
//! with its fatal 100–300 ms latency ([`capping`]).
//!
//! Electrical units are re-exported from the `battery` crate as
//! [`units`], so `powerinfra::units::Watts` and `battery::units::Watts`
//! are the same type.
//!
//! # Example
//!
//! ```
//! use powerinfra::prelude::*;
//!
//! // The paper's server: HP ProLiant DL585 G5, 299 W idle, 521 W peak.
//! let spec = ServerSpec::hp_proliant_dl585_g5();
//! assert_eq!(spec.power_at(0.0), Watts(299.0));
//! assert_eq!(spec.power_at(1.0), Watts(521.0));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod breaker;
pub mod capping;
pub mod metering;
pub mod pdu;
pub mod rack;
pub mod server;
pub mod topology;

/// Electrical unit newtypes (shared with the `battery` crate).
pub mod units {
    pub use battery::units::{Amps, Farads, Joules, Volts, WattHours, Watts};
}

/// Convenient re-exports of the most common `powerinfra` items.
pub mod prelude {
    pub use crate::breaker::{BreakerState, CircuitBreaker};
    pub use crate::capping::PowerCapper;
    pub use crate::metering::PowerMeter;
    pub use crate::pdu::{Pdu, PduConfig};
    pub use crate::rack::Rack;
    pub use crate::server::{Server, ServerSpec};
    pub use crate::topology::{ClusterTopology, RackId, ServerId};
    pub use crate::units::{Joules, Watts};
}

pub use breaker::{BreakerState, CircuitBreaker};
pub use capping::PowerCapper;
pub use metering::PowerMeter;
pub use pdu::{Pdu, PduConfig};
pub use rack::Rack;
pub use server::{Server, ServerSpec};
pub use topology::{ClusterTopology, RackId, ServerId};
