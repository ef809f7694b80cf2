//! Property tests on the electrical substrate: breaker monotonicity,
//! meter conservation, capping clamps.

use battery::units::Watts;
use powerinfra::breaker::CircuitBreaker;
use powerinfra::capping::PowerCapper;
use powerinfra::server::{Server, ServerSpec};
use proptest::prelude::*;
use simkit::time::{SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A breaker held at higher constant overload never trips later than
    /// one held at lower overload.
    #[test]
    fn breaker_trip_time_monotone(
        rated in 500.0f64..10_000.0,
        over_a in 1.05f64..3.0,
        extra in 0.05f64..2.0,
    ) {
        let time_to_trip = |ratio: f64| {
            let mut cb = CircuitBreaker::new(Watts(rated));
            let mut t = 0u64;
            while !cb.is_tripped() && t < 600_000 {
                cb.step(Watts(rated * ratio), SimDuration::from_millis(100));
                t += 100;
            }
            t
        };
        let slow = time_to_trip(over_a);
        let fast = time_to_trip(over_a + extra);
        prop_assert!(fast <= slow, "heavier overload tripped later: {fast} > {slow}");
    }

    /// Power within the rating never trips, no matter how long.
    #[test]
    fn breaker_never_trips_within_rating(
        rated in 500.0f64..10_000.0,
        fraction in 0.0f64..=1.0,
        steps in 1usize..5_000,
    ) {
        let mut cb = CircuitBreaker::new(Watts(rated));
        for _ in 0..steps {
            cb.step(Watts(rated * fraction), SimDuration::from_secs(1));
        }
        prop_assert!(!cb.is_tripped());
        prop_assert_eq!(cb.heat(), 0.0);
    }

    /// Server power stays within [idle, peak] for any utilization/DVFS,
    /// and delivered work is within [0, 1] per server.
    #[test]
    fn server_power_bounded(u in -1.0f64..2.0, f in -1.0f64..2.0) {
        let mut s = Server::new(ServerSpec::hp_proliant_dl585_g5());
        s.set_utilization(u);
        s.set_dvfs(f);
        let p = s.power();
        prop_assert!(p.0 >= 299.0 - 1e-9 && p.0 <= 521.0 + 1e-9, "power {p}");
        let w = s.delivered_work();
        prop_assert!((0.0..=1.0).contains(&w));
    }

    /// The capper's effective factor is always within [0.1, 1] and never
    /// changes before the actuation latency has elapsed.
    #[test]
    fn capper_respects_latency(
        latency_ms in 1u64..1_000,
        requests in prop::collection::vec((0.0f64..1.5, 0u64..10_000), 1..20),
    ) {
        let mut capper = PowerCapper::new(SimDuration::from_millis(latency_ms));
        let mut sorted = requests.clone();
        sorted.sort_by_key(|&(_, t)| t);
        for (factor, at_ms) in sorted {
            let at = SimTime::from_millis(at_ms);
            let before = capper.factor_at(at);
            capper.request(factor, at);
            // Nothing changes at the instant of the request.
            prop_assert_eq!(capper.factor_at(at), before);
            let f = capper.factor_at(at + SimDuration::from_millis(latency_ms));
            prop_assert!((0.1..=1.0).contains(&f));
        }
    }
}
