//! Server racks.
//!
//! A [`Rack`] bundles what the paper's Figure 10 places in one "rack power
//! zone": the servers, the DEB battery cabinet, the rack-feed circuit
//! breaker, and the (initially empty) µDEB slot a PAD deployment
//! populates. Power-flow *policy* — who shaves what — lives in the `pad`
//! crate; the rack provides the components and local accounting.

use battery::pack::BatteryCabinet;
use battery::units::Watts;

use crate::breaker::CircuitBreaker;
use crate::server::{Server, ServerSpec, ServerState};
use crate::topology::RackId;

/// A rack: servers + battery cabinet + feed breaker.
///
/// The server sums ([`Rack::demand`], [`Rack::offered_load`],
/// [`Rack::delivered_work`]) are cached by [`Rack::refresh_sums`] and
/// dropped by every method that can change a server, so a read is
/// never stale: with no cache it sums the servers afresh.
///
/// # Example
///
/// ```
/// use powerinfra::rack::Rack;
/// use powerinfra::server::ServerSpec;
/// use powerinfra::topology::RackId;
/// use powerinfra::units::Watts;
///
/// let rack = Rack::paper_rack(RackId(0), 0.65);
/// assert_eq!(rack.nameplate_power(), Watts(5210.0));
/// assert_eq!(rack.breaker().rated(), Watts(5210.0 * 0.65));
/// ```
#[derive(Debug, Clone)]
pub struct Rack {
    id: RackId,
    servers: Vec<Server>,
    cabinet: BatteryCabinet,
    breaker: CircuitBreaker,
    /// Server sums as of the last [`Rack::refresh_sums`]; `None` once a
    /// server may have changed since.
    sums: Option<ServerSums>,
    /// The factor [`Rack::set_dvfs_all`] last applied to every server,
    /// until a server is edited through [`Rack::servers_mut`].
    dvfs_all: Option<f64>,
}

/// The per-rack server sums the simulator reads every tick.
#[derive(Debug, Clone, Copy)]
struct ServerSums {
    demand: Watts,
    offered: f64,
    delivered: f64,
}

impl Rack {
    /// Creates a rack.
    ///
    /// # Panics
    ///
    /// Panics if `server_count` is zero.
    pub fn new(
        id: RackId,
        server_count: usize,
        spec: ServerSpec,
        cabinet: BatteryCabinet,
        breaker_rating: Watts,
    ) -> Self {
        assert!(server_count > 0, "rack needs at least one server");
        Rack {
            id,
            servers: vec![Server::new(spec); server_count],
            cabinet,
            breaker: CircuitBreaker::new(breaker_rating),
            sums: None,
            dvfs_all: None,
        }
    }

    /// The paper's standard rack: 10× HP DL585 G5, a Facebook-V1 cabinet
    /// (50 s at full load), feed breaker rated at `budget_fraction` of
    /// nameplate.
    pub fn paper_rack(id: RackId, budget_fraction: f64) -> Self {
        let spec = ServerSpec::hp_proliant_dl585_g5();
        let nameplate = spec.peak * 10.0;
        Rack::new(
            id,
            10,
            spec,
            BatteryCabinet::facebook_v1(nameplate),
            nameplate * budget_fraction,
        )
    }

    /// This rack's id.
    pub fn id(&self) -> RackId {
        self.id
    }

    /// Number of servers mounted.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Shared access to the servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Mutable access to the servers. Drops the cached sums and the
    /// rack-wide DVFS factor, since any server may change.
    pub fn servers_mut(&mut self) -> &mut [Server] {
        self.sums = None;
        self.dvfs_all = None;
        &mut self.servers
    }

    /// The battery cabinet.
    pub fn cabinet(&self) -> &BatteryCabinet {
        &self.cabinet
    }

    /// Mutable access to the cabinet.
    pub fn cabinet_mut(&mut self) -> &mut BatteryCabinet {
        &mut self.cabinet
    }

    /// The rack feed breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Mutable access to the feed breaker.
    pub fn breaker_mut(&mut self) -> &mut CircuitBreaker {
        &mut self.breaker
    }

    /// Sum of server nameplate peaks (`Pr` in the paper).
    pub fn nameplate_power(&self) -> Watts {
        self.servers.iter().map(|s| s.spec().peak).sum()
    }

    /// Power drawn with every server active-idle.
    pub fn idle_power(&self) -> Watts {
        self.servers.iter().map(|s| s.spec().idle).sum()
    }

    fn sums(&self) -> ServerSums {
        self.sums.unwrap_or_else(|| ServerSums {
            demand: self.servers.iter().map(Server::power).sum(),
            offered: self.servers.iter().map(Server::utilization).sum(),
            delivered: self.servers.iter().map(Server::delivered_work).sum(),
        })
    }

    /// Caches the server sums until a server next changes.
    pub fn refresh_sums(&mut self) {
        self.sums = Some(self.sums());
    }

    /// Present aggregate power demand of the servers.
    pub fn demand(&self) -> Watts {
        self.sums().demand
    }

    /// Present aggregate offered utilization of the servers (before
    /// capping and shedding).
    pub fn offered_load(&self) -> f64 {
        self.sums().offered
    }

    /// Present aggregate delivered work (for the throughput metric).
    pub fn delivered_work(&self) -> f64 {
        self.sums().delivered
    }

    /// Sets each server's offered utilization in slot order (extra
    /// entries ignored, missing entries leave servers unchanged).
    pub fn set_utilizations(&mut self, utilizations: impl IntoIterator<Item = f64>) {
        self.sums = None;
        for (server, u) in self.servers.iter_mut().zip(utilizations) {
            server.set_utilization(u);
        }
    }

    /// Applies one DVFS factor to every server (rack-level capping). A
    /// repeat of the factor already applied is a no-op.
    pub fn set_dvfs_all(&mut self, factor: f64) {
        if self.dvfs_all.map(f64::to_bits) == Some(factor.to_bits()) {
            return;
        }
        self.dvfs_all = Some(factor);
        self.sums = None;
        for server in &mut self.servers {
            server.set_dvfs(factor);
        }
    }

    /// Puts `count` servers (from the highest slot down) to sleep, waking
    /// the rest — the Level-3 load-shedding actuator. Returns how many are
    /// now asleep.
    pub fn shed_servers(&mut self, count: usize) -> usize {
        let n = self.servers.len();
        let asleep = count.min(n);
        for (slot, server) in self.servers.iter_mut().enumerate() {
            let state = if slot >= n - asleep {
                ServerState::Asleep
            } else {
                ServerState::Active
            };
            if server.state() != state {
                server.set_state(state);
                self.sums = None;
            }
        }
        asleep
    }

    /// How many servers are currently asleep.
    pub fn asleep_count(&self) -> usize {
        self.servers.iter().filter(|s| s.is_asleep()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use battery::model::EnergyStorage;
    use simkit::time::SimDuration;

    fn rack() -> Rack {
        Rack::paper_rack(RackId(3), 0.65)
    }

    #[test]
    fn nameplate_and_idle_totals() {
        let r = rack();
        assert_eq!(r.nameplate_power(), Watts(5210.0));
        assert_eq!(r.idle_power(), Watts(2990.0));
        assert_eq!(r.server_count(), 10);
        assert_eq!(r.id(), RackId(3));
    }

    #[test]
    fn demand_tracks_utilization() {
        let mut r = rack();
        assert_eq!(r.demand(), Watts(2990.0));
        r.set_utilizations([1.0; 10]);
        assert_eq!(r.demand(), Watts(5210.0));
        r.set_utilizations([0.5; 10]);
        assert_eq!(r.demand(), Watts(4100.0));
    }

    #[test]
    fn partial_utilization_slice() {
        let mut r = rack();
        r.set_utilizations([1.0, 1.0]); // only first two servers
        assert_eq!(r.demand(), Watts(2990.0 + 2.0 * 222.0));
    }

    #[test]
    fn dvfs_all_caps_power_and_work() {
        let mut r = rack();
        r.set_utilizations([1.0; 10]);
        r.set_dvfs_all(0.8);
        assert_eq!(r.demand(), Watts(2990.0 + 2220.0 * 0.8));
        assert!((r.delivered_work() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn shedding_sleeps_highest_slots_first() {
        let mut r = rack();
        r.set_utilizations([1.0; 10]);
        assert_eq!(r.shed_servers(3), 3);
        assert_eq!(r.asleep_count(), 3);
        assert!(r.servers()[9].is_asleep());
        assert!(!r.servers()[0].is_asleep());
        // Shedding 0 wakes everyone.
        assert_eq!(r.shed_servers(0), 0);
        assert_eq!(r.asleep_count(), 0);
    }

    #[test]
    fn cached_sums_follow_every_server_change() {
        let mut r = rack();
        let fresh = |r: &Rack| {
            let s = r.servers();
            (
                s.iter().map(Server::power).sum::<Watts>(),
                s.iter().map(Server::utilization).sum::<f64>(),
                s.iter().map(Server::delivered_work).sum::<f64>(),
            )
        };
        let cached = |r: &mut Rack| {
            r.refresh_sums();
            (r.demand(), r.offered_load(), r.delivered_work())
        };
        assert_eq!(cached(&mut r), fresh(&r));
        r.set_utilizations([0.9; 10]);
        assert_eq!(cached(&mut r), fresh(&r));
        r.set_dvfs_all(0.8);
        assert_eq!(cached(&mut r), fresh(&r));
        r.shed_servers(2);
        assert_eq!(cached(&mut r), fresh(&r));
        r.shed_servers(2);
        assert_eq!(cached(&mut r), fresh(&r));
        r.servers_mut()[0].set_utilization(0.1);
        assert_eq!(cached(&mut r), fresh(&r));
        // A hand-set DVFS factor is overwritten by the next rack-wide
        // factor, even one equal to the factor applied before the edit.
        r.servers_mut()[1].set_dvfs(0.5);
        assert_eq!(cached(&mut r), fresh(&r));
        r.set_dvfs_all(0.8);
        assert_eq!(r.servers()[1].dvfs(), 0.8);
        assert_eq!(cached(&mut r), fresh(&r));
    }

    #[test]
    fn shedding_clamps_to_server_count() {
        let mut r = rack();
        assert_eq!(r.shed_servers(99), 10);
        assert_eq!(r.asleep_count(), 10);
        assert_eq!(r.delivered_work(), 0.0);
    }

    #[test]
    fn cabinet_shaves_rack_scale_power() {
        let mut r = rack();
        let delivered = r
            .cabinet_mut()
            .discharge(Watts(2000.0), SimDuration::from_secs(5));
        assert_eq!(delivered, Watts(2000.0));
        assert!(r.cabinet().soc() < 1.0);
    }
}
