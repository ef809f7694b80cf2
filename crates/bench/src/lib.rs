//! Shared scaffolding for the experiment-regenerator binaries and the
//! benches.
//!
//! Every binary accepts `--smoke` to run the reduced-scale variant the
//! integration tests use; the default is full paper fidelity.

use pad::experiments::Fidelity;
use pad::schemes::Scheme;
use pad::sim::{ClusterSim, SimConfig};
use simkit::time::{SimDuration, SimTime};
use workload::synth::SynthConfig;

/// Parses the common CLI: `--smoke` selects the reduced scale.
pub fn fidelity_from_args() -> Fidelity {
    if std::env::args().any(|a| a == "--smoke") {
        Fidelity::Smoke
    } else {
        Fidelity::Paper
    }
}

/// Prints a standard experiment banner.
pub fn banner(name: &str, paper_ref: &str, fidelity: Fidelity) {
    println!("=== {name} — reproduces {paper_ref} ===");
    println!(
        "fidelity: {}\n",
        match fidelity {
            Fidelity::Paper => "paper scale",
            Fidelity::Smoke => "smoke (reduced)",
        }
    );
}

/// The benches' shared simulation slice: the 4 × 4 PAD test cluster over
/// a 10-minute synthetic trace at 60% mean utilization.
pub fn slice_sim() -> ClusterSim {
    let config = SimConfig::small_test(Scheme::Pad);
    let trace = SynthConfig {
        machines: config.topology.total_servers(),
        horizon: SimTime::from_mins(10),
        mean_utilization: 0.6,
        ..SynthConfig::small_test()
    }
    .generate_direct(11);
    ClusterSim::new(config, trace).expect("valid config")
}

/// Steps `sim` through the benches' 50 × 100 ms slice.
pub fn run_slice(mut sim: ClusterSim) -> ClusterSim {
    for _ in 0..50 {
        sim.step(SimDuration::from_millis(100));
    }
    sim
}
