//! Shared fixtures for the `repro` harness and the tests, plus the
//! [`serve`] daemon behind `repro serve`.

pub mod serve;

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};

/// Build a simulation at the given size (houses, days, activity).
pub fn sim(houses: usize, days: f64, activity: f64, seed: u64) -> Simulation {
    let cfg = WorkloadConfig {
        scale: ScaleKnobs { houses, days, activity },
        ..WorkloadConfig::default()
    };
    Simulation::new(cfg, seed).expect("valid config")
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixtures_build() {
        let out = super::sim(6, 0.1, 1.0, 3).run();
        assert!(!out.logs.conns.is_empty());
    }
}
