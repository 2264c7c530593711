//! One-stop façade for the *Putting DNS in Context* reproduction.
//!
//! The workspace is layered (wire formats → capture → monitor → simulator
//! → analysis → cache simulations); this crate re-exports each layer and
//! adds the [`pipeline`] helpers the examples, harness, and integration
//! tests share.
//!
//! ```
//! use dnsctx::pipeline;
//!
//! // A small synthetic CCZ week, directly to logs, then the paper's
//! // Table 2 classification.
//! let study = pipeline::quick_study(8, 0.05, 42);
//! let counts = study.analysis().class_counts();
//! assert!(counts.total() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cache_sim;
pub use ccz_sim;
pub use dns_context;
pub use dns_wire;
pub use netpkt;
pub use pcapio;
pub use xkit;
pub use zeek_lite;

pub mod pipeline {
    //! Prebuilt end-to-end pipelines.

    use ccz_sim::{ScaleKnobs, SimOutput, Simulation, WorkloadConfig};
    use dns_context::{Analysis, AnalysisConfig};
    use xkit::obs::Metrics;
    use zeek_lite::Logs;

    /// A simulation output bundled with the analysis configuration, ready
    /// to serve every table and figure.
    pub struct Study {
        /// Raw simulation output (logs + ground truth + platform stats).
        pub sim: SimOutput,
        /// Analysis configuration used by [`Study::analysis`].
        pub analysis_cfg: AnalysisConfig,
    }

    impl Study {
        /// Run the paper's analysis pipeline over the study's logs.
        /// Recomputed on call; hold on to the result when serving several
        /// tables.
        pub fn analysis(&self) -> Analysis<'_> {
            Analysis::run(&self.sim.logs, self.analysis_cfg.clone())
        }

        /// The observable logs.
        pub fn logs(&self) -> &Logs {
            &self.sim.logs
        }

        /// One metrics snapshot for the whole study, merged through the
        /// one deterministic merge path. Key families: `sim.*` and
        /// `resolver.*` (workload), `zeek.*` (monitor and degradation),
        /// and `pair.*`, `class.*`, `threshold.*`, `perf.*`, `cover.*`
        /// (analysis). The packet path adds `capture.*` (pcap I/O),
        /// injected damage `fault.*`, and span timers `stage.*`.
        pub fn metrics(&self) -> Metrics {
            let mut m = self.sim.metrics.clone();
            m.merge(&self.sim.logs.metrics());
            m.merge(&self.analysis().metrics());
            m
        }
    }

    /// Simulate a CCZ-like week and return it with default analysis
    /// settings. `houses` and `activity` control volume; `seed` fixes
    /// the randomness.
    pub fn quick_study(houses: usize, activity: f64, seed: u64) -> Study {
        let cfg = WorkloadConfig {
            scale: ScaleKnobs { houses, days: 1.0, activity },
            ..WorkloadConfig::default()
        };
        study_with(cfg, seed)
    }

    /// Full control over the workload; analysis settings stay at the
    /// paper's defaults.
    pub fn study_with(cfg: WorkloadConfig, seed: u64) -> Study {
        let sim = Simulation::new(cfg, seed).expect("valid workload config").run();
        Study { sim, analysis_cfg: AnalysisConfig::default() }
    }

    /// The paper-scale configuration: 100 houses, 7 days, at the given
    /// activity fraction (1.0 ≈ the CCZ's 11 M connections — heavy; the
    /// harness defaults to 0.1).
    pub fn paper_scale(activity: f64) -> WorkloadConfig {
        WorkloadConfig {
            scale: ScaleKnobs { houses: 100, days: 7.0, activity },
            ..WorkloadConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::pipeline;

    #[test]
    fn quick_study_produces_analysable_logs() {
        let study = pipeline::quick_study(4, 0.2, 7);
        assert!(!study.logs().conns.is_empty());
        assert!(!study.logs().dns.is_empty());
        let analysis = study.analysis();
        let counts = analysis.class_counts();
        assert_eq!(counts.total(), analysis.pairing.app_conn_count());
    }

    #[test]
    fn paper_scale_shape() {
        let cfg = pipeline::paper_scale(0.1);
        assert_eq!(cfg.scale.houses, 100);
        assert_eq!(cfg.scale.days, 7.0);
        cfg.validate().unwrap();
    }
}
