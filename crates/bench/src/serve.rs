//! The multi-tenant streaming daemon behind `repro serve`.
//!
//! Each tenant is one capture stream — a simulated ISP/CCZ vantage
//! point — owning a `pcapio::RecordSource` and a `StreamEngine` run to
//! completion with bounded state (epoch windowing + watermark
//! eviction). Tenants are sharded across a long-lived [`xkit::par::Pool`];
//! their engines publish prefix-valid snapshots into per-tenant
//! [`ObsHub`]s collected in an [`xkit::obs::HubRegistry`], which the
//! extended `xkit::obs::http` server routes live (`/tenants`,
//! `/tenants/<id>/snapshot`, `/tenants/<id>/metrics`) and folds — in
//! tenant-id order — into the global `/snapshot` + `/metrics` views.
//!
//! Determinism contract (DESIGN.md §15): every tenant's settled
//! snapshot is a pure function of its [`TenantSpec`] (engines run
//! single-threaded; parallelism lives *across* tenants), and the
//! aggregate is an id-ordered fold of settled snapshots — so the
//! post-drain aggregate is byte-identical for any worker count, and
//! byte-identical to running the tenants sequentially.
//!
//! Shutdown ordering: [`Daemon::shutdown`] drains the pool first (every
//! engine's `finish()` has published its settled snapshot), publishes
//! the final aggregate into the root hub, and only then stops the HTTP
//! accept thread — a scrape that raced shutdown saw either a live
//! prefix or the settled aggregate, never a torn state.

use dnsctx::ccz_sim::{ScaleKnobs, Simulation, WorkloadConfig};
use dnsctx::dns_context::{stream, AnalysisConfig};
use dnsctx::zeek_lite::{Duration, MonitorConfig};
use dnsctx::{cache_sim, pcapio};
use pcapio::RecordSource;
use xkit::obs::http::{self, ObsServer};
use xkit::obs::{HubRegistry, Metrics, ObsHub};
use xkit::par::Pool;

/// Where a tenant's records come from.
#[derive(Debug, Clone)]
pub enum TenantSource {
    /// Replay an in-memory pcap byte stream (the file backend).
    Pcap(Vec<u8>),
    /// A per-tenant `Simulation::run_ring` generator feeding a
    /// `Block`-policy SPSC ring: producer and engine run concurrently
    /// inside the tenant's pool slot, and Block policy keeps the
    /// settled snapshot identical to a pcap replay of the same world.
    SimRing { houses: usize, days: f64, activity: f64, seed: u64, capacity: usize },
}

/// One tenant stream: a stable id, a source, and the epoch window its
/// engine releases on. The settled snapshot is a pure function of this
/// struct — the root of the daemon's determinism argument.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub id: String,
    pub source: TenantSource,
    pub window_secs: f64,
}

impl TenantSpec {
    /// A simulation-fed tenant at the given scale.
    pub fn sim(id: &str, houses: usize, days: f64, activity: f64, seed: u64) -> TenantSpec {
        TenantSpec {
            id: id.to_string(),
            source: TenantSource::SimRing { houses, days, activity, seed, capacity: 1 << 18 },
            window_secs: 60.0,
        }
    }

    /// Refuse a window that is negative or not finite (`0` is the
    /// unwindowed run), and a simulated workload the simulator refuses;
    /// such a spec is an error, never clamped.
    pub fn validate(&self) -> Result<(), String> {
        if !self.window_secs.is_finite() || self.window_secs < 0.0 {
            return Err(format!(
                "tenant {}: window_secs must be a finite number >= 0, got {}",
                self.id, self.window_secs
            ));
        }
        if let TenantSource::SimRing { houses, days, activity, .. } = self.source {
            workload(houses, days, activity)
                .validate()
                .map_err(|e| format!("tenant {}: {e}", self.id))?;
        }
        Ok(())
    }
}

/// The simulated workload of a [`TenantSource::SimRing`] tenant.
fn workload(houses: usize, days: f64, activity: f64) -> WorkloadConfig {
    WorkloadConfig { scale: ScaleKnobs { houses, days, activity }, ..WorkloadConfig::default() }
}

/// Daemon construction knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Pool width (0 = one worker per core). Tenant *engines* are
    /// always single-threaded; this is cross-tenant parallelism only.
    pub threads: usize,
    /// `Some(addr)` serves the tenant-routed observability plane
    /// (`127.0.0.1:0` binds an ephemeral port).
    pub serve: Option<String>,
    /// Prometheus metric-name prefix.
    pub namespace: String,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig { threads: 0, serve: None, namespace: "dnsctx".to_string() }
    }
}

/// The long-running serve daemon: a tenant registry, a worker pool, and
/// (optionally) the HTTP plane. See the module docs for the
/// determinism and shutdown-ordering contracts.
pub struct Daemon {
    registry: HubRegistry,
    root: ObsHub,
    pool: Pool,
    server: Option<ObsServer>,
}

impl Daemon {
    pub fn new(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        let registry = HubRegistry::new();
        let root = ObsHub::default();
        let server = match &cfg.serve {
            Some(addr) => Some(http::serve_tenants(
                addr,
                &cfg.namespace,
                root.clone(),
                registry.clone(),
            )?),
            None => None,
        };
        Ok(Daemon { registry, root, pool: Pool::new(cfg.threads), server })
    }

    /// The bound HTTP address, when serving.
    pub fn addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(|s| s.addr())
    }

    /// The registry the HTTP plane routes (shared, live).
    pub fn registry(&self) -> &HubRegistry {
        &self.registry
    }

    /// The root hub (`/spans`, `/events`): daemon lifecycle events land
    /// in its flight recorder.
    pub fn root(&self) -> &ObsHub {
        &self.root
    }

    /// Register a tenant and enqueue its stream on the pool. Errors on
    /// duplicate or malformed ids and on a window that is negative or
    /// not finite; the tenant starts in state `queued`, moves to
    /// `running` when a worker picks it up, and settles as `drained` (or
    /// `failed` if its job panicked).
    pub fn add_tenant(&self, spec: TenantSpec) -> Result<(), String> {
        spec.validate()?;
        let hub = ObsHub::default();
        self.registry.add(&spec.id, hub.clone())?;
        self.root.flight().record("tenant.add", spec.id.clone(), self.registry.len() as f64);
        let registry = self.registry.clone();
        let root = self.root.clone();
        self.pool.submit(move || {
            let id = spec.id.clone();
            registry.set_state(&id, "running");
            // Contained by the pool's panic fence: a tenant whose run
            // panics is marked failed and the daemon keeps serving.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_tenant(&spec, Some(&hub))
            }));
            match outcome {
                Ok(_) => {
                    registry.set_state(&id, "drained");
                    root.flight().record("tenant.drain", id, 0.0);
                }
                Err(payload) => {
                    registry.set_state(&id, "failed");
                    root.flight().record("tenant.fail", id, 0.0);
                    std::panic::resume_unwind(payload);
                }
            }
        });
        Ok(())
    }

    /// Drain barrier: block until every queued/running tenant settles.
    pub fn drain(&self) {
        self.pool.wait_idle();
    }

    /// Remove a tenant and free its state (hub, snapshots, peak
    /// gauges). Waits for the pool to go idle first when the tenant has
    /// not settled yet — removal never races a running engine.
    pub fn remove_tenant(&self, id: &str) -> bool {
        match self.registry.state(id) {
            None => return false,
            Some(state) if state != "drained" && state != "failed" => self.drain(),
            Some(_) => {}
        }
        let removed = self.registry.remove(id);
        if removed {
            self.root.flight().record("tenant.remove", id.to_string(), self.registry.len() as f64);
        }
        removed
    }

    /// `(id, state)` pairs in tenant-id order.
    pub fn tenants(&self) -> Vec<(String, String)> {
        self.registry.tenants()
    }

    /// The id-ordered aggregate fold of every registered tenant's
    /// current snapshot (settled after [`drain`](Daemon::drain)).
    pub fn aggregate(&self) -> Metrics {
        self.registry.aggregate()
    }

    /// Jobs that panicked (tenants in state `failed`).
    pub fn panicked(&self) -> u64 {
        self.pool.panicked()
    }

    /// Graceful shutdown: drain every engine through `finish()`,
    /// publish the settled aggregate into the root hub, and only then
    /// stop the accept thread. Returns the settled aggregate.
    pub fn shutdown(mut self) -> Metrics {
        self.drain();
        let settled = self.aggregate();
        self.root.publish_metrics(settled.clone());
        if let Some(server) = &mut self.server {
            server.shutdown();
        }
        self.pool.shutdown();
        settled
    }
}

/// Run one tenant's stream to completion: source → engine (epoch
/// windowing, watermark eviction, single-threaded analysis) → cache
/// replay, publishing prefix-valid snapshots into `hub` along the way.
/// Returns — and publishes as the tenant's settled snapshot — the full
/// per-tenant document: `sim.* capture.* zeek.* stream.*` plus the
/// analysis and `cache.*` sections, mirroring the `repro ingest`
/// metrics section so one tenant of the daemon is comparable to one
/// standalone run. Panics on a spec [`TenantSpec::validate`] refuses.
pub fn run_tenant(spec: &TenantSpec, hub: Option<&ObsHub>) -> Metrics {
    if let Err(e) = spec.validate() {
        panic!("{e}");
    }
    let window = Duration::from_secs_f64(spec.window_secs);
    let monitor_cfg = MonitorConfig::default();
    // The stream engine pairs on its calling thread, so parallelism is
    // cross-tenant only and the settled snapshot cannot depend on the
    // pool width.
    let analysis_cfg = AnalysisConfig::default();
    let mut replay = cache_sim::CacheReplay::new(Duration::from_secs(60));
    let mut metrics = Metrics::new();

    let result = match &spec.source {
        TenantSource::Pcap(bytes) => {
            let mut source = pcapio::source::file(&bytes[..]).expect("tenant pcap header");
            let result = stream::process_source_observed(
                &mut source,
                window,
                monitor_cfg,
                analysis_cfg,
                hub,
                |out| {
                    for txn in &out.dns {
                        replay.offer(txn);
                    }
                },
            )
            .expect("tenant stream run");
            metrics.merge(&source.metrics());
            result
        }
        TenantSource::SimRing { houses, days, activity, seed, capacity } => {
            let cfg = workload(*houses, *days, *activity);
            let sim = Simulation::new(cfg, *seed).expect("add_tenant validated the workload");
            let (mut tx, mut rx) =
                pcapio::ring::channel(*capacity, 65_535, pcapio::Backpressure::Block);
            if let Some(hub) = hub {
                tx.set_flight(hub.flight().clone());
            }
            // Producer and engine share the tenant's pool slot via a
            // scoped join; dropping the sink at the end of the producer
            // closure closes the ring and the engine sees EOF.
            let (result, sim_metrics) = xkit::par::join(
                2,
                || {
                    stream::process_source_observed(
                        &mut rx,
                        window,
                        monitor_cfg,
                        analysis_cfg,
                        hub,
                        |out| {
                            for txn in &out.dns {
                                replay.offer(txn);
                            }
                        },
                    )
                    .expect("tenant stream run")
                },
                move || {
                    let (_truth, _frames, sim_metrics) = sim.run_ring(&mut tx);
                    sim_metrics
                },
            );
            metrics.merge(&sim_metrics);
            metrics.merge(&rx.metrics());
            result
        }
    };

    for txn in &result.tail.dns {
        replay.offer(txn);
    }
    metrics.merge(&result.settled_metrics());
    metrics.add("cache.hits", replay.hits());
    metrics.add("cache.misses", replay.misses());
    metrics.add("cache.evicted", replay.evicted());
    metrics.gauge_max("cache.peak_live", replay.peak_live() as f64);

    // The tenant's settled snapshot replaces the engine's last
    // (analysis+stream only) publication, so `/tenants/<id>/snapshot`
    // carries the full document.
    if let Some(hub) = hub {
        hub.publish_metrics(metrics.clone());
    }
    metrics
}

/// The sequential reference fold: run every spec in id order on this
/// thread and merge the settled snapshots. The daemon's post-drain
/// [`Daemon::aggregate`] must be byte-identical to this for any pool
/// width — the lifecycle tests pin it.
pub fn sequential_aggregate(specs: &[TenantSpec]) -> Metrics {
    let mut sorted: Vec<&TenantSpec> = specs.iter().collect();
    sorted.sort_by(|a, b| a.id.cmp(&b.id));
    let mut folded = Metrics::new();
    for spec in sorted {
        folded.merge(&run_tenant(spec, None));
    }
    folded
}
