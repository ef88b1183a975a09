//! The benchmark's workloads: which server, which fleet, how long.
//!
//! Every workload is a closed loop: each simulated client holds one
//! persistent connection and asks for its next ~300 KB chunk only
//! after the previous response completed, so load is set by the
//! client count alone. Servers run their shipped default
//! configurations (`AtlasConfig::default()`, `KstackConfig::netflix()`);
//! only fidelity, encryption and client count vary, plus the stage
//! profiler, which is observation-only.

use dcn_atlas::{AtlasConfig, AtlasServer};
use dcn_faults::FaultConfig;
use dcn_kstack::{KstackConfig, KstackServer};
use dcn_mem::Fidelity;
use dcn_simcore::Nanos;
use dcn_store::Catalog;
use dcn_workload::{FleetConfig, Scenario, ServerKind, VideoServer};

/// Most sub-scenarios any workload runs; sub-seeds are spaced by it.
const MAX_SUB_SCENARIOS: u64 = 16;

/// Catalog shape: the same one `Scenario::smoke` uses.
const CATALOG_FILES: u64 = 50_000;
const CHUNK_BYTES: u64 = 300 * 1024;
const DISKS: usize = 4;

/// Measurement starts here; clients ramp over the first 150 ms.
pub const WARMUP: Nanos = Nanos(250_000_000);
/// Simulated end time of one sub-scenario.
pub const DURATION: Nanos = Nanos(500_000_000);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Atlas, TLS, full fidelity, small fleet, content verification on.
    AtlasTlsVerified,
    /// Atlas, TLS, modeled fidelity, 3,072 clients.
    AtlasTlsScale,
    /// Netflix kernel stack (8 cores), TLS, modeled, 3,072 clients.
    NetflixTlsScale,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::AtlasTlsVerified,
        Workload::AtlasTlsScale,
        Workload::NetflixTlsScale,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::AtlasTlsVerified => "atlas_tls_verified",
            Workload::AtlasTlsScale => "atlas_tls_scale",
            Workload::NetflixTlsScale => "netflix_tls_scale",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    #[must_use]
    pub fn n_clients(self) -> usize {
        match self {
            Workload::AtlasTlsVerified => 24,
            Workload::AtlasTlsScale | Workload::NetflixTlsScale => 3072,
        }
    }

    /// Independent sub-scenarios behind one run. Modeled metrics are
    /// the median over them: one seed's draw of flow RTT bands, or one
    /// pool-exhaustion episode, would otherwise set the whole run.
    #[must_use]
    pub fn sub_scenarios(self) -> usize {
        match self {
            Workload::AtlasTlsVerified => 3,
            Workload::AtlasTlsScale | Workload::NetflixTlsScale => 7,
        }
    }

    /// True when real bytes are sealed, opened and verified.
    #[must_use]
    pub fn full_fidelity(self) -> bool {
        self == Workload::AtlasTlsVerified
    }

    /// The server under test, profiler on.
    #[must_use]
    pub fn server(self) -> ServerKind {
        let fidelity = if self.full_fidelity() {
            Fidelity::Full
        } else {
            Fidelity::Modeled
        };
        match self {
            Workload::AtlasTlsVerified | Workload::AtlasTlsScale => {
                ServerKind::Atlas(AtlasConfig {
                    encrypted: true,
                    fidelity,
                    profile: true,
                    ..AtlasConfig::default()
                })
            }
            Workload::NetflixTlsScale => ServerKind::Kstack(KstackConfig {
                encrypted: true,
                fidelity,
                profile: true,
                ..KstackConfig::netflix()
            }),
        }
    }

    /// The scenario for one sub-seed at the workload's full size.
    #[must_use]
    pub fn scenario(self, seed: u64) -> Scenario {
        self.scenario_sized(seed, self.n_clients(), DURATION)
    }

    /// The scenario with an explicit fleet size and end time (tests
    /// use short, small versions of each workload).
    #[must_use]
    pub fn scenario_sized(self, seed: u64, n_clients: usize, duration: Nanos) -> Scenario {
        self.assemble(seed, n_clients, duration, new_catalog(seed))
    }

    fn assemble(self, seed: u64, n_clients: usize, duration: Nanos, catalog: Catalog) -> Scenario {
        Scenario {
            server: self.server(),
            fleet: FleetConfig {
                n_clients,
                ..FleetConfig::default()
            },
            catalog,
            warmup: WARMUP.min(duration),
            duration,
            seed,
            data_loss: 0.0,
            faults: FaultConfig::default(),
        }
    }
}

fn new_catalog(seed: u64) -> Catalog {
    Catalog::new(CATALOG_FILES, CHUNK_BYTES, DISKS, seed)
}

/// Seed of sub-scenario `i` of a run seeded `seed` (splitmix64, so
/// neighbouring run seeds do not share sub-seeds).
#[must_use]
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    assert!((i as u64) < MAX_SUB_SCENARIOS);
    let mut z = seed
        .wrapping_mul(MAX_SUB_SCENARIOS)
        .wrapping_add(i as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Construct the scenario's server exactly as `run_scenario` does.
#[must_use]
pub fn build_server(sc: &Scenario) -> Box<dyn VideoServer> {
    match &sc.server {
        ServerKind::Atlas(cfg) => {
            Box::new(AtlasServer::new(cfg.clone(), sc.catalog.clone(), sc.seed))
        }
        ServerKind::Kstack(cfg) => {
            Box::new(KstackServer::new(cfg.clone(), sc.catalog.clone(), sc.seed))
        }
    }
}

/// Host time of one set-up: catalog, scenario, server.
#[derive(Clone, Copy, Debug)]
pub struct SetupTiming {
    pub catalog_ns: u64,
    /// Catalog plus scenario plus server construction.
    pub total_ns: u64,
    pub server_ns: u64,
}

/// Build the catalog, the scenario and the server once, timed.
#[must_use]
pub fn time_setup(w: Workload, seed: u64) -> SetupTiming {
    let t0 = std::time::Instant::now();
    let catalog = std::hint::black_box(new_catalog(seed));
    let catalog_ns = t0.elapsed().as_nanos() as u64;
    let sc = w.assemble(seed, w.n_clients(), DURATION, catalog);
    let t1 = std::time::Instant::now();
    let server = std::hint::black_box(build_server(&sc));
    let server_ns = t1.elapsed().as_nanos() as u64;
    let total_ns = t0.elapsed().as_nanos() as u64;
    drop(server);
    SetupTiming {
        catalog_ns,
        total_ns,
        server_ns,
    }
}
