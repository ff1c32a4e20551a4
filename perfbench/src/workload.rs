//! The workloads: their configurations, how they run, and the initial
//! conditions each draws from the workload seed.

use hacc::core::{SimConfig, SolverKind};
use hacc::cosmo::{LinearPower, Transfer};
use hacc::ics::IcsRealization;

/// Ranks every workload runs on (one thread or process per rank).
pub const RANKS: usize = 2;

/// How a workload's operation drives the distributed step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `DistSimulation` on an in-process `Machine`.
    InProcess,
    /// `DistSimulation` over the socket transport, one OS process per
    /// rank, launched by the hub.
    Socket,
    /// `run_resilient` with default recovery policy.
    Resilient,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as `--workload` takes it.
    pub name: &'static str,
    /// Driver configuration handed to the program unchanged.
    pub cfg: SimConfig,
    /// Particles per side (`np³` particles).
    pub np: usize,
    /// How the run is driven.
    pub driver: Driver,
    /// Write a checkpoint set every this many steps (socket workload).
    pub checkpoint_every: Option<u64>,
    /// Allowed |measured/linear − 1| of the lowest P(k) bin's growth,
    /// set from the seed sweep in `tests/growth_sweep.rs`.
    pub growth_tol: f64,
    /// Wall seconds of one run on a 2-vCPU x86-64 host; fixes how many
    /// runs fit `--seconds`.
    pub nominal_run_s: f64,
}

impl Workload {
    /// Look a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Workload> {
        all().into_iter().find(|w| w.name == name)
    }

    /// Total particle count.
    #[must_use]
    pub fn particles(&self) -> usize {
        self.np * self.np * self.np
    }

    /// Short-range sub-steps per long-range step.
    #[must_use]
    pub fn substeps(&self) -> usize {
        self.cfg.subcycles.max(1)
    }

    /// Zel'dovich initial conditions for `seed` — the only input the
    /// program receives.
    #[must_use]
    pub fn ics(&self, seed: u64) -> IcsRealization {
        let power = LinearPower::new(&self.cfg.cosmology, Transfer::EisensteinHuNoWiggle);
        hacc::ics::zeldovich(self.np, self.cfg.box_len, &power, self.cfg.a_init, seed)
    }
}

/// PM-only at the paper's one particle per cell.
fn pm_config() -> SimConfig {
    SimConfig {
        ng: 64,
        box_len: 128.0,
        a_init: 0.05,
        a_final: 0.5,
        steps: 30,
        solver: SolverKind::PmOnly,
        ..SimConfig::small_lcdm()
    }
}

/// Every workload; `BENCHMARK.json` lists all but `lcdm_default` (see
/// `NOTES.md`).
#[must_use]
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "pm_mesh",
            cfg: pm_config(),
            np: 64,
            driver: Driver::InProcess,
            checkpoint_every: None,
            growth_tol: 0.2,
            nominal_run_s: 6.8,
        },
        Workload {
            name: "treepm_clustered",
            // Δln a ≈ 0.023 per step: the step size measured clean on
            // every seed. Coarser steps reach the deposit-halo defect
            // `lcdm_default` shows, so the run is shortened through
            // `a_final`, never through the step size.
            cfg: SimConfig {
                ng: 32,
                box_len: 64.0,
                a_init: 0.1,
                a_final: 0.2,
                steps: 30,
                subcycles: 4,
                solver: SolverKind::TreePm,
                ..SimConfig::small_lcdm()
            },
            np: 32,
            driver: Driver::InProcess,
            checkpoint_every: None,
            growth_tol: 0.15,
            nominal_run_s: 10.0,
        },
        Workload {
            name: "pm_socket",
            cfg: pm_config(),
            np: 64,
            driver: Driver::Socket,
            checkpoint_every: Some(5),
            growth_tol: 0.2,
            nominal_run_s: 17.0,
        },
        Workload {
            name: "lcdm_default",
            cfg: SimConfig::small_lcdm(),
            np: 32,
            driver: Driver::Resilient,
            checkpoint_every: None,
            // Uncalibrated: no run of this workload completes yet.
            growth_tol: 0.25,
            // Time to terminal failure while the defect stands.
            nominal_run_s: 10.0,
        },
    ]
}
