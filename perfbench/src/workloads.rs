//! The four workloads: how each builds its inputs from the seed, what one
//! operation is, and the accounting identities each operation must satisfy.
//! README.md records why each workload exists.

use timely_core::TimelyConfig;
use timely_dse::{
    Constraints, DseReport, Evaluator, Explorer, SearchSpace, ServingCheck, Strategy,
};
use timely_nn::{zoo, Model};
use timely_obs::Recorder;
use timely_sim::{
    ArrivalProcess, Fault, ModelMix, Policy, Scenario, ServingSimulator, Sharding, SimConfig,
    SimReport, StatsMode, TrafficSpec,
};

use crate::splitmix;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["serve-fleet", "serve-burst", "dse-screen", "dse-serve"];

/// The parameters of a serving-simulator workload.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub models: fn() -> Vec<Model>,
    pub chips: usize,
    pub policy: Policy,
    /// Traffic shape, relative to the fleet's capacity.
    pub traffic: TrafficShape,
    /// Model weights of the mix (uniform when empty).
    pub weights: Vec<f64>,
    pub stats: StatsMode,
    /// Fault windows as fractions of the horizon:
    /// (chip, start, length, slowdown; 0 slowdown = outage).
    pub faults: Vec<(usize, f64, f64, f64)>,
    /// Approximate number of arrivals per operation.
    pub requests: f64,
    pub seed: u64,
}

/// Open-loop arrival shapes, as multiples of the fleet's mix capacity.
#[derive(Debug, Clone, Copy)]
pub enum TrafficShape {
    Poisson {
        load: f64,
    },
    /// MMPP: quiet and burst rates as multiples of capacity; `bursts` is the
    /// expected number of bursts per horizon and a quiet period lasts
    /// `quiet_to_burst` times a burst.
    Bursty {
        base_load: f64,
        burst_load: f64,
        bursts: f64,
        quiet_to_burst: f64,
    },
}

impl TrafficShape {
    /// Long-run mean load as a multiple of capacity.
    fn mean_load(&self) -> f64 {
        match *self {
            TrafficShape::Poisson { load } => load,
            TrafficShape::Bursty {
                base_load,
                burst_load,
                quiet_to_burst,
                ..
            } => (base_load * quiet_to_burst + burst_load) / (quiet_to_burst + 1.0),
        }
    }
}

/// Everything one simulator operation needs, built in set-up.
#[derive(Debug)]
pub struct SimInputs {
    pub sim: ServingSimulator,
    pub traffic: TrafficSpec,
    pub scenario: Scenario,
}

impl SimSpec {
    /// The `serve-fleet` workload: 256 replicated paper-default chips under
    /// join-the-shortest-queue at 70% load, streaming statistics.
    pub fn fleet(chips: usize, requests: f64, seed: u64) -> Self {
        SimSpec {
            models: zoo::serving_benchmarks,
            chips,
            policy: Policy::ShortestQueue,
            traffic: TrafficShape::Poisson { load: 0.7 },
            weights: Vec::new(),
            stats: StatsMode::Streaming,
            faults: Vec::new(),
            requests,
            seed,
        }
    }

    /// The `serve-burst` workload: 4 chips batching a weighted mix under
    /// MMPP bursts above capacity, one outage and one straggler, exact
    /// statistics.
    pub fn burst(seed: u64) -> Self {
        SimSpec {
            models: zoo::serving_benchmarks,
            chips: 4,
            // The window spans a few initiation intervals of the small
            // models (ResNet-18 1 us, SqueezeNet 0.8 us, VGG-D 6.6 us).
            policy: Policy::Batched {
                window_s: 4.0e-6,
                max_batch: 8,
            },
            traffic: TrafficShape::Bursty {
                base_load: 0.5,
                burst_load: 1.5,
                bursts: 200.0,
                quiet_to_burst: 4.0,
            },
            // At SERVE_REQUESTS, each model's exact-sample count stays at
            // least 17% away from a power-of-two vector capacity, so a few
            // percent more or fewer arrivals do not double a vector.
            weights: vec![0.1, 0.3, 0.6],
            stats: StatsMode::Exact,
            faults: vec![(1, 0.3, 0.05, 0.0), (2, 0.6, 0.1, 2.0)],
            requests: SERVE_REQUESTS,
            seed,
        }
    }

    /// The simulator each `dse-serve` serving check builds: one chip, the
    /// DSE workload set, 70% load, a few hundred requests.
    pub fn serving_check(seed: u64) -> Self {
        SimSpec {
            models: zoo::dse_benchmarks,
            chips: 1,
            policy: Policy::ShortestQueue,
            traffic: TrafficShape::Poisson { load: 0.7 },
            weights: Vec::new(),
            stats: StatsMode::Exact,
            faults: Vec::new(),
            requests: DSE_SERVING_REQUESTS,
            seed,
        }
    }

    /// Builds the simulator and its traffic: the set-up the `setup_s`
    /// metric times.
    pub fn build(&self, models: &[Model]) -> Result<SimInputs, String> {
        let mut sim = ServingSimulator::new(
            models,
            &TimelyConfig::paper_default(),
            SimConfig {
                seed: self.seed,
                duration_s: 1.0,
                chips: self.chips,
                policy: self.policy,
                sharding: Sharding::Replicate,
            },
        )
        .map_err(|err| format!("simulator set-up: {err}"))?;
        let weights = if self.weights.is_empty() {
            vec![1.0; models.len()]
        } else {
            self.weights.clone()
        };
        let total: f64 = weights.iter().sum();
        // Every chip hosts every model, so a request of model m takes
        // 1/capacity(m) fleet-seconds: the mix capacity is the weighted
        // harmonic mean of the per-model fleet capacities.
        let fleet_seconds_per_request: f64 = weights
            .iter()
            .enumerate()
            .map(|(m, w)| w / total / sim.fleet_capacity_rps(m))
            .sum();
        let capacity = 1.0 / fleet_seconds_per_request;
        let horizon = self.requests / (self.traffic.mean_load() * capacity);
        sim.set_duration(horizon);
        let process = match self.traffic {
            TrafficShape::Poisson { load } => ArrivalProcess::Poisson {
                rate: load * capacity,
            },
            TrafficShape::Bursty {
                base_load,
                burst_load,
                bursts,
                quiet_to_burst,
            } => {
                let cycle = horizon / bursts;
                ArrivalProcess::Bursty {
                    base_rate: base_load * capacity,
                    burst_rate: burst_load * capacity,
                    mean_burst_s: cycle / (quiet_to_burst + 1.0),
                    mean_quiet_s: cycle * quiet_to_burst / (quiet_to_burst + 1.0),
                }
            }
        };
        let mix = ModelMix::try_weighted(weights.into_iter().enumerate().collect())
            .map_err(|err| format!("model mix: {err}"))?;
        let faults = self
            .faults
            .iter()
            .map(|&(chip, start, length, slowdown)| {
                if slowdown == 0.0 {
                    Fault::outage(chip, start * horizon, length * horizon)
                } else {
                    Fault::straggler(chip, start * horizon, length * horizon, slowdown)
                }
            })
            .collect();
        Ok(SimInputs {
            sim,
            traffic: TrafficSpec { process, mix },
            scenario: Scenario {
                faults,
                stats: self.stats,
                ..Scenario::default()
            },
        })
    }
}

impl SimInputs {
    /// One operation: one `run_scenario` call.
    pub fn run<R: Recorder>(&self, recorder: &mut R) -> Result<SimReport, String> {
        self.sim
            .run_scenario_recorded(&self.traffic, &self.scenario, recorder)
            .map_err(|err| format!("run_scenario: {err}"))
    }
}

/// Work units of one simulator operation: arrivals + issues + completions.
pub fn sim_work(report: &SimReport) -> u64 {
    let issued: u64 = report.chips.iter().map(|c| c.issued).sum();
    report.offered + issued + report.completed
}

/// The simulator's accounting identity: every offered request completed,
/// is still queued or in flight, or was shed.
pub fn check_sim(report: &SimReport) -> Result<(), String> {
    if report.offered != report.completed + report.backlog + report.shed {
        return Err(format!(
            "offered {} != completed {} + backlog {} + shed {}",
            report.offered, report.completed, report.backlog, report.shed
        ));
    }
    if report.completed == 0 {
        return Err("no request completed".to_string());
    }
    Ok(())
}

/// Requests per `serve-*` operation. Operations of about half a second
/// give a run dozens of samples, so its fastest decile falls in the quiet
/// stretches of a shared host rather than on one lucky operation.
pub const SERVE_REQUESTS: f64 = 2.5e5;

/// Requests per `dse-serve` serving check (the full `dse_study` setting).
pub const DSE_SERVING_REQUESTS: f64 = 400.0;

/// The parameters of a design-space-exploration workload.
#[derive(Debug, Clone)]
pub struct DseSpec {
    pub models: fn() -> Vec<Model>,
    pub space: fn() -> SearchSpace,
    pub serving: Option<ServingCheck>,
    pub screening: bool,
    pub strategies: Vec<Strategy>,
}

impl DseSpec {
    /// The `dse-screen` workload: a seeded random warm-up, then the
    /// exhaustive grid of the 103,680-point production space, screened.
    /// `grid` below the space size gives the smaller probe of this shape.
    pub fn screen(seed: u64, random: usize, grid: usize) -> Self {
        DseSpec {
            models: zoo::dse_benchmarks,
            space: SearchSpace::production_space,
            serving: None,
            screening: true,
            strategies: vec![
                Strategy::Random {
                    samples: random,
                    seed: splitmix(seed ^ 0x5C4E),
                },
                Strategy::Grid { max_points: grid },
            ],
        }
    }

    /// The `dse-serve` workload: the full `dse_study` search of the paper
    /// neighbourhood with the serving objective on and screening off.
    pub fn serve(seed: u64) -> Self {
        DseSpec {
            models: zoo::dse_benchmarks,
            space: SearchSpace::paper_neighborhood,
            serving: Some(ServingCheck {
                load: 0.7,
                requests: DSE_SERVING_REQUESTS,
                seed: splitmix(seed ^ 0x5E4F),
            }),
            screening: false,
            strategies: vec![
                Strategy::Grid {
                    max_points: usize::MAX,
                },
                Strategy::Random {
                    samples: 64,
                    seed: splitmix(seed ^ 0x4A4D),
                },
                Strategy::HillClimb {
                    starts: 8,
                    max_steps: 16,
                    seed: splitmix(seed ^ 0x4C1B),
                },
            ],
        }
    }

    /// Builds the evaluator: the set-up the `setup_s` metric times (it runs
    /// the `nn` workload analysis of every model).
    pub fn evaluator(&self, models: Vec<Model>) -> Evaluator {
        let evaluator = Evaluator::new(models).with_constraints(Constraints {
            max_area_mm2: Some(400.0),
            max_noise_sigma_lsb: Some(0.5),
            max_latency_ms: None,
        });
        match self.serving {
            Some(serving) => evaluator.with_serving(serving),
            None => evaluator,
        }
    }

    /// A fresh explorer with the paper's design point seeded.
    pub fn explorer(&self, evaluator: &Evaluator) -> Explorer {
        let mut explorer =
            Explorer::new((self.space)(), evaluator.clone()).with_screening(self.screening);
        explorer.seed_config(&TimelyConfig::paper_default());
        explorer
    }
}

/// The explorer's accounting identities.
pub fn check_dse(report: &DseReport) -> Result<(), String> {
    let s = report.screening;
    if s.screened_out + s.evaluated != s.visited {
        return Err(format!(
            "screened_out {} + evaluated {} != visited {}",
            s.screened_out, s.evaluated, s.visited
        ));
    }
    if report.stats.lookups() != s.evaluated {
        return Err(format!(
            "evaluator lookups {} != evaluated {}",
            report.stats.lookups(),
            s.evaluated
        ));
    }
    if report.frontier.is_empty() || report.ranks.len() != report.points.len() {
        return Err("empty frontier or rank count mismatch".to_string());
    }
    Ok(())
}
