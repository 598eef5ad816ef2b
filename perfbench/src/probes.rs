//! Layer probes for the traced run: each times one layer's public function
//! over a fixed batch of calls, inside one span whose `calls` field carries
//! the batch size, so cost per call is the span's duration over its calls.

use std::hint::black_box;

use timely_core::{Backend, TimelyAccelerator, TimelyConfig};
use timely_dse::{dominance_ranks_flat, frontier_indices_flat, DseReport, Evaluator, SearchSpace};
use timely_nn::{Model, ModelWorkload};
use timely_obs::{Histogram, NoopRecorder};
use timely_sim::{EventQueue, LatencyStats, QueueKind};

use crate::trace::Tracer;
use crate::workloads::{sim_work, SimSpec};
use crate::{splitmix, unit_f64};

/// Fleet sizes of the `sim.fleet.ns_per_event.c*` sweep.
pub const FLEET_SIZES: [usize; 4] = [2, 16, 64, 256];
/// Hold depths of the `sim.queue.ns_per_op.d*` probe.
pub const QUEUE_DEPTHS: [usize; 3] = [64, 1024, 16384];
/// Requests per fleet-sweep run.
const FLEET_REQUESTS: f64 = 100_000.0;

/// `nn.analyze`: `ModelWorkload::try_analyze` over the workload's models.
pub fn nn_analyze(tracer: &mut Tracer, models: &[Model]) -> Result<(), String> {
    const REPS: usize = 64;
    tracer.span("nn.analyze", (REPS * models.len()) as u64, |_| {
        for _ in 0..REPS {
            for model in models {
                let workload = ModelWorkload::try_analyze(black_box(model))
                    .map_err(|err| format!("analyze {}: {err}", model.name()))?;
                black_box(workload);
            }
        }
        Ok(())
    })
}

/// `core.evaluate`: `Backend::evaluate` of one paper-default chip, per model.
pub fn core_evaluate(tracer: &mut Tracer, models: &[Model]) -> Result<(), String> {
    const REPS: usize = 32;
    let mut config = TimelyConfig::paper_default();
    config.chips = 1;
    let backend = TimelyAccelerator::new(config);
    tracer.span("core.evaluate", (REPS * models.len()) as u64, |_| {
        for _ in 0..REPS {
            for model in models {
                let outcome = Backend::evaluate(&backend, black_box(model))
                    .map_err(|err| format!("evaluate {}: {err}", model.name()))?;
                black_box(outcome);
            }
        }
        Ok(())
    })
}

/// `dse.decode` and `dse.screen`: `SearchSpace::config_at` and
/// `Evaluator::screen_bounds` over an evenly spread sample of the space.
/// Screening is timed on a second pass: a search visits each placement key
/// thousands of times, so the first-visit cost of building placements is
/// amortized away there, and must not dominate a sample.
pub fn dse_decode_screen(tracer: &mut Tracer, space: &SearchSpace, evaluator: &Evaluator) {
    const SAMPLE: usize = 8192;
    let len = space.len();
    let n = SAMPLE.min(len);
    let configs: Vec<_> = (0..n).map(|i| space.config_at(i * len / n)).collect();
    tracer.span("dse.decode", n as u64, |_| {
        for i in 0..n {
            black_box(space.config_at(black_box(i * len / n)));
        }
    });
    let mut evaluator = evaluator.clone();
    let mut bounds = Vec::new();
    for config in &configs {
        evaluator.screen_bounds(config, &mut bounds);
    }
    tracer.span("dse.screen", n as u64, |_| {
        for config in &configs {
            black_box(evaluator.screen_bounds(config, &mut bounds));
        }
    });
}

/// `dse.evaluate` and `dse.evaluate.hit`: `Evaluator::evaluate` of the
/// report's pooled points in a fresh evaluator (misses), then again (memo
/// hits).
pub fn dse_evaluate(tracer: &mut Tracer, report: &DseReport, evaluator: &Evaluator) {
    const SAMPLE: usize = 64;
    let step = report.points.len().div_ceil(SAMPLE).max(1);
    let configs: Vec<&TimelyConfig> = report
        .points
        .iter()
        .step_by(step)
        .map(|p| &p.config)
        .collect();
    // Build the placements these points share first (screening does, and
    // fills no memo entry), for the same reason as in `dse_decode_screen`.
    let mut evaluator = evaluator.clone();
    let mut bounds = Vec::new();
    for config in &configs {
        evaluator.screen_bounds(config, &mut bounds);
    }
    tracer.span("dse.evaluate", configs.len() as u64, |_| {
        for config in &configs {
            black_box(evaluator.evaluate(config));
        }
    });
    const HIT_REPS: usize = 16;
    tracer.span(
        "dse.evaluate.hit",
        (HIT_REPS * configs.len()) as u64,
        |_| {
            for _ in 0..HIT_REPS {
                for config in &configs {
                    black_box(evaluator.evaluate(config));
                }
            }
        },
    );
}

/// `dse.pareto`: `frontier_indices_flat` + `dominance_ranks_flat` over the
/// report's objective matrix.
pub fn dse_pareto(tracer: &mut Tracer, report: &DseReport) {
    const REPS: usize = 16;
    let dims = report.objective_labels.len();
    let with_serving = dims > 4;
    let mut flat = Vec::with_capacity(report.points.len() * dims);
    for point in &report.points {
        point.objectives.extend_vector(with_serving, &mut flat);
    }
    tracer.span("dse.pareto", REPS as u64, |_| {
        for _ in 0..REPS {
            black_box(frontier_indices_flat(black_box(&flat), dims));
            black_box(dominance_ranks_flat(black_box(&flat), dims));
        }
    });
}

/// `sim.fleet.c<N>`: the serve-fleet traffic at each fleet size.
pub fn sim_fleet(tracer: &mut Tracer, seed: u64) -> Result<(), String> {
    for chips in FLEET_SIZES {
        let spec = SimSpec::fleet(chips, FLEET_REQUESTS, seed);
        let inputs = spec.build(&(spec.models)())?;
        // Each span covers one run; its `calls` is set to the work units
        // once the run has finished.
        let report = tracer.span(&format!("sim.fleet.c{chips}"), 0, |_| {
            inputs.run(&mut NoopRecorder)
        })?;
        if let Some(span) = tracer.last_mut() {
            span.calls = sim_work(&report);
        }
    }
    Ok(())
}

/// `sim.queue.d<D>`: `EventQueue` push + pop in the hold model (pop the
/// earliest event, push one a random interval later) at a fixed depth.
pub fn sim_queue(tracer: &mut Tracer, seed: u64) {
    const OPS: usize = 1 << 20;
    for depth in QUEUE_DEPTHS {
        let mut state = splitmix(seed ^ depth as u64);
        let mut next = || {
            state = splitmix(state);
            unit_f64(state)
        };
        let mut queue: EventQueue<u64> = EventQueue::with_kind(QueueKind::Calendar);
        for i in 0..depth {
            queue.push(next() * depth as f64, i as u64);
        }
        tracer.span(&format!("sim.queue.d{depth}"), OPS as u64, |_| {
            for _ in 0..OPS {
                if let Some((time, event)) = queue.pop() {
                    queue.push(time + next() * depth as f64, black_box(event));
                }
            }
        });
        black_box(queue.len());
    }
}

/// `sim.stats.exact` (`LatencyStats::from_samples_s`) and
/// `sim.stats.streaming` (`Histogram::record`).
pub fn sim_stats(tracer: &mut Tracer, seed: u64) {
    const SAMPLES: usize = 1 << 18;
    const REPS: usize = 4;
    let mut state = splitmix(seed ^ 0x57A7);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            state = splitmix(state);
            // Exponential latencies around a millisecond.
            -1e-3 * (1.0 - unit_f64(state)).ln()
        })
        .collect();
    tracer.span("sim.stats.exact", (REPS * SAMPLES) as u64, |_| {
        for _ in 0..REPS {
            black_box(LatencyStats::from_samples_s(black_box(&samples)));
        }
    });
    let mut histogram = Histogram::default_log_scale();
    tracer.span("sim.stats.streaming", (REPS * SAMPLES) as u64, |_| {
        for _ in 0..REPS {
            for &sample in &samples {
                histogram.record(black_box(sample * 1e3));
            }
        }
    });
    black_box(histogram.count());
}
