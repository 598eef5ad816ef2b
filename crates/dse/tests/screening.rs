//! Property and integration tests for bound-based screening and the
//! incremental (placement-reusing) evaluation path.
//!
//! The two load-bearing claims, each pinned here:
//!
//! * **Screening soundness** — [`Evaluator::screen_bounds`] never returns a
//!   bound above the true objective, so no eventual frontier point can be
//!   screened out, and the screened and unscreened frontiers are identical.
//! * **Incremental equivalence** — evaluating a hill-climb neighbor through
//!   an evaluator with warm placement caches is bit-identical (via the
//!   canonical serde encoding) to a from-scratch evaluation, which itself
//!   matches the `Backend::evaluate` trait path bitwise.
//!
//! Case counts are capped for the single-CPU CI container; override with
//! `PROPTEST_CASES`.

use proptest::prelude::*;
use timely_core::{Backend, TimelyAccelerator, TimelyConfig};
use timely_dse::{
    dominates, BoundCheck, Constraints, Evaluator, Explorer, SearchSpace, ServingCheck, Strategy,
};
use timely_nn::{zoo, Model};

/// The constraints of the production study (area cap, accuracy floor).
fn study_constraints(max_latency_ms: Option<f64>) -> Constraints {
    Constraints {
        max_area_mm2: Some(400.0),
        max_noise_sigma_lsb: Some(0.5),
        max_latency_ms,
    }
}

/// The average {energy mJ, latency ms} and the area (mm²) of `config` over
/// `models` computed through the public `Backend::evaluate` trait path — the
/// pre-screening reference implementation the fast path must match bitwise.
fn trait_path_objectives(config: &TimelyConfig, models: &[Model]) -> Option<(f64, f64, f64)> {
    let accelerator = TimelyAccelerator::new(config.clone());
    let mut energy_mj = 0.0;
    let mut latency_ms = 0.0;
    let mut area_mm2 = 0.0;
    for model in models {
        let outcome = Backend::evaluate(&accelerator, model).ok()?;
        energy_mj += outcome.energy_millijoules();
        latency_ms += outcome.physics.single_inference_latency.as_seconds() * 1e3;
        area_mm2 = outcome.area_mm2;
    }
    let count = models.len() as f64;
    Some((energy_mj / count, latency_ms / count, area_mm2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random production-space candidates, `screen_bounds` is sound:
    /// `Bounds` values equal the true objectives bitwise (the TIMELY bounds
    /// are exact on the analytic axes), and `NeverFeasible` candidates are
    /// in fact never feasible. No frontier point can ever be screened out.
    #[test]
    fn screening_bounds_are_admissible(
        index in 0usize..103_680,
        cap_choice in 0usize..3,
    ) {
        let space = SearchSpace::production_space();
        let config = space.config_at(index % space.len());
        let cap = [None, Some(0.5), Some(50.0)][cap_choice];
        let mut eval = Evaluator::new(vec![zoo::cnn_1()])
            .with_constraints(study_constraints(cap));
        let mut bounds = Vec::new();
        let check = eval.screen_bounds(&config, &mut bounds);
        let outcome = eval.evaluate(&config);
        match check {
            BoundCheck::Bounds => {
                // Without a serving check, exact bounds on every axis mean
                // the candidate is feasible and the bounds ARE its vector.
                let report = outcome.report().expect("exact bounds imply feasible");
                let vector = report.objectives.vector(false);
                prop_assert_eq!(bounds.len(), vector.len());
                for (axis, (b, v)) in bounds.iter().zip(&vector).enumerate() {
                    prop_assert!(
                        b <= v,
                        "bound {b} exceeds objective {v} on axis {axis}"
                    );
                    // The TIMELY bounds are exact on every analytic axis.
                    prop_assert_eq!(b.to_bits(), v.to_bits());
                }
            }
            BoundCheck::NeverFeasible => {
                prop_assert!(
                    outcome.report().is_none(),
                    "a NeverFeasible candidate evaluated as feasible"
                );
            }
            BoundCheck::Unknown => {} // no claim
        }
    }

    /// A hill-climb neighbor evaluated through warm placement caches is
    /// byte-identical (canonical serde encoding) to a from-scratch
    /// evaluation, and its objectives match the `Backend::evaluate` trait
    /// path bitwise.
    #[test]
    fn incremental_evaluation_is_bit_identical(
        index in 0usize..103_680,
        axis in 0usize..timely_dse::AXES,
        step_up in 0usize..2,
    ) {
        let space = SearchSpace::production_space();
        let base_coords = space.coords_at(index % space.len());
        let sizes = space.axis_sizes();
        let mut neighbor = base_coords;
        if step_up == 1 && neighbor[axis] + 1 < sizes[axis] {
            neighbor[axis] += 1;
        } else if neighbor[axis] > 0 {
            neighbor[axis] -= 1;
        }
        let base = space.decode(&base_coords);
        let config = space.decode(&neighbor);
        let models = vec![zoo::cnn_1(), zoo::mlp_l()];

        // Warm path: the base evaluation populates the per-(B, cell-width)
        // placement cache the neighbor then reuses.
        let mut warm = Evaluator::new(models.clone());
        let _ = warm.evaluate(&base);
        let incremental = warm.evaluate(&config);

        // Cold path: a fresh evaluator sees the neighbor first.
        let mut cold = Evaluator::new(models.clone());
        let scratch = cold.evaluate(&config);

        prop_assert_eq!(
            serde::json::to_string(&incremental.report()),
            serde::json::to_string(&scratch.report())
        );
        if let Some(report) = incremental.report() {
            let (energy_mj, latency_ms, area_mm2) = trait_path_objectives(&config, &models)
                .expect("feasible point evaluates through the trait path");
            prop_assert_eq!(
                report.objectives.energy_mj_per_inference.to_bits(),
                energy_mj.to_bits()
            );
            prop_assert_eq!(report.objectives.latency_ms.to_bits(), latency_ms.to_bits());
            prop_assert_eq!(report.objectives.area_mm2.to_bits(), area_mm2.to_bits());
        }
    }
}

/// The screening bounds are TIMELY's own numbers: for models that evaluate,
/// `screen_bounds` answers `Bounds` whose energy, latency and area equal the
/// `Backend::evaluate` trait path bitwise. A model too large for the chip is
/// `NeverFeasible`, and an invalid configuration is left to the evaluator
/// (`Unknown`).
#[test]
fn screen_bounds_are_the_trait_path_numbers() {
    for config in [TimelyConfig::paper_default(), TimelyConfig::paper_16bit()] {
        for model in [zoo::cnn_1(), zoo::vgg_d()] {
            let mut bounds = Vec::new();
            let check = Evaluator::new(vec![model.clone()]).screen_bounds(&config, &mut bounds);
            assert_eq!(check, BoundCheck::Bounds, "{}", model.name());
            let (energy_mj, latency_ms, area_mm2) =
                trait_path_objectives(&config, &[model]).expect("model evaluates");
            assert_eq!(bounds[0].to_bits(), energy_mj.to_bits());
            assert_eq!(bounds[1].to_bits(), latency_ms.to_bits());
            assert_eq!(bounds[2].to_bits(), area_mm2.to_bits());
        }
    }
    let mut bounds = Vec::new();
    let tiny = TimelyConfig {
        subchips_per_chip: 1,
        ..TimelyConfig::paper_default()
    };
    assert_eq!(
        Evaluator::new(vec![zoo::vgg_d()]).screen_bounds(&tiny, &mut bounds),
        BoundCheck::NeverFeasible
    );
    let invalid = TimelyConfig {
        crossbar_size: 0,
        ..TimelyConfig::paper_default()
    };
    assert_eq!(
        Evaluator::new(vec![zoo::cnn_1()]).screen_bounds(&invalid, &mut bounds),
        BoundCheck::Unknown
    );
}

/// With the serving axis enabled, the p99 bound (the smallest single-model
/// inference latency) never exceeds the simulated p99: queueing and service
/// can only add to it.
#[test]
fn p99_bound_never_exceeds_the_true_p99() {
    let mut eval = Evaluator::new(vec![zoo::cnn_1()]).with_serving(ServingCheck::default());
    for config in [
        TimelyConfig::paper_default(),
        TimelyConfig {
            gamma: 4,
            subchips_per_chip: 106,
            ..TimelyConfig::paper_default()
        },
    ] {
        let mut bounds = Vec::new();
        assert_eq!(eval.screen_bounds(&config, &mut bounds), BoundCheck::Bounds);
        assert_eq!(bounds.len(), 5);
        let outcome = eval.evaluate(&config);
        let report = outcome
            .report()
            .expect("paper-neighborhood point is feasible");
        assert!(report.objectives.p99_ms > 0.0, "serving check filled p99");
        assert!(
            bounds[4] <= report.objectives.p99_ms,
            "p99 bound {} exceeds simulated p99 {}",
            bounds[4],
            report.objectives.p99_ms
        );
        // The analytic axes stay exact even with serving enabled.
        let vector = report.objectives.vector(true);
        for axis in 0..4 {
            assert_eq!(bounds[axis].to_bits(), vector[axis].to_bits());
        }
    }
}

/// Screening changes how much work the search does, never what it finds:
/// the screened and unscreened frontiers over the paper neighborhood are
/// identical, a majority of candidates are skipped, and the candidate
/// counters balance.
#[test]
fn screening_preserves_the_frontier_and_skips_work() {
    let run = |screening: bool| {
        let mut explorer = Explorer::new(
            SearchSpace::paper_neighborhood(),
            Evaluator::new(vec![zoo::cnn_1()]).with_constraints(study_constraints(None)),
        )
        .with_screening(screening);
        explorer.seed_config(&TimelyConfig::paper_default());
        explorer.run(&Strategy::Grid {
            max_points: usize::MAX,
        });
        explorer.report()
    };
    let screened = run(true);
    let unscreened = run(false);

    // Identical frontiers, compared by config hash and objective vector.
    let frontier = |report: &timely_dse::DseReport| -> Vec<(u64, Vec<f64>)> {
        report
            .frontier_points()
            .map(|p| (p.config_hash, p.objectives.vector(false)))
            .collect()
    };
    assert_eq!(frontier(&screened), frontier(&unscreened));
    assert!(!screened.frontier.is_empty());

    // Counter invariant and actual savings.
    let stats = screened.screening;
    assert_eq!(stats.screened_out + stats.evaluated, stats.visited);
    assert_eq!(stats.visited, 649); // seed + full grid
    assert!(stats.screened_out > 0, "screening skipped nothing");
    assert!(
        screened.stats.evaluations < unscreened.stats.evaluations,
        "screening did not reduce evaluator work"
    );
    // The unscreened run evaluates everything it visits.
    assert_eq!(unscreened.screening.screened_out, 0);
    assert_eq!(unscreened.screening.evaluated, unscreened.screening.visited);
}

/// Screened-out candidates never include a point the unscreened frontier
/// needs: every pooled unscreened frontier vector survives in the screened
/// pool too (paranoid complement to the frontier-equality check, phrased
/// through dominance directly).
#[test]
fn no_unscreened_frontier_vector_is_dominated_in_the_screened_pool() {
    let space = SearchSpace::paper_neighborhood();
    let mut screened = Explorer::new(
        space.clone(),
        Evaluator::new(vec![zoo::cnn_1()]).with_constraints(study_constraints(None)),
    )
    .with_screening(true);
    screened.run(&Strategy::Grid {
        max_points: usize::MAX,
    });
    let report = screened.report();
    let vectors: Vec<Vec<f64>> = report
        .frontier_points()
        .map(|p| p.objectives.vector(false))
        .collect();
    for (i, a) in vectors.iter().enumerate() {
        for (j, b) in vectors.iter().enumerate() {
            if i != j {
                assert!(!dominates(a, b), "screened frontier {i} dominates {j}");
            }
        }
    }
}

/// Re-running the same strategy over the same space is answered entirely
/// from the memo-cache: the second pass adds lookups but no fresh
/// evaluations, prunes, or infeasibility checks.
#[test]
fn rerunning_a_strategy_is_pure_cache_hits() {
    let space = SearchSpace {
        gammas: vec![4, 8, 16],
        subchips_per_chip: vec![53, 106],
        feature_sets: vec![timely_core::Features::all(), timely_core::Features::none()],
        ..SearchSpace::paper_point()
    };
    let mut explorer = Explorer::new(space, Evaluator::new(vec![zoo::cnn_1()]));
    let grid = Strategy::Grid {
        max_points: usize::MAX,
    };
    explorer.run(&grid);
    let first = explorer.eval_stats();
    assert_eq!(first.cache_hits, 0, "first pass saw a cache hit");
    assert!(first.lookups() > 0);

    explorer.run(&grid);
    let second = explorer.eval_stats();
    // 100% hit rate on the second pass: the hit counter grows by exactly
    // the first pass's lookup count, the miss counters not at all.
    assert_eq!(second.cache_hits - first.cache_hits, first.lookups());
    assert_eq!(second.cache_misses(), first.cache_misses());
    assert_eq!(explorer.screen_stats().visited, 2 * first.lookups());
}
