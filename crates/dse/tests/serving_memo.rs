//! The evaluator's serving memo against the per-point oracle.
//!
//! The evaluator runs one serving simulation per distinct serving physics
//! (per-chip initiation interval and latency of every model, plus the chip
//! count) and answers every other point with the same physics from its memo.
//! These tests pin that shortcut bitwise: every point's p99 (or infeasibility
//! reason) must equal what a fresh `serving_check` call on that point
//! produces.

use timely_core::{Features, TimelyAccelerator, TimelyConfig};
use timely_dse::{Evaluator, PointOutcome, SearchSpace, ServingCheck};
use timely_nn::{zoo, Model};
use timely_sim::serving_check;

const CHECK: ServingCheck = ServingCheck {
    load: 0.7,
    requests: 60.0,
    seed: 0x5E4F,
};

/// The per-point oracle: a fresh simulation of `config`'s fleet, reduced to
/// what the evaluator reads (the p99, or the exact infeasibility reason).
fn oracle(models: &[Model], config: &TimelyConfig) -> Result<f64, String> {
    let mut per_chip = config.clone();
    per_chip.chips = 1;
    let report = serving_check(
        models,
        &TimelyAccelerator::new(per_chip),
        config.chips.max(1),
        CHECK.load,
        CHECK.requests,
        CHECK.seed,
    )
    .map_err(|err| format!("serving check: {err}"))?;
    if report.completed == 0 {
        return Err("serving check completed no requests".to_string());
    }
    Ok(report.latency.p99_ms)
}

/// Evaluates every point of `space` with the serving check on and checks
/// each serving result against the oracle. Returns the number of serving
/// checks requested, how many of them failed, and the evaluator.
fn check_space_against_oracle(space: &SearchSpace) -> (usize, usize, Evaluator) {
    let models = zoo::dse_benchmarks();
    let mut eval = Evaluator::new(models.clone()).with_serving(CHECK);
    let (mut requested, mut failed) = (0, 0);
    for index in 0..space.len() {
        let config = space.config_at(index);
        let served = match eval.evaluate(&config) {
            PointOutcome::Feasible(report) => Ok(report.objectives.p99_ms),
            PointOutcome::Infeasible { reason } if reason.starts_with("serving check") => {
                Err(reason)
            }
            PointOutcome::Pruned { .. } | PointOutcome::Infeasible { .. } => continue,
        };
        requested += 1;
        failed += usize::from(served.is_err());
        match (served, oracle(&models, &config)) {
            (Ok(memo), Ok(fresh)) => assert_eq!(
                memo.to_bits(),
                fresh.to_bits(),
                "p99 of point {index} differs from a fresh run: {memo} vs {fresh}"
            ),
            (Err(memo), Err(fresh)) => assert_eq!(memo, fresh, "reason of point {index}"),
            (memo, fresh) => panic!("point {index}: evaluator {memo:?} vs oracle {fresh:?}"),
        }
    }
    (requested, failed, eval)
}

#[test]
fn memo_matches_the_oracle_over_the_paper_neighborhood() {
    let (requested, _, eval) = check_space_against_oracle(&SearchSpace::paper_neighborhood());
    let counts = eval.serving_counts();
    assert_eq!(counts.runs + counts.memo_hits, requested);
    assert!(requested > 0);
    // Orientation and feature-set twins share one run, so at most half the
    // requested checks simulate.
    assert!(
        2 * counts.runs <= requested,
        "{} runs for {requested} serving checks",
        counts.runs
    );
}

#[test]
fn memo_matches_the_oracle_across_chip_counts() {
    // Few sub-chips per chip: some models fit a 2- or 4-chip fleet but not one
    // chip, which takes the uncached path with its exact error reason.
    let space = SearchSpace {
        crossbar_sizes: vec![128, 256],
        subchip_geometries: vec![(16, 12), (12, 16)],
        subchips_per_chip: vec![1, 4, 53],
        chips: vec![1, 2, 4],
        feature_sets: vec![Features::all(), Features::none()],
        ..SearchSpace::paper_point()
    };
    let (requested, failed, eval) = check_space_against_oracle(&space);
    let counts = eval.serving_counts();
    assert_eq!(counts.runs + counts.memo_hits, requested);
    assert!(counts.memo_hits > 0 && counts.runs > 0);
    assert!(failed > 0, "no point took the uncached path");
}

#[test]
fn twins_share_a_run_but_chip_counts_do_not() {
    let mut eval = Evaluator::new(zoo::dse_benchmarks()).with_serving(CHECK);
    let paper = TimelyConfig::paper_default();
    let p99 = |outcome: PointOutcome| {
        outcome
            .report()
            .map(|report| report.objectives.p99_ms.to_bits())
            .expect("feasible")
    };
    let base = p99(eval.evaluate(&paper));
    assert_eq!(
        (eval.serving_counts().runs, eval.serving_counts().memo_hits),
        (1, 0)
    );

    // 16x12 and 12x16 sub-chips have the same serving physics.
    let transposed = TimelyConfig {
        subchip_rows: paper.subchip_cols,
        subchip_cols: paper.subchip_rows,
        ..paper.clone()
    };
    assert_ne!(transposed.stable_hash(), paper.stable_hash());
    assert_eq!(p99(eval.evaluate(&transposed)), base);
    assert_eq!(
        (eval.serving_counts().runs, eval.serving_counts().memo_hits),
        (1, 1)
    );

    // The same point on two chips is a different fleet.
    let two_chips = TimelyConfig {
        chips: 2,
        ..paper.clone()
    };
    p99(eval.evaluate(&two_chips));
    assert_eq!(
        (eval.serving_counts().runs, eval.serving_counts().memo_hits),
        (2, 1)
    );

    // Point-cache hits never reach the serving check.
    eval.evaluate(&paper);
    assert_eq!(
        (eval.serving_counts().runs, eval.serving_counts().memo_hits),
        (2, 1)
    );
}
