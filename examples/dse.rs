//! Design-space exploration quickstart: search a neighborhood of the paper's
//! design point, print the Pareto frontier, pick the lowest-energy point, and
//! sanity-check it under serving load.
//!
//! Run with `cargo run --release --example dse`.

use timely::prelude::*;

fn main() {
    // 1. Declare the search space: three axes around the paper's design.
    let space = SearchSpace {
        gammas: vec![4, 8, 16],
        subchips_per_chip: vec![53, 106, 212],
        cell_bits: vec![2, 4],
        ..SearchSpace::paper_point()
    };

    // 2. Search it: exhaustive grid, with an area cap, a serving check at
    //    70% load, and the paper default force-included for reference.
    let evaluator = Evaluator::new(timely::nn::zoo::dse_benchmarks())
        .with_constraints(Constraints {
            max_area_mm2: Some(200.0),
            ..Constraints::default()
        })
        .with_serving(ServingCheck::default());
    let mut explorer = Explorer::new(space, evaluator);
    let paper = TimelyConfig::paper_default();
    explorer.seed_config(&paper);
    explorer.run(&Strategy::Grid {
        max_points: usize::MAX,
    });
    let report = explorer.report();

    // 3. Read the frontier.
    println!(
        "evaluated {} points ({} pruned, {} infeasible); frontier has {} points:",
        report.stats.evaluations,
        report.stats.pruned,
        report.stats.infeasible,
        report.frontier.len()
    );
    println!(
        "{:>6} {:>5} {:>5} {:>8} {:>8} {:>10} {:>8}",
        "gamma", "chi", "cell", "mJ/inf", "lat ms", "area mm2", "p99 ms"
    );
    for point in report.frontier_points() {
        let cfg = &point.config;
        let obj = &point.objectives;
        println!(
            "{:>6} {:>5} {:>5} {:>8.3} {:>8.3} {:>10.1} {:>8.3}",
            cfg.gamma,
            cfg.subchips_per_chip,
            cfg.cell_bits,
            obj.energy_mj_per_inference,
            obj.latency_ms,
            obj.area_mm2,
            obj.p99_ms
        );
    }
    println!(
        "paper default verdict: {:?}",
        report.frontier_verdict(&paper)
    );

    // 4. Pick a point (lowest energy on the frontier) and double-check it
    //    with a longer, independent serving run.
    let pick = report
        .frontier_points()
        .min_by(|a, b| {
            a.objectives
                .energy_mj_per_inference
                .total_cmp(&b.objectives.energy_mj_per_inference)
        })
        .expect("frontier is non-empty");
    let mut chip = pick.config.clone();
    chip.chips = 1;
    let serving = timely::sim::serving_check(
        &timely::nn::zoo::dse_benchmarks(),
        &TimelyAccelerator::new(chip),
        pick.config.chips,
        0.7,
        2_000.0,
        7,
    )
    .expect("frontier points are feasible");
    println!(
        "picked gamma={} chi={} cell={}b: long serving check p50 {:.3} ms, p99 {:.3} ms, util {:.1}%",
        pick.config.gamma,
        pick.config.subchips_per_chip,
        pick.config.cell_bits,
        serving.latency.p50_ms,
        serving.latency.p99_ms,
        100.0 * serving.mean_utilization()
    );
}
