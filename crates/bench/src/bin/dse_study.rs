//! Design-space study: searches the default neighborhood around the paper's
//! design point with every `timely-dse` strategy (exhaustive grid, seeded
//! random sampling, coordinate-descent hill-climbing) and prints the Pareto
//! frontier over {energy/inference, latency, area, accuracy proxy, p99 under
//! load}, plus where the paper's hand-picked configuration lands on it.
//!
//! Run with `cargo run --release -p timely-bench --bin dse_study`; pass
//! `--smoke` for a fast CI-sized run. Everything is seeded, so repeated runs
//! print byte-identical output (pinned by a golden-file test).
//!
//! Observability flags (all deterministic; notes go to stderr so the
//! golden-pinned stdout is untouched):
//!
//! * `--trace <path>` writes a Chrome trace-event JSON with one span per
//!   search strategy on the logical candidate axis (1 tick = 1 candidate);
//! * `--metrics <path>` writes the `dse.screen.*` / `dse.eval.*` counters as
//!   a sorted text report.
//!
//! Unknown, repeated or value-less flags exit with code 2 and a usage line;
//! an unwritable `--trace` or `--metrics` path exits with code 1.

use timely_baselines::baseline_registry;
use timely_bench::cli::{write_or_exit, FlagSpec};
use timely_bench::table::Table;
use timely_core::{Features, TimelyConfig};
use timely_dse::{
    Constraints, Evaluator, Explorer, FrontierVerdict, PointReport, ReferenceVerdict, SearchSpace,
    ServingCheck, Strategy,
};
use timely_nn::zoo;
use timely_obs::{ChromeTrace, Recorder, TraceRecorder};

const SEED: u64 = 0xD5E4;

const FLAGS: FlagSpec = FlagSpec {
    switches: &["--smoke"],
    valued: &["--trace", "--metrics"],
    usage: "usage: dse_study [--smoke] [--trace <path>] [--metrics <path>]",
};

fn main() {
    let flags = FLAGS.parse_env_or_exit();
    let smoke = flags.has("--smoke");
    let trace_path = flags.value("--trace");
    let metrics_path = flags.value("--metrics");
    let min_evaluated = if smoke { 20 } else { 200 };

    // The search setup: the default neighborhood around the paper's design
    // point, evaluated on the DSE workload set, with an area cap, an
    // accuracy floor, and a 70%-load serving check.
    let space = SearchSpace::paper_neighborhood();
    let constraints = Constraints {
        max_area_mm2: Some(400.0),
        max_noise_sigma_lsb: Some(0.5),
        max_latency_ms: None,
    };
    let serving = ServingCheck {
        load: 0.7,
        requests: if smoke { 150.0 } else { 400.0 },
        seed: SEED,
    };
    let evaluator = Evaluator::new(zoo::dse_benchmarks())
        .with_constraints(constraints)
        .with_serving(serving);
    let mut explorer = Explorer::new(space, evaluator);

    // Always evaluate the paper's design point so the frontier relates to it.
    let paper = TimelyConfig::paper_default();
    explorer.seed_config(&paper);

    let strategies: Vec<(&str, Strategy)> = if smoke {
        vec![
            ("grid/48", Strategy::Grid { max_points: 48 }),
            (
                "random/16",
                Strategy::Random {
                    samples: 16,
                    seed: SEED,
                },
            ),
            (
                "hill-climb/2",
                Strategy::HillClimb {
                    starts: 2,
                    max_steps: 8,
                    seed: SEED + 1,
                },
            ),
        ]
    } else {
        vec![
            (
                "grid/full",
                Strategy::Grid {
                    max_points: usize::MAX,
                },
            ),
            (
                "random/64",
                Strategy::Random {
                    samples: 64,
                    seed: SEED,
                },
            ),
            (
                "hill-climb/8",
                Strategy::HillClimb {
                    starts: 8,
                    max_steps: 16,
                    seed: SEED + 1,
                },
            ),
        ]
    };
    let mut recorder = TraceRecorder::new();
    // One `dse.strategy` span per strategy, on cumulative candidates visited.
    for (_, strategy) in &strategies {
        let start = explorer.screen_stats().visited as f64;
        explorer.run(strategy);
        let end = explorer.screen_stats().visited as f64;
        recorder.span(0, &strategy.label(), "dse.strategy", start, end);
    }
    // Every baseline backend enters as a fixed cross-architecture reference
    // point on the {energy, latency, area} axes.
    for backend in baseline_registry() {
        explorer
            .seed_reference(backend.as_ref())
            .unwrap_or_else(|err| panic!("{} reference failed: {err}", backend.name()));
    }
    explorer.record_stats(&mut recorder);
    let space_len = explorer.space().len();
    let report = explorer.report();

    // One-line screening/cache summary on stderr (stdout is golden-pinned).
    eprintln!(
        "dse telemetry: visited={} screened_out={} evaluated={} cache_hits={} lookups={}",
        report.screening.visited,
        report.screening.screened_out,
        report.screening.evaluated,
        report.stats.cache_hits,
        report.stats.lookups()
    );
    export_telemetry(&recorder, trace_path, metrics_path);

    // --- Search summary ------------------------------------------------------
    let mut summary = Table::new(
        format!(
            "DSE study - search summary (space of {space_len} points, workloads: {}, strategies: {})",
            workload_names(),
            strategies
                .iter()
                .map(|(name, _)| *name)
                .collect::<Vec<_>>()
                .join(" + ")
        ),
        &[
            "evaluated", "pruned", "infeasible", "cache hits", "pool", "frontier",
        ],
    );
    summary.row(&[
        report.stats.evaluations.to_string(),
        report.stats.pruned.to_string(),
        report.stats.infeasible.to_string(),
        report.stats.cache_hits.to_string(),
        report.points.len().to_string(),
        report.frontier.len().to_string(),
    ]);
    summary.print();
    assert!(
        report.stats.evaluations >= min_evaluated,
        "evaluated only {} points (need >= {min_evaluated})",
        report.stats.evaluations
    );

    // --- The Pareto frontier -------------------------------------------------
    let mut frontier = Table::new(
        format!(
            "DSE study - Pareto frontier over {{{}}} (lower is better everywhere)",
            report.objective_labels.join(", ")
        ),
        &[
            "hash",
            "B",
            "grid",
            "gamma",
            "cell",
            "W/A",
            "chi",
            "feats",
            "mJ/inf",
            "lat ms",
            "area mm2",
            "noise LSB",
            "p99 ms",
        ],
    );
    for point in report.frontier_points() {
        frontier.row(&point_row(point));
    }
    frontier.print();

    // --- Where the paper's design point lands --------------------------------
    match report.frontier_verdict(&paper) {
        Some(FrontierVerdict::OnFrontier) => {
            println!(
                "paper default ({}) is ON the Pareto frontier",
                short_hash(paper.stable_hash())
            );
        }
        Some(FrontierVerdict::DominatedBy(hash)) => {
            println!(
                "paper default ({}) is DOMINATED by frontier point {}",
                short_hash(paper.stable_hash()),
                short_hash(hash)
            );
        }
        None => panic!("paper default was seeded but never evaluated"),
    }

    // --- Cross-architecture reference points ---------------------------------
    let mut references = Table::new(
        "DSE study - baseline reference points vs the frontier on {energy, latency, area}",
        &["backend", "mJ/inf", "lat ms", "area mm2", "verdict"],
    );
    for reference in &report.references {
        let point = &reference.point;
        references.row(&[
            point.backend.to_string(),
            format!("{:.3}", point.energy_mj_per_inference),
            format!("{:.3}", point.latency_ms),
            format!("{:.1}", point.area_mm2),
            match reference.verdict {
                ReferenceVerdict::DominatedBy(hash) => {
                    format!("dominated by {}", short_hash(hash))
                }
                ReferenceVerdict::NonDominated => "non-dominated".to_string(),
            },
        ]);
    }
    references.print();

    // --- Production-scale screened sweep (full runs only) --------------------
    if !smoke {
        production_screening_study(&constraints);
    }
}

/// Writes the recorded telemetry: a Chrome trace-event JSON (one span per
/// strategy; the time axis is the logical candidate counter, so 1 trace
/// microsecond = 1 candidate visited) and/or a sorted text metrics report.
/// The trace is validated by parsing it back through the serde stubs before
/// it is written; both exports are byte-identical across runs.
fn export_telemetry(
    recorder: &TraceRecorder,
    trace_path: Option<&str>,
    metrics_path: Option<&str>,
) {
    if let Some(path) = trace_path {
        let trace = ChromeTrace::from_recorder(recorder, 1.0);
        let json = trace.to_json();
        let parsed = ChromeTrace::from_json(&json).expect("trace export parses back");
        assert_eq!(
            parsed.events.len(),
            trace.events.len(),
            "trace round-trip preserves every event"
        );
        write_or_exit(path, &json);
        eprintln!("wrote trace: {path} ({} events)", trace.events.len());
    }
    if let Some(path) = metrics_path {
        let text = recorder.metrics().render_text();
        write_or_exit(path, &text);
        eprintln!("wrote metrics: {path} ({} lines)", text.lines().count());
    }
}

/// Exhaustively sweeps the >100k-point production space with bound-based
/// screening enabled: candidates whose admissible {energy, latency, area,
/// noise} lower bounds are dominated by the running frontier are discarded
/// without a full evaluation, which is what makes the enumeration tractable.
fn production_screening_study(constraints: &Constraints) {
    let space = SearchSpace::production_space();
    let space_len = space.len();
    assert!(
        space_len >= 100_000,
        "production space shrank to {space_len} points"
    );
    let evaluator = Evaluator::new(zoo::dse_benchmarks()).with_constraints(*constraints);
    let mut explorer = Explorer::new(space, evaluator).with_screening(true);
    explorer.seed_config(&TimelyConfig::paper_default());
    // A seeded random warm-up populates the Pareto archive quickly, so the
    // exhaustive pass that follows screens against a strong frontier from
    // its first candidate.
    explorer.run(&Strategy::Random {
        samples: 256,
        seed: SEED + 2,
    });
    explorer.run(&Strategy::Grid {
        max_points: usize::MAX,
    });
    let report = explorer.report();
    let screen = report.screening;
    let mut summary = Table::new(
        format!("DSE study - screened production sweep ({space_len} points, exhaustive grid)"),
        &[
            "visited",
            "screened out",
            "evaluated",
            "full evals",
            "pool",
            "frontier",
        ],
    );
    summary.row(&[
        screen.visited.to_string(),
        screen.screened_out.to_string(),
        screen.evaluated.to_string(),
        report.stats.evaluations.to_string(),
        report.points.len().to_string(),
        report.frontier.len().to_string(),
    ]);
    summary.print();
    assert_eq!(
        screen.screened_out + screen.evaluated,
        screen.visited,
        "candidate counters do not balance"
    );
    assert!(
        screen.screened_out * 2 >= screen.visited,
        "screening skipped only {} of {} candidates (need >= 50%)",
        screen.screened_out,
        screen.visited
    );
}

fn workload_names() -> String {
    zoo::dse_benchmarks()
        .iter()
        .map(|m| m.name().to_string())
        .collect::<Vec<_>>()
        .join("/")
}

fn short_hash(hash: u64) -> String {
    format!("{:08x}", hash >> 32)
}

/// `A` = analog local buffers, `T` = time-domain interfaces, `O` = O2IR.
fn features_label(features: &Features) -> String {
    let flag = |on: bool, c: char| if on { c } else { '-' };
    format!(
        "{}{}{}",
        flag(features.analog_local_buffers, 'A'),
        flag(features.time_domain_interfaces, 'T'),
        flag(features.o2ir_mapping, 'O'),
    )
}

fn point_row(point: &PointReport) -> Vec<String> {
    let cfg = &point.config;
    let obj = &point.objectives;
    vec![
        short_hash(point.config_hash),
        cfg.crossbar_size.to_string(),
        format!("{}x{}", cfg.subchip_rows, cfg.subchip_cols),
        cfg.gamma.to_string(),
        cfg.cell_bits.to_string(),
        format!("{}/{}", cfg.weight_bits, cfg.activation_bits),
        cfg.subchips_per_chip.to_string(),
        features_label(&cfg.features),
        format!("{:.3}", obj.energy_mj_per_inference),
        format!("{:.3}", obj.latency_ms),
        format!("{:.1}", obj.area_mm2),
        format!("{:.3}", obj.noise_sigma_lsb),
        format!("{:.3}", obj.p99_ms),
    ]
}
