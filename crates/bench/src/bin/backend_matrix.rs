//! Cross-backend smoke matrix: every backend in the registry evaluated on a
//! representative model set through the unified `Backend` trait — energy,
//! latency, throughput, efficiency, and area side by side, with structured
//! `Unsupported` answers shown as `n/a`.
//!
//! Run with `cargo run --release -p timely-bench --bin backend_matrix`.
//! Everything is closed-form and deterministic; the output is pinned by a
//! golden-file test.

use timely_baselines::{registry, EvalError};
use timely_bench::cli::FlagSpec;
use timely_bench::table::Table;
use timely_nn::zoo;

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: backend_matrix (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let models = [
        zoo::cnn_1(),
        zoo::squeezenet(),
        zoo::resnet_18(),
        zoo::vgg_d(),
        zoo::msra_3(),
    ];
    let mut table = Table::new(
        "Backend matrix - every registered backend x representative models",
        &[
            "backend",
            "model",
            "mJ/inf",
            "lat ms",
            "inf/s",
            "TOPs/W",
            "area mm2",
            "peak TOPs/W",
        ],
    );
    for backend in registry() {
        for model in &models {
            match backend.evaluate(model) {
                Ok(outcome) => {
                    table.row(&[
                        backend.name().to_string(),
                        model.name().to_string(),
                        format!("{:.3}", outcome.energy_millijoules()),
                        format!(
                            "{:.3}",
                            outcome.physics.single_inference_latency.as_milliseconds()
                        ),
                        format!("{:.0}", outcome.inferences_per_second()),
                        format!("{:.2}", outcome.tops_per_watt()),
                        format!("{:.1}", outcome.area_mm2),
                        format!("{:.2}", outcome.peak.tops_per_watt),
                    ]);
                }
                Err(EvalError::Unsupported { .. }) => {
                    table.row(&[
                        backend.name().to_string(),
                        model.name().to_string(),
                        "n/a".to_string(),
                        "n/a".to_string(),
                        "n/a".to_string(),
                        "n/a".to_string(),
                        "n/a".to_string(),
                        format!("{:.2}", backend.peak().tops_per_watt),
                    ]);
                }
                Err(err) => panic!("{} on {}: {err}", backend.name(), model.name()),
            }
        }
    }
    table.print();
}
