//! Fig. 8(a): TIMELY's normalized energy efficiency over every registered
//! baseline backend, each evaluated on its benchmark suite and normalized
//! against the TIMELY instance at the baseline's own precision (the paper
//! shows PRIME — geometric mean ≈10×, VGG-D 15.6× — and ISAAC — ≈14.8×; the
//! other registry entries ride along for completeness).

use timely_baselines::{baseline_registry, Backend, BackendId};
use timely_bench::cli::FlagSpec;
use timely_bench::table::{geometric_mean, Table};
use timely_core::{EvalError, TimelyAccelerator, TimelyConfig};
use timely_nn::{zoo, Model};

/// The benchmark suite a baseline is evaluated on: PRIME's published suite
/// plus the recent CNNs for the 8-bit comparison, ISAAC's suite for the
/// 16-bit ones.
fn benchmark_suite(id: BackendId) -> Vec<Model> {
    match id {
        BackendId::Prime | BackendId::Eyeriss => vec![
            zoo::vgg_d(),
            zoo::cnn_1(),
            zoo::mlp_l(),
            zoo::resnet_18(),
            zoo::resnet_50(),
            zoo::resnet_101(),
            zoo::resnet_152(),
            zoo::squeezenet(),
        ],
        _ => zoo::isaac_benchmarks(),
    }
}

fn paper_note(id: BackendId) -> &'static str {
    match id {
        BackendId::Prime => " (paper geometric mean ~10x; VGG-D 15.6x)",
        BackendId::Isaac => " (paper geometric mean ~14.8x)",
        _ => "",
    }
}

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: fig08a_energy_efficiency (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let timely8 = TimelyAccelerator::new(TimelyConfig::paper_default());
    let timely16 = TimelyAccelerator::new(TimelyConfig::paper_16bit());

    for baseline in baseline_registry() {
        // Normalize at the baseline's own operating precision.
        let timely = if baseline.peak().op_bits == 8 {
            &timely8
        } else {
            &timely16
        };
        let mut table = Table::new(
            format!(
                "Fig. 8(a) - normalized energy efficiency of TIMELY ({}-bit) over {}{}",
                baseline.peak().op_bits,
                baseline.name(),
                paper_note(baseline.id()),
            ),
            &[
                "model",
                "TIMELY (mJ)",
                &format!("{} (mJ)", baseline.name()),
                "improvement",
            ],
        );
        let mut ratios = Vec::new();
        for model in benchmark_suite(baseline.id()) {
            let t = Backend::evaluate(timely, &model).expect("TIMELY evaluates zoo models");
            let b = match baseline.evaluate(&model) {
                Ok(outcome) => outcome,
                Err(EvalError::Unsupported { .. }) => continue, // does not fit
                Err(err) => panic!("{} on {}: {err}", baseline.name(), model.name()),
            };
            let ratio = b.energy_millijoules() / t.energy_millijoules();
            ratios.push(ratio);
            table.row(&[
                model.name().to_string(),
                format!("{:.3}", t.energy_millijoules()),
                format!("{:.3}", b.energy_millijoules()),
                format!("{ratio:.1}x"),
            ]);
        }
        table.row(&[
            "Geometric mean".to_string(),
            String::new(),
            String::new(),
            format!("{:.1}x", geometric_mean(&ratios)),
        ]);
        table.print();
    }
}
