//! The accuracy study of §VI-B: inference accuracy loss under the analog
//! noise of TIMELY's circuits (paper: ≤0.1 % with 12 cascaded X-subBufs whose
//! accumulated error stays inside the DTC design margin).

use timely_bench::cli::FlagSpec;
use timely_bench::table::{format_percent, Table};
use timely_core::accuracy::AccuracyStudy;
use timely_core::TimelyConfig;
use timely_nn::zoo;

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: accuracy_study (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let config = TimelyConfig::paper_default();
    let mut study = AccuracyStudy::from_config(&config);
    study.samples = 100;

    let mut table = Table::new(
        "Accuracy study - design point (paper: sqrt(12)*eps within the 40 ps margin, <=0.1% accuracy loss)",
        &["quantity", "value"],
    );
    table.row(&["cascaded X-subBufs", &study.cascaded_stages.to_string()]);
    table.row(&[
        "accumulated error (ps)",
        &format!(
            "{:.1}",
            study
                .x_subbuf
                .cascaded_error(study.cascaded_stages)
                .as_picoseconds()
        ),
    ]);
    table.row(&[
        "design margin (ps)",
        &format!("{:.0}", study.design_margin.as_picoseconds()),
    ]);
    table.row(&["within margin", &study.within_margin().to_string()]);
    table.row(&[
        "input noise sigma (LSB)",
        &format!("{:.3}", study.noise_model().input_sigma_lsb),
    ]);
    table.print();

    // The functional engine is too slow for ImageNet-scale models in a bench
    // run; the MNIST-scale benchmarks exercise the same noise-injection path.
    let mut table = Table::new(
        "Accuracy study - classification agreement under analog noise",
        &["model", "samples", "accuracy loss vs noise-free"],
    );
    for model in [zoo::cnn_1(), zoo::mlp_l()] {
        let report = study.run(&model, &config).expect("accuracy study runs");
        table.row(&[
            model.name().to_string(),
            report.samples.to_string(),
            format_percent(report.accuracy_loss()),
        ]);
    }
    table.print();
}
