//! Fig. 4(a): the number of input and Psum accesses of all CONV layers of
//! VGG-D and ResNet-50 (tens of millions each), which motivates Opportunity
//! #1 (analog data locality).

use timely_bench::cli::FlagSpec;
use timely_bench::table::Table;
use timely_nn::workload::ModelWorkload;
use timely_nn::zoo;

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: fig04_access_counts (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let mut table = Table::new(
        "Fig. 4(a) - input/Psum accesses over all CONV layers (paper: >55 M inputs / >15 M Psums)",
        &["model", "input accesses (M)", "Psum accesses (M)"],
    );
    for model in [zoo::vgg_d(), zoo::resnet_50()] {
        let workload = ModelWorkload::analyze(&model);
        table.row(&[
            model.name().to_string(),
            format!("{:.1}", workload.conv_input_accesses(256) as f64 / 1e6),
            format!("{:.1}", workload.conv_psum_accesses(256) as f64 / 1e6),
        ]);
    }
    table.print();
}
