//! Fig. 1(a): the "memory wall" energy breakdown of a non-PIM digital
//! accelerator (Eyeriss-like) — data movement of inputs, weights, and Psums
//! dominates.

use timely_baselines::{Backend, EyerissModel};
use timely_bench::cli::FlagSpec;
use timely_bench::table::{format_percent, Table};
use timely_nn::zoo;

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: fig01_memory_wall (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let eyeriss = EyerissModel::new();
    let (inputs, weights, psums) = eyeriss.movement_fractions();
    let mut table = Table::new(
        "Fig. 1(a) - data-movement energy breakdown of a non-PIM accelerator (paper: inputs 27.9%, weights 30.4%, Psums 41.7%)",
        &["category", "share of data-movement energy"],
    );
    table.row(&["inputs", &format_percent(inputs)]);
    table.row(&["weights", &format_percent(weights)]);
    table.row(&["psums", &format_percent(psums)]);
    table.print();

    let report = eyeriss
        .evaluate(&zoo::vgg_d())
        .expect("Eyeriss model evaluates every zoo model");
    let movement_share = report.energy.data_movement() / report.energy.total();
    let mut table = Table::new(
        "Fig. 1(a) - VGG-D on the non-PIM reference",
        &["metric", "value"],
    );
    table.row(&[
        "total energy (mJ)",
        &format!("{:.2}", report.energy_millijoules()),
    ]);
    table.row(&["data-movement share", &format_percent(movement_share)]);
    table.print();
}
