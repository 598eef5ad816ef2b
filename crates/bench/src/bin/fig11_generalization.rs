//! Fig. 11: applying TIMELY's ALB + O2IR principles to PRIME's FF subarrays
//! reduces the intra-bank data-movement energy by ≈68 %.

use timely_baselines::PrimeWithAlbO2ir;
use timely_bench::cli::FlagSpec;
use timely_bench::table::{format_percent, Table};
use timely_nn::zoo;

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: fig11_generalization (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let study = PrimeWithAlbO2ir::new();
    let mut table = Table::new(
        "Fig. 11 - intra-bank data-movement energy of PRIME vs PRIME+ALB+O2IR (paper: 68% reduction on VGG-D)",
        &["model", "PRIME (mJ)", "PRIME + ALB + O2IR (mJ)", "reduction"],
    );
    for model in [zoo::vgg_d(), zoo::vgg_1(), zoo::resnet_50(), zoo::msra_1()] {
        let energy = study
            .intra_bank_energy(&model)
            .expect("PRIME+ALB+O2IR evaluates zoo models");
        table.row(&[
            model.name().to_string(),
            format!("{:.3}", energy.original.as_millijoules()),
            format!("{:.3}", energy.with_alb_o2ir.as_millijoules()),
            format_percent(energy.reduction()),
        ]);
    }
    table.print();
}
