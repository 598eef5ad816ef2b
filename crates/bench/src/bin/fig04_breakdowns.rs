//! Fig. 4(b)/(c): the energy breakdowns of PRIME (inputs 36 %, Psums+outputs
//! 47 %, ADC 17 %, DAC ≈0 %) and ISAAC (analog 61 %, comm 19 %, memory 12 %,
//! digital 8 %) that motivate the three opportunities.

use timely_baselines::{Backend, IsaacModel, PrimeModel};
use timely_bench::cli::FlagSpec;
use timely_bench::table::{format_percent, Table};
use timely_nn::zoo;

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: fig04_breakdowns (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let prime = PrimeModel::default()
        .evaluate(&zoo::vgg_d())
        .expect("PRIME evaluates VGG-D");
    let (inputs, psums, dac, adc, compute, other) = prime.energy.fractions();
    let mut table = Table::new(
        "Fig. 4(b) - PRIME energy breakdown on VGG-D (paper: inputs 36%, Psums&outputs 47%, ADC 17%, DAC ~0%)",
        &["category", "share", "energy (mJ)"],
    );
    table.row(&[
        "inputs",
        &format_percent(inputs),
        &format!("{:.2}", prime.energy.input_access.as_millijoules()),
    ]);
    table.row(&[
        "psums & outputs",
        &format_percent(psums),
        &format!("{:.2}", prime.energy.psum_output_access.as_millijoules()),
    ]);
    table.row(&[
        "ADC",
        &format_percent(adc),
        &format!("{:.2}", prime.energy.adc_interface.as_millijoules()),
    ]);
    table.row(&[
        "DAC",
        &format_percent(dac),
        &format!("{:.3}", prime.energy.dac_interface.as_millijoules()),
    ]);
    table.row(&[
        "compute",
        &format_percent(compute),
        &format!("{:.2}", prime.energy.compute.as_millijoules()),
    ]);
    table.row(&[
        "other",
        &format_percent(other),
        &format!("{:.2}", prime.energy.other.as_millijoules()),
    ]);
    table.print();

    // ISAAC's breakdown is reported on its own (MSRA-scale) benchmarks; VGG-1
    // is representative.
    let isaac = IsaacModel::default()
        .evaluate(&zoo::vgg_1())
        .expect("ISAAC evaluates VGG-1");
    let total = isaac.energy.total();
    let mut table = Table::new(
        "Fig. 4(c) - ISAAC energy breakdown (paper: analog DAC/ADC 61%, comm 19%, memory 12%, digital 8%)",
        &["category", "share", "energy (mJ)"],
    );
    let analog = isaac.energy.interfaces();
    table.row(&[
        "analog (DAC+ADC)",
        &format_percent(analog / total),
        &format!("{:.2}", analog.as_millijoules()),
    ]);
    table.row(&[
        "communication",
        &format_percent(isaac.energy.psum_output_access / total),
        &format!("{:.2}", isaac.energy.psum_output_access.as_millijoules()),
    ]);
    table.row(&[
        "memory",
        &format_percent(isaac.energy.input_access / total),
        &format!("{:.2}", isaac.energy.input_access.as_millijoules()),
    ]);
    table.row(&[
        "digital",
        &format_percent(isaac.energy.other / total),
        &format!("{:.2}", isaac.energy.other.as_millijoules()),
    ]);
    table.row(&[
        "crossbar compute",
        &format_percent(isaac.energy.compute / total),
        &format!("{:.2}", isaac.energy.compute.as_millijoules()),
    ]);
    table.print();
}
