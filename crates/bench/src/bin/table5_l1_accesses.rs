//! Table V: the number of L1 memory accesses for reading inputs in PRIME vs.
//! TIMELY for the first six CONV layers of VGG-D (paper: an 88.9 % saving on
//! every layer).

use timely_bench::cli::FlagSpec;
use timely_bench::table::{format_percent, Table};
use timely_core::{Features, ModelMapping, TimelyConfig};
use timely_nn::zoo;

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: table5_l1_accesses (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let vgg = zoo::vgg_d();
    let o2ir = ModelMapping::analyze(&vgg, &TimelyConfig::paper_default())
        .expect("VGG-D maps onto TIMELY");
    let mut conventional_cfg = TimelyConfig::paper_default();
    conventional_cfg.features = Features {
        o2ir_mapping: false,
        ..Features::all()
    };
    let conventional =
        ModelMapping::analyze(&vgg, &conventional_cfg).expect("VGG-D maps onto TIMELY");

    let layer_names = [
        "conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2",
    ];
    let paper_prime = [1.35, 28.90, 7.23, 14.45, 3.61, 7.23];
    let paper_timely = [0.15, 3.21, 0.80, 1.61, 0.40, 0.80];

    let mut table = Table::new(
        "Table V - L1 input-read accesses for VGG-D CONV1-6 (millions)",
        &[
            "layer",
            "PRIME-style (paper)",
            "TIMELY O2IR (paper)",
            "saving",
        ],
    );
    for (i, name) in layer_names.iter().enumerate() {
        let prime_reads = conventional
            .layer(name)
            .expect("layer exists")
            .l1_input_reads as f64
            / 1e6;
        let timely_reads = o2ir.layer(name).expect("layer exists").l1_input_reads as f64 / 1e6;
        table.row(&[
            format!("CONV{} ({name})", i + 1),
            format!("{prime_reads:.2} ({:.2})", paper_prime[i]),
            format!("{timely_reads:.2} ({:.2})", paper_timely[i]),
            format_percent(1.0 - timely_reads / prime_reads),
        ]);
    }
    table.print();
}
