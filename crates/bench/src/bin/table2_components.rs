//! Table II: TIMELY's component parameters (per-instance counts, energies,
//! and areas) and the derived sub-chip / chip totals.

use timely_analog::ComponentLibrary;
use timely_bench::cli::FlagSpec;
use timely_bench::table::Table;
use timely_core::{AreaBreakdown, SubChipGeometry, TimelyConfig};

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: table2_components (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let cfg = TimelyConfig::paper_default();
    let geo = SubChipGeometry::from_config(&cfg);
    let lib = ComponentLibrary::timely_65nm();

    let mut table = Table::new(
        "Table II - TIMELY sub-chip components (paper values in parentheses in the header rows)",
        &[
            "component",
            "instances / sub-chip",
            "energy per op (fJ)",
            "area per instance (um^2)",
        ],
    );
    let rows: [(&str, usize, f64, f64); 9] = [
        (
            "DTC (8-bit)",
            geo.dtcs,
            lib.dtc.energy_per_op.as_femtojoules(),
            lib.dtc.area.as_square_microns(),
        ),
        (
            "ReRAM crossbar (256x256)",
            geo.crossbars,
            lib.reram_crossbar.energy_per_op.as_femtojoules(),
            lib.reram_crossbar.area.as_square_microns(),
        ),
        (
            "Charging + comparator",
            geo.charging_units,
            lib.charging_comparator.energy_per_op.as_femtojoules(),
            lib.charging_comparator.area.as_square_microns(),
        ),
        (
            "TDC (8-bit)",
            geo.tdcs,
            lib.tdc.energy_per_op.as_femtojoules(),
            lib.tdc.area.as_square_microns(),
        ),
        (
            "X-subBuf",
            geo.x_subbufs,
            lib.x_subbuf.energy_per_op.as_femtojoules(),
            lib.x_subbuf.area.as_square_microns(),
        ),
        (
            "P-subBuf",
            geo.p_subbufs,
            lib.p_subbuf.energy_per_op.as_femtojoules(),
            lib.p_subbuf.area.as_square_microns(),
        ),
        (
            "I-adder",
            geo.i_adders,
            lib.i_adder.energy_per_op.as_femtojoules(),
            lib.i_adder.area.as_square_microns(),
        ),
        (
            "ReLU",
            geo.relu_units,
            lib.relu.energy_per_op.as_femtojoules(),
            lib.relu.area.as_square_microns(),
        ),
        (
            "MaxPool",
            geo.maxpool_units,
            lib.maxpool.energy_per_op.as_femtojoules(),
            lib.maxpool.area.as_square_microns(),
        ),
    ];
    for (name, count, energy, area) in rows {
        table.row(&[
            name.to_string(),
            count.to_string(),
            format!("{energy:.1}"),
            format!("{area:.0}"),
        ]);
    }
    table.row(&[
        "Input buffer (2KB)".to_string(),
        "1".to_string(),
        format!(
            "{:.0}",
            lib.input_buffer_access.energy_per_op.as_femtojoules()
        ),
        format!("{:.0}", lib.input_buffer_access.area.as_square_microns()),
    ]);
    table.row(&[
        "Output buffer (2KB)".to_string(),
        "1".to_string(),
        format!(
            "{:.0}",
            lib.output_buffer_access.energy_per_op.as_femtojoules()
        ),
        format!("{:.0}", lib.output_buffer_access.area.as_square_microns()),
    ]);
    table.print();

    let mut single = TimelyConfig::builder();
    let single = single.subchips_per_chip(1).build().expect("valid config");
    let sub_chip_area = AreaBreakdown::for_chip(&single)
        .total()
        .as_square_millimeters();
    let chip_area = AreaBreakdown::for_chip(&cfg)
        .total()
        .as_square_millimeters();
    let mut table = Table::new("Table II - derived totals", &["quantity", "value", "paper"]);
    table.row(&[
        "sub-chip area (mm^2)",
        &format!("{sub_chip_area:.3}"),
        "0.86",
    ]);
    table.row(&[
        "sub-chips per chip",
        &cfg.subchips_per_chip.to_string(),
        "106",
    ]);
    table.row(&["chip area (mm^2)", &format!("{chip_area:.1}"), "91"]);
    table.row(&[
        "crossbars per chip",
        &SubChipGeometry::crossbars_per_chip(&cfg).to_string(),
        "20352",
    ]);
    table.print();
}
