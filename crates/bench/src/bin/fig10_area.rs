//! Fig. 10: (a) the ReRAM-crossbar share of total chip area (TIMELY ≈2.2 %
//! vs. ISAAC ≈0.4 % and PRIME ≈0) and (b) TIMELY's per-component area
//! breakdown.

use timely_bench::cli::FlagSpec;
use timely_bench::table::{format_percent, Table};
use timely_core::{AreaBreakdown, TimelyConfig};

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: fig10_area (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let cfg = TimelyConfig::paper_default();
    let area = AreaBreakdown::for_chip(&cfg);

    let mut table = Table::new(
        "Fig. 10(a) - ReRAM crossbar area as a share of chip area",
        &["accelerator", "ReRAM area share"],
    );
    table.row(&["PRIME (paper)", "~0%"]);
    table.row(&["ISAAC (paper)", "0.4%"]);
    table.row(&[
        "TIMELY (measured, paper: 2.2%)",
        &format_percent(area.reram_fraction()),
    ]);
    table.print();

    let (dtc, tdc, reram, charging, x, p) = area.fractions();
    let mut table = Table::new(
        "Fig. 10(b) - TIMELY chip area breakdown (paper: DTC 14.2%, TDC 13.8%, ReRAM 2.2%, charging+comp 14.2%, X-subBuf 28.5%, P-subBuf 26.7%)",
        &["component", "share", "area (mm^2)"],
    );
    table.row(&[
        "DTC",
        &format_percent(dtc),
        &format!("{:.2}", area.dtc.as_square_millimeters()),
    ]);
    table.row(&[
        "TDC",
        &format_percent(tdc),
        &format!("{:.2}", area.tdc.as_square_millimeters()),
    ]);
    table.row(&[
        "ReRAM crossbars",
        &format_percent(reram),
        &format!("{:.2}", area.reram.as_square_millimeters()),
    ]);
    table.row(&[
        "Charging + comparator",
        &format_percent(charging),
        &format!("{:.2}", area.charging.as_square_millimeters()),
    ]);
    table.row(&[
        "X-subBuf",
        &format_percent(x),
        &format!("{:.2}", area.x_subbuf.as_square_millimeters()),
    ]);
    table.row(&[
        "P-subBuf",
        &format_percent(p),
        &format!("{:.2}", area.p_subbuf.as_square_millimeters()),
    ]);
    table.row(&[
        "total chip",
        "100%",
        &format!("{:.1}", area.total().as_square_millimeters()),
    ]);
    table.print();
}
