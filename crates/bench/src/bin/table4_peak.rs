//! Table IV / Fig. 1(c): peak energy efficiency (TOPs/W) and computational
//! density (TOPs/(s·mm²)) of TIMELY against PRIME, ISAAC, PipeLayer, and
//! AtomLayer, with the improvement factors. The baselines come from the
//! backend registry; each is normalized against the TIMELY instance at its
//! own operating precision.

use timely_baselines::{baseline_registry, Backend, BackendId};
use timely_bench::cli::FlagSpec;
use timely_bench::table::Table;
use timely_core::{TimelyAccelerator, TimelyConfig};

/// The paper's published improvement factors (efficiency, density) per
/// baseline — annotation data, not model output.
fn paper_gains(id: BackendId) -> Option<(f64, f64)> {
    match id {
        BackendId::Prime => Some((10.0, 31.2)),
        BackendId::Isaac => Some((18.2, 20.0)),
        BackendId::PipeLayer => Some((49.3, 6.4)),
        BackendId::AtomLayer => Some((10.1, 20.0)),
        _ => None,
    }
}

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: table4_peak (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let timely8 = TimelyAccelerator::new(TimelyConfig::paper_default());
    let timely16 = TimelyAccelerator::new(TimelyConfig::paper_16bit());
    let peak8 = Backend::peak(&timely8);
    let peak16 = Backend::peak(&timely16);

    let mut table = Table::new(
        "Table IV - peak performance comparison",
        &[
            "accelerator",
            "op precision",
            "TOPs/W",
            "TOPs/(s*mm^2)",
            "TIMELY efficiency gain (paper)",
            "TIMELY density gain (paper)",
        ],
    );
    for baseline in baseline_registry() {
        let Some((paper_eff, paper_density)) = paper_gains(baseline.id()) else {
            continue; // Eyeriss is not a Table IV row.
        };
        let peak = baseline.peak();
        let timely_peak = if peak.op_bits == 8 { &peak8 } else { &peak16 };
        table.row(&[
            baseline.name().to_string(),
            format!("{}-bit MAC", peak.op_bits),
            format!("{:.2}", peak.tops_per_watt),
            format!("{:.2}", peak.tops_per_mm2),
            format!(
                "{:.1}x ({paper_eff}x)",
                timely_peak.tops_per_watt / peak.tops_per_watt
            ),
            format!(
                "{:.1}x ({paper_density}x)",
                timely_peak.tops_per_mm2 / peak.tops_per_mm2
            ),
        ]);
    }
    table.row(&[
        "TIMELY (8-bit)".to_string(),
        "8-bit MAC".to_string(),
        format!("{:.2}", peak8.tops_per_watt),
        format!("{:.2}", peak8.tops_per_mm2),
        "(paper: 21.00)".to_string(),
        "(paper: 38.33)".to_string(),
    ]);
    table.row(&[
        "TIMELY (16-bit)".to_string(),
        "16-bit MAC".to_string(),
        format!("{:.2}", peak16.tops_per_watt),
        format!("{:.2}", peak16.tops_per_mm2),
        "(paper: 6.90)".to_string(),
        "(paper: 9.58)".to_string(),
    ]);
    table.print();
}
