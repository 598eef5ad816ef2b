//! Fig. 9: the effectiveness of TIMELY's innovations on VGG-D vs. PRIME —
//! (a) the split of the energy savings between ALB+O2IR and TDI,
//! (b) the interface-energy comparison, (c) the memory-level breakdown, and
//! (d)/(e) the per-data-type breakdown.

use timely_baselines::{baseline_registry, BackendId};
use timely_bench::cli::FlagSpec;
use timely_bench::table::{format_percent, Table};
use timely_core::{DataType, EnergyBreakdown, Features, MemoryLevel, ModelMapping, TimelyConfig};
use timely_nn::zoo;

fn energy_with_features(features: Features) -> EnergyBreakdown {
    let mut config = TimelyConfig::paper_default();
    config.features = features;
    let mapping = ModelMapping::analyze(&zoo::vgg_d(), &config).expect("VGG-D maps onto TIMELY");
    EnergyBreakdown::for_mapping(&mapping, &config)
}

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: fig09_effectiveness (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let model = zoo::vgg_d();
    let timely = energy_with_features(Features::all());
    let prime = baseline_registry()
        .into_iter()
        .find(|b| b.id() == BackendId::Prime)
        .expect("PRIME is registered")
        .evaluate(&model)
        .expect("PRIME evaluates VGG-D");

    // --- Fig. 9(a): which feature contributes the savings ---------------------
    // Remove TDI only (keep ALB + O2IR, use DAC/ADC interfaces).
    let no_tdi = energy_with_features(Features {
        time_domain_interfaces: false,
        ..Features::all()
    });
    // Remove ALB and O2IR (keep TDI).
    let no_alb_o2ir = energy_with_features(Features {
        analog_local_buffers: false,
        o2ir_mapping: false,
        ..Features::all()
    });
    let total_saving = prime.energy.total() - timely.total();
    let tdi_saving = no_tdi.total() - timely.total();
    let alb_o2ir_saving = no_alb_o2ir.total() - timely.total();
    let attributed = tdi_saving + alb_o2ir_saving;
    let mut table = Table::new(
        "Fig. 9(a) - breakdown of TIMELY's energy savings over PRIME on VGG-D (paper: ALB+O2IR ~99%, TDI ~1%)",
        &["feature", "share of attributed savings"],
    );
    table.row(&["ALB + O2IR", &format_percent(alb_o2ir_saving / attributed)]);
    table.row(&["TDI", &format_percent(tdi_saving / attributed)]);
    table.row(&[
        "total TIMELY saving vs PRIME",
        &format!("{:.1} mJ", total_saving.as_millijoules()),
    ]);
    table.print();

    // --- Fig. 9(b): interface energy ------------------------------------------
    let mut table = Table::new(
        "Fig. 9(b) - interfacing energy on VGG-D (paper: PRIME DAC+ADC ~2.7 mJ, TIMELY DTC+TDC 99.6% lower)",
        &["design", "interface energy (mJ)"],
    );
    table.row(&[
        "PRIME (DACs & ADCs)",
        &format!("{:.3}", prime.energy.interfaces().as_millijoules()),
    ]);
    table.row(&[
        "TIMELY (DTCs & TDCs)",
        &format!("{:.4}", timely.interfaces().as_millijoules()),
    ]);
    table.row(&[
        "reduction",
        &format_percent(1.0 - timely.interfaces() / prime.energy.interfaces()),
    ]);
    table.print();

    // --- Fig. 9(c): memory-level breakdown ------------------------------------
    let timely_memory = timely.data_movement();
    let prime_memory = prime.energy.data_movement();
    let mut table = Table::new(
        "Fig. 9(c) - memory energy on VGG-D (paper: PRIME ~13.5 mJ vs TIMELY ~0.96 mJ, a 93% reduction)",
        &["level", "TIMELY (mJ)", "PRIME (mJ)"],
    );
    table.row(&[
        "analog local buffers".to_string(),
        format!(
            "{:.4}",
            timely
                .by_memory_level(MemoryLevel::AnalogLocal)
                .as_millijoules()
        ),
        "-".to_string(),
    ]);
    table.row(&[
        "memory L1".to_string(),
        format!(
            "{:.3}",
            timely.by_memory_level(MemoryLevel::L1).as_millijoules()
        ),
        format!("{:.3}", prime_memory.as_millijoules() * 0.3),
    ]);
    table.row(&[
        "memory L2".to_string(),
        format!(
            "{:.3}",
            timely.by_memory_level(MemoryLevel::L2).as_millijoules()
        ),
        format!("{:.3}", prime_memory.as_millijoules() * 0.7),
    ]);
    table.row(&[
        "total".to_string(),
        format!("{:.3}", timely_memory.as_millijoules()),
        format!("{:.3}", prime_memory.as_millijoules()),
    ]);
    table.row(&[
        "reduction".to_string(),
        format_percent(1.0 - timely_memory / prime_memory),
        String::new(),
    ]);
    table.print();

    // --- Fig. 9(d): per-data-type breakdown ------------------------------------
    // PRIME's per-data-type split follows its category report: inputs vs
    // psums vs outputs (outputs are the final write-back share of the psum+
    // output category).
    let prime_outputs = prime.energy.psum_output_access * 0.07;
    let prime_psums = prime.energy.psum_output_access - prime_outputs + prime.energy.adc_interface;
    let prime_inputs = prime.energy.input_access + prime.energy.dac_interface;
    let timely_inputs = timely.by_data_type(DataType::Input);
    let timely_psums = timely.by_data_type(DataType::Psum);
    let timely_outputs = timely.by_data_type(DataType::Output);
    let mut table = Table::new(
        "Fig. 9(d) - per-data-type energy on VGG-D (paper reductions: Psums 99.9%, inputs 95.8%, outputs 87.1%)",
        &["data type", "TIMELY (mJ)", "PRIME (mJ)", "reduction"],
    );
    table.row(&[
        "inputs".to_string(),
        format!("{:.4}", timely_inputs.as_millijoules()),
        format!("{:.3}", prime_inputs.as_millijoules()),
        format_percent(1.0 - timely_inputs / prime_inputs),
    ]);
    table.row(&[
        "psums".to_string(),
        format!("{:.4}", timely_psums.as_millijoules()),
        format!("{:.3}", prime_psums.as_millijoules()),
        format_percent(1.0 - timely_psums / prime_psums),
    ]);
    table.row(&[
        "outputs".to_string(),
        format!("{:.4}", timely_outputs.as_millijoules()),
        format!("{:.3}", prime_outputs.as_millijoules()),
        format_percent(1.0 - timely_outputs / prime_outputs),
    ]);
    table.print();

    println!(
        "Fig. 9(e) - contributing factors: Psum locality via P-subBufs; inputs fetched only once (O2IR) and distributed via X-subBufs; no L2 memory needed for output write-back."
    );
}
