//! Fig. 5(c)/(d): the per-input / per-Psum energy factors of existing R2PIMs
//! vs. TIMELY, and the normalized unit energies of the different data
//! accesses and interfaces.

use timely_analog::ComponentLibrary;
use timely_bench::cli::FlagSpec;
use timely_bench::table::Table;
use timely_core::TimelyConfig;

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: fig05_unit_energy (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let lib = ComponentLibrary::timely_65nm();
    let norm = lib.normalized();
    let mut table = Table::new(
        "Fig. 5(d) - normalized unit energies (paper: e_DTC=0.02 e_DAC, e_TDC=0.05 e_ADC, e_X=0.03 e_R2, e_P=0.11 e_R2)",
        &["quantity", "normalized", "absolute (fJ)"],
    );
    table.row(&[
        "e_DAC",
        "1.00",
        &format!("{:.1}", lib.dac.energy_per_op.as_femtojoules()),
    ]);
    table.row(&[
        "e_DTC",
        &format!("{:.3}", norm.dtc_vs_dac),
        &format!("{:.1}", lib.dtc.energy_per_op.as_femtojoules()),
    ]);
    table.row(&[
        "e_ADC",
        "1.00",
        &format!("{:.1}", lib.adc.energy_per_op.as_femtojoules()),
    ]);
    table.row(&[
        "e_TDC",
        &format!("{:.3}", norm.tdc_vs_adc),
        &format!("{:.1}", lib.tdc.energy_per_op.as_femtojoules()),
    ]);
    table.row(&[
        "e_X (X-subBuf)",
        &format!("{:.3}", norm.x_subbuf_vs_buffer),
        &format!("{:.2}", lib.x_subbuf.energy_per_op.as_femtojoules()),
    ]);
    table.row(&[
        "e_P (P-subBuf)",
        &format!("{:.3}", norm.p_subbuf_vs_buffer),
        &format!("{:.2}", lib.p_subbuf.energy_per_op.as_femtojoules()),
    ]);
    table.print();

    // Fig. 5(c): per-input and per-Psum cost factors. Existing designs pay one
    // high-cost buffer access and one voltage-domain conversion per crossbar;
    // TIMELY amortizes both over the N_CB crossbars of a sub-chip row/column.
    let cfg = TimelyConfig::paper_default();
    let n_cb = cfg.subchip_cols as f64;
    let mut table = Table::new(
        "Fig. 5(c) - energy factors per input / per Psum (existing vs TIMELY)",
        &["quantity", "existing designs", "TIMELY"],
    );
    table.row(&[
        "per input (data access)".to_string(),
        "e_R2".to_string(),
        format!("e_X + e_R2/{n_cb:.0}"),
    ]);
    table.row(&[
        "per Psum (data access)".to_string(),
        "2 e_R2".to_string(),
        format!("e_P + 2 e_R2/{n_cb:.0}"),
    ]);
    table.row(&[
        "per input (interface)".to_string(),
        "e_DAC".to_string(),
        format!("e_DTC/{n_cb:.0}"),
    ]);
    table.row(&[
        "per Psum (interface)".to_string(),
        "e_ADC".to_string(),
        format!("e_TDC/{n_cb:.0}"),
    ]);
    table.print();

    let q1 = lib.dac.energy_per_op / lib.dtc.energy_per_op;
    let q2 = lib.adc.energy_per_op / lib.tdc.energy_per_op;
    println!(
        "Derived interface reduction factors: q1*N_CB = {:.0}x per input, q2*N_CB = {:.0}x per Psum (paper: ~{:.0}x and ~{:.0}x)",
        q1 * n_cb,
        q2 * n_cb,
        50.0 * n_cb,
        20.0 * n_cb
    );
}
