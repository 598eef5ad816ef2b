//! Energy accounting.
//!
//! The energy of one inference is the per-layer event counts produced by
//! [`crate::mapping`] multiplied by the per-event energies of the component
//! library, plus the digital post-processing (ReLU / max-pool) energy. The
//! breakdown can be viewed three ways, matching the paper's Fig. 9:
//!
//! * **by component** — DTC, TDC, crossbars, buffers, … (Fig. 9(b)),
//! * **by memory level** — analog local buffers vs. L1 buffers vs. inter-chip
//!   links (Fig. 9(c)),
//! * **by data type** — inputs vs. Psums vs. outputs (Fig. 9(d)).

use crate::config::TimelyConfig;
use crate::mapping::ModelMapping;
use serde::{Deserialize, Serialize};
use timely_analog::Energy;

/// The data type a unit of energy is attributed to (Fig. 9(d)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Input fetches, their conversions, and their distribution.
    Input,
    /// Partial-sum movement, aggregation, and conversion.
    Psum,
    /// Output write-back and digital post-processing.
    Output,
    /// Static compute (the crossbar dot products themselves).
    Compute,
}

/// The memory level a unit of energy is attributed to (Fig. 9(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryLevel {
    /// Analog local buffers (X-subBufs and P-subBufs).
    AnalogLocal,
    /// The sub-chip input/output buffers (the paper's "Memory L1").
    L1,
    /// An intermediate on-chip memory (the paper's "Memory L2"; TIMELY has
    /// none, the baselines do).
    L2,
    /// Inter-chip links (the paper's "Memory L3").
    L3,
}

/// Per-component energy breakdown of one inference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// L1 input-buffer reads (inputs).
    pub l1_input_reads: Energy,
    /// L1 output-buffer writes (final outputs).
    pub l1_output_writes: Energy,
    /// L1 traffic caused by spilled partial sums (writes plus re-reads).
    pub l1_psum_traffic: Energy,
    /// Digital-to-time conversions.
    pub dtc: Energy,
    /// Time-to-digital conversions.
    pub tdc: Energy,
    /// Voltage-domain DAC conversions (ablation / baselines only).
    pub dac: Energy,
    /// Voltage-domain ADC conversions (ablation / baselines only).
    pub adc: Energy,
    /// X-subBuf accesses.
    pub x_subbuf: Energy,
    /// P-subBuf accesses.
    pub p_subbuf: Energy,
    /// ReRAM crossbar column activations (the analog dot products).
    pub crossbar: Energy,
    /// I-adder aggregations.
    pub i_adder: Energy,
    /// Charging-unit + comparator evaluations.
    pub charging: Energy,
    /// ReLU evaluations.
    pub relu: Energy,
    /// Max-pool evaluations.
    pub maxpool: Energy,
    /// Inter-chip link transfers.
    pub hyperlink: Energy,
}

impl EnergyBreakdown {
    /// Computes the energy breakdown of one inference of a mapped model.
    pub fn for_mapping(mapping: &ModelMapping, config: &TimelyConfig) -> Self {
        Self::for_counts(&mapping.totals, mapping.relu_ops, mapping.pool_ops, config)
    }

    /// Computes the breakdown from aggregate event counts plus the digital
    /// post-processing op counts, without requiring a full [`ModelMapping`]
    /// — the energy core behind the `timely-dse` evaluator's bound screening
    /// and evaluation hot path. Pairs with
    /// [`ModelMapping::workload_totals`].
    pub fn for_counts(
        totals: &crate::mapping::LayerCounts,
        relu_ops: u64,
        pool_ops: u64,
        config: &TimelyConfig,
    ) -> Self {
        let c = &config.components;
        let t = totals;
        let e = |count: u64, per_op: Energy| per_op * count as f64;
        Self {
            l1_input_reads: e(t.l1_input_reads, c.input_buffer_access.energy_per_op),
            l1_output_writes: e(t.l1_output_writes, c.output_buffer_access.energy_per_op),
            l1_psum_traffic: e(t.l1_psum_writes, c.output_buffer_access.energy_per_op)
                + e(t.l1_psum_reads, c.input_buffer_access.energy_per_op),
            dtc: e(t.dtc_conversions, c.dtc.energy_per_op),
            tdc: e(t.tdc_conversions, c.tdc.energy_per_op),
            dac: e(t.dac_conversions, c.dac.energy_per_op),
            adc: e(t.adc_conversions, c.adc.energy_per_op),
            x_subbuf: e(t.x_subbuf_accesses, c.x_subbuf.energy_per_op),
            p_subbuf: e(t.p_subbuf_accesses, c.p_subbuf.energy_per_op),
            crossbar: e(
                t.crossbar_column_activations,
                c.reram_crossbar.energy_per_op,
            ),
            i_adder: e(t.i_adder_ops, c.i_adder.energy_per_op),
            charging: e(t.charging_ops, c.charging_comparator.energy_per_op),
            relu: e(relu_ops, c.relu.energy_per_op),
            maxpool: e(pool_ops, c.maxpool.energy_per_op),
            hyperlink: e(t.hyperlink_transfers, c.hyper_link.energy_per_op),
        }
    }

    /// The total energy of one inference.
    pub fn total(&self) -> Energy {
        self.l1_input_reads
            + self.l1_output_writes
            + self.l1_psum_traffic
            + self.dtc
            + self.tdc
            + self.dac
            + self.adc
            + self.x_subbuf
            + self.p_subbuf
            + self.crossbar
            + self.i_adder
            + self.charging
            + self.relu
            + self.maxpool
            + self.hyperlink
    }

    /// Total interface (conversion) energy: DTC + TDC + DAC + ADC
    /// (the quantity compared in Fig. 9(b)).
    pub fn interfaces(&self) -> Energy {
        self.dtc + self.tdc + self.dac + self.adc
    }

    /// Total data-movement (memory) energy: every buffer and local-buffer
    /// access plus inter-chip traffic (the quantity compared in Fig. 9(c)).
    pub fn data_movement(&self) -> Energy {
        self.l1_input_reads
            + self.l1_output_writes
            + self.l1_psum_traffic
            + self.x_subbuf
            + self.p_subbuf
            + self.hyperlink
    }

    /// Energy attributed to a memory level (Fig. 9(c)).
    pub fn by_memory_level(&self, level: MemoryLevel) -> Energy {
        match level {
            MemoryLevel::AnalogLocal => self.x_subbuf + self.p_subbuf,
            MemoryLevel::L1 => self.l1_input_reads + self.l1_output_writes + self.l1_psum_traffic,
            MemoryLevel::L2 => Energy::ZERO,
            MemoryLevel::L3 => self.hyperlink,
        }
    }

    /// Energy attributed to a data type (Fig. 9(d)).
    ///
    /// * inputs: L1 input reads + DTC/DAC conversions + X-subBuf distribution,
    /// * Psums: P-subBuf forwarding + I-adders + charging + TDC/ADC +
    ///   spilled-Psum L1 traffic,
    /// * outputs: L1 output writes + ReLU/max-pool + inter-chip transfers,
    /// * compute: the crossbar dot products themselves.
    pub fn by_data_type(&self, data: DataType) -> Energy {
        match data {
            DataType::Input => self.l1_input_reads + self.dtc + self.dac + self.x_subbuf,
            DataType::Psum => {
                self.p_subbuf
                    + self.i_adder
                    + self.charging
                    + self.tdc
                    + self.adc
                    + self.l1_psum_traffic
            }
            DataType::Output => self.l1_output_writes + self.relu + self.maxpool + self.hyperlink,
            DataType::Compute => self.crossbar,
        }
    }

    /// Energy per multiply-accumulate, in femtojoules, given the model's MAC
    /// count.
    pub fn per_mac(&self, macs: u64) -> f64 {
        if macs == 0 {
            0.0
        } else {
            self.total().as_femtojoules() / macs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Features;
    use crate::mapping::ModelMapping;
    use timely_nn::zoo;

    fn breakdown_for(model: &timely_nn::Model, config: &TimelyConfig) -> EnergyBreakdown {
        let mapping = ModelMapping::analyze(model, config).unwrap();
        EnergyBreakdown::for_mapping(&mapping, config)
    }

    #[test]
    fn total_is_the_sum_of_all_components() {
        let cfg = TimelyConfig::paper_default();
        let b = breakdown_for(&zoo::vgg_d(), &cfg);
        let by_type = b.by_data_type(DataType::Input)
            + b.by_data_type(DataType::Psum)
            + b.by_data_type(DataType::Output)
            + b.by_data_type(DataType::Compute);
        let rel = (b.total().as_femtojoules() - by_type.as_femtojoules()).abs()
            / b.total().as_femtojoules();
        assert!(rel < 1e-12, "data-type view must partition the total");
    }

    #[test]
    fn vgg_d_inference_energy_is_on_the_order_of_a_millijoule() {
        // Fig. 9(c)/(d): TIMELY's VGG-D inference spends roughly a millijoule,
        // dominated by L1 accesses.
        let cfg = TimelyConfig::paper_default();
        let b = breakdown_for(&zoo::vgg_d(), &cfg);
        let mj = b.total().as_millijoules();
        assert!((0.2..3.0).contains(&mj), "VGG-D total {mj} mJ");
        assert!(b.by_memory_level(MemoryLevel::L1) > b.by_memory_level(MemoryLevel::AnalogLocal));
        assert!(b.by_memory_level(MemoryLevel::L2).is_zero());
    }

    #[test]
    fn interfaces_are_a_tiny_fraction_with_tdis() {
        // Fig. 9(a): TDI accounts for ~1% of the savings because DTC/TDC
        // energy is negligible compared to data movement.
        let cfg = TimelyConfig::paper_default();
        let b = breakdown_for(&zoo::vgg_d(), &cfg);
        let share = b.interfaces() / b.total();
        assert!(share < 0.05, "interface share {share}");
    }

    #[test]
    fn disabling_tdis_blows_up_interface_energy() {
        let mut cfg = TimelyConfig::paper_default();
        cfg.features.time_domain_interfaces = false;
        let without = breakdown_for(&zoo::vgg_d(), &cfg);
        let with = breakdown_for(&zoo::vgg_d(), &TimelyConfig::paper_default());
        // Fig. 9(b): TIMELY's DTC+TDC energy is ~99.6% lower than a DAC/ADC
        // interface handling the same workload.
        let reduction = 1.0 - with.interfaces() / without.interfaces();
        assert!(reduction > 0.95, "interface energy reduction {reduction}");
    }

    #[test]
    fn disabling_albs_and_o2ir_costs_roughly_an_order_of_magnitude() {
        let timely = breakdown_for(&zoo::vgg_d(), &TimelyConfig::paper_default());
        let mut cfg = TimelyConfig::paper_default();
        cfg.features = Features::none();
        let baseline_style = breakdown_for(&zoo::vgg_d(), &cfg);
        let ratio = baseline_style.total() / timely.total();
        assert!(
            ratio > 5.0,
            "expected the ablated design to cost >5x more energy, got {ratio:.2}x"
        );
    }

    #[test]
    fn energy_per_mac_is_tens_of_femtojoules() {
        let cfg = TimelyConfig::paper_default();
        let mapping = ModelMapping::analyze(&zoo::vgg_d(), &cfg).unwrap();
        let b = EnergyBreakdown::for_mapping(&mapping, &cfg);
        let per_mac = b.per_mac(mapping.total_macs);
        assert!(
            (10.0..200.0).contains(&per_mac),
            "energy per MAC {per_mac} fJ"
        );
        assert_eq!(b.per_mac(0), 0.0);
    }

    #[test]
    fn sixteen_bit_inference_costs_more_than_eight_bit() {
        let e8 = breakdown_for(&zoo::vgg_1(), &TimelyConfig::paper_default()).total();
        let e16 = breakdown_for(&zoo::vgg_1(), &TimelyConfig::paper_16bit()).total();
        assert!(e16 > e8);
    }

    #[test]
    fn compact_models_spend_proportionally_less_on_buffers() {
        let cfg = TimelyConfig::paper_default();
        let cnn1 = breakdown_for(&zoo::cnn_1(), &cfg);
        let vgg = breakdown_for(&zoo::vgg_d(), &cfg);
        assert!(cnn1.total() < vgg.total() / 100.0);
    }
}
