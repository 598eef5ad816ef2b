//! Fig. 8(b): TIMELY's normalized throughput over the chip-scalable
//! baselines (PRIME and ISAAC) for 16-, 32-, and 64-chip configurations
//! (paper: 736.6× over PRIME on VGG-D; geometric means of 2.1×/2.4×/2.7×
//! over ISAAC). The backends come from `registry_with_chips`, so adding a
//! scalable backend extends this figure without touching it.

use timely_baselines::{registry_with_chips, Backend, BackendId};
use timely_bench::cli::FlagSpec;
use timely_bench::table::{geometric_mean, Table};
use timely_core::{EvalError, EvalOutcome, TimelyAccelerator, TimelyConfig};
use timely_nn::{zoo, Model};

fn timely_with_chips(chips: usize, sixteen_bit: bool) -> TimelyAccelerator {
    let base = if sixteen_bit {
        TimelyConfig::paper_16bit()
    } else {
        TimelyConfig::paper_default()
    };
    let mut builder = TimelyConfig::builder();
    builder
        .precision(base.weight_bits, base.activation_bits)
        .chips(chips);
    TimelyAccelerator::new(builder.build().expect("valid config"))
}

/// Evaluates, treating "does not fit on this chip count" as a skip.
fn try_eval(backend: &dyn Backend, model: &Model) -> Option<EvalOutcome> {
    match backend.evaluate(model) {
        Ok(outcome) => Some(outcome),
        Err(EvalError::Unsupported { .. }) => None,
        Err(err) => panic!("{} on {}: {err}", backend.name(), model.name()),
    }
}

const FLAGS: FlagSpec = FlagSpec {
    switches: &[],
    valued: &[],
    usage: "usage: fig08b_throughput (takes no arguments)",
};

fn main() {
    FLAGS.parse_env_or_exit();
    let chip_counts = [16usize, 32, 64];

    for &chips in &chip_counts {
        let backends =
            registry_with_chips(chips).unwrap_or_else(|err| panic!("{chips}-chip registry: {err}"));
        for baseline in backends {
            // TIMELY itself is the normalization subject, not a row.
            if baseline.id() == BackendId::Timely {
                continue;
            }
            let sixteen_bit = baseline.peak().op_bits != 8;
            let timely = timely_with_chips(chips, sixteen_bit);
            // The paper evaluates PRIME on VGG-D only (its published suite's
            // flagship) and ISAAC on its full benchmark suite.
            let suite = match baseline.id() {
                BackendId::Prime => vec![zoo::vgg_d()],
                _ => zoo::isaac_benchmarks(),
            };
            let note = match baseline.id() {
                BackendId::Prime => " (paper: 736.6x; crossbars per chip 20352 vs 1024)",
                BackendId::Isaac => " (paper geometric means 2.1x/2.4x/2.7x)",
                _ => "",
            };
            let mut table = Table::new(
                format!(
                    "Fig. 8(b) - normalized throughput of TIMELY over {}, {chips}-chip configuration{note}",
                    baseline.name(),
                ),
                &[
                    "model",
                    "TIMELY (inf/s)",
                    &format!("{} (inf/s)", baseline.name()),
                    "improvement",
                ],
            );
            let mut ratios = Vec::new();
            for model in &suite {
                let (Some(t), Some(b)) =
                    (try_eval(&timely, model), try_eval(baseline.as_ref(), model))
                else {
                    continue; // model does not fit on this chip count
                };
                let ratio = t.inferences_per_second() / b.inferences_per_second();
                ratios.push(ratio);
                table.row(&[
                    model.name().to_string(),
                    format!("{:.0}", t.inferences_per_second()),
                    format!("{:.1}", b.inferences_per_second()),
                    format!("{ratio:.1}x"),
                ]);
            }
            table.row(&[
                "Geometric mean".to_string(),
                String::new(),
                String::new(),
                format!("{:.1}x", geometric_mean(&ratios)),
            ]);
            table.print();
        }
    }
}
