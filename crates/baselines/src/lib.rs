//! Baseline accelerator models for the TIMELY reproduction.
//!
//! The paper compares TIMELY against four ReRAM-based PIM accelerators —
//! PRIME, ISAAC, PipeLayer, and AtomLayer — and motivates the work with the
//! "memory wall" of a non-PIM digital accelerator (Eyeriss). This crate
//! models each of them at the level of detail the paper's evaluation needs:
//!
//! * [`prime`] — an event-count model of PRIME's bank/FF-subarray
//!   organization, calibrated to its published energy breakdown (Fig. 4(b))
//!   and peak numbers (Table IV). PRIME is the paper's most competitive
//!   energy-efficiency baseline and the reference for Figs. 8, 9, and 11.
//! * [`isaac`] — an event-count model of ISAAC's tile/IMA organization with
//!   bit-serial inputs and shared ADCs, calibrated to its published breakdown
//!   (Fig. 4(c)) and peak numbers.
//! * [`simple`] — coarse models of PipeLayer, AtomLayer (peak-derived per-op
//!   energies) and the Eyeriss-like non-PIM reference (Fig. 1(a)).
//! * [`prime_alb`] — PRIME with TIMELY's ALB + O2IR principles applied to its
//!   FF subarrays (the generalization study of Fig. 11).
//!
//! All models implement the workspace-wide [`Backend`] trait, so the serving
//! simulator, the design-space explorer, and the bench harness sweep them
//! uniformly; [`registry`] returns every registered backend (TIMELY
//! included) as one `Vec<Box<dyn Backend>>`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod isaac;
pub mod prime;
pub mod prime_alb;
pub mod simple;

pub use isaac::IsaacModel;
pub use prime::PrimeModel;
pub use prime_alb::{IntraBankEnergy, PrimeWithAlbO2ir};
pub use simple::{AtomLayerModel, EyerissModel, PipeLayerModel};
pub use timely_core::{
    Backend, BackendId, EnergyByCategory, EvalError, EvalOutcome, PeakSpec, ServicePhysics,
};

use timely_core::{TimelyAccelerator, TimelyConfig};

/// Every registered backend at its published (paper-default) design point:
/// TIMELY first, then the five baselines. This is what the bench binaries
/// and the conformance test suite iterate — adding a backend to the
/// workspace means implementing [`Backend`] and appending it here.
pub fn registry() -> Vec<Box<dyn Backend>> {
    let mut backends: Vec<Box<dyn Backend>> = vec![Box::new(TimelyAccelerator::new(
        TimelyConfig::paper_default(),
    ))];
    backends.extend(baseline_registry());
    backends
}

/// The five baseline backends (everything in [`registry`] except TIMELY),
/// used where TIMELY is the subject under study and the baselines are fixed
/// reference points (e.g. the cross-architecture Pareto frontier).
pub fn baseline_registry() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(PrimeModel::default()),
        // 8 chips so ISAAC's VGG-scale benchmark suite (≥133 M weights, far
        // above one chip's ~33 M-weight capacity) stays resident, as in its
        // published multi-chip evaluations; per-inference energy is
        // chip-count-independent in the event-count model.
        Box::new(IsaacModel::new(
            isaac::IsaacConfig::paper_default().with_chips(8),
        )),
        Box::new(PipeLayerModel::new()),
        Box::new(AtomLayerModel::new()),
        Box::new(EyerissModel::new()),
    ]
}

/// The chip-scalable backends configured with `chips` chips each — the
/// throughput study of Fig. 8(b). The peak-derived models (PipeLayer,
/// AtomLayer) and the Eyeriss reference publish no multi-chip scaling, so
/// they are not included.
///
/// # Errors
///
/// Returns [`EvalError::Arch`] when `chips` does not produce a valid TIMELY
/// configuration (e.g. zero chips) — a structured answer, never a panic, per
/// the workspace's panic-freedom rule.
pub fn registry_with_chips(chips: usize) -> Result<Vec<Box<dyn Backend>>, EvalError> {
    let timely_config = TimelyConfig::builder().chips(chips).build()?;
    Ok(vec![
        Box::new(TimelyAccelerator::new(timely_config)),
        Box::new(PrimeModel::new(
            prime::PrimeConfig::paper_default().with_chips(chips),
        )),
        Box::new(IsaacModel::new(
            isaac::IsaacConfig::paper_default().with_chips(chips),
        )),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_timely_plus_all_baselines() {
        let ids: Vec<BackendId> = registry().iter().map(|b| b.id()).collect();
        assert_eq!(
            ids,
            vec![
                BackendId::Timely,
                BackendId::Prime,
                BackendId::Isaac,
                BackendId::PipeLayer,
                BackendId::AtomLayer,
                BackendId::Eyeriss,
            ]
        );
        assert_eq!(baseline_registry().len(), registry().len() - 1);
    }

    #[test]
    fn chip_scaled_registry_has_distinct_cache_keys_per_chip_count() {
        let one = registry_with_chips(1).expect("1 chip is valid");
        let sixteen = registry_with_chips(16).expect("16 chips is valid");
        for (a, b) in one.iter().zip(&sixteen) {
            assert_eq!(a.id(), b.id());
            assert_ne!(
                a.cache_key(),
                b.cache_key(),
                "{} cache key ignores the chip count",
                a.name()
            );
        }
    }
}
