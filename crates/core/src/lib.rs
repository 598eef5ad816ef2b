//! The TIMELY architecture simulator.
//!
//! This crate models the TIMELY accelerator (ISCA 2020) at the architecture
//! level: sub-chip geometry, weight mapping (including the only-once-input-read
//! O2IR scheme), intra-/inter-sub-chip pipelining, and energy/area/latency
//! accounting built on the component library of `timely-analog` and the
//! workload analysis of `timely-nn`.
//!
//! The main entry point is [`TimelyAccelerator`]:
//!
//! ```
//! use timely_core::{TimelyAccelerator, TimelyConfig};
//! use timely_nn::zoo;
//!
//! let accelerator = TimelyAccelerator::new(TimelyConfig::paper_default());
//! let report = accelerator.evaluate(&zoo::cnn_1())?;
//! assert!(report.energy.total().as_femtojoules() > 0.0);
//! assert!(report.throughput_inferences_per_second() > 0.0);
//! # Ok::<(), timely_core::ArchError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accuracy;
pub mod area;
pub mod backend;
pub mod config;
pub mod energy;
pub mod error;
pub mod mapping;
pub mod pipeline;
pub mod report;
pub mod subchip;

pub use area::AreaBreakdown;
pub use backend::{
    Backend, BackendId, EnergyByCategory, EvalError, EvalOutcome, PeakSpec, ServicePhysics,
};
pub use config::{Features, MappingStrategy, TimelyConfig, TimelyConfigBuilder};
pub use energy::{DataType, EnergyBreakdown, MemoryLevel};
pub use error::{ArchError, TimelyError};
pub use mapping::{LayerCounts, ModelMapping};
pub use pipeline::{LayerPlacement, PeakPerformance, ScheduleSummary, ThroughputReport};
pub use report::{EvalReport, TimelyAccelerator};
pub use subchip::SubChipGeometry;
