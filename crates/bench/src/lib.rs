//! Shared helpers for the figure, table and study binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the TIMELY
//! paper's evaluation (see `DESIGN.md` for the experiment index) or runs one
//! study. This library holds the table-formatting, artifact and strict
//! command-line helpers they share. Performance is measured by the separate
//! `perfbench` workspace, not here.

pub mod artifacts;
pub mod cli;
pub mod table;

pub use table::Table;
