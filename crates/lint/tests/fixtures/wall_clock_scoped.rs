//! Seeded wall-clock fixture: exactly one `Instant::now` read and nothing
//! else. The committed workspace `lint.toml` has no wall-clock exception;
//! the policy test lints this source at two observability-crate paths and
//! expects one violation at each. Wall-clock timing belongs in the
//! `perfbench` workspace, outside the scan roots.

use std::time::Instant;

/// Reads the wall clock once.
pub fn elapsed_since_call_seconds() -> f64 {
    Instant::now().elapsed().as_secs_f64()
}
