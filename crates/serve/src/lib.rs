//! `sinr-serve`: a persistent scenario service for the SINR lab.
//!
//! The batch tools (`sinr-lab run` / `sweep`) pay the dominant cost of
//! every invocation — preparing gain tables, O(n²) dense or O(n·near)
//! hybrid — from scratch each time. This crate keeps a process alive
//! instead: clients submit [`sinr_scenario::ScenarioSpec`] /
//! [`sinr_scenario::ScenarioSet`] requests as JSON lines over stdin or
//! a Unix-domain socket, a fixed worker pool executes them, and
//! per-cell reports stream back as NDJSON while a byte-budgeted LRU
//! cache of prepared deployments ([`TableCache`]) turns repeat
//! geometry into O(1) setup.
//!
//! Layering: `geom` → `phys` → … → `scenario` → **`serve`** → `bench`
//! (the `sinr-lab serve` subcommand is the shipping entry point; this
//! crate stays binary-free so the bench crate can also drive it
//! in-process for the request-storm benchmark).
//!
//! Everything is std-only, like the rest of the workspace. The single
//! `#[allow(unsafe_code)]` exception is the SIGTERM handler
//! registration in [`install_sigterm_drain`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod json;
mod service;
mod signal;

use std::sync::{LockResult, PoisonError};

pub use cache::{CacheStats, TableCache};
pub use service::{ServeConfig, ServeSummary, Service};
pub use signal::{draining, install_sigterm_drain};

/// Takes a lock, or wakes from a condvar wait, whether or not an earlier
/// holder panicked (as sweep's `lock_group` does). Every mutex in this
/// crate stays usable after a critical section unwinds: the job queue,
/// the running and replay maps and the cache index change in single
/// steps, and the output writer can at worst hold a torn line. Without
/// this, one panicking request would turn every later lock into a
/// second panic and take the whole service down.
pub(crate) fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}
