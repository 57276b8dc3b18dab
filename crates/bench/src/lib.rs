//! The `pipeline` bench: stage timings, the store scale sweep and the
//! `--check` gates over the committed `BENCH_pipeline.json`.
//!
//! The library half is [`baseline`]: faithful replicas of the
//! measurement hot paths *before* the hot-path overhaul (SipHash `std`
//! maps, full-table expiry scans, no idle wheel). The `pipeline` binary
//! runs them in the same process as the current implementations so
//! `BENCH_pipeline.json` records an apples-to-apples speedup measured in
//! one run, on one machine.

pub mod baseline;
