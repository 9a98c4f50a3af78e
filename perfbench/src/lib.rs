//! Host-level mbTLS benchmark.
//!
//! One command drives the public `mbtls_host::Host` and
//! `LoadGenerator` API from a single thread through one of four
//! named workloads (see [`workload`]), checks that every session
//! completed correctly, and prints the end-to-end metrics, or, with
//! `--trace 1`, the per-layer split measured by the wrappers in
//! [`trace`]. `BENCHMARK.json` at the repository root names the
//! workloads, the metrics and their regression bounds.

pub mod alloc;
pub mod bench;
pub mod crypto;
pub mod drive;
pub mod reference;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
