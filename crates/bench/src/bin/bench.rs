//! Measure one `BENCH_*.json` artifact, write it, and gate it.
//!
//! Usage:
//!
//! ```text
//! bench <dataplane|scale|handshake|chain|auth> [--smoke] [--out PATH]
//! ```
//!
//! Each subcommand writes `BENCH_<subcommand>.json` (or `--out PATH`),
//! then runs the report's checks (`Artifact::check`: finite numbers,
//! required keys, floors) and exits 1 naming every failed check.
//! `--smoke` runs tiny budgets (seconds) so `scripts/check.sh` can gate
//! on the harness end to end; smoke numbers are noisy, flagged
//! `"smoke": true`, and skip the handshake ratio floors. Full runs
//! (`scripts/bench_report.sh`) use budgets large enough for stable
//! figures; the full `scale` matrix takes hours and rewrites its
//! artifact after every fleet size.
//!
//! The binary installs the one counting global allocator, so the
//! steady-state allocation metrics measure the real record and shard
//! loops; the library crate stays allocator-agnostic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mbtls_bench::auth::bench_auth_modes;
use mbtls_bench::chain::{bench_amortized, bench_chains, bench_per_hop, ChainReport};
use mbtls_bench::handshake::{
    bench_handshake_cpu, bench_storm_curve, bench_verify_row, storm_determinism_probe,
    HandshakeReport, STORM_SHARD_CURVE,
};
use mbtls_bench::json::Artifact;
use mbtls_bench::report::{
    bench_primitives, bench_record_path, DataplaneReport, SteadyStateEndpoint, SteadyStatePipeline,
    BULK_LEN, RECORD_LEN,
};
use mbtls_bench::scale::{
    bench_scale_point_over, determinism_probe, ScaleReport, SteadyStateShard, SHARD_CURVE,
};

/// `System` wrapped with an allocation counter. Only counts calls to
/// `alloc`/`realloc` — frees are irrelevant to the "allocations per
/// record" metric.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations per unit of work while `run` does `units` units
/// of it (on an already warmed-up loop).
fn allocs_per(units: u64, run: impl FnOnce()) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    run();
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / units as f64
}

const USAGE: &str = "usage: bench <dataplane|scale|handshake|chain|auth> [--smoke] [--out PATH]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let sub = args.next().unwrap_or_else(|| usage_error("missing subcommand"));
    let mut smoke = false;
    let mut out_path = format!("BENCH_{sub}.json");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| usage_error("--out requires a path"));
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    let failures = match sub.as_str() {
        "dataplane" => finish(&out_path, &dataplane(smoke)),
        "scale" => finish(&out_path, &scale(smoke, &out_path)),
        "handshake" => finish(&out_path, &handshake(smoke)),
        "chain" => finish(&out_path, &chain(smoke)),
        "auth" => {
            let mut report = bench_auth_modes(if smoke { 2 } else { 48 }, 0xA07_2026);
            report.smoke = smoke;
            finish(&out_path, &report)
        }
        other => usage_error(&format!("unknown subcommand: {other}")),
    };
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {out_path}: {failure}");
        }
        std::process::exit(1);
    }
}

fn write_artifact(out_path: &str, report: &impl Artifact) -> String {
    let json = report.json().render();
    std::fs::write(out_path, format!("{json}\n")).unwrap_or_else(|e| {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    });
    json
}

/// Write the final artifact, echo it, and return its failed checks.
fn finish(out_path: &str, report: &impl Artifact) -> Vec<String> {
    println!("{}", write_artifact(out_path, report));
    eprintln!("wrote {out_path}");
    report.check()
}

fn dataplane(smoke: bool) -> DataplaneReport {
    // Smoke proves the harness; full runs give stable numbers (~64 MiB
    // per metric ≈ a few seconds total).
    let budget = if smoke { 4 * BULK_LEN } else { 64 * 1024 * 1024 };
    let records: u64 = if smoke { 4 } else { 64 };
    let mut throughputs = bench_primitives(budget);
    throughputs.extend(bench_record_path(budget));

    // The endpoint-only loop (client seal + server open) and the full
    // loop through a middlebox; the middlebox's share is the
    // difference.
    let mut endpoint = SteadyStateEndpoint::warmed_up();
    let endpoint_allocs = allocs_per(records, || endpoint.pump(records as usize));
    let mut full = SteadyStatePipeline::warmed_up(false);
    let full_allocs = allocs_per(records, || full.pump(records as usize));

    DataplaneReport {
        smoke,
        bulk_len: BULK_LEN,
        record_len: RECORD_LEN,
        throughputs,
        allocs_per_record_endpoint: endpoint_allocs,
        allocs_per_record_middlebox: (full_allocs - endpoint_allocs).max(0.0),
    }
}

/// Measures the fleet sizes in order, rewriting `out_path` after every
/// one: a multi-hour full run leaves a valid artifact covering the
/// tiers measured so far even if interrupted.
fn scale(smoke: bool, out_path: &str) -> ScaleReport {
    // Smoke keeps a shortened shard curve that still crosses the
    // 4-shard row the checks require.
    let fleets: &[usize] = if smoke { &[8, 24] } else { &[10_000, 100_000, 1_000_000] };
    let curve: &[u16] = if smoke { &[1, 2, 4] } else { SHARD_CURVE };
    let determinism_sessions = if smoke { 16 } else { 10_000 };
    let determinism_shards: u16 = 4;
    let exchanges: u64 = if smoke { 8 } else { 256 };
    let seed = 0xC0_FFEE;

    // Fast metrics first, so even the first artifact write carries
    // the allocation and determinism verdicts. Each exchange is two
    // records: one request, one response.
    let allocs_per_record_per_shard: Vec<f64> = (0..4)
        .map(|k| {
            let mut steady = SteadyStateShard::warmed_up(k, 10);
            allocs_per(exchanges * 2, || steady.pump_exchanges(exchanges))
        })
        .collect();
    eprintln!("allocs/record per shard: {allocs_per_record_per_shard:?}");
    let (_, determinism_identical) =
        determinism_probe(determinism_sessions, determinism_shards, seed);
    eprintln!(
        "determinism ({determinism_sessions} sessions, {determinism_shards} shards): {}",
        if determinism_identical { "bit-identical" } else { "DIVERGED" }
    );

    let mut report = ScaleReport {
        smoke,
        points: Vec::new(),
        allocs_per_record_per_shard,
        determinism_seed: seed,
        determinism_sessions,
        determinism_shards,
        determinism_identical,
    };
    write_artifact(out_path, &report);
    for &n in fleets {
        eprintln!("measuring fleet n={n} over shard curve {curve:?}...");
        report.points.push(bench_scale_point_over(n, seed, curve));
        write_artifact(out_path, &report);
        eprintln!("wrote {out_path} ({} tiers)", report.points.len());
    }
    report
}

fn handshake(smoke: bool) -> HandshakeReport {
    let batches: &[usize] = if smoke { &[4, 16] } else { &[4, 16, 32, 64] };
    let min_verifies = if smoke { 16 } else { 1024 };
    let cpu_iters = if smoke { 4 } else { 200 };
    let storm_n = if smoke { 16 } else { 2_000 };
    let storm_curve: &[u16] = if smoke { &[1, 2] } else { STORM_SHARD_CURVE };
    let determinism_sessions = if smoke { 16 } else { 1_000 };
    let determinism_shards: u16 = 4;
    let seed = 0x5EED_CAFE;

    eprintln!("verification throughput over batches {batches:?}...");
    let verify: Vec<_> = batches.iter().map(|&b| bench_verify_row(b, min_verifies, seed)).collect();
    eprintln!("handshake CPU ({cpu_iters} iterations each)...");
    let cpu = bench_handshake_cpu(cpu_iters, seed);
    eprintln!("storm curve n={storm_n} over shards {storm_curve:?}...");
    let storm = bench_storm_curve(storm_n, seed, storm_curve);
    let (_, determinism_identical) =
        storm_determinism_probe(determinism_sessions, determinism_shards, seed);

    HandshakeReport {
        smoke,
        verify,
        cpu,
        storm,
        determinism_seed: seed,
        determinism_sessions,
        determinism_shards,
        determinism_identical,
    }
}

fn chain(smoke: bool) -> ChainReport {
    // Chain runs are bounded by handshake cost, so the exchange count
    // stays modest even in full mode.
    let per_hop_budget = if smoke { 4 * RECORD_LEN } else { 48 * 1024 * 1024 };
    let exchanges = if smoke { 2 } else { 64 };
    let records: u64 = if smoke { 4 } else { 64 };

    let per_hop = bench_per_hop(per_hop_budget);
    let (chains, chains_identical) = bench_chains(exchanges, 0xC8A1_2026);
    let (amortized, amortized_identical) = bench_amortized(smoke, 0xC8A1_2027);
    let mut read_only = SteadyStatePipeline::warmed_up(true);
    let allocs = allocs_per(records, || read_only.pump(records as usize));

    ChainReport {
        smoke,
        record_len: RECORD_LEN,
        per_hop,
        chains,
        amortized,
        allocs_per_record_read_only: allocs,
        identical: chains_identical && amortized_identical,
    }
}
