//! The machine's speed at a moment, gauged by a fixed workload that
//! the benchmark owns.
//!
//! On a shared host this code runs in a fast state and, for seconds
//! to many minutes at a time, in a slow one at about 0.6× the speed,
//! whatever the seed. Set-up time slows by the same factor at the
//! same moments, so the cause is the machine, not the program. A
//! benchmark-owned ALU loop slows by about 5% in the slow state and
//! pointer chases by about 10%, but heap-allocation churn slows with
//! the program. It is timed in the gap after every window, and the
//! wall-time metrics are scaled by its slowdown against [`NOMINAL`].
//! The reference's own code never changes with the program's, so a
//! change to the program still moves the scaled metrics in full.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Allocations in one reference run.
const ALLOCS: u32 = 20_000;

/// Blocks the reference keeps alive, so that frees interleave with
/// allocations as in the program.
const RING: usize = 64;

/// The wall time the scaled metrics are referred to: about the
/// reference's time in the fast state of the 2-vCPU VM the bounds in
/// `BENCHMARK.json` were set on (2.7–2.9 ms there, against 3.8–4.7 ms
/// in the slow state).
pub const NOMINAL: Duration = Duration::from_micros(2_700);

/// `ALLOCS` zero-filled heap blocks of seeded sizes 16–4 015 B, each
/// freed `RING` allocations later.
fn churn() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut ring: Vec<Vec<u8>> = Vec::with_capacity(RING);
    let mut sum = 0u64;
    for _ in 0..ALLOCS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let len = 16 + (x % 4000) as usize;
        let mut block = vec![0u8; len];
        block[len / 2] = x as u8;
        if ring.len() < RING {
            ring.push(block);
        } else {
            let old = std::mem::replace(&mut ring[(x >> 20) as usize % RING], block);
            sum += u64::from(old[old.len() / 2]);
        }
    }
    sum
}

/// Run the reference once: its wall time over [`NOMINAL`], above 1
/// when the machine is slower than nominal. Every block it
/// allocates is freed before it returns.
pub fn slowdown() -> f64 {
    let t = Instant::now();
    black_box(churn());
    t.elapsed().as_secs_f64() / NOMINAL.as_secs_f64()
}
