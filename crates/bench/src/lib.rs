//! # mbtls-bench
//!
//! The experiment harness: one module per paper table/figure, each
//! exposing a library entry point used by the printing binaries
//! (`src/bin/*`), plus the `BENCH_*.json` reporters that the `bench`
//! binary measures, writes through [`json`] and gates. See DESIGN.md
//! §5 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.

pub mod auth;
pub mod chain;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod handshake;
pub mod json;
pub mod report;
pub mod scale;
pub mod sites;
pub mod table2;
pub mod timing;

/// Megabytes (1e6 bytes) per second for `bytes` moved in `elapsed`.
pub(crate) fn mb_per_s(bytes: usize, elapsed: std::time::Duration) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

/// The FNV-1a offset basis: the digest before any bytes.
pub(crate) const FNV1A_START: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold `bytes` into an FNV-1a `digest` (start from
/// [`FNV1A_START`]). The determinism fingerprints hash whole byte
/// streams with it, so two digests are equal iff the streams are
/// (up to 64-bit collisions).
pub(crate) fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x1000_0000_01B3);
    }
}
