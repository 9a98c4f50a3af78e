//! The four named workloads: why each exists, and which layer each
//! one leaves idle.
//!
//! Every workload drives the public [`mbtls_host::Host`] and
//! [`LoadGenerator`] API from one thread over [`NetSubstrate`].
//! Arrivals are open-loop in *virtual* time: session `i` is due at
//! `i × spacing`. Virtual time only advances as fast as the host
//! processes events, so in wall time each workload is a closed
//! system whose in-flight session count is fixed by the schedule
//! (spacing against the session's virtual duration). The seed picks
//! every key, nonce and per-session link latency.
//!
//! * `handshake_full` — 2 shards, ~200 µs links, 5 µs arrivals
//!   (about 560 sessions in flight). Every session runs through one
//!   SGX-attested middlebox with `defer_verify` on, and does one
//!   256 B / 1 KiB exchange. Asymmetric crypto, attestation and the
//!   mbTLS secondary handshake do almost all the work; the host's
//!   batched signature flush is the host's largest self cost. It is
//!   the only 2-shard workload. Idle: the read-only fast path and
//!   bulk AEAD (one small exchange), session resumption.
//! * `handshake_resume` — 1 shard, a resumption storm (every client
//!   holds a primed ticket; every 16th ticket is stale and falls
//!   back to a full handshake), no middlebox, same exchange and
//!   schedule (about 285 sessions in flight). Almost
//!   no public-key work: PRF/SHA-2, record framing, the chain pump
//!   and host overhead dominate. Idle: middleboxes (so every
//!   `core.mbox_*` and `core.middlebox_us_per_session` reads 0),
//!   batched verification on 15 of 16 sessions.
//! * `bulk_reseal` — 1 shard, the Slick-style web chain (filter →
//!   cache → compression, three middleboxes) doing open+reseal at
//!   every hop, 8 exchanges of 128 B / 64 KiB. Arrival spacing
//!   (500 µs) and link latency (50 µs) are `LoadConfig::default()`'s,
//!   as for every bulk workload; about 8 sessions are in flight. AEAD (AES-CTR + GHASH)
//!   in the middleboxes dominates; the 128 B requests exercise
//!   per-record cost at the smallest size. Idle: the read-only fast
//!   path, resumption, batched verification.
//! * `bulk_read_only` — the same shape with one pass-through
//!   middlebox and `read_only_path` on, so the middlebox forwards
//!   records after a tag-only `verify_tag` instead of resealing
//!   (about 4 sessions in flight).
//!   Without it, a change that speeds up reseal but loses the fast
//!   path would not show. Idle: middlebox reseal, resumption,
//!   batched verification.
//!
//! The middlebox HTTP processors (filter, cache, compression) are
//! **not** exercised by any workload: the host's synthetic payloads
//! are not HTTP, so they pass every processor unparsed. An
//! HTTP-payload host workload needs a host change.
//!
//! The bulk workloads also run over `NetSubstrate` rather than
//! zero-latency pipes: every workload reports every end-to-end
//! metric, and over pipes the virtual handshake latency would read
//! 0. Their spacing and latency are not tuned here but taken from
//! the generator's defaults. The simulator's own cost is reported
//! apart from the parties' work: `substrate.time_share` (share of
//! the traced wall time) and `substrate.alloc_share` (its link
//! receives copy into a fresh `Vec`, so it makes a share of
//! `alloc.*`). Over latency links a pump never hits the pass cap,
//! so `host.pump_saturated_ratio` reads 0 on every workload; it
//! would move only on a zero-latency substrate.
//!
//! Link latency is drawn per session from the seed, uniform in
//! ±25% of the workload's base latency (heterogeneous client round
//! trips), so the virtual-latency metrics depend on the seeded input
//! rather than reading one constant on every run.

use mbtls_core::MiddleboxAuthMode;
use mbtls_host::{
    ChainMix, Host, HostConfig, LoadConfig, LoadGenerator, NetSubstrate, SessionSpec, Substrate,
    Workload as Exchange,
};
use mbtls_netsim::time::Duration;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full mbTLS handshakes through one SGX-attested middlebox.
    HandshakeFull,
    /// Resumption storm, no middlebox.
    HandshakeResume,
    /// Three-middlebox chain, open+reseal at every hop.
    BulkReseal,
    /// One pass-through middlebox on the read-only fast path.
    BulkReadOnly,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HandshakeFull,
        Workload::HandshakeResume,
        Workload::BulkReseal,
        Workload::BulkReadOnly,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HandshakeFull => "handshake_full",
            Workload::HandshakeResume => "handshake_resume",
            Workload::BulkReseal => "bulk_reseal",
            Workload::BulkReadOnly => "bulk_read_only",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker shards (all driven from one thread).
    pub fn shards(self) -> u16 {
        match self {
            Workload::HandshakeFull => 2,
            _ => 1,
        }
    }

    /// Sessions in one fixed-size correctness run: enough to fill
    /// several verify batches and, for the storm, a multiple of the
    /// stale cadence.
    pub fn check_sessions(self) -> usize {
        match self {
            Workload::HandshakeFull | Workload::HandshakeResume => 64,
            Workload::BulkReseal | Workload::BulkReadOnly => 6,
        }
    }

    /// Sessions over which `peak_heap_mb` is taken, from the start of
    /// timing: the program's heap keeps growing with sessions run
    /// (about 370 B per session on `handshake_resume`), so a peak over
    /// a fixed time would rise and fall with the machine's speed.
    /// Each count takes 3–8 s in the fast state.
    pub fn heap_sessions(self) -> u64 {
        match self {
            Workload::HandshakeFull => 2_000,
            Workload::HandshakeResume => 10_000,
            Workload::BulkReseal => 120,
            Workload::BulkReadOnly => 400,
        }
    }

    /// The generator's configuration for `sessions` sessions.
    pub fn load_config(self, seed: u64, sessions: usize) -> LoadConfig {
        let handshake = Exchange {
            request_len: 256,
            response_len: 1024,
            exchanges: 1,
        };
        let bulk = Exchange {
            request_len: 128,
            response_len: 64 * 1024,
            exchanges: 8,
        };
        let base = LoadConfig {
            sessions,
            seed,
            auth_mode: MiddleboxAuthMode::SgxAttested,
            ..LoadConfig::default()
        };
        match self {
            Workload::HandshakeFull => LoadConfig {
                arrival_spacing: Duration::from_micros(5),
                middlebox_every: 1,
                latency: Duration::from_micros(200),
                workload: handshake,
                defer_verify: true,
                chain_mix: ChainMix::PassThrough,
                ..base
            },
            Workload::HandshakeResume => LoadConfig {
                arrival_spacing: Duration::from_micros(5),
                middlebox_every: 0,
                latency: Duration::from_micros(200),
                workload: handshake,
                resumption_storm: true,
                stale_every: 16,
                ..base
            },
            Workload::BulkReseal => LoadConfig {
                middlebox_every: 1,
                workload: bulk,
                chain_mix: ChainMix::SlickWeb,
                ..base
            },
            Workload::BulkReadOnly => LoadConfig {
                middlebox_every: 1,
                workload: bulk,
                chain_mix: ChainMix::PassThrough,
                read_only_path: true,
                ..base
            },
        }
    }

    /// The host configuration.
    pub fn host_config(self) -> HostConfig {
        HostConfig::builder()
            .shards(self.shards().into())
            .build()
            .expect("workload host configs are valid")
    }

    /// A host over `NetSubstrate`, each shard's simulator seeded
    /// from the run seed, wrapped by `wrap` (identity when untraced).
    pub fn host<S: Substrate>(
        self,
        seed: u64,
        mut wrap: impl FnMut(u16, NetSubstrate) -> S,
    ) -> Host<S> {
        Host::new(self.host_config(), |k| {
            wrap(k, NetSubstrate::new(seed ^ u64::from(k)))
        })
    }

    /// Build everything a run needs before its first session: PKI
    /// testbed, enclave, configs, primed ticket (storm) and host.
    pub fn setup<S: Substrate>(
        self,
        seed: u64,
        sessions: usize,
        wrap: impl FnMut(u16, NetSubstrate) -> S,
    ) -> (LoadGenerator, Host<S>) {
        (
            LoadGenerator::new(self.load_config(seed, sessions)),
            self.host(seed, wrap),
        )
    }
}

/// splitmix64 finaliser: a well-mixed value from `(seed, index)`.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ 0x5EED_1A7E_u64 ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Apply session `index`'s seeded link latency: the base latency
/// scaled by a factor uniform in [0.75, 1.25).
pub fn jitter_latency(spec: &mut SessionSpec, seed: u64, index: u64) {
    let unit = (mix(seed, index) >> 11) as f64 / (1u64 << 53) as f64;
    spec.latency = Duration((spec.latency.0 as f64 * (0.75 + 0.5 * unit)) as u64);
}
