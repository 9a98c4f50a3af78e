//! The `BENCH_chain.json` regression reporter: read-only forward
//! fast path vs open+reseal per hop, and Slick-style
//! service-function-chain throughput end to end.
//!
//! Per-hop numbers isolate the record relay cost at one middlebox:
//! `endpoint_seal` (the producer baseline), `middlebox_open_reseal`
//! (the classic double-AEAD forward), `middlebox_read_only_forward`
//! (aliased keys + read-only declaration: tag verify only),
//! `raw_tag_verify` (the record-layer primitive the fast path should
//! collapse toward), and `naive_shared_key_reseal` (open+reseal on the
//! one key the naive key-sharing baseline gives both hops: per-hop
//! keys cost no data-plane work, only key-distribution bytes). Chain
//! numbers drive real mbTLS sessions — client → [filter → cache →
//! compression] → server — with the seeded HTTP mix from
//! `mbtls_http::workload`, at 1/2/3 middleboxes, plus a 3-tap
//! read-only variant on aliased keys. `bench chain` wraps the
//! read-only steady-state pump with a counting allocator, writes a
//! [`ChainReport`] to `BENCH_chain.json` and gates it;
//! `scripts/check.sh` runs it in `--smoke` mode.

use std::sync::Arc;
use std::time::Instant;

use mbtls_core::attacks::Testbed;
use mbtls_core::client::MbClientSession;
use mbtls_core::dataplane::fresh_hop_keys;
use mbtls_core::driver::{Chain, Relay};
use mbtls_core::middlebox::Middlebox;
use mbtls_core::server::MbServerSession;
use mbtls_core::MbError;
use mbtls_crypto::rng::CryptoRng;
use mbtls_http::message::{RequestParser, ResponseParser};
use mbtls_http::workload::{response_for, RequestMix};
use mbtls_mboxes::{ChainFunction, ServiceChain};
use mbtls_tls::record::ContentType;
use mbtls_tls::suites::CipherSuite;

use crate::json::{failing, Artifact, Json};
use crate::report::{endpoint_seal_mb_s, hop_mb_s, relay_mb_s, Throughput, RECORD_LEN};
use crate::{fnv1a, mb_per_s, FNV1A_START};

/// Everything that goes into `BENCH_chain.json`.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// True when produced by a `--smoke` run (numbers are noisy and
    /// only prove the harness works).
    pub smoke: bool,
    /// Record payload size for the per-hop numbers.
    pub record_len: usize,
    /// Per-hop relay throughputs.
    pub per_hop: Vec<Throughput>,
    /// End-to-end chain throughputs (application bytes, both
    /// directions summed).
    pub chains: Vec<Throughput>,
    /// Handshake-amortization rows: large-response size classes and
    /// session-reuse configurations, all on the full 3-middlebox
    /// chain, timed *including* handshakes.
    pub amortized: Vec<Throughput>,
    /// Heap allocations per record through a read-only middlebox at
    /// steady state (counted by the binary's global allocator).
    pub allocs_per_record_read_only: f64,
    /// True when every double-run chain configuration produced
    /// bit-identical application byte streams (`"identical"` in the
    /// artifact, else `"diverged"`).
    pub identical: bool,
}

impl ChainReport {
    /// `middlebox_read_only_forward ÷ middlebox_open_reseal` (the
    /// fast-path win), or 0 without a reseal rate.
    pub fn read_only_speedup(&self) -> f64 {
        let reseal = Throughput::rate(&self.per_hop, "middlebox_open_reseal");
        if reseal > 0.0 {
            Throughput::rate(&self.per_hop, "middlebox_read_only_forward") / reseal
        } else {
            0.0
        }
    }
}

impl Artifact for ChainReport {
    const KEYS: &'static [&'static str] = &[
        "per_hop_mb_s",
        "endpoint_seal",
        "middlebox_open_reseal",
        "middlebox_read_only_forward",
        "raw_tag_verify",
        "read_only_speedup",
        "chain_mb_s",
        "amortized_mb_s",
        "allocs_per_record_read_only",
        "determinism",
    ];

    fn json(&self) -> Json {
        Json::obj([
            ("smoke", self.smoke.into()),
            ("record_len", self.record_len.into()),
            ("per_hop_mb_s", Throughput::rows_json(&self.per_hop, 2)),
            ("read_only_speedup", Json::Num(self.read_only_speedup(), 3)),
            ("chain_mb_s", Throughput::rows_json(&self.chains, 3)),
            ("amortized_mb_s", Throughput::rows_json(&self.amortized, 3)),
            ("allocs_per_record_read_only", Json::Num(self.allocs_per_record_read_only, 3)),
            ("determinism", if self.identical { "identical" } else { "diverged" }.into()),
        ])
    }

    /// Every floor holds at smoke budgets too: skipping a body decrypt
    /// wins at any record count, the same exchange budget on one
    /// reused session strictly beats one handshake per exchange, a
    /// 256k response strictly beats 4k per byte moved, and allocation
    /// counts and determinism are exact, not statistical.
    fn floors(&self) -> Vec<String> {
        let positive = |rows: &[Throughput], kind: &str, names: &[&str]| {
            names
                .iter()
                .map(|name| {
                    (Throughput::rate(rows, name) > 0.0, format!("{kind} {name} missing or zero"))
                })
                .collect::<Vec<_>>()
        };
        let amortized = |name| Throughput::rate(&self.amortized, name);
        let speedup = self.read_only_speedup();
        let mut checks = positive(
            &self.per_hop,
            "per-hop metric",
            &[
                "endpoint_seal",
                "middlebox_open_reseal",
                "middlebox_read_only_forward",
                "raw_tag_verify",
            ],
        );
        checks.extend(positive(
            &self.chains,
            "chain config",
            &["middleboxes_1", "middleboxes_2", "middleboxes_3", "middleboxes_3_read_only"],
        ));
        checks.extend(positive(
            &self.amortized,
            "amortized config",
            &[
                "middleboxes_3_resp_4k",
                "middleboxes_3_resp_64k",
                "middleboxes_3_resp_256k",
                "middleboxes_3_reuse_x1",
                "middleboxes_3_reuse_x16",
            ],
        ));
        checks.extend([
            (
                speedup >= 1.5,
                format!("read-only fast path regressed: {speedup:.3}x < 1.5x over open+reseal"),
            ),
            (
                amortized("middleboxes_3_reuse_x16") > amortized("middleboxes_3_reuse_x1"),
                "session reuse does not amortize the handshake".to_string(),
            ),
            (
                amortized("middleboxes_3_resp_256k") > amortized("middleboxes_3_resp_4k"),
                "large responses do not amortize per-record overhead".to_string(),
            ),
            (
                self.allocs_per_record_read_only == 0.0,
                format!(
                    "read-only steady state allocates: {} allocs/record",
                    self.allocs_per_record_read_only
                ),
            ),
            (self.identical, "double-run chain determinism verdict is not identical".to_string()),
        ]);
        failing(checks)
    }
}

/// Per-hop relay throughput at `RECORD_LEN`-byte records:
/// `endpoint_seal`, `middlebox_open_reseal` (unique hop keys, the
/// default data plane), `middlebox_read_only_forward` (aliased keys,
/// read-only declaration), `raw_tag_verify` (the bare record-layer
/// primitive), and `naive_shared_key_reseal` (one key for both hops,
/// open + reseal). `total_bytes` is the plaintext budget per metric.
pub fn bench_per_hop(total_bytes: usize) -> Vec<Throughput> {
    // Raw tag verify: the record-layer primitive alone, no framing,
    // no buffer management — the ceiling the fast path approaches.
    let mut rng = CryptoRng::from_seed(0xC4A2);
    let shared = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let mut writer = shared.seal_client_to_server().expect("keys");
    let mut reader = shared.open_client_to_server().expect("keys");
    let payload = vec![0xA5u8; RECORD_LEN];
    let raw_tag_verify = hop_mb_s(
        total_bytes,
        |wire| {
            writer.seal_record_into(ContentType::ApplicationData, &payload, wire).expect("seal");
        },
        |wire| {
            reader.verify_record(ContentType::ApplicationData, &wire[5..]).expect("verify");
        },
    );
    vec![
        Throughput { name: "endpoint_seal", mb_per_s: endpoint_seal_mb_s(total_bytes) },
        Throughput {
            name: "middlebox_open_reseal",
            mb_per_s: relay_mb_s(total_bytes, false, false),
        },
        Throughput {
            name: "middlebox_read_only_forward",
            mb_per_s: relay_mb_s(total_bytes, true, true),
        },
        Throughput { name: "raw_tag_verify", mb_per_s: raw_tag_verify },
        Throughput {
            name: "naive_shared_key_reseal",
            mb_per_s: relay_mb_s(total_bytes, true, false),
        },
    ]
}

/// Outcome of one end-to-end chain run.
pub struct ChainRunResult {
    /// Application megabytes per second through the chain.
    pub mb_per_s: f64,
    /// FNV-1a digest of every application byte the server received
    /// followed by every byte the client received — the determinism
    /// fingerprint.
    pub digest: u64,
}

/// Drive `exchanges` HTTP request/response pairs through a freshly
/// handshaken mbTLS session with the given service functions on the
/// path. `read_only_keys` distributes aliased (bridge) keys to every
/// hop, as a client would for a declared-read-only path.
pub fn run_chain(
    functions: &[ChainFunction],
    exchanges: usize,
    seed: u64,
    read_only_keys: bool,
) -> Result<ChainRunResult, MbError> {
    let testbed = Testbed::new(seed);
    let mut rng = CryptoRng::from_seed(seed ^ 0xC11A);
    let mut client_cfg = testbed.client_config();
    client_cfg.read_only_middleboxes = read_only_keys;
    let client = MbClientSession::new(Arc::new(client_cfg), "server.example", rng.fork());
    let server = MbServerSession::new(Arc::new(testbed.server_config()), rng.fork());
    let middles: Vec<Box<dyn Relay>> = functions
        .iter()
        .map(|f| {
            let cfg = testbed.middlebox_config(&testbed.mbox_code);
            Box::new(Middlebox::with_processor(cfg, rng.fork(), f.build())) as Box<dyn Relay>
        })
        .collect();
    let mut chain = Chain::new(Box::new(client), middles, Box::new(server));
    chain.run_handshake()?;

    let mut mix = RequestMix::new(seed);
    let mut server_rx = RequestParser::new();
    let mut client_rx = ResponseParser::new();
    let mut digest = FNV1A_START;
    let mut app_bytes = 0usize;
    let t0 = Instant::now();
    for _ in 0..exchanges {
        // Client → chain → server: pump until a full request arrives
        // (middleboxes may rewrite it, so parse rather than count).
        let req = mix.next_request().encode();
        app_bytes += req.len();
        chain.client.send_app(&req)?;
        let arrived = loop {
            chain.pump()?;
            let got = chain.server.recv_app();
            fnv1a(&mut digest, &got);
            server_rx.feed(&got);
            if let Some(r) = server_rx.next_request().map_err(|_| {
                MbError::unexpected_state("chain delivered an unparseable request")
            })? {
                break r;
            }
        };
        // Server answers canonically for whatever request it saw.
        let resp = response_for(&arrived).encode();
        app_bytes += resp.len();
        chain.server.send_app(&resp)?;
        loop {
            chain.pump()?;
            let got = chain.client.recv_app();
            fnv1a(&mut digest, &got);
            client_rx.feed(&got);
            if client_rx
                .next_response()
                .map_err(|_| MbError::unexpected_state("chain delivered an unparseable response"))?
                .is_some()
            {
                break;
            }
        }
    }
    Ok(ChainRunResult { mb_per_s: mb_per_s(app_bytes, t0.elapsed()), digest })
}

/// Drive `sessions` sequential mbTLS sessions — each freshly
/// handshaken, each carrying `exchanges_per_session` raw
/// request/response rounds with a `response_len`-byte response —
/// through the full Slick chain, timing handshakes *and* data. This
/// is the amortization probe: the per-hop HTTP rows above exclude
/// the handshake, which hides how handshake-bound short sessions
/// are; these rows make the trade visible (bigger responses and
/// reused sessions both spread the fixed handshake cost over more
/// application bytes). Raw (non-HTTP) payloads pass through every
/// chain processor unchanged, so byte counts are exact.
pub fn run_chain_sized(
    functions: &[ChainFunction],
    sessions: usize,
    exchanges_per_session: usize,
    response_len: usize,
    seed: u64,
) -> Result<ChainRunResult, MbError> {
    let testbed = Testbed::new(seed);
    let req = vec![0x42u8; 256];
    let resp: Vec<u8> = (0..response_len).map(|i| (i % 251) as u8).collect();
    let mut digest = FNV1A_START;
    let mut app_bytes = 0usize;
    let t0 = Instant::now();
    for s in 0..sessions {
        let mut rng = CryptoRng::from_seed(seed ^ 0xA3_013 ^ ((s as u64) << 32));
        let client =
            MbClientSession::new(Arc::new(testbed.client_config()), "server.example", rng.fork());
        let server = MbServerSession::new(Arc::new(testbed.server_config()), rng.fork());
        let middles: Vec<Box<dyn Relay>> = functions
            .iter()
            .map(|f| {
                let cfg = testbed.middlebox_config(&testbed.mbox_code);
                Box::new(Middlebox::with_processor(cfg, rng.fork(), f.build())) as Box<dyn Relay>
            })
            .collect();
        let mut chain = Chain::new(Box::new(client), middles, Box::new(server));
        chain.run_handshake()?;
        for _ in 0..exchanges_per_session {
            let got = chain.client_to_server(&req, req.len())?;
            app_bytes += got.len();
            fnv1a(&mut digest, &got);
            let got = chain.server_to_client(&resp, resp.len())?;
            app_bytes += got.len();
            fnv1a(&mut digest, &got);
        }
    }
    Ok(ChainRunResult { mb_per_s: mb_per_s(app_bytes, t0.elapsed()), digest })
}

/// The amortization configurations: `(name, sessions,
/// exchanges_per_session, response_len)`. Size classes hold the
/// session count fixed and grow the response; the reuse pair moves
/// the same exchange budget from one-handshake-per-exchange to one
/// session for all of them.
pub fn amortization_configs(smoke: bool) -> Vec<(&'static str, usize, usize, usize)> {
    let ex = if smoke { 2 } else { 16 };
    let reuse = if smoke { 4 } else { 16 };
    vec![
        ("middleboxes_3_resp_4k", 1, ex, 4 * 1024),
        ("middleboxes_3_resp_64k", 1, ex, 64 * 1024),
        ("middleboxes_3_resp_256k", 1, ex, 256 * 1024),
        ("middleboxes_3_reuse_x1", reuse, 1, 64 * 1024),
        ("middleboxes_3_reuse_x16", 1, reuse, 64 * 1024),
    ]
}

/// Measure every amortization configuration on the full Slick chain,
/// double-running each for the shared determinism verdict (true when
/// every pair replayed identically).
pub fn bench_amortized(smoke: bool, seed: u64) -> (Vec<Throughput>, bool) {
    let slick = ServiceChain::slick_web();
    let mut out = Vec::new();
    let mut identical = true;
    for (name, sessions, exchanges, resp) in amortization_configs(smoke) {
        let a = run_chain_sized(slick.functions(), sessions, exchanges, resp, seed)
            .expect("amortized chain run completes");
        let b = run_chain_sized(slick.functions(), sessions, exchanges, resp, seed)
            .expect("amortized chain run completes");
        identical &= a.digest == b.digest;
        out.push(Throughput { name, mb_per_s: a.mb_per_s.max(b.mb_per_s) });
    }
    (out, identical)
}

/// The chain configurations the report measures: the Slick web chain
/// at 1, 2, and 3 middleboxes, plus 3 read-only taps on aliased keys.
pub fn chain_configs() -> Vec<(&'static str, ServiceChain, bool)> {
    let slick = ServiceChain::slick_web();
    vec![
        ("middleboxes_1", slick.prefix(1), false),
        ("middleboxes_2", slick.prefix(2), false),
        ("middleboxes_3", slick.clone(), false),
        (
            "middleboxes_3_read_only",
            ServiceChain::new(vec![ChainFunction::Tap; 3]),
            true,
        ),
    ]
}

/// Measure every chain configuration, double-running each for the
/// determinism verdict (true when every pair replayed identically).
pub fn bench_chains(exchanges: usize, seed: u64) -> (Vec<Throughput>, bool) {
    let mut out = Vec::new();
    let mut identical = true;
    for (name, chain, read_only) in chain_configs() {
        let a = run_chain(chain.functions(), exchanges, seed, read_only)
            .expect("chain run completes");
        let b = run_chain(chain.functions(), exchanges, seed, read_only)
            .expect("chain run completes");
        identical &= a.digest == b.digest;
        out.push(Throughput { name, mb_per_s: a.mb_per_s.max(b.mb_per_s) });
    }
    (out, identical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SteadyStatePipeline;

    fn rows(names: &[&'static str], mb_per_s: f64) -> Vec<Throughput> {
        names.iter().map(|&name| Throughput { name, mb_per_s }).collect()
    }

    fn passing() -> ChainReport {
        let mut per_hop =
            rows(&["endpoint_seal", "raw_tag_verify", "naive_shared_key_reseal"], 900.0);
        per_hop.extend(rows(&["middlebox_open_reseal"], 100.0));
        per_hop.extend(rows(&["middlebox_read_only_forward"], 200.0));
        let mut amortized = rows(&["middleboxes_3_resp_4k", "middleboxes_3_reuse_x1"], 5.0);
        amortized.extend(rows(
            &["middleboxes_3_resp_64k", "middleboxes_3_resp_256k", "middleboxes_3_reuse_x16"],
            10.0,
        ));
        ChainReport {
            smoke: true,
            record_len: RECORD_LEN,
            per_hop,
            chains: rows(
                &["middleboxes_1", "middleboxes_2", "middleboxes_3", "middleboxes_3_read_only"],
                20.0,
            ),
            amortized,
            allocs_per_record_read_only: 0.0,
            identical: true,
        }
    }

    fn set(rows: &mut [Throughput], name: &str, mb_per_s: f64) {
        rows.iter_mut().find(|t| t.name == name).expect("fixture row").mb_per_s = mb_per_s;
    }

    #[test]
    fn smoke_report_is_valid_json_shape() {
        let (chains, chains_identical) = bench_chains(2, 0xC0DE);
        let (amortized, amortized_identical) = bench_amortized(true, 0xC0DE);
        let report = ChainReport {
            per_hop: bench_per_hop(RECORD_LEN),
            chains,
            amortized,
            identical: chains_identical && amortized_identical,
            ..passing()
        };
        assert!(report.identical);
        let json = report.json().render();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"middlebox_read_only_forward\""));
        assert!(json.contains("\"naive_shared_key_reseal\""));
        assert!(json.contains("\"middleboxes_3_read_only\""));
        assert!(json.contains("\"middleboxes_3_resp_256k\""));
        assert!(json.contains("\"middleboxes_3_reuse_x16\""));
        assert!(json.contains("\"determinism\": \"identical\""));
        assert_eq!(report.json().non_finite(), Vec::<String>::new());
    }

    #[test]
    fn passing_fixture_passes_every_floor() {
        assert_eq!(passing().check(), Vec::<String>::new());
    }

    #[test]
    fn read_only_speedup_below_one_and_a_half_fails() {
        let mut report = passing();
        set(&mut report.per_hop, "middlebox_read_only_forward", 140.0);
        assert_eq!(
            report.check(),
            vec!["read-only fast path regressed: 1.400x < 1.5x over open+reseal".to_string()]
        );
    }

    #[test]
    fn session_reuse_that_does_not_amortize_fails() {
        let mut report = passing();
        set(&mut report.amortized, "middleboxes_3_reuse_x16", 5.0);
        assert_eq!(
            report.check(),
            vec!["session reuse does not amortize the handshake".to_string()]
        );
    }

    #[test]
    fn large_responses_that_do_not_amortize_fail() {
        let mut report = passing();
        set(&mut report.amortized, "middleboxes_3_resp_256k", 5.0);
        assert_eq!(
            report.check(),
            vec!["large responses do not amortize per-record overhead".to_string()]
        );
    }

    #[test]
    fn read_only_allocation_fails() {
        let report = ChainReport { allocs_per_record_read_only: 0.015625, ..passing() };
        assert_eq!(
            report.check(),
            vec!["read-only steady state allocates: 0.015625 allocs/record".to_string()]
        );
    }

    #[test]
    fn diverged_determinism_fails() {
        let report = ChainReport { identical: false, ..passing() };
        assert!(report.json().render().contains("\"determinism\": \"diverged\""));
        assert_eq!(
            report.check(),
            vec!["double-run chain determinism verdict is not identical".to_string()]
        );
    }

    #[test]
    fn missing_or_zero_rows_fail() {
        let mut report = passing();
        report.chains.retain(|t| t.name != "middleboxes_2");
        set(&mut report.per_hop, "raw_tag_verify", 0.0);
        assert_eq!(
            report.check(),
            vec![
                "per-hop metric raw_tag_verify missing or zero".to_string(),
                "chain config middleboxes_2 missing or zero".to_string(),
            ]
        );
    }

    #[test]
    fn session_reuse_amortizes_handshakes() {
        // Same exchange budget, same bytes: one handshake for all
        // exchanges must beat one handshake per exchange — the floor
        // is structural, not statistical.
        let slick = ServiceChain::slick_web();
        let per_exchange = run_chain_sized(slick.functions(), 3, 1, 16 * 1024, 7).expect("run");
        let reused = run_chain_sized(slick.functions(), 1, 3, 16 * 1024, 7).expect("run");
        assert!(
            reused.mb_per_s > per_exchange.mb_per_s,
            "reuse {} !> per-exchange {}",
            reused.mb_per_s,
            per_exchange.mb_per_s
        );
    }

    #[test]
    fn read_only_steady_state_round_trips() {
        let mut p = SteadyStatePipeline::warmed_up(true);
        p.pump(3);
    }

    #[test]
    fn chain_runs_are_deterministic_and_tap_chain_fast_forwards() {
        let taps = ServiceChain::new(vec![ChainFunction::Tap; 2]);
        let a = run_chain(taps.functions(), 3, 42, true).expect("run");
        let b = run_chain(taps.functions(), 3, 42, true).expect("run");
        assert_eq!(a.digest, b.digest);
    }
}
