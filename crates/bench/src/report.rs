//! The `BENCH_dataplane.json` regression reporter, and the per-hop
//! measurement loop every artifact's per-hop rows share.
//!
//! Measures the data-plane fast path end to end — bulk AEAD
//! throughput for each `AesGcm` backend and the reference oracle,
//! record-layer throughput per hop, and a steady-state loop the
//! `bench` binary wraps with a counting allocator to prove the
//! per-record path is allocation-free. `bench dataplane` writes a
//! [`DataplaneReport`] to `BENCH_dataplane.json` and gates it;
//! `scripts/check.sh` runs it in `--smoke` mode. See DESIGN.md
//! §"Data-plane fast path" for how to read the numbers.

use std::time::{Duration, Instant};

use mbtls_core::dataplane::{
    fresh_hop_keys, EndpointDataPlane, FlowDirection, MiddleboxDataPlane,
};
use mbtls_crypto::gcm::{AesGcm, AesGcmRef, GcmBackend};
use mbtls_crypto::rng::CryptoRng;
use mbtls_tls::suites::CipherSuite;

use crate::json::{failing, Artifact, Json};
use crate::mb_per_s;

/// Message size for the bulk-primitive benchmarks. 16 KiB is the TLS
/// maximum record payload.
pub const BULK_LEN: usize = 16 * 1024;

/// Record payload used on the record path (just under the TLS
/// fragment ceiling so one send is one record).
pub const RECORD_LEN: usize = 16 * 1024 - 64;

/// One measured throughput number.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Stable snake_case metric name (JSON key).
    pub name: &'static str,
    /// Megabytes (1e6 bytes) of application data processed per second.
    pub mb_per_s: f64,
}

impl Throughput {
    /// The rows as one JSON object, `name: mb_per_s`, at `decimals`.
    pub(crate) fn rows_json(rows: &[Throughput], decimals: usize) -> Json {
        Json::obj(rows.iter().map(|t| (t.name, Json::Num(t.mb_per_s, decimals))))
    }

    /// The rate of the row called `name`, or 0 when there is none.
    pub(crate) fn rate(rows: &[Throughput], name: &str) -> f64 {
        rows.iter().find(|t| t.name == name).map_or(0.0, |t| t.mb_per_s)
    }
}

/// Everything that goes into `BENCH_dataplane.json`.
#[derive(Debug, Clone)]
pub struct DataplaneReport {
    /// True when produced by a `--smoke` run (numbers are noisy and
    /// only prove the harness works).
    pub smoke: bool,
    /// Bulk message size the primitive numbers were measured at.
    pub bulk_len: usize,
    /// Record payload size for the per-hop numbers.
    pub record_len: usize,
    /// Primitive and record-path throughputs.
    pub throughputs: Vec<Throughput>,
    /// Heap allocations per record on the endpoint seal path at
    /// steady state (counted by the binary's global allocator).
    pub allocs_per_record_endpoint: f64,
    /// Heap allocations per record on the middlebox open+reseal path.
    pub allocs_per_record_middlebox: f64,
}

impl Artifact for DataplaneReport {
    const KEYS: &'static [&'static str] = &[
        "throughput_mb_s",
        "aes_gcm_bitsliced_seal",
        "aes_gcm_reference_seal",
        "endpoint_seal_record",
        "middlebox_forward_record",
        "allocs_per_record_endpoint",
        "allocs_per_record_middlebox",
    ];

    fn json(&self) -> Json {
        Json::obj([
            ("smoke", self.smoke.into()),
            ("bulk_len", self.bulk_len.into()),
            ("record_len", self.record_len.into()),
            ("throughput_mb_s", Throughput::rows_json(&self.throughputs, 2)),
            ("allocs_per_record_endpoint", Json::Num(self.allocs_per_record_endpoint, 3)),
            ("allocs_per_record_middlebox", Json::Num(self.allocs_per_record_middlebox, 3)),
        ])
    }

    /// The record path is allocation-free at steady state. Counts are
    /// exact, so this holds at smoke budgets too.
    fn floors(&self) -> Vec<String> {
        failing([
            (
                self.allocs_per_record_endpoint == 0.0,
                format!(
                    "endpoint steady state allocates: {} allocs/record",
                    self.allocs_per_record_endpoint
                ),
            ),
            (
                self.allocs_per_record_middlebox == 0.0,
                format!(
                    "middlebox steady state allocates: {} allocs/record",
                    self.allocs_per_record_middlebox
                ),
            ),
        ])
    }
}

/// Bulk AEAD throughput for each `AesGcm` backend this CPU can run
/// (`aes_gcm_hw_*`, `aes_gcm_bitsliced_*`), seal and open, plus the
/// reference oracle's seal, at `BULK_LEN`-byte messages. Each backend
/// is built explicitly, so a row's label names the code it measured
/// whatever `AesGcm::new` would pick here. `total_bytes` is the
/// measurement budget per metric.
pub fn bench_primitives(total_bytes: usize) -> Vec<Throughput> {
    let mut rng = CryptoRng::from_seed(0xBE9C);
    let mut key = [0u8; 32];
    rng.fill(&mut key);
    let slow = AesGcmRef::new(&key).expect("key");
    let nonce = [0x24u8; 12];
    let aad = [0u8; 13];
    let iters = (total_bytes / BULK_LEN).max(1);
    let warmup = (iters / 16).max(1);

    let mut out = Vec::new();

    for backend in GcmBackend::ALL {
        let Some(gcm) = AesGcm::with_backend(backend, &key).expect("key") else {
            continue;
        };
        let (seal_name, open_name) = match backend {
            GcmBackend::Hardware => ("aes_gcm_hw_seal", "aes_gcm_hw_open"),
            GcmBackend::Bitsliced => ("aes_gcm_bitsliced_seal", "aes_gcm_bitsliced_open"),
        };

        // Seal: in place over a reused buffer, like the record layer
        // drives it. Each timed loop is preceded by an untimed
        // warm-up so the first metric doesn't absorb cold caches and
        // frequency ramp-up.
        let mut buf = vec![0u8; BULK_LEN];
        rng.fill(&mut buf);
        for _ in 0..warmup {
            let _tag = gcm.seal_in_place(&nonce, &aad, &mut buf).expect("seal");
        }
        let t0 = Instant::now();
        for _ in 0..iters {
            let _tag = gcm.seal_in_place(&nonce, &aad, &mut buf).expect("seal");
        }
        out.push(Throughput {
            name: seal_name,
            mb_per_s: mb_per_s(iters * BULK_LEN, t0.elapsed()),
        });

        // Open: seal once, then repeatedly verify+decrypt a scratch
        // copy (decrypting restores the plaintext, so re-copy the
        // ciphertext each round; the copy is a small share of the
        // crypto).
        let mut ct = vec![0u8; BULK_LEN];
        rng.fill(&mut ct);
        let tag = gcm.seal_in_place(&nonce, &aad, &mut ct).expect("seal");
        let mut scratch = vec![0u8; BULK_LEN];
        for _ in 0..warmup {
            scratch.copy_from_slice(&ct);
            gcm.open_in_place(&nonce, &aad, &mut scratch, &tag).expect("open");
        }
        let t0 = Instant::now();
        for _ in 0..iters {
            scratch.copy_from_slice(&ct);
            gcm.open_in_place(&nonce, &aad, &mut scratch, &tag).expect("open");
        }
        out.push(Throughput {
            name: open_name,
            mb_per_s: mb_per_s(iters * BULK_LEN, t0.elapsed()),
        });
    }

    // Reference oracle seal, for the speedup ratio in the report.
    let mut pt = vec![0u8; BULK_LEN];
    rng.fill(&mut pt);
    for _ in 0..warmup {
        let _sealed = slow.seal(&nonce, &aad, &pt).expect("seal");
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        let _sealed = slow.seal(&nonce, &aad, &pt).expect("seal");
    }
    out.push(Throughput {
        name: "aes_gcm_reference_seal",
        mb_per_s: mb_per_s(iters * BULK_LEN, t0.elapsed()),
    });

    out
}

/// The per-hop measurement loop behind every per-hop row in every
/// artifact: megabytes per second of `RECORD_LEN`-byte records
/// through `step`. Each iteration first calls `prepare` untimed (to
/// seal the record `step` consumes into the cleared wire buffer, for
/// steps that take one) and then times `step` alone. The first
/// `iters / 16` iterations are an untimed warm-up. `total_bytes` is
/// the timed plaintext budget.
pub(crate) fn hop_mb_s(
    total_bytes: usize,
    mut prepare: impl FnMut(&mut Vec<u8>),
    mut step: impl FnMut(&[u8]),
) -> f64 {
    let iters = (total_bytes / RECORD_LEN).max(1);
    let warmup = (iters / 16).max(1);
    let mut wire = Vec::new();
    let mut timed = Duration::ZERO;
    for i in 0..warmup + iters {
        wire.clear();
        prepare(&mut wire);
        let t0 = Instant::now();
        step(&wire);
        if i >= warmup {
            timed += t0.elapsed();
        }
    }
    mb_per_s(iters * RECORD_LEN, timed)
}

/// Endpoint seal per hop: `send()` into the internal wire buffer,
/// drained into a reused Vec.
pub(crate) fn endpoint_seal_mb_s(total_bytes: usize) -> f64 {
    let mut rng = CryptoRng::from_seed(0xF0B7);
    let hop = fresh_hop_keys(CipherSuite::EcdheAes256GcmSha384, &mut rng);
    let mut client = EndpointDataPlane::for_client(&hop).expect("keys");
    let payload = vec![0xA5u8; RECORD_LEN];
    let mut out = Vec::new();
    hop_mb_s(
        total_bytes,
        |_| {},
        |_| {
            client.send(&payload).expect("send");
            out.clear();
            client.drain_outgoing_into(&mut out);
        },
    )
}

/// Middlebox relay per hop: one freshly sealed record (sequence
/// numbers forbid replaying one) fed to a [`MiddleboxDataPlane`] and
/// drained into a reused Vec; only the middlebox's work is timed.
///
/// * distinct hop keys: open + reseal, the default mbTLS relay;
/// * `shared_key`, not `read_only`: open + reseal on one key for
///   both hops — exactly the data plane
///   `mbtls_core::baseline::NaiveKeyShare::install_keys` builds;
/// * `shared_key` and `read_only`: the tag-only forward fast path
///   (asserted taken for every record).
pub(crate) fn relay_mb_s(total_bytes: usize, shared_key: bool, read_only: bool) -> f64 {
    let mut rng = CryptoRng::from_seed(0xC4A1);
    let suite = CipherSuite::EcdheAes256GcmSha384;
    let left = fresh_hop_keys(suite, &mut rng);
    let distinct = fresh_hop_keys(suite, &mut rng);
    let right = if shared_key { &left } else { &distinct };
    let mut sender = EndpointDataPlane::for_client(&left).expect("keys");
    let mut mbox = MiddleboxDataPlane::new(&left, right).expect("keys");
    mbox.set_read_only(read_only);
    let payload = vec![0xA5u8; RECORD_LEN];
    let mut fwd = Vec::new();
    let mb_s = hop_mb_s(
        total_bytes,
        |wire| {
            sender.send(&payload).expect("send");
            sender.drain_outgoing_into(wire);
        },
        |wire| {
            mbox.feed(FlowDirection::ClientToServer, wire, |_, _p| {}).expect("forward");
            fwd.clear();
            mbox.drain_toward_server_into(&mut fwd);
        },
    );
    assert!(mbox.records_forwarded > 0, "relay forwarded nothing");
    assert_eq!(
        mbox.records_fast_forwarded,
        if read_only { mbox.records_forwarded } else { 0 },
        "every record must take the path the relay was built for"
    );
    mb_s
}

/// Record-path throughput per hop: endpoint seal (client encrypting
/// records) and middlebox forward (open + reseal). `total_bytes` is
/// the plaintext budget per metric.
pub fn bench_record_path(total_bytes: usize) -> Vec<Throughput> {
    vec![
        Throughput { name: "endpoint_seal_record", mb_per_s: endpoint_seal_mb_s(total_bytes) },
        Throughput {
            name: "middlebox_forward_record",
            mb_per_s: relay_mb_s(total_bytes, false, false),
        },
    ]
}

/// Untimed records every steady-state pipeline pushes through before
/// it is counted, enough for every buffer to reach its final
/// capacity.
const STEADY_WARMUP_RECORDS: usize = 10;

/// A warmed-up client → server pipeline (no middlebox) whose buffers
/// have reached steady-state capacity. The `bench` binary counts
/// allocations around [`Self::pump`].
pub struct SteadyStateEndpoint {
    client: EndpointDataPlane,
    server: EndpointDataPlane,
    payload: Vec<u8>,
    wire: Vec<u8>,
    plain: Vec<u8>,
}

impl SteadyStateEndpoint {
    /// Build and warm up until buffer capacities stop growing.
    pub fn warmed_up() -> Self {
        let mut rng = CryptoRng::from_seed(0xA111);
        let suite = CipherSuite::EcdheAes256GcmSha384;
        let hop = fresh_hop_keys(suite, &mut rng);
        let mut pipeline = SteadyStateEndpoint {
            client: EndpointDataPlane::for_client(&hop).expect("keys"),
            server: EndpointDataPlane::for_server(&hop).expect("keys"),
            payload: vec![0x5Au8; RECORD_LEN],
            wire: Vec::new(),
            plain: Vec::new(),
        };
        pipeline.pump(STEADY_WARMUP_RECORDS);
        pipeline
    }

    /// Seal and deliver `records` full-size records through reused
    /// buffers.
    pub fn pump(&mut self, records: usize) {
        for _ in 0..records {
            self.client.send(&self.payload).expect("send");
            self.wire.clear();
            self.client.drain_outgoing_into(&mut self.wire);
            self.server.feed(&self.wire).expect("deliver");
            self.plain.clear();
            self.server.drain_plaintext_into(&mut self.plain);
            assert_eq!(self.plain.len(), RECORD_LEN, "record did not round-trip");
        }
    }
}

/// A warmed-up client → middlebox → server pipeline whose buffers
/// have reached their steady-state capacities. The `bench` binary
/// counts allocations around [`Self::pump`].
pub struct SteadyStatePipeline {
    client: EndpointDataPlane,
    mbox: MiddleboxDataPlane,
    server: EndpointDataPlane,
    read_only: bool,
    payload: Vec<u8>,
    wire: Vec<u8>,
    fwd: Vec<u8>,
    plain: Vec<u8>,
}

impl SteadyStatePipeline {
    /// Build the pipeline and warm it up. `read_only` puts both hops
    /// on one aliased key and declares the middlebox read-only, so
    /// every record takes the tag-only forward fast path; otherwise
    /// the hops have distinct keys and every record is opened and
    /// resealed.
    pub fn warmed_up(read_only: bool) -> Self {
        let mut rng = CryptoRng::from_seed(if read_only { 0xFA57 } else { 0xA110 });
        let suite = CipherSuite::EcdheAes256GcmSha384;
        let left = fresh_hop_keys(suite, &mut rng);
        let distinct = fresh_hop_keys(suite, &mut rng);
        let right = if read_only { &left } else { &distinct };
        let mut mbox = MiddleboxDataPlane::new(&left, right).expect("keys");
        mbox.set_read_only(read_only);
        let mut pipeline = SteadyStatePipeline {
            client: EndpointDataPlane::for_client(&left).expect("keys"),
            mbox,
            server: EndpointDataPlane::for_server(right).expect("keys"),
            read_only,
            payload: vec![0x5Au8; RECORD_LEN],
            wire: Vec::new(),
            fwd: Vec::new(),
            plain: Vec::new(),
        };
        pipeline.pump(STEADY_WARMUP_RECORDS);
        pipeline
    }

    /// Push `records` full-size records client → middlebox → server
    /// and drain the server's plaintext, all through reused buffers.
    pub fn pump(&mut self, records: usize) {
        let fast_before = self.mbox.records_fast_forwarded;
        for _ in 0..records {
            self.client.send(&self.payload).expect("send");
            self.wire.clear();
            self.client.drain_outgoing_into(&mut self.wire);
            self.mbox
                .feed(FlowDirection::ClientToServer, &self.wire, |_, _p| {})
                .expect("forward");
            self.fwd.clear();
            self.mbox.drain_toward_server_into(&mut self.fwd);
            self.server.feed(&self.fwd).expect("deliver");
            self.plain.clear();
            self.server.drain_plaintext_into(&mut self.plain);
            assert_eq!(self.plain.len(), RECORD_LEN, "record did not round-trip");
        }
        assert_eq!(
            self.mbox.records_fast_forwarded - fast_before,
            if self.read_only { records as u64 } else { 0 },
            "every record must take the path the pipeline was built for"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing() -> DataplaneReport {
        DataplaneReport {
            smoke: true,
            bulk_len: BULK_LEN,
            record_len: RECORD_LEN,
            throughputs: [
                "aes_gcm_bitsliced_seal",
                "aes_gcm_reference_seal",
                "endpoint_seal_record",
                "middlebox_forward_record",
            ]
            .into_iter()
            .map(|name| Throughput { name, mb_per_s: 100.0 })
            .collect(),
            allocs_per_record_endpoint: 0.0,
            allocs_per_record_middlebox: 0.0,
        }
    }

    #[test]
    fn smoke_report_is_valid_json_shape() {
        let mut throughputs = bench_primitives(BULK_LEN);
        throughputs.extend(bench_record_path(RECORD_LEN));
        let report = DataplaneReport { throughputs, ..passing() };
        assert_eq!(report.check(), Vec::<String>::new());
        let json = report.json().render();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"aes_gcm_bitsliced_seal\""));
        let hw = AesGcm::with_backend(GcmBackend::Hardware, &[0u8; 16]).expect("key");
        assert_eq!(json.contains("\"aes_gcm_hw_seal\""), hw.is_some());
        assert!(json.contains("\"middlebox_forward_record\""));
        assert!(json.contains("\"allocs_per_record_endpoint\": 0.000,\n"));
    }

    #[test]
    fn steady_state_pipeline_round_trips() {
        let mut p = SteadyStatePipeline::warmed_up(false);
        p.pump(3);
    }

    #[test]
    fn any_steady_state_allocation_fails_the_gate() {
        assert_eq!(passing().check(), Vec::<String>::new());
        let endpoint = DataplaneReport { allocs_per_record_endpoint: 0.25, ..passing() };
        assert_eq!(
            endpoint.check(),
            vec!["endpoint steady state allocates: 0.25 allocs/record".to_string()]
        );
        let middlebox = DataplaneReport { allocs_per_record_middlebox: 1.0, ..passing() };
        assert_eq!(
            middlebox.check(),
            vec!["middlebox steady state allocates: 1 allocs/record".to_string()]
        );
    }

    #[test]
    fn missing_row_or_non_finite_rate_fails_the_gate() {
        let mut missing = passing();
        missing.throughputs.retain(|t| t.name != "aes_gcm_reference_seal");
        assert_eq!(missing.check(), vec!["missing key \"aes_gcm_reference_seal\"".to_string()]);
        let mut infinite = passing();
        // What `mb_per_s` yields for a zero elapsed time.
        infinite.throughputs[2].mb_per_s = mb_per_s(RECORD_LEN, Duration::ZERO);
        assert_eq!(
            infinite.check(),
            vec!["throughput_mb_s.endpoint_seal_record is not finite (inf)".to_string()]
        );
    }
}
