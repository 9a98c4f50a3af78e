//! The `BENCH_scale.json` capacity reporter.
//!
//! Where `report.rs` measures the data-plane fast path one record at
//! a time, this module measures the *host*: how many full mbTLS
//! sessions per second a sharded [`Host`] can admit, handshake,
//! serve, and retire over the network simulator, at fleet sizes of
//! 10 000, 100 000, and 1 000 000 sessions under open/close churn,
//! with a cores-vs-throughput curve at 1/2/4/8 shards per fleet.
//!
//! # The max-shard-wall throughput model
//!
//! The container this harness runs in has one CPU core, so the curve
//! cannot come from real threads. Shards share *nothing* — each owns
//! its slab, wheel, buffer pool, substrate, and clock — so an
//! S-shard deployment's wall clock is the wall clock of its slowest
//! shard. [`bench_scale_point`] therefore drives each shard's slice
//! of the fleet to completion *sequentially*, times each slice
//! separately, and models S-core throughput as
//! `N / max(per-shard wall)`. The per-shard walls are published in
//! the artifact so the model is auditable, and the JSON names the
//! model explicitly (`"model": "max_shard_wall"`).
//!
//! `bench scale` wraps [`SteadyStateShard`] with a counting allocator
//! to prove every shard's per-record steady state is allocation-free,
//! replays one seeded multi-shard run twice to prove the merged
//! telemetry trace is bit-identical, and gates the artifact with
//! [`ScaleReport`]'s checks. `scripts/check.sh` runs it in `--smoke`
//! mode; see DESIGN.md §6f–§6g for how to read the numbers.

use std::time::Instant;

use mbtls_host::{
    Host, HostConfig, LoadConfig, LoadGenerator, NetSubstrate, PipeSubstrate, Shard, Workload,
};
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_telemetry::{merge_shard_traces, to_json_line};

use crate::json::{failing, Artifact, Json};
use crate::{fnv1a, FNV1A_START};

/// Every load run in this module serves the same per-session
/// workload: `exchanges` request/response round trips, so one session
/// moves `exchanges * 2` application records end to end.
pub const WORKLOAD: Workload = Workload { request_len: 256, response_len: 1024, exchanges: 2 };

/// Records one session contributes to the aggregate record count
/// (each exchange is one request record plus one response record).
pub const RECORDS_PER_SESSION: u64 = WORKLOAD.exchanges as u64 * 2;

/// The shard counts measured at every fleet size.
pub const SHARD_CURVE: &[u16] = &[1, 2, 4, 8];

/// The churn profile measured at each fleet size: arrivals every 5 µs
/// of virtual time (far faster than a session's ~3 ms lifetime, so
/// hundreds of sessions are live at once per shard), one middlebox on
/// every *third* chain, 200 µs per-link latency.
///
/// The middlebox cadence is deliberately coprime to every shard count
/// in [`SHARD_CURVE`]: a cadence that shares a factor with the shard
/// stride would pin the expensive middlebox chains to a subset of
/// shards under round-robin placement (e.g. cadence 4 at 4 shards
/// puts *all* of them on shard 0), and the max-shard-wall model would
/// then measure that placement pathology instead of the architecture.
pub fn scale_load(sessions: usize, seed: u64) -> LoadConfig {
    LoadConfig {
        sessions,
        arrival_spacing: Duration::from_micros(5),
        middlebox_every: 3,
        latency: Duration::from_micros(200),
        workload: WORKLOAD,
        seed,
        ..LoadConfig::default()
    }
}

/// One shard-count configuration of one fleet size.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shards in this configuration.
    pub shards: u16,
    /// Wall-clock milliseconds each shard took to drain its slice,
    /// in shard order (measured sequentially; see the module docs).
    pub per_shard_wall_ms: Vec<f64>,
    /// The slowest shard's wall — the modeled S-core run time.
    pub max_shard_wall_ms: f64,
    /// Modeled completed handshakes per second:
    /// `n / max_shard_wall`.
    pub handshakes_per_s: f64,
    /// Modeled application records delivered end to end per second.
    pub records_per_s: f64,
}

/// Capacity numbers for one fleet size.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Sessions opened (and required to complete) in this run.
    pub n: usize,
    /// One entry per [`SHARD_CURVE`] configuration, ascending.
    pub curve: Vec<ShardRun>,
    /// Modeled 4-shard handshake throughput over the 1-shard figure.
    pub speedup_4_over_1: f64,
    /// Median open→handshake-done latency in virtual milliseconds
    /// (virtual time is shard-invariant, so one number per fleet).
    pub p50_handshake_ms: f64,
    /// 99th-percentile handshake latency in virtual milliseconds.
    pub p99_handshake_ms: f64,
    /// Wire bytes pushed into the substrate per session.
    pub bytes_per_session: f64,
}

/// Everything that goes into `BENCH_scale.json`.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// True when produced by a `--smoke` run (tiny fleets; numbers
    /// only prove the harness works).
    pub smoke: bool,
    /// One entry per fleet size, ascending. Incomplete while a full
    /// run is still appending tiers (the binary rewrites the artifact
    /// after each fleet size).
    pub points: Vec<ScalePoint>,
    /// Heap allocations per application record in each shard's
    /// established steady state, indexed by shard (counted by the
    /// binary's global allocator; the gate requires 0 for every
    /// shard).
    pub allocs_per_record_per_shard: Vec<f64>,
    /// Seed used for the determinism replay.
    pub determinism_seed: u64,
    /// Fleet size of the determinism replay.
    pub determinism_sessions: usize,
    /// Shard count of the determinism replay.
    pub determinism_shards: u16,
    /// True iff two multi-shard runs with the same seed and schedule
    /// produced a bit-identical merged telemetry trace and identical
    /// merged counters.
    pub determinism_identical: bool,
}

impl ScaleReport {
    /// Worst per-shard steady-state allocation rate.
    pub fn allocs_per_record_steady(&self) -> f64 {
        self.allocs_per_record_per_shard.iter().copied().fold(0.0, f64::max)
    }
}

impl Artifact for ScaleReport {
    const KEYS: &'static [&'static str] = &[
        "sessions",
        "model",
        "curve",
        "per_shard_wall_ms",
        "max_shard_wall_ms",
        "handshakes_per_s",
        "records_per_s",
        "speedup_4_over_1",
        "p50_handshake_ms",
        "p99_handshake_ms",
        "bytes_per_session",
        "allocs_per_record_steady",
        "allocs_per_record_per_shard",
        "determinism",
        "identical",
    ];

    fn json(&self) -> Json {
        let run_json = |run: &ShardRun| {
            Json::obj([
                ("shards", run.shards.into()),
                (
                    "per_shard_wall_ms",
                    Json::arr(run.per_shard_wall_ms.iter().map(|&w| Json::Num(w, 1))),
                ),
                ("max_shard_wall_ms", Json::Num(run.max_shard_wall_ms, 1)),
                ("handshakes_per_s", Json::Num(run.handshakes_per_s, 1)),
                ("records_per_s", Json::Num(run.records_per_s, 1)),
            ])
        };
        let point_json = |p: &ScalePoint| {
            Json::obj([
                ("n", p.n.into()),
                ("curve", Json::arr(p.curve.iter().map(run_json))),
                ("speedup_4_over_1", Json::Num(p.speedup_4_over_1, 2)),
                ("p50_handshake_ms", Json::Num(p.p50_handshake_ms, 3)),
                ("p99_handshake_ms", Json::Num(p.p99_handshake_ms, 3)),
                ("bytes_per_session", Json::Num(p.bytes_per_session, 1)),
            ])
        };
        Json::obj([
            ("smoke", self.smoke.into()),
            ("model", "max_shard_wall".into()),
            ("sessions", Json::arr(self.points.iter().map(point_json))),
            ("allocs_per_record_steady", Json::Num(self.allocs_per_record_steady(), 3)),
            (
                "allocs_per_record_per_shard",
                Json::arr(self.allocs_per_record_per_shard.iter().map(|&a| Json::Num(a, 3))),
            ),
            (
                "determinism",
                Json::obj([
                    ("seed", self.determinism_seed.into()),
                    ("sessions", self.determinism_sessions.into()),
                    ("shards", self.determinism_shards.into()),
                    ("identical", self.determinism_identical.into()),
                ]),
            ),
        ])
    }

    /// Structural checks, at smoke and full budgets alike: every fleet
    /// size carries an ascending shard curve through the 4-shard row
    /// with one wall per shard, the steady state is allocation-free on
    /// every shard, and the multi-shard replay is bit-identical.
    fn floors(&self) -> Vec<String> {
        let mut checks = vec![(!self.points.is_empty(), "no fleet sizes measured".to_string())];
        for p in &self.points {
            let n = p.n;
            let shard_counts: Vec<u16> = p.curve.iter().map(|r| r.shards).collect();
            checks.extend([
                (!p.curve.is_empty(), format!("fleet n={n} has no shard curve")),
                (
                    shard_counts.is_sorted(),
                    format!("n={n}: curve rows must ascend, got {shard_counts:?}"),
                ),
                (shard_counts.contains(&4), format!("n={n}: curve is missing the 4-shard row")),
            ]);
            for run in &p.curve {
                let s = run.shards;
                let not_positive = |what: &str| format!("n={n}: shard {s} {what} is not positive");
                checks.extend([
                    (s >= 1, format!("n={n}: a curve row has {s} shards")),
                    (
                        run.per_shard_wall_ms.len() == s as usize,
                        format!("n={n}: shard {s} row lacks per-shard walls"),
                    ),
                    (run.max_shard_wall_ms > 0.0, not_positive("max wall")),
                    (run.handshakes_per_s > 0.0, not_positive("handshakes/s")),
                    (run.records_per_s > 0.0, not_positive("records/s")),
                ]);
            }
        }
        let allocs = &self.allocs_per_record_per_shard;
        checks.extend([
            (
                !allocs.is_empty() && allocs.iter().all(|&a| a == 0.0),
                format!("steady state allocates: {allocs:?} allocs/record per shard"),
            ),
            (self.determinism_identical, "double-run determinism verdict is false".to_string()),
            (
                self.determinism_shards >= 2,
                "determinism probe must cover multiple shards".to_string(),
            ),
        ]);
        failing(checks)
    }
}

/// Virtual percentile (`p` in 0..=100) over handshake latencies,
/// reported in milliseconds.
fn percentile_ms(sorted_ns: &[u64], p: usize) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = (sorted_ns.len() - 1) * p / 100;
    sorted_ns[idx] as f64 / 1e6
}

/// Drain shard `k` of an `S`-shard deployment of the `n`-session
/// fleet: a standalone [`Shard`] reactor over its own simulator,
/// driven by the load generator's residue-class slice. Returns the
/// shard's wall clock plus its counters for aggregation.
fn drain_shard_slice(
    n: usize,
    seed: u64,
    k: u16,
    shards: u16,
) -> (std::time::Duration, u64, u64, u64, Vec<u64>) {
    let config = HostConfig::builder()
        .shards(1)
        .build()
        .expect("default shard config is valid");
    // Untimed warm-up: a miniature drain of the same shape, discarded
    // before the timer starts. Slices are measured sequentially in
    // one process, so without this the first-measured slice pays the
    // whole process's cold-start bill (first-touch page faults,
    // allocator arena growth, CPU frequency ramp) and its wall reads
    // up to 2× the others' — an artifact of measurement order, not of
    // the architecture. A prior BENCH_scale.json 8-shard row showed
    // exactly that: [6010, 3421, 2947, …] decaying to a ~2950 plateau.
    {
        let warm = scale_load(64.min(n), seed ^ 0x0D15_CA4D);
        let mut shard = Shard::new(k, NetSubstrate::new(seed ^ k as u64), config.clone());
        let mut generator = LoadGenerator::slice(warm, k, shards);
        generator
            .drive(&mut shard, SimTime::ZERO.plus(Duration::from_secs(3_600)))
            .expect("warm-up slice drains");
    }
    let mut shard = Shard::new(k, NetSubstrate::new(seed ^ k as u64), config);
    let mut generator = LoadGenerator::slice(scale_load(n, seed), k, shards);
    let t0 = Instant::now();
    generator
        .drive(&mut shard, SimTime::ZERO.plus(Duration::from_secs(3_600)))
        .expect("scale shard slice drains");
    let wall = t0.elapsed();
    let counters = shard.counters();
    (
        wall,
        counters.completed(),
        counters.exchanges_completed(),
        counters.bytes_moved(),
        counters.handshake_latencies_ns().to_vec(),
    )
}

/// Run one fleet of `n` sessions at every [`SHARD_CURVE`] shard count
/// and report the modeled cores-vs-throughput curve (see the module
/// docs for the max-shard-wall model).
pub fn bench_scale_point(n: usize, seed: u64) -> ScalePoint {
    bench_scale_point_over(n, seed, SHARD_CURVE)
}

/// [`bench_scale_point`] with an explicit shard curve (smoke runs
/// measure a shorter one).
pub fn bench_scale_point_over(n: usize, seed: u64, curve: &[u16]) -> ScalePoint {
    let mut runs = Vec::with_capacity(curve.len());
    let mut latencies: Vec<u64> = Vec::new();
    let mut bytes_per_session = 0.0;
    for &shards in curve {
        let mut walls = Vec::with_capacity(shards as usize);
        let mut completed = 0u64;
        let mut exchanges = 0u64;
        let mut bytes = 0u64;
        let mut curve_latencies: Vec<u64> = Vec::with_capacity(n);
        for k in 0..shards {
            let (wall, done, ex, moved, lat) = drain_shard_slice(n, seed, k, shards);
            walls.push(wall.as_secs_f64() * 1e3);
            completed += done;
            exchanges += ex;
            bytes += moved;
            curve_latencies.extend_from_slice(&lat);
        }
        assert_eq!(completed as usize, n, "every session must complete its workload");
        assert_eq!(curve_latencies.len(), n);
        let max_wall_ms = walls.iter().copied().fold(0.0, f64::max);
        let max_wall_s = max_wall_ms / 1e3;
        runs.push(ShardRun {
            shards,
            per_shard_wall_ms: walls,
            max_shard_wall_ms: max_wall_ms,
            handshakes_per_s: n as f64 / max_wall_s,
            records_per_s: (exchanges * 2) as f64 / max_wall_s,
        });
        if latencies.is_empty() {
            curve_latencies.sort_unstable();
            latencies = curve_latencies;
            bytes_per_session = bytes as f64 / n as f64;
        }
    }
    let rate_at = |s: u16| {
        runs.iter().find(|r| r.shards == s).map(|r| r.handshakes_per_s).unwrap_or(0.0)
    };
    let base = rate_at(curve[0]);
    let speedup_4_over_1 = if base > 0.0 { rate_at(4) / base } else { 0.0 };
    ScalePoint {
        n,
        curve: runs,
        speedup_4_over_1,
        p50_handshake_ms: percentile_ms(&latencies, 50),
        p99_handshake_ms: percentile_ms(&latencies, 99),
        bytes_per_session,
    }
}

/// FNV-1a over every telemetry event's JSON line — a trace
/// fingerprint that is equal iff the traces are bit-identical.
/// Shared with the handshake reporter's storm determinism probe.
pub(crate) fn trace_fingerprint(events: &[mbtls_telemetry::Event]) -> u64 {
    let mut hash = FNV1A_START;
    for event in events {
        fnv1a(&mut hash, to_json_line(event).as_bytes());
    }
    hash
}

/// Replay one seeded multi-shard churn run twice and check that the
/// merged telemetry traces are bit-identical and the merged counters
/// equal. Returns the merged-trace fingerprint and the verdict.
pub fn determinism_probe(sessions: usize, shards: u16, seed: u64) -> (u64, bool) {
    let run = || {
        let config = HostConfig::builder()
            .shards(shards as u32)
            .build()
            .expect("probe shard config is valid");
        let mut host = Host::new(config, |k| NetSubstrate::new(seed ^ k as u64));
        let recorders = host.record_telemetry();
        let mut generator = LoadGenerator::new(scale_load(sessions, seed));
        generator
            .drive(&mut host, SimTime::ZERO.plus(Duration::from_secs(3_600)))
            .expect("determinism fleet drains");
        let merged = merge_shard_traces(recorders.iter().map(|r| r.snapshot()).collect());
        (trace_fingerprint(&merged), host.counters())
    };
    let (fingerprint_a, counters_a) = run();
    let (fingerprint_b, counters_b) = run();
    (fingerprint_a, fingerprint_a == fingerprint_b && counters_a == counters_b)
}

/// A warmed-up single-session shard over in-memory pipes, parked in
/// its established phase with a deep exchange quota. `max_pump_passes
/// = 1` makes every [`Shard::step`] one bounded pump, so the
/// `bench` binary can count event-loop allocations per record around
/// [`Self::pump_exchanges`] at steady state — once per shard index,
/// proving the allocation-free property holds for every worker, not
/// just shard 0.
pub struct SteadyStateShard {
    shard: Shard<PipeSubstrate>,
}

impl SteadyStateShard {
    /// Build a one-session shard `k` and drive it through the
    /// handshake plus `warm_exchanges` round trips, so the slab,
    /// wheel, buffer pool, ready queue, and every party's record
    /// buffers reach their final capacities.
    pub fn warmed_up(k: u16, warm_exchanges: u64) -> Self {
        let mut generator = LoadGenerator::new(LoadConfig {
            sessions: 1,
            middlebox_every: 0,
            workload: Workload { request_len: 256, response_len: 1024, exchanges: u32::MAX },
            ..scale_load(1, 0x5CA1E)
        });
        let config = HostConfig::builder()
            .max_pump_passes(1)
            .build()
            .expect("steady-state config is valid");
        let mut shard = Shard::new(k, PipeSubstrate::new(), config);
        shard.open(generator.make_spec()).expect("open steady-state session");
        let mut steady = SteadyStateShard { shard };
        steady.pump_exchanges(warm_exchanges);
        steady
    }

    /// Drive the event loop until `more` additional exchanges
    /// complete (each is one request record and one response record).
    pub fn pump_exchanges(&mut self, more: u64) {
        let target = self.shard.counters().exchanges_completed() + more;
        while self.shard.counters().exchanges_completed() < target {
            let progressed = self.shard.step().expect("steady-state step");
            assert!(progressed, "steady-state session parked before its exchange quota");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(shards: u16) -> ShardRun {
        ShardRun {
            shards,
            per_shard_wall_ms: vec![10.0; shards as usize],
            max_shard_wall_ms: 10.0,
            handshakes_per_s: 100.0 * shards as f64,
            records_per_s: 400.0 * shards as f64,
        }
    }

    fn passing() -> ScaleReport {
        ScaleReport {
            smoke: true,
            points: vec![ScalePoint {
                n: 8,
                curve: vec![run(1), run(2), run(4)],
                speedup_4_over_1: 4.0,
                p50_handshake_ms: 1.2,
                p99_handshake_ms: 2.0,
                bytes_per_session: 4819.6,
            }],
            allocs_per_record_per_shard: vec![0.0; 4],
            determinism_seed: 13,
            determinism_sessions: 8,
            determinism_shards: 4,
            determinism_identical: true,
        }
    }

    #[test]
    fn smoke_scale_report_is_valid_json_shape() {
        let report = ScaleReport {
            points: vec![
                bench_scale_point_over(8, 13, &[1, 2, 4]),
                bench_scale_point_over(16, 13, &[1, 2, 4]),
            ],
            determinism_shards: 2,
            ..passing()
        };
        assert_eq!(report.check(), Vec::<String>::new());
        let json = report.json().render();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"model\": \"max_shard_wall\""));
        assert!(json.contains("\"shards\": 2"));
        assert!(json.contains("\"allocs_per_record_per_shard\": [0.000, 0.000, 0.000, 0.000]"));
    }

    #[test]
    fn passing_fixture_passes_every_check() {
        assert_eq!(passing().check(), Vec::<String>::new());
    }

    #[test]
    fn nonzero_allocation_on_any_shard_fails() {
        let mut report = passing();
        report.allocs_per_record_per_shard[3] = 0.5;
        assert_eq!(
            report.check(),
            vec!["steady state allocates: [0.0, 0.0, 0.0, 0.5] allocs/record per shard".to_string()]
        );
    }

    #[test]
    fn missing_four_shard_row_fails() {
        let mut report = passing();
        report.points[0].curve.pop();
        assert_eq!(report.check(), vec!["n=8: curve is missing the 4-shard row".to_string()]);
    }

    #[test]
    fn descending_curve_fails() {
        let mut report = passing();
        report.points[0].curve.swap(0, 1);
        assert_eq!(
            report.check(),
            vec!["n=8: curve rows must ascend, got [2, 1, 4]".to_string()]
        );
    }

    #[test]
    fn wrong_per_shard_wall_count_fails() {
        let mut report = passing();
        report.points[0].curve[2].per_shard_wall_ms.pop();
        assert_eq!(report.check(), vec!["n=8: shard 4 row lacks per-shard walls".to_string()]);
    }

    #[test]
    fn diverged_replay_fails() {
        let report = ScaleReport { determinism_identical: false, ..passing() };
        assert_eq!(report.check(), vec!["double-run determinism verdict is false".to_string()]);
    }

    #[test]
    fn scale_point_curve_covers_every_shard_count() {
        let point = bench_scale_point_over(6, 17, &[1, 2]);
        assert_eq!(point.curve.len(), 2);
        assert_eq!(point.curve[0].shards, 1);
        assert_eq!(point.curve[0].per_shard_wall_ms.len(), 1);
        assert_eq!(point.curve[1].shards, 2);
        assert_eq!(point.curve[1].per_shard_wall_ms.len(), 2);
        for run in &point.curve {
            assert!(run.max_shard_wall_ms > 0.0);
            assert!(run.handshakes_per_s > 0.0);
            assert!(
                run.per_shard_wall_ms.iter().all(|&w| w <= run.max_shard_wall_ms),
                "max wall dominates every shard"
            );
        }
    }

    #[test]
    fn determinism_probe_verdict_holds_multi_shard() {
        let (fingerprint, identical) = determinism_probe(6, 2, 29);
        assert!(identical, "seeded sharded replay must be bit-identical");
        assert_ne!(fingerprint, 0);
    }

    #[test]
    fn steady_state_shard_keeps_exchanging_on_any_worker() {
        for k in [0u16, 3] {
            let mut steady = SteadyStateShard::warmed_up(k, 4);
            steady.pump_exchanges(3);
        }
    }
}

