//! One benchmark run: the correctness checks, then either the
//! untraced measurement (every end-to-end metric) or the traced one
//! (every per-layer metric).

use std::time::{Duration, Instant};

use mbtls_host::{HostCounters, LoadGenerator, Substrate};

use crate::alloc::{self, AllocStats};
use crate::drive::{self, Run};
use crate::reference;
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, Layer, RecordTally, Site, SiteTotal, Span, TracedSubstrate};
use crate::workload::Workload;

/// Sessions the generator is configured for in a timed run: more
/// than any run can open, so arrivals never run dry.
const UNBOUNDED: usize = 1 << 40;

/// Length of one throughput window.
const WINDOW_S: f64 = 0.25;

/// Wall time spent timing set-ups for `setup_s`, spread in equal
/// batches over the gaps between windows, each batch scaled by the
/// machine's slowdown measured in the same gap; the median over
/// every set-up is reported.
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Most set-ups timed in one run (room reserved up front).
const MAX_SETUPS: usize = 1 << 14;

/// Per-session samples reserved before the heap peak is reset, so
/// the benchmark's own sample vectors do not grow inside the
/// measured peak (their constant reservation is subtracted from it).
/// A run would need 50 000 sessions/s for 20 s to outgrow it.
const SAMPLE_CAPACITY: usize = 1 << 20;

/// Wall-clock limit on draining the sessions in flight.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `BENCHMARK.json` name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Sessions opened, every phase.
    pub attempted: u64,
    /// Sessions that did not complete, every phase.
    pub failed: u64,
    /// Sessions completed inside timed windows.
    pub measured_sessions: u64,
    /// Median count of sessions in flight at the end of a window.
    pub in_flight: f64,
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Per-site span totals of the traced window, in site order.
    pub spans: Vec<(Site, SiteTotal)>,
    /// The traced window's spans.
    pub raw_spans: Vec<Span>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn problem(&mut self, text: String) {
        self.problems.push(text);
    }
}

/// Counters of one fixed-size run of the first
/// [`Workload::check_sessions`] sessions, plus the middlebox record
/// tally (traced runs only).
pub fn fixed_counters(
    workload: Workload,
    seed: u64,
    traced: bool,
) -> Result<(HostCounters, (u64, u64)), String> {
    let config = workload.load_config(seed, workload.check_sessions());
    let mut generator = LoadGenerator::new(config);
    let err = |e: mbtls_core::MbError| format!("fixed run failed: {e}");
    if traced {
        let tally = RecordTally::default();
        generator.set_telemetry(tally.sink());
        let host = workload.host(seed, |_, s| TracedSubstrate::new(s));
        trace::start(0);
        let run = drive::fixed(seed, generator, host, true);
        trace::stop();
        drop(trace::take());
        Ok((run.map_err(err)?.counters(), tally.counts()))
    } else {
        let host = workload.host(seed, |_, s| s);
        Ok((
            drive::fixed(seed, generator, host, false)
                .map_err(err)?
                .counters(),
            (0, 0),
        ))
    }
}

/// The correctness checks every run makes before measuring: two
/// untraced runs and one traced run of the same sessions must give
/// identical `HostCounters`, every session must complete its
/// exchanges, the storm must resume exactly 15/16 of its sessions,
/// and the read-only chain must forward without resealing.
pub fn check(workload: Workload, seed: u64, report: &mut Report) {
    let n = workload.check_sessions() as u64;
    let exchanges = u64::from(workload.load_config(seed, 0).workload.exchanges);
    let runs: Result<Vec<_>, String> = [false, false, true]
        .into_iter()
        .map(|traced| fixed_counters(workload, seed, traced))
        .collect();
    report.attempted += 3 * n;
    let runs = match runs {
        Ok(runs) => runs,
        Err(e) => {
            report.failed += 3 * n;
            report.problem(e);
            return;
        }
    };
    let (first, _) = &runs[0];
    report.failed += 3 * n - runs.iter().map(|(c, _)| c.completed()).sum::<u64>();
    if runs[1].0 != *first {
        report.problem("two untraced runs with the same seed gave different HostCounters".into());
    }
    if runs[2].0 != *first {
        report.problem("the traced run's HostCounters differ from the untraced run's".into());
    }
    if first.opened() != n || first.completed() != n || first.exchanges_completed() != n * exchanges
    {
        report.problem(format!(
            "fixed run: opened {} completed {} exchanges {} (want {n}, {n}, {})",
            first.opened(),
            first.completed(),
            first.exchanges_completed(),
            n * exchanges
        ));
    }
    check_handshakes(
        workload,
        first.opened(),
        first.handshakes_full(),
        first.handshakes_resumed(),
        report,
    );
    let (resealed, forwarded) = runs[2].1;
    if workload == Workload::BulkReadOnly && (forwarded == 0 || resealed != 0) {
        report.problem(format!(
            "read-only chain: {forwarded} records forwarded, {resealed} resealed (want >0, 0)"
        ));
    }
}

/// The storm resumes every session but the stale ones (index a
/// multiple of 16); every other workload runs only full handshakes.
fn check_handshakes(workload: Workload, opened: u64, full: u64, resumed: u64, report: &mut Report) {
    let want_full = if workload == Workload::HandshakeResume {
        opened.div_ceil(16)
    } else {
        opened
    };
    if full != want_full || resumed != opened - want_full {
        report.problem(format!(
            "{opened} sessions: {full} full and {resumed} resumed handshakes (want {want_full} full)"
        ));
    }
}

/// What a run's timed windows observed.
struct Measured {
    /// Wall seconds spent in the run's windows.
    wall_s: f64,
    /// Sessions completed per second, one value per window.
    rates: Vec<f64>,
    /// Sessions completed in the windows, in exchange-sized fractions.
    sessions: f64,
    life_exchanges: Vec<u64>,
    handshake_ns: Vec<u64>,
    wire_bytes: u64,
    sampled: u64,
    before: HostCounters,
    after: HostCounters,
    /// Allocation calls and bytes inside the windows; the peak is the
    /// live-byte peak from the first window until the window in which
    /// [`Workload::heap_sessions`] sessions had completed.
    alloc: AllocStats,
    live_peak: usize,
    steps: u64,
    /// Middlebox records `(resealed, forwarded)` in the windows.
    records: (u64, u64),
    /// Live sessions at the end of each window.
    live: Vec<f64>,
}

/// A warmed-up run being timed window by window. Two of them can
/// take turns, so that an untraced and a traced run see the same
/// machine noise.
struct Timed<'a, S: Substrate> {
    workload: Workload,
    run: &'a mut Run<S>,
    tally: Option<&'a RecordTally>,
    exchanges: f64,
    before: HostCounters,
    steps: u64,
    records: (u64, u64),
    rates: Vec<f64>,
    live: Vec<f64>,
    wall: Duration,
    alloc: AllocStats,
    /// The heap peak is final: `heap_sessions` sessions completed.
    peak_final: bool,
}

impl<'a, S: Substrate> Timed<'a, S> {
    /// Warm `run` up and start sampling it.
    fn start(
        workload: Workload,
        run: &'a mut Run<S>,
        tally: Option<&'a RecordTally>,
    ) -> Result<Self, String> {
        run.warm_up(Duration::from_millis(500))
            .map_err(|e| format!("warm-up: {e}"))?;
        run.sampling = true;
        run.live_peak = 0;
        Ok(Timed {
            workload,
            exchanges: f64::from(workload.load_config(0, 0).workload.exchanges),
            before: run.counters(),
            steps: run.steps,
            records: tally.map_or((0, 0), RecordTally::counts),
            run,
            tally,
            rates: Vec::with_capacity(256),
            live: Vec::with_capacity(256),
            wall: Duration::ZERO,
            alloc: AllocStats::default(),
            peak_final: false,
        })
    }

    /// Run one window of length `len` and record its rate.
    fn window(&mut self, len: Duration) -> Result<(), String> {
        let x0 = self.run.exchanges_completed();
        let a0 = alloc::stats();
        let t0 = Instant::now();
        self.run
            .run_until(t0 + len)
            .map_err(|e| format!("timed run: {e}"))?;
        let dt = t0.elapsed();
        let a = alloc::stats().since(a0);
        let x = self.run.exchanges_completed();
        self.rates
            .push((x - x0) as f64 / self.exchanges / dt.as_secs_f64());
        self.live.push(self.run.live() as f64);
        self.wall += dt;
        self.alloc.calls += a.calls;
        self.alloc.bytes += a.bytes;
        if !self.peak_final {
            self.alloc.peak = a.peak;
            let done = (x - self.before.exchanges_completed()) as f64 / self.exchanges;
            self.peak_final = done >= self.workload.heap_sessions() as f64;
        }
        Ok(())
    }

    /// Run `f` between windows, leaving it out of the heap peak.
    fn pause(&mut self, f: impl FnOnce()) {
        let peak = alloc::stats().peak;
        f();
        alloc::set_peak(peak);
    }

    /// Stop sampling, drain every session in flight, and check every
    /// session the run opened.
    fn finish(self, report: &mut Report) -> Result<Measured, String> {
        let Timed {
            workload,
            run,
            tally,
            exchanges,
            before,
            ..
        } = self;
        let records = tally.map_or((0, 0), RecordTally::counts);
        let after = run.counters();
        run.sampling = false;
        let measured = Measured {
            wall_s: self.wall.as_secs_f64(),
            rates: self.rates,
            sessions: (after.exchanges_completed() - before.exchanges_completed()) as f64
                / exchanges,
            life_exchanges: std::mem::take(&mut run.life_exchanges),
            handshake_ns: std::mem::take(&mut run.handshake_ns),
            wire_bytes: run.wire_bytes,
            sampled: run.completed - before.completed(),
            before,
            after,
            alloc: self.alloc,
            live_peak: run.live_peak,
            steps: run.steps - self.steps,
            records: (records.0 - self.records.0, records.1 - self.records.1),
            live: self.live,
        };
        run.drain(DRAIN_LIMIT).map_err(|e| format!("drain: {e}"))?;

        let end = run.counters();
        let opened = run.opened();
        report.attempted += opened;
        report.failed += run.not_completed;
        report.measured_sessions += measured.sampled;
        if let Some(f) = &run.first_failure {
            report.problem(format!(
                "{} of {opened} sessions failed; first: {f}",
                run.not_completed
            ));
        }
        if end.opened() != opened
            || end.completed() != opened
            || end.exchanges_completed() != opened * exchanges as u64
        {
            report.problem(format!(
                "timed run: opened {opened}, host counted {} opened, {} completed, {} exchanges",
                end.opened(),
                end.completed(),
                end.exchanges_completed()
            ));
        }
        check_handshakes(
            workload,
            opened,
            end.handshakes_full(),
            end.handshakes_resumed(),
            report,
        );
        Ok(measured)
    }
}

/// Window count and length for `seconds` of timing.
fn windows(seconds: f64) -> (u32, Duration) {
    let n = (seconds / WINDOW_S).round().max(1.0) as u32;
    (n, Duration::from_secs_f64(seconds / f64::from(n)))
}

/// Time set-ups of everything a run needs before its first session
/// for about `budget` (at least one, at most until `times` is full),
/// pushing each one's seconds divided by `slowdown` to `times`.
fn time_setups(
    workload: Workload,
    seed: u64,
    budget: Duration,
    slowdown: f64,
    times: &mut Vec<f64>,
) {
    let begin = Instant::now();
    loop {
        let t = Instant::now();
        drop(workload.setup(seed, UNBOUNDED, |_, s| s));
        if times.len() < times.capacity() {
            times.push(t.elapsed().as_secs_f64() / slowdown);
        }
        if begin.elapsed() >= budget || times.len() == times.capacity() {
            return;
        }
    }
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    check(workload, seed, &mut report);
    let (n, len) = windows(seconds);
    let mut setups = Vec::with_capacity(MAX_SETUPS);
    let mut slowdowns = Vec::with_capacity(n as usize);
    let (generator, host) = workload.setup(seed, UNBOUNDED, |_, s| s);
    let mut run = Run::new(seed, generator, host, false);
    run.reserve_samples(SAMPLE_CAPACITY);
    let own_bytes = run.sample_bytes()
        + ((setups.capacity() + slowdowns.capacity()) * std::mem::size_of::<f64>()) as u64;
    let measured = Timed::start(workload, &mut run, None).and_then(|mut timed| {
        let batch = SETUP_BUDGET / n;
        alloc::reset_peak();
        for _ in 0..n {
            timed.window(len)?;
            timed.pause(|| {
                let slowdown = reference::slowdown();
                slowdowns.push(slowdown);
                time_setups(workload, seed, batch, slowdown, &mut setups);
            });
        }
        timed.finish(&mut report)
    });
    let mut m = match measured {
        Ok(m) => m,
        Err(e) => {
            report.problem(e);
            return report;
        }
    };
    report.in_flight = median(&mut m.live);
    let load = workload.load_config(seed, 0).workload;
    let bytes_per_session =
        f64::from(load.exchanges) * (load.request_len + load.response_len) as f64;
    // Each window's rate times the machine's slowdown measured just
    // after it: the rate at nominal machine speed.
    let mut scaled: Vec<f64> = m.rates.iter().zip(&slowdowns).map(|(r, s)| r * s).collect();
    let sessions_per_s = median(&mut scaled);
    // Wall latency at that speed: the sessions the host completed
    // while a session was in flight, over `sessions_per_s`. Timing
    // each session's wall span instead would add how much of it the
    // machine spent in its slow state.
    let mut life = m.life_exchanges;
    life.sort_unstable();
    let session_ms = |p: f64| {
        ratio(
            percentile(&life, p) as f64 / f64::from(load.exchanges),
            sessions_per_s,
        ) * 1e3
    };
    let mut vms = m.handshake_ns;
    vms.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    report.push("setup_s", median(&mut setups), "s");
    report.push("sessions_per_s", sessions_per_s, "1/s");
    report.push(
        "goodput_mb_s",
        sessions_per_s * bytes_per_session / 1e6,
        "MB/s",
    );
    report.push("session_ms_p50", session_ms(50.0), "ms");
    report.push("session_ms_p90", session_ms(90.0), "ms");
    report.push("session_ms_p99", session_ms(99.0), "ms");
    report.push("handshake_vms_p50", ms(percentile(&vms, 50.0)), "ms");
    report.push("handshake_vms_p99", ms(percentile(&vms, 99.0)), "ms");
    report.push(
        "wire_bytes_per_session",
        ratio(m.wire_bytes as f64, m.sampled as f64),
        "B",
    );
    let peak = m.alloc.peak.saturating_sub(own_bytes) as f64;
    report.push("peak_heap_mb", peak / 1e6, "MB");
    report.correct = report.problems.is_empty();
    report
}

/// The traced run: an untraced and a traced copy of the workload
/// take turns, window by window, so both see the same machine
/// noise. The untraced windows give the allocation counts and the
/// tracing baseline; the traced windows give spans, pump counts and
/// middlebox record counts. Timed crypto calls follow. The windows
/// get 80% of `seconds`, the crypto calls 20%.
pub fn per_layer(workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    check(workload, seed, &mut report);

    let (generator, host) = workload.setup(seed, UNBOUNDED, |_, s| s);
    let mut plain = Run::new(seed, generator, host, false);
    plain.reserve_samples(SAMPLE_CAPACITY);
    let tally = RecordTally::default();
    let (mut generator, host) = workload.setup(seed, UNBOUNDED, |_, s| TracedSubstrate::new(s));
    generator.set_telemetry(tally.sink());
    let mut traced = Run::new(seed, generator, host, true);
    traced.reserve_samples(SAMPLE_CAPACITY);
    let measured = Timed::start(workload, &mut plain, None).and_then(|mut untraced| {
        let mut timed = Timed::start(workload, &mut traced, Some(&tally))?;
        let (n, len) = windows(seconds * 0.4);
        trace::start(1 << 20);
        for _ in 0..n {
            untraced.window(len)?;
            timed.window(len)?;
        }
        trace::stop();
        Ok((untraced.finish(&mut report)?, timed.finish(&mut report)?))
    });
    let (mut base, mut m) = match measured {
        Ok(pair) => pair,
        Err(e) => {
            report.problem(e);
            return report;
        }
    };
    drop((plain, traced));
    report.in_flight = median(&mut base.live);
    let trace::Recorded {
        spans,
        pumps,
        allocs,
    } = trace::take();
    let crypto = crypto_or_problem(seed, seconds * 0.2, &mut report);

    let window_records = (m.records.0 as f64, m.records.1 as f64);
    let totals = trace::site_totals(&spans);
    let self_ns = |layer: Layer| -> f64 {
        Site::ALL
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|&s| totals[s as usize].self_ns as f64)
            .sum()
    };
    let all_self: f64 = totals.iter().map(|t| t.self_ns as f64).sum();
    let sessions = m.sessions;
    let per_session_us = |ns: f64| ratio(ns / 1e3, sessions);
    let d = |f: fn(&HostCounters) -> u64| (f(&m.after) - f(&m.before)) as f64;
    let base_sessions = base.sessions;
    let allocs_per_session = ratio(base.alloc.calls as f64, base_sessions);
    let records_per_session = ratio(window_records.0 + window_records.1, sessions);
    let untraced_sps = median(&mut base.rates);
    let traced_sps = median(&mut m.rates);

    report.push(
        "host.self_us_per_session",
        per_session_us(self_ns(Layer::Host)),
        "us",
    );
    report.push(
        "host.steps_per_session",
        ratio(m.steps as f64, sessions),
        "count",
    );
    report.push(
        "host.verify_batch_fill",
        ratio(
            d(HostCounters::verify_checks),
            d(HostCounters::verify_batches),
        ),
        "count",
    );
    report.push("host.live_peak", m.live_peak as f64, "count");
    report.push(
        "host.pump_moved_ratio",
        ratio(pumps.moved as f64, pumps.pumps as f64),
        "ratio",
    );
    report.push(
        "host.pump_saturated_ratio",
        ratio(pumps.saturated as f64, pumps.pumps as f64),
        "ratio",
    );
    report.push(
        "substrate.self_us_per_session",
        per_session_us(self_ns(Layer::Substrate)),
        "us",
    );
    report.push(
        "substrate.pumps_per_session",
        ratio(pumps.pumps as f64, sessions),
        "count",
    );
    report.push(
        "substrate.time_share",
        ratio(self_ns(Layer::Substrate), m.wall_s * 1e9),
        "ratio",
    );
    report.push(
        "substrate.alloc_share",
        ratio(
            allocs[Layer::Substrate as usize] as f64,
            allocs.iter().sum::<u64>() as f64,
        ),
        "ratio",
    );
    report.push(
        "core.client_us_per_session",
        per_session_us(self_ns(Layer::Client)),
        "us",
    );
    report.push(
        "core.server_us_per_session",
        per_session_us(self_ns(Layer::Server)),
        "us",
    );
    report.push(
        "core.middlebox_us_per_session",
        per_session_us(self_ns(Layer::Middlebox)),
        "us",
    );
    let resumed = d(HostCounters::handshakes_resumed);
    report.push(
        "core.resumed_share",
        ratio(resumed, resumed + d(HostCounters::handshakes_full)),
        "ratio",
    );
    report.push(
        "core.mbox_records_resealed_per_session",
        ratio(window_records.0, sessions),
        "count",
    );
    report.push(
        "core.mbox_records_forwarded_per_session",
        ratio(window_records.1, sessions),
        "count",
    );
    report.push(
        "core.read_only_share",
        ratio(window_records.1, window_records.0 + window_records.1),
        "ratio",
    );
    for (name, value, unit) in crypto {
        report.push(name, value, unit);
    }
    report.push("alloc.per_session", allocs_per_session, "count");
    report.push(
        "alloc.bytes_per_session",
        ratio(base.alloc.bytes as f64, base_sessions),
        "B",
    );
    report.push(
        "alloc.per_record",
        ratio(allocs_per_session, records_per_session),
        "count",
    );
    report.push(
        "trace.overhead",
        ratio(untraced_sps, traced_sps) - 1.0,
        "ratio",
    );
    report.push(
        "trace.residual_share",
        ratio(m.wall_s * 1e9 - all_self, m.wall_s * 1e9),
        "ratio",
    );
    report.spans = Site::ALL
        .iter()
        .map(|&s| (s, totals[s as usize]))
        .filter(|(_, t)| t.count > 0)
        .collect();
    report.raw_spans = spans;
    report.correct = report.problems.is_empty();
    report
}

/// The crypto metrics, or zeros and a problem if a primitive gave a
/// wrong result.
fn crypto_or_problem(seed: u64, seconds: f64, report: &mut Report) -> Vec<crate::crypto::Metric> {
    match crate::crypto::measure(seed, Duration::from_secs_f64(seconds)) {
        Ok(m) => m,
        Err(e) => {
            report.problem(e);
            Vec::new()
        }
    }
}
