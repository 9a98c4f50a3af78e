//! The event loop: opens sessions on the generator's virtual
//! schedule and turns the host, exactly as `LoadGenerator::drive`
//! does, but one turn at a time so the benchmark can time windows,
//! stop arrivals, and (in the traced run) wrap every call in a span.

use std::time::{Duration as WallDuration, Instant};

use mbtls_core::MbError;
use mbtls_host::{Host, HostCounters, LoadGenerator, SessionOutcome, Substrate};

use crate::trace::{self, Site, NONE};
use crate::workload::jitter_latency;

/// A host plus its generator, and what the benchmark has seen of
/// the sessions so far.
pub struct Run<S: Substrate> {
    seed: u64,
    generator: LoadGenerator,
    host: Host<S>,
    traced: bool,
    /// Host-wide exchanges completed when each live session was
    /// opened, by shard and slot.
    opened_at: Vec<Vec<u64>>,
    /// Global index of the next session to open.
    next_index: u64,
    /// Keep per-session samples of finished sessions.
    pub sampling: bool,
    /// Sessions finished `Completed`.
    pub completed: u64,
    /// Sessions finished any other way.
    pub not_completed: u64,
    /// The first failure seen, for the report.
    pub first_failure: Option<String>,
    /// `Host::step` calls.
    pub steps: u64,
    /// Highest live-session count seen after a turn.
    pub live_peak: usize,
    /// Exchanges the host completed, over every session, from each
    /// sampled session's `Host::open` to its result (its own
    /// included): its latency counted in units of work rather than
    /// wall time.
    pub life_exchanges: Vec<u64>,
    /// Virtual handshake nanoseconds, per sampled session.
    pub handshake_ns: Vec<u64>,
    /// Wire bytes over every sampled session.
    pub wire_bytes: u64,
}

impl<S: Substrate> Run<S> {
    /// Drive `host` with `generator`. A traced run wraps each
    /// session's parties and records host and loadgen spans.
    pub fn new(seed: u64, generator: LoadGenerator, host: Host<S>, traced: bool) -> Self {
        let shards = host.shards() as usize;
        Run {
            seed,
            generator,
            host,
            traced,
            opened_at: vec![Vec::new(); shards],
            next_index: 0,
            sampling: false,
            completed: 0,
            not_completed: 0,
            first_failure: None,
            steps: 0,
            live_peak: 0,
            life_exchanges: Vec::new(),
            handshake_ns: Vec::new(),
            wire_bytes: 0,
        }
    }

    /// Sessions opened so far.
    pub fn opened(&self) -> u64 {
        self.next_index
    }

    /// The host's merged counters.
    pub fn counters(&self) -> HostCounters {
        self.host.counters()
    }

    /// Exchanges completed so far, read from each shard's counters
    /// in place (merging them with [`Run::counters`] allocates).
    pub fn exchanges_completed(&self) -> u64 {
        (0..self.host.shards())
            .map(|k| self.host.shard(k).counters().exchanges_completed())
            .sum()
    }

    /// Sessions in flight.
    pub fn live(&self) -> usize {
        self.host.live()
    }

    /// Reserve room for `n` per-session samples, so that sampling
    /// does not allocate.
    pub fn reserve_samples(&mut self, n: usize) {
        self.life_exchanges.reserve_exact(n);
        self.handshake_ns.reserve_exact(n);
    }

    /// Heap bytes held by the per-session sample vectors.
    pub fn sample_bytes(&self) -> u64 {
        ((self.life_exchanges.capacity() + self.handshake_ns.capacity())
            * std::mem::size_of::<u64>()) as u64
    }

    fn span<R>(traced: bool, site: Site, session: u32, f: impl FnOnce() -> R) -> R {
        if traced {
            trace::span(site, session, f)
        } else {
            f()
        }
    }

    fn open_next(&mut self) -> Result<(), MbError> {
        let index = self.next_index;
        self.next_index += 1;
        let session = index as u32;
        let generator = &mut self.generator;
        let mut spec = Self::span(self.traced, Site::MakeSpec, session, || {
            generator.make_spec()
        });
        jitter_latency(&mut spec, self.seed, index);
        if self.traced {
            spec.chain = trace::wrap_chain(spec.chain, session);
            trace::set_admitting(session);
        }
        let at = self.exchanges_completed();
        let host = &mut self.host;
        let id = Self::span(self.traced, Site::HostOpen, session, || host.open(spec))?;
        let slots = &mut self.opened_at[id.shard() as usize];
        let local = id.local() as usize;
        if slots.len() <= local {
            slots.resize(local + 1, at);
        }
        slots[local] = at;
        Ok(())
    }

    /// Record every finished session.
    fn harvest(&mut self) {
        let shards = self.host.shards();
        if (0..shards).all(|k| self.host.shard(k).results().is_empty()) {
            return;
        }
        let host = &mut self.host;
        let results = Self::span(self.traced, Site::HostTakeResults, NONE, || {
            host.take_results()
        });
        let now = self.exchanges_completed();
        for (id, outcome) in results {
            match outcome {
                SessionOutcome::Completed {
                    bytes_moved,
                    handshake_ns,
                    ..
                } => {
                    self.completed += 1;
                    if self.sampling {
                        let at = self.opened_at[id.shard() as usize][id.local() as usize];
                        self.life_exchanges.push(now - at);
                        self.handshake_ns.push(handshake_ns);
                        self.wire_bytes += bytes_moved;
                    }
                }
                other => {
                    self.not_completed += 1;
                    if self.first_failure.is_none() {
                        self.first_failure = Some(format!("{other:?}"));
                    }
                }
            }
        }
    }

    /// One loop turn: open every arrival now due (while `opening`),
    /// then service ready sessions, or move virtual time to the next
    /// event or arrival. False once nothing is left to do.
    pub fn turn(&mut self, opening: bool) -> Result<bool, MbError> {
        if opening {
            while self
                .generator
                .next_arrival()
                .is_some_and(|at| at <= self.host.now())
            {
                self.open_next()?;
            }
        }
        let arrival = if opening {
            self.generator.next_arrival()
        } else {
            None
        };
        if arrival.is_none() && self.host.live() == 0 {
            return Ok(false);
        }
        let traced = self.traced;
        let host = &mut self.host;
        if host.has_ready() {
            self.steps += 1;
            Self::span(traced, Site::HostStep, NONE, || host.step())?;
        } else {
            let next = Self::span(traced, Site::HostNextEvent, NONE, || host.next_event());
            match (next, arrival) {
                (Some(event), Some(at)) if event > at => {
                    Self::span(traced, Site::HostAdvance, NONE, || host.advance_clock(at))
                }
                (None, Some(at)) => {
                    Self::span(traced, Site::HostAdvance, NONE, || host.advance_clock(at))
                }
                (Some(_), _) => {
                    self.steps += 1;
                    Self::span(traced, Site::HostStep, NONE, || host.step())?;
                }
                (None, None) => {
                    return Err(MbError::unexpected_state(
                        "host quiescent with live sessions",
                    ));
                }
            }
        }
        self.harvest();
        self.live_peak = self.live_peak.max(self.host.live());
        Ok(true)
    }

    /// Keep opening sessions and turning until `deadline`.
    pub fn run_until(&mut self, deadline: Instant) -> Result<(), MbError> {
        while Instant::now() < deadline {
            if !self.turn(true)? {
                return Err(MbError::unexpected_state(
                    "generator ran dry in a timed run",
                ));
            }
        }
        Ok(())
    }

    /// Stop arrivals and turn until every live session has finished.
    pub fn drain(&mut self, limit: WallDuration) -> Result<(), MbError> {
        let deadline = Instant::now() + limit;
        while self.turn(false)? {
            if Instant::now() > deadline {
                return Err(MbError::Timeout(
                    "drain exceeded its wall-clock limit".into(),
                ));
            }
        }
        Ok(())
    }

    /// Warm up: turn until the pipeline has turned over once (as
    /// many sessions completed as were ever live at once) and at
    /// least `min` has passed, so the in-flight population and
    /// every cache are at steady state before timing starts.
    pub fn warm_up(&mut self, min: WallDuration) -> Result<(), MbError> {
        let start = Instant::now();
        while start.elapsed() < min || self.completed < (self.live_peak as u64).max(8) {
            if !self.turn(true)? {
                return Err(MbError::unexpected_state(
                    "generator ran dry during warm-up",
                ));
            }
        }
        Ok(())
    }
}

/// Run every session `generator` is configured for to completion.
pub fn fixed<S: Substrate>(
    seed: u64,
    generator: LoadGenerator,
    host: Host<S>,
    traced: bool,
) -> Result<Run<S>, MbError> {
    let mut run = Run::new(seed, generator, host, traced);
    while run.turn(true)? {}
    Ok(run)
}
