//! The traced run: spans recorded from the benchmark's own wrappers
//! around each layer's public calls.
//!
//! * [`TracedSubstrate`] wraps the shard's [`Substrate`] (passed to
//!   `Host::new`) and counts pumps by outcome;
//! * `TracedEndpoint` / `TracedRelay` are swapped into each
//!   `SessionSpec.chain` after `make_spec`, and forward **every**
//!   trait method, defaulted ones included — a wrapper that dropped
//!   `take_pending_verifies` or `resumed` would silently change what
//!   the host does;
//! * `drive::Run` opens host spans around `Host::open`, `Host::step`,
//!   `Host::advance_clock`, `Host::next_event` and
//!   `Host::take_results`, and a loadgen span around `make_spec`.
//!
//! Each span records its site, start, end, parent span and session
//! index. Spans stay in memory until the run ends; self time is a
//! span's duration minus the time its children cover. Subtracting
//! layer totals is not enough, because the shard calls `send_app` /
//! `recv_app` directly, outside `Substrate::pump`.
//!
//! Allocation calls are charged the same way: each one goes to the
//! layer of the innermost span open when it is made, so a layer's
//! count is its self count.
//!
//! Constant-time accessors (`ready`, `failed`, `resumed`,
//! `resumption`, `now`) are forwarded without a span; their cost
//! stays in the caller's self time.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mbtls_core::driver::{Chain, Endpoint, PendingVerify, Relay};
use mbtls_core::MbError;
use mbtls_host::{PumpOutcome, Substrate};
use mbtls_netsim::time::{Duration, SimTime};
use mbtls_netsim::FaultConfig;
use mbtls_telemetry::{Event, EventKind, Party, SharedSink, TelemetrySink};
use mbtls_tls::session::ResumptionData;

use crate::alloc;

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// `mbtls_host::Host` calls.
    Host,
    /// `LoadGenerator::make_spec` (building the party chain).
    Loadgen,
    /// The substrate, including netsim.
    Substrate,
    /// The client endpoint (core, with tls/crypto/pki beneath).
    Client,
    /// The server endpoint.
    Server,
    /// Every middlebox of the chain.
    Middlebox,
}

impl Layer {
    /// How many layers there are.
    pub const COUNT: usize = 6;
}

macro_rules! sites {
    ($($site:ident => ($name:literal, $layer:ident),)*) => {
        /// Where a span was recorded.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Site { $($site,)* }

        impl Site {
            /// Every site, in declaration order.
            pub const ALL: &'static [Site] = &[$(Site::$site,)*];

            /// The span name, `layer.call`.
            pub fn name(self) -> &'static str {
                match self { $(Site::$site => $name,)* }
            }

            /// The layer the span's self time belongs to.
            pub fn layer(self) -> Layer {
                match self { $(Site::$site => Layer::$layer,)* }
            }
        }
    };
}

sites! {
    HostOpen => ("host.open", Host),
    HostStep => ("host.step", Host),
    HostAdvance => ("host.advance_clock", Host),
    HostNextEvent => ("host.next_event", Host),
    HostTakeResults => ("host.take_results", Host),
    MakeSpec => ("loadgen.make_spec", Loadgen),
    SubOpen => ("substrate.open", Substrate),
    SubClose => ("substrate.close", Substrate),
    SubPump => ("substrate.pump", Substrate),
    SubAdvance => ("substrate.advance_to", Substrate),
    SubNextEvent => ("substrate.next_event_time", Substrate),
    SubPopDue => ("substrate.pop_due", Substrate),
    ClientFeed => ("client.feed", Client),
    ClientTake => ("client.take", Client),
    ClientSendApp => ("client.send_app", Client),
    ClientRecvApp => ("client.recv_app", Client),
    ClientVerify => ("client.verify", Client),
    ServerFeed => ("server.feed", Server),
    ServerTake => ("server.take", Server),
    ServerSendApp => ("server.send_app", Server),
    ServerRecvApp => ("server.recv_app", Server),
    ServerVerify => ("server.verify", Server),
    MboxFeed => ("middlebox.feed", Middlebox),
    MboxTake => ("middlebox.take", Middlebox),
}

/// Span parent / session value meaning "none".
pub const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Nanoseconds since the tracer's base instant.
    pub start: u64,
    /// Nanoseconds since the tracer's base instant.
    pub end: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Global session index, or [`NONE`] for host-wide calls.
    pub session: u32,
    /// Where it was recorded.
    pub site: Site,
}

/// Substrate pump outcomes, counted by [`TracedSubstrate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PumpStats {
    /// Pumps attempted.
    pub pumps: u64,
    /// Pumps that moved bytes.
    pub moved: u64,
    /// Pumps that hit the pass cap while bytes still moved.
    pub saturated: u64,
}

/// What a traced window recorded.
#[derive(Debug, Default)]
pub struct Recorded {
    /// Every span, in opening order.
    pub spans: Vec<Span>,
    /// Pump outcomes.
    pub pumps: PumpStats,
    /// Allocation calls made inside spans, by the layer of the
    /// innermost open span (`Layer as usize`).
    pub allocs: [u64; Layer::COUNT],
}

struct Tracer {
    base: Instant,
    on: bool,
    spans: Vec<Span>,
    current: u32,
    /// Allocation calls counted when a span last opened or closed.
    calls_seen: u64,
    allocs: [u64; Layer::COUNT],
    /// Session index `Host::open` is admitting right now; the
    /// substrate wrapper maps the token it is given to it.
    admitting: u32,
    pumps: PumpStats,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        base: Instant::now(),
        on: false,
        spans: Vec::new(),
        current: NONE,
        calls_seen: 0,
        allocs: [0; Layer::COUNT],
        admitting: NONE,
        pumps: PumpStats::default(),
    });
}

impl Tracer {
    /// Charge the allocation calls made since the last span boundary
    /// to the innermost open span's layer.
    fn charge_allocs(&mut self) {
        let calls = alloc::stats().calls;
        if self.current != NONE {
            let layer = self.spans[self.current as usize].site.layer();
            self.allocs[layer as usize] += calls - self.calls_seen;
        }
        self.calls_seen = calls;
    }
}

/// Run `f` inside a span at `site` for `session` (a no-op wrapper
/// while tracing is off).
#[inline]
pub fn span<R>(site: Site, session: u32, f: impl FnOnce() -> R) -> R {
    let open = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        t.charge_allocs();
        let idx = t.spans.len() as u32;
        let parent = t.current;
        let start = t.base.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            start,
            end: start,
            parent,
            session,
            site,
        });
        t.current = idx;
        Some(idx)
    });
    let out = f();
    if let Some(idx) = open {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.base.elapsed().as_nanos() as u64;
            t.charge_allocs();
            let span = &mut t.spans[idx as usize];
            span.end = end;
            t.current = span.parent;
        });
    }
    out
}

/// Start recording: drop earlier spans and pump counts, keep the
/// allocation (reserve `capacity` spans up front so the traced
/// window does not pay for growth).
pub fn start(capacity: usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.spans.clear();
        t.spans.reserve(capacity);
        t.current = NONE;
        t.allocs = [0; Layer::COUNT];
        t.pumps = PumpStats::default();
        t.on = true;
    });
}

/// Stop recording; the spans stay in memory for [`take`].
pub fn stop() {
    TRACER.with(|t| t.borrow_mut().on = false);
}

/// Take what was recorded.
pub fn take() -> Recorded {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        Recorded {
            spans: std::mem::take(&mut t.spans),
            pumps: std::mem::take(&mut t.pumps),
            allocs: std::mem::take(&mut t.allocs),
        }
    })
}

/// Tell the substrate wrapper which session the next `Host::open`
/// admits.
pub fn set_admitting(session: u32) {
    TRACER.with(|t| t.borrow_mut().admitting = session);
}

fn admitting() -> u32 {
    TRACER.with(|t| t.borrow().admitting)
}

fn count_pump(out: &PumpOutcome) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.on {
            t.pumps.pumps += 1;
            t.pumps.moved += u64::from(out.moved);
            t.pumps.saturated += u64::from(out.saturated);
        }
    });
}

/// Per-site totals over a span list.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteTotal {
    /// Spans recorded at the site.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), nanoseconds.
    pub self_ns: u64,
}

/// Self time per site: each span's duration minus its children's.
/// Children nest strictly inside their parent (one thread), so
/// their durations are exactly the parent's covered time.
pub fn site_totals(spans: &[Span]) -> Vec<SiteTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    let mut totals = vec![SiteTotal::default(); Site::ALL.len()];
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end - s.start;
        let t = &mut totals[s.site as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    totals
}

/// Write spans as CSV (`site,start_ns,end_ns,parent,session`).
pub fn write_spans(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "site,start_ns,end_ns,parent,session")?;
    for s in spans {
        let parent = if s.parent == NONE {
            -1
        } else {
            i64::from(s.parent)
        };
        let session = if s.session == NONE {
            -1
        } else {
            i64::from(s.session)
        };
        writeln!(
            out,
            "{},{},{},{},{}",
            s.site.name(),
            s.start,
            s.end,
            parent,
            session
        )?;
    }
    out.flush()
}

/// A substrate whose every call is a span, tagged with the session
/// the token belongs to.
pub struct TracedSubstrate<S> {
    inner: S,
    /// Token → global session index.
    sessions: Vec<u32>,
}

impl<S> TracedSubstrate<S> {
    /// Wrap a shard's substrate.
    pub fn new(inner: S) -> Self {
        TracedSubstrate {
            inner,
            sessions: Vec::new(),
        }
    }

    fn session(&self, token: usize) -> u32 {
        self.sessions.get(token).copied().unwrap_or(NONE)
    }
}

impl<S: Substrate> Substrate for TracedSubstrate<S> {
    fn open(
        &mut self,
        token: usize,
        links: usize,
        latency: Duration,
        faults: &FaultConfig,
    ) -> Result<(), MbError> {
        if self.sessions.len() <= token {
            self.sessions.resize(token + 1, NONE);
        }
        let session = admitting();
        self.sessions[token] = session;
        span(Site::SubOpen, session, || {
            self.inner.open(token, links, latency, faults)
        })
    }

    fn close(&mut self, token: usize) {
        let session = self.session(token);
        span(Site::SubClose, session, || self.inner.close(token))
    }

    fn pump(
        &mut self,
        token: usize,
        chain: &mut Chain,
        max_passes: usize,
    ) -> Result<PumpOutcome, MbError> {
        let session = self.session(token);
        let out = span(Site::SubPump, session, || {
            self.inner.pump(token, chain, max_passes)
        });
        if let Ok(o) = &out {
            count_pump(o);
        }
        out
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance_to(&mut self, t: SimTime) {
        span(Site::SubAdvance, NONE, || self.inner.advance_to(t))
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        span(Site::SubNextEvent, NONE, || self.inner.next_event_time())
    }

    fn pop_due(&mut self) -> Option<usize> {
        span(Site::SubPopDue, NONE, || self.inner.pop_due())
    }

    fn set_telemetry(&mut self, sink: SharedSink) {
        self.inner.set_telemetry(sink)
    }
}

/// The span sites of one endpoint role, by call.
struct EndpointSites {
    feed: Site,
    take: Site,
    send_app: Site,
    recv_app: Site,
    verify: Site,
}

const CLIENT_SITES: EndpointSites = EndpointSites {
    feed: Site::ClientFeed,
    take: Site::ClientTake,
    send_app: Site::ClientSendApp,
    recv_app: Site::ClientRecvApp,
    verify: Site::ClientVerify,
};

const SERVER_SITES: EndpointSites = EndpointSites {
    feed: Site::ServerFeed,
    take: Site::ServerTake,
    send_app: Site::ServerSendApp,
    recv_app: Site::ServerRecvApp,
    verify: Site::ServerVerify,
};

/// An endpoint whose working calls are spans.
struct TracedEndpoint {
    inner: Box<dyn Endpoint>,
    session: u32,
    sites: &'static EndpointSites,
}

impl Endpoint for TracedEndpoint {
    fn feed(&mut self, data: &[u8]) -> Result<(), MbError> {
        span(self.sites.feed, self.session, || self.inner.feed(data))
    }
    fn take(&mut self) -> Vec<u8> {
        span(self.sites.take, self.session, || self.inner.take())
    }
    fn ready(&self) -> bool {
        self.inner.ready()
    }
    fn send_app(&mut self, data: &[u8]) -> Result<(), MbError> {
        span(self.sites.send_app, self.session, || {
            self.inner.send_app(data)
        })
    }
    fn recv_app(&mut self) -> Vec<u8> {
        span(self.sites.recv_app, self.session, || self.inner.recv_app())
    }
    fn take_into(&mut self, dst: &mut Vec<u8>) {
        span(self.sites.take, self.session, || self.inner.take_into(dst))
    }
    fn recv_app_into(&mut self, dst: &mut Vec<u8>) {
        span(self.sites.recv_app, self.session, || {
            self.inner.recv_app_into(dst)
        })
    }
    fn failed(&self) -> Option<MbError> {
        self.inner.failed()
    }
    fn resumption(&self) -> Option<ResumptionData> {
        self.inner.resumption()
    }
    fn resumed(&self) -> bool {
        self.inner.resumed()
    }
    fn take_pending_verifies(&mut self, out: &mut Vec<PendingVerify>) {
        span(self.sites.verify, self.session, || {
            self.inner.take_pending_verifies(out)
        })
    }
    fn resolve_verify(&mut self, token: u32, valid: bool) {
        span(self.sites.verify, self.session, || {
            self.inner.resolve_verify(token, valid)
        })
    }
}

/// A middlebox whose working calls are spans.
struct TracedRelay {
    inner: Box<dyn Relay>,
    session: u32,
}

impl Relay for TracedRelay {
    fn feed_left(&mut self, data: &[u8]) -> Result<(), MbError> {
        span(Site::MboxFeed, self.session, || self.inner.feed_left(data))
    }
    fn feed_right(&mut self, data: &[u8]) -> Result<(), MbError> {
        span(Site::MboxFeed, self.session, || self.inner.feed_right(data))
    }
    fn take_left(&mut self) -> Vec<u8> {
        span(Site::MboxTake, self.session, || self.inner.take_left())
    }
    fn take_right(&mut self) -> Vec<u8> {
        span(Site::MboxTake, self.session, || self.inner.take_right())
    }
    fn take_left_into(&mut self, dst: &mut Vec<u8>) {
        span(Site::MboxTake, self.session, || {
            self.inner.take_left_into(dst)
        })
    }
    fn take_right_into(&mut self, dst: &mut Vec<u8>) {
        span(Site::MboxTake, self.session, || {
            self.inner.take_right_into(dst)
        })
    }
    fn failed(&self) -> Option<MbError> {
        self.inner.failed()
    }
}

/// `chain` with every party swapped for its traced wrapper. The
/// chain is rebuilt with `Chain::new`, exactly as `make_spec` built
/// it, so nothing but the wrappers differs.
pub fn wrap_chain(chain: Chain, session: u32) -> Chain {
    let Chain {
        client,
        middles,
        server,
        ..
    } = chain;
    let endpoint = |inner, sites| -> Box<dyn Endpoint> {
        Box::new(TracedEndpoint {
            inner,
            session,
            sites,
        })
    };
    Chain::new(
        endpoint(client, &CLIENT_SITES),
        middles
            .into_iter()
            .map(|inner| Box::new(TracedRelay { inner, session }) as Box<dyn Relay>)
            .collect(),
        endpoint(server, &SERVER_SITES),
    )
}

/// Middlebox record counts, read from the program's own middlebox
/// telemetry (`LoadGenerator::set_telemetry`).
#[derive(Debug, Clone, Default)]
pub struct RecordTally {
    resealed: Arc<AtomicU64>,
    forwarded: Arc<AtomicU64>,
}

impl RecordTally {
    /// A sink feeding this tally, for `LoadGenerator::set_telemetry`.
    pub fn sink(&self) -> SharedSink {
        SharedSink::new(self.clone())
    }

    /// `(records resealed, records forwarded read-only)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.resealed.load(Ordering::Relaxed),
            self.forwarded.load(Ordering::Relaxed),
        )
    }
}

impl TelemetrySink for RecordTally {
    fn emit(&mut self, event: &Event) {
        if !matches!(event.party, Party::Middlebox(_)) {
            return;
        }
        match event.kind {
            EventKind::RecordEncrypt { .. } => {
                self.resealed.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::RecordForwardedReadOnly { .. } => {
                self.forwarded.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(start: u64, end: u64, parent: u32, site: Site) -> Span {
        Span {
            start,
            end,
            parent,
            session: 1,
            site,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            at(0, 100, NONE, Site::HostStep),
            at(10, 60, 0, Site::SubPump),
            at(20, 50, 1, Site::ClientFeed),
            at(70, 80, 0, Site::ServerSendApp),
        ];
        let t = site_totals(&spans);
        assert_eq!(t[Site::HostStep as usize].self_ns, 40);
        assert_eq!(t[Site::SubPump as usize].self_ns, 20);
        assert_eq!(t[Site::ClientFeed as usize].self_ns, 30);
        assert_eq!(t[Site::ServerSendApp as usize].self_ns, 10);
        // Self times partition the root span's wall time exactly.
        assert_eq!(t.iter().map(|x| x.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn spans_record_parent_and_session() {
        start(4);
        span(Site::HostStep, NONE, || span(Site::ClientFeed, 3, || ()));
        stop();
        span(Site::HostStep, NONE, || ());
        let spans = take().spans;
        assert_eq!(spans.len(), 2, "nothing is recorded after stop");
        assert_eq!((spans[0].parent, spans[0].session), (NONE, NONE));
        assert_eq!((spans[1].parent, spans[1].session), (0, 3));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
