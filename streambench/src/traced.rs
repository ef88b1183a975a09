//! The traced run: a benchmark-owned copy of `run_scenario`'s event
//! loop that wraps a host-time span around every call into a layer.
//!
//! It calls the same public functions the harness calls, in the same
//! order, so it reproduces `run_scenario`'s modeled outputs exactly
//! (the fidelity test checks responses, body bytes, goodput and TTFB
//! p99). Each span records name, start, end and parent; the root span
//! is one loop iteration and every call it makes carries its id.
//! Per-name aggregates stay in memory; the raw span log is capped.

use crate::workload::{build_server, Workload};
use dcn_atlas::parse_frame;
use dcn_netdev::{DelayMiddlebox, SentBurst, WireFrame};
use dcn_packet::FlowId;
use dcn_simcore::{EventQueue, Nanos};
use dcn_workload::{ClientFleet, Scenario};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Switch forwarding latency; the harness's value.
const SWITCH_LATENCY: Nanos = Nanos(2_000);
/// DMA-pool sampling cadence; the harness's value.
const POOL_SAMPLE_EVERY: Nanos = Nanos(500_000);
/// Raw spans kept for the log file; later spans only feed aggregates.
const SPAN_LOG_CAP: usize = 20_000;

/// One finished span.
#[derive(Clone, Copy, Debug)]
struct Span {
    id: u64,
    /// 0 for a root span.
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanAgg {
    pub calls: u64,
    pub total_ns: u64,
    /// Time covered by child spans (roots only).
    pub child_ns: u64,
}

impl SpanAgg {
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    root: Option<(u64, u64, u64)>,
    aggs: BTreeMap<&'static str, SpanAgg>,
    log: Vec<Span>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            root: None,
            aggs: BTreeMap::new(),
            log: Vec::new(),
            dropped: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&mut self, span: Span) {
        let agg = self.aggs.entry(span.name).or_default();
        agg.calls += 1;
        agg.total_ns += span.end_ns - span.start_ns;
        if self.log.len() < SPAN_LOG_CAP {
            self.log.push(span);
        } else {
            self.dropped += 1;
        }
    }

    fn begin_root(&mut self) {
        let id = self.next_id;
        self.next_id += 1;
        self.root = Some((id, self.now_ns(), 0));
    }

    fn end_root(&mut self, name: &'static str) {
        let (id, start_ns, child_ns) = self.root.take().expect("a root span is open");
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent: 0,
            name,
            start_ns,
            end_ns,
        });
        self.aggs.get_mut(name).expect("just recorded").child_ns += child_ns;
    }

    /// Run `f` inside a child span of the open root.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.next_id;
        self.next_id += 1;
        let parent = match self.root.as_mut() {
            Some(root) => {
                root.2 += end_ns - start_ns;
                root.0
            }
            None => 0,
        };
        self.record(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    #[must_use]
    pub fn agg(&self, name: &str) -> SpanAgg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Spans that did not fit in the raw log.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The capped raw log as JSON lines, then one line per aggregate.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.log {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        for (name, a) in &self.aggs {
            let _ = writeln!(
                out,
                "{{\"aggregate\":\"{name}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.calls,
                a.total_ns,
                a.self_ns()
            );
        }
        let _ = writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped);
        out
    }
}

enum Ev {
    Spawn(usize),
    ServerRx(Vec<WireFrame>),
    ClientRx(FlowId, Vec<WireFrame>),
    ServerWake,
    RetryWake,
    PoolSample,
}

/// Event kinds in the order `TracedOutcome::events` counts them.
pub const EVENT_KINDS: [&str; 6] = [
    "spawn",
    "server_rx",
    "client_rx",
    "server_wake",
    "retry_wake",
    "pool_sample",
];

/// What the traced loop produced.
#[derive(Clone, Debug)]
pub struct TracedOutcome {
    pub responses: u64,
    pub total_body_bytes: u64,
    pub net_gbps: f64,
    pub ttfb_p99_ms: f64,
    pub ttfb_p50_ms: f64,
    pub ttfb_samples: u64,
    /// Events popped, per `EVENT_KINDS` entry.
    pub events: [u64; 6],
    pub wall_ns: u64,
}

/// Run one scenario of workload `w` through the traced loop.
///
/// # Panics
/// On a scenario the loop does not model: fault injection or ABR.
pub fn run_traced(w: Workload, sc: &Scenario, tr: &mut Tracer) -> TracedOutcome {
    assert!(
        sc.fleet.abr.is_none() && sc.data_loss == 0.0,
        "the traced loop covers the benchmark's fault-free workloads"
    );
    let t0 = Instant::now();
    let mut server = build_server(sc);
    let mut fleet_cfg = sc.fleet;
    if !w.full_fidelity() {
        fleet_cfg.verify = false;
    }
    fleet_cfg.slowloris = (sc.faults.client.slowloris_conns as usize).min(fleet_cfg.n_clients);
    let mut fleet = ClientFleet::new(fleet_cfg, sc.catalog.clone(), sc.seed);
    let middlebox = DelayMiddlebox::paper(sc.seed);
    server.inject_faults(&sc.faults, sc.seed);
    let mut q: EventQueue<Ev> = EventQueue::new();

    let ramp = sc.warmup.min(Nanos::from_millis(150));
    for idx in 0..sc.fleet.n_clients {
        let at = ramp.mul_f64(idx as f64 / sc.fleet.n_clients.max(1) as f64);
        q.schedule(at, Ev::Spawn(idx));
    }
    q.schedule(Nanos::ZERO, Ev::ServerWake);
    q.schedule(POOL_SAMPLE_EVERY, Ev::PoolSample);

    let mut next_wake = Nanos::MAX;
    let mut next_retry_wake = Nanos::MAX;
    let mut events = [0u64; 6];
    let mut steady_armed = false;
    loop {
        tr.begin_root();
        let Some(ev) = tr.span("simcore.pop", || q.pop()) else {
            tr.end_root("loop.iteration");
            break;
        };
        let now = ev.at;
        if !steady_armed && now >= sc.warmup {
            dcn_obs::steady::reset();
            steady_armed = true;
        }
        events[match &ev.event {
            Ev::Spawn(_) => 0,
            Ev::ServerRx(_) => 1,
            Ev::ClientRx(..) => 2,
            Ev::ServerWake => 3,
            Ev::RetryWake => 4,
            Ev::PoolSample => 5,
        }] += 1;
        if now > sc.duration {
            tr.end_root("loop.iteration");
            break;
        }
        match ev.event {
            Ev::Spawn(idx) => {
                let tx = tr.span("fleet.spawn", || fleet.spawn(idx, sc.seed));
                route_client_tx(tr, &mut q, &middlebox, now, tx.flow, tx.frames);
            }
            Ev::ServerRx(frames) => {
                let bursts = tr.span("server.on_wire_rx", || server.on_wire_rx(now, frames));
                route_bursts(tr, &mut q, bursts);
            }
            Ev::ClientRx(flow, frames) => {
                if let Some(tx) = tr.span("fleet.on_burst", || fleet.on_burst(now, flow, frames)) {
                    route_client_tx(tr, &mut q, &middlebox, now, tx.flow, tx.frames);
                }
            }
            Ev::ServerWake => {
                if now >= next_wake {
                    next_wake = Nanos::MAX;
                }
                let bursts = tr.span("server.advance", || server.advance(now));
                route_bursts(tr, &mut q, bursts);
            }
            Ev::RetryWake => {
                if now >= next_retry_wake {
                    next_retry_wake = Nanos::MAX;
                }
                for tx in tr.span("fleet.fire_retries", || fleet.fire_retries(now)) {
                    route_client_tx(tr, &mut q, &middlebox, now, tx.flow, tx.frames);
                }
            }
            Ev::PoolSample => {
                if server.pool_snapshot().is_some() {
                    let at = now + POOL_SAMPLE_EVERY;
                    if at <= sc.duration {
                        tr.span("simcore.schedule", || q.schedule(at, Ev::PoolSample));
                    }
                }
            }
        }
        if let Some(at) = tr.span("server.poll_at", || server.poll_at()) {
            let at = at.max(q.now());
            if at < next_wake {
                tr.span("simcore.schedule", || q.schedule(at, Ev::ServerWake));
                next_wake = at;
            }
        }
        if let Some(at) = fleet.next_retry_at() {
            let at = at.max(q.now());
            if at < next_retry_wake {
                tr.span("simcore.schedule", || q.schedule(at, Ev::RetryWake));
                next_retry_wake = at;
            }
        }
        tr.end_root("loop.iteration");
    }

    let mut ttfb: Vec<u64> = fleet.ttfb.iter().map(|n| n.as_nanos()).collect();
    ttfb.sort_unstable();
    let ttfb_p50_ms = if ttfb.is_empty() {
        0.0
    } else {
        ttfb[(ttfb.len() - 1) / 2] as f64 / 1e6
    };
    TracedOutcome {
        responses: fleet.responses_completed,
        total_body_bytes: fleet.total_body_bytes,
        net_gbps: fleet.goodput.rate_per_sec(sc.warmup, sc.duration) * 8.0 / 1e9,
        ttfb_p99_ms: fleet.ttfb_p99_ms(),
        ttfb_p50_ms,
        ttfb_samples: ttfb.len() as u64,
        events,
        wall_ns: t0.elapsed().as_nanos() as u64,
    }
}

fn route_client_tx(
    tr: &mut Tracer,
    q: &mut EventQueue<Ev>,
    mb: &DelayMiddlebox,
    now: Nanos,
    flow: FlowId,
    frames: Vec<WireFrame>,
) {
    if frames.is_empty() {
        return;
    }
    let delay = tr.span("middlebox.delay", || mb.delay(flow)) + SWITCH_LATENCY;
    tr.span("simcore.schedule", || {
        q.schedule(now + delay, Ev::ServerRx(frames));
    });
}

fn route_bursts(tr: &mut Tracer, q: &mut EventQueue<Ev>, bursts: Vec<SentBurst>) {
    for b in bursts {
        if b.frames.is_empty() {
            continue;
        }
        let Some((flow, _, _)) = parse_frame(&b.frames[0]) else {
            continue;
        };
        let at = b.departed + SWITCH_LATENCY;
        tr.span("simcore.schedule", || {
            q.schedule(at, Ev::ClientRx(flow, b.frames));
        });
    }
}
