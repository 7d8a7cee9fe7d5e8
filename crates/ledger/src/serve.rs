//! The live operations surface: one-call metrics installation for a whole
//! network ([`install_metrics`]: per-peer series folded from each peer's
//! events), run-wide gauge mirroring ([`RunnerGauges`]), and a
//! dependency-free HTTP server ([`serve`]) exposing the registry and
//! rolling run snapshots.
//!
//! # Endpoints
//!
//! | Path         | Body                                                  |
//! |--------------|-------------------------------------------------------|
//! | `/metrics`   | Prometheus text exposition (format 0.0.4)             |
//! | `/status`    | JSON: chain head, finalized height, mempool depth,    |
//! |              | submitted and tracked transactions, peer liveness     |
//! | `/tx/<id>`   | JSON: submit → admit → included → committed timeline  |
//! | `/analytics` | JSON: the [`dcs_middleware::ChainReport`]             |
//! | `/recent`    | JSON: the bounded flight-recorder ring                |
//!
//! # Determinism contract
//!
//! Everything here is **out of band**: per-peer series are folded from the
//! events a peer reports after its decisions are taken, and the server
//! thread only *reads* snapshots published between simulation ticks. The
//! simulated run is bit-identical with metrics and serving on or off
//! (asserted in `tests/determinism.rs`); see DESIGN.md §16.

use crate::builders::{build, NetworkParams, Pow};
use crate::LedgerNode;
use crate::{collect_traces, install_tracing, workload::Workload};
use dcs_chain::NullMachine;
use dcs_consensus::PeerObserver;
use dcs_metrics::{Counter, Gauge, Histogram, Registry, Ring};
use dcs_net::{NodeId, Runner};
use dcs_primitives::ConsensusKind;
use dcs_sim::{SimDuration, SimTime};
use dcs_trace::{ImportOutcome, PbftPhase, RejectReason, Timelines, TraceConfig, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Registers every peer's live series (chain, mempool, and on PBFT
/// replicas the protocol's) on `registry`, and attaches to each peer's core
/// the observer that folds its events into them — the metrics analogue of
/// [`install_tracing`]. Call before driving the run. No threads, no I/O,
/// and the run stays bit-identical.
pub fn install_metrics<P: LedgerNode>(runner: &mut Runner<P>, registry: &Registry) {
    for i in 0..runner.nodes().len() {
        let core = runner.node_mut(NodeId(i)).core_mut();
        let pbft = matches!(core.chain.config().consensus, ConsensusKind::Pbft { .. });
        let series = PeerSeries::register(registry, &core.id.0.to_string(), pbft);
        core.set_observer(Box::new(series));
    }
}

/// One peer's live series, folded from the events its core reports.
#[derive(Debug)]
struct PeerSeries {
    height: Gauge,
    finalized: Gauge,
    finality_lag: Gauge,
    extended: Counter,
    side_chain: Counter,
    orphaned: Counter,
    reorgs: Counter,
    blocks_reverted: Counter,
    admitted: Counter,
    rejected_duplicate: Counter,
    rejected_full: Counter,
    rejected_bad_witness: Counter,
    depth: Gauge,
    pbft: Option<PbftSeries>,
    /// Canonical height: +1 per extension, `applied − reverted` per reorg.
    tip: u64,
    /// Highest finalized height reported.
    final_height: u64,
    /// Set by a reorg: the extension reported next is the block that caused
    /// it, already counted as the reorg.
    reorg_import: bool,
}

/// A PBFT replica's view gauge and phase counters.
#[derive(Debug)]
struct PbftSeries {
    view: Gauge,
    view_changes: Counter,
    preprepare: Counter,
    prepare: Counter,
    commit: Counter,
}

impl PeerSeries {
    fn register(registry: &Registry, node: &str, pbft: bool) -> Self {
        let l = [("node", node)];
        let gauge = |name, help| registry.gauge(name, help, &l);
        let counter = |name, help| registry.counter(name, help, &l);
        let import = |outcome| {
            registry.counter(
                "dcs_chain_imports_total",
                "block imports by outcome",
                &[("node", node), ("outcome", outcome)],
            )
        };
        let rejected = |reason| {
            registry.counter(
                "dcs_mempool_rejected_total",
                "transactions refused at admission, by reason",
                &[("node", node), ("reason", reason)],
            )
        };
        let phase = |phase| {
            registry.counter(
                "dcs_pbft_phase_total",
                "protocol phase entries, by phase",
                &[("node", node), ("phase", phase)],
            )
        };
        PeerSeries {
            height: gauge("dcs_chain_height", "canonical chain height"),
            finalized: gauge(
                "dcs_chain_finalized_height",
                "highest height at confirmation depth",
            ),
            finality_lag: gauge(
                "dcs_chain_finality_lag",
                "blocks between tip and finalized height",
            ),
            extended: import("extended"),
            side_chain: import("side_chain"),
            orphaned: import("orphaned"),
            reorgs: import("reorg"),
            blocks_reverted: counter(
                "dcs_chain_blocks_reverted_total",
                "canonical blocks reverted across reorgs",
            ),
            admitted: counter(
                "dcs_mempool_admitted_total",
                "transactions admitted to the pool",
            ),
            rejected_duplicate: rejected("duplicate"),
            rejected_full: rejected("full"),
            rejected_bad_witness: rejected("bad_witness"),
            depth: gauge("dcs_mempool_depth", "pending transactions pooled"),
            pbft: pbft.then(|| PbftSeries {
                view: gauge("dcs_pbft_view", "current PBFT view"),
                view_changes: counter("dcs_pbft_view_changes_total", "view changes executed"),
                preprepare: phase("preprepare"),
                prepare: phase("prepare"),
                commit: phase("commit"),
            }),
            tip: 0,
            final_height: 0,
            reorg_import: false,
        }
    }

    fn publish_head(&self) {
        self.height.set(self.tip as i64);
        self.finalized.set(self.final_height as i64);
        self.finality_lag
            .set(self.tip.saturating_sub(self.final_height) as i64);
    }
}

impl PeerObserver for PeerSeries {
    fn observe(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::BlockImported {
                outcome: ImportOutcome::Extended,
                ..
            } if self.reorg_import => self.reorg_import = false,
            TraceEvent::BlockImported {
                outcome: ImportOutcome::Extended,
                ..
            } => {
                self.extended.inc();
                self.tip += 1;
                self.publish_head();
            }
            TraceEvent::BlockImported {
                outcome: ImportOutcome::SideChain,
                ..
            } => self.side_chain.inc(),
            TraceEvent::BlockOrphaned { .. } => self.orphaned.inc(),
            TraceEvent::Reorg { reverted, applied } => {
                self.reorgs.inc();
                self.blocks_reverted.add(reverted);
                self.tip = (self.tip + applied).saturating_sub(reverted);
                self.reorg_import = true;
                self.publish_head();
            }
            TraceEvent::Finalized { height } => {
                self.final_height = height;
                self.publish_head();
            }
            TraceEvent::TxAdmitted { .. } => self.admitted.inc(),
            TraceEvent::TxRejected { reason, .. } => match reason {
                RejectReason::Duplicate => self.rejected_duplicate.inc(),
                RejectReason::Full => self.rejected_full.inc(),
                RejectReason::BadWitness => self.rejected_bad_witness.inc(),
            },
            TraceEvent::Pbft { phase, view, .. } => {
                if let Some(p) = &self.pbft {
                    match phase {
                        PbftPhase::PrePrepare => p.preprepare.inc(),
                        PbftPhase::Prepare => p.prepare.inc(),
                        PbftPhase::Commit => p.commit.inc(),
                        PbftPhase::ViewChange => p.view_changes.inc(),
                    }
                    p.view.set(view as i64);
                }
            }
            _ => {}
        }
    }

    fn pool_depth(&mut self, len: usize) {
        self.depth.set(len as i64);
    }
}

/// Commit-latency histogram bounds (µs): 100 ms … 50 s.
const COMMIT_LATENCY_BOUNDS_US: &[u64] = &[
    100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000,
];

/// Events-per-tick histogram bounds.
const TICK_EVENT_BOUNDS: &[u64] = &[1, 10, 100, 1_000, 10_000, 100_000];

/// Handles for the run-wide series that are *mirrored* from existing
/// statistics rather than bumped inline: fabric counters, event-queue
/// depth, per-shard engine dispatch counts, and the simulated clock. Call
/// [`RunnerGauges::sample`] between simulation ticks; monotone mirrors use
/// saturating set-to-total updates so a sample never regresses a counter.
pub struct RunnerGauges {
    sim_now_us: Gauge,
    queue_depth: Gauge,
    queue_high_water: Gauge,
    sent: Counter,
    delivered: Counter,
    dropped: Counter,
    bytes_sent: Counter,
    shard_events: Vec<Counter>,
    /// Commit latency (µs) over transactions newly observed committed.
    pub commit_latency_us: Histogram,
    /// Events dispatched per simulation tick.
    pub tick_events: Histogram,
}

impl RunnerGauges {
    /// Registers the run-wide families. `shards` fixes how many per-shard
    /// engine counters exist (the engine's worker count for this run).
    pub fn register(registry: &Registry, shards: usize) -> Self {
        let shard_events = (0..shards.max(1))
            .map(|s| {
                registry.counter(
                    "dcs_engine_events_total",
                    "events dispatched per engine shard worker",
                    &[("shard", &s.to_string())],
                )
            })
            .collect();
        RunnerGauges {
            sim_now_us: registry.gauge("dcs_sim_now_us", "simulated clock (microseconds)", &[]),
            queue_depth: registry.gauge(
                "dcs_net_queue_depth",
                "events pending in the fabric queue",
                &[],
            ),
            queue_high_water: registry.gauge(
                "dcs_net_queue_high_water",
                "peak pending events since start",
                &[],
            ),
            sent: registry.counter("dcs_net_sent_total", "messages sent on the fabric", &[]),
            delivered: registry.counter("dcs_net_delivered_total", "messages delivered", &[]),
            dropped: registry.counter("dcs_net_dropped_total", "messages dropped in flight", &[]),
            bytes_sent: registry.counter("dcs_net_bytes_sent_total", "payload bytes sent", &[]),
            commit_latency_us: registry.histogram(
                "dcs_commit_latency_us",
                "submit-to-commit latency per transaction (microseconds)",
                &[],
                COMMIT_LATENCY_BOUNDS_US,
            ),
            tick_events: registry.histogram(
                "dcs_serve_tick_events",
                "events dispatched per serve tick",
                &[],
                TICK_EVENT_BOUNDS,
            ),
            shard_events,
        }
    }

    /// Mirrors the runner's current statistics into the registry. Reads
    /// only — never mutates the runner — so it can run at any cadence.
    pub fn sample<P: LedgerNode>(&self, runner: &Runner<P>) {
        let stats = runner.stats();
        self.sent.set_total(stats.sent);
        self.delivered.set_total(stats.delivered);
        self.dropped.set_total(stats.dropped + stats.link_dropped);
        self.bytes_sent.set_total(stats.bytes_sent);
        self.sim_now_us.set(runner.now().as_micros() as i64);
        self.queue_depth.set(runner.net().queue_depth() as i64);
        self.queue_high_water
            .set(runner.net().queue_high_water() as i64);
        for (slot, count) in runner.shard_event_counts().iter().enumerate() {
            if let Some(c) = self.shard_events.get(slot) {
                c.set_total(*count);
            }
        }
    }
}

/// Shared state behind the HTTP endpoints: the registry plus the latest
/// published snapshots. The simulation loop writes snapshots between
/// ticks; the server thread only reads.
pub struct OpsState {
    /// The metric families behind `/metrics`.
    pub registry: Registry,
    /// The flight recorder behind `/recent`: one JSON object per tick.
    pub recent: Ring,
    status: Mutex<String>,
    analytics: Mutex<String>,
    txs: Mutex<BTreeMap<String, String>>,
    requests: Mutex<BTreeMap<&'static str, Counter>>,
}

/// At most this many transaction timelines are indexed for `/tx/<id>`:
/// the most recently submitted ones (older ones are dropped from the
/// index, not from the run).
pub const TX_INDEX_CAP: usize = 4096;

impl OpsState {
    /// Creates the shared state around `registry` with a flight recorder
    /// of `ring_capacity` entries.
    pub fn new(registry: Registry, ring_capacity: usize) -> Arc<Self> {
        let requests = ["metrics", "status", "analytics", "recent", "tx", "other"]
            .iter()
            .map(|route| {
                (
                    *route,
                    registry.counter(
                        "dcs_serve_requests_total",
                        "HTTP requests served, by route",
                        &[("route", route)],
                    ),
                )
            })
            .collect();
        Arc::new(OpsState {
            registry,
            recent: Ring::new(ring_capacity),
            status: Mutex::new("{}".to_string()),
            analytics: Mutex::new("{}".to_string()),
            txs: Mutex::new(BTreeMap::new()),
            requests: Mutex::new(requests),
        })
    }

    /// Publishes the `/status` document.
    pub fn set_status(&self, json: String) {
        *lock(&self.status) = json;
    }

    /// Publishes the `/analytics` document.
    pub fn set_analytics(&self, json: String) {
        *lock(&self.analytics) = json;
    }

    /// Replaces the `/tx/<id>` index wholesale with the [`TX_INDEX_CAP`]
    /// most recently submitted of `txs` — `(submitted_us, id, timeline
    /// JSON)` triples, never-submitted ones ranking oldest — and returns
    /// the id of the newest.
    pub fn set_txs(&self, mut txs: Vec<(Option<u64>, String, String)>) -> Option<String> {
        txs.sort_unstable_by(|a, b| (b.0, &b.1).cmp(&(a.0, &a.1)));
        txs.truncate(TX_INDEX_CAP);
        let newest = txs.first().map(|(_, id, _)| id.clone());
        *lock(&self.txs) = txs.into_iter().map(|(_, id, json)| (id, json)).collect();
        newest
    }

    fn bump(&self, route: &str) {
        let map = lock(&self.requests);
        if let Some(c) = map.get(route) {
            c.inc();
        }
    }

    /// Routes one request path to `(status, content-type, body)`.
    pub fn respond(&self, path: &str) -> (u16, &'static str, String) {
        const JSON: &str = "application/json";
        match path {
            "/metrics" => {
                self.bump("metrics");
                (200, "text/plain; version=0.0.4", self.registry.render())
            }
            "/status" => {
                self.bump("status");
                (200, JSON, lock(&self.status).clone())
            }
            "/analytics" => {
                self.bump("analytics");
                (200, JSON, lock(&self.analytics).clone())
            }
            "/recent" => {
                self.bump("recent");
                let stats = self.recent.stats();
                let entries = self.recent.snapshot();
                (
                    200,
                    JSON,
                    format!(
                        "{{\"dropped\":{},\"entries\":[{}]}}",
                        stats.dropped,
                        entries.join(",")
                    ),
                )
            }
            _ if path.starts_with("/tx/") => {
                self.bump("tx");
                let id = &path["/tx/".len()..];
                match lock(&self.txs).get(id) {
                    Some(json) => (200, JSON, json.clone()),
                    None => (404, JSON, "{\"error\":\"unknown transaction\"}".to_string()),
                }
            }
            _ => {
                self.bump("other");
                (404, JSON, "{\"error\":\"not found\"}".to_string())
            }
        }
    }
}

/// Locks a mutex, recovering the data from a poisoned lock (a panic on
/// another thread leaves the snapshot strings structurally intact).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running operations server. Dropping the handle leaves the thread
/// serving; call [`OpsServer::shutdown`] for a clean stop (tests do).
pub struct OpsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl OpsServer {
    /// The bound address (useful with a `:0` ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with one local connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:9090"`, port 0 for ephemeral) and
/// serves `state` on a background thread until shut down. Connections are
/// handled serially — this is an operations sidecar, not a web server.
///
/// # Errors
///
/// Returns any error from binding the listener.
pub fn serve(addr: &str, state: Arc<OpsState>) -> std::io::Result<OpsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop_flag.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = conn {
                let _ = handle_connection(stream, &state);
            }
        }
    });
    Ok(OpsServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

/// The longest request line or header line the server reads, terminator
/// included. A longer one is answered `414`/`431` and the connection closed.
const MAX_LINE_BYTES: u64 = 8 * 1024;

/// How much of a refused request is read and discarded before the
/// connection closes, so the client sees the refusal rather than a reset.
const MAX_DISCARD_BYTES: u64 = 1 << 20;

/// Reads one line of at most [`MAX_LINE_BYTES`] into `line`. Returns
/// `false` when the line is longer than that.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut String) -> std::io::Result<bool> {
    line.clear();
    let n = reader.take(MAX_LINE_BYTES).read_line(line)?;
    Ok((n as u64) < MAX_LINE_BYTES || line.ends_with('\n'))
}

/// Reads one request, writes one response, closes the connection.
fn handle_connection(stream: TcpStream, state: &OpsState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(2)))?;
    let mut reader = BufReader::new(&stream);
    let mut request_line = String::new();
    if !read_bounded_line(&mut reader, &mut request_line)? {
        return refuse(&stream, reader, 414);
    }
    // Drain the headers so well-behaved clients see the full exchange.
    let mut header = String::new();
    for _ in 0..64 {
        match read_bounded_line(&mut reader, &mut header) {
            Ok(false) => return refuse(&stream, reader, 431),
            Ok(true) if !header.trim().is_empty() => {}
            _ => break,
        }
    }
    let (status, content_type, body) = answer(state, &request_line);
    write_response(&stream, status, content_type, &body)
}

/// Answers one request line: the path of a `GET` goes to
/// [`OpsState::respond`], and a line that is not one is refused with 400
/// and counted under the `other` route.
fn answer(state: &OpsState, request_line: &str) -> (u16, &'static str, String) {
    match parse_request_path(request_line) {
        Some(path) => state.respond(&path),
        None => {
            state.bump("other");
            let body = "{\"error\":\"bad request\"}".to_string();
            (400, "application/json", body)
        }
    }
}

/// Answers an over-long line with `status` and closes the connection,
/// discarding (up to [`MAX_DISCARD_BYTES`]) what the client already sent.
fn refuse(stream: &TcpStream, reader: impl BufRead, status: u16) -> std::io::Result<()> {
    let body = "{\"error\":\"line too long\"}";
    write_response(stream, status, "application/json", body)?;
    stream.shutdown(Shutdown::Write)?;
    std::io::copy(&mut reader.take(MAX_DISCARD_BYTES), &mut std::io::sink())?;
    Ok(())
}

fn write_response(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Extracts the path from a `GET <path> HTTP/1.x` request line.
fn parse_request_path(line: &str) -> Option<String> {
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method != "GET" {
        return None;
    }
    // Ignore any query string.
    Some(path.split('?').next().unwrap_or(path).to_string())
}

// ---------------------------------------------------------------------------
// The live run loop behind `dcs-ledger serve`.
// ---------------------------------------------------------------------------

/// Parameters for a live `dcs-ledger serve` run.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Run seed — the whole simulated network replays from it.
    pub seed: u64,
    /// Peer count.
    pub nodes: usize,
    /// Client transactions per simulated second.
    pub tps: f64,
    /// Engine shard workers (0 or 1 = one inline shard).
    pub shards: usize,
    /// Simulated seconds of workload; the run idles once consumed.
    pub sim_secs: u64,
    /// Wall milliseconds per tick (pacing of the live loop).
    pub tick_ms: u64,
    /// Simulated-time multiplier: each tick advances `tick_ms × warp`
    /// simulated milliseconds.
    pub warp: u64,
    /// Stop after this many ticks (0 = run until killed).
    pub max_ticks: u64,
}

impl Default for ServeParams {
    fn default() -> Self {
        ServeParams {
            addr: "127.0.0.1:9090".to_string(),
            seed: 42,
            nodes: 8,
            tps: 5.0,
            shards: 0,
            sim_secs: 600,
            tick_ms: 100,
            warp: 10,
            max_ticks: 0,
        }
    }
}

/// Builds the serve network: the standard PoW-gossip profile (~5 s
/// blocks) with full tracing and per-peer metrics on `registry`.
fn build_serve_runner(
    params: &ServeParams,
    registry: &Registry,
) -> Runner<dcs_consensus::pow::PowNode<NullMachine>> {
    let mut pow = NetworkParams::<Pow> {
        nodes: params.nodes,
        ..Default::default()
    };
    pow.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: params.nodes as u64 * 1_000 * 5, // ~5 s blocks
        retarget_window: 16,
        target_interval_us: 5_000_000,
    };
    let mut runner = build(&pow, params.seed, |_| NullMachine);
    runner.set_shards(params.shards);
    install_tracing(&mut runner, &TraceConfig::full());
    install_metrics(&mut runner, registry);
    runner
}

/// Runs a live simulated network and serves its operations surface.
/// Blocks the calling thread; with `max_ticks == 0` it runs until the
/// process is killed. Returns the bound address via `on_ready` before the
/// first tick.
///
/// # Errors
///
/// Returns any error from binding the listen address.
pub fn run_live(params: &ServeParams, on_ready: impl FnOnce(SocketAddr)) -> std::io::Result<()> {
    let registry = Registry::new();
    let mut runner = build_serve_runner(params, &registry);
    let gauges = RunnerGauges::register(&registry, runner.shards());
    let submitted = Workload::transfers(params.tps, SimDuration::from_secs(params.sim_secs), 100)
        .inject(runner.net_mut(), params.seed ^ 0x5eed);
    let state = OpsState::new(registry, 256);
    let server = serve(&params.addr, Arc::clone(&state))?;
    on_ready(server.addr());

    let deadline =
        SimTime::ZERO + SimDuration::from_secs(params.sim_secs) + SimDuration::from_secs(120);
    let mut committed_seen: BTreeSet<dcs_trace::Id> = BTreeSet::new();
    let mut tick: u64 = 0;
    loop {
        let step = SimDuration::from_millis(params.tick_ms.saturating_mul(params.warp).max(1));
        let target = (runner.now() + step).min(deadline);
        let dispatched = if runner.now() < deadline {
            runner.run_until(target)
        } else {
            0
        };
        gauges.sample(&runner);
        gauges.tick_events.observe(dispatched);
        // Rebuilding timelines is the expensive part of a tick; once the
        // run has drained (no events dispatched) the snapshots are static,
        // so refresh them only occasionally to keep idle serving cheap.
        if dispatched > 0 || tick.is_multiple_of(16) {
            publish_snapshots(
                &runner,
                &state,
                &gauges,
                &mut committed_seen,
                submitted.len(),
            );
        }
        tick += 1;
        if params.max_ticks > 0 && tick >= params.max_ticks {
            server.shutdown();
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(params.tick_ms));
    }
}

/// Rebuilds the trace timelines and publishes the `/status`, `/tx`,
/// `/analytics`, and `/recent` snapshots.
fn publish_snapshots<P: LedgerNode>(
    runner: &Runner<P>,
    state: &OpsState,
    gauges: &RunnerGauges,
    committed_seen: &mut BTreeSet<dcs_trace::Id>,
    submitted: usize,
) {
    let mut traces = collect_traces(runner);
    let timelines = Timelines::build(traces.records(), 0);

    // Newly committed transactions feed the latency histogram exactly once.
    for (id, span) in &timelines.txs {
        if let (Some(sub), Some(com)) = (span.submitted_us, span.committed_us) {
            if committed_seen.insert(*id) {
                gauges.commit_latency_us.observe(com.saturating_sub(sub));
            }
        }
    }

    let txs = timelines
        .txs
        .iter()
        .map(|(id, span)| (span.submitted_us, hex32(&id.0), tx_timeline_json(id, span)))
        .collect();
    let sample_tx = state.set_txs(txs);

    let core = runner.node(NodeId(0)).core();
    let height = core.chain.height();
    let peers: Vec<String> = (0..runner.nodes().len())
        .map(|i| {
            format!(
                "{{\"id\":{i},\"alive\":{},\"height\":{}}}",
                runner.net().is_alive(NodeId(i)),
                runner.node(NodeId(i)).core().chain.height()
            )
        })
        .collect();
    state.set_status(format!(
        concat!(
            "{{\"now_us\":{},\"head\":{{\"height\":{},\"tip\":\"{}\"}},",
            "\"finalized_height\":{},\"mempool_depth\":{},",
            "\"txs_submitted\":{},\"txs_tracked\":{},\"reorgs_observed\":{},",
            "\"sample_tx\":{},\"peers\":[{}]}}"
        ),
        runner.now().as_micros(),
        height,
        core.chain.tip_hash(),
        core.chain.finalized_height(),
        core.mempool.len(),
        submitted,
        timelines.txs.len(),
        timelines.reorgs.len(),
        match &sample_tx {
            Some(id) => format!("\"{id}\""),
            None => "null".to_string(),
        },
        peers.join(","),
    ));

    state.set_analytics(dcs_middleware::analyze(&core.chain).to_json());

    state.recent.push(format!(
        "{{\"t_us\":{},\"height\":{},\"mempool\":{},\"pending\":{},\"committed\":{}}}",
        runner.now().as_micros(),
        height,
        core.mempool.len(),
        runner.net().queue_depth(),
        committed_seen.len(),
    ));
}

/// Full lowercase hex of a 32-byte id.
fn hex32(bytes: &[u8; 32]) -> String {
    let mut s = String::with_capacity(64);
    for b in bytes {
        use std::fmt::Write as _;
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// One transaction's lifecycle as JSON (missing stages render `null`).
fn tx_timeline_json(id: &dcs_trace::Id, span: &dcs_trace::TxSpan) -> String {
    fn opt(v: Option<u64>) -> String {
        v.map_or_else(|| "null".to_string(), |n| n.to_string())
    }
    format!(
        concat!(
            "{{\"tx\":\"{}\",\"submitted_us\":{},\"admitted_us\":{},",
            "\"included_us\":{},\"committed_us\":{},\"block\":{},",
            "\"first_seen_peers\":{}}}"
        ),
        hex32(&id.0),
        opt(span.submitted_us),
        opt(span.admitted_us),
        opt(span.included_us),
        opt(span.committed_us),
        span.block
            .map_or_else(|| "null".to_string(), |b| format!("\"{}\"", hex32(&b.0))),
        span.first_seen.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        send(addr, &format!("GET {path} HTTP/1.1"))
    }

    fn send(addr: SocketAddr, request_line: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "{request_line}\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("full response");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_status_and_404() {
        let registry = Registry::new();
        registry.counter("dcs_demo_total", "demo", &[]).add(7);
        let state = OpsState::new(registry, 8);
        state.set_status("{\"ok\":true}".to_string());
        state.recent.push("{\"t_us\":1}".to_string());
        let server = serve("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("dcs_demo_total 7"), "{body}");
        assert!(body.contains("dcs_serve_requests_total{route=\"metrics\"}"));

        let (_, body) = get(addr, "/status");
        assert_eq!(body, "{\"ok\":true}");

        let (_, body) = get(addr, "/recent");
        assert_eq!(body, "{\"dropped\":0,\"entries\":[{\"t_us\":1}]}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = get(addr, "/tx/feed");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        for line in ["POST /metrics HTTP/1.1", "GET"] {
            let (head, _) = send(addr, line);
            assert!(head.starts_with("HTTP/1.1 400"), "{line}: {head}");
        }

        server.shutdown();
    }

    #[test]
    fn tx_index_serves_a_timeline() {
        let state = OpsState::new(Registry::new(), 8);
        let txs = vec![(Some(1), "aa".to_string(), "{\"tx\":\"aa\"}".to_string())];
        assert_eq!(state.set_txs(txs).as_deref(), Some("aa"));
        let server = serve("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let (head, body) = get(server.addr(), "/tx/aa");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "{\"tx\":\"aa\"}");
        server.shutdown();
    }

    #[test]
    fn tx_index_keeps_the_most_recently_submitted() {
        // Ids run opposite to submission order: the newest transaction has
        // the smallest id, so dropping by id would evict exactly the newest.
        let total = TX_INDEX_CAP + 10;
        let state = OpsState::new(Registry::new(), 8);
        let txs = (0..total)
            .map(|i| {
                let submitted_us = (total - i) as u64 * 1_000;
                (Some(submitted_us), format!("{i:064x}"), "{}".to_string())
            })
            .collect();
        let newest = state.set_txs(txs);
        let indexed = lock(&state.txs);
        assert_eq!(indexed.len(), TX_INDEX_CAP);
        let expected: Vec<String> = (0..TX_INDEX_CAP).map(|i| format!("{i:064x}")).collect();
        assert!(indexed.keys().eq(expected.iter()), "the newest are kept");
        assert_eq!(
            newest,
            Some(format!("{:064x}", 0)),
            "sample_tx is the newest"
        );
    }

    #[test]
    fn over_long_request_line_is_refused_and_serving_continues() {
        let state = OpsState::new(Registry::new(), 8);
        let server = serve("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let mut request = vec![b'A'; 64 * 1024];
        request.extend_from_slice(b"\r\n");
        stream.write_all(&request).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 414 "), "{response}");
        drop(stream);

        let (head, _) = get(server.addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        server.shutdown();
    }

    #[test]
    fn over_long_header_line_is_refused() {
        let state = OpsState::new(Registry::new(), 8);
        let server = serve("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let header = "x".repeat(16 * 1024);
        write!(stream, "GET /metrics HTTP/1.1\r\nX-Big: {header}\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
        server.shutdown();
    }

    #[test]
    fn live_run_populates_every_endpoint() {
        let params = ServeParams {
            addr: "127.0.0.1:0".to_string(),
            nodes: 4,
            tps: 10.0,
            sim_secs: 60,
            tick_ms: 1,
            warp: 20_000, // 20 simulated seconds per tick
            max_ticks: 200,
            ..Default::default()
        };
        let addr = Arc::new(Mutex::new(None));
        let addr_slot = Arc::clone(&addr);
        // run_live blocks; probe from a helper thread once ready, polling
        // until the first snapshot has been published.
        let probe = std::thread::spawn(move || loop {
            let got = *lock(&addr_slot);
            if let Some(addr) = got {
                let (_, status) = get(addr, "/status");
                if !status.contains("\"now_us\"") {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    continue;
                }
                let (_, metrics) = get(addr, "/metrics");
                let (_, analytics) = get(addr, "/analytics");
                let (_, recent) = get(addr, "/recent");
                return (status, metrics, analytics, recent);
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        run_live(&params, |a| *lock(&addr) = Some(a)).expect("serve");
        let (status, metrics, analytics, recent) = probe.join().expect("probe");
        assert!(status.contains("\"now_us\""), "{status}");
        assert!(status.contains("\"peers\""), "{status}");
        assert!(status.contains("\"finalized_height\":"), "{status}");
        assert!(status.contains("\"txs_tracked\":"), "{status}");
        assert!(metrics.contains("dcs_sim_now_us"), "{metrics}");
        assert!(metrics.contains("dcs_chain_height"), "{metrics}");
        assert!(metrics.contains("dcs_mempool_depth"), "{metrics}");
        assert!(metrics.contains("dcs_commit_latency_us"), "{metrics}");
        assert!(analytics.starts_with('{'), "{analytics}");
        assert!(recent.contains("\"entries\""), "{recent}");
    }

    /// Pieces a hostile path is built from: route prefixes, separators,
    /// query and percent runs, hex and non-hex digits, whitespace and
    /// multi-byte characters.
    const PIECES: [&str; 18] = [
        "/",
        "//",
        "/tx/",
        "/tx",
        "tx/",
        "?",
        "??",
        "%",
        "%%",
        "%2F",
        "%zz",
        "/metrics",
        "/status",
        "0123456789abcdef",
        "g",
        "abc",
        " ",
        "\u{e9}\u{1f642}",
    ];

    proptest::proptest! {
        /// Hostile request lines never panic `serve`'s request handling,
        /// and every one gets a status code back: request lines built from
        /// route prefixes, `?` and `%` runs, empty segments and `/tx/` ids
        /// that are not hex, of odd length or over-long, other methods, a
        /// missing path, and printable noise.
        #[test]
        fn every_request_line_gets_a_status_and_none_panics(
            method in 0usize..4,
            pieces in proptest::collection::vec(
                (0usize..PIECES.len(), "\\PC{0,6}", proptest::prelude::any::<bool>()),
                0..24,
            ),
            id in 0usize..9_000,
            noise in "\\PC{0,160}",
        ) {
            let state = OpsState::new(Registry::new(), 8);
            let known = format!("{:064x}", 7);
            state.set_txs(vec![(Some(1), known.clone(), "{}".to_string())]);
            let path: String = pieces
                .iter()
                .map(|(at, raw, literal)| if *literal { PIECES[*at] } else { raw.as_str() })
                .collect();
            let method = ["GET", "POST", "get", ""][method];
            let over_long = "ab".repeat(id / 2) + &"z".repeat(id % 2);
            let lines = [
                format!("{method} {path} HTTP/1.1"),
                format!("GET {path}"),
                format!("GET /tx/{over_long} HTTP/1.1"),
                path.clone(),
                noise.clone(),
                String::new(),
            ];
            for line in &lines {
                let (status, _, _) = answer(&state, line);
                proptest::prop_assert!(matches!(status, 200 | 400 | 404), "{} for {:?}", status, line);
            }
            // The query is cut off before the id is looked up; a prefix of
            // an indexed id is not one.
            let cut = id % 65;
            let line = format!("GET /tx/{}?{path} HTTP/1.1", &known[..cut]);
            let (status, _, _) = answer(&state, &line);
            proptest::prop_assert_eq!(status, if cut == 64 { 200 } else { 404 }, "{:?}", line);
        }
    }
}
