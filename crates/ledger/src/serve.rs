//! The live operations surface: one-call metrics installation for a whole
//! network ([`install_metrics`]), run-wide gauge mirroring
//! ([`RunnerGauges`]), and a dependency-free HTTP server ([`serve`])
//! exposing the registry and rolling run snapshots.
//!
//! # Endpoints
//!
//! | Path         | Body                                                  |
//! |--------------|-------------------------------------------------------|
//! | `/metrics`   | Prometheus text exposition (format 0.0.4)             |
//! | `/status`    | JSON: chain head, mempool depth, peer liveness, and   |
//! |              | the scale sidecar (shards, channels, light client)    |
//! | `/tx/<id>`   | JSON: submit → admit → included → committed timeline  |
//! | `/analytics` | JSON: the [`dcs_middleware::ChainReport`]             |
//! | `/recent`    | JSON: the bounded flight-recorder ring                |
//!
//! # Determinism contract
//!
//! Everything here is **out of band**: instrument updates on the hot path
//! are relaxed atomic bumps beside decisions already taken, and the server
//! thread only *reads* snapshots published between simulation ticks. The
//! simulated run is bit-identical with metrics and serving on or off
//! (asserted in `tests/determinism.rs`); see DESIGN.md §16.

use crate::builders::{build, NetworkParams, Pow};
use crate::LedgerNode;
use crate::{collect_traces, install_tracing, workload::Workload};
use dcs_chain::NullMachine;
use dcs_crypto::VerifyPipeline;
use dcs_metrics::{Counter, Gauge, Histogram, Registry, Ring};
use dcs_net::{NodeId, Runner};
use dcs_primitives::ConsensusKind;
use dcs_scale::channels::ChannelNetwork;
use dcs_scale::light::LightClient;
use dcs_sim::{SimDuration, SimTime};
use dcs_trace::{Timelines, TraceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Registers every peer's live metrics (chain, mempool, and any
/// protocol-specific series) on `registry` — the metrics analogue of
/// [`install_tracing`]. Purely a registration
/// pass: no threads, no I/O, and the run stays bit-identical.
pub fn install_metrics<P: LedgerNode>(runner: &mut Runner<P>, registry: &Registry) {
    for i in 0..runner.nodes().len() {
        runner.node_mut(NodeId(i)).register_metrics(registry);
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
/// depth, per-shard engine dispatch counts, verify-pipeline cache
/// counters, and the simulated clock. Call [`RunnerGauges::sample`]
/// between simulation ticks; monotone mirrors use saturating set-to-total
/// updates so a sample never regresses a counter.
pub struct RunnerGauges {
    sim_now_us: Gauge,
    queue_depth: Gauge,
    queue_high_water: Gauge,
    sent: Counter,
    delivered: Counter,
    dropped: Counter,
    bytes_sent: Counter,
    shard_events: Vec<Counter>,
    verify_batches: Counter,
    verify_items: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    cache_entries: Gauge,
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
            verify_batches: registry.counter(
                "dcs_verify_batches_total",
                "batches submitted to the verify pipeline",
                &[],
            ),
            verify_items: registry.counter(
                "dcs_verify_items_total",
                "signatures submitted across all batches",
                &[],
            ),
            cache_hits: registry.counter(
                "dcs_verify_cache_hits_total",
                "signature checks answered from the cache",
                &[],
            ),
            cache_misses: registry.counter(
                "dcs_verify_cache_misses_total",
                "signature checks that ran a real verification",
                &[],
            ),
            cache_evictions: registry.counter(
                "dcs_verify_cache_evictions_total",
                "cached verdicts dropped to stay within capacity",
                &[],
            ),
            cache_entries: registry.gauge(
                "dcs_verify_cache_entries",
                "verdicts currently cached",
                &[],
            ),
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
        if let Some(pipeline) = runner.node(NodeId(0)).core().mempool.admission() {
            let p = pipeline.stats();
            self.verify_batches.set_total(p.batches);
            self.verify_items.set_total(p.batch_items);
            if let Some(c) = p.cache {
                self.cache_hits.set_total(c.hits);
                self.cache_misses.set_total(c.misses);
                self.cache_evictions.set_total(c.evictions);
                self.cache_entries.set(c.entries as i64);
            }
        }
    }
}

/// The scale-out companions of a serve run (PR 10), published on
/// `/status` and `/metrics`: a real [`LightClient`] syncing node 0's
/// header chain out of band (headers only, PoW-checked, never a body), and
/// a payment-channel hub routing dual-signed off-chain payments paced by
/// the simulated clock. Both are pure readers/side-state — the simulated
/// run stays bit-identical with the sidecar on or off.
pub struct ScaleSidecar {
    light: LightClient,
    channels: ChannelNetwork,
    hub: dcs_crypto::Address,
    spokes: Vec<dcs_crypto::Address>,
    channels_open: u64,
    mirrored_height: u64,
    next_pay_at: SimTime,
    payments_budget: u64,
    engine_shards: Gauge,
    g_channels_open: Gauge,
    c_channel_payments: Counter,
    g_light_tip: Gauge,
    g_light_lag: Gauge,
    c_light_bytes: Counter,
}

/// The `/status` `scale` document published each snapshot.
#[derive(Debug, Clone, Copy)]
pub struct ScaleStatus {
    /// Engine worker shards driving the simulated network.
    pub engine_shards: usize,
    /// Payment channels currently open at the hub.
    pub channels_open: u64,
    /// Off-chain payments routed so far.
    pub channel_payments: u64,
    /// The light client's synced header height.
    pub light_tip: u64,
    /// Full-node height minus the light client's tip.
    pub light_lag: u64,
    /// Bytes the light client has downloaded (headers + checkpoints).
    pub light_bytes: u64,
}

impl ScaleSidecar {
    /// Builds the sidecar against node 0's genesis header and registers its
    /// metric families.
    pub fn new<P: LedgerNode>(runner: &Runner<P>, registry: &Registry) -> Self {
        let chain = &runner.node(NodeId(0)).core().chain;
        let genesis = chain
            .canonical_at(0)
            .and_then(|h| chain.tree().get(&h))
            .expect("every chain stores its genesis")
            .header()
            .clone();
        // Leave `check_pow` off: the simulated miner models block discovery
        // with exponential arrival times and seals with an RNG nonce, so
        // live headers do not satisfy the literal hash-target relation
        // (only `mine_header`-ground ones do). With it on, every batch
        // fails `BadPow` and the client wedges at the genesis tip.
        let light = LightClient::new(genesis);

        // A hub-and-spoke channel web with real WOTS keys. Key height 10 =
        // 1024 signatures per party; the payment budget stays inside it.
        let mut channels = ChannelNetwork::new(10);
        let hub = channels.add_party([0xAA; 32], 10, 100_000_000);
        let spokes: Vec<dcs_crypto::Address> = (0..3)
            .map(|i| channels.add_party([0xB0 + i; 32], 10, 10_000_000))
            .collect();
        let mut channels_open = 0;
        for &s in &spokes {
            channels
                .open_channel(hub, s, 2_000_000, 200_000)
                .expect("parties funded above");
            channels_open += 1;
        }
        ScaleSidecar {
            light,
            channels,
            hub,
            spokes,
            channels_open,
            mirrored_height: 0,
            next_pay_at: SimTime::ZERO,
            payments_budget: 400,
            engine_shards: registry.gauge(
                "dcs_scale_engine_shards",
                "event-engine worker shards driving the run",
                &[],
            ),
            g_channels_open: registry.gauge(
                "dcs_scale_channels_open",
                "payment channels currently open at the serve hub",
                &[],
            ),
            c_channel_payments: registry.counter(
                "dcs_scale_channel_payments_total",
                "off-chain payments routed through the channel hub",
                &[],
            ),
            g_light_tip: registry.gauge(
                "dcs_scale_light_tip",
                "header height the light client has verified up to",
                &[],
            ),
            g_light_lag: registry.gauge(
                "dcs_scale_light_lag",
                "full-node height minus the light client tip",
                &[],
            ),
            c_light_bytes: registry.counter(
                "dcs_scale_light_bytes_total",
                "bytes the light client downloaded (headers + checkpoints)",
                &[],
            ),
        }
    }

    /// Syncs the light client to node 0's finalized headers, routes any due
    /// channel payments, mirrors the gauges, and returns the `/status`
    /// snapshot. Reads the runner only.
    pub fn sample<P: LedgerNode>(&mut self, runner: &Runner<P>) -> ScaleStatus {
        let chain = &runner.node(NodeId(0)).core().chain;
        let height = chain.height();
        // Headers only ever up to the finalized height: below the
        // confirmation depth a PoW chain may still reorg, and the light
        // client's strict linkage check would wedge on an orphaned header.
        let finalized = height.saturating_sub(chain.config().confirmation_depth);
        let mut headers = Vec::new();
        for h in self.light.tip_height() + 1..=finalized {
            let Some(stored) = chain
                .canonical_at(h)
                .and_then(|hash| chain.tree().get(&hash))
            else {
                break;
            };
            headers.push(stored.header().clone());
        }
        if !headers.is_empty() {
            // A failure means node 0 reorged under us mid-walk; drop the
            // batch and retry at the next snapshot.
            let _ = self.light.sync(&headers);
        }

        // Channel traffic: one routed payment per simulated 5 s, keys
        // permitting. The settlement ledger height mirrors the chain.
        if height > self.mirrored_height {
            self.channels.advance_height(height - self.mirrored_height);
            self.mirrored_height = height;
        }
        let now = runner.now();
        while now >= self.next_pay_at && self.payments_budget > 0 {
            self.next_pay_at += SimDuration::from_secs(5);
            let i = (self.channels.payments as usize) % self.spokes.len();
            let (from, to) = if self.channels.payments.is_multiple_of(2) {
                (self.hub, self.spokes[i])
            } else {
                (self.spokes[i], self.hub)
            };
            if self.channels.pay(from, to, 1_000).is_ok() {
                self.payments_budget -= 1;
            }
        }

        let status = ScaleStatus {
            engine_shards: runner.shards(),
            channels_open: self.channels_open,
            channel_payments: self.channels.payments,
            light_tip: self.light.tip_height(),
            light_lag: height.saturating_sub(self.light.tip_height()),
            light_bytes: self.light.bytes_downloaded,
        };
        self.engine_shards.set(status.engine_shards as i64);
        self.g_channels_open.set(status.channels_open as i64);
        self.c_channel_payments.set_total(status.channel_payments);
        self.g_light_tip.set(status.light_tip as i64);
        self.g_light_lag.set(status.light_lag as i64);
        self.c_light_bytes.set_total(status.light_bytes);
        status
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
    let path = match parse_request_path(&request_line) {
        Some(p) => p,
        None => return Ok(()),
    };
    let (status, content_type, body) = state.respond(&path);
    write_response(&stream, status, content_type, &body)
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
/// blocks) with full tracing, a shared admission pipeline on every peer,
/// and per-peer metrics on `registry`.
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
    let pipeline = Arc::new(VerifyPipeline::new(2, 4096));
    for i in 0..params.nodes {
        runner
            .node_mut(NodeId(i))
            .core_mut()
            .mempool
            .set_admission(Arc::clone(&pipeline));
    }
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
    let mut sidecar = ScaleSidecar::new(&runner, &state.registry);
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
        let scale = sidecar.sample(&runner);
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
                &scale,
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
    scale: &ScaleStatus,
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
    let depth = core.chain.config().confirmation_depth;
    let finalized = height.saturating_sub(depth);
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
            "\"sample_tx\":{},\"peers\":[{}],",
            "\"scale\":{{\"engine_shards\":{},\"channels_open\":{},",
            "\"channel_payments\":{},\"light_tip\":{},\"light_lag\":{},",
            "\"light_bytes\":{}}}}}"
        ),
        runner.now().as_micros(),
        height,
        core.chain.tip_hash(),
        finalized,
        core.mempool.len(),
        submitted,
        timelines.txs.len(),
        timelines.reorgs.len(),
        match &sample_tx {
            Some(id) => format!("\"{id}\""),
            None => "null".to_string(),
        },
        peers.join(","),
        scale.engine_shards,
        scale.channels_open,
        scale.channel_payments,
        scale.light_tip,
        scale.light_lag,
        scale.light_bytes,
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
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
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
    fn scale_sidecar_light_client_tracks_the_live_chain() {
        let params = ServeParams {
            nodes: 3,
            ..Default::default()
        };
        let registry = Registry::new();
        let mut runner = build_serve_runner(&params, &registry);
        let mut sidecar = ScaleSidecar::new(&runner, &registry);
        runner.run_until(SimTime::ZERO + SimDuration::from_secs(300));
        let status = sidecar.sample(&runner);
        let height = runner.node(NodeId(0)).core().chain.height();
        let depth = runner
            .node(NodeId(0))
            .core()
            .chain
            .config()
            .confirmation_depth;
        assert!(height > depth, "run too short to finalize: {height}");
        // The regression this guards: a PoW-target check against the
        // time-simulated miner wedges the client at the genesis tip.
        assert!(status.light_tip > 0, "light client wedged: {status:?}");
        assert_eq!(status.light_tip, height - depth);
        assert_eq!(status.light_lag, height - status.light_tip);
        assert!(status.light_bytes > 0);
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
        assert!(status.contains("\"scale\":{\"engine_shards\":"), "{status}");
        assert!(status.contains("\"channels_open\":3"), "{status}");
        assert!(status.contains("\"light_lag\":"), "{status}");
        assert!(metrics.contains("dcs_sim_now_us"), "{metrics}");
        assert!(metrics.contains("dcs_chain_height"), "{metrics}");
        assert!(metrics.contains("dcs_mempool_depth"), "{metrics}");
        assert!(metrics.contains("dcs_scale_channels_open"), "{metrics}");
        assert!(metrics.contains("dcs_scale_light_lag"), "{metrics}");
        assert!(analytics.starts_with('{'), "{analytics}");
        assert!(recent.contains("\"entries\""), "{recent}");
    }
}
