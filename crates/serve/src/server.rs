//! The serving loop: accept → bounded queue → worker pool, with a writer
//! thread that owns the [`IncrementalMass`] engine and publishes
//! epoch-versioned snapshots.
//!
//! The fault model (DESIGN.md §12) in one paragraph: readers answer every
//! query from an `Arc<ServingSnapshot>` behind an `RwLock` whose write
//! lock is held only for the pointer swap, so queries never block on a
//! refresh; an overloaded queue sheds new connections with an immediate
//! 503 + `Retry-After`; a refresh that panics is caught and quarantined —
//! the engine's transactional `refresh_with` guarantees it stays on the
//! last-good epoch, the server flips `/healthz` to 503 and keeps
//! answering queries from the last-good snapshot with staleness headers;
//! malformed requests die in the byte-budgeted parser with a 4xx; and
//! shutdown drains: accepted connections finish, new ones are refused.
//!
//! A shed 503 must reach the client. Closing a socket whose request is
//! still unread makes the kernel answer with a reset, which can destroy the
//! 503 before the client reads it. So after writing the 503 the accept
//! thread half-closes the socket and hands it to the shed lane: one thread
//! that reads the client's request under a short deadline and only then
//! closes. The lane is bounded; when it is full the accept thread drops the
//! socket at once, so a flood of slow clients still cannot stall accepts.

use crate::cache::AdVectorCache;
use crate::http::{read_request, Limits, Request, Response};
use crate::queue::BoundedQueue;
use crate::telemetry::{PlaneConfig, TelemetryPlane};
use mass_core::{
    apply_to_incremental, scripted_storm, IncrementalMass, RefreshFault, RefreshMode, ScriptedEdit,
    ServingSnapshot, StormMix,
};
use mass_obs::json::Json;
use mass_obs::{field, CompletedTrace, TraceId};
use mass_types::{DomainId, Sentiment};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning and robustness knobs for one server.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads answering queries.
    pub workers: usize,
    /// Bounded accept queue capacity; beyond it connections are shed.
    pub queue_capacity: usize,
    /// Maximum unapplied edit batches before `/edits` sheds.
    pub max_pending_batches: usize,
    /// Per-socket read deadline (slow-loris bound).
    pub read_timeout: Duration,
    /// Per-socket write deadline (stalled-reader bound).
    pub write_timeout: Duration,
    /// Handler compute deadline; overruns answer 503.
    pub handler_deadline: Duration,
    /// Parser byte budgets (request line, headers, body).
    pub limits: Limits,
    /// Largest `k` the precomputed snapshot lists can answer.
    pub topk_cap: usize,
    /// Ad interest-vector cache capacity.
    pub ad_cache_capacity: usize,
    /// Refresh mode the writer thread uses.
    pub refresh_mode: RefreshMode,
    /// Enables `/admin/inject-fault` (chaos drills only).
    pub enable_test_hooks: bool,
    /// `Retry-After` seconds on shed responses.
    pub retry_after_secs: u32,
    /// Live telemetry plane knobs (`/metrics`, `/debug/*`, tracing).
    pub telemetry: PlaneConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            max_pending_batches: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            handler_deadline: Duration::from_secs(2),
            limits: Limits::default(),
            topk_cap: 100,
            ad_cache_capacity: 256,
            refresh_mode: RefreshMode::Exact,
            enable_test_hooks: false,
            retry_after_secs: 1,
            telemetry: PlaneConfig::default(),
        }
    }
}

/// An edit batch queued for the writer thread.
enum EditBatch {
    /// Explicit edits from the request body.
    Script(Vec<ScriptedEdit>),
    /// A deterministic scripted storm resolved against the live dataset.
    Storm { edits: usize, seed: u64 },
    /// A window advance (`{"advance_to": T}`): the temporal facet's edit
    /// storm — decayed items become time dirt, the refresh re-solves.
    Advance { to: u64 },
}

/// State shared by the accept thread, workers, and the writer.
struct Shared {
    config: ServeConfig,
    /// The actually-bound address (the config may say port 0).
    addr: SocketAddr,
    snapshot: RwLock<Arc<ServingSnapshot>>,
    start: Instant,
    /// Milliseconds (since `start`) of the last successful publish.
    published_at_ms: AtomicU64,
    degraded: AtomicBool,
    draining: AtomicBool,
    pending_batches: AtomicUsize,
    refresh_failures: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
    /// Batches carry the submitting request's trace id so the writer's
    /// refresh spans correlate back to the request that caused them.
    edits_tx: Mutex<Option<Sender<(TraceId, EditBatch)>>>,
    cache: AdVectorCache,
    /// Fault armed via `/admin/inject-fault` for the next refresh.
    armed_fault: Mutex<Option<RefreshFault>>,
    /// Live telemetry: `/metrics`, `/debug/*`, flight recorder, trace ids.
    plane: TelemetryPlane,
}

impl Shared {
    fn snapshot(&self) -> Arc<ServingSnapshot> {
        Arc::clone(&self.snapshot.read().unwrap())
    }

    fn publish(&self, snap: Arc<ServingSnapshot>) {
        mass_obs::gauge("serve.epoch").set(snap.epoch() as i64);
        self.plane.epoch.set(snap.epoch() as i64);
        *self.snapshot.write().unwrap() = snap;
        self.published_at_ms
            .store(self.start.elapsed().as_millis() as u64, Ordering::SeqCst);
        self.degraded.store(false, Ordering::SeqCst);
    }

    fn stale_ms(&self) -> u64 {
        (self.start.elapsed().as_millis() as u64)
            .saturating_sub(self.published_at_ms.load(Ordering::SeqCst))
    }
}

/// Final tallies returned when the server drains.
#[derive(Clone, Copy, Debug)]
pub struct ShutdownReport {
    /// Requests fully parsed and routed.
    pub requests: u64,
    /// Connections shed by admission control.
    pub shed: u64,
    /// Refreshes that panicked and were quarantined.
    pub refresh_failures: u64,
    /// Last published epoch.
    pub epoch: u64,
}

/// A running server; dropping the handle does *not* stop it — call
/// [`shutdown`](ServerHandle::shutdown) or hit `POST /admin/shutdown`.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    shed_lane: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    writer: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the server is currently serving a stale (quarantined)
    /// snapshot.
    pub fn is_degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::SeqCst)
    }

    /// Starts a drain: new connections are refused, in-flight requests
    /// finish, the writer applies what it already received and exits.
    pub fn trigger_shutdown(&self) {
        initiate_drain(&self.shared, self.addr);
    }

    /// Blocks until the server drains (via [`trigger_shutdown`]
    /// (Self::trigger_shutdown) or `POST /admin/shutdown`).
    pub fn wait(self) -> ShutdownReport {
        let _ = self.accept.join();
        let _ = self.shed_lane.join();
        for w in self.workers {
            let _ = w.join();
        }
        let _ = self.writer.join();
        ShutdownReport {
            requests: self.shared.requests.load(Ordering::SeqCst),
            shed: self.shared.shed.load(Ordering::SeqCst),
            refresh_failures: self.shared.refresh_failures.load(Ordering::SeqCst),
            epoch: self.shared.snapshot().epoch(),
        }
    }

    /// [`trigger_shutdown`](Self::trigger_shutdown) + [`wait`](Self::wait).
    pub fn shutdown(self) -> ShutdownReport {
        self.trigger_shutdown();
        self.wait()
    }
}

fn initiate_drain(shared: &Shared, addr: SocketAddr) {
    shared.draining.store(true, Ordering::SeqCst);
    // Wake the accept loop with a throwaway connection so it observes the
    // drain flag even if no client ever connects again.
    let _ = TcpStream::connect(addr);
}

/// Binds, takes the initial snapshot (epoch 0 serves immediately), and
/// spawns the accept loop, `config.workers` workers, and the writer.
pub fn start(engine: IncrementalMass, config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let first = Arc::new(ServingSnapshot::capture(&engine, config.topk_cap));
    let (tx, rx) = mpsc::channel();
    let plane = TelemetryPlane::new(&config.telemetry);
    plane.epoch.set(first.epoch() as i64);
    let shared = Arc::new(Shared {
        cache: AdVectorCache::with_counters(
            config.ad_cache_capacity,
            plane.cache_hits.clone(),
            plane.cache_misses.clone(),
        ),
        config: config.clone(),
        addr,
        snapshot: RwLock::new(first),
        start: Instant::now(),
        published_at_ms: AtomicU64::new(0),
        degraded: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        pending_batches: AtomicUsize::new(0),
        refresh_failures: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        edits_tx: Mutex::new(Some(tx)),
        armed_fault: Mutex::new(None),
        plane,
    });
    let queue = Arc::new(BoundedQueue::with_gauge(
        config.queue_capacity,
        shared.plane.queue_depth.clone(),
    ));

    let lane = Arc::new(BoundedQueue::new(SHED_LANE_CAPACITY));
    let shed_lane = {
        let lane = Arc::clone(&lane);
        std::thread::Builder::new()
            .name("serve-shed".into())
            .spawn(move || {
                while let Some(stream) = lane.pop() {
                    drain_request(stream);
                }
            })?
    };
    let accept = {
        let shared = Arc::clone(&shared);
        let queue = Arc::clone(&queue);
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, queue, lane, shared))?
    };
    let workers = (0..config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(queue, shared))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let writer = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-writer".into())
            .spawn(move || writer_loop(engine, rx, shared))?
    };

    mass_obs::info(
        "serve.started",
        &[
            field("addr", addr.to_string()),
            field("workers", config.workers as u64),
            field("queue", config.queue_capacity as u64),
        ],
    );
    Ok(ServerHandle {
        addr,
        shared,
        accept,
        shed_lane,
        workers,
        writer,
    })
}

fn accept_loop(
    listener: TcpListener,
    queue: Arc<BoundedQueue<TcpStream>>,
    lane: Arc<BoundedQueue<TcpStream>>,
    shared: Arc<Shared>,
) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Err(stream) = queue.try_push(stream) {
            shed(stream, &lane, &shared);
        }
        mass_obs::gauge("serve.queue_depth").set(queue.len() as i64);
    }
    // Drain cascade: close the queues (workers and the shed lane finish
    // what's queued, then exit) and drop the edit sender (the writer
    // drains, then exits).
    queue.close();
    lane.close();
    shared.edits_tx.lock().unwrap().take();
}

/// Shed sockets waiting for the shed lane to read their request.
const SHED_LANE_CAPACITY: usize = 16;
/// How long the shed lane waits for one shed client's request.
const SHED_DRAIN_DEADLINE: Duration = Duration::from_millis(200);
/// Most bytes the shed lane reads from one shed client.
const SHED_DRAIN_BYTES: usize = 16 * 1024;

/// Admission control's fast path: an immediate 503 with `Retry-After`,
/// written from the accept thread with a tight deadline so a slow client
/// cannot stall accepts, then half-closed and passed to the shed lane (or
/// dropped when the lane is full).
fn shed(mut stream: TcpStream, lane: &BoundedQueue<TcpStream>, shared: &Shared) {
    shared.shed.fetch_add(1, Ordering::SeqCst);
    mass_obs::counter("serve.shed").inc();
    shared.plane.shed.inc();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let resp = Response::error(503, "overloaded")
        .with_header("Retry-After", shared.config.retry_after_secs.to_string());
    if resp.write_to(&mut stream).is_ok() && stream.shutdown(Shutdown::Write).is_ok() {
        let _ = lane.try_push(stream);
    }
}

/// Reads (and discards) what a shed client sends until it closes, the
/// deadline passes or the byte cap is reached, then closes the socket.
fn drain_request(mut stream: TcpStream) {
    let deadline = Instant::now() + SHED_DRAIN_DEADLINE;
    let mut buf = [0u8; 4096];
    let mut read = 0;
    while read < SHED_DRAIN_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => read += n,
        }
    }
}

fn worker_loop(queue: Arc<BoundedQueue<TcpStream>>, shared: Arc<Shared>) {
    while let Some(stream) = queue.pop() {
        // A panicking handler must cost one connection, not the worker.
        let result = catch_unwind(AssertUnwindSafe(|| handle_connection(stream, &shared)));
        if result.is_err() {
            mass_obs::counter("serve.handler_panics").inc();
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let cfg = &shared.config;
    let _ = stream.set_read_timeout(Some(cfg.read_timeout.max(Duration::from_millis(1))));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout.max(Duration::from_millis(1))));
    let started = Instant::now();
    let req = match read_request(&mut stream, &cfg.limits) {
        Ok(req) => req,
        Err(e) => {
            match e.status() {
                Some(code) => {
                    mass_obs::counter("serve.http_4xx").inc();
                    shared.plane.http_4xx.inc();
                    mass_obs::warn("serve.bad_request", &[field("why", e.label())]);
                    let _ = Response::error(code, e.label()).write_to(&mut stream);
                }
                None => mass_obs::counter("serve.client_aborts").inc(),
            }
            return;
        }
    };

    // Every parsed request gets a trace id; it scopes this thread (so the
    // handler's spans and any edit batch it submits carry it) and rides
    // back to the client as `X-Mass-Trace`.
    let plane = &shared.plane;
    let trace = plane.next_trace();
    let _trace_scope = mass_obs::trace_scope(trace);
    let capturing = plane.recorder.is_enabled();
    if capturing {
        mass_obs::begin_capture();
    }
    // The request span must close before the capture ends, so the span
    // tree handed to the flight recorder includes the root.
    let resp = {
        let _span = mass_obs::span_with(
            "serve.request",
            vec![
                field("method", req.method.clone()),
                field("path", req.path.clone()),
            ],
        );
        shared.requests.fetch_add(1, Ordering::SeqCst);
        mass_obs::counter("serve.requests").inc();
        let mut resp = route(&req, shared);
        if started.elapsed() > cfg.handler_deadline {
            mass_obs::counter("serve.deadline_exceeded").inc();
            plane.deadline_exceeded.inc();
            resp = Response::error(503, "deadline_exceeded");
        }
        resp
    };
    let elapsed_us = started.elapsed().as_micros() as u64;
    match resp.status {
        200..=299 => {}
        400..=499 => mass_obs::counter("serve.http_4xx").inc(),
        _ => mass_obs::counter("serve.http_5xx").inc(),
    }
    mass_obs::histogram("serve.request_us").record(elapsed_us as f64);
    plane.observe_request(resp.status, elapsed_us);
    if capturing {
        let spans = mass_obs::end_capture();
        let error = resp.status >= 500;
        if plane.recorder.should_keep(resp.status, error, elapsed_us) {
            plane.recorder.record(CompletedTrace {
                trace,
                name: format!("{} {}", req.method, req.path),
                status: resp.status,
                error,
                total_us: elapsed_us,
                spans,
            });
        }
    }
    let resp = resp.with_header("X-Mass-Trace", trace.as_hex());
    if resp.write_to(&mut stream).is_err() {
        mass_obs::counter("serve.write_failures").inc();
    }
}

/// Stamps the degradation-visibility headers on a data response.
fn stamp(resp: Response, snap: &ServingSnapshot, shared: &Shared) -> Response {
    let resp = resp
        .with_header("X-Mass-Epoch", snap.epoch().to_string())
        .with_header("X-Mass-Stale-Ms", shared.stale_ms().to_string());
    if shared.degraded.load(Ordering::SeqCst) {
        resp.with_header("X-Mass-Degraded", "true".into())
    } else {
        resp
    }
}

fn route(req: &Request, shared: &Shared) -> Response {
    // Chaos hook: `?debug-sleep-ms=N` stalls the handler inside its span,
    // so tests can inject a provably-slow request and find it (with this
    // extra span) in `/debug/requests`.
    if shared.config.enable_test_hooks {
        if let Some(ms) = req
            .query_param("debug-sleep-ms")
            .and_then(|s| s.parse::<u64>().ok())
        {
            let _hook = mass_obs::span_with("serve.debug_sleep", vec![field("ms", ms)]);
            std::thread::sleep(Duration::from_millis(ms.min(2_000)));
        }
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/readyz") => readyz(shared),
        ("GET", "/metrics") => metrics_scrape(shared),
        ("GET", "/debug/requests") => debug_requests(req, shared),
        ("GET", "/debug/slo") => debug_slo(shared),
        ("GET", "/topk") => topk(req, shared),
        ("POST", "/match") => match_ad(req, shared),
        ("POST", "/edits") => edits(req, shared),
        ("POST", "/admin/shutdown") => admin_shutdown(shared),
        ("POST", "/admin/inject-fault") if shared.config.enable_test_hooks => {
            admin_inject_fault(req, shared)
        }
        // Right path, wrong verb: say which verb works.
        ("POST", "/topk")
        | ("POST", "/healthz")
        | ("POST", "/readyz")
        | ("POST", "/metrics")
        | ("POST", "/debug/requests")
        | ("POST", "/debug/slo") => {
            Response::error(405, "use_get").with_header("Allow", "GET".into())
        }
        ("GET", "/match") | ("GET", "/edits") | ("GET", "/admin/shutdown") => {
            Response::error(405, "use_post").with_header("Allow", "POST".into())
        }
        _ => Response::error(404, "unknown_path"),
    }
}

/// `GET /metrics`: Prometheus text exposition v0.0.4 off the live plane.
/// Point-in-time gauges are refreshed from the shared atomics first; the
/// render itself touches only the plane's own snapshots — never the
/// query path's snapshot lock beyond one epoch read.
fn metrics_scrape(shared: &Shared) -> Response {
    let plane = &shared.plane;
    plane.stale_ms.set(shared.stale_ms() as i64);
    plane
        .pending_batches
        .set(shared.pending_batches.load(Ordering::SeqCst) as i64);
    plane
        .degraded
        .set(shared.degraded.load(Ordering::SeqCst) as i64);
    Response {
        status: 200,
        headers: vec![(
            "Content-Type".into(),
            "text/plain; version=0.0.4; charset=utf-8".into(),
        )],
        body: plane.render_prometheus().into_bytes(),
    }
}

/// `GET /debug/requests`: the flight-recorder dump (most recent and
/// slowest sampled traces with per-span timings). `?recent=N&slowest=N`
/// bound the lists.
fn debug_requests(req: &Request, shared: &Shared) -> Response {
    let bound = |key: &str, default: usize| {
        req.query_param(key)
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(default)
            .min(64)
    };
    Response::json(
        200,
        shared
            .plane
            .recorder
            .to_json(bound("recent", 8), bound("slowest", 8)),
    )
}

/// `GET /debug/slo`: one JSON page answering "are we inside our
/// objectives right now" — epoch/staleness, backlog, shed, the rolling
/// window's latency quantiles, and error-budget burn.
fn debug_slo(shared: &Shared) -> Response {
    let plane = &shared.plane;
    let stats = plane.window_stats();
    let window_secs = plane.window_secs();
    let snap = shared.snapshot();
    let quantile_ms = |q: Option<f64>| match q {
        Some(us) => Json::Num(us / 1_000.0),
        None => Json::Null,
    };
    let body = Json::Obj(vec![
        ("epoch".into(), Json::from(snap.epoch())),
        ("stale_ms".into(), Json::from(shared.stale_ms())),
        (
            "degraded".into(),
            Json::from(shared.degraded.load(Ordering::SeqCst)),
        ),
        (
            "draining".into(),
            Json::from(shared.draining.load(Ordering::SeqCst)),
        ),
        (
            "queue_depth".into(),
            Json::from(plane.queue_depth.get().max(0) as u64),
        ),
        (
            "pending_batches".into(),
            Json::from(shared.pending_batches.load(Ordering::SeqCst) as u64),
        ),
        (
            "shed".into(),
            Json::from(shared.shed.load(Ordering::SeqCst)),
        ),
        (
            "refresh_failures".into(),
            Json::from(shared.refresh_failures.load(Ordering::SeqCst)),
        ),
        ("window_secs".into(), Json::from(window_secs)),
        (
            "window".into(),
            Json::Obj(vec![
                ("requests".into(), Json::from(stats.requests)),
                ("errors".into(), Json::from(stats.errors)),
                (
                    "qps".into(),
                    Json::Num(stats.requests as f64 / window_secs as f64),
                ),
                ("p50_ms".into(), quantile_ms(stats.p50_us)),
                ("p99_ms".into(), quantile_ms(stats.p99_us)),
                (
                    "error_budget_burn".into(),
                    Json::Num(plane.error_budget_burn(&stats)),
                ),
            ]),
        ),
    ]);
    Response::json(200, body)
}

fn healthz(shared: &Shared) -> Response {
    let degraded = shared.degraded.load(Ordering::SeqCst);
    let snap = shared.snapshot();
    let body = Json::Obj(vec![
        (
            "status".into(),
            Json::Str(if degraded { "degraded" } else { "ok" }.into()),
        ),
        ("epoch".into(), Json::from(snap.epoch())),
        ("stale_ms".into(), Json::from(shared.stale_ms())),
        (
            "pending_batches".into(),
            Json::from(shared.pending_batches.load(Ordering::SeqCst) as u64),
        ),
        (
            "refresh_failures".into(),
            Json::from(shared.refresh_failures.load(Ordering::SeqCst)),
        ),
        (
            "draining".into(),
            Json::from(shared.draining.load(Ordering::SeqCst)),
        ),
    ]);
    Response::json(if degraded { 503 } else { 200 }, body)
}

fn readyz(shared: &Shared) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        Response::error(503, "draining")
    } else {
        Response::json(200, Json::Obj(vec![("ready".into(), Json::from(true))]))
    }
}

fn ranking_json(snap: &ServingSnapshot, list: &[(mass_types::BloggerId, f64)]) -> Json {
    Json::Arr(
        list.iter()
            .enumerate()
            .map(|(rank, (id, score))| {
                Json::Obj(vec![
                    ("rank".into(), Json::from(rank as u64 + 1)),
                    ("blogger".into(), Json::from(id.index() as u64)),
                    (
                        "name".into(),
                        Json::Str(snap.blogger_name(*id).unwrap_or("?").into()),
                    ),
                    ("score".into(), Json::Num(*score)),
                ])
            })
            .collect(),
    )
}

fn topk(req: &Request, shared: &Shared) -> Response {
    let snap = shared.snapshot();
    let k = match req.query_param("k").map(str::parse::<usize>) {
        None => 10,
        Some(Ok(k)) if k > 0 => k,
        _ => return stamp(Response::error(400, "bad_k"), &snap, shared),
    };
    let domain = match req.query_param("domain") {
        None => None,
        Some(name) => match snap.domain_id(name) {
            Some(d) => Some(d),
            None => return stamp(Response::error(404, "unknown_domain"), &snap, shared),
        },
    };
    // `?as_of=T` pins the caller's expected horizon: 400 when the engine
    // has no temporal facet, 409 when the published snapshot sits at a
    // different horizon (the caller races a pending `advance_to`; the
    // `X-Mass-As-Of` header says where the snapshot actually is).
    if let Some(raw) = req.query_param("as_of") {
        let Ok(want) = raw.parse::<u64>() else {
            return stamp(Response::error(400, "bad_as_of"), &snap, shared);
        };
        match snap.as_of() {
            None => return stamp(Response::error(400, "not_temporal"), &snap, shared),
            Some(cur) if cur != want => {
                return stamp(
                    Response::error(409, "horizon_mismatch")
                        .with_header("X-Mass-As-Of", cur.to_string()),
                    &snap,
                    shared,
                )
            }
            Some(_) => {}
        }
    }
    let list = snap
        .top_k(domain, k)
        .expect("domain id resolved from this snapshot");
    let mut fields = vec![("epoch".into(), Json::from(snap.epoch()))];
    if let Some(t) = snap.as_of() {
        fields.push(("as_of".into(), Json::from(t)));
    }
    fields.extend([
        (
            "domain".into(),
            match domain {
                Some(d) => Json::Str(snap.domain_name(d).unwrap_or("?").into()),
                None => Json::Null,
            },
        ),
        ("k".into(), Json::from(list.len() as u64)),
        ("ranking".into(), ranking_json(&snap, list)),
    ]);
    stamp(Response::json(200, Json::Obj(fields)), &snap, shared)
}

fn match_ad(req: &Request, shared: &Shared) -> Response {
    let snap = shared.snapshot();
    let k = match req.query_param("k").map(str::parse::<usize>) {
        None => 3,
        Some(Ok(k)) if k > 0 => k,
        _ => return stamp(Response::error(400, "bad_k"), &snap, shared),
    };
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) if !t.trim().is_empty() => t.trim().to_string(),
        _ => {
            return stamp(
                Response::error(400, "empty_or_non_utf8_ad_text"),
                &snap,
                shared,
            )
        }
    };
    // The classifier is frozen for the process lifetime, so the mined
    // vector is epoch-independent and safe to cache across refreshes.
    let interest = match shared
        .cache
        .get_or_mine(&text, || snap.mine_interest(&text))
    {
        Some(v) => v,
        None => return stamp(Response::error(422, "no_classifier"), &snap, shared),
    };
    let ranked = snap.match_interest(&interest, k);
    let mined = snap.salient_domains(&text, 1.5).unwrap_or_default();
    let body = Json::Obj(vec![
        ("epoch".into(), Json::from(snap.epoch())),
        ("k".into(), Json::from(ranked.len() as u64)),
        (
            "domains".into(),
            Json::Arr(
                mined
                    .iter()
                    .map(|(d, w)| {
                        Json::Obj(vec![
                            (
                                "domain".into(),
                                Json::Str(snap.domain_name(*d).unwrap_or("?").into()),
                            ),
                            ("weight".into(), Json::Num(*w)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("ranking".into(), ranking_json(&snap, &ranked)),
    ]);
    stamp(Response::json(200, body), &snap, shared)
}

/// Parses the `/edits` body: `{"storm": N, "seed": S}`,
/// `{"edits": [{"op": ...}, ...]}`, or `{"advance_to": T}`.
fn parse_edit_batch(body: &str, snap: &ServingSnapshot) -> Result<(EditBatch, usize), String> {
    let json = mass_obs::json::parse(body).map_err(|e| format!("bad_json: {e}"))?;
    if let Some(tick) = json.get("advance_to") {
        if snap.as_of().is_none() {
            return Err("engine is not temporal; start it with temporal params".into());
        }
        let to = tick
            .as_u64()
            .ok_or("advance_to must be a non-negative integer tick")?;
        return Ok((EditBatch::Advance { to }, 1));
    }
    if let Some(storm) = json.get("storm") {
        let edits = storm
            .as_u64()
            .filter(|&n| (1..=10_000).contains(&n))
            .ok_or("storm must be 1..=10000")? as usize;
        let seed = json.get("seed").and_then(Json::as_u64).unwrap_or(0);
        return Ok((EditBatch::Storm { edits, seed }, edits));
    }
    let edits = json
        .get("edits")
        .and_then(Json::as_arr)
        .ok_or("need \"storm\" or \"edits\"")?;
    if edits.is_empty() || edits.len() > 10_000 {
        return Err("edits must be 1..=10000".into());
    }
    let script = edits
        .iter()
        .map(|e| parse_edit(e, snap))
        .collect::<Result<Vec<_>, _>>()?;
    let n = script.len();
    Ok((EditBatch::Script(script), n))
}

fn parse_edit(e: &Json, snap: &ServingSnapshot) -> Result<ScriptedEdit, String> {
    let op = e.get("op").and_then(Json::as_str).ok_or("edit needs op")?;
    let get_u32 = |key: &str| -> Result<u32, String> {
        e.get(key)
            .and_then(Json::as_u64)
            .filter(|&v| v <= u32::MAX as u64)
            .map(|v| v as u32)
            .ok_or(format!("{op} needs numeric {key}"))
    };
    let get_str = |key: &str, default: &str| -> String {
        e.get(key)
            .and_then(Json::as_str)
            .unwrap_or(default)
            .to_string()
    };
    match op {
        "add_blogger" => Ok(ScriptedEdit::AddBlogger {
            name: get_str("name", "anon"),
        }),
        "add_friend_link" => Ok(ScriptedEdit::AddFriendLink {
            from: get_u32("from")?,
            to: get_u32("to")?,
        }),
        "add_post" => {
            let domain = match e.get("domain") {
                None | Some(Json::Null) => None,
                Some(Json::Str(name)) => Some(
                    snap.domain_id(name)
                        .ok_or(format!("unknown domain {name:?}"))?
                        .index() as u32,
                ),
                Some(v) => Some(
                    v.as_u64()
                        .filter(|&d| (d as usize) < snap.domains())
                        .ok_or("bad domain")? as u32,
                ),
            };
            Ok(ScriptedEdit::AddPost {
                author: get_u32("author")?,
                title: get_str("title", "untitled"),
                text: get_str("text", ""),
                domain,
            })
        }
        "add_comment" => {
            let sentiment = match e.get("sentiment").and_then(Json::as_str) {
                None => None,
                Some("positive") => Some(Sentiment::Positive),
                Some("negative") => Some(Sentiment::Negative),
                Some("neutral") => Some(Sentiment::Neutral),
                Some(other) => return Err(format!("unknown sentiment {other:?}")),
            };
            Ok(ScriptedEdit::AddComment {
                post: get_u32("post")?,
                commenter: get_u32("commenter")?,
                text: get_str("text", ""),
                sentiment,
            })
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

fn edits(req: &Request, shared: &Shared) -> Response {
    let snap = shared.snapshot();
    if shared.draining.load(Ordering::SeqCst) {
        return stamp(Response::error(503, "draining"), &snap, shared);
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return stamp(Response::error(400, "non_utf8_body"), &snap, shared),
    };
    let (batch, batch_edits) = match parse_edit_batch(body, &snap) {
        Ok(v) => v,
        Err(why) => return stamp(Response::error(400, &why), &snap, shared),
    };
    // Admission control for the write path: bound the unapplied backlog.
    let pending = shared.pending_batches.load(Ordering::SeqCst);
    if pending >= shared.config.max_pending_batches {
        shared.shed.fetch_add(1, Ordering::SeqCst);
        mass_obs::counter("serve.shed").inc();
        shared.plane.shed.inc();
        return stamp(
            Response::error(503, "edit_backlog")
                .with_header("Retry-After", shared.config.retry_after_secs.to_string()),
            &snap,
            shared,
        );
    }
    // Stamp the batch with this request's trace id: the refresh it
    // triggers records its spans under the same id.
    let trace = mass_obs::current_trace();
    let sent = match shared.edits_tx.lock().unwrap().as_ref() {
        Some(tx) => tx.send((trace, batch)).is_ok(),
        None => false,
    };
    if !sent {
        return stamp(Response::error(503, "draining"), &snap, shared);
    }
    shared.pending_batches.fetch_add(1, Ordering::SeqCst);
    mass_obs::counter("serve.edit_batches").inc();
    shared.plane.edit_batches.inc();
    let body = Json::Obj(vec![
        ("accepted".into(), Json::from(true)),
        ("batch_edits".into(), Json::from(batch_edits as u64)),
        (
            "pending_batches".into(),
            Json::from(shared.pending_batches.load(Ordering::SeqCst) as u64),
        ),
        ("epoch".into(), Json::from(snap.epoch())),
    ]);
    stamp(Response::json(202, body), &snap, shared)
}

fn admin_shutdown(shared: &Shared) -> Response {
    // The worker can't join threads (it *is* one); it flips the drain flag
    // and wakes the accept loop. `ServerHandle::wait` observes the drain.
    mass_obs::info("serve.shutdown_requested", &[]);
    initiate_drain(shared, shared.addr);
    Response::json(202, Json::Obj(vec![("draining".into(), Json::from(true))]))
}

fn admin_inject_fault(req: &Request, shared: &Shared) -> Response {
    let point = match std::str::from_utf8(&req.body).map(str::trim) {
        Ok("") | Ok("during_solve") => RefreshFault::DuringSolve,
        Ok("after_csr") => RefreshFault::AfterCsr,
        Ok("after_gl") => RefreshFault::AfterGl,
        Ok("before_commit") => RefreshFault::BeforeCommit,
        _ => return Response::error(400, "unknown_fault_point"),
    };
    *shared.armed_fault.lock().unwrap() = Some(point);
    mass_obs::warn("serve.fault_armed", &[field("point", format!("{point:?}"))]);
    Response::json(
        202,
        Json::Obj(vec![("armed".into(), Json::Str(format!("{point:?}")))]),
    )
}

/// Pre-validates a script against the engine's current shape so a bad
/// batch is rejected wholesale instead of panicking the writer mid-apply.
fn validate_script(engine: &IncrementalMass, script: &[ScriptedEdit]) -> Result<(), String> {
    let ds = engine.dataset();
    let mut bloggers = ds.bloggers.len() as u32;
    let mut authors: Vec<u32> = ds.posts.iter().map(|p| p.author.index() as u32).collect();
    let domains = ds.domains.len() as u32;
    for (i, edit) in script.iter().enumerate() {
        let fail = |why: &str| Err(format!("edit {i}: {why}"));
        match edit {
            ScriptedEdit::AddBlogger { .. } => bloggers += 1,
            ScriptedEdit::AddFriendLink { from, to } => {
                if *from >= bloggers || *to >= bloggers {
                    return fail("friend link out of range");
                }
            }
            ScriptedEdit::AddPost { author, domain, .. } => {
                if *author >= bloggers {
                    return fail("author out of range");
                }
                if domain.is_some_and(|d| d >= domains) {
                    return fail("domain out of range");
                }
                authors.push(*author);
            }
            ScriptedEdit::AddComment {
                post, commenter, ..
            } => {
                let Some(&author) = authors.get(*post as usize) else {
                    return fail("post out of range");
                };
                if *commenter >= bloggers {
                    return fail("commenter out of range");
                }
                if *commenter == author {
                    return fail("self-comment");
                }
            }
        }
    }
    Ok(())
}

fn writer_loop(
    mut engine: IncrementalMass,
    rx: Receiver<(TraceId, EditBatch)>,
    shared: Arc<Shared>,
) {
    while let Ok(first) = rx.recv() {
        // Coalesce whatever else is queued: one refresh absorbs them all.
        let mut batches = vec![first];
        while let Ok(b) = rx.try_recv() {
            batches.push(b);
        }
        // A coalesced refresh serves many requests; attribute it to the
        // first traced one so /debug/requests can link request → refresh.
        let trace = batches
            .iter()
            .map(|(t, _)| *t)
            .find(|t| t.is_set())
            .unwrap_or(TraceId::NONE);
        // A window advance must republish even when no weight changed bits
        // (the snapshot's horizon moved, so `?as_of=` validation needs a
        // fresh capture) — the flag defeats the empty-refresh skip below.
        let mut advanced = false;
        for (_, batch) in batches {
            shared.pending_batches.fetch_sub(1, Ordering::SeqCst);
            let script = match batch {
                EditBatch::Script(script) => script,
                EditBatch::Advance { to } => {
                    match engine.advance_to(to) {
                        Ok(stats) => {
                            advanced = true;
                            mass_obs::counter("serve.window_advances").inc();
                            mass_obs::info(
                                "serve.window_advanced",
                                &[
                                    field("from", stats.from),
                                    field("to", stats.to),
                                    field("posts_decayed", stats.posts_affected as u64),
                                    field("comments_decayed", stats.comments_affected as u64),
                                ],
                            );
                        }
                        Err(why) => {
                            mass_obs::counter("serve.edits_rejected").inc();
                            mass_obs::warn(
                                "serve.advance_rejected",
                                &[field("why", why.to_string())],
                            );
                        }
                    }
                    continue;
                }
                EditBatch::Storm { edits, seed } => {
                    let ds = engine.dataset();
                    if ds.bloggers.len() < 2 || ds.posts.is_empty() {
                        mass_obs::counter("serve.edits_rejected").add(edits as u64);
                        mass_obs::warn("serve.storm_rejected", &[field("why", "corpus too small")]);
                        continue;
                    }
                    scripted_storm(ds, edits, seed, StormMix::Mixed)
                }
            };
            match validate_script(&engine, &script) {
                Ok(()) => apply_to_incremental(&mut engine, &script),
                Err(why) => {
                    mass_obs::counter("serve.edits_rejected").add(script.len() as u64);
                    mass_obs::warn("serve.batch_rejected", &[field("why", why)]);
                }
            }
        }
        if engine.pending_edits() == 0 && !advanced {
            continue;
        }
        if let Some(point) = shared.armed_fault.lock().unwrap().take() {
            engine.inject_refresh_fault(point);
        }
        // Run the refresh under the submitting request's trace id and
        // capture its span tree (`incremental.refresh` and children), so
        // the flight recorder links the edit request to the work it
        // caused. Refresh traces bypass tail sampling — they are rare
        // and always worth keeping.
        let _trace_scope = mass_obs::trace_scope(trace);
        let capturing = shared.plane.recorder.is_enabled();
        if capturing {
            mass_obs::begin_capture();
        }
        let t0 = Instant::now();
        let mode = shared.config.refresh_mode;
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.refresh_with(mode)));
        let refresh_us = t0.elapsed().as_micros() as u64;
        mass_obs::histogram("serve.refresh_us").record(refresh_us as f64);
        shared.plane.observe_refresh(outcome.is_ok(), refresh_us);
        if capturing {
            let spans = mass_obs::end_capture();
            // `error: true` forces keep — the offered/kept counters stay
            // consistent while refresh traces always survive sampling.
            if shared.plane.recorder.should_keep(0, true, refresh_us) {
                shared.plane.recorder.record(CompletedTrace {
                    trace,
                    name: "incremental.refresh".into(),
                    status: 0,
                    error: outcome.is_err(),
                    total_us: refresh_us,
                    spans,
                });
            }
        }
        match outcome {
            Ok(stats) => {
                mass_obs::counter("serve.refreshes").inc();
                let snap = Arc::new(ServingSnapshot::capture(&engine, shared.config.topk_cap));
                shared.publish(snap);
                mass_obs::info(
                    "serve.published",
                    &[
                        field("epoch", stats.epoch),
                        field("edits", stats.edits_applied as u64),
                        field("sweeps", stats.sweeps as u64),
                    ],
                );
            }
            Err(_) => {
                // Quarantine: the transactional refresh left the engine on
                // the last-good epoch with the edits still pending; keep
                // serving the last-good snapshot and flip /healthz. The
                // next successful batch retries everything.
                shared.degraded.store(true, Ordering::SeqCst);
                shared.refresh_failures.fetch_add(1, Ordering::SeqCst);
                mass_obs::counter("serve.refresh_failures").inc();
                mass_obs::warn(
                    "serve.refresh_quarantined",
                    &[field("epoch", engine.epoch())],
                );
            }
        }
    }
}

/// Resolves a domain name or id string against a snapshot — shared by the
/// CLI so `--domain sports` works the same offline and online.
pub fn resolve_domain(snap: &ServingSnapshot, name: &str) -> Option<DomainId> {
    snap.domain_id(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mass_core::MassParams;
    use mass_synth::{generate, SynthConfig};

    fn tiny_engine() -> IncrementalMass {
        let out = generate(&SynthConfig::tiny(5));
        IncrementalMass::new(out.dataset, MassParams::paper())
    }

    #[test]
    fn starts_serves_and_shuts_down() {
        let handle = start(
            tiny_engine(),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr().to_string();
        let reply = crate::client::get(&addr, "/topk?k=3", Duration::from_secs(5)).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("x-mass-epoch"), Some("0"));
        let report = handle.shutdown();
        assert_eq!(report.requests, 1);
        assert_eq!(report.shed, 0);
    }

    #[test]
    fn validate_script_rejects_out_of_range() {
        let engine = tiny_engine();
        let nb = engine.dataset().bloggers.len() as u32;
        assert!(
            validate_script(&engine, &[ScriptedEdit::AddFriendLink { from: 0, to: nb }]).is_err()
        );
        assert!(validate_script(
            &engine,
            &[
                ScriptedEdit::AddBlogger { name: "n".into() },
                ScriptedEdit::AddFriendLink { from: 0, to: nb },
            ]
        )
        .is_ok());
        assert!(validate_script(
            &engine,
            &[ScriptedEdit::AddComment {
                post: 999_999,
                commenter: 0,
                text: "x".into(),
                sentiment: None
            }]
        )
        .is_err());
        // Self-comments are rejected before they can panic the engine.
        let author = engine.dataset().posts[0].author.index() as u32;
        assert!(validate_script(
            &engine,
            &[ScriptedEdit::AddComment {
                post: 0,
                commenter: author,
                text: "x".into(),
                sentiment: None
            }]
        )
        .is_err());
    }

    #[test]
    fn edit_batch_parser_accepts_both_shapes() {
        let engine = tiny_engine();
        let snap = ServingSnapshot::capture(&engine, 10);
        let (batch, n) = parse_edit_batch(r#"{"storm": 5, "seed": 9}"#, &snap).unwrap();
        assert!(matches!(batch, EditBatch::Storm { edits: 5, seed: 9 }));
        assert_eq!(n, 5);
        let (batch, n) = parse_edit_batch(
            r#"{"edits": [
                {"op": "add_blogger", "name": "newbie"},
                {"op": "add_friend_link", "from": 0, "to": 1},
                {"op": "add_post", "author": 0, "title": "t", "text": "words", "domain": "Sports"},
                {"op": "add_comment", "post": 0, "commenter": 1, "text": "hi", "sentiment": "positive"}
            ]}"#,
            &snap,
        )
        .unwrap();
        assert_eq!(n, 4);
        match batch {
            EditBatch::Script(script) => {
                assert!(matches!(
                    &script[2],
                    ScriptedEdit::AddPost {
                        domain: Some(6),
                        ..
                    }
                ));
            }
            _ => panic!("expected a script"),
        }
    }

    #[test]
    fn metrics_endpoint_serves_valid_exposition() {
        let handle = start(
            tiny_engine(),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr().to_string();
        let t = Duration::from_secs(5);
        let reply = crate::client::get(&addr, "/topk?k=2", t).unwrap();
        assert_eq!(reply.status, 200);
        assert!(
            reply.header("x-mass-trace").is_some(),
            "every response carries its trace id"
        );
        let scrape = crate::client::get(&addr, "/metrics", t).unwrap();
        assert_eq!(scrape.status, 200);
        assert!(scrape
            .header("content-type")
            .unwrap()
            .contains("version=0.0.4"));
        let report = mass_obs::prometheus::validate(&scrape.body).expect("valid exposition");
        for family in [
            "serve_requests",
            "serve_request_us",
            "serve_epoch",
            "serve_queue_depth",
            "serve_window_requests",
            "serve_flight_sampled",
        ] {
            assert!(report.families.contains_key(family), "missing {family}");
        }
        assert!(
            scrape
                .body
                .contains("serve_request_us_bucket{window=\"60s\""),
            "window-labelled histogram missing"
        );
        handle.shutdown();
    }

    #[test]
    fn slo_page_reports_window_quantiles() {
        let handle = start(tiny_engine(), ServeConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let t = Duration::from_secs(5);
        for _ in 0..3 {
            crate::client::get(&addr, "/topk?k=2", t).unwrap();
        }
        let reply = crate::client::get(&addr, "/debug/slo", t).unwrap();
        assert_eq!(reply.status, 200);
        let doc = mass_obs::json::parse(&reply.body).unwrap();
        assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(0));
        let window = doc.get("window").unwrap();
        assert!(window.get("requests").and_then(Json::as_u64).unwrap() >= 3);
        assert!(window.get("p99_ms").unwrap().as_f64().is_some());
        assert_eq!(
            window.get("error_budget_burn").and_then(Json::as_f64),
            Some(0.0)
        );
        handle.shutdown();
    }

    #[test]
    fn slow_edit_request_links_to_its_refresh_in_flight_recorder() {
        let mut config = ServeConfig {
            workers: 2,
            enable_test_hooks: true,
            ..ServeConfig::default()
        };
        config.telemetry.sample_slow_ms = 20;
        config.telemetry.trace_seed = 42;
        let handle = start(tiny_engine(), config).unwrap();
        let addr = handle.addr().to_string();
        let t = Duration::from_secs(5);
        // A provably slow request (debug sleep > slow threshold) that also
        // submits an edit batch, so it triggers a refresh.
        let reply = crate::client::post(
            &addr,
            "/edits?debug-sleep-ms=40",
            br#"{"edits": [{"op": "add_blogger", "name": "traced"}]}"#,
            t,
        )
        .unwrap();
        assert_eq!(reply.status, 202, "{}", reply.body);
        let trace = reply.header("x-mass-trace").unwrap().to_string();
        assert_ne!(trace, "0000000000000000");
        // Poll until the refresh trace shows up in the recorder.
        let mut linked = false;
        let mut saw_request = false;
        for _ in 0..250 {
            std::thread::sleep(Duration::from_millis(20));
            let dump = crate::client::get(&addr, "/debug/requests", t).unwrap();
            let doc = mass_obs::json::parse(&dump.body).unwrap();
            let recent = doc.get("recent").and_then(Json::as_arr).unwrap();
            let by_trace = |name: &str| {
                recent.iter().any(|e| {
                    e.get("trace").and_then(Json::as_str) == Some(trace.as_str())
                        && e.get("name").and_then(Json::as_str) == Some(name)
                })
            };
            saw_request = by_trace("POST /edits");
            linked = by_trace("incremental.refresh");
            if linked && saw_request {
                break;
            }
        }
        assert!(saw_request, "slow request sampled under its trace id");
        assert!(linked, "refresh trace carries the submitting request's id");
        // The sampled request trace includes the injected sleep span.
        let dump = crate::client::get(&addr, "/debug/requests", t).unwrap();
        let doc = mass_obs::json::parse(&dump.body).unwrap();
        let recent = doc.get("recent").and_then(Json::as_arr).unwrap();
        let req_trace = recent
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("POST /edits"))
            .unwrap();
        let spans = req_trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some("serve.debug_sleep")));
        assert!(spans
            .iter()
            .all(|s| s.get("trace").and_then(Json::as_str) == Some(trace.as_str())));
        handle.shutdown();
    }

    fn temporal_engine() -> IncrementalMass {
        use mass_core::{DecayParams, MassParams, TemporalParams};
        let out = generate(&SynthConfig {
            bloggers: 30,
            mean_posts_per_blogger: 2.0,
            mean_comments_top: 8.0,
            time_span: 1000,
            planted_fading: 2,
            planted_rising: 2,
            seed: 5,
            ..Default::default()
        });
        IncrementalMass::new(
            out.dataset,
            MassParams {
                temporal: Some(TemporalParams {
                    as_of: 0,
                    decay: DecayParams::Exponential { half_life: 200.0 },
                }),
                ..MassParams::paper()
            },
        )
    }

    #[test]
    fn edit_batch_parser_accepts_window_advance() {
        let snap = ServingSnapshot::capture(&temporal_engine(), 10);
        let (batch, n) = parse_edit_batch(r#"{"advance_to": 500}"#, &snap).unwrap();
        assert!(matches!(batch, EditBatch::Advance { to: 500 }));
        assert_eq!(n, 1);
        assert!(parse_edit_batch(r#"{"advance_to": "soon"}"#, &snap).is_err());
        // A timeless engine has no horizon to advance.
        let timeless = ServingSnapshot::capture(&tiny_engine(), 10);
        assert!(parse_edit_batch(r#"{"advance_to": 5}"#, &timeless).is_err());
    }

    #[test]
    fn topk_as_of_validates_against_the_published_horizon() {
        let handle = start(
            temporal_engine(),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr().to_string();
        let t = Duration::from_secs(5);

        // Matching horizon: 200, with the horizon echoed in the body.
        let ok = crate::client::get(&addr, "/topk?k=3&as_of=0", t).unwrap();
        assert_eq!(ok.status, 200, "{}", ok.body);
        let doc = mass_obs::json::parse(&ok.body).unwrap();
        assert_eq!(doc.get("as_of").and_then(Json::as_u64), Some(0));

        // Mismatched horizon: 409 and the actual horizon in a header.
        let conflict = crate::client::get(&addr, "/topk?as_of=999", t).unwrap();
        assert_eq!(conflict.status, 409);
        assert_eq!(conflict.header("x-mass-as-of"), Some("0"));
        let bad = crate::client::get(&addr, "/topk?as_of=later", t).unwrap();
        assert_eq!(bad.status, 400);

        // Advance the window through /edits; the writer refreshes and
        // publishes a snapshot at the new horizon.
        let accepted = crate::client::post(&addr, "/edits", br#"{"advance_to": 500}"#, t).unwrap();
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let mut served = None;
        for _ in 0..250 {
            std::thread::sleep(Duration::from_millis(20));
            let r = crate::client::get(&addr, "/topk?k=3&as_of=500", t).unwrap();
            if r.status == 200 {
                served = Some(r);
                break;
            }
        }
        let served = served.expect("advance publishes within the poll budget");
        let doc = mass_obs::json::parse(&served.body).unwrap();
        assert_eq!(doc.get("as_of").and_then(Json::as_u64), Some(500));
        handle.shutdown();
    }

    #[test]
    fn as_of_on_a_timeless_engine_is_a_client_error() {
        let handle = start(tiny_engine(), ServeConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let reply = crate::client::get(&addr, "/topk?as_of=5", Duration::from_secs(5)).unwrap();
        assert_eq!(reply.status, 400);
        assert!(reply.body.contains("not_temporal"), "{}", reply.body);
        handle.shutdown();
    }

    #[test]
    fn edit_batch_parser_rejects_garbage() {
        let engine = tiny_engine();
        let snap = ServingSnapshot::capture(&engine, 10);
        for bad in [
            "not json",
            "{}",
            r#"{"storm": 0}"#,
            r#"{"storm": 99999999}"#,
            r#"{"edits": []}"#,
            r#"{"edits": [{"op": "drop_tables"}]}"#,
            r#"{"edits": [{"op": "add_post", "author": 0, "domain": "Cooking"}]}"#,
            r#"{"edits": [{"op": "add_comment", "post": 0, "commenter": 1, "sentiment": "angry"}]}"#,
        ] {
            assert!(parse_edit_batch(bad, &snap).is_err(), "{bad}");
        }
    }
}
