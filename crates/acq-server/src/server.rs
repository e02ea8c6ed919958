//! The server: accept loop, per-connection read batching, admission control.
//!
//! Topology (see `ARCHITECTURE.md`, "Serving layer", for the full diagram):
//!
//! * **Accept loop** — [`ServerConfig::accept_threads`] threads (default one
//!   per core) share one `TcpListener` and spawn a reader + worker thread
//!   pair per connection.
//! * **Read path** — the reader decodes frames and pushes `Query` requests
//!   into a bounded per-connection queue; the worker drains whatever has
//!   accumulated and hands it to `Executor::execute_batch` as **one**
//!   batch, so a bursty client is automatically batched against a single
//!   generation snapshot. Responses are written in request order.
//! * **Write path** — `Update` frames are forwarded to the single
//!   transactor thread; readers never apply deltas.
//! * **Admission control** — three bounds, each answered with a
//!   `backpressure`/`oversize-frame` error instead of an unbounded queue:
//!   the frame-size bound, the per-connection queue bound, and the global
//!   in-flight query bound.

use crate::admission::{split_expired, InFlightGauge, PendingQuery};
use crate::frame::{
    codes, error_payload, read_frame, retry_error_frame, write_frame, Frame, FrameError, FrameKind,
    QueryEnvelope, UpdateEnvelope, DEFAULT_MAX_FRAME_LEN,
};
use crate::metrics::{cache_counters, durability_counters, shard_counters, ServerMetrics};
use crate::transactor::{last_update_counters, ReplySink, Transactor, WriteApply, WriteJob};
use acq_core::{Request, ServingEngine, UpdateReport};
use acq_durable::{DurableEngine, WriteToken};
use acq_graph::GraphDelta;
use acq_metrics::serving::MetricsSnapshot;
use acq_sync::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use acq_sync::sync::mpsc::Sender;
use acq_sync::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use acq_sync::thread::JoinHandle;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Locks a mutex, proceeding with the data even when a peer thread panicked
/// while holding it. Every structure guarded this way (the connection
/// registries, the per-connection queue, the shared writer) tolerates a torn
/// peer update, and shutdown in particular must still be able to close
/// sockets and join threads after a worker died.
fn lock_tolerant<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs of a [`Server`]. All bounds are admission control: when one
/// is hit the server answers with an error frame instead of queueing without
/// limit (see `docs/OPERATIONS.md` for guidance on setting them).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Accept-loop threads sharing the listener; `0` (default) means one per
    /// available core.
    pub accept_threads: usize,
    /// Largest accepted frame (length-prefix bound) in bytes. Oversize
    /// frames are rejected before their payload is read and the connection
    /// is closed (framing is lost).
    pub max_frame_len: u32,
    /// Global bound on queries admitted to `execute_batch` across all
    /// connections; excess queries receive a `backpressure` error.
    pub max_in_flight: usize,
    /// Per-connection bound on decoded-but-not-yet-executed queries; when
    /// full, further queries receive a `backpressure` error immediately.
    pub queue_capacity: usize,
    /// Socket read timeout in milliseconds (`0` disables). A connection that
    /// sends nothing for this long is reaped — the slow-loris defense; each
    /// reap bumps `acq_timeouts`.
    pub read_timeout_ms: u64,
    /// Socket write timeout in milliseconds (`0` disables). Bounds how long
    /// a reply can block on a client that stopped reading.
    pub write_timeout_ms: u64,
    /// How long shutdown waits for in-flight queries and queued writes to
    /// drain before force-closing connections, in milliseconds.
    pub drain_timeout_ms: u64,
    /// Idempotency tokens remembered by the transactor (`0` disables dedup).
    /// A retried update whose token is still in the window replays its
    /// cached `UpdateOk` instead of re-applying.
    pub dedup_window: usize,
    /// The `retry_after_ms` hint attached to `backpressure` and
    /// `shutting-down` error frames, telling well-behaved clients how long
    /// to back off before retrying.
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            accept_threads: 0,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_in_flight: 1024,
            queue_capacity: 256,
            read_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            drain_timeout_ms: 1_000,
            dedup_window: 1024,
            retry_after_ms: 50,
        }
    }
}

/// The serving front-end. [`Server::bind`] starts the accept loop and the
/// transactor and returns a [`ServerHandle`] for introspection and shutdown.
///
/// ```no_run
/// use acq_core::Engine;
/// use acq_server::{Server, ServerConfig};
/// use std::sync::Arc;
///
/// let engine = Arc::new(Engine::new(Arc::new(acq_graph::paper_figure3_graph())));
/// let handle = Server::bind("127.0.0.1:7878", engine, ServerConfig::default()).unwrap();
/// println!("listening on {}", handle.local_addr());
/// # handle.shutdown();
/// ```
#[derive(Debug)]
pub struct Server;

/// Shared state every server thread hangs off.
struct Shared {
    engine: Arc<dyn ServingEngine>,
    /// Set on durable servers; the transactor writes through it, and the
    /// `Metrics` frame reports its counters.
    durable: Option<Arc<DurableEngine>>,
    metrics: Arc<ServerMetrics>,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// Bounded count of queries currently inside `execute_batch`, across all
    /// connections.
    in_flight: InFlightGauge,
    last_update: Arc<Mutex<Option<UpdateReport>>>,
    /// Clones of every live connection stream keyed by connection id, for
    /// shutdown. A connection deregisters (and `shutdown`s the socket, so
    /// no lingering clone keeps it half-open) when its reader exits.
    conn_streams: Mutex<Vec<(u64, TcpStream)>>,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    next_conn_id: AtomicU64,
}

/// A running server: its address, metrics, and the means to stop it.
/// Dropping the handle shuts the server down (threads joined).
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handles: Vec<JoinHandle<()>>,
    transactor: Transactor,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("config", &self.config).finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Transactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transactor").finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr`, spawns the accept threads and the transactor, and
    /// returns the running server's handle. Use port 0 to let the OS pick a
    /// free port (read it back from [`ServerHandle::local_addr`]).
    ///
    /// Accepts any [`ServingEngine`]: an `Arc<Engine>` and an
    /// `Arc<ShardedEngine>` (`acq_core::ShardedEngine`) both coerce, and the
    /// wire behaviour is byte-identical between them — a sharded server
    /// additionally reports `acq_shard_*` metrics lines.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<dyn ServingEngine>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        Self::bind_inner(addr, engine, None, config)
    }

    /// Like [`bind`](Self::bind), but writes go through the durable engine's
    /// log-then-apply path: every acknowledged `UpdateOk` is fsynced to the
    /// delta log before it is applied, so it survives a `kill -9`. Reads are
    /// served by the wrapped in-memory engine exactly as on a volatile
    /// server, and the `Metrics` frame additionally reports the durability
    /// counters.
    pub fn bind_durable<A: ToSocketAddrs>(
        addr: A,
        durable: Arc<DurableEngine>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let engine = durable.engine();
        Self::bind_inner(addr, engine, Some(durable), config)
    }

    fn bind_inner<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<dyn ServingEngine>,
        durable: Option<Arc<DurableEngine>>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::default());
        let apply = match &durable {
            Some(durable) => WriteApply::Durable(Arc::clone(durable)),
            None => WriteApply::Volatile(Arc::clone(&engine)),
        };
        let transactor = Transactor::spawn(apply, Arc::clone(&metrics), config.dedup_window)?;
        let shared = Arc::new(Shared {
            engine,
            durable,
            metrics,
            config: config.clone(),
            shutdown: AtomicBool::new(false),
            in_flight: InFlightGauge::new(config.max_in_flight),
            last_update: transactor.last_update(),
            conn_streams: Mutex::new(Vec::new()),
            conn_handles: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(0),
        });

        let accept_threads = if config.accept_threads == 0 {
            acq_sync::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.accept_threads
        };
        let mut accept_handles = Vec::with_capacity(accept_threads);
        for i in 0..accept_threads {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let tx = transactor.sender();
            accept_handles.push(
                acq_sync::thread::Builder::new()
                    .name(format!("acq-accept-{i}"))
                    .spawn(move || accept_loop(&listener, &shared, &tx))?,
            );
        }
        Ok(ServerHandle { local_addr, shared, accept_handles, transactor })
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The same snapshot a `Metrics` frame answers with, taken in-process.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        snapshot(&self.shared)
    }

    /// Whether each open connection has `TCP_NODELAY` set, in accept order.
    /// A test hook, not part of the supported interface.
    #[doc(hidden)]
    pub fn connections_nodelay(&self) -> Vec<bool> {
        lock_tolerant(&self.shared.conn_streams)
            .iter()
            .map(|(_, stream)| stream.nodelay().unwrap_or(false))
            .collect()
    }

    /// Stops accepting, closes every connection, joins every thread (the
    /// transactor applies already-queued writes first).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake each blocked `accept` with a throwaway connection.
        for _ in 0..self.accept_handles.len() {
            let _ = TcpStream::connect(self.local_addr);
        }
        for handle in self.accept_handles.drain(..) {
            let _ = handle.join();
        }
        // Graceful drain: give in-flight queries and accepted-but-unanswered
        // writes a bounded window to finish before sockets are force-closed,
        // so a well-timed shutdown does not turn acknowledged-work-in-
        // progress into client-visible resets.
        let drain_deadline =
            Instant::now() + Duration::from_millis(self.shared.config.drain_timeout_ms);
        while Instant::now() < drain_deadline {
            if self.shared.in_flight.in_flight() == 0
                && self.shared.metrics.pending_writes.load(Ordering::Relaxed) == 0
            {
                break;
            }
            acq_sync::thread::sleep(Duration::from_millis(1));
        }
        // No accept thread is left, so the connection registry is final. The
        // tolerant lock matters here: shutdown must close every socket and
        // join every thread even if a connection thread died holding a
        // registry lock.
        for (_, stream) in lock_tolerant(&self.shared.conn_streams).drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> = std::mem::take(&mut *lock_tolerant(&self.shared.conn_handles));
        for handle in handles {
            let _ = handle.join();
        }
        self.transactor.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, tx: &Sender<WriteJob>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        ServerMetrics::bump(&shared.metrics.connections_accepted);
        ServerMetrics::bump(&shared.metrics.connections_open);
        // Socket options must be set before `try_clone`: they live on the
        // shared file description, so the write half inherits them. Nagle's
        // algorithm is off: a small response must not wait for the peer to
        // acknowledge the previous one (delayed ACK) before it is sent.
        let _ = stream.set_read_timeout(timeout_of(shared.config.read_timeout_ms));
        let _ = stream.set_write_timeout(timeout_of(shared.config.write_timeout_ms));
        let _ = stream.set_nodelay(true);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock_tolerant(&shared.conn_streams).push((conn_id, clone));
        }
        let shared_conn = Arc::clone(shared);
        let tx = tx.clone();
        let spawned =
            acq_sync::thread::Builder::new().name("acq-conn".to_string()).spawn(move || {
                connection_loop(stream, &shared_conn, &tx);
                // Deregister and `shutdown` the socket: a dup'd clone (the
                // registry's, or one held by an in-flight transactor reply)
                // would otherwise keep it open and the peer would never see
                // EOF.
                let mut streams = lock_tolerant(&shared_conn.conn_streams);
                if let Some(pos) = streams.iter().position(|(id, _)| *id == conn_id) {
                    let (_, stream) = streams.swap_remove(pos);
                    let _ = stream.shutdown(Shutdown::Both);
                }
                drop(streams);
                shared_conn.metrics.connections_open.fetch_sub(1, Ordering::Relaxed);
            });
        match spawned {
            Ok(handle) => lock_tolerant(&shared.conn_handles).push(handle),
            Err(_) => {
                // Could not spawn a serving thread (resource exhaustion):
                // drop the connection instead of crashing the accept loop.
                let mut streams = lock_tolerant(&shared.conn_streams);
                if let Some(pos) = streams.iter().position(|(id, _)| *id == conn_id) {
                    let (_, stream) = streams.swap_remove(pos);
                    let _ = stream.shutdown(Shutdown::Both);
                }
                drop(streams);
                shared.metrics.connections_open.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// The write half of a connection: a mutex over a stream clone, shared by
/// the reader (pongs, errors, metrics), the connection worker (query
/// responses) and the transactor (update reports).
pub(crate) struct ConnectionWriter {
    stream: Mutex<TcpStream>,
    metrics: Arc<ServerMetrics>,
}

impl ConnectionWriter {
    /// Writes one frame under the lock, counting it. The lock is
    /// poison-tolerant: a frame is either fully written or abandoned with
    /// the connection, so a panicking peer cannot leave a torn frame behind,
    /// and the other threads sharing the writer (reader, worker, transactor)
    /// must keep answering during shutdown regardless.
    pub fn send(&self, frame: &Frame) -> io::Result<()> {
        let mut stream = lock_tolerant(&self.stream);
        write_frame(&mut *stream, frame)?;
        ServerMetrics::bump(&self.metrics.frames_sent);
        Ok(())
    }

    fn send_error(&self, request_id: u64, code: &str, message: &str) -> io::Result<()> {
        self.send(&Frame::new(FrameKind::Error, request_id, error_payload(code, message)))
    }
}

impl ReplySink for ConnectionWriter {
    fn send(&self, frame: &Frame) -> io::Result<()> {
        ConnectionWriter::send(self, frame)
    }
}

/// Pending queries of one connection, drained by its worker in FIFO order.
struct Queue {
    pending: VecDeque<PendingQuery>,
    closed: bool,
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>, tx: &Sender<WriteJob>) {
    let Ok(write_half) = stream.try_clone() else { return };
    let writer = Arc::new(ConnectionWriter {
        stream: Mutex::new(write_half),
        metrics: Arc::clone(&shared.metrics),
    });
    let queue =
        Arc::new((Mutex::new(Queue { pending: VecDeque::new(), closed: false }), Condvar::new()));

    let Ok(worker) = ({
        let queue = Arc::clone(&queue);
        let writer = Arc::clone(&writer);
        let shared = Arc::clone(shared);
        acq_sync::thread::Builder::new()
            .name("acq-conn-worker".to_string())
            .spawn(move || worker_loop(&queue, &writer, &shared))
    }) else {
        // No worker means no way to answer queries: drop the connection.
        return;
    };

    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, shared.config.max_frame_len) {
            Ok(None) => break,
            Ok(Some(frame)) => {
                ServerMetrics::bump(&shared.metrics.frames_received);
                if !handle_frame(frame, shared, &writer, &queue, tx) {
                    break;
                }
            }
            Err(error) => {
                if is_timeout(&error) {
                    // The socket read timeout fired: reap the idle connection
                    // (slow-loris defense) without charging a protocol error
                    // — the client sent nothing wrong, just nothing at all.
                    ServerMetrics::bump(&shared.metrics.timeouts);
                    break;
                }
                ServerMetrics::bump(&shared.metrics.protocol_errors);
                let keep_going = report_frame_error(&error, &writer);
                if !keep_going {
                    break;
                }
            }
        }
    }

    // Stop the worker: close the queue (pending queries still drain) and
    // wake it; then release the write half.
    {
        let (lock, cvar) = &*queue;
        lock_tolerant(lock).closed = true;
        cvar.notify_all();
    }
    let _ = worker.join();
}

/// Maps a `0 = disabled` millisecond knob to the socket-option shape.
fn timeout_of(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Whether a frame error is the socket read timeout firing. Linux reports a
/// timed-out `recv` as `WouldBlock`; other platforms use `TimedOut`.
fn is_timeout(error: &FrameError) -> bool {
    matches!(
        error,
        FrameError::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    )
}

/// Answers a frame-decode error; returns whether the connection survives.
fn report_frame_error(error: &FrameError, writer: &ConnectionWriter) -> bool {
    match error {
        FrameError::UnknownKind { code, request_id } => {
            let _ = writer.send_error(
                *request_id,
                codes::UNKNOWN_KIND,
                &format!("unknown frame kind {code:#04x}"),
            );
            true
        }
        FrameError::TooLarge { declared, max } => {
            let _ = writer.send_error(
                0,
                codes::OVERSIZE_FRAME,
                &format!("frame declares {declared} bytes, bound is {max}; closing"),
            );
            false
        }
        FrameError::TooShort { declared } => {
            let _ = writer.send_error(
                0,
                codes::MALFORMED_FRAME,
                &format!("frame declares {declared} bytes, below the envelope size; closing"),
            );
            false
        }
        FrameError::UnsupportedVersion(version) => {
            let _ = writer.send_error(
                0,
                codes::UNSUPPORTED_VERSION,
                &format!("protocol version {version} is not supported; closing"),
            );
            false
        }
        FrameError::Truncated | FrameError::Io(_) => false,
    }
}

/// Dispatches one decoded frame; returns whether the connection survives.
fn handle_frame(
    frame: Frame,
    shared: &Arc<Shared>,
    writer: &Arc<ConnectionWriter>,
    queue: &Arc<(Mutex<Queue>, Condvar)>,
    tx: &Sender<WriteJob>,
) -> bool {
    let id = frame.request_id;
    match frame.kind {
        FrameKind::Ping => writer.send(&Frame::control(FrameKind::Pong, id)).is_ok(),
        FrameKind::Metrics => match serde_json::to_string(&snapshot(shared)) {
            Ok(payload) => {
                writer.send(&Frame::new(FrameKind::MetricsOk, id, payload.into_bytes())).is_ok()
            }
            Err(e) => writer
                .send_error(
                    id,
                    codes::MALFORMED_PAYLOAD,
                    &format!("snapshot not serialisable: {e}"),
                )
                .is_ok(),
        },
        FrameKind::Query => match decode_query(&frame.payload) {
            Ok((request, deadline_ms)) => {
                let deadline = deadline_of(deadline_ms);
                let (lock, cvar) = &**queue;
                let mut q = lock_tolerant(lock);
                if q.pending.len() >= shared.config.queue_capacity {
                    drop(q);
                    ServerMetrics::bump(&shared.metrics.admission_rejections);
                    writer
                        .send(&retry_error_frame(
                            id,
                            codes::BACKPRESSURE,
                            "per-connection queue full; retry",
                            shared.config.retry_after_ms,
                        ))
                        .is_ok()
                } else {
                    q.pending.push_back(PendingQuery { request_id: id, request, deadline });
                    cvar.notify_one();
                    true
                }
            }
            Err(message) => {
                ServerMetrics::bump(&shared.metrics.protocol_errors);
                writer.send_error(id, codes::MALFORMED_PAYLOAD, &message).is_ok()
            }
        },
        FrameKind::Update => match decode_update(&frame.payload) {
            Ok((deltas, token, deadline_ms)) => {
                let deadline = deadline_of(deadline_ms);
                let sink: Arc<dyn ReplySink> = Arc::<ConnectionWriter>::clone(writer);
                let job = WriteJob { deltas, request_id: id, writer: sink, token, deadline };
                // Count the write as pending before handing it over: the
                // transactor decrements after answering, and shutdown's drain
                // window polls this gauge to zero.
                ServerMetrics::bump(&shared.metrics.pending_writes);
                if tx.send(job).is_err() {
                    crate::transactor::release_pending_write(&shared.metrics);
                    writer
                        .send(&retry_error_frame(
                            id,
                            codes::SHUTTING_DOWN,
                            "transactor is shutting down",
                            shared.config.retry_after_ms,
                        ))
                        .is_ok()
                } else {
                    true
                }
            }
            Err(message) => {
                ServerMetrics::bump(&shared.metrics.protocol_errors);
                writer.send_error(id, codes::MALFORMED_PAYLOAD, &message).is_ok()
            }
        },
        // A client sent a server-only kind: answer and keep the connection.
        FrameKind::QueryOk
        | FrameKind::UpdateOk
        | FrameKind::MetricsOk
        | FrameKind::Pong
        | FrameKind::Error => {
            ServerMetrics::bump(&shared.metrics.protocol_errors);
            writer
                .send_error(id, codes::UNKNOWN_KIND, "response frame kinds are server-to-client")
                .is_ok()
        }
    }
}

/// Drains the connection's queue into batches and executes them. One
/// iteration takes *everything* that accumulated while the previous batch
/// ran — that is the per-connection batching: under load, the batch grows
/// and per-query overhead amortises; when idle, batches degenerate to size 1.
fn worker_loop(
    queue: &Arc<(Mutex<Queue>, Condvar)>,
    writer: &Arc<ConnectionWriter>,
    shared: &Arc<Shared>,
) {
    loop {
        let batch: Vec<PendingQuery> = {
            let (lock, cvar) = &**queue;
            let mut q = lock_tolerant(lock);
            while q.pending.is_empty() && !q.closed {
                q = cvar.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            if q.pending.is_empty() && q.closed {
                return;
            }
            q.pending.drain(..).collect()
        };

        // Shed queries whose deadline passed while they sat in the queue:
        // the client has already given up on them, so computing (and
        // serializing) an answer would be pure waste.
        let (batch, expired) = split_expired(batch, Instant::now());
        for id in expired {
            ServerMetrics::bump(&shared.metrics.deadline_shed);
            let _ = writer.send_error(
                id,
                codes::DEADLINE_EXCEEDED,
                "deadline expired while the query was queued",
            );
        }
        if batch.is_empty() {
            continue;
        }

        // Global admission: reserve up to `max_in_flight` slots; the
        // unadmitted tail is answered with backpressure, preserving FIFO
        // fairness within the connection. The reservation is RAII — the
        // slots return when it drops, even if `execute_batch` panics (a
        // leaked slot would shrink the server's capacity permanently).
        let reservation = shared.in_flight.reserve(batch.len());
        let admitted = reservation.admitted();
        for query in &batch[admitted..] {
            ServerMetrics::bump(&shared.metrics.admission_rejections);
            let _ = writer.send(&retry_error_frame(
                query.request_id,
                codes::BACKPRESSURE,
                "server at max in-flight; retry",
                shared.config.retry_after_ms,
            ));
        }
        if admitted == 0 {
            continue;
        }

        let run = &batch[..admitted];
        shared.metrics.record_batch(run.len() as u64);
        let requests: Vec<Request> = run.iter().map(|q| q.request.clone()).collect();
        let results = shared.engine.execute_batch(&requests);
        drop(reservation);

        for (query, result) in run.iter().zip(results) {
            let id = query.request_id;
            let frame = match result {
                Ok(response) => {
                    ServerMetrics::bump(&shared.metrics.queries_served);
                    match serde_json::to_string(&response) {
                        Ok(json) => Frame::new(FrameKind::QueryOk, id, json.into_bytes()),
                        Err(e) => {
                            let _ = writer.send_error(id, codes::MALFORMED_PAYLOAD, &e.to_string());
                            return;
                        }
                    }
                }
                Err(query_error) => {
                    ServerMetrics::bump(&shared.metrics.query_errors);
                    crate::frame::error_frame(id, codes::INVALID_QUERY, query_error.to_string())
                }
            };
            if writer.send(&frame).is_err() {
                return;
            }
        }
    }
}

/// The `Metrics` frame body: server counters + engine cache counters +
/// generation + the transactor's last update + durability counters (durable
/// servers only).
fn snapshot(shared: &Shared) -> MetricsSnapshot {
    MetricsSnapshot {
        server: shared.metrics.snapshot(),
        cache: cache_counters(shared.engine.cache_stats()),
        generation: shared.engine.generation(),
        last_update: last_update_counters(&shared.last_update),
        durability: shared.durable.as_ref().map(|d| durability_counters(d.stats())),
        shards: shard_counters(&shared.engine.shard_status()),
    }
}

fn decode_json<T: serde::Deserialize>(payload: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("payload does not decode: {e}"))
}

/// Decodes a `Query` payload: either a bare [`Request`] (the original wire
/// shape, still fully supported) or a [`QueryEnvelope`] with a deadline. The
/// two are unambiguous — a bare request has a required `vertex` field, the
/// envelope a required `request` field.
fn decode_query(payload: &[u8]) -> Result<(Request, Option<u64>), String> {
    if let Ok(request) = decode_json::<Request>(payload) {
        return Ok((request, None));
    }
    decode_json::<QueryEnvelope>(payload).map(|env| (env.request, env.deadline_ms))
}

/// Decodes an `Update` payload: either a bare delta array (the original wire
/// shape: no token, no deadline, no retry safety) or an [`UpdateEnvelope`]
/// carrying the idempotency token and an optional deadline.
#[allow(clippy::type_complexity)]
fn decode_update(
    payload: &[u8],
) -> Result<(Vec<GraphDelta>, Option<WriteToken>, Option<u64>), String> {
    if let Ok(deltas) = decode_json::<Vec<GraphDelta>>(payload) {
        return Ok((deltas, None, None));
    }
    decode_json::<UpdateEnvelope>(payload).map(|env| {
        (env.deltas, Some(WriteToken::new(env.client_id, env.write_seq)), env.deadline_ms)
    })
}

/// Maps a client's relative millisecond budget to the absolute instant the
/// serving path compares against.
fn deadline_of(deadline_ms: Option<u64>) -> Option<Instant> {
    deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
}
