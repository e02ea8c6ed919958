//! A minimal blocking client for the framed protocol, with resilience
//! built in.
//!
//! [`Client`] wraps one TCP connection and exposes one method per request
//! frame kind. It is deliberately synchronous — one outstanding request per
//! call — except for [`Client::query_batch`], which writes every query frame
//! before reading any response so the server's per-connection batcher can
//! coalesce them into a single `execute_batch` call.
//!
//! Resilience (see `docs/PROTOCOL.md`, "Deadlines, retries, idempotency"):
//!
//! * **Timeouts** — [`ClientConfig`] carries a connect timeout and per-socket
//!   read/write timeouts, so no call can block forever on a dead peer. A
//!   timed-out call surfaces as [`ClientError::Timeout`].
//! * **Retries** — transient failures (transport errors, timeouts, and the
//!   retryable server codes `backpressure` / `shutting-down` /
//!   `deadline-exceeded`) are retried under a [`RetryPolicy`]: capped
//!   exponential backoff with deterministic, seeded jitter, honouring the
//!   server's `retry_after_ms` hint as a floor. Transport-level failures
//!   drop the connection and redial automatically.
//! * **Idempotent updates** — every [`Client::update`] carries a
//!   [`WriteToken`](acq_durable::WriteToken) (`client_id` + `write_seq`)
//!   minted **once** per logical write, so a retry after a lost `UpdateOk`
//!   replays the server's cached report instead of applying the batch twice.

use crate::frame::{
    codes, read_frame, write_frame, Frame, FrameError, FrameKind, QueryEnvelope, UpdateEnvelope,
    WireError, DEFAULT_MAX_FRAME_LEN,
};
use acq_core::{Request, Response, UpdateReport};
use acq_graph::GraphDelta;
use acq_metrics::serving::MetricsSnapshot;
use acq_sync::sync::atomic::{AtomicU64, Ordering};
use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read or write).
    Io(io::Error),
    /// A connect, read or write exceeded its configured timeout.
    Timeout(io::Error),
    /// An incoming frame could not be decoded.
    Frame(FrameError),
    /// The server answered with an [`Error`](FrameKind::Error) frame.
    Remote(WireError),
    /// The server broke the protocol: wrong response kind, mismatched
    /// request id, or an undecodable response payload.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Timeout(e) => write!(f, "timed out: {e}"),
            ClientError::Frame(e) => write!(f, "bad frame from server: {e}"),
            ClientError::Remote(e) => write!(f, "server error {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        // Linux reports a timed-out `recv` as `WouldBlock`; `connect_timeout`
        // and other platforms use `TimedOut`. Both are the same condition to
        // a caller: the deadline fired, not the transport broke.
        if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
            ClientError::Timeout(e)
        } else {
            ClientError::Io(e)
        }
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::from(io),
            other => ClientError::Frame(other),
        }
    }
}

/// How [`Client`] retries transient failures: capped exponential backoff
/// with deterministic jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry, in milliseconds; doubles per retry.
    pub base_backoff_ms: u64,
    /// Upper bound on any single backoff, in milliseconds.
    pub max_backoff_ms: u64,
    /// Seed of the deterministic jitter stream (`0` picks a fixed default).
    /// Two clients with different seeds de-synchronise their retries; tests
    /// pin a seed to make retry timing reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 3, base_backoff_ms: 10, max_backoff_ms: 1_000, jitter_seed: 0 }
    }
}

/// Connection and resilience knobs of a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection; `None` blocks indefinitely.
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout; `None` blocks indefinitely on a silent server.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout; `None` blocks indefinitely on a full pipe.
    pub write_timeout: Option<Duration>,
    /// Largest accepted response frame (length-prefix bound) in bytes.
    pub max_frame_len: u32,
    /// How transient failures are retried.
    pub retry: RetryPolicy,
    /// The stable identity half of this client's write tokens. `0` (the
    /// default) derives a process-unique id automatically; set it explicitly
    /// when the same logical client reconnects across processes and its
    /// retries must keep deduplicating.
    pub client_id: u64,
    /// Deadline budget attached to every query and update, in milliseconds;
    /// `None` sends no deadline.
    pub deadline_ms: Option<u64>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            retry: RetryPolicy::default(),
            client_id: 0,
            deadline_ms: None,
        }
    }
}

/// Cumulative resilience counters of one [`Client`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Attempts repeated after a transient failure.
    pub retries: u64,
    /// Connections re-established after the first.
    pub reconnects: u64,
    /// Calls that hit a connect/read/write timeout (including retried ones).
    pub timeouts: u64,
}

/// Distinguishes `client_id`s auto-derived within this process.
static CLIENT_SEQ: AtomicU64 = AtomicU64::new(1);

/// The two halves of one established connection.
struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
}

/// How a failed attempt may be recovered.
enum Recover {
    /// Transport-level failure: the connection is in an unknown state (a
    /// frame may be half-written), so drop it and redial.
    Reconnect,
    /// The server explicitly refused for now; the connection is fine, wait
    /// at least `floor_ms` and resend.
    Backoff { floor_ms: Option<u64> },
}

/// Classifies an error; `None` means it is terminal for the call.
fn recovery_of(error: &ClientError) -> Option<Recover> {
    match error {
        ClientError::Io(_) | ClientError::Timeout(_) | ClientError::Frame(_) => {
            Some(Recover::Reconnect)
        }
        ClientError::Remote(e) if codes::is_retryable(&e.code) => {
            Some(Recover::Backoff { floor_ms: e.retry_after_ms })
        }
        _ => None,
    }
}

/// A blocking connection to an `acq-server`.
///
/// ```no_run
/// use acq_core::Request;
/// use acq_graph::VertexId;
/// use acq_server::Client;
///
/// let mut client = Client::connect("127.0.0.1:7878").unwrap();
/// client.ping().unwrap();
/// let response = client.query(&Request::community(VertexId(0)).k(2)).unwrap();
/// println!("{} communities", response.result.communities.len());
/// ```
pub struct Client {
    addrs: Vec<SocketAddr>,
    conn: Option<Conn>,
    config: ClientConfig,
    client_id: u64,
    next_id: u64,
    next_write_seq: u64,
    jitter_state: u64,
    ever_connected: bool,
    stats: ClientStats,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("next_id", &self.next_id)
            .field("client_id", &self.client_id)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to a server with the default [`ClientConfig`] (5 s connect
    /// timeout, 10 s socket timeouts, 3 retries, 1 MiB frame bound).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        Self::connect_with_config(addr, ClientConfig::default())
    }

    /// Connects with an explicit bound on accepted response frames.
    pub fn connect_with_max_frame_len<A: ToSocketAddrs>(
        addr: A,
        max_frame_len: u32,
    ) -> Result<Self, ClientError> {
        Self::connect_with_config(addr, ClientConfig { max_frame_len, ..Default::default() })
    }

    /// Connects with explicit resilience knobs. The address is resolved
    /// once; automatic reconnects redial the resolved addresses.
    pub fn connect_with_config<A: ToSocketAddrs>(
        addr: A,
        config: ClientConfig,
    ) -> Result<Self, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let client_id = if config.client_id == 0 {
            // Process-unique: pid in the high half, a process-local counter
            // in the low half, so two clients in one process never collide.
            (u64::from(std::process::id()) << 32) | CLIENT_SEQ.fetch_add(1, Ordering::Relaxed)
        } else {
            config.client_id
        };
        let jitter_state = match config.retry.jitter_seed {
            0 => 0x9E37_79B9_7F4A_7C15,
            seed => seed,
        };
        let mut client = Self {
            addrs,
            conn: None,
            config,
            client_id,
            next_id: 1,
            next_write_seq: 1,
            jitter_state,
            ever_connected: false,
            stats: ClientStats::default(),
        };
        client.ensure_conn()?;
        Ok(client)
    }

    /// The identity half of this client's write tokens.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Cumulative retry/reconnect/timeout counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Whether the live connection has `TCP_NODELAY` set; `None` while
    /// disconnected. A test hook, not part of the supported interface.
    #[doc(hidden)]
    pub fn nodelay(&self) -> Option<bool> {
        self.conn.as_ref().and_then(|conn| conn.writer.get_ref().nodelay().ok())
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Establishes a connection if none is live, applying the configured
    /// timeouts to the socket.
    fn ensure_conn(&mut self) -> Result<(), ClientError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last_err: Option<io::Error> = None;
        for addr in &self.addrs {
            let attempt = match self.config.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(addr, timeout),
                None => TcpStream::connect(addr),
            };
            match attempt.and_then(|stream| {
                // Set before `try_clone` so both halves share the options.
                // Without `TCP_NODELAY` a pipelined request waits for the
                // server to acknowledge the previous one.
                stream.set_read_timeout(self.config.read_timeout)?;
                stream.set_write_timeout(self.config.write_timeout)?;
                stream.set_nodelay(true)?;
                let read_half = stream.try_clone()?;
                Ok((stream, read_half))
            }) {
                Ok((stream, read_half)) => {
                    self.conn = Some(Conn {
                        writer: BufWriter::new(stream),
                        reader: BufReader::new(read_half),
                    });
                    if self.ever_connected {
                        self.stats.reconnects += 1;
                    }
                    self.ever_connected = true;
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(ClientError::from(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::AddrNotAvailable, "address resolved to no candidates")
        })))
    }

    fn send_frame(&mut self, frame: &Frame) -> Result<(), ClientError> {
        self.ensure_conn()?;
        match &mut self.conn {
            Some(conn) => {
                write_frame(&mut conn.writer, frame)?;
                Ok(())
            }
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection was not established",
            ))),
        }
    }

    /// Reads the next frame, insisting the stream is still open. A clean
    /// close surfaces as a (retryable) transport error: mid-conversation,
    /// EOF means the server or the network gave up on us, and redialling is
    /// the correct response.
    fn read_response(&mut self) -> Result<Frame, ClientError> {
        match &mut self.conn {
            Some(conn) => match read_frame(&mut conn.reader, self.config.max_frame_len)? {
                Some(frame) => Ok(frame),
                None => Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))),
            },
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection was not established",
            ))),
        }
    }

    /// Reads one response frame for `id` and decodes it as `kind`; an error
    /// frame becomes [`ClientError::Remote`].
    fn expect_kind(&mut self, id: u64, kind: FrameKind) -> Result<Frame, ClientError> {
        let frame = self.read_response()?;
        if frame.request_id != id {
            return Err(ClientError::Protocol(format!(
                "response for request {} while waiting on {id}",
                frame.request_id
            )));
        }
        if frame.kind == FrameKind::Error {
            return Err(ClientError::Remote(decode_payload::<WireError>(&frame)?));
        }
        if frame.kind != kind {
            return Err(ClientError::Protocol(format!(
                "expected a {kind:?} frame, got {:?}",
                frame.kind
            )));
        }
        Ok(frame)
    }

    /// The next value of the deterministic jitter stream (xorshift64).
    fn next_jitter(&mut self) -> u64 {
        let mut x = self.jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter_state = x;
        x
    }

    /// The backoff before retry number `attempt`: capped exponential,
    /// jittered into `[half, full]`, floored by the server's hint.
    fn backoff_ms(&mut self, attempt: u32, floor_ms: Option<u64>) -> u64 {
        let policy = &self.config.retry;
        let full = policy
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(policy.max_backoff_ms);
        let half = full / 2;
        let span = full - half + 1;
        (half + self.next_jitter() % span).max(floor_ms.unwrap_or(0))
    }

    /// Runs `op` until it succeeds, a terminal error occurs, or the retry
    /// budget is spent. `op` must be safe to repeat — updates carry their
    /// idempotency token, queries and probes are read-only.
    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt: u32 = 0;
        loop {
            match op(self) {
                Ok(value) => return Ok(value),
                Err(error) => {
                    if matches!(error, ClientError::Timeout(_)) {
                        self.stats.timeouts += 1;
                    }
                    let recovery = match recovery_of(&error) {
                        Some(recovery) if attempt < self.config.retry.max_retries => recovery,
                        _ => return Err(error),
                    };
                    let floor_ms = match recovery {
                        Recover::Reconnect => {
                            self.conn = None;
                            None
                        }
                        Recover::Backoff { floor_ms } => floor_ms,
                    };
                    let wait = self.backoff_ms(attempt, floor_ms);
                    attempt += 1;
                    self.stats.retries += 1;
                    acq_sync::thread::sleep(Duration::from_millis(wait));
                }
            }
        }
    }

    /// Liveness probe: sends `Ping`, waits for the matching `Pong`.
    /// Retried under the [`RetryPolicy`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.with_retries(|client| {
            let id = client.fresh_id();
            client.send_frame(&Frame::control(FrameKind::Ping, id))?;
            client.expect_kind(id, FrameKind::Pong).map(|_| ())
        })
    }

    /// Executes one query on the server's current generation snapshot.
    /// Retried under the [`RetryPolicy`] (queries are read-only, so a
    /// repeat is always safe); carries the configured deadline, if any.
    pub fn query(&mut self, request: &Request) -> Result<Response, ClientError> {
        let payload = self.query_payload(request)?;
        self.with_retries(|client| {
            let id = client.fresh_id();
            client.send_frame(&Frame::new(FrameKind::Query, id, payload.clone()))?;
            decode_payload(&client.expect_kind(id, FrameKind::QueryOk)?)
        })
    }

    /// Sends every query before reading any response, letting the server
    /// batch them into one `execute_batch` call. Per-query failures (an
    /// error frame) are returned in place, in request order. A transport
    /// failure retries the whole batch.
    pub fn query_batch(
        &mut self,
        requests: &[Request],
    ) -> Result<Vec<Result<Response, WireError>>, ClientError> {
        let mut payloads = Vec::with_capacity(requests.len());
        for request in requests {
            payloads.push(self.query_payload(request)?);
        }
        self.with_retries(|client| {
            let mut ids = Vec::with_capacity(payloads.len());
            for payload in &payloads {
                let id = client.fresh_id();
                client.send_frame(&Frame::new(FrameKind::Query, id, payload.clone()))?;
                ids.push(id);
            }
            let mut responses = Vec::with_capacity(ids.len());
            for id in ids {
                let frame = client.read_response()?;
                if frame.request_id != id {
                    return Err(ClientError::Protocol(format!(
                        "response for request {} while waiting on {id}",
                        frame.request_id
                    )));
                }
                responses.push(match frame.kind {
                    FrameKind::QueryOk => Ok(decode_payload::<Response>(&frame)?),
                    FrameKind::Error => Err(decode_payload::<WireError>(&frame)?),
                    other => {
                        return Err(ClientError::Protocol(format!(
                            "expected a QueryOk frame, got {other:?}"
                        )))
                    }
                });
            }
            Ok(responses)
        })
    }

    /// Submits a delta batch to the transactor and waits for its report.
    ///
    /// The batch is wrapped in an [`UpdateEnvelope`] whose token
    /// (`client_id`, `write_seq`) is minted **once** per call: every retry
    /// resends the same token, so the server can deduplicate a batch whose
    /// `UpdateOk` was lost to the network and replay the cached report
    /// instead of applying twice.
    pub fn update(&mut self, deltas: &[GraphDelta]) -> Result<UpdateReport, ClientError> {
        let write_seq = self.next_write_seq;
        self.next_write_seq += 1;
        let envelope = UpdateEnvelope {
            client_id: self.client_id,
            write_seq,
            deadline_ms: self.config.deadline_ms,
            deltas: deltas.to_vec(),
        };
        let payload = encode_payload(&envelope)?;
        self.with_retries(|client| {
            let id = client.fresh_id();
            client.send_frame(&Frame::new(FrameKind::Update, id, payload.clone()))?;
            decode_payload(&client.expect_kind(id, FrameKind::UpdateOk)?)
        })
    }

    /// Fetches the server's counters. Retried under the [`RetryPolicy`].
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        self.with_retries(|client| {
            let id = client.fresh_id();
            client.send_frame(&Frame::control(FrameKind::Metrics, id))?;
            decode_payload(&client.expect_kind(id, FrameKind::MetricsOk)?)
        })
    }

    /// Sends a raw frame and returns the next incoming frame verbatim
    /// (`None` on a clean close). Never retried — tooling that pokes at the
    /// protocol needs to see exactly what one exchange does.
    pub fn round_trip_raw(&mut self, frame: &Frame) -> Result<Option<Frame>, ClientError> {
        self.send_frame(frame)?;
        match &mut self.conn {
            Some(conn) => Ok(read_frame(&mut conn.reader, self.config.max_frame_len)?),
            None => Ok(None),
        }
    }

    /// Encodes a query payload: bare `Request` without a deadline (the
    /// original wire shape), [`QueryEnvelope`] with one.
    fn query_payload(&self, request: &Request) -> Result<Vec<u8>, ClientError> {
        match self.config.deadline_ms {
            None => encode_payload(request),
            Some(deadline_ms) => encode_payload(&QueryEnvelope {
                request: request.clone(),
                deadline_ms: Some(deadline_ms),
            }),
        }
    }
}

fn encode_payload<T: serde::Serialize>(value: &T) -> Result<Vec<u8>, ClientError> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| ClientError::Protocol(format!("request does not encode: {e}")))
}

fn decode_payload<T: serde::Deserialize>(frame: &Frame) -> Result<T, ClientError> {
    let text = std::str::from_utf8(&frame.payload)
        .map_err(|e| ClientError::Protocol(format!("response payload is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| ClientError::Protocol(format!("response payload does not decode: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeouts_are_classified_apart_from_other_io_errors() {
        let timeout = ClientError::from(io::Error::new(io::ErrorKind::WouldBlock, "t"));
        assert!(matches!(timeout, ClientError::Timeout(_)));
        let timeout = ClientError::from(io::Error::new(io::ErrorKind::TimedOut, "t"));
        assert!(matches!(timeout, ClientError::Timeout(_)));
        let io = ClientError::from(io::Error::new(io::ErrorKind::ConnectionReset, "r"));
        assert!(matches!(io, ClientError::Io(_)));
    }

    #[test]
    fn retryable_classification_follows_the_code_table() {
        let transient =
            ClientError::Remote(WireError::new(codes::BACKPRESSURE, "full").with_retry_after(40));
        match recovery_of(&transient) {
            Some(Recover::Backoff { floor_ms }) => assert_eq!(floor_ms, Some(40)),
            _ => panic!("backpressure must back off on the live connection"),
        }
        let terminal = ClientError::Remote(WireError::new(codes::INVALID_QUERY, "no"));
        assert!(recovery_of(&terminal).is_none());
        let transport = ClientError::Io(io::Error::new(io::ErrorKind::ConnectionReset, "r"));
        assert!(matches!(recovery_of(&transport), Some(Recover::Reconnect)));
        assert!(recovery_of(&ClientError::Protocol("weird".into())).is_none());
    }

    #[test]
    fn read_timeout_fails_a_call_against_a_silent_server() {
        // A listener that accepts and then says nothing: without the read
        // timeout, `ping` would block forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let hold = std::thread::spawn(move || listener.accept());
        let config = ClientConfig {
            read_timeout: Some(Duration::from_millis(50)),
            retry: RetryPolicy { max_retries: 0, ..Default::default() },
            ..Default::default()
        };
        let started = std::time::Instant::now();
        let mut client = Client::connect_with_config(addr, config).expect("connect");
        let error = client.ping().expect_err("a silent server cannot answer a ping");
        assert!(matches!(error, ClientError::Timeout(_)), "got {error}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the call must observe its read timeout, not block"
        );
        assert_eq!(client.stats().timeouts, 1);
        drop(hold.join());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_floored() {
        let config = ClientConfig {
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff_ms: 10,
                max_backoff_ms: 35,
                jitter_seed: 42,
            },
            ..Default::default()
        };
        // An unconnected client shell, built by hand to test the math.
        let mut a = Client {
            addrs: vec![],
            conn: None,
            config: config.clone(),
            client_id: 1,
            next_id: 1,
            next_write_seq: 1,
            jitter_state: 42,
            ever_connected: false,
            stats: ClientStats::default(),
        };
        let mut b = Client { jitter_state: 42, config, ..a_clone_shell() };
        let seq_a: Vec<u64> = (0..4).map(|attempt| a.backoff_ms(attempt, None)).collect();
        let seq_b: Vec<u64> = (0..4).map(|attempt| b.backoff_ms(attempt, None)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same backoff sequence");
        for (attempt, wait) in seq_a.iter().enumerate() {
            let full = (10u64 << attempt).min(35);
            assert!(*wait >= full / 2 && *wait <= full, "attempt {attempt}: {wait}");
        }
        assert!(a.backoff_ms(0, Some(500)) >= 500, "the server hint is a floor");
    }

    fn a_clone_shell() -> Client {
        Client {
            addrs: vec![],
            conn: None,
            config: ClientConfig::default(),
            client_id: 1,
            next_id: 1,
            next_write_seq: 1,
            jitter_state: 1,
            ever_connected: false,
            stats: ClientStats::default(),
        }
    }

    #[test]
    fn auto_client_ids_are_process_unique() {
        // Exercise the derivation the constructor uses.
        let a = (u64::from(std::process::id()) << 32) | CLIENT_SEQ.fetch_add(1, Ordering::Relaxed);
        let b = (u64::from(std::process::id()) << 32) | CLIENT_SEQ.fetch_add(1, Ordering::Relaxed);
        assert_ne!(a, b);
    }
}
