//! Loopback tests for the serving front-end: concurrent remote clients must
//! get **byte-identical** results to direct in-process `Executor` calls —
//! including while a write stream mutates the graph through the transactor —
//! and malformed or oversize frames must draw an error frame without ever
//! taking the server down.
//!
//! The write-stream phase cannot compare against a live local engine (the
//! compared generation could advance mid-query), so it records each
//! response's `meta.generation` and afterwards **replays** the same delta
//! batches on a fresh engine, re-executing every recorded request at its
//! recorded generation. The transactor serializes all writes, so generation
//! `1 + i` deterministically means "the initial graph plus the first `i`
//! batches".

use attributed_community_search::prelude::*;
use attributed_community_search::server::{
    codes, encode, read_frame, Client, ClientError, Frame, FrameKind, Server, WireError,
    DEFAULT_MAX_FRAME_LEN,
};
use proptest::prelude::*;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Serialises the part of a response that must match across executors. The
/// result (communities, label size, work counters) is deterministic for a
/// given graph generation; `meta` (wall time, cache hits) is not.
fn result_bytes(response: &Response) -> String {
    serde_json::to_string(&response.result).expect("result serialises")
}

/// A spread of requests covering all three query kinds on the Figure 3 graph.
fn request_mix(graph: &AttributedGraph) -> Vec<Request> {
    let kw = graph.dictionary().iter().next().map(|(id, _)| id).expect("keywords exist");
    let mut requests = Vec::new();
    for v in graph.vertices() {
        for k in [1usize, 2, 3] {
            requests.push(Request::community(v).k(k));
        }
        requests.push(Request::community(v).k(2).exact_keywords([kw]));
        requests.push(Request::community(v).k(2).keywords([kw]).threshold(0.5));
    }
    requests
}

#[test]
fn concurrent_clients_match_the_direct_executor() {
    let graph = Arc::new(paper_figure3_graph());
    let engine = Arc::new(Engine::new(Arc::clone(&graph)));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine) as _, ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    let requests = Arc::new(request_mix(&graph));
    let mut clients = Vec::new();
    for t in 0..4 {
        let requests = Arc::clone(&requests);
        clients.push(std::thread::spawn(move || -> Vec<String> {
            let mut client = Client::connect(addr).expect("connect");
            if t % 2 == 0 {
                // Half the clients go one query at a time…
                requests
                    .iter()
                    .map(|r| result_bytes(&client.query(r).expect("query answered")))
                    .collect()
            } else {
                // …the other half pipeline the whole mix as one batch.
                client
                    .query_batch(&requests)
                    .expect("batch answered")
                    .into_iter()
                    .map(|r| result_bytes(&r.expect("batched query answered")))
                    .collect()
            }
        }));
    }
    let remote: Vec<Vec<String>> = clients.into_iter().map(|c| c.join().expect("client")).collect();

    // The reference: a second, independent in-process engine on the same graph.
    let reference = Engine::new(Arc::clone(&graph));
    let expected: Vec<String> = requests
        .iter()
        .map(|r| result_bytes(&reference.execute(r).expect("direct execute")))
        .collect();
    for per_client in &remote {
        assert_eq!(per_client, &expected, "remote results must be byte-identical");
    }

    // An invalid request draws the same error text the direct call produces.
    let bogus = Request::community(VertexId(99)).k(2);
    let direct_err = reference.execute(&bogus).expect_err("vertex 99 does not exist");
    let mut client = Client::connect(addr).expect("connect");
    match client.query(&bogus) {
        Err(ClientError::Remote(wire)) => {
            assert_eq!(wire.code, codes::INVALID_QUERY);
            assert_eq!(wire.message, direct_err.to_string());
        }
        other => panic!("expected a remote invalid-query error, got {other:?}"),
    }

    let snapshot = server.metrics_snapshot();
    assert!(snapshot.server.queries_served >= 4 * requests.len() as u64);
    assert!(snapshot.server.batches_executed > 0);
    assert_eq!(snapshot.server.query_errors, 1);
    assert!(
        snapshot.cache.hits + snapshot.cache.misses > 0,
        "the shared engine cache must have seen traffic"
    );
    server.shutdown();
}

#[test]
fn queries_under_a_write_stream_replay_byte_identical() {
    let graph = Arc::new(paper_figure3_graph());
    let engine = Arc::new(Engine::new(graph));
    let server =
        Server::bind("127.0.0.1:0", engine, ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();

    // Six delta batches: edge churn around the paper's 3-core clique plus
    // keyword churn on E — enough to drive several maintenance strategies.
    let batches: Vec<Vec<GraphDelta>> = vec![
        vec![GraphDelta::InsertEdge { u: VertexId(4), v: VertexId(3) }],
        vec![GraphDelta::AddKeyword { vertex: VertexId(4), term: "y".to_string() }],
        vec![
            GraphDelta::RemoveEdge { u: VertexId(4), v: VertexId(3) },
            GraphDelta::InsertEdge { u: VertexId(5), v: VertexId(0) },
        ],
        vec![GraphDelta::RemoveKeyword { vertex: VertexId(4), term: "y".to_string() }],
        vec![GraphDelta::InsertVertex { label: None, keywords: vec!["x".to_string()] }],
        vec![GraphDelta::RemoveEdge { u: VertexId(5), v: VertexId(0) }],
    ];

    // The writer: one client streaming the batches through the transactor.
    let writer = {
        let batches = batches.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            for (i, batch) in batches.iter().enumerate() {
                let report = client.update(batch).expect("update applied");
                assert_eq!(report.generation, 2 + i as u64, "writes are serialized in order");
                std::thread::sleep(Duration::from_millis(15));
            }
        })
    };

    // The readers: query continuously while the writes land, recording the
    // generation each response was served from.
    let mut readers = Vec::new();
    for t in 0..3u32 {
        readers.push(std::thread::spawn(move || -> Vec<(Request, u64, String)> {
            let mut client = Client::connect(addr).expect("reader connects");
            let mut seen = Vec::new();
            for round in 0..40u32 {
                let v = VertexId((t + round) % 10);
                let request = Request::community(v).k(1 + (round % 3) as usize);
                let response = client.query(&request).expect("query answered");
                seen.push((request, response.meta.generation, result_bytes(&response)));
                std::thread::sleep(Duration::from_millis(2));
            }
            seen
        }));
    }
    writer.join().expect("writer");
    let mut records: Vec<(Request, u64, String)> =
        readers.into_iter().flat_map(|r| r.join().expect("reader")).collect();

    // One last query after the writer finished: it is guaranteed to run on
    // the final generation, so the replay below always covers the full range.
    {
        let mut client = Client::connect(addr).expect("late reader connects");
        let request = Request::community(VertexId(0)).k(2);
        let response = client.query(&request).expect("query answered");
        assert_eq!(response.meta.generation, 1 + batches.len() as u64);
        records.push((request, response.meta.generation, result_bytes(&response)));
    }
    server.shutdown();

    // Replay: rebuild the exact generation sequence and re-execute every
    // recorded request at its recorded generation.
    let replay = Engine::new(Arc::new(paper_figure3_graph()));
    let generations: Vec<u64> = records.iter().map(|(_, g, _)| *g).collect();
    assert!(generations.iter().all(|g| (1..=7).contains(g)), "generations stay in range");
    assert!(
        generations.iter().max().copied() > Some(1),
        "the write stream should be visible to the readers"
    );
    for gen in 1..=(1 + batches.len() as u64) {
        for (request, _, remote_bytes) in records.iter().filter(|(_, g, _)| *g == gen) {
            let local = replay.execute(request).expect("replay execute");
            assert_eq!(local.meta.generation, gen);
            assert_eq!(
                &result_bytes(&local),
                remote_bytes,
                "generation {gen}: remote result differs from the replayed engine"
            );
        }
        if gen <= batches.len() as u64 {
            let report =
                replay.apply_updates(&batches[gen as usize - 1]).expect("replay batch applies");
            assert_eq!(report.generation, gen + 1);
        }
    }
}

#[test]
fn a_restarted_durable_server_answers_byte_identical_to_an_unrestarted_one() {
    let dir = std::env::temp_dir().join(format!("acq-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = Arc::new(paper_figure3_graph());

    // Writes the restart must preserve: edge and keyword churn plus a new
    // vertex, with a cadence that makes compaction fold some batches into
    // the snapshot while others stay in the log as replayable records.
    let batches: Vec<Vec<GraphDelta>> = vec![
        vec![GraphDelta::InsertEdge { u: VertexId(4), v: VertexId(3) }],
        vec![GraphDelta::AddKeyword { vertex: VertexId(4), term: "y".to_string() }],
        vec![GraphDelta::InsertVertex { label: None, keywords: vec!["x".to_string()] }],
        vec![GraphDelta::InsertEdge { u: VertexId(5), v: VertexId(0) }],
        vec![GraphDelta::RemoveKeyword { vertex: VertexId(4), term: "y".to_string() }],
    ];
    let options = DurableOptions { compact_every: 3, ..DurableOptions::default() };

    // Phase 1: a durable server takes the writes, answers some queries, and
    // shuts down cleanly.
    let first_run: Vec<String> = {
        let (durable, report) =
            DurableEngine::open_dir(&dir, Arc::clone(&base), options).expect("open durable dir");
        assert_eq!(report.records_replayed, 0, "a fresh directory has nothing to replay");
        let server =
            Server::bind_durable("127.0.0.1:0", Arc::new(durable), ServerConfig::default())
                .expect("bind durable loopback");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (i, batch) in batches.iter().enumerate() {
            let report = client.update(batch).expect("durable update acknowledged");
            assert_eq!(report.generation, 2 + i as u64);
        }
        let answers = request_mix(&base)
            .iter()
            .map(|r| result_bytes(&client.query(r).expect("query answered")))
            .collect();
        let snapshot = server.metrics_snapshot();
        let durability = snapshot.durability.expect("durable server exports durability counters");
        assert_eq!(durability.log_records_appended, batches.len() as u64);
        assert!(durability.log_bytes_appended > 0);
        assert!(durability.compactions >= 1, "compact_every=3 over 5 batches must compact");
        server.shutdown();
        answers
    };

    // Phase 2: a new process image opens the same directory. Recovery loads
    // the snapshot and replays only the records it does not cover.
    let restarted: Vec<String> = {
        let (durable, report) =
            DurableEngine::open_dir(&dir, Arc::clone(&base), options).expect("reopen durable dir");
        assert!(report.snapshot_loaded, "compaction installed a snapshot");
        assert!(
            report.records_replayed > 0 && report.records_replayed < batches.len() as u64,
            "replay should cover exactly the post-snapshot records, got {}",
            report.records_replayed
        );
        assert_eq!(report.batches_skipped, 0);
        let server =
            Server::bind_durable("127.0.0.1:0", Arc::new(durable), ServerConfig::default())
                .expect("rebind durable loopback");
        let mut client = Client::connect(server.local_addr()).expect("reconnect");
        let answers = request_mix(&base)
            .iter()
            .map(|r| result_bytes(&client.query(r).expect("query answered after restart")))
            .collect();
        let snapshot = server.metrics_snapshot();
        let durability = snapshot.durability.expect("durability counters after restart");
        assert!(durability.records_replayed > 0);
        server.shutdown();
        answers
    };

    // The reference: an engine that never restarted — it simply applied
    // every acknowledged batch in order.
    let reference = Engine::new(Arc::clone(&base));
    for batch in &batches {
        reference.apply_updates(batch).expect("reference applies");
    }
    let expected: Vec<String> = request_mix(&base)
        .iter()
        .map(|r| result_bytes(&reference.execute(r).expect("reference executes")))
        .collect();
    assert_eq!(first_run, expected, "pre-restart durable answers diverged");
    assert_eq!(restarted, expected, "post-restart answers must be byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
}

/// One long-lived server for the malformed-frame tests: `max_frame_len` is
/// tiny so oversize rejection is cheap to trigger. A `static` handle is never
/// dropped, so the server outlives every test in the binary.
static FUZZ_SERVER: OnceLock<attributed_community_search::server::ServerHandle> = OnceLock::new();

fn fuzz_addr() -> SocketAddr {
    FUZZ_SERVER
        .get_or_init(|| {
            let engine = Arc::new(Engine::new(Arc::new(paper_figure3_graph())));
            let config =
                ServerConfig { accept_threads: 2, max_frame_len: 4096, ..Default::default() };
            Server::bind("127.0.0.1:0", engine, config).expect("bind fuzz server")
        })
        .local_addr()
}

/// Reads one frame from a raw stream, with a timeout so a server bug cannot
/// hang the suite.
fn recv_raw(stream: &TcpStream) -> Result<Option<Frame>, String> {
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    read_frame(&mut { stream }, DEFAULT_MAX_FRAME_LEN).map_err(|e| e.to_string())
}

fn expect_error_frame(stream: &TcpStream, code: &str) -> Frame {
    let frame = recv_raw(stream).expect("readable frame").expect("a frame, not EOF");
    assert_eq!(frame.kind, FrameKind::Error);
    let wire: WireError =
        serde_json::from_str(std::str::from_utf8(&frame.payload).expect("UTF-8 payload"))
            .expect("WireError payload");
    assert_eq!(wire.code, code, "unexpected error: {}", wire.message);
    frame
}

fn server_is_alive() {
    let mut probe = Client::connect(fuzz_addr()).expect("fresh connection accepted");
    probe.ping().expect("server still answers");
}

#[test]
fn malformed_frames_draw_errors_and_the_connection_survives() {
    let addr = fuzz_addr();

    // An unknown kind byte: the block is consumed whole, so the connection
    // keeps working afterwards.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut unknown = encode(&Frame::control(FrameKind::Ping, 7));
    unknown[5] = 0x55;
    stream.write_all(&unknown).expect("write");
    let err = expect_error_frame(&stream, codes::UNKNOWN_KIND);
    assert_eq!(err.request_id, 7, "the reply correlates to the offending frame");
    stream.write_all(&encode(&Frame::control(FrameKind::Ping, 8))).expect("write after error");
    let pong = recv_raw(&stream).expect("frame").expect("pong");
    assert_eq!((pong.kind, pong.request_id), (FrameKind::Pong, 8));

    // Garbage JSON in a Query payload: error frame, connection survives.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&encode(&Frame::new(FrameKind::Query, 9, b"not json".to_vec())))
        .expect("write");
    expect_error_frame(&stream, codes::MALFORMED_PAYLOAD);
    stream.write_all(&encode(&Frame::control(FrameKind::Ping, 10))).expect("write after error");
    assert_eq!(recv_raw(&stream).expect("frame").expect("pong").kind, FrameKind::Pong);

    // A response-only kind from a client: answered, connection survives.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&encode(&Frame::control(FrameKind::Pong, 11))).expect("write");
    expect_error_frame(&stream, codes::UNKNOWN_KIND);

    server_is_alive();
}

#[test]
fn oversize_and_unframeable_input_close_the_connection_cleanly() {
    let addr = fuzz_addr();

    // Length prefix over the 4096-byte bound: rejected before any payload
    // byte is read, then the connection closes.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&100_000u32.to_be_bytes()).expect("write");
    expect_error_frame(&stream, codes::OVERSIZE_FRAME);
    assert!(recv_raw(&stream).expect("clean close").is_none(), "connection must close");

    // Length prefix below the envelope size.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&3u32.to_be_bytes()).expect("write");
    expect_error_frame(&stream, codes::MALFORMED_FRAME);
    assert!(recv_raw(&stream).expect("clean close").is_none());

    // A version byte from the future.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut bad = encode(&Frame::control(FrameKind::Ping, 1));
    bad[4] = 9;
    stream.write_all(&bad).expect("write");
    expect_error_frame(&stream, codes::UNSUPPORTED_VERSION);
    assert!(recv_raw(&stream).expect("clean close").is_none());

    server_is_alive();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes — valid prefixes, truncated frames, garbage — must
    /// never take the server down: after each blast, a fresh connection
    /// still answers a ping.
    #[test]
    fn arbitrary_bytes_never_kill_the_server(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let stream = TcpStream::connect(fuzz_addr()).expect("connect");
        {
            let mut w = &stream;
            let _ = w.write_all(&bytes);
        }
        let _ = stream.shutdown(Shutdown::Write);
        // Drain whatever the server answers (error frame or clean close)
        // until EOF, so the blast is fully processed before the liveness probe.
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
        let mut r = &stream;
        let mut sink = [0u8; 256];
        while let Ok(n) = std::io::Read::read(&mut r, &mut sink) {
            if n == 0 { break; }
        }
        server_is_alive();
    }

    /// A structurally valid Query/Update frame with an arbitrary payload is
    /// answered (ok or error) and the connection survives to ping again.
    #[test]
    fn garbage_payloads_are_answered_not_fatal(
        is_update in 0u32..2,
        payload in proptest::collection::vec(0u8..=255, 0..48),
    ) {
        let kind = if is_update == 1 { FrameKind::Update } else { FrameKind::Query };
        let mut stream = TcpStream::connect(fuzz_addr()).expect("connect");
        stream.write_all(&encode(&Frame::new(kind, 21, payload))).expect("write");
        let reply = recv_raw(&stream).expect("frame").expect("an answer");
        prop_assert_eq!(reply.request_id, 21);
        prop_assert!(matches!(
            reply.kind,
            FrameKind::Error | FrameKind::QueryOk | FrameKind::UpdateOk
        ));
        stream.write_all(&encode(&Frame::control(FrameKind::Ping, 22))).expect("write");
        let pong = recv_raw(&stream).expect("frame").expect("pong");
        prop_assert_eq!(pong.kind, FrameKind::Pong);
    }
}

/// Slow-loris defense: a client that connects and sends nothing must be
/// reaped by the socket read timeout — `acq_timeouts` increments, the idle
/// socket sees EOF, and the server keeps serving everyone else.
#[test]
fn a_silent_connection_is_reaped_by_the_read_timeout() {
    let engine = Arc::new(Engine::new(Arc::new(paper_figure3_graph())));
    let config = ServerConfig { read_timeout_ms: 100, ..Default::default() };
    let server = Server::bind("127.0.0.1:0", engine, config).expect("bind loopback");
    let addr = server.local_addr();

    // The slow loris: connect, say nothing.
    let loris = TcpStream::connect(addr).expect("connect silent client");

    // A well-behaved probe on its own connection watches the counter.
    let mut probe = Client::connect(addr).expect("connect probe");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = probe.metrics().expect("metrics");
        if snapshot.server.timeouts >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "read timeout never fired; acq_timeouts stayed at {}",
            snapshot.server.timeouts
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The reaped socket is closed server-side: the loris reads EOF.
    loris.set_read_timeout(Some(Duration::from_secs(10))).expect("set probe timeout");
    let mut eof = [0u8; 1];
    let n = std::io::Read::read(&mut { &loris }, &mut eof).expect("read after reap");
    assert_eq!(n, 0, "the server must have closed the silent connection");

    // Reaping one idle connection must not disturb live ones.
    probe.ping().expect("server still serves after reaping the loris");
    server.shutdown();
}

/// Both ends of every connection disable Nagle's algorithm: small frames on
/// a pipelined connection must not wait for the previous one's ACK.
#[test]
fn every_connection_sets_tcp_nodelay() {
    let engine = Arc::new(Engine::new(Arc::new(paper_figure3_graph())));
    let server =
        Server::bind("127.0.0.1:0", engine as _, ServerConfig::default()).expect("bind loopback");
    let mut clients: Vec<Client> =
        (0..2).map(|_| Client::connect(server.local_addr()).expect("connect")).collect();
    for client in &mut clients {
        // A round trip proves the server accepted and registered the socket.
        client.ping().expect("ping");
        assert_eq!(client.nodelay(), Some(true), "client socket keeps Nagle on");
    }
    let accepted = server.connections_nodelay();
    assert_eq!(accepted.len(), 2, "both connections are registered");
    assert!(accepted.iter().all(|&on| on), "accepted sockets keep Nagle on: {accepted:?}");
    server.shutdown();
}
