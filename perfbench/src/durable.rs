//! `durable-writes`: a loopback `Server::bind_durable` over one `Engine`
//! with the default flush policy (fsync before every acknowledgement,
//! compaction every 64 records). Two connections run closed loops; each
//! sends batches of 1-4 deltas on its own half of the vertices, every
//! 32nd batch led by an edge delta, and eight Dec queries (k = 6) after
//! every batch.

use crate::checker::Interner;
use crate::inputs::{Eligible, WriteMix, WriteStream, SERVING_K};
use crate::observe::Observed;
use crate::trace::{timed, Tracer};
use crate::util::{repeat_setup, Rng};
use acq_core::Request;
use acq_durable::{DurableEngine, DurableOptions};
use acq_graph::{AttributedGraph, VertexId};
use acq_metrics::serving::ServerCounters;
use acq_server::{Client, Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Queries a connection sends after each acknowledged batch. About one
/// query in a hundred stalls for 10-30 ms, though it hits the cache and
/// returns a small answer. With two queries per batch that share was
/// 1.1-1.3 %, and with four 0.8-1.0 %: right at the p99 both times, so the
/// p99 jumped between the ordinary tail (about 6 ms) and the stalled
/// queries from run to run. With eight the share is above 1 % and the
/// p99 falls inside the stalled queries.
const QUERIES_PER_BATCH: usize = 8;
/// Largest delta batch a connection sends.
const MAX_BATCH: usize = 4;
/// Every `EDGE_EVERY`-th batch of a connection starts with one edge delta;
/// no other delta touches an edge. About half of the edge deltas send the
/// CL-tree through a skeleton rebuild several times the cost of a keyword
/// write, which also delays the write queued behind it. A fixed cadence of
/// single-edge batches keeps the share of such writes the same in every
/// run, where a random draw per delta made the handful of two-edge batches
/// come and go with the seed. At this cadence the rebuilds, the writes
/// queued behind them and the compactions (two writes in 64) make up about
/// 5 % of the writes, so the update p99 falls inside them, not on their
/// sparse upper edge.
const EDGE_EVERY: u64 = 32;

struct Connection {
    rng: Rng,
    eligible: Eligible,
    writes: WriteStream,
}

pub struct Durable {
    pub graph: Arc<AttributedGraph>,
    pub durable: Arc<DurableEngine>,
    pub server: Option<ServerHandle>,
    pub dir: PathBuf,
    connections: Vec<Connection>,
    pub retries: u64,
}

impl Durable {
    /// Opens a fresh directory and binds; returns the set-up times in
    /// seconds.
    pub fn setup(
        graph: Arc<AttributedGraph>,
        rng: &mut Rng,
        work: &Path,
    ) -> std::io::Result<(Self, Vec<f64>)> {
        let half = graph.num_vertices() as u32 / 2;
        let owner = move |c: usize| move |v: VertexId| (v.0 >= half) == (c == 1);
        let mix = WriteMix { edge_share: 0.0, vertex_share: 0.05 };
        let connections = (0..2)
            .map(|c| Connection {
                rng: rng.fork(10 + c as u64),
                eligible: Eligible::new(&graph, owner(c)),
                writes: WriteStream::new(rng.fork(20 + c as u64), &graph, mix, owner(c)),
            })
            .collect();
        let ((durable, server, dir), times) =
            repeat_setup(|attempt| build(&graph, work.join(format!("durable-{attempt}"))))?;
        Ok((Self { graph, durable, server: Some(server), dir, connections, retries: 0 }, times))
    }

    /// Times more set-ups of the same kind in fresh directories, each shut
    /// down before the next.
    pub fn time_setups(&self, work: &Path) -> std::io::Result<Vec<f64>> {
        let build = |attempt| build(&self.graph, work.join(format!("durable-again-{attempt}")));
        Ok(repeat_setup(build)?.1)
    }

    pub fn counters(&self) -> ServerCounters {
        self.server.as_ref().expect("server running").metrics_snapshot().server
    }

    pub fn run(
        &mut self,
        seconds: f64,
        tracer: Option<&Tracer>,
        observed: &mut Observed,
    ) -> std::io::Result<()> {
        let addr = self.server.as_ref().expect("server running").local_addr();
        let shared = Mutex::new((std::mem::take(observed), 0u64));
        let started = Instant::now();
        let phase = Duration::from_secs_f64(seconds);
        let deadline = started + phase;
        std::thread::scope(|scope| {
            for (c, conn) in self.connections.iter_mut().enumerate() {
                let shared = &shared;
                scope.spawn(move || {
                    let mut local = Observed::default();
                    let mut interner = Interner::default();
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            local.fail("update", format!("connect: {e}"));
                            shared.lock().expect("observation lock poisoned").0.merge(local);
                            return;
                        }
                    };
                    let mut due = Instant::now();
                    let mut n = (c as u64) << 40;
                    let mut batches = 0u64;
                    while Instant::now() < deadline {
                        let batch = if batches.is_multiple_of(EDGE_EVERY) {
                            conn.writes.batch_with_edge(MAX_BATCH)
                        } else {
                            conn.writes.batch(MAX_BATCH)
                        };
                        batches += 1;
                        n += 1;
                        local.late.push(Instant::now() - due);
                        let (outcome, took) =
                            timed(tracer, "server.update", None, n, || client.update(&batch));
                        match outcome {
                            Ok(report) => {
                                local.attempt("update", true);
                                local.updates.push(took);
                                local.writes.push((batch, report));
                            }
                            Err(e) => local.fail("update", e.to_string()),
                        }
                        for _ in 0..QUERIES_PER_BATCH {
                            let q = conn.eligible.draw_at(&mut conn.rng, SERVING_K);
                            let request = Request::community(q).k(SERVING_K);
                            n += 1;
                            let into = started.elapsed();
                            let (outcome, took) =
                                timed(tracer, "server.query", None, n, || client.query(&request));
                            match outcome {
                                Ok(response) => {
                                    local.attempt("query", true);
                                    local.answered_query(took, into, phase);
                                    local.by_kind.entry("query.Dec".into()).or_default().push(took);
                                    local.answered.push((request, interner.answer(&response)));
                                }
                                Err(e) => local.fail("query", e.to_string()),
                            }
                        }
                        due = Instant::now();
                    }
                    let mut all = shared.lock().expect("observation lock poisoned");
                    all.1 += client.stats().retries;
                    all.0.merge(local);
                });
            }
        });
        let (mut all, retries) = shared.into_inner().expect("observation lock poisoned");
        all.note_peak_rss();
        *observed = all;
        self.retries += retries;
        let elapsed = started.elapsed().as_secs_f64();
        observed.query_seconds += elapsed;
        observed.update_seconds += elapsed;
        Ok(())
    }
}

/// The set-up: a durable engine opened on a fresh directory, and its server
/// bound to a loopback port.
fn build(
    graph: &Arc<AttributedGraph>,
    dir: PathBuf,
) -> std::io::Result<(Arc<DurableEngine>, ServerHandle, PathBuf)> {
    let (durable, _) = DurableEngine::open_dir(&dir, Arc::clone(graph), DurableOptions::default())?;
    let durable = Arc::new(durable);
    let server =
        Server::bind_durable("127.0.0.1:0", Arc::clone(&durable), ServerConfig::default())?;
    Ok((durable, server, dir))
}
