//! The traced run's layer probes: each layer's public functions timed on the
//! workload's own graph, requests and write batches. Every timed call is a
//! span whose parent is the probe section (layer `harness`) it belongs to.

use crate::inputs::inverse;
use crate::trace::{timed, Tracer};
use crate::util::{median, Metrics};
use acq_cltree::{build_advanced, maintenance};
use acq_core::{
    basic_g, basic_w, dec, inc_s, inc_t, sw, swt, AcqQuery, Engine, Executor, QuerySpec, Request,
    Response, ServingEngine, ShardedEngine, UpdateStrategy, Variant1Query, Variant2Query,
};
use acq_durable::{DeltaLog, DurableEngine, DurableOptions, FsStorage};
use acq_fpm::{mine_frequent_itemsets, MiningAlgorithm, Transaction};
use acq_graph::{AttributedGraph, GraphDelta, KeywordId};
use acq_kcore::{connected_kcore_containing, CoreDecomposition};
use acq_metrics::serving::ServerCounters;
use acq_server::{encode, read_frame, Client, Frame, FrameKind, Server, ServerConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Which engine the workload serves from; the server probe uses the same.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Target {
    Engine,
    Durable,
}

pub struct ProbeInputs<'a> {
    pub graph: &'a Arc<AttributedGraph>,
    pub requests: Vec<Request>,
    /// Sequentially valid batches without vertex inserts.
    pub batches: Vec<Vec<GraphDelta>>,
    pub target: Target,
    pub work: &'a Path,
}

/// Requests executed together in one `execute_batch` call.
const BATCH: usize = 8;
/// Shards of the sharded engine probed beside the single one.
const SHARDS: usize = 2;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    metrics.insert(name.to_string(), (value, unit));
}

fn acq_query(request: &Request) -> AcqQuery {
    let keywords = match &request.spec {
        QuerySpec::Community { keywords } => keywords.clone(),
        _ => None,
    };
    AcqQuery { vertex: request.vertex, k: request.k, keywords }
}

/// Runs every probe; returns the probe server's counters and retries.
pub fn probe(
    inputs: &ProbeInputs,
    tracer: &Tracer,
    metrics: &mut Metrics,
) -> std::io::Result<(ServerCounters, u64)> {
    let g = inputs.graph;
    let requests = &inputs.requests;
    let t = Some(tracer);

    let root = tracer.open("harness.graph", None, 0);
    let mut current = (**g).clone();
    let mut times = Vec::new();
    for (i, batch) in inputs.batches.iter().enumerate() {
        let (next, d) =
            timed(t, "graph.apply_deltas", Some(root.id), i as u64, || current.apply_deltas(batch));
        current = next.map_err(|e| std::io::Error::other(format!("probe batch {i}: {e}")))?;
        times.push(us(d));
    }
    drop(current);
    tracer.close(root);
    put(metrics, "graph.apply_deltas_us", median(&times), "us");

    let root = tracer.open("harness.kcore", None, 0);
    let mut times = Vec::new();
    let mut cores = None;
    for i in 0..3 {
        let (c, d) =
            timed(t, "kcore.decompose", Some(root.id), i, || CoreDecomposition::compute(g));
        times.push(ms(d));
        cores = Some(c);
    }
    let cores = cores.expect("three decompositions");
    put(metrics, "kcore.decompose_ms", median(&times), "ms");
    let times: Vec<f64> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let (_, d) = timed(t, "kcore.connected_kcore", Some(root.id), i as u64, || {
                connected_kcore_containing(g, &cores, r.vertex, r.k as u32)
            });
            us(d)
        })
        .collect();
    tracer.close(root);
    put(metrics, "kcore.connected_kcore_us", median(&times), "us");

    let root = tracer.open("harness.cltree", None, 0);
    let mut times = Vec::new();
    let mut tree = None;
    for i in 0..3 {
        let (built, d) = timed(t, "cltree.build", Some(root.id), i, || build_advanced(g, true));
        times.push(ms(d));
        tree = Some(built);
    }
    let tree = tree.expect("three builds");
    put(metrics, "cltree.build_ms", median(&times), "ms");
    let (mut locate, mut lookup, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
    for (i, r) in requests.iter().enumerate() {
        let (found, d) = timed(t, "cltree.locate_subtree", Some(root.id), i as u64, || {
            tree.locate_core(r.vertex, r.k as u32).map(|node| (node, tree.subtree_vertices(node)))
        });
        locate.push(us(d));
        if let Some((node, members)) = found {
            sizes.push(members.len() as f64);
            let first: Vec<KeywordId> = g.keyword_set(r.vertex).iter().take(1).collect();
            let (_, d) = timed(t, "cltree.inverted_lookup", Some(root.id), i as u64, || {
                tree.vertices_with_keywords_under(node, &first)
            });
            lookup.push(us(d));
        }
    }
    let mut maintain = Vec::new();
    let edges = inputs.batches.iter().flatten().filter_map(|d| match d {
        GraphDelta::InsertEdge { u, v } if !g.has_edge(*u, *v) => Some((*u, *v)),
        _ => None,
    });
    for (i, (u, v)) in edges.take(8).enumerate() {
        let staged =
            g.with_edge_inserted(u, v).map_err(|e| std::io::Error::other(e.to_string()))?;
        let mut copy = tree.clone();
        let (_, d) = timed(t, "cltree.maintain_edge", Some(root.id), i as u64, || {
            maintenance::apply_edge_insertion_in_place(&mut copy, &staged, u, v)
        });
        maintain.push(us(d));
    }
    tracer.close(root);
    put(metrics, "cltree.locate_subtree_us", median(&locate), "us");
    put(metrics, "cltree.inverted_lookup_us", median(&lookup), "us");
    put(
        metrics,
        "cltree.subtree_size",
        sizes.iter().sum::<f64>() / sizes.len().max(1) as f64,
        "count",
    );
    put(metrics, "cltree.maintain_edge_us", median(&maintain), "us");

    let root = tracer.open("harness.fpm", None, 0);
    let mut times = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        let s = acq_query(r).effective_keywords(g);
        let transactions: Vec<Transaction> = g
            .neighbors(r.vertex)
            .iter()
            .map(|&n| {
                Transaction::new(
                    g.keyword_set(n).iter().filter(|kw| s.contains(kw)).map(|kw| kw.0).collect(),
                )
            })
            .collect();
        let (_, d) = timed(t, "fpm.mine", Some(root.id), i as u64, || {
            mine_frequent_itemsets(&transactions, r.k, MiningAlgorithm::FpGrowth)
        });
        times.push(us(d));
    }
    tracer.close(root);
    put(metrics, "fpm.mine_us", median(&times), "us");

    let root = tracer.open("harness.acq", None, 0);
    let mut per: [Vec<f64>; 7] = Default::default();
    let (mut verified, mut pruned) = (0usize, 0usize);
    for (i, r) in requests.iter().enumerate() {
        let (q, id, parent) = (acq_query(r), i as u64, Some(root.id));
        let (result, d) = timed(t, "acq.dec", parent, id, || dec(g, &tree, &q));
        verified += result.stats.candidates_verified;
        pruned += result.stats.pruned_by_lemma3;
        per[0].push(us(d));
        per[1].push(us(timed(t, "acq.inc_s", parent, id, || inc_s(g, &tree, &q, true)).1));
        per[2].push(us(timed(t, "acq.inc_t", parent, id, || inc_t(g, &tree, &q, true)).1));
        let s = q.effective_keywords(g);
        let exact = Variant1Query {
            vertex: r.vertex,
            k: r.k,
            keywords: s.iter().copied().take(2).collect(),
        };
        per[3].push(us(timed(t, "acq.sw", parent, id, || sw(g, &tree, &exact)).1));
        let relaxed = Variant2Query { vertex: r.vertex, k: r.k, keywords: s, theta: 0.5 };
        per[4].push(us(timed(t, "acq.swt", parent, id, || swt(g, &tree, &relaxed)).1));
        per[5].push(us(timed(t, "acq.basic_g", parent, id, || basic_g(g, &q)).1));
        per[6].push(us(timed(t, "acq.basic_w", parent, id, || basic_w(g, &q)).1));
    }
    tracer.close(root);
    for (name, times) in
        ["dec", "inc_s", "inc_t", "sw", "swt", "basic_g", "basic_w"].iter().zip(&per)
    {
        put(metrics, &format!("acq.{name}_us"), median(times), "us");
    }
    put(metrics, "acq.candidates_verified", verified as f64, "count");
    put(metrics, "acq.pruned_by_lemma3", pruned as f64, "count");

    // The same request batches against a single engine and a sharded one,
    // both fresh on the same graph.
    let root = tracer.open("harness.engine", None, 0);
    let engine = Engine::new(Arc::clone(g));
    let sharded = ShardedEngine::new(Arc::clone(g), SHARDS);
    let (mut single, mut split) = (Vec::new(), Vec::new());
    let mut answers: Vec<Response> = Vec::new();
    for (i, chunk) in requests.chunks(BATCH).enumerate() {
        let (out, d) = timed(t, "engine.execute_batch", Some(root.id), i as u64, || {
            engine.execute_batch(chunk)
        });
        single.push(us(d));
        answers.extend(out.into_iter().filter_map(Result::ok));
        split.push(us(timed(t, "shard.execute_batch", Some(root.id), i as u64, || {
            sharded.execute_batch(chunk)
        })
        .1));
    }
    put(metrics, "engine.execute_batch_us", median(&single), "us");
    put(metrics, "shard.execute_batch_us", median(&split), "us");

    let (mut times, mut shard_times) = (Vec::new(), Vec::new());
    let (mut stable, mut rebuilt, mut full, mut touched, mut carried, mut dropped) =
        (0, 0, 0, 0, 0, 0);
    for (i, batch) in inputs.batches.iter().enumerate() {
        for r in requests.iter().cycle().skip(2 * i).take(2) {
            let _ = engine.execute(r);
        }
        let (report, d) = timed(t, "engine.apply_updates", Some(root.id), i as u64, || {
            engine.apply_updates(batch)
        });
        let report = report.map_err(|e| std::io::Error::other(e.to_string()))?;
        times.push(us(d));
        match report.strategy {
            UpdateStrategy::IncrementalStableSkeleton => stable += 1,
            UpdateStrategy::IncrementalRebuiltSkeleton => rebuilt += 1,
            UpdateStrategy::FullRebuild => full += 1,
        }
        touched += report.subcore_touched;
        carried += report.cache_carried;
        dropped += report.cache_dropped;
        let (shard_report, d) = timed(t, "shard.apply_updates", Some(root.id), i as u64, || {
            sharded.apply_updates(batch)
        });
        shard_report.map_err(|e| std::io::Error::other(e.to_string()))?;
        shard_times.push(us(d));
    }
    tracer.close(root);
    put(metrics, "engine.apply_updates_us", median(&times), "us");
    put(metrics, "engine.updates_stable", stable as f64, "count");
    put(metrics, "engine.updates_rebuilt_skeleton", rebuilt as f64, "count");
    put(metrics, "engine.updates_full_rebuild", full as f64, "count");
    put(metrics, "engine.subcore_touched", touched as f64, "count");
    put(
        metrics,
        "engine.cache_carried_ratio",
        carried as f64 / (carried + dropped).max(1) as f64,
        "ratio",
    );
    put(metrics, "shard.apply_updates_us", median(&shard_times), "us");

    let root = tracer.open("harness.durable", None, 0);
    let (mut log, _) = DeltaLog::open(Box::new(FsStorage::open(inputs.work.join("probe-log"))?))?;
    let mut times = Vec::new();
    for (i, batch) in inputs.batches.iter().enumerate() {
        let (seq, d) =
            timed(t, "durable.log_append", Some(root.id), i as u64, || log.append(batch));
        seq?;
        times.push(us(d));
    }
    put(metrics, "durable.log_append_us", median(&times), "us");
    put(
        metrics,
        "durable.log_bytes_per_write",
        log.bytes_appended() as f64 / log.records_appended().max(1) as f64,
        "bytes",
    );
    let mut times = Vec::new();
    for i in 0..3 {
        let seq = log.last_seq();
        let (done, d) =
            timed(t, "durable.snapshot", Some(root.id), i, || log.install_snapshot(g, seq));
        done?;
        times.push(ms(d));
    }
    tracer.close(root);
    put(metrics, "durable.snapshot_ms", median(&times), "ms");

    let root = tracer.open("harness.server", None, 0);
    let mut times = Vec::new();
    for (i, (r, answer)) in requests.iter().zip(&answers).enumerate() {
        let (ok, d) =
            timed(t, "server.frame_codec", Some(root.id), i as u64, || -> Result<(), String> {
                for (kind, payload) in
                    [(FrameKind::Query, json(r)), (FrameKind::QueryOk, json(answer))]
                {
                    let bytes = encode(&Frame::new(kind, i as u64, payload));
                    let frame = read_frame(&mut bytes.as_slice(), u32::MAX)
                        .map_err(|e| e.to_string())?
                        .ok_or("empty")?;
                    if kind == FrameKind::Query {
                        decode::<Request>(&frame)?;
                    } else {
                        decode::<Response>(&frame)?;
                    }
                }
                Ok(())
            });
        ok.map_err(std::io::Error::other)?;
        times.push(us(d));
    }
    put(metrics, "server.frame_codec_us", median(&times), "us");

    // A fresh engine of the workload's kind behind a loopback server; the
    // same request or batch is timed through the client and in process.
    let (serving, durable): (Arc<dyn ServingEngine>, Option<Arc<DurableEngine>>) =
        match inputs.target {
            Target::Engine => (Arc::new(Engine::new(Arc::clone(g))), None),
            Target::Durable => {
                let (d, _) = DurableEngine::open_dir(
                    inputs.work.join("probe-durable"),
                    Arc::clone(g),
                    DurableOptions::default(),
                )?;
                let d = Arc::new(d);
                (d.engine(), Some(d))
            }
        };
    let server = match &durable {
        Some(d) => Server::bind_durable("127.0.0.1:0", Arc::clone(d), ServerConfig::default())?,
        None => Server::bind("127.0.0.1:0", Arc::clone(&serving), ServerConfig::default())?,
    };
    let mut client = Client::connect(server.local_addr()).map_err(std::io::Error::other)?;
    let mut overhead = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        let _ = serving.execute(r);
        let (_, local) = timed(t, "exec.execute", Some(root.id), i as u64, || serving.execute(r));
        let (remote, d) = timed(t, "server.query", Some(root.id), i as u64, || client.query(r));
        remote.map_err(std::io::Error::other)?;
        overhead.push(us(d) - us(local));
    }
    put(metrics, "server.query_overhead_us", median(&overhead), "us");
    let apply = |batch: &[GraphDelta]| -> Result<(), String> {
        match &durable {
            Some(d) => d.log_and_apply(batch).map(drop).map_err(|e| e.to_string()),
            None => serving.apply_updates(batch).map(drop).map_err(|e| e.to_string()),
        }
    };
    let mut overhead = Vec::new();
    for (i, batch) in inputs.batches.iter().enumerate() {
        let undo =
            inverse(batch).ok_or_else(|| std::io::Error::other("probe batch is not invertible"))?;
        let (remote, d) =
            timed(t, "server.update", Some(root.id), i as u64, || client.update(batch));
        remote.map_err(std::io::Error::other)?;
        apply(&undo).map_err(std::io::Error::other)?;
        let (local, d_local) =
            timed(t, "engine.write_path", Some(root.id), i as u64, || apply(batch));
        local.map_err(std::io::Error::other)?;
        overhead.push(us(d) - us(d_local));
    }
    put(metrics, "server.write_overhead_us", median(&overhead), "us");
    tracer.close(root);
    let counters = server.metrics_snapshot().server;
    let retries = client.stats().retries;
    drop(client);
    server.shutdown();
    Ok((counters, retries))
}

fn json<T: serde::Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value).expect("benchmark payloads encode").into_bytes()
}

fn decode<T: serde::Deserialize>(frame: &Frame) -> Result<T, String> {
    let text = std::str::from_utf8(&frame.payload).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}
