//! Delta-apply vs full-rebuild latency for the live-update pipeline
//! (`Engine::apply_updates`), across delta-batch sizes.
//!
//! Three arms per batch size:
//!
//! * `incremental` — an unreachable `rebuild_threshold`: every edge delta
//!   goes through
//!   the traversal subcore kernels; the CL-tree keeps (and shares) its nodes
//!   when the skeleton is provably unchanged, else rebuilds the skeleton
//!   from the maintained decomposition;
//! * `full-rebuild` — `rebuild_threshold(-1.0)`: the kernels are skipped and
//!   the index is rebuilt from scratch with `build_advanced` (the historical
//!   behaviour of the update path);
//! * `graph-deltas-only` — `AttributedGraph::apply_deltas` alone, isolating
//!   the incremental CSR/bitmap maintenance from index work.
//!
//! A fourth group, `one-keyword-paper-scale`, times a single keyword add or
//! remove through `Engine::apply_updates` on the 10^5-vertex DBLP-like
//! graph the paper's efficiency figures use: the update whose cost is one
//! inverted-list edit, not a copy of the graph and the CL-tree. A fifth,
//! `wide-batch`, times batches of many edge or many vertex deltas, which
//! copy each shared array once per batch and edit the copy in place.
//!
//! Before timing, every batch is **asserted equivalent**: the incremental
//! and full-rebuild engines (for the keyword group, the maintained engine
//! and one rebuilt from its graph) must produce identical query results on
//! the updated graph, so the CI smoke run fails on maintenance regressions
//! instead of letting them rot. Set `BENCH_QUICK=1` for the CI smoke
//! configuration; `BENCH_JSONL=<file>` appends machine-readable results
//! (see `BENCH_maintenance.json` at the repository root for the baseline).

use acq_bench::{default_fixture, fixture, BenchFixture};
use acq_core::{Engine, Executor, Request, UpdateStrategy};
use acq_graph::{GraphDelta, VertexId};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

/// Whether the CI smoke configuration is active.
fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn bench_fixture() -> BenchFixture {
    if quick() {
        fixture(&acq_datagen::tiny(), 2.0, 5, 3)
    } else {
        default_fixture()
    }
}

fn batch_sizes() -> Vec<usize> {
    if quick() {
        vec![1, 8]
    } else {
        vec![1, 4, 16, 64]
    }
}

/// A deterministic batch of `size` edge-toggling deltas plus a sprinkle of
/// keyword churn (every 4th delta), drawn from a splitmix-style stream.
fn delta_batch(fx: &BenchFixture, size: usize, salt: u64) -> Vec<GraphDelta> {
    let n = fx.graph.num_vertices() as u64;
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut deltas = Vec::with_capacity(size);
    while deltas.len() < size {
        let u = VertexId((next() % n) as u32);
        let v = VertexId((next() % n) as u32);
        if u == v {
            continue;
        }
        if deltas.len() % 4 == 3 {
            deltas.push(GraphDelta::add_keyword(u, "bench-churn"));
        } else if fx.graph.has_edge(u, v) {
            deltas.push(GraphDelta::remove_edge(u, v));
        } else {
            deltas.push(GraphDelta::insert_edge(u, v));
        }
    }
    deltas
}

/// An engine over the fixture's shared graph+index with the given rebuild
/// threshold (cache enabled so carry-over runs too).
fn engine(fx: &BenchFixture, threshold: f64) -> Engine {
    Engine::builder(Arc::clone(&fx.graph))
        .index(Arc::clone(&fx.index))
        .threads(1)
        .rebuild_threshold(threshold)
        .build()
}

/// Equivalence gate: both maintenance policies answer the fixture workload
/// identically after consuming `deltas`.
fn assert_policies_agree(fx: &BenchFixture, deltas: &[GraphDelta]) {
    let incremental = engine(fx, f64::INFINITY);
    let rebuild = engine(fx, -1.0);
    let a = incremental.apply_updates(deltas).expect("valid deltas");
    let b = rebuild.apply_updates(deltas).expect("valid deltas");
    assert_ne!(
        a.strategy,
        UpdateStrategy::FullRebuild,
        "an unreachable threshold must stay incremental"
    );
    assert_eq!(b.strategy, UpdateStrategy::FullRebuild, "threshold -1.0 must force rebuild");
    for &q in &fx.queries {
        for request in [Request::community(q).k(4), Request::community(q).k(6)] {
            assert_eq!(
                incremental.execute(&request).expect("valid").result,
                rebuild.execute(&request).expect("valid").result,
                "incremental and rebuild diverged on {q:?}"
            );
        }
    }
}

fn bench_apply_updates(c: &mut Criterion) {
    let fx = bench_fixture();
    for size in batch_sizes() {
        let deltas = delta_batch(&fx, size, size as u64);
        assert_policies_agree(&fx, &deltas);

        let mut group = c.benchmark_group(format!("maintenance/batch={size}"));
        group.sample_size(if quick() { 2 } else { 15 });
        // Engine construction happens outside `b.iter`, so only the
        // apply_updates call (stage + maintain + publish) is timed; each
        // sample gets a fresh engine so every timed call applies the batch.
        group.bench_function("incremental", |b| {
            let e = engine(&fx, f64::INFINITY);
            b.iter(|| std::hint::black_box(e.apply_updates(&deltas).expect("valid")))
        });
        group.bench_function("full-rebuild", |b| {
            let e = engine(&fx, -1.0);
            b.iter(|| std::hint::black_box(e.apply_updates(&deltas).expect("valid")))
        });
        group.bench_function("graph-deltas-only", |b| {
            b.iter(|| std::hint::black_box(fx.graph.apply_deltas(&deltas).expect("valid")))
        });
        group.finish();
    }
}

/// Finds a single skeleton-preserving edge insertion — both endpoints in one
/// CL-tree node, no core number moves — the triadic-closure shape that
/// dominates real social-graph update streams and that the maintenance
/// short-circuit exists for.
fn internal_edge_delta(fx: &BenchFixture) -> Option<GraphDelta> {
    use acq_cltree::maintenance::apply_edge_insertion_with_report;
    for node in fx.index.preorder() {
        let vertices = &fx.index.node(node).vertices;
        for (i, &u) in vertices.iter().enumerate().take(40) {
            for &v in vertices.iter().skip(i + 1).take(40) {
                if fx.graph.has_edge(u, v) {
                    continue;
                }
                let g2 = fx.graph.with_edge_inserted(u, v).expect("valid edge");
                let (_, report) = apply_edge_insertion_with_report(&fx.index, &g2, u, v);
                if !report.skeleton_rebuilt {
                    return Some(GraphDelta::insert_edge(u, v));
                }
            }
        }
    }
    None
}

fn bench_single_internal_edge(c: &mut Criterion) {
    let fx = bench_fixture();
    let Some(delta) = internal_edge_delta(&fx) else {
        eprintln!("maintenance bench: fixture has no internal edge candidate, skipping");
        return;
    };
    let deltas = vec![delta];
    assert_policies_agree(&fx, &deltas);
    {
        let e = engine(&fx, f64::INFINITY);
        let report = e.apply_updates(&deltas).expect("valid");
        assert_eq!(
            report.strategy,
            UpdateStrategy::IncrementalStableSkeleton,
            "the probed edge must keep the skeleton"
        );
    }
    let mut group = c.benchmark_group("maintenance/single-edge-internal");
    group.sample_size(if quick() { 2 } else { 15 });
    group.bench_function("incremental", |b| {
        let e = engine(&fx, f64::INFINITY);
        b.iter(|| std::hint::black_box(e.apply_updates(&deltas).expect("valid")))
    });
    group.bench_function("full-rebuild", |b| {
        let e = engine(&fx, -1.0);
        b.iter(|| std::hint::black_box(e.apply_updates(&deltas).expect("valid")))
    });
    group.finish();
}

fn bench_cache_carry_over(c: &mut Criterion) {
    // How much a warm cache buys across a skeleton-preserving update: time
    // only the FIRST post-update workload pass, against a generation that
    // carried its predecessor's entries vs one that started cold. All setup
    // (engine construction, warming, the update itself) happens outside
    // `b.iter`, so each sample's timed section is exactly one workload pass
    // on a freshly published generation. A skeleton-preserving edge (probed
    // via `internal_edge_delta`) guarantees the carried arm actually
    // carries; if the fixture has none, the group is skipped.
    let fx = bench_fixture();
    let Some(delta) = internal_edge_delta(&fx) else {
        eprintln!("maintenance bench: fixture has no internal edge candidate, skipping");
        return;
    };
    let deltas = vec![delta];
    let requests: Vec<Request> =
        fx.queries.iter().map(|&q| Request::community(q).k(if quick() { 3 } else { 6 })).collect();

    let mut group = c.benchmark_group("maintenance/first-queries-after-update");
    group.sample_size(if quick() { 2 } else { 15 });
    group.bench_function("carried-cache", |b| {
        let e = engine(&fx, f64::INFINITY);
        for request in &requests {
            e.execute(request).expect("valid"); // warm — untimed
        }
        let report = e.apply_updates(&deltas).expect("valid"); // untimed
        assert!(report.cache_carried > 0, "the carried arm must actually carry");
        b.iter(|| {
            for request in &requests {
                std::hint::black_box(e.execute(request).expect("valid"));
            }
        })
    });
    group.bench_function("cold-cache", |b| {
        let e = engine(&fx, f64::INFINITY);
        e.apply_updates(&deltas).expect("valid"); // untimed; nothing to carry
        b.iter(|| {
            for request in &requests {
                std::hint::black_box(e.execute(request).expect("valid"));
            }
        })
    });
    group.finish();
}

/// The paper-scale fixture (about 10^5 vertices, the DBLP-like profile the
/// paper's efficiency figures run on); the tiny profile under `BENCH_QUICK`.
fn paper_scale_fixture() -> BenchFixture {
    if quick() {
        fixture(&acq_datagen::tiny(), 2.0, 5, 3)
    } else {
        fixture(&acq_datagen::dblp(), 25.0, 20, 6)
    }
}

/// A query vertex and a term it lacks but one of its neighbours carries, so
/// adding the term can change the vertex's community.
fn keyword_toggle(fx: &BenchFixture) -> (VertexId, String) {
    let g = &fx.graph;
    for &q in &fx.queries {
        for &u in g.neighbors(q) {
            if let Some(kw) = g.keyword_set(u).iter().find(|&kw| !g.keyword_set(q).contains(kw)) {
                let term = g.dictionary().term(kw).expect("interned").to_owned();
                return (q, term);
            }
        }
    }
    panic!("fixture has no query vertex lacking a neighbour's keyword");
}

fn bench_one_keyword_paper_scale(c: &mut Criterion) {
    // One keyword add or remove on a 10^5-vertex graph: the update the
    // inverted-list edit alone should price. A generation shares every
    // array of the graph and every node of the CL-tree the edit leaves
    // alone, so the cost is one array of keyword-set pointers and one tree
    // node, not a copy of the whole pair.
    let fx = paper_scale_fixture();
    let (q, term) = keyword_toggle(&fx);
    let add = vec![GraphDelta::add_keyword(q, &term)];
    let remove = vec![GraphDelta::remove_keyword(q, &term)];

    // Equivalence gate: after the add and after the remove, the maintained
    // engine answers like one rebuilt from scratch on its published graph.
    let e = engine(&fx, f64::INFINITY);
    for deltas in [&add, &remove] {
        let report = e.apply_updates(deltas).expect("valid");
        assert_eq!(report.deltas_applied, 1, "the toggle must change the graph");
        assert_eq!(report.strategy, UpdateStrategy::IncrementalStableSkeleton);
        let rebuilt = Engine::new(e.graph());
        for &v in fx.queries.iter().chain([&q]) {
            for request in [Request::community(v).k(4), Request::community(v).k(6)] {
                assert_eq!(
                    e.execute(&request).expect("valid").result,
                    rebuilt.execute(&request).expect("valid").result,
                    "keyword maintenance and rebuild diverged on {v:?}"
                );
            }
        }
    }

    let mut group = c.benchmark_group("maintenance/one-keyword-paper-scale");
    group.sample_size(if quick() { 2 } else { 40 });
    // The harness calls the body once per sample, so the toggle lives
    // outside it: every timed call changes the graph.
    let mut added = false;
    group.bench_function("incremental", |b| {
        b.iter(|| {
            added = !added;
            let deltas = if added { &add } else { &remove };
            let report = e.apply_updates(deltas).expect("valid");
            assert_eq!(report.deltas_applied, 1, "the toggle must change the graph");
            std::hint::black_box(report)
        })
    });
    group.finish();
}

/// `size` insertions of distinct absent edges, and the batch that removes
/// them again.
fn edge_batch_and_inverse(fx: &BenchFixture, size: usize) -> (Vec<GraphDelta>, Vec<GraphDelta>) {
    let n = fx.graph.num_vertices() as u64;
    let mut state = 0xD1B5_4A32_D192_ED03u64;
    let mut seen = std::collections::HashSet::new();
    let mut insert = Vec::with_capacity(size);
    while insert.len() < size {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = VertexId(((state >> 11) % n) as u32);
        let v = VertexId(((state >> 37) % n) as u32);
        if u != v && !fx.graph.has_edge(u, v) && seen.insert((u.min(v), u.max(v))) {
            insert.push(GraphDelta::insert_edge(u, v));
        }
    }
    let remove = insert
        .iter()
        .rev()
        .map(|delta| match delta {
            GraphDelta::InsertEdge { u, v } => GraphDelta::remove_edge(*u, *v),
            _ => unreachable!("only edge insertions"),
        })
        .collect();
    (insert, remove)
}

/// `size` vertex insertions, each with two terms of the fixture's
/// dictionary, so the batch grows every per-vertex array.
fn vertex_batch(fx: &BenchFixture, size: usize) -> Vec<GraphDelta> {
    let terms: Vec<&str> = fx.graph.dictionary().iter().map(|(_, term)| term).collect();
    (0..size)
        .map(|i| {
            let pair = [terms[i % terms.len()], terms[(7 * i + 3) % terms.len()]];
            GraphDelta::insert_vertex(None, &pair)
        })
        .collect()
}

fn bench_wide_batches(c: &mut Criterion) {
    // Batches of many edge or many vertex deltas: a staged generation copies
    // each shared array once, on its first write, and applies the remaining
    // deltas of the batch to that copy in place.
    let fx = bench_fixture();
    let size = if quick() { 16 } else { 256 };
    let (insert, remove) = edge_batch_and_inverse(&fx, size);
    let vertices = vertex_batch(&fx, size);
    assert_policies_agree(&fx, &insert);
    // Vertex inserts never trigger a full rebuild, so the vertex batch is
    // gated against an engine rebuilt from the maintained graph instead.
    let maintained = engine(&fx, f64::INFINITY);
    maintained.apply_updates(&vertices).expect("valid");
    let rebuilt = Engine::new(maintained.graph());
    for &q in &fx.queries {
        for request in [Request::community(q).k(4), Request::community(q).k(6)] {
            assert_eq!(
                maintained.execute(&request).expect("valid").result,
                rebuilt.execute(&request).expect("valid").result,
                "vertex maintenance and rebuild diverged on {q:?}"
            );
        }
    }

    let mut group = c.benchmark_group(format!("maintenance/wide-batch={size}"));
    group.sample_size(if quick() { 2 } else { 15 });
    // One engine across samples (the harness calls the body once per
    // sample), alternating the insertions and their removal, so every timed
    // call changes the graph.
    let edges = engine(&fx, f64::INFINITY);
    let mut inserted = false;
    group.bench_function("edges/incremental", |b| {
        b.iter(|| {
            inserted = !inserted;
            let deltas = if inserted { &insert } else { &remove };
            let report = edges.apply_updates(deltas).expect("valid");
            assert_eq!(report.deltas_applied, size, "every delta must change the graph");
            std::hint::black_box(report)
        })
    });
    group.bench_function("edges/graph-deltas-only", |b| {
        b.iter(|| std::hint::black_box(fx.graph.apply_deltas(&insert).expect("valid")))
    });
    group.bench_function("vertices/incremental", |b| {
        let e = engine(&fx, f64::INFINITY);
        b.iter(|| std::hint::black_box(e.apply_updates(&vertices).expect("valid")))
    });
    group.bench_function("vertices/graph-deltas-only", |b| {
        b.iter(|| std::hint::black_box(fx.graph.apply_deltas(&vertices).expect("valid")))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_apply_updates,
    bench_single_internal_edge,
    bench_cache_carry_over,
    bench_one_keyword_paper_scale,
    bench_wide_batches
);
criterion_main!(benches);
