//! Pins the on-disk and wire format of a graph generation.
//!
//! Graph generations share every part an update did not touch, so a graph
//! reached through a chain of deltas is laid out very differently in memory
//! from one built in a single pass. Neither its JSON form nor its durable
//! snapshot may show that: both must be byte-identical to the fresh build's,
//! and a snapshot written by the earlier contiguous layout must still load.

use attributed_community_search::durable::{DeltaLog, MemStorage, SNAPSHOT_FILE};
use attributed_community_search::prelude::*;

/// Vertex count of the fixture.
const N: u32 = 700;

/// The keywords vertex `i` starts with.
fn initial_terms(i: u32) -> Vec<String> {
    let mut terms = vec![format!("t{}", i % 7)];
    if i.is_multiple_of(3) {
        terms.push(format!("t{}", 7 + i % 11));
    }
    terms
}

/// The label vertex `i` starts with.
fn label(i: u32) -> Option<String> {
    (!i.is_multiple_of(3)).then(|| format!("v{i}"))
}

/// The edges the base graph starts with.
fn initial_edges() -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for i in 0..N {
        if !i.is_multiple_of(5) && i + 1 < N {
            edges.push((i, i + 1));
        }
        let j = (i * 7 + 3) % N;
        if j != i {
            edges.push((i.min(j), i.max(j)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// The delta chain applied to the base graph, one batch at a time.
fn delta_chain() -> Vec<Vec<GraphDelta>> {
    vec![
        vec![GraphDelta::add_keyword(VertexId(5), "fresh-term")],
        vec![GraphDelta::add_keyword(VertexId(600), "t3")],
        vec![GraphDelta::remove_keyword(VertexId(9), "t2")],
        vec![GraphDelta::insert_edge(VertexId(0), VertexId(699))],
        vec![GraphDelta::remove_edge(VertexId(1), VertexId(2))],
        vec![
            GraphDelta::insert_vertex(Some("late"), &["t1", "fresh-term", "another"]),
            GraphDelta::insert_edge(VertexId(N), VertexId(3)),
        ],
    ]
}

/// The base graph with every batch of [`delta_chain`] applied in turn.
fn graph_by_deltas() -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for i in 0..N {
        let terms = initial_terms(i);
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        match label(i) {
            Some(l) => b.add_vertex(&l, &refs),
            None => b.add_unlabeled_vertex(&refs),
        };
    }
    for (u, v) in initial_edges() {
        b.add_edge(VertexId(u), VertexId(v)).unwrap();
    }
    let mut g = b.build();
    for batch in delta_chain() {
        g = g.apply_deltas(&batch).unwrap();
    }
    g
}

/// The graph [`graph_by_deltas`] reaches, built in one pass from its final
/// contents (terms interned in the order the chain first saw them).
fn graph_built_fresh() -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for i in 0..N {
        for t in initial_terms(i) {
            b.intern_keyword(&t);
        }
    }
    b.intern_keyword("fresh-term");
    b.intern_keyword("another");
    for i in 0..N {
        let mut terms = initial_terms(i);
        match i {
            5 => terms.push("fresh-term".into()),
            600 => terms.push("t3".into()),
            9 => terms.retain(|t| t != "t2"),
            _ => {}
        }
        let ids = terms.iter().map(|t| b.intern_keyword(t)).collect();
        b.add_vertex_with_ids(label(i), ids);
    }
    let late = ["t1", "fresh-term", "another"].iter().map(|t| b.intern_keyword(t)).collect();
    b.add_vertex_with_ids(Some("late".into()), late);
    for (u, v) in initial_edges() {
        if (u, v) != (1, 2) {
            b.add_edge(VertexId(u), VertexId(v)).unwrap();
        }
    }
    b.add_edge(VertexId(0), VertexId(699)).unwrap();
    b.add_edge(VertexId(N), VertexId(3)).unwrap();
    b.build()
}

/// The bytes of a durable snapshot of `graph` at sequence number `seq`.
fn snapshot_bytes(graph: &AttributedGraph, seq: u64) -> Vec<u8> {
    let disk = MemStorage::new();
    let (mut log, _) = DeltaLog::open(Box::new(disk.clone())).unwrap();
    log.install_snapshot(graph, seq).unwrap();
    disk.contents(SNAPSHOT_FILE).expect("snapshot installed")
}

#[test]
fn delta_chain_serializes_like_a_fresh_build() {
    let chained = graph_by_deltas();
    let fresh = graph_built_fresh();
    assert_eq!(chained.num_vertices(), N as usize + 1);
    assert_eq!(
        serde_json::to_string(&chained).unwrap(),
        serde_json::to_string(&fresh).unwrap(),
        "JSON form depends on how the graph was reached"
    );
    assert_eq!(snapshot_bytes(&chained, 6), snapshot_bytes(&fresh, 6));
}

#[test]
fn snapshot_written_by_the_contiguous_layout_still_loads() {
    // Written by the layout that kept one contiguous vector per field, from
    // `graph_by_deltas()` at sequence number 6.
    let old = include_bytes!("fixtures/snapshot_contiguous_layout.bin").to_vec();
    let disk = MemStorage::new();
    disk.insert(SNAPSHOT_FILE, old.clone());
    let (_, recovered) = DeltaLog::open(Box::new(disk)).unwrap();
    assert!(!recovered.snapshot_discarded);
    assert_eq!(recovered.snapshot_seq, 6);
    let loaded = recovered.snapshot.expect("snapshot loads");

    let expected = graph_by_deltas();
    assert_eq!(loaded.num_vertices(), expected.num_vertices());
    for v in expected.vertices() {
        assert_eq!(loaded.neighbors(v), expected.neighbors(v));
        assert_eq!(loaded.keyword_terms(v), expected.keyword_terms(v));
        assert_eq!(loaded.label(v), expected.label(v));
        assert_eq!(loaded.adjacency_row(v), expected.adjacency_row(v));
    }
    // The loaded graph keeps working under deltas and writes the same bytes.
    assert_eq!(snapshot_bytes(&loaded, 6), old);
    let next = loaded.apply_deltas(&[GraphDelta::add_keyword(VertexId(1), "another")]).unwrap();
    assert!(next.keyword_terms(VertexId(1)).contains(&"another"));
}
