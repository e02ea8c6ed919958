//! Model checks for the scatter-gather protocol: gathered answers never
//! leave input order, a concurrent writer can only ever make a reader see
//! each shard's old answer or its new answer — never a torn mix, never a
//! swap between slots — and every answer equals the single-engine answer of
//! the generation it is stamped with.
//!
//! Under `--cfg acq_model` these explore every bounded interleaving of the
//! shard workers and a writer; in normal builds they run once on real
//! threads as smoke tests. (The companion guarantee — a *panicking* shard
//! worker surfaces as the typed `QueryError::ShardFailed` on exactly its own
//! slots rather than hanging the gather — is exercised by the scatter-gather
//! unit tests in `acq-core/src/shard.rs`, because the model scheduler
//! treats any real panic as a failed schedule by design.)

use acq_core::{Engine, Executor, Request, ShardedEngine};
use acq_graph::{AttributedGraph, GraphBuilder, GraphDelta, KeywordId, VertexId};
use acq_sync::model::model;
use acq_sync::sync::Arc;
use acq_sync::thread;

/// Two triangles: `{0, 1, 2}` all carrying `x`, `{3, 4, 5}` all carrying
/// `y` — one component (and thus one shard) per triangle.
fn two_triangles() -> (Arc<AttributedGraph>, KeywordId, KeywordId) {
    let mut b = GraphBuilder::new();
    for _ in 0..3 {
        b.add_unlabeled_vertex(&["x"]);
    }
    for _ in 0..3 {
        b.add_unlabeled_vertex(&["y"]);
    }
    for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
        b.add_edge(VertexId(u), VertexId(v)).unwrap();
    }
    let g = b.build();
    let x = g.dictionary().get("x").unwrap();
    let y = g.dictionary().get("y").unwrap();
    (Arc::new(g), x, y)
}

/// Scatter-gather never reorders: while a writer strips `x` from vertex 2
/// (shrinking the first triangle's answer from `{0,1,2}` to nothing — a
/// 2-core of two vertices cannot exist), a two-shard batch must still
/// answer slot 0 with vertex 0's community (old or new, never torn) and
/// slot 1 with the untouched second triangle, under every interleaving of
/// the two shard workers against the writer.
#[test]
fn gathered_answers_keep_input_order_under_concurrent_updates() {
    model(|| {
        let (graph, x, y) = two_triangles();
        let engine = Arc::new(
            ShardedEngine::builder(Arc::clone(&graph)).num_shards(2).cache_capacity(0).build(),
        );
        let requests = vec![
            Request::community(VertexId(0)).k(2).exact_keywords([x]),
            Request::community(VertexId(3)).k(2).exact_keywords([y]),
        ];

        let writer = {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                engine
                    .apply_updates(&[GraphDelta::remove_keyword(VertexId(2), "x")])
                    .expect("apply");
            })
        };

        let answers = engine.execute_batch(&requests);
        writer.join().expect("writer");

        assert_eq!(answers.len(), 2);
        // Slot 0 belongs to vertex 0's request: its answer is exactly the
        // old community or exactly the new (empty) one.
        let slot0 = answers[0].as_ref().expect("slot 0 answers");
        let old = vec![VertexId(0), VertexId(1), VertexId(2)];
        match slot0.result.communities.as_slice() {
            [] => {}
            [community] => assert_eq!(community.vertices, old, "torn first-triangle answer"),
            more => panic!("unexpected communities: {more:?}"),
        }
        assert!(
            slot0.meta.generation == 1 || slot0.meta.generation == 2,
            "generation stamp must be a published one, got {}",
            slot0.meta.generation
        );
        // Slot 1 belongs to vertex 3's request — the writer never touches
        // that shard, so any reordering or slot mix-up is immediately
        // visible as the wrong community here.
        let slot1 = answers[1].as_ref().expect("slot 1 answers");
        assert_eq!(slot1.result.communities.len(), 1);
        assert_eq!(
            slot1.result.communities[0].vertices,
            vec![VertexId(3), VertexId(4), VertexId(5)],
            "slot 1 must hold vertex 3's community under every interleaving"
        );
    });
}

/// Generation stamps never lag: while a writer strips `x` from vertex 2 on
/// one shard, every answer a two-shard batch or a single query returns is
/// exactly what a single engine answers at the generation the answer is
/// stamped with — a pre-write answer stamped with the post-write
/// generation fails here.
#[test]
fn every_stamp_names_the_generation_that_answered() {
    model(|| {
        let (graph, x, y) = two_triangles();
        let requests = vec![
            Request::community(VertexId(0)).k(2).exact_keywords([x]),
            Request::community(VertexId(3)).k(2).exact_keywords([y]),
        ];
        let deltas = [GraphDelta::remove_keyword(VertexId(2), "x")];

        // The single-engine answers of generations 1 and 2.
        let single = Engine::builder(Arc::clone(&graph)).cache_capacity(0).threads(1).build();
        let before = single.execute_batch(&requests);
        single.apply_updates(&deltas).expect("apply");
        let after = single.execute_batch(&requests);
        let want = |generation: u64, slot: usize| match generation {
            1 => before[slot].as_ref().expect("answers").result.clone(),
            2 => after[slot].as_ref().expect("answers").result.clone(),
            other => panic!("stamp {other} names no published generation"),
        };
        assert_ne!(want(1, 0), want(2, 0), "the write must change slot 0's answer");

        let engine = Arc::new(
            ShardedEngine::builder(Arc::clone(&graph)).num_shards(2).cache_capacity(0).build(),
        );
        let writer = {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                engine.apply_updates(&deltas).expect("apply");
            })
        };
        let batch = engine.execute_batch(&requests);
        let single_query = engine.execute(&requests[0]).expect("query");
        writer.join().expect("writer");

        for (slot, answer) in batch.iter().enumerate() {
            let answer = answer.as_ref().expect("answers");
            assert_eq!(
                answer.result,
                want(answer.meta.generation, slot),
                "slot {slot} stamped {} carries another generation's answer",
                answer.meta.generation
            );
        }
        assert_eq!(
            single_query.result,
            want(single_query.meta.generation, 0),
            "query stamped {} carries another generation's answer",
            single_query.meta.generation
        );
    });
}

/// A repartition (cross-shard edge insert) concurrent with a reader: the
/// reader sees the old two-shard state or the new merged state, and its
/// single-slot answer always belongs to its own request.
#[test]
fn concurrent_repartition_yields_old_or_new_answers() {
    model(|| {
        let (graph, x, _y) = two_triangles();
        let engine = Arc::new(
            ShardedEngine::builder(Arc::clone(&graph)).num_shards(2).cache_capacity(0).build(),
        );

        let writer = {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                engine
                    .apply_updates(&[GraphDelta::insert_edge(VertexId(2), VertexId(3))])
                    .expect("apply");
            })
        };

        // The merge does not change this answer (vertex 3 carries no `x`),
        // so old and new state agree — any torn read would stand out.
        let response = engine
            .execute(&Request::community(VertexId(0)).k(2).exact_keywords([x]))
            .expect("query");
        writer.join().expect("writer");
        assert_eq!(response.result.communities.len(), 1);
        assert_eq!(
            response.result.communities[0].vertices,
            vec![VertexId(0), VertexId(1), VertexId(2)]
        );
        assert_eq!(engine.num_shards(), 2, "shard count survives a repartition");
        assert_eq!(engine.generation(), 2);
    });
}
