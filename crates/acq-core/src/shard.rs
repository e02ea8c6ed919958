//! Sharded scatter-gather execution: per-partition engines behind the same
//! [`Executor`] door.
//!
//! Communities never span connected components (every ACQ result is a
//! connected subgraph containing the query vertex), so components are the
//! free unit of sharding: a query routed to the shard owning its vertex sees
//! exactly the subgraph any algorithm could ever touch, and the answer is
//! **byte-identical** to single-engine execution (enforced by
//! `tests/property_sharding.rs`). A [`ShardedEngine`] packs the components
//! into `num_shards` balanced buckets ([`GraphPartition::by_components`]),
//! builds one graph generation per bucket — own graph, CL-tree and segmented
//! index cache — and:
//!
//! * **scatters** a query batch by routing each [`Request`] to the shard
//!   owning its vertex (ids remapped global→local through the partition's
//!   monotone maps), running the per-shard batches on concurrent workers,
//! * **gathers** the answers back into **input order** (slot-indexed, so the
//!   order is structural, not timing-dependent), remapping community members
//!   local→global — a monotone remap, so sorted stays sorted.
//!
//! A shard worker that panics poisons only its own slots: those requests are
//! answered with the typed [`QueryError::ShardFailed`] while every other
//! shard's answers are returned normally (when the whole batch lands on a
//! single shard it runs inline on the caller, where a panic propagates
//! exactly as it would on a single [`Engine`]).
//!
//! # Updates
//!
//! [`ShardedEngine::apply_updates`] stages the batch against a **global
//! mirror** of the full graph first — one whole-batch validation pass with
//! exactly the single-engine first-failure error; on `Err` no shard has been
//! touched. It then routes each delta to its owning shard: vertex inserts go
//! to the lightest shard, same-shard edge and keyword deltas are remapped to
//! local ids, and a cross-shard edge **removal** is dropped (components never
//! span shards, so the edge cannot exist — a no-op, counted exactly like the
//! single-engine no-op path). Keyword terms the batch interns that the
//! mirror's dictionary has not seen are broadcast to **every** shard in
//! batch scan order, so a `KeywordId` keeps meaning the same term on every
//! shard as on the mirror; a shard with no routed delta and no new term is
//! left as it is. A cross-shard edge *insertion* merges two components and
//! falls back to a repartition: the component packing is recomputed from
//! the updated mirror and every shard is rebuilt from its new induced
//! subgraph.
//!
//! # Consistency
//!
//! Every shard's next generation is staged off to the side (cheap: a
//! generation shares every part no delta touched with its predecessor), and
//! the mirror, the routing maps and all shard generations are published in
//! one atomic swap. A query runs entirely on the state it loaded, so its
//! answer always equals the single-engine answer of the generation it is
//! stamped with.

use crate::exec::{CacheStats, DEFAULT_CACHE_CAPACITY};
use crate::owned::{
    Engine, GraphGeneration, Maintenance, UpdateReport, UpdateStrategy, DEFAULT_REBUILD_THRESHOLD,
};
use crate::query::QueryError;
use crate::request::{Executor, Request, Response};
use acq_graph::{AttributedGraph, GraphDelta, GraphError, GraphPartition, VertexId};
use acq_sync::sync::{Arc, Mutex, RwLock};
use acq_sync::thread;

/// The engine surface a serving front-end needs, implemented by the single
/// [`Engine`] and the [`ShardedEngine`] so a server can hold either behind
/// one `Arc<dyn ServingEngine>` and serve byte-identical responses.
pub trait ServingEngine: Executor {
    /// Applies a delta batch and publishes the updated generation(s).
    fn apply_updates(&self, deltas: &[GraphDelta]) -> Result<UpdateReport, GraphError>;

    /// The currently published (logical) generation number.
    fn generation(&self) -> u64;

    /// Aggregated index-cache counters across the whole engine.
    fn cache_stats(&self) -> CacheStats;

    /// Per-shard counters, in shard order; empty for unsharded engines.
    fn shard_status(&self) -> Vec<ShardStatus> {
        Vec::new()
    }
}

impl ServingEngine for Engine {
    fn apply_updates(&self, deltas: &[GraphDelta]) -> Result<UpdateReport, GraphError> {
        Engine::apply_updates(self, deltas)
    }

    fn generation(&self) -> u64 {
        Engine::generation(self)
    }

    fn cache_stats(&self) -> CacheStats {
        Engine::cache_stats(self)
    }
}

/// A point-in-time description of one shard, for metrics snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStatus {
    /// The shard index.
    pub shard: usize,
    /// Vertices owned by the shard.
    pub vertices: usize,
    /// The shard's own generation number (bumped only by updates that
    /// touched this shard; distinct from the sharded engine's logical
    /// generation).
    pub generation: u64,
    /// The shard's index-cache counters.
    pub cache: CacheStats,
}

/// Everything a query routes through, published atomically: the full-graph
/// mirror (validation + update staging), the component partition (routing
/// maps) and one generation snapshot per shard. An update replaces the
/// generations of the shards it touched and shares the rest with the
/// previous state; in-flight queries finish on the state they loaded.
#[derive(Debug)]
struct ShardState {
    mirror: Arc<AttributedGraph>,
    partition: GraphPartition,
    shards: Vec<Arc<GraphGeneration>>,
    generation: u64,
}

/// Configures and builds a [`ShardedEngine`].
#[derive(Debug)]
pub struct ShardedEngineBuilder {
    graph: Arc<AttributedGraph>,
    num_shards: usize,
    cache_capacity: usize,
    threads: usize,
    rebuild_threshold: f64,
}

impl ShardedEngineBuilder {
    /// Sets the shard count. `0` (the default) means one shard per available
    /// core. A graph with fewer components than shards leaves the excess
    /// shards empty (they still accept future vertex inserts).
    #[must_use]
    pub fn num_shards(mut self, num_shards: usize) -> Self {
        self.num_shards = num_shards;
        self
    }

    /// Bounds **each shard's** index cache to `capacity` entries (0 disables
    /// caching). Defaults to [`DEFAULT_CACHE_CAPACITY`]; total cache memory
    /// scales with the shard count.
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the worker count of each shard's batch pool. Defaults to
    /// `1`: the scatter already runs one worker per busy shard, so per-shard
    /// pools multiply threads — raise this only for few-shard configurations
    /// with large per-shard batches (`0` = one per core).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets each shard's touched-subcore rebuild threshold (see
    /// [`EngineBuilder::rebuild_threshold`](crate::EngineBuilder::rebuild_threshold);
    /// the fraction is relative to the **shard's** vertex count).
    #[must_use]
    pub fn rebuild_threshold(mut self, fraction: f64) -> Self {
        self.rebuild_threshold = fraction;
        self
    }

    /// Builds the sharded engine: partitions the graph by components and
    /// constructs one generation (graph, CL-tree, cache) per shard.
    pub fn build(self) -> ShardedEngine {
        let num_shards = if self.num_shards == 0 {
            thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.num_shards
        };
        let partition = GraphPartition::by_components(&self.graph, num_shards);
        let shards = build_shards(&self.graph, &partition, self.cache_capacity);
        ShardedEngine {
            state: RwLock::new(Arc::new(ShardState {
                mirror: self.graph,
                partition,
                shards,
                generation: 1,
            })),
            update_lock: Mutex::new(()),
            threads: self.threads,
            settings: Maintenance {
                cache_capacity: self.cache_capacity,
                rebuild_threshold: self.rebuild_threshold,
            },
        }
    }
}

/// Materialises every shard's induced subgraph and builds its first
/// generation.
fn build_shards(
    mirror: &Arc<AttributedGraph>,
    partition: &GraphPartition,
    cache_capacity: usize,
) -> Vec<Arc<GraphGeneration>> {
    (0..partition.num_shards())
        .map(|shard| {
            let subgraph = Arc::new(partition.extract_shard(mirror, shard));
            Arc::new(GraphGeneration::build(subgraph, cache_capacity, 1))
        })
        .collect()
}

/// The sharded scatter-gather executor: one graph generation per component
/// bucket,
/// one [`Executor`] door, answers byte-identical to a single engine over the
/// full graph.
///
/// ```
/// use acq_core::{Executor, Request, ShardedEngine};
/// use acq_graph::paper_figure3_graph;
/// use std::sync::Arc;
///
/// let graph = Arc::new(paper_figure3_graph());
/// let sharded = ShardedEngine::builder(Arc::clone(&graph)).num_shards(2).build();
/// let q = graph.vertex_by_label("A").unwrap();
///
/// let response = sharded.execute(&Request::community(q).k(2)).unwrap();
/// assert_eq!(response.communities()[0].member_names(&graph), vec!["A", "C", "D"]);
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    state: RwLock<Arc<ShardState>>,
    /// Serialises writers so concurrent updates cannot stage against the
    /// same mirror and silently lose each other's deltas.
    update_lock: Mutex<()>,
    threads: usize,
    settings: Maintenance,
}

impl ShardedEngine {
    /// Starts configuring a sharded engine for `graph`.
    pub fn builder(graph: Arc<AttributedGraph>) -> ShardedEngineBuilder {
        ShardedEngineBuilder {
            graph,
            num_shards: 0,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            threads: 1,
            rebuild_threshold: DEFAULT_REBUILD_THRESHOLD,
        }
    }

    /// A sharded engine with `num_shards` shards and all other knobs at
    /// their defaults.
    pub fn new(graph: Arc<AttributedGraph>, num_shards: usize) -> Self {
        Self::builder(graph).num_shards(num_shards).build()
    }

    /// Number of shards (fixed at construction).
    pub fn num_shards(&self) -> usize {
        self.state().shards.len()
    }

    /// A snapshot of the full-graph mirror every shard subgraph is induced
    /// from (advances with every [`apply_updates`](Self::apply_updates)).
    pub fn graph(&self) -> Arc<AttributedGraph> {
        Arc::clone(&self.state().mirror)
    }

    /// The logical generation number: starts at 1 and is bumped by every
    /// [`apply_updates`](Self::apply_updates), mirroring the single-engine
    /// numbering (individual shards bump their own generations only when an
    /// update touches them).
    pub fn generation(&self) -> u64 {
        self.state().generation
    }

    /// Index-cache counters summed across every shard.
    pub fn cache_stats(&self) -> CacheStats {
        let state = self.state();
        let mut total = CacheStats::default();
        for shard in &state.shards {
            let stats = shard.cache.stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
            total.carried += stats.carried;
            total.dropped += stats.dropped;
        }
        total
    }

    /// Per-shard size, generation and cache counters, in shard order.
    pub fn shard_status(&self) -> Vec<ShardStatus> {
        let state = self.state();
        state
            .shards
            .iter()
            .enumerate()
            .map(|(shard, generation)| ShardStatus {
                shard,
                vertices: state.partition.shard_len(shard),
                generation: generation.number,
                cache: generation.cache.stats(),
            })
            .collect()
    }

    /// Applies a batch of [`GraphDelta`]s across the shards and bumps the
    /// logical generation. Validation, first-failure errors and the
    /// `deltas_applied` count are byte-identical to
    /// [`Engine::apply_updates`] on the full graph; the report's strategy is
    /// the worst any shard took and the work counters are summed over the
    /// shards. The mirror, the routing maps and every shard's next
    /// generation are published in one swap; on `Err` nothing is.
    pub fn apply_updates(&self, deltas: &[GraphDelta]) -> Result<UpdateReport, GraphError> {
        let _writer = self.update_lock.lock().expect("sharded engine update lock poisoned");
        let state = self.state();
        let num_shards = state.shards.len();
        let pre_n = state.mirror.num_vertices();

        // Stage the mirror first: one whole-batch validation pass with
        // exactly the single-engine first-failure error.
        let mut staged = (*state.mirror).clone();
        let deltas_applied = staged.apply_deltas_in_place(deltas)?.len();
        let mirror = Arc::new(staged);
        let generation = state.generation + 1;

        // The broadcast-intern set: every term the batch interns that the
        // mirror did not know, in batch scan order — the order the mirror
        // (and a single engine) assigned ids in. Every shard dictionary
        // equals the mirror's, so known terms need no broadcast.
        // `RemoveKeyword` never interns and is deliberately absent.
        let mut terms: Vec<&str> = Vec::new();
        for delta in deltas {
            match delta {
                GraphDelta::AddKeyword { term, .. } => terms.push(term),
                GraphDelta::InsertVertex { keywords, .. } => {
                    terms.extend(keywords.iter().map(String::as_str));
                }
                _ => {}
            }
        }
        terms.retain(|term| state.mirror.dictionary().get(term).is_none());

        // Route each delta to its owning shard against the evolving
        // partition, remapping ids global→local.
        let mut partition = state.partition.clone();
        let mut routed: Vec<Vec<GraphDelta>> = vec![Vec::new(); num_shards];
        let mut crossing = false;
        for delta in deltas {
            match delta {
                GraphDelta::InsertVertex { .. } => {
                    // Lightest shard; the shard graph appends the vertex at
                    // exactly the local id the partition just assigned.
                    let shard = partition.lightest_shard();
                    partition.push_vertex(shard);
                    routed[shard].push(delta.clone());
                }
                GraphDelta::InsertEdge { u, v } => {
                    if partition.shard_of(*u) == partition.shard_of(*v) {
                        routed[partition.shard_of(*u)].push(GraphDelta::InsertEdge {
                            u: partition.local_id(*u),
                            v: partition.local_id(*v),
                        });
                    } else {
                        crossing = true;
                        break;
                    }
                }
                GraphDelta::RemoveEdge { u, v } => {
                    if partition.shard_of(*u) == partition.shard_of(*v) {
                        routed[partition.shard_of(*u)].push(GraphDelta::RemoveEdge {
                            u: partition.local_id(*u),
                            v: partition.local_id(*v),
                        });
                    }
                    // A cross-shard edge cannot exist (components never span
                    // shards): removing it is a no-op, dropped here and
                    // contributing 0 to `deltas_applied` exactly like the
                    // single-engine no-op path.
                }
                GraphDelta::AddKeyword { vertex, term } => {
                    routed[partition.shard_of(*vertex)].push(GraphDelta::AddKeyword {
                        vertex: partition.local_id(*vertex),
                        term: term.clone(),
                    });
                }
                GraphDelta::RemoveKeyword { vertex, term } => {
                    routed[partition.shard_of(*vertex)].push(GraphDelta::RemoveKeyword {
                        vertex: partition.local_id(*vertex),
                        term: term.clone(),
                    });
                }
            }
        }

        if crossing {
            // A cross-shard edge insertion merges two components: recompute
            // the packing from the updated mirror and rebuild every shard
            // from its new induced subgraph.
            let partition = GraphPartition::by_components(&mirror, num_shards);
            let cache_dropped: u64 =
                state.shards.iter().map(|shard| shard.cache.len() as u64).sum();
            let shards = build_shards(&mirror, &partition, self.settings.cache_capacity);
            self.publish(ShardState { mirror, partition, shards, generation });
            return Ok(UpdateReport {
                generation,
                deltas_applied,
                strategy: UpdateStrategy::FullRebuild,
                subcore_touched: 0,
                touched_fraction: 0.0,
                cache_carried: 0,
                cache_dropped,
            });
        }

        let mut shards = Vec::with_capacity(num_shards);
        let mut strategy = UpdateStrategy::IncrementalStableSkeleton;
        let mut subcore_touched = 0usize;
        let (mut cache_carried, mut cache_dropped) = (0u64, 0u64);
        for (base, local_deltas) in state.shards.iter().zip(routed) {
            if local_deltas.is_empty() && terms.is_empty() {
                shards.push(Arc::clone(base));
                continue;
            }
            // Unreachable by construction: the routed slices were validated
            // wholesale against the mirror above.
            let (next, report) = base.stage(&terms, &local_deltas, self.settings)?;
            shards.push(Arc::new(next));
            if strategy_rank(report.strategy) > strategy_rank(strategy) {
                strategy = report.strategy;
            }
            subcore_touched += report.subcore_touched;
            cache_carried += report.cache_carried;
            cache_dropped += report.cache_dropped;
        }
        self.publish(ShardState { mirror, partition, shards, generation });
        Ok(UpdateReport {
            generation,
            deltas_applied,
            strategy,
            subcore_touched,
            touched_fraction: subcore_touched as f64 / pre_n.max(1) as f64,
            cache_carried,
            cache_dropped,
        })
    }

    /// Installs a fully staged state. The write lock is held for the pointer
    /// swap only; the superseded state is released after the guard.
    fn publish(&self, state: ShardState) {
        let superseded = {
            let mut current = self.state.write().expect("sharded engine state lock poisoned");
            std::mem::replace(&mut *current, Arc::new(state))
        };
        drop(superseded);
    }

    fn state(&self) -> Arc<ShardState> {
        Arc::clone(&self.state.read().expect("sharded engine state lock poisoned"))
    }
}

/// Severity order of the maintenance strategies, for the aggregated report.
fn strategy_rank(strategy: UpdateStrategy) -> u8 {
    match strategy {
        UpdateStrategy::IncrementalStableSkeleton => 0,
        UpdateStrategy::IncrementalRebuiltSkeleton => 1,
        UpdateStrategy::FullRebuild => 2,
    }
}

/// Finishes one shard answer: remaps community members local→global (a
/// monotone remap — sorted stays sorted), stamps the logical generation, and
/// surfaces the global id on an unknown-vertex error.
fn finish(
    result: Result<Response, QueryError>,
    globals: &[VertexId],
    generation: u64,
    query_vertex: VertexId,
) -> Result<Response, QueryError> {
    match result {
        Ok(mut response) => {
            for community in &mut response.result.communities {
                for v in &mut community.vertices {
                    *v = globals[v.index()];
                }
            }
            response.meta.generation = generation;
            Ok(response)
        }
        Err(QueryError::UnknownVertex(_)) => Err(QueryError::UnknownVertex(query_vertex)),
        Err(other) => Err(other),
    }
}

/// The scatter-gather primitive: runs each `(shard, [(slot, item), ...])`
/// task and writes its `(slot, answer)` pairs into `slots` — the gather
/// order is fixed by the slot indices, never by completion timing. With two
/// or more tasks each runs on its own worker thread and a panicking task
/// fills **only its own** slots via `failed`; a single task runs inline on
/// the caller (no thread, panics propagate as on a single engine).
fn scatter_gather<T, R>(
    slots: &mut [Option<R>],
    tasks: Vec<(usize, Vec<(usize, T)>)>,
    run: impl Fn(usize, Vec<(usize, T)>) -> Vec<(usize, R)> + Clone + Send + 'static,
    failed: impl Fn(usize) -> R,
) where
    T: Send + 'static,
    R: Send + 'static,
{
    if tasks.len() <= 1 {
        for (shard, group) in tasks {
            place(slots, run(shard, group));
        }
        return;
    }
    let mut handles = Vec::with_capacity(tasks.len());
    for (shard, group) in tasks {
        let slot_ids: Vec<usize> = group.iter().map(|&(slot, _)| slot).collect();
        let run = run.clone();
        handles.push((shard, slot_ids, thread::spawn(move || run(shard, group))));
    }
    for (shard, slot_ids, handle) in handles {
        match handle.join() {
            Ok(results) => place(slots, results),
            Err(_) => {
                for slot in slot_ids {
                    slots[slot] = Some(failed(shard));
                }
            }
        }
    }
}

/// Writes gathered `(slot, answer)` pairs; every slot is answered once.
fn place<R>(slots: &mut [Option<R>], results: Vec<(usize, R)>) {
    for (slot, result) in results {
        debug_assert!(slots[slot].is_none(), "slot {slot} answered twice");
        slots[slot] = Some(result);
    }
}

impl Executor for ShardedEngine {
    fn execute(&self, request: &Request) -> Result<Response, QueryError> {
        let state = self.state();
        request.validate(&state.mirror)?;
        let shard = state.partition.shard_of(request.vertex);
        let mut local = request.clone();
        local.vertex = state.partition.local_id(request.vertex);
        finish(
            state.shards[shard].execute(&local),
            state.partition.global_ids(shard),
            state.generation,
            request.vertex,
        )
    }

    /// Scatters the batch across the shards and gathers the answers in
    /// **input order**. Requests that fail global validation are answered in
    /// place without being routed; the rest run as one per-shard sub-batch
    /// each, all on the shard generations of the one state the batch loaded.
    fn execute_batch(&self, requests: &[Request]) -> Vec<Result<Response, QueryError>> {
        let state = self.state();
        let mut slots: Vec<Option<Result<Response, QueryError>>> = Vec::new();
        slots.resize_with(requests.len(), || None);
        let mut groups: Vec<Vec<(usize, (Request, VertexId))>> =
            vec![Vec::new(); state.shards.len()];
        for (slot, request) in requests.iter().enumerate() {
            match request.validate(&state.mirror) {
                Err(error) => slots[slot] = Some(Err(error)),
                Ok(()) => {
                    let shard = state.partition.shard_of(request.vertex);
                    let mut local = request.clone();
                    local.vertex = state.partition.local_id(request.vertex);
                    groups[shard].push((slot, (local, request.vertex)));
                }
            }
        }
        type RoutedGroup = Vec<(usize, (Request, VertexId))>;
        let tasks: Vec<(usize, RoutedGroup)> =
            groups.into_iter().enumerate().filter(|(_, group)| !group.is_empty()).collect();
        let run_state = Arc::clone(&state);
        let threads = self.threads;
        scatter_gather(
            &mut slots,
            tasks,
            move |shard, group| {
                let globals = run_state.partition.global_ids(shard);
                let (meta, locals): (Vec<(usize, VertexId)>, Vec<Request>) = group
                    .into_iter()
                    .map(|(slot, (local, vertex))| ((slot, vertex), local))
                    .unzip();
                let results = run_state.shards[shard].execute_batch(threads, &locals);
                meta.into_iter()
                    .zip(results)
                    .map(|((slot, vertex), result)| {
                        (slot, finish(result, globals, run_state.generation, vertex))
                    })
                    .collect()
            },
            |shard| Err(QueryError::ShardFailed(shard)),
        );
        slots.into_iter().map(|slot| slot.expect("every request slot is answered")).collect()
    }
}

impl ServingEngine for ShardedEngine {
    fn apply_updates(&self, deltas: &[GraphDelta]) -> Result<UpdateReport, GraphError> {
        ShardedEngine::apply_updates(self, deltas)
    }

    fn generation(&self) -> u64 {
        ShardedEngine::generation(self)
    }

    fn cache_stats(&self) -> CacheStats {
        ShardedEngine::cache_stats(self)
    }

    fn shard_status(&self) -> Vec<ShardStatus> {
        ShardedEngine::shard_status(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AcqAlgorithm;
    use acq_graph::paper_figure3_graph;

    fn sharded_and_single(num_shards: usize) -> (Arc<AttributedGraph>, ShardedEngine, Engine) {
        let graph = Arc::new(paper_figure3_graph());
        let sharded = ShardedEngine::new(Arc::clone(&graph), num_shards);
        let single = Engine::new(Arc::clone(&graph));
        (graph, sharded, single)
    }

    #[test]
    fn sharded_answers_are_byte_identical_to_single_engine() {
        for shards in 1..=4 {
            let (graph, sharded, single) = sharded_and_single(shards);
            for label in ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"] {
                let q = graph.vertex_by_label(label).unwrap();
                for algorithm in AcqAlgorithm::ALL {
                    let request = Request::community(q).k(2).algorithm(algorithm);
                    let want = single.execute(&request).unwrap();
                    let got = sharded.execute(&request).unwrap();
                    assert_eq!(got.result, want.result, "{label}/{shards} shards");
                    assert_eq!(got.meta.generation, 1);
                }
            }
        }
    }

    #[test]
    fn sharded_validation_errors_match_single_engine() {
        let (graph, sharded, single) = sharded_and_single(2);
        let a = graph.vertex_by_label("A").unwrap();
        for request in [
            Request::community(VertexId(999)).k(2),
            Request::community(a).k(0),
            Request::community(a).k(2).keywords([acq_graph::KeywordId(9999)]),
            Request::community(a).k(2).threshold(1.5),
        ] {
            assert_eq!(
                sharded.execute(&request).unwrap_err(),
                single.execute(&request).unwrap_err()
            );
        }
    }

    #[test]
    fn batch_scatter_gathers_in_input_order() {
        let (graph, sharded, single) = sharded_and_single(3);
        // Interleave shards and sprinkle invalid requests between them.
        let mut requests = Vec::new();
        for label in ["H", "A", "J", "B", "I", "C"] {
            requests.push(Request::community(graph.vertex_by_label(label).unwrap()).k(2));
            requests.push(Request::community(VertexId(999)).k(2));
        }
        let got = sharded.execute_batch(&requests);
        let want = single.execute_batch(&requests);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.as_ref().map(|r| r.result.clone()), w.as_ref().map(|r| r.result.clone()));
        }
    }

    #[test]
    fn updates_route_to_shards_and_match_single_engine() {
        let (graph, sharded, single) = sharded_and_single(2);
        let h = graph.vertex_by_label("H").unwrap();
        let b = graph.vertex_by_label("B").unwrap();
        // Same-shard edge (H–I's component), a keyword add on the other
        // shard, and a fresh vertex: exercises routing + broadcast interning.
        let deltas = vec![
            GraphDelta::insert_edge(h, graph.vertex_by_label("I").unwrap()),
            GraphDelta::add_keyword(b, "music"),
            GraphDelta::insert_vertex(Some("K"), &["music", "x"]),
        ];
        let got = sharded.apply_updates(&deltas).unwrap();
        let want = single.apply_updates(&deltas).unwrap();
        assert_eq!(got.generation, want.generation);
        assert_eq!(got.deltas_applied, want.deltas_applied);
        assert_eq!(sharded.generation(), 2);

        let updated = sharded.graph();
        assert_eq!(updated.num_vertices(), 11);
        for label in ["A", "B", "H", "K"] {
            let q = updated.vertex_by_label(label).unwrap();
            let request = Request::community(q).k(1);
            assert_eq!(
                sharded.execute(&request).unwrap().result,
                single.execute(&request).unwrap().result,
                "post-update {label}"
            );
            assert_eq!(sharded.execute(&request).unwrap().meta.generation, 2);
        }
    }

    #[test]
    fn cross_shard_edge_insert_repartitions() {
        let (graph, sharded, single) = sharded_and_single(2);
        let f = graph.vertex_by_label("F").unwrap();
        let h = graph.vertex_by_label("H").unwrap();
        assert_ne!(
            sharded.state().partition.shard_of(f),
            sharded.state().partition.shard_of(h),
            "the fixture must actually cross shards for this test to bite"
        );
        let deltas = vec![GraphDelta::insert_edge(f, h)];
        let got = sharded.apply_updates(&deltas).unwrap();
        let want = single.apply_updates(&deltas).unwrap();
        assert_eq!(got.deltas_applied, want.deltas_applied);
        assert_eq!(got.strategy, UpdateStrategy::FullRebuild);
        for label in ["A", "F", "H", "J"] {
            let q = graph.vertex_by_label(label).unwrap();
            let request = Request::community(q).k(2);
            assert_eq!(
                sharded.execute(&request).unwrap().result,
                single.execute(&request).unwrap().result,
                "post-merge {label}"
            );
        }
    }

    #[test]
    fn cross_shard_edge_removal_is_a_counted_no_op() {
        let (graph, sharded, single) = sharded_and_single(2);
        let f = graph.vertex_by_label("F").unwrap();
        let h = graph.vertex_by_label("H").unwrap();
        let a = graph.vertex_by_label("A").unwrap();
        let c = graph.vertex_by_label("C").unwrap();
        // One real removal plus one cross-shard (necessarily absent) edge.
        let deltas = vec![GraphDelta::remove_edge(f, h), GraphDelta::remove_edge(a, c)];
        let got = sharded.apply_updates(&deltas).unwrap();
        let want = single.apply_updates(&deltas).unwrap();
        assert_eq!(got.deltas_applied, want.deltas_applied);
        assert_eq!(want.deltas_applied, 1);
    }

    #[test]
    fn invalid_update_batches_leave_every_shard_untouched() {
        let (graph, sharded, single) = sharded_and_single(2);
        let h = graph.vertex_by_label("H").unwrap();
        let deltas =
            vec![GraphDelta::add_keyword(h, "zzz"), GraphDelta::insert_edge(h, VertexId(999))];
        assert_eq!(
            sharded.apply_updates(&deltas).unwrap_err(),
            single.apply_updates(&deltas).unwrap_err()
        );
        assert_eq!(sharded.generation(), 1, "nothing was published");
        assert!(sharded.graph().dictionary().get("zzz").is_none(), "staged mirror was discarded");
        for status in sharded.shard_status() {
            assert_eq!(status.generation, 1, "shard {} was touched", status.shard);
        }
    }

    #[test]
    fn more_shards_than_components_leaves_working_empty_shards() {
        let (graph, sharded, single) = sharded_and_single(8);
        assert_eq!(sharded.num_shards(), 8);
        let q = graph.vertex_by_label("J").unwrap();
        let request = Request::community(q).k(1);
        assert_eq!(
            sharded.execute(&request).unwrap().result,
            single.execute(&request).unwrap().result
        );
        // A vertex insert lands on an (empty) lightest shard and is queryable.
        sharded.apply_updates(&[GraphDelta::insert_vertex(Some("K"), &["x"])]).unwrap();
        single.apply_updates(&[GraphDelta::insert_vertex(Some("K"), &["x"])]).unwrap();
        let k = sharded.graph().vertex_by_label("K").unwrap();
        let request = Request::community(k).k(1);
        assert_eq!(
            sharded.execute(&request).unwrap().result,
            single.execute(&request).unwrap().result
        );
    }

    #[test]
    fn shard_status_reports_sizes_and_generations() {
        let (_, sharded, _) = sharded_and_single(2);
        let status = sharded.shard_status();
        assert_eq!(status.len(), 2);
        assert_eq!(status.iter().map(|s| s.vertices).sum::<usize>(), 10);
        assert!(status.iter().all(|s| s.generation == 1));
    }

    #[test]
    fn scatter_gather_answers_every_slot_in_place() {
        let mut slots: Vec<Option<i64>> = vec![None; 6];
        // Slots deliberately interleaved across tasks.
        let tasks = vec![
            (0usize, vec![(0usize, 10i64), (3, 13), (4, 14)]),
            (1, vec![(2, 12), (1, 11)]),
            (2, vec![(5, 15)]),
        ];
        scatter_gather(
            &mut slots,
            tasks,
            |_, group| group.into_iter().map(|(slot, item)| (slot, item * 2)).collect(),
            |_| -1,
        );
        assert_eq!(slots, vec![Some(20), Some(22), Some(24), Some(26), Some(28), Some(30)]);
    }

    #[test]
    fn scatter_gather_scopes_a_panic_to_the_failing_task() {
        let mut slots: Vec<Option<i64>> = vec![None; 4];
        let tasks = vec![(0usize, vec![(0usize, 1i64), (2, 3)]), (7, vec![(1, 2), (3, 4)])];
        scatter_gather(
            &mut slots,
            tasks,
            |shard, group| {
                assert!(shard != 7, "shard 7 dies");
                group
            },
            |shard| -(shard as i64),
        );
        assert_eq!(slots, vec![Some(1), Some(-7), Some(3), Some(-7)], "only shard 7's slots fail");
    }

    #[test]
    fn sharded_engine_is_send_sync_and_static() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<ShardedEngine>();
        assert_send_sync::<Arc<dyn ServingEngine>>();
    }
}
