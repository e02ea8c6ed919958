//! The owning query engine: a versioned **graph generation** handle (graph +
//! CL-tree + cache published atomically), the unified [`Request`]/[`Response`]
//! surface, and the live-update pipeline [`Engine::apply_updates`].
//!
//! Unlike the borrowed [`AcqEngine`](crate::AcqEngine) shim, an [`Engine`] is
//! `'static + Send + Sync`: it can be stored in a server, cloned-by-`Arc` and
//! queried from many sessions at once. Everything a query depends on — the
//! graph, the index built for it, and the cache scoped to that index — lives
//! in **one** [`GraphGeneration`] behind a `RwLock<Arc<_>>` handle, so every
//! query (and every batch) runs against a mutually consistent snapshot while
//! updates publish the next generation off to the side:
//!
//! * [`Engine::apply_updates`] takes a batch of [`GraphDelta`]s, applies them
//!   to a staged copy of the graph with incremental CSR/bitmap edits, routes
//!   edge deltas through the subcore maintenance kernels
//!   (`acq_kcore::maintenance` via `acq_cltree::maintenance`), batches
//!   keyword deltas through the inverted-list updates, and falls back to a
//!   full `build_advanced` rebuild when the touched-subcore fraction crosses
//!   the configurable [`rebuild_threshold`](EngineBuilder::rebuild_threshold).
//! * When the delta batch provably left the tree skeleton untouched (stable
//!   node ids), cache entries whose nodes no delta staled are **carried
//!   over** into the new generation instead of recomputed — the carry/drop
//!   counts surface in [`CacheStats`] and [`ExecutionMeta`].
//! * [`Engine::swap_index`] still publishes an externally built index for the
//!   current graph (generation bump, fresh cache), and in-flight queries
//!   always finish on the snapshot they started with.

use crate::exec::{pool, CacheKind, CacheStats, IndexCache, DEFAULT_CACHE_CAPACITY};
use crate::query::QueryError;
use crate::request::{execute_on, Executor, Request, Response};
use acq_cltree::{build_advanced, maintenance, ClTree, NodeId};
use acq_graph::{AppliedDelta, AttributedGraph, GraphDelta, GraphError};
use acq_sync::sync::{Arc, Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// One published generation: the graph, the index built for exactly that
/// graph, the cache scoped to that index, and the generation number stamped
/// into every [`Response`] served from it. Readers snapshot the whole
/// quadruple at once, so a query can never observe a graph from one
/// generation and an index from another.
///
/// Graph and index are persistent structures, so a generation staged from
/// its predecessor shares with it every part no delta touched: it costs the
/// change, not a copy of the graph and the tree.
#[derive(Debug)]
pub(crate) struct GraphGeneration {
    pub(crate) graph: Arc<AttributedGraph>,
    pub(crate) index: Arc<ClTree>,
    pub(crate) cache: IndexCache,
    pub(crate) number: u64,
}

/// The settings a generation is maintained under.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Maintenance {
    /// Capacity of each new generation's cache.
    pub(crate) cache_capacity: usize,
    /// See [`EngineBuilder::rebuild_threshold`].
    pub(crate) rebuild_threshold: f64,
}

impl GraphGeneration {
    /// Generation `number` of `graph`, with a freshly built index (advanced
    /// builder, inverted lists) and an empty cache.
    pub(crate) fn build(graph: Arc<AttributedGraph>, cache_capacity: usize, number: u64) -> Self {
        let index = Arc::new(build_advanced(&graph, true));
        Self { graph, index, cache: IndexCache::with_capacity(cache_capacity), number }
    }

    /// Answers one request on this generation.
    pub(crate) fn execute(&self, request: &Request) -> Result<Response, QueryError> {
        execute_on(&self.graph, &self.index, &self.cache, self.number, request)
    }

    /// Answers a batch on this generation over `threads` workers (see
    /// [`EngineBuilder::threads`]), in input order.
    pub(crate) fn execute_batch(
        &self,
        threads: usize,
        requests: &[Request],
    ) -> Vec<Result<Response, QueryError>> {
        let workers = pool::effective_threads(threads, requests.len());
        pool::map_ordered(requests, workers, |_, request| self.execute(request))
    }

    /// Stages the successor of this generation: interns `terms` (in order)
    /// into its graph, applies `deltas`, maintains the index and carries
    /// the cache entries no delta staled. Nothing is published; on `Err`
    /// the staged copies are discarded and `self` is unchanged.
    pub(crate) fn stage(
        &self,
        terms: &[&str],
        deltas: &[GraphDelta],
        settings: Maintenance,
    ) -> Result<(GraphGeneration, UpdateReport), GraphError> {
        // Both clones copy pointers only; every edit below copies just the
        // array, node or list it writes to, once per staged generation.
        let mut graph = (*self.graph).clone();
        for term in terms {
            graph.intern_keyword(term);
        }
        let mut tree = (*self.index).clone();
        let n0 = self.graph.num_vertices().max(1);

        let mut deltas_applied = 0usize;
        let mut touched = 0usize;
        let mut skeleton_stable = true;
        let mut full_rebuild = false;
        // Nodes whose cached pools (keyword-dependent) / cores
        // (membership-dependent) a delta staled; only consulted while the
        // skeleton stays stable.
        let mut stale_pools: HashSet<NodeId> = HashSet::new();
        let mut stale_cores: HashSet<NodeId> = HashSet::new();
        // Whether the universe size grew: cached pools are `VertexSubset`s
        // over the *old* vertex count, whose word buffers would be too short
        // for the new graph at a 64-bit word boundary — so no pool survives
        // a vertex insert. (Core entries are plain id lists, universe-free.)
        let mut vertices_inserted = false;

        for delta in deltas {
            let applied = graph.apply_deltas_in_place(std::slice::from_ref(delta))?;
            deltas_applied += applied.len();
            for record in applied {
                match record {
                    AppliedDelta::EdgeInserted(u, v) | AppliedDelta::EdgeRemoved(u, v) => {
                        if full_rebuild {
                            continue;
                        }
                        if touched as f64 >= settings.rebuild_threshold * n0 as f64 {
                            full_rebuild = true;
                            continue;
                        }
                        let inserted = matches!(record, AppliedDelta::EdgeInserted(..));
                        let report = if inserted {
                            maintenance::apply_edge_insertion_in_place(&mut tree, &graph, u, v)
                        } else {
                            maintenance::apply_edge_removal_in_place(&mut tree, &graph, u, v)
                        };
                        touched += report.subcore_size;
                        skeleton_stable &= !report.skeleton_rebuilt;
                    }
                    AppliedDelta::KeywordAdded(v, kw) => {
                        if !full_rebuild {
                            maintenance::apply_keyword_insertion(&mut tree, v, kw);
                            if skeleton_stable {
                                stale_pools.extend(tree.node_path_to_root(tree.node_of(v)));
                            }
                        }
                    }
                    AppliedDelta::KeywordRemoved(v, kw) => {
                        if !full_rebuild {
                            maintenance::apply_keyword_removal(&mut tree, v, kw);
                            if skeleton_stable {
                                stale_pools.extend(tree.node_path_to_root(tree.node_of(v)));
                            }
                        }
                    }
                    AppliedDelta::VertexInserted(v) => {
                        vertices_inserted = true;
                        if !full_rebuild {
                            maintenance::apply_vertex_insertion(&mut tree, &graph, v);
                            if skeleton_stable {
                                stale_cores.insert(tree.root());
                            }
                        }
                    }
                }
            }
        }

        let strategy = if full_rebuild {
            // Preserve the engine's inverted-list configuration: an ablation
            // engine built without lists must not gain them on a rebuild.
            tree = build_advanced(&graph, tree.has_inverted_lists());
            UpdateStrategy::FullRebuild
        } else if skeleton_stable {
            UpdateStrategy::IncrementalStableSkeleton
        } else {
            UpdateStrategy::IncrementalRebuiltSkeleton
        };

        let cache = IndexCache::with_capacity(settings.cache_capacity);
        let (cache_carried, cache_dropped) =
            if matches!(strategy, UpdateStrategy::IncrementalStableSkeleton) {
                cache.carry_from(&self.cache, |key| match key.kind {
                    CacheKind::Core => !stale_cores.contains(&key.node),
                    CacheKind::Pool => !vertices_inserted && !stale_pools.contains(&key.node),
                })
            } else {
                let dropped = self.cache.len() as u64;
                cache.note_swap_drop(dropped);
                (0, dropped)
            };

        let number = self.number + 1;
        let next = GraphGeneration { graph: Arc::new(graph), index: Arc::new(tree), cache, number };
        let report = UpdateReport {
            generation: number,
            deltas_applied,
            strategy,
            subcore_touched: touched,
            touched_fraction: touched as f64 / n0 as f64,
            cache_carried,
            cache_dropped,
        };
        Ok((next, report))
    }
}

/// Which maintenance path [`Engine::apply_updates`] took for a delta batch.
///
/// Serialisable (as the variant name string) so an [`UpdateReport`] can be
/// returned over the wire by a serving front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateStrategy {
    /// Every delta went through the incremental kernels and the CL-tree
    /// skeleton was kept verbatim: node ids stayed stable and untouched
    /// cache entries were carried into the new generation.
    IncrementalStableSkeleton,
    /// The incremental core maintenance ran, but a delta merged/split/moved a
    /// ĉore, so the skeleton was rebuilt from the maintained decomposition
    /// (skipping the from-scratch `O(m)` decomposition). Node ids changed;
    /// the new generation starts with a cold cache.
    IncrementalRebuiltSkeleton,
    /// The cumulative touched-subcore fraction crossed the engine's
    /// [`rebuild_threshold`](EngineBuilder::rebuild_threshold): incremental
    /// maintenance stopped paying for itself and the index was rebuilt from
    /// scratch with `build_advanced`.
    FullRebuild,
}

/// What one [`Engine::apply_updates`] call did. Serialisable — this is the
/// wire shape an `acq-server` `Update` frame answers with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateReport {
    /// The generation number the update published.
    pub generation: u64,
    /// Deltas that actually changed the graph (no-ops are skipped).
    pub deltas_applied: usize,
    /// The maintenance path taken.
    pub strategy: UpdateStrategy,
    /// Total subcore vertices the incremental kernels examined.
    pub subcore_touched: usize,
    /// `subcore_touched` over the pre-update vertex count.
    pub touched_fraction: f64,
    /// Cache entries carried into the new generation.
    pub cache_carried: u64,
    /// Cache entries of the old generation dropped (staled by a delta, or
    /// all of them when the skeleton changed).
    pub cache_dropped: u64,
}

/// The owning ACQ engine: one generation handle, every query kind through one
/// [`Executor`] door, and live graph updates through
/// [`apply_updates`](Self::apply_updates).
///
/// ```
/// use acq_core::{Engine, Executor, Request};
/// use acq_graph::paper_figure3_graph;
/// use std::sync::Arc;
///
/// let graph = Arc::new(paper_figure3_graph());
/// let engine = Engine::builder(Arc::clone(&graph)).cache_capacity(256).threads(2).build();
/// let q = graph.vertex_by_label("A").unwrap();
///
/// let response = engine.execute(&Request::community(q).k(2)).unwrap();
/// let ac = &response.communities()[0];
/// assert_eq!(ac.member_names(&graph), vec!["A", "C", "D"]);
/// assert_eq!(ac.label_terms(&graph), vec!["x", "y"]);
/// assert_eq!(response.meta.algorithm, "Dec");
/// ```
#[derive(Debug)]
pub struct Engine {
    current: RwLock<Arc<GraphGeneration>>,
    /// Serialises writers ([`apply_updates`](Self::apply_updates) /
    /// [`swap_index`](Self::swap_index) / [`rebuild_index`](Self::rebuild_index))
    /// so concurrent updates cannot stage against the same base generation
    /// and silently lose each other's deltas. Readers never take it.
    update_lock: Mutex<()>,
    threads: usize,
    settings: Maintenance,
}

/// Default [`EngineBuilder::rebuild_threshold`]: fall back to a full rebuild
/// once the incremental kernels have touched a quarter of the graph.
pub const DEFAULT_REBUILD_THRESHOLD: f64 = 0.25;

/// Configures and builds an [`Engine`].
#[derive(Debug)]
pub struct EngineBuilder {
    graph: Arc<AttributedGraph>,
    index: Option<Arc<ClTree>>,
    cache_capacity: usize,
    threads: usize,
    rebuild_threshold: f64,
}

impl EngineBuilder {
    /// Uses an existing shared index instead of building one (e.g. one that
    /// was incrementally maintained or deserialised from disk).
    #[must_use]
    pub fn index(mut self, index: Arc<ClTree>) -> Self {
        self.index = Some(index);
        self
    }

    /// Bounds the per-generation index cache to `capacity` entries
    /// (0 disables caching). Defaults to [`DEFAULT_CACHE_CAPACITY`].
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the worker count for [`Executor::execute_batch`]. `0` (the
    /// default) means one worker per available core; `1` forces sequential
    /// execution on the calling thread.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the touched-subcore fraction at which
    /// [`Engine::apply_updates`] abandons incremental maintenance and
    /// rebuilds the index from scratch. The check runs *before* each edge
    /// kernel, so `<= 0.0` forces a full rebuild on any edge delta and
    /// `> 1.0` effectively disables the fallback. Defaults to
    /// [`DEFAULT_REBUILD_THRESHOLD`].
    ///
    /// Cost model: an edge kernel costs `O(edges of the touched subcore)`
    /// and a skeleton rebuild `O(m·α(n))`; once the summed subcores approach
    /// a constant fraction of the graph, one `O(n + m)` `build_advanced` is
    /// cheaper than continuing to cascade (see `ARCHITECTURE.md`, "Update
    /// pipeline").
    #[must_use]
    pub fn rebuild_threshold(mut self, fraction: f64) -> Self {
        self.rebuild_threshold = fraction;
        self
    }

    /// Builds the engine, constructing the CL-tree (`advanced` builder,
    /// inverted lists enabled) if no index was supplied.
    pub fn build(self) -> Engine {
        let generation = match self.index {
            Some(index) => GraphGeneration {
                graph: self.graph,
                index,
                cache: IndexCache::with_capacity(self.cache_capacity),
                number: 1,
            },
            None => GraphGeneration::build(self.graph, self.cache_capacity, 1),
        };
        Engine {
            current: RwLock::new(Arc::new(generation)),
            update_lock: Mutex::new(()),
            threads: self.threads,
            settings: Maintenance {
                cache_capacity: self.cache_capacity,
                rebuild_threshold: self.rebuild_threshold,
            },
        }
    }
}

impl Engine {
    /// Starts configuring an engine for `graph`.
    pub fn builder(graph: Arc<AttributedGraph>) -> EngineBuilder {
        EngineBuilder {
            graph,
            index: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            threads: 0,
            rebuild_threshold: DEFAULT_REBUILD_THRESHOLD,
        }
    }

    /// An engine with all defaults: freshly built index, default cache
    /// capacity, one batch worker per core, default rebuild threshold.
    pub fn new(graph: Arc<AttributedGraph>) -> Self {
        Self::builder(graph).build()
    }

    /// A snapshot of the currently published graph. Like the index, the
    /// graph is **per generation**: [`apply_updates`](Self::apply_updates)
    /// publishes a new one while in-flight queries finish on theirs.
    pub fn graph(&self) -> Arc<AttributedGraph> {
        Arc::clone(&self.snapshot().graph)
    }

    /// A snapshot of the currently published index. Queries already running
    /// keep the snapshot they started with even if a swap happens next.
    pub fn index(&self) -> Arc<ClTree> {
        Arc::clone(&self.snapshot().index)
    }

    /// The generation number of the currently published generation (starts
    /// at 1, incremented by every [`swap_index`](Self::swap_index) /
    /// [`apply_updates`](Self::apply_updates)).
    pub fn generation(&self) -> u64 {
        self.snapshot().number
    }

    /// Counters of the current generation's index cache. A plain index swap
    /// installs a fresh cache (counters reset); an
    /// [`apply_updates`](Self::apply_updates) with a stable skeleton seeds
    /// the new cache with carried entries and records the carried/dropped
    /// counts here.
    pub fn cache_stats(&self) -> CacheStats {
        self.snapshot().cache.stats()
    }

    /// Atomically publishes `index` (built for the **current** graph) as the
    /// new generation and returns its generation number.
    ///
    /// In-flight queries are **not** interrupted: each query snapshots the
    /// generation handle when it starts and finishes on that snapshot, while
    /// new queries pick up the new index. The write lock is held only for the
    /// pointer swap — never across a query — so publishing does not block
    /// concurrent [`execute`](Executor::execute) calls for more than a
    /// pointer copy. The new generation keeps the current graph and gets a
    /// fresh (empty) cache, since cache entries are keyed by tree-node ids
    /// that are private to a tree.
    /// # Panics
    ///
    /// Panics if `index` was built for a graph with a different vertex count
    /// than the engine's current graph — the graph can advance underneath an
    /// externally built index via [`apply_updates`](Self::apply_updates), so
    /// build the index from [`Engine::graph`](Self::graph) and coordinate
    /// swaps with updates (a cheap guard; same-count structural divergence
    /// remains the caller's contract).
    pub fn swap_index(&self, index: Arc<ClTree>) -> u64 {
        let _writer = self.update_lock.lock().expect("engine update lock poisoned");
        let graph = self.graph();
        assert_eq!(
            index.decomposition().len(),
            graph.num_vertices(),
            "swap_index: index covers a different vertex count than the engine's current graph \
             (did the graph advance via apply_updates since the index was built?)"
        );
        self.publish_fresh(graph, index)
    }

    /// Rebuilds the index from the engine's current graph and publishes it —
    /// a convenience wrapper over [`swap_index`](Self::swap_index). Returns
    /// the new generation number.
    pub fn rebuild_index(&self) -> u64 {
        let _writer = self.update_lock.lock().expect("engine update lock poisoned");
        let graph = self.graph();
        let index = Arc::new(build_advanced(&graph, true));
        self.publish_fresh(graph, index)
    }

    /// Applies a batch of [`GraphDelta`]s and publishes the updated
    /// generation: graph, maintained index, and carried-over cache, all in
    /// one atomic swap. Queries running concurrently finish on their old
    /// snapshot; queries arriving after the swap see the new graph.
    ///
    /// Maintenance routing, per applied delta:
    ///
    /// * **edge insert/remove** — the traversal subcore kernels update the
    ///   core decomposition in place; the CL-tree keeps its skeleton when the
    ///   delta provably changed no ĉore (cheap clone), else rebuilds it from
    ///   the maintained decomposition. Once the cumulative touched-subcore
    ///   fraction crosses [`rebuild_threshold`](EngineBuilder::rebuild_threshold),
    ///   remaining kernels are skipped and one full `build_advanced` runs at
    ///   the end.
    /// * **keyword add/remove** — one inverted-list edit on the owning node;
    ///   the node and its ancestors are marked stale for the cache
    ///   carry-over.
    /// * **vertex insert** — the isolated vertex joins the root node in
    ///   place (stable node ids); root-scoped core entries and **every**
    ///   cached pool are staled (pools are vertex subsets over the old
    ///   universe size).
    ///
    /// On an `Err` (invalid delta) nothing is published and the engine is
    /// unchanged. Errors are detected per delta *before* that delta mutates
    /// the staged graph, and the staged copies are discarded wholesale.
    pub fn apply_updates(&self, deltas: &[GraphDelta]) -> Result<UpdateReport, GraphError> {
        self.apply_updates_interning(&[], deltas)
    }

    /// Like [`apply_updates`](Self::apply_updates), but first interns `terms`
    /// into the staged graph's keyword dictionary, in order.
    ///
    /// This is the dictionary-alignment hook for engines that hold one
    /// partition of a graph (what [`ShardedEngine`](crate::ShardedEngine)
    /// does with each shard's generation): a partition only receives the
    /// deltas it owns, but keyword ids are assigned by interning order, so
    /// every partition must intern the batch's new terms — in batch scan
    /// order — before applying its own slice. Interning an already-known
    /// term is a no-op, so passing extra terms never changes ids.
    pub fn apply_updates_interning(
        &self,
        terms: &[&str],
        deltas: &[GraphDelta],
    ) -> Result<UpdateReport, GraphError> {
        let _writer = self.update_lock.lock().expect("engine update lock poisoned");
        let (next, report) = self.snapshot().stage(terms, deltas, self.settings)?;
        self.publish(next);
        Ok(report)
    }

    /// Publishes `index` (built for `graph`, the current graph) as the next
    /// generation, with an empty cache. The caller holds the update lock.
    fn publish_fresh(&self, graph: Arc<AttributedGraph>, index: Arc<ClTree>) -> u64 {
        let cache = IndexCache::with_capacity(self.settings.cache_capacity);
        let number = self.snapshot().number + 1;
        self.publish(GraphGeneration { graph, index, cache, number })
    }

    /// Installs a fully staged generation and returns its number. The write
    /// lock is held for the pointer swap only: the superseded generation is
    /// released after the guard, so freeing whatever only it held never
    /// blocks readers waiting on the lock.
    fn publish(&self, generation: GraphGeneration) -> u64 {
        let number = generation.number;
        let superseded = {
            let mut current = self.current.write().expect("engine generation lock poisoned");
            std::mem::replace(&mut *current, Arc::new(generation))
        };
        drop(superseded);
        number
    }

    fn snapshot(&self) -> Arc<GraphGeneration> {
        Arc::clone(&self.current.read().expect("engine generation lock poisoned"))
    }
}

impl Executor for Engine {
    fn execute(&self, request: &Request) -> Result<Response, QueryError> {
        self.snapshot().execute(request)
    }

    /// Fans the batch out over the configured worker pool, answering **in
    /// input order**. The whole batch runs against one generation snapshot,
    /// so a concurrent [`swap_index`](Engine::swap_index) or
    /// [`apply_updates`](Engine::apply_updates) never splits a batch across
    /// generations (or across graphs).
    fn execute_batch(&self, requests: &[Request]) -> Vec<Result<Response, QueryError>> {
        self.snapshot().execute_batch(self.threads, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AcqAlgorithm;
    use acq_graph::{paper_figure3_graph, VertexId};

    fn figure3_engine() -> (Arc<AttributedGraph>, Engine) {
        let graph = Arc::new(paper_figure3_graph());
        let engine = Engine::new(Arc::clone(&graph));
        (graph, engine)
    }

    #[test]
    fn executes_every_spec_kind() {
        let (graph, engine) = figure3_engine();
        let a = graph.vertex_by_label("A").unwrap();
        let x = graph.dictionary().get("x").unwrap();
        let y = graph.dictionary().get("y").unwrap();

        let acq = engine.execute(&Request::community(a).k(2)).unwrap();
        assert_eq!(acq.communities()[0].member_names(&graph), vec!["A", "C", "D"]);
        assert_eq!(acq.meta.algorithm, "Dec");
        assert_eq!(acq.meta.generation, 1);

        let v1 = engine.execute(&Request::community(a).k(2).exact_keywords([x])).unwrap();
        assert_eq!(v1.communities()[0].member_names(&graph), vec!["A", "B", "C", "D"]);
        assert_eq!(v1.meta.algorithm, "SW");

        let v2 =
            engine.execute(&Request::community(a).k(2).keywords([x, y]).threshold(0.5)).unwrap();
        assert_eq!(v2.communities()[0].member_names(&graph), vec!["A", "B", "C", "D", "E"]);
        assert_eq!(v2.meta.algorithm, "SWT");
    }

    #[test]
    fn all_algorithms_agree_through_the_unified_door() {
        let (graph, engine) = figure3_engine();
        let a = graph.vertex_by_label("A").unwrap();
        let reference = engine
            .execute(&Request::community(a).k(2).algorithm(AcqAlgorithm::BasicG))
            .unwrap()
            .canonical();
        for algorithm in AcqAlgorithm::ALL {
            let response =
                engine.execute(&Request::community(a).k(2).algorithm(algorithm)).unwrap();
            assert_eq!(response.canonical(), reference, "{}", algorithm.name());
            assert_eq!(response.meta.algorithm, algorithm.name());
        }
    }

    #[test]
    fn execute_batch_preserves_input_order_and_matches_execute() {
        let (graph, engine) = figure3_engine();
        let requests: Vec<Request> = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"]
            .iter()
            .flat_map(|label| {
                let v = graph.vertex_by_label(label).unwrap();
                AcqAlgorithm::ALL.iter().map(move |&alg| Request::community(v).k(2).algorithm(alg))
            })
            .collect();
        for threads in [1usize, 4] {
            let pooled = Engine::builder(Arc::clone(&graph)).threads(threads).build();
            let results = pooled.execute_batch(&requests);
            assert_eq!(results.len(), requests.len());
            for (request, result) in requests.iter().zip(&results) {
                let expected = engine.execute(request).map(|r| r.result);
                let got = result.clone().map(|r| r.result);
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn invalid_requests_error_without_poisoning_the_batch() {
        let (graph, engine) = figure3_engine();
        let a = graph.vertex_by_label("A").unwrap();
        let requests = vec![
            Request::community(a).k(2),
            Request::community(VertexId(999)).k(2),
            Request::community(a).k(0),
        ];
        let results = engine.execute_batch(&requests);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(QueryError::UnknownVertex(VertexId(999))));
        assert_eq!(results[2], Err(QueryError::InvalidK));
    }

    #[test]
    fn swap_index_bumps_the_generation_and_resets_the_cache() {
        let (graph, engine) = figure3_engine();
        let a = graph.vertex_by_label("A").unwrap();
        let request = Request::community(a).k(2);

        let before = engine.execute(&request).unwrap();
        assert_eq!(before.meta.generation, 1);
        engine.execute(&request).unwrap();
        assert!(engine.cache_stats().hits > 0, "repeat query hits the generation cache");

        let generation = engine.rebuild_index();
        assert_eq!(generation, 2);
        assert_eq!(engine.generation(), 2);
        assert_eq!(engine.cache_stats(), CacheStats::default(), "fresh cache per generation");

        let after = engine.execute(&request).unwrap();
        assert_eq!(after.meta.generation, 2);
        assert_eq!(after.result, before.result, "same graph, same answer across generations");
    }

    #[test]
    fn apply_updates_publishes_an_updated_generation() {
        let (graph, engine) = figure3_engine();
        let h = graph.vertex_by_label("H").unwrap();
        let f = graph.vertex_by_label("F").unwrap();

        let report = engine.apply_updates(&[GraphDelta::insert_edge(h, f)]).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(report.deltas_applied, 1);
        assert_eq!(engine.generation(), 2);
        assert!(engine.graph().has_edge(h, f), "published graph carries the delta");

        // The published engine answers like a from-scratch engine on the
        // updated graph.
        let request = Request::community(h).k(1);
        let fresh = Engine::new(engine.graph()).execute(&request).unwrap();
        let live = engine.execute(&request).unwrap();
        assert_eq!(live.result, fresh.result);
        assert_eq!(live.meta.generation, 2);
    }

    #[test]
    fn apply_updates_carries_cache_over_stable_skeleton() {
        // 4-cycle: inserting a chord changes no core number and keeps the
        // skeleton, so cached entries survive into the new generation.
        let graph = Arc::new(acq_graph::unlabeled_graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]));
        let engine = Engine::new(Arc::clone(&graph));
        let request = Request::community(VertexId(0)).k(2);
        engine.execute(&request).unwrap();
        let warm_entries = {
            let stats = engine.cache_stats();
            assert!(stats.misses > 0, "the first query must have populated the cache");
            stats.misses
        };

        let report =
            engine.apply_updates(&[GraphDelta::insert_edge(VertexId(0), VertexId(2))]).unwrap();
        assert_eq!(report.strategy, UpdateStrategy::IncrementalStableSkeleton);
        assert_eq!(report.cache_carried, warm_entries, "every entry survives an internal edge");
        assert_eq!(report.cache_dropped, 0);
        let stats = engine.cache_stats();
        assert_eq!(stats.carried, warm_entries);

        // The carried entries serve the next query as hits, and the response
        // surfaces the carry count.
        let response = engine.execute(&request).unwrap();
        assert_eq!(response.meta.cache_carried, warm_entries);
        assert!(engine.cache_stats().hits > 0, "carried entries are served as hits");
        // Still byte-identical to a cold engine on the updated graph.
        let fresh = Engine::new(engine.graph()).execute(&request).unwrap();
        assert_eq!(response.result, fresh.result);
    }

    #[test]
    fn apply_updates_drops_cache_when_skeleton_rebuilds() {
        let (graph, engine) = figure3_engine();
        let a = graph.vertex_by_label("A").unwrap();
        engine.execute(&Request::community(a).k(2)).unwrap();
        let entries = engine.cache_stats().misses;
        assert!(entries > 0);

        // F–H merges two 1-ĉores: skeleton rebuild, cold cache.
        let f = graph.vertex_by_label("F").unwrap();
        let h = graph.vertex_by_label("H").unwrap();
        let report = engine.apply_updates(&[GraphDelta::insert_edge(f, h)]).unwrap();
        assert_eq!(report.strategy, UpdateStrategy::IncrementalRebuiltSkeleton);
        assert_eq!(report.cache_carried, 0);
        assert_eq!(report.cache_dropped, entries);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.carried), (0, 0, 0), "cold cache");
        assert_eq!(stats.dropped, entries, "stats record the swap-time drop");
    }

    #[test]
    fn vertex_insert_never_carries_stale_universe_pools() {
        // 64 vertices: a vertex insert crosses the 64-bit word boundary, so a
        // carried keyword pool (a VertexSubset over n = 64, one word) would
        // violate the same-universe invariant against the n = 65 graph —
        // today's consumers normalise through `component_of`, but any
        // word-zip or in-place set operation on such a pool asserts. Pools
        // must never survive a vertex insert; this pins the carry filter and
        // the answers across the boundary.
        let mut b = acq_graph::GraphBuilder::new();
        let mut ids = Vec::new();
        for i in 0..64 {
            ids.push(b.add_unlabeled_vertex(if i < 3 { &["x"] } else { &[] }));
        }
        for &(i, j) in &[(0usize, 1usize), (1, 2), (2, 0)] {
            b.add_edge(ids[i], ids[j]).unwrap();
        }
        let graph = Arc::new(b.build());
        let engine = Engine::new(Arc::clone(&graph));
        let x = graph.dictionary().get("x").unwrap();
        let request = Request::community(ids[0]).k(2).exact_keywords([x]);

        let before = engine.execute(&request).unwrap();
        assert!(engine.cache_stats().misses > 0, "the query populated a pool");

        let report = engine.apply_updates(&[GraphDelta::insert_vertex(None, &["x"])]).unwrap();
        assert_eq!(report.strategy, UpdateStrategy::IncrementalStableSkeleton);

        // Must not panic, and the (isolated) newcomer changes no community.
        let after = engine.execute(&request).unwrap();
        assert_eq!(after.result, before.result);
        let fresh = Engine::new(engine.graph()).execute(&request).unwrap();
        assert_eq!(after.result, fresh.result);
    }

    #[test]
    fn apply_updates_threshold_forces_full_rebuild() {
        let (graph, engine_default) = figure3_engine();
        let engine = Engine::builder(Arc::clone(&graph)).rebuild_threshold(0.0).build();
        let h = graph.vertex_by_label("H").unwrap();
        let f = graph.vertex_by_label("F").unwrap();
        let report = engine.apply_updates(&[GraphDelta::insert_edge(h, f)]).unwrap();
        assert_eq!(report.strategy, UpdateStrategy::FullRebuild);
        assert_eq!(report.subcore_touched, 0, "threshold 0 skips the kernels entirely");

        // Same answers as the incremental path on the same deltas.
        engine_default.apply_updates(&[GraphDelta::insert_edge(h, f)]).unwrap();
        for v in ["H", "F", "A"] {
            let q = graph.vertex_by_label(v).unwrap();
            let request = Request::community(q).k(2);
            assert_eq!(
                engine.execute(&request).unwrap().result,
                engine_default.execute(&request).unwrap().result,
                "rebuild and incremental must agree on {v}"
            );
        }
    }

    #[test]
    fn apply_updates_rejects_invalid_deltas_without_publishing() {
        let (graph, engine) = figure3_engine();
        let a = graph.vertex_by_label("A").unwrap();
        let h = graph.vertex_by_label("H").unwrap();
        let f = graph.vertex_by_label("F").unwrap();
        let err = engine
            .apply_updates(&[
                GraphDelta::insert_edge(h, f),
                GraphDelta::insert_edge(a, VertexId(999)),
            ])
            .unwrap_err();
        assert_eq!(err, GraphError::UnknownVertex(VertexId(999)));
        assert_eq!(engine.generation(), 1, "nothing was published");
        assert!(!engine.graph().has_edge(h, f), "staged changes were discarded");
    }

    #[test]
    fn apply_updates_handles_vertex_inserts_and_keywords() {
        let (graph, engine) = figure3_engine();
        let b = graph.vertex_by_label("B").unwrap();
        let report = engine
            .apply_updates(&[
                GraphDelta::add_keyword(b, "music"),
                GraphDelta::insert_vertex(Some("K"), &["x", "music"]),
                GraphDelta::insert_edge(VertexId(10), b),
            ])
            .unwrap();
        assert_eq!(report.deltas_applied, 3);
        let updated = engine.graph();
        assert_eq!(updated.num_vertices(), 11);
        let k = updated.vertex_by_label("K").unwrap();
        let request = Request::community(k).k(1);
        let live = engine.execute(&request).unwrap();
        let fresh = Engine::new(Arc::clone(&updated)).execute(&request).unwrap();
        assert_eq!(live.result, fresh.result);
    }

    #[test]
    fn engine_is_send_sync_and_static() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Request>();
        assert_send_sync::<Response>();
    }
}
