//! Inputs of the two workloads: the graphs, the request mixes and the
//! write streams. Graphs come from fixed profile seeds, so every run of a
//! workload serves the same graph; `--seed` drives everything sent to it.

use crate::util::Rng;
use acq_core::{AcqAlgorithm, Request};
use acq_graph::{AttributedGraph, GraphDelta, KeywordId, VertexId};
use acq_kcore::CoreDecomposition;
use std::collections::HashSet;
use std::sync::Arc;

/// The degree bounds `paper-scale-reads` draws from.
pub const KS: [usize; 3] = [4, 6, 8];

/// The degree bound of `durable-writes`' queries: the paper's default. At
/// k = 4 most answers on its graph are the label-free k-ĉore fallback of
/// about 11 000 vertices, which would make encoding large answers, not
/// serving beside writes, the cost the workload measures.
pub const SERVING_K: usize = 6;

/// Input sizes: the full benchmark, or the tiny quick mode.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    /// About 10^5 vertices (Figs. 13-15 of the paper run on DBLP-like data).
    pub fn paper_vertices(self) -> usize {
        if self.quick {
            2_000
        } else {
            100_000
        }
    }

    pub fn durable_vertices(self) -> usize {
        if self.quick {
            1_500
        } else {
            20_000
        }
    }
}

fn dblp_like(vertices: usize, seed: u64) -> AttributedGraph {
    let profile = acq_datagen::dblp();
    let profile = profile.scaled(vertices as f64 / profile.num_vertices as f64).with_seed(seed);
    acq_datagen::generate(&profile)
}

pub fn paper_graph(scale: Scale) -> AttributedGraph {
    dblp_like(scale.paper_vertices(), acq_datagen::dblp().seed)
}

pub fn durable_graph(scale: Scale) -> AttributedGraph {
    dblp_like(scale.durable_vertices(), acq_datagen::dblp().seed ^ 0xD0_0AB1E)
}

/// Query vertices per degree bound: every vertex whose core number is at
/// least `k` and that carries a keyword.
#[derive(Debug, Clone)]
pub struct Eligible {
    pub by_k: Vec<(usize, Vec<VertexId>)>,
}

impl Eligible {
    pub fn new(graph: &AttributedGraph, owned: impl Fn(VertexId) -> bool) -> Self {
        let cores = CoreDecomposition::compute(graph);
        let by_k = KS
            .iter()
            .map(|&k| {
                let vs: Vec<VertexId> = graph
                    .vertices()
                    .filter(|&v| {
                        owned(v)
                            && cores.core_number(v) as usize >= k
                            && !graph.keyword_set(v).is_empty()
                    })
                    .collect();
                (k, vs)
            })
            .filter(|(_, vs)| !vs.is_empty())
            .collect();
        Self { by_k }
    }

    /// A uniformly drawn `k` and a uniformly drawn vertex of core at least `k`.
    pub fn draw(&self, rng: &mut Rng) -> (VertexId, usize) {
        let (k, vs) = rng.pick(&self.by_k);
        (*rng.pick(vs), *k)
    }

    /// A uniformly drawn vertex of core at least `k` (`k` one of [`KS`]).
    pub fn draw_at(&self, rng: &mut Rng, k: usize) -> VertexId {
        let (_, vs) = self.by_k.iter().find(|(kk, _)| *kk == k).expect("k has eligible vertices");
        *rng.pick(vs)
    }
}

fn random_subset(rng: &mut Rng, set: &[KeywordId]) -> Vec<KeywordId> {
    let mut out: Vec<KeywordId> = set.iter().copied().filter(|_| rng.chance(0.5)).collect();
    if out.is_empty() {
        out.push(*rng.pick(set));
    }
    out
}

/// One request of the paper-scale mix: mostly Dec, then Inc-S, Inc-T, SW
/// and SWT, and a small share of basic-g and basic-w. `S` is `W(q)` or a
/// random subset of it.
pub fn paper_request(rng: &mut Rng, graph: &AttributedGraph, eligible: &Eligible) -> Request {
    let (q, k) = eligible.draw(rng);
    let wq: Vec<KeywordId> = graph.keyword_set(q).iter().collect();
    let base = Request::community(q).k(k);
    let with_s = |rng: &mut Rng, request: Request| {
        if rng.chance(0.5) {
            request
        } else {
            request.keywords(random_subset(rng, &wq))
        }
    };
    let roll = rng.below(1000);
    match roll {
        0..=699 => with_s(rng, base),
        700..=779 => with_s(rng, base.algorithm(AcqAlgorithm::IncS)),
        780..=859 => with_s(rng, base.algorithm(AcqAlgorithm::IncT)),
        860..=909 => {
            let s: Vec<KeywordId> = random_subset(rng, &wq).into_iter().take(2).collect();
            base.exact_keywords(s)
        }
        910..=959 => base.keywords(wq.clone()).threshold(0.3),
        960..=979 => with_s(rng, base.algorithm(AcqAlgorithm::BasicG)),
        _ => with_s(rng, base.algorithm(AcqAlgorithm::BasicW)),
    }
}

/// Which deltas a write stream may emit.
#[derive(Debug, Clone, Copy)]
pub struct WriteMix {
    /// Share of deltas that insert or remove an edge.
    pub edge_share: f64,
    /// Share of deltas that insert a vertex.
    pub vertex_share: f64,
}

/// A deterministic stream of valid delta batches over the vertices one
/// writer owns. It inserts edges between owned vertices two hops apart (so
/// no edge ever joins two components) and later removes exactly the edges it
/// inserted, and adds keywords from the vocabulary and later removes them.
/// Because only this stream touches its vertices, its batches stay valid
/// however they interleave with another writer's.
#[derive(Debug, Clone)]
pub struct WriteStream {
    rng: Rng,
    mix: WriteMix,
    owned: Vec<VertexId>,
    owner_of: Vec<bool>,
    /// The input graph, read for its edges and keywords (shared, not copied).
    base: Arc<AttributedGraph>,
    /// Dictionary terms, indexed by keyword id.
    vocabulary: Vec<String>,
    inserted_edges: Vec<(VertexId, VertexId)>,
    inserted_set: HashSet<(VertexId, VertexId)>,
    added_keywords: Vec<(VertexId, u32)>,
    added_set: HashSet<(VertexId, u32)>,
}

/// How many of its own insertions a stream keeps live before removing.
const LIVE_WRITES: usize = 16;

impl WriteStream {
    pub fn new(
        rng: Rng,
        graph: &Arc<AttributedGraph>,
        mix: WriteMix,
        owned: impl Fn(VertexId) -> bool,
    ) -> Self {
        let owner_of: Vec<bool> = graph.vertices().map(&owned).collect();
        Self {
            rng,
            mix,
            owned: graph.vertices().filter(|&v| owned(v) && graph.degree(v) > 0).collect(),
            owner_of,
            base: Arc::clone(graph),
            vocabulary: {
                let mut terms: Vec<(KeywordId, &str)> = graph.dictionary().iter().collect();
                terms.sort_unstable();
                assert!(
                    terms.iter().enumerate().all(|(i, (id, _))| id.0 as usize == i),
                    "dense keyword ids"
                );
                terms.into_iter().map(|(_, t)| t.to_string()).collect()
            },
            inserted_edges: Vec::new(),
            inserted_set: HashSet::new(),
            added_keywords: Vec::new(),
            added_set: HashSet::new(),
        }
    }

    fn key(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
        (u.min(v), u.max(v))
    }

    fn edge_delta(&mut self) -> Option<GraphDelta> {
        if !self.inserted_edges.is_empty()
            && (self.inserted_edges.len() >= LIVE_WRITES || self.rng.chance(0.5))
        {
            let i = self.rng.below(self.inserted_edges.len());
            let (u, v) = self.inserted_edges.swap_remove(i);
            self.inserted_set.remove(&Self::key(u, v));
            return Some(GraphDelta::remove_edge(u, v));
        }
        for _ in 0..32 {
            let u = *self.rng.pick(&self.owned);
            let w = *self.rng.pick(self.base.neighbors(u));
            let x = *self.rng.pick(self.base.neighbors(w));
            let key = Self::key(u, x);
            if x != u
                && self.owner_of[x.0 as usize]
                && !self.base.has_edge(u, x)
                && !self.inserted_set.contains(&key)
            {
                self.inserted_edges.push((u, x));
                self.inserted_set.insert(key);
                return Some(GraphDelta::insert_edge(u, x));
            }
        }
        None
    }

    fn keyword_delta(&mut self) -> GraphDelta {
        if !self.added_keywords.is_empty()
            && (self.added_keywords.len() >= LIVE_WRITES || self.rng.chance(0.5))
        {
            let i = self.rng.below(self.added_keywords.len());
            let (v, id) = self.added_keywords.swap_remove(i);
            self.added_set.remove(&(v, id));
            return GraphDelta::remove_keyword(v, &self.vocabulary[id as usize]);
        }
        loop {
            let v = *self.rng.pick(&self.owned);
            let id = self.rng.below(self.vocabulary.len()) as u32;
            if !self.base.keyword_set(v).contains(KeywordId(id)) && self.added_set.insert((v, id)) {
                self.added_keywords.push((v, id));
                return GraphDelta::add_keyword(v, &self.vocabulary[id as usize]);
            }
        }
    }

    fn delta(&mut self) -> GraphDelta {
        let roll = self.rng.unit();
        if roll < self.mix.vertex_share {
            let terms: Vec<String> =
                (0..3).map(|_| self.rng.pick(&self.vocabulary).clone()).collect();
            let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
            return GraphDelta::insert_vertex(None, &refs);
        }
        if roll < self.mix.vertex_share + self.mix.edge_share {
            if let Some(delta) = self.edge_delta() {
                return delta;
            }
        }
        self.keyword_delta()
    }

    /// The next batch of `1..=max_len` deltas.
    pub fn batch(&mut self, max_len: usize) -> Vec<GraphDelta> {
        let len = 1 + self.rng.below(max_len);
        (0..len).map(|_| self.delta()).collect()
    }

    /// The next batch of `1..=max_len` deltas whose first is an edge delta
    /// (where the stream finds one) and whose others follow the mix.
    pub fn batch_with_edge(&mut self, max_len: usize) -> Vec<GraphDelta> {
        let mut batch = self.batch(max_len);
        if let Some(edge) = self.edge_delta() {
            batch[0] = edge;
        }
        batch
    }
}

/// The batch that undoes `batch`, for batches without vertex inserts whose
/// every delta changed the graph.
pub fn inverse(batch: &[GraphDelta]) -> Option<Vec<GraphDelta>> {
    batch
        .iter()
        .rev()
        .map(|delta| match delta {
            GraphDelta::InsertEdge { u, v } => Some(GraphDelta::remove_edge(*u, *v)),
            GraphDelta::RemoveEdge { u, v } => Some(GraphDelta::insert_edge(*u, *v)),
            GraphDelta::AddKeyword { vertex, term } => {
                Some(GraphDelta::remove_keyword(*vertex, term))
            }
            GraphDelta::RemoveKeyword { vertex, term } => {
                Some(GraphDelta::add_keyword(*vertex, term))
            }
            GraphDelta::InsertVertex { .. } => None,
        })
        .collect()
}
