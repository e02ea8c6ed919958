//! The immutable attributed graph and its builder.

use crate::delta::{AppliedDelta, GraphDelta};
use crate::error::GraphError;
use crate::ids::{KeywordId, VertexId};
use crate::keywords::{KeywordDictionary, KeywordSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// An undirected attributed graph `G(V, E)` in compressed sparse row form.
///
/// * Vertices are identified by dense [`VertexId`]s `0..n`.
/// * Each vertex carries a [`KeywordSet`] `W(v)` and an optional display label
///   (e.g. an author name in the DBLP-style datasets).
/// * Edges are stored twice (once per endpoint) in a CSR layout: `offsets` has
///   `n + 1` entries and `neighbors[offsets[v]..offsets[v+1]]` are the sorted
///   neighbours of `v`.
///
/// The structure is immutable after construction; the update methods
/// ([`with_edge_inserted`](Self::with_edge_inserted) and friends) return a new
/// graph, which is what the CL-tree maintenance experiments operate on.
///
/// A graph is a persistent structure: [`Clone`] copies pointers, not data, and
/// an updated graph shares every array no delta touched with the graph it was
/// derived from. Each per-vertex or per-edge array (CSR offsets and
/// neighbours, bitmap arrays, keyword sets, labels) and the keyword
/// dictionary sits behind its own `Arc`. The first delta of a batch that
/// writes an array copies it, and later deltas of the batch edit that copy in
/// place. A keyword edit copies the keyword-set array, which is one pointer
/// per vertex because the sets themselves are shared; an edge delta copies
/// the neighbour and offset arrays; a vertex insert copies the per-vertex
/// arrays; only a term the dictionary has not seen copies the dictionary.
#[derive(Debug, Clone)]
pub struct AttributedGraph {
    topology: Topology,
    keywords: Arc<Vec<KeywordSet>>,
    labels: Arc<Vec<Option<String>>>,
    dictionary: Arc<KeywordDictionary>,
}

/// The edge structure of a graph: CSR arrays plus the derived bitmaps.
#[derive(Debug, Clone)]
struct Topology {
    offsets: Arc<Vec<usize>>,
    neighbors: Arc<Vec<VertexId>>,
    /// Derived acceleration structure — never serialized (it is a pure
    /// function of the CSR fields) and rebuilt on deserialization, so the
    /// wire format stays the pre-bitmap one and no bitmap invariant is ever
    /// trusted from external data.
    adjacency: AdjacencyBitmaps,
}

/// The wire format predates the shared layout: one object with the CSR
/// arrays, the keyword sets, the labels and the dictionary, in that order.
impl Serialize for AttributedGraph {
    fn to_value(&self) -> serde::Value {
        let fields = self.wire_fields().map(|(k, v)| (k.to_string(), v.to_value()));
        serde::Value::Object(fields.into())
    }

    /// Streams the fields: a snapshot never holds the value tree of the
    /// whole graph.
    fn write_json(&self, out: &mut String) {
        serde::write_object(&self.wire_fields(), out);
    }
}

impl AttributedGraph {
    /// The serialized fields, in wire order.
    fn wire_fields(&self) -> [(&'static str, &dyn Serialize); 5] {
        [
            ("offsets", &self.topology.offsets),
            ("neighbors", &self.topology.neighbors),
            ("keywords", &self.keywords),
            ("labels", &self.labels),
            ("dictionary", &self.dictionary),
        ]
    }
}

impl Deserialize for AttributedGraph {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(value: &serde::Value, name: &str) -> Result<T, serde::Error> {
            match value.get_field(name) {
                Some(v) => T::from_value(v),
                None => {
                    Err(serde::Error::custom(format!("missing field `{name}` in AttributedGraph")))
                }
            }
        }
        let offsets: Vec<usize> = field(value, "offsets")?;
        let neighbors: Vec<VertexId> = field(value, "neighbors")?;
        let keywords: Vec<KeywordSet> = field(value, "keywords")?;
        let labels: Vec<Option<String>> = field(value, "labels")?;
        let mut dictionary: KeywordDictionary = field(value, "dictionary")?;
        // The term → id lookup is `#[serde(skip)]`; without this rebuild a
        // deserialized graph would treat every keyword delta as an unknown
        // term (a silent no-op on replay).
        dictionary.rebuild_lookup();
        // Validate the CSR shape before rebuilding derived structures, so a
        // malformed payload is an error instead of a panic.
        let n = keywords.len();
        if offsets.len() != n + 1
            || offsets.first() != Some(&0)
            || offsets.last() != Some(&neighbors.len())
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(serde::Error::custom("inconsistent CSR offsets in AttributedGraph"));
        }
        if labels.len() != n {
            return Err(serde::Error::custom("label count mismatch in AttributedGraph"));
        }
        if neighbors.iter().any(|u| u.index() >= n) {
            return Err(serde::Error::custom("neighbor vertex out of range in AttributedGraph"));
        }
        // Each CSR row must be sorted and duplicate-free: `has_edge` binary-
        // searches rows, and the bitmap rows (one bit per neighbour) must
        // agree with the scalar row scans.
        for v in 0..n {
            if neighbors[offsets[v]..offsets[v + 1]].windows(2).any(|w| w[0] >= w[1]) {
                return Err(serde::Error::custom(
                    "unsorted or duplicated CSR neighbor row in AttributedGraph",
                ));
            }
        }
        Ok(Self {
            topology: Topology::new(offsets, neighbors),
            keywords: Arc::new(keywords),
            labels: Arc::new(labels),
            dictionary: Arc::new(dictionary),
        })
    }
}

/// Hybrid adjacency bitmap: dense bitset rows (one bit per vertex) for the
/// high-degree vertices, CSR scan fallback for the long low-degree tail.
///
/// A vertex gets a row when `deg(v) >= max(1, n / 64)`. At that threshold a
/// row of `⌈n/64⌉` words (`n/8` bytes) costs at most ~2x the vertex's own CSR
/// list (`deg(v) * 4 >= n/16` bytes), so the whole structure adds at most
/// ~2x the CSR adjacency memory while making every in-subset degree count on
/// a hot vertex a word-parallel `popcount(row & subset)` instead of a
/// per-neighbour scan. `VertexSubset::degree_within`, the peeling worklist and
/// the frontier-bitset BFS all key off [`AttributedGraph::adjacency_row`].
///
/// Under [`AttributedGraph::apply_deltas`] the structure is maintained
/// *incrementally*: an edge delta flips one bit in each endpoint row, and a
/// vertex crossing the `deg >= n/64` threshold is promoted (row appended) or
/// demoted (row swap-removed, `owner_of_row` naming the moved row's owner).
/// The arrays are shared between generations: the first write of a staged
/// graph to an array copies it, and later writes edit that copy. Only a
/// vertex insertion that moves `⌈n/64⌉` (n reaching 64k+1: rows need another
/// word) or `max(1, n/64)` (n reaching 128, 192, …: the threshold steps,
/// demoting rows) forces a full rebuild — at most one rebuild per 64
/// insertions.
#[derive(Debug, Clone, Default)]
struct AdjacencyBitmaps {
    /// Words per row, `⌈n/64⌉`.
    words_per_row: usize,
    /// The degree threshold at which a vertex receives a row.
    threshold: usize,
    /// Per-vertex row index into `rows` (in units of rows); `u32::MAX` means
    /// "no row — scan the CSR list".
    row_of: Arc<Vec<u32>>,
    /// Reverse map: the vertex owning each row (for swap-remove demotion).
    owner_of_row: Arc<Vec<u32>>,
    /// Concatenated bitmap rows, `row_count * words_per_row` words.
    rows: Arc<Vec<u64>>,
}

/// Sentinel in [`AdjacencyBitmaps::row_of`] for vertices without a row.
const NO_ROW: u32 = u32::MAX;

impl AdjacencyBitmaps {
    /// Builds the bitmap rows from a finished CSR layout.
    fn build(offsets: &[usize], neighbors: &[VertexId], n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        let threshold = (n / 64).max(1);
        let mut row_of = vec![NO_ROW; n];
        let mut owner_of_row = Vec::new();
        let mut rows = Vec::new();
        for v in 0..n {
            let degree = offsets[v + 1] - offsets[v];
            if degree < threshold {
                continue;
            }
            let start = rows.len();
            rows.resize(start + words_per_row, 0u64);
            for u in &neighbors[offsets[v]..offsets[v + 1]] {
                let i = u.index();
                rows[start + i / 64] |= 1u64 << (i % 64);
            }
            row_of[v] = u32::try_from(start / words_per_row).expect("row count fits u32");
            owner_of_row.push(v as u32);
        }
        Self {
            words_per_row,
            threshold,
            row_of: Arc::new(row_of),
            owner_of_row: Arc::new(owner_of_row),
            rows: Arc::new(rows),
        }
    }

    /// Number of live rows.
    fn row_count(&self) -> usize {
        self.owner_of_row.len()
    }

    /// Sets (`true`) or clears (`false`) the bit of `neighbor` in `v`'s row,
    /// if `v` owns one.
    fn flip_bit(&mut self, v: usize, neighbor: usize, present: bool) {
        let row = self.row_of[v];
        if row == NO_ROW {
            return;
        }
        let word = row as usize * self.words_per_row + neighbor / 64;
        let mask = 1u64 << (neighbor % 64);
        let rows = Arc::make_mut(&mut self.rows);
        if present {
            rows[word] |= mask;
        } else {
            rows[word] &= !mask;
        }
    }

    /// Appends a row for `v`, filling it from its CSR neighbour list.
    fn promote(&mut self, v: usize, neighbors: &[VertexId]) {
        debug_assert_eq!(self.row_of[v], NO_ROW, "vertex already owns a row");
        let rows = Arc::make_mut(&mut self.rows);
        let start = rows.len();
        rows.resize(start + self.words_per_row, 0u64);
        for u in neighbors {
            let i = u.index();
            rows[start + i / 64] |= 1u64 << (i % 64);
        }
        Arc::make_mut(&mut self.row_of)[v] =
            u32::try_from(self.row_count()).expect("row count fits u32");
        Arc::make_mut(&mut self.owner_of_row).push(v as u32);
    }

    /// Removes `v`'s row by swapping the last row into its slot.
    fn demote(&mut self, v: usize) {
        let row = self.row_of[v] as usize;
        debug_assert_ne!(row, NO_ROW as usize, "vertex owns no row to demote");
        let last = self.row_count() - 1;
        let w = self.words_per_row;
        let moved_owner = self.owner_of_row[last];
        let rows = Arc::make_mut(&mut self.rows);
        rows.copy_within(last * w..(last + 1) * w, row * w);
        rows.truncate(last * w);
        Arc::make_mut(&mut self.owner_of_row).swap_remove(row);
        let row_of = Arc::make_mut(&mut self.row_of);
        row_of[moved_owner as usize] = row as u32;
        row_of[v] = NO_ROW;
    }
}

impl Topology {
    /// The topology of a finished CSR layout, bitmaps built from scratch.
    fn new(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        let adjacency = AdjacencyBitmaps::build(&offsets, &neighbors, offsets.len() - 1);
        Self { offsets: Arc::new(offsets), neighbors: Arc::new(neighbors), adjacency }
    }

    /// The sorted CSR row of vertex index `i`.
    #[inline]
    fn row(&self, i: usize) -> &[VertexId] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Splices the (validated, absent) edge `{u, v}` into both CSR rows and
    /// maintains the hybrid bitmap: bit-flips on existing rows, promotion
    /// when an endpoint's degree reaches the `n/64` threshold.
    fn insert_edge(&mut self, u: VertexId, v: VertexId) {
        let offsets = Arc::make_mut(&mut self.offsets);
        let neighbors = Arc::make_mut(&mut self.neighbors);
        for (a, b) in [(u, v), (v, u)] {
            let i = a.index();
            let row = &neighbors[offsets[i]..offsets[i + 1]];
            let pos = offsets[i] + row.binary_search(&b).unwrap_err();
            neighbors.insert(pos, b);
            for off in &mut offsets[i + 1..] {
                *off += 1;
            }
        }
        for (a, b) in [(u, v), (v, u)] {
            let i = a.index();
            if self.adjacency.row_of[i] != NO_ROW {
                self.adjacency.flip_bit(i, b.index(), true);
            } else if self.row(i).len() >= self.adjacency.threshold {
                let row = &self.neighbors[self.offsets[i]..self.offsets[i + 1]];
                self.adjacency.promote(i, row);
            }
        }
    }

    /// Removes the (validated, present) edge `{u, v}` from both CSR rows and
    /// maintains the hybrid bitmap: bit-flips, demotion when an endpoint
    /// falls below the threshold.
    fn remove_edge(&mut self, u: VertexId, v: VertexId) {
        let offsets = Arc::make_mut(&mut self.offsets);
        let neighbors = Arc::make_mut(&mut self.neighbors);
        for (a, b) in [(u, v), (v, u)] {
            let i = a.index();
            let row = &neighbors[offsets[i]..offsets[i + 1]];
            let pos = offsets[i] + row.binary_search(&b).expect("edge present");
            neighbors.remove(pos);
            for off in &mut offsets[i + 1..] {
                *off -= 1;
            }
        }
        for (a, b) in [(u, v), (v, u)] {
            let i = a.index();
            if self.adjacency.row_of[i] != NO_ROW {
                if self.row(i).len() < self.adjacency.threshold {
                    self.adjacency.demote(i);
                } else {
                    self.adjacency.flip_bit(i, b.index(), false);
                }
            }
        }
    }

    /// Appends an isolated vertex; rebuilds the bitmap only when the new
    /// universe size moves `⌈n/64⌉` (at n = 64k+1) or the `max(1, n/64)`
    /// threshold (at n = 128, 192, …) — at most once per 64 insertions —
    /// otherwise the bitmap only gains an empty row-index entry.
    fn push_vertex(&mut self) {
        let m = self.neighbors.len();
        Arc::make_mut(&mut self.offsets).push(m);
        let n = self.offsets.len() - 1;
        let words_changed = n.div_ceil(64) != self.adjacency.words_per_row;
        let threshold_changed = (n / 64).max(1) != self.adjacency.threshold;
        if words_changed || threshold_changed {
            self.adjacency = AdjacencyBitmaps::build(&self.offsets, &self.neighbors, n);
        } else {
            Arc::make_mut(&mut self.adjacency.row_of).push(NO_ROW);
        }
    }
}

#[cfg(test)]
impl Topology {
    /// Whether every array of `self` is the same allocation as `other`'s.
    fn shares_all(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.offsets, &other.offsets)
            && Arc::ptr_eq(&self.neighbors, &other.neighbors)
            && Arc::ptr_eq(&self.adjacency.row_of, &other.adjacency.row_of)
            && Arc::ptr_eq(&self.adjacency.owner_of_row, &other.adjacency.owner_of_row)
            && Arc::ptr_eq(&self.adjacency.rows, &other.adjacency.rows)
    }
}

impl AttributedGraph {
    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.keywords.len()
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.topology.neighbors.len() / 2
    }

    /// Whether `v` is a valid vertex of this graph.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.num_vertices()
    }

    /// Iterates over all vertex identifiers.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices()).map(VertexId::from_index)
    }

    /// The sorted neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.topology.row(v.index())
    }

    /// Degree of `v` in the full graph, `deg_G(v)`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let i = v.index();
        self.topology.offsets[i + 1] - self.topology.offsets[i]
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if !self.contains_vertex(u) || !self.contains_vertex(v) {
            return false;
        }
        // Search from the lower-degree endpoint.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// The keyword set `W(v)` of a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    #[inline]
    pub fn keyword_set(&self, v: VertexId) -> &KeywordSet {
        &self.keywords[v.index()]
    }

    /// The optional display label of a vertex.
    pub fn label(&self, v: VertexId) -> Option<&str> {
        self.labels[v.index()].as_deref()
    }

    /// Finds the first vertex whose label equals `label`.
    pub fn vertex_by_label(&self, label: &str) -> Option<VertexId> {
        self.labels.iter().position(|l| l.as_deref() == Some(label)).map(VertexId::from_index)
    }

    /// The shared keyword dictionary.
    pub fn dictionary(&self) -> &KeywordDictionary {
        &self.dictionary
    }

    /// The adjacency-bitmap row of `v` — one bit per graph vertex — if `v` is
    /// hot enough to own one (`deg(v) >=`
    /// [`adjacency_bitmap_threshold`](Self::adjacency_bitmap_threshold)).
    /// `None` means the caller should scan the CSR list
    /// ([`neighbors`](Self::neighbors)) instead.
    #[inline]
    pub fn adjacency_row(&self, v: VertexId) -> Option<&[u64]> {
        let adjacency = &self.topology.adjacency;
        let row = adjacency.row_of[v.index()];
        if row == NO_ROW {
            return None;
        }
        let w = adjacency.words_per_row;
        let start = row as usize * w;
        Some(&adjacency.rows[start..start + w])
    }

    /// The degree at or above which a vertex owns an adjacency-bitmap row:
    /// `max(1, n / 64)` — the point where a bitmap row stops costing more
    /// than the vertex's own CSR list (see the memory cost model on the
    /// hybrid bitmap in `ARCHITECTURE.md`).
    #[inline]
    pub fn adjacency_bitmap_threshold(&self) -> usize {
        self.topology.adjacency.threshold
    }

    /// Number of vertices that own an adjacency-bitmap row.
    pub fn adjacency_bitmap_rows(&self) -> usize {
        let adjacency = &self.topology.adjacency;
        adjacency.rows.len().checked_div(adjacency.words_per_row).unwrap_or(0)
    }

    /// Memory spent on the hybrid adjacency bitmap, in bytes (rows plus the
    /// per-vertex row index).
    pub fn adjacency_bitmap_bytes(&self) -> usize {
        let adjacency = &self.topology.adjacency;
        adjacency.rows.len() * std::mem::size_of::<u64>()
            + adjacency.row_of.len() * std::mem::size_of::<u32>()
    }

    /// Average vertex degree `d̂ = 2m / n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            (2 * self.num_edges()) as f64 / self.num_vertices() as f64
        }
    }

    /// Average keyword-set size `l̂` (0 for the empty graph).
    pub fn average_keywords(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.keywords.iter().map(KeywordSet::len).sum::<usize>() as f64
                / self.num_vertices() as f64
        }
    }

    /// Resolves keyword strings of a vertex through the dictionary.
    pub fn keyword_terms(&self, v: VertexId) -> Vec<&str> {
        self.dictionary.terms_of(self.keyword_set(v)).collect()
    }

    /// Interns `term` into the graph's keyword dictionary without attaching
    /// it to any vertex, returning its id (existing terms keep theirs).
    ///
    /// This is the dictionary-alignment hook for sharded execution: every
    /// shard graph must intern the keyword terms of a delta batch in the
    /// same order — whether or not the deltas carrying them were routed to
    /// that shard — so a `KeywordId` means the same term on every shard as
    /// on the full graph.
    ///
    /// A known term is only looked up; the dictionary, which generations
    /// share, is copied only to intern a term it has not seen.
    pub fn intern_keyword(&mut self, term: &str) -> KeywordId {
        match self.dictionary.get(term) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.dictionary).intern(term),
        }
    }

    /// Applies a batch of [`GraphDelta`]s, returning the updated graph.
    ///
    /// The new graph shares every part of `self` the batch leaves alone (see
    /// the type's documentation), then takes per-delta incremental edits —
    /// sorted splices into the CSR rows plus bitmap bit-flips and threshold
    /// promotions/demotions. Deltas apply in order; a
    /// [`GraphDelta::InsertVertex`] makes its new id visible to later deltas
    /// of the same batch. Deltas that are already true of the graph are
    /// no-ops. The whole batch is validated before anything is mutated, so an
    /// error leaves `self` untouched and no partially-applied graph escapes.
    pub fn apply_deltas(&self, deltas: &[GraphDelta]) -> Result<Self, GraphError> {
        let mut next = self.clone();
        next.apply_deltas_in_place(deltas)?;
        Ok(next)
    }

    /// Applies a batch of [`GraphDelta`]s in place, returning the log of
    /// deltas that actually changed the graph (no-ops are skipped), with
    /// keyword terms resolved to interned ids and new vertices to their
    /// assigned ids — the contract index-maintenance drivers consume.
    ///
    /// Validation runs over the whole batch first (tracking the vertex count
    /// as `InsertVertex` deltas grow it), so on `Err` the graph is unchanged.
    /// Arrays shared with other generations are copied on first write and
    /// edited in place after that: an edge delta copies the CSR arrays (and
    /// the bitmap rows if an endpoint owns one), a vertex delta the
    /// per-vertex arrays, a keyword delta the keyword-set pointers.
    pub fn apply_deltas_in_place(
        &mut self,
        deltas: &[GraphDelta],
    ) -> Result<Vec<AppliedDelta>, GraphError> {
        self.validate_deltas(deltas)?;
        let mut applied = Vec::with_capacity(deltas.len());
        for delta in deltas {
            match delta {
                GraphDelta::InsertEdge { u, v } => {
                    if !self.has_edge(*u, *v) {
                        self.topology.insert_edge(*u, *v);
                        applied.push(AppliedDelta::EdgeInserted(*u, *v));
                    }
                }
                GraphDelta::RemoveEdge { u, v } => {
                    if self.has_edge(*u, *v) {
                        self.topology.remove_edge(*u, *v);
                        applied.push(AppliedDelta::EdgeRemoved(*u, *v));
                    }
                }
                GraphDelta::AddKeyword { vertex, term } => {
                    let id = self.intern_keyword(term);
                    let i = vertex.index();
                    if !self.keywords[i].contains(id) {
                        let next = self.keywords[i].with_inserted(id);
                        Arc::make_mut(&mut self.keywords)[i] = next;
                        applied.push(AppliedDelta::KeywordAdded(*vertex, id));
                    }
                }
                GraphDelta::RemoveKeyword { vertex, term } => {
                    let i = vertex.index();
                    if let Some(id) = self.dictionary.get(term) {
                        if self.keywords[i].contains(id) {
                            let next = self.keywords[i].with_removed(id);
                            Arc::make_mut(&mut self.keywords)[i] = next;
                            applied.push(AppliedDelta::KeywordRemoved(*vertex, id));
                        }
                    }
                }
                GraphDelta::InsertVertex { label, keywords } => {
                    let v = self.insert_vertex_in_place(label.clone(), keywords);
                    applied.push(AppliedDelta::VertexInserted(v));
                }
            }
        }
        Ok(applied)
    }

    /// Checks every delta of a batch against the (simulated) vertex count
    /// without mutating anything.
    fn validate_deltas(&self, deltas: &[GraphDelta]) -> Result<(), GraphError> {
        let mut n = self.num_vertices();
        for delta in deltas {
            match delta {
                GraphDelta::InsertEdge { u, v } | GraphDelta::RemoveEdge { u, v } => {
                    if u.index() >= n || v.index() >= n {
                        return Err(GraphError::UnknownVertex(if u.index() < n { *v } else { *u }));
                    }
                    // A self-loop can never be *inserted*; removing one is a
                    // no-op (the edge cannot exist), matching the historical
                    // with_edge_removed behaviour.
                    if u == v && matches!(delta, GraphDelta::InsertEdge { .. }) {
                        return Err(GraphError::SelfLoop(*u));
                    }
                }
                GraphDelta::AddKeyword { vertex, .. }
                | GraphDelta::RemoveKeyword { vertex, .. } => {
                    if vertex.index() >= n {
                        return Err(GraphError::UnknownVertex(*vertex));
                    }
                }
                GraphDelta::InsertVertex { .. } => n += 1,
            }
        }
        Ok(())
    }

    /// Appends a new isolated vertex with its keywords and label.
    fn insert_vertex_in_place(&mut self, label: Option<String>, keywords: &[String]) -> VertexId {
        let v = VertexId::from_index(self.num_vertices());
        let ids: Vec<KeywordId> = keywords.iter().map(|t| self.intern_keyword(t)).collect();
        Arc::make_mut(&mut self.keywords).push(KeywordSet::from_ids(ids));
        Arc::make_mut(&mut self.labels).push(label);
        self.topology.push_vertex();
        v
    }

    /// Returns a new graph with the undirected edge `{u, v}` inserted — a
    /// thin shim over [`apply_deltas`](Self::apply_deltas) with a single
    /// [`GraphDelta::InsertEdge`]. Inserting an existing edge is a no-op.
    pub fn with_edge_inserted(&self, u: VertexId, v: VertexId) -> Result<Self, GraphError> {
        self.apply_deltas(&[GraphDelta::InsertEdge { u, v }])
    }

    /// Returns a new graph with the undirected edge `{u, v}` removed — a thin
    /// shim over [`apply_deltas`](Self::apply_deltas). Removing a
    /// non-existent edge is a no-op.
    pub fn with_edge_removed(&self, u: VertexId, v: VertexId) -> Result<Self, GraphError> {
        self.apply_deltas(&[GraphDelta::RemoveEdge { u, v }])
    }

    /// Returns a new graph where keyword `term` was added to vertex `v` — a
    /// thin shim over [`apply_deltas`](Self::apply_deltas).
    pub fn with_keyword_added(&self, v: VertexId, term: &str) -> Result<Self, GraphError> {
        self.apply_deltas(&[GraphDelta::AddKeyword { vertex: v, term: term.to_owned() }])
    }

    /// Returns a new graph where keyword `term` was removed from vertex `v`
    /// (no-op if the vertex did not carry the keyword) — a thin shim over
    /// [`apply_deltas`](Self::apply_deltas).
    pub fn with_keyword_removed(&self, v: VertexId, term: &str) -> Result<Self, GraphError> {
        self.apply_deltas(&[GraphDelta::RemoveKeyword { vertex: v, term: term.to_owned() }])
    }

    /// Returns a new graph with an appended (isolated) vertex — a thin shim
    /// over [`apply_deltas`](Self::apply_deltas) with a single
    /// [`GraphDelta::InsertVertex`].
    pub fn with_vertex_inserted(
        &self,
        label: Option<&str>,
        keywords: &[&str],
    ) -> Result<Self, GraphError> {
        self.apply_deltas(&[GraphDelta::insert_vertex(label, keywords)])
    }
}

/// Incrementally assembles an [`AttributedGraph`].
///
/// ```
/// use acq_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let alice = b.add_vertex("Alice", &["art", "cook", "yoga"]);
/// let bob = b.add_vertex("Bob", &["research", "sports", "yoga"]);
/// b.add_edge(alice, bob).unwrap();
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 2);
/// assert_eq!(g.num_edges(), 1);
/// assert!(g.has_edge(alice, bob));
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    pub(crate) dictionary: KeywordDictionary,
    pub(crate) keywords: Vec<KeywordSet>,
    pub(crate) labels: Vec<Option<String>>,
    pub(crate) edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.keywords.len()
    }

    /// Adds a labelled vertex with the given keyword strings and returns its id.
    pub fn add_vertex(&mut self, label: &str, keywords: &[&str]) -> VertexId {
        let ids: Vec<KeywordId> = keywords.iter().map(|t| self.dictionary.intern(t)).collect();
        self.push_vertex(Some(label.to_owned()), KeywordSet::from_ids(ids))
    }

    /// Adds an unlabelled vertex with the given keyword strings.
    pub fn add_unlabeled_vertex(&mut self, keywords: &[&str]) -> VertexId {
        let ids: Vec<KeywordId> = keywords.iter().map(|t| self.dictionary.intern(t)).collect();
        self.push_vertex(None, KeywordSet::from_ids(ids))
    }

    /// Adds a vertex whose keywords are already interned identifiers.
    pub fn add_vertex_with_ids(&mut self, label: Option<String>, keywords: KeywordSet) -> VertexId {
        self.push_vertex(label, keywords)
    }

    /// Interns a keyword string through the builder's dictionary.
    pub fn intern_keyword(&mut self, term: &str) -> KeywordId {
        self.dictionary.intern(term)
    }

    fn push_vertex(&mut self, label: Option<String>, keywords: KeywordSet) -> VertexId {
        let id = VertexId::from_index(self.keywords.len());
        self.keywords.push(keywords);
        self.labels.push(label);
        id
    }

    /// Adds an undirected edge. Self-loops are rejected; duplicate edges are
    /// tolerated (deduplicated at [`build`](Self::build) time).
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let n = self.keywords.len();
        if u.index() >= n {
            return Err(GraphError::UnknownVertex(u));
        }
        if v.index() >= n {
            return Err(GraphError::UnknownVertex(v));
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        Ok(())
    }

    pub(crate) fn dedup_edges(&mut self) {
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Finalises the builder into an immutable CSR graph.
    pub fn build(mut self) -> AttributedGraph {
        self.dedup_edges();
        let n = self.keywords.len();
        let mut degree = vec![0usize; n];
        for &(u, v) in &self.edges {
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![VertexId(0); acc];
        for &(u, v) in &self.edges {
            neighbors[cursor[u.index()]] = v;
            cursor[u.index()] += 1;
            neighbors[cursor[v.index()]] = u;
            cursor[v.index()] += 1;
        }
        // Sort each adjacency list so has_edge can binary-search and iteration
        // order is deterministic.
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        AttributedGraph {
            topology: Topology::new(offsets, neighbors),
            keywords: Arc::new(self.keywords.iter().map(KeywordSet::repacked).collect()),
            labels: Arc::new(self.labels),
            dictionary: Arc::new(self.dictionary),
        }
    }
}

/// Convenience constructor used throughout the test-suites: builds a graph from
/// an edge list and per-vertex keyword strings.
///
/// `keywords[i]` are the keyword strings of vertex `i`; vertices are created
/// for `0..keywords.len()`.
pub fn graph_from_edges(keywords: &[&[&str]], edges: &[(u32, u32)]) -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for kws in keywords {
        b.add_unlabeled_vertex(kws);
    }
    for &(u, v) in edges {
        b.add_edge(VertexId(u), VertexId(v)).expect("edge endpoints must exist");
    }
    b.build()
}

/// Builds a keyword-less graph with `n` vertices from an edge list; handy for
/// tests and benchmarks of the purely structural algorithms (k-core, CL-tree
/// skeleton, baselines on non-attributed graphs).
pub fn unlabeled_graph(n: usize, edges: &[(u32, u32)]) -> AttributedGraph {
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_unlabeled_vertex(&[]);
    }
    for &(u, v) in edges {
        b.add_edge(VertexId(u), VertexId(v)).expect("edge endpoints must exist");
    }
    b.build()
}

/// Builds the running-example graph of the paper's Figure 3(a)/4: ten vertices
/// `A..J` with keywords `w, x, y, z` and the depicted edges. Used by unit
/// tests, the quickstart example and documentation.
pub fn paper_figure3_graph() -> AttributedGraph {
    let mut b = GraphBuilder::new();
    let a = b.add_vertex("A", &["w", "x", "y"]);
    let bb = b.add_vertex("B", &["x"]);
    let c = b.add_vertex("C", &["x", "y"]);
    let d = b.add_vertex("D", &["x", "y", "z"]);
    let e = b.add_vertex("E", &["y", "z"]);
    let f = b.add_vertex("F", &["y"]);
    let g = b.add_vertex("G", &["x", "y"]);
    let h = b.add_vertex("H", &["y", "z"]);
    let i = b.add_vertex("I", &["x"]);
    let j = b.add_vertex("J", &["x"]);
    // The 3-ĉore {A, B, C, D} is a clique.
    for &(u, v) in &[(a, bb), (a, c), (a, d), (bb, c), (bb, d), (c, d)] {
        b.add_edge(u, v).unwrap();
    }
    // E attaches to the 3-ĉore with two edges (core number 2).
    b.add_edge(e, a).unwrap();
    b.add_edge(e, d).unwrap();
    // F and G hang off E with one edge each (core number 1).
    b.add_edge(f, e).unwrap();
    b.add_edge(g, e).unwrap();
    // H–I form a separate 1-ĉore component; J is isolated (core number 0).
    b.add_edge(h, i).unwrap();
    let _ = j;
    b.build()
}

/// The ordered set of vertex ids, useful for assertions in tests.
pub fn sorted_ids(ids: impl IntoIterator<Item = VertexId>) -> Vec<VertexId> {
    let set: BTreeSet<VertexId> = ids.into_iter().collect();
    set.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_csr_graph() {
        let g = graph_from_edges(
            &[&["a"], &["a", "b"], &["b"], &["c"]],
            &[(0, 1), (1, 2), (2, 0), (2, 3)],
        );
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(VertexId(2)), 3);
        assert_eq!(g.neighbors(VertexId(2)), &[VertexId(0), VertexId(1), VertexId(3)]);
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        assert!(!g.has_edge(VertexId(0), VertexId(3)));
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = graph_from_edges(&[&[], &[]], &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(VertexId(0)), 1);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut b = GraphBuilder::new();
        let v = b.add_unlabeled_vertex(&[]);
        assert!(matches!(b.add_edge(v, v), Err(GraphError::SelfLoop(_))));
    }

    #[test]
    fn unknown_vertices_are_rejected() {
        let mut b = GraphBuilder::new();
        let v = b.add_unlabeled_vertex(&[]);
        assert!(matches!(b.add_edge(v, VertexId(5)), Err(GraphError::UnknownVertex(_))));
    }

    #[test]
    fn labels_resolve_both_ways() {
        let g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        assert_eq!(g.label(a), Some("A"));
        assert_eq!(g.vertex_by_label("Z"), None);
    }

    #[test]
    fn keyword_terms_resolve_through_dictionary() {
        let g = paper_figure3_graph();
        let d = g.vertex_by_label("D").unwrap();
        let mut terms = g.keyword_terms(d);
        terms.sort_unstable();
        assert_eq!(terms, vec!["x", "y", "z"]);
        assert!((g.average_keywords() - 1.8).abs() < 1e-9, "18 keywords over 10 vertices");
    }

    #[test]
    fn figure3_graph_matches_paper_shape() {
        let g = paper_figure3_graph();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 11);
        let a = g.vertex_by_label("A").unwrap();
        assert_eq!(g.degree(a), 4);
        let j = g.vertex_by_label("J").unwrap();
        assert_eq!(g.degree(j), 0, "J is isolated and has core number 0");
    }

    #[test]
    fn edge_insertion_returns_new_graph() {
        let g = paper_figure3_graph();
        let h = g.vertex_by_label("H").unwrap();
        let i = g.vertex_by_label("I").unwrap();
        let f = g.vertex_by_label("F").unwrap();
        assert!(!g.has_edge(h, f));
        let g2 = g.with_edge_inserted(h, f).unwrap();
        assert!(g2.has_edge(h, f));
        assert!(!g.has_edge(h, f), "original untouched");
        assert_eq!(g2.num_edges(), g.num_edges() + 1);
        // Inserting an existing edge is a no-op.
        let g3 = g2.with_edge_inserted(h, i).unwrap();
        assert_eq!(g3.num_edges(), g2.num_edges());
    }

    #[test]
    fn edge_removal_returns_new_graph() {
        let g = paper_figure3_graph();
        let h = g.vertex_by_label("H").unwrap();
        let i = g.vertex_by_label("I").unwrap();
        let g2 = g.with_edge_removed(h, i).unwrap();
        assert!(!g2.has_edge(h, i));
        assert_eq!(g2.num_edges(), g.num_edges() - 1);
    }

    #[test]
    fn keyword_updates_return_new_graph() {
        let g = paper_figure3_graph();
        let b = g.vertex_by_label("B").unwrap();
        let g2 = g.with_keyword_added(b, "music").unwrap();
        assert!(g2.keyword_terms(b).contains(&"music"));
        assert!(!g.keyword_terms(b).contains(&"music"));
        let g3 = g2.with_keyword_removed(b, "music").unwrap();
        assert!(!g3.keyword_terms(b).contains(&"music"));
        // Removing an unknown keyword is a no-op.
        let g4 = g3.with_keyword_removed(b, "nonexistent").unwrap();
        assert_eq!(g4.keyword_set(b), g3.keyword_set(b));
    }

    #[test]
    fn update_methods_validate_vertices() {
        let g = paper_figure3_graph();
        let bad = VertexId(999);
        assert!(g.with_edge_inserted(bad, VertexId(0)).is_err());
        assert!(g.with_keyword_added(bad, "x").is_err());
    }

    #[test]
    fn hybrid_adjacency_rows_match_csr_lists() {
        let g = paper_figure3_graph();
        assert_eq!(g.adjacency_bitmap_threshold(), 1, "n = 10 -> max(1, 10/64)");
        for v in g.vertices() {
            match g.adjacency_row(v) {
                Some(row) => {
                    let from_row: Vec<VertexId> = g
                        .vertices()
                        .filter(|u| (row[u.index() / 64] >> (u.index() % 64)) & 1 == 1)
                        .collect();
                    assert_eq!(from_row, g.neighbors(v), "row of {v:?} matches CSR");
                }
                None => assert!(
                    g.degree(v) < g.adjacency_bitmap_threshold(),
                    "only tail vertices lack rows"
                ),
            }
        }
        assert_eq!(g.adjacency_bitmap_rows(), 9, "all but the isolated J are hot at n=10");
        assert!(g.adjacency_bitmap_bytes() > 0);
        // Rows survive the immutable-update paths (rebuilt via the builder).
        let h = g.vertex_by_label("H").unwrap();
        let f = g.vertex_by_label("F").unwrap();
        let g2 = g.with_edge_inserted(h, f).unwrap();
        let row_h = g2.adjacency_row(h).expect("H now has degree 2");
        assert_eq!((row_h[f.index() / 64] >> (f.index() % 64)) & 1, 1);
    }

    /// Asserts that the incrementally maintained structures (CSR rows, hybrid
    /// bitmap) of `got` are identical to a from-scratch rebuild of the same
    /// vertex/edge/keyword content.
    fn assert_matches_rebuild(got: &AttributedGraph) {
        let mut b = GraphBuilder::new();
        b.dictionary = (*got.dictionary).clone();
        b.keywords = got.keywords.iter().cloned().collect();
        b.labels = got.labels.iter().cloned().collect();
        for v in got.vertices() {
            for &u in got.neighbors(v) {
                if v < u {
                    b.edges.push((v, u));
                }
            }
        }
        let rebuilt = b.build();
        let (got_t, rebuilt_t) = (&got.topology, &rebuilt.topology);
        assert_eq!(got_t.offsets, rebuilt_t.offsets, "CSR offsets diverged from rebuild");
        assert_eq!(got_t.neighbors, rebuilt_t.neighbors, "CSR rows diverged from rebuild");
        assert_eq!(
            got_t.adjacency.words_per_row, rebuilt_t.adjacency.words_per_row,
            "bitmap geometry diverged"
        );
        assert_eq!(got_t.adjacency.threshold, rebuilt_t.adjacency.threshold);
        assert_eq!(
            got_t.adjacency.row_count(),
            rebuilt_t.adjacency.row_count(),
            "row count diverged from rebuild"
        );
        for v in got.vertices() {
            assert_eq!(
                got.adjacency_row(v),
                rebuilt.adjacency_row(v),
                "bitmap row of {v:?} diverged from rebuild"
            );
        }
    }

    #[test]
    fn apply_deltas_batches_mixed_updates() {
        let g = paper_figure3_graph();
        let h = g.vertex_by_label("H").unwrap();
        let f = g.vertex_by_label("F").unwrap();
        let a = g.vertex_by_label("A").unwrap();
        let b = g.vertex_by_label("B").unwrap();
        let deltas = vec![
            GraphDelta::insert_edge(h, f),
            GraphDelta::remove_edge(a, b),
            GraphDelta::add_keyword(b, "music"),
            GraphDelta::insert_vertex(Some("K"), &["w", "music"]),
            GraphDelta::insert_edge(VertexId(10), a), // references the new vertex
        ];
        let g2 = g.apply_deltas(&deltas).unwrap();
        assert!(g2.has_edge(h, f));
        assert!(!g2.has_edge(a, b));
        assert!(g2.keyword_terms(b).contains(&"music"));
        assert_eq!(g2.num_vertices(), 11);
        assert_eq!(g2.label(VertexId(10)), Some("K"));
        assert!(g2.has_edge(VertexId(10), a));
        assert_eq!(g2.num_edges(), g.num_edges() + 1); // +2 inserts, -1 removal
        assert_matches_rebuild(&g2);
        // The original graph is untouched.
        assert!(!g.has_edge(h, f));
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn apply_deltas_in_place_logs_only_effective_deltas() {
        let mut g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        let b = g.vertex_by_label("B").unwrap();
        let h = g.vertex_by_label("H").unwrap();
        let f = g.vertex_by_label("F").unwrap();
        let applied = g
            .apply_deltas_in_place(&[
                GraphDelta::insert_edge(a, b), // already present -> no-op
                GraphDelta::insert_edge(h, f),
                GraphDelta::remove_edge(h, f),
                GraphDelta::remove_keyword(a, "nonexistent"), // unknown term -> no-op
                GraphDelta::add_keyword(a, "w"),              // already carried -> no-op
                GraphDelta::add_keyword(a, "fresh"),
            ])
            .unwrap();
        let fresh = g.dictionary().get("fresh").unwrap();
        assert_eq!(
            applied,
            vec![
                AppliedDelta::EdgeInserted(h, f),
                AppliedDelta::EdgeRemoved(h, f),
                AppliedDelta::KeywordAdded(a, fresh),
            ]
        );
        assert_matches_rebuild(&g);
    }

    #[test]
    fn apply_deltas_validates_before_mutating() {
        let g = paper_figure3_graph();
        let a = g.vertex_by_label("A").unwrap();
        let h = g.vertex_by_label("H").unwrap();
        let f = g.vertex_by_label("F").unwrap();
        // The bad delta sits *after* a good one; nothing may apply.
        let bad = vec![GraphDelta::insert_edge(h, f), GraphDelta::insert_edge(a, VertexId(99))];
        assert_eq!(g.apply_deltas(&bad).err(), Some(GraphError::UnknownVertex(VertexId(99))));
        assert!(matches!(
            g.apply_deltas(&[GraphDelta::insert_edge(a, a)]),
            Err(GraphError::SelfLoop(_))
        ));
        // Removing a self-loop is a no-op (the edge cannot exist), not an
        // error — matching the historical with_edge_removed behaviour.
        let noop = g.apply_deltas(&[GraphDelta::remove_edge(a, a)]).unwrap();
        assert_eq!(noop.num_edges(), g.num_edges());
        // A vertex insert makes later ids valid within the same batch…
        assert!(g
            .apply_deltas(&[
                GraphDelta::insert_vertex(None, &[]),
                GraphDelta::insert_edge(VertexId(10), a),
            ])
            .is_ok());
        // …but not earlier ones.
        assert_eq!(
            g.apply_deltas(&[
                GraphDelta::insert_edge(VertexId(10), a),
                GraphDelta::insert_vertex(None, &[]),
            ])
            .err(),
            Some(GraphError::UnknownVertex(VertexId(10)))
        );
    }

    #[test]
    fn bitmap_promotion_and_demotion_track_the_threshold() {
        // n = 10 keeps the threshold at 1: any vertex with an edge owns a row.
        let g = paper_figure3_graph();
        let j = g.vertex_by_label("J").unwrap();
        let a = g.vertex_by_label("A").unwrap();
        assert!(g.adjacency_row(j).is_none(), "isolated J owns no row");
        let rows_before = g.adjacency_bitmap_rows();
        let g2 = g.with_edge_inserted(j, a).unwrap();
        assert!(g2.adjacency_row(j).is_some(), "J was promoted at degree 1");
        assert_eq!(g2.adjacency_bitmap_rows(), rows_before + 1);
        let g3 = g2.with_edge_removed(j, a).unwrap();
        assert!(g3.adjacency_row(j).is_none(), "J was demoted back");
        assert_eq!(g3.adjacency_bitmap_rows(), rows_before);
        assert_matches_rebuild(&g3);
        // Demoting a vertex that does not own the *last* row exercises the
        // swap-remove path (the moved row's owner must stay correct).
        let h = g.vertex_by_label("H").unwrap();
        let i = g.vertex_by_label("I").unwrap();
        let g4 = g.with_edge_removed(h, i).unwrap();
        assert!(g4.adjacency_row(h).is_none());
        assert!(g4.adjacency_row(i).is_none());
        assert_matches_rebuild(&g4);
    }

    #[test]
    fn vertex_insertion_across_word_boundaries_rebuilds_bitmap() {
        // Grow a graph from 62 to 66 vertices one insert at a time; at n=65
        // the word count ⌈n/64⌉ moves from 1 to 2, which must transparently
        // rebuild the bitmap (the threshold max(1, n/64) first moves at 128).
        let star: Vec<(u32, u32)> = (1..62).map(|i| (0, i)).collect();
        let mut g = unlabeled_graph(62, &star);
        for step in 0..4 {
            g = g.with_vertex_inserted(None, &[]).unwrap();
            assert_eq!(g.num_vertices(), 63 + step);
            assert_matches_rebuild(&g);
        }
        // The new vertices can gain edges and get promoted like any other.
        let v = VertexId(65);
        g = g
            .apply_deltas(&[
                GraphDelta::insert_edge(v, VertexId(0)),
                GraphDelta::insert_edge(v, VertexId(1)),
            ])
            .unwrap();
        assert_matches_rebuild(&g);
    }

    /// A path over `n` vertices, each carrying one of three terms.
    fn path_graph(n: u32) -> AttributedGraph {
        let terms = [["a"], ["b"], ["c"]];
        let keywords: Vec<&[&str]> = (0..n).map(|i| &terms[i as usize % 3][..]).collect();
        let edges: Vec<(u32, u32)> = (1..n).map(|i| (i - 1, i)).collect();
        graph_from_edges(&keywords, &edges)
    }

    /// How many vertices of `a` and `b` hold the very same keyword-set
    /// allocation.
    fn shared_keyword_sets(a: &AttributedGraph, b: &AttributedGraph) -> usize {
        a.keywords.iter().zip(b.keywords.iter()).filter(|(x, y)| x.shares_ids(y)).count()
    }

    #[test]
    fn a_keyword_delta_copies_only_the_set_pointers() {
        let old = path_graph(1000);
        let v = VertexId(700);
        let new = old.apply_deltas(&[GraphDelta::add_keyword(v, "a")]).unwrap();
        assert!(new.keyword_terms(v).contains(&"a"));
        assert!(old.topology.shares_all(&new.topology), "topology copied");
        assert!(Arc::ptr_eq(&old.labels, &new.labels), "labels copied");
        assert!(Arc::ptr_eq(&old.dictionary, &new.dictionary), "known term copied the dictionary");
        assert!(!Arc::ptr_eq(&old.keywords, &new.keywords));
        assert_eq!(shared_keyword_sets(&old, &new), 999, "only the edited set is new");
        assert!(!old.keyword_terms(v).contains(&"a"), "the old graph is untouched");
        let back = new.apply_deltas(&[GraphDelta::remove_keyword(v, "a")]).unwrap();
        assert_eq!(shared_keyword_sets(&back, &new), 999);
        assert!(Arc::ptr_eq(&back.dictionary, &new.dictionary));
        // Only a term the dictionary has not seen copies it.
        let fresh = old.apply_deltas(&[GraphDelta::add_keyword(v, "brand-new")]).unwrap();
        assert!(!Arc::ptr_eq(&old.dictionary, &fresh.dictionary));
        assert!(old.dictionary().get("brand-new").is_none(), "the old dictionary is untouched");
    }

    #[test]
    fn edge_and_vertex_deltas_unshare_only_the_topology() {
        let old = path_graph(1000);
        let new = old.apply_deltas(&[GraphDelta::insert_edge(VertexId(0), VertexId(900))]).unwrap();
        assert!(!Arc::ptr_eq(&old.topology.neighbors, &new.topology.neighbors));
        assert!(!Arc::ptr_eq(&old.topology.offsets, &new.topology.offsets));
        assert!(!old.has_edge(VertexId(0), VertexId(900)), "the old topology is untouched");
        assert!(Arc::ptr_eq(&old.dictionary, &new.dictionary));
        assert!(Arc::ptr_eq(&old.keywords, &new.keywords));
        assert!(Arc::ptr_eq(&old.labels, &new.labels));
        assert_matches_rebuild(&new);

        let grown = old.apply_deltas(&[GraphDelta::insert_vertex(Some("z"), &["b"])]).unwrap();
        assert!(!Arc::ptr_eq(&old.topology.offsets, &grown.topology.offsets));
        assert!(Arc::ptr_eq(&old.topology.neighbors, &grown.topology.neighbors), "no edge moved");
        assert!(Arc::ptr_eq(&old.dictionary, &grown.dictionary));
        assert_eq!(shared_keyword_sets(&old, &grown), 1000, "existing sets are not copied");
        assert_eq!(old.num_vertices(), 1000);
        assert_eq!(grown.label(VertexId(1000)), Some("z"));
        assert_matches_rebuild(&grown);
    }

    #[test]
    fn a_batch_copies_each_shared_array_once() {
        let old = path_graph(1000);
        let mut next = old.clone();
        next.apply_deltas_in_place(&[GraphDelta::insert_edge(VertexId(0), VertexId(2))]).unwrap();
        let (offsets, neighbors) =
            (next.topology.offsets.as_ptr(), next.topology.neighbors.as_ptr());
        next.apply_deltas_in_place(&[
            GraphDelta::remove_edge(VertexId(0), VertexId(1)),
            GraphDelta::insert_edge(VertexId(5), VertexId(9)),
        ])
        .unwrap();
        assert_eq!(next.topology.offsets.as_ptr(), offsets, "an owned array is edited in place");
        assert_eq!(
            next.topology.neighbors.as_ptr(),
            neighbors,
            "an owned array is edited in place"
        );
        assert_matches_rebuild(&next);
        assert!(old.has_edge(VertexId(0), VertexId(1)) && !old.has_edge(VertexId(0), VertexId(2)));
    }

    #[test]
    fn streamed_json_matches_the_value_tree() {
        let g = path_graph(300)
            .apply_deltas(&[
                GraphDelta::insert_vertex(Some("quote \" slash \\ nl \n ctl \u{1} é"), &["x"]),
                GraphDelta::insert_vertex(None, &[]),
                GraphDelta::insert_edge(VertexId(300), VertexId(3)),
            ])
            .unwrap();
        let mut from_tree = String::new();
        serde::write_value(&g.to_value(), &mut from_tree);
        assert_eq!(serde_json::to_string(&g).unwrap(), from_tree);
    }

    #[test]
    fn graph_serde_roundtrip() {
        let g = paper_figure3_graph();
        let json = serde_json::to_string(&g).unwrap();
        let g2: AttributedGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        let a = VertexId(0);
        assert_eq!(g2.neighbors(a), g.neighbors(a));
        assert_eq!(g2.keyword_set(a), g.keyword_set(a));
        assert_eq!(g2.adjacency_row(a), g.adjacency_row(a), "bitmap rows are rebuilt identically");
        assert!(!json.contains("adjacency"), "derived bitmap stays off the wire");

        // The term → id lookup must be rebuilt on deserialization: keyword
        // deltas replayed against a loaded snapshot resolve terms through
        // `dictionary().get`, and a no-op lookup would silently drop them.
        for (id, term) in g.dictionary().iter() {
            assert_eq!(g2.dictionary().get(term), Some(id), "lookup lost for `{term}`");
        }
        let v = VertexId(4);
        let term = g.dictionary().terms_of(g.keyword_set(v)).next().unwrap().to_string();
        let g3 = g2
            .apply_deltas(&[GraphDelta::RemoveKeyword { vertex: v, term: term.clone() }])
            .unwrap();
        assert!(
            g3.keyword_set(v).len() < g2.keyword_set(v).len(),
            "RemoveKeyword(`{term}`) was a no-op on the deserialized graph"
        );
    }

    #[test]
    fn deserialization_rejects_malformed_csr() {
        let g = paper_figure3_graph();
        let json = serde_json::to_string(&g).unwrap();
        // Truncating the offsets array must surface as an error, not a panic
        // while rebuilding the adjacency bitmap.
        let broken = json.replacen("\"offsets\":[0,", "\"offsets\":[", 1);
        assert!(serde_json::from_str::<AttributedGraph>(&broken).is_err());
    }
}
