//! Incremental CL-tree maintenance (Section 5.2.2 "Index maintenance" and
//! Appendix F of the paper).
//!
//! * **Keyword updates** are fully local: only the inverted list of the single
//!   CL-tree node owning the vertex changes.
//! * **Vertex insertions** (isolated vertices appended by a graph delta) are
//!   fully local too: the vertex joins the root node, node ids untouched.
//! * **Edge updates** first update the core decomposition incrementally with
//!   the subcore algorithm of `acq-kcore` (only vertices at the affected core
//!   level are touched, as in Li et al.), and then decide between two paths:
//!
//!   1. **Short-circuit** — when no core number moved *and* the update
//!      provably cannot have merged or split any k-ĉore (see
//!      [`apply_edge_insertion_with_report`]), the skeleton is byte-for-byte
//!      the old one: the tree keeps (and shares) every node, and only the
//!      maintained decomposition is new. Every node id stays valid, which is
//!      what lets the engine's swap-aware cache carry entries across
//!      generations.
//!   2. **Skeleton rebuild** — otherwise the tree skeleton is rebuilt from
//!      the updated core numbers with the `advanced` builder, `O(m·α(n))`,
//!      still skipping the `O(m)` from-scratch decomposition. The paper
//!      sketches an even more local subtree splice; the rebuild keeps the
//!      API simple, which is the trade-off documented in DESIGN.md.
//!
//!   The [`MaintenanceReport`] says which path ran and how big the touched
//!   subcore was — the signals the live-update driver in `acq-core` uses for
//!   its rebuild-threshold fallback and cache carry-over decisions.

use crate::build_advanced::build_advanced_with_decomposition;
use crate::tree::ClTree;
use acq_graph::{AttributedGraph, KeywordId, VertexId};
use acq_kcore::MaintenanceOutcome;

/// What one edge-maintenance call did to the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Size of the affected subcore the core-maintenance cascade examined.
    pub subcore_size: usize,
    /// How many vertices changed core number (by exactly one).
    pub cores_changed: usize,
    /// `true` if the tree skeleton was rebuilt (node ids of the returned tree
    /// are **not** comparable to the input tree's); `false` if the old
    /// skeleton was kept verbatim (every node id stays valid).
    pub skeleton_rebuilt: bool,
}

impl MaintenanceReport {
    fn new(outcome: MaintenanceOutcome, skeleton_rebuilt: bool) -> Self {
        Self {
            subcore_size: outcome.subcore_size,
            cores_changed: outcome.changed,
            skeleton_rebuilt,
        }
    }
}

/// Registers a newly added keyword of `vertex` in the index. The caller must
/// have already added the keyword to the graph (e.g. via
/// [`AttributedGraph::with_keyword_added`]); this touches exactly one node,
/// copying that node and its one edited list if another tree shares them.
pub fn apply_keyword_insertion(tree: &mut ClTree, vertex: VertexId, keyword: KeywordId) {
    let node = tree.node_of(vertex);
    if tree.has_inverted_lists() {
        tree.node_mut(node).add_keyword_entry(keyword, vertex);
    }
}

/// Removes a keyword of `vertex` from the index (no-op if it was not listed).
pub fn apply_keyword_removal(tree: &mut ClTree, vertex: VertexId, keyword: KeywordId) {
    let node = tree.node_of(vertex);
    if tree.has_inverted_lists() {
        tree.node_mut(node).remove_keyword_entry(keyword, vertex);
    }
}

/// Registers a freshly appended **isolated** vertex of `graph` in the index:
/// it is owned by the root node (core number 0) and its keywords join the
/// root's inverted list. Node ids are untouched. The caller wires any edges
/// of the new vertex through [`apply_edge_insertion`] afterwards.
pub fn apply_vertex_insertion(tree: &mut ClTree, graph: &AttributedGraph, vertex: VertexId) {
    tree.insert_isolated_vertex(graph, vertex);
}

/// Updates the index after the edge `{u, v}` has been inserted into the graph
/// (`graph` must already contain the edge). Returns the refreshed index.
pub fn apply_edge_insertion(
    tree: &ClTree,
    graph: &AttributedGraph,
    u: VertexId,
    v: VertexId,
) -> ClTree {
    apply_edge_insertion_with_report(tree, graph, u, v).0
}

/// Like [`apply_edge_insertion`], also reporting what the maintenance did —
/// a clone-then-[`apply_edge_insertion_in_place`] convenience for callers
/// that need to keep the input tree.
pub fn apply_edge_insertion_with_report(
    tree: &ClTree,
    graph: &AttributedGraph,
    u: VertexId,
    v: VertexId,
) -> (ClTree, MaintenanceReport) {
    let mut next = tree.clone();
    let report = apply_edge_insertion_in_place(&mut next, graph, u, v);
    (next, report)
}

/// In-place variant of [`apply_edge_insertion`] for callers that own their
/// (staged) tree, e.g. the live-update driver in `acq-core`.
///
/// The skeleton short-circuit fires when **no core number moved** and the two
/// endpoints already sat in the same `c`-ĉore node at
/// `c = min(core(u), core(v))`: the edge is then internal to an existing
/// subtree, so no ĉore at any level can have merged (levels ≤ c share the
/// node by nestedness; levels > c contain at most one endpoint), and the
/// skeleton is kept verbatim — only the decomposition was maintained, at
/// `O(touched subcore)` cost plus one copy of the decomposition if another
/// tree shares it, and **no** node copy. Otherwise the skeleton is rebuilt
/// from the maintained decomposition.
pub fn apply_edge_insertion_in_place(
    tree: &mut ClTree,
    graph: &AttributedGraph,
    u: VertexId,
    v: VertexId,
) -> MaintenanceReport {
    let c = tree.core_number(u).min(tree.core_number(v));
    let outcome =
        acq_kcore::maintenance::apply_edge_insertion(graph, tree.decomposition_mut(), u, v);
    if outcome.changed == 0 {
        // Core numbers survived, so `tree`'s levels still describe the graph;
        // the only possible structural change is a merge of two ĉores at the
        // edge's level, ruled out when the endpoints share that node already.
        if let (Some(a), Some(b)) = (tree.locate_core(u, c), tree.locate_core(v, c)) {
            if a == b {
                return MaintenanceReport::new(outcome, false);
            }
        }
    }
    *tree = build_advanced_with_decomposition(
        graph,
        tree.decomposition().clone(),
        tree.has_inverted_lists(),
    );
    MaintenanceReport::new(outcome, true)
}

/// Updates the index after the edge `{u, v}` has been removed from the graph
/// (`graph` must no longer contain the edge). Returns the refreshed index.
pub fn apply_edge_removal(
    tree: &ClTree,
    graph: &AttributedGraph,
    u: VertexId,
    v: VertexId,
) -> ClTree {
    apply_edge_removal_with_report(tree, graph, u, v).0
}

/// Like [`apply_edge_removal`], also reporting what the maintenance did —
/// a clone-then-[`apply_edge_removal_in_place`] convenience for callers that
/// need to keep the input tree.
pub fn apply_edge_removal_with_report(
    tree: &ClTree,
    graph: &AttributedGraph,
    u: VertexId,
    v: VertexId,
) -> (ClTree, MaintenanceReport) {
    let mut next = tree.clone();
    let report = apply_edge_removal_in_place(&mut next, graph, u, v);
    (next, report)
}

/// In-place variant of [`apply_edge_removal`] for callers that own their
/// (staged) tree.
///
/// The skeleton short-circuit fires when **no core number moved** and the two
/// endpoints are still connected within the vertices of core number
/// `≥ c = min(core(u), core(v))` (checked with a BFS bounded by that ĉore):
/// then no ĉore split at level `c` — and by nestedness none below it, while
/// levels above `c` never contained the edge — so the skeleton is kept
/// verbatim with **no** node copy; otherwise it is rebuilt from the
/// maintained decomposition.
pub fn apply_edge_removal_in_place(
    tree: &mut ClTree,
    graph: &AttributedGraph,
    u: VertexId,
    v: VertexId,
) -> MaintenanceReport {
    let c = tree.core_number(u).min(tree.core_number(v));
    let outcome = acq_kcore::maintenance::apply_edge_removal(graph, tree.decomposition_mut(), u, v);
    if outcome.changed == 0 {
        let still_connected = c == 0
            || acq_kcore::connected_kcore_containing(graph, tree.decomposition(), u, c)
                .is_some_and(|component| component.contains(v));
        if still_connected {
            return MaintenanceReport::new(outcome, false);
        }
    }
    *tree = build_advanced_with_decomposition(
        graph,
        tree.decomposition().clone(),
        tree.has_inverted_lists(),
    );
    MaintenanceReport::new(outcome, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_advanced::build_advanced;
    use acq_graph::paper_figure3_graph;

    #[test]
    fn keyword_insertion_updates_single_inverted_list() {
        let g = paper_figure3_graph();
        let mut t = build_advanced(&g, true);
        let b = g.vertex_by_label("B").unwrap();
        let g2 = g.with_keyword_added(b, "music").unwrap();
        let music = g2.dictionary().get("music").unwrap();
        apply_keyword_insertion(&mut t, b, music);
        t.validate(&g2).unwrap();
        let node = t.node_of(b);
        assert!(t.node(node).vertices_with_keyword(music).contains(&b));
    }

    /// How many nodes two trees share (same allocation), by node id.
    fn shared_nodes(a: &ClTree, b: &ClTree) -> usize {
        a.nodes.iter().zip(&b.nodes).filter(|(x, y)| std::sync::Arc::ptr_eq(x, y)).count()
    }

    #[test]
    fn keyword_maintenance_copies_only_the_owning_node() {
        let g = paper_figure3_graph();
        let old = build_advanced(&g, true);
        let b = g.vertex_by_label("B").unwrap();
        let x = g.dictionary().get("x").unwrap();
        let z = g.dictionary().get("z").unwrap();
        let mut new = old.clone();
        assert_eq!(shared_nodes(&old, &new), old.num_nodes(), "a clone copies no node");
        apply_keyword_insertion(&mut new, b, z);
        assert_eq!(shared_nodes(&old, &new), old.num_nodes() - 1);
        let owner = new.node_of(b);
        assert!(!std::sync::Arc::ptr_eq(&old.nodes[owner], &new.nodes[owner]));
        assert!(std::sync::Arc::ptr_eq(&old.vertex_node, &new.vertex_node));
        assert!(std::sync::Arc::ptr_eq(&old.decomposition, &new.decomposition));
        // Within the owner, only the edited list was copied.
        let (before, after) = (&old.nodes[owner].inverted, &new.nodes[owner].inverted);
        assert!(std::sync::Arc::ptr_eq(&before[&x], &after[&x]), "an untouched list was copied");
        assert!(!old.node(owner).vertices_with_keyword(z).contains(&b), "old tree untouched");
        new.validate(&g.with_keyword_added(b, "z").unwrap()).unwrap();
    }

    #[test]
    fn edge_maintenance_copies_the_decomposition() {
        let g = acq_graph::unlabeled_graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let old = build_advanced(&g, true);
        let (u, v) = (acq_graph::VertexId(0), acq_graph::VertexId(2));
        let g2 = g.with_edge_inserted(u, v).unwrap();
        let (new, report) = apply_edge_insertion_with_report(&old, &g2, u, v);
        assert!(!report.skeleton_rebuilt);
        assert!(!std::sync::Arc::ptr_eq(&old.decomposition, &new.decomposition));
        assert_eq!(shared_nodes(&old, &new), old.num_nodes(), "a kept skeleton copies no node");
        assert!(std::sync::Arc::ptr_eq(&old.vertex_node, &new.vertex_node));
    }

    #[test]
    fn keyword_removal_updates_single_inverted_list() {
        let g = paper_figure3_graph();
        let mut t = build_advanced(&g, true);
        let d = g.vertex_by_label("D").unwrap();
        let z = g.dictionary().get("z").unwrap();
        let g2 = g.with_keyword_removed(d, "z").unwrap();
        apply_keyword_removal(&mut t, d, z);
        t.validate(&g2).unwrap();
        assert!(!t.node(t.node_of(d)).vertices_with_keyword(z).contains(&d));
    }

    #[test]
    fn keyword_updates_are_noops_without_inverted_lists() {
        let g = paper_figure3_graph();
        let mut t = build_advanced(&g, false);
        let b = g.vertex_by_label("B").unwrap();
        apply_keyword_insertion(&mut t, b, KeywordId(0));
        apply_keyword_removal(&mut t, b, KeywordId(0));
        t.validate(&g).unwrap();
    }

    #[test]
    fn edge_insertion_refreshes_index() {
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let f = g.vertex_by_label("F").unwrap();
        let g_vertex = g.vertex_by_label("G").unwrap();
        // Adding F–G turns {E,F,G} into a triangle, promoting F and G to core 2.
        let g2 = g.with_edge_inserted(f, g_vertex).unwrap();
        let t2 = apply_edge_insertion(&t, &g2, f, g_vertex);
        t2.validate(&g2).unwrap();
        assert_eq!(t2.core_number(f), 2);
        let from_scratch = build_advanced(&g2, true);
        assert_eq!(t2.canonical_form(), from_scratch.canonical_form());
    }

    #[test]
    fn edge_removal_refreshes_index() {
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let a = g.vertex_by_label("A").unwrap();
        let b = g.vertex_by_label("B").unwrap();
        let g2 = g.with_edge_removed(a, b).unwrap();
        let t2 = apply_edge_removal(&t, &g2, a, b);
        t2.validate(&g2).unwrap();
        assert_eq!(t2.core_number(a), 2, "clique minus an edge drops to core 2");
        let from_scratch = build_advanced(&g2, true);
        assert_eq!(t2.canonical_form(), from_scratch.canonical_form());
    }

    #[test]
    fn internal_edge_insertion_short_circuits_without_rebuild() {
        // A 4-cycle is a single 2-ĉore; adding the chord (0, 2) changes no
        // core number (vertices 1 and 3 keep degree 2) and both endpoints
        // already share the 2-ĉore node — the cheap clone path must fire.
        let g = acq_graph::unlabeled_graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let t = build_advanced(&g, true);
        let (u, v) = (acq_graph::VertexId(0), acq_graph::VertexId(2));
        let g2 = g.with_edge_inserted(u, v).unwrap();
        let (t2, report) = apply_edge_insertion_with_report(&t, &g2, u, v);
        assert!(!report.skeleton_rebuilt, "internal edge keeps the skeleton");
        assert_eq!(report.cores_changed, 0);
        t2.validate(&g2).unwrap();
        // Node ids are stable: every vertex maps to the same node id.
        for w in g.vertices() {
            assert_eq!(t2.node_of(w), t.node_of(w), "node id of {w:?} must be stable");
        }
        assert_eq!(t2.canonical_form(), build_advanced(&g2, true).canonical_form());
    }

    #[test]
    fn bridge_edge_insertion_merging_cores_rebuilds() {
        // F (core 1, left 1-ĉore) to H (core 1, the separate {H, I} 1-ĉore):
        // no core number changes, but the two 1-ĉores merge — the short
        // circuit must NOT fire.
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let f = g.vertex_by_label("F").unwrap();
        let h = g.vertex_by_label("H").unwrap();
        let g2 = g.with_edge_inserted(f, h).unwrap();
        let (t2, report) = apply_edge_insertion_with_report(&t, &g2, f, h);
        assert!(report.skeleton_rebuilt, "merging two 1-ĉores must rebuild");
        assert_eq!(report.cores_changed, 0, "yet no core number moved");
        t2.validate(&g2).unwrap();
        assert_eq!(t2.canonical_form(), build_advanced(&g2, true).canonical_form());
    }

    #[test]
    fn redundant_edge_removal_short_circuits_without_rebuild() {
        // A 4-cycle plus the chord (0, 2): removing the chord changes no core
        // number (the cycle keeps everyone at core 2) and the 2-ĉore stays
        // connected — the cheap clone path must fire.
        let g = acq_graph::unlabeled_graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let t = build_advanced(&g, true);
        let (u, v) = (acq_graph::VertexId(0), acq_graph::VertexId(2));
        let g2 = g.with_edge_removed(u, v).unwrap();
        let (t2, report) = apply_edge_removal_with_report(&t, &g2, u, v);
        assert!(!report.skeleton_rebuilt, "redundant edge removal keeps the skeleton");
        assert_eq!(report.cores_changed, 0);
        t2.validate(&g2).unwrap();
        for w in g2.vertices() {
            assert_eq!(t2.node_of(w), t.node_of(w), "node id of {w:?} must be stable");
        }
        assert_eq!(t2.canonical_form(), build_advanced(&g2, true).canonical_form());
    }

    #[test]
    fn splitting_edge_removal_rebuilds() {
        // Removing H–I disconnects the {H, I} 1-ĉore into two core-0
        // vertices; cores change, so the rebuild path runs.
        let g = paper_figure3_graph();
        let t = build_advanced(&g, true);
        let h = g.vertex_by_label("H").unwrap();
        let i = g.vertex_by_label("I").unwrap();
        let g2 = g.with_edge_removed(h, i).unwrap();
        let (t2, report) = apply_edge_removal_with_report(&t, &g2, h, i);
        assert!(report.skeleton_rebuilt);
        assert_eq!(report.cores_changed, 2, "H and I both drop to core 0");
        t2.validate(&g2).unwrap();
        assert_eq!(t2.canonical_form(), build_advanced(&g2, true).canonical_form());
    }

    #[test]
    fn vertex_insertion_joins_root_in_place() {
        let g = paper_figure3_graph();
        let mut t = build_advanced(&g, true);
        let root = t.root();
        let g2 = g.with_vertex_inserted(Some("K"), &["x", "brand-new"]).unwrap();
        let k = g2.vertex_by_label("K").unwrap();
        apply_vertex_insertion(&mut t, &g2, k);
        t.validate(&g2).unwrap();
        assert_eq!(t.node_of(k), root, "isolated vertices are owned by the root");
        assert_eq!(t.core_number(k), 0);
        let brand_new = g2.dictionary().get("brand-new").unwrap();
        assert!(t.node(root).vertices_with_keyword(brand_new).contains(&k));
        assert_eq!(t.canonical_form(), build_advanced(&g2, true).canonical_form());
    }

    #[test]
    fn sequence_of_mixed_updates_stays_valid() {
        let mut g = paper_figure3_graph();
        let mut t = build_advanced(&g, true);
        let pairs = [("H", "F"), ("J", "A"), ("I", "G")];
        for (x, y) in pairs {
            let u = g.vertex_by_label(x).unwrap();
            let v = g.vertex_by_label(y).unwrap();
            g = g.with_edge_inserted(u, v).unwrap();
            t = apply_edge_insertion(&t, &g, u, v);
            t.validate(&g).unwrap();
        }
        // Now remove one of them again.
        let u = g.vertex_by_label("J").unwrap();
        let v = g.vertex_by_label("A").unwrap();
        g = g.with_edge_removed(u, v).unwrap();
        t = apply_edge_removal(&t, &g, u, v);
        t.validate(&g).unwrap();
    }
}
