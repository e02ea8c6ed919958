//! The `basic` CL-tree construction (Algorithm 1): top-down, recomputing
//! connected components level by level. Time `O(m · kmax + l̂ · n)`.

use crate::node::{ClTreeNode, NodeId};
use crate::tree::ClTree;
use acq_graph::{AttributedGraph, VertexId, VertexSubset};
use acq_kcore::CoreDecomposition;

/// Builds the CL-tree top-down. When `with_inverted_lists` is `false` the
/// keyword inverted lists are skipped (the paper's `Basic-` timing variant).
pub fn build_basic(graph: &AttributedGraph, with_inverted_lists: bool) -> ClTree {
    let decomposition = CoreDecomposition::compute(graph);
    build_basic_with_decomposition(graph, decomposition, with_inverted_lists)
}

/// Same as [`build_basic`] but reuses a precomputed core decomposition (used
/// by the index-maintenance path after incremental core updates).
pub fn build_basic_with_decomposition(
    graph: &AttributedGraph,
    decomposition: CoreDecomposition,
    with_inverted_lists: bool,
) -> ClTree {
    let n = graph.num_vertices();
    let mut nodes: Vec<ClTreeNode> = Vec::new();
    let mut vertex_node: Vec<NodeId> = vec![0; n];

    // Root: the 0-core is the whole graph (one node even when disconnected).
    let root_owned: Vec<VertexId> = decomposition.vertices_with_core_exactly(0).collect();
    let root_id = push_node(&mut nodes, &mut vertex_node, ClTreeNode::new(0, root_owned), None);

    if n > 0 {
        // Children of the root: one subtree per connected component of the
        // subgraph induced by the vertices of core number >= 1.
        let level1 = VertexSubset::from_iter(n, decomposition.vertices_with_core_at_least(1));
        for component in level1.components(graph) {
            expand(graph, &decomposition, &mut nodes, &mut vertex_node, root_id, component, 1);
        }
    }

    ClTree::from_parts(
        nodes,
        root_id,
        vertex_node,
        decomposition,
        with_inverted_lists.then_some(graph),
    )
}

/// Recursive step of Algorithm 1, walking one core level at a time.
///
/// `component` holds the vertices (all of core number ≥ `k`) of one k-ĉore
/// nested inside `parent`. If the component owns vertices of core number
/// exactly `k`, a node is materialised for it; otherwise the level is skipped
/// (compression — the k-ĉore coincides with the (k+1)-ĉore below it) and the
/// recursion continues with the same parent.
fn expand(
    graph: &AttributedGraph,
    decomposition: &CoreDecomposition,
    nodes: &mut Vec<ClTreeNode>,
    vertex_node: &mut Vec<NodeId>,
    parent: NodeId,
    component: VertexSubset,
    k: u32,
) {
    if component.is_empty() || k > decomposition.kmax() {
        return;
    }
    let owned: Vec<VertexId> =
        component.iter().filter(|&v| decomposition.core_number(v) == k).collect();
    let owned_set = VertexSubset::from_iter(graph.num_vertices(), owned.iter().copied());

    let next_parent = if owned.is_empty() {
        parent
    } else {
        push_node(nodes, vertex_node, ClTreeNode::new(k, owned), Some(parent))
    };

    // Vertices of the (k+1)-core inside this component: every component vertex
    // has core >= k, so a word-parallel difference against the owned (core == k)
    // set replaces a second per-vertex core-number scan.
    let deeper = component.difference(&owned_set);
    if deeper.is_empty() {
        return;
    }
    for sub in deeper.components(graph) {
        expand(graph, decomposition, nodes, vertex_node, next_parent, sub, k + 1);
    }
}

fn push_node(
    nodes: &mut Vec<ClTreeNode>,
    vertex_node: &mut [NodeId],
    mut node: ClTreeNode,
    parent: Option<NodeId>,
) -> NodeId {
    let id = nodes.len();
    node.parent = parent;
    for &v in &node.vertices {
        vertex_node[v.index()] = id;
    }
    nodes.push(node);
    if let Some(p) = parent {
        nodes[p].children.push(id);
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_graph::{paper_figure3_graph, unlabeled_graph};

    #[test]
    fn basic_build_produces_valid_index_for_figure3() {
        let g = paper_figure3_graph();
        let t = build_basic(&g, true);
        t.validate(&g).unwrap();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.kmax(), 3);
        assert!(t.has_inverted_lists());
    }

    #[test]
    fn basic_build_without_inverted_lists() {
        let g = paper_figure3_graph();
        let t = build_basic(&g, false);
        t.validate(&g).unwrap();
        assert!(!t.has_inverted_lists());
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = unlabeled_graph(0, &[]);
        let t = build_basic(&empty, true);
        assert_eq!(t.num_nodes(), 1, "just the root");
        t.validate(&empty).unwrap();

        let isolated = unlabeled_graph(3, &[]);
        let t = build_basic(&isolated, true);
        t.validate(&isolated).unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.node(t.root()).len(), 3);

        let edge = unlabeled_graph(2, &[(0, 1)]);
        let t = build_basic(&edge, true);
        t.validate(&edge).unwrap();
        assert_eq!(t.num_nodes(), 2, "root + one 1-ĉore");
    }

    #[test]
    fn clique_collapses_to_two_nodes() {
        // K5: the 1-, 2-, 3- and 4-ĉores all coincide, so compression leaves
        // root (empty of core-0 vertices? no: all vertices have core 4) plus a
        // single node of core 4.
        let edges: Vec<(u32, u32)> =
            (0..5).flat_map(|i| ((i + 1)..5).map(move |j| (i, j))).collect();
        let g = unlabeled_graph(5, &edges);
        let t = build_basic(&g, true);
        t.validate(&g).unwrap();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.node(t.root()).len(), 0);
        let child = t.node(t.root()).children[0];
        assert_eq!(t.node(child).core_num, 4);
        assert_eq!(t.node(child).len(), 5);
    }

    #[test]
    fn two_components_get_separate_subtrees() {
        // Two triangles joined by nothing: root + two core-2 nodes.
        let g = unlabeled_graph(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let t = build_basic(&g, true);
        t.validate(&g).unwrap();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.node(t.root()).children.len(), 2);
    }
}
