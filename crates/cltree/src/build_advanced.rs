//! The `advanced` CL-tree construction (Algorithm 9): bottom-up, level by
//! level, driven by an Anchored Union-Find forest. Time `O(m · α(n) + l̂ · n)`.

use crate::node::{ClTreeNode, NodeId};
use crate::tree::ClTree;
use acq_graph::{AttributedGraph, VertexId};
use acq_kcore::CoreDecomposition;
use acq_unionfind::AnchoredUnionFind;
use std::collections::HashMap;

/// Builds the CL-tree bottom-up with the Anchored Union-Find. When
/// `with_inverted_lists` is `false` the keyword inverted lists are skipped
/// (the paper's `Advanced-` timing variant).
pub fn build_advanced(graph: &AttributedGraph, with_inverted_lists: bool) -> ClTree {
    let decomposition = CoreDecomposition::compute(graph);
    build_advanced_with_decomposition(graph, decomposition, with_inverted_lists)
}

/// Same as [`build_advanced`] but reuses a precomputed core decomposition.
pub fn build_advanced_with_decomposition(
    graph: &AttributedGraph,
    decomposition: CoreDecomposition,
    with_inverted_lists: bool,
) -> ClTree {
    let n = graph.num_vertices();
    let cores = decomposition.core_numbers().to_vec();
    let kmax = decomposition.kmax();

    let mut nodes: Vec<ClTreeNode> = Vec::new();
    let mut vertex_node: Vec<NodeId> = vec![usize::MAX; n];
    let mut auf = AnchoredUnionFind::new(n);

    // Group vertices by exact core number (the paper's V_kmax, …, V_0 sets).
    let mut by_core: Vec<Vec<VertexId>> = vec![Vec::new(); kmax as usize + 1];
    for v in graph.vertices() {
        by_core[cores[v.index()] as usize].push(v);
    }

    // Process levels from kmax down to 1; level 0 is the root, handled last.
    for k in (1..=kmax).rev() {
        let level: &[VertexId] = &by_core[k as usize];
        if level.is_empty() {
            continue;
        }

        // Phase 1 — child discovery. For every level-k vertex, every neighbour
        // with a *larger* core number belongs to an already-built subtree; the
        // anchor of that subtree's AUF component identifies its top node
        // (the anchor is the processed vertex with minimum core number, and
        // that vertex is owned by the subtree's top node). This must happen
        // before any union at this level, otherwise the anchors would already
        // have moved down to the new vertices.
        let mut pending_children: HashMap<VertexId, Vec<NodeId>> = HashMap::new();
        for &v in level {
            for &u in graph.neighbors(v) {
                if cores[u.index()] > k {
                    let anchor = auf.anchor_of_element(u.index());
                    let child = vertex_node[anchor];
                    debug_assert_ne!(
                        child,
                        usize::MAX,
                        "anchor of a processed component is placed"
                    );
                    pending_children.entry(v).or_default().push(child);
                }
            }
        }

        // Phase 2 — union the level-k vertices with all processed neighbours
        // (core ≥ k) and drag the anchors down to core k.
        for &v in level {
            for &u in graph.neighbors(v) {
                if cores[u.index()] >= k {
                    auf.union(v.index(), u.index());
                }
            }
            auf.update_anchor(v.index(), &cores, v.index());
        }

        // Phase 3 — group the level-k vertices by their AUF component; each
        // group is one k-ĉore and becomes one CL-tree node owning the group.
        let mut groups: HashMap<usize, Vec<VertexId>> = HashMap::new();
        for &v in level {
            groups.entry(auf.find(v.index())).or_default().push(v);
        }
        let mut roots: Vec<usize> = groups.keys().copied().collect();
        roots.sort_unstable();
        for root in roots {
            let owned = groups.remove(&root).expect("group exists");
            let node_id = nodes.len();
            let mut node = ClTreeNode::new(k, owned);
            // Attach the previously-built top nodes reachable from this group.
            let mut children: Vec<NodeId> = node
                .vertices
                .iter()
                .flat_map(|v| pending_children.get(v).cloned().unwrap_or_default())
                .collect();
            children.sort_unstable();
            children.dedup();
            for &c in &children {
                nodes[c].parent = Some(node_id);
            }
            node.children = children;
            for &v in &node.vertices {
                vertex_node[v.index()] = node_id;
            }
            nodes.push(node);
        }
    }

    // Level 0 — the root represents the whole graph (the 0-core), owns the
    // core-0 vertices, and adopts every still-parentless node.
    let root_id = nodes.len();
    let mut root = ClTreeNode::new(0, by_core.first().cloned().unwrap_or_default());
    for &v in &root.vertices {
        vertex_node[v.index()] = root_id;
    }
    let orphans: Vec<NodeId> = (0..nodes.len()).filter(|&id| nodes[id].parent.is_none()).collect();
    for &id in &orphans {
        nodes[id].parent = Some(root_id);
    }
    root.children = orphans;
    nodes.push(root);

    debug_assert!(vertex_node.iter().all(|&id| id != usize::MAX));

    ClTree::from_parts(
        nodes,
        root_id,
        vertex_node,
        decomposition,
        with_inverted_lists.then_some(graph),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_basic::build_basic;
    use acq_graph::{paper_figure3_graph, unlabeled_graph, GraphBuilder};

    #[test]
    fn advanced_build_is_valid_and_matches_basic_on_figure3() {
        let g = paper_figure3_graph();
        let adv = build_advanced(&g, true);
        let bas = build_basic(&g, true);
        adv.validate(&g).unwrap();
        assert_eq!(adv.canonical_form(), bas.canonical_form());
        assert_eq!(adv.num_nodes(), 5);
    }

    #[test]
    fn figure5_example_shape() {
        // The 14-vertex example of Figure 5: V3 = {A,B,C,D, I,J,K,L} (two
        // 3-cliques... here two K4s), V2 = {E,F,G}, V1 = {H,M}, V0 = {N}.
        let mut b = GraphBuilder::new();
        let names = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L", "M", "N"];
        let ids: Vec<_> = names.iter().map(|n| b.add_vertex(n, &[])).collect();
        let ix = |s: &str| ids[names.iter().position(|&n| n == s).unwrap()];
        // K4 on A,B,C,D and K4 on I,J,K,L.
        for set in [["A", "B", "C", "D"], ["I", "J", "K", "L"]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(ix(set[i]), ix(set[j])).unwrap();
                }
            }
        }
        // E,F,G form a triangle attached to the first clique twice (core 2).
        b.add_edge(ix("E"), ix("F")).unwrap();
        b.add_edge(ix("F"), ix("G")).unwrap();
        b.add_edge(ix("G"), ix("E")).unwrap();
        b.add_edge(ix("E"), ix("A")).unwrap();
        b.add_edge(ix("E"), ix("D")).unwrap();
        // H bridges the E-triangle and M (both core 1).
        b.add_edge(ix("H"), ix("G")).unwrap();
        b.add_edge(ix("M"), ix("K")).unwrap();
        // N is isolated (core 0).
        let g = b.build();

        let adv = build_advanced(&g, true);
        adv.validate(&g).unwrap();
        let bas = build_basic(&g, true);
        assert_eq!(adv.canonical_form(), bas.canonical_form());

        let d = adv.decomposition();
        assert_eq!(d.core_number(ix("A")), 3);
        assert_eq!(d.core_number(ix("E")), 2);
        assert_eq!(d.core_number(ix("H")), 1);
        assert_eq!(d.core_number(ix("M")), 1);
        assert_eq!(d.core_number(ix("N")), 0);
        // Nodes: root{N}, p4{H} branch? — canonical count: root(0) + {H}(1)? H
        // and M are in different 1-ĉores: H attaches to the left branch, M to
        // the right. Plus p3 (core 2, {E,F,G}), p1 (core 3, ABCD), p2 (core 3,
        // IJKL). Total 6 nodes.
        assert_eq!(adv.num_nodes(), 6);
        let m_node = adv.node_of(ix("M"));
        assert_eq!(adv.node(m_node).core_num, 1);
        let k_node = adv.node_of(ix("K"));
        assert_eq!(adv.node(k_node).parent, Some(m_node), "IJKL nests under M's 1-ĉore");
    }

    #[test]
    fn advanced_handles_gaps_in_core_levels() {
        // A K6 (cores 5) plus a pendant vertex (core 1) plus an isolated one:
        // levels 2, 3, 4 have no vertices at all.
        let mut edges: Vec<(u32, u32)> =
            (0..6).flat_map(|i| ((i + 1)..6).map(move |j| (i, j))).collect();
        edges.push((0, 6));
        let g = unlabeled_graph(8, &edges);
        let adv = build_advanced(&g, true);
        adv.validate(&g).unwrap();
        let bas = build_basic(&g, true);
        assert_eq!(adv.canonical_form(), bas.canonical_form());
        assert_eq!(adv.num_nodes(), 3, "root, the pendant 1-ĉore, the K6");
    }

    #[test]
    fn advanced_empty_graph() {
        let g = unlabeled_graph(0, &[]);
        let t = build_advanced(&g, true);
        assert_eq!(t.num_nodes(), 1);
        t.validate(&g).unwrap();
    }

    #[test]
    fn reuses_supplied_decomposition() {
        let g = paper_figure3_graph();
        let d = CoreDecomposition::compute(&g);
        let t = build_advanced_with_decomposition(&g, d, true);
        t.validate(&g).unwrap();
    }
}
