//! Corollary A.1 — the graph verification suite: correctness and cost of
//! every verifier on positive and negative instances.

use rmo_apps::certificate::sparse_certificate;
use rmo_apps::verify::{
    verify_bipartite, verify_connected_spanning, verify_cut, verify_forest, verify_spanning_tree,
    verify_st_connectivity, verify_two_edge_connected,
};
use rmo_core::{EngineConfig, PaEngine};
use rmo_graph::{gen, reference, EdgeId, Graph};

use crate::util::print_table;

/// A fresh engine per check, so every row pays its own setup.
fn fresh(g: &Graph) -> PaEngine<'_> {
    PaEngine::new(g, EngineConfig::new())
}

pub fn run() {
    let g = gen::grid_weighted(8, 8, 2);
    let mst = reference::kruskal(&g).edges;
    let mut broken = mst.clone();
    broken.pop();
    let all: Vec<EdgeId> = (0..g.m()).collect();
    let bridgey = gen::dumbbell(6, 1);
    let bridge = vec![bridgey.edge_between(5, 6).unwrap()];
    let odd = gen::cycle(9);
    let odd_all: Vec<EdgeId> = (0..odd.m()).collect();

    let mut rows = Vec::new();
    let mut push = |name: &str, expected: bool, v: rmo_apps::verify::Verdict| {
        assert_eq!(v.holds, expected, "{name}");
        rows.push(vec![
            name.to_string(),
            expected.to_string(),
            v.holds.to_string(),
            v.cost.rounds.to_string(),
            v.cost.messages.to_string(),
        ]);
    };
    push(
        "spanning-tree(MST)",
        true,
        verify_spanning_tree(&mut fresh(&g), &mst).unwrap(),
    );
    push(
        "spanning-tree(MST minus edge)",
        false,
        verify_spanning_tree(&mut fresh(&g), &broken).unwrap(),
    );
    push(
        "connected-spanning(all edges)",
        true,
        verify_connected_spanning(&mut fresh(&g), &all).unwrap(),
    );
    push(
        "connected-spanning(tree minus edge)",
        false,
        verify_connected_spanning(&mut fresh(&g), &broken).unwrap(),
    );
    push(
        "cut(dumbbell bridge)",
        true,
        verify_cut(&mut fresh(&bridgey), &bridge).unwrap(),
    );
    push(
        "cut(one clique edge)",
        false,
        verify_cut(&mut fresh(&bridgey), &[bridgey.edge_between(0, 1).unwrap()]).unwrap(),
    );
    push(
        "bipartite(forest)",
        true,
        verify_bipartite(&mut fresh(&g), &mst).unwrap(),
    );
    push(
        "bipartite(odd cycle)",
        false,
        verify_bipartite(&mut fresh(&odd), &odd_all).unwrap(),
    );
    push(
        "forest(MST)",
        true,
        verify_forest(&mut fresh(&g), &mst).unwrap(),
    );
    push(
        "forest(all grid edges)",
        false,
        verify_forest(&mut fresh(&g), &all).unwrap(),
    );
    push(
        "s-t connectivity(path prefix)",
        true,
        verify_st_connectivity(&mut fresh(&g), &mst, 0, g.n() - 1).unwrap(),
    );
    push(
        "2-edge-connected(grid)",
        true,
        verify_two_edge_connected(&mut fresh(&g)).unwrap(),
    );
    push(
        "2-edge-connected(dumbbell)",
        false,
        verify_two_edge_connected(&mut fresh(&bridgey)).unwrap(),
    );
    print_table(
        "Corollary A.1 — verification problems at O~(D + sqrt n) rounds, O~(m) messages",
        &[
            "verifier (instance)",
            "expected",
            "verdict",
            "rounds",
            "messages",
        ],
        &rows,
    );
    // Sparse certificates (Thurimella), the machinery behind the suite.
    let dense = gen::complete(16);
    let cert = sparse_certificate(&dense, 3, &EngineConfig::new()).expect("certificate builds");
    println!(
        "\nSparse certificate on K16: {} of {} edges kept (<= k(n-1) = {}), {} rounds, {} messages",
        cert.edges.len(),
        dense.m(),
        3 * (dense.n() - 1),
        cert.cost.rounds,
        cert.cost.messages
    );
}
