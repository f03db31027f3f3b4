// R1 facade corpus: the root `rmo` crate re-exports `rmo_graph` as
// `graph`, so `rmo::graph::f` names a fn of `crates/graph/src`, and a
// longer facade path resolves by its last module (`gen`).
pub struct PaCluster;

impl PaCluster {
    pub fn serve(&self, jobs: &[u64], side: u64) -> u64 {
        u64::from(rmo::graph::is_two_edge_connected(jobs)) + rmo::graph::gen::grid(side)
    }
}
