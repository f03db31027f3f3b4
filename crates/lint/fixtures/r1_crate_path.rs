// R1 crate-path corpus: the serve path calls into another crate through
// the crate's name, as `verify.rs` calls
// `rmo_graph::is_two_edge_connected`. The panic site lives in that fn.
pub struct PaCluster;

impl PaCluster {
    pub fn serve(&self, jobs: &[u64]) -> bool {
        verify(jobs)
    }
}

fn verify(jobs: &[u64]) -> bool {
    rmo_graph::is_two_edge_connected(jobs)
}
