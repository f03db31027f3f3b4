// R1 directory-module corpus: `gen` is a directory of `rmo_graph` whose
// `mod.rs` re-exports `grid`, so `gen::grid` names the fn in
// `gen/grid.rs`, not a file called `gen.rs`.
use rmo_graph::gen;

pub struct PaCluster;

impl PaCluster {
    pub fn serve(&self, side: u64) -> u64 {
        gen::grid(side)
    }
}
