//! Baselines from prior work, for the paper's comparisons.
//!
//! * [`naive_block_pa`] — the pre-paper shortcut algorithm (Section 3.1):
//!   **every** node transmits its value up its block individually, i.e.
//!   Algorithm 1 run with the singleton sub-part division (each node its
//!   own representative). Round-optimal, but `Ω(nD)` messages on the
//!   Figure 2(a) apex grid — the paper's motivating bad example.
//! * [`intra_part_pa`] — no shortcuts at all: a waiting convergecast +
//!   broadcast on each part's own spanning tree. Message-optimal `O(n)`,
//!   but `Ω(part diameter)` rounds — up to `Ω(n)` on high-diameter parts.

use rmo_graph::{Graph, NodeId, Partition, RootedTree};
use rmo_shortcut::Shortcut;

use crate::instance::{PaError, PaInstance};
use crate::solve::{solve_on, PaResult, PaSetup, Variant};
use crate::subparts::SubPartDivision;

/// The singleton division of `parts`: every node is its own sub-part
/// and representative. This is what "no sub-part machinery" means.
fn singleton_division(g: &Graph, parts: &Partition) -> SubPartDivision {
    SubPartDivision::new(
        g,
        parts,
        (0..g.n()).collect(),
        vec![None; g.n()],
        (0..g.n()).collect(),
    )
    .expect("singletons are a valid division")
}

/// Prior-work baseline: block aggregation with **all** nodes using the
/// shortcut (no sub-part division).
///
/// `block_budget` — the block parameter of `shortcut` counted with all
/// part members as terminals (singleton sub-parts make every member a
/// representative).
///
/// # Errors
/// Same conditions as [`solve_on`].
pub fn naive_block_pa(
    inst: &PaInstance<'_>,
    tree: &RootedTree,
    shortcut: &Shortcut,
    leaders: &[NodeId],
    variant: Variant,
    block_budget: usize,
) -> Result<PaResult, PaError> {
    let division = singleton_division(inst.graph(), inst.partition());
    solve_on(
        inst,
        &PaSetup {
            tree,
            shortcut,
            division: &division,
            leaders,
            block_budget,
        },
        variant,
    )
}

/// No-shortcut baseline: one sub-part per part (a BFS tree of the part
/// from its leader); the wave is a plain in-part broadcast.
///
/// # Errors
/// Same conditions as [`solve_on`].
pub fn intra_part_pa(
    inst: &PaInstance<'_>,
    tree: &RootedTree,
    leaders: &[NodeId],
    variant: Variant,
) -> Result<PaResult, PaError> {
    let division = SubPartDivision::one_per_part(inst.graph(), inst.partition(), leaders);
    let shortcut = Shortcut::empty(inst.partition().num_parts());
    solve_on(
        inst,
        &PaSetup {
            tree,
            shortcut: &shortcut,
            division: &division,
            leaders,
            block_budget: 1,
        },
        variant,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use rmo_graph::{bfs_tree, gen, Partition};
    use rmo_shortcut::trivial::trivial_shortcut_with_threshold;

    fn min_leaders(parts: &Partition) -> Vec<NodeId> {
        parts.part_ids().map(|p| parts.members(p)[0]).collect()
    }

    #[test]
    fn naive_matches_reference_on_apex_grid() {
        let (depth, width) = (4, 16);
        let g = gen::grid_with_apex(depth, width);
        let parts = Partition::new(&g, gen::grid_row_partition_with_apex(depth, width)).unwrap();
        let values: Vec<u64> = (0..g.n() as u64).collect();
        let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Min).unwrap();
        // Root the BFS tree at the apex: columns become the single block.
        let apex = depth * width;
        let (tree, _) = bfs_tree(&g, apex);
        let sc = trivial_shortcut_with_threshold(&g, &tree, &parts, 1);
        let leaders = min_leaders(&parts);
        let res = naive_block_pa(&inst, &tree, &sc, &leaders, Variant::Deterministic, 1).unwrap();
        for p in parts.part_ids() {
            assert_eq!(res.aggregates[p], inst.reference_aggregate(p));
        }
    }

    #[test]
    fn naive_wastes_messages_on_apex_grid() {
        // The Figure 2 separation, as a test: naive >= ~n*D/4 messages,
        // sub-part-free intra-part baseline O(n) (rows are the parts and
        // they are short here, so intra-part wins on messages).
        let (depth, width) = (8, 32);
        let g = gen::grid_with_apex(depth, width);
        let parts = Partition::new(&g, gen::grid_row_partition_with_apex(depth, width)).unwrap();
        let values: Vec<u64> = (0..g.n() as u64).collect();
        let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Min).unwrap();
        let apex = depth * width;
        let (tree, _) = bfs_tree(&g, apex);
        let sc = trivial_shortcut_with_threshold(&g, &tree, &parts, 1);
        let leaders = min_leaders(&parts);
        let naive = naive_block_pa(&inst, &tree, &sc, &leaders, Variant::Deterministic, 1).unwrap();
        let intra = intra_part_pa(&inst, &tree, &leaders, Variant::Deterministic).unwrap();
        assert!(
            naive.cost.messages > 2 * intra.cost.messages,
            "naive {} should far exceed intra-part {}",
            naive.cost.messages,
            intra.cost.messages
        );
    }

    #[test]
    fn intra_part_matches_reference() {
        let g = gen::grid(6, 9);
        let parts = Partition::new(&g, gen::grid_row_partition(6, 9)).unwrap();
        let values: Vec<u64> = (0..54).map(|v| v as u64 % 13).collect();
        let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Sum).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let leaders = min_leaders(&parts);
        let res = intra_part_pa(&inst, &tree, &leaders, Variant::Deterministic).unwrap();
        for p in parts.part_ids() {
            assert_eq!(res.aggregates[p], inst.reference_aggregate(p));
        }
    }

    #[test]
    fn intra_part_rounds_track_part_diameter() {
        // One snake-like part covering a path: diameter n-1.
        let g = gen::path(64);
        let parts = Partition::whole(&g).unwrap();
        let inst =
            PaInstance::from_partition(&g, parts.clone(), vec![1; 64], Aggregate::Sum).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let res = intra_part_pa(&inst, &tree, &[0], Variant::Deterministic).unwrap();
        assert!(
            res.cost.rounds >= 63,
            "broadcasting along the whole part takes its diameter"
        );
    }
}
