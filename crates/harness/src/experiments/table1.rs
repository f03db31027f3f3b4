//! Table 1 — the shortcut parameters `(b, c)` the engine runs with per
//! graph family, against the paper's known bounds, which the run
//! asserts.
//!
//! The `alg8` columns read the engine's own shortcut
//! ([`PaEngine::pipeline_for`]): Algorithm 8 inside the Section 1.3
//! doubling loop, on the elected BFS tree, for the division's
//! representatives. `alg8 b` is the terminal-block budget Algorithm 1
//! runs with; `alg8 c` is the shortcut's measured congestion. The
//! trivial columns measure the `(1, √n)` fallback on the same tree.

use rmo_core::{EngineConfig, PaEngine};
use rmo_graph::diameter_exact;
use rmo_graph::num::{ceil_log2, ceil_sqrt};
use rmo_shortcut::{quality, trivial::trivial_shortcut};

use super::families;
use crate::util::print_table;

/// The paper's Table 1 entry for a family: the printed `(b, c)` bounds,
/// then the same bounds as numbers for `n` nodes and diameter `d`. Each
/// `Õ` carries one pinned `⌈log₂ n⌉` factor of slack; `O` entries take
/// constant 1.
fn paper_bound(family: &str, n: usize, d: usize) -> (&'static str, &'static str, usize, usize) {
    let log_n = ceil_log2(n);
    match family {
        "general" => ("1", "sqrt(n)", 1, ceil_sqrt(n)),
        "planar(grid)" => ("O(log D)", "O~(D)", ceil_log2(d).max(1), d * log_n),
        "treewidth-3" => ("O(t)=O(3)", "O~(t)=O~(3)", 3, 3 * log_n),
        "pathwidth-3" => ("p=3", "p=3", 3, 3),
        other => panic!("Table 1 has no row for family {other}"),
    }
}

pub fn run(quick: bool) {
    let scale = if quick { 8 } else { 14 };
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for w in families(scale) {
        let (g, parts, n) = (&w.graph, &w.partition, w.graph.n());
        let mut engine = PaEngine::new(g, EngineConfig::new());
        let (block_budget, shortcut) = {
            let artifacts = engine
                .pipeline_for(parts)
                .expect("every family's partition is valid");
            (artifacts.block_budget, artifacts.shortcut.clone())
        };
        let tree = engine.tree();
        let congestion = quality::measure(g, tree, parts, &shortcut).congestion;
        let trivial = quality::measure(g, tree, parts, &trivial_shortcut(g, tree, parts));
        let (pb, pc, b_max, c_max) = paper_bound(w.family, n, diameter_exact(g));
        let checks = [
            ("alg8 b", block_budget, b_max),
            ("alg8 c", congestion, c_max),
            ("trivial b", trivial.block_parameter, 1),
            ("trivial c", trivial.congestion, ceil_sqrt(n)),
        ];
        for (column, got, bound) in checks {
            if got > bound {
                violations.push(format!("{}: {column} = {got} > {bound}", w.family));
            }
        }
        rows.push(vec![
            w.family.to_string(),
            n.to_string(),
            tree.depth().to_string(),
            pb.to_string(),
            pc.to_string(),
            block_budget.to_string(),
            congestion.to_string(),
            trivial.block_parameter.to_string(),
            trivial.congestion.to_string(),
        ]);
    }
    print_table(
        "Table 1 — the engine's shortcut parameters per family (paper bounds vs measured)",
        &[
            "family",
            "n",
            "depth(T)",
            "paper b",
            "paper c",
            "alg8 b",
            "alg8 c",
            "trivial b",
            "trivial c",
        ],
        &rows,
    );
    assert!(
        violations.is_empty(),
        "Table 1 exceeds the paper's bounds: {violations:?}"
    );
}
