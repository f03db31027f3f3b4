//! End-to-end Part-Wise Aggregation across crates: every pipeline
//! configuration, on every graph family, against the centralized fold.

mod common;

use rmo::core::{Aggregate, PaEngine, PaInstance};
use rmo::graph::{gen, Partition};

fn check_all_configs(g: &rmo::graph::Graph, parts: Partition, f: Aggregate) {
    let values: Vec<u64> = (0..g.n() as u64)
        .map(|v| v.wrapping_mul(0x9e3779b9) % 10_000)
        .collect();
    let inst = PaInstance::from_partition(g, parts, values, f).expect("valid instance");
    for cfg in common::config_grid() {
        let res = PaEngine::new(g, cfg)
            .solve(inst.partition().assignment(), inst.values(), f)
            .unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        for p in inst.partition().part_ids() {
            assert_eq!(
                res.aggregates[p],
                inst.reference_aggregate(p),
                "{cfg:?}, part {p}, f = {f:?}"
            );
        }
        for v in 0..g.n() {
            assert_eq!(
                res.value_at(v),
                inst.reference_aggregate_of(v),
                "{cfg:?}, node {v}"
            );
        }
        assert!(res.cost.rounds > 0, "{cfg:?}: nonzero work");
    }
}

#[test]
fn grid_rows_all_aggregates() {
    let g = gen::grid(8, 8);
    for f in Aggregate::all() {
        let parts = Partition::new(&g, gen::grid_row_partition(8, 8)).unwrap();
        check_all_configs(&g, parts, f);
    }
}

#[test]
fn grid_columns() {
    let g = gen::grid(6, 10);
    let parts = Partition::new(&g, gen::grid_column_partition(6, 10)).unwrap();
    check_all_configs(&g, parts, Aggregate::Sum);
}

#[test]
fn random_graph_random_regions() {
    for seed in 0..3 {
        let g = gen::gnp_connected(90, 0.05, seed);
        let parts = gen::random_connected_partition(&g, 7, seed + 100);
        check_all_configs(&g, parts, Aggregate::Max);
    }
}

#[test]
fn long_path_blocks() {
    let g = gen::path(120);
    let parts = Partition::new(&g, gen::path_blocks(120, 30)).unwrap();
    check_all_configs(&g, parts, Aggregate::Min);
}

#[test]
fn single_part_whole_graph() {
    let g = gen::lollipop(10, 30);
    let parts = Partition::whole(&g).unwrap();
    check_all_configs(&g, parts, Aggregate::Sum);
}

#[test]
fn singleton_parts() {
    let g = gen::cycle(24);
    let parts = Partition::singletons(&g);
    check_all_configs(&g, parts, Aggregate::Xor);
}

#[test]
fn ktree_and_kpath_families() {
    let g = gen::ktree(60, 3, 5);
    let parts = gen::random_connected_partition(&g, 6, 3);
    check_all_configs(&g, parts, Aggregate::Min);

    let g = gen::kpath(24, 3);
    let assign: Vec<usize> = (0..g.n()).map(|v| v / 9).collect();
    let parts = Partition::new(&g, assign).unwrap();
    check_all_configs(&g, parts, Aggregate::Or);
}

#[test]
fn apex_grid_bad_example() {
    let g = gen::grid_with_apex(6, 20);
    let parts = Partition::new(&g, gen::grid_row_partition_with_apex(6, 20)).unwrap();
    check_all_configs(&g, parts, Aggregate::Min);
}

#[test]
fn star_and_broom_degenerates() {
    let g = gen::star(40);
    check_all_configs(&g, Partition::whole(&g).unwrap(), Aggregate::Sum);
    let g = gen::broom(20, 20);
    check_all_configs(&g, Partition::whole(&g).unwrap(), Aggregate::Max);
}

#[test]
fn two_node_graph() {
    let g = gen::path(2);
    check_all_configs(&g, Partition::whole(&g).unwrap(), Aggregate::Sum);
    let g = gen::path(2);
    check_all_configs(&g, Partition::singletons(&g), Aggregate::Sum);
}
