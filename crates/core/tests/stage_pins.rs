//! Golden per-stage round/message pins for the PA pipeline.
//!
//! Captured on the pre-flat-arena implementation (the PR that rewrote
//! `TreeRouter`/alg7/alg8/`run_wave` around recycled scratch arenas) and
//! asserted ever since: the rewrite — and any future one — must keep
//! every stage's round/message counts and routed values bit-identical.
//! Wall time is the only thing allowed to change.
//!
//! Four workload shapes: a grid with row parts (wide, shallow), a path
//! with block parts (deep, maximally contended), a random connected
//! graph with random regions (irregular), and a 3000-node version of
//! the last (the size the serving benchmark misses on, where Algorithm
//! 6 runs several merge iterations over hundreds of sub-parts). For
//! each: stage 1 (election + BFS), stage 3 (deterministic division: its
//! cost, and its exact shape — sub-part of every node, tree parents,
//! representatives — with its iteration count), stage 4 (Algorithm 8
//! shortcut), Lemma 4.2 routing (upcast + downcast, with value
//! fingerprints), the engine end-to-end (cold build + warm cache-hit
//! solve), and the delivery record of the engine's phase-A wave (how
//! many nodes it informed, and a fingerprint of every node's informer
//! followed by the delivery order).

use rmo_congest::programs::bfs::run_bfs;
use rmo_congest::programs::leader::run_leader_election;
use rmo_congest::{DowncastJob, Network, TreeRouter, UpcastJob};
use rmo_core::subparts_det::deterministic_division;
use rmo_core::{Aggregate, EngineConfig, PaEngine};
use rmo_graph::{gen, Graph, NodeId, Partition};

fn workloads() -> Vec<(&'static str, Graph, Partition)> {
    let mut out = Vec::new();
    let g = gen::grid(8, 8);
    let parts = Partition::new(&g, gen::grid_row_partition(8, 8)).expect("rows connect");
    out.push(("grid", g, parts));
    let g = gen::path(64);
    let parts = Partition::new(&g, gen::path_blocks(64, 8)).expect("blocks connect");
    out.push(("path", g, parts));
    let g = gen::random_connected(60, 150, 5);
    let parts = gen::random_connected_partition(&g, 6, 11);
    out.push(("gnp", g, parts));
    let g = gen::random_connected(3000, 4500, 5);
    let parts = gen::random_connected_partition(&g, 24, 11);
    out.push(("gnp3000", g, parts));
    out
}

/// A compact order-sensitive fingerprint of a value sequence.
fn fp(values: impl IntoIterator<Item = u64>) -> u64 {
    values
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |acc: u64, v| {
            (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn stage_counts() -> Vec<(String, usize, u64)> {
    let mut out = Vec::new();
    for (label, g, parts) in workloads() {
        let net = Network::new(&g, 3);
        let (root, _, elect) = run_leader_election(&g, &net).expect("terminates");
        let (tree, _, bfs) = run_bfs(&g, &net, root).expect("terminates");
        let c1 = elect + bfs;
        out.push((format!("{label}/stage1"), c1.rounds, c1.messages));

        let d = tree.depth().max(1);
        let div = deterministic_division(&g, &parts, d);
        out.push((
            format!("{label}/division"),
            div.cost.rounds,
            div.cost.messages,
        ));
        let dv = &div.division;
        out.push((
            format!("{label}/division_shape"),
            div.iterations,
            fp((0..g.n())
                .map(|v| dv.subpart_of(v) as u64)
                .chain((0..g.n()).map(|v| dv.parent_of(v).map_or(u64::MAX, |p| p as u64)))
                .chain((0..dv.num_subparts()).map(|s| dv.rep_of_subpart(s) as u64))),
        ));

        let terminals: Vec<Vec<NodeId>> = parts
            .part_ids()
            .map(|p| div.division.reps_of_part(p).to_vec())
            .collect();
        let sc = rmo_shortcut::alg8::construct_deterministic(
            &g,
            &tree,
            &parts,
            &terminals,
            rmo_shortcut::alg8::DetParams::new(2, 2, parts.num_parts()),
        );
        out.push((
            format!("{label}/shortcut"),
            sc.cost.rounds,
            sc.cost.messages,
        ));

        // Routing: one job per part, all rooted at the tree root so the
        // casts contend on the upper tree edges.
        let router = TreeRouter::new(&tree);
        let up_jobs: Vec<UpcastJob> = parts
            .part_ids()
            .map(|p| UpcastJob {
                subtree: p,
                root: tree.root(),
                sources: parts
                    .members(p)
                    .iter()
                    .map(|&v| (v, v as u64 + 1))
                    .collect(),
            })
            .collect();
        let up = router.upcast(&up_jobs, u64::wrapping_add);
        out.push((format!("{label}/upcast"), up.cost.rounds, up.cost.messages));
        out.push((
            format!("{label}/upcast_agg"),
            0,
            fp(up.aggregates.iter().map(|a| a.unwrap_or(u64::MAX))),
        ));
        let down_jobs: Vec<DowncastJob> = parts
            .part_ids()
            .map(|p| DowncastJob {
                subtree: p,
                root: tree.root(),
                value: 1000 + p as u64,
                destinations: parts.members(p).to_vec(),
            })
            .collect();
        let down = router.downcast(&down_jobs);
        out.push((
            format!("{label}/downcast"),
            down.cost.rounds,
            down.cost.messages,
        ));
        out.push((
            format!("{label}/downcast_recv"),
            0,
            fp(down
                .received
                .iter()
                .flatten()
                .map(|&(s, v)| (s as u64) << 32 | v)),
        ));

        // Engine end-to-end: the cold solve charges election + BFS +
        // stages 2–4 + the wave; the warm solve is the cache-hit path.
        let vals: Vec<u64> = (0..g.n() as u64)
            .map(|v| v.wrapping_mul(0x9e37_79b9))
            .collect();
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        let cold = engine
            .solve(parts.assignment(), &vals, Aggregate::Min)
            .expect("solves");
        out.push((
            format!("{label}/engine_cold"),
            cold.cost.rounds,
            cold.cost.messages,
        ));
        out.push((format!("{label}/engine_values"), 0, fp(cold.node_values)));
        let warm = engine
            .solve(parts.assignment(), &vals, Aggregate::Min)
            .expect("solves");
        out.push((
            format!("{label}/engine_warm"),
            warm.cost.rounds,
            warm.cost.messages,
        ));
        let record = &engine.pipeline_for(&parts).expect("cached").wave.record;
        out.push((
            format!("{label}/delivery_record"),
            record.order().len(),
            fp((0..g.n())
                .map(|v| record.informer(v).map_or(u64::MAX, |u| u as u64))
                .chain(record.order().iter().map(|&v| v as u64))),
        ));
    }
    out
}

#[test]
fn pipeline_stage_counts_are_pinned() {
    let actual = stage_counts();
    let expected: Vec<(String, usize, u64)> = EXPECTED
        .iter()
        .map(|&(n, r, m)| (n.to_string(), r, m))
        .collect();
    let formatted: String = actual
        .iter()
        .map(|(n, r, m)| format!("    (\"{n}\", {r}, {m}),\n"))
        .collect();
    assert_eq!(
        actual, expected,
        "pinned pipeline stage counts drifted — if the change is an \
         intentional semantic change (not a perf rewrite), re-pin with:\n{formatted}"
    );
}

/// `(entry, rounds, messages-or-fingerprint)` — see module docs.
const EXPECTED: &[(&str, usize, u64)] = &[
    ("grid/stage1", 24, 1131),
    ("grid/division", 129, 1960),
    ("grid/division_shape", 3, 11188309455230937869),
    ("grid/shortcut", 35, 150),
    ("grid/upcast", 11, 223),
    ("grid/upcast_agg", 0, 11809336925340121701),
    ("grid/downcast", 14, 142),
    ("grid/downcast_recv", 0, 13159963736839143301),
    ("grid/engine_cold", 251, 3783),
    ("grid/engine_values", 0, 2881715486837125157),
    ("grid/engine_warm", 30, 264),
    ("grid/delivery_record", 64, 17972936683993857189),
    ("path/stage1", 80, 694),
    // The path/grid division + routing rows coincide with the grid by
    // construction: both carve 64 nodes into eight blocks {8p..8p+8},
    // so part memberships (and thus division work and routed values)
    // are identical node-id sets.
    ("path/division", 129, 1960),
    ("path/division_shape", 3, 11188309455230937869),
    ("path/shortcut", 129, 232),
    ("path/upcast", 38, 1066),
    ("path/upcast_agg", 0, 11809336925340121701),
    ("path/downcast", 42, 162),
    ("path/downcast_recv", 0, 13159963736839143301),
    ("path/engine_cold", 551, 3863),
    ("path/engine_values", 0, 2881715486837125157),
    ("path/engine_warm", 93, 540),
    // The grid's record too: each part's internal edges are the same
    // path on the same node ids, so the wave delivers identically.
    ("path/delivery_record", 64, 17972936683993857189),
    ("gnp/stage1", 12, 1291),
    ("gnp/division", 53, 922),
    ("gnp/division_shape", 2, 13795475112051269341),
    ("gnp/shortcut", 26, 145),
    ("gnp/upcast", 8, 115),
    ("gnp/upcast_agg", 0, 16471472808482471931),
    ("gnp/downcast", 7, 87),
    ("gnp/downcast_recv", 0, 17719816387951414822),
    ("gnp/engine_cold", 212, 3049),
    ("gnp/engine_values", 0, 10697206274894757293),
    ("gnp/engine_warm", 42, 420),
    ("gnp/delivery_record", 60, 17370693003175388419),
    // The serving benchmark's sparse-graph size: a 24-part miss runs
    // five Algorithm 6 iterations over 142 final sub-parts.
    ("gnp3000/stage1", 28, 62503),
    ("gnp3000/division", 405, 109804),
    ("gnp3000/division_shape", 5, 4077044527841241285),
    ("gnp3000/shortcut", 221, 6420),
    ("gnp3000/upcast", 32, 7849),
    ("gnp3000/upcast_agg", 0, 2807121434061145243),
    ("gnp3000/downcast", 34, 5263),
    ("gnp3000/downcast_recv", 0, 2986965710965414323),
    ("gnp3000/engine_cold", 4854, 265838),
    ("gnp3000/engine_values", 0, 13373790033412595723),
    ("gnp3000/engine_warm", 261, 12684),
    ("gnp3000/delivery_record", 3000, 4932155005447995484),
];
