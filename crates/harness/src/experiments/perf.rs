//! `perf` — the machine-readable simulator & pipeline perf baseline.
//!
//! Runs a fixed, named workload suite over the simulator-bound layers —
//! CONGEST primitives (BFS, tree casts, pipelining, election), the
//! Table 2 PA pipeline end-to-end, the isolated pipeline stages
//! (stage-1 tree, divisions, shortcuts, tree routing, warm engine
//! solves), and the `PaCluster` serving path — and reports wall time
//! plus exact round/message counts per entry. Wall time is the best of
//! [`ITERATIONS`] runs (the counts are identical across runs; only the
//! clock varies).
//!
//! With `--json` the suite prints a single JSON object (schema
//! `rmo-perf/2`) to stdout instead of the markdown table, so CI and the
//! perf trajectory can consume it; `BENCH_simulator.json` and
//! `BENCH_pipeline.json` at the repo root record captured before/after
//! pairs of these runs. Primitive entries also time the dense reference
//! simulator ([`rmo_congest::reference`]) on the identical workload, so
//! the fast-vs-dense speedup is remeasured — not just quoted — on every
//! run.
//!
//! With `--check-baseline <path>` the suite additionally replays as a
//! regression gate against the `"after"` block of a recorded baseline
//! file: rounds/messages must match bit-for-bit, and no entry may be
//! slower than [`TOLERANCE`]× the suite-median slowdown (normalizing by
//! the median makes the gate machine-speed independent — a uniformly
//! slower CI runner passes, a single regressed stage fails). A failed
//! gate exits non-zero.

use std::time::Instant;

use rmo_apps::service::{mixed_workload, GraphId, PaCluster};
use rmo_congest::programs::bfs::run_bfs;
use rmo_congest::programs::broadcast::run_tree_broadcast;
use rmo_congest::programs::convergecast::run_tree_convergecast;
use rmo_congest::programs::leader::run_leader_election;
use rmo_congest::programs::pipeline::run_pipeline_broadcast;
use rmo_congest::{CostReport, DowncastJob, Network, TreeRouter, UpcastJob};
use rmo_core::subparts_det::deterministic_division;
use rmo_core::{Aggregate, EngineConfig, PaEngine, PaInstance};
use rmo_graph::gen;
use rmo_graph::NodeId;
use rmo_shortcut::alg8::{construct_deterministic, DetParams};

use super::families;
use crate::util::print_table;

/// Wall time is the minimum over this many runs of each entry.
const ITERATIONS: usize = 3;

/// One measured suite entry. Shared with the `serve --hot` scenario,
/// which emits the same schema into `BENCH_cluster.json`.
pub(crate) struct Entry {
    pub(crate) name: &'static str,
    pub(crate) wall_ms: f64,
    pub(crate) rounds: usize,
    pub(crate) messages: u64,
    /// Dense reference simulator on the identical workload (primitive
    /// entries only).
    pub(crate) reference_wall_ms: Option<f64>,
}

impl Entry {
    fn speedup(&self) -> Option<f64> {
        self.reference_wall_ms.map(|r| r / self.wall_ms.max(1e-9))
    }
}

/// Times `work` [`ITERATIONS`] times; returns (best wall ms, last cost).
fn time_it(mut work: impl FnMut() -> CostReport) -> (f64, CostReport) {
    let mut best = f64::INFINITY;
    let mut cost = CostReport::zero();
    for _ in 0..ITERATIONS {
        let start = Instant::now();
        cost = work();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, cost)
}

fn entry(
    name: &'static str,
    work: impl FnMut() -> CostReport,
    reference: Option<&mut dyn FnMut() -> CostReport>,
) -> Entry {
    let (wall_ms, cost) = time_it(work);
    let reference_wall_ms = reference.map(|r| {
        let (ms, ref_cost) = time_it(r);
        // A speedup is only meaningful over the *identical* workload:
        // the dense run must reproduce the fast engine's exact counts.
        assert_eq!(
            (ref_cost.rounds, ref_cost.messages),
            (cost.rounds, cost.messages),
            "{name}: dense reference workload diverged from the fast engine"
        );
        ms
    });
    Entry {
        name,
        wall_ms,
        rounds: cost.rounds,
        messages: cost.messages,
        reference_wall_ms,
    }
}

/// The fixed suite. `quick` halves the input scale, not the shape.
fn run_suite(quick: bool) -> Vec<Entry> {
    let mut out = Vec::new();

    // --- Primitives: the synchronous round loop, frontier-shaped. ---
    // A long path is the dense sweep's worst case (frontier 1, Θ(n)
    // rounds); the grid exercises a wide wave.
    let path_n = if quick { 4000 } else { 12000 };
    let grid_s = if quick { 60 } else { 100 };
    let g_path = gen::path(path_n);
    let net_path = Network::new(&g_path, 7);
    let g_grid = gen::grid(grid_s, grid_s);
    let net_grid = Network::new(&g_grid, 7);

    out.push(entry(
        "primitives/bfs_path",
        || run_bfs(&g_path, &net_path, 0).expect("terminates").2,
        Some(&mut || reference_impls::bfs(&g_path, &net_path, 0)),
    ));
    out.push(entry(
        "primitives/bfs_grid",
        || run_bfs(&g_grid, &net_grid, 0).expect("terminates").2,
        Some(&mut || reference_impls::bfs(&g_grid, &net_grid, 0)),
    ));

    let (tree_grid, _, _) = run_bfs(&g_grid, &net_grid, 0).expect("terminates");
    let (tree_path, _, _) = run_bfs(&g_path, &net_path, 0).expect("terminates");
    out.push(entry(
        "primitives/broadcast_grid",
        || {
            run_tree_broadcast(&g_grid, &net_grid, &tree_grid, 99)
                .expect("terminates")
                .1
        },
        Some(&mut || reference_impls::broadcast(&g_grid, &net_grid, &tree_grid, 99)),
    ));
    out.push(entry(
        "primitives/broadcast_path",
        || {
            run_tree_broadcast(&g_path, &net_path, &tree_path, 99)
                .expect("terminates")
                .1
        },
        Some(&mut || reference_impls::broadcast(&g_path, &net_path, &tree_path, 99)),
    ));
    let values: Vec<u64> = (0..g_grid.n() as u64).collect();
    out.push(entry(
        "primitives/convergecast_grid",
        || {
            run_tree_convergecast(&g_grid, &net_grid, &tree_grid, &values, u64::wrapping_add)
                .expect("terminates")
                .1
        },
        Some(&mut || reference_impls::convergecast(&g_grid, &net_grid, &tree_grid, &values)),
    ));
    let k = if quick { 400 } else { 1200 };
    let tokens: Vec<u64> = (0..k as u64).collect();
    out.push(entry(
        "primitives/pipeline_path",
        || {
            run_pipeline_broadcast(&g_path, &net_path, &tree_path, &tokens)
                .expect("terminates")
                .1
        },
        Some(&mut || reference_impls::pipeline(&g_path, &net_path, &tree_path, &tokens)),
    ));
    let elect_s = if quick { 40 } else { 64 };
    let g_elect = gen::grid(elect_s, elect_s);
    let net_elect = Network::new(&g_elect, 7);
    out.push(entry(
        "primitives/election_grid",
        || {
            run_leader_election(&g_elect, &net_elect)
                .expect("terminates")
                .2
        },
        Some(&mut || reference_impls::election(&g_elect, &net_elect)),
    ));

    // --- Table 2 PA, end-to-end (largest quick-mode scale). ---
    let scale = if quick { 12 } else { 20 };
    for w in families(scale) {
        let name: &'static str = match w.family {
            "general" => "table2_pa/general",
            "planar(grid)" => "table2_pa/planar_grid",
            "treewidth-3" => "table2_pa/treewidth3",
            "pathwidth-3" => "table2_pa/pathwidth3",
            other => panic!("family `{other}` has no perf-suite entry name — add one"),
        };
        let n = w.graph.n();
        let pa_values: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(2654435761)).collect();
        let inst =
            PaInstance::from_partition(&w.graph, w.partition.clone(), pa_values, Aggregate::Min)
                .expect("valid instance");
        out.push(entry(
            name,
            || {
                PaEngine::new(&w.graph, EngineConfig::new())
                    .solve_instance(&inst)
                    .expect("PA solves")
                    .cost
            },
            None,
        ));
    }

    // --- Pipeline stages, isolated (the BENCH_pipeline.json
    // trajectory): stage-1 tree build, stage-3 divisions, stage-4
    // shortcut construction, Lemma 4.2 tree routing, and the warm
    // engine solve (the serving steady state). All on the `general`
    // family, the suite's hardest workload.
    let wl = families(scale)
        .into_iter()
        .find(|w| w.family == "general")
        .expect("general family exists"); // rmo-lint: allow(P1) — bench workload is fixed; abort on failure is intended
    let pg = &wl.graph;
    let pnet = Network::new(pg, 7);
    out.push(entry(
        "pipeline/stage1_tree",
        || {
            let (root, _, elect) = run_leader_election(pg, &pnet).expect("terminates"); // rmo-lint: allow(P1) — bench workload is fixed; abort on failure is intended
            let (_, _, bfs) = run_bfs(pg, &pnet, root).expect("terminates"); // rmo-lint: allow(P1) — bench workload is fixed; abort on failure is intended
            elect + bfs
        },
        None,
    ));
    let (proot, _, _) = run_leader_election(pg, &pnet).expect("terminates"); // rmo-lint: allow(P1) — bench workload is fixed; abort on failure is intended
    let (ptree, _, _) = run_bfs(pg, &pnet, proot).expect("terminates"); // rmo-lint: allow(P1) — bench workload is fixed; abort on failure is intended
    let d = ptree.depth().max(1);
    out.push(entry(
        "pipeline/divisions",
        || deterministic_division(pg, &wl.partition, d).cost,
        None,
    ));
    let division = deterministic_division(pg, &wl.partition, d).division;
    let terminals: Vec<Vec<NodeId>> = wl
        .partition
        .part_ids()
        .map(|p| division.reps_of_part(p))
        .collect();
    out.push(entry(
        "pipeline/shortcuts",
        || {
            construct_deterministic(
                pg,
                &ptree,
                &wl.partition,
                &terminals,
                DetParams::new(2, 2, wl.partition.num_parts()),
            )
            .cost
        },
        None,
    ));

    // Tree routing stress: many overlapping subtree casts on the long
    // path — a deep tree with heavy edge contention is the Lemma 4.2
    // scheduler's worst case. Roots are staggered along the path so the
    // packet waves overlap.
    let sub_count = if quick { 48 } else { 96 };
    let per_sub = 24;
    let stride = path_n / (sub_count + 1);
    let up_jobs: Vec<UpcastJob> = (0..sub_count)
        .map(|s| {
            let root = s * stride;
            let span = path_n - root - 1;
            UpcastJob {
                subtree: s,
                root,
                sources: (0..per_sub)
                    .map(|k| (root + 1 + (k * 997) % span, (s * per_sub + k) as u64))
                    .collect(),
            }
        })
        .collect();
    let down_jobs: Vec<DowncastJob> = (0..sub_count)
        .map(|s| {
            let root = s * stride;
            let span = path_n - root - 1;
            DowncastJob {
                subtree: s,
                root,
                value: s as u64,
                destinations: (0..per_sub).map(|k| root + 1 + (k * 997) % span).collect(),
            }
        })
        .collect();
    let router = TreeRouter::new(&tree_path);
    out.push(entry(
        "pipeline/routing",
        || {
            let up = router.upcast(&up_jobs, u64::wrapping_add);
            let down = router.downcast(&down_jobs);
            up.cost + down.cost
        },
        None,
    ));

    // Warm engine solve: artifacts are cached, so this times the
    // cache-hit path plus Algorithm 1 alone — what every serve-path
    // query pays at steady state.
    let pa_values: Vec<u64> = (0..pg.n() as u64)
        .map(|v| v.wrapping_mul(2654435761))
        .collect();
    let pinst = PaInstance::from_partition(pg, wl.partition.clone(), pa_values, Aggregate::Min)
        .expect("valid instance"); // rmo-lint: allow(P1) — bench workload is fixed; abort on failure is intended
    let mut engine = PaEngine::new(pg, EngineConfig::new());
    engine.solve_instance(&pinst).expect("cold solve"); // warm cache outside the clock; rmo-lint: allow(P1) — bench abort intended
    out.push(entry(
        "pipeline/warm_solve",
        || {
            let mut total = CostReport::zero();
            for _ in 0..8 {
                // rmo-lint: allow(P1) — bench abort intended
                total += engine.solve_instance(&pinst).expect("warm solve").cost;
            }
            total
        },
        None,
    ));

    // --- Serving path: a mixed batch on a fresh fleet, sequential mode
    // (single-threaded, so the clock measures work, not contention). ---
    let serve_scale = if quick { 6 } else { 10 };
    let serve_count = if quick { 48 } else { 160 };
    out.push(entry(
        "serve/mixed_sequential",
        || {
            let mut cluster = PaCluster::new(4);
            let s = serve_scale.max(4);
            cluster.add_graph(GraphId(1), gen::grid(s, s));
            cluster.add_graph(GraphId(2), gen::grid(s, 2 * s));
            cluster.add_graph(GraphId(3), gen::path(s * s));
            cluster.add_graph(GraphId(4), gen::torus(s, s));
            let workload = mixed_workload(&cluster, serve_count, 42);
            let report = cluster.serve_sequential(&workload);
            report
                .responses
                .iter()
                .map(|r| r.cost())
                .sum::<CostReport>()
        },
        None,
    ));
    out
}

/// JSON string escaping for the few fixed names we emit.
pub(crate) fn emit_json(mode: &str, entries: &[Entry]) -> String {
    let mut body = String::new();
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"rounds\": {}, \"messages\": {}",
            e.name, e.wall_ms, e.rounds, e.messages
        ));
        if let (Some(r), Some(s)) = (e.reference_wall_ms, e.speedup()) {
            body.push_str(&format!(
                ", \"reference_wall_ms\": {r:.3}, \"speedup\": {s:.2}"
            ));
        }
        body.push('}');
    }
    format!(
        "{{\n  \"schema\": \"rmo-perf/2\",\n  \"mode\": \"{mode}\",\n  \"entries\": [\n{body}\n  ]\n}}"
    )
}

/// Per-entry slowdown tolerance of the `--check-baseline` gate, applied
/// to the median-normalized ratio (see [`check_baseline`]).
const TOLERANCE: f64 = 1.25;

/// Noise floor: an entry only fails the wall-time gate if it is also at
/// least this many milliseconds over its baseline (sub-millisecond
/// entries jitter by large *ratios* on shared CI runners).
const NOISE_FLOOR_MS: f64 = 0.25;

/// Extracts `(name, wall_ms, rounds, messages)` from every entry line of
/// a perf JSON fragment (the emitter writes one entry per line; the
/// checked-in baselines keep that shape).
fn parse_entries(text: &str) -> Vec<(String, f64, usize, u64)> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = line.split_once(key)?.1;
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest.get(..end)?.trim())
    }
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.split_once("\"name\": \"").map(|(_, r)| r) else {
            continue;
        };
        let Some((name, _)) = rest.split_once('"') else {
            continue;
        };
        let (Some(wall), Some(rounds), Some(messages)) = (
            field(line, "\"wall_ms\": ").and_then(|s| s.parse::<f64>().ok()),
            field(line, "\"rounds\": ").and_then(|s| s.parse::<usize>().ok()),
            field(line, "\"messages\": ").and_then(|s| s.parse::<u64>().ok()),
        ) else {
            continue;
        };
        out.push((name.to_string(), wall, rounds, messages));
    }
    out
}

/// The regression gate: compares the just-measured suite against the
/// `"after"` block of a recorded baseline file.
///
/// * Every baseline entry must be present, with bit-identical
///   rounds/messages (a count drift is a correctness bug, not a perf
///   regression — fail loudly).
/// * Wall time: each entry's slowdown ratio vs the baseline is
///   normalized by the suite-median ratio, so a uniformly faster or
///   slower machine cancels out; an entry fails only if it exceeds
///   [`TOLERANCE`]× the median *and* clears [`NOISE_FLOOR_MS`].
pub(crate) fn check_baseline(entries: &[Entry], path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline `{path}`: {e}"))?;
    let after = text
        .find("\"after\"")
        .ok_or_else(|| format!("baseline `{path}` has no \"after\" block"))?;
    let base = parse_entries(text.get(after..).unwrap_or(""));
    if base.is_empty() {
        return Err(format!("baseline `{path}` has no entries after \"after\""));
    }
    let mut ratios: Vec<(String, f64, f64, f64)> = Vec::new();
    for (name, bwall, brounds, bmsgs) in &base {
        let cur = entries
            .iter()
            .find(|e| e.name == name.as_str())
            .ok_or_else(|| format!("baseline entry `{name}` missing from current suite"))?;
        if cur.rounds != *brounds || cur.messages != *bmsgs {
            return Err(format!(
                "`{name}`: counts diverged from baseline \
                 (baseline {brounds} rounds / {bmsgs} messages, \
                 current {} rounds / {} messages)",
                cur.rounds, cur.messages
            ));
        }
        let ratio = cur.wall_ms / bwall.max(1e-9);
        ratios.push((name.clone(), *bwall, cur.wall_ms, ratio));
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|&(_, _, _, r)| r).collect();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let mut worst: Option<usize> = None;
    for (i, (_, bwall, cwall, ratio)) in ratios.iter().enumerate() {
        if *ratio > median * TOLERANCE && *cwall > bwall + NOISE_FLOOR_MS {
            match worst {
                Some(w) if ratios[w].3 >= *ratio => {}
                _ => worst = Some(i),
            }
        }
    }
    if let Some((name, bwall, cwall, ratio)) = worst.map(|i| &ratios[i]) {
        return Err(format!(
            "`{name}` regressed: {cwall:.3} ms vs baseline {bwall:.3} ms \
             (ratio {ratio:.2}, suite median {median:.2}, tolerance {TOLERANCE}×median)"
        ));
    }
    let max = sorted.last().copied().unwrap_or(1.0);
    Ok(format!(
        "{} entries vs `{path}`: counts bit-identical, slowdown ratios \
         median {median:.2} / max {max:.2} within {TOLERANCE}×median",
        ratios.len()
    ))
}

pub fn run(quick: bool, json: bool, baseline: Option<&str>) {
    let entries = run_suite(quick);
    let mode = if quick { "quick" } else { "full" };
    let gate = |entries: &[Entry]| {
        if let Some(path) = baseline {
            // stderr, so `--json` output on stdout stays a single clean
            // JSON document.
            match check_baseline(entries, path) {
                Ok(msg) => eprintln!("perf gate: PASS — {msg}"),
                Err(msg) => {
                    eprintln!("perf gate: FAIL — {msg}");
                    std::process::exit(1);
                }
            }
        }
    };
    if json {
        println!("{}", emit_json(mode, &entries));
        gate(&entries);
        return;
    }
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.name.to_string(),
                format!("{:.2}", e.wall_ms),
                e.rounds.to_string(),
                e.messages.to_string(),
                e.reference_wall_ms
                    .map(|r| format!("{r:.2}"))
                    .unwrap_or_else(|| "-".into()),
                e.speedup()
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    print_table(
        &format!("Perf — simulator-bound workload suite ({mode} mode, best of {ITERATIONS})"),
        &[
            "entry",
            "wall ms",
            "rounds",
            "messages",
            "dense ref ms",
            "speedup",
        ],
        &rows,
    );
    println!(
        "\nShape check: `dense ref ms` re-times the kept dense-sweep \
         reference simulator on the identical workload; `speedup` is \
         what the flat-arena/active-set engine buys. Round and message \
         counts are bit-identical between the two (asserted in the \
         differential proptests). JSON for the perf trajectory: \
         `rmo-harness perf [--quick] --json`; the checked-in \
         BENCH_simulator.json and BENCH_pipeline.json record captured \
         before/after pairs."
    );
    gate(&entries);
}

/// Dense-reference drivers for the primitive workloads: the same node
/// programs on [`rmo_congest::reference::ReferenceSimulator`], asserted
/// cost-identical to the fast engine here (the differential proptests
/// cover responses too).
mod reference_impls {
    use rmo_congest::programs::bfs::BfsProgram;
    use rmo_congest::programs::broadcast::TreeBroadcast;
    use rmo_congest::programs::convergecast::TreeConvergecast;
    use rmo_congest::programs::leader::LeaderElect;
    use rmo_congest::programs::pipeline::PipelineBroadcast;
    use rmo_congest::reference::ReferenceSimulator;
    use rmo_congest::{CostReport, Network, PortId};
    use rmo_graph::{Graph, NodeId, RootedTree};

    pub fn bfs(g: &Graph, net: &Network, root: NodeId) -> CostReport {
        let mut sim = ReferenceSimulator::new(net, |v| BfsProgram::new(v == root));
        sim.run_until_quiescent(4 * g.n() + 4).expect("terminates")
    }

    fn child_ports(net: &Network, tree: &RootedTree, v: NodeId) -> Vec<PortId> {
        tree.children_of(v)
            .iter()
            .map(|&c| net.port_for_edge(v, tree.parent_edge_of(c).expect("child edge")))
            .collect()
    }

    pub fn broadcast(g: &Graph, net: &Network, tree: &RootedTree, value: u64) -> CostReport {
        let mut sim = ReferenceSimulator::new(net, |v: NodeId| {
            let prog = if v == tree.root() {
                TreeBroadcast::root(value)
            } else {
                let pe = tree.parent_edge_of(v).expect("non-root");
                TreeBroadcast::node(net.port_for_edge(v, pe))
            };
            prog.with_children(child_ports(net, tree, v))
        });
        sim.run_until_quiescent(4 * g.n() + 4).expect("terminates")
    }

    pub fn convergecast(g: &Graph, net: &Network, tree: &RootedTree, values: &[u64]) -> CostReport {
        let mut sim = ReferenceSimulator::new(net, |v: NodeId| {
            let parent_port = tree.parent_edge_of(v).map(|e| net.port_for_edge(v, e));
            TreeConvergecast::new(
                values[v],
                u64::wrapping_add,
                parent_port,
                tree.children_of(v).len(),
            )
        });
        sim.run_until_quiescent(4 * g.n() + 4).expect("terminates")
    }

    pub fn pipeline(g: &Graph, net: &Network, tree: &RootedTree, tokens: &[u64]) -> CostReport {
        let mut sim = ReferenceSimulator::new(net, |v: NodeId| {
            if v == tree.root() {
                PipelineBroadcast::root(tokens.to_vec(), child_ports(net, tree, v))
            } else {
                let pe = tree.parent_edge_of(v).expect("non-root");
                PipelineBroadcast::node(net.port_for_edge(v, pe), child_ports(net, tree, v))
            }
        });
        sim.run_until_quiescent(4 * (g.n() + tokens.len()) + 8)
            .expect("terminates")
    }

    pub fn election(g: &Graph, net: &Network) -> CostReport {
        let mut sim = ReferenceSimulator::new(net, |_| LeaderElect::new());
        sim.run_until_quiescent(4 * g.n() + 4).expect("terminates")
    }
}
