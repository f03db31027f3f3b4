//! `perf` — the one wall-time suite and its regression gate.
//!
//! Runs a fixed, named suite, one entry per timed layer: CONGEST
//! primitives (BFS, tree casts, pipelining, election), the Table 2 PA
//! pipeline end to end, the isolated pipeline stages (stage-1 tree,
//! divisions, shortcuts, a whole artifact miss, tree routing, warm
//! engine solves), a mixed `PaCluster` batch, and the three scheduling
//! setups of `serve --hot` (`cluster/hot_*`, timed on the calling
//! thread: `serve_sequential`, or `serve_replay` of the home placement
//! for `cluster/hot_pinned`; the threaded executor's wall time is not
//! gated), and one `run_query` entry per [`Query`] kind (`dispatch/*`).
//! Each entry reports wall time plus exact round/message counts.
//!
//! Every fixture is built once; the suite then runs in [`PASSES`]
//! interleaved passes of [`PASS_BUDGET`] per entry (see [`measure`]).
//! Primitive entries also time the dense reference simulator
//! ([`rmo_congest::reference`]) on the identical workload, once per
//! run, so the fast-vs-dense speedup is remeasured, not quoted.
//!
//! `--json` prints one JSON object (schema `rmo-perf/3`) instead of the
//! markdown table; `BENCH_perf.json` records the trajectory of captured
//! runs. `--check-baseline <path>` gates the run against the file's last
//! block ([`check_baseline`]) and exits non-zero on failure.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use rmo_apps::dispatch::{run_query, Query, VerifyCheck};
use rmo_apps::service::{mixed_workload, GraphId, PaCluster};
use rmo_congest::programs::bfs::run_bfs;
use rmo_congest::programs::broadcast::run_tree_broadcast;
use rmo_congest::programs::convergecast::run_tree_convergecast;
use rmo_congest::programs::leader::run_leader_election;
use rmo_congest::programs::pipeline::run_pipeline_broadcast;
use rmo_congest::{CostReport, DowncastJob, Network, TreeRouter, UpcastJob};
use rmo_core::subparts_det::deterministic_division;
use rmo_core::{build_artifacts, Aggregate, EngineConfig, PaEngine};
use rmo_graph::gen;
use rmo_graph::{EdgeId, Graph, NodeId};
use rmo_shortcut::alg8::{construct_deterministic, DetParams};

use super::serve::{home_plan, HotFleet, Modeled};
use super::{families, Workload};
use crate::util::print_table;

/// Interleaved passes over the whole suite per run. At 20 or 30 passes
/// host noise occasionally hid a 1.25× slowdown (EXPERIMENTS.md, "One
/// perf gate").
const PASSES: usize = 40;

/// How long each entry samples in one pass (it always takes at least
/// one sample).
const PASS_BUDGET: Duration = Duration::from_millis(25);

/// The gate fails an entry whose score (see [`check_baseline`]) exceeds
/// this: between the highest score unchanged code reached and the
/// lowest a 1.25× slowdown did.
const THRESHOLD: f64 = 1.12;

/// One suite entry before it is measured.
struct Bench<'a> {
    name: &'static str,
    /// One sample: the wall ms of its timed region, and the cost of the
    /// work done in it.
    sample: Box<dyn FnMut() -> (f64, CostReport) + 'a>,
    /// The dense reference simulator on the identical workload
    /// (primitive entries only).
    reference: Option<Box<dyn FnMut() -> CostReport + 'a>>,
}

/// One measured suite entry.
struct Entry {
    name: &'static str,
    rounds: usize,
    messages: u64,
    /// The entry's mean sample wall time in each pass, in ms.
    pass_ms: Vec<f64>,
    reference_wall_ms: Option<f64>,
}

impl Entry {
    fn wall_ms(&self) -> f64 {
        median(&self.pass_ms)
    }

    fn speedup(&self) -> Option<f64> {
        self.reference_wall_ms.map(|r| r / self.wall_ms().max(1e-9))
    }
}

/// The median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Runs `work` under the clock; returns its wall ms and result.
fn clocked<T>(work: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = work();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

fn bench<'a>(name: &'static str, mut work: impl FnMut() -> CostReport + 'a) -> Bench<'a> {
    Bench {
        name,
        sample: Box::new(move || clocked(&mut work)),
        reference: None,
    }
}

fn primitive<'a>(
    name: &'static str,
    work: impl FnMut() -> CostReport + 'a,
    reference: impl FnMut() -> CostReport + 'a,
) -> Bench<'a> {
    Bench {
        reference: Some(Box::new(reference)),
        ..bench(name, work)
    }
}

/// Measures `benches`: one untimed warm-up sample each (which also
/// fixes the entry's counts and runs the dense reference once), then
/// [`PASSES`] interleaved passes in which every entry samples for
/// [`PASS_BUDGET`], at least once. An entry's pass time is its mean
/// sample in that pass; its `wall_ms` is the median pass time.
fn measure(benches: &mut [Bench]) -> Vec<Entry> {
    let mut entries: Vec<Entry> = benches
        .iter_mut()
        .map(|b| {
            let (_, cost) = (b.sample)();
            let reference_wall_ms = b.reference.as_mut().map(|reference| {
                let (ms, dense) = clocked(reference);
                // A speedup is only meaningful over the *identical*
                // workload: the dense run must reproduce the fast
                // engine's exact counts.
                assert_eq!(
                    (dense.rounds, dense.messages),
                    (cost.rounds, cost.messages),
                    "{}: dense reference workload diverged from the fast engine",
                    b.name
                );
                ms
            });
            Entry {
                name: b.name,
                rounds: cost.rounds,
                messages: cost.messages,
                pass_ms: Vec::with_capacity(PASSES),
                reference_wall_ms,
            }
        })
        .collect();
    for _ in 0..PASSES {
        for (b, e) in benches.iter_mut().zip(&mut entries) {
            let start = Instant::now();
            let (mut total_ms, mut samples) = (0.0, 0u32);
            while samples == 0 || start.elapsed() < PASS_BUDGET {
                total_ms += (b.sample)().0;
                samples += 1;
            }
            e.pass_ms.push(total_ms / f64::from(samples));
        }
    }
    entries
}

/// One query of every kind, in `perfbench`'s `KINDS` order, with its
/// entry name. The inputs follow `stream_zipf`'s: a 16-part partition,
/// a 60% edge subset, `k = 6` (the larger set of its `k ∈ {6, 10}`) and
/// one min-cut trial; the CDS node weights are `mixed_workload`'s.
fn dispatch_queries(g: &Graph) -> [(&'static str, Query); 9] {
    let assignment = gen::random_connected_partition(g, 16, 7)
        .assignment()
        .to_vec();
    let h_edges: Vec<EdgeId> = (0..g.m())
        .filter(|&e| (e as u64).wrapping_mul(2654435761) % 10 < 6)
        .collect();
    [
        (
            "dispatch/pa",
            Query::Pa {
                assignment,
                values: (0..g.n() as u64).collect(),
                agg: Aggregate::Min,
            },
        ),
        (
            "dispatch/components",
            Query::Components {
                h_edges: h_edges.clone(),
            },
        ),
        (
            "dispatch/verify",
            Query::Verify {
                check: VerifyCheck::Bipartite,
                h_edges,
            },
        ),
        ("dispatch/kdom", Query::Kdom { k: 6 }),
        ("dispatch/eccentricity", Query::Eccentricity { k: 6 }),
        ("dispatch/mst", Query::Mst),
        ("dispatch/sssp", Query::Sssp { source: 0 }),
        ("dispatch/mincut", Query::MinCut { trials: 1 }),
        (
            "dispatch/cds",
            Query::Cds {
                node_weights: (0..g.n() as u64).map(|v| 1 + (v * 7) % 13).collect(),
            },
        ),
    ]
}

/// The fixed suite. `quick` halves the input scale, not the shape.
fn run_suite(quick: bool) -> Vec<Entry> {
    // --- Primitives: the synchronous round loop, frontier-shaped. ---
    // A long path is the dense sweep's worst case (frontier 1, Θ(n)
    // rounds); the grid exercises a wide wave.
    let path_n = if quick { 4000 } else { 12000 };
    let grid_s = if quick { 60 } else { 100 };
    let g_path = gen::path(path_n);
    let net_path = Network::new(&g_path, 7);
    let g_grid = gen::grid(grid_s, grid_s);
    let net_grid = Network::new(&g_grid, 7);
    let (tree_grid, _, _) = run_bfs(&g_grid, &net_grid, 0).expect("terminates");
    let (tree_path, _, _) = run_bfs(&g_path, &net_path, 0).expect("terminates");
    let values: Vec<u64> = (0..g_grid.n() as u64).collect();
    let k = if quick { 400 } else { 1200 };
    let tokens: Vec<u64> = (0..k as u64).collect();
    let elect_s = if quick { 40 } else { 64 };
    let g_elect = gen::grid(elect_s, elect_s);
    let net_elect = Network::new(&g_elect, 7);

    // --- Table 2 PA, end-to-end (largest quick-mode scale). ---
    let scale = if quick { 12 } else { 20 };
    let table2 = families(scale);
    let table2_instances: Vec<(&'static str, &Workload, Vec<u64>)> = table2
        .iter()
        .map(|w| {
            let name: &'static str = match w.family {
                "general" => "table2_pa/general",
                "planar(grid)" => "table2_pa/planar_grid",
                "treewidth-3" => "table2_pa/treewidth3",
                "pathwidth-3" => "table2_pa/pathwidth3",
                other => panic!("family `{other}` has no perf-suite entry name — add one"),
            };
            let pa_values: Vec<u64> = (0..w.graph.n() as u64)
                .map(|v| v.wrapping_mul(2654435761))
                .collect();
            (name, w, pa_values)
        })
        .collect();

    // --- Pipeline stages, isolated: stage-1 tree build, stage-3
    // divisions, stage-4 shortcut construction, a whole artifact miss
    // (stages 2-4 and phase A on the stage-1 tree), Lemma 4.2 tree
    // routing, and the warm engine solve (the serving steady state).
    // All on the `general` family, the suite's hardest workload.
    let (_, pw, pvalues) = table2_instances
        .iter()
        .find(|(name, _, _)| *name == "table2_pa/general")
        .expect("general family exists"); // rmo-lint: allow(P1) — bench workload is fixed; abort on failure is intended
    let (pg, partition) = (&pw.graph, &pw.partition);
    let pnet = Network::new(pg, 7);
    let (proot, _, _) = run_leader_election(pg, &pnet).expect("terminates"); // rmo-lint: allow(P1) — bench workload is fixed; abort on failure is intended
    let (ptree, _, _) = run_bfs(pg, &pnet, proot).expect("terminates"); // rmo-lint: allow(P1) — bench workload is fixed; abort on failure is intended
    let d = ptree.depth().max(1);
    let division = deterministic_division(pg, partition, d).division;
    let terminals: Vec<Vec<NodeId>> = partition
        .part_ids()
        .map(|p| division.reps_of_part(p).to_vec())
        .collect();

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

    // Warm engine solve: artifacts are cached, so this times the
    // cache-hit path plus Algorithm 1 alone — what every serve-path
    // query pays at steady state.
    let mut engine = PaEngine::new(pg, EngineConfig::new());
    engine
        .solve(partition.assignment(), pvalues, Aggregate::Min)
        .expect("cold solve"); // warm cache outside the clock; rmo-lint: allow(P1) — bench abort intended

    // --- Serving path: a mixed batch on a fresh fleet, sequential mode
    // (single-threaded, so the clock measures work, not contention). ---
    let serve_scale = if quick { 6 } else { 10 };
    let serve_count = if quick { 48 } else { 160 };
    let hot = HotFleet::new(quick);

    // --- `run_query` dispatch: one warmed engine over a fixed weighted
    // 12×12 grid (`stream_zipf`'s most popular graph). Its cache holds
    // every kind's artifacts and division memos, so no entry evicts
    // another's and each sample times the steady state. Same size in
    // both modes. ---
    let dispatch_graph = gen::grid_weighted(12, 12, 5);
    let dispatch = dispatch_queries(&dispatch_graph);
    let dispatch_engine = RefCell::new(PaEngine::new(
        &dispatch_graph,
        EngineConfig::new().cache_capacity(64),
    ));
    for (name, query) in &dispatch {
        let served = run_query(&mut dispatch_engine.borrow_mut(), query).is_ok();
        assert!(served, "{name}: the fixed query failed");
    }

    let mut benches = vec![
        primitive(
            "primitives/bfs_path",
            || run_bfs(&g_path, &net_path, 0).expect("terminates").2,
            || reference_impls::bfs(&g_path, &net_path, 0),
        ),
        primitive(
            "primitives/bfs_grid",
            || run_bfs(&g_grid, &net_grid, 0).expect("terminates").2,
            || reference_impls::bfs(&g_grid, &net_grid, 0),
        ),
        primitive(
            "primitives/broadcast_grid",
            || {
                run_tree_broadcast(&g_grid, &net_grid, &tree_grid, 99)
                    .expect("terminates")
                    .1
            },
            || reference_impls::broadcast(&g_grid, &net_grid, &tree_grid, 99),
        ),
        primitive(
            "primitives/broadcast_path",
            || {
                run_tree_broadcast(&g_path, &net_path, &tree_path, 99)
                    .expect("terminates")
                    .1
            },
            || reference_impls::broadcast(&g_path, &net_path, &tree_path, 99),
        ),
        primitive(
            "primitives/convergecast_grid",
            || {
                run_tree_convergecast(&g_grid, &net_grid, &tree_grid, &values, u64::wrapping_add)
                    .expect("terminates")
                    .1
            },
            || reference_impls::convergecast(&g_grid, &net_grid, &tree_grid, &values),
        ),
        primitive(
            "primitives/pipeline_path",
            || {
                run_pipeline_broadcast(&g_path, &net_path, &tree_path, &tokens)
                    .expect("terminates")
                    .1
            },
            || reference_impls::pipeline(&g_path, &net_path, &tree_path, &tokens),
        ),
        primitive(
            "primitives/election_grid",
            || {
                run_leader_election(&g_elect, &net_elect)
                    .expect("terminates")
                    .2
            },
            || reference_impls::election(&g_elect, &net_elect),
        ),
    ];
    for (name, w, pa_values) in &table2_instances {
        benches.push(bench(name, move || {
            PaEngine::new(&w.graph, EngineConfig::new())
                .solve(w.partition.assignment(), pa_values, Aggregate::Min)
                .expect("PA solves")
                .cost
        }));
    }
    benches.extend([
        bench("pipeline/stage1_tree", || {
            let (root, _, elect) = run_leader_election(pg, &pnet).expect("terminates"); // rmo-lint: allow(P1) — bench workload is fixed; abort on failure is intended
            let (_, _, bfs) = run_bfs(pg, &pnet, root).expect("terminates"); // rmo-lint: allow(P1) — bench workload is fixed; abort on failure is intended
            elect + bfs
        }),
        bench("pipeline/divisions", || {
            deterministic_division(pg, partition, d).cost
        }),
        bench("pipeline/shortcuts", || {
            construct_deterministic(
                pg,
                &ptree,
                partition,
                &terminals,
                DetParams::new(2, 2, partition.num_parts()),
            )
            .cost
        }),
        bench("pipeline/artifacts_miss", || {
            let miss = build_artifacts(pg, partition, &EngineConfig::new(), &ptree);
            miss.setup_cost + miss.wave.cost
        }),
        bench("pipeline/routing", || {
            let up = router.upcast(&up_jobs, u64::wrapping_add);
            let down = router.downcast(&down_jobs);
            up.cost + down.cost
        }),
        bench("pipeline/warm_solve", || {
            let mut total = CostReport::zero();
            for _ in 0..8 {
                total += engine
                    .solve(partition.assignment(), pvalues, Aggregate::Min)
                    // rmo-lint: allow(P1) — bench abort intended
                    .expect("warm solve")
                    .cost;
            }
            total
        }),
        bench("serve/mixed_sequential", || {
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
        }),
    ]);
    // The replica-scheduling rows: each sample builds and warms a fresh
    // cluster and plans the batch outside the clock, then times the
    // sequential executor (with more shard threads than cores, threaded
    // wall time is too noisy to gate) — on the LPT plan, or replaying
    // the home placement. The counts are the modeled pre-steal critical
    // path.
    for (name, replicas, home) in HotFleet::scenarios() {
        let hot = &hot;
        benches.push(Bench {
            name,
            sample: Box::new(move || {
                let mut cluster = hot.warmed_cluster(replicas);
                let (ms, report, plan) = if home {
                    let (log, plan) = home_plan(&cluster, &hot.workload);
                    let (ms, report) = clocked(|| cluster.serve_replay(&hot.workload, &log));
                    (ms, report, plan)
                } else {
                    let plan = cluster.planned_execution(&hot.workload);
                    let (ms, report) = clocked(|| cluster.serve_sequential(&hot.workload));
                    (ms, report, plan)
                };
                let (rounds, messages) = Modeled::new(&plan, &report.responses).crit;
                let rounds = usize::try_from(rounds).unwrap_or(usize::MAX);
                (ms, CostReport::new(rounds, messages))
            }),
            reference: None,
        });
    }
    for (name, query) in &dispatch {
        let engine = &dispatch_engine;
        benches.push(bench(name, move || {
            run_query(&mut engine.borrow_mut(), query).cost()
        }));
    }
    measure(&mut benches)
}

fn emit_json(mode: &str, entries: &[Entry]) -> String {
    let mut body = String::new();
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {:.4}, \"rounds\": {}, \"messages\": {}",
            e.name,
            e.wall_ms(),
            e.rounds,
            e.messages
        ));
        if let (Some(r), Some(s)) = (e.reference_wall_ms, e.speedup()) {
            body.push_str(&format!(
                ", \"reference_wall_ms\": {r:.3}, \"speedup\": {s:.2}"
            ));
        }
        body.push('}');
    }
    format!(
        "{{\n  \"schema\": \"rmo-perf/3\",\n  \"mode\": \"{mode}\",\n  \"entries\": [\n{body}\n  ]\n}}"
    )
}

/// Extracts `(name, wall_ms, rounds, messages)` from every entry line of
/// a perf JSON fragment (the emitter writes one entry per line; the
/// checked-in trajectory keeps that shape).
fn parse_entries(text: &str) -> Vec<(String, f64, usize, u64)> {
    text.lines()
        .filter_map(|line| {
            let field = |key: &str| {
                let rest = line.split_once(&format!("\"{key}\": "))?.1;
                rest.split([',', '}']).next().map(str::trim)
            };
            Some((
                field("name")?.trim_matches('"').to_string(),
                field("wall_ms")?.parse().ok()?,
                field("rounds")?.parse().ok()?,
                field("messages")?.parse().ok()?,
            ))
        })
        .collect()
}

/// The regression gate: compares a measured run against the last
/// `"entries"` block of a baseline trajectory file's text.
///
/// * Every baseline entry must be in the run, with bit-identical
///   rounds/messages (a count drift is a correctness bug, not a perf
///   regression).
/// * Wall time: in each pass, every entry's pass time is divided by its
///   baseline `wall_ms`, and then by that pass's median ratio over all
///   entries. An entry's score is the median of these per-pass values,
///   and it fails above [`THRESHOLD`]. Normalizing per pass cancels a
///   host-speed phase, which would otherwise land on whichever entries
///   happened to be running; taking the median over passes drops the
///   passes a burst of host noise hit.
///
/// Both verdicts end with the host factor: the median over passes of
/// each pass's median ratio, i.e. how fast the host ran against the one
/// that captured the block. Memory-bound entries
/// (`primitives/pipeline_path`) score high when it is low.
fn check_baseline(entries: &[Entry], baseline: &str) -> Result<String, String> {
    let block = baseline
        .rfind("\"entries\"")
        .and_then(|i| baseline.get(i..))
        .ok_or("the baseline has no \"entries\" block")?;
    let mut gated: Vec<(&Entry, f64)> = Vec::new();
    for (name, wall_ms, rounds, messages) in parse_entries(block) {
        let cur = entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| format!("baseline entry `{name}` is missing from the run"))?;
        if (cur.rounds, cur.messages) != (rounds, messages) {
            return Err(format!(
                "`{name}`: counts diverged from the baseline \
                 (baseline {rounds} rounds / {messages} messages, \
                 run {} rounds / {} messages)",
                cur.rounds, cur.messages
            ));
        }
        gated.push((cur, wall_ms.max(1e-9)));
    }
    if gated.is_empty() {
        return Err("the baseline's last block has no entries".into());
    }
    let mut normalized = vec![Vec::with_capacity(PASSES); gated.len()];
    let mut pass_medians = Vec::with_capacity(PASSES);
    for pass in 0..PASSES {
        let ratios: Vec<f64> = gated
            .iter()
            .map(|(e, base)| e.pass_ms[pass] / base)
            .collect();
        let pass_median = median(&ratios);
        pass_medians.push(pass_median);
        for (values, ratio) in normalized.iter_mut().zip(&ratios) {
            values.push(ratio / pass_median);
        }
    }
    let host = format!("host at {:.2}× the block", median(&pass_medians));
    let mut scores: Vec<(&str, f64)> = gated
        .iter()
        .zip(&normalized)
        .map(|((e, _), values)| (e.name, median(values)))
        .collect();
    scores.sort_by(|a, b| b.1.total_cmp(&a.1));
    let failed: Vec<String> = scores
        .iter()
        .filter(|(_, score)| *score > THRESHOLD)
        .map(|(name, score)| format!("`{name}` {score:.3}"))
        .collect();
    if !failed.is_empty() {
        return Err(format!(
            "score above {THRESHOLD} (pass-normalized median ratio to the \
             baseline over {PASSES} passes): {}; {host}",
            failed.join(", ")
        ));
    }
    let (worst, max) = scores.first().copied().unwrap_or(("-", f64::NAN));
    Ok(format!(
        "{} entries: counts bit-identical, every score at most {THRESHOLD} \
         over {PASSES} passes (highest {max:.3}, `{worst}`); {host}",
        scores.len()
    ))
}

pub fn run(quick: bool, json: bool, baseline: Option<&str>) {
    let entries = run_suite(quick);
    let mode = if quick { "quick" } else { "full" };
    if json {
        println!("{}", emit_json(mode, &entries));
    } else {
        let rows: Vec<Vec<String>> = entries
            .iter()
            .map(|e| {
                vec![
                    e.name.to_string(),
                    format!("{:.3}", e.wall_ms()),
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
            &format!(
                "Perf — one suite per layer ({mode} mode, median of {PASSES} interleaved passes)"
            ),
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
            "\nShape check: `dense ref ms` times the kept dense-sweep \
             reference simulator once on the identical workload, with \
             bit-identical counts; `speedup` is what the flat-arena \
             engine buys. BENCH_perf.json records `--json` runs."
        );
    }
    if let Some(path) = baseline {
        // stderr, so `--json` output on stdout stays a single clean
        // JSON document.
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline `{path}`: {e}"))
            .and_then(|text| check_baseline(&entries, &text));
        match verdict {
            Ok(msg) => eprintln!("perf gate: PASS vs `{path}` — {msg}"),
            Err(msg) => {
                eprintln!("perf gate: FAIL vs `{path}` — {msg}");
                std::process::exit(1);
            }
        }
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, baseline wall ms, rounds, messages)`: fast and slow
    /// entries alike, as in the real suite.
    const BASE: [(&str, f64, usize, u64); 6] = [
        ("a/fast", 0.05, 80, 2377),
        ("a/small", 0.4, 291, 8021),
        ("b/mid", 2.3, 296, 8256),
        ("b/slow", 10.0, 7978, 1_252_269),
        ("c/slowest", 120.0, 4399, 1_599_600),
        ("c/other", 5.4, 11209, 62459),
    ];

    /// A trajectory block, one entry per line as the emitter writes
    /// them: entry `i` at `wall(i)` ms, its rounds off by `drift`.
    fn block(wall: impl Fn(usize) -> f64, drift: usize) -> String {
        let lines: Vec<String> = BASE
            .iter()
            .enumerate()
            .map(|(i, (name, _, rounds, messages))| {
                let (wall, rounds) = (wall(i), rounds + drift);
                format!("{{\"name\": \"{name}\", \"wall_ms\": {wall}, \"rounds\": {rounds}, \"messages\": {messages}}}")
            })
            .collect();
        format!("{{\"entries\": [\n{}\n]}}", lines.join(",\n"))
    }

    fn baseline() -> String {
        block(|i| BASE[i].1, 0)
    }

    /// A run whose entry `i` takes `BASE[i].1 × factor(i, pass)` in each
    /// pass, times a fixed ±5% jitter.
    fn run(factor: impl Fn(usize, usize) -> f64) -> Vec<Entry> {
        BASE.iter()
            .enumerate()
            .map(|(i, &(name, wall, rounds, messages))| Entry {
                name,
                rounds,
                messages,
                pass_ms: (0..PASSES)
                    .map(|p| {
                        let jitter = 0.95 + 0.01 * ((i * 7 + p * 13) % 11) as f64;
                        wall * factor(i, p) * jitter
                    })
                    .collect(),
                reference_wall_ms: None,
            })
            .collect()
    }

    #[test]
    fn unchanged_runs_pass_at_any_host_speed() {
        // Unchanged; every entry ×0.7; every entry ×1.4; every entry
        // ×1.4 in half the passes (a host-speed phase).
        let phase = |_: usize, p: usize| if p < PASSES / 2 { 1.4 } else { 1.0 };
        // The verdict names the host factor: the median over passes of
        // each pass's median ratio (the phase's sits between its halves).
        let runs = [
            (run(|_, _| 1.0), "1.00"),
            (run(|_, _| 0.7), "0.70"),
            (run(|_, _| 1.4), "1.40"),
            (run(phase), "1.20"),
        ];
        for (case, (entries, host)) in runs.iter().enumerate() {
            let verdict = check_baseline(entries, &baseline());
            let host = format!("host at {host}× the block");
            let named = verdict.as_ref().is_ok_and(|v| v.ends_with(&host));
            assert!(named, "case {case}: {verdict:?}");
        }
    }

    #[test]
    fn one_slower_entry_fails_and_is_named() {
        for (slow, (name, ..)) in BASE.iter().enumerate() {
            let entries = run(|i, _| if i == slow { 1.25 } else { 1.0 });
            let err = check_baseline(&entries, &baseline()).expect_err("a 1.25× entry fails");
            for (other, ..) in BASE {
                assert_eq!(err.contains(&format!("`{other}`")), other == *name, "{err}");
            }
        }
    }

    #[test]
    fn count_drift_fails() {
        let mut entries = run(|_, _| 1.0);
        entries[2].rounds += 1;
        let err = check_baseline(&entries, &baseline()).expect_err("rounds drift");
        assert!(err.contains("`b/mid`: counts"), "{err}");
        let mut entries = run(|_, _| 1.0);
        entries[4].messages -= 1;
        let err = check_baseline(&entries, &baseline()).expect_err("messages drift");
        assert!(err.contains("`c/slowest`: counts"), "{err}");
    }

    #[test]
    fn missing_baseline_entry_fails() {
        let mut entries = run(|_, _| 1.0);
        entries.remove(1);
        let err = check_baseline(&entries, &baseline()).expect_err("entry missing");
        assert!(err.contains("`a/small` is missing"), "{err}");
    }

    #[test]
    fn the_last_block_is_read() {
        // An older block with other counts and 3× the wall times: only
        // the block that comes last gates.
        let older = block(|i| 3.0 * BASE[i].1, 1);
        let entries = run(|_, _| 1.0);
        let verdict = check_baseline(&entries, &format!("[{older},\n{}]", baseline()));
        assert!(verdict.is_ok(), "{verdict:?}");
        assert!(check_baseline(&entries, &format!("[{},\n{older}]", baseline())).is_err());
    }
}
