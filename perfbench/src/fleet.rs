//! The three workloads: their fleets, gateway tuning, and seeded arrival
//! traces. Everything here is the benchmark's own code — graphs,
//! partitions, subgraphs and arrival ticks come from [`Rng`], so a
//! library change can alter how a workload is served but never what it
//! sends.

use std::collections::HashSet;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rmo_apps::dispatch::{Query, VerifyCheck};
use rmo_apps::service::{GraphId, PaCluster};
use rmo_apps::stream::{Arrival, StreamConfig};
use rmo_core::Aggregate;
use rmo_graph::Graph;

use crate::rng::{zipf, Rng};

/// Queries of each kind (in [`KINDS`] order) in one `stream_zipf` chunk,
/// set so that no kind takes much more than a fifth of dispatch time.
const DECK: [usize; 9] = [320, 216, 148, 208, 112, 60, 104, 32, 1];

/// Graph popularity of `stream_zipf`.
const ZIPF_EXPONENT: f64 = 1.2;

/// Mean of the non-burst inter-arrival gap, in ticks (the mean gap is
/// about 36 ticks). With `work_per_tick` set to 1/32 of a workload's
/// mean query cost, a query is about 32 ticks of work and each shard is
/// under half busy.
const MEAN_GAP: u64 = 48;

/// Worker shards of every cluster: one per core of the 2-vCPU machine
/// the bounds were set on.
pub const SHARDS: usize = 2;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["pa_hot", "pa_churn", "stream_zipf"];

/// Query kinds, in the order of the `dispatch.<kind>_ms` metrics.
pub const KINDS: [&str; 9] = [
    "pa",
    "components",
    "verify",
    "kdom",
    "eccentricity",
    "mst",
    "sssp",
    "mincut",
    "cds",
];

/// The index into [`KINDS`] of a query.
pub fn kind_of(query: &Query) -> usize {
    match query {
        Query::Pa { .. } => 0,
        Query::Components { .. } => 1,
        Query::Verify { .. } => 2,
        Query::Kdom { .. } => 3,
        Query::Eccentricity { .. } => 4,
        Query::Mst => 5,
        Query::Sssp { .. } => 6,
        Query::MinCut { .. } => 7,
        Query::Cds { .. } => 8,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    PaHot,
    PaChurn,
    StreamZipf,
}

/// Per-graph inputs queries draw from, so a realistic share of them
/// reuses warm artifacts.
struct Pool {
    partitions: Vec<Vec<usize>>,
    subgraphs: Vec<Vec<usize>>,
    node_weights: Vec<u64>,
}

pub struct Workload {
    kind: Kind,
    pub name: &'static str,
    pub seed: u64,
    pub graphs: Vec<(GraphId, Graph)>,
    pools: Vec<Pool>,
    pub config: StreamConfig,
    /// Arrivals per chunk: one `run_with` call, scored and dropped.
    pub chunk_len: usize,
    /// Chunks in the scored window: the prefix every run serves, over
    /// which the exact counts are taken and which the traced run replays.
    pub window: usize,
    /// Leading chunks the end-to-end run replays sequentially to check
    /// its answers and counts.
    pub verify: usize,
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let kind = match name {
            "pa_hot" => Kind::PaHot,
            "pa_churn" => Kind::PaChurn,
            "stream_zipf" => Kind::StreamZipf,
            _ => return None,
        };
        let name = NAMES[kind as usize];
        // The fleet is fixed per workload (`pa_churn` shares `pa_hot`'s);
        // the seed varies the traffic.
        let fleet = if kind == Kind::PaChurn {
            Kind::PaHot
        } else {
            kind
        };
        let mut rng = Rng::new(0xF1EE7, fleet as u64);
        let graphs: Vec<Graph> = match kind {
            Kind::PaHot | Kind::PaChurn => {
                vec![random_sparse(3000, 4500, &mut rng), grid(48, 48, &mut rng)]
            }
            Kind::StreamZipf => vec![
                grid(12, 12, &mut rng),
                torus(10, 12, &mut rng),
                random_sparse(200, 300, &mut rng),
                random_tree(160, &mut rng),
                hypercube(7, &mut rng),
                grid(2, 64, &mut rng),
            ],
        };
        let (partitions, parts) = match kind {
            Kind::PaHot | Kind::PaChurn => (3, 24),
            Kind::StreamZipf => (3, 16),
        };
        let subgraphs = if kind == Kind::StreamZipf { 3 } else { 0 };
        let pools = graphs
            .iter()
            .map(|g| Pool::new(g, partitions, parts, subgraphs, &mut rng))
            .collect();
        // Gateway tuning: `work_per_tick` is 1/32 of the workload's mean
        // query cost (see MEAN_GAP), and the deadline a little over the
        // ticks a batch takes to fill, so most batches close on size.
        let (chunk_len, window, verify, config) = match kind {
            Kind::PaHot => (256, 4, 2, tuned(16, 768, 360)),
            Kind::PaChurn => (128, 8, 1, tuned(16, 768, 6_500)),
            Kind::StreamZipf => (DECK.iter().sum(), 16, 1, tuned(16, 768, 300)),
        };
        Some(Workload {
            kind,
            name,
            seed,
            graphs: graphs
                .into_iter()
                .enumerate()
                .map(|(i, g)| (GraphId(i as u64 + 1), g))
                .collect(),
            pools,
            config,
            chunk_len,
            window,
            verify,
        })
    }

    /// Index of `id` in [`Workload::graphs`].
    pub fn slot(&self, id: GraphId) -> usize {
        id.0 as usize - 1
    }

    /// Chunk `index` of the workload's trace.
    pub fn chunk(&self, index: u64) -> Vec<Arrival> {
        self.arrivals(index, self.chunk_len)
    }

    /// The first `len` arrivals of chunk `index`'s stream: a longer
    /// trace extends a shorter one, arrival for arrival.
    pub fn arrivals(&self, index: u64, len: usize) -> Vec<Arrival> {
        let mut rng = Rng::new(self.seed, 0x1000 + index);
        let deck = self.deck(index, len);
        let mut tick = 0u64;
        deck.into_iter()
            .map(|(kind, slot)| {
                // Bursty: a quarter of arrivals share the previous tick.
                tick += if rng.unit() < 0.25 {
                    0
                } else {
                    1 + rng.below(2 * MEAN_GAP)
                };
                let slot = slot.unwrap_or_else(|| rng.index(self.graphs.len()));
                let (graph, pool) = (&self.graphs[slot].1, &self.pools[slot]);
                let query = match self.kind {
                    Kind::PaChurn => {
                        let assignment = random_partition(graph, 24, &mut rng);
                        pa_query(assignment, graph.n(), &mut rng)
                    }
                    _ => make_query(kind, graph, pool, &mut rng),
                };
                Arrival {
                    tick,
                    graph: self.graphs[slot].0,
                    query,
                }
            })
            .collect()
    }

    /// The query kind of each of `len` arrivals, and for `stream_zipf`
    /// its graph. `stream_zipf` deals them from shuffled copies of
    /// [`DECK`], each kind's queries spread over the graphs in exact
    /// zipf proportion, so every chunk has the same mix; the other
    /// workloads send PA only and draw each graph at random.
    fn deck(&self, index: u64, len: usize) -> Vec<(usize, Option<usize>)> {
        if self.kind != Kind::StreamZipf {
            return vec![(0, None); len];
        }
        let weights = zipf(self.graphs.len(), ZIPF_EXPONENT);
        let mut rng = Rng::new(self.seed, 0x2000 + index);
        let mut deck = Vec::with_capacity(len + self.chunk_len);
        while deck.len() < len {
            let start = deck.len();
            for (kind, &count) in DECK.iter().enumerate() {
                for (slot, &graphs) in apportion(count, &weights).iter().enumerate() {
                    deck.extend(std::iter::repeat_n((kind, Some(slot)), graphs));
                }
            }
            for i in (start + 1..deck.len()).rev() {
                let j = start + rng.index(i - start + 1);
                deck.swap(i, j);
            }
        }
        deck.truncate(len);
        deck
    }

    /// The cold warm-up batch: one PA query per pooled partition of
    /// every graph, which builds each engine's stage 1 (election + BFS)
    /// and its first artifacts. Each graph's queries have distinct
    /// partitions, so any executor runs them in submission order.
    pub fn warmup(&self) -> Vec<(GraphId, Query)> {
        self.graphs
            .iter()
            .zip(&self.pools)
            .flat_map(|((id, g), pool)| {
                pool.partitions.iter().map(move |assignment| {
                    (
                        *id,
                        Query::Pa {
                            assignment: assignment.clone(),
                            values: (0..g.n() as u64).collect(),
                            agg: Aggregate::Min,
                        },
                    )
                })
            })
            .collect()
    }

    /// Registers the fleet on a fresh cluster and serves the warm-up
    /// batch; returns the cluster, the timed set-up, and how many
    /// warm-up queries failed. Graph copies are made before the clock
    /// starts.
    pub fn setup(&self) -> (PaCluster, Duration, usize) {
        let graphs = self.graphs.clone();
        let warm = self.warmup();
        let start = Instant::now();
        let mut cluster = PaCluster::new(SHARDS);
        for (id, graph) in graphs {
            cluster.add_graph(id, graph);
        }
        let report = cluster.serve(&warm);
        let elapsed = start.elapsed();
        let failed = report.responses.iter().filter(|r| !r.is_ok()).count();
        (cluster, elapsed, failed)
    }
}

impl Pool {
    fn new(g: &Graph, partitions: usize, parts: usize, subgraphs: usize, rng: &mut Rng) -> Pool {
        Pool {
            partitions: (0..partitions)
                .map(|_| random_partition(g, parts, rng))
                .collect(),
            subgraphs: (0..subgraphs)
                .map(|_| (0..g.m()).filter(|_| rng.unit() < 0.6).collect())
                .collect(),
            node_weights: (0..g.n()).map(|_| 1 + rng.below(16)).collect(),
        }
    }
}

fn pa_query(assignment: Vec<usize>, n: usize, rng: &mut Rng) -> Query {
    Query::Pa {
        assignment,
        values: (0..n).map(|_| rng.below(1 << 20)).collect(),
        agg: [
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Sum,
            Aggregate::Xor,
            Aggregate::Or,
        ][rng.index(5)],
    }
}

/// A query of kind `KINDS[kind]` over `g`, drawing its inputs from `pool`.
fn make_query(kind: usize, g: &Graph, pool: &Pool, rng: &mut Rng) -> Query {
    let subgraph = |rng: &mut Rng| pool.subgraphs[rng.index(pool.subgraphs.len())].clone();
    let k = |rng: &mut Rng| [6, 10][rng.index(2)];
    match kind {
        0 => {
            let assignment = pool.partitions[rng.index(pool.partitions.len())].clone();
            pa_query(assignment, g.n(), rng)
        }
        1 => Query::Components {
            h_edges: subgraph(rng),
        },
        2 => Query::Verify {
            check: [
                VerifyCheck::ConnectedSpanning,
                VerifyCheck::SpanningTree,
                VerifyCheck::Cut,
                VerifyCheck::Bipartite,
                VerifyCheck::Forest,
            ][rng.index(5)],
            h_edges: subgraph(rng),
        },
        3 => Query::Kdom { k: k(rng) },
        4 => Query::Eccentricity { k: k(rng) },
        5 => Query::Mst,
        6 => Query::Sssp {
            source: rng.index(g.n()),
        },
        7 => Query::MinCut { trials: 1 },
        _ => Query::Cds {
            node_weights: pool.node_weights.clone(),
        },
    }
}

/// A 12×12 grid with one query of every kind (in [`KINDS`] order): the
/// fallback for a layer call a workload never makes.
pub fn probe() -> (Graph, Vec<Query>) {
    let mut rng = Rng::new(0, 0x9B0BE);
    let g = grid(12, 12, &mut rng);
    let pool = Pool::new(&g, 1, 8, 1, &mut rng);
    let queries = (0..KINDS.len())
        .map(|kind| make_query(kind, &g, &pool, &mut rng))
        .collect();
    (g, queries)
}

/// `count` split over items in proportion to `weights`, by largest
/// remainder.
fn apportion(count: usize, weights: &[f64]) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| count as f64 * w / total).collect();
    let mut shares: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let missing = count - shares.iter().sum::<usize>();
    for &i in order.iter().take(missing) {
        shares[i] += 1;
    }
    shares
}

/// Stream tuning with a high-water mark no workload reaches.
fn tuned(max_batch: usize, max_wait_ticks: u64, work_per_tick: u64) -> StreamConfig {
    StreamConfig::new()
        .with_max_batch(max_batch)
        .with_max_wait_ticks(max_wait_ticks)
        .with_high_water(4096)
        .with_work_per_tick(work_per_tick)
}

fn weight(rng: &mut Rng) -> u64 {
    1 + rng.below(1000)
}

fn build(n: usize, edges: &[(usize, usize, u64)]) -> Graph {
    Graph::from_edges(n, edges).expect("generated edges are simple and in range")
}

fn grid(rows: usize, cols: usize, rng: &mut Rng) -> Graph {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                edges.push((v, v + 1, weight(rng)));
            }
            if r + 1 < rows {
                edges.push((v, v + cols, weight(rng)));
            }
        }
    }
    build(rows * cols, &edges)
}

fn torus(rows: usize, cols: usize, rng: &mut Rng) -> Graph {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            edges.push((v, r * cols + (c + 1) % cols, weight(rng)));
            edges.push((v, ((r + 1) % rows) * cols + c, weight(rng)));
        }
    }
    build(rows * cols, &edges)
}

fn hypercube(dim: u32, rng: &mut Rng) -> Graph {
    let n = 1usize << dim;
    let mut edges = Vec::new();
    for v in 0..n {
        for bit in 0..dim {
            let u = v ^ (1 << bit);
            if v < u {
                edges.push((v, u, weight(rng)));
            }
        }
    }
    build(n, &edges)
}

fn random_tree(n: usize, rng: &mut Rng) -> Graph {
    let edges: Vec<_> = (1..n).map(|v| (rng.index(v), v, weight(rng))).collect();
    build(n, &edges)
}

/// A random spanning tree plus random extra edges, `m` edges in all.
fn random_sparse(n: usize, m: usize, rng: &mut Rng) -> Graph {
    let mut seen = HashSet::new();
    let mut edges = Vec::with_capacity(m);
    for v in 1..n {
        let u = rng.index(v);
        seen.insert((u, v));
        edges.push((u, v, weight(rng)));
    }
    while edges.len() < m {
        let (a, b) = (rng.index(n), rng.index(n));
        let key = (a.min(b), a.max(b));
        if a != b && seen.insert(key) {
            edges.push((key.0, key.1, weight(rng)));
        }
    }
    build(n, &edges)
}

/// A connected partition into (at most) `parts` parts: multi-source BFS
/// from distinct random seeds, part ids numbered by first member.
pub fn random_partition(g: &Graph, parts: usize, rng: &mut Rng) -> Vec<usize> {
    let n = g.n();
    let k = parts.min(n);
    let mut assign = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    let mut chosen = 0;
    while chosen < k {
        let v = rng.index(n);
        if assign[v] == usize::MAX {
            assign[v] = chosen;
            queue.push_back(v);
            chosen += 1;
        }
    }
    while let Some(u) = queue.pop_front() {
        for (v, _) in g.neighbors(u) {
            if assign[v] == usize::MAX {
                assign[v] = assign[u];
                queue.push_back(v);
            }
        }
    }
    let mut renumber = vec![usize::MAX; k];
    let mut next = 0;
    for part in &mut assign {
        if renumber[*part] == usize::MAX {
            renumber[*part] = next;
            next += 1;
        }
        *part = renumber[*part];
    }
    assign
}
