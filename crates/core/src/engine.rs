//! `PaEngine` — a long-lived PA session that owns the network once and
//! caches pipeline artifacts across calls.
//!
//! The paper's whole point (Theorem 1.2) is that the Part-Wise
//! Aggregation infrastructure is *reusable*: leader election and the BFS
//! tree depend only on the graph, and the partition-specific stages
//! (part leaders, sub-part division, tree-restricted shortcut, block
//! budget) depend only on the partition — not on the aggregated values.
//! Borůvka runs PA `O(log n)` times on one tree, the min-cut sketches
//! run `polylog(n)` aggregations, and the verification suite composes
//! several PA calls per query.
//!
//! [`PaEngine`] makes that reuse the API default:
//!
//! * constructed once per graph, it owns the [`Network`] and runs
//!   election + BFS exactly once (lazily, at the first solve or tree
//!   access — sessions that only need divisions never simulate it);
//! * its PA surface is [`PaEngine::solve`], the buffer-taking
//!   [`PaEngine::solve_into`], the pipelined [`PaEngine::solve_batch`]
//!   and the pre-warming [`PaEngine::pipeline_for`]; each looks its part
//!   vector up once in an LRU-bounded memo keyed by a fingerprint of the
//!   vector; only a miss validates the vector against the graph and
//!   rebuilds stages 2–4 and runs Algorithm 1's phase A, and a hit reuses
//!   the partition validated then;
//! * the solves replay the entry's recorded phase A: phase B folds the
//!   values backwards along its delivery record and phase C copies each
//!   part's result forwards, in the engine's recycled accumulator;
//! * costs are charged *incrementally*: election + BFS on the first
//!   solve, stage 2–4 setup once per distinct partition, and on a cache
//!   hit only the three wave phases, each at phase A's recorded cost;
//! * [`EngineStats`] surfaces hit/miss/eviction counters so harness
//!   experiments and benches can report the savings.
//!
//! # Quickstart
//!
//! ```rust
//! use rmo_graph::gen;
//! use rmo_core::{Aggregate, EngineConfig, PaEngine};
//!
//! let g = gen::grid(8, 8);
//! let parts = gen::grid_row_partition(8, 8);
//! let values: Vec<u64> = (0..g.n() as u64).collect();
//!
//! let mut engine = PaEngine::new(&g, EngineConfig::new());
//! // The first solve validates the part vector and builds its artifacts.
//! let first = engine.solve(&parts, &values, Aggregate::Min).unwrap();
//! let second = engine.solve(&parts, &values, Aggregate::Min).unwrap();
//! assert_eq!(first.aggregates, second.aggregates);
//! // The second call reuses the cached partition, tree, shortcut and
//! // division:
//! assert!(second.cost.rounds < first.cost.rounds);
//! assert_eq!(engine.stats().hits, 1);
//! // An invalid vector is rejected without touching the cache.
//! assert!(engine.solve(&[0; 3], &values, Aggregate::Min).is_err());
//! assert_eq!(engine.stats().misses, 1);
//! ```

use std::collections::BTreeMap;
use std::sync::OnceLock;

use rmo_congest::programs::bfs::run_bfs;
use rmo_congest::programs::leader::run_leader_election;
use rmo_congest::{CostReport, Network};
use rmo_graph::{Graph, Partition, RootedTree};

use crate::aggregate::Aggregate;
use crate::instance::{PaError, PaInstance};
use crate::pipeline::{build_artifacts, PipelineArtifacts, ShortcutStrategy};
use crate::solve::{solve_with, PaResult, SolveScratch, Variant};
use crate::subparts_det::{deterministic_division, DetDivisionResult};

/// Default number of distinct partitions the artifact cache retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 8;

/// Which sub-part division algorithm the pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivisionStrategy {
    /// Algorithm 6 (deterministic star joining).
    Deterministic,
    /// Algorithm 3 (randomized).
    Randomized,
}

/// Builder-style configuration of a [`PaEngine`] session — the one
/// configuration type of a PA run.
///
/// The three ablation axes (Algorithm 1 variant, shortcut construction,
/// sub-part division) plus the master seed and the cache bound:
/// `EngineConfig::new()` is the paper's deterministic headline,
/// [`EngineConfig::randomized`] and [`EngineConfig::trivial`] switch
/// whole profiles, and the narrow setters
/// ([`shortcut`](EngineConfig::shortcut),
/// [`division`](EngineConfig::division), [`seed`](EngineConfig::seed),
/// [`cache_capacity`](EngineConfig::cache_capacity)) tweak one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Algorithm 1 variant.
    pub variant: Variant,
    /// Shortcut construction strategy.
    pub shortcut: ShortcutStrategy,
    /// Sub-part division algorithm.
    pub division: DivisionStrategy,
    /// Master seed (network IDs, divisions, delays).
    pub seed: u64,
    /// LRU bound on cached partitions, and separately on memoized
    /// whole-graph divisions (≥ 1).
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig::new()
    }
}

impl EngineConfig {
    /// The paper's deterministic headline: Algorithm 8 shortcuts,
    /// Algorithm 6 divisions, deterministic Algorithm 1.
    pub fn new() -> EngineConfig {
        EngineConfig {
            variant: Variant::Deterministic,
            shortcut: ShortcutStrategy::Deterministic,
            division: DivisionStrategy::Deterministic,
            seed: 0,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }

    /// Switches to the paper's randomized headline (`Õ(bD + c)` rounds
    /// w.h.p.) with the given seed.
    pub fn randomized(mut self, seed: u64) -> EngineConfig {
        self.variant = Variant::Randomized { seed };
        self.shortcut = ShortcutStrategy::Randomized;
        self.division = DivisionStrategy::Randomized;
        self.seed = seed;
        self
    }

    /// Switches to the trivial-shortcut profile (the `Õ(D + √n)`
    /// worst-case bound).
    pub fn trivial(mut self) -> EngineConfig {
        self.variant = Variant::Deterministic;
        self.shortcut = ShortcutStrategy::Trivial;
        self.division = DivisionStrategy::Deterministic;
        self
    }

    /// Overrides the shortcut construction strategy.
    pub fn shortcut(mut self, strategy: ShortcutStrategy) -> EngineConfig {
        self.shortcut = strategy;
        self
    }

    /// Overrides the sub-part division algorithm.
    pub fn division(mut self, strategy: DivisionStrategy) -> EngineConfig {
        self.division = strategy;
        self
    }

    /// Overrides the master seed. When the randomized Algorithm 1
    /// variant is active, its per-part-delay seed follows the master
    /// seed too, so `.randomized(0).seed(42)` behaves like
    /// `.randomized(42)`.
    pub fn seed(mut self, seed: u64) -> EngineConfig {
        self.seed = seed;
        if matches!(self.variant, Variant::Randomized { .. }) {
            self.variant = Variant::Randomized { seed };
        }
        self
    }

    /// Overrides how many distinct partitions the cache retains.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn cache_capacity(mut self, capacity: usize) -> EngineConfig {
        assert!(capacity > 0, "the artifact cache needs room for one entry");
        self.cache_capacity = capacity;
        self
    }
}

/// Counters a [`PaEngine`] accumulates across its lifetime.
///
/// Stats from several engines (a sharded cluster) combine with
/// [`EngineStats::merge`]; the [`std::fmt::Display`] form is the
/// one-line hit/miss/eviction summary the harness tables print.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Artifact-cache hits (pipeline stages 2–4 skipped).
    pub hits: u64,
    /// Artifact-cache misses (stages 2–4 built).
    pub misses: u64,
    /// Artifact-cache entries evicted by the LRU bound (a division memo
    /// eviction shows up only as a later division miss).
    pub evictions: u64,
    /// Hits on the whole-graph division memo
    /// ([`PaEngine::whole_graph_division`] — a separate cache from the
    /// pipeline artifacts).
    pub division_hits: u64,
    /// Misses on the whole-graph division memo (division built).
    pub division_misses: u64,
    /// PA solves served (including the solve inside each batch).
    pub solves: u64,
    /// Batched solves served.
    pub batches: u64,
    /// Distinct partitions currently cached.
    pub cached_partitions: usize,
    /// Election + BFS cost, paid once per engine — zero until stage 1
    /// has run (it runs lazily, at the first solve or tree access).
    pub base_cost: CostReport,
}

impl EngineStats {
    /// Folds another engine's counters into this one (counters add,
    /// base costs compose sequentially). Serving layers use this to
    /// aggregate a whole fleet of sessions into one report.
    pub fn merge(&mut self, other: &EngineStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.division_hits += other.division_hits;
        self.division_misses += other.division_misses;
        self.solves += other.solves;
        self.batches += other.batches;
        self.cached_partitions += other.cached_partitions;
        self.base_cost += other.base_cost;
    }

    /// Artifact-cache hit rate in `[0, 1]` (zero when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

impl std::fmt::Display for EngineStats {
    /// One-line cache economics summary, e.g.
    /// `hits/misses/evictions 8/4/1 (66.7% hit), divisions 2/1, 12 solves (2 batched), 3 live, base 42r/1234m`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits/misses/evictions {}/{}/{} ({:.1}% hit), divisions {}/{}, \
             {} solves ({} batched), {} live, base {}r/{}m",
            self.hits,
            self.misses,
            self.evictions,
            100.0 * self.hit_rate(),
            self.division_hits,
            self.division_misses,
            self.solves,
            self.batches,
            self.cached_partitions,
            self.base_cost.rounds,
            self.base_cost.messages,
        )
    }
}

/// Result of [`PaEngine::solve_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResult {
    /// `aggregates[i][p]` — aggregate of value-set `i` on part `p`.
    pub aggregates: Vec<Vec<u64>>,
    /// Total measured cost of the pipelined batch.
    pub cost: CostReport,
}

#[derive(Clone)]
struct CacheEntry {
    /// The partition, validated against the engine's graph when the
    /// entry was built; its part vector rules out fingerprint collisions.
    partition: Partition,
    artifacts: PipelineArtifacts,
    last_used: u64,
    /// Whether this entry's stage 2–4 setup cost has been charged to a
    /// caller yet. [`PaEngine::pipeline_for`] builds without charging;
    /// the first solve that consumes the entry picks the cost up.
    setup_charged: bool,
}

/// Everything a [`PaEngine`] owns besides the graph borrow: the
/// simulated network, the lazily-built stage 1 (election + BFS), the
/// per-partition artifact cache, the division memo, and the counters.
///
/// The split exists for serving layers: an `EngineCore` is `'static`,
/// [`Send`], and survives independently of any graph reference, so a
/// multi-graph cluster can park the warm state of a session between
/// requests (or ship it to a worker thread) and rehydrate a live
/// [`PaEngine`] with [`PaEngine::from_core`] when the next query for
/// that graph arrives. A core remembers a stable fingerprint of the
/// graph it was built against and refuses rehydration onto any other.
pub struct EngineCore {
    config: EngineConfig,
    net: Network,
    /// Stage 1 (leader election + BFS tree) and its cost, built on first
    /// use so sessions that never need the tree (k-domination's
    /// divisions) never simulate it. `OnceLock` rather than `OnceCell`
    /// so the core stays `Send + Sync` and can cross shard threads.
    stage1: OnceLock<(RootedTree, CostReport)>,
    base_charged: bool,
    cache: BTreeMap<u64, CacheEntry>,
    /// Whole-graph divisions by completion threshold, each with its
    /// last-used `clock` stamp; LRU-bounded like `cache`.
    division_cache: BTreeMap<usize, (DetDivisionResult, u64)>,
    /// The recycled phase-B accumulator: once it has grown to the graph,
    /// a cache-hit [`PaEngine::solve_into`] performs zero heap allocations.
    scratch: SolveScratch,
    clock: u64,
    stats: EngineStats,
    /// [`graph_fingerprint`] of the graph this core was built against.
    graph_fp: u64,
}

impl EngineCore {
    /// Lifetime counters of the session this core belongs to (see
    /// [`PaEngine::stats`]).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cached_partitions: self.cache.len(),
            base_cost: self
                .stage1
                .get()
                .map(|(_, cost)| *cost)
                .unwrap_or_else(CostReport::zero),
            ..self.stats
        }
    }

    /// The session configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Clones this core's warm state into a replica with fresh counters.
    ///
    /// The replica shares nothing mutable with the original: the stage-1
    /// tree, the per-partition artifact cache, and the division memo are
    /// cloned (no artifact is rebuilt, so the replica serves the same
    /// cache hits the original would), while [`EngineStats`] start from
    /// zero so replica work is attributable. Cost provenance stays
    /// single-charge: the clone carries the stage-1 *tree* but a zero
    /// stage-1 cost with `base_charged` already set, so a fleet of
    /// replicas never re-charges election + BFS a second time. A core
    /// forked before stage 1 exists simply lets each side build (and
    /// account) its own tree lazily.
    ///
    /// Serving schedulers use this to split one hot graph's batch across
    /// shards and later fold the replicas back with [`EngineCore::absorb`].
    pub fn fork(&self) -> EngineCore {
        let stage1 = OnceLock::new();
        if let Some((tree, _)) = self.stage1.get() {
            let _ = stage1.set((tree.clone(), CostReport::zero()));
        }
        EngineCore {
            config: self.config,
            net: self.net.clone(),
            stage1,
            base_charged: true,
            cache: self
                .cache
                .iter()
                .map(|(fp, entry)| (*fp, entry.clone()))
                .collect(),
            division_cache: self.division_cache.clone(),
            scratch: SolveScratch::new(),
            clock: self.clock,
            stats: EngineStats::default(),
            graph_fp: self.graph_fp,
        }
    }

    /// Folds a replica's counters back into this core (the inverse of
    /// [`EngineCore::fork`], run once per replica after a split batch).
    ///
    /// Only the raw lifetime counters merge — `cached_partitions` and
    /// `base_cost` are derived from live state at [`EngineCore::stats`]
    /// time, so absorbing never double-counts them — and the replica's
    /// caches are dropped: the survivor keeps its own warm artifacts,
    /// which the fork guaranteed are a superset of what the batch
    /// started from.
    pub fn absorb(&mut self, replica: EngineCore) {
        self.stats.merge(&replica.stats);
    }
}

impl std::fmt::Debug for EngineCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCore")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// A PA session bound to one graph: election + BFS run once per engine
/// (lazily, at the first solve or tree access), pipeline artifacts are
/// memoized per partition, and all solves charge only their incremental
/// cost (see the module docs).
///
/// A `PaEngine` is a borrowed view: the graph reference plus an owned
/// [`EngineCore`] holding all mutable session state. [`PaEngine::into_core`]
/// and [`PaEngine::from_core`] split and rejoin the two, which is how
/// sharded serving layers persist warm sessions across requests.
pub struct PaEngine<'g> {
    graph: &'g Graph,
    core: EngineCore,
}

impl std::fmt::Debug for PaEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PaEngine")
            .field("n", &self.graph.n())
            .field("m", &self.graph.m())
            .field("config", &self.core.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME_POW[k]` is `FNV_PRIME^k` (wrapping): the effect of `k`
/// zero bytes on the FNV-1a state.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a over a word stream, one byte at a time (little-endian).
///
/// A zero byte XORs in nothing, so the zero bytes above a word's
/// highest non-zero byte fold into one multiply by `FNV_PRIME^k`: the
/// value is bit-identical to the byte loop, but a small id costs two
/// multiplies instead of eight.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for mut w in words {
        let zero_bytes = (w.leading_zeros() / 8) as usize; // rmo-lint: allow(C1) — a byte count of at most 8, not a cost counter
        for _ in zero_bytes..8 {
            h ^= w & 0xff;
            h = h.wrapping_mul(FNV_PRIME);
            w >>= 8;
        }
        h = h.wrapping_mul(FNV_PRIME_POW.get(zero_bytes).copied().unwrap_or(1));
    }
    h
}

/// Stable FNV-1a fingerprint of a `u64` word stream — the
/// width-independent sibling of [`partition_fingerprint`] (which takes
/// part vectors as `usize`s, hashing each as a `u64`). Serving layers
/// hash `u64` graph ids with this so shard routing is identical on
/// 32- and 64-bit targets.
pub fn word_fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(words)
}

/// Stable FNV-1a fingerprint of a partition's part vector.
///
/// This keys the artifact cache (with a full-vector equality check on
/// hit, so collisions cost a rebuild, never a wrong answer) and is the
/// natural affinity key for schedulers that batch same-partition
/// queries. Unlike `DefaultHasher`, the value is specified and identical
/// across Rust versions and platforms, so cache accounting is
/// reproducible everywhere.
pub fn partition_fingerprint(assignment: &[usize]) -> u64 {
    fnv1a(assignment.iter().map(|&p| p as u64))
}

/// Stable FNV-1a fingerprint of a graph: node count, then every edge as
/// `(u, v, weight)` in edge-id order. Two graphs fingerprint equal iff
/// they have identical topology *and* weights, which is exactly the
/// "same session state applies" condition [`PaEngine::from_core`] needs.
fn graph_fingerprint(g: &Graph) -> u64 {
    fnv1a(
        std::iter::once(g.n() as u64)
            .chain(g.edges().flat_map(|(_, u, v, w)| [u as u64, v as u64, w])),
    )
}

impl<'g> PaEngine<'g> {
    /// Builds the session: assigns KT0 identifiers and validates the
    /// graph. Stage 1 (leader election + BFS on the real CONGEST
    /// simulator) runs lazily at the first solve or [`PaEngine::tree`]
    /// access, is paid exactly once, and is charged to the first solve.
    ///
    /// # Panics
    /// Panics if the graph is empty or disconnected (the CONGEST network
    /// is one component), or if `config.cache_capacity` is zero.
    pub fn new(graph: &'g Graph, config: EngineConfig) -> PaEngine<'g> {
        assert!(graph.n() > 0, "PaEngine needs a non-empty graph");
        assert!(graph.is_connected(), "PaEngine needs a connected graph");
        assert!(config.cache_capacity > 0, "cache capacity must be >= 1");
        let net = Network::new(graph, config.seed);
        PaEngine {
            graph,
            core: EngineCore {
                config,
                net,
                stage1: OnceLock::new(),
                base_charged: false,
                cache: BTreeMap::new(),
                division_cache: BTreeMap::new(),
                scratch: SolveScratch::new(),
                clock: 0,
                stats: EngineStats::default(),
                graph_fp: graph_fingerprint(graph),
            },
        }
    }

    /// Rehydrates a session from a parked [`EngineCore`]: the warm
    /// caches, tree, and counters pick up exactly where
    /// [`PaEngine::into_core`] left off.
    ///
    /// # Panics
    /// Panics if `core` was built against a different graph (by stable
    /// fingerprint — node count, edges, and weights must all match).
    pub fn from_core(graph: &'g Graph, core: EngineCore) -> PaEngine<'g> {
        assert_eq!(
            core.graph_fp,
            graph_fingerprint(graph),
            "EngineCore rehydrated onto a different graph"
        );
        PaEngine { graph, core }
    }

    /// Releases the graph borrow and hands back the owned session state
    /// (tree, artifact cache, counters) for parking or for shipping to
    /// another thread. The inverse of [`PaEngine::from_core`].
    pub fn into_core(self) -> EngineCore {
        self.core
    }

    /// Builds a session around an already-paid-for tree. `base_cost` is
    /// whatever the caller actually spent obtaining it (zero if it is
    /// being reused from another session).
    fn with_tree(
        graph: &'g Graph,
        config: EngineConfig,
        tree: RootedTree,
        base_cost: CostReport,
    ) -> PaEngine<'g> {
        let engine = PaEngine::new(graph, config);
        engine
            .core
            .stage1
            .set((tree, base_cost))
            .expect("fresh engine has no stage-1 state");
        engine
    }

    /// Stage 1, built on first use (see [`run_stage1`]).
    fn stage1(&self) -> &(RootedTree, CostReport) {
        self.core
            .stage1
            .get_or_init(|| run_stage1(self.graph, &self.core.net))
    }

    /// Derives a session for a reweighted copy of this engine's graph
    /// (same nodes, same edges, possibly different weights), reusing the
    /// already-built BFS tree instead of re-running election + BFS.
    ///
    /// Election and BFS are weight-oblivious, so the tree is valid as-is;
    /// the derived engine charges no base cost. The min-cut sketches use
    /// this to amortize stage 1 across all sampled perturbations.
    ///
    /// # Panics
    /// Panics if `graph` is not topology-identical to this engine's.
    pub fn for_reweighted<'h>(&self, graph: &'h Graph) -> PaEngine<'h> {
        assert!(
            same_topology(self.graph, graph),
            "for_reweighted needs an identical topology"
        );
        PaEngine::with_tree(
            graph,
            self.core.config,
            self.tree().clone(),
            CostReport::zero(),
        )
    }

    /// The graph this session is bound to.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The session's BFS tree, shared by every solve (built on first
    /// access).
    pub fn tree(&self) -> &RootedTree {
        &self.stage1().0
    }

    /// The session configuration.
    pub fn config(&self) -> EngineConfig {
        self.core.config
    }

    /// Lifetime counters, including the one-off election + BFS cost
    /// (zero while stage 1 has not run yet).
    pub fn stats(&self) -> EngineStats {
        self.core.stats()
    }

    /// Checks `assignment` out of the artifact cache and runs `on_entry` on
    /// the entry, the stage-1 tree and the solve scratch. `key` is the
    /// vector's [`partition_fingerprint`].
    ///
    /// A hit (equal key, equal part vector) reuses the partition
    /// validated when the entry was built and checks nothing else. A
    /// miss validates `assignment` against this engine's graph, then
    /// builds the entry. `values` is the solve's value count (a batch
    /// passes its first wrong set length), checked after the partition;
    /// `None` marks a pre-warm, which counts no solve and leaves the
    /// entry's setup cost pending. A rejected call counts, stamps and
    /// builds nothing.
    ///
    /// `on_entry` also gets the cost to charge beyond the waves: the entry's
    /// stage 2–4 setup if no solve has paid it yet, plus election + BFS
    /// on the engine's first charge.
    ///
    /// (`on_entry` is bound in a `where` clause: `rmo-lint` reads a fn with
    /// `impl Trait` in argument position as an `impl` block, which would
    /// hide this body from its R1 call graph.)
    fn checkout<R, F>(
        &mut self,
        key: u64,
        assignment: &[usize],
        values: Option<usize>,
        on_entry: F,
    ) -> Result<R, PaError>
    where
        F: FnOnce(&CacheEntry, &RootedTree, &mut SolveScratch, CostReport) -> R,
    {
        let graph = self.graph;
        let n = graph.n();
        let check_values = || match values {
            Some(got) if got != n => Err(PaError::ValueCountMismatch { expected: n, got }),
            _ => Ok(()),
        };
        let core = &mut self.core;
        let entry = match core.cache.get_mut(&key) {
            Some(entry) if entry.partition.assignment() == assignment => {
                check_values()?;
                core.stats.hits += 1;
                entry
            }
            _ => {
                let partition = Partition::new(graph, assignment.to_vec())?;
                check_values()?;
                core.stats.misses += 1;
                let (tree, _) = core.stage1.get_or_init(|| run_stage1(graph, &core.net));
                let artifacts = build_artifacts(graph, &partition, &core.config, tree);
                // On a fingerprint collision the stale entry leaves
                // first, so it takes no room from the capacity check.
                core.cache.remove(&key);
                if core.cache.len() >= core.config.cache_capacity
                    && evict_lru(&mut core.cache, |e| e.last_used)
                {
                    core.stats.evictions += 1;
                }
                core.cache.entry(key).or_insert(CacheEntry {
                    partition,
                    artifacts,
                    last_used: 0,
                    setup_charged: false,
                })
            }
        };
        core.clock += 1;
        entry.last_used = core.clock;
        let (tree, base_cost) = core.stage1.get_or_init(|| run_stage1(graph, &core.net));
        let mut extra = CostReport::zero();
        if values.is_some() {
            core.stats.solves += 1;
            if !entry.setup_charged {
                entry.setup_charged = true;
                extra += entry.artifacts.setup_cost;
            }
            if !core.base_charged {
                core.base_charged = true;
                extra += *base_cost;
            }
        }
        Ok(on_entry(entry, tree, &mut core.scratch, extra))
    }

    /// Charges the one-off election + BFS cost to the caller if no solve
    /// has charged it yet (returns zero afterwards). Solves do this
    /// implicitly; callers that only derive reweighted trial sessions
    /// from this engine (min-cut) call it explicitly so the shared tree
    /// is still paid for exactly once.
    pub fn charge_base(&mut self) -> CostReport {
        if self.core.base_charged {
            return CostReport::zero();
        }
        self.core.base_charged = true;
        self.stage1().1
    }

    /// Builds (or fetches) the pipeline artifacts for a partition without
    /// solving anything — a pre-warm/inspection entry point. It takes the
    /// same cache lookup as a solve, so a hit does nothing else. The
    /// entry's stage 2–4 setup cost stays *pending*: the first solve that
    /// consumes this partition is charged it, preserving the
    /// charged-once-per-partition invariant.
    ///
    /// # Errors
    /// A miss validates `parts`' part vector against this engine's graph
    /// and propagates the [`PaError`] (e.g. a vector of another graph's
    /// length) instead of aborting — serving layers turn this into a
    /// per-query failure rather than killing a worker.
    pub fn pipeline_for(&mut self, parts: &Partition) -> Result<&PipelineArtifacts, PaError> {
        let key = partition_fingerprint(parts.assignment());
        self.checkout(key, parts.assignment(), None, |_, _, _, _| ())?;
        Ok(&self.core.cache[&key].artifacts)
    }

    /// Solves one PA instance: every node of every part learns `agg`
    /// folded over its part's `values`. `assignment` is the part id per
    /// node, as for [`Partition::new`].
    ///
    /// A part vector the engine has cached is not validated again: the
    /// solve reuses the cached partition, replays its recorded wave and
    /// charges only the waves.
    ///
    /// # Errors
    /// [`PaError::Partition`] if `assignment` is not a valid partition of
    /// this graph, then [`PaError::ValueCountMismatch`] if `values` does
    /// not hold one value per node (a rejected call changes no
    /// [`EngineStats`] counter), and the errors of Algorithm 1.
    pub fn solve(
        &mut self,
        assignment: &[usize],
        values: &[u64],
        agg: Aggregate,
    ) -> Result<PaResult, PaError> {
        let mut out = PaResult::default();
        self.solve_into(assignment, values, agg, &mut out)?;
        Ok(out)
    }

    /// [`PaEngine::solve`] into a caller-owned result buffer, recycling
    /// the session's solve scratch. This is the allocation-free serving
    /// path: once the engine and `out` have warmed up on a partition, a
    /// cache-hit solve performs zero heap allocations (pinned by
    /// `tests/alloc_free.rs`).
    ///
    /// # Errors
    /// As [`PaEngine::solve`].
    pub fn solve_into(
        &mut self,
        assignment: &[usize],
        values: &[u64],
        agg: Aggregate,
        out: &mut PaResult,
    ) -> Result<(), PaError> {
        let graph = self.graph;
        let key = partition_fingerprint(assignment);
        self.checkout(
            key,
            assignment,
            Some(values.len()),
            |entry, tree, scratch, extra| {
                let inst = PaInstance::borrowed(graph, &entry.partition, values, agg);
                replay(&inst, entry, tree, scratch, out)?;
                out.cost += extra;
                Ok(())
            },
        )?
    }

    /// Solves `k` aggregations over one partition with a single pipelined
    /// wave.
    ///
    /// Applications routinely aggregate many word-sized values over one
    /// partition (the min-cut sketches, the CDS labels). The wave's
    /// routes do not depend on the values, so each value set replays the
    /// entry's recorded wave, and the `k` values stream behind each other
    /// like the pipelined broadcast primitive
    /// (`congest::programs::pipeline`, `O(depth + k)` rounds): each of
    /// the three phases adds `k - 1` rounds to one solve's, and every
    /// message carries `k` values, so messages are `k` times one solve's.
    /// The checkout's setup is charged once on top.
    ///
    /// # Errors
    /// As [`PaEngine::solve`]: a partition error first, then
    /// [`PaError::ValueCountMismatch`] for the first value set without one
    /// value per node (a rejected call changes no [`EngineStats`]
    /// counter), then the errors of Algorithm 1.
    ///
    /// # Panics
    /// Panics if `value_sets` is empty.
    pub fn solve_batch(
        &mut self,
        assignment: &[usize],
        value_sets: &[Vec<u64>],
        agg: Aggregate,
    ) -> Result<BatchResult, PaError> {
        assert!(!value_sets.is_empty(), "batch needs at least one value set");
        let graph = self.graph;
        let n = graph.n();
        let key = partition_fingerprint(assignment);
        let count = value_sets
            .iter()
            .map(Vec::len)
            .find(|&len| len != n)
            .unwrap_or(n);
        let batch = self.checkout(
            key,
            assignment,
            Some(count),
            |entry, tree, scratch, extra| {
                let mut one = PaResult::default();
                let mut aggregates = Vec::with_capacity(value_sets.len());
                for values in value_sets {
                    let inst = PaInstance::borrowed(graph, &entry.partition, values, agg);
                    replay(&inst, entry, tree, scratch, &mut one)?;
                    aggregates.push(one.aggregates.clone());
                }
                let k = value_sets.len();
                let cost = CostReport::with_capacity(
                    one.cost.rounds + 3 * (k - 1),
                    one.cost.messages * k as u64,
                    one.cost.capacity_multiplier,
                ) + extra;
                Ok(BatchResult { aggregates, cost })
            },
        )?;
        self.core.stats.batches += 1;
        batch
    }

    /// The Algorithm 6 division of the whole graph with completion
    /// threshold `completion`, memoized per threshold (Corollary A.3:
    /// k-dominating sets are "a simple generalization of our sub-part
    /// division algorithm"). The cached cost is charged on the miss only.
    /// The memo holds at most [`EngineConfig::cache_capacity`]
    /// thresholds and evicts the least recently used one, as the artifact
    /// cache does; an evicted threshold counts as a miss when asked again.
    ///
    /// Returns the division result and the cost to charge this call.
    pub fn whole_graph_division(&mut self, completion: usize) -> (&DetDivisionResult, CostReport) {
        self.core.clock += 1;
        let clock = self.core.clock;
        let mut cost = CostReport::zero();
        if let Some((_, last_used)) = self.core.division_cache.get_mut(&completion) {
            *last_used = clock;
            self.core.stats.division_hits += 1;
        } else {
            self.core.stats.division_misses += 1;
            let parts = Partition::whole(self.graph).expect("engine graph is connected");
            let res = deterministic_division(self.graph, &parts, completion);
            cost = res.cost;
            if self.core.division_cache.len() >= self.core.config.cache_capacity {
                evict_lru(&mut self.core.division_cache, |&(_, last_used)| last_used);
            }
            self.core.division_cache.insert(completion, (res, clock));
        }
        (&self.core.division_cache[&completion].0, cost)
    }
}

/// Stage 1: flood-max election + distributed BFS on the simulator, with
/// their measured cost.
fn run_stage1(graph: &Graph, net: &Network) -> (RootedTree, CostReport) {
    let (root, _, elect_cost) =
        run_leader_election(graph, net).expect("election terminates on a connected graph");
    let (tree, _, bfs_cost) = run_bfs(graph, net, root).expect("BFS terminates");
    (tree, elect_cost + bfs_cost)
}

/// Algorithm 1 for `inst` on a checked-out cache entry, into `out`:
/// phases B and C replay the entry's recorded phase A in the session's
/// solve scratch. Charges the waves only.
fn replay(
    inst: &PaInstance<'_>,
    entry: &CacheEntry,
    tree: &RootedTree,
    scratch: &mut SolveScratch,
    out: &mut PaResult,
) -> Result<(), PaError> {
    let artifacts = &entry.artifacts;
    solve_with(inst, &artifacts.setup(tree), &artifacts.wave, scratch, out)
}

/// Removes the entry of `cache` with the oldest `last_used` stamp — the
/// LRU rule of both engine caches. Returns whether an entry was removed.
fn evict_lru<K: Ord + Copy, V>(cache: &mut BTreeMap<K, V>, last_used: impl Fn(&V) -> u64) -> bool {
    let lru = cache
        .iter()
        .min_by_key(|(_, e)| last_used(e))
        .map(|(&key, _)| key);
    lru.is_some_and(|key| cache.remove(&key).is_some())
}

/// Same node count and identical edge lists (endpoints, not weights).
fn same_topology(a: &Graph, b: &Graph) -> bool {
    a.n() == b.n()
        && a.m() == b.m()
        && a.edges()
            .zip(b.edges())
            .all(|((ea, ua, va, _), (eb, ub, vb, _))| ea == eb && ua == ub && va == vb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve_on;
    use rmo_graph::gen;

    fn grid_instance() -> (Graph, Partition, Vec<u64>) {
        let g = gen::grid(6, 8);
        let parts = Partition::new(&g, gen::grid_row_partition(6, 8)).unwrap();
        let values: Vec<u64> = (0..g.n() as u64).map(|v| (v * 31) % 97).collect();
        (g, parts, values)
    }

    /// Every stage rebuilt for one call: a fresh network, tree,
    /// artifacts, wave plan and solve scratch.
    fn from_scratch(inst: &PaInstance<'_>, config: &EngineConfig) -> PaResult {
        let g = inst.graph();
        let net = Network::new(g, config.seed);
        let (root, _, elect_cost) = run_leader_election(g, &net).unwrap();
        let (tree, _, bfs_cost) = run_bfs(g, &net, root).unwrap();
        let artifacts = build_artifacts(g, inst.partition(), config, &tree);
        let mut result = solve_on(inst, &artifacts.setup(&tree), config.variant).unwrap();
        result.cost += artifacts.setup_cost + elect_cost + bfs_cost;
        result
    }

    #[test]
    fn engine_matches_one_shot_pipeline() {
        let (g, parts, values) = grid_instance();
        for config in [
            EngineConfig::new(),
            EngineConfig::new().randomized(3),
            EngineConfig::new().trivial().seed(1),
        ] {
            let mut engine = PaEngine::new(&g, config);
            let inst =
                PaInstance::from_partition(&g, parts.clone(), values.clone(), Aggregate::Min)
                    .unwrap();
            let ours = engine
                .solve(parts.assignment(), &values, Aggregate::Min)
                .unwrap();
            let legacy = from_scratch(&inst, &config);
            assert_eq!(ours.aggregates, legacy.aggregates, "{config:?}");
            assert_eq!(ours.node_values, legacy.node_values);
            assert_eq!(ours.cost, legacy.cost, "first solve pays full setup");
            assert_eq!(ours.broadcast_cost, legacy.broadcast_cost);
        }
    }

    #[test]
    fn cache_hit_skips_setup() {
        let (g, parts, values) = grid_instance();
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        let first = engine
            .solve(parts.assignment(), &values, Aggregate::Sum)
            .unwrap();
        let second = engine
            .solve(parts.assignment(), &values, Aggregate::Sum)
            .unwrap();
        assert_eq!(first.aggregates, second.aggregates);
        // Hit: only the three wave phases are charged.
        assert_eq!(second.cost, second.broadcast_cost.repeated(3));
        assert!(second.cost.rounds < first.cost.rounds);
        assert!(second.cost.messages < first.cost.messages);
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.solves, 2);
        assert_eq!(stats.cached_partitions, 1);
    }

    #[test]
    fn fork_preserves_warm_artifacts_with_fresh_counters() {
        let (g, parts, values) = grid_instance();
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        let original = engine
            .solve(parts.assignment(), &values, Aggregate::Sum)
            .unwrap();
        let mut core = engine.into_core();

        // The replica starts with zeroed counters but the full warm
        // state: same cached partitions, no base cost to re-charge.
        let replica = core.fork();
        let fresh = replica.stats();
        assert_eq!((fresh.hits, fresh.misses, fresh.solves), (0, 0, 0));
        assert_eq!(fresh.cached_partitions, 1, "artifact cache cloned");
        assert_eq!(
            fresh.base_cost,
            CostReport::zero(),
            "stage 1 is never charged twice across a fork"
        );

        // A solve on the replica is a pure cache hit — fork rebuilt
        // nothing, so the hit-rate economics survive the split.
        let mut forked = PaEngine::from_core(&g, replica);
        let warm = forked
            .solve(parts.assignment(), &values, Aggregate::Sum)
            .unwrap();
        assert_eq!(warm.aggregates, original.aggregates);
        assert_eq!(warm.cost, warm.broadcast_cost.repeated(3));
        let after = forked.stats();
        assert_eq!((after.hits, after.misses), (1, 0));
        assert!((after.hit_rate() - 1.0).abs() < 1e-12);

        // Absorbing folds the replica's raw counters back into the
        // survivor without double-counting derived fields.
        let before = core.stats();
        core.absorb(forked.into_core());
        let merged = core.stats();
        assert_eq!(merged.hits, before.hits + 1);
        assert_eq!(merged.misses, before.misses);
        assert_eq!(merged.solves, before.solves + 1);
        assert_eq!(merged.cached_partitions, 1, "derived from live cache");
        assert_eq!(merged.base_cost, before.base_cost, "charged exactly once");
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let g = gen::grid(4, 12);
        let mut engine = PaEngine::new(&g, EngineConfig::new().cache_capacity(2));
        let values = vec![1u64; g.n()];
        let partitions: Vec<Partition> = (1..=3)
            .map(|rows| Partition::new(&g, (0..g.n()).map(|v| (v / 12) / rows).collect()).unwrap())
            .collect();
        for parts in &partitions {
            engine
                .solve(parts.assignment(), &values, Aggregate::Sum)
                .unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1, "capacity 2 evicts the LRU entry");
        assert_eq!(stats.cached_partitions, 2);
        // The evicted (least recently used) partition rebuilds; the most
        // recent one hits.
        engine
            .solve(partitions[2].assignment(), &values, Aggregate::Sum)
            .unwrap();
        assert_eq!(engine.stats().hits, 1);
        engine
            .solve(partitions[0].assignment(), &values, Aggregate::Sum)
            .unwrap();
        assert_eq!(engine.stats().misses, 4);
    }

    /// `k` value sets: `values` shifted by 0, 1, …, k − 1.
    fn value_sets(values: &[u64], k: u64) -> Vec<Vec<u64>> {
        (0..k)
            .map(|i| values.iter().map(|v| v + i).collect())
            .collect()
    }

    #[test]
    fn batch_charges_setup_once() {
        let (g, parts, values) = grid_instance();
        // Exact (rounds, messages) of the cold and the warm batch: the
        // cold one pays election + BFS + stages 2–4 once, and the waves
        // of either add 3(k − 1) rounds and k× messages to one solve's.
        for (k, cold, warm) in [
            (1, (243, 2753), (30, 198)),
            (4, (252, 3347), (39, 792)),
            (16, (288, 5723), (75, 3168)),
        ] {
            let sets = value_sets(&values, k);
            let mut engine = PaEngine::new(&g, EngineConfig::new());
            let batch = engine
                .solve_batch(parts.assignment(), &sets, Aggregate::Max)
                .unwrap();
            let again = engine
                .solve_batch(parts.assignment(), &sets, Aggregate::Max)
                .unwrap();
            assert_eq!(batch.aggregates, again.aggregates);
            assert_eq!((batch.cost.rounds, batch.cost.messages), cold, "k = {k}");
            assert_eq!((again.cost.rounds, again.cost.messages), warm, "k = {k}");
            let stats = engine.stats();
            assert_eq!((stats.hits, stats.misses, stats.solves), (1, 1, 2));
            assert_eq!(stats.batches, 2);
        }
    }

    #[test]
    fn batch_matches_individual_answers() {
        let g = gen::grid(6, 6);
        let parts = Partition::new(&g, gen::grid_row_partition(6, 6)).unwrap();
        let sets: Vec<Vec<u64>> = (0..5u64)
            .map(|i| (0..36u64).map(|v| (v * 7 + i * 13) % 97).collect())
            .collect();
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        let batch = engine
            .solve_batch(parts.assignment(), &sets, Aggregate::Max)
            .unwrap();
        for (i, vs) in sets.iter().enumerate() {
            for p in parts.part_ids() {
                let expect = Aggregate::Max.fold(parts.members(p).iter().map(|&v| vs[v]));
                assert_eq!(batch.aggregates[i][p], expect, "set {i} part {p}");
            }
        }
    }

    #[test]
    fn batching_beats_sequential_rounds() {
        let g = gen::grid(5, 20);
        let parts = Partition::new(&g, gen::grid_row_partition(5, 20)).unwrap();
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        let ones = vec![1u64; 100];
        engine
            .solve(parts.assignment(), &ones, Aggregate::Sum)
            .unwrap();
        // Warm from here on: both charge the waves only.
        let single = engine
            .solve(parts.assignment(), &ones, Aggregate::Sum)
            .unwrap();
        let k = 16usize;
        let batch = engine
            .solve_batch(parts.assignment(), &vec![ones; k], Aggregate::Sum)
            .unwrap();
        assert!(
            batch.cost.rounds < k * single.cost.rounds,
            "pipelined {} should beat sequential {}",
            batch.cost.rounds,
            k * single.cost.rounds
        );
        assert_eq!(batch.cost.messages, single.cost.messages * k as u64);
    }

    #[test]
    fn batch_rejects_a_short_value_set_before_counting() {
        let (g, parts, values) = grid_instance();
        let n = g.n();
        let mut sets = value_sets(&values, 3);
        sets[2].truncate(2);
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        for _ in 0..2 {
            // Cold first, then warm: no counter moves and nothing is
            // cached either way.
            let before = engine.stats();
            let err = engine
                .solve_batch(parts.assignment(), &sets, Aggregate::Min)
                .unwrap_err();
            assert_eq!(
                err,
                PaError::ValueCountMismatch {
                    expected: n,
                    got: 2
                }
            );
            assert_eq!(engine.stats(), before);
            engine
                .solve(parts.assignment(), &values, Aggregate::Min)
                .unwrap();
        }
        // A partition error wins over the bad set.
        let before = engine.stats();
        let err = engine
            .solve_batch(&[0; 3], &sets, Aggregate::Min)
            .unwrap_err();
        assert!(matches!(err, PaError::Partition(_)), "{err:?}");
        assert_eq!(engine.stats(), before);
    }

    #[test]
    fn pipeline_for_is_memoized() {
        let (g, parts, _) = grid_instance();
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        let budget = engine.pipeline_for(&parts).unwrap().block_budget;
        assert_eq!(engine.pipeline_for(&parts).unwrap().block_budget, budget);
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn pipeline_for_propagates_invalid_partitions() {
        let (g, _, _) = grid_instance();
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        // A part vector of the wrong length is a PaError, not an abort —
        // the engine (and any shard worker holding it) stays usable.
        let bad = Partition::new(&g, vec![0; 3]);
        assert!(bad.is_err(), "wrong-length partition never validates");
        let parts = Partition::new(&g, vec![0; g.n()]).unwrap();
        assert!(engine.pipeline_for(&parts).is_ok());
    }

    #[test]
    fn prewarmed_setup_is_charged_to_the_first_solve() {
        let (g, parts, values) = grid_instance();
        let mut cold = PaEngine::new(&g, EngineConfig::new());
        let baseline = cold
            .solve(parts.assignment(), &values, Aggregate::Min)
            .unwrap();
        // Pre-warming via pipeline_for must not make the setup vanish
        // from the session's accounting: the first solve that consumes
        // the entry still pays it.
        let mut warmed = PaEngine::new(&g, EngineConfig::new());
        let _ = warmed.pipeline_for(&parts).unwrap();
        let first = warmed
            .solve(parts.assignment(), &values, Aggregate::Min)
            .unwrap();
        assert_eq!(first.cost, baseline.cost, "setup charged exactly once");
        let second = warmed
            .solve(parts.assignment(), &values, Aggregate::Min)
            .unwrap();
        assert_eq!(second.cost, second.broadcast_cost.repeated(3));
    }

    #[test]
    fn stage1_is_lazy_for_division_only_sessions() {
        let g = gen::path(40);
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        let (_, cost) = engine.whole_graph_division(4);
        assert!(cost.messages > 0);
        // No solve or tree access happened: election + BFS never ran.
        assert_eq!(engine.stats().base_cost, CostReport::zero());
        // First tree access builds it.
        assert!(engine.tree().n() == 40);
        assert!(engine.stats().base_cost.messages > 0);
    }

    #[test]
    fn master_seed_follows_into_randomized_variant() {
        let cfg = EngineConfig::new().randomized(0).seed(42);
        assert_eq!(cfg.variant, Variant::Randomized { seed: 42 });
        assert_eq!(cfg.seed, 42);
        let det = EngineConfig::new().seed(42);
        assert_eq!(det.variant, Variant::Deterministic);
    }

    #[test]
    fn reweighted_session_shares_the_tree() {
        let g = gen::grid_weighted(5, 5, 2);
        let engine = PaEngine::new(&g, EngineConfig::new());
        let perturbed = g.reweighted(|_, w| w * 2 + 1);
        let mut derived = engine.for_reweighted(&perturbed);
        assert_eq!(derived.tree().root(), engine.tree().root());
        assert_eq!(derived.stats().base_cost, CostReport::zero());
        let parts = Partition::whole(&perturbed).unwrap();
        let res = derived
            .solve(parts.assignment(), &vec![1; perturbed.n()], Aggregate::Sum)
            .unwrap();
        assert_eq!(res.aggregates[0], 25);
    }

    #[test]
    #[should_panic(expected = "identical topology")]
    fn reweighted_rejects_different_topology() {
        let g = gen::grid(4, 4);
        let other = gen::path(16);
        let engine = PaEngine::new(&g, EngineConfig::new());
        let _ = engine.for_reweighted(&other);
    }

    #[test]
    fn whole_graph_division_is_cached() {
        let g = gen::path(48);
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        let (_, first_cost) = engine.whole_graph_division(4);
        assert!(first_cost.messages > 0, "miss charges the division");
        let (res, second_cost) = engine.whole_graph_division(4);
        assert!(res.division.num_subparts() > 1);
        assert_eq!(second_cost, CostReport::zero(), "hit is free");
        let stats = engine.stats();
        assert_eq!((stats.division_hits, stats.division_misses), (1, 1));
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "division memo has its own counters"
        );

        // The memo is LRU-bounded like the artifact cache: `capacity` more
        // thresholds push threshold 4 out, so asking again rebuilds it.
        let capacity = engine.config().cache_capacity;
        for completion in 5..5 + capacity {
            engine.whole_graph_division(completion);
        }
        let misses = engine.stats().division_misses;
        let mut fresh = PaEngine::new(&g, EngineConfig::new());
        let (expected, expected_cost) = fresh.whole_graph_division(4);
        let (res, cost) = engine.whole_graph_division(4);
        assert_eq!(res.division, expected.division);
        assert_eq!((res.iterations, cost), (expected.iterations, expected_cost));
        assert_eq!(engine.stats().division_misses, misses + 1, "evicted");
    }

    #[test]
    fn partition_fingerprint_is_the_specified_fnv1a() {
        // FNV-1a is fully specified: pin a value so any accidental change
        // to the hash (or to byte order) fails loudly. A stable cache key
        // is what makes cluster cost accounting reproducible across
        // toolchains.
        let fp = partition_fingerprint(&[0, 1, 1]);
        assert_eq!(fp, partition_fingerprint(&[0, 1, 1]));
        assert_ne!(fp, partition_fingerprint(&[0, 1, 2]));
        assert_eq!(partition_fingerprint(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(partition_fingerprint(&[0]), 0xa8c7_f832_281a_39c5);
    }

    /// The specified FNV-1a, one multiply per byte: the oracle the
    /// zero-byte-folding kernel must match bit for bit.
    fn fnv1a_bytewise(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = FNV_OFFSET;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    #[test]
    fn word_fingerprint_matches_the_bytewise_fnv1a() {
        // Every byte width: 0, 0xff, 0x100, 0xffff, 0x1_0000, …, 1 << 56,
        // u64::MAX — alone and in one stream.
        let mut widths = vec![0u64, u64::MAX];
        for k in 0..8 {
            widths.push(1u64 << (8 * k));
            widths.push(u64::MAX >> (64 - 8 * (k + 1)));
        }
        for &w in &widths {
            assert_eq!(word_fingerprint([w]), fnv1a_bytewise([w]), "{w:#x}");
        }
        assert_eq!(word_fingerprint(widths.clone()), fnv1a_bytewise(widths));
        // Seeded random streams of mixed widths.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xf1a);
        for len in 0..64 {
            let words: Vec<u64> = (0..len)
                .map(|_| rng.random::<u64>() >> rng.random_range(0..64u32))
                .collect();
            assert_eq!(word_fingerprint(words.clone()), fnv1a_bytewise(words));
        }
    }

    #[test]
    fn partition_and_graph_fingerprints_match_the_bytewise_fnv1a() {
        let bytewise_graph = |g: &Graph| {
            fnv1a_bytewise(
                std::iter::once(g.n() as u64)
                    .chain(g.edges().flat_map(|(_, u, v, w)| [u as u64, v as u64, w])),
            )
        };
        for g in [gen::random_connected(3000, 4500, 5), gen::grid(48, 48)] {
            assert_eq!(graph_fingerprint(&g), bytewise_graph(&g));
            for (target, seed) in [(1, 1), (24, 2), (300, 3), (g.n(), 4)] {
                let parts = gen::random_connected_partition(&g, target, seed);
                let assignment = parts.assignment();
                assert_eq!(
                    partition_fingerprint(assignment),
                    fnv1a_bytewise(assignment.iter().map(|&p| p as u64))
                );
            }
        }
        let weighted = gen::grid_weighted(12, 12, 42);
        assert_eq!(graph_fingerprint(&weighted), bytewise_graph(&weighted));
    }

    #[test]
    fn core_roundtrip_preserves_warm_state() {
        let (g, parts, values) = grid_instance();
        let mut engine = PaEngine::new(&g, EngineConfig::new());
        let first = engine
            .solve(parts.assignment(), &values, Aggregate::Min)
            .unwrap();
        // Park the session, rehydrate it, and keep solving: the cache,
        // tree, and counters all survive the trip through EngineCore.
        let core = engine.into_core();
        assert_eq!(core.stats().misses, 1);
        let mut engine = PaEngine::from_core(&g, core);
        let second = engine
            .solve(parts.assignment(), &values, Aggregate::Min)
            .unwrap();
        assert_eq!(first.aggregates, second.aggregates);
        assert_eq!(second.cost, second.broadcast_cost.repeated(3), "warm hit");
        assert_eq!(engine.stats().hits, 1);
    }

    #[test]
    #[should_panic(expected = "different graph")]
    fn core_rejects_rehydration_onto_another_graph() {
        let g = gen::grid(4, 4);
        let other = gen::path(16);
        let core = PaEngine::new(&g, EngineConfig::new()).into_core();
        let _ = PaEngine::from_core(&other, core);
    }

    // PaEngine/EngineCore Send-ness is pinned where it is relied on:
    // tests/cluster_serve.rs (the shard workers' contract) and the
    // congest-level const audit cover it.

    #[test]
    fn stats_merge_adds_counters() {
        let (g, parts, values) = grid_instance();
        let mut a = PaEngine::new(&g, EngineConfig::new());
        let mut b = PaEngine::new(&g, EngineConfig::new().seed(1));
        a.solve(parts.assignment(), &values, Aggregate::Min)
            .unwrap();
        a.solve(parts.assignment(), &values, Aggregate::Min)
            .unwrap();
        b.solve(parts.assignment(), &values, Aggregate::Max)
            .unwrap();
        let mut merged = a.stats();
        merged.merge(&b.stats());
        assert_eq!(merged.solves, 3);
        assert_eq!((merged.hits, merged.misses), (1, 2));
        assert_eq!(merged.cached_partitions, 2);
        assert_eq!(merged.base_cost, a.stats().base_cost + b.stats().base_cost);
        // The Display form carries the headline counters.
        let line = merged.to_string();
        assert!(line.contains("hits/misses/evictions 1/2/0"), "{line}");
        assert!(line.contains("3 solves"), "{line}");
    }
}
