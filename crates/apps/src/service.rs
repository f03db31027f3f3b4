//! `PaCluster` — a sharded, concurrent multi-graph serving layer.
//!
//! The paper's Theorem 1.2 infrastructure is reusable *per graph*; a
//! [`rmo_core::PaEngine`] captures that for one session. A service under
//! mixed traffic holds **many** graphs at once, so the cluster:
//!
//! * owns a fleet of registered graphs and batches each graph's queries
//!   into one **graph group** per batch (same-graph, then same-affinity
//!   queries back-to-back — see [`Query::affinity`] — maximizing warm
//!   cache hits without changing any answer);
//! * **places** groups on shards by one rule: it estimates each group's
//!   work ([`Query::weight`], superseded by observed demand history once
//!   a graph has served traffic) and runs an LPT assignment — heaviest
//!   group first, onto the least-loaded shard;
//! * optionally **splits** one hot graph's group across shards
//!   ([`ReplicaPolicy`], off by default): a group whose estimated work
//!   exceeds a threshold fraction of the mean per-shard load is cut
//!   into contiguous chunks, each riding its own fork of the graph's
//!   warmed engine ([`rmo_core::EngineCore::fork`] — stage-1 tree,
//!   artifact cache, and division memo cloned, counters fresh) and
//!   LPT-placed on a distinct shard; after the batch exactly one warm
//!   core is re-parked (lowest replica index) with every other
//!   replica's counters absorbed into it, and each fork is recorded as
//!   a [`ReplicaEvent`] in the batch's [`ServeLog`];
//! * serves the shards on `std::thread::scope` workers that stream
//!   responses back over an `mpsc` channel ([`PaCluster::serve`]); an
//!   **idle worker steals** whole parked graph groups from the most
//!   loaded shard's tail (legal because a group's
//!   [`rmo_core::EngineCore`] is `Send` and parked between groups),
//!   and every steal is recorded in an epoch log ([`ServeLog`]);
//! * replays any recorded final assignment deterministically on the
//!   calling thread ([`PaCluster::serve_replay`]), with
//!   [`PaCluster::serve_sequential`] as the no-steal reference replay —
//!   including the hash placement of every group on its graph's home
//!   shard, written as a log by [`PaCluster::home_placement`];
//! * parks each engine's warm state ([`rmo_core::EngineCore`]) between
//!   batches, so a follow-up batch on the same fleet starts hot.
//!
//! # Determinism contract
//!
//! Threaded and sequential serving produce **bit-identical** responses
//! and engine counters *regardless of placement or stealing*: a batch
//! has exactly one group per graph, the group's internal order is fixed
//! by the scheduler, and the group's engine travels with it — so which
//! shard executes a group can affect only wall-clock timing, never
//! results or per-query [`rmo_congest::CostReport`]s. On top of that,
//! [`PaCluster::serve_replay`] fed a threaded run's [`ServeLog`]
//! reproduces the identical *final assignment*, stolen groups included,
//! and the replay of a sequential run's log equals that run as a whole
//! [`ServeReport`]. The `tests/cluster_serve.rs` suite pins both levels.
//!
//! ```rust
//! use rmo_apps::service::{GraphId, PaCluster};
//! use rmo_apps::dispatch::Query;
//! use rmo_core::Aggregate;
//! use rmo_graph::gen;
//!
//! let mut cluster = PaCluster::new(2);
//! cluster.add_graph(GraphId(7), gen::grid(4, 4));
//! cluster.add_graph(GraphId(8), gen::path(12));
//! let rows = gen::grid_row_partition(4, 4);
//! let report = cluster.serve(&[
//!     (GraphId(7), Query::Pa {
//!         assignment: rows.clone(),
//!         values: (0..16).collect(),
//!         agg: Aggregate::Min,
//!     }),
//!     (GraphId(8), Query::Mst),
//!     (GraphId(7), Query::Pa {
//!         assignment: rows,
//!         values: (16..32).collect(),
//!         agg: Aggregate::Min,
//!     }),
//! ]);
//! assert!(report.responses.iter().all(|r| r.is_ok()));
//! // The two same-partition Pa queries were batched back-to-back:
//! assert_eq!(report.stats.engine.hits, 1);
//! // The log records where every group ran; replaying it on an equal
//! // cluster reproduces the batch bit-for-bit.
//! let replay = {
//!     let mut fresh = PaCluster::new(2);
//!     fresh.add_graph(GraphId(7), gen::grid(4, 4));
//!     fresh.add_graph(GraphId(8), gen::path(12));
//!     fresh.serve_replay(&[
//!         (GraphId(7), Query::Pa {
//!             assignment: gen::grid_row_partition(4, 4),
//!             values: (0..16).collect(),
//!             agg: Aggregate::Min,
//!         }),
//!         (GraphId(8), Query::Mst),
//!         (GraphId(7), Query::Pa {
//!             assignment: gen::grid_row_partition(4, 4),
//!             values: (16..32).collect(),
//!             agg: Aggregate::Min,
//!         }),
//!     ], &report.log)
//! };
//! assert_eq!(replay.responses, report.responses);
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::{mpsc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rmo_graph::{gen, Graph};

use rmo_core::{
    word_fingerprint, Aggregate, EngineConfig, EngineCore, EngineStats, PaEngine, PaError,
};

use crate::dispatch::{run_query, FailReason, Query, QueryResponse, VerifyCheck};

/// The cluster-wide name of a registered graph. Its stable FNV-1a hash
/// names the graph's home shard ([`PaCluster::shard_of`]), so ids
/// chosen by the caller — database keys, tenant ids — spread over
/// shards without coordination; serving places groups by estimated
/// work instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraphId(pub u64);

impl fmt::Display for GraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A registered graph: the topology plus the engine profile its
/// sessions run with.
struct GraphSlot {
    graph: Graph,
    config: EngineConfig,
}

/// One recorded steal: during a threaded batch, the idle worker `to`
/// took graph `graph`'s whole group from shard `from`'s queue tail.
/// `epoch` is the global steal sequence number within the batch
/// (steals are totally ordered by the scheduler lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealEvent {
    /// Position in the batch's global steal order (0-based).
    pub epoch: u64,
    /// The stolen graph group.
    pub graph: GraphId,
    /// The shard it was queued on.
    pub from: usize,
    /// The worker that took and executed it.
    pub to: usize,
}

/// How the planner splits one hot graph's group across shards (see
/// the replica-scheduling paragraph in the module docs).
///
/// A group is eligible when its estimated work exceeds
/// `threshold × mean per-shard load` of the batch, the graph's engine
/// is already warm (forking a cold core would just build stage 1
/// twice), and the group holds more than one query. An eligible group
/// is cut into up to `max_replicas` contiguous chunks (never more than
/// there are shards or queries), each riding a fork of the warmed
/// [`EngineCore`] and LPT-placed on a distinct shard.
///
/// The default is [`ReplicaPolicy::disabled`]: splitting is strictly
/// opt-in, so existing single-group placement behavior is unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaPolicy {
    /// Split when a group's estimated work exceeds this multiple of
    /// the batch's mean per-shard load.
    pub threshold: f64,
    /// Upper bound on chunks per graph (`1` disables splitting).
    pub max_replicas: usize,
}

impl Default for ReplicaPolicy {
    fn default() -> ReplicaPolicy {
        ReplicaPolicy::disabled()
    }
}

impl ReplicaPolicy {
    /// Replica scheduling off: no group is ever split (the default).
    pub fn disabled() -> ReplicaPolicy {
        ReplicaPolicy {
            threshold: f64::INFINITY,
            max_replicas: 1,
        }
    }

    /// Split groups heavier than `threshold × mean shard load` into up
    /// to `max_replicas` chunks.
    ///
    /// # Panics
    /// Panics if `max_replicas` is zero or `threshold` is not positive.
    pub fn new(threshold: f64, max_replicas: usize) -> ReplicaPolicy {
        assert!(max_replicas >= 1, "a group is at least one chunk");
        assert!(threshold > 0.0, "a non-positive threshold splits noise");
        ReplicaPolicy {
            threshold,
            max_replicas,
        }
    }
}

/// One recorded fork: the planner split `graph`'s group into
/// `replicas` contiguous chunks, initially placed on `shards`
/// (indexed by replica; steals may move chunks afterwards, like any
/// group). Events land in [`ServeLog::forks`] in plan order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaEvent {
    /// The split graph.
    pub graph: GraphId,
    /// How many chunks the group was cut into (≥ 2).
    pub replicas: usize,
    /// The initial (pre-steal) shard of each chunk, indexed by replica;
    /// all distinct.
    pub shards: Vec<usize>,
}

/// The placement record of one batch: where every graph group actually
/// executed, plus the steal events that moved groups off their initial
/// LPT shard. Feeding a log back through [`PaCluster::serve_replay`]
/// reproduces the identical final assignment — the cluster's
/// determinism contract extended over stealing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeLog {
    /// Per shard, the graph groups it executed, in execution order.
    pub assignments: Vec<Vec<GraphId>>,
    /// Aligned with `assignments`: the replica index of each executed
    /// chunk (`0` for unsplit groups). Hand-built or hand-edited logs
    /// may leave entries out; a missing index replays as replica 0.
    pub replica_indices: Vec<Vec<usize>>,
    /// Every steal, in epoch order (empty for sequential runs and
    /// replays).
    pub steals: Vec<StealEvent>,
    /// Every planner fork of this batch, in plan order.
    pub forks: Vec<ReplicaEvent>,
}

/// Aggregated cluster counters: the whole fleet's engine economics plus
/// lifetime steal, fork and replica-run counts. Every field is
/// deterministic except `steals`, which counts threaded run-time steals;
/// where each group of a batch ran is the batch's [`ServeLog`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Queries served over the cluster lifetime.
    pub queries: u64,
    /// Queries that returned [`QueryResponse::Failed`].
    pub failed: u64,
    /// The cluster's shard count.
    pub shards: usize,
    /// Graph groups stolen across shards over the cluster lifetime
    /// (nonzero only for threaded serving).
    pub steals: u64,
    /// [`rmo_core::EngineCore::fork`] calls over the cluster lifetime
    /// (replica engines created by the planner).
    pub forks: u64,
    /// Replica chunks executed over the cluster lifetime (a split into
    /// `k` chunks counts `k`).
    pub replicas: u64,
    /// Graphs with a live (warm) engine.
    pub warm_graphs: usize,
    /// Every engine's counters, merged ([`EngineStats::merge`]).
    pub engine: EngineStats,
}

impl fmt::Display for ClusterStats {
    /// One-line fleet summary, e.g.
    /// `42 queries (0 failed) on 6 warm graphs over 4 shards, 2 stolen, 3 forks/4 replica runs | hits/misses/evictions 18/12/0 (60.0% hit), …`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} queries ({} failed) on {} warm graphs over {} shards, {} stolen, \
             {} forks/{} replica runs | {}",
            self.queries,
            self.failed,
            self.warm_graphs,
            self.shards,
            self.steals,
            self.forks,
            self.replicas,
            self.engine,
        )
    }
}

/// The outcome of one [`PaCluster::serve`] batch. Only a threaded run's
/// steals (the events, the placement they moved, and the lifetime
/// `stats.steals`) depend on timing, so a sequential run and the replay
/// of its log compare `==`. Wall time is the caller's to measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// One response per submitted query, in submission order.
    pub responses: Vec<QueryResponse>,
    /// Cluster counters after this batch (lifetime).
    pub stats: ClusterStats,
    /// Where every graph group executed (feed back through
    /// [`PaCluster::serve_replay`] to reproduce the placement).
    pub log: ServeLog,
}

/// What `std::thread::JoinHandle::join` / `catch_unwind` hand back from
/// a panicking shard.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One graph's whole slice of a batch: every query index for the graph
/// (affinity-batched, execution order), the group's estimated work, and
/// the graph's parked warm engine if it has one. Groups are the unit of
/// placement *and* of stealing — an `EngineCore` is `Send` and parked
/// between groups, so a group can hop shards without any engine state
/// being shared across threads.
struct Group {
    id: GraphId,
    indices: Vec<usize>,
    weight: u64,
    core: Option<EngineCore>,
    /// Which chunk of a split group this is (`0` for unsplit groups —
    /// and for the chunk that will survive as the re-parked core).
    replica: usize,
    /// Total chunks the graph's group was cut into this batch (`1`
    /// when unsplit).
    replicas: usize,
}

/// The shared scheduler state of one running batch, behind one mutex:
/// per-shard group queues, their remaining (stealable) work, the epoch
/// log, and everything workers bank as groups finish. Lock hold times
/// are queue operations only — all serving happens outside the lock.
struct SchedState {
    queues: Vec<VecDeque<Group>>,
    /// Queued (not yet in-flight) weight per shard — what victim
    /// selection compares.
    loads: Vec<u64>,
    steals: Vec<StealEvent>,
    /// Execution order per shard: the final assignment the log records.
    assignments: Vec<Vec<GraphId>>,
    /// Replica index per executed chunk, aligned with `assignments`.
    replica_indices: Vec<Vec<usize>>,
    /// Warm cores banked as each group finishes, tagged with their
    /// replica index (survives worker panics in *other* groups).
    finished: Vec<(GraphId, usize, EngineCore)>,
}

impl SchedState {
    fn new(shard_groups: Vec<Vec<Group>>) -> SchedState {
        let shards = shard_groups.len();
        let loads = shard_groups
            .iter()
            .map(|groups| groups.iter().map(|g| g.weight).fold(0, u64::saturating_add))
            .collect();
        SchedState {
            queues: shard_groups.into_iter().map(VecDeque::from).collect(),
            loads,
            steals: Vec::new(),
            assignments: vec![Vec::new(); shards],
            replica_indices: vec![Vec::new(); shards],
            finished: Vec::new(),
        }
    }

    /// Records that `worker` executes `group`: the final assignment and
    /// the aligned replica index. Shared by the pop and steal paths of
    /// [`SchedState::next_group`].
    fn note_executed(&mut self, worker: usize, group: &Group) {
        if let (Some(ids), Some(indices)) = (
            self.assignments.get_mut(worker),
            self.replica_indices.get_mut(worker),
        ) {
            ids.push(group.id);
            indices.push(group.replica);
        }
    }

    /// The next group `worker` should execute: its own queue's front,
    /// or — when `steal` and its queue is drained — the tail of the
    /// most loaded shard's queue (ties to the lowest shard index; the
    /// tail is the lightest end under LPT ordering, minimizing
    /// disturbance). Steals are recorded in epoch order. `None` means
    /// the worker is done.
    fn next_group(&mut self, worker: usize, steal: bool) -> Option<Group> {
        if let Some(group) = self.queues.get_mut(worker).and_then(VecDeque::pop_front) {
            if let Some(load) = self.loads.get_mut(worker) {
                *load = load.saturating_sub(group.weight);
            }
            self.note_executed(worker, &group);
            return Some(group);
        }
        if !steal {
            return None;
        }
        let victim = self
            .queues
            .iter()
            .enumerate()
            .filter(|&(s, queue)| s != worker && !queue.is_empty())
            .map(|(s, _)| s)
            .max_by_key(|&s| (self.loads.get(s).copied(), std::cmp::Reverse(s)))?;
        let group = self.queues.get_mut(victim)?.pop_back()?;
        if let Some(load) = self.loads.get_mut(victim) {
            *load = load.saturating_sub(group.weight);
        }
        self.steals.push(StealEvent {
            epoch: self.steals.len() as u64,
            graph: group.id,
            from: victim,
            to: worker,
        });
        self.note_executed(worker, &group);
        Some(group)
    }
}

/// Locks `state`, shrugging off poison: workers only panic *outside*
/// lock sections (while serving queries), so the state is consistent
/// even after a poisoned flag.
fn lock(state: &Mutex<SchedState>) -> std::sync::MutexGuard<'_, SchedState> {
    state.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Rearranges a batch's planned groups into a previously recorded
/// final assignment, or `None` when the log does not fit the batch: a
/// different shard count, a group it names that this batch lacks, or a
/// group of this batch it leaves out.
fn apply_log(shard_groups: Vec<Vec<Group>>, log: &ServeLog) -> Option<Vec<Vec<Group>>> {
    if log.assignments.len() != shard_groups.len() {
        return None;
    }
    let mut pool: BTreeMap<(GraphId, usize), Group> = shard_groups
        .into_iter()
        .flatten()
        .map(|group| ((group.id, group.replica), group))
        .collect();
    let mut out = Vec::with_capacity(log.assignments.len());
    for (shard, ids) in log.assignments.iter().enumerate() {
        let mut queue = Vec::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            // Hand-built logs may omit replica indices; a missing entry
            // replays as replica 0 (always the right answer for unsplit
            // groups).
            let replica = log
                .replica_indices
                .get(shard)
                .and_then(|v| v.get(i))
                .copied()
                .unwrap_or(0);
            queue.push(pool.remove(&(*id, replica))?);
        }
        out.push(queue);
    }
    pool.is_empty().then_some(out)
}

/// Each shard's batch-local query indices in queue order: the pre-steal
/// plan that [`PaCluster::planned_execution`] reports.
fn planned_indices(shard_groups: &[Vec<Group>]) -> Vec<Vec<usize>> {
    shard_groups
        .iter()
        .map(|groups| groups.iter().flat_map(|g| &g.indices).copied().collect())
        .collect()
}

/// Numerator/denominator of the per-batch demand decay: every batch,
/// each graph's history keeps 3/4 of its mass before absorbing the new
/// observations at full weight, making the weight estimate an EWMA with
/// an effective window of ~4 batches. Integer math, so the decay is
/// bit-identical on every platform and serving mode.
const DEMAND_DECAY_NUM: u64 = 3;
const DEMAND_DECAY_DEN: u64 = 4;

/// Deterministic per-graph demand history: observed serving work
/// (rounds + messages of every response), which supersedes the a-priori
/// [`Query::weight`] estimate once a graph has traffic. Responses are
/// deterministic, so both serving modes accumulate identical history.
///
/// The window **decays**: each batch ages every graph's accumulators by
/// [`DEMAND_DECAY_NUM`]`/`[`DEMAND_DECAY_DEN`] before new observations
/// land, so a drifting workload (a graph whose queries got cheaper, or
/// a graph that went cold) stops steering LPT placement with stale
/// weights — a graph with no recent traffic decays back to the a-priori
/// estimate entirely.
#[derive(Debug, Clone, Copy, Default)]
struct GroupHistory {
    queries: u64,
    work: u64,
}

impl GroupHistory {
    /// Ages the window by one batch. Both accumulators shrink by the
    /// same factor, so the mean work per query is preserved; only the
    /// window's *mass* (its resistance to new evidence) fades.
    fn decay(&mut self) {
        // rmo-lint: allow(R1) — DEMAND_DECAY_DEN is the constant 4
        self.queries = self.queries * DEMAND_DECAY_NUM / DEMAND_DECAY_DEN;
        // rmo-lint: allow(R1) — DEMAND_DECAY_DEN is the constant 4
        self.work = self.work * DEMAND_DECAY_NUM / DEMAND_DECAY_DEN;
    }

    /// Records one served query's deterministic cost.
    fn observe(&mut self, work: u64) {
        self.queries += 1;
        self.work += work;
    }

    /// Mean observed work per query, if the window still holds traffic.
    fn mean_work(&self) -> Option<u64> {
        (self.queries > 0).then(|| (self.work / self.queries).max(1))
    }

    /// Whether the window has fully decayed (entry should be dropped).
    fn is_spent(&self) -> bool {
        self.queries == 0
    }
}

/// Which execution engine a batch runs on. Crate-visible so the
/// streaming front-end ([`crate::stream::StreamGateway`]) can drive the
/// same batch lifecycle as the public `serve*` entry points.
pub(crate) enum ExecMode<'a> {
    /// One scoped worker per shard, stealing enabled.
    Threaded,
    /// Shard by shard on the calling thread, no steals.
    Sequential,
    /// Shard by shard on the calling thread, groups pre-placed by a
    /// recorded [`ServeLog`].
    Replay(&'a ServeLog),
}

/// A per-response streaming hook: called with `(batch-local index,
/// response)` the moment each response exists — from the collector as
/// worker groups finish in the threaded mode, in execution order on the
/// calling thread otherwise, and up front for plan-time failures. The
/// response still lands in the batch's [`ServeReport`] afterwards; the
/// hook is how the streaming front-end pushes responses to clients
/// before the batch completes.
pub(crate) type ResponseHook<'a> = &'a mut dyn FnMut(usize, &QueryResponse);

/// A sharded worker pool owning one [`PaEngine`] session per registered
/// graph (see the module docs for the full serving story).
pub struct PaCluster {
    shards: usize,
    /// When (and how far) the planner splits hot groups into replica
    /// chunks. Disabled by default.
    replica_policy: ReplicaPolicy,
    /// `BTreeMap` so every iteration order is deterministic.
    slots: BTreeMap<GraphId, GraphSlot>,
    /// Parked warm engine state, keyed like `slots`. Engines are built
    /// lazily: a graph that never sees a query never pays election+BFS.
    cores: BTreeMap<GraphId, EngineCore>,
    /// Observed per-graph demand (drives LPT group weights).
    /// Decays every batch (see [`GroupHistory`]), so drifting workloads
    /// don't steer LPT placement with stale weights.
    history: BTreeMap<GraphId, GroupHistory>,
    /// Lifetime query counters (engine stats live in `cores`).
    served: u64,
    failed: u64,
    stolen_total: u64,
    forks_total: u64,
    replicas_total: u64,
}

impl PaCluster {
    /// A cluster with `shards` worker threads, no graphs yet, and
    /// replica scheduling off.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> PaCluster {
        assert!(shards > 0, "a cluster needs at least one shard");
        PaCluster {
            shards,
            replica_policy: ReplicaPolicy::disabled(),
            slots: BTreeMap::new(),
            cores: BTreeMap::new(),
            history: BTreeMap::new(),
            served: 0,
            failed: 0,
            stolen_total: 0,
            forks_total: 0,
            replicas_total: 0,
        }
    }

    /// Switches the replica policy for subsequent batches. Always safe:
    /// splitting moves *where* queries execute (and which fork of a warm
    /// engine serves them), never what they answer.
    pub fn set_replica_policy(&mut self, policy: ReplicaPolicy) {
        self.replica_policy = policy;
    }

    /// Registers `graph` under `id` with the default (deterministic)
    /// engine profile, panicking where the checked `register` below
    /// returns an error.
    ///
    /// # Panics
    /// Panics if `id` is already registered or the graph is empty or
    /// disconnected (the CONGEST network is one component).
    pub fn add_graph(&mut self, id: GraphId, graph: Graph) {
        self.register(id, graph, EngineConfig::new())
            .unwrap_or_else(|e| panic!("graph {id} rejected: {e}"));
    }

    /// Registers `graph` under `id`, validating it and its config **once**
    /// for the session's whole lifetime: the graph must be non-empty and
    /// connected (the CONGEST network is one component), and the
    /// artifact cache must hold at least one partition. Downstream
    /// engine construction and [`PaEngine::pipeline_for`] then never
    /// trip over a bad fleet entry mid-batch.
    ///
    /// # Errors
    /// [`PaError::Disconnected`] for an empty or disconnected graph;
    /// [`PaError::ZeroCacheCapacity`] for a `config` whose
    /// `cache_capacity` is zero (the fields are public, so the builder's
    /// own check can be bypassed).
    ///
    /// # Panics
    /// Panics if `id` is already registered (a programmer error, unlike
    /// a bad graph, which may come from data).
    fn register(&mut self, id: GraphId, graph: Graph, config: EngineConfig) -> Result<(), PaError> {
        if graph.n() == 0 || !graph.is_connected() {
            return Err(PaError::Disconnected);
        }
        if config.cache_capacity == 0 {
            return Err(PaError::ZeroCacheCapacity);
        }
        let prev = self.slots.insert(id, GraphSlot { graph, config });
        assert!(prev.is_none(), "graph {id} registered twice");
        Ok(())
    }

    /// The home shard of `id`: a stable hash of the id, so the mapping
    /// survives restarts and is identical on every platform (the hash
    /// consumes the full `u64` id — no `usize` round trip). Stream
    /// admission charges each query to its graph's home shard, and
    /// [`PaCluster::home_placement`] places every group there; serving
    /// itself places by estimated work.
    // `x % shards` is < shards, which is a `usize`: no truncation.
    #[allow(clippy::cast_possible_truncation)]
    pub fn shard_of(&self, id: GraphId) -> usize {
        // `shards ≥ 1` (`PaCluster::new` asserts it), so the `0` is never taken.
        word_fingerprint([id.0])
            .checked_rem(self.shards as u64)
            .unwrap_or(0) as usize
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The registered graph ids, in sorted order.
    pub fn graph_ids(&self) -> Vec<GraphId> {
        self.slots.keys().copied().collect()
    }

    /// The registered graph under `id`, if any.
    pub fn graph(&self, id: GraphId) -> Option<&Graph> {
        self.slots.get(&id).map(|s| &s.graph)
    }

    /// Current cluster counters (lifetime queries + all warm engines).
    pub fn stats(&self) -> ClusterStats {
        let mut engine = EngineStats::default();
        // BTreeMap-ordered graph walk: deterministic merge order.
        for id in self.slots.keys() {
            if let Some(core) = self.cores.get(id) {
                engine.merge(&core.stats());
            }
        }
        ClusterStats {
            queries: self.served,
            failed: self.failed,
            shards: self.shards,
            steals: self.stolen_total,
            forks: self.forks_total,
            replicas: self.replicas_total,
            warm_graphs: self.cores.len(),
            engine,
        }
    }

    /// A group's work estimate: observed demand history when the graph
    /// has served traffic (mean work × query count), otherwise the
    /// a-priori [`Query::weight`] sum. Never zero, so LPT ties stay
    /// well-defined; saturating, because a hostile query's weight is
    /// already `u64::MAX`.
    fn group_weight(&self, id: GraphId, indices: &[usize], queries: &[(GraphId, Query)]) -> u64 {
        match self.history.get(&id).and_then(GroupHistory::mean_work) {
            Some(mean) => mean.saturating_mul(indices.len() as u64),
            // The planner groups only registered graphs' in-range indices,
            // so both lookups always hit.
            None => {
                let (n, m) = self
                    .slots
                    .get(&id)
                    .map_or((0, 0), |slot| (slot.graph.n(), slot.graph.m()));
                indices
                    .iter()
                    .filter_map(|&idx| queries.get(idx))
                    .map(|(_, query)| query.weight(n, m))
                    .fold(0, u64::saturating_add)
                    .max(1)
            }
        }
    }

    /// How many chunks the planner cuts `group` into: 1 (no split)
    /// unless replica scheduling is enabled, the graph's engine is
    /// warm (forking a cold core would rebuild stage 1 twice for
    /// nothing), the group holds more than one query, and its
    /// estimated work clears `threshold × mean_load` — then the
    /// configured cap, bounded by the shard count (every chunk gets a
    /// distinct shard) and the query count (every chunk gets work).
    fn replica_fanout(&self, group: &Group, mean_load: u64) -> usize {
        let policy = self.replica_policy;
        if policy.max_replicas <= 1
            || !self.cores.contains_key(&group.id)
            || group.indices.len() <= 1
        {
            return 1;
        }
        // f64 comparison: the disabled threshold (∞) never splits, and
        // integer weights stay exact far past any realistic batch.
        if group.weight as f64 <= policy.threshold * mean_load as f64 {
            return 1;
        }
        policy
            .max_replicas
            .min(self.shards)
            .min(group.indices.len())
    }

    /// Builds the batch plan: one [`Group`] per referenced graph
    /// (first-appearance order; affinity classes batched inside, in
    /// first-appearance order with submission order inside a class),
    /// hot groups split into replica chunks per [`ReplicaPolicy`],
    /// placed by LPT. Queries naming unregistered graphs are answered
    /// immediately with [`QueryResponse::Failed`] instead of scheduling
    /// (or panicking) — one bad query never kills a batch.
    #[allow(clippy::type_complexity)]
    fn plan(
        &self,
        queries: &[(GraphId, Query)],
    ) -> (
        Vec<Vec<Group>>,
        Vec<Option<QueryResponse>>,
        Vec<ReplicaEvent>,
    ) {
        let mut responses: Vec<Option<QueryResponse>> = vec![None; queries.len()];
        let mut order: Vec<GraphId> = Vec::new();
        let mut by_graph: BTreeMap<GraphId, Vec<usize>> = BTreeMap::new();
        for (idx, ((id, _), response)) in queries.iter().zip(responses.iter_mut()).enumerate() {
            if !self.slots.contains_key(id) {
                *response = Some(QueryResponse::Failed(FailReason::UnregisteredGraph {
                    id: id.0,
                }));
                continue;
            }
            by_graph
                .entry(*id)
                .or_insert_with(|| {
                    order.push(*id);
                    Vec::new()
                })
                .push(idx);
        }
        let groups: Vec<Group> = order
            .into_iter()
            .map(|id| {
                // `order` records exactly the first appearance of every
                // `by_graph` key, so the entry is always present; an empty
                // group (no indices) would simply serve no queries.
                let indices = by_graph.remove(&id).unwrap_or_default();
                // One affinity per query: rank the classes by first
                // appearance, then sort on the cached rank. The sort is
                // stable, so submission order survives within a class.
                let mut class_rank: BTreeMap<u64, usize> = BTreeMap::new();
                let mut ranked: Vec<(usize, usize)> = indices
                    .into_iter()
                    .filter_map(|idx| queries.get(idx).map(|(_, query)| (idx, query)))
                    .map(|(idx, query)| {
                        let next = class_rank.len();
                        let rank = *class_rank.entry(query.affinity()).or_insert(next);
                        (rank, idx)
                    })
                    .collect();
                ranked.sort_by_key(|&(rank, _)| rank);
                let indices: Vec<usize> = ranked.into_iter().map(|(_, idx)| idx).collect();
                let weight = self.group_weight(id, &indices, queries);
                Group {
                    id,
                    indices,
                    weight,
                    core: None,
                    replica: 0,
                    replicas: 1,
                }
            })
            .collect();

        // Replica pass: cut each hot group into contiguous chunks, one
        // fork of the warmed engine per chunk ([`replica_fanout`] is 1
        // for everything unless the policy is enabled). Runs before the
        // LPT sort, in first-appearance order, so the fork record is
        // deterministic in the (workload, history) pair.
        let total = groups
            .iter()
            .map(|group| group.weight)
            .fold(0, u64::saturating_add);
        let mean_load = total.checked_div(self.shards as u64).unwrap_or(0).max(1);
        let mut forks: Vec<ReplicaEvent> = Vec::new();
        let mut chunked: Vec<Group> = Vec::with_capacity(groups.len());
        for mut group in groups {
            let k = self.replica_fanout(&group, mean_load);
            if k <= 1 {
                chunked.push(group);
                continue;
            }
            forks.push(ReplicaEvent {
                graph: group.id,
                replicas: k,
                shards: vec![0; k],
            });
            let indices = std::mem::take(&mut group.indices);
            let len = indices.len();
            for replica in 0..k {
                // Contiguous boundaries by integer interpolation: chunk
                // sizes differ by at most one and the affinity-batched
                // order is preserved inside each chunk.
                let start = (replica * len).checked_div(k).unwrap_or(0);
                let end = ((replica + 1) * len).checked_div(k).unwrap_or(0);
                let chunk: Vec<usize> = indices.get(start..end).unwrap_or_default().to_vec();
                let weight = group
                    .weight
                    .saturating_mul(chunk.len() as u64)
                    .checked_div(len as u64)
                    .unwrap_or(1)
                    .max(1);
                chunked.push(Group {
                    id: group.id,
                    indices: chunk,
                    weight,
                    core: None,
                    replica,
                    replicas: k,
                });
            }
        }
        let mut groups = chunked;

        let mut shard_groups: Vec<Vec<Group>> = (0..self.shards).map(|_| Vec::new()).collect();
        // Where each split chunk landed, for the fork record and the
        // distinct-shard constraint below.
        let mut chunk_shards: BTreeMap<(GraphId, usize), usize> = BTreeMap::new();
        // LPT: heaviest first (stable sort keeps first-appearance order
        // among equal weights), each onto the least-loaded shard, ties
        // to the lowest index. Deterministic in the (workload, history)
        // pair.
        groups.sort_by_key(|group| std::cmp::Reverse(group.weight));
        let mut loads = vec![0u64; self.shards];
        for group in groups {
            // Least-loaded shard, ties to the lowest index (the first
            // minimum). Chunks of one split graph must land on distinct
            // shards, so the shards its siblings already took are
            // masked out (fanout ≤ shards guarantees one remains).
            let taken: Vec<usize> = chunk_shards
                .range((group.id, 0)..=(group.id, usize::MAX))
                .map(|(_, &shard)| shard)
                .collect();
            let shard = loads
                .iter()
                .enumerate()
                .filter(|(s, _)| !taken.contains(s))
                .min_by_key(|&(_, &load)| load)
                .map_or(0, |(s, _)| s);
            if group.replicas > 1 {
                chunk_shards.insert((group.id, group.replica), shard);
            }
            if let Some(load) = loads.get_mut(shard) {
                *load = load.saturating_add(group.weight);
            }
            // `shard` indexes `loads`, which has one entry per shard.
            if let Some(queue) = shard_groups.get_mut(shard) {
                queue.push(group);
            }
        }
        for event in &mut forks {
            event.shards = (0..event.replicas)
                .map(|replica| {
                    chunk_shards
                        .get(&(event.graph, replica))
                        .copied()
                        .unwrap_or(0)
                })
                .collect();
        }
        (shard_groups, responses, forks)
    }

    /// One worker's serving loop: pull groups off the shared scheduler
    /// (stealing when allowed and idle), rehydrate or build each
    /// group's engine, dispatch its queries in order, and bank the warm
    /// core back as soon as the group finishes.
    ///
    /// Panics are contained **per group**: a poisoned query costs its
    /// own group's in-flight engine and the group's remaining queries,
    /// and the worker keeps serving. This keeps the set of served
    /// groups — and therefore every engine counter and the demand
    /// history — independent of placement and steal timing even when a
    /// batch panics; the first payload is returned for re-raising.
    fn run_worker(
        shard: usize,
        steal: bool,
        state: &Mutex<SchedState>,
        slots: &BTreeMap<GraphId, GraphSlot>,
        queries: &[(GraphId, Query)],
        emit: &mut dyn FnMut(usize, QueryResponse),
    ) -> Option<PanicPayload> {
        let mut first_panic: Option<PanicPayload> = None;
        loop {
            let next = lock(state).next_group(shard, steal);
            let Some(mut group) = next else { break };
            // Groups exist only for registered graphs.
            let Some(slot) = slots.get(&group.id) else {
                continue;
            };
            // Responses written before a panic are kept (each response
            // slot is set at most once), so the emit closure is
            // unwind-safe in both serving modes.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut engine = match group.core.take() {
                    Some(core) => PaEngine::from_core(&slot.graph, core),
                    None => PaEngine::new(&slot.graph, slot.config),
                };
                for &idx in &group.indices {
                    if let Some((_, query)) = queries.get(idx) {
                        emit(idx, run_query(&mut engine, query));
                    }
                }
                engine.into_core()
            }));
            match result {
                Ok(core) => lock(state).finished.push((group.id, group.replica, core)),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        first_panic
    }

    /// Runs every worker concurrently (one scoped thread per shard,
    /// stealing when idle), streaming `(index, response)` pairs back
    /// over an `mpsc` channel while the calling thread collects. Panics
    /// contained by the workers come back as payloads instead of
    /// poisoning the batch.
    fn run_threaded(
        slots: &BTreeMap<GraphId, GraphSlot>,
        state: &Mutex<SchedState>,
        shards: usize,
        queries: &[(GraphId, Query)],
        responses: &mut [Option<QueryResponse>],
        mut hook: Option<ResponseHook<'_>>,
    ) -> Vec<PanicPayload> {
        let mut panics = Vec::new();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, QueryResponse)>();
            let handles: Vec<_> = (0..shards)
                .map(|shard| {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        let mut emit = |idx: usize, resp: QueryResponse| {
                            // The collector drains until every sender
                            // drops, so a send only fails if the batch is
                            // already unwinding — dropping the response
                            // then degrades that query to `Failed`.
                            let _ = tx.send((idx, resp));
                        };
                        Self::run_worker(shard, true, state, slots, queries, &mut emit)
                    })
                })
                .collect();
            drop(tx);
            // Every worker eventually drops its sender (group panics are
            // contained inside run_worker), so the drain terminates. The
            // hook runs on the collecting thread, so streaming callers
            // see responses the moment a worker produces them.
            for (idx, resp) in rx {
                if let Some(h) = hook.as_mut() {
                    h(idx, &resp);
                }
                if let Some(slot) = responses.get_mut(idx) {
                    *slot = Some(resp);
                }
            }
            panics = handles
                .into_iter()
                .filter_map(|h| match h.join() {
                    Ok(contained) => contained,
                    Err(payload) => Some(payload),
                })
                .collect();
        });
        panics
    }

    /// Runs every worker on the calling thread, in shard order, no
    /// stealing — the deterministic reference executor, with the same
    /// per-group panic containment as the threaded mode.
    fn run_on_caller(
        slots: &BTreeMap<GraphId, GraphSlot>,
        state: &Mutex<SchedState>,
        shards: usize,
        queries: &[(GraphId, Query)],
        responses: &mut [Option<QueryResponse>],
        mut hook: Option<ResponseHook<'_>>,
    ) -> Vec<PanicPayload> {
        let mut panics = Vec::new();
        for shard in 0..shards {
            let hook = &mut hook;
            let mut emit = |idx: usize, resp: QueryResponse| {
                if let Some(h) = hook.as_mut() {
                    h(idx, &resp);
                }
                if let Some(slot) = responses.get_mut(idx) {
                    *slot = Some(resp);
                }
            };
            if let Some(payload) = Self::run_worker(shard, false, state, slots, queries, &mut emit)
            {
                panics.push(payload);
            }
        }
        panics
    }

    /// The shared batch lifecycle every serving mode runs: plan, check
    /// out parked cores into their groups, execute (the one step that
    /// differs), bank everything back, update demand history. Keeping
    /// this in one place is part of the determinism story — no mode can
    /// drift from another's bookkeeping. Returns the report and the
    /// pre-steal plan ([`PaCluster::planned_execution`]), which the
    /// streaming front-end models completion ticks against.
    ///
    /// A replay log that does not fit the batch runs nothing and leaves
    /// the cluster untouched: every query answers
    /// [`FailReason::NeverScheduled`] and the report's log is empty.
    ///
    /// Panic safety: panics are contained per *group* (see
    /// [`PaCluster::run_worker`]) — every healthy group still serves,
    /// finished groups' warm cores are banked as they complete, and
    /// queued groups keep their cores, so one poisoned query costs
    /// exactly its own group's in-flight engine and remaining queries,
    /// never the fleet's; counters and cores are absorbed before the
    /// first panic is resumed. Because healthy groups serve regardless
    /// of where the panic happened, the post-panic cluster state is
    /// still identical across serving modes and steal timings.
    pub(crate) fn run_batch(
        &mut self,
        queries: &[(GraphId, Query)],
        mode: ExecMode<'_>,
        mut hook: Option<ResponseHook<'_>>,
    ) -> (ServeReport, Vec<Vec<usize>>) {
        let (mut shard_groups, mut responses, forks) = self.plan(queries);
        let plan = planned_indices(&shard_groups);
        if let ExecMode::Replay(log) = mode {
            let Some(placed) = apply_log(shard_groups, log) else {
                let failed = QueryResponse::Failed(FailReason::NeverScheduled);
                let report = ServeReport {
                    responses: vec![failed; queries.len()],
                    stats: self.stats(),
                    log: ServeLog::default(),
                };
                return (report, plan);
            };
            shard_groups = placed;
        }
        // Plan-time failures (unregistered graphs) are final the moment
        // the batch is planned; streaming callers hear about them before
        // any execution.
        if let Some(h) = hook.as_mut() {
            for (idx, resp) in responses.iter().enumerate() {
                if let Some(resp) = resp {
                    h(idx, resp);
                }
            }
        }
        // Fork warmed cores for split groups before execution (on the
        // calling thread, outside any scheduler lock): replica 0 rides
        // the original core, higher replicas ride fresh forks. The plan
        // only splits warm graphs, so the removal always finds a core —
        // but a miss just degrades that graph to cold chunks.
        let mut replica_cores: BTreeMap<(GraphId, usize), EngineCore> = BTreeMap::new();
        for event in &forks {
            if let Some(core) = self.cores.remove(&event.graph) {
                for replica in 1..event.replicas {
                    replica_cores.insert((event.graph, replica), core.fork());
                    self.forks_total += 1;
                }
                replica_cores.insert((event.graph, 0), core);
            }
        }
        for groups in &mut shard_groups {
            for group in groups.iter_mut() {
                group.core = if group.replicas > 1 {
                    replica_cores.remove(&(group.id, group.replica))
                } else {
                    self.cores.remove(&group.id)
                };
            }
        }
        let state = Mutex::new(SchedState::new(shard_groups));
        let panics = match mode {
            ExecMode::Threaded => Self::run_threaded(
                &self.slots,
                &state,
                self.shards,
                queries,
                &mut responses,
                hook,
            ),
            ExecMode::Sequential | ExecMode::Replay(_) => Self::run_on_caller(
                &self.slots,
                &state,
                self.shards,
                queries,
                &mut responses,
                hook,
            ),
        };
        let mut state = state.into_inner().unwrap_or_else(|p| p.into_inner());

        // Bank warm cores: finished groups, plus groups a panic left
        // queued (their engines never ran this batch). A split graph
        // banks several replicas; the deterministic survivor rule keeps
        // the lowest replica index (the chunk that rode the original
        // core) and absorbs every other replica's counters into it —
        // BTreeMap order, never completion order, so the re-parked
        // state is identical across serving modes and steal timings.
        let mut banked: BTreeMap<GraphId, BTreeMap<usize, EngineCore>> = BTreeMap::new();
        for (id, replica, core) in state.finished.drain(..) {
            banked.entry(id).or_default().insert(replica, core);
        }
        for queue in &mut state.queues {
            for group in queue.drain(..) {
                if let Some(core) = group.core {
                    banked
                        .entry(group.id)
                        .or_default()
                        .insert(group.replica, core);
                }
            }
        }
        for (id, replicas) in banked {
            let mut replicas = replicas.into_values();
            if let Some(mut survivor) = replicas.next() {
                for replica in replicas {
                    survivor.absorb(replica);
                }
                self.cores.insert(id, survivor);
            }
        }
        let log = ServeLog {
            assignments: state.assignments,
            replica_indices: state.replica_indices,
            steals: state.steals,
            forks,
        };
        self.stolen_total += log.steals.len() as u64;
        // Every executed chunk of a split graph is one replica run.
        self.replicas_total += log
            .assignments
            .iter()
            .flatten()
            .filter(|&&id| log.forks.iter().any(|event| event.graph == id))
            .count() as u64;
        let answered = responses.iter().flatten();
        self.served += answered.clone().count() as u64;
        self.failed += answered.filter(|r| !r.is_ok()).count() as u64;
        // Demand history for future LPT placement: identical in every
        // mode because responses (and their costs) are deterministic.
        // Age the whole window first (graphs with no traffic this batch
        // decay too — that is the point), then absorb this batch's
        // observations at full weight.
        self.history.retain(|_, h| {
            h.decay();
            !h.is_spent()
        });
        for ((id, _), resp) in queries.iter().zip(&responses) {
            if let Some(resp) = resp {
                if self.slots.contains_key(id) {
                    self.history
                        .entry(*id)
                        .or_default()
                        .observe(resp.cost().rounds as u64 + resp.cost().messages);
                }
            }
        }

        if let Some(payload) = panics.into_iter().next() {
            std::panic::resume_unwind(payload);
        }
        let responses: Vec<QueryResponse> = responses
            .into_iter()
            .map(|r| r.unwrap_or(QueryResponse::Failed(FailReason::NeverScheduled)))
            .collect();
        let report = ServeReport {
            stats: self.stats(),
            responses,
            log,
        };
        (report, plan)
    }

    /// Serves a batch concurrently: one worker thread per shard, each
    /// pulling graph groups off the shared scheduler — stealing from
    /// loaded shards when idle — and streaming `(index, response)` pairs
    /// back over an `mpsc` channel.
    ///
    /// Responses come back in submission order; results and per-query
    /// costs are bit-identical to [`PaCluster::serve_sequential`]
    /// *regardless of stealing* (see the determinism contract in the
    /// module docs), and [`ServeReport::log`] records the placement for
    /// an exact [`PaCluster::serve_replay`].
    ///
    /// # Panics
    /// Panics if a query hits a contract violation in its application
    /// (the first group panic is re-raised — after every *other* group
    /// has served and banked its warm engine and counters, so the
    /// post-panic cluster state is deterministic). Unregistered graphs
    /// do *not* panic; they answer [`QueryResponse::Failed`] per query.
    pub fn serve(&mut self, queries: &[(GraphId, Query)]) -> ServeReport {
        self.run_batch(queries, ExecMode::Threaded, None).0
    }

    /// Serves a batch on the calling thread: the *same* plan as
    /// [`PaCluster::serve`], executed shard by shard with no steals. The
    /// deterministic reference mode — responses and engine counters
    /// bit-match the threaded mode; only wall-clock timing and (when
    /// steals happened) the placement log differ.
    ///
    /// # Panics
    /// Panics if a group panics (contained and re-raised like
    /// [`PaCluster::serve`]).
    pub fn serve_sequential(&mut self, queries: &[(GraphId, Query)]) -> ServeReport {
        self.run_batch(queries, ExecMode::Sequential, None).0
    }

    /// Serves a batch on the calling thread with the groups pre-placed
    /// by `log` — typically a prior [`PaCluster::serve`]'s
    /// [`ServeReport::log`] on an identically prepared cluster. The
    /// replay reproduces the recorded run bit-for-bit: responses,
    /// engine counters, *and* the final assignment (graphs executed per
    /// shard, in order), stolen groups included. A log that does not fit
    /// the batch (another shard count, or other graph groups) runs
    /// nothing: every query answers [`FailReason::NeverScheduled`] and
    /// the report's log is empty.
    ///
    /// # Panics
    /// Panics if a group panics (contained and re-raised like
    /// [`PaCluster::serve`]).
    pub fn serve_replay(&mut self, queries: &[(GraphId, Query)], log: &ServeLog) -> ServeReport {
        self.run_batch(queries, ExecMode::Replay(log), None).0
    }

    /// The deterministic pre-execution placement of a batch: for each
    /// shard, the batch-local query indices in planned execution order
    /// (graph groups in queue order, affinity classes inside each
    /// group). This is the assignment the scheduler computes *before*
    /// any worker runs — the threaded mode may steal groups away from
    /// it at run time — so it is a pure function of the registered
    /// fleet, the demand history, and the queries, identical in every
    /// serving mode. The streaming front-end models per-query
    /// completion ticks against it, which is what keeps modeled
    /// latencies independent of run-time stealing — and replica chunks
    /// appear on their own shards, so a split hot graph's modeled
    /// critical path actually drops. Queries that fail at plan time
    /// (unregistered graphs) appear on no shard.
    pub fn planned_execution(&self, queries: &[(GraphId, Query)]) -> Vec<Vec<usize>> {
        planned_indices(&self.plan(queries).0)
    }

    /// The batch's *home placement* as a log for
    /// [`PaCluster::serve_replay`]: every registered graph's group on
    /// its home shard ([`PaCluster::shard_of`]), each shard's groups in
    /// first-appearance order — stable-hash routing, written as data.
    /// The log has no replica indices, steals or forks, and replaying
    /// it answers and counts exactly like any other placement.
    ///
    /// A batch the planner *splits* (see [`ReplicaPolicy`]) does not
    /// fit the log: like any foreign log, it replays nothing and every
    /// query answers [`FailReason::NeverScheduled`].
    pub fn home_placement(&self, queries: &[(GraphId, Query)]) -> ServeLog {
        let mut assignments: Vec<Vec<GraphId>> = vec![Vec::new(); self.shards];
        let mut placed = BTreeSet::new();
        for (id, _) in queries {
            if self.slots.contains_key(id) && placed.insert(*id) {
                if let Some(shard) = assignments.get_mut(self.shard_of(*id)) {
                    shard.push(*id);
                }
            }
        }
        ServeLog {
            assignments,
            ..ServeLog::default()
        }
    }
}

/// The shared generator behind [`mixed_workload`] and [`zipf_workload`]:
/// `pick_graph` chooses which registered graph (by index into the sorted
/// id list) each query targets.
fn pooled_workload(
    cluster: &PaCluster,
    count: usize,
    seed: u64,
    mut pick_graph: impl FnMut(&mut StdRng) -> usize,
) -> Vec<(GraphId, Query)> {
    let ids = cluster.graph_ids();
    assert!(!ids.is_empty(), "workload needs at least one graph");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e21_ed5e);
    // Per-graph pools of cache-affine inputs. Pool seeds mix (seed, id,
    // stream tag, index) through the stable FNV fingerprint so no two
    // streams collapse onto each other (plain `seed ^ (id << k) ^ i`
    // degenerates to `seed ^ i` for id 0, correlating the partition and
    // subgraph draws).
    struct Pool {
        n: usize,
        partitions: Vec<Vec<usize>>,
        subgraphs: Vec<Vec<usize>>,
        ks: Vec<usize>,
    }
    // `graph_ids()` lists exactly the registered graphs, so the lookup
    // never drops an id and `pools` stays index-aligned with `ids`.
    let pools: Vec<Pool> = ids
        .iter()
        .filter_map(|&id| {
            let g = cluster.graph(id)?;
            let partitions = (0u64..3)
                .map(|i| {
                    let target = (g.n() / 8).clamp(2, 24);
                    gen::random_connected_partition(
                        g,
                        target,
                        word_fingerprint([seed, id.0, 0xA, i]),
                    )
                    .assignment()
                    .to_vec()
                })
                .collect();
            let subgraphs = (0u64..3)
                .map(|i| {
                    let mut rng = StdRng::seed_from_u64(word_fingerprint([seed, id.0, 0xB, i]));
                    (0..g.m()).filter(|_| rng.random::<f64>() < 0.6).collect()
                })
                .collect();
            Some(Pool {
                n: g.n(),
                partitions,
                subgraphs,
                ks: vec![6, 10],
            })
        })
        .collect();
    let checks = [
        VerifyCheck::ConnectedSpanning,
        VerifyCheck::SpanningTree,
        VerifyCheck::Cut,
        VerifyCheck::Bipartite,
        VerifyCheck::Forest,
    ];
    (0..count)
        .map(|_| {
            let which = pick_graph(&mut rng);
            let (id, pool) = (ids[which], &pools[which]);
            let n = pool.n;
            let query = match rng.random_range(0..100u32) {
                // Half the traffic: PA solves over pooled partitions.
                0..=49 => Query::Pa {
                    assignment: pool.partitions[rng.random_range(0..pool.partitions.len())].clone(),
                    values: (0..n as u64)
                        .map(|v| v.wrapping_mul(rng.random_range(1..64)))
                        .collect(),
                    agg: [Aggregate::Min, Aggregate::Max, Aggregate::Sum]
                        [rng.random_range(0..3usize)],
                },
                // Verification-suite traffic over pooled subgraphs.
                50..=64 => Query::Components {
                    h_edges: pool.subgraphs[rng.random_range(0..pool.subgraphs.len())].clone(),
                },
                65..=77 => Query::Verify {
                    check: checks[rng.random_range(0..checks.len())],
                    h_edges: pool.subgraphs[rng.random_range(0..pool.subgraphs.len())].clone(),
                },
                // Analytics tail.
                78..=84 => Query::Kdom {
                    k: pool.ks[rng.random_range(0..pool.ks.len())],
                },
                85..=89 => Query::Eccentricity {
                    k: pool.ks[rng.random_range(0..pool.ks.len())],
                },
                90..=94 => Query::Mst,
                95..=97 => Query::Sssp {
                    source: rng.random_range(0..n),
                },
                98 => Query::MinCut { trials: 1 },
                _ => Query::Cds {
                    node_weights: (0..n as u64).map(|v| 1 + (v * 7) % 13).collect(),
                },
            };
            (id, query)
        })
        .collect()
}

/// A seeded mixed workload over a cluster's registered graphs: the
/// query mix a PA service sees in the harness `serve` experiment and
/// the determinism tests — mostly PA solves and verification traffic
/// with a tail of heavier analytics (MST, SSSP, eccentricity, small
/// min-cut and CDS runs). Graphs are drawn uniformly; see
/// [`zipf_workload`] for skewed popularity.
///
/// Partitions and subgraphs are drawn from a small per-graph pool
/// (three connected partitions, three edge subsets, two `k` values), so
/// a realistic fraction of queries re-hits warm artifacts. Fully
/// deterministic in `(cluster graphs, count, seed)`.
pub fn mixed_workload(cluster: &PaCluster, count: usize, seed: u64) -> Vec<(GraphId, Query)> {
    let graphs = cluster.graph_ids().len();
    pooled_workload(cluster, count, seed, move |rng| {
        rng.random_range(0..graphs.max(1))
    })
}

/// Like [`mixed_workload`], but graph popularity follows a Zipf law:
/// the `r`-th registered graph (in sorted id order, 0-based) is drawn
/// with probability proportional to `1/(r+1)^exponent`. `exponent = 0`
/// is uniform; realistic serving skew is `0.8–1.5`; large exponents
/// send almost all traffic to the first graph — the hot-graph scenario
/// that starves a hash placement. Fully deterministic in
/// `(cluster graphs, count, seed, exponent)`.
pub fn zipf_workload(
    cluster: &PaCluster,
    count: usize,
    seed: u64,
    exponent: f64,
) -> Vec<(GraphId, Query)> {
    let graphs = cluster.graph_ids().len();
    let weights: Vec<f64> = (0..graphs)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    pooled_workload(cluster, count, seed, move |rng| {
        let mut x = rng.random::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len().saturating_sub(1)
    })
}

/// The first `count` graph ids whose home shard
/// ([`PaCluster::shard_of`]) is `shard` of a `shards`-wide cluster — the
/// adversarial fleet whose home placement serializes on one worker.
/// Shared by the skew tests and the harness `serve --skew` experiment
/// so both exercise the same collision structure.
///
/// # Panics
/// Panics if `shard >= shards`.
pub fn colliding_graph_ids(shards: usize, shard: usize, count: usize) -> Vec<GraphId> {
    assert!(shard < shards, "target shard {shard} out of range");
    (0u64..)
        .filter(|&i| word_fingerprint([i]) % shards as u64 == shard as u64)
        .take(count)
        .map(GraphId)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster(shards: usize) -> PaCluster {
        let mut cluster = PaCluster::new(shards);
        cluster.add_graph(GraphId(1), gen::grid(4, 5));
        cluster.add_graph(GraphId(2), gen::path(18));
        cluster.add_graph(GraphId(3), gen::gnp_connected(20, 0.2, 5));
        cluster
    }

    #[test]
    fn plan_groups_by_graph_then_affinity() {
        let mut cluster = PaCluster::new(1);
        cluster.add_graph(GraphId(1), gen::grid(4, 5));
        cluster.add_graph(GraphId(2), gen::path(18));
        let rows_a = vec![
            0usize, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3,
        ];
        let pa = |assignment: &Vec<usize>, v: u64| Query::Pa {
            assignment: assignment.clone(),
            values: vec![v; 20],
            agg: Aggregate::Min,
        };
        let whole = vec![0usize; 20];
        // Interleaved graphs and partitions on one shard.
        let queries = vec![
            (GraphId(1), pa(&rows_a, 1)),
            (GraphId(2), Query::Mst),
            (GraphId(1), pa(&whole, 2)),
            (GraphId(1), pa(&rows_a, 3)),
            (GraphId(2), Query::Mst),
        ];
        let (shard_groups, prefailed, forks) = cluster.plan(&queries);
        assert!(prefailed.iter().all(|r| r.is_none()));
        assert!(forks.is_empty(), "replicas are strictly opt-in");
        assert_eq!(shard_groups.len(), 1);
        // LPT on one shard: graph 2's two MSTs outweigh graph 1's three
        // PA solves, so its group leads. Inside graph 1's group the
        // rows_a class is batched (indices 0 then 3), then whole (2).
        let ids: Vec<GraphId> = shard_groups[0].iter().map(|g| g.id).collect();
        assert_eq!(ids, vec![GraphId(2), GraphId(1)]);
        assert!(shard_groups[0][0].weight > shard_groups[0][1].weight);
        assert_eq!(shard_groups[0][0].indices, vec![1, 4]);
        assert_eq!(shard_groups[0][1].indices, vec![0, 3, 2]);
        assert!(shard_groups[0].iter().all(|g| g.weight > 0));
        // Serving it agrees with the plan.
        let report = cluster.serve(&queries);
        assert!(report.responses.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn hostile_weights_saturate_instead_of_panicking_the_planner() {
        // `Query::weight` saturates a hostile trial count to u64::MAX;
        // the group, batch and shard-load sums over it must saturate
        // too, so the query reaches `run_query` and fails there.
        let hostile = Query::MinCut { trials: usize::MAX };
        let batch = vec![
            (GraphId(0), hostile.clone()),
            (GraphId(0), hostile),
            (GraphId(1), Query::Mst),
        ];
        for shards in [1usize, 2] {
            let cluster = || {
                let mut cluster = PaCluster::new(shards);
                cluster.add_graph(GraphId(0), Graph::from_edges(1, &[]).unwrap());
                cluster.add_graph(GraphId(1), gen::path(8));
                cluster
            };
            let (shard_groups, _, _) = cluster().plan(&batch);
            assert_eq!(shard_groups[0][0].id, GraphId(0), "heaviest group first");
            let threaded = cluster().serve(&batch);
            let sequential = cluster().serve_sequential(&batch);
            assert_eq!(threaded.responses, sequential.responses, "{shards} shards");
            assert_eq!(threaded.stats.engine, sequential.stats.engine);
            let too_small = QueryResponse::Failed(FailReason::MinCutTooSmall { nodes: 1 });
            assert_eq!(threaded.responses[..2], [too_small.clone(), too_small]);
            assert!(threaded.responses[2].is_ok(), "{:?}", threaded.responses[2]);
        }
    }

    #[test]
    fn lpt_spreads_groups_by_weight() {
        let mut cluster = PaCluster::new(2);
        cluster.add_graph(GraphId(1), gen::grid(8, 8));
        cluster.add_graph(GraphId(2), gen::path(10));
        cluster.add_graph(GraphId(3), gen::path(11));
        cluster.add_graph(GraphId(4), gen::path(12));
        let pa = |n: usize| Query::Pa {
            assignment: vec![0; n],
            values: vec![1; n],
            agg: Aggregate::Sum,
        };
        // One heavy MST group on the big grid, three light Pa groups.
        let queries = vec![
            (GraphId(2), pa(10)),
            (GraphId(1), Query::Mst),
            (GraphId(3), pa(11)),
            (GraphId(4), pa(12)),
        ];
        let (shard_groups, _, _) = cluster.plan(&queries);
        // LPT: the heavy group goes first, alone on shard 0; the light
        // groups pile onto shard 1 until it catches up.
        assert_eq!(shard_groups[0].len(), 1);
        assert_eq!(shard_groups[0][0].id, GraphId(1));
        assert_eq!(shard_groups[1].len(), 3);
        // And a hot graph with *all* the traffic forms one unsplittable
        // group (stealing granularity is the whole graph).
        let hot: Vec<_> = (0..6).map(|_| (GraphId(2), pa(10))).collect();
        let (shard_groups, _, _) = cluster.plan(&hot);
        let non_empty: Vec<usize> = shard_groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(s, _)| s)
            .collect();
        assert_eq!(non_empty.len(), 1, "one graph, one group, one shard");
        assert_eq!(shard_groups[non_empty[0]][0].indices.len(), 6);
    }

    #[test]
    fn steal_takes_the_most_loaded_tail() {
        let group = |id: u64, weight: u64| Group {
            id: GraphId(id),
            indices: Vec::new(),
            weight,
            core: None,
            replica: 0,
            replicas: 1,
        };
        let mut state = SchedState::new(vec![
            vec![group(1, 10), group(2, 5)],
            vec![group(3, 2)],
            Vec::new(),
        ]);
        assert_eq!(state.loads, vec![15, 2, 0]);
        // Worker 2 is idle: it steals from shard 0 (most loaded), from
        // the *tail* (the lighter group 2), then keeps draining.
        let stolen: Vec<GraphId> =
            std::iter::from_fn(|| state.next_group(2, true).map(|g| g.id)).collect();
        assert_eq!(stolen, vec![GraphId(2), GraphId(1), GraphId(3)]);
        assert_eq!(state.loads, vec![0, 0, 0]);
        assert_eq!(state.assignments[2], stolen);
        assert_eq!(state.steals.iter().filter(|s| s.to == 2).count(), 3);
        // The epoch log is totally ordered and names every move.
        let moves: Vec<(u64, GraphId, usize, usize)> = state
            .steals
            .iter()
            .map(|s| (s.epoch, s.graph, s.from, s.to))
            .collect();
        assert_eq!(
            moves,
            vec![
                (0, GraphId(2), 0, 2),
                (1, GraphId(1), 0, 2),
                (2, GraphId(3), 1, 2),
            ]
        );
        // With stealing off, an idle worker just stops.
        assert!(state.next_group(0, false).is_none());
    }

    #[test]
    fn replica_plan_splits_the_hot_group_onto_distinct_shards() {
        let mut cluster = PaCluster::new(4);
        cluster.add_graph(GraphId(1), gen::grid(5, 5));
        cluster.add_graph(GraphId(2), gen::path(12));
        cluster.set_replica_policy(ReplicaPolicy::new(0.5, 3));
        let rows: Vec<usize> = (0..25).map(|v| v / 5).collect();
        let pa = |v: u64| Query::Pa {
            assignment: rows.clone(),
            values: vec![v; 25],
            agg: Aggregate::Sum,
        };
        let hot: Vec<_> = (0..6u64).map(|v| (GraphId(1), pa(v))).collect();
        // Cold graphs never split: there is no warm core to fork.
        let (_, _, forks) = cluster.plan(&hot);
        assert!(forks.is_empty(), "cold graphs are never split");
        // Warm the hot graph, then the same batch splits three ways.
        cluster.serve_sequential(&[(GraphId(1), pa(99))]);
        let (shard_groups, _, forks) = cluster.plan(&hot);
        assert_eq!(forks.len(), 1, "{forks:?}");
        let event = &forks[0];
        assert_eq!(event.graph, GraphId(1));
        assert_eq!(event.replicas, 3);
        let mut distinct = event.shards.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            3,
            "chunks land on distinct shards: {:?}",
            event.shards
        );
        // The chunks partition the six queries contiguously, two each,
        // and each chunk knows its replica coordinates.
        let mut chunks: Vec<(usize, usize, Vec<usize>)> = shard_groups
            .iter()
            .flatten()
            .filter(|g| g.id == GraphId(1))
            .map(|g| (g.replica, g.replicas, g.indices.clone()))
            .collect();
        chunks.sort();
        let sizes: Vec<usize> = chunks.iter().map(|(_, _, idx)| idx.len()).collect();
        assert_eq!(sizes, vec![2, 2, 2]);
        assert!(chunks.iter().all(|&(_, total, _)| total == 3));
        let flat: Vec<usize> = chunks.into_iter().flat_map(|(_, _, idx)| idx).collect();
        assert_eq!(flat, vec![0, 1, 2, 3, 4, 5], "contiguous in plan order");
    }

    #[test]
    fn replica_chunks_fold_into_one_demand_history() {
        let mut windows = Vec::new();
        for threaded in [true, false] {
            let mut cluster = PaCluster::new(4);
            cluster.add_graph(GraphId(1), gen::grid(5, 5));
            cluster.set_replica_policy(ReplicaPolicy::new(0.5, 4));
            let rows: Vec<usize> = (0..25).map(|v| v / 5).collect();
            let pa = |v: u64| Query::Pa {
                assignment: rows.clone(),
                values: vec![v; 25],
                agg: Aggregate::Sum,
            };
            cluster.serve_sequential(&[(GraphId(1), pa(0))]);
            let hot: Vec<_> = (1..9u64).map(|v| (GraphId(1), pa(v))).collect();
            let report = if threaded {
                cluster.serve(&hot)
            } else {
                cluster.serve_sequential(&hot)
            };
            assert!(!report.log.forks.is_empty(), "the hot group split");
            // Demand attribution is per *graph*, not per replica: all
            // eight chunked queries land in one window, so the EWMA
            // keeps estimating the graph's full demand after a split.
            let h = cluster.history[&GraphId(1)];
            assert_eq!(h.queries, 8, "one window, one count per query");
            assert!(h.mean_work().is_some());
            // Decay math on the folded window: both accumulators age by
            // exactly 3/4, preserving the mean work per query.
            let mut aged = h;
            aged.decay();
            assert_eq!(aged.queries, 6);
            assert_eq!(aged.work, h.work * 3 / 4);
            windows.push((h.queries, h.work));
        }
        assert_eq!(windows[0], windows[1], "history is mode-independent");
    }

    #[test]
    fn demand_history_decays_toward_recent_traffic() {
        let mut h = GroupHistory::default();
        // An established heavy window: mean 1000 per query.
        for _ in 0..20 {
            h.observe(1000);
        }
        assert_eq!(h.mean_work(), Some(1000));
        // The workload drifts: six batches of cheap queries. The EWMA
        // (decay then absorb) must converge toward the recent mean
        // instead of anchoring on the stale heavy window.
        for _ in 0..6 {
            h.decay();
            for _ in 0..20 {
                h.observe(10);
            }
        }
        let mean = h.mean_work().expect("window still has traffic");
        assert!(
            (10..100).contains(&mean),
            "EWMA must track the recent cheap traffic, got {mean}"
        );
        // Decay preserves the mean while traffic continues...
        let mut steady = GroupHistory::default();
        for _ in 0..4 {
            steady.decay();
            for _ in 0..10 {
                steady.observe(500);
            }
        }
        let steady_mean = steady.mean_work().expect("live window");
        assert!(
            (450..=560).contains(&steady_mean),
            "equal scaling keeps the mean near 500 (integer truncation \
             aside), got {steady_mean}"
        );
        // ...and an un-driven window decays to nothing, restoring the
        // a-priori estimate.
        let mut idle = h;
        while !idle.is_spent() {
            idle.decay();
        }
        assert_eq!(idle.mean_work(), None);
    }

    #[test]
    fn stale_history_is_dropped_by_batches_elsewhere() {
        let mut cluster = small_cluster(2);
        cluster.serve(&[(GraphId(1), Query::Mst)]);
        assert!(
            cluster.history.contains_key(&GraphId(1)),
            "served graph gains a demand window"
        );
        // Batches that never touch graph 1 age its window away; the
        // graph then falls back to the a-priori Query::weight estimate.
        for _ in 0..20 {
            cluster.serve(&[(GraphId(2), Query::Kdom { k: 6 })]);
        }
        assert!(
            !cluster.history.contains_key(&GraphId(1)),
            "a cold graph's window fully decays"
        );
        assert!(
            cluster.history.contains_key(&GraphId(2)),
            "the live graph keeps its window"
        );
    }

    #[test]
    fn unknown_graph_fails_per_query_without_killing_the_batch() {
        for threaded in [true, false] {
            let mut cluster = small_cluster(2);
            let queries = vec![
                (GraphId(99), Query::Mst),
                (GraphId(1), Query::Kdom { k: 6 }),
                (GraphId(98), Query::Mst),
            ];
            let report = if threaded {
                cluster.serve(&queries)
            } else {
                cluster.serve_sequential(&queries)
            };
            assert!(
                matches!(&report.responses[0], QueryResponse::Failed(m) if m.to_string().contains("not registered")),
                "unregistered graph answers Failed, got {:?}",
                report.responses[0]
            );
            assert!(report.responses[1].is_ok(), "healthy query still served");
            assert!(!report.responses[2].is_ok());
            assert_eq!(report.stats.failed, 2);
            assert_eq!(report.stats.queries, 3, "failures still count as served");
        }
    }

    #[test]
    fn batching_turns_repeat_partitions_into_hits() {
        let mut cluster = small_cluster(2);
        let rows: Vec<usize> = (0..20).map(|v| v / 5).collect();
        let pa = |v: u64| Query::Pa {
            assignment: rows.clone(),
            values: vec![v; 20],
            agg: Aggregate::Sum,
        };
        // Same partition three times, interleaved with another graph.
        let queries = vec![
            (GraphId(1), pa(1)),
            (GraphId(2), Query::Kdom { k: 6 }),
            (GraphId(1), pa(2)),
            (GraphId(2), Query::Kdom { k: 6 }),
            (GraphId(1), pa(3)),
        ];
        let report = cluster.serve(&queries);
        assert!(report.responses.iter().all(|r| r.is_ok()));
        assert_eq!(report.stats.engine.hits, 2, "2nd and 3rd Pa are warm");
        assert_eq!(report.stats.engine.division_hits, 1, "2nd kdom memoized");
        // Warm state survives into the next batch.
        let report = cluster.serve(&[(GraphId(1), pa(9))]);
        assert_eq!(report.stats.engine.hits, 3);
    }

    #[test]
    fn register_rejects_disconnected_graphs_without_panicking() {
        let mut cluster = small_cluster(2);
        // Two disjoint edges: connected() is false.
        let disconnected = Graph::from_edges(4, &[(0, 1, 1), (2, 3, 1)]).unwrap();
        let err = cluster
            .register(GraphId(9), disconnected, EngineConfig::new())
            .unwrap_err();
        assert!(matches!(err, PaError::Disconnected), "{err:?}");
        let empty = Graph::from_edges(0, &[]).unwrap();
        assert!(cluster
            .register(GraphId(9), empty, EngineConfig::new())
            .is_err());
        // A zero-capacity config would panic the first batch's engine.
        let no_cache = EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::new()
        };
        let err = cluster
            .register(GraphId(9), gen::path(5), no_cache)
            .unwrap_err();
        assert_eq!(err, PaError::ZeroCacheCapacity);
        // The rejected id stays free for a valid registration.
        cluster
            .register(GraphId(9), gen::path(5), EngineConfig::new())
            .unwrap();
        assert!(cluster.graph(GraphId(9)).is_some());
    }

    #[test]
    fn stats_display_mentions_the_fleet() {
        let mut cluster = small_cluster(4);
        let report = cluster.serve(&[(GraphId(2), Query::Mst)]);
        let line = report.stats.to_string();
        assert!(line.contains("1 queries (0 failed)"), "{line}");
        assert!(line.contains("over 4 shards"), "{line}");
        assert!(line.contains("stolen"), "{line}");
        assert!(line.contains("0 forks/0 replica runs"), "{line}");
        assert!(line.contains("hits/misses"), "{line}");
    }

    #[test]
    fn mixed_workload_is_deterministic_and_covers_graphs() {
        let cluster = small_cluster(2);
        let a = mixed_workload(&cluster, 40, 9);
        let b = mixed_workload(&cluster, 40, 9);
        assert_eq!(a, b, "same seed, same workload");
        let c = mixed_workload(&cluster, 40, 10);
        assert_ne!(a, c, "different seed, different workload");
        for id in cluster.graph_ids() {
            assert!(a.iter().any(|(g, _)| *g == id), "graph {id} unused");
        }
    }

    #[test]
    fn zipf_workload_concentrates_on_the_hot_graph() {
        let cluster = small_cluster(2);
        let w = zipf_workload(&cluster, 60, 7, 2.5);
        assert_eq!(w, zipf_workload(&cluster, 60, 7, 2.5), "deterministic");
        let hot = cluster.graph_ids()[0];
        let hot_count = w.iter().filter(|(id, _)| *id == hot).count();
        assert!(
            hot_count * 2 > w.len(),
            "exponent 2.5 concentrates most traffic on the first graph, got {hot_count}/{}",
            w.len()
        );
        // The skewed stream still serves clean.
        let mut cluster = small_cluster(3);
        let report = cluster.serve(&w);
        assert!(report.responses.iter().all(|r| r.is_ok()));
    }
}
