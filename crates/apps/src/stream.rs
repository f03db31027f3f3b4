//! `StreamGateway` — a streaming front-end over [`PaCluster`].
//!
//! The cluster serves batch-in/batch-out; a fleet under live traffic
//! sees a *continuous* query stream. The gateway closes that gap:
//!
//! * queries arrive as [`Arrival`]s — each stamped with a **logical
//!   arrival tick** chosen by the caller (monotone non-decreasing).
//!   Ticks are the gateway's only clock: nothing on the deterministic
//!   path reads a wall clock, so a recorded run replays bit-for-bit on
//!   any machine at any speed;
//! * an **adaptive batcher** closes the open batch on *size* (it
//!   reached [`StreamConfig::max_batch`]) or on *deadline* (logical
//!   time passed the first queued arrival by
//!   [`StreamConfig::max_wait_ticks`]) — whichever happens first. A
//!   final partial batch is flushed when the stream ends;
//! * **admission control** rejects, with a typed [`RejectReason`],
//!   any query whose home shard (the stable [`PaCluster::shard_of`]
//!   hash) already holds [`StreamConfig::high_water`] admitted-but-
//!   unfinished queries — backpressure instead of unbounded queueing —
//!   plus unknown graphs and non-monotone ticks. A graph the cluster
//!   last served **split across replica shards** (see
//!   `ReplicaPolicy`) is charged to the least-loaded member of its
//!   replica set instead of only its home shard, so replicating a hot
//!   graph widens its admission headroom to match;
//! * closed batches execute on the cluster's shared batch core
//!   ([`PaCluster`]'s `run_batch`), and **responses stream back
//!   per-query** (see [`StreamEvent::Response`]) the moment each
//!   group finishes, not at batch end;
//! * completion is *modeled* in logical time against the scheduler's
//!   deterministic pre-steal plan: each shard serves its planned
//!   queries in order at [`StreamConfig::work_per_tick`] cost units
//!   per tick, and a batch is done when its slowest shard is. Modeled
//!   latency is therefore a pure function of the workload — run-time
//!   stealing can only move wall-clock time, never a reported
//!   percentile.
//!
//! # The replay contract, extended to arrival order
//!
//! Every accepted query's arrival tick and every batch boundary land
//! in an [`ArrivalLog`] whose per-batch records nest the batch's
//! [`ServeLog`]. [`StreamGateway::replay`] re-drives a trace against
//! the log and reproduces the recorded run **bit-for-bit**: responses,
//! rejections, batch boundaries, modeled completion ticks, `ServeLog`
//! placements, and engine counters. Any divergence (a different trace,
//! a different fleet) is reported as a typed [`ReplayMismatch`], never
//! a panic — this module is pinned at **zero** reachable panic sites
//! in `lint-ratchet.toml [r1]`.
//!
//! ```rust
//! use rmo_apps::service::{GraphId, PaCluster};
//! use rmo_apps::stream::{Arrival, StreamConfig, StreamGateway};
//! use rmo_apps::Query;
//! use rmo_graph::gen;
//!
//! let fleet = || {
//!     let mut cluster = PaCluster::new(2);
//!     cluster.add_graph(GraphId(1), gen::grid(4, 4));
//!     cluster.add_graph(GraphId(2), gen::path(12));
//!     cluster
//! };
//! let trace = vec![
//!     Arrival { tick: 0, graph: GraphId(1), query: Query::Mst },
//!     Arrival { tick: 3, graph: GraphId(2), query: Query::Mst },
//!     Arrival { tick: 90, graph: GraphId(1), query: Query::Kdom { k: 6 } },
//! ];
//! let mut gateway = StreamGateway::new(fleet(), StreamConfig::new());
//! let report = gateway.run(&trace);
//! assert!(report.outcomes.iter().all(|o| o.result.is_ok()));
//! assert_eq!(report.stats.batches, 2, "the tick-90 straggler opens batch 2");
//! // A fresh, identically prepared gateway replays the log bit-for-bit.
//! let mut fresh = StreamGateway::new(fleet(), StreamConfig::new());
//! let replayed = fresh.replay(&trace, &report.log).unwrap();
//! assert_eq!(replayed, report);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::mpsc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rmo_core::{word_fingerprint, EngineStats};

use crate::dispatch::{Query, QueryResponse};
use crate::service::{mixed_workload, zipf_workload, ExecMode, GraphId, PaCluster, ServeLog};

/// One query entering the gateway: *when* (a logical tick), *where*
/// (the target graph), *what* (the query). Ticks must be monotone
/// non-decreasing along a trace; the gateway rejects regressions
/// (see [`RejectReason::TickRegression`]) rather than reordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Logical arrival time. Any monotone stamp works — a sequence
    /// number, a quantized wall clock recorded *outside* the
    /// deterministic path, a simulated Poisson process.
    pub tick: u64,
    /// The registered graph the query targets.
    pub graph: GraphId,
    /// The query itself.
    pub query: Query,
}

/// Gateway tuning: batching thresholds, the backpressure high-water
/// mark, and the logical service rate. All logical-time; no field has
/// a wall-clock unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// A batch closes as soon as it holds this many queries
    /// (`0` behaves as `1`).
    pub max_batch: usize,
    /// A non-empty batch closes once the stream reaches
    /// `first arrival + max_wait_ticks` — the latency bound a trickle
    /// of traffic gets. `0` means a batch never outlives its opening
    /// tick.
    pub max_wait_ticks: u64,
    /// Admission high-water mark: a query is rejected while its home
    /// shard already has this many admitted-but-unfinished queries.
    /// `0` rejects everything — useful for drain tests.
    pub high_water: usize,
    /// Modeled service rate: a shard retires this much deterministic
    /// query cost (rounds + messages) per logical tick (`0` behaves
    /// as: every query takes its whole cost in ticks). Only the
    /// latency *model* reads this; execution is unthrottled.
    pub work_per_tick: u64,
}

impl StreamConfig {
    /// Defaults sized for the harness workloads: batches of up to 16,
    /// a 32-tick deadline, 64 queries of headroom per shard, and
    /// 4096 cost units per tick.
    pub fn new() -> StreamConfig {
        StreamConfig {
            max_batch: 16,
            max_wait_ticks: 32,
            high_water: 64,
            work_per_tick: 4096,
        }
    }

    /// Returns the config with [`StreamConfig::max_batch`] replaced.
    pub fn with_max_batch(mut self, max_batch: usize) -> StreamConfig {
        self.max_batch = max_batch;
        self
    }

    /// Returns the config with [`StreamConfig::max_wait_ticks`] replaced.
    pub fn with_max_wait_ticks(mut self, max_wait_ticks: u64) -> StreamConfig {
        self.max_wait_ticks = max_wait_ticks;
        self
    }

    /// Returns the config with [`StreamConfig::high_water`] replaced.
    pub fn with_high_water(mut self, high_water: usize) -> StreamConfig {
        self.high_water = high_water;
        self
    }

    /// Returns the config with [`StreamConfig::work_per_tick`] replaced.
    pub fn with_work_per_tick(mut self, work_per_tick: u64) -> StreamConfig {
        self.work_per_tick = work_per_tick;
        self
    }
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig::new()
    }
}

/// Why admission control turned a query away. Typed so callers can
/// retry-with-backoff on saturation but drop unknown graphs; the
/// `Display` form is the operator-facing diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The query's admission shard is at the high-water mark: `depth`
    /// admitted queries are still unfinished there. For an unsplit
    /// graph this is its home shard; for a graph last served across
    /// replica shards it is the *least-loaded* replica-set member —
    /// saturation means every member is full.
    ShardSaturated {
        /// The saturated admission shard ([`PaCluster::shard_of`] for
        /// an unsplit graph, the least-loaded replica otherwise).
        shard: usize,
        /// Unfinished admitted queries on that shard at arrival.
        depth: usize,
        /// The configured limit ([`StreamConfig::high_water`]).
        high_water: usize,
    },
    /// The target graph is not registered with the cluster. (Batch
    /// serving answers this with a `Failed` *response*; the gateway
    /// already knows at admission and never queues the query.)
    UnknownGraph(GraphId),
    /// The arrival's tick ran backwards relative to the stream.
    TickRegression {
        /// The offending arrival's tick.
        tick: u64,
        /// The latest tick the stream had already reached.
        last: u64,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::ShardSaturated {
                shard,
                depth,
                high_water,
            } => write!(
                f,
                "shard {shard} saturated: {depth} queries pending >= high water {high_water}"
            ),
            RejectReason::UnknownGraph(id) => {
                write!(f, "graph {id} is not registered with this cluster")
            }
            RejectReason::TickRegression { tick, last } => {
                write!(f, "arrival tick {tick} regresses behind tick {last}")
            }
        }
    }
}

/// What closed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchClose {
    /// It reached [`StreamConfig::max_batch`] queries.
    Size,
    /// Logical time reached its deadline
    /// (first arrival + [`StreamConfig::max_wait_ticks`]).
    Deadline,
    /// The stream ended with the batch still open.
    Flush,
}

/// One batch's record in the [`ArrivalLog`]: its boundary in the
/// arrival stream, its modeled execution window, and the nested
/// [`ServeLog`] placement of its cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Tick of the batch's first arrival.
    pub open_tick: u64,
    /// Tick the batcher closed it.
    pub close_tick: u64,
    /// What closed it.
    pub closed_by: BatchClose,
    /// Modeled tick execution began (the server may have still been
    /// busy with the previous batch at `close_tick`).
    pub start_tick: u64,
    /// Modeled tick the slowest shard finished.
    pub done_tick: u64,
    /// The admitted queries, as `(stream sequence number, arrival
    /// tick)` pairs in admission order.
    pub queries: Vec<(usize, u64)>,
    /// The cluster placement of the batch's execution — feed back
    /// through the replay path to reproduce it.
    pub serve: ServeLog,
}

/// The arrival-order log of a whole streaming run: every batch
/// boundary, every admitted query's tick, every batch's placement.
/// [`StreamGateway::replay`] re-drives a trace against it bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArrivalLog {
    /// Batches in execution order.
    pub batches: Vec<BatchRecord>,
}

/// One arrival's fate: rejected at admission, or admitted into a
/// batch and answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutcome {
    /// The arrival's tick, as stamped on the trace.
    pub tick: u64,
    /// The response (admitted) or the typed rejection.
    pub result: Result<QueryResponse, RejectReason>,
    /// The batch (index into [`ArrivalLog::batches`]) that served the
    /// query; `None` for rejected arrivals.
    pub batch: Option<usize>,
    /// Modeled completion tick; `None` for rejected arrivals.
    pub done_tick: Option<u64>,
}

impl StreamOutcome {
    /// Modeled queueing + service latency in ticks (admitted queries
    /// only).
    pub fn latency(&self) -> Option<u64> {
        self.done_tick.map(|done| done.saturating_sub(self.tick))
    }
}

/// Deterministic counters of one streaming run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Arrivals presented to the gateway.
    pub arrivals: u64,
    /// Arrivals admitted (and therefore served).
    pub admitted: u64,
    /// Arrivals turned away with a [`RejectReason`].
    pub rejected: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches closed by [`BatchClose::Size`].
    pub size_closes: u64,
    /// Batches closed by [`BatchClose::Deadline`].
    pub deadline_closes: u64,
    /// Batches closed by [`BatchClose::Flush`].
    pub flush_closes: u64,
    /// Modeled tick the last batch finished (0 if none ran).
    pub done_tick: u64,
    /// The cluster's engine counters after the run (lifetime).
    pub engine: EngineStats,
}

impl fmt::Display for StreamStats {
    /// One-line run summary, e.g.
    /// `48 arrivals: 45 admitted / 3 rejected over 7 batches (4 size, 2 deadline, 1 flush), done at tick 310 | …engine…`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} arrivals: {} admitted / {} rejected over {} batches \
             ({} size, {} deadline, {} flush), done at tick {} | {}",
            self.arrivals,
            self.admitted,
            self.rejected,
            self.batches,
            self.size_closes,
            self.deadline_closes,
            self.flush_closes,
            self.done_tick,
            self.engine,
        )
    }
}

/// The outcome of one streaming run: per-arrival outcomes (in arrival
/// order), the replayable [`ArrivalLog`], and the run counters.
/// `PartialEq`/`Eq` so the replay contract is one `assert_eq!` — every
/// field is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamReport {
    /// One outcome per arrival, in arrival (sequence) order.
    pub outcomes: Vec<StreamOutcome>,
    /// The replayable record of the run.
    pub log: ArrivalLog,
    /// Run counters.
    pub stats: StreamStats,
}

impl StreamReport {
    /// Modeled latencies of the admitted queries, sorted ascending.
    fn latencies(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .outcomes
            .iter()
            .filter_map(StreamOutcome::latency)
            .collect();
        out.sort_unstable();
        out
    }

    /// Nearest-rank percentile (`pct` in 0..=100) of the modeled
    /// latencies; `None` if nothing was admitted.
    pub fn latency_percentile(&self, pct: usize) -> Option<u64> {
        let lat = self.latencies();
        let rank = pct.min(100).saturating_mul(lat.len().saturating_sub(1)) / 100;
        lat.get(rank).copied()
    }

    /// The sequence numbers the gateway rejected, with their reasons.
    pub fn rejections(&self) -> Vec<(usize, RejectReason)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(seq, o)| match o.result {
                Err(reason) => Some((seq, reason)),
                Ok(_) => None,
            })
            .collect()
    }
}

/// Live progress of a streaming run, pushed to the caller's sink (or
/// over the channel in [`StreamGateway::run_channel`]) as it happens.
///
/// Event *order* within a batch's responses follows execution, so the
/// threaded mode may interleave differently run to run; the
/// [`StreamReport`] is the deterministic record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// Arrival `seq` passed admission at `tick`.
    Admitted {
        /// Stream sequence number (index into the trace / outcomes).
        seq: usize,
        /// Its arrival tick.
        tick: u64,
    },
    /// Arrival `seq` was turned away.
    Rejected {
        /// Stream sequence number.
        seq: usize,
        /// Its arrival tick.
        tick: u64,
        /// Why.
        reason: RejectReason,
    },
    /// The open batch closed and was queued for execution.
    BatchClosed {
        /// Index into [`ArrivalLog::batches`].
        batch: usize,
        /// Queries in it.
        size: usize,
        /// What closed it.
        closed_by: BatchClose,
        /// Its first arrival's tick.
        open_tick: u64,
        /// The tick it closed.
        close_tick: u64,
    },
    /// One response, the moment its graph group finished.
    Response {
        /// Stream sequence number of the answered query.
        seq: usize,
        /// The response.
        response: QueryResponse,
    },
    /// A batch's modeled execution window completed; its shard depths
    /// were released.
    BatchDone {
        /// Index into [`ArrivalLog::batches`].
        batch: usize,
        /// Modeled completion tick.
        done_tick: u64,
    },
}

/// A replay diverged from its [`ArrivalLog`] — different trace,
/// different fleet, or a truncated/foreign log. Reported, never
/// panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayMismatch {
    /// The batch where the divergence surfaced, if it got that far.
    pub batch: Option<usize>,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.batch {
            Some(batch) => write!(f, "replay diverged at batch {batch}: {}", self.detail),
            None => write!(f, "replay diverged: {}", self.detail),
        }
    }
}

impl std::error::Error for ReplayMismatch {}

/// A batch that left the batcher and awaits the server.
struct ClosedBatch {
    /// Global batch index (== its slot in [`ArrivalLog::batches`]).
    index: usize,
    seqs: Vec<usize>,
    open_tick: u64,
    close_tick: u64,
    closed_by: BatchClose,
}

/// The batch the modeled server is currently busy with.
struct InFlight {
    batch: usize,
    done_tick: u64,
    /// Admission depth to release at `done_tick`, per charged shard.
    releases: BTreeMap<usize, usize>,
}

/// The gateway's event machine for one run: admission, the open
/// batch, the closed-batch queue, and the modeled server, all driven
/// by logical arrival ticks. Every decision is a pure function of
/// (trace, config, fleet), which is the whole replay story.
struct Session<'a> {
    cluster: &'a mut PaCluster,
    config: StreamConfig,
    threaded: bool,
    replay: Option<&'a ArrivalLog>,
    /// Every arrival seen, indexed by sequence number.
    arrived: Vec<Arrival>,
    outcomes: Vec<StreamOutcome>,
    /// Admitted-but-unfinished queries per admission shard.
    depths: BTreeMap<usize, usize>,
    /// Replica placement of the most recent batch that *split* each
    /// graph (from its `ServeLog` fork events): admission charges the
    /// least-loaded member instead of only the home shard. A graph
    /// served unsplit drops back to home-shard accounting.
    replica_sets: BTreeMap<GraphId, Vec<usize>>,
    /// The shard each admitted query's depth was charged to, by
    /// sequence number — releases must decrement the shard that was
    /// actually charged, not the recomputed home shard.
    charged: BTreeMap<usize, usize>,
    /// The open batch's sequence numbers.
    open: Vec<usize>,
    open_tick: u64,
    closed: VecDeque<ClosedBatch>,
    in_flight: Option<InFlight>,
    /// Tick the modeled server is next free.
    free_at: u64,
    /// Latest arrival tick seen (monotonicity watermark).
    last_tick: u64,
    /// Batches issued so far (assigns [`ClosedBatch::index`]).
    batch_seq: usize,
    batches: Vec<BatchRecord>,
    mismatch: Option<ReplayMismatch>,
}

/// The three logical-time event kinds, in tie-break priority order at
/// an equal tick: a batch completion releases depth *before* the
/// deadline check closes the open batch, which happens *before* the
/// server picks up new work.
enum Pending {
    Done,
    DeadlineClose,
    ServeStart,
}

impl<'a> Session<'a> {
    fn new(
        cluster: &'a mut PaCluster,
        config: StreamConfig,
        threaded: bool,
        replay: Option<&'a ArrivalLog>,
    ) -> Session<'a> {
        Session {
            cluster,
            config,
            threaded,
            replay,
            arrived: Vec::new(),
            outcomes: Vec::new(),
            depths: BTreeMap::new(),
            replica_sets: BTreeMap::new(),
            charged: BTreeMap::new(),
            open: Vec::new(),
            open_tick: 0,
            closed: VecDeque::new(),
            in_flight: None,
            free_at: 0,
            last_tick: 0,
            batch_seq: 0,
            batches: Vec::new(),
            mismatch: None,
        }
    }

    fn reject(
        &mut self,
        arrival: Arrival,
        reason: RejectReason,
        sink: &mut dyn FnMut(StreamEvent),
    ) {
        let seq = self.outcomes.len();
        sink(StreamEvent::Rejected {
            seq,
            tick: arrival.tick,
            reason,
        });
        self.outcomes.push(StreamOutcome {
            tick: arrival.tick,
            result: Err(reason),
            batch: None,
            done_tick: None,
        });
        self.arrived.push(arrival);
    }

    /// The shard an arrival's admission depth is charged to, with the
    /// depth already held there: the least-loaded member of the
    /// graph's current replica set (ascending shard order breaks
    /// ties), or the home shard when the graph is unsplit.
    fn admission_shard(&self, graph: GraphId, home: usize) -> (usize, usize) {
        let mut best: Option<(usize, usize)> = None;
        if let Some(set) = self.replica_sets.get(&graph) {
            for &shard in set {
                let depth = self.depths.get(&shard).copied().unwrap_or(0);
                if best.is_none_or(|(_, held)| depth < held) {
                    best = Some((shard, depth));
                }
            }
        }
        best.unwrap_or((home, self.depths.get(&home).copied().unwrap_or(0)))
    }

    /// One arrival: advance logical time to its tick (firing every
    /// due close/serve/done event first), then run admission.
    fn on_arrival(&mut self, arrival: Arrival, sink: &mut dyn FnMut(StreamEvent)) {
        if arrival.tick < self.last_tick {
            let reason = RejectReason::TickRegression {
                tick: arrival.tick,
                last: self.last_tick,
            };
            self.reject(arrival, reason, sink);
            return;
        }
        self.last_tick = arrival.tick;
        self.advance(arrival.tick, sink);
        if self.cluster.graph(arrival.graph).is_none() {
            let reason = RejectReason::UnknownGraph(arrival.graph);
            self.reject(arrival, reason, sink);
            return;
        }
        let home = self.cluster.shard_of(arrival.graph);
        let (shard, depth) = self.admission_shard(arrival.graph, home);
        if depth >= self.config.high_water {
            let reason = RejectReason::ShardSaturated {
                shard,
                depth,
                high_water: self.config.high_water,
            };
            self.reject(arrival, reason, sink);
            return;
        }
        *self.depths.entry(shard).or_insert(0) += 1;
        let seq = self.outcomes.len();
        self.charged.insert(seq, shard);
        sink(StreamEvent::Admitted {
            seq,
            tick: arrival.tick,
        });
        if self.open.is_empty() {
            self.open_tick = arrival.tick;
        }
        self.open.push(seq);
        self.outcomes.push(StreamOutcome {
            tick: arrival.tick,
            // Placeholder until the batch serves; every admitted query
            // is served before the report is assembled (or the run
            // aborts into a ReplayMismatch and the report is dropped).
            result: Ok(QueryResponse::Failed(
                crate::dispatch::FailReason::NeverScheduled,
            )),
            batch: None,
            done_tick: None,
        });
        self.arrived.push(arrival);
        if self.open.len() >= self.config.max_batch.max(1) {
            self.close_open(self.last_tick, BatchClose::Size, sink);
        }
    }

    /// Fires every due event up to logical time `now`, in tick order
    /// with the [`Pending`] tie-break.
    fn advance(&mut self, now: u64, sink: &mut dyn FnMut(StreamEvent)) {
        loop {
            if self.mismatch.is_some() {
                return;
            }
            let mut best: Option<(u64, Pending)> = None;
            let mut offer = |tick: u64, kind: Pending| {
                if tick <= now && best.as_ref().is_none_or(|&(t, _)| tick < t) {
                    best = Some((tick, kind));
                }
            };
            if let Some(flight) = &self.in_flight {
                offer(flight.done_tick, Pending::Done);
            }
            if !self.open.is_empty() {
                offer(
                    self.open_tick.saturating_add(self.config.max_wait_ticks),
                    Pending::DeadlineClose,
                );
            }
            if self.in_flight.is_none() {
                if let Some(front) = self.closed.front() {
                    offer(front.close_tick.max(self.free_at), Pending::ServeStart);
                }
            }
            match best {
                None => return,
                Some((_, Pending::Done)) => self.finish_in_flight(sink),
                Some((tick, Pending::DeadlineClose)) => {
                    self.close_open(tick, BatchClose::Deadline, sink);
                }
                Some((tick, Pending::ServeStart)) => self.serve_next(tick, sink),
            }
        }
    }

    /// Moves the open batch onto the closed queue.
    fn close_open(
        &mut self,
        close_tick: u64,
        closed_by: BatchClose,
        sink: &mut dyn FnMut(StreamEvent),
    ) {
        if self.open.is_empty() {
            return;
        }
        let seqs = std::mem::take(&mut self.open);
        let index = self.batch_seq;
        self.batch_seq += 1;
        for &seq in &seqs {
            if let Some(outcome) = self.outcomes.get_mut(seq) {
                outcome.batch = Some(index);
            }
        }
        sink(StreamEvent::BatchClosed {
            batch: index,
            size: seqs.len(),
            closed_by,
            open_tick: self.open_tick,
            close_tick,
        });
        self.closed.push_back(ClosedBatch {
            index,
            seqs,
            open_tick: self.open_tick,
            close_tick,
            closed_by,
        });
    }

    /// The modeled server finished its batch: release the admitted
    /// depth its queries held.
    fn finish_in_flight(&mut self, sink: &mut dyn FnMut(StreamEvent)) {
        let Some(flight) = self.in_flight.take() else {
            return;
        };
        for (shard, count) in flight.releases {
            if let Some(depth) = self.depths.get_mut(&shard) {
                *depth = depth.saturating_sub(count);
            }
        }
        sink(StreamEvent::BatchDone {
            batch: flight.batch,
            done_tick: flight.done_tick,
        });
    }

    /// Executes the next closed batch on the cluster and models its
    /// completion against the deterministic pre-steal plan.
    fn serve_next(&mut self, start: u64, sink: &mut dyn FnMut(StreamEvent)) {
        let Some(batch) = self.closed.pop_front() else {
            return;
        };
        let queries: Vec<(GraphId, Query)> = batch
            .seqs
            .iter()
            .filter_map(|&seq| self.arrived.get(seq))
            .map(|a| (a.graph, a.query.clone()))
            .collect();
        let ticks: Vec<(usize, u64)> = batch
            .seqs
            .iter()
            .filter_map(|&seq| self.arrived.get(seq).map(|a| (seq, a.tick)))
            .collect();
        // Replay: the recorded frame must match this batch exactly
        // before its ServeLog is trusted for placement.
        let mut recorded: Option<&ServeLog> = None;
        if let Some(log) = self.replay {
            let Some(rec) = log.batches.get(batch.index) else {
                self.mismatch = Some(ReplayMismatch {
                    batch: Some(batch.index),
                    detail: format!("the recorded log has only {} batches", log.batches.len()),
                });
                return;
            };
            if rec.open_tick != batch.open_tick
                || rec.close_tick != batch.close_tick
                || rec.closed_by != batch.closed_by
                || rec.queries != ticks
            {
                self.mismatch = Some(ReplayMismatch {
                    batch: Some(batch.index),
                    detail: format!(
                        "batch frame diverged: recorded \
                         [{}..{}] {:?} with {} queries, replayed \
                         [{}..{}] {:?} with {} queries",
                        rec.open_tick,
                        rec.close_tick,
                        rec.closed_by,
                        rec.queries.len(),
                        batch.open_tick,
                        batch.close_tick,
                        batch.closed_by,
                        ticks.len(),
                    ),
                });
                return;
            }
            if rec.serve.assignments.len() != self.cluster.shards() {
                self.mismatch = Some(ReplayMismatch {
                    batch: Some(batch.index),
                    detail: format!(
                        "recorded placement spans {} shards, cluster has {}",
                        rec.serve.assignments.len(),
                        self.cluster.shards()
                    ),
                });
                return;
            }
            recorded = Some(&rec.serve);
        }
        let seqs = &batch.seqs;
        let mut relay = |local: usize, resp: &QueryResponse| {
            if let Some(&seq) = seqs.get(local) {
                sink(StreamEvent::Response {
                    seq,
                    response: resp.clone(),
                });
            }
        };
        let mode = match recorded {
            Some(log) => ExecMode::Replay(log),
            None if self.threaded => ExecMode::Threaded,
            None => ExecMode::Sequential,
        };
        // `plan` is the pre-steal LPT plan — a pure function of (fleet,
        // demand history, batch) — and the latency model's placement.
        let (report, plan) = self.cluster.run_batch(&queries, mode, Some(&mut relay));
        // The record a replayed batch logs is the recorded ServeLog
        // itself (steal events included): the executed placement is
        // checked against it, so the replayed report — the nested
        // logs too — bit-matches the original. A recorded placement
        // that does not fit the batch runs nothing, so it fails here.
        let serve_log = match recorded {
            Some(rec) => {
                if report.log.assignments != rec.assignments {
                    self.mismatch = Some(ReplayMismatch {
                        batch: Some(batch.index),
                        detail: format!(
                            "executed placement {:?} diverged from the recorded {:?}",
                            report.log.assignments, rec.assignments
                        ),
                    });
                    return;
                }
                rec.clone()
            }
            None => report.log,
        };
        // Refresh the replica view for later admissions: a graph this
        // batch *split* admits against its replica set from now on; a
        // graph it served unsplit falls back to home-shard accounting.
        // Fork events are planner output (pre-steal, mode-independent),
        // so replay sees the identical admission sequence.
        for (graph, _) in &queries {
            self.replica_sets.remove(graph);
        }
        for event in &serve_log.forks {
            self.replica_sets.insert(event.graph, event.shards.clone());
        }
        // Model per-query completion: each planned shard retires its
        // queries in order at `work_per_tick` cost units per tick.
        let mut done = start;
        let mut modeled: Vec<Option<u64>> = vec![None; queries.len()];
        for shard_plan in &plan {
            let mut tick = start;
            for &local in shard_plan {
                let work = report
                    .responses
                    .get(local)
                    .map(|resp| {
                        let cost = resp.cost();
                        cost.rounds as u64 + cost.messages
                    })
                    .unwrap_or(0);
                let service = work
                    .checked_div(self.config.work_per_tick)
                    .unwrap_or(work)
                    .max(1);
                tick = tick.saturating_add(service);
                if let Some(slot) = modeled.get_mut(local) {
                    *slot = Some(tick);
                }
                done = done.max(tick);
            }
        }
        for (local, &seq) in batch.seqs.iter().enumerate() {
            // Plan-time failures appear on no shard; model them as
            // instant (the plan answers them before execution).
            let done_tick = modeled.get(local).copied().flatten().unwrap_or(start);
            if let (Some(outcome), Some(resp)) =
                (self.outcomes.get_mut(seq), report.responses.get(local))
            {
                outcome.result = Ok(resp.clone());
                outcome.done_tick = Some(done_tick);
            }
        }
        let mut releases: BTreeMap<usize, usize> = BTreeMap::new();
        for &seq in &batch.seqs {
            // Release the shard admission actually charged (a replica
            // member for split graphs, the home shard otherwise).
            let shard = match self.charged.remove(&seq) {
                Some(shard) => shard,
                None => match self.arrived.get(seq) {
                    Some(a) => self.cluster.shard_of(a.graph),
                    None => continue,
                },
            };
            *releases.entry(shard).or_insert(0) += 1;
        }
        self.batches.push(BatchRecord {
            open_tick: batch.open_tick,
            close_tick: batch.close_tick,
            closed_by: batch.closed_by,
            start_tick: start,
            done_tick: done,
            queries: ticks,
            serve: serve_log,
        });
        self.free_at = done;
        self.in_flight = Some(InFlight {
            batch: batch.index,
            done_tick: done,
            releases,
        });
    }

    /// End of stream: flush the open batch and drain every queued
    /// event to quiescence.
    fn finish(&mut self, sink: &mut dyn FnMut(StreamEvent)) {
        self.advance(self.last_tick, sink);
        self.close_open(self.last_tick, BatchClose::Flush, sink);
        self.advance(u64::MAX, sink);
    }

    fn into_report(self) -> (StreamReport, Option<ReplayMismatch>) {
        let mut stats = StreamStats {
            arrivals: self.outcomes.len() as u64,
            done_tick: self.batches.last().map(|b| b.done_tick).unwrap_or(0),
            engine: self.cluster.stats().engine,
            ..StreamStats::default()
        };
        for outcome in &self.outcomes {
            match outcome.result {
                Ok(_) => stats.admitted += 1,
                Err(_) => stats.rejected += 1,
            }
        }
        stats.batches = self.batches.len() as u64;
        for batch in &self.batches {
            match batch.closed_by {
                BatchClose::Size => stats.size_closes += 1,
                BatchClose::Deadline => stats.deadline_closes += 1,
                BatchClose::Flush => stats.flush_closes += 1,
            }
        }
        (
            StreamReport {
                outcomes: self.outcomes,
                log: ArrivalLog {
                    batches: self.batches,
                },
                stats,
            },
            self.mismatch,
        )
    }
}

/// The streaming front-end: owns a [`PaCluster`] and drives arrival
/// traces (or a live channel) through admission, adaptive batching,
/// and the shared batch core. See the module docs for the full story.
pub struct StreamGateway {
    cluster: PaCluster,
    config: StreamConfig,
}

impl StreamGateway {
    /// A gateway over `cluster` with the given tuning.
    pub fn new(cluster: PaCluster, config: StreamConfig) -> StreamGateway {
        StreamGateway { cluster, config }
    }

    /// The active tuning.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &PaCluster {
        &self.cluster
    }

    fn drive(
        &mut self,
        arrivals: impl Iterator<Item = Arrival>,
        threaded: bool,
        replay: Option<&ArrivalLog>,
        sink: &mut dyn FnMut(StreamEvent),
    ) -> (StreamReport, Option<ReplayMismatch>) {
        let mut session = Session::new(&mut self.cluster, self.config, threaded, replay);
        for arrival in arrivals {
            session.on_arrival(arrival, sink);
        }
        session.finish(sink);
        session.into_report()
    }

    /// Streams `trace` through the gateway with threaded batch
    /// execution (the production mode). The report is bit-identical
    /// to [`StreamGateway::run_sequential`] on the same trace, except
    /// that nested [`ServeLog::steals`] (and stolen placements) may
    /// differ — stealing never changes responses, modeled ticks, or
    /// engine counters.
    pub fn run(&mut self, trace: &[Arrival]) -> StreamReport {
        self.run_with(trace, &mut |_| {})
    }

    /// [`StreamGateway::run`] with a live [`StreamEvent`] sink:
    /// admissions, rejections, batch boundaries, and per-query
    /// responses as they happen.
    pub fn run_with(
        &mut self,
        trace: &[Arrival],
        sink: &mut dyn FnMut(StreamEvent),
    ) -> StreamReport {
        let (report, _) = self.drive(trace.iter().cloned(), true, None, sink);
        report
    }

    /// Streams `trace` with the deterministic sequential executor —
    /// the reference mode replays and tests compare against.
    pub fn run_sequential(&mut self, trace: &[Arrival]) -> StreamReport {
        let (report, _) = self.drive(trace.iter().cloned(), false, None, &mut |_| {});
        report
    }

    /// Live-channel mode: arrivals stream in over `arrivals` (the
    /// run ends when every sender is dropped), progress streams out
    /// as [`StreamEvent`]s over `events` — per-query responses
    /// included, so a caller gets answers while later queries are
    /// still arriving. Identical semantics to [`StreamGateway::run`]
    /// on the equivalent trace slice.
    pub fn run_channel(
        &mut self,
        arrivals: mpsc::Receiver<Arrival>,
        events: &mpsc::Sender<StreamEvent>,
    ) -> StreamReport {
        let mut sink = |event: StreamEvent| {
            // A dropped listener only mutes progress; the report still
            // carries everything.
            let _ = events.send(event);
        };
        let (report, _) = self.drive(arrivals.into_iter(), true, None, &mut sink);
        report
    }

    /// Re-drives `trace` against a recorded [`ArrivalLog`], placing
    /// every batch exactly as recorded (nested [`ServeLog`]s included,
    /// executed on the calling thread like
    /// [`PaCluster::serve_replay`]). On an identically prepared
    /// gateway this reproduces the recorded run **bit-for-bit** —
    /// responses, rejections, batch boundaries, modeled ticks,
    /// placements, engine counters.
    ///
    /// # Errors
    /// [`ReplayMismatch`] if the trace or fleet diverges from what the
    /// log recorded (wrong batch framing, missing batches, foreign
    /// placement). The gateway stops at the divergence; no panic.
    pub fn replay(
        &mut self,
        trace: &[Arrival],
        log: &ArrivalLog,
    ) -> Result<StreamReport, ReplayMismatch> {
        let (report, mismatch) = self.drive(trace.iter().cloned(), false, Some(log), &mut |_| {});
        match mismatch {
            Some(mismatch) => Err(mismatch),
            None => Ok(report),
        }
    }
}

/// Stamps a batch workload with seeded, deterministic arrival ticks:
/// bursty inter-arrival gaps with mean ≈ `mean_gap` ticks (a quarter
/// of arrivals land in a burst at gap 0, the rest draw uniformly from
/// `1..=2·mean_gap`). `mean_gap = 0` puts the whole trace on tick 0.
/// Fully deterministic in `(queries, seed, mean_gap)`.
pub fn stamp_arrivals(queries: Vec<(GraphId, Query)>, seed: u64, mean_gap: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(word_fingerprint([seed, 0x57A3, mean_gap]));
    let mut tick = 0u64;
    queries
        .into_iter()
        .map(|(graph, query)| {
            let gap = if mean_gap == 0 || rng.random::<f64>() < 0.25 {
                0
            } else {
                rng.random_range(1..=mean_gap.saturating_mul(2).max(1))
            };
            tick = tick.saturating_add(gap);
            Arrival { tick, graph, query }
        })
        .collect()
}

/// [`mixed_workload`] stamped with deterministic arrival ticks — the
/// one trace generator the stream harness and the tests share.
pub fn mixed_arrivals(cluster: &PaCluster, count: usize, seed: u64, mean_gap: u64) -> Vec<Arrival> {
    stamp_arrivals(mixed_workload(cluster, count, seed), seed, mean_gap)
}

/// [`zipf_workload`] stamped with deterministic arrival ticks: skewed
/// graph popularity under a bursty arrival process.
pub fn zipf_arrivals(
    cluster: &PaCluster,
    count: usize,
    seed: u64,
    exponent: f64,
    mean_gap: u64,
) -> Vec<Arrival> {
    stamp_arrivals(
        zipf_workload(cluster, count, seed, exponent),
        seed,
        mean_gap,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_graph::gen;

    fn small_cluster(shards: usize) -> PaCluster {
        let mut cluster = PaCluster::new(shards);
        cluster.add_graph(GraphId(1), gen::grid(4, 5));
        cluster.add_graph(GraphId(2), gen::path(18));
        cluster.add_graph(GraphId(3), gen::gnp_connected(20, 0.2, 5));
        cluster
    }

    fn mst_at(tick: u64, graph: u64) -> Arrival {
        Arrival {
            tick,
            graph: GraphId(graph),
            query: Query::Mst,
        }
    }

    #[test]
    fn size_close_splits_a_burst() {
        let config = StreamConfig::new()
            .with_max_batch(2)
            .with_max_wait_ticks(100);
        let mut gateway = StreamGateway::new(small_cluster(2), config);
        let trace: Vec<Arrival> = (0..5).map(|i| mst_at(i, 1 + i % 2)).collect();
        let report = gateway.run(&trace);
        assert_eq!(report.stats.admitted, 5);
        assert_eq!(report.stats.batches, 3);
        assert_eq!(report.stats.size_closes, 2);
        assert_eq!(report.stats.flush_closes, 1, "the odd query flushes");
        assert_eq!(
            report.log.batches[0].queries,
            vec![(0, 0), (1, 1)],
            "batch 0 is the first two arrivals with their ticks"
        );
        assert!(report.outcomes.iter().all(|o| o.result.is_ok()));
    }

    #[test]
    fn deadline_close_bounds_a_trickle() {
        let config = StreamConfig::new()
            .with_max_batch(100)
            .with_max_wait_ticks(10);
        let mut gateway = StreamGateway::new(small_cluster(2), config);
        // Two arrivals inside one window, a straggler far past it.
        let trace = vec![mst_at(0, 1), mst_at(4, 2), mst_at(50, 1)];
        let report = gateway.run(&trace);
        assert_eq!(report.stats.batches, 2);
        assert_eq!(report.stats.deadline_closes, 1);
        assert_eq!(report.stats.flush_closes, 1);
        let first = &report.log.batches[0];
        assert_eq!(
            (first.open_tick, first.close_tick, first.closed_by),
            (0, 10, BatchClose::Deadline),
            "the window closes exactly at open + max_wait"
        );
        // The straggler's latency is not inflated by the early batch.
        assert_eq!(report.outcomes[2].batch, Some(1));
    }

    #[test]
    fn unknown_graph_and_tick_regression_reject_typed() {
        let mut gateway = StreamGateway::new(small_cluster(2), StreamConfig::new());
        let trace = vec![mst_at(5, 1), mst_at(6, 99), mst_at(2, 2)];
        let report = gateway.run(&trace);
        assert!(report.outcomes[0].result.is_ok());
        assert_eq!(
            report.outcomes[1].result,
            Err(RejectReason::UnknownGraph(GraphId(99)))
        );
        assert_eq!(
            report.outcomes[2].result,
            Err(RejectReason::TickRegression { tick: 2, last: 6 })
        );
        assert_eq!(report.stats.rejected, 2);
        // Typed, but the operator diagnostics stay readable.
        assert!(RejectReason::UnknownGraph(GraphId(99))
            .to_string()
            .contains("g99 is not registered"));
        assert!(RejectReason::TickRegression { tick: 2, last: 6 }
            .to_string()
            .contains("regresses"));
        let saturated = RejectReason::ShardSaturated {
            shard: 1,
            depth: 8,
            high_water: 8,
        };
        assert!(saturated.to_string().contains("high water 8"));
    }

    #[test]
    fn backpressure_rejects_until_depth_releases() {
        // One graph, one shard: depth is global. High water 2, and the
        // first batch (size 2) stays in flight long enough that the
        // burst's tail is rejected — then a later arrival, past the
        // modeled done tick, is admitted again.
        let config = StreamConfig::new()
            .with_max_batch(2)
            .with_max_wait_ticks(1000)
            .with_high_water(2)
            .with_work_per_tick(1);
        let mut cluster = PaCluster::new(1);
        cluster.add_graph(GraphId(1), gen::grid(4, 5));
        let mut gateway = StreamGateway::new(cluster, config);
        let trace = vec![
            mst_at(0, 1),
            mst_at(0, 1),
            mst_at(1, 1),         // burst tail: depth still 2 (batch in flight)
            mst_at(1_000_000, 1), // long after the batch drains
        ];
        let report = gateway.run(&trace);
        assert!(report.outcomes[0].result.is_ok());
        assert!(report.outcomes[1].result.is_ok());
        assert!(
            matches!(
                report.outcomes[2].result,
                Err(RejectReason::ShardSaturated {
                    shard: 0,
                    depth: 2,
                    high_water: 2,
                })
            ),
            "{:?}",
            report.outcomes[2].result
        );
        assert!(
            report.outcomes[3].result.is_ok(),
            "depth releases once the batch's modeled window completes"
        );
        assert_eq!(report.rejections().len(), 1);
    }

    #[test]
    fn modeled_ticks_follow_the_plan_and_the_work_rate() {
        let config = StreamConfig::new().with_work_per_tick(0);
        let mut gateway = StreamGateway::new(small_cluster(1), config);
        let trace = vec![mst_at(0, 1), mst_at(0, 1)];
        let report = gateway.run(&trace);
        // work_per_tick 0: each query takes its whole cost in ticks,
        // serially on the single shard.
        let costs: Vec<u64> = report
            .outcomes
            .iter()
            .map(|o| {
                let resp = o.result.as_ref().unwrap();
                resp.cost().rounds as u64 + resp.cost().messages
            })
            .collect();
        assert_eq!(report.outcomes[0].done_tick, Some(costs[0]));
        assert_eq!(report.outcomes[1].done_tick, Some(costs[0] + costs[1]));
        assert_eq!(report.stats.done_tick, costs[0] + costs[1]);
        assert_eq!(report.latency_percentile(0), Some(costs[0]));
        assert_eq!(report.latency_percentile(100), Some(costs[0] + costs[1]));
        assert_eq!(report.latency_percentile(50), Some(costs[0]));
        // An empty report has no percentiles.
        let empty = StreamGateway::new(small_cluster(1), StreamConfig::new()).run(&[]);
        assert_eq!(empty.latency_percentile(50), None);
    }

    #[test]
    fn threaded_and_sequential_runs_agree() {
        let trace = mixed_arrivals(&small_cluster(3), 40, 11, 6);
        let mut threaded = StreamGateway::new(small_cluster(3), StreamConfig::new());
        let mut sequential = StreamGateway::new(small_cluster(3), StreamConfig::new());
        let a = threaded.run(&trace);
        let b = sequential.run_sequential(&trace);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.stats, b.stats);
        // Batch framing matches too; only nested steal placement may
        // differ between the executors.
        for (x, y) in a.log.batches.iter().zip(&b.log.batches) {
            assert_eq!(x.queries, y.queries);
            assert_eq!(
                (
                    x.open_tick,
                    x.close_tick,
                    x.closed_by,
                    x.start_tick,
                    x.done_tick
                ),
                (
                    y.open_tick,
                    y.close_tick,
                    y.closed_by,
                    y.start_tick,
                    y.done_tick
                )
            );
        }
    }

    #[test]
    fn replay_reproduces_a_threaded_run_bit_for_bit() {
        let trace = mixed_arrivals(&small_cluster(3), 48, 23, 4);
        let config = StreamConfig::new()
            .with_max_batch(8)
            .with_max_wait_ticks(12);
        let mut gateway = StreamGateway::new(small_cluster(3), config);
        let mut events = Vec::new();
        let report = gateway.run_with(&trace, &mut |e| events.push(e));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, StreamEvent::Response { .. })),
            "responses stream out per query"
        );
        let mut fresh = StreamGateway::new(small_cluster(3), config);
        let replayed = fresh.replay(&trace, &report.log).expect("log matches");
        // The whole report — outcomes, every batch record including
        // the nested ServeLog placements and steals, stats — is equal.
        assert_eq!(replayed, report);
    }

    #[test]
    fn replay_rejects_a_diverged_trace() {
        let trace = mixed_arrivals(&small_cluster(2), 12, 7, 3);
        let mut gateway = StreamGateway::new(small_cluster(2), StreamConfig::new());
        let report = gateway.run(&trace);
        // Same log, shifted trace: the batch framing diverges.
        let shifted: Vec<Arrival> = trace
            .iter()
            .cloned()
            .map(|mut a| {
                a.tick = a.tick.saturating_add(1);
                a
            })
            .collect();
        let mut fresh = StreamGateway::new(small_cluster(2), StreamConfig::new());
        let err = fresh.replay(&shifted, &report.log).unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        // A truncated log is a typed mismatch too, not a panic.
        let mut truncated = report.log.clone();
        truncated.batches.pop();
        let mut fresh = StreamGateway::new(small_cluster(2), StreamConfig::new());
        assert!(fresh.replay(&trace, &truncated).is_err());
    }

    #[test]
    fn run_channel_streams_events_and_matches_the_slice_run() {
        let trace = mixed_arrivals(&small_cluster(2), 20, 31, 5);
        let (atx, arx) = mpsc::channel::<Arrival>();
        let (etx, erx) = mpsc::channel::<StreamEvent>();
        for a in &trace {
            atx.send(a.clone()).unwrap();
        }
        drop(atx);
        let mut gateway = StreamGateway::new(small_cluster(2), StreamConfig::new());
        let live = gateway.run_channel(arx, &etx);
        drop(etx);
        let events: Vec<StreamEvent> = erx.iter().collect();
        let responses = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Response { .. }))
            .count();
        assert_eq!(responses as u64, live.stats.admitted);
        let batch_events = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::BatchClosed { .. }))
            .count();
        assert_eq!(batch_events as u64, live.stats.batches);
        // The channel run is the slice run.
        let slice = StreamGateway::new(small_cluster(2), StreamConfig::new()).run(&trace);
        assert_eq!(live.outcomes, slice.outcomes);
        assert_eq!(live.stats, slice.stats);
    }

    #[test]
    fn arrival_generators_are_deterministic_and_monotone() {
        let cluster = small_cluster(2);
        let a = mixed_arrivals(&cluster, 30, 5, 8);
        assert_eq!(a, mixed_arrivals(&cluster, 30, 5, 8));
        assert!(a.windows(2).all(|w| w[0].tick <= w[1].tick), "monotone");
        assert!(a.iter().any(|x| x.tick > 0), "gaps actually advance time");
        let z = zipf_arrivals(&cluster, 30, 5, 2.0, 8);
        assert_eq!(z, zipf_arrivals(&cluster, 30, 5, 2.0, 8));
        let hot = cluster.graph_ids()[0];
        assert!(z.iter().filter(|x| x.graph == hot).count() * 2 > z.len());
        // mean_gap 0 is one burst at tick 0.
        assert!(stamp_arrivals(mixed_workload(&cluster, 10, 3), 3, 0)
            .iter()
            .all(|x| x.tick == 0));
    }

    #[test]
    fn replicated_graph_admits_against_its_replica_set() {
        use crate::service::ReplicaPolicy;
        // One hot graph on a 4-shard cluster. After a batch splits the
        // graph over replica shards, later arrivals are charged to the
        // least-loaded replica member — admitting where home-shard
        // accounting (the control fleet) rejects.
        let fleet = |replicas: bool| {
            let mut cluster = PaCluster::new(4);
            cluster.add_graph(GraphId(1), gen::grid(5, 5));
            if replicas {
                cluster.set_replica_policy(ReplicaPolicy::new(0.5, 3));
            }
            cluster
        };
        let config = StreamConfig::new()
            .with_max_batch(3)
            .with_max_wait_ticks(10)
            .with_high_water(4)
            .with_work_per_tick(1);
        // Warm-up solve (batch 0, unsplit: the core is cold), then a
        // burst of three that batch 1 serves split three ways.
        let mut trace = vec![mst_at(0, 1), mst_at(50, 1), mst_at(50, 1), mst_at(50, 1)];
        // Learn batch 1's modeled start tick, then land two probes
        // exactly there: the burst's depth is still held, the split
        // has just been recorded.
        let probe_tick = {
            let report = StreamGateway::new(fleet(true), config).run(&trace);
            report.log.batches[1].start_tick
        };
        trace.push(mst_at(probe_tick, 1));
        trace.push(mst_at(probe_tick, 1));
        let mut gateway = StreamGateway::new(fleet(true), config);
        let report = gateway.run(&trace);
        assert!(
            !report.log.batches[1].serve.forks.is_empty(),
            "the burst batch splits the hot graph"
        );
        assert_eq!(
            report.stats.rejected,
            0,
            "replica-set accounting spreads the held depth: {:?}",
            report.rejections()
        );
        // Control: the same trace with replicas disabled piles every
        // charge on the home shard, and the second probe bounces.
        let mut control_gateway = StreamGateway::new(fleet(false), config);
        let control = control_gateway.run(&trace);
        assert!(control.log.batches[1].serve.forks.is_empty());
        assert!(
            matches!(
                control.outcomes[5].result,
                Err(RejectReason::ShardSaturated { .. })
            ),
            "{:?}",
            control.outcomes[5].result
        );
        // The widened admission stays deterministic: the sequential
        // executor and a bit-for-bit replay agree.
        let sequential = StreamGateway::new(fleet(true), config).run_sequential(&trace);
        assert_eq!(sequential.outcomes, report.outcomes);
        assert_eq!(sequential.stats, report.stats);
        let mut fresh = StreamGateway::new(fleet(true), config);
        let replayed = fresh.replay(&trace, &report.log).expect("log matches");
        assert_eq!(replayed, report);
    }

    #[test]
    fn warm_state_persists_across_batches_like_the_batch_path() {
        // The same queries streamed in two batches must hit the warm
        // cache exactly like two serve() calls would.
        let trace = vec![
            Arrival {
                tick: 0,
                graph: GraphId(1),
                query: Query::Kdom { k: 6 },
            },
            Arrival {
                tick: 100,
                graph: GraphId(1),
                query: Query::Kdom { k: 6 },
            },
        ];
        let config = StreamConfig::new().with_max_wait_ticks(10);
        let mut gateway = StreamGateway::new(small_cluster(2), config);
        let report = gateway.run(&trace);
        assert_eq!(report.stats.batches, 2);
        let mut cluster = small_cluster(2);
        cluster.serve(&[(GraphId(1), Query::Kdom { k: 6 })]);
        let batch = cluster.serve(&[(GraphId(1), Query::Kdom { k: 6 })]);
        assert_eq!(report.stats.engine, batch.stats.engine);
    }
}
