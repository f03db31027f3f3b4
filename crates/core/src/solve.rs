//! Algorithm 1: solving PA given a shortcut and a sub-part division.
//!
//! Phase A broadcasts the leader's message `mᵢ` through the part:
//!
//! 1. the leader routes `mᵢ` up its own sub-part tree to its
//!    representative;
//! 2. for up to `b` iterations: `BlockRoute` spreads `mᵢ` to every
//!    representative of every block containing an informed active
//!    representative (the only step that touches shortcut edges — and only
//!    representatives use it, which is the `Õ(m)` message bound of
//!    Observation 4.3); the informed representatives broadcast down their
//!    sub-part trees; informed nodes notify same-part neighbors across
//!    sub-part boundaries; freshly notified nodes climb to their own
//!    representatives, which become the next iteration's active set.
//!
//! Phase A reads the partition and its infrastructure, never the values,
//! so it runs once per partition ([`run_wave`]) and leaves a
//! [`DeliveryRecord`]: the node that first informed each node, and the
//! order in which nodes were informed. The informers form a spanning
//! forest of the parts rooted at the leaders. Phase B computes `f(Pᵢ)` at
//! the leader by folding the values backwards along the record, each node
//! handing its partial aggregate to its informer after all of its own
//! receivers have; phase C copies each part's result forwards along it.
//! So every answer is what the wave's delivery tree carries, and the fold
//! order does not matter because `f` is commutative and associative
//! (Definition 1.1). Phase B is the wave run in reverse (every broadcast
//! becomes an aggregating convergecast with identical round and message
//! counts) and phase C replays it, so each is charged the measured cost of
//! phase A: a solve costs 3 × A.
//!
//! The deterministic variant runs `BlockRoute` at CONGEST capacity 1 with
//! the Lemma 4.2 tie-breaking. The randomized variant (Section 4.2)
//! staggers parts by an independent uniform delay in `[c]` and runs
//! meta-rounds of `⌈log₂ n⌉` CONGEST rounds each, letting every edge
//! flush its `O(log n)` queued messages — `O(D log n)` rounds per block
//! iteration plus the one-off delay, i.e. `Õ(bD + c)` in total.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rmo_congest::router::{DowncastBatch, RouterScratch, TreeRouter, UpcastBatch};
use rmo_congest::CostReport;
use rmo_graph::{num::ceil_log2, Graph, NodeId, Partition, RootedTree};
use rmo_shortcut::Shortcut;

use crate::aggregate::Aggregate;
use crate::instance::{PaError, PaInstance};
use crate::subparts::SubPartDivision;

/// Which variant of Algorithm 1 to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Lemma 4.2 tie-breaking at capacity 1: `Õ(b(D + c))` rounds.
    Deterministic,
    /// Random part delays + `O(log n)` meta-rounds: `Õ(bD + c)` rounds
    /// w.h.p.
    Randomized {
        /// Seed for the per-part delays.
        seed: u64,
    },
}

/// The outcome of a PA run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaResult {
    /// Aggregate per part: what its leader folded in phase B.
    pub aggregates: Vec<u64>,
    /// Aggregate delivered at each node in phase C (its part's
    /// aggregate).
    pub node_values: Vec<u64>,
    /// Total charged cost: phase A's measured cost, once per phase.
    pub cost: CostReport,
    /// Cost of the broadcast wave alone (phase A) — what Algorithm 2
    /// charges per verification.
    pub broadcast_cost: CostReport,
    /// Block iterations each part needed (≤ its block count).
    pub iterations_per_part: Vec<usize>,
}

impl PaResult {
    /// The aggregate value node `v` learned.
    pub fn value_at(&self, v: NodeId) -> u64 {
        self.node_values[v]
    }
}

impl Default for PaResult {
    /// An empty result buffer for [`solve_with`] to fill; its vectors are
    /// recycled across solves.
    fn default() -> PaResult {
        PaResult {
            aggregates: Vec::new(),
            node_values: Vec::new(),
            cost: CostReport::zero(),
            broadcast_cost: CostReport::zero(),
            iterations_per_part: Vec::new(),
        }
    }
}

/// Borrowed views of the infrastructure one Algorithm 1 run needs: the
/// BFS tree, the tree-restricted shortcut, the sub-part division, the
/// part leaders, and the block-iteration budget `b`.
///
/// Grouping these replaces the old seven-positional-argument entry
/// points; [`crate::engine::PaEngine`] builds and caches the owned
/// counterparts and hands out setups per partition.
#[derive(Debug, Clone, Copy)]
pub struct PaSetup<'a> {
    /// The (global BFS) spanning tree the shortcut restricts to.
    pub tree: &'a RootedTree,
    /// The tree-restricted shortcut.
    pub shortcut: &'a Shortcut,
    /// The sub-part division (Algorithm 3 or 6 output).
    pub division: &'a SubPartDivision,
    /// `leaders[i]` — the known leader `lᵢ` of part `i` (Appendix B
    /// removes this assumption; see [`crate::leaderless`]).
    pub leaders: &'a [NodeId],
    /// The bound `b` on block iterations; pass the shortcut's
    /// (terminal-)block parameter.
    pub block_budget: usize,
}

/// Runs Algorithm 1 on prepared infrastructure: phase A on a fresh
/// [`WavePlan`], then [`solve_with`] on its outcome with a fresh
/// [`SolveScratch`]. Repeated solves over one partition should keep the
/// outcome and the scratch (what [`crate::engine::PaEngine`] does).
///
/// # Errors
/// [`PaError::BlockBudgetExceeded`] if some part is not covered within
/// `setup.block_budget` iterations — the failure Algorithm 2 detects.
pub fn solve_on(
    inst: &PaInstance<'_>,
    setup: &PaSetup<'_>,
    variant: Variant,
) -> Result<PaResult, PaError> {
    let wave = broadcast_wave_outcome(inst.graph(), inst.partition(), setup, variant);
    let mut out = PaResult::default();
    solve_with(inst, setup, &wave, &mut SolveScratch::new(), &mut out)?;
    Ok(out)
}

/// Runs phases B and C of Algorithm 1 on a recorded phase A, into a
/// reusable result buffer: once `scratch` and `out` have grown to the
/// graph's size, a solve performs no heap allocation.
///
/// `wave` must be phase A run (by [`run_wave`] or
/// [`broadcast_wave_outcome`]) on exactly the instance's partition and
/// this `setup`; the charged cost and the iteration counts are its own.
///
/// # Errors
/// [`PaError::BlockBudgetExceeded`] if the wave left some part uncovered
/// within `setup.block_budget` iterations.
pub fn solve_with(
    inst: &PaInstance<'_>,
    setup: &PaSetup<'_>,
    wave: &WaveOutcome,
    scratch: &mut SolveScratch,
    out: &mut PaResult,
) -> Result<(), PaError> {
    if let Some(v) = wave.informed.iter().position(|&i| !i) {
        return Err(PaError::BlockBudgetExceeded {
            part: inst.partition().part_of(v),
            budget: setup.block_budget,
        });
    }
    // Phase B runs the wave in reverse and phase C replays it: each costs
    // what phase A measured.
    out.cost = wave.cost.repeated(3);
    out.broadcast_cost = wave.cost;
    out.iterations_per_part.clear();
    out.iterations_per_part
        .extend_from_slice(&wave.iterations_per_part);
    // Phase B: each leader ends up holding its part's fold.
    let acc = &mut scratch.acc;
    acc.clear();
    acc.extend_from_slice(inst.values());
    wave.record.convergecast(inst.aggregate(), acc);
    out.aggregates.clear();
    out.aggregates.extend(
        setup
            .leaders
            .iter()
            .map(|&l| acc.get(l).copied().unwrap_or(0)),
    );
    // Phase C: every node learns its informer's value, leaders first.
    let PaResult {
        aggregates,
        node_values,
        ..
    } = out;
    node_values.clear();
    node_values.resize(inst.graph().n(), 0);
    for (&l, &a) in setup.leaders.iter().zip(aggregates.iter()) {
        if let Some(slot) = node_values.get_mut(l) {
            *slot = a;
        }
    }
    wave.record.broadcast(node_values);
    Ok(())
}

/// One global iteration of the wave, for tracing (Figure 4 of the paper
/// shows exactly this progression).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaveIteration {
    /// Blocks routed by `BlockRoute` this iteration.
    pub blocks_routed: usize,
    /// Sub-parts that spread their message this iteration.
    pub subparts_spread: usize,
    /// Total nodes informed after this iteration.
    pub informed_after: usize,
    /// Representatives active (set `A`) entering the next iteration.
    pub active_after: usize,
}

/// Outcome of the phase-A wave: its cost, the per-part iteration counts,
/// which nodes were informed (Algorithm 2 reads this directly), which
/// parts ran out of budget, and the delivery record phases B and C
/// replay.
///
/// None of it depends on the values, so [`crate::engine::PaEngine`]
/// keeps one per cached partition (in
/// [`crate::pipeline::PipelineArtifacts`]) and every solve replays it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveOutcome {
    /// Measured cost of the wave.
    pub cost: CostReport,
    /// Block iterations per part.
    pub iterations_per_part: Vec<usize>,
    /// Nodes informed (all true on success).
    pub informed: Vec<bool>,
    /// `exhausted[p]` — whether part `p` still had active representatives
    /// when its iteration count reached the block budget, and so stopped.
    pub exhausted: Vec<bool>,
    /// Per-global-iteration trace.
    pub trace: Vec<WaveIteration>,
    /// Who informed whom, and in which order.
    pub record: DeliveryRecord,
}

impl WaveOutcome {
    /// Whether running the wave again on the same plan and setup, at
    /// block budget `budget`, would repeat this one step for step.
    ///
    /// [`run_wave`] reads the budget in two places only: the per-part
    /// check, which stops a part with active representatives once its
    /// iteration count reaches the budget, and the global cap of
    /// `budget + blocks + 2` iterations. A part is active in iterations
    /// `1..=k` and never again, where `k` is its iteration count, so if
    /// no part was stopped and every `k ≤ budget`, neither place binds at
    /// `budget` either (the cap exceeds every `k` by at least 2).
    pub(crate) fn repeats_at(&self, budget: usize) -> bool {
        !self.exhausted.contains(&true)
            && self.iterations_per_part.iter().all(|&k| k <= budget.max(1))
    }
}

/// The informer slot of a node nobody informed: a leader, or a node the
/// wave never reached.
const NO_INFORMER: NodeId = NodeId::MAX;

/// The value-blind delivery tree of one phase-A run.
///
/// A node's informer is the node that first delivered `mᵢ` to it: the
/// leader for its representative (line 8), the first source of the
/// routed block for a block terminal (step 1), the sub-part parent for a
/// sub-part member (step 2), the notifying neighbor across a sub-part
/// boundary (step 3), and the climbing node for a representative reached
/// by a climb (step 4). Leaders have no informer. `order` lists the
/// informed nodes in the order they were first informed, so every node
/// comes after its informer; on a successful wave it holds every node
/// once, and the informers form a spanning forest of the parts rooted at
/// the leaders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Informer per node, [`NO_INFORMER`] for leaders and unreached nodes.
    informer: Vec<NodeId>,
    /// Informed nodes in delivery order.
    order: Vec<NodeId>,
}

impl DeliveryRecord {
    /// The node that first informed `v`: `None` for a leader and for a
    /// node the wave never reached.
    pub fn informer(&self, v: NodeId) -> Option<NodeId> {
        self.informer.get(v).copied().filter(|&u| u != NO_INFORMER)
    }

    /// The informed nodes, in the order they were first informed.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Phase B: walks the order backwards and folds each node's partial
    /// aggregate into its informer's, so a node is folded only after all
    /// the nodes it informed. Afterwards each leader's slot holds the
    /// fold of its whole delivery tree.
    ///
    /// `agg` is matched once, outside the loop, and each arm runs the
    /// loop with its variant fixed, so the per-node step is the bare
    /// operation. The warm solve's speed then does not hang on whether
    /// the optimizer unswitches a per-node match, a choice that under
    /// LTO can change with unrelated code.
    fn convergecast(&self, agg: Aggregate, acc: &mut [u64]) {
        match agg {
            Aggregate::Min => self.fold_up(acc, |a, b| Aggregate::Min.apply(a, b)),
            Aggregate::Max => self.fold_up(acc, |a, b| Aggregate::Max.apply(a, b)),
            Aggregate::Sum => self.fold_up(acc, |a, b| Aggregate::Sum.apply(a, b)),
            Aggregate::Xor => self.fold_up(acc, |a, b| Aggregate::Xor.apply(a, b)),
            Aggregate::Or => self.fold_up(acc, |a, b| Aggregate::Or.apply(a, b)),
        }
    }

    /// [`DeliveryRecord::convergecast`] with the fold `f`.
    fn fold_up(&self, acc: &mut [u64], f: impl Fn(u64, u64) -> u64) {
        for &v in self.order.iter().rev() {
            let (Some(u), Some(&x)) = (self.informer(v), acc.get(v)) else {
                continue;
            };
            if let Some(slot) = acc.get_mut(u) {
                *slot = f(*slot, x);
            }
        }
    }

    /// Phase C: walks the order forwards and copies each informer's value
    /// to the node it informed, so the leaders' values reach every node.
    fn broadcast(&self, values: &mut [u64]) {
        for &v in &self.order {
            let Some(x) = self.informer(v).and_then(|u| values.get(u).copied()) else {
                continue;
            };
            if let Some(slot) = values.get_mut(v) {
                *slot = x;
            }
        }
    }
}

/// Delivers `mᵢ` to `v`, from `by` ([`NO_INFORMER`] at a leader). The
/// first delivery marks `v` informed and records it; returns whether
/// this was it.
fn deliver(informed: &mut [bool], record: &mut DeliveryRecord, v: NodeId, by: NodeId) -> bool {
    match informed.get_mut(v) {
        Some(seen) if !*seen => {
            *seen = true;
            if let Some(slot) = record.informer.get_mut(v) {
                *slot = by;
            }
            record.order.push(v);
            true
        }
        _ => false,
    }
}

/// Runs phase A (the broadcast wave) on a fresh [`WavePlan`] and reports
/// the outcome without failing on budget overruns — Algorithm 2 needs
/// the raw outcome. The wave reads the graph and the partition, never
/// the values.
pub fn broadcast_wave_outcome(
    g: &Graph,
    parts: &Partition,
    setup: &PaSetup<'_>,
    variant: Variant,
) -> WaveOutcome {
    let plan = WavePlan::build(g, setup.tree, setup.shortcut, setup.division, parts);
    run_wave(g, parts, setup, &plan, variant)
}

/// The partition-level routing plan of the wave: the terminal-block
/// structure (block roots, terminals, rep→block map), the largest
/// per-part block count, and the shortcut's congestion estimate for the
/// randomized variant's delays.
///
/// This is everything [`run_wave`] needs beyond the [`PaSetup`] views.
/// [`crate::pipeline::build_artifacts`] builds one per doubling sweep,
/// verifies the sweep's shortcut on it, and runs the cached partition's
/// wave on the last one.
#[derive(Debug, Clone, Default)]
pub struct WavePlan {
    /// Routing root per block.
    block_root: Vec<NodeId>,
    /// CSR offsets into `term` (length `blocks + 1`).
    term_off: Vec<usize>,
    /// Block terminals, concatenated.
    term: Vec<NodeId>,
    /// Block of each representative (`usize::MAX` for non-reps).
    block_of_rep: Vec<usize>,
    /// Largest number of blocks of one part.
    max_part_blocks: usize,
    /// Max shortcut congestion over all edges (randomized delays).
    c_est: usize,
}

impl WavePlan {
    /// Builds the plan for one partition: per part, either singleton
    /// blocks per representative (direct parts — the wave spreads via
    /// part edges only) or the shortcut's terminal blocks.
    pub fn build(
        g: &Graph,
        tree: &RootedTree,
        shortcut: &Shortcut,
        division: &SubPartDivision,
        parts: &Partition,
    ) -> WavePlan {
        let mut plan = WavePlan {
            block_of_rep: vec![usize::MAX; g.n()],
            term_off: vec![0],
            ..WavePlan::default()
        };
        for p in parts.part_ids() {
            let reps = division.reps_of_part(p);
            let first = plan.block_root.len();
            if shortcut.is_direct(p) {
                for &r in reps {
                    let id = plan.block_root.len();
                    plan.block_root.push(r);
                    plan.term.push(r);
                    plan.term_off.push(plan.term.len());
                    if let Some(slot) = plan.block_of_rep.get_mut(r) {
                        *slot = id;
                    }
                }
            } else {
                for b in shortcut.blocks_for_terminals(g, tree, p, reps) {
                    let id = plan.block_root.len();
                    for &t in &b.part_nodes {
                        if let Some(slot) = plan.block_of_rep.get_mut(t) {
                            *slot = id;
                        }
                    }
                    plan.block_root.push(b.root);
                    plan.term.extend_from_slice(&b.part_nodes);
                    plan.term_off.push(plan.term.len());
                }
            }
            plan.max_part_blocks = plan.max_part_blocks.max(plan.block_root.len() - first);
        }
        plan.c_est = shortcut.congestion_map(g).into_iter().max().unwrap_or(0);
        plan
    }

    /// The terminal-block budget Algorithm 1 needs on this plan: the
    /// largest number of blocks of one part, and at least 1.
    pub fn block_budget(&self) -> usize {
        self.max_part_blocks.max(1)
    }

    fn num_blocks(&self) -> usize {
        self.block_root.len()
    }

    fn block_of(&self, r: NodeId) -> usize {
        self.block_of_rep.get(r).copied().unwrap_or(usize::MAX)
    }

    fn root_of(&self, b: usize) -> NodeId {
        self.block_root.get(b).copied().unwrap_or(0)
    }

    fn terminals(&self, b: usize) -> &[NodeId] {
        let lo = self.term_off.get(b).copied().unwrap_or(self.term.len());
        let hi = self.term_off.get(b + 1).copied().unwrap_or(self.term.len());
        self.term.get(lo..hi).unwrap_or(&[])
    }
}

/// Marks `r` informed-as-representative; true if it was new.
fn rep_insert(rep_in: &mut [bool], rep_list: &mut Vec<NodeId>, r: NodeId) -> bool {
    match rep_in.get_mut(r) {
        Some(slot) if !*slot => {
            *slot = true;
            rep_list.push(r);
            true
        }
        _ => false,
    }
}

/// Reusable state for allocation-free solves: the accumulator phase B
/// folds in. One instance serves any number of solves over any
/// partitions; it grows to the largest graph and stays.
#[derive(Debug, Default)]
pub struct SolveScratch {
    acc: Vec<u64>,
}

impl SolveScratch {
    /// A fresh scratch; the accumulator grows on first use and is
    /// recycled after.
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }
}

/// Runs phase A (the broadcast wave) on `plan`, which must have been
/// built for `parts` and the setup's tree, shortcut and division, and
/// records who informed whom. Like [`broadcast_wave_outcome`], it reports
/// budget overruns in the outcome instead of failing.
pub fn run_wave(
    g: &Graph,
    parts: &Partition,
    setup: &PaSetup<'_>,
    plan: &WavePlan,
    variant: Variant,
) -> WaveOutcome {
    let PaSetup {
        tree,
        shortcut: _,
        division,
        leaders,
        block_budget,
    } = *setup;
    let n = g.n();
    let np = parts.num_parts();
    let nb = plan.num_blocks();
    assert_eq!(leaders.len(), np, "one leader per part");

    // Randomized variant setup: capacity, meta-round factor, part delays.
    let (capacity, meta_factor, max_delay) = match variant {
        Variant::Deterministic => (1usize, 1usize, 0usize),
        Variant::Randomized { seed } => {
            let k = ceil_log2(n.max(2)).max(1);
            let c_est = plan.c_est;
            let mut rng = StdRng::seed_from_u64(seed);
            let max_delay = if c_est > 1 {
                // Each part delays itself uniformly in [c]; only the max
                // delay shows up in the global round count.
                (0..np)
                    .map(|_| rng.random_range(0..c_est))
                    .max()
                    .unwrap_or(0)
            } else {
                0
            };
            (k, k, max_delay)
        }
    };
    let router = TreeRouter::with_capacity(tree, capacity);
    let mut rscratch = RouterScratch::default();
    let mut up = UpcastBatch::default();
    let mut down = DowncastBatch::default();

    let mut informed = vec![false; n];
    let mut record = DeliveryRecord {
        informer: vec![NO_INFORMER; n],
        order: Vec::with_capacity(n),
    };
    let mut iterations = vec![0usize; np];
    let mut trace = Vec::new();
    // Informed-representative set: membership bits + insertion list.
    let mut rep_in = vec![false; n];
    let mut rep_list: Vec<NodeId> = Vec::new();
    let mut subpart_spread = vec![false; division.num_subparts()];
    let mut block_done = vec![false; nb];
    let mut exhausted = vec![false; np];
    let mut active: Vec<Vec<NodeId>> = vec![Vec::new(); np];
    // `(block, seq, rep)` triples of one part's active reps; sorting
    // groups them by ascending block, reps in active order.
    let mut srcs: Vec<(usize, usize, NodeId)> = Vec::new();
    // `(block, first source)` of every block routed this iteration.
    let mut touched_blocks: Vec<(usize, NodeId)> = Vec::new();
    let mut spreading: Vec<usize> = Vec::new();
    let mut newly_touched: Vec<NodeId> = Vec::new();
    // A member's uninformed ancestors, bottom-up (step 2).
    let mut path: Vec<NodeId> = Vec::new();
    // Climb dedup stamps, per node: `climb_stamp[v] == gen` means `v`'s
    // parent edge was already charged in global iteration `gen`.
    let mut climb_stamp = vec![0usize; n];

    let mut rounds = max_delay;
    let mut messages = 0u64;

    // Line 8: route m_i from l_i to r(l_i) along the sub-part tree.
    let mut init_rounds = 0usize;
    for p in parts.part_ids() {
        let Some(&li) = leaders.get(p) else { continue };
        deliver(&mut informed, &mut record, li, NO_INFORMER);
        let r = division.rep_of(li);
        messages += division.depth_of(li) as u64;
        init_rounds = init_rounds.max(division.depth_of(li));
        deliver(&mut informed, &mut record, r, li);
        rep_insert(&mut rep_in, &mut rep_list, r);
        if let Some(a) = active.get_mut(p) {
            a.push(r);
        }
    }
    rounds += init_rounds;

    // The wave. Global iterations run all parts in lockstep; per-part
    // iteration counters enforce the block budget individually.
    let global_cap = block_budget.max(1) + nb + 2;
    for gen in 1..=global_cap {
        if active.iter().all(Vec::is_empty) {
            break;
        }
        // --- Step 1 (lines 11-12): BlockRoute on the active reps. ---
        up.clear();
        down.clear();
        touched_blocks.clear();
        for p in parts.part_ids() {
            let Some(act) = active.get_mut(p) else {
                continue;
            };
            if act.is_empty() {
                continue;
            }
            let Some(it) = iterations.get_mut(p) else {
                continue;
            };
            if *it >= block_budget.max(1) {
                // Budget exhausted: the part stops participating entirely
                // (Algorithm 2 relies on this to detect oversized block
                // parameters).
                act.clear();
                if let Some(e) = exhausted.get_mut(p) {
                    *e = true;
                }
                continue;
            }
            *it += 1;
            srcs.clear();
            for (seq, &r) in act.iter().enumerate() {
                let b = plan.block_of(r);
                debug_assert!(b != usize::MAX, "active rep {r} has a block");
                if !block_done.get(b).copied().unwrap_or(true) {
                    srcs.push((b, seq, r));
                }
            }
            srcs.sort_unstable();
            for grp in srcs.chunk_by(|a, b| a.0 == b.0) {
                let Some(&(b, _, first)) = grp.first() else {
                    continue;
                };
                if let Some(d) = block_done.get_mut(b) {
                    *d = true;
                }
                touched_blocks.push((b, first));
                let root = plan.root_of(b);
                up.begin_job(b, root);
                for &(_, _, r) in grp {
                    up.push_source(r, 1);
                }
                down.begin_job(b, root, 1);
                for &t in plan.terminals(b) {
                    down.push_destination(t);
                }
            }
            act.clear();
        }
        if !up.is_empty() {
            let up_cost = router.upcast_batch(&up, &mut rscratch, |a, _| a);
            let down_cost = router.downcast_batch(&down, &mut rscratch);
            rounds += (up_cost.rounds + down_cost.rounds) * meta_factor;
            messages += up_cost.messages + down_cost.messages;
        }
        // All terminals of a routed block are now informed representatives;
        // step 2 below spreads every informed rep's un-spread sub-part.
        for &(b, first) in touched_blocks.iter() {
            for &t in plan.terminals(b) {
                deliver(&mut informed, &mut record, t, first);
                rep_insert(&mut rep_in, &mut rep_list, t);
            }
        }

        // --- Step 2 (lines 13-14): informed reps broadcast in their sub-parts. ---
        let mut step2_depth = 0usize;
        spreading.clear();
        for &r in rep_list.iter() {
            let s = division.subpart_of(r);
            if !subpart_spread.get(s).copied().unwrap_or(true)
                && !exhausted
                    .get(division.part_of_subpart(s))
                    .copied()
                    .unwrap_or(true)
            {
                spreading.push(s);
            }
        }
        spreading.sort_unstable();
        spreading.dedup();
        for &s in spreading.iter() {
            if let Some(sp) = subpart_spread.get_mut(s) {
                *sp = true;
            }
            step2_depth = step2_depth.max(division.subpart_depth(s));
            messages += (division.members(s).len() - 1) as u64;
            for &v in division.members(s) {
                // Members come in node-id order, so a member may precede
                // its sub-part parent: deliver its uninformed ancestors
                // first, top-down from the informed one.
                path.clear();
                let mut cur = v;
                while !informed.get(cur).copied().unwrap_or(true) {
                    path.push(cur);
                    let Some(parent) = division.parent_of(cur) else {
                        break;
                    };
                    cur = parent;
                }
                for &u in path.iter().rev() {
                    let parent = division.parent_of(u).unwrap_or(NO_INFORMER);
                    deliver(&mut informed, &mut record, u, parent);
                }
            }
        }
        rounds += step2_depth;

        // --- Step 3 (line 15): notify across sub-part boundaries. ---
        newly_touched.clear();
        if !spreading.is_empty() {
            rounds += 1;
        }
        for &s in spreading.iter() {
            let p = division.part_of_subpart(s);
            for &u in division.members(s) {
                for (v, _) in g.neighbors(u) {
                    if parts.part_of(v) == p && division.subpart_of(v) != s {
                        messages += 1;
                        if deliver(&mut informed, &mut record, v, u) {
                            newly_touched.push(v);
                        }
                    }
                }
            }
        }

        // --- Step 4 (lines 16-18): climb to representatives. ---
        let mut climb_count = 0u64;
        let mut step4_depth = 0usize;
        newly_touched.sort_unstable();
        newly_touched.dedup();
        for &v in newly_touched.iter() {
            let s = division.subpart_of(v);
            if subpart_spread.get(s).copied().unwrap_or(false) {
                continue;
            }
            step4_depth = step4_depth.max(division.depth_of(v));
            let mut cur = v;
            while let Some(parent) = division.parent_of(cur) {
                match climb_stamp.get_mut(cur) {
                    Some(st) if *st == gen => break, // merged with an earlier climb
                    Some(st) => {
                        *st = gen;
                        climb_count += 1;
                    }
                    None => break,
                }
                cur = parent;
            }
            let r = division.rep_of(v);
            deliver(&mut informed, &mut record, r, v);
            if rep_insert(&mut rep_in, &mut rep_list, r) {
                let p = division.part_of_subpart(s);
                if let Some(a) = active.get_mut(p) {
                    if !a.contains(&r) {
                        a.push(r);
                    }
                }
            }
        }
        messages += climb_count;
        rounds += step4_depth;
        trace.push(WaveIteration {
            blocks_routed: touched_blocks.len(),
            subparts_spread: spreading.len(),
            informed_after: record.order.len(),
            active_after: active.iter().map(Vec::len).sum(),
        });
    }

    WaveOutcome {
        cost: CostReport::with_capacity(rounds, messages, capacity),
        iterations_per_part: iterations,
        informed,
        exhausted,
        trace,
        record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Aggregate;
    use crate::subparts::SubPartDivision;
    use rmo_graph::{bfs_tree, gen, Partition};
    use rmo_shortcut::trivial::trivial_shortcut_with_threshold;
    use rmo_shortcut::Shortcut;

    fn min_leaders(parts: &Partition) -> Vec<NodeId> {
        parts.part_ids().map(|p| parts.members(p)[0]).collect()
    }

    fn run(
        inst: &PaInstance<'_>,
        tree: &RootedTree,
        shortcut: &Shortcut,
        division: &SubPartDivision,
        leaders: &[NodeId],
        variant: Variant,
        block_budget: usize,
    ) -> Result<PaResult, PaError> {
        solve_on(
            inst,
            &PaSetup {
                tree,
                shortcut,
                division,
                leaders,
                block_budget,
            },
            variant,
        )
    }

    /// Full-tree shortcut + one-sub-part-per-part division: the simplest
    /// valid configuration (b = 1).
    fn simple_setup(
        g: &rmo_graph::Graph,
        parts: &Partition,
    ) -> (RootedTree, Shortcut, SubPartDivision, Vec<NodeId>) {
        let (tree, _) = bfs_tree(g, 0);
        let sc = trivial_shortcut_with_threshold(&tree, parts, 1);
        let leaders = min_leaders(parts);
        let division = SubPartDivision::one_per_part(g, parts, &leaders);
        (tree, sc, division, leaders)
    }

    #[test]
    fn grid_rows_min_aggregate() {
        let g = gen::grid(6, 6);
        let parts = Partition::new(&g, gen::grid_row_partition(6, 6)).unwrap();
        let values: Vec<u64> = (0..36).map(|v| (v as u64 * 7919) % 1000).collect();
        let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Min).unwrap();
        let (tree, sc, division, leaders) = simple_setup(&g, &parts);
        let res = run(
            &inst,
            &tree,
            &sc,
            &division,
            &leaders,
            Variant::Deterministic,
            1,
        )
        .unwrap();
        for v in 0..36 {
            assert_eq!(res.value_at(v), inst.reference_aggregate_of(v));
        }
        assert!(res.iterations_per_part.iter().all(|&i| i <= 1));
    }

    #[test]
    fn all_aggregates_work() {
        let g = gen::cycle(12);
        let parts = Partition::new(&g, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]).unwrap();
        for f in Aggregate::all() {
            let values: Vec<u64> = (0..12).map(|v| (v as u64).wrapping_mul(37) % 50).collect();
            let inst = PaInstance::from_partition(&g, parts.clone(), values, f).unwrap();
            let (tree, sc, division, leaders) = simple_setup(&g, &parts);
            let res = run(
                &inst,
                &tree,
                &sc,
                &division,
                &leaders,
                Variant::Deterministic,
                1,
            )
            .unwrap();
            for p in parts.part_ids() {
                assert_eq!(res.aggregates[p], inst.reference_aggregate(p), "{f:?}");
            }
        }
    }

    #[test]
    fn randomized_variant_matches_reference() {
        let g = gen::grid(5, 8);
        let parts = Partition::new(&g, gen::grid_row_partition(5, 8)).unwrap();
        let values: Vec<u64> = (0..40).collect();
        let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Sum).unwrap();
        let (tree, sc, division, leaders) = simple_setup(&g, &parts);
        let res = run(
            &inst,
            &tree,
            &sc,
            &division,
            &leaders,
            Variant::Randomized { seed: 5 },
            1,
        )
        .unwrap();
        for v in 0..40 {
            assert_eq!(res.value_at(v), inst.reference_aggregate_of(v));
        }
        assert!(
            res.cost.capacity_multiplier > 1,
            "meta-rounds use batched capacity"
        );
    }

    #[test]
    fn direct_parts_spread_without_shortcut() {
        // Empty shortcut: singleton blocks, wave spreads via part edges
        // between sub-parts.
        let g = gen::path(24);
        let parts = Partition::new(&g, gen::path_blocks(24, 8)).unwrap();
        let values: Vec<u64> = (0..24).collect();
        let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Max).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = Shortcut::empty(parts.num_parts());
        let leaders = min_leaders(&parts);
        let division = SubPartDivision::one_per_part(&g, &parts, &leaders);
        let res = run(
            &inst,
            &tree,
            &sc,
            &division,
            &leaders,
            Variant::Deterministic,
            1,
        )
        .unwrap();
        for p in parts.part_ids() {
            assert_eq!(res.aggregates[p], inst.reference_aggregate(p));
        }
    }

    #[test]
    fn budget_zero_like_failure_detected() {
        // A part with two sub-parts and NO shortcut needs >= 2 iterations;
        // budget 1 must fail...  unless the leader's sub-part alone covers
        // it. Build a path with a 2-sub-part division by hand.
        let g = gen::path(8);
        let parts = Partition::whole(&g).unwrap();
        let values = vec![1u64; 8];
        let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Sum).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = Shortcut::empty(1);
        // Two sub-parts: {0..3} rep 0, {4..7} rep 4.
        let division = SubPartDivision::new(
            &g,
            &parts,
            vec![0, 0, 0, 0, 1, 1, 1, 1],
            vec![
                None,
                Some(0),
                Some(1),
                Some(2),
                None,
                Some(4),
                Some(5),
                Some(6),
            ],
            vec![0, 4],
        )
        .unwrap();
        // Budget 2 suffices: leader's sub-part spreads (iter 1), neighbor
        // notification reaches node 4's sub-part, which spreads in iter 2.
        let ok = run(
            &inst,
            &tree,
            &sc,
            &division,
            &[0],
            Variant::Deterministic,
            2,
        );
        assert!(ok.is_ok());
        // Budget 1: the second sub-part's rep never gets to spread.
        let err = run(
            &inst,
            &tree,
            &sc,
            &division,
            &[0],
            Variant::Deterministic,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, PaError::BlockBudgetExceeded { .. }));
    }

    #[test]
    fn message_cost_linear_for_simple_setup() {
        let g = gen::grid(8, 8);
        let parts = Partition::new(&g, gen::grid_row_partition(8, 8)).unwrap();
        let values: Vec<u64> = (0..64).collect();
        let inst = PaInstance::from_partition(&g, parts.clone(), values, Aggregate::Min).unwrap();
        let (tree, sc, division, leaders) = simple_setup(&g, &parts);
        let res = run(
            &inst,
            &tree,
            &sc,
            &division,
            &leaders,
            Variant::Deterministic,
            1,
        )
        .unwrap();
        // Õ(m): with b=1 and one sub-part per part, each phase is O(n + m)
        // plus one BlockRoute (O(#reps * D)).
        let bound = 3 * (4 * g.m() as u64 + 8 * 64);
        assert!(
            res.cost.messages <= bound,
            "messages {} > {bound}",
            res.cost.messages
        );
    }

    #[test]
    fn wave_trace_shows_monotone_progress() {
        let g = gen::path(32);
        let parts = Partition::whole(&g).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = Shortcut::empty(1);
        let mut parent: Vec<Option<NodeId>> = Vec::new();
        for v in 0..32usize {
            parent.push(if v % 8 == 0 { None } else { Some(v - 1) });
        }
        let division = SubPartDivision::new(
            &g,
            &parts,
            (0..32).map(|v| v / 8).collect(),
            parent,
            vec![0, 8, 16, 24],
        )
        .unwrap();
        let wave = broadcast_wave_outcome(
            &g,
            &parts,
            &PaSetup {
                tree: &tree,
                shortcut: &sc,
                division: &division,
                leaders: &[0],
                block_budget: 4,
            },
            Variant::Deterministic,
        );
        assert_eq!(wave.trace.len(), 4, "one global iteration per sub-part hop");
        let mut prev = 0;
        for it in &wave.trace {
            assert!(it.informed_after >= prev, "coverage is monotone");
            prev = it.informed_after;
        }
        assert_eq!(wave.trace.last().unwrap().informed_after, 32);
        assert_eq!(wave.trace.last().unwrap().active_after, 0);
        assert!(wave.trace.iter().all(|it| it.subparts_spread <= 1));
    }

    #[test]
    fn iterations_respect_block_structure() {
        // Direct path split into k sub-parts: the wave needs ~k iterations.
        let g = gen::path(32);
        let parts = Partition::whole(&g).unwrap();
        let inst =
            PaInstance::from_partition(&g, parts.clone(), vec![1; 32], Aggregate::Sum).unwrap();
        let (tree, _) = bfs_tree(&g, 0);
        let sc = Shortcut::empty(1);
        // 4 sub-parts of 8, reps at their left ends.
        let mut parent: Vec<Option<NodeId>> = Vec::new();
        for v in 0..32usize {
            parent.push(if v % 8 == 0 { None } else { Some(v - 1) });
        }
        let division = SubPartDivision::new(
            &g,
            &parts,
            (0..32).map(|v| v / 8).collect(),
            parent,
            vec![0, 8, 16, 24],
        )
        .unwrap();
        let res = run(
            &inst,
            &tree,
            &sc,
            &division,
            &[0],
            Variant::Deterministic,
            4,
        )
        .unwrap();
        assert_eq!(res.aggregates[0], 32);
        assert_eq!(
            res.iterations_per_part[0], 4,
            "one hop of sub-parts per iteration"
        );
    }
}
