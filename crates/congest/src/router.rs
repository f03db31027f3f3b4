//! Packet-level simulation of pipelined routing on a rooted tree —
//! the engine behind `BlockRoute` (Lemma 4.2 of the paper).
//!
//! Setting: a rooted tree `T` of depth `D` and a family of subtrees such
//! that every tree edge belongs to at most `c` subtrees. The paper's
//! deterministic algorithm convergecasts (or broadcasts) on **all**
//! subtrees simultaneously in `O(D + c)` rounds by forwarding, whenever an
//! edge is contended, *the packet whose subtree root is shallowest,
//! breaking ties by the smallest subtree id* (Lemma 4.2). This module
//! simulates that algorithm packet-by-packet and round-by-round, producing
//! exact round and message counts.
//!
//! Two primitives:
//!
//! * [`TreeRouter::upcast`] — convergecast: packets start at source nodes,
//!   climb parent edges toward their subtree's root, and **merge** with
//!   other packets of the same subtree they meet along the way (applying
//!   the aggregation function). This realizes Observation 4.3: the message
//!   cost is `O(|S| · D)` for `|S|` sources.
//! * [`TreeRouter::downcast`] — broadcast: a value per subtree starts at
//!   the subtree root and is forwarded down every tree edge of the
//!   subtree's span toward the given destinations.
//!
//! # Event-driven internals
//!
//! Both primitives run as event-driven edge-queue simulations on
//! recycled arenas owned by a [`RouterScratch`]: every tree edge keeps a
//! priority-ordered queue of the packets waiting to cross it, and a
//! round touches only the *active* edges (those with a nonempty queue)
//! instead of re-sorting and re-copying every in-flight packet. A packet
//! stuck behind a contended edge costs nothing until the edge frees, so
//! per-round work is proportional to the packets that actually move —
//! on deep contended trees that is orders of magnitude less than the
//! total in-flight count. The downcast's forwarding plan dedups
//! root→destination path walks with a generation-stamped per-node table
//! that is never cleared — a stale stamp *is* the empty state. The batch
//! entry points ([`TreeRouter::upcast_batch`]/
//! [`TreeRouter::downcast_batch`]) perform **zero heap allocations**
//! once the scratch has warmed up to the workload size; the
//! `Vec`-of-`Vec` job APIs ([`TreeRouter::upcast`]/
//! [`TreeRouter::downcast`]) are convenience wrappers that build a batch
//! and a fresh scratch per call. Merge order, per-round edge order, and
//! delivery order are bit-identical to the original sort-the-world
//! implementation: queues order packets by `(priority, arrival seq)`,
//! active edges are walked in the old sorted-scan order, and each round
//! snapshots its movers before applying them.

use rmo_graph::{NodeId, RootedTree};

use crate::metrics::CostReport;

/// One upcast request: a subtree id, its designated root, and the sources
/// holding values. Every source must be a descendant of (or equal to) the
/// root, and the source→root paths must stay within the subtree — the
/// caller (shortcut machinery) guarantees this structurally.
#[derive(Debug, Clone)]
pub struct UpcastJob {
    /// Subtree id (used for merging and the tie-breaking rule).
    pub subtree: usize,
    /// The subtree's root: the packet sink.
    pub root: NodeId,
    /// `(source node, initial value)` pairs.
    pub sources: Vec<(NodeId, u64)>,
}

/// One downcast request: value starts at `root` and must reach every node
/// in `destinations` (each a descendant of `root`).
#[derive(Debug, Clone)]
pub struct DowncastJob {
    /// Subtree id.
    pub subtree: usize,
    /// Broadcast origin.
    pub root: NodeId,
    /// Value to deliver.
    pub value: u64,
    /// Nodes that must receive the value.
    pub destinations: Vec<NodeId>,
}

/// Result of an upcast: the aggregate that arrived at each job's root.
#[derive(Debug, Clone)]
pub struct UpcastResult {
    /// `aggregates[i]` — final value delivered at job `i`'s root, or
    /// `None` if the job had no sources.
    pub aggregates: Vec<Option<u64>>,
    /// Exact cost of the routing.
    pub cost: CostReport,
    /// Maximum number of subtrees that used any single tree edge (the
    /// realized congestion — compare against the shortcut's `c`).
    /// Only measured when [`TreeRouter::trace_congestion`] is enabled;
    /// `0` otherwise (default runs don't pay for the ledger).
    pub realized_congestion: usize,
}

/// Result of a downcast.
#[derive(Debug, Clone)]
pub struct DowncastResult {
    /// `received[v]` — `(subtree, value)` pairs delivered to `v`.
    pub received: Vec<Vec<(usize, u64)>>,
    /// Exact cost of the routing.
    pub cost: CostReport,
}

/// A flat, reusable upcast request list: jobs are `(subtree, root)`
/// headers over a CSR source array. Build once with
/// [`UpcastBatch::begin_job`]/[`UpcastBatch::push_source`], reuse across
/// calls with [`UpcastBatch::clear`] — steady-state refills allocate
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct UpcastBatch {
    subtree: Vec<usize>,
    root: Vec<NodeId>,
    src_off: Vec<usize>,
    src: Vec<(NodeId, u64)>,
}

impl UpcastBatch {
    /// An empty batch.
    pub fn new() -> UpcastBatch {
        UpcastBatch::default()
    }

    /// Empties the batch, keeping its capacity.
    pub fn clear(&mut self) {
        self.subtree.clear();
        self.root.clear();
        self.src_off.clear();
        self.src.clear();
    }

    /// Starts a new job; subsequent [`UpcastBatch::push_source`] calls
    /// attach to it.
    pub fn begin_job(&mut self, subtree: usize, root: NodeId) {
        self.subtree.push(subtree);
        self.root.push(root);
        self.src_off.push(self.src.len());
    }

    /// Adds a `(source, value)` pair to the job opened last.
    pub fn push_source(&mut self, node: NodeId, value: u64) {
        debug_assert!(!self.subtree.is_empty(), "push_source before begin_job");
        self.src.push((node, value));
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.subtree.len()
    }

    /// True if no jobs have been added.
    pub fn is_empty(&self) -> bool {
        self.subtree.is_empty()
    }

    /// Job `j`'s sources (empty for out-of-range `j`).
    fn sources(&self, j: usize) -> &[(NodeId, u64)] {
        let lo = self.src_off.get(j).copied().unwrap_or(self.src.len());
        let hi = self.src_off.get(j + 1).copied().unwrap_or(self.src.len());
        self.src.get(lo..hi).unwrap_or(&[])
    }
}

/// A flat, reusable downcast request list: `(subtree, root, value)`
/// headers over a CSR destination array. Mirrors [`UpcastBatch`].
#[derive(Debug, Clone, Default)]
pub struct DowncastBatch {
    subtree: Vec<usize>,
    root: Vec<NodeId>,
    value: Vec<u64>,
    dst_off: Vec<usize>,
    dst: Vec<NodeId>,
}

impl DowncastBatch {
    /// An empty batch.
    pub fn new() -> DowncastBatch {
        DowncastBatch::default()
    }

    /// Empties the batch, keeping its capacity.
    pub fn clear(&mut self) {
        self.subtree.clear();
        self.root.clear();
        self.value.clear();
        self.dst_off.clear();
        self.dst.clear();
    }

    /// Starts a new job; subsequent [`DowncastBatch::push_destination`]
    /// calls attach to it.
    pub fn begin_job(&mut self, subtree: usize, root: NodeId, value: u64) {
        self.subtree.push(subtree);
        self.root.push(root);
        self.value.push(value);
        self.dst_off.push(self.dst.len());
    }

    /// Adds a destination to the job opened last.
    pub fn push_destination(&mut self, node: NodeId) {
        debug_assert!(
            !self.subtree.is_empty(),
            "push_destination before begin_job"
        );
        self.dst.push(node);
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.subtree.len()
    }

    /// True if no jobs have been added.
    pub fn is_empty(&self) -> bool {
        self.subtree.is_empty()
    }

    /// Job `j`'s destinations (empty for out-of-range `j`).
    fn dests(&self, j: usize) -> &[NodeId] {
        let lo = self.dst_off.get(j).copied().unwrap_or(self.dst.len());
        let hi = self.dst_off.get(j + 1).copied().unwrap_or(self.dst.len());
        self.dst.get(lo..hi).unwrap_or(&[])
    }
}

/// One pending upcast group: the merged value of dense subtree `idx`
/// waiting at a node to cross its parent edge, headed for `root`. `prio`
/// is the Lemma 4.2 forwarding priority (root depth, subtree id) — it is
/// unique per subtree, so a node's queue holds at most one group per
/// subtree and priority order is total.
#[derive(Debug, Clone, Copy, Default)]
struct UpGroup {
    prio: (usize, usize),
    idx: usize,
    root: NodeId,
    val: u64,
}

/// One pending downcast send waiting in the queue of the parent→child
/// edge it must cross next: job `job`'s value with its Lemma 4.2
/// priority; `seq` is the global arrival stamp ordering same-priority
/// sends FIFO within one edge queue.
#[derive(Debug, Clone, Copy, Default)]
struct QueuedSend {
    prio: (usize, usize),
    seq: usize,
    job: usize,
    subtree: usize,
    value: u64,
}

/// Job `j`'s pending forwards out of `node`, as a sub-slice of the sorted
/// `(job, node, child)` forwarding plan. Keying by job first keeps each
/// job's whole plan contiguous, so the repeated per-delivery lookups
/// binary-search a small cache-hot slice instead of the global plan.
fn forwards(
    forward: &[(usize, NodeId, NodeId)],
    node: NodeId,
    j: usize,
) -> &[(usize, NodeId, NodeId)] {
    let lo = forward.partition_point(|&(nj, nv, _)| (nj, nv) < (j, node));
    let hi = forward.partition_point(|&(nj, nv, _)| (nj, nv) < (j, node + 1));
    forward.get(lo..hi).unwrap_or(&[])
}

/// Recycled arenas for the router's batch entry points. One scratch
/// serves any number of [`TreeRouter::upcast_batch`] /
/// [`TreeRouter::downcast_batch`] calls (on trees of any size — the one
/// per-node table grows monotonically to the largest `n` seen and is
/// generation-stamped, so reuse never requires clearing it).
///
/// Invariants mirroring the simulator's scratch discipline:
/// * the per-node `recorded` table is **never** reset — an entry is live
///   only if its stamp equals the current generation;
/// * the per-edge queues drain to empty by the time a call returns (the
///   round loops run until no packet is pending), so reuse needs no
///   clearing — only the outer index grows, monotonically, to the
///   largest tree seen;
/// * flat arenas are `clear()`ed (length reset, capacity kept);
/// * results are left in [`RouterScratch::aggregates`] (upcast) and
///   [`RouterScratch::received`] (downcast) for the caller to read
///   without further allocation.
#[derive(Debug, Default)]
pub struct RouterScratch {
    // Dense subtree index (upcast).
    tagged: Vec<(usize, NodeId, usize)>,
    sub_roots: Vec<(usize, NodeId)>,
    job_idx: Vec<usize>,
    arrived: Vec<Option<u64>>,
    /// Per-job upcast aggregates; valid after
    /// [`TreeRouter::upcast_batch`] returns.
    pub aggregates: Vec<Option<u64>>,
    // Upcast edge queues: `up_q[v]` holds the groups waiting to cross
    // `v`'s parent edge, sorted by priority.
    up_q: Vec<Vec<UpGroup>>,
    up_active: Vec<NodeId>,
    up_cand: Vec<NodeId>,
    up_movers: Vec<(NodeId, UpGroup)>,
    // Realized-congestion ledger (filled only under
    // `TreeRouter::trace_congestion`).
    ledger: Vec<(NodeId, usize)>,
    // Per-depth group census (upcast): once no two pending groups share
    // a depth, none can ever meet again and the run finishes in closed
    // form. Maintained incrementally; all-zero between calls.
    depth_count: Vec<u32>,
    // Downcast plan + edge queues: `down_q[c]` holds the sends waiting
    // to cross the (parent(c) -> c) edge, sorted by (priority, seq).
    forward: Vec<(usize, NodeId, NodeId)>,
    dests: Vec<(usize, NodeId)>,
    down_q: Vec<Vec<QueuedSend>>,
    down_active: Vec<NodeId>,
    down_cand: Vec<NodeId>,
    down_deliv: Vec<(NodeId, QueuedSend)>,
    // Downcast fast-forward arenas: DFS stack over a job's plan slice
    // and the analytically scheduled deliveries
    // (round, parent, node, queue position, subtree, value).
    ff_stack: Vec<(NodeId, usize)>,
    down_ff: Vec<(usize, NodeId, NodeId, usize, usize, u64)>,
    // Euler-tour tables (children CSR + entry/exit stamps) giving O(1)
    // subtree tests; built per call, only when the plan outweighs the
    // tree so the O(n) build always pays for itself.
    kids_off: Vec<usize>,
    kids: Vec<NodeId>,
    tin: Vec<usize>,
    tout: Vec<usize>,
    // Generation-stamped (generation, job) per-node table deduping the
    // downcast plan walks.
    recorded: Vec<(u64, usize)>,
    generation: u64,
    /// Chronological downcast deliveries `(node, subtree, value)`; valid
    /// after [`TreeRouter::downcast_batch`] returns. Per-node order is
    /// the delivery order (what the nested `received` vectors of
    /// [`DowncastResult`] materialize).
    pub received: Vec<(NodeId, usize, u64)>,
}

impl RouterScratch {
    /// A fresh scratch; arenas grow on first use and are recycled after.
    pub fn new() -> RouterScratch {
        RouterScratch::default()
    }

    /// Grows the per-node table to cover `n` nodes (allocation happens
    /// only when `n` exceeds every previously seen tree size).
    fn ensure_nodes(&mut self, n: usize) {
        if self.recorded.len() < n {
            self.recorded.resize(n, (0, 0));
        }
        if self.up_q.len() < n {
            self.up_q.resize_with(n, Vec::new);
        }
        if self.down_q.len() < n {
            self.down_q.resize_with(n, Vec::new);
        }
        if self.depth_count.len() < n {
            self.depth_count.resize(n, 0);
        }
    }

    /// Maximum number of distinct subtrees that crossed any single
    /// up-edge in the last [`TreeRouter::upcast_batch`] call. `0` unless
    /// the router had [`TreeRouter::trace_congestion`] enabled.
    // rmo-lint: allow(U1) — `congestion_ledger_is_opt_in` checks the free-march fast-forward against the exact loop through it; the only check of that path.
    pub fn realized_congestion(&mut self) -> usize {
        self.ledger.sort_unstable();
        self.ledger.dedup();
        self.ledger
            .chunk_by(|a, b| a.0 == b.0)
            .map(<[_]>::len)
            .max()
            .unwrap_or(0)
    }
}

/// The tree-routing engine. Holds the rooted tree and the per-edge
/// capacity (1 = strict CONGEST; the randomized PA variant batches
/// `O(log n)` packets per edge per meta-round, Section 4.2).
///
/// # Example
/// ```rust
/// use rmo_congest::{TreeRouter, UpcastJob};
/// use rmo_graph::{gen, bfs_tree};
///
/// let g = gen::path(6);
/// let (tree, _) = bfs_tree(&g, 0);
/// let router = TreeRouter::new(&tree);
/// let jobs = vec![UpcastJob { subtree: 0, root: 0, sources: vec![(5, 7), (3, 4)] }];
/// let res = router.upcast(&jobs, u64::min);
/// assert_eq!(res.aggregates[0], Some(4));
/// assert!(res.cost.rounds <= 5 + 1); // Lemma 4.2: D + c
/// ```
#[derive(Debug)]
pub struct TreeRouter<'t> {
    tree: &'t RootedTree,
    capacity: usize,
    trace: bool,
}

impl<'t> TreeRouter<'t> {
    /// A router with strict CONGEST capacity 1.
    pub fn new(tree: &'t RootedTree) -> TreeRouter<'t> {
        TreeRouter::with_capacity(tree, 1)
    }

    /// A router forwarding up to `capacity` packets per tree edge per
    /// direction per round.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(tree: &'t RootedTree, capacity: usize) -> TreeRouter<'t> {
        assert!(capacity > 0, "capacity must be positive");
        TreeRouter {
            tree,
            capacity,
            trace: false,
        }
    }

    /// Enables (or disables) the realized-congestion ledger. Off by
    /// default: tracking distinct subtrees per edge costs a ledger push
    /// per forwarded packet plus a sort at read time, which default runs
    /// shouldn't pay for. Mirrors `Simulator::trace_rounds`.
    // rmo-lint: allow(U1) — `congestion_ledger_is_opt_in` checks the free-march fast-forward against the exact loop through it; the only check of that path.
    pub fn trace_congestion(mut self, on: bool) -> TreeRouter<'t> {
        self.trace = on;
        self
    }

    /// Allocation-free descendant check (`v` lies in `root`'s subtree),
    /// used by the debug contract assertions.
    fn is_descendant(&self, v: NodeId, root: NodeId) -> bool {
        let mut cur = v;
        loop {
            if cur == root {
                return true;
            }
            match self.tree.parent_of(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Convergecast on all jobs simultaneously, merging same-subtree
    /// packets with `merge` (which must be commutative and associative).
    ///
    /// Contended edges forward packets in the priority order of Lemma 4.2:
    /// shallowest subtree-root depth first, ties by smaller subtree id.
    ///
    /// Convenience wrapper over [`TreeRouter::upcast_batch`] with a
    /// per-call scratch; hot paths should hold a [`RouterScratch`] and
    /// call the batch API directly.
    ///
    /// # Panics
    /// Panics if two jobs give one subtree conflicting roots.
    pub fn upcast(&self, jobs: &[UpcastJob], merge: impl FnMut(u64, u64) -> u64) -> UpcastResult {
        let mut batch = UpcastBatch::new();
        for job in jobs {
            batch.begin_job(job.subtree, job.root);
            for &(src, val) in &job.sources {
                batch.push_source(src, val);
            }
        }
        let mut scratch = RouterScratch::new();
        let cost = self.upcast_batch(&batch, &mut scratch, merge);
        let aggregates = std::mem::take(&mut scratch.aggregates);
        UpcastResult {
            aggregates,
            cost,
            realized_congestion: scratch.realized_congestion(),
        }
    }

    /// Batch upcast on recycled arenas: per-job aggregates are left in
    /// `scratch.aggregates`. Once `scratch` has warmed up to the workload
    /// size, the call performs no heap allocation.
    ///
    /// # Panics
    /// Panics if two jobs give one subtree conflicting roots.
    pub fn upcast_batch(
        &self,
        batch: &UpcastBatch,
        scratch: &mut RouterScratch,
        mut merge: impl FnMut(u64, u64) -> u64,
    ) -> CostReport {
        scratch.ensure_nodes(self.tree.n());
        let RouterScratch {
            tagged,
            sub_roots,
            job_idx,
            arrived,
            aggregates,
            up_q,
            up_active,
            up_cand,
            up_movers,
            depth_count,
            ledger,
            ..
        } = scratch;
        // Number of depths holding two or more pending groups. Two groups
        // can only ever meet (merge or contend) at a common ancestor, and
        // climbing is lockstep — so they interact iff they sit at the
        // same depth. Once `multi == 0` the rest of the run is a free
        // march and is settled in closed form below.
        let mut multi = 0usize;

        // Dense subtree index: sorted (subtree, root) pairs, one per
        // distinct subtree, plus each job's dense index — built in one
        // sorted walk (the old per-job binary search and its
        // `expect("subtree indexed above")` are gone).
        tagged.clear();
        tagged.extend(
            batch
                .subtree
                .iter()
                .zip(batch.root.iter())
                .enumerate()
                .map(|(j, (&s, &r))| (s, r, j)),
        );
        tagged.sort_unstable();
        sub_roots.clear();
        job_idx.clear();
        job_idx.resize(batch.len(), 0);
        for &(subtree, root, j) in tagged.iter() {
            match sub_roots.last() {
                Some(&(s, r)) if s == subtree => {
                    // rmo-lint: allow(R1) — every caller opens a subtree's jobs with that subtree's own tree root.
                    assert!(r == root, "conflicting roots for one subtree");
                }
                _ => sub_roots.push((subtree, root)),
            }
            if let Some(slot) = job_idx.get_mut(j) {
                *slot = sub_roots.len() - 1;
            }
        }
        arrived.clear();
        arrived.resize(sub_roots.len(), None);
        ledger.clear();

        // Seed the edge queues: one merged group per (node, subtree).
        // Same-node same-subtree sources fold in batch order at
        // insertion (existing accumulator on the left), exactly the
        // order the old flat arena's first-round group fold used.
        up_cand.clear();
        for (j, (&subtree, &root)) in batch.subtree.iter().zip(batch.root.iter()).enumerate() {
            let idx = job_idx.get(j).copied().unwrap_or(0);
            let prio = (self.tree.depth_of(root), subtree);
            for &(src, val) in batch.sources(j) {
                debug_assert!(
                    self.is_descendant(src, root),
                    "source {src} is not a descendant of root {root}"
                );
                if src == root {
                    if let Some(slot) = arrived.get_mut(idx) {
                        *slot = Some(match slot.take() {
                            Some(acc) => merge(acc, val),
                            None => val,
                        });
                    }
                } else {
                    let Some(q) = up_q.get_mut(src) else { continue };
                    // Priorities are unique per subtree (the id
                    // component is), so an equal-priority neighbor is
                    // the same subtree's accumulator.
                    let pos = q.partition_point(|g| g.prio < prio);
                    match q.get_mut(pos) {
                        Some(g) if g.prio == prio => g.val = merge(g.val, val),
                        _ => {
                            q.insert(
                                pos,
                                UpGroup {
                                    prio,
                                    idx,
                                    root,
                                    val,
                                },
                            );
                            if let Some(cnt) = depth_count.get_mut(self.tree.depth_of(src)) {
                                *cnt += 1;
                                if *cnt == 2 {
                                    multi += 1;
                                }
                            }
                        }
                    }
                    up_cand.push(src);
                }
            }
        }
        up_cand.sort_unstable();
        up_cand.dedup();
        std::mem::swap(up_active, up_cand);

        let mut rounds = 0usize;
        let mut messages = 0u64;
        while !up_active.is_empty() {
            if multi == 0 && !self.trace {
                // Free march: every pending group sits at a distinct
                // depth, so no pair can ever share a node again (a
                // common ancestor is reached at distinct rounds) — each
                // group just climbs unimpeded to its root. Settle the
                // remainder in closed form: `d` hops and messages per
                // group, `max d` further rounds, and root arrivals fold
                // chronologically (= ascending `d`; per slot, depths —
                // hence distances — are unique). Tracing still needs the
                // per-hop ledger, so it takes the exact loop instead.
                up_movers.clear();
                let mut max_d = 0usize;
                for &v in up_active.iter() {
                    let Some(q) = up_q.get_mut(v) else { continue };
                    let dv = self.tree.depth_of(v);
                    for g in q.drain(..) {
                        if let Some(cnt) = depth_count.get_mut(dv) {
                            *cnt -= 1;
                        }
                        let d = dv.saturating_sub(self.tree.depth_of(g.root));
                        messages += d as u64;
                        max_d = max_d.max(d);
                        up_movers.push((d, g));
                    }
                }
                rounds += max_d;
                up_movers.sort_unstable_by_key(|&(d, g)| (g.idx, d));
                for &(_, m) in up_movers.iter() {
                    if let Some(slot) = arrived.get_mut(m.idx) {
                        *slot = Some(match slot.take() {
                            Some(acc) => merge(acc, m.val),
                            None => m.val,
                        });
                    }
                }
                up_active.clear();
                break;
            }
            rounds += 1;
            up_movers.clear();
            up_cand.clear();
            // Phase 1 — snapshot: each active node forwards its first
            // `capacity` queued groups (priority order = queue order)
            // across its parent edge. Active nodes are visited in
            // ascending order: combined with the per-queue priority
            // order this reproduces the old full (node, prio, seq)
            // index-sort scan, without touching the stuck packets.
            for &v in up_active.iter() {
                let Some(q) = up_q.get_mut(v) else { continue };
                let take = self.capacity.min(q.len());
                up_movers.extend(q.drain(..take).map(|g| (v, g)));
                if !q.is_empty() {
                    up_cand.push(v);
                }
            }
            // Phase 2 — apply: movers were popped above, *before* any
            // delivery lands — a group arriving at `p` this round can
            // never fold into a value `p` is itself forwarding (the
            // `chain_merge_keeps_every_contribution` regression).
            for &(v, m) in up_movers.iter() {
                if let Some(cnt) = depth_count.get_mut(self.tree.depth_of(v)) {
                    *cnt -= 1;
                    if *cnt == 1 {
                        multi -= 1;
                    }
                }
                let Some(p) = self.tree.parent_of(v) else {
                    // Unreachable for contract-respecting jobs (groups
                    // only ever sit strictly below their subtree root,
                    // which the debug assertion above pins); drop the
                    // group rather than panic on a broken caller.
                    continue;
                };
                messages += 1;
                if self.trace {
                    ledger.push((v, m.idx));
                }
                if p == m.root {
                    if let Some(slot) = arrived.get_mut(m.idx) {
                        *slot = Some(match slot.take() {
                            Some(acc) => merge(acc, m.val),
                            None => m.val,
                        });
                    }
                } else {
                    let Some(q) = up_q.get_mut(p) else { continue };
                    // Merge-at-insertion with the resident accumulator
                    // on the left ≡ the old fold over seq order: a kept
                    // group always predates (has a smaller stamp than)
                    // a same-round arrival.
                    let pos = q.partition_point(|g| g.prio < m.prio);
                    match q.get_mut(pos) {
                        Some(g) if g.prio == m.prio => g.val = merge(g.val, m.val),
                        _ => {
                            q.insert(pos, m);
                            if let Some(cnt) = depth_count.get_mut(self.tree.depth_of(p)) {
                                *cnt += 1;
                                if *cnt == 2 {
                                    multi += 1;
                                }
                            }
                        }
                    }
                    up_cand.push(p);
                }
            }
            up_cand.sort_unstable();
            up_cand.dedup();
            std::mem::swap(up_active, up_cand);
        }
        aggregates.clear();
        aggregates.extend(job_idx.iter().map(|&i| arrived.get(i).copied().flatten()));
        CostReport::with_capacity(rounds, messages, self.capacity)
    }

    /// Broadcast on all jobs simultaneously: each job's value flows from
    /// its root down the tree to its destinations, using only the tree
    /// edges on root→destination paths. Contended edges forward by the
    /// same priority rule as [`TreeRouter::upcast`].
    ///
    /// Convenience wrapper over [`TreeRouter::downcast_batch`] with a
    /// per-call scratch, materializing the per-node `received` lists.
    pub fn downcast(&self, jobs: &[DowncastJob]) -> DowncastResult {
        let mut batch = DowncastBatch::new();
        for job in jobs {
            batch.begin_job(job.subtree, job.root, job.value);
            for &d in &job.destinations {
                batch.push_destination(d);
            }
        }
        let mut scratch = RouterScratch::new();
        let cost = self.downcast_batch(&batch, &mut scratch);
        let mut received: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.tree.n()];
        for &(v, subtree, val) in &scratch.received {
            if let Some(list) = received.get_mut(v) {
                list.push((subtree, val));
            }
        }
        DowncastResult { received, cost }
    }

    /// Batch downcast on recycled arenas: chronological deliveries are
    /// left in `scratch.received`. Once `scratch` has warmed up to this
    /// tree's size, the call performs no heap allocation.
    pub fn downcast_batch(&self, batch: &DowncastBatch, scratch: &mut RouterScratch) -> CostReport {
        scratch.ensure_nodes(self.tree.n());
        let RouterScratch {
            forward,
            dests,
            down_q,
            down_active,
            down_cand,
            down_deliv,
            ff_stack,
            down_ff,
            kids_off,
            kids,
            tin,
            tout,
            recorded,
            generation,
            received,
            ..
        } = scratch;
        // Number of edge queues holding more than `capacity` sends. Once
        // zero, every queue crosses its edge whole in one round: the
        // platoon stays synchronized forever (same-depth edges head into
        // disjoint subtrees; different-depth edges are never reached in
        // the same round), so the remainder runs in closed form below.
        let mut over = 0usize;

        // Forwarding plan: sorted (job, node, child) triples — `node`
        // must push job `job`'s value down the (node -> child) edge.
        // Built from the union of destination -> root paths; the
        // generation-stamped per-node table cuts each walk short as soon
        // as it joins a path already recorded for the same job (stale
        // stamps are the empty state — nothing is cleared). Entries are
        // pushed job-major, so the sort sees nearly sorted runs.
        *generation += 1;
        forward.clear();
        dests.clear();
        for (j, &root) in batch.root.iter().enumerate() {
            for &d in batch.dests(j) {
                debug_assert!(
                    self.is_descendant(d, root),
                    "destination {d} is not a descendant of root {root}"
                );
                dests.push((j, d));
                let mut cur = d;
                while cur != root {
                    match recorded.get_mut(cur) {
                        Some(stamp) if *stamp == (*generation, j) => break,
                        Some(stamp) => *stamp = (*generation, j),
                        None => {}
                    }
                    let Some(p) = self.tree.parent_of(cur) else {
                        // Unreachable for contract-respecting jobs (the
                        // debug assertion above pins descendant-ness);
                        // truncate the plan rather than panic.
                        break;
                    };
                    forward.push((j, p, cur));
                    cur = p;
                }
            }
        }
        forward.sort_unstable();
        // Sorted (job, destination) pairs for O(log) membership checks
        // at delivery time (the old code scanned `destinations` per
        // delivery). Duplicate destinations collapse, matching the old
        // `contains`-guarded single push.
        dests.sort_unstable();
        dests.dedup();

        received.clear();
        // Seed the edge queues (`down_q[c]` = the parent(c) -> c edge)
        // in job order with a globally monotone arrival stamp: within
        // one queue, (prio, seq) order reproduces the old flat arena's
        // (node, child, prio, seq) sort restricted to that edge, and a
        // fresh arrival always stamps above every kept send — exactly
        // the old compact-then-append re-stamping.
        down_cand.clear();
        let mut seq = 0usize;
        for (j, ((&subtree, &root), &value)) in batch
            .subtree
            .iter()
            .zip(batch.root.iter())
            .zip(batch.value.iter())
            .enumerate()
        {
            if dests.binary_search(&(j, root)).is_ok() {
                received.push((root, subtree, value));
            }
            let prio = (self.tree.depth_of(root), subtree);
            for &(_, _, c) in forwards(forward, root, j) {
                let Some(q) = down_q.get_mut(c) else { continue };
                let pos = q.partition_point(|s| (s.prio, s.seq) < (prio, seq));
                q.insert(
                    pos,
                    QueuedSend {
                        prio,
                        seq,
                        job: j,
                        subtree,
                        value,
                    },
                );
                if q.len() == self.capacity + 1 {
                    over += 1;
                }
                seq += 1;
                down_cand.push(c);
            }
        }
        // Active edges are visited in the old sorted-scan order:
        // (parent, child) ascending. The root has no up-edge, so its
        // queue is never seeded and the placeholder parent is inert.
        down_cand.sort_unstable_by_key(|&c| (self.tree.parent_of(c).unwrap_or(0), c));
        down_cand.dedup();
        std::mem::swap(down_active, down_cand);

        let mut rounds = 0usize;
        let mut messages = 0u64;
        while !down_active.is_empty() {
            if over == 0 {
                // Free march: every queue fits its edge, so each platoon
                // crosses one edge per round as a unit and fans through
                // its plan subtree unimpeded — no queue can ever refill
                // past capacity (a node's deliveries fan out to at most
                // platoon-many copies per child edge). Settle the
                // remainder in closed form: one message per remaining
                // plan edge per covering send, deliveries at round
                // `r + 1 + dist`, replayed into `received` in the exact
                // loop order (round, then edge scan order, then
                // within-queue order).
                down_ff.clear();
                let mut last = rounds;
                // For big plans, pay O(n) once for Euler stamps and
                // sweep each job's contiguous plan slice with O(1)
                // subtree tests; for plans smaller than the tree, DFS
                // each send's subtree instead (same output, no O(n)).
                let n = self.tree.n();
                let use_euler = forward.len() >= n;
                if use_euler {
                    // Children CSR: counts, prefix, then a cursor fill
                    // (`tout` doubles as the cursor until the DFS
                    // overwrites it with exit stamps).
                    kids_off.clear();
                    kids_off.resize(n + 1, 0);
                    for v in 0..n {
                        if let Some(p) = self.tree.parent_of(v) {
                            if let Some(slot) = kids_off.get_mut(p + 1) {
                                *slot += 1;
                            }
                        }
                    }
                    let mut acc = 0usize;
                    for slot in kids_off.iter_mut() {
                        acc += *slot;
                        *slot = acc;
                    }
                    tout.clear();
                    tout.extend(kids_off.iter().take(n).copied());
                    kids.clear();
                    kids.resize(kids_off.last().copied().unwrap_or(0), 0);
                    for v in 0..n {
                        if let Some(p) = self.tree.parent_of(v) {
                            if let Some(cur) = tout.get_mut(p) {
                                if let Some(slot) = kids.get_mut(*cur) {
                                    *slot = v;
                                }
                                *cur += 1;
                            }
                        }
                    }
                    tin.clear();
                    tin.resize(n, 0);
                    let mut t = 0usize;
                    ff_stack.clear();
                    for v in 0..n {
                        if self.tree.parent_of(v).is_none() {
                            ff_stack.push((v, 0));
                        }
                    }
                    while let Some((v, phase)) = ff_stack.pop() {
                        if phase == 0 {
                            if let Some(slot) = tin.get_mut(v) {
                                *slot = t;
                            }
                            t += 1;
                            ff_stack.push((v, 1));
                            let lo = kids_off.get(v).copied().unwrap_or(0);
                            let hi = kids_off.get(v + 1).copied().unwrap_or(lo);
                            for &ch in kids.get(lo..hi).unwrap_or(&[]) {
                                ff_stack.push((ch, 0));
                            }
                        } else if let Some(slot) = tout.get_mut(v) {
                            *slot = t;
                        }
                    }
                }
                for &c in down_active.iter() {
                    let Some(q) = down_q.get_mut(c) else { continue };
                    let dc = self.tree.depth_of(c);
                    for (pos, s) in q.drain(..).enumerate() {
                        if use_euler {
                            // Crossing of edge c itself, then every plan
                            // edge inside c's subtree (active edges of
                            // one job are incomparable, so no edge is
                            // swept twice).
                            messages += 1;
                            last = last.max(rounds + 1);
                            let tc = tin.get(c).copied().unwrap_or(0);
                            let tc_end = tout.get(c).copied().unwrap_or(0);
                            let below = |x: NodeId| {
                                let tx = tin.get(x).copied().unwrap_or(usize::MAX);
                                tx >= tc && tx < tc_end
                            };
                            let lo = dests.partition_point(|&(dj, _)| dj < s.job);
                            let hi = dests.partition_point(|&(dj, _)| dj < s.job + 1);
                            for &(_, x) in dests.get(lo..hi).unwrap_or(&[]) {
                                if below(x) {
                                    let at = rounds + 1 + (self.tree.depth_of(x) - dc);
                                    let px = self.tree.parent_of(x).unwrap_or(0);
                                    down_ff.push((at, px, x, pos, s.subtree, s.value));
                                }
                            }
                            let jlo = forward.partition_point(|&(fj, _, _)| fj < s.job);
                            let jhi = forward.partition_point(|&(fj, _, _)| fj < s.job + 1);
                            for &(_, x, ch) in forward.get(jlo..jhi).unwrap_or(&[]) {
                                if below(x) {
                                    messages += 1;
                                    last = last.max(rounds + 1 + (self.tree.depth_of(ch) - dc));
                                }
                            }
                        } else {
                            // DFS over this send's remaining plan
                            // subtree; each visited node is one edge
                            // crossing.
                            ff_stack.clear();
                            ff_stack.push((c, 0));
                            while let Some((x, dist)) = ff_stack.pop() {
                                messages += 1;
                                let at = rounds + 1 + dist;
                                last = last.max(at);
                                if dests.binary_search(&(s.job, x)).is_ok() {
                                    let px = self.tree.parent_of(x).unwrap_or(0);
                                    down_ff.push((at, px, x, pos, s.subtree, s.value));
                                }
                                for &(_, _, c2) in forwards(forward, x, s.job) {
                                    ff_stack.push((c2, dist + 1));
                                }
                            }
                        }
                    }
                }
                rounds = last;
                // Deliveries at one (round, edge) all come from one
                // platoon, whose relative order survives every hop, so
                // the queue position is the exact final tie-breaker.
                down_ff.sort_unstable();
                for &(_, _, x, _, subtree, value) in down_ff.iter() {
                    received.push((x, subtree, value));
                }
                down_active.clear();
                break;
            }
            rounds += 1;
            down_deliv.clear();
            down_cand.clear();
            // Phase 1 — snapshot: each contended edge delivers its first
            // `capacity` queued sends (Lemma 4.2 priority order, ties by
            // arrival) to the child endpoint.
            for &c in down_active.iter() {
                let Some(q) = down_q.get_mut(c) else { continue };
                let take = self.capacity.min(q.len());
                messages += take as u64;
                if q.len() > self.capacity && q.len() - take <= self.capacity {
                    over -= 1;
                }
                down_deliv.extend(q.drain(..take).map(|s| (c, s)));
                if !q.is_empty() {
                    down_cand.push(c);
                }
            }
            // Phase 2 — apply: record arrivals at destinations and push
            // the value onto the next edges of the forwarding plan. A
            // send delivered to `c` this round re-queues below `c` and
            // cannot move again until the next round, because movers
            // were snapshotted above.
            for &(c, d) in down_deliv.iter() {
                if dests.binary_search(&(d.job, c)).is_ok() {
                    received.push((c, d.subtree, d.value));
                }
                for &(_, _, c2) in forwards(forward, c, d.job) {
                    let Some(q) = down_q.get_mut(c2) else {
                        continue;
                    };
                    let pos = q.partition_point(|s| (s.prio, s.seq) < (d.prio, seq));
                    q.insert(pos, QueuedSend { seq, ..d });
                    if q.len() == self.capacity + 1 {
                        over += 1;
                    }
                    seq += 1;
                    down_cand.push(c2);
                }
            }
            down_cand.sort_unstable_by_key(|&c| (self.tree.parent_of(c).unwrap_or(0), c));
            down_cand.dedup();
            std::mem::swap(down_active, down_cand);
        }
        CostReport::with_capacity(rounds, messages, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_graph::{bfs_tree, gen, Graph};

    fn path_tree(n: usize) -> RootedTree {
        let g = gen::path(n);
        bfs_tree(&g, 0).0
    }

    #[test]
    fn single_upcast_on_path() {
        let t = path_tree(6);
        let r = TreeRouter::new(&t).trace_congestion(true);
        let jobs = vec![UpcastJob {
            subtree: 0,
            root: 0,
            sources: vec![(5, 7)],
        }];
        let res = r.upcast(&jobs, u64::min);
        assert_eq!(res.aggregates[0], Some(7));
        assert_eq!(res.cost.rounds, 5);
        assert_eq!(res.cost.messages, 5);
        assert_eq!(res.realized_congestion, 1);
    }

    #[test]
    fn lockstep_chain_does_not_merge() {
        // Sources at every node of a path, all one subtree: the packets
        // march in lockstep one hop apart and never meet, so each travels
        // its full distance — Σ distances = 28 messages. This is exactly
        // the Ω(nD) phenomenon of Figure 2(a) that motivates sub-part
        // divisions (a *waiting* convergecast, as in sub-part trees, costs
        // one message per edge instead).
        let t = path_tree(8);
        let r = TreeRouter::new(&t);
        let jobs = vec![UpcastJob {
            subtree: 0,
            root: 0,
            sources: (1..8).map(|v| (v, v as u64)).collect(),
        }];
        let res = r.upcast(&jobs, |a, b| a + b);
        assert_eq!(res.aggregates[0], Some((1..8).sum()));
        assert_eq!(res.cost.messages, (1..=7).sum::<u64>());
    }

    #[test]
    fn branch_collision_merges() {
        // A "Y": node 1 has children 2 and 3; packets from 2 and 3 collide
        // at node 1 in the same round and merge, so edge (1 -> 0) carries
        // one message instead of two.
        let g = Graph::from_unweighted_edges(4, &[(0, 1), (1, 2), (1, 3)]).unwrap();
        let (t, _) = bfs_tree(&g, 0);
        let r = TreeRouter::new(&t);
        let jobs = vec![UpcastJob {
            subtree: 0,
            root: 0,
            sources: vec![(2, 5), (3, 6)],
        }];
        let res = r.upcast(&jobs, |a, b| a + b);
        assert_eq!(res.aggregates[0], Some(11));
        assert_eq!(res.cost.messages, 3, "two leaf hops plus one merged hop");
    }

    #[test]
    fn source_at_root_needs_no_messages() {
        let t = path_tree(3);
        let r = TreeRouter::new(&t);
        let jobs = vec![UpcastJob {
            subtree: 0,
            root: 0,
            sources: vec![(0, 9)],
        }];
        let res = r.upcast(&jobs, u64::max);
        assert_eq!(res.aggregates[0], Some(9));
        assert_eq!(res.cost.messages, 0);
        assert_eq!(res.cost.rounds, 0);
    }

    #[test]
    fn empty_job_yields_none() {
        let t = path_tree(3);
        let r = TreeRouter::new(&t);
        let jobs = vec![UpcastJob {
            subtree: 0,
            root: 0,
            sources: vec![],
        }];
        let res = r.upcast(&jobs, u64::max);
        assert_eq!(res.aggregates[0], None);
    }

    #[test]
    fn contention_respects_c_plus_d_bound() {
        // c subtrees all using the same path edge near the root: rounds
        // must be <= D + c (Lemma 4.2), not c * D.
        let t = path_tree(12);
        let r = TreeRouter::new(&t).trace_congestion(true);
        let c = 6;
        let jobs: Vec<UpcastJob> = (0..c)
            .map(|s| UpcastJob {
                subtree: s,
                root: 0,
                sources: vec![(11, s as u64)],
            })
            .collect();
        let res = r.upcast(&jobs, u64::min);
        let d = 11;
        assert!(
            res.cost.rounds <= d + c,
            "rounds {} exceed D+c = {}",
            res.cost.rounds,
            d + c
        );
        assert_eq!(res.realized_congestion, c);
        for s in 0..c {
            assert_eq!(res.aggregates[s], Some(s as u64));
        }
    }

    #[test]
    fn congestion_ledger_is_opt_in() {
        // Without `trace_congestion`, the same contended workload reports
        // 0 — the ledger isn't maintained at all (satellite: default runs
        // don't pay for history nobody reads). Costs are unaffected.
        let t = path_tree(12);
        let jobs: Vec<UpcastJob> = (0..6)
            .map(|s| UpcastJob {
                subtree: s,
                root: 0,
                sources: vec![(11, s as u64)],
            })
            .collect();
        let traced = TreeRouter::new(&t)
            .trace_congestion(true)
            .upcast(&jobs, u64::min);
        let plain = TreeRouter::new(&t).upcast(&jobs, u64::min);
        assert_eq!(traced.realized_congestion, 6);
        assert_eq!(plain.realized_congestion, 0);
        assert_eq!(plain.cost.rounds, traced.cost.rounds);
        assert_eq!(plain.cost.messages, traced.cost.messages);
        assert_eq!(plain.aggregates, traced.aggregates);
    }

    #[test]
    fn priority_prefers_shallow_roots() {
        // Two subtrees contend on edge (1->0 side). Subtree 1 has root 0
        // (depth 0); subtree 0 has root... both root 0. Use distinct roots:
        // a star with center 0: depth-1 tree. Subtree A rooted at 0, B at 0.
        // Tie-break by id: lower id wins the first slot.
        let g = gen::star(4);
        let (t, _) = bfs_tree(&g, 0);
        let r = TreeRouter::new(&t);
        let jobs = vec![
            UpcastJob {
                subtree: 5,
                root: 0,
                sources: vec![(1, 50)],
            },
            UpcastJob {
                subtree: 2,
                root: 0,
                sources: vec![(1, 20)],
            },
        ];
        let res = r.upcast(&jobs, u64::min);
        // Both complete; contention on the single edge 1->0 serializes them.
        assert_eq!(res.cost.rounds, 2);
        assert_eq!(res.aggregates, vec![Some(50), Some(20)]);
    }

    #[test]
    fn downcast_reaches_all_destinations() {
        let t = path_tree(6);
        let r = TreeRouter::new(&t);
        let jobs = vec![DowncastJob {
            subtree: 3,
            root: 0,
            value: 42,
            destinations: vec![1, 2, 3, 4, 5],
        }];
        let res = r.downcast(&jobs);
        for v in 1..6 {
            assert_eq!(res.received[v], vec![(3, 42)]);
        }
        assert_eq!(res.cost.messages, 5);
        assert_eq!(res.cost.rounds, 5);
    }

    #[test]
    fn downcast_to_root_only_is_free() {
        let t = path_tree(4);
        let r = TreeRouter::new(&t);
        let jobs = vec![DowncastJob {
            subtree: 0,
            root: 0,
            value: 1,
            destinations: vec![0],
        }];
        let res = r.downcast(&jobs);
        assert_eq!(res.received[0], vec![(0, 1)]);
        assert_eq!(res.cost.messages, 0);
    }

    #[test]
    fn downcast_on_binary_tree_pipelines() {
        let g = gen::balanced_binary_tree(5); // 31 nodes, depth 4
        let (t, _) = bfs_tree(&g, 0);
        let r = TreeRouter::new(&t);
        let all: Vec<usize> = (1..31).collect();
        let jobs = vec![DowncastJob {
            subtree: 0,
            root: 0,
            value: 7,
            destinations: all.clone(),
        }];
        let res = r.downcast(&jobs);
        for &v in &all {
            assert_eq!(res.received[v], vec![(0, 7)]);
        }
        assert_eq!(res.cost.messages, 30, "one message per tree edge");
        // A node may use all child edges in one round, so the wave reaches
        // depth d at round d: exactly `depth` rounds.
        assert_eq!(res.cost.rounds, 4);
    }

    #[test]
    fn upcast_respects_capacity_multiplier() {
        let t = path_tree(10);
        let r = TreeRouter::with_capacity(&t, 4);
        let jobs: Vec<UpcastJob> = (0..8)
            .map(|s| UpcastJob {
                subtree: s,
                root: 0,
                sources: vec![(9, 1)],
            })
            .collect();
        let res = r.upcast(&jobs, u64::min);
        assert_eq!(res.cost.capacity_multiplier, 4);
        // With capacity 4, eight contending subtrees need ~D + c/4 rounds.
        assert!(res.cost.rounds <= 9 + 2);
    }

    #[test]
    fn chain_merge_keeps_every_contribution() {
        // Regression: on a path rooted at the *high* end, children have
        // smaller ids than their parents, so the old interleaved move
        // application merged node 0's packet into node 1's pending entry
        // and then dropped it when node 1's (stale-valued) move applied.
        // Every contribution must reach the root.
        let g = gen::path(3);
        let (t, _) = bfs_tree(&g, 2);
        let r = TreeRouter::new(&t);
        let jobs = vec![UpcastJob {
            subtree: 0,
            root: 2,
            sources: vec![(0, 100), (1, 10)],
        }];
        let res = r.upcast(&jobs, |a, b| a + b);
        assert_eq!(res.aggregates[0], Some(110), "no packet may be dropped");
        // Node 1's packet reaches the root in round 1; node 0's packet
        // steps to node 1, then to the root: 3 messages, 2 rounds.
        assert_eq!(res.cost.messages, 3);
        assert_eq!(res.cost.rounds, 2);
    }

    #[test]
    fn observation_4_3_message_bound() {
        // |S| sources on a depth-D path: messages <= |S| * D (Observation 4.3).
        let t = path_tree(16);
        let r = TreeRouter::new(&t);
        let jobs = vec![UpcastJob {
            subtree: 0,
            root: 0,
            sources: vec![(15, 1), (10, 2), (5, 3)],
        }];
        let res = r.upcast(&jobs, |a, b| a + b);
        assert_eq!(res.aggregates[0], Some(6));
        assert!(res.cost.messages <= 3 * 15);
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        // One scratch across repeated batch calls (and across both
        // directions, and across different trees) must reproduce the
        // fresh-scratch results bit-for-bit — the generation stamps, not
        // clearing, define emptiness.
        let t_big = path_tree(20);
        let t_small = path_tree(7);
        let mut scratch = RouterScratch::new();
        let mut up = UpcastBatch::new();
        let mut down = DowncastBatch::new();
        for round_trip in 0..3 {
            for (t, n) in [(&t_big, 20usize), (&t_small, 7usize)] {
                let router = TreeRouter::new(t);
                up.clear();
                for s in 0..4usize {
                    up.begin_job(s, 0);
                    up.push_source(n - 1 - s, (round_trip + s) as u64 + 1);
                    up.push_source(n / 2, 10);
                }
                let cost = router.upcast_batch(&up, &mut scratch, |a, b| a + b);
                let jobs: Vec<UpcastJob> = (0..4usize)
                    .map(|s| UpcastJob {
                        subtree: s,
                        root: 0,
                        sources: vec![(n - 1 - s, (round_trip + s) as u64 + 1), (n / 2, 10)],
                    })
                    .collect();
                let fresh = router.upcast(&jobs, |a, b| a + b);
                assert_eq!(scratch.aggregates, fresh.aggregates);
                assert_eq!(cost.rounds, fresh.cost.rounds);
                assert_eq!(cost.messages, fresh.cost.messages);

                down.clear();
                for s in 0..3usize {
                    down.begin_job(s, 0, 77 + s as u64);
                    down.push_destination(n - 1);
                    down.push_destination(n / 2 + s);
                }
                let dcost = router.downcast_batch(&down, &mut scratch);
                let djobs: Vec<DowncastJob> = (0..3usize)
                    .map(|s| DowncastJob {
                        subtree: s,
                        root: 0,
                        value: 77 + s as u64,
                        destinations: vec![n - 1, n / 2 + s],
                    })
                    .collect();
                let dfresh = router.downcast(&djobs);
                assert_eq!(dcost.rounds, dfresh.cost.rounds);
                assert_eq!(dcost.messages, dfresh.cost.messages);
                let mut materialized: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
                for &(v, s, val) in &scratch.received {
                    materialized[v].push((s, val));
                }
                assert_eq!(materialized, dfresh.received);
            }
        }
    }
}
