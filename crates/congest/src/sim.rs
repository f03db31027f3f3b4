//! The synchronous round scheduler.
//!
//! Execution model (matching Section 2.1 of the paper):
//!
//! 1. At round `r`, every node receives the messages its neighbors sent at
//!    round `r − 1`, then runs its [`NodeProgram::on_round`] handler, which
//!    may send at most `capacity` messages per incident edge (capacity 1 =
//!    strict CONGEST).
//! 2. Rounds repeat until *quiescence* — no messages in flight and no
//!    program asking to act — or a round cap is hit.
//!
//! Message and round counts are exact: every [`RoundCtx::send`] increments
//! the message counter by one.
//!
//! # Engine internals (flat arenas + active-set scheduling)
//!
//! [`Simulator`] is frontier-driven: a node is stepped in a round only if
//! it has messages to receive or has registered interest via
//! [`NodeProgram::wants_round`] — active nodes run in ascending [`NodeId`]
//! order, so execution order (and therefore every message, round and
//! [`RoundStats`]) is identical to the dense sweep kept in
//! [`crate::reference`]. Messages live in two recycled flat buffers: sends
//! are staged as `(destination, port, payload)` triples in send order,
//! then counting-scattered into a CSR-style inbox arena (per-node
//! epoch-stamped offset/length tables into one contiguous
//! `(PortId, Payload)` buffer) for the next round. Per-port capacity
//! counters are an epoch-stamped flat array over the network's degree
//! prefix sums ([`Network::port_base`]). Steady-state rounds therefore
//! perform **zero** heap allocation (pinned by the `alloc_free`
//! regression test); [`RoundStats`] history is opt-in via
//! [`Simulator::trace_rounds`].
//!
//! This tightens the [`NodeProgram`] contract: a program whose inbox is
//! empty and whose `wants_round` is `false` is *not stepped at all*, so
//! `on_round` must be a no-op in that state (see the trait docs).

use std::fmt;

use rmo_graph::NodeId;

use crate::metrics::CostReport;
use crate::network::{Network, PortId};
use crate::payload::Payload;

/// Errors from a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A node tried to send more than `capacity` messages over one edge in
    /// one round.
    CapacityExceeded {
        node: NodeId,
        port: PortId,
        round: usize,
    },
    /// The round cap was reached before quiescence.
    RoundLimit { limit: usize },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CapacityExceeded { node, port, round } => write!(
                f,
                "node {node} exceeded per-edge capacity on port {port} in round {round}"
            ),
            SimError::RoundLimit { limit } => {
                write!(f, "no quiescence within {limit} rounds")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// One staged message: resolved destination, arrival port, payload.
#[derive(Clone, Copy)]
struct Staged {
    dest: NodeId,
    port: PortId,
    msg: Payload,
}

/// Where [`RoundCtx::send`] routes messages: the fast engine stages
/// resolved `(dest, port, payload)` triples straight into the
/// simulator's recycled buffer; the dense reference engine keeps the
/// pre-optimization per-node outbox so it stays a verbatim oracle.
enum SendSink<'a> {
    Fast {
        /// `(edge, neighbor, neighbor_port)` per local port.
        targets: &'a [(usize, NodeId, PortId)],
        staging: &'a mut Vec<Staged>,
        /// Capacity counters for this node's ports (flat-array slice).
        port_sent: &'a mut [u32],
        /// Round stamp per port; a stale stamp reads as count 0.
        port_epoch: &'a mut [u64],
        epoch: u64,
    },
    Reference {
        outbox: &'a mut Vec<(PortId, Payload)>,
        sent_on_port: &'a mut [usize],
    },
}

/// What a node sees and may do during one round.
pub struct RoundCtx<'a> {
    id: u64,
    degree: usize,
    round: usize,
    inbox: &'a [(PortId, Payload)],
    sink: SendSink<'a>,
    capacity: usize,
    violation: Option<PortId>,
    /// Max messages this node put on one port this round (for tracing).
    max_port_sent: usize,
}

impl<'a> RoundCtx<'a> {
    /// This node's unique KT0 identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of incident edges (ports `0..degree`).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Current round number (0-based; round 0 has an empty inbox).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Messages received this round, as `(arrival_port, payload)`.
    pub fn inbox(&self) -> &[(PortId, Payload)] {
        self.inbox
    }

    /// Sends `msg` over port `p`, to be delivered next round.
    ///
    /// Exceeding the per-edge capacity is recorded and surfaces as
    /// [`SimError::CapacityExceeded`] when the round ends (the offending
    /// message is dropped).
    pub fn send(&mut self, p: PortId, msg: Payload) {
        debug_assert!(p < self.degree, "port {p} out of range");
        match &mut self.sink {
            SendSink::Fast {
                targets,
                staging,
                port_sent,
                port_epoch,
                epoch,
            } => {
                let sent = if port_epoch[p] == *epoch {
                    port_sent[p]
                } else {
                    0
                };
                if sent as usize >= self.capacity {
                    self.violation.get_or_insert(p);
                    return;
                }
                port_epoch[p] = *epoch;
                port_sent[p] = sent + 1;
                self.max_port_sent = self.max_port_sent.max(sent as usize + 1);
                let (_, dest, port) = targets[p];
                staging.push(Staged { dest, port, msg });
            }
            SendSink::Reference {
                outbox,
                sent_on_port,
            } => {
                if sent_on_port[p] >= self.capacity {
                    self.violation.get_or_insert(p);
                    return;
                }
                sent_on_port[p] += 1;
                self.max_port_sent = self.max_port_sent.max(sent_on_port[p]);
                outbox.push((p, msg));
            }
        }
    }

    /// Sends `msg` over every port ("local broadcast").
    pub fn send_all(&mut self, msg: Payload) {
        for p in 0..self.degree {
            self.send(p, msg);
        }
    }

    /// Runs `program` for one round of the dense reference loop,
    /// collecting its sends into `outbox`/`sent_on_port`. Returns the
    /// first capacity violation, if any. (The reference engine lives in
    /// [`crate::reference`]; this hook keeps `RoundCtx` construction
    /// private while letting both engines drive the same programs.)
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn drive_reference<P: NodeProgram>(
        program: &mut P,
        id: u64,
        degree: usize,
        round: usize,
        inbox: &[(PortId, Payload)],
        outbox: &mut Vec<(PortId, Payload)>,
        sent_on_port: &mut [usize],
        capacity: usize,
    ) -> Option<PortId> {
        let mut ctx = RoundCtx {
            id,
            degree,
            round,
            inbox,
            sink: SendSink::Reference {
                outbox,
                sent_on_port,
            },
            capacity,
            violation: None,
            max_port_sent: 0,
        };
        program.on_round(&mut ctx);
        ctx.violation
    }
}

/// A per-node state machine.
///
/// Implementations hold all node-local state; the simulator calls
/// [`NodeProgram::on_round`] when the node is scheduled. A node that
/// still intends to act spontaneously (without waiting for a message)
/// must return `true` from [`NodeProgram::wants_round`], otherwise
/// quiescence may be declared.
///
/// # Contract (active-set scheduling)
///
/// The simulator steps a node only when it has messages to receive or
/// its `wants_round` returned `true` after its last step. A conforming
/// program must therefore make `on_round` a **no-op** whenever the inbox
/// is empty and `wants_round` is `false` — it may not mutate state, send
/// messages, or flip `wants_round` in that situation. (All in-tree
/// programs satisfy this; the dense [`crate::reference`] loop, which
/// still calls every node every round, is differentially tested against
/// the frontier-driven engine to pin the equivalence.)
pub trait NodeProgram {
    /// Handles one round: read `ctx.inbox()`, update state, send messages.
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>);

    /// Whether this node wants to run again even with an empty inbox.
    /// Default `false`: act only on arriving messages.
    fn wants_round(&self) -> bool {
        false
    }
}

/// Per-round statistics, for tracing and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// Messages sent during this round.
    pub sent: u64,
    /// Messages delivered at the start of this round.
    pub delivered: u64,
    /// Max messages any single directed edge carried this round.
    pub max_edge_load: usize,
}

/// Epoch value meaning "never stamped" (no round ever uses it).
const NEVER: u64 = u64::MAX;

/// The synchronous simulator: a [`Network`] plus one program per node.
///
/// See the [module docs](self) for the engine internals (flat message
/// arenas, active-set scheduling, opt-in tracing) and the equivalence
/// guarantee against [`crate::reference::ReferenceSimulator`].
pub struct Simulator<'n, P> {
    net: &'n Network,
    programs: Vec<P>,
    capacity: usize,
    round: usize,
    messages: u64,

    // --- Inbox arena for the *current* round (CSR over destinations).
    /// Delivered messages, grouped by destination, send-order inside.
    arena: Vec<(PortId, Payload)>,
    /// Nodes with a non-empty inbox this round, ascending.
    inbox_nodes: Vec<NodeId>,
    /// Per node: offset of its slice in `arena` (valid iff stamped).
    inbox_start: Vec<u32>,
    /// Per node: length of its slice in `arena` (valid iff stamped).
    inbox_len: Vec<u32>,
    /// Per node: round stamp validating `inbox_start`/`inbox_len`.
    inbox_epoch: Vec<u64>,

    // --- Send staging (recycled every round).
    staging: Vec<Staged>,
    /// Scratch: destinations first touched while counting the scatter.
    touched: Vec<NodeId>,
    /// Scratch: per-destination counter, then scatter cursor.
    dest_count: Vec<u32>,
    /// Round stamp validating `dest_count`.
    dest_epoch: Vec<u64>,

    // --- Per-port capacity counters over the degree prefix sums.
    port_sent: Vec<u32>,
    port_epoch: Vec<u64>,

    // --- Active-set bookkeeping.
    /// `wants[v]`: result of `v`'s last `wants_round` query.
    wants: Vec<bool>,
    /// Nodes with `wants[v] == true`, ascending.
    want_list: Vec<NodeId>,
    /// Scratch: this round's schedule (inbox ∪ wants, ascending).
    active: Vec<NodeId>,
    /// Scratch: want-list insertions/removals discovered this round.
    want_added: Vec<NodeId>,
    want_removed: Vec<NodeId>,

    // --- Opt-in tracing.
    trace: bool,
    history: Vec<RoundStats>,

    /// Set by a failed round. A capacity violation aborts mid-schedule,
    /// leaving the want-list bookkeeping half-applied — so instead of
    /// ever running on that state, subsequent steps re-return the error.
    poisoned: Option<SimError>,
}

impl<'n, P: NodeProgram> Simulator<'n, P> {
    /// Creates a simulator with strict CONGEST capacity (1 message per
    /// directed edge per round); `make` builds the program for each node.
    pub fn new(net: &'n Network, make: impl FnMut(NodeId) -> P) -> Simulator<'n, P> {
        Simulator::with_capacity(net, 1, make)
    }

    /// Like [`Simulator::new`] with an explicit per-edge-per-round
    /// capacity (the paper's randomized PA uses `O(log n)`).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(
        net: &'n Network,
        capacity: usize,
        mut make: impl FnMut(NodeId) -> P,
    ) -> Simulator<'n, P> {
        // rmo-lint: allow(R1) — documented precondition; the serving path builds simulators through `Simulator::new`, which passes 1.
        assert!(capacity > 0, "capacity must be positive");
        let n = net.n();
        let programs: Vec<P> = (0..n).map(&mut make).collect();
        let wants: Vec<bool> = programs.iter().map(NodeProgram::wants_round).collect();
        let want_list: Vec<NodeId> = (0..n).filter(|&v| wants.get(v) == Some(&true)).collect();
        Simulator {
            net,
            programs,
            capacity,
            round: 0,
            messages: 0,
            arena: Vec::new(),
            inbox_nodes: Vec::new(),
            inbox_start: vec![0; n],
            inbox_len: vec![0; n],
            inbox_epoch: vec![NEVER; n],
            staging: Vec::new(),
            touched: Vec::new(),
            dest_count: vec![0; n],
            dest_epoch: vec![NEVER; n],
            port_sent: vec![0; net.total_ports()],
            port_epoch: vec![NEVER; net.total_ports()],
            wants,
            want_list,
            active: Vec::new(),
            want_added: Vec::new(),
            want_removed: Vec::new(),
            trace: false,
            history: Vec::new(),
            poisoned: None,
        }
    }

    /// Enables (or disables) per-round [`RoundStats`] collection.
    /// Tracing is **off by default**: the steady-state loop then skips
    /// all statistics bookkeeping and [`Simulator::round_history`] stays
    /// empty. Round and message totals are always exact either way.
    pub fn trace_rounds(&mut self, enabled: bool) {
        self.trace = enabled;
    }

    /// Per-round statistics recorded so far (one entry per executed
    /// round **while tracing was enabled** — see
    /// [`Simulator::trace_rounds`]).
    pub fn round_history(&self) -> &[RoundStats] {
        &self.history
    }

    /// The program of node `v` (for reading results after a run).
    pub fn program(&self, v: NodeId) -> &P {
        &self.programs[v]
    }

    /// Whether the network is quiescent: nothing in flight and no node
    /// wanting a round. `O(active)` — only registered nodes are queried.
    pub fn is_quiescent(&self) -> bool {
        self.inbox_nodes.is_empty()
            && !self
                .want_list
                .iter()
                .any(|&v| self.programs[v].wants_round())
    }

    /// Builds this round's schedule: `inbox_nodes ∪ want_list`,
    /// ascending, deduplicated, into the recycled `active` scratch.
    fn build_active(&mut self) {
        self.active.clear();
        let (mut i, mut j) = (0, 0);
        while i < self.inbox_nodes.len() || j < self.want_list.len() {
            let a = self.inbox_nodes.get(i).copied().unwrap_or(usize::MAX);
            let b = self.want_list.get(j).copied().unwrap_or(usize::MAX);
            let v = a.min(b);
            if a == v {
                i += 1;
            }
            if b == v {
                j += 1;
            }
            self.active.push(v);
        }
    }

    /// Applies the want-list changes collected while stepping (both
    /// change lists are ascending because active nodes run in ascending
    /// order), merging in `O(want_list + changes)`.
    fn apply_want_changes(&mut self) {
        if self.want_removed.is_empty() && self.want_added.is_empty() {
            return;
        }
        // Drop removals in place, then merge additions.
        let removed = std::mem::take(&mut self.want_removed);
        self.want_list.retain(|v| removed.binary_search(v).is_err());
        self.want_removed = removed;
        self.want_removed.clear();
        // Backwards in-place merge of the (disjoint, ascending) additions,
        // so no round allocates once the list capacity has grown.
        if !self.want_added.is_empty() {
            let old_len = self.want_list.len();
            self.want_list.resize(old_len + self.want_added.len(), 0);
            let mut i = old_len;
            let mut j = self.want_added.len();
            let mut k = self.want_list.len();
            while j > 0 {
                if i > 0 && self.want_list[i - 1] > self.want_added[j - 1] {
                    self.want_list[k - 1] = self.want_list[i - 1];
                    i -= 1;
                } else {
                    self.want_list[k - 1] = self.want_added[j - 1];
                    j -= 1;
                }
                k -= 1;
            }
            self.want_added.clear();
        }
    }

    /// Counting-scatters `staging` into the inbox arena for the next
    /// round: one pass to count per destination, one stable pass to
    /// place — so each destination's slice preserves global send order,
    /// exactly like the reference's per-node inbox pushes. Allocation-
    /// free once buffer capacities have grown to the workload.
    fn scatter_staging(&mut self) {
        // Stamp with the round the messages are *delivered* in.
        let epoch = self.round as u64 + 1;
        self.touched.clear();
        for s in &self.staging {
            if self.dest_epoch[s.dest] != epoch {
                self.dest_epoch[s.dest] = epoch;
                self.dest_count[s.dest] = 0;
                self.touched.push(s.dest);
            }
            self.dest_count[s.dest] += 1;
        }
        self.touched.sort_unstable();
        let mut off = 0u32;
        for &d in &self.touched {
            self.inbox_start[d] = off;
            self.inbox_len[d] = self.dest_count[d];
            self.inbox_epoch[d] = epoch;
            // Reuse the count as the scatter cursor.
            self.dest_count[d] = off;
            off += self.inbox_len[d];
        }
        self.arena.clear();
        self.arena
            .resize(self.staging.len(), (0, Payload::default()));
        for s in &self.staging {
            let slot = self.dest_count[s.dest];
            self.arena[slot as usize] = (s.port, s.msg);
            self.dest_count[s.dest] = slot + 1;
        }
        self.staging.clear();
        std::mem::swap(&mut self.inbox_nodes, &mut self.touched);
    }

    /// Executes a single round. Returns `true` if anything happened
    /// (a message was delivered or sent, or some node wanted the round).
    ///
    /// Only active nodes (non-empty inbox or registered `wants_round`)
    /// are stepped, in ascending [`NodeId`] order; under the
    /// [`NodeProgram`] contract this is observationally identical to the
    /// dense sweep.
    ///
    /// # Errors
    /// Returns [`SimError::CapacityExceeded`] if a node oversent; the
    /// simulator is then poisoned and every further step re-returns the
    /// error (the aborted round's scheduling state is unrecoverable).
    pub fn step(&mut self) -> Result<bool, SimError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let any_inbox = !self.inbox_nodes.is_empty();
        let any_wants = !self.want_list.is_empty();
        if !any_inbox && !any_wants {
            // Nothing to do — a fully quiescent network consumes no
            // round (round 0 included: a program that wants to act
            // spontaneously must say so via `wants_round`).
            return Ok(false);
        }
        self.build_active();
        let epoch = self.round as u64;
        let mut max_edge_load = 0usize;
        for idx in 0..self.active.len() {
            let v = self.active[idx];
            let inbox: &[(PortId, Payload)] = if self.inbox_epoch[v] == epoch {
                let start = self.inbox_start[v] as usize;
                &self.arena[start..start + self.inbox_len[v] as usize]
            } else {
                &[]
            };
            let base = self.net.port_base(v);
            let targets = self.net.port_targets(v);
            let degree = targets.len();
            let watermark = self.staging.len();
            let mut ctx = RoundCtx {
                id: self.net.id_of(v),
                degree,
                round: self.round,
                inbox,
                sink: SendSink::Fast {
                    targets,
                    staging: &mut self.staging,
                    port_sent: &mut self.port_sent[base..base + degree],
                    port_epoch: &mut self.port_epoch[base..base + degree],
                    epoch,
                },
                capacity: self.capacity,
                violation: None,
                max_port_sent: 0,
            };
            self.programs[v].on_round(&mut ctx);
            if let Some(port) = ctx.violation {
                // The offending node contributes nothing (bit-match with
                // the reference, which aborts before draining its outbox).
                self.staging.truncate(watermark);
                let err = SimError::CapacityExceeded {
                    node: v,
                    port,
                    round: self.round,
                };
                self.poisoned = Some(err.clone());
                return Err(err);
            }
            max_edge_load = max_edge_load.max(ctx.max_port_sent);
            self.messages += (self.staging.len() - watermark) as u64;
            let w = self.programs[v].wants_round();
            if w != self.wants[v] {
                self.wants[v] = w;
                if w {
                    self.want_added.push(v);
                } else {
                    self.want_removed.push(v);
                }
            }
        }
        let any_sent = !self.staging.is_empty();
        if self.trace {
            self.history.push(RoundStats {
                sent: self.staging.len() as u64,
                delivered: self.arena.len() as u64,
                max_edge_load,
            });
        }
        self.apply_want_changes();
        self.scatter_staging();
        self.round += 1;
        Ok(any_inbox || any_wants || any_sent)
    }

    /// Runs rounds until quiescence (nothing in flight, nobody wants a
    /// round) or until exactly `max_rounds` rounds have executed — the
    /// cap is exact: a run that needs `max_rounds` rounds succeeds, a
    /// run still active after `max_rounds` rounds errors without
    /// executing a single round more.
    ///
    /// # Errors
    /// [`SimError::RoundLimit`] if the cap binds, or a capacity
    /// violation from [`Simulator::step`].
    pub fn run_until_quiescent(&mut self, max_rounds: usize) -> Result<CostReport, SimError> {
        let start_round = self.round;
        let start_msgs = self.messages;
        loop {
            if self.round - start_round >= max_rounds && !self.is_quiescent() {
                return Err(SimError::RoundLimit { limit: max_rounds });
            }
            let progressed = self.step()?;
            if !progressed {
                break;
            }
        }
        Ok(CostReport::with_capacity(
            self.round - start_round,
            self.messages - start_msgs,
            self.capacity,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_graph::gen;

    /// Every node floods a token once; used to test accounting.
    struct FloodOnce {
        fired: bool,
    }

    impl NodeProgram for FloodOnce {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if !self.fired {
                self.fired = true;
                ctx.send_all(Payload::tag_only(1));
            }
        }
        fn wants_round(&self) -> bool {
            !self.fired
        }
    }

    #[test]
    fn flood_once_counts_2m_messages() {
        let g = gen::grid(4, 4);
        let net = Network::new(&g, 0);
        let mut sim = Simulator::new(&net, |_| FloodOnce { fired: false });
        let rep = sim.run_until_quiescent(10).unwrap();
        assert_eq!(rep.messages, 2 * g.m() as u64);
        // round 0: everyone sends; round 1: deliveries, nobody reacts;
        // round 2: quiescent check.
        assert!(rep.rounds <= 3);
    }

    /// A node that spams one port to trigger the capacity check.
    struct Spammer;
    impl NodeProgram for Spammer {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.round() == 0 && ctx.degree() > 0 {
                ctx.send(0, Payload::tag_only(1));
                ctx.send(0, Payload::tag_only(2));
            }
        }
        fn wants_round(&self) -> bool {
            true
        }
    }

    #[test]
    fn capacity_violation_detected() {
        let g = gen::path(2);
        let net = Network::new(&g, 0);
        let mut sim = Simulator::new(&net, |_| Spammer);
        let err = sim.run_until_quiescent(5).unwrap_err();
        assert!(matches!(err, SimError::CapacityExceeded { .. }));
    }

    #[test]
    fn capacity_error_poisons_the_simulator() {
        let g = gen::path(2);
        let net = Network::new(&g, 0);
        let mut sim = Simulator::new(&net, |_| Spammer);
        let err = sim.step().unwrap_err();
        assert_eq!(
            sim.step().unwrap_err(),
            err,
            "the aborted round's scheduling state is unrecoverable, so \
             further steps must re-return the error instead of running"
        );
    }

    #[test]
    fn capacity_two_allows_two_messages() {
        let g = gen::path(2);
        let net = Network::new(&g, 0);
        struct TwoSender {
            done: bool,
        }
        impl NodeProgram for TwoSender {
            fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
                if !self.done {
                    self.done = true;
                    ctx.send(0, Payload::tag_only(1));
                    ctx.send(0, Payload::tag_only(2));
                }
            }
            fn wants_round(&self) -> bool {
                !self.done
            }
        }
        let mut sim = Simulator::with_capacity(&net, 2, |_| TwoSender { done: false });
        let rep = sim.run_until_quiescent(5).unwrap();
        assert_eq!(rep.messages, 4);
        assert_eq!(rep.capacity_multiplier, 2);
    }

    /// Quiescent program: sends nothing, wants nothing.
    struct Idle;
    impl NodeProgram for Idle {
        fn on_round(&mut self, _ctx: &mut RoundCtx<'_>) {}
    }

    #[test]
    fn idle_network_quiesces_immediately() {
        let g = gen::cycle(5);
        let net = Network::new(&g, 0);
        let mut sim = Simulator::new(&net, |_| Idle);
        let rep = sim.run_until_quiescent(100).unwrap();
        assert_eq!(rep.messages, 0);
        assert_eq!(rep.rounds, 0, "a quiescent network consumes no round");
        // Even with a zero round budget, quiescence is success — and the
        // reported cost respects the budget.
        let rep = Simulator::new(&net, |_| Idle)
            .run_until_quiescent(0)
            .unwrap();
        assert_eq!(rep.rounds, 0);
    }

    #[test]
    fn round_history_records_traffic_when_traced() {
        let g = gen::path(4);
        let net = Network::new(&g, 0);
        let mut sim = Simulator::new(&net, |_| FloodOnce { fired: false });
        sim.trace_rounds(true);
        sim.run_until_quiescent(10).unwrap();
        let hist = sim.round_history();
        assert!(!hist.is_empty());
        assert_eq!(hist[0].sent, 2 * g.m() as u64, "everyone floods in round 0");
        assert_eq!(hist[0].delivered, 0, "nothing in flight yet");
        assert_eq!(hist[1].delivered, 2 * g.m() as u64);
        assert!(hist[0].max_edge_load <= 1, "strict CONGEST");
        let total: u64 = hist.iter().map(|s| s.sent).sum();
        assert_eq!(total, sim.messages);
    }

    #[test]
    fn round_history_is_opt_in() {
        let g = gen::path(4);
        let net = Network::new(&g, 0);
        let mut sim = Simulator::new(&net, |_| FloodOnce { fired: false });
        sim.run_until_quiescent(10).unwrap();
        assert!(
            sim.round_history().is_empty(),
            "tracing is off by default — no per-round stats retained"
        );
        assert!(sim.messages > 0, "totals are still exact");
    }

    struct Forever;
    impl NodeProgram for Forever {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            ctx.send(0, Payload::tag_only(0));
        }
        fn wants_round(&self) -> bool {
            true
        }
    }

    #[test]
    fn round_limit_enforced() {
        let g = gen::path(2);
        let net = Network::new(&g, 0);
        let mut sim = Simulator::new(&net, |_| Forever);
        let err = sim.run_until_quiescent(10).unwrap_err();
        assert_eq!(err, SimError::RoundLimit { limit: 10 });
    }

    #[test]
    fn round_limit_is_exact() {
        // A non-quiescing run executes exactly `max_rounds` rounds
        // before erroring — not `max_rounds + 1` (the old off-by-one).
        let g = gen::path(2);
        let net = Network::new(&g, 0);
        let mut sim = Simulator::new(&net, |_| Forever);
        assert!(sim.run_until_quiescent(7).is_err());
        assert_eq!(sim.round, 7, "cap of 7 executes 7 rounds");
        // Zero budget: error before any round runs.
        let mut sim = Simulator::new(&net, |_| Forever);
        assert_eq!(
            sim.run_until_quiescent(0).unwrap_err(),
            SimError::RoundLimit { limit: 0 }
        );
        assert_eq!(sim.round, 0);
    }

    #[test]
    fn round_limit_boundary_admits_exact_fit() {
        // FloodOnce on a path quiesces after exactly 2 executed rounds
        // (fire, deliver); a cap of exactly 2 must succeed.
        let g = gen::path(6);
        let net = Network::new(&g, 0);
        let mut sim = Simulator::new(&net, |_| FloodOnce { fired: false });
        let rep = sim.run_until_quiescent(2).expect("exact fit succeeds");
        assert_eq!(rep.rounds, 2);
        // One round fewer must fail.
        let mut sim = Simulator::new(&net, |_| FloodOnce { fired: false });
        assert_eq!(
            sim.run_until_quiescent(1).unwrap_err(),
            SimError::RoundLimit { limit: 1 }
        );
    }

    #[test]
    fn active_set_runs_in_ascending_order() {
        // Nodes record the global step order; with everyone active the
        // schedule must be 0..n ascending (the determinism anchor).
        use std::cell::RefCell;
        use std::rc::Rc;
        let order: Rc<RefCell<Vec<NodeId>>> = Rc::default();
        struct Recorder {
            node: NodeId,
            fired: bool,
            order: Rc<RefCell<Vec<NodeId>>>,
        }
        impl NodeProgram for Recorder {
            fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
                if !self.fired {
                    self.fired = true;
                    self.order.borrow_mut().push(self.node);
                    ctx.send_all(Payload::tag_only(1));
                }
            }
            fn wants_round(&self) -> bool {
                !self.fired
            }
        }
        let g = gen::cycle(7);
        let net = Network::new(&g, 0);
        let mut sim = Simulator::new(&net, |node| Recorder {
            node,
            fired: false,
            order: Rc::clone(&order),
        });
        sim.run_until_quiescent(10).unwrap();
        assert_eq!(*order.borrow(), (0..7).collect::<Vec<_>>());
    }
}
