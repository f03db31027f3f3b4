//! The dense reference scheduler — the pre-optimization round loop,
//! kept verbatim as the semantic oracle for [`crate::Simulator`].
//!
//! [`ReferenceSimulator`] reallocates its inboxes every round, builds a
//! fresh outbox and `sent_on_port` vector per node per round, and calls
//! [`NodeProgram::on_round`] on **every** node **every** round — the
//! simplest possible implementation of the Section 2.1 execution model,
//! and therefore the easiest to audit. The optimized simulator must be
//! bit-for-bit equivalent: same responses (program end states), same
//! rounds, same messages, same per-round [`RoundStats`]. The
//! `sim_differential` proptest suite pins that equivalence on random
//! graphs × programs × seeds, and `rmo-harness perf` re-times this
//! engine against the fast one on every run.
//!
//! Keep this module dumb. Performance work goes in `sim`; anything
//! changed here changes the *specification*.

use rmo_graph::NodeId;

use crate::metrics::CostReport;
use crate::network::{Network, PortId};
use crate::payload::Payload;
use crate::sim::{NodeProgram, RoundStats, SimError};

/// The dense reference scheduler (see the [module docs](self)).
///
/// Node programs take the same [`crate::RoundCtx`] here as under the
/// fast engine — the context routes sends into reference-owned per-node
/// buffers instead of the flat staging arena — so a `NodeProgram`
/// implementation is oblivious to which engine runs it.
pub struct ReferenceSimulator<'n, P> {
    net: &'n Network,
    programs: Vec<P>,
    capacity: usize,
    round: usize,
    messages: u64,
    /// Inboxes for the *next* round.
    pending: Vec<Vec<(PortId, Payload)>>,
    /// Per-round trace (always on — this is the oracle).
    history: Vec<RoundStats>,
}

impl<'n, P: NodeProgram> ReferenceSimulator<'n, P> {
    /// Creates a reference simulator with strict CONGEST capacity.
    pub fn new(net: &'n Network, make: impl FnMut(NodeId) -> P) -> ReferenceSimulator<'n, P> {
        ReferenceSimulator::with_capacity(net, 1, make)
    }

    /// Like [`ReferenceSimulator::new`] with an explicit per-edge
    /// capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_capacity(
        net: &'n Network,
        capacity: usize,
        mut make: impl FnMut(NodeId) -> P,
    ) -> ReferenceSimulator<'n, P> {
        assert!(capacity > 0, "capacity must be positive");
        let programs = (0..net.n()).map(&mut make).collect();
        ReferenceSimulator {
            net,
            programs,
            capacity,
            round: 0,
            messages: 0,
            pending: vec![Vec::new(); net.n()],
            history: Vec::new(),
        }
    }

    /// Per-round statistics (one entry per executed round).
    pub fn round_history(&self) -> &[RoundStats] {
        &self.history
    }

    /// The program of node `v`.
    pub fn program(&self, v: NodeId) -> &P {
        &self.programs[v]
    }

    /// Whether the network is quiescent: nothing in flight and no node
    /// wanting a round (dense scan — this is the reference).
    pub fn is_quiescent(&self) -> bool {
        self.pending.iter().all(Vec::is_empty) && !self.programs.iter().any(|p| p.wants_round())
    }

    /// Executes a single round with the dense sweep. Returns `true` if
    /// anything happened.
    ///
    /// # Errors
    /// Returns [`SimError::CapacityExceeded`] if a node oversent.
    pub fn step(&mut self) -> Result<bool, SimError> {
        let n = self.net.n();
        let inboxes = std::mem::replace(&mut self.pending, vec![Vec::new(); n]);
        let any_inbox = inboxes.iter().any(|i| !i.is_empty());
        let any_wants = self.programs.iter().any(|p| p.wants_round());
        if !any_inbox && !any_wants {
            // Matches the fast engine: a fully quiescent network
            // consumes no round, round 0 included.
            self.pending = inboxes;
            return Ok(false);
        }
        let mut any_sent = false;
        let mut stats = RoundStats {
            delivered: inboxes.iter().map(|i| i.len() as u64).sum(),
            ..RoundStats::default()
        };
        for (v, inbox) in inboxes.iter().enumerate().take(n) {
            let degree = self.net.degree(v);
            let mut outbox = Vec::new();
            let mut sent_on_port = vec![0usize; degree];
            let violation = crate::sim::RoundCtx::drive_reference(
                &mut self.programs[v],
                self.net.id_of(v),
                degree,
                self.round,
                inbox,
                &mut outbox,
                &mut sent_on_port,
                self.capacity,
            );
            if let Some(port) = violation {
                return Err(SimError::CapacityExceeded {
                    node: v,
                    port,
                    round: self.round,
                });
            }
            stats.max_edge_load = stats
                .max_edge_load
                .max(sent_on_port.iter().copied().max().unwrap_or(0));
            for (p, msg) in outbox {
                let (_, u, q) = self.net.port_target(v, p);
                self.pending[u].push((q, msg));
                self.messages += 1;
                stats.sent += 1;
                any_sent = true;
            }
        }
        self.history.push(stats);
        self.round += 1;
        Ok(any_inbox || any_wants || any_sent)
    }

    /// Runs rounds until quiescence or until `max_rounds` rounds have
    /// executed (the cap is exact, matching [`crate::Simulator`]).
    ///
    /// # Errors
    /// [`SimError::RoundLimit`] if the cap binds, or a capacity
    /// violation from [`ReferenceSimulator::step`].
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
