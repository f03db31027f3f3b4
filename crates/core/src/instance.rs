//! PA problem instances (Definition 1.1).

use std::borrow::Cow;
use std::fmt;

use rmo_graph::{Graph, NodeId, Partition, PartitionError};

use crate::aggregate::Aggregate;

/// Errors constructing or solving a PA instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaError {
    /// The partition was invalid (disconnected part, bad ids, …).
    Partition(PartitionError),
    /// The value array length differed from the node count.
    ValueCountMismatch { expected: usize, got: usize },
    /// The graph must be connected (the CONGEST network is one component).
    Disconnected,
    /// Algorithm 1's wave failed to inform every node within the block
    /// budget — the supplied shortcut's block parameter is too large
    /// (this is exactly what Algorithm 2 detects).
    BlockBudgetExceeded { part: usize, budget: usize },
}

impl fmt::Display for PaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaError::Partition(e) => write!(f, "invalid partition: {e}"),
            PaError::ValueCountMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            PaError::Disconnected => write!(f, "graph must be connected"),
            PaError::BlockBudgetExceeded { part, budget } => {
                write!(
                    f,
                    "part {part} not covered within {budget} block iterations"
                )
            }
        }
    }
}

impl std::error::Error for PaError {}

impl From<PartitionError> for PaError {
    fn from(e: PartitionError) -> PaError {
        PaError::Partition(e)
    }
}

/// A Part-Wise Aggregation instance: graph, connected partition, one value
/// per node, and the aggregate `f`.
///
/// [`PaInstance::from_partition`] owns its partition and values; the
/// engine's warm path borrows both (its cached partition, the caller's
/// values).
#[derive(Debug, Clone)]
pub struct PaInstance<'g> {
    graph: &'g Graph,
    partition: Cow<'g, Partition>,
    values: Cow<'g, [u64]>,
    aggregate: Aggregate,
}

impl<'g> PaInstance<'g> {
    /// Builds an instance from an already-validated [`Partition`] (build
    /// it with [`Partition::new`] from a raw part assignment).
    ///
    /// # Errors
    /// Rejects wrong value counts and disconnected graphs.
    pub fn from_partition(
        graph: &'g Graph,
        partition: Partition,
        values: Vec<u64>,
        aggregate: Aggregate,
    ) -> Result<PaInstance<'g>, PaError> {
        if !graph.is_connected() {
            return Err(PaError::Disconnected);
        }
        if values.len() != graph.n() {
            return Err(PaError::ValueCountMismatch {
                expected: graph.n(),
                got: values.len(),
            });
        }
        Ok(PaInstance {
            graph,
            partition: Cow::Owned(partition),
            values: Cow::Owned(values),
            aggregate,
        })
    }

    /// Borrows a partition already validated against `graph` and
    /// `graph.n()` values, without checking either again (the engine's
    /// cache-hit path).
    pub(crate) fn borrowed(
        graph: &'g Graph,
        partition: &'g Partition,
        values: &'g [u64],
        aggregate: Aggregate,
    ) -> PaInstance<'g> {
        PaInstance {
            graph,
            partition: Cow::Borrowed(partition),
            values: Cow::Borrowed(values),
            aggregate,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Node values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The aggregation function.
    pub fn aggregate(&self) -> Aggregate {
        self.aggregate
    }

    /// Centralized reference: the aggregate of part `p`.
    pub fn reference_aggregate(&self, p: usize) -> u64 {
        self.aggregate
            .fold(self.partition.members(p).iter().map(|&v| self.values[v]))
    }

    /// Centralized reference: the aggregate of the part containing `v`.
    pub fn reference_aggregate_of(&self, v: NodeId) -> u64 {
        self.reference_aggregate(self.partition.part_of(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_graph::gen;

    #[test]
    fn valid_instance() {
        let g = gen::path(6);
        let parts = Partition::new(&g, vec![0, 0, 0, 1, 1, 1]).unwrap();
        let inst =
            PaInstance::from_partition(&g, parts, vec![5, 3, 9, 2, 8, 1], Aggregate::Min).unwrap();
        assert_eq!(inst.reference_aggregate(0), 3);
        assert_eq!(inst.reference_aggregate(1), 1);
        assert_eq!(inst.reference_aggregate_of(4), 1);
    }

    #[test]
    fn rejects_bad_value_count() {
        let g = gen::path(3);
        let parts = Partition::whole(&g).unwrap();
        let err = PaInstance::from_partition(&g, parts, vec![1], Aggregate::Sum).unwrap_err();
        assert_eq!(
            err,
            PaError::ValueCountMismatch {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn rejects_disconnected_graph() {
        let g = rmo_graph::Graph::from_unweighted_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let parts = Partition::new(&g, vec![0, 0, 1, 1]).unwrap();
        let err = PaInstance::from_partition(&g, parts, vec![0; 4], Aggregate::Sum).unwrap_err();
        assert_eq!(err, PaError::Disconnected);
    }

    #[test]
    fn rejects_disconnected_part() {
        // The partition is checked before an instance can exist.
        let g = gen::path(4);
        let err = PaError::from(Partition::new(&g, vec![0, 1, 0, 1]).unwrap_err());
        assert!(matches!(err, PaError::Partition(_)));
    }
}
