//! Vertex partitions into connected parts — the input shape of Part-Wise
//! Aggregation (Definition 1.1).
//!
//! A [`Partition`] assigns every node to exactly one part and certifies
//! that each part induces a connected subgraph, which the paper requires
//! of PA instances.

use std::collections::VecDeque;
use std::fmt;

use crate::graph::{Graph, NodeId};

/// Errors when constructing a [`Partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// The assignment array length differed from the graph's node count.
    LengthMismatch { expected: usize, got: usize },
    /// Part ids were not dense `0..num_parts`.
    NonDenseParts { missing: usize },
    /// A part did not induce a connected subgraph.
    DisconnectedPart { part: usize },
    /// The partition was empty but the graph was not.
    Empty,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "assignment length {got} does not match node count {expected}"
                )
            }
            PartitionError::NonDenseParts { missing } => {
                write!(f, "part id {missing} has no members (ids must be dense)")
            }
            PartitionError::DisconnectedPart { part } => {
                write!(f, "part {part} does not induce a connected subgraph")
            }
            PartitionError::Empty => write!(f, "partition of a non-empty graph is empty"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A partition of a graph's vertex set into connected parts.
///
/// # Example
/// ```rust
/// use rmo_graph::{gen, Partition};
/// let g = gen::path(6);
/// let p = Partition::new(&g, vec![0, 0, 0, 1, 1, 1]).unwrap();
/// assert_eq!(p.num_parts(), 2);
/// assert_eq!(p.part_of(4), 1);
/// assert_eq!(p.members(0), &[0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    part_of: Vec<usize>,
    members: Vec<Vec<NodeId>>,
}

impl Partition {
    /// Builds and validates a partition from a per-node part assignment.
    ///
    /// Part ids must be dense (`0..num_parts`, each non-empty) and every
    /// part must induce a connected subgraph of `g`.
    ///
    /// # Errors
    /// Returns [`PartitionError`] describing the first violated condition.
    pub fn new(g: &Graph, part_of: Vec<usize>) -> Result<Partition, PartitionError> {
        if part_of.len() != g.n() {
            return Err(PartitionError::LengthMismatch {
                expected: g.n(),
                got: part_of.len(),
            });
        }
        if g.n() == 0 {
            return Ok(Partition {
                part_of,
                members: Vec::new(),
            });
        }
        let num_parts = match part_of.iter().max() {
            None => return Err(PartitionError::Empty),
            // n nodes fill at most n dense ids: reject a larger id before
            // sizing the member lists by it.
            Some(&mx) if mx >= g.n() => {
                return Err(PartitionError::NonDenseParts {
                    missing: smallest_missing(&part_of),
                })
            }
            Some(&mx) => mx + 1,
        };
        let mut members = vec![Vec::new(); num_parts];
        for (v, &p) in part_of.iter().enumerate() {
            members[p].push(v);
        }
        if let Some(missing) = members.iter().position(|m| m.is_empty()) {
            return Err(PartitionError::NonDenseParts { missing });
        }
        // Connectivity of each induced subgraph via BFS restricted to the part.
        let mut seen = vec![false; g.n()];
        for (pid, mem) in members.iter().enumerate() {
            let start = mem[0];
            let mut q = VecDeque::from([start]);
            seen[start] = true;
            let mut count = 1;
            while let Some(u) = q.pop_front() {
                for (v, _) in g.neighbors(u) {
                    if part_of[v] == pid && !seen[v] {
                        seen[v] = true;
                        count += 1;
                        q.push_back(v);
                    }
                }
            }
            if count != mem.len() {
                return Err(PartitionError::DisconnectedPart { part: pid });
            }
        }
        Ok(Partition { part_of, members })
    }

    /// The singleton partition: every node its own part.
    pub fn singletons(g: &Graph) -> Partition {
        Partition::new(g, (0..g.n()).collect()).expect("singletons are always connected")
    }

    /// The trivial partition: all nodes in one part (graph must be connected).
    ///
    /// # Errors
    /// Returns [`PartitionError::DisconnectedPart`] if `g` is disconnected.
    pub fn whole(g: &Graph) -> Result<Partition, PartitionError> {
        Partition::new(g, vec![0; g.n()])
    }

    /// Number of parts `N`.
    pub fn num_parts(&self) -> usize {
        self.members.len()
    }

    /// Part id of node `v`.
    pub fn part_of(&self, v: NodeId) -> usize {
        self.part_of[v]
    }

    /// Members of part `p`, in increasing node order.
    pub fn members(&self, p: usize) -> &[NodeId] {
        &self.members[p]
    }

    /// Size of part `p`.
    pub fn part_size(&self, p: usize) -> usize {
        self.members[p].len()
    }

    /// The per-node assignment array.
    pub fn assignment(&self) -> &[usize] {
        &self.part_of
    }

    /// Size of the largest part.
    pub fn max_part_size(&self) -> usize {
        self.members.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterator over part ids.
    pub fn part_ids(&self) -> std::ops::Range<usize> {
        0..self.members.len()
    }
}

/// The smallest id in `0..part_of.len()` that no node takes. One exists
/// whenever some id is `>= part_of.len()`: the other nodes cover fewer
/// ids than there are slots.
fn smallest_missing(part_of: &[usize]) -> usize {
    let mut taken = vec![false; part_of.len()];
    for &p in part_of {
        if let Some(slot) = taken.get_mut(p) {
            *slot = true;
        }
    }
    taken.iter().position(|&t| !t).unwrap_or(part_of.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn valid_partition_accepted() {
        let g = gen::cycle(6);
        let p = Partition::new(&g, vec![0, 0, 1, 1, 2, 2]).unwrap();
        assert_eq!(p.num_parts(), 3);
        assert_eq!(p.max_part_size(), 2);
    }

    #[test]
    fn disconnected_part_rejected() {
        let g = gen::path(4); // 0-1-2-3
        let err = Partition::new(&g, vec![0, 1, 0, 1]).unwrap_err();
        assert!(matches!(err, PartitionError::DisconnectedPart { .. }));
    }

    #[test]
    fn non_dense_rejected() {
        let g = gen::path(3);
        let err = Partition::new(&g, vec![0, 0, 2]).unwrap_err();
        assert_eq!(err, PartitionError::NonDenseParts { missing: 1 });
    }

    #[test]
    fn ids_at_or_past_n_rejected_before_allocating() {
        // Sizing member lists by the largest id would overflow or abort
        // on these; each is reported as the smallest missing id instead.
        let g = gen::path(3);
        for hostile in [3, 1 << 40, usize::MAX / 2 + 1, usize::MAX] {
            let err = Partition::new(&g, vec![0, hostile, 1]).unwrap_err();
            assert_eq!(err, PartitionError::NonDenseParts { missing: 2 });
            let err = Partition::new(&g, vec![hostile; 3]).unwrap_err();
            assert_eq!(err, PartitionError::NonDenseParts { missing: 0 });
        }
    }

    #[test]
    fn length_mismatch_rejected() {
        let g = gen::path(3);
        let err = Partition::new(&g, vec![0, 0]).unwrap_err();
        assert_eq!(
            err,
            PartitionError::LengthMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn singletons_and_whole() {
        let g = gen::grid(3, 3);
        let s = Partition::singletons(&g);
        assert_eq!(s.num_parts(), 9);
        let w = Partition::whole(&g).unwrap();
        assert_eq!(w.num_parts(), 1);
        assert_eq!(w.part_size(0), 9);
    }

    #[test]
    fn whole_rejects_disconnected() {
        let g = Graph::from_unweighted_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(Partition::whole(&g).is_err());
    }

    use crate::graph::Graph;

    #[test]
    fn members_sorted_and_complete() {
        let g = gen::path(5);
        let p = Partition::new(&g, vec![1, 1, 0, 0, 0]).unwrap();
        assert_eq!(p.members(0), &[2, 3, 4]);
        assert_eq!(p.members(1), &[0, 1]);
        let total: usize = p.part_ids().map(|i| p.part_size(i)).sum();
        assert_eq!(total, 5);
    }
}
