//! Sub-part divisions (Definition 4.1).
//!
//! A sub-part division refines every part into `Õ(|Pᵢ|/D)` sub-parts,
//! each with a spanning tree of diameter `O(D)` rooted at its
//! **representative**. Representatives are the only nodes allowed to use
//! shortcut edges — the paper's key message-saving device (Section 3.2).

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use rmo_graph::{Graph, NodeId, Partition};

/// Errors from validating a [`SubPartDivision`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivisionError {
    /// A sub-part spans two different parts.
    CrossesParts { subpart: usize },
    /// A node's tree parent is not a graph neighbor.
    BadParent { node: NodeId },
    /// A node's tree parent is in a different sub-part.
    ParentOutsideSubpart { node: NodeId },
    /// A sub-part's parent pointers do not reach its representative.
    NotATree { subpart: usize },
    /// A representative is not a member of its own sub-part.
    RepOutside { subpart: usize },
}

impl fmt::Display for DivisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivisionError::CrossesParts { subpart } => {
                write!(f, "sub-part {subpart} crosses part boundaries")
            }
            DivisionError::BadParent { node } => {
                write!(f, "node {node}'s sub-part parent is not a neighbor")
            }
            DivisionError::ParentOutsideSubpart { node } => {
                write!(f, "node {node}'s parent lies outside its sub-part")
            }
            DivisionError::NotATree { subpart } => {
                write!(f, "sub-part {subpart}'s parents do not form a tree")
            }
            DivisionError::RepOutside { subpart } => {
                write!(f, "sub-part {subpart}'s representative is not a member")
            }
        }
    }
}

impl std::error::Error for DivisionError {}

/// A sub-part division: per-node sub-part assignment, per-sub-part
/// representative, and an in-sub-part spanning tree as parent pointers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubPartDivision {
    /// `subpart_of[v]` — global sub-part id of node `v`.
    subpart_of: Vec<usize>,
    /// `parent[v]` — `v`'s parent in its sub-part tree (`None` at reps).
    parent: Vec<Option<NodeId>>,
    /// `rep[s]` — representative of sub-part `s`.
    rep: Vec<NodeId>,
    /// `members[s]` — nodes of sub-part `s`.
    members: Vec<Vec<NodeId>>,
    /// `part_of_subpart[s]` — the part containing sub-part `s`.
    part_of_subpart: Vec<usize>,
    /// `depth[v]` — depth of `v` in its sub-part tree.
    depth: Vec<usize>,
}

impl SubPartDivision {
    /// Assembles and validates a division from raw arrays.
    ///
    /// `subpart_of` assigns each node a dense sub-part id; `parent` gives
    /// each non-representative node its tree parent (a same-sub-part
    /// graph neighbor); `rep` lists each sub-part's representative.
    ///
    /// # Errors
    /// Returns [`DivisionError`] describing the first violated invariant.
    pub fn new(
        g: &Graph,
        parts: &Partition,
        subpart_of: Vec<usize>,
        parent: Vec<Option<NodeId>>,
        rep: Vec<NodeId>,
    ) -> Result<SubPartDivision, DivisionError> {
        let num = rep.len();
        let mut members = vec![Vec::new(); num];
        for (v, &s) in subpart_of.iter().enumerate() {
            members[s].push(v);
        }
        let mut part_of_subpart = vec![0usize; num];
        for s in 0..num {
            if !members[s].contains(&rep[s]) {
                return Err(DivisionError::RepOutside { subpart: s });
            }
            let p = parts.part_of(rep[s]);
            part_of_subpart[s] = p;
            for &v in &members[s] {
                if parts.part_of(v) != p {
                    return Err(DivisionError::CrossesParts { subpart: s });
                }
            }
        }
        // Parent sanity + depth via BFS from each rep along child lists.
        let n = g.n();
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in 0..n {
            match parent[v] {
                None => {
                    // must be the rep of its sub-part
                    if rep[subpart_of[v]] != v {
                        return Err(DivisionError::NotATree {
                            subpart: subpart_of[v],
                        });
                    }
                }
                Some(p) => {
                    if g.edge_between(v, p).is_none() {
                        return Err(DivisionError::BadParent { node: v });
                    }
                    if subpart_of[p] != subpart_of[v] {
                        return Err(DivisionError::ParentOutsideSubpart { node: v });
                    }
                    children[p].push(v);
                }
            }
        }
        let mut depth = vec![usize::MAX; n];
        for s in 0..num {
            let r = rep[s];
            depth[r] = 0;
            let mut q = VecDeque::from([r]);
            let mut seen = 1;
            while let Some(u) = q.pop_front() {
                for &c in &children[u] {
                    depth[c] = depth[u] + 1;
                    seen += 1;
                    q.push_back(c);
                }
            }
            if seen != members[s].len() {
                return Err(DivisionError::NotATree { subpart: s });
            }
        }
        Ok(SubPartDivision {
            subpart_of,
            parent,
            rep,
            members,
            part_of_subpart,
            depth,
        })
    }

    /// The trivial division: every part is a single sub-part whose
    /// representative is the given leader and whose tree is a BFS tree of
    /// the part from the leader.
    ///
    /// # Panics
    /// Panics if a leader is outside its part.
    pub fn one_per_part(g: &Graph, parts: &Partition, leaders: &[NodeId]) -> SubPartDivision {
        assert_eq!(leaders.len(), parts.num_parts());
        let n = g.n();
        let mut subpart_of = vec![0usize; n];
        let mut parent = vec![None; n];
        for p in parts.part_ids() {
            let leader = leaders[p];
            assert_eq!(parts.part_of(leader), p, "leader {leader} outside part {p}");
            for &v in parts.members(p) {
                subpart_of[v] = p;
            }
            // BFS within the part from the leader.
            let mut q = VecDeque::from([leader]);
            let mut seen: BTreeMap<NodeId, ()> = BTreeMap::from([(leader, ())]);
            while let Some(u) = q.pop_front() {
                let mut nbrs: Vec<_> = g.neighbors(u).map(|(w, _)| w).collect();
                nbrs.sort_unstable();
                for w in nbrs {
                    if parts.part_of(w) == p && !seen.contains_key(&w) {
                        seen.insert(w, ());
                        parent[w] = Some(u);
                        q.push_back(w);
                    }
                }
            }
        }
        SubPartDivision::new(g, parts, subpart_of, parent, leaders.to_vec())
            .expect("per-part BFS trees are valid")
    }

    /// Number of sub-parts.
    pub fn num_subparts(&self) -> usize {
        self.rep.len()
    }

    /// Sub-part id of node `v`.
    pub fn subpart_of(&self, v: NodeId) -> usize {
        self.subpart_of[v]
    }

    /// Representative of sub-part `s`.
    pub fn rep_of_subpart(&self, s: usize) -> NodeId {
        self.rep[s]
    }

    /// Representative of the sub-part containing `v` (the paper's `r(v)`).
    pub fn rep_of(&self, v: NodeId) -> NodeId {
        self.rep[self.subpart_of[v]]
    }

    /// Members of sub-part `s`.
    pub fn members(&self, s: usize) -> &[NodeId] {
        &self.members[s]
    }

    /// Tree parent of `v` inside its sub-part (`None` at representatives).
    pub fn parent_of(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v]
    }

    /// Depth of `v` in its sub-part tree (representatives have depth 0).
    pub fn depth_of(&self, v: NodeId) -> usize {
        self.depth[v]
    }

    /// Depth of sub-part `s`'s tree (max member depth).
    pub fn subpart_depth(&self, s: usize) -> usize {
        self.members[s]
            .iter()
            .map(|&v| self.depth[v])
            .max()
            .unwrap_or(0)
    }

    /// The part containing sub-part `s`.
    pub fn part_of_subpart(&self, s: usize) -> usize {
        self.part_of_subpart[s]
    }

    /// Sub-part ids belonging to part `p`.
    pub fn subparts_of_part(&self, p: usize) -> Vec<usize> {
        (0..self.num_subparts())
            .filter(|&s| self.part_of_subpart[s] == p)
            .collect()
    }

    /// Representatives of part `p` (the set `Rᵢ` of Algorithm 1).
    pub fn reps_of_part(&self, p: usize) -> Vec<NodeId> {
        self.subparts_of_part(p)
            .into_iter()
            .map(|s| self.rep[s])
            .collect()
    }

    /// Max sub-part tree depth over all sub-parts (bounds the rounds of
    /// intra-sub-part broadcast phases).
    pub fn max_depth(&self) -> usize {
        (0..self.num_subparts())
            .map(|s| self.subpart_depth(s))
            .max()
            .unwrap_or(0)
    }

    /// Number of sub-parts of part `p`.
    pub fn subpart_count_of_part(&self, p: usize) -> usize {
        self.subparts_of_part(p).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmo_graph::gen;

    #[test]
    fn one_per_part_is_valid() {
        let g = gen::grid(4, 5);
        let parts = Partition::new(&g, gen::grid_row_partition(4, 5)).unwrap();
        let leaders: Vec<NodeId> = parts.part_ids().map(|p| parts.members(p)[0]).collect();
        let d = SubPartDivision::one_per_part(&g, &parts, &leaders);
        assert_eq!(d.num_subparts(), 4);
        for (p, &leader) in leaders.iter().enumerate() {
            assert_eq!(d.reps_of_part(p), vec![leader]);
            assert_eq!(d.subpart_depth(p), 4, "row of 5 from its end has depth 4");
        }
        for v in 0..g.n() {
            assert_eq!(d.rep_of(v), leaders[parts.part_of(v)]);
        }
    }

    #[test]
    fn rejects_cross_part_subpart() {
        let g = gen::path(4);
        let parts = Partition::new(&g, vec![0, 0, 1, 1]).unwrap();
        let err = SubPartDivision::new(
            &g,
            &parts,
            vec![0, 0, 0, 1],
            vec![None, Some(0), Some(1), None],
            vec![0, 3],
        )
        .unwrap_err();
        assert_eq!(err, DivisionError::CrossesParts { subpart: 0 });
    }

    #[test]
    fn rejects_non_neighbor_parent() {
        let g = gen::path(4);
        let parts = Partition::whole(&g).unwrap();
        let err = SubPartDivision::new(
            &g,
            &parts,
            vec![0, 0, 0, 0],
            vec![None, Some(0), Some(0), Some(2)], // 2's parent 0 is not adjacent
            vec![0],
        )
        .unwrap_err();
        assert_eq!(err, DivisionError::BadParent { node: 2 });
    }

    #[test]
    fn rejects_cycle() {
        let g = gen::cycle(4);
        let parts = Partition::whole(&g).unwrap();
        // 1 <- 2 <- 3 <- ... wait: make 2 and 3 point at each other.
        let err = SubPartDivision::new(
            &g,
            &parts,
            vec![0, 0, 0, 0],
            vec![None, Some(0), Some(3), Some(2)],
            vec![0],
        )
        .unwrap_err();
        assert_eq!(err, DivisionError::NotATree { subpart: 0 });
    }

    #[test]
    fn depths_computed() {
        let g = gen::path(5);
        let parts = Partition::whole(&g).unwrap();
        let d = SubPartDivision::one_per_part(&g, &parts, &[2]);
        assert_eq!(d.depth_of(2), 0);
        assert_eq!(d.depth_of(0), 2);
        assert_eq!(d.depth_of(4), 2);
        assert_eq!(d.max_depth(), 2);
    }
}
