//! Sub-part divisions (Definition 4.1).
//!
//! A sub-part division refines every part into `Õ(|Pᵢ|/D)` sub-parts,
//! each with a spanning tree of diameter `O(D)` rooted at its
//! **representative**. Representatives are the only nodes allowed to use
//! shortcut edges — the paper's key message-saving device (Section 3.2).
//!
//! A division is flat: members per sub-part and representatives per part
//! are offset arrays over one shared list each, built by a counting sort,
//! so every accessor returns a slice.

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
    /// A node has no sub-part id below the representative count, or no
    /// parent entry: both arrays need one entry per node.
    NoSubpart { node: NodeId },
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
            DivisionError::NoSubpart { node } => {
                write!(f, "node {node} has no valid sub-part entry")
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
    /// Sub-part `s`'s nodes are `members[member_off[s]..member_off[s + 1]]`,
    /// ascending.
    member_off: Vec<usize>,
    members: Vec<NodeId>,
    /// `part_of_subpart[s]` — the part containing sub-part `s`.
    part_of_subpart: Vec<usize>,
    /// Part `p`'s representatives are `part_reps[rep_off[p]..rep_off[p + 1]]`,
    /// in sub-part id order.
    rep_off: Vec<usize>,
    part_reps: Vec<NodeId>,
    /// `depth[v]` — depth of `v` in its sub-part tree.
    depth: Vec<usize>,
}

/// Groups `(key, item)` pairs by key with a stable counting sort: the
/// offsets (length `buckets + 1`) and the items, bucket by bucket in
/// input order. Callers check that every key is below `buckets`.
fn bucket(
    buckets: usize,
    items: impl Iterator<Item = (usize, usize)> + Clone,
) -> (Vec<usize>, Vec<usize>) {
    let mut off = vec![0usize; buckets + 1];
    for (key, _) in items.clone() {
        if let Some(count) = off.get_mut(key + 1) {
            *count += 1;
        }
    }
    let mut total = 0;
    for o in off.iter_mut() {
        total += *o;
        *o = total;
    }
    let mut cursor = off.clone();
    let mut out = vec![0usize; total];
    for (key, item) in items {
        if let Some(c) = cursor.get_mut(key) {
            if let Some(slot) = out.get_mut(*c) {
                *slot = item;
            }
            *c += 1;
        }
    }
    (off, out)
}

/// The slice `list[off[i]..off[i + 1]]` of an offset array (empty when
/// `i` is out of range).
fn slot<'a>(off: &[usize], list: &'a [usize], i: usize) -> &'a [usize] {
    match (off.get(i), off.get(i + 1)) {
        (Some(&lo), Some(&hi)) => list.get(lo..hi).unwrap_or(&[]),
        _ => &[],
    }
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
        let n = g.n();
        let num = rep.len();
        if subpart_of.len() != n || parent.len() != n {
            let node = subpart_of.len().min(parent.len()).min(n);
            return Err(DivisionError::NoSubpart { node });
        }
        if let Some(node) = subpart_of.iter().position(|&s| s >= num) {
            return Err(DivisionError::NoSubpart { node });
        }
        let (member_off, members) = bucket(num, subpart_of.iter().copied().zip(0..));
        let sub_of = |v: NodeId| subpart_of.get(v).copied().unwrap_or(usize::MAX);
        let mut part_of_subpart = Vec::with_capacity(num);
        for (s, &r) in rep.iter().enumerate() {
            if sub_of(r) != s {
                return Err(DivisionError::RepOutside { subpart: s });
            }
            let p = parts.part_of(r);
            part_of_subpart.push(p);
            if slot(&member_off, &members, s)
                .iter()
                .any(|&v| parts.part_of(v) != p)
            {
                return Err(DivisionError::CrossesParts { subpart: s });
            }
        }
        // Parent sanity + depth via BFS from each rep along child lists.
        for (v, &pv) in parent.iter().enumerate() {
            match pv {
                None => {
                    // must be the rep of its sub-part
                    if rep.get(sub_of(v)) != Some(&v) {
                        return Err(DivisionError::NotATree { subpart: sub_of(v) });
                    }
                }
                Some(p) => {
                    if g.edge_between(v, p).is_none() {
                        return Err(DivisionError::BadParent { node: v });
                    }
                    if sub_of(p) != sub_of(v) {
                        return Err(DivisionError::ParentOutsideSubpart { node: v });
                    }
                }
            }
        }
        // Every parent is a graph neighbor now, so a node id below `n`.
        let edges = parent.iter().zip(0..).filter_map(|(&p, v)| Some((p?, v)));
        let (child_off, children) = bucket(n, edges);
        let mut depth = vec![usize::MAX; n];
        let mut queue: Vec<NodeId> = Vec::new();
        for (s, &r) in rep.iter().enumerate() {
            let size = slot(&member_off, &members, s).len();
            if let Some(d) = depth.get_mut(r) {
                *d = 0;
            }
            queue.clear();
            queue.push(r);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                // A walk past the sub-part's size went round a cycle
                // through the representative's own parent.
                if queue.len() > size {
                    break;
                }
                let du = depth.get(u).copied().unwrap_or(0);
                for &c in slot(&child_off, &children, u) {
                    if let Some(d) = depth.get_mut(c) {
                        *d = du + 1;
                    }
                    queue.push(c);
                }
            }
            if queue.len() != size {
                return Err(DivisionError::NotATree { subpart: s });
            }
        }
        // Every part id comes from the partition, so each is below its
        // part count.
        let (rep_off, part_reps) = bucket(
            parts.num_parts(),
            part_of_subpart.iter().copied().zip(rep.iter().copied()),
        );
        Ok(SubPartDivision {
            subpart_of,
            parent,
            rep,
            member_off,
            members,
            part_of_subpart,
            rep_off,
            part_reps,
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

    /// Members of sub-part `s`, ascending.
    pub fn members(&self, s: usize) -> &[NodeId] {
        slot(&self.member_off, &self.members, s)
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
        self.members(s)
            .iter()
            .filter_map(|&v| self.depth.get(v).copied())
            .max()
            .unwrap_or(0)
    }

    /// The part containing sub-part `s`.
    pub fn part_of_subpart(&self, s: usize) -> usize {
        self.part_of_subpart[s]
    }

    /// Representatives of part `p` (the set `Rᵢ` of Algorithm 1), in
    /// sub-part id order.
    pub fn reps_of_part(&self, p: usize) -> &[NodeId] {
        slot(&self.rep_off, &self.part_reps, p)
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
        self.reps_of_part(p).len()
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
    fn rejects_a_representative_inside_a_parent_cycle() {
        // 0 and 1 are each other's parents and 0 is the representative:
        // the walk from 0 would go round the cycle forever.
        let g = gen::path(3);
        let parts = Partition::whole(&g).unwrap();
        let err = SubPartDivision::new(
            &g,
            &parts,
            vec![0, 0, 0],
            vec![Some(1), Some(0), Some(1)],
            vec![0],
        )
        .unwrap_err();
        assert_eq!(err, DivisionError::NotATree { subpart: 0 });
    }

    #[test]
    fn rejects_missing_or_unknown_subpart_entries() {
        let g = gen::path(3);
        let parts = Partition::whole(&g).unwrap();
        let parent = vec![None, Some(0), Some(1)];
        let unknown = SubPartDivision::new(&g, &parts, vec![0, 0, 5], parent.clone(), vec![0]);
        assert_eq!(unknown, Err(DivisionError::NoSubpart { node: 2 }));
        let short = SubPartDivision::new(&g, &parts, vec![0, 0], parent, vec![0]);
        assert_eq!(short, Err(DivisionError::NoSubpart { node: 2 }));
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
