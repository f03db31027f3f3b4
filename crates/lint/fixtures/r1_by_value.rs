// R1 by-value corpus: the serve path names a fn as a value instead of
// calling it, as `group_weight` hands `GroupHistory::mean_work` to
// `and_then`. The named fn runs, so its division is on the path.
pub struct PaCluster {
    history: Vec<GroupHistory>,
}

struct GroupHistory {
    queries: u64,
    work: u64,
}

impl GroupHistory {
    fn mean_work(&self) -> u64 {
        self.work / self.queries
    }
}

impl PaCluster {
    pub fn serve(&self) -> Option<u64> {
        self.history.first().map(GroupHistory::mean_work)
    }
}
