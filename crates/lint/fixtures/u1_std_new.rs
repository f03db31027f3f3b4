// U1 std-name corpus: the only `new` a reached fn calls is
// `OnceLock::new`, a std type's. It names no workspace fn, so it must not
// keep `Scratch::new` alive: the caller builds through `Default`, and
// `new` has no caller.
#[derive(Default)]
pub struct Scratch {
    slots: Vec<u64>,
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch::default()
    }

    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}
