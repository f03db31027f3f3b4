// U1 allow corpus: a reasoned allow exempts a `pub fn` and makes it a
// root, so the fn it calls in another file counts as reached; a
// reason-less allow surfaces as E1.

// rmo-lint: allow(U1) — the opt-in ledger test is the only check of the fast path.
pub fn ledger() -> u64 {
    crate::other::leaf()
}

// rmo-lint: allow(U1)
pub fn bare() -> u64 {
    0
}
