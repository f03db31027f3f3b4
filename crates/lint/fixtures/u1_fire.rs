// U1 fire corpus, parsed beside one test file that calls `Widget::api`
// and nothing else: `orphan` and `tested_only` (only its in-file unit
// test calls it) must be deleted, `helper` made private.
pub struct Widget;

impl Widget {
    // The `impl Fn` parameter is a type: `api`'s body, and its call to
    // `helper`, must not be lost.
    pub fn api(&self, scale: impl Fn(u64) -> u64) -> u64 { helper(scale(1)) }
    pub fn orphan(&self) -> u64 { 7 }
}

pub fn helper(x: u64) -> u64 { x + 1 }
pub fn tested_only() -> u64 { 3 }
// Restricted visibility is outside U1's scope.
pub(crate) fn internal() -> u64 { 4 }

impl std::fmt::Display for Widget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write!(f, "{}", internal()) }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tested_only_is_three() { assert_eq!(super::tested_only(), 3); }
}
