//! Shared fixtures for the cross-crate integration tests.

use rmo::core::{DivisionStrategy, EngineConfig, ShortcutStrategy};

/// The full ablation grid from the [`EngineConfig`] builder: Algorithm 1
/// variant × shortcut construction × sub-part division, all 12
/// combinations.
pub fn config_grid() -> Vec<EngineConfig> {
    let shortcuts = [
        ShortcutStrategy::Trivial,
        ShortcutStrategy::Randomized,
        ShortcutStrategy::Deterministic,
    ];
    let divisions = [
        DivisionStrategy::Deterministic,
        DivisionStrategy::Randomized,
    ];
    [EngineConfig::new(), EngineConfig::new().randomized(17)]
        .into_iter()
        .flat_map(|base| shortcuts.map(|s| base.shortcut(s)))
        .flat_map(|base| divisions.map(|d| base.division(d)))
        .collect()
}
