//! Answer checks: PA answers against the benchmark's own per-part fold,
//! every other answer by digest against a replay.

use rmo_apps::dispatch::{Query, QueryResponse};
use rmo_core::Aggregate;

/// The benchmark's own fold of one aggregate (not `Aggregate::apply`).
fn combine(agg: Aggregate, a: u64, b: u64) -> u64 {
    match agg {
        Aggregate::Min => a.min(b),
        Aggregate::Max => a.max(b),
        Aggregate::Sum => a.wrapping_add(b),
        Aggregate::Xor => a ^ b,
        Aggregate::Or => a | b,
    }
}

/// Whether `response` is the right answer to the PA `query`: its
/// per-part aggregates equal a fold over each part's values, and every
/// node holds its part's aggregate. `None` if `query` is not PA.
pub fn pa_correct(query: &Query, response: &QueryResponse) -> Option<bool> {
    let Query::Pa {
        assignment,
        values,
        agg,
    } = query
    else {
        return None;
    };
    let QueryResponse::Pa(result) = response else {
        return Some(false);
    };
    let parts = assignment.iter().copied().max().map_or(0, |p| p + 1);
    let mut expected: Vec<Option<u64>> = vec![None; parts];
    for (&part, &value) in assignment.iter().zip(values) {
        let slot = &mut expected[part];
        *slot = Some(slot.map_or(value, |acc| combine(*agg, acc, value)));
    }
    let aggregates_match = result.aggregates.len() == parts
        && expected
            .iter()
            .zip(&result.aggregates)
            .all(|(e, &got)| *e == Some(got));
    let nodes_match = result.node_values.len() == assignment.len()
        && assignment
            .iter()
            .zip(&result.node_values)
            .all(|(&part, &got)| expected[part] == Some(got));
    Some(aggregates_match && nodes_match)
}

/// A stable digest of a response (FNV-1a over its debug rendering).
pub fn digest(response: &QueryResponse) -> u64 {
    let text = format!("{response:?}");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
