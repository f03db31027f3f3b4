// U1 quiet corpus: each `pub fn` has a caller in another file that a
// root reaches: a test, an example, the harness `main`, a perfbench fn,
// a serving entry, or a library fn a test calls (which names
// `Meter::by_value` as a value).
pub fn from_test() -> u64 { 1 }
pub fn from_example() -> u64 { 2 }
pub fn from_harness() -> u64 { 3 }
pub fn from_perfbench() -> u64 { 4 }
pub fn from_serving() -> u64 { 5 }

pub struct Meter;

impl Meter {
    pub fn by_value(x: u64) -> u64 { x }
    pub fn chained() -> u64 { 6 }
}
