//! Word-bounded message payloads.
//!
//! CONGEST allows `O(log n)` bits per message. We model this as a small
//! fixed struct: a 16-bit tag and three 64-bit words — comfortably
//! `O(log n)` for any graph that fits in memory, and deliberately **not**
//! growable, so an algorithm cannot cheat by smuggling large state through
//! one "message".

/// A single CONGEST message: tag + three words.
///
/// The `tag` discriminates message kinds within a program; `a`, `b`, `c`
/// carry ids/values. Programs that need fewer words leave the rest 0.
///
/// # Example
/// ```rust
/// use rmo_congest::Payload;
/// let m = Payload { tag: 3, a: 42, b: 7, c: 0 };
/// assert_eq!(m.tag, 3);
/// assert_eq!(m.a, 42);
/// let probe = Payload::tag_only(9);
/// assert_eq!((probe.a, probe.b, probe.c), (0, 0, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Payload {
    /// Message-kind discriminator (program-defined).
    pub tag: u16,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

impl Payload {
    /// A payload carrying only its tag (probe / ack style messages).
    pub fn tag_only(tag: u16) -> Payload {
        Payload {
            tag,
            a: 0,
            b: 0,
            c: 0,
        }
    }

    /// A payload with a tag and one word.
    pub fn one(tag: u16, a: u64) -> Payload {
        Payload { tag, a, b: 0, c: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let p = Payload::one(2, 5);
        assert_eq!((p.tag, p.a, p.b, p.c), (2, 5, 0, 0));
        let p = Payload::tag_only(1);
        assert_eq!((p.tag, p.a, p.b, p.c), (1, 0, 0, 0));
    }

    #[test]
    fn default_is_zero() {
        let p = Payload::default();
        assert_eq!((p.tag, p.a, p.b, p.c), (0, 0, 0, 0));
    }

    #[test]
    fn payload_is_word_bounded() {
        // The CONGEST O(log n)-bit budget: the struct must stay small and fixed.
        assert!(std::mem::size_of::<Payload>() <= 32);
    }
}
