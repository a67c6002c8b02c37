//! Events of the propagation graph (§3.1, §5.1 of the paper).
//!
//! An event is a program action that propagates information: a function
//! call, an object read (attribute load, subscript, parameter read), or a
//! formal argument of a function definition. Each event carries a chain of
//! *representations* ordered from most to least specific (§3.2).

use seldon_intern::{intern, Symbol};
use seldon_pyast::Span;
use seldon_specs::{Role, RoleSet};
use std::fmt;

/// Identifier of an event within a [`crate::graph::PropagationGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

impl EventId {
    /// The index form of the id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Identifier of a source file within a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FileId(pub u32);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

pub use seldon_ir::IrEventKind as EventKind;

/// Candidate roles of an event kind (§5.1): a call any role, a read or a param only source.
pub fn candidate_roles(kind: EventKind) -> RoleSet {
    match kind {
        EventKind::Call => RoleSet::ALL,
        EventKind::ObjectRead | EventKind::ParamRead => RoleSet::only(Role::Source),
    }
}

/// One event of the propagation graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What kind of action this is.
    pub kind: EventKind,
    /// Interned representations ordered most → least specific (§3.2).
    /// Never empty. Distinct *alternatives* (from ambiguous targets) are
    /// interleaved in specificity order and deduplicated.
    pub reps: Vec<Symbol>,
    /// The source file the event came from.
    pub file: FileId,
    /// The source span of the underlying expression.
    pub span: Span,
    /// Which roles this event may assume.
    pub candidates: RoleSet,
}

impl Event {
    /// Creates an event; `reps` must be non-empty.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is empty.
    pub fn new(kind: EventKind, reps: Vec<Symbol>, file: FileId, span: Span) -> Self {
        assert!(!reps.is_empty(), "event must have at least one representation");
        let candidates = candidate_roles(kind);
        Event { kind, reps, file, span, candidates }
    }

    /// Like [`Event::new`], interning the representation strings. Intended
    /// for tests and hand-built graphs; the builder interns at parse time.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is empty.
    pub fn from_reps(kind: EventKind, reps: &[&str], file: FileId, span: Span) -> Self {
        Event::new(kind, reps.iter().map(|r| intern(r)).collect(), file, span)
    }

    /// The most specific representation.
    pub fn rep_sym(&self) -> Symbol {
        self.reps[0]
    }

    /// The most specific representation, resolved to text.
    pub fn rep(&self) -> &'static str {
        self.reps[0].as_str()
    }

    /// Whether any backoff representation equals `text`.
    pub fn has_rep(&self, text: &str) -> bool {
        self.reps.iter().any(|r| r.as_str() == text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_roles_by_kind() {
        assert_eq!(candidate_roles(EventKind::Call), RoleSet::ALL);
        assert_eq!(candidate_roles(EventKind::ObjectRead), RoleSet::only(Role::Source));
        assert_eq!(candidate_roles(EventKind::ParamRead), RoleSet::only(Role::Source));
    }

    #[test]
    fn event_rep_is_most_specific() {
        let e = Event::from_reps(
            EventKind::Call,
            &["a.b.c()", "b.c()"],
            FileId(0),
            Span::dummy(),
        );
        assert_eq!(e.rep(), "a.b.c()");
        assert_eq!(e.rep_sym(), intern("a.b.c()"));
        assert!(e.has_rep("b.c()"));
        assert!(!e.has_rep("c()"));
    }

    #[test]
    #[should_panic(expected = "at least one representation")]
    fn empty_reps_panics() {
        let _ = Event::new(EventKind::Call, vec![], FileId(0), Span::dummy());
    }

    #[test]
    fn id_display() {
        assert_eq!(EventId(4).to_string(), "e4");
        assert_eq!(FileId(2).to_string(), "f2");
        assert_eq!(EventKind::Call.to_string(), "call");
    }
}
