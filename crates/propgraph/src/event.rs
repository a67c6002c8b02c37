//! Events of the propagation graph (§3.1, §5.1 of the paper).
//!
//! An event is a program action that propagates information: a function
//! call, an object read (attribute load, subscript, parameter read), or a
//! formal argument of a function definition. Each event carries a chain of
//! *representations* ordered from most to least specific (§3.2).

use seldon_intern::Symbol;
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

/// One event as a [`crate::GraphBuilder`] takes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What kind of action this is.
    pub kind: EventKind,
    /// Representations, as symbols of the graph's table, ordered most →
    /// least specific (§3.2).
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

    /// The most specific representation.
    pub fn rep_sym(&self) -> Symbol {
        self.reps[0]
    }
}

/// One event of a frozen [`crate::PropagationGraph`], read from its
/// columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventView<'g> {
    /// What kind of action this is.
    pub kind: EventKind,
    /// Representations, most → least specific (§3.2); never empty.
    pub reps: &'g [Symbol],
    /// The source file the event came from.
    pub file: FileId,
    /// The source span of the underlying expression.
    pub span: Span,
    /// Which roles this event may assume.
    pub candidates: RoleSet,
}

impl EventView<'_> {
    /// The most specific representation.
    pub fn rep_sym(&self) -> Symbol {
        self.reps[0]
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
        let mut b = crate::GraphBuilder::new();
        let reps = &["a.b.c()", "b.c()"];
        let id = b.add_event_reps(EventKind::Call, reps, FileId(0), Span::dummy());
        let g = b.freeze();
        assert_eq!(g.rep(id), "a.b.c()");
        assert_eq!(Some(g.event(id).rep_sym()), g.symbols().get("a.b.c()"));
        assert!(g.has_rep(id, "b.c()"));
        assert!(!g.has_rep(id, "c()"));
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
