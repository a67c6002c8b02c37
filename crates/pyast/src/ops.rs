//! Python's expression operators in one table, read by both the parser
//! (which groups operands by it) and the unparser (which parenthesizes by
//! it), so the two cannot drift apart.

use crate::token::{Token, TokenKind};

/// Binding power, loosest to tightest. `Test` (lambda, ternary) and
/// `Postfix` (atoms, calls, attributes, subscripts) bracket the operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Prec {
    Test,
    Or,
    And,
    Not,
    Cmp,
    BitOr,
    BitXor,
    BitAnd,
    Shift,
    Arith,
    Term,
    Unary,
    Power,
    Await,
    Postfix,
}

impl Prec {
    /// The next tighter level: the next one in the table, or `Postfix`.
    pub(crate) fn tighter(self) -> Prec {
        OPERATORS.iter().map(|op| op.prec).find(|&p| p > self).unwrap_or(Prec::Postfix)
    }
}

/// How an operator combines operands: `Left` is `(a - b) - c`, `Right` is
/// `a ** (b ** c)`, `Chain` makes `a < b <= c` one `Compare`, `Flat` makes
/// `a and b and c` one `BoolOp`, and `Prefix` is `-a`, `not a`, `await a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fixity {
    Left,
    Right,
    Chain,
    Flat,
    Prefix,
}

/// One row of the operator table.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Operator {
    pub text: &'static str,
    pub prec: Prec,
    pub fixity: Fixity,
}

impl Operator {
    /// The loosest levels its (left, right) operands may have without
    /// parentheses; a prefix operator's operand is its right one. The right
    /// operand of `**` is parsed at the unary level, so `2 ** -1` parses.
    pub(crate) fn operands(&self) -> (Prec, Prec) {
        match self.fixity {
            Fixity::Left => (self.prec, self.prec.tighter()),
            Fixity::Right => (self.prec.tighter(), Prec::Unary),
            Fixity::Chain | Fixity::Flat => (self.prec.tighter(), self.prec.tighter()),
            Fixity::Prefix => (self.prec, self.prec),
        }
    }
}

macro_rules! operators {
    ($($name:ident = $text:literal, $prec:ident, $fixity:ident, [$($tok:ident),+];)*) => {
        $(pub(crate) const $name: Operator =
            Operator { text: $text, prec: Prec::$prec, fixity: Fixity::$fixity };)*

        /// Every operator, loosest to tightest.
        pub(crate) const OPERATORS: &[Operator] = &[$($name),*];

        /// The operator the tokens at the front of `tokens` spell: a prefix
        /// operator if `prefix`, else an infix one.
        pub(crate) fn at(tokens: &[Token], prefix: bool) -> Option<&'static Operator> {
            match tokens {
                $([$(Token { kind: TokenKind::$tok, .. }),+, ..]
                    if (Fixity::$fixity == Fixity::Prefix) == prefix => Some(&$name),)*
                _ => None,
            }
        }
    };
}

// Each row: name = text, binding power, fixity, [tokens]. A two-token
// spelling comes before the one-token spelling it starts with.
operators! {
    OR = "or", Or, Flat, [KwOr];
    AND = "and", And, Flat, [KwAnd];
    NOT = "not", Not, Prefix, [KwNot];
    LT = "<", Cmp, Chain, [Lt];
    GT = ">", Cmp, Chain, [Gt];
    LE = "<=", Cmp, Chain, [Le];
    GE = ">=", Cmp, Chain, [Ge];
    EQ = "==", Cmp, Chain, [EqEq];
    NE = "!=", Cmp, Chain, [NotEq];
    IN = "in", Cmp, Chain, [KwIn];
    NOT_IN = "not in", Cmp, Chain, [KwNot, KwIn];
    IS_NOT = "is not", Cmp, Chain, [KwIs, KwNot];
    IS = "is", Cmp, Chain, [KwIs];
    BIT_OR = "|", BitOr, Left, [Pipe];
    BIT_XOR = "^", BitXor, Left, [Caret];
    BIT_AND = "&", BitAnd, Left, [Amp];
    LSHIFT = "<<", Shift, Left, [LShift];
    RSHIFT = ">>", Shift, Left, [RShift];
    ADD = "+", Arith, Left, [Plus];
    SUB = "-", Arith, Left, [Minus];
    MUL = "*", Term, Left, [Star];
    DIV = "/", Term, Left, [Slash];
    FLOOR_DIV = "//", Term, Left, [DoubleSlash];
    MOD = "%", Term, Left, [Percent];
    MATMUL = "@", Term, Left, [At];
    POS = "+", Unary, Prefix, [Plus];
    NEG = "-", Unary, Prefix, [Minus];
    INVERT = "~", Unary, Prefix, [Tilde];
    POW = "**", Power, Right, [DoubleStar];
    AWAIT = "await", Await, Prefix, [KwAwait];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn table_runs_loosest_to_tightest() {
        assert!(OPERATORS.windows(2).all(|w| w[0].prec <= w[1].prec));
        assert_eq!(Prec::Test.tighter(), Prec::Or);
        assert_eq!(Prec::Term.tighter(), Prec::Unary);
        assert_eq!(Prec::Await.tighter(), Prec::Postfix);
        assert_eq!(Prec::Postfix.tighter(), Prec::Postfix);
    }

    #[test]
    fn every_operator_is_found_by_its_tokens() {
        for op in OPERATORS {
            let tokens = lex(op.text).unwrap();
            assert_eq!(at(&tokens, op.fixity == Fixity::Prefix), Some(op), "{op:?}");
        }
        assert_eq!(at(&lex("- x").unwrap(), false), Some(&SUB));
        assert_eq!(at(&lex("not x").unwrap(), false), None);
        assert_eq!(at(&lex("x").unwrap(), true), None);
    }
}
