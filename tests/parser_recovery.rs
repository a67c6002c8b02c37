//! Guards the parsers' error recovery (`synchronize` for Python,
//! `skip_to_recovery_point` for JS). Each front end has one statement loop,
//! the lenient one; its strict `parse` fails on the lenient parse's first
//! error. Over generated corpus files of both languages:
//!
//! - on every valid file, the lenient parse reports no errors, keeps as
//!   many statements as the token stream starts at the top level, and
//!   equals the strict parse;
//! - on every single-token deletion, the top-level statements the lenient
//!   parse keeps before its first error equal the strict parse of the
//!   source up to the statement that error falls in.

use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
use seldon_jsfront::lexer::TokenKind as JsTok;
use seldon_pyast::token::TokenKind as PyTok;
use seldon_pyast::{FrontendError, Span};

/// The first few files of a small generated corpus in `lang`.
fn corpus_files(lang: Lang) -> Vec<String> {
    let corpus = generate_corpus(
        &Universe::new(),
        &CorpusOptions { projects: 2, rng_seed: 7, lang, ..Default::default() },
    );
    corpus.files().take(4).map(|(_, f)| f.content.clone()).collect()
}

fn error_start(e: &FrontendError) -> u32 {
    match e {
        FrontendError::Lex(l) => l.span.start,
        FrontendError::Parse(p) => p.span.start,
    }
}

/// One language's parser surface, so the checks below run on both.
trait Frontend {
    type Body<'s>: PartialEq + std::fmt::Debug;
    /// Deletable lexemes of `src`, as byte spans.
    fn token_spans(src: &str) -> Vec<Span>;
    /// Byte offsets where a top-level statement starts.
    fn statement_starts(src: &str) -> Vec<u32>;
    fn strict(src: &str) -> Result<Vec<Self::Body<'_>>, FrontendError>;
    fn lenient(src: &str) -> (Vec<Self::Body<'_>>, Vec<FrontendError>);
    fn start_of(stmt: &Self::Body<'_>) -> u32;
}

struct Python;

impl Frontend for Python {
    type Body<'s> = seldon_pyast::Stmt<'s>;

    fn token_spans(src: &str) -> Vec<Span> {
        let tokens = seldon_pyast::lexer::lex(src).expect("valid file lexes");
        tokens
            .into_iter()
            .filter(|t| {
                !matches!(t.kind, PyTok::Newline | PyTok::Indent | PyTok::Dedent | PyTok::EndOfFile)
            })
            .map(|t| t.span())
            .collect()
    }

    /// Logical lines at indentation depth zero, except those continuing a
    /// decorator or an `if`/`try` chain.
    fn statement_starts(src: &str) -> Vec<u32> {
        let tokens = seldon_pyast::lexer::lex(src).expect("lexes");
        let mut starts = Vec::new();
        let (mut depth, mut line_start, mut after_decorator) = (0i32, true, false);
        for t in &tokens {
            match t.kind {
                PyTok::Indent => depth += 1,
                PyTok::Dedent => depth -= 1,
                PyTok::Newline => line_start = true,
                PyTok::EndOfFile => break,
                _ => {
                    if line_start && depth == 0 {
                        let continues = matches!(
                            t.kind,
                            PyTok::KwElse | PyTok::KwElif | PyTok::KwExcept | PyTok::KwFinally
                        );
                        if !after_decorator && !continues {
                            starts.push(t.start);
                        }
                        after_decorator = t.kind == PyTok::At;
                    }
                    line_start = false;
                }
            }
        }
        starts
    }

    fn strict(src: &str) -> Result<Vec<Self::Body<'_>>, FrontendError> {
        seldon_pyast::parse(src).map(|m| m.body)
    }

    fn lenient(src: &str) -> (Vec<Self::Body<'_>>, Vec<FrontendError>) {
        let (m, errors) = seldon_pyast::parse_lenient(src);
        (m.body, errors)
    }

    fn start_of(stmt: &Self::Body<'_>) -> u32 {
        stmt.span.start
    }
}

struct Js;

impl Frontend for Js {
    type Body<'s> = seldon_jsfront::ast::Stmt<'s>;

    fn token_spans(src: &str) -> Vec<Span> {
        let tokens = seldon_jsfront::lexer::lex(src).expect("valid file lexes");
        tokens.into_iter().filter(|t| t.kind != JsTok::EndOfFile).map(|t| t.span()).collect()
    }

    /// Tokens at bracket depth zero that follow a `;` or the `}` closing a
    /// top-level block (a function or `if` body, opened after `)` or
    /// `else`), except an `else` continuing an `if`.
    fn statement_starts(src: &str) -> Vec<u32> {
        let tokens = seldon_jsfront::lexer::lex(src).expect("lexes");
        let mut starts = Vec::new();
        let (mut depth, mut at_start, mut block) = (0i32, true, false);
        let mut prev = &JsTok::Semi;
        for t in &tokens {
            if t.kind == JsTok::EndOfFile {
                break;
            }
            if at_start && depth == 0 && t.kind != JsTok::Else {
                starts.push(t.start);
            }
            at_start = false;
            match t.kind {
                JsTok::LBrace => {
                    if depth == 0 {
                        block = matches!(prev, JsTok::RParen | JsTok::Else);
                    }
                    depth += 1;
                }
                JsTok::LParen | JsTok::LBracket => depth += 1,
                JsTok::RParen | JsTok::RBracket => depth -= 1,
                JsTok::RBrace => {
                    depth -= 1;
                    at_start = depth == 0 && block;
                }
                JsTok::Semi => at_start = depth == 0,
                _ => {}
            }
            prev = &t.kind;
        }
        starts
    }

    fn strict(src: &str) -> Result<Vec<Self::Body<'_>>, FrontendError> {
        seldon_jsfront::parse(src).map(|p| p.body)
    }

    fn lenient(src: &str) -> (Vec<Self::Body<'_>>, Vec<FrontendError>) {
        let (p, errors) = seldon_jsfront::parse_lenient(src);
        (p.body, errors)
    }

    fn start_of(stmt: &Self::Body<'_>) -> u32 {
        stmt.span.start
    }
}

fn lenient_equals_strict_on_valid_files<F: Frontend>(lang: Lang) {
    for (i, src) in corpus_files(lang).iter().enumerate() {
        let strict = F::strict(src).unwrap_or_else(|e| panic!("{lang:?} file {i}: {e}"));
        let (lenient, errors) = F::lenient(src);
        assert!(errors.is_empty(), "{lang:?} file {i}: lenient reported {errors:?}");
        let starts = F::statement_starts(src).len();
        assert_eq!(lenient.len(), starts, "{lang:?} file {i}: statements lost");
        assert_eq!(lenient, strict, "{lang:?} file {i}: lenient differs from strict");
    }
}

/// Parses every single-token deletion of every corpus file; returns how
/// many mutants reported an error.
fn recovery_keeps_the_prefix_before_the_first_error<F: Frontend>(lang: Lang) -> usize {
    let mut with_errors = 0;
    for (i, src) in corpus_files(lang).iter().enumerate() {
        for span in F::token_spans(src) {
            let mutant =
                format!("{}{}", &src[..span.start as usize], &src[span.end as usize..]);
            let what = format!("{lang:?} file {i} without bytes {}..{}", span.start, span.end);
            let (body, errors) = F::lenient(&mutant);
            let Some(first) = errors.first() else { continue };
            with_errors += 1;
            if matches!(first, FrontendError::Lex(_)) {
                assert!(body.is_empty() && errors.len() == 1, "{what}: lex errors end the parse");
                continue;
            }
            let error_at = error_start(first);
            let cut = F::statement_starts(&mutant)
                .into_iter()
                .take_while(|&s| s <= error_at)
                .last()
                .unwrap_or(0);
            let kept: Vec<&F::Body<'_>> = body.iter().filter(|s| F::start_of(s) < cut).collect();
            let prefix = F::strict(&mutant[..cut as usize])
                .unwrap_or_else(|e| panic!("{what}: prefix before {cut} fails: {e}"));
            assert_eq!(
                kept,
                prefix.iter().collect::<Vec<_>>(),
                "{what}: statements before the first error ({first}) differ from the \
                 strict parse of the prefix"
            );
        }
    }
    with_errors
}

#[test]
fn lenient_parse_equals_strict_on_valid_corpus_files() {
    lenient_equals_strict_on_valid_files::<Python>(Lang::Py);
    lenient_equals_strict_on_valid_files::<Js>(Lang::Js);
}

#[test]
fn token_deleted_mutants_keep_the_strict_prefix_before_the_first_error() {
    let py = recovery_keeps_the_prefix_before_the_first_error::<Python>(Lang::Py);
    let js = recovery_keeps_the_prefix_before_the_first_error::<Js>(Lang::Js);
    // The mutants must actually exercise recovery.
    assert!(py > 100, "only {py} Python mutants reported an error");
    assert!(js > 100, "only {js} JS mutants reported an error");
}

