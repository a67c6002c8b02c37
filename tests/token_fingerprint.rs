//! Pins the invariant behind `seldon serve`'s token proof: two sources
//! with the same `Frontend::token_fingerprint` lower to the same graph.
//!
//! The front ends read a file only through its tokens. Spans only stamp
//! events, which `graph_fingerprint` ignores; the one source slice the
//! Python parser takes, a dotted module path, is split into segments with
//! the whitespace around its dots dropped; and the JS lexer treats a
//! newline as any other whitespace. Over generated Python and JS files and
//! one hand-written Python file with dotted imports:
//!
//! - token-preserving edits (comment lines at the top, middle and end,
//!   trailing comments, blank lines, extra spaces between tokens,
//!   Python line continuations, newlines inside brackets) keep the token
//!   fingerprint, and the edited file lowers through `Frontend::lower`
//!   into a `GraphSink` to the same `graph_fingerprint`, outcome and
//!   recovered-error count;
//! - deleting any single token of a valid file changes the fingerprint.

use proptest::prelude::*;
use seldon_cache::graph_fingerprint;
use seldon_core::Frontend;
use seldon_corpus::{generate_corpus, CorpusOptions, Lang, Universe};
use seldon_jsfront::lexer::TokenKind as JsTok;
use seldon_propgraph::{Budget, FileId, GraphSink};
use seldon_pyast::token::TokenKind as PyTok;

/// A Python file whose dotted imports, line continuation and multi-line
/// brackets give the edits below something to work on. `osp` and `fr`
/// reach the graph, so a dotted path read with its spaces would change it.
const DOTTED: &str = "import os.path as osp
import flask.request as fr
from dblib.query import run as run_query
from flask import (request,
                   app)

@app.route('/dotted', methods=['GET'])
def dotted(x):
    v0 = fr.args.get('q')
    v1 = osp.join(v0,
                  'x')
    v2 = run_query(v1 + \\
        v0)
    return [v1, {'k': v2}]
";

/// The first few files of a small generated corpus in `lang`, as
/// `(path, content)`.
fn corpus_files(lang: Lang) -> Vec<(String, String)> {
    let corpus = generate_corpus(
        &Universe::new(),
        &CorpusOptions { projects: 2, rng_seed: 7, lang, ..Default::default() },
    );
    corpus.files().take(4).map(|(_, f)| (f.path.clone(), f.content.clone())).collect()
}

/// Every file the checks run over: generated Python, generated JS and
/// [`DOTTED`].
fn files() -> Vec<(String, String)> {
    let mut files = corpus_files(Lang::Py);
    files.extend(corpus_files(Lang::Js));
    files.push(("dotted.py".to_string(), DOTTED.to_string()));
    files
}

/// What learning reads of one file: its graph fingerprint and recovered
/// errors, or the build error that quarantines it.
fn lowered(path: &str, src: &str) -> Result<(u64, usize), String> {
    Frontend::of_path(path)
        .lower(src, &Budget::default(), GraphSink::new(FileId(0)))
        .map(|l| (graph_fingerprint(&l.output), l.errors.len()))
        .map_err(|e| e.to_string())
}

/// Where a token-preserving edit may insert text, from `src`'s tokens.
#[derive(Default)]
struct Sites {
    /// Starts of logical lines, the end of the file included.
    line_starts: Vec<usize>,
    /// Offsets of the `\n` ending a logical line.
    line_ends: Vec<usize>,
    /// Starts of tokens that follow another token on their logical line.
    between: Vec<usize>,
    /// The subset of `between` inside brackets.
    in_brackets: Vec<usize>,
}

fn python_sites(src: &str) -> Sites {
    let mut sites = Sites { line_starts: vec![0], ..Sites::default() };
    let (mut depth, mut first) = (0i32, true);
    for t in seldon_pyast::lexer::lex(src).expect("edited file lexes") {
        let start = t.start as usize;
        match t.kind {
            PyTok::Newline => {
                if t.text == "\n" {
                    sites.line_ends.push(start);
                    sites.line_starts.push(start + 1);
                }
                first = true;
            }
            PyTok::Indent | PyTok::Dedent | PyTok::EndOfFile => {}
            kind => {
                if !first {
                    sites.between.push(start);
                    if depth > 0 {
                        sites.in_brackets.push(start);
                    }
                }
                first = false;
                match kind {
                    PyTok::LParen | PyTok::LBracket | PyTok::LBrace => depth += 1,
                    PyTok::RParen | PyTok::RBracket | PyTok::RBrace => depth -= 1,
                    _ => {}
                }
            }
        }
    }
    sites
}

/// JS is free-form: whitespace and comments may go before any token and
/// at the end of the file.
fn js_sites(src: &str) -> Sites {
    let tokens = seldon_jsfront::lexer::lex(src).expect("edited file lexes");
    let starts: Vec<usize> = tokens.iter().map(|t| t.start as usize).collect();
    let lexemes = tokens.iter().filter(|t| t.kind != JsTok::EndOfFile);
    let between: Vec<usize> = lexemes.map(|t| t.start as usize).collect();
    Sites { line_starts: starts.clone(), line_ends: starts, in_brackets: between.clone(), between }
}

/// Applies token-preserving edit `kind` at the `pick`-th site of its
/// kind. Python: a comment line, a trailing comment, a blank line, spaces
/// between tokens, a line continuation, a newline inside brackets. JS: the
/// same shapes as JS whitespace and comments; a comment starts after a
/// space, so it cannot join a `/` before it.
fn edit(path: &str, src: &str, kind: usize, pick: usize) -> String {
    let py = path.ends_with(".py");
    let sites = if py { python_sites(src) } else { js_sites(src) };
    let (at, text): (&[usize], &str) = match (py, kind) {
        (true, 0) => (&sites.line_starts, "# a comment line\n"),
        (true, 1) => (&sites.line_starts, "        # an indented comment line\n"),
        (true, 2) => (&sites.line_ends, "  # a trailing comment"),
        (true, 3) => (&sites.line_starts, "\n    \n"),
        (true, 4) => (&sites.between, "   "),
        (true, 5) => (&sites.between, " \\\n      "),
        (true, _) => (&sites.in_brackets, "\n  "),
        (false, 0) => (&sites.line_starts, " // a comment line\n"),
        (false, 1) => (&sites.line_starts, " /* a block\n comment */ "),
        (false, 2) => (&sites.line_ends, " // a trailing comment\n"),
        (false, 3) => (&sites.line_starts, "\n\n"),
        (false, 4) => (&sites.between, "   "),
        (false, 5) => (&sites.between, "\t"),
        (false, _) => (&sites.in_brackets, "\n    "),
    };
    if at.is_empty() {
        return src.to_string();
    }
    let at = at[pick % at.len()];
    format!("{}{text}{}", &src[..at], &src[at..])
}

/// The number of edit kinds [`edit`] knows.
const EDIT_KINDS: usize = 7;

#[test]
fn every_edit_kind_applies_to_every_file() {
    for (path, src) in files() {
        for kind in 0..EDIT_KINDS {
            assert_ne!(edit(&path, &src, kind, 0), src, "{path}: edit kind {kind} found no site");
        }
    }
}

#[test]
fn dotted_import_with_spaces_lowers_like_the_original() {
    let spaced = DOTTED.replace("os.path", "os .path").replace("flask.request", "flask. request");
    let continued = DOTTED.replace("dblib.query", "dblib\\\n    .query");
    let fp = Frontend::Python.token_fingerprint(DOTTED);
    assert!(fp.is_some());
    for variant in [spaced, continued] {
        assert_eq!(Frontend::Python.token_fingerprint(&variant), fp, "{variant}");
        assert_eq!(lowered("dotted.py", &variant), lowered("dotted.py", DOTTED), "{variant}");
    }
}

/// What a rename can do to a lexeme.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Name,
    Str,
    Other,
}

/// The lexemes of `src` (no synthesized token) as `(start, end, class)`.
fn lexemes(path: &str, src: &str) -> Vec<(usize, usize, Class)> {
    let lexeme = |span: seldon_pyast::Span, class| (span.start as usize, span.end as usize, class);
    if path.ends_with(".py") {
        let tokens = seldon_pyast::lexer::lex(src).expect("valid file lexes");
        let synthesized =
            |k| matches!(k, PyTok::Newline | PyTok::Indent | PyTok::Dedent | PyTok::EndOfFile);
        let class = |k| match k {
            PyTok::Name => Class::Name,
            PyTok::Str => Class::Str,
            _ => Class::Other,
        };
        let kept = tokens.iter().filter(|t| !synthesized(t.kind));
        kept.map(|t| lexeme(t.span(), class(t.kind))).collect()
    } else {
        let tokens = seldon_jsfront::lexer::lex(src).expect("valid file lexes");
        let class = |k| match k {
            JsTok::Ident => Class::Name,
            JsTok::Str => Class::Str,
            _ => Class::Other,
        };
        let kept = tokens.iter().filter(|t| t.kind != JsTok::EndOfFile);
        kept.map(|t| lexeme(t.span(), class(t.kind))).collect()
    }
}

/// Asserts that `mutant` of file `path` does not keep the fingerprint `fp`.
fn assert_new_fingerprint(path: &str, fp: u64, mutant: &str, what: &str) {
    let got = Frontend::of_path(path).token_fingerprint(mutant);
    assert_ne!(got, Some(fp), "{path} {what} kept the fingerprint");
}

#[test]
fn deleting_any_single_token_changes_the_fingerprint() {
    let mut deletions = 0;
    for (path, src) in files() {
        let fp = Frontend::of_path(&path).token_fingerprint(&src).expect("valid file lexes");
        for (start, end, _) in lexemes(&path, &src) {
            let mutant = format!("{}{}", &src[..start], &src[end..]);
            assert_new_fingerprint(&path, fp, &mutant, &format!("without bytes {start}..{end}"));
            deletions += 1;
        }
    }
    assert!(deletions > 1000, "only {deletions} deletions checked");
}

/// A rename keeps every token's kind, so this is what catches a
/// fingerprint that hashes the kinds but not the texts.
#[test]
fn renaming_any_single_name_or_string_changes_the_fingerprint() {
    let mut renames = 0;
    for (path, src) in files() {
        let fp = Frontend::of_path(&path).token_fingerprint(&src).expect("valid file lexes");
        for (start, end, class) in lexemes(&path, &src) {
            // A name grows a suffix; a string grows a byte after its quote.
            let at = match class {
                Class::Name => end,
                Class::Str => start + src[start..end].find(['\'', '"']).expect("quoted") + 1,
                Class::Other => continue,
            };
            let mutant = format!("{}z{}", &src[..at], &src[at..]);
            assert_new_fingerprint(&path, fp, &mutant, &format!("with `z` at {at}"));
            renames += 1;
        }
    }
    assert!(renames > 500, "only {renames} renames checked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A run of token-preserving edits keeps the fingerprint and what
    /// learning reads.
    #[test]
    fn token_preserving_edits_keep_the_fingerprint_and_the_graph(
        file in 0usize..1_000,
        edits in prop::collection::vec((0usize..EDIT_KINDS, 0usize..10_000), 1..6),
    ) {
        let files = files();
        let (path, src) = &files[file % files.len()];
        let frontend = Frontend::of_path(path);
        let mut edited = src.clone();
        for &(kind, pick) in &edits {
            edited = edit(path, &edited, kind, pick);
        }
        let fp = frontend.token_fingerprint(src);
        prop_assert!(fp.is_some(), "{} does not lex", path);
        prop_assert_eq!(
            frontend.token_fingerprint(&edited),
            fp,
            "{} edited by {:?} changed its tokens:\n{}",
            path,
            edits,
            edited
        );
        let (got, want) = (lowered(path, &edited), lowered(path, src));
        prop_assert_eq!(got, want, "{} edited by {:?}", path, edits);
    }
}
