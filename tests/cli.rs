//! Integration tests for the `seldon` command-line tool, driving the real
//! binary against Python files on disk.

use std::path::PathBuf;
use std::process::Command;

fn seldon() -> Command {
    Command::new(env!("CARGO_BIN_EXE_seldon"))
}

fn write_app(dir: &std::path::Path) -> PathBuf {
    let app = dir.join("app.py");
    std::fs::write(
        &app,
        "from flask import request\nimport os\n\ndef run():\n    cmd = request.args.get('c')\n    os.system(cmd)\n",
    )
    .expect("write temp app");
    app
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seldon-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn check_reports_command_injection() {
    let dir = temp_dir("check");
    write_app(&dir);
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    // Findings exit with code 1 (0 is reserved for clean runs).
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Command Injection"), "{stdout}");
    assert!(stdout.contains("os.system()"), "{stdout}");
    assert!(stdout.contains("violation(s) total"), "{stdout}");
}

/// A checked-in file under `tests/`.
fn repo_test_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests").join(rel)
}

#[test]
fn ir_dump_prints_the_golden_lowering_of_both_languages() {
    for (src, golden) in [
        ("fixtures/py_locals_template_context.py", "golden/ir/py_locals_template_context.txt"),
        ("fixtures/js_express_fixture.js", "golden/ir/js_express_fixture.txt"),
    ] {
        let out = seldon().arg("ir-dump").arg(repo_test_file(src)).output().expect("runs");
        assert!(out.status.success(), "{src}: {}", String::from_utf8_lossy(&out.stderr));
        let expected = std::fs::read_to_string(repo_test_file(golden)).expect("golden");
        assert!(
            String::from_utf8_lossy(&out.stdout) == expected,
            "{src}: ir-dump diverged from {golden}"
        );
    }
}

#[test]
fn ir_dump_enforces_the_default_depth_budget() {
    let dir = temp_dir("ir-dump-deep");
    let mut src = String::new();
    for depth in 0..70 {
        src.push_str(&"    ".repeat(depth));
        src.push_str("if x:\n");
    }
    src.push_str(&"    ".repeat(70));
    src.push_str("y = 1\n");
    let deep = dir.join("deep.py");
    std::fs::write(&deep, src).unwrap();
    let out = seldon().arg("ir-dump").arg(&deep).output().expect("runs");
    assert_eq!(out.status.code(), Some(1), "runtime error, not a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting depth exceeds budget of 64"), "{stderr}");
    assert!(out.stdout.is_empty(), "no partial dump");
}

#[test]
fn check_clean_file_reports_nothing() {
    let dir = temp_dir("clean");
    std::fs::write(dir.join("ok.py"), "import os\nprint(os.getcwd())\n").unwrap();
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no violations found"), "{stdout}");
}

#[test]
fn graph_lists_events_and_dot() {
    let dir = temp_dir("graph");
    let app = write_app(&dir);
    let out = seldon().arg("graph").arg(&app).output().expect("runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("events"), "{stdout}");
    assert!(stdout.contains("os.system()"), "{stdout}");

    let out = seldon().arg("graph").arg(&app).arg("--dot").output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph propagation"), "{stdout}");
}

#[test]
fn learn_writes_spec_file() {
    let dir = temp_dir("learn");
    // Several files using the same unknown wrapper so the cutoff keeps it.
    for i in 0..6 {
        std::fs::write(
            dir.join(format!("m{i}.py")),
            "from flask import request\nimport webresp, htmlutils\n\ndef page():\n    q = request.args.get('x')\n    return webresp.render_page(htmlutils.sanitize(q))\n",
        )
        .unwrap();
    }
    let out_path = dir.join("learned.txt");
    let out = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&out_path).expect("spec written");
    // The learned spec parses in the App. B format.
    let spec = seldon_specs::TaintSpec::parse(&text).expect("learned spec parses");
    let _ = spec.role_count();
}

#[test]
fn learn_solver_threads_is_output_invariant() {
    // The same learn run at 1 and 4 solver threads must write identical
    // spec files (the compiled kernel's summation order is fixed), and a
    // malformed thread count is a usage error.
    let dir = temp_dir("threads");
    for i in 0..6 {
        std::fs::write(
            dir.join(format!("m{i}.py")),
            "from flask import request\nimport webresp, htmlutils\n\ndef page():\n    q = request.args.get('x')\n    return webresp.render_page(htmlutils.sanitize(q))\n",
        )
        .unwrap();
    }
    let spec_at = |threads: &str| {
        let out_path = dir.join(format!("learned-{threads}.txt"));
        let out = seldon()
            .arg("learn")
            .arg(&dir)
            .arg("--solver-threads")
            .arg(threads)
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(&out_path).expect("spec written")
    };
    assert_eq!(spec_at("1"), spec_at("4"), "spec must not depend on --solver-threads");

    let out = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--solver-threads")
        .arg("lots")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "bad thread count is a usage error");
}

#[test]
fn no_early_stop_is_the_only_early_stop_flag() {
    // Early stop is the default, so `learn` has one flag to turn it off:
    // `--no-early-stop` runs cleanly and never stops on a plateau, and
    // `--early-stop` is an unknown option.
    let dir = temp_dir("earlystop");
    let (tree, spec) = generated_tree(&dir);
    let out = seldon()
        .arg("learn")
        .arg(&tree)
        .arg("--seed")
        .arg(&spec)
        .arg("--no-early-stop")
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let summary = stderr.lines().find(|l| l.contains(" solved in ")).expect("summary line");
    assert!(summary.contains("stop: "), "{summary}");
    assert!(!summary.contains("stop: plateau"), "{summary}");

    let out = seldon().arg("learn").arg(&tree).arg("--early-stop").output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown option `--early-stop`"), "{stderr}");
}

#[test]
fn learn_rejects_a_non_numeric_cutoff() {
    // `learn` and `serve` parse `--cutoff` with one helper: a value that is
    // not a number is a usage error, never a silent fall-back to the default.
    let dir = temp_dir("cutoff");
    write_app(&dir);
    let out = seldon().arg("learn").arg(&dir).arg("--cutoff").arg("abc").output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cutoff expects a number, got `abc`"), "{stderr}");
}

#[test]
fn check_with_custom_spec_and_param_sensitivity() {
    let dir = temp_dir("custom");
    std::fs::write(
        dir.join("app.py"),
        "from flask import request\nimport subprocess\nx = request.args.get('p')\nsubprocess.call(['ls'], env=x)\n",
    )
    .unwrap();
    let spec_path = dir.join("spec.txt");
    std::fs::write(
        &spec_path,
        "o: flask.request.args.get()\ni: subprocess.call()\np: subprocess.call() 0\n",
    )
    .unwrap();
    // Baseline: reported.
    let out = seldon()
        .arg("check")
        .arg(&dir)
        .arg("--spec")
        .arg(&spec_path)
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 violation(s) total"), "{stdout}");
    // Param-sensitive: env= is harmless.
    let out = seldon()
        .arg("check")
        .arg(&dir)
        .arg("--spec")
        .arg(&spec_path)
        .arg("--param-sensitive")
        .output()
        .expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no violations found"), "{stdout}");
}

#[test]
fn malformed_file_degrades_gracefully() {
    let dir = temp_dir("broken");
    std::fs::write(
        dir.join("broken.py"),
        "from flask import request\nimport os\nx = = broken = =\nos.system(request.args.get('c'))\n",
    )
    .unwrap();
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    // Degraded analysis (and findings) exit with code 1.
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning"), "lenient parse warns: {stderr}");
    assert!(stderr.contains("degraded analysis"), "summary printed: {stderr}");
    assert!(stdout.contains("Command Injection"), "analysis continues: {stdout}");
}

#[test]
fn learn_degrades_on_a_hostile_prefix_chain() {
    // A 100,000-deep `not` chain is well inside the source-size budget. The
    // parser's depth guard must turn it into a parse error: the run exits
    // normally (not by a signal) and learns from the other file exactly
    // what it learns from that file alone.
    use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
    let dir = temp_dir("hostile");
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 8, rng_seed: 7, ..Default::default() },
    );
    let first: Vec<&str> = corpus.files().map(|(_, f)| f.content.as_str()).collect();
    let (alone, both) = (dir.join("alone"), dir.join("both"));
    for tree in [&alone, &both] {
        std::fs::create_dir_all(tree).unwrap();
        std::fs::write(tree.join("a_first.py"), first.join("\n")).unwrap();
    }
    let hostile = format!("x = {}1\n", "not ".repeat(100_000));
    std::fs::write(both.join("b_hostile.py"), hostile).unwrap();
    let seed = dir.join("seed_spec.txt");
    std::fs::write(&seed, universe.seed_spec().to_text()).unwrap();
    let learn = |tree: &PathBuf, out: &str| {
        let out_path = dir.join(out);
        let run = seldon()
            .arg("learn")
            .arg(tree)
            .arg("--seed")
            .arg(&seed)
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("runs");
        (run, std::fs::read_to_string(&out_path).unwrap_or_default())
    };
    let (run, expected) = learn(&alone, "alone.txt");
    assert!(run.status.success(), "stderr: {}", String::from_utf8_lossy(&run.stderr));
    assert!(!expected.is_empty(), "the first file alone learns entries");
    let (run, learned) = learn(&both, "both.txt");
    assert!(
        matches!(run.status.code(), Some(0 | 1)),
        "exit by status, not by signal: {:?}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    assert_eq!(learned, expected, "the hostile file costs only itself");
}

#[test]
fn strict_mode_aborts_on_malformed_file() {
    let dir = temp_dir("strict");
    std::fs::write(dir.join("broken.py"), "x = = broken\n").unwrap();
    let out = seldon().arg("check").arg(&dir).arg("--strict").output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
    // Mutually exclusive flags are a usage error.
    let out = seldon()
        .arg("check")
        .arg(&dir)
        .arg("--strict")
        .arg("--lenient")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

/// A tree of one clean app and one file only the lenient parser accepts.
fn degraded_tree(name: &str) -> (PathBuf, PathBuf) {
    let dir = temp_dir(name);
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    write_app(&src);
    let broken = src.join("broken.py");
    std::fs::write(&broken, "import os\nx = = broken\nos.system(x)\n").unwrap();
    (dir, broken)
}

#[test]
fn learn_and_serve_report_a_recovered_file_alike() {
    // `serve` analyzes its initial build through `learn`'s per-file loop
    // and prints its report with `learn`'s warning lines.
    let (dir, broken) = degraded_tree("serve-recovered");
    let learn = seldon().arg("learn").arg(dir.join("src")).output().expect("runs");
    assert_eq!(learn.status.code(), Some(1), "a recovered file degrades the run");
    let learn_err = String::from_utf8_lossy(&learn.stderr).to_string();
    let warning = learn_err
        .lines()
        .find(|line| line.starts_with("warning: recovered "))
        .unwrap_or_else(|| panic!("learn warns: {learn_err}"));
    assert!(warning.contains(&broken.display().to_string()), "{warning}");

    let sock = dir.join("serve.sock");
    let daemon = seldon()
        .arg("serve")
        .arg(dir.join("src"))
        .arg("--socket")
        .arg(&sock)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let client = |op: &str| {
        let out = seldon()
            .args(["client", op, "--wait", "60", "--socket"])
            .arg(&sock)
            .output()
            .expect("client runs");
        assert!(out.status.success(), "{op}: {}", String::from_utf8_lossy(&out.stderr));
    };
    client("ping");
    client("shutdown");
    let served = daemon.wait_with_output().expect("serve exits");
    let serve_err = String::from_utf8_lossy(&served.stderr);
    assert!(serve_err.lines().any(|line| line == warning), "{warning}\nnot in:\n{serve_err}");
    assert!(serve_err.contains("degraded analysis: 2 file(s): 1 ok, 1 recovered"), "{serve_err}");
}

#[test]
fn strict_serve_exits_like_strict_learn() {
    // `--strict` aborts the initial build of `serve` as it aborts `learn`:
    // exit 1, naming the unparseable file, and no socket is bound.
    let (dir, broken) = degraded_tree("serve-strict");
    let sock = dir.join("serve.sock");
    let learn = seldon().arg("learn").arg(dir.join("src")).arg("--strict").output().expect("runs");
    let serve = seldon()
        .arg("serve")
        .arg(dir.join("src"))
        .arg("--strict")
        .arg("--socket")
        .arg(&sock)
        .output()
        .expect("runs");
    for (cmd, out) in [("learn", learn), ("serve", serve)] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(stderr.contains(&broken.display().to_string()), "{cmd}: {stderr}");
    }
    assert!(!sock.exists(), "a failed initial build serves nothing");
}

#[test]
fn missing_inputs_are_usage_errors() {
    let dir = temp_dir("empty");
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "no .py files is a usage error");
    let out = seldon().arg("check").arg(dir.join("nope")).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "missing path is a usage error");
}

#[cfg(unix)]
#[test]
fn symlink_cycle_terminates() {
    let dir = temp_dir("cycle");
    let sub = dir.join("sub");
    std::fs::create_dir_all(&sub).unwrap();
    write_app(&sub);
    // sub/loop -> dir: walking dir would recurse forever without the guard.
    std::os::unix::fs::symlink(&dir, sub.join("loop")).expect("symlink");
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    // Terminates and still finds the vulnerable app exactly once.
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Command Injection"), "{stdout}");
}

#[test]
fn check_json_format() {
    let dir = temp_dir("json");
    write_app(&dir);
    let out = seldon()
        .arg("check")
        .arg(&dir)
        .arg("--format")
        .arg("json")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "findings exit 1 in json mode too");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trimmed = stdout.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "{stdout}");
    assert!(trimmed.contains("\"class\":\"Command Injection\""), "{stdout}");
}

#[test]
fn check_json_escapes_quotes_backslashes_and_control_characters() {
    // The subscript key holds a quote, a backslash and U+0001, so the
    // representation between source and sinks carries all three.
    let dir = temp_dir("json-escapes");
    let app = dir.join("app.py");
    std::fs::write(
        &app,
        "from flask import request\nimport os\nx = request.args[\"k\\\"q\\\\b\u{1}\"]\n\
         os.system(x)\nos.popen(x)\n",
    )
    .expect("write app");
    let spec = dir.join("spec.txt");
    std::fs::write(&spec, "o: flask.request.args\ni: os.system()\ni: os.popen()\n").expect("spec");
    let out = seldon()
        .args(["check", "--format", "json", "--spec"])
        .arg(&spec)
        .arg(&app)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let key = r#"{"api":"flask.request.args['k\\\"q\\\\b\u0001']","line":3}"#;
    let report = |sink: &str, line: u32| {
        format!(
            r#"{{"class":"Command Injection","source":{{"api":"flask.request.args","line":3}},"sink":{{"api":"{sink}","line":{line}}},"trace":[{{"api":"flask.request.args","line":3}},{key},{{"api":"{sink}","line":{line}}}]}}"#
        )
    };
    let expected = format!("[{},{}]\n", report("os.system()", 4), report("os.popen()", 5));
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = seldon().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn learn_telemetry_writes_manifest_and_trace() {
    let dir = temp_dir("telemetry");
    write_app(&dir);
    let manifest_path = dir.join("run.json");
    let trace_path = dir.join("run.trace.json");
    let out = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--telemetry")
        .arg(&manifest_path)
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wrote run manifest"), "{stderr}");
    assert!(stderr.contains("wrote Chrome trace"), "{stderr}");

    let json = std::fs::read_to_string(&manifest_path).expect("manifest written");
    let m = seldon_telemetry::RunManifest::from_json(&json).expect("manifest parses");
    assert!(m.has_all_stages(), "all eight stages recorded");
    assert_eq!(m.command, "learn");
    assert_eq!(m.metrics.value("corpus_files"), Some(1.0));
    assert!(!m.curve.is_empty(), "convergence curve sampled");

    // Chrome's JSON-array trace format: one complete "X" event per stage.
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(trace.trim_start().starts_with('['), "{trace}");
    assert!(trace.contains("\"ph\": \"X\"") && trace.contains("\"solve\""), "{trace}");
}

#[test]
fn log_level_controls_stage_lines() {
    let dir = temp_dir("loglevel");
    write_app(&dir);
    let out = seldon().arg("check").arg(&dir).arg("--log-level").arg("info").output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[seldon] parse:"), "{stderr}");
    assert!(stderr.contains("[seldon] union:"), "{stderr}");

    // Default stays silent about stages.
    let out = seldon().arg("check").arg(&dir).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("[seldon]"), "{stderr}");

    // An unknown level is a usage error.
    let out = seldon().arg("check").arg(&dir).arg("--log-level").arg("loud").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown log level"), "{stderr}");
}

#[test]
fn learn_empty_corpus_is_a_clean_run() {
    // No .py files is a vacuous but legitimate corpus for `learn`: the
    // empty specification is learned and the run exits 0 (unlike `check`,
    // where nothing to check is a usage error).
    let dir = temp_dir("learnempty");
    let out_path = dir.join("spec.txt");
    let out = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no .py or .js files found"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&out_path).expect("spec written"),
        "",
        "the empty spec is the empty file"
    );
}

#[test]
fn learn_exit_codes_are_pinned() {
    // 0 = clean (empty corpus, above), 1 = degraded-but-complete analysis,
    // 1 = strict abort, 2 = usage error. Scripts depend on these.
    let dir = temp_dir("learncodes");
    std::fs::write(
        dir.join("broken.py"),
        "from flask import request\nimport os\nx = = broken = =\nos.system(request.args.get('c'))\n",
    )
    .unwrap();
    let lenient = seldon().arg("learn").arg(&dir).output().expect("runs");
    assert_eq!(lenient.status.code(), Some(1), "lenient run over faults is degraded");
    let stderr = String::from_utf8_lossy(&lenient.stderr);
    assert!(stderr.contains("degraded analysis"), "{stderr}");

    let strict = seldon().arg("learn").arg(&dir).arg("--strict").output().expect("runs");
    assert_eq!(strict.status.code(), Some(1), "strict run aborts on the first fault");

    let usage = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .arg("--no-cache")
        .output()
        .expect("runs");
    assert_eq!(usage.status.code(), Some(2), "contradictory cache flags are a usage error");
    let stderr = String::from_utf8_lossy(&usage.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn cache_dir_warms_across_processes() {
    // Two separate `seldon` processes sharing a cache directory: the
    // second must reuse the first's artifacts and checkpoint (every
    // stored representation string interned anew in the second process)
    // and print a byte-identical specification.
    let dir = temp_dir("cachewarm");
    for i in 0..6 {
        // Distinct contents per file: identical files would share one
        // content-keyed entry and turn cold misses into same-run hits.
        std::fs::write(
            dir.join(format!("m{i}.py")),
            format!("from flask import request\nimport webresp, htmlutils\n\ndef page{i}():\n    q = request.args.get('x{i}')\n    return webresp.render_page(htmlutils.sanitize(q))\n"),
        )
        .unwrap();
    }
    let cache = dir.join("cache");
    // The cache/checkpoint summary lines go through the stage logger, so
    // the assertions below need `--log-level info`.
    let learn = || {
        seldon()
            .arg("learn")
            .arg(&dir)
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--log-level")
            .arg("info")
            .output()
            .expect("runs")
    };
    let cold = learn();
    assert!(cold.status.success(), "stderr: {}", String::from_utf8_lossy(&cold.stderr));
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold_err.contains("6 miss(es)"), "cold run misses everything: {cold_err}");
    assert!(cold_err.contains("checkpoint: cold"), "{cold_err}");

    let warm = learn();
    assert!(warm.status.success(), "stderr: {}", String::from_utf8_lossy(&warm.stderr));
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(warm_err.contains("6 hit(s)"), "warm run reuses every artifact: {warm_err}");
    assert!(warm_err.contains("checkpoint: full"), "{warm_err}");
    assert!(warm_err.contains("checkpoint full hit"), "{warm_err}");
    assert_eq!(
        String::from_utf8_lossy(&warm.stdout),
        String::from_utf8_lossy(&cold.stdout),
        "specs from cold and warm processes are byte-identical"
    );

    // A damaged cache never poisons the output: corrupt every entry and
    // re-run — faults are warned, contained, and the spec is unchanged.
    let injected = seldon_cache::inject_cache_faults(&cache, 1.0, 7);
    assert!(!injected.is_empty());
    let hurt = learn();
    assert!(hurt.status.success(), "stderr: {}", String::from_utf8_lossy(&hurt.stderr));
    let hurt_err = String::from_utf8_lossy(&hurt.stderr);
    assert!(hurt_err.contains("warning: cache fault"), "{hurt_err}");
    assert!(hurt_err.contains("fault(s) contained"), "{hurt_err}");
    assert_eq!(
        String::from_utf8_lossy(&hurt.stdout),
        String::from_utf8_lossy(&cold.stdout),
        "spec survives a fully corrupted cache"
    );

    // At the default log level (off) the cache summary stays silent.
    let quiet = seldon()
        .arg("learn")
        .arg(&dir)
        .arg("--cache-dir")
        .arg(&cache)
        .output()
        .expect("runs");
    assert!(quiet.status.success(), "stderr: {}", String::from_utf8_lossy(&quiet.stderr));
    let quiet_err = String::from_utf8_lossy(&quiet.stderr);
    assert!(!quiet_err.contains("cache:"), "silent by default: {quiet_err}");
    assert!(!quiet_err.contains("checkpoint"), "silent by default: {quiet_err}");
}

#[test]
fn score_dump_flag_requires_telemetry() {
    let dir = temp_dir("scoredumpflag");
    write_app(&dir);
    let out = seldon().arg("learn").arg(&dir).arg("--score-dump").output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "score dump without a manifest is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--score-dump needs --telemetry"), "{stderr}");
}

/// Writes a seeded synthetic corpus (the same fixture the telemetry
/// tests use, so it demonstrably learns entries) to disk, runs
/// `learn --seed --telemetry --score-dump`, and returns the manifest path.
fn learn_manifest(dir: &std::path::Path, name: &str) -> PathBuf {
    learn_manifest_with(dir, name, &[])
}

/// Writes a small generated corpus (8 projects) under `dir/corpus` and
/// its seed spec to `dir/seed_spec.txt`; returns both paths.
fn generated_tree(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    use seldon_corpus::{generate_corpus, CorpusOptions, Universe};
    let universe = Universe::new();
    let corpus = generate_corpus(
        &universe,
        &CorpusOptions { projects: 8, rng_seed: 7, ..Default::default() },
    );
    let tree = dir.join("corpus");
    for project in &corpus.projects {
        for file in &project.files {
            let path = tree.join(&project.name).join(&file.path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &file.content).unwrap();
        }
    }
    let spec = dir.join("seed_spec.txt");
    std::fs::write(&spec, universe.seed_spec().to_text()).unwrap();
    (tree, spec)
}

/// [`learn_manifest`] with extra `learn` arguments.
fn learn_manifest_with(dir: &std::path::Path, name: &str, extra: &[&std::ffi::OsStr]) -> PathBuf {
    let (tree, spec) = generated_tree(dir);
    let manifest = dir.join(name);
    let out = seldon()
        .arg("learn")
        .arg(&tree)
        .arg("--seed")
        .arg(&spec)
        .arg("--telemetry")
        .arg(&manifest)
        .arg("--score-dump")
        .args(extra)
        .output()
        .expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    manifest
}

#[test]
fn report_renders_the_fig11_summary() {
    let dir = temp_dir("report");
    let manifest = learn_manifest(&dir, "run.json");
    let out = seldon().arg("report").arg(&manifest).arg("--top").arg("5").output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stage breakdown"), "{stdout}");
    assert!(stdout.contains("score vs backoff (Fig. 11)"), "{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("extraction ")
            && l.contains(" candidate event(s)")
            && !l.contains(" from 0 candidate")),
        "the extraction line counts the candidate events scanned: {stdout}"
    );
    assert!(stdout.contains("learned representations by score"), "{stdout}");
    assert!(stdout.contains("memory"), "{stdout}");
    assert!(stdout.contains(" src  "), "learned rep rows carry a role label: {stdout}");
    // A missing manifest is a usage error.
    let out = seldon().arg("report").arg(dir.join("nope.json")).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn report_on_deeply_nested_json_exits_without_a_signal() {
    let dir = temp_dir("report-nested");
    let manifest = dir.join("nested.json");
    std::fs::write(&manifest, "[".repeat(200_000)).unwrap();
    let path = manifest.to_str().unwrap();
    for args in [vec!["report", path], vec!["metrics-dump", path], vec!["diff-runs", path, path]] {
        let out = seldon().args(&args).output().expect("runs");
        // `code()` is `None` when a signal (a stack overflow's SIGABRT)
        // ended the process.
        assert!(matches!(out.status.code(), Some(1 | 2)), "{args:?}: {:?}", out.status);
    }
}

#[test]
fn metrics_dump_emits_prometheus_text() {
    let dir = temp_dir("metricsdump");
    let manifest = learn_manifest(&dir, "run.json");
    let out = seldon().arg("metrics-dump").arg(&manifest).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# TYPE seldon_rep_frequency histogram"), "{stdout}");
    assert!(stdout.contains("seldon_stage_duration_us{stage=\"solve\"}"), "{stdout}");
    assert!(stdout.contains("seldon_mem_peak_bytes"), "{stdout}");
    assert!(stdout.contains("le=\"+Inf\""), "{stdout}");
}

/// Every Prometheus family the exposition declared before the manifest's
/// typed sections folded into the registry, for a cached learn over a
/// Python corpus.
const PRE_V8_FAMILIES: [&str; 24] = [
    "seldon_stage_duration_us",
    "seldon_stage_mem_peak_bytes",
    "seldon_mem_current_bytes",
    "seldon_mem_peak_bytes",
    "seldon_mem_peak_rss_bytes",
    "seldon_cache_hits",
    "seldon_cache_misses",
    "seldon_cache_stores",
    "seldon_cache_faults",
    "seldon_parse_time_us_python",
    "seldon_files_analyzed",
    "seldon_intern_symbols",
    "seldon_rep_frequency",
    "seldon_constraint_gap",
    "seldon_build_time_us",
    "seldon_solver_epoch_us",
    "seldon_solver_iterations",
    "seldon_solver_stop_reason",
    "seldon_solver_epochs_saved",
    "seldon_solver_rows",
    "seldon_solver_lanes",
    "seldon_cache_bytes_read",
    "seldon_cache_bytes_written",
    "seldon_cache_hit_rate",
];

#[test]
fn metrics_dump_declares_every_family_once() {
    let dir = temp_dir("metricsfamilies");
    let cache = dir.join("cache");
    let manifest =
        learn_manifest_with(&dir, "run.json", &["--cache-dir".as_ref(), cache.as_os_str()]);
    let out = seldon().arg("metrics-dump").arg(&manifest).output().expect("runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut families: Vec<&str> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|rest| rest.split(' ').next().unwrap())
        .collect();
    families.sort_unstable();
    let declared = families.len();
    families.dedup();
    assert_eq!(families.len(), declared, "a family is declared twice:\n{stdout}");
    for family in PRE_V8_FAMILIES {
        assert!(families.binary_search(&family).is_ok(), "{family} missing:\n{stdout}");
    }
}

#[test]
fn diff_runs_exit_codes_are_pinned() {
    let dir = temp_dir("diffruns");
    let a = learn_manifest(&dir, "a.json");
    let b = dir.join("b.json");
    std::fs::copy(&a, &b).unwrap();

    // Identical manifests: exit 0.
    let same = seldon().arg("diff-runs").arg(&a).arg(&b).output().expect("runs");
    assert_eq!(
        same.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&same.stdout)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("0 regression(s)"));

    // Perturb an identity field (taint violation count): exit 1.
    let text = std::fs::read_to_string(&a).unwrap();
    let mut m = seldon_telemetry::RunManifest::from_json(&text).unwrap();
    let taint = seldon_telemetry::metric::TAINT_VIOLATIONS;
    let violations = m.metrics.value(taint.name).expect("manifest has a taint metric");
    m.metrics.gauge(&taint, violations + 1.0);
    std::fs::write(&b, m.to_json()).unwrap();
    let regressed = seldon().arg("diff-runs").arg(&a).arg(&b).output().expect("runs");
    assert_eq!(
        regressed.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&regressed.stdout)
    );
    assert!(
        String::from_utf8_lossy(&regressed.stdout).contains("REGRESSION"),
        "{}",
        String::from_utf8_lossy(&regressed.stdout)
    );

    // One path is a usage error.
    let usage = seldon().arg("diff-runs").arg(&a).output().expect("runs");
    assert_eq!(usage.status.code(), Some(2));

    // So is a tolerance that is not a finite percentage >= 0: NaN would
    // compare false everywhere and pass the regressed pair above.
    for bad in ["nan", "-1", "inf", "ten"] {
        let out = seldon()
            .arg("diff-runs")
            .arg(&a)
            .arg(&b)
            .args(["--tolerance", bad])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "--tolerance {bad} is a usage error");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--tolerance"), "{bad}");
    }
}

#[test]
fn score_dump_survives_a_checkpoint_of_the_same_input() {
    // The second run's input matches the checkpoint the first stored, but
    // the dump needs the solved scores, so it solves again and dumps what
    // the first run dumped.
    let dir = temp_dir("scoredumpcache");
    let cache = dir.join("cache");
    let args = [std::ffi::OsStr::new("--cache-dir"), cache.as_os_str()];
    let a = learn_manifest_with(&dir, "a.json", &args);
    let b = learn_manifest_with(&dir, "b.json", &args);
    let load = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).unwrap();
        seldon_telemetry::RunManifest::from_json(&text).unwrap()
    };
    let (first, second) = (load(&a), load(&b));
    assert!(!first.score_dump.is_empty(), "the fixture learns entries");
    assert_eq!(first.score_dump, second.score_dump);
    let diff = seldon().arg("diff-runs").arg(&a).arg(&b).output().expect("runs");
    let stdout = String::from_utf8_lossy(&diff.stdout);
    assert!(!stdout.contains("REGRESSION score_dump"), "{stdout}");
    assert_eq!(diff.status.code(), Some(0), "{stdout}");
}

#[test]
fn client_wait_must_be_finite_and_non_negative() {
    let dir = temp_dir("clientwait");
    let socket = dir.join("absent.sock");
    for bad in ["-1", "inf", "nan", "soon"] {
        let out = seldon()
            .args(["client", "ping", "--socket"])
            .arg(&socket)
            .args(["--wait", bad])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--wait {bad}: {stderr}");
        assert!(stderr.contains("--wait"), "--wait {bad}: {stderr}");
    }
}

#[test]
fn learn_info_log_reports_solver_restarts() {
    // The solver summary is a run summary like the cache line: logged at
    // `info`, silent by default, whatever the fault policy.
    let dir = temp_dir("infolearn");
    write_app(&dir);
    let learn = |extra: &[&str]| {
        let out = seldon().arg("learn").arg(&dir).args(extra).output().expect("runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stderr).contains("restart(s), final learning rate")
    };
    assert!(learn(&["--log-level", "info"]));
    assert!(!learn(&["--strict"]));
}
