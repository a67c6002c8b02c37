//! The `seldon serve` workloads: one daemon on a Unix socket, one client
//! in a closed loop.
//!
//! The daemon is `seldon serve --no-warm-start` with the CLI's other
//! defaults (no artifact cache, dynamic cutoff, one solver thread), run
//! as `run_daemon` in one thread. The client writes each edited file to disk,
//! then sends one `delta` request with `client_request` and waits for the
//! reply; only the request is timed. Two threads run in all, pinned to
//! one core (see [`pin_to_current_cpu`]).
//!
//! Without `--cache-dir` no delta waits on a disk flush: with it, every
//! reparsed file stores an artifact with one `fsync`, which on a shared
//! disk made a comment delta's latency vary by a third between runs, and
//! the engine never evicts the entry an edit replaced, so a long run
//! fills the directory without bound. The cache's read and write paths
//! are measured by the learn workloads.
//!
//! With warm start on, a warm solve is accepted on 1–6% of edit deltas,
//! every rejected attempt costs a second (cold) solve, and an accepted
//! warm solve can serve a spec other than the one an uncached `seldon
//! learn` learns from the same files: a correctness bug, reproduced by the
//! ignored test `warm_start_serves_the_spec_of_batch_learn` below. A
//! benchmark op must not fail, so the warm rung stays off until that is
//! fixed.

use crate::inputs::{self, Rng, Tree, SERVE};
use crate::layers::{self, LayerSamples};
use crate::learn::{analyze_opts, learn};
use crate::stats::{median, RunResult};
use crate::{calib, measure, Measured, Run};
use seldon_constraints::GenOptions;
use seldon_core::{SeldonOptions, WarmStartOptions};
use seldon_serve::protocol::{delta_response, error_response};
use seldon_serve::{
    client_request, run_daemon, Delta, EngineConfig, Request, ServeDaemon, ServeEngine,
};
use seldon_solver::SolveOptions;
use seldon_specs::TaintSpec;
use seldon_telemetry::json::{self, Json};
use seldon_telemetry::{SpanRecord, Telemetry};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which delta stream the client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One-file comment edits: the `unchanged` rung.
    Comment,
    /// One-file structural edits (80%) and remove-then-re-add pairs
    /// (20%) within a seeded set of [`HOT_FILES`] files: the rebuild
    /// rungs.
    Edit,
}

/// How many files the edit stream touches. A structural edit gives a
/// pristine file a unique handler or takes its handler away again, so
/// every edit changes the constraint system and is re-solved, while the
/// corpus never grows beyond this many handlers: later deltas cost what
/// earlier ones do, however many a run gets through.
const HOT_FILES: usize = 16;

/// The rungs a served delta can take, in ladder order (`noop` is never
/// sent, `warm` is off).
pub const RUNGS: [&str; 4] = ["unchanged", "replayed", "scores", "cold"];

/// Every how many edit deltas the served spec is compared with a fresh
/// uncached `seldon learn` over the same files. Both workloads also check
/// the first and the last served spec that way, and every comment delta
/// must serve the initial spec byte for byte.
const CHECK_EVERY: usize = 48;

/// How long a client waits for the daemon.
const WAIT: Duration = Duration::from_secs(60);

/// The engine `seldon serve <root>` builds, with `--no-warm-start` unless
/// `warm_start`.
pub fn engine_config(seed: &TaintSpec, warm_start: bool) -> EngineConfig {
    EngineConfig {
        seed: seed.clone(),
        analyze: analyze_opts(None),
        seldon: SeldonOptions {
            gen: GenOptions { rep_cutoff: 5, ..Default::default() },
            solve: SolveOptions { threads: 1, ..Default::default() },
            warm_start: warm_start.then(WarmStartOptions::default),
            ..Default::default()
        },
        dynamic_cutoff: true,
    }
}

/// The `add` delta `seldon serve <root>` builds its engine from: every
/// source file under `root`, read from disk.
fn initial_delta(root: &Path) -> Result<Delta, String> {
    let mut delta = Delta::default();
    for path in inputs::source_paths(root).map_err(|e| e.to_string())? {
        let content = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        delta.add.push((path, content));
    }
    Ok(delta)
}

/// A running daemon thread.
pub struct Daemon {
    socket: PathBuf,
    thread: JoinHandle<io::Result<ServeDaemon>>,
}

/// Sends one request line and parses the reply.
fn request(socket: &Path, line: &str) -> Result<Json, String> {
    let reply = client_request(socket, line, WAIT).map_err(|e| format!("request: {e}"))?;
    json::parse(&reply).map_err(|e| format!("reply: {e}"))
}

/// A `delta` request naming one path under `op` (add, change or remove).
fn delta_line(op: &str, path: &Path) -> String {
    Json::Obj(vec![
        ("op".to_string(), Json::str("delta")),
        (op.to_string(), Json::Arr(vec![Json::str(path.display().to_string())])),
    ])
    .compact()
}

/// Builds the engine over `tree`, serves it on `socket`, and waits until
/// a `ping` is answered. Returns the daemon and the initially served spec.
pub fn start(tree: &Tree, seed: &TaintSpec, socket: &Path) -> Result<(Daemon, String), String> {
    let mut engine = ServeEngine::new(engine_config(seed, false));
    let initial = engine.apply_delta(&initial_delta(tree.root())?).map_err(|e| e.to_string())?;
    let daemon = ServeDaemon::new(engine);
    let sock = socket.to_path_buf();
    let thread = std::thread::spawn(move || {
        let mut daemon = daemon;
        run_daemon(&mut daemon, &sock).map(|()| daemon)
    });
    let daemon = Daemon { socket: socket.to_path_buf(), thread };
    // Poll for the socket file rather than leaving it to the client's
    // 25 ms connect retry, which would quantize the set-up time.
    let deadline = Instant::now() + WAIT;
    while !socket.exists() {
        if daemon.thread.is_finished() || Instant::now() > deadline {
            let why = daemon.stop().err().unwrap_or_default();
            return Err(format!("daemon did not bind {}: {why}", socket.display()));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let pong = request(socket, r#"{"op":"ping"}"#)?;
    if pong.get("pong").and_then(Json::as_bool) != Some(true) {
        return Err(format!("unexpected ping reply {}", pong.compact()));
    }
    Ok((daemon, initial.spec))
}

impl Daemon {
    /// Shuts the daemon down and returns it with its engine state.
    pub fn stop(self) -> Result<ServeDaemon, String> {
        if !self.thread.is_finished() {
            request(&self.socket, r#"{"op":"shutdown"}"#)?;
        }
        match self.thread.join() {
            Ok(Ok(daemon)) => Ok(daemon),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

/// The traced counterpart of `run_daemon`: the same accept loop and the
/// same `ServeDaemon` state. While `traced` is set, `delta` requests are
/// rebuilt from the public pieces `handle_line` uses (read the named
/// files, apply the delta, render the reply) so each gets its own span;
/// otherwise every request goes to `handle_line` as in `run_daemon`.
fn serve_traced(
    mut daemon: ServeDaemon,
    listener: UnixListener,
    tele: &Telemetry,
    traced: &AtomicBool,
) -> io::Result<ServeDaemon> {
    for stream in listener.incoming() {
        let stream = stream?;
        let mut writer = stream.try_clone()?;
        for line in BufReader::new(stream).lines() {
            let line = line?;
            let (reply, stop) = match Request::parse(line.trim()) {
                Ok(Request::Delta { add, change, remove }) if traced.load(Ordering::SeqCst) => {
                    (traced_delta(&mut daemon.engine, add, change, remove, tele), false)
                }
                _ => daemon.handle_line(line.trim()),
            };
            writeln!(writer, "{reply}")?;
            writer.flush()?;
            if stop {
                return Ok(daemon);
            }
        }
    }
    Ok(daemon)
}

fn traced_delta(
    engine: &mut ServeEngine,
    add: Vec<String>,
    change: Vec<String>,
    remove: Vec<String>,
    tele: &Telemetry,
) -> String {
    let read = tele.span("serve.read");
    let mut delta =
        Delta { remove: remove.into_iter().map(PathBuf::from).collect(), ..Delta::default() };
    for (paths, slot) in [(add, &mut delta.add), (change, &mut delta.change)] {
        for path in paths {
            match std::fs::read_to_string(&path) {
                Ok(content) => slot.push((PathBuf::from(path), content)),
                Err(e) => return error_response(&format!("cannot read `{path}`: {e}")),
            }
        }
    }
    drop(read);
    let apply = tele.span("serve.apply");
    let outcome = match engine.apply_delta(&delta) {
        Ok(outcome) => outcome,
        Err(e) => return error_response(&e.to_string()),
    };
    let rung = RUNGS.iter().position(|r| *r == outcome.solve).unwrap_or(RUNGS.len());
    let n = |v: usize| v as f64;
    apply.counter("serve.rung", n(rung));
    apply.counter("serve.reparsed", n(outcome.reparsed));
    apply.counter("serve.fragments_reused", n(outcome.fragments_reused));
    apply.counter("serve.fragments_collected", n(outcome.fragments_collected));
    apply.counter("propgraph.events", n(outcome.events));
    apply.counter("propgraph.edges", n(outcome.edges));
    apply.counter("constraints.count", n(outcome.constraints));
    apply.counter("constraints.vars", n(outcome.vars));
    apply.counter("solver.learned_entries", n(outcome.learned_entries));
    drop(apply);
    let _respond = tele.span("serve.respond");
    delta_response(&outcome)
}

/// The serve per-layer metrics of one traced run.
fn serve_layers(spans: &[SpanRecord]) -> LayerSamples {
    let ops = layers::per_op(spans, "delta");
    let mut samples = LayerSamples::default();
    samples.set_medians(&ops);
    let of = |op: &layers::OpLayers, k: &str| op.get(k).copied().unwrap_or(0.0);
    let total = |k: &str| ops.iter().map(|op| of(op, k)).sum::<f64>();
    for (code, rung) in RUNGS.iter().enumerate() {
        let apply: Vec<f64> = ops
            .iter()
            .filter(|op| op.get("serve.rung") == Some(&(code as f64)))
            .map(|op| of(op, "serve.apply_ms"))
            .collect();
        samples.set(format!("serve.deltas.{rung}"), apply.len() as f64);
        if !apply.is_empty() {
            samples.set(format!("serve.apply_ms.{rung}"), median(&apply));
        }
    }
    samples.set("serve.reparsed", total("serve.reparsed"));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let reused = total("serve.fragments_reused");
    samples.set(
        "serve.fragment_reuse_ratio",
        ratio(reused, reused + total("serve.fragments_collected")),
    );
    let e2e: Vec<f64> = ops.iter().map(|op| of(op, "op_ms")).collect();
    let apply: Vec<f64> = ops.iter().map(|op| of(op, "serve.apply_ms")).collect();
    samples.set("serve.daemon_ms", median(&e2e) - median(&apply));
    samples
}

/// One edit of the delta stream, naming a file of the tree by index.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// A removed file is back on disk.
    Add(usize),
    /// A file's content changed.
    Change(usize),
    /// A file was deleted.
    Remove(usize),
}

/// The client side of one workload: its edit stream over the tree.
struct Client {
    mode: Mode,
    tree: Tree,
    seed: TaintSpec,
    socket: PathBuf,
    rng: Rng,
    /// The files edit deltas touch.
    hot: Vec<usize>,
    /// Tells a [`serve_traced`] daemon whether the current delta is traced.
    traced: Arc<AtomicBool>,
    serial: u64,
    /// A removed file the next delta adds back.
    removed: Option<usize>,
    /// The spec every comment delta must serve.
    baseline: String,
    /// The spec the last delta served.
    last: String,
}

impl Client {
    /// A client of the daemon on `socket` whose edit stream over `tree` is
    /// drawn from `seed`; `baseline` is the initially served spec.
    fn new(
        mode: Mode,
        tree: Tree,
        spec: &TaintSpec,
        socket: &Path,
        seed: u64,
        baseline: String,
    ) -> Client {
        let mut rng = Rng::new(seed ^ 0x5E2E);
        let mut hot = Vec::new();
        while hot.len() < HOT_FILES.min(tree.len()) {
            let i = rng.below(tree.len());
            if !hot.contains(&i) {
                hot.push(i);
            }
        }
        Client {
            mode,
            tree,
            seed: spec.clone(),
            socket: socket.to_path_buf(),
            rng,
            hot,
            traced: Arc::default(),
            serial: 0,
            removed: None,
            last: baseline.clone(),
            baseline,
        }
    }

    /// Edits one file on disk (untimed) and returns the edit.
    fn next_edit(&mut self) -> io::Result<Edit> {
        self.serial += 1;
        if let Some(i) = self.removed.take() {
            self.tree.restore(i)?;
            return Ok(Edit::Add(i));
        }
        if self.mode == Mode::Comment {
            let i = self.rng.below(self.tree.len());
            self.tree.set_comment(i, Some(self.serial))?;
            return Ok(Edit::Change(i));
        }
        let i = self.hot[self.rng.below(self.hot.len())];
        if self.rng.below(10) < 8 {
            let handler = if self.tree.has_handler(i) { None } else { Some(self.serial) };
            self.tree.set_handler(i, handler)?;
            Ok(Edit::Change(i))
        } else {
            self.tree.remove(i)?;
            self.removed = Some(i);
            Ok(Edit::Remove(i))
        }
    }

    /// The `delta` request line a client sends for `edit`.
    fn request_line(&self, edit: Edit) -> String {
        match edit {
            Edit::Add(i) => delta_line("add", self.tree.path(i)),
            Edit::Change(i) => delta_line("change", self.tree.path(i)),
            Edit::Remove(i) => delta_line("remove", self.tree.path(i)),
        }
    }

    /// The engine delta the daemon builds from [`Client::request_line`].
    #[cfg(test)]
    fn engine_delta(&self, edit: Edit) -> Delta {
        let file = |i: usize| (self.tree.path(i).to_path_buf(), self.tree.content(i));
        match edit {
            Edit::Add(i) => Delta { add: vec![file(i)], ..Delta::default() },
            Edit::Change(i) => Delta { change: vec![file(i)], ..Delta::default() },
            Edit::Remove(i) => {
                Delta { remove: vec![self.tree.path(i).to_path_buf()], ..Delta::default() }
            }
        }
    }

    /// One delta: the timed request plus the untimed checks of its reply.
    fn step(&mut self, m: &mut Measured, tele: Option<&Telemetry>) {
        let line = match self.next_edit() {
            Ok(edit) => self.request_line(edit),
            Err(e) => {
                eprintln!("edit failed: {e}");
                return m.fail();
            }
        };
        self.traced.store(tele.is_some(), Ordering::SeqCst);
        let root = tele.map(|t| t.span("delta"));
        let started = Instant::now();
        let reply = client_request(&self.socket, &line, WAIT);
        let took = started.elapsed();
        drop(root);
        let reply = match reply
            .map_err(|e| e.to_string())
            .and_then(|r| json::parse(&r).map_err(|e| e.to_string()))
        {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("delta failed: {e}");
                return m.fail();
            }
        };
        let solve = reply.get("solve").and_then(Json::as_str).unwrap_or("");
        let spec = reply.get("spec").and_then(Json::as_str).unwrap_or("");
        let mut ok = reply.get("ok").and_then(Json::as_bool) == Some(true);
        match self.mode {
            Mode::Comment => ok &= solve == "unchanged" && spec == self.baseline,
            Mode::Edit => {
                ok &= RUNGS[1..].contains(&solve);
                if (m.ops() + 1).is_multiple_of(CHECK_EVERY) {
                    ok &= self.matches_reference(spec);
                }
            }
        }
        if !ok {
            eprintln!("delta {line} took the `{solve}` rung or served an unexpected spec");
        }
        self.last = spec.to_string();
        m.record(took, ok);
    }

    /// Whether `spec` equals an uncached `seldon learn` over the files on
    /// disk now.
    fn matches_reference(&self, spec: &str) -> bool {
        match learn(self.tree.root(), &self.seed, None) {
            Ok(reference) => reference.text == spec,
            Err(e) => {
                eprintln!("reference run failed: {e}");
                false
            }
        }
    }
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the CPU it is running on.
///
/// A serve workload pins itself before it starts the daemon, so the
/// client and the daemon thread share one core and each round trip
/// switches between them on that core. Left to the scheduler, the two
/// threads ran on the host's two cores, and waking the other core for
/// every request cost a time that varied with the load on the machine in
/// a way the reference computation of [`calib`] does not follow: runs of
/// one seed spread 7.8% (distance between quartiles over the median, ten
/// runs) unpinned and 3.1% (six runs) pinned. A daemon that used several
/// cores for one delta would need this revisited.
fn pin_to_current_cpu() -> io::Result<()> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reports the CPU
    // the calling thread runs on.
    let cpu = unsafe { sched_getcpu() };
    let mut mask = [0u64; 16];
    let slot = usize::try_from(cpu).ok().filter(|&cpu| cpu < 64 * mask.len());
    let Some(cpu) = slot else {
        return Err(io::Error::other(format!("sched_getcpu returned {cpu}")));
    };
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes, the size
    // passed; pid 0 names the calling thread; the call only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Runs one serve workload and reports its metrics.
pub fn run(mode: Mode, run: &Run) -> Result<RunResult, String> {
    pin_to_current_cpu().map_err(|e| format!("pin to one cpu: {e}"))?;
    let generated = inputs::generate(run.seed, SERVE);
    let tree = Tree::write(&run.work.join("serve"), &generated.files)
        .map_err(|e| format!("write corpus: {e}"))?;
    let socket = run.work.join("serve.sock");
    let mut setups = Vec::new();
    let mut daemon = None;
    let mut baseline = String::new();
    for _ in 0..crate::SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let (started, scale) = calib::bracket(|| {
            let started = Instant::now();
            start(&tree, &generated.seed, &socket).map(|daemon| (daemon, started.elapsed()))
        });
        let ((d, spec), took) = started?;
        setups.push(took.as_secs_f64() * scale);
        daemon = Some(d);
        baseline = spec;
    }
    let daemon = daemon.expect("at least one set-up");
    let mut client = Client::new(mode, tree, &generated.seed, &socket, run.seed, baseline.clone());
    let mut correct = client.matches_reference(&baseline);
    let mut layer_samples = None;
    let m = if run.trace {
        let state = daemon.stop()?;
        let listener = UnixListener::bind(&socket).map_err(|e| format!("bind: {e}"))?;
        let tele = Telemetry::recording();
        let (server_tele, flag) = (tele.clone(), client.traced.clone());
        let server = std::thread::spawn(move || serve_traced(state, listener, &server_tele, &flag));
        let (mut untraced, traced) = measure(run, Some(&tele), |m, tele| client.step(m, tele));
        request(&socket, r#"{"op":"shutdown"}"#)?;
        server
            .join()
            .map_err(|_| "traced server panicked".to_string())?
            .map_err(|e| e.to_string())?;
        std::fs::remove_file(&socket).map_err(|e| e.to_string())?;
        let spans = tele.take_spans();
        let mut samples = serve_layers(&spans);
        samples.set_overhead(untraced.scaled(), traced.scaled());
        println!("  chrome trace: {}", crate::traced::write_chrome_trace(run, &spans)?);
        layer_samples = Some(samples);
        untraced.absorb(traced);
        untraced
    } else {
        let m = measure(run, None, |m, tele| client.step(m, tele)).0;
        daemon.stop()?;
        m
    };
    correct &= client.matches_reference(&client.last);
    println!("  corpus: {} files; one delta names one file", client.tree.len());
    let mut result = m.result(correct, &setups, crate::learn::precision(run, SERVE)?)?;
    if let Some(samples) = layer_samples {
        result.metrics = samples.into_metrics();
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{test_dir, CorpusShape};

    const SHAPE: CorpusShape = CorpusShape { py: 10, js: 0 };

    #[test]
    fn the_delta_stream_is_a_pure_function_of_the_seed() {
        let work = test_dir("stream");
        let generated = inputs::generate(3, SHAPE);
        let stream = |dir: &str, seed: u64| {
            let root = work.join(dir);
            let tree = Tree::write(&root, &generated.files).expect("write corpus");
            let mut client =
                Client::new(Mode::Edit, tree, &generated.seed, &work, seed, String::new());
            (0..24)
                .map(|_| {
                    let edit = client.next_edit().expect("edit");
                    let line = client.request_line(edit);
                    let files: Vec<String> =
                        (0..client.tree.len()).map(|i| client.tree.content(i)).collect();
                    (line.replace(&root.display().to_string(), ""), files)
                })
                .collect::<Vec<_>>()
        };
        let a = stream("a", 9);
        assert_eq!(a, stream("b", 9), "same seed, same deltas and files");
        assert_ne!(a, stream("c", 10), "another seed, another stream");
        assert!(a.iter().any(|(line, _)| line.contains("\"remove\"")), "remove/re-add pairs drawn");
        std::fs::remove_dir_all(&work).expect("clean up");
    }

    #[test]
    fn comment_deltas_take_the_unchanged_rung_and_edits_match_batch_learn() {
        let work = test_dir("serve");
        let generated = inputs::generate(4, SHAPE);
        let tree = Tree::write(&work.join("corpus"), &generated.files).expect("write corpus");
        let socket = work.join("s.sock");
        let (daemon, baseline) = start(&tree, &generated.seed, &socket).expect("start daemon");
        let mut client = Client::new(Mode::Comment, tree, &generated.seed, &socket, 4, baseline);
        assert!(client.matches_reference(&client.baseline), "initial build equals batch learn");
        let mut m = Measured::default();
        for _ in 0..6 {
            client.step(&mut m, None);
        }
        assert_eq!(m.failed(), 0, "every comment delta served the initial spec via `unchanged`");
        client.mode = Mode::Edit;
        for _ in 0..4 {
            client.step(&mut m, None);
        }
        assert_eq!(m.failed(), 0, "every edit delta took a rebuild rung");
        assert!(client.matches_reference(&client.last), "served spec equals batch learn");
        daemon.stop().expect("stop daemon");
        std::fs::remove_dir_all(&work).expect("clean up");
    }

    /// With warm start on, as `seldon serve` runs by default, the engine
    /// must still serve the spec an uncached `seldon learn` learns from
    /// the same files. Replays the serve-edit stream of seed 1 directly on
    /// the engine and compares every delta whose solve was warm, and the
    /// delta after it, with batch learn.
    #[test]
    #[ignore = "known bug: an accepted warm solve can serve a spec other than batch learn's; \
                run with `cargo test --release -p seldon-bench --bin pipeline_bench -- --ignored`"]
    fn warm_start_serves_the_spec_of_batch_learn() {
        const DELTAS: usize = 400;
        let work = test_dir("warm-start");
        let generated = inputs::generate(1, SERVE);
        let tree = Tree::write(&work.join("serve"), &generated.files).expect("write corpus");
        let mut engine = ServeEngine::new(engine_config(&generated.seed, true));
        engine.apply_delta(&initial_delta(tree.root()).expect("read")).expect("initial build");
        let mut client = Client::new(Mode::Edit, tree, &generated.seed, &work, 1, String::new());
        let (mut warm, mut after_warm, mut differing) = (0, false, Vec::new());
        for n in 1..=DELTAS {
            let edit = client.next_edit().expect("edit");
            let outcome = engine.apply_delta(&client.engine_delta(edit)).expect("delta");
            let is_warm = outcome.solve == "warm";
            warm += usize::from(is_warm);
            if is_warm || after_warm {
                let batch = learn(client.tree.root(), &client.seed, None).expect("batch").text;
                let only = |a: &str, b: &str| {
                    a.lines().filter(|l| !b.lines().any(|m| m == *l)).collect::<Vec<_>>().join(", ")
                };
                if batch != outcome.spec {
                    differing.push(format!(
                        "delta {n} ({}): served only [{}], batch only [{}]",
                        outcome.solve,
                        only(&outcome.spec, &batch),
                        only(&batch, &outcome.spec)
                    ));
                }
            }
            after_warm = is_warm;
        }
        std::fs::remove_dir_all(&work).expect("clean up");
        assert!(warm > 0, "the stream exercises the warm rung");
        assert!(
            differing.is_empty(),
            "{} of {DELTAS} deltas took the warm rung; these served a spec other than \
             batch learn's: {differing:?}",
            warm
        );
    }
}
