//! `pipeline_bench`: one seeded benchmark of `seldon learn`, its artifact
//! cache, and `seldon serve`, timing the public calls the CLI makes with
//! the CLI's defaults.
//!
//! ```text
//! pipeline_bench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1]
//! pipeline_bench --agree <runs-a.txt> <runs-b.txt>
//! ```
//!
//! With `--workload`, one workload runs in this process: its inputs are
//! generated from `--seed` and written under `.pipeline_bench/` in the
//! working directory, set up several times, then measured in a closed
//! loop with one client. The loop runs a fixed number of ops, set by the
//! workload and `--seconds` alone (see [`Workload::ops`]), so two commits
//! given the same arguments do the same work. The last line of standard
//! output is the run's JSON record; the lines before it print every
//! metric with its unit. Without `--workload`, every workload runs in a
//! child process of its own (so peak RSS and the global interner are per
//! workload), and one `{"workload", "seed", "result"}` line is printed per
//! workload — the format `--agree` reads.
//!
//! The timings of the record are scaled to a reference host speed: a
//! fixed computation of the benchmark's own ([`calib`]) is timed between
//! ops, and each op's time is scaled by how much slower than its
//! reference time it ran then, so that a host slowed by its neighbours
//! does not read as a slower program.
//!
//! `--trace 1` reports per-layer metrics instead of end-to-end ones:
//! untraced ops alternate with ops whose spans this benchmark records
//! around the layers' public functions, and the spans are also written as
//! a Chrome trace under `.pipeline_bench/traces/`.
//!
//! `--agree A B` compares two files of saved all-workload runs, metric by
//! metric and workload by workload, against the bounds in
//! `BENCHMARK.json`, and exits 1 if, on a workload that file lists, any
//! metric's median in B is worse than A's by more than its bound.

mod agree;
mod calib;
mod inputs;
mod layers;
mod learn;
mod scale;
mod serve;
mod stats;
mod traced;

use seldon_telemetry::json::{self, Json};
use seldon_telemetry::{MemoryGauge, Telemetry};
use stats::{median, percentile, RunResult};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is the median of their times, each scaled
/// by [`calib::bracket`].
pub const SETUPS: usize = 5;

/// A run measures at least this many ops, whatever `--seconds` says.
const MIN_OPS: usize = 6;

/// `--seconds` when it is not given; the `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// A run stops starting ops this long after it began and counts the ops
/// it did not start as failed, so that it ends within three minutes
/// however slow a commit is.
const CAP: Duration = Duration::from_secs(150);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LearnCold,
    LearnCacheFill,
    LearnWarm,
    ServeComment,
    ServeEdit,
}

impl Workload {
    /// Every workload, in the order a full run executes them.
    pub const ALL: [Workload; 5] = [
        Workload::LearnCold,
        Workload::LearnCacheFill,
        Workload::LearnWarm,
        Workload::ServeComment,
        Workload::ServeEdit,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LearnCold => "learn-cold",
            Workload::LearnCacheFill => "learn-cache-fill",
            Workload::LearnWarm => "learn-warm",
            Workload::ServeComment => "serve-comment",
            Workload::ServeEdit => "serve-edit",
        }
    }

    /// How many ops a run measures: `seconds` times a fixed rate per
    /// workload, set so that a whole run, set-ups and untimed work
    /// included, took about `seconds` on a 2-core host when the rates were
    /// set (learn ops take 0.3–1.5 s, edit deltas about 40 ms, comment
    /// deltas about 0.2 ms plus the untimed file write). The count depends
    /// on the arguments only, never on how fast ops complete.
    pub fn ops(self, seconds: f64) -> usize {
        let per_second = match self {
            Workload::LearnCold => 2.0,
            Workload::LearnCacheFill => 0.5,
            Workload::LearnWarm => 2.5,
            Workload::ServeComment => 3000.0,
            Workload::ServeEdit => 16.0,
        };
        ((seconds * per_second).round() as usize).max(MIN_OPS)
    }

    /// Every how many ops the measured loop times the reference
    /// computation of [`calib`]: after every op whose time is well above
    /// the reference's, and after about a tenth of a second of the short
    /// serve deltas, so the reference costs a few percent of the run.
    fn calibrate_every(self) -> usize {
        match self {
            Workload::LearnCold | Workload::LearnCacheFill | Workload::LearnWarm => 1,
            Workload::ServeComment => 300,
            Workload::ServeEdit => 4,
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The settings of one single-workload run.
pub struct Run {
    /// Which workload runs.
    pub workload: Workload,
    /// The workload seed; inputs and edit streams derive from it.
    pub seed: u64,
    /// How many ops the measured loop runs.
    pub ops: usize,
    /// When the loop stops starting ops (see [`CAP`]).
    pub deadline: Instant,
    /// Whether the run reports per-layer metrics.
    pub trace: bool,
    /// Scratch directory for the run's files, removed at exit.
    pub work: PathBuf,
    /// Where Chrome traces are written.
    pub traces: PathBuf,
}

/// Timed ops of one measured loop.
#[derive(Debug, Default)]
pub struct Measured {
    /// Duration of every completed op, in milliseconds.
    pub samples: Vec<f64>,
    /// The first `scaled.len()` samples scaled to the reference host speed
    /// (see [`calib`]); the rest wait for the loop's next calibration.
    scaled: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Measured {
    /// Ops attempted so far.
    pub fn ops(&self) -> usize {
        self.attempted as usize
    }

    /// Ops whose output was wrong or that did not complete.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Records a completed op; `ok` is false when its output was wrong.
    pub fn record(&mut self, took: Duration, ok: bool) {
        self.samples.push(took.as_secs_f64() * 1e3);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records an op that did not complete.
    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// The samples calibrated so far, scaled to the reference host speed.
    pub fn scaled(&self) -> &[f64] {
        &self.scaled
    }

    /// Scales the samples recorded since the last call by `scale`.
    fn calibrate(&mut self, scale: f64) {
        let done = self.scaled.len();
        self.scaled.extend(self.samples[done..].iter().map(|ms| ms * scale));
    }

    /// Adds the ops of another loop.
    pub fn absorb(&mut self, other: Measured) {
        self.samples.extend(other.samples);
        self.scaled.extend(other.scaled);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// The end-to-end record of a run whose set-ups took `setups` seconds
    /// (scaled to the reference host speed) and whose code learns a spec
    /// that scores `precision`. An error when no op completed.
    ///
    /// The record's `op_p50_ms` is the median of the scaled op times. The
    /// measured median and op tail are printed with their sample count
    /// but are not part of the record: over ten runs on a shared 2-core
    /// host their spread reached 35% and 28%. The tail is the highest
    /// whole percentile that leaves at least ten samples beyond it, so it
    /// is fixed by the op count; runs of fewer than 20 ops have none.
    pub fn result(
        &self,
        correct: bool,
        setups: &[f64],
        precision: f64,
    ) -> Result<RunResult, String> {
        if self.samples.is_empty() {
            return Err(format!("none of {} ops completed", self.attempted));
        }
        if self.scaled.len() != self.samples.len() {
            return Err(format!("{} ops not calibrated", self.samples.len() - self.scaled.len()));
        }
        let n = self.samples.len();
        let tail = if n < 20 {
            String::new()
        } else {
            let p = (100 * (n - 10) / n) as f64;
            let beyond = n - (n as f64 * p / 100.0).ceil() as usize;
            format!(", p{p} {:.4} ms ({beyond} beyond it)", percentile(&self.samples, p))
        };
        let p50 = median(&self.scaled);
        println!(
            "  {} ops timed, {} failed: p50 {:.4} ms{tail} over {n} samples as measured; \
             p50 {p50:.4} ms at reference host speed; setup_s is the median of {} set-ups",
            self.attempted,
            self.failed,
            median(&self.samples),
            setups.len()
        );
        let mut r = RunResult {
            correct: correct && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: Vec::new(),
        };
        r.push("setup_s", median(setups), "s");
        r.push("op_p50_ms", p50, "ms");
        let rss = MemoryGauge::peak_rss_bytes().unwrap_or(0) as f64;
        r.push("peak_rss_mib", rss / f64::from(1 << 20), "MiB");
        r.push("spec_precision", precision, "fraction");
        Ok(r)
    }
}

/// Runs the run's ops in a closed loop: `step` one op after another.
/// With `tele`, untraced ops alternate with ops traced on it, so that
/// both kinds run under the same host conditions and their difference is
/// the tracing overhead. Returns the untraced and the traced ops.
///
/// The reference computation of [`calib`] is timed before the first op
/// and after every [`Workload::calibrate_every`] ops; the ops in between
/// are scaled by the mean of the two timings around them.
///
/// Ops not started by the run's deadline count as failed.
pub fn measure(
    run: &Run,
    tele: Option<&Telemetry>,
    mut step: impl FnMut(&mut Measured, Option<&Telemetry>),
) -> (Measured, Measured) {
    let (mut plain, mut traced) = (Measured::default(), Measured::default());
    let mut not_started = 0;
    let every = run.workload.calibrate_every();
    let mut before = calib::reference_ms();
    for i in 0..run.ops {
        let (m, tele) = match tele {
            Some(tele) if i % 2 == 1 => (&mut traced, Some(tele)),
            _ => (&mut plain, None),
        };
        if Instant::now() > run.deadline {
            not_started += 1;
            m.fail();
        } else {
            step(m, tele);
        }
        if (i + 1) % every == 0 || i + 1 == run.ops {
            let after = calib::reference_ms();
            let scale = calib::scale(before, after);
            plain.calibrate(scale);
            traced.calibrate(scale);
            before = after;
        }
    }
    if not_started > 0 {
        eprintln!(
            "{not_started} of {} ops not started within the {} s cap",
            run.ops,
            CAP.as_secs()
        );
    }
    (plain, traced)
}

/// The run's scratch directory; removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const USAGE: &str = "usage:
  pipeline_bench [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1]
  pipeline_bench --agree <runs-a.txt> <runs-b.txt>
workloads: learn-cold learn-cache-fill learn-warm serve-comment serve-edit";

/// The root of everything a run writes, relative to the working directory.
const OUT_DIR: &str = ".pipeline_bench";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { workload: None, seed: 1, seconds: DEFAULT_SECONDS, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let workload = Workload::parse(value);
                parsed.workload =
                    Some(workload.ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds expects 0 < s <= 600, got `{value}`"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(parsed)
}

fn run_one(workload: Workload, args: &Args) -> Result<RunResult, String> {
    let started = Instant::now();
    let out = PathBuf::from(OUT_DIR);
    let work = WorkDir(out.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let run = Run {
        workload,
        seed: args.seed,
        ops: workload.ops(args.seconds),
        deadline: started + CAP,
        trace: args.trace,
        work: work.0.clone(),
        traces: out.join("traces"),
    };
    println!(
        "pipeline_bench --workload {} --seed {} --seconds {} --trace {}: {} ops",
        workload.name(),
        run.seed,
        args.seconds,
        u8::from(run.trace),
        run.ops
    );
    match workload {
        Workload::LearnCold => learn::run(learn::Mode::Cold, &run),
        Workload::LearnCacheFill => learn::run(learn::Mode::CacheFill, &run),
        Workload::LearnWarm => learn::run(learn::Mode::Warm, &run),
        Workload::ServeComment => serve::run(serve::Mode::Comment, &run),
        Workload::ServeEdit => serve::run(serve::Mode::Edit, &run),
    }
}

fn print_result(r: &RunResult) {
    for m in &r.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("  correct: {} ({} attempted, {} failed)", r.correct, r.attempted, r.failed);
}

/// Runs every workload in a child process and prints one tagged result
/// line per workload.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut failures = Vec::new();
    for workload in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let (body, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        println!("{body}");
        match json::parse(last) {
            Ok(result) if out.status.success() => {
                let tagged = Json::Obj(vec![
                    ("workload".to_string(), Json::str(workload.name())),
                    ("seed".to_string(), Json::num(args.seed as f64)),
                    ("result".to_string(), result),
                ]);
                println!("{}", tagged.compact());
            }
            _ => failures.push(workload.name()),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("workloads failed: {}", failures.join(", ")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--agree") {
        return match args.as_slice() {
            [_, a, b] => agree::run(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match parsed.workload {
        Some(workload) => run_one(workload, &parsed).map(|r| {
            print_result(&r);
            println!("{}", r.to_json().compact());
        }),
        None => run_all(&parsed),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_depend_on_the_arguments_only() {
        assert_eq!(Workload::LearnCold.ops(DEFAULT_SECONDS), 40);
        assert_eq!(Workload::ServeEdit.ops(DEFAULT_SECONDS), 320);
        assert_eq!(Workload::LearnCacheFill.ops(1.0), MIN_OPS, "never fewer than MIN_OPS");
    }

    #[test]
    fn ops_past_the_deadline_fail_without_running() {
        let run = Run {
            workload: Workload::LearnCold,
            seed: 1,
            ops: 8,
            deadline: Instant::now() - Duration::from_secs(1),
            trace: false,
            work: PathBuf::new(),
            traces: PathBuf::new(),
        };
        let (m, traced) = measure(&run, None, |_, _| panic!("an op started after the deadline"));
        assert_eq!((m.ops(), m.failed(), traced.ops()), (8, 8, 0));
    }
}
