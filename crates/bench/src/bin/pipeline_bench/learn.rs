//! The three `seldon learn` workloads: cold, cache fill, and warm.
//!
//! One op is one `seldon learn <root> [--cache-dir <dir>]` with the CLI's
//! defaults: read the corpus from disk, open the cache, run `run_full`,
//! render the spec. Untimed work around each op (edits, cache eviction,
//! fresh cache directories, reference runs) keeps every op doing the same
//! amount of work.

use crate::inputs::{self, CorpusShape, Generated, Rng, Tree, BATCH};
use crate::layers::{self, LayerSamples};
use crate::stats::RunResult;
use crate::{calib, measure, scale, traced, Measured, Run, SETUPS};
use seldon_cache::ArtifactCache;
use seldon_constraints::GenOptions;
use seldon_core::{
    analysis_cache_key, evaluate_spec, run_full, AnalyzeOptions, FaultPolicy, SeldonOptions,
};
use seldon_propgraph::Budget;
use seldon_solver::{EarlyStop, SolveOptions};
use seldon_specs::TaintSpec;
use seldon_telemetry::Telemetry;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which learn workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No cache: frontends, propgraph, constraints and solver do the work.
    Cold,
    /// Into a fresh, empty cache directory every op: the cache write path.
    CacheFill,
    /// 1% of files edited per op, the rest served from a filled cache.
    Warm,
}

/// The analysis options `seldon learn` uses: lenient recovery, default
/// per-file budgets, sequential file analysis, telemetry off.
pub fn analyze_opts(cache: Option<Arc<ArtifactCache>>) -> AnalyzeOptions {
    AnalyzeOptions {
        policy: FaultPolicy::Recover,
        budget: Some(Budget::default()),
        cache,
        ..Default::default()
    }
}

/// The learning options `seldon learn` uses for a corpus of `files`
/// files: the dynamic cutoff, one solver thread, early stop on.
pub fn learn_opts(files: usize) -> SeldonOptions {
    SeldonOptions {
        gen: GenOptions { rep_cutoff: if files < 50 { 2 } else { 5 }, ..Default::default() },
        solve: SolveOptions {
            threads: 1,
            early_stop: Some(EarlyStop::default()),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// What one learn op produced.
#[derive(Debug)]
pub struct Learned {
    /// The learned specification.
    pub spec: TaintSpec,
    /// Its canonical text, as `seldon learn --out` writes it.
    pub text: String,
    /// Files the run quarantined.
    pub quarantined: usize,
}

/// Opens the cache at `dir` as the CLI does. Faults found validating the
/// directory are an error here: the benchmark only opens caches it wrote.
pub fn open_cache(dir: &Path) -> Result<Arc<ArtifactCache>, String> {
    let (cache, faults) = ArtifactCache::open(dir).map_err(|e| format!("cache open: {e}"))?;
    match faults.first() {
        None => Ok(Arc::new(cache)),
        Some(fault) => Err(format!("cache open: {fault}")),
    }
}

/// One `seldon learn <root> [--cache-dir <dir>]`.
pub fn learn(root: &Path, seed: &TaintSpec, cache_dir: Option<&Path>) -> Result<Learned, String> {
    let corpus = inputs::read_corpus(root).map_err(|e| format!("read {}: {e}", root.display()))?;
    let cache = cache_dir.map(open_cache).transpose()?;
    let files = corpus.file_count();
    let full = run_full(&corpus, seed, "learn", &analyze_opts(cache), &learn_opts(files))
        .map_err(|e| e.to_string())?;
    let spec = full.run.extraction.spec;
    Ok(Learned { text: spec.to_text(), spec, quarantined: full.report.quarantined().count() })
}

/// The state one learn workload carries between ops.
pub struct Workload {
    mode: Mode,
    tree: Tree,
    seed: TaintSpec,
    work: PathBuf,
    rng: Rng,
    /// Numbers unique edits and cache directories.
    serial: u64,
    /// The last cache directory a cache-fill op filled.
    filled: Option<PathBuf>,
    /// The filled cache warm ops use.
    warm_cache: Option<PathBuf>,
    /// Files the current warm op edited.
    edited: Vec<usize>,
    /// The spec every op must learn, when ops do not change the corpus.
    expected: Option<String>,
    /// The spec the last op learned.
    last: String,
}

impl Workload {
    /// Writes `generated` under `work` for a workload in `mode`; `seed`
    /// fixes which files warm ops edit.
    pub fn new(
        mode: Mode,
        seed: u64,
        work: &Path,
        generated: &Generated,
    ) -> Result<Workload, String> {
        let tree = Tree::write(&work.join("batch"), &generated.files)
            .map_err(|e| format!("write corpus: {e}"))?;
        Ok(Workload {
            mode,
            tree,
            seed: generated.seed.clone(),
            work: work.to_path_buf(),
            rng: Rng::new(seed ^ 0x1EA2),
            serial: 0,
            filled: None,
            warm_cache: None,
            edited: Vec::new(),
            expected: None,
            last: String::new(),
        })
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.serial += 1;
        self.work.join(format!("cache-{}", self.serial))
    }

    /// Reverts the current warm edits, leaving the tree pristine.
    fn revert_edits(&mut self) -> Result<(), String> {
        for i in std::mem::take(&mut self.edited) {
            self.tree.set_handler(i, None).map_err(|e| format!("edit: {e}"))?;
        }
        Ok(())
    }

    /// Untimed work before an op; returns the cache directory it uses.
    ///
    /// A cache-fill op first deletes the directory the previous op filled
    /// and then syncs the directory that held it, so the file system has
    /// committed the deletion before the timed op starts writing: the
    /// op's own `fsync`s then flush only the op's own entries. Deleting
    /// them all at exit would instead slow whatever runs next.
    ///
    /// A warm op reverts the previous op's edits and gives 1% of the files
    /// (at least one, drawn from the seed) a unique structural edit.
    fn prepare(&mut self) -> Result<Option<PathBuf>, String> {
        match self.mode {
            Mode::Cold => Ok(None),
            Mode::CacheFill => {
                if let Some(previous) = self.filled.take() {
                    let synced = std::fs::remove_dir_all(&previous)
                        .and_then(|()| std::fs::File::open(&self.work)?.sync_all());
                    synced.map_err(|e| format!("remove {}: {e}", previous.display()))?;
                }
                let dir = self.fresh_dir();
                self.filled = Some(dir.clone());
                Ok(Some(dir))
            }
            Mode::Warm => {
                self.revert_edits()?;
                let n = self.tree.len();
                let mut picked = BTreeSet::new();
                while picked.len() < (n / 100).max(1) {
                    picked.insert(self.rng.below(n));
                }
                for &i in &picked {
                    self.serial += 1;
                    self.tree
                        .set_handler(i, Some(self.serial))
                        .map_err(|e| format!("edit: {e}"))?;
                }
                self.edited = picked.into_iter().collect();
                Ok(self.warm_cache.clone())
            }
        }
    }

    /// Untimed work after a warm op: its edited entries are evicted, so
    /// the cache holds the same entries before every op.
    fn finish(&mut self, cache_dir: Option<&Path>) -> Result<(), String> {
        let (Mode::Warm, Some(dir)) = (self.mode, cache_dir) else {
            return Ok(());
        };
        let opts = analyze_opts(Some(open_cache(dir)?));
        let cache = opts.cache.as_deref().expect("attached above");
        for &i in &self.edited {
            let path = self.tree.path(i).display().to_string();
            cache.evict(analysis_cache_key(&path, &self.tree.content(i), &opts));
        }
        Ok(())
    }

    /// Fills the warm ops' cache from the pristine corpus and returns what
    /// that run learned. This is input preparation, like writing the
    /// corpus: its cost is the cache-fill workload's op.
    fn fill(&mut self) -> Result<Learned, String> {
        let dir = self.fresh_dir();
        let learned = learn(self.tree.root(), &self.seed, Some(&dir))?;
        self.warm_cache = Some(dir);
        Ok(learned)
    }

    /// One op with its untimed preparation and clean-up: what it learned
    /// and how long the op took. With `tele`, the op is the traced
    /// rebuild [`traced::learn_traced`].
    fn op(&mut self, tele: Option<&Telemetry>) -> Result<(Learned, Duration), String> {
        let dir = self.prepare()?;
        let started = Instant::now();
        let learned = match tele {
            None => learn(self.tree.root(), &self.seed, dir.as_deref()),
            Some(tele) => traced::learn_traced(self.tree.root(), &self.seed, dir.as_deref(), tele),
        };
        let took = started.elapsed();
        self.finish(dir.as_deref())?;
        Ok((learned?, took))
    }

    /// The reference spec for the files on disk now: an uncached `seldon
    /// learn`.
    fn reference(&self) -> Result<String, String> {
        Ok(learn(self.tree.root(), &self.seed, None)?.text)
    }

    /// One measured op and the checks of its output. An op fails when it
    /// errors, quarantines a file, or learns a spec other than its
    /// reference: the set-up's spec when ops do not change the corpus,
    /// else (first op of a loop) an uncached run over the same files.
    fn step(&mut self, m: &mut Measured, tele: Option<&Telemetry>) {
        match self.op(tele) {
            Ok((learned, took)) => {
                let mut ok = learned.quarantined == 0;
                match &self.expected {
                    Some(expected) => ok &= learned.text == *expected,
                    None if m.ops() == 0 => ok &= self.reference().is_ok_and(|r| r == learned.text),
                    None => {}
                }
                self.last = learned.text;
                m.record(took, ok);
            }
            Err(e) => {
                eprintln!("learn op failed: {e}");
                m.fail();
            }
        }
    }
}

/// The precision, against the generator's ground truth, of the spec an
/// uncached `seldon learn` learns from the `shape` corpus generated at
/// [`inputs::QUALITY_SEED`]. It does not depend on the run's seed, so it
/// changes only when the code does. The serve workloads use it too: the
/// daemon must serve the spec batch learn learns, byte for byte.
pub fn precision(run: &Run, shape: CorpusShape) -> Result<f64, String> {
    let generated = inputs::generate(inputs::QUALITY_SEED, shape);
    let tree = Tree::write(&run.work.join("quality"), &generated.files)
        .map_err(|e| format!("write corpus: {e}"))?;
    let learned = learn(tree.root(), &generated.seed, None)?;
    std::fs::remove_dir_all(tree.root()).map_err(|e| format!("remove corpus: {e}"))?;
    Ok(evaluate_spec(&learned.spec, &generated.truth).precision())
}

/// Runs one learn workload and reports its metrics.
///
/// A set-up is the first op over the prepared inputs (for the warm
/// workload, over the filled cache): it pays the cold page cache and the
/// interner's growth that later ops do not.
pub fn run(mode: Mode, run: &Run) -> Result<RunResult, String> {
    let generated = inputs::generate(run.seed, BATCH);
    let mut w = Workload::new(mode, run.seed, &run.work, &generated)?;
    let filled = if mode == Mode::Warm { Some(w.fill()?) } else { None };
    let mut setups = Vec::new();
    let mut first_ops = Vec::new();
    for _ in 0..SETUPS {
        let (op, scale) = calib::bracket(|| w.op(None));
        let (learned, took) = op?;
        setups.push(took.as_secs_f64() * scale);
        first_ops.push(learned);
    }
    w.revert_edits()?;
    let pristine = learn(w.tree.root(), &generated.seed, None)?;
    let mut correct = first_ops.iter().all(|l| l.quarantined == 0);
    match &filled {
        Some(filled) => correct &= filled.text == pristine.text,
        None => {
            correct &= first_ops.iter().all(|l| l.text == pristine.text);
            w.expected = Some(pristine.text.clone());
        }
    }

    let mut layer_samples = None;
    let m = if run.trace {
        let tele = Telemetry::recording();
        let (mut untraced, traced) = measure(run, Some(&tele), |m, tele| w.step(m, tele));
        let spans = tele.take_spans();
        let mut samples = LayerSamples::default();
        samples.set_medians(&layers::per_op(&spans, "learn"));
        samples.set_overhead(untraced.scaled(), traced.scaled());
        println!("  chrome trace: {}", traced::write_chrome_trace(run, &spans)?);
        if mode == Mode::Cold {
            scale::measure(run, &mut samples)?;
        }
        layer_samples = Some(samples);
        untraced.absorb(traced);
        untraced
    } else {
        measure(run, None, |m, tele| w.step(m, tele)).0
    };
    if mode == Mode::Warm {
        correct &= w.reference()? == w.last;
    }
    println!("  corpus: {} files, every op learns all of them", w.tree.len());
    let mut result = m.result(correct, &setups, precision(run, BATCH)?)?;
    if let Some(samples) = layer_samples {
        result.metrics = samples.into_metrics();
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `*.entry` files of the cache at `dir`.
    fn entries(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .expect("cache dir")
            .filter(|e| e.as_ref().expect("entry").path().extension().is_some_and(|x| x == "entry"))
            .count()
    }

    #[test]
    fn warm_ops_leave_the_cache_entry_count_flat() {
        let work = crate::inputs::test_dir("warm-evict");
        let generated = inputs::generate(5, CorpusShape { py: 6, js: 2 });
        let mut w = Workload::new(Mode::Warm, 5, &work, &generated).expect("write corpus");
        let filled = w.fill().expect("fill");
        let dir = w.warm_cache.clone().expect("filled");
        let before = entries(&dir);
        assert_eq!(before, w.tree.len(), "one entry per file after the fill");
        let mut m = Measured::default();
        for _ in 0..4 {
            w.step(&mut m, None);
            assert_eq!(entries(&dir), before, "eviction undoes each op's stores");
        }
        assert_eq!(m.failed(), 0, "the first op matched its uncached reference");
        w.revert_edits().expect("revert");
        assert_eq!(w.reference().expect("reference"), filled.text);
        std::fs::remove_dir_all(&work).expect("clean up");
    }
}
