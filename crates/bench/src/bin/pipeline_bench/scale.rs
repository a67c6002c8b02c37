//! Fig. 10 by layer: the per-file cost of each layer as the corpus doubles
//! from 75 to 600 projects at the batch corpus's 3:1 Python:JS mix.
//!
//! The paper's scalability claim is that Seldon's cost grows linearly with
//! the files analyzed, i.e. the per-file cost stays flat across doublings;
//! EXPERIMENTS.md records the whole-pipeline shape as a per-file cost
//! ratio of at most 1.53. This splits that ratio by layer. Every size is
//! generated from the run's seed and learned by the traced op without a
//! cache.

use crate::inputs::{self, CorpusShape, Tree};
use crate::layers::{self, LayerSamples};
use crate::stats::median;
use crate::{traced, Run};
use seldon_telemetry::Telemetry;

/// Corpus sizes in projects: three doublings.
const SIZES: [usize; 4] = [75, 150, 300, 600];

/// Traced runs per size; the per-layer time is their median.
const REPEATS: usize = 5;

/// The whole-pipeline per-file cost ratio EXPERIMENTS.md reports.
const FIG10_RATIO: f64 = 1.53;

/// Each reported layer and the span times it sums.
const LAYERS: [(&str, &[&str]); 5] = [
    ("pyast", &["pyast.parse_ms"]),
    ("propgraph", &["propgraph.lower_ms", "propgraph.build_ir_ms", "propgraph.union_ms"]),
    ("constraints", &["constraints.gen_ms"]),
    ("solver", &["solver.compile_ms", "solver.solve_ms", "solver.extract_ms"]),
    ("taint", &["taint.ms"]),
];

/// Measures the `scale.*` rows into `samples` and prints them as a table.
pub fn measure(run: &Run, samples: &mut LayerSamples) -> Result<(), String> {
    let tele = Telemetry::recording();
    // us_per_file[layer][size]
    let mut us_per_file = [[0.0; SIZES.len()]; LAYERS.len()];
    for (s, &projects) in SIZES.iter().enumerate() {
        let py = projects * 3 / 4;
        let generated = inputs::generate(run.seed, CorpusShape { py, js: projects - py });
        let dir = run.work.join(format!("scale-{projects}"));
        let tree = Tree::write(&dir, &generated.files).map_err(|e| format!("write corpus: {e}"))?;
        // One untimed warm-up per size: the first run over new files pays
        // page-cache and allocator growth the others do not.
        for _ in 0..=REPEATS {
            traced::learn_traced(tree.root(), &generated.seed, None, &tele)?;
        }
        let mut ops = layers::per_op(&tele.take_spans(), "learn");
        ops.remove(0);
        for (l, (layer, parts)) in LAYERS.iter().enumerate() {
            let ms: Vec<f64> = ops
                .iter()
                .map(|op| parts.iter().map(|p| op.get(*p).copied().unwrap_or(0.0)).sum())
                .collect();
            us_per_file[l][s] = median(&ms) * 1e3 / tree.len() as f64;
            samples.set(format!("scale.{layer}.us_per_file.p{projects}"), us_per_file[l][s]);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove corpus: {e}"))?;
    }

    println!("  Fig. 10 by layer: us per file, 3:1 Python:JS, median of {REPEATS} traced runs");
    print!("  {:<12}", "layer");
    for projects in SIZES {
        print!(" {:>9}", format!("p{projects}"));
    }
    println!(" {:>10}", "max ratio");
    let mut max_ratio: f64 = 0.0;
    for (l, (layer, _)) in LAYERS.iter().enumerate() {
        let row = us_per_file[l];
        let ratio = row.windows(2).map(|w| w[1] / w[0]).fold(0.0, f64::max);
        max_ratio = max_ratio.max(ratio);
        print!("  {layer:<12}");
        for v in row {
            print!(" {v:>9.2}");
        }
        println!(" {ratio:>10.3}");
    }
    println!(
        "  max per-file cost ratio across doublings: {max_ratio:.3} \
         (EXPERIMENTS.md Fig. 10 shape, whole pipeline: <= {FIG10_RATIO})"
    );
    samples.set("scale.max_doubling_ratio", max_ratio);
    Ok(())
}
