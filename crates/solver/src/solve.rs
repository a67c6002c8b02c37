//! Solving the relaxed constraint system (§4.4, eq. 9–11).
//!
//! The objective is
//!
//! ```text
//! min  Σᵢ max(Lᵢ − Rᵢ − C, 0)  +  λ · Σ x
//! s.t. 0 ≤ x ≤ 1,  pinned variables fixed
//! ```
//!
//! minimized with projected Adam. Pinned (seed) variables are restored to
//! their values after every step, which is exactly projection onto the
//! affine subspace of `C_known`.
//!
//! The hot loop iterates a [`CompiledSystem`] — the CSR lowering in
//! [`crate::compiled`] — and parallelizes each epoch across
//! [`SolveOptions::threads`] scoped workers. The lane/chunk partitions the
//! workers split on depend only on the compiled system, so scores are
//! byte-identical for `threads = 1` and `threads = N`.
//!
//! Instead of always burning the full `max_iters` budget, the loop can
//! exit on a deterministic objective plateau ([`EarlyStop`], on by
//! default): relative-improvement checks at fixed [`EARLY_STOP_STRIDE`]
//! epoch boundaries, on the thread-invariant objective series, so the
//! stop epoch — recorded as [`Solution::stop`] — is itself identical at
//! any thread count.

use crate::adam::{step_element, AdamConfig};
use crate::compiled::{chunked_sum, CompiledSystem, LaneBuffer};
use seldon_constraints::ConstraintSystem;
use seldon_telemetry::EpochSample;

/// Epoch interval of the plateau-detector checks: every
/// `EARLY_STOP_STRIDE`-th epoch, matching the default convergence-trace
/// stride. The check reads only the per-epoch objective series — which is
/// already bitwise thread-invariant — at epochs fixed by this constant, so
/// the stop decision is identical for any thread count *and* for any
/// [`SolveOptions::trace_stride`] (including 0: tracing off never changes
/// where the solver stops).
pub const EARLY_STOP_STRIDE: usize = 10;

/// Consecutive no-improvement epochs (beyond [`SolveOptions::tol`],
/// absolute) after which the stall exit fires. This is the legacy
/// convergence exit and always runs; when [`SolveOptions::early_stop`] is
/// set it is additionally gated by [`EarlyStop::min_iters`] so every exit
/// honors the detector's floor.
pub const STALL_WINDOW: usize = 50;

/// Convergence-based early exit: a deterministic plateau detector on the
/// objective series, checked only at [`EARLY_STOP_STRIDE`] boundaries.
///
/// The best objective so far is tracked every epoch (the per-epoch
/// objective is already bitwise thread-invariant, so this adds no thread
/// sensitivity); an epoch improves the best only by beating it by more
/// than `rel_tol`, scaled by `max(|best|, 1)`. At each check epoch, no
/// new best since the previous check counts as one strike; after
/// `patience` consecutive strikes (and at least `min_iters` epochs), the
/// solver stops with [`StopReason::Plateau`] instead of burning the rest
/// of `max_iters`. Best-so-far tracking — rather than consecutive
/// per-check deltas — keeps the detector robust to the small oscillations
/// Adam's late epochs produce around a settled objective.
///
/// The detector layers on top of the always-active [`STALL_WINDOW`]
/// stall exit rather than replacing it: the stall window handles small
/// systems (where the absolute tolerance is meaningful and the legacy
/// stop epoch is preserved bit-for-bit), while the relative-tolerance
/// plateau check is what stops large-corpus runs whose objective keeps
/// shaving more than an absolute 1e-6 per epoch forever. `min_iters`
/// gates both exits whenever the detector is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct EarlyStop {
    /// Consecutive checks without a new best required before stopping.
    pub patience: usize,
    /// Relative improvement on the best objective below which an epoch
    /// does not count as progress (scaled by `max(|best|, 1)`).
    pub rel_tol: f64,
    /// Epochs that must complete before the detector may stop the run.
    pub min_iters: usize,
}

impl Default for EarlyStop {
    fn default() -> Self {
        // patience × EARLY_STOP_STRIDE = STALL_WINDOW epochs without a
        // new best — the same no-improvement span the stall exit uses, so
        // on trajectories where only the scale-aware relative check can
        // see the plateau, the detector stops in the same settled region
        // the stall window would have found under a finer tolerance.
        EarlyStop { patience: 5, rel_tol: 1e-6, min_iters: 50 }
    }
}

impl EarlyStop {
    /// Rejects configurations the detector cannot evaluate.
    pub fn validate(&self) -> Result<(), String> {
        if self.patience == 0 {
            return Err("early-stop patience must be ≥ 1".to_string());
        }
        if !self.rel_tol.is_finite() || self.rel_tol < 0.0 {
            return Err(format!("early-stop rel_tol must be finite and ≥ 0, got {}", self.rel_tol));
        }
        Ok(())
    }
}

/// Why the solver's epoch loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// The full `max_iters` budget ran.
    #[default]
    MaxIters,
    /// The absolute-tolerance stall window fired (no improvement beyond
    /// [`SolveOptions::tol`] for [`STALL_WINDOW`] consecutive epochs).
    Stall,
    /// The [`EarlyStop`] plateau detector fired at a check boundary.
    Plateau,
    /// The run produced a non-finite objective or scores; for a restarted
    /// solve this reports the final (restarted) run's reason.
    Diverged,
    /// Options failed [`SolveOptions::validate`]; no epoch ran.
    InvalidOptions,
}

impl StopReason {
    /// Stable string form (manifest / checkpoint serialization).
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::MaxIters => "max_iters",
            StopReason::Stall => "stall",
            StopReason::Plateau => "plateau",
            StopReason::Diverged => "diverged",
            StopReason::InvalidOptions => "invalid_options",
        }
    }

    /// Small integer code for numeric metric gauges, in declaration order.
    pub fn code(self) -> u8 {
        match self {
            StopReason::MaxIters => 0,
            StopReason::Stall => 1,
            StopReason::Plateau => 2,
            StopReason::Diverged => 3,
            StopReason::InvalidOptions => 4,
        }
    }

    /// Inverse of [`StopReason::code`]; `None` on unknown input.
    pub fn from_code(code: u8) -> Option<StopReason> {
        use StopReason::*;
        [MaxIters, Stall, Plateau, Diverged, InvalidOptions].into_iter().find(|r| r.code() == code)
    }

    /// Inverse of [`StopReason::as_str`]; `None` on unknown input.
    pub fn parse(s: &str) -> Option<StopReason> {
        match s {
            "max_iters" => Some(StopReason::MaxIters),
            "stall" => Some(StopReason::Stall),
            "plateau" => Some(StopReason::Plateau),
            "diverged" => Some(StopReason::Diverged),
            "invalid_options" => Some(StopReason::InvalidOptions),
            _ => None,
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Solver hyperparameters; defaults follow the paper (λ = 0.1).
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// L1 regularization strength λ.
    pub lambda: f64,
    /// Maximum Adam iterations.
    pub max_iters: usize,
    /// Stall exit tolerance: stop after [`STALL_WINDOW`] consecutive
    /// epochs whose objective improves less than this absolute amount.
    /// Always active; with `early_stop` set the exit is additionally
    /// gated by [`EarlyStop::min_iters`].
    pub tol: f64,
    /// Adam configuration.
    pub adam: AdamConfig,
    /// Convergence-based early exit layered on top of the stall window.
    /// The stall window is absolute-tolerance and corpus-scale blind: on
    /// large corpora the objective is big enough that it keeps improving
    /// by more than `tol` forever, so runs burn the whole `max_iters`
    /// budget. The plateau detector's *relative* tolerance is what stops
    /// those runs early. `None` reproduces the pre-early-stop behavior
    /// exactly; on by default.
    pub early_stop: Option<EarlyStop>,
    /// Convergence-trace sampling stride: every `trace_stride`-th epoch
    /// (plus the final one) is recorded into [`Solution::trace`] as an
    /// [`EpochSample`]. `0` (the default) disables tracing entirely and
    /// keeps the Adam hot loop free of any telemetry work.
    pub trace_stride: usize,
    /// Worker threads per epoch (clamped to ≥ 1). The gap pass splits
    /// over gradient lanes and the Adam update over fixed variable
    /// chunks; both partitions are functions of the compiled system
    /// alone, so scores are byte-identical for any thread count.
    pub threads: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            lambda: 0.1,
            max_iters: 800,
            tol: 1e-6,
            adam: AdamConfig::default(),
            early_stop: Some(EarlyStop::default()),
            trace_stride: 0,
            threads: 1,
        }
    }
}

impl SolveOptions {
    /// Rejects hyperparameters that would poison every iterate (NaN λ, a
    /// bad Adam configuration — see [`AdamConfig::validate`]) so
    /// [`solve`] can short-circuit to a diverged [`Solution`] instead of
    /// burning `max_iters` twice. A NaN `tol` would count every epoch as
    /// a stall and stop each run at epoch [`STALL_WINDOW`], unreported.
    pub fn validate(&self) -> Result<(), String> {
        if !self.lambda.is_finite() {
            return Err(format!("lambda must be finite, got {}", self.lambda));
        }
        if !self.tol.is_finite() || self.tol < 0.0 {
            return Err(format!("tol must be finite and ≥ 0, got {}", self.tol));
        }
        if let Some(es) = &self.early_stop {
            es.validate()?;
        }
        self.adam.validate()
    }
}

/// The result of solving a constraint system.
#[derive(Debug, Clone, Default)]
pub struct Solution {
    /// Score per variable, in `[0,1]`, indexed by `VarId`.
    pub scores: Vec<f64>,
    /// Final objective value.
    pub objective: f64,
    /// Final total constraint violation (the hinge part of the objective).
    pub violation: f64,
    /// Iterations actually run.
    pub iterations: usize,
    /// Objective value per iteration (for convergence plots).
    pub history: Vec<f64>,
    /// Whether the optimizer produced non-finite values (or the options
    /// failed [`SolveOptions::validate`] and the run was short-circuited).
    /// The solver restarts once with a reduced learning rate and
    /// sanitizes the final scores, so `scores` is finite and in `[0,1]`
    /// even when this is set.
    pub diverged: bool,
    /// Divergence-guard restarts taken (0 or 1). Surfaced so callers can
    /// report restarts instead of silently continuing on the rescaled run.
    pub restarts: usize,
    /// Learning rate of the run that produced `scores` — the configured
    /// rate, scaled by [`RESTART_LR_SCALE`] if the run restarted.
    pub final_lr: f64,
    /// Why the epoch loop ended (for the restarted run, if any).
    pub stop: StopReason,
    /// Epochs *not* run against the `max_iters` budget
    /// (`max_iters − iterations`); 0 for diverged or short-circuited runs,
    /// where the savings were not earned by convergence.
    pub epochs_saved: usize,
    /// Sampled convergence trace (empty when
    /// [`SolveOptions::trace_stride`] is 0); epochs strictly increase and
    /// the final epoch is always included. After a restart this traces the
    /// restarted run, consistent with `history`.
    pub trace: Vec<EpochSample>,
}

impl Solution {
    /// The score of variable `v`.
    pub fn score(&self, v: seldon_constraints::VarId) -> f64 {
        self.scores[v.index()]
    }
}

/// Computes the hinge violation and objective of `scores` under `sys`
/// through the compiled kernel — the same code path the solver iterates,
/// so the two can never drift.
pub fn evaluate(sys: &ConstraintSystem, scores: &[f64], lambda: f64) -> (f64, f64) {
    CompiledSystem::compile(sys).objective(scores, lambda)
}

/// Everything one [`run_adam`] pass produces.
struct AdamRun {
    x: Vec<f64>,
    iterations: usize,
    history: Vec<f64>,
    trace: Vec<EpochSample>,
    diverged: bool,
    stop: StopReason,
}

/// Applies one Adam step to a contiguous block of variables starting at
/// `start`, reading gradients from the per-lane hinge partials in `bufs`
/// (reduced in fixed lane order) and writing per-fixed-chunk squared
/// gradient norms into `norms`. Element-wise, so any worker partition
/// along chunk boundaries produces bit-identical results.
#[allow(clippy::too_many_arguments)]
fn update_block(
    cs: &CompiledSystem,
    cfg: &AdamConfig,
    lambda: f64,
    b1t: f64,
    b2t: f64,
    bufs: &[LaneBuffer],
    start: usize,
    xs: &mut [f64],
    ms: &mut [f64],
    vs: &mut [f64],
    norms: &mut [f64],
    want_norm: bool,
) {
    let chunk = cs.var_chunk();
    for (ci, ((xc, mc), vc)) in
        xs.chunks_mut(chunk).zip(ms.chunks_mut(chunk)).zip(vs.chunks_mut(chunk)).enumerate()
    {
        let base = start + ci * chunk;
        let mut sq = 0.0;
        for (off, ((xi, mi), vi)) in
            xc.iter_mut().zip(mc.iter_mut()).zip(vc.iter_mut()).enumerate()
        {
            let g = cs.grad_var(base + off, lambda, bufs);
            if want_norm {
                sq += g * g;
            }
            step_element(cfg, b1t, b2t, mi, vi, xi, g, 0.0, 1.0);
        }
        if want_norm {
            norms[ci] = sq;
        }
    }
}

/// One epoch's Adam update + box projection, chunked across up to
/// `threads` scoped workers along the fixed variable partition.
#[allow(clippy::too_many_arguments)]
fn update_pass(
    cs: &CompiledSystem,
    cfg: &AdamConfig,
    lambda: f64,
    step: u64,
    threads: usize,
    bufs: &[LaneBuffer],
    x: &mut [f64],
    m: &mut [f64],
    v: &mut [f64],
    norms: &mut [f64],
    want_norm: bool,
) {
    let b1t = 1.0 - cfg.beta1.powi(step as i32);
    let b2t = 1.0 - cfg.beta2.powi(step as i32);
    let n_chunks = cs.var_chunk_count();
    let workers = threads.max(1).min(n_chunks.max(1));
    if workers <= 1 {
        update_block(cs, cfg, lambda, b1t, b2t, bufs, 0, x, m, v, norms, want_norm);
        return;
    }
    let per = n_chunks.div_ceil(workers);
    let stride = per * cs.var_chunk();
    std::thread::scope(|s| {
        for (w, (((xs, ms), vs), ns)) in x
            .chunks_mut(stride)
            .zip(m.chunks_mut(stride))
            .zip(v.chunks_mut(stride))
            .zip(norms.chunks_mut(per))
            .enumerate()
        {
            s.spawn(move || {
                update_block(cs, cfg, lambda, b1t, b2t, bufs, w * stride, xs, ms, vs, ns, want_norm);
            });
        }
    });
}

/// The gradient norm alone, for tracing epochs that never reach the
/// update phase (non-finite objective).
fn grad_norm_only(cs: &CompiledSystem, lambda: f64, bufs: &[LaneBuffer]) -> f64 {
    let mut sq = 0.0;
    for i in 0..cs.var_count() {
        let g = cs.grad_var(i, lambda, bufs);
        sq += g * g;
    }
    sq.sqrt()
}

/// One projected-Adam run over the compiled system; aborts early if the
/// objective or any score turns non-finite and reports it in
/// [`AdamRun::diverged`].
///
/// `init` seeds the starting iterate (warm start); `None` starts from
/// zeros, the classic cold start. Warm values are sanitized into `[0,1]`
/// before the first epoch and pins are re-applied either way, so every
/// iterate the loop sees is feasible.
///
/// With `opts.trace_stride > 0`, every stride-th epoch (and the final
/// epoch) is recorded as an [`EpochSample`]; with a stride of 0 the loop
/// does no telemetry work at all.
fn run_adam(
    cs: &CompiledSystem,
    opts: &SolveOptions,
    lr_scale: f64,
    init: Option<&[f64]>,
) -> AdamRun {
    let n = cs.var_count();
    let threads = opts.threads.max(1);
    let mut x = match init {
        Some(seed) if seed.len() == n => {
            seed.iter().map(|&s| if s.is_finite() { s.clamp(0.0, 1.0) } else { 0.0 }).collect()
        }
        _ => vec![0.0f64; n],
    };
    cs.apply_pins(&mut x);

    let lr = opts.adam.lr * lr_scale;
    let cfg = AdamConfig { lr, ..opts.adam.clone() };
    let mut m = vec![0.0f64; n];
    let mut v = vec![0.0f64; n];
    let mut bufs = cs.new_lane_buffers();
    let mut lane_stats = vec![(0.0f64, 0usize); cs.lane_count()];
    let mut norm_parts = vec![0.0f64; cs.var_chunk_count()];
    let mut history = Vec::with_capacity(opts.max_iters.min(4096));
    let stride = opts.trace_stride;
    let mut trace: Vec<EpochSample> = Vec::new();
    let mut last_sample: Option<EpochSample> = None;
    let mut best = f64::INFINITY;
    let mut stall = 0usize;
    let mut iterations = 0usize;
    let mut diverged = false;
    let mut step = 0u64;
    let mut stop = StopReason::MaxIters;
    // Plateau-detector state: the best objective seen so far, whether it
    // improved since the previous check, and the consecutive checks
    // without improvement. Decisions run only at `EARLY_STOP_STRIDE`
    // boundaries, on the thread-invariant objective series, so the stop
    // epoch is identical at any thread count.
    let mut check_best = f64::INFINITY;
    let mut improved = false;
    let mut since_best = 0usize;

    for iter in 0..opts.max_iters {
        iterations = iter + 1;
        cs.gap_pass(&x, threads, &mut bufs, &mut lane_stats);
        let mut violation = 0.0;
        let mut violated = 0usize;
        for &(lane_violation, lane_violated) in &lane_stats {
            violation += lane_violation;
            violated += lane_violated;
        }
        let objective = violation + opts.lambda * chunked_sum(&x);
        if !objective.is_finite() {
            if stride != 0 {
                let sample = EpochSample {
                    epoch: iter as u64,
                    objective,
                    hinge_loss: violation,
                    violated: violated as u64,
                    grad_norm: grad_norm_only(cs, opts.lambda, &bufs),
                    lr,
                };
                if iter % stride == 0 {
                    trace.push(sample);
                }
                last_sample = Some(sample);
            }
            diverged = true;
            stop = StopReason::Diverged;
            break;
        }
        history.push(objective);

        step += 1;
        update_pass(
            cs,
            &cfg,
            opts.lambda,
            step,
            threads,
            &bufs,
            &mut x,
            &mut m,
            &mut v,
            &mut norm_parts,
            stride != 0,
        );
        cs.apply_pins(&mut x);

        if stride != 0 {
            let sample = EpochSample {
                epoch: iter as u64,
                objective,
                hinge_loss: violation,
                violated: violated as u64,
                grad_norm: norm_parts.iter().sum::<f64>().sqrt(),
                lr,
            };
            if iter % stride == 0 {
                trace.push(sample);
            }
            last_sample = Some(sample);
        }

        if x.iter().any(|s| !s.is_finite()) {
            diverged = true;
            stop = StopReason::Diverged;
            break;
        }

        // Convergence exits. The legacy stall window (absolute `tol`, 50
        // consecutive epochs without improvement) always runs — with
        // early-stop enabled it is additionally gated by `min_iters`, so
        // the detector's floor is honored by every exit. The plateau
        // detector layers a *relative*-tolerance exit on top: on large
        // corpora the objective is O(10³) and keeps shaving more than the
        // absolute 1e-6 forever, so the stall window never fires and the
        // run burns the whole `max_iters` budget; a scale-aware threshold
        // is what actually stops those runs early. On small systems the
        // stall window typically fires first, so enabling early-stop
        // changes nothing there — outputs stay bit-for-bit identical.
        if objective + opts.tol < best {
            best = objective;
            stall = 0;
        } else {
            stall += 1;
        }
        match &opts.early_stop {
            Some(es) => {
                if stall >= STALL_WINDOW && iterations >= es.min_iters {
                    stop = StopReason::Stall;
                    break;
                }
                // Best-so-far tracking runs every epoch — the objective
                // series is already bitwise thread-invariant, so this adds
                // no thread sensitivity — but the stop *decision* happens
                // only at fixed stride boundaries: a check without a new
                // best since the previous check is a strike, `patience`
                // consecutive strikes end the run. Best-so-far (rather
                // than consecutive per-check deltas) keeps the detector
                // robust to the small oscillations Adam's late epochs
                // produce; `min_iters` gates the stop itself, never the
                // strike bookkeeping.
                if !check_best.is_finite()
                    || objective < check_best - es.rel_tol * check_best.abs().max(1.0)
                {
                    check_best = objective;
                    improved = true;
                }
                if iter % EARLY_STOP_STRIDE == 0 {
                    if improved {
                        since_best = 0;
                        improved = false;
                    } else {
                        since_best += 1;
                    }
                    if since_best >= es.patience && iterations >= es.min_iters {
                        stop = StopReason::Plateau;
                        break;
                    }
                }
            }
            None => {
                if stall >= STALL_WINDOW {
                    stop = StopReason::Stall;
                    break;
                }
            }
        }
    }

    // The curve always ends at the epoch the loop actually stopped on
    // (early stall, divergence, or max_iters), not the last stride mark.
    if let Some(last) = last_sample {
        if trace.last().map(|t| t.epoch) != Some(last.epoch) {
            trace.push(last);
        }
    }

    AdamRun { x, iterations, history, trace, diverged, stop }
}

/// Learning-rate scale of the single restart after a diverged run.
const RESTART_LR_SCALE: f64 = 0.25;

/// Minimizes the relaxed objective with projected Adam.
///
/// Compiles `sys` into a [`CompiledSystem`] and delegates to
/// [`solve_compiled`]; callers iterating the same system repeatedly can
/// compile once and reuse it.
pub fn solve(sys: &ConstraintSystem, opts: &SolveOptions) -> Solution {
    solve_compiled(&CompiledSystem::compile(sys), opts)
}

/// Minimizes the relaxed objective of a pre-compiled system.
///
/// Numerically guarded twice over: options failing
/// [`SolveOptions::validate`] short-circuit to a diverged solution with
/// zeroed (pinned) scores before any epoch runs, and a run that produces
/// non-finite scores or objective restarts once with the learning rate
/// scaled by [`RESTART_LR_SCALE`], sanitizes whatever remains non-finite
/// to `0`, and sets [`Solution::diverged`]. Scores are always finite and
/// in `[0,1]` with pinned variables at their pinned values.
pub fn solve_compiled(cs: &CompiledSystem, opts: &SolveOptions) -> Solution {
    solve_compiled_from(cs, opts, None)
}

/// Like [`solve_compiled`] but warm-started: the first iterate is `init`
/// (sanitized into `[0,1]`, pins re-applied) instead of zeros.
///
/// A warm start changes only where the trajectory *begins* — the epoch
/// loop, both convergence exits, the divergence guard, and the final
/// sanitization are byte-for-byte the code the cold path runs, so a warm
/// solve is exactly as thread-invariant as a cold one. A diverged warm
/// run restarts from the *same* warm iterate at the reduced learning
/// rate. An `init` of the wrong length is ignored (cold start) rather
/// than guessed at.
///
/// Note warm and cold solves of the same system converge to the same
/// optimum *region* but not to bit-identical scores: callers that
/// advertise byte-identical downstream output (the serve daemon's
/// warm-start contract) must guard extraction with a margin check and
/// fall back to [`solve_compiled`] when a decision is too close to call.
pub fn solve_compiled_warm(
    cs: &CompiledSystem,
    opts: &SolveOptions,
    init: &[f64],
) -> Solution {
    solve_compiled_from(cs, opts, Some(init))
}

fn solve_compiled_from(
    cs: &CompiledSystem,
    opts: &SolveOptions,
    init: Option<&[f64]>,
) -> Solution {
    if opts.validate().is_err() {
        let mut x = vec![0.0f64; cs.var_count()];
        cs.apply_pins(&mut x);
        let (violation, objective) = cs.objective(&x, opts.lambda);
        return Solution {
            scores: x,
            objective,
            violation,
            iterations: 0,
            history: Vec::new(),
            diverged: true,
            restarts: 0,
            final_lr: opts.adam.lr,
            stop: StopReason::InvalidOptions,
            epochs_saved: 0,
            trace: Vec::new(),
        };
    }

    let mut run = run_adam(cs, opts, 1.0, init);
    let diverged = run.diverged;
    let mut restarts = 0usize;
    let mut final_lr = opts.adam.lr;
    if diverged {
        run = run_adam(cs, opts, RESTART_LR_SCALE, init);
        restarts = 1;
        final_lr = opts.adam.lr * RESTART_LR_SCALE;
    }
    let AdamRun { mut x, iterations, history, trace, stop, .. } = run;
    // Epochs saved are only claimed for runs that converged on their own;
    // a diverged run's short iteration count is a failure, not a saving.
    let epochs_saved =
        if diverged { 0 } else { opts.max_iters.saturating_sub(iterations) };

    // Final sanitization: a diverged restart can still be non-finite;
    // downstream extraction must never see it.
    for s in &mut x {
        if !s.is_finite() {
            *s = 0.0;
        } else {
            *s = s.clamp(0.0, 1.0);
        }
    }
    cs.apply_pins(&mut x);

    let (violation, objective) = cs.objective(&x, opts.lambda);
    Solution {
        scores: x,
        objective,
        violation,
        iterations,
        history,
        diverged,
        restarts,
        final_lr,
        stop,
        epochs_saved,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_constraints::{ConstraintSystem, FlowConstraint, Term};
    use seldon_specs::Role;

    /// Pinned src=1, snk=1 with a constraint src+snk ≤ san + C pushes the
    /// sanitizer score up to ≈ 2 − C.
    #[test]
    fn sanitizer_learned_from_pinned_endpoints() {
        let mut sys = ConstraintSystem::new(0.75);
        let s = sys.rep("src()");
        let m = sys.rep("san()");
        let t = sys.rep("snk()");
        let vsrc = sys.var(s, Role::Source);
        let vsan = sys.var(m, Role::Sanitizer);
        let vsnk = sys.var(t, Role::Sink);
        sys.pin(vsrc, 1.0);
        sys.pin(vsnk, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: vsrc, coeff: 1.0 }, Term { var: vsnk, coeff: 1.0 }],
            rhs: vec![Term { var: vsan, coeff: 1.0 }],
            ..Default::default()
        });
        let sol = solve(&sys, &SolveOptions::default());
        // src + snk = 2 ≤ san + 0.75 ⇒ san ≥ 1.25, clipped to 1... but λ
        // pulls down; the hinge (slope 1) dominates λ = 0.1, so san → 1.
        assert!(sol.score(vsan) > 0.9, "san = {}", sol.score(vsan));
        assert_eq!(sol.score(vsrc), 1.0);
        assert_eq!(sol.score(vsnk), 1.0);
    }

    /// Without any seed, all-zeros is optimal (the paper's Q6 extreme case).
    #[test]
    fn empty_seed_gives_zero_scores() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let b = sys.rep("b()");
        let va = sys.var(a, Role::Source);
        let vb = sys.var(b, Role::Sink);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: va, coeff: 1.0 }, Term { var: vb, coeff: 1.0 }],
            rhs: vec![],
            ..Default::default()
        });
        let sol = solve(&sys, &SolveOptions::default());
        assert!(sol.scores.iter().all(|&s| s < 1e-6), "{:?}", sol.scores);
        assert!(sol.violation < 1e-9);
    }

    /// Regularization suppresses variables not needed by any constraint.
    #[test]
    fn l1_pulls_free_variables_to_zero() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("unused()");
        let v = sys.var(a, Role::Sanitizer);
        let sol = solve(&sys, &SolveOptions::default());
        assert!(sol.score(v) < 1e-6);
    }

    /// A chain src=1 with constraint src + snk ≤ C forces snk down (no
    /// gradient pressure up) — scores stay 0 and violation only as forced.
    #[test]
    fn infeasible_pins_leave_residual_violation() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let b = sys.rep("b()");
        let va = sys.var(a, Role::Source);
        let vb = sys.var(b, Role::Sink);
        sys.pin(va, 1.0);
        sys.pin(vb, 1.0);
        // lhs = 2, rhs = C = 0.75: irreducible violation of 1.25.
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: va, coeff: 1.0 }, Term { var: vb, coeff: 1.0 }],
            rhs: vec![],
            ..Default::default()
        });
        let sol = solve(&sys, &SolveOptions::default());
        assert!((sol.violation - 1.25).abs() < 1e-9, "violation {}", sol.violation);
    }

    #[test]
    fn objective_history_is_recorded() {
        let sys = ConstraintSystem::new(0.75);
        let sol = solve(&sys, &SolveOptions { max_iters: 10, ..Default::default() });
        assert!(!sol.history.is_empty());
        assert!(sol.iterations <= 10 + 50);
    }

    /// Backoff averages: pinning a shared backoff variable raises the score
    /// of every event averaging over it.
    #[test]
    fn shared_backoff_correlation() {
        let mut sys = ConstraintSystem::new(0.75);
        let shared = sys.rep("x.save()");
        let spec1 = sys.rep("media(param f).save()");
        let vsh = sys.var(shared, Role::Sink);
        let vs1 = sys.var(spec1, Role::Sink);
        let src = sys.rep("request.args.get()");
        let vsrc = sys.var(src, Role::Source);
        sys.pin(vsrc, 1.0);
        // src + snk_avg ≤ C with snk averaged over {spec1, shared}:
        // wait — constraint must push snk UP: use a 4c-style constraint
        // src + snk ≤ san + C is not it; instead model 4b:
        // src + san ≤ snk + C with a pinned sanitizer.
        let san = sys.rep("clean()");
        let vsan = sys.var(san, Role::Sanitizer);
        sys.pin(vsan, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: vsrc, coeff: 1.0 }, Term { var: vsan, coeff: 1.0 }],
            rhs: vec![Term { var: vs1, coeff: 0.5 }, Term { var: vsh, coeff: 0.5 }],
            ..Default::default()
        });
        let sol = solve(&sys, &SolveOptions::default());
        // 2 ≤ 0.5(vs1 + vsh) + 0.75 ⇒ vs1 + vsh ≥ 2.5 ⇒ both ≈ 1.
        assert!(sol.score(vs1) > 0.8, "vs1 = {}", sol.score(vs1));
        assert!(sol.score(vsh) > 0.8, "vsh = {}", sol.score(vsh));
    }

    /// NaN hyperparameters poison every iterate: validation must catch the
    /// config up front, short-circuit to diverged, and still hand back
    /// finite sanitized scores — without burning `max_iters` twice.
    #[test]
    fn nan_lambda_is_detected_and_sanitized() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let b = sys.rep("b()");
        let va = sys.var(a, Role::Source);
        let vb = sys.var(b, Role::Sink);
        sys.pin(va, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: va, coeff: 1.0 }],
            rhs: vec![Term { var: vb, coeff: 1.0 }],
            ..Default::default()
        });
        let sol = solve(&sys, &SolveOptions { lambda: f64::NAN, ..Default::default() });
        assert!(sol.diverged, "NaN λ must be reported as divergence");
        assert_eq!(sol.iterations, 0, "short-circuits before any epoch");
        assert_eq!(sol.restarts, 0, "no doomed restart is attempted");
        assert!(sol.scores.iter().all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
        assert_eq!(sol.score(va), 1.0, "pins survive sanitization");
    }

    /// Every invalid hyperparameter short-circuits before the first epoch.
    #[test]
    fn invalid_hyperparameters_short_circuit() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let va = sys.var(a, Role::Source);
        sys.pin(va, 1.0);
        let bad_opts = [
            SolveOptions { lambda: f64::NAN, ..Default::default() },
            SolveOptions { lambda: f64::INFINITY, ..Default::default() },
            SolveOptions {
                adam: AdamConfig { lr: f64::NAN, ..Default::default() },
                ..Default::default()
            },
            SolveOptions {
                adam: AdamConfig { lr: 0.0, ..Default::default() },
                ..Default::default()
            },
            SolveOptions {
                adam: AdamConfig { beta1: 1.5, ..Default::default() },
                ..Default::default()
            },
            SolveOptions {
                adam: AdamConfig { beta2: f64::NAN, ..Default::default() },
                ..Default::default()
            },
            SolveOptions { tol: f64::NAN, ..Default::default() },
            SolveOptions { tol: f64::INFINITY, ..Default::default() },
            SolveOptions { tol: -1e-6, ..Default::default() },
        ];
        for opts in bad_opts {
            assert!(opts.validate().is_err());
            let sol = solve(&sys, &opts);
            assert!(sol.diverged);
            assert_eq!(sol.iterations, 0);
            assert_eq!(sol.restarts, 0);
            assert!(sol.history.is_empty() && sol.trace.is_empty());
            assert_eq!(sol.final_lr.to_bits(), opts.adam.lr.to_bits());
            assert_eq!(sol.score(va), 1.0, "pins survive the short-circuit");
        }
    }

    #[test]
    fn healthy_runs_do_not_report_divergence() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let v = sys.var(a, Role::Source);
        sys.pin(v, 1.0);
        let sol = solve(&sys, &SolveOptions::default());
        assert!(!sol.diverged);
        assert_eq!(sol.restarts, 0);
        assert_eq!(sol.final_lr, SolveOptions::default().adam.lr);
        assert!(sol.trace.is_empty(), "stride 0 records no trace");
    }

    /// A solvable system traced at stride 7: epochs strictly increase,
    /// start at 0, and end at the last epoch actually run.
    #[test]
    fn trace_sampling_covers_first_and_final_epoch() {
        let mut sys = ConstraintSystem::new(0.75);
        let s = sys.rep("src()");
        let m = sys.rep("san()");
        let vsrc = sys.var(s, Role::Source);
        let vsan = sys.var(m, Role::Sanitizer);
        sys.pin(vsrc, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: vsrc, coeff: 1.0 }],
            rhs: vec![Term { var: vsan, coeff: 1.0 }],
            ..Default::default()
        });
        let opts = SolveOptions { trace_stride: 7, ..Default::default() };
        let sol = solve(&sys, &opts);
        assert!(!sol.trace.is_empty());
        assert_eq!(sol.trace[0].epoch, 0);
        assert!(sol.trace.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert_eq!(sol.trace.last().unwrap().epoch as usize, sol.iterations - 1);
        for e in &sol.trace {
            assert!(e.objective.is_finite());
            assert!(e.hinge_loss >= 0.0);
            assert!(e.grad_norm.is_finite() && e.grad_norm >= 0.0);
            assert_eq!(e.lr, opts.adam.lr);
        }
        // Interior samples land on stride marks.
        for e in &sol.trace[..sol.trace.len() - 1] {
            assert_eq!(e.epoch % 7, 0, "epoch {}", e.epoch);
        }
        // The objective column matches the untraced history exactly.
        for e in &sol.trace {
            assert_eq!(e.objective, sol.history[e.epoch as usize]);
        }
    }

    /// Runtime divergence (as opposed to an invalid config): ε = 0 and
    /// λ = 0 on a free variable make the first step compute 0/√0 = NaN,
    /// which the guard catches and retries once at a scaled rate.
    #[test]
    fn restart_is_surfaced_with_scaled_lr() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let va = sys.var(a, Role::Source);
        let opts = SolveOptions {
            lambda: 0.0,
            adam: AdamConfig { eps: 0.0, ..Default::default() },
            trace_stride: 1,
            ..Default::default()
        };
        assert!(opts.validate().is_ok(), "ε = 0 is a legal (if sharp) config");
        let sol = solve(&sys, &opts);
        assert!(sol.diverged);
        assert_eq!(sol.restarts, 1, "restart count surfaced");
        assert_eq!(sol.final_lr, opts.adam.lr * RESTART_LR_SCALE);
        assert!(!sol.trace.is_empty(), "diverged runs still trace their epochs");
        assert!(sol.score(va).is_finite(), "sanitization holds after restart");
    }

    #[test]
    fn evaluate_matches_solution_fields() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let v = sys.var(a, Role::Source);
        sys.pin(v, 1.0);
        let sol = solve(&sys, &SolveOptions::default());
        let (viol, obj) = evaluate(&sys, &sol.scores, 0.1);
        assert!((viol - sol.violation).abs() < 1e-12);
        assert!((obj - sol.objective).abs() < 1e-12);
    }

    /// Thread count must not change a single bit of the result.
    #[test]
    fn thread_count_is_bitwise_invisible() {
        let mut sys = ConstraintSystem::new(0.75);
        let s = sys.rep("src()");
        let m = sys.rep("san()");
        let t = sys.rep("snk()");
        let vsrc = sys.var(s, Role::Source);
        let vsan = sys.var(m, Role::Sanitizer);
        let vsnk = sys.var(t, Role::Sink);
        sys.pin(vsrc, 1.0);
        sys.pin(vsnk, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: vsrc, coeff: 1.0 }, Term { var: vsnk, coeff: 1.0 }],
            rhs: vec![Term { var: vsan, coeff: 1.0 }],
            ..Default::default()
        });
        let base = solve(&sys, &SolveOptions { trace_stride: 3, ..Default::default() });
        for threads in [2, 4, 8] {
            let sol = solve(
                &sys,
                &SolveOptions { trace_stride: 3, threads, ..Default::default() },
            );
            let same = base
                .scores
                .iter()
                .zip(&sol.scores)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "threads={threads} changed the scores");
            assert_eq!(base.history, sol.history);
            assert_eq!(base.iterations, sol.iterations);
            assert_eq!(base.stop, sol.stop, "stop reason must be thread-invariant");
            assert_eq!(base.objective.to_bits(), sol.objective.to_bits());
            assert_eq!(base.trace.len(), sol.trace.len());
            for (a, b) in base.trace.iter().zip(&sol.trace) {
                assert_eq!(a.grad_norm.to_bits(), b.grad_norm.to_bits());
            }
        }
    }

    /// A system whose objective settles quickly: the plateau detector
    /// stops well short of `max_iters`, records the reason, and counts
    /// the saved epochs — while `early_stop: None` reproduces the legacy
    /// stall exit.
    #[test]
    fn plateau_detector_stops_early_and_reports() {
        let mut sys = ConstraintSystem::new(0.75);
        let s = sys.rep("src()");
        let m = sys.rep("san()");
        let vsrc = sys.var(s, Role::Source);
        let vsan = sys.var(m, Role::Sanitizer);
        sys.pin(vsrc, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: vsrc, coeff: 1.0 }],
            rhs: vec![Term { var: vsan, coeff: 1.0 }],
            ..Default::default()
        });
        // With defaults, the absolute stall window sees this small
        // system's plateau first — enabling early-stop preserves the
        // legacy stop epoch and scores bit-for-bit.
        let default_run = solve(&sys, &SolveOptions::default());
        let legacy = solve(&sys, &SolveOptions { early_stop: None, ..Default::default() });
        assert_eq!(default_run.stop, StopReason::Stall);
        assert_eq!(legacy.stop, StopReason::Stall);
        assert_eq!(default_run.iterations, legacy.iterations);
        assert!(default_run.iterations < SolveOptions::default().max_iters);
        for (a, b) in default_run.scores.iter().zip(&legacy.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            default_run.epochs_saved,
            SolveOptions::default().max_iters - default_run.iterations
        );
        assert_eq!(legacy.epochs_saved, SolveOptions::default().max_iters - legacy.iterations);

        // A coarse relative tolerance makes the plateau detector the
        // first exit: per-epoch gains stop counting as progress long
        // before they drop below the absolute stall tolerance.
        let coarse = SolveOptions {
            early_stop: Some(EarlyStop { patience: 2, rel_tol: 0.5, min_iters: 0 }),
            ..Default::default()
        };
        let early = solve(&sys, &coarse);
        assert_eq!(early.stop, StopReason::Plateau, "iterations = {}", early.iterations);
        assert!(early.iterations < default_run.iterations);
        assert_eq!(early.epochs_saved, coarse.max_iters - early.iterations);
    }

    /// `min_iters` gates every convergence exit — stall window included —
    /// however flat the objective is from epoch 0.
    #[test]
    fn min_iters_is_respected() {
        // An empty system is maximally flat: objective 0 every epoch. The
        // stall window is ready from epoch 51 but the floor defers the
        // exit to exactly `min_iters`.
        let sys = ConstraintSystem::new(0.75);
        let opts = SolveOptions {
            early_stop: Some(EarlyStop { patience: 1, rel_tol: 1e-3, min_iters: 73 }),
            ..Default::default()
        };
        let sol = solve(&sys, &opts);
        assert_eq!(sol.stop, StopReason::Stall);
        assert!(sol.iterations >= 73, "stopped at {} < min_iters", sol.iterations);
        assert_eq!(sol.iterations, 73);

        // Without a floor, patience 1 lets the plateau detector fire at
        // the first strike boundary: epoch 10, so 11 iterations.
        let opts = SolveOptions {
            early_stop: Some(EarlyStop { patience: 1, rel_tol: 1e-3, min_iters: 0 }),
            ..Default::default()
        };
        let sol = solve(&sys, &opts);
        assert_eq!(sol.stop, StopReason::Plateau);
        assert_eq!(sol.iterations, 11);
    }

    /// Invalid early-stop configurations short-circuit like any other bad
    /// hyperparameter.
    #[test]
    fn invalid_early_stop_short_circuits() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let va = sys.var(a, Role::Source);
        sys.pin(va, 1.0);
        for es in [
            EarlyStop { patience: 0, ..Default::default() },
            EarlyStop { rel_tol: f64::NAN, ..Default::default() },
            EarlyStop { rel_tol: -1.0, ..Default::default() },
        ] {
            let opts = SolveOptions { early_stop: Some(es), ..Default::default() };
            assert!(opts.validate().is_err());
            let sol = solve(&sys, &opts);
            assert!(sol.diverged);
            assert_eq!(sol.stop, StopReason::InvalidOptions);
            assert_eq!(sol.iterations, 0);
            assert_eq!(sol.epochs_saved, 0);
        }
    }

    /// The stride-aligned check means tracing on or off never moves the
    /// stop epoch — `trace_stride` stays a pure observability knob.
    #[test]
    fn trace_stride_does_not_move_the_stop_epoch() {
        let mut sys = ConstraintSystem::new(0.75);
        let s = sys.rep("src()");
        let m = sys.rep("san()");
        let vsrc = sys.var(s, Role::Source);
        let vsan = sys.var(m, Role::Sanitizer);
        sys.pin(vsrc, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: vsrc, coeff: 1.0 }],
            rhs: vec![Term { var: vsan, coeff: 1.0 }],
            ..Default::default()
        });
        let untraced = solve(&sys, &SolveOptions::default());
        for stride in [1, 3, 7, 10] {
            let traced = solve(&sys, &SolveOptions { trace_stride: stride, ..Default::default() });
            assert_eq!(untraced.iterations, traced.iterations, "stride {stride}");
            assert_eq!(untraced.stop, traced.stop);
            for (a, b) in untraced.scores.iter().zip(&traced.scores) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Warm-starting from a converged iterate: pins survive, scores stay
    /// sanitized, and the warm trajectory is bitwise thread-invariant —
    /// the init only moves where the trajectory begins.
    #[test]
    fn warm_start_is_thread_invariant_and_respects_pins() {
        let mut sys = ConstraintSystem::new(0.75);
        let s = sys.rep("src()");
        let m = sys.rep("san()");
        let t = sys.rep("snk()");
        let vsrc = sys.var(s, Role::Source);
        let vsan = sys.var(m, Role::Sanitizer);
        let vsnk = sys.var(t, Role::Sink);
        sys.pin(vsrc, 1.0);
        sys.pin(vsnk, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: vsrc, coeff: 1.0 }, Term { var: vsnk, coeff: 1.0 }],
            rhs: vec![Term { var: vsan, coeff: 1.0 }],
            ..Default::default()
        });
        let cs = CompiledSystem::compile(&sys);
        let cold = solve_compiled(&cs, &SolveOptions::default());
        // Perturb the converged scores slightly — the shape of a stale
        // checkpoint after a small corpus delta.
        let init: Vec<f64> = cold.scores.iter().map(|s| (s - 0.05).clamp(0.0, 1.0)).collect();
        let base = solve_compiled_warm(&cs, &SolveOptions::default(), &init);
        assert!(!base.diverged);
        assert_eq!(base.score(vsrc), 1.0, "pins reassert over the warm init");
        assert_eq!(base.score(vsnk), 1.0);
        assert!(base.score(vsan) > 0.9, "san = {}", base.score(vsan));
        assert!(base.scores.iter().all(|s| (0.0..=1.0).contains(s)));
        for threads in [2, 4] {
            let warm = solve_compiled_warm(
                &cs,
                &SolveOptions { threads, ..Default::default() },
                &init,
            );
            assert_eq!(base.iterations, warm.iterations, "threads={threads}");
            assert_eq!(base.stop, warm.stop);
            for (a, b) in base.scores.iter().zip(&warm.scores) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
        // Warm inits are sanitized: NaN entries become 0, out-of-range
        // entries are clamped, and the run stays healthy.
        let dirty = vec![f64::NAN, 7.0, -3.0];
        let sol = solve_compiled_warm(&cs, &SolveOptions::default(), &dirty);
        assert!(!sol.diverged);
        assert!(sol.scores.iter().all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
    }

    /// An init vector of the wrong length is ignored: the run is exactly
    /// the cold solve, bit for bit.
    #[test]
    fn warm_start_wrong_length_falls_back_to_cold() {
        let mut sys = ConstraintSystem::new(0.75);
        let s = sys.rep("src()");
        let m = sys.rep("san()");
        let vsrc = sys.var(s, Role::Source);
        let vsan = sys.var(m, Role::Sanitizer);
        sys.pin(vsrc, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: vsrc, coeff: 1.0 }],
            rhs: vec![Term { var: vsan, coeff: 1.0 }],
            ..Default::default()
        });
        let cs = CompiledSystem::compile(&sys);
        let cold = solve_compiled(&cs, &SolveOptions::default());
        let warm = solve_compiled_warm(&cs, &SolveOptions::default(), &[0.9]);
        assert_eq!(cold.iterations, warm.iterations);
        for (a, b) in cold.scores.iter().zip(&warm.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn stop_reason_round_trips_through_strings_and_codes() {
        let all = [
            StopReason::MaxIters,
            StopReason::Stall,
            StopReason::Plateau,
            StopReason::Diverged,
            StopReason::InvalidOptions,
        ];
        for (i, r) in all.iter().enumerate() {
            assert_eq!(StopReason::parse(r.as_str()), Some(*r));
            assert_eq!(r.code() as usize, i);
            assert_eq!(r.to_string(), r.as_str());
        }
        assert_eq!(StopReason::parse("warp_drive"), None);
    }
}
