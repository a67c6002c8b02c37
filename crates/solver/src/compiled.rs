//! Compile-then-iterate solver kernel (the CSR lowering of §4.4).
//!
//! [`CompiledSystem::compile`] lowers a [`ConstraintSystem`]'s rows into
//! a flat CSR layout: one contiguous terms array (struct-of-arrays:
//! variable, signed coefficient, lane slot) in pass-1 order (see below),
//! with a start index per row. The system already stores each constraint
//! as one signed row (lhs `+coeff`, rhs `−coeff`, duplicate variables
//! merged) and each distinct row once with an integer weight, in
//! first-occurrence order (see
//! [`seldon_constraints::Row`]). So the per-row gap `Σ lhs − Σ rhs − C` is
//! a single signed dot product. A row's gap test is unweighted; its
//! violation and gradient contributions are scaled by the weight, which
//! is exactly the sum the duplicates would have produced up to one final
//! rounding. Compiling adds only the locality order, the lanes, the
//! length groups and the variable-major transpose.
//!
//! ## Two-pass gap kernel
//!
//! Each epoch runs two passes over every lane. *Pass 1* computes every
//! row's gap into the lane's gap buffer, visiting the rows grouped by
//! term count: rows of 1 to [`GROUPED_LEN`] terms each get a loop whose
//! trip counts are compile-time constants, and longer rows share one
//! generic loop. Rows arrive in locality order, their term counts in no
//! pattern, so a single walk mispredicts the dot product's loop exits on
//! almost every row; grouped, the trip counts change once per group.
//! *Pass 2* walks the lane's rows in solve order and, for each row whose
//! gap is positive, adds `w · gap` to the lane's violation and `w · coeff`
//! per term to the lane's gradient buffer.
//!
//! The term arrays are laid out for pass 1: each lane's terms occupy the
//! range they would in solve order, but row after row in pass-1 order, so
//! a length group's terms are one contiguous block that pass 1 reads
//! front to back, `L` terms at a time for a group of `L`-term rows. Each
//! row keeps its terms in ascending variable order, and one start index
//! per row (`term_start`) lets pass 2, [`rows`] and the generic group
//! reach a row's terms from its solve-order index; a row's term count
//! comes from the solve-order prefix sums (`offsets`).
//!
//! [`rows`]: CompiledSystem::rows
//!
//! Row order is free inside pass 1: each gap is one row's own dot product
//! ([`chunked_dot`], the same function at every length), written to the
//! row's own slot, so no sum crosses rows. It is not free inside pass 2:
//! the violation and every gradient slot are sums across rows, and
//! floating-point addition is not associative, so pass 2 keeps the solve
//! order and adds exactly the products the single-pass walk added. The
//! term layout changes only where a row's terms are stored, never their
//! order within the row, so no sum changes.
//!
//! ## Deterministic parallel reduction
//!
//! Floating-point addition is not associative, so a parallel gradient
//! accumulation naively partitioned by thread count would change the
//! summation order — and therefore the scores — with `threads`. Instead,
//! rows are partitioned into *lanes*: contiguous ranges whose count and
//! boundaries depend only on the row count, never on the thread count.
//! Each lane owns its gap buffer and accumulates hinge-gradient
//! contributions into its own compact slot buffer (one slot per distinct
//! variable the lane touches), and a variable-major transpose
//! (`var_offsets` / `var_entries`) reduces the per-lane partials in a
//! fixed order. Threads only decide *which worker* runs a lane's two
//! passes; the arithmetic — the order every term is added in — is
//! identical for 1 and N threads, so scores are byte-identical across
//! thread counts.
//!
//! ## Vector-friendly inner loops
//!
//! The hot reductions — the per-row gap dot product, the per-variable
//! gradient fold, and the L1 score sum — run as fixed-width chunks of
//! [`ACC_WIDTH`] independent f64 accumulators with a scalar tail, combined
//! pairwise in one fixed order. Independent accumulators break the serial
//! addition dependency chain so the autovectorizer can lift the loop body
//! into SIMD lanes (and scalar hardware overlaps the FMAs); because the
//! chunk layout is a pure function of the data length — never of the
//! thread count — the summation order stays deterministic and results
//! bitwise thread-invariant.
//!
//! ## Row reordering for locality
//!
//! Rows *within each lane* are reordered by their
//! dominant (lowest-index) variable, so consecutive rows touch
//! neighbouring score/slot entries and the gap pass walks `x` and the
//! lane buffer roughly in order instead of hopping across them. Lane
//! boundaries are fixed before the sort, so no row changes lanes, and the
//! permutation ([`CompiledSystem::row_permutation`]) is recorded so the
//! compile stays auditable — nothing downstream observes row order:
//! scores are indexed by variable, and extraction reads only scores.
//! Solve order is this sorted order; the pass-1 term layout is a second,
//! storage-only permutation inside each lane that no accessor exposes:
//! [`CompiledSystem::rows`] yields the rows in solve order.

use seldon_constraints::{ConstraintSystem, Row};

/// Target number of rows per lane.
const LANE_TARGET: usize = 1024;
/// Upper bound on lanes (and thus on useful gap-pass workers).
const MAX_LANES: usize = 64;
/// Target number of variables per update chunk (the fixed partition the
/// gradient-norm reduction and the Adam update phase are chunked by).
const VAR_CHUNK_TARGET: usize = 4096;
/// Width of the chunked reductions: independent f64 accumulators per
/// chunk, combined pairwise in a fixed order. 4 keeps the combine tree
/// exact to spell out while filling a 256-bit SIMD register.
const ACC_WIDTH: usize = 4;
/// Longest row with its own pass-1 length group; longer rows share one.
const GROUPED_LEN: usize = 16;
/// Pass-1 length groups per lane: one per length up to [`GROUPED_LEN`],
/// then the group of longer rows.
const GROUPS: usize = GROUPED_LEN + 1;

/// Sums `xs` with [`ACC_WIDTH`] independent accumulators and a scalar
/// tail — the chunked, autovectorizer-friendly reduction every L1 sum in
/// the solver shares. The summation order depends only on `xs.len()`.
pub(crate) fn chunked_sum(xs: &[f64]) -> f64 {
    let chunks = xs.len() / ACC_WIDTH;
    let mut acc = [0.0f64; ACC_WIDTH];
    for chunk in xs[..chunks * ACC_WIDTH].chunks_exact(ACC_WIDTH) {
        for (a, &v) in acc.iter_mut().zip(chunk) {
            *a += v;
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for &v in &xs[chunks * ACC_WIDTH..] {
        sum += v;
    }
    sum
}

/// The signed gap dot product of one row: `Σ coeffs[t] · x[vars[t]]`,
/// chunked like [`chunked_sum`]. `coeffs` and `vars` must be parallel.
#[inline]
fn chunked_dot(coeffs: &[f64], vars: &[u32], x: &[f64]) -> f64 {
    let chunks = coeffs.len() / ACC_WIDTH;
    let mut acc = [0.0f64; ACC_WIDTH];
    for (cc, vc) in coeffs[..chunks * ACC_WIDTH]
        .chunks_exact(ACC_WIDTH)
        .zip(vars[..chunks * ACC_WIDTH].chunks_exact(ACC_WIDTH))
    {
        for ((a, &coeff), &var) in acc.iter_mut().zip(cc).zip(vc) {
            *a += coeff * x[var as usize];
        }
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&coeff, &var) in coeffs[chunks * ACC_WIDTH..].iter().zip(&vars[chunks * ACC_WIDTH..]) {
        sum += coeff * x[var as usize];
    }
    sum
}

/// The pass-1 length group of a row of `len` terms.
fn length_group(len: usize) -> usize {
    if (1..=GROUPED_LEN).contains(&len) {
        len - 1
    } else {
        GROUPED_LEN
    }
}

/// One contiguous row range with a private gradient buffer shape.
#[derive(Debug, Clone)]
struct Lane {
    /// First row index (inclusive).
    start: u32,
    /// Last row index (exclusive).
    end: u32,
    /// Number of distinct variables the lane touches — its buffer size.
    slots: u32,
    /// Pass-1 length groups: group `g` is
    /// `gap_order[groups[g]..groups[g + 1]]`, the lane's rows of `g + 1`
    /// terms (the last group: every longer row), in solve order.
    groups: [u32; GROUPS + 1],
}

impl Lane {
    fn rows(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One lane's scratch for the epoch gap pass: the gap of each of its
/// rows in solve order (pass 1) and its hinge-gradient partials, one
/// slot per distinct variable the lane touches (pass 2).
#[derive(Debug, Clone, PartialEq)]
pub struct LaneBuffer {
    gaps: Vec<f64>,
    grad: Vec<f64>,
}

/// A constraint system lowered to a flat CSR layout with a fixed lane
/// partition for deterministic parallel accumulation.
#[derive(Debug, Clone)]
pub struct CompiledSystem {
    n_vars: usize,
    /// Original constraint count, before identical rows were combined.
    n_constraints: usize,
    c: f64,
    /// Pinned `(var, value)` pairs, sorted by variable index.
    pins: Vec<(u32, f64)>,
    /// Prefix sums of the rows' term counts in solve order; length `rows +
    /// 1`. Row `ri` has `offsets[ri + 1] − offsets[ri]` terms, and lane
    /// `l`'s terms fill `offsets[l.start]..offsets[l.end]` of the term
    /// arrays, in pass-1 order.
    offsets: Vec<u32>,
    /// Where row `ri`'s terms start in the term arrays.
    term_start: Vec<u32>,
    /// Row multiplicities: how many original constraints each distinct
    /// row stands for (always an exact small integer).
    weights: Vec<f64>,
    /// Term variable indices, row-major in pass-1 order, ascending within
    /// a row.
    term_vars: Vec<u32>,
    /// Signed term coefficients (`+` for lhs, `−` for rhs, duplicates
    /// combined), parallel to `term_vars` — the gap dot product, and,
    /// times the row weight, the gradient accumulate.
    term_coeffs: Vec<f64>,
    /// Lane-local gradient-buffer slot per term, parallel to `term_vars`.
    term_slots: Vec<u32>,
    /// Row indices in pass-1 order: each lane's rows, stably grouped by
    /// term count (see [`Lane::groups`]).
    gap_order: Vec<u32>,
    /// Row permutation of the locality sort: `row_perm[new] = old`, where
    /// `old` is the row's index in first-occurrence (dedup) order. A
    /// within-lane permutation — no row crosses a lane boundary.
    row_perm: Vec<u32>,
    lanes: Vec<Lane>,
    /// Variable-major transpose offsets; length `n_vars + 1`.
    var_offsets: Vec<u32>,
    /// `(lane, slot)` pairs per variable, ascending lane order — the
    /// deterministic reduction order of the per-lane gradient partials.
    var_entries: Vec<(u32, u32)>,
    /// Fixed variable-chunk width for the update phase (≥ 1).
    var_chunk: usize,
}

impl CompiledSystem {
    /// Lowers `sys`'s weighted rows into the flat CSR + lane layout.
    pub fn compile(sys: &ConstraintSystem) -> CompiledSystem {
        let n = sys.var_count();
        let stored: Vec<Row> = sys.rows().collect();
        let rows = stored.len();

        // One pass per lane. Locality reordering: lane boundaries are fixed
        // *before* the sort (a pure function of the row count), then rows
        // within each lane are stably sorted by their dominant — lowest-
        // index, i.e. first, since terms are var-ascending — variable.
        // Consecutive rows then touch neighbouring `x` entries and the gap
        // pass walks the score vector roughly in order. Stored rows are
        // never empty. Slot assignment: the first appearance of a variable
        // in a lane, in solve order, claims the lane's next slot; `touch`
        // records every (var, lane, slot) in ascending lane order. A
        // stable counting sort by term count then lays out the lane's
        // pass-1 groups, and the lane's terms are written in that order.
        let lane_count = rows.div_ceil(LANE_TARGET).clamp(1, MAX_LANES);
        let per_lane = rows.div_ceil(lane_count).max(1);
        let mut row_perm: Vec<u32> = (0..rows as u32).collect();
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0u32);
        let mut weights = Vec::with_capacity(rows);
        let (mut term_vars, mut term_coeffs, mut term_slots) = (Vec::new(), Vec::new(), Vec::new());
        let mut gap_order = vec![0u32; rows];
        let mut term_start = vec![0u32; rows];
        let mut lanes = Vec::with_capacity(lane_count);
        let mut seen_lane: Vec<u32> = vec![u32::MAX; n];
        let mut slot_of: Vec<u32> = vec![0; n];
        let mut touch: Vec<(u32, u32, u32)> = Vec::new();
        for l in 0..lane_count {
            let (start, end) = ((l * per_lane).min(rows), ((l + 1) * per_lane).min(rows));
            let lane_rows = &mut row_perm[start..end];
            lane_rows.sort_by_key(|&ri| stored[ri as usize].terms[0].0);
            let mut slots = 0u32;
            let mut counts = [0u32; GROUPS];
            for &old in lane_rows.iter() {
                let row = stored[old as usize];
                weights.push(f64::from(row.weight));
                for &(var, _) in row.terms {
                    let vi = var as usize;
                    if seen_lane[vi] != l as u32 {
                        seen_lane[vi] = l as u32;
                        slot_of[vi] = slots;
                        touch.push((var, l as u32, slots));
                        slots += 1;
                    }
                }
                offsets.push(offsets[offsets.len() - 1] + row.terms.len() as u32);
                counts[length_group(row.terms.len())] += 1;
            }
            let mut groups = [start as u32; GROUPS + 1];
            for g in 0..GROUPS {
                groups[g + 1] = groups[g] + counts[g];
            }
            let mut cursor = groups;
            for ri in start..end {
                let g = length_group((offsets[ri + 1] - offsets[ri]) as usize);
                gap_order[cursor[g] as usize] = ri as u32;
                cursor[g] += 1;
            }
            for &ri in &gap_order[start..end] {
                term_start[ri as usize] = term_vars.len() as u32;
                for &(var, coeff) in stored[row_perm[ri as usize] as usize].terms {
                    term_vars.push(var);
                    term_coeffs.push(coeff);
                    term_slots.push(slot_of[var as usize]);
                }
            }
            lanes.push(Lane { start: start as u32, end: end as u32, slots, groups });
        }

        // Variable-major transpose via a stable counting sort: `touch` is
        // lane-ascending, so each variable's entries stay lane-ascending.
        let mut var_offsets = vec![0u32; n + 1];
        for &(v, _, _) in &touch {
            var_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            var_offsets[i + 1] += var_offsets[i];
        }
        let mut cursor: Vec<u32> = var_offsets[..n].to_vec();
        let mut var_entries = vec![(0u32, 0u32); touch.len()];
        for &(v, l, s) in &touch {
            var_entries[cursor[v as usize] as usize] = (l, s);
            cursor[v as usize] += 1;
        }

        let var_chunks = n.div_ceil(VAR_CHUNK_TARGET).clamp(1, MAX_LANES);
        let var_chunk = n.div_ceil(var_chunks).max(1);

        CompiledSystem {
            n_vars: n,
            n_constraints: sys.constraint_count(),
            c: sys.c,
            pins: sys.pinned_sorted(),
            offsets,
            term_start,
            weights,
            term_vars,
            term_coeffs,
            term_slots,
            gap_order,
            row_perm,
            lanes,
            var_offsets,
            var_entries,
            var_chunk,
        }
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.n_vars
    }

    /// Number of original constraints (before identical rows combined).
    pub fn constraint_count(&self) -> usize {
        self.n_constraints
    }

    /// Number of distinct weighted rows the hot loop actually iterates.
    pub fn row_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (combined) terms across all distinct rows.
    pub fn term_count(&self) -> usize {
        self.term_vars.len()
    }

    /// The stored rows in solve order: `(weight, term variables, signed
    /// coefficients)` per row.
    pub fn rows(&self) -> impl Iterator<Item = (f64, &[u32], &[f64])> + '_ {
        (0..self.row_count()).map(move |ri| {
            let terms = self.terms(ri);
            (self.weights[ri], &self.term_vars[terms.clone()], &self.term_coeffs[terms])
        })
    }

    /// Where row `ri`'s terms sit in the term arrays.
    #[inline]
    fn terms(&self, ri: usize) -> std::ops::Range<usize> {
        let t0 = self.term_start[ri] as usize;
        t0..t0 + (self.offsets[ri + 1] - self.offsets[ri]) as usize
    }

    /// Number of lanes in the fixed row partition.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The locality-sort row permutation: `row_permutation()[new] = old`,
    /// mapping each stored row back to its index in first-occurrence
    /// (dedup) order. Always a within-lane permutation.
    pub fn row_permutation(&self) -> &[u32] {
        &self.row_perm
    }

    /// The implication-strength constant `C`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Pinned `(var index, value)` pairs, sorted by variable index.
    pub fn pins(&self) -> &[(u32, f64)] {
        &self.pins
    }

    /// Fixed variable-chunk width of the update partition (≥ 1); depends
    /// only on the variable count, never on the thread count.
    pub fn var_chunk(&self) -> usize {
        self.var_chunk
    }

    /// Number of chunks in the fixed update partition.
    pub fn var_chunk_count(&self) -> usize {
        self.n_vars.div_ceil(self.var_chunk)
    }

    /// Restores pinned variables to their pinned values.
    pub fn apply_pins(&self, x: &mut [f64]) {
        for &(i, val) in &self.pins {
            x[i as usize] = val;
        }
    }

    /// Allocates one zeroed gap-pass buffer per lane, sized to the lane's
    /// row count and distinct-variable count.
    pub fn new_lane_buffers(&self) -> Vec<LaneBuffer> {
        self.lanes
            .iter()
            .map(|l| LaneBuffer {
                gaps: vec![0.0; l.rows().len()],
                grad: vec![0.0; l.slots as usize],
            })
            .collect()
    }

    /// The gap of row `ri` at `x`: its signed dot product minus `C`.
    fn row_gap(&self, ri: usize, x: &[f64]) -> f64 {
        let terms = self.terms(ri);
        chunked_dot(&self.term_coeffs[terms.clone()], &self.term_vars[terms], x) - self.c
    }

    /// Pass 1 over the `rows` of one length group, all `L` terms long, whose
    /// terms are the block starting at term `t0`: writes each row's gap to
    /// `gaps[row − base]`.
    #[inline(always)]
    fn group_gaps<const L: usize>(
        &self,
        rows: &[u32],
        t0: usize,
        base: usize,
        x: &[f64],
        gaps: &mut [f64],
    ) {
        let block = t0..t0 + rows.len() * L;
        let (coeffs, _) = self.term_coeffs[block.clone()].as_chunks::<L>();
        let (vars, _) = self.term_vars[block].as_chunks::<L>();
        for ((&ri, coeffs), vars) in rows.iter().zip(coeffs).zip(vars) {
            gaps[ri as usize - base] = chunked_dot(coeffs, vars, x) - self.c;
        }
    }

    /// Pass 1 over one lane: writes the gap of every row of the lane to
    /// `gaps` (indexed from the lane's first row), one length group at a
    /// time, reading the lane's terms front to back.
    fn lane_gaps(&self, lane: &Lane, x: &[f64], gaps: &mut [f64]) {
        let base = lane.start as usize;
        for (g, bounds) in lane.groups.windows(2).enumerate() {
            let rows = &self.gap_order[bounds[0] as usize..bounds[1] as usize];
            // The group's block starts with its first row's terms.
            let t0 = rows.first().map_or(0, |&ri| self.term_start[ri as usize] as usize);
            match g + 1 {
                1 => self.group_gaps::<1>(rows, t0, base, x, gaps),
                2 => self.group_gaps::<2>(rows, t0, base, x, gaps),
                3 => self.group_gaps::<3>(rows, t0, base, x, gaps),
                4 => self.group_gaps::<4>(rows, t0, base, x, gaps),
                5 => self.group_gaps::<5>(rows, t0, base, x, gaps),
                6 => self.group_gaps::<6>(rows, t0, base, x, gaps),
                7 => self.group_gaps::<7>(rows, t0, base, x, gaps),
                8 => self.group_gaps::<8>(rows, t0, base, x, gaps),
                9 => self.group_gaps::<9>(rows, t0, base, x, gaps),
                10 => self.group_gaps::<10>(rows, t0, base, x, gaps),
                11 => self.group_gaps::<11>(rows, t0, base, x, gaps),
                12 => self.group_gaps::<12>(rows, t0, base, x, gaps),
                13 => self.group_gaps::<13>(rows, t0, base, x, gaps),
                14 => self.group_gaps::<14>(rows, t0, base, x, gaps),
                15 => self.group_gaps::<15>(rows, t0, base, x, gaps),
                16 => self.group_gaps::<16>(rows, t0, base, x, gaps),
                _ => {
                    for &ri in rows {
                        gaps[ri as usize - base] = self.row_gap(ri as usize, x);
                    }
                }
            }
        }
    }

    /// Pass 2 over one lane: walks its rows in solve order and, for each
    /// row with a positive gap, adds `w · gap` to the violation and
    /// `w · coeff` per term to the gradient buffer (zeroed first).
    /// Returns the lane's `(violation, violated count)`; the violated
    /// count is in original constraints (the row's multiplicity).
    fn lane_scatter(&self, lane: &Lane, buf: &mut LaneBuffer) -> (f64, usize) {
        let LaneBuffer { gaps, grad } = buf;
        grad.fill(0.0);
        let mut violation = 0.0;
        let mut violated = 0usize;
        for (ri, &gap) in lane.rows().zip(gaps.iter()) {
            if gap > 0.0 {
                let w = self.weights[ri];
                violation += w * gap;
                violated += w as usize;
                let terms = self.terms(ri);
                let terms = self.term_coeffs[terms.clone()].iter().zip(&self.term_slots[terms]);
                for (&coeff, &slot) in terms {
                    grad[slot as usize] += w * coeff;
                }
            }
        }
        (violation, violated)
    }

    /// Runs both passes over every lane, parallelized across up to
    /// `threads` scoped workers. Each worker owns a contiguous block of
    /// lanes (disjoint `&mut` buffer slices — no locks), and because the
    /// lane partition is a function of the row count alone, the per-lane
    /// results in `stats`/`bufs` are identical for any `threads`.
    pub fn gap_pass(
        &self,
        x: &[f64],
        threads: usize,
        bufs: &mut [LaneBuffer],
        stats: &mut [(f64, usize)],
    ) {
        let lanes = self.lanes.len();
        debug_assert_eq!(bufs.len(), lanes);
        debug_assert_eq!(stats.len(), lanes);
        let lane_pass = |lane: &Lane, buf: &mut LaneBuffer| {
            self.lane_gaps(lane, x, &mut buf.gaps);
            self.lane_scatter(lane, buf)
        };
        let workers = threads.max(1).min(lanes);
        if workers <= 1 {
            for ((lane, buf), stat) in self.lanes.iter().zip(bufs).zip(stats) {
                *stat = lane_pass(lane, buf);
            }
            return;
        }
        let per = lanes.div_ceil(workers);
        std::thread::scope(|s| {
            for ((lanes, bufs), stats) in
                self.lanes.chunks(per).zip(bufs.chunks_mut(per)).zip(stats.chunks_mut(per))
            {
                s.spawn(move || {
                    for ((lane, buf), stat) in lanes.iter().zip(bufs).zip(stats) {
                        *stat = lane_pass(lane, buf);
                    }
                });
            }
        });
    }

    /// The full objective gradient component for variable `i`: λ plus the
    /// per-lane hinge partials from `bufs`, reduced in the fixed chunked
    /// order of [`chunked_sum`] over the lane-ascending entry list — a
    /// pure function of the entry count, never of the thread count.
    #[inline]
    pub fn grad_var(&self, i: usize, lambda: f64, bufs: &[LaneBuffer]) -> f64 {
        let e0 = self.var_offsets[i] as usize;
        let e1 = self.var_offsets[i + 1] as usize;
        let entries = &self.var_entries[e0..e1];
        let chunks = entries.len() / ACC_WIDTH;
        let mut acc = [0.0f64; ACC_WIDTH];
        for chunk in entries[..chunks * ACC_WIDTH].chunks_exact(ACC_WIDTH) {
            for (a, &(lane, slot)) in acc.iter_mut().zip(chunk) {
                *a += bufs[lane as usize].grad[slot as usize];
            }
        }
        let mut g = lambda + ((acc[0] + acc[1]) + (acc[2] + acc[3]));
        for &(lane, slot) in &entries[chunks * ACC_WIDTH..] {
            g += bufs[lane as usize].grad[slot as usize];
        }
        g
    }

    /// Computes `(violation, objective)` of `x`: pass 1 per lane, then the
    /// weighted positive gaps summed in solve order — the single
    /// evaluation path both [`crate::solve`] and [`crate::evaluate`] share.
    pub fn objective(&self, x: &[f64], lambda: f64) -> (f64, f64) {
        let mut gaps = Vec::new();
        let mut violation = 0.0;
        for lane in &self.lanes {
            gaps.resize(lane.rows().len(), 0.0);
            self.lane_gaps(lane, x, &mut gaps);
            for (&gap, &w) in gaps.iter().zip(&self.weights[lane.rows()]) {
                if gap > 0.0 {
                    violation += w * gap;
                }
            }
        }
        let l1 = chunked_sum(x);
        (violation, violation + lambda * l1)
    }

    /// Computes the full gradient plus `(violation, violated)` through the
    /// lane machinery — the reference entry point parity tests compare
    /// against the naive per-constraint walk.
    pub fn gradient(&self, x: &[f64], lambda: f64) -> (Vec<f64>, f64, usize) {
        let mut bufs = self.new_lane_buffers();
        let mut stats = vec![(0.0, 0usize); self.lane_count()];
        self.gap_pass(x, 1, &mut bufs, &mut stats);
        let violation = stats.iter().map(|s| s.0).sum();
        let violated = stats.iter().map(|s| s.1).sum();
        let grad =
            (0..self.n_vars).map(|i| self.grad_var(i, lambda, &bufs)).collect();
        (grad, violation, violated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seldon_constraints::{ConstraintSystem, FlowConstraint, Term, VarId};
    use seldon_specs::Role;

    fn two_sided_system() -> (ConstraintSystem, VarId, VarId, VarId) {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let b = sys.rep("b()");
        let c = sys.rep("c()");
        let va = sys.var(a, Role::Source);
        let vb = sys.var(b, Role::Sanitizer);
        let vc = sys.var(c, Role::Sink);
        sys.pin(va, 1.0);
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: va, coeff: 1.0 }, Term { var: vc, coeff: 1.0 }],
            rhs: vec![Term { var: vb, coeff: 0.5 }],
            ..Default::default()
        });
        (sys, va, vb, vc)
    }

    #[test]
    fn signed_coefficients_and_offsets() {
        let (sys, va, vb, vc) = two_sided_system();
        let cs = CompiledSystem::compile(&sys);
        assert_eq!(cs.constraint_count(), 1);
        assert_eq!(cs.row_count(), 1);
        assert_eq!(cs.term_count(), 3);
        assert_eq!(cs.offsets, vec![0, 3]);
        // Rows store terms in ascending variable order (the canonical
        // form identical constraints are matched on).
        assert_eq!(cs.term_vars, vec![va.0, vb.0, vc.0]);
        assert_eq!(cs.term_coeffs, vec![1.0, -0.5, 1.0]);
        assert_eq!(cs.weights, vec![1.0]);
        assert_eq!(cs.pins(), &[(va.0, 1.0)]);
    }

    #[test]
    fn duplicate_terms_are_combined() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let va = sys.var(a, Role::Source);
        // a appears twice on the lhs and once on the rhs: 0.5 + 0.25 − 0.1.
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: va, coeff: 0.5 }, Term { var: va, coeff: 0.25 }],
            rhs: vec![Term { var: va, coeff: 0.1 }],
            ..Default::default()
        });
        let cs = CompiledSystem::compile(&sys);
        assert_eq!(cs.term_count(), 1);
        assert!((cs.term_coeffs[0] - 0.65).abs() < 1e-15);
    }

    #[test]
    fn identical_constraints_combine_into_one_weighted_row() {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let b = sys.rep("b()");
        let va = sys.var(a, Role::Source);
        let vb = sys.var(b, Role::Sink);
        // The same constraint three times — and once with the term order
        // flipped, which must still canonicalize to the same row.
        for _ in 0..3 {
            sys.add_constraint(FlowConstraint {
                lhs: vec![Term { var: va, coeff: 1.0 }, Term { var: vb, coeff: 0.5 }],
                rhs: vec![],
                ..Default::default()
            });
        }
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: vb, coeff: 0.5 }, Term { var: va, coeff: 1.0 }],
            rhs: vec![],
            ..Default::default()
        });
        // A genuinely different constraint stays its own row.
        sys.add_constraint(FlowConstraint {
            lhs: vec![Term { var: va, coeff: 1.0 }],
            rhs: vec![],
            ..Default::default()
        });
        let cs = CompiledSystem::compile(&sys);
        assert_eq!(cs.constraint_count(), 5);
        assert_eq!(cs.row_count(), 2);
        assert_eq!(cs.weights, vec![4.0, 1.0]);

        // gap per duplicate row at x = (1, 1): 1.5 − 0.75 = 0.75, counted
        // four times; the singleton adds 1 − 0.75 = 0.25.
        let x = vec![1.0, 1.0];
        let (viol, _) = cs.objective(&x, 0.0);
        assert!((viol - (4.0 * 0.75 + 0.25)).abs() < 1e-12);
        let (grad, gviol, violated) = cs.gradient(&x, 0.0);
        assert!((gviol - viol).abs() < 1e-12);
        assert_eq!(violated, 5, "violated counts original constraints");
        assert!((grad[0] - (4.0 * 1.0 + 1.0)).abs() < 1e-12);
        assert!((grad[1] - 4.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn lane_partition_depends_only_on_constraint_count() {
        let (sys, ..) = two_sided_system();
        let cs = CompiledSystem::compile(&sys);
        assert_eq!(cs.lane_count(), 1, "tiny systems compile to one lane");
        // The parallel gap pass with any thread count must match the
        // sequential one lane-for-lane.
        let x = vec![0.9, 0.1, 0.8];
        let mut bufs1 = cs.new_lane_buffers();
        let mut stats1 = vec![(0.0, 0usize); cs.lane_count()];
        cs.gap_pass(&x, 1, &mut bufs1, &mut stats1);
        let mut bufs8 = cs.new_lane_buffers();
        let mut stats8 = vec![(0.0, 0usize); cs.lane_count()];
        cs.gap_pass(&x, 8, &mut bufs8, &mut stats8);
        assert_eq!(stats1, stats8);
        assert_eq!(bufs1, bufs8);
    }

    #[test]
    fn objective_matches_gradient_violation() {
        let (sys, ..) = two_sided_system();
        let cs = CompiledSystem::compile(&sys);
        let x = vec![1.0, 0.0, 1.0];
        let (viol, obj) = cs.objective(&x, 0.1);
        let (grad, gviol, violated) = cs.gradient(&x, 0.1);
        assert!((viol - gviol).abs() < 1e-15);
        assert_eq!(violated, 1);
        assert!((viol - 1.25).abs() < 1e-12);
        assert!((obj - (1.25 + 0.1 * 2.0)).abs() < 1e-12);
        // Violated constraint contributes +1 to va/vc, −0.5 to vb, on top
        // of λ.
        assert!((grad[0] - 1.1).abs() < 1e-12);
        assert!((grad[1] - (0.1 - 0.5)).abs() < 1e-12);
        assert!((grad[2] - 1.1).abs() < 1e-12);
    }

    #[test]
    fn chunked_sum_matches_naive_sum_exactly_on_integers() {
        // Integer-valued f64s make every addition exact, so the chunked
        // combine tree and the serial fold must agree bit-for-bit — at
        // lengths that exercise full chunks, the tail, and both together.
        for len in [0usize, 1, 3, 4, 5, 8, 11, 17] {
            let xs: Vec<f64> = (0..len).map(|i| (i * 3 + 1) as f64).collect();
            let naive: f64 = xs.iter().sum();
            assert_eq!(chunked_sum(&xs), naive, "len {len}");
        }
    }

    /// Three single-variable constraints added in *descending* variable
    /// order, with distinct multiplicities (c ×2, b ×1, a ×3), so the
    /// locality sort has real work to do.
    fn descending_system() -> ConstraintSystem {
        let mut sys = ConstraintSystem::new(0.75);
        let a = sys.rep("a()");
        let b = sys.rep("b()");
        let c = sys.rep("c()");
        let va = sys.var(a, Role::Source);
        let vb = sys.var(b, Role::Sanitizer);
        let vc = sys.var(c, Role::Sink);
        let single = |v, times: usize, sys: &mut ConstraintSystem| {
            for _ in 0..times {
                sys.add_constraint(FlowConstraint {
                    lhs: vec![Term { var: v, coeff: 1.0 }],
                    rhs: vec![],
                    ..Default::default()
                });
            }
        };
        single(vc, 2, &mut sys);
        single(vb, 1, &mut sys);
        single(va, 3, &mut sys);
        sys
    }

    #[test]
    fn rows_are_reordered_by_dominant_variable_within_a_lane() {
        let sys = descending_system();
        let cs = CompiledSystem::compile(&sys);
        // Dedup (first-occurrence) order was [c, b, a] with weights
        // [2, 1, 3]; the locality sort puts a, b, c in variable order.
        assert_eq!(cs.row_count(), 3);
        assert_eq!(cs.term_vars, vec![0, 1, 2]);
        assert_eq!(cs.weights, vec![3.0, 1.0, 2.0]);
        assert_eq!(cs.row_permutation(), &[2, 1, 0]);
        // Semantics are order-independent: at x = 1 each singleton row
        // violates by 0.25, weighted 3 + 1 + 2 = 6 constraints.
        let x = vec![1.0, 1.0, 1.0];
        let (viol, _) = cs.objective(&x, 0.0);
        assert!((viol - 6.0 * 0.25).abs() < 1e-12);
        let (grad, _, violated) = cs.gradient(&x, 0.0);
        assert_eq!(violated, 6);
        assert_eq!(grad, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn row_permutation_round_trips_first_occurrence_order() {
        let sys = descending_system();
        let cs = CompiledSystem::compile(&sys);
        let perm = cs.row_permutation();
        // A valid permutation of 0..rows …
        let mut sorted: Vec<u32> = perm.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..cs.row_count() as u32).collect::<Vec<_>>());
        // … that recovers dedup order: weights[new] is the weight the row
        // had at first-occurrence index perm[new].
        let dedup_weights = [2.0, 1.0, 3.0];
        for (new, &old) in perm.iter().enumerate() {
            assert_eq!(cs.weights[new], dedup_weights[old as usize]);
        }
    }

    /// The single-pass gap kernel the two passes replaced, kept as their
    /// oracle: one walk over a lane in solve order, each row's dot
    /// product over its own terms (wherever the layout stores them)
    /// followed at once by its hinge scatter of the weight-scaled
    /// coefficients the compile used to precompute (`wcoeffs`, parallel to
    /// the term arrays).
    fn lane_gap_pass(
        cs: &CompiledSystem,
        wcoeffs: &[f64],
        lane: usize,
        x: &[f64],
        buf: &mut [f64],
    ) -> (f64, usize) {
        let l = &cs.lanes[lane];
        buf.fill(0.0);
        let mut violation = 0.0;
        let mut violated = 0usize;
        for ri in l.start as usize..l.end as usize {
            let terms = cs.terms(ri);
            let acc = chunked_dot(&cs.term_coeffs[terms.clone()], &cs.term_vars[terms.clone()], x);
            let gap = acc - cs.c;
            if gap > 0.0 {
                let w = cs.weights[ri];
                violation += w * gap;
                violated += w as usize;
                for (&wcoeff, &slot) in wcoeffs[terms.clone()].iter().zip(&cs.term_slots[terms]) {
                    buf[slot as usize] += wcoeff;
                }
            }
        }
        (violation, violated)
    }

    /// The oracle's objective: one ordered walk over every row.
    fn oracle_objective(cs: &CompiledSystem, x: &[f64], lambda: f64) -> (f64, f64) {
        let mut violation = 0.0;
        for ri in 0..cs.row_count() {
            let terms = cs.terms(ri);
            let acc = chunked_dot(&cs.term_coeffs[terms.clone()], &cs.term_vars[terms], x);
            let gap = acc - cs.c;
            if gap > 0.0 {
                violation += cs.weights[ri] * gap;
            }
        }
        let l1 = chunked_sum(x);
        (violation, violation + lambda * l1)
    }

    /// How [`random_kernel_case`] draws row lengths.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum RowShape {
        /// 1–40 terms, so every length group runs, the generic one
        /// included.
        Mixed,
        /// One length for every row, drawn from 1–40: every other length
        /// group of every lane is empty.
        Uniform,
        /// Only rows longer than [`GROUPED_LEN`] (17–40 terms): the
        /// generic group runs and every grouped length is empty.
        Long,
    }

    /// Expands `seed` into a kernel-oracle case: 40–71 variables with up
    /// to eight pins; 1–64, 1,025–2,124 or 3,073–4,472 rows (one to five
    /// lanes) of 1–40 distinct variables each, their lengths drawn as
    /// `shape` says; palette coefficients on either side; weights 1–9 (a
    /// constraint added that many times in a row); `C` exactly 0.75 half
    /// the time; and a point whose scores are exact 0 or exact 1 a third
    /// of the time each.
    fn random_kernel_case(seed: u64, shape: RowShape) -> (ConstraintSystem, Vec<f64>) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        const COEFFS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 1.0];
        let c = if next() % 2 == 0 { 0.75 } else { COEFFS[(next() % 5) as usize] * 0.9 + 0.05 };
        let mut sys = ConstraintSystem::new(c);
        let n = 40 + (next() % 32) as usize;
        let vars: Vec<VarId> = (0..n)
            .map(|i| {
                let rep = sys.rep(&format!("k{i}()"));
                sys.var(rep, Role::Sink)
            })
            .collect();
        for _ in 0..next() % 9 {
            let v = vars[(next() % n as u64) as usize];
            sys.pin(v, (next() % 2) as f64);
        }
        let rows = match next() % 3 {
            0 => 1 + next() % 64,
            1 => 1025 + next() % 1100,
            _ => 3073 + next() % 1400,
        };
        let mut pool = vars.clone();
        let uniform = 1 + (next() % 40) as usize;
        for _ in 0..rows {
            let len = match shape {
                RowShape::Mixed => 1 + (next() % 40) as usize,
                RowShape::Uniform => uniform,
                RowShape::Long => GROUPED_LEN + 1 + (next() % (40 - GROUPED_LEN as u64)) as usize,
            };
            let mut con = FlowConstraint::default();
            for k in 0..len {
                pool.swap(k, k + (next() % (n - k) as u64) as usize);
                let term = Term { var: pool[k], coeff: COEFFS[(next() % 5) as usize] };
                if next() % 5 < 3 {
                    con.lhs.push(term);
                } else {
                    con.rhs.push(term);
                }
            }
            for _ in 0..1 + next() % 9 {
                sys.add_constraint(con.clone());
            }
        }
        let x = (0..n)
            .map(|_| match next() % 3 {
                0 => 0.0,
                1 => 1.0,
                _ => (next() >> 11) as f64 / (1u64 << 53) as f64,
            })
            .collect();
        (sys, x)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The two-pass kernel matches the single-pass oracle bit for bit
        /// at 1, 2 and 4 threads: each lane's `(violation, violated)` and
        /// every gradient slot; `objective` matches the oracle's ordered
        /// sum. Each case draws its row shape: mixed lengths, one length
        /// (lanes with empty length groups), or only rows longer than
        /// [`GROUPED_LEN`].
        #[test]
        fn two_pass_kernel_matches_single_pass_oracle(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let shape = [RowShape::Mixed, RowShape::Uniform, RowShape::Long][(seed % 3) as usize];
            let (sys, mut x) = random_kernel_case(seed, shape);
            let cs = CompiledSystem::compile(&sys);
            cs.apply_pins(&mut x);
            let mut wcoeffs = vec![0.0; cs.term_count()];
            for ri in 0..cs.row_count() {
                for t in cs.terms(ri) {
                    wcoeffs[t] = cs.weights[ri] * cs.term_coeffs[t];
                }
            }
            if shape == RowShape::Long {
                proptest::prop_assert!(cs.rows().all(|(_, vars, _)| vars.len() > GROUPED_LEN));
            } else if shape == RowShape::Uniform {
                let empty = cs.lanes.iter().flat_map(|l| l.groups.windows(2));
                proptest::prop_assert_eq!(
                    empty.filter(|b| b[0] == b[1]).count(),
                    cs.lane_count() * (GROUPS - 1),
                    "one length group per lane runs"
                );
            }
            let oracle: Vec<(Vec<f64>, (f64, usize))> = (0..cs.lane_count())
                .map(|lane| {
                    let mut buf = vec![0.0; cs.lanes[lane].slots as usize];
                    let stat = lane_gap_pass(&cs, &wcoeffs, lane, &x, &mut buf);
                    (buf, stat)
                })
                .collect();
            for threads in [1, 2, 4] {
                let mut bufs = cs.new_lane_buffers();
                let mut stats = vec![(f64::NAN, usize::MAX); cs.lane_count()];
                cs.gap_pass(&x, threads, &mut bufs, &mut stats);
                for ((buf, stat), (obuf, ostat)) in bufs.iter().zip(&stats).zip(&oracle) {
                    proptest::prop_assert_eq!(stat.0.to_bits(), ostat.0.to_bits());
                    proptest::prop_assert_eq!(stat.1, ostat.1);
                    proptest::prop_assert_eq!(buf.grad.len(), obuf.len());
                    for (g, o) in buf.grad.iter().zip(obuf) {
                        proptest::prop_assert_eq!(g.to_bits(), o.to_bits(), "threads {}", threads);
                    }
                }
            }
            let (violation, objective) = cs.objective(&x, 0.1);
            let (oviolation, oobjective) = oracle_objective(&cs, &x, 0.1);
            proptest::prop_assert_eq!(violation.to_bits(), oviolation.to_bits());
            proptest::prop_assert_eq!(objective.to_bits(), oobjective.to_bits());
        }
    }

    /// Pass-1 groups partition each lane's rows: every row appears once,
    /// in the group of its term count, in solve order within the group;
    /// and the terms are stored row after row in that order, filling the
    /// lane's solve-order term range.
    #[test]
    fn length_groups_partition_each_lane_in_solve_order() {
        let (sys, _) = random_kernel_case(3, RowShape::Mixed);
        let cs = CompiledSystem::compile(&sys);
        for lane in &cs.lanes {
            let order = &cs.gap_order[lane.rows()];
            let mut sorted = order.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, lane.rows().map(|ri| ri as u32).collect::<Vec<_>>());
            for (g, bounds) in lane.groups.windows(2).enumerate() {
                let rows = &cs.gap_order[bounds[0] as usize..bounds[1] as usize];
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "group {g} out of order");
                for &ri in rows {
                    let len = (cs.offsets[ri as usize + 1] - cs.offsets[ri as usize]) as usize;
                    assert_eq!(length_group(len), g);
                }
            }
            let mut next = cs.offsets[lane.start as usize] as usize;
            for &ri in order {
                let terms = cs.terms(ri as usize);
                assert_eq!(terms.start, next, "row {ri} follows the previous row's terms");
                next = terms.end;
            }
            assert_eq!(next, cs.offsets[lane.end as usize] as usize);
        }
    }

    /// The pass-1 layout is storage only: [`CompiledSystem::rows`], mapped
    /// back through the row permutation, is the system's own row list —
    /// every weight, variable and coefficient bit.
    #[test]
    fn rows_map_back_to_the_system_rows_through_the_permutation() {
        for (seed, shape) in [(5, RowShape::Mixed), (6, RowShape::Uniform), (7, RowShape::Long)] {
            let (sys, _) = random_kernel_case(seed, shape);
            let cs = CompiledSystem::compile(&sys);
            let stored: Vec<Row> = sys.rows().collect();
            assert_eq!(cs.rows().count(), stored.len());
            for ((w, vars, coeffs), &old) in cs.rows().zip(cs.row_permutation()) {
                let row = stored[old as usize];
                assert_eq!(w, f64::from(row.weight));
                let terms: Vec<(u32, u64)> =
                    vars.iter().zip(coeffs).map(|(&v, &c)| (v, c.to_bits())).collect();
                let expected: Vec<(u32, u64)> =
                    row.terms.iter().map(|&(v, c)| (v, c.to_bits())).collect();
                assert_eq!(terms, expected, "{shape:?} row {old}");
            }
        }
    }

    #[test]
    fn empty_system_compiles() {
        let sys = ConstraintSystem::new(0.75);
        let cs = CompiledSystem::compile(&sys);
        assert_eq!(cs.var_count(), 0);
        assert_eq!(cs.constraint_count(), 0);
        assert_eq!(cs.lane_count(), 1);
        assert_eq!(cs.objective(&[], 0.1), (0.0, 0.0));
        let (grad, viol, violated) = cs.gradient(&[], 0.1);
        assert!(grad.is_empty());
        assert_eq!((viol, violated), (0.0, 0));
    }
}
