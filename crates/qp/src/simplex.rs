//! Exact global maximization of `f(π) = (π·a)(π·g) + π·h` over the
//! probability simplex `{π ≥ 0, Σπ = 1}` — the feasible set Theorem IV.1
//! actually requires (README "Design notes": the literal box `0 ≤ π ≤ 1`
//! *without* the sum constraint makes Eq. (15) unsatisfiable for any
//! mechanism, contradicting the paper's own α→0 termination argument, so
//! the simplex constraint is implicit in the paper).
//!
//! **Why this is exact and fast.** Fix `u = π·a`. On the slice
//! `{π ∈ simplex, π·a = u}` the objective is linear, so its maximum sits at
//! a vertex; the slice polytope has two equality constraints, hence every
//! vertex has **at most two** nonzero coordinates. The global maximum is
//! the max over slices, so it is attained at some
//! `π = λ·e_i + (1−λ)·e_j` — and along that segment `f` is a univariate
//! *quadratic* in `λ` with a closed-form maximum. Scanning all `m(m+1)/2`
//! pairs is therefore an exact global algorithm, `O(m²)` versus CPLEX's
//! NP-hard general-case behaviour on the box form.
//!
//! The work budget caps the number of pairs examined; an exhausted budget
//! yields `Unknown` (conservative release), an early positive pair yields
//! `Violated` immediately.
//!
//! `capacity_scan` walks the same pairs to read off the smallest `e^ε`
//! at which both Theorem IV.1 forms are non-positive (crate docs, "ε-capacity
//! in one scan").

use crate::{SolverConfig, Verdict};
use priste_linalg::Vector;
use std::time::{Duration, Instant};

/// The structured program `f(π) = (π·a)(π·g) + π·h` — the exact shape of
/// both Theorem IV.1 constraints.
#[derive(Debug, Clone)]
pub struct BilinearProgram {
    /// Non-negative coefficient vector of the first bilinear factor.
    pub a: Vector,
    /// Coefficient vector of the second bilinear factor (any sign).
    pub g: Vector,
    /// Linear term (any sign).
    pub h: Vector,
}

impl BilinearProgram {
    /// Creates a program, validating shapes and the sign of `a`.
    ///
    /// # Panics
    /// Panics on length mismatch or a negative entry in `a` — both indicate
    /// construction bugs upstream (the `a` of Theorem IV.1 is a vector of
    /// probabilities).
    pub fn new(a: Vector, g: Vector, h: Vector) -> Self {
        assert_eq!(a.len(), g.len(), "a/g length mismatch");
        assert_eq!(a.len(), h.len(), "a/h length mismatch");
        assert!(
            a.as_slice().iter().all(|&x| x >= -1e-12),
            "bilinear factor a must be non-negative"
        );
        BilinearProgram { a, g, h }
    }

    /// Dimension `m`.
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// Evaluates `f(π)` at any point, feasible or not.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn eval(&self, pi: &Vector) -> f64 {
        let u = pi.dot(&self.a).expect("length");
        let v = pi.dot(&self.g).expect("length");
        let l = pi.dot(&self.h).expect("length");
        u * v + l
    }
}

/// Exact maximum of `f` restricted to the segment
/// `π(λ) = λ·e_i + (1−λ)·e_j`, `λ ∈ [0, 1]`.
///
/// `f(λ) = (λ·a_i + (1−λ)·a_j)(λ·g_i + (1−λ)·g_j) + λ·h_i + (1−λ)·h_j`
/// is quadratic in λ; the maximum is at an endpoint or the interior
/// stationary point. Returns `(λ*, f(λ*))`.
fn pair_max(p: &BilinearProgram, i: usize, j: usize) -> (f64, f64) {
    segment_max(p.a[i], p.a[j], p.g[i], p.g[j], p.h[i], p.h[j])
}

/// [`pair_max`] on the six coefficients of one segment.
fn segment_max(ai: f64, aj: f64, gi: f64, gj: f64, hi: f64, hj: f64) -> (f64, f64) {
    // f(λ) = (aj + λΔa)(gj + λΔg) + hj + λΔh
    //      = ΔaΔg·λ² + (ajΔg + gjΔa + Δh)·λ + (aj·gj + hj)
    let da = ai - aj;
    let dg = gi - gj;
    let dh = hi - hj;
    let quad = da * dg;
    let lin = aj * dg + gj * da + dh;
    let cst = aj * gj + hj;
    let eval = |l: f64| quad * l * l + lin * l + cst;
    let mut best_l = 0.0;
    let mut best_v = eval(0.0);
    let v1 = eval(1.0);
    if v1 > best_v {
        best_v = v1;
        best_l = 1.0;
    }
    if quad < 0.0 {
        // Concave: interior stationary point may win.
        let l_star = -lin / (2.0 * quad);
        if (0.0..=1.0).contains(&l_star) {
            let v = eval(l_star);
            if v > best_v {
                best_v = v;
                best_l = l_star;
            }
        }
    }
    (best_l, best_v)
}

/// Outcome of the exact simplex scan.
#[derive(Debug, Clone)]
pub struct SimplexOutcome {
    /// Best point found (2-sparse).
    pub best_point: Vector,
    /// Its value — the exact global maximum when `complete` is true.
    pub best_value: f64,
    /// Whether every pair was examined within the budget.
    pub complete: bool,
    /// Pairs examined.
    pub work_used: u64,
}

/// Scans all coordinate pairs (each one work unit). Stops early when the
/// budget or the optional wall-clock `deadline` runs out (elapsed time is
/// polled every 1024 pairs to keep the hot loop branch-cheap);
/// `early_exit_above` (if finite) stops as soon as any pair exceeds it —
/// the violation fast-path.
pub fn maximize_simplex(
    p: &BilinearProgram,
    budget: u64,
    early_exit_above: f64,
    deadline: Option<Duration>,
) -> SimplexOutcome {
    let n = p.dim();
    let started = Instant::now();
    let mut best_v = f64::NEG_INFINITY;
    let mut best = (0usize, 0usize, 1.0f64);
    let mut work = 0u64;
    let mut complete = true;
    'outer: for i in 0..n {
        for j in i..n {
            if work >= budget {
                complete = false;
                break 'outer;
            }
            if let Some(d) = deadline {
                if work.is_multiple_of(1024) && started.elapsed() > d {
                    complete = false;
                    break 'outer;
                }
            }
            work += 1;
            let (l, v) = pair_max(p, i, j);
            if v > best_v {
                best_v = v;
                best = (i, j, l);
                if v > early_exit_above {
                    complete = false;
                    break 'outer;
                }
            }
        }
    }
    let mut point = Vector::zeros(n);
    let (i, j, l) = best;
    if n > 0 {
        point[i] += l;
        point[j] += 1.0 - l;
    }
    SimplexOutcome {
        best_point: point,
        best_value: best_v,
        complete,
        work_used: work,
    }
}

/// Budgeted non-positivity check over the simplex.
///
/// * Every examined pair with value > tolerance ⇒ `Violated` (sound).
/// * All pairs examined and none positive ⇒ `Holds` (exact certificate).
/// * Budget exhausted first ⇒ `Unknown`.
pub fn check_nonpositive(p: &BilinearProgram, cfg: &SolverConfig) -> Verdict {
    let out = maximize_simplex(p, cfg.work_budget, cfg.tolerance, cfg.deadline);
    if out.best_value > cfg.tolerance {
        return Verdict::Violated {
            witness: out.best_point,
            value: out.best_value,
        };
    }
    if out.complete {
        return Verdict::Holds {
            upper_bound: out.best_value,
        };
    }
    Verdict::Unknown {
        lower_bound: out.best_value,
        upper_bound: f64::INFINITY,
    }
}

/// The exact ε-capacity of one Theorem IV.1 release in one pass over the
/// simplex: the smallest `x = e^ε ≥ 1` with `P − x·Q ≤ τ` (Eq. (15)) and
/// `Q − x·P ≤ τ` (Eq. (16)) for every prior `π`, where
/// `P = (π·b)(1 − π·a)` and `Q = (π·a)(π·(c − b))` — that is,
/// `x* = max(1, sup_π max((P − τ)/Q, (Q − τ)/P))`, `+∞` when some prior
/// violates them at every ε. `b` and `c` must already carry the checker's
/// joint rescale, so `τ` means what it means to [`check_nonpositive`].
///
/// `x` starts at the largest vertex ratio. Every pair then takes the cheap
/// test — the checker's own segment maxima of both programs at the running
/// `x` — and only a pair that fails it pays for its exact ratio maximum
/// (`pair_ratio_max`). The result is exact: `x` only grows, it is always
/// 1 or some pair's ratio, and a pair that passes at `x` has its own
/// maximum `≤ x`. Budget and deadline behave as in [`maximize_simplex`], with one
/// work unit per vertex or pair (each unit covers both inequalities);
/// `None` when either runs out first.
pub(crate) fn capacity_scan(
    a: &Vector,
    b: &Vector,
    c: &Vector,
    tolerance: f64,
    budget: u64,
    deadline: Option<Duration>,
) -> Option<f64> {
    let n = a.len();
    let (a, b, c) = (a.as_slice(), b.as_slice(), c.as_slice());
    let started = Instant::now();
    let out_of_work = |work: u64| {
        work >= budget
            || deadline.is_some_and(|d| work.is_multiple_of(1024) && started.elapsed() > d)
    };
    let mut work = 0u64;
    let mut x = 1.0f64;
    for i in 0..n {
        if out_of_work(work) {
            return None;
        }
        work += 1;
        let (p, q) = (b[i] * (1.0 - a[i]), a[i] * (c[i] - b[i]));
        x = x.max(ratio(p, q, tolerance)).max(ratio(q, p, tolerance));
    }
    // Both programs at e^ε = x, built as `TheoremChecker::programs` builds
    // them (Eq. (15)'s linear term is b itself).
    let programs_at = |x: f64| {
        let g1: Vec<f64> = (0..n).map(|k| (x - 1.0) * b[k] - x * c[k]).collect();
        let g2: Vec<f64> = (0..n).map(|k| (x - 1.0) * b[k] + c[k]).collect();
        let h2: Vec<f64> = b.iter().map(|&bk| bk * -x).collect();
        (g1, g2, h2)
    };
    let (mut g1, mut g2, mut h2) = programs_at(x);
    for i in 0..n {
        for j in i + 1..n {
            if x == f64::INFINITY {
                return Some(x);
            }
            if out_of_work(work) {
                return None;
            }
            work += 1;
            let passes = segment_max(a[i], a[j], g1[i], g1[j], b[i], b[j]).1 <= tolerance
                && segment_max(a[i], a[j], g2[i], g2[j], h2[i], h2[j]).1 <= tolerance;
            if passes {
                continue;
            }
            let r = pair_ratio_max([a[i], a[j]], [b[i], b[j]], [c[i], c[j]], tolerance);
            if r > x {
                x = r;
                (g1, g2, h2) = programs_at(x);
            }
        }
    }
    Some(x)
}

/// `(num − τ)/den`, the smallest `x` with `num − x·den ≤ τ`: `+∞` when no
/// `x` works (`den ≤ 0 < num − τ`), `−∞` when every `x` does.
fn ratio(num: f64, den: f64, tolerance: f64) -> f64 {
    if den > 0.0 {
        (num - tolerance) / den
    } else if num > tolerance {
        f64::INFINITY
    } else {
        f64::NEG_INFINITY
    }
}

/// Exact maximum of `max((P − τ)/Q, (Q − τ)/P)` along the segment
/// `π(λ) = λ·e_i + (1−λ)·e_j` (`[i, j]` entries of `a`, `b`, `c`).
///
/// `A = π·a`, `B = π·b` and `D = π·(c − b)` are linear in λ, so
/// `P = B(1 − A)` and `Q = A·D` are quadratics. For `N/M` with quadratic
/// `N`, `M` the stationarity condition `N′M − N·M′ = 0` is quadratic too
/// (the cubic terms cancel), so each ratio peaks at an endpoint or at one
/// of two roots. The stationary points of `P` and `Q` are evaluated as
/// well: they catch a segment on which a denominator vanishes identically
/// while its numerator exceeds τ somewhere inside (ratio `+∞`).
fn pair_ratio_max(a: [f64; 2], b: [f64; 2], c: [f64; 2], tolerance: f64) -> f64 {
    let (a0, a1) = (a[1], a[0] - a[1]);
    let (b0, b1) = (b[1], b[0] - b[1]);
    let (d0, d1) = (c[1] - b[1], (c[0] - b[0]) - (c[1] - b[1]));
    // Coefficients [λ⁰, λ¹, λ²] of P = (b0 + b1λ)(1 − a0 − a1λ) and
    // Q = (a0 + a1λ)(d0 + d1λ).
    let p = [b0 * (1.0 - a0), b1 * (1.0 - a0) - b0 * a1, -b1 * a1];
    let q = [a0 * d0, a0 * d1 + a1 * d0, a1 * d1];
    let value = |l: f64| {
        let at = a0 + a1 * l;
        let (pv, qv) = ((b0 + b1 * l) * (1.0 - at), at * (d0 + d1 * l));
        ratio(pv, qv, tolerance).max(ratio(qv, pv, tolerance))
    };
    let mut best = value(0.0).max(value(1.0));
    for (num, den) in [(p, q), (q, p)] {
        let n0 = num[0] - tolerance;
        let roots = quadratic_roots(
            num[2] * den[1] - num[1] * den[2],
            2.0 * (num[2] * den[0] - n0 * den[2]),
            num[1] * den[0] - n0 * den[1],
        );
        let apex = -num[1] / (2.0 * num[2]);
        for l in [roots[0], roots[1], apex] {
            // NaN and out-of-range candidates fail this test.
            if l > 0.0 && l < 1.0 {
                best = best.max(value(l));
            }
        }
    }
    best
}

/// Real roots of `k2·λ² + k1·λ + k0` (NaN or ±∞ where there is none),
/// from the cancellation-free form of the quadratic formula.
fn quadratic_roots(k2: f64, k1: f64, k0: f64) -> [f64; 2] {
    if k2 == 0.0 {
        return [-k0 / k1, f64::NAN];
    }
    let disc = k1 * k1 - 4.0 * k2 * k0;
    if disc < 0.0 {
        return [f64::NAN; 2];
    }
    let q = -0.5 * (k1 + disc.sqrt().copysign(k1));
    [q / k2, k0 / q]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_program(rng: &mut StdRng, n: usize) -> BilinearProgram {
        BilinearProgram::new(
            Vector::from((0..n).map(|_| rng.gen::<f64>()).collect::<Vec<_>>()),
            Vector::from((0..n).map(|_| rng.gen_range(-1.5..1.5)).collect::<Vec<_>>()),
            Vector::from((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<_>>()),
        )
    }

    #[test]
    fn eval_matches_definition() {
        let p = BilinearProgram::new(
            Vector::from(vec![1.0, 0.5]),
            Vector::from(vec![-1.0, 2.0]),
            Vector::from(vec![0.1, 0.2]),
        );
        let pi = Vector::from(vec![1.0, 1.0]);
        // (1.5)(1.0) + 0.3 = 1.8
        assert!((p.eval(&pi) - 1.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_a_is_rejected() {
        let _ = BilinearProgram::new(
            Vector::from(vec![-0.5]),
            Vector::from(vec![1.0]),
            Vector::from(vec![0.0]),
        );
    }

    #[test]
    fn certifies_obviously_nonpositive_programs() {
        // g ≤ 0, h ≤ 0 ⇒ f ≤ 0 everywhere.
        let p = BilinearProgram::new(
            Vector::from(vec![0.5, 0.8, 0.2]),
            Vector::from(vec![-1.0, -0.3, -2.0]),
            Vector::from(vec![-0.1, 0.0, -0.5]),
        );
        assert!(check_nonpositive(&p, &SolverConfig::default()).holds());
    }

    #[test]
    fn finds_witness_for_positive_programs() {
        let p = BilinearProgram::new(
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![0.0, 0.0]),
        );
        match check_nonpositive(&p, &SolverConfig::default()) {
            Verdict::Violated { witness, value } => {
                assert!(value > 0.5, "max should be 1 on the simplex, got {value}");
                assert!((p.eval(&witness) - value).abs() < 1e-9);
            }
            v => panic!("expected violation, got {v:?}"),
        }
    }

    #[test]
    fn simplex_mode_respects_simplex() {
        let p = BilinearProgram::new(
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![0.0, 0.0]),
        );
        let out = maximize_simplex(&p, u64::MAX, f64::INFINITY, None);
        // On the simplex, πa = πg = 1 always ⇒ f = 1 (the box point π = 1
        // would give 4).
        assert!(
            (out.best_value - 1.0).abs() < 1e-12,
            "got {}",
            out.best_value
        );
        assert!((out.best_point.sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_dimensional_edge_behaviour() {
        // Single coordinate, trivially certified.
        let p = BilinearProgram::new(
            Vector::from(vec![0.0]),
            Vector::from(vec![5.0]),
            Vector::from(vec![-1.0]),
        );
        assert!(check_nonpositive(&p, &SolverConfig::default()).holds());
    }

    #[test]
    fn theorem_shaped_program_with_small_epsilon_is_violated() {
        // Mimic Eq. (15) with an emission that leaks: a = prior coeffs,
        // b peaked inside the event, c uniform-ish, ε tiny.
        let a = Vector::from(vec![0.9, 0.1]);
        let b = Vector::from(vec![0.5, 0.01]);
        let c = Vector::from(vec![0.55, 0.5]);
        let eps: f64 = 0.01;
        let g = Vector::from(
            b.as_slice()
                .iter()
                .zip(c.as_slice())
                .map(|(&bi, &ci)| (eps.exp() - 1.0) * bi - eps.exp() * ci)
                .collect::<Vec<_>>(),
        );
        let p = BilinearProgram::new(a, g, b);
        match check_nonpositive(&p, &SolverConfig::default()) {
            Verdict::Violated { value, .. } => assert!(value > 0.0),
            v => panic!("expected violation for leaky emission at ε=0.01, got {v:?}"),
        }
    }

    /// Dense barycentric grid over the simplex (n ≤ 3).
    fn simplex_grid_max(p: &BilinearProgram, steps: usize) -> f64 {
        let n = p.dim();
        assert!(n <= 3);
        let mut best = f64::NEG_INFINITY;
        match n {
            1 => best = p.eval(&Vector::from(vec![1.0])),
            2 => {
                for k in 0..=steps {
                    let l = k as f64 / steps as f64;
                    best = best.max(p.eval(&Vector::from(vec![l, 1.0 - l])));
                }
            }
            3 => {
                for k1 in 0..=steps {
                    for k2 in 0..=steps - k1 {
                        let x = k1 as f64 / steps as f64;
                        let y = k2 as f64 / steps as f64;
                        best = best.max(p.eval(&Vector::from(vec![x, y, 1.0 - x - y])));
                    }
                }
            }
            _ => unreachable!(),
        }
        best
    }

    #[test]
    fn pair_scan_matches_dense_simplex_grid() {
        let mut rng = StdRng::seed_from_u64(2024);
        for case in 0..200 {
            let n = rng.gen_range(1..=3);
            let p = random_program(&mut rng, n);
            let exact = maximize_simplex(&p, u64::MAX, f64::INFINITY, None);
            assert!(exact.complete);
            let grid = simplex_grid_max(&p, 120);
            assert!(
                exact.best_value >= grid - 1e-6,
                "case {case}: pair-scan {} below grid {grid}",
                exact.best_value
            );
            // And the reported point actually achieves the value.
            assert!((p.eval(&exact.best_point) - exact.best_value).abs() < 1e-9);
            assert!((exact.best_point.sum() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn interior_stationary_points_are_found() {
        // a = (1, 0), g = (−1, 1), h = 0 on segment (λ, 1−λ):
        // f = λ(1−2λ), max at λ = 1/4 with value 1/8 — strictly interior.
        let p = BilinearProgram::new(
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![-1.0, 1.0]),
            Vector::from(vec![0.0, 0.0]),
        );
        let out = maximize_simplex(&p, u64::MAX, f64::INFINITY, None);
        assert!((out.best_value - 0.125).abs() < 1e-12);
        assert!((out.best_point[0] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = random_program(&mut rng, 20);
        let out = maximize_simplex(&p, 5, f64::NEG_INFINITY, None);
        // early_exit_above = −∞ forces an exit on the very first improving
        // pair, marking the scan incomplete.
        assert!(!out.complete);
        let v = check_nonpositive(&p, &SolverConfig::with_budget(3));
        // With 20 states and budget 3, either a genuine violation was found
        // among the first pairs or the verdict must be Unknown.
        match v {
            Verdict::Violated { value, .. } => assert!(value > 0.0),
            Verdict::Unknown { .. } => {}
            Verdict::Holds { .. } => panic!("cannot certify after 3 of 210 pairs"),
        }
    }

    #[test]
    fn certificate_requires_full_scan() {
        // All-negative objective: must certify with exactly m(m+1)/2 pairs.
        let n = 6;
        let p = BilinearProgram::new(
            Vector::from(vec![0.5; 6]),
            Vector::from(vec![-1.0; 6]),
            Vector::from(vec![-0.1; 6]),
        );
        let out = maximize_simplex(&p, u64::MAX, f64::INFINITY, None);
        assert!(out.complete);
        assert_eq!(out.work_used, (n * (n + 1) / 2) as u64);
        assert!(check_nonpositive(&p, &SolverConfig::default()).holds());
    }

    #[test]
    fn singleton_points_are_covered() {
        // Max at a vertex of the simplex (i == j pair).
        let p = BilinearProgram::new(
            Vector::from(vec![1.0, 0.2]),
            Vector::from(vec![2.0, 0.1]),
            Vector::from(vec![0.5, 0.0]),
        );
        let out = maximize_simplex(&p, u64::MAX, f64::INFINITY, None);
        // f(e_0) = 1·2 + 0.5 = 2.5.
        assert!((out.best_value - 2.5).abs() < 1e-12);
        assert_eq!(out.best_point.as_slice(), &[1.0, 0.0]);
    }
}
