//! Quadratic programming substrate — the reproduction's substitute for the
//! IBM CPLEX optimizer (paper §IV.A "Quadratic Programming" and §IV.C).
//!
//! Theorem IV.1 reduces ε-spatiotemporal event privacy for *arbitrary*
//! initial probabilities to: "is the maximum of a quadratic form over the
//! probability simplex non-positive?" — for two specific quadratic forms per
//! candidate release. Both forms are **rank-1 bilinear plus linear**:
//!
//! ```text
//! Eq. (15):  f₁(π) = (π·a)(π·g₁) + π·b      g₁ = (e^ε−1)·b − e^ε·c  (≤ 0)
//! Eq. (16):  f₂(π) = (π·a)(π·g₂) − e^ε·π·b  g₂ = (e^ε−1)·b + c      (≥ 0)
//! ```
//!
//! because the paper's quadratic matrices are outer products `aᵀ(…)`. The
//! paper states the feasible set as the box `0 ≤ π ≤ 1`; the reading this
//! crate solves is the simplex `π ≥ 0, Σπ = 1` (README "Design notes": the
//! literal box makes Eq. (15) violable for every mechanism, pinned by the
//! `box_reading` regression test). Like CPLEX under the paper's one-second
//! threshold, the check is *budgeted* and returns a three-valued
//! [`Verdict`]:
//!
//! * `Holds` — a **sound** certificate: the exhaustive pair scan of
//!   [`simplex`] visited every coordinate pair, which is an exact global
//!   maximum over the simplex, and found it ≤ 0.
//! * `Violated` — a concrete witness `π` with `f(π) > 0`.
//! * `Unknown` — budget exhausted with the maximum still straddling zero;
//!   the framework's *conservative release* (§IV.C) treats this as a
//!   failure and keeps decaying the mechanism's budget, so privacy is never
//!   claimed without a certificate.
//!
//! **ε-capacity in one scan.** After the checker's `1/max(c)` rescale,
//! write `A = π·a`, `B = π·b`, `C = π·c` and `E = e^ε`. Expanding both
//! forms,
//!
//! ```text
//! f₁ = A·((E−1)·B − E·C) + B = B(1 − A) − E·A(C − B) = P − E·Q
//! f₂ = A·((E−1)·B + C) − E·B = A(C − B) − E·B(1 − A) = Q − E·P
//! ```
//!
//! with `P = (π·b)(1 − π·a)` and `Q = (π·a)(π·(c − b))`, whose ratio `P/Q`
//! is the likelihood ratio `Pr(o|EVENT)/Pr(o|¬EVENT)` under `π`. A check at
//! ε therefore certifies exactly when `E ≥ x* = sup_π max((P − τ)/Q,
//! (Q − τ)/P)` (τ the decision tolerance), and `ln x*` is the smallest
//! certifiable ε: the worst realized privacy loss over all priors. At fixed
//! `π·a` both ratios are linear-fractional in π on the slice, so, as for
//! the pair scan, the supremum sits at a 2-sparse π.
//! [`TheoremChecker::capacity`] visits each pair once at a running `x`: it
//! runs the check's own segment maxima at `x` (cheap) and solves the 1-D
//! ratio maximum in closed form only for the pairs that fail. `x` only
//! grows and a pair that passes at `x` has its own maximum `≤ x`, so the
//! final `x` is exact — one scan replaces a bisection over ε.
//!
//! [`knapsack::max_budgeted`] is the budgeted-allocation LP the
//! utility-aware planner of `priste-calibrate` solves.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod knapsack;
pub mod simplex;
pub mod theorem;

pub use knapsack::{max_budgeted, SliceSolution};
pub use simplex::BilinearProgram;
pub use theorem::{TheoremChecker, TheoremVerdict};

use priste_linalg::Vector;

/// Outcome of a budgeted non-positivity check.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Certified: the maximum over the feasible set is ≤ 0.
    Holds {
        /// The proven upper bound (≤ 0).
        upper_bound: f64,
    },
    /// Refuted: a feasible point with a strictly positive value.
    Violated {
        /// The witness point.
        witness: Vector,
        /// Its objective value (> 0).
        value: f64,
    },
    /// Budget exhausted before certifying either way.
    Unknown {
        /// Best (largest) objective value found so far.
        lower_bound: f64,
        /// Best proven upper bound so far.
        upper_bound: f64,
    },
}

impl Verdict {
    /// Whether the verdict certifies the constraint.
    pub fn holds(&self) -> bool {
        matches!(self, Verdict::Holds { .. })
    }
}

/// Budget and tolerances for a check.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Abstract work units (one coordinate pair of the simplex scan each).
    /// The deterministic analogue of the paper's CPLEX wall-clock threshold
    /// (Table III); exhausting it yields [`Verdict::Unknown`].
    pub work_budget: u64,
    /// Decision tolerance: values within `±tolerance` of zero count as
    /// non-positive (absorbs floating-point noise in the homogeneous
    /// rescaling).
    pub tolerance: f64,
    /// Optional wall-clock deadline for one check — the faithful analogue
    /// of the paper's CPLEX time threshold (Table III). `None` (default)
    /// keeps checks fully deterministic via `work_budget` alone.
    pub deadline: Option<std::time::Duration>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            work_budget: 200_000,
            tolerance: 1e-9,
            deadline: None,
        }
    }
}

impl SolverConfig {
    /// A configuration with the given work budget and defaults otherwise.
    pub fn with_budget(work_budget: u64) -> Self {
        SolverConfig {
            work_budget,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_holds_predicate() {
        assert!(Verdict::Holds { upper_bound: -0.5 }.holds());
        assert!(!Verdict::Unknown {
            lower_bound: -1.0,
            upper_bound: 1.0
        }
        .holds());
    }
}
