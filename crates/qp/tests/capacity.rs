//! Soundness and tightness of the one-scan ε-capacity
//! (`TheoremChecker::capacity`): the returned κ is the exact boundary of
//! the checker's own verdicts, agrees with a plain bisection over ε, equals
//! the largest realized privacy loss over the simplex, and is never finite
//! when the work budget runs out.

use priste_core::test_support::{homogeneous_world, plm, presence};
use priste_geo::CellId;
use priste_linalg::Vector;
use priste_qp::{SolverConfig, TheoremChecker, TheoremVerdict};
use priste_quantify::TheoremBuilder;
use proptest::prelude::*;
use std::time::Duration;

/// Lower end of the capacity range the planner reports.
const EPS_FLOOR: f64 = 1e-4;
/// Upper end of the reference bisection's bracket. The checker's rounding
/// grows like `e^ε · 1e-16`, so well above this (near ε = 16 it reaches
/// the 1e-9 tolerance) a release whose event is certain under some prior
/// can fail spuriously, and the check is no longer monotone in ε.
const EPS_CEILING: f64 = 8.0;

fn certifies(eps: f64, a: &Vector, b: &Vector, c: &Vector) -> bool {
    TheoremChecker::new(eps, SolverConfig::default())
        .check(a, b, c)
        .satisfied()
}

fn capacity(a: &Vector, b: &Vector, c: &Vector) -> Option<f64> {
    TheoremChecker::new(1.0, SolverConfig::default()).capacity(a, b, c)
}

/// The reference: bisection over `[EPS_FLOOR, EPS_CEILING]` with the
/// checker as the oracle, to within 1e-3. Returns the certifying end of the
/// final bracket, `EPS_FLOOR` when the floor certifies, `None` when the
/// ceiling does not.
fn bisected(a: &Vector, b: &Vector, c: &Vector) -> Option<f64> {
    let (mut lo, mut hi) = (EPS_FLOOR, EPS_CEILING);
    if !certifies(hi, a, b, c) {
        return None;
    }
    if certifies(lo, a, b, c) {
        return Some(lo);
    }
    while hi - lo > 1e-3 {
        let mid = 0.5 * (lo + hi);
        if certifies(mid, a, b, c) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// The four soundness and tightness claims for one release.
fn assert_exact(a: &Vector, b: &Vector, c: &Vector) {
    let kappa = capacity(a, b, c).expect("the default budget covers m ≤ 25");
    assert!(kappa >= 0.0, "κ = {kappa}");
    if kappa.is_finite() {
        assert!(
            certifies(kappa + 1e-9, a, b, c),
            "κ + 1e-9 = {} must certify",
            kappa + 1e-9
        );
    }
    if kappa.is_finite() && kappa - 1e-3 > EPS_FLOOR {
        assert!(
            !certifies(kappa - 1e-3, a, b, c),
            "κ − 1e-3 = {} must not certify",
            kappa - 1e-3
        );
    }
    match bisected(a, b, c) {
        Some(reference) => {
            let clamped = kappa.max(EPS_FLOOR);
            assert!(
                clamped <= reference + 1e-12 && reference <= clamped + 1e-3,
                "κ {clamped} vs bisected {reference}"
            );
        }
        None => assert!(kappa > EPS_CEILING - 1e-9, "κ {kappa} below the ceiling"),
    }
}

/// Largest realized loss `|ln(P/Q)|` on a barycentric grid (m ≤ 3), with
/// `P = (π·b)(1 − π·a)` and `Q = (π·a)(π·(c − b))`.
fn grid_max_loss(a: &Vector, b: &Vector, c: &Vector, steps: usize) -> f64 {
    let m = a.len();
    let loss = |pi: &[f64]| {
        let dot = |v: &Vector| pi.iter().zip(v.as_slice()).map(|(x, y)| x * y).sum::<f64>();
        let (pa, pb, pc) = (dot(a), dot(b), dot(c));
        let (p, q) = (pb * (1.0 - pa), pa * (pc - pb));
        if p > 0.0 && q > 0.0 {
            (p / q).ln().abs()
        } else {
            f64::NEG_INFINITY
        }
    };
    let mut best = f64::NEG_INFINITY;
    for k1 in 0..=steps {
        let x = k1 as f64 / steps as f64;
        match m {
            1 => return loss(&[1.0]),
            2 => best = best.max(loss(&[x, 1.0 - x])),
            _ => {
                for k2 in 0..=steps - k1 {
                    let y = k2 as f64 / steps as f64;
                    best = best.max(loss(&[x, y, 1.0 - x - y]));
                }
            }
        }
    }
    best
}

/// Random releases with `0 ≤ b ≤ c`: `a` a vector of event probabilities,
/// `b = c ∘ w` for a share `w` of each observation's mass that falls in the
/// event. `w` tracks `a` up to a multiplicative wobble, as it does for a
/// mechanism that leaks little, and stays below 1, so capacities stay
/// finite.
fn release(m: usize, wobble: f64) -> impl Strategy<Value = (Vector, Vector, Vector)> {
    (
        proptest::collection::vec(0.05f64..0.95, m),
        proptest::collection::vec(0.05f64..1.0, m),
        proptest::collection::vec(-1.0f64..1.0, m),
    )
        .prop_map(move |(a, c, noise)| {
            let b: Vec<f64> = a
                .iter()
                .zip(&c)
                .zip(&noise)
                .map(|((&ai, &ci), &z)| ci * (ai * (1.0 + wobble * z)).clamp(0.0, 0.98))
                .collect();
            (Vector::from(a), Vector::from(b), Vector::from(c))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn capacity_is_the_exact_verdict_boundary((a, b, c) in (1usize..=12).prop_flat_map(|m| release(m, 0.6))) {
        assert_exact(&a, &b, &c);
    }

    #[test]
    fn capacity_is_exact_for_unstructured_releases((a, b, c) in (1usize..=12).prop_flat_map(|m| release(m, 3.0))) {
        assert_exact(&a, &b, &c);
    }

    #[test]
    fn capacity_is_the_largest_realized_loss((a, b, c) in (1usize..=3).prop_flat_map(|m| release(m, 0.6))) {
        let kappa = capacity(&a, &b, &c).expect("complete");
        let grid = grid_max_loss(&a, &b, &c, 400);
        prop_assert!(
            (kappa - grid.max(0.0)).abs() <= 1e-4 * (1.0 + grid.abs()),
            "κ {kappa} vs grid maximum {grid}"
        );
    }

    #[test]
    fn an_exhausted_budget_never_yields_a_finite_capacity(
        (a, b, c) in (2usize..=12).prop_flat_map(|m| release(m, 3.0)),
        short in 0u64..40,
    ) {
        let m = a.len() as u64;
        // Each half of the budget must cover all m(m+1)/2 pairs.
        let budget = short.min(m * (m + 1) - 1);
        let kappa = TheoremChecker::new(1.0, SolverConfig::with_budget(budget)).capacity(&a, &b, &c);
        prop_assert!(kappa.is_none_or(|k| k == f64::INFINITY), "budget {budget}: {kappa:?}");
        let full = TheoremChecker::new(1.0, SolverConfig::with_budget(m * (m + 1))).capacity(&a, &b, &c);
        prop_assert!(full.is_some());
    }
}

/// Theorem inputs for every emission column of an α-PLM on a `side²`
/// world, at the first step and after committing one column.
fn plm_releases(side: usize, alpha: f64) -> Vec<(Vector, Vector, Vector)> {
    let (grid, provider) = homogeneous_world(side, 1.0);
    let m = grid.num_cells();
    let mechanism = plm(&grid, alpha);
    let mut builder = TheoremBuilder::new(&presence(m, m / 3, 1, 2), provider).unwrap();
    let mut out = Vec::new();
    for _ in 0..2 {
        for o in 0..m {
            let inputs = builder
                .candidate(&mechanism.emission_column(CellId(o)))
                .unwrap();
            out.push((inputs.a, inputs.b, inputs.c));
        }
        builder
            .commit(mechanism.emission_column(CellId(0)))
            .unwrap();
    }
    out
}

#[test]
fn capacity_is_exact_on_plm_worlds() {
    for (side, alpha) in [(3, 0.5), (3, 2.0), (5, 0.25), (5, 1.0)] {
        for (a, b, c) in plm_releases(side, alpha) {
            assert_exact(&a, &b, &c);
        }
    }
}

#[test]
fn an_elapsed_deadline_yields_no_capacity() {
    let (a, b, c) = plm_releases(3, 1.0).swap_remove(4);
    let config = SolverConfig {
        deadline: Some(Duration::ZERO),
        ..SolverConfig::default()
    };
    assert_eq!(TheoremChecker::new(1.0, config).capacity(&a, &b, &c), None);
}

#[test]
fn a_release_that_reveals_the_event_has_infinite_capacity() {
    // From state 1 the event is possible (a = 0.5) but o never happens
    // outside it (c = b): seeing o proves the event under that prior.
    let a = Vector::from(vec![0.3, 0.5]);
    let b = Vector::from(vec![0.1, 0.4]);
    let c = Vector::from(vec![0.3, 0.4]);
    assert_eq!(capacity(&a, &b, &c), Some(f64::INFINITY));
    assert!(matches!(
        TheoremChecker::new(50.0, SolverConfig::default()).check(&a, &b, &c),
        TheoremVerdict::Violated { .. }
    ));
}
