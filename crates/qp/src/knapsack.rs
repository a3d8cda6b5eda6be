//! The budgeted-allocation LP `priste-calibrate`'s knapsack planner solves
//! over its concavified per-step utility segments:
//!
//! * [`max_budgeted`] — `max π·w  s.t.  π·a ≤ C,  0 ≤ π ≤ 1`.
//!
//! With a single linear constraint plus box bounds, an optimal vertex has
//! at most one fractional coordinate and the exchange argument makes the
//! density-greedy order optimal — an exact LP solution, not a heuristic.

use priste_linalg::Vector;

/// Solution of the budgeted LP.
#[derive(Debug, Clone)]
pub struct SliceSolution {
    /// Optimal objective value.
    pub value: f64,
    /// An optimal point.
    pub point: Vector,
}

/// `max π·w` s.t. `π·a ≤ capacity`, `0 ≤ π ≤ 1`, with `a ≥ 0` — the
/// budgeted-allocation LP: spend a shared capacity on the items whose
/// value-per-mass density `w_i/a_i` is highest.
///
/// This is the entry point `priste-calibrate`'s knapsack planner drives:
/// each item is one concavified utility segment of one timestep, `a_i` its
/// ε-mass and `w_i` its utility gain, and `capacity` the horizon's total
/// certified ε-mass. Non-positive weights are never taken (the constraint
/// is an inequality, so they cannot be forced), and `π = 0` is always
/// feasible — the LP only returns `None` for a negative capacity.
///
/// Tie-breaking is deterministic and part of the contract: among items of
/// equal density the *higher-index* items are preferred (the shedding pass
/// reduces lower indices first), which callers exploit by ordering items so
/// that later-preferred choices carry higher indices.
pub fn max_budgeted(w: &Vector, a: &Vector, capacity: f64) -> Option<SliceSolution> {
    let n = w.len();
    debug_assert_eq!(a.len(), n);
    if capacity < -1e-12 {
        return None;
    }
    let capacity = capacity.clamp(0.0, a.sum());

    // Unconstrained optimum: take all strictly positive weights.
    let mut point = Vector::zeros(n);
    let mut value = 0.0;
    let mut mass = 0.0;
    for i in 0..n {
        if w[i] > 0.0 {
            point[i] = 1.0;
            value += w[i];
            mass += a[i];
        }
    }
    if mass > capacity {
        // Shed (mass − capacity) units of a-mass at the cheapest objective
        // cost: reduce selected coordinates in ascending density w_i/a_i.
        let mut order: Vec<usize> = (0..n).filter(|&i| point[i] > 0.0 && a[i] > 0.0).collect();
        order.sort_by(|&i, &j| {
            let di = w[i] / a[i];
            let dj = w[j] / a[j];
            di.partial_cmp(&dj).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut excess = mass - capacity;
        for &i in &order {
            if excess <= 0.0 {
                break;
            }
            let drop = (excess / a[i]).min(1.0);
            point[i] -= drop;
            value -= drop * w[i];
            excess -= drop * a[i];
        }
    }
    Some(SliceSolution { value, point })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn band_unconstrained_when_positive_mass_fits() {
        let sol = max_budgeted(
            &Vector::from(vec![2.0, -1.0, 3.0]),
            &Vector::from(vec![0.5, 0.5, 0.5]),
            2.0,
        )
        .unwrap();
        assert!((sol.value - 5.0).abs() < 1e-12);
    }

    #[test]
    fn band_sheds_cheapest_mass_when_over() {
        // Both positive, but capacity forces ≤ 0.5 mass: keep the denser one.
        let sol = max_budgeted(
            &Vector::from(vec![3.0, 1.0]),
            &Vector::from(vec![0.5, 0.5]),
            0.5,
        )
        .unwrap();
        assert!((sol.value - 3.0).abs() < 1e-12);
    }

    /// Exact LP oracle for the budgeted problem by basic-solution
    /// enumeration: an optimal vertex either leaves the capacity slack
    /// (every coordinate at a box bound) or binds it with at most one
    /// fractional coordinate.
    fn brute_force_budgeted(w: &Vector, a: &Vector, capacity: f64) -> f64 {
        let n = w.len();
        assert!(n <= 4);
        let mut best = f64::NEG_INFINITY;
        for mask in 0..(1u32 << n) {
            let mass: f64 = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| a[i]).sum();
            let val: f64 = (0..n).filter(|&i| mask >> i & 1 == 1).map(|i| w[i]).sum();
            if mass <= capacity + 1e-9 {
                best = best.max(val);
            }
            for j in 0..n {
                if mask >> j & 1 == 1 || a[j] == 0.0 {
                    continue;
                }
                let frac = (capacity - mass) / a[j];
                if (0.0..=1.0).contains(&frac) {
                    best = best.max(val + frac * w[j]);
                }
            }
        }
        best
    }

    #[test]
    fn budgeted_takes_densest_items_first() {
        // Densities 6, 1; capacity for one unit of mass: all of item 0,
        // none of item 1.
        let sol = max_budgeted(
            &Vector::from(vec![3.0, 1.0]),
            &Vector::from(vec![0.5, 1.0]),
            0.5,
        )
        .unwrap();
        assert!((sol.value - 3.0).abs() < 1e-12);
        assert!((sol.point[0] - 1.0).abs() < 1e-12);
        assert!(sol.point[1].abs() < 1e-12);
    }

    #[test]
    fn budgeted_never_takes_negative_weights() {
        // Plenty of capacity, but the inequality never forces a loss.
        let sol = max_budgeted(
            &Vector::from(vec![2.0, -1.0]),
            &Vector::from(vec![1.0, 1.0]),
            10.0,
        )
        .unwrap();
        assert!((sol.value - 2.0).abs() < 1e-12);
        assert!(sol.point[1].abs() < 1e-12);
    }

    #[test]
    fn budgeted_zero_capacity_keeps_free_items_only() {
        let sol = max_budgeted(
            &Vector::from(vec![5.0, 2.0]),
            &Vector::from(vec![0.0, 1.0]),
            0.0,
        )
        .unwrap();
        assert!((sol.value - 5.0).abs() < 1e-12, "a_i = 0 items are free");
        assert!(sol.point[1].abs() < 1e-12);
    }

    #[test]
    fn budgeted_rejects_negative_capacity() {
        assert!(max_budgeted(&Vector::from(vec![1.0]), &Vector::from(vec![1.0]), -1.0).is_none());
    }

    #[test]
    fn budgeted_prefers_higher_indices_on_density_ties() {
        // Two identical items but capacity for only one: the documented
        // tie-break keeps the higher index (lower indices shed first).
        let sol = max_budgeted(
            &Vector::from(vec![1.0, 1.0]),
            &Vector::from(vec![1.0, 1.0]),
            1.0,
        )
        .unwrap();
        assert!((sol.value - 1.0).abs() < 1e-12);
        assert!(sol.point[0].abs() < 1e-12, "lower index shed: {sol:?}");
        assert!((sol.point[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budgeted_matches_brute_force_on_random_cases() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..500 {
            let n = rng.gen_range(1..=4);
            let w = Vector::from((0..n).map(|_| rng.gen_range(-2.0..2.0)).collect::<Vec<_>>());
            let a = Vector::from((0..n).map(|_| rng.gen_range(0.0..1.5)).collect::<Vec<_>>());
            let capacity = rng.gen::<f64>() * (a.sum() + 0.2);
            let exact = max_budgeted(&w, &a, capacity).unwrap();
            let brute = brute_force_budgeted(&w, &a, capacity);
            assert!(
                (exact.value - brute).abs() < 1e-9,
                "greedy {} != exact LP {brute} (w {:?}, a {:?}, C {capacity})",
                exact.value,
                w.as_slice(),
                a.as_slice()
            );
            let mass = exact.point.dot(&a).unwrap();
            assert!(mass <= capacity + 1e-9, "mass {mass} over capacity");
            for &p in exact.point.as_slice() {
                assert!((-1e-12..=1.0 + 1e-12).contains(&p));
            }
        }
    }

    #[test]
    fn budgeted_is_monotone_in_capacity() {
        let mut rng = StdRng::seed_from_u64(101);
        for _ in 0..50 {
            let n = rng.gen_range(1..=5);
            let w = Vector::from((0..n).map(|_| rng.gen_range(-1.0..2.0)).collect::<Vec<_>>());
            let a = Vector::from((0..n).map(|_| rng.gen::<f64>()).collect::<Vec<_>>());
            let total = a.sum();
            let mut prev = f64::NEG_INFINITY;
            for k in 0..=8 {
                let c = total * k as f64 / 8.0;
                let v = max_budgeted(&w, &a, c).unwrap().value;
                assert!(v >= prev - 1e-9, "value dropped as capacity grew");
                prev = v;
            }
        }
    }

    #[test]
    fn solutions_respect_box_and_constraint() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let n = rng.gen_range(1..=6);
            let w = Vector::from((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<_>>());
            let a = Vector::from((0..n).map(|_| rng.gen::<f64>()).collect::<Vec<_>>());
            let capacity = rng.gen::<f64>() * a.sum();
            let sol = max_budgeted(&w, &a, capacity).unwrap();
            for &p in sol.point.as_slice() {
                assert!((-1e-12..=1.0 + 1e-12).contains(&p));
            }
            let mass = sol.point.dot(&a).unwrap();
            assert!(
                mass <= capacity + 1e-9,
                "mass {mass} vs capacity {capacity}"
            );
        }
    }
}
