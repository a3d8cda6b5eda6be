//! Baseline mechanisms: uniform release, randomized response, and the
//! discrete exponential mechanism.

use crate::mechanism::{sample_row, Lppm};
use crate::{LppmError, Result};
use priste_geo::{CellId, GridMap};
use priste_linalg::Matrix;
use rand::RngCore;

/// The uniform mechanism: every output cell is equally likely regardless of
/// the true location.
///
/// This is the `α → 0` limit of the Planar Laplace mechanism, and the reason
/// Algorithm 2's budget halving always terminates (§IV.C: "When α = 0, it
/// releases no useful information about the true location … Equations (15)
/// and (16) are always true in this situation").
#[derive(Debug, Clone)]
pub struct UniformMechanism {
    emission: Matrix,
}

impl UniformMechanism {
    /// Builds the uniform mechanism over `num_cells` states.
    ///
    /// # Panics
    /// Panics if `num_cells == 0`.
    pub fn new(num_cells: usize) -> Self {
        assert!(num_cells > 0, "uniform mechanism over zero cells");
        let mut e = Matrix::zeros(num_cells, num_cells);
        let p = 1.0 / num_cells as f64;
        for r in 0..num_cells {
            for v in e.row_mut(r) {
                *v = p;
            }
        }
        UniformMechanism { emission: e }
    }
}

impl Lppm for UniformMechanism {
    fn num_cells(&self) -> usize {
        self.emission.rows()
    }

    fn budget(&self) -> f64 {
        0.0
    }

    fn emission_matrix(&self) -> &Matrix {
        &self.emission
    }

    fn perturb(&self, _true_loc: CellId, rng: &mut dyn RngCore) -> CellId {
        let row = self.emission.row(0);
        CellId(sample_row(row.len(), |j| row[j], rng))
    }

    fn with_budget(&self, _budget: f64) -> Result<Box<dyn Lppm>> {
        Ok(Box::new(self.clone()))
    }
}

/// Randomized response over the discrete cell domain: report the true cell
/// with probability `e^ε / (e^ε + m − 1)`, otherwise a uniformly random
/// *other* cell. Satisfies ε-differential privacy over locations and serves
/// as a shape-contrast baseline to the distance-aware Planar Laplace.
#[derive(Debug, Clone)]
pub struct RandomizedResponse {
    epsilon: f64,
    emission: Matrix,
}

impl RandomizedResponse {
    /// Builds an ε-randomized-response mechanism over `num_cells` states.
    ///
    /// # Errors
    /// [`LppmError::InvalidBudget`] for a non-positive or non-finite `ε`.
    ///
    /// # Panics
    /// Panics if `num_cells == 0`.
    pub fn new(num_cells: usize, epsilon: f64) -> Result<Self> {
        assert!(num_cells > 0, "randomized response over zero cells");
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(LppmError::InvalidBudget { value: epsilon });
        }
        let e_eps = epsilon.exp();
        let denom = e_eps + (num_cells as f64 - 1.0);
        let p_true = e_eps / denom;
        let p_other = 1.0 / denom;
        let mut e = Matrix::zeros(num_cells, num_cells);
        for r in 0..num_cells {
            for (c, v) in e.row_mut(r).iter_mut().enumerate() {
                *v = if c == r { p_true } else { p_other };
            }
        }
        Ok(RandomizedResponse {
            epsilon,
            emission: e,
        })
    }
}

impl Lppm for RandomizedResponse {
    fn num_cells(&self) -> usize {
        self.emission.rows()
    }

    fn budget(&self) -> f64 {
        self.epsilon
    }

    fn emission_matrix(&self) -> &Matrix {
        &self.emission
    }

    fn perturb(&self, true_loc: CellId, rng: &mut dyn RngCore) -> CellId {
        let row = self.emission.row(true_loc.index());
        CellId(sample_row(row.len(), |j| row[j], rng))
    }

    fn with_budget(&self, budget: f64) -> Result<Box<dyn Lppm>> {
        Ok(Box::new(RandomizedResponse::new(self.num_cells(), budget)?))
    }
}

/// The discrete exponential mechanism over grid cells with the negative
/// Euclidean distance as quality score: `Pr(o = s_j | u = s_i) ∝
/// exp(−α·d(i,j)/2)`.
///
/// Unlike the grid-discretized [`crate::PlanarLaplace`] (whose boundary
/// truncation perturbs the bound — see `PlanarLaplace::inside_mass`), this
/// mechanism satisfies α-geo-indistinguishability **exactly** on the cell
/// domain: by the triangle inequality,
/// `Pr(o|x₁)/Pr(o|x₂) ≤ exp(α·d(x₁,x₂))` — the normalizers contribute a
/// second `exp(α·d/2)` factor, which is why the score uses `α/2`.
#[derive(Debug, Clone)]
pub struct ExponentialMechanism {
    grid: GridMap,
    alpha: f64,
    emission: Matrix,
}

impl ExponentialMechanism {
    /// Builds the mechanism over `grid` at budget `alpha`.
    ///
    /// # Errors
    /// [`LppmError::InvalidBudget`] for a non-positive or non-finite α.
    pub fn new(grid: GridMap, alpha: f64) -> Result<Self> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(LppmError::InvalidBudget { value: alpha });
        }
        let m = grid.num_cells();
        let dist = grid.distance_table();
        let mut e = Matrix::zeros(m, m);
        for (i, dist_row) in dist.iter().enumerate() {
            for (j, v) in e.row_mut(i).iter_mut().enumerate() {
                *v = (-0.5 * alpha * dist_row[j]).exp();
            }
        }
        e.normalize_rows_mut();
        Ok(ExponentialMechanism {
            grid,
            alpha,
            emission: e,
        })
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridMap {
        &self.grid
    }
}

impl Lppm for ExponentialMechanism {
    fn num_cells(&self) -> usize {
        self.grid.num_cells()
    }

    fn budget(&self) -> f64 {
        self.alpha
    }

    fn emission_matrix(&self) -> &Matrix {
        &self.emission
    }

    fn perturb(&self, true_loc: CellId, rng: &mut dyn RngCore) -> CellId {
        let row = self.emission.row(true_loc.index());
        CellId(sample_row(row.len(), |j| row[j], rng))
    }

    fn with_budget(&self, budget: f64) -> Result<Box<dyn Lppm>> {
        Ok(Box::new(ExponentialMechanism::new(
            self.grid.clone(),
            budget,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_rows_are_uniform() {
        let u = UniformMechanism::new(4);
        u.emission_matrix().validate_stochastic().unwrap();
        for r in 0..4 {
            assert_eq!(u.emission_matrix().row(r), &[0.25; 4]);
        }
        assert_eq!(u.budget(), 0.0);
    }

    #[test]
    fn uniform_perturb_ignores_input() {
        let u = UniformMechanism::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[u.perturb(CellId(2), &mut rng).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rr_satisfies_exact_dp_ratio() {
        let m = 5;
        let eps = 1.3;
        let rr = RandomizedResponse::new(m, eps).unwrap();
        let e = rr.emission_matrix();
        e.validate_stochastic().unwrap();
        let bound = eps.exp() * (1.0 + 1e-12);
        for x1 in 0..m {
            for x2 in 0..m {
                for o in 0..m {
                    assert!(e.get(x1, o) <= bound * e.get(x2, o));
                }
            }
        }
        // The bound is tight at (o = x1, x2 ≠ x1).
        let ratio = e.get(0, 0) / e.get(1, 0);
        assert!((ratio - eps.exp()).abs() < 1e-12);
    }

    #[test]
    fn rr_rejects_bad_epsilon() {
        assert!(matches!(
            RandomizedResponse::new(3, 0.0),
            Err(LppmError::InvalidBudget { .. })
        ));
        assert!(RandomizedResponse::new(3, f64::NAN).is_err());
    }

    #[test]
    fn rr_with_budget_rebuilds() {
        let rr = RandomizedResponse::new(4, 2.0).unwrap();
        let half = rr.with_budget(1.0).unwrap();
        assert_eq!(half.budget(), 1.0);
        // Smaller ε ⇒ less probability on the truth.
        assert!(half.emission_matrix().get(0, 0) < rr.emission_matrix().get(0, 0));
    }

    #[test]
    fn single_cell_domain_is_degenerate_but_valid() {
        let u = UniformMechanism::new(1);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(u.perturb(CellId(0), &mut rng), CellId(0));
    }

    #[test]
    fn exponential_mechanism_satisfies_exact_geo_indistinguishability() {
        let grid = GridMap::new(4, 4, 1.0).unwrap();
        let alpha = 1.3;
        let em = ExponentialMechanism::new(grid.clone(), alpha).unwrap();
        em.emission_matrix().validate_stochastic().unwrap();
        let e = em.emission_matrix();
        for x1 in 0..16 {
            for x2 in 0..16 {
                let d = grid.distance_km(CellId(x1), CellId(x2)).unwrap();
                let bound = (alpha * d).exp() * (1.0 + 1e-12);
                for o in 0..16 {
                    assert!(
                        e.get(x1, o) <= bound * e.get(x2, o),
                        "({x1},{x2})→{o}: exact geo-ind violated"
                    );
                }
            }
        }
    }

    #[test]
    fn exponential_mechanism_decays_with_distance() {
        let grid = GridMap::new(1, 6, 1.0).unwrap();
        let em = ExponentialMechanism::new(grid, 2.0).unwrap();
        let row = em.emission_matrix().row(0);
        for w in row.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn exponential_mechanism_budget_api() {
        let grid = GridMap::new(2, 2, 1.0).unwrap();
        assert!(ExponentialMechanism::new(grid.clone(), 0.0).is_err());
        let em = ExponentialMechanism::new(grid, 1.0).unwrap();
        assert_eq!(em.budget(), 1.0);
        let half = em.with_budget(0.5).unwrap();
        assert_eq!(half.budget(), 0.5);
        // Looser budget ⇒ flatter rows.
        assert!(half.emission_matrix().get(0, 0) < em.emission_matrix().get(0, 0));
    }

    #[test]
    fn exponential_mechanism_sampling_matches_rows() {
        let grid = GridMap::new(2, 2, 1.0).unwrap();
        let em = ExponentialMechanism::new(grid, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let n = 40_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[em.perturb(CellId(0), &mut rng).index()] += 1;
        }
        for (c, &expect) in counts.iter().zip(em.emission_matrix().row(0)) {
            let f = *c as f64 / n as f64;
            assert!((f - expect).abs() < 0.01, "{f} vs {expect}");
        }
    }
}
