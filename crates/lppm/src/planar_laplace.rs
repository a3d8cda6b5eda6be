use crate::lambert::planar_laplace_radius_icdf;
use crate::mechanism::{sample_row, Lppm};
use crate::{LppmError, Result};
use priste_geo::{CellId, GridMap};
use priste_linalg::{Matrix, Vector};
use rand::{Rng, RngCore};
use std::sync::OnceLock;

/// The α-Planar-Laplace mechanism (α-PLM) of Geo-indistinguishability
/// (Andrés et al., CCS'13) — the paper's §IV.C case-study LPPM.
///
/// The continuous mechanism adds polar-Laplace noise with density
/// `p(z|x) = α²/(2π) · e^{−α·d(x,z)}`; on the grid it becomes an emission
/// matrix whose row `i` integrates that density over each cell (midpoint
/// rule with `supersample × supersample` points per cell) and renormalizes —
/// grid truncation sends the small out-of-map mass back onto the map
/// proportionally, keeping rows stochastic.
///
/// On a regular grid the integral over output cell `j` from source cell `i`
/// depends only on their row and column offset `(|rᵢ−rⱼ|, |cᵢ−cⱼ|)`: the
/// integration points sit symmetrically about each cell centre, so the
/// sign of the offset does not matter. The mechanism therefore stores one
/// `rows × cols` kernel table plus one normalizer per source cell, built in
/// `O(rows·cols·supersample²)` density evaluations and `O(m²)` table
/// lookups, and every probability comes from one formula,
/// `kernel[|Δr|·cols + |Δc|] / row_sum[i]`.
/// [`Lppm::emission_column`] and [`Lppm::perturb`] read it directly;
/// [`Lppm::emission_matrix`] materializes the dense `m × m` matrix from it
/// on first call only, so all three agree bit for bit.
///
/// [`Lppm::perturb`] samples from the *discrete emission row*, so releases
/// and privacy accounting use the identical distribution;
/// [`PlanarLaplace::sample_continuous`] exposes the textbook continuous
/// sampler (angle uniform, radius via the Lambert `W₋₁` inverse CDF) for
/// applications working in the continuous plane.
#[derive(Debug, Clone)]
pub struct PlanarLaplace {
    grid: GridMap,
    alpha: f64,
    supersample: usize,
    /// Raw midpoint-rule kernel sum at cell offset `(dr, dc)`, stored at
    /// `dr · cols + dc`.
    kernel: Vec<f64>,
    /// Per source cell, the sum of its raw kernel row (the normalizer).
    row_sum: Vec<f64>,
    inside_mass: Vec<f64>,
    /// The dense emission matrix, built on the first
    /// [`Lppm::emission_matrix`] call.
    emission: OnceLock<Matrix>,
}

/// Default number of integration points per cell axis; 3×3 midpoints keep
/// the row error well under the stochasticity tolerance at the paper's grid
/// sizes while costing only 9 density evaluations per cell offset.
const DEFAULT_SUPERSAMPLE: usize = 3;

impl PlanarLaplace {
    /// Builds an α-PLM over `grid` with the default discretization quality.
    ///
    /// # Errors
    /// [`LppmError::InvalidBudget`] for a non-positive or non-finite `alpha`.
    pub fn new(grid: GridMap, alpha: f64) -> Result<Self> {
        Self::with_supersample(grid, alpha, DEFAULT_SUPERSAMPLE)
    }

    /// Builds an α-PLM with `supersample²` integration points per cell
    /// (≥ 1). Higher values tighten the discretization; the density
    /// evaluations grow quadratically in `supersample`, once per cell
    /// offset (`rows · cols` of them), not per pair of cells.
    ///
    /// # Errors
    /// [`LppmError::InvalidBudget`] for a non-positive or non-finite `alpha`.
    pub fn with_supersample(grid: GridMap, alpha: f64, supersample: usize) -> Result<Self> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(LppmError::InvalidBudget { value: alpha });
        }
        let supersample = supersample.max(1);
        let mut plm = PlanarLaplace {
            kernel: build_kernel(&grid, alpha, supersample),
            grid,
            alpha,
            supersample,
            row_sum: Vec::new(),
            inside_mass: Vec::new(),
            emission: OnceLock::new(),
        };
        let m = plm.grid.num_cells();
        let mut line = vec![0.0; m];
        plm.row_sum = (0..m)
            .map(|i| {
                plm.kernel_into(i, &mut line);
                line.iter().sum()
            })
            .collect();
        // Full-plane integral of the kernel e^{−αd} is 2π/α²; the midpoint
        // sum approximates ∫_cell e^{−αd} / step².
        let step = plm.grid.cell_size_km() / supersample as f64;
        let full_plane = std::f64::consts::TAU / (alpha * alpha);
        plm.inside_mass = plm
            .row_sum
            .iter()
            .map(|&s| (s * step * step / full_plane).min(1.0))
            .collect();
        if plm.kernel[0] == 0.0 {
            // Every density evaluation underflowed (only an enormous α with
            // an even `supersample` gets here): release uniformly, as a
            // row-normalization of all-zero rows would.
            plm.kernel.fill(1.0);
            plm.row_sum.fill(m as f64);
        }
        Ok(plm)
    }

    /// The underlying grid.
    pub fn grid(&self) -> &GridMap {
        &self.grid
    }

    /// Per-source-cell fraction of the continuous mechanism's mass that the
    /// grid captures (before row renormalization).
    ///
    /// Renormalization re-injects the lost `1 − inside_mass[i]` onto the
    /// grid, so the *discrete* mechanism satisfies geo-indistinguishability
    /// only up to the factor `inside_mass[x₂] / inside_mass[x₁]`: values
    /// near 1 (tight budgets, interior cells) mean the nominal `e^{α·d}`
    /// bound holds essentially exactly; boundary cells with loose budgets
    /// deviate by this measurable factor. PriSTE's event-privacy accounting
    /// is unaffected either way — it always consumes the actual emission
    /// matrix.
    pub fn inside_mass(&self) -> &[f64] {
        &self.inside_mass
    }

    /// Draws a continuous planar-Laplace perturbation of the true cell's
    /// center: returns `(x_km, y_km)` in grid coordinates. The caller may
    /// re-discretize with [`GridMap::nearest_cell`].
    ///
    /// # Errors
    /// [`LppmError::CellOutOfRange`] for an out-of-domain cell.
    pub fn sample_continuous<R: Rng + ?Sized>(
        &self,
        true_loc: CellId,
        rng: &mut R,
    ) -> Result<(f64, f64)> {
        let (cx, cy) =
            self.grid
                .cell_center_km(true_loc)
                .map_err(|_| LppmError::CellOutOfRange {
                    cell: true_loc.index(),
                    num_cells: self.grid.num_cells(),
                })?;
        let theta = rng.gen::<f64>() * std::f64::consts::TAU;
        let r = planar_laplace_radius_icdf(self.alpha, rng.gen::<f64>());
        Ok((cx + r * theta.cos(), cy + r * theta.sin()))
    }

    /// `Pr(o = s_j | u = s_i)`, the formula behind every probability the
    /// mechanism reports; [`PlanarLaplace::row_into`] and
    /// [`Lppm::emission_column`] evaluate it a grid row at a time.
    fn entry(&self, i: usize, j: usize) -> f64 {
        let cols = self.grid.cols();
        let dr = (i / cols).abs_diff(j / cols);
        let dc = (i % cols).abs_diff(j % cols);
        self.kernel[dr * cols + dc] / self.row_sum[i]
    }

    /// Writes emission row `i` into `out` (length `m`), entry for entry
    /// equal to [`PlanarLaplace::entry`].
    pub(crate) fn row_into(&self, i: usize, out: &mut [f64]) {
        self.kernel_into(i, out);
        let sum = self.row_sum[i];
        for v in out {
            *v /= sum;
        }
    }

    /// Writes the raw kernel value at every cell's offset from `cell` into
    /// `out` (length `m`, cell order), one grid row at a time and without an
    /// integer division per cell.
    fn kernel_into(&self, cell: usize, out: &mut [f64]) {
        let cols = self.grid.cols();
        assert!(cell < out.len(), "cell {cell} out of range");
        let (r0, c0) = (cell / cols, cell % cols);
        for (r, dst) in out.chunks_exact_mut(cols).enumerate() {
            let line = &self.kernel[r.abs_diff(r0) * cols..][..cols];
            // Columns left of `c0` read the line backwards from offset c0,
            // the rest read it forwards from offset 0.
            let (left, right) = dst.split_at_mut(c0);
            for (v, &k) in left.iter_mut().zip(line[1..=c0].iter().rev()) {
                *v = k;
            }
            right.copy_from_slice(&line[..cols - c0]);
        }
    }
}

impl Lppm for PlanarLaplace {
    fn num_cells(&self) -> usize {
        self.grid.num_cells()
    }

    fn budget(&self) -> f64 {
        self.alpha
    }

    fn emission_matrix(&self) -> &Matrix {
        self.emission.get_or_init(|| {
            let m = self.num_cells();
            let mut e = Matrix::zeros(m, m);
            for i in 0..m {
                self.row_into(i, e.row_mut(i));
            }
            e
        })
    }

    fn emission_column(&self, observation: CellId) -> Vector {
        let mut column = vec![0.0; self.num_cells()];
        self.kernel_into(observation.index(), &mut column);
        for (v, &sum) in column.iter_mut().zip(&self.row_sum) {
            *v /= sum;
        }
        Vector::from(column)
    }

    fn perturb(&self, true_loc: CellId, rng: &mut dyn RngCore) -> CellId {
        let i = true_loc.index();
        CellId(sample_row(self.num_cells(), |j| self.entry(i, j), rng))
    }

    fn with_budget(&self, budget: f64) -> Result<Box<dyn Lppm>> {
        Ok(Box::new(PlanarLaplace::with_supersample(
            self.grid.clone(),
            budget,
            self.supersample,
        )?))
    }
}

/// Integrates the continuous density over one output cell at every
/// `(row, column)` offset from the source cell, returning the raw
/// midpoint-rule kernel sums (`rows × cols`, row-major). The per-sample
/// area factors cancel in the row normalization, so they are left out.
fn build_kernel(grid: &GridMap, alpha: f64, supersample: usize) -> Vec<f64> {
    let cell = grid.cell_size_km();
    let step = cell / supersample as f64;
    // Integration points relative to the output cell's centre.
    let offsets: Vec<f64> = (0..supersample)
        .map(|k| (k as f64 + 0.5) * step - cell / 2.0)
        .collect();
    let mut kernel = Vec::with_capacity(grid.num_cells());
    for dr in 0..grid.rows() {
        for dc in 0..grid.cols() {
            let (x, y) = (dc as f64 * cell, dr as f64 * cell);
            let mut mass = 0.0;
            for &ox in &offsets {
                for &oy in &offsets {
                    let d = ((x + ox).powi(2) + (y + oy).powi(2)).sqrt();
                    mass += (-alpha * d).exp();
                }
            }
            kernel.push(mass);
        }
    }
    kernel
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid5() -> GridMap {
        GridMap::new(5, 5, 1.0).unwrap()
    }

    #[test]
    fn rejects_invalid_budget() {
        assert!(matches!(
            PlanarLaplace::new(grid5(), 0.0),
            Err(LppmError::InvalidBudget { .. })
        ));
        assert!(PlanarLaplace::new(grid5(), f64::INFINITY).is_err());
        assert!(PlanarLaplace::new(grid5(), -1.0).is_err());
    }

    #[test]
    fn emission_is_stochastic() {
        for alpha in [0.1, 0.5, 1.0, 5.0] {
            let plm = PlanarLaplace::new(grid5(), alpha).unwrap();
            plm.emission_matrix().validate_stochastic().unwrap();
        }
    }

    #[test]
    fn diagonal_dominates_for_tight_budget() {
        let plm = PlanarLaplace::new(grid5(), 5.0).unwrap();
        let e = plm.emission_matrix();
        for i in 0..25 {
            let row = e.row(i);
            let diag = row[i];
            for (j, &p) in row.iter().enumerate() {
                if j != i {
                    assert!(diag > p, "row {i}: diag {diag} <= off {p} at {j}");
                }
            }
        }
    }

    #[test]
    fn emission_decays_with_distance() {
        let grid = GridMap::new(1, 8, 1.0).unwrap();
        let plm = PlanarLaplace::new(grid, 1.0).unwrap();
        let row = plm.emission_matrix().row(0);
        for w in row.windows(2) {
            assert!(w[0] > w[1], "row not decaying: {row:?}");
        }
    }

    #[test]
    fn geo_indistinguishability_bound_holds_up_to_truncation() {
        // For the continuous mechanism p(o|x₁) ≤ e^{α·d(x₁,x₂)}·p(o|x₂)
        // exactly; grid truncation renormalizes each row by 1/inside_mass,
        // so the discrete bound carries the factor inside[x₂]/inside[x₁].
        // Verify that corrected bound with small quadrature headroom.
        let grid = grid5();
        let alpha = 1.0;
        let plm = PlanarLaplace::with_supersample(grid.clone(), alpha, 4).unwrap();
        let e = plm.emission_matrix();
        let inside = plm.inside_mass();
        for x1 in 0..25 {
            for x2 in 0..25 {
                let d = grid.distance_km(CellId(x1), CellId(x2)).unwrap();
                let bound = (alpha * d).exp() * (inside[x2] / inside[x1]) * 1.02;
                for o in 0..25 {
                    let p1 = e.get(x1, o);
                    let p2 = e.get(x2, o);
                    assert!(p1 <= bound * p2, "({x1},{x2})→{o}: {p1} vs {bound} · {p2}");
                }
            }
        }
    }

    #[test]
    fn geo_indistinguishability_is_essentially_exact_for_tight_budgets() {
        // With α = 4 on a 5×5 grid almost no mass leaves the map, so the
        // nominal e^{α·d} bound holds with only quadrature slack.
        let grid = grid5();
        let alpha = 4.0;
        let plm = PlanarLaplace::with_supersample(grid.clone(), alpha, 8).unwrap();
        let e = plm.emission_matrix();
        // Interior cells capture nearly all mass at this budget (the ~2%
        // deficit is midpoint-rule error at the density cusp, not leakage).
        assert!(
            plm.inside_mass()[12] > 0.95,
            "inside mass {}",
            plm.inside_mass()[12]
        );
        for x1 in 0..25 {
            for x2 in 0..25 {
                let d = grid.distance_km(CellId(x1), CellId(x2)).unwrap();
                let bound = (alpha * d).exp() * 1.10;
                for o in 0..25 {
                    assert!(e.get(x1, o) <= bound * e.get(x2, o));
                }
            }
        }
    }

    #[test]
    fn inside_mass_reflects_boundary_truncation() {
        let plm = PlanarLaplace::new(grid5(), 1.0).unwrap();
        let inside = plm.inside_mass();
        // Center keeps more mass than a corner; all fractions in (0, 1].
        assert!(inside[12] > inside[0]);
        for &f in inside {
            assert!(f > 0.0 && f <= 1.0);
        }
    }

    #[test]
    fn smaller_alpha_is_flatter() {
        let tight = PlanarLaplace::new(grid5(), 2.0).unwrap();
        let loose = PlanarLaplace::new(grid5(), 0.1).unwrap();
        // Self-emission probability shrinks as the budget loosens.
        assert!(tight.emission_matrix().get(12, 12) > loose.emission_matrix().get(12, 12));
        // And the loose mechanism approaches uniform: max/min ratio is small.
        let row = loose.emission_matrix().row(12);
        let max = row.iter().cloned().fold(0.0_f64, f64::max);
        let min = row.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < (0.1 * 6.0_f64.hypot(6.0)).exp() * 1.1);
    }

    #[test]
    fn perturb_matches_emission_row_frequencies() {
        for (rows, cols, true_cell) in [(2, 2, 1), (3, 4, 6)] {
            let grid = GridMap::new(rows, cols, 1.0).unwrap();
            let plm = PlanarLaplace::new(grid, 0.8).unwrap();
            let mut rng = StdRng::seed_from_u64(99);
            let n = 60_000;
            let mut counts = vec![0usize; rows * cols];
            for _ in 0..n {
                counts[plm.perturb(CellId(true_cell), &mut rng).index()] += 1;
            }
            let row = plm.emission_matrix().row(true_cell);
            for (c, &expect) in counts.iter().zip(row) {
                let f = *c as f64 / n as f64;
                assert!((f - expect).abs() < 0.01, "{rows}x{cols}: {f} vs {expect}");
            }
        }
    }

    #[test]
    fn serving_reads_never_materialize_the_matrix() {
        let plm = PlanarLaplace::new(GridMap::new(4, 6, 0.5).unwrap(), 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for round in 0..10 {
            for o in 0..plm.num_cells() {
                let column = plm.emission_column(CellId(o));
                assert_eq!(column.len(), 24);
                plm.perturb(CellId((o + round) % 24), &mut rng);
            }
            let rung = plm.with_budget(1.5 / f64::from(1 << round)).unwrap();
            rung.emission_column(CellId(round));
        }
        assert!(plm.emission.get().is_none());
        plm.emission_matrix();
        assert!(plm.emission.get().is_some());
    }

    #[test]
    fn an_underflowed_kernel_releases_uniformly() {
        // With an even supersample no integration point sits on the cell
        // centre, so at α = 10⁴ every density evaluation underflows to 0.
        let plm =
            PlanarLaplace::with_supersample(GridMap::new(2, 3, 1.0).unwrap(), 1e4, 2).unwrap();
        assert!(plm.inside_mass().iter().all(|&f| f == 0.0));
        let e = plm.emission_matrix();
        assert!(e.as_slice().iter().all(|&p| p == 1.0 / 6.0));
        assert_eq!(plm.emission_column(CellId(4)).as_slice(), &[1.0 / 6.0; 6]);
    }

    #[test]
    fn with_budget_halves_cleanly() {
        let plm = PlanarLaplace::new(grid5(), 0.2).unwrap();
        let halved = plm.with_budget(0.1).unwrap();
        assert_eq!(halved.budget(), 0.1);
        assert_eq!(halved.num_cells(), 25);
        halved.emission_matrix().validate_stochastic().unwrap();
        assert!(halved.with_budget(0.0).is_err());
    }

    #[test]
    fn continuous_sampler_centers_on_true_location() {
        let plm = PlanarLaplace::new(grid5(), 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let (cx, cy) = plm.grid().cell_center_km(CellId(12)).unwrap();
        let n = 20_000;
        let (mut sx, mut sy) = (0.0, 0.0);
        for _ in 0..n {
            let (x, y) = plm.sample_continuous(CellId(12), &mut rng).unwrap();
            sx += x;
            sy += y;
        }
        // Noise is symmetric: the sample mean converges to the center.
        assert!((sx / n as f64 - cx).abs() < 0.05);
        assert!((sy / n as f64 - cy).abs() < 0.05);
    }

    #[test]
    fn continuous_radius_has_expected_mean() {
        // Polar Laplace radius has mean 2/α.
        let plm = PlanarLaplace::new(grid5(), 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let (cx, cy) = plm.grid().cell_center_km(CellId(12)).unwrap();
        let n = 30_000;
        let mut sum_r = 0.0;
        for _ in 0..n {
            let (x, y) = plm.sample_continuous(CellId(12), &mut rng).unwrap();
            sum_r += ((x - cx).powi(2) + (y - cy).powi(2)).sqrt();
        }
        let mean = sum_r / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean radius {mean}, expected 4.0");
    }

    #[test]
    fn continuous_sampler_rejects_bad_cell() {
        let plm = PlanarLaplace::new(grid5(), 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        assert!(matches!(
            plm.sample_continuous(CellId(25), &mut rng),
            Err(LppmError::CellOutOfRange { .. })
        ));
    }
}
