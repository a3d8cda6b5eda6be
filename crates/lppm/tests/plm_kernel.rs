//! The table-backed Planar Laplace against the per-pair quadrature it
//! replaced, and the `Lppm` contract that every reader of a mechanism —
//! `emission_matrix`, `emission_column`, `perturb` — sees the same numbers.

use priste_geo::{CellId, GridMap, Region};
use priste_linalg::{Matrix, Vector};
use priste_lppm::{
    DeltaLocationSet, ExponentialMechanism, Lppm, PlanarLaplace, RandomizedResponse,
    UniformMechanism,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The per-pair discretization: integrates the density over every (true
/// cell, output cell) pair with `supersample²` midpoints and renormalizes
/// each row. Returns the emission matrix and the inside-grid mass.
fn per_pair_emission(grid: &GridMap, alpha: f64, supersample: usize) -> (Matrix, Vec<f64>) {
    let m = grid.num_cells();
    let cell = grid.cell_size_km();
    let step = cell / supersample as f64;
    let offsets: Vec<f64> = (0..supersample).map(|k| (k as f64 + 0.5) * step).collect();
    let centers: Vec<(f64, f64)> = (0..m)
        .map(|i| grid.cell_center_km(CellId(i)).unwrap())
        .collect();
    let mut e = Matrix::zeros(m, m);
    let mut inside = Vec::with_capacity(m);
    let full_plane = std::f64::consts::TAU / (alpha * alpha);
    for (i, &(sx, sy)) in centers.iter().enumerate() {
        let mut row_sum = 0.0;
        for (j, v) in e.row_mut(i).iter_mut().enumerate() {
            let (jx, jy) = (centers[j].0 - cell / 2.0, centers[j].1 - cell / 2.0);
            let mut mass = 0.0;
            for &ox in &offsets {
                for &oy in &offsets {
                    let d = ((jx + ox - sx).powi(2) + (jy + oy - sy).powi(2)).sqrt();
                    mass += (-alpha * d).exp();
                }
            }
            *v = mass;
            row_sum += mass;
        }
        inside.push((row_sum * step * step / full_plane).min(1.0));
    }
    e.normalize_rows_mut();
    (e, inside)
}

fn assert_close(actual: f64, expected: f64, what: &str) {
    let scale = actual.abs().max(expected.abs());
    assert!(
        (actual - expected).abs() <= 1e-12 * scale,
        "{what}: {actual} vs per-pair {expected}"
    );
}

#[test]
fn kernel_table_matches_per_pair_quadrature() {
    for (rows, cols) in [(5, 5), (3, 7), (1, 8), (20, 20)] {
        for cell in [1.0, 0.37] {
            let grid = GridMap::new(rows, cols, cell).unwrap();
            for alpha in [0.1, 1.0, 5.0] {
                for supersample in [1, 3, 8] {
                    let plm =
                        PlanarLaplace::with_supersample(grid.clone(), alpha, supersample).unwrap();
                    let (reference, inside) = per_pair_emission(&grid, alpha, supersample);
                    let case = format!("{rows}x{cols} cell {cell} α {alpha} s {supersample}");
                    let e = plm.emission_matrix();
                    for (k, (&a, &b)) in e.as_slice().iter().zip(reference.as_slice()).enumerate() {
                        assert_close(a, b, &format!("{case} entry {k}"));
                    }
                    for (i, (&a, &b)) in plm.inside_mass().iter().zip(&inside).enumerate() {
                        assert_close(a, b, &format!("{case} inside_mass {i}"));
                    }
                }
            }
        }
    }
}

/// A prior that puts 0.999 of its mass evenly on `cells`, so the
/// δ = 0.01 location set is exactly `cells` (for fewer than 100 of them).
fn prior_on(m: usize, cells: &[usize]) -> Vector {
    let rest = (m - cells.len()) as f64;
    (0..m)
        .map(|i| {
            if cells.contains(&i) {
                0.999 / cells.len() as f64
            } else {
                0.001 / rest
            }
        })
        .collect()
}

fn every_mechanism() -> Vec<(String, Box<dyn Lppm>)> {
    let mut out: Vec<(String, Box<dyn Lppm>)> = Vec::new();
    for (rows, cols) in [(5, 5), (3, 7), (1, 8)] {
        let grid = GridMap::new(rows, cols, 0.7).unwrap();
        let m = grid.num_cells();
        let dls = DeltaLocationSet::new(grid.clone(), 0.01).unwrap();
        let prior = prior_on(m, &[0, m / 2, m - 2]);
        out.push((
            format!("plm {rows}x{cols}"),
            Box::new(PlanarLaplace::new(grid.clone(), 1.3).unwrap()),
        ));
        out.push((
            format!("plm s=4 {rows}x{cols}"),
            Box::new(PlanarLaplace::with_supersample(grid.clone(), 0.2, 4).unwrap()),
        ));
        out.push((
            format!("restricted {rows}x{cols}"),
            Box::new(dls.mechanism_for(&prior, 0.9).unwrap()),
        ));
        out.push((format!("uniform {m}"), Box::new(UniformMechanism::new(m))));
        out.push((
            format!("rr {m}"),
            Box::new(RandomizedResponse::new(m, 1.1).unwrap()),
        ));
        out.push((
            format!("exponential {rows}x{cols}"),
            Box::new(ExponentialMechanism::new(grid, 0.8).unwrap()),
        ));
    }
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn emission_column_is_bit_identical_to_the_matrix_column() {
    for (name, lppm) in every_mechanism() {
        for o in 0..lppm.num_cells() {
            assert_eq!(
                bits(lppm.emission_column(CellId(o)).as_slice()),
                bits(lppm.emission_matrix().col(o).as_slice()),
                "{name}: column {o}"
            );
        }
    }
}

/// The documented sampling rule, applied to a materialized matrix row.
fn sample_from_row(row: &[f64], rng: &mut StdRng) -> usize {
    let mut u = rng.gen::<f64>();
    for (j, &w) in row.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return j;
        }
    }
    row.iter().rposition(|&w| w > 0.0).unwrap_or(row.len() - 1)
}

#[test]
fn perturb_draws_exactly_what_the_matrix_row_draws() {
    for (name, lppm) in every_mechanism() {
        let e = lppm.emission_matrix();
        for i in 0..lppm.num_cells() {
            let mut mech_rng = StdRng::seed_from_u64(i as u64);
            let mut row_rng = StdRng::seed_from_u64(i as u64);
            for _ in 0..50 {
                assert_eq!(
                    lppm.perturb(CellId(i), &mut mech_rng).index(),
                    sample_from_row(e.row(i), &mut row_rng),
                    "{name}: true cell {i}"
                );
            }
        }
    }
}

/// `RestrictedPlm`'s construction rule applied to the base PLM's dense
/// matrix: each true cell reads its surrogate's row (itself inside the set,
/// else the nearest member, ties to the lower index), masked to the set and
/// renormalized.
fn restricted_from_dense(grid: &GridMap, set: &Region, alpha: f64) -> Matrix {
    let base = PlanarLaplace::new(grid.clone(), alpha).unwrap();
    let dense = base.emission_matrix();
    let m = grid.num_cells();
    let mask = set.indicator();
    let mut e = Matrix::zeros(m, m);
    for i in 0..m {
        let src = if set.contains(CellId(i)) {
            i
        } else {
            set.iter()
                .min_by(|&a, &b| {
                    let da = grid.distance_km(CellId(i), a).unwrap();
                    let db = grid.distance_km(CellId(i), b).unwrap();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap()
                .index()
        };
        for (j, v) in e.row_mut(i).iter_mut().enumerate() {
            *v = dense.get(src, j) * mask[j];
        }
    }
    e.normalize_rows_mut();
    e
}

#[test]
fn restricted_plm_equals_the_dense_assembly() {
    for (rows, cols) in [(5, 5), (3, 7)] {
        let grid = GridMap::new(rows, cols, 1.0).unwrap();
        let m = grid.num_cells();
        let dls = DeltaLocationSet::new(grid.clone(), 0.01).unwrap();
        for cells in [vec![0], vec![1, m / 2, m - 1], (0..m).step_by(2).collect()] {
            let prior = prior_on(m, &cells);
            for alpha in [0.3, 2.0] {
                let plm = dls.mechanism_for(&prior, alpha).unwrap();
                let set = plm.output_set();
                assert_eq!(set.len(), cells.len());
                assert_eq!(
                    bits(plm.emission_matrix().as_slice()),
                    bits(restricted_from_dense(&grid, set, alpha).as_slice()),
                    "{rows}x{cols}, {} cells, α {alpha}",
                    cells.len()
                );
            }
        }
    }
}
