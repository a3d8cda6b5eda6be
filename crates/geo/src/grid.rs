use crate::{GeoError, Result};

/// Typed index of a state (grid cell) in the domain `S = {s_1, …, s_m}`.
///
/// Internally 0-based. The paper numbers states from 1; use
/// [`CellId::from_one_based`] / [`CellId::one_based`] at the boundary where
/// paper notation (event DSL strings, experiment configs) meets code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub usize);

impl CellId {
    /// Builds a cell id from the paper's 1-based state number.
    ///
    /// # Panics
    /// Panics if `one_based == 0`.
    pub fn from_one_based(one_based: usize) -> Self {
        assert!(one_based > 0, "1-based cell index must be >= 1");
        CellId(one_based - 1)
    }

    /// The paper's 1-based state number for this cell.
    pub fn one_based(self) -> usize {
        self.0 + 1
    }

    /// Raw 0-based index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for CellId {
    fn from(i: usize) -> Self {
        CellId(i)
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Render in paper notation for logs and experiment output.
        write!(f, "s{}", self.one_based())
    }
}

/// A rectangular grid over a map, defining the finite state domain.
///
/// Cells are numbered row-major: cell `(r, c)` has index `r * cols + c`.
/// Each cell is a `cell_size_km × cell_size_km` square; cell centers provide
/// the geometry for the Planar Laplace mechanism and for the Euclidean
/// distance utility metric (paper §V.A measures utility in km).
#[derive(Debug, Clone, PartialEq)]
pub struct GridMap {
    rows: usize,
    cols: usize,
    cell_size_km: f64,
}

impl GridMap {
    /// Creates a `rows × cols` grid of square cells with side `cell_size_km`.
    ///
    /// # Errors
    /// [`GeoError::EmptyGrid`] if either dimension is zero;
    /// [`GeoError::InvalidDimension`] for a non-positive or non-finite cell
    /// size.
    pub fn new(rows: usize, cols: usize, cell_size_km: f64) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(GeoError::EmptyGrid);
        }
        if !(cell_size_km.is_finite() && cell_size_km > 0.0) {
            return Err(GeoError::InvalidDimension {
                what: "cell size (km)",
                value: cell_size_km,
            });
        }
        Ok(GridMap {
            rows,
            cols,
            cell_size_km,
        })
    }

    /// The paper's default synthetic world: a 20×20 grid (§V.A) with 1 km
    /// cells.
    pub fn paper_synthetic() -> Self {
        GridMap::new(20, 20, 1.0).expect("static dimensions are valid")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Side length of each (square) cell in kilometres.
    pub fn cell_size_km(&self) -> f64 {
        self.cell_size_km
    }

    /// Total number of cells `m = rows × cols`.
    pub fn num_cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Converts a cell id to `(row, col)`.
    ///
    /// # Errors
    /// [`GeoError::CellOutOfRange`] if the id exceeds the domain.
    pub fn to_row_col(&self, cell: CellId) -> Result<(usize, usize)> {
        if cell.0 >= self.num_cells() {
            return Err(GeoError::CellOutOfRange {
                cell: cell.0,
                num_cells: self.num_cells(),
            });
        }
        Ok((cell.0 / self.cols, cell.0 % self.cols))
    }

    /// Converts `(row, col)` to a cell id.
    ///
    /// # Errors
    /// [`GeoError::CellOutOfRange`] if either coordinate is out of bounds.
    pub fn from_row_col(&self, row: usize, col: usize) -> Result<CellId> {
        if row >= self.rows || col >= self.cols {
            return Err(GeoError::CellOutOfRange {
                cell: row * self.cols + col,
                num_cells: self.num_cells(),
            });
        }
        Ok(CellId(row * self.cols + col))
    }

    /// Center of a cell in local planar km coordinates `(x, y)`, with the
    /// grid's north-west corner at the origin, `x` growing eastwards along
    /// columns and `y` growing southwards along rows.
    ///
    /// # Errors
    /// [`GeoError::CellOutOfRange`] if the id exceeds the domain.
    pub fn cell_center_km(&self, cell: CellId) -> Result<(f64, f64)> {
        let (r, c) = self.to_row_col(cell)?;
        Ok((
            (c as f64 + 0.5) * self.cell_size_km,
            (r as f64 + 0.5) * self.cell_size_km,
        ))
    }

    /// Euclidean distance between two cell centers in kilometres — the
    /// utility metric of §V.A.
    ///
    /// # Errors
    /// [`GeoError::CellOutOfRange`] if either id exceeds the domain.
    pub fn distance_km(&self, a: CellId, b: CellId) -> Result<f64> {
        let (ax, ay) = self.cell_center_km(a)?;
        let (bx, by) = self.cell_center_km(b)?;
        Ok(((ax - bx).powi(2) + (ay - by).powi(2)).sqrt())
    }

    /// Maps an arbitrary planar point (km) to the nearest cell, clamping
    /// points outside the grid onto the boundary. Used to discretize
    /// continuous Planar-Laplace samples.
    pub fn nearest_cell(&self, x_km: f64, y_km: f64) -> CellId {
        let col = ((x_km / self.cell_size_km).floor().max(0.0) as usize).min(self.cols - 1);
        let row = ((y_km / self.cell_size_km).floor().max(0.0) as usize).min(self.rows - 1);
        CellId(row * self.cols + col)
    }

    /// Precomputes the full pairwise distance table (km). `O(m²)` memory,
    /// for dense per-pair builders such as the exponential mechanism and
    /// the Gaussian-kernel chain.
    pub fn distance_table(&self) -> Vec<Vec<f64>> {
        let m = self.num_cells();
        let centers: Vec<(f64, f64)> = (0..m)
            .map(|i| self.cell_center_km(CellId(i)).expect("index in range"))
            .collect();
        centers
            .iter()
            .map(|&(ax, ay)| {
                centers
                    .iter()
                    .map(|&(bx, by)| ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt())
                    .collect()
            })
            .collect()
    }

    /// Iterator over all cell ids in index order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.num_cells()).map(CellId)
    }

    /// The 4-neighbourhood (N/S/E/W) of a cell, clipped at grid borders.
    ///
    /// # Errors
    /// [`GeoError::CellOutOfRange`] if the id exceeds the domain.
    pub fn neighbors4(&self, cell: CellId) -> Result<Vec<CellId>> {
        let (r, c) = self.to_row_col(cell)?;
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(CellId((r - 1) * self.cols + c));
        }
        if r + 1 < self.rows {
            out.push(CellId((r + 1) * self.cols + c));
        }
        if c > 0 {
            out.push(CellId(r * self.cols + c - 1));
        }
        if c + 1 < self.cols {
            out.push(CellId(r * self.cols + c + 1));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_based_roundtrip() {
        let c = CellId::from_one_based(1);
        assert_eq!(c.index(), 0);
        assert_eq!(c.one_based(), 1);
        assert_eq!(c.to_string(), "s1");
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn zero_one_based_panics() {
        let _ = CellId::from_one_based(0);
    }

    #[test]
    fn grid_construction_validates() {
        assert!(matches!(GridMap::new(0, 5, 1.0), Err(GeoError::EmptyGrid)));
        assert!(matches!(GridMap::new(5, 0, 1.0), Err(GeoError::EmptyGrid)));
        assert!(matches!(
            GridMap::new(2, 2, 0.0),
            Err(GeoError::InvalidDimension { .. })
        ));
        assert!(matches!(
            GridMap::new(2, 2, f64::NAN),
            Err(GeoError::InvalidDimension { .. })
        ));
    }

    #[test]
    fn paper_synthetic_is_20_by_20() {
        let g = GridMap::paper_synthetic();
        assert_eq!(g.num_cells(), 400);
        assert_eq!(g.rows(), 20);
    }

    #[test]
    fn row_col_roundtrip() {
        let g = GridMap::new(3, 4, 1.0).unwrap();
        for cell in g.cells() {
            let (r, c) = g.to_row_col(cell).unwrap();
            assert_eq!(g.from_row_col(r, c).unwrap(), cell);
        }
        assert!(g.to_row_col(CellId(12)).is_err());
        assert!(g.from_row_col(3, 0).is_err());
        assert!(g.from_row_col(0, 4).is_err());
    }

    #[test]
    fn centers_and_distances() {
        let g = GridMap::new(2, 2, 2.0).unwrap();
        assert_eq!(g.cell_center_km(CellId(0)).unwrap(), (1.0, 1.0));
        assert_eq!(g.cell_center_km(CellId(3)).unwrap(), (3.0, 3.0));
        let d = g.distance_km(CellId(0), CellId(3)).unwrap();
        assert!((d - 8.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(g.distance_km(CellId(1), CellId(1)).unwrap(), 0.0);
    }

    #[test]
    fn nearest_cell_clamps_to_grid() {
        let g = GridMap::new(2, 2, 1.0).unwrap();
        assert_eq!(g.nearest_cell(0.5, 0.5), CellId(0));
        assert_eq!(g.nearest_cell(1.5, 0.5), CellId(1));
        assert_eq!(g.nearest_cell(-10.0, -10.0), CellId(0));
        assert_eq!(g.nearest_cell(100.0, 100.0), CellId(3));
    }

    #[test]
    fn nearest_cell_inverts_center() {
        let g = GridMap::new(5, 7, 0.5).unwrap();
        for cell in g.cells() {
            let (x, y) = g.cell_center_km(cell).unwrap();
            assert_eq!(g.nearest_cell(x, y), cell);
        }
    }

    #[test]
    fn distance_table_is_symmetric_with_zero_diagonal() {
        let g = GridMap::new(3, 3, 1.0).unwrap();
        let t = g.distance_table();
        for (i, row) in t.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &v) in row.iter().enumerate() {
                assert!((v - t[j][i]).abs() < 1e-15);
            }
        }
        // Known distance: cells 0 and 8 of a 3x3 unit grid are 2√2 apart.
        assert!((t[0][8] - 8.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn neighbors_clip_at_borders() {
        let g = GridMap::new(3, 3, 1.0).unwrap();
        let corner = g.neighbors4(CellId(0)).unwrap();
        assert_eq!(corner.len(), 2);
        let center = g.neighbors4(CellId(4)).unwrap();
        assert_eq!(center.len(), 4);
        let edge = g.neighbors4(CellId(1)).unwrap();
        assert_eq!(edge.len(), 3);
    }
}
