//! The logical grid partition: mapping positions to grid coordinates,
//! grid centers, and neighbourhoods.

use crate::point::Point2;
use std::fmt;

/// A logical grid coordinate `(x, y)` in the paper's convention: grid
/// `(0, 0)` is the bottom-left cell, x grows rightwards, y grows upwards.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridCoord {
    pub x: i32,
    pub y: i32,
}

impl GridCoord {
    #[inline]
    pub const fn new(x: i32, y: i32) -> Self {
        GridCoord { x, y }
    }

    /// Chebyshev distance — 1 for each of the 8 surrounding grids.
    #[inline]
    pub fn chebyshev(self, other: GridCoord) -> i32 {
        (self.x - other.x).abs().max((self.y - other.y).abs())
    }

    /// Manhattan distance between grid coordinates.
    #[inline]
    pub fn manhattan(self, other: GridCoord) -> i32 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// True if `other` is one of the 8 neighbouring grids (not self).
    #[inline]
    pub fn is_neighbor(self, other: GridCoord) -> bool {
        self != other && self.chebyshev(other) <= 1
    }

    /// The 8 surrounding grid coordinates (may fall outside the field; the
    /// caller filters with [`GridMap::contains_cell`]).
    pub fn neighbors8(self) -> [GridCoord; 8] {
        let GridCoord { x, y } = self;
        [
            GridCoord::new(x - 1, y - 1),
            GridCoord::new(x, y - 1),
            GridCoord::new(x + 1, y - 1),
            GridCoord::new(x - 1, y),
            GridCoord::new(x + 1, y),
            GridCoord::new(x - 1, y + 1),
            GridCoord::new(x, y + 1),
            GridCoord::new(x + 1, y + 1),
        ]
    }
}

impl fmt::Debug for GridCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g({},{})", self.x, self.y)
    }
}

impl fmt::Display for GridCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The grid partition of a rectangular field.
///
/// The field spans `[0, width] x [0, height]` meters and is divided into
/// square cells of side `cell_side`.  Positions exactly on the far edge of
/// the field are mapped into the last cell so that a host parked on the
/// boundary still belongs to some grid.
///
/// ```
/// use geo::{GridMap, GridCoord, Point2};
///
/// let map = GridMap::paper_default(); // 1000 x 1000 m, 100 m cells
/// let host = Point2::new(250.0, 150.0);
/// let cell = map.cell_of(host);
/// assert_eq!(cell, GridCoord::new(2, 1));
/// assert_eq!(map.cell_center(cell), Point2::new(250.0, 150.0));
/// assert_eq!(map.neighbors_in_field(cell).count(), 8);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GridMap {
    width: f64,
    height: f64,
    cell_side: f64,
    cells_x: i32,
    cells_y: i32,
}

impl GridMap {
    /// Cells a world's grid may have along either axis: per-host tables
    /// keep a cell's coordinates in 16 bits each.
    pub const MAX_CELLS_PER_AXIS: i32 = u16::MAX as i32;

    /// Build a grid map.  Panics on non-positive dimensions.
    pub fn new(width: f64, height: f64, cell_side: f64) -> Self {
        assert!(width > 0.0 && height > 0.0, "field must have positive area");
        assert!(cell_side > 0.0, "cell side must be positive");
        let cells_x = (width / cell_side).ceil() as i32;
        let cells_y = (height / cell_side).ceil() as i32;
        GridMap {
            width,
            height,
            cell_side,
            cells_x,
            cells_y,
        }
    }

    /// The paper's evaluation field: 1000 x 1000 m, 100 m cells.
    pub fn paper_default() -> Self {
        GridMap::new(1000.0, 1000.0, 100.0)
    }

    #[inline]
    pub fn width(&self) -> f64 {
        self.width
    }

    #[inline]
    pub fn height(&self) -> f64 {
        self.height
    }

    #[inline]
    pub fn cell_side(&self) -> f64 {
        self.cell_side
    }

    #[inline]
    pub fn cells_x(&self) -> i32 {
        self.cells_x
    }

    #[inline]
    pub fn cells_y(&self) -> i32 {
        self.cells_y
    }

    /// Total number of cells in the partition.
    #[inline]
    pub fn cell_count(&self) -> usize {
        (self.cells_x as usize) * (self.cells_y as usize)
    }

    /// Map a position to its grid coordinate.  Positions outside the field
    /// are clamped into it first (mobility keeps hosts inside, but float
    /// round-off at the boundary must not produce an out-of-field cell).
    #[inline]
    pub fn cell_of(&self, p: Point2) -> GridCoord {
        let cx = ((p.x / self.cell_side) as i32).clamp(0, self.cells_x - 1);
        let cy = ((p.y / self.cell_side) as i32).clamp(0, self.cells_y - 1);
        GridCoord::new(cx, cy)
    }

    /// True if the coordinate denotes a cell inside the field.
    #[inline]
    pub fn contains_cell(&self, c: GridCoord) -> bool {
        c.x >= 0 && c.y >= 0 && c.x < self.cells_x && c.y < self.cells_y
    }

    /// The geographic center of a cell, in meters.  For edge cells that are
    /// cut off by the field boundary this is still the center of the full
    /// `d x d` square, matching the paper (hosts compare distance to it).
    #[inline]
    pub fn cell_center(&self, c: GridCoord) -> Point2 {
        Point2::new(
            (c.x as f64 + 0.5) * self.cell_side,
            (c.y as f64 + 0.5) * self.cell_side,
        )
    }

    /// Lower-left corner of a cell.
    #[inline]
    pub fn cell_origin(&self, c: GridCoord) -> Point2 {
        Point2::new(c.x as f64 * self.cell_side, c.y as f64 * self.cell_side)
    }

    /// In-field neighbours of a cell (up to 8).
    pub fn neighbors_in_field(&self, c: GridCoord) -> impl Iterator<Item = GridCoord> + '_ {
        c.neighbors8().into_iter().filter(|n| self.contains_cell(*n))
    }

    /// A dense index for a cell, usable for `Vec`-backed per-cell state.
    #[inline]
    pub fn cell_index(&self, c: GridCoord) -> usize {
        debug_assert!(self.contains_cell(c));
        (c.y as usize) * (self.cells_x as usize) + (c.x as usize)
    }

    /// Inverse of [`cell_index`](Self::cell_index).
    #[inline]
    pub fn cell_from_index(&self, i: usize) -> GridCoord {
        GridCoord::new(
            (i % self.cells_x as usize) as i32,
            (i / self.cells_x as usize) as i32,
        )
    }

    /// All cells in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = GridCoord> + '_ {
        (0..self.cell_count()).map(|i| self.cell_from_index(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> GridMap {
        GridMap::paper_default()
    }

    #[test]
    fn paper_default_has_100_cells() {
        assert_eq!(map().cell_count(), 100);
        assert_eq!(map().cells_x(), 10);
        assert_eq!(map().cells_y(), 10);
    }

    #[test]
    fn cell_of_maps_interior_points() {
        let m = map();
        assert_eq!(m.cell_of(Point2::new(0.0, 0.0)), GridCoord::new(0, 0));
        assert_eq!(m.cell_of(Point2::new(99.999, 99.999)), GridCoord::new(0, 0));
        assert_eq!(m.cell_of(Point2::new(100.0, 100.0)), GridCoord::new(1, 1));
        assert_eq!(m.cell_of(Point2::new(550.0, 120.0)), GridCoord::new(5, 1));
    }

    #[test]
    fn far_edge_maps_into_last_cell() {
        let m = map();
        assert_eq!(m.cell_of(Point2::new(1000.0, 1000.0)), GridCoord::new(9, 9));
        // even slightly-outside positions clamp in
        assert_eq!(m.cell_of(Point2::new(1000.0001, -0.0001)), GridCoord::new(9, 0));
    }

    #[test]
    fn cell_center_is_geometric_center() {
        let m = map();
        assert_eq!(m.cell_center(GridCoord::new(0, 0)), Point2::new(50.0, 50.0));
        assert_eq!(m.cell_center(GridCoord::new(9, 9)), Point2::new(950.0, 950.0));
    }

    #[test]
    fn neighbors8_excludes_self_and_has_eight() {
        let c = GridCoord::new(5, 5);
        let n = c.neighbors8();
        assert_eq!(n.len(), 8);
        assert!(!n.contains(&c));
        for x in n {
            assert!(c.is_neighbor(x));
        }
    }

    #[test]
    fn corner_cell_has_three_in_field_neighbors() {
        let m = map();
        let n: Vec<_> = m.neighbors_in_field(GridCoord::new(0, 0)).collect();
        assert_eq!(n.len(), 3);
        let n: Vec<_> = m.neighbors_in_field(GridCoord::new(9, 9)).collect();
        assert_eq!(n.len(), 3);
        let n: Vec<_> = m.neighbors_in_field(GridCoord::new(0, 5)).collect();
        assert_eq!(n.len(), 5);
        let n: Vec<_> = m.neighbors_in_field(GridCoord::new(4, 4)).collect();
        assert_eq!(n.len(), 8);
    }

    #[test]
    fn cell_index_roundtrip() {
        let m = map();
        for c in m.cells() {
            assert_eq!(m.cell_from_index(m.cell_index(c)), c);
        }
        assert_eq!(m.cells().count(), 100);
    }

    #[test]
    fn chebyshev_and_manhattan() {
        let a = GridCoord::new(1, 1);
        let b = GridCoord::new(4, 3);
        assert_eq!(a.chebyshev(b), 3);
        assert_eq!(a.manhattan(b), 5);
        assert!(!a.is_neighbor(b));
        assert!(!a.is_neighbor(a));
    }

    #[test]
    fn non_square_field() {
        let m = GridMap::new(500.0, 300.0, 100.0);
        assert_eq!(m.cells_x(), 5);
        assert_eq!(m.cells_y(), 3);
        assert_eq!(m.cell_count(), 15);
        assert!(m.contains_cell(GridCoord::new(4, 2)));
        assert!(!m.contains_cell(GridCoord::new(5, 0)));
        assert!(!m.contains_cell(GridCoord::new(0, 3)));
        assert!(!m.contains_cell(GridCoord::new(-1, 0)));
    }

    #[test]
    fn ragged_field_rounds_cell_count_up() {
        let m = GridMap::new(250.0, 250.0, 100.0);
        assert_eq!(m.cells_x(), 3);
        assert_eq!(m.cell_of(Point2::new(249.0, 249.0)), GridCoord::new(2, 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_side_panics() {
        GridMap::new(100.0, 100.0, 0.0);
    }
}
