//! Rectangles of grid coordinates — the RREQ *search area*.
//!
//! The paper confines route discovery to "the smallest rectangle that can
//! cover the grids of source S and destination D" (§3.3, Fig. 2); gateways
//! outside the rectangle ignore the RREQ.  [`GridRect::everywhere`] models
//! the global search that runs when the source knows no location for the
//! destination or the confined search failed.

use crate::grid::GridCoord;

/// An inclusive axis-aligned rectangle of grid coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridRect {
    pub min_x: i32,
    pub min_y: i32,
    pub max_x: i32,
    pub max_y: i32,
}

impl GridRect {
    /// Rectangle covering exactly the two given cells (the paper's default
    /// search area for a route request).
    pub fn covering(a: GridCoord, b: GridCoord) -> Self {
        GridRect {
            min_x: a.x.min(b.x),
            min_y: a.y.min(b.y),
            max_x: a.x.max(b.x),
            max_y: a.y.max(b.y),
        }
    }

    /// The unbounded search area used when a confined search failed or when
    /// the source has no location information for the destination.
    pub fn everywhere() -> Self {
        GridRect {
            min_x: i32::MIN,
            min_y: i32::MIN,
            max_x: i32::MAX,
            max_y: i32::MAX,
        }
    }

    /// Membership test used by every gateway that receives an RREQ.
    #[inline]
    pub fn contains(&self, c: GridCoord) -> bool {
        c.x >= self.min_x && c.x <= self.max_x && c.y >= self.min_y && c.y <= self.max_y
    }

    /// Number of cells inside the rectangle (saturating at `u64::MAX` for
    /// the global area).
    pub fn cell_count(&self) -> u64 {
        let w = (self.max_x as i64 - self.min_x as i64 + 1).max(0) as u64;
        let h = (self.max_y as i64 - self.min_y as i64 + 1).max(0) as u64;
        w.saturating_mul(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_matches_paper_example() {
        // Fig. 2: S in (1,1), D in (5,3) — search area bounded by grids
        // (1,1), (1,3), (5,1) and (5,3).
        let r = GridRect::covering(GridCoord::new(1, 1), GridCoord::new(5, 3));
        assert!(r.contains(GridCoord::new(1, 1)));
        assert!(r.contains(GridCoord::new(5, 3)));
        assert!(r.contains(GridCoord::new(3, 2)));
        assert!(!r.contains(GridCoord::new(0, 2)));
        assert!(!r.contains(GridCoord::new(2, 0)));
        assert_eq!(r.cell_count(), 15);
    }

    #[test]
    fn covering_is_order_independent() {
        let a = GridCoord::new(5, 1);
        let b = GridCoord::new(1, 3);
        assert_eq!(GridRect::covering(a, b), GridRect::covering(b, a));
    }

    #[test]
    fn single_cell_rect() {
        let r = GridRect::covering(GridCoord::new(2, 2), GridCoord::new(2, 2));
        assert_eq!(r.cell_count(), 1);
        assert!(r.contains(GridCoord::new(2, 2)));
        assert!(!r.contains(GridCoord::new(2, 3)));
    }

    #[test]
    fn everywhere_contains_anything() {
        let r = GridRect::everywhere();
        assert_eq!(r.cell_count(), u64::MAX);
        assert!(r.contains(GridCoord::new(i32::MIN, i32::MAX)));
        assert!(r.contains(GridCoord::new(0, 0)));
    }
}
