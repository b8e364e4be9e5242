//! Property tests for the neighbor indexes.  The channel's
//! `SpatialIndex`: for arbitrary placements, motions, and ranges, a
//! bucket-index query filtered by exact distance equals the brute-force
//! `within_range` scan — including points exactly on bucket boundaries and
//! pairs at distance == range (the disc is inclusive).  The world's
//! `CellIndex`: through any history of neighbour steps, far jumps and
//! removals, on any field shape and id universe, a gather equals the
//! ascending filter-scan of the maintained cells.

use ecgrid_suite::geo::{GridCoord, GridMap, Point2};
use ecgrid_suite::radio::{CellIndex, GatherScratch, SpatialIndex};
use proptest::prelude::*;

/// Brute-force reference: ids of all points within `range` of `q`.
fn brute_within(points: &[Point2], q: Point2, range: f64) -> Vec<u32> {
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| q.within_range(**p, range))
        .map(|(i, _)| i as u32)
        .collect()
}

/// Index-side query: 3×3 gather around `q`'s bucket, then the same exact
/// distance filter the simulator applies.
fn indexed_within(idx: &SpatialIndex, points: &[Point2], q: Point2, range: f64) -> Vec<u32> {
    let mut gathered = Vec::new();
    idx.query_point_sorted_into(q, &mut gathered);
    gathered.retain(|&i| q.within_range(points[i as usize], range));
    gathered
}

proptest! {
    /// Range-sized buckets: the 3×3 gather plus exact filter equals the
    /// full scan for random placements and query points.
    #[test]
    fn bucketed_range_query_equals_brute_force(
        coords in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..80),
        qx in 0.0..1000.0f64,
        qy in 0.0..1000.0f64,
        range in 50.0..400.0f64,
    ) {
        let points: Vec<Point2> = coords.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let mut idx = SpatialIndex::new(1000.0, 1000.0, range);
        for (i, p) in points.iter().enumerate() {
            idx.insert_at(i as u32, *p);
        }
        let q = Point2::new(qx, qy);
        prop_assert_eq!(indexed_within(&idx, &points, q, range), brute_within(&points, q, range));
    }

    /// ...and still after every point moves (incremental maintenance, not
    /// rebuild, is what the simulator exercises).
    #[test]
    fn query_survives_incremental_moves(
        coords in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..50),
        moves in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..50),
        qx in 0.0..1000.0f64,
        qy in 0.0..1000.0f64,
    ) {
        let range = 250.0;
        let mut points: Vec<Point2> = coords.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let mut idx = SpatialIndex::new(1000.0, 1000.0, range);
        for (i, p) in points.iter().enumerate() {
            idx.insert_at(i as u32, *p);
        }
        for (k, &(x, y)) in moves.iter().enumerate() {
            let i = k % points.len();
            points[i] = Point2::new(x, y);
            idx.move_to_point(i as u32, points[i]);
        }
        let q = Point2::new(qx, qy);
        prop_assert_eq!(indexed_within(&idx, &points, q, range), brute_within(&points, q, range));
    }

    /// Cell-keyed deployment: buckets are the paper's 100 m grid cells and
    /// the reach is the Chebyshev cell radius the radio can span.  Both
    /// indexes gather the multi-bucket neighborhood — the world's
    /// `CellIndex` and a cell-aligned `SpatialIndex` — and each gather
    /// must (a) reproduce the brute Chebyshev-filter contract exactly and
    /// (b) be a superset of everyone physically in radio range.
    #[test]
    fn cell_keyed_gather_matches_contract_and_covers_range(
        coords in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..80),
        qx in 0.0..1000.0f64,
        qy in 0.0..1000.0f64,
    ) {
        let grid = GridMap::paper_default();
        let range = 250.0;
        let reach = (range / grid.cell_side()).ceil() as i32 + 1;
        let points: Vec<Point2> = coords.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let cells: Vec<_> = points.iter().map(|&p| grid.cell_of(p)).collect();
        let flat = CellIndex::new(grid.cells_x(), grid.cells_y(), &cells);
        let mut heap = SpatialIndex::with_buckets(grid.cells_x(), grid.cells_y(), grid.cell_side());
        for (i, c) in cells.iter().enumerate() {
            heap.insert(i as u32, c.x, c.y);
        }
        let q = Point2::new(qx, qy);
        let qc = grid.cell_of(q);
        let (mut got_flat, mut got_heap) = (Vec::new(), Vec::new());
        flat.gather_sorted_with(&mut GatherScratch::default(), qc.x, qc.y, reach, &mut got_flat);
        heap.gather_sorted_into(qc.x, qc.y, reach, &mut got_heap);
        // (a) identical to the brute scan over maintained cells
        let want: Vec<u32> = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.chebyshev(qc) <= reach)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(&got_flat, &want, "CellIndex");
        prop_assert_eq!(&got_heap, &want, "SpatialIndex");
        // (b) superset of the true in-range set
        for (i, p) in points.iter().enumerate() {
            if q.within_range(*p, range) {
                prop_assert!(
                    want.contains(&(i as u32)),
                    "in-range point {:?} missing from the cell gather", p
                );
            }
        }
    }
}

/// The brute reference of a `CellIndex` gather: ascending ids whose cell
/// (`None` once removed) lies within Chebyshev `reach` of `q`.
fn filter_scan(cells: &[Option<GridCoord>], q: GridCoord, reach: i32) -> Vec<u32> {
    (0..cells.len() as u32)
        .filter(|&i| cells[i as usize].is_some_and(|c| c.chebyshev(q) <= reach))
        .collect()
}

/// Gather around `q` and compare with [`filter_scan`], plus the index's
/// own bookkeeping of where each id is.
fn gather_matches(
    idx: &CellIndex,
    cells: &[Option<GridCoord>],
    scratch: &mut GatherScratch,
    q: GridCoord,
    reach: i32,
) -> Result<(), TestCaseError> {
    let mut got = Vec::new();
    idx.gather_sorted_with(scratch, q.x, q.y, reach, &mut got);
    prop_assert_eq!(
        &got,
        &filter_scan(cells, q, reach),
        "gather at {q:?} reach {reach}"
    );
    prop_assert_eq!(idx.len(), cells.iter().flatten().count());
    Ok(())
}

/// Field shapes of the `CellIndex` property: a column, a row, and an
/// arbitrary rectangle.
fn field(shape: u8, a: i32, b: i32) -> (i32, i32) {
    match shape {
        0 => (1, a),
        1 => (a, 1),
        _ => (a, b),
    }
}

/// Id universes of the `CellIndex` property: below and around one bitset
/// word (64 ids) and around one bitset group (4 096 ids).
fn universe(pick: u8, jitter: usize) -> usize {
    match pick {
        0 => 1 + jitter % 63,
        1 => 60 + jitter % 9,
        2 => 100 + jitter % 400,
        _ => 4090 + jitter % 13,
    }
}

proptest! {
    /// Through any history, every gather of the world's cell index is the
    /// ascending filter-scan of the cells the model maintains.  A step
    /// picks an id and does one of: a step to one of its eight neighbour
    /// cells (ops 0–7, clamped to the field), a jump to any cell (8), or a
    /// removal (9, idempotent); removed ids are never moved.  After each
    /// step the test gathers around the id's cell and around a random one.
    #[test]
    fn cell_index_gather_equals_a_filter_scan_through_any_history(
        shape in 0u8..3,
        a in 1i32..40,
        b in 1i32..12,
        pick in 0u8..4,
        jitter in 0usize..10_000,
        placement in proptest::collection::vec((0i32..1000, 0i32..1000), 1..20),
        steps in proptest::collection::vec((0u8..10, 0usize..1_000_000, 0i32..1000, 0i32..1000), 1..40),
        reach in 0i32..5,
    ) {
        let (cols, rows) = field(shape, a, b);
        let n = universe(pick, jitter);
        // placements repeat cyclically, so many ids share few cells
        let start: Vec<GridCoord> = (0..n)
            .map(|i| {
                let (x, y) = placement[i % placement.len()];
                GridCoord::new((x + i as i32) % cols, y % rows)
            })
            .collect();
        let mut idx = CellIndex::new(cols, rows, &start);
        let mut cells: Vec<Option<GridCoord>> = start.into_iter().map(Some).collect();
        let mut scratch = GatherScratch::default();
        for c in [GridCoord::new(0, 0), GridCoord::new(cols - 1, rows - 1)] {
            gather_matches(&idx, &cells, &mut scratch, c, reach)?;
        }
        for (op, id, x, y) in steps {
            let id = id % n;
            let Some(at) = cells[id] else {
                idx.remove(id as u32); // a second removal changes nothing
                gather_matches(&idx, &cells, &mut scratch, GridCoord::new(x % cols, y % rows), reach)?;
                continue;
            };
            let to = match op {
                0..=7 => {
                    let (dx, dy) = [(-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)]
                        [op as usize];
                    Some(GridCoord::new((at.x + dx).clamp(0, cols - 1), (at.y + dy).clamp(0, rows - 1)))
                }
                8 => Some(GridCoord::new(x % cols, y % rows)),
                _ => None,
            };
            match to {
                Some(c) => idx.move_to(id as u32, c.x, c.y),
                None => idx.remove(id as u32),
            }
            cells[id] = to;
            prop_assert_eq!(idx.bucket_of_id(id as u32), to.map(|c| (c.x, c.y)));
            gather_matches(&idx, &cells, &mut scratch, at, reach)?;
            gather_matches(&idx, &cells, &mut scratch, GridCoord::new(x % cols, y % rows), reach)?;
        }
    }
}

#[test]
fn boundary_sitters_and_exact_range_are_included() {
    // Nodes exactly on bucket boundaries and a pair at distance == range:
    // the disc is inclusive (within_range uses <=), and the index must not
    // lose either case.
    let range = 250.0;
    let mut idx = SpatialIndex::new(1000.0, 1000.0, range);
    let q = Point2::new(250.0, 250.0); // exactly on a bucket corner
    let points = [
        Point2::new(0.0, 250.0),   // distance exactly == range, on an edge
        Point2::new(500.0, 250.0), // distance exactly == range, other side
        Point2::new(250.0, 0.0),   // exactly == range, below
        Point2::new(250.0, 500.0), // exactly == range, above
        Point2::new(250.0, 250.0), // co-located with the query point
        Point2::new(500.0, 500.0), // on a corner, within range? (353.5 > 250: no)
        Point2::new(250.0, 500.1), // just past the range
    ];
    for (i, p) in points.iter().enumerate() {
        idx.insert_at(i as u32, *p);
    }
    let got = indexed_within(&idx, &points, q, range);
    assert_eq!(got, vec![0, 1, 2, 3, 4]);
    assert_eq!(got, brute_within(&points, q, range));
}

#[test]
fn far_edge_clamp_does_not_separate_close_neighbors() {
    // A point exactly at the field edge clamps into the last bucket; a
    // neighbor just inside must still see it (the regression the clamp
    // proof in DESIGN.md §10 covers).
    let range = 250.0;
    let mut idx = SpatialIndex::new(1000.0, 1000.0, range);
    let points = [Point2::new(1000.0, 1000.0), Point2::new(999.0, 999.0)];
    for (i, p) in points.iter().enumerate() {
        idx.insert_at(i as u32, *p);
    }
    for &q in &points {
        assert_eq!(indexed_within(&idx, &points, q, range), vec![0, 1]);
    }
}
