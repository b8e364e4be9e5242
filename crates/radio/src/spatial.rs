//! A uniform grid-bucket spatial index over node positions.
//!
//! Receiver discovery is the simulator's hottest query: every transmission
//! must find the hosts its signal can reach.  A full scan is O(N) per
//! transmission — O(N²) per broadcast round in the dense regimes the paper
//! studies (100+ hosts, §4) — while a bucket index sized to the radio
//! range answers the same query from a constant-size neighborhood of
//! buckets.  ECGRID's own logical-grid partition (§3) is exactly such an
//! index, so the protocol's core idea also accelerates its simulator.
//!
//! Two deployments share this type:
//!
//! * the `World` keys buckets to the paper's logical grid cells (the
//!   per-node cell is already maintained by cell-crossing events) and
//!   queries a Chebyshev-`reach` neighborhood that covers the radio range;
//! * the channel keys in-flight transmissions by origin with buckets of
//!   side == range, so carrier-sense and interference checks query only
//!   the 3×3 neighborhood of the receiver's bucket.
//!
//! # Determinism contract
//!
//! [`gather_sorted_into`](SpatialIndex::gather_sorted_into) scans the
//! neighborhood buckets in row-major order and emits the gathered ids in
//! ascending order, so the result is the **ascending-id** candidate list — bit-for-bit
//! identical to a brute-force scan over the same membership, regardless of
//! insertion, movement, or removal history.  Bucket-internal order is
//! explicitly *not* part of the contract (removal is an O(1) swap-remove);
//! only the sorted gather is.  The golden-digest equivalence tests hold
//! the simulator to this: `NeighborIndex::Brute` and `NeighborIndex::Grid`
//! must replay bit-identically.

use geo::Point2;

/// How the world finds a transmission's candidate receivers.
///
/// Both modes produce the *same candidate list in the same order* (see the
/// module docs); the toggle exists so the equivalence is checkable at run
/// time and the brute path stays available as a benchmark baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NeighborIndex {
    /// Scan every node per query — O(N), the reference implementation.
    Brute,
    /// Query the maintained grid-bucket index — O(neighborhood).
    #[default]
    Grid,
}

/// Population at or below which grid-mode receiver discovery brute-scans
/// instead of gathering a Chebyshev-`reach` neighborhood.
///
/// A gather touches up to `(2·reach+1)²` bucket headers; the linear scan
/// touches every live member once.  Calibrated on the constant-density
/// bench family, the crossover sits near three members per queried bucket
/// — below that, header overhead dominates and brute wins (this is the
/// N ≤ 200 regression regime); above it the gather's candidate filtering
/// pays off.  Both paths emit the identical ascending-id candidate list,
/// so the choice is **digest-invariant** — it can flip per query mid-run
/// without perturbing the replay oracle (`tests/soa_equivalence.rs`).
pub fn auto_gather_threshold(reach: i32) -> usize {
    let span = (2 * reach + 1) as usize;
    3 * span * span
}

/// A member's current location inside the index (bucket + position within
/// the bucket's vector), kept so moves and removals are O(1) instead of a
/// linear rescan of the bucket.
#[derive(Clone, Copy, Debug)]
struct Slot {
    bucket: u32,
    pos: u32,
}

const NO_SLOT: Slot = Slot {
    bucket: u32::MAX,
    pos: u32::MAX,
};

/// Largest id universe served by the stack-bitmap emit path in
/// [`SpatialIndex::gather_sorted_into`] (a 512-byte bitmap).
const BITMAP_IDS: usize = 4096;

/// Largest id universe a [`GatherScratch`] orders (three 64-way levels).
const SCRATCH_IDS: usize = 64 * BITMAP_IDS;

/// Caller-owned scratch of [`SpatialIndex::gather_sorted_with`]: a sparse
/// bitset sized to the index's id universe.  It is all zeros between
/// gathers — a gather clears exactly the words it set — so, unlike the
/// stack bitmap of [`SpatialIndex::gather_sorted_into`], nothing is zeroed
/// per query and the universe may be any size up to [`SCRATCH_IDS`].
#[derive(Clone, Debug, Default)]
pub struct GatherScratch {
    /// One bit per id.
    words: Vec<u64>,
    /// One bit per non-zero word of `words`.
    touched: Vec<u64>,
}

impl GatherScratch {
    /// Grow (never shrink) to cover ids below `universe`.
    fn fit(&mut self, universe: usize) {
        let words = universe.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
            self.touched.resize(words.div_ceil(64), 0);
        }
    }
}

/// Uniform grid-bucket index mapping small integer ids (node or
/// transmission ids) to buckets.  See the module docs for the determinism
/// contract.
#[derive(Clone, Debug)]
pub struct SpatialIndex {
    side: f64,
    cols: i32,
    rows: i32,
    buckets: Vec<Vec<u32>>,
    /// Per-id slot bookkeeping; ids index this vector directly (they are
    /// dense small integers in both deployments).
    slots: Vec<Slot>,
    len: usize,
}

impl SpatialIndex {
    /// Index over a `[0, width] × [0, height]` field with square buckets of
    /// `side` meters (the last row/column absorbs any remainder, exactly
    /// like `geo::GridMap`).
    pub fn new(width: f64, height: f64, side: f64) -> Self {
        assert!(width > 0.0 && height > 0.0, "field must have positive area");
        assert!(side > 0.0, "bucket side must be positive");
        let cols = (width / side).ceil() as i32;
        let rows = (height / side).ceil() as i32;
        SpatialIndex::with_buckets(cols, rows, side)
    }

    /// Index with an explicit bucket layout.  The world uses this to align
    /// its buckets exactly with a `geo::GridMap`'s cells, so a node's
    /// maintained cell coordinate *is* its bucket coordinate.
    pub fn with_buckets(cols: i32, rows: i32, side: f64) -> Self {
        assert!(cols > 0 && rows > 0, "index needs at least one bucket");
        assert!(side > 0.0, "bucket side must be positive");
        SpatialIndex {
            side,
            cols,
            rows,
            buckets: vec![Vec::new(); cols as usize * rows as usize],
            slots: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    pub fn cols(&self) -> i32 {
        self.cols
    }

    #[inline]
    pub fn rows(&self) -> i32 {
        self.rows
    }

    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Number of ids currently in the index.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the per-id slot table: one past the largest id ever
    /// inserted (since the last [`clear`](Self::clear)).  It decides how
    /// a gather orders its ids, so callers that recycle ids keep it small.
    #[inline]
    pub fn id_universe(&self) -> usize {
        self.slots.len()
    }

    /// Bucket coordinate of a position.  Positions on (or marginally past)
    /// the far field edge clamp into the last bucket, mirroring
    /// `GridMap::cell_of`.
    #[inline]
    pub fn bucket_of(&self, p: Point2) -> (i32, i32) {
        let bx = ((p.x / self.side) as i32).clamp(0, self.cols - 1);
        let by = ((p.y / self.side) as i32).clamp(0, self.rows - 1);
        (bx, by)
    }

    #[inline]
    fn bucket_index(&self, bx: i32, by: i32) -> usize {
        debug_assert!(bx >= 0 && bx < self.cols && by >= 0 && by < self.rows);
        by as usize * self.cols as usize + bx as usize
    }

    #[inline]
    fn slot(&self, id: u32) -> Slot {
        self.slots.get(id as usize).copied().unwrap_or(NO_SLOT)
    }

    /// Is `id` currently a member?
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.slot(id).bucket != u32::MAX
    }

    /// The bucket currently holding `id`, if it is a member.
    pub fn bucket_of_id(&self, id: u32) -> Option<(i32, i32)> {
        let s = self.slot(id);
        if s.bucket == u32::MAX {
            return None;
        }
        let b = s.bucket as i32;
        Some((b % self.cols, b / self.cols))
    }

    /// Insert `id` into the bucket at `(bx, by)`.  Panics if already
    /// present (membership bugs must not silently duplicate entries).
    pub fn insert(&mut self, id: u32, bx: i32, by: i32) {
        assert!(!self.contains(id), "id {id} already in the index");
        if self.slots.len() <= id as usize {
            self.slots.resize(id as usize + 1, NO_SLOT);
        }
        let bi = self.bucket_index(bx, by);
        let bucket = &mut self.buckets[bi];
        self.slots[id as usize] = Slot {
            bucket: bi as u32,
            pos: bucket.len() as u32,
        };
        bucket.push(id);
        self.len += 1;
    }

    /// Insert `id` at its position's bucket.
    pub fn insert_at(&mut self, id: u32, p: Point2) {
        let (bx, by) = self.bucket_of(p);
        self.insert(id, bx, by);
    }

    /// Remove `id` in O(1) (swap-remove; the displaced member's slot is
    /// patched).  No-op if absent — pruning must be idempotent.
    pub fn remove(&mut self, id: u32) {
        let s = self.slot(id);
        if s.bucket == u32::MAX {
            return;
        }
        let bucket = &mut self.buckets[s.bucket as usize];
        bucket.swap_remove(s.pos as usize);
        if let Some(&moved) = bucket.get(s.pos as usize) {
            self.slots[moved as usize].pos = s.pos;
        }
        self.slots[id as usize] = NO_SLOT;
        self.len -= 1;
    }

    /// Move `id` to the bucket at `(bx, by)` — the incremental maintenance
    /// hook for mobility updates.  O(1); no-op when the bucket is
    /// unchanged.  Panics if `id` is not a member.
    pub fn move_to(&mut self, id: u32, bx: i32, by: i32) {
        let s = self.slot(id);
        assert!(s.bucket != u32::MAX, "id {id} not in the index");
        let bi = self.bucket_index(bx, by);
        if bi as u32 == s.bucket {
            return;
        }
        self.remove(id);
        self.insert(id, bx, by);
    }

    /// Move `id` to its position's bucket.
    pub fn move_to_point(&mut self, id: u32, p: Point2) {
        let (bx, by) = self.bucket_of(p);
        self.move_to(id, bx, by);
    }

    /// The rows of buckets within a Chebyshev `reach` of bucket `(bx, by)`
    /// (clipped to the field), in row-major order.
    fn rows_near(&self, bx: i32, by: i32, reach: i32) -> impl Iterator<Item = &[Vec<u32>]> {
        let x0 = (bx - reach).max(0) as usize;
        let x1 = (bx + reach).min(self.cols - 1) as usize;
        let y0 = (by - reach).max(0) as usize;
        let y1 = (by + reach).min(self.rows - 1) as usize;
        let cols = self.cols as usize;
        (y0..=y1).map(move |y| &self.buckets[y * cols + x0..=y * cols + x1])
    }

    /// Gather every member within a Chebyshev `reach` of bucket
    /// `(bx, by)` (clipped to the field) into `out` in **ascending id
    /// order** — the deterministic candidate list (see the module docs).
    /// `out` is cleared first; reuse it across queries to avoid
    /// allocation.
    ///
    /// When the id universe is small the ascending order comes from a
    /// stack bitmap — one bit set per member, then emitted in bit order —
    /// which is cheaper than sorting the gathered list per query.  Larger
    /// universes fall back to a comparison sort; hot callers with larger
    /// universes bring a [`GatherScratch`] to
    /// [`gather_sorted_with`](Self::gather_sorted_with) instead.  Every
    /// path produces the identical list.
    pub fn gather_sorted_into(&self, bx: i32, by: i32, reach: i32, out: &mut Vec<u32>) {
        out.clear();
        let rows = self.rows_near(bx, by, reach);
        if self.slots.len() <= BITMAP_IDS {
            emit_via_bitset(rows, &mut [0u64; BITMAP_IDS / 64], &mut [0u64; 1], out);
        } else {
            emit_via_sort(rows, out);
        }
    }

    /// [`gather_sorted_into`](Self::gather_sorted_into) through a
    /// caller-owned bitset: no per-query zeroing and no sort for any id
    /// universe up to [`SCRATCH_IDS`] (past it, the sort).
    pub fn gather_sorted_with(
        &self,
        scratch: &mut GatherScratch,
        bx: i32,
        by: i32,
        reach: i32,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let rows = self.rows_near(bx, by, reach);
        if self.slots.len() <= SCRATCH_IDS {
            scratch.fit(self.slots.len());
            emit_via_bitset(rows, &mut scratch.words, &mut scratch.touched, out);
        } else {
            emit_via_sort(rows, out);
        }
    }

    /// Allocation-per-call convenience over
    /// [`gather_sorted_into`](Self::gather_sorted_into).
    pub fn gather_sorted(&self, bx: i32, by: i32, reach: i32) -> Vec<u32> {
        let mut out = Vec::new();
        self.gather_sorted_into(bx, by, reach, &mut out);
        out
    }

    /// Visit every member within a Chebyshev `reach` of bucket `(bx, by)`
    /// in bucket row-major order, **without** sorting.  Only for
    /// order-insensitive aggregates (max / any / count); candidate lists
    /// that feed ordered processing must use
    /// [`gather_sorted_into`](Self::gather_sorted_into).
    pub fn for_each_near(&self, bx: i32, by: i32, reach: i32, mut f: impl FnMut(u32)) {
        let x0 = (bx - reach).max(0);
        let x1 = (bx + reach).min(self.cols - 1);
        let y0 = (by - reach).max(0);
        let y1 = (by + reach).min(self.rows - 1);
        for y in y0..=y1 {
            let row = y as usize * self.cols as usize;
            for x in x0..=x1 {
                for &id in &self.buckets[row + x as usize] {
                    f(id);
                }
            }
        }
    }

    /// Candidates for a range query centred at `p`: the 3×3 bucket
    /// neighborhood when buckets are sized to the query radius.  With
    /// `side >= radius` this is a guaranteed superset of every member
    /// within `radius` of `p` (two points at most `side` apart are at most
    /// one bucket apart on each axis); the caller applies the exact
    /// distance filter.
    pub fn query_point_sorted_into(&self, p: Point2, out: &mut Vec<u32>) {
        let (bx, by) = self.bucket_of(p);
        self.gather_sorted_into(bx, by, 1, out);
    }

    /// Drop every member (bucket capacity is retained for reuse).
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.slots.clear();
        self.len = 0;
    }
}

/// Emit the members of `rows` of buckets in ascending id order through a
/// bitset: `words` holds one bit per id, `touched` one bit per word of
/// `words` (at most 64 words of it), and both must arrive all zeros; they
/// are all zeros again on return.  Only words that were set are visited,
/// so the cost follows the members gathered, not the id universe.
fn emit_via_bitset<'a>(
    rows: impl Iterator<Item = &'a [Vec<u32>]>,
    words: &mut [u64],
    touched: &mut [u64],
    out: &mut Vec<u32>,
) {
    debug_assert!(touched.len() <= 64 && words.len() <= 64 * touched.len());
    let mut groups = 0u64;
    for row in rows {
        for b in row {
            for &id in b {
                let w = (id >> 6) as usize;
                words[w] |= 1u64 << (id & 63);
                touched[w >> 6] |= 1u64 << (w & 63);
                groups |= 1u64 << (w >> 6);
            }
        }
    }
    while groups != 0 {
        let g = groups.trailing_zeros() as usize;
        groups &= groups - 1;
        let mut in_group = std::mem::take(&mut touched[g]);
        while in_group != 0 {
            let w = (g << 6) + in_group.trailing_zeros() as usize;
            in_group &= in_group - 1;
            let mut bits = std::mem::take(&mut words[w]);
            while bits != 0 {
                out.push(((w as u32) << 6) + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }
}

/// Emit the members of `rows` of buckets in ascending id order by sorting.
fn emit_via_sort<'a>(rows: impl Iterator<Item = &'a [Vec<u32>]>, out: &mut Vec<u32>) {
    for row in rows {
        for b in row {
            out.extend_from_slice(b);
        }
    }
    out.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> SpatialIndex {
        SpatialIndex::new(1000.0, 1000.0, 250.0)
    }

    #[test]
    fn layout_matches_gridmap_convention() {
        let s = idx();
        assert_eq!((s.cols(), s.rows()), (4, 4));
        // ragged remainder rounds up
        let s = SpatialIndex::new(1100.0, 300.0, 250.0);
        assert_eq!((s.cols(), s.rows()), (5, 2));
    }

    #[test]
    fn bucket_of_clamps_far_edge_into_last_bucket() {
        let s = idx();
        assert_eq!(s.bucket_of(Point2::new(0.0, 0.0)), (0, 0));
        assert_eq!(s.bucket_of(Point2::new(249.999, 0.0)), (0, 0));
        assert_eq!(s.bucket_of(Point2::new(250.0, 0.0)), (1, 0));
        assert_eq!(s.bucket_of(Point2::new(1000.0, 1000.0)), (3, 3));
        assert_eq!(s.bucket_of(Point2::new(1000.0001, -0.0001)), (3, 0));
    }

    #[test]
    fn insert_move_remove_roundtrip() {
        let mut s = idx();
        s.insert(7, 0, 0);
        s.insert(3, 0, 0);
        s.insert(9, 3, 3);
        assert_eq!(s.len(), 3);
        assert!(s.contains(7));
        assert_eq!(s.bucket_of_id(9), Some((3, 3)));
        s.move_to(7, 2, 1);
        assert_eq!(s.bucket_of_id(7), Some((2, 1)));
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.len(), 2);
        // removal is idempotent
        s.remove(3);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already in the index")]
    fn double_insert_panics() {
        let mut s = idx();
        s.insert(1, 0, 0);
        s.insert(1, 1, 1);
    }

    #[test]
    fn gather_is_ascending_regardless_of_history() {
        let mut s = idx();
        // insert out of order, shuffle with moves and swap-removals
        for id in [9u32, 2, 7, 4, 1, 8] {
            s.insert(id, 0, 0);
        }
        s.remove(7);
        s.move_to(9, 1, 0);
        s.move_to(9, 0, 0); // back again: lands at a new bucket position
        s.insert(7, 1, 1);
        let got = s.gather_sorted(0, 0, 1);
        assert_eq!(got, vec![1, 2, 4, 7, 8, 9]);
    }

    #[test]
    fn gather_clips_at_field_boundary() {
        let mut s = idx();
        s.insert(0, 0, 0);
        s.insert(1, 3, 3);
        // corner query must not panic and must not see the far corner
        assert_eq!(s.gather_sorted(0, 0, 1), vec![0]);
        assert_eq!(s.gather_sorted(3, 3, 1), vec![1]);
        // a field-wide reach sees everyone
        assert_eq!(s.gather_sorted(0, 0, 3), vec![0, 1]);
    }

    #[test]
    fn three_by_three_covers_the_query_radius() {
        // side == radius: any point within `radius` of p lies in the 3×3
        // neighborhood of p's bucket — including points exactly at the
        // radius and exactly on bucket boundaries.
        let side = 250.0;
        let mut s = SpatialIndex::new(1000.0, 1000.0, side);
        let probes = [
            Point2::new(0.0, 0.0),
            Point2::new(250.0, 250.0),   // exactly on a bucket corner
            Point2::new(500.0, 0.0),     // on a bucket edge
            Point2::new(999.0, 999.0),   // far corner
            Point2::new(374.999, 625.0), // interior
        ];
        let mut id = 0u32;
        let mut pts = Vec::new();
        for &p in &probes {
            for &(dx, dy) in &[
                (side, 0.0),
                (-side, 0.0),
                (0.0, side),
                (0.0, -side),
                (side * 0.707, side * 0.707), // just inside the circle
                (120.0, -90.0),
            ] {
                let q = Point2::new((p.x + dx).clamp(0.0, 1000.0), (p.y + dy).clamp(0.0, 1000.0));
                s.insert_at(id, q);
                pts.push(q);
                id += 1;
            }
        }
        let mut out = Vec::new();
        for &p in &probes {
            s.query_point_sorted_into(p, &mut out);
            for (i, &q) in pts.iter().enumerate() {
                if p.within_range(q, side) {
                    assert!(
                        out.contains(&(i as u32)),
                        "point {q:?} within {side} of {p:?} missed by the 3×3 query"
                    );
                }
            }
        }
    }

    #[test]
    fn large_id_universe_falls_back_to_sort() {
        // ids past the bitmap capacity exercise the comparison-sort path;
        // the contract (ascending emit) is identical.
        let mut s = idx();
        for id in [9000u32, 4097, 12, 5000, 4096] {
            s.insert(id, 0, 0);
        }
        s.insert(7000, 1, 1);
        assert_eq!(s.gather_sorted(0, 0, 1), vec![12, 4096, 4097, 5000, 7000, 9000]);
        s.remove(5000);
        assert_eq!(s.gather_sorted(0, 0, 1), vec![12, 4096, 4097, 7000, 9000]);
    }

    #[test]
    fn scratch_gather_matches_at_every_universe_size() {
        // one scratch reused while the universe grows past the stack
        // bitmap, past a 64-word group, and past the scratch's own limit
        // (where it sorts): always the list `gather_sorted_into` gives,
        // and the scratch is left all zeros for the next query
        let mut s = idx();
        let mut scratch = GatherScratch::default();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for top in [
            70,
            BITMAP_IDS - 1,
            BITMAP_IDS,
            5000,
            3 * BITMAP_IDS,
            SCRATCH_IDS - 1,
            SCRATCH_IDS,
        ] {
            for id in [top, top - 1, top - 64, top / 2, top / 3].map(|id| id as u32) {
                if !s.contains(id) {
                    s.insert(id, (id % 2) as i32, (id % 3) as i32);
                }
            }
            assert_eq!(s.id_universe(), top + 1);
            for (bx, by, reach) in [(0, 0, 1), (1, 2, 1), (3, 3, 1), (0, 0, 3)] {
                s.gather_sorted_with(&mut scratch, bx, by, reach, &mut got);
                s.gather_sorted_into(bx, by, reach, &mut want);
                assert_eq!(got, want, "universe {} at ({bx}, {by})", top + 1);
                assert!(scratch.words.iter().chain(&scratch.touched).all(|&w| w == 0));
            }
        }
        assert!(
            scratch.words.len() * 64 <= SCRATCH_IDS,
            "the scratch stops growing at its limit"
        );
    }

    #[test]
    fn auto_threshold_scales_with_neighborhood_area() {
        // paper grid: reach 4 → 9×9 buckets → 243-member crossover
        assert_eq!(auto_gather_threshold(4), 243);
        assert_eq!(auto_gather_threshold(1), 27);
        // crossover sits between the bench's regressing and winning scales
        assert!(auto_gather_threshold(4) > 200);
        assert!(auto_gather_threshold(4) < 500);
    }
}
