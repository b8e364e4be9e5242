//! Grid-bucket indexes over small integer ids, for receiver discovery and
//! channel queries.
//!
//! Receiver discovery is the simulator's hottest query: every transmission
//! must find the hosts its signal can reach.  A full scan is O(N) per
//! transmission — O(N²) per broadcast round in the dense regimes the paper
//! studies (100+ hosts, §4) — while a bucket index sized to the radio
//! range answers the same query from a constant-size neighborhood of
//! buckets.  ECGRID's own logical-grid partition (§3) is exactly such an
//! index, so the protocol's core idea also accelerates its simulator.
//!
//! Two types serve two callers:
//!
//! * [`CellIndex`] is the `World`'s: buckets are the paper's logical grid
//!   cells (the per-node cell is already maintained by cell-crossing
//!   events), laid out as one id array sorted by bucket, so the
//!   Chebyshev-`reach` neighborhood that covers the radio range is one
//!   contiguous slice per row of cells;
//! * [`SpatialIndex`] keeps one heap bucket per cell and serves the
//!   channel, which keys in-flight transmissions by origin with buckets of
//!   side == range, so carrier-sense and interference checks query only
//!   the 3×3 neighborhood of the receiver's bucket.  The benchmark's
//!   bucket kernels measure it too.
//!
//! # Determinism contract
//!
//! Both gathers ([`CellIndex::gather_sorted_with`],
//! [`SpatialIndex::gather_sorted_into`]) visit the neighborhood buckets in
//! row-major order and emit the gathered ids in ascending order, so the
//! result is the **ascending-id** candidate list — bit-for-bit identical to
//! a brute-force scan over the same membership, regardless of insertion,
//! movement, or removal history.  Bucket-internal order is explicitly
//! *not* part of the contract (moves and removals swap ids around); only
//! the sorted gather is.  The golden-digest equivalence tests hold the
//! simulator to this: `NeighborIndex::Brute` and `NeighborIndex::Grid`
//! must replay bit-identically.

use geo::{GridCoord, Point2};
use std::ops::RangeInclusive;

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

/// Caller-owned scratch of [`CellIndex::gather_sorted_with`]: a sparse
/// bitset sized to the index's id universe.  It is all zeros between
/// gathers — a gather clears exactly the words it set — so, unlike the
/// stack bitmap of
/// [`SpatialIndex::gather_sorted_into`], nothing is zeroed per query and
/// the universe may be any size up to `SCRATCH_IDS`.
#[derive(Clone, Debug, Default)]
pub struct GatherScratch {
    /// One bit per id.
    words: Vec<u64>,
    /// One bit per non-zero word of `words`.
    touched: Vec<u64>,
}

impl GatherScratch {
    /// Clear `out` and fill it with the ids of `slices`, all below
    /// `universe`, in ascending order: through the bitset (grown, never
    /// shrunk, to cover the universe) up to [`SCRATCH_IDS`], by sorting
    /// past it.
    fn emit<'a>(&mut self, universe: usize, slices: impl Iterator<Item = &'a [u32]>, out: &mut Vec<u32>) {
        out.clear();
        if universe > SCRATCH_IDS {
            return emit_via_sort(slices, out);
        }
        let words = universe.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
            self.touched.resize(words.div_ceil(64), 0);
        }
        emit_via_bitset(slices, &mut self.words, &mut self.touched, out);
    }
}

/// The bucket columns and rows within a Chebyshev `reach` of bucket
/// `(bx, by)`, clipped to a `cols × rows` field.
fn neighborhood(
    cols: i32,
    rows: i32,
    bx: i32,
    by: i32,
    reach: i32,
) -> (RangeInclusive<usize>, RangeInclusive<usize>) {
    let x = (bx - reach).max(0) as usize..=(bx + reach).min(cols - 1) as usize;
    let y = (by - reach).max(0) as usize..=(by + reach).min(rows - 1) as usize;
    (x, y)
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

    /// The buckets within a Chebyshev `reach` of bucket `(bx, by)`
    /// (clipped to the field), in row-major order.
    fn buckets_near(&self, bx: i32, by: i32, reach: i32) -> impl Iterator<Item = &[u32]> {
        let (xs, ys) = neighborhood(self.cols, self.rows, bx, by, reach);
        let cols = self.cols as usize;
        ys.flat_map(move |y| self.buckets[y * cols + xs.start()..=y * cols + xs.end()].iter())
            .map(Vec::as_slice)
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
    /// universes fall back to a comparison sort.  Both paths produce the
    /// identical list.
    pub fn gather_sorted_into(&self, bx: i32, by: i32, reach: i32, out: &mut Vec<u32>) {
        out.clear();
        let buckets = self.buckets_near(bx, by, reach);
        if self.slots.len() <= BITMAP_IDS {
            emit_via_bitset(buckets, &mut [0u64; BITMAP_IDS / 64], &mut [0u64; 1], out);
        } else {
            emit_via_sort(buckets, out);
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
    pub fn for_each_near(&self, bx: i32, by: i32, reach: i32, f: impl FnMut(u32)) {
        self.buckets_near(bx, by, reach).flatten().copied().for_each(f);
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

/// The world's receiver-discovery index: ids in the buckets of a
/// `cols × rows` grid (the paper's logical cells), stored flat.
///
/// `ids` holds every id exactly once, sorted by bucket: the buckets in
/// row-major order, then one trailing dead bin.  Bucket `b` is
/// `ids[start[b]..start[b + 1]]`, so a row of buckets is one contiguous
/// slice and a Chebyshev gather reads one slice per row of cells instead
/// of one heap vector per cell.  `pos` and `bucket` locate each id.
///
/// A move swaps the id across every bucket boundary between its old and
/// its new bucket, shifting each boundary by one: a horizontal step is one
/// swap, a vertical step `cols` swaps.  [`remove`](Self::remove) moves the
/// id into the dead bin, which is rare (a death) and costs one swap per
/// bucket after the id's.  The id universe is fixed at construction.
#[derive(Clone, Debug)]
pub struct CellIndex {
    cols: i32,
    rows: i32,
    ids: Vec<u32>,
    /// `cols · rows + 2` offsets into `ids`: one per bucket, the dead
    /// bin's, and `ids.len()`.
    start: Vec<u32>,
    /// Per id: its offset in `ids`.
    pos: Vec<u32>,
    /// Per id: its bucket (`cols · rows` = the dead bin).
    bucket: Vec<u32>,
}

impl CellIndex {
    /// Index ids `0..cells.len()`, id `i` in the bucket at `cells[i]`,
    /// with one counting sort.
    pub fn new(cols: i32, rows: i32, cells: &[GridCoord]) -> Self {
        assert!(cols > 0 && rows > 0, "index needs at least one bucket");
        assert!(u32::try_from(cells.len()).is_ok(), "ids must fit in u32");
        let dead = cols as usize * rows as usize;
        let bucket: Vec<u32> = cells
            .iter()
            .map(|c| {
                assert!(
                    (0..cols).contains(&c.x) && (0..rows).contains(&c.y),
                    "cell {c:?} outside the {cols}x{rows} index"
                );
                (c.y as usize * cols as usize + c.x as usize) as u32
            })
            .collect();
        // count into start[b + 1], then prefix-sum to the offsets
        let mut start = vec![0u32; dead + 2];
        for &b in &bucket {
            start[b as usize + 1] += 1;
        }
        for b in 1..start.len() {
            start[b] += start[b - 1];
        }
        let mut next = start.clone();
        let mut ids = vec![0u32; cells.len()];
        let mut pos = vec![0u32; cells.len()];
        for (id, &b) in bucket.iter().enumerate() {
            let p = &mut next[b as usize];
            ids[*p as usize] = id as u32;
            pos[id] = *p;
            *p += 1;
        }
        CellIndex {
            cols,
            rows,
            ids,
            start,
            pos,
            bucket,
        }
    }

    /// Number of ids not removed.
    #[inline]
    pub fn len(&self) -> usize {
        self.start[self.dead_bin()] as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn dead_bin(&self) -> usize {
        self.start.len() - 2
    }

    /// The bucket holding `id`, unless it was removed (or never existed).
    pub fn bucket_of_id(&self, id: u32) -> Option<(i32, i32)> {
        let b = *self.bucket.get(id as usize)? as usize;
        (b != self.dead_bin()).then(|| ((b % self.cols as usize) as i32, (b / self.cols as usize) as i32))
    }

    /// Move `id` to the bucket at `(bx, by)`.  Panics if `id` was removed.
    pub fn move_to(&mut self, id: u32, bx: i32, by: i32) {
        assert!(self.bucket_of_id(id).is_some(), "id {id} not in the index");
        debug_assert!((0..self.cols).contains(&bx) && (0..self.rows).contains(&by));
        self.shift(id, by as usize * self.cols as usize + bx as usize);
    }

    /// Move `id` into the dead bin: no gather sees it again.  No-op if it
    /// is there already.
    pub fn remove(&mut self, id: u32) {
        self.shift(id, self.dead_bin());
    }

    /// Carry `id` from its bucket to bucket `to`, one boundary at a time:
    /// swap it to the edge of the bucket it is in, then move that edge past
    /// it.  The buckets in between keep their members.
    fn shift(&mut self, id: u32, to: usize) {
        let mut b = self.bucket[id as usize] as usize;
        let mut p = self.pos[id as usize] as usize;
        while b < to {
            let last = self.start[b + 1] as usize - 1;
            self.swap_into(p, last);
            self.start[b + 1] -= 1;
            (p, b) = (last, b + 1);
        }
        while b > to {
            let first = self.start[b] as usize;
            self.swap_into(p, first);
            self.start[b] += 1;
            (p, b) = (first, b - 1);
        }
        self.pos[id as usize] = p as u32;
        self.bucket[id as usize] = to as u32;
    }

    /// Swap the ids at offsets `from` and `to`, patching the position of
    /// the one that lands at `from` (the caller tracks the other).
    #[inline]
    fn swap_into(&mut self, from: usize, to: usize) {
        self.ids.swap(from, to);
        self.pos[self.ids[from] as usize] = from as u32;
    }

    /// Gather every member within a Chebyshev `reach` of bucket `(bx, by)`
    /// (clipped to the field) into `out`, cleared first, in **ascending id
    /// order** — the deterministic candidate list (see the module docs),
    /// ordered through the caller's `scratch`.
    pub fn gather_sorted_with(
        &self,
        scratch: &mut GatherScratch,
        bx: i32,
        by: i32,
        reach: i32,
        out: &mut Vec<u32>,
    ) {
        let (xs, ys) = neighborhood(self.cols, self.rows, bx, by, reach);
        let cols = self.cols as usize;
        let rows = ys.map(|y| {
            let row = y * cols;
            &self.ids[self.start[row + xs.start()] as usize..self.start[row + xs.end() + 1] as usize]
        });
        scratch.emit(self.pos.len(), rows, out);
    }
}

/// Emit the ids of `slices` in ascending order through a bitset: `words`
/// holds one bit per id, `touched` one bit per word of `words` (at most 64
/// words of it), and both must arrive all zeros; they are all zeros again
/// on return.  Only words that were set are visited, so the cost follows
/// the ids gathered, not the id universe.
fn emit_via_bitset<'a>(
    slices: impl Iterator<Item = &'a [u32]>,
    words: &mut [u64],
    touched: &mut [u64],
    out: &mut Vec<u32>,
) {
    debug_assert!(touched.len() <= 64 && words.len() <= 64 * touched.len());
    let mut groups = 0u64;
    for &id in slices.flatten() {
        let w = (id >> 6) as usize;
        words[w] |= 1u64 << (id & 63);
        touched[w >> 6] |= 1u64 << (w & 63);
        groups |= 1u64 << (w >> 6);
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

/// Emit the ids of `slices` in ascending order by sorting.
fn emit_via_sort<'a>(slices: impl Iterator<Item = &'a [u32]>, out: &mut Vec<u32>) {
    for s in slices {
        out.extend_from_slice(s);
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
        // one scratch reused while the universe grows past one 64-word
        // group and past the scratch's own limit (where it sorts): a few
        // members spread over the universe, every other id removed, and
        // each gather is the ascending filter-scan of the members, with
        // the scratch left all zeros for the next query
        let mut scratch = GatherScratch::default();
        let mut members: Vec<usize> = Vec::new();
        let mut got = Vec::new();
        for top in [
            70,
            BITMAP_IDS - 1,
            BITMAP_IDS,
            5000,
            3 * BITMAP_IDS,
            SCRATCH_IDS - 1,
            SCRATCH_IDS,
        ] {
            members.extend([top, top - 1, top - 64, top / 2, top / 3]);
            let cell = |id: usize| GridCoord::new((id % 2) as i32, (id % 3) as i32);
            let cells: Vec<GridCoord> = (0..=top).map(cell).collect();
            let mut s = CellIndex::new(4, 4, &cells);
            for id in (0..=top).filter(|id| !members.contains(id)) {
                s.remove(id as u32);
            }
            for (bx, by, reach) in [(0, 0, 1), (1, 2, 1), (3, 3, 1), (0, 0, 3)] {
                let q = GridCoord::new(bx, by);
                s.gather_sorted_with(&mut scratch, bx, by, reach, &mut got);
                let want: Vec<u32> = (0..=top)
                    .filter(|&id| members.contains(&id) && cell(id).chebyshev(q) <= reach)
                    .map(|id| id as u32)
                    .collect();
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
