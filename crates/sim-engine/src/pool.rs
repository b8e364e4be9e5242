//! Slab allocator for in-flight scheduler events.
//!
//! The pending-event set used to own its events by value, so every
//! schedule/dispatch pair was a heap allocation and a free for any event
//! type with a payload.  [`EventPool`] breaks that churn: events live in a
//! slab of reusable slots and the queue orders bare `u32` slot indices.
//! Freed slots go on a free list (LIFO, so the hottest slot is reused
//! first while its cache lines are still warm) and the slab only grows
//! when the live population exceeds everything seen before — which, per
//! `SchedProfile`, plateaus at the run's queue high-water mark.  The list
//! is intrusive: a free slot's stamp field holds the index of the next
//! free slot, so it costs no bytes beyond the slots themselves.
//!
//! Slot numbers carry **no ordering information**; FIFO tie-breaking
//! remains entirely the queue's sequence numbers, so pooling is invisible
//! to dispatch order (property-tested in `sched.rs` and the manet suite).

/// Counters describing a pool's lifetime behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total slot allocations over the pool's lifetime.
    pub allocated: u64,
    /// Total slots returned.  `allocated == freed` once the queue drains.
    pub freed: u64,
    /// Currently live (allocated and not yet freed) slots.
    pub live: usize,
    /// High-water mark of simultaneously live slots.
    pub high_water: usize,
    /// Slab capacity (live + free-listed slots).
    pub capacity: usize,
}

/// Stamp of a slot whose event was cancelled: no allocation ever draws
/// it, so no handle matches it.
const REVOKED: u64 = u64::MAX;

/// End of the free list.  Slot indices stop one below it, so it never
/// names a real slot.
const NIL: u32 = u32::MAX;

struct Slot<E> {
    /// While occupied: ordinal of the allocation occupying the slot —
    /// what tells a handle to this event from a stale handle to an
    /// earlier tenant — or [`REVOKED`] once that event has been
    /// cancelled.  While free: index of the next free slot, or [`NIL`].
    stamp: u64,
    event: Option<E>,
}

/// Free-list slab of event slots.  See the module docs.
pub struct EventPool<E> {
    slots: Vec<Slot<E>>,
    /// First slot of the intrusive free list, or [`NIL`].
    free_head: u32,
    allocated: u64,
    freed: u64,
    high_water: usize,
}

impl<E> Default for EventPool<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventPool<E> {
    /// Bytes one slot takes: the event and its stamp (an enum event's
    /// spare tag values encode the empty slot, and the stamp doubles as
    /// the free-list link, so neither costs anything).
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<E>>();

    pub fn new() -> Self {
        EventPool {
            slots: Vec::new(),
            free_head: NIL,
            allocated: 0,
            freed: 0,
            high_water: 0,
        }
    }

    /// Grow the slab by `additional` free slots up front, so a run whose
    /// high-water mark is known (e.g. from a previous `SchedProfile`)
    /// never grows the slab mid-run.
    pub fn reserve(&mut self, additional: usize) {
        if additional == 0 {
            return;
        }
        let start = self.slots.len();
        let end = start
            .checked_add(additional)
            .filter(|&e| e <= NIL as usize)
            .expect("event pool exceeds u32 slot space");
        // Chain the new slots in ascending order ahead of the old list, so
        // the lowest new slot is handed out first.
        let old_head = self.free_head as u64;
        self.slots.extend((start + 1..=end).map(|next| Slot {
            stamp: if next == end { old_head } else { next as u64 },
            event: None,
        }));
        self.free_head = start as u32;
    }

    /// Store `event`, returning its slot index.
    #[inline]
    pub fn alloc(&mut self, event: E) -> u32 {
        self.allocated += 1;
        let tenant = Slot {
            stamp: self.allocated,
            event: Some(event),
        };
        let slot = if self.free_head != NIL {
            let s = self.free_head;
            let free = &mut self.slots[s as usize];
            debug_assert!(free.event.is_none());
            self.free_head = free.stamp as u32;
            *free = tenant;
            s
        } else {
            let s = self.slots.len();
            assert!(s < NIL as usize, "event pool exceeds u32 slot space");
            self.slots.push(tenant);
            s as u32
        };
        let live = (self.allocated - self.freed) as usize;
        if live > self.high_water {
            self.high_water = live;
        }
        slot
    }

    /// Take the event out of `slot` and return the slot to the free list.
    /// Panics on a double free — that is always a scheduler bug.
    #[inline]
    pub fn free(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        let ev = s.event.take().expect("event pool double free");
        s.stamp = self.free_head as u64;
        self.free_head = slot;
        self.freed += 1;
        ev
    }

    /// Stamp of the live event in `slot`: with the slot number, a handle
    /// that [`revoke`](Self::revoke) accepts only while this very event
    /// is still pooled.
    #[inline]
    pub fn stamp(&self, slot: u32) -> u64 {
        self.slots[slot as usize].stamp
    }

    /// Mark the event in `slot` cancelled, provided it is still the one
    /// `stamp` was issued for.  A stale pair — the event already freed,
    /// the slot since reused, or a second cancel — is a no-op.  The slot
    /// stays occupied until [`free`](Self::free).  An empty slot's stamp
    /// is a free-list link, which the emptiness check keeps from matching.
    #[inline]
    pub fn revoke(&mut self, slot: u32, stamp: u64) {
        if let Some(s) = self.slots.get_mut(slot as usize) {
            if s.stamp == stamp && s.event.is_some() {
                s.stamp = REVOKED;
            }
        }
    }

    /// Was the live event in `slot` cancelled by [`revoke`](Self::revoke)?
    #[inline]
    pub fn is_revoked(&self, slot: u32) -> bool {
        self.slots[slot as usize].stamp == REVOKED
    }

    /// Read an event in place without freeing its slot.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&E> {
        self.slots.get(slot as usize).and_then(|s| s.event.as_ref())
    }

    /// Currently live slots.
    #[inline]
    pub fn live(&self) -> usize {
        (self.allocated - self.freed) as usize
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocated: self.allocated,
            freed: self.freed,
            live: self.live(),
            high_water: self.high_water,
            capacity: self.slots.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrips_events() {
        let mut p = EventPool::new();
        let a = p.alloc("a");
        let b = p.alloc("b");
        assert_ne!(a, b);
        assert_eq!(p.free(a), "a");
        assert_eq!(p.free(b), "b");
        let s = p.stats();
        assert_eq!(s.allocated, 2);
        assert_eq!(s.freed, 2);
        assert_eq!(s.live, 0);
    }

    #[test]
    fn slots_are_reused_lifo() {
        let mut p = EventPool::new();
        let a = p.alloc(1);
        let b = p.alloc(2);
        p.free(a);
        p.free(b);
        // b was freed last, so it comes back first
        assert_eq!(p.alloc(3), b);
        assert_eq!(p.alloc(4), a);
        assert_eq!(p.stats().capacity, 2);
    }

    #[test]
    fn high_water_tracks_peak_live() {
        let mut p = EventPool::new();
        let mut slots = Vec::new();
        for i in 0..5 {
            slots.push(p.alloc(i));
        }
        for s in slots.drain(..) {
            p.free(s);
        }
        for i in 0..3 {
            slots.push(p.alloc(i));
        }
        let s = p.stats();
        assert_eq!(s.high_water, 5);
        assert_eq!(s.live, 3);
        assert_eq!(s.capacity, 5, "slab never grows past the high water");
    }

    #[test]
    fn reserve_pre_grows_without_allocating() {
        let mut p: EventPool<u64> = EventPool::new();
        p.reserve(8);
        assert_eq!(p.stats().capacity, 8);
        assert_eq!(p.stats().live, 0);
        // lowest slots are handed out first for locality
        assert_eq!(p.alloc(0), 0);
        assert_eq!(p.alloc(1), 1);
        assert_eq!(p.stats().capacity, 8);
    }

    #[test]
    fn get_reads_in_place() {
        let mut p = EventPool::new();
        let s = p.alloc(42);
        assert_eq!(p.get(s), Some(&42));
        p.free(s);
        assert_eq!(p.get(s), None);
    }

    #[test]
    fn revoke_marks_only_the_event_the_stamp_was_issued_for() {
        let mut p = EventPool::new();
        let a = p.alloc("a");
        let stamp_a = p.stamp(a);
        assert!(!p.is_revoked(a));
        p.revoke(a, stamp_a);
        p.revoke(a, stamp_a); // second cancel: no-op
        assert!(p.is_revoked(a));
        assert_eq!(p.free(a), "a", "a revoked event stays pooled until freed");
        // the slot is reused (LIFO): the stale handle must not touch the
        // new tenant, freed or not
        let b = p.alloc("b");
        assert_eq!(b, a);
        p.revoke(b, stamp_a);
        assert!(!p.is_revoked(b));
        p.free(b);
        p.revoke(b, stamp_a);
        p.revoke(99, 1); // out-of-range slot: no-op
        assert_eq!(p.stats().live, 0);
    }

    #[test]
    fn reserve_chains_new_slots_ahead_of_the_free_list() {
        let mut p = EventPool::new();
        let a = p.alloc('a');
        p.alloc('b');
        p.free(a);
        p.reserve(2);
        p.reserve(0);
        assert_eq!(p.stats().capacity, 4);
        // the new slots first, lowest first, then the slot freed before
        assert_eq!([p.alloc('c'), p.alloc('d'), p.alloc('e')], [2, 3, a]);
        assert_eq!(p.alloc('f'), 4, "an exhausted list grows the slab");
    }

    #[test]
    fn a_slot_is_its_event_and_stamp() {
        // the shape of a world's pending event: 12 payload bytes and a tag
        #[allow(dead_code)]
        enum Event {
            TxEnd { node: u32, flight: u32 },
            Timer { node: u32, id: u64 },
            Page(Box<[u64; 4]>),
            EndOfRun,
        }
        assert_eq!(std::mem::size_of::<Event>(), 16);
        assert_eq!(EventPool::<Event>::SLOT_BYTES, 24);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut p = EventPool::new();
        let s = p.alloc(());
        p.free(s);
        p.free(s);
    }
}
