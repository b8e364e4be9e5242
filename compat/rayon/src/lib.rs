//! Offline stand-in for `rayon`.
//!
//! Implements the one pattern this workspace uses —
//! `slice.par_iter().map(f).collect::<Vec<_>>()` — with *real*
//! parallelism on `std::thread::scope`.  One worker per available core
//! claims the next unclaimed index from a shared cursor until the input
//! runs out — so a sweep whose expensive points sit together (the density
//! rows at the tail of the paper campaign, journal hits at its head) still
//! keeps every core busy — and results are put back in index order, so
//! output ordering is identical to the serial path no matter how many
//! threads run or which of them ran what (the property the golden-trace
//! determinism tests pin down).

pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// `.par_iter()` — entry point, mirrors rayon's trait of the same name.
pub trait IntoParallelRefIterator<'data> {
    type Item: 'data;
    type Iter: ParallelIterator<Item = Self::Item>;

    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = ParSlice<'data, T>;

    fn par_iter(&'data self) -> ParSlice<'data, T> {
        ParSlice { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = ParSlice<'data, T>;

    fn par_iter(&'data self) -> ParSlice<'data, T> {
        ParSlice { slice: self }
    }
}

/// The operations our parallel iterators support.
pub trait ParallelIterator: Sized {
    type Item;

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
        Self: ExecutableParallel,
        Self::Item: Send,
    {
        C::from_par(self.run())
    }
}

/// Internal: iterators that know how to execute themselves to a `Vec`.
pub trait ExecutableParallel: ParallelIterator {
    fn run(self) -> Vec<Self::Item>;
}

/// Collection targets for [`ParallelIterator::collect`].
pub trait FromParallelIterator<T> {
    fn from_par(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_par(items: Vec<T>) -> Self {
        items
    }
}

/// A borrowed slice as a parallel iterator.
pub struct ParSlice<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for ParSlice<'data, T> {
    type Item = &'data T;
}

impl<'data, T: Sync> ExecutableParallel for ParSlice<'data, T> {
    fn run(self) -> Vec<&'data T> {
        self.slice.iter().collect()
    }
}

/// A mapped parallel iterator — the stage that actually fans out.
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<'data, T, F, R> ParallelIterator for Map<ParSlice<'data, T>, F>
where
    T: Sync,
    F: Fn(&'data T) -> R + Sync,
    R: Send,
{
    type Item = R;
}

impl<'data, T, F, R> ExecutableParallel for Map<ParSlice<'data, T>, F>
where
    T: Sync,
    F: Fn(&'data T) -> R + Sync,
    R: Send,
{
    fn run(self) -> Vec<R> {
        parallel_map(self.base.slice, &self.f)
    }
}

/// Run `f` over `items` on scoped threads, each claiming the next index
/// from a shared cursor, and return the outputs in input order.
fn parallel_map<'data, T, R, F>(items: &'data [T], f: &F) -> Vec<R>
where
    T: Sync,
    F: Fn(&'data T) -> R + Sync,
    R: Send,
{
    let workers = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Relaxed: the cursor hands out indices and publishes nothing else —
    // inputs are shared immutably, outputs travel back through `join`
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = Vec::with_capacity(items.len());
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("rayon-compat worker panicked"));
        }
    });
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_input_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input.par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_on_tiny_and_empty_inputs() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|x| *x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn a_slow_item_does_not_hold_back_the_items_behind_it() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        if std::thread::available_parallelism().map_or(1, |n| n.get()) == 1 {
            return; // one worker runs the input in order
        }
        // item 0 finishes only once every other item has (or gives up):
        // under one contiguous chunk per worker, the items queued behind
        // it in its own chunk could not start until it did
        let input: Vec<usize> = (0..64).collect();
        let others_done = AtomicUsize::new(0);
        let out: Vec<bool> = input
            .par_iter()
            .map(|&i| {
                if i > 0 {
                    others_done.fetch_add(1, Ordering::SeqCst);
                    return true;
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                while others_done.load(Ordering::SeqCst) < 63 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                others_done.load(Ordering::SeqCst) == 63
            })
            .collect();
        assert!(out[0], "the items behind the slow one waited for it");
    }

    #[test]
    fn really_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let input: Vec<u32> = (0..64).collect();
        let _: Vec<()> = input
            .par_iter()
            .map(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
            .collect();
        let n = ids.lock().unwrap().len();
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert!(
            n > 1 || cores == 1,
            "expected multi-threaded execution, saw {n} thread(s)"
        );
    }
}
