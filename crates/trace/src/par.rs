//! Deterministic chunk-claim parallelism.
//!
//! Every parallel phase of the workspace — the experiment grid runner,
//! the batched CRT row reduction, the `RoundEngine` histogram and rank
//! remap, and the simulator's receive phase — splits its work the same
//! way, through [`claim_chunks`]: the caller cuts the work into a fixed
//! list of items (cells, row blocks, node ranges), workers claim item
//! indices from one shared counter, and each item owns the slot its
//! result lands in.
//!
//! # Determinism
//!
//! The item list is fixed by the caller before any worker starts, so it
//! never depends on the thread count. Each index is claimed exactly once,
//! and `f` sees only its own item plus shared read-only state. Which
//! worker ran an item, and when, therefore cannot change what the item
//! holds afterwards. A caller that merges the items in index order gets
//! the same bytes at every thread count, including `threads = 1`, which
//! runs the items inline and in order. That is the whole argument; the
//! call sites only need to keep their merge in index order and their
//! chunking independent of `threads`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Calls `f(i, &mut items[i])` once for every index of `items`, on up
/// to `threads` scoped workers.
///
/// With `threads <= 1` or at most one item, `f` runs inline on the
/// calling thread in index order. Otherwise
/// `min(threads, items.len())` workers claim indices from one atomic
/// counter, so workers stay busy when item costs are skewed. The result
/// is the same either way (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use anonet_trace::par::claim_chunks;
///
/// let mut squares = vec![0u64; 5];
/// claim_chunks(&mut squares, 4, |i, slot| *slot = (i * i) as u64);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Propagates a panic of `f`: inline runs unwind with `f`'s payload,
/// threaded runs panic once every worker has stopped.
pub fn claim_chunks<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    // One lock per item: a claimed index is locked by exactly one
    // worker, so the locks are never contended.
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(slots.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                f(i, &mut slot.lock().expect("each item is claimed once"));
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::claim_chunks;
    use std::sync::Mutex;

    #[test]
    fn input_order_is_kept_at_every_thread_count() {
        let expected: Vec<u64> = (0..37u64).map(|i| i * i + 1).collect();
        for threads in [1, 2, 4, 64] {
            let mut out = vec![0u64; 37];
            claim_chunks(&mut out, threads, |i, slot| *slot = (i * i + 1) as u64);
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let mut empty: Vec<u8> = Vec::new();
        claim_chunks(&mut empty, 4, |_, _| unreachable!("no items"));
        let mut one = vec![7u8];
        claim_chunks(&mut one, 4, |i, slot| *slot += u8::try_from(i).unwrap() + 1);
        assert_eq!(one, [8]);
    }

    #[test]
    fn every_index_is_seen_exactly_once() {
        for threads in [1, 3, 8] {
            let seen = Mutex::new(Vec::new());
            let mut items = vec![0u32; 100];
            claim_chunks(&mut items, threads, |i, item| {
                seen.lock().unwrap().push(i);
                *item += 1;
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..100).collect::<Vec<_>>(), "threads = {threads}");
            assert!(items.iter().all(|&c| c == 1), "threads = {threads}");
        }
    }

    #[test]
    fn a_panicking_f_propagates() {
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                let mut items = vec![0u8; 8];
                claim_chunks(&mut items, threads, |i, _| assert_ne!(i, 5, "item 5 fails"));
            });
            assert!(result.is_err(), "threads = {threads}");
        }
    }
}
