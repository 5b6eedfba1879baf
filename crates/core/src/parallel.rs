//! The one deterministic fan-out primitive (an engineering extension;
//! the paper ran single-threaded on a SUN-4).
//!
//! [`deterministic_map`] computes independent items on a pool of scoped
//! workers and returns them in index order, so callers get wall-clock
//! parallelism without the worker count ever reaching their output. The
//! batch engine fans jobs out over it; refinement itself is sequential
//! (see [`crate::refine`]).

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// Compute `f(0), …, f(n - 1)` across up to `threads` workers, returning
/// the results in index order. Each index is computed in isolation, so
/// the output is byte-identical for every worker count. `threads <= 1`
/// (or a single item) runs inline with no thread machinery at all.
pub fn deterministic_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock() = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_map_is_thread_count_invariant() {
        let f = |i: usize| i * i + 1;
        let reference: Vec<usize> = (0..37).map(f).collect();
        for threads in [0, 1, 2, 4, 9] {
            assert_eq!(deterministic_map(37, threads, f), reference);
        }
        assert_eq!(deterministic_map(0, 4, f), Vec::<usize>::new());
        assert_eq!(deterministic_map(1, 4, f), vec![1]);
    }
}
