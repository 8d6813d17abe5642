//! Ordered parallel map over independent work items.
//!
//! Every independent-item pool in the workspace goes through
//! [`for_each_ordered`]: the paper suite's grids of seeded runs, the
//! per-GPU fleet runner and the chaos runner's final drain. Workers on
//! scoped threads claim items in input order, and the calling thread
//! hands each result to a sink strictly in input order. Output therefore
//! does not depend on how the items were scheduled (DESIGN.md §5m).

use std::sync::{mpsc, Mutex, PoisonError};

/// Runs `f` on every item on up to `workers` scoped threads (`None`:
/// `std::thread::available_parallelism`), never more than there are
/// items, calling `sink(index, result)` on the calling thread in index
/// order, each as soon as every earlier index is done.
///
/// Items may be borrowed (`&grid`), computed (`0..n`) or owned and moved
/// into `f`. At one worker or at most one item they run inline, in
/// order, without spawning. A panic in `f` is re-raised on the calling
/// thread once the remaining items have finished.
pub fn for_each_ordered<I, R, F, S>(workers: Option<usize>, items: I, f: F, mut sink: S)
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
    S: FnMut(usize, R),
{
    let items = items.into_iter();
    let len = items.len();
    let workers = workers
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
        .min(len);
    if workers <= 1 {
        for (i, item) in items.enumerate() {
            sink(i, f(item));
        }
        return;
    }
    // Claiming under one lock hands items out in index order; results
    // travel back over the channel and wait in `done` until every earlier
    // index has reached the sink. One slot per item keeps the buffer a
    // single allocation whatever order the workers finish in.
    let claim = Mutex::new(items.enumerate());
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (tx, claim, f) = (tx.clone(), &claim, &f);
                scope.spawn(move || loop {
                    let next = claim.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((i, item)) = next else { break };
                    if tx.send((i, f(item))).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);

        let mut done: Vec<Option<R>> = (0..len).map(|_| None).collect();
        let mut emitted = 0;
        for (i, r) in rx {
            done[i] = Some(r);
            while let Some(r) = done.get_mut(emitted).and_then(Option::take) {
                sink(emitted, r);
                emitted += 1;
            }
        }
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// [`for_each_ordered`] collecting the results in input order.
pub fn par_map<I, R, F>(workers: Option<usize>, items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let mut out = Vec::with_capacity(items.len());
    for_each_ordered(workers, items, f, |_, r| out.push(r));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::thread;

    /// Runs items 0..n on two workers with item 0 blocked until item n−1
    /// has finished, so item 0 is the last to complete. Returns the
    /// completion order and the indices the sink saw, in call order.
    fn item_zero_last(n: usize) -> (Vec<usize>, Vec<(usize, usize)>) {
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (go_tx, go_rx) = (Mutex::new(go_tx), Mutex::new(go_rx));
        let finished = Mutex::new(Vec::new());
        let mut seen = Vec::new();
        for_each_ordered(
            Some(2),
            0..n,
            |i| {
                if i == 0 {
                    go_rx.lock().unwrap().recv().unwrap();
                }
                finished.lock().unwrap().push(i);
                if i == n - 1 {
                    go_tx.lock().unwrap().send(()).unwrap();
                }
                i * 10
            },
            |index, r| seen.push((index, r)),
        );
        (finished.into_inner().unwrap(), seen)
    }

    #[test]
    fn results_keep_input_order_when_item_zero_finishes_last() {
        let (finished, seen) = item_zero_last(6);
        assert_eq!(finished.last(), Some(&0), "item 0 must finish last");
        assert_eq!(finished[..5], [1, 2, 3, 4, 5]);
        let results: Vec<usize> = seen.iter().map(|&(_, r)| r).collect();
        assert_eq!(results, [0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn sink_sees_each_index_once_in_ascending_order() {
        let (_, seen) = item_zero_last(9);
        let indices: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..9).collect::<Vec<_>>());
        // Results stay paired with their own index.
        assert!(seen.iter().all(|&(i, r)| r == i * 10));
    }

    #[test]
    fn par_map_matches_a_serial_map() {
        let items: Vec<u64> = (0..100).collect();
        let squares = par_map(None, &items, |&x| x * x);
        assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        for workers in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                for_each_ordered(
                    Some(workers),
                    [1, 2, 3, 4],
                    |x| {
                        if x == 3 {
                            panic!("item {x} failed");
                        }
                        x
                    },
                    |_, _| {},
                );
            });
            let payload = caught.expect_err("the caller must panic");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("item 3 failed"), "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_single_inputs_spawn_no_thread() {
        let caller = thread::current().id();
        let ids = |n: usize| par_map(Some(4), 0..n, |_| thread::current().id());
        assert!(ids(0).is_empty());
        assert_eq!(ids(1), [caller]);
    }

    #[test]
    fn owned_items_are_moved_into_f_and_mutated_there() {
        // The chaos drain's shape: owned `(index, state)` pairs, each
        // advanced in place on a worker and handed back whole.
        let items: Vec<(usize, Vec<u64>)> = (0..7).map(|g| (g, vec![g as u64])).collect();
        let out = par_map(Some(3), items, |(g, mut state)| {
            state.push(state[0] * 2);
            (g, state)
        });
        let want: Vec<(usize, Vec<u64>)> =
            (0..7).map(|g| (g, vec![g as u64, 2 * g as u64])).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn random_worker_counts_with_yields_match_one_worker() {
        // Uneven items that yield mid-way, at seeded worker counts in
        // 1..=4: the sink must see exactly the one-worker sequence.
        let work = |&n: &u64| {
            let mut h = n;
            for k in 0..(n % 7) * 50 {
                h = h.wrapping_mul(0x100_0000_01b3) ^ k;
                if k % 40 == 0 {
                    thread::yield_now();
                }
            }
            h
        };
        let items: Vec<u64> = (0..64).collect();
        let want = par_map(Some(1), &items, work);
        let mut rng = SimRng::new(0x5eed);
        for _ in 0..40 {
            let workers = rng.range_inclusive(1, 4) as usize;
            let mut got = Vec::new();
            for_each_ordered(Some(workers), &items, work, |i, r| got.push((i, r)));
            let indices: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
            assert_eq!(indices, (0..items.len()).collect::<Vec<_>>());
            let results: Vec<u64> = got.into_iter().map(|(_, r)| r).collect();
            assert_eq!(results, want, "workers = {workers}");
        }
    }
}
