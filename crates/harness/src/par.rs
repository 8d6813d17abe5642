//! Ordered parallel map over independent work items.
//!
//! The paper's evaluation is mostly grids of independent, seeded
//! simulation runs, and the `experiments` binary runs independent
//! experiments. Both go through [`for_each_ordered`]: workers on scoped
//! threads claim items from a shared cursor, and the calling thread hands
//! each result to a sink strictly in input order. Output therefore does
//! not depend on how the runs were scheduled (DESIGN.md §5m).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::tracectl;

/// Runs `f` on every item on up to `available_parallelism()` scoped
/// threads, calling `sink(index, result)` on the calling thread in index
/// order, each as soon as every earlier index is done.
///
/// With one item or one CPU the items run inline, in order, without
/// spawning. Each worker carries the caller's [`tracectl`] label, so trace
/// files keep their experiment prefix. A panic in `f` is re-raised on the
/// calling thread once the remaining items have finished.
pub fn for_each_ordered<T, R, F, S>(items: &[T], f: F, sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(usize, R),
{
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for_each_ordered_on(cpus, items, f, sink);
}

/// [`for_each_ordered`] collecting the results in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for_each_ordered(items, f, |_, r| out.push(r));
    out
}

/// [`for_each_ordered`] with at most `cpus` workers.
fn for_each_ordered_on<T, R, F, S>(cpus: usize, items: &[T], f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(usize, R),
{
    let workers = cpus.min(items.len());
    if workers <= 1 {
        for (i, item) in items.iter().enumerate() {
            sink(i, f(item));
        }
        return;
    }
    // The cursor only hands out indices; results travel over the channel,
    // which orders them, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let label = tracectl::label();
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let (next, f, label) = (&next, &f, &label);
                scope.spawn(move || {
                    tracectl::set_label(label);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        if tx.send((i, f(item))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(tx);

        let mut done: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread;

    /// Runs items 0..n on two workers with item 0 blocked until item n−1
    /// has finished, so item 0 is the last to complete. Returns the
    /// completion order and the indices the sink saw, in call order.
    fn item_zero_last(n: usize) -> (Vec<usize>, Vec<(usize, usize)>) {
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (go_tx, go_rx) = (Mutex::new(go_tx), Mutex::new(go_rx));
        let finished = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..n).collect();
        let mut seen = Vec::new();
        for_each_ordered_on(
            2,
            &items,
            |&i| {
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
        let squares = par_map(&items, |&x| x * x);
        assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        for cpus in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                for_each_ordered_on(
                    cpus,
                    &[1, 2, 3, 4],
                    |&x| {
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
            assert_eq!(msg, Some("item 3 failed"), "cpus = {cpus}");
        }
    }

    #[test]
    fn empty_and_single_inputs_spawn_no_thread() {
        let caller = thread::current().id();
        let none: Vec<thread::ThreadId> = for_each_collect(&[] as &[u8]);
        assert!(none.is_empty());
        let one = for_each_collect(&[7u8]);
        assert_eq!(one, [caller]);
    }

    fn for_each_collect<T: Sync>(items: &[T]) -> Vec<thread::ThreadId> {
        let mut ids = Vec::new();
        for_each_ordered_on(4, items, |_| thread::current().id(), |_, id| ids.push(id));
        ids
    }

    #[test]
    fn workers_carry_the_callers_trace_label() {
        tracectl::set_label("fig14");
        let items: Vec<usize> = (0..8).collect();
        let mut labels = Vec::new();
        for_each_ordered_on(
            2,
            &items,
            |_| (thread::current().id(), tracectl::label()),
            |_, l| labels.push(l),
        );
        let caller = thread::current().id();
        assert!(labels.iter().all(|(id, _)| *id != caller), "ran on workers");
        assert!(labels.iter().all(|(_, l)| l == "fig14"), "{labels:?}");
    }
}
