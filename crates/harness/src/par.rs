//! [`sim_core::par`] with the caller's trace label carried onto workers.
//!
//! The paper's evaluation is mostly grids of independent, seeded
//! simulation runs, and the `experiments` binary runs independent
//! experiments. Both go through [`for_each_ordered`], the ordered
//! parallel map of `sim_core` on every available CPU (DESIGN.md §5m). The
//! harness adds one thing: each item runs under the caller's [`tracectl`]
//! label, so trace files keep their experiment prefix.

use crate::tracectl;

/// [`sim_core::par::for_each_ordered`] on up to `available_parallelism()`
/// workers, each item running under the caller's [`tracectl`] label.
pub fn for_each_ordered<T, R, F, S>(items: &[T], f: F, sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(usize, R),
{
    for_each_ordered_on(None, items, f, sink);
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

/// [`for_each_ordered`] with an explicit worker option.
fn for_each_ordered_on<T, R, F, S>(workers: Option<usize>, items: &[T], f: F, sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(usize, R),
{
    let label = tracectl::label();
    let labelled = |item: &T| {
        tracectl::set_label(&label);
        f(item)
    };
    sim_core::par::for_each_ordered(workers, items, labelled, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn workers_carry_the_callers_trace_label() {
        tracectl::set_label("fig14");
        let items: Vec<usize> = (0..8).collect();
        let mut labels = Vec::new();
        for_each_ordered_on(
            Some(2),
            &items,
            |_| (thread::current().id(), tracectl::label()),
            |_, l| labels.push(l),
        );
        let caller = thread::current().id();
        assert!(labels.iter().all(|(id, _)| *id != caller), "ran on workers");
        assert!(labels.iter().all(|(_, l)| l == "fig14"), "{labels:?}");
    }
}
