//! A stable timed event queue.
//!
//! [`EventQueue`] orders events by their firing time; events scheduled for
//! the same instant pop in insertion (FIFO) order. Stability matters for
//! determinism: GPU schedulers frequently enqueue several events for the
//! same nanosecond (e.g. a squad's kernels all arriving after the same
//! launch delay) and the pop order must not depend on heap internals.
//!
//! The queue is a flat four-ary min-heap over `(at, seq)` keys. Compared
//! to `std::collections::BinaryHeap` (binary, max-heap with inverted
//! `Ord`), the wider fan-out halves the tree depth, sift-down touches one
//! contiguous cache line of children per level, and the backing `Vec`
//! never shrinks — so a queue that has reached its steady-state high-water
//! mark pushes and pops without allocating. The original `BinaryHeap`
//! wrapper is retained (test-only) as `legacy::LegacyEventQueue`, and a
//! differential test drives both through random interleaved operation
//! sequences to pin the pop order bit-for-bit.

use crate::time::SimTime;

/// Children per node. Four keeps the tree shallow (depth log4 n) while a
/// node's children stay adjacent in memory.
const ARITY: usize = 4;

/// One pending entry: fire time, insertion sequence number, payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The heap key: earliest time first; FIFO (insertion order) on ties.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A priority queue of `(SimTime, E)` pairs with FIFO tie-breaking.
pub struct EventQueue<E> {
    /// Flat four-ary min-heap: `heap[0]` is the earliest entry; the
    /// children of node `i` are nodes `4i + 1 ..= 4i + 4`.
    heap: Vec<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let e = self.heap.pop().map(|e| (e.at, e.payload));
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        e
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events. Keeps the backing capacity.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Moves `heap[i]` toward the root until its parent's key is smaller.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= self.heap[i].key() {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    /// Moves `heap[i]` toward the leaves, swapping with its smallest
    /// child while that child's key is smaller.
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = ARITY * i + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let end = (first_child + ARITY).min(len);
            for c in first_child + 1..end {
                if self.heap[c].key() < self.heap[best].key() {
                    best = c;
                }
            }
            if self.heap[i].key() <= self.heap[best].key() {
                break;
            }
            self.heap.swap(i, best);
            i = best;
        }
    }
}

/// The pre-PR-5 `BinaryHeap`-backed implementation, kept as a differential
/// twin: the four-ary queue above must reproduce its pop order exactly for
/// any operation sequence. Compiled for tests only.
#[cfg(test)]
pub mod legacy {
    use core::cmp::Ordering;
    use std::collections::BinaryHeap;

    use crate::time::SimTime;

    struct Entry<E> {
        at: SimTime,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // `BinaryHeap` is a max-heap; invert so the earliest (and, on
            // ties, the first-inserted) entry is at the top.
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The old queue: a max-`BinaryHeap` of inverted-`Ord` entries.
    pub struct LegacyEventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> Default for LegacyEventQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> LegacyEventQueue<E> {
        /// Creates an empty queue.
        pub fn new() -> Self {
            LegacyEventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        /// Schedules `payload` to fire at `at`.
        pub fn push(&mut self, at: SimTime, payload: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, payload });
        }

        /// Removes and returns the earliest event, if any.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.at, e.payload))
        }

        /// The firing time of the earliest pending event.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 5);
        q.push(SimTime::from_nanos(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_nanos(2), 2);
        q.push(SimTime::from_nanos(9), 9);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 5);
        assert_eq!(q.pop().unwrap().1, 9);
    }

    #[test]
    fn capacity_is_reused_across_refills() {
        let mut q = EventQueue::new();
        for i in 0..1024u64 {
            q.push(SimTime::from_nanos(i % 7), i);
        }
        let cap = q.heap.capacity();
        while q.pop().is_some() {}
        for i in 0..1024u64 {
            q.push(SimTime::from_nanos(i % 11), i);
        }
        assert_eq!(q.heap.capacity(), cap, "steady-state refill reallocated");
    }

    #[test]
    fn extreme_times_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(u64::MAX), "max");
        q.push(SimTime::from_nanos(0), "zero");
        q.push(SimTime::from_nanos(u64::MAX - 1), "pre");
        q.push(SimTime::from_nanos(u64::MAX), "max2");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(0), "zero")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(u64::MAX - 1), "pre")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(u64::MAX), "max")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(u64::MAX), "max2")));
        assert_eq!(q.pop(), None);
    }

    /// Deep schedules, seeded the way `Simulation::new` seeds its arrival
    /// queue (pre-sorted, many same-nanosecond ties), then driven through
    /// interleaved pushes and pops: the heap must match the `BinaryHeap`
    /// twin element for element at fleet-replay depth.
    #[test]
    fn deep_presorted_schedule_matches_legacy_binary_heap() {
        use crate::rng::SimRng;
        for seed in [1u64, 0xB1E55, 0x5CA1E] {
            let mut rng = SimRng::new(seed);
            // 8,192 arrivals over 1,024 distinct nanoseconds: ~8 per tick.
            let mut times: Vec<u64> = (0..8_192).map(|_| rng.next_below(1_024)).collect();
            times.sort_unstable();
            let mut new_q = EventQueue::new();
            let mut old_q = legacy::LegacyEventQueue::new();
            for (payload, &t) in times.iter().enumerate() {
                new_q.push(SimTime::from_nanos(t), payload);
                old_q.push(SimTime::from_nanos(t), payload);
            }
            let mut payload = times.len();
            let mut now = 0;
            // Even odds keep the depth near 8,192 throughout.
            for _ in 0..20_000 {
                if rng.next_below(2) == 0 {
                    // Reactions land at or after the current time, often on
                    // a tick that already holds pending arrivals.
                    let t = SimTime::from_nanos(now + rng.next_below(64));
                    new_q.push(t, payload);
                    old_q.push(t, payload);
                    payload += 1;
                } else {
                    assert_eq!(new_q.peek_time(), old_q.peek_time());
                    let popped = new_q.pop();
                    assert_eq!(popped, old_q.pop());
                    if let Some((t, _)) = popped {
                        now = t.as_nanos();
                    }
                }
            }
            loop {
                let (a, b) = (new_q.pop(), old_q.pop());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    proptest! {
        /// Popping the entire queue yields a non-decreasing time sequence,
        /// and equal-time events keep their relative insertion order.
        #[test]
        fn prop_stable_time_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx);
                    }
                }
                last = Some((t, idx));
            }
        }

        /// Differential twin: for any interleaving of pushes and pops
        /// (heavy on same-nanosecond ties), the four-ary heap and the old
        /// `BinaryHeap` implementation produce identical results — same
        /// pops, same peeks, same final drain, element for element.
        #[test]
        fn prop_matches_legacy_binary_heap(
            ops in proptest::collection::vec(
                // (is_push, time) — a small time range forces many ties.
                (any::<bool>(), 0u64..16), 1..400),
        ) {
            let mut new_q = EventQueue::new();
            let mut old_q = legacy::LegacyEventQueue::new();
            let mut payload = 0u64;
            for (is_push, t) in ops {
                if is_push {
                    new_q.push(SimTime::from_nanos(t), payload);
                    old_q.push(SimTime::from_nanos(t), payload);
                    payload += 1;
                } else {
                    prop_assert_eq!(new_q.peek_time(), old_q.peek_time());
                    prop_assert_eq!(new_q.pop(), old_q.pop());
                }
            }
            loop {
                let (a, b) = (new_q.pop(), old_q.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
