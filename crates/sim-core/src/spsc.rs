//! Bounded lock-free single-producer/single-consumer rings.
//!
//! The serving front-end's ingest path (DESIGN.md §5l) hands arrivals
//! from one client stream per tenant to the scheduler daemon through one
//! of these rings — the same shape as RTIC's per-priority ready queues
//! (SNIPPETS.md snippet 1): exactly one producer and one consumer per
//! ring, wait-free on both sides, with all storage allocated at
//! construction and never in steady state (the mnemOS rule, snippet 2).
//! The counting-allocator gate in the `bench` crate holds the hot path
//! to 0 allocations per arrival.
//!
//! Correctness contract (property-tested in `tests/spsc_props.rs`):
//!
//! * **FIFO per producer** — items pop in exactly the order they were
//!   pushed.
//! * **No loss under wraparound** — a full ring rejects the push and
//!   returns the item to the caller; nothing is silently dropped.
//! * **Batched drain ≡ one-at-a-time pop** — [`Consumer::drain_into`]
//!   yields the same sequence as repeated [`Consumer::pop`], it just
//!   publishes the consumed slots with one atomic store per batch
//!   instead of one per item.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pad the indices onto separate cache lines so producer and consumer
/// cores don't false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Power-of-two slot count; index arithmetic masks with `mask`.
    mask: usize,
    /// Next slot the consumer will read. Written by the consumer only.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will write. Written by the producer only.
    tail: CachePadded<AtomicUsize>,
    /// Producer-maintained progress mark (see [`Producer::set_watermark`]):
    /// a monotone virtual-time bound the consumer can read without
    /// touching the ring. `u64::MAX` once the producer closed the stream.
    watermark: AtomicU64,
}

// One producer and one consumer may live on different threads; the
// indices serialize every slot access (each slot is written before the
// tail advance that publishes it, and read before the head advance that
// recycles it).
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Only the unconsumed range holds live values.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = &self.buf[i & self.mask];
            // Safety: slots in [head, tail) were initialized by push and
            // never consumed; both handles are gone (we are in drop).
            unsafe { (*slot.get()).assume_init_drop() };
        }
    }
}

/// The push side of a ring created by [`ring`]. `!Clone`: exactly one
/// producer exists per ring.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Local copy of `tail` (this side is its only writer).
    tail: usize,
    /// Cached consumer position; refreshed only when the ring looks full.
    head_cache: usize,
}

/// The pop side of a ring created by [`ring`]. `!Clone`: exactly one
/// consumer exists per ring.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Local copy of `head` (this side is its only writer).
    head: usize,
    /// Cached producer position; refreshed only when the ring looks empty.
    tail_cache: usize,
}

/// Creates a bounded SPSC ring holding at least `capacity` items
/// (rounded up to a power of two, minimum 2). All storage is allocated
/// here; push and pop never allocate.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let inner = Arc::new(Inner {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        watermark: AtomicU64::new(0),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            inner,
            head: 0,
            tail_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Pushes one item. Returns it back in `Err` when the ring is full —
    /// the caller decides whether that is backpressure (retry) or a shed
    /// (account for it); the ring itself never drops anything.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let cap = self.inner.mask + 1;
        if self.tail - self.head_cache == cap {
            // Looks full on the cached head; refresh from the consumer.
            self.head_cache = self.inner.head.0.load(Ordering::Acquire);
            if self.tail - self.head_cache == cap {
                return Err(value);
            }
        }
        let slot = &self.inner.buf[self.tail & self.inner.mask];
        // Safety: the slot is outside [head, tail), so the consumer will
        // not touch it until the tail store below publishes it.
        unsafe { (*slot.get()).write(value) };
        self.tail += 1;
        self.inner.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Publishes a monotone progress mark (virtual-time nanoseconds by
    /// convention): the producer promises every future [`Self::push`]
    /// carries a timestamp `>= mark`. The ingest stage reads this via
    /// [`Consumer::watermark`] to decide how far the virtual clock may
    /// safely advance while the ring is empty. Marks never move backward.
    pub fn set_watermark(&self, mark: u64) {
        // Release pairs with the consumer's Acquire load: everything
        // pushed before the mark is visible once the mark is.
        let prev = self.inner.watermark.load(Ordering::Relaxed);
        if mark > prev {
            self.inner.watermark.store(mark, Ordering::Release);
        }
    }

    /// Closes the stream: the watermark jumps to `u64::MAX`, telling the
    /// consumer no further items will ever be pushed.
    pub fn close(self) {
        self.inner.watermark.store(u64::MAX, Ordering::Release);
    }
}

impl<T> Consumer<T> {
    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Items currently in the ring (as of the last producer publish).
    pub fn len(&mut self) -> usize {
        self.tail_cache = self.inner.tail.0.load(Ordering::Acquire);
        self.tail_cache - self.head
    }

    /// True when the ring holds no published items.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Pops one item, oldest first.
    pub fn pop(&mut self) -> Option<T> {
        if self.head == self.tail_cache {
            // Looks empty on the cached tail; refresh from the producer.
            self.tail_cache = self.inner.tail.0.load(Ordering::Acquire);
            if self.head == self.tail_cache {
                return None;
            }
        }
        let slot = &self.inner.buf[self.head & self.inner.mask];
        // Safety: the slot is inside [head, tail), so it was initialized
        // by a push that the Acquire load above made visible.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.head += 1;
        self.inner.head.0.store(self.head, Ordering::Release);
        Some(value)
    }

    /// Batched drain: moves up to `max` items into `out` (oldest first)
    /// and returns how many moved. Identical sequence to repeated
    /// [`Self::pop`], but the consumed slots are published with a single
    /// atomic store, and the producer's tail is loaded once per batch —
    /// the hot-path shape the 1M-arrivals/s gate measures. `out` should
    /// be pre-reserved by the caller; this method itself never allocates
    /// when `out` has spare capacity.
    pub fn drain_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if self.tail_cache - self.head < max {
            self.tail_cache = self.inner.tail.0.load(Ordering::Acquire);
        }
        let n = (self.tail_cache - self.head).min(max);
        for i in 0..n {
            let slot = &self.inner.buf[(self.head + i) & self.inner.mask];
            // Safety: as in `pop` — all n slots precede the loaded tail.
            out.push(unsafe { (*slot.get()).assume_init_read() });
        }
        if n > 0 {
            self.head += n;
            self.inner.head.0.store(self.head, Ordering::Release);
        }
        n
    }

    /// The producer's progress mark (see [`Producer::set_watermark`]):
    /// `u64::MAX` once the stream is closed.
    pub fn watermark(&self) -> u64 {
        self.inner.watermark.load(Ordering::Acquire)
    }

    /// True when the producer closed the stream ([`Producer::close`]).
    /// Items already in the ring remain poppable.
    pub fn is_closed(&self) -> bool {
        self.watermark() == u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_full_rejection() {
        let (mut p, mut c) = ring::<u32>(4);
        assert_eq!(p.capacity(), 4);
        for i in 0..4 {
            assert!(p.push(i).is_ok());
        }
        assert_eq!(p.push(99), Err(99), "full ring must hand the item back");
        assert_eq!(c.pop(), Some(0));
        assert!(p.push(4).is_ok());
        let mut out = Vec::with_capacity(8);
        assert_eq!(c.drain_into(&mut out, 8), 4);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut p, mut c) = ring::<u64>(2);
        for round in 0..100u64 {
            assert!(p.push(round).is_ok());
            assert_eq!(c.pop(), Some(round));
        }
        assert!(c.is_empty());
    }

    #[test]
    fn watermark_is_monotone_and_close_is_terminal() {
        let (p, c) = ring::<u8>(2);
        assert_eq!(c.watermark(), 0);
        p.set_watermark(50);
        p.set_watermark(20); // stale mark: ignored
        assert_eq!(c.watermark(), 50);
        assert!(!c.is_closed());
        p.close();
        assert!(c.is_closed());
    }

    /// Every item crosses threads exactly once and in order, at ring
    /// sizes from the minimum (1 and 3 round up to 2 and 4) to large, and
    /// with the consumer draining one item at a time or a full ring.
    #[test]
    fn cross_thread_handoff_keeps_every_item_in_order() {
        const N: u64 = 20_000;
        for requested in [1, 2, 3, 64, 1024] {
            for drain_whole_ring in [false, true] {
                let (mut p, mut c) = ring::<u64>(requested);
                let capacity = c.capacity();
                assert!(capacity >= requested && capacity.is_power_of_two());
                let limit = if drain_whole_ring { capacity } else { 1 };
                std::thread::scope(|s| {
                    s.spawn(move || {
                        let mut i = 0;
                        while i < N {
                            if p.push(i).is_ok() {
                                i += 1;
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        p.close();
                    });
                    let mut seen = 0u64;
                    let mut buf = Vec::with_capacity(limit);
                    loop {
                        buf.clear();
                        if c.drain_into(&mut buf, limit) == 0 {
                            if c.is_closed() && c.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                            continue;
                        }
                        assert!(buf.len() <= limit);
                        for &v in &buf {
                            assert_eq!(v, seen, "ring {requested}, limit {limit}");
                            seen += 1;
                        }
                    }
                    assert_eq!(seen, N, "ring {requested}, limit {limit}");
                });
            }
        }
    }

    #[test]
    fn dropping_a_nonempty_ring_drops_items() {
        use std::rc::Rc;
        let probe = Rc::new(());
        {
            let (mut p, _c) = ring::<Rc<()>>(8);
            for _ in 0..5 {
                assert!(p.push(Rc::clone(&probe)).is_ok());
            }
        }
        assert_eq!(Rc::strong_count(&probe), 1, "ring drop leaked items");
    }
}
