//! A hand-rolled discrete-event reactor core.
//!
//! The serving layer runs in *virtual circuit-layer time*: arrivals,
//! dispatches, and completions are instants in [`Layers`], not wall-clock
//! time, so the reactor is a time-ordered event queue rather than an OS
//! event loop (the vendored tree has no tokio — and needs none: the
//! hardware clock being simulated is the QRAM's layer counter).
//!
//! [`EventQueue`] pops events in non-decreasing time order; events pushed
//! at the same instant pop in push order (FIFO tie-break), which is what
//! makes the reactor's schedules deterministic and lets the service pin
//! its timings bit-for-bit against the analytic schedulers in
//! `qram-sched`.
//!
//! The heap is ordered by one integer key per event: the instant's
//! order-preserving bits in the high half and the push sequence number
//! in the low half, so a single `u128` comparison decides both the time
//! order and the FIFO tie-break.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use qram_metrics::Layers;

/// An instant's position in the time order: the sign-flip map of
/// `time + 0.0` (which folds `-0.0` into `+0.0`), whose unsigned order is
/// the numeric order of every non-NaN `f64`.
///
/// # Panics
///
/// Panics if `time` is NaN: it has no place in the time order.
pub(crate) fn order_key(time: f64) -> u64 {
    assert!(!time.is_nan(), "event times are never NaN");
    let bits = (time + 0.0).to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// A payload scheduled at a virtual instant. The key is kept as two
/// halves (a `u128` field would align the entry to 16 bytes) and compared
/// as one `u128`, reversed so the max-heap pops the smallest key first.
#[derive(Debug)]
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn key(&self) -> u128 {
        u128::from(self.time) << 64 | u128::from(self.seq)
    }

    /// The instant, decoded from [`order_key`].
    fn at(&self) -> Layers {
        let bits = self.time ^ ((((!self.time) as i64 >> 63) as u64) | 1 << 63);
        Layers::new(f64::from_bits(bits))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A time-ordered event queue over virtual [`Layers`] time.
///
/// # Examples
///
/// ```
/// use qram_metrics::Layers;
/// use qram_serve::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(Layers::new(10.0), "completion");
/// q.push(Layers::new(2.5), "arrival");
/// q.push(Layers::new(10.0), "poll");
/// assert_eq!(q.pop(), Some((Layers::new(2.5), "arrival")));
/// // Same-instant events pop in push order.
/// assert_eq!(q.pop(), Some((Layers::new(10.0), "completion")));
/// assert_eq!(q.pop(), Some((Layers::new(10.0), "poll")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at virtual instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn push(&mut self, time: Layers, payload: T) {
        self.heap.push(Entry {
            time: order_key(time.get()),
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(Layers, T)> {
        self.heap.pop().map(|e| (e.at(), e.payload))
    }

    /// The instant of the next event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Layers> {
        self.heap.peek().map(Entry::at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, id) in [(5.0, 'c'), (1.0, 'a'), (3.0, 'b'), (8.0, 'd')] {
            q.push(Layers::new(t), id);
        }
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, id)| id).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for id in 0..100 {
            q.push(Layers::new(7.0), id);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, id)| id).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Layers::new(4.0), ());
        q.push(Layers::new(2.0), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Layers::new(2.0)));
        assert_eq!(q.pop().unwrap().0, Layers::new(2.0));
        assert_eq!(q.peek_time(), Some(Layers::new(4.0)));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Layers::new(10.0), "late");
        q.push(Layers::new(1.0), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(Layers::new(5.0), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn order_keys_keep_float_order_and_fold_the_zeros() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -5e-324,
            0.0,
            5e-324,
            1.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} < {}", w[0], w[1]);
        }
        assert_eq!(order_key(-0.0), order_key(0.0));
        for t in [0.0, -0.0, 5e-324, 1.0, 1e300, f64::MAX] {
            let mut q = EventQueue::new();
            q.push(Layers::new(t), ());
            assert_eq!(q.pop().unwrap().0.get().to_bits(), (t + 0.0).to_bits());
        }
    }

    /// The instants the model test draws from: a small grid that forces
    /// ties, plus both zeros, the smallest subnormal and huge values.
    const INSTANTS: [f64; 9] = [0.0, -0.0, 5e-324, 0.5, 1.0, 2.0, 3.0, 1e300, f64::MAX];

    proptest! {
        /// Random interleaved pushes and pops against a linear-scan
        /// reference that orders by time with `partial_cmp`, then by push
        /// order: payloads pop in exactly the reference's order, and the
        /// popped and peeked instants compare equal to the reference's.
        /// Every case ends by popping both sides empty.
        #[test]
        fn pops_match_a_linear_scan_reference(
            ops in prop::collection::vec(0usize..13, 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut reference: Vec<(Layers, usize)> = Vec::new();
            let drain = std::iter::repeat_n(INSTANTS.len(), ops.len());
            for (payload, op) in ops.iter().copied().chain(drain).enumerate() {
                if let Some(&t) = INSTANTS.get(op) {
                    q.push(Layers::new(t), payload);
                    reference.push((Layers::new(t), payload));
                } else {
                    let earliest = (0..reference.len()).reduce(|best, i| {
                        match reference[i].0.partial_cmp(&reference[best].0) {
                            Some(Ordering::Less) => i,
                            _ => best,
                        }
                    });
                    let want = earliest.map(|i| reference.remove(i));
                    let got = q.pop();
                    prop_assert_eq!(got.map(|(_, p)| p), want.map(|(_, p)| p));
                    prop_assert!(got.map(|(t, _)| t) == want.map(|(t, _)| t));
                }
                prop_assert_eq!(q.len(), reference.len());
                let first = reference
                    .iter()
                    .map(|&(t, _)| t)
                    .reduce(|a, b| if b < a { b } else { a });
                prop_assert!(q.peek_time() == first);
            }
            prop_assert!(q.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "never NaN")]
    fn a_nan_instant_is_rejected_when_pushed() {
        // `Layers` clamps differences at zero, so a NaN cannot be built
        // through it; the guard is checked on the raw instant.
        let inf = (Layers::new(f64::MAX) + Layers::new(f64::MAX)).get();
        let _ = order_key(inf - inf);
    }
}
