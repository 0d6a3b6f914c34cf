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
//! Every event is ordered by one integer key: the instant's
//! order-preserving bits in the high half and the push sequence number
//! in the low half, so a single `u128` comparison decides both the time
//! order and the FIFO tie-break.
//!
//! Events live in a binary heap or in FIFO *lanes* beside it. A lane
//! holds events pushed in non-decreasing instant order, so its front is
//! its earliest event and its keys increase front to back. A lane push
//! that is not earlier than the lane's tail appends to the lane; any
//! other push goes to the heap. A pop takes the smallest key over the
//! heap top and the lane fronts, so the pop order is exactly that of one
//! heap holding every event, wherever each event went. The front keys
//! are cached, and so is the smallest of them: finding the next event
//! compares two keys, and only a pop from a lane rescans the fronts. The
//! serving loop puts each replica's completions on a lane of their own
//! (they leave a replica in dispatch order unless a slow-replica fault
//! stretches one) and its writes, in supply order, on another; the heap
//! keeps everything else.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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

/// The instant whose [`order_key`] is `key`.
fn instant(key: u64) -> Layers {
    let bits = key ^ ((((!key) as i64 >> 63) as u64) | 1 << 63);
    Layers::new(f64::from_bits(bits))
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

    /// The instant, decoded from its [`order_key`].
    fn at(&self) -> Layers {
        instant(self.time)
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
    /// FIFO lanes, each in increasing key order front to back.
    lanes: Vec<VecDeque<Entry<T>>>,
    /// Each lane's front key, or `EMPTY` for an empty lane.
    heads: Vec<u128>,
    /// The smallest of `heads` and its lane, kept current so finding the
    /// next event compares two keys: this and the heap top's.
    lead: (u128, usize),
    seq: u64,
}

/// The cached head key of an empty lane. No event has it: the largest
/// instant key, that of `+∞`, is below `u64::MAX`.
const EMPTY: u128 = u128::MAX;

impl<T> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::with_lanes(0)
    }

    /// An empty queue with `lanes` FIFO lanes beside its heap.
    pub(crate) fn with_lanes(lanes: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            heads: vec![EMPTY; lanes],
            lead: (EMPTY, 0),
            seq: 0,
        }
    }

    /// The next entry, numbered in push order.
    fn entry(&mut self, time: Layers, payload: T) -> Entry<T> {
        let seq = self.seq;
        self.seq += 1;
        Entry {
            time: order_key(time.get()),
            seq,
            payload,
        }
    }

    /// Schedules `payload` at virtual instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn push(&mut self, time: Layers, payload: T) {
        let entry = self.entry(time, payload);
        self.heap.push(entry);
    }

    /// Schedules `payload` at virtual instant `time` on FIFO lane `lane`:
    /// appended there unless `time` is earlier than the lane's tail, in
    /// which case it goes to the heap. Either way it pops exactly where
    /// [`EventQueue::push`] would have put it.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or the queue has no lane `lane`.
    pub(crate) fn push_lane(&mut self, lane: usize, time: Layers, payload: T) {
        let entry = self.entry(time, payload);
        let queue = &mut self.lanes[lane];
        match queue.back() {
            Some(tail) if entry.time < tail.time => self.heap.push(entry),
            Some(_) => queue.push_back(entry),
            None => {
                let key = entry.key();
                self.heads[lane] = key;
                if key < self.lead.0 {
                    self.lead = (key, lane);
                }
                queue.push_back(entry);
            }
        }
    }

    /// The smallest key over the heap top and the lane heads (`EMPTY`
    /// when nothing is pending), and the lane holding it (`None`: the
    /// heap).
    fn first(&self) -> (u128, Option<usize>) {
        let heap = self.heap.peek().map_or(EMPTY, Entry::key);
        match self.lead {
            (key, lane) if key < heap => (key, Some(lane)),
            _ => (heap, None),
        }
    }

    /// Removes and returns the earliest event (FIFO among ties) if it is
    /// strictly earlier than `bound`; with no bound, as [`EventQueue::pop`].
    ///
    /// # Panics
    ///
    /// Panics if `bound` is NaN.
    pub(crate) fn pop_before(&mut self, bound: Option<Layers>) -> Option<(Layers, T)> {
        // Every key at or after the bound's instant is at least `limit`.
        let limit = bound.map_or(EMPTY, |t| u128::from(order_key(t.get())) << 64);
        let (key, lane) = self.first();
        if key >= limit {
            return None;
        }
        let entry = match lane {
            None => self.heap.pop()?,
            Some(lane) => {
                let queue = &mut self.lanes[lane];
                let entry = queue.pop_front()?;
                self.heads[lane] = queue.front().map_or(EMPTY, Entry::key);
                self.lead = (EMPTY, 0);
                for (lane, &head) in self.heads.iter().enumerate() {
                    // Selects, not a branch: which lane leads next varies
                    // from pop to pop, so a branch would mispredict.
                    let less = head < self.lead.0;
                    self.lead.0 = if less { head } else { self.lead.0 };
                    self.lead.1 = if less { lane } else { self.lead.1 };
                }
                entry
            }
        };
        Some((entry.at(), entry.payload))
    }

    /// Removes and returns the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(Layers, T)> {
        self.pop_before(None)
    }

    /// The instant of the next event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Layers> {
        match self.first() {
            (EMPTY, _) => None,
            (key, _) => Some(instant((key >> 64) as u64)),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// The lanes of the model test's queue.
    const LANES: usize = 3;

    proptest! {
        /// Random interleaved pushes and pops against a linear-scan
        /// reference that orders by time with `partial_cmp`, then by push
        /// order. A push goes to the heap or to one of three lanes, at any
        /// grid instant, so lane pushes earlier than the lane's tail occur.
        /// A pop is unbounded, or bounded by a grid instant and due only
        /// when the earliest event is strictly earlier. Payloads pop in
        /// exactly the reference's order, and the popped and peeked
        /// instants and the length match the reference's. Every case ends
        /// by popping both sides empty.
        #[test]
        fn pops_match_a_linear_scan_reference(
            ops in prop::collection::vec(0usize..52, 1..200),
        ) {
            let pushes = INSTANTS.len() * (LANES + 1);
            let mut q = EventQueue::with_lanes(LANES);
            let mut reference: Vec<(Layers, usize)> = Vec::new();
            let drain = std::iter::repeat_n(usize::MAX, ops.len());
            for (payload, op) in ops.iter().copied().chain(drain).enumerate() {
                if op < pushes {
                    let t = Layers::new(INSTANTS[op % INSTANTS.len()]);
                    match op / INSTANTS.len() {
                        0 => q.push(t, payload),
                        lane => q.push_lane(lane - 1, t, payload),
                    }
                    reference.push((t, payload));
                } else {
                    let bound = INSTANTS.get(op - pushes).map(|&t| Layers::new(t));
                    let earliest = (0..reference.len()).reduce(|best, i| {
                        match reference[i].0.partial_cmp(&reference[best].0) {
                            Some(Ordering::Less) => i,
                            _ => best,
                        }
                    });
                    let due = earliest.filter(|&i| bound.is_none_or(|b| reference[i].0 < b));
                    let want = due.map(|i| reference.remove(i));
                    let got = match bound {
                        None => q.pop(),
                        Some(_) => q.pop_before(bound),
                    };
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
    fn an_out_of_order_lane_push_still_pops_in_time_order() {
        let mut q = EventQueue::with_lanes(1);
        q.push_lane(0, Layers::new(5.0), 'a');
        // Earlier than the lane's tail: it goes to the heap.
        q.push_lane(0, Layers::new(3.0), 'b');
        q.push_lane(0, Layers::new(5.0), 'c');
        q.push(Layers::new(4.0), 'd');
        q.push(Layers::new(5.0), 'e');
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(Layers::new(3.0)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, id)| id).collect();
        assert_eq!(order, vec!['b', 'd', 'a', 'c', 'e']);
    }

    #[test]
    fn a_bounded_pop_leaves_events_at_or_after_the_bound() {
        let mut q = EventQueue::with_lanes(1);
        q.push_lane(0, Layers::new(2.0), "completion");
        q.push(Layers::new(1.0), "poll");
        assert_eq!(q.pop_before(Some(Layers::new(1.0))), None);
        assert_eq!(
            q.pop_before(Some(Layers::new(2.0))),
            Some((Layers::new(1.0), "poll"))
        );
        assert_eq!(q.pop_before(Some(Layers::new(2.0))), None);
        assert_eq!(q.pop_before(None), Some((Layers::new(2.0), "completion")));
        assert!(q.is_empty());
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
