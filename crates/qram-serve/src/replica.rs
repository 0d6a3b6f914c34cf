//! The serving core of one replica: one dispatcher over one sharded
//! backend.
//!
//! [`Replica`] is the §5 admission state of one replica and nothing
//! else: one FIFO dispatch queue, pipeline-slot accounting, and
//! divided-interval admission spacing. [`QramFleet`]'s serving loop
//! drives `R` of them behind its routing tier (one is the §5 single
//! machine). The reactor stays outside: a replica never owns an event
//! queue, it *reports* [`ReplicaEvent`]s through a caller-supplied hook.
//! Nor does it carry a query's address or keep a dispatch history: a
//! queued request is its arrival, deadline and a caller-private tag, and
//! each dispatch is reported once, as its tag, start and shard. The
//! caller records it, schedules its completion and releases its slots.
//!
//! The dispatch rules are those of the analytic `OnlineFifoScheduler`
//! recurrence (property-tested in `tests/serving.rs` and
//! `tests/fleet.rs`):
//!
//! * the `j`-th accepted request runs on shard `j mod K`, and requests
//!   leave the queue in accepted order. The replica keeps the front's
//!   shard as a cursor that steps and wraps at `K` as each request is
//!   consumed, so no pump divides; [`Replica::fail`] moves it past the
//!   drained requests with the one division a crash pays;
//! * each request starts as soon as it may: admissions are spaced by the
//!   divided interval `I_shard / K`;
//! * each shard holds at most `P_shard` in-flight queries and the
//!   aggregate cap bounds the whole replica;
//! * a capacity slot freed at instant `t` cannot be reused retroactively
//!   (`earliest = max(earliest, now)` — the `finish` of the entry `p`
//!   admissions back in the recurrence).
//!
//! A pump that cannot act is skipped ([`Replica::is_idle_at`]): with an
//! empty queue there is nothing to consume, and with a poll armed
//! strictly after `now` the front is blocked on the interval until that
//! poll. Only a pump or [`Replica::fail`] changes the front, and `fail`
//! clears the poll, so the front is the one the poll was armed for: its
//! start is that poll's instant, already checked against its deadline,
//! and nothing that may happen before it (an offer at the back, a
//! release, a stall) moves that start. The proptest
//! `an_idle_pump_reports_nothing_and_changes_nothing` pins the check
//! exact against random interleavings.
//!
//! [`QramFleet`]: crate::QramFleet

use std::collections::VecDeque;

use qram_metrics::Layers;

/// A request waiting in the dispatch queue.
#[derive(Debug)]
struct Pending {
    /// Caller-private handle reported back through [`ReplicaEvent`]s and
    /// [`Replica::fail`] (the fleet uses its query-state index).
    tag: usize,
    arrival: Layers,
    /// Absolute instant after which the request may no longer dispatch.
    deadline: Option<Layers>,
}

/// What a replica's dispatcher reports through the hook passed to
/// [`Replica::pump`]; the caller records it or turns it into its events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ReplicaEvent {
    /// A queued request dispatched: it holds its pipeline slots until
    /// [`Replica::release`] frees them on its shard.
    Dispatched {
        /// The caller-private handle passed to [`Replica::offer`].
        tag: usize,
        /// The dispatch (admission) instant.
        start: Layers,
        /// The shard it runs on: its accepted index mod `K`.
        shard: usize,
    },
    /// Wake the dispatcher at the admission-interval boundary `at`.
    Poll {
        /// The boundary instant.
        at: Layers,
    },
    /// A queued request's deadline passed before it could dispatch: the
    /// replica dropped it at the pump's instant (it consumes its
    /// round-robin slot but never dispatches, completes, or executes).
    Expired {
        /// The caller-private handle passed to [`Replica::offer`].
        tag: usize,
    },
}

/// The serving core of one QRAM replica: one FIFO queue dispatched
/// round-robin over the shards, a divided-interval dispatcher, and
/// in-flight accounting. Driven from outside by [`Replica::offer`] /
/// [`Replica::release`] / [`Replica::ack_poll`] / [`Replica::pump`].
#[derive(Debug)]
pub(crate) struct Replica {
    shards: usize,
    stagger: Layers,
    shard_parallelism: u32,
    aggregate_cap: u32,
    queue_capacity: Option<usize>,
    /// Accepted requests not yet consumed, in accepted order.
    queue: VecDeque<Pending>,
    /// The shard of the queue's front: its accepted index mod `K`. It
    /// steps past every consumed (dispatched or expired) request and,
    /// on a crash, past every drained one, so the round robin stays
    /// aligned.
    head_shard: usize,
    /// Per-shard stall flags (injected faults): a stalled shard at the
    /// round-robin head blocks the whole strict-FIFO dispatcher.
    stalled: Vec<bool>,
    inflight: u32,
    shard_inflight: Vec<u32>,
    last_dispatch: Option<Layers>,
    poll_at: Option<f64>,
}

impl Replica {
    /// A replica over `shards` shards, dispatching at the divided
    /// interval `stagger`, bounded by `shard_parallelism` slots per shard
    /// and `aggregate_cap` in aggregate, with an optional bounded arrival
    /// queue.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(
        shards: usize,
        shard_parallelism: u32,
        stagger: Layers,
        aggregate_cap: u32,
        queue_capacity: Option<usize>,
    ) -> Self {
        assert!(shards >= 1, "a replica needs at least one shard");
        Replica {
            shards,
            stagger,
            shard_parallelism,
            aggregate_cap,
            queue_capacity,
            queue: VecDeque::new(),
            head_shard: 0,
            stalled: vec![false; shards],
            inflight: 0,
            shard_inflight: vec![0; shards],
            last_dispatch: None,
            poll_at: None,
        }
    }

    /// Requests waiting in the dispatch queue (dispatched queries do not
    /// count).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Queries currently in flight in the shard pipelines.
    pub fn in_flight(&self) -> u32 {
        self.inflight
    }

    /// Queued plus in-flight: the load signal placement policies rank by.
    pub fn load(&self) -> usize {
        self.queue.len() + self.inflight as usize
    }

    /// True when the bounded arrival queue (if any) still has room — an
    /// offered request would be accepted rather than shed.
    pub fn has_queue_room(&self) -> bool {
        self.queue_capacity.is_none_or(|cap| self.queue.len() < cap)
    }

    /// Freezes or thaws one shard (an injected fault). While the
    /// round-robin head sits on a stalled shard the whole dispatcher
    /// blocks — strict FIFO admits nothing out of order. The caller must
    /// re-pump when the stall lifts.
    pub fn set_shard_stall(&mut self, shard: usize, stalled: bool) {
        self.stalled[shard] = stalled;
    }

    /// Takes the replica offline (a crash fault): drains the queued
    /// requests — returning their tags in accepted order so the caller
    /// can fail them over — zeroes the in-flight accounting (those
    /// queries are lost; the caller must not release their slots), and
    /// clears the poll latch. The round-robin cursor advances past the
    /// drained requests so dispatch stays aligned if the replica later
    /// rejoins.
    pub fn fail(&mut self) -> Vec<usize> {
        self.head_shard = (self.head_shard + self.queue.len()) % self.shards;
        self.inflight = 0;
        self.shard_inflight.fill(0);
        self.poll_at = None;
        self.queue.drain(..).map(|pending| pending.tag).collect()
    }

    /// Offers an arrival to the replica: queues it behind every accepted
    /// request and returns `true`, or returns `false` when the bounded
    /// arrival queue is full (the request is shed — the replica records
    /// nothing). `tag` is a caller-private handle echoed back by
    /// [`ReplicaEvent`]s and [`Replica::fail`]; `deadline`, if set, is
    /// the absolute instant past which the request expires instead of
    /// dispatching.
    pub fn offer(&mut self, tag: usize, arrival: Layers, deadline: Option<Layers>) -> bool {
        if !self.has_queue_room() {
            return false;
        }
        self.queue.push_back(Pending {
            tag,
            arrival,
            deadline,
        });
        true
    }

    /// Frees the pipeline slots of a query dispatched on `shard` that
    /// left its pipeline.
    pub fn release(&mut self, shard: usize) {
        self.inflight -= 1;
        self.shard_inflight[shard] -= 1;
    }

    /// Acknowledges a [`ReplicaEvent::Poll`] firing at instant `now`,
    /// clearing the pending-poll latch so [`Replica::pump`] may schedule
    /// the next one.
    pub fn ack_poll(&mut self, now: Layers) {
        if self.poll_at == Some(now.get()) {
            self.poll_at = None;
        }
    }

    /// True when [`Replica::pump`] at `now` can neither dispatch nor
    /// expire anything, so the caller may skip it: the queue is empty,
    /// or an armed poll lies strictly after `now` (see the module docs).
    pub fn is_idle_at(&self, now: Layers) -> bool {
        self.queue.is_empty() || self.poll_at.is_some_and(|at| at > now.get())
    }

    /// Steps the round-robin cursor past the consumed front.
    fn advance_head(&mut self) {
        self.head_shard += 1;
        if self.head_shard == self.shards {
            self.head_shard = 0;
        }
    }

    /// Runs the dispatcher at instant `now`: drains the queue in strict
    /// FIFO order, each request on its round-robin shard, as far as
    /// capacity and the admission interval allow, reporting each
    /// dispatch once to `report` as a [`ReplicaEvent::Dispatched`], each
    /// expiry as a [`ReplicaEvent::Expired`], and at most one
    /// [`ReplicaEvent::Poll`] when blocked on the interval.
    pub fn pump(&mut self, now: Layers, mut report: impl FnMut(ReplicaEvent)) {
        loop {
            let shard = self.head_shard;
            if self.stalled[shard] {
                // An injected stall at the round-robin head: strict FIFO
                // blocks the whole dispatcher until the caller thaws the
                // shard and re-pumps.
                break;
            }
            let Some(head) = self.queue.front() else {
                // Strict FIFO: the next accepted query has not arrived.
                break;
            };
            if self.inflight >= self.aggregate_cap
                || self.shard_inflight[shard] >= self.shard_parallelism
            {
                // Blocked on capacity: the caller re-runs the dispatcher
                // at exactly the release instant.
                break;
            }
            let mut start = head.arrival;
            if let Some(last) = self.last_dispatch {
                start = start.max(last + self.stagger);
            }
            // The event instant is itself a constraint: a capacity slot
            // freed by the completion that triggered this pump cannot be
            // reused retroactively, so a capacity-blocked query starts
            // exactly at the release instant — the `finish` of the entry
            // `p` admissions back in the analytic recurrence.
            start = start.max(now);
            if head.deadline.is_some_and(|deadline| start > deadline) {
                // The earliest admissible start already overruns the
                // deadline: the request can never dispatch in time, so it
                // expires now instead of waiting unboundedly. It consumes
                // its round-robin slot but is never dispatched.
                let pending = self.queue.pop_front().expect("head exists");
                self.advance_head();
                report(ReplicaEvent::Expired { tag: pending.tag });
                continue;
            }
            if start > now {
                // Blocked on the admission interval: wake the dispatcher
                // at the boundary.
                if self.poll_at != Some(start.get()) {
                    report(ReplicaEvent::Poll { at: start });
                    self.poll_at = Some(start.get());
                }
                break;
            }
            let pending = self.queue.pop_front().expect("head exists");
            self.advance_head();
            self.last_dispatch = Some(start);
            self.inflight += 1;
            self.shard_inflight[shard] += 1;
            report(ReplicaEvent::Dispatched {
                tag: pending.tag,
                start,
                shard,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Pumps `r` at `now` and returns what it reported, in order.
    fn pump(r: &mut Replica, now: f64) -> Vec<ReplicaEvent> {
        let mut events = Vec::new();
        r.pump(Layers::new(now), |e| events.push(e));
        events
    }

    /// The tags of the dispatches among `events`.
    fn dispatched(events: &[ReplicaEvent]) -> Vec<usize> {
        let tags = events.iter().filter_map(|e| match *e {
            ReplicaEvent::Dispatched { tag, .. } => Some(tag),
            _ => None,
        });
        tags.collect()
    }

    #[test]
    fn round_robin_offer_and_strict_fifo_pump() {
        let mut r = Replica::new(2, 4, Layers::new(4.0), 8, None);
        for id in 0..4 {
            assert!(r.offer(id, Layers::ZERO, None));
        }
        // One immediate dispatch; the second blocks on the interval.
        let events = pump(&mut r, 0.0);
        let first = ReplicaEvent::Dispatched {
            tag: 0,
            start: Layers::ZERO,
            shard: 0,
        };
        let poll = ReplicaEvent::Poll {
            at: Layers::new(4.0),
        };
        assert_eq!(events, vec![first, poll]);
        assert_eq!(r.queued(), 3);
        assert_eq!(r.in_flight(), 1);
        // The poll fires: the second request dispatches on the next shard.
        r.ack_poll(Layers::new(4.0));
        let events = pump(&mut r, 4.0);
        let second = ReplicaEvent::Dispatched {
            tag: 1,
            start: Layers::new(4.0),
            shard: 1,
        };
        assert_eq!(events[0], second);
    }

    #[test]
    fn poll_latch_deduplicates_wakeups() {
        let mut r = Replica::new(1, 4, Layers::new(4.0), 4, None);
        for id in 0..3 {
            r.offer(id, Layers::ZERO, None);
        }
        let is_poll = |e: &ReplicaEvent| matches!(e, ReplicaEvent::Poll { .. });
        let mut polls = pump(&mut r, 0.0).iter().filter(|e| is_poll(e)).count();
        assert!(r.is_idle_at(Layers::new(1.0)), "the poll at 4 is armed");
        polls += pump(&mut r, 1.0).iter().filter(|e| is_poll(e)).count();
        assert_eq!(polls, 1, "a pending poll is never re-scheduled");
        assert!(
            !r.is_idle_at(Layers::new(4.0)),
            "the poll's own instant acts"
        );
        // The poll fires: the latch clears and the next dispatch happens.
        r.ack_poll(Layers::new(4.0));
        assert_eq!(dispatched(&pump(&mut r, 4.0)), vec![1]);
    }

    #[test]
    fn bounded_queue_refuses_offers_when_full() {
        let mut r = Replica::new(1, 1, Layers::new(4.0), 1, Some(2));
        assert!(r.offer(0, Layers::ZERO, None));
        assert!(r.offer(1, Layers::ZERO, None));
        assert!(!r.has_queue_room());
        assert!(!r.offer(2, Layers::ZERO, None));
        assert_eq!(r.queued(), 2);
    }

    #[test]
    fn release_frees_the_slots_a_dispatch_holds() {
        // One pipeline slot: the second request waits for the release.
        let mut r = Replica::new(1, 1, Layers::new(4.0), 1, None);
        r.offer(7, Layers::new(1.0), None);
        r.offer(8, Layers::new(1.0), None);
        assert_eq!(dispatched(&pump(&mut r, 1.0)), vec![7]);
        assert_eq!(r.load(), 2);
        assert_eq!(dispatched(&pump(&mut r, 11.0)), Vec::<usize>::new());
        r.release(0);
        assert_eq!(r.in_flight(), 0);
        assert_eq!(dispatched(&pump(&mut r, 11.0)), vec![8]);
    }

    #[test]
    fn expired_deadline_skips_dispatch_but_keeps_round_robin_aligned() {
        // One pipeline slot, released at t = 10: the second offer cannot
        // start before then, past its deadline of 5 — it expires and the
        // third offer (same shard, deadline met) dispatches next.
        let mut r = Replica::new(1, 1, Layers::new(4.0), 1, None);
        r.offer(100, Layers::ZERO, None);
        r.offer(101, Layers::ZERO, Some(Layers::new(5.0)));
        r.offer(102, Layers::ZERO, None);
        pump(&mut r, 0.0);
        r.release(0);
        let events = pump(&mut r, 10.0);
        assert_eq!(events[0], ReplicaEvent::Expired { tag: 101 });
        assert_eq!(dispatched(&events), vec![102], "the survivor dispatches");
        assert_eq!(r.queued(), 0);
    }

    /// The (tag, shard) of each dispatch among `events`.
    fn placed(events: &[ReplicaEvent]) -> Vec<(usize, usize)> {
        let placed = events.iter().filter_map(|e| match *e {
            ReplicaEvent::Dispatched { tag, shard, .. } => Some((tag, shard)),
            _ => None,
        });
        placed.collect()
    }

    #[test]
    fn expiry_and_crash_keep_three_shards_round_robin_aligned() {
        // K = 3 with one slot per shard; tag 100 + j is accepted index j.
        // Tag 101's earliest start is one interval in, past its deadline
        // of 2: it expires, and every later dispatch still runs on shard
        // (accepted index mod 3).
        let mut r = Replica::new(3, 1, Layers::new(4.0), 3, None);
        for j in 0..9 {
            let deadline = (j == 1).then(|| Layers::new(2.0));
            r.offer(100 + j, Layers::ZERO, deadline);
        }
        let events = pump(&mut r, 0.0);
        assert_eq!(events[1], ReplicaEvent::Expired { tag: 101 });
        assert_eq!(placed(&events), vec![(100, 0)]);
        r.ack_poll(Layers::new(4.0));
        // Tag 103 waits for shard 0's slot, held by tag 100.
        assert_eq!(placed(&pump(&mut r, 4.0)), vec![(102, 2)]);
        r.release(0);
        assert_eq!(placed(&pump(&mut r, 8.0)), vec![(103, 0)]);
        r.ack_poll(Layers::new(12.0));
        // Tag 105 waits for shard 2's slot, held by tag 102.
        assert_eq!(placed(&pump(&mut r, 12.0)), vec![(104, 1)]);
        // A crash drains the queue in accepted order; the cursor moves
        // past the drained indices 5..9, so the next offer is index 9.
        assert_eq!(r.fail(), vec![105, 106, 107, 108]);
        r.offer(109, Layers::new(20.0), None);
        assert_eq!(placed(&pump(&mut r, 20.0)), vec![(109, 0)]);
    }

    #[test]
    fn stalled_shard_blocks_the_strict_fifo_dispatcher() {
        let mut r = Replica::new(2, 4, Layers::new(4.0), 8, None);
        for id in 0..4 {
            r.offer(id, Layers::ZERO, None);
        }
        r.set_shard_stall(0, true);
        let events = pump(&mut r, 0.0);
        assert!(events.is_empty(), "head shard stalled: nothing dispatches");
        r.set_shard_stall(0, false);
        let events = pump(&mut r, 0.0);
        assert_eq!(dispatched(&events), vec![0], "thawed: FIFO order resumes");
    }

    #[test]
    fn fail_drains_queued_tags_in_accepted_order_and_zeroes_in_flight() {
        let mut r = Replica::new(2, 4, Layers::new(4.0), 8, None);
        for id in 0..5 {
            r.offer(50 + id, Layers::ZERO, None);
        }
        pump(&mut r, 0.0);
        assert_eq!(r.in_flight(), 1);
        let stranded = r.fail();
        assert_eq!(
            stranded,
            vec![51, 52, 53, 54],
            "queued tags, accepted order"
        );
        assert_eq!(r.queued(), 0);
        assert_eq!(r.in_flight(), 0);
        // The replica can rejoin: a new offer dispatches on the shard the
        // round-robin cursor reached past the drained requests.
        r.offer(59, Layers::new(20.0), None);
        let events = pump(&mut r, 20.0);
        let rejoined = ReplicaEvent::Dispatched {
            tag: 59,
            start: Layers::new(20.0),
            shard: 1,
        };
        assert_eq!(events, vec![rejoined]);
    }

    proptest! {
        /// The idle check is exact. Random interleavings of offers (with
        /// and without deadlines, arriving now or, as a retry or hedge
        /// does, earlier), releases, poll firings, stalls and thaws,
        /// crashes and pumps, at non-decreasing instants that never pass
        /// an armed poll unfired, for K ∈ {1, 2, 3, 4}: whenever
        /// `is_idle_at(now)` holds, a pump at `now` reports nothing and
        /// leaves the queued count, the in-flight count and the head
        /// shard unchanged. After every step the head-shard cursor is the
        /// accepted index of the queue's front mod K, and every dispatch
        /// runs on that shard.
        #[test]
        fn an_idle_pump_reports_nothing_and_changes_nothing(
            steps in prop::collection::vec(0u64..u64::MAX, 1..160),
            k in 1usize..=4,
            slots in 1u32..=2,
            queue_raw in 0usize..6,
        ) {
            let queue_capacity = (queue_raw > 0).then_some(queue_raw);
            let aggregate = slots * k as u32 - queue_raw as u32 % (slots * k as u32);
            let mut r = Replica::new(k, slots, Layers::new(4.0), aggregate, queue_capacity);
            // `accepted` is the accepted index of the queue's front:
            // every request consumed or drained so far.
            let (mut now, mut accepted, mut tag) = (0.0, 0usize, 0usize);
            let mut held: Vec<usize> = Vec::new();
            let mut polls: Vec<f64> = Vec::new();
            for &seed in &steps {
                let next_poll = polls.iter().copied().fold(f64::INFINITY, f64::min);
                // Steps shorter than the interval keep armed polls ahead
                // of `now` for a while.
                now = (now + (seed % 8) as f64 / 4.0).min(next_poll.max(now));
                let arg = seed / 64;
                let pumps = match (seed / 8) % 16 {
                    0..=3 => {
                        let arrival = (now - (arg % 4) as f64).max(0.0);
                        let deadline = ((arg & 4) == 0)
                            .then(|| Layers::new(arrival + 1.0 + (arg / 8 % 12) as f64));
                        if r.offer(tag, Layers::new(arrival), deadline) {
                            tag += 1;
                        }
                        false
                    }
                    4..=6 if !held.is_empty() => {
                        let shard = held.swap_remove(arg as usize % held.len());
                        r.release(shard);
                        false
                    }
                    7 if now == next_poll => {
                        polls.retain(|&at| at != now);
                        r.ack_poll(Layers::new(now));
                        true
                    }
                    8 => {
                        r.set_shard_stall(arg as usize % k, (arg & 4) == 0);
                        false
                    }
                    9 => {
                        accepted += r.fail().len();
                        held.clear();
                        false
                    }
                    _ => true,
                };
                let idle = r.is_idle_at(Layers::new(now));
                if idle || pumps {
                    let before = (r.queued(), r.in_flight(), r.head_shard);
                    let events = pump(&mut r, now);
                    if idle {
                        prop_assert!(events.is_empty(), "idle at {} but {:?}", now, events);
                        prop_assert_eq!((r.queued(), r.in_flight(), r.head_shard), before);
                    }
                    for event in events {
                        match event {
                            ReplicaEvent::Dispatched { shard, .. } => {
                                prop_assert_eq!(shard, accepted % k);
                                held.push(shard);
                                accepted += 1;
                            }
                            ReplicaEvent::Expired { .. } => accepted += 1,
                            ReplicaEvent::Poll { at } => polls.push(at.get()),
                        }
                    }
                }
                prop_assert_eq!(r.head_shard, accepted % k);
            }
        }
    }
}
