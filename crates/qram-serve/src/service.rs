//! The online QRAM service of §5: an event-driven serving loop over a
//! sharded backend.
//!
//! [`QramService`] admits an open-loop stream of [`ServiceRequest`]s onto
//! a [`ShardedQram`] through a pluggable [`AdmissionPolicy`]:
//!
//! * Accepted requests enter **per-shard round-robin dispatch queues**
//!   (the `j`-th accepted request queues at shard `j mod K`, matching
//!   [`ShardedQram::dispatch_shard`]).
//! * A single dispatcher drains the queues in FIFO order, spacing
//!   admissions by the divided interval `I_shard / K` and bounding each
//!   shard to its `P_shard` pipeline slots — so at most `K · P_shard`
//!   queries are in flight in aggregate, and **backpressure** propagates
//!   to an optional bounded arrival queue that sheds load when full.
//! * Dispatched queries execute through
//!   [`QramModel::execute_queries`] — the compiled-plan columnar batch
//!   hot path — and the report's log-bucketed [`LatencyHistogram`] of
//!   response latency (arrival → completion) is folded from the
//!   completion records after the reactor drains.
//!
//! The reactor's timings are not merely *similar* to the analytic
//! schedulers of `qram-sched`: with the FIFO policy they are **bit-equal**
//! to [`OnlineFifoScheduler`] on the equivalent
//! [`QramServer::for_model`] server (property-tested in
//! `tests/serving.rs`), because both commit the same admission recurrence
//! — the reactor merely discovers each binding constraint as an event
//! instead of a `max(..)` term. The per-shard admission interval `I_shard`
//! is enforced implicitly: `K` global admissions spaced `I_shard / K`
//! apart return to the same shard exactly `I_shard` later.
//!
//! [`OnlineFifoScheduler`]: qram_sched::OnlineFifoScheduler

use qram_core::{ExecError, QramModel, ShardedQram};
use qram_metrics::{LatencyHistogram, Layers, QueryRate, TimingModel};
use qram_sched::{AdmissionPolicy, FifoAdmission, QramServer, QueryRequest, Schedule, TenantId};
use qsim::branch::{AddressState, ClassicalMemory, QueryOutcome};

use crate::reactor::{order_key, EventQueue};
use crate::replica::{Replica, ReplicaEvent};

pub use crate::replica::CompletedQuery;

/// A user query arriving at the service: an address superposition plus its
/// arrival instant.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRequest {
    /// Caller-chosen request identifier (reported back in the
    /// [`ServiceReport`]; need not be unique).
    pub id: usize,
    /// Arrival instant in virtual layer time.
    pub arrival: Layers,
    /// The queried address superposition.
    pub address: AddressState,
}

/// Configuration of the serving loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Bound on requests waiting in the dispatch queues (dispatched
    /// queries do not count). Arrivals beyond it are shed and reported in
    /// [`ServiceReport::rejected`]. `None` queues without bound.
    pub queue_capacity: Option<usize>,
}

/// The outcome of one serving run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    timing: TimingModel,
    completed: Vec<CompletedQuery>,
    outcomes: Vec<QueryOutcome>,
    rejected: Vec<usize>,
    per_shard_dispatches: Vec<u64>,
    latency: LatencyHistogram,
}

impl ServiceReport {
    /// Served queries in dispatch order.
    #[must_use]
    pub fn completed(&self) -> &[CompletedQuery] {
        &self.completed
    }

    /// Query outcomes aligned with [`Self::completed`].
    #[must_use]
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    /// Identifiers of requests shed at the bounded arrival queue, in
    /// arrival order.
    #[must_use]
    pub fn rejected(&self) -> &[usize] {
        &self.rejected
    }

    /// Queries dispatched per shard queue — round-robin fairness means
    /// these never differ by more than one.
    #[must_use]
    pub fn per_shard_dispatches(&self) -> &[u64] {
        &self.per_shard_dispatches
    }

    /// The log-bucketed response-latency histogram (arrival → completion,
    /// in layers).
    #[must_use]
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// A response latency quantile in the timing model's wall-clock
    /// microseconds.
    ///
    /// # Panics
    ///
    /// Panics if nothing completed or `q` is outside `[0, 1]`.
    #[must_use]
    pub fn latency_micros(&self, q: f64) -> f64 {
        self.timing.layers_to_micros(self.latency.quantile(q))
    }

    /// Completion instant of the last served query.
    #[must_use]
    pub fn makespan(&self) -> Layers {
        self.completed
            .iter()
            .map(|c| c.finish)
            .fold(Layers::ZERO, Layers::max)
    }

    /// The observation window of the run: first arrival → last completion
    /// (a trace starting deep into virtual time is not billed for the
    /// idle prefix). [`Layers::ZERO`] when nothing completed.
    #[must_use]
    pub fn window(&self) -> Layers {
        let Some(first_arrival) = self.completed.iter().map(|c| c.arrival).reduce(Layers::min)
        else {
            return Layers::ZERO;
        };
        self.makespan() - first_arrival
    }

    /// Served queries per layer over the run (first arrival → makespan);
    /// `0.0` when nothing completed (never a division by zero).
    #[must_use]
    pub fn queries_per_layer(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed.len() as f64 / self.window().get()
    }

    /// Served queries per second under the service's timing model, over
    /// the same first-arrival → makespan window; [`QueryRate::ZERO`] when
    /// nothing completed (never `NaN`).
    #[must_use]
    pub fn query_rate(&self) -> QueryRate {
        if self.completed.is_empty() {
            return QueryRate::ZERO;
        }
        QueryRate::new(self.completed.len() as f64 / self.timing.layers_to_seconds(self.window()))
    }

    /// The realized timings as a `qram-sched` [`Schedule`], for comparison
    /// against the analytic schedulers.
    #[must_use]
    pub fn schedule(&self) -> Schedule {
        Schedule::from_entries(
            self.completed
                .iter()
                .map(|c| qram_sched::ScheduledQuery {
                    request: QueryRequest {
                        id: c.id,
                        arrival: c.arrival,
                    },
                    start: c.start,
                    finish: c.finish,
                })
                .collect(),
        )
    }
}

/// Reactor events, in virtual layer time.
#[derive(Debug)]
enum Event {
    /// A request reaches the service.
    Arrival(ServiceRequest),
    /// The `index`-th dispatched query leaves its shard pipeline.
    Completion { index: usize },
    /// Wake the dispatcher at an admission-interval boundary.
    Poll,
}

/// The §5 quantum-data-center service: an event-driven serving loop over a
/// [`ShardedQram`] under a pluggable admission policy.
///
/// # Examples
///
/// ```
/// use qram_core::ShardedQram;
/// use qram_metrics::{Capacity, Layers, TimingModel};
/// use qram_serve::{QramService, ServiceConfig, ServiceRequest};
/// use qsim::branch::{AddressState, ClassicalMemory};
///
/// let qram = ShardedQram::fat_tree(Capacity::new(16)?, 2);
/// let mut service = QramService::fifo(qram, TimingModel::paper_default());
/// let memory = ClassicalMemory::from_words(1, &[1; 16])?;
/// let requests: Vec<ServiceRequest> = (0..6)
///     .map(|id| ServiceRequest {
///         id,
///         arrival: Layers::ZERO,
///         address: AddressState::classical(4, id as u64).unwrap(),
///     })
///     .collect();
/// let report = service.serve(&memory, requests)?;
/// assert_eq!(report.completed().len(), 6);
/// // Saturated arrivals dispatch at the divided interval I_shard / K.
/// let starts: Vec<f64> = report.completed().iter().map(|c| c.start.get()).collect();
/// assert_eq!(starts[1] - starts[0], 8.25 / 2.0);
/// // Every branch reads the stored word.
/// assert_eq!(report.outcomes()[3].data_for(3), Some(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct QramService<M: QramModel, P: AdmissionPolicy = FifoAdmission> {
    qram: ShardedQram<M>,
    timing: TimingModel,
    policy: P,
    config: ServiceConfig,
}

impl<M: QramModel> QramService<M, FifoAdmission> {
    /// A FIFO service with an unbounded arrival queue.
    #[must_use]
    pub fn fifo(qram: ShardedQram<M>, timing: TimingModel) -> Self {
        QramService::new(qram, timing, FifoAdmission, ServiceConfig::default())
    }
}

impl<M: QramModel, P: AdmissionPolicy> QramService<M, P> {
    /// A service over `qram` with an explicit policy and configuration.
    #[must_use]
    pub fn new(
        qram: ShardedQram<M>,
        timing: TimingModel,
        policy: P,
        config: ServiceConfig,
    ) -> Self {
        QramService {
            qram,
            timing,
            policy,
            config,
        }
    }

    /// The backend being served.
    #[must_use]
    pub fn qram(&self) -> &ShardedQram<M> {
        &self.qram
    }

    /// The equivalent pipelined server: parallelism `K · P_shard`,
    /// admission interval `I_shard / K`, monolithic single-query latency.
    #[must_use]
    pub fn equivalent_server(&self) -> QramServer {
        QramServer::for_model(&self.qram, &self.timing)
    }

    /// Serves a batch of requests to completion: runs the discrete-event
    /// loop over every arrival, then executes the dispatched queries
    /// against `memory` through the backend's batch hot path.
    ///
    /// Requests may be supplied in any order (the reactor orders them by
    /// arrival instant, FIFO among ties).
    ///
    /// # Errors
    ///
    /// Returns an error if query execution fails (e.g. a corrupted
    /// instruction stream).
    ///
    /// # Panics
    ///
    /// Panics if `memory` or any request's address width mismatches the
    /// QRAM capacity.
    pub fn serve(
        &mut self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = ServiceRequest>,
    ) -> Result<ServiceReport, ExecError> {
        let server = self.equivalent_server();
        let aggregate_cap = self
            .policy
            .in_flight_cap(&server)
            .clamp(1, server.parallelism());
        let address_width = self.qram.capacity().address_width();
        let mut replica = Replica::new(
            self.qram.num_shards() as usize,
            self.qram.shard_parallelism(),
            server.interval(),
            server.latency(),
            aggregate_cap,
            self.config.queue_capacity,
        );

        // Arrivals are all known up front, so they live in a sorted list
        // merged against the event heap instead of inside it: the heap then
        // only ever holds the in-flight completions plus at most one poll,
        // which keeps every push/pop O(log in-flight) rather than
        // O(log total-requests). The stable sort preserves supply order
        // among same-instant arrivals — the same FIFO tie-break the heap's
        // sequence numbers used to provide.
        let mut arrivals: Vec<ServiceRequest> = requests
            .into_iter()
            .inspect(|r| {
                assert_eq!(
                    r.address.address_width(),
                    address_width,
                    "request address width must match QRAM capacity"
                );
            })
            .collect();
        arrivals.sort_by_key(|r| order_key(r.arrival.get()));
        let total_requests = arrivals.len();
        let mut arrivals = arrivals.into_iter().peekable();
        let mut events: EventQueue<Event> = EventQueue::new();
        let mut completed: Vec<CompletedQuery> = Vec::with_capacity(total_requests);
        let mut rejected: Vec<usize> = Vec::new();

        loop {
            // An arrival at the same instant as a heap event goes first:
            // arrivals were pushed before any completion or poll under the
            // old single-heap scheme, so the FIFO tie-break favoured them.
            let arrival_is_next = match (arrivals.peek(), events.peek_time()) {
                (Some(pending), Some(next)) => pending.arrival <= next,
                (Some(_), None) => true,
                (None, _) => false,
            };
            let (now, event) = if arrival_is_next {
                let pending = arrivals.next().expect("peeked arrival exists");
                (pending.arrival, Event::Arrival(pending))
            } else if let Some(popped) = events.pop() {
                popped
            } else {
                break;
            };
            match event {
                Event::Arrival(request) => {
                    if !replica.offer(
                        request.id,
                        request.id,
                        TenantId::DEFAULT,
                        request.arrival,
                        None,
                        request.address,
                    ) {
                        rejected.push(request.id);
                    }
                }
                Event::Completion { index } => {
                    completed.push(replica.complete(index, now));
                }
                Event::Poll => replica.ack_poll(now),
            }
            // Dispatcher: drain the shard queues in strict FIFO round-robin
            // order as far as capacity and the admission interval allow.
            let _ = replica.pump(now, &mut self.policy, |time, ev| {
                events.push(
                    time,
                    match ev {
                        ReplicaEvent::Completion { index } => Event::Completion { index },
                        ReplicaEvent::Poll => Event::Poll,
                        ReplicaEvent::Expired { .. } => {
                            unreachable!("the service offers no deadlines")
                        }
                    },
                );
            });
        }
        debug_assert_eq!(replica.queued(), 0, "every accepted request dispatches");
        debug_assert_eq!(completed.len(), replica.dispatch_count());

        let mut latency = LatencyHistogram::new();
        for c in &completed {
            latency.record(c.response_latency());
        }
        let per_shard_dispatches = replica.per_shard_dispatches().to_vec();

        // Execute the dispatched queries in admission order through the
        // backend's batch hot path (compiled plans and the columnar
        // kernel's direct loads over the unsplit memory image).
        let addresses: Vec<AddressState> = replica.into_addresses();
        let outcomes = self.qram.execute_queries(memory, &addresses, &[])?;

        Ok(ServiceReport {
            timing: self.timing,
            completed,
            outcomes,
            rejected,
            per_shard_dispatches,
            latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_core::FatTreeQram;
    use qram_metrics::Capacity;
    use qram_sched::{OnlineFifoScheduler, Scheduler as _};

    fn cap(n: u64) -> Capacity {
        Capacity::new(n).unwrap()
    }

    fn classical_requests(arrivals: &[f64], width: u32, modulus: u64) -> Vec<ServiceRequest> {
        arrivals
            .iter()
            .enumerate()
            .map(|(id, &a)| ServiceRequest {
                id,
                arrival: Layers::new(a),
                address: AddressState::classical(width, id as u64 % modulus).unwrap(),
            })
            .collect()
    }

    fn checkerboard(n: u64) -> ClassicalMemory {
        let cells: Vec<u64> = (0..n).map(|i| (i * 5 + 1) % 2).collect();
        ClassicalMemory::from_words(1, &cells).unwrap()
    }

    #[test]
    fn single_shard_service_matches_online_fifo() {
        let qram = ShardedQram::fat_tree(cap(64), 1);
        let timing = TimingModel::paper_default();
        let mut service = QramService::fifo(qram, timing);
        let arrivals: Vec<f64> = (0..20).map(|i| (i as f64 * 2.7) % 31.0).collect();
        let mut sorted = arrivals.clone();
        sorted.sort_by(f64::total_cmp);
        let requests = classical_requests(&sorted, 6, 64);
        let report = service.serve(&checkerboard(64), requests.clone()).unwrap();

        let mut reference = OnlineFifoScheduler::new(service.equivalent_server());
        for r in &requests {
            reference
                .admit(QueryRequest {
                    id: r.id,
                    arrival: r.arrival,
                })
                .unwrap();
        }
        assert_eq!(report.schedule().entries(), reference.finish().entries());
    }

    #[test]
    fn round_robin_assignment_fills_queues_evenly() {
        let qram = ShardedQram::fat_tree(cap(256), 4);
        let timing = TimingModel::paper_default();
        let mut service = QramService::fifo(qram, timing);
        let requests = classical_requests(&[0.0; 22], 8, 256);
        let report = service.serve(&checkerboard(256), requests).unwrap();
        assert_eq!(report.per_shard_dispatches(), &[6, 6, 5, 5]);
        for (i, c) in report.completed().iter().enumerate() {
            assert_eq!(c.id, i, "strict FIFO dispatch order");
            assert_eq!(c.shard, i % 4, "round-robin queue assignment");
        }
    }

    #[test]
    fn saturated_dispatches_space_at_divided_interval() {
        let qram = ShardedQram::fat_tree(cap(4096), 4);
        let timing = TimingModel::paper_default();
        let mut service = QramService::fifo(qram, timing);
        let requests = classical_requests(&[0.0; 16], 12, 4096);
        let report = service.serve(&checkerboard(4096), requests).unwrap();
        let starts: Vec<f64> = report.completed().iter().map(|c| c.start.get()).collect();
        for w in starts.windows(2) {
            assert!((w[1] - w[0] - 8.25 / 4.0).abs() < 1e-9, "{starts:?}");
        }
    }

    #[test]
    fn outcomes_match_ideal_semantics() {
        let qram = ShardedQram::fat_tree(cap(64), 4);
        let timing = TimingModel::paper_default();
        let mut service = QramService::fifo(qram, timing);
        let memory = checkerboard(64);
        let requests: Vec<ServiceRequest> = (0..8)
            .map(|id| ServiceRequest {
                id,
                arrival: Layers::new(id as f64),
                address: AddressState::uniform(6, &[id as u64, id as u64 + 17, id as u64 + 40])
                    .unwrap(),
            })
            .collect();
        let report = service.serve(&memory, requests.clone()).unwrap();
        for (c, out) in report.completed().iter().zip(report.outcomes()) {
            let ideal = memory.ideal_query(&requests[c.id].address);
            assert!((out.fidelity(&ideal) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bounded_queue_sheds_excess_load() {
        let qram = ShardedQram::fat_tree(cap(64), 2);
        let timing = TimingModel::paper_default();
        let mut service = QramService::new(
            qram,
            timing,
            FifoAdmission,
            ServiceConfig {
                queue_capacity: Some(4),
            },
        );
        // A burst far beyond queue + pipeline capacity at t = 0: the first
        // request dispatches immediately, four more fit in the queue, and
        // the rest are shed (the queue only drains at the admission
        // interval, long after the instantaneous burst has passed).
        let requests = classical_requests(&[0.0; 40], 6, 64);
        let report = service.serve(&checkerboard(64), requests).unwrap();
        assert_eq!(report.completed().len(), 5);
        assert_eq!(report.rejected().len(), 35);
        assert_eq!(report.rejected()[0], 5);
        let ids: Vec<usize> = report.completed().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unsorted_submissions_are_ordered_by_arrival() {
        let qram = ShardedQram::fat_tree(cap(64), 2);
        let timing = TimingModel::paper_default();
        let mut service = QramService::fifo(qram, timing);
        let mut requests = classical_requests(&[30.0, 0.0, 60.0, 15.0], 6, 64);
        requests.swap(0, 2);
        let report = service.serve(&checkerboard(64), requests).unwrap();
        let ids: Vec<usize> = report.completed().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![1, 3, 0, 2]);
    }

    #[test]
    fn report_throughput_and_latency_metrics() {
        let qram = ShardedQram::fat_tree(cap(64), 2);
        let timing = TimingModel::paper_default();
        let mut service = QramService::fifo(qram, timing);
        let requests = classical_requests(&[0.0; 10], 6, 64);
        let report = service.serve(&checkerboard(64), requests).unwrap();
        assert_eq!(report.latency_histogram().count(), 10);
        assert!(report.queries_per_layer() > 0.0);
        assert!(report.query_rate().get() > 0.0);
        assert!(report.latency_micros(0.5) <= report.latency_micros(0.99));
        let mono_latency = FatTreeQram::new(cap(64))
            .single_query_latency(&timing)
            .get();
        // The fastest query finishes in exactly one monolithic latency.
        assert!((report.latency_histogram().min().get() - mono_latency).abs() < 1e-9);
    }

    #[test]
    fn throughput_window_excludes_idle_prefix() {
        // A trace starting deep into virtual time reports the same
        // sustained rate as the identical trace shifted to t = 0.
        let timing = TimingModel::paper_default();
        let run = |offset: f64| {
            let qram = ShardedQram::fat_tree(cap(64), 2);
            let mut service = QramService::fifo(qram, timing);
            let arrivals: Vec<f64> = (0..10).map(|i| offset + 3.0 * i as f64).collect();
            let requests = classical_requests(&arrivals, 6, 64);
            service.serve(&checkerboard(64), requests).unwrap()
        };
        let at_zero = run(0.0);
        let delayed = run(10_000.0);
        assert!((delayed.window() - at_zero.window()).get().abs() < 1e-9);
        assert!((delayed.queries_per_layer() - at_zero.queries_per_layer()).abs() < 1e-12);
        assert!((delayed.query_rate().get() - at_zero.query_rate().get()).abs() < 1e-6);
    }

    #[test]
    fn empty_run_reports_zero_rates_without_panicking() {
        let qram = ShardedQram::fat_tree(cap(64), 2);
        let mut service = QramService::fifo(qram, TimingModel::paper_default());
        let report = service.serve(&checkerboard(64), Vec::new()).unwrap();
        assert_eq!(report.window(), Layers::ZERO);
        assert_eq!(report.queries_per_layer(), 0.0);
        assert_eq!(report.query_rate(), QueryRate::ZERO);
        assert_eq!(report.latency_histogram().p99(), None);
    }

    #[test]
    #[should_panic(expected = "address width")]
    fn mismatched_address_width_rejected() {
        let qram = ShardedQram::fat_tree(cap(64), 2);
        let mut service = QramService::fifo(qram, TimingModel::paper_default());
        let bad = vec![ServiceRequest {
            id: 0,
            arrival: Layers::ZERO,
            address: AddressState::classical(3, 1).unwrap(),
        }];
        let _ = service.serve(&checkerboard(64), bad);
    }
}
