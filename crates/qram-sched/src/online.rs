//! Online query scheduling (§5.2).
//!
//! In practice a shared QRAM has no prior knowledge of QPU activity:
//! requests arrive at random instants and must be admitted on the fly.
//! [`OnlineFifoScheduler`] admits requests first-come-first-served as they
//! arrive; by the exchange argument of Appendix A.2 this online policy
//! achieves the same (optimal) total latency as the offline FIFO schedule
//! over the realized arrival sequence — verified in the tests.

use rand::Rng;

use qram_metrics::Layers;

use crate::fifo::{QueryRequest, Schedule, ScheduledQuery};
use crate::policy::{FifoAdmission, PolicyScheduler};
use crate::server::QramServer;

/// An incremental FIFO scheduler for online query arrivals.
///
/// Since the policy-stack refactor this is a thin adapter: the admission
/// recurrence lives in [`crate::PipelineCore`] and the type is exactly
/// [`PolicyScheduler`]`<`[`FifoAdmission`]`>` under its historical name
/// and API.
///
/// # Examples
///
/// ```
/// use qram_sched::{OnlineFifoScheduler, QramServer, QueryRequest};
/// use qram_metrics::{Capacity, Layers};
///
/// let server = QramServer::fat_tree_integer_layers(Capacity::new(8)?);
/// let mut sched = OnlineFifoScheduler::new(server);
/// sched.submit(QueryRequest { id: 0, arrival: Layers::new(0.0) })?;
/// sched.submit(QueryRequest { id: 1, arrival: Layers::new(3.0) })?;
/// let schedule = sched.finish();
/// assert_eq!(schedule.entries()[1].start.get(), 10.0); // pipeline interval
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct OnlineFifoScheduler {
    inner: PolicyScheduler<FifoAdmission>,
}

/// Error returned when requests are submitted out of arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutOfOrderArrival {
    /// The offending arrival time.
    pub arrival: Layers,
    /// The latest previously seen arrival.
    pub previous: Layers,
}

impl std::fmt::Display for OutOfOrderArrival {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "arrival at {} precedes already-submitted arrival at {}",
            self.arrival.get(),
            self.previous.get()
        )
    }
}

impl std::error::Error for OutOfOrderArrival {}

impl OnlineFifoScheduler {
    /// Creates an empty online scheduler for a server.
    #[must_use]
    pub fn new(server: QramServer) -> Self {
        OnlineFifoScheduler {
            inner: PolicyScheduler::new(server, FifoAdmission),
        }
    }

    /// Number of queries admitted so far.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.inner.admitted()
    }

    /// Submits the next arriving request and immediately commits its
    /// admission slot (FIFO requires no knowledge of future arrivals).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfOrderArrival`] if `request.arrival` precedes an
    /// already-submitted arrival — an online scheduler sees time move
    /// forward only.
    pub fn submit(&mut self, request: QueryRequest) -> Result<ScheduledQuery, OutOfOrderArrival> {
        self.inner.admit(request)
    }

    /// Admissions committed so far, in admission order.
    #[must_use]
    pub fn entries(&self) -> &[ScheduledQuery] {
        self.inner.entries()
    }

    /// Consumes the scheduler, returning the realized schedule.
    #[must_use]
    pub fn finish(self) -> Schedule {
        self.inner.into_schedule()
    }
}

/// Generates `count` arrivals with exponentially distributed gaps (a
/// Poisson process) at `rate` requests per layer.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive.
pub fn poisson_arrivals<R: Rng + ?Sized>(
    rate: f64,
    count: usize,
    rng: &mut R,
) -> Vec<QueryRequest> {
    assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
    let mut t = 0.0;
    (0..count)
        .map(|id| {
            let u: f64 = rng.random::<f64>().max(1e-12);
            t += -u.ln() / rate;
            QueryRequest {
                id,
                arrival: Layers::new(t),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::schedule_fifo;
    use qram_metrics::Capacity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn server() -> QramServer {
        QramServer::fat_tree_integer_layers(Capacity::new(256).unwrap())
    }

    #[test]
    fn online_equals_offline_fifo() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let rate = 0.01 + 0.01 * f64::from(trial);
            let requests = poisson_arrivals(rate, 40, &mut rng);
            let mut online = OnlineFifoScheduler::new(server());
            for &r in &requests {
                online.submit(r).unwrap();
            }
            let online_schedule = online.finish();
            let offline = schedule_fifo(&requests, &server());
            assert_eq!(
                online_schedule.entries(),
                offline.entries(),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn out_of_order_submission_rejected() {
        let mut sched = OnlineFifoScheduler::new(server());
        sched
            .submit(QueryRequest {
                id: 0,
                arrival: Layers::new(10.0),
            })
            .unwrap();
        let err = sched
            .submit(QueryRequest {
                id: 1,
                arrival: Layers::new(5.0),
            })
            .unwrap_err();
        assert_eq!(err.arrival, Layers::new(5.0));
        assert!(err.to_string().contains("precedes"));
        assert_eq!(sched.admitted(), 1);
    }

    #[test]
    fn admission_is_immediate_and_stable() {
        // The slot returned at submission time never changes later —
        // the property that makes FIFO viable online.
        let mut sched = OnlineFifoScheduler::new(server());
        let first = sched
            .submit(QueryRequest {
                id: 0,
                arrival: Layers::new(0.0),
            })
            .unwrap();
        for id in 1..20 {
            sched
                .submit(QueryRequest {
                    id,
                    arrival: Layers::new(id as f64),
                })
                .unwrap();
        }
        let schedule = sched.finish();
        assert_eq!(schedule.entries()[0], first);
    }

    #[test]
    fn duplicate_arrivals_are_accepted_and_match_offline() {
        // Equal arrival times are in order (not "out of order") and must
        // schedule exactly as the offline FIFO pass does.
        let requests: Vec<QueryRequest> = [0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0]
            .iter()
            .enumerate()
            .map(|(id, &a)| QueryRequest {
                id,
                arrival: Layers::new(a),
            })
            .collect();
        let mut online = OnlineFifoScheduler::new(server());
        for &r in &requests {
            online.submit(r).unwrap();
        }
        assert_eq!(
            online.finish().entries(),
            schedule_fifo(&requests, &server()).entries()
        );
    }

    #[test]
    fn sharded_server_admits_at_divided_interval() {
        use qram_core::{QramModel, ShardedQram};
        use qram_metrics::TimingModel;
        let timing = TimingModel::paper_default();
        let sharded = ShardedQram::fat_tree(Capacity::new(256).unwrap(), 4);
        let mut sched = OnlineFifoScheduler::new(QramServer::for_model(&sharded, &timing));
        for id in 0..12 {
            sched
                .submit(QueryRequest {
                    id,
                    arrival: Layers::ZERO,
                })
                .unwrap();
        }
        let schedule = sched.finish();
        let interval = sharded.admission_interval(&timing).get();
        assert!((interval - 8.25 / 4.0).abs() < 1e-12);
        for (k, entry) in schedule.entries().iter().enumerate() {
            assert!(
                (entry.start.get() - interval * k as f64).abs() < 1e-9,
                "query {k} admitted at {}",
                entry.start.get()
            );
        }
    }

    #[test]
    fn poisson_gaps_have_expected_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = poisson_arrivals(0.1, 4000, &mut rng);
        let total = arrivals.last().unwrap().arrival.get();
        let mean_gap = total / 4000.0;
        assert!((mean_gap - 10.0).abs() < 1.0, "mean gap {mean_gap}");
        // Arrivals are sorted by construction.
        for w in arrivals.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn saturating_arrivals_pipeline_at_interval() {
        // Arrival rate far above capacity: admissions settle at the
        // pipeline interval.
        let mut rng = StdRng::seed_from_u64(4);
        let requests = poisson_arrivals(10.0, 30, &mut rng);
        let mut sched = OnlineFifoScheduler::new(server());
        for &r in &requests {
            sched.submit(r).unwrap();
        }
        let schedule = sched.finish();
        let starts: Vec<f64> = schedule.entries().iter().map(|e| e.start.get()).collect();
        for w in starts.windows(2).skip(2) {
            assert!((w[1] - w[0] - 10.0).abs() < 1e-9, "{starts:?}");
        }
    }
}
