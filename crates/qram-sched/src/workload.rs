//! Closed-loop simulation of algorithm streams sharing a QRAM (Fig. 7).
//!
//! Real algorithms alternate *query* phases with *processing* phases of
//! depth `d`; the next query only becomes ready once processing finishes.
//! [`simulate_streams`] runs any number of such streams against a
//! [`QramServer`] under FIFO admission, reporting per-query timings, the
//! overall algorithm depth (makespan), and the QRAM utilization staircase.
//!
//! [`ZipfAddresses`] generates skewed classical address workloads —
//! the standard serving-cache traffic model — used to measure the batch
//! memoization hit rate of `qram_core::execute_batch_traced`; and
//! [`bursty_arrivals`] generates on/off-modulated Poisson arrival streams,
//! the open-loop tail-latency workload of the serving benchmark.

use qram_metrics::{Capacity, Layers, Utilization, UtilizationTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fifo::QueryRequest;
use crate::policy::PipelineCore;
use crate::server::QramServer;

/// One phase of an algorithm stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// A QRAM query (duration = the server's query latency).
    Query,
    /// Local QPU processing for the given depth.
    Process(Layers),
}

/// A single algorithm's phase sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamWorkload {
    phases: Vec<Phase>,
}

impl StreamWorkload {
    /// Builds a workload from an explicit phase list.
    #[must_use]
    pub fn new(phases: Vec<Phase>) -> Self {
        StreamWorkload { phases }
    }

    /// The canonical synthetic algorithm of §6.3: `num_queries` queries
    /// separated by processing phases of depth `process`
    /// (`Q P Q P … Q`).
    ///
    /// # Panics
    ///
    /// Panics if `num_queries == 0`.
    #[must_use]
    pub fn alternating(num_queries: u32, process: Layers) -> Self {
        assert!(num_queries >= 1, "at least one query");
        let mut phases = Vec::with_capacity(2 * num_queries as usize - 1);
        for i in 0..num_queries {
            if i > 0 {
                phases.push(Phase::Process(process));
            }
            phases.push(Phase::Query);
        }
        StreamWorkload::new(phases)
    }

    /// The phases.
    #[must_use]
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Number of query phases.
    #[must_use]
    pub fn query_count(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| matches!(p, Phase::Query))
            .count()
    }

    /// Total processing depth.
    #[must_use]
    pub fn processing_depth(&self) -> Layers {
        self.phases
            .iter()
            .filter_map(|p| match p {
                Phase::Process(d) => Some(*d),
                Phase::Query => None,
            })
            .sum()
    }
}

/// A query execution recorded by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// Which stream issued the query.
    pub stream: usize,
    /// When the query became ready.
    pub ready: Layers,
    /// When it was admitted to the pipeline.
    pub start: Layers,
    /// When it completed.
    pub finish: Layers,
}

/// The outcome of a closed-loop stream simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    queries: Vec<QueryRecord>,
    completions: Vec<Layers>,
    parallelism: u32,
}

impl StreamReport {
    /// All query records in admission order.
    #[must_use]
    pub fn queries(&self) -> &[QueryRecord] {
        &self.queries
    }

    /// Per-stream completion times.
    #[must_use]
    pub fn completions(&self) -> &[Layers] {
        &self.completions
    }

    /// Overall algorithm depth: when the last stream finishes.
    #[must_use]
    pub fn makespan(&self) -> Layers {
        self.completions
            .iter()
            .copied()
            .fold(Layers::ZERO, Layers::max)
    }

    /// The QRAM utilization staircase over `[0, makespan]`: queries in
    /// flight divided by the pipeline parallelism (Fig. 7 bottom,
    /// Fig. 10(b)).
    #[must_use]
    pub fn utilization_trace(&self) -> UtilizationTrace {
        let end = self.makespan();
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(2 * self.queries.len());
        for q in &self.queries {
            events.push((q.start.get(), 1));
            events.push((q.finish.get(), -1));
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        let mut trace = UtilizationTrace::new();
        let mut time = 0.0;
        let mut inflight: i32 = 0;
        for (t, delta) in events {
            if t > time {
                let busy = u32::try_from(inflight.max(0)).expect("non-negative");
                trace.push(
                    Layers::new(t - time),
                    Utilization::from_slots(busy.min(self.parallelism), self.parallelism),
                );
                time = t;
            }
            inflight += delta;
        }
        if end.get() > time {
            trace.push(Layers::new(end.get() - time), Utilization::IDLE);
        }
        trace
    }

    /// Average QRAM utilization over the run.
    #[must_use]
    pub fn average_utilization(&self) -> Utilization {
        self.utilization_trace().average()
    }
}

/// Simulates `streams` sharing one QRAM server under FIFO admission,
/// starting simultaneously at time 0.
#[must_use]
pub fn simulate_streams(streams: &[StreamWorkload], server: &QramServer) -> StreamReport {
    #[derive(Debug)]
    struct StreamState {
        next_phase: usize,
        ready: Layers,
        completion: Layers,
    }
    let mut states: Vec<StreamState> = streams
        .iter()
        .map(|_| StreamState {
            next_phase: 0,
            ready: Layers::ZERO,
            completion: Layers::ZERO,
        })
        .collect();
    // Consume leading processing phases.
    for (s, state) in states.iter_mut().enumerate() {
        while let Some(Phase::Process(d)) = streams[s].phases().get(state.next_phase) {
            state.ready += *d;
            state.completion = state.ready;
            state.next_phase += 1;
        }
    }
    let mut queries: Vec<QueryRecord> = Vec::new();
    let mut core = PipelineCore::new(*server);
    loop {
        // FIFO: pick the pending query that became ready earliest.
        let next = states
            .iter()
            .enumerate()
            .filter(|(s, st)| matches!(streams[*s].phases().get(st.next_phase), Some(Phase::Query)))
            .min_by(|(sa, a), (sb, b)| {
                a.ready
                    .partial_cmp(&b.ready)
                    .expect("finite")
                    .then(sa.cmp(sb))
            })
            .map(|(s, _)| s);
        let Some(s) = next else { break };
        let ready = states[s].ready;
        // Admission through the shared policy-stack core: the ready time
        // is the request's arrival, and FIFO admits at the earliest
        // feasible instant.
        let request = QueryRequest {
            id: core.admitted(),
            arrival: ready,
        };
        let start = core.earliest_start(ready, server.parallelism());
        let slot = core.commit(request, start);
        let finish = slot.finish;
        queries.push(QueryRecord {
            stream: s,
            ready,
            start,
            finish,
        });
        // Advance the stream past the query and any following processing.
        states[s].next_phase += 1;
        states[s].ready = finish;
        states[s].completion = finish;
        while let Some(Phase::Process(d)) = streams[s].phases().get(states[s].next_phase) {
            states[s].ready += *d;
            states[s].completion = states[s].ready;
            states[s].next_phase += 1;
        }
    }
    StreamReport {
        queries,
        completions: states.iter().map(|st| st.completion).collect(),
        parallelism: server.parallelism(),
    }
}

/// Convenience: the overall depth of `p` identical synthetic algorithms
/// (`num_queries` queries, processing depth `d`) on a server — the quantity
/// plotted in Fig. 10(a).
#[must_use]
pub fn synthetic_algorithm_depth(
    server: &QramServer,
    p: usize,
    num_queries: u32,
    d: Layers,
) -> Layers {
    let streams = vec![StreamWorkload::alternating(num_queries, d); p];
    simulate_streams(&streams, server).makespan()
}

/// The `d` layers of a processing phase expressed as a multiple of the
/// single-query latency `t₁` — the x-axis of Fig. 10.
///
/// The server's latency is already weighted by the timing model it was
/// built with, so no separate timing parameter is needed (an earlier
/// signature took one and silently ignored it).
///
/// # Examples
///
/// ```
/// use qram_metrics::Capacity;
/// use qram_sched::{process_depth_from_ratio, QramServer};
///
/// let server = QramServer::fat_tree_integer_layers(Capacity::new(8)?);
/// // d = 0.5 · t₁ = 0.5 · 29 integer layers.
/// assert_eq!(process_depth_from_ratio(&server, 0.5).get(), 14.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn process_depth_from_ratio(server: &QramServer, ratio: f64) -> Layers {
    Layers::new(server.latency().get() * ratio)
}

/// Generates `count` arrivals from an on/off-modulated Poisson process
/// (an *interrupted Poisson process*, the standard bursty-traffic model):
/// during exponentially distributed ON periods of mean `mean_on` layers,
/// queries arrive as a Poisson process at `on_rate` requests per layer;
/// during exponentially distributed OFF periods of mean `mean_off` layers,
/// none arrive.
///
/// The long-run offered rate is `on_rate · mean_on / (mean_on + mean_off)`
/// and the inter-arrival coefficient of variation exceeds 1 (a plain
/// Poisson process has exactly 1), so the same average load stresses the
/// serving layer's queues far harder — the tail-latency workload of the
/// serving benchmark.
///
/// # Examples
///
/// ```
/// use qram_sched::bursty_arrivals;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// // ON at 1 query/layer for ~50 layers, then ~150 layers of silence:
/// // a 0.25 queries/layer average delivered in bursts.
/// let arrivals = bursty_arrivals(1.0, 50.0, 150.0, 200, &mut rng);
/// assert_eq!(arrivals.len(), 200);
/// assert!(arrivals.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// ```
///
/// # Panics
///
/// Panics if `on_rate`, `mean_on`, or `mean_off` is not strictly positive
/// and finite.
pub fn bursty_arrivals<R: Rng + ?Sized>(
    on_rate: f64,
    mean_on: f64,
    mean_off: f64,
    count: usize,
    rng: &mut R,
) -> Vec<QueryRequest> {
    assert!(
        on_rate > 0.0 && on_rate.is_finite(),
        "on_rate must be positive"
    );
    assert!(
        mean_on > 0.0 && mean_on.is_finite(),
        "mean_on must be positive"
    );
    assert!(
        mean_off > 0.0 && mean_off.is_finite(),
        "mean_off must be positive"
    );
    let mut exp = |mean: f64| -> f64 {
        let u: f64 = rng.random::<f64>().max(1e-12);
        -u.ln() * mean
    };
    let mut t = 0.0;
    // Remaining ON time before the next OFF period begins.
    let mut on_left = exp(mean_on);
    (0..count)
        .map(|id| {
            let mut gap = exp(1.0 / on_rate);
            // Walk the gap through as many ON/OFF cycles as it spans:
            // arrivals only consume ON time, OFF periods shift them later.
            while gap > on_left {
                gap -= on_left;
                t += on_left + exp(mean_off);
                on_left = exp(mean_on);
            }
            on_left -= gap;
            t += gap;
            QueryRequest {
                id,
                arrival: Layers::new(t),
            }
        })
        .collect()
}

/// Generates `count` arrivals from a flash-crowd process: a steady Poisson
/// baseline at `base_rate`, except that during the window
/// `[flash_start, flash_start + flash_duration)` the rate jumps to
/// `flash_rate` — the "everyone queries the same service at once" stampede
/// that stresses fleet backpressure and per-tenant quotas.
///
/// The process is an exact piecewise-constant non-homogeneous Poisson
/// draw: exponential gaps at the current rate, with the residual gap
/// re-scaled by the rate ratio whenever it crosses a window boundary
/// (memorylessness makes the re-scaling exact). With
/// `flash_rate > base_rate` the inter-arrival coefficient of variation
/// exceeds 1 over windows spanning the flash.
///
/// # Examples
///
/// ```
/// use qram_sched::flash_crowd_arrivals;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// // A 20× stampede 500 layers in, lasting 200 layers.
/// let arrivals = flash_crowd_arrivals(0.05, 1.0, 500.0, 200.0, 300, &mut rng);
/// assert_eq!(arrivals.len(), 300);
/// assert!(arrivals.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// ```
///
/// # Panics
///
/// Panics if `base_rate`, `flash_rate`, or `flash_duration` is not
/// strictly positive and finite, or `flash_start` is negative or not
/// finite.
pub fn flash_crowd_arrivals<R: Rng + ?Sized>(
    base_rate: f64,
    flash_rate: f64,
    flash_start: f64,
    flash_duration: f64,
    count: usize,
    rng: &mut R,
) -> Vec<QueryRequest> {
    assert!(
        base_rate > 0.0 && base_rate.is_finite(),
        "base_rate must be positive"
    );
    assert!(
        flash_rate > 0.0 && flash_rate.is_finite(),
        "flash_rate must be positive"
    );
    assert!(
        flash_start >= 0.0 && flash_start.is_finite(),
        "flash_start must be non-negative"
    );
    assert!(
        flash_duration > 0.0 && flash_duration.is_finite(),
        "flash_duration must be positive"
    );
    let flash_end = flash_start + flash_duration;
    let rate_at = |t: f64| -> f64 {
        if (flash_start..flash_end).contains(&t) {
            flash_rate
        } else {
            base_rate
        }
    };
    // The next rate-change boundary strictly after `t`, if any.
    let next_boundary = |t: f64| -> Option<f64> {
        if t < flash_start {
            Some(flash_start)
        } else if t < flash_end {
            Some(flash_end)
        } else {
            None
        }
    };
    let mut t = 0.0;
    (0..count)
        .map(|id| {
            let u: f64 = rng.random::<f64>().max(1e-12);
            // A unit-rate exponential "work" budget, spent at the current
            // rate: crossing a boundary re-scales the residual exactly.
            let mut work = -u.ln();
            loop {
                let rate = rate_at(t);
                let gap = work / rate;
                match next_boundary(t) {
                    Some(b) if t + gap >= b => {
                        work -= (b - t) * rate;
                        t = b;
                    }
                    _ => {
                        t += gap;
                        break;
                    }
                }
            }
            QueryRequest {
                id,
                arrival: Layers::new(t),
            }
        })
        .collect()
}

/// A Zipf(θ) distribution over the `N` addresses of a QRAM: address `a`
/// is drawn with probability proportional to `1 / (a + 1)^θ`, the
/// standard skewed-popularity model of cache and serving-system analysis
/// (θ ≈ 0.99 is the classic YCSB/web-traffic operating point). `θ = 0`
/// degenerates to the uniform distribution; larger θ concentrates mass
/// on the low addresses.
///
/// Sampling is inverse-CDF over a precomputed cumulative table
/// (`O(log N)` per draw), seeded deterministically through the vendored
/// [`rand::rngs::StdRng`].
///
/// # Examples
///
/// ```
/// use qram_metrics::Capacity;
/// use qram_sched::ZipfAddresses;
///
/// let zipf = ZipfAddresses::new(Capacity::new(4096)?, 0.99);
/// let batch = zipf.addresses(512, 7);
/// assert_eq!(batch.len(), 512);
/// assert!(batch.iter().all(|&a| a < 4096));
/// // Skew: address 0 draws far more than its uniform share (512/4096).
/// let top = batch.iter().filter(|&&a| a == 0).count();
/// assert!(top as f64 > 10.0 * 512.0 / 4096.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfAddresses {
    theta: f64,
    /// `cumulative[a]` = P(address ≤ a); the last entry is 1.
    cumulative: Vec<f64>,
}

impl ZipfAddresses {
    /// Builds the distribution over the `N` addresses of `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is negative or not finite, or if `N` does not
    /// fit in memory for the cumulative table.
    #[must_use]
    pub fn new(capacity: Capacity, theta: f64) -> Self {
        assert!(
            theta.is_finite() && theta >= 0.0,
            "Zipf exponent must be finite and non-negative, got {theta}"
        );
        let n = usize::try_from(capacity.get()).expect("capacity fits in usize");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for a in 0..n {
            total += (a as f64 + 1.0).powf(-theta);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        ZipfAddresses { theta, cumulative }
    }

    /// The Zipf exponent θ.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The probability of drawing `address`.
    ///
    /// # Panics
    ///
    /// Panics if `address` is out of range.
    #[must_use]
    pub fn probability_of(&self, address: u64) -> f64 {
        let a = usize::try_from(address).expect("address fits in usize");
        let below = if a == 0 { 0.0 } else { self.cumulative[a - 1] };
        self.cumulative[a] - below
    }

    /// Draws one address (inverse-CDF, `O(log N)`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        // First index with cumulative[i] > u.
        let idx = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1);
        idx as u64
    }

    /// A deterministic batch of `count` addresses from `seed`.
    #[must_use]
    pub fn addresses(&self, count: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| self.sample(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_metrics::Capacity;

    fn ft_server(n: u64) -> QramServer {
        QramServer::fat_tree_integer_layers(Capacity::new(n).unwrap())
    }

    #[test]
    fn figure_7_total_time_formula() {
        // Three algorithms, each: Query, Process(d), Query, Process(d),
        // Query. Total time = 30n + 2d + 17 (Fig. 7 annotation), provided
        // d is large enough that streams never contend.
        for (n_exp, d) in [(3u32, 20.0), (4, 15.0), (5, 30.0), (3, 100.0)] {
            let server = ft_server(1 << n_exp);
            let streams = vec![StreamWorkload::alternating(3, Layers::new(d)); 3];
            let report = simulate_streams(&streams, &server);
            let expect = 30.0 * f64::from(n_exp) + 2.0 * d + 17.0;
            assert!(
                (report.makespan().get() - expect).abs() < 1e-9,
                "n={n_exp} d={d}: {} vs {expect}",
                report.makespan().get()
            );
        }
    }

    #[test]
    fn figure_7_query_starts_are_staggered_by_interval() {
        let server = ft_server(8);
        let streams = vec![StreamWorkload::alternating(3, Layers::new(20.0)); 3];
        let report = simulate_streams(&streams, &server);
        let first_three: Vec<f64> = report.queries()[..3]
            .iter()
            .map(|q| q.start.get())
            .collect();
        assert_eq!(first_three, vec![0.0, 10.0, 20.0]);
    }

    #[test]
    fn utilization_peaks_when_queries_overlap() {
        let server = ft_server(8);
        let streams = vec![StreamWorkload::alternating(3, Layers::new(20.0)); 3];
        let report = simulate_streams(&streams, &server);
        let trace = report.utilization_trace();
        let peak = trace.iter().map(|(_, u)| u.get()).fold(0.0f64, f64::max);
        assert!((peak - 1.0).abs() < 1e-12, "three queries fill 3 slots");
        // And the average is strictly between 0 and 1.
        let avg = report.average_utilization().get();
        assert!(avg > 0.3 && avg < 1.0, "avg={avg}");
    }

    #[test]
    fn sequential_server_forces_serial_queries() {
        let server = QramServer::bucket_brigade_integer_layers(Capacity::new(8).unwrap());
        let streams = vec![StreamWorkload::alternating(2, Layers::new(0.0)); 3];
        let report = simulate_streams(&streams, &server);
        // 6 queries, 25 layers each, fully serialized.
        assert_eq!(report.makespan().get(), 150.0);
        // Starts strictly increase by 25.
        for w in report.queries().windows(2) {
            assert!((w[1].start.get() - w[0].start.get() - 25.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_process_depth_saturates_fat_tree() {
        // With d = 0 and ≥ n streams, the Fat-Tree pipeline is fully
        // utilized and admissions fire every interval.
        let server = ft_server(8);
        let streams = vec![StreamWorkload::alternating(5, Layers::ZERO); 6];
        let report = simulate_streams(&streams, &server);
        for w in report.queries().windows(2) {
            assert!(
                (w[1].start.get() - w[0].start.get() - 10.0).abs() < 1e-9,
                "admissions must be interval-spaced"
            );
        }
        let avg = report.average_utilization().get();
        assert!(avg > 0.85, "avg={avg}");
    }

    #[test]
    fn leading_process_phase_delays_first_query() {
        let server = ft_server(8);
        let stream = StreamWorkload::new(vec![Phase::Process(Layers::new(7.0)), Phase::Query]);
        let report = simulate_streams(&[stream], &server);
        assert_eq!(report.queries()[0].ready.get(), 7.0);
        assert_eq!(report.queries()[0].start.get(), 7.0);
    }

    #[test]
    fn trailing_process_phase_extends_completion() {
        let server = ft_server(8);
        let stream = StreamWorkload::new(vec![Phase::Query, Phase::Process(Layers::new(11.0))]);
        let report = simulate_streams(&[stream], &server);
        assert_eq!(report.makespan().get(), 29.0 + 11.0);
    }

    #[test]
    fn workload_accessors() {
        let w = StreamWorkload::alternating(4, Layers::new(5.0));
        assert_eq!(w.query_count(), 4);
        assert_eq!(w.processing_depth().get(), 15.0);
        assert_eq!(w.phases().len(), 7);
    }

    #[test]
    fn zipf_probabilities_sum_to_one_and_decrease() {
        for theta in [0.0, 0.5, 0.99, 1.5] {
            let zipf = ZipfAddresses::new(Capacity::new(256).unwrap(), theta);
            let total: f64 = (0..256u64).map(|a| zipf.probability_of(a)).sum();
            assert!((total - 1.0).abs() < 1e-9, "theta={theta}");
            for a in 1..256u64 {
                assert!(
                    zipf.probability_of(a) <= zipf.probability_of(a - 1) + 1e-15,
                    "theta={theta}: mass must be non-increasing in address"
                );
            }
            assert_eq!(zipf.theta(), theta);
        }
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let zipf = ZipfAddresses::new(Capacity::new(64).unwrap(), 0.0);
        for a in 0..64u64 {
            assert!((zipf.probability_of(a) - 1.0 / 64.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_top_address_frequency_grows_with_theta() {
        // Distribution sanity: the empirical top-1 frequency must grow
        // strictly with the skew exponent.
        let capacity = Capacity::new(1024).unwrap();
        let mut prev = 0usize;
        for theta in [0.0, 0.5, 0.99, 1.5] {
            let zipf = ZipfAddresses::new(capacity, theta);
            let batch = zipf.addresses(20_000, 42);
            let top1 = batch.iter().filter(|&&a| a == 0).count();
            assert!(
                top1 > prev,
                "theta={theta}: top-1 count {top1} did not grow (prev {prev})"
            );
            prev = top1;
        }
        // And at theta=1.5 address 0 dominates visibly.
        assert!(prev > 20_000 / 3, "strong skew expected, got {prev}");
    }

    #[test]
    fn zipf_samples_are_deterministic_and_in_range() {
        let zipf = ZipfAddresses::new(Capacity::new(128).unwrap(), 0.99);
        let a = zipf.addresses(500, 7);
        let b = zipf.addresses(500, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&addr| addr < 128));
        // A different seed produces a different stream.
        assert_ne!(a, zipf.addresses(500, 8));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn zipf_rejects_negative_theta() {
        let _ = ZipfAddresses::new(Capacity::new(8).unwrap(), -1.0);
    }

    #[test]
    fn bursty_arrivals_are_sorted_and_deterministic() {
        let mut a_rng = StdRng::seed_from_u64(11);
        let mut b_rng = StdRng::seed_from_u64(11);
        let a = bursty_arrivals(0.5, 40.0, 120.0, 300, &mut a_rng);
        let b = bursty_arrivals(0.5, 40.0, 120.0, 300, &mut b_rng);
        assert_eq!(a, b);
        assert_eq!(a.len(), 300);
        for w in a.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        let mut c_rng = StdRng::seed_from_u64(12);
        assert_ne!(a, bursty_arrivals(0.5, 40.0, 120.0, 300, &mut c_rng));
    }

    #[test]
    fn bursty_long_run_rate_matches_duty_cycle() {
        // Offered rate = on_rate · mean_on / (mean_on + mean_off).
        let mut rng = StdRng::seed_from_u64(2024);
        let (on_rate, mean_on, mean_off) = (1.0, 50.0, 150.0);
        let n = 20_000usize;
        let arrivals = bursty_arrivals(on_rate, mean_on, mean_off, n, &mut rng);
        let span = arrivals.last().unwrap().arrival.get();
        let rate = n as f64 / span;
        let expect = on_rate * mean_on / (mean_on + mean_off);
        assert!(
            (rate - expect).abs() < 0.15 * expect,
            "rate {rate} vs expected {expect}"
        );
    }

    #[test]
    fn bursty_gaps_are_overdispersed_relative_to_poisson() {
        // The inter-arrival coefficient of variation must exceed 1 — the
        // defining burstiness property an (unmodulated) Poisson process
        // cannot produce.
        let mut rng = StdRng::seed_from_u64(5);
        let arrivals = bursty_arrivals(2.0, 20.0, 200.0, 20_000, &mut rng);
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| w[1].arrival.get() - w[0].arrival.get())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cov = var.sqrt() / mean;
        assert!(cov > 1.5, "coefficient of variation {cov} not bursty");
        // And a matched-rate Poisson stream sits near 1.
        let mut p_rng = StdRng::seed_from_u64(5);
        let poisson = crate::online::poisson_arrivals(1.0 / mean, 20_000, &mut p_rng);
        let p_gaps: Vec<f64> = poisson
            .windows(2)
            .map(|w| w[1].arrival.get() - w[0].arrival.get())
            .collect();
        let p_mean = p_gaps.iter().sum::<f64>() / p_gaps.len() as f64;
        let p_var = p_gaps.iter().map(|g| (g - p_mean).powi(2)).sum::<f64>() / p_gaps.len() as f64;
        let p_cov = p_var.sqrt() / p_mean;
        assert!(p_cov < 1.1, "Poisson control CoV {p_cov}");
        assert!(cov > 1.5 * p_cov);
    }

    #[test]
    #[should_panic(expected = "mean_off must be positive")]
    fn bursty_rejects_non_positive_off_period() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = bursty_arrivals(1.0, 10.0, 0.0, 5, &mut rng);
    }

    /// Coefficient of variation of the inter-arrival gaps of a trace.
    fn interarrival_cov(arrivals: &[QueryRequest]) -> f64 {
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| w[1].arrival.get() - w[0].arrival.get())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        var.sqrt() / mean
    }

    /// Arrivals per layer inside `[from, to)`.
    fn window_rate(arrivals: &[QueryRequest], from: f64, to: f64) -> f64 {
        let hits = arrivals
            .iter()
            .filter(|r| (from..to).contains(&r.arrival.get()))
            .count();
        hits as f64 / (to - from)
    }

    #[test]
    fn flash_crowd_arrivals_are_sorted_and_deterministic() {
        let mut a_rng = StdRng::seed_from_u64(21);
        let mut b_rng = StdRng::seed_from_u64(21);
        let a = flash_crowd_arrivals(0.05, 1.0, 400.0, 200.0, 300, &mut a_rng);
        let b = flash_crowd_arrivals(0.05, 1.0, 400.0, 200.0, 300, &mut b_rng);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        let mut c_rng = StdRng::seed_from_u64(22);
        assert_ne!(
            a,
            flash_crowd_arrivals(0.05, 1.0, 400.0, 200.0, 300, &mut c_rng)
        );
    }

    #[test]
    fn flash_crowd_rate_envelope_matches_piecewise_rates() {
        // Rate envelope: ~base_rate outside the flash window, ~flash_rate
        // inside it.
        let mut rng = StdRng::seed_from_u64(2027);
        let (base, flash, start, duration) = (0.1, 4.0, 2000.0, 1500.0);
        let arrivals = flash_crowd_arrivals(base, flash, start, duration, 20_000, &mut rng);
        let before = window_rate(&arrivals, 0.0, start);
        let during = window_rate(&arrivals, start, start + duration);
        let after = window_rate(&arrivals, start + duration, start + duration + 2000.0);
        assert!(
            (before - base).abs() < 0.3 * base,
            "pre-flash rate {before} vs base {base}"
        );
        assert!(
            (during - flash).abs() < 0.15 * flash,
            "flash rate {during} vs {flash}"
        );
        assert!(
            (after - base).abs() < 0.3 * base,
            "post-flash rate {after} vs base {base}"
        );
    }

    #[test]
    fn flash_crowd_gaps_are_overdispersed_relative_to_poisson() {
        // CoV check across the stampede: mixing two very different rates
        // overdisperses the gap distribution; a flash at the base rate is
        // an unmodulated Poisson control with CoV ≈ 1.
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = flash_crowd_arrivals(0.02, 2.0, 1000.0, 4000.0, 20_000, &mut rng);
        let cov = interarrival_cov(&arrivals);
        assert!(cov > 1.3, "flash-crowd CoV {cov} not overdispersed");
        let mut flat_rng = StdRng::seed_from_u64(3);
        let flat = flash_crowd_arrivals(1.0, 1.0, 1000.0, 4000.0, 20_000, &mut flat_rng);
        let flat_cov = interarrival_cov(&flat);
        assert!((flat_cov - 1.0).abs() < 0.1, "flat control CoV {flat_cov}");
    }

    #[test]
    fn flash_crowd_boundary_crossing_is_exact() {
        // A draw whose gap spans the flash start must land inside the
        // window (re-scaled), not jump it: with an extreme flash rate the
        // first post-boundary arrival lands essentially at the boundary.
        let mut rng = StdRng::seed_from_u64(8);
        let arrivals = flash_crowd_arrivals(1e-4, 100.0, 50.0, 10.0, 50, &mut rng);
        let first_in_flash = arrivals
            .iter()
            .find(|r| r.arrival.get() >= 50.0)
            .expect("the stampede produces arrivals");
        assert!(
            first_in_flash.arrival.get() < 51.0,
            "boundary crossing must re-scale the residual gap, got {}",
            first_in_flash.arrival.get()
        );
    }

    #[test]
    #[should_panic(expected = "flash_duration must be positive")]
    fn flash_crowd_rejects_non_positive_duration() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = flash_crowd_arrivals(1.0, 2.0, 10.0, 0.0, 5, &mut rng);
    }

    #[test]
    fn synthetic_depth_monotone_in_stream_count() {
        let server = ft_server(1024);
        let d = Layers::new(10.0);
        let mut prev = Layers::ZERO;
        for p in [1usize, 5, 10, 20] {
            let depth = synthetic_algorithm_depth(&server, p, 10, d);
            assert!(depth >= prev, "p={p}");
            prev = depth;
        }
    }
}
