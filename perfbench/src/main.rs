//! The QRAM fleet benchmark binary.
//!
//! ```text
//! qram-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--ensemble <k>]
//! qram-perfbench --workload <name> --seed <n> --setup-only
//! ```
//!
//! `--trace 0` measures the host clock end to end: a fixed number of
//! `serve*` calls over one seeded trace, with cold recoveries of the
//! run's store interleaved, plus the modeled clock over an ensemble of
//! traces. `--trace 1` replays the run through each layer and reports
//! per-layer spans and counts. `--setup-only` times one cold set-up.
//! Every mode prints one JSON object as its last line; `run.py` combines
//! them into the benchmark's result.

mod gate;
mod layers;
mod span;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use qram_core::store::{Dir, DurableFleet, RecoveredState, SimDir};
use qram_metrics::TimingModel;
use qram_serve::FleetReport;

use crate::gate::Verdict;
use crate::workload::{Setup, Trace, Workload};

/// Traces in the modeled-clock ensemble by default (see [`ensemble`]).
const ENSEMBLE: usize = 32;
/// Fewest timed samples a run takes, whatever `--seconds` says.
const MIN_SAMPLES: usize = 100;
/// Fewest traced iterations.
const MIN_TRACED: usize = 3;
/// Warm-up calls are this fraction (1/n) of the timed ones, plus one.
const WARMUP_DIVISOR: usize = 20;
/// The contention filter cuts a process's samples into this many blocks
/// (see [`stats::uncontended`]) ...
const FILTER_BLOCKS: usize = 100;
/// ... of at least this many samples each.
const MIN_BLOCK: usize = 5;
/// Cold recoveries per second of `--seconds`.
const RECOVERIES_PER_SECOND: f64 = 20.0;
/// A traced iteration (serve plus every replay) costs about this many
/// plain serving calls.
const TRACED_COST: f64 = 4.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    ensemble: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_only = false;
    let mut ensemble = ENSEMBLE;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--setup-only" => setup_only = true,
            "--ensemble" => {
                ensemble = value()?.parse().map_err(|e| format!("--ensemble: {e}"))?;
                if ensemble == 0 {
                    return Err("--ensemble needs at least the run's own trace".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        setup_only,
        ensemble,
    })
}

/// A JSON object of numbers and strings, written by hand (no serde in
/// the offline dependency tree).
#[derive(Default)]
struct Json(String);

impl Json {
    fn num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "{key} = {value} is not a JSON number");
        self.raw(key, &format!("{value:?}"))
    }

    fn int(&mut self, key: &str, value: usize) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, &format!("{value:?}"))
    }

    fn map(&mut self, key: &str, values: &BTreeMap<String, f64>) -> &mut Self {
        let mut inner = Json::default();
        for (k, &v) in values {
            inner.num(k, v);
        }
        self.raw(key, &inner.finish())
    }

    fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        write!(self.0, "{key:?}:{value}").expect("writing to a String");
        self
    }

    fn finish(&self) -> String {
        if self.0.is_empty() {
            "{}".to_string()
        } else {
            format!("{}}}", self.0)
        }
    }
}

/// One fully gated serving run over one trace.
struct GatedRun {
    report: FleetReport,
    verdict: Verdict,
    fingerprint: u64,
    /// The store directory as the run left it (the base store for
    /// workloads without writes): what cold recovery reads.
    store_dir: SimDir,
    /// Bytes the run's store wrote while serving.
    store_bytes: u64,
}

/// Serves `trace` once, untimed, cold-recovers the store and gates the
/// result.
fn gated_run(setup: &mut Setup, trace: &Trace) -> GatedRun {
    let mut store = setup.workload.durable().then(|| setup.fresh_store());
    let before = store
        .as_mut()
        .map_or(0, |s| workload::journal_bytes(workload::sim_dir(s)));
    let report = setup.serve(trace.requests.clone(), trace.writes.clone(), store.as_mut());
    let (store_dir, store_bytes) = match store.as_mut() {
        Some(s) => {
            let dir = workload::sim_dir(s).clone();
            let bytes = workload::journal_bytes(&dir) - before;
            (dir, bytes)
        }
        None => (setup.base_store.clone(), 0),
    };
    let recovered = recover(&store_dir);
    let verdict = gate::check(
        &setup.memory,
        &trace.requests,
        &trace.writes,
        &report,
        Some(&recovered),
    );
    GatedRun {
        fingerprint: gate::fingerprint(&report),
        report,
        verdict,
        store_dir,
        store_bytes,
    }
}

fn recover(dir: &SimDir) -> RecoveredState {
    DurableFleet::recover(Box::new(dir.clone())).expect("the store recovers")
}

/// Modeled-clock metrics and the gate's tallies over an ensemble of
/// traces: the run's own trace plus `size − 1` more drawn from seeds
/// derived from it.
struct Ensemble {
    kqps: f64,
    p50_us: f64,
    p99_us: f64,
    verdict: Verdict,
}

/// The modeled clock is exact per trace but depends on the draw: one
/// flash crowd or one busy period moves a single trace's p99 by 10–30%.
/// Each modeled metric is therefore the median over the ensemble of its
/// per-trace value (p50 and p99 computed exactly from every completion
/// of the trace), which keeps its seed-to-seed spread within a few
/// percent; every trace in the ensemble also passes the correctness
/// gate. Host time is measured on the run's own trace only.
fn ensemble(setup: &mut Setup, primary: &GatedRun, size: usize) -> Ensemble {
    let timing = TimingModel::paper_default();
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut verdict = Verdict::default();
    let mut tally = |report: &FleetReport, v: &Verdict| {
        let latencies: Vec<f64> = report
            .completed()
            .iter()
            .map(|q| timing.layers_to_micros(q.response_latency()))
            .collect();
        rates.push(report.query_rate().get() / 1e3);
        p50s.push(stats::percentile(&latencies, 50.0));
        p99s.push(stats::percentile(&latencies, 99.0));
        verdict.absorb(v);
    };
    tally(&primary.report, &primary.verdict);
    for i in 1..size {
        let seed = setup
            .seed
            .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let trace = setup.workload.trace(seed);
        let run = gated_run(setup, &trace);
        tally(&run.report, &run.verdict);
    }
    Ensemble {
        kqps: stats::median(&rates),
        p50_us: stats::median(&p50s),
        p99_us: stats::median(&p99s),
        verdict,
    }
}

fn verdict_json(json: &mut Json, v: &Verdict) {
    json.int("offered", v.offered)
        .int("writes", v.writes)
        .int("completed", v.completed)
        .int("shed", v.shed)
        .int("wrong", v.wrong)
        .int("missing", v.missing)
        .int("duplicated", v.duplicated)
        .int("lost_writes", v.lost_writes)
        .int("stale", v.stale)
        .num("failed_fraction", v.failed_fraction())
        .num("stale_fraction", v.stale_fraction());
}

/// Samples a run of `seconds` takes at `per_second`, at least `floor`.
fn sample_count(seconds: f64, per_second: f64, floor: usize) -> usize {
    ((seconds * per_second).round() as usize).max(floor)
}

/// Untimed serving calls that let caches fill and the allocator settle.
fn warm_up(setup: &mut Setup, calls: usize) {
    for _ in 0..calls {
        let (requests, writes, mut store) = setup.inputs();
        black_box(setup.serve(requests, writes, store.as_mut()));
    }
}

fn host_run(args: &Args) -> String {
    let mut setup = Setup::new(args.workload, args.seed);
    let trace = setup.trace.clone();
    let primary = gated_run(&mut setup, &trace);
    let samples = sample_count(
        args.seconds,
        args.workload.serve_samples_per_second(),
        MIN_SAMPLES,
    );
    warm_up(&mut setup, samples / WARMUP_DIVISOR + 1);

    // Cold recoveries of the run's end-of-run image are interleaved with
    // the serving calls, so both metrics sample the same stretch of time.
    let recoveries = sample_count(args.seconds, RECOVERIES_PER_SECOND, MIN_SAMPLES);
    let stride = (samples / recoveries).max(1);
    let expected = recover(&primary.store_dir);
    let mut serve_ms = Vec::with_capacity(samples);
    let mut recover_ms = Vec::with_capacity(recoveries);
    let mut diverged = 0usize;
    for i in 0..samples.max(recoveries * stride) {
        if i < samples {
            // Inputs are cloned and the store opened outside the timed
            // region: neither is work the fleet does.
            let (requests, writes, mut store) = setup.inputs();
            let t = Instant::now();
            let report = setup.serve(requests, writes, store.as_mut());
            serve_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if gate::fingerprint(&report) != primary.fingerprint {
                diverged += 1;
            }
        }
        if i % stride == 0 && recover_ms.len() < recoveries {
            let dir: Box<dyn Dir> = Box::new(primary.store_dir.clone());
            let t = Instant::now();
            let recovered = DurableFleet::recover(dir).expect("the store recovers");
            recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if recovered != expected {
                diverged += 1;
            }
        }
    }

    // The ensemble runs after the timed phase, so its allocations do not
    // shape the heap the timed calls run on.
    let modeled = ensemble(&mut setup, &primary, args.ensemble);
    // The tail's percentile follows from the planned sample count, so it
    // is the same in every run of a workload, however many calls the
    // contention filter drops.
    let percentile = stats::tail(&serve_ms)
        .expect("a run takes at least MIN_SAMPLES samples")
        .percentile;
    let serve_quiet = stats::uncontended(&serve_ms, (samples / FILTER_BLOCKS).max(MIN_BLOCK));
    let recover_quiet =
        stats::uncontended(&recover_ms, (recoveries / FILTER_BLOCKS).max(MIN_BLOCK));
    let mut json = Json::default();
    json.text("workload", args.workload.name())
        .num("setup_s", setup.seconds)
        .int("samples", serve_ms.len())
        .int("quiet_samples", serve_quiet.len())
        .num("serve_ms_p50", stats::median(&serve_quiet))
        .num("serve_ms_tail", stats::percentile(&serve_quiet, percentile))
        .num("tail_percentile", percentile)
        .int(
            "tail_beyond",
            serve_quiet.len() - 1 - stats::nearest_rank(percentile, serve_quiet.len()),
        )
        .int("recoveries", recover_ms.len())
        .int("quiet_recoveries", recover_quiet.len())
        .num("recover_ms_p50", stats::median(&recover_quiet))
        .num("modeled_kqps", modeled.kqps)
        .num("modeled_p50_us", modeled.p50_us)
        .num("modeled_p99_us", modeled.p99_us)
        .int("ensemble", args.ensemble)
        .int("diverged_runs", diverged);
    verdict_json(&mut json, &modeled.verdict);
    json.finish()
}

fn traced_run(args: &Args) -> String {
    let mut setup = Setup::new(args.workload, args.seed);
    let trace = setup.trace.clone();
    let primary = gated_run(&mut setup, &trace);
    let replays = layers::Replays::new(&setup, &primary.report);
    let iterations = sample_count(
        args.seconds,
        args.workload.serve_samples_per_second() / TRACED_COST,
        MIN_TRACED,
    );
    warm_up(&mut setup, iterations / WARMUP_DIVISOR + 1);

    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut diverged = 0usize;
    for _ in 0..iterations {
        let (values, store_bytes) = layers::serving_phase(&mut setup, &replays);
        if store_bytes != primary.store_bytes {
            diverged += 1;
        }
        for (k, v) in values {
            samples.entry(k).or_default().push(v);
        }
    }
    for _ in 0..iterations {
        for (k, v) in layers::side_phase(&setup, &replays, &primary.store_dir) {
            samples.entry(k).or_default().push(v);
        }
    }
    let mut per_layer = layers::counts(
        &setup,
        &primary.report,
        &primary.verdict,
        &replays,
        primary.store_bytes,
    );
    for (k, v) in &samples {
        per_layer.insert(k.clone(), stats::median(v));
    }
    let mut json = Json::default();
    json.text("workload", args.workload.name())
        .int("samples", iterations)
        .int("diverged_runs", diverged)
        .map("per_layer", &per_layer);
    verdict_json(&mut json, &primary.verdict);
    json.finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qram-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let line = if args.setup_only {
        let setup = Setup::new(args.workload, args.seed);
        let mut json = Json::default();
        json.num("setup_s", setup.seconds);
        json.finish()
    } else if args.trace {
        traced_run(&args)
    } else {
        host_run(&args)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
