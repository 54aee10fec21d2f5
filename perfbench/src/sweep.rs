//! `dse_matmul`: cold-cache `Runtime::run_batch` design-space sweeps, and
//! the traced replay that walks each job through the public layer calls one
//! at a time.

use crate::checks;
use crate::gen::{self, Rng};
use crate::replay::{streampim_family, Replay};
use crate::report::Outcome;
use crate::stats::{self, summarize};
use std::time::{Duration, Instant};
use streampim::pim_device::Parallelism;
use streampim::pim_runtime::{BatchResult, Job, Runtime, RuntimeConfig};

/// Jobs per design-space batch.
pub const DSE_BATCH: usize = 2000;
/// Runtime constructions per `setup_s` sample: one construction takes a
/// fraction of a microsecond, too short to time alone.
const SETUP_RUNTIMES: usize = 200;
/// `setup_s` samples taken before each batch.
const SETUP_SAMPLES: usize = 3;

fn runtime(workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig {
        workers,
        cache_enabled: true,
        intra_parallelism: Parallelism::Serial,
    })
}

/// One untraced batch on a fresh runtime.
struct Timed {
    jobs: Vec<Job>,
    result: BatchResult,
    elapsed: Duration,
    /// Peak resident set of the process when the batch finished, MiB.
    peak_rss_mb: f64,
    /// Per-job dispatch-to-completion host latency, ms.
    latencies_ms: Vec<f64>,
    hits: u64,
    misses: u64,
    near_hits: u64,
    repriced_rows: u64,
}

fn timed_batch(jobs: Vec<Job>, workers: usize) -> (Timed, Runtime) {
    let rt = runtime(workers);
    let t0 = Instant::now();
    let result = rt.run_batch(&jobs);
    let elapsed = t0.elapsed();
    let peak_rss_mb = stats::peak_rss_mb();
    let m = rt.metrics();
    let timed = Timed {
        peak_rss_mb,
        latencies_ms: m.jobs.iter().map(|j| j.latency_ns as f64 / 1e6).collect(),
        hits: m.cache_hits,
        misses: m.cache_misses,
        near_hits: m.cache_near_hits,
        repriced_rows: m.cache_repriced_rows,
        jobs,
        result,
        elapsed,
    };
    (timed, rt)
}

/// Summed simulated time (ms) and energy (mJ) of the StreamPIM-family jobs.
fn sim_totals(jobs: &[Job], result: &BatchResult) -> (f64, f64) {
    jobs.iter()
        .zip(&result.outcomes)
        .filter(|(job, _)| streampim_family(job))
        .filter_map(|(_, o)| o.report.as_ref().ok())
        .fold((0.0, 0.0), |(t, e), r| {
            (t + r.total_ns() / 1e6, e + r.total_pj() / 1e9)
        })
}

/// Checks one batch: every outcome succeeded, and a rerun of every fourth
/// batch on the same (now warm) runtime gives identical reports, every
/// single-device job a full-key hit.
fn check(timed: &Timed, rt: Runtime, batch_index: usize, outcome: &mut Outcome) {
    for o in &timed.result.outcomes {
        outcome.count(o.report.is_ok());
    }
    // Every fourth batch: the warm rerun costs nearly as much as the cold
    // batch.
    if !batch_index.is_multiple_of(4) {
        return;
    }
    // Scale-out jobs bypass the schedule cache; every other job must now be
    // a full-key hit.
    let cached = timed.jobs.iter().filter(|j| j.cluster.is_none()).count() as u64;
    let hits_before = rt.metrics().cache_hits;
    let again = rt.run_batch(&timed.jobs);
    let new_hits = rt.metrics().cache_hits - hits_before;
    let bad = checks::outcome_mismatches(&timed.result, &again);
    outcome.count(bad.is_empty() && new_hits == cached);
    if !bad.is_empty() || new_hits != cached {
        outcome.note(format!(
            "dse_matmul: warm rerun had {} differing reports and {new_hits} of {cached} hits",
            bad.len()
        ));
    }
}

/// Seconds per `Runtime::new`, timed over [`SETUP_RUNTIMES`] constructions.
/// Only construction is timed: the runtimes are dropped afterwards.
fn setup_sample(workers: usize) -> f64 {
    let mut built = Vec::with_capacity(SETUP_RUNTIMES);
    let t0 = Instant::now();
    for _ in 0..SETUP_RUNTIMES {
        built.push(runtime(workers));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    std::hint::black_box(&built);
    elapsed / SETUP_RUNTIMES as f64
}

/// The timed batches of one phase, with the set-up samples taken between
/// them.
struct Phase {
    runs: Vec<Timed>,
    setup_s: Vec<f64>,
}

/// Runs batches on fresh runtimes until the next would overrun `budget`
/// (at least one), checking each right after it is timed. Before each
/// batch it takes [`SETUP_SAMPLES`] set-up samples, so they span the whole
/// phase.
fn timed_phase(rng: &mut Rng, budget: f64, workers: usize, outcome: &mut Outcome) -> Phase {
    let mut phase = Phase {
        runs: Vec::new(),
        setup_s: Vec::new(),
    };
    let mut spent = 0.0;
    loop {
        let jobs = gen::dse_batch(rng, DSE_BATCH);
        phase
            .setup_s
            .extend((0..SETUP_SAMPLES).map(|_| setup_sample(workers)));
        let (timed, rt) = timed_batch(jobs, workers);
        check(&timed, rt, phase.runs.len(), outcome);
        spent += timed.elapsed.as_secs_f64();
        phase.runs.push(timed);
        if spent + spent / phase.runs.len() as f64 > budget {
            return phase;
        }
    }
}

fn note_sim(outcome: &mut Outcome, name: &str, first: &Timed) {
    let (sim_ms, sim_mj) = sim_totals(&first.jobs, &first.result);
    outcome.note(format!(
        "{name}: first batch simulates {sim_ms} sim-ms and {sim_mj} sim-mJ on StreamPIM-family jobs"
    ));
    outcome.metrics.set("sim_ms", sim_ms);
    outcome.metrics.set("sim_mj", sim_mj);
}

pub fn run(seed: u64, seconds: f64, workers: usize, traced: bool) -> Outcome {
    let name = "dse_matmul";
    let mut outcome = Outcome::default();
    let mut rng = Rng::new(seed ^ 0xD5E0);
    let budget = if traced { seconds / 3.0 } else { seconds };
    let phase = timed_phase(&mut rng, budget, workers, &mut outcome);
    let runs = &phase.runs;
    let first = &runs[0];
    let jobs: usize = runs.iter().map(|r| r.jobs.len()).sum();
    let batch_ms: Vec<f64> = runs.iter().map(|r| r.elapsed.as_secs_f64() * 1e3).collect();
    let secs = batch_ms.iter().sum::<f64>() / 1e3;
    let batch = summarize(&batch_ms).expect("at least one batch ran");
    let job_ms: Vec<f64> = runs.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    let job = summarize(&job_ms).expect("at least one job ran");
    outcome.note(format!(
        "{name}: {} batches, {jobs} jobs in {secs:.3} s; runtime job latency p50 {:.4} ms, p99 {} over {} jobs",
        runs.len(),
        job.p50,
        job.p99.map_or("n/a (fewer than 10 samples beyond it)".into(), |v| format!("{v:.4} ms")),
        job.count
    ));
    note_sim(&mut outcome, name, first);
    if !traced {
        let m = &mut outcome.metrics;
        m.set("setup_s", stats::median(&phase.setup_s));
        m.set("jobs_per_s", jobs as f64 / secs);
        m.set("latency_p50_ms", batch.p50);
        // The first batch runs in a fresh process; later peaks also hold
        // whatever the allocator kept from the batches before them.
        m.set("peak_rss_mb", first.peak_rss_mb);
        return outcome;
    }

    // Traced run: the batches above gave the runtime's cache counters; now
    // the first batch runs untraced on one worker and is replayed traced on
    // one worker.
    let m = &mut outcome.metrics;
    let (hits, misses, near): (u64, u64, Vec<u64>) =
        runs.iter().fold((0, 0, Vec::new()), |(h, x, mut n), r| {
            n.push(r.near_hits);
            (h + r.hits, x + r.misses, n)
        });
    let probed = (hits + misses).max(1) as f64;
    m.set("runtime.cache_hit_ratio", hits as f64 / probed);
    m.set(
        "runtime.near_hit_ratio",
        near.iter().sum::<u64>() as f64 / probed,
    );
    m.set("runtime.near_hits", first.near_hits as f64);
    m.set(
        "runtime.near_hits_spread",
        (near.iter().max().unwrap() - near.iter().min().unwrap()) as f64,
    );
    m.set("runtime.repriced_rows", first.repriced_rows as f64);
    m.set("runtime.job_ms.p50", job.p50);
    m.set("runtime.job_ms.p99", job.p99.unwrap_or(0.0));
    m.set("latency_p99_ms", batch.p99.unwrap_or(0.0));
    m.set("latency_samples", batch.count as f64);

    let (serial, _) = timed_batch(first.jobs.clone(), 1);
    let replayed = Replay::run(&first.jobs, Instant::now());
    let bad = checks::outcome_mismatches(&serial.result, &replayed.result(&serial.result));
    outcome.count(bad.is_empty());
    if !bad.is_empty() {
        outcome.note(format!(
            "{name}: replay differs from run_batch on {} jobs",
            bad.len()
        ));
    }
    replayed.layer_metrics(name, &mut outcome);
    let per_job = |s: f64| s * 1e3 / first.jobs.len() as f64;
    let overhead = per_job(replayed.seconds) - per_job(serial.elapsed.as_secs_f64());
    let m = &mut outcome.metrics;
    m.set("trace.overhead_ms", overhead);
    m.set(
        "trace.overhead_pct",
        100.0 * overhead / per_job(serial.elapsed.as_secs_f64()),
    );
    outcome.tracer = Some(replayed.tracer);
    outcome
}
