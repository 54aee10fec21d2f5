//! The batch runtime: platform pool + executor + cache + metrics.

use crate::cache::ScheduleCache;
use crate::executor;
use crate::job::Job;
use crate::metrics::{JobMetrics, MetricsRegistry, MetricsSnapshot};
use pim_baselines::{Platform, Workload};
use pim_device::{ExecReport, Instruments, Parallelism, PriceTable, StreamPim};
use pim_trace::{Event, NullSink, Span, TraceSink, Track};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Runtime tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads per batch (clamped to the batch size; 0 means 1).
    pub workers: usize,
    /// Whether lowered schedules are cached across jobs and batches.
    pub cache_enabled: bool,
    /// Intra-run parallelism granted to each job's simulated device.
    /// `Auto` resolves to the batch's fair share of the machine — see
    /// [`intra_worker_budget`] — so batch workers × intra-run threads never
    /// oversubscribe the host. Simulated results are byte-identical at
    /// every level (the device engine's reduction is deterministic).
    pub intra_parallelism: Parallelism,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            cache_enabled: true,
            intra_parallelism: Parallelism::Serial,
        }
    }
}

/// Worker threads one job may use internally when the runtime grants it
/// `intra` parallelism while running `batch_workers` jobs concurrently on a
/// machine with `total_threads` hardware threads.
///
/// `Auto` yields the batch's fair share, `total_threads / batch_workers`
/// (floor 1), so a saturated batch never oversubscribes:
/// `batch_workers * budget <= max(total_threads, batch_workers)`. Explicit
/// `Threads(n)` requests are honoured as-is — the caller asked for exactly
/// `n` — and `Serial` is always 1.
pub fn intra_worker_budget(
    intra: Parallelism,
    batch_workers: usize,
    total_threads: usize,
) -> usize {
    match intra {
        Parallelism::Auto => (total_threads / batch_workers.max(1)).max(1),
        other => other.resolve(total_threads),
    }
}

/// How one job interacted with the schedule cache and the re-pricing memo.
///
/// This is *host-side history*, not part of [`JobOutcome`]: whether a job
/// hit the cache depends on what ran before it, so it must never leak into
/// the outcome (which is a pure function of the job). The flight recorder
/// stores it alongside the record instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheDisposition {
    /// Whether the schedule cache was probed at all (host platforms and
    /// cache-disabled runtimes never probe).
    pub probed: bool,
    /// Full-key cache hit.
    pub hit: bool,
    /// Full-key miss whose dimension-blind shape key was already seeded:
    /// pricing was incremental.
    pub near_hit: bool,
    /// Schedule rows priced fresh on the repriced path this run.
    pub repriced_rows: u64,
    /// The job's dimension-blind shape key (0 when the cache was not
    /// probed). Keys the flight recorder's per-(tenant, shape) latency
    /// reservoirs.
    pub shape_key: u64,
}

/// The deterministic result of one job: everything here is a pure function
/// of the job itself. Host-side observations (latency, worker id, queue
/// depth) deliberately live in [`MetricsRegistry`] instead — see the
/// determinism contract in the crate docs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Index of the job in the submitted batch.
    pub index: usize,
    /// Job display name.
    pub name: String,
    /// The priced result, or the error message for failed jobs.
    pub report: Result<ExecReport, String>,
}

/// All outcomes of one batch, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// One outcome per submitted job, index-aligned with the input slice.
    pub outcomes: Vec<JobOutcome>,
}

impl BatchResult {
    /// Number of jobs that completed successfully.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.report.is_ok()).count()
    }

    /// Number of jobs that failed.
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.completed()
    }
}

/// A multi-tenant batch-simulation service: submit [`Job`] batches, get
/// index-aligned deterministic [`JobOutcome`]s, observe host behavior
/// through the metrics registry.
///
/// The runtime owns three shared, thread-safe structures that persist
/// across batches: a pool of platform instances (jobs with equal
/// platform+config share one), the schedule cache, and the metrics
/// registry.
#[derive(Debug)]
pub struct Runtime {
    config: RuntimeConfig,
    cache: ScheduleCache,
    metrics: MetricsRegistry,
    platforms: Mutex<HashMap<u64, Arc<Platform>>>,
    /// Per-shape price tables for incremental re-pricing, keyed by
    /// [`ScheduleCache::shape_key`] (which folds in the lowering config, so
    /// a table is only ever fed by one engine configuration). A full-key
    /// cache miss whose shape key is present here is a *near miss*: only
    /// rows whose `(kind, len)` is new get priced fresh.
    reprice: Mutex<HashMap<u64, PriceTable>>,
    sink: Arc<dyn TraceSink>,
    /// Zero point of the host clock domain: all host-span timestamps are
    /// nanoseconds since runtime construction.
    origin: Instant,
    /// Intake gate: [`Runtime::shutdown`] flips `draining` and waits for
    /// `in_flight` batches to reach zero.
    intake: Mutex<Intake>,
    idle: Condvar,
}

/// Shared intake state guarded by [`Runtime::intake`].
#[derive(Debug, Default)]
struct Intake {
    /// Once true, new batches are refused.
    draining: bool,
    /// Batches currently inside [`Runtime::run_batch`].
    in_flight: usize,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::new(RuntimeConfig::default())
    }
}

impl Runtime {
    /// A runtime with the given configuration and tracing disabled.
    pub fn new(config: RuntimeConfig) -> Self {
        Runtime::with_sink(config, Arc::new(NullSink))
    }

    /// A runtime that records host-side spans (job execution, lowering,
    /// cache probes, steals) and the simulated timeline of every StreamPIM
    /// job into `sink`. With [`NullSink`] this is exactly [`Runtime::new`].
    pub fn with_sink(config: RuntimeConfig, sink: Arc<dyn TraceSink>) -> Self {
        Runtime {
            config,
            cache: ScheduleCache::new(),
            metrics: MetricsRegistry::new(),
            platforms: Mutex::new(HashMap::new()),
            reprice: Mutex::new(HashMap::new()),
            sink,
            origin: Instant::now(),
            intake: Mutex::new(Intake::default()),
            idle: Condvar::new(),
        }
    }

    /// Nanoseconds since runtime construction (the host clock domain).
    fn host_ns(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_nanos() as f64
    }

    /// The active configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The schedule cache (for inspection; the runtime feeds it itself).
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// A metrics snapshot covering every batch run so far.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The metrics as pretty-printed JSON (schema: [`MetricsSnapshot`]).
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }

    /// Stops intake and drains: after this returns, every batch that was
    /// in flight has finished, later [`Runtime::run_batch`] calls are
    /// refused (their outcomes all carry an error and are not recorded in
    /// the metrics), and the returned snapshot is final.
    ///
    /// Idempotent: concurrent or repeated calls all drain and return the
    /// same final snapshot.
    pub fn shutdown(&self) -> MetricsSnapshot {
        let mut intake = self.intake.lock().expect("intake lock");
        intake.draining = true;
        while intake.in_flight > 0 {
            intake = self.idle.wait(intake).expect("intake lock");
        }
        drop(intake);
        self.metrics.snapshot()
    }

    /// Whether [`Runtime::shutdown`] has stopped intake.
    pub fn is_draining(&self) -> bool {
        self.intake.lock().expect("intake lock").draining
    }

    /// Runs a batch of jobs on the work-stealing pool and returns outcomes
    /// in submission order. Individual job failures are reported in their
    /// outcome; they never abort the batch.
    ///
    /// After [`Runtime::shutdown`], batches are refused: every outcome
    /// carries a "runtime is draining" error and nothing is recorded in
    /// the metrics registry (the jobs were never admitted).
    pub fn run_batch(&self, jobs: &[Job]) -> BatchResult {
        self.run_batch_instrumented(jobs, &Instruments::NONE).0
    }

    /// [`Runtime::run_batch`] with per-job observers attached: every job
    /// records its host job/lowering spans, cache instants and full
    /// simulated timeline into `instruments.sink` (in addition to the
    /// runtime's own batch-level sink) and its component attribution into
    /// `instruments.probe`, and each job's [`CacheDisposition`] is returned
    /// index-aligned with the outcomes. The outcomes themselves are
    /// byte-identical to [`Runtime::run_batch`] — instruments observe,
    /// never steer. The repriced fast path stays engaged either way (see
    /// [`Platform::run_schedule_repriced_instrumented`]), so always-on
    /// observers add no simulation work.
    pub fn run_batch_instrumented(
        &self,
        jobs: &[Job],
        instruments: &Instruments,
    ) -> (BatchResult, Vec<CacheDisposition>) {
        {
            let mut intake = self.intake.lock().expect("intake lock");
            if intake.draining {
                return (
                    BatchResult {
                        outcomes: jobs
                            .iter()
                            .enumerate()
                            .map(|(index, job)| JobOutcome {
                                index,
                                name: job.name.clone(),
                                report: Err("runtime is draining: batch refused".to_string()),
                            })
                            .collect(),
                    },
                    vec![CacheDisposition::default(); jobs.len()],
                );
            }
            intake.in_flight += 1;
        }
        let result = self.run_batch_inner(jobs, instruments);
        let mut intake = self.intake.lock().expect("intake lock");
        intake.in_flight -= 1;
        if intake.in_flight == 0 {
            self.idle.notify_all();
        }
        result
    }

    /// The pre-drain body of [`Runtime::run_batch`].
    fn run_batch_inner(
        &self,
        jobs: &[Job],
        instruments: &Instruments,
    ) -> (BatchResult, Vec<CacheDisposition>) {
        let n = jobs.len();
        let slots: Vec<Mutex<Option<(JobOutcome, CacheDisposition)>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let pending = AtomicUsize::new(n);
        let batch_start = Instant::now();

        let stats = executor::run_indexed(self.config.workers, n, |worker, index, stolen| {
            let queue_depth = pending.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
            let started = Instant::now();
            let job = &jobs[index];
            let (report, cache) = self.run_one(job, worker, instruments);
            let cache_hit = cache.hit;
            let cache_probed = cache.probed;
            let latency_ns = started.elapsed().as_nanos() as u64;
            if self.sink.enabled() || instruments.sink.enabled() {
                let track = Track::Worker(worker as u32);
                let dispatch_ns = self.host_ns(started);
                if stolen && self.sink.enabled() {
                    self.sink.record_instant(
                        Event::host("steal", "steal", track, dispatch_ns)
                            .arg("index", index)
                            .arg("job", job.name.clone()),
                    );
                }
                let mut span = Span::host(
                    job.name.clone(),
                    "job",
                    track,
                    dispatch_ns,
                    latency_ns as f64,
                );
                if !job.request_id.is_empty() {
                    span = span.arg(pim_trace::ATTR_REQUEST_ID, job.request_id.clone());
                }
                let span = span
                    .arg("index", index)
                    .arg("platform", job.platform.name())
                    .arg("cache_hit", cache_hit)
                    .arg("queue_depth", queue_depth)
                    .arg("stolen", stolen)
                    .arg("ok", report.is_ok())
                    .arg(
                        "sim_time_ns",
                        report.as_ref().map(|r| r.total_ns()).unwrap_or(0.0),
                    )
                    .arg(
                        "queued_ns",
                        started.duration_since(batch_start).as_nanos() as u64,
                    );
                if instruments.sink.enabled() {
                    instruments.sink.record_span(span.clone());
                }
                if self.sink.enabled() {
                    self.sink.record_span(span);
                }
            }
            self.metrics.record_job(
                JobMetrics {
                    index,
                    name: job.name.clone(),
                    tenant: job.tenant.clone(),
                    request_id: job.request_id.clone(),
                    platform: job.platform.name().to_string(),
                    latency_ns,
                    queue_depth,
                    worker,
                    cache_hit,
                    cache_miss: cache_probed && !cache_hit,
                    stolen,
                    ok: false,          // set by record_job
                    sim_time_ns: 0.0,   // set by record_job
                    sim_energy_pj: 0.0, // set by record_job
                },
                report.as_ref().ok(),
            );
            *slots[index].lock().expect("slot lock") = Some((
                JobOutcome {
                    index,
                    name: job.name.clone(),
                    report: report.map_err(|e| e.to_string()),
                },
                cache,
            ));
        });

        self.metrics.record_steals(stats.steals);
        self.metrics
            .record_cache(self.cache.hits(), self.cache.misses(), self.cache.len());

        let (outcomes, dispositions) = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every index executed")
            })
            .unzip();
        (BatchResult { outcomes }, dispositions)
    }

    /// Prices one job, reusing pooled platforms and cached schedules.
    /// `worker` attributes host-side lowering spans to the executing
    /// worker's track. The returned [`CacheDisposition`] reports how the
    /// schedule cache and re-pricing memo were engaged (host platforms and
    /// cache-disabled runtimes never probe).
    fn run_one(
        &self,
        job: &Job,
        worker: usize,
        instruments: &Instruments,
    ) -> (Result<ExecReport, pim_device::PimError>, CacheDisposition) {
        let unprobed = CacheDisposition::default();
        // Multi-device cluster jobs take the cluster path: each device
        // lowers its own shard, so the shared schedule cache and re-pricing
        // memo don't apply. A one-device batch-1 spec falls through to the
        // ordinary single-device path below — the cluster contract makes
        // the two byte-identical, and falling through keeps the cache and
        // re-pricing memo engaged for it.
        if let Some(spec) = &job.cluster {
            if spec.devices != 1 || spec.batch != 1 {
                return (self.run_cluster(job, *spec, instruments), unprobed);
            }
        }
        let platform = match self.pooled_platform(job) {
            Ok(p) => p,
            Err(e) => return (Err(e), unprobed),
        };

        let cfg = match platform.lowering_config() {
            Some(cfg) if self.config.cache_enabled => cfg,
            // Host platforms and cache-disabled runtimes: materialize the
            // workload and run it whole.
            _ => {
                let workload = Workload::from_spec(&job.workload);
                return (
                    platform.run_instrumented(&workload, None, instruments),
                    unprobed,
                );
            }
        };

        let key = ScheduleCache::key(&cfg, &job.workload);
        let shape_key = ScheduleCache::shape_key(&cfg, &job.workload);
        let mut cache = CacheDisposition {
            probed: true,
            shape_key,
            ..CacheDisposition::default()
        };
        let probe_start = Instant::now();
        // Lowering reads only shapes (see `ShapeTask`), so the cached path
        // never materializes the workload's matrices at all.
        let (schedule, hit) = match self.cache.get_or_lower(key, || {
            job.workload
                .shape_task()
                .lower(&StreamPim::new(cfg.clone())?)
        }) {
            Ok(found) => found,
            Err(e) => return (Err(e), cache),
        };
        cache.hit = hit;
        if self.sink.enabled() || instruments.sink.enabled() {
            let probe_event = Event::host(
                if hit { "cache hit" } else { "cache miss" },
                "cache",
                Track::Cache,
                self.host_ns(probe_start),
            )
            .arg("job", job.name.clone())
            .arg("hit", hit);
            if instruments.sink.enabled() {
                instruments.sink.record_instant(probe_event.clone());
            }
            if self.sink.enabled() {
                self.sink.record_instant(probe_event);
            }
            if !hit {
                // A miss means the closure lowered the task; the probe's
                // wall-clock is the lowering cost (lock overhead is
                // negligible next to it).
                let lower_span = Span::host(
                    format!("lower {}", job.name),
                    "lowering",
                    Track::Worker(worker as u32),
                    self.host_ns(probe_start),
                    probe_start.elapsed().as_nanos() as f64,
                )
                .arg("job", job.name.clone());
                if instruments.sink.enabled() {
                    instruments.sink.record_span(lower_span.clone());
                }
                if self.sink.enabled() {
                    self.sink.record_span(lower_span);
                }
            }
        }

        // Incremental re-pricing: take the shape's price table out of the
        // map, run through it, merge it back. A full-key miss with a
        // previously seen shape key is a near miss — only rows with a new
        // `(kind, len)` are priced fresh; the report stays byte-identical
        // to a cold run (see `Engine::run_repriced`).
        let (mut table, shape_seen) = match self
            .reprice
            .lock()
            .expect("reprice lock")
            .remove(&shape_key)
        {
            Some(table) => (table, true),
            None => (PriceTable::new(), false),
        };
        if let Some((report, fresh)) =
            platform.run_schedule_repriced_instrumented(&schedule, &mut table, instruments)
        {
            use std::collections::hash_map::Entry;
            match self.reprice.lock().expect("reprice lock").entry(shape_key) {
                // Another worker re-seeded the shape while we ran: merge
                // (rows are pure per key, so collisions are identical).
                Entry::Occupied(mut resident) => resident.get_mut().absorb(table),
                Entry::Vacant(slot) => {
                    slot.insert(table);
                }
            }
            cache.repriced_rows = fresh;
            if !hit && shape_seen {
                cache.near_hit = true;
                self.metrics.record_near_hit(fresh);
                if self.sink.enabled() {
                    self.sink.record_instant(
                        Event::host(
                            "cache near hit",
                            "cache",
                            Track::Cache,
                            self.host_ns(Instant::now()),
                        )
                        .arg("job", job.name.clone())
                        .arg("repriced_rows", fresh),
                    );
                }
            }
            return (Ok(report), cache);
        }

        // Closed-form PIM baselines: schedule-driven but not repriced.
        let workload = Workload::from_spec(&job.workload);
        (
            platform.run_instrumented(&workload, Some(&schedule), instruments),
            cache,
        )
    }

    /// Prices one cluster job: builds a [`Cluster`] over the job's
    /// effective device configuration on the default topology and
    /// interconnect, with lane threads clamped by the batch's fair-share
    /// budget (the `devices` count is a simulation parameter; the thread
    /// budget changes wall-clock only, never results).
    fn run_cluster(
        &self,
        job: &Job,
        spec: pim_cluster::ClusterSpec,
        instruments: &Instruments,
    ) -> Result<ExecReport, pim_device::PimError> {
        spec.validate()?;
        let device = job.effective_config().ok_or_else(|| {
            pim_device::PimError::Config(format!(
                "cluster execution needs a StreamPIM-family platform, got {}",
                job.platform.name()
            ))
        })?;
        let config = pim_cluster::ClusterConfig {
            device,
            topology: pim_cluster::ClusterTopology::for_devices(spec.devices),
            interconnect: pim_cluster::InterconnectParams::paper_default(),
        };
        let cluster = pim_cluster::Cluster::new(config)?.with_parallelism(self.intra_budget());
        let report =
            cluster.run_instrumented(&job.workload, spec.strategy, spec.batch, instruments)?;
        Ok(report.combined)
    }

    /// The concrete intra-run parallelism granted to each job's device:
    /// [`RuntimeConfig::intra_parallelism`] resolved through
    /// [`intra_worker_budget`] against this machine, so batch workers ×
    /// intra-run threads never oversubscribe the host.
    pub fn intra_budget(&self) -> Parallelism {
        match self.config.intra_parallelism {
            Parallelism::Serial => Parallelism::Serial,
            requested => {
                let total = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                Parallelism::Threads(intra_worker_budget(requested, self.config.workers, total))
            }
        }
    }

    /// Fetches (or builds) the shared platform instance for `job`.
    fn pooled_platform(&self, job: &Job) -> Result<Arc<Platform>, pim_device::PimError> {
        let key = job.platform_key();
        if let Some(found) = self.platforms.lock().expect("platform pool lock").get(&key) {
            return Ok(Arc::clone(found));
        }
        let built = Arc::new(job.build_platform()?.with_parallelism(self.intra_budget()));
        let mut pool = self.platforms.lock().expect("platform pool lock");
        Ok(Arc::clone(pool.entry(key).or_insert(built)))
    }

    /// Number of distinct platform instances currently pooled.
    pub fn pooled_platforms(&self) -> usize {
        self.platforms.lock().expect("platform pool lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_baselines::PlatformKind;
    use pim_device::OptLevel;
    use pim_workloads::{Kernel, WorkloadSpec};

    fn small_jobs() -> Vec<Job> {
        vec![
            Job::new(
                WorkloadSpec::polybench(Kernel::Atax, 0.02),
                PlatformKind::StPim,
            ),
            Job::new(
                WorkloadSpec::polybench(Kernel::Atax, 0.02),
                PlatformKind::StPim,
            ),
            Job::new(
                WorkloadSpec::polybench(Kernel::Bicg, 0.02),
                PlatformKind::Coruscant,
            ),
            Job::new(
                WorkloadSpec::polybench(Kernel::Mvt, 0.02),
                PlatformKind::CpuRm,
            ),
        ]
    }

    #[test]
    fn batch_outcomes_are_index_aligned() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let jobs = small_jobs();
        let batch = runtime.run_batch(&jobs);
        assert_eq!(batch.outcomes.len(), jobs.len());
        assert_eq!(batch.completed(), jobs.len());
        assert_eq!(batch.failed(), 0);
        for (i, outcome) in batch.outcomes.iter().enumerate() {
            assert_eq!(outcome.index, i);
            assert_eq!(outcome.name, jobs[i].name);
            assert!(outcome.report.as_ref().unwrap().total_ns() > 0.0);
        }
    }

    #[test]
    fn identical_jobs_share_a_cached_schedule() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 1,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        runtime.run_batch(&small_jobs());
        // Jobs 0 and 1 share (config, workload); job 2 lowers its own; job
        // 3 is a host platform and never lowers.
        assert_eq!(runtime.cache().misses(), 2);
        assert_eq!(runtime.cache().hits(), 1);
        assert_eq!(runtime.cache().len(), 2);
    }

    #[test]
    fn cache_can_be_disabled() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 1,
            cache_enabled: false,
            ..RuntimeConfig::default()
        });
        let batch = runtime.run_batch(&small_jobs());
        assert_eq!(batch.completed(), 4);
        assert_eq!(runtime.cache().hits() + runtime.cache().misses(), 0);
    }

    #[test]
    fn platform_pool_deduplicates_instances() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        runtime.run_batch(&small_jobs());
        // StPim (x2 jobs) + Coruscant + CpuRm = 3 distinct platforms.
        assert_eq!(runtime.pooled_platforms(), 3);
    }

    #[test]
    fn failed_jobs_do_not_abort_the_batch() {
        // segment_domains = 0 fails device validation, so the bad job's
        // platform cannot be built; the good job must still complete.
        let bad = Job::new(
            WorkloadSpec::polybench(Kernel::Atax, 0.02),
            PlatformKind::StPim,
        )
        .with_config(pim_device::StreamPimConfig::paper_default().with_segment_domains(0));
        let good = Job::new(
            WorkloadSpec::polybench(Kernel::Atax, 0.02),
            PlatformKind::StPim,
        );
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let batch = runtime.run_batch(&[bad, good]);
        assert_eq!(batch.outcomes.len(), 2);
        assert!(batch.outcomes[0].report.is_err(), "invalid config fails");
        assert!(batch.outcomes[1].report.is_ok(), "other jobs unaffected");
        assert_eq!((batch.completed(), batch.failed()), (1, 1));
        let snap = runtime.metrics();
        assert_eq!((snap.jobs_completed, snap.jobs_failed), (1, 1));
    }

    #[test]
    fn opt_override_changes_the_report() {
        let spec = WorkloadSpec::polybench(Kernel::Gemm, 0.05);
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let jobs = vec![
            Job::new(spec, PlatformKind::StPim),
            Job::new(spec, PlatformKind::StPim).with_opt(OptLevel::Base),
        ];
        let batch = runtime.run_batch(&jobs);
        let unblock = batch.outcomes[0].report.as_ref().unwrap().total_ns();
        let base = batch.outcomes[1].report.as_ref().unwrap().total_ns();
        assert!(
            unblock < base,
            "optimizations help: unblock {unblock} vs base {base}"
        );
        // Different configs must not share cache entries.
        assert_eq!(runtime.cache().misses(), 2);
    }

    #[test]
    fn traced_batch_records_host_spans_and_identical_outcomes() {
        // One worker: concurrent probes of an identical job pair may both
        // miss (benign re-lowering), which would make the exact counts
        // below nondeterministic.
        let sink = Arc::new(pim_trace::Collector::new());
        let traced = Runtime::with_sink(
            RuntimeConfig {
                workers: 1,
                cache_enabled: true,
                ..RuntimeConfig::default()
            },
            Arc::clone(&sink) as Arc<dyn TraceSink>,
        );
        let plain = Runtime::new(RuntimeConfig {
            workers: 1,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let jobs = small_jobs();
        let traced_batch = traced.run_batch(&jobs);
        let plain_batch = plain.run_batch(&jobs);
        // Deterministic outcomes are unaffected by tracing.
        assert_eq!(traced_batch, plain_batch);

        let spans = sink.spans();
        let events = sink.events();
        // One job span per job, on a worker track, in the host domain.
        let job_spans: Vec<_> = spans.iter().filter(|s| s.cat == "job").collect();
        assert_eq!(job_spans.len(), jobs.len());
        assert!(job_spans
            .iter()
            .all(|s| s.track.class() == "worker" && s.domain == pim_trace::ClockDomain::Host));
        // Jobs 0/1 share a schedule: one hit + two misses on the cache
        // track (job 3 is a host platform and never probes).
        let probes: Vec<_> = events.iter().filter(|e| e.cat == "cache").collect();
        assert_eq!(probes.len(), 3);
        assert_eq!(probes.iter().filter(|e| e.name == "cache hit").count(), 1);
        // Each miss produced a lowering span.
        assert_eq!(spans.iter().filter(|s| s.cat == "lowering").count(), 2);
    }

    #[test]
    fn request_ids_flow_to_spans_and_metrics_but_not_outcomes() {
        let sink = Arc::new(pim_trace::Collector::new());
        let runtime = Runtime::with_sink(
            RuntimeConfig {
                workers: 1,
                cache_enabled: true,
                ..RuntimeConfig::default()
            },
            Arc::clone(&sink) as Arc<dyn TraceSink>,
        );
        let job = Job::new(
            WorkloadSpec::polybench(Kernel::Atax, 0.02),
            PlatformKind::StPim,
        )
        .with_request_id("req-00000007");
        let tagged = runtime.run_batch(std::slice::from_ref(&job));

        // The id lands on the job span and the metrics row...
        let spans = sink.spans();
        let job_span = spans.iter().find(|s| s.cat == "job").expect("job span");
        assert_eq!(job_span.request_id(), Some("req-00000007"));
        assert_eq!(runtime.metrics().jobs[0].request_id, "req-00000007");

        // ...but never in the outcome: an untagged identical job on a
        // fresh runtime produces the same result.
        let plain = Runtime::new(RuntimeConfig {
            workers: 1,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let untagged = Job {
            request_id: String::new(),
            ..job
        };
        assert_eq!(tagged, plain.run_batch(&[untagged]));
    }

    #[test]
    fn intra_worker_budget_divides_the_machine() {
        use pim_device::Parallelism::{Auto, Serial, Threads};
        // Auto: fair share of the machine, floor 1, no oversubscription.
        assert_eq!(intra_worker_budget(Auto, 4, 16), 4);
        assert_eq!(intra_worker_budget(Auto, 3, 16), 5);
        assert_eq!(intra_worker_budget(Auto, 4, 1), 1);
        assert_eq!(intra_worker_budget(Auto, 0, 8), 8, "0 workers clamp to 1");
        for total in [1usize, 2, 3, 7, 8, 16, 64] {
            for workers in [1usize, 2, 4, 7, 9] {
                let budget = intra_worker_budget(Auto, workers, total);
                assert!(budget >= 1);
                assert!(
                    workers * budget <= total.max(workers),
                    "{workers} workers x {budget} threads oversubscribes {total}"
                );
            }
        }
        // Explicit requests pass through; Serial is always 1.
        assert_eq!(intra_worker_budget(Threads(3), 4, 16), 3);
        assert_eq!(intra_worker_budget(Serial, 4, 16), 1);
    }

    #[test]
    fn auto_batches_grant_each_job_its_fair_share() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 4,
            cache_enabled: true,
            intra_parallelism: Parallelism::Auto,
        });
        let total = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let expected = intra_worker_budget(Parallelism::Auto, 4, total);
        assert_eq!(runtime.intra_budget(), Parallelism::Threads(expected));
        assert!(
            4 * expected <= total.max(4),
            "a 4-job batch stays in budget"
        );

        // The granted level reaches the pooled StreamPIM devices (and only
        // them), and outcomes are identical to an all-serial runtime.
        let jobs = small_jobs();
        let batch = runtime.run_batch(&jobs);
        let pool = runtime.platforms.lock().expect("platform pool lock");
        for platform in pool.values() {
            // Host platforms report None: they have no simulated device.
            if let Some(level) = platform.parallelism() {
                assert_eq!(level, Parallelism::Threads(expected));
            }
        }
        drop(pool);
        let serial = Runtime::new(RuntimeConfig {
            workers: 1,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        assert_eq!(batch, serial.run_batch(&jobs), "results are level-blind");
    }

    #[test]
    fn shutdown_drains_and_refuses_later_batches() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let jobs = small_jobs();
        runtime.run_batch(&jobs);
        assert!(!runtime.is_draining());

        let final_snapshot = runtime.shutdown();
        assert!(runtime.is_draining());
        assert_eq!(final_snapshot.jobs_submitted, 4);
        assert_eq!(final_snapshot.jobs_completed, 4);

        // Refused batches report an explicit error and leave no trace in
        // the metrics: they were never admitted.
        let refused = runtime.run_batch(&jobs);
        assert_eq!(refused.outcomes.len(), 4);
        assert!(refused.outcomes.iter().all(|o| o
            .report
            .as_ref()
            .err()
            .map(|e| e.contains("draining"))
            == Some(true)));
        assert_eq!(runtime.metrics(), final_snapshot, "no post-drain records");

        // Shutdown is idempotent.
        assert_eq!(runtime.shutdown(), final_snapshot);
    }

    #[test]
    fn shutdown_waits_for_in_flight_batches() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let jobs = small_jobs();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| runtime.run_batch(&jobs));
            // Whether or not the batch has started, shutdown must observe
            // its completion before returning the final snapshot.
            let snap = runtime.shutdown();
            let batch = handle.join().expect("batch thread");
            match batch.completed() {
                // Admitted before the drain: all four jobs are in the
                // final snapshot.
                4 => assert_eq!(snap.jobs_submitted, 4),
                // Refused: the intake gate won the race, nothing recorded.
                0 => assert_eq!(snap.jobs_submitted, 0),
                other => panic!("batch must be fully admitted or refused, got {other}"),
            }
        });
    }

    #[test]
    fn job_rows_carry_tenant_steal_and_miss_flags() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 1,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let jobs: Vec<Job> = small_jobs()
            .into_iter()
            .enumerate()
            .map(|(i, job)| job.for_tenant(if i < 2 { "alice" } else { "bob" }))
            .collect();
        runtime.run_batch(&jobs);
        let snap = runtime.metrics();
        // Jobs 0/1 (alice): one miss then one hit. Job 2 (bob, Coruscant)
        // misses; job 3 (bob, CpuRm) is a host platform and never probes.
        assert_eq!(snap.tenants.len(), 2);
        let alice = &snap.tenants[0];
        assert_eq!((alice.cache_hits, alice.cache_misses), (1, 1));
        let bob = &snap.tenants[1];
        assert_eq!((bob.cache_hits, bob.cache_misses), (0, 1));
        let host_row = &snap.jobs[3];
        assert!(!host_row.cache_hit && !host_row.cache_miss);
        assert_eq!(host_row.tenant, "bob");
    }

    #[test]
    fn near_miss_repricing_is_byte_identical_to_cold_pricing() {
        // A shape-swept workload: same operation DAG, different dimensions.
        // On the warm runtime the first job is cold (seeds the shape's
        // price table), every later one is a near miss re-priced through
        // the memo.
        let specs: Vec<WorkloadSpec> = (0..6)
            .map(|i| WorkloadSpec::MatMul {
                m: 16 + 4 * i,
                k: 24 + 2 * i,
                n: 8 + i,
            })
            .collect();
        let jobs: Vec<Job> = specs
            .iter()
            .map(|s| Job::new(*s, PlatformKind::StPim))
            .collect();
        let warm = Runtime::new(RuntimeConfig {
            workers: 1,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let warm_batch = warm.run_batch(&jobs);
        assert_eq!(warm_batch.completed(), jobs.len());

        for (i, job) in jobs.iter().enumerate() {
            // Cold pricing: a fresh runtime has no shape table to reuse.
            let cold = Runtime::new(RuntimeConfig {
                workers: 1,
                cache_enabled: true,
                ..RuntimeConfig::default()
            });
            let cold_batch = cold.run_batch(std::slice::from_ref(job));
            assert_eq!(
                cold_batch.outcomes[0].report, warm_batch.outcomes[i].report,
                "near-miss re-priced report must be byte-identical to cold"
            );
            assert_eq!(
                cold.metrics().cache_near_hits,
                0,
                "single job never near-hits"
            );
            // And both match the legacy uncached platform path exactly.
            let direct = pim_baselines::Platform::new(PlatformKind::StPim)
                .unwrap()
                .run(&Workload::from_spec(&specs[i]))
                .unwrap();
            assert_eq!(warm_batch.outcomes[i].report.as_ref().unwrap(), &direct);
        }

        let snap = warm.metrics();
        assert_eq!(snap.cache_near_hits, (jobs.len() - 1) as u64);
        assert!(
            snap.cache_repriced_rows > 0,
            "swept shapes introduce fresh (kind, len) rows"
        );
        // All six jobs were distinct full keys: every probe missed.
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_misses, jobs.len() as u64);
    }

    #[test]
    fn near_hits_reprice_fewer_rows_than_cold_runs() {
        // gemv-shaped matmuls share the dot length across rows, so a near
        // miss that only changes `m`/`n` re-prices almost nothing; one that
        // changes `k` re-prices exactly the new dot rows.
        let base = WorkloadSpec::MatMul { m: 32, k: 64, n: 4 };
        let taller = WorkloadSpec::MatMul { m: 48, k: 64, n: 4 };
        let wider_k = WorkloadSpec::MatMul { m: 32, k: 80, n: 4 };
        let runtime = Runtime::new(RuntimeConfig {
            workers: 1,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let jobs: Vec<Job> = [base, taller, wider_k]
            .iter()
            .map(|s| Job::new(*s, PlatformKind::StPim))
            .collect();
        let batch = runtime.run_batch(&jobs);
        assert_eq!(batch.completed(), 3);
        let snap = runtime.metrics();
        assert_eq!(snap.cache_near_hits, 2);
        // `taller` re-uses every (kind, len) row of `base`; `wider_k`
        // introduces the k=80 dot row (plus its collect length if new).
        // Either way the re-priced rows are a small fraction of the
        // hundreds of requests a cold pricing walks.
        assert!(
            snap.cache_repriced_rows <= 4,
            "near misses re-price only shape-dependent rows, got {}",
            snap.cache_repriced_rows
        );
    }

    #[test]
    fn metrics_reflect_the_batch() {
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        runtime.run_batch(&small_jobs());
        let snap = runtime.metrics();
        assert_eq!(snap.jobs_submitted, 4);
        assert_eq!(snap.jobs_completed, 4);
        assert_eq!(snap.jobs.len(), 4);
        assert_eq!(snap.cache_hits, 1);
        assert!(snap.aggregate.total_ns() > 0.0);
        assert!(snap.jobs.iter().all(|j| j.ok));
        let json = runtime.metrics_json();
        assert!(json.contains("\"jobs_submitted\": 4"));
    }

    #[test]
    fn cluster_jobs_run_in_a_batch() {
        use pim_cluster::ClusterSpec;
        let runtime = Runtime::new(RuntimeConfig {
            workers: 2,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let spec = WorkloadSpec::MatMul {
            m: 128,
            k: 48,
            n: 32,
        };
        let jobs = vec![
            Job::new(spec, PlatformKind::StPim),
            Job::new(spec, PlatformKind::StPim).with_cluster(ClusterSpec::data(4).with_batch(4)),
        ];
        let batch = runtime.run_batch(&jobs);
        assert_eq!(batch.completed(), 2);
        let single = batch.outcomes[0].report.as_ref().unwrap();
        let cluster = batch.outcomes[1].report.as_ref().unwrap();
        // 4 batch items on 4 devices: more energy than one item, less time
        // than pricing 4 items on one device.
        assert!(cluster.total_pj() > single.total_pj());
        assert!(cluster.total_ns() < 4.0 * single.total_ns());
    }

    #[test]
    fn one_device_cluster_spec_matches_plain_job() {
        use pim_cluster::ClusterSpec;
        let runtime = Runtime::new(RuntimeConfig {
            workers: 1,
            cache_enabled: true,
            ..RuntimeConfig::default()
        });
        let spec = WorkloadSpec::MatMul {
            m: 64,
            k: 32,
            n: 16,
        };
        let jobs = vec![
            Job::new(spec, PlatformKind::StPim),
            Job::new(spec, PlatformKind::StPim).with_cluster(ClusterSpec::data(1)),
        ];
        let batch = runtime.run_batch(&jobs);
        let plain = batch.outcomes[0].report.as_ref().unwrap();
        let clustered = batch.outcomes[1].report.as_ref().unwrap();
        assert_eq!(plain, clustered, "devices:1 batch:1 falls through");
        // The fall-through keeps the schedule cache engaged.
        assert_eq!(runtime.cache().hits(), 1);
    }

    #[test]
    fn cluster_on_host_platform_is_a_config_error() {
        use pim_cluster::ClusterSpec;
        let runtime = Runtime::new(RuntimeConfig::default());
        let job = Job::new(
            WorkloadSpec::MatMul {
                m: 64,
                k: 32,
                n: 16,
            },
            PlatformKind::CpuRm,
        )
        .with_cluster(ClusterSpec::data(2));
        let batch = runtime.run_batch(&[job]);
        let err = batch.outcomes[0].report.as_ref().unwrap_err();
        assert!(err.to_string().contains("StreamPIM-family"), "got: {err}");
    }
}
