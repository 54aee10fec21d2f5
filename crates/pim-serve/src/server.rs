//! The service itself: listener, HTTP worker pool, dispatchers, routing.
//!
//! ## Thread topology
//!
//! ```text
//!   acceptor ──► bounded connection channel ──► HTTP workers (parse,
//!      │         (try_send; full = shed 429)    route, respond)
//!      │                                          │ submit/cancel/query
//!      ▼                                          ▼
//!   TcpListener                            Core state (one mutex):
//!                                          phase, tenant queues, job table
//!                                                 │ work condvar
//!                                                 ▼
//!                                          dispatchers ──► pim-runtime
//!                                          (weighted fair pick, one job
//!                                           per dispatch, settle meter)
//! ```
//!
//! The thread budget is explicit: HTTP workers only parse and route (no
//! simulation), dispatchers each run one job at a time, and every job's
//! simulated device gets `intra_worker_budget(Auto, dispatchers, machine −
//! HTTP workers)` threads — so service threads × dispatchers × intra-run
//! threads never oversubscribe the host (see [`ServeConfig::plan`]).
//!
//! ## Determinism at the network edge
//!
//! The runtime's contract — an [`pim_device::ExecReport`] is a pure
//! function of the job — survives the service unchanged: admission order,
//! queueing, fair dispatch, and thread counts only decide *when* a job
//! runs, never what it computes. The overload integration test asserts
//! this byte-for-byte against direct `pim-runtime` runs.

use crate::admission::{self, AdmissionConfig, Phase, Rejection};
use crate::api::*;
use crate::http::{client_request, read_request, ParseError, Request, Response};
use crate::meter::{Ledger, MeterConfig};
use crate::queue::TenantQueues;
use pim_device::Parallelism;
use pim_flight::{FaultTally, FlightConfig, FlightRecorder, FlightTap, JobObservation};
use pim_obs::{
    prom, EventLog, EventLogConfig, Level, Registry, RequestIdSource, SloConfig, SloTracker,
};
use pim_runtime::{intra_worker_budget, Instruments, Job, Runtime, RuntimeConfig};
use pim_trace::{NullSink, Span, TraceSink, Track, ATTR_REQUEST_ID};
use rm_core::WearTracker;
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many recent events `GET /v1/events` returns (the ring retains
/// [`EventLogConfig::default`]'s capacity; this bounds one response).
const EVENTS_DEFAULT_LIMIT: usize = 256;

/// How many summaries `GET /v1/debug/requests` lists alongside the
/// retained index.
const DEBUG_RECENT_LIMIT: usize = 32;

/// Top-K nanowire rows in the `GET /v1/device/health` heatmap.
const HEALTH_TOP_WIRES: usize = 16;

/// How long the acceptor waits before retrying after an `accept` error
/// that is not a per-connection hiccup (e.g. `EMFILE`: out of descriptors).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Whether a failed `accept` is retried at once: a signal, or a connection
/// that died in the backlog. Anything else (e.g. `EMFILE`) is retried
/// after [`ACCEPT_BACKOFF`] with a warning.
fn retry_accept_at_once(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
    )
}

/// The address that reaches a listener bound to `addr`: a wildcard bind
/// (`0.0.0.0` / `[::]`) is reached through the matching loopback address.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let mut wake = addr;
    if addr.ip().is_unspecified() {
        wake.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    wake
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// HTTP worker threads (parse + route only, no simulation).
    pub http_workers: usize,
    /// Dispatcher threads (each runs one job at a time in the runtime).
    /// Zero pauses dispatch entirely — jobs queue but never run — which
    /// exists for deterministic cancellation tests, not production use.
    pub dispatch_workers: usize,
    /// Bounded connection-queue depth between acceptor and HTTP workers;
    /// beyond it, connections are shed at the door with a 429.
    pub connection_backlog: usize,
    /// Per-read timeout on client sockets, milliseconds.
    pub read_timeout_ms: u64,
    /// Admission caps.
    pub admission: AdmissionConfig,
    /// Metering rates.
    pub meter: MeterConfig,
    /// Initial per-tenant dispatch weights (tenants absent here get 1).
    pub tenant_weights: Vec<(String, u64)>,
    /// Per-tenant latency SLO (objective + target fraction). Feeds both
    /// the SLO tracker and the flight recorder's breach detection.
    pub slo: SloConfig,
    /// Flight-recorder policy (retention, ring budgets, outlier knobs).
    pub flight: FlightConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            http_workers: 2,
            dispatch_workers: machine.saturating_sub(2).clamp(1, 4),
            connection_backlog: 64,
            read_timeout_ms: 2_000,
            admission: AdmissionConfig::default(),
            meter: MeterConfig::default(),
            tenant_weights: Vec::new(),
            slo: SloConfig::default(),
            flight: FlightConfig::default(),
        }
    }
}

/// The service's explicit thread budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Hardware threads on this machine.
    pub machine: usize,
    /// HTTP worker threads.
    pub http_workers: usize,
    /// Dispatcher threads.
    pub dispatch_workers: usize,
    /// Intra-run simulation threads granted to each running job.
    pub intra_per_job: usize,
}

impl ServeConfig {
    /// Splits the machine between service threads and simulation:
    /// dispatchers share what is left after the HTTP workers, and each
    /// job's device gets the dispatchers' fair share of that remainder via
    /// [`intra_worker_budget`] — so `dispatch_workers × intra_per_job`
    /// never exceeds the compute budget.
    pub fn plan(&self) -> ThreadPlan {
        let machine = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let compute = machine.saturating_sub(self.http_workers).max(1);
        let intra_per_job = intra_worker_budget(Parallelism::Auto, self.dispatch_workers, compute);
        ThreadPlan {
            machine,
            http_workers: self.http_workers,
            dispatch_workers: self.dispatch_workers,
            intra_per_job,
        }
    }

    /// The runtime configuration the plan implies. Each dispatcher submits
    /// single-job batches, so the runtime's own batch pool stays at one
    /// worker and all parallelism is explicit: dispatcher threads ×
    /// `Threads(intra_per_job)` devices.
    pub fn runtime_config(&self) -> RuntimeConfig {
        let plan = self.plan();
        RuntimeConfig {
            workers: 1,
            cache_enabled: true,
            intra_parallelism: if plan.intra_per_job <= 1 {
                Parallelism::Serial
            } else {
                Parallelism::Threads(plan.intra_per_job)
            },
        }
    }
}

/// One job's full server-side record.
#[derive(Debug, Clone)]
struct JobRecord {
    id: u64,
    tenant: String,
    /// Correlation id of the submitting HTTP request.
    request_id: String,
    name: String,
    job: Job,
    state: JobState,
    submitted_ns: u64,
    started_ns: Option<u64>,
    finished_ns: Option<u64>,
    /// Failure message for failed jobs.
    error: Option<String>,
    /// The completed report as JSON (pre-serialized once; responses and
    /// the byte-identity tests read this exact string).
    report_json: Option<String>,
}

/// Mutable state under the core mutex.
#[derive(Debug)]
struct CoreState {
    phase: Phase,
    queues: TenantQueues,
    jobs: HashMap<u64, JobRecord>,
    next_id: u64,
}

/// Monotone traffic counters (lock-free; read by `/v1/metrics`).
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected_tenant: AtomicU64,
    rejected_global: AtomicU64,
    rejected_drain: AtomicU64,
    shed_connections: AtomicU64,
    cancelled: AtomicU64,
    /// Completed-job service time, for `Retry-After` estimation.
    service_ns_total: AtomicU64,
    service_jobs: AtomicU64,
}

impl Counters {
    fn stats(&self) -> ServerStats {
        ServerStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_tenant: self.rejected_tenant.load(Ordering::Relaxed),
            rejected_global: self.rejected_global.load(Ordering::Relaxed),
            rejected_drain: self.rejected_drain.load(Ordering::Relaxed),
            shed_connections: self.shed_connections.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
        }
    }

    /// Mean observed service time, if any job has completed.
    fn mean_service_ns(&self) -> Option<u64> {
        let jobs = self.service_jobs.load(Ordering::Relaxed);
        (jobs > 0).then(|| self.service_ns_total.load(Ordering::Relaxed) / jobs)
    }
}

/// The always-on telemetry plane: one registry, one event ring, one SLO
/// tracker, and the request-id mint — shared by every service thread.
/// Everything here is host-side observation; nothing feeds back into
/// simulated results (the determinism suite asserts this).
struct Obs {
    registry: Registry,
    events: EventLog,
    slo: SloTracker,
    request_ids: RequestIdSource,
}

impl Obs {
    fn new(slo: SloConfig) -> Self {
        Obs {
            registry: Registry::new(),
            events: EventLog::new(EventLogConfig::default()),
            slo: SloTracker::new(slo),
            request_ids: RequestIdSource::new(),
        }
    }
}

/// Everything the service threads share.
struct Core {
    config: ServeConfig,
    runtime: Runtime,
    ledger: Ledger,
    state: Mutex<CoreState>,
    /// Signaled on submit and on freed in-flight slots; dispatchers wait.
    work: Condvar,
    /// Signaled when a job settles; drain waits.
    done: Condvar,
    counters: Counters,
    /// Tells the acceptor to stop taking connections.
    stop: AtomicBool,
    /// Zero point of the service host clock.
    origin: Instant,
    sink: Arc<dyn TraceSink>,
    obs: Obs,
    /// The always-on flight recorder (tail-sampled per-request records).
    flight: FlightRecorder,
    /// Device-health accumulator, fed from every request's attribution.
    health: Arc<WearTracker>,
    /// Per-device utilization rollup for cluster jobs, fed from the same
    /// attribution stream (single-device jobs contribute nothing).
    cluster_util: pim_flight::ClusterUtilization,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("config", &self.config)
            .finish()
    }
}

impl Core {
    fn new(config: ServeConfig, sink: Arc<dyn TraceSink>) -> Self {
        let runtime = Runtime::with_sink(config.runtime_config(), Arc::clone(&sink));
        let ledger = Ledger::new(config.meter.clone());
        let mut queues = TenantQueues::new();
        for (tenant, weight) in &config.tenant_weights {
            queues.set_weight(tenant, *weight);
        }
        let flight = FlightRecorder::new(config.flight.clone());
        let obs = Obs::new(config.slo);
        Core {
            config,
            runtime,
            ledger,
            state: Mutex::new(CoreState {
                phase: Phase::Accepting,
                queues,
                jobs: HashMap::new(),
                next_id: 1,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            counters: Counters::default(),
            stop: AtomicBool::new(false),
            origin: Instant::now(),
            sink,
            obs,
            flight,
            health: Arc::new(WearTracker::new()),
            cluster_util: pim_flight::ClusterUtilization::new(),
        }
    }

    /// Nanoseconds since server start.
    fn host_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// One dispatcher thread: fair-pick a job, run it through the runtime,
    /// settle the meter, publish the outcome. Exits once the service has
    /// left `Accepting` and the queues are empty.
    fn dispatch_loop(&self) {
        loop {
            let (tenant, job_id, job, queued_ns) = {
                let mut state = self.state.lock().expect("core lock");
                loop {
                    let cap = self.config.admission.max_inflight_per_tenant;
                    if let Some((tenant, job_id)) = state.queues.dispatch(cap) {
                        let record = state.jobs.get_mut(&job_id).expect("queued job recorded");
                        record.state = JobState::Running;
                        let started_ns = self.host_ns();
                        record.started_ns = Some(started_ns);
                        let queued_ns = started_ns.saturating_sub(record.submitted_ns);
                        let job = record.job.clone();
                        break (tenant, job_id, job, queued_ns);
                    }
                    if state.phase != Phase::Accepting && state.queues.queued() == 0 {
                        return;
                    }
                    state = self.work.wait(state).expect("core lock");
                }
            };

            // The flight tap observes the instrumented repriced fast path:
            // attaching it never changes the simulated outcome (the
            // determinism suite pins recorder-on vs recorder-off reports
            // byte-for-byte).
            let tap = self.flight.begin();
            let started = Instant::now();
            let instruments = tap
                .as_ref()
                .map_or(Instruments::NONE, FlightTap::instruments);
            let (batch, dispositions) = self
                .runtime
                .run_batch_instrumented(std::slice::from_ref(&job), &instruments);
            let outcome = batch.outcomes.into_iter().next().expect("one outcome");
            let cache = dispositions.into_iter().next().unwrap_or_default();
            let elapsed_ns = started.elapsed().as_nanos() as u64;
            self.counters
                .service_ns_total
                .fetch_add(elapsed_ns, Ordering::Relaxed);
            self.counters.service_jobs.fetch_add(1, Ordering::Relaxed);

            let ok = outcome.report.is_ok();
            self.obs.slo.observe(&tenant, ok, elapsed_ns);
            self.obs
                .registry
                .counter(
                    "pim_serve_jobs_dispatched_total",
                    "Jobs run to completion by the dispatchers (completed or failed).",
                    &[("tenant", &tenant)],
                )
                .inc();
            self.obs
                .registry
                .histogram(
                    "pim_serve_job_service_ns",
                    "Host wall-clock service time of one dispatched job, nanoseconds.",
                    &[],
                )
                .observe(elapsed_ns);
            let id_str = job_id.to_string();
            match &outcome.report {
                Ok(_) => self.obs.events.emit(
                    Level::Info,
                    "dispatch",
                    &job.request_id,
                    "job completed",
                    &[("id", &id_str), ("tenant", &tenant), ("name", &job.name)],
                ),
                Err(message) => self.obs.events.emit(
                    Level::Error,
                    "dispatch",
                    &job.request_id,
                    message,
                    &[("id", &id_str), ("tenant", &tenant), ("name", &job.name)],
                ),
            };

            // Settle the meter before publishing the terminal state, so a
            // client that polls "Completed" always sees a settled record.
            self.ledger.settle(job_id, outcome.report.as_ref().ok());

            let fault = outcome
                .report
                .as_ref()
                .ok()
                .map(|r| FaultTally::from_counters(&r.counters))
                .unwrap_or_default();
            let error = outcome.report.as_ref().err().cloned();

            let mut state = self.state.lock().expect("core lock");
            state.queues.finish(&tenant);
            let record = state.jobs.get_mut(&job_id).expect("running job recorded");
            record.finished_ns = Some(self.host_ns());
            match outcome.report {
                Ok(report) => {
                    record.state = JobState::Completed;
                    record.report_json =
                        Some(serde_json::to_string(&report).expect("report serializes"));
                }
                Err(message) => {
                    record.state = JobState::Failed;
                    record.error = Some(message);
                }
            }
            drop(state);
            // A tenant slot freed: other dispatchers may now be eligible.
            self.work.notify_all();
            self.done.notify_all();

            // Completion hooks of the flight recorder: fold the request's
            // attribution into the device-health heatmap, then let the
            // retention policy decide what the request leaves behind. Both
            // observe only; neither touches simulated state.
            if let Some(tap) = &tap {
                tap.probe.with_tree(|tree| {
                    pim_flight::absorb_attribution(&self.health, tree);
                    self.cluster_util.absorb_attribution(tree);
                });
            }
            let retained = self.flight.finish(
                JobObservation {
                    request_id: job.request_id.clone(),
                    job_id,
                    tenant: tenant.clone(),
                    name: job.name.clone(),
                    platform: job.platform.name().to_string(),
                    shape_key: cache.shape_key,
                    queued_ns,
                    latency_ns: elapsed_ns,
                    slo_objective_ns: self.config.slo.latency_objective_ns,
                    ok,
                    error,
                    cancelled: false,
                    cache,
                    fault,
                },
                tap,
            );
            if let Some(reason) = retained {
                self.obs.events.emit(
                    Level::Info,
                    "flight",
                    &job.request_id,
                    "flight record retained",
                    &[
                        ("tenant", &tenant),
                        ("name", &job.name),
                        ("reason", reason.label()),
                    ],
                );
            }
        }
    }

    /// Bumps the labeled admission-outcome counter.
    fn admission_outcome(&self, outcome: &str) {
        self.obs
            .registry
            .counter(
                "pim_serve_admission_total",
                "Admission decisions by outcome (admitted, rejected_tenant, rejected_global, rejected_drain, shed_connection).",
                &[("outcome", outcome)],
            )
            .inc();
    }

    /// `POST /v1/jobs`.
    fn submit(&self, request: &Request, request_id: &str) -> Response {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let parsed: SubmitRequest = match serde_json::from_str(request.body_str()) {
            Ok(parsed) => parsed,
            Err(error) => return Response::error(400, &format!("bad submit body: {error}")),
        };
        if parsed.tenant.is_empty() {
            return Response::error(400, "tenant must be non-empty");
        }
        // Cluster specs are validated at the edge: a bad device count or
        // batch is the client's error (400), not a queued job that fails.
        if let Some(spec) = &parsed.job.cluster {
            if let Err(error) = spec.validate() {
                return Response::error(400, &format!("bad cluster spec: {error}"));
            }
        }
        let tenant = parsed.tenant;
        // Tenant and request id are both stamped at the edge: whatever the
        // client put in those job fields is overwritten here.
        let job = parsed
            .job
            .for_tenant(tenant.clone())
            .with_request_id(request_id);

        let mut state = self.state.lock().expect("core lock");
        let decision = admission::admit(
            &self.config.admission,
            state.phase,
            state.queues.queued_for(&tenant),
            state.queues.queued(),
        );
        if let Err(rejection) = decision {
            let backlog = state.queues.queued() + state.queues.in_flight();
            drop(state);
            let (counter, outcome) = match &rejection {
                Rejection::TenantQueueFull { .. } => {
                    (&self.counters.rejected_tenant, "rejected_tenant")
                }
                Rejection::GlobalOverload { .. } => {
                    (&self.counters.rejected_global, "rejected_global")
                }
                Rejection::Draining => (&self.counters.rejected_drain, "rejected_drain"),
            };
            counter.fetch_add(1, Ordering::Relaxed);
            self.admission_outcome(outcome);
            self.obs.events.emit(
                Level::Warn,
                "admission",
                request_id,
                &rejection.reason(),
                &[("tenant", &tenant), ("outcome", outcome)],
            );
            return self.reject(rejection, backlog, request_id);
        }
        let job_id = state.next_id;
        state.next_id += 1;
        // Ledger admission happens under the core lock, before the job is
        // visible to dispatchers — a dispatcher can never settle a job the
        // ledger has not admitted.
        let batch = job.cluster.map_or(1, |c| u64::from(c.batch));
        let meter = self
            .ledger
            .admit_batched(job_id, &tenant, request_id, &job.workload, batch);
        state.jobs.insert(
            job_id,
            JobRecord {
                id: job_id,
                tenant: tenant.clone(),
                request_id: request_id.to_string(),
                name: job.name.clone(),
                job,
                state: JobState::Queued,
                submitted_ns: self.host_ns(),
                started_ns: None,
                finished_ns: None,
                error: None,
                report_json: None,
            },
        );
        state.queues.push(&tenant, job_id);
        drop(state);
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        self.admission_outcome("admitted");
        let id_str = job_id.to_string();
        self.obs.events.emit(
            Level::Info,
            "admission",
            request_id,
            "job admitted",
            &[("id", &id_str), ("tenant", &tenant)],
        );
        self.work.notify_all();

        let body = SubmitResponse {
            id: job_id,
            tenant,
            request_id: request_id.to_string(),
            state: JobState::Queued,
            meter,
        };
        Response::json(
            202,
            serde_json::to_string(&body).expect("response serializes"),
        )
    }

    /// Builds the 429/503 response for a refusal, with `Retry-After` both
    /// as a header (whole seconds, per HTTP) and a millisecond hint in the
    /// body. `request_id` is empty when the connection was shed before a
    /// request could be read.
    fn reject(&self, rejection: Rejection, backlog: usize, request_id: &str) -> Response {
        let retry_ms = admission::retry_after_ms(backlog, self.counters.mean_service_ns());
        let body = ErrorResponse {
            error: rejection.reason(),
            request_id: request_id.to_string(),
            retry_after_ms: Some(retry_ms),
        };
        Response::json(
            rejection.status(),
            serde_json::to_string(&body).expect("response serializes"),
        )
        .header("Retry-After", retry_ms.div_ceil(1000).max(1))
    }

    /// `GET /v1/jobs/{id}`.
    fn status(&self, job_id: u64) -> Response {
        let state = self.state.lock().expect("core lock");
        let Some(record) = state.jobs.get(&job_id) else {
            return Response::error(404, &format!("no such job {job_id}"));
        };
        let body = StatusResponse {
            id: record.id,
            tenant: record.tenant.clone(),
            request_id: record.request_id.clone(),
            name: record.name.clone(),
            state: record.state,
            submitted_ns: record.submitted_ns,
            started_ns: record.started_ns,
            finished_ns: record.finished_ns,
        };
        Response::json(
            200,
            serde_json::to_string(&body).expect("response serializes"),
        )
    }

    /// `GET /v1/jobs/{id}/result`. The report JSON is spliced in verbatim
    /// from the string serialized at completion, so what the client
    /// receives is byte-identical to serializing the runtime's report
    /// directly.
    fn result(&self, job_id: u64) -> Response {
        let state = self.state.lock().expect("core lock");
        let Some(record) = state.jobs.get(&job_id) else {
            return Response::error(404, &format!("no such job {job_id}"));
        };
        if !record.state.is_terminal() {
            return Response::error(
                409,
                &format!("job {job_id} is {:?}; result not ready", record.state),
            );
        }
        let meter = self
            .ledger
            .record(job_id)
            .map(|r| serde_json::to_string(&r).expect("meter serializes"))
            .unwrap_or_else(|| "null".to_string());
        let report = record
            .report_json
            .clone()
            .unwrap_or_else(|| "null".to_string());
        let error = serde_json::to_string(&record.error).expect("error serializes");
        let state_json = serde_json::to_string(&record.state).expect("state serializes");
        // Hand-assembled so the `report` field is the exact bytes stored
        // at completion (field order mirrors `api::ResultResponse`).
        let body = format!(
            "{{\"id\": {}, \"tenant\": {}, \"request_id\": {}, \"state\": {}, \"report\": {}, \"error\": {}, \"meter\": {}}}",
            record.id,
            serde_json::to_string(&record.tenant).expect("tenant serializes"),
            serde_json::to_string(&record.request_id).expect("request id serializes"),
            state_json,
            report,
            error,
            meter,
        );
        Response::json(200, body)
    }

    /// `DELETE /v1/jobs/{id}`.
    fn cancel(&self, job_id: u64) -> Response {
        let mut state = self.state.lock().expect("core lock");
        let Some(record) = state.jobs.get(&job_id) else {
            return Response::error(404, &format!("no such job {job_id}"));
        };
        let tenant = record.tenant.clone();
        let request_id = record.request_id.clone();
        let name = record.name.clone();
        let platform = record.job.platform.name().to_string();
        let submitted_ns = record.submitted_ns;
        match record.state {
            JobState::Queued => {
                assert!(
                    state.queues.remove(&tenant, job_id),
                    "queued job is in its tenant queue"
                );
                let record = state.jobs.get_mut(&job_id).expect("record exists");
                record.state = JobState::Cancelled;
                let cancelled_ns = self.host_ns();
                record.finished_ns = Some(cancelled_ns);
                drop(state);
                // Cancellations are always tail-sampled: the record shows
                // how long the request sat queued before it was abandoned.
                self.flight.finish(
                    JobObservation {
                        request_id: request_id.clone(),
                        job_id,
                        tenant: tenant.clone(),
                        name,
                        platform,
                        queued_ns: cancelled_ns.saturating_sub(submitted_ns),
                        latency_ns: cancelled_ns.saturating_sub(submitted_ns),
                        slo_objective_ns: self.config.slo.latency_objective_ns,
                        ok: false,
                        cancelled: true,
                        ..JobObservation::default()
                    },
                    None,
                );
                assert!(self.ledger.cancel(job_id), "queued job's meter is pending");
                self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                let id_str = job_id.to_string();
                self.obs.events.emit(
                    Level::Info,
                    "admission",
                    &request_id,
                    "job cancelled",
                    &[("id", &id_str), ("tenant", &tenant)],
                );
                // Cancellation can make the queues idle: wake a drain.
                self.done.notify_all();
                let body = StatusResponse {
                    id: job_id,
                    tenant,
                    request_id,
                    name: String::new(),
                    state: JobState::Cancelled,
                    submitted_ns: 0,
                    started_ns: None,
                    finished_ns: None,
                };
                Response::json(200, serde_json::to_string(&body).expect("serializes"))
            }
            JobState::Running => Response::error(
                409,
                "job is running; the simulator is not interruptible, it will complete and be metered",
            ),
            state => Response::error(409, &format!("job already {state:?}")),
        }
    }

    /// `GET /v1/metrics`.
    fn metrics(&self) -> Response {
        let phase = self.state.lock().expect("core lock").phase;
        let body = MetricsResponse {
            phase,
            server: self.counters.stats(),
            runtime: self.runtime.metrics(),
            ledger: self.ledger.summary(),
            slo: self.obs.slo.report(),
            flight: self.flight.counters(),
            cluster: self.cluster_util.snapshot(),
        };
        Response::json(200, serde_json::to_string(&body).expect("serializes"))
    }

    /// `GET /v1/debug/requests`: recorder counters, the retained-record
    /// index (newest first), and the tail of recent summaries.
    fn debug_requests(&self) -> Response {
        let index = self.flight.index(DEBUG_RECENT_LIMIT);
        Response::json(200, serde_json::to_string(&index).expect("serializes"))
    }

    /// `GET /v1/debug/requests/{id}`: the full retained record, served as
    /// the exact bytes stored at retention time.
    fn debug_request(&self, request_id: &str) -> Response {
        match self.flight.get_json(request_id) {
            Some(json) => Response::json(200, json),
            None => Response::error(
                404,
                &format!("no retained flight record for {request_id:?} (evicted or summarized)"),
            ),
        }
    }

    /// `GET /v1/device/health`: the per-subarray fault/wear heatmap plus
    /// the top-K most-shifted nanowires.
    fn device_health(&self) -> Response {
        let body = DeviceHealthResponse {
            health: self.health.snapshot(HEALTH_TOP_WIRES),
        };
        Response::json(200, serde_json::to_string(&body).expect("serializes"))
    }

    /// Samples the point-in-time gauges that have no event to hook:
    /// queue depths, trace-sink loss, SLO attainment, and event-log
    /// suppression. Called on every `/metrics.prom` scrape so the
    /// exposition is current without a background sampler thread.
    fn sample_gauges(&self) {
        let depths = {
            let state = self.state.lock().expect("core lock");
            state.queues.depths()
        };
        for (tenant, queued, in_flight) in &depths {
            self.obs
                .registry
                .gauge(
                    "pim_serve_queue_depth",
                    "Jobs waiting in one tenant's FIFO queue.",
                    &[("tenant", tenant)],
                )
                .set(*queued as i64);
            self.obs
                .registry
                .gauge(
                    "pim_serve_inflight_jobs",
                    "Jobs currently executing for one tenant.",
                    &[("tenant", tenant)],
                )
                .set(*in_flight as i64);
        }
        let runtime = self.runtime.metrics();
        self.obs
            .registry
            .gauge(
                "pim_runtime_cache_near_hits",
                "Cache near misses served by incremental re-pricing (same DAG shape, new dimensions).",
                &[],
            )
            .set(runtime.cache_near_hits as i64);
        self.obs
            .registry
            .gauge(
                "pim_runtime_cache_repriced_rows",
                "Request-table rows priced fresh across all near-miss re-pricings.",
                &[],
            )
            .set(runtime.cache_repriced_rows as i64);
        self.obs
            .registry
            .gauge(
                "pim_trace_dropped_records",
                "Trace records refused because the sink was at capacity.",
                &[],
            )
            .set(self.sink.dropped_records() as i64);
        self.obs
            .registry
            .gauge(
                "pim_trace_collector_capacity",
                "Trace-sink retention cap in records (-1 = unbounded).",
                &[],
            )
            .set(self.sink.capacity().map_or(-1, |c| c as i64));
        self.obs
            .registry
            .gauge(
                "pim_obs_events_suppressed_total",
                "Structured events filtered by level or rate limiting.",
                &[],
            )
            .set(self.obs.events.suppressed() as i64);
        let flight = self.flight.counters();
        self.obs
            .registry
            .gauge(
                "pim_flight_retained_total",
                "Full flight records retained by the tail-sampling policy.",
                &[],
            )
            .set(flight.retained as i64);
        self.obs
            .registry
            .gauge(
                "pim_flight_summarized_total",
                "Requests the flight recorder dropped to a cheap summary.",
                &[],
            )
            .set(flight.summarized as i64);
        self.obs
            .registry
            .gauge(
                "pim_flight_evicted_total",
                "Retained flight records evicted by the ring's record/byte budget.",
                &[],
            )
            .set(flight.evicted as i64);
        self.obs
            .registry
            .gauge(
                "pim_flight_ring_bytes",
                "Bytes of serialized flight records currently resident.",
                &[],
            )
            .set(flight.ring_bytes as i64);
        self.obs
            .registry
            .gauge(
                "pim_flight_overhead_ns_total",
                "Cumulative host time spent in the flight recorder's completion hook only; the tap's in-run attribution and span collection are not counted.",
                &[],
            )
            .set(flight.overhead_ns as i64);
        let health = self.health.snapshot(0);
        self.obs
            .registry
            .gauge(
                "pim_device_health_shifts_total",
                "Shift operations folded into the device-health heatmap across all subarrays.",
                &[],
            )
            .set(health.totals.shifts as i64);
        self.obs
            .registry
            .gauge(
                "pim_device_health_faults_injected_total",
                "Shift faults injected across all subarrays (functional fault-injection runs).",
                &[],
            )
            .set(health.totals.faults_injected() as i64);
        for row in self.cluster_util.snapshot() {
            let device = row.device.to_string();
            self.obs
                .registry
                .gauge(
                    "pim_cluster_device_busy_ns",
                    "Simulated engine busy time attributed to one cluster device across all served jobs.",
                    &[("device", &device)],
                )
                .set(row.busy_ns as i64);
            self.obs
                .registry
                .gauge(
                    "pim_cluster_device_energy_pj",
                    "Simulated engine energy attributed to one cluster device across all served jobs.",
                    &[("device", &device)],
                )
                .set(row.energy_pj as i64);
            self.obs
                .registry
                .gauge(
                    "pim_cluster_link_busy_ns",
                    "Simulated interconnect busy time on one cluster device's link across all served jobs.",
                    &[("device", &device)],
                )
                .set(row.link_busy_ns as i64);
            self.obs
                .registry
                .gauge(
                    "pim_cluster_link_energy_pj",
                    "Simulated interconnect energy on one cluster device's link across all served jobs.",
                    &[("device", &device)],
                )
                .set(row.link_energy_pj as i64);
        }
        for tenant in self.obs.slo.report().tenants {
            self.obs
                .registry
                .gauge(
                    "pim_slo_attainment_millionths",
                    "Fraction of jobs meeting the tenant's latency objective, in millionths.",
                    &[("tenant", &tenant.tenant)],
                )
                .set((tenant.attainment * 1e6) as i64);
            self.obs
                .registry
                .gauge(
                    "pim_slo_error_budget_burn_millionths",
                    "Error-budget burn rate (1 = budget consumed exactly at the objective rate), in millionths.",
                    &[("tenant", &tenant.tenant)],
                )
                .set((tenant.error_budget_burn * 1e6) as i64);
        }
    }

    /// `GET /metrics.prom`: the Prometheus text exposition.
    fn metrics_prom(&self) -> Response {
        self.sample_gauges();
        Response::prometheus(prom::encode(&self.obs.registry.gather()))
    }

    /// `GET /v1/events`: the structured event log as JSON lines, oldest
    /// first, most recent `EVENTS_DEFAULT_LIMIT` records.
    fn events(&self) -> Response {
        Response::ndjson(self.obs.events.to_json_lines(EVENTS_DEFAULT_LIMIT))
    }

    /// `GET /v1/tenants/{tenant}/usage`.
    fn usage(&self, tenant: &str) -> Response {
        match self.ledger.usage(tenant) {
            Some(usage) => Response::json(200, serde_json::to_string(&usage).expect("serializes")),
            None => Response::error(404, &format!("tenant {tenant:?} has no usage")),
        }
    }

    /// `GET /v1/healthz`.
    fn healthz(&self) -> Response {
        let state = self.state.lock().expect("core lock");
        let body = HealthResponse {
            phase: state.phase,
            queued: state.queues.queued(),
            in_flight: state.queues.in_flight(),
        };
        Response::json(200, serde_json::to_string(&body).expect("serializes"))
    }

    /// Graceful drain: stop admitting, let every admitted job finish, then
    /// freeze. Idempotent — concurrent calls all block until the drain
    /// completes and return the same final state.
    fn drain(&self) -> DrainResponse {
        {
            let mut state = self.state.lock().expect("core lock");
            if state.phase == Phase::Accepting {
                state.phase = Phase::Draining;
            }
            // Wake dispatchers blocked on an empty queue so they can exit.
            self.work.notify_all();
            while !state.queues.is_idle() {
                state = self.done.wait(state).expect("core lock");
            }
            state.phase = Phase::Stopped;
        }
        // Queues are idle and intake is off: the runtime drains instantly
        // and refuses any stray batch from here on.
        let runtime = self.runtime.shutdown();
        DrainResponse {
            phase: Phase::Stopped,
            runtime,
            ledger: self.ledger.summary(),
        }
    }

    /// Routes one parsed request. `request_id` is the correlation id
    /// minted for this HTTP exchange.
    fn route(&self, request: &Request, request_id: &str) -> Response {
        let segments = request.segments();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["v1", "healthz"]) => self.healthz(),
            ("GET", ["v1", "metrics"]) => self.metrics(),
            ("GET", ["metrics.prom"]) => self.metrics_prom(),
            ("GET", ["v1", "events"]) => self.events(),
            ("GET", ["v1", "debug", "requests"]) => self.debug_requests(),
            ("GET", ["v1", "debug", "requests", id]) => self.debug_request(id),
            ("GET", ["v1", "device", "health"]) => self.device_health(),
            ("POST", ["v1", "jobs"]) => self.submit(request, request_id),
            ("GET", ["v1", "jobs", id]) => match id.parse() {
                Ok(id) => self.status(id),
                Err(_) => Response::error(400, &format!("bad job id {id:?}")),
            },
            ("GET", ["v1", "jobs", id, "result"]) => match id.parse() {
                Ok(id) => self.result(id),
                Err(_) => Response::error(400, &format!("bad job id {id:?}")),
            },
            ("DELETE", ["v1", "jobs", id]) => match id.parse() {
                Ok(id) => self.cancel(id),
                Err(_) => Response::error(400, &format!("bad job id {id:?}")),
            },
            ("GET", ["v1", "tenants", tenant, "usage"]) => self.usage(tenant),
            ("POST", ["v1", "admin", "drain"]) => {
                let drained = self.drain();
                Response::json(200, serde_json::to_string(&drained).expect("serializes"))
            }
            (_, ["v1", "jobs", ..])
            | (_, ["v1", "healthz"])
            | (_, ["v1", "metrics"])
            | (_, ["v1", "events"])
            | (_, ["v1", "debug", ..])
            | (_, ["v1", "device", "health"])
            | (_, ["metrics.prom"]) => {
                Response::error(405, &format!("{} not allowed here", request.method))
            }
            _ => Response::error(404, &format!("no route for {}", request.path)),
        }
    }

    /// A bounded-cardinality label for the request path: ids and tenant
    /// names collapse to placeholders so the metric family stays small no
    /// matter how many jobs or tenants the server has seen.
    fn route_label(request: &Request) -> &'static str {
        match request.segments().as_slice() {
            ["v1", "healthz"] => "/v1/healthz",
            ["v1", "metrics"] => "/v1/metrics",
            ["v1", "events"] => "/v1/events",
            ["metrics.prom"] => "/metrics.prom",
            ["v1", "jobs"] => "/v1/jobs",
            ["v1", "jobs", _] => "/v1/jobs/{id}",
            ["v1", "jobs", _, "result"] => "/v1/jobs/{id}/result",
            ["v1", "debug", "requests"] => "/v1/debug/requests",
            ["v1", "debug", "requests", _] => "/v1/debug/requests/{id}",
            ["v1", "device", "health"] => "/v1/device/health",
            ["v1", "tenants", _, "usage"] => "/v1/tenants/{tenant}/usage",
            ["v1", "admin", "drain"] => "/v1/admin/drain",
            _ => "other",
        }
    }

    /// One HTTP worker: parse, mint a request id, route, respond, close.
    /// Every response carries the id in an `x-request-id` header; the
    /// same id is on the request's trace span, its HTTP metrics, and —
    /// for submissions — everything downstream of admission.
    fn handle_connection(&self, worker: usize, mut stream: TcpStream) {
        let started_ns = self.host_ns();
        let timeout = Duration::from_millis(self.config.read_timeout_ms);
        let request_id = self.obs.request_ids.mint();
        let response = match read_request(&stream, timeout) {
            Ok(request) => {
                let response = self.route(&request, &request_id);
                let elapsed_ns = self.host_ns() - started_ns;
                let route = Core::route_label(&request);
                let status = response.status.to_string();
                self.obs
                    .registry
                    .counter(
                        "pim_http_requests_total",
                        "HTTP requests served, by normalized route and status code.",
                        &[("route", route), ("status", &status)],
                    )
                    .inc();
                self.obs
                    .registry
                    .histogram(
                        "pim_http_request_latency_ns",
                        "Server-side request latency (parse to response ready), nanoseconds.",
                        &[("route", route)],
                    )
                    .observe(elapsed_ns);
                if self.sink.enabled() {
                    self.sink.record_span(
                        Span::host(
                            format!("{} {}", request.method, request.path),
                            "service",
                            Track::Service(worker as u32),
                            started_ns as f64,
                            elapsed_ns as f64,
                        )
                        .arg("status", response.status as u64)
                        .arg(ATTR_REQUEST_ID, request_id.clone()),
                    );
                }
                response
            }
            Err(ParseError::Incomplete) => return, // client went away
            Err(ParseError::Malformed(reason)) => {
                self.obs.events.emit(
                    Level::Warn,
                    "http",
                    &request_id,
                    &format!("malformed request: {reason}"),
                    &[],
                );
                Response::error(400, &format!("malformed request: {reason}"))
            }
            Err(ParseError::BodyTooLarge(size)) => {
                Response::error(413, &format!("body of {size} bytes exceeds limit"))
            }
        };
        let _ = response
            .header("x-request-id", &request_id)
            .write_to(&mut stream);
    }

    /// The acceptor: hand connections to the worker channel, shedding at
    /// the door with a 429 when the channel is full. `accept` blocks; the
    /// loop ends on the first connection accepted after `stop` is set,
    /// which [`Server::shutdown`] makes itself.
    fn accept_loop(&self, listener: TcpListener, tx: SyncSender<TcpStream>) {
        loop {
            let accepted = listener.accept();
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    if let Err(TrySendError::Full(mut stream)) = tx.try_send(stream) {
                        self.counters
                            .shed_connections
                            .fetch_add(1, Ordering::Relaxed);
                        self.admission_outcome("shed_connection");
                        let backlog = {
                            let state = self.state.lock().expect("core lock");
                            state.queues.queued() + state.queues.in_flight()
                        };
                        // Shed before the request was read: no id minted.
                        let _ = self
                            .reject(
                                Rejection::GlobalOverload {
                                    depth: self.config.connection_backlog,
                                },
                                backlog,
                                "",
                            )
                            .write_to(&mut stream);
                    }
                }
                Err(error) => {
                    if !retry_accept_at_once(error.kind()) {
                        self.obs.events.emit(
                            Level::Warn,
                            "accept",
                            "",
                            &format!("accept failed, retrying: {error}"),
                            &[],
                        );
                        std::thread::sleep(ACCEPT_BACKOFF);
                    }
                }
            }
        }
        // Dropping `tx` closes the channel; workers exit once it drains.
    }
}

/// A running service instance.
///
/// `start` spawns the acceptor, HTTP workers, and dispatchers and returns
/// immediately; [`Server::shutdown`] (or `POST /v1/admin/drain` plus drop)
/// drains gracefully. The in-process handle is what the tests and the
/// smoke binary drive; `pim_serve` (the binary) wraps it behind a real
/// port for external clients.
#[derive(Debug)]
pub struct Server {
    core: Arc<Core>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the service with tracing disabled.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        Server::start_with_sink(config, Arc::new(NullSink))
    }

    /// Binds and starts the service, recording per-request host spans on
    /// [`Track::Service`] lanes into `sink`.
    pub fn start_with_sink(config: ServeConfig, sink: Arc<dyn TraceSink>) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let backlog = config.connection_backlog.max(1);
        let http_workers = config.http_workers.max(1);
        let plan = config.plan();
        let core = Arc::new(Core::new(config, sink));

        let (tx, rx) = mpsc::sync_channel::<TcpStream>(backlog);
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::new();

        {
            let core = Arc::clone(&core);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".to_string())
                    .spawn(move || core.accept_loop(listener, tx))?,
            );
        }
        for worker in 0..http_workers {
            let core = Arc::clone(&core);
            let rx = Arc::clone(&rx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-http-{worker}"))
                    .spawn(move || loop {
                        let next = rx.lock().expect("connection channel").recv();
                        match next {
                            Ok(stream) => core.handle_connection(worker, stream),
                            Err(_) => break, // acceptor gone, channel drained
                        }
                    })?,
            );
        }
        for dispatcher in 0..plan.dispatch_workers {
            let core = Arc::clone(&core);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-dispatch-{dispatcher}"))
                    .spawn(move || core.dispatch_loop())?,
            );
        }

        Ok(Server {
            core,
            addr,
            threads,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The thread budget in force.
    pub fn plan(&self) -> ThreadPlan {
        self.core.config.plan()
    }

    /// Drains in place (same as `POST /v1/admin/drain`) without stopping
    /// the HTTP front-end: admitted jobs finish, later submissions get 503,
    /// queries keep working.
    pub fn drain(&self) -> DrainResponse {
        self.core.drain()
    }

    /// Runs the ledger's conservation check against the runtime's current
    /// snapshot (see `Ledger::check_conservation`).
    pub fn check_conservation(&self) -> Result<(), String> {
        self.core
            .ledger
            .check_conservation(&self.core.runtime.metrics())
    }

    /// Graceful full stop: drain, stop the acceptor, join every thread.
    /// Returns the final drained state.
    pub fn shutdown(mut self) -> DrainResponse {
        let drained = self.core.drain();
        self.core.stop.store(true, Ordering::Release);
        // Wake the acceptor out of its blocking `accept`: it checks `stop`
        // after every connection, this one included.
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        drained
    }
}

/// A blocking JSON call against a running server — thin sugar over
/// [`client_request`] shared by the smoke binary, the load generator, and
/// the tests.
pub fn call(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, HashMap<String, String>, String)> {
    client_request(&addr.to_string(), method, path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_baselines::PlatformKind;
    use pim_workloads::WorkloadSpec;

    fn tiny_submit(tenant: &str) -> String {
        let request = SubmitRequest {
            tenant: tenant.to_string(),
            job: Job::new(
                WorkloadSpec::MatMul { m: 6, k: 6, n: 6 },
                PlatformKind::StPim,
            ),
        };
        serde_json::to_string(&request).unwrap()
    }

    fn poll_terminal(addr: &SocketAddr, id: u64) -> StatusResponse {
        for _ in 0..2_000 {
            let (status, _, body) = call(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
            assert_eq!(status, 200, "{body}");
            let parsed: StatusResponse = serde_json::from_str(&body).unwrap();
            if parsed.state.is_terminal() {
                return parsed;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never reached a terminal state");
    }

    #[test]
    fn submit_poll_result_round_trip() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let addr = server.addr();

        let (status, _, body) =
            call(&addr, "POST", "/v1/jobs", Some(&tiny_submit("alice"))).unwrap();
        assert_eq!(status, 202, "{body}");
        let submitted: SubmitResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(submitted.state, JobState::Queued);
        assert_eq!(submitted.meter.tier.name, "probe");
        assert!(submitted.meter.estimated_microcredits > 0);

        let terminal = poll_terminal(&addr, submitted.id);
        assert_eq!(terminal.state, JobState::Completed);
        assert!(terminal.started_ns.is_some() && terminal.finished_ns.is_some());

        let (status, _, body) = call(
            &addr,
            "GET",
            &format!("/v1/jobs/{}/result", submitted.id),
            None,
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        let result: ResultResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(result.state, JobState::Completed);
        let report = result.report.expect("completed job has a report");
        assert!(report.total_ns() > 0.0);
        let meter = result.meter.expect("settled meter");
        assert!(meter.billed_microcredits > 0);

        let (status, _, body) = call(&addr, "GET", "/v1/tenants/alice/usage", None).unwrap();
        assert_eq!(status, 200, "{body}");

        server.check_conservation().unwrap();
        let drained = server.shutdown();
        assert_eq!(drained.phase, Phase::Stopped);
        assert_eq!(drained.runtime.jobs_completed, 1);
    }

    #[test]
    fn cluster_jobs_submit_meter_and_complete() {
        use pim_runtime::ClusterSpec;
        let server = Server::start(ServeConfig::default()).unwrap();
        let addr = server.addr();

        let spec = WorkloadSpec::MatMul {
            m: 256,
            k: 128,
            n: 128,
        };
        let plain = SubmitRequest {
            tenant: "alice".into(),
            job: Job::new(spec, PlatformKind::StPim),
        };
        let clustered = SubmitRequest {
            tenant: "alice".into(),
            job: Job::new(spec, PlatformKind::StPim)
                .with_cluster(ClusterSpec::data(4).with_batch(32)),
        };
        let mut ids = Vec::new();
        for request in [&plain, &clustered] {
            let body = serde_json::to_string(request).unwrap();
            let (status, _, body) = call(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
            assert_eq!(status, 202, "{body}");
            let submitted: SubmitResponse = serde_json::from_str(&body).unwrap();
            ids.push((submitted.id, submitted.meter));
        }
        // The batch-aware estimate prices the 32-item cluster job higher
        // than the identical single-item job.
        assert!(
            ids[1].1.estimated_microcredits > ids[0].1.estimated_microcredits,
            "cluster estimate scales with batch: {:?} vs {:?}",
            ids[0].1,
            ids[1].1
        );
        for (id, _) in &ids {
            assert_eq!(poll_terminal(&addr, *id).state, JobState::Completed);
        }
        let (status, _, body) =
            call(&addr, "GET", &format!("/v1/jobs/{}/result", ids[1].0), None).unwrap();
        assert_eq!(status, 200, "{body}");
        let result: ResultResponse = serde_json::from_str(&body).unwrap();
        let cluster_report = result.report.expect("cluster job has a report");
        assert!(cluster_report.total_ns() > 0.0);
        // The ledger reconciles cluster consumption exactly like any other
        // job — the conservation invariant holds with cluster jobs in the
        // mix.
        server.check_conservation().unwrap();
        // The per-device utilization gauges picked up the cluster lanes.
        let (status, _, prom) = call(&addr, "GET", "/metrics.prom", None).unwrap();
        assert_eq!(status, 200);
        for device in 0..4 {
            assert!(
                prom.contains(&format!(
                    "pim_cluster_device_busy_ns{{device=\"{device}\"}}"
                )),
                "device {device} gauge missing from exposition"
            );
        }
        assert!(prom.contains("pim_cluster_link_energy_pj"));
        server.shutdown();
    }

    #[test]
    fn bad_cluster_specs_are_rejected_at_the_edge() {
        use pim_runtime::ClusterSpec;
        let server = Server::start(ServeConfig::default()).unwrap();
        let addr = server.addr();
        for bad in [
            ClusterSpec::data(0),
            ClusterSpec::data(65),
            ClusterSpec::data(2).with_batch(0),
        ] {
            let request = SubmitRequest {
                tenant: "alice".into(),
                job: Job::new(
                    WorkloadSpec::MatMul { m: 6, k: 6, n: 6 },
                    PlatformKind::StPim,
                )
                .with_cluster(bad),
            };
            let body = serde_json::to_string(&request).unwrap();
            let (status, _, body) = call(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("bad cluster spec"), "{body}");
        }
        // Nothing was admitted or metered.
        let (_, _, body) = call(&addr, "GET", "/v1/healthz", None).unwrap();
        let health: HealthResponse = serde_json::from_str(&body).unwrap();
        assert_eq!((health.queued, health.in_flight), (0, 0));
        server.shutdown();
    }

    #[test]
    fn not_found_and_method_errors() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let addr = server.addr();
        let (status, _, _) = call(&addr, "GET", "/v1/jobs/999", None).unwrap();
        assert_eq!(status, 404);
        let (status, _, _) = call(&addr, "PUT", "/v1/jobs", Some("{}")).unwrap();
        assert_eq!(status, 405);
        let (status, _, _) = call(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, _, body) = call(&addr, "POST", "/v1/jobs", Some("not json")).unwrap();
        assert_eq!(status, 400, "{body}");
        server.shutdown();
    }

    #[test]
    fn draining_refuses_submissions_with_503() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let addr = server.addr();
        let drained = server.drain();
        assert_eq!(drained.phase, Phase::Stopped);
        let (status, headers, body) =
            call(&addr, "POST", "/v1/jobs", Some(&tiny_submit("alice"))).unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(headers.contains_key("retry-after"));
        let error: ErrorResponse = serde_json::from_str(&body).unwrap();
        assert!(error.error.contains("draining"));
        // Queries still work after drain.
        let (status, _, _) = call(&addr, "GET", "/v1/healthz", None).unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn cancel_refunds_queued_jobs() {
        // Dispatch paused: submitted jobs stay queued, so cancellation is
        // deterministic (no race against a fast dispatcher).
        let config = ServeConfig {
            dispatch_workers: 0,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let addr = server.addr();
        let (status, _, body) =
            call(&addr, "POST", "/v1/jobs", Some(&tiny_submit("alice"))).unwrap();
        assert_eq!(status, 202, "{body}");
        let first: SubmitResponse = serde_json::from_str(&body).unwrap();
        let (status, _, body) =
            call(&addr, "POST", "/v1/jobs", Some(&tiny_submit("alice"))).unwrap();
        assert_eq!(status, 202, "{body}");
        let second: SubmitResponse = serde_json::from_str(&body).unwrap();

        let (status, _, body) =
            call(&addr, "DELETE", &format!("/v1/jobs/{}", second.id), None).unwrap();
        assert_eq!(status, 200, "{body}");
        let cancelled: StatusResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(cancelled.state, JobState::Cancelled);
        // Cancelling again conflicts.
        let (status, _, _) =
            call(&addr, "DELETE", &format!("/v1/jobs/{}", second.id), None).unwrap();
        assert_eq!(status, 409);
        // The estimate was refunded; only the first job's charge remains.
        let (status, _, body) = call(&addr, "GET", "/v1/tenants/alice/usage", None).unwrap();
        assert_eq!(status, 200, "{body}");
        let usage: crate::meter::TenantUsage = serde_json::from_str(&body).unwrap();
        assert_eq!(usage.jobs_cancelled, 1);
        assert_eq!(
            usage.estimated_microcredits,
            first.meter.estimated_microcredits
        );

        // Cancel the first too so the queues are idle and drain completes.
        let (status, _, _) =
            call(&addr, "DELETE", &format!("/v1/jobs/{}", first.id), None).unwrap();
        assert_eq!(status, 200);
        server.check_conservation().unwrap();
        let drained = server.shutdown();
        assert_eq!(drained.ledger.global.jobs_cancelled, 2);
        assert_eq!(drained.ledger.global.jobs_settled, 0);
        assert_eq!(
            drained.ledger.global.estimated_microcredits, 0,
            "all refunded"
        );
    }

    #[test]
    fn observability_endpoints_serve_prom_and_events() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let addr = server.addr();

        let (status, headers, body) =
            call(&addr, "POST", "/v1/jobs", Some(&tiny_submit("alice"))).unwrap();
        assert_eq!(status, 202, "{body}");
        let submitted: SubmitResponse = serde_json::from_str(&body).unwrap();
        assert!(submitted.request_id.starts_with("req-"));
        assert_eq!(
            headers.get("x-request-id").map(String::as_str),
            Some(submitted.request_id.as_str()),
            "header and body agree on the request id"
        );
        assert_eq!(submitted.meter.request_id, submitted.request_id);
        poll_terminal(&addr, submitted.id);

        // The Prometheus exposition parses strictly and carries the
        // families the scrape is expected to expose.
        let (status, headers, body) = call(&addr, "GET", "/metrics.prom", None).unwrap();
        assert_eq!(status, 200);
        assert!(
            headers
                .get("content-type")
                .is_some_and(|t| t.starts_with("text/plain; version=0.0.4")),
            "prometheus content type"
        );
        let stats = pim_obs::prom::validate_exposition(&body).expect("valid exposition");
        assert!(
            stats.families >= 5,
            "got {} families:\n{body}",
            stats.families
        );
        for family in [
            "pim_http_requests_total",
            "pim_http_request_latency_ns",
            "pim_serve_admission_total",
            "pim_serve_queue_depth",
            "pim_runtime_cache_near_hits",
            "pim_runtime_cache_repriced_rows",
            "pim_trace_dropped_records",
            "pim_trace_collector_capacity",
            "pim_slo_attainment_millionths",
        ] {
            assert!(body.contains(family), "missing {family} in:\n{body}");
        }

        // The event log serves JSON lines, each a parseable record, and
        // the submission left correlated admission + dispatch events.
        let (status, headers, body) = call(&addr, "GET", "/v1/events", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            headers.get("content-type").map(String::as_str),
            Some("application/x-ndjson")
        );
        let records: Vec<pim_obs::EventRecord> = body
            .lines()
            .map(|line| serde_json::from_str(line).expect("event line parses"))
            .collect();
        assert!(
            records
                .iter()
                .any(|r| r.message == "job admitted" && r.request_id == submitted.request_id),
            "admission event correlated: {body}"
        );
        assert!(
            records
                .iter()
                .any(|r| r.scope == "dispatch" && r.request_id == submitted.request_id),
            "dispatch event correlated: {body}"
        );

        server.shutdown();
    }

    /// Shuts `server` down on another thread and asserts it finished
    /// within a second. `shutdown` joins every thread before it returns,
    /// and the acceptor owns the listener, so rebinding the port afterwards
    /// proves the acceptor is gone.
    fn assert_prompt_shutdown(server: Server) {
        let addr = server.addr();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(1))
            .expect("shutdown returned within 1 s");
        TcpListener::bind(addr).expect("listener released by the joined acceptor");
    }

    #[test]
    fn shutdown_of_an_untouched_server_is_prompt() {
        assert_prompt_shutdown(Server::start(ServeConfig::default()).unwrap());
    }

    #[test]
    fn shutdown_of_a_wildcard_bind_is_prompt() {
        let server = Server::start(ServeConfig {
            addr: "0.0.0.0:0".to_string(),
            ..ServeConfig::default()
        })
        .unwrap();
        assert!(server.addr().ip().is_unspecified());
        let (status, _, body) =
            call(&wake_addr(server.addr()), "GET", "/v1/healthz", None).unwrap();
        assert_eq!(status, 200, "{body}");
        assert_prompt_shutdown(server);
    }

    #[test]
    fn wake_addr_maps_wildcards_to_loopback() {
        let v4: SocketAddr = "0.0.0.0:8080".parse().unwrap();
        let v6: SocketAddr = "[::]:8080".parse().unwrap();
        let bound: SocketAddr = "10.1.2.3:8080".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:8080".parse().unwrap());
        assert_eq!(wake_addr(v6), "[::1]:8080".parse().unwrap());
        assert_eq!(wake_addr(bound), bound);
    }

    #[test]
    fn accept_errors_back_off_unless_transient() {
        use io::ErrorKind::*;
        assert!(retry_accept_at_once(Interrupted));
        assert!(retry_accept_at_once(ConnectionAborted));
        assert!(!retry_accept_at_once(Other));
        // ENFILE, EMFILE, ENOMEM and ENOBUFS: resource exhaustion backs off.
        #[cfg(target_os = "linux")]
        for errno in [23, 24, 12, 105] {
            let kind = io::Error::from_raw_os_error(errno).kind();
            assert!(!retry_accept_at_once(kind), "{errno}");
        }
    }

    #[test]
    fn thread_plan_never_oversubscribes() {
        let config = ServeConfig::default();
        let plan = config.plan();
        let compute = plan.machine.saturating_sub(plan.http_workers).max(1);
        assert!(plan.dispatch_workers * plan.intra_per_job <= compute.max(plan.dispatch_workers));
        let runtime_config = config.runtime_config();
        assert_eq!(runtime_config.workers, 1, "dispatchers submit single jobs");
    }
}
