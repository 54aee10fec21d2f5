//! The traced replay: walks jobs through the public calls of each layer one
//! at a time, the way `Runtime::run_batch` does on one worker, with one span
//! per call.

use crate::report::Outcome;
use crate::trace::{self, Tracer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use streampim::pim_baselines::{Platform, PlatformKind, Workload};
use streampim::pim_cluster::{Cluster, ClusterConfig, ClusterTopology, InterconnectParams};
use streampim::pim_device::schedule::Schedule;
use streampim::pim_device::{ExecReport, Parallelism, PimError, PriceTable, StreamPim};
use streampim::pim_runtime::{BatchResult, Job, JobOutcome, ScheduleCache};

/// Whether a job runs on a StreamPIM-family device.
pub fn streampim_family(job: &Job) -> bool {
    matches!(job.platform, PlatformKind::StPim | PlatformKind::StPimE)
}

/// Mirrors the runtime's platform pool, schedule cache keyed by
/// `ScheduleCache::key` and per-shape `PriceTable`s keyed by
/// `ScheduleCache::shape_key`. Its reports must equal the runtime's.
#[derive(Default)]
struct State {
    platforms: HashMap<String, Arc<Platform>>,
    schedules: HashMap<u64, Arc<Schedule>>,
    tables: HashMap<u64, PriceTable>,
    vpcs: u64,
    interconnect_ns: f64,
}

/// One traced replay of a job list.
pub struct Replay {
    pub reports: Vec<Result<ExecReport, String>>,
    pub seconds: f64,
    pub tracer: Tracer,
    vpcs: u64,
    interconnect_ns: f64,
}

impl Replay {
    /// Replays `jobs` in order on one thread, with span times relative to
    /// `origin`; job ids are list indices.
    pub fn run(jobs: &[Job], origin: Instant) -> Replay {
        let start = Instant::now();
        let mut tracer = Tracer::new(origin);
        let mut state = State::default();
        let reports = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                tracer
                    .span("runtime.job", i as u64, |t| state.job(t, i as u64, job))
                    .map_err(|e| e.to_string())
            })
            .collect();
        Replay {
            reports,
            seconds: start.elapsed().as_secs_f64(),
            tracer,
            vpcs: state.vpcs,
            interconnect_ns: state.interconnect_ns,
        }
    }

    /// The replayed reports in the shape of `like` (same indices and names).
    pub fn result(&self, like: &BatchResult) -> BatchResult {
        BatchResult {
            outcomes: like
                .outcomes
                .iter()
                .zip(&self.reports)
                .map(|(o, report)| JobOutcome {
                    report: report.clone(),
                    ..o.clone()
                })
                .collect(),
        }
    }

    /// Sets the per-layer metrics from the spans' self times and prints a
    /// line per span name.
    pub fn layer_metrics(&self, name: &str, outcome: &mut Outcome) {
        let by = trace::by_name(self.tracer.spans());
        let self_ms = |n: &str| by.get(n).map_or(0.0, |e| e.2 as f64 / 1e6);
        let m = &mut outcome.metrics;
        m.set("workloads.materialize_ms", self_ms("workloads.materialize"));
        m.set("device.lower_ms", self_ms("device.lower"));
        m.set("device.price_ms", self_ms("device.price"));
        m.set("device.vpcs", self.vpcs as f64);
        m.set(
            "device.price_ns_per_vpc",
            self_ms("device.price") * 1e6 / self.vpcs.max(1) as f64,
        );
        m.set("baselines.host_ms", self_ms("baselines.host"));
        m.set("baselines.pim_ms", self_ms("baselines.pim"));
        m.set("cluster.run_ms", self_ms("cluster.run"));
        m.set("cluster.interconnect_ns", self.interconnect_ns);
        for (span, (calls, total, own)) in &by {
            outcome.note(format!(
                "{name}: span {span}: {calls} calls, {:.3} ms total, {:.3} ms self",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            ));
        }
    }
}

impl State {
    fn job(&mut self, t: &mut Tracer, id: u64, job: &Job) -> Result<ExecReport, PimError> {
        if let Some(spec) = job.cluster.filter(|s| s.devices != 1 || s.batch != 1) {
            let device = job
                .effective_config()
                .expect("cluster jobs are StreamPIM-family");
            let cluster = Cluster::new(ClusterConfig {
                device,
                topology: ClusterTopology::for_devices(spec.devices),
                interconnect: InterconnectParams::paper_default(),
            })?
            .with_parallelism(Parallelism::Serial);
            let report = t.span("cluster.run", id, |_| {
                cluster.run(&job.workload, spec.strategy, spec.batch)
            })?;
            self.interconnect_ns += report.interconnect.total_ns();
            return Ok(report.combined);
        }
        let key = format!("{:?}|{:?}|{:?}", job.platform, job.config, job.opt);
        let platform = match self.platforms.get(&key) {
            Some(p) => Arc::clone(p),
            None => {
                let p = Arc::new(job.build_platform()?.with_parallelism(Parallelism::Serial));
                self.platforms.insert(key, Arc::clone(&p));
                p
            }
        };
        let Some(cfg) = platform.lowering_config() else {
            let workload = t.span("workloads.materialize", id, |_| {
                Workload::from_spec(&job.workload)
            });
            return t.span("baselines.host", id, |_| platform.run(&workload));
        };
        let key = ScheduleCache::key(&cfg, &job.workload);
        let schedule = match self.schedules.get(&key) {
            Some(s) => Arc::clone(s),
            None => {
                let task = t.span("workloads.materialize", id, |_| job.workload.shape_task());
                let device = StreamPim::new(cfg.clone())?;
                let s = Arc::new(t.span("device.lower", id, |_| task.lower(&device))?);
                self.schedules.insert(key, Arc::clone(&s));
                s
            }
        };
        // The runtime takes the shape's table out for every probed job and
        // returns it only after a repriced (StreamPIM-family) run.
        let shape_key = ScheduleCache::shape_key(&cfg, &job.workload);
        let mut table = self.tables.remove(&shape_key).unwrap_or_default();
        if streampim_family(job) {
            let (report, _) = t
                .span("device.price", id, |_| {
                    platform.run_schedule_repriced(&schedule, &mut table)
                })
                .expect("StreamPIM platforms reprice");
            self.tables.insert(shape_key, table);
            self.vpcs += report.vpc.total();
            return Ok(report);
        }
        let workload = t.span("workloads.materialize", id, |_| {
            Workload::from_spec(&job.workload)
        });
        t.span("baselines.pim", id, |_| {
            platform.run_with_schedule(&workload, Some(&schedule))
        })
    }
}
