//! `serve_closed`: a closed loop of `nproc` HTTP clients against an
//! in-process `pim_serve::Server` on loopback. Each client submits a job,
//! polls it every millisecond until it is terminal, fetches the result and
//! submits the next; client 0 also scrapes `/metrics.prom` at a fixed
//! period between its jobs.

use crate::checks;
use crate::gen::{self, TENANTS};
use crate::replay::Replay;
use crate::report::Outcome;
use crate::stats::{self, summarize};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use streampim::pim_runtime::{Job, Runtime, RuntimeConfig};
use streampim::pim_serve::api::{MetricsResponse, StatusResponse, SubmitRequest, SubmitResponse};
use streampim::pim_serve::{call, JobState, ServeConfig, Server};

/// Client poll interval, as `examples/loadgen.rs` polls.
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Period of the `/metrics.prom` scrape.
const SCRAPE_PERIOD: Duration = Duration::from_millis(200);
/// The server keeps every job's record, so its memory grows with the jobs
/// served: `peak_rss_mb` is read when this stream index completes, a fixed
/// amount of work whatever the throughput.
const RSS_PROBE_INDEX: u64 = 999;
/// Stream prefix the traced run replays layer by layer.
const REPLAY_JOBS: u64 = 1000;
/// Server boots timed for `setup_s`.
const SETUP_BOOTS: usize = 21;

/// The service as deployed, with the mix's tenant weights.
fn config() -> ServeConfig {
    ServeConfig {
        tenant_weights: TENANTS.iter().map(|(t, w)| (t.to_string(), *w)).collect(),
        ..ServeConfig::default()
    }
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One submission as its client saw it.
#[derive(Debug, Default)]
struct Served {
    index: u64,
    rejected: bool,
    completed: bool,
    /// Submit sent to terminal status seen.
    e2e_ns: u64,
    submit_ns: u64,
    poll_ns: Vec<u64>,
    result_ns: u64,
    status: Option<StatusResponse>,
    report: Option<String>,
}

#[derive(Debug, Default)]
struct ClientLog {
    served: Vec<Served>,
    /// (status 200, round trip ns) per scrape.
    scrapes: Vec<(bool, u64)>,
    /// Peak resident set when [`RSS_PROBE_INDEX`] completed, MiB.
    rss_probe: Option<f64>,
}

/// One closed-loop phase on a fresh server.
struct LoopRun {
    served: Vec<Served>,
    /// Peak resident set after [`RSS_PROBE_INDEX`] (or the whole loop, if
    /// it ended sooner), MiB.
    peak_rss_mb: f64,
    scrapes: Vec<(bool, u64)>,
    elapsed: Duration,
    metrics: Option<MetricsResponse>,
    conservation: Result<(), String>,
    tracer: Option<Tracer>,
}

impl LoopRun {
    fn completed(&self) -> usize {
        self.served.iter().filter(|s| s.completed).count()
    }

    /// Wall time per completed job.
    fn ms_per_job(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3 / self.completed().max(1) as f64
    }

    fn e2e_ms(&self) -> Vec<f64> {
        self.served
            .iter()
            .filter(|s| s.completed)
            .map(|s| ms(s.e2e_ns))
            .collect()
    }
}

fn run_job(addr: &SocketAddr, index: u64, submit: &str, tracer: Option<&mut Tracer>) -> Served {
    let mut served = Served {
        index,
        ..Served::default()
    };
    let mut spans = Vec::new();
    let t0 = Instant::now();
    let reply = call(addr, "POST", "/v1/jobs", Some(submit));
    let t1 = Instant::now();
    served.submit_ns = ns(t0, t1);
    spans.push(("serve.submit", t0, t1));
    let id = match reply {
        Ok((202, _, body)) => serde_json::from_str::<SubmitResponse>(&body)
            .ok()
            .map(|r| r.id),
        Ok(_) => {
            served.rejected = true;
            None
        }
        Err(_) => None,
    };
    let mut end = t1;
    if let Some(id) = id {
        let path = format!("/v1/jobs/{id}");
        let terminal = loop {
            let p0 = Instant::now();
            let reply = call(addr, "GET", &path, None);
            let p1 = Instant::now();
            served.poll_ns.push(ns(p0, p1));
            spans.push(("serve.poll", p0, p1));
            end = p1;
            let status = match reply {
                Ok((200, _, body)) => serde_json::from_str::<StatusResponse>(&body).ok(),
                _ => None,
            };
            match status {
                Some(s) if s.state.is_terminal() => break Some(s),
                Some(_) => std::thread::sleep(POLL_INTERVAL),
                None => break None,
            }
        };
        if let Some(status) = terminal {
            served.e2e_ns = ns(t0, end);
            let ok = status.state == JobState::Completed;
            served.status = Some(status);
            let r0 = Instant::now();
            let reply = call(addr, "GET", &format!("{path}/result"), None);
            let r1 = Instant::now();
            served.result_ns = ns(r0, r1);
            spans.push(("serve.result", r0, r1));
            end = r1;
            if let Ok((200, _, body)) = reply {
                served.report = checks::raw_report(&body).map(str::to_string);
            }
            served.completed = ok && served.report.is_some();
        }
    }
    if let Some(tracer) = tracer {
        let job = tracer.push("serve.job", index, None, t0, end);
        for (name, start, stop) in spans {
            tracer.push(name, index, Some(job), start, stop);
        }
    }
    served
}

fn client(
    addr: SocketAddr,
    seed: u64,
    next: &AtomicU64,
    deadline: Instant,
    scrapes: bool,
    mut tracer: Option<&mut Tracer>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut next_scrape = Instant::now();
    while Instant::now() < deadline {
        if scrapes && Instant::now() >= next_scrape {
            let t0 = Instant::now();
            let ok = matches!(call(&addr, "GET", "/metrics.prom", None), Ok((200, _, _)));
            log.scrapes.push((ok, t0.elapsed().as_nanos() as u64));
            next_scrape += SCRAPE_PERIOD;
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        let job = gen::serve_job(seed, index);
        let body = serde_json::to_string(&SubmitRequest {
            tenant: job.tenant.clone(),
            job,
        })
        .expect("submit request serializes");
        log.served
            .push(run_job(&addr, index, &body, tracer.as_deref_mut()));
        if index == RSS_PROBE_INDEX {
            log.rss_probe = Some(stats::peak_rss_mb());
        }
    }
    log
}

fn closed_loop(seed: u64, seconds: f64, clients: usize, traced: bool) -> std::io::Result<LoopRun> {
    let server = Server::start(config())?;
    let addr = server.addr();
    let next = AtomicU64::new(0);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut tracers: Vec<Tracer> = (0..clients).map(|_| Tracer::new(origin)).collect();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(c, tracer)| {
                let next = &next;
                scope.spawn(move || {
                    client(addr, seed, next, deadline, c == 0, traced.then_some(tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = origin.elapsed();
    let metrics = match call(&addr, "GET", "/v1/metrics", None) {
        Ok((200, _, body)) => serde_json::from_str::<MetricsResponse>(&body).ok(),
        _ => None,
    };
    let conservation = server.check_conservation();
    server.shutdown();
    let tracer = traced.then(|| {
        let mut merged = Tracer::new(origin);
        for t in tracers {
            merged.absorb(t);
        }
        merged
    });
    let (mut served, mut scrapes, mut rss_probe) = (Vec::new(), Vec::new(), None);
    for log in logs {
        served.extend(log.served);
        scrapes.extend(log.scrapes);
        rss_probe = rss_probe.or(log.rss_probe);
    }
    served.sort_by_key(|s| s.index);
    Ok(LoopRun {
        served,
        peak_rss_mb: rss_probe.unwrap_or_else(stats::peak_rss_mb),
        scrapes,
        elapsed,
        metrics,
        conservation,
        tracer,
    })
}

/// Counts every submission, scrape and conservation check of `run`, with
/// each fetched report checked against a direct run of the same job.
fn account(run: &LoopRun, seed: u64, direct: &HashMap<String, String>, outcome: &mut Outcome) {
    let keyed: Vec<(String, &str)> = run
        .served
        .iter()
        .filter_map(|s| {
            let raw = s.report.as_deref()?;
            Some((checks::job_key(&gen::serve_job(seed, s.index)), raw))
        })
        .collect();
    let verdicts = checks::served_reports_match(&keyed, direct);
    let mismatched = verdicts.iter().filter(|ok| !**ok).count();
    for s in &run.served {
        outcome.count(s.completed);
    }
    // A completed job whose report differs from the direct run failed.
    outcome.failed += mismatched as u64;
    for (ok, _) in &run.scrapes {
        outcome.count(*ok);
    }
    outcome.count(run.conservation.is_ok() && run.metrics.is_some());
    if mismatched > 0 {
        outcome.note(format!(
            "serve: {mismatched} served reports differ from direct runs"
        ));
    }
    if let Err(e) = &run.conservation {
        outcome.note(format!("serve: metering conservation failed: {e}"));
    }
}

/// Direct `Runtime::run_batch` reports of every distinct job the runs
/// fetched, keyed by [`checks::job_key`].
fn direct_reports(runs: &[&LoopRun], seed: u64, workers: usize) -> HashMap<String, String> {
    let mut jobs: Vec<Job> = Vec::new();
    let mut keys: HashMap<String, usize> = HashMap::new();
    for run in runs {
        for s in run.served.iter().filter(|s| s.report.is_some()) {
            let job = gen::serve_job(seed, s.index);
            keys.entry(checks::job_key(&job)).or_insert_with(|| {
                jobs.push(job);
                jobs.len() - 1
            });
        }
    }
    let batch = Runtime::new(RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    })
    .run_batch(&jobs);
    keys.into_iter()
        .filter_map(|(key, i)| {
            let report = batch.outcomes[i].report.as_ref().ok()?;
            Some((key, checks::report_json(report)))
        })
        .collect()
}

fn end_to_end(run: &LoopRun, outcome: &mut Outcome) {
    let e2e = summarize(&run.e2e_ms());
    outcome.metrics.set(
        "jobs_per_s",
        run.completed() as f64 / run.elapsed.as_secs_f64(),
    );
    outcome
        .metrics
        .set("latency_p50_ms", e2e.map_or(0.0, |s| s.p50));
    if let Some(s) = e2e {
        outcome.note(format!(
            "serve: job latency p50 {:.4} ms, p99 {} over {} jobs",
            s.p50,
            s.p99.map_or(
                "n/a (fewer than 10 samples beyond it)".to_string(),
                |v| format!("{v:.4} ms")
            ),
            s.count
        ));
    }
}

pub fn run(seed: u64, seconds: f64, clients: usize, traced: bool) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();
    if !traced {
        // A boot ends when the server answers its first request.
        let mut boots = Vec::new();
        for _ in 0..SETUP_BOOTS {
            let t0 = Instant::now();
            let server = Server::start(config())?;
            let ready = matches!(
                call(&server.addr(), "GET", "/v1/healthz", None),
                Ok((200, _, _))
            );
            boots.push(t0.elapsed().as_secs_f64());
            outcome.count(ready);
            server.shutdown();
        }
        outcome.metrics.set("setup_s", stats::median(&boots));
        let run = closed_loop(seed, seconds, clients, false)?;
        outcome.metrics.set("peak_rss_mb", run.peak_rss_mb);
        let direct = direct_reports(&[&run], seed, clients);
        account(&run, seed, &direct, &mut outcome);
        end_to_end(&run, &mut outcome);
        return Ok(outcome);
    }

    // Untraced and traced halves on fresh servers with the same stream.
    let base = closed_loop(seed, seconds / 2.0, clients, false)?;
    let run = closed_loop(seed, seconds / 2.0, clients, true)?;
    let direct = direct_reports(&[&base, &run], seed, clients);
    account(&base, seed, &direct, &mut outcome);
    account(&run, seed, &direct, &mut outcome);
    let m = &mut outcome.metrics;
    let p50 = |v: Vec<f64>| summarize(&v).map_or(0.0, |s| s.p50);
    let statuses: Vec<&StatusResponse> = run
        .served
        .iter()
        .filter_map(|s| s.status.as_ref())
        .collect();
    let submit = summarize(
        &run.served
            .iter()
            .map(|s| ms(s.submit_ns))
            .collect::<Vec<_>>(),
    );
    m.set("serve.submit_rtt_ms.p50", submit.map_or(0.0, |s| s.p50));
    m.set(
        "serve.submit_rtt_ms.p99",
        submit.and_then(|s| s.p99).unwrap_or(0.0),
    );
    m.set(
        "serve.poll_rtt_ms.p50",
        p50(run
            .served
            .iter()
            .flat_map(|s| s.poll_ns.iter().map(|&n| ms(n)))
            .collect()),
    );
    let polled: Vec<&Served> = run.served.iter().filter(|s| s.status.is_some()).collect();
    m.set(
        "serve.polls_per_job",
        polled.iter().map(|s| s.poll_ns.len()).sum::<usize>() as f64 / polled.len().max(1) as f64,
    );
    m.set(
        "serve.result_rtt_ms.p50",
        p50(polled.iter().map(|s| ms(s.result_ns)).collect()),
    );
    m.set(
        "serve.queue_wait_ms.p50",
        p50(statuses
            .iter()
            .filter_map(|s| Some(ms(s.started_ns?.saturating_sub(s.submitted_ns))))
            .collect()),
    );
    m.set(
        "runtime.service_ms.p50",
        p50(statuses
            .iter()
            .filter_map(|s| Some(ms(s.finished_ns?.saturating_sub(s.started_ns?))))
            .collect()),
    );
    m.set(
        "serve.edge_ms.p50",
        p50(polled
            .iter()
            .filter_map(|s| {
                let status = s.status.as_ref()?;
                let inside = status.finished_ns?.saturating_sub(status.submitted_ns);
                Some(ms(s.e2e_ns.saturating_sub(inside)))
            })
            .collect()),
    );
    m.set(
        "serve.rejected",
        run.served.iter().filter(|s| s.rejected).count() as f64,
    );
    m.set(
        "obs.scrape_ms.p50",
        p50(run.scrapes.iter().map(|&(_, n)| ms(n)).collect()),
    );
    let near = |r: &LoopRun| r.metrics.as_ref().map_or(0, |x| x.runtime.cache_near_hits);
    if let Some(metrics) = &run.metrics {
        let rt = &metrics.runtime;
        let probed = (rt.cache_hits + rt.cache_misses).max(1) as f64;
        m.set("runtime.cache_hit_ratio", rt.cache_hits as f64 / probed);
        m.set("runtime.near_hit_ratio", rt.cache_near_hits as f64 / probed);
        m.set("runtime.near_hits", rt.cache_near_hits as f64);
        m.set("runtime.repriced_rows", rt.cache_repriced_rows as f64);
        m.set("flight.observed", metrics.flight.observed as f64);
        m.set("flight.retained", metrics.flight.retained as f64);
    }
    m.set(
        "runtime.near_hits_spread",
        near(&base).abs_diff(near(&run)) as f64,
    );
    let e2e = summarize(&base.e2e_ms());
    m.set("latency_p99_ms", e2e.and_then(|s| s.p99).unwrap_or(0.0));
    m.set("latency_samples", e2e.map_or(0.0, |s| s.count as f64));
    let overhead = run.ms_per_job() - base.ms_per_job();
    m.set("trace.overhead_ms", overhead);
    m.set("trace.overhead_pct", 100.0 * overhead / base.ms_per_job());

    // The runtime's layers under the serving mix: the stream's first jobs
    // replayed one layer at a time must match a direct batch of them.
    let stream: Vec<Job> = (0..REPLAY_JOBS).map(|i| gen::serve_job(seed, i)).collect();
    let direct = Runtime::new(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    })
    .run_batch(&stream);
    let mut tracer = run.tracer.expect("the traced half records spans");
    let replayed = Replay::run(&stream, tracer.origin());
    let bad = checks::outcome_mismatches(&direct, &replayed.result(&direct));
    outcome.count(bad.is_empty());
    if !bad.is_empty() {
        outcome.note(format!(
            "serve: replay differs from run_batch on {} jobs",
            bad.len()
        ));
    }
    replayed.layer_metrics("serve_closed", &mut outcome);
    tracer.absorb(replayed.tracer);
    outcome.tracer = Some(tracer);
    Ok(outcome)
}
