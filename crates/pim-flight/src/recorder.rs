//! The recorder: per-request taps, the retention policy, and the bounded
//! retained-record ring.

use crate::record::FlightCounters;
use crate::record::{
    FlightIndex, FlightIndexEntry, FlightRecord, FlightSummary, JobObservation, PhaseSpan,
    RetainReason,
};
use crate::reservoir::LatencyReservoir;
use pim_profile::{AttributionProbe, Profile};
use pim_runtime::Instruments;
use pim_trace::Collector;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

/// Recorder tuning knobs. The defaults keep steady-state memory around one
/// megabyte and per-request overhead in the microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightConfig {
    /// Master switch: disabled recorders hand out no taps and retain
    /// nothing.
    pub enabled: bool,
    /// Maximum retained records resident in the ring.
    pub max_records: usize,
    /// Byte budget across all retained records' serialized JSON (the
    /// newest record always survives, even alone over budget).
    pub max_bytes: usize,
    /// Summaries kept for non-retained requests.
    pub summary_capacity: usize,
    /// Per-request trace-collector span capacity (bounds tap memory; the
    /// collector counts what it drops).
    pub trace_capacity: usize,
    /// Samples per (tenant, shape-key) latency reservoir.
    pub reservoir_capacity: usize,
    /// Reservoir samples required before outlier detection arms.
    pub outlier_min_samples: usize,
    /// Outlier threshold: latency > `factor` × reservoir p95.
    pub outlier_factor: f64,
    /// Maximum distinct (tenant, shape-key) reservoirs; streams beyond the
    /// bound are never flagged as outliers (SLO/error retention still
    /// applies).
    pub max_reservoirs: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            enabled: true,
            max_records: 64,
            max_bytes: 1 << 20,
            summary_capacity: 128,
            trace_capacity: 4096,
            reservoir_capacity: 64,
            outlier_min_samples: 16,
            outlier_factor: 4.0,
            max_reservoirs: 512,
        }
    }
}

/// The per-request instruments a dispatcher attaches while a job runs:
/// a bounded span collector plus an attribution probe. Both observe the
/// instrumented repriced fast path, so attaching a tap never changes
/// simulated results.
#[derive(Debug, Default)]
pub struct FlightTap {
    /// Receives the request's spans (host job span + simulated timeline).
    pub collector: Collector,
    /// Receives the request's per-component attribution samples.
    pub probe: AttributionProbe,
}

impl FlightTap {
    /// A tap whose collector holds at most `trace_capacity` records.
    pub fn new(trace_capacity: usize) -> Self {
        FlightTap {
            collector: Collector::with_capacity(trace_capacity),
            probe: AttributionProbe::new(),
        }
    }

    /// The tap as the [`Instruments`] a run is observed by.
    pub fn instruments(&self) -> Instruments<'_> {
        Instruments {
            sink: &self.collector,
            probe: &self.probe,
        }
    }
}

/// One resident ring slot: the serialized record plus its index row.
#[derive(Debug)]
struct Retained {
    entry: FlightIndexEntry,
    json: String,
}

#[derive(Debug, Default)]
struct RecorderState {
    ring: VecDeque<Retained>,
    ring_bytes: usize,
    summaries: VecDeque<FlightSummary>,
    reservoirs: HashMap<(String, u64), LatencyReservoir>,
    observed: u64,
    retained: u64,
    summarized: u64,
    evicted: u64,
    overhead_ns: u64,
}

/// The flight recorder. One per server; thread-safe.
#[derive(Debug)]
pub struct FlightRecorder {
    config: FlightConfig,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    /// A recorder with the given policy.
    pub fn new(config: FlightConfig) -> Self {
        FlightRecorder {
            config,
            state: Mutex::new(RecorderState::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FlightConfig {
        &self.config
    }

    /// Hands out the per-request instruments, or `None` when disabled
    /// (callers then run with null instruments).
    pub fn begin(&self) -> Option<FlightTap> {
        self.config
            .enabled
            .then(|| FlightTap::new(self.config.trace_capacity))
    }

    /// Completion hook: decides retention for one observed request and
    /// stores the record or summary. Returns the retention reason (`None`
    /// = summarized). The decision is made against the reservoir state
    /// *before* this request's latency is folded in, so the decision
    /// sequence is a pure function of the observation sequence.
    pub fn finish(&self, obs: JobObservation, tap: Option<FlightTap>) -> Option<RetainReason> {
        if !self.config.enabled {
            return None;
        }
        let hook_start = Instant::now();
        let mut state = self.state.lock().unwrap();
        state.observed += 1;

        let reason = self.decide(&mut state, &obs);
        if obs.ok && !obs.cancelled {
            self.feed_reservoir(&mut state, &obs);
        }

        match reason {
            Some(reason) => {
                let record = build_record(&obs, reason, tap.as_ref());
                let json = serde_json::to_string(&record)
                    .unwrap_or_else(|e| format!("{{\"error\":\"flight serialize: {e}\"}}"));
                let entry = FlightIndexEntry {
                    request_id: record.request_id.clone(),
                    tenant: record.tenant.clone(),
                    name: record.name.clone(),
                    reason: reason.label().to_string(),
                    latency_ns: record.latency_ns,
                    bytes: json.len() as u64,
                };
                state.ring_bytes += json.len();
                state.ring.push_back(Retained { entry, json });
                state.retained += 1;
                // Oldest-first eviction; the newest record always survives
                // even if it alone blows the byte budget.
                while state.ring.len() > self.config.max_records
                    || (state.ring_bytes > self.config.max_bytes && state.ring.len() > 1)
                {
                    if let Some(old) = state.ring.pop_front() {
                        state.ring_bytes -= old.json.len();
                        state.evicted += 1;
                    }
                }
            }
            None => {
                state.summaries.push_back(FlightSummary {
                    request_id: obs.request_id,
                    tenant: obs.tenant,
                    name: obs.name,
                    shape_key: obs.shape_key,
                    ok: obs.ok,
                    latency_ns: obs.latency_ns,
                });
                while state.summaries.len() > self.config.summary_capacity.max(1) {
                    state.summaries.pop_front();
                }
                state.summarized += 1;
            }
        }
        state.overhead_ns += hook_start.elapsed().as_nanos() as u64;
        reason
    }

    fn decide(&self, state: &mut RecorderState, obs: &JobObservation) -> Option<RetainReason> {
        if obs.cancelled {
            return Some(RetainReason::Cancelled);
        }
        if !obs.ok {
            return Some(RetainReason::Error);
        }
        if obs.slo_objective_ns > 0 && obs.latency_ns > obs.slo_objective_ns {
            return Some(RetainReason::SloBreach);
        }
        let key = (obs.tenant.clone(), obs.shape_key);
        if let Some(reservoir) = state.reservoirs.get(&key) {
            if reservoir.is_outlier(
                obs.latency_ns,
                self.config.outlier_min_samples,
                self.config.outlier_factor,
            ) {
                return Some(RetainReason::Outlier);
            }
        }
        None
    }

    fn feed_reservoir(&self, state: &mut RecorderState, obs: &JobObservation) {
        let key = (obs.tenant.clone(), obs.shape_key);
        if let Some(reservoir) = state.reservoirs.get_mut(&key) {
            reservoir.observe(obs.latency_ns);
        } else if state.reservoirs.len() < self.config.max_reservoirs {
            let mut reservoir = LatencyReservoir::new(self.config.reservoir_capacity);
            reservoir.observe(obs.latency_ns);
            state.reservoirs.insert(key, reservoir);
        }
    }

    /// Counters snapshot.
    pub fn counters(&self) -> FlightCounters {
        let state = self.state.lock().unwrap();
        FlightCounters {
            observed: state.observed,
            retained: state.retained,
            summarized: state.summarized,
            evicted: state.evicted,
            ring_records: state.ring.len() as u64,
            ring_bytes: state.ring_bytes as u64,
            overhead_ns: state.overhead_ns,
        }
    }

    /// The debug index: counters, retained rows (newest first) and the
    /// last `recent_limit` summaries (newest first).
    pub fn index(&self, recent_limit: usize) -> FlightIndex {
        let state = self.state.lock().unwrap();
        FlightIndex {
            counters: FlightCounters {
                observed: state.observed,
                retained: state.retained,
                summarized: state.summarized,
                evicted: state.evicted,
                ring_records: state.ring.len() as u64,
                ring_bytes: state.ring_bytes as u64,
                overhead_ns: state.overhead_ns,
            },
            retained: state.ring.iter().rev().map(|r| r.entry.clone()).collect(),
            recent: state
                .summaries
                .iter()
                .rev()
                .take(recent_limit)
                .cloned()
                .collect(),
        }
    }

    /// The stored record JSON for `request_id`, verbatim (newest match if
    /// an id were ever reused).
    pub fn get_json(&self, request_id: &str) -> Option<String> {
        let state = self.state.lock().unwrap();
        state
            .ring
            .iter()
            .rev()
            .find(|r| r.entry.request_id == request_id)
            .map(|r| r.json.clone())
    }
}

/// Assembles the full record from the observation and (when present) the
/// tap's collected spans and attribution.
fn build_record(
    obs: &JobObservation,
    reason: RetainReason,
    tap: Option<&FlightTap>,
) -> FlightRecord {
    let (spans, trace_dropped, attribution) = match tap {
        Some(tap) => (
            tap.collector
                .spans()
                .iter()
                .map(PhaseSpan::from_span)
                .collect(),
            tap.collector.dropped_records(),
            tap.probe
                .with_tree(|tree| Profile::from_tree(&obs.request_id, tree)),
        ),
        None => (
            Vec::new(),
            0,
            Profile::from_tree(&obs.request_id, &pim_profile::AttributionTree::new()),
        ),
    };
    let folded = attribution.folded();
    FlightRecord {
        request_id: obs.request_id.clone(),
        job_id: obs.job_id,
        tenant: obs.tenant.clone(),
        name: obs.name.clone(),
        platform: obs.platform.clone(),
        shape_key: obs.shape_key,
        reason,
        ok: obs.ok,
        error: obs.error.clone(),
        queued_ns: obs.queued_ns,
        latency_ns: obs.latency_ns,
        slo_objective_ns: obs.slo_objective_ns,
        cache: obs.cache,
        fault: obs.fault,
        spans,
        trace_dropped,
        attribution,
        folded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(id: &str, latency_ns: u64, ok: bool) -> JobObservation {
        JobObservation {
            request_id: id.to_string(),
            tenant: "acme".to_string(),
            name: "gemv/streampim".to_string(),
            platform: "StreamPIM".to_string(),
            shape_key: 7,
            latency_ns,
            slo_objective_ns: 1_000_000,
            ok,
            ..JobObservation::default()
        }
    }

    #[test]
    fn healthy_requests_leave_only_a_summary() {
        let recorder = FlightRecorder::new(FlightConfig::default());
        assert_eq!(recorder.finish(obs("req-1", 500, true), None), None);
        let index = recorder.index(8);
        assert_eq!(index.counters.retained, 0);
        assert_eq!(index.counters.summarized, 1);
        assert_eq!(index.recent.len(), 1);
        assert_eq!(index.recent[0].request_id, "req-1");
        assert!(recorder.get_json("req-1").is_none());
    }

    #[test]
    fn slo_breach_error_and_cancel_are_retained() {
        let recorder = FlightRecorder::new(FlightConfig::default());
        assert_eq!(
            recorder.finish(obs("req-slow", 2_000_000, true), None),
            Some(RetainReason::SloBreach)
        );
        let mut failed = obs("req-err", 10, false);
        failed.error = Some("boom".to_string());
        assert_eq!(recorder.finish(failed, None), Some(RetainReason::Error));
        let mut cancelled = obs("req-gone", 0, false);
        cancelled.cancelled = true;
        assert_eq!(
            recorder.finish(cancelled, None),
            Some(RetainReason::Cancelled)
        );
        let index = recorder.index(8);
        assert_eq!(index.counters.retained, 3);
        let record: FlightRecord =
            serde_json::from_str(&recorder.get_json("req-slow").unwrap()).unwrap();
        assert_eq!(record.reason, RetainReason::SloBreach);
        assert_eq!(record.latency_ns, 2_000_000);
    }

    #[test]
    fn outliers_arm_after_warmup() {
        let config = FlightConfig {
            outlier_min_samples: 8,
            outlier_factor: 2.0,
            ..FlightConfig::default()
        };
        let recorder = FlightRecorder::new(config);
        for i in 0..8 {
            assert_eq!(
                recorder.finish(obs(&format!("req-{i}"), 1_000, true), None),
                None
            );
        }
        assert_eq!(
            recorder.finish(obs("req-outlier", 10_000, true), None),
            Some(RetainReason::Outlier)
        );
    }

    #[test]
    fn ring_respects_record_and_byte_budgets() {
        let config = FlightConfig {
            max_records: 3,
            max_bytes: 1 << 20,
            ..FlightConfig::default()
        };
        let recorder = FlightRecorder::new(config);
        for i in 0..5 {
            recorder.finish(obs(&format!("req-{i}"), 2_000_000, true), None);
        }
        let index = recorder.index(0);
        assert_eq!(index.counters.retained, 5);
        assert_eq!(index.counters.evicted, 2);
        assert_eq!(index.counters.ring_records, 3);
        assert!(recorder.get_json("req-0").is_none(), "evicted");
        assert!(recorder.get_json("req-4").is_some(), "newest resident");
        // Newest-first index order.
        assert_eq!(index.retained[0].request_id, "req-4");

        let tiny = FlightRecorder::new(FlightConfig {
            max_bytes: 1,
            ..FlightConfig::default()
        });
        tiny.finish(obs("req-a", 2_000_000, true), None);
        tiny.finish(obs("req-b", 2_000_000, true), None);
        let index = tiny.index(0);
        assert_eq!(index.counters.ring_records, 1, "newest always survives");
        assert_eq!(index.retained[0].request_id, "req-b");
    }

    #[test]
    fn retention_is_deterministic_for_a_fixed_stream() {
        let stream: Vec<JobObservation> = (0..64)
            .map(|i| {
                let latency = 500 + (i * 131) % 700;
                let mut o = obs(&format!("req-{i}"), latency, i % 13 != 0);
                if i % 17 == 0 {
                    o.latency_ns = 5_000_000;
                }
                o
            })
            .collect();
        let run = |stream: &[JobObservation]| {
            let recorder = FlightRecorder::new(FlightConfig {
                outlier_min_samples: 4,
                outlier_factor: 2.0,
                ..FlightConfig::default()
            });
            stream
                .iter()
                .map(|o| recorder.finish(o.clone(), None))
                .collect::<Vec<_>>()
        };
        let a = run(&stream);
        let b = run(&stream);
        assert_eq!(a, b);
        assert!(a.iter().any(|d| d.is_some()));
        assert!(a.iter().any(|d| d.is_none()));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = FlightRecorder::new(FlightConfig {
            enabled: false,
            ..FlightConfig::default()
        });
        assert!(recorder.begin().is_none());
        assert_eq!(recorder.finish(obs("req-1", 9_999_999, true), None), None);
        assert_eq!(recorder.counters(), FlightCounters::default());
    }
}
