//! Event-driven reference engine: validates the analytic model.
//!
//! The production engine ([`crate::engine::Engine`]) aggregates per-round
//! costs in closed form (sums of makespans, lane maxima). This module
//! implements the *same scheduling policy* operationally — every VPC gets
//! explicit start/end times on explicit resources — and serves as the
//! reference the closed forms are tested against (see the `engine_agree`
//! tests and the cross-validation in `tests/`).
//!
//! Resources match the device model: one timeline per PIM subarray (the
//! shift-vs-read/write blocking rule means a subarray does one thing at a
//! time at VPC granularity), one transfer lane per PIM bank, and the
//! per-bank command decoder.
//!
//! Only the `Base` and `Unblock` policies are implemented — the
//! `Distribute` mid-point uses a calibrated serialization fraction in the
//! analytic engine that has no operational counterpart by construction.

use crate::device::{OptLevel, StreamPimConfig};
use crate::engine::{Engine, ProbePaths};
use crate::instruments::Instruments;
use crate::schedule::Schedule;
use crate::vpc::Vpc;
use pim_trace::{Span, Track};
use std::collections::HashMap;

/// Explicit-timeline reference engine.
#[derive(Debug, Clone)]
pub struct EventEngine {
    analytic: Engine,
    opt: OptLevel,
    tran_lanes: usize,
    controller_ns_per_vpc: f64,
}

/// A priced command with its scheduled interval (for inspection/tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledVpc {
    /// The command.
    pub vpc: Vpc,
    /// Start time, ns.
    pub start_ns: f64,
    /// End time, ns.
    pub end_ns: f64,
}

impl EventEngine {
    /// Builds the reference engine for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics for `OptLevel::Distribute` (see module docs).
    pub fn new(cfg: &StreamPimConfig) -> Self {
        assert!(
            cfg.opt != OptLevel::Distribute,
            "the event engine implements Base and Unblock only"
        );
        EventEngine {
            analytic: Engine::new(cfg),
            opt: cfg.opt,
            tran_lanes: cfg.device.pim_banks.max(1) as usize,
            controller_ns_per_vpc: cfg.engine.controller_ns_per_vpc,
        }
    }

    /// Runs `schedule` with explicit timelines, returning the makespan in
    /// nanoseconds and every command's interval.
    ///
    /// One pass over the intervals feeds both instruments. The sink gets
    /// one span per scheduled command: compute commands land on their
    /// subarray's track, transfers on their lane's track, and every
    /// command's decode slot on the decoder track; span arguments carry the
    /// VPC kind and the per-command operation-counter deltas. The probe
    /// gets per-component attribution: each transfer's interval and
    /// counters on `bus/lane[k]`, each compute's on `device/subarray[s]`,
    /// and every command's decode slot on `device/controller` — the same
    /// component paths the analytic [`Engine::run`] uses, so profiles from
    /// both engines diff against each other. The event engine prices no
    /// energy, so samples carry counters and busy time only.
    ///
    /// Repeat-compressed rounds are expanded, so keep schedules small
    /// (≲10⁵ commands).
    pub fn run(&self, schedule: &Schedule, instruments: &Instruments) -> (f64, Vec<ScheduledVpc>) {
        let (makespan, intervals) = match self.opt {
            OptLevel::Base => self.run_serial(schedule),
            OptLevel::Unblock => self.run_overlapped(schedule),
            OptLevel::Distribute => unreachable!("rejected in new()"),
        };
        let Instruments { sink, probe } = *instruments;
        let (tracing, profiling) = (sink.enabled(), probe.enabled());
        if !tracing && !profiling {
            return (makespan, intervals);
        }
        // Decode slots serialize on the per-bank controllers; the model
        // spreads them evenly over the lanes, so one aggregate decoder
        // track shows slots of `controller_ns / lanes` back to back.
        let decode_slot = self.controller_ns_per_vpc / self.tran_lanes as f64;
        let mut paths = ProbePaths::default();
        for (i, sv) in intervals.iter().enumerate() {
            let counters = self.analytic.vpc_counters(&sv.vpc);
            let dur = sv.end_ns - sv.start_ns;
            if tracing {
                let span = match sv.vpc {
                    Vpc::Tran { src, dst, len } => Span::sim(
                        format!("TRAN x{len}"),
                        "transfer",
                        Track::TransferLane((dst as usize % self.tran_lanes) as u32),
                        sv.start_ns,
                        dur,
                    )
                    .arg("kind", "TRAN")
                    .arg("src", src)
                    .arg("dst", dst)
                    .arg("elements", len)
                    .arg("reads", counters.reads)
                    .arg("writes", counters.writes),
                    compute => Span::sim(
                        format!("{} x{}", kind_name(&compute), compute.elements()),
                        "compute",
                        Track::Subarray(compute.home_subarray().unwrap_or(0)),
                        sv.start_ns,
                        dur,
                    )
                    .arg("kind", kind_name(&compute))
                    .arg("elements", compute.elements())
                    .arg("pim_adds", counters.pim_adds)
                    .arg("pim_muls", counters.pim_muls)
                    .arg("shifts", counters.shifts),
                };
                sink.record_span(span);
                if decode_slot > 0.0 {
                    sink.record_span(
                        Span::sim(
                            "decode",
                            "decode",
                            Track::Decoder,
                            i as f64 * decode_slot,
                            decode_slot,
                        )
                        .arg("kind", kind_name(&sv.vpc)),
                    );
                }
            }
            if profiling {
                let path = match sv.vpc {
                    Vpc::Tran { dst, .. } => paths.lane(dst as usize % self.tran_lanes),
                    compute => paths.subarray(compute.home_subarray().unwrap_or(0)),
                };
                probe.record(
                    path,
                    rm_core::ProbeSample {
                        ops: counters,
                        energy: rm_core::EnergyBreakdown::default(),
                        busy_ns: dur,
                    },
                );
                if decode_slot > 0.0 {
                    probe.record("device/controller", rm_core::ProbeSample::busy(decode_slot));
                }
            }
        }
        (makespan, intervals)
    }

    /// `Base`: one global timeline, natural command order.
    fn run_serial(&self, schedule: &Schedule) -> (f64, Vec<ScheduledVpc>) {
        let mut clock = 0.0f64;
        let mut out = Vec::new();
        for round in &schedule.rounds {
            for _ in 0..round.repeat {
                for vpc in round
                    .broadcasts
                    .iter()
                    .chain(&round.computes)
                    .chain(&round.collects)
                {
                    let dur = self.duration(vpc);
                    out.push(ScheduledVpc {
                        vpc: *vpc,
                        start_ns: clock,
                        end_ns: clock + dur,
                    });
                    clock += dur;
                }
            }
        }
        (clock.max(self.controller_floor(schedule)), out)
    }

    /// `Unblock`: the reordered schedule — each round's broadcasts are
    /// *prefetched* onto the transfer lanes ahead of the previous round's
    /// collects (that is precisely the §IV-C command rearrangement), so
    /// operand delivery hides under the previous round's computation.
    /// Computes run on per-subarray timelines gated by their operands;
    /// collects follow their computes on the lanes.
    fn run_overlapped(&self, schedule: &Schedule) -> (f64, Vec<ScheduledVpc>) {
        // Expand repeats into a flat round list.
        let rounds: Vec<&crate::schedule::Round> = schedule
            .rounds
            .iter()
            .flat_map(|r| std::iter::repeat_n(r, r.repeat.max(1) as usize))
            .collect();

        let mut sub_free: HashMap<u32, f64> = HashMap::new();
        let mut lane_free = vec![0.0f64; self.tran_lanes];
        let mut bcast_done = vec![0.0f64; rounds.len()];
        let mut out = Vec::new();
        let mut makespan = 0.0f64;

        let schedule_bcast = |r: usize,
                              lane_free: &mut Vec<f64>,
                              bcast_done: &mut Vec<f64>,
                              out: &mut Vec<ScheduledVpc>| {
            for t in &rounds[r].broadcasts {
                if let Vpc::Tran { dst, .. } = *t {
                    let lane = dst as usize % self.tran_lanes;
                    let dur = self.duration(t);
                    let start = lane_free[lane];
                    lane_free[lane] = start + dur;
                    bcast_done[r] = bcast_done[r].max(start + dur);
                    out.push(ScheduledVpc {
                        vpc: *t,
                        start_ns: start,
                        end_ns: start + dur,
                    });
                }
            }
        };

        if !rounds.is_empty() {
            schedule_bcast(0, &mut lane_free, &mut bcast_done, &mut out);
        }
        for r in 0..rounds.len() {
            // Compute phase: per-subarray timelines, gated by operands.
            let mut compute_end: Vec<f64> = Vec::with_capacity(rounds[r].computes.len());
            for c in &rounds[r].computes {
                let home = c.home_subarray().unwrap_or(0);
                let dur = self.duration(c);
                let free = sub_free.entry(home).or_insert(0.0);
                let start = free.max(bcast_done[r]);
                *free = start + dur;
                compute_end.push(start + dur);
                makespan = makespan.max(start + dur);
                out.push(ScheduledVpc {
                    vpc: *c,
                    start_ns: start,
                    end_ns: start + dur,
                });
            }
            // Prefetch the next round's operands before queueing collects:
            // the unblock reordering.
            if r + 1 < rounds.len() {
                schedule_bcast(r + 1, &mut lane_free, &mut bcast_done, &mut out);
            }
            // Collect phase: lanes, each gated by its compute.
            for (i, t) in rounds[r].collects.iter().enumerate() {
                if let Vpc::Tran { dst, .. } = *t {
                    let lane = dst as usize % self.tran_lanes;
                    let ready = compute_end.get(i).copied().unwrap_or(bcast_done[r]);
                    let dur = self.duration(t);
                    let start = lane_free[lane].max(ready);
                    lane_free[lane] = start + dur;
                    makespan = makespan.max(start + dur);
                    out.push(ScheduledVpc {
                        vpc: *t,
                        start_ns: start,
                        end_ns: start + dur,
                    });
                }
            }
        }
        let lanes_done = lane_free.into_iter().fold(0.0f64, f64::max);
        (
            makespan
                .max(lanes_done)
                .max(self.controller_floor(schedule)),
            out,
        )
    }

    fn controller_floor(&self, schedule: &Schedule) -> f64 {
        schedule.counts().total() as f64 * self.controller_ns_per_vpc / self.tran_lanes as f64
    }

    /// Duration of one command, taken from the same per-VPC cost models the
    /// analytic engine uses (so any disagreement is purely about the
    /// composition, which is what this engine exists to check).
    fn duration(&self, vpc: &Vpc) -> f64 {
        self.analytic.vpc_busy_ns(vpc)
    }
}

/// Mnemonic of a command (Table II spelling) for span names/args.
fn kind_name(vpc: &Vpc) -> &'static str {
    match vpc {
        Vpc::Mul { .. } => "MUL",
        Vpc::Smul { .. } => "SMUL",
        Vpc::Add { .. } => "ADD",
        Vpc::Tran { .. } => "TRAN",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Round;
    use crate::vpc::VecRef;

    fn schedule(rounds: usize, computes: usize, len: u32) -> Schedule {
        let mut s = Schedule::new();
        for r in 0..rounds {
            let mut round = Round::new();
            round.broadcasts.push(Vpc::Tran {
                src: 600,
                dst: r as u32 % 8,
                len,
            });
            for i in 0..computes {
                let sub = ((r * computes + i) % 512) as u32;
                round.computes.push(Vpc::Mul {
                    src1: VecRef::new(sub, len),
                    src2: VecRef::new(sub, len),
                });
                round.collects.push(Vpc::Tran {
                    src: sub,
                    dst: sub.wrapping_add(64),
                    len: 1,
                });
            }
            s.push(round);
        }
        s
    }

    #[test]
    fn base_matches_analytic_exactly() {
        let cfg = StreamPimConfig::paper_default().with_opt(OptLevel::Base);
        let s = schedule(5, 64, 512);
        let (event_ns, _) = EventEngine::new(&cfg).run(&s, &Instruments::NONE);
        let analytic_ns = Engine::new(&cfg).run(&s, &Instruments::NONE, 1).total_ns();
        assert!(
            (event_ns - analytic_ns).abs() / analytic_ns < 1e-9,
            "base is a plain sum: {event_ns} vs {analytic_ns}"
        );
    }

    #[test]
    fn unblock_agrees_with_analytic_within_tolerance() {
        let cfg = StreamPimConfig::paper_default();
        // Shapes with short rounds expose the closed form's "transfers hide
        // under compute" approximation: the operational engine shows the
        // broadcast gating the analytic engine folds away, hence the wider
        // tolerances there.
        for (rounds, computes, len, tol) in [
            (10, 128, 1000, 0.35),
            (4, 512, 2000, 0.35),
            (20, 32, 300, 0.55),
        ] {
            let s = schedule(rounds, computes, len);
            let (event_ns, _) = EventEngine::new(&cfg).run(&s, &Instruments::NONE);
            let analytic_ns = Engine::new(&cfg).run(&s, &Instruments::NONE, 1).total_ns();
            let err = (event_ns - analytic_ns).abs() / analytic_ns;
            assert!(
                err < tol,
                "closed form within {tol} of operational: {event_ns} vs {analytic_ns} ({err:.2})"
            );
        }
    }

    #[test]
    fn intervals_respect_resources() {
        let cfg = StreamPimConfig::paper_default();
        let s = schedule(3, 16, 500);
        let (_, intervals) = EventEngine::new(&cfg).run(&s, &Instruments::NONE);
        // No two compute intervals on the same subarray overlap.
        let mut per_sub: HashMap<u32, Vec<(f64, f64)>> = HashMap::new();
        for sv in &intervals {
            if let Some(home) = sv.vpc.home_subarray() {
                per_sub
                    .entry(home)
                    .or_default()
                    .push((sv.start_ns, sv.end_ns));
            }
        }
        for (sub, mut spans) in per_sub {
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for pair in spans.windows(2) {
                assert!(
                    pair[0].1 <= pair[1].0 + 1e-9,
                    "subarray {sub} overlaps: {pair:?}"
                );
            }
        }
    }

    #[test]
    fn collects_start_after_their_computes() {
        let cfg = StreamPimConfig::paper_default();
        let s = schedule(2, 8, 400);
        let (_, intervals) = EventEngine::new(&cfg).run(&s, &Instruments::NONE);
        let computes: Vec<&ScheduledVpc> =
            intervals.iter().filter(|sv| sv.vpc.is_compute()).collect();
        let collects: Vec<&ScheduledVpc> = intervals
            .iter()
            .filter(|sv| matches!(sv.vpc, Vpc::Tran { len: 1, .. }))
            .collect();
        for (c, t) in computes.iter().zip(&collects) {
            assert!(
                t.start_ns + 1e-9 >= c.end_ns,
                "collect before compute: {t:?} vs {c:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "Base and Unblock")]
    fn distribute_rejected() {
        let cfg = StreamPimConfig::paper_default().with_opt(OptLevel::Distribute);
        let _ = EventEngine::new(&cfg);
    }

    #[test]
    fn traced_run_covers_every_resource_class() {
        let cfg = StreamPimConfig::paper_default();
        let s = schedule(3, 16, 500);
        let engine = EventEngine::new(&cfg);
        let sink = pim_trace::Collector::new();
        let (traced_ns, intervals) = engine.run(
            &s,
            &Instruments {
                sink: &sink,
                ..Instruments::NONE
            },
        );
        let (plain_ns, _) = engine.run(&s, &Instruments::NONE);
        assert_eq!(traced_ns, plain_ns, "sink must not perturb the makespan");
        let spans = sink.spans();
        // A probe riding along must not change the makespan or the spans.
        let both = pim_trace::Collector::new();
        let probe = pim_profile::AttributionProbe::new();
        let (both_ns, _) = engine.run(
            &s,
            &Instruments {
                sink: &both,
                probe: &probe,
            },
        );
        assert_eq!(
            both_ns, plain_ns,
            "sink + probe must not perturb the makespan"
        );
        assert_eq!(both.spans(), spans, "a probe must not change the spans");
        // One span per scheduled command plus one decode span per command.
        assert_eq!(spans.len(), 2 * intervals.len());
        for class in ["subarray", "lane", "decoder"] {
            assert!(
                spans.iter().any(|sp| sp.track.class() == class),
                "missing class {class}"
            );
        }
        // Compute spans live on subarray tracks, transfers on lanes.
        for sp in &spans {
            match (&sp.track, sp.cat) {
                (Track::Subarray(_), cat) => assert_eq!(cat, "compute"),
                (Track::TransferLane(_), cat) => assert_eq!(cat, "transfer"),
                (Track::Decoder, cat) => assert_eq!(cat, "decode"),
                (t, c) => panic!("unexpected track {t:?} for cat {c}"),
            }
        }
    }

    #[test]
    fn profiled_run_attributes_every_command() {
        use std::collections::BTreeMap;
        use std::sync::Mutex;

        #[derive(Debug, Default)]
        struct MapProbe(Mutex<BTreeMap<String, (u64, f64)>>);
        impl rm_core::Probe for MapProbe {
            fn enabled(&self) -> bool {
                true
            }
            fn record(&self, path: &str, sample: rm_core::ProbeSample) {
                let mut map = self.0.lock().unwrap();
                let entry = map.entry(path.to_string()).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 += sample.busy_ns;
            }
        }

        let cfg = StreamPimConfig::paper_default();
        let s = schedule(3, 16, 500);
        let engine = EventEngine::new(&cfg);
        let probe = MapProbe::default();
        let (profiled_ns, intervals) = engine.run(
            &s,
            &Instruments {
                probe: &probe,
                ..Instruments::NONE
            },
        );
        let (plain_ns, _) = engine.run(&s, &Instruments::NONE);
        assert_eq!(profiled_ns, plain_ns, "probe must not perturb the makespan");
        let map = probe.0.lock().unwrap();
        // A sink riding along must not change the makespan or the samples.
        let both = MapProbe::default();
        let (both_ns, _) = engine.run(
            &s,
            &Instruments {
                sink: &pim_trace::Collector::new(),
                probe: &both,
            },
        );
        assert_eq!(
            both_ns, plain_ns,
            "sink + probe must not perturb the makespan"
        );
        assert_eq!(
            *both.0.lock().unwrap(),
            *map,
            "a sink must not change the samples"
        );
        // One sample per command on its component, one decode per command.
        let command_samples: u64 = map
            .iter()
            .filter(|(k, _)| k.as_str() != "device/controller")
            .map(|(_, (n, _))| n)
            .sum();
        assert_eq!(command_samples as usize, intervals.len());
        assert_eq!(map["device/controller"].0 as usize, intervals.len());
        assert!(map.keys().any(|k| k.starts_with("bus/lane[")));
        assert!(map.keys().any(|k| k.starts_with("device/subarray[")));
        // Component busy time sums to the per-command interval durations.
        let busy: f64 = map
            .iter()
            .filter(|(k, _)| k.as_str() != "device/controller")
            .map(|(_, (_, b))| b)
            .sum();
        let expect: f64 = intervals.iter().map(|sv| sv.end_ns - sv.start_ns).sum();
        assert!((busy - expect).abs() < 1e-6);
    }

    #[test]
    fn traced_run_with_null_sink_records_nothing() {
        let cfg = StreamPimConfig::paper_default();
        let s = schedule(2, 8, 300);
        let (ns, intervals) = EventEngine::new(&cfg).run(&s, &Instruments::NONE);
        assert!(ns > 0.0);
        assert!(!intervals.is_empty());
    }
}
