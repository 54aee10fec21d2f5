//! The analytic execution engine: prices a [`Schedule`] in time and energy.
//!
//! ## Model
//!
//! The engine works at VPC granularity with closed-form per-VPC costs (the
//! substrate crates provide them), then composes them according to the
//! optimization level:
//!
//! * **Per compute VPC.** The RM processor pipeline cost comes from
//!   [`rm_proc::PipelineModel`]; operand/result streaming between mats and
//!   the processor is priced by the configured bus. With the **domain-wall
//!   bus** the stream is pipelined against processing, so the subarray is
//!   busy for `max(processing, streaming)` and the minimum counts as
//!   *overlapped* time. With the **electrical bus** every row crossing the
//!   bus is an electromagnetic conversion that cannot overlap shifts inside
//!   the subarray, so the two serialize.
//! * **Per TRAN VPC.** Inter-subarray/bank moves go through conventional
//!   read+write operations on the shared internal buses; one transfer lane
//!   per PIM bank works in parallel.
//! * **Round composition.** `Base` serializes everything on the owning
//!   subarray. `Distribute` runs a round's computes across subarrays, but
//!   the natural command order interleaves result collections with
//!   computes; since read/write cannot overlap shift/compute inside a
//!   subarray, stalled transfers head-of-line-block the queue and a large
//!   fraction of the compute work serializes — modelled by
//!   [`EngineParams::dist_serialization`]. `Unblock` batches transfer
//!   phases against compute phases of neighbouring rounds, so the total is
//!   the maximum of the compute-critical and transfer-critical paths.
//! * **Controller.** Each VPC occupies its bank controller for one decode
//!   slot; with many subarrays this fixed per-VPC cost becomes the
//!   scalability ceiling (Figure 21's saturation).

use crate::device::{OptLevel, StreamPimConfig};
use crate::instruments::Instruments;
use crate::report::ExecReport;
use crate::schedule::Schedule;
use crate::vpc::Vpc;
use pim_trace::{Phase, Span, TraceSink, Track};
use rm_bus::{BusModel, ElectricalBusModel};
use rm_core::config::BusKind;
use rm_core::{EnergyBreakdown, OpCounters, ProbeSample};
use rm_proc::{PipelineModel, ProcOp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Scheduling-model parameters.
///
/// These four constants are the engine's only free parameters; they are
/// calibrated once against the paper's Figure 22 ablation (see
/// `EXPERIMENTS.md`) and never tuned per workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineParams {
    /// Fraction of a round's compute work that serializes across subarrays
    /// when the natural command order lets transfers block computation
    /// (`Distribute` without `unblock`).
    pub dist_serialization: f64,
    /// Electrical-bus conversions per row: a 512-bit row crosses a narrower
    /// electrical bus in this many read+write beats (`StPIM-e`).
    pub electrical_beats_per_row: u64,
    /// Mat-side shift steps per row streamed to/from the RM bus (alignment,
    /// fan-out copy onto the transfer track, shift-out).
    pub mat_shifts_per_row: u64,
    /// Parallel in-subarray RM buses (paper Figure 7 shows "a set of
    /// internal RM Buses"): operand and result streams split across them.
    pub operand_buses: u64,
    /// Bank-controller decode occupancy per VPC, nanoseconds.
    pub controller_ns_per_vpc: f64,
    /// Fraction of the RM bus's end-to-end fill latency exposed once per
    /// round (the rest overlaps the round's broadcasts). Smaller segments
    /// mean more segments to traverse, which is Table V's time overhead.
    pub bus_fill_exposure: f64,
}

impl EngineParams {
    /// Checks parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if !(0.0..=1.0).contains(&self.dist_serialization) {
            return Err("dist_serialization must be in [0, 1]".into());
        }
        if self.electrical_beats_per_row == 0 {
            return Err("electrical_beats_per_row must be non-zero".into());
        }
        if self.controller_ns_per_vpc < 0.0 {
            return Err("controller_ns_per_vpc must be non-negative".into());
        }
        if self.operand_buses == 0 {
            return Err("operand_buses must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.bus_fill_exposure) {
            return Err("bus_fill_exposure must be in [0, 1]".into());
        }
        Ok(())
    }
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            dist_serialization: 0.12,
            electrical_beats_per_row: 5,
            mat_shifts_per_row: 1,
            controller_ns_per_vpc: 5.0,
            operand_buses: 2,
            bus_fill_exposure: 0.6,
        }
    }
}

// Structural hashing for fingerprints/cache keys: f64 fields are folded in
// as their IEEE-754 bit patterns.
impl std::hash::Hash for EngineParams {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.dist_serialization.to_bits().hash(state);
        self.electrical_beats_per_row.hash(state);
        self.mat_shifts_per_row.hash(state);
        self.controller_ns_per_vpc.to_bits().hash(state);
        self.operand_buses.hash(state);
        self.bus_fill_exposure.to_bits().hash(state);
    }
}

/// One pricing request of the composition loop, in serial traversal order.
///
/// The composition loop consumes exactly one [`VpcCost`] per request; the
/// request stream is a pure function of the schedule (per round: broadcast
/// TRANs, collect TRANs, computes), which is what lets the parallel path
/// price the whole stream up front with [`rm_core::map_sharded`] and replay
/// it through an unchanged serial composition.
#[derive(Debug, Clone, Copy)]
enum PriceReq {
    /// `tran_cost(elements)` for a TRAN of that element count.
    Tran(u64),
    /// `compute_cost(vpc)` for a compute VPC.
    Compute(Vpc),
}

/// Memoization key of one pricing request: pricing is a pure function of
/// the engine configuration, the request kind, and the operand element
/// count — nothing else ([`Engine::compute_cost`] reads only the op kind and
/// `len`; [`Engine::tran_cost`] only the element count). Two requests with
/// equal keys therefore price to bit-identical [`VpcCost`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PriceKey {
    /// A TRAN of that element count.
    Tran(u64),
    /// A dot-product compute of that operand length.
    Dot(u64),
    /// A scalar-vector multiply of that operand length.
    Smul(u64),
    /// A vector add of that operand length.
    Add(u64),
}

impl PriceKey {
    fn of(req: PriceReq) -> PriceKey {
        match req {
            PriceReq::Tran(elements) => PriceKey::Tran(elements),
            PriceReq::Compute(vpc) => match vpc {
                Vpc::Mul { src1, .. } => PriceKey::Dot(src1.len as u64),
                Vpc::Smul { src } => PriceKey::Smul(src.len as u64),
                Vpc::Add { src1, .. } => PriceKey::Add(src1.len as u64),
                Vpc::Tran { len, .. } => PriceKey::Tran(len as u64),
            },
        }
    }
}

/// A memo of priced request-table rows, keyed by [`PriceKey`], for the
/// incremental re-pricing path (PR 8): when the runtime sees a cache
/// *near-miss* — a workload with the same DAG shape as a cached one but
/// different dimensions — it re-prices only the rows whose key is new
/// (the shape-dependent ones) and replays every other row from the memo.
/// Memoized [`VpcCost`]s are the exact values a cold run would compute, so
/// the composed report is byte-identical to cold pricing; the determinism
/// suite enforces this.
///
/// A table is only valid for one engine configuration: costs depend on the
/// full [`StreamPimConfig`]. Callers (the runtime's schedule cache) key
/// tables by config and must not share them across configs.
#[derive(Debug, Clone, Default)]
pub struct PriceTable {
    entries: HashMap<PriceKey, VpcCost>,
    hits: u64,
    misses: u64,
}

impl PriceTable {
    /// An empty table.
    pub fn new() -> Self {
        PriceTable::default()
    }

    /// Distinct priced rows currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no priced rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Requests served from the memo so far (across runs).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests priced fresh and inserted so far (across runs).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Merges `other` into this table. Safe whenever both tables were fed
    /// by engines with the same configuration: each row is a pure function
    /// of its key, so colliding entries are identical and either may win.
    /// Hit/miss counters accumulate.
    pub fn absorb(&mut self, other: PriceTable) {
        self.entries.extend(other.entries);
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Per-VPC cost record produced by the substrate models.
#[derive(Debug, Clone, Copy, Default)]
struct VpcCost {
    /// Subarray occupancy, ns.
    busy_ns: f64,
    /// Pure processing time within `busy_ns`, ns.
    proc_ns: f64,
    /// Exclusive in-subarray transfer within `busy_ns` (bus excess), ns.
    excl_transfer_ns: f64,
    /// Overlapped transfer/processing within `busy_ns`, ns.
    overlapped_ns: f64,
    /// Whether the exclusive transfer is conversion (electrical) rather
    /// than shift (domain-wall).
    transfer_is_conversion: bool,
    /// Energy of the VPC.
    energy: EnergyBreakdown,
    /// Counter deltas.
    counters: OpCounters,
}

/// The attribution path strings of one run, each built on its first use.
/// A run records one sample per VPC but touches only a few lanes and
/// subarrays, so this keeps the probe path from formatting a fresh string
/// per sample. Nothing is built while the probe is off.
#[derive(Debug, Default)]
pub(crate) struct ProbePaths {
    lanes: HashMap<usize, String>,
    subarrays: HashMap<u32, String>,
}

impl ProbePaths {
    /// `bus/lane[{lane}]`.
    pub(crate) fn lane(&mut self, lane: usize) -> &str {
        self.lanes
            .entry(lane)
            .or_insert_with(|| format!("bus/lane[{lane}]"))
    }

    /// `device/subarray[{home}]`.
    pub(crate) fn subarray(&mut self, home: u32) -> &str {
        self.subarrays
            .entry(home)
            .or_insert_with(|| format!("device/subarray[{home}]"))
    }
}

/// The analytic engine (see module docs).
#[derive(Debug, Clone)]
pub struct Engine {
    opt: OptLevel,
    params: EngineParams,
    pipeline: PipelineModel,
    bus: BusModel,
    electrical: ElectricalBusModel,
    bus_kind: BusKind,
    cycle_ns: f64,
    words_per_row: u64,
    tran_lanes: u64,
    read_ns: f64,
    write_ns: f64,
    read_pj: f64,
    write_pj: f64,
    shift_pj: f64,
    add_pj: f64,
    mul_pj: f64,
}

impl Engine {
    /// Builds an engine from a validated configuration.
    pub fn new(cfg: &StreamPimConfig) -> Self {
        let dev = &cfg.device;
        let pipeline = PipelineModel::new(
            dev.word_bits,
            dev.duplicators,
            dev.geometry.save_tracks_per_mat,
        );
        let bus = match dev.bus {
            BusKind::DomainWall => BusModel::domain_wall_with_segment(dev.segment_domains as u64),
            BusKind::Electrical => BusModel::electrical_default(),
        };
        Engine {
            opt: cfg.opt,
            params: cfg.engine,
            pipeline,
            bus,
            electrical: ElectricalBusModel::paper_default(),
            bus_kind: dev.bus,
            cycle_ns: dev.cycle_ns(),
            words_per_row: (dev.geometry.save_tracks_per_mat / dev.word_bits).max(1) as u64,
            tran_lanes: dev.pim_banks.max(1) as u64,
            read_ns: dev.timing.read_ns,
            write_ns: dev.timing.write_ns,
            read_pj: dev.energy.read_pj,
            write_pj: dev.energy.write_pj,
            shift_pj: dev.energy.shift_pj,
            add_pj: dev.energy.pim_add_pj,
            mul_pj: dev.energy.pim_mul_pj,
        }
    }

    /// Prices a schedule, observed by `instruments`, with per-VPC cost
    /// pricing (the hot part of an analytic run) sharded across up to
    /// `workers` scoped OS threads.
    ///
    /// The probe receives component attribution: per-VPC costs under
    /// `bus/lane[k]` (transfers, keyed by their transfer lane),
    /// `device/subarray[s]` (computes, keyed by their home subarray) and
    /// `device/controller` (decode energy and occupancy). Conservation
    /// contract: each emission records exactly the value the engine adds to
    /// the report's global accumulators, in the same order, so an
    /// attribution tree's total is bit-identical to the report's
    /// `counters`/`energy`. Busy time is *occupancy* — per-component busy
    /// sums intentionally exceed the composed wall-clock time, which is
    /// derived after the fact (see the breakdown scaling in the source).
    ///
    /// The sink receives one phase span per round (broadcast / compute /
    /// collect timelines, [`pim_trace::Phase`]). The phase timeline is
    /// *synthetic*: the closed forms compose per-round makespans, not
    /// per-command start times, so spans carry the per-round phase
    /// durations laid out according to the optimization level — one serial
    /// clock for `Base`/`Distribute`, separate compute/transfer clocks
    /// (both from zero) for `Unblock`, which is exactly the overlap
    /// structure the closed form assumes.
    ///
    /// Determinism contract ("price, then compose"): pricing every VPC is a
    /// pure function of the engine configuration, so the parallel path first
    /// materializes the cost of each pricing request in exact serial
    /// traversal order (per round: broadcast TRANs, collect TRANs, computes)
    /// via [`rm_core::map_sharded`], then replays the *unchanged* serial
    /// composition loop over that table. Every floating-point addition, every
    /// probe sample, and every trace span therefore happens in the same
    /// order with the same operands as a serial run — the returned
    /// [`ExecReport`], attribution tree, and trace are byte-identical at any
    /// worker count and for every sink/probe combination.
    pub fn run(
        &self,
        schedule: &Schedule,
        instruments: &Instruments,
        workers: usize,
    ) -> ExecReport {
        if workers <= 1 {
            return self.compose(schedule, instruments, &mut |req| self.price(req));
        }
        let reqs = self.price_requests(schedule);
        let costs = rm_core::map_sharded(&reqs, workers, |_, req| self.price(*req));
        let mut cursor = 0usize;
        self.compose(schedule, instruments, &mut |_req| {
            let c = costs[cursor];
            cursor += 1;
            c
        })
    }

    /// Prices a schedule through a [`PriceTable`] memo: rows whose
    /// [`PriceKey`] is already in the table are replayed from the memo; new
    /// rows are priced fresh and inserted. Returns the report and the number
    /// of rows priced fresh in *this* run (the re-priced row count surfaced
    /// as `cache_repriced_rows`).
    ///
    /// Because pricing is pure per key and the composition loop is the same
    /// serial walk as [`Engine::run`], the report — and every
    /// probe sample and trace span — is byte-identical to a cold run at any
    /// table state, provided the table was only ever fed by an engine with
    /// this configuration.
    pub fn run_repriced(
        &self,
        schedule: &Schedule,
        instruments: &Instruments,
        table: &mut PriceTable,
    ) -> (ExecReport, u64) {
        let misses_before = table.misses;
        let report = self.compose(schedule, instruments, &mut |req| {
            let key = PriceKey::of(req);
            if let Some(&cost) = table.entries.get(&key) {
                table.hits += 1;
                cost
            } else {
                let cost = self.price(req);
                table.entries.insert(key, cost);
                table.misses += 1;
                cost
            }
        });
        (report, table.misses - misses_before)
    }

    /// Prices one request (pure in `&self`).
    fn price(&self, req: PriceReq) -> VpcCost {
        match req {
            PriceReq::Tran(elements) => self.tran_cost(elements),
            PriceReq::Compute(vpc) => self.compute_cost(&vpc),
        }
    }

    /// The pricing-request stream of `schedule` in serial traversal order.
    fn price_requests(&self, schedule: &Schedule) -> Vec<PriceReq> {
        let mut reqs = Vec::new();
        for round in &schedule.rounds {
            for trans in [&round.broadcasts, &round.collects] {
                for t in trans {
                    if let Vpc::Tran { len, .. } = *t {
                        reqs.push(PriceReq::Tran(len as u64));
                    }
                }
            }
            for c in &round.computes {
                reqs.push(PriceReq::Compute(*c));
            }
        }
        reqs
    }

    /// The serial composition loop: walks the schedule, obtains each VPC's
    /// cost from `pricer` (inline computation on the serial path, a cursor
    /// into the pre-priced table on the parallel path), and folds costs into
    /// the report, probe, and trace in a single deterministic order.
    fn compose(
        &self,
        schedule: &Schedule,
        instruments: &Instruments,
        pricer: &mut dyn FnMut(PriceReq) -> VpcCost,
    ) -> ExecReport {
        let Instruments { sink, probe } = *instruments;
        let mut report = ExecReport::new();
        // Accumulated compute-phase volumes (for breakdown attribution).
        let mut vol_proc = 0.0f64;
        let mut vol_excl_shift = 0.0f64;
        let mut vol_excl_conv = 0.0f64;
        let mut vol_overlap = 0.0f64;
        // Critical-path accumulators.
        let mut compute_critical = 0.0f64; // Σ per-round compute makespans
        let mut tran_lane_ns = vec![0.0f64; self.tran_lanes as usize];
        let mut serial_total = 0.0f64; // Base/Distribute running total
        let mut tran_clock = 0.0f64; // Unblock transfer-phase span clock
        let mut vpc_count = 0u64;
        let mut paths = ProbePaths::default();

        for (round_idx, round) in schedule.rounds.iter().enumerate() {
            let repeat = round.repeat.max(1) as f64;
            // --- Transfers of this round ---------------------------------
            // Broadcasts and collects accumulate separately so the trace
            // can show them as distinct phases; the engine composition only
            // consumes their per-lane sum.
            let mut bcast_lane = vec![0.0f64; self.tran_lanes as usize];
            let mut collect_lane = vec![0.0f64; self.tran_lanes as usize];
            let mut bcast_sum = 0.0;
            let mut collect_sum = 0.0;
            for (trans, lane_ns, sum) in [
                (&round.broadcasts, &mut bcast_lane, &mut bcast_sum),
                (&round.collects, &mut collect_lane, &mut collect_sum),
            ] {
                for t in trans {
                    if let Vpc::Tran { dst, len, .. } = *t {
                        let cost = pricer(PriceReq::Tran(len as u64));
                        let lane = (dst as u64 % self.tran_lanes) as usize;
                        lane_ns[lane] += cost.busy_ns;
                        *sum += cost.busy_ns;
                        report.energy += cost.energy * repeat;
                        scale_counters(&mut report.counters, cost.counters, round.repeat);
                        vpc_count += round.repeat;
                        if probe.enabled() {
                            let mut ops = OpCounters::default();
                            scale_counters(&mut ops, cost.counters, round.repeat);
                            probe.record(
                                paths.lane(lane),
                                ProbeSample {
                                    ops,
                                    energy: cost.energy * repeat,
                                    busy_ns: cost.busy_ns * repeat,
                                },
                            );
                        }
                    }
                }
            }
            let round_tran_sum = bcast_sum + collect_sum;
            let round_tran_lane: Vec<f64> = bcast_lane
                .iter()
                .zip(&collect_lane)
                .map(|(b, c)| b + c)
                .collect();
            let round_tran_parallel = round_tran_lane.iter().copied().fold(0.0f64, f64::max);
            let bcast_parallel = bcast_lane.iter().copied().fold(0.0f64, f64::max);

            // --- Computes of this round -----------------------------------
            let mut sub_load: HashMap<u32, f64> = HashMap::new();
            let mut round_busy_sum = 0.0;
            for c in &round.computes {
                let cost = pricer(PriceReq::Compute(*c));
                let home = c.home_subarray().unwrap_or(0);
                round_busy_sum += cost.busy_ns;
                *sub_load.entry(home).or_default() += cost.busy_ns;
                vol_proc += cost.proc_ns * repeat;
                vol_overlap += cost.overlapped_ns * repeat;
                if cost.transfer_is_conversion {
                    vol_excl_conv += cost.excl_transfer_ns * repeat;
                } else {
                    vol_excl_shift += cost.excl_transfer_ns * repeat;
                }
                report.energy += cost.energy * repeat;
                scale_counters(&mut report.counters, cost.counters, round.repeat);
                vpc_count += round.repeat;
                if probe.enabled() {
                    let mut ops = OpCounters::default();
                    scale_counters(&mut ops, cost.counters, round.repeat);
                    probe.record(
                        paths.subarray(home),
                        ProbeSample {
                            ops,
                            energy: cost.energy * repeat,
                            busy_ns: cost.busy_ns * repeat,
                        },
                    );
                }
            }
            let max_sub = sub_load.values().copied().fold(0.0f64, f64::max);
            let used = sub_load.len().max(1) as f64;
            // Exposed once per round: the bus pipeline must fill before the
            // first operands reach the processors.
            let fill_ns = if round.computes.is_empty() || self.bus_kind != BusKind::DomainWall {
                0.0
            } else {
                self.bus.word_latency_ns(self.cycle_ns) * self.params.bus_fill_exposure
            };
            let parallel_makespan = max_sub.max(round_busy_sum / used) + fill_ns;

            // --- Compose per optimization level ---------------------------
            // Phase-span layout: (broadcast, compute, collect) durations and
            // the clocks they start on. Zero-duration phases are skipped.
            let emit = |sink: &dyn TraceSink, phase: Phase, cat, start: f64, dur: f64| {
                if dur > 0.0 {
                    sink.record_span(
                        Span::sim(
                            format!("round {round_idx} {}", phase_label(phase)),
                            cat,
                            Track::Phase(phase),
                            start,
                            dur,
                        )
                        .arg("round", round_idx)
                        .arg("repeat", round.repeat)
                        .arg("broadcasts", round.broadcasts.len())
                        .arg("computes", round.computes.len())
                        .arg("collects", round.collects.len()),
                    );
                }
            };
            match self.opt {
                OptLevel::Base => {
                    // Everything serializes: transfers and computes alike.
                    if sink.enabled() {
                        let mut clock = serial_total;
                        emit(
                            sink,
                            Phase::Broadcast,
                            "transfer",
                            clock,
                            repeat * bcast_sum,
                        );
                        clock += repeat * bcast_sum;
                        emit(
                            sink,
                            Phase::Compute,
                            "compute",
                            clock,
                            repeat * round_busy_sum,
                        );
                        clock += repeat * round_busy_sum;
                        emit(
                            sink,
                            Phase::Collect,
                            "transfer",
                            clock,
                            repeat * collect_sum,
                        );
                    }
                    serial_total += repeat * (round_tran_sum + round_busy_sum);
                    compute_critical += repeat * round_busy_sum;
                }
                OptLevel::Distribute => {
                    let blocked = self.params.dist_serialization * round_busy_sum
                        + (1.0 - self.params.dist_serialization) * parallel_makespan;
                    if sink.enabled() {
                        // The lane-parallel transfer time, split between the
                        // broadcast and collect phases pro rata.
                        let bcast_share = if round_tran_sum > 0.0 {
                            round_tran_parallel * bcast_sum / round_tran_sum
                        } else {
                            0.0
                        };
                        let mut clock = serial_total;
                        emit(
                            sink,
                            Phase::Broadcast,
                            "transfer",
                            clock,
                            repeat * bcast_share,
                        );
                        clock += repeat * bcast_share;
                        emit(sink, Phase::Compute, "compute", clock, repeat * blocked);
                        clock += repeat * blocked;
                        emit(
                            sink,
                            Phase::Collect,
                            "transfer",
                            clock,
                            repeat * (round_tran_parallel - bcast_share),
                        );
                    }
                    serial_total += repeat * (round_tran_parallel + blocked);
                    compute_critical += repeat * blocked;
                }
                OptLevel::Unblock => {
                    if sink.enabled() {
                        // Compute and transfer run on independent clocks —
                        // the overlap the closed form assumes.
                        emit(
                            sink,
                            Phase::Compute,
                            "compute",
                            compute_critical,
                            repeat * parallel_makespan,
                        );
                        emit(
                            sink,
                            Phase::Broadcast,
                            "transfer",
                            tran_clock,
                            repeat * bcast_parallel,
                        );
                        emit(
                            sink,
                            Phase::Collect,
                            "transfer",
                            tran_clock + repeat * bcast_parallel,
                            repeat * (round_tran_parallel - bcast_parallel),
                        );
                        tran_clock += repeat * round_tran_parallel;
                    }
                    compute_critical += repeat * parallel_makespan;
                    for (lane, t) in round_tran_lane.iter().enumerate() {
                        tran_lane_ns[lane] += t * repeat;
                    }
                }
            }
        }

        report.vpc = schedule.counts();
        debug_assert_eq!(report.vpc.total(), vpc_count);

        // Controller decode occupancy: per-VPC, parallel across PIM banks.
        let controller_ns =
            vpc_count as f64 * self.params.controller_ns_per_vpc / self.tran_lanes as f64;
        report.energy.other_pj += vpc_count as f64 * 1.0; // 1 pJ decode per VPC
        if probe.enabled() {
            probe.record(
                "device/controller",
                ProbeSample {
                    ops: OpCounters::default(),
                    energy: EnergyBreakdown {
                        other_pj: vpc_count as f64 * 1.0,
                        ..EnergyBreakdown::default()
                    },
                    busy_ns: controller_ns,
                },
            );
        }

        // --- Total and breakdown ------------------------------------------
        let tran_critical = tran_lane_ns.iter().copied().fold(0.0f64, f64::max);
        let (total, tran_exposed) = match self.opt {
            OptLevel::Base | OptLevel::Distribute => (serial_total, true),
            OptLevel::Unblock => (compute_critical.max(tran_critical), false),
        };
        let total = total.max(controller_ns);

        // Scale the per-VPC compute volumes onto the compute-critical time.
        let vol_sum = vol_proc + vol_excl_shift + vol_excl_conv + vol_overlap;
        let k = if vol_sum > 0.0 {
            compute_critical / vol_sum
        } else {
            0.0
        };
        report.time.process_ns = vol_proc * k;
        report.time.shift_ns = vol_excl_shift * k;
        report.time.overlapped_ns = vol_overlap * k;
        let conv = vol_excl_conv * k;
        // Electrical conversions split between read and write by latency.
        let rw = self.read_ns + self.write_ns;
        report.time.read_ns = conv * self.read_ns / rw;
        report.time.write_ns = conv * self.write_ns / rw;

        if tran_exposed {
            // Inter-subarray transfer phases are exclusive read/write time.
            let tran_time = total - compute_critical.min(total);
            report.time.read_ns += tran_time * self.read_ns / rw;
            report.time.write_ns += tran_time * self.write_ns / rw;
        } else {
            // Unblock: transfers beyond the compute-critical path extend the
            // makespan; hidden transfers vanish into overlap.
            let excess = (tran_critical - compute_critical).max(0.0);
            report.time.read_ns += excess * self.read_ns / rw;
            report.time.write_ns += excess * self.write_ns / rw;
        }

        // Controller excess (if it set the total) counts as processing.
        let accounted = report.time.total_ns();
        if total > accounted {
            report.time.process_ns += total - accounted;
        }
        report
    }

    /// Subarray/lane occupancy of one command under this engine's cost
    /// models (the event-driven reference engine composes these into
    /// explicit timelines).
    pub fn vpc_busy_ns(&self, vpc: &Vpc) -> f64 {
        match *vpc {
            Vpc::Tran { len, .. } => self.tran_cost(len as u64).busy_ns,
            _ => self.compute_cost(vpc).busy_ns,
        }
    }

    /// Operation-counter deltas of one command under this engine's cost
    /// models (trace spans carry these as per-span arguments).
    pub fn vpc_counters(&self, vpc: &Vpc) -> OpCounters {
        match *vpc {
            Vpc::Tran { len, .. } => self.tran_cost(len as u64).counters,
            _ => self.compute_cost(vpc).counters,
        }
    }

    /// Rows needed to stream `words` between mats and the processor.
    fn rows_for(&self, words: u64) -> u64 {
        words.div_ceil(self.words_per_row).max(1)
    }

    fn compute_cost(&self, vpc: &Vpc) -> VpcCost {
        let op = match *vpc {
            Vpc::Mul { src1, .. } => ProcOp::DotProduct { n: src1.len as u64 },
            Vpc::Smul { src } => ProcOp::ScalarVectorMul { n: src.len as u64 },
            Vpc::Add { src1, .. } => ProcOp::VectorAdd { n: src1.len as u64 },
            Vpc::Tran { .. } => unreachable!("compute_cost called on TRAN"),
        };
        let proc = self.pipeline.cost(op);
        let proc_ns = proc.cycles as f64 * self.cycle_ns;
        let rows = self.rows_for(proc.io_words);

        let mut cost = VpcCost {
            proc_ns,
            counters: OpCounters {
                pim_adds: proc.word_adds,
                pim_muls: proc.word_muls,
                ..OpCounters::default()
            },
            energy: EnergyBreakdown {
                compute_pj: proc.word_adds as f64 * self.add_pj
                    + proc.word_muls as f64 * self.mul_pj,
                ..EnergyBreakdown::default()
            },
            ..VpcCost::default()
        };

        match self.bus_kind {
            BusKind::DomainWall => {
                // Streams split across the subarray's parallel RM buses;
                // energy still covers every row moved.
                let rows_per_bus = rows.div_ceil(self.params.operand_buses);
                let bus = rm_bus::BusCost {
                    time_ns: self.bus.stream_cost(rows_per_bus, self.cycle_ns).time_ns,
                    ..self.bus.stream_cost(rows, self.cycle_ns)
                };
                // Mat-side shifts feed the bus; their time is subsumed by
                // the stream, their energy is extra.
                let mat_shift_steps = rows * self.params.mat_shifts_per_row;
                cost.energy.shift_pj += bus.shift_pj + mat_shift_steps as f64 * self.shift_pj;
                cost.counters.shifts += rows + mat_shift_steps;
                cost.counters.shift_distance += rows + mat_shift_steps;
                // Pipelined: streaming overlaps processing.
                cost.busy_ns = proc_ns.max(bus.time_ns);
                cost.overlapped_ns = proc_ns.min(bus.time_ns);
                cost.excl_transfer_ns = (bus.time_ns - proc_ns).max(0.0);
                cost.proc_ns = (proc_ns - bus.time_ns).max(0.0);
                cost.transfer_is_conversion = false;
            }
            BusKind::Electrical => {
                let beats = rows * self.params.electrical_beats_per_row;
                let bus_ns = self.electrical.stream_ns(beats);
                // Each beat converts 1/beats_per_row of a row, so the
                // per-beat conversion energy is that fraction of the
                // per-row read/write energy.
                let (read_pj, write_pj) = self.electrical.stream_energy_split_pj(beats);
                let frac = 1.0 / self.params.electrical_beats_per_row as f64;
                let (read_pj, write_pj) = (read_pj * frac, write_pj * frac);
                cost.energy.read_pj += read_pj;
                cost.energy.write_pj += write_pj;
                cost.counters.reads += beats;
                cost.counters.writes += beats;
                // Conversions cannot overlap shifts/compute in the subarray.
                cost.busy_ns = proc_ns + bus_ns;
                cost.excl_transfer_ns = bus_ns;
                cost.proc_ns = proc_ns;
                cost.transfer_is_conversion = true;
            }
        }
        cost
    }

    fn tran_cost(&self, elements: u64) -> VpcCost {
        let rows = self.rows_for(elements);
        // Read at the source, write at the destination; reads and writes of
        // consecutive rows pipeline against each other.
        let mut busy_ns =
            self.read_ns + self.write_ns + (rows - 1) as f64 * self.read_ns.max(self.write_ns);
        let mut energy = EnergyBreakdown {
            read_pj: rows as f64 * self.read_pj,
            write_pj: rows as f64 * self.write_pj,
            ..EnergyBreakdown::default()
        };
        if self.bus_kind == BusKind::Electrical {
            // With electrical in-subarray buses the arriving rows must also
            // be distributed from the row buffer to the destination mats
            // over the narrow electrical bus (StreamPIM shifts them in
            // instead), costing extra conversion beats on the mat-side leg.
            let beats = rows as f64 * self.params.electrical_beats_per_row as f64 / 2.0;
            busy_ns += beats * self.write_ns;
            energy.write_pj += beats * self.write_pj / self.params.electrical_beats_per_row as f64;
        }
        VpcCost {
            busy_ns,
            energy,
            counters: OpCounters {
                reads: rows,
                writes: rows,
                ..OpCounters::default()
            },
            ..VpcCost::default()
        }
    }
}

/// Phase display label for round span names.
fn phase_label(phase: Phase) -> &'static str {
    match phase {
        Phase::Broadcast => "broadcast",
        Phase::Compute => "compute",
        Phase::Collect => "collect",
    }
}

/// Adds `delta` into `acc`, `times` times (saturating is unnecessary at the
/// scales involved; totals stay far below u64::MAX).
fn scale_counters(acc: &mut OpCounters, delta: OpCounters, times: u64) {
    acc.reads += delta.reads * times;
    acc.writes += delta.writes * times;
    acc.shifts += delta.shifts * times;
    acc.shift_distance += delta.shift_distance * times;
    acc.transverse_reads += delta.transverse_reads * times;
    acc.pim_adds += delta.pim_adds * times;
    acc.pim_muls += delta.pim_muls * times;
    acc.gate_ops += delta.gate_ops * times;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Round;
    use crate::vpc::VecRef;

    fn schedule(rounds: usize, computes_per_round: usize, len: u32) -> Schedule {
        let mut s = Schedule::new();
        for r in 0..rounds {
            let mut round = Round::new();
            round.broadcasts.push(Vpc::Tran {
                src: 600,
                dst: r as u32 % 8,
                len,
            });
            for i in 0..computes_per_round {
                let sub = (r * computes_per_round + i) as u32 % 512;
                round.computes.push(Vpc::Mul {
                    src1: VecRef::new(sub, len),
                    src2: VecRef::new(sub, len),
                });
                // Results scatter back across destination subarrays.
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

    fn run(opt: OptLevel) -> ExecReport {
        let cfg = StreamPimConfig::paper_default().with_opt(opt);
        Engine::new(&cfg).run(&schedule(20, 256, 2000), &Instruments::NONE, 1)
    }

    #[test]
    fn optimization_ordering_matches_figure_22() {
        let base = run(OptLevel::Base);
        let dist = run(OptLevel::Distribute);
        let unblock = run(OptLevel::Unblock);
        assert!(
            base.total_ns() > dist.total_ns(),
            "distribute must beat base: {} vs {}",
            base.total_ns(),
            dist.total_ns()
        );
        assert!(
            dist.total_ns() > unblock.total_ns(),
            "unblock must beat distribute: {} vs {}",
            dist.total_ns(),
            unblock.total_ns()
        );
        // The gaps are large (paper: 7.1x and 199.7x overall).
        assert!(base.total_ns() / dist.total_ns() > 2.0);
        assert!(dist.total_ns() / unblock.total_ns() > 2.0);
    }

    #[test]
    fn unblock_hides_transfers() {
        let unblock = run(OptLevel::Unblock);
        assert!(
            unblock.time.exclusive_transfer_fraction() < 0.05,
            "exclusive transfer should be tiny, got {}",
            unblock.time.exclusive_transfer_fraction()
        );
        assert!(unblock.time.overlapped_ns > 0.0);
    }

    #[test]
    fn energy_is_schedule_order_independent() {
        let base = run(OptLevel::Base);
        let unblock = run(OptLevel::Unblock);
        assert!((base.total_pj() - unblock.total_pj()).abs() / base.total_pj() < 1e-9);
    }

    #[test]
    fn electrical_bus_is_slower_and_hungrier() {
        let dw = run_with_config(StreamPimConfig::paper_default());
        let el = run_with_config(StreamPimConfig::electrical_bus());
        assert!(
            el.total_ns() > dw.total_ns() * 1.5,
            "{} vs {}",
            el.total_ns(),
            dw.total_ns()
        );
        assert!(el.total_pj() > dw.total_pj());
        assert!(el.energy.read_pj + el.energy.write_pj > dw.energy.read_pj + dw.energy.write_pj);
    }

    fn run_with_config(cfg: StreamPimConfig) -> ExecReport {
        Engine::new(&cfg).run(&schedule(20, 256, 2000), &Instruments::NONE, 1)
    }

    #[test]
    fn more_subarrays_help_until_saturation() {
        let times: Vec<f64> = [128u32, 256, 512, 1024]
            .iter()
            .map(|&n| {
                let cfg = StreamPimConfig::paper_default().with_pim_subarrays(n);
                // Spread computes over all subarrays of the variant.
                let mut s = Schedule::new();
                for r in 0..50 {
                    let mut round = Round::new();
                    for i in 0..1024usize {
                        let sub = ((r * 1024 + i) as u32) % n;
                        round.computes.push(Vpc::Mul {
                            src1: VecRef::new(sub, 2000),
                            src2: VecRef::new(sub, 2000),
                        });
                        round.collects.push(Vpc::Tran {
                            src: sub,
                            dst: (sub + 1) % n,
                            len: 1,
                        });
                    }
                    s.push(round);
                }
                Engine::new(&cfg).run(&s, &Instruments::NONE, 1).total_ns()
            })
            .collect();
        assert!(times[0] > times[1] && times[1] > times[2], "{times:?}");
        // Saturation: the 512 -> 1024 step gains less than 256 -> 512.
        let gain_512 = times[1] / times[2];
        let gain_1024 = times[2] / times[3];
        assert!(gain_1024 < gain_512, "{times:?}");
    }

    #[test]
    fn counters_track_work() {
        let r = run(OptLevel::Unblock);
        assert_eq!(r.counters.pim_muls, 20 * 256 * 2000);
        assert!(r.counters.reads > 0);
        assert!(r.counters.shifts > 0);
        assert_eq!(r.vpc.pim, 20 * 256);
        assert_eq!(r.vpc.moves, 20 * 257);
    }

    #[test]
    fn empty_schedule_is_free() {
        let cfg = StreamPimConfig::paper_default();
        let r = Engine::new(&cfg).run(&Schedule::new(), &Instruments::NONE, 1);
        assert_eq!(r.total_ns(), 0.0);
        assert_eq!(r.total_pj(), 0.0);
    }

    #[test]
    fn segment_size_sweep_small_overhead() {
        // Table V: shrinking segments from 1024 to 64 costs only ~2% time
        // and leaves energy unchanged.
        let t = |seg: u32| {
            // Full-utilization rounds (4 VPCs per subarray), as real
            // kernel lowerings produce.
            let cfg = StreamPimConfig::paper_default().with_segment_domains(seg);
            let r = Engine::new(&cfg).run(&schedule(20, 2048, 2600), &Instruments::NONE, 1);
            (r.total_ns(), r.total_pj())
        };
        let (t1024, e1024) = t(1024);
        let (t64, e64) = t(64);
        let overhead = t64 / t1024 - 1.0;
        assert!((0.0..0.10).contains(&overhead), "time overhead {overhead}");
        assert!((e64 - e1024).abs() / e1024 < 1e-9, "energy flat");
    }

    #[test]
    fn tracing_does_not_change_the_report() {
        let s = schedule(10, 64, 800);
        for opt in [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock] {
            let cfg = StreamPimConfig::paper_default().with_opt(opt);
            let engine = Engine::new(&cfg);
            let sink = pim_trace::Collector::new();
            let plain = engine.run(&s, &Instruments::NONE, 1);
            let traced = engine.run(
                &s,
                &Instruments {
                    sink: &sink,
                    ..Instruments::NONE
                },
                1,
            );
            assert_eq!(plain, traced, "sink must not perturb pricing ({opt:?})");
            assert!(sink.span_count() > 0, "phases should be recorded ({opt:?})");
        }
    }

    #[test]
    fn base_phase_spans_are_serial_and_tile_the_total() {
        let cfg = StreamPimConfig::paper_default().with_opt(OptLevel::Base);
        let s = schedule(5, 32, 600);
        let sink = pim_trace::Collector::new();
        let report = Engine::new(&cfg).run(
            &s,
            &Instruments {
                sink: &sink,
                ..Instruments::NONE
            },
            1,
        );
        let a = pim_trace::analyze::Analysis::of(&sink.spans());
        // Base is fully serial: compute and transfer never overlap, and the
        // phase spans tile [0, total] exactly (no controller floor here).
        assert_eq!(a.overlap_ns, 0.0, "base must not overlap");
        assert!(
            (a.makespan_ns - report.total_ns()).abs() / report.total_ns() < 1e-9,
            "spans end at the report total: {} vs {}",
            a.makespan_ns,
            report.total_ns()
        );
    }

    #[test]
    fn unblock_phase_spans_overlap_more_than_base() {
        let s = schedule(20, 256, 2000);
        let frac = |opt: OptLevel| {
            let cfg = StreamPimConfig::paper_default().with_opt(opt);
            let sink = pim_trace::Collector::new();
            Engine::new(&cfg).run(
                &s,
                &Instruments {
                    sink: &sink,
                    ..Instruments::NONE
                },
                1,
            );
            pim_trace::analyze::Analysis::of(&sink.spans()).overlap_fraction
        };
        let base = frac(OptLevel::Base);
        let unblock = frac(OptLevel::Unblock);
        assert_eq!(base, 0.0);
        assert!(
            unblock > base,
            "unblock must overlap transfers with compute: {unblock} vs {base}"
        );
    }

    #[test]
    fn parallel_pricing_is_byte_identical_to_serial() {
        let s = schedule(12, 96, 1500);
        for opt in [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock] {
            let cfg = StreamPimConfig::paper_default().with_opt(opt);
            let engine = Engine::new(&cfg);
            let serial = engine.run(&s, &Instruments::NONE, 1);
            for workers in [2usize, 3, 7, 16] {
                let par = engine.run(&s, &Instruments::NONE, workers);
                assert_eq!(serial, par, "workers={workers} opt={opt:?}");
                assert_eq!(
                    serial.total_ns().to_bits(),
                    par.total_ns().to_bits(),
                    "bit-identical totals (workers={workers} opt={opt:?})"
                );
            }
        }
    }

    #[test]
    fn repriced_run_is_byte_identical_to_cold_run() {
        for opt in [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock] {
            let cfg = StreamPimConfig::paper_default().with_opt(opt);
            let engine = Engine::new(&cfg);
            let mut table = PriceTable::new();

            // Cold-prime the table on one shape.
            let s1 = schedule(8, 64, 1200);
            let cold1 = engine.run(&s1, &Instruments::NONE, 1);
            let (warm1, fresh1) = engine.run_repriced(&s1, &Instruments::NONE, &mut table);
            assert_eq!(cold1, warm1, "first repriced run ({opt:?})");
            assert!(fresh1 > 0, "first run must price rows fresh");

            // Same shape again: every row replays from the memo.
            let (warm1b, fresh1b) = engine.run_repriced(&s1, &Instruments::NONE, &mut table);
            assert_eq!(cold1, warm1b);
            assert_eq!(fresh1b, 0, "identical schedule re-prices nothing");

            // Same DAG shape, different dimensions: only the
            // dimension-dependent keys price fresh, and the report still
            // matches cold pricing bit-for-bit.
            let s2 = schedule(8, 64, 900);
            let cold2 = engine.run(&s2, &Instruments::NONE, 1);
            let (warm2, fresh2) = engine.run_repriced(&s2, &Instruments::NONE, &mut table);
            assert_eq!(cold2, warm2, "near-miss repriced run ({opt:?})");
            assert!(fresh2 > 0, "changed dimensions must re-price");
            assert!(
                fresh2 < engine.price_requests(&s2).len() as u64,
                "unchanged rows must replay from the memo"
            );
            assert_eq!(
                cold2.total_ns().to_bits(),
                warm2.total_ns().to_bits(),
                "bit-identical totals ({opt:?})"
            );
        }
    }

    /// Every node of an attribution tree, floats as raw bits.
    fn tree_bits(tree: &pim_profile::AttributionTree) -> Vec<(String, OpCounters, [u64; 6], u64)> {
        let total = std::iter::once(("<total>", tree.total()));
        total
            .chain(tree.iter())
            .map(|(path, n)| {
                let e = &n.energy;
                let floats = [
                    e.read_pj,
                    e.write_pj,
                    e.shift_pj,
                    e.compute_pj,
                    e.other_pj,
                    n.busy_ns,
                ];
                (path.to_string(), n.ops, floats.map(f64::to_bits), n.records)
            })
            .collect()
    }

    #[test]
    fn repriced_attribution_is_bit_identical_to_cold_instrumented_run() {
        use pim_profile::AttributionProbe;
        for opt in [OptLevel::Base, OptLevel::Distribute, OptLevel::Unblock] {
            let cfg = StreamPimConfig::paper_default().with_opt(opt);
            let engine = Engine::new(&cfg);
            let mut table = PriceTable::new();
            // Warm the table on the shape and on a near miss of it.
            let s = schedule(6, 48, 1100);
            engine.run_repriced(&schedule(6, 48, 700), &Instruments::NONE, &mut table);
            engine.run_repriced(&s, &Instruments::NONE, &mut table);

            let cold = AttributionProbe::new();
            let cold_report = engine.run(
                &s,
                &Instruments {
                    probe: &cold,
                    ..Instruments::NONE
                },
                1,
            );
            let warm = AttributionProbe::new();
            let (warm_report, fresh) = engine.run_repriced(
                &s,
                &Instruments {
                    probe: &warm,
                    ..Instruments::NONE
                },
                &mut table,
            );
            assert_eq!(fresh, 0, "warm table replays every row ({opt:?})");
            assert_eq!(cold_report, warm_report, "{opt:?}");

            let (cold, warm) = (cold.into_tree(), warm.into_tree());
            assert_eq!(tree_bits(&cold), tree_bits(&warm), "{opt:?}");
        }
    }

    #[test]
    fn attribution_paths_name_each_vpc_lane_and_home() {
        use pim_profile::AttributionProbe;
        let cfg = StreamPimConfig::paper_default();
        let engine = Engine::new(&cfg);
        let s = schedule(6, 48, 1100);
        // Samples per path, built from the schedule alone.
        let mut want: std::collections::BTreeMap<String, u64> = Default::default();
        for round in &s.rounds {
            for t in round.broadcasts.iter().chain(&round.collects) {
                if let Vpc::Tran { dst, .. } = *t {
                    let lane = dst as u64 % engine.tran_lanes;
                    *want.entry(format!("bus/lane[{lane}]")).or_default() += 1;
                }
            }
            for c in &round.computes {
                let home = c.home_subarray().unwrap_or(0);
                *want.entry(format!("device/subarray[{home}]")).or_default() += 1;
            }
        }
        assert!(want.len() > 40, "the schedule spreads over many paths");
        let records =
            |tree: pim_profile::AttributionTree| -> std::collections::BTreeMap<String, u64> {
                tree.iter()
                    .filter(|(path, _)| *path != "device/controller")
                    .map(|(path, n)| (path.to_string(), n.records))
                    .collect()
            };

        let analytic = AttributionProbe::new();
        engine.run(
            &s,
            &Instruments {
                probe: &analytic,
                ..Instruments::NONE
            },
            1,
        );
        assert_eq!(records(analytic.into_tree()), want, "analytic engine");

        let event = AttributionProbe::new();
        crate::engine_event::EventEngine::new(&cfg).run(
            &s,
            &Instruments {
                probe: &event,
                ..Instruments::NONE
            },
        );
        assert_eq!(records(event.into_tree()), want, "event engine");
    }

    #[test]
    fn price_table_reports_hit_and_miss_counts() {
        let engine = Engine::new(&StreamPimConfig::paper_default());
        let mut table = PriceTable::new();
        assert!(table.is_empty());
        let s = schedule(2, 4, 500);
        let reqs = engine.price_requests(&s).len() as u64;
        let (_, fresh) = engine.run_repriced(&s, &Instruments::NONE, &mut table);
        assert_eq!(table.misses(), fresh);
        assert_eq!(table.hits(), reqs - fresh);
        assert_eq!(table.len() as u64, fresh);
        assert!(!table.is_empty());
    }

    #[test]
    fn vpc_counter_split() {
        let engine = Engine::new(&StreamPimConfig::paper_default());
        let mul = Vpc::Mul {
            src1: VecRef::new(0, 100),
            src2: VecRef::new(0, 100),
        };
        let tran = Vpc::Tran {
            src: 0,
            dst: 1,
            len: 100,
        };
        let m = engine.vpc_counters(&mul);
        assert!(m.pim_muls > 0 && m.reads == 0);
        let t = engine.vpc_counters(&tran);
        assert!(t.reads > 0 || t.writes > 0);
        assert_eq!(t.pim_muls, 0);
    }

    #[test]
    fn params_validation() {
        let p = EngineParams {
            dist_serialization: 1.5,
            ..EngineParams::default()
        };
        assert!(p.validate().is_err());
        let p = EngineParams {
            electrical_beats_per_row: 0,
            ..EngineParams::default()
        };
        assert!(p.validate().is_err());
        let p = EngineParams {
            bus_fill_exposure: 2.0,
            ..EngineParams::default()
        };
        assert!(p.validate().is_err());
        assert!(EngineParams::default().validate().is_ok());
    }
}
