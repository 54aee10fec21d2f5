//! The unified platform interface: one `run` call prices one workload on
//! any of the paper's seven platforms.

use crate::bitserial::BitSerialModel;
use crate::coruscant::CoruscantModel;
use crate::cpu::CpuModel;
use crate::gpu::GpuModel;
use pim_device::report::ExecReport;
use pim_device::schedule::Schedule;
use pim_device::task::PimTask;
use pim_device::{Instruments, Parallelism, PimError, PriceTable, StreamPim, StreamPimConfig};
use pim_trace::{Phase, Span, TraceSink, Track};
use pim_workloads::dnn::DnnModel;
use pim_workloads::polybench::KernelInstance;
use pim_workloads::profile::KernelProfile;
use pim_workloads::spec::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// The platforms of the paper's evaluation (Figure 17/18 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformKind {
    /// CPU host on racetrack main memory (the normalization baseline).
    CpuRm,
    /// CPU host on DDR4 DRAM.
    CpuDram,
    /// Discrete GPU with PCIe staging (Figure 3b only).
    Gpu,
    /// StreamPIM with both optimizations and the domain-wall bus.
    StPim,
    /// StreamPIM with electrical in-subarray buses (`StPIM-e`).
    StPimE,
    /// CORUSCANT (transverse-read process-in-RM).
    Coruscant,
    /// ELP2IM (bit-serial process-in-DRAM).
    Elp2im,
    /// FELIX (bit-serial process-in-NVM).
    Felix,
}

impl PlatformKind {
    /// The display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PlatformKind::CpuRm => "CPU-RM",
            PlatformKind::CpuDram => "CPU-DRAM",
            PlatformKind::Gpu => "GPU",
            PlatformKind::StPim => "StPIM",
            PlatformKind::StPimE => "StPIM-e",
            PlatformKind::Coruscant => "CORUSCANT",
            PlatformKind::Elp2im => "ELP2IM",
            PlatformKind::Felix => "FELIX",
        }
    }

    /// The platforms of Figure 17/18, in presentation order.
    pub const FIGURE_17: [PlatformKind; 7] = [
        PlatformKind::CpuRm,
        PlatformKind::CpuDram,
        PlatformKind::Elp2im,
        PlatformKind::Felix,
        PlatformKind::Coruscant,
        PlatformKind::StPimE,
        PlatformKind::StPim,
    ];
}

impl std::fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A workload in both representations the platforms consume.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: String,
    /// Host-side characterization (CPU/GPU platforms).
    pub profile: KernelProfile,
    /// PIM task (PIM platforms lower it with their own configuration).
    pub task: PimTask,
}

impl Workload {
    /// Builds the workload for a polybench kernel instance (shape-only
    /// task: full-size instances are priced, not functionally executed).
    pub fn from_kernel(inst: &KernelInstance) -> Self {
        Workload {
            name: inst.kernel.name().to_string(),
            profile: inst.profile(),
            task: inst.build_task(None).task,
        }
    }

    /// Builds the offloadable part of a DNN model.
    pub fn from_dnn(model: &DnnModel) -> Self {
        Workload {
            name: model.name.clone(),
            profile: model.offload_profile(),
            task: model.build_task(),
        }
    }

    /// Materializes a serializable [`WorkloadSpec`] (the runtime's job
    /// request format) into both platform representations.
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        Workload {
            name: spec.name(),
            profile: spec.profile(),
            task: spec.build_task(),
        }
    }
}

/// A ready-to-run platform.
#[derive(Debug, Clone)]
pub struct Platform {
    kind: PlatformKind,
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    Cpu(CpuModel),
    Gpu(GpuModel),
    StreamPim(StreamPim),
    Coruscant(CoruscantModel),
    BitSerial(BitSerialModel),
}

impl Platform {
    /// Builds a platform with its paper-default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::Config`] if a StreamPIM configuration fails to
    /// validate (cannot happen for the built-in defaults).
    pub fn new(kind: PlatformKind) -> Result<Platform, PimError> {
        let inner = match kind {
            PlatformKind::CpuRm => Inner::Cpu(CpuModel::cpu_rm()),
            PlatformKind::CpuDram => Inner::Cpu(CpuModel::cpu_dram()),
            PlatformKind::Gpu => Inner::Gpu(GpuModel::paper_default()),
            PlatformKind::StPim => {
                Inner::StreamPim(StreamPim::new(StreamPimConfig::paper_default())?)
            }
            PlatformKind::StPimE => {
                Inner::StreamPim(StreamPim::new(StreamPimConfig::electrical_bus())?)
            }
            PlatformKind::Coruscant => Inner::Coruscant(CoruscantModel::paper_default()),
            PlatformKind::Elp2im => Inner::BitSerial(BitSerialModel::elp2im()),
            PlatformKind::Felix => Inner::BitSerial(BitSerialModel::felix()),
        };
        Ok(Platform { kind, inner })
    }

    /// Wraps a custom StreamPIM configuration (sensitivity sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::Config`] for invalid configurations.
    pub fn stream_pim(config: StreamPimConfig) -> Result<Platform, PimError> {
        Ok(Platform {
            kind: PlatformKind::StPim,
            inner: Inner::StreamPim(StreamPim::new(config)?),
        })
    }

    /// Builds a platform like [`Platform::new`], overriding the StreamPIM
    /// scheduling-model parameters where the platform embeds a StreamPIM
    /// device (StPIM / StPIM-e); every other platform is unaffected. The
    /// fidelity gate uses this to deliberately perturb the model.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::Config`] for invalid engine parameters.
    pub fn with_engine_params(
        kind: PlatformKind,
        engine: &pim_device::engine::EngineParams,
    ) -> Result<Platform, PimError> {
        let mut p = Platform::new(kind)?;
        if let Inner::StreamPim(device) = &p.inner {
            let cfg = device.config().clone().with_engine(*engine);
            p.inner = Inner::StreamPim(StreamPim::new(cfg)?);
        }
        Ok(p)
    }

    /// Variant with a different intra-run [`Parallelism`] level on the
    /// embedded StreamPIM device; a no-op for every other platform (their
    /// models are closed-form). Simulated results are byte-identical at
    /// every level — only the simulation's wall-clock changes.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        if let Inner::StreamPim(device) = &mut self.inner {
            *device = device.clone().with_parallelism(parallelism);
        }
        self
    }

    /// The intra-run parallelism of the embedded StreamPIM device, or
    /// `None` for platforms without one.
    pub fn parallelism(&self) -> Option<Parallelism> {
        match &self.inner {
            Inner::StreamPim(device) => Some(device.parallelism()),
            _ => None,
        }
    }

    /// The platform kind.
    pub fn kind(&self) -> PlatformKind {
        self.kind
    }

    /// The platform's display name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Prices `workload` on this platform.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::EmptyTask`] if a PIM platform receives a
    /// workload whose task has no operations.
    pub fn run(&self, workload: &Workload) -> Result<ExecReport, PimError> {
        self.run_with_schedule(workload, None)
    }

    /// The StreamPIM configuration whose lowering this platform prices, or
    /// `None` for host platforms that never lower (CPU/GPU). Schedules
    /// lowered under this configuration can be passed back through
    /// [`Platform::run_with_schedule`]; platforms returning the same
    /// configuration can share cached schedules for the same task.
    pub fn lowering_config(&self) -> Option<StreamPimConfig> {
        match &self.inner {
            Inner::Cpu(_) | Inner::Gpu(_) => None,
            Inner::StreamPim(device) => Some(device.config().clone()),
            // The idealized PIM baselines price word-level work derived
            // from the reference (paper-default) lowering.
            Inner::Coruscant(_) | Inner::BitSerial(_) => Some(StreamPimConfig::paper_default()),
        }
    }

    /// Prices `workload`, reusing a previously lowered `schedule` when one
    /// is supplied. The schedule must come from lowering `workload.task`
    /// under this platform's [`Platform::lowering_config`]; lowering is
    /// deterministic, so the result is identical to [`Platform::run`] —
    /// only the lowering cost is skipped. Host platforms ignore the
    /// schedule.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::EmptyTask`] if a PIM platform must lower a
    /// workload whose task has no operations.
    pub fn run_with_schedule(
        &self,
        workload: &Workload,
        schedule: Option<&Schedule>,
    ) -> Result<ExecReport, PimError> {
        self.run_instrumented(workload, schedule, &Instruments::NONE)
    }

    /// [`Platform::run_with_schedule`] observed by `instruments`.
    ///
    /// The sink receives spans describing the execution timeline:
    /// StreamPIM platforms emit the analytic engine's per-round phase
    /// spans; every other platform emits a single span covering its
    /// closed-form total (those models have no internal timeline to
    /// expose).
    ///
    /// The probe receives per-component attribution: StreamPIM platforms
    /// emit the engine's component paths (`bus/lane[k]`,
    /// `device/subarray[s]`, `device/controller`); the closed-form hosts
    /// record one sample at `host/cpu` / `host/gpu`; the idealized PIM
    /// baselines split theirs across `device/<platform>` (compute),
    /// `bus/internal` (operand and result placement traffic) and
    /// `device/peripherals` (static power). Recorded energy and counters
    /// sum exactly to the returned report's totals.
    ///
    /// The report is identical for every sink/probe combination.
    ///
    /// # Errors
    ///
    /// Same as [`Platform::run_with_schedule`].
    pub fn run_instrumented(
        &self,
        workload: &Workload,
        schedule: Option<&Schedule>,
        instruments: &Instruments,
    ) -> Result<ExecReport, PimError> {
        let Instruments { sink, probe } = *instruments;
        let mut report = match &self.inner {
            Inner::Cpu(m) => {
                let r = m.run_profile(&workload.profile);
                emit_platform_span(sink, self.name(), workload, &r);
                record_report_sample(probe, "host/cpu", &r);
                return Ok(r);
            }
            Inner::Gpu(m) => {
                let r = m.run_profile(&workload.profile);
                emit_platform_span(sink, self.name(), workload, &r);
                record_report_sample(probe, "host/gpu", &r);
                return Ok(r);
            }
            Inner::StreamPim(device) => {
                let lowered;
                let s = match schedule {
                    Some(s) => s,
                    // `PimTask::price` is exactly lower-then-execute, so
                    // lowering here keeps the instrumented and plain paths
                    // byte-identical.
                    None => {
                        lowered = workload.task.lower(device)?;
                        &lowered
                    }
                };
                device.execute(s, instruments)
            }
            Inner::Coruscant(_) | Inner::BitSerial(_) => {
                let lowered;
                let s = match schedule {
                    Some(s) => s,
                    None => {
                        lowered = workload.task.lower(&reference_device()?)?;
                        &lowered
                    }
                };
                let (mut r, path) = match &self.inner {
                    Inner::Coruscant(m) => (m.run_schedule(s), "device/coruscant"),
                    Inner::BitSerial(m) if self.kind == PlatformKind::Felix => {
                        (m.run_schedule(s), "device/felix")
                    }
                    Inner::BitSerial(m) => (m.run_schedule(s), "device/elp2im"),
                    _ => unreachable!("matched a closed-form PIM baseline above"),
                };
                record_report_sample(probe, path, &r);
                add_baseline_movement(&mut r, s, probe);
                r
            }
        };
        add_pim_static_power(&mut report, probe);
        if !matches!(&self.inner, Inner::StreamPim(_)) {
            // The idealized PIM baselines are closed-form too: one span.
            emit_platform_span(sink, self.name(), workload, &report);
        }
        Ok(report)
    }

    /// Prices a pre-lowered `schedule` on the embedded StreamPIM device
    /// through a [`PriceTable`] memo (see
    /// [`pim_device::StreamPim::execute_repriced`]), applying the same
    /// static-power post-processing as [`Platform::run_with_schedule`] so
    /// the returned report is byte-identical to it at any table state.
    /// Returns the report plus the number of rows priced fresh this run,
    /// or `None` for platforms without an embedded StreamPIM device
    /// (hosts and the closed-form PIM baselines), which must take the
    /// workload-carrying path instead.
    ///
    /// The table must only ever be fed by this platform's configuration —
    /// callers key tables by [`Platform::lowering_config`].
    pub fn run_schedule_repriced(
        &self,
        schedule: &Schedule,
        table: &mut PriceTable,
    ) -> Option<(ExecReport, u64)> {
        self.run_schedule_repriced_instrumented(schedule, table, &Instruments::NONE)
    }

    /// [`Platform::run_schedule_repriced`] observed by `instruments`. The
    /// engine's re-pricing contract extends to instruments: report, spans
    /// and probe samples (including the static-power `device/peripherals`
    /// sample added here) are byte-identical to a cold instrumented run at
    /// any table state — this is what lets the serving flight recorder
    /// observe every request on the memoized fast path.
    pub fn run_schedule_repriced_instrumented(
        &self,
        schedule: &Schedule,
        table: &mut PriceTable,
        instruments: &Instruments,
    ) -> Option<(ExecReport, u64)> {
        let Inner::StreamPim(device) = &self.inner else {
            return None;
        };
        let (mut report, fresh) = device.execute_repriced(schedule, instruments, table);
        add_pim_static_power(&mut report, instruments.probe);
        Some((report, fresh))
    }
}

/// Peripheral/controller static power of the PIM device over the execution
/// (the CPU/GPU models fold theirs into per-op energies). Shared by the
/// instrumented and repriced paths so both post-process identically; public
/// so the cluster layer's single-device path applies the *same* charge and
/// stays byte-identical to this platform.
pub fn add_pim_static_power(report: &mut ExecReport, probe: &dyn rm_core::Probe) {
    let static_pj = report.time.total_ns() * PIM_STATIC_W * 1000.0;
    report.energy.other_pj += static_pj;
    if probe.enabled() {
        probe.record(
            "device/peripherals",
            rm_core::ProbeSample::energy(rm_core::EnergyBreakdown {
                other_pj: static_pj,
                ..rm_core::EnergyBreakdown::default()
            }),
        );
    }
}

/// One whole-report attribution sample for closed-form models.
fn record_report_sample(probe: &dyn rm_core::Probe, path: &str, r: &ExecReport) {
    if probe.enabled() {
        probe.record(
            path,
            rm_core::ProbeSample {
                ops: r.counters,
                energy: r.energy,
                busy_ns: r.total_ns(),
            },
        );
    }
}

/// One whole-run span for platforms without an internal timeline.
fn emit_platform_span(sink: &dyn TraceSink, platform: &'static str, w: &Workload, r: &ExecReport) {
    if sink.enabled() && r.total_ns() > 0.0 {
        sink.record_span(
            Span::sim(
                format!("{platform} {}", w.name),
                "compute",
                Track::Phase(Phase::Compute),
                0.0,
                r.total_ns(),
            )
            .arg("platform", platform)
            .arg("time_ns", r.total_ns())
            .arg("energy_pj", r.total_pj()),
        );
    }
}

/// Static (peripheral + controller leakage) power of a PIM device, watts.
pub const PIM_STATIC_W: f64 = 0.08;

/// Charges a baseline PIM platform the workload's inherent data-placement
/// traffic. Unlike StreamPIM, the baselines lack the `distribute`/`unblock`
/// co-design, so operand distribution and result collection serialize over
/// the single shared internal bus — one 64-word row per read+write
/// transaction (the paper's §V-B explanation of why they trail StreamPIM).
/// An enabled `probe` receives the exact charged quantities at
/// `bus/internal`.
fn add_baseline_movement(report: &mut ExecReport, schedule: &Schedule, probe: &dyn rm_core::Probe) {
    let timing = rm_core::TimingParams::paper_default();
    let energy = rm_core::EnergyParams::paper_default();
    let rows = schedule.work_counts().elements_moved.div_ceil(64) as f64;
    // Reads and writes of consecutive rows pipeline against each other, so
    // the stream is bound by the slower conversion (the RM write); source
    // and destination halves of the device transfer concurrently (two
    // effective lanes).
    let stream_ns = rows * timing.read_ns.max(timing.write_ns) / 2.0;
    report.time.read_ns += stream_ns * timing.read_ns / (timing.read_ns + timing.write_ns);
    report.time.write_ns += stream_ns * timing.write_ns / (timing.read_ns + timing.write_ns);
    report.energy.read_pj += rows * energy.read_pj;
    report.energy.write_pj += rows * energy.write_pj;
    report.counters.reads += rows as u64;
    report.counters.writes += rows as u64;
    if probe.enabled() {
        probe.record(
            "bus/internal",
            rm_core::ProbeSample {
                ops: rm_core::OpCounters {
                    reads: rows as u64,
                    writes: rows as u64,
                    ..rm_core::OpCounters::default()
                },
                energy: rm_core::EnergyBreakdown {
                    read_pj: rows * energy.read_pj,
                    write_pj: rows * energy.write_pj,
                    ..rm_core::EnergyBreakdown::default()
                },
                busy_ns: stream_ns,
            },
        );
    }
}

/// The reference device used to derive word-level work counts for the
/// idealized PIM baselines (CORUSCANT/ELP2IM/FELIX price the same work).
fn reference_device() -> Result<StreamPim, PimError> {
    StreamPim::new(StreamPimConfig::paper_default())
}

/// Prices a DNN inference end-to-end on `platform` (paper §V-E): the
/// matrix work runs on the platform, the non-offloadable remainder runs on
/// the CPU-DRAM host regardless of platform.
///
/// # Errors
///
/// Propagates platform errors (see [`Platform::run`]).
pub fn dnn_end_to_end(platform: &Platform, model: &DnnModel) -> Result<ExecReport, PimError> {
    let workload = Workload::from_dnn(model);
    let offload = platform.run(&workload)?;

    // The non-offloadable share is defined relative to the CPU-DRAM
    // baseline: fraction f of its total time is nonlinear/host work.
    let cpu = Platform::new(PlatformKind::CpuDram)?;
    let cpu_offload = cpu.run(&workload)?;
    let f = model.non_offload_fraction;
    let host_ns = cpu_offload.total_ns() * f / (1.0 - f);
    let host_pj = cpu_offload.total_pj() * f / (1.0 - f);

    let mut total = offload;
    total.time.process_ns += host_ns;
    total.energy.compute_pj += host_pj;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_workloads::polybench::Kernel;

    #[test]
    fn all_platforms_run_a_kernel() {
        let w = Workload::from_kernel(&Kernel::Gemm.scaled(0.02));
        for kind in PlatformKind::FIGURE_17 {
            let p = Platform::new(kind).unwrap();
            let r = p.run(&w).unwrap();
            assert!(r.total_ns() > 0.0, "{kind} time");
            assert!(r.total_pj() > 0.0, "{kind} energy");
        }
    }

    #[test]
    fn stpim_is_fastest_pim_platform_on_gemm() {
        // Use a moderately sized kernel so parallelism matters.
        let w = Workload::from_kernel(&Kernel::Gemm.scaled(0.5));
        let run = |k: PlatformKind| Platform::new(k).unwrap().run(&w).unwrap().total_ns();
        let stpim = run(PlatformKind::StPim);
        assert!(stpim < run(PlatformKind::StPimE), "beats StPIM-e");
        assert!(stpim < run(PlatformKind::Coruscant), "beats CORUSCANT");
        assert!(stpim < run(PlatformKind::Elp2im), "beats ELP2IM");
        assert!(stpim < run(PlatformKind::Felix), "beats FELIX");
        assert!(stpim < run(PlatformKind::CpuRm), "beats CPU-RM");
    }

    #[test]
    fn cached_schedule_reproduces_direct_run() {
        let w = Workload::from_kernel(&Kernel::Atax.scaled(0.02));
        for kind in PlatformKind::FIGURE_17 {
            let p = Platform::new(kind).unwrap();
            let direct = p.run(&w).unwrap();
            let schedule = p
                .lowering_config()
                .map(|cfg| w.task.lower(&StreamPim::new(cfg).unwrap()).unwrap());
            let cached = p.run_with_schedule(&w, schedule.as_ref()).unwrap();
            assert_eq!(direct, cached, "{kind}: schedule reuse changes nothing");
        }
    }

    #[test]
    fn from_spec_matches_from_kernel() {
        let spec = WorkloadSpec::polybench(Kernel::Gemm, 0.02);
        let a = Workload::from_spec(&spec);
        let b = Workload::from_kernel(&Kernel::Gemm.scaled(0.02));
        // Spec names carry the scale suffix; the priced work is identical.
        assert!(a.name.starts_with(&b.name), "{} vs {}", a.name, b.name);
        assert_eq!(a.profile, b.profile);
        let p = Platform::new(PlatformKind::StPim).unwrap();
        assert_eq!(p.run(&a).unwrap(), p.run(&b).unwrap());
    }

    #[test]
    fn traced_run_matches_untraced_on_every_platform() {
        let w = Workload::from_kernel(&Kernel::Gemm.scaled(0.02));
        for kind in PlatformKind::FIGURE_17 {
            let p = Platform::new(kind).unwrap();
            let sink = pim_trace::Collector::new();
            let traced = p
                .run_instrumented(
                    &w,
                    None,
                    &Instruments {
                        sink: &sink,
                        ..Instruments::NONE
                    },
                )
                .unwrap();
            let plain = p.run(&w).unwrap();
            assert_eq!(traced, plain, "{kind}: tracing must not change pricing");
            assert!(sink.span_count() > 0, "{kind}: no spans recorded");
            // A probe riding along must not change the report or the spans.
            let both = pim_trace::Collector::new();
            let probe = rm_core::shard::BufferProbe::new();
            let combined = p
                .run_instrumented(
                    &w,
                    None,
                    &Instruments {
                        sink: &both,
                        probe: &probe,
                    },
                )
                .unwrap();
            assert_eq!(
                combined, plain,
                "{kind}: sink + probe must not change pricing"
            );
            assert_eq!(
                both.spans(),
                sink.spans(),
                "{kind}: a probe changed the spans"
            );
        }
    }

    #[test]
    fn profiled_run_conserves_report_totals_on_every_platform() {
        use std::sync::Mutex;

        /// Sums every sample it sees, ignoring paths.
        #[derive(Debug, Default)]
        struct SumProbe(Mutex<(rm_core::OpCounters, rm_core::EnergyBreakdown)>);
        impl rm_core::Probe for SumProbe {
            fn enabled(&self) -> bool {
                true
            }
            fn record(&self, _path: &str, sample: rm_core::ProbeSample) {
                let mut tot = self.0.lock().unwrap();
                tot.0 += sample.ops;
                tot.1 += sample.energy;
            }
        }

        let w = Workload::from_kernel(&Kernel::Gemm.scaled(0.02));
        for kind in PlatformKind::FIGURE_17 {
            let p = Platform::new(kind).unwrap();
            let probe = SumProbe::default();
            let profiled = p
                .run_instrumented(
                    &w,
                    None,
                    &Instruments {
                        probe: &probe,
                        ..Instruments::NONE
                    },
                )
                .unwrap();
            let plain = p.run(&w).unwrap();
            assert_eq!(profiled, plain, "{kind}: profiling must not change pricing");
            let (ops, energy) = *probe.0.lock().unwrap();
            assert_eq!(ops, profiled.counters, "{kind}: counter conservation");
            assert_eq!(
                energy.total_pj(),
                profiled.energy.total_pj(),
                "{kind}: energy conservation"
            );
            // A sink riding along must not change the report or the samples.
            let both = SumProbe::default();
            let combined = p
                .run_instrumented(
                    &w,
                    None,
                    &Instruments {
                        sink: &pim_trace::Collector::new(),
                        probe: &both,
                    },
                )
                .unwrap();
            assert_eq!(
                combined, plain,
                "{kind}: sink + probe must not change pricing"
            );
            assert_eq!(
                *both.0.lock().unwrap(),
                (ops, energy),
                "{kind}: a sink changed the samples"
            );
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(PlatformKind::StPim.name(), "StPIM");
        assert_eq!(PlatformKind::Coruscant.name(), "CORUSCANT");
        assert_eq!(PlatformKind::FIGURE_17.len(), 7);
    }

    #[test]
    fn dnn_end_to_end_is_bounded_by_amdahl() {
        let model = DnnModel::bert();
        let stpim = Platform::new(PlatformKind::StPim).unwrap();
        let cpu = Platform::new(PlatformKind::CpuDram).unwrap();
        let t_pim = dnn_end_to_end(&stpim, &model).unwrap().total_ns();
        let t_cpu = dnn_end_to_end(&cpu, &model).unwrap().total_ns();
        let speedup = t_cpu / t_pim;
        let amdahl_cap = 1.0 / model.non_offload_fraction;
        assert!(speedup > 1.0, "PIM helps: {speedup}");
        assert!(
            speedup < amdahl_cap,
            "bounded by the non-offloadable share: {speedup}"
        );
    }
}
