//! StreamPIM device configuration and entry points.

use crate::engine::{Engine, EngineParams};
use crate::instruments::Instruments;
use crate::placement::PlacementKind;
use crate::report::ExecReport;
use crate::schedule::Schedule;
use crate::Result;
use rm_core::config::BusKind;
use rm_core::DeviceConfig;
use serde::{Deserialize, Serialize};

/// Which of the paper's §IV-C optimizations are active (Figure 22's ablation
/// axis). Each level includes the previous ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OptLevel {
    /// Naive: sequential placement, natural command order.
    Base,
    /// `distribute`: rows spread across PIM subarrays, operands broadcast,
    /// results collected — but the natural command order still lets
    /// read/write traffic block computation.
    Distribute,
    /// `distribute` + `unblock`: disjoint operand/result subarray sets and
    /// reordered commands, so transfers overlap computation.
    #[default]
    Unblock,
}

impl OptLevel {
    /// The placement policy this level implies.
    pub fn placement(self) -> PlacementKind {
        match self {
            OptLevel::Base => PlacementKind::Base,
            OptLevel::Distribute | OptLevel::Unblock => PlacementKind::Distribute,
        }
    }

    /// Whether transfers may overlap computation across subarrays.
    pub fn overlaps_transfers(self) -> bool {
        matches!(self, OptLevel::Unblock)
    }
}

/// How many OS threads a single simulated run may use internally.
///
/// This is a *simulator* knob, not a device-model parameter: it never
/// changes any simulated result (the sharded paths reduce deterministically
/// and are byte-identical to serial), only the wall-clock time of the
/// simulation itself. It therefore lives on [`StreamPim`] rather than in
/// [`StreamPimConfig`], keeping config fingerprints, cache keys, and the
/// fidelity gate oblivious to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Parallelism {
    /// Single-threaded (the default).
    #[default]
    Serial,
    /// Exactly this many worker threads (clamped to at least 1).
    Threads(usize),
    /// One thread per available CPU — or, under the pim-runtime thread
    /// budget, the batch's fair share of the machine.
    Auto,
}

impl Parallelism {
    /// Worker count this level resolves to on a machine with `total`
    /// hardware threads.
    pub fn resolve(self, total: usize) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => total.max(1),
        }
    }

    /// [`Parallelism::resolve`] against the machine's available parallelism.
    pub fn resolve_here(self) -> usize {
        let total = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.resolve(total)
    }

    /// Minimum pricing rows each worker must receive before `Auto` spawns
    /// it. Pricing one analytic row costs tens of nanoseconds while a
    /// scoped worker thread costs tens of microseconds to spawn and join,
    /// so the break-even shard is a few thousand rows; below it, threads
    /// are pure overhead on small shapes (DESIGN.md §15 has the
    /// measurement). `Serial` and `Threads(n)` are explicit demands and
    /// bypass this heuristic.
    pub const AUTO_MIN_ROWS_PER_WORKER: usize = 2048;

    /// Worker count for a run whose hot loop has `rows` independent work
    /// items, on a machine with `total` hardware threads. `Auto` grants
    /// one worker per [`Parallelism::AUTO_MIN_ROWS_PER_WORKER`] rows
    /// (capped at `total`), so small shapes run serial instead of paying
    /// thread spawn/join for shards that finish in microseconds. Explicit
    /// levels resolve exactly as [`Parallelism::resolve`].
    pub fn resolve_for_rows(self, total: usize, rows: usize) -> usize {
        match self {
            Parallelism::Auto => (rows / Self::AUTO_MIN_ROWS_PER_WORKER).clamp(1, total.max(1)),
            explicit => explicit.resolve(total),
        }
    }
}

/// Full configuration of a simulated StreamPIM platform.
///
/// `Hash` is structural (see [`rm_core::FnvHasher`]); cache keys and
/// fingerprints are derived from it without a `Debug` rendering.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct StreamPimConfig {
    /// Device geometry, timing, energy and PIM knobs (Table III defaults).
    pub device: DeviceConfig,
    /// Optimization level (paper default: both optimizations on).
    pub opt: OptLevel,
    /// Scheduling-model parameters (see [`EngineParams`]).
    pub engine: EngineParams,
}

impl StreamPimConfig {
    /// The paper's evaluated configuration: Table III device, domain-wall
    /// bus, `distribute` + `unblock`.
    pub fn paper_default() -> Self {
        StreamPimConfig {
            device: DeviceConfig::paper_default(),
            opt: OptLevel::Unblock,
            engine: EngineParams::default(),
        }
    }

    /// The `StPIM-e` ablation: identical, but the in-subarray RM buses are
    /// replaced with electrical buses.
    pub fn electrical_bus() -> Self {
        let mut cfg = StreamPimConfig::paper_default();
        cfg.device.bus = BusKind::Electrical;
        cfg
    }

    /// Variant with a different optimization level (Figure 22).
    pub fn with_opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }

    /// Variant with a different PIM subarray count (Figure 21). The count
    /// must be a multiple of the PIM bank count; subarrays-per-bank is
    /// adjusted (the paper co-adjusts capacity per subarray; capacity only
    /// affects placement spans, which scale accordingly).
    pub fn with_pim_subarrays(mut self, count: u32) -> Self {
        let banks = self.device.pim_banks.max(1);
        self.device.geometry.subarrays_per_bank = (count / banks).max(1);
        self
    }

    /// Variant with a different bus segment size (Table V).
    pub fn with_segment_domains(mut self, segment_domains: u32) -> Self {
        self.device.segment_domains = segment_domains;
        self
    }

    /// Variant with different scheduling-model parameters (used by the
    /// fidelity gate to deliberately perturb the engine).
    pub fn with_engine(mut self, engine: EngineParams) -> Self {
        self.engine = engine;
        self
    }
}

impl Default for StreamPimConfig {
    fn default() -> Self {
        StreamPimConfig::paper_default()
    }
}

/// A simulated StreamPIM device.
///
/// ```
/// use pim_device::{StreamPim, StreamPimConfig};
///
/// let device = StreamPim::new(StreamPimConfig::default())?;
/// assert_eq!(device.config().device.pim_subarrays(), 512);
/// # Ok::<(), pim_device::PimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamPim {
    config: StreamPimConfig,
    parallelism: Parallelism,
}

impl StreamPim {
    /// Validates `config` and builds the device.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PimError::Config`] for inconsistent configurations.
    pub fn new(config: StreamPimConfig) -> Result<Self> {
        config
            .device
            .validate()
            .map_err(|e| crate::PimError::Config(e.to_string()))?;
        config.engine.validate().map_err(crate::PimError::Config)?;
        Ok(StreamPim {
            config,
            parallelism: Parallelism::Serial,
        })
    }

    /// The device configuration.
    #[inline]
    pub fn config(&self) -> &StreamPimConfig {
        &self.config
    }

    /// Variant with a different intra-run parallelism level. Results are
    /// byte-identical at every level; only simulation wall-clock changes.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The intra-run parallelism level of this device instance.
    #[inline]
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Worker threads a run over `schedule` will use: the device's
    /// parallelism level resolved against the machine *and* the schedule's
    /// pricing-row count, so `Auto` declines to spawn threads for shapes
    /// whose shards would finish faster than the threads start (see
    /// [`Parallelism::resolve_for_rows`]). Only `Auto` reads the machine
    /// width; explicit levels ignore it.
    fn workers(&self, schedule: &Schedule) -> usize {
        if self.parallelism != Parallelism::Auto {
            return self.parallelism.resolve(1);
        }
        let rows: usize = schedule
            .rounds
            .iter()
            .map(|r| r.broadcasts.len() + r.collects.len() + r.computes.len())
            .sum();
        Parallelism::Auto.resolve_for_rows(Parallelism::Auto.resolve_here(), rows)
    }

    /// Prices a schedule on this device, observed by `instruments`: the core
    /// simulation entry point. Phase spans go to the sink and component
    /// attribution to the probe (see [`Engine::run`] for the paths and the
    /// conservation contract); the report is identical for every
    /// sink/probe combination.
    pub fn execute(&self, schedule: &Schedule, instruments: &Instruments) -> ExecReport {
        Engine::new(&self.config).run(schedule, instruments, self.workers(schedule))
    }

    /// Like [`StreamPim::execute`], but prices through a
    /// [`crate::engine::PriceTable`] memo: rows already priced by an earlier
    /// run of this configuration are replayed, only new `(kind, len)` rows
    /// are priced fresh. Returns the report plus the number of rows priced
    /// fresh this run. The report — and every span and probe sample — is
    /// byte-identical to [`StreamPim::execute`] at any table state (see
    /// [`Engine::run_repriced`]), so always-on observers (the serving
    /// flight recorder) can ride the memoized fast path without forcing a
    /// cold price.
    pub fn execute_repriced(
        &self,
        schedule: &Schedule,
        instruments: &Instruments,
        table: &mut crate::engine::PriceTable,
    ) -> (ExecReport, u64) {
        Engine::new(&self.config).run_repriced(schedule, instruments, table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_validates() {
        let d = StreamPim::new(StreamPimConfig::paper_default()).unwrap();
        assert_eq!(d.config().opt, OptLevel::Unblock);
    }

    #[test]
    fn opt_levels() {
        assert_eq!(OptLevel::Base.placement(), PlacementKind::Base);
        assert_eq!(OptLevel::Distribute.placement(), PlacementKind::Distribute);
        assert!(OptLevel::Unblock.overlaps_transfers());
        assert!(!OptLevel::Distribute.overlaps_transfers());
    }

    #[test]
    fn pim_subarray_sweep() {
        for count in [128u32, 256, 512, 1024] {
            let cfg = StreamPimConfig::paper_default().with_pim_subarrays(count);
            assert_eq!(cfg.device.pim_subarrays(), count);
            StreamPim::new(cfg).unwrap();
        }
    }

    #[test]
    fn electrical_variant() {
        let cfg = StreamPimConfig::electrical_bus();
        assert_eq!(cfg.device.bus, BusKind::Electrical);
        StreamPim::new(cfg).unwrap();
    }

    #[test]
    fn segment_sweep() {
        for seg in [64u32, 256, 512, 1024] {
            let cfg = StreamPimConfig::paper_default().with_segment_domains(seg);
            assert_eq!(cfg.device.segment_domains, seg);
            StreamPim::new(cfg).unwrap();
        }
    }

    #[test]
    fn parallelism_resolves_and_never_changes_results() {
        assert_eq!(Parallelism::Serial.resolve(8), 1);
        assert_eq!(Parallelism::Threads(0).resolve(8), 1);
        assert_eq!(Parallelism::Threads(7).resolve(8), 7);
        assert_eq!(Parallelism::Auto.resolve(8), 8);
        assert_eq!(Parallelism::Auto.resolve(0), 1);
        assert_eq!(Parallelism::default(), Parallelism::Serial);

        let serial = StreamPim::new(StreamPimConfig::paper_default()).unwrap();
        let threaded = serial.clone().with_parallelism(Parallelism::Threads(4));
        assert_eq!(threaded.parallelism(), Parallelism::Threads(4));
        let mut s = Schedule::new();
        let mut round = crate::schedule::Round::new();
        for i in 0..64u32 {
            round.computes.push(crate::vpc::Vpc::Mul {
                src1: crate::vpc::VecRef::new(i % 16, 500),
                src2: crate::vpc::VecRef::new(i % 16, 500),
            });
        }
        s.push(round);
        assert_eq!(
            serial.execute(&s, &Instruments::NONE),
            threaded.execute(&s, &Instruments::NONE)
        );
    }

    #[test]
    fn auto_falls_back_to_serial_below_row_threshold() {
        const T: usize = Parallelism::AUTO_MIN_ROWS_PER_WORKER;
        // Small shapes: Auto declines to spawn any workers.
        assert_eq!(Parallelism::Auto.resolve_for_rows(8, 0), 1);
        assert_eq!(Parallelism::Auto.resolve_for_rows(8, T), 1);
        assert_eq!(Parallelism::Auto.resolve_for_rows(8, 2 * T - 1), 1);
        // The cutover: two full shards' worth of rows earns two workers.
        assert_eq!(Parallelism::Auto.resolve_for_rows(8, 2 * T), 2);
        assert_eq!(Parallelism::Auto.resolve_for_rows(8, 5 * T), 5);
        // Large shapes cap at the machine.
        assert_eq!(Parallelism::Auto.resolve_for_rows(4, 100 * T), 4);
        // Explicit levels are demands, not hints: no fallback.
        assert_eq!(Parallelism::Serial.resolve_for_rows(8, 100 * T), 1);
        assert_eq!(Parallelism::Threads(3).resolve_for_rows(8, 1), 3);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = StreamPimConfig::paper_default();
        cfg.device.word_bits = 13;
        assert!(StreamPim::new(cfg).is_err());
    }
}
