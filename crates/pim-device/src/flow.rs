//! Bit-level subarray data flow (paper §III-F, Figure 13).
//!
//! This module wires the *functional* substrates together — mats with save
//! and transfer tracks (`rm-core`), the segmented RM bus (`rm-bus`) and the
//! RM processor datapath (`rm-proc`) — and executes a PIM task exactly as
//! Figure 13 describes:
//!
//! 1. data is fan-out-copied from save tracks to transfer tracks and
//!    shifted onto the RM bus (non-destructive read, no conversion);
//! 2. the bus streams it to the RM processor;
//! 3. the processor computes (duplicator → multiplier → tree → circle);
//! 4. the result streams back over the return bus;
//! 5. and shifts into the destination mat row.
//!
//! The headline claim — *magnetic signals stored in mats are never
//! converted into electronic signals* — is testable here: the whole flow
//! performs **zero RM read or write operations** after the initial host
//! load (see the tests).

use crate::device::Parallelism;
use crate::error::PimError;
use crate::Result;
use rm_bus::{Delivery, SegmentedBus};
use rm_core::{BufferProbe, PackedBits, Probe, ShiftFaultModel, Subarray, WearTracker};
use rm_proc::{ProcScratch, RmProcessor};
use std::sync::Arc;

/// Bus segments in the functional in-subarray buses.
const BUS_SEGMENTS: usize = 8;

/// Reusable buffers for the streaming legs and the processor pass of
/// [`SubarrayFlow`]. Every buffer starts empty and grows on first use, so
/// construction allocates nothing here, and repeated dots — and the per-lane
/// shards of [`DeviceFlow`] — allocate nothing per row.
#[derive(Debug, Clone, Default)]
struct FlowScratch {
    proc: ProcScratch,
    deliveries: Vec<Delivery>,
    /// Bus words of the leg in flight.
    words: Vec<u64>,
    /// Operand elements as they arrive at the processor tap, every dot of a
    /// batch back to back.
    a: Vec<u64>,
    b: Vec<u64>,
    /// Each dot's realized shift count in the last batch.
    shift_deltas: Vec<u64>,
    /// A returning result word as the row plane it shifts into.
    row: PackedBits,
}

/// A functional PIM subarray: mats + buses + processor.
///
/// Uses a reduced geometry (2 mats of 16 save + 16 transfer tracks, 64
/// rows) — big enough to exercise every mechanism, small enough to simulate
/// every domain.
///
/// ```
/// use pim_device::flow::SubarrayFlow;
///
/// let mut flow = SubarrayFlow::new()?;
/// flow.load_vector(0, &[1, 2, 3, 4])?;
/// flow.load_vector(16, &[5, 6, 7, 8])?;
/// let result = flow.dot(0, 16, 4, 32)?;
/// assert_eq!(result, 1 * 5 + 2 * 6 + 3 * 7 + 4 * 8);
/// # Ok::<(), pim_device::PimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubarrayFlow {
    subarray: Subarray,
    processor: RmProcessor,
    to_proc: SegmentedBus,
    from_proc: SegmentedBus,
    /// Row reads/writes performed by the host load phase (excluded from the
    /// conversion-free guarantee).
    loads: u64,
    /// Zero-padded last row of a host load that does not fill it.
    pad: Vec<u8>,
    scratch: FlowScratch,
}

impl SubarrayFlow {
    /// Builds the functional subarray with the paper's per-mat track split
    /// and an 8-bit, 2-duplicator processor.
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for parity with the other constructors.
    pub fn new() -> Result<Self> {
        Ok(SubarrayFlow {
            subarray: Subarray::new(2, 2, 16, 16, 64, 4),
            processor: RmProcessor::new(8, 2),
            to_proc: SegmentedBus::new(BUS_SEGMENTS),
            from_proc: SegmentedBus::new(BUS_SEGMENTS),
            loads: 0,
            pad: Vec::new(),
            scratch: FlowScratch::default(),
        })
    }

    /// Elements per mat row (bytes, at 8-bit words).
    pub fn elements_per_row(&self) -> usize {
        self.subarray.row_bytes()
    }

    /// Rows available.
    pub fn rows(&self) -> usize {
        self.subarray.total_rows()
    }

    /// Host-loads a byte vector starting at `row` (one conversion-full
    /// write per row — this is the host filling memory, not the PIM path).
    ///
    /// # Errors
    ///
    /// Returns a memory error if the span exceeds the subarray.
    pub fn load_vector(&mut self, row: usize, data: &[u8]) -> Result<()> {
        let epr = self.elements_per_row();
        for (i, chunk) in data.chunks(epr).enumerate() {
            if chunk.len() == epr {
                self.subarray.write_row(row + i, chunk)?;
            } else {
                self.pad.clear();
                self.pad.extend_from_slice(chunk);
                self.pad.resize(epr, 0);
                self.subarray.write_row(row + i, &self.pad)?;
            }
            self.loads += 1;
        }
        Ok(())
    }

    /// Reads a vector back (host path, for verification).
    ///
    /// # Errors
    ///
    /// Returns a memory error if the span exceeds the subarray.
    pub fn read_vector(&mut self, row: usize, len: usize) -> Result<Vec<u8>> {
        let epr = self.elements_per_row();
        let mut out = Vec::with_capacity(len);
        let mut row_data = vec![0u8; epr];
        for i in 0..len.div_ceil(epr) {
            self.subarray.read_row_into(row + i, &mut row_data)?;
            out.extend_from_slice(&row_data);
        }
        out.truncate(len);
        Ok(out)
    }

    /// Streams the `len` elements stored from `row` on over the
    /// to-processor bus via the non-destructive transfer-track path,
    /// appending the elements delivered at the processor tap to `out`
    /// (Figure 13 steps ① and ②).
    fn stream_to_processor(
        &mut self,
        row: usize,
        len: usize,
        words: &mut Vec<u64>,
        deliveries: &mut Vec<Delivery>,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        let epr = self.elements_per_row();
        words.clear();
        for i in 0..len.div_ceil(epr) {
            let (mat, local) = self.subarray.locate_row(row + i)?;
            // Non-destructive read: fan-out copy, then shift the replica
            // out. The row's first backing word IS the bus word (LSB-first
            // lanes match the little-endian byte layout).
            words.push(self.subarray.mat_mut(mat)?.transfer_row_word(local)?);
        }
        // Pipelined injection, one data segment per couple with the empty
        // gaps kept: the bus starts empty, so this is the closed-form stream.
        deliveries.clear();
        self.to_proc
            .stream_words_into(0, BUS_SEGMENTS - 1, words, deliveries);
        let bytes = deliveries
            .iter()
            .flat_map(|d| d.packet.data.to_le_bytes().into_iter().take(epr.min(8)));
        out.extend(bytes.take(len).map(u64::from));
        Ok(())
    }

    /// Returns `result` (32-bit, little-endian) to `dst_row` over the
    /// return bus (Figure 13 steps ④ and ⑤): words shift in, no write
    /// operations. `row` is scratch for the arriving plane.
    fn stream_from_processor(
        &mut self,
        dst_row: usize,
        result: u64,
        words: &mut Vec<u64>,
        deliveries: &mut Vec<Delivery>,
        row: &mut PackedBits,
    ) -> Result<()> {
        let epr = self.elements_per_row();
        words.clear();
        words.extend((result as u32).to_le_bytes().chunks(epr).map(pack));
        deliveries.clear();
        self.from_proc
            .stream_words_into(0, BUS_SEGMENTS - 1, words, deliveries);
        if row.len() != epr * 8 {
            *row = PackedBits::new(epr * 8);
        }
        for (i, delivery) in deliveries.iter().enumerate() {
            row.insert_word(0, row.len().min(64), delivery.packet.data);
            let (mat, local) = self.subarray.locate_row(dst_row + i)?;
            self.subarray
                .mat_mut(mat)?
                .shift_in_row_packed(local, row)?;
        }
        Ok(())
    }

    /// Runs `dots` dot products of `len` elements through the PIM path in
    /// one processor pass. For each dot `j` in order, `load(self, j)`
    /// host-loads its operands and the A and B vectors at `a_row`/`b_row`
    /// stream to the processor; the processor then evaluates every product
    /// of every dot at once; and the results return one by one, in dot
    /// order, to `dst_row`. Results land in the scratch's processor results
    /// and each dot's shift count — its two operand legs plus its return
    /// leg, exactly what a separate dot shifts — in `shift_deltas`.
    ///
    /// Batching changes nothing observable: the mats see the same loads and
    /// row moves in the same order (returns only shift into `dst_row`,
    /// which no operand leg reads), each bus leg starts on an empty bus, and
    /// the processor's batch is identical to separate dots in results,
    /// tallies, unit state and probe records.
    #[allow(clippy::too_many_arguments)]
    fn dot_batch(
        &mut self,
        a_row: usize,
        b_row: usize,
        len: usize,
        dst_row: usize,
        dots: usize,
        mut load: impl FnMut(&mut Self, usize) -> Result<()>,
        probe: &dyn Probe,
        prefix: &str,
    ) -> Result<()> {
        let mut s = std::mem::take(&mut self.scratch);
        let result = (|| {
            s.a.clear();
            s.b.clear();
            s.shift_deltas.clear();
            for j in 0..dots {
                load(self, j)?;
                let before = self.shifts();
                self.stream_to_processor(a_row, len, &mut s.words, &mut s.deliveries, &mut s.a)?;
                self.stream_to_processor(b_row, len, &mut s.words, &mut s.deliveries, &mut s.b)?;
                s.shift_deltas.push(self.shifts() - before);
            }
            // Figure 13 step ③: the RM processor pipeline, all dots at once.
            self.processor
                .dot_batch_probed_with(&s.a, &s.b, dots, probe, prefix, &mut s.proc);
            for j in 0..dots {
                let before = self.shifts();
                let value = s.proc.results()[j];
                self.stream_from_processor(
                    dst_row,
                    value,
                    &mut s.words,
                    &mut s.deliveries,
                    &mut s.row,
                )?;
                s.shift_deltas[j] += self.shifts() - before;
            }
            Ok(())
        })();
        self.scratch = s;
        result
    }

    /// Executes a dot product entirely through the PIM path: operand
    /// vectors of `len` elements at `a_row` and `b_row`, 32-bit result
    /// little-endian at `dst_row`.
    ///
    /// # Errors
    ///
    /// Returns memory errors for bad spans.
    pub fn dot(&mut self, a_row: usize, b_row: usize, len: usize, dst_row: usize) -> Result<u64> {
        self.dot_probed(a_row, b_row, len, dst_row, &rm_core::NullProbe, "proc")
    }

    /// [`SubarrayFlow::dot`] with per-stage attribution recorded on `probe`
    /// under `{prefix}/duplicator`, `{prefix}/multiplier` and
    /// `{prefix}/adder_tree` (see [`RmProcessor::dot_probed`]). Result and
    /// hardware state are identical to the unprobed call. All intermediate
    /// buffers come from the flow's own scratch, so repeated dots — and the
    /// per-lane shards of [`DeviceFlow`] — allocate nothing per row.
    ///
    /// # Errors
    ///
    /// Returns memory errors for bad spans.
    pub fn dot_probed(
        &mut self,
        a_row: usize,
        b_row: usize,
        len: usize,
        dst_row: usize,
        probe: &dyn Probe,
        prefix: &str,
    ) -> Result<u64> {
        self.dot_batch(a_row, b_row, len, dst_row, 1, |_, _| Ok(()), probe, prefix)?;
        Ok(self.scratch.proc.results()[0])
    }

    /// Row read/write operations performed *after* the host load — the
    /// conversion count of the PIM path. Zero by design.
    pub fn pim_conversions(&self) -> u64 {
        let c = self.subarray.counters();
        (c.reads + c.writes).saturating_sub(self.loads)
    }

    /// Shift operations performed so far (the PIM path's only currency).
    pub fn shifts(&self) -> u64 {
        self.subarray.counters().shifts
            + self.to_proc.segment_shifts()
            + self.from_proc.segment_shifts()
    }
}

/// Row layout used by [`DeviceFlow`] lanes: operand A, operand B, result.
const LANE_A_ROW: usize = 0;
const LANE_B_ROW: usize = 16;
const LANE_DST_ROW: usize = 32;
/// Rows available per operand region (`LANE_B_ROW - LANE_A_ROW`).
const LANE_OPERAND_ROWS: usize = 16;

/// One independent subarray lane of a [`DeviceFlow`]: its own functional
/// hardware plus an optional per-lane shift-fault stream.
#[derive(Debug, Clone)]
struct Lane {
    flow: SubarrayFlow,
    faults: Option<ShiftFaultModel>,
    /// Purely observational device-health sink: records where shifts and
    /// fault draws land, never feeds back into the computation or the
    /// fault RNG stream.
    health: Option<Arc<WearTracker>>,
}

impl Lane {
    /// Feeds each dot of the last batch, in dot order, to the fault overlay
    /// and the health tracker: the dot's realized shift total takes one
    /// deterministic fault draw (an observational reliability overlay: the
    /// per-lane streams are seeded, so tallies are identical at any worker
    /// count), and its shifts are recorded against output row `row`. The
    /// wire identity is the output row: on this reduced geometry each output
    /// row is backed by a fixed set of nanowires, so per-row wear is the
    /// per-nanowire wear proxy.
    fn observe_dots(&mut self, lane_idx: usize, row: usize) {
        let (lane, wire) = (lane_idx as u32, row as u32);
        for &shift_delta in &self.flow.scratch.shift_deltas {
            if let Some(fm) = &mut self.faults {
                let outcome = fm.sample(shift_delta as usize);
                if let Some(health) = &self.health {
                    health.record_fault(lane, wire, outcome);
                }
            }
            if let Some(health) = &self.health {
                // Each counted shift on this path is a single-domain step,
                // so the travelled distance equals the shift count.
                health.record_activity(lane, shift_delta, shift_delta, 0.0);
                health.record_wire_shifts(lane, wire, shift_delta);
            }
        }
    }

    /// Computes every output row assigned to lane `lane_idx` (round-robin
    /// stride `n_lanes`) of `y = A·x`, returning the values in row order.
    #[allow(clippy::too_many_arguments)]
    fn gemv_rows(
        &mut self,
        a: &[u8],
        x: &[u8],
        m: usize,
        k: usize,
        lane_idx: usize,
        n_lanes: usize,
        probe: &dyn Probe,
        prefix: &str,
    ) -> Result<Vec<u64>> {
        self.flow.load_vector(LANE_B_ROW, x)?;
        let mut values = Vec::with_capacity(m.saturating_sub(lane_idx).div_ceil(n_lanes));
        for row in (lane_idx..m).step_by(n_lanes) {
            self.flow
                .load_vector(LANE_A_ROW, &a[row * k..(row + 1) * k])?;
            self.flow.dot_batch(
                LANE_A_ROW,
                LANE_B_ROW,
                k,
                LANE_DST_ROW,
                1,
                |_, _| Ok(()),
                probe,
                prefix,
            )?;
            self.observe_dots(lane_idx, row);
            values.push(self.flow.scratch.proc.results()[0]);
        }
        Ok(values)
    }

    /// Computes every output row assigned to this lane of `C = A·B`
    /// (`C[m,n]`, round-robin over output rows), returning the rows' values
    /// back to back in row order. Each output row is one processor pass
    /// over its `n` dots.
    #[allow(clippy::too_many_arguments)]
    fn gemm_rows(
        &mut self,
        a: &[u8],
        b: &[u8],
        m: usize,
        k: usize,
        n: usize,
        lane_idx: usize,
        n_lanes: usize,
        probe: &dyn Probe,
        prefix: &str,
    ) -> Result<Vec<u64>> {
        let mut values = Vec::with_capacity(m.saturating_sub(lane_idx).div_ceil(n_lanes) * n);
        let mut col = vec![0u8; k];
        for row in (lane_idx..m).step_by(n_lanes) {
            self.flow
                .load_vector(LANE_A_ROW, &a[row * k..(row + 1) * k])?;
            let load_column = |flow: &mut SubarrayFlow, j: usize| {
                for (i, byte) in col.iter_mut().enumerate() {
                    *byte = b[i * n + j];
                }
                flow.load_vector(LANE_B_ROW, &col)
            };
            self.flow.dot_batch(
                LANE_A_ROW,
                LANE_B_ROW,
                k,
                LANE_DST_ROW,
                n,
                load_column,
                probe,
                prefix,
            )?;
            self.observe_dots(lane_idx, row);
            values.extend_from_slice(self.flow.scratch.proc.results());
        }
        Ok(values)
    }
}

/// Aggregate hardware/fault activity of a [`DeviceFlow`], merged over the
/// lanes in lane order (so the totals are identical at any worker count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceFlowStats {
    /// Shift operations across all lanes (mats + both buses).
    pub shifts: u64,
    /// Row reads/writes on the PIM path (zero by design).
    pub pim_conversions: u64,
    /// Shift-fault draws taken across all lane fault streams.
    pub faults_sampled: u64,
    /// Faults injected across all lane fault streams.
    pub faults_injected: u64,
}

/// A functional multi-subarray device: independent [`SubarrayFlow`] lanes
/// with output rows distributed round-robin, exactly the hardware
/// independence boundary the analytic engine shards on. `gemv`/`gemm` run
/// the lanes on scoped OS threads under a [`Parallelism`] level; each lane
/// owns disjoint hardware and a seeded fault stream, and results, probe
/// records and counters are reduced in lane order — so every output is
/// byte-identical to the serial run at any worker count.
#[derive(Debug, Clone)]
pub struct DeviceFlow {
    lanes: Vec<Lane>,
}

impl DeviceFlow {
    /// Builds a device with `lanes` independent subarray lanes (at least 1).
    ///
    /// # Errors
    ///
    /// Infallible today; `Result` for parity with [`SubarrayFlow::new`].
    pub fn new(lanes: usize) -> Result<Self> {
        let lanes = (0..lanes.max(1))
            .map(|_| {
                Ok(Lane {
                    flow: SubarrayFlow::new()?,
                    faults: None,
                    health: None,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(DeviceFlow { lanes })
    }

    /// Attaches a per-lane shift-fault model: lane `s` draws from a stream
    /// seeded `base_seed ^ s`, so fault tallies are a function of the work
    /// assignment alone, never of the worker count.
    pub fn with_fault_model(mut self, p_over: f64, p_under: f64, base_seed: u64) -> Self {
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            lane.faults = Some(ShiftFaultModel::new(p_over, p_under, base_seed ^ s as u64));
        }
        self
    }

    /// Attaches a device-health tracker: every lane records its shift
    /// activity and fault-draw outcomes (keyed subarray = lane, wire =
    /// output row) into `tracker`. Observational only — results, counters
    /// and fault tallies are byte-identical with or without a tracker.
    pub fn with_health(mut self, tracker: Arc<WearTracker>) -> Self {
        for lane in self.lanes.iter_mut() {
            lane.health = Some(Arc::clone(&tracker));
        }
        self
    }

    /// Number of subarray lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Longest operand vector a lane can hold.
    pub fn max_len(&self) -> usize {
        self.lanes[0].flow.elements_per_row() * LANE_OPERAND_ROWS
    }

    /// Matrix–vector product `y = A·x` (`A` row-major `m×k` of bytes)
    /// through the functional PIM path, output rows round-robin over the
    /// lanes, lanes sharded across `parallelism` worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] for inconsistent dimensions or
    /// operands longer than [`DeviceFlow::max_len`].
    pub fn gemv(
        &mut self,
        a: &[u8],
        x: &[u8],
        m: usize,
        k: usize,
        parallelism: Parallelism,
    ) -> Result<Vec<u64>> {
        self.gemv_probed(a, x, m, k, parallelism, &rm_core::NullProbe)
    }

    /// [`DeviceFlow::gemv`] with per-lane pipeline attribution: lane `s`
    /// records under `lane{s}/…`, buffered per shard and replayed onto
    /// `probe` in lane order (identical record sequence at any worker
    /// count).
    ///
    /// # Errors
    ///
    /// See [`DeviceFlow::gemv`].
    pub fn gemv_probed(
        &mut self,
        a: &[u8],
        x: &[u8],
        m: usize,
        k: usize,
        parallelism: Parallelism,
        probe: &dyn Probe,
    ) -> Result<Vec<u64>> {
        self.check_shape(a.len(), m, k, x.len(), k, 1)?;
        let n_lanes = self.lanes.len();
        let workers = parallelism.resolve_here().min(n_lanes);
        let buffers: Vec<BufferProbe> = (0..n_lanes).map(|_| BufferProbe::new()).collect();
        let shards = rm_core::run_sharded(&mut self.lanes, workers, |s, lane| {
            lane.gemv_rows(a, x, m, k, s, n_lanes, &buffers[s], &lane_prefix(s))
        });
        let mut y = vec![0u64; m];
        for (s, (buffer, shard)) in buffers.iter().zip(shards).enumerate() {
            for (row, value) in (s..m).step_by(n_lanes).zip(shard?) {
                y[row] = value;
            }
            buffer.replay(probe);
        }
        Ok(y)
    }

    /// Matrix–matrix product `C = A·B` (`A` `m×k`, `B` `k×n`, both
    /// row-major bytes) through the functional PIM path, output rows
    /// round-robin over the lanes, lanes sharded across `parallelism`
    /// worker threads. Returns `C` row-major.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::ShapeMismatch`] for inconsistent dimensions or
    /// operands longer than [`DeviceFlow::max_len`].
    pub fn gemm(
        &mut self,
        a: &[u8],
        b: &[u8],
        m: usize,
        k: usize,
        n: usize,
        parallelism: Parallelism,
    ) -> Result<Vec<u64>> {
        self.check_shape(a.len(), m, k, b.len(), k, n)?;
        let n_lanes = self.lanes.len();
        let workers = parallelism.resolve_here().min(n_lanes);
        let shards = rm_core::run_sharded(&mut self.lanes, workers, |s, lane| {
            lane.gemm_rows(a, b, m, k, n, s, n_lanes, &rm_core::NullProbe, "proc")
        });
        let mut c = vec![0u64; m * n];
        for (s, shard) in shards.into_iter().enumerate() {
            for (row, values) in (s..m).step_by(n_lanes).zip(shard?.chunks(n)) {
                c[row * n..(row + 1) * n].copy_from_slice(values);
            }
        }
        Ok(c)
    }

    /// Aggregate activity counters, merged in lane order.
    pub fn stats(&self) -> DeviceFlowStats {
        let mut stats = DeviceFlowStats::default();
        for lane in &self.lanes {
            stats.shifts += lane.flow.shifts();
            stats.pim_conversions += lane.flow.pim_conversions();
            if let Some(fm) = &lane.faults {
                stats.faults_sampled += fm.shifts_sampled();
                stats.faults_injected += fm.faults_injected();
            }
        }
        stats
    }

    fn check_shape(
        &self,
        a_len: usize,
        m: usize,
        k: usize,
        b_len: usize,
        b_rows: usize,
        b_cols: usize,
    ) -> Result<()> {
        if a_len != m * k || b_len != b_rows * b_cols || m == 0 || k == 0 || b_cols == 0 {
            return Err(PimError::ShapeMismatch {
                detail: format!(
                    "gemv/gemm operands {a_len}x{b_len} do not match m={m} k={k} n={b_cols}"
                ),
            });
        }
        if k > self.max_len() {
            return Err(PimError::ShapeMismatch {
                detail: format!("k={k} exceeds lane capacity {}", self.max_len()),
            });
        }
        Ok(())
    }
}

/// Probe-path prefix for lane `s`.
fn lane_prefix(s: usize) -> String {
    format!("lane{s}")
}

/// Packs up to 8 row bytes into a bus word.
fn pack(bytes: &[u8]) -> u64 {
    let mut w = 0u64;
    for (i, &b) in bytes.iter().take(8).enumerate() {
        w |= (b as u64) << (8 * i);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_through_the_full_path_matches_host() {
        let mut flow = SubarrayFlow::new().unwrap();
        let a: Vec<u8> = (1..=10).collect();
        let b: Vec<u8> = (11..=20).collect();
        flow.load_vector(0, &a).unwrap();
        flow.load_vector(16, &b).unwrap();
        let got = flow.dot(0, 16, 10, 40).unwrap();
        let expect: u64 = a.iter().zip(&b).map(|(&x, &y)| x as u64 * y as u64).sum();
        assert_eq!(got, expect);
        // The result really landed in the destination rows.
        let stored = flow.read_vector(40, 4).unwrap();
        assert_eq!(
            u32::from_le_bytes(stored.try_into().unwrap()) as u64,
            expect
        );
    }

    #[test]
    fn pim_path_performs_zero_conversions() {
        let mut flow = SubarrayFlow::new().unwrap();
        flow.load_vector(0, &[3, 5, 7, 9]).unwrap();
        flow.load_vector(16, &[2, 4, 6, 8]).unwrap();
        let loads_only = flow.pim_conversions();
        assert_eq!(loads_only, 0, "nothing but loads so far");
        let _ = flow.dot(0, 16, 4, 40).unwrap();
        // The paper's claim: the PIM data path is pure shift.
        assert_eq!(flow.pim_conversions(), 0, "no reads/writes on the PIM path");
        assert!(flow.shifts() > 0, "shifts did all the work");
    }

    #[test]
    fn operands_survive_the_non_destructive_read() {
        let mut flow = SubarrayFlow::new().unwrap();
        let a: Vec<u8> = vec![10, 20, 30, 40, 50, 60];
        flow.load_vector(0, &a).unwrap();
        flow.load_vector(16, &a).unwrap();
        let _ = flow.dot(0, 16, 6, 40).unwrap();
        assert_eq!(
            flow.read_vector(0, 6).unwrap(),
            a,
            "save tracks keep the data"
        );
    }

    #[test]
    fn repeated_dots_reuse_the_same_hardware() {
        let mut flow = SubarrayFlow::new().unwrap();
        flow.load_vector(0, &[1, 1, 1, 1]).unwrap();
        flow.load_vector(16, &[2, 2, 2, 2]).unwrap();
        for _ in 0..3 {
            assert_eq!(flow.dot(0, 16, 4, 40).unwrap(), 8);
        }
    }

    #[test]
    fn device_flow_gemv_matches_host_math_at_any_worker_count() {
        let (m, k) = (7usize, 6usize);
        let a: Vec<u8> = (0..(m * k) as u32).map(|i| (i * 13 % 97) as u8).collect();
        let x: Vec<u8> = (0..k as u32).map(|i| (i * 7 + 3) as u8).collect();
        let expect: Vec<u64> = (0..m)
            .map(|r| (0..k).map(|c| a[r * k + c] as u64 * x[c] as u64).sum())
            .collect();
        let mut serial = DeviceFlow::new(4).unwrap().with_fault_model(0.05, 0.02, 99);
        let y0 = serial.gemv(&a, &x, m, k, Parallelism::Serial).unwrap();
        assert_eq!(y0, expect, "functional path matches host math");
        assert!(serial.stats().faults_sampled > 0, "fault overlay sampled");
        assert_eq!(serial.stats().pim_conversions, 0, "conversion-free");
        for workers in [1usize, 2, 3, 16] {
            let mut df = DeviceFlow::new(4).unwrap().with_fault_model(0.05, 0.02, 99);
            let y = df
                .gemv(&a, &x, m, k, Parallelism::Threads(workers))
                .unwrap();
            assert_eq!(y, y0, "{workers} workers");
            assert_eq!(df.stats(), serial.stats(), "{workers} workers, stats");
        }
    }

    #[test]
    fn device_flow_gemm_matches_host_math() {
        let (m, k, n) = (3usize, 4usize, 2usize);
        let a: Vec<u8> = (1..=(m * k) as u32).map(|i| i as u8).collect();
        let b: Vec<u8> = (1..=(k * n) as u32).map(|i| (i * 3) as u8).collect();
        let expect: Vec<u64> = (0..m)
            .flat_map(|i| {
                let a = &a;
                let b = &b;
                (0..n).map(move |j| {
                    (0..k)
                        .map(|l| a[i * k + l] as u64 * b[l * n + j] as u64)
                        .sum()
                })
            })
            .collect();
        let mut serial = DeviceFlow::new(2).unwrap();
        let c0 = serial.gemm(&a, &b, m, k, n, Parallelism::Serial).unwrap();
        assert_eq!(c0, expect);
        let mut threaded = DeviceFlow::new(2).unwrap();
        let c = threaded
            .gemm(&a, &b, m, k, n, Parallelism::Threads(2))
            .unwrap();
        assert_eq!(c, c0);
        assert_eq!(threaded.stats(), serial.stats());
    }

    #[test]
    fn device_flow_probe_replay_is_lane_ordered() {
        let (m, k) = (5usize, 3usize);
        let a = vec![2u8; m * k];
        let x = vec![3u8; k];
        let run = |par: Parallelism| {
            let mut df = DeviceFlow::new(3).unwrap();
            let target = rm_core::BufferProbe::new();
            df.gemv_probed(&a, &x, m, k, par, &target).unwrap();
            target.take()
        };
        let serial = run(Parallelism::Serial);
        assert!(!serial.is_empty(), "probe records flow through");
        assert!(serial[0].0.starts_with("lane0/"), "lane order");
        assert_eq!(serial, run(Parallelism::Threads(2)), "2 workers");
        assert_eq!(serial, run(Parallelism::Threads(16)), "16 workers");
    }

    #[test]
    fn device_flow_rejects_bad_shapes() {
        let mut df = DeviceFlow::new(2).unwrap();
        assert!(df.gemv(&[1, 2], &[1], 2, 2, Parallelism::Serial).is_err());
        let too_long = df.max_len() + 1;
        let a = vec![1u8; too_long];
        let x = vec![1u8; too_long];
        assert!(df.gemv(&a, &x, 1, too_long, Parallelism::Serial).is_err());
    }

    #[test]
    fn pack_lays_bytes_out_little_endian() {
        assert_eq!(pack(&[0xDE, 0xAD, 0xBE, 0xEF]), 0xEFBE_ADDE);
        assert_eq!(pack(&[]), 0);
    }
}
