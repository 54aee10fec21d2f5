//! Functional and analytic models of the segmented domain-wall bus.

use rm_core::probe::{Probe, ProbeSample};
use rm_core::{OpCounters, PackedBits};
use serde::{Deserialize, Serialize};

/// A word in flight on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Packet {
    /// Payload word.
    pub data: u64,
    /// Destination tap (segment index at which the packet is ejected).
    pub dst: usize,
    /// Cycle at which the packet was injected (for latency accounting).
    pub injected_at: u64,
}

/// A delivered packet with its measured in-flight latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery {
    /// The packet that arrived.
    pub packet: Packet,
    /// Cycles spent on the bus.
    pub latency_cycles: u64,
}

/// The functional segmented bus: a line of segments, each empty or carrying
/// one data segment, all advancing one position per cycle.
///
/// Taps sit at every segment boundary; mats and the RM processor inject and
/// eject at their tap. The *data-then-empty* invariant of the paper is
/// enforced at injection time: a packet may only enter an empty segment
/// whose downstream neighbour is also empty, so a single constant shift
/// pulse per couple suffices and packets never collide.
///
/// ```
/// use rm_bus::SegmentedBus;
///
/// let mut bus = SegmentedBus::new(8);
/// assert!(bus.try_inject(0, 0xAB, 3));
/// let mut delivered = Vec::new();
/// for _ in 0..3 {
///     delivered.extend(bus.cycle());
/// }
/// assert_eq!(delivered.len(), 1);
/// assert_eq!(delivered[0].packet.data, 0xAB);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentedBus {
    segments: Vec<Option<Packet>>,
    cycles: u64,
    injected: u64,
    delivered: u64,
    segment_shifts: u64,
}

impl SegmentedBus {
    /// Creates a bus of `n_segments` segments (all empty).
    ///
    /// # Panics
    ///
    /// Panics if `n_segments < 2` (the data/empty couple needs two).
    pub fn new(n_segments: usize) -> Self {
        assert!(
            n_segments >= 2,
            "a segmented bus needs at least two segments"
        );
        SegmentedBus {
            segments: vec![None; n_segments],
            cycles: 0,
            injected: 0,
            delivered: 0,
            segment_shifts: 0,
        }
    }

    /// Number of segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the bus currently carries no data.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.is_none())
    }

    /// Cycles elapsed.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Packets injected so far.
    #[inline]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Packets delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total one-segment shifts of data segments (the energy driver).
    #[inline]
    pub fn segment_shifts(&self) -> u64 {
        self.segment_shifts
    }

    /// Number of data segments currently in flight.
    pub fn occupancy(&self) -> usize {
        self.segments.iter().filter(|s| s.is_some()).count()
    }

    /// Attempts to inject `data` at tap `src` heading to tap `dst`.
    ///
    /// Fails (returns `false`) if the entry segment is occupied, if the
    /// downstream neighbour is occupied (which would violate the
    /// data-then-empty invariant), or if `dst <= src` (the bus is
    /// unidirectional; the reverse direction is a separate bus instance in
    /// the subarray).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is beyond the last segment.
    pub fn try_inject(&mut self, src: usize, data: u64, dst: usize) -> bool {
        assert!(src < self.segments.len(), "src tap out of range");
        assert!(dst < self.segments.len(), "dst tap out of range");
        if dst <= src {
            return false;
        }
        if self.segments[src].is_some() {
            return false;
        }
        // Keep an empty segment ahead of every data segment.
        if src + 1 < self.segments.len() && self.segments[src + 1].is_some() {
            return false;
        }
        self.segments[src] = Some(Packet {
            data,
            dst,
            injected_at: self.cycles,
        });
        self.injected += 1;
        true
    }

    /// Advances every data segment by one position and returns the packets
    /// that reached their destination tap this cycle.
    pub fn cycle(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.cycle_into(&mut out);
        out
    }

    /// Allocation-free [`Self::cycle`]: appends this cycle's deliveries to
    /// `out` (which the caller typically clears and reuses across rows, so
    /// sharded hot loops allocate nothing per cycle).
    pub fn cycle_into(&mut self, out: &mut Vec<Delivery>) {
        self.cycles += 1;
        // Move from the head backwards so each packet steps into the empty
        // segment ahead of it.
        for i in (0..self.segments.len()).rev() {
            if let Some(pkt) = self.segments[i] {
                let next = i + 1;
                if next == pkt.dst || next >= self.segments.len() {
                    // Eject (reaching the end also ejects: the processor tap).
                    self.segments[i] = None;
                    self.segment_shifts += 1;
                    self.delivered += 1;
                    out.push(Delivery {
                        packet: pkt,
                        latency_cycles: self.cycles - pkt.injected_at,
                    });
                } else if self.segments[next].is_none() {
                    self.segments[next] = Some(pkt);
                    self.segments[i] = None;
                    self.segment_shifts += 1;
                }
                // Otherwise the packet stalls (cannot happen when the
                // injection invariant is respected, but kept for safety).
            }
        }
    }

    /// Runs the bus until empty, collecting deliveries (guard-limited).
    pub fn drain(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        let guard = self.segments.len() as u64 * 4 + 16;
        for _ in 0..guard {
            if self.is_empty() {
                break;
            }
            out.extend(self.cycle());
        }
        out
    }

    /// Streams `words` from tap `src` to tap `dst` fully pipelined: each
    /// cycle the next word is injected as soon as the data-then-empty
    /// invariant allows, so a new word enters every two cycles in steady
    /// state (cf. [`SegmentedBusModel::stream_cycles`]). Runs until every
    /// word has been delivered and returns the deliveries in order.
    ///
    /// When the bus starts empty — the overwhelmingly common case on the
    /// device's row-streaming path — the whole stream is applied as one bulk
    /// closed-form update (PR 8) instead of simulating cycle by cycle. The
    /// schedule of an inject-ASAP stream on an empty unidirectional bus is
    /// fully determined: with hop distance `d = dst - src`, word `i` is
    /// injected at cycle `2i` (every cycle when `d == 1`, since the slot
    /// empties on eject), every word spends exactly `d` cycles in flight and
    /// makes `d` segment shifts, and deliveries occur one per word in order.
    /// The cycle-by-cycle loop is retained for buses with packets already in
    /// flight and as the differential reference; both produce bit-identical
    /// deliveries, cycle counts and shift statistics.
    ///
    /// # Panics
    ///
    /// Panics if `src`/`dst` are out of range (see [`Self::try_inject`]) or
    /// if the route is invalid (`dst <= src`) for a non-empty stream.
    pub fn stream_words(&mut self, src: usize, dst: usize, words: &[u64]) -> Vec<Delivery> {
        let mut out = Vec::with_capacity(words.len());
        self.stream_words_into(src, dst, words, &mut out);
        out
    }

    /// Allocation-free [`Self::stream_words`]: appends the deliveries to
    /// `out`, which a row-streaming caller clears and reuses. Deliveries,
    /// cycle counts and shift statistics are identical to
    /// [`Self::stream_words`].
    ///
    /// # Panics
    ///
    /// See [`Self::stream_words`].
    #[inline]
    pub fn stream_words_into(
        &mut self,
        src: usize,
        dst: usize,
        words: &[u64],
        out: &mut Vec<Delivery>,
    ) {
        if words.is_empty() {
            return;
        }
        assert!(src < self.segments.len(), "src tap out of range");
        assert!(dst < self.segments.len(), "dst tap out of range");
        assert!(dst > src, "stream route must move forward on the bus");
        if self.is_empty() {
            self.stream_words_bulk(src, dst, words, out);
        } else {
            self.stream_words_cycled(src, dst, words, out);
        }
    }

    /// Closed-form bulk application of an inject-ASAP stream on an empty
    /// bus (see [`Self::stream_words`] for the derivation).
    #[inline]
    fn stream_words_bulk(
        &mut self,
        src: usize,
        dst: usize,
        words: &[u64],
        out: &mut Vec<Delivery>,
    ) {
        let d = (dst - src) as u64;
        let n = words.len() as u64;
        let start = self.cycles;
        // d == 1: the packet ejects on the cycle after injection, freeing the
        // entry slot immediately, so a new word enters every cycle. d >= 2:
        // the empty-gap invariant admits a new word every other cycle.
        let step = if d == 1 { 1 } else { 2 };
        out.extend(words.iter().enumerate().map(|(i, &data)| Delivery {
            packet: Packet {
                data,
                dst,
                injected_at: start + step * i as u64,
            },
            latency_cycles: d,
        }));
        self.cycles = start + step * (n - 1) + d;
        self.injected += n;
        self.delivered += n;
        self.segment_shifts += n * d;
    }

    /// The cycle-by-cycle reference for [`Self::stream_words`], forced even
    /// on an empty bus. Exposed for the differential suites and the bench
    /// harness, which compare it against the closed-form bulk path —
    /// deliveries, cycle counts, and shift statistics must be bit-identical.
    ///
    /// # Panics
    ///
    /// See [`Self::stream_words`].
    pub fn stream_words_cycled_reference(
        &mut self,
        src: usize,
        dst: usize,
        words: &[u64],
    ) -> Vec<Delivery> {
        if words.is_empty() {
            return Vec::new();
        }
        assert!(src < self.segments.len(), "src tap out of range");
        assert!(dst < self.segments.len(), "dst tap out of range");
        assert!(dst > src, "stream route must move forward on the bus");
        let mut out = Vec::with_capacity(words.len());
        self.stream_words_cycled(src, dst, words, &mut out);
        out
    }

    /// The retained cycle-by-cycle stream loop, used when the bus already
    /// carries traffic and as the differential reference for
    /// [`Self::stream_words_bulk`].
    fn stream_words_cycled(
        &mut self,
        src: usize,
        dst: usize,
        words: &[u64],
        out: &mut Vec<Delivery>,
    ) {
        let first = out.len();
        let mut pending = words.iter();
        let mut next = pending.next();
        // Fill (len) + 2 cycles per word + slack, times 4 for stalls from
        // pre-existing traffic.
        let guard = (self.segments.len() as u64 + 2 * words.len() as u64 + 16) * 4;
        for _ in 0..guard {
            if let Some(&word) = next {
                if self.try_inject(src, word, dst) {
                    next = pending.next();
                }
            }
            self.cycle_into(out);
            if next.is_none() && self.is_empty() {
                break;
            }
        }
        assert!(
            out.len() - first >= words.len(),
            "bus stream failed to drain within the cycle guard"
        );
    }

    /// Streams a packed row as its `u64` backing words (see
    /// [`Self::stream_words`]): the row moves over the bus 64 lanes per
    /// packet with no per-bit unpacking at either end.
    pub fn stream_row(&mut self, src: usize, dst: usize, row: &PackedBits) -> Vec<Delivery> {
        self.stream_words(src, dst, row.words())
    }

    /// [`Self::stream_words`] with attribution: the segment-shift delta of
    /// the stream is recorded against `path` on `probe` (as `shifts` /
    /// `shift_distance` counter ticks — the functional bus carries no energy
    /// model of its own). Behaviour and statistics are otherwise identical
    /// to the unprobed call.
    ///
    /// # Panics
    ///
    /// See [`Self::stream_words`].
    pub fn stream_words_probed(
        &mut self,
        src: usize,
        dst: usize,
        words: &[u64],
        probe: &dyn Probe,
        path: &str,
    ) -> Vec<Delivery> {
        let before = self.segment_shifts;
        let out = self.stream_words(src, dst, words);
        if probe.enabled() {
            let delta = self.segment_shifts - before;
            probe.record(
                path,
                ProbeSample::ops(OpCounters {
                    shifts: delta,
                    shift_distance: delta,
                    ..OpCounters::default()
                }),
            );
        }
        out
    }
}

/// Closed-form cost model of the segmented bus, used by the execution
/// engine for full-size workloads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentedBusModel {
    /// Physical bus span in domains (mat row to processor).
    pub span_domains: u64,
    /// Segment size in domains (Table V sweeps 64..=1024; default 1024).
    pub segment_domains: u64,
    /// Shift energy per domain-step per word, picojoules (from Table III's
    /// per-row shift energy, normalized to the bus word width).
    pub shift_pj_per_domain: f64,
}

impl SegmentedBusModel {
    /// The paper's default: a 4096-domain span with 1024-domain segments.
    ///
    /// The energy normalization makes one full-span transfer of a row cost
    /// one Table III row-shift (3.26 pJ): a bus shift drives one
    /// data/empty segment couple exactly like a row-alignment shift drives
    /// the mat's track group.
    pub fn paper_default() -> Self {
        SegmentedBusModel {
            span_domains: 4096,
            segment_domains: 1024,
            shift_pj_per_domain: 3.26 / 4096.0,
        }
    }

    /// Creates a model with a given segment size, keeping the default span.
    pub fn with_segment_domains(segment_domains: u64) -> Self {
        SegmentedBusModel {
            segment_domains,
            ..SegmentedBusModel::paper_default()
        }
    }

    /// Number of segments along the bus.
    pub fn segment_count(&self) -> u64 {
        self.span_domains.div_ceil(self.segment_domains).max(2)
    }

    /// Latency in bus cycles of one word end-to-end (one hop per cycle).
    pub fn word_latency_cycles(&self) -> u64 {
        self.segment_count()
    }

    /// Cycles to stream `n` words across the bus, pipelined: the pipe fills
    /// once, then a new word is injected every 2 cycles (data segment +
    /// empty gap).
    pub fn stream_cycles(&self, n_words: u64) -> u64 {
        if n_words == 0 {
            0
        } else {
            self.word_latency_cycles() + 2 * (n_words - 1)
        }
    }

    /// Cycles for the same transfer without pipelining (one word at a time),
    /// for the paper's motivation comparison.
    pub fn unpipelined_cycles(&self, n_words: u64) -> u64 {
        n_words * self.word_latency_cycles()
    }

    /// Shift energy of streaming `n` words, picojoules.
    ///
    /// Energy is proportional to total domains moved — `span * words` —
    /// independent of segmentation, reproducing Table V's flat energy row.
    pub fn stream_energy_pj(&self, n_words: u64) -> f64 {
        self.span_domains as f64 * n_words as f64 * self.shift_pj_per_domain
    }
}

impl Default for SegmentedBusModel {
    fn default() -> Self {
        SegmentedBusModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_packet_arrives_with_distance_latency() {
        let mut bus = SegmentedBus::new(10);
        assert!(bus.try_inject(2, 42, 7));
        let deliveries = bus.drain();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].packet.data, 42);
        assert_eq!(deliveries[0].latency_cycles, 5);
        assert!(bus.is_empty());
    }

    #[test]
    fn injection_rules() {
        let mut bus = SegmentedBus::new(8);
        assert!(!bus.try_inject(3, 1, 3), "dst == src rejected");
        assert!(!bus.try_inject(5, 1, 2), "backwards rejected");
        assert!(bus.try_inject(0, 1, 4));
        assert!(!bus.try_inject(0, 2, 4), "occupied entry rejected");
        bus.cycle();
        // Now segment 1 holds the packet; injecting at 0 would violate the
        // empty-gap invariant.
        assert!(!bus.try_inject(0, 2, 4));
        bus.cycle();
        assert!(bus.try_inject(0, 2, 4));
    }

    #[test]
    fn multiplexed_packets_do_not_interfere() {
        let mut bus = SegmentedBus::new(12);
        assert!(bus.try_inject(0, 10, 11));
        assert!(bus.try_inject(4, 20, 9));
        assert!(bus.try_inject(6, 30, 8));
        let deliveries = bus.drain();
        let mut datas: Vec<u64> = deliveries.iter().map(|d| d.packet.data).collect();
        datas.sort_unstable();
        assert_eq!(datas, vec![10, 20, 30]);
    }

    #[test]
    fn pipelined_stream_preserves_order_and_spacing() {
        let mut bus = SegmentedBus::new(16);
        let mut sent = 0u64;
        let mut received = Vec::new();
        let mut cycle = 0;
        while received.len() < 5 {
            if sent < 5 && bus.try_inject(0, 100 + sent, 10) {
                sent += 1;
            }
            received.extend(bus.cycle());
            cycle += 1;
            assert!(cycle < 100, "stream must terminate");
        }
        let datas: Vec<u64> = received.iter().map(|d| d.packet.data).collect();
        assert_eq!(datas, vec![100, 101, 102, 103, 104]);
        // Pipelined: total cycles ≈ latency + 2*(n-1), far below 5 * latency.
        assert!(cycle <= 10 + 2 * 4 + 2);
    }

    #[test]
    fn segment_shifts_counted() {
        let mut bus = SegmentedBus::new(6);
        bus.try_inject(0, 1, 5);
        bus.drain();
        assert_eq!(bus.segment_shifts(), 5);
        assert_eq!(bus.injected(), 1);
        assert_eq!(bus.delivered(), 1);
    }

    #[test]
    fn end_of_bus_ejects() {
        let mut bus = SegmentedBus::new(4);
        // dst beyond the walk: the packet ejects at the end tap.
        bus.try_inject(0, 9, 3);
        let deliveries = bus.drain();
        assert_eq!(deliveries.len(), 1);
    }

    #[test]
    fn stream_words_is_pipelined_and_ordered() {
        let mut bus = SegmentedBus::new(16);
        let words: Vec<u64> = (0..20).map(|i| 0x1000 + i).collect();
        let deliveries = bus.stream_words(0, 10, &words);
        let datas: Vec<u64> = deliveries.iter().map(|d| d.packet.data).collect();
        assert_eq!(datas, words, "in order");
        assert!(bus.is_empty());
        // Pipelined: far fewer cycles than word-at-a-time.
        let model_bound = 10 + 2 * (words.len() as u64 - 1) + 2;
        assert!(bus.cycles() <= model_bound, "{} cycles", bus.cycles());
    }

    #[test]
    fn stream_row_carries_packed_words() {
        let mut bus = SegmentedBus::new(8);
        let mut row = PackedBits::new(130);
        row.set(0, true);
        row.set(64, true);
        row.set(129, true);
        let deliveries = bus.stream_row(0, 5, &row);
        let datas: Vec<u64> = deliveries.iter().map(|d| d.packet.data).collect();
        assert_eq!(datas, row.words());
        assert_eq!(datas.len(), 3);
    }

    #[test]
    fn probed_stream_matches_shift_counter_delta() {
        use std::sync::Mutex;

        #[derive(Debug, Default)]
        struct SumProbe(Mutex<u64>);
        impl Probe for SumProbe {
            fn enabled(&self) -> bool {
                true
            }
            fn record(&self, path: &str, sample: ProbeSample) {
                assert_eq!(path, "bus/internal");
                *self.0.lock().unwrap() += sample.ops.shifts;
            }
        }

        let mut bus = SegmentedBus::new(16);
        let probe = SumProbe::default();
        let words: Vec<u64> = (0..10).collect();
        let plain_out = SegmentedBus::new(16).stream_words(0, 10, &words);
        let out = bus.stream_words_probed(0, 10, &words, &probe, "bus/internal");
        assert_eq!(
            out.len(),
            plain_out.len(),
            "probing must not change behaviour"
        );
        assert_eq!(*probe.0.lock().unwrap(), bus.segment_shifts());
        // A disabled probe records nothing and changes nothing.
        let shifts = bus.segment_shifts();
        bus.stream_words_probed(0, 10, &words, &rm_core::NullProbe, "bus/internal");
        assert!(bus.segment_shifts() > shifts);
    }

    #[test]
    fn cycle_into_reuses_the_caller_buffer() {
        let mut bus = SegmentedBus::new(8);
        let mut via_cycle = SegmentedBus::new(8);
        bus.try_inject(0, 77, 3);
        via_cycle.try_inject(0, 77, 3);
        let mut scratch = Vec::with_capacity(4);
        let mut got = Vec::new();
        for _ in 0..8 {
            scratch.clear();
            bus.cycle_into(&mut scratch);
            got.extend(scratch.iter().map(|d| d.packet.data));
            for d in via_cycle.cycle() {
                assert_eq!(d.packet.data, 77);
            }
        }
        assert_eq!(got, vec![77]);
        assert_eq!(bus, via_cycle);
    }

    #[test]
    fn bulk_stream_matches_cycled_stream_exactly() {
        // Every hop distance including the eject-next-cycle d == 1 case,
        // with word counts around the pipelining boundaries.
        for (src, dst) in [(0usize, 1usize), (0, 2), (2, 7), (0, 15), (3, 4)] {
            for n in [1usize, 2, 3, 17, 64] {
                let words: Vec<u64> = (0..n as u64).map(|i| 0xA000 + i).collect();
                let mut bulk = SegmentedBus::new(16);
                bulk.cycles = 5; // a non-zero starting clock must carry over
                let mut cycled = bulk.clone();
                let out_bulk = bulk.stream_words(src, dst, &words);
                let out_cycled = cycled.stream_words_cycled_reference(src, dst, &words);
                assert_eq!(out_bulk, out_cycled, "deliveries src {src} dst {dst} n {n}");
                assert_eq!(bulk, cycled, "bus state src {src} dst {dst} n {n}");
            }
        }
    }

    #[test]
    fn stream_words_into_appends_what_stream_words_returns() {
        let words: Vec<u64> = (0..9).map(|i| 0xB000 + i).collect();
        let mut plain = SegmentedBus::new(8);
        let expect = plain.stream_words(0, 7, &words);
        let mut into = SegmentedBus::new(8);
        let mut out = vec![expect[0]];
        into.stream_words_into(0, 7, &words, &mut out);
        assert_eq!(out[1..], expect[..], "appended after existing entries");
        assert_eq!(into, plain, "same bus state");
    }

    #[test]
    fn occupied_bus_still_streams_through_the_loop() {
        // A packet already in flight forces the cycle-by-cycle path; the
        // stream must still deliver everything and leave the bus empty.
        let mut bus = SegmentedBus::new(16);
        assert!(bus.try_inject(4, 0xFEED, 12));
        assert!(!bus.is_empty());
        let words: Vec<u64> = (0..10).collect();
        let out = bus.stream_words(0, 10, &words);
        let datas: Vec<u64> = out
            .iter()
            .map(|d| d.packet.data)
            .filter(|&d| d != 0xFEED)
            .collect();
        assert_eq!(datas, words);
        assert_eq!(out.len(), 11, "pre-existing packet also delivered");
        assert!(bus.is_empty());
    }

    #[test]
    fn stream_words_empty_is_free() {
        let mut bus = SegmentedBus::new(8);
        assert!(bus.stream_words(0, 5, &[]).is_empty());
        assert_eq!(bus.cycles(), 0);
    }

    #[test]
    fn model_segment_count_and_latency() {
        let m = SegmentedBusModel::paper_default();
        assert_eq!(m.segment_count(), 4);
        assert_eq!(m.word_latency_cycles(), 4);
        let m64 = SegmentedBusModel::with_segment_domains(64);
        assert_eq!(m64.segment_count(), 64);
    }

    #[test]
    fn model_pipelining_beats_word_at_a_time() {
        let m = SegmentedBusModel::with_segment_domains(256);
        let n = 1000;
        assert!(m.stream_cycles(n) < m.unpipelined_cycles(n) / 4);
        assert_eq!(m.stream_cycles(0), 0);
        assert_eq!(m.stream_cycles(1), m.word_latency_cycles());
    }

    #[test]
    fn model_energy_independent_of_segment_size() {
        let e1024 = SegmentedBusModel::with_segment_domains(1024).stream_energy_pj(500);
        let e64 = SegmentedBusModel::with_segment_domains(64).stream_energy_pj(500);
        assert!((e1024 - e64).abs() < 1e-9);
    }

    #[test]
    fn smaller_segments_cost_slightly_more_cycles() {
        let big = SegmentedBusModel::with_segment_domains(1024);
        let small = SegmentedBusModel::with_segment_domains(64);
        let n = 10_000;
        let overhead = small.stream_cycles(n) as f64 / big.stream_cycles(n) as f64 - 1.0;
        // The paper's Table V reports +2.33% end-to-end; isolated on the bus
        // the effect is small and positive.
        assert!(overhead > 0.0 && overhead < 0.05, "overhead {overhead}");
    }
}
