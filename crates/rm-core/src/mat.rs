//! A mat: a lockstep-shifted array of racetracks with save and transfer
//! tracks (paper §III-E).
//!
//! A *row* is the set of domains at the same along-track position across all
//! save tracks, so a mat with 512 save tracks stores 64-byte rows. Save
//! tracks hold data and carry access ports; transfer tracks have no ports —
//! they receive fan-out copies of save-track rows and shift them out towards
//! the RM bus, implementing the paper's **non-destructive read**: the save
//! track keeps its data while the replica leaves the mat as pure magnetic
//! signal (no electromagnetic conversion).
//!
//! Internally the mat stores each row as one [`PackedBits`] *bit plane*
//! (lane `t` = save track `t`, LSB-first), so `read_row`/`write_row`/
//! `shift_out_*` move whole rows as words instead of looping per track. The
//! tracks still shift in lockstep, so a single shared `offset`/`overhead`
//! per track group replaces the per-wire bookkeeping — observable behaviour,
//! errors, and [`OpCounters`] are identical to the scalar model retained in
//! [`crate::reference::ScalarMat`], which the differential proptests verify.
//!
//! Accounting granularity: one `read`/`write` counter tick corresponds to one
//! *row* access, and one `shift` tick to a one-domain lockstep shift of the
//! whole mat. All platforms in this reproduction use the same granularity, so
//! relative comparisons are unaffected by the choice.

use crate::bits::PackedBits;
use crate::error::RmError;
use crate::nanowire::ShiftDir;
use crate::probe::{ProbeAttachment, ProbeSample};
use crate::stats::OpCounters;
use crate::Result;

/// A set of identical racetracks stored as per-row bit planes and shifted in
/// lockstep: plane `r` holds the domains at along-track position `r`, one
/// lane per track. Because every track shares the same port layout and shift
/// history, one `offset`/`overhead` pair serves the whole group.
#[derive(Debug, Clone)]
struct TrackGroup {
    /// `planes[row]` = the bits of all tracks at along-track position `row`.
    planes: Vec<PackedBits>,
    /// Number of tracks (lanes per plane).
    tracks: usize,
    /// Cumulative lockstep shift (positive = shifted right).
    offset: isize,
    /// Reserved overhead domains per side; |offset| may never exceed this.
    overhead: usize,
}

impl TrackGroup {
    fn new(tracks: usize, rows: usize, overhead: usize) -> Self {
        TrackGroup {
            planes: (0..rows).map(|_| PackedBits::new(tracks)).collect(),
            tracks,
            offset: 0,
            overhead,
        }
    }

    fn is_empty(&self) -> bool {
        self.tracks == 0
    }

    /// Lockstep shift with the same range check and error as
    /// [`crate::Nanowire::shift`].
    fn shift(&mut self, dir: ShiftDir, distance: usize) -> Result<()> {
        let new_offset = self.offset + dir.sign() * distance as isize;
        if new_offset.unsigned_abs() > self.overhead {
            let available = match dir {
                ShiftDir::Right => (self.overhead as isize - self.offset).max(0) as usize,
                ShiftDir::Left => (self.overhead as isize + self.offset).max(0) as usize,
            };
            return Err(RmError::ShiftOutOfRange {
                requested: distance,
                available,
            });
        }
        self.offset = new_offset;
        Ok(())
    }
}

/// A group of domain-wall nanowires shifted in lockstep.
///
/// ```
/// use rm_core::Mat;
///
/// let mut mat = Mat::new(16, 16, 64, 4);
/// mat.write_row(7, &[0xAB, 0xCD]).unwrap();
/// assert_eq!(mat.read_row(7).unwrap(), vec![0xAB, 0xCD]);
/// ```
#[derive(Debug, Clone)]
pub struct Mat {
    save: TrackGroup,
    transfer: TrackGroup,
    domains_per_track: usize,
    ports: Vec<usize>,
    counters: OpCounters,
    probe: Option<ProbeAttachment>,
}

impl Mat {
    /// Creates a mat of `save_tracks` port-connected tracks and
    /// `transfer_tracks` portless copy tracks, each `domains_per_track`
    /// long, with `ports_per_track` evenly spaced access ports.
    ///
    /// # Panics
    ///
    /// Panics if `save_tracks` is not a positive multiple of 8 (rows must be
    /// whole bytes), or if `domains_per_track`/`ports_per_track` are zero.
    pub fn new(
        save_tracks: usize,
        transfer_tracks: usize,
        domains_per_track: usize,
        ports_per_track: usize,
    ) -> Self {
        assert!(
            save_tracks > 0 && save_tracks.is_multiple_of(8),
            "save tracks must be a positive multiple of 8"
        );
        assert!(domains_per_track > 0, "tracks need at least one domain");
        assert!(ports_per_track > 0, "tracks need at least one port");
        let stride = domains_per_track / ports_per_track;
        let ports: Vec<usize> = (0..ports_per_track).map(|i| i * stride).collect();
        // Overhead regions match the per-wire sizing of `Nanowire::new`: the
        // save tracks carry `ports_per_track` ports, the transfer tracks a
        // single virtual port at 0 used only by the functional copy.
        let save_overhead = (domains_per_track / ports_per_track).max(1);
        Mat {
            save: TrackGroup::new(save_tracks, domains_per_track, save_overhead),
            transfer: TrackGroup::new(transfer_tracks, domains_per_track, domains_per_track),
            domains_per_track,
            ports,
            counters: OpCounters::default(),
            probe: None,
        }
    }

    /// Attaches an attribution probe: every counter increment is mirrored as
    /// a [`ProbeSample`] under the attachment's path. The unattached hot path
    /// pays a single `Option` discriminant check per operation.
    pub fn attach_probe(&mut self, attachment: ProbeAttachment) {
        self.probe = Some(attachment);
    }

    /// Detaches any attribution probe.
    pub fn detach_probe(&mut self) {
        self.probe = None;
    }

    /// Emits an op-counter delta to the attached probe, constructing the
    /// delta only when a probe is attached and enabled.
    #[inline]
    fn probe_ops(&self, make: impl FnOnce() -> OpCounters) {
        if let Some(p) = &self.probe {
            if p.enabled() {
                p.record(ProbeSample::ops(make()));
            }
        }
    }

    /// Number of save tracks.
    #[inline]
    pub fn save_tracks(&self) -> usize {
        self.save.tracks
    }

    /// Number of transfer tracks.
    #[inline]
    pub fn transfer_tracks(&self) -> usize {
        self.transfer.tracks
    }

    /// Whether this mat can serve non-destructive reads towards the bus.
    #[inline]
    pub fn has_transfer_tracks(&self) -> bool {
        !self.transfer.is_empty()
    }

    /// Rows stored by this mat.
    #[inline]
    pub fn rows(&self) -> usize {
        self.domains_per_track
    }

    /// Bytes per row.
    #[inline]
    pub fn row_bytes(&self) -> usize {
        self.save.tracks / 8
    }

    /// Operation counters accumulated by this mat.
    #[inline]
    pub fn counters(&self) -> OpCounters {
        self.counters
    }

    /// Resets the counters.
    pub fn reset_counters(&mut self) {
        self.counters = OpCounters::default();
    }

    /// Aligns `row` under its nearest access port, shifting all tracks in
    /// lockstep; returns the shift distance in domains.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::RowIndex`] for an out-of-range row or
    /// [`RmError::ShiftOutOfRange`] if alignment would exceed the overhead.
    pub fn align_row(&mut self, row: usize) -> Result<usize> {
        self.check_row(row)?;
        // Choose, among ports whose alignment offset stays inside the
        // reserved overhead region, the one minimizing the shift distance
        // from the current offset.
        let offset = self.save.offset;
        let overhead = self.save.overhead as isize;
        let (best_port, dist) = self
            .ports
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| {
                let target = p as isize - row as isize;
                (target.abs() <= overhead).then_some((i, (target - offset).unsigned_abs()))
            })
            .min_by_key(|&(_, d)| d)
            .ok_or(RmError::ShiftOutOfRange {
                requested: row,
                available: overhead as usize,
            })?;
        if dist > 0 {
            let target = self.ports[best_port] as isize - row as isize;
            let dir = if target > offset {
                ShiftDir::Right
            } else {
                ShiftDir::Left
            };
            self.save.shift(dir, dist)?;
            if !self.transfer.is_empty() {
                self.transfer.shift(dir, dist)?;
            }
            self.counters.shifts += dist as u64;
            self.counters.shift_distance += dist as u64;
            self.probe_ops(|| OpCounters {
                shifts: dist as u64,
                shift_distance: dist as u64,
                ..OpCounters::default()
            });
        }
        Ok(dist)
    }

    /// Reads `row` (non-destructively, through the access ports).
    ///
    /// The returned vector has [`Self::row_bytes`] bytes; bit `t` of the row
    /// lives on save track `t`, packed LSB-first into bytes.
    ///
    /// # Errors
    ///
    /// See [`Self::align_row`].
    pub fn read_row(&mut self, row: usize) -> Result<Vec<u8>> {
        let mut out = vec![0u8; self.row_bytes()];
        self.read_row_into(row, &mut out)?;
        Ok(out)
    }

    /// Reads `row` into a caller-provided buffer, avoiding the per-call
    /// allocation of [`Self::read_row`] — use this from inner loops.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::LengthMismatch`] if `buf` is not exactly
    /// [`Self::row_bytes`] long, plus the errors of [`Self::align_row`].
    pub fn read_row_into(&mut self, row: usize, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.row_bytes() {
            return Err(RmError::LengthMismatch {
                expected: self.row_bytes(),
                actual: buf.len(),
            });
        }
        self.align_row(row)?;
        self.counters.reads += 1;
        self.probe_ops(|| OpCounters {
            reads: 1,
            ..OpCounters::default()
        });
        self.save.planes[row].write_bytes_lsb(buf);
        Ok(())
    }

    /// Reads `row` as a packed bit plane (lane `t` = save track `t`); the
    /// word-level sibling of [`Self::read_row`] with identical accounting.
    ///
    /// # Errors
    ///
    /// See [`Self::align_row`].
    pub fn read_row_packed(&mut self, row: usize) -> Result<PackedBits> {
        self.align_row(row)?;
        self.counters.reads += 1;
        self.probe_ops(|| OpCounters {
            reads: 1,
            ..OpCounters::default()
        });
        Ok(self.save.planes[row].clone())
    }

    /// Writes `row` through the access ports.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::LengthMismatch`] if `data` is not exactly one row,
    /// plus the errors of [`Self::align_row`].
    pub fn write_row(&mut self, row: usize, data: &[u8]) -> Result<()> {
        if data.len() != self.row_bytes() {
            return Err(RmError::LengthMismatch {
                expected: self.row_bytes(),
                actual: data.len(),
            });
        }
        self.align_row(row)?;
        self.counters.writes += 1;
        self.probe_ops(|| OpCounters {
            writes: 1,
            ..OpCounters::default()
        });
        self.save.planes[row].set_bytes_lsb(data);
        Ok(())
    }

    /// Writes `row` from a packed bit plane; the word-level sibling of
    /// [`Self::write_row`] with identical accounting.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::LengthMismatch`] if `data` does not have exactly
    /// one lane per save track, plus the errors of [`Self::align_row`].
    pub fn write_row_packed(&mut self, row: usize, data: &PackedBits) -> Result<()> {
        if data.len() != self.save.tracks {
            return Err(RmError::LengthMismatch {
                expected: self.save.tracks,
                actual: data.len(),
            });
        }
        self.align_row(row)?;
        self.counters.writes += 1;
        self.probe_ops(|| OpCounters {
            writes: 1,
            ..OpCounters::default()
        });
        self.save.planes[row].copy_range_from(0, data, 0, data.len());
        Ok(())
    }

    /// Fan-out copies `row` from the save tracks onto the transfer tracks
    /// without disturbing the save tracks (paper Figure 7d): the replica can
    /// then leave via [`Self::shift_out_transfer_row`] while the original
    /// stays — a non-destructive read with zero read/write operations.
    ///
    /// Costs one lockstep shift (the fan-out propagation).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::TrackIndex`] if the mat has no transfer tracks,
    /// or [`RmError::RowIndex`] for a bad row.
    pub fn copy_row_to_transfer(&mut self, row: usize) -> Result<()> {
        if self.transfer.is_empty() {
            return Err(RmError::TrackIndex { index: 0, count: 0 });
        }
        self.check_row(row)?;
        self.counters.shifts += 1;
        self.counters.shift_distance += 1;
        self.probe_ops(|| OpCounters {
            shifts: 1,
            shift_distance: 1,
            ..OpCounters::default()
        });
        // Each transfer track mirrors the corresponding save track; the
        // common prefix moves as whole words.
        let direct = self.save.tracks.min(self.transfer.tracks);
        let src = &self.save.planes[row];
        self.transfer.planes[row].copy_range_from(0, src, 0, direct);
        // If there are fewer transfer tracks than save tracks, remaining bits
        // are copied on subsequent chunk positions of the same tracks.
        if self.transfer.tracks < self.save.tracks {
            for t in self.transfer.tracks..self.save.tracks {
                let bit = self.save.planes[row].get(t);
                let dst_track = t % self.transfer.tracks;
                // Place the overflow chunk at the same row; transfer tracks
                // stream chunks out sequentially so only data order matters.
                let dst_row = (row + t / self.transfer.tracks) % self.domains_per_track;
                self.transfer.planes[dst_row].set(dst_track, bit);
            }
        }
        Ok(())
    }

    /// Shifts the replica of `row` off the transfer tracks (towards the RM
    /// bus) and returns its bytes. Destructive on the transfer tracks only;
    /// the save tracks keep the data.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::TrackIndex`] if the mat has no transfer tracks, or
    /// [`RmError::RowIndex`] for a bad row.
    pub fn shift_out_transfer_row(&mut self, row: usize) -> Result<Vec<u8>> {
        Ok(self.shift_out_transfer_row_packed(row)?.to_bytes_lsb())
    }

    /// Word-level sibling of [`Self::shift_out_transfer_row`]: the replica
    /// leaves as a packed bit plane (lane `t` = save track `t`).
    ///
    /// # Errors
    ///
    /// See [`Self::shift_out_transfer_row`].
    pub fn shift_out_transfer_row_packed(&mut self, row: usize) -> Result<PackedBits> {
        if self.transfer.is_empty() {
            return Err(RmError::TrackIndex { index: 0, count: 0 });
        }
        self.check_row(row)?;
        self.counters.shifts += 1;
        self.counters.shift_distance += 1;
        self.probe_ops(|| OpCounters {
            shifts: 1,
            shift_distance: 1,
            ..OpCounters::default()
        });
        let tracks = self.save.tracks;
        if self.transfer.tracks >= tracks {
            // The whole row lives on plane `row` of the transfer tracks:
            // extract and clear it word-by-word.
            let mut out = PackedBits::new(tracks);
            out.copy_range_from(0, &self.transfer.planes[row], 0, tracks);
            self.transfer.planes[row].fill_range(0, tracks, false);
            Ok(out)
        } else {
            // Overflow chunks were laid out across rows; gather bit-by-bit.
            let mut out = PackedBits::new(tracks);
            for t in 0..tracks {
                let (src_track, src_row) = if t < self.transfer.tracks {
                    (t, row)
                } else {
                    (
                        t % self.transfer.tracks,
                        (row + t / self.transfer.tracks) % self.domains_per_track,
                    )
                };
                out.set(t, self.transfer.planes[src_row].get(src_track));
                // Domains physically leave the wire.
                self.transfer.planes[src_row].set(src_track, false);
            }
            Ok(out)
        }
    }

    /// [`Self::copy_row_to_transfer`] followed by
    /// [`Self::shift_out_transfer_row_packed`] in one call, returning the
    /// replica's first backing word: lanes 0..64, LSB-first, which is the
    /// whole row — and its bus word — when the mat has at most 64 save
    /// tracks. Counters, probe samples, errors and the state left on the
    /// tracks are those of the two calls; the word moves without an
    /// intermediate plane.
    ///
    /// # Errors
    ///
    /// See [`Self::copy_row_to_transfer`].
    pub fn transfer_row_word(&mut self, row: usize) -> Result<u64> {
        if self.transfer.tracks < self.save.tracks {
            // Overflow chunks spread over several transfer rows.
            self.copy_row_to_transfer(row)?;
            return Ok(self.shift_out_transfer_row_packed(row)?.words()[0]);
        }
        self.check_row(row)?;
        // One shift fans the row out, one shifts the replica off.
        for _ in 0..2 {
            self.counters.shifts += 1;
            self.counters.shift_distance += 1;
            self.probe_ops(|| OpCounters {
                shifts: 1,
                shift_distance: 1,
                ..OpCounters::default()
            });
        }
        self.transfer.planes[row].fill_range(0, self.save.tracks, false);
        Ok(self.save.planes[row].words()[0])
    }

    /// Destructively shifts `row` straight off the save tracks (used when
    /// the data is genuinely being *moved*, e.g. operand consumption).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::RowIndex`] for a bad row.
    pub fn shift_out_save_row(&mut self, row: usize) -> Result<Vec<u8>> {
        Ok(self.shift_out_save_row_packed(row)?.to_bytes_lsb())
    }

    /// Word-level sibling of [`Self::shift_out_save_row`].
    ///
    /// # Errors
    ///
    /// Returns [`RmError::RowIndex`] for a bad row.
    pub fn shift_out_save_row_packed(&mut self, row: usize) -> Result<PackedBits> {
        self.check_row(row)?;
        self.counters.shifts += 1;
        self.counters.shift_distance += 1;
        self.probe_ops(|| OpCounters {
            shifts: 1,
            shift_distance: 1,
            ..OpCounters::default()
        });
        let empty = PackedBits::new(self.save.tracks);
        Ok(std::mem::replace(&mut self.save.planes[row], empty))
    }

    /// Receives a row arriving from the RM bus by shift (no electromagnetic
    /// conversion — this is *not* a write operation).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::LengthMismatch`] or [`RmError::RowIndex`].
    pub fn shift_in_row(&mut self, row: usize, data: &[u8]) -> Result<()> {
        if data.len() != self.row_bytes() {
            return Err(RmError::LengthMismatch {
                expected: self.row_bytes(),
                actual: data.len(),
            });
        }
        self.check_row(row)?;
        self.counters.shifts += 1;
        self.counters.shift_distance += 1;
        self.probe_ops(|| OpCounters {
            shifts: 1,
            shift_distance: 1,
            ..OpCounters::default()
        });
        self.save.planes[row].set_bytes_lsb(data);
        Ok(())
    }

    /// Word-level sibling of [`Self::shift_in_row`].
    ///
    /// # Errors
    ///
    /// Returns [`RmError::LengthMismatch`] if `data` does not have exactly
    /// one lane per save track, or [`RmError::RowIndex`].
    pub fn shift_in_row_packed(&mut self, row: usize, data: &PackedBits) -> Result<()> {
        if data.len() != self.save.tracks {
            return Err(RmError::LengthMismatch {
                expected: self.save.tracks,
                actual: data.len(),
            });
        }
        self.check_row(row)?;
        self.counters.shifts += 1;
        self.counters.shift_distance += 1;
        self.probe_ops(|| OpCounters {
            shifts: 1,
            shift_distance: 1,
            ..OpCounters::default()
        });
        self.save.planes[row].copy_range_from(0, data, 0, data.len());
        Ok(())
    }

    fn check_row(&self, row: usize) -> Result<()> {
        if row >= self.domains_per_track {
            return Err(RmError::RowIndex {
                row: row as u64,
                rows: self.domains_per_track as u64,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat() -> Mat {
        Mat::new(16, 16, 64, 4)
    }

    #[test]
    fn geometry_accessors() {
        let m = mat();
        assert_eq!(m.save_tracks(), 16);
        assert_eq!(m.transfer_tracks(), 16);
        assert_eq!(m.rows(), 64);
        assert_eq!(m.row_bytes(), 2);
        assert!(m.has_transfer_tracks());
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = mat();
        m.write_row(0, &[0x01, 0x80]).unwrap();
        m.write_row(63, &[0xFF, 0x00]).unwrap();
        assert_eq!(m.read_row(0).unwrap(), vec![0x01, 0x80]);
        assert_eq!(m.read_row(63).unwrap(), vec![0xFF, 0x00]);
    }

    #[test]
    fn read_is_non_destructive() {
        let mut m = mat();
        m.write_row(5, &[0xAA, 0x55]).unwrap();
        for _ in 0..3 {
            assert_eq!(m.read_row(5).unwrap(), vec![0xAA, 0x55]);
        }
    }

    #[test]
    fn align_row_uses_nearest_port_and_counts_shifts() {
        let mut m = mat();
        // Ports at 0, 16, 32, 48. Row 17 is 1 away from port 16.
        let d = m.align_row(17).unwrap();
        assert_eq!(d, 1);
        // Row 15 is 1 away from port 16 in the other direction: from the
        // current offset (-1), moving to offset +1 costs 2.
        let d = m.align_row(15).unwrap();
        assert_eq!(d, 2);
        assert_eq!(m.counters().shift_distance, 3);
    }

    #[test]
    fn rejects_bad_rows_and_lengths() {
        let mut m = mat();
        assert!(m.read_row(64).is_err());
        assert!(m.write_row(0, &[0u8; 3]).is_err());
        assert!(m.shift_in_row(0, &[0u8; 1]).is_err());
    }

    #[test]
    fn non_destructive_read_path_keeps_save_data() {
        let mut m = mat();
        m.write_row(3, &[0xDE, 0xAD]).unwrap();
        let writes_before = m.counters().writes;
        m.copy_row_to_transfer(3).unwrap();
        let out = m.shift_out_transfer_row(3).unwrap();
        assert_eq!(out, vec![0xDE, 0xAD]);
        // Save tracks untouched, and the path performed no write ops.
        assert_eq!(m.read_row(3).unwrap(), vec![0xDE, 0xAD]);
        assert_eq!(m.counters().writes, writes_before);
    }

    #[test]
    fn transfer_row_word_equals_copy_then_shift_out() {
        use crate::probe::{Probe, ProbeAttachment, ProbeSample};
        use std::sync::{Arc, Mutex};

        #[derive(Debug, Default)]
        struct LogProbe(Mutex<Vec<ProbeSample>>);
        impl Probe for LogProbe {
            fn enabled(&self) -> bool {
                true
            }
            fn record(&self, _path: &str, sample: ProbeSample) {
                self.0.lock().unwrap().push(sample);
            }
        }

        // Full transfer tracks and the overflow layout with fewer.
        for transfer_tracks in [16, 4] {
            let fresh = || {
                let mut m = Mat::new(16, transfer_tracks, 64, 4);
                m.write_row(10, &[0xC3, 0x5A]).unwrap();
                m.write_row(11, &[0x0F, 0xF0]).unwrap();
                m
            };
            let (word_probe, pair_probe) =
                (Arc::new(LogProbe::default()), Arc::new(LogProbe::default()));
            let mut word = fresh();
            word.attach_probe(ProbeAttachment::new(word_probe.clone(), "m"));
            let mut pair = fresh();
            pair.attach_probe(ProbeAttachment::new(pair_probe.clone(), "m"));
            for row in [10, 11, 10] {
                let got = word.transfer_row_word(row).unwrap();
                pair.copy_row_to_transfer(row).unwrap();
                let expect = pair.shift_out_transfer_row_packed(row).unwrap();
                assert_eq!(got, expect.words()[0], "{transfer_tracks} transfer tracks");
            }
            assert_eq!(word.counters(), pair.counters());
            assert_eq!(*word_probe.0.lock().unwrap(), *pair_probe.0.lock().unwrap());
            for row in 0..64 {
                assert_eq!(
                    word.shift_out_transfer_row(row).unwrap(),
                    pair.shift_out_transfer_row(row).unwrap(),
                    "transfer row {row} left identical"
                );
            }
            assert!(word.transfer_row_word(64).is_err());
        }
        assert!(Mat::new(8, 0, 32, 2).transfer_row_word(0).is_err());
    }

    #[test]
    fn transfer_row_is_consumed_after_shift_out() {
        let mut m = mat();
        m.write_row(9, &[0xFF, 0xFF]).unwrap();
        m.copy_row_to_transfer(9).unwrap();
        assert_eq!(m.shift_out_transfer_row(9).unwrap(), vec![0xFF, 0xFF]);
        // Second shift-out yields zeros: the replica left the wire.
        assert_eq!(m.shift_out_transfer_row(9).unwrap(), vec![0x00, 0x00]);
    }

    #[test]
    fn destructive_save_read_erases() {
        let mut m = mat();
        m.write_row(12, &[0x12, 0x34]).unwrap();
        assert_eq!(m.shift_out_save_row(12).unwrap(), vec![0x12, 0x34]);
        assert_eq!(m.read_row(12).unwrap(), vec![0x00, 0x00]);
    }

    #[test]
    fn shift_in_is_not_a_write_op() {
        let mut m = mat();
        m.shift_in_row(2, &[0x77, 0x01]).unwrap();
        assert_eq!(m.counters().writes, 0);
        assert_eq!(m.read_row(2).unwrap(), vec![0x77, 0x01]);
    }

    #[test]
    fn fewer_transfer_tracks_than_save_tracks_still_round_trips() {
        let mut m = Mat::new(16, 4, 64, 4);
        m.write_row(10, &[0xC3, 0x5A]).unwrap();
        m.copy_row_to_transfer(10).unwrap();
        assert_eq!(m.shift_out_transfer_row(10).unwrap(), vec![0xC3, 0x5A]);
    }

    #[test]
    fn matless_transfer_errors() {
        let mut m = Mat::new(8, 0, 32, 2);
        assert!(!m.has_transfer_tracks());
        assert!(m.copy_row_to_transfer(0).is_err());
        assert!(m.shift_out_transfer_row(0).is_err());
    }

    #[test]
    fn read_row_into_matches_read_row() {
        let mut m = mat();
        m.write_row(20, &[0x5A, 0xC3]).unwrap();
        let mut buf = [0u8; 2];
        m.read_row_into(20, &mut buf).unwrap();
        assert_eq!(buf.to_vec(), m.read_row(20).unwrap());
        let mut bad = [0u8; 3];
        assert!(m.read_row_into(20, &mut bad).is_err());
    }

    #[test]
    fn attached_probe_mirrors_counter_deltas_exactly() {
        use crate::probe::{Probe, ProbeAttachment, ProbeSample};
        use std::sync::{Arc, Mutex};

        #[derive(Debug, Default)]
        struct SumProbe {
            total: Mutex<OpCounters>,
        }
        impl Probe for SumProbe {
            fn enabled(&self) -> bool {
                true
            }
            fn record(&self, _path: &str, sample: ProbeSample) {
                *self.total.lock().unwrap() += sample.ops;
            }
        }

        let probe = Arc::new(SumProbe::default());
        let mut m = mat();
        m.attach_probe(ProbeAttachment::new(
            probe.clone() as Arc<dyn Probe>,
            "device/subarray[0]/mat[0]",
        ));
        m.write_row(3, &[0x11, 0x22]).unwrap();
        m.read_row(3).unwrap();
        m.read_row(40).unwrap();
        m.copy_row_to_transfer(3).unwrap();
        m.shift_out_transfer_row(3).unwrap();
        m.shift_out_save_row(3).unwrap();
        m.shift_in_row(7, &[0x01, 0x02]).unwrap();
        assert_eq!(*probe.total.lock().unwrap(), m.counters());
        m.detach_probe();
        m.read_row(7).unwrap();
        assert_ne!(*probe.total.lock().unwrap(), m.counters());
    }

    #[test]
    fn packed_row_api_round_trips_with_byte_api() {
        let mut m = mat();
        let plane = PackedBits::from_bytes_lsb(&[0x3C, 0x81], 16);
        m.write_row_packed(8, &plane).unwrap();
        assert_eq!(m.read_row(8).unwrap(), vec![0x3C, 0x81]);
        assert_eq!(m.read_row_packed(8).unwrap(), plane);
        m.copy_row_to_transfer(8).unwrap();
        assert_eq!(m.shift_out_transfer_row_packed(8).unwrap(), plane);
        m.shift_in_row_packed(9, &plane).unwrap();
        assert_eq!(m.shift_out_save_row_packed(9).unwrap(), plane);
        assert!(m.write_row_packed(0, &PackedBits::new(8)).is_err());
        assert!(m.shift_in_row_packed(0, &PackedBits::new(8)).is_err());
    }
}
