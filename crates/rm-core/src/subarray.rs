//! A subarray: the basic unit for serving memory requests (paper §II-A).
//!
//! A subarray groups several mats behind shared peripheral circuits and a
//! *local row buffer* (the SALP-inspired design of paper §III-B that lets
//! different subarrays proceed in parallel). Only some mats carry transfer
//! tracks for non-destructive reads towards the RM bus; the paper's default
//! is 2 transfer-capable mats out of 16 (§V-G).

use crate::error::RmError;
use crate::mat::Mat;
use crate::stats::OpCounters;
use crate::Result;

/// A group of mats with a local row buffer.
///
/// Byte addresses within a subarray run mat-major: bytes `0..mat_bytes` live
/// in mat 0, and so on, with rows packed consecutively inside a mat.
#[derive(Debug, Clone)]
pub struct Subarray {
    mats: Vec<Mat>,
    row_bytes: usize,
    rows_per_mat: usize,
    /// Local row buffer: caches the most recently accessed (mat, row).
    row_buffer: Option<(usize, usize, Vec<u8>)>,
    /// Row-buffer hit statistics.
    buffer_hits: u64,
    buffer_misses: u64,
}

impl Subarray {
    /// Creates a subarray of `mats` mats, of which the first
    /// `transfer_mats` get transfer tracks.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized dimensions (construction is programmer error;
    /// see [`Mat::new`] for per-mat constraints).
    pub fn new(
        mats: usize,
        transfer_mats: usize,
        save_tracks: usize,
        transfer_tracks: usize,
        domains_per_track: usize,
        ports_per_track: usize,
    ) -> Self {
        assert!(mats > 0, "a subarray needs at least one mat");
        assert!(
            transfer_mats <= mats,
            "cannot have more transfer mats than mats"
        );
        let mats: Vec<Mat> = (0..mats)
            .map(|i| {
                let tt = if i < transfer_mats {
                    transfer_tracks
                } else {
                    0
                };
                Mat::new(save_tracks, tt, domains_per_track, ports_per_track)
            })
            .collect();
        let row_bytes = mats[0].row_bytes();
        let rows_per_mat = mats[0].rows();
        Subarray {
            mats,
            row_bytes,
            rows_per_mat,
            row_buffer: None,
            buffer_hits: 0,
            buffer_misses: 0,
        }
    }

    /// Number of mats.
    #[inline]
    pub fn mat_count(&self) -> usize {
        self.mats.len()
    }

    /// Bytes per row.
    #[inline]
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Total rows across all mats.
    #[inline]
    pub fn total_rows(&self) -> usize {
        self.rows_per_mat * self.mats.len()
    }

    /// Capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> usize {
        self.total_rows() * self.row_bytes
    }

    /// Immutable access to a mat (e.g. to query transfer capability).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::TrackIndex`] if `mat` is out of range.
    pub fn mat(&self, mat: usize) -> Result<&Mat> {
        self.mats.get(mat).ok_or(RmError::TrackIndex {
            index: mat,
            count: self.mats.len(),
        })
    }

    /// Mutable access to a mat (for PIM data movement).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::TrackIndex`] if `mat` is out of range.
    pub fn mat_mut(&mut self, mat: usize) -> Result<&mut Mat> {
        let count = self.mats.len();
        self.mats
            .get_mut(mat)
            .ok_or(RmError::TrackIndex { index: mat, count })
    }

    /// Row-buffer hit/miss counts since construction.
    #[inline]
    pub fn row_buffer_stats(&self) -> (u64, u64) {
        (self.buffer_hits, self.buffer_misses)
    }

    /// Splits a subarray-global row index into (mat, row-in-mat).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::RowIndex`] if out of range.
    pub fn locate_row(&self, row: usize) -> Result<(usize, usize)> {
        if row >= self.total_rows() {
            return Err(RmError::RowIndex {
                row: row as u64,
                rows: self.total_rows() as u64,
            });
        }
        Ok((row / self.rows_per_mat, row % self.rows_per_mat))
    }

    /// Reads a subarray-global row through the local row buffer.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::RowIndex`] if out of range.
    pub fn read_row(&mut self, row: usize) -> Result<Vec<u8>> {
        let mut data = vec![0u8; self.row_bytes];
        self.read_row_into(row, &mut data)?;
        Ok(data)
    }

    /// Reads a subarray-global row into a caller-provided buffer (through
    /// the local row buffer), avoiding the per-call allocation of
    /// [`Self::read_row`] — use this from inner loops.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::LengthMismatch`] if `buf` is not exactly
    /// [`Self::row_bytes`] long, or [`RmError::RowIndex`] if out of range.
    pub fn read_row_into(&mut self, row: usize, buf: &mut [u8]) -> Result<()> {
        if buf.len() != self.row_bytes {
            return Err(RmError::LengthMismatch {
                expected: self.row_bytes,
                actual: buf.len(),
            });
        }
        let (mat, local) = self.locate_row(row)?;
        if let Some((bm, br, data)) = &self.row_buffer {
            if *bm == mat && *br == local {
                self.buffer_hits += 1;
                buf.copy_from_slice(data);
                return Ok(());
            }
        }
        self.buffer_misses += 1;
        self.mats[mat].read_row_into(local, buf)?;
        // Refill the row buffer in place where possible.
        match &mut self.row_buffer {
            Some((bm, br, data)) if data.len() == buf.len() => {
                *bm = mat;
                *br = local;
                data.copy_from_slice(buf);
            }
            slot => *slot = Some((mat, local, buf.to_vec())),
        }
        Ok(())
    }

    /// Writes a subarray-global row (write-through: the row buffer is
    /// updated as well).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::RowIndex`] or [`RmError::LengthMismatch`].
    pub fn write_row(&mut self, row: usize, data: &[u8]) -> Result<()> {
        let (mat, local) = self.locate_row(row)?;
        self.mats[mat].write_row(local, data)?;
        match &mut self.row_buffer {
            Some((bm, br, buf)) if buf.len() == data.len() => {
                *bm = mat;
                *br = local;
                buf.copy_from_slice(data);
            }
            slot => *slot = Some((mat, local, data.to_vec())),
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at byte `offset`, spanning rows and
    /// mats as needed.
    ///
    /// # Errors
    ///
    /// Returns [`RmError::AddressOutOfRange`] if the span exceeds capacity.
    pub fn read_bytes(&mut self, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.check_span(offset, buf.len())?;
        let mut row_data = vec![0u8; self.row_bytes];
        let mut pos = 0;
        while pos < buf.len() {
            let byte_addr = offset + pos;
            let row = byte_addr / self.row_bytes;
            let within = byte_addr % self.row_bytes;
            let take = (self.row_bytes - within).min(buf.len() - pos);
            self.read_row_into(row, &mut row_data)?;
            buf[pos..pos + take].copy_from_slice(&row_data[within..within + take]);
            pos += take;
        }
        Ok(())
    }

    /// Writes `data` starting at byte `offset` (read-modify-write on
    /// partially covered rows).
    ///
    /// # Errors
    ///
    /// Returns [`RmError::AddressOutOfRange`] if the span exceeds capacity.
    pub fn write_bytes(&mut self, offset: usize, data: &[u8]) -> Result<()> {
        self.check_span(offset, data.len())?;
        let mut pos = 0;
        while pos < data.len() {
            let byte_addr = offset + pos;
            let row = byte_addr / self.row_bytes;
            let within = byte_addr % self.row_bytes;
            let take = (self.row_bytes - within).min(data.len() - pos);
            let mut row_data = if take == self.row_bytes {
                vec![0u8; self.row_bytes]
            } else {
                self.read_row(row)?
            };
            row_data[within..within + take].copy_from_slice(&data[pos..pos + take]);
            self.write_row(row, &row_data)?;
            pos += take;
        }
        Ok(())
    }

    /// Aggregated operation counters over all mats.
    pub fn counters(&self) -> OpCounters {
        self.mats.iter().map(|m| m.counters()).sum()
    }

    /// Attaches an attribution probe to every mat, under
    /// `{prefix}/mat[i]` paths (see [`Mat::attach_probe`]).
    pub fn attach_probe(&mut self, probe: &std::sync::Arc<dyn crate::probe::Probe>, prefix: &str) {
        for (i, m) in self.mats.iter_mut().enumerate() {
            m.attach_probe(crate::probe::ProbeAttachment::new(
                std::sync::Arc::clone(probe),
                format!("{prefix}/mat[{i}]"),
            ));
        }
    }

    /// Resets counters on every mat and the row-buffer statistics.
    pub fn reset_counters(&mut self) {
        for m in &mut self.mats {
            m.reset_counters();
        }
        self.buffer_hits = 0;
        self.buffer_misses = 0;
    }

    fn check_span(&self, offset: usize, len: usize) -> Result<()> {
        let cap = self.capacity_bytes();
        if offset.checked_add(len).is_none_or(|end| end > cap) {
            return Err(RmError::AddressOutOfRange {
                addr: offset as u64,
                capacity: cap as u64,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subarray() -> Subarray {
        // 2 mats (1 with transfer tracks), 16 save tracks, 64 rows each.
        Subarray::new(2, 1, 16, 16, 64, 4)
    }

    #[test]
    fn geometry() {
        let s = subarray();
        assert_eq!(s.mat_count(), 2);
        assert_eq!(s.row_bytes(), 2);
        assert_eq!(s.total_rows(), 128);
        assert_eq!(s.capacity_bytes(), 256);
        assert!(s.mat(0).unwrap().has_transfer_tracks());
        assert!(!s.mat(1).unwrap().has_transfer_tracks());
        assert!(s.mat(2).is_err());
    }

    #[test]
    fn locate_row_spans_mats() {
        let s = subarray();
        assert_eq!(s.locate_row(0).unwrap(), (0, 0));
        assert_eq!(s.locate_row(63).unwrap(), (0, 63));
        assert_eq!(s.locate_row(64).unwrap(), (1, 0));
        assert!(s.locate_row(128).is_err());
    }

    #[test]
    fn row_round_trip_across_mats() {
        let mut s = subarray();
        s.write_row(10, &[1, 2]).unwrap();
        s.write_row(70, &[3, 4]).unwrap();
        assert_eq!(s.read_row(10).unwrap(), vec![1, 2]);
        assert_eq!(s.read_row(70).unwrap(), vec![3, 4]);
    }

    #[test]
    fn row_buffer_hits_on_repeat() {
        let mut s = subarray();
        s.write_row(5, &[9, 9]).unwrap();
        let _ = s.read_row(5).unwrap(); // buffered by the write
        let _ = s.read_row(5).unwrap();
        let (hits, misses) = s.row_buffer_stats();
        assert_eq!(hits, 2);
        assert_eq!(misses, 0);
        let _ = s.read_row(6).unwrap();
        assert_eq!(s.row_buffer_stats().1, 1);
    }

    #[test]
    fn read_row_into_matches_read_row_and_checks_length() {
        let mut s = subarray();
        s.write_row(7, &[1, 2]).unwrap();
        let mut buf = [0u8; 2];
        s.read_row_into(7, &mut buf).unwrap();
        assert_eq!(buf.to_vec(), s.read_row(7).unwrap());
        // Both reads hit the row buffer populated by the write.
        assert_eq!(s.row_buffer_stats(), (2, 0));
        let mut bad = [0u8; 3];
        assert!(s.read_row_into(7, &mut bad).is_err());
    }

    #[test]
    fn byte_span_round_trip_crossing_rows_and_mats() {
        let mut s = subarray();
        let data: Vec<u8> = (0..100u8).collect();
        // Start mid-row, cross the mat boundary at byte 128.
        s.write_bytes(101, &data).unwrap();
        let mut back = vec![0u8; 100];
        s.read_bytes(101, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn partial_write_preserves_neighbors() {
        let mut s = subarray();
        s.write_row(0, &[0xAA, 0xBB]).unwrap();
        s.write_bytes(1, &[0xCC]).unwrap();
        assert_eq!(s.read_row(0).unwrap(), vec![0xAA, 0xCC]);
    }

    #[test]
    fn span_bounds_checked() {
        let mut s = subarray();
        assert!(s.write_bytes(250, &[0u8; 10]).is_err());
        let mut buf = [0u8; 4];
        assert!(s.read_bytes(usize::MAX - 1, &mut buf).is_err());
    }

    #[test]
    fn counters_aggregate_over_mats() {
        let mut s = subarray();
        s.write_row(0, &[0, 0]).unwrap();
        s.write_row(64, &[0, 0]).unwrap();
        assert_eq!(s.counters().writes, 2);
        s.reset_counters();
        assert_eq!(s.counters().writes, 0);
        assert_eq!(s.row_buffer_stats(), (0, 0));
    }
}
