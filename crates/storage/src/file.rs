//! Matrix files: positioned row reads and buffered sequential scans.
//!
//! [`MatrixFileWriter`] streams rows out to disk without buffering the
//! whole matrix; [`MatrixFile`] reads them back either one row at a time
//! by position (the query path: `pread` at `header.row_offset(i)`) or as
//! a buffered sequential scan (the pass path used by the compression
//! algorithms, which reads a chunk of rows per syscall). Scans longer
//! than one chunk run double-buffered: a reader thread fetches chunk
//! `c+1` while the caller decodes and consumes chunk `c`, overlapping
//! disk I/O with compute.

use crate::format::{Header, HEADER_LEN};
use crate::iostats::IoStats;
use crate::source::RowSource;
use ats_common::codec::u64_from_usize;
use ats_common::{AtsError, Result};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// Number of rows fetched per syscall during sequential scans.
const SCAN_CHUNK_ROWS: usize = 256;

/// Chunk buffers in flight during a double-buffered scan: one being
/// consumed, one being read ahead.
const READAHEAD_BUFFERS: usize = 2;

/// Streaming writer for `.atsm` matrix files.
///
/// Rows are appended one at a time; [`MatrixFileWriter::finish`] patches
/// the header (which carries the final row count and checksum) and syncs.
pub struct MatrixFileWriter {
    out: BufWriter<File>,
    path: PathBuf,
    cols: usize,
    rows_written: usize,
    f32_cells: bool,
    /// Scratch for encoding one row before a single `write_all` — avoids
    /// a `BufWriter` call per cell on the streaming-build hot path.
    scratch: Vec<u8>,
}

impl MatrixFileWriter {
    /// Create (truncating) a matrix file with `cols` columns of `f64`
    /// cells.
    pub fn create(path: impl AsRef<Path>, cols: usize) -> Result<Self> {
        Self::create_inner(path, cols, false)
    }

    /// Create a file storing cells quantized to `f32` (half the space,
    /// ~7 decimal digits — the "b bytes per number" knob of §5.1).
    pub fn create_f32(path: impl AsRef<Path>, cols: usize) -> Result<Self> {
        Self::create_inner(path, cols, true)
    }

    fn create_inner(path: impl AsRef<Path>, cols: usize, f32_cells: bool) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        let mut out = BufWriter::new(file);
        // Placeholder header; patched in finish().
        out.write_all(&[0u8; HEADER_LEN])?;
        Ok(MatrixFileWriter {
            out,
            path,
            cols,
            rows_written: 0,
            f32_cells,
            scratch: Vec::new(),
        })
    }

    /// Append one row. Errors if the length differs from `cols`.
    pub fn append_row(&mut self, row: &[f64]) -> Result<()> {
        if row.len() != self.cols {
            return Err(AtsError::dims(
                "MatrixFileWriter::append_row",
                (1, row.len()),
                (1, self.cols),
            ));
        }
        self.scratch.clear();
        encode_cells(row, self.f32_cells, &mut self.scratch);
        self.out.write_all(&self.scratch)?;
        self.rows_written += 1;
        Ok(())
    }

    /// Append several rows from a flat row-major slice whose length must
    /// be a multiple of `cols`. The whole batch is encoded into one
    /// buffer and written with a single `write_all` — the fast path for
    /// streaming builds that synthesize rows in chunks.
    pub fn append_rows(&mut self, rows: &[f64]) -> Result<()> {
        if self.cols == 0 || !rows.len().is_multiple_of(self.cols) {
            return Err(AtsError::dims(
                "MatrixFileWriter::append_rows",
                (1, rows.len()),
                (1, self.cols.max(1)),
            ));
        }
        self.scratch.clear();
        encode_cells(rows, self.f32_cells, &mut self.scratch);
        self.out.write_all(&self.scratch)?;
        self.rows_written += rows.len() / self.cols;
        Ok(())
    }

    /// Number of rows appended so far.
    pub fn rows_written(&self) -> usize {
        self.rows_written
    }

    /// Finalize: flush data, write the real header, sync, and return it.
    pub fn finish(mut self) -> Result<Header> {
        let header = if self.f32_cells {
            Header::new_f32(self.rows_written, self.cols)
        } else {
            Header::new(self.rows_written, self.cols)
        };
        self.out.flush()?;
        let mut file = self
            .out
            .into_inner()
            .map_err(|e| AtsError::Io(std::io::Error::other(format!("flush failed: {e}"))))?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header.encode())?;
        file.sync_all()?;
        let _ = &self.path;
        Ok(header)
    }
}

/// Read-only handle to a `.atsm` matrix file.
///
/// All reads are positioned (`pread`), so a `MatrixFile` is freely
/// shareable across threads — the parallel pass in `ats-compress` scans
/// disjoint row ranges of one handle concurrently.
pub struct MatrixFile {
    file: File,
    header: Header,
    stats: Arc<IoStats>,
}

impl MatrixFile {
    /// Open and validate a matrix file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_stats(path, IoStats::new())
    }

    /// Open with caller-provided I/O counters.
    pub fn open_with_stats(path: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Self> {
        let mut file = File::open(path.as_ref())?;
        let mut buf = [0u8; HEADER_LEN];
        file.read_exact(&mut buf)?;
        let header = Header::decode(&buf)?;
        // Cross-check the header's implied size (checked `rows·cols·cell`
        // arithmetic) against the actual file length: shorter means a
        // truncated write, longer means trailing garbage — both corrupt.
        let expected = header.checked_file_len()?;
        let actual = file.metadata()?.len();
        if actual < expected {
            return Err(AtsError::Corrupt(format!(
                "file truncated: {actual} bytes < expected {expected}"
            )));
        }
        if actual > expected {
            return Err(AtsError::Corrupt(format!(
                "file has {} trailing bytes past the {expected} the header implies",
                actual - expected
            )));
        }
        Ok(MatrixFile {
            file,
            header,
            stats,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Number of rows (`N`).
    pub fn rows(&self) -> usize {
        self.header.rows
    }

    /// Number of columns (`M`).
    pub fn cols(&self) -> usize {
        self.header.cols
    }

    /// The I/O counters this handle reports into.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        #[cfg(unix)]
        {
            self.file.read_exact_at(buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::Read as _;
            let mut f = &self.file;
            let mut f2 = f.try_clone()?;
            f2.seek(SeekFrom::Start(offset))?;
            f2.read_exact(buf)?;
            let _ = &mut f;
        }
        Ok(())
    }

    /// Raw positioned read at an absolute file offset, with no stats
    /// accounting — used by the buffer pool, which does its own.
    pub(crate) fn raw_read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_exact_at(buf, offset)
    }

    /// Positioned read of row `i` into `out` (length must be `cols`).
    /// One physical read.
    pub fn read_row_into(&self, i: usize, out: &mut [f64]) -> Result<()> {
        if i >= self.header.rows {
            return Err(AtsError::oob("row", i, self.header.rows));
        }
        if out.len() != self.header.cols {
            return Err(AtsError::dims(
                "read_row_into",
                (1, out.len()),
                (1, self.header.cols),
            ));
        }
        self.stats.record_logical();
        let mut buf = vec![0u8; self.header.row_bytes()];
        self.read_exact_at(&mut buf, self.header.row_offset(i))?;
        self.stats.record_physical(u64_from_usize(buf.len()));
        decode_cells(&buf, self.header.is_f32(), out);
        Ok(())
    }

    /// Positioned read of row `i`, allocating.
    pub fn read_row(&self, i: usize) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.header.cols];
        self.read_row_into(i, &mut out)?;
        Ok(out)
    }

    /// Buffered sequential scan of rows `[start, end)`, invoking
    /// `f(row_index, row)` for each. Reads a fixed-size chunk of rows per
    /// physical read; scans spanning more than one chunk run
    /// double-buffered (a reader thread prefetches the next chunk while
    /// this thread decodes the current one), so passes overlap disk I/O
    /// with compute. Rows are always delivered in order and the chunk
    /// partitioning — hence the physical/logical I/O accounting — is
    /// identical to the single-buffered path.
    pub fn scan_range(
        &self,
        start: usize,
        end: usize,
        f: &mut dyn FnMut(usize, &[f64]) -> Result<()>,
    ) -> Result<()> {
        if start > end || end > self.header.rows {
            return Err(AtsError::InvalidArgument(format!(
                "scan_range [{start}, {end}) out of 0..{}",
                self.header.rows
            )));
        }
        if self.header.cols == 0 || start == end {
            return Ok(());
        }
        if end - start > SCAN_CHUNK_ROWS {
            return self.scan_range_readahead(start, end, f);
        }
        let row_bytes = self.header.row_bytes();
        let mut buf = vec![0u8; row_bytes * (end - start)];
        let mut row = vec![0.0f64; self.header.cols];
        self.read_exact_at(&mut buf, self.header.row_offset(start))?;
        self.stats.record_physical(u64_from_usize(buf.len()));
        for (r, row_bytes_chunk) in buf.chunks_exact(row_bytes).enumerate() {
            self.stats.record_logical();
            decode_cells(row_bytes_chunk, self.header.is_f32(), &mut row);
            f(start + r, &row)?;
        }
        Ok(())
    }

    /// The multi-chunk scan path: a scoped reader thread `pread`s chunks
    /// into a small pool of recycled buffers and hands them over a
    /// bounded channel; this thread decodes and runs the callback. If
    /// the callback fails early the channels disconnect and the reader
    /// exits on its next send/receive.
    fn scan_range_readahead(
        &self,
        start: usize,
        end: usize,
        f: &mut dyn FnMut(usize, &[f64]) -> Result<()>,
    ) -> Result<()> {
        let row_bytes = self.header.row_bytes();
        let mut row = vec![0.0f64; self.header.cols];
        std::thread::scope(|scope| -> Result<()> {
            type Filled = Result<(usize, usize, Vec<u8>)>;
            let (filled_tx, filled_rx) = mpsc::sync_channel::<Filled>(READAHEAD_BUFFERS);
            let (empty_tx, empty_rx) = mpsc::sync_channel::<Vec<u8>>(READAHEAD_BUFFERS);
            for _ in 0..READAHEAD_BUFFERS {
                let _ = empty_tx.send(vec![0u8; row_bytes * SCAN_CHUNK_ROWS]);
            }
            scope.spawn(move || {
                let mut i = start;
                while i < end {
                    let chunk = SCAN_CHUNK_ROWS.min(end - i);
                    // A closed channel means the consumer bailed; just stop.
                    let Ok(mut buf) = empty_rx.recv() else { return };
                    let read = buf
                        .get_mut(..chunk * row_bytes)
                        .ok_or_else(|| AtsError::internal("readahead buffer too small"))
                        .and_then(|bytes| {
                            self.read_exact_at(bytes, self.header.row_offset(i))?;
                            self.stats.record_physical(u64_from_usize(bytes.len()));
                            Ok(())
                        });
                    match read {
                        Ok(()) => {
                            if filled_tx.send(Ok((i, chunk, buf))).is_err() {
                                return;
                            }
                        }
                        Err(e) => {
                            let _ = filled_tx.send(Err(e));
                            return;
                        }
                    }
                    i += chunk;
                }
            });
            let mut next = start;
            while next < end {
                let (i, chunk, buf) = filled_rx
                    .recv()
                    .map_err(|_| AtsError::internal("readahead reader exited early"))??;
                debug_assert_eq!(i, next);
                let bytes = buf
                    .get(..chunk * row_bytes)
                    .ok_or_else(|| AtsError::internal("readahead chunk short"))?;
                for (r, row_bytes_chunk) in bytes.chunks_exact(row_bytes).enumerate() {
                    self.stats.record_logical();
                    decode_cells(row_bytes_chunk, self.header.is_f32(), &mut row);
                    f(i + r, &row)?;
                }
                next = i + chunk;
                // Reader may already be done; a closed channel is fine.
                let _ = empty_tx.send(buf);
            }
            Ok(())
        })
    }
}

/// Encode cells to their on-disk little-endian form, appending to `out`.
pub(crate) fn encode_cells(cells: &[f64], is_f32: bool, out: &mut Vec<u8>) {
    if is_f32 {
        out.reserve(cells.len() * 4);
        for &v in cells {
            out.extend_from_slice(&(v as f32).to_le_bytes());
        }
    } else {
        out.reserve(cells.len() * 8);
        for &v in cells {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

pub(crate) fn decode_cells(buf: &[u8], is_f32: bool, out: &mut [f64]) {
    // `chunks_exact` guarantees the width, so the failed-conversion arms
    // are dead; skipping them keeps this hot loop free of panics.
    if is_f32 {
        for (o, chunk) in out.iter_mut().zip(buf.chunks_exact(4)) {
            if let Ok(arr) = <[u8; 4]>::try_from(chunk) {
                *o = f64::from(f32::from_le_bytes(arr));
            }
        }
    } else {
        for (o, chunk) in out.iter_mut().zip(buf.chunks_exact(8)) {
            if let Ok(arr) = <[u8; 8]>::try_from(chunk) {
                *o = f64::from_le_bytes(arr);
            }
        }
    }
}

/// Convenience: write an in-memory matrix to a file in one call.
pub fn write_matrix(path: impl AsRef<Path>, m: &ats_linalg::Matrix) -> Result<Header> {
    let mut w = MatrixFileWriter::create(path, m.cols())?;
    for row in m.iter_rows() {
        w.append_row(row)?;
    }
    w.finish()
}

/// Stream any [`RowSource`] into a matrix file without materializing it:
/// one sequential pass, `O(M)` memory. This is how `ats generate --out`
/// writes datasets far larger than RAM from the lazy generators.
pub fn write_source(path: impl AsRef<Path>, source: &dyn RowSource) -> Result<Header> {
    let mut w = MatrixFileWriter::create(path, source.cols())?;
    source.for_each_row(&mut |_, row| w.append_row(row))?;
    w.finish()
}

/// Convenience: read an entire file into an in-memory matrix.
pub fn read_matrix(path: impl AsRef<Path>) -> Result<ats_linalg::Matrix> {
    let f = MatrixFile::open(path)?;
    let mut m = ats_linalg::Matrix::zeros(f.rows(), f.cols());
    f.scan_range(0, f.rows(), &mut |i, row| {
        m.row_mut(i).copy_from_slice(row);
        Ok(())
    })?;
    Ok(m)
}

/// Decode a whole `.atsm` byte image into an in-memory matrix — the
/// header's checks plus an exact-length check, so a caller that has
/// already checksummed `bytes` decodes exactly what it checked.
pub fn matrix_from_bytes(bytes: &[u8]) -> Result<ats_linalg::Matrix> {
    let header = Header::decode(bytes)?;
    let data = bytes.get(HEADER_LEN..).unwrap_or_default();
    let expected = header.checked_file_len()?;
    if u64_from_usize(bytes.len()) != expected {
        return Err(AtsError::Corrupt(format!(
            "matrix image is {} bytes, its header implies {expected}",
            bytes.len()
        )));
    }
    // The length check bounds the allocation by the input: one cell per
    // `cell_bytes` of `data`.
    let mut cells = vec![0.0f64; data.len() / header.cell_bytes()];
    decode_cells(data, header.is_f32(), &mut cells);
    ats_linalg::Matrix::from_vec(header.rows, header.cols, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_linalg::Matrix;

    fn tmpdir() -> ats_common::TestDir {
        ats_common::TestDir::new("ats-storage-test")
    }

    fn sample_matrix(n: usize, m: usize) -> Matrix {
        Matrix::from_fn(n, m, |i, j| (i * 1000 + j) as f64 * 0.5 - 3.0)
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmpdir();
        let path = dir.file("roundtrip.atsm");
        let m = sample_matrix(37, 11);
        let h = write_matrix(&path, &m).unwrap();
        assert_eq!(h.rows, 37);
        assert_eq!(h.cols, 11);
        let back = read_matrix(&path).unwrap();
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn positioned_row_read() {
        let dir = tmpdir();
        let path = dir.file("pos.atsm");
        let m = sample_matrix(20, 7);
        write_matrix(&path, &m).unwrap();
        let f = MatrixFile::open(&path).unwrap();
        for i in [0usize, 7, 19] {
            assert_eq!(f.read_row(i).unwrap(), m.row(i));
        }
        assert!(f.read_row(20).is_err());
    }

    #[test]
    fn physical_reads_counted_one_per_row_query() {
        let dir = tmpdir();
        let path = dir.file("count.atsm");
        write_matrix(&path, &sample_matrix(10, 4)).unwrap();
        let stats = IoStats::new();
        let f = MatrixFile::open_with_stats(&path, Arc::clone(&stats)).unwrap();
        f.read_row(3).unwrap();
        f.read_row(7).unwrap();
        // The paper's claim: each cell/row query = one disk access.
        assert_eq!(stats.physical_reads(), 2);
        assert_eq!(stats.logical_reads(), 2);
    }

    #[test]
    fn scan_visits_all_rows_in_order() {
        let dir = tmpdir();
        let path = dir.file("scan.atsm");
        let m = sample_matrix(1000, 5); // > SCAN_CHUNK_ROWS to cross chunks
        write_matrix(&path, &m).unwrap();
        let f = MatrixFile::open(&path).unwrap();
        let mut seen = Vec::new();
        f.scan_range(0, 1000, &mut |i, row| {
            assert_eq!(row, m.row(i));
            seen.push(i);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
        // Chunked: far fewer physical reads than rows.
        assert!(f.stats().physical_reads() <= 4 + 1);
    }

    #[test]
    fn scan_subrange() {
        let dir = tmpdir();
        let path = dir.file("sub.atsm");
        let m = sample_matrix(50, 3);
        write_matrix(&path, &m).unwrap();
        let f = MatrixFile::open(&path).unwrap();
        let mut seen = Vec::new();
        f.scan_range(10, 20, &mut |i, _| {
            seen.push(i);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, (10..20).collect::<Vec<_>>());
        assert!(f.scan_range(20, 10, &mut |_, _| Ok(())).is_err());
        assert!(f.scan_range(0, 51, &mut |_, _| Ok(())).is_err());
    }

    #[test]
    fn scan_propagates_callback_error() {
        let dir = tmpdir();
        let path = dir.file("cberr.atsm");
        write_matrix(&path, &sample_matrix(10, 2)).unwrap();
        let f = MatrixFile::open(&path).unwrap();
        let r = f.scan_range(0, 10, &mut |i, _| {
            if i == 5 {
                Err(AtsError::Numerical("boom".into()))
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn readahead_scan_propagates_error_and_stops() {
        // > SCAN_CHUNK_ROWS so the double-buffered path runs; failing in
        // the middle must surface the error without hanging the reader.
        let dir = tmpdir();
        let path = dir.file("rahead-err.atsm");
        write_matrix(&path, &sample_matrix(700, 3)).unwrap();
        let f = MatrixFile::open(&path).unwrap();
        let mut visited = 0usize;
        let r = f.scan_range(0, 700, &mut |i, _| {
            visited += 1;
            if i == 300 {
                Err(AtsError::Numerical("mid-scan".into()))
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
        assert_eq!(visited, 301);
    }

    #[test]
    fn readahead_matches_single_buffer_content() {
        let dir = tmpdir();
        let path = dir.file("rahead.atsm");
        let m = sample_matrix(600, 4); // crosses chunk boundary mid-file
        write_matrix(&path, &m).unwrap();
        let f = MatrixFile::open(&path).unwrap();
        let mut rows = 0usize;
        f.scan_range(100, 500, &mut |i, row| {
            assert_eq!(row, m.row(i));
            rows += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, 400);
    }

    #[test]
    fn append_rows_batch() {
        let dir = tmpdir();
        let path = dir.file("batch.atsm");
        let m = sample_matrix(10, 4);
        let mut w = MatrixFileWriter::create(&path, 4).unwrap();
        // First three rows in one batch, rest one by one.
        w.append_rows(&m.as_slice()[..12]).unwrap();
        assert_eq!(w.rows_written(), 3);
        for i in 3..10 {
            w.append_row(m.row(i)).unwrap();
        }
        assert!(w.append_rows(&[1.0, 2.0, 3.0]).is_err()); // not a multiple of cols
        w.finish().unwrap();
        let back = read_matrix(&path).unwrap();
        assert!(back.approx_eq(&m, 0.0));
    }

    #[test]
    fn trailing_garbage_detected_on_open() {
        let dir = tmpdir();
        let path = dir.file("trail.atsm");
        write_matrix(&path, &sample_matrix(5, 3)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        let err = match MatrixFile::open(&path) {
            Err(e) => e,
            Ok(_) => panic!("trailing garbage accepted"),
        };
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn write_source_streams_any_rowsource() {
        let dir = tmpdir();
        let a = dir.file("src-a.atsm");
        let b = dir.file("src-b.atsm");
        let m = sample_matrix(40, 6);
        write_matrix(&a, &m).unwrap();
        let h = write_source(&b, &m).unwrap();
        assert_eq!(h.rows, 40);
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    #[test]
    fn wrong_row_length_rejected_on_write() {
        let dir = tmpdir();
        let path = dir.file("badrow.atsm");
        let mut w = MatrixFileWriter::create(&path, 3).unwrap();
        assert!(w.append_row(&[1.0, 2.0]).is_err());
        assert!(w.append_row(&[1.0, 2.0, 3.0]).is_ok());
        assert_eq!(w.rows_written(), 1);
    }

    #[test]
    fn truncated_file_detected_on_open() {
        let dir = tmpdir();
        let path = dir.file("trunc.atsm");
        write_matrix(&path, &sample_matrix(10, 4)).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 8]).unwrap();
        assert!(MatrixFile::open(&path).is_err());
    }

    #[test]
    fn f32_quantized_roundtrip() {
        let dir = tmpdir();
        let path = dir.file("f32.atsm");
        let m = sample_matrix(12, 6);
        let mut w = MatrixFileWriter::create_f32(&path, 6).unwrap();
        for row in m.iter_rows() {
            w.append_row(row).unwrap();
        }
        let h = w.finish().unwrap();
        assert!(h.is_f32());
        let f = MatrixFile::open(&path).unwrap();
        for i in 0..12 {
            let row = f.read_row(i).unwrap();
            for (a, b) in row.iter().zip(m.row(i)) {
                assert!((a - b).abs() < 1e-3, "f32 quantization error too large");
            }
        }
        // File is about half the size of an f64 file.
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, HEADER_LEN as u64 + 12 * 6 * 4);
    }

    #[test]
    fn empty_matrix_file() {
        let dir = tmpdir();
        let path = dir.file("empty.atsm");
        let w = MatrixFileWriter::create(&path, 5).unwrap();
        let h = w.finish().unwrap();
        assert_eq!(h.rows, 0);
        let f = MatrixFile::open(&path).unwrap();
        assert_eq!(f.rows(), 0);
        f.scan_range(0, 0, &mut |_, _| panic!("no rows")).unwrap();
    }

    #[test]
    fn concurrent_positioned_reads() {
        let dir = tmpdir();
        let path = dir.file("conc.atsm");
        let m = sample_matrix(100, 8);
        write_matrix(&path, &m).unwrap();
        let f = Arc::new(MatrixFile::open(&path).unwrap());
        std::thread::scope(|s| {
            for t in 0..4 {
                let f = Arc::clone(&f);
                let m = &m;
                s.spawn(move || {
                    for i in (t..100).step_by(4) {
                        assert_eq!(f.read_row(i).unwrap(), m.row(i));
                    }
                });
            }
        });
    }
}
