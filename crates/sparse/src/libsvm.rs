//! LibSVM text format IO.
//!
//! The paper evaluates on LibSVM-distributed datasets (News20, URL,
//! KDD2010-Algebra/Bridge). This module parses and writes the standard
//! `label idx:val idx:val ...` text format with 1-based indices, so any real
//! LibSVM file can be dropped into the experiment harness in place of the
//! synthetic profiles.
//!
//! # How the loader works
//!
//! [`parse_reader`] makes one pass over its reader and writes straight into
//! the CSR arrays of the [`Dataset`]:
//!
//! * **Blocks.** It reads a block of 2 MiB per thread into one reused
//!   buffer and keeps the unfinished last line for the next block. A line
//!   longer than the block grows the buffer to hold it.
//! * **Threads.** Each block is cut at newlines into one slice per thread
//!   (`available_parallelism`, at most 8), and the slices are parsed in a
//!   `std::thread::scope`. Every thread parses into its own
//!   reused CSR segment; the segments are appended to the output in slice
//!   order, so the result does not depend on the thread count.
//! * **Memory.** Besides the output, the loader holds the block buffer and
//!   the per-thread segments. Both grow with the block size times the
//!   thread count (or with the longest line), never with the input: the
//!   whole input is never in memory. [`read_file`] sizes the output from
//!   the file length and the first block, so the CSR arrays are not
//!   copied as they grow.
//! * **Numbers** go through `str::parse::<u32>` and `str::parse::<f64>`,
//!   and a row is sorted only when its indices arrive out of order, so
//!   values are bit-identical to a line-at-a-time parse.
//!
//! # Errors
//!
//! A row error does not stop the parse of later lines. Of all faults in an
//! input, the one reported is, in this order of precedence:
//!
//! 1. the first fault of the parse phase in file order: a malformed line
//!    ([`SparseError::Parse`], with its 1-based line number), a line that
//!    is not valid UTF-8 (comment lines included) or a failed read (both
//!    [`SparseError::Io`]);
//! 2. [`SparseError::DimMismatch`], when a given `dim` is below the largest
//!    index;
//! 3. the first [`SparseError::DuplicateIndex`] or
//!    [`SparseError::NonFiniteValue`] in row order, each row checked in
//!    sorted-index order.
//!
//! Lines are split the way `BufRead::lines` splits them, then trimmed of
//! Unicode whitespace (`str::trim`) and cut into tokens at ASCII whitespace
//! only, so a vertical tab or U+00A0 inside a line belongs to a token.

use crate::dataset::Dataset;
use crate::error::SparseError;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::path::Path;

/// Input bytes read per block, per parsing thread.
const BLOCK_PER_THREAD: usize = 2 << 20;

/// Most threads one load uses.
const MAX_THREADS: usize = 8;

/// Parses LibSVM text from a reader.
///
/// * `dim` — optional dimensionality override; when `None`, the maximum
///   feature index observed defines the dimension.
/// * Labels: any value `> 0` maps to `+1`, `<= 0` (including `0`, and the
///   `-1`/`0` conventions in the wild) maps to `-1`.
///
/// See the [module docs](self) for threads, memory and which error wins.
pub fn parse_reader<R: Read>(reader: R, dim: Option<usize>) -> Result<Dataset, SparseError> {
    let threads = host_threads();
    parse_blocks(reader, dim, threads, BLOCK_PER_THREAD * threads, None)
}

/// Parses a LibSVM file from disk.
pub fn read_file<P: AsRef<Path>>(path: P, dim: Option<usize>) -> Result<Dataset, SparseError> {
    let f = std::fs::File::open(path)?;
    let len = f.metadata().ok().map(|m| m.len());
    let threads = host_threads();
    parse_blocks(f, dim, threads, BLOCK_PER_THREAD * threads, len)
}

/// One parsing thread per core, up to [`MAX_THREADS`].
fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .min(MAX_THREADS)
}

/// [`parse_reader`] on `threads` threads, reading `block` bytes at a time.
/// When the input length is known, the output is sized from the first
/// block, so it is not copied as it grows.
pub(crate) fn parse_blocks<R: Read>(
    mut reader: R,
    dim: Option<usize>,
    threads: usize,
    block: usize,
    mut input_len: Option<u64>,
) -> Result<Dataset, SparseError> {
    let mut buf = vec![0u8; block.max(1)];
    let mut segments: Vec<Segment> = (0..threads.max(1)).map(|_| Segment::default()).collect();
    let mut out = Csr::default();
    // Bytes at the front of `buf` holding a line the last block cut off.
    let mut held = 0usize;
    loop {
        let (read, stop) = fill(&mut reader, buf.get_mut(held..).unwrap_or_default());
        let len = held + read;
        let data = buf.get(..len).unwrap_or_default();
        // Parse whole lines only, unless the input has ended.
        let end = match stop {
            Stop::Eof => len,
            _ => data.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1),
        };
        if end == 0 && matches!(stop, Stop::Full) {
            // A line longer than the buffer.
            held = len;
            buf.resize(2 * buf.len(), 0);
            continue;
        }
        out.parse_block(data.get(..end).unwrap_or_default(), &mut segments)?;
        match stop {
            Stop::Eof => return out.finish(dim),
            Stop::Failed(e) => return Err(e.into()),
            Stop::Full => {}
        }
        if let Some(len) = input_len.take() {
            out.reserve_like(end, len);
        }
        buf.copy_within(end..len, 0);
        held = len - end;
    }
}

/// Why [`fill`] stopped reading.
enum Stop {
    Full,
    Eof,
    Failed(std::io::Error),
}

/// Reads into `buf` until it is full, the reader ends or a read fails
/// (retrying interrupted reads, as `BufRead::lines` does). Returns the
/// number of bytes read.
fn fill<R: Read>(reader: &mut R, buf: &mut [u8]) -> (usize, Stop) {
    let mut filled = 0;
    while let Some(rest) = buf.get_mut(filled..).filter(|r| !r.is_empty()) {
        match reader.read(rest) {
            Ok(0) => return (filled, Stop::Eof),
            Ok(n) => filled += n.min(rest.len()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return (filled, Stop::Failed(e)),
        }
    }
    (filled, Stop::Full)
}

/// Cuts `data` after newlines into at most `parts` slices of roughly equal
/// length; only the last slice may end without a newline.
fn cut(data: &[u8], parts: usize) -> Vec<&[u8]> {
    let mut slices = Vec::with_capacity(parts);
    let mut rest = data;
    for left in (1..=parts).rev() {
        if rest.is_empty() {
            break;
        }
        let target = rest.len() / left;
        let end = match rest.get(target..).filter(|_| left > 1) {
            Some(tail) => tail
                .iter()
                .position(|&b| b == b'\n')
                .map_or(rest.len(), |p| target + p + 1),
            None => rest.len(),
        };
        let (head, tail) = rest.split_at_checked(end).unwrap_or((rest, &[]));
        slices.push(head);
        rest = tail;
    }
    slices
}

/// The dataset being assembled, in CSR form.
struct Csr {
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
    labels: Vec<f64>,
    max_index: u32,
    /// Lines consumed so far.
    lines: usize,
    /// The first row fault in row order.
    row_fault: Option<SparseError>,
}

impl Default for Csr {
    fn default() -> Self {
        Self {
            offsets: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
            labels: Vec::new(),
            max_index: 0,
            lines: 0,
            row_fault: None,
        }
    }
}

impl Csr {
    /// Parses whole lines across `segments` and appends them in order.
    fn parse_block(&mut self, data: &[u8], segments: &mut [Segment]) -> Result<(), SparseError> {
        let slices = cut(data, segments.len());
        let used = slices.len();
        std::thread::scope(|s| {
            let mut work = segments.iter_mut().zip(slices);
            let own = work.next();
            let handles: Vec<_> = work
                .map(|(seg, slice)| s.spawn(move || seg.parse(slice)))
                .collect();
            if let Some((seg, slice)) = own {
                seg.parse(slice);
            }
            for h in handles {
                if let Err(p) = h.join() {
                    std::panic::resume_unwind(p);
                }
            }
        });
        for seg in segments.iter_mut().take(used) {
            self.append(seg)?;
        }
        Ok(())
    }

    /// Reserves room for an input of `len` bytes that continues like its
    /// first `parsed` bytes, with an eighth to spare. The length comes from
    /// file metadata and may be wrong, so a reservation that fails is
    /// skipped: the arrays then grow as they fill.
    fn reserve_like(&mut self, parsed: usize, len: u64) {
        let scale = |n: usize| {
            let est = (n as f64 * len as f64 / parsed.max(1) as f64) as usize;
            est.saturating_add(est / 8).saturating_sub(n)
        };
        let (rows, nnz) = (scale(self.labels.len()), scale(self.indices.len()));
        let _ = self.offsets.try_reserve(rows);
        let _ = self.labels.try_reserve(rows);
        let _ = self.indices.try_reserve(nnz);
        let _ = self.values.try_reserve(nnz);
    }

    /// Appends a parsed segment, or returns its parse fault with the line
    /// number counted from the start of the input.
    fn append(&mut self, seg: &mut Segment) -> Result<(), SparseError> {
        if let Some(fault) = seg.fault.take() {
            return Err(match fault {
                SparseError::Parse { line, msg } => SparseError::Parse {
                    line: self.lines + line,
                    msg,
                },
                other => other,
            });
        }
        if self.row_fault.is_none() {
            let rows = self.labels.len();
            self.row_fault = seg.row_fault.map(|(row, fault)| fault.at(rows + row));
        }
        let base = self.indices.len();
        self.offsets
            .extend(seg.row_ends.iter().map(|&end| base + end));
        self.indices.extend_from_slice(&seg.indices);
        self.values.extend_from_slice(&seg.values);
        self.labels.extend_from_slice(&seg.labels);
        self.max_index = self.max_index.max(seg.max_index);
        self.lines += seg.lines;
        Ok(())
    }

    fn finish(self, dim: Option<usize>) -> Result<Dataset, SparseError> {
        let inferred = self.max_index as usize;
        let dim = match dim {
            Some(d) if d < inferred => {
                return Err(SparseError::DimMismatch {
                    expected: d,
                    found: inferred,
                })
            }
            Some(d) => d,
            None => inferred,
        };
        if let Some(e) = self.row_fault {
            return Err(e);
        }
        Ok(Dataset::from_csr(
            dim,
            self.offsets,
            self.indices,
            self.values,
            self.labels,
        ))
    }
}

/// A row fault, found where `SparseVec::from_pairs` would find it.
#[derive(Debug, Clone, Copy)]
enum RowFault {
    Duplicate(u32),
    NonFinite,
}

impl RowFault {
    fn at(self, row: usize) -> SparseError {
        match self {
            RowFault::Duplicate(index) => SparseError::DuplicateIndex { row, index },
            RowFault::NonFinite => SparseError::NonFiniteValue { row },
        }
    }
}

/// One thread's parse of one slice, kept between blocks to reuse its
/// buffers. Row ends, line numbers and row numbers are local to the slice.
#[derive(Default)]
struct Segment {
    row_ends: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
    labels: Vec<f64>,
    max_index: u32,
    lines: usize,
    /// The first parse-phase fault; parsing of the slice stops there.
    fault: Option<SparseError>,
    row_fault: Option<(usize, RowFault)>,
    /// Sort buffer for rows whose indices arrive out of order.
    pairs: Vec<(u32, f64)>,
}

impl Segment {
    /// Parses `bytes` into this segment. The work happens on a moved-out
    /// copy: segments sit side by side in memory, and threads updating
    /// neighbouring `Vec` lengths would fight over one cache line.
    fn parse(&mut self, bytes: &[u8]) {
        let mut local = std::mem::take(self);
        local.parse_slice(bytes);
        *self = local;
    }

    fn parse_slice(&mut self, bytes: &[u8]) {
        self.row_ends.clear();
        self.indices.clear();
        self.values.clear();
        self.labels.clear();
        self.max_index = 0;
        self.lines = 0;
        self.fault = None;
        self.row_fault = None;
        // Parse up to the line holding the first invalid byte, which is an
        // error once every line before it has parsed.
        let (text, utf8_fault) = match std::str::from_utf8(bytes) {
            Ok(text) => (text, false),
            Err(e) => {
                let valid = bytes.get(..e.valid_up_to()).unwrap_or_default();
                let line_start = valid.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                let prefix = valid.get(..line_start).unwrap_or_default();
                (std::str::from_utf8(prefix).unwrap_or_default(), true)
            }
        };
        for line in text.split_terminator('\n') {
            self.lines += 1;
            if let Err(msg) = self.parse_line(line) {
                self.fault = Some(SparseError::Parse {
                    line: self.lines,
                    msg,
                });
                return;
            }
        }
        if utf8_fault {
            let e =
                std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8");
            self.fault = Some(e.into());
        }
    }

    fn parse_line(&mut self, line: &str) -> Result<(), String> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(());
        }
        let mut parts = trimmed.split_ascii_whitespace();
        let label_tok = parts.next().ok_or("missing label")?;
        let raw_label: f64 = label_tok
            .parse()
            .map_err(|_| format!("bad label token '{label_tok}'"))?;
        let start = self.indices.len();
        let mut prev: Option<u32> = None;
        let mut sorted = true;
        for tok in parts {
            let (idx_s, val_s) = tok
                .split_once(':')
                .ok_or_else(|| format!("expected idx:val, got '{tok}'"))?;
            let idx: u32 = idx_s.parse().map_err(|_| format!("bad index '{idx_s}'"))?;
            if idx == 0 {
                return Err("LibSVM indices are 1-based; found 0".into());
            }
            let val: f64 = val_s.parse().map_err(|_| format!("bad value '{val_s}'"))?;
            self.max_index = self.max_index.max(idx);
            let i = idx - 1; // store 0-based
            sorted &= prev.is_none_or(|p| p < i);
            prev = Some(i);
            self.indices.push(i);
            self.values.push(val);
        }
        if !sorted {
            self.sort_row(start);
        }
        if self.row_fault.is_none() {
            let row = self.labels.len();
            self.row_fault = self.check_row(start).map(|fault| (row, fault));
        }
        self.labels.push(if raw_label > 0.0 { 1.0 } else { -1.0 });
        self.row_ends.push(self.indices.len());
        Ok(())
    }

    /// Sorts the row starting at `start` exactly as `SparseVec::from_pairs`
    /// does, so duplicates land in the same order.
    fn sort_row(&mut self, start: usize) {
        let (Some(indices), Some(values)) =
            (self.indices.get_mut(start..), self.values.get_mut(start..))
        else {
            return;
        };
        self.pairs.clear();
        self.pairs
            .extend(indices.iter().copied().zip(values.iter().copied()));
        self.pairs.sort_unstable_by_key(|&(i, _)| i);
        for ((i, v), &(si, sv)) in indices.iter_mut().zip(values.iter_mut()).zip(&self.pairs) {
            *i = si;
            *v = sv;
        }
    }

    /// The first fault of the (sorted) row starting at `start`, checked in
    /// the order `SparseVec::from_pairs` checks.
    fn check_row(&self, start: usize) -> Option<RowFault> {
        let indices = self.indices.get(start..).unwrap_or_default();
        let values = self.values.get(start..).unwrap_or_default();
        let mut prev = None;
        for (&i, &v) in indices.iter().zip(values) {
            if !v.is_finite() {
                return Some(RowFault::NonFinite);
            }
            if prev == Some(i) {
                return Some(RowFault::Duplicate(i));
            }
            prev = Some(i);
        }
        None
    }
}

/// Writes a dataset as LibSVM text (1-based indices, `%.17g`-style values).
pub fn write_writer<W: Write>(ds: &Dataset, mut w: W) -> Result<(), SparseError> {
    let mut line = String::new();
    for row in ds.rows() {
        line.clear();
        line.push_str(if row.label > 0.0 { "+1" } else { "-1" });
        for (i, v) in row.indices.iter().zip(row.values) {
            // Formatting into a String cannot fail.
            let _ = write!(line, " {}:{}", i + 1, v);
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Writes a dataset to a LibSVM file on disk.
pub fn write_file<P: AsRef<Path>>(ds: &Dataset, path: P) -> Result<(), SparseError> {
    let f = std::fs::File::create(path)?;
    write_writer(ds, std::io::BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_file() {
        let text = "+1 1:0.5 3:2\n-1 2:1\n";
        let ds = parse_reader(text.as_bytes(), None).unwrap();
        assert_eq!(ds.n_samples(), 2);
        assert_eq!(ds.dim(), 3);
        assert_eq!(ds.row(0).indices, &[0, 2]);
        assert_eq!(ds.row(0).values, &[0.5, 2.0]);
        assert_eq!(ds.label(1), -1.0);
    }

    #[test]
    fn label_conventions() {
        let text = "1 1:1\n0 1:1\n-1 1:1\n2 1:1\n";
        let ds = parse_reader(text.as_bytes(), None).unwrap();
        assert_eq!(ds.labels(), &[1.0, -1.0, -1.0, 1.0]);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let text = "# header\n\n+1 1:1\n";
        let ds = parse_reader(text.as_bytes(), None).unwrap();
        assert_eq!(ds.n_samples(), 1);
    }

    #[test]
    fn rejects_zero_index() {
        let text = "+1 0:1\n";
        assert!(matches!(
            parse_reader(text.as_bytes(), None),
            Err(SparseError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_malformed_tokens() {
        for bad in ["+1 1-2", "+1 a:1", "+1 1:x", "notalabel 1:1"] {
            let r = parse_reader(format!("{bad}\n").as_bytes(), None);
            assert!(r.is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn dim_override_checked() {
        let text = "+1 5:1\n";
        assert!(parse_reader(text.as_bytes(), Some(3)).is_err());
        let ds = parse_reader(text.as_bytes(), Some(10)).unwrap();
        assert_eq!(ds.dim(), 10);
    }

    #[test]
    fn roundtrip_through_text() {
        let text = "+1 1:0.5 3:2\n-1 2:1.25\n+1 1:-3\n";
        let ds = parse_reader(text.as_bytes(), None).unwrap();
        let mut buf = Vec::new();
        write_writer(&ds, &mut buf).unwrap();
        let ds2 = parse_reader(buf.as_slice(), Some(ds.dim())).unwrap();
        assert_eq!(ds, ds2);
    }

    #[test]
    fn unsorted_indices_within_line_are_sorted() {
        let text = "+1 3:3 1:1\n";
        let ds = parse_reader(text.as_bytes(), None).unwrap();
        assert_eq!(ds.row(0).indices, &[0, 2]);
    }

    #[test]
    fn duplicate_index_within_line_rejected() {
        let text = "+1 2:1 2:5\n";
        assert!(parse_reader(text.as_bytes(), None).is_err());
    }

    #[test]
    fn writer_bytes_are_pinned() {
        let mut b = crate::DatasetBuilder::new(9);
        b.push_row(&[(0, 0.5), (2, 2.0), (8, 0.1 + 0.2)], 1.0)
            .unwrap();
        b.push_row(&[], -1.0).unwrap();
        b.push_row(&[(1, -1e-7), (3, 123456789.0), (4, -0.0)], -1.0)
            .unwrap();
        let mut buf = Vec::new();
        write_writer(&b.finish(), &mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "+1 1:0.5 3:2 9:0.30000000000000004\n\
             -1\n\
             -1 2:-0.0000001 4:123456789 5:-0\n"
        );
    }

    /// The line-at-a-time loader this module replaced: the behaviour the
    /// block-parallel loader must reproduce on every input.
    fn reference(reader: impl Read, dim: Option<usize>) -> Result<Dataset, SparseError> {
        use std::io::{BufRead, BufReader};
        let mut rows: Vec<(Vec<(u32, f64)>, f64)> = Vec::new();
        let mut max_index: u32 = 0;
        for (line_no, line) in BufReader::new(reader).lines().enumerate() {
            let line = line?;
            let line_no = line_no + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let err = |msg: String| SparseError::Parse { line: line_no, msg };
            let mut parts = trimmed.split_ascii_whitespace();
            let label_tok = parts.next().ok_or_else(|| err("missing label".into()))?;
            let raw_label: f64 = label_tok
                .parse()
                .map_err(|_| err(format!("bad label token '{label_tok}'")))?;
            let mut pairs = Vec::new();
            for tok in parts {
                let (idx_s, val_s) = tok
                    .split_once(':')
                    .ok_or_else(|| err(format!("expected idx:val, got '{tok}'")))?;
                let idx: u32 = idx_s
                    .parse()
                    .map_err(|_| err(format!("bad index '{idx_s}'")))?;
                if idx == 0 {
                    return Err(err("LibSVM indices are 1-based; found 0".into()));
                }
                let val: f64 = val_s
                    .parse()
                    .map_err(|_| err(format!("bad value '{val_s}'")))?;
                max_index = max_index.max(idx);
                pairs.push((idx - 1, val));
            }
            rows.push((pairs, if raw_label > 0.0 { 1.0 } else { -1.0 }));
        }
        let inferred = max_index as usize;
        let dim = match dim {
            Some(d) if d < inferred => {
                return Err(SparseError::DimMismatch {
                    expected: d,
                    found: inferred,
                })
            }
            Some(d) => d,
            None => inferred,
        };
        let mut b = crate::DatasetBuilder::new(dim);
        for (row, (pairs, label)) in rows.into_iter().enumerate() {
            b.push_row(&pairs, label).map_err(|e| match e {
                SparseError::DuplicateIndex { index, .. } => {
                    SparseError::DuplicateIndex { row, index }
                }
                other => other,
            })?;
        }
        Ok(b.finish())
    }

    /// Equal results, with values compared by their bits.
    fn same(a: &Result<Dataset, SparseError>, b: &Result<Dataset, SparseError>) -> bool {
        match (a, b) {
            (Ok(a), Ok(b)) => {
                let bits = |ds: &Dataset| {
                    ds.rows()
                        .map(|r| {
                            let v: Vec<u64> = r.values.iter().map(|x| x.to_bits()).collect();
                            (r.indices.to_vec(), v, r.label.to_bits())
                        })
                        .collect::<Vec<_>>()
                };
                a.dim() == b.dim() && bits(a) == bits(b)
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        }
    }

    /// A deterministic xorshift stream for generating inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
            xs[self.below(xs.len())]
        }
        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
    }

    /// A random LibSVM file. `faults` is the chance in percent that any one
    /// piece of a line is corrupted; row faults (duplicates, `nan`, `inf`)
    /// come with every setting.
    fn random_input(rng: &mut Rng, faults: usize) -> Vec<u8> {
        const GAPS: [&str; 4] = [" ", "  ", "\t", " \x0C "];
        const EDGES: [&str; 6] = ["", "", " ", "\t", "\x0B", "\u{a0}"];
        const ENDS: [&str; 4] = ["\n", "\n", "\r\n", " \r\n"];
        const LABELS: [&str; 6] = ["+1", "-1", "1", "0", "2.5", "-0"];
        const VALUES: [&str; 8] = ["0.5", "-2", "1e-3", "3", "-0", "0.1", "7.25e2", "1"];
        const BAD_LABELS: [&str; 4] = ["x", "+", "1:1", "\x0B1"];
        const BAD_INDICES: [&str; 7] = ["0", "+7", "4294967296", "4294967295", "-1", "a", ""];
        const BAD_VALUES: [&str; 7] = ["nan", "inf", "-inf", "NaN", "1e400", "x", ""];
        const BAD_LINES: [&[u8]; 6] = [
            b"# caf\xc3\xa9\n",
            b"# \xff bad comment\n",
            b"+1 1:\xe2\x82\n",
            b"+1 2:1\xa0\n",
            b"+1 1:1 \x0B 2:2\n",
            b"+1 3:1\xc2\xa0 4:1\n",
        ];
        let mut out = Vec::new();
        for _ in 0..rng.below(40) {
            if rng.chance(8) {
                out.extend_from_slice(
                    rng.pick(&["\n", "\r\n", "   \n", "# comment 1:2\n", "#\n"])
                        .as_bytes(),
                );
                continue;
            }
            if rng.chance(faults) {
                out.extend_from_slice(BAD_LINES[rng.below(BAD_LINES.len())]);
                continue;
            }
            let mut line = String::from(rng.pick(&EDGES));
            line.push_str(if rng.chance(faults) {
                rng.pick(&BAD_LABELS)
            } else {
                rng.pick(&LABELS)
            });
            let nnz = rng.below(7);
            let mut idx = 0u64;
            for _ in 0..nnz {
                line.push_str(rng.pick(&GAPS));
                // Mostly increasing; sometimes backwards or repeated.
                idx = if rng.chance(15) {
                    1 + rng.below(12) as u64
                } else {
                    idx + 1 + rng.below(5) as u64
                };
                let idx_s = if rng.chance(faults) {
                    rng.pick(&BAD_INDICES).to_string()
                } else {
                    idx.to_string()
                };
                let val_s = if rng.chance(2 + faults) {
                    rng.pick(&BAD_VALUES)
                } else {
                    rng.pick(&VALUES)
                };
                if rng.chance(faults) {
                    line.push_str(&idx_s); // no colon
                } else {
                    line.push_str(&format!("{idx_s}:{val_s}"));
                }
            }
            line.push_str(rng.pick(&EDGES));
            line.push_str(rng.pick(&ENDS));
            out.extend_from_slice(line.as_bytes());
        }
        if rng.chance(30) {
            // No trailing newline.
            while out.last().is_some_and(|b| b.is_ascii_whitespace()) {
                out.pop();
            }
        }
        out
    }

    /// A reader that hands out short reads, interrupts itself, and fails
    /// after `fail_at` bytes when that is set.
    struct Choppy<'a> {
        data: &'a [u8],
        pos: usize,
        step: usize,
        calls: usize,
        fail_at: Option<usize>,
    }

    impl Read for Choppy<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(5) {
                return Err(std::io::Error::new(ErrorKind::Interrupted, "again"));
            }
            let stop = self.fail_at.unwrap_or(self.data.len());
            if self.pos >= stop && self.fail_at.is_some() {
                return Err(std::io::Error::other("device failed"));
            }
            let n = buf.len().min(self.step).min(stop - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    const THREADS: [usize; 4] = [1, 2, 3, 8];
    const BLOCKS: [usize; 4] = [1, 7, 66, 1 << 16];

    /// Runs the loader over every thread count, block size and input
    /// length hint (right, absent, and wrong).
    fn check_input(input: &[u8], dim: Option<usize>) {
        let want = reference(input, dim);
        for threads in THREADS {
            for block in BLOCKS {
                let hint = [None, Some(input.len() as u64), Some(1), Some(u64::MAX)][block % 4];
                let got = parse_blocks(input, dim, threads, block, hint);
                assert!(
                    same(&got, &want),
                    "threads={threads} block={block} input={:?}\n got {got:?}\nwant {want:?}",
                    String::from_utf8_lossy(input)
                );
            }
        }
    }

    #[test]
    fn matches_the_reference_on_well_formed_input() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut oks = 0;
        for case in 0..150 {
            let input = random_input(&mut rng, 0);
            oks += usize::from(reference(input.as_slice(), None).is_ok());
            check_input(&input, None);
            check_input(&input, Some(case % 20));
        }
        assert!(oks > 30, "only {oks} inputs parsed cleanly");
    }

    #[test]
    fn matches_the_reference_on_corrupted_input() {
        let mut rng = Rng(0xD1B5_4A32_D192_ED03);
        for faults in [1, 3, 10] {
            for _ in 0..100 {
                check_input(&random_input(&mut rng, faults), None);
            }
        }
    }

    #[test]
    fn matches_the_reference_on_edge_cases() {
        let cases: [&[u8]; 22] = [
            b"",
            b"\n",
            b"+1 1:1",
            b"+1 1:1\r\n-1 2:2\r\n",
            b"+1 1:1\x0B\n",
            b"+1\x0B1:1\n",
            "\u{a0}+1 1:1\u{a0}\n".as_bytes(),
            "+1\u{a0}1:1\n".as_bytes(),
            "\u{2028}-1 3:1\n".as_bytes(),
            b"+1 3:1 1:2 2:3\n",
            b"+1 +7:1\n",
            b"+1 4294967296:1\n",
            b"+1 4294967295:1\n",
            b"+1 1:nan\n-1 1:1 1:2\n",
            b"+1 2:1 2:inf 2:3\n",
            b"+1 1:1 1:1 1:nan\n",
            b"+1 0:1\n",
            b"# \xff\n+1 1:1\n",
            b"+1 1:1\n+1 1:1 1:1\n+1 x\n",
            b"+1 1:1 1:1\n+1 9:1\n",
            b"+1 1:1\n\xe2\x82\n+1 0:1\n",
            b"+1 1:inf\n-1 2:2\n+1 3:3 3:3\n+1 1:1 0:1\n",
        ];
        for input in cases {
            for dim in [None, Some(2), Some(5)] {
                check_input(input, dim);
            }
        }
    }

    #[test]
    fn read_failures_match_the_reference() {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        for _ in 0..60 {
            let input = random_input(&mut rng, 1);
            let fail_at = Some(rng.below(input.len() + 1)).filter(|_| rng.chance(70));
            let step = 1 + rng.below(50);
            let choppy = || Choppy {
                data: &input,
                pos: 0,
                step,
                calls: 0,
                fail_at,
            };
            let want = reference(choppy(), None);
            for threads in THREADS {
                for block in BLOCKS {
                    let got = parse_blocks(choppy(), None, threads, block, None);
                    assert!(same(&got, &want), "{got:?} != {want:?}");
                }
            }
        }
    }

    #[test]
    fn output_is_independent_of_threads_and_blocks() {
        let mut rng = Rng(0x6A09_E667_F3BC_C908);
        let mut text = String::new();
        while text.len() < 1 << 16 {
            text.push_str(rng.pick(&["+1", "-1", "# note\n+1", "\n-1"]));
            let mut idx: Vec<u64> = (0..rng.below(30)).map(|_| 1 + rng.next() % 5000).collect();
            idx.sort_unstable();
            idx.dedup();
            if rng.chance(10) {
                idx.reverse();
            }
            for i in idx {
                let v = (rng.next() % 2_000_001) as f64 / 1e6 - 1.0;
                text.push_str(&format!(" {i}:{v}"));
            }
            text.push_str(rng.pick(&["\n", "\r\n"]));
        }
        let text = text.into_bytes();
        let len = Some(text.len() as u64);
        let base = parse_blocks(text.as_slice(), None, 1, 1 << 20, None);
        assert!(base.is_ok());
        for threads in THREADS {
            for block in [100, 4096, 1 << 20] {
                let got = parse_blocks(text.as_slice(), None, threads, block, len);
                assert!(same(&got, &base), "threads={threads} block={block}");
            }
        }
    }
}
