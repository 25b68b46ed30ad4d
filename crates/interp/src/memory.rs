//! The interpreter's memory arena.
//!
//! Allocations are typed, bounds-checked buffers. Pointers carry provenance
//! ([`crate::Pointer`] = buffer id + element offset), so:
//!
//! * out-of-bounds accesses are hard errors, never silent corruption;
//! * the dynamic pointer-alias analysis can ask "do these two pointer
//!   arguments refer to overlapping storage?" and get an exact answer;
//! * per-buffer access ranges (min/max element read and written) are
//!   recorded while a watched kernel executes, which is precisely the
//!   footprint the data-in/out analysis reports.

use crate::error::{RuntimeError, RuntimeResult};
use psa_minicpp::ast::Scalar;
use psa_minicpp::Span;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of one allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BufferId(pub u32);

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Typed storage for one allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferData {
    Int(Vec<i64>),
    Float(Vec<f32>),
    Double(Vec<f64>),
    Bool(Vec<bool>),
}

impl BufferData {
    pub fn len(&self) -> usize {
        match self {
            BufferData::Int(v) => v.len(),
            BufferData::Float(v) => v.len(),
            BufferData::Double(v) => v.len(),
            BufferData::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn scalar(&self) -> Scalar {
        match self {
            BufferData::Int(_) => Scalar::Int,
            BufferData::Float(_) => Scalar::Float,
            BufferData::Double(_) => Scalar::Double,
            BufferData::Bool(_) => Scalar::Bool,
        }
    }
}

/// Min/max element indices touched in a buffer, split by access kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessRange {
    pub reads: u64,
    pub writes: u64,
    pub read_lo: Option<u64>,
    pub read_hi: Option<u64>,
    pub write_lo: Option<u64>,
    pub write_hi: Option<u64>,
}

impl AccessRange {
    /// Record a read; true if it is the range's first access.
    fn record_read(&mut self, idx: u64) -> bool {
        let first = self.is_empty();
        self.reads += 1;
        self.read_lo = Some(self.read_lo.map_or(idx, |lo| lo.min(idx)));
        self.read_hi = Some(self.read_hi.map_or(idx, |hi| hi.max(idx)));
        first
    }

    /// Record a write; true if it is the range's first access.
    fn record_write(&mut self, idx: u64) -> bool {
        let first = self.is_empty();
        self.writes += 1;
        self.write_lo = Some(self.write_lo.map_or(idx, |lo| lo.min(idx)));
        self.write_hi = Some(self.write_hi.map_or(idx, |hi| hi.max(idx)));
        first
    }

    fn is_empty(&self) -> bool {
        self.reads == 0 && self.writes == 0
    }

    /// Add `other`'s accesses. Ranges are bounding intervals and counts
    /// are sums, so recording two spans of accesses separately and merging
    /// them equals recording them into one range.
    pub fn merge(&mut self, other: &AccessRange) {
        fn lo(a: Option<u64>, b: Option<u64>) -> Option<u64> {
            a.into_iter().chain(b).min()
        }
        fn hi(a: Option<u64>, b: Option<u64>) -> Option<u64> {
            a.into_iter().chain(b).max()
        }
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_lo = lo(self.read_lo, other.read_lo);
        self.read_hi = hi(self.read_hi, other.read_hi);
        self.write_lo = lo(self.write_lo, other.write_lo);
        self.write_hi = hi(self.write_hi, other.write_hi);
    }

    /// Number of distinct elements in the read range (footprint upper
    /// bound; exact for the dense, strided accesses of the benchmarks).
    pub fn read_extent(&self) -> u64 {
        match (self.read_lo, self.read_hi) {
            (Some(lo), Some(hi)) => hi - lo + 1,
            _ => 0,
        }
    }

    /// Number of distinct elements in the write range.
    pub fn write_extent(&self) -> u64 {
        match (self.write_lo, self.write_hi) {
            (Some(lo), Some(hi)) => hi - lo + 1,
            _ => 0,
        }
    }
}

/// One allocation: a label (for reports), data, and kernel-scoped access
/// tracking.
#[derive(Debug, Clone, PartialEq)]
pub struct Buffer {
    pub label: String,
    pub data: BufferData,
    /// Access ranges recorded while the watched kernel runs.
    pub kernel_access: AccessRange,
}

/// The arena of all live allocations.
#[derive(Debug, Default, PartialEq)]
pub struct Memory {
    buffers: Vec<Buffer>,
    /// Buffers whose kernel access range is not empty, so draining the
    /// ranges touches only those.
    touched: BTreeSet<BufferId>,
}

impl Memory {
    pub fn new() -> Self {
        Memory::default()
    }

    /// Allocate a zero-initialised buffer of `len` elements.
    pub fn alloc(&mut self, scalar: Scalar, len: usize, label: impl Into<String>) -> BufferId {
        let data = match scalar {
            Scalar::Int => BufferData::Int(vec![0; len]),
            Scalar::Float => BufferData::Float(vec![0.0; len]),
            Scalar::Double => BufferData::Double(vec![0.0; len]),
            Scalar::Bool => BufferData::Bool(vec![false; len]),
            Scalar::Void => BufferData::Int(Vec::new()),
        };
        let id = BufferId(self.buffers.len() as u32);
        self.buffers.push(Buffer {
            label: label.into(),
            data,
            kernel_access: AccessRange::default(),
        });
        id
    }

    pub fn buffer(&self, id: BufferId) -> &Buffer {
        &self.buffers[id.0 as usize]
    }

    pub fn buffer_mut(&mut self, id: BufferId) -> &mut Buffer {
        &mut self.buffers[id.0 as usize]
    }

    /// Number of allocations made so far.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Element size in bytes of a buffer.
    #[inline]
    pub fn elem_bytes(&self, id: BufferId) -> u64 {
        self.buffer(id).data.scalar().size_bytes()
    }

    /// Bounds-check `idx` against `buf` (cold error path kept out of line).
    #[inline]
    fn check(buf: &Buffer, idx: i64, span: Span) -> RuntimeResult<usize> {
        if idx < 0 || (idx as usize) >= buf.data.len() {
            #[cold]
            fn oob(buf: &Buffer, idx: i64, span: Span) -> RuntimeError {
                RuntimeError::Memory {
                    message: format!(
                        "index {idx} out of bounds for `{}` (len {})",
                        buf.label,
                        buf.data.len()
                    ),
                    span,
                }
            }
            return Err(oob(buf, idx, span));
        }
        Ok(idx as usize)
    }

    /// Load an element, recording kernel access when `watch` is set.
    #[inline]
    pub fn load(
        &mut self,
        id: BufferId,
        idx: i64,
        span: Span,
        watch: bool,
    ) -> RuntimeResult<crate::Value> {
        let buf = &mut self.buffers[id.0 as usize];
        let i = Self::check(buf, idx, span)?;
        if watch && buf.kernel_access.record_read(i as u64) {
            self.touched.insert(id);
        }
        // SAFETY: `check` above proved `i < buf.data.len()`.
        Ok(unsafe {
            match &buf.data {
                BufferData::Int(v) => crate::Value::Int(*v.get_unchecked(i)),
                BufferData::Float(v) => crate::Value::Float(*v.get_unchecked(i)),
                BufferData::Double(v) => crate::Value::Double(*v.get_unchecked(i)),
                BufferData::Bool(v) => crate::Value::Bool(*v.get_unchecked(i)),
            }
        })
    }

    /// Store an element with C-style conversion to the buffer's type.
    #[inline]
    pub fn store(
        &mut self,
        id: BufferId,
        idx: i64,
        value: crate::Value,
        span: Span,
        watch: bool,
    ) -> RuntimeResult<()> {
        let buf = &mut self.buffers[id.0 as usize];
        let i = Self::check(buf, idx, span)?;
        if watch && buf.kernel_access.record_write(i as u64) {
            self.touched.insert(id);
        }
        let type_err = |need: &str| RuntimeError::Type {
            message: format!(
                "cannot store {} into {need} buffer `{}`",
                value.type_name(),
                buf.label
            ),
            span,
        };
        // SAFETY: `check` above proved `i < buf.data.len()`.
        unsafe {
            match &mut buf.data {
                BufferData::Int(v) => {
                    *v.get_unchecked_mut(i) = value.as_i64().ok_or_else(|| type_err("int"))?
                }
                BufferData::Float(v) => {
                    *v.get_unchecked_mut(i) =
                        value.as_f64().ok_or_else(|| type_err("float"))? as f32
                }
                BufferData::Double(v) => {
                    *v.get_unchecked_mut(i) = value.as_f64().ok_or_else(|| type_err("double"))?
                }
                BufferData::Bool(v) => {
                    *v.get_unchecked_mut(i) = value.truthy().ok_or_else(|| type_err("bool"))?
                }
            }
        }
        Ok(())
    }

    /// Is `id` a `double` buffer? Probe for the specialised VM handlers:
    /// error-free and effect-free, so a `false` answer lets the handler
    /// fall back to the generic path with nothing yet charged or recorded.
    #[inline]
    pub fn is_f64(&self, id: BufferId) -> bool {
        matches!(self.buffer(id).data, BufferData::Double(_))
    }

    /// Unwrapped load from a `double` buffer (callers probe [`Self::is_f64`]
    /// first). Bounds check, access recording and error text are exactly
    /// [`Self::load`]'s.
    #[inline]
    pub fn load_f64(
        &mut self,
        id: BufferId,
        idx: i64,
        span: Span,
        watch: bool,
    ) -> RuntimeResult<f64> {
        let buf = &mut self.buffers[id.0 as usize];
        let i = Self::check(buf, idx, span)?;
        if watch && buf.kernel_access.record_read(i as u64) {
            self.touched.insert(id);
        }
        match &buf.data {
            // SAFETY: `check` above proved `i < buf.data.len()`.
            BufferData::Double(v) => Ok(unsafe { *v.get_unchecked(i) }),
            _ => unreachable!("load_f64 caller probed is_f64"),
        }
    }

    /// Unwrapped store into a `double` buffer (callers probe
    /// [`Self::is_f64`] first); an `f64` into a `double` buffer never
    /// type-errors, so only the bounds check remains.
    #[inline]
    pub fn store_f64(
        &mut self,
        id: BufferId,
        idx: i64,
        value: f64,
        span: Span,
        watch: bool,
    ) -> RuntimeResult<()> {
        let buf = &mut self.buffers[id.0 as usize];
        let i = Self::check(buf, idx, span)?;
        if watch && buf.kernel_access.record_write(i as u64) {
            self.touched.insert(id);
        }
        match &mut buf.data {
            // SAFETY: `check` above proved `i < buf.data.len()`.
            BufferData::Double(v) => unsafe { *v.get_unchecked_mut(i) = value },
            _ => unreachable!("store_f64 caller probed is_f64"),
        }
        Ok(())
    }

    /// Reset all kernel access tracking (between analysis runs).
    pub fn clear_kernel_access(&mut self) {
        for b in &mut self.buffers {
            b.kernel_access = AccessRange::default();
        }
        self.touched.clear();
    }

    /// Hand every non-empty kernel access range to `f` in buffer order and
    /// reset it — how a loop watch collects one window's accesses.
    pub fn drain_kernel_access(&mut self, mut f: impl FnMut(BufferId, AccessRange)) {
        for id in std::mem::take(&mut self.touched) {
            f(id, std::mem::take(&mut self.buffer_mut(id).kernel_access));
        }
    }

    /// Buffers touched during kernel execution, with their access ranges and
    /// element sizes — the raw material for data-in/out reports.
    pub fn kernel_touched(&self) -> Vec<(BufferId, &Buffer)> {
        self.buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.kernel_access.reads > 0 || b.kernel_access.writes > 0)
            .map(|(i, b)| (BufferId(i as u32), b))
            .collect()
    }

    /// Do two pointers overlap, given the element extents each may access?
    /// Exact because provenance is tracked: distinct buffers never alias.
    pub fn ranges_overlap(
        &self,
        a: crate::Pointer,
        a_len: i64,
        b: crate::Pointer,
        b_len: i64,
    ) -> bool {
        if a.buffer != b.buffer {
            return false;
        }
        let (a_lo, a_hi) = (a.offset, a.offset + a_len.max(0));
        let (b_lo, b_hi) = (b.offset, b.offset + b_len.max(0));
        a_lo < b_hi && b_lo < a_hi
    }

    /// Direct typed views used by harness code to set up / read back data.
    pub fn as_f64_slice(&self, id: BufferId) -> Option<&[f64]> {
        match &self.buffer(id).data {
            BufferData::Double(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64_slice_mut(&mut self, id: BufferId) -> Option<&mut [f64]> {
        match &mut self.buffer_mut(id).data {
            BufferData::Double(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_i64_slice(&self, id: BufferId) -> Option<&[i64]> {
        match &self.buffer(id).data {
            BufferData::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f32_slice(&self, id: BufferId) -> Option<&[f32]> {
        match &self.buffer(id).data {
            BufferData::Float(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pointer, Value};

    const SPAN: Span = Span::SYNTHETIC;

    #[test]
    fn load_store_roundtrip() {
        let mut mem = Memory::new();
        let id = mem.alloc(Scalar::Double, 4, "a");
        mem.store(id, 2, Value::Double(3.5), SPAN, false).unwrap();
        assert_eq!(mem.load(id, 2, SPAN, false).unwrap(), Value::Double(3.5));
    }

    #[test]
    fn stores_convert_like_c() {
        let mut mem = Memory::new();
        let id = mem.alloc(Scalar::Int, 1, "n");
        mem.store(id, 0, Value::Double(2.9), SPAN, false).unwrap();
        assert_eq!(mem.load(id, 0, SPAN, false).unwrap(), Value::Int(2));
        let fid = mem.alloc(Scalar::Float, 1, "f");
        mem.store(fid, 0, Value::Double(0.1), SPAN, false).unwrap();
        assert_eq!(mem.load(fid, 0, SPAN, false).unwrap(), Value::Float(0.1f32));
    }

    #[test]
    fn bounds_are_enforced() {
        let mut mem = Memory::new();
        let id = mem.alloc(Scalar::Double, 4, "a");
        assert!(mem.load(id, 4, SPAN, false).is_err());
        assert!(mem.load(id, -1, SPAN, false).is_err());
        assert!(mem.store(id, 100, Value::Double(0.0), SPAN, false).is_err());
    }

    #[test]
    fn kernel_access_tracked_only_when_watched() {
        let mut mem = Memory::new();
        let id = mem.alloc(Scalar::Double, 10, "a");
        mem.load(id, 3, SPAN, false).unwrap();
        assert_eq!(mem.buffer(id).kernel_access.reads, 0);
        mem.load(id, 3, SPAN, true).unwrap();
        mem.load(id, 7, SPAN, true).unwrap();
        mem.store(id, 5, Value::Double(1.0), SPAN, true).unwrap();
        let acc = mem.buffer(id).kernel_access;
        assert_eq!(acc.reads, 2);
        assert_eq!(acc.writes, 1);
        assert_eq!(acc.read_extent(), 5); // elements 3..=7
        assert_eq!(acc.write_extent(), 1);
    }

    #[test]
    fn alias_detection_is_provenance_based() {
        let mut mem = Memory::new();
        let a = mem.alloc(Scalar::Double, 10, "a");
        let b = mem.alloc(Scalar::Double, 10, "b");
        let pa = Pointer {
            buffer: a,
            offset: 0,
        };
        let pb = Pointer {
            buffer: b,
            offset: 0,
        };
        assert!(
            !mem.ranges_overlap(pa, 10, pb, 10),
            "distinct buffers never alias"
        );
        let pa2 = Pointer {
            buffer: a,
            offset: 5,
        };
        assert!(mem.ranges_overlap(pa, 10, pa2, 3));
        assert!(
            !mem.ranges_overlap(pa, 5, pa2, 3),
            "disjoint subranges do not alias"
        );
    }

    #[test]
    fn kernel_touched_lists_active_buffers() {
        let mut mem = Memory::new();
        let a = mem.alloc(Scalar::Double, 4, "a");
        let _b = mem.alloc(Scalar::Double, 4, "b");
        mem.load(a, 0, SPAN, true).unwrap();
        let touched = mem.kernel_touched();
        assert_eq!(touched.len(), 1);
        assert_eq!(touched[0].0, a);
        mem.clear_kernel_access();
        assert!(mem.kernel_touched().is_empty());
    }
}
