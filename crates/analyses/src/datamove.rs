//! Dynamic data-movement (in/out) analysis.
//!
//! "dynamic data movement analysis to quantify data transfer requirements"
//! (§III). For an accelerator, the kernel's *read footprint* must be copied
//! to the device before launch and its *write footprint* copied back; with
//! byte-accurate per-buffer access ranges from the watched run this is a
//! direct measurement. The PSA strategy combines these bytes with device
//! transfer bandwidths to estimate `T_data_transfer`.

use psa_interp::memory::AccessRange;
use psa_interp::{Memory, Profile};

/// Per-buffer footprint of the kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferTraffic {
    /// Human-readable buffer label (`heap#1`, local array name, …).
    pub label: String,
    /// Bytes that must travel host → device (read footprint).
    pub bytes_in: u64,
    /// Bytes that must travel device → host (write footprint).
    pub bytes_out: u64,
    /// Raw access counts (for intensity cross-checks).
    pub reads: u64,
    pub writes: u64,
}

/// Whole-kernel data movement report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataMovementReport {
    pub buffers: Vec<BufferTraffic>,
    /// Total host→device bytes per kernel invocation set.
    pub total_bytes_in: u64,
    /// Total device→host bytes.
    pub total_bytes_out: u64,
    /// Kernel invocations observed.
    pub calls: u64,
}

impl DataMovementReport {
    /// All bytes crossing the interconnect (both directions).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes_in + self.total_bytes_out
    }
}

/// Compute the report from a watched run's profile and memory arena.
pub fn analyze_from_run(profile: &Profile, memory: &Memory) -> DataMovementReport {
    let touched = memory
        .kernel_touched()
        .into_iter()
        .map(|(id, buf)| (buf.label.as_str(), memory.elem_bytes(id), buf.kernel_access));
    from_accesses(touched, profile.kernel_calls)
}

/// Compute the report from the kernel's access range in each touched
/// buffer — `(label, element bytes, range)` in buffer order — and the
/// number of kernel invocations.
pub fn from_accesses<'a>(
    touched: impl IntoIterator<Item = (&'a str, u64, AccessRange)>,
    calls: u64,
) -> DataMovementReport {
    let mut buffers = Vec::new();
    let mut total_in = 0u64;
    let mut total_out = 0u64;
    for (label, elem, acc) in touched {
        let bytes_in = acc.read_extent() * elem;
        let bytes_out = acc.write_extent() * elem;
        total_in += bytes_in;
        total_out += bytes_out;
        buffers.push(BufferTraffic {
            label: label.to_string(),
            bytes_in,
            bytes_out,
            reads: acc.reads,
            writes: acc.writes,
        });
    }
    buffers.sort_by(|a, b| a.label.cmp(&b.label));
    DataMovementReport {
        buffers,
        total_bytes_in: total_in,
        total_bytes_out: total_out,
        calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic_run;
    use psa_minicpp::parse_module;

    #[test]
    fn footprints_are_byte_accurate() {
        let src = "void knl(double* a, double* b, int n) { for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; } }\
                   int main() { double* a = alloc_double(32); double* b = alloc_double(32); fill_random(a, 32, 1); knl(a, b, 16); return 0; }";
        let m = parse_module(src, "t").unwrap();
        let run = dynamic_run(&m, "knl").unwrap();
        let report = analyze_from_run(&run.profile, &run.memory);
        // Only the first 16 elements of each buffer are touched.
        assert_eq!(report.total_bytes_in, 16 * 8);
        assert_eq!(report.total_bytes_out, 16 * 8);
        assert_eq!(report.calls, 1);
        assert_eq!(report.total_bytes(), 256);
    }

    #[test]
    fn read_modify_write_counts_both_directions() {
        let src = "void knl(double* a, int n) { for (int i = 0; i < n; i++) { a[i] += 1.0; } }\
                   int main() { double* a = alloc_double(8); knl(a, 8); return 0; }";
        let m = parse_module(src, "t").unwrap();
        let run = dynamic_run(&m, "knl").unwrap();
        let report = analyze_from_run(&run.profile, &run.memory);
        assert_eq!(report.total_bytes_in, 64);
        assert_eq!(report.total_bytes_out, 64);
        assert_eq!(report.buffers.len(), 1);
        assert_eq!(report.buffers[0].reads, 8);
        assert_eq!(report.buffers[0].writes, 8);
    }

    #[test]
    fn host_side_accesses_are_excluded() {
        let src = "void knl(double* a) { a[0] = 1.0; }\
                   int main() { double* a = alloc_double(1024); fill_random(a, 1024, 2); knl(a); return 0; }";
        let m = parse_module(src, "t").unwrap();
        let run = dynamic_run(&m, "knl").unwrap();
        let report = analyze_from_run(&run.profile, &run.memory);
        // The 1024-element host fill must not appear in the kernel footprint.
        assert_eq!(report.total_bytes_in, 0);
        assert_eq!(report.total_bytes_out, 8);
    }
}
