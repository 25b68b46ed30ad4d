//! # psa-codegen — framework-specific design generation
//!
//! The **CG**-class tasks of the paper's repository (Fig. 4): given the
//! optimised application AST with its extracted kernel, emit the complete
//! specialised design in each target's programming model:
//!
//! * [`openmp`] — "Generate OpenMP design": annotated C++ + runtime setup;
//! * [`hip`] — "Generate HIP Design": `__global__` kernel, device buffers,
//!   transfers, launch configuration, optional pinned host memory and
//!   shared-memory tiling;
//! * [`oneapi`] — "Generate oneAPI Design": SYCL queue + `single_task`
//!   FPGA kernel with unroll pragmas; buffer/accessor style for the
//!   Arria10, USM zero-copy style for the Stratix10.
//!
//! The emitted text is what Table I counts: "quantifying the increase in
//! lines of code (LOC) for each automatically generated design in
//! comparison to the input source reference". Generators work from the AST
//! (not string templates of whole programs), so they inherit every upstream
//! transform — SP literals, reduction rewrites, unrolling — exactly like
//! the paper's flow.

pub mod common;
pub mod hip;
pub mod oneapi;
pub mod openmp;

/// Which programming model a design targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// OpenMP multi-thread CPU.
    OpenMp,
    /// HIP CPU+GPU.
    Hip,
    /// oneAPI CPU+FPGA.
    OneApi,
}

impl Backend {
    pub fn label(&self) -> &'static str {
        match self {
            Backend::OpenMp => "OpenMP",
            Backend::Hip => "HIP",
            Backend::OneApi => "oneAPI",
        }
    }
}

/// A fully generated design: the artefact a PSA-flow outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    pub backend: Backend,
    /// Device the design was specialised for (e.g. "GeForce RTX 2080 Ti").
    pub device: String,
    /// The generated, human-readable source text.
    pub source: String,
}

impl Design {
    /// Non-blank lines of code — Table I's metric.
    pub fn loc(&self) -> usize {
        count_loc(&self.source)
    }

    /// Percentage of LOC added relative to a reference count.
    pub fn loc_delta_pct(&self, reference_loc: usize) -> f64 {
        if reference_loc == 0 {
            return 0.0;
        }
        (self.loc() as f64 - reference_loc as f64) / reference_loc as f64 * 100.0
    }
}

/// Count non-blank lines.
pub fn count_loc(source: &str) -> usize {
    source.lines().filter(|l| !l.trim().is_empty()).count()
}

/// Errors raised by generators when the module is not in the expected
/// post-flow shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError {
    pub message: String,
}

impl CodegenError {
    pub fn new(message: impl Into<String>) -> Self {
        CodegenError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen error: {}", self.message)
    }
}

impl std::error::Error for CodegenError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counts_nonblank_lines() {
        assert_eq!(count_loc("a\n\n  \nb\nc"), 3);
        let d = Design {
            backend: Backend::Hip,
            device: "X".into(),
            source: "a\nb\n".into(),
        };
        assert_eq!(d.loc(), 2);
        assert!((d.loc_delta_pct(1) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn backend_labels() {
        assert_eq!(Backend::OpenMp.label(), "OpenMP");
        assert_eq!(Backend::Hip.label(), "HIP");
        assert_eq!(Backend::OneApi.label(), "oneAPI");
    }
}
