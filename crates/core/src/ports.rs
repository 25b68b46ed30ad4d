//! Typed module ports: the declared dataflow interface of a graph node.
//!
//! Every value slot of [`FlowContext`] a module can read or write is named
//! by a [`Port`]. A [`crate::graph::FlowGraph`] uses these declarations
//! three ways:
//!
//! * **construct-time validation** — a module whose declared input is
//!   produced by no ancestor (and not seeded into the initial context) is
//!   a [`crate::graph::GraphError::DanglingInput`]; two *unordered* nodes
//!   writing the same port are a
//!   [`crate::graph::GraphError::DuplicateOutput`];
//! * **join merging** — at a node with several predecessors, the scheduler
//!   materialises the input context from the ancestors' declared writes
//!   (latest writer per port), so joins are defined by the graph's
//!   structure and never by execution timing;
//! * **documentation** — `ports()` is the module's machine-readable
//!   signature, rendered into design docs and debug output.
//!
//! Ports name *value* slots only. The append-only channels — designs,
//! trace events, path failures — are accumulator streams the engine always
//! collects per node and concatenates in stable topological order; they
//! are not part of the port system (tasks never read them back, a
//! documented engine invariant since PR 1).

use crate::context::FlowContext;

/// A named, typed slot of [`FlowContext`] that modules exchange data
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Port {
    /// The working AST (`FlowContext::ast`, shared and copied on write).
    Ast,
    /// The extracted kernel's name (`FlowContext::kernel`).
    Kernel,
    /// The hotspot-detection report (`FlowContext::hotspot`).
    Hotspot,
    /// Aggregated target-independent analysis (`FlowContext::analysis`).
    Analysis,
    /// DSE-chosen design parameters (`FlowContext::tuned`).
    Tuned,
    /// Arrays staged to GPU shared memory (`FlowContext::shared_mem_arrays`).
    SharedMem,
    /// Fraction of traffic served by staged arrays
    /// (`FlowContext::smem_staged_fraction`).
    SmemFraction,
    /// The target selected at branch point A
    /// (`FlowContext::selected_target`).
    SelectedTarget,
    /// FPGA unsynthesizable marker (`FlowContext::fpga_unsynthesizable`).
    FpgaSynth,
    /// Single-thread reference time (`FlowContext::reference_time_s`).
    ReferenceTime,
    /// Strategy/DSE knobs (`FlowContext::params`); normally read-only
    /// configuration, but transforms may refine it (e.g. `sp_safe`).
    Params,
}

impl Port {
    /// Every port, in declaration (= bit) order.
    pub const ALL: [Port; 11] = [
        Port::Ast,
        Port::Kernel,
        Port::Hotspot,
        Port::Analysis,
        Port::Tuned,
        Port::SharedMem,
        Port::SmemFraction,
        Port::SelectedTarget,
        Port::FpgaSynth,
        Port::ReferenceTime,
        Port::Params,
    ];

    const fn bit(self) -> u16 {
        1 << (self as u16)
    }

    /// The Rust type carried by this port (documentation / debug rendering;
    /// the types themselves are enforced by the `FlowContext` field types).
    pub fn ty(self) -> &'static str {
        match self {
            Port::Ast => "Arc<psa_artisan::Ast>",
            Port::Kernel => "Option<String>",
            Port::Hotspot => "Option<HotspotReport>",
            Port::Analysis => "Option<KernelAnalysis>",
            Port::Tuned => "DesignParams",
            Port::SharedMem => "Vec<String>",
            Port::SmemFraction => "f64",
            Port::SelectedTarget => "Option<TargetKind>",
            Port::FpgaSynth => "Option<String>",
            Port::ReferenceTime => "Option<f64>",
            Port::Params => "PsaParams",
        }
    }

    /// The port's lower-snake name (stable; used in docs and errors).
    pub fn name(self) -> &'static str {
        match self {
            Port::Ast => "ast",
            Port::Kernel => "kernel",
            Port::Hotspot => "hotspot",
            Port::Analysis => "analysis",
            Port::Tuned => "tuned",
            Port::SharedMem => "shared_mem",
            Port::SmemFraction => "smem_fraction",
            Port::SelectedTarget => "selected_target",
            Port::FpgaSynth => "fpga_synth",
            Port::ReferenceTime => "reference_time",
            Port::Params => "params",
        }
    }
}

/// A small ordered set of [`Port`]s (bitmask; iteration follows
/// declaration order, so anything rendered from a `PortSet` is
/// deterministic by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortSet(u16);

impl PortSet {
    /// The empty set.
    pub const EMPTY: PortSet = PortSet(0);
    /// Every port.
    pub const ALL: PortSet = PortSet((1 << Port::ALL.len() as u16) - 1);

    /// Build from a slice of ports.
    pub fn of(ports: &[Port]) -> Self {
        let mut s = PortSet::EMPTY;
        for &p in ports {
            s.0 |= p.bit();
        }
        s
    }

    pub fn contains(self, port: Port) -> bool {
        self.0 & port.bit() != 0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub fn insert(&mut self, port: Port) {
        self.0 |= port.bit();
    }

    #[must_use]
    pub fn union(self, other: PortSet) -> PortSet {
        PortSet(self.0 | other.0)
    }

    #[must_use]
    pub fn intersection(self, other: PortSet) -> PortSet {
        PortSet(self.0 & other.0)
    }

    #[must_use]
    pub fn difference(self, other: PortSet) -> PortSet {
        PortSet(self.0 & !other.0)
    }

    /// Iterate members in declaration order.
    pub fn iter(self) -> impl Iterator<Item = Port> {
        Port::ALL.into_iter().filter(move |p| self.contains(*p))
    }
}

impl std::fmt::Display for PortSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.iter().map(Port::name).collect();
        write!(f, "{{{}}}", names.join(", "))
    }
}

/// A module's declared dataflow signature.
///
/// The default for every module is [`ModulePorts::opaque`]: reads and
/// writes unspecified. Opaque modules still execute fine — the graph's
/// explicit dependency edges order them — but the builder cannot check
/// their inputs, and at joins their whole ancestry is treated as writing
/// every port (conservative overlay). Declare ports to opt into precise
/// validation and minimal join imports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModulePorts {
    declared: bool,
    reads: PortSet,
    writes: PortSet,
}

impl ModulePorts {
    /// Unspecified signature (the trait default): the module may read or
    /// write anything.
    pub const fn opaque() -> Self {
        ModulePorts {
            declared: false,
            reads: PortSet::ALL,
            writes: PortSet::ALL,
        }
    }

    /// Start a declared (checkable) signature with no reads or writes.
    pub const fn new() -> Self {
        ModulePorts {
            declared: true,
            reads: PortSet::EMPTY,
            writes: PortSet::EMPTY,
        }
    }

    /// Declare input ports (builder style).
    #[must_use]
    pub fn reads(mut self, ports: &[Port]) -> Self {
        self.reads = self.reads.union(PortSet::of(ports));
        self
    }

    /// Declare output ports (builder style).
    #[must_use]
    pub fn writes(mut self, ports: &[Port]) -> Self {
        self.writes = self.writes.union(PortSet::of(ports));
        self
    }

    /// Whether the signature was declared (false = opaque).
    pub fn is_declared(&self) -> bool {
        self.declared
    }

    /// Declared input ports ([`PortSet::ALL`] when opaque).
    pub fn read_set(&self) -> PortSet {
        self.reads
    }

    /// Declared output ports ([`PortSet::ALL`] when opaque).
    pub fn write_set(&self) -> PortSet {
        self.writes
    }
}

impl Default for ModulePorts {
    fn default() -> Self {
        ModulePorts::opaque()
    }
}

/// Copy one port's value slot from `src` into `dst` (the scheduler's join
/// overlay step). The AST port is an `Arc`, so copying it costs one
/// refcount bump: `dst` shares `src`'s AST until one of them rewrites it
/// through [`FlowContext::module_mut`].
pub(crate) fn copy_port(dst: &mut FlowContext, src: &FlowContext, port: Port) {
    match port {
        Port::Ast => dst.ast = src.ast.clone(),
        Port::Kernel => dst.kernel = src.kernel.clone(),
        Port::Hotspot => dst.hotspot = src.hotspot.clone(),
        Port::Analysis => dst.analysis = src.analysis.clone(),
        Port::Tuned => dst.tuned = src.tuned,
        Port::SharedMem => dst.shared_mem_arrays = src.shared_mem_arrays.clone(),
        Port::SmemFraction => dst.smem_staged_fraction = src.smem_staged_fraction,
        Port::SelectedTarget => dst.selected_target = src.selected_target,
        Port::FpgaSynth => dst.fpga_unsynthesizable = src.fpga_unsynthesizable.clone(),
        Port::ReferenceTime => dst.reference_time_s = src.reference_time_s,
        Port::Params => dst.params = src.params.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portset_algebra() {
        let a = PortSet::of(&[Port::Ast, Port::Kernel]);
        let b = PortSet::of(&[Port::Kernel, Port::Analysis]);
        assert!(a.contains(Port::Ast));
        assert!(!a.contains(Port::Analysis));
        assert_eq!(
            a.union(b),
            PortSet::of(&[Port::Ast, Port::Kernel, Port::Analysis])
        );
        assert_eq!(a.intersection(b), PortSet::of(&[Port::Kernel]));
        assert_eq!(a.difference(b), PortSet::of(&[Port::Ast]));
        assert_eq!(PortSet::ALL.iter().count(), Port::ALL.len());
    }

    #[test]
    fn portset_iterates_in_declaration_order_regardless_of_insertion() {
        let mut s = PortSet::EMPTY;
        s.insert(Port::Params);
        s.insert(Port::Ast);
        s.insert(Port::Analysis);
        let order: Vec<Port> = s.iter().collect();
        assert_eq!(order, [Port::Ast, Port::Analysis, Port::Params]);
        assert_eq!(s.to_string(), "{ast, analysis, params}");
    }

    #[test]
    fn opaque_vs_declared_signatures() {
        let opaque = ModulePorts::opaque();
        assert!(!opaque.is_declared());
        assert_eq!(opaque.read_set(), PortSet::ALL);
        assert_eq!(opaque.write_set(), PortSet::ALL);

        let sig = ModulePorts::new()
            .reads(&[Port::Ast, Port::Hotspot])
            .writes(&[Port::Ast, Port::Kernel, Port::Analysis]);
        assert!(sig.is_declared());
        assert!(sig.read_set().contains(Port::Hotspot));
        assert!(!sig.read_set().contains(Port::Kernel));
        assert!(sig.write_set().contains(Port::Kernel));
    }

    #[test]
    fn every_port_has_a_type_and_name() {
        for p in Port::ALL {
            assert!(!p.ty().is_empty());
            assert!(!p.name().is_empty());
        }
    }
}
