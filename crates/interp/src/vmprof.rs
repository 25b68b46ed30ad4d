//! Optional VM profiler: attributes virtual cycles and wall time to
//! `(function, loop)` frames.
//!
//! The profiler is sampling-free: the VM notifies it on every user-function
//! call and loop entry/exit, and it keeps a frame stack mirroring the VM's
//! own. Each frame accumulates the virtual cycles and wall time charged
//! while it was the innermost frame (*self* time); exclusive times are
//! aggregated per **frame path** (the stack of keys from the root), so
//! recursive functions attribute correctly and a collapsed-stack flamegraph
//! falls straight out of the data.
//!
//! The profiler is deliberately **not observable**: it lives on the [`Vm`]
//! outside the [`crate::Profile`] (which is compared bit-for-bit between
//! engines), it never touches the virtual clock, and with profiling off the
//! VM pays nothing. The differential test `tests/vm_profiler.rs` checks
//! both properties, plus the reconciliation invariant
//! `Σ self_cycles == total_cycles`.
//!
//! Deferred loop charging is invisible here too: the profiler only reads
//! the virtual clock at frame enter/exit boundaries, and a `DeferredFor`
//! reconciles its accumulated charge into `Profile::total_cycles` before
//! the enclosing `LoopExit` (or any error path) observes the clock — so
//! frame attribution under deferred accounting is bit-identical to
//! immediate per-instruction charging.
//!
//! [`Vm`]: crate::vm::Vm

use crate::compile::Program;
use psa_minicpp::ast::NodeId;
use std::collections::HashMap;
use std::time::Instant;

/// Identity of one profiling frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FrameKey {
    /// The whole `run_main` (globals init + `main`).
    Root,
    /// A user function, by program function index.
    Func(u16),
    /// A loop, by AST node id.
    Loop(NodeId),
}

/// A frame currently on the stack.
struct Open {
    key: FrameKey,
    start_cycles: u64,
    start: Instant,
    /// Cycles/wall attributed to frames opened (and closed) below this one.
    child_cycles: u64,
    child_wall_ns: u64,
}

/// Exclusive totals for one frame path.
#[derive(Default)]
struct Agg {
    self_cycles: u64,
    self_wall_ns: u64,
    entries: u64,
}

/// The live profiler the VM drives.
pub struct VmProfiler {
    stack: Vec<Open>,
    paths: HashMap<Vec<FrameKey>, Agg>,
}

impl VmProfiler {
    pub fn new() -> Self {
        VmProfiler {
            stack: Vec::new(),
            paths: HashMap::new(),
        }
    }

    /// Current stack depth (frames open).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Open a frame at the current virtual clock.
    pub fn enter(&mut self, key: FrameKey, now_cycles: u64) {
        self.stack.push(Open {
            key,
            start_cycles: now_cycles,
            start: Instant::now(),
            child_cycles: 0,
            child_wall_ns: 0,
        });
    }

    /// Close the innermost frame at the current virtual clock.
    pub fn exit(&mut self, now_cycles: u64) {
        let frame = self.stack.pop().expect("open profiler frame");
        let total_cycles = now_cycles.saturating_sub(frame.start_cycles);
        let total_wall = frame.start.elapsed().as_nanos() as u64;
        let self_cycles = total_cycles.saturating_sub(frame.child_cycles);
        let self_wall = total_wall.saturating_sub(frame.child_wall_ns);

        let mut path: Vec<FrameKey> = self.stack.iter().map(|f| f.key).collect();
        path.push(frame.key);
        let agg = self.paths.entry(path).or_default();
        agg.self_cycles += self_cycles;
        agg.self_wall_ns += self_wall;
        agg.entries += 1;

        if let Some(parent) = self.stack.last_mut() {
            parent.child_cycles += total_cycles;
            parent.child_wall_ns += total_wall;
        }
    }

    /// Close frames until `depth` remain. Error paths unwind the VM's call
    /// stack without visiting the per-frame exits; callers use the depth
    /// they recorded at entry so attribution stays consistent regardless.
    pub fn exit_to(&mut self, depth: usize, now_cycles: u64) {
        while self.stack.len() > depth {
            self.exit(now_cycles);
        }
    }

    /// Consume the profiler into an aggregated report. `root` names the
    /// `Root` frame (conventionally the module/application name).
    pub fn finish(self, program: &Program, root: &str) -> VmProfile {
        let name_of = |key: &FrameKey| -> String {
            match key {
                FrameKey::Root => root.to_string(),
                FrameKey::Func(fidx) => program.funcs[*fidx as usize].name.clone(),
                FrameKey::Loop(id) => format!("loop#{}", id.0),
            }
        };

        let mut total_cycles = 0u64;
        let mut total_wall_ns = 0u64;
        let mut rows: HashMap<FrameKey, FrameRow> = HashMap::new();
        let mut collapsed = Vec::new();
        for (path, agg) in &self.paths {
            total_cycles += agg.self_cycles;
            total_wall_ns += agg.self_wall_ns;
            let leaf = *path.last().expect("non-empty path");
            {
                let row = rows
                    .entry(leaf)
                    .or_insert_with(|| FrameRow::named(name_of(&leaf)));
                row.self_cycles += agg.self_cycles;
                row.self_wall_ns += agg.self_wall_ns;
                row.entries += agg.entries;
            }
            // Inclusive time: each frame on the path absorbs the leaf's
            // exclusive time once (dedup handles recursion: a key appearing
            // twice in one path must not double-count).
            let mut seen: Vec<FrameKey> = Vec::with_capacity(path.len());
            for key in path {
                if seen.contains(key) {
                    continue;
                }
                seen.push(*key);
                let row = rows
                    .entry(*key)
                    .or_insert_with(|| FrameRow::named(name_of(key)));
                row.total_cycles += agg.self_cycles;
                row.total_wall_ns += agg.self_wall_ns;
            }
            if agg.self_cycles > 0 {
                let frames: Vec<String> = path.iter().map(&name_of).collect();
                collapsed.push((frames.join(";"), agg.self_cycles));
            }
        }

        let mut rows: Vec<FrameRow> = rows.into_values().collect();
        rows.sort_by(|a, b| {
            b.self_cycles
                .cmp(&a.self_cycles)
                .then_with(|| a.name.cmp(&b.name))
        });
        collapsed.sort();
        VmProfile {
            total_cycles,
            total_wall_ns,
            rows,
            collapsed,
        }
    }
}

impl Default for VmProfiler {
    fn default() -> Self {
        VmProfiler::new()
    }
}

/// Aggregated self/total times for one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRow {
    pub name: String,
    /// Virtual cycles spent with this frame innermost.
    pub self_cycles: u64,
    /// Virtual cycles spent with this frame anywhere on the stack.
    pub total_cycles: u64,
    pub self_wall_ns: u64,
    pub total_wall_ns: u64,
    /// Completed executions of the frame.
    pub entries: u64,
}

impl FrameRow {
    fn named(name: String) -> Self {
        FrameRow {
            name,
            self_cycles: 0,
            total_cycles: 0,
            self_wall_ns: 0,
            total_wall_ns: 0,
            entries: 0,
        }
    }
}

/// The finished report.
#[derive(Debug, Clone)]
pub struct VmProfile {
    /// Virtual cycles across the whole profiled run; equals the sum of
    /// every row's `self_cycles` (the reconciliation invariant).
    pub total_cycles: u64,
    pub total_wall_ns: u64,
    /// Per-frame rows, hottest `self_cycles` first.
    pub rows: Vec<FrameRow>,
    /// Collapsed stacks (`frame;frame;frame`, exclusive cycles), sorted;
    /// the flamegraph text format.
    pub collapsed: Vec<(String, u64)>,
}

impl VmProfile {
    /// Collapsed-stack text, one `stack count` line each — feed directly to
    /// `flamegraph.pl` / `inferno-flamegraph`.
    pub fn collapsed_text(&self) -> String {
        let mut out = String::new();
        for (stack, cycles) in &self.collapsed {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&cycles.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::RunConfig;
    use psa_minicpp::parse_module;

    fn program() -> Program {
        let m = parse_module(
            "int f(int x) { return x + 1; } int main() { return f(1); }",
            "t",
        )
        .unwrap();
        Program::compile(&m, &RunConfig::default())
    }

    #[test]
    fn self_cycles_sum_to_total_and_nest() {
        let program = program();
        let mut p = VmProfiler::new();
        p.enter(FrameKey::Root, 0);
        p.enter(FrameKey::Func(1), 10);
        p.enter(FrameKey::Loop(psa_minicpp::ast::NodeId(7)), 30);
        p.exit(90); // loop: self 60
        p.exit(100); // func: total 90, self 30
        p.exit(110); // root: total 110, self 20
        let profile = p.finish(&program, "app");

        assert_eq!(profile.total_cycles, 110);
        let sum: u64 = profile.rows.iter().map(|r| r.self_cycles).sum();
        assert_eq!(sum, profile.total_cycles);
        let root = profile.rows.iter().find(|r| r.name == "app").unwrap();
        assert_eq!(root.total_cycles, 110);
        assert_eq!(root.self_cycles, 20);
        let lp = profile.rows.iter().find(|r| r.name == "loop#7").unwrap();
        assert_eq!(lp.self_cycles, 60);
        assert_eq!(lp.total_cycles, 60);
    }

    #[test]
    fn recursion_does_not_double_count_inclusive_time() {
        let program = program();
        let mut p = VmProfiler::new();
        p.enter(FrameKey::Root, 0);
        p.enter(FrameKey::Func(1), 0);
        p.enter(FrameKey::Func(1), 10); // recursive call
        p.exit(50);
        p.exit(60);
        p.exit(60);
        let profile = p.finish(&program, "app");
        let f = profile
            .rows
            .iter()
            .find(|r| r.name == program.funcs[1].name)
            .unwrap();
        assert_eq!(f.total_cycles, 60, "inclusive counts each path once");
        assert_eq!(f.self_cycles, 60);
        assert_eq!(f.entries, 2);
    }

    #[test]
    fn collapsed_stacks_cover_all_self_cycles() {
        let program = program();
        let mut p = VmProfiler::new();
        p.enter(FrameKey::Root, 0);
        p.enter(FrameKey::Func(0), 5);
        p.exit(25);
        p.exit(30);
        let profile = p.finish(&program, "app");
        let text = profile.collapsed_text();
        let covered: u64 = text
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(covered, profile.total_cycles);
        assert!(text.contains(&format!("app;{}", program.funcs[0].name)));
    }

    #[test]
    fn exit_to_unwinds_abandoned_frames() {
        let program = program();
        let mut p = VmProfiler::new();
        p.enter(FrameKey::Root, 0);
        p.enter(FrameKey::Func(1), 10);
        p.enter(FrameKey::Loop(psa_minicpp::ast::NodeId(3)), 20);
        // Error path: unwind everything at once.
        p.exit_to(0, 100);
        assert_eq!(p.depth(), 0);
        let profile = p.finish(&program, "app");
        let sum: u64 = profile.rows.iter().map(|r| r.self_cycles).sum();
        assert_eq!(sum, profile.total_cycles);
        assert_eq!(profile.total_cycles, 100);
    }
}
