//! Loop-level watch: kernel-scoped metrics for loops that are still inline.
//!
//! A function watch ([`crate::RunConfig::watch_function`]) observes an
//! outlined kernel from call to return. A loop watch observes the same
//! quantities for a loop *before* it is outlined, so one run of the
//! original program can serve both hotspot ranking and the analysis of the
//! kernel that outlining the hottest loop will produce.
//!
//! A *window* is one execution of a watched loop, from entry to exit,
//! entered while no other window is open. Inside a window the engines
//! record exactly what a function watch records inside the outlined
//! kernel: virtual cycles, FLOPs, bytes loaded and stored, per-buffer
//! access ranges, and at entry the values of the loop's free pointer
//! variables (the outlined kernel's pointer arguments). Entries of a
//! watched loop while a window is open — the loop reached again through
//! recursion, or a watched loop reached through a call from inside another
//! one — are counted in [`LoopWindow::nested`] and not recorded.

use crate::memory::{AccessRange, BufferId, Memory};
use crate::profile::Profile;
use crate::value::Value;
use psa_minicpp::NodeId;
use std::collections::BTreeMap;

/// One loop to watch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchedLoop {
    /// The [`psa_minicpp::ForLoop`]'s node id (the key of
    /// [`Profile::loop_stats`]).
    pub id: NodeId,
    /// Free variables of the loop whose values a window records at entry,
    /// in the order the outlined kernel takes them as parameters.
    pub pointers: Vec<String>,
}

/// The loops one run watches. Window records land in
/// [`Profile::loop_windows`], one per watched loop in this order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopWatch {
    pub loops: Vec<WatchedLoop>,
}

impl LoopWatch {
    /// Index of the watched loop `id`, if it is watched.
    pub fn index_of(&self, id: NodeId) -> Option<u32> {
        self.loops.iter().position(|l| l.id == id).map(|i| i as u32)
    }
}

/// What a loop watch observed for one watched loop, summed over its
/// windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopWindow {
    /// Windows recorded.
    pub windows: u64,
    /// Entries made while a window was open (not recorded).
    pub nested: u64,
    /// Virtual cycles inside the windows.
    pub cycles: u64,
    /// FLOPs inside the windows.
    pub flops: u64,
    /// Bytes loaded inside the windows.
    pub bytes_loaded: u64,
    /// Bytes stored inside the windows.
    pub bytes_stored: u64,
    /// Per window, the watched variables' values at entry, in
    /// [`WatchedLoop::pointers`] order (variables not in scope are left
    /// out).
    pub pointers: Vec<Vec<(String, Value)>>,
    /// Per-buffer access ranges inside the windows.
    pub access: BTreeMap<BufferId, AccessRange>,
}

/// The open window: which loop, how deeply it re-entered itself, and the
/// counters at entry.
struct Open {
    watch: u32,
    depth: u32,
    cycles: u64,
    flops: u64,
    bytes_loaded: u64,
    bytes_stored: u64,
}

/// Window bookkeeping shared by both engines. The engines count an open
/// window in their watch depth, so memory accesses inside it record kernel
/// access ranges exactly as they do inside a watched function.
pub(crate) struct LoopWatcher {
    open: Option<Open>,
}

impl LoopWatcher {
    /// Start watching; `profile.loop_windows` gets one record per loop.
    pub(crate) fn new(watch: &LoopWatch, profile: &mut Profile) -> Self {
        profile.loop_windows = vec![LoopWindow::default(); watch.loops.len()];
        LoopWatcher { open: None }
    }

    /// Watched loop `watch` was entered. Returns true when the entry opens
    /// a window, recording `pointers()` for it; the caller then raises its
    /// watch depth.
    pub(crate) fn enter(
        &mut self,
        watch: u32,
        profile: &mut Profile,
        pointers: impl FnOnce() -> Vec<(String, Value)>,
    ) -> bool {
        let window = &mut profile.loop_windows[watch as usize];
        match &mut self.open {
            None => {
                window.windows += 1;
                window.pointers.push(pointers());
                self.open = Some(Open {
                    watch,
                    depth: 1,
                    cycles: profile.total_cycles,
                    flops: profile.flops,
                    bytes_loaded: profile.bytes_loaded,
                    bytes_stored: profile.bytes_stored,
                });
                true
            }
            Some(open) => {
                window.nested += 1;
                if open.watch == watch {
                    open.depth += 1;
                }
                false
            }
        }
    }

    /// Watched loop `watch` exited. Returns true when the exit closes the
    /// open window; its counters and access ranges are then added to the
    /// loop's record, and the caller lowers its watch depth.
    pub(crate) fn exit(&mut self, watch: u32, profile: &mut Profile, memory: &mut Memory) -> bool {
        let Some(open) = self.open.as_mut().filter(|o| o.watch == watch) else {
            return false;
        };
        open.depth -= 1;
        if open.depth > 0 {
            return false;
        }
        let open = self.open.take().expect("window is open");
        let window = &mut profile.loop_windows[watch as usize];
        window.cycles += profile.total_cycles - open.cycles;
        window.flops += profile.flops - open.flops;
        window.bytes_loaded += profile.bytes_loaded - open.bytes_loaded;
        window.bytes_stored += profile.bytes_stored - open.bytes_stored;
        memory.drain_kernel_access(|id, range| window.access.entry(id).or_default().merge(&range));
        true
    }
}
