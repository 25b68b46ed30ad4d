//! Deterministic causal span contexts.
//!
//! A [`SpanCtx`] names one node of a flow run's causal tree: a trace id
//! shared by everything one job did, a span id for this node, and the
//! parent's span id (zero at the root). Ids are **structural**, derived by
//! FNV-1a hashing of `(trace id, parent span, label, index)` — never from
//! clocks, addresses or thread ids — so two runs of the same flow under a
//! fixed seed produce byte-identical ids no matter how the work-stealing
//! scheduler interleaved them. The flow engine carries the current span in
//! its `FlowContext` and clones it with branch paths; seams below the
//! engine (cache lookups, platform estimates, VM runs, fault probes) read
//! the **ambient span** of their thread through [`current`], maintained by
//! the [`enter`]/[`enter_child`] guards the engine installs around node
//! execution.
//!
//! The ambient stack is only maintained while the flight recorder is
//! enabled ([`crate::recorder::set_enabled`]); when it is off, [`enter`]
//! returns an inert guard after one relaxed atomic load and [`current`]
//! returns `None`.

use std::cell::RefCell;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One node of a causal tree: `(trace id, span id, parent span id)`.
/// `parent_id == 0` marks a root span; derived span ids are never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanCtx {
    /// Shared by every span of one flow run.
    pub trace_id: u64,
    /// This span.
    pub span_id: u64,
    /// The enclosing span (0 = root).
    pub parent_id: u64,
}

impl SpanCtx {
    /// A root span, seeded deterministically from a run name and a seed.
    pub fn root(name: &str, seed: u64) -> SpanCtx {
        let mut h = fnv64(FNV_OFFSET, name.as_bytes());
        h = fnv64(h, &seed.to_le_bytes());
        let h = h | 1; // ids are never zero (zero means "no parent")
        SpanCtx {
            trace_id: h,
            span_id: h,
            parent_id: 0,
        }
    }

    /// The child span for `(label, index)` under this span. `index`
    /// disambiguates repeated labels (e.g. a graph's node id or a branch's
    /// path index), keeping ids unique *and* structural.
    pub fn child(&self, label: &str, index: u64) -> SpanCtx {
        let mut h = fnv64(FNV_OFFSET, &self.trace_id.to_le_bytes());
        h = fnv64(h, &self.span_id.to_le_bytes());
        h = fnv64(h, label.as_bytes());
        h = fnv64(h, &index.to_le_bytes());
        SpanCtx {
            trace_id: self.trace_id,
            span_id: h | 1,
            parent_id: self.span_id,
        }
    }

    pub fn is_root(&self) -> bool {
        self.parent_id == 0
    }
}

impl Default for SpanCtx {
    /// The span of work nobody attributed (direct API use outside a flow).
    fn default() -> Self {
        SpanCtx::root("unattributed", 0)
    }
}

struct Frame {
    ctx: SpanCtx,
    /// Children derived so far via [`enter_child`] — the per-parent index
    /// that keeps sibling ids distinct without any global state.
    children: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// The innermost span entered on this thread, if any.
pub fn current() -> Option<SpanCtx> {
    STACK.with(|s| s.borrow().last().map(|f| f.ctx))
}

/// Pops its frame (and journals the span close) on drop.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    armed: bool,
    /// The span's span-table entry, whose close time the drop stamps.
    index: Option<usize>,
}

const INERT: SpanGuard = SpanGuard {
    armed: false,
    index: None,
};

/// Enter `ctx` as the ambient span of this thread, journaling a span-open
/// event. Inert (one atomic load) while the recorder is disabled.
pub fn enter(ctx: SpanCtx, label: &str) -> SpanGuard {
    if !crate::recorder::enabled() {
        return INERT;
    }
    STACK.with(|s| s.borrow_mut().push(Frame { ctx, children: 0 }));
    SpanGuard {
        armed: true,
        index: crate::recorder::record_span_open(ctx, label),
    }
}

/// Enter a child of the current ambient span, deriving its id from the
/// parent's running child counter. The label closure only runs when the
/// recorder is enabled and a parent exists; with no ambient parent this is
/// a no-op (work outside any flow stays unattributed).
pub fn enter_child(label: impl FnOnce() -> String) -> SpanGuard {
    if !crate::recorder::enabled() {
        return INERT;
    }
    let parent = STACK.with(|s| {
        s.borrow_mut().last_mut().map(|f| {
            let index = f.children;
            f.children += 1;
            (f.ctx, index)
        })
    });
    match parent {
        Some((ctx, index)) => {
            let label = label();
            let child = ctx.child(&label, index);
            STACK.with(|s| {
                s.borrow_mut().push(Frame {
                    ctx: child,
                    children: 0,
                })
            });
            SpanGuard {
                armed: true,
                index: crate::recorder::record_span_open(child, &label),
            }
        }
        None => INERT,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Some(frame) = STACK.with(|s| s.borrow_mut().pop()) {
            crate::recorder::record_span_close(frame.ctx, self.index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_structural_and_deterministic() {
        let a = SpanCtx::root("psa-flow/app", 7);
        let b = SpanCtx::root("psa-flow/app", 7);
        assert_eq!(a, b);
        assert!(a.is_root());
        assert_ne!(a, SpanCtx::root("psa-flow/app", 8));
        assert_ne!(a, SpanCtx::root("psa-flow/other", 7));

        let c1 = a.child("node", 0);
        let c2 = a.child("node", 1);
        assert_eq!(c1, b.child("node", 0));
        assert_ne!(c1.span_id, c2.span_id);
        assert_eq!(c1.parent_id, a.span_id);
        assert_eq!(c1.trace_id, a.trace_id);
        assert_ne!(c1.span_id, 0, "derived ids are never zero");
    }

    #[test]
    fn ambient_stack_is_inert_while_recorder_disabled() {
        let _gate = crate::recorder::test_gate()
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        crate::recorder::set_enabled(false);
        let _g = enter(SpanCtx::root("r", 0), "r");
        assert_eq!(current(), None);
        let _c = enter_child(|| unreachable!("label closure must not run"));
        assert_eq!(current(), None);
    }

    #[test]
    fn enter_child_derives_deterministic_sibling_ids() {
        let _gate = crate::recorder::test_gate()
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        crate::recorder::set_enabled(true);
        crate::recorder::reset();
        let root = SpanCtx::root("parented", 5);
        let observed = {
            let _r = enter(root, "root");
            let a = {
                let _c = enter_child(|| "est".to_string());
                current().unwrap()
            };
            let b = {
                let _c = enter_child(|| "est".to_string());
                current().unwrap()
            };
            (a, b)
        };
        crate::recorder::set_enabled(false);
        let (a, b) = observed;
        // Same label, consecutive child indices → distinct but reproducible.
        assert_eq!(a, root.child("est", 0));
        assert_eq!(b, root.child("est", 1));
        assert_eq!(current(), None, "guards unwound the stack");
    }
}
