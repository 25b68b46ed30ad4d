//! Work-stealing DAG execution.
//!
//! [`run_work_stealing`] drives an arbitrary dependency DAG: each worker
//! owns a deque of ready node indices, pushes newly-unblocked successors
//! onto its own deque (LIFO for locality), and steals FIFO from siblings
//! when it runs dry. [`run_sequential`] is the single-threaded reference
//! scheduler: it executes the same node closure over the stable
//! topological order, so anything deterministic about the closure's
//! results holds identically under both schedulers — the engine exploits
//! this to prove byte-equal output. `FlowEngine::fan_out` drives the
//! same scheduler with an edge-free DAG of independent items.
//!
//! The scheduler is policy-free: it never looks inside a node's result.
//! Error handling, skip propagation and merge ordering live entirely in
//! the `exec` closure and the engine's assembly step, which both
//! schedulers share.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Lock a mutex, recovering from poisoning (workers convert node panics to
/// values; a poisoned lock would otherwise cascade one bug into a hang).
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run every node on the calling thread in the given (topological) order.
/// `exec(i, slots)` may inspect completed predecessors through `slots`.
pub(crate) fn run_sequential<T, F>(n: usize, topo: &[usize], exec: F) -> Vec<Option<T>>
where
    F: Fn(usize, &[Mutex<Option<T>>]) -> T,
{
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    for &i in topo {
        let out = exec(i, &slots);
        *lock(&slots[i]) = Some(out);
    }
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

struct Shared<T> {
    slots: Vec<Mutex<Option<T>>>,
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Unmet-dependency counts; a node becomes ready at zero.
    pending: Vec<AtomicUsize>,
    completed: AtomicUsize,
    /// Bumped on every push/completion so idle workers can detect missed
    /// work without a lock-step handshake.
    version: AtomicUsize,
    idle: Mutex<()>,
    cv: Condvar,
}

/// Run a dependency DAG on `workers` threads with work stealing.
///
/// `indegree[i]` is node `i`'s dependency count; `succs[i]` its dependents.
/// Every node runs exactly once, only after all its dependencies have
/// their result slot filled. Returns the filled slots.
///
/// `exec` must not unwind (the engine converts node panics to error
/// values); if it does anyway, the scope propagates the panic.
pub(crate) fn run_work_stealing<T, F>(
    n: usize,
    succs: &[Vec<usize>],
    indegree: &[usize],
    workers: usize,
    exec: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize, &[Mutex<Option<T>>]) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    let shared = Shared {
        slots: (0..n).map(|_| Mutex::new(None)).collect(),
        deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        pending: indegree.iter().map(|&d| AtomicUsize::new(d)).collect(),
        completed: AtomicUsize::new(0),
        version: AtomicUsize::new(0),
        idle: Mutex::new(()),
        cv: Condvar::new(),
    };
    // Seed the roots round-robin so workers start busy.
    let mut next = 0;
    for (i, &d) in indegree.iter().enumerate() {
        if d == 0 {
            lock(&shared.deques[next % workers]).push_back(i);
            next += 1;
        }
    }

    crossbeam::thread::scope(|s| {
        for wid in 0..workers {
            let shared = &shared;
            let exec = &exec;
            s.spawn(move |_| worker(wid, n, succs, shared, exec));
        }
    })
    .expect("DAG workers convert node panics to values");

    shared
        .slots
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

fn worker<T, F>(wid: usize, n: usize, succs: &[Vec<usize>], shared: &Shared<T>, exec: &F)
where
    T: Send,
    F: Fn(usize, &[Mutex<Option<T>>]) -> T + Sync,
{
    loop {
        let version = shared.version.load(Ordering::Acquire);
        // Own deque first (newest — cache-warm), then steal oldest from a
        // sibling. The own-deque guard is a separate statement so it is
        // released before the steal scan takes other deque locks; the scan
        // also skips `wid` itself, so no worker ever holds two deque locks.
        let own = lock(&shared.deques[wid]).pop_back();
        let task = own.or_else(|| {
            (1..shared.deques.len())
                .map(|k| (wid + k) % shared.deques.len())
                .find_map(|victim| lock(&shared.deques[victim]).pop_front())
        });
        let Some(i) = task else {
            if shared.completed.load(Ordering::Acquire) == n {
                return;
            }
            let guard = lock(&shared.idle);
            if shared.version.load(Ordering::Acquire) != version {
                continue; // something changed since the empty scan
            }
            // The timeout bounds the one benign race (a push between the
            // version check and the wait); it is a backstop, not a poll.
            drop(shared.cv.wait_timeout(guard, Duration::from_millis(1)));
            continue;
        };

        let out = exec(i, &shared.slots);
        *lock(&shared.slots[i]) = Some(out);
        for &s in &succs[i] {
            if shared.pending[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                lock(&shared.deques[wid]).push_back(s);
            }
        }
        shared.version.fetch_add(1, Ordering::AcqRel);
        let done = shared.completed.fetch_add(1, Ordering::AcqRel) + 1;
        shared.cv.notify_all();
        if done == n {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pure topology check: a diamond plus an independent node, results
    /// derived from predecessor results through the slots.
    #[test]
    fn work_stealing_respects_dependencies() {
        //   0 -> 1,2 -> 3 ; 4 independent
        let succs: Vec<Vec<usize>> = vec![vec![1, 2], vec![3], vec![3], vec![], vec![]];
        let indegree = [0, 1, 1, 2, 0];
        let exec = |i: usize, slots: &[Mutex<Option<u64>>]| -> u64 {
            let preds: &[usize] = match i {
                1 | 2 => &[0],
                3 => &[1, 2],
                _ => &[],
            };
            let sum: u64 = preds
                .iter()
                .map(|&p| lock(&slots[p]).expect("pred completed before successor"))
                .sum();
            sum + (i as u64 + 1) * 100
        };
        let got = run_work_stealing(5, &succs, &indegree, 4, exec);
        let want = run_sequential(5, &[0, 1, 2, 3, 4], exec);
        assert_eq!(got, want);
        assert_eq!(got[3], Some(100 + 200 + 100 + 300 + 400));
    }

    /// Saturate stealing: many independent nodes, few seeded deques.
    #[test]
    fn work_stealing_completes_wide_fan_out() {
        let n = 200;
        let succs = vec![Vec::new(); n];
        let indegree = vec![0usize; n];
        let got = run_work_stealing(n, &succs, &indegree, 8, |i, _| i * 3);
        assert!(got.iter().enumerate().all(|(i, v)| *v == Some(i * 3)));
    }

    /// A deep chain forces strictly serial hand-off between workers.
    #[test]
    fn work_stealing_runs_chains_in_order() {
        let n = 64;
        let succs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i + 1 < n { vec![i + 1] } else { vec![] })
            .collect();
        let mut indegree = vec![1usize; n];
        indegree[0] = 0;
        let got = run_work_stealing(n, &succs, &indegree, 4, |i, slots| {
            let prev = if i == 0 {
                0
            } else {
                lock(&slots[i - 1]).expect("chain predecessor done")
            };
            prev + 1
        });
        assert_eq!(got[n - 1], Some(n));
    }
}
