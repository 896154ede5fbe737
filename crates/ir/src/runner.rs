//! Thread-parallel batch execution.
//!
//! The environment has no `rayon`, so this is a small scoped-thread
//! work-stealing map: jobs are claimed off a shared atomic cursor and
//! results land at their original indices. Compiled programs (the
//! engine's `Program`, the STA's `CompiledSta`) are `Sync`, so every
//! worker can evaluate against the same compiled artifact — the
//! intended pattern for sweeping thousands of vector batches or corner
//! grids across cores.
//!
//! [`join`] is the two-task form: it overlaps two independent phases of
//! one compilation, when the module is large enough
//! ([`OVERLAP_MIN_INSTANCES`]) for the overlap to pay for its thread.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use syndcim_telemetry as telemetry;

/// Number of worker threads to use for `jobs` parallel jobs.
pub fn default_threads(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(jobs).max(1)
}

/// Apply `f` to every job on the calling thread and scoped worker
/// threads, returning results in job order. `f` receives
/// `(job_index, job)`.
///
/// # Panics
///
/// Propagates a panic from any worker (the panic payload is resumed on
/// the calling thread once all workers have stopped).
pub fn parallel_map<T, R, F>(jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = default_threads(jobs.len());
    parallel_map_threads(jobs, threads, f)
}

/// [`parallel_map`] with an explicit worker-thread count (≤ 1 runs
/// inline on the calling thread). The caller is one of the `threads`
/// workers and spawns the other `threads - 1`: a spawned thread takes
/// an allocator arena of its own, so every extra spawn leaves memory
/// behind in one more arena (measured on the scale tier's `implement`
/// under glibc). Telemetry spans opened inside `f` nest under the
/// *caller's* current span regardless of `threads`: each spawned worker
/// adopts the caller's span before running jobs, and the collector
/// merges same-named spans, so the aggregated span tree and counters
/// are identical for any thread count — pinned by `tests/telemetry.rs`.
pub fn parallel_map_threads<T, R, F>(jobs: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if threads <= 1 {
        return jobs.into_iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }

    let parent = telemetry::current_span();
    let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<R>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= slots.len() {
            break;
        }
        let job = slots[i].lock().expect("job mutex poisoned").take().expect("each job claimed once");
        let r = f(i, job);
        *results[i].lock().expect("result mutex poisoned") = Some(r);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                let _adopt = telemetry::adopt(parent);
                work()
            });
        }
        work();
    });

    results
        .into_iter()
        .map(|m| m.into_inner().expect("result mutex poisoned").expect("worker filled every slot"))
        .collect()
}

/// Cut `slice` into consecutive sub-slices of the given lengths — the
/// disjoint outputs of the jobs of one [`parallel_map`] pass. A
/// remainder past the last length is left out.
///
/// # Panics
///
/// Panics if the lengths add up to more than `slice.len()`.
pub fn split_lengths<T>(mut slice: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (head, rest) = std::mem::take(&mut slice).split_at_mut(len);
            slice = rest;
            head
        })
        .collect()
}

/// Instance count from which the flow overlaps independent phases with
/// [`join`]. On a shared 2-vCPU host an empty scoped spawn plus join
/// takes 0.05 ms at the median but 2.5–6.7 ms at the 99th percentile
/// and up to 44 ms, more than the paper chip's phases (28,279
/// instances) can win back, while a 128×128 macro (103,980 instances)
/// and the scale tier gain. Module size is a property of the input, so
/// the gate is a constant, not a setting.
pub const OVERLAP_MIN_INSTANCES: usize = 1 << 16;

/// Run `a` and `b` and return `(a(), b())`. When `overlap` is true and
/// the host has more than one core, `b` runs on one scoped thread that
/// adopts the caller's telemetry span (as [`parallel_map`] workers do)
/// while `a` runs on the caller; otherwise both run inline, `a` first.
/// Both arms must be pure functions of shared inputs, so the results
/// do not depend on which path ran.
///
/// Every call with `overlap` true counts one `ir.overlapped_joins`,
/// whatever the core count. Spans the arms open overlap in time, so
/// sibling durations can sum past their parent's.
///
/// # Panics
///
/// Resumes a panic of either arm on the caller. Overlapped, that
/// happens once both arms have finished, and `a`'s panic wins if both
/// panic; inline, a panic in `a` skips `b`, as in the serial code.
pub fn join<A, B, RA, RB>(overlap: bool, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if overlap {
        telemetry::counter("ir.overlapped_joins").incr();
    }
    if !overlap || default_threads(2) < 2 {
        return (a(), b());
    }
    let parent = telemetry::current_span();
    std::thread::scope(|scope| {
        let b = scope.spawn(move || {
            let _adopt = telemetry::adopt(parent);
            b()
        });
        let ra = a();
        match b.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn maps_in_order_with_indices() {
        let jobs: Vec<u64> = (0..100).collect();
        let out = parallel_map(jobs, |i, j| {
            assert_eq!(i as u64, j);
            j * j
        });
        assert_eq!(out, (0..100).map(|j| j * j).collect::<Vec<u64>>());
    }

    #[test]
    fn split_lengths_cuts_consecutive_disjoint_slices() {
        let mut data: Vec<u32> = (0..10).collect();
        let parts = split_lengths(&mut data, [3, 0, 4]);
        assert_eq!(
            parts.iter().map(|p| p.to_vec()).collect::<Vec<_>>(),
            [vec![0, 1, 2], vec![], vec![3, 4, 5, 6]]
        );
        parallel_map(parts, |_, part| part.iter_mut().for_each(|x| *x += 100));
        assert_eq!(data, [100, 101, 102, 103, 104, 105, 106, 7, 8, 9]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u8> = parallel_map(Vec::<u8>::new(), |_, j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn single_job_runs_inline() {
        let out = parallel_map(vec![41], |_, j| j + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn join_returns_both_results_in_order() {
        for overlap in [false, true] {
            assert_eq!(join(overlap, || 6 * 7, || "b"), (42, "b"));
        }
    }

    #[test]
    fn join_without_overlap_runs_both_arms_on_the_caller() {
        let caller = thread::current().id();
        let (a, b) = join(false, || thread::current().id(), || thread::current().id());
        assert_eq!((a, b), (caller, caller));
    }

    #[test]
    fn join_resumes_an_arm_panic_after_both_arms_finish() {
        let overlapped = default_threads(2) > 1;
        let other_finished = AtomicBool::new(false);
        let finish_slowly = || {
            thread::sleep(Duration::from_millis(20));
            other_finished.store(true, Ordering::SeqCst);
        };

        let caught = std::panic::catch_unwind(|| join(true, finish_slowly, || panic!("arm b failed")));
        let payload = caught.expect_err("b's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"arm b failed"));
        assert!(other_finished.swap(false, Ordering::SeqCst), "a runs to completion first");

        let caught = std::panic::catch_unwind(|| join(true, || panic!("arm a failed"), finish_slowly));
        let payload = caught.expect_err("a's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"arm a failed"));
        // Inline (one core), a's panic skips b, as the serial code would.
        assert_eq!(other_finished.load(Ordering::SeqCst), overlapped, "overlapped, b finishes first");
    }
}
