//! Torture tests for the pool's failure modes: panicking tasks,
//! oversubscription, nesting, and reuse after a panic. These pin the
//! "panic hygiene" half of the runtime contract — a misbehaving task may
//! fail its caller, but it must never deadlock the pool, poison it for
//! the next dispatch, or skip work silently.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use osa_runtime::{LaneSlots, ThreadPool};

/// A panic on a worker lane reaches the caller as a panic (not a hang),
/// and the pool keeps working afterwards — no poisoned mutex, no stuck
/// epoch counter.
#[test]
fn worker_panic_propagates_and_pool_survives() {
    let pool = ThreadPool::new(4);
    for round in 0..3 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(64, |_, range| {
                // Index 40 lands on a worker lane (not lane 0) for 4 lanes.
                if range.contains(&40) {
                    panic!("injected failure, round {round}");
                }
            });
        }));
        let msg = *result
            .expect_err("worker panic must propagate")
            .downcast::<String>()
            .expect("panic payload");
        assert!(
            msg.contains("pool worker(s) panicked"),
            "unexpected payload: {msg}"
        );
    }
    // The pool is still fully functional after three failed epochs.
    let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
    pool.parallel_for(hits.len(), |_, range| {
        for i in range {
            hits[i].fetch_add(1, Ordering::Relaxed);
        }
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

/// A panic on the caller's own lane (lane 0) propagates with the original
/// payload, after the workers have drained.
#[test]
fn caller_lane_panic_keeps_original_payload() {
    let pool = ThreadPool::new(3);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.parallel_for(30, |lane, _| {
            if lane == 0 {
                panic!("lane zero says no");
            }
        });
    }));
    let msg = *result.expect_err("must panic").downcast::<&str>().unwrap();
    assert_eq!(msg, "lane zero says no");
    pool.parallel_for(8, |_, _| {}); // still usable
}

/// Heavy oversubscription (many more workers than this container's
/// cores) must neither deadlock nor change results.
#[test]
fn oversubscribed_pool_matches_inline_results() {
    let inline = ThreadPool::new(1);
    let wide = ThreadPool::new(32);
    let sum = |pool: &ThreadPool| {
        pool.parallel_reduce(
            10_000,
            97,
            |r| r.map(|i| (i as f32).sqrt()).fold(0.0f32, |a, b| a + b),
            |a, b| a + b,
        )
        .unwrap()
    };
    assert_eq!(sum(&inline).to_bits(), sum(&wide).to_bits());
}

/// `parallel_for` from inside a pool task runs inline on the current
/// lane: same results, no deadlock on the dispatch lock.
#[test]
fn nested_parallel_for_degrades_to_inline() {
    let pool = ThreadPool::new(4);
    let outer_hits = AtomicUsize::new(0);
    let inner_hits = AtomicUsize::new(0);
    pool.parallel_for(8, |_, outer| {
        outer_hits.fetch_add(outer.len(), Ordering::Relaxed);
        // Nested dispatch on the same pool: must run inline as lane 0
        // over the full inner range.
        pool.parallel_for(5, |lane, inner| {
            assert_eq!(lane, 0, "nested dispatch must be inline");
            assert_eq!(inner, 0..5, "nested dispatch must not be chunked");
            inner_hits.fetch_add(inner.len(), Ordering::Relaxed);
        });
    });
    assert_eq!(outer_hits.load(Ordering::Relaxed), 8);
    // One full inner pass per outer chunk; 8 outer items over 4 lanes
    // can be chunked 4 ways at most, but every chunk runs the inner loop
    // once, so the count is 5 × (number of non-empty outer chunks).
    let inner = inner_hits.load(Ordering::Relaxed);
    assert!(
        inner.is_multiple_of(5) && (5..=40).contains(&inner),
        "inner={inner}"
    );
}

/// Per-lane scratch slots hand every lane its own buffer with no
/// cross-lane aliasing, and release cleanly after a panicked epoch.
#[test]
fn lane_slots_survive_task_panics() {
    let pool = ThreadPool::new(4);
    let slots = LaneSlots::new(4, |_| Vec::<usize>::new());
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.parallel_for(16, |lane, range| {
            let mut scratch = slots.borrow(lane);
            scratch.extend(range.clone());
            if range.contains(&7) {
                panic!("mid-epoch failure");
            }
        });
    }));
    assert!(result.is_err());
    // Guards were dropped during unwinding: every slot is borrowable
    // again and together they still cover each visited index at most once.
    let mut seen = [0u8; 16];
    for lane in 0..4 {
        for &i in slots.borrow(lane).iter() {
            seen[i] += 1;
        }
    }
    assert!(seen.iter().all(|&c| c <= 1));
}

/// Several threads dispatching to one pool at once — the situation of
/// libtest threads sharing `global()` — must serialize whole epochs:
/// every dispatch visits each of its indices exactly once, and none
/// hangs waiting on another dispatch's workers.
#[test]
fn concurrent_dispatchers_share_one_pool() {
    let pool = ThreadPool::new(4);
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for caller in 0..4 {
            let (pool, start) = (&pool, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..500 {
                    let n = 16 + (caller * 7 + round) % 48;
                    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                    pool.parallel_for(n, |_, range| {
                        for i in range {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                    assert!(
                        hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                        "caller {caller}, round {round}: an index was skipped or repeated"
                    );
                }
            });
        }
    });
}

/// Per-thread pools next to the shared global pool: each thread sweeps
/// its own pool while also dispatching to `global()`.
#[test]
fn per_thread_pools_run_beside_the_global_pool() {
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        for caller in 0..3 {
            let start = &start;
            scope.spawn(move || {
                let own = ThreadPool::new(2 + caller);
                start.wait();
                for round in 0..200 {
                    let map = |r: std::ops::Range<usize>| r.sum::<usize>();
                    let n = 50 + round;
                    let want = n * (n - 1) / 2;
                    assert_eq!(own.parallel_reduce(n, 7, map, |a, b| a + b), Some(want));
                    let global = osa_runtime::global();
                    assert_eq!(global.parallel_reduce(n, 5, map, |a, b| a + b), Some(want));
                }
            });
        }
    });
}
