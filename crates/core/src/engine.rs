//! The shard-scheduling primitives of the parallel engine.
//!
//! [`ParallelConfig`] sizes the worker pool, [`shard_ranges`] cuts an
//! axis of independent work into contiguous ranges, and
//! [`map_indexed`] runs one task per range on a [`std::thread::scope`]
//! pool and returns the results in index order. No work queue
//! survives a call; the pool is scoped to it.
//!
//! Parallel measurement assembly
//! ([`crate::input::InferenceInput::assemble_parallel`]), snapshot
//! publishing, and the incremental pipeline
//! ([`crate::incremental::IncrementalPipeline`]) shard through them.
//! The incremental pipeline's full recompute is the one parallel
//! implementation of the five steps; its module docs say why each
//! step's merge is exact.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "OPEER_THREADS";

/// Execution configuration of the parallel engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads to run shard tasks on. `1` degenerates to an
    /// in-place sequential pass over the same shard structure.
    pub threads: usize,
}

impl ParallelConfig {
    /// A configuration with an explicit thread count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
        }
    }

    /// Reads `OPEER_THREADS`; absent or unparsable values fall back to
    /// the machine's available parallelism.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(Self::available_parallelism);
        ParallelConfig { threads }
    }

    /// The machine's available parallelism (≥ 1).
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: Self::available_parallelism(),
        }
    }
}

/// Splits `0..n` into at most `k` contiguous, nearly equal, non-empty
/// ranges (fewer when `n < k`; none when `n == 0`).
///
/// This and [`map_indexed`] are the engine's generic shard-scheduling
/// primitives: any workload whose items are independent along some axis
/// can cut that axis into ranges here, run them via [`map_indexed`],
/// and merge the per-range results in range order for a
/// schedule-independent total. Every parallel path of this crate
/// shards through this one function.
///
/// Delegates to [`opeer_measure::batch_ranges`] — the same cut points
/// the streaming epoch emitters use — so the partition logic cannot
/// drift between the shard scheduler and the batch layer.
pub fn shard_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    opeer_measure::batch_ranges(n, k)
}

/// Runs `f(0), …, f(n-1)` on up to `threads` scoped worker threads and
/// returns the results **in index order**, regardless of which worker
/// finished first. Workers pull task indices from a shared atomic
/// counter (dynamic load balancing) and deposit each result into its
/// own slot, so scheduling cannot perturb the output. With `threads <=
/// 1` it degenerates to a plain in-place map — no threads are spawned.
///
/// `f` must be pure with respect to shared state (reads are fine;
/// results must depend only on the index). Tasks need not be
/// homogeneous: heterogeneous workloads dispatch on the index (see the
/// parallel assembly fan-out in `crate::input`).
///
/// # Panics
///
/// If a shard task panics, the run aborts: no further task indices are
/// handed out (in-flight shards finish), and once the pool drains the
/// **original panic payload** of the lowest panicking index is re-raised
/// on the calling thread via [`std::panic::resume_unwind`]. Without
/// this, `std::thread::scope`'s implicit join would discard the payload
/// and double-panic with an opaque "a scoped thread panicked". Picking
/// the lowest index keeps the surfaced payload deterministic when
/// several shards fail at once.
pub fn map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                    Ok(r) => *slots[i].lock().expect("result slot poisoned") = Some(r),
                    Err(payload) => {
                        let mut first = panicked.lock().expect("panic slot poisoned");
                        if first.as_ref().is_none_or(|&(j, _)| i < j) {
                            *first = Some((i, payload));
                        }
                        drop(first);
                        // Stop dispatching: queued shards never start.
                        next.store(n, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
    });
    if let Some((_, payload)) = panicked.into_inner().expect("panic slot poisoned") {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition() {
        for n in [0usize, 1, 2, 7, 16, 100] {
            for k in [1usize, 2, 3, 8, 64] {
                let ranges = shard_ranges(n, k);
                if n == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert_eq!(ranges.first().map(|r| r.start), Some(0));
                let mut covered = 0;
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "gap in shard ranges");
                }
                for r in &ranges {
                    covered += r.len();
                    assert!(!r.is_empty(), "empty shard range");
                }
                assert_eq!(covered, n, "shards must cover 0..{n}");
                assert_eq!(ranges.last().map(|r| r.end), Some(n));
            }
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        let out = map_indexed(100, 8, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_shard_surfaces_original_payload() {
        // A shard panic must abort the run and re-raise the *original*
        // payload on the caller — not std's opaque "a scoped thread
        // panicked" join failure.
        let caught = std::panic::catch_unwind(|| {
            map_indexed(64, 4, |i| {
                if i == 7 {
                    std::panic::panic_any("shard 7 exploded");
                }
                i
            })
        });
        let payload = caught.expect_err("panic must propagate to the caller");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("shard 7 exploded")
        );

        // `panic!` with formatting surfaces as the formatted String.
        let caught = std::panic::catch_unwind(|| {
            map_indexed(16, 3, |i| {
                if i == 5 {
                    panic!("task {i} failed");
                }
                i * 2
            })
        });
        let payload = caught.expect_err("panic must propagate to the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("task 5 failed")
        );

        // The sequential degenerate path (threads <= 1) propagates too.
        let caught = std::panic::catch_unwind(|| {
            map_indexed(4, 1, |i| {
                if i == 2 {
                    std::panic::panic_any(1234usize);
                }
                i
            })
        });
        let payload = caught.expect_err("sequential panic must propagate");
        assert_eq!(payload.downcast_ref::<usize>().copied(), Some(1234));

        // When several shards panic, the lowest index's payload wins —
        // deterministic regardless of which worker hit its panic first.
        for _ in 0..8 {
            let caught = std::panic::catch_unwind(|| {
                map_indexed(32, 4, |i| {
                    if i % 2 == 1 {
                        std::panic::panic_any(i);
                    }
                    i
                })
            });
            let payload = caught.expect_err("panic must propagate");
            let idx = *payload.downcast_ref::<usize>().expect("usize payload");
            assert!(idx % 2 == 1, "payload from a non-panicking shard: {idx}");
            // Index 1 is dispatched before any worker can park the
            // counter, so the winning payload is always shard 1's.
            assert_eq!(idx, 1, "lowest panicking index must win");
        }

        // And the pool still works after all that.
        assert_eq!(map_indexed(10, 4, |i| i + 1), (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn env_config_parses_and_edge_cases() {
        // One test owns OPEER_THREADS for this whole binary: `set_var`
        // concurrent with `getenv` from another test thread would be a
        // libc-level data race, so no other test here may call
        // `from_env` (the cross-binary readers in tests/ run in their
        // own processes).
        let cfg = ParallelConfig::from_env();
        assert!(cfg.threads >= 1);
        assert_eq!(ParallelConfig::new(0).threads, 1);

        let auto = ParallelConfig::available_parallelism();
        let cases: &[(&str, usize)] = &[
            // 0 means "auto": fall back to available parallelism.
            ("0", auto),
            // Garbage and empties fall back too.
            ("banana", auto),
            ("", auto),
            ("-3", auto),
            ("1.5", auto),
            ("0x8", auto),
            // Whitespace around a valid number is tolerated.
            (" 6 ", 6),
            ("2", 2),
            ("64", 64),
        ];
        for &(raw, want) in cases {
            std::env::set_var(THREADS_ENV, raw);
            assert_eq!(
                ParallelConfig::from_env().threads,
                want,
                "OPEER_THREADS={raw:?}"
            );
        }
        std::env::remove_var(THREADS_ENV);
        assert_eq!(ParallelConfig::from_env().threads, auto, "unset");
    }
}
