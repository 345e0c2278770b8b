//! A minimal rayon-style scoped worker pool.
//!
//! The build environment has no crates.io access, so instead of depending on
//! `rayon` the engine ships this small parallel-map built on
//! `std::thread::scope`: workers pull item indices from a shared atomic
//! counter (dynamic scheduling, so a few expensive entities cannot stall a
//! whole pre-assigned chunk), carry a mutable per-worker state — the engine
//! passes its [`relacc_core::chase::ChaseScratch`] — and results are returned
//! in input order regardless of completion order.  The incremental engine
//! hands it one item per dirty block, so an idle worker simply pulls the
//! next block.
//!
//! **`RELACC_POOL_THREADS`.**  When this environment variable holds a
//! positive integer, it overrides every caller-requested thread count
//! (still capped by the item count).  CI runs the whole test suite with
//! `RELACC_POOL_THREADS=1` so scheduling-dependent nondeterminism cannot
//! hide behind the default worker count.  The variable is read once per
//! process; values that are empty or fail to parse are ignored.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Parse a `RELACC_POOL_THREADS` value: a positive integer overrides the
/// requested worker count, anything else (unset, empty, unparsable, zero)
/// means "no override".
pub fn parse_pool_override(raw: Option<&str>) -> Option<usize> {
    let raw = raw?.trim();
    raw.parse::<usize>().ok().filter(|&n| n > 0)
}

/// The process-wide `RELACC_POOL_THREADS` override, read once.
fn pool_override() -> Option<usize> {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    *OVERRIDE
        .get_or_init(|| parse_pool_override(std::env::var("RELACC_POOL_THREADS").ok().as_deref()))
}

/// Number of worker threads to use for `requested` (0 = one per available
/// core, capped by the number of items).  A `RELACC_POOL_THREADS` override
/// takes precedence over `requested` (see the module docs).
pub fn effective_threads(requested: usize, items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = match pool_override() {
        Some(forced) => forced,
        None if requested == 0 => hw,
        None => requested,
    };
    threads.clamp(1, items.max(1))
}

/// Map `f` over `items` on `threads` workers, each carrying a mutable state
/// created by `make_state`.  Returns results in input order.
///
/// `f` must be deterministic per item for batch output to be reproducible —
/// the scheduling order is not deterministic, the output order is.
///
/// **Panic propagation.**  If `f` (or `make_state`) panics on a worker, the
/// pool stops handing out further items, waits for the in-flight ones, and
/// re-raises the **first** panic payload unchanged — the caller sees the
/// original message, exactly as in the sequential path.  (Letting the panic
/// unwind the worker thread instead would reach `std::thread::scope`'s join,
/// which replaces the payload with an opaque "a scoped thread panicked"; and
/// a panic must never poison the shared result mutex into killing the
/// *other* workers with a misleading secondary panic, so every lock
/// acquisition recovers from poisoning via
/// [`std::sync::PoisonError::into_inner`].)
pub fn par_map_with<T, S, R, I, F>(items: &[T], threads: usize, make_state: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = effective_threads(threads, items.len());
    if threads <= 1 {
        let mut state = make_state();
        return items
            .iter()
            .enumerate()
            .map(|(idx, item)| f(&mut state, idx, item))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let record_panic = |payload: Box<dyn Any + Send>| {
        let mut slot = first_panic.lock().unwrap_or_else(|p| p.into_inner());
        slot.get_or_insert(payload);
        // stop handing out work; in-flight items finish
        next.store(items.len(), Ordering::Relaxed);
    };
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = match catch_unwind(AssertUnwindSafe(&make_state)) {
                    Ok(state) => state,
                    Err(payload) => {
                        record_panic(payload);
                        return;
                    }
                };
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= items.len() {
                        break;
                    }
                    match catch_unwind(AssertUnwindSafe(|| f(&mut state, idx, &items[idx]))) {
                        Ok(result) => local.push((idx, result)),
                        Err(payload) => {
                            record_panic(payload);
                            break;
                        }
                    }
                }
                collected
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .extend(local);
            });
        }
    });

    if let Some(payload) = first_panic.into_inner().unwrap_or_else(|p| p.into_inner()) {
        resume_unwind(payload);
    }
    let mut indexed = collected.into_inner().unwrap_or_else(|p| p.into_inner());
    indexed.sort_by_key(|(idx, _)| *idx);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..500).collect();
        let out = par_map_with(
            &items,
            8,
            || 0usize,
            |state, idx, item| {
                *state += 1;
                assert_eq!(idx, *item);
                item * 2
            },
        );
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_matches_parallel() {
        let items: Vec<i64> = (0..97).collect();
        let seq = par_map_with(&items, 1, || (), |_, _, i| i * i);
        let par = par_map_with(&items, 4, || (), |_, _, i| i * i);
        assert_eq!(seq, par);
    }

    #[test]
    fn thread_resolution() {
        // the suite may legitimately run under a RELACC_POOL_THREADS override
        // (the CI single-worker matrix leg); requested counts only decide the
        // pool size when no override is active
        match parse_pool_override(std::env::var("RELACC_POOL_THREADS").ok().as_deref()) {
            None => {
                assert_eq!(effective_threads(3, 100), 3);
                assert_eq!(effective_threads(8, 2), 2);
            }
            Some(forced) => {
                assert_eq!(effective_threads(3, 100), forced.min(100));
                assert_eq!(effective_threads(8, 2), forced.min(2));
            }
        }
        assert_eq!(effective_threads(1, 0), 1);
        assert!(effective_threads(0, 1000) >= 1);
    }

    /// Regression: a worker panic used to unwind straight through the scope
    /// join, which buries the original payload under the generic "a scoped
    /// thread panicked" message (and would report lock poisoning to every
    /// other worker if the panic escaped while the result lock was held).
    /// The pool must re-raise the *original* message.
    #[test]
    fn worker_panic_propagates_the_original_message() {
        let items: Vec<usize> = (0..200).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(
                &items,
                4,
                || (),
                |_, _, &item| {
                    if item == 13 {
                        panic!("entity 13 exploded");
                    }
                    item
                },
            )
        }))
        .expect_err("a worker panic must propagate to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string payload>".into());
        assert!(
            message.contains("entity 13 exploded"),
            "the original panic message must survive the pool, got: {message}"
        );
    }

    /// A panic in `make_state` (per-worker state construction) is recovered
    /// the same way as one in `f`: the original payload reaches the caller.
    #[test]
    fn make_state_panic_propagates_the_original_message() {
        let items: Vec<usize> = (0..32).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(
                &items,
                4,
                || -> usize { panic!("state construction failed") },
                |state, _, &item| item + *state,
            )
        }))
        .expect_err("a make_state panic must propagate to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-string payload>");
        assert!(
            message.contains("state construction failed"),
            "got: {message}"
        );
    }

    /// When several workers panic, the caller still gets exactly one of the
    /// original payloads (the first one recorded), never a poisoning error.
    #[test]
    fn concurrent_panics_surface_one_original_payload() {
        let items: Vec<usize> = (0..64).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(
                &items,
                8,
                || (),
                |_, _, &item| -> usize { panic!("boom at {item}") },
            )
        }))
        .expect_err("panics must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string payload>".into());
        assert!(message.starts_with("boom at"), "got: {message}");
    }

    #[test]
    fn pool_override_parses_only_positive_integers() {
        assert_eq!(parse_pool_override(None), None);
        assert_eq!(parse_pool_override(Some("")), None);
        assert_eq!(parse_pool_override(Some("  ")), None);
        assert_eq!(parse_pool_override(Some("0")), None);
        assert_eq!(parse_pool_override(Some("abc")), None);
        assert_eq!(parse_pool_override(Some("-4")), None);
        assert_eq!(parse_pool_override(Some("1")), Some(1));
        assert_eq!(parse_pool_override(Some(" 16 ")), Some(16));
    }
}
