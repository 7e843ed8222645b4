//! A slot-fill thread pool for independent trials.
//!
//! Sweep points are independent runs — each simulates its own network
//! from its own seed — so running them on several threads is exact:
//! [`run_trials`] returns every result in trial order, whichever worker
//! ran it, and a sweep's bytes do not depend on its worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wormsim::EngineScratch;

/// Runs `count` independent trials across `workers` threads and
/// returns the results **in trial order**, regardless of which worker
/// ran what.
///
/// Each worker owns one [`EngineScratch`] for its whole lifetime (the
/// sweep hot-path discipline) and claims trials from a shared atomic
/// counter; results land in their trial's slot. With `workers == 1`
/// (or fewer than two trials) everything runs inline on the calling
/// thread — no threads are spawned.
///
/// This is the one slot-fill pool in the workspace: the
/// `chaossweep`/`telemetrysweep` sweeps and `engine_bench`'s scaling
/// family drive their trials through it.
///
/// # Panics
/// If `workers == 0`, or if a worker thread panics (the panic is
/// propagated by the thread scope).
pub fn run_trials<T, F>(workers: usize, count: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut EngineScratch) -> T + Sync,
{
    assert!(workers > 0, "a trial pool needs at least one worker");
    if workers == 1 || count <= 1 {
        let mut scratch = EngineScratch::new();
        return (0..count).map(|i| run(i, &mut scratch)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(count) {
            scope.spawn(|| {
                let mut scratch = EngineScratch::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let out = run(i, &mut scratch);
                    *slots[i].lock().expect("trial slot lock poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("trial slot lock poisoned")
                .expect("every trial slot is filled before the scope ends")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_trials_returns_results_in_trial_order() {
        for workers in [1, 2, 5] {
            let out = run_trials(workers, 17, |i, _scratch| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_trials(3, 0, |i, _| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = run_trials(0, 4, |i, _| i);
    }
}
