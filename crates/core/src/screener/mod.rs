//! The screening variants.
//!
//! All variants implement [`Screener`] and produce the same
//! [`crate::ScreeningReport`], which is what makes the paper's accuracy
//! comparison (§V-D) a one-liner in the experiment harness.

pub mod gpu;
pub mod grid;
pub mod hybrid;
pub mod legacy;
pub mod sgp4_grid;
pub mod sieve;

mod grid_phase;

use crate::conjunction::ScreeningReport;
use kessler_orbits::KeplerElements;

/// A conjunction-screening algorithm.
pub trait Screener {
    /// Screen `population` over the configured span. Satellite ids are the
    /// indices into the slice.
    fn screen(&self, population: &[KeplerElements]) -> ScreeningReport;

    /// Variant label used in reports and benchmark output.
    fn label(&self) -> &str;
}

/// Run `f` on a dedicated rayon pool of `threads` workers when requested,
/// or on the global pool otherwise. This is how the thread-scaling
/// experiment (§V-C.2) sweeps worker counts.
///
/// Pool construction can fail (thread-spawn limits, exhausted resources).
/// A long-running service must not crash on that, so the failure degrades
/// to the global pool — the screen still runs, just not on the requested
/// worker count.
pub fn run_in_pool<R: Send>(threads: Option<usize>, f: impl FnOnce() -> R + Send) -> R {
    match threads {
        Some(t) => match rayon::ThreadPoolBuilder::new().num_threads(t).build() {
            Ok(pool) => pool.install(f),
            Err(err) => {
                eprintln!(
                    "kessler: could not build a {t}-thread rayon pool ({err}); \
                     falling back to the global pool"
                );
                f()
            }
        },
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_in_pool_respects_thread_count() {
        let inside = run_in_pool(Some(2), rayon::current_num_threads);
        assert_eq!(inside, 2);
    }

    #[test]
    fn run_in_pool_none_uses_global_pool() {
        let global = rayon::current_num_threads();
        let inside = run_in_pool(None, rayon::current_num_threads);
        assert_eq!(inside, global);
    }
}
