//! Offline stand-in for `rayon` 1.10: data-parallel iterators over slices
//! and integer ranges on a persistent worker pool.
//!
//! What the kessler crates use, and no more: `par_iter`, `par_iter_mut`,
//! `par_chunks_mut`, `into_par_iter` on ranges; `map`, `filter`,
//! `filter_map`, `flat_map_iter`, `zip`, `enumerate`, the two-closure
//! `fold`; `for_each`, `try_for_each`, `count`, `reduce`, ordered `collect`
//! into a `Vec` and `par_extend`; `ThreadPoolBuilder::num_threads` /
//! `ThreadPool::install` and `current_num_threads`.
//!
//! The execution model is simpler than rayon's work stealing. A parallel
//! call cuts its index space into a few chunks per thread and publishes
//! them as one job; the calling thread and the pool's workers claim chunks
//! from a shared counter until none are left. Results come back in chunk
//! order, so `collect` and `par_extend` keep the sequential order. A chunk
//! may itself make a parallel call (the screeners nest them): the thread
//! running it publishes a second job and works on it like any caller, so
//! no thread ever waits for work that nobody is executing.

pub mod iter;
mod pool;
pub mod slice;

pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelExtend, ParallelIterator,
    };
    pub use crate::slice::ParallelSliceMut;
}
