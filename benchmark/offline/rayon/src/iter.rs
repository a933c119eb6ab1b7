//! Parallel iterators.
//!
//! Every parallel iterator here is a recipe over an index space
//! `0..base_len()`: given a sub-range it produces the ordinary sequential
//! iterator over that part ([`ParallelIterator::seq`]). Adaptors wrap the
//! sequential iterator in the matching `std::iter` adaptor; terminal
//! operations cut the index space into chunks, run one sequential iterator
//! per chunk on the pool, and combine the per-chunk results in chunk order.

use crate::pool::current_registry;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Chunks cut per pool thread. More than one, so a thread that draws cheap
/// chunks (sparse cells, pairs the first filter rejects) goes back for more
/// instead of idling until the slowest thread ends.
const CHUNKS_PER_THREAD: usize = 8;

/// Runs `per_chunk` over every chunk of `iter`'s index space on the current
/// pool and returns the results in chunk order.
fn drive<I, R>(iter: &I, per_chunk: impl Fn(I::Seq<'_>) -> R + Sync) -> Vec<R>
where
    I: ParallelIterator,
    R: Send,
{
    let len = iter.base_len();
    let registry = current_registry();
    let chunks = len.min(registry.threads() * CHUNKS_PER_THREAD);
    let slots: Vec<Mutex<Option<R>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    registry.run(chunks, &|chunk| {
        // Chunk c covers [c·len/chunks, (c+1)·len/chunks): disjoint, and
        // together exactly 0..len.
        let range = chunk * len / chunks..(chunk + 1) * len / chunks;
        // SAFETY: `run` calls this closure once per chunk index, and the
        // ranges of different chunks do not overlap.
        let result = per_chunk(unsafe { iter.seq(range) });
        *slots[chunk].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("run returns after every chunk has stored its result")
        })
        .collect()
}

pub trait ParallelIterator: Sized + Sync {
    type Item: Send;

    /// The sequential iterator over one part of the index space.
    type Seq<'a>: Iterator<Item = Self::Item>
    where
        Self: 'a;

    /// Size of the index space (not necessarily the number of items:
    /// `filter` and `flat_map_iter` change that).
    fn base_len(&self) -> usize;

    /// # Safety
    /// Over the life of `self`, no index may be covered by two ranges:
    /// iterators over `&mut` data hand out each element once.
    unsafe fn seq(&self, range: Range<usize>) -> Self::Seq<'_>;

    // ---- adaptors ----

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    fn filter<P>(self, predicate: P) -> Filter<Self, P>
    where
        P: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter {
            base: self,
            predicate,
        }
    }

    fn filter_map<R, F>(self, f: F) -> FilterMap<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> Option<R> + Sync + Send,
    {
        FilterMap { base: self, f }
    }

    /// Maps each item to a sequential iterator and flattens.
    fn flat_map_iter<U, F>(self, f: F) -> FlatMapIter<Self, F>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(Self::Item) -> U + Sync + Send,
    {
        FlatMapIter { base: self, f }
    }

    /// Folds each chunk into one accumulator; the result is a parallel
    /// iterator over the accumulators (rayon's two-closure `fold`).
    fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> Fold<Self, ID, F>
    where
        T: Send,
        ID: Fn() -> T + Sync + Send,
        F: Fn(T, Self::Item) -> T + Sync + Send,
    {
        Fold {
            base: self,
            identity,
            fold_op,
        }
    }

    // ---- terminal operations ----

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        drive(&self, |seq| seq.for_each(&f));
    }

    /// Stops handing out new items after the first error and returns it.
    fn try_for_each<F, E>(self, f: F) -> Result<(), E>
    where
        F: Fn(Self::Item) -> Result<(), E> + Sync + Send,
        E: Send,
    {
        let failed = AtomicBool::new(false);
        drive(&self, |mut seq| {
            seq.try_for_each(|item| {
                // Relaxed: the flag only saves work; the error itself
                // travels through `drive`'s result slots.
                if failed.load(Ordering::Relaxed) {
                    return Ok(());
                }
                f(item).inspect_err(|_| failed.store(true, Ordering::Relaxed))
            })
        })
        .into_iter()
        .collect()
    }

    fn count(self) -> usize {
        drive(&self, |seq| seq.count()).into_iter().sum()
    }

    /// Reduces every chunk from `identity()`, then the chunk results in
    /// order. `op` must be associative, as in rayon.
    fn reduce<ID, F>(self, identity: ID, op: F) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        F: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        drive(&self, |seq| seq.fold(identity(), &op))
            .into_iter()
            .fold(identity(), &op)
    }

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

/// A parallel iterator with exactly one item per index, in index order.
pub trait IndexedParallelIterator: ParallelIterator {
    fn zip<Z>(self, other: Z) -> Zip<Self, Z::Iter>
    where
        Z: IntoParallelIterator,
        Z::Iter: IndexedParallelIterator,
    {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }
}

pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;

    fn into_par_iter(self) -> Self::Iter;
}

impl<I: ParallelIterator> IntoParallelIterator for I {
    type Iter = I;
    type Item = I::Item;

    fn into_par_iter(self) -> I {
        self
    }
}

/// `data.par_iter()` for anything whose shared reference is
/// `IntoParallelIterator`.
pub trait IntoParallelRefIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;

    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefIterator<'data> for I
where
    &'data I: IntoParallelIterator,
{
    type Iter = <&'data I as IntoParallelIterator>::Iter;
    type Item = <&'data I as IntoParallelIterator>::Item;

    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// `data.par_iter_mut()` for anything whose unique reference is
/// `IntoParallelIterator`.
pub trait IntoParallelRefMutIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;

    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, I: 'data + ?Sized> IntoParallelRefMutIterator<'data> for I
where
    &'data mut I: IntoParallelIterator,
{
    type Iter = <&'data mut I as IntoParallelIterator>::Iter;
    type Item = <&'data mut I as IntoParallelIterator>::Item;

    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<I: IntoParallelIterator<Item = T>>(iter: I) -> Self;
}

/// Items arrive in the order a sequential iterator would give them.
impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: IntoParallelIterator<Item = T>>(iter: I) -> Vec<T> {
        let mut out = Vec::new();
        out.par_extend(iter);
        out
    }
}

pub trait ParallelExtend<T: Send> {
    fn par_extend<I: IntoParallelIterator<Item = T>>(&mut self, iter: I);
}

/// Appends in the order a sequential iterator would.
impl<T: Send> ParallelExtend<T> for Vec<T> {
    fn par_extend<I: IntoParallelIterator<Item = T>>(&mut self, iter: I) {
        let parts = drive(&iter.into_par_iter(), |seq| seq.collect::<Vec<T>>());
        self.reserve(parts.iter().map(Vec::len).sum());
        for part in parts {
            self.extend(part);
        }
    }
}

// ---- sources: integer ranges -------------------------------------------------

/// `(a..b).into_par_iter()`. A wrapper, not an impl on `Range` itself: a
/// type that is both `Iterator` and `ParallelIterator` makes every `map`
/// and `zip` on it ambiguous.
pub struct RangeIter<T> {
    range: Range<T>,
}

macro_rules! range_source {
    ($($t:ty),*) => {$(
        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;
            type Seq<'a> = Range<$t>;

            fn base_len(&self) -> usize {
                if self.range.end > self.range.start {
                    usize::try_from(self.range.end - self.range.start)
                        .expect("range longer than the address space")
                } else {
                    0
                }
            }

            unsafe fn seq(&self, part: Range<usize>) -> Range<$t> {
                // `part` lies within 0..base_len(), so both casts and sums
                // stay within start..=end.
                self.range.start + part.start as $t..self.range.start + part.end as $t
            }
        }

        impl IndexedParallelIterator for RangeIter<$t> {}

        impl IntoParallelIterator for Range<$t> {
            type Iter = RangeIter<$t>;
            type Item = $t;

            fn into_par_iter(self) -> RangeIter<$t> {
                RangeIter { range: self }
            }
        }
    )*};
}
range_source!(u32, u64, usize);

// ---- adaptors ---------------------------------------------------------------

pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Send,
{
    type Item = R;
    type Seq<'a>
        = std::iter::Map<I::Seq<'a>, &'a F>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq(&self, range: Range<usize>) -> Self::Seq<'_> {
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { self.base.seq(range) }.map(&self.f)
    }
}

impl<I, R, F> IndexedParallelIterator for Map<I, F>
where
    I: IndexedParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync + Send,
{
}

pub struct Filter<I, P> {
    base: I,
    predicate: P,
}

impl<I, P> ParallelIterator for Filter<I, P>
where
    I: ParallelIterator,
    P: Fn(&I::Item) -> bool + Sync + Send,
{
    type Item = I::Item;
    type Seq<'a>
        = std::iter::Filter<I::Seq<'a>, &'a P>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq(&self, range: Range<usize>) -> Self::Seq<'_> {
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { self.base.seq(range) }.filter(&self.predicate)
    }
}

pub struct FilterMap<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for FilterMap<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> Option<R> + Sync + Send,
{
    type Item = R;
    type Seq<'a>
        = std::iter::FilterMap<I::Seq<'a>, &'a F>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq(&self, range: Range<usize>) -> Self::Seq<'_> {
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { self.base.seq(range) }.filter_map(&self.f)
    }
}

pub struct FlatMapIter<I, F> {
    base: I,
    f: F,
}

impl<I, U, F> ParallelIterator for FlatMapIter<I, F>
where
    I: ParallelIterator,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(I::Item) -> U + Sync + Send,
{
    type Item = U::Item;
    type Seq<'a>
        = std::iter::FlatMap<I::Seq<'a>, U, &'a F>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq(&self, range: Range<usize>) -> Self::Seq<'_> {
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { self.base.seq(range) }.flat_map(&self.f)
    }
}

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
    type Item = (A::Item, B::Item);
    type Seq<'a>
        = std::iter::Zip<A::Seq<'a>, B::Seq<'a>>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.a.base_len().min(self.b.base_len())
    }

    unsafe fn seq(&self, range: Range<usize>) -> Self::Seq<'_> {
        // SAFETY: both sides are indexed, so the same range names the same
        // positions in each; the caller's contract covers both.
        unsafe { self.a.seq(range.clone()).zip(self.b.seq(range)) }
    }
}

impl<A, B> IndexedParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
}

pub struct Enumerate<I> {
    base: I,
}

impl<I: IndexedParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    type Seq<'a>
        = std::iter::Zip<Range<usize>, I::Seq<'a>>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq(&self, range: Range<usize>) -> Self::Seq<'_> {
        // SAFETY: the caller's contract is passed through unchanged. The
        // base is indexed, so item k of the part is index range.start + k.
        range.clone().zip(unsafe { self.base.seq(range) })
    }
}

impl<I: IndexedParallelIterator> IndexedParallelIterator for Enumerate<I> {}

pub struct Fold<I, ID, F> {
    base: I,
    identity: ID,
    fold_op: F,
}

impl<I, T, ID, F> ParallelIterator for Fold<I, ID, F>
where
    I: ParallelIterator,
    T: Send,
    ID: Fn() -> T + Sync + Send,
    F: Fn(T, I::Item) -> T + Sync + Send,
{
    type Item = T;
    type Seq<'a>
        = std::iter::Once<T>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.base.base_len()
    }

    unsafe fn seq(&self, range: Range<usize>) -> Self::Seq<'_> {
        // SAFETY: the caller's contract is passed through unchanged.
        let part = unsafe { self.base.seq(range) };
        std::iter::once(part.fold((self.identity)(), &self.fold_op))
    }
}
