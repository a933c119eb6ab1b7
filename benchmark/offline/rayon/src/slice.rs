//! Parallel iterators over slices.

use crate::iter::{IndexedParallelIterator, IntoParallelIterator, ParallelIterator};
use std::marker::PhantomData;
use std::ops::Range;

/// `par_iter()` over `&[T]`.
pub struct Iter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for Iter<'data, T> {
    type Item = &'data T;
    type Seq<'a>
        = std::slice::Iter<'data, T>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.slice.len()
    }

    unsafe fn seq(&self, range: Range<usize>) -> std::slice::Iter<'data, T> {
        self.slice[range].iter()
    }
}

impl<T: Sync> IndexedParallelIterator for Iter<'_, T> {}

impl<'data, T: Sync> IntoParallelIterator for &'data [T] {
    type Iter = Iter<'data, T>;
    type Item = &'data T;

    fn into_par_iter(self) -> Iter<'data, T> {
        Iter { slice: self }
    }
}

impl<'data, T: Sync> IntoParallelIterator for &'data Vec<T> {
    type Iter = Iter<'data, T>;
    type Item = &'data T;

    fn into_par_iter(self) -> Iter<'data, T> {
        Iter { slice: self }
    }
}

/// A `&'data mut [T]` taken apart so that disjoint parts can be handed to
/// different threads through a shared `&self`.
struct RawSliceMut<'data, T> {
    ptr: *mut T,
    len: usize,
    marker: PhantomData<&'data mut [T]>,
}

// SAFETY: this is a `&mut [T]` in pieces; sending it or its parts to
// another thread moves `&mut T`s there, which needs `T: Send`.
unsafe impl<T: Send> Send for RawSliceMut<'_, T> {}
// SAFETY: through `&self` the only access is `part`, whose contract keeps
// the handed-out parts disjoint; each part is a `&mut [T]` used by one
// thread, which needs `T: Send`.
unsafe impl<T: Send> Sync for RawSliceMut<'_, T> {}

impl<'data, T> RawSliceMut<'data, T> {
    fn new(slice: &'data mut [T]) -> RawSliceMut<'data, T> {
        RawSliceMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            marker: PhantomData,
        }
    }

    /// # Safety
    /// Over the life of `self`, no element may be covered by two parts.
    unsafe fn part(&self, range: Range<usize>) -> &'data mut [T] {
        assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: the range is inside the original slice (asserted), the
        // original `&'data mut` borrow is held by `marker` for 'data, and
        // the caller guarantees no other part overlaps this one.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }
}

/// `par_iter_mut()` over `&mut [T]`.
pub struct IterMut<'data, T> {
    raw: RawSliceMut<'data, T>,
}

impl<'data, T: Send> ParallelIterator for IterMut<'data, T> {
    type Item = &'data mut T;
    type Seq<'a>
        = std::slice::IterMut<'data, T>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.raw.len
    }

    unsafe fn seq(&self, range: Range<usize>) -> std::slice::IterMut<'data, T> {
        // SAFETY: index ranges never overlap (this function's contract),
        // so neither do the element ranges.
        unsafe { self.raw.part(range) }.iter_mut()
    }
}

impl<T: Send> IndexedParallelIterator for IterMut<'_, T> {}

impl<'data, T: Send> IntoParallelIterator for &'data mut [T] {
    type Iter = IterMut<'data, T>;
    type Item = &'data mut T;

    fn into_par_iter(self) -> IterMut<'data, T> {
        IterMut {
            raw: RawSliceMut::new(self),
        }
    }
}

impl<'data, T: Send> IntoParallelIterator for &'data mut Vec<T> {
    type Iter = IterMut<'data, T>;
    type Item = &'data mut T;

    fn into_par_iter(self) -> IterMut<'data, T> {
        self.as_mut_slice().into_par_iter()
    }
}

/// `par_chunks_mut(size)`: index `i` is elements `i·size .. (i+1)·size`,
/// the last chunk possibly shorter.
pub struct ChunksMut<'data, T> {
    raw: RawSliceMut<'data, T>,
    chunk_size: usize,
}

impl<'data, T: Send> ParallelIterator for ChunksMut<'data, T> {
    type Item = &'data mut [T];
    type Seq<'a>
        = std::slice::ChunksMut<'data, T>
    where
        Self: 'a;

    fn base_len(&self) -> usize {
        self.raw.len.div_ceil(self.chunk_size)
    }

    unsafe fn seq(&self, range: Range<usize>) -> std::slice::ChunksMut<'data, T> {
        let start = range.start * self.chunk_size;
        let end = (range.end * self.chunk_size).min(self.raw.len);
        // SAFETY: disjoint chunk-index ranges cover disjoint elements.
        // `start` is a multiple of the chunk size, so re-chunking the part
        // gives the same chunks the whole slice would.
        unsafe { self.raw.part(start..end.max(start)) }.chunks_mut(self.chunk_size)
    }
}

impl<T: Send> IndexedParallelIterator for ChunksMut<'_, T> {}

pub trait ParallelSliceMut<T: Send> {
    fn as_parallel_slice_mut(&mut self) -> &mut [T];

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ChunksMut {
            raw: RawSliceMut::new(self.as_parallel_slice_mut()),
            chunk_size,
        }
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self
    }
}
