//! Deterministic indexed parallel iterators.
//!
//! Every iterator here is **indexed**: it knows its exact length and can
//! produce a sequential iterator over any sub-range (`iter_range`). That is
//! what lets consumers split work into a binary tree of [`crate::join`]
//! calls whose shape depends **only on the input length** (and an optional
//! `with_min_len` hint) — never on the thread count or on scheduling. The
//! consequences:
//!
//! - `collect` writes item `i` to output position `i` (order-preserving);
//! - `sum`/`max` merge leaf results pairwise in index order, so float
//!   reductions are bit-identical at every thread count (including the
//!   `WG_THREADS=1` pool and [`crate::run_sequential`], which execute the
//!   *same* tree inline);
//! - mutable slice parallelism (`par_iter_mut`, `par_chunks_mut`) is sound
//!   because the driver hands every index range to exactly one leaf.
//!
//! The split granule is `max(len / MAX_LEAVES, min_len)`: at most
//! [`MAX_LEAVES`] leaves per op, so scheduling overhead stays bounded while
//! leaving enough slack for work stealing to balance uneven leaves.

use crate::pool;

/// Upper bound on the number of leaf tasks a single parallel op splits
/// into. A constant (never derived from the thread count) so the reduction
/// tree — and therefore every float result — is identical at any pool size.
pub const MAX_LEAVES: usize = 256;

fn grain_for(len: usize, min_len: usize) -> usize {
    len.div_ceil(MAX_LEAVES).max(min_len).max(1)
}

/// Ordered divide-and-conquer over `[start, start + len)`: split at the
/// midpoint down to `grain`, run leaves (possibly on other workers), merge
/// left-before-right. The tree shape is a pure function of `(len, grain)`.
fn map_reduce<T, L, M>(start: usize, len: usize, grain: usize, leaf: &L, merge: &M) -> T
where
    T: Send,
    L: Fn(usize, usize) -> T + Sync,
    M: Fn(T, T) -> T + Sync,
{
    if len <= grain {
        return leaf(start, len);
    }
    let half = len / 2;
    let (a, b) = pool::join(
        || map_reduce(start, half, grain, leaf, merge),
        || map_reduce(start + half, len - half, grain, leaf, merge),
    );
    merge(a, b)
}

/// A raw pointer that may cross threads (each leaf writes a disjoint
/// range).
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    // Method (not field) access, so closures capture the Sync wrapper
    // rather than the bare pointer under 2021 disjoint-capture rules.
    fn get(&self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------------
// The core trait
// ---------------------------------------------------------------------------

/// An indexed parallel iterator (rayon's `IndexedParallelIterator`, fused
/// with `ParallelIterator` — every iterator in this shim knows its length).
pub trait ParallelIterator: Sized + Send + Sync {
    /// The element type.
    type Item: Send;
    /// Sequential iterator over a sub-range of the items.
    type SeqIter<'s>: Iterator<Item = Self::Item>
    where
        Self: 's;

    /// Exact number of items.
    fn len(&self) -> usize;

    /// True when there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Minimum items per leaf task (see [`ParallelIterator::with_min_len`]).
    fn min_len_hint(&self) -> usize {
        1
    }

    /// Sequential iterator over items `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// Across all concurrently live iterators from one `self`, every index
    /// must be covered by **at most one** call (ranges disjoint). Mutable
    /// sources hand out `&mut` items on this basis.
    unsafe fn iter_range(&self, start: usize, len: usize) -> Self::SeqIter<'_>;

    // -- adapters ----------------------------------------------------------

    /// Map each item through `f` (applied on the leaf's thread).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Send + Sync,
    {
        Map { base: self, f }
    }

    /// Iterate two parallel iterators in lockstep (length = shorter).
    fn zip<B>(self, other: B) -> Zip<Self, B>
    where
        B: ParallelIterator,
    {
        Zip { a: self, b: other }
    }

    /// Pair each item with its global index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Require at least `min` items per leaf task. Raises the split granule
    /// for cheap elementwise kernels; still a pure function of the call
    /// site, so determinism is unaffected.
    fn with_min_len(self, min: usize) -> MinLen<Self> {
        MinLen {
            base: self,
            min: min.max(1),
        }
    }

    /// Group items into `Vec` chunks of (at most) `chunk_size`, preserving
    /// order; the chunks themselves are the new parallel items.
    fn chunks(self, chunk_size: usize) -> IterChunks<Self> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        IterChunks {
            base: self,
            size: chunk_size,
        }
    }

    // -- consumers ---------------------------------------------------------

    /// Run `f` on every item.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        let len = self.len();
        if len == 0 {
            return;
        }
        map_reduce(
            0,
            len,
            grain_for(len, self.min_len_hint()),
            &|s, n| {
                // SAFETY: map_reduce hands each index range to one leaf.
                for item in unsafe { self.iter_range(s, n) } {
                    f(item);
                }
            },
            &|(), ()| (),
        );
    }

    /// Collect into `C`, preserving item order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Sum the items with a deterministic pairwise tree reduction:
    /// sequential sums within leaves, leaf results merged in index order.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        let len = self.len();
        if len == 0 {
            return std::iter::empty::<Self::Item>().sum();
        }
        map_reduce(
            0,
            len,
            grain_for(len, self.min_len_hint()),
            // SAFETY: disjoint ranges per leaf.
            &|s, n| unsafe { self.iter_range(s, n) }.sum::<S>(),
            &|a, b| [a, b].into_iter().sum(),
        )
    }

    /// Largest item (last one on ties, like `Iterator::max`).
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        let len = self.len();
        if len == 0 {
            return None;
        }
        map_reduce(
            0,
            len,
            grain_for(len, self.min_len_hint()),
            // SAFETY: disjoint ranges per leaf.
            &|s, n| unsafe { self.iter_range(s, n) }.max(),
            &|a, b| match (a, b) {
                (Some(x), Some(y)) => Some(if y >= x { y } else { x }),
                (x, None) => x,
                (None, y) => y,
            },
        )
    }

    /// Number of items (exact, from the index).
    fn count(self) -> usize {
        self.len()
    }
}

/// Collections buildable from a parallel iterator (order-preserving).
pub trait FromParallelIterator<T: Send>: Sized {
    /// Build `Self`, placing item `i` at position `i`.
    fn from_par_iter<P>(par_iter: P) -> Self
    where
        P: ParallelIterator<Item = T>;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P>(par_iter: P) -> Self
    where
        P: ParallelIterator<Item = T>,
    {
        let len = par_iter.len();
        let mut out: Vec<T> = Vec::with_capacity(len);
        if len > 0 {
            let base = SendPtr(out.as_mut_ptr());
            map_reduce(
                0,
                len,
                grain_for(len, par_iter.min_len_hint()),
                &|s, n| {
                    // SAFETY: each leaf owns output slots [s, s+n), and the
                    // source yields exactly n items for an n-long range.
                    let mut dst = unsafe { base.get().add(s) };
                    let mut written = 0usize;
                    for item in unsafe { par_iter.iter_range(s, n) } {
                        debug_assert!(written < n, "source yielded too many items");
                        unsafe {
                            dst.write(item);
                            dst = dst.add(1);
                        }
                        written += 1;
                    }
                    debug_assert_eq!(written, n, "source yielded too few items");
                },
                &|(), ()| (),
            );
            // SAFETY: every slot in [0, len) was initialized exactly once.
            unsafe { out.set_len(len) };
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// `into_par_iter()` for owned collections and ranges.
pub trait IntoParallelIterator {
    /// The resulting parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The element type.
    type Item: Send;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// Parallel iterator over an integer range.
pub struct RangeParIter<T> {
    start: T,
    len: usize,
}

macro_rules! range_par_iter {
    ($($t:ty),* $(,)?) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Iter = RangeParIter<$t>;
            type Item = $t;
            fn into_par_iter(self) -> RangeParIter<$t> {
                let len = if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                };
                RangeParIter {
                    start: self.start,
                    len,
                }
            }
        }

        impl ParallelIterator for RangeParIter<$t> {
            type Item = $t;
            type SeqIter<'s>
                = std::ops::Range<$t>
            where
                Self: 's;

            fn len(&self) -> usize {
                self.len
            }

            unsafe fn iter_range(&self, start: usize, len: usize) -> std::ops::Range<$t> {
                let lo = self.start + start as $t;
                lo..lo + len as $t
            }
        }
    )*};
}

range_par_iter!(usize, u32, u64, i32, i64);

/// `par_iter()` / `par_chunks()` on shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T` items.
    fn par_iter(&self) -> SliceParIter<'_, T>;
    /// Parallel iterator over `&[T]` chunks of (at most) `chunk_size`.
    fn par_chunks(&self, chunk_size: usize) -> ChunksParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> SliceParIter<'_, T> {
        SliceParIter { slice: self }
    }

    fn par_chunks(&self, chunk_size: usize) -> ChunksParIter<'_, T> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ChunksParIter {
            slice: self,
            size: chunk_size,
        }
    }
}

/// `par_iter_mut()` / `par_chunks_mut()` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `&mut T` items.
    fn par_iter_mut(&mut self) -> SliceParIterMut<'_, T>;
    /// Parallel iterator over `&mut [T]` chunks of (at most) `chunk_size`.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMutParIter<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> SliceParIterMut<'_, T> {
        SliceParIterMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: std::marker::PhantomData,
        }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMutParIter<'_, T> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ChunksMutParIter {
            ptr: self.as_mut_ptr(),
            slice_len: self.len(),
            size: chunk_size,
            _marker: std::marker::PhantomData,
        }
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// See [`ParallelSlice::par_iter`].
pub struct SliceParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceParIter<'a, T> {
    type Item = &'a T;
    type SeqIter<'s>
        = std::slice::Iter<'a, T>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.slice.len()
    }

    unsafe fn iter_range(&self, start: usize, len: usize) -> std::slice::Iter<'a, T> {
        self.slice[start..start + len].iter()
    }
}

/// See [`ParallelSliceMut::par_iter_mut`].
pub struct SliceParIterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: stands for an exclusive slice borrow; leaves receive disjoint
// sub-slices (the iter_range contract), so sharing the pointer is sound.
unsafe impl<T: Send> Send for SliceParIterMut<'_, T> {}
unsafe impl<T: Send> Sync for SliceParIterMut<'_, T> {}

impl<'a, T: Send> ParallelIterator for SliceParIterMut<'a, T> {
    type Item = &'a mut T;
    type SeqIter<'s>
        = std::slice::IterMut<'a, T>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.len
    }

    unsafe fn iter_range(&self, start: usize, len: usize) -> std::slice::IterMut<'a, T> {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len).iter_mut()
    }
}

/// See [`ParallelSlice::par_chunks`].
pub struct ChunksParIter<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ChunksParIter<'a, T> {
    type Item = &'a [T];
    type SeqIter<'s>
        = std::slice::Chunks<'a, T>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    unsafe fn iter_range(&self, start: usize, len: usize) -> std::slice::Chunks<'a, T> {
        let lo = start * self.size;
        let hi = ((start + len) * self.size).min(self.slice.len());
        self.slice[lo..hi].chunks(self.size)
    }
}

/// See [`ParallelSliceMut::par_chunks_mut`].
pub struct ChunksMutParIter<'a, T> {
    ptr: *mut T,
    slice_len: usize,
    size: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: as for SliceParIterMut — disjoint chunk ranges per leaf.
unsafe impl<T: Send> Send for ChunksMutParIter<'_, T> {}
unsafe impl<T: Send> Sync for ChunksMutParIter<'_, T> {}

impl<'a, T: Send> ParallelIterator for ChunksMutParIter<'a, T> {
    type Item = &'a mut [T];
    type SeqIter<'s>
        = std::slice::ChunksMut<'a, T>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.slice_len.div_ceil(self.size)
    }

    unsafe fn iter_range(&self, start: usize, len: usize) -> std::slice::ChunksMut<'a, T> {
        let lo = (start * self.size).min(self.slice_len);
        let hi = ((start + len) * self.size).min(self.slice_len);
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo).chunks_mut(self.size)
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// See [`ParallelIterator::map`].
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, R, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R: Send,
    F: Fn(P::Item) -> R + Send + Sync,
{
    type Item = R;
    type SeqIter<'s>
        = std::iter::Map<P::SeqIter<'s>, &'s F>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint()
    }

    unsafe fn iter_range(&self, start: usize, len: usize) -> Self::SeqIter<'_> {
        self.base.iter_range(start, len).map(&self.f)
    }
}

/// See [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: ParallelIterator,
    B: ParallelIterator,
{
    type Item = (A::Item, B::Item);
    type SeqIter<'s>
        = std::iter::Zip<A::SeqIter<'s>, B::SeqIter<'s>>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn min_len_hint(&self) -> usize {
        self.a.min_len_hint().max(self.b.min_len_hint())
    }

    unsafe fn iter_range(&self, start: usize, len: usize) -> Self::SeqIter<'_> {
        self.a
            .iter_range(start, len)
            .zip(self.b.iter_range(start, len))
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<P> {
    base: P,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    type SeqIter<'s>
        = std::iter::Zip<std::ops::Range<usize>, P::SeqIter<'s>>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint()
    }

    unsafe fn iter_range(&self, start: usize, len: usize) -> Self::SeqIter<'_> {
        (start..start + len).zip(self.base.iter_range(start, len))
    }
}

/// See [`ParallelIterator::with_min_len`].
pub struct MinLen<P> {
    base: P,
    min: usize,
}

impl<P: ParallelIterator> ParallelIterator for MinLen<P> {
    type Item = P::Item;
    type SeqIter<'s>
        = P::SeqIter<'s>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint().max(self.min)
    }

    unsafe fn iter_range(&self, start: usize, len: usize) -> Self::SeqIter<'_> {
        self.base.iter_range(start, len)
    }
}

/// See [`ParallelIterator::chunks`].
pub struct IterChunks<P> {
    base: P,
    size: usize,
}

impl<P: ParallelIterator> ParallelIterator for IterChunks<P> {
    type Item = Vec<P::Item>;
    type SeqIter<'s>
        = ChunkSeq<'s, P>
    where
        Self: 's;

    fn len(&self) -> usize {
        self.base.len().div_ceil(self.size)
    }

    unsafe fn iter_range(&self, start: usize, len: usize) -> ChunkSeq<'_, P> {
        ChunkSeq {
            base: &self.base,
            size: self.size,
            next: start,
            end: start + len,
        }
    }
}

/// Sequential iterator over the chunks of an [`IterChunks`] range.
pub struct ChunkSeq<'s, P: ParallelIterator> {
    base: &'s P,
    size: usize,
    next: usize,
    end: usize,
}

impl<P: ParallelIterator> Iterator for ChunkSeq<'_, P> {
    type Item = Vec<P::Item>;

    fn next(&mut self) -> Option<Vec<P::Item>> {
        if self.next >= self.end {
            return None;
        }
        let lo = self.next * self.size;
        let hi = ((self.next + 1) * self.size).min(self.base.len());
        self.next += 1;
        // SAFETY: chunk index ranges are disjoint across leaves, so the
        // underlying item ranges are too.
        Some(unsafe { self.base.iter_range(lo, hi - lo) }.collect())
    }
}
