//! Deterministic indexed parallel iterators.
//!
//! Every iterator here is **indexed**: it knows its exact length, splits
//! *by value* into two iterators over `[0, mid)` and `[mid, len)`
//! (`split_at`), and turns into a sequential iterator over what it holds
//! (`into_seq`). That is what lets consumers split work into a binary tree
//! of [`crate::join`] calls whose shape depends **only on the input
//! length** (and an optional `with_min_len` hint) — never on the thread
//! count or on scheduling. The consequences:
//!
//! - `collect` writes item `i` to output position `i` (order-preserving);
//! - `sum`/`max` merge leaf results pairwise in index order, so float
//!   reductions are bit-identical at every thread count (including the
//!   `WG_THREADS=1` pool and [`crate::run_sequential`], which execute the
//!   *same* tree inline);
//! - mutable slice parallelism (`par_iter_mut`, `par_chunks_mut`,
//!   `par_ranges_mut`) is sound by construction: a mutable source splits
//!   its slice with `split_at_mut`, so every leaf holds its own borrow and
//!   the compiler checks that no two leaves share an element.
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

/// Ordered divide-and-conquer: split `iter` at its midpoint down to
/// `grain`, run leaves (possibly on other workers), merge left-before-right.
/// The tree shape is a pure function of `(len, grain)`.
fn drive<P, T, L, M>(iter: P, grain: usize, leaf: &L, merge: &M) -> T
where
    P: ParallelIterator,
    T: Send,
    L: Fn(P) -> T + Sync,
    M: Fn(T, T) -> T + Sync,
{
    let len = iter.len();
    if len <= grain {
        return leaf(iter);
    }
    let (a, b) = iter.split_at(len / 2);
    let (a, b) = pool::join(
        || drive(a, grain, leaf, merge),
        || drive(b, grain, leaf, merge),
    );
    merge(a, b)
}

/// [`drive`] at the iterator's own granule.
fn drive_all<P, T, L, M>(iter: P, leaf: &L, merge: &M) -> T
where
    P: ParallelIterator,
    T: Send,
    L: Fn(P) -> T + Sync,
    M: Fn(T, T) -> T + Sync,
{
    let grain = grain_for(iter.len(), iter.min_len_hint());
    drive(iter, grain, leaf, merge)
}

// ---------------------------------------------------------------------------
// The core trait
// ---------------------------------------------------------------------------

/// An indexed parallel iterator (rayon's `IndexedParallelIterator`, fused
/// with `ParallelIterator` — every iterator in this shim knows its length).
pub trait ParallelIterator: Sized + Send {
    /// The element type.
    type Item: Send;
    /// Sequential iterator over the items.
    type Seq: Iterator<Item = Self::Item>;

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

    /// Split into the items `[0, mid)` and `[mid, len)`; `mid <= len`.
    fn split_at(self, mid: usize) -> (Self, Self);

    /// Sequential iterator over every item, in order.
    fn into_seq(self) -> Self::Seq;

    // -- adapters ----------------------------------------------------------

    /// Map each item through `f` (applied on the leaf's thread; each split
    /// carries its own clone of `f`).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Send + Clone,
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
        Enumerate {
            base: self,
            offset: 0,
        }
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

    // -- consumers ---------------------------------------------------------

    /// Run `f` on every item.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        drive_all(
            self,
            &|leaf: Self| leaf.into_seq().for_each(&f),
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
        drive_all(self, &|leaf: Self| leaf.into_seq().sum::<S>(), &|a, b| {
            [a, b].into_iter().sum()
        })
    }

    /// Largest item (last one on ties, like `Iterator::max`).
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        drive_all(
            self,
            &|leaf: Self| leaf.into_seq().max(),
            &|a, b| match (a, b) {
                (Some(x), Some(y)) => Some(if y >= x { y } else { x }),
                (x, None) => x,
                (None, y) => y,
            },
        )
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
        // Item `i` lands in spare slot `i`: the slots split with the
        // source, so each leaf writes only the slots it was handed.
        let slots = out.spare_capacity_mut()[..len].par_iter_mut();
        let written = drive_all(
            par_iter.zip(slots),
            &|leaf| {
                let mut n = 0usize;
                for (item, slot) in leaf.into_seq() {
                    slot.write(item);
                    n += 1;
                }
                n
            },
            &|a, b| a + b,
        );
        assert_eq!(written, len, "parallel source yielded too few items");
        // SAFETY: slots [0, len) were each written once (the count above).
        unsafe { out.set_len(len) };
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
            type Seq = std::ops::Range<$t>;

            fn len(&self) -> usize {
                self.len
            }

            fn split_at(self, mid: usize) -> (Self, Self) {
                let right = RangeParIter {
                    start: self.start + mid as $t,
                    len: self.len - mid,
                };
                (RangeParIter { start: self.start, len: mid }, right)
            }

            fn into_seq(self) -> std::ops::Range<$t> {
                self.start..self.start + self.len as $t
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

/// `par_iter_mut()` / `par_chunks_mut()` / `par_ranges_mut()` on mutable
/// slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `&mut T` items.
    fn par_iter_mut(&mut self) -> SliceParIterMut<'_, T>;
    /// Parallel iterator over `&mut [T]` chunks of (at most) `chunk_size`.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMutParIter<'_, T>;
    /// Parallel iterator over the variable-length pieces `bounds` cuts:
    /// item `i` is `self[(bounds[i] - bounds[0]) * width .. (bounds[i+1] -
    /// bounds[0]) * width]` — a CSR row's edge range, an exclusive scan's
    /// output range. Panics unless `bounds` is non-empty, never descends,
    /// and covers the slice exactly (`(last - first) * width ==
    /// self.len()`).
    fn par_ranges_mut<'a>(&'a mut self, bounds: &'a [u32], width: usize)
        -> RangesMutParIter<'a, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> SliceParIterMut<'_, T> {
        SliceParIterMut { slice: self }
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMutParIter<'_, T> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ChunksMutParIter {
            slice: self,
            size: chunk_size,
        }
    }

    fn par_ranges_mut<'a>(
        &'a mut self,
        bounds: &'a [u32],
        width: usize,
    ) -> RangesMutParIter<'a, T> {
        let (&first, &last) = bounds
            .first()
            .zip(bounds.last())
            .expect("par_ranges_mut needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "par_ranges_mut bounds must not descend"
        );
        assert_eq!(
            (last - first) as usize * width,
            self.len(),
            "par_ranges_mut bounds must cover the slice"
        );
        RangesMutParIter(RangesMut {
            rest: self,
            cuts: bounds,
            width,
        })
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
    type Seq = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(mid);
        (SliceParIter { slice: a }, SliceParIter { slice: b })
    }

    fn into_seq(self) -> std::slice::Iter<'a, T> {
        self.slice.iter()
    }
}

/// See [`ParallelSliceMut::par_iter_mut`].
pub struct SliceParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParallelIterator for SliceParIterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(mid);
        (SliceParIterMut { slice: a }, SliceParIterMut { slice: b })
    }

    fn into_seq(self) -> std::slice::IterMut<'a, T> {
        self.slice.iter_mut()
    }
}

/// See [`ParallelSlice::par_chunks`].
pub struct ChunksParIter<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ChunksParIter<'a, T> {
    type Item = &'a [T];
    type Seq = std::slice::Chunks<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (size, len) = (self.size, self.slice.len());
        let (a, b) = self.slice.split_at((mid * size).min(len));
        (Self { slice: a, size }, Self { slice: b, size })
    }

    fn into_seq(self) -> std::slice::Chunks<'a, T> {
        self.slice.chunks(self.size)
    }
}

/// See [`ParallelSliceMut::par_chunks_mut`].
pub struct ChunksMutParIter<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParallelIterator for ChunksMutParIter<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (size, len) = (self.size, self.slice.len());
        let (a, b) = self.slice.split_at_mut((mid * size).min(len));
        (Self { slice: a, size }, Self { slice: b, size })
    }

    fn into_seq(self) -> std::slice::ChunksMut<'a, T> {
        self.slice.chunks_mut(self.size)
    }
}

/// See [`ParallelSliceMut::par_ranges_mut`].
pub struct RangesMutParIter<'a, T>(RangesMut<'a, T>);

impl<'a, T: Send> ParallelIterator for RangesMutParIter<'a, T> {
    type Item = &'a mut [T];
    type Seq = RangesMut<'a, T>;

    fn len(&self) -> usize {
        self.0.cuts.len() - 1
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let RangesMut { rest, cuts, width } = self.0;
        let (a, b) = rest.split_at_mut((cuts[mid] - cuts[0]) as usize * width);
        let piece = |rest, cuts| Self(RangesMut { rest, cuts, width });
        (piece(a, &cuts[..=mid]), piece(b, &cuts[mid..]))
    }

    fn into_seq(self) -> RangesMut<'a, T> {
        self.0
    }
}

/// Sequential iterator over the pieces of a [`RangesMutParIter`].
pub struct RangesMut<'a, T> {
    /// The pieces not yet handed out; starts at `cuts[0]`.
    rest: &'a mut [T],
    /// Piece bounds (`par_ranges_mut` checked that they ascend and cover
    /// the slice).
    cuts: &'a [u32],
    width: usize,
}

impl<'a, T> Iterator for RangesMut<'a, T> {
    type Item = &'a mut [T];

    fn next(&mut self) -> Option<&'a mut [T]> {
        let (&lo, cuts) = self.cuts.split_first()?;
        let &hi = cuts.first()?;
        let n = (hi - lo) as usize * self.width;
        let (piece, rest) = std::mem::take(&mut self.rest).split_at_mut(n);
        (self.rest, self.cuts) = (rest, cuts);
        Some(piece)
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
    F: Fn(P::Item) -> R + Send + Clone,
{
    type Item = R;
    type Seq = std::iter::Map<P::Seq, F>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        let (fa, f) = (self.f.clone(), self.f);
        (Self { base: a, f: fa }, Self { base: b, f })
    }

    fn into_seq(self) -> Self::Seq {
        self.base.into_seq().map(self.f)
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
    type Seq = std::iter::Zip<A::Seq, B::Seq>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn min_len_hint(&self) -> usize {
        self.a.min_len_hint().max(self.b.min_len_hint())
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a0, a1) = self.a.split_at(mid);
        let (b0, b1) = self.b.split_at(mid);
        (Zip { a: a0, b: b0 }, Zip { a: a1, b: b1 })
    }

    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<P> {
    base: P,
    /// Global index of the first item.
    offset: usize,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    type Seq = std::iter::Zip<std::ops::Range<usize>, P::Seq>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            Enumerate {
                base: a,
                offset: self.offset,
            },
            Enumerate {
                base: b,
                offset: self.offset + mid,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        let end = self.offset + self.base.len();
        (self.offset..end).zip(self.base.into_seq())
    }
}

/// See [`ParallelIterator::with_min_len`].
pub struct MinLen<P> {
    base: P,
    min: usize,
}

impl<P: ParallelIterator> ParallelIterator for MinLen<P> {
    type Item = P::Item;
    type Seq = P::Seq;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn min_len_hint(&self) -> usize {
        self.base.min_len_hint().max(self.min)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        let min = self.min;
        (MinLen { base: a, min }, MinLen { base: b, min })
    }

    fn into_seq(self) -> P::Seq {
        self.base.into_seq()
    }
}
