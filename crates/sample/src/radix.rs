//! Radix sort on packed 64-bit keys.
//!
//! §III-C1: "the function parallel_sort() ... needs to return two arrays.
//! One is for the sorted array, and the other is for the original index. We
//! pack 32-bit array `r[M]` and its index array to one 64-bit array, high
//! 32-bit of which stores array `r[M]` and low 32-bit stores the index. Then
//! we use radix-sort method to sort the new 64-bit array."
//!
//! Because the index occupies the low bits, the sort is automatically
//! stable over equal values — Algorithm 1's duplicate-group logic relies on
//! ties being ordered by original index.

/// Pack `(value, index)` into one key, value-major.
#[inline]
pub fn pack(value: u32, index: u32) -> u64 {
    ((value as u64) << 32) | index as u64
}

/// Unpack a key into `(value, index)`.
#[inline]
pub fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// LSD radix sort (8-bit digits) of packed keys, in place.
pub fn radix_sort_u64(keys: &mut Vec<u64>) {
    let n = keys.len();
    if n <= 1 {
        return;
    }
    let mut scratch = vec![0u64; n];
    for pass in 0..8 {
        let shift = pass * 8;
        // Skip passes whose digit is constant (common: small values).
        let first = (keys[0] >> shift) & 0xff;
        if keys.iter().all(|&k| (k >> shift) & 0xff == first) {
            continue;
        }
        let mut counts = [0usize; 256];
        for &k in keys.iter() {
            counts[((k >> shift) & 0xff) as usize] += 1;
        }
        let mut pos = [0usize; 256];
        let mut acc = 0;
        for d in 0..256 {
            pos[d] = acc;
            acc += counts[d];
        }
        for &k in keys.iter() {
            let d = ((k >> shift) & 0xff) as usize;
            scratch[pos[d]] = k;
            pos[d] += 1;
        }
        std::mem::swap(keys, &mut scratch);
    }
}

/// The `parallel_sort(r)` of Algorithm 1: returns `(s, p)` where `s` is
/// `r` sorted ascending and `p[i]` is the original index of `s[i]`.
/// Ties in `r` keep their original relative order (stability via the
/// packed index).
pub fn sort_with_indices(r: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut keys: Vec<u64> = r
        .iter()
        .enumerate()
        .map(|(i, &v)| pack(v, i as u32))
        .collect();
    radix_sort_u64(&mut keys);
    let mut s = Vec::with_capacity(r.len());
    let mut p = Vec::with_capacity(r.len());
    for k in keys {
        let (v, i) = unpack(k);
        s.push(v);
        p.push(i);
    }
    (s, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let k = pack(0xdead_beef, 0x1234_5678);
        assert_eq!(unpack(k), (0xdead_beef, 0x1234_5678));
    }

    #[test]
    fn sorts_simple_case() {
        let (s, p) = sort_with_indices(&[5, 1, 4, 1, 3]);
        assert_eq!(s, vec![1, 1, 3, 4, 5]);
        // Stable: the first 1 (index 1) precedes the second (index 3).
        assert_eq!(p, vec![1, 3, 4, 2, 0]);
    }

    #[test]
    fn empty_and_singleton() {
        let (s, p) = sort_with_indices(&[]);
        assert!(s.is_empty() && p.is_empty());
        let (s, p) = sort_with_indices(&[42]);
        assert_eq!((s, p), (vec![42], vec![0]));
    }

    proptest! {
        #[test]
        fn matches_std_stable_sort(values in prop::collection::vec(0u32..1000, 0..300)) {
            let (s, p) = sort_with_indices(&values);
            let mut expect: Vec<(u32, u32)> =
                values.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
            expect.sort(); // (value, index) order == stable sort by value
            let got: Vec<(u32, u32)> = s.into_iter().zip(p).collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn full_range_keys_sort(keys in prop::collection::vec(any::<u64>(), 0..200)) {
            let mut k = keys.clone();
            radix_sort_u64(&mut k);
            let mut expect = keys;
            expect.sort_unstable();
            prop_assert_eq!(k, expect);
        }
    }
}
