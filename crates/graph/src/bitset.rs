//! A small fixed-capacity bit set for visited marks and the refiner's
//! pair and movability flags. `u64`-word backed; no external dependencies.

use serde::{Deserialize, Serialize};

/// Fixed-capacity set of `usize` values in `0..len`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSet {
    len: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// Create an empty set with capacity for values `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Capacity (exclusive upper bound on storable values).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Insert `i`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of capacity {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Remove `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Number of elements currently stored.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no element is stored.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union with `other` (capacities must match).
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterate over stored elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0), "double insert reports already present");
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert!(!s.contains(0));
    }

    #[test]
    fn count_and_empty() {
        let mut s = BitSet::new(100);
        assert!(s.is_empty());
        s.insert(3);
        s.insert(99);
        assert_eq!(s.count(), 2);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn union_accumulates() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        b.insert(65);
        a.union_with(&b);
        assert!(a.contains(1) && a.contains(65));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut s = BitSet::new(200);
        for &i in &[5usize, 64, 63, 128, 199] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![5, 63, 64, 128, 199]);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn union_requires_same_capacity() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(20);
        a.union_with(&b);
    }
}
