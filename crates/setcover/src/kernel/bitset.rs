//! A small fixed-capacity bitset shared by every dense solver hot path.
//!
//! `std` has no bitset and the offline crate list has no `fixedbitset`, so
//! we carry a minimal one. Packed `u64` words are exposed read-only via
//! [`BitSet::words`] so callers can run the branch-free sweeps in
//! [`crate::kernel::words`] against other packed rows (e.g. the rows of a
//! [`crate::kernel::BitMatrix`]). Invariant: bits at positions `>= capacity`
//! in the last word are always zero, so word-parallel popcounts never see
//! ghost bits.

/// Fixed-capacity bitset over `0..capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// All-zero bitset with room for `capacity` bits.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            blocks: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// All-one bitset over `0..capacity` (tail bits stay zero).
    pub fn all_set(capacity: usize) -> Self {
        let mut s = BitSet {
            blocks: vec![u64::MAX; capacity.div_ceil(64)],
            capacity,
        };
        if !capacity.is_multiple_of(64) {
            if let Some(last) = s.blocks.last_mut() {
                *last &= (1u64 << (capacity % 64)) - 1;
            }
        }
        s
    }

    /// Bitset over `0..capacity` with the given (in-range) indices set.
    // lint:allow(budget): O(words) primitive; callers charge per operation
    pub fn from_indices(capacity: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(capacity);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The packed `u64` words, little-endian within each word. Tail bits
    /// beyond `capacity` are zero.
    pub fn words(&self) -> &[u64] {
        &self.blocks
    }

    /// Clear every bit, keeping the capacity.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Clear every bit and change the capacity to `capacity`, reusing
    /// the allocation when it is large enough: scratch sets kept across
    /// runs on instances of different sizes.
    pub fn reset(&mut self, capacity: usize) {
        self.blocks.clear();
        self.blocks.resize(capacity.div_ceil(64), 0);
        self.capacity = capacity;
    }

    /// Set bit `i`. Returns whether it was previously unset.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let (b, m) = (i / 64, 1u64 << (i % 64));
        let was = self.blocks[b] & m != 0;
        self.blocks[b] |= m;
        !was
    }

    /// Clear bit `i`.
    pub fn remove(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        self.blocks[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        i < self.capacity && self.blocks[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// OR another bitset into this one (capacities must match).
    // lint:allow(budget): O(words) primitive; callers charge per operation
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// OR a packed row over the same universe into this bitset. The row
    /// must come from a matrix/bitset with this capacity, so its tail bits
    /// are zero and the invariant holds.
    // lint:allow(budget): O(words) primitive; callers charge per operation
    pub fn union_with_words(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.blocks.len(), "universe mismatch");
        for (a, b) in self.blocks.iter_mut().zip(row) {
            *a |= b;
        }
    }

    /// Whether the two bitsets share any set bit (capacities must match).
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// Number of bits set in both (capacities must match).
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        assert_eq!(self.capacity, other.capacity);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Whether every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterate set bit indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut b = block;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let t = b.trailing_zeros() as usize;
                    b &= b - 1;
                    Some(bi * 64 + t)
                }
            })
        })
    }

    /// First unset bit below capacity, if any.
    // lint:allow(budget): O(words) primitive; callers charge per operation
    pub fn first_unset(&self) -> Option<usize> {
        for (bi, &block) in self.blocks.iter().enumerate() {
            if block != u64::MAX {
                let t = (!block).trailing_zeros() as usize;
                let i = bi * 64 + t;
                if i < self.capacity {
                    return Some(i);
                }
            }
        }
        None
    }
}

impl Default for BitSet {
    /// The empty zero-capacity bitset: `contains` is `false` everywhere,
    /// so it is the natural "no restrictions" value for config fields.
    fn default() -> Self {
        BitSet::new(0)
    }
}

impl FromIterator<usize> for BitSet {
    /// Collect indices into a bitset sized to the maximum index + 1.
    // lint:allow(budget): O(words) primitive; callers charge per operation
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().copied().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
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
        assert!(!s.insert(129), "double insert reports already-set");
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        s.remove(129);
        assert!(!s.contains(129));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn union_and_subset() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        b.insert(1);
        b.insert(65);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        a.union_with(&b);
        assert!(b.is_subset_of(&a));
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn iter_in_order() {
        let s: BitSet = [3usize, 64, 7, 127].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7, 64, 127]);
    }

    #[test]
    fn first_unset() {
        let mut s = BitSet::new(3);
        assert_eq!(s.first_unset(), Some(0));
        s.insert(0);
        s.insert(1);
        assert_eq!(s.first_unset(), Some(2));
        s.insert(2);
        assert_eq!(s.first_unset(), None);
    }

    #[test]
    fn empty_and_zero_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.first_unset(), None);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn reset_clears_and_resizes_in_place() {
        let mut s = BitSet::all_set(130);
        s.reset(70);
        assert_eq!((s.capacity(), s.words()), (70, &[0u64, 0][..]));
        s.insert(69);
        s.reset(3);
        assert!(s.is_empty());
        assert!(!s.contains(69), "no bit past the new capacity");
        assert_eq!(s, BitSet::new(3));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_insert_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn all_set_masks_the_tail() {
        let s = BitSet::all_set(70);
        assert_eq!(s.count(), 70);
        assert_eq!(s.words().len(), 2);
        assert_eq!(s.words()[1], (1u64 << 6) - 1, "tail bits stay zero");
        assert_eq!(BitSet::all_set(64).words(), &[u64::MAX]);
        assert!(BitSet::all_set(0).is_empty());
    }

    #[test]
    fn intersects_and_intersection_count() {
        let a = BitSet::from_indices(130, [0, 63, 64, 129]);
        let b = BitSet::from_indices(130, [63, 64, 100]);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_count(&b), 2);
        let c = BitSet::from_indices(130, [1, 65]);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection_count(&c), 0);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = BitSet::from_indices(90, [0, 89]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 90);
        assert!(s.insert(89));
    }
}
