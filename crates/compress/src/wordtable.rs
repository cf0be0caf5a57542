//! An open-addressed table that numbers distinct 32-bit words in order of
//! first occurrence — the one lookup structure the word-dictionary codecs
//! share.
//!
//! Each slot packs `(id + 1) << 32 | word` into a `u64`, so an empty slot
//! is `0` and a probe reads one slot per step; linear probing from a
//! multiplicative hash keeps the probe sequence in one cache line for the
//! instruction-word distributions the codecs see. The table doubles at
//! half load.

/// Distinct words, numbered by first occurrence.
pub(crate) struct WordTable {
    slots: Vec<u64>,
    /// `64 - log2(slots.len())`: the hash keeps the top bits.
    shift: u32,
    words: Vec<u32>,
}

impl WordTable {
    /// An empty table sized for about `expected` distinct words.
    pub(crate) fn with_capacity(expected: usize) -> WordTable {
        let slots = (2 * expected).next_power_of_two().max(16);
        WordTable {
            slots: vec![0; slots],
            shift: 64 - slots.trailing_zeros(),
            words: Vec::with_capacity(expected),
        }
    }

    #[inline]
    fn home(&self, word: u32) -> usize {
        (u64::from(word).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The id of `word`, numbering it next if it is new.
    #[inline]
    pub(crate) fn intern(&mut self, word: u32) -> u32 {
        let mask = self.slots.len() - 1;
        let mut at = self.home(word);
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                let id = self.words.len() as u32;
                self.slots[at] = (u64::from(id) + 1) << 32 | u64::from(word);
                self.words.push(word);
                if 2 * self.words.len() > self.slots.len() {
                    self.grow();
                }
                return id;
            }
            if slot as u32 == word {
                return (slot >> 32) as u32 - 1;
            }
            at = (at + 1) & mask;
        }
    }

    /// The distinct words, indexed by id.
    pub(crate) fn words(&self) -> &[u32] {
        &self.words
    }

    /// The distinct words, indexed by id.
    pub(crate) fn into_words(self) -> Vec<u32> {
        self.words
    }

    fn grow(&mut self) {
        let slots = 2 * self.slots.len();
        self.slots = vec![0; slots];
        self.shift -= 1;
        let mask = slots - 1;
        for (id, &word) in self.words.iter().enumerate() {
            let mut at = self.home(word);
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = (id as u64 + 1) << 32 | u64::from(word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_first_occurrence_across_growth() {
        let mut t = WordTable::with_capacity(1);
        let words: Vec<u32> = (0..5000u32).map(|i| i.wrapping_mul(0x0001_0001)).collect();
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(t.intern(w), i as u32);
        }
        for (i, &w) in words.iter().enumerate().rev() {
            assert_eq!(t.intern(w), i as u32);
        }
        assert_eq!(t.intern(0), 0);
        assert_eq!(t.words(), &words[..]);
    }
}
