//! Branch prediction: a bimode direction predictor plus a return-address
//! stack (the paper's Table 1 lists "bimode 2048 entries").
//!
//! The bimode predictor [Lee/Chen/Mudge '97] keeps two gshare-indexed
//! direction PHTs — one biased taken, one biased not-taken — and a
//! PC-indexed *choice* PHT that selects between them. The choice table is
//! not updated when it mispredicted the bank but the selected bank was
//! right, which is what removes destructive aliasing.

/// Two-bit saturating counter helpers (the reference [`Bimode::update`]
/// path; [`Bimode::predict_update`] steps counters through [`STEP`]).
fn bump(counter: &mut u8, up: bool) {
    if up {
        if *counter < 3 {
            *counter += 1;
        }
    } else if *counter > 0 {
        *counter -= 1;
    }
}

fn taken(counter: u8) -> bool {
    counter >= 2
}

/// Next state of a two-bit saturating counter, indexed by
/// `counter << 1 | outcome`.
const STEP: [u8; 8] = [0, 1, 0, 2, 1, 3, 2, 3];

/// A bimode conditional-branch direction predictor.
///
/// # Examples
///
/// ```
/// use rtdc_sim::Bimode;
///
/// let mut p = Bimode::new(2048);
/// for _ in 0..8 {
///     p.update(0x1000, true); // train a loop branch
/// }
/// assert!(p.predict(0x1000));
/// // The fused step predicts with the pre-update state, then trains.
/// assert!(p.predict_update(0x1000, false));
/// ```
#[derive(Debug, Clone)]
pub struct Bimode {
    choice: Vec<u8>,
    /// Both direction banks, paired per index: `[not_taken, taken]`,
    /// so the choice counter's high bit selects the bank by indexing.
    banks: Vec<[u8; 2]>,
    history: u32,
    mask: u32,
}

impl Bimode {
    /// Creates a predictor with `entries` two-bit counters per table.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    pub fn new(entries: u32) -> Bimode {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Bimode {
            choice: vec![1; entries as usize], // weakly not-taken
            // Not-taken bank weakly not-taken, taken bank weakly taken.
            banks: vec![[1, 2]; entries as usize],
            history: 0,
            mask: entries - 1,
        }
    }

    fn choice_index(&self, pc: u32) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    fn bank_index(&self, pc: u32) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// The bank a choice counter selects: 1 (taken bank) when it
    /// predicts taken.
    fn bank_of(choice: u8) -> usize {
        usize::from(choice >> 1 & 1)
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u32) -> bool {
        let bank = Self::bank_of(self.choice[self.choice_index(pc)]);
        taken(self.banks[self.bank_index(pc)][bank])
    }

    /// Trains the predictor with the branch's `outcome`.
    pub fn update(&mut self, pc: u32, outcome: bool) {
        let ci = self.choice_index(pc);
        let bi = self.bank_index(pc);
        let use_taken_bank = taken(self.choice[ci]);
        let counter = &mut self.banks[bi][usize::from(use_taken_bank)];
        let bank_correct = taken(*counter) == outcome;
        bump(counter, outcome);
        // Bimode rule: skip the choice update when the selected bank was
        // correct despite disagreeing with the choice direction.
        let choice_agrees = use_taken_bank == outcome;
        if !bank_correct || choice_agrees {
            bump(&mut self.choice[ci], outcome);
        }
        self.history = (self.history << 1) | outcome as u32;
    }

    /// [`Bimode::predict`] then [`Bimode::update`] in one step: returns
    /// the prediction made before training on `outcome`.
    ///
    /// This is the simulator's per-branch path, so it computes both
    /// indices once and takes no host branch on the predictor's own
    /// state: the bank is selected by indexing with the choice
    /// counter's high bit, both counters step through an 8-entry
    /// next-state table, and the bimode rule picks the new choice
    /// counter with a select.
    #[inline]
    pub fn predict_update(&mut self, pc: u32, outcome: bool) -> bool {
        let ci = self.choice_index(pc);
        let bi = self.bank_index(pc);
        let o = usize::from(outcome);
        let choice = self.choice[ci];
        let bank = Self::bank_of(choice);
        let counter = &mut self.banks[bi][bank];
        let predicted = taken(*counter);
        *counter = STEP[usize::from(*counter & 3) << 1 | o];
        // Bimode rule, as in `update`: the choice trains unless the
        // selected bank was right while the choice pointed the other way.
        let stepped = STEP[usize::from(choice & 3) << 1 | o];
        let train = predicted != outcome || bank == o;
        self.choice[ci] = if train { stepped } else { choice };
        self.history = (self.history << 1) | outcome as u32;
        predicted
    }
}

/// A return-address stack predicting `jr $ra` targets.
#[derive(Debug, Clone)]
pub struct ReturnStack {
    stack: Vec<u32>,
    depth: usize,
}

impl ReturnStack {
    /// Creates a RAS with room for `depth` return addresses (0 disables it).
    pub fn new(depth: u32) -> ReturnStack {
        ReturnStack {
            stack: Vec::with_capacity(depth as usize),
            depth: depth as usize,
        }
    }

    /// Records a call's return address.
    pub fn push(&mut self, addr: u32) {
        if self.depth == 0 {
            return;
        }
        if self.stack.len() == self.depth {
            self.stack.remove(0); // oldest entry falls off the bottom
        }
        self.stack.push(addr);
    }

    /// Pops the predicted return target, if any.
    pub fn pop(&mut self) -> Option<u32> {
        self.stack.pop()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut p = Bimode::new(64);
        let pc = 0x1000;
        for _ in 0..8 {
            p.update(pc, true);
        }
        assert!(p.predict(pc));
    }

    #[test]
    fn learns_always_not_taken() {
        let mut p = Bimode::new(64);
        let pc = 0x1000;
        for _ in 0..8 {
            p.update(pc, false);
        }
        assert!(!p.predict(pc));
    }

    #[test]
    fn tracks_loop_pattern_direction_majority() {
        // A loop branch taken 9 of 10 times should be predicted taken.
        let mut p = Bimode::new(64);
        let pc = 0x2000;
        for _ in 0..5 {
            for _ in 0..9 {
                p.update(pc, true);
            }
            p.update(pc, false);
        }
        assert!(p.predict(pc));
    }

    #[test]
    fn fused_step_equals_predict_then_update() {
        use rtdc_rng::Rng64;
        // 16 entries against 64 PCs: every choice slot and bank slot is
        // shared by several branches, and 20k outcomes fill the history
        // many times over.
        let mut fused = Bimode::new(16);
        let mut reference = Bimode::new(16);
        let mut rng = Rng64::seed_from_u64(0xb1_70de);
        // Per-branch taken bias, so counters saturate both ways and the
        // choice disagrees with the bank often enough to exercise the
        // bimode rule.
        let bias: Vec<f64> = (0..64).map(|_| rng.gen_f64()).collect();
        let (mut mispredicts, mut rule_skips) = (0, 0);
        for step in 0..20_000 {
            let b = rng.gen_range(0..64usize);
            let pc = 0x40_0000 + 4 * b as u32;
            let outcome = rng.gen_bool_p(bias[b]);
            let expect = reference.predict(pc);
            let choice_before = reference.choice[reference.choice_index(pc)];
            reference.update(pc, outcome);
            let got = fused.predict_update(pc, outcome);
            assert_eq!(got, expect, "step {step}: pc {pc:#x} outcome {outcome}");
            assert_eq!(fused.choice, reference.choice, "step {step}: choice");
            assert_eq!(fused.banks, reference.banks, "step {step}: banks");
            assert_eq!(fused.history, reference.history, "step {step}");
            mispredicts += usize::from(expect != outcome);
            let bank_used = taken(choice_before);
            rule_skips += usize::from(expect == outcome && bank_used != outcome);
        }
        assert!(mispredicts > 1000, "the stream must mispredict often");
        assert!(rule_skips > 100, "the choice-skip rule must fire");
        // Every slot of the final state predicts the same.
        for slot in 0..16u32 {
            let pc = 0x40_0000 + 4 * slot;
            assert_eq!(fused.predict(pc), reference.predict(pc), "slot {slot}");
        }
    }

    #[test]
    fn ras_predicts_matched_calls() {
        let mut ras = ReturnStack::new(8);
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut ras = ReturnStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.len(), 2);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
    }

    #[test]
    fn zero_depth_ras_is_inert() {
        let mut ras = ReturnStack::new(0);
        ras.push(1);
        assert!(ras.is_empty());
        assert_eq!(ras.pop(), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = Bimode::new(100);
    }
}
