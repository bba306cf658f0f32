//! Branch prediction structures: uBTB, FTB and a bimodal BHT.
//!
//! The uBTB uses *partial tags* (a configurable number of low PC bits),
//! which is precisely what enables the paper's M2 attack: a host branch and
//! an enclave branch that differ only in excluded high bits collide in the
//! same entry (paper Figure 7).

use teesec_derive::CloneFrom;

use crate::slots::Slots;
use crate::trace::Domain;

/// One uBTB/FTB entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtbEntry {
    /// Partial tag derived from the branch PC.
    pub tag: u64,
    /// Predicted target address.
    pub target: u64,
    /// Last observed direction (used with the BHT for conditionals).
    pub taken: bool,
    /// LRU stamp (FTB ways).
    pub last_use: u64,
    /// Domain whose branch trained this entry — the metadata the checker
    /// inspects for P2 residue.
    pub train_domain: Domain,
    /// Full PC that trained the entry (model-side ground truth for collision
    /// diagnosis; real hardware does not store this).
    pub train_pc: u64,
}

/// A direct-mapped micro-BTB with partial tags.
#[derive(Debug, CloneFrom)]
pub struct Ubtb {
    entries: Slots<BtbEntry>,
    index_bits: u32,
    tag_bits: u32,
}

impl Ubtb {
    /// Creates a uBTB with `entries` slots (power of two) tagging
    /// `tag_bits` PC bits above the index.
    pub fn new(entries: usize, tag_bits: u32) -> Ubtb {
        assert!(
            entries.is_power_of_two(),
            "uBTB entries must be a power of two"
        );
        Ubtb {
            entries: Slots::new(entries, 0),
            index_bits: entries.trailing_zeros(),
            tag_bits,
        }
    }

    /// The entries, one slot each, by index.
    pub fn slots(&self) -> &Slots<BtbEntry> {
        &self.entries
    }

    /// The entry index for a PC (instructions are 4-byte aligned).
    pub fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }

    /// The partial tag for a PC — high bits beyond `index_bits + tag_bits`
    /// are *discarded*, enabling cross-domain collisions.
    pub fn tag(&self, pc: u64) -> u64 {
        (pc >> (2 + self.index_bits)) & ((1 << self.tag_bits) - 1)
    }

    /// Predicts the target for `pc`, if a tag-matching entry exists.
    pub fn predict(&self, pc: u64) -> Option<&BtbEntry> {
        let tag = self.tag(pc);
        self.entries.get(self.index(pc)).filter(|e| e.tag == tag)
    }

    /// Trains the entry for a resolved branch.
    pub fn train(&mut self, pc: u64, target: u64, taken: bool, domain: Domain) -> usize {
        let idx = self.index(pc);
        let tag = self.tag(pc);
        self.entries.set(
            idx,
            BtbEntry {
                tag,
                target,
                taken,
                last_use: 0,
                train_domain: domain,
                train_pc: pc,
            },
        );
        idx
    }

    /// `true` when `a` and `b` are distinct PCs mapping to the same entry
    /// with the same tag (the M2 collision predicate).
    pub fn collides(&self, a: u64, b: u64) -> bool {
        a != b && self.index(a) == self.index(b) && self.tag(a) == self.tag(b)
    }

    /// Invalidates every entry (BPU flush mitigation).
    pub fn flush_all(&mut self) {
        self.entries.flush_all();
    }
}

/// A set-associative fetch-target buffer.
#[derive(Debug, CloneFrom)]
pub struct Ftb {
    entries: Slots<BtbEntry>,
    sets: usize,
    ways: usize,
    tag_bits: u32,
    use_counter: u64,
}

impl Ftb {
    /// Creates an FTB with the given geometry.
    pub fn new(sets: usize, ways: usize, tag_bits: u32) -> Ftb {
        assert!(sets.is_power_of_two(), "FTB sets must be a power of two");
        Ftb {
            entries: Slots::new(sets * ways, 0),
            sets,
            ways,
            tag_bits,
            use_counter: 0,
        }
    }

    /// The ways, one slot each, in set order.
    pub fn slots(&self) -> &Slots<BtbEntry> {
        &self.entries
    }

    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    fn tag_of(&self, pc: u64) -> u64 {
        (pc >> (2 + self.sets.trailing_zeros())) & ((1 << self.tag_bits) - 1)
    }

    fn ways_of(&self, pc: u64) -> std::ops::Range<usize> {
        let s = self.set_of(pc);
        s * self.ways..(s + 1) * self.ways
    }

    /// Predicts the target for `pc`.
    pub fn predict(&self, pc: u64) -> Option<&BtbEntry> {
        let t = self.tag_of(pc);
        (self.ways_of(pc))
            .filter_map(|i| self.entries.get(i))
            .find(|e| e.tag == t)
    }

    /// Trains the FTB with a resolved branch.
    pub fn train(&mut self, pc: u64, target: u64, taken: bool, domain: Domain) {
        let t = self.tag_of(pc);
        self.use_counter += 1;
        let ways = self.ways_of(pc);
        let way = (ways.clone())
            .find(|&i| self.entries.get(i).is_some_and(|e| e.tag == t))
            .or_else(|| ways.clone().find(|&i| !self.entries.is_live(i)))
            .unwrap_or_else(|| {
                ways.min_by_key(|&i| self.entries.get(i).map(|e| e.last_use))
                    .expect("ways >= 1")
            });
        self.entries.set(
            way,
            BtbEntry {
                tag: t,
                target,
                taken,
                last_use: self.use_counter,
                train_domain: domain,
                train_pc: pc,
            },
        );
    }

    /// Invalidates every entry.
    pub fn flush_all(&mut self) {
        self.entries.flush_all();
    }
}

/// Two-bit counters in every design's BHT.
pub const BHT_ENTRIES: usize = 1024;

/// A bimodal (2-bit counter) branch history table.
#[derive(Debug, CloneFrom)]
pub struct Bht {
    counters: Vec<u8>,
}

impl Bht {
    /// Creates a BHT with `n` two-bit counters, initialized weakly not-taken.
    pub fn new(n: usize) -> Bht {
        assert!(n.is_power_of_two(), "BHT size must be a power of two");
        Bht {
            counters: vec![1; n],
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.counters.len() - 1)
    }

    /// Predicted direction for `pc`.
    pub fn predict_taken(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Updates the counter with the resolved direction.
    pub fn train(&mut self, pc: u64, taken: bool) {
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Resets all counters to weakly not-taken.
    pub fn flush_all(&mut self) {
        self.counters.fill(1);
    }

    /// Raw counter values (snapshot inspection).
    pub fn counters(&self) -> &[u8] {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ubtb_partial_tag_collision() {
        // 1024 entries (10 index bits), 16 tag bits: PCs differing only in
        // bits >= 2+10+16 = 28 collide.
        let ubtb = Ubtb::new(1024, 16);
        let host_pc = 0x0000_0000_4000_1230;
        let encl_pc = 0x0000_0000_9000_1230; // differs in bits 28+
        assert!(ubtb.collides(host_pc, encl_pc));
        // Same high bits but different low bits: no collision.
        assert!(!ubtb.collides(host_pc, host_pc + 4));
    }

    #[test]
    fn ubtb_prediction_after_training() {
        let mut ubtb = Ubtb::new(16, 8);
        assert!(ubtb.predict(0x1000).is_none());
        ubtb.train(0x1000, 0x2000, true, Domain::Enclave(0));
        let e = ubtb.predict(0x1000).expect("hit");
        assert_eq!(e.target, 0x2000);
        assert_eq!(e.train_domain, Domain::Enclave(0));
    }

    #[test]
    fn ubtb_colliding_pc_hits_foreign_entry() {
        let mut ubtb = Ubtb::new(1024, 16);
        let encl_pc = 0x0000_0000_9000_1230;
        let host_pc = 0x0000_0000_4000_1230;
        ubtb.train(encl_pc, 0x9000_2000, true, Domain::Enclave(7));
        // The *host* PC tag-matches the enclave-trained entry: prediction
        // leaks enclave control flow.
        let e = ubtb.predict(host_pc).expect("collision hit");
        assert_eq!(e.train_domain, Domain::Enclave(7));
        assert_ne!(e.train_pc, host_pc);
    }

    #[test]
    fn ubtb_flush_removes_residue() {
        let mut ubtb = Ubtb::new(16, 8);
        ubtb.train(0x1000, 0x2000, true, Domain::Enclave(0));
        ubtb.flush_all();
        assert!(ubtb.predict(0x1000).is_none());
    }

    #[test]
    fn ftb_set_associative_training() {
        let mut ftb = Ftb::new(16, 2, 12);
        ftb.train(0x1000, 0xA000, true, Domain::Untrusted);
        ftb.train(0x1000, 0xB000, true, Domain::Untrusted);
        // Retrain in place: still one entry, updated target.
        let e = ftb.predict(0x1000).expect("hit");
        assert_eq!(e.target, 0xB000);
    }

    #[test]
    fn ftb_lru_within_set() {
        let mut ftb = Ftb::new(1, 2, 20);
        // Three distinct tags into a single set of two ways.
        ftb.train(0x0004, 0x1, true, Domain::Untrusted);
        ftb.train(0x1004, 0x2, true, Domain::Untrusted);
        assert!(ftb.predict(0x0004).is_some());
        ftb.train(0x2004, 0x3, true, Domain::Untrusted);
        // 0x0004 was trained first => it was LRU => evicted.
        assert!(ftb.predict(0x0004).is_none() || ftb.predict(0x1004).is_none());
        assert!(ftb.predict(0x2004).is_some());
    }

    #[test]
    fn bht_counter_saturation() {
        let mut bht = Bht::new(16);
        let pc = 0x4000;
        assert!(!bht.predict_taken(pc)); // weakly not-taken
        bht.train(pc, true);
        assert!(bht.predict_taken(pc));
        bht.train(pc, true);
        bht.train(pc, true); // saturate at 3
        bht.train(pc, false);
        assert!(bht.predict_taken(pc)); // 2 = weakly taken
        bht.train(pc, false);
        bht.train(pc, false);
        assert!(!bht.predict_taken(pc));
        bht.flush_all();
        assert_eq!(bht.counters()[bht.index(pc)], 1);
    }
}
