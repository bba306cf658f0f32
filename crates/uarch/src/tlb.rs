//! Translation lookaside buffers and the page-table-walker cache.

use teesec_derive::CloneFrom;

use teesec_isa::vm::{Pte, VirtAddr};

use crate::slots::Slots;
use crate::trace::Domain;

/// One TLB entry (sv39, 4 KiB leaf pages only — the model's proxy kernel
/// maps everything with 4 KiB granules).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpn: u64,
    /// The leaf PTE (carries PPN and permission bits).
    pub pte: Pte,
    /// LRU stamp.
    pub last_use: u64,
    /// Domain that installed the translation (metadata residue tracking).
    pub fill_domain: Domain,
}

/// A fully associative TLB.
#[derive(Debug, CloneFrom)]
pub struct Tlb {
    entries: Slots<TlbEntry>,
    use_counter: u64,
}

impl Tlb {
    /// Creates a TLB with `n` entries.
    pub fn new(n: usize) -> Tlb {
        Tlb {
            entries: Slots::new(n, 0),
            use_counter: 0,
        }
    }

    /// The entries, one slot each.
    pub fn slots(&self) -> &Slots<TlbEntry> {
        &self.entries
    }

    /// Looks up the translation for `va`, updating LRU state on a hit.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<Pte> {
        let vpn = va.0 >> 12;
        let idx = self.entries.find(|e| e.vpn == vpn)?;
        self.use_counter += 1;
        let e = self.entries.entry_mut(idx);
        e.last_use = self.use_counter;
        Some(e.pte)
    }

    /// Installs a translation, evicting LRU if full. Returns the slot used.
    pub fn insert(&mut self, va: VirtAddr, pte: Pte, domain: Domain) -> usize {
        let vpn = va.0 >> 12;
        self.use_counter += 1;
        let idx = (self.entries.find(|e| e.vpn == vpn))
            .or_else(|| self.entries.first_free())
            .unwrap_or_else(|| lru(&self.entries, |e| e.last_use));
        let entry = TlbEntry {
            vpn,
            pte,
            last_use: self.use_counter,
            fill_domain: domain,
        };
        self.entries.set(idx, entry);
        idx
    }

    /// Invalidates everything (`sfence.vma`).
    pub fn flush_all(&mut self) {
        self.entries.flush_all();
    }
}

/// The live slot whose entry has the lowest recency stamp, the first of
/// equals.
fn lru<T: Copy + Default + PartialEq>(slots: &Slots<T>, stamp: impl Fn(&T) -> u64) -> usize {
    (slots.live())
        .min_by_key(|(_, e)| stamp(e))
        .map(|(i, _)| i)
        .expect("a full table has live slots")
}

/// A small cache of page-table-entry fetches keyed by PTE physical address.
///
/// XiangShan PMP-checks refill addresses before requesting them (paper
/// §7.1.2); the walker consults that policy, not this structure.
#[derive(Debug, CloneFrom)]
pub struct PtwCache {
    entries: Slots<PtwCacheEntry>,
    use_counter: u64,
}

/// One PTW cache entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PtwCacheEntry {
    /// Physical address of the cached PTE.
    pub pte_addr: u64,
    /// The cached PTE value.
    pub pte: Pte,
    /// LRU stamp.
    pub last_use: u64,
    /// Domain active at fill.
    pub fill_domain: Domain,
}

impl PtwCache {
    /// Creates a PTW cache with `n` entries.
    pub fn new(n: usize) -> PtwCache {
        PtwCache {
            entries: Slots::new(n, 0),
            use_counter: 0,
        }
    }

    /// The entries, one slot each.
    pub fn slots(&self) -> &Slots<PtwCacheEntry> {
        &self.entries
    }

    /// Looks up a cached PTE fetch.
    pub fn lookup(&mut self, pte_addr: u64) -> Option<Pte> {
        let idx = self.entries.find(|e| e.pte_addr == pte_addr)?;
        self.use_counter += 1;
        let e = self.entries.entry_mut(idx);
        e.last_use = self.use_counter;
        Some(e.pte)
    }

    /// Caches a PTE fetch, in place if `pte_addr` is already cached (a
    /// walk that hit inserts the PTE it read once more).
    pub fn insert(&mut self, pte_addr: u64, pte: Pte, domain: Domain) {
        self.use_counter += 1;
        let idx = (self.entries.find(|e| e.pte_addr == pte_addr))
            .or_else(|| self.entries.first_free())
            .unwrap_or_else(|| lru(&self.entries, |e| e.last_use));
        let entry = PtwCacheEntry {
            pte_addr,
            pte,
            last_use: self.use_counter,
            fill_domain: domain,
        };
        self.entries.set(idx, entry);
    }

    /// Invalidates everything (`sfence.vma`).
    pub fn flush_all(&mut self) {
        self.entries.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teesec_isa::vm::PhysAddr;

    #[test]
    fn tlb_miss_then_hit() {
        let mut tlb = Tlb::new(4);
        let va = VirtAddr(0x4000_1000);
        assert_eq!(tlb.lookup(va), None);
        let pte = Pte::leaf(PhysAddr(0x8000_3000), Pte::R | Pte::W);
        tlb.insert(va, pte, Domain::Untrusted);
        assert_eq!(tlb.lookup(va), Some(pte));
        // Offset within the same page still hits.
        assert_eq!(tlb.lookup(VirtAddr(0x4000_1ABC)), Some(pte));
        // Different page misses.
        assert_eq!(tlb.lookup(VirtAddr(0x4000_2000)), None);
    }

    #[test]
    fn tlb_lru_eviction() {
        let mut tlb = Tlb::new(2);
        let pte = Pte::leaf(PhysAddr(0x8000_0000), Pte::R);
        tlb.insert(VirtAddr(0x1000), pte, Domain::Untrusted);
        tlb.insert(VirtAddr(0x2000), pte, Domain::Untrusted);
        assert!(tlb.lookup(VirtAddr(0x1000)).is_some()); // refresh
        tlb.insert(VirtAddr(0x3000), pte, Domain::Untrusted);
        assert!(tlb.lookup(VirtAddr(0x2000)).is_none());
        assert!(tlb.lookup(VirtAddr(0x1000)).is_some());
        assert_eq!(tlb.slots().live_count(), 2);
    }

    #[test]
    fn tlb_reinsert_updates_in_place() {
        let mut tlb = Tlb::new(4);
        let va = VirtAddr(0x5000);
        tlb.insert(
            va,
            Pte::leaf(PhysAddr(0x8000_0000), Pte::R),
            Domain::Untrusted,
        );
        tlb.insert(
            va,
            Pte::leaf(PhysAddr(0x9000_0000), Pte::R | Pte::W),
            Domain::Enclave(0),
        );
        assert_eq!(tlb.slots().live_count(), 1);
        assert_eq!(tlb.lookup(va).unwrap().pa(), PhysAddr(0x9000_0000));
    }

    #[test]
    fn tlb_flush() {
        let mut tlb = Tlb::new(4);
        tlb.insert(
            VirtAddr(0x1000),
            Pte::leaf(PhysAddr(0x8000_0000), Pte::R),
            Domain::Untrusted,
        );
        tlb.flush_all();
        assert_eq!(tlb.slots().live_count(), 0);
        assert!(tlb.lookup(VirtAddr(0x1000)).is_none());
    }

    #[test]
    fn ptw_cache_roundtrip_and_flush() {
        let mut pc = PtwCache::new(2);
        let pte = Pte::table(PhysAddr(0x8020_0000));
        assert_eq!(pc.lookup(0x8010_0080), None);
        pc.insert(0x8010_0080, pte, Domain::Untrusted);
        assert_eq!(pc.lookup(0x8010_0080), Some(pte));
        pc.flush_all();
        assert_eq!(pc.lookup(0x8010_0080), None);
    }

    #[test]
    fn ptw_cache_reinsert_updates_in_place() {
        // A walk that hits in the PTW cache inserts the PTE it read once
        // more: that updates the entry, and in a full cache displaces
        // nothing.
        let mut pc = PtwCache::new(2);
        let (a, b) = (0x8010_0080, 0x8010_0100);
        let (old, new) = (
            Pte::table(PhysAddr(0x8020_0000)),
            Pte::table(PhysAddr(0x8030_0000)),
        );
        pc.insert(a, old, Domain::Untrusted);
        pc.insert(a, new, Domain::Enclave(0));
        assert_eq!(pc.slots().live_count(), 1);
        assert_eq!(pc.lookup(a), Some(new));
        pc.insert(b, old, Domain::Untrusted);
        assert_eq!(pc.lookup(a), Some(new));
        pc.insert(a, new, Domain::Enclave(0));
        assert_eq!(
            pc.lookup(b),
            Some(old),
            "the re-insert displaced another entry"
        );
    }

    #[test]
    fn ptw_cache_lru() {
        let mut pc = PtwCache::new(2);
        let pte = Pte::table(PhysAddr(0x8020_0000));
        pc.insert(0x100, pte, Domain::Untrusted);
        pc.insert(0x200, pte, Domain::Untrusted);
        assert!(pc.lookup(0x100).is_some());
        pc.insert(0x300, pte, Domain::Untrusted);
        assert!(pc.lookup(0x200).is_none());
        assert!(pc.lookup(0x100).is_some() && pc.lookup(0x300).is_some());
    }
}
