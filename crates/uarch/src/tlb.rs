//! Translation lookaside buffers and the page-table-walker cache.

use serde::{Deserialize, Serialize};

use teesec_isa::vm::{Pte, VirtAddr};

use crate::trace::Domain;

/// One TLB entry (sv39, 4 KiB leaf pages only — the model's proxy kernel
/// maps everything with 4 KiB granules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbEntry {
    /// Valid bit.
    pub valid: bool,
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
#[derive(Debug, Serialize, Deserialize)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    use_counter: u64,
}

impl Clone for Tlb {
    fn clone(&self) -> Tlb {
        let mut tlb = Tlb::new(self.entries.len());
        tlb.clone_from(self);
        tlb
    }

    /// Copies every entry into this TLB's entry buffer.
    fn clone_from(&mut self, source: &Tlb) {
        let Tlb {
            entries,
            use_counter,
        } = source;
        self.entries.clone_from(entries);
        self.use_counter = *use_counter;
    }
}

impl Tlb {
    /// Creates a TLB with `n` entries.
    pub fn new(n: usize) -> Tlb {
        let e = TlbEntry {
            valid: false,
            vpn: 0,
            pte: Pte(0),
            last_use: 0,
            fill_domain: Domain::Untrusted,
        };
        Tlb {
            entries: vec![e; n],
            use_counter: 0,
        }
    }

    /// Looks up the translation for `va`, updating LRU state on a hit.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<Pte> {
        let vpn = va.0 >> 12;
        let idx = self.entries.iter().position(|e| e.valid && e.vpn == vpn)?;
        self.use_counter += 1;
        self.entries[idx].last_use = self.use_counter;
        Some(self.entries[idx].pte)
    }

    /// Installs a translation, evicting LRU if full. Returns the slot used.
    pub fn insert(&mut self, va: VirtAddr, pte: Pte, domain: Domain) -> usize {
        let vpn = va.0 >> 12;
        self.use_counter += 1;
        let counter = self.use_counter;
        let idx = self
            .entries
            .iter()
            .position(|e| e.valid && e.vpn == vpn)
            .or_else(|| self.entries.iter().position(|e| !e.valid))
            .unwrap_or_else(|| {
                self.entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_use)
                    .map(|(i, _)| i)
                    .expect("TLB has at least one entry")
            });
        self.entries[idx] = TlbEntry {
            valid: true,
            vpn,
            pte,
            last_use: counter,
            fill_domain: domain,
        };
        idx
    }

    /// Invalidates everything (`sfence.vma`).
    pub fn flush_all(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
    }

    /// All entries, for snapshot inspection.
    pub fn entries(&self) -> &[TlbEntry] {
        &self.entries
    }

    /// Count of valid entries.
    pub fn valid_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

/// A small cache of page-table-entry fetches keyed by PTE physical address.
///
/// XiangShan PMP-checks refill addresses before requesting them (paper
/// §7.1.2); the walker consults that policy, not this structure.
#[derive(Debug, Serialize, Deserialize)]
pub struct PtwCache {
    entries: Vec<PtwCacheEntry>,
    use_counter: u64,
}

impl Clone for PtwCache {
    fn clone(&self) -> PtwCache {
        let mut cache = PtwCache::new(self.entries.len());
        cache.clone_from(self);
        cache
    }

    /// Copies every entry into this cache's entry buffer.
    fn clone_from(&mut self, source: &PtwCache) {
        let PtwCache {
            entries,
            use_counter,
        } = source;
        self.entries.clone_from(entries);
        self.use_counter = *use_counter;
    }
}

/// One PTW cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PtwCacheEntry {
    /// Valid bit.
    pub valid: bool,
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
        let e = PtwCacheEntry {
            valid: false,
            pte_addr: 0,
            pte: Pte(0),
            last_use: 0,
            fill_domain: Domain::Untrusted,
        };
        PtwCache {
            entries: vec![e; n],
            use_counter: 0,
        }
    }

    /// Looks up a cached PTE fetch.
    pub fn lookup(&mut self, pte_addr: u64) -> Option<Pte> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.valid && e.pte_addr == pte_addr)?;
        self.use_counter += 1;
        self.entries[idx].last_use = self.use_counter;
        Some(self.entries[idx].pte)
    }

    /// Caches a PTE fetch.
    pub fn insert(&mut self, pte_addr: u64, pte: Pte, domain: Domain) {
        self.use_counter += 1;
        let counter = self.use_counter;
        let idx = self
            .entries
            .iter()
            .position(|e| !e.valid)
            .unwrap_or_else(|| {
                self.entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_use)
                    .map(|(i, _)| i)
                    .expect("PTW cache has at least one entry")
            });
        self.entries[idx] = PtwCacheEntry {
            valid: true,
            pte_addr,
            pte,
            last_use: counter,
            fill_domain: domain,
        };
    }

    /// Invalidates everything (`sfence.vma`).
    pub fn flush_all(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
    }

    /// All entries, for snapshot inspection.
    pub fn entries(&self) -> &[PtwCacheEntry] {
        &self.entries
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
        assert_eq!(tlb.valid_count(), 2);
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
        assert_eq!(tlb.valid_count(), 1);
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
        assert_eq!(tlb.valid_count(), 0);
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
