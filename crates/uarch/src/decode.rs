//! Page-keyed pre-decoded instruction cache for the fetch stage.
//!
//! Decoding an instruction word is a pure function, so its result can be
//! memoized per fetch address. The cache is keyed by *physical page* and
//! validated against the page's write-version ([`Memory::page_version`]):
//! any store into a page — self-modifying code, a pagetable rewrite that
//! happens to share a frame, a DMA-style `write_bytes` — bumps the
//! version and invalidates every slot cached for that page on the next
//! fetch. `Clone` deliberately yields an *empty* cache so that
//! `Platform::clone()` CoW forks and snapshot restores never observe
//! state derived from the other fork's memory.
//!
//! Defense in depth: each slot stores the instruction *word* alongside
//! the decoded result, and a hit requires the fetched word to match. Even
//! if an invalidation edge were ever missed, a stale slot can therefore
//! never alter what the pipeline executes — the cache degrades to a
//! re-decode, never to a wrong decode. Debug builds also re-decode every
//! hit and assert that it matches.
//!
//! [`Memory::page_version`]: crate::mem::Memory::page_version

use teesec_isa::inst::Inst;
use teesec_isa::vm::PAGE_SIZE;

/// Instruction slots per page (4-byte fetch granule).
const SLOTS: usize = (PAGE_SIZE / 4) as usize;

/// Maximum resident pages. Gadget programs span a handful of code pages;
/// a small move-to-front list beats a hash map at this size.
const MAX_PAGES: usize = 16;

/// One cached fetch slot: the raw instruction word plus its decode
/// (`None` decoded = illegal word).
type DecodedSlot = (u32, Option<Inst>);

/// Hit/miss/invalidation counters, exported to engine metrics as the
/// `teesec_decode_cache_*` Prometheus families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Fetches served from a valid slot (word matched).
    pub hits: u64,
    /// Fetches that had to decode (cold slot or word mismatch).
    pub misses: u64,
    /// Page entries dropped because the page's write-version moved.
    pub invalidations: u64,
}

#[derive(Debug)]
struct DecodedPage {
    /// Physical page index (`pa / PAGE_SIZE`).
    page: u64,
    /// `Memory::page_version` observed when the entry was (re)filled.
    version: u64,
    /// One [`DecodedSlot`] per 4-byte slot, `None` while cold.
    slots: Box<[Option<DecodedSlot>]>,
}

impl DecodedPage {
    fn new(page: u64, version: u64) -> DecodedPage {
        DecodedPage {
            page,
            version,
            slots: vec![None; SLOTS].into_boxed_slice(),
        }
    }
}

/// The pre-decoded instruction cache. One per [`Core`](crate::core::Core),
/// consulted by the fetch stage whenever the fetch-line memo misses.
#[derive(Debug, Default)]
pub struct DecodeCache {
    /// Move-to-front: the front entry is the page fetch is streaming
    /// through, so the common probe is a single comparison.
    pages: Vec<DecodedPage>,
    /// Lifetime counters (survive page eviction; reset on clone).
    pub stats: DecodeCacheStats,
}

impl Clone for DecodeCache {
    /// Forks start cold: a CoW memory clone shares page *contents* but
    /// the halves' write-versions advance independently afterwards, so
    /// carrying decoded state across the fork is never worth the risk.
    fn clone(&self) -> DecodeCache {
        DecodeCache::default()
    }
}

impl DecodeCache {
    /// Creates an empty cache.
    pub fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// Decodes `word` fetched from physical address `pa`, memoized per
    /// page slot. `version` is the current `Memory::page_version` of the
    /// page containing `pa`; a version change invalidates the whole page
    /// entry before the probe.
    pub fn decode(&mut self, pa: u64, version: u64, word: u32) -> Option<Inst> {
        let page = pa / PAGE_SIZE;
        let slot = ((pa % PAGE_SIZE) / 4) as usize;
        let idx = match self.pages.iter().position(|p| p.page == page) {
            Some(i) => {
                if self.pages[i].version != version {
                    // Memory moved underneath us: drop every cached slot
                    // for the page and refill at the new version.
                    self.stats.invalidations += 1;
                    self.pages[i] = DecodedPage::new(page, version);
                }
                i
            }
            None => {
                if self.pages.len() >= MAX_PAGES {
                    self.pages.pop();
                }
                self.pages.insert(0, DecodedPage::new(page, version));
                0
            }
        };
        if idx != 0 {
            self.pages.swap(0, idx);
        }
        let entry = &mut self.pages[0];
        if let Some((w, decoded)) = entry.slots[slot] {
            if w == word {
                self.stats.hits += 1;
                debug_assert_eq!(
                    decoded,
                    Inst::decode(word).ok(),
                    "decode cache hit at {pa:#x} differs from a fresh decode"
                );
                return decoded;
            }
        }
        self.stats.misses += 1;
        let decoded = Inst::decode(word).ok();
        entry.slots[slot] = Some((word, decoded));
        decoded
    }

    /// Drops every cached page (fence.i, sfence-style full flushes).
    pub fn flush(&mut self) {
        if !self.pages.is_empty() {
            self.stats.invalidations += self.pages.len() as u64;
            self.pages.clear();
        }
    }

    /// Resident page count (diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_fetch_of_same_slot_hits() {
        let mut c = DecodeCache::new();
        let nop = 0x0000_0013; // addi x0, x0, 0
        let a = c.decode(0x8000_0000, 1, nop);
        let b = c.decode(0x8000_0000, 1, nop);
        assert_eq!(a, b);
        assert!(a.is_some());
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn version_change_invalidates_whole_page() {
        let mut c = DecodeCache::new();
        let nop = 0x0000_0013;
        c.decode(0x8000_0000, 1, nop);
        c.decode(0x8000_0004, 1, nop);
        // Same page, new version: both slots must be gone.
        c.decode(0x8000_0000, 2, nop);
        assert_eq!(c.stats.invalidations, 1);
        c.decode(0x8000_0004, 2, nop);
        assert_eq!(c.stats.misses, 4, "no slot survived the version bump");
    }

    #[test]
    fn word_mismatch_never_serves_stale_decode() {
        let mut c = DecodeCache::new();
        let nop = 0x0000_0013;
        let lui = 0x0000_00B7; // lui x1, 0
        c.decode(0x8000_0000, 1, nop);
        // Same slot and (wrongly unchanged) version but different word:
        // the word check must force a re-decode.
        let got = c.decode(0x8000_0000, 1, lui);
        assert_eq!(got, Inst::decode(lui).ok());
        assert_eq!(c.stats.hits, 0);
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn illegal_words_are_memoized_too() {
        let mut c = DecodeCache::new();
        let bad = 0xFFFF_FFFF;
        assert_eq!(c.decode(0x8000_0000, 1, bad), None);
        assert_eq!(c.decode(0x8000_0000, 1, bad), None);
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn clone_is_cold() {
        let mut c = DecodeCache::new();
        c.decode(0x8000_0000, 1, 0x0000_0013);
        let d = c.clone();
        assert_eq!(d.resident_pages(), 0);
        assert_eq!(d.stats, DecodeCacheStats::default());
    }

    #[test]
    fn capacity_is_bounded() {
        let mut c = DecodeCache::new();
        for p in 0..(MAX_PAGES as u64 + 8) {
            c.decode(0x8000_0000 + p * PAGE_SIZE, 1, 0x0000_0013);
        }
        assert!(c.resident_pages() <= MAX_PAGES);
    }
}
