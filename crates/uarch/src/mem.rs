//! Sparse physical memory backing the simulated SoC.
//!
//! Pages are reference-counted and copy-on-write: cloning a `Memory` (as
//! platform snapshotting does) shares every backed page, and a page is only
//! physically duplicated when one of the clones writes to it. The memory
//! half of forking a platform from a snapshot is therefore O(backed pages)
//! pointer copies, not a full memory copy; the core's storage structures
//! add a copy of their few flat buffers each.

use std::collections::HashMap;
use std::sync::Arc;

use teesec_isa::vm::PAGE_SIZE;

const PAGE: usize = PAGE_SIZE as usize;

/// A backed page plus its write-version, used by consumers that cache
/// derived per-page state (the fetch-stage decode cache) to detect
/// staleness without comparing bytes.
#[derive(Debug, Clone)]
struct PageSlot {
    data: Arc<[u8; PAGE]>,
    /// Bumped exactly once per mutable access to the page. Unbacked pages
    /// are version 0, so the first write yields version 1.
    version: u64,
}

/// Byte-addressable sparse physical memory. Unbacked locations read as zero.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, PageSlot>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8] {
        let key = addr / PAGE_SIZE;
        let slot = self.pages.entry(key).or_insert_with(|| PageSlot {
            data: Arc::new([0u8; PAGE]),
            version: 0,
        });
        // Every mutable access conservatively counts as a write: derived
        // caches keyed on the version re-validate, which is always sound.
        slot.version += 1;
        // Copy-on-write: duplicate the page only if a snapshot still
        // shares it.
        &mut Arc::make_mut(&mut slot.data)[..]
    }

    /// The write-version of the page containing `addr` (0 when unbacked).
    ///
    /// The version is bumped exactly once per mutating call per touched
    /// page — in particular [`Memory::write_bytes`] spanning a page
    /// boundary bumps each touched page once, not once per byte — and
    /// versions advance independently in each half of a CoW clone pair.
    pub fn page_version(&self, addr: u64) -> u64 {
        self.pages.get(&(addr / PAGE_SIZE)).map_or(0, |s| s.version)
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(p) => p.data[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let off = (addr % PAGE_SIZE) as usize;
        self.page_mut(addr)[off] = v;
    }

    /// Reads `buf.len()` bytes starting at `addr`, one page lookup per
    /// touched page instead of one per byte.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr + done as u64;
            let off = (a % PAGE_SIZE) as usize;
            let run = buf.len().min(done + PAGE - off);
            match self.pages.get(&(a / PAGE_SIZE)) {
                Some(p) => buf[done..run].copy_from_slice(&p.data[off..off + (run - done)]),
                None => buf[done..run].fill(0),
            }
            done = run;
        }
    }

    /// Writes `data` starting at `addr`, one page lookup per touched page.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut done = 0usize;
        while done < data.len() {
            let a = addr + done as u64;
            let off = (a % PAGE_SIZE) as usize;
            let run = data.len().min(done + PAGE - off);
            self.page_mut(a)[off..off + (run - done)].copy_from_slice(&data[done..run]);
            done = run;
        }
    }

    /// Reads a little-endian value of `len` bytes (`len <= 8`).
    pub fn read_uint(&self, addr: u64, len: u64) -> u64 {
        debug_assert!(len <= 8);
        let off = (addr % PAGE_SIZE) as usize;
        // Fast path: the access stays within one page (the overwhelmingly
        // common case), so a single lookup serves every byte.
        if off + len as usize <= PAGE {
            let mut v = 0u64;
            if let Some(p) = self.pages.get(&(addr / PAGE_SIZE)) {
                for i in (0..len as usize).rev() {
                    v = (v << 8) | p.data[off + i] as u64;
                }
            }
            return v;
        }
        let mut v = 0u64;
        for i in (0..len).rev() {
            v = (v << 8) | self.read_u8(addr + i) as u64;
        }
        v
    }

    /// Writes a little-endian value of `len` bytes (`len <= 8`).
    pub fn write_uint(&mut self, addr: u64, v: u64, len: u64) {
        debug_assert!(len <= 8);
        let off = (addr % PAGE_SIZE) as usize;
        if off + len as usize <= PAGE {
            let page = self.page_mut(addr);
            for i in 0..len as usize {
                page[off + i] = (v >> (8 * i)) as u8;
            }
            return;
        }
        for i in 0..len {
            self.write_u8(addr + i, (v >> (8 * i)) as u8);
        }
    }

    /// Reads a 32-bit little-endian word (instruction fetch granule).
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_uint(addr, 4) as u32
    }

    /// Writes a 32-bit little-endian word.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_uint(addr, v as u64, 4)
    }

    /// Reads a 64-bit little-endian doubleword.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_uint(addr, 8)
    }

    /// Writes a 64-bit little-endian doubleword.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_uint(addr, v, 8)
    }

    /// Loads a program image (32-bit words) at `base`.
    pub fn load_words(&mut self, base: u64, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.write_u32(base + 4 * i as u64, *w);
        }
    }

    /// Number of distinct backed pages (for tests/diagnostics).
    pub fn backed_pages(&self) -> usize {
        self.pages.len()
    }

    /// Base addresses of all backed pages, sorted ascending. Unbacked pages
    /// read as zero, so two memories are equal iff every page backed in
    /// *either* compares equal — the contract differential memory
    /// comparison relies on.
    pub fn page_base_addrs(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.pages.keys().map(|k| k * PAGE_SIZE).collect();
        v.sort_unstable();
        v
    }

    /// The first byte address at which `self` and `other` differ, scanning
    /// the union of both memories' backed pages in address order. Pages
    /// compare whole; a page both memories still share through one
    /// copy-on-write allocation is equal without a look, and a page backed
    /// on one side only compares against zeros.
    pub fn first_difference(&self, other: &Memory) -> Option<u64> {
        static ZERO: [u8; PAGE] = [0; PAGE];
        // Candidate pages: backed on one side only, or backed on both but
        // no longer the same allocation.
        let mut keys: Vec<u64> = (self.pages.iter())
            .filter(|(key, slot)| {
                other
                    .pages
                    .get(key)
                    .is_none_or(|o| !Arc::ptr_eq(&o.data, &slot.data))
            })
            .map(|(&key, _)| key)
            .chain(
                (other.pages.keys())
                    .filter(|key| !self.pages.contains_key(key))
                    .copied(),
            )
            .collect();
        keys.sort_unstable();
        fn page(m: &Memory, key: u64) -> &[u8; PAGE] {
            m.pages.get(&key).map_or(&ZERO, |s| &s.data)
        }
        keys.into_iter().find_map(|key| {
            let (a, b) = (page(self, key), page(other, key));
            if a == b {
                return None;
            }
            let off = a.iter().zip(b.iter()).position(|(x, y)| x != y)?;
            Some(key * PAGE_SIZE + off as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbacked_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0xdead_0000), 0);
        assert_eq!(m.read_u8(12345), 0);
    }

    #[test]
    fn rw_roundtrip_all_widths() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(0x1000), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u32(0x1000), 0x5566_7788);
        assert_eq!(m.read_uint(0x1004, 2), 0x3344);
        assert_eq!(m.read_u8(0x1007), 0x11);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.write_u64(0x1FFC, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read_u64(0x1FFC), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.backed_pages(), 2);
    }

    #[test]
    fn load_words_places_instructions() {
        let mut m = Memory::new();
        m.load_words(0x8000_0000, &[0x1111_1111, 0x2222_2222]);
        assert_eq!(m.read_u32(0x8000_0000), 0x1111_1111);
        assert_eq!(m.read_u32(0x8000_0004), 0x2222_2222);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut a = Memory::new();
        a.write_u64(0x1000, 0xAAAA);
        a.write_u64(0x3000, 0xBBBB);
        let mut b = a.clone();
        // Clone shares every backed page until one side writes.
        assert!(Arc::ptr_eq(&a.pages[&1].data, &b.pages[&1].data));
        b.write_u64(0x1000, 0xCCCC);
        assert!(
            !Arc::ptr_eq(&a.pages[&1].data, &b.pages[&1].data),
            "written page split"
        );
        assert!(
            Arc::ptr_eq(&a.pages[&3].data, &b.pages[&3].data),
            "untouched page shared"
        );
        assert_eq!(a.read_u64(0x1000), 0xAAAA, "original unaffected");
        assert_eq!(b.read_u64(0x1000), 0xCCCC);
        assert_eq!(b.read_u64(0x3000), 0xBBBB);
    }

    #[test]
    fn page_version_starts_at_zero_and_tracks_writes() {
        let mut m = Memory::new();
        assert_eq!(m.page_version(0x1000), 0, "unbacked page is version 0");
        m.write_u8(0x1000, 1);
        assert_eq!(m.page_version(0x1000), 1);
        m.write_u64(0x1800, 7);
        assert_eq!(m.page_version(0x1000), 2, "same page, any width");
        assert_eq!(m.page_version(0x2000), 0, "neighbour untouched");
    }

    #[test]
    fn write_bytes_bumps_each_touched_page_exactly_once() {
        let mut m = Memory::new();
        // Pre-back three pages so the baseline versions are all 1.
        for p in 0..3u64 {
            m.write_u8(0x1000 + p * PAGE_SIZE, 0);
        }
        let v0: Vec<u64> = (0..3)
            .map(|p| m.page_version(0x1000 + p * PAGE_SIZE))
            .collect();
        // One write spanning all three pages: page-chunked path must bump
        // each touched page's version exactly once, not once per byte.
        let data = vec![0xAB; (2 * PAGE_SIZE + 64) as usize];
        m.write_bytes(0x1FF0, &data);
        for p in 0..3u64 {
            assert_eq!(
                m.page_version(0x1000 + p * PAGE_SIZE),
                v0[p as usize] + 1,
                "page {p} must be bumped exactly once by one spanning write"
            );
        }
    }

    #[test]
    fn clone_halves_version_independently() {
        let mut a = Memory::new();
        a.write_u8(0x1000, 1);
        let mut b = a.clone();
        assert_eq!(b.page_version(0x1000), a.page_version(0x1000));
        b.write_u8(0x1000, 2);
        assert_eq!(b.page_version(0x1000), 2);
        assert_eq!(a.page_version(0x1000), 1, "CoW split leaves origin alone");
        a.write_u8(0x1000, 3);
        assert_eq!(a.page_version(0x1000), 2, "each half advances on its own");
    }

    #[test]
    fn byte_order_is_little_endian() {
        let mut m = Memory::new();
        m.write_u32(0x2000, 0x0102_0304);
        assert_eq!(m.read_u8(0x2000), 0x04);
        assert_eq!(m.read_u8(0x2003), 0x01);
    }
}
