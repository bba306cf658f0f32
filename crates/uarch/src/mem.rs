//! Sparse physical memory backing the simulated SoC.
//!
//! Pages are reference-counted and copy-on-write: cloning a `Memory` (as
//! platform snapshotting does) shares every backed page, and a page is only
//! physically duplicated when one of the clones writes to it. The memory
//! half of forking a platform from a snapshot is therefore O(backed pages)
//! pointer copies, not a full memory copy; the core's slotted storage
//! structures add a copy of their live slots only.
//!
//! Writes carry no per-page version, because nothing outside the modeled
//! structures caches state derived from memory: the core's fetch memo
//! holds words of a resident L1I line, which (as in hardware) does not see
//! memory writes until `fence.i` flushes it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use teesec_derive::CloneFrom;
use teesec_isa::vm::PAGE_SIZE;

const PAGE: usize = PAGE_SIZE as usize;

/// Byte-addressable sparse physical memory. Unbacked locations read as zero.
/// [`Clone::clone_from`] shares the source's pages through this memory's
/// page table.
#[derive(Debug, Default, CloneFrom)]
pub struct Memory {
    pages: HashMap<u64, Arc<[u8; PAGE]>, BuildHasherDefault<PageHasher>>,
}

/// Hashes a page number with one multiply by an odd constant (Fibonacci
/// hashing). Every core store, fill and build write and every ISS fetch
/// and page-walk read looks a page up, and page numbers are not chosen by
/// an adversary, so SipHash's flood resistance buys nothing here. The
/// product's high bits mix every bit of the page number, and its low bits
/// keep neighbouring pages in distinct buckets. Nothing depends on the
/// map's iteration order: every walk over it sorts.
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8] {
        let page = self
            .pages
            .entry(addr / PAGE_SIZE)
            .or_insert_with(|| Arc::new([0u8; PAGE]));
        // Copy-on-write: duplicate the page only if a snapshot still
        // shares it.
        &mut Arc::make_mut(page)[..]
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(p) => p[(addr % PAGE_SIZE) as usize],
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
                Some(p) => buf[done..run].copy_from_slice(&p[off..off + (run - done)]),
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
                    v = (v << 8) | p[off + i] as u64;
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
            .filter(|(key, page)| other.pages.get(key).is_none_or(|o| !Arc::ptr_eq(o, page)))
            .map(|(&key, _)| key)
            .chain(
                (other.pages.keys())
                    .filter(|key| !self.pages.contains_key(key))
                    .copied(),
            )
            .collect();
        keys.sort_unstable();
        fn page(m: &Memory, key: u64) -> &[u8; PAGE] {
            m.pages.get(&key).map_or(&ZERO, |p| &**p)
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
        assert!(Arc::ptr_eq(&a.pages[&1], &b.pages[&1]));
        b.write_u64(0x1000, 0xCCCC);
        assert!(
            !Arc::ptr_eq(&a.pages[&1], &b.pages[&1]),
            "written page split"
        );
        assert!(
            Arc::ptr_eq(&a.pages[&3], &b.pages[&3]),
            "untouched page shared"
        );
        assert_eq!(a.read_u64(0x1000), 0xAAAA, "original unaffected");
        assert_eq!(b.read_u64(0x1000), 0xCCCC);
        assert_eq!(b.read_u64(0x3000), 0xBBBB);
    }

    #[test]
    fn byte_order_is_little_endian() {
        let mut m = Memory::new();
        m.write_u32(0x2000, 0x0102_0304);
        assert_eq!(m.read_u8(0x2000), 0x04);
        assert_eq!(m.read_u8(0x2003), 0x01);
    }
}
