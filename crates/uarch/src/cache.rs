//! Set-associative caches and the line-fill buffer (LFB/MSHR).
//!
//! The hierarchy is modeled write-through (stores propagate to every level
//! and memory at commit). This keeps all levels coherent without a
//! writeback protocol while preserving every leakage-relevant behaviour:
//! write-allocate still pulls the *old* line through the LFB (paper case
//! D3), and fills still deposit whole cache lines of another domain's data
//! into the LFB and L1D (cases D1/D2).

use teesec_derive::CloneFrom;

use crate::slots::Slots;
use crate::trace::{Domain, FillPurpose};

/// One cache line, as [`Cache::peek_line`] returns it: the way's metadata
/// plus a borrow of its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine<'a> {
    /// Full line address (line-aligned physical address; doubles as tag).
    pub line_addr: u64,
    /// Line payload.
    pub data: &'a [u8],
    /// LRU timestamp (higher = more recent).
    pub last_use: u64,
    /// Domain that caused the fill (diagnostic; the checker works from the
    /// trace, but snapshots are useful in tests).
    pub fill_domain: Domain,
}

/// The metadata of one way; its payload is the slot's payload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineMeta {
    /// Full line address (line-aligned physical address; doubles as tag).
    pub line_addr: u64,
    /// LRU timestamp (higher = more recent).
    pub last_use: u64,
    /// Domain that caused the fill.
    pub fill_domain: Domain,
}

/// A physically indexed, physically tagged set-associative cache.
///
/// Each way is a slot of a live-slot table ([`Slots`]) whose payload is
/// the line, so a fork copies only the live lines, whatever the cache's
/// geometry.
#[derive(Debug, CloneFrom)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_size: u64,
    lines: Slots<LineMeta>,
    use_counter: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` and `line_size` are powers of two.
    pub fn new(sets: usize, ways: usize, line_size: u64) -> Cache {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            sets,
            ways,
            line_size,
            lines: Slots::new(sets * ways, line_size as usize),
            use_counter: 0,
        }
    }

    /// The ways, one slot each, in set order.
    pub fn slots(&self) -> &Slots<LineMeta> {
        &self.lines
    }

    /// The line-aligned address containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_size - 1)
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr / self.line_size) as usize) & (self.sets - 1)
    }

    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        let s = self.set_index(line_addr);
        s * self.ways..(s + 1) * self.ways
    }

    fn find(&self, line_addr: u64) -> Option<usize> {
        self.set_range(line_addr)
            .find(|&i| self.lines.get(i).is_some_and(|m| m.line_addr == line_addr))
    }

    /// Stamps `slot` as the most recently used way.
    fn touch(&mut self, slot: usize) {
        self.use_counter += 1;
        self.lines.entry_mut(slot).last_use = self.use_counter;
    }

    fn view(&self, slot: usize) -> CacheLine<'_> {
        let m = self.lines.get(slot).expect("a live way");
        CacheLine {
            line_addr: m.line_addr,
            data: self.lines.bytes(slot),
            last_use: m.last_use,
            fill_domain: m.fill_domain,
        }
    }

    /// `true` if the line containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(self.line_addr(addr)).is_some()
    }

    /// Reads `len` bytes at `addr` on a hit, updating LRU state.
    pub fn read(&mut self, addr: u64, len: u64) -> Option<u64> {
        let la = self.line_addr(addr);
        // Accesses are assumed not to straddle lines (the LSU splits them).
        let slot = self.find(la)?;
        self.touch(slot);
        let off = (addr - la) as usize;
        let bytes = &self.lines.bytes(slot)[off..off + len as usize];
        Some(bytes.iter().rev().fold(0, |v, &b| (v << 8) | b as u64))
    }

    /// Reads the whole line at `line_addr` on a hit, updating LRU state
    /// once (a line refill, not `line_size` byte accesses).
    pub fn read_line(&mut self, line_addr: u64) -> Option<&[u8]> {
        let slot = self.find(line_addr)?;
        self.touch(slot);
        Some(self.lines.bytes(slot))
    }

    /// Writes `len` bytes at `addr` on a hit. Returns `false` on a miss.
    pub fn write(&mut self, addr: u64, value: u64, len: u64) -> bool {
        let la = self.line_addr(addr);
        let Some(slot) = self.find(la) else {
            return false;
        };
        self.touch(slot);
        let off = (addr - la) as usize;
        let bytes = &mut self.lines.bytes_mut(slot)[off..off + len as usize];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (value >> (8 * i)) as u8;
        }
        true
    }

    /// The line containing `addr`, if present.
    pub fn peek_line(&self, addr: u64) -> Option<CacheLine<'_>> {
        self.find(self.line_addr(addr)).map(|i| self.view(i))
    }

    /// Installs a copy of `data` as the line at `line_addr`, evicting the
    /// set's LRU way if needed. Returns the evicted line's address if one
    /// was displaced.
    pub fn fill(&mut self, line_addr: u64, data: &[u8], domain: Domain) -> Option<u64> {
        debug_assert_eq!(
            line_addr & (self.line_size - 1),
            0,
            "fill address must be line aligned"
        );
        debug_assert_eq!(data.len() as u64, self.line_size);
        // Re-fill in place if already present.
        let (slot, evicted) = match self.find(line_addr) {
            Some(slot) => (slot, None),
            None => {
                let range = self.set_range(line_addr);
                match range.clone().find(|&i| !self.lines.is_live(i)) {
                    Some(empty) => (empty, None),
                    None => {
                        let victim = range
                            .min_by_key(|&i| self.lines.get(i).map(|m| m.last_use))
                            .expect("ways >= 1");
                        (victim, self.lines.get(victim).map(|m| m.line_addr))
                    }
                }
            }
        };
        self.use_counter += 1;
        let meta = LineMeta {
            line_addr,
            last_use: self.use_counter,
            fill_domain: domain,
        };
        self.lines.set(slot, meta).copy_from_slice(data);
        evicted
    }

    /// Invalidates the line containing `addr`, if present.
    pub fn invalidate(&mut self, addr: u64) {
        if let Some(slot) = self.find(self.line_addr(addr)) {
            self.lines.reset(slot);
        }
    }

    /// Invalidates every line.
    pub fn flush_all(&mut self) {
        self.lines.flush_all();
    }
}

/// State of a line-fill-buffer entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LfbState {
    /// Request outstanding; no data yet.
    Pending,
    /// Fill completed; data resides in the buffer until the entry is
    /// *reallocated* (residual data — this persistence is case D3's leak).
    #[default]
    Filled,
}

/// One LFB/MSHR entry. Its payload, the filled line, is the slot's
/// payload: zeros until the fill completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LfbEntry {
    /// Line address of the fill.
    pub line_addr: u64,
    /// Request state.
    pub state: LfbState,
    /// What initiated the fill.
    pub purpose: FillPurpose,
    /// Domain active when the data arrived.
    pub fill_domain: Domain,
    /// Cycle the data arrived.
    pub fill_cycle: u64,
    /// Allocation stamp (higher = newer): the oldest completed entry is
    /// reallocated first.
    pub alloc_stamp: u64,
}

/// The line-fill buffer (doubles as the MSHR file): a live-slot table
/// ([`Slots`]) of entries whose payloads are the filled lines. An entry
/// stays live, residual data included, until it is reallocated, released
/// or flushed.
#[derive(Debug, PartialEq, Eq, CloneFrom)]
pub struct Lfb {
    entries: Slots<LfbEntry>,
    alloc_clock: u64,
}

impl Lfb {
    /// Creates an LFB with `n` entries.
    pub fn new(n: usize, line_size: u64) -> Lfb {
        Lfb {
            entries: Slots::new(n, line_size as usize),
            alloc_clock: 0,
        }
    }

    /// The entries, one slot each, with their lines as payloads.
    pub fn slots(&self) -> &Slots<LfbEntry> {
        &self.entries
    }

    /// Allocates an entry for a new outstanding fill.
    ///
    /// Prefers free entries, then the oldest *completed* entry (whose
    /// residual data is thereby finally displaced). Returns `None` when
    /// every entry is still pending (structural stall).
    pub fn allocate(&mut self, line_addr: u64, purpose: FillPurpose) -> Option<usize> {
        let idx = self.entries.first_free().or_else(|| {
            (self.entries.live())
                .filter(|(_, e)| e.state == LfbState::Filled)
                .min_by_key(|(_, e)| e.alloc_stamp)
                .map(|(i, _)| i)
        })?;
        self.alloc_clock += 1;
        let entry = LfbEntry {
            line_addr,
            state: LfbState::Pending,
            purpose,
            alloc_stamp: self.alloc_clock,
            ..LfbEntry::default()
        };
        self.entries.set(idx, entry).fill(0);
        Some(idx)
    }

    /// Marks live entry `idx` filled with a copy of `data`.
    pub fn complete(&mut self, idx: usize, data: &[u8], domain: Domain, cycle: u64) {
        let e = self.entries.entry_mut(idx);
        debug_assert_eq!(e.state, LfbState::Pending);
        e.state = LfbState::Filled;
        e.fill_domain = domain;
        e.fill_cycle = cycle;
        self.entries.bytes_mut(idx).copy_from_slice(data);
    }

    /// Is a fill for this line already outstanding? (Request merging.)
    pub fn pending_for(&self, line_addr: u64) -> Option<usize> {
        self.entries
            .find(|e| e.state == LfbState::Pending && e.line_addr == line_addr)
    }

    /// Invalidates a single entry, dropping its residual data (models a
    /// design that releases MSHR data on refill completion).
    pub fn invalidate_entry(&mut self, idx: usize) {
        self.entries.reset(idx);
    }

    /// Invalidates every entry (mitigation flush).
    pub fn flush_all(&mut self) {
        self.entries.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(b: u8) -> [u8; 64] {
        [b; 64]
    }

    #[test]
    fn fill_then_read() {
        let mut c = Cache::new(4, 2, 64);
        let mut data = line(0);
        data[8..16].copy_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
        c.fill(0x1000, &data, Domain::Untrusted);
        assert!(c.contains(0x1008));
        assert_eq!(c.read(0x1008, 8), Some(0xDEAD_BEEF));
        assert_eq!(c.read(0x1040, 8), None); // next line absent
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = Cache::new(1, 2, 64);
        c.fill(0x0000, &line(1), Domain::Untrusted);
        c.fill(0x0040, &line(2), Domain::Untrusted);
        // Touch the first line so the second becomes LRU.
        assert!(c.read(0x0000, 1).is_some());
        let evicted = c
            .fill(0x0080, &line(3), Domain::Untrusted)
            .expect("eviction");
        assert_eq!(evicted, 0x0040);
        assert!(c.contains(0x0000) && c.contains(0x0080) && !c.contains(0x0040));
    }

    #[test]
    fn read_line_returns_payload_and_refreshes_lru() {
        let mut c = Cache::new(1, 2, 64);
        c.fill(0x0000, &line(1), Domain::Untrusted);
        c.fill(0x0040, &line(2), Domain::Untrusted);
        assert_eq!(c.read_line(0x0000), Some(&line(1)[..]));
        assert_eq!(c.read_line(0x0080), None);
        // The whole-line read made 0x0000 most recent: 0x0040 goes.
        assert_eq!(c.fill(0x0080, &line(3), Domain::Untrusted), Some(0x0040));
    }

    #[test]
    fn write_hits_update_data() {
        let mut c = Cache::new(4, 2, 64);
        c.fill(0x2000, &line(0), Domain::Untrusted);
        assert!(c.write(0x2010, 0x55AA, 2));
        assert_eq!(c.read(0x2010, 2), Some(0x55AA));
        assert!(!c.write(0x3000, 1, 8)); // miss
    }

    #[test]
    fn refill_in_place_keeps_single_copy() {
        let mut c = Cache::new(4, 4, 64);
        c.fill(0x1000, &line(1), Domain::Untrusted);
        c.fill(0x1000, &line(2), Domain::Enclave(0));
        assert_eq!(c.slots().live_count(), 1);
        assert_eq!(c.read(0x1000, 1), Some(2));
        assert_eq!(c.peek_line(0x1000).unwrap().fill_domain, Domain::Enclave(0));
    }

    #[test]
    fn flush_and_invalidate() {
        let mut c = Cache::new(4, 2, 64);
        c.fill(0x1000, &line(1), Domain::Untrusted);
        c.fill(0x2000, &line(2), Domain::Untrusted);
        c.invalidate(0x1000);
        assert!(!c.contains(0x1000) && c.contains(0x2000));
        c.flush_all();
        assert_eq!(c.slots().live_count(), 0);
    }

    #[test]
    fn lfb_allocation_prefers_invalid_then_oldest_filled() {
        let mut lfb = Lfb::new(2, 64);
        let a = lfb.allocate(0x1000, FillPurpose::Demand).unwrap();
        let b = lfb.allocate(0x2000, FillPurpose::Demand).unwrap();
        assert_ne!(a, b);
        // Both pending: no entry available.
        assert_eq!(lfb.allocate(0x3000, FillPurpose::Demand), None);
        lfb.complete(a, &line(0xEE), Domain::Enclave(0), 10);
        // Now the filled entry is displaceable.
        let c = lfb.allocate(0x3000, FillPurpose::Prefetch).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn lfb_residual_data_persists_after_completion() {
        let mut lfb = Lfb::new(4, 64);
        let idx = lfb.allocate(0x5000, FillPurpose::StoreRefill).unwrap();
        lfb.complete(idx, &line(0x42), Domain::Enclave(1), 99);
        // Long after the request completed, the secret bytes are still there.
        let e = lfb.slots().get(idx).expect("the entry stays live");
        assert_eq!(e.state, LfbState::Filled);
        assert_eq!(e.fill_domain, Domain::Enclave(1));
        assert!(lfb.slots().bytes(idx).iter().all(|&b| b == 0x42));
    }

    #[test]
    fn lfb_request_merging_lookup() {
        let mut lfb = Lfb::new(4, 64);
        let idx = lfb.allocate(0x7000, FillPurpose::Demand).unwrap();
        assert_eq!(lfb.pending_for(0x7000), Some(idx));
        lfb.complete(idx, &line(0), Domain::Untrusted, 1);
        assert_eq!(lfb.pending_for(0x7000), None);
    }

    #[test]
    fn lfb_flush_clears_residue() {
        let mut lfb = Lfb::new(2, 64);
        let idx = lfb.allocate(0x5000, FillPurpose::Demand).unwrap();
        lfb.complete(idx, &line(0x42), Domain::Enclave(1), 5);
        lfb.flush_all();
        assert_eq!(lfb.slots().live_count(), 0);
        assert!(lfb.slots().bytes(idx).iter().all(|&b| b == 0));
    }
}
