//! Set-associative caches and the line-fill buffer (LFB/MSHR).
//!
//! The hierarchy is modeled write-through (stores propagate to every level
//! and memory at commit). This keeps all levels coherent without a
//! writeback protocol while preserving every leakage-relevant behaviour:
//! write-allocate still pulls the *old* line through the LFB (paper case
//! D3), and fills still deposit whole cache lines of another domain's data
//! into the LFB and L1D (cases D1/D2).

use serde::{Deserialize, Serialize};

use crate::trace::{Domain, FillPurpose};

/// One cache line, as seen through [`Cache::valid_lines`] and
/// [`Cache::peek_line`]: the way's metadata plus a borrow of its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine<'a> {
    /// Valid bit.
    pub valid: bool,
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

/// Per-way metadata; the way's payload sits at the same slot index in
/// [`Cache`]'s flat byte array, and its valid bit in the live bitset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineMeta {
    line_addr: u64,
    last_use: u64,
    fill_domain: Domain,
}

/// The metadata of a slot that holds no line.
const EMPTY: LineMeta = LineMeta {
    line_addr: 0,
    last_use: 0,
    fill_domain: Domain::Untrusted,
};

/// The set bits of one bitset word, lowest first.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// A physically indexed, physically tagged set-associative cache.
///
/// Metadata and payloads live in two flat arrays (one entry and one
/// `line_size`-byte run per way slot), and a bitset marks the slots that
/// hold a line. A slot that holds no line is always empty (zero metadata
/// and payload): invalidating or flushing a line resets its slot. So
/// [`Clone::clone_from`] copies only the slots live in the source or the
/// destination, into the destination's buffers, and still leaves every
/// array bit-identical to a full copy; debug builds check each copy
/// against the full one. Forking a cache that holds a few dozen lines
/// copies a few dozen lines, whatever its geometry.
#[derive(Debug)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_size: u64,
    /// One bit per way slot, set while the slot holds a line.
    live: Vec<u64>,
    meta: Vec<LineMeta>,
    payload: Vec<u8>,
    use_counter: u64,
}

impl Clone for Cache {
    fn clone(&self) -> Cache {
        let mut cache = Cache::new(self.sets, self.ways, self.line_size);
        cache.clone_from(self);
        cache
    }

    /// Makes `self` a copy of `source` through the slots live on either
    /// side: a slot live in `source` is copied, and one live only here is
    /// reset. A cache of another geometry is first replaced by an empty
    /// one.
    fn clone_from(&mut self, source: &Cache) {
        let Cache {
            sets,
            ways,
            line_size,
            live,
            meta: _,
            payload: _,
            use_counter,
        } = source;
        if (self.sets, self.ways, self.line_size) != (*sets, *ways, *line_size) {
            *self = Cache::new(*sets, *ways, *line_size);
        }
        for (w, &theirs) in live.iter().enumerate() {
            for bit in Bits(self.live[w] | theirs) {
                let slot = w * 64 + bit;
                if theirs >> bit & 1 != 0 {
                    self.copy_slot(source, slot);
                } else {
                    self.reset(slot);
                }
            }
        }
        self.use_counter = *use_counter;
        #[cfg(debug_assertions)]
        self.check_full_copy(source);
    }
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
        let slots = sets * ways;
        Cache {
            sets,
            ways,
            line_size,
            live: vec![0; slots.div_ceil(64)],
            meta: vec![EMPTY; slots],
            payload: vec![0; slots * line_size as usize],
            use_counter: 0,
        }
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

    fn is_live(&self, slot: usize) -> bool {
        self.live[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// The live slots in ascending order.
    fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (self.live.iter().enumerate()).flat_map(|(w, &bits)| Bits(bits).map(move |b| w * 64 + b))
    }

    fn find(&self, line_addr: u64) -> Option<usize> {
        self.set_range(line_addr)
            .find(|&i| self.is_live(i) && self.meta[i].line_addr == line_addr)
    }

    fn bytes(&self, slot: usize) -> &[u8] {
        let n = self.line_size as usize;
        &self.payload[slot * n..(slot + 1) * n]
    }

    fn bytes_mut(&mut self, slot: usize) -> &mut [u8] {
        let n = self.line_size as usize;
        &mut self.payload[slot * n..(slot + 1) * n]
    }

    /// Empties `slot`: clears its valid bit and zeroes its metadata and
    /// payload, the state every slot without a line is in.
    fn reset(&mut self, slot: usize) {
        self.live[slot / 64] &= !(1 << (slot % 64));
        self.meta[slot] = EMPTY;
        self.bytes_mut(slot).fill(0);
    }

    /// Copies `source`'s line at `slot` into the same slot here.
    fn copy_slot(&mut self, source: &Cache, slot: usize) {
        self.live[slot / 64] |= 1 << (slot % 64);
        self.meta[slot] = source.meta[slot];
        self.bytes_mut(slot).copy_from_slice(source.bytes(slot));
    }

    /// Debug-build reference of [`Cache::clone_from`]: every array equals
    /// `source`'s, as a full copy would leave it.
    #[cfg(debug_assertions)]
    fn check_full_copy(&self, source: &Cache) {
        if self.live == source.live
            && self.meta == source.meta
            && self.payload == source.payload
            && self.use_counter == source.use_counter
        {
            return;
        }
        let n = self.line_size as usize;
        let slot = (0..self.meta.len()).find(|&i| {
            self.is_live(i) != source.is_live(i)
                || self.meta[i] != source.meta[i]
                || self.bytes(i) != source.bytes(i)
        });
        panic!("live-line copy leaves slot {slot:?} of {n}-byte lines unlike a full copy of the source cache");
    }

    /// Stamps `slot` as the most recently used way.
    fn touch(&mut self, slot: usize) {
        self.use_counter += 1;
        self.meta[slot].last_use = self.use_counter;
    }

    fn view(&self, slot: usize) -> CacheLine<'_> {
        let w = self.meta[slot];
        CacheLine {
            valid: self.is_live(slot),
            line_addr: w.line_addr,
            data: self.bytes(slot),
            last_use: w.last_use,
            fill_domain: w.fill_domain,
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
        let bytes = &self.bytes(slot)[off..off + len as usize];
        Some(bytes.iter().rev().fold(0, |v, &b| (v << 8) | b as u64))
    }

    /// Reads the whole line at `line_addr` on a hit, updating LRU state
    /// once (a line refill, not `line_size` byte accesses).
    pub fn read_line(&mut self, line_addr: u64) -> Option<&[u8]> {
        let slot = self.find(line_addr)?;
        self.touch(slot);
        Some(self.bytes(slot))
    }

    /// Writes `len` bytes at `addr` on a hit. Returns `false` on a miss.
    pub fn write(&mut self, addr: u64, value: u64, len: u64) -> bool {
        let la = self.line_addr(addr);
        let Some(slot) = self.find(la) else {
            return false;
        };
        self.touch(slot);
        let off = (addr - la) as usize;
        let bytes = &mut self.bytes_mut(slot)[off..off + len as usize];
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
                match range.clone().find(|&i| !self.is_live(i)) {
                    Some(empty) => (empty, None),
                    None => {
                        let victim = range
                            .min_by_key(|&i| self.meta[i].last_use)
                            .expect("ways >= 1");
                        (victim, Some(self.meta[victim].line_addr))
                    }
                }
            }
        };
        self.live[slot / 64] |= 1 << (slot % 64);
        self.touch(slot);
        let w = &mut self.meta[slot];
        w.line_addr = line_addr;
        w.fill_domain = domain;
        self.bytes_mut(slot).copy_from_slice(data);
        evicted
    }

    /// Invalidates the line containing `addr`, if present.
    pub fn invalidate(&mut self, addr: u64) {
        if let Some(slot) = self.find(self.line_addr(addr)) {
            self.reset(slot);
        }
    }

    /// Invalidates every line.
    pub fn flush_all(&mut self) {
        for w in 0..self.live.len() {
            for bit in Bits(self.live[w]) {
                self.reset(w * 64 + bit);
            }
        }
    }

    /// Iterates currently valid lines in ascending slot order (for
    /// snapshot-based checks).
    pub fn valid_lines(&self) -> impl Iterator<Item = CacheLine<'_>> {
        self.live_slots().map(|i| self.view(i))
    }

    /// Number of valid lines.
    pub fn valid_count(&self) -> usize {
        self.live.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// State of a line-fill-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LfbState {
    /// Request outstanding; no data yet.
    Pending,
    /// Fill completed; data resides in the buffer until the entry is
    /// *reallocated* (residual data — this persistence is case D3's leak).
    Filled,
}

/// One LFB/MSHR entry.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LfbEntry {
    /// Entry holds a live or residual request.
    pub valid: bool,
    /// Line address of the fill.
    pub line_addr: u64,
    /// Fill payload (valid once `state == Filled`).
    pub data: Vec<u8>,
    /// Request state.
    pub state: LfbState,
    /// What initiated the fill.
    pub purpose: FillPurpose,
    /// Domain active when the data arrived.
    pub fill_domain: Domain,
    /// Cycle the data arrived.
    pub fill_cycle: u64,
}

impl Clone for LfbEntry {
    fn clone(&self) -> LfbEntry {
        LfbEntry {
            data: self.data.clone(),
            ..*self
        }
    }

    /// Copies `source` into this entry's payload buffer.
    fn clone_from(&mut self, source: &LfbEntry) {
        let LfbEntry {
            valid,
            line_addr,
            ref data,
            state,
            purpose,
            fill_domain,
            fill_cycle,
        } = *source;
        self.data.clone_from(data);
        *self = LfbEntry {
            valid,
            line_addr,
            data: std::mem::take(&mut self.data),
            state,
            purpose,
            fill_domain,
            fill_cycle,
        };
    }
}

/// The line-fill buffer (doubles as the MSHR file). Cloning copies every
/// entry; [`Clone::clone_from`] copies them into the destination's
/// entries and payload buffers.
#[derive(Debug, Serialize, Deserialize)]
pub struct Lfb {
    entries: Vec<LfbEntry>,
    line_size: u64,
    alloc_clock: u64,
    alloc_stamp: Vec<u64>,
}

impl Clone for Lfb {
    fn clone(&self) -> Lfb {
        let mut lfb = Lfb::new(self.entries.len(), self.line_size);
        lfb.clone_from(self);
        lfb
    }

    fn clone_from(&mut self, source: &Lfb) {
        let Lfb {
            entries,
            line_size,
            alloc_clock,
            alloc_stamp,
        } = source;
        self.entries.clone_from(entries);
        self.line_size = *line_size;
        self.alloc_clock = *alloc_clock;
        self.alloc_stamp.clone_from(alloc_stamp);
    }
}

impl Lfb {
    /// Creates an LFB with `n` entries.
    pub fn new(n: usize, line_size: u64) -> Lfb {
        let e = LfbEntry {
            valid: false,
            line_addr: 0,
            data: vec![0; line_size as usize],
            state: LfbState::Filled,
            purpose: FillPurpose::Demand,
            fill_domain: Domain::Untrusted,
            fill_cycle: 0,
        };
        Lfb {
            entries: vec![e; n],
            line_size,
            alloc_clock: 0,
            alloc_stamp: vec![0; n],
        }
    }

    /// Allocates an entry for a new outstanding fill.
    ///
    /// Prefers invalid entries, then the oldest *completed* entry (whose
    /// residual data is thereby finally displaced). Returns `None` when
    /// every entry is still pending (structural stall).
    pub fn allocate(&mut self, line_addr: u64, purpose: FillPurpose) -> Option<usize> {
        let idx = self.entries.iter().position(|e| !e.valid).or_else(|| {
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.state == LfbState::Filled)
                .min_by_key(|&(i, _)| self.alloc_stamp[i])
                .map(|(i, _)| i)
        })?;
        self.alloc_clock += 1;
        self.alloc_stamp[idx] = self.alloc_clock;
        let e = &mut self.entries[idx];
        e.valid = true;
        e.line_addr = line_addr;
        e.state = LfbState::Pending;
        e.purpose = purpose;
        e.data.fill(0);
        Some(idx)
    }

    /// Marks entry `idx` filled with a copy of `data`.
    pub fn complete(&mut self, idx: usize, data: &[u8], domain: Domain, cycle: u64) {
        debug_assert_eq!(data.len() as u64, self.line_size);
        let e = &mut self.entries[idx];
        debug_assert!(e.valid && e.state == LfbState::Pending);
        e.data.copy_from_slice(data);
        e.state = LfbState::Filled;
        e.fill_domain = domain;
        e.fill_cycle = cycle;
    }

    /// Is a fill for this line already outstanding? (Request merging.)
    pub fn pending_for(&self, line_addr: u64) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.valid && e.state == LfbState::Pending && e.line_addr == line_addr)
    }

    /// Invalidates a single entry, dropping its residual data (models a
    /// design that releases MSHR data on refill completion).
    pub fn invalidate_entry(&mut self, idx: usize) {
        self.entries[idx].valid = false;
        self.entries[idx].data.fill(0);
    }

    /// Invalidates every entry (mitigation flush).
    pub fn flush_all(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
            e.data.fill(0);
        }
    }

    /// Entry accessor.
    pub fn entry(&self, idx: usize) -> &LfbEntry {
        &self.entries[idx]
    }

    /// All entries (tests and snapshot checks).
    pub fn entries(&self) -> &[LfbEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the LFB has no entries (never the case in a validated
    /// configuration).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Valid entries whose residual data belongs to a trusted domain —
    /// convenience for tests mirroring the checker's P1 scan.
    pub fn residual_trusted_entries(&self) -> impl Iterator<Item = &LfbEntry> {
        self.entries
            .iter()
            .filter(|e| e.valid && e.state == LfbState::Filled && e.fill_domain.is_trusted())
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
        assert_eq!(c.valid_lines().count(), 1);
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
        assert_eq!(c.valid_lines().count(), 0);
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
        let e = lfb.entry(idx);
        assert_eq!(e.state, LfbState::Filled);
        assert!(e.data.iter().all(|&b| b == 0x42));
        assert_eq!(lfb.residual_trusted_entries().count(), 1);
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
        assert_eq!(lfb.residual_trusted_entries().count(), 0);
        assert!(lfb.entries().iter().all(|e| !e.valid));
    }
}
