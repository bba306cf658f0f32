//! Property-based tests of the microarchitectural storage structures:
//! caches, fill buffers, TLBs and branch predictors maintain their
//! invariants under arbitrary operation sequences, and every structure
//! built on a live-slot table copies like a full clone.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;

use teesec_isa::vm::{PhysAddr, Pte, VirtAddr};
use teesec_uarch::btb::{BtbEntry, Ftb, Ubtb};
use teesec_uarch::cache::{Cache, Lfb, LfbEntry, LineMeta};
use teesec_uarch::mem::Memory;
use teesec_uarch::slots::Slots;
use teesec_uarch::tlb::{PtwCache, PtwCacheEntry, Tlb, TlbEntry};
use teesec_uarch::trace::{Domain, FillPurpose};

/// A random operation: its kind, a key (an address, PC or slot) and a
/// value.
type Op = (u8, u64, u64);

fn ops(keys: u64) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..32, 0..keys, any::<u64>()), 0..160)
}

proptest! {
    /// A cache behaves like a (partial) map: after a fill, reads return the
    /// filled bytes until the line is displaced; a displaced line reports a
    /// miss. A model HashMap tracks expected contents.
    #[test]
    fn cache_read_after_fill_is_consistent(
        ops in prop::collection::vec((0u64..64, any::<u8>()), 1..80)
    ) {
        let mut cache = Cache::new(4, 2, 64);
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (line_idx, byte) in ops {
            let line_addr = line_idx * 64;
            cache.fill(line_addr, &[byte; 64], Domain::Untrusted);
            model.insert(line_addr, byte);
            // Whatever is still resident must match the model.
            for (&la, &b) in &model {
                if cache.contains(la) {
                    prop_assert_eq!(cache.read(la, 1), Some(b as u64));
                }
            }
            // Structural invariant: at most sets×ways lines resident.
            prop_assert!(cache.slots().live_count() <= 8);
        }
    }

    /// Cache writes modify exactly the targeted bytes of a resident line.
    #[test]
    fn cache_write_is_byte_precise(
        off in 0u64..56,
        value in any::<u64>(),
        len in prop::sample::select(vec![1u64, 2, 4, 8]),
    ) {
        let mut cache = Cache::new(2, 2, 64);
        cache.fill(0x1000, &[0xAA; 64], Domain::Untrusted);
        let off = off / len * len; // align to the width
        prop_assert!(cache.write(0x1000 + off, value, len));
        let mask = if len == 8 { u64::MAX } else { (1 << (len * 8)) - 1 };
        prop_assert_eq!(cache.read(0x1000 + off, len), Some(value & mask));
        // A disjoint byte elsewhere in the line is untouched.
        let other = if off >= 8 { 0 } else { 56 };
        prop_assert_eq!(cache.read(0x1000 + other, 1), Some(0xAA));
    }

    /// LRU against a reference model on a 2-set × 2-way cache: each set is
    /// a recency list (least recently used first) that every hit, write
    /// and fill moves to the back. Every fill's evicted address, every
    /// read's bytes, and the final resident `(line_addr, data,
    /// fill_domain)` set must agree with the model.
    #[test]
    fn cache_matches_recency_list_model(
        ops in prop::collection::vec(
            (
                0u8..16,
                0u64..8,
                any::<u64>(),
                0u64..64,
                prop::sample::select(vec![1u64, 2, 4, 8]),
            ),
            1..120,
        )
    ) {
        const SETS: usize = 2;
        const WAYS: usize = 2;
        let mut cache = Cache::new(SETS, WAYS, 64);
        let mut model: Vec<Vec<(u64, Vec<u8>, Domain)>> = vec![Vec::new(); SETS];
        for (step, (kind, line_idx, value, off, len)) in ops.into_iter().enumerate() {
            let la = line_idx * 64;
            let off = off / len * len; // aligned, so the access stays in the line
            let set = &mut model[line_idx as usize % SETS];
            // A hit moves the model line to most recently used.
            let hit = set.iter().position(|l| l.0 == la).map(|p| {
                let l = set.remove(p);
                set.push(l);
                set.len() - 1
            });
            match kind {
                0..=5 => {
                    let data: Vec<u8> = (0..64u64)
                        .map(|i| (value >> (i % 8 * 8)) as u8 ^ i as u8)
                        .collect();
                    let domain = match value % 3 {
                        0 => Domain::Untrusted,
                        1 => Domain::SecurityMonitor,
                        _ => Domain::Enclave(step as u32),
                    };
                    let expect = match hit {
                        Some(i) => {
                            set.remove(i);
                            None
                        }
                        None => (set.len() == WAYS).then(|| set.remove(0).0),
                    };
                    set.push((la, data.clone(), domain));
                    prop_assert_eq!(
                        cache.fill(la, &data, domain),
                        expect,
                        "step {}: fill {:#x} evicted",
                        step,
                        la
                    );
                }
                6 | 7 => {
                    let expect = hit.map(|i| {
                        set[i].1[off as usize..(off + len) as usize]
                            .iter()
                            .rev()
                            .fold(0u64, |v, &b| (v << 8) | b as u64)
                    });
                    prop_assert_eq!(
                        cache.read(la + off, len),
                        expect,
                        "step {}: read {:#x}+{}",
                        step,
                        la,
                        off
                    );
                }
                8 | 9 => {
                    let expect = hit.map(|i| set[i].1.clone());
                    prop_assert_eq!(
                        cache.read_line(la).map(<[u8]>::to_vec),
                        expect,
                        "step {}: read_line {:#x}",
                        step,
                        la
                    );
                }
                10 | 11 => {
                    if let Some(i) = hit {
                        for b in 0..len {
                            set[i].1[(off + b) as usize] = (value >> (8 * b)) as u8;
                        }
                    }
                    prop_assert_eq!(
                        cache.write(la + off, value, len),
                        hit.is_some(),
                        "step {}: write {:#x}+{}",
                        step,
                        la,
                        off
                    );
                }
                12..=14 => {
                    if let Some(i) = hit {
                        set.remove(i);
                    }
                    cache.invalidate(la + off);
                }
                _ => {
                    model.iter_mut().for_each(Vec::clear);
                    cache.flush_all();
                }
            }
        }
        let lines = cache.slots();
        let mut resident: Vec<(u64, Vec<u8>, Domain)> = (lines.live())
            .map(|(i, l)| (l.line_addr, lines.bytes(i).to_vec(), l.fill_domain))
            .collect();
        resident.sort_by_key(|l| l.0);
        let mut expect: Vec<(u64, Vec<u8>, Domain)> = model.into_iter().flatten().collect();
        expect.sort_by_key(|l| l.0);
        prop_assert_eq!(resident, expect);
    }

    /// A live-slot table against a map model, at payload widths 0 and 64
    /// over 96 slots (one whole bitset word and part of a second): `live`
    /// lists the model's slots in ascending order, every other slot reads
    /// empty, and `clone_from` into a table with its own history leaves
    /// every array as `clone` does.
    #[test]
    fn slots_match_a_map_model(src_ops in ops(96), dst_ops in ops(96)) {
        for width in [0, 64] {
            let (mut src, mut dst) = (Slots::new(96, width), Slots::new(96, width));
            let model = run_slot_ops(&mut src, &src_ops);
            run_slot_ops(&mut dst, &dst_ops);
            let expect: Vec<_> = (model.into_iter())
                .map(|(slot, (entry, payload))| (slot, entry, payload))
                .collect();
            prop_assert_eq!(live(&src), expect, "width {}", width);
            for slot in (0..96).filter(|&slot| !src.is_live(slot)) {
                prop_assert_eq!(src.get(slot), None);
                prop_assert!(src.bytes(slot).iter().all(|&b| b == 0), "slot {} not empty", slot);
            }
            let full = src.clone();
            dst.clone_from(&src);
            prop_assert_eq!(&full, &src, "clone, width {}", width);
            prop_assert_eq!(&dst, &src, "clone_from, width {}", width);
        }
    }

    /// `clone_from` between two caches of one geometry, each after its
    /// own random history, leaves what `clone` gives (see
    /// [`clone_from_matches_clone`]). 96 ways: one whole bitset word and
    /// part of a second.
    #[test]
    fn cache_clone_from_matches_clone(src_ops in ops(64), dst_ops in ops(64), more in ops(64)) {
        clone_from_matches_clone(|| Cache::new(16, 6, 64), &src_ops, &dst_ops, &more)?;
    }

    /// [`clone_from_matches_clone`] for the uBTB, 128 entries with a
    /// one-bit tag, so PCs collide.
    #[test]
    fn ubtb_clone_from_matches_clone(src_ops in ops(512), dst_ops in ops(512), more in ops(512)) {
        clone_from_matches_clone(|| Ubtb::new(128, 1), &src_ops, &dst_ops, &more)?;
    }

    /// [`clone_from_matches_clone`] for the FTB, 4 sets of 3 ways with 8
    /// tags each, so sets fill and evict.
    #[test]
    fn ftb_clone_from_matches_clone(src_ops in ops(64), dst_ops in ops(64), more in ops(64)) {
        clone_from_matches_clone(|| Ftb::new(4, 3, 3), &src_ops, &dst_ops, &more)?;
    }

    /// [`clone_from_matches_clone`] for an 8-entry TLB.
    #[test]
    fn tlb_clone_from_matches_clone(src_ops in ops(16), dst_ops in ops(16), more in ops(16)) {
        clone_from_matches_clone(|| Tlb::new(8), &src_ops, &dst_ops, &more)?;
    }

    /// [`clone_from_matches_clone`] for an 8-entry PTW cache.
    #[test]
    fn ptw_cache_clone_from_matches_clone(src_ops in ops(16), dst_ops in ops(16), more in ops(16)) {
        clone_from_matches_clone(|| PtwCache::new(8), &src_ops, &dst_ops, &more)?;
    }

    /// [`clone_from_matches_clone`] for an 8-entry LFB.
    #[test]
    fn lfb_clone_from_matches_clone(src_ops in ops(16), dst_ops in ops(16), more in ops(16)) {
        clone_from_matches_clone(|| Lfb::new(8, 64), &src_ops, &dst_ops, &more)?;
    }

    /// The LFB never loses a pending request except through `flush_all`,
    /// and residual (filled) entries persist until reallocated.
    #[test]
    fn lfb_pending_requests_are_stable(
        lines in prop::collection::vec(1u64..1000, 1..30)
    ) {
        let mut lfb = Lfb::new(4, 64);
        let mut pending: Vec<(usize, u64)> = Vec::new();
        for line in lines {
            let line_addr = line * 64;
            if pending.iter().any(|&(_, la)| la == line_addr) {
                // Request merging: hardware never double-allocates a line.
                prop_assert!(lfb.pending_for(line_addr).is_some());
                continue;
            }
            if let Some(idx) = lfb.allocate(line_addr, FillPurpose::Demand) {
                pending.push((idx, line_addr));
                // Every pending request is still discoverable.
                for &(_, la) in &pending {
                    prop_assert!(lfb.pending_for(la).is_some(), "lost pending {:#x}", la);
                }
            } else {
                // Saturated: complete the oldest to make room.
                let (idx, la) = pending.remove(0);
                lfb.complete(idx, &[0x5A; 64], Domain::Enclave(0), 1);
                prop_assert!(lfb.pending_for(la).is_none());
                // Residual data persists after completion.
                prop_assert!(lfb.slots().is_live(idx));
                prop_assert_eq!(lfb.slots().bytes(idx)[0], 0x5A);
            }
        }
    }

    /// TLB: the most recently inserted translation for a page always wins,
    /// and capacity is respected.
    #[test]
    fn tlb_latest_translation_wins(
        inserts in prop::collection::vec((0u64..32, 1u64..500), 1..64)
    ) {
        let mut tlb = Tlb::new(8);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (page, ppn) in inserts {
            let va = VirtAddr(page << 12);
            let pte = Pte::leaf(PhysAddr(ppn << 12), Pte::R | Pte::W);
            tlb.insert(va, pte, Domain::Untrusted);
            model.insert(page, ppn);
            prop_assert!(tlb.slots().live_count() <= 8);
            if let Some(hit) = tlb.lookup(va) {
                prop_assert_eq!(hit.ppn(), model[&page]);
            } else {
                prop_assert!(false, "entry just inserted must hit");
            }
        }
    }

    /// uBTB collisions are exactly PC pairs equal in the indexed+tagged
    /// low bits and different somewhere above.
    #[test]
    fn ubtb_collision_predicate(pc in any::<u64>(), flip_bit in 2u32..63) {
        let entries = 64usize; // 6 index bits
        let tag_bits = 10u32;
        let ubtb = Ubtb::new(entries, tag_bits);
        let pc = pc & !3; // instruction aligned
        let other = pc ^ (1 << flip_bit);
        let used_bits = 2 + entries.trailing_zeros() + tag_bits; // bits [2, 18)
        let expected = flip_bit >= used_bits;
        prop_assert_eq!(
            ubtb.collides(pc, other),
            expected,
            "pc {:#x} flip bit {} (used bits < {})",
            pc,
            flip_bit,
            used_bits
        );
    }

    /// Memory reads always reflect the latest write, across widths and
    /// page boundaries.
    #[test]
    fn memory_read_your_writes(
        writes in prop::collection::vec((0u64..0x3000, any::<u64>(), prop::sample::select(vec![1u64, 2, 4, 8])), 1..50)
    ) {
        let mut mem = Memory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for (addr, value, len) in writes {
            mem.write_uint(addr, value, len);
            for i in 0..len {
                model.insert(addr + i, (value >> (8 * i)) as u8);
            }
        }
        for (&a, &b) in &model {
            prop_assert_eq!(mem.read_u8(a), b);
        }
    }

    /// The page-wise `Memory::first_difference` names the same first
    /// differing byte as a byte-at-a-time scan, on sparse memories that
    /// mix pages both sides still share copy-on-write, pages one side
    /// wrote privately, pages equal on both sides but no longer shared,
    /// zero pages backed on one side only, and pages that differ only in
    /// their last byte.
    #[test]
    fn first_difference_matches_a_bytewise_reference(
        shared in prop::collection::vec((0u64..8, 0u64..4096, 1u8..255), 0..8),
        edits in prop::collection::vec((0u8..5, 0u64..8, 0u64..4096, any::<u8>()), 0..12),
    ) {
        let mut base = Memory::new();
        for (page, off, byte) in shared {
            base.write_u8(page * PAGE + off, byte);
        }
        let (mut a, mut b) = (base.clone(), base.clone());
        for (kind, page, off, byte) in edits {
            let addr = page * PAGE + off;
            match kind {
                // A private write on one side or the other.
                0 => a.write_u8(addr, byte),
                1 => b.write_u8(addr, byte),
                // The same write on both sides: equal bytes, split pages.
                2 => {
                    a.write_u8(addr, byte);
                    b.write_u8(addr, byte);
                }
                // A zero page backed on one side only (pages 8..12 hold
                // nothing but zeros).
                3 => {
                    let side = if byte % 2 == 0 { &mut a } else { &mut b };
                    side.write_u8((8 + page % 4) * PAGE + off, 0);
                }
                // Pages 12..16 differ, if at all, only in their last byte.
                _ => {
                    let last = (12 + page % 4) * PAGE + PAGE - 1;
                    a.write_u8(last, byte);
                    b.write_u8(last, byte ^ (off as u8 & 1));
                }
            }
        }
        prop_assert_eq!(a.first_difference(&b), first_difference_bytewise(&a, &b));
        prop_assert_eq!(b.first_difference(&a), first_difference_bytewise(&b, &a));
        prop_assert_eq!(a.first_difference(&a.clone()), None);
    }
}

const PAGE: u64 = 4096;

/// A structure on a live-slot table, as the clone properties drive it.
trait Slotted: Clone {
    type Entry: Copy + Default + PartialEq + Debug;

    fn table(&self) -> &Slots<Self::Entry>;

    /// Runs operation `kind` on `key` and `value`: mostly fills, inserts
    /// or training, with lookups, invalidations and the odd flush. Returns
    /// what the operation returned, in `Debug` form.
    fn op(&mut self, kind: u8, key: u64, value: u64) -> String;
}

/// `clone_from` between two structures of one shape, each after its own
/// random history, leaves what `clone` gives: the same live slots (index,
/// entry with its recency stamp, payload) and the same result and live
/// slots after every further operation. The destination's history leaves
/// entries the source lacks, which the copy must drop.
fn clone_from_matches_clone<S: Slotted>(
    new: impl Fn() -> S,
    src_ops: &[Op],
    dst_ops: &[Op],
    more: &[Op],
) -> Result<(), TestCaseError> {
    let (mut src, mut dst) = (new(), new());
    for &(kind, key, value) in src_ops {
        src.op(kind, key, value);
    }
    for &(kind, key, value) in dst_ops {
        dst.op(kind, key, value);
    }
    let mut full = src.clone();
    dst.clone_from(&src);
    prop_assert_eq!(live(full.table()), live(src.table()), "clone");
    prop_assert_eq!(live(dst.table()), live(full.table()), "clone_from");
    for (i, &(kind, key, value)) in more.iter().enumerate() {
        let (ours, theirs) = (dst.op(kind, key, value), full.op(kind, key, value));
        prop_assert_eq!(ours, theirs, "operation {}", i);
        prop_assert_eq!(
            live(dst.table()),
            live(full.table()),
            "after operation {}",
            i
        );
    }
    Ok(())
}

/// Every live slot of `slots` in ascending order, with its entry and
/// payload.
fn live<T: Copy + Default + PartialEq>(slots: &Slots<T>) -> Vec<(usize, T, Vec<u8>)> {
    (slots.live())
        .map(|(i, e)| (i, *e, slots.bytes(i).to_vec()))
        .collect()
}

/// The payload a fill with `value` writes: every byte differs.
fn payload(value: u64, width: usize) -> Vec<u8> {
    (0..width)
        .map(|i| (value >> (i % 8 * 8)) as u8 ^ i as u8)
        .collect()
}

fn domain(value: u64) -> Domain {
    match value % 3 {
        0 => Domain::Untrusted,
        1 => Domain::SecurityMonitor,
        _ => Domain::Enclave((value >> 8) as u32 % 4),
    }
}

/// Runs `(kind, slot, value)` operations on `slots`: entries set with and
/// without a payload write, resets and the odd flush. Returns the map
/// model of what the table must hold.
fn run_slot_ops(slots: &mut Slots<u64>, ops: &[Op]) -> BTreeMap<usize, (u64, Vec<u8>)> {
    let mut model = BTreeMap::new();
    let width = slots.width();
    for &(kind, slot, value) in ops {
        let slot = slot as usize;
        match kind {
            0..=17 => {
                let data = payload(value, width);
                slots.set(slot, value).copy_from_slice(&data);
                model.insert(slot, (value, data));
            }
            // A new entry over the payload the slot already holds.
            18..=22 => {
                slots.set(slot, value);
                let data = model.remove(&slot).map_or(vec![0; width], |(_, data)| data);
                model.insert(slot, (value, data));
            }
            23..=30 => {
                slots.reset(slot);
                model.remove(&slot);
            }
            _ => {
                slots.flush_all();
                model.clear();
            }
        }
    }
    model
}

impl Slotted for Cache {
    type Entry = LineMeta;

    fn table(&self) -> &Slots<LineMeta> {
        self.slots()
    }

    fn op(&mut self, kind: u8, line: u64, value: u64) -> String {
        let la = line * 64;
        match kind {
            0..=17 => format!("{:?}", self.fill(la, &payload(value, 64), domain(value))),
            18..=22 => format!("{:?}", self.write(la + value % 8 * 8, value, 8)),
            23..=25 => format!("{:?}", self.read(la + value % 8 * 8, 8)),
            26..=30 => {
                self.invalidate(la);
                String::new()
            }
            _ => {
                self.flush_all();
                String::new()
            }
        }
    }
}

impl Slotted for Ubtb {
    type Entry = BtbEntry;

    fn table(&self) -> &Slots<BtbEntry> {
        self.slots()
    }

    fn op(&mut self, kind: u8, key: u64, value: u64) -> String {
        let pc = key * 4;
        match kind {
            0..=17 => format!("{:?}", self.train(pc, value, value & 1 != 0, domain(value))),
            18..=30 => format!("{:?}", self.predict(pc)),
            _ => {
                self.flush_all();
                String::new()
            }
        }
    }
}

impl Slotted for Ftb {
    type Entry = BtbEntry;

    fn table(&self) -> &Slots<BtbEntry> {
        self.slots()
    }

    fn op(&mut self, kind: u8, key: u64, value: u64) -> String {
        let pc = key * 4;
        match kind {
            0..=17 => format!("{:?}", self.train(pc, value, value & 1 != 0, domain(value))),
            18..=30 => format!("{:?}", self.predict(pc)),
            _ => {
                self.flush_all();
                String::new()
            }
        }
    }
}

impl Slotted for Tlb {
    type Entry = TlbEntry;

    fn table(&self) -> &Slots<TlbEntry> {
        self.slots()
    }

    fn op(&mut self, kind: u8, page: u64, value: u64) -> String {
        let va = VirtAddr(page << 12);
        match kind {
            0..=17 => {
                let pte = Pte::leaf(PhysAddr((value & 0xFFFF) << 12), Pte::R);
                format!("{:?}", self.insert(va, pte, domain(value)))
            }
            18..=30 => format!("{:?}", self.lookup(va)),
            _ => {
                self.flush_all();
                String::new()
            }
        }
    }
}

impl Slotted for PtwCache {
    type Entry = PtwCacheEntry;

    fn table(&self) -> &Slots<PtwCacheEntry> {
        self.slots()
    }

    fn op(&mut self, kind: u8, key: u64, value: u64) -> String {
        let pte_addr = 0x8000_0000 + key * 8;
        match kind {
            0..=17 => format!("{:?}", self.insert(pte_addr, Pte(value), domain(value))),
            18..=30 => format!("{:?}", self.lookup(pte_addr)),
            _ => {
                self.flush_all();
                String::new()
            }
        }
    }
}

impl Slotted for Lfb {
    type Entry = LfbEntry;

    fn table(&self) -> &Slots<LfbEntry> {
        self.slots()
    }

    fn op(&mut self, kind: u8, line: u64, value: u64) -> String {
        let la = line * 64;
        match kind {
            0..=11 => {
                let purpose = [
                    FillPurpose::Demand,
                    FillPurpose::Prefetch,
                    FillPurpose::PageWalk,
                    FillPurpose::StoreRefill,
                ][value as usize % 4];
                format!("{:?}", self.allocate(la, purpose))
            }
            // Completes the pending fill of the line, if there is one.
            12..=23 => {
                let pending = self.pending_for(la);
                if let Some(idx) = pending {
                    self.complete(idx, &payload(value, 64), domain(value), value >> 32);
                }
                format!("{pending:?}")
            }
            24..=30 => {
                self.invalidate_entry(value as usize % 8);
                String::new()
            }
            _ => {
                self.flush_all();
                String::new()
            }
        }
    }
}

/// The byte-at-a-time scan `Memory::first_difference` replaced, kept as
/// the reference: every byte of every page backed in either memory, in
/// address order.
fn first_difference_bytewise(a: &Memory, b: &Memory) -> Option<u64> {
    let mut pages: Vec<u64> = (a.page_base_addrs().into_iter())
        .chain(b.page_base_addrs())
        .collect();
    pages.sort_unstable();
    pages.dedup();
    for base in pages {
        for off in 0..PAGE {
            let addr = base + off;
            if a.read_u8(addr) != b.read_u8(addr) {
                return Some(addr);
            }
        }
    }
    None
}
