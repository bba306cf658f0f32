//! Property-based tests of the microarchitectural storage structures:
//! caches, fill buffers, TLBs and branch predictors maintain their
//! invariants under arbitrary operation sequences.

use proptest::prelude::*;
use std::collections::HashMap;

use teesec_uarch::btb::Ubtb;
use teesec_uarch::cache::{Cache, Lfb};
use teesec_uarch::mem::Memory;
use teesec_uarch::tlb::Tlb;
use teesec_uarch::trace::{Domain, FillPurpose};

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
            prop_assert!(cache.valid_lines().count() <= 8);
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
        let mut resident: Vec<(u64, Vec<u8>, Domain)> = cache
            .valid_lines()
            .map(|l| (l.line_addr, l.data.to_vec(), l.fill_domain))
            .collect();
        resident.sort_by_key(|l| l.0);
        let mut expect: Vec<(u64, Vec<u8>, Domain)> = model.into_iter().flatten().collect();
        expect.sort_by_key(|l| l.0);
        prop_assert_eq!(resident, expect);
    }

    /// `clone_from` between two caches of one geometry, each after its
    /// own random history, leaves what `clone` gives: the same live lines
    /// (address, payload, recency stamp, domain), in the same
    /// `valid_lines` order, and the same victim for every further fill.
    /// The destination's history leaves lines the source lacks, which the
    /// copy must drop.
    #[test]
    fn cache_clone_from_matches_clone(
        src_ops in prop::collection::vec((0u8..32, 0u64..64, any::<u64>()), 0..160),
        dst_ops in prop::collection::vec((0u8..32, 0u64..64, any::<u64>()), 0..160),
        fills in prop::collection::vec((0u64..64, any::<u8>()), 1..48),
    ) {
        // 96 slots: one whole bitset word and part of a second.
        let new = || Cache::new(16, 6, 64);
        let (mut src, mut dst) = (new(), new());
        run_cache_ops(&mut src, &src_ops);
        run_cache_ops(&mut dst, &dst_ops);
        let mut full = src.clone();
        dst.clone_from(&src);
        prop_assert_eq!(cache_lines(&full), cache_lines(&src), "clone");
        prop_assert_eq!(cache_lines(&dst), cache_lines(&full), "clone_from");
        for (i, (line, byte)) in fills.into_iter().enumerate() {
            let (la, data) = (line * 64, [byte; 64]);
            let domain = Domain::Enclave(i as u32);
            prop_assert_eq!(
                dst.fill(la, &data, domain),
                full.fill(la, &data, domain),
                "fill {} of {:#x}: victim",
                i,
                la
            );
        }
        prop_assert_eq!(cache_lines(&dst), cache_lines(&full), "after further fills");
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
                prop_assert!(lfb.entry(idx).valid);
                prop_assert_eq!(lfb.entry(idx).data[0], 0x5A);
            }
        }
    }

    /// TLB: the most recently inserted translation for a page always wins,
    /// and capacity is respected.
    #[test]
    fn tlb_latest_translation_wins(
        inserts in prop::collection::vec((0u64..32, 1u64..500), 1..64)
    ) {
        use teesec_isa::vm::{PhysAddr, Pte, VirtAddr};
        let mut tlb = Tlb::new(8);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (page, ppn) in inserts {
            let va = VirtAddr(page << 12);
            let pte = Pte::leaf(PhysAddr(ppn << 12), Pte::R | Pte::W);
            tlb.insert(va, pte, Domain::Untrusted);
            model.insert(page, ppn);
            prop_assert!(tlb.valid_count() <= 8);
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

/// The byte-at-a-time scan `Memory::first_difference` replaced, kept as
/// the reference: every byte of every page backed in either memory, in
/// address order.
/// Runs `(kind, line, value)` operations on `cache`: mostly fills, with
/// writes, reads, invalidations and the odd `flush_all`.
fn run_cache_ops(cache: &mut Cache, ops: &[(u8, u64, u64)]) {
    for &(kind, line, value) in ops {
        let la = line * 64;
        match kind {
            0..=17 => {
                let data: Vec<u8> = (0..64u64).map(|i| (value >> (i % 8 * 8)) as u8).collect();
                let domain = match value % 3 {
                    0 => Domain::Untrusted,
                    1 => Domain::SecurityMonitor,
                    _ => Domain::Enclave(kind as u32),
                };
                cache.fill(la, &data, domain);
            }
            18..=22 => {
                cache.write(la + value % 8 * 8, value, 8);
            }
            23..=25 => {
                cache.read(la + value % 8 * 8, 8);
            }
            26..=30 => cache.invalidate(la),
            _ => cache.flush_all(),
        }
    }
}

/// Every live line of `cache` in `valid_lines` order, with its payload,
/// recency stamp and filling domain.
fn cache_lines(cache: &Cache) -> Vec<(u64, Vec<u8>, u64, Domain)> {
    (cache.valid_lines())
        .map(|l| (l.line_addr, l.data.to_vec(), l.last_use, l.fill_domain))
        .collect()
}

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
