//! Adversarial programs for the simulator's elisions: the page-keyed
//! decode cache, the fetch-line memo, the scan watermark and the LSU
//! retry memo. There is no "off" run to compare against. Each program
//! runs once, and the debug-build references check every use of every
//! elision as it happens: a fetch-memo hit re-derives its word and
//! address by peeking, every memo or decode-cache hit re-decodes, each
//! entry the watermark skips must still stall, and each skipped LSU
//! retry must be one that would not progress. Tier-1 builds keep debug
//! assertions on (see `[profile.test]` in the workspace manifest), so a
//! missed invalidation edge fails here with the reference's message.
//!
//! * random gadgets that *rewrite their own code pages*, with and
//!   without explicit synchronization, and a DMA-style write spanning a
//!   page boundary into the page the core is about to execute;
//! * *satp remaps* that re-enter a virtual address under a new root;
//! * `Platform::clone()` mid-run (a CoW fork that deliberately colds the
//!   decode cache and fetch memo) must behave exactly like the
//!   uninterrupted run;
//! * and the witness that the elisions engage on both designs, so the
//!   references are not checking nothing.

use proptest::prelude::*;

use teesec::runner::run_case;
use teesec::Fuzzer;
use teesec_isa::reg::Reg;
use teesec_tee::platform::Platform;
use teesec_uarch::core::Core;
use teesec_uarch::mem::Memory;
use teesec_uarch::CoreConfig;

#[path = "common/gadgets.rs"]
mod gadgets;
use gadgets::{emit_alu_body, satp_remap_gadget, smc_gadget_program, BASE, REMAP_PA1, REMAP_PA2};

const BOUND: u64 = 500_000;

/// Runs a core over `mem` from [`BASE`] to completion. Panics if the
/// program never halts.
fn run_to_halt(mem: Memory, cfg: &CoreConfig) -> Core {
    let mut core = Core::new(cfg.clone(), mem, BASE);
    core.trace.set_enabled(false);
    while !core.halted && core.cycle < BOUND {
        core.step();
    }
    assert!(core.halted, "program did not halt within {BOUND} cycles");
    core.drain();
    core
}

/// Runs `words` loaded at [`BASE`] to completion.
fn run_program(words: &[u32], cfg: &CoreConfig) -> Core {
    let mut mem = Memory::new();
    mem.load_words(BASE, words);
    run_to_halt(mem, cfg)
}

/// Asserts the two runs are state-identical: cycle count, registers,
/// memory, and the full counter digest.
fn assert_same_state(a: &Core, b: &Core, what: &str) {
    assert_eq!(a.cycle, b.cycle, "{what}: cycle count diverged");
    for r in Reg::all() {
        assert_eq!(a.reg(r), b.reg(r), "{what}: register {r} diverged");
    }
    assert!(
        a.mem.first_difference(&b.mem).is_none(),
        "{what}: memory diverged"
    );
    assert_eq!(a.counters(), b.counters(), "{what}: counters diverged");
}

proptest! {
    /// Self-modifying code: every store into an executing page bumps the
    /// page version, and `fence.i` flushes the L1I and the decode cache
    /// and drops the fetch memo, so every elided fetch matches its
    /// reference — synced (fence + fence.i) or racing the front end,
    /// where the I-side is stale by design and the reference reads the
    /// same stale line. A synced patch must also execute.
    #[test]
    fn self_modifying_gadget_fast_path_matches_reference(
        seed in any::<u64>(),
        patches in 1usize..5,
        sync in any::<bool>(),
        xiangshan in any::<bool>(),
    ) {
        let cfg = if xiangshan {
            CoreConfig::xiangshan()
        } else {
            CoreConfig::boom()
        };
        let (words, expected) = smc_gadget_program(seed, patches, sync);
        let core = run_program(&words, &cfg);
        if sync {
            prop_assert_eq!(
                core.reg(Reg::A0), expected,
                "seed {}: a synced patch did not execute — stale decode served", seed
            );
        }
    }

    /// satp remap: re-entering the same VA under a different root must
    /// fetch (and decode) the *new* physical page. The decode cache is
    /// keyed physically and the fetch memo dies at every serializing
    /// instruction, so the core must execute page 1 then page 2 — and
    /// leave the exact a0 the two pages' immediates sum to.
    #[test]
    fn satp_remap_never_replays_the_old_address_space(seed in any::<u64>()) {
        let (supervisor, pages, tables, expected) = satp_remap_gadget(seed);
        let mut mem = Memory::new();
        mem.load_words(BASE, &supervisor);
        mem.load_words(REMAP_PA1, &pages[0]);
        mem.load_words(REMAP_PA2, &pages[1]);
        for &(addr, value) in &tables {
            mem.write_u64(addr, value);
        }
        let core = run_to_halt(mem, &CoreConfig::boom());
        prop_assert_eq!(
            core.reg(Reg::A0), expected,
            "seed {}: wrong a0 — a stale translation or decode survived the remap", seed
        );
        prop_assert_eq!(core.reg(Reg::S2), 2, "both S-mode entries must have trapped back");
    }

    /// `Platform::clone()` mid-run is indistinguishable from never
    /// forking: the clone's decode cache and fetch memo start cold (CoW
    /// halves' page versions advance independently), and cold caches
    /// are an elision-only slowdown, never a behavior change.
    #[test]
    fn platform_clone_mid_run_with_fast_path_matches_uninterrupted(
        seed in any::<u64>(),
        split in 1u64..4_000,
    ) {
        let mut p = Platform::builder(CoreConfig::boom())
            .host_code(|a, _| emit_alu_body(a, seed, 40))
            .build()
            .expect("platform build");
        p.core.trace.set_enabled(false);
        let mut straight = p.clone();

        let fork_at = p.core.cycle + split;
        while !p.core.halted && p.core.cycle < fork_at {
            p.core.step();
        }
        let mut resumed = p.clone(); // the mid-run CoW fork
        drop(p); // the original may die; the fork must not care

        let bound = straight.core.cycle + BOUND;
        while !resumed.core.halted && resumed.core.cycle < bound {
            resumed.core.step();
        }
        while !straight.core.halted && straight.core.cycle < bound {
            straight.core.step();
        }
        prop_assert!(resumed.core.halted, "seed {seed}: forked platform did not halt");
        prop_assert!(straight.core.halted, "seed {seed}: straight platform did not halt");
        resumed.core.drain();
        straight.core.drain();
        assert_same_state(
            &resumed.core,
            &straight.core,
            &format!("platform fork seed {seed}"),
        );
    }
}

/// Regression for the `Memory::write_bytes` page-chunked path at the
/// core level. Aligned stores can never straddle a 4 KiB page, so the
/// spanning writer is the DMA-style `write_bytes` — exactly what
/// snapshot restores and image loads use. Mid-run, an 8-byte write
/// straddling the boundary into the page the core is *about to execute*
/// must bump both touched pages' versions exactly once, and the decode
/// cache must re-decode the patched word instead of serving the
/// placeholder it may already have cached.
#[test]
fn page_spanning_write_into_executing_page_invalidates_decode() {
    use teesec_isa::asm::Assembler;
    use teesec_isa::csr;
    use teesec_isa::inst::{AluOp, Inst};

    const NOP: u32 = 0x0000_0013;
    let page1 = BASE + 0x1000;
    let imm = 77i32;
    let patched = Inst::AluImm {
        op: AluOp::Add,
        rd: Reg::A0,
        rs1: Reg::A0,
        imm,
        word: false,
    }
    .encode();
    // Low word re-writes the pad nop with identical bytes (still a
    // write); high word replaces page 1's first instruction.
    let value = ((patched as u64) << 32) | NOP as u64;

    let mut a = Assembler::new(BASE);
    a.la(Reg::T5, "handler");
    a.csrw(csr::MTVEC, Reg::T5);
    // A warm-up loop long enough that the patch below lands while the
    // core is still spinning here, well before fetch reaches page 1.
    a.li(Reg::T4, 40);
    a.label("spin");
    a.addi(Reg::T4, Reg::T4, -1);
    a.bnez(Reg::T4, "spin");
    a.inst(Inst::FenceI); // discard anything fetch speculated past the loop
    while a.cursor() < page1 {
        a.nop();
    }
    a.addi(Reg::A0, Reg::A0, 1); // first word of page 1: gets patched
    a.j("handler");
    a.label("handler");
    a.inst(Inst::Ebreak);
    let words = a.assemble().expect("assemble");

    let mut mem = Memory::new();
    mem.load_words(BASE, &words);
    let mut core = Core::new(CoreConfig::boom(), mem, BASE);
    core.trace.set_enabled(false);
    // Start the pipeline, then patch while the core spins in page 0.
    for _ in 0..5 {
        core.step();
    }
    assert!(!core.halted);
    let v0 = (core.mem.page_version(BASE), core.mem.page_version(page1));
    core.mem.write_bytes(page1 - 4, &value.to_le_bytes());
    assert_eq!(
        core.mem.page_version(BASE),
        v0.0 + 1,
        "one spanning write must bump the first page's version exactly once"
    );
    assert_eq!(
        core.mem.page_version(page1),
        v0.1 + 1,
        "one spanning write must bump the second page's version exactly once"
    );
    while !core.halted && core.cycle < BOUND {
        core.step();
    }
    assert!(core.halted, "spanning-write gadget did not halt");
    assert_eq!(
        core.reg(Reg::A0),
        imm as u64,
        "the patched first word of the executing page must execute"
    );
}

/// Deterministic witness that the self-modifying-code path really
/// exercises the invalidation machinery (so the proptest above is not
/// vacuously running with a cold cache).
#[test]
fn synced_smc_gadget_invalidates_the_decode_cache() {
    let (words, expected) = smc_gadget_program(0xD15A_55EB, 3, true);
    let core = run_program(&words, &CoreConfig::boom());
    assert_eq!(
        core.reg(Reg::A0),
        expected,
        "every patch must have executed"
    );
    let stats = core.fast_path_stats();
    assert!(
        stats.decode.invalidations > 0,
        "rewriting an executing page must invalidate the decode cache: {stats:?}"
    );
    assert!(
        stats.decode.hits > 0,
        "the cache must also have been in use"
    );
}

/// The references are not vacuous: over a fuzzed corpus, on both
/// designs, the decode cache hits and the scan watermark skips, so the
/// debug-build checks behind them run.
#[test]
fn elisions_engage_on_both_designs() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let corpus = Fuzzer::with_target(8).generate(&cfg);
        let mut hits = 0u64;
        let mut skips = 0u64;
        for tc in &corpus {
            let outcome = run_case(tc, &cfg).expect("build");
            let stats = outcome.platform.core.fast_path_stats();
            hits += stats.decode.hits;
            skips += stats.scan_skips;
        }
        assert!(hits > 0, "{}: decode cache never hit", cfg.name);
        assert!(skips > 0, "{}: dirty-scan elision never engaged", cfg.name);
    }
}
