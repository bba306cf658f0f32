//! Adversarial programs for the simulator's four elisions: the
//! fetch-line memo, the scan watermark, the LSU retry memo and the
//! idle-cycle fast-forward. There is no "off" run to compare against.
//! Each program runs once, and the debug-build references check every
//! use of every elision as it happens: a fetch-memo hit re-derives its
//! word and address by peeking and re-decodes, each entry the watermark
//! skips must still stall, each skipped LSU retry must be one that would
//! not progress, and a copy of the core steps through each span the clock
//! jumps over. Tier-1 builds keep debug assertions on (see
//! `[profile.test]` in the workspace manifest), so a missed invalidation
//! edge fails here with the reference's message. The fast-forward is also
//! compared with plain stepping, which CI repeats in a release build,
//! where every reference is compiled out.
//!
//! * random gadgets that *rewrite their own code pages*, with and
//!   without explicit synchronization, and a DMA-style write spanning a
//!   page boundary into the page the core is about to execute;
//! * *satp remaps* that re-enter a virtual address under a new root;
//! * `Platform::clone()` mid-run (a CoW fork that deliberately colds the
//!   fetch memo) must behave exactly like the uninterrupted run;
//! * random gadgets with interrupts, some landing inside idle spans,
//!   `fence`, `wfi` and PMP writes that wait at the ROB head, and random
//!   cycle budgets, run once with the fast-forward and once stepped
//!   cycle by cycle;
//! * and the witness that the elisions engage on both designs, so the
//!   references are not checking nothing.

use proptest::prelude::*;

use teesec::runner::{build_platform, run_case};
use teesec::Fuzzer;
use teesec_isa::reg::Reg;
use teesec_tee::platform::Platform;
use teesec_uarch::config::MitigationSet;
use teesec_uarch::core::{Core, RunExit};
use teesec_uarch::mem::Memory;
use teesec_uarch::trace::Stamp;
use teesec_uarch::CoreConfig;

#[path = "common/gadgets.rs"]
mod gadgets;
use gadgets::{
    emit_alu_body, irq_gadget_program, satp_remap_gadget, smc_gadget_program, BASE, REMAP_PA1,
    REMAP_PA2,
};

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

/// Steps `core` one cycle at a time up to `limit`, then, if it halted,
/// drains its LSU one tick at a time: the run [`Core::run`] must equal,
/// without a single jump.
fn step_to(core: &mut Core, limit: u64) -> RunExit {
    while !core.halted && core.cycle < limit {
        core.step();
    }
    if !core.halted {
        return RunExit::CycleLimit;
    }
    for _ in 0..4_000_000 {
        if core.lsu.quiescent() {
            break;
        }
        core.cycle += 1;
        let at = Stamp {
            cycle: core.cycle,
            priv_level: core.priv_level,
            domain: core.domain,
        };
        core.lsu
            .tick(at, &mut core.csr, &mut core.mem, &mut core.trace);
    }
    RunExit::Halted
}

proptest! {
    /// The idle-cycle fast-forward equals stepping. A random gadget with
    /// interrupts enabled, and heads that wait for the store drain or the
    /// interrupt, runs under a random cycle budget on each of the three
    /// designs and on BOOM with every flush, with no interrupt, one at a
    /// random cycle, or one at a cycle the interrupt-free run jumps over.
    /// One copy runs with [`Core::run`], the other is stepped and drained
    /// tick by tick; both end with the same exit, cycle, trace, counters,
    /// elision counters, registers and memory.
    #[test]
    fn fast_forward_matches_stepping(
        seed in any::<u64>(),
        branchy in any::<bool>(),
        design in 0usize..4,
        budget in 1u64..600,
        irq in 0u8..3,
        pick in any::<u64>(),
    ) {
        let cfg = [
            CoreConfig::boom(),
            CoreConfig::xiangshan(),
            CoreConfig::hardened_reference(),
            CoreConfig::boom().with_mitigations(MitigationSet::flush_everything()),
        ][design].clone();
        let words = irq_gadget_program(seed, 40, branchy);
        let build = |irq_at: Option<u64>| {
            let mut mem = Memory::new();
            mem.load_words(BASE, &words);
            let mut core = Core::new(cfg.clone(), mem, BASE);
            if let Some(at) = irq_at {
                core.schedule_external_interrupt(at);
            }
            core
        };
        let irq_at = match irq {
            0 => None,
            1 => Some(1 + pick % budget),
            _ => {
                // A cycle inside a span the interrupt-free run jumps over.
                let mut probe = build(None);
                let mut observed = vec![0u64];
                probe.run_observed(budget, |c| observed.push(c.cycle));
                let skipped: Vec<u64> = (observed.windows(2))
                    .flat_map(|w| w[0] + 1..w[1])
                    .collect();
                (!skipped.is_empty()).then(|| skipped[(pick % skipped.len() as u64) as usize])
            }
        };
        let mut jumped = build(irq_at);
        let jumped_exit = jumped.run(budget);
        let mut stepped = build(irq_at);
        let stepped_exit = step_to(&mut stepped, budget);
        let what = format!("{} seed {seed} budget {budget} irq {irq_at:?}", cfg.name);
        prop_assert_eq!(jumped_exit, stepped_exit, "{}: exit", what);
        prop_assert_eq!(jumped.cycle, stepped.cycle, "{}: cycle", what);
        prop_assert!(
            jumped.trace.iter_events().eq(stepped.trace.iter_events()),
            "{}: trace events differ", what
        );
        prop_assert_eq!(jumped.counters(), stepped.counters(), "{}: counters", what);
        prop_assert_eq!(
            jumped.fast_path_stats(), stepped.fast_path_stats(), "{}: fast-path stats", what
        );
        for r in Reg::all() {
            prop_assert_eq!(jumped.reg(r), stepped.reg(r), "{}: register {}", what, r);
        }
        prop_assert!(jumped.mem.first_difference(&stepped.mem).is_none(), "{}: memory", what);
    }

    /// Self-modifying code: `fence.i` flushes the L1I and drops the fetch
    /// memo, so every elided fetch matches its reference — synced (fence
    /// + fence.i) or racing the front end, where the I-side is stale by
    /// design and the reference reads the same stale line. A synced patch
    /// must also execute.
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
    /// fetch (and decode) the *new* physical page. The fetch memo dies at
    /// every serializing instruction, so the core must execute page 1
    /// then page 2 — and leave the exact a0 the two pages' immediates sum
    /// to.
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
    /// forking: the clone's fetch memo starts cold, and a cold memo is an
    /// elision-only slowdown, never a behavior change.
    #[test]
    fn platform_clone_mid_run_with_fast_path_matches_uninterrupted(
        seed in any::<u64>(),
        split in 1u64..4_000,
    ) {
        let mut p = Platform::builder(CoreConfig::boom())
            .host_code(|a| emit_alu_body(a, seed, 40))
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
/// straddles the boundary into the page the core is *about to execute*.
/// After the `fence.i`, the L1I must refill the patched line and the
/// fetch memo must serve the patched word from it, not a placeholder
/// either may have held before.
#[test]
fn page_spanning_write_into_executing_page_reaches_l1i_and_fetch_memo() {
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
    core.mem.write_bytes(page1 - 4, &value.to_le_bytes());
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
/// vacuously running with a cold memo).
#[test]
fn synced_smc_gadget_invalidates_the_fetch_memo() {
    let (words, expected) = smc_gadget_program(0xD15A_55EB, 3, true);
    let core = run_program(&words, &CoreConfig::boom());
    assert_eq!(
        core.reg(Reg::A0),
        expected,
        "every patch must have executed"
    );
    let stats = core.fast_path_stats();
    assert!(
        stats.fetch.invalidations > 0,
        "syncing a rewritten executing page must drop the fetch memo: {stats:?}"
    );
    assert!(stats.fetch.hits > 0, "the memo must also have been in use");
}

/// The references are not vacuous: over a fuzzed corpus, on both
/// designs, the fetch memo hits, the scan watermark skips and the clock
/// jumps over idle cycles (the observer is called for fewer cycles than
/// the run simulates), so the debug-build checks behind them run.
#[test]
fn elisions_engage_on_both_designs() {
    for cfg in [CoreConfig::boom(), CoreConfig::xiangshan()] {
        let corpus = Fuzzer::with_target(8).generate(&cfg);
        let mut hits = 0u64;
        let mut skips = 0u64;
        let (mut observed, mut simulated) = (0u64, 0u64);
        for tc in &corpus {
            let outcome = run_case(tc, &cfg).expect("build");
            let stats = outcome.platform.core.fast_path_stats();
            hits += stats.fetch.hits;
            skips += stats.scan_skips;
            // Cycles up to the last stepped one: the post-halt drain is
            // not stepped either way.
            let mut platform = build_platform(tc, &cfg).expect("build");
            let start = platform.core.cycle;
            let (mut calls, mut last) = (0u64, start);
            platform.core.run_observed(tc.max_cycles, |c| {
                calls += 1;
                last = c.cycle;
            });
            observed += calls;
            simulated += last - start;
        }
        assert!(hits > 0, "{}: fetch memo never hit", cfg.name);
        assert!(skips > 0, "{}: dirty-scan elision never engaged", cfg.name);
        assert!(
            observed < simulated,
            "{}: {observed} observer calls over {simulated} cycles — the clock never jumped",
            cfg.name
        );
    }
}
