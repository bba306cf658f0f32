//! Property-based soundness for the online checker and snapshots:
//!
//! * the [`StreamingChecker`] fed online never reports *fewer* findings
//!   than `check_case` replaying a buffered run of the same case — and in
//!   fact the two reports serialize byte-identically, with every
//!   provenance chain equal to the whole-trace oracle's;
//! * snapshotting a core mid-run (a copy-on-write clone) and then letting
//!   it run to completion is state-identical to the uninterrupted run,
//!   whether the snapshot is a new core or is written with `clone_from`
//!   into a core that already ran another program.

use std::sync::OnceLock;

use proptest::prelude::*;

use teesec::checker::check_case;
use teesec::runner::{run_case, run_case_opts, RunOptions};
use teesec::stream::StreamingChecker;
use teesec::testcase::TestCase;
use teesec::Fuzzer;
use teesec_isa::reg::Reg;
use teesec_uarch::btb::BtbEntry;
use teesec_uarch::cache::LineMeta;
use teesec_uarch::core::Core;
use teesec_uarch::mem::Memory;
use teesec_uarch::slots::Slots;
use teesec_uarch::tlb::{PtwCacheEntry, TlbEntry};
use teesec_uarch::CoreConfig;

#[path = "common/gadgets.rs"]
mod gadgets;
use gadgets::{gadget_program, BASE, DATA};

#[path = "common/provenance_oracle.rs"]
mod provenance_oracle;

static BOOM_CORPUS: OnceLock<Vec<TestCase>> = OnceLock::new();
static XS_CORPUS: OnceLock<Vec<TestCase>> = OnceLock::new();

/// A shared 120-case default-fuzzer pool per design, generated once.
fn corpus(cfg: &CoreConfig) -> &'static [TestCase] {
    let cell = if cfg.name == "xiangshan" {
        &XS_CORPUS
    } else {
        &BOOM_CORPUS
    };
    cell.get_or_init(|| Fuzzer::with_target(120).generate(cfg))
}

proptest! {
    /// Soundness: on fuzzer-shaped cases with randomly perturbed setup
    /// parameters, the online checker reports at least as many findings
    /// as the buffered replay — the full reports are byte-identical, and
    /// the replay's provenance equals the oracle's.
    #[test]
    fn streaming_never_reports_fewer_findings_than_batch(
        idx in any::<usize>(),
        clear_hpcs in any::<bool>(),
        xiangshan in any::<bool>(),
    ) {
        let cfg = if xiangshan {
            CoreConfig::xiangshan()
        } else {
            CoreConfig::boom()
        };
        let pool = corpus(&cfg);
        let mut tc = pool[idx % pool.len()].clone();
        tc.sm_clear_hpcs = clear_hpcs;

        let batch_outcome = run_case(&tc, &cfg).expect("batch build");
        let batch = check_case(&tc, &batch_outcome, &cfg);
        prop_assert_eq!(
            &batch.provenance,
            &provenance_oracle::chains(&tc, &batch.findings, &batch_outcome),
            "{} on {}: provenance differs from the oracle", tc.name, cfg.name
        );

        let mut stream_outcome = run_case_opts(
            &tc,
            &cfg,
            RunOptions {
                checker: Some(StreamingChecker::new(&tc, &cfg)),
                ..RunOptions::default()
            },
        )
        .expect("streaming build");
        let checker = stream_outcome
            .checker
            .take()
            .expect("the run returns its checker");
        let stream = checker.finish(&stream_outcome);

        prop_assert!(
            stream.findings.len() >= batch.findings.len(),
            "{} on {}: streaming dropped findings ({} < {})",
            tc.name, cfg.name, stream.findings.len(), batch.findings.len()
        );
        prop_assert_eq!(
            serde_json::to_string(&stream).unwrap(),
            serde_json::to_string(&batch).unwrap(),
            "{} on {}: reports diverge", tc.name, cfg.name
        );
    }

    /// Snapshot/restore soundness at the core level: clone the core after
    /// `split` cycles (the CoW fork the platform snapshot relies on), let
    /// the clone finish the run, and compare against a never-interrupted
    /// twin — registers, memory, cycle count, counters, and the live
    /// entries of every slotted structure (caches, LFB, TLBs, PTW cache
    /// and BTBs, with payloads, recency stamps aside) must all match,
    /// the residue surface the snapshot scan reads included. The snapshot is
    /// also written with `clone_from` into a core that first ran another
    /// random program to its end, as the runner's snapshot cache forks
    /// into a finished case's platform, and that fork must finish the same
    /// way.
    #[test]
    fn snapshot_plus_remaining_steps_matches_uninterrupted_run(
        seed in any::<u64>(),
        other_seed in any::<u64>(),
        split in 1u64..2_000,
        branchy in any::<bool>(),
        xiangshan in any::<bool>(),
    ) {
        let cfg = if xiangshan {
            CoreConfig::xiangshan()
        } else {
            CoreConfig::boom()
        };
        let mut core = gadget_core(&cfg, seed, branchy);
        let mut straight = core.clone();
        let mut recycled = gadget_core(&cfg, other_seed, !branchy);
        prop_assert!(run_to_end(&mut recycled), "seed {other_seed}: the other program did not halt");

        while !core.halted && core.cycle < split {
            core.step();
        }
        let mut resumed = core.clone(); // the snapshot
        recycled.clone_from(&core); // the snapshot, into a finished core
        drop(core); // the original may die; the snapshots must not care

        prop_assert!(run_to_end(&mut straight), "seed {seed}: straight core did not halt");
        prop_assert!(run_to_end(&mut resumed), "seed {seed}: resumed core did not halt");
        prop_assert!(run_to_end(&mut recycled), "seed {seed}: recycled core did not halt");
        same_end_state(&resumed, &straight, &format!("{} seed {seed}, clone", cfg.name))?;
        same_end_state(&recycled, &straight, &format!("{} seed {seed}, clone_from", cfg.name))?;
    }
}

/// A core running a random 40-instruction gadget program over data
/// derived from `seed`, with tracing off.
fn gadget_core(cfg: &CoreConfig, seed: u64, branchy: bool) -> Core {
    let words = gadget_program(seed, 40, branchy);
    let mut mem = Memory::new();
    mem.load_words(BASE, &words);
    for off in (0..0x200u64).step_by(8) {
        mem.write_u64(DATA + off, seed ^ off);
    }
    let mut core = Core::new(cfg.clone(), mem, BASE);
    core.trace.set_enabled(false);
    core
}

/// Steps `core` until it halts (within a bound) and drains its LSU;
/// `false` when it does not halt.
fn run_to_end(core: &mut Core) -> bool {
    const BOUND: u64 = 500_000;
    while !core.halted && core.cycle < BOUND {
        core.step();
    }
    if core.halted {
        core.drain();
    }
    core.halted
}

/// `fork`, a snapshot run to its end, finished as `straight` did.
fn same_end_state(fork: &Core, straight: &Core, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(fork.cycle, straight.cycle, "{what}: cycle count");
    for r in Reg::all() {
        prop_assert_eq!(
            fork.reg(r),
            straight.reg(r),
            "{what}: register {} diverged",
            r
        );
    }
    prop_assert!(
        fork.mem.first_difference(&straight.mem).is_none(),
        "{what}: memory diverged"
    );
    prop_assert_eq!(fork.counters(), straight.counters(), "{what}: counters");
    // Compared without recency stamps: a fork's fetch memo starts cold,
    // so its first fetches re-stamp L1I lines and ITLB entries the
    // straight core's memo skipped. Only the order of stamps picks
    // victims, and the entries themselves are what the snapshot scan
    // reads.
    let line = |m: LineMeta| LineMeta { last_use: 0, ..m };
    let btb = |e: BtbEntry| BtbEntry { last_use: 0, ..e };
    let tlb = |e: TlbEntry| TlbEntry { last_use: 0, ..e };
    let ptw = |e: PtwCacheEntry| PtwCacheEntry { last_use: 0, ..e };
    let (a, b) = (&fork.lsu, &straight.lsu);
    same_live(what, "L1D", a.l1d.slots(), b.l1d.slots(), line)?;
    same_live(what, "L1I", fork.l1i.slots(), straight.l1i.slots(), line)?;
    same_live(what, "L2", a.l2.slots(), b.l2.slots(), line)?;
    same_live(what, "LFB", a.lfb.slots(), b.lfb.slots(), |e| e)?;
    same_live(what, "uBTB", fork.ubtb.slots(), straight.ubtb.slots(), btb)?;
    same_live(what, "FTB", fork.ftb.slots(), straight.ftb.slots(), btb)?;
    same_live(what, "DTLB", a.dtlb.slots(), b.dtlb.slots(), tlb)?;
    same_live(what, "ITLB", fork.itlb.slots(), straight.itlb.slots(), tlb)?;
    same_live(
        what,
        "PTW cache",
        a.ptw_cache.slots(),
        b.ptw_cache.slots(),
        ptw,
    )?;
    Ok(())
}

/// `fork` and `straight` hold the same live slots of one structure: the
/// same slot indices, entries (as `unstamp` leaves them) and payloads.
fn same_live<T: Copy + Default + PartialEq + std::fmt::Debug>(
    what: &str,
    structure: &str,
    fork: &Slots<T>,
    straight: &Slots<T>,
    unstamp: impl Fn(T) -> T,
) -> Result<(), TestCaseError> {
    let live = |slots: &Slots<T>| -> Vec<_> {
        (slots.live())
            .map(|(i, e)| (i, unstamp(*e), slots.bytes(i).to_vec()))
            .collect()
    };
    prop_assert_eq!(
        live(fork),
        live(straight),
        "{}: {} entries",
        what,
        structure
    );
    Ok(())
}
