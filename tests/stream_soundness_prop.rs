//! Property-based soundness for the online checker and snapshots:
//!
//! * the [`StreamingChecker`] fed online never reports *fewer* findings
//!   than `check_case` replaying a buffered run of the same case — and in
//!   fact the two reports serialize byte-identically, with every
//!   provenance chain equal to the whole-trace oracle's;
//! * snapshotting a core mid-run (a copy-on-write clone) and then letting
//!   it run to completion is state-identical to the uninterrupted run.

use std::sync::OnceLock;

use proptest::prelude::*;

use teesec::checker::check_case;
use teesec::runner::{run_case, run_case_opts, RunOptions};
use teesec::stream::StreamingChecker;
use teesec::testcase::TestCase;
use teesec::Fuzzer;
use teesec_isa::reg::Reg;
use teesec_uarch::core::Core;
use teesec_uarch::mem::Memory;
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
    /// twin — registers, memory, cycle count, counters, and the residue
    /// surface the snapshot scan reads (every valid L1D/L1I/L2 line with
    /// its payload, and every LFB entry) must all match.
    #[test]
    fn snapshot_plus_remaining_steps_matches_uninterrupted_run(
        seed in any::<u64>(),
        split in 1u64..2_000,
        branchy in any::<bool>(),
    ) {
        let words = gadget_program(seed, 40, branchy);
        let mut mem = Memory::new();
        mem.load_words(BASE, &words);
        for off in (0..0x200u64).step_by(8) {
            mem.write_u64(DATA + off, seed ^ off);
        }
        let mut core = Core::new(CoreConfig::boom(), mem, BASE);
        core.trace.set_enabled(false);
        let mut straight = core.clone();

        while !core.halted && core.cycle < split {
            core.step();
        }
        let mut resumed = core.clone(); // the snapshot
        drop(core); // the original may die; the snapshot must not care

        const BOUND: u64 = 500_000;
        while !resumed.halted && resumed.cycle < BOUND {
            resumed.step();
        }
        while !straight.halted && straight.cycle < BOUND {
            straight.step();
        }
        prop_assert!(resumed.halted, "seed {seed}: resumed core did not halt");
        prop_assert!(straight.halted, "seed {seed}: straight core did not halt");
        resumed.drain();
        straight.drain();

        prop_assert_eq!(resumed.cycle, straight.cycle, "seed {seed}: cycle count");
        for r in Reg::all() {
            prop_assert_eq!(
                resumed.reg(r), straight.reg(r),
                "seed {seed}: register {} diverged", r
            );
        }
        prop_assert!(
            resumed.mem.first_difference(&straight.mem).is_none(),
            "seed {seed}: memory diverged"
        );
        prop_assert_eq!(resumed.counters(), straight.counters(), "seed {seed}: counters");
        // Compared without recency stamps: a fork's fetch memo starts cold,
        // so its first fetches re-stamp L1I lines the straight core's memo
        // skipped. Only the order of stamps within a set picks victims, and
        // the lines themselves are what the snapshot scan reads.
        let residue = |c: &teesec_uarch::cache::Cache| -> Vec<_> {
            c.valid_lines()
                .map(|l| (l.line_addr, l.data.to_vec(), l.fill_domain))
                .collect()
        };
        for (level, a, b) in [
            ("L1D", &resumed.lsu.l1d, &straight.lsu.l1d),
            ("L1I", &resumed.l1i, &straight.l1i),
            ("L2", &resumed.lsu.l2, &straight.lsu.l2),
        ] {
            prop_assert_eq!(residue(a), residue(b), "seed {seed}: {level} lines");
        }
        prop_assert_eq!(
            resumed.lsu.lfb.entries(),
            straight.lsu.lfb.entries(),
            "seed {seed}: LFB entries"
        );
    }
}
