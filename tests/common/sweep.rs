//! The interrupt-timing sweep families the snapshot-cache suites share
//! (`stream_equivalence`, `stream_memory_bound` and `engine_equivalence`):
//! an `HpcRead` case with restricted counters, its external interrupt
//! swept over twelve cycles from 2,000 on. The siblings differ only in
//! their interrupt cycle, so the first captures a setup-prefix checkpoint
//! and the rest fork it.

use teesec::assemble::{assemble_case, CaseParams};
use teesec::{AccessPath, TestCase};
use teesec_uarch::CoreConfig;

/// The sweep family on `cfg`, each case named after its step.
pub fn irq_sweep(cfg: &CoreConfig) -> Vec<TestCase> {
    irq_sweeps(cfg, 1).remove(0)
}

/// `families` sweep families on `cfg`, one per secret offset (0, 8, 16,
/// ... bytes): the offset changes the probe's setup, so each family
/// captures a checkpoint of its own. Each family's cases are in interrupt
/// order and named after their offset and step.
pub fn irq_sweeps(cfg: &CoreConfig, families: u64) -> Vec<Vec<TestCase>> {
    (0..families)
        .map(|f| {
            (0..12u64)
                .map(|k| {
                    let params = CaseParams {
                        restricted_counters: true,
                        offset: 8 * f,
                        irq_at: Some(2_000 + 37 * k),
                        ..CaseParams::default()
                    };
                    let mut tc =
                        assemble_case(AccessPath::HpcRead, params, cfg).expect("sweep case");
                    tc.name = format!("{}_irq{k}", tc.name);
                    tc
                })
                .collect()
        })
        .collect()
}
