//! The interrupt-timing sweep family the snapshot-cache suites share
//! (`stream_equivalence` and `engine_equivalence`): one `HpcRead` case
//! with restricted counters, its external interrupt swept over twelve
//! cycles from 2,000 on. The siblings differ only in their interrupt
//! cycle, so the first captures a setup-prefix checkpoint and the rest
//! fork it.

use teesec::assemble::{assemble_case, CaseParams};
use teesec::{AccessPath, TestCase};
use teesec_uarch::CoreConfig;

/// The sweep family on `cfg`, each case named after its step.
pub fn irq_sweep(cfg: &CoreConfig) -> Vec<TestCase> {
    (0..12u64)
        .map(|k| {
            let params = CaseParams {
                restricted_counters: true,
                irq_at: Some(2_000 + 37 * k),
                ..CaseParams::default()
            };
            let mut tc = assemble_case(AccessPath::HpcRead, params, cfg).expect("sweep case");
            tc.name = format!("{}_irq{k}", tc.name);
            tc
        })
        .collect()
}
