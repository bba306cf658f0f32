//! The TEESec checker: scans the simulation trace and the end-of-run
//! microarchitectural snapshot for violations of the two security
//! principles, classifying each finding into the paper's D1–D8 / M1–M2
//! cases (paper §4.3).

use teesec_uarch::config::CoreConfig;
use teesec_uarch::trace::{Domain, FillPurpose, Structure, Trace, TraceSink};

use crate::report::{CheckReport, Finding, LeakClass, Principle};
use crate::runner::RunOutcome;
use crate::secret::SecretCatalog;
use crate::stream::StreamingChecker;
use crate::testcase::TestCase;

/// `true` when `observer` is allowed to see data owned by `owner`.
pub(crate) fn authorized(owner: Domain, observer: Domain) -> bool {
    if observer == Domain::SecurityMonitor {
        return true; // the monitor is in every domain's TCB
    }
    match owner {
        Domain::Enclave(e) => observer == Domain::Enclave(e),
        Domain::SecurityMonitor => false,
        Domain::Untrusted => !observer.is_enclave(),
    }
}

/// Classifies a register-file leak by direction (paper Table 3).
/// `sb_forwarded` marks a value the store buffer supplied (case D8's
/// mechanism) rather than the cache hierarchy.
pub(crate) fn classify_rf(
    owner: Domain,
    observer: Domain,
    sb_forwarded: bool,
) -> Option<LeakClass> {
    match (owner, observer) {
        (Domain::SecurityMonitor, _) => Some(LeakClass::D5),
        (Domain::Enclave(_), Domain::Untrusted) => {
            if sb_forwarded {
                Some(LeakClass::D8)
            } else {
                Some(LeakClass::D4)
            }
        }
        (Domain::Enclave(_), Domain::Enclave(_)) => Some(LeakClass::D6),
        (Domain::Untrusted, Domain::Enclave(_)) => Some(LeakClass::D7),
        _ => None,
    }
}

/// Classifies a line-fill-buffer observation by the fill's purpose.
fn classify_lfb(purpose: FillPurpose) -> Option<LeakClass> {
    match purpose {
        FillPurpose::Prefetch => Some(LeakClass::D1),
        FillPurpose::PageWalk => Some(LeakClass::D2),
        FillPurpose::StoreRefill => Some(LeakClass::D3),
        FillPurpose::Demand => None,
    }
}

/// The deduplication key for a finding: one finding per
/// (class, structure, secret address, observer, principle) combination.
pub(crate) type FindingKey = (Option<LeakClass>, Structure, Option<u64>, Domain, Principle);

pub(crate) fn finding_key(f: &Finding) -> FindingKey {
    (
        f.class,
        f.structure,
        f.secret.map(|s| s.addr),
        f.observer,
        f.principle,
    )
}

/// Feeds every event of a buffered `trace` to `checker`, in order, each
/// fill with its own `data` as the line. This is how a checker catches up
/// on events recorded before it was attached: a whole run for
/// [`check_case`], and for [`run_case_opts`](crate::runner::run_case_opts)
/// a boot fork's boot prefix, which a setup-prefix capture also replays
/// before it feeds its checker the setup prefix online. A setup-prefix
/// fork replays the checkpoint's setup prefix only when the capture ran
/// without a checker and so buffered it; otherwise it starts from a copy
/// of the checker parked there.
pub(crate) fn replay(mut checker: StreamingChecker, trace: &Trace) -> StreamingChecker {
    for e in trace.iter_events() {
        checker.on_event(e);
    }
    checker
}

/// Runs the full analysis for one executed test case by replaying its
/// buffered trace through a [`StreamingChecker`]. `outcome` must come from
/// a run without [`RunOptions::checker`](crate::runner::RunOptions::checker),
/// so that its trace buffered every event.
pub fn check_case(tc: &TestCase, outcome: &RunOutcome, cfg: &CoreConfig) -> CheckReport {
    replay(StreamingChecker::new(tc, cfg), &outcome.platform.core.trace).finish(outcome)
}

/// [`check_case`], additionally returning the case's
/// [`CaseCoverage`](crate::coverage::CaseCoverage) record.
pub fn check_case_coverage(
    tc: &TestCase,
    outcome: &RunOutcome,
    cfg: &CoreConfig,
) -> (CheckReport, crate::coverage::CaseCoverage) {
    let checker = replay(StreamingChecker::new(tc, cfg), &outcome.platform.core.trace);
    let (report, coverage) = checker.finish_coverage(tc, outcome);
    (report, coverage.expect("every checker records coverage"))
}

/// Scans the end-of-run microarchitectural snapshot for residues (the
/// checker's finalize step).
pub(crate) fn scan_snapshot(
    outcome: &RunOutcome,
    secrets: &SecretCatalog,
    findings: &mut Vec<Finding>,
    push: &mut impl FnMut(&mut Vec<Finding>, Finding),
) {
    let core = &outcome.platform.core;
    let observer = core.domain; // the world holding the residue at test end
    if observer != Domain::Untrusted {
        // Tests end in the untrusted host; anything else means the case
        // did not reach its probe phase — snapshot checks don't apply.
        return;
    }

    // Line-fill-buffer residuals (the D1/D2/D3 "remains in state" half).
    let lfb = core.lsu.lfb.slots();
    for (slot, entry) in lfb.live() {
        for (off, rec) in secrets.scan_bytes(lfb.bytes(slot)) {
            if authorized(rec.owner, observer) {
                continue;
            }
            push(
                findings,
                Finding {
                    class: classify_lfb(entry.purpose),
                    principle: Principle::P1,
                    structure: Structure::Lfb,
                    cycle: entry.fill_cycle,
                    pc: None,
                    secret: Some(rec),
                    observer,
                    detail: format!(
                        "residual {:?} fill of line {:#x} still holds the secret at byte \
                     offset {off} after the context switch to the untrusted host",
                        entry.purpose, entry.line_addr
                    ),
                },
            );
        }
    }

    // Cache residuals: enclave lines that were never flushed.
    for (structure, cache) in [
        (Structure::L1d, &core.lsu.l1d),
        (Structure::L2, &core.lsu.l2),
    ] {
        let lines = cache.slots();
        for (slot, line) in lines.live() {
            for (off, rec) in secrets.scan_bytes(lines.bytes(slot)) {
                if authorized(rec.owner, observer) {
                    continue;
                }
                push(
                    findings,
                    Finding {
                        class: None,
                        principle: Principle::P1,
                        structure,
                        cycle: 0,
                        pc: None,
                        secret: Some(rec),
                        observer,
                        detail: format!(
                            "secret remains cached in line {:#x} (byte offset {off}) when \
                         the CPU is not in enclave mode",
                            line.line_addr
                        ),
                    },
                );
            }
        }
    }

    // Branch-prediction residue (M2): entries trained by an enclave that
    // survive into untrusted execution — and, with partial tags, collide
    // with host PCs. Under the eIBRS-style tag mitigation the entries
    // still exist but are unreachable from other domains: not an exposure.
    if outcome.platform.core.config.mitigations.tag_bpu_with_domain {
        return;
    }
    let mut btb_residue = false;
    for (_, e) in core.ubtb.slots().live() {
        if e.train_domain.is_enclave() {
            btb_residue = true;
            push(
                findings,
                Finding {
                    class: Some(LeakClass::M2),
                    principle: Principle::P2,
                    structure: Structure::Ubtb,
                    cycle: 0,
                    pc: Some(e.train_pc),
                    secret: None,
                    observer,
                    detail: format!(
                        "uBTB entry trained by {:?} (pc {:#x}, target {:#x}) survives the \
                     context switch; partial tags let host branches hit it",
                        e.train_domain, e.train_pc, e.target
                    ),
                },
            );
        }
    }
    if !btb_residue {
        for (_, e) in core.ftb.slots().live() {
            if e.train_domain.is_enclave() {
                push(
                    findings,
                    Finding {
                        class: Some(LeakClass::M2),
                        principle: Principle::P2,
                        structure: Structure::Ftb,
                        cycle: 0,
                        pc: Some(e.train_pc),
                        secret: None,
                        observer,
                        detail: "FTB entry trained inside an enclave survives the context \
                             switch"
                            .into(),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authorization_matrix() {
        let e0 = Domain::Enclave(0);
        let e1 = Domain::Enclave(1);
        let sm = Domain::SecurityMonitor;
        let host = Domain::Untrusted;
        assert!(authorized(e0, e0));
        assert!(authorized(e0, sm));
        assert!(!authorized(e0, e1));
        assert!(!authorized(e0, host));
        assert!(!authorized(sm, host));
        assert!(authorized(sm, sm));
        assert!(authorized(host, host));
        assert!(authorized(host, sm));
        assert!(!authorized(host, e0));
    }

    #[test]
    fn rf_classification_directions() {
        let e0 = Domain::Enclave(0);
        let e1 = Domain::Enclave(1);
        let host = Domain::Untrusted;
        let sm = Domain::SecurityMonitor;
        assert_eq!(classify_rf(e0, host, false), Some(LeakClass::D4));
        assert_eq!(classify_rf(sm, host, false), Some(LeakClass::D5));
        assert_eq!(classify_rf(e0, e1, false), Some(LeakClass::D6));
        assert_eq!(classify_rf(host, e1, false), Some(LeakClass::D7));
        assert_eq!(classify_rf(e0, host, true), Some(LeakClass::D8));
    }

    #[test]
    fn lfb_classification_by_purpose() {
        assert_eq!(classify_lfb(FillPurpose::Prefetch), Some(LeakClass::D1));
        assert_eq!(classify_lfb(FillPurpose::PageWalk), Some(LeakClass::D2));
        assert_eq!(classify_lfb(FillPurpose::StoreRefill), Some(LeakClass::D3));
        assert_eq!(classify_lfb(FillPurpose::Demand), None);
    }
}
