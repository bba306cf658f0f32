//! The gadget assembler: composes setup + helper + access gadgets into
//! complete test cases (paper §4.2, "Gadget Assembler").
//!
//! An execution model backs the composition: the enclave lifecycle tracker
//! guarantees only valid TEE API orders are generated, and each access
//! gadget's preconditions (secret resident in L1, evicted to L2, pending in
//! the store buffer, ...) are established by the appropriate helper gadgets.

use serde::{Deserialize, Serialize};

use teesec_isa::inst::MemWidth;
use teesec_tee::enclave::{InvalidTransition, LifecycleTracker};
use teesec_tee::layout;
use teesec_tee::SbiCall;
use teesec_uarch::config::CoreConfig;
use teesec_uarch::trace::Domain;

use crate::gadgets;
use crate::paths::AccessPath;
use crate::testcase::{Actor, Step, TestCase};

/// Whose secret the case targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Victim {
    /// Enclave 0's data.
    Enclave,
    /// The security monitor's data.
    SecurityMonitor,
    /// The untrusted host's data (probed *from* an enclave — the D7
    /// direction).
    Host,
}

/// Who performs the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Attacker {
    /// The untrusted host supervisor.
    Host,
    /// A second (attacker-controlled) enclave — the D6 direction.
    Enclave1,
}

/// TEE API sequence wrapped around the access (paper §4.1.4: verify after
/// every privilege-transition pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Lifecycle {
    /// create → run → (enclave stops) → access.
    Stop,
    /// create → run → stop → resume → stop → access.
    StopResumeStop,
    /// create → run → (enclave exits) → access.
    Exit,
}

/// Fuzzable parameters of one test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CaseParams {
    /// Target of the probe.
    pub victim: Victim,
    /// The probing side.
    pub attacker: Attacker,
    /// Byte offset of the targeted secret inside the victim data region
    /// (8-aligned).
    pub offset: u64,
    /// Access width of the probe.
    pub width: MemWidth,
    /// Seed the secret with enclave stores (`Fill_Enc_Mem`) instead of a
    /// pre-loaded image.
    pub warm_via_stores: bool,
    /// The surrounding TEE API sequence.
    pub lifecycle: Lifecycle,
    /// Schedule a machine external interrupt (Figure 6 exploration).
    pub irq_at: Option<u64>,
    /// Program `mcounteren = 0` (privileged-counter variant of M1).
    pub restricted_counters: bool,
    /// Append a host branch re-probe after the TEE interaction returns
    /// ([`gadgets::host_reprobe_branch`]) so the monitor-return window
    /// exercises the branch predictors. Off in the systematic corpus; the
    /// coverage gap hunt (EXPERIMENTS.md) turns it on.
    pub reprobe: bool,
}

impl Default for CaseParams {
    fn default() -> Self {
        CaseParams {
            victim: Victim::Enclave,
            attacker: Attacker::Host,
            offset: 0,
            width: MemWidth::D,
            warm_via_stores: false,
            lifecycle: Lifecycle::Stop,
            irq_at: None,
            restricted_counters: false,
            reprobe: false,
        }
    }
}

/// Why a (path, params) combination produces no test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SkipReason {
    /// The path does not exist on this design (e.g. prefetcher absent).
    PathAbsent,
    /// The parameter combination is architecturally meaningless for this
    /// path (e.g. SM victim for a store-buffer forward).
    InvalidCombo,
}

/// A TEE-API order the lifecycle model rejects is an invalid combination.
impl From<InvalidTransition> for SkipReason {
    fn from(_: InvalidTransition) -> SkipReason {
        SkipReason::InvalidCombo
    }
}

/// The number of distinct secrets each case seeds in the victim region.
const SECRET_COUNT: u64 = 4;

/// Builds a complete test case for `path` under `params` on `cfg`.
///
/// ```
/// use teesec::assemble::{assemble_case, CaseParams};
/// use teesec::paths::AccessPath;
/// use teesec_uarch::CoreConfig;
///
/// let tc = assemble_case(
///     AccessPath::LoadL1Hit,
///     CaseParams::default(),
///     &CoreConfig::boom(),
/// )?;
/// assert!(tc.name.starts_with("exp_load_l1_hit"));
/// assert!(!tc.secrets.is_empty());
/// # Ok::<(), teesec::assemble::SkipReason>(())
/// ```
///
/// # Errors
///
/// Returns a [`SkipReason`] instead of a case when the combination is not
/// expressible (the fuzzer treats this as pruning, not failure).
pub fn assemble_case(
    path: AccessPath,
    params: CaseParams,
    cfg: &CoreConfig,
) -> Result<TestCase, SkipReason> {
    if !path.exists_on(cfg) {
        return Err(SkipReason::PathAbsent);
    }
    validate_combo(path, &params)?;
    let mut name = format!(
        "{}__{:?}_{:?}_{:?}_off{:x}_{:?}{}",
        path.id(),
        params.victim,
        params.attacker,
        params.lifecycle,
        params.offset,
        params.width,
        if params.warm_via_stores {
            "_st"
        } else {
            "_pre"
        },
    );
    if params.reprobe {
        name.push_str("_reprobe");
    }
    let mut tc = TestCase::new(name, path);
    tc.irq_at = params.irq_at;
    if params.restricted_counters {
        tc.mcounteren = 0;
    }
    // Every case seeds SM and host sentinels so cross-class leaks surface.
    gadgets::preload_sm_secret(&mut tc, params.offset);
    let host_secret_addr = gadgets::fill_host_secret(&mut tc, params.offset);

    let mut lc = LifecycleTracker::new(layout::MAX_ENCLAVES);
    match path {
        AccessPath::LoadL1Hit
        | AccessPath::LoadL2Hit
        | AccessPath::LoadMemMiss
        | AccessPath::LoadMisaligned
        | AccessPath::StoreL1Hit
        | AccessPath::StoreMiss
        | AccessPath::InstFetch => {
            assemble_demand_case(&mut tc, path, &params, cfg, host_secret_addr, &mut lc)?
        }
        AccessPath::LoadSbForward => assemble_sb_case(&mut tc, &params, &mut lc)?,
        AccessPath::PtwCached | AccessPath::PtwMemory => {
            assemble_ptw_legal_case(&mut tc, path, &params, &mut lc)?
        }
        AccessPath::PtwPoisonedRoot => assemble_ptw_poisoned_case(&mut tc, &params, &mut lc)?,
        AccessPath::PrefetchNextLine => assemble_prefetch_case(&mut tc, &mut lc)?,
        AccessPath::SmScrub => assemble_scrub_case(&mut tc, &params, &mut lc)?,
        AccessPath::HpcRead => assemble_hpc_case(&mut tc, &params, cfg, &mut lc)?,
        AccessPath::BtbLookup => assemble_btb_case(&mut tc, &params, &mut lc)?,
    }
    if params.reprobe {
        // Appended after the path's own probe phase, so the branch runs
        // once the TEE interaction has handed control back to the host.
        // Offset 0x800 clears every path's own host code (the BTB case
        // places its primed branch at 0x400) while keeping the same
        // predictor index bits (0x3F0) as the pre-SBI training branch.
        gadgets::host_reprobe_branch(&mut tc, 0x800 + (params.offset & 0x3F0));
    }
    Ok(tc)
}

fn validate_combo(path: AccessPath, p: &CaseParams) -> Result<(), SkipReason> {
    use AccessPath::*;
    // Host-victim probing only makes sense from an enclave attacker.
    if p.victim == Victim::Host && p.attacker == Attacker::Host {
        return Err(SkipReason::InvalidCombo);
    }
    // An enclave attacker cannot probe a warmed-L1 state it can't arrange,
    // nor SM-internal paths.
    if p.attacker == Attacker::Enclave1
        && matches!(
            path,
            PtwCached | PtwMemory | PtwPoisonedRoot | SmScrub | PrefetchNextLine
        )
    {
        return Err(SkipReason::InvalidCombo);
    }
    // SM data reaches the caches only through the SM's own execution
    // (the attest gadget warms the SM key); there is no SM store-buffer
    // state the attacker can target.
    if p.victim == Victim::SecurityMonitor && matches!(path, LoadSbForward) {
        return Err(SkipReason::InvalidCombo);
    }
    // Host victim only for demand-load style probes.
    if p.victim == Victim::Host
        && !matches!(
            path,
            LoadL1Hit | LoadL2Hit | LoadMemMiss | LoadMisaligned | InstFetch
        )
    {
        return Err(SkipReason::InvalidCombo);
    }
    if matches!(path, SmScrub | BtbLookup | HpcRead | PrefetchNextLine)
        && p.victim != Victim::Enclave
    {
        return Err(SkipReason::InvalidCombo);
    }
    Ok(())
}

/// The address of the probed secret for the given victim.
fn victim_addr(victim: Victim, offset: u64, host_secret_addr: u64) -> u64 {
    match victim {
        Victim::Enclave => layout::enclave_data(0) + offset,
        Victim::SecurityMonitor => layout::SM_KEY + offset,
        Victim::Host => host_secret_addr,
    }
}

/// Runs the victim enclave so its secrets are seeded/warmed, returning with
/// the enclave stopped or exited (per the lifecycle variant).
fn run_victim_enclave(
    tc: &mut TestCase,
    p: &CaseParams,
    lc: &mut LifecycleTracker,
    warm_l1: bool,
) -> Result<(), SkipReason> {
    if p.warm_via_stores {
        gadgets::fill_enc_mem(tc, 0, p.offset, SECRET_COUNT);
    } else {
        gadgets::preload_enc_mem(tc, 0, p.offset, SECRET_COUNT);
        if warm_l1 {
            gadgets::enc_mem_to_l1(tc, 0, p.offset, SECRET_COUNT);
        }
    }
    gadgets::create_enclave(tc, lc, 0)?;
    gadgets::run_enclave(tc, lc, 0)?;
    match p.lifecycle {
        Lifecycle::Stop => {
            // Implicit terminator stops the enclave.
            lc.apply(0, SbiCall::StopEnclave)?;
        }
        Lifecycle::StopResumeStop => {
            gadgets::stop_enclave(tc, lc, 0)?;
            gadgets::resume_enclave(tc, lc, 0)?;
            lc.apply(0, SbiCall::StopEnclave)?;
        }
        Lifecycle::Exit => gadgets::exit_enclave(tc, lc, 0)?,
    }
    Ok(())
}

/// The probe steps (load/store/fetch + dependent consumer), emitted for the
/// chosen attacker.
fn emit_probe(tc: &mut TestCase, path: AccessPath, p: &CaseParams, addr: u64) {
    let actor = match p.attacker {
        Attacker::Host => Actor::Host,
        Attacker::Enclave1 => Actor::Enclave(1),
    };
    match path {
        AccessPath::LoadMisaligned => {
            tc.push(
                actor,
                Step::Load {
                    addr: addr + 3,
                    width: p.width,
                },
            );
            tc.push(actor, Step::ConsumeLast);
        }
        AccessPath::StoreL1Hit | AccessPath::StoreMiss => {
            tc.push(
                actor,
                Step::Store {
                    addr,
                    value: 0x4141_4141,
                    width: p.width,
                },
            );
        }
        AccessPath::InstFetch => {
            tc.push(actor, Step::FetchProbe { addr });
        }
        _ => {
            tc.push(
                actor,
                Step::Load {
                    addr,
                    width: p.width,
                },
            );
            tc.push(actor, Step::ConsumeLast);
        }
    }
}

/// If the attacker is enclave 1, wrap its probe in a create/run sequence.
fn dispatch_attacker(
    tc: &mut TestCase,
    p: &CaseParams,
    lc: &mut LifecycleTracker,
) -> Result<(), SkipReason> {
    if p.attacker == Attacker::Enclave1 {
        gadgets::create_enclave(tc, lc, 1)?;
        gadgets::run_enclave(tc, lc, 1)?;
        lc.apply(1, SbiCall::StopEnclave)?;
    }
    Ok(())
}

fn assemble_demand_case(
    tc: &mut TestCase,
    path: AccessPath,
    p: &CaseParams,
    cfg: &CoreConfig,
    host_secret_addr: u64,
    lc: &mut LifecycleTracker,
) -> Result<(), SkipReason> {
    let addr = victim_addr(p.victim, p.offset, host_secret_addr);
    let warm = matches!(
        path,
        AccessPath::LoadL1Hit | AccessPath::LoadL2Hit | AccessPath::StoreL1Hit
    );
    match p.victim {
        Victim::Enclave => {
            run_victim_enclave(tc, p, lc, warm)?;
        }
        Victim::SecurityMonitor => {
            if warm {
                // Attestation makes the SM read its private key, pulling
                // SM-confidential data into the L1D (the D5 hit path).
                gadgets::create_enclave(tc, lc, 0)?;
                gadgets::attest_enclave(tc, lc, 0)?;
            }
        }
        Victim::Host => {
            // No enclave required; secrets already seeded.
        }
    }
    if path == AccessPath::LoadL2Hit {
        // Evict the secret's set from the L1 while it stays in L2.
        gadgets::evict_l1_set(tc, addr, cfg.l1d_sets, cfg.l1d_ways, cfg.line_size);
    }
    // Dispatch the attacker context, then probe.
    emit_probe_in_context(tc, path, p, lc, addr)
}

fn emit_probe_in_context(
    tc: &mut TestCase,
    path: AccessPath,
    p: &CaseParams,
    lc: &mut LifecycleTracker,
    addr: u64,
) -> Result<(), SkipReason> {
    if p.attacker == Attacker::Enclave1 {
        // Probe runs inside enclave 1.
        emit_probe(tc, path, p, addr);
        dispatch_attacker(tc, p, lc)?;
    } else {
        emit_probe(tc, path, p, addr);
    }
    Ok(())
}

fn assemble_sb_case(
    tc: &mut TestCase,
    p: &CaseParams,
    lc: &mut LifecycleTracker,
) -> Result<(), SkipReason> {
    // The enclave's final action is a burst of stores; they are still
    // draining from the store buffer when the host probes.
    gadgets::fill_enc_mem(tc, 0, p.offset, 8);
    gadgets::create_enclave(tc, lc, 0)?;
    gadgets::run_enclave(tc, lc, 0)?;
    lc.apply(0, SbiCall::StopEnclave)?;
    // Probe the *last* store (deepest in the buffer).
    let addr = layout::enclave_data(0) + p.offset + 8 * 7;
    emit_probe(tc, AccessPath::LoadSbForward, p, addr);
    Ok(())
}

fn assemble_ptw_legal_case(
    tc: &mut TestCase,
    path: AccessPath,
    p: &CaseParams,
    lc: &mut LifecycleTracker,
) -> Result<(), SkipReason> {
    gadgets::setup_host_vm(tc);
    match p.victim {
        Victim::Enclave => {
            run_victim_enclave(tc, p, lc, false)?;
            // A translated probe of enclave memory: the walk itself is
            // legal (the malicious OS maps the enclave), the final access
            // PMP-faults.
            let addr = layout::enclave_data(0) + p.offset;
            if path == AccessPath::PtwCached {
                // Prime the PTW cache with a neighbouring translation first.
                tc.push(
                    Actor::Host,
                    Step::Load {
                        addr: addr ^ 0x1000,
                        width: MemWidth::D,
                    },
                );
            }
            emit_probe(tc, path, p, addr);
        }
        Victim::SecurityMonitor => {
            let addr = layout::SM_BASE + 0x6000 + p.offset;
            // SM region is unmapped in the host tables — rely on the PMP
            // fault from the identity-mapped shared window instead: probe
            // via the physical alias (no mapping -> page fault path).
            emit_probe(tc, path, p, addr);
        }
        Victim::Host => return Err(SkipReason::InvalidCombo),
    }
    Ok(())
}

fn assemble_ptw_poisoned_case(
    tc: &mut TestCase,
    p: &CaseParams,
    lc: &mut LifecycleTracker,
) -> Result<(), SkipReason> {
    gadgets::setup_host_vm(tc);
    let secret_addr = match p.victim {
        Victim::Enclave => {
            run_victim_enclave(tc, p, lc, false)?;
            layout::enclave_data(0) + p.offset
        }
        Victim::SecurityMonitor => layout::SM_KEY + p.offset,
        Victim::Host => return Err(SkipReason::InvalidCombo),
    };
    let root = secret_addr & !0xFFF;
    gadgets::poison_satp(tc, root);
    // Choose the arbitrary VA so the walk's level-2 PTE fetch lands exactly
    // on the seeded secret: pte_addr = root + vpn2 * 8 (paper Figure 3's
    // `LD a5, Arb_Addr`). The VA is never mapped, so the TLB misses.
    let vpn2 = (secret_addr & 0xFFF) / 8;
    tc.push(
        Actor::Host,
        Step::Load {
            addr: vpn2 << 30,
            width: MemWidth::D,
        },
    );
    gadgets::restore_satp(tc);
    Ok(())
}

fn assemble_prefetch_case(tc: &mut TestCase, lc: &mut LifecycleTracker) -> Result<(), SkipReason> {
    // Secrets live in the *first* line of the enclave region; the enclave
    // never executes (a created-but-not-run enclave, as in Figure 2).
    for k in 0..SECRET_COUNT {
        tc.secrets
            .seed(layout::enclave_base(0) + 8 * k, Domain::Enclave(0));
    }
    gadgets::create_enclave(tc, lc, 0)?;
    gadgets::touch_page_boundary(tc, 0);
    // Give the asynchronous prefetch time to land before the test ends.
    gadgets::spin_delay(tc, Actor::Host, 64);
    Ok(())
}

fn assemble_scrub_case(
    tc: &mut TestCase,
    p: &CaseParams,
    lc: &mut LifecycleTracker,
) -> Result<(), SkipReason> {
    run_victim_enclave(tc, p, lc, false)?;
    // The paper's Fill_Enc_Mem populates enclave memory throughout; in
    // particular the *tail* of the region matters — those are the lines the
    // scrub's final write-allocate refills pull into the LFB, where they
    // persist after the switch back to the host (Figure 4).
    let end = layout::enclave_base(0) + layout::ENCLAVE_SIZE;
    let mut a = end - 8 * 64; // the last eight cache lines
    while a < end {
        tc.secrets.seed(a, Domain::Enclave(0));
        a += 8;
    }
    gadgets::destroy_enclave(tc, lc, 0)?;
    // Let the scrub's stores drain while the host idles in untrusted mode.
    gadgets::spin_delay(tc, Actor::Host, 128);
    Ok(())
}

fn assemble_hpc_case(
    tc: &mut TestCase,
    p: &CaseParams,
    cfg: &CoreConfig,
    lc: &mut LifecycleTracker,
) -> Result<(), SkipReason> {
    // The enclave produces characteristic counter activity: misses + a walk.
    gadgets::preload_enc_mem(tc, 0, p.offset, SECRET_COUNT);
    gadgets::enc_mem_to_l1(tc, 0, p.offset, SECRET_COUNT);
    gadgets::enc_branch(tc, 0, 0x200, true);
    gadgets::create_enclave(tc, lc, 0)?;
    gadgets::run_enclave(tc, lc, 0)?;
    lc.apply(0, SbiCall::StopEnclave)?;
    if p.restricted_counters {
        // Figure 6 variant: counters privileged; the read transiently
        // writes back; an interrupt spills the context through the store
        // buffer; the host then probes the save area.
        gadgets::read_perf_counters(tc, Actor::Host, cfg.hpm_counters.min(2));
        gadgets::spin_delay(tc, Actor::Host, 32);
        gadgets::read_perf_counters(tc, Actor::Host, cfg.hpm_counters.min(2));
        // Probe the interrupt save slot of a5 (x15).
        let slot = layout::SM_SCRATCH + layout::scratch::IRQ_SAVE + (15 - 1) * 8;
        tc.push(
            Actor::Host,
            Step::Load {
                addr: slot,
                width: MemWidth::D,
            },
        );
        tc.push(Actor::Host, Step::ConsumeLast);
    } else {
        gadgets::read_perf_counters(tc, Actor::Host, cfg.hpm_counters);
    }
    Ok(())
}

fn assemble_btb_case(
    tc: &mut TestCase,
    p: &CaseParams,
    lc: &mut LifecycleTracker,
) -> Result<(), SkipReason> {
    // Offset chosen inside the code area, clear of the emitted prologue.
    let branch_off = 0x400 + (p.offset & 0x3F0);
    // Prime: host taken branch at the colliding offset.
    gadgets::read_cycle(tc, Actor::Host);
    gadgets::prime_ubtb(tc, branch_off);
    // Enclave executes a conditional branch at the same region offset.
    gadgets::enc_branch(tc, 0, branch_off, true);
    gadgets::create_enclave(tc, lc, 0)?;
    gadgets::run_enclave(tc, lc, 0)?;
    lc.apply(0, SbiCall::StopEnclave)?;
    // Probe: the host branch again, timing it.
    gadgets::read_cycle(tc, Actor::Host);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boom() -> CoreConfig {
        CoreConfig::boom()
    }

    #[test]
    fn every_existing_path_assembles_with_defaults() {
        for path in AccessPath::all() {
            let r = assemble_case(*path, CaseParams::default(), &boom());
            if path.exists_on(&boom()) {
                assert!(r.is_ok(), "{path:?} failed to assemble");
            } else {
                assert_eq!(r.err(), Some(SkipReason::PathAbsent));
            }
        }
    }

    #[test]
    fn sb_forward_assembles_on_xiangshan_only() {
        let xs = CoreConfig::xiangshan();
        assert!(assemble_case(AccessPath::LoadSbForward, CaseParams::default(), &xs).is_ok());
        assert_eq!(
            assemble_case(AccessPath::LoadSbForward, CaseParams::default(), &boom()).err(),
            Some(SkipReason::PathAbsent)
        );
    }

    #[test]
    fn invalid_combos_are_pruned() {
        let p = CaseParams {
            victim: Victim::Host,
            attacker: Attacker::Host,
            ..Default::default()
        };
        assert_eq!(
            assemble_case(AccessPath::LoadL1Hit, p, &boom()).err(),
            Some(SkipReason::InvalidCombo)
        );
        let p = CaseParams {
            victim: Victim::SecurityMonitor,
            ..Default::default()
        };
        assert_eq!(
            assemble_case(AccessPath::LoadSbForward, p, &CoreConfig::xiangshan()).err(),
            Some(SkipReason::InvalidCombo)
        );
    }

    #[test]
    fn d6_and_d7_directions_assemble() {
        // D6: enclave 1 probes enclave 0.
        let p = CaseParams {
            attacker: Attacker::Enclave1,
            ..Default::default()
        };
        let tc = assemble_case(AccessPath::LoadMemMiss, p, &boom()).expect("D6 case");
        assert!(
            !tc.enclave_steps[1].is_empty(),
            "attacker enclave has a program"
        );
        // D7: enclave 1 probes host data.
        let p = CaseParams {
            victim: Victim::Host,
            attacker: Attacker::Enclave1,
            ..Default::default()
        };
        let tc = assemble_case(AccessPath::LoadMemMiss, p, &boom()).expect("D7 case");
        assert!(tc
            .secrets
            .records()
            .iter()
            .any(|r| r.owner == Domain::Untrusted));
    }

    #[test]
    fn lifecycle_variants_produce_valid_sequences() {
        for lifecycle in [Lifecycle::Stop, Lifecycle::StopResumeStop, Lifecycle::Exit] {
            let p = CaseParams {
                lifecycle,
                ..Default::default()
            };
            assemble_case(AccessPath::LoadL1Hit, p, &boom())
                .unwrap_or_else(|e| panic!("{lifecycle:?}: {e:?}"));
        }
    }

    #[test]
    fn poisoned_root_case_points_satp_at_victim() {
        let tc =
            assemble_case(AccessPath::PtwPoisonedRoot, CaseParams::default(), &boom()).unwrap();
        assert!(tc.host_sv39);
        assert!(tc
            .host_steps
            .iter()
            .any(|s| matches!(s, Step::SetSatpSv39 { root_pa } if *root_pa & 0xFFF == 0)));
        assert!(tc.host_steps.iter().any(|s| matches!(s, Step::RestoreSatp)));
    }

    #[test]
    fn names_are_distinct_across_params() {
        let a = assemble_case(AccessPath::LoadL1Hit, CaseParams::default(), &boom()).unwrap();
        let b = assemble_case(
            AccessPath::LoadL1Hit,
            CaseParams {
                offset: 8,
                ..Default::default()
            },
            &boom(),
        )
        .unwrap();
        assert_ne!(a.name, b.name);
    }
}
