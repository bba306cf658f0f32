//! The test-gadget catalog: 8 setup gadgets, 12 helper gadgets and 15
//! access gadgets, mirroring the paper's Table 2 inventory.
//!
//! Every gadget is a parameterized function appending [`Step`]s to a
//! [`TestCase`]. Setup gadgets drive the TEE API in lifecycle-legal orders;
//! helper gadgets arrange microarchitectural preconditions (seed secrets,
//! warm or evict caches, poison `satp`, prime branch predictors); access
//! gadgets exercise exactly one memory access path from the verification
//! plan.

use serde::{Deserialize, Serialize};

use teesec_isa::csr;
use teesec_isa::inst::MemWidth;
use teesec_tee::enclave::{InvalidTransition, LifecycleTracker};
use teesec_tee::layout;
use teesec_tee::SbiCall;
use teesec_uarch::trace::Domain;

use crate::paths::AccessPath;
use crate::testcase::{Actor, Step, TestCase};

/// Gadget classes (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GadgetKind {
    /// Drives the TEE software API (create/run/stop/...).
    Setup,
    /// Arranges microarchitectural state / seeds secrets.
    Helper,
    /// Exercises one memory access path.
    Access,
}

/// Catalog metadata for one gadget.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GadgetSpec {
    /// Gadget name (paper-style).
    pub name: &'static str,
    /// Class.
    pub kind: GadgetKind,
    /// The access path, for access gadgets.
    pub path: Option<AccessPath>,
    /// Parameter names the fuzzer varies.
    pub params: &'static [&'static str],
}

/// The full gadget catalog (8 setup + 12 helper + 15 access = 35 gadgets).
pub fn catalog() -> Vec<GadgetSpec> {
    use GadgetKind::*;
    let mut v = vec![
        // ---- setup (8) --------------------------------------------------
        GadgetSpec {
            name: "Create_Enclave",
            kind: Setup,
            path: None,
            params: &["enclave"],
        },
        GadgetSpec {
            name: "Run_Enclave",
            kind: Setup,
            path: None,
            params: &["enclave"],
        },
        GadgetSpec {
            name: "Stop_Enclave",
            kind: Setup,
            path: None,
            params: &["enclave"],
        },
        GadgetSpec {
            name: "Resume_Enclave",
            kind: Setup,
            path: None,
            params: &["enclave"],
        },
        GadgetSpec {
            name: "Destroy_Enclave",
            kind: Setup,
            path: None,
            params: &["enclave"],
        },
        GadgetSpec {
            name: "Exit_Enclave",
            kind: Setup,
            path: None,
            params: &["enclave"],
        },
        GadgetSpec {
            name: "Attest_Enclave",
            kind: Setup,
            path: None,
            params: &["enclave"],
        },
        GadgetSpec {
            name: "Setup_Host_VM",
            kind: Setup,
            path: None,
            params: &["mode"],
        },
        // ---- helper (12) -------------------------------------------------
        GadgetSpec {
            name: "Fill_Enc_Mem",
            kind: Helper,
            path: None,
            params: &["enclave", "offset", "count"],
        },
        GadgetSpec {
            name: "Preload_Enc_Mem",
            kind: Helper,
            path: None,
            params: &["enclave", "offset", "count"],
        },
        GadgetSpec {
            name: "Enc_Mem_To_L1",
            kind: Helper,
            path: None,
            params: &["enclave", "offset", "count"],
        },
        GadgetSpec {
            name: "Evict_L1_Set",
            kind: Helper,
            path: None,
            params: &["target"],
        },
        GadgetSpec {
            name: "Poison_Satp",
            kind: Helper,
            path: None,
            params: &["root"],
        },
        GadgetSpec {
            name: "Restore_Satp",
            kind: Helper,
            path: None,
            params: &[],
        },
        GadgetSpec {
            name: "Prime_uBTB",
            kind: Helper,
            path: None,
            params: &["offset"],
        },
        GadgetSpec {
            name: "Enc_Branch",
            kind: Helper,
            path: None,
            params: &["offset", "taken"],
        },
        GadgetSpec {
            name: "Touch_Page_Boundary",
            kind: Helper,
            path: None,
            params: &["enclave"],
        },
        GadgetSpec {
            name: "Fill_Host_Secret",
            kind: Helper,
            path: None,
            params: &["offset"],
        },
        GadgetSpec {
            name: "Read_Cycle",
            kind: Helper,
            path: None,
            params: &[],
        },
        GadgetSpec {
            name: "Spin_Delay",
            kind: Helper,
            path: None,
            params: &["nops"],
        },
        // ---- access (15 = 13 data + 2 metadata) --------------------------
    ];
    let access = [
        ("Exp_Acc_Enc_L1", AccessPath::LoadL1Hit),
        ("Exp_Acc_Enc_L2", AccessPath::LoadL2Hit),
        ("Exp_Acc_Enc_Mem", AccessPath::LoadMemMiss),
        ("Exp_Acc_SB_Fwd", AccessPath::LoadSbForward),
        ("Exp_Acc_Misaligned", AccessPath::LoadMisaligned),
        ("Exp_Store_Enc_L1", AccessPath::StoreL1Hit),
        ("Exp_Store_Enc_Miss", AccessPath::StoreMiss),
        ("Imp_PTW_Cached", AccessPath::PtwCached),
        ("Imp_PTW_Memory", AccessPath::PtwMemory),
        ("Imp_PTW_Poisoned", AccessPath::PtwPoisonedRoot),
        ("Imp_Acc_Pref", AccessPath::PrefetchNextLine),
        ("Exp_Fetch_Enc", AccessPath::InstFetch),
        ("Imp_SM_Scrub", AccessPath::SmScrub),
        ("Rd_PerfCounters", AccessPath::HpcRead),
        ("Probe_uBTB", AccessPath::BtbLookup),
    ];
    for (name, path) in access {
        v.push(GadgetSpec {
            name,
            kind: Access,
            path: Some(path),
            params: &["victim", "offset", "width"],
        });
    }
    v
}

// ---------------------------------------------------------------------------
// Setup gadgets: the only emitter of SBI calls. Each call is checked against
// the enclave lifecycle model first, so compositions keep to legal TEE-API
// orders (paper §4.3); a rejected call pushes no step.
// ---------------------------------------------------------------------------

/// Applies `call` to `enclave` in the lifecycle model, then emits it as
/// `actor`. An enclave's own call leaves `a0` at 0: the monitor reads the
/// caller from the domain register.
fn lifecycle_call(
    tc: &mut TestCase,
    lc: &mut LifecycleTracker,
    actor: Actor,
    call: SbiCall,
    enclave: usize,
) -> Result<(), InvalidTransition> {
    lc.apply(enclave, call)?;
    let a0 = match actor {
        Actor::Host => enclave as u64,
        Actor::Enclave(_) => 0,
    };
    tc.push(actor, Step::Sbi { call, enclave: a0 });
    Ok(())
}

/// `Create_Enclave()` — host-side SBI create.
pub fn create_enclave(
    tc: &mut TestCase,
    lc: &mut LifecycleTracker,
    enclave: usize,
) -> Result<(), InvalidTransition> {
    lifecycle_call(tc, lc, Actor::Host, SbiCall::CreateEnclave, enclave)
}

/// `Run_Enclave()` — host-side SBI run (context switch into the enclave).
pub fn run_enclave(
    tc: &mut TestCase,
    lc: &mut LifecycleTracker,
    enclave: usize,
) -> Result<(), InvalidTransition> {
    lifecycle_call(tc, lc, Actor::Host, SbiCall::RunEnclave, enclave)
}

/// `Stop_Enclave()` — enclave-side yield.
pub fn stop_enclave(
    tc: &mut TestCase,
    lc: &mut LifecycleTracker,
    enclave: usize,
) -> Result<(), InvalidTransition> {
    let actor = Actor::Enclave(enclave);
    lifecycle_call(tc, lc, actor, SbiCall::StopEnclave, enclave)
}

/// `Resume_Enclave()` — host-side SBI resume.
pub fn resume_enclave(
    tc: &mut TestCase,
    lc: &mut LifecycleTracker,
    enclave: usize,
) -> Result<(), InvalidTransition> {
    lifecycle_call(tc, lc, Actor::Host, SbiCall::ResumeEnclave, enclave)
}

/// `Destroy_Enclave()` — host-side SBI destroy (triggers the SM scrub).
pub fn destroy_enclave(
    tc: &mut TestCase,
    lc: &mut LifecycleTracker,
    enclave: usize,
) -> Result<(), InvalidTransition> {
    lifecycle_call(tc, lc, Actor::Host, SbiCall::DestroyEnclave, enclave)
}

/// `Exit_Enclave()` — enclave-side terminal exit.
pub fn exit_enclave(
    tc: &mut TestCase,
    lc: &mut LifecycleTracker,
    enclave: usize,
) -> Result<(), InvalidTransition> {
    let actor = Actor::Enclave(enclave);
    lifecycle_call(tc, lc, actor, SbiCall::ExitEnclave, enclave)
}

/// `Attest_Enclave()` — host-side SBI attest (SM reads enclave memory).
pub fn attest_enclave(
    tc: &mut TestCase,
    lc: &mut LifecycleTracker,
    enclave: usize,
) -> Result<(), InvalidTransition> {
    lifecycle_call(tc, lc, Actor::Host, SbiCall::AttestEnclave, enclave)
}

/// `Setup_Host_VM()` — switch the host environment to sv39.
pub fn setup_host_vm(tc: &mut TestCase) {
    tc.host_sv39 = true;
}

// ---------------------------------------------------------------------------
// Helper gadgets
// ---------------------------------------------------------------------------

/// `Fill_Enc_Mem()` — the enclave stores address-derived secrets into its
/// own data region (paper §4.2: secrets are a hash of their address so any
/// leak traces back to its source).
pub fn fill_enc_mem(tc: &mut TestCase, enclave: usize, offset: u64, count: u64) {
    for k in 0..count {
        let addr = layout::enclave_data(enclave) + offset + 8 * k;
        let rec = tc.secrets.seed(addr, Domain::Enclave(enclave as u32));
        tc.push(
            Actor::Enclave(enclave),
            Step::Store {
                addr,
                value: rec.value,
                width: MemWidth::D,
            },
        );
    }
}

/// `Preload_Enc_Mem()` — seed secrets directly into the enclave image (a
/// pre-measured enclave binary with embedded secrets).
pub fn preload_enc_mem(tc: &mut TestCase, enclave: usize, offset: u64, count: u64) {
    for k in 0..count {
        let addr = layout::enclave_data(enclave) + offset + 8 * k;
        tc.secrets.seed(addr, Domain::Enclave(enclave as u32));
    }
}

/// Seeds the security monitor's own secret (for D5-class probing).
pub fn preload_sm_secret(tc: &mut TestCase, offset: u64) -> u64 {
    let addr = layout::SM_BASE + 0x6000 + offset;
    tc.secrets.seed(addr, Domain::SecurityMonitor);
    addr
}

/// `Fill_Host_Secret()` — seeds a host-owned secret in host data (for the
/// D7 direction: enclave reading host data).
pub fn fill_host_secret(tc: &mut TestCase, offset: u64) -> u64 {
    let addr = layout::HOST_DATA + 0x800 + offset;
    tc.secrets.seed(addr, Domain::Untrusted);
    addr
}

/// `Enc_Mem_To_L1()` — the enclave loads its secrets so they are resident
/// in the L1D at the context switch.
pub fn enc_mem_to_l1(tc: &mut TestCase, enclave: usize, offset: u64, count: u64) {
    for k in 0..count {
        let addr = layout::enclave_data(enclave) + offset + 8 * k;
        tc.push(
            Actor::Enclave(enclave),
            Step::Load {
                addr,
                width: MemWidth::D,
            },
        );
    }
}

/// `Evict_L1_Set()` — the host loads enough conflicting lines (same L1 set,
/// spread over the shared and host regions) to evict `target` from the L1D
/// while it remains in the L2.
pub fn evict_l1_set(tc: &mut TestCase, target: u64, l1d_sets: usize, l1d_ways: usize, line: u64) {
    let stride = l1d_sets as u64 * line;
    let set_off = target % stride;
    let mut emitted = 0;
    let regions = [
        (layout::SHARED_BASE, layout::SHARED_SIZE),
        (layout::HOST_DATA, 0x4000),
    ];
    for (base, size) in regions {
        // First address inside the region mapping to the target's set.
        let mut a = base + (set_off + stride - (base % stride)) % stride;
        while a + 8 <= base + size && emitted < l1d_ways as u64 + 2 {
            tc.push(
                Actor::Host,
                Step::Load {
                    addr: a,
                    width: MemWidth::D,
                },
            );
            a += stride;
            emitted += 1;
        }
    }
}

/// `Poison_Satp()` — save the live root and aim `satp` at attacker-chosen
/// physical memory (the D2 primitive).
pub fn poison_satp(tc: &mut TestCase, root_pa: u64) {
    tc.push(Actor::Host, Step::SaveSatp);
    tc.push(Actor::Host, Step::SetSatpSv39 { root_pa });
    // Deliberately *no* sfence.vma: the stale ITLB entries keep the
    // attacker's own code fetchable while data walks use the poisoned root
    // (paper Figure 3).
}

/// `Restore_Satp()` — undo [`poison_satp`].
pub fn restore_satp(tc: &mut TestCase) {
    tc.push(Actor::Host, Step::RestoreSatp);
    tc.push(Actor::Host, Step::SfenceVma);
}

/// `Prime_uBTB()` — host executes a taken branch at a controlled region
/// offset (primes/probes partial-tag BTB entries).
pub fn prime_ubtb(tc: &mut TestCase, offset: u64) {
    tc.push(
        Actor::Host,
        Step::BranchAtOffset {
            offset,
            taken: true,
        },
    );
}

/// `Enc_Branch()` — the enclave executes a conditional branch at the same
/// region offset, colliding with the host's uBTB entry.
pub fn enc_branch(tc: &mut TestCase, enclave: usize, offset: u64, taken: bool) {
    tc.push(
        Actor::Enclave(enclave),
        Step::BranchAtOffset { offset, taken },
    );
}

/// `Touch_Page_Boundary()` — host load at the last doubleword before the
/// enclave region: the next-line prefetcher's target falls inside the
/// enclave (the D1 trigger, paper Figure 2).
pub fn touch_page_boundary(tc: &mut TestCase, enclave: usize) {
    tc.push(
        Actor::Host,
        Step::Load {
            addr: layout::enclave_base(enclave) - 8,
            width: MemWidth::D,
        },
    );
}

/// `Host_Reprobe_Branch()` — the host re-executes its primed branch
/// *after* the TEE interaction returned, re-training the predictors from
/// the monitor-return window. This gadget extends the paper's Table 2
/// set: it was added to close the FTB/BHT monitor-return gap that
/// `teesec coverage-report` surfaced — the systematic corpus primes host
/// branches only before the first SBI call and probes afterwards with a
/// cycle read alone, so no branch ever executes in the window where the
/// predictor residue would actually be consumed (see EXPERIMENTS.md,
/// "coverage gap hunt").
pub fn host_reprobe_branch(tc: &mut TestCase, offset: u64) {
    tc.push(
        Actor::Host,
        Step::BranchAtOffset {
            offset,
            taken: true,
        },
    );
    tc.push(Actor::Host, Step::ReadCycle);
}

/// `Read_Cycle()` — timing probe.
pub fn read_cycle(tc: &mut TestCase, actor: Actor) {
    tc.push(actor, Step::ReadCycle);
}

/// `Spin_Delay()` — pipeline spacing.
pub fn spin_delay(tc: &mut TestCase, actor: Actor, nops: u32) {
    tc.push(actor, Step::Nops(nops));
}

/// `Rd_PerfCounters()` — read every programmable HPM counter (M1 probe).
pub fn read_perf_counters(tc: &mut TestCase, actor: Actor, counters: usize) {
    for i in 0..counters {
        tc.push(
            actor,
            Step::CsrRead {
                csr: csr::hpmcounter_csr(i),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_paper_counts() {
        let cat = catalog();
        let setup = cat.iter().filter(|g| g.kind == GadgetKind::Setup).count();
        let helper = cat.iter().filter(|g| g.kind == GadgetKind::Helper).count();
        let access = cat.iter().filter(|g| g.kind == GadgetKind::Access).count();
        assert_eq!(setup, 8, "paper Table 2: 8 setup gadgets");
        assert_eq!(helper, 12, "paper Table 2: 12 helper gadgets");
        assert_eq!(access, 15, "paper Table 2: 15 access gadgets");
    }

    #[test]
    fn access_gadgets_cover_every_path() {
        let cat = catalog();
        for p in AccessPath::all() {
            assert!(
                cat.iter().any(|g| g.path == Some(*p)),
                "no access gadget for {p:?}"
            );
        }
    }

    #[test]
    fn gadget_names_unique() {
        let cat = catalog();
        let mut seen = std::collections::HashSet::new();
        for g in &cat {
            assert!(seen.insert(g.name), "duplicate gadget {}", g.name);
        }
    }

    #[test]
    fn fill_enc_mem_seeds_and_stores() {
        let mut tc = TestCase::new("t", AccessPath::LoadL1Hit);
        fill_enc_mem(&mut tc, 0, 0x100, 4);
        assert_eq!(tc.secrets.len(), 4);
        assert_eq!(tc.enclave_steps[0].len(), 4);
        // Values are the address hashes.
        let addr = layout::enclave_data(0) + 0x100;
        match &tc.enclave_steps[0][0] {
            Step::Store { addr: a, value, .. } => {
                assert_eq!(*a, addr);
                assert_eq!(*value, crate::secret::secret_for(addr));
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn evict_gadget_emits_same_set_loads() {
        let mut tc = TestCase::new("t", AccessPath::LoadL2Hit);
        let target = layout::enclave_data(0);
        let (sets, ways, line) = (64usize, 4usize, 64u64);
        evict_l1_set(&mut tc, target, sets, ways, line);
        let stride = sets as u64 * line;
        let mut n = 0;
        for s in &tc.host_steps {
            if let Step::Load { addr, .. } = s {
                assert_eq!(addr % stride, target % stride, "conflicting set required");
                n += 1;
            }
        }
        assert!(n > ways, "need more conflicting loads than ways (got {n})");
    }

    #[test]
    fn touch_page_boundary_is_adjacent_to_enclave() {
        let mut tc = TestCase::new("t", AccessPath::PrefetchNextLine);
        touch_page_boundary(&mut tc, 0);
        match &tc.host_steps[0] {
            Step::Load { addr, .. } => {
                assert_eq!(addr + 8, layout::enclave_base(0));
            }
            other => panic!("unexpected step {other:?}"),
        }
    }
}
