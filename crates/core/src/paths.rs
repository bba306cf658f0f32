//! The memory-access-path enumeration of the verification plan
//! (paper §4.1.1).
//!
//! Thirteen data paths (one per way data can move between memory and the
//! core, explicit and implicit) and two metadata paths. Each access gadget
//! in the constructor exercises exactly one of these.

use serde::{Deserialize, Serialize};

use teesec_uarch::config::{CoreConfig, PrefetcherKind};

/// Whether a path is initiated by an instruction or by hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Initiation {
    /// Initiated directly by a load/store/fetch instruction.
    Explicit,
    /// Initiated by hardware on the program's behalf (prefetch, page walk,
    /// scrub) — the paths §4.1.2 notes often skip permission checks.
    Implicit,
}

/// What the path can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PayloadKind {
    /// Enclave/SM/host data or code bytes (P1).
    Data,
    /// Execution metadata: counters, branch history (P2).
    Metadata,
}

/// The complete access-path enumeration for the modeled cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AccessPath {
    /// Explicit load hitting in the L1D.
    LoadL1Hit,
    /// Explicit load missing L1D, hitting L2 (LFB refill).
    LoadL2Hit,
    /// Explicit load missing both levels (memory + L2 + LFB refill).
    LoadMemMiss,
    /// Explicit load serviced by the committed-store buffer.
    LoadSbForward,
    /// Explicit misaligned load (support/fault behaviour differs).
    LoadMisaligned,
    /// Explicit store hitting in the L1D.
    StoreL1Hit,
    /// Explicit store missing the L1D (write-allocate refill via LFB).
    StoreMiss,
    /// Page-table walk resolved from the PTW cache.
    PtwCached,
    /// Page-table walk fetching PTEs from the memory hierarchy.
    PtwMemory,
    /// Page-table walk with an attacker-poisoned root pointer (SATP aimed
    /// at protected memory — the D2 scenario).
    PtwPoisonedRoot,
    /// Hardware next-line prefetch triggered by a demand miss (D1).
    PrefetchNextLine,
    /// Instruction fetch (I-side translation + PMP).
    InstFetch,
    /// The security monitor's destroy-time scrub stores (write-allocate
    /// refills of old enclave lines — D3).
    SmScrub,
    /// Reads of hardware performance counters (M1).
    HpcRead,
    /// Branch-target-buffer lookups with partial tags (M2).
    BtbLookup,
}

impl AccessPath {
    /// All paths in plan order: thirteen data paths then two metadata paths.
    pub fn all() -> &'static [AccessPath] {
        &[
            AccessPath::LoadL1Hit,
            AccessPath::LoadL2Hit,
            AccessPath::LoadMemMiss,
            AccessPath::LoadSbForward,
            AccessPath::LoadMisaligned,
            AccessPath::StoreL1Hit,
            AccessPath::StoreMiss,
            AccessPath::PtwCached,
            AccessPath::PtwMemory,
            AccessPath::PtwPoisonedRoot,
            AccessPath::PrefetchNextLine,
            AccessPath::InstFetch,
            AccessPath::SmScrub,
            AccessPath::HpcRead,
            AccessPath::BtbLookup,
        ]
    }

    /// Explicit or implicit initiation.
    pub fn initiation(self) -> Initiation {
        match self {
            AccessPath::LoadL1Hit
            | AccessPath::LoadL2Hit
            | AccessPath::LoadMemMiss
            | AccessPath::LoadSbForward
            | AccessPath::LoadMisaligned
            | AccessPath::StoreL1Hit
            | AccessPath::StoreMiss
            | AccessPath::InstFetch
            | AccessPath::HpcRead
            | AccessPath::BtbLookup => Initiation::Explicit,
            AccessPath::PtwCached
            | AccessPath::PtwMemory
            | AccessPath::PtwPoisonedRoot
            | AccessPath::PrefetchNextLine
            | AccessPath::SmScrub => Initiation::Implicit,
        }
    }

    /// Data or metadata payload.
    pub fn payload(self) -> PayloadKind {
        match self {
            AccessPath::HpcRead | AccessPath::BtbLookup => PayloadKind::Metadata,
            _ => PayloadKind::Data,
        }
    }

    /// Whether this path undergoes a PMP permission check on the given
    /// design, and when (the §4.1.2 permission-policy profile).
    pub fn permission_policy(self, cfg: &CoreConfig) -> PermissionPolicy {
        match self {
            AccessPath::PrefetchNextLine => {
                if cfg.prefetcher_pmp_check {
                    PermissionPolicy::CheckedBefore
                } else {
                    PermissionPolicy::Unchecked
                }
            }
            AccessPath::PtwCached | AccessPath::PtwMemory | AccessPath::PtwPoisonedRoot => {
                if cfg.effective_ptw_precheck() {
                    PermissionPolicy::CheckedBefore
                } else {
                    PermissionPolicy::Unchecked
                }
            }
            AccessPath::SmScrub => PermissionPolicy::MachineMode,
            AccessPath::HpcRead | AccessPath::BtbLookup => PermissionPolicy::Unchecked,
            AccessPath::InstFetch => PermissionPolicy::CheckedBefore,
            _ if cfg.mitigations.serialize_pmp_check => PermissionPolicy::CheckedBefore,
            _ => PermissionPolicy::CheckedLazy,
        }
    }

    /// `true` when the path exists on the given design at all (e.g. no
    /// prefetch path without a prefetcher).
    pub fn exists_on(self, cfg: &CoreConfig) -> bool {
        match self {
            AccessPath::PrefetchNextLine => cfg.l1d_prefetcher != PrefetcherKind::None,
            AccessPath::LoadSbForward => cfg.store_buffer_entries > 0,
            // The poisoned-root scenario exists everywhere too: on a
            // pre-checking design the request is suppressed, which is what
            // the test proves.
            _ => true,
        }
    }

    /// Short stable identifier used in reports and test-case names.
    pub fn id(self) -> &'static str {
        match self {
            AccessPath::LoadL1Hit => "exp_load_l1_hit",
            AccessPath::LoadL2Hit => "exp_load_l2_hit",
            AccessPath::LoadMemMiss => "exp_load_mem_miss",
            AccessPath::LoadSbForward => "exp_load_sb_fwd",
            AccessPath::LoadMisaligned => "exp_load_misaligned",
            AccessPath::StoreL1Hit => "exp_store_l1_hit",
            AccessPath::StoreMiss => "exp_store_miss",
            AccessPath::PtwCached => "imp_ptw_cached",
            AccessPath::PtwMemory => "imp_ptw_memory",
            AccessPath::PtwPoisonedRoot => "imp_ptw_poisoned_root",
            AccessPath::PrefetchNextLine => "imp_prefetch_next_line",
            AccessPath::InstFetch => "exp_inst_fetch",
            AccessPath::SmScrub => "imp_sm_scrub",
            AccessPath::HpcRead => "meta_hpc_read",
            AccessPath::BtbLookup => "meta_btb_lookup",
        }
    }
}

/// When (if ever) a permission check covers an access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PermissionPolicy {
    /// Checked before the access can have any side effect.
    CheckedBefore,
    /// Checked in parallel / lazily — side effects precede the fault.
    CheckedLazy,
    /// Never permission-checked.
    Unchecked,
    /// Performed by M-mode firmware (PMP does not constrain it).
    MachineMode,
}

#[cfg(test)]
mod tests {
    use super::*;
    use teesec_uarch::CoreConfig;

    #[test]
    fn thirteen_data_two_metadata() {
        let data = AccessPath::all()
            .iter()
            .filter(|p| p.payload() == PayloadKind::Data)
            .count();
        let meta = AccessPath::all()
            .iter()
            .filter(|p| p.payload() == PayloadKind::Metadata)
            .count();
        assert_eq!(data, 13, "paper: 13 data access gadgets");
        assert_eq!(meta, 2, "paper: 2 metadata access gadgets");
    }

    #[test]
    fn ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for p in AccessPath::all() {
            assert!(seen.insert(p.id()), "duplicate id {}", p.id());
        }
    }

    #[test]
    fn implicit_paths_match_paper() {
        assert_eq!(
            AccessPath::PrefetchNextLine.initiation(),
            Initiation::Implicit
        );
        assert_eq!(
            AccessPath::PtwPoisonedRoot.initiation(),
            Initiation::Implicit
        );
        assert_eq!(AccessPath::SmScrub.initiation(), Initiation::Implicit);
        assert_eq!(AccessPath::LoadL1Hit.initiation(), Initiation::Explicit);
    }

    #[test]
    fn prefetch_path_exists_only_with_prefetcher() {
        assert!(AccessPath::PrefetchNextLine.exists_on(&CoreConfig::boom()));
        assert!(!AccessPath::PrefetchNextLine.exists_on(&CoreConfig::xiangshan()));
        assert!(!AccessPath::LoadSbForward.exists_on(&CoreConfig::boom()));
        assert!(AccessPath::LoadSbForward.exists_on(&CoreConfig::xiangshan()));
    }

    #[test]
    fn permission_policies_differ_across_designs() {
        let boom = CoreConfig::boom();
        let xs = CoreConfig::xiangshan();
        // The prefetcher path is unchecked (the D1 root cause).
        assert_eq!(
            AccessPath::PrefetchNextLine.permission_policy(&boom),
            PermissionPolicy::Unchecked
        );
        // BOOM's PTW is unchecked; XiangShan pre-checks (why D2 fails there).
        assert_eq!(
            AccessPath::PtwPoisonedRoot.permission_policy(&boom),
            PermissionPolicy::Unchecked
        );
        assert_eq!(
            AccessPath::PtwPoisonedRoot.permission_policy(&xs),
            PermissionPolicy::CheckedBefore
        );
        // Demand loads are lazily checked on both (the D4-D8 root cause).
        assert_eq!(
            AccessPath::LoadL1Hit.permission_policy(&boom),
            PermissionPolicy::CheckedLazy
        );
        assert_eq!(
            AccessPath::LoadL1Hit.permission_policy(&xs),
            PermissionPolicy::CheckedLazy
        );
        // The serializing mitigation changes the profile.
        let mut hardened = CoreConfig::boom();
        hardened.mitigations.serialize_pmp_check = true;
        assert_eq!(
            AccessPath::LoadL1Hit.permission_policy(&hardened),
            PermissionPolicy::CheckedBefore
        );
    }
}
