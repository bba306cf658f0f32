//! Core configuration: structure geometries, latencies and the
//! security-relevant microarchitectural policy knobs.
//!
//! The two presets, [`CoreConfig::boom`] and [`CoreConfig::xiangshan`],
//! encode the *documented structural differences* between the two processors
//! the paper evaluates. The vulnerabilities of paper Table 3 are not
//! hard-coded anywhere — they emerge from these policy choices and are
//! discovered by the TEESec checker from the simulation trace.

use serde::{Deserialize, Serialize};

/// What the L1D returns for a PMP-faulting load that *misses* in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultingMissPolicy {
    /// The miss proceeds to L2 and fills the line-fill buffer with secret
    /// data anyway (BOOM behaviour; paper §7.1.4b).
    ForwardToL2,
    /// The slower miss path gives the L1D time to observe the fault: it
    /// returns a "fake hit" with zero data and issues no L2 fill
    /// (XiangShan behaviour; paper Figure 5).
    FakeHitZero,
}

/// L1 data prefetcher flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrefetcherKind {
    /// No L1D prefetcher (XiangShan).
    None,
    /// Next-line prefetcher: on a demand miss, fetch the following cache
    /// line (BOOM).
    NextLine,
}

/// How hardware page-table-walker memory requests reach the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PtwRequestPath {
    /// PTW requests go through the L1D port and allocate LFB entries on a
    /// miss (BOOM).
    ViaL1d,
    /// PTW requests are sent directly to L2 over a dedicated channel
    /// (XiangShan's TileLink 'A'-channel refills) and never touch the L1D
    /// or its fill buffers.
    DirectToL2,
}

/// The Table 4 mitigation switches. All default to off — the paper's
/// "naive deployment" configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MitigationSet {
    /// Flush the L1 data cache at every PMP reconfiguration (domain switch).
    pub flush_l1d_on_domain_switch: bool,
    /// Drain-and-clear the store buffer at every domain switch.
    pub flush_store_buffer_on_domain_switch: bool,
    /// Zero the data returned by a load whose permission check failed
    /// ("Clear Illegal Data Returns").
    pub clear_illegal_data_returns: bool,
    /// Invalidate all line-fill-buffer entries at every domain switch.
    pub flush_lfb_on_domain_switch: bool,
    /// Clear branch-prediction structures (uBTB/FTB/BHT) at every domain
    /// switch.
    pub flush_bpu_on_domain_switch: bool,
    /// Reset hardware performance counters at every domain switch.
    pub clear_hpc_on_domain_switch: bool,
    /// Serialize PMP checks before memory accesses, so a denied access
    /// never touches the memory hierarchy. Off, the check runs in parallel
    /// with the cache access, and data can be returned, written back and
    /// forwarded before the fault squashes the instruction (the
    /// Meltdown-style lazy-exception implementation of both BOOM and
    /// XiangShan).
    pub serialize_pmp_check: bool,
    /// PMP-check page-table-walker refill addresses *before* issuing the
    /// request (XiangShan already does this; a mitigation for BOOM).
    pub ptw_pmp_precheck: bool,
    /// Tag branch-prediction entries with the training domain and enforce
    /// the tag on every lookup (the paper's §8 alternative to flushing,
    /// extending Intel eIBRS-style tagged BTBs). Cross-domain entries
    /// become unreachable without being destroyed — cheaper than a flush.
    pub tag_bpu_with_domain: bool,
}

impl MitigationSet {
    /// The paper's "Flush Everything" column: every flush/clear enabled.
    pub fn flush_everything() -> MitigationSet {
        MitigationSet {
            flush_l1d_on_domain_switch: true,
            flush_store_buffer_on_domain_switch: true,
            clear_illegal_data_returns: false,
            flush_lfb_on_domain_switch: true,
            flush_bpu_on_domain_switch: true,
            clear_hpc_on_domain_switch: true,
            serialize_pmp_check: false,
            ptw_pmp_precheck: false,
            tag_bpu_with_domain: false,
        }
    }

    /// Every mitigation in the paper enabled at once.
    pub fn all() -> MitigationSet {
        MitigationSet {
            flush_l1d_on_domain_switch: true,
            flush_store_buffer_on_domain_switch: true,
            clear_illegal_data_returns: true,
            flush_lfb_on_domain_switch: true,
            flush_bpu_on_domain_switch: true,
            clear_hpc_on_domain_switch: true,
            serialize_pmp_check: true,
            ptw_pmp_precheck: true,
            tag_bpu_with_domain: true,
        }
    }

    /// `true` when any domain-switch flush is enabled.
    pub fn any_domain_switch_flush(self) -> bool {
        self.flush_l1d_on_domain_switch
            || self.flush_store_buffer_on_domain_switch
            || self.flush_lfb_on_domain_switch
            || self.flush_bpu_on_domain_switch
            || self.clear_hpc_on_domain_switch
    }
}

/// Full microarchitectural configuration of a core instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Human-readable design name (appears in the verification plan).
    pub name: String,

    // ---- structure geometries ------------------------------------------
    /// Cache line size in bytes (both levels).
    pub line_size: u64,
    /// L1 data cache sets.
    pub l1d_sets: usize,
    /// L1 data cache ways.
    pub l1d_ways: usize,
    /// Unified L2 sets.
    pub l2_sets: usize,
    /// Unified L2 ways.
    pub l2_ways: usize,
    /// Line-fill-buffer (MSHR) entries.
    pub lfb_entries: usize,
    /// Whether a fill-buffer entry is deallocated (its data dropped) as
    /// soon as the refill completes. BOOM's LFB retains residual line data
    /// until the entry is reallocated (enabling case D3); XiangShan's MSHR
    /// data path releases entries on completion.
    pub lfb_deallocate_on_complete: bool,
    /// Store-queue entries (speculative stores).
    pub store_queue_entries: usize,
    /// Store-buffer entries (committed stores awaiting L1D write). Zero
    /// models a design whose committed stores write the cache directly.
    pub store_buffer_entries: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Maximum instructions dispatched and committed per cycle.
    pub width: usize,
    /// Data TLB entries (fully associative).
    pub dtlb_entries: usize,
    /// Instruction TLB entries.
    pub itlb_entries: usize,
    /// Page-table-walker cache entries.
    pub ptw_cache_entries: usize,
    /// Micro branch-target-buffer entries (direct mapped).
    pub ubtb_entries: usize,
    /// Number of PC bits used for the uBTB tag (partial tags enable the
    /// paper's M2 collision attack).
    pub ubtb_tag_bits: u32,
    /// Fetch-target-buffer (main BTB) sets.
    pub ftb_sets: usize,
    /// Fetch-target-buffer ways.
    pub ftb_ways: usize,
    /// Number of programmable HPM counters implemented.
    pub hpm_counters: usize,

    // ---- latencies (cycles) --------------------------------------------
    /// L1D hit latency.
    pub l1_hit_latency: u64,
    /// L1-to-L2 round trip on an L1 miss that hits in L2.
    pub l2_latency: u64,
    /// L2 miss to main memory round trip.
    pub mem_latency: u64,

    // ---- security-relevant policies --------------------------------------
    /// Behaviour of a PMP-faulting load that misses in L1D.
    pub faulting_miss_policy: FaultingMissPolicy,
    /// PTW request routing.
    pub ptw_request_path: PtwRequestPath,
    /// PMP-check PTW refill addresses before issuing requests (XiangShan).
    pub ptw_pmp_precheck: bool,
    /// L1D prefetcher flavor.
    pub l1d_prefetcher: PrefetcherKind,
    /// Whether prefetch requests undergo PMP checks (neither core does).
    pub prefetcher_pmp_check: bool,
    /// Whether the store buffer forwards data to loads, including loads
    /// whose permission check failed (XiangShan; enables D8).
    pub store_buffer_forwarding: bool,
    /// Whether a privilege-faulting CSR read still transiently writes the
    /// CSR value back to the register file (XiangShan; enables the Figure 6
    /// M1 variant).
    pub csr_read_transient_writeback: bool,
    /// Whether an interrupt context snapshot taken by firmware observes
    /// speculative (not-yet-retired) register writebacks (XiangShan).
    pub interrupt_snapshot_speculative: bool,

    /// Active mitigation switches (paper Table 4).
    pub mitigations: MitigationSet,
}

impl CoreConfig {
    /// A BOOM-like (SonicBOOM) configuration.
    pub fn boom() -> CoreConfig {
        CoreConfig {
            name: "boom".to_string(),
            line_size: 64,
            l1d_sets: 64,
            l1d_ways: 4,
            l2_sets: 256,
            l2_ways: 8,
            lfb_entries: 8,
            lfb_deallocate_on_complete: false,
            store_queue_entries: 16,
            store_buffer_entries: 0,
            rob_entries: 32,
            width: 2,
            dtlb_entries: 32,
            itlb_entries: 32,
            ptw_cache_entries: 8,
            ubtb_entries: 16,
            ubtb_tag_bits: 14,
            ftb_sets: 128,
            ftb_ways: 4,
            hpm_counters: 8,
            l1_hit_latency: 3,
            l2_latency: 14,
            mem_latency: 60,
            faulting_miss_policy: FaultingMissPolicy::ForwardToL2,
            ptw_request_path: PtwRequestPath::ViaL1d,
            ptw_pmp_precheck: false,
            l1d_prefetcher: PrefetcherKind::NextLine,
            prefetcher_pmp_check: false,
            store_buffer_forwarding: false,
            csr_read_transient_writeback: false,
            interrupt_snapshot_speculative: false,
            mitigations: MitigationSet::default(),
        }
    }

    /// A XiangShan-like configuration.
    pub fn xiangshan() -> CoreConfig {
        CoreConfig {
            name: "xiangshan".to_string(),
            line_size: 64,
            l1d_sets: 128,
            l1d_ways: 8,
            l2_sets: 512,
            l2_ways: 8,
            lfb_entries: 16,
            lfb_deallocate_on_complete: true,
            store_queue_entries: 32,
            store_buffer_entries: 16,
            rob_entries: 64,
            width: 4,
            dtlb_entries: 64,
            itlb_entries: 48,
            ptw_cache_entries: 16,
            ubtb_entries: 1024,
            ubtb_tag_bits: 8,
            ftb_sets: 1024,
            ftb_ways: 4,
            hpm_counters: 8,
            l1_hit_latency: 3,
            l2_latency: 18,
            mem_latency: 80,
            faulting_miss_policy: FaultingMissPolicy::FakeHitZero,
            ptw_request_path: PtwRequestPath::DirectToL2,
            ptw_pmp_precheck: true,
            l1d_prefetcher: PrefetcherKind::None,
            prefetcher_pmp_check: false,
            store_buffer_forwarding: true,
            csr_read_transient_writeback: true,
            interrupt_snapshot_speculative: true,
            mitigations: MitigationSet::default(),
        }
    }

    /// A hardened reference design: BOOM's microarchitecture with every
    /// countermeasure of paper §8 applied — serialized PMP checks, PTW
    /// pre-checking, a checked prefetcher, full buffer/BPU/HPC hygiene at
    /// domain switches and MSHR data release. The paper's closing claim is
    /// that a design following principles P1/P2 mitigates all known attacks
    /// under its threat model; TEESec verifies this preset clean.
    pub fn hardened_reference() -> CoreConfig {
        let mut cfg = CoreConfig::boom();
        cfg.name = "hardened-reference".to_string();
        cfg.faulting_miss_policy = FaultingMissPolicy::FakeHitZero;
        cfg.ptw_pmp_precheck = true;
        cfg.prefetcher_pmp_check = true;
        cfg.lfb_deallocate_on_complete = true;
        cfg.csr_read_transient_writeback = false;
        cfg.interrupt_snapshot_speculative = false;
        cfg.mitigations = MitigationSet {
            flush_l1d_on_domain_switch: true,
            flush_store_buffer_on_domain_switch: true,
            clear_illegal_data_returns: true,
            flush_lfb_on_domain_switch: true,
            flush_bpu_on_domain_switch: false,
            clear_hpc_on_domain_switch: true,
            serialize_pmp_check: true,
            ptw_pmp_precheck: true,
            tag_bpu_with_domain: true,
        };
        cfg
    }

    /// The effective PTW PMP pre-check policy after mitigations.
    pub fn effective_ptw_precheck(&self) -> bool {
        self.ptw_pmp_precheck || self.mitigations.ptw_pmp_precheck
    }

    /// Returns a copy with the given mitigation set applied.
    pub fn with_mitigations(mut self, m: MitigationSet) -> CoreConfig {
        self.mitigations = m;
        self
    }

    /// Validates internal consistency (power-of-two geometries etc.).
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration; construction sites are
    /// expected to call this once.
    pub fn validate(&self) {
        assert!(
            self.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            self.l1d_sets.is_power_of_two(),
            "l1d sets must be a power of two"
        );
        assert!(
            self.l2_sets.is_power_of_two(),
            "l2 sets must be a power of two"
        );
        assert!(
            self.ubtb_entries.is_power_of_two(),
            "ubtb entries must be a power of two"
        );
        assert!(
            self.ftb_sets.is_power_of_two(),
            "ftb sets must be a power of two"
        );
        assert!(self.width >= 1, "pipeline width must be at least 1");
        assert!(
            self.rob_entries >= self.width,
            "ROB must hold at least one dispatch group"
        );
        assert!(
            self.lfb_entries >= 1,
            "at least one line-fill buffer entry required"
        );
        assert!(self.hpm_counters <= teesec_isa::csr::HPM_COUNTER_COUNT);
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::boom()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        CoreConfig::boom().validate();
        CoreConfig::xiangshan().validate();
    }

    #[test]
    fn presets_differ_in_documented_knobs() {
        let b = CoreConfig::boom();
        let x = CoreConfig::xiangshan();
        assert_eq!(b.l1d_prefetcher, PrefetcherKind::NextLine);
        assert_eq!(x.l1d_prefetcher, PrefetcherKind::None);
        assert_eq!(b.faulting_miss_policy, FaultingMissPolicy::ForwardToL2);
        assert_eq!(x.faulting_miss_policy, FaultingMissPolicy::FakeHitZero);
        assert!(!b.ptw_pmp_precheck && x.ptw_pmp_precheck);
        assert!(!b.store_buffer_forwarding && x.store_buffer_forwarding);
        assert_eq!(b.store_buffer_entries, 0);
        assert!(x.store_buffer_entries > 0);
    }

    #[test]
    fn flush_everything_excludes_data_zeroing() {
        let m = MitigationSet::flush_everything();
        assert!(m.flush_l1d_on_domain_switch && m.flush_lfb_on_domain_switch);
        assert!(!m.clear_illegal_data_returns);
        assert!(m.any_domain_switch_flush());
        assert!(!MitigationSet::default().any_domain_switch_flush());
    }

    #[test]
    fn config_serde_roundtrip() {
        let c = CoreConfig::xiangshan();
        let json = serde_json::to_string(&c).expect("serialize");
        let back: CoreConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, c);
    }
}
