//! Storage-element introspection — the analog of the paper's Yosys synthesis
//! pass that enumerates every HDL construct mapping to memory cells
//! (paper §4.1.3).
//!
//! [`StorageInventory::profile`] is the one statement of which structures
//! a design has, in which order and with what capacity. The verification
//! plan and its coverage-matrix cells, the core's harvested counters
//! ([`crate::core::Core::counters`]) and the engine's campaign-wide
//! counter seed all read it.
//!
//! Every slotted structure (caches, fill buffer, TLBs, PTW cache, BTBs)
//! holds its entries in a live-slot table ([`crate::slots::Slots`]) and
//! exposes it through one accessor, `slots()`. The counters read each
//! table's live count; the checker's end-of-run snapshot scan reads the
//! live entries of a fixed set of five (LFB, L1D, L2, uBTB and FTB), not
//! the profile.

use serde::{Deserialize, Serialize};

use crate::btb::BHT_ENTRIES;
use crate::config::CoreConfig;
use crate::trace::Structure;

/// What a storage element holds, from the checker's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContentClass {
    /// Architectural or microarchitectural *data* (cache lines, register
    /// values) — subject to security principle P1.
    Data,
    /// Execution *metadata* (branch history, event counts, translations) —
    /// subject to security principle P2.
    Metadata,
}

/// One inventoried storage element.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageElement {
    /// The structure class.
    pub structure: Structure,
    /// Element capacity in entries (lines, slots, counters...).
    pub entries: usize,
    /// Bytes of payload per entry.
    pub entry_bytes: usize,
    /// Data or metadata.
    pub content: ContentClass,
    /// Whether the element can be *filled by implicit accesses* (prefetch,
    /// page walks) — these paths often skip permission checks.
    pub implicit_fill: bool,
    /// Whether the element is flushed at privilege/domain switches in this
    /// configuration (before mitigations this is `false` everywhere, which
    /// is exactly the paper's observation).
    pub flushed_on_domain_switch: bool,
}

/// The full storage inventory of a configured core.
///
/// ```
/// use teesec_uarch::introspect::StorageInventory;
/// use teesec_uarch::trace::Structure;
/// use teesec_uarch::CoreConfig;
///
/// let inventory = StorageInventory::profile(&CoreConfig::boom());
/// let lfb = inventory.element(Structure::Lfb).expect("LFB present");
/// assert!(lfb.implicit_fill, "the LFB is fillable by implicit accesses");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageInventory {
    /// Design name this inventory describes.
    pub design: String,
    /// The elements, in [`Structure::all`] order. A structure the design
    /// lacks is omitted — e.g. the store buffer on a core with zero SB
    /// entries — and the core records no trace event against it.
    pub elements: Vec<StorageElement>,
}

impl StorageInventory {
    /// Profiles a core configuration into its storage inventory.
    pub fn profile(config: &CoreConfig) -> StorageInventory {
        let m = config.mitigations;
        let line = config.line_size as usize;
        let mut elements = vec![
            StorageElement {
                structure: Structure::RegFile,
                entries: 32,
                entry_bytes: 8,
                content: ContentClass::Data,
                implicit_fill: false,
                flushed_on_domain_switch: false,
            },
            StorageElement {
                structure: Structure::L1d,
                entries: config.l1d_sets * config.l1d_ways,
                entry_bytes: line,
                content: ContentClass::Data,
                implicit_fill: true,
                flushed_on_domain_switch: m.flush_l1d_on_domain_switch,
            },
            StorageElement {
                structure: Structure::L1i,
                entries: config.l1d_sets * config.l1d_ways,
                entry_bytes: line,
                content: ContentClass::Data,
                implicit_fill: true,
                flushed_on_domain_switch: false,
            },
            StorageElement {
                structure: Structure::L2,
                entries: config.l2_sets * config.l2_ways,
                entry_bytes: line,
                content: ContentClass::Data,
                implicit_fill: true,
                flushed_on_domain_switch: false,
            },
            StorageElement {
                structure: Structure::Lfb,
                entries: config.lfb_entries,
                entry_bytes: line,
                content: ContentClass::Data,
                implicit_fill: true,
                flushed_on_domain_switch: m.flush_lfb_on_domain_switch,
            },
            StorageElement {
                structure: Structure::StoreQueue,
                entries: config.store_queue_entries,
                entry_bytes: 8,
                content: ContentClass::Data,
                implicit_fill: false,
                flushed_on_domain_switch: false,
            },
        ];
        if config.store_buffer_entries > 0 {
            elements.push(StorageElement {
                structure: Structure::StoreBuffer,
                entries: config.store_buffer_entries,
                entry_bytes: 8,
                content: ContentClass::Data,
                implicit_fill: false,
                flushed_on_domain_switch: m.flush_store_buffer_on_domain_switch,
            });
        }
        elements.extend([
            StorageElement {
                structure: Structure::Dtlb,
                entries: config.dtlb_entries,
                entry_bytes: 8,
                content: ContentClass::Metadata,
                implicit_fill: true,
                flushed_on_domain_switch: false,
            },
            StorageElement {
                structure: Structure::Itlb,
                entries: config.itlb_entries,
                entry_bytes: 8,
                content: ContentClass::Metadata,
                implicit_fill: true,
                flushed_on_domain_switch: false,
            },
            StorageElement {
                structure: Structure::PtwCache,
                entries: config.ptw_cache_entries,
                entry_bytes: 8,
                content: ContentClass::Data,
                implicit_fill: true,
                flushed_on_domain_switch: false,
            },
            StorageElement {
                structure: Structure::Ubtb,
                entries: config.ubtb_entries,
                entry_bytes: 8,
                content: ContentClass::Metadata,
                implicit_fill: false,
                flushed_on_domain_switch: m.flush_bpu_on_domain_switch,
            },
            StorageElement {
                structure: Structure::Ftb,
                entries: config.ftb_sets * config.ftb_ways,
                entry_bytes: 8,
                content: ContentClass::Metadata,
                implicit_fill: false,
                flushed_on_domain_switch: m.flush_bpu_on_domain_switch,
            },
            StorageElement {
                structure: Structure::Bht,
                entries: BHT_ENTRIES,
                entry_bytes: 1,
                content: ContentClass::Metadata,
                implicit_fill: false,
                flushed_on_domain_switch: m.flush_bpu_on_domain_switch,
            },
            StorageElement {
                structure: Structure::Hpc,
                entries: config.hpm_counters,
                entry_bytes: 8,
                content: ContentClass::Metadata,
                implicit_fill: false,
                flushed_on_domain_switch: m.clear_hpc_on_domain_switch,
            },
        ]);
        StorageInventory {
            design: config.name.clone(),
            elements,
        }
    }

    /// Looks up one element.
    pub fn element(&self, s: Structure) -> Option<&StorageElement> {
        self.elements.iter().find(|e| e.structure == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, MitigationSet};

    #[test]
    fn boom_has_no_store_buffer_element() {
        let inv = StorageInventory::profile(&CoreConfig::boom());
        assert!(inv.element(Structure::StoreBuffer).is_none());
        let inv_xs = StorageInventory::profile(&CoreConfig::xiangshan());
        assert!(inv_xs.element(Structure::StoreBuffer).is_some());
    }

    #[test]
    fn naive_deployment_flushes_nothing() {
        let inv = StorageInventory::profile(&CoreConfig::boom());
        assert!(inv.elements.iter().all(|e| !e.flushed_on_domain_switch));
    }

    #[test]
    fn mitigations_reflect_in_inventory() {
        let cfg = CoreConfig::boom().with_mitigations(MitigationSet::flush_everything());
        let inv = StorageInventory::profile(&cfg);
        assert!(
            inv.element(Structure::L1d)
                .unwrap()
                .flushed_on_domain_switch
        );
        assert!(
            inv.element(Structure::Lfb)
                .unwrap()
                .flushed_on_domain_switch
        );
        assert!(
            inv.element(Structure::Ubtb)
                .unwrap()
                .flushed_on_domain_switch
        );
        assert!(
            inv.element(Structure::Hpc)
                .unwrap()
                .flushed_on_domain_switch
        );
        // L2 is never flushed even under "flush everything" (the paper's
        // flush targets are the core-private buffers).
        assert!(!inv.element(Structure::L2).unwrap().flushed_on_domain_switch);
    }

    #[test]
    fn capacities_follow_config() {
        let cfg = CoreConfig::xiangshan();
        let inv = StorageInventory::profile(&cfg);
        assert_eq!(
            inv.element(Structure::Ubtb).unwrap().entries,
            cfg.ubtb_entries
        );
        assert_eq!(
            inv.element(Structure::L1d).unwrap().entries,
            cfg.l1d_sets * cfg.l1d_ways
        );
    }
}
