//! Storage-element introspection — the analog of the paper's Yosys synthesis
//! pass that enumerates every HDL construct mapping to memory cells
//! (paper §4.1.3).
//!
//! Each stateful structure in the core model reports itself here; the
//! TEESec verification plan consumes the inventory to decide what to log
//! and what the checker must scan.

use serde::{Deserialize, Serialize};

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
    /// The elements, in [`Structure::all`] order (absent structures are
    /// omitted — e.g. the store buffer on a core with zero SB entries).
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
                entries: 1024,
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

    /// Elements that can be filled by implicit (permission-check-skipping)
    /// accesses — the paths §4.1.2 calls out as frequently unchecked.
    pub fn implicit_fill_targets(&self) -> impl Iterator<Item = &StorageElement> {
        self.elements.iter().filter(|e| e.implicit_fill)
    }

    /// Elements holding enclave-relevant metadata (P2 targets).
    pub fn metadata_elements(&self) -> impl Iterator<Item = &StorageElement> {
        self.elements
            .iter()
            .filter(|e| e.content == ContentClass::Metadata)
    }

    /// Total modeled state in bytes (diagnostic).
    pub fn total_state_bytes(&self) -> usize {
        self.elements
            .iter()
            .map(|e| e.entries * e.entry_bytes)
            .sum()
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
    fn implicit_fill_targets_include_lfb_and_caches() {
        let inv = StorageInventory::profile(&CoreConfig::boom());
        let implicit: Vec<Structure> = inv.implicit_fill_targets().map(|e| e.structure).collect();
        assert!(implicit.contains(&Structure::Lfb));
        assert!(implicit.contains(&Structure::L1d));
        assert!(implicit.contains(&Structure::PtwCache));
        assert!(!implicit.contains(&Structure::RegFile));
    }

    #[test]
    fn metadata_elements_cover_p2_targets() {
        let inv = StorageInventory::profile(&CoreConfig::xiangshan());
        let meta: Vec<Structure> = inv.metadata_elements().map(|e| e.structure).collect();
        assert!(meta.contains(&Structure::Ubtb));
        assert!(meta.contains(&Structure::Hpc));
        assert!(meta.contains(&Structure::Dtlb));
        assert!(!meta.contains(&Structure::L1d));
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
        assert!(inv.total_state_bytes() > 0);
    }
}
