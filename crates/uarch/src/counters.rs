//! Per-run microarchitectural counters — the harvestable digest of one
//! simulation.
//!
//! Where [`crate::trace::Trace`] is the full per-cycle event log the checker
//! scans, [`UarchCounters`] is the cheap aggregate the campaign engine
//! attaches to every case: cycles, instructions retired, trace-event counts
//! per storage element, and each element's occupancy when the run ended.
//! [`crate::core::Core::counters`] harvests one from a finished core.

use serde::{Deserialize, Serialize};

use crate::config::CoreConfig;
use crate::introspect::StorageInventory;
use crate::trace::Structure;

/// Counters for one storage element.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructureCounters {
    /// The structure these counters describe.
    pub structure: Structure,
    /// Line/entry fills recorded in the trace.
    pub fills: u64,
    /// Scalar writes (installs, writebacks) recorded in the trace.
    pub writes: u64,
    /// Reads recorded in the trace.
    pub reads: u64,
    /// Flush/invalidate events recorded in the trace.
    pub flushes: u64,
    /// Valid entries when the run ended (residue surface).
    pub occupancy_at_exit: u64,
    /// Total entries the structure holds in this configuration.
    pub capacity: u64,
}

/// The full microarchitectural counter set of one finished run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UarchCounters {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions_retired: u64,
    /// Total trace events of every kind.
    pub trace_events: u64,
    /// HPM counter-bump events.
    pub counter_bumps: u64,
    /// Security-domain switches observed.
    pub domain_switches: u64,
    /// Per-structure counters, one per element of the design's
    /// [`StorageInventory`], in inventory order.
    pub structures: Vec<StructureCounters>,
}

impl UarchCounters {
    /// Zeroed counters for `config`: one entry per inventoried structure,
    /// each with its inventory capacity.
    pub fn for_design(config: &CoreConfig) -> UarchCounters {
        UarchCounters {
            cycles: 0,
            instructions_retired: 0,
            trace_events: 0,
            counter_bumps: 0,
            domain_switches: 0,
            structures: StorageInventory::profile(config)
                .elements
                .iter()
                .map(|e| StructureCounters {
                    structure: e.structure,
                    fills: 0,
                    writes: 0,
                    reads: 0,
                    flushes: 0,
                    occupancy_at_exit: 0,
                    capacity: e.entries as u64,
                })
                .collect(),
        }
    }

    /// The counters for `s`, if the design inventories it.
    pub fn structure(&self, s: Structure) -> Option<&StructureCounters> {
        self.structures.iter().find(|c| c.structure == s)
    }

    /// Folds another run's counters into this one (campaign aggregation).
    /// Both must list the same structures in the same order (one design's
    /// inventory). Occupancy and capacity take the per-field maximum —
    /// occupancy is a point-in-time residue measure, not a flow.
    pub fn absorb(&mut self, other: &UarchCounters) {
        debug_assert!(
            self.structures
                .iter()
                .map(|c| c.structure)
                .eq(other.structures.iter().map(|c| c.structure)),
            "absorbing counters over a different structure list"
        );
        self.cycles += other.cycles;
        self.instructions_retired += other.instructions_retired;
        self.trace_events += other.trace_events;
        self.counter_bumps += other.counter_bumps;
        self.domain_switches += other.domain_switches;
        for (ours, theirs) in self.structures.iter_mut().zip(&other.structures) {
            ours.fills += theirs.fills;
            ours.writes += theirs.writes;
            ours.reads += theirs.reads;
            ours.flushes += theirs.flushes;
            ours.occupancy_at_exit = ours.occupancy_at_exit.max(theirs.occupancy_at_exit);
            ours.capacity = ours.capacity.max(theirs.capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(structure: Structure, fills: u64, occupancy: u64) -> StructureCounters {
        StructureCounters {
            structure,
            fills,
            writes: 0,
            reads: 0,
            flushes: 0,
            occupancy_at_exit: occupancy,
            capacity: 8,
        }
    }

    #[test]
    fn absorb_sums_flows_and_maxes_occupancy() {
        let mut a = UarchCounters {
            cycles: 100,
            instructions_retired: 40,
            trace_events: 10,
            counter_bumps: 2,
            domain_switches: 1,
            structures: vec![
                counters(Structure::L1d, 3, 5),
                counters(Structure::Lfb, 0, 0),
            ],
        };
        let b = UarchCounters {
            cycles: 50,
            instructions_retired: 20,
            trace_events: 6,
            counter_bumps: 1,
            domain_switches: 2,
            structures: vec![
                counters(Structure::L1d, 2, 2),
                counters(Structure::Lfb, 1, 1),
            ],
        };
        a.absorb(&b);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.instructions_retired, 60);
        assert_eq!(a.trace_events, 16);
        assert_eq!(a.domain_switches, 3);
        let l1d = a.structure(Structure::L1d).unwrap();
        assert_eq!(l1d.fills, 5);
        assert_eq!(l1d.occupancy_at_exit, 5, "occupancy maxes, not sums");
        assert_eq!(a.structure(Structure::Lfb).unwrap().fills, 1);
        assert!(a.structure(Structure::Ubtb).is_none());
    }

    #[test]
    fn counters_roundtrip_through_json() {
        let c = UarchCounters {
            cycles: 1,
            instructions_retired: 2,
            trace_events: 3,
            counter_bumps: 4,
            domain_switches: 5,
            structures: vec![counters(Structure::Hpc, 0, 7)],
        };
        let json = serde_json::to_string(&c).expect("serialize");
        let back: UarchCounters = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, c);
    }
}
