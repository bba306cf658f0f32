//! RISC-V Physical Memory Protection (PMP) semantics.
//!
//! Keystone builds its entire isolation story on PMP: the security monitor
//! carves physical memory into domains (SM-private, per-enclave, untrusted)
//! by programming `pmpcfg`/`pmpaddr` CSRs at every context switch. The
//! matching and permission rules implemented here follow the privileged
//! specification: lowest-numbered matching entry wins; M-mode accesses are
//! allowed unless the matching entry is locked; S/U accesses that match no
//! entry are allowed only when no entry is implemented (here: denied if any
//! entry is active, matching Keystone's deny-by-default final entry setup is
//! modeled explicitly by the TEE crate instead).

use serde::{Deserialize, Serialize};
use teesec_derive::CloneFrom;

use crate::priv_level::PrivLevel;

/// Address-matching mode of a PMP entry (the `A` field of `pmpcfg`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PmpAddrMatch {
    /// Entry disabled.
    #[default]
    Off,
    /// Top-of-range: matches `[pmpaddr[i-1], pmpaddr[i])`.
    Tor,
    /// Naturally aligned four-byte region.
    Na4,
    /// Naturally aligned power-of-two region (≥ 8 bytes).
    Napot,
}

impl PmpAddrMatch {
    /// Decodes the two-bit `A` field.
    pub fn from_bits(bits: u8) -> PmpAddrMatch {
        match bits & 0b11 {
            0 => PmpAddrMatch::Off,
            1 => PmpAddrMatch::Tor,
            2 => PmpAddrMatch::Na4,
            _ => PmpAddrMatch::Napot,
        }
    }

    /// Encodes back to the two-bit `A` field.
    pub fn to_bits(self) -> u8 {
        match self {
            PmpAddrMatch::Off => 0,
            PmpAddrMatch::Tor => 1,
            PmpAddrMatch::Na4 => 2,
            PmpAddrMatch::Napot => 3,
        }
    }
}

/// The kind of access being permission-checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Data read (loads, page-table walks).
    Read,
    /// Data write (stores).
    Write,
    /// Instruction fetch.
    Execute,
}

/// One decoded PMP entry configuration byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PmpCfg {
    /// Read permission.
    pub r: bool,
    /// Write permission.
    pub w: bool,
    /// Execute permission.
    pub x: bool,
    /// Address-matching mode.
    pub a: PmpAddrMatch,
    /// Lock bit: entry also applies to M-mode and is write-protected.
    pub l: bool,
}

impl PmpCfg {
    /// Decodes a `pmpcfg` byte.
    pub fn from_byte(b: u8) -> PmpCfg {
        PmpCfg {
            r: b & 0x01 != 0,
            w: b & 0x02 != 0,
            x: b & 0x04 != 0,
            a: PmpAddrMatch::from_bits((b >> 3) & 0b11),
            l: b & 0x80 != 0,
        }
    }

    /// Encodes back to a `pmpcfg` byte.
    pub fn to_byte(self) -> u8 {
        (self.r as u8)
            | (self.w as u8) << 1
            | (self.x as u8) << 2
            | self.a.to_bits() << 3
            | (self.l as u8) << 7
    }

    /// Convenience: a TOR entry with the given permissions.
    pub fn tor(r: bool, w: bool, x: bool) -> PmpCfg {
        PmpCfg {
            r,
            w,
            x,
            a: PmpAddrMatch::Tor,
            l: false,
        }
    }

    /// Convenience: a NAPOT entry with the given permissions.
    pub fn napot(r: bool, w: bool, x: bool) -> PmpCfg {
        PmpCfg {
            r,
            w,
            x,
            a: PmpAddrMatch::Napot,
            l: false,
        }
    }

    /// Whether this entry grants the given access kind.
    pub fn permits(self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.r,
            AccessKind::Write => self.w,
            AccessKind::Execute => self.x,
        }
    }
}

/// A full PMP unit: `N` config bytes plus `N` address registers.
///
/// `addr[i]` holds the *encoded* `pmpaddr` value (physical address >> 2,
/// with NAPOT size encoding).
///
/// ```
/// use teesec_isa::pmp::{AccessKind, PmpCfg, PmpSet};
/// use teesec_isa::priv_level::PrivLevel;
///
/// let mut pmp = PmpSet::new(8);
/// pmp.program_napot(0, 0x8040_0000, 0x4000, PmpCfg::napot(false, false, false));
/// pmp.program_napot(1, 0, 1 << 48, PmpCfg::napot(true, true, true));
/// assert!(!pmp.allows(0x8040_0000, 8, AccessKind::Read, PrivLevel::Supervisor));
/// assert!(pmp.allows(0x8000_0000, 8, AccessKind::Read, PrivLevel::Supervisor));
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize, CloneFrom)]
pub struct PmpSet {
    cfg: Vec<PmpCfg>,
    addr: Vec<u64>,
}

/// Outcome of a PMP permission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmpDecision {
    /// Whether the access is allowed.
    pub allowed: bool,
    /// Index of the matching entry, if any.
    pub matched_entry: Option<usize>,
}

impl PmpSet {
    /// Creates a PMP unit with `n` entries, all `Off`.
    pub fn new(n: usize) -> PmpSet {
        PmpSet {
            cfg: vec![PmpCfg::default(); n],
            addr: vec![0; n],
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.cfg.len()
    }

    /// `true` if the unit has no entries.
    pub fn is_empty(&self) -> bool {
        self.cfg.is_empty()
    }

    /// Reads the configuration of entry `i`.
    pub fn cfg(&self, i: usize) -> PmpCfg {
        self.cfg[i]
    }

    /// Reads the raw `pmpaddr` register of entry `i`.
    pub fn addr_raw(&self, i: usize) -> u64 {
        self.addr[i]
    }

    /// Writes the configuration of entry `i`. Locked entries are immutable.
    pub fn set_cfg(&mut self, i: usize, cfg: PmpCfg) {
        if !self.cfg[i].l {
            self.cfg[i] = cfg;
        }
    }

    /// Writes the raw `pmpaddr` register of entry `i` (ignored when locked,
    /// or when the *next* entry is a locked TOR entry, per the spec).
    pub fn set_addr_raw(&mut self, i: usize, v: u64) {
        let next_locks = self
            .cfg
            .get(i + 1)
            .is_some_and(|c| c.l && c.a == PmpAddrMatch::Tor);
        if !self.cfg[i].l && !next_locks {
            self.addr[i] = v;
        }
    }

    /// Programs entry `i` as a NAPOT region `[base, base+size)`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two ≥ 8 or `base` is not
    /// `size`-aligned.
    pub fn program_napot(&mut self, i: usize, base: u64, size: u64, cfg: PmpCfg) {
        assert!(
            size.is_power_of_two() && size >= 8,
            "NAPOT size must be a power of two >= 8"
        );
        assert_eq!(base % size, 0, "NAPOT base must be size-aligned");
        let mut c = cfg;
        c.a = PmpAddrMatch::Napot;
        self.cfg[i] = c;
        self.addr[i] = (base >> 2) | ((size >> 3) - 1);
    }

    /// Programs entries `i-1`, `i` as a TOR region `[base, top)`.
    ///
    /// Entry `i-1` is used as the base marker only if it is currently `Off`.
    ///
    /// # Panics
    ///
    /// Panics if `i == 0`.
    pub fn program_tor(&mut self, i: usize, base: u64, top: u64, cfg: PmpCfg) {
        assert!(i > 0, "TOR entry 0 has an implicit base of 0");
        self.addr[i - 1] = base >> 2;
        let mut c = cfg;
        c.a = PmpAddrMatch::Tor;
        self.cfg[i] = c;
        self.addr[i] = top >> 2;
    }

    /// The byte range `[lo, hi)` matched by entry `i`, if it is active.
    pub fn entry_range(&self, i: usize) -> Option<(u64, u64)> {
        match self.cfg[i].a {
            PmpAddrMatch::Off => None,
            PmpAddrMatch::Tor => {
                let lo = if i == 0 { 0 } else { self.addr[i - 1] << 2 };
                let hi = self.addr[i] << 2;
                Some((lo, hi))
            }
            PmpAddrMatch::Na4 => {
                let lo = self.addr[i] << 2;
                Some((lo, lo + 4))
            }
            PmpAddrMatch::Napot => {
                let a = self.addr[i];
                let trailing = (!a).trailing_zeros().min(54);
                let size = 8u64 << trailing;
                let lo = (a & !((1u64 << (trailing + 1)) - 1)) << 2;
                Some((lo, lo + size))
            }
        }
    }

    /// Permission-checks a byte-range access `[addr, addr+len)` at privilege
    /// `priv_level`.
    ///
    /// Per the spec the lowest-numbered entry matching *any* byte of the
    /// access determines the outcome; an access that straddles an entry
    /// boundary fails unless fully contained (modeled conservatively: the
    /// access must be fully inside the matched range to use its permissions).
    pub fn check(
        &self,
        addr: u64,
        len: u64,
        kind: AccessKind,
        priv_level: PrivLevel,
    ) -> PmpDecision {
        let end = addr.saturating_add(len.max(1));
        for i in 0..self.cfg.len() {
            let Some((lo, hi)) = self.entry_range(i) else {
                continue;
            };
            let overlaps = addr < hi && end > lo;
            if !overlaps {
                continue;
            }
            let contained = addr >= lo && end <= hi;
            let cfg = self.cfg[i];
            if priv_level == PrivLevel::Machine && !cfg.l {
                // Unlocked entries do not constrain M-mode.
                return PmpDecision {
                    allowed: true,
                    matched_entry: Some(i),
                };
            }
            let allowed = contained && cfg.permits(kind);
            return PmpDecision {
                allowed,
                matched_entry: Some(i),
            };
        }
        // No match: M succeeds; S/U succeed only if no entry is active
        // (hardware with zero implemented entries). Keystone always installs
        // a default entry, so in practice S/U fall through rarely.
        let any_active = (0..self.cfg.len()).any(|i| self.cfg[i].a != PmpAddrMatch::Off);
        PmpDecision {
            allowed: priv_level == PrivLevel::Machine || !any_active,
            matched_entry: None,
        }
    }

    /// Convenience wrapper returning only the allow/deny bit.
    pub fn allows(&self, addr: u64, len: u64, kind: AccessKind, priv_level: PrivLevel) -> bool {
        self.check(addr, len, kind, priv_level).allowed
    }
}

impl Default for PmpSet {
    fn default() -> Self {
        PmpSet::new(crate::csr::PMP_ENTRY_COUNT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn napot_set(base: u64, size: u64, cfg: PmpCfg) -> PmpSet {
        let mut p = PmpSet::new(8);
        p.program_napot(0, base, size, cfg);
        p
    }

    #[test]
    fn cfg_byte_roundtrip() {
        for b in 0u16..=255 {
            let b = b as u8;
            let cfg = PmpCfg::from_byte(b);
            // Bits 5..6 are reserved-zero; mask them out of the comparison.
            assert_eq!(cfg.to_byte(), b & 0b1001_1111);
        }
    }

    #[test]
    fn napot_range_decoding() {
        let p = napot_set(0x8000_0000, 0x1000, PmpCfg::napot(true, true, false));
        assert_eq!(p.entry_range(0), Some((0x8000_0000, 0x8000_1000)));
    }

    #[test]
    fn napot_denies_outside_permissions() {
        let p = napot_set(0x8000_0000, 0x1000, PmpCfg::napot(true, false, false));
        assert!(p.allows(0x8000_0100, 8, AccessKind::Read, PrivLevel::Supervisor));
        assert!(!p.allows(0x8000_0100, 8, AccessKind::Write, PrivLevel::Supervisor));
        assert!(!p.allows(0x8000_0100, 4, AccessKind::Execute, PrivLevel::User));
    }

    #[test]
    fn machine_mode_ignores_unlocked_entries() {
        let p = napot_set(0x8000_0000, 0x1000, PmpCfg::napot(false, false, false));
        assert!(p.allows(0x8000_0000, 8, AccessKind::Write, PrivLevel::Machine));
        assert!(!p.allows(0x8000_0000, 8, AccessKind::Write, PrivLevel::Supervisor));
    }

    #[test]
    fn locked_entry_constrains_machine_mode() {
        let mut p = PmpSet::new(8);
        let mut cfg = PmpCfg::napot(true, false, false);
        cfg.l = true;
        p.program_napot(0, 0x8000_0000, 0x1000, cfg);
        assert!(!p.allows(0x8000_0000, 8, AccessKind::Write, PrivLevel::Machine));
        assert!(p.allows(0x8000_0000, 8, AccessKind::Read, PrivLevel::Machine));
    }

    #[test]
    fn lowest_numbered_entry_wins() {
        let mut p = PmpSet::new(8);
        p.program_napot(0, 0x8000_0000, 0x1000, PmpCfg::napot(false, false, false));
        p.program_napot(1, 0x8000_0000, 0x10000, PmpCfg::napot(true, true, true));
        assert!(!p.allows(0x8000_0000, 8, AccessKind::Read, PrivLevel::Supervisor));
        // Outside entry 0's page, entry 1 applies.
        assert!(p.allows(0x8000_2000, 8, AccessKind::Read, PrivLevel::Supervisor));
    }

    #[test]
    fn tor_range() {
        let mut p = PmpSet::new(8);
        p.program_tor(1, 0x8000_0000, 0x8000_4000, PmpCfg::tor(true, false, false));
        assert_eq!(p.entry_range(1), Some((0x8000_0000, 0x8000_4000)));
        assert!(p.allows(0x8000_3FF8, 8, AccessKind::Read, PrivLevel::User));
        assert!(!p.allows(0x8000_4000, 8, AccessKind::Read, PrivLevel::User));
    }

    #[test]
    fn straddling_access_denied() {
        let p = napot_set(0x8000_0000, 0x1000, PmpCfg::napot(true, true, true));
        // Access starts inside the region but crosses its top boundary.
        assert!(!p.allows(0x8000_0FFC, 8, AccessKind::Read, PrivLevel::Supervisor));
    }

    #[test]
    fn no_match_denies_s_mode_when_entries_active() {
        let p = napot_set(0x8000_0000, 0x1000, PmpCfg::napot(true, true, true));
        assert!(!p.allows(0x9000_0000, 8, AccessKind::Read, PrivLevel::Supervisor));
        assert!(p.allows(0x9000_0000, 8, AccessKind::Read, PrivLevel::Machine));
    }

    #[test]
    fn no_entries_allows_everything() {
        let p = PmpSet::new(8);
        assert!(p.allows(0x1234, 8, AccessKind::Write, PrivLevel::User));
    }

    #[test]
    fn locked_cfg_is_immutable() {
        let mut p = PmpSet::new(8);
        let mut cfg = PmpCfg::napot(true, true, true);
        cfg.l = true;
        p.program_napot(0, 0x8000_0000, 0x1000, cfg);
        p.set_cfg(0, PmpCfg::default());
        assert!(p.cfg(0).l);
        assert!(p.cfg(0).r);
    }
}
