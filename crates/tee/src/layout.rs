//! The physical memory map of the simulated Keystone-like platform.
//!
//! All regions are NAPOT-aligned so each maps to exactly one PMP entry —
//! the way Keystone carves physical memory into security domains.

/// Base of the security monitor region (boot vector + trap handler +
/// scratch). Protected from S/U by PMP entry 0.
pub const SM_BASE: u64 = 0x8000_0000;
/// Size of the SM region (NAPOT).
pub const SM_SIZE: u64 = 0x8000;
/// SM scratch area (context save slots) inside the SM region.
pub const SM_SCRATCH: u64 = SM_BASE + 0x4000;

/// The security monitor's private key slot — SM-confidential data that the
/// SM itself reads during attestation (and therefore caches), the D5
/// target.
pub const SM_KEY: u64 = SM_BASE + 0x6000;

/// Base of the untrusted host region (supervisor code + data). PMP entry 1;
/// de-permissioned while an enclave runs.
pub const HOST_BASE: u64 = 0x8010_0000;
/// Size of the host region (NAPOT).
pub const HOST_SIZE: u64 = 0x10000;
/// Host data area inside the host region.
pub const HOST_DATA: u64 = HOST_BASE + 0x8000;

/// Base of the always-accessible shared buffer (Keystone's untrusted shared
/// memory between host and enclave).
pub const SHARED_BASE: u64 = 0x8030_0000;
/// Size of the shared region (covered by the default-allow entry).
pub const SHARED_SIZE: u64 = 0x1_0000;

/// Number of enclave slots the platform supports.
pub const MAX_ENCLAVES: usize = 2;
/// Size of each enclave region (NAPOT).
pub const ENCLAVE_SIZE: u64 = 0x4000;

/// Base address of enclave `i`'s region. PMP entry `2 + i`.
pub fn enclave_base(i: usize) -> u64 {
    assert!(i < MAX_ENCLAVES, "enclave index {i} out of range");
    0x8040_0000 + (i as u64) * ENCLAVE_SIZE
}

/// Entry point of enclave `i` (start of its region).
pub fn enclave_entry(i: usize) -> u64 {
    enclave_base(i)
}

/// Data/secret area inside enclave `i`'s region.
pub fn enclave_data(i: usize) -> u64 {
    enclave_base(i) + ENCLAVE_SIZE / 2
}

/// Base of the host's page-table arena (used when the host runs with sv39).
pub const PT_BASE: u64 = 0x8100_0000;
/// Size reserved for page tables.
pub const PT_SIZE: u64 = 0x10_0000;

/// PMP entry indices, fixed by the SM's boot sequence.
pub mod pmp_entry {
    /// SM region (always deny to S/U).
    pub const SM: usize = 0;
    /// Host region (deny while an enclave runs).
    pub const HOST: usize = 1;
    /// First enclave region.
    pub const ENCLAVE0: usize = 2;
    /// Second enclave region.
    pub const ENCLAVE1: usize = 3;
    /// Default allow-everything entry (lowest priority).
    pub const DEFAULT: usize = 4;
}

/// Scratch slot offsets (from [`SM_SCRATCH`]).
pub mod scratch {
    /// Saved temporaries during trap handling (t1..t3).
    pub const TSAVE: u64 = 0x00;
    /// Host continuation PC across an enclave run.
    pub const HOST_CONT: u64 = 0x20;
    /// Saved host `satp` across an enclave run.
    pub const HOST_SATP: u64 = 0x28;
    /// Per-enclave resume PC (8 bytes each).
    pub const ENC_RESUME: u64 = 0x30;
    /// Interrupt context-save area (x1..x31).
    pub const IRQ_SAVE: u64 = 0x100;
    /// Host GPR context saved across an enclave run (x1..x31).
    pub const HOST_GPRS: u64 = 0x200;
    /// Per-enclave GPR context saved at stop, restored at resume
    /// (x1..x31 each, 0x100 apart).
    pub const ENC_GPRS: u64 = 0x300;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_napot_aligned() {
        assert_eq!(SM_BASE % SM_SIZE, 0);
        assert_eq!(HOST_BASE % HOST_SIZE, 0);
        for i in 0..MAX_ENCLAVES {
            assert_eq!(enclave_base(i) % ENCLAVE_SIZE, 0, "enclave {i}");
        }
        assert!(SM_SIZE.is_power_of_two());
        assert!(HOST_SIZE.is_power_of_two());
        assert!(ENCLAVE_SIZE.is_power_of_two());
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut regions = vec![
            (SM_BASE, SM_SIZE),
            (HOST_BASE, HOST_SIZE),
            (SHARED_BASE, SHARED_SIZE),
            (PT_BASE, PT_SIZE),
        ];
        for i in 0..MAX_ENCLAVES {
            regions.push((enclave_base(i), ENCLAVE_SIZE));
        }
        for (i, &(b1, s1)) in regions.iter().enumerate() {
            for &(b2, s2) in regions.iter().skip(i + 1) {
                assert!(b1 + s1 <= b2 || b2 + s2 <= b1, "overlap {b1:#x}/{b2:#x}");
            }
        }
    }

    #[test]
    fn scratch_slots_fit_in_sm_region() {
        // Evaluated through a runtime binding so the (intentional) layout
        // check is not elided as a constant assertion.
        let top = SM_SCRATCH + scratch::ENC_GPRS + MAX_ENCLAVES as u64 * 0x100;
        let limit = SM_BASE + SM_SIZE;
        assert!(
            top < limit,
            "scratch overflows the SM region: {top:#x} >= {limit:#x}"
        );
        // Context areas must not collide (the GPR area size goes through
        // black_box so the intentional layout check stays a runtime one).
        let gpr_area = std::hint::black_box(31u64 * 8);
        assert!(scratch::IRQ_SAVE + gpr_area <= scratch::HOST_GPRS);
        assert!(scratch::HOST_GPRS + gpr_area <= scratch::ENC_GPRS);
    }
}
