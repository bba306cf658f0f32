//! A Keystone-like trusted execution environment model.
//!
//! Keystone builds TEEs from three ingredients the paper's evaluation
//! depends on, all reproduced here as *real code running on the simulated
//! core* rather than host-side shortcuts:
//!
//! * [`sm`] — the security monitor, generated as machine-mode RISC-V
//!   firmware: SBI dispatch, per-domain PMP switching, destroy-time memory
//!   scrubbing with real stores (the D3 mechanism), and full-context
//!   interrupt saves (the Figure 6 store-buffer path);
//! * [`pagetable`] — the proxy-kernel page-table builder providing the
//!   host's sv39 environment, walked by the core's hardware PTW (the D2
//!   access path);
//! * [`platform`] — the image builder composing SM + host + enclaves +
//!   seeded secrets into a bootable [`teesec_uarch::core::Core`].
//!
//! [`enclave`] captures the lifecycle state machine the SM enforces, and
//! [`sbi`] the host↔SM call ABI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enclave;
pub mod layout;
pub mod pagetable;
pub mod platform;
pub mod sbi;
pub mod sm;

pub use enclave::{EnclaveState, LifecycleTracker};
pub use platform::{HostVm, Platform, PlatformBuilder};
pub use sbi::SbiCall;
