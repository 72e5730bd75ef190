//! # metro-scan — the METRO scan subsystem
//!
//! "METRO integrates extensive scan support using an IEEE 1149-1.1990
//! compliant Test Access Port (TAP) extended to support multiple TAPs on
//! each component (MultiTAP). … The TAPs provide a convenient mechanism
//! for setting METRO's mostly static configuration options" (paper §5.1).
//!
//! * [`tap`] — the 16-state IEEE 1149.1 TAP controller.
//! * [`registers`] — instruction decode plus the configuration data
//!   register, including the exact Table 2 bit layout
//!   (encode/decode of [`metro_core::RouterConfig`]).
//! * [`device`] — a complete scannable METRO component: TAP +
//!   registers + boundary cells, driven one TCK at a time.
//! * [`multitap`] — redundant TAPs with survivor selection, METRO's
//!   tolerance to faults in the scan paths themselves.
//! * [`boundary`] — boundary-scan cells and port-pair wire tests.
//! * [`diagnosis`] — the transit-checksum model: what each router of a
//!   clean stream returns at connection reversal, which on-line fault
//!   localization (§5.1) compares the reported checksums against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod boundary;
pub mod chain;
pub mod device;
pub mod diagnosis;
pub mod multitap;
pub mod registers;
pub mod tap;

pub use chain::ScanChain;
pub use device::ScanDevice;
pub use multitap::MultiTap;
pub use registers::{decode_config, encode_config, Instruction};
pub use tap::{TapController, TapState};
