//! The MultiTAP extension.
//!
//! "METRO integrates extensive scan support using an IEEE 1149-1.1990
//! compliant Test Access Port (TAP) extended to support multiple TAPs
//! on each component (MultiTAP). The multiTAP support allows METRO
//! increased tolerance to faults in the scan paths" (paper §5.1,
//! after \[8\]).
//!
//! The component's registers are shared; `sp` independent TAP
//! controllers can each drive them, one holding mastership at a time. A
//! fault in the active TAP's scan path (broken TCK/TMS/TDI wiring, a
//! stuck controller) is survived by failing over to another TAP: the
//! survivor resets to Test-Logic-Reset and takes mastership, and the
//! component remains configurable.

use crate::device::ScanDevice;
use crate::tap::TapState;
use metro_core::{ArchParams, RouterConfig};

/// A METRO component with `sp` redundant TAPs sharing one register
/// file.
#[derive(Debug, Clone)]
pub struct MultiTap {
    device: ScanDevice,
    broken: Vec<bool>,
    active: usize,
}

impl MultiTap {
    /// Creates a component with `sp >= 1` TAPs.
    ///
    /// # Panics
    ///
    /// Panics if `sp == 0`.
    #[must_use]
    pub fn new(params: ArchParams, sp: usize) -> Self {
        assert!(sp >= 1, "at least one TAP is required");
        Self {
            device: ScanDevice::new(params),
            broken: vec![false; sp],
            active: 0,
        }
    }

    /// Number of TAPs.
    #[must_use]
    pub fn taps(&self) -> usize {
        self.broken.len()
    }

    /// The TAP currently holding mastership.
    #[must_use]
    pub fn active_tap(&self) -> usize {
        self.active
    }

    /// The shared register file / device.
    #[must_use]
    pub fn device(&self) -> &ScanDevice {
        &self.device
    }

    /// Mutable access to the shared device *through* TAP `tap`.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `tap` is broken or does not hold mastership —
    /// a faulty or passive TAP cannot affect the component.
    pub fn device_via(&mut self, tap: usize) -> Result<&mut ScanDevice, MultiTapError> {
        if self.broken[tap] {
            return Err(MultiTapError::TapBroken { tap });
        }
        if tap != self.active {
            return Err(MultiTapError::NotMaster {
                tap,
                master: self.active,
            });
        }
        Ok(&mut self.device)
    }

    /// Marks TAP `k` broken (detected by the external scan master
    /// through protocol timeouts). If `k` held mastership, fails over
    /// to the lowest-numbered healthy TAP, resetting the TAP state
    /// machine; the committed configuration is untouched.
    ///
    /// Returns the new master, or `None` if every TAP is now broken.
    pub fn mark_broken(&mut self, k: usize) -> Option<usize> {
        self.broken[k] = true;
        if k == self.active {
            match self.broken.iter().position(|&b| !b) {
                Some(next) => {
                    self.active = next;
                    // The survivor starts from a clean controller state.
                    for _ in 0..5 {
                        self.device.clock(true, false);
                    }
                    debug_assert_eq!(self.device.tap_state(), TapState::TestLogicReset);
                }
                None => return None,
            }
        }
        Some(self.active)
    }

    /// Writes a configuration through the active TAP.
    ///
    /// # Errors
    ///
    /// Returns `Err` if no healthy TAP remains.
    pub fn write_config(&mut self, config: &RouterConfig) -> Result<(), MultiTapError> {
        if self.broken.iter().all(|&b| b) {
            return Err(MultiTapError::AllBroken);
        }
        self.device.write_config(config);
        Ok(())
    }
}

/// Errors from MultiTAP mastership handling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiTapError {
    /// The addressed TAP is broken.
    TapBroken {
        /// The addressed TAP.
        tap: usize,
    },
    /// The addressed TAP does not hold mastership.
    NotMaster {
        /// The addressed TAP.
        tap: usize,
        /// The current master.
        master: usize,
    },
    /// Every TAP on the component is broken.
    AllBroken,
}

impl core::fmt::Display for MultiTapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::TapBroken { tap } => write!(f, "tap {tap} is broken"),
            Self::NotMaster { tap, master } => {
                write!(f, "tap {tap} is not master (tap {master} is)")
            }
            Self::AllBroken => write!(f, "all scan paths are broken"),
        }
    }
}

impl std::error::Error for MultiTapError {}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_core::PortMode;

    #[test]
    fn single_tap_component_works() {
        let params = ArchParams::metrojr();
        let mut mt = MultiTap::new(params, 1);
        let cfg = RouterConfig::new(&params).with_dilation(1).build().unwrap();
        mt.write_config(&cfg).unwrap();
        assert_eq!(mt.device().config().dilation(), 1);
    }

    #[test]
    fn failover_preserves_configuration() {
        let params = ArchParams::metrojr();
        let mut mt = MultiTap::new(params, 2);
        let cfg = RouterConfig::new(&params)
            .with_forward_port_mode(3, PortMode::DisabledDriven)
            .build()
            .unwrap();
        mt.write_config(&cfg).unwrap();
        // The active TAP's scan path breaks.
        let new_master = mt.mark_broken(0);
        assert_eq!(new_master, Some(1));
        assert_eq!(mt.active_tap(), 1);
        // Configuration survived, and the component stays writable.
        assert!(!mt.device().config().forward_enabled(3));
        let cfg2 = RouterConfig::new(&params).with_dilation(1).build().unwrap();
        mt.write_config(&cfg2).unwrap();
        assert_eq!(mt.device().config().dilation(), 1);
    }

    #[test]
    fn passive_tap_cannot_drive() {
        let params = ArchParams::metrojr();
        let mut mt = MultiTap::new(params, 2);
        assert!(matches!(
            mt.device_via(1),
            Err(MultiTapError::NotMaster { tap: 1, master: 0 })
        ));
        assert!(mt.device_via(0).is_ok());
    }

    #[test]
    fn broken_tap_cannot_drive_even_if_addressed() {
        let params = ArchParams::metrojr();
        let mut mt = MultiTap::new(params, 3);
        mt.mark_broken(1);
        assert!(matches!(
            mt.device_via(1),
            Err(MultiTapError::TapBroken { tap: 1 })
        ));
        assert_eq!(mt.active_tap(), 0, "breaking a passive tap keeps master");
    }

    #[test]
    fn all_broken_is_terminal() {
        let params = ArchParams::metrojr();
        let mut mt = MultiTap::new(params, 2);
        assert_eq!(mt.mark_broken(0), Some(1));
        assert_eq!(mt.mark_broken(1), None);
        let cfg = RouterConfig::new(&params).build().unwrap();
        assert_eq!(mt.write_config(&cfg), Err(MultiTapError::AllBroken));
    }
}
