//! Router configuration options — Table 2 of the paper.
//!
//! Every option is settable under scan control from a TAP (see the
//! `metro-scan` crate). Per Table 2 the options are:
//!
//! | option | instances | bits per instance |
//! |--------|-----------|-------------------|
//! | port on/off | `i + o` | 1/port |
//! | off-port drive output | `i + o` | 1/port |
//! | turn delay | `i + o` | `ceil(log2(max_vtd))`/port |
//! | fast reclaim | `i + o` | 1/port |
//! | swallow | `i` | 1/forward port |
//! | dilation `d` | 1 | `log2(max_d)`/router |
//!
//! Port enables and fast reclamation may be reconfigured while the router
//! is carrying traffic; dilation, turn delay, and swallow typically remain
//! constant during operation (paper §5.3).

use crate::error::ConfigError;
use crate::params::{log2_exact, ArchParams};

/// A mask with the low `n` bits set — the all-enabled bitplane for a
/// side with `n` ports.
#[inline]
#[must_use]
pub(crate) fn low_mask(n: usize) -> u64 {
    debug_assert!(n <= 64, "port bitplanes hold at most 64 ports");
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Whether a disabled port actively drives its output pins (the
/// "Off Port Drive Output" option of Table 2).
///
/// A disabled port that still drives its output keeps the attached wire
/// at a defined level — useful when the far end is healthy; tri-stating
/// is used when the attached wire itself is suspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PortMode {
    /// Port participates in routing.
    #[default]
    Enabled,
    /// Port disabled; output driven to the idle level.
    DisabledDriven,
    /// Port disabled; output tri-stated.
    DisabledTristate,
}

impl PortMode {
    /// Whether the port participates in routing.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        matches!(self, PortMode::Enabled)
    }
}

/// A complete, validated configuration for one METRO router
/// (paper Table 2).
///
/// Build with [`RouterConfig::new`], which starts from the all-enabled,
/// dilation-`max_d`, zero-turn-delay, fast-reclaim-on defaults and is
/// adjusted through the returned [`ConfigBuilder`].
///
/// # Examples
///
/// ```
/// use metro_core::{ArchParams, RouterConfig};
///
/// let p = ArchParams::rn1();
/// let cfg = RouterConfig::new(&p)
///     .with_dilation(2)
///     .with_fast_reclaim_all(false)
///     .with_forward_port_mode(3, metro_core::PortMode::DisabledDriven)
///     .build()?;
/// assert_eq!(cfg.dilation(), 2);
/// assert_eq!(cfg.radix(), 4);
/// assert!(!cfg.forward_enabled(3));
/// # Ok::<(), metro_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    dilation: usize,
    radix: usize,
    digit_bits: usize,
    fwd_mode: Vec<PortMode>,
    bwd_mode: Vec<PortMode>,
    /// Bitplane over forward ports: bit `f` set iff port `f` is
    /// enabled. Kept in lockstep with `fwd_mode` by every setter so the
    /// allocator and router hot paths test membership with one AND
    /// instead of scanning `PortMode` enums.
    fwd_enabled_mask: u64,
    /// Bitplane over backward ports; see `fwd_enabled_mask`.
    bwd_enabled_mask: u64,
    fwd_turn_delay: Vec<usize>,
    bwd_turn_delay: Vec<usize>,
    fwd_fast_reclaim: Vec<bool>,
    bwd_fast_reclaim: Vec<bool>,
    swallow: Vec<bool>,
}

impl RouterConfig {
    /// Starts building a configuration for a router with parameters
    /// `params`. Defaults: dilation = `max_d`, all ports enabled, all
    /// turn delays 0, fast reclamation enabled everywhere, swallow off.
    #[must_use]
    #[allow(clippy::new_ret_no_self)] // the builder is the entry point
    pub fn new(params: &ArchParams) -> ConfigBuilder {
        assert!(
            params.forward_ports() <= 64 && params.backward_ports() <= 64,
            "port bitplanes hold at most 64 ports per side"
        );
        ConfigBuilder {
            params: *params,
            config: RouterConfig {
                dilation: params.max_dilation(),
                radix: params.radix_at_dilation(params.max_dilation()),
                digit_bits: params.digit_bits_at_dilation(params.max_dilation()),
                fwd_mode: vec![PortMode::Enabled; params.forward_ports()],
                bwd_mode: vec![PortMode::Enabled; params.backward_ports()],
                fwd_enabled_mask: low_mask(params.forward_ports()),
                bwd_enabled_mask: low_mask(params.backward_ports()),
                fwd_turn_delay: vec![0; params.forward_ports()],
                bwd_turn_delay: vec![0; params.backward_ports()],
                fwd_fast_reclaim: vec![true; params.forward_ports()],
                bwd_fast_reclaim: vec![true; params.backward_ports()],
                swallow: vec![false; params.forward_ports()],
            },
            error: None,
        }
    }

    /// The configured dilation `d`.
    #[must_use]
    pub fn dilation(&self) -> usize {
        self.dilation
    }

    /// The effective radix `r = o / d` at the configured dilation.
    #[must_use]
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Bits of routing information consumed per stage, `log2(r)`.
    #[must_use]
    pub fn digit_bits(&self) -> usize {
        self.digit_bits
    }

    /// The mode of forward port `f`.
    #[must_use]
    pub fn forward_mode(&self, f: usize) -> PortMode {
        self.fwd_mode[f]
    }

    /// The mode of backward port `b`.
    #[must_use]
    pub fn backward_mode(&self, b: usize) -> PortMode {
        self.bwd_mode[b]
    }

    /// Whether forward port `f` is enabled.
    #[must_use]
    pub fn forward_enabled(&self, f: usize) -> bool {
        self.fwd_mode[f].is_enabled()
    }

    /// Whether backward port `b` is enabled.
    #[must_use]
    pub fn backward_enabled(&self, b: usize) -> bool {
        self.bwd_mode[b].is_enabled()
    }

    /// Bitplane over forward ports: bit `f` set iff forward port `f`
    /// is enabled. Precomputed — every mode setter keeps it in sync —
    /// so hot paths select candidate ports with single AND/popcount
    /// operations instead of scanning `PortMode` values.
    #[inline]
    #[must_use]
    pub fn forward_enabled_mask(&self) -> u64 {
        self.fwd_enabled_mask
    }

    /// Bitplane over backward ports: bit `b` set iff backward port `b`
    /// is enabled. See [`RouterConfig::forward_enabled_mask`].
    #[inline]
    #[must_use]
    pub fn backward_enabled_mask(&self) -> u64 {
        self.bwd_enabled_mask
    }

    /// Bitplane of the backward ports making up logical direction
    /// `dir` — bits `dir*d .. (dir+1)*d` set.
    ///
    /// # Panics
    ///
    /// Panics if `dir >= radix`.
    #[inline]
    #[must_use]
    pub fn direction_group_mask(&self, dir: usize) -> u64 {
        assert!(dir < self.radix, "direction {dir} out of range");
        low_mask(self.dilation) << (dir * self.dilation)
    }

    /// Sets the mode of forward port `f` in place. Port enables "may
    /// change during operation" (paper §5.3) — this is the runtime
    /// masking entry the self-healing layer uses, bypassing the
    /// builder because the rest of the configuration is already
    /// validated.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn set_forward_mode(&mut self, f: usize, mode: PortMode) {
        assert!(f < self.fwd_mode.len(), "forward port {f} out of range");
        self.fwd_mode[f] = mode;
        if mode.is_enabled() {
            self.fwd_enabled_mask |= 1u64 << f;
        } else {
            self.fwd_enabled_mask &= !(1u64 << f);
        }
    }

    /// Sets the mode of backward port `b` in place (runtime masking;
    /// see [`RouterConfig::set_forward_mode`]).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn set_backward_mode(&mut self, b: usize, mode: PortMode) {
        assert!(b < self.bwd_mode.len(), "backward port {b} out of range");
        self.bwd_mode[b] = mode;
        if mode.is_enabled() {
            self.bwd_enabled_mask |= 1u64 << b;
        } else {
            self.bwd_enabled_mask &= !(1u64 << b);
        }
    }

    /// Whether forward port `f` uses fast path reclamation on blocking
    /// (`true`) or holds the connection for a detailed turn-time reply
    /// (`false`). Paper §5.1, "Path Reclamation — Fast and Detailed".
    #[must_use]
    pub fn fast_reclaim(&self, f: usize) -> bool {
        self.fwd_fast_reclaim[f]
    }

    /// Whether backward port `b` participates in fast path reclamation
    /// (propagating BCBs; Table 2 allocates the option per port on both
    /// sides).
    #[must_use]
    pub fn backward_fast_reclaim(&self, b: usize) -> bool {
        self.bwd_fast_reclaim[b]
    }

    /// The variable turn delay configured on forward port `f`, in delay
    /// slots (pipeline registers modeled on the attached wire).
    #[must_use]
    pub fn forward_turn_delay(&self, f: usize) -> usize {
        self.fwd_turn_delay[f]
    }

    /// The variable turn delay configured on backward port `b`.
    #[must_use]
    pub fn backward_turn_delay(&self, b: usize) -> usize {
        self.bwd_turn_delay[b]
    }

    /// Whether forward port `f` strips the exhausted head word after
    /// consuming its route digit (only meaningful when `hw = 0`).
    #[must_use]
    pub fn swallow(&self, f: usize) -> bool {
        self.swallow[f]
    }

    /// The backward ports making up logical direction `dir`:
    /// `dir*d .. (dir+1)*d`.
    ///
    /// # Panics
    ///
    /// Panics if `dir >= radix`.
    #[must_use]
    pub fn direction_group(&self, dir: usize) -> std::ops::Range<usize> {
        assert!(dir < self.radix, "direction {dir} out of range");
        dir * self.dilation..(dir + 1) * self.dilation
    }

    /// Total configuration bits this router exposes through its scan
    /// registers, per the Table 2 accounting.
    #[must_use]
    pub fn scan_bits(&self, params: &ArchParams) -> usize {
        let ports = params.forward_ports() + params.backward_ports();
        let vtd_bits = if params.max_turn_delay() <= 1 {
            1
        } else {
            (usize::BITS - (params.max_turn_delay() - 1).leading_zeros()) as usize
        };
        // on/off + off-drive + turn delay + fast reclaim, per port;
        // swallow per forward port; dilation select per router.
        ports * (1 + 1 + vtd_bits + 1)
            + params.forward_ports()
            + log2_exact(params.max_dilation()).max(1)
    }
}

/// Builder for [`RouterConfig`]; created by [`RouterConfig::new`].
///
/// Errors are latched: the first invalid setting is reported by
/// [`ConfigBuilder::build`], so chains remain ergonomic.
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    params: ArchParams,
    config: RouterConfig,
    error: Option<ConfigError>,
}

impl ConfigBuilder {
    /// Sets the effective dilation (any power of two up to `max_d`,
    /// paper §5.1 "Configurable Dilation").
    #[must_use]
    pub fn with_dilation(mut self, d: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        if d == 0 || !d.is_power_of_two() {
            self.error = Some(ConfigError::DilationNotPowerOfTwo { d });
        } else if d > self.params.max_dilation() {
            self.error = Some(ConfigError::DilationExceedsMax {
                d,
                max_d: self.params.max_dilation(),
            });
        } else {
            self.config.dilation = d;
            self.config.radix = self.params.radix_at_dilation(d);
            self.config.digit_bits = self.params.digit_bits_at_dilation(d);
        }
        self
    }

    /// Sets the mode of forward port `f`.
    #[must_use]
    pub fn with_forward_port_mode(mut self, f: usize, mode: PortMode) -> Self {
        if self.error.is_some() {
            return self;
        }
        if f >= self.config.fwd_mode.len() {
            self.error = Some(ConfigError::PortOutOfRange {
                port: f,
                count: self.config.fwd_mode.len(),
            });
        } else {
            self.config.set_forward_mode(f, mode);
        }
        self
    }

    /// Sets the mode of backward port `b`.
    #[must_use]
    pub fn with_backward_port_mode(mut self, b: usize, mode: PortMode) -> Self {
        if self.error.is_some() {
            return self;
        }
        if b >= self.config.bwd_mode.len() {
            self.error = Some(ConfigError::PortOutOfRange {
                port: b,
                count: self.config.bwd_mode.len(),
            });
        } else {
            self.config.set_backward_mode(b, mode);
        }
        self
    }

    /// Sets fast path reclamation on forward port `f`.
    #[must_use]
    pub fn with_fast_reclaim(mut self, f: usize, fast: bool) -> Self {
        if self.error.is_some() {
            return self;
        }
        if f >= self.config.fwd_fast_reclaim.len() {
            self.error = Some(ConfigError::PortOutOfRange {
                port: f,
                count: self.config.fwd_fast_reclaim.len(),
            });
        } else {
            self.config.fwd_fast_reclaim[f] = fast;
        }
        self
    }

    /// Sets fast path reclamation on backward port `b`.
    #[must_use]
    pub fn with_backward_fast_reclaim(mut self, b: usize, fast: bool) -> Self {
        if self.error.is_some() {
            return self;
        }
        if b >= self.config.bwd_fast_reclaim.len() {
            self.error = Some(ConfigError::PortOutOfRange {
                port: b,
                count: self.config.bwd_fast_reclaim.len(),
            });
        } else {
            self.config.bwd_fast_reclaim[b] = fast;
        }
        self
    }

    /// Sets fast path reclamation on every forward port at once.
    #[must_use]
    pub fn with_fast_reclaim_all(mut self, fast: bool) -> Self {
        if self.error.is_none() {
            self.config.fwd_fast_reclaim.fill(fast);
        }
        self
    }

    /// Sets the variable turn delay on forward port `f`.
    #[must_use]
    pub fn with_forward_turn_delay(mut self, f: usize, vtd: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        if f >= self.config.fwd_turn_delay.len() {
            self.error = Some(ConfigError::PortOutOfRange {
                port: f,
                count: self.config.fwd_turn_delay.len(),
            });
        } else if vtd > self.params.max_turn_delay() {
            self.error = Some(ConfigError::TurnDelayExceedsMax {
                vtd,
                max_vtd: self.params.max_turn_delay(),
            });
        } else {
            self.config.fwd_turn_delay[f] = vtd;
        }
        self
    }

    /// Sets the variable turn delay on backward port `b`.
    #[must_use]
    pub fn with_backward_turn_delay(mut self, b: usize, vtd: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        if b >= self.config.bwd_turn_delay.len() {
            self.error = Some(ConfigError::PortOutOfRange {
                port: b,
                count: self.config.bwd_turn_delay.len(),
            });
        } else if vtd > self.params.max_turn_delay() {
            self.error = Some(ConfigError::TurnDelayExceedsMax {
                vtd,
                max_vtd: self.params.max_turn_delay(),
            });
        } else {
            self.config.bwd_turn_delay[b] = vtd;
        }
        self
    }

    /// Sets the swallow option on forward port `f` (strip the exhausted
    /// head word; only meaningful when `hw = 0`).
    #[must_use]
    pub fn with_swallow(mut self, f: usize, swallow: bool) -> Self {
        if self.error.is_some() {
            return self;
        }
        if f >= self.config.swallow.len() {
            self.error = Some(ConfigError::PortOutOfRange {
                port: f,
                count: self.config.swallow.len(),
            });
        } else {
            self.config.swallow[f] = swallow;
        }
        self
    }

    /// Sets the swallow option on every forward port at once.
    #[must_use]
    pub fn with_swallow_all(mut self, swallow: bool) -> Self {
        if self.error.is_none() {
            self.config.swallow.fill(swallow);
        }
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] encountered while building.
    pub fn build(self) -> Result<RouterConfig, ConfigError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ArchParams {
        ArchParams::rn1()
    }

    #[test]
    fn defaults_enable_everything_at_max_dilation() {
        let cfg = RouterConfig::new(&params()).build().unwrap();
        assert_eq!(cfg.dilation(), 2);
        assert_eq!(cfg.radix(), 4);
        assert_eq!(cfg.digit_bits(), 2);
        for f in 0..8 {
            assert!(cfg.forward_enabled(f));
            assert!(cfg.fast_reclaim(f));
            assert!(!cfg.swallow(f));
        }
        for b in 0..8 {
            assert!(cfg.backward_enabled(b));
        }
    }

    #[test]
    fn dilation_one_gives_full_radix() {
        let cfg = RouterConfig::new(&params())
            .with_dilation(1)
            .build()
            .unwrap();
        assert_eq!(cfg.radix(), 8);
        assert_eq!(cfg.digit_bits(), 3);
        assert_eq!(cfg.direction_group(5), 5..6);
    }

    #[test]
    fn direction_groups_partition_ports() {
        let cfg = RouterConfig::new(&params())
            .with_dilation(2)
            .build()
            .unwrap();
        let mut seen = [false; 8];
        for dir in 0..cfg.radix() {
            for b in cfg.direction_group(dir) {
                assert!(!seen[b], "port {b} in two groups");
                seen[b] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rejects_invalid_dilation() {
        assert_eq!(
            RouterConfig::new(&params()).with_dilation(3).build(),
            Err(ConfigError::DilationNotPowerOfTwo { d: 3 })
        );
        assert_eq!(
            RouterConfig::new(&params()).with_dilation(4).build(),
            Err(ConfigError::DilationExceedsMax { d: 4, max_d: 2 })
        );
    }

    #[test]
    fn rejects_out_of_range_port() {
        let r = RouterConfig::new(&params())
            .with_forward_port_mode(8, PortMode::DisabledDriven)
            .build();
        assert_eq!(r, Err(ConfigError::PortOutOfRange { port: 8, count: 8 }));
    }

    #[test]
    fn rejects_excessive_turn_delay() {
        let r = RouterConfig::new(&params())
            .with_forward_turn_delay(0, 100)
            .build();
        assert_eq!(
            r,
            Err(ConfigError::TurnDelayExceedsMax {
                vtd: 100,
                max_vtd: 7
            })
        );
    }

    #[test]
    fn first_error_wins() {
        let r = RouterConfig::new(&params())
            .with_dilation(3)
            .with_forward_port_mode(99, PortMode::Enabled)
            .build();
        assert_eq!(r, Err(ConfigError::DilationNotPowerOfTwo { d: 3 }));
    }

    #[test]
    fn per_port_options_stick() {
        let cfg = RouterConfig::new(&params())
            .with_fast_reclaim(2, false)
            .with_swallow(1, true)
            .with_forward_turn_delay(0, 3)
            .with_backward_turn_delay(7, 2)
            .with_backward_port_mode(4, PortMode::DisabledTristate)
            .build()
            .unwrap();
        assert!(!cfg.fast_reclaim(2));
        assert!(cfg.fast_reclaim(3));
        assert!(cfg.swallow(1));
        assert_eq!(cfg.forward_turn_delay(0), 3);
        assert_eq!(cfg.backward_turn_delay(7), 2);
        assert_eq!(cfg.backward_mode(4), PortMode::DisabledTristate);
        assert!(!cfg.backward_enabled(4));
    }

    #[test]
    fn scan_bits_match_table2_accounting() {
        // RN1-like: i + o = 16 ports, max_vtd = 7 -> 3 bits, max_d = 2 -> 1 bit.
        let p = params();
        let cfg = RouterConfig::new(&p).build().unwrap();
        // 16*(1+1+3+1) + 8 (swallow) + 1 (dilation) = 96 + 9 = 105
        assert_eq!(cfg.scan_bits(&p), 105);
    }

    #[test]
    fn enabled_masks_mirror_port_modes() {
        let mut cfg = RouterConfig::new(&params())
            .with_forward_port_mode(1, PortMode::DisabledDriven)
            .with_backward_port_mode(6, PortMode::DisabledTristate)
            .build()
            .unwrap();
        assert_eq!(cfg.forward_enabled_mask(), 0b1111_1101);
        assert_eq!(cfg.backward_enabled_mask(), 0b1011_1111);
        // Runtime masking keeps the bitplanes in lockstep.
        cfg.set_forward_mode(1, PortMode::Enabled);
        cfg.set_backward_mode(0, PortMode::DisabledDriven);
        for f in 0..8 {
            assert_eq!(
                cfg.forward_enabled_mask() >> f & 1 == 1,
                cfg.forward_enabled(f)
            );
            assert_eq!(
                cfg.backward_enabled_mask() >> f & 1 == 1,
                cfg.backward_enabled(f)
            );
        }
    }

    #[test]
    fn direction_group_mask_matches_range() {
        for d in [1, 2] {
            let cfg = RouterConfig::new(&params())
                .with_dilation(d)
                .build()
                .unwrap();
            for dir in 0..cfg.radix() {
                let mut expect = 0u64;
                for b in cfg.direction_group(dir) {
                    expect |= 1 << b;
                }
                assert_eq!(cfg.direction_group_mask(dir), expect);
            }
        }
    }

    #[test]
    fn bulk_setters_apply_everywhere() {
        let cfg = RouterConfig::new(&params())
            .with_fast_reclaim_all(false)
            .with_swallow_all(true)
            .build()
            .unwrap();
        for f in 0..8 {
            assert!(!cfg.fast_reclaim(f));
            assert!(cfg.swallow(f));
        }
    }
}
