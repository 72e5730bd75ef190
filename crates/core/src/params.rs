//! Architectural parameters — Table 1 of the paper.
//!
//! The METRO architecture describes a *family* of routers. A concrete
//! implementation is pinned down by the parameters in [`ArchParams`],
//! validated against the constraints Table 1 lists:
//!
//! | variable | function | constraint |
//! |----------|----------|------------|
//! | `sp` | number of scan paths | `sp >= 1` |
//! | `w`  | bit width of data channel | `w >= log2(o)` |
//! | `max_d` | maximum dilation | power of two, `max_d <= o` |
//! | `i`  | number of forward ports | power of two |
//! | `o`  | number of backward ports | power of two, `o >= max_d` |
//! | `ri` | number of random inputs | `ri >= 1` |
//! | `hw` | header words consumed per router | `hw >= 0` |
//! | `dp` | data pipestages inside router | `dp >= 1` |
//! | `max_vtd` | maximum variable-turn-delay slots | `max_vtd >= 0` |

use crate::error::ParamError;

/// The architectural parameters of a METRO router implementation
/// (paper Table 1).
///
/// Construct via [`ArchParams::new`] (which validates every Table 1
/// constraint) or one of the named presets such as
/// [`ArchParams::metrojr`] for the fabricated METROJR-ORBIT part.
///
/// # Examples
///
/// ```
/// use metro_core::ArchParams;
///
/// let p = ArchParams::new(8, 8, 8, 4, 0, 1)?;
/// assert_eq!(p.radix_at_dilation(2), 4);
/// # Ok::<(), metro_core::ParamError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchParams {
    i: usize,
    o: usize,
    w: usize,
    max_d: usize,
    hw: usize,
    dp: usize,
    ri: usize,
    sp: usize,
    max_vtd: usize,
}

impl ArchParams {
    /// Creates a parameter set with the given forward ports `i`, backward
    /// ports `o`, channel width `w`, maximum dilation `max_d`, header
    /// words consumed per router `hw`, and internal data pipestages `dp`.
    ///
    /// The number of random inputs defaults to `ri = 2`, scan paths to
    /// `sp = 2`, and the variable-turn-delay limit to `max_vtd = 7`;
    /// adjust them with [`with_random_inputs`](Self::with_random_inputs),
    /// [`with_scan_paths`](Self::with_scan_paths), and
    /// [`with_max_turn_delay`](Self::with_max_turn_delay).
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if any Table 1 constraint is violated:
    /// `i`/`o`/`max_d` not powers of two, `i` or `o` above 64 (the
    /// model's bitplane limit), `max_d > o`, `w == 0`, `w < log2(o)`,
    /// `w > 16` (the model's word limit), or `dp == 0`.
    pub fn new(
        i: usize,
        o: usize,
        w: usize,
        max_d: usize,
        hw: usize,
        dp: usize,
    ) -> Result<Self, ParamError> {
        let params = Self {
            i,
            o,
            w,
            max_d,
            hw,
            dp,
            ri: 2,
            sp: 2,
            max_vtd: 7,
        };
        params.validate()?;
        Ok(params)
    }

    /// METROJR, the minimal METRO instance the paper fabricated through
    /// Orbit Semiconductor: `i = o = w = 4`, `hw = 0`, `dp = 1`,
    /// `max_d = 2` (paper §6.1).
    #[must_use]
    pub fn metrojr() -> Self {
        Self::new(4, 4, 4, 2, 0, 1).expect("METROJR parameters are valid")
    }

    /// RN1, METRO's direct ancestor: 8 forward and backward ports,
    /// byte-wide datapaths, dilation-1 and dilation-2 routing
    /// (paper §6.1).
    #[must_use]
    pub fn rn1() -> Self {
        Self::new(8, 8, 8, 2, 0, 1).expect("RN1 parameters are valid")
    }

    /// The `METRO i = o = 8, w = 4` configuration from Table 3.
    #[must_use]
    pub fn metro8() -> Self {
        Self::new(8, 8, 4, 2, 0, 1).expect("METRO-8 parameters are valid")
    }

    /// Sets the number of random input bit streams (`ri >= 1`).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError::NoRandomInputs`] when `ri == 0`.
    pub fn with_random_inputs(mut self, ri: usize) -> Result<Self, ParamError> {
        self.ri = ri;
        self.validate()?;
        Ok(self)
    }

    /// Sets the number of scan paths (`sp >= 1`).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError::NoScanPaths`] when `sp == 0`.
    pub fn with_scan_paths(mut self, sp: usize) -> Result<Self, ParamError> {
        self.sp = sp;
        self.validate()?;
        Ok(self)
    }

    /// Sets the maximum number of delay slots available for variable turn
    /// delay (`max_vtd >= 0`).
    ///
    /// # Errors
    ///
    /// This constraint alone cannot fail, but revalidates the whole
    /// parameter set for uniformity.
    pub fn with_max_turn_delay(mut self, max_vtd: usize) -> Result<Self, ParamError> {
        self.max_vtd = max_vtd;
        self.validate()?;
        Ok(self)
    }

    /// Sets the number of header words consumed per router (`hw >= 0`);
    /// `hw > 0` enables pipelined connection setup (paper §5.1).
    ///
    /// # Errors
    ///
    /// This constraint alone cannot fail, but revalidates the whole
    /// parameter set for uniformity.
    pub fn with_header_words(mut self, hw: usize) -> Result<Self, ParamError> {
        self.hw = hw;
        self.validate()?;
        Ok(self)
    }

    /// Sets the number of internal data pipeline stages (`dp >= 1`).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError::NoPipelineStages`] when `dp == 0`.
    pub fn with_pipestages(mut self, dp: usize) -> Result<Self, ParamError> {
        self.dp = dp;
        self.validate()?;
        Ok(self)
    }

    fn validate(&self) -> Result<(), ParamError> {
        if self.i == 0 || !self.i.is_power_of_two() {
            return Err(ParamError::ForwardPortsNotPowerOfTwo { i: self.i });
        }
        if self.o == 0 || !self.o.is_power_of_two() {
            return Err(ParamError::BackwardPortsNotPowerOfTwo { o: self.o });
        }
        let ports = self.i.max(self.o);
        if ports > 64 {
            return Err(ParamError::TooManyPorts { ports });
        }
        if self.max_d == 0 || !self.max_d.is_power_of_two() {
            return Err(ParamError::MaxDilationNotPowerOfTwo { max_d: self.max_d });
        }
        if self.max_d > self.o {
            return Err(ParamError::MaxDilationExceedsPorts {
                max_d: self.max_d,
                o: self.o,
            });
        }
        if self.w == 0 || self.w < log2_exact(self.o) {
            return Err(ParamError::WidthTooNarrow {
                w: self.w,
                o: self.o,
            });
        }
        if self.w > 16 {
            return Err(ParamError::WidthTooWide { w: self.w });
        }
        if self.ri == 0 {
            return Err(ParamError::NoRandomInputs);
        }
        if self.sp == 0 {
            return Err(ParamError::NoScanPaths);
        }
        if self.dp == 0 {
            return Err(ParamError::NoPipelineStages);
        }
        Ok(())
    }

    /// Number of forward ports, `i`.
    #[must_use]
    pub fn forward_ports(&self) -> usize {
        self.i
    }

    /// Number of backward ports, `o`.
    #[must_use]
    pub fn backward_ports(&self) -> usize {
        self.o
    }

    /// Bit width of the data channel, `w`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Maximum dilation the implementation supports, `max_d`.
    #[must_use]
    pub fn max_dilation(&self) -> usize {
        self.max_d
    }

    /// Header words consumed per router, `hw`. Zero means route digits
    /// are taken from the head word in-place (RN1-style bit consumption
    /// with the *swallow* option); positive values enable pipelined
    /// connection setup.
    #[must_use]
    pub fn header_words(&self) -> usize {
        self.hw
    }

    /// Internal data pipeline stages, `dp`.
    #[must_use]
    pub fn pipestages(&self) -> usize {
        self.dp
    }

    /// Number of random input bit streams, `ri`.
    #[must_use]
    pub fn random_inputs(&self) -> usize {
        self.ri
    }

    /// Number of scan paths, `sp`.
    #[must_use]
    pub fn scan_paths(&self) -> usize {
        self.sp
    }

    /// Maximum delay slots available for variable turn delay, `max_vtd`.
    #[must_use]
    pub fn max_turn_delay(&self) -> usize {
        self.max_vtd
    }

    /// The radix (number of logically distinct output directions) when
    /// the router is configured at dilation `d`: `r = o / d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` does not divide `o`; use a validated
    /// [`RouterConfig`](crate::RouterConfig) to avoid this.
    #[must_use]
    pub fn radix_at_dilation(&self, d: usize) -> usize {
        assert!(
            d > 0 && self.o.is_multiple_of(d),
            "dilation {d} does not divide backward port count {}",
            self.o
        );
        self.o / d
    }

    /// Bits of routing information consumed per stage at dilation `d`:
    /// `log2(radix)`.
    #[must_use]
    pub fn digit_bits_at_dilation(&self, d: usize) -> usize {
        log2_exact(self.radix_at_dilation(d))
    }

    /// The mask selecting the low `w` bits of a word.
    #[must_use]
    pub fn word_mask(&self) -> u16 {
        if self.w == 16 {
            u16::MAX
        } else {
            (1u16 << self.w) - 1
        }
    }
}

impl Default for ArchParams {
    /// Defaults to [`ArchParams::metrojr`], the fabricated minimal
    /// instance.
    fn default() -> Self {
        Self::metrojr()
    }
}

/// `log2` of a power of two (rounds down for other values).
#[must_use]
pub fn log2_exact(v: usize) -> usize {
    (usize::BITS - 1 - v.leading_zeros().min(usize::BITS - 1)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrojr_matches_paper_section_6_1() {
        let p = ArchParams::metrojr();
        assert_eq!(p.forward_ports(), 4);
        assert_eq!(p.backward_ports(), 4);
        assert_eq!(p.width(), 4);
        assert_eq!(p.header_words(), 0);
        assert_eq!(p.pipestages(), 1);
        assert_eq!(p.max_dilation(), 2);
    }

    #[test]
    fn rn1_matches_paper_section_6_1() {
        let p = ArchParams::rn1();
        assert_eq!(p.forward_ports(), 8);
        assert_eq!(p.backward_ports(), 8);
        assert_eq!(p.width(), 8);
        assert_eq!(p.max_dilation(), 2);
    }

    #[test]
    fn radix_is_ports_over_dilation() {
        let p = ArchParams::rn1();
        assert_eq!(p.radix_at_dilation(1), 8);
        assert_eq!(p.radix_at_dilation(2), 4);
        assert_eq!(p.digit_bits_at_dilation(1), 3);
        assert_eq!(p.digit_bits_at_dilation(2), 2);
    }

    #[test]
    fn rejects_non_power_of_two_ports() {
        assert_eq!(
            ArchParams::new(3, 4, 4, 2, 0, 1),
            Err(ParamError::ForwardPortsNotPowerOfTwo { i: 3 })
        );
        assert_eq!(
            ArchParams::new(4, 6, 4, 2, 0, 1),
            Err(ParamError::BackwardPortsNotPowerOfTwo { o: 6 })
        );
        assert_eq!(
            ArchParams::new(0, 4, 4, 2, 0, 1),
            Err(ParamError::ForwardPortsNotPowerOfTwo { i: 0 })
        );
        // The port bitplanes are one 64-bit word per side.
        assert_eq!(
            ArchParams::new(64, 128, 8, 2, 0, 1),
            Err(ParamError::TooManyPorts { ports: 128 })
        );
        assert!(ArchParams::new(64, 64, 8, 2, 0, 1).is_ok());
    }

    #[test]
    fn rejects_narrow_channel() {
        // Table 1: w >= log2(o). o = 16 needs w >= 4.
        assert_eq!(
            ArchParams::new(16, 16, 3, 2, 0, 1),
            Err(ParamError::WidthTooNarrow { w: 3, o: 16 })
        );
        assert!(ArchParams::new(16, 16, 4, 2, 0, 1).is_ok());
        // A radix-1 router addresses nothing, but still needs a channel.
        assert_eq!(
            ArchParams::new(1, 1, 0, 1, 0, 1),
            Err(ParamError::WidthTooNarrow { w: 0, o: 1 })
        );
    }

    #[test]
    fn rejects_dilation_above_ports() {
        assert_eq!(
            ArchParams::new(4, 4, 4, 8, 0, 1),
            Err(ParamError::MaxDilationExceedsPorts { max_d: 8, o: 4 })
        );
        assert_eq!(
            ArchParams::new(4, 4, 4, 3, 0, 1),
            Err(ParamError::MaxDilationNotPowerOfTwo { max_d: 3 })
        );
    }

    #[test]
    fn rejects_zero_pipestages_and_random_inputs() {
        assert_eq!(
            ArchParams::new(4, 4, 4, 2, 0, 0),
            Err(ParamError::NoPipelineStages)
        );
        assert_eq!(
            ArchParams::metrojr().with_random_inputs(0),
            Err(ParamError::NoRandomInputs)
        );
        assert_eq!(
            ArchParams::metrojr().with_scan_paths(0),
            Err(ParamError::NoScanPaths)
        );
    }

    #[test]
    fn rejects_width_above_model_limit() {
        assert_eq!(
            ArchParams::new(4, 4, 17, 2, 0, 1),
            Err(ParamError::WidthTooWide { w: 17 })
        );
        assert!(ArchParams::new(4, 4, 16, 2, 0, 1).is_ok());
    }

    #[test]
    fn word_mask_covers_exactly_w_bits() {
        assert_eq!(ArchParams::metrojr().word_mask(), 0x000F);
        assert_eq!(ArchParams::rn1().word_mask(), 0x00FF);
        let p = ArchParams::new(4, 4, 16, 2, 0, 1).unwrap();
        assert_eq!(p.word_mask(), 0xFFFF);
    }

    #[test]
    fn builder_style_adjustments() {
        let p = ArchParams::metrojr()
            .with_header_words(1)
            .unwrap()
            .with_pipestages(2)
            .unwrap()
            .with_max_turn_delay(3)
            .unwrap()
            .with_random_inputs(4)
            .unwrap();
        assert_eq!(p.header_words(), 1);
        assert_eq!(p.pipestages(), 2);
        assert_eq!(p.max_turn_delay(), 3);
        assert_eq!(p.random_inputs(), 4);
    }

    #[test]
    fn log2_exact_on_powers_of_two() {
        assert_eq!(log2_exact(1), 0);
        assert_eq!(log2_exact(2), 1);
        assert_eq!(log2_exact(4), 2);
        assert_eq!(log2_exact(256), 8);
    }

    #[test]
    fn default_is_metrojr() {
        assert_eq!(ArchParams::default(), ArchParams::metrojr());
    }
}
