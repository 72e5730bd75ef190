//! Error types for parameter and configuration validation.

use core::fmt;

/// An error produced while validating [`ArchParams`](crate::ArchParams)
/// against the constraints of Table 1 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParamError {
    /// `i` (number of forward ports) must be a power of two and nonzero.
    ForwardPortsNotPowerOfTwo {
        /// The rejected value of `i`.
        i: usize,
    },
    /// `o` (number of backward ports) must be a power of two and nonzero.
    BackwardPortsNotPowerOfTwo {
        /// The rejected value of `o`.
        o: usize,
    },
    /// A side of the router has more ports than the 64-bit port
    /// bitplanes (IN-USE, enabled, active) can hold.
    TooManyPorts {
        /// The rejected port count (`i` or `o`).
        ports: usize,
    },
    /// `max_d` must be a power of two.
    MaxDilationNotPowerOfTwo {
        /// The rejected value of `max_d`.
        max_d: usize,
    },
    /// `max_d` must not exceed `o`.
    MaxDilationExceedsPorts {
        /// The rejected value of `max_d`.
        max_d: usize,
        /// The number of backward ports.
        o: usize,
    },
    /// The data channel must be wide enough to address every backward
    /// port: `w >= log2(o)`.
    WidthTooNarrow {
        /// The rejected channel width.
        w: usize,
        /// The number of backward ports it must be able to address.
        o: usize,
    },
    /// The channel width exceeds what this model can carry in a word
    /// (16 bits).
    WidthTooWide {
        /// The rejected channel width.
        w: usize,
    },
    /// At least one random input stream is required (`ri >= 1`).
    NoRandomInputs,
    /// At least one scan path is required (`sp >= 1`).
    NoScanPaths,
    /// The router must contain at least one internal data pipeline stage
    /// (`dp >= 1`).
    NoPipelineStages,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ForwardPortsNotPowerOfTwo { i } => {
                write!(f, "forward port count {i} is not a nonzero power of two")
            }
            Self::BackwardPortsNotPowerOfTwo { o } => {
                write!(f, "backward port count {o} is not a nonzero power of two")
            }
            Self::TooManyPorts { ports } => {
                write!(
                    f,
                    "forward/backward port count {ports} exceeds the 64-port model limit"
                )
            }
            Self::MaxDilationNotPowerOfTwo { max_d } => {
                write!(f, "maximum dilation {max_d} is not a nonzero power of two")
            }
            Self::MaxDilationExceedsPorts { max_d, o } => {
                write!(
                    f,
                    "maximum dilation {max_d} exceeds backward port count {o}"
                )
            }
            Self::WidthTooNarrow { w, o } => {
                write!(f, "channel width {w} cannot address {o} backward ports")
            }
            Self::WidthTooWide { w } => {
                write!(f, "channel width {w} exceeds the 16-bit model limit")
            }
            Self::NoRandomInputs => write!(f, "at least one random input stream is required"),
            Self::NoScanPaths => write!(f, "at least one scan path is required"),
            Self::NoPipelineStages => {
                write!(f, "at least one internal data pipeline stage is required")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// An error produced while validating a
/// [`RouterConfig`](crate::RouterConfig) against its
/// [`ArchParams`](crate::ArchParams).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The requested dilation is not a power of two.
    DilationNotPowerOfTwo {
        /// The rejected dilation.
        d: usize,
    },
    /// The requested dilation exceeds the implementation limit `max_d`.
    DilationExceedsMax {
        /// The rejected dilation.
        d: usize,
        /// The implementation limit.
        max_d: usize,
    },
    /// A per-port option referenced a port index outside the router.
    PortOutOfRange {
        /// The rejected port index.
        port: usize,
        /// The number of ports of that kind.
        count: usize,
    },
    /// A turn delay exceeded the implementation limit `max_vtd`.
    TurnDelayExceedsMax {
        /// The rejected delay, in clock cycles.
        vtd: usize,
        /// The implementation limit.
        max_vtd: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DilationNotPowerOfTwo { d } => {
                write!(f, "dilation {d} is not a nonzero power of two")
            }
            Self::DilationExceedsMax { d, max_d } => {
                write!(f, "dilation {d} exceeds implementation limit {max_d}")
            }
            Self::PortOutOfRange { port, count } => {
                write!(f, "port index {port} out of range for {count} ports")
            }
            Self::TurnDelayExceedsMax { vtd, max_vtd } => {
                write!(f, "turn delay {vtd} exceeds implementation limit {max_vtd}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_error_messages_are_lowercase_and_informative() {
        let e = ParamError::WidthTooNarrow { w: 1, o: 8 };
        let msg = e.to_string();
        assert!(msg.contains('1') && msg.contains('8'));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn config_error_messages_mention_values() {
        let e = ConfigError::DilationExceedsMax { d: 4, max_d: 2 };
        assert_eq!(e.to_string(), "dilation 4 exceeds implementation limit 2");
        let e = ConfigError::PortOutOfRange { port: 9, count: 8 };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn errors_implement_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(ParamError::NoRandomInputs);
        takes_error(ConfigError::DilationNotPowerOfTwo { d: 3 });
    }
}
