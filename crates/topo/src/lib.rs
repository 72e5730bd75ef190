//! # metro-topo — multipath multistage network topologies
//!
//! METRO routers are building blocks for indirect, multistage routing
//! networks: multibutterflies (paper Figure 1, \[16\], \[23\]) and fat-trees
//! (\[17\], \[14\], \[7\]). This crate constructs such topologies from router
//! parameters, analyzes their multipath structure, and models faults.
//!
//! * [`multibutterfly`] — the paper's primary network class: per-stage
//!   dilation, deterministic or randomized inter-stage wiring, and the
//!   dense channel-slot numbering simulators index their arrays by.
//! * [`fattree`] — fat-tree construction and capacity/path analysis.
//! * [`paths`] — path enumeration and counting between endpoints.
//! * [`fault`] — static and dynamic fault sets (routers, links, ports).
//! * [`analysis`] — connectivity and fault-tolerance analysis.
//!
//! ```
//! use metro_topo::multibutterfly::{Multibutterfly, MultibutterflySpec, StageSpec, WiringStyle};
//!
//! // The 16-endpoint network of paper Figure 1.
//! let net = Multibutterfly::build(&MultibutterflySpec::figure1()).unwrap();
//! assert_eq!(net.endpoints(), 16);
//! assert_eq!(net.stages(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod dot;
pub mod fattree;
pub mod fault;
pub mod graph;
pub mod multibutterfly;
pub mod paths;
pub mod wiring;

pub use fault::{FaultKind, FaultSet};
pub use graph::{LinkTarget, RouterId};
pub use multibutterfly::{Multibutterfly, MultibutterflySpec, StageSpec, WiringStyle};
