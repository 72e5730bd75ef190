//! # metro-core — the METRO router architecture
//!
//! A from-scratch reproduction of the METRO (Multipath Enhanced Transit
//! Router Organization) routing component described in *METRO: A Router
//! Architecture for High-Performance, Short-Haul Routing Networks*
//! (ISCA 1994).
//!
//! A METRO router is a **dilated crossbar** routing component supporting
//! half-duplex bidirectional, **pipelined, circuit-switched** connections.
//! Routers are self-routing: the leading words of each data stream carry a
//! destination-tag routing specification, and each router consumes one
//! `log2(radix)`-bit digit to select a logical output direction. When
//! several logically equivalent backward ports are free, one is selected
//! **at random** — the key mechanism behind METRO's congestion and fault
//! tolerance, and behind width cascading (identical allocation follows from
//! identical shared random bits).
//!
//! The crate models a router at cycle granularity. [`Router::tick`] consumes
//! one [`Word`] per port per clock cycle and produces the words driven on
//! each port for the next cycle, exactly as the synchronous hardware would.
//!
//! ## Quick example
//!
//! ```
//! use metro_core::{ArchParams, Router, RouterConfig, Word, FwdIn, BwdIn};
//!
//! // METROJR: i = o = w = 4, hw = 0, dp = 1, max_d = 2 (paper §6.1),
//! // configured here in dilation-2 mode (radix 2).
//! let params = ArchParams::metrojr();
//! let config = RouterConfig::new(&params).with_dilation(2).build().unwrap();
//! let mut router = Router::new(params, config, 0xC0FFEE).unwrap();
//!
//! // Open a connection toward logical direction 1 on forward port 0.
//! // With hw = 0 the head word's top bit(s) hold the route digit.
//! let open = FwdIn::idle(4).with(0, Word::Data(0b1000)); // direction 1
//! router.tick(&open, &BwdIn::idle(4));
//! // One cycle later (dp = 1) the stream emerges on a backward port in
//! // group 1 (ports 2 or 3), chosen at random.
//! let cont = FwdIn::idle(4).with(0, Word::Data(0b0101));
//! let out = router.tick(&cont, &BwdIn::idle(4));
//! assert!(out.bwd[2].is_active() || out.bwd[3].is_active());
//! ```
//!
//! ## Module map
//!
//! | module | contents |
//! |--------|----------|
//! | [`params`] | [`ArchParams`] — Table 1 architectural parameters |
//! | [`config`] | [`RouterConfig`] — Table 2 configuration options |
//! | [`word`] | [`Word`] — the channel alphabet (DATA-IDLE, TURN, DROP, …) |
//! | [`status`] | [`StatusWord`] — per-router connection status, injected at turn |
//! | [`checksum`] | [`StreamChecksum`] — running checksum over forwarded words |
//! | [`rng`] | [`RandomSource`] — shared-randomness bit streams |
//! | [`allocator`] | [`Allocator`] — stochastic backward-port selection |
//! | [`router`] | [`Router`] — the cycle-accurate routing component |
//! | [`cascade`] | [`CascadeGroup`] — width cascading with wired-AND checks |
//! | [`header`] | route header construction/consumption helpers |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allocator;
pub mod cascade;
pub mod checksum;
pub mod config;
pub mod error;
pub mod header;
pub mod params;
pub mod rng;
pub mod router;
pub mod status;
pub mod word;

pub use allocator::{AllocationOutcome, Allocator, SelectionPolicy};
pub use cascade::{CascadeError, CascadeGroup};
pub use checksum::StreamChecksum;
pub use config::{ConfigBuilder, PortMode, RouterConfig};
pub use error::{ConfigError, ParamError};
pub use params::ArchParams;
pub use rng::RandomSource;
pub use router::{BwdIn, FwdIn, PortStatus, Router, TickOutput};
pub use status::{ConnectionState, StatusWord};
pub use word::Word;
