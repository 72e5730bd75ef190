//! Identifiers and link targets for multistage network graphs.

use core::fmt;

/// Identifies one router in a multistage network by stage and position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId {
    /// Stage index, 0 at the injection side.
    pub stage: usize,
    /// Router index within the stage.
    pub index: usize,
}

impl RouterId {
    /// Creates a router identifier.
    #[must_use]
    pub fn new(stage: usize, index: usize) -> Self {
        Self { stage, index }
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.{}", self.stage, self.index)
    }
}

/// Where a backward port's wire lands: the next stage's router or, after
/// the final stage, an endpoint input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkTarget {
    /// A forward port of a router in the next stage.
    Router {
        /// Router index within the next stage.
        router: usize,
        /// Forward port index on that router.
        port: usize,
    },
    /// An input port of a network endpoint.
    Endpoint {
        /// Endpoint index.
        endpoint: usize,
        /// Input port index on that endpoint.
        port: usize,
    },
}

impl LinkTarget {
    /// The downstream router index, if the target is a router.
    #[must_use]
    pub fn router(&self) -> Option<usize> {
        match self {
            Self::Router { router, .. } => Some(*router),
            Self::Endpoint { .. } => None,
        }
    }

    /// The endpoint index, if the target is an endpoint.
    #[must_use]
    pub fn endpoint(&self) -> Option<usize> {
        match self {
            Self::Endpoint { endpoint, .. } => Some(*endpoint),
            Self::Router { .. } => None,
        }
    }
}

/// Identifies one inter-stage wire by its source backward port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LinkId {
    /// Source stage (the wire runs from this stage toward stage + 1 or
    /// the endpoints).
    pub stage: usize,
    /// Source router index within the stage.
    pub router: usize,
    /// Source backward port.
    pub port: usize,
}

impl LinkId {
    /// Creates a link identifier.
    #[must_use]
    pub fn new(stage: usize, router: usize, port: usize) -> Self {
        Self {
            stage,
            router,
            port,
        }
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}.{}.{}", self.stage, self.router, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_id_orders_by_stage_then_index() {
        let a = RouterId::new(0, 5);
        let b = RouterId::new(1, 0);
        assert!(a < b);
        assert_eq!(a.to_string(), "r0.5");
    }

    #[test]
    fn link_target_accessors() {
        let r = LinkTarget::Router { router: 3, port: 1 };
        assert_eq!(r.router(), Some(3));
        assert_eq!(r.endpoint(), None);
        let e = LinkTarget::Endpoint {
            endpoint: 7,
            port: 0,
        };
        assert_eq!(e.endpoint(), Some(7));
        assert_eq!(e.router(), None);
    }

    #[test]
    fn link_id_displays_compactly() {
        assert_eq!(LinkId::new(2, 4, 6).to_string(), "l2.4.6");
    }
}
