//! A scan master for a whole simulated network.
//!
//! Real METRO machines configure their routers through board-level scan
//! chains (one per stage here, a natural physical arrangement). The
//! harness owns a [`ScanChain`] per stage, mirrors every router's
//! committed configuration, and pushes changes **bit-serially through
//! the TAPs** before handing the committed image to the simulated
//! router — so a configuration change exercises the same machinery
//! silicon would: Select-IR, BYPASS addressing, Shift-DR, Update-DR.
//!
//! Combined with [`NetworkSim::diagnose`], this closes the §5.1 loop
//! entirely in-system: localize a fault from reply streams, then mask
//! the [`Suspect`] through the scan chains while the rest of the
//! network carries traffic — the bit-serial transport for the same
//! diagnosis the online healer applies with a live `apply_config`.

use metro_core::{PortMode, RouterConfig};
use metro_scan::chain::ScanChain;
use metro_scan::ScanDevice;
use metro_sim::{NetworkSim, Suspect};
use metro_topo::graph::LinkTarget;

/// A scan master wired to every router of a [`NetworkSim`].
#[derive(Debug)]
pub struct ScanHarness {
    /// One chain per stage; device `r` on chain `s` shadows router
    /// `(s, r)`.
    chains: Vec<ScanChain>,
}

impl ScanHarness {
    /// Builds the harness, seeding each scan device with the router's
    /// current configuration (through the serial interface, as a scan
    /// master bootstrapping a machine would).
    #[must_use]
    pub fn new(sim: &NetworkSim) -> Self {
        let topo = sim.topology();
        let chains = (0..topo.stages())
            .map(|s| {
                let stage_params = *sim.router(s, 0).params();
                let devices: Vec<ScanDevice> = (0..topo.routers_in_stage(s))
                    .map(|_| ScanDevice::new(stage_params))
                    .collect();
                let mut chain = ScanChain::new(devices);
                for r in 0..topo.routers_in_stage(s) {
                    chain.write_config(r, sim.router(s, r).config());
                }
                chain
            })
            .collect();
        Self { chains }
    }

    /// The shadowed configuration of router `(s, r)`.
    #[must_use]
    pub fn config(&self, s: usize, r: usize) -> &RouterConfig {
        self.chains[s].device(r).config()
    }

    /// Writes `config` into router `(s, r)`: serially through the
    /// stage's scan chain, then committed to the live router.
    pub fn write_config(
        &mut self,
        sim: &mut NetworkSim,
        s: usize,
        r: usize,
        config: &RouterConfig,
    ) {
        self.chains[s].write_config(r, config);
        sim.router_mut(s, r)
            .apply_config(self.chains[s].device(r).config().clone());
    }

    /// Disables one backward port of router `(s, r)` (keeping every
    /// other option as committed), through the chain.
    pub fn disable_backward_port(&mut self, sim: &mut NetworkSim, s: usize, r: usize, b: usize) {
        let mut cfg = self.config(s, r).clone();
        cfg.set_backward_mode(b, PortMode::DisabledDriven);
        self.write_config(sim, s, r, &cfg);
    }

    /// Disables one forward port of router `(s, r)` through the chain.
    pub fn disable_forward_port(&mut self, sim: &mut NetworkSim, s: usize, r: usize, f: usize) {
        let mut cfg = self.config(s, r).clone();
        cfg.set_forward_mode(f, PortMode::DisabledDriven);
        self.write_config(sim, s, r, &cfg);
    }

    /// Masks the [`Suspect`] of a [`NetworkSim::diagnose`]: disables
    /// the link's driving backward port and, between stages, the
    /// forward port it feeds. Returns `true` if any port was disabled.
    ///
    /// A link [`NetworkSim::may_mask`] refuses (an endpoint's last
    /// delivery link) is left alone. So are the suspects no router TAP
    /// reaches: an injection wire is the NIC's to avoid on retry, and a
    /// silent stream names no port until a boundary-scan sweep does.
    pub fn mask(&mut self, sim: &mut NetworkSim, suspect: Suspect) -> bool {
        let Suspect::Link(link) = suspect else {
            return false;
        };
        if !sim.may_mask(link) {
            return false;
        }
        self.disable_backward_port(sim, link.stage, link.router, link.port);
        if let LinkTarget::Router { router, port } =
            sim.topology().link(link.stage, link.router, link.port)
        {
            self.disable_forward_port(sim, link.stage + 1, router, port);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_sim::SimConfig;
    use metro_topo::MultibutterflySpec;

    fn sim() -> NetworkSim {
        NetworkSim::new(&MultibutterflySpec::figure1(), &SimConfig::default()).unwrap()
    }

    #[test]
    fn harness_mirrors_live_configs_at_bootstrap() {
        let sim = sim();
        let h = ScanHarness::new(&sim);
        for s in 0..3 {
            for r in 0..sim.topology().routers_in_stage(s) {
                assert_eq!(h.config(s, r), sim.router(s, r).config(), "r{s}.{r}");
            }
        }
    }

    #[test]
    fn serial_disable_reaches_the_live_router() {
        let mut sim = sim();
        let mut h = ScanHarness::new(&sim);
        h.disable_backward_port(&mut sim, 1, 3, 2);
        assert!(!sim.router(1, 3).config().backward_enabled(2));
        // Everything else preserved (swallow flags, dilation).
        assert_eq!(sim.router(1, 3).config().dilation(), 2);
        // Neighbors untouched.
        assert!(sim.router(1, 2).config().backward_enabled(2));
        // Network still routes.
        let o = sim.send_and_wait(0, 9, &[1, 2], 20_000);
        assert!(o.is_some());
    }

    #[test]
    fn mask_disables_both_ends_of_a_link() {
        let mut sim = sim();
        let mut h = ScanHarness::new(&sim);
        let link = metro_topo::graph::LinkId::new(0, 2, 1);
        let LinkTarget::Router { router, port } = sim.topology().link(0, 2, 1) else {
            panic!("stage-0 links are inter-stage");
        };
        assert!(h.mask(&mut sim, Suspect::Link(link)));
        assert!(!sim.router(0, 2).config().backward_enabled(1));
        assert!(!sim.router(1, router).config().forward_enabled(port));
        // Traffic still flows around the masked link.
        for src in 0..16 {
            assert!(sim
                .send_and_wait(src, (src + 5) % 16, &[9], 20_000)
                .is_some());
        }
    }

    #[test]
    fn injection_wire_findings_are_left_to_the_nic() {
        let mut sim = sim();
        let mut h = ScanHarness::new(&sim);
        assert!(!h.mask(
            &mut sim,
            Suspect::Injection {
                endpoint: 3,
                port: 1
            }
        ));
    }
}
