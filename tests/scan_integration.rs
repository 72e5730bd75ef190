//! Cross-crate integration: the scan subsystem driving live routers —
//! serial configuration writes, MultiTAP failover, and the
//! localize → disable → test → mask loop of §5.1.

use metro::core::{ArchParams, PortMode, RouterConfig, StatusWord};
use metro::scan::boundary::test_wire;
use metro::scan::diagnosis::expected_stage_checksums;
use metro::scan::multitap::MultiTap;
use metro::scan::ScanDevice;
use metro::sim::{AttemptEvidence, DeliveryRecord, FailureKind, NetworkSim, SimConfig, Suspect};
use metro::topo::graph::LinkTarget;
use metro::topo::MultibutterflySpec;

#[test]
fn serial_config_write_reconfigures_a_live_router() {
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &SimConfig::default()).unwrap();
    let params = *sim.router(0, 0).params();
    let live = sim.router(0, 0).config().clone();

    // Build the new image: same as live but with backward port 1
    // disabled; push it through the bit-serial TAP interface.
    let mut dev = ScanDevice::new(params);
    dev.write_config(&live);
    assert_eq!(dev.config(), &live);
    let mut masked = RouterConfig::new(&params)
        .with_dilation(live.dilation())
        .with_backward_port_mode(1, PortMode::DisabledDriven);
    for f in 0..params.forward_ports() {
        masked = masked
            .with_swallow(f, live.swallow(f))
            .with_fast_reclaim(f, live.fast_reclaim(f));
    }
    let masked = masked.build().unwrap();
    dev.write_config(&masked);
    sim.router_mut(0, 0).apply_config(dev.config().clone());

    // The router still routes (dilation means port 1 has a partner).
    for src in 0..16 {
        let o = sim.send_and_wait(src, (src + 1) % 16, &[3], 20_000);
        assert!(o.is_some(), "src {src}");
    }
    assert!(!sim.router(0, 0).config().backward_enabled(1));
}

#[test]
fn multitap_failover_keeps_the_component_configurable() {
    let params = ArchParams::metrojr();
    let mut mt = MultiTap::new(params, params.scan_paths());
    assert_eq!(mt.taps(), 2);
    let cfg = RouterConfig::new(&params).with_dilation(1).build().unwrap();
    mt.write_config(&cfg).unwrap();
    assert_eq!(mt.device().config().dilation(), 1);
    // Primary scan path breaks mid-life.
    assert_eq!(mt.mark_broken(0), Some(1));
    let cfg2 = RouterConfig::new(&params).with_dilation(2).build().unwrap();
    mt.write_config(&cfg2).unwrap();
    assert_eq!(mt.device().config().dilation(), 2);
}

#[test]
fn full_localize_disable_test_mask_loop() {
    // 1. Source-side localization from transit checksums: the record
    // an attempt 0 -> 9 along each stage's first dilated copy leaves
    // when corruption entered at stage 2's input.
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &SimConfig::default()).unwrap();
    let plan = sim.header_plan().clone();
    let digits = sim.topology().route_digits(9);
    let payload = [4u16, 5, 6];
    let mut record = DeliveryRecord::default();
    let (mut router, _) = sim.topology().injection(0, 0);
    let mut routers = Vec::new();
    for (s, &digit) in digits.iter().enumerate() {
        let taken = digit * sim.topology().stage_spec(s).dilation;
        record.statuses.push(StatusWord::connected(taken));
        routers.push(router);
        if let LinkTarget::Router { router: next, .. } = sim.topology().link(s, router, taken) {
            router = next;
        }
    }
    record.checksums = expected_stage_checksums(&plan, &digits, &payload, 8, 0);
    record.checksums[2] ^= 0xFF;
    let ev = AttemptEvidence {
        src: 0,
        dest: 9,
        port: 0,
        kind: FailureKind::Corrupt,
        record,
        stream: sim.stream_for(9, &payload),
        entry_alive: true,
    };
    let diagnosis = sim.diagnose(&ev).expect("found");
    assert_eq!(diagnosis.caught_at, Some((2, routers[2])));

    // 2. The suspect is the link out of the backward port stage 1's
    // STATUS word named.
    let Suspect::Link(link) = diagnosis.suspect else {
        panic!("{diagnosis:?}");
    };
    assert_eq!(link.stage, 1);
    assert_eq!(link.router, routers[1]);
    assert_eq!(link.port, digits[1] * 2);

    // 3. Boundary-scan the suspect wire: a stuck-at fault fails the
    // vectors, confirming the hardware fault.
    let report = test_wire(8, |v| {
        let mut out = v.to_vec();
        out[0] = true; // stuck-at-1 on bit 0
        out
    });
    assert!(!report.passed());

    // 4. Mask: disable the confirmed ports on the live routers.
    let (up_stage, up_router, up_port) = (link.stage, link.router, link.port);
    let params = *sim.router(up_stage, up_router).params();
    let live = sim.router(up_stage, up_router).config().clone();
    let mut rebuilt = RouterConfig::new(&params)
        .with_dilation(live.dilation())
        .with_backward_port_mode(up_port, PortMode::DisabledTristate);
    for f in 0..params.forward_ports() {
        rebuilt = rebuilt.with_swallow(f, live.swallow(f));
    }
    sim.router_mut(up_stage, up_router)
        .apply_config(rebuilt.build().unwrap());
    assert!(!sim
        .router(up_stage, up_router)
        .config()
        .backward_enabled(up_port));

    // The network still functions with the masked port.
    let o = sim.send_and_wait(0, 9, &payload, 20_000).expect("delivery");
    assert_eq!(o.payload_delivered, payload);
}

#[test]
fn config_register_bit_flip_maps_to_exactly_one_option() {
    // Structural check across core + scan: each register bit drives one
    // Table 2 option; flipping bit 0 of the image toggles forward port
    // 0's enable and nothing about dilation.
    let params = ArchParams::rn1();
    let cfg = RouterConfig::new(&params).build().unwrap();
    let mut image = metro::scan::encode_config(&cfg, &params);
    image[0] = false;
    let decoded = metro::scan::decode_config(&image, &params).unwrap();
    assert!(!decoded.forward_enabled(0));
    assert_eq!(decoded.dilation(), cfg.dilation());
    assert_eq!(decoded.radix(), cfg.radix());
}

#[test]
fn idcode_identifies_the_component_class() {
    let mut dev = ScanDevice::new(ArchParams::metrojr());
    dev.load_instruction(metro::scan::Instruction::IdCode);
    let bits = dev.scan_dr(&[false; 32]);
    let value = bits
        .iter()
        .enumerate()
        .fold(0u32, |acc, (k, &b)| acc | (u32::from(b) << k));
    assert_eq!(value, metro::scan::device::METRO_IDCODE);
    assert_eq!(value & 1, 1, "IEEE 1149.1 mandates IDCODE LSB = 1");
}
