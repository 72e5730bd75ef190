//! End-to-end behavior of the assembled network — delivery, retry,
//! faults, conversations, telemetry, and self-healing —
//! exercised through `NetworkSim`'s public API. (Formerly the unit
//! test module inside `network.rs`; everything here goes through
//! public surface, so it lives with the integration suites.)

use metro_sim::endpoint::{EndpointConfig, ReplyPolicy};
use metro_sim::message::{DeliveryStatus, FailureKind, ACK_OK};
use metro_sim::{resume_scenario, run_scenario, Checkpoint, RunPhase, Scenario};
use metro_sim::{EngineKind, NetworkSim, ScenarioError, SimConfig};
use metro_telemetry::RouterCounter;
use metro_topo::fault::{FaultKind, FaultSet};
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::MultibutterflySpec;

fn fig1_sim() -> NetworkSim {
    NetworkSim::new(&MultibutterflySpec::figure1(), &SimConfig::default()).unwrap()
}

#[test]
fn single_message_delivers_intact() {
    let mut sim = fig1_sim();
    let payload: Vec<u16> = (0..19).map(|k| (k * 7 + 1) as u16 & 0xFF).collect();
    let outcome = sim.send_and_wait(3, 12, &payload, 400).expect("delivery");
    assert_eq!(outcome.payload_delivered, payload);
    assert_eq!(outcome.retries, 0);
    assert!(outcome.failures.is_empty());
}

#[test]
fn every_endpoint_pair_communicates() {
    let mut sim = fig1_sim();
    for src in 0..16 {
        let dest = (src + 7) % 16;
        let payload = [src as u16, dest as u16];
        let o = sim
            .send_and_wait(src, dest, &payload, 400)
            .unwrap_or_else(|| panic!("{src} -> {dest} failed"));
        assert_eq!(o.payload_delivered, payload);
    }
}

#[test]
fn unloaded_latency_is_stable_and_small() {
    let mut sim = fig1_sim();
    let payload = [1u16; 19];
    let a = sim.send_and_wait(0, 9, &payload, 400).unwrap();
    let b = sim.send_and_wait(0, 9, &payload, 400).unwrap();
    assert_eq!(a.network_latency(), b.network_latency());
    // Figure 3's deeper network measures 28 cycles; this 3-stage,
    // 16-endpoint network with 19-word payloads should be in the
    // same regime (stream ~22 words + ~6 cycles turnaround).
    assert!(
        (25..40).contains(&(a.network_latency() as usize)),
        "unloaded latency {} out of expected range",
        a.network_latency()
    );
}

#[test]
fn ack_code_round_trips() {
    let mut sim = fig1_sim();
    sim.send(2, 11, &[9, 9, 9]);
    sim.run(300);
    let outs = sim.drain_outcomes();
    assert_eq!(outs.len(), 1);
    // The record captured ACK_OK (success path).
    assert!(outs[0].failures.is_empty());
    let _ = ACK_OK;
}

#[test]
fn concurrent_messages_all_deliver() {
    let mut sim = fig1_sim();
    for src in 0..16 {
        sim.send(src, (src + 5) % 16, &[src as u16; 8]);
    }
    let mut cycles = 0;
    while !sim.is_quiescent() && cycles < 5000 {
        sim.tick();
        cycles += 1;
    }
    let outs = sim.drain_outcomes();
    assert_eq!(outs.len(), 16, "all 16 messages must complete");
    for o in &outs {
        assert!(o.total_latency() < 2000);
    }
}

#[test]
fn contention_causes_retries_but_no_loss() {
    let mut sim = fig1_sim();
    // Everyone hammers endpoint 0: heavy contention at the last
    // stages; stochastic retry must eventually deliver all.
    for src in 1..16 {
        sim.send(src, 0, &[src as u16; 4]);
    }
    let mut cycles = 0;
    while !sim.is_quiescent() && cycles < 20_000 {
        sim.tick();
        cycles += 1;
    }
    let outs = sim.drain_outcomes();
    assert_eq!(outs.len(), 15);
    let total_retries: usize = outs.iter().map(|o| o.retries).sum();
    assert!(total_retries > 0, "hotspot must cause blocking/retry");
}

#[test]
fn dead_router_is_routed_around() {
    let mut sim = fig1_sim();
    let mut faults = FaultSet::new();
    faults.kill_router(1, 2);
    sim.apply_faults(faults);
    for src in 0..16 {
        let o = sim.send_and_wait(src, (src + 3) % 16, &[7, 7], 3000);
        assert!(o.is_some(), "src {src} failed around dead router");
    }
}

#[test]
fn corrupting_link_is_detected_and_avoided() {
    let mut sim = fig1_sim();
    // Corrupt one of endpoint 4's route's stage-0 links.
    let digits = sim.topology().route_digits(9);
    let (r0, _) = sim.topology().injection(4, 0);
    let st0 = sim.topology().stage_spec(0);
    let mut faults = FaultSet::new();
    faults.break_link(
        LinkId::new(0, r0, digits[0] * st0.dilation),
        FaultKind::CorruptData { xor: 0x04 },
    );
    sim.apply_faults(faults);
    let o = sim
        .send_and_wait(4, 9, &[1, 2, 3, 4], 4000)
        .expect("delivered");
    assert_eq!(o.payload_delivered, vec![1, 2, 3, 4]);
}

#[test]
fn detailed_reclamation_reports_blocked_stage() {
    let config = SimConfig {
        fast_reclaim: false,
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    for src in 1..16 {
        sim.send(src, 0, &[1, 2]);
    }
    let mut cycles = 0;
    while !sim.is_quiescent() && cycles < 30_000 {
        sim.tick();
        cycles += 1;
    }
    let outs = sim.drain_outcomes();
    assert_eq!(outs.len(), 15);
    let blocked = outs
        .iter()
        .flat_map(|o| &o.failures)
        .filter(|f| matches!(f, FailureKind::Blocked { .. }))
        .count();
    assert!(blocked > 0, "detailed mode must report Blocked failures");
}

#[test]
fn figure3_network_simulates() {
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure3(), &SimConfig::default()).unwrap();
    let payload: Vec<u16> = (0..19).map(|k| k as u16).collect();
    let o = sim.send_and_wait(0, 63, &payload, 500).expect("delivery");
    assert_eq!(o.payload_delivered, payload);
    // Paper: "The unloaded message latency is 28 clock cycles from
    // message injection to acknowledgment receipt."
    assert!(
        (24..36).contains(&(o.network_latency() as usize)),
        "figure 3 unloaded latency {} should be near 28",
        o.network_latency()
    );
}

#[test]
fn heterogeneous_wire_delays_deliver_with_expected_latency() {
    // Short wires near the endpoints, a long middle boundary — the
    // §5.1 variable-turn-delay scenario.
    let config = SimConfig {
        stage_wire_delays: Some(vec![0, 3, 1, 0]),
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    let o = sim.send_and_wait(0, 9, &[4; 10], 2_000).expect("delivery");
    assert_eq!(o.payload_delivered, vec![4; 10]);
    // Baseline with all-zero wires for comparison.
    let mut base = NetworkSim::new(&MultibutterflySpec::figure1(), &SimConfig::default()).unwrap();
    let b = base.send_and_wait(0, 9, &[4; 10], 2_000).unwrap();
    // Extra round-trip cost ≈ 2 × (3 + 1) = 8 cycles.
    let delta = o.network_latency() as i64 - b.network_latency() as i64;
    assert!(
        (6..=12).contains(&delta),
        "expected ~8 extra cycles, got {delta}"
    );
}

#[test]
fn wrong_boundary_count_is_a_typed_error_on_every_build_path() {
    // `"stage_wire_delays": [0]` in a scenario file decodes; the
    // 3-stage figure1 fabric has 4 boundaries.
    let mut scenario = Scenario::scripted("x", MultibutterflySpec::figure1(), vec![], 10);
    scenario.sim.stage_wire_delays = Some(vec![0]);
    let ckpt = Checkpoint {
        scenario: scenario.clone(),
        phase: RunPhase::Main,
        cycle: 0,
        state: Vec::new(),
    };
    let mut estimated = scenario.clone();
    estimated.sim.engine = EngineKind::Analytic;
    for err in [
        NetworkSim::new(&scenario.topology, &scenario.sim).err(),
        NetworkSim::from_scenario(&scenario).err(),
        run_scenario(&scenario).err(),
        run_scenario(&estimated).err(),
        resume_scenario(&ckpt).err(),
    ] {
        let err = err.expect("an Err, not a panic and not a run");
        let refusal = err.downcast_ref::<ScenarioError>().expect("typed error");
        assert_eq!(refusal.path, "scenario.sim.stage_wire_delays");
        let typed = refusal
            .source
            .downcast_ref::<metro_sim::fabric::WireDelayCount>()
            .expect("typed source");
        assert_eq!((typed.got, typed.expected), (1, 4));
    }
}

#[test]
fn hostile_port_counts_and_widths_are_typed_errors_on_every_build_path() {
    // Three small edits of scenarios/figure1.json that used to reach an
    // assert or a `clamp` panic: no endpoint ports, one 128×128 stage
    // (the port bitplanes hold 64), a 0-bit channel.
    let figure1 = Scenario::scripted("x", MultibutterflySpec::figure1(), vec![], 10);
    let mut no_ports = figure1.clone();
    no_ports.topology.endpoint_ports = 0;
    let mut wide = figure1.clone();
    wide.topology.endpoints = 128;
    wide.topology.endpoint_ports = 1;
    wide.topology.stages = vec![metro_topo::multibutterfly::StageSpec::new(128, 128, 1)];
    let mut no_width = figure1;
    no_width.sim.width = 0;
    for (scenario, names) in [
        (no_ports, "endpoint_ports"),
        (wide, "port count 128"),
        (no_width, "width 0"),
    ] {
        let ckpt = Checkpoint {
            scenario: scenario.clone(),
            phase: RunPhase::Main,
            cycle: 0,
            state: Vec::new(),
        };
        let mut estimated = scenario.clone();
        estimated.sim.engine = EngineKind::Analytic;
        for err in [
            NetworkSim::new(&scenario.topology, &scenario.sim).err(),
            NetworkSim::from_scenario(&scenario).err(),
            run_scenario(&scenario).err(),
            run_scenario(&estimated).err(),
            resume_scenario(&ckpt).err(),
        ] {
            let err = err.expect("an Err, not a panic and not a run");
            assert!(err.to_string().contains(names), "{err}");
        }
    }
}

#[test]
fn a_hostile_shard_count_is_clamped_and_changes_nothing() {
    // Every shard is a spinning thread: a scenario file asking for a
    // million must not get one per router of a large fabric.
    let sends = (0..6)
        .map(|k| metro_sim::SendSpec {
            at: 10 * k,
            src: k as usize,
            dest: (k as usize * 5 + 3) % 16,
            payload: vec![k as u16; 4],
        })
        .collect();
    let mut scenario = Scenario::scripted("x", MultibutterflySpec::figure1(), sends, 300);
    let single = run_scenario(&scenario).unwrap();
    scenario.sim.shards = 1_000_000;
    let sim = NetworkSim::from_scenario(&scenario).unwrap();
    assert!((2..=64).contains(&sim.shards()), "{}", sim.shards());
    assert_eq!(run_scenario(&scenario).unwrap(), single);
    // A fabric with more routers than the cap (building spawns nothing).
    let big = MultibutterflySpec {
        endpoints: 256,
        stages: vec![metro_topo::multibutterfly::StageSpec::new(4, 4, 1); 4],
        ..MultibutterflySpec::figure1()
    };
    let big = NetworkSim::new(&big, &scenario.sim).unwrap();
    assert!(big.topology().total_routers() > 64);
    assert_eq!(big.shards(), 64);
}

#[test]
fn analytic_engine_is_rejected_with_a_typed_error() {
    let config = SimConfig {
        engine: EngineKind::Analytic,
        ..SimConfig::default()
    };
    let err = NetworkSim::new(&MultibutterflySpec::figure1(), &config)
        .expect_err("the analytic engine cannot tick a network");
    let msg = err.to_string();
    assert!(msg.contains("analytic"), "error names the engine: {msg}");
    assert!(
        err.downcast_ref::<metro_sim::engine::NotCycleAccurate>()
            .is_some(),
        "typed error, not a stringly panic"
    );
}

#[test]
fn extra_stage_randomizer_network_delivers() {
    let mut sim = NetworkSim::new(
        &MultibutterflySpec::figure3_extra_stage(),
        &SimConfig::default(),
    )
    .unwrap();
    // The radix-1 front stage consumes no digits; the header plan
    // still packs 6 bits into one byte.
    assert_eq!(sim.header_plan().header_words(), 1);
    for dest in [0, 21, 63] {
        let payload = [dest as u16, 0xAA];
        let o = sim.send_and_wait(5, dest, &payload, 2_000);
        match o {
            Some(o) => assert_eq!(o.payload_delivered, payload, "dest {dest}"),
            None => panic!("dest {dest} failed"),
        }
    }
    // The extra stage adds one hop to the unloaded path.
    let base = {
        let mut b = NetworkSim::new(&MultibutterflySpec::figure3(), &SimConfig::default()).unwrap();
        b.send_and_wait(5, 60, &[1; 19], 2_000)
            .unwrap()
            .network_latency()
    };
    let extra = sim
        .send_and_wait(5, 60, &[1; 19], 2_000)
        .unwrap()
        .network_latency();
    assert!(
        (1..=4).contains(&(extra as i64 - base as i64)),
        "one extra hop, got {base} -> {extra}"
    );
}

#[test]
fn conversation_reverses_the_circuit_multiple_times() {
    let config = SimConfig {
        endpoint: EndpointConfig {
            reply: ReplyPolicy::Conversation,
            ..EndpointConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    let segments: [&[u16]; 3] = [&[1, 2, 3], &[4, 5], &[6, 7, 8, 9]];
    sim.send_conversation(2, 13, &segments);
    let mut cycles = 0;
    while !sim.is_quiescent() && cycles < 3_000 {
        sim.tick();
        cycles += 1;
    }
    let outs = sim.drain_outcomes();
    assert_eq!(outs.len(), 1, "conversation must complete");
    assert_eq!(outs[0].retries, 0);
    // Every segment arrived intact, in order, at the destination.
    let delivered = sim.endpoint_mut(13).take_delivered();
    assert_eq!(delivered.len(), 3);
    for (d, seg) in delivered.iter().zip(segments.iter()) {
        assert_eq!(&d.payload[..], *seg);
    }
    // One grant per stage for the whole conversation (a single
    // circuit), but three forward reversals per stage (one per
    // segment's TURN).
    let totals = sim.telemetry_snapshot("conversation").counters;
    assert_eq!(totals.total(RouterCounter::Grants), 3, "one circuit");
    assert_eq!(
        totals.total(RouterCounter::Turns),
        9,
        "three reversals per router"
    );
}

#[test]
fn conversation_under_congestion_retries_whole_exchange() {
    let config = SimConfig {
        endpoint: EndpointConfig {
            reply: ReplyPolicy::Conversation,
            ..EndpointConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    for src in 0..8 {
        let a: &[u16] = &[src as u16];
        let b: &[u16] = &[src as u16 + 100];
        sim.send_conversation(src, 15, &[a, b]);
    }
    let mut cycles = 0;
    while !sim.is_quiescent() && cycles < 60_000 {
        sim.tick();
        cycles += 1;
    }
    let outs = sim.drain_outcomes();
    assert_eq!(outs.len(), 8, "all conversations must complete");
    // 8 sources × 2 segments each delivered.
    assert_eq!(sim.endpoint_mut(15).take_delivered().len(), 16);
}

/// The network total of one router counter, read from the routers'
/// live cumulative cells.
fn live_total(sim: &NetworkSim, c: RouterCounter) -> u64 {
    let topo = sim.topology();
    (0..topo.stages())
        .flat_map(|s| (0..topo.routers_in_stage(s)).map(move |r| (s, r)))
        .map(|(s, r)| sim.router(s, r).counters().get(c))
        .sum()
}

#[test]
fn the_routers_counters_record_the_connection_lifecycle() {
    let mut sim = fig1_sim();
    sim.send(0, 9, &[1, 2, 3]);
    // The cycles in which each counter's network total moved, read
    // after every tick.
    let watched = [
        RouterCounter::Grants,
        RouterCounter::Turns,
        RouterCounter::Drops,
    ];
    let mut moved: [Vec<u64>; 3] = Default::default();
    let mut last = [0; 3];
    while !sim.is_quiescent() {
        assert!(sim.now() < 400, "delivery");
        let cycle = sim.now();
        sim.tick();
        for (i, &c) in watched.iter().enumerate() {
            let now = live_total(&sim, c);
            if now > last[i] {
                moved[i].push(cycle);
            }
            last[i] = now;
        }
    }
    assert_eq!(sim.drain_outcomes().len(), 1, "delivery");
    let [grants, turns, drops] = moved;
    assert_eq!(grants.len(), 3, "one grant per stage");
    assert_eq!(turns.len(), 3, "one reversal per stage");
    assert_eq!(drops.len(), 3, "one release per stage");
    // Lifecycle ordering: grants strictly before turns before drops.
    assert!(grants.last() < turns.first());
    assert!(turns.last() < drops.first());
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut sim = fig1_sim();
        for src in 0..16 {
            sim.send(src, (src + 9) % 16, &[3; 6]);
        }
        sim.run(600);
        let mut outs: Vec<_> = sim
            .drain_outcomes()
            .into_iter()
            .map(|o| (o.src, o.dest, o.completed_at, o.retries))
            .collect();
        outs.sort_by_key(|&(src, _, completed_at, _)| (src, completed_at));
        outs
    };
    assert_eq!(run(), run());
}

#[test]
fn pipelined_setup_hw1_works_end_to_end() {
    let config = SimConfig {
        header_words: 1,
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    let o = sim.send_and_wait(1, 14, &[5, 6, 7], 500).expect("delivery");
    assert_eq!(o.payload_delivered, vec![5, 6, 7]);
}

#[test]
fn deeper_pipelines_still_deliver() {
    let config = SimConfig {
        pipestages: 2,
        wire_delay: 1,
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    let o = sim.send_and_wait(6, 2, &[8; 10], 800).expect("delivery");
    assert_eq!(o.payload_delivered, vec![8; 10]);
    // Latency grows with the extra pipeline depth.
    assert!(o.network_latency() > 30);
}

#[test]
fn reset_stats_zeroes_every_registry_slot() {
    let mut sim = fig1_sim();
    for src in 0..16 {
        sim.send(src, (src + 3) % 16, &[src as u16; 6]);
    }
    sim.run(300);
    let opens = |sim: &NetworkSim| {
        let counters = sim.telemetry_snapshot("reset").counters;
        counters.total(RouterCounter::Opens)
    };
    let total_before = opens(&sim);
    assert!(total_before > 0, "traffic must register");

    sim.reset_stats();
    for ((stage, router), cell) in sim.telemetry_snapshot("reset").counters.iter() {
        assert!(
            cell.is_zero(),
            "registry slot r{stage}.{router} not zeroed by reset_stats"
        );
    }
    assert_eq!(sim.telemetry().syncs(), 0, "the sync count restarts");

    // Routers keep cumulative counters — the registry rebases so
    // post-reset observation measures only post-reset traffic.
    sim.send(0, 9, &[1, 2, 3]);
    sim.run(300);
    let opens_after = opens(&sim);
    assert!(opens_after > 0 && opens_after < total_before);
}

/// Warm-up exclusion covers abandoned messages too: after
/// `reset_stats`, a message counts — delivered or abandoned, with its
/// retries — only if it was requested from the reset on.
#[test]
fn a_reset_excludes_abandoned_messages_requested_before_it() {
    let config = SimConfig {
        endpoint: EndpointConfig {
            max_retries: 2,
            timeout: 60,
            ..EndpointConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    let mut faults = FaultSet::new();
    faults.kill_endpoint(9);
    sim.apply_faults(faults);
    let counts = |sim: &NetworkSim| {
        let stats = sim.stats();
        (stats.abandoned, stats.retries, stats.delivered)
    };

    sim.send(0, 9, &[1, 2, 3]);
    sim.tick();
    sim.reset_stats();
    sim.run(2000);
    assert!(sim.is_quiescent(), "the warm-up message was abandoned");
    assert_eq!(counts(&sim), (0, 0, 0));

    sim.send(0, 9, &[4, 5, 6]);
    sim.run(2000);
    assert!(sim.is_quiescent());
    assert_eq!(counts(&sim), (1, 2, 0));
}

/// Reset means now, at any sync interval: what the routers counted in
/// the cycles between the last sync and the reset — and what the healer
/// notes after a cycle's sync — is before the reset, not after it.
#[test]
fn a_reset_between_syncs_leaks_nothing_into_the_counters() {
    let config = SimConfig {
        telemetry_every: 64,
        self_heal: true,
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    let (r0, _) = sim.topology().injection(4, 0);
    let mut faults = FaultSet::new();
    faults.break_link(LinkId::new(0, r0, 0), FaultKind::CorruptData { xor: 0x04 });
    sim.apply_faults(faults);
    let burst = |sim: &mut NetworkSim| {
        for src in 0..16 {
            sim.send(src, (src + 5) % 16, &[src as u16; 6]);
        }
    };

    burst(&mut sim);
    sim.run(65);
    let at_last_sync = RouterCounter::ALL.map(|c| live_total(&sim, c));
    burst(&mut sim);
    sim.run(35);
    // Cycle 100, mid-burst: the routers have counted since cycle 64.
    let at_reset = RouterCounter::ALL.map(|c| live_total(&sim, c));
    assert_ne!(at_reset, at_last_sync);
    sim.reset_stats();
    burst(&mut sim);
    // Long enough to drain.
    sim.run(541);
    assert!(sim.is_quiescent());

    let snap = sim.telemetry_snapshot("reset");
    for c in RouterCounter::ALL {
        let since = live_total(&sim, c) - at_reset[c as usize];
        assert_eq!(
            snap.counters.total(c),
            since,
            "{} in the snapshot",
            c.name()
        );
    }
    assert!(snap.counters.total(RouterCounter::Grants) > 0);
}

#[test]
fn telemetry_interval_zero_clamps_to_every_cycle() {
    let config = SimConfig {
        telemetry_every: 0,
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    assert_eq!(sim.telemetry().interval(), 1, "0 clamps to 1");
    sim.send(4, 13, &[7; 5]);
    sim.run(300);
    assert_eq!(sim.telemetry().syncs(), 300, "one sync per cycle");
}

#[test]
fn telemetry_snapshot_leaves_registry_cadence_undisturbed() {
    let mut sim = fig1_sim();
    sim.send(2, 8, &[3; 4]);
    sim.run(200);
    let syncs_before = sim.telemetry().syncs();
    let snap = sim.telemetry_snapshot("probe");
    assert_eq!(snap.cycles, sim.now());
    assert!(snap.counters.total(RouterCounter::Opens) > 0);
    // Snapshotting reads the routers: the registry's sync count is
    // untouched.
    assert_eq!(sim.telemetry().syncs(), syncs_before);
}

#[test]
fn self_healing_masks_a_corrupting_link_from_evidence_alone() {
    let config = SimConfig {
        self_heal: true,
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    // Corrupt one of endpoint 4's route's stage-0 links; the healer
    // only ever sees the reply evidence, never this fault set.
    let digits = sim.topology().route_digits(9);
    let (r0, _) = sim.topology().injection(4, 0);
    let bad = LinkId::new(0, r0, digits[0] * sim.topology().stage_spec(0).dilation);
    let mut faults = FaultSet::new();
    faults.break_link(bad, FaultKind::CorruptData { xor: 0x04 });
    sim.apply_faults(faults);
    for _ in 0..20 {
        let o = sim
            .send_and_wait(4, 9, &[1, 2, 3, 4], 4000)
            .expect("delivered despite the corrupting link");
        assert_eq!(o.payload_delivered, vec![1, 2, 3, 4]);
        if sim.healed_links().contains(&bad) {
            break;
        }
    }
    assert!(
        sim.healed_links().contains(&bad),
        "diagnosis must name the faulted link, healed {:?}",
        sim.healed_links()
    );
    // The loop's work shows up in the telemetry spine: a mismatch
    // detected, both port ends masked, and the masked state exercised
    // by later retries.
    let snap = sim.telemetry_snapshot("heal");
    assert!(snap.counters.total(RouterCounter::ChecksumMismatches) > 0);
    assert!(snap.counters.total(RouterCounter::MasksApplied) >= 2);
    // Traffic keeps flowing after the mask.
    let o = sim
        .send_and_wait(4, 9, &[9, 8, 7], 4000)
        .expect("delivered");
    assert_eq!(o.payload_delivered, vec![9, 8, 7]);
}

#[test]
fn self_healing_masks_a_dead_link_where_the_trail_goes_cold() {
    let config = SimConfig {
        self_heal: true,
        endpoint: EndpointConfig {
            timeout: 120,
            ..EndpointConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    let digits = sim.topology().route_digits(9);
    let (r0, _) = sim.topology().injection(4, 0);
    let bad = LinkId::new(0, r0, digits[0] * sim.topology().stage_spec(0).dilation);
    let mut faults = FaultSet::new();
    faults.break_link(bad, FaultKind::Dead);
    sim.apply_faults(faults);
    // A dead link eats the forward stream, but the routers before
    // it still reverse and report clean status + checksums — the
    // trail simply goes cold (`NoAck` with truncated evidence).
    // Diagnosis pins the fault on the link past the last reporting
    // router and masks exactly the dead link.
    for _ in 0..10 {
        let o = sim
            .send_and_wait(4, 9, &[5, 6], 8000)
            .expect("retries route around the dead link");
        assert_eq!(o.payload_delivered, vec![5, 6]);
        if sim.healed_links().contains(&bad) {
            break;
        }
    }
    assert!(
        sim.healed_links().contains(&bad),
        "diagnosis must localize the dead link, healed {:?}",
        sim.healed_links()
    );
}

#[test]
fn self_healing_masks_the_injection_port_into_a_dead_entry_router() {
    let config = SimConfig {
        self_heal: true,
        endpoint: EndpointConfig {
            timeout: 120,
            ..EndpointConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    let (r0, _) = sim.topology().injection(4, 0);
    let mut faults = FaultSet::new();
    faults.kill_router(0, r0);
    sim.apply_faults(faults);
    // A dead entry router swallows the stream before any status word
    // is generated: the record is empty and no reverse activity is
    // ever seen. The wire sweep finds every link electrically sound,
    // so the only remaining suspect is the injection port itself.
    for _ in 0..10 {
        let o = sim
            .send_and_wait(4, 9, &[7, 7], 8000)
            .expect("retries route around the dead entry router");
        assert_eq!(o.payload_delivered, vec![7, 7]);
        if sim.healed_injections().contains(&(4, 0)) {
            break;
        }
    }
    assert!(
        sim.healed_injections().contains(&(4, 0)),
        "the sweep must fall back to masking the injection port, healed {:?}",
        sim.healed_injections()
    );
    assert!(
        sim.healed_links().is_empty(),
        "no inter-stage link is actually faulty, healed {:?}",
        sim.healed_links()
    );
}

#[test]
fn self_healing_is_engine_equivalent() {
    let run = |engine: EngineKind| {
        let config = SimConfig {
            self_heal: true,
            endpoint: EndpointConfig {
                timeout: 150,
                ..EndpointConfig::default()
            },
            engine,
            ..SimConfig::default()
        };
        let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
        let mut faults = FaultSet::new();
        faults.break_link(LinkId::new(1, 2, 1), FaultKind::CorruptData { xor: 0x11 });
        faults.break_link(LinkId::new(0, 5, 2), FaultKind::Dead);
        sim.apply_faults(faults);
        for src in 0..16 {
            sim.send(src, (src + 11) % 16, &[src as u16; 5]);
        }
        sim.run(6_000);
        let mut outs: Vec<_> = sim
            .drain_outcomes()
            .iter()
            .map(|o| (o.src, o.dest, o.completed_at, o.retries, o.status))
            .collect();
        outs.sort_unstable();
        (outs, sim.healed_links().to_vec())
    };
    let flat = run(EngineKind::Flat);
    let reference = run(EngineKind::Reference);
    assert_eq!(flat.0, reference.0, "outcome streams must match");
    assert_eq!(flat.1, reference.1, "healing decisions must match");
}

#[test]
fn unreachable_destination_exhausts_attempts_and_quiesces() {
    // A dead destination can never acknowledge: without an attempt
    // budget the source would retry forever (the livelock case the
    // give-up path exists for).
    let config = SimConfig {
        endpoint: EndpointConfig {
            timeout: 120,
            max_retries: 3,
            ..EndpointConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = NetworkSim::new(&MultibutterflySpec::figure1(), &config).unwrap();
    let mut faults = FaultSet::new();
    faults.kill_endpoint(9);
    sim.apply_faults(faults);
    sim.send(4, 9, &[1, 2]);
    let mut cycles = 0;
    while !sim.is_quiescent() && cycles < 30_000 {
        sim.tick();
        cycles += 1;
    }
    assert!(
        sim.is_quiescent(),
        "the attempt budget must end the livelock"
    );
    let outs = sim.drain_outcomes();
    assert_eq!(outs.len(), 1, "the give-up is an outcome, not a loss");
    match outs[0].status {
        DeliveryStatus::Undeliverable { attempts } => assert_eq!(attempts, 3),
        DeliveryStatus::Delivered => panic!("cannot deliver to a dead endpoint"),
    }
    assert_eq!(outs[0].retries, 3);
}
