//! The scenario JSON codec: schema-versioned, unknown-field-rejecting,
//! byte-stable encode/decode on the harness's hand-rolled
//! [`Json`] document model.
//!
//! Design rules:
//!
//! * **Seeds are hex strings** (`"0xc0ffee"`). JSON numbers travel as
//!   `f64`, which silently corrupts integers above 2^53 — and seeds are
//!   arbitrary `u64`s.
//! * **Fault sets encode sorted** (routers by `(stage, router)`, links
//!   by `(stage, router, port)`, endpoints ascending): `FaultSet`
//!   iterates hash containers in arbitrary order, and the corpus
//!   round-trip contract is *byte* equality.
//! * **Unknown fields are errors** at every object level, so schema
//!   drift (a typo'd key, a field from a future schema) fails loudly
//!   instead of silently running a different experiment.
//! * **`scenario_schema` is checked first**; documents from a different
//!   schema version are rejected before any field parsing.

use super::{FaultInjection, RepairSet, Scenario, SendSpec, WorkloadSpec};
use crate::endpoint::{EndpointConfig, ReplyPolicy};
use crate::network::{EngineKind, SimConfig};
use crate::traffic::TrafficPattern;
use crate::workload::{ArrivalProcess, RateMap, TraceEntry};
use metro_core::SelectionPolicy;
use metro_harness::Json;
use metro_topo::fault::{FaultKind, FaultSet};
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::{MultibutterflySpec, StageSpec, WiringStyle};

/// The newest scenario schema version this build writes and reads.
/// Decode accepts `1..=SCENARIO_SCHEMA`; encode emits the *oldest*
/// version that can express the scenario ([`schema_for`]), so corpus
/// files using only schema-1 features keep their canonical bytes — and
/// their `scenario_hash` — across the bump.
///
/// Version history:
/// * **1** — original schema: Bernoulli-only `load` workloads.
/// * **2** — workload subsystem: `arrival` processes (`on_off`,
///   `trace`) and per-endpoint `rates` on `load` workloads.
pub const SCENARIO_SCHEMA: u64 = 2;

/// The oldest schema version that can express `scenario` — what
/// [`encode`] stamps into the document.
#[must_use]
fn schema_for(scenario: &Scenario) -> u64 {
    match &scenario.workload {
        WorkloadSpec::Load { arrival, rates, .. }
            if *arrival != ArrivalProcess::Bernoulli || *rates != RateMap::Uniform =>
        {
            2
        }
        _ => 1,
    }
}

/// A scenario decode failure: where in the document and what went
/// wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Dotted path to the offending field (e.g. `"sim.endpoint.reply"`).
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario decode error at {}: {}",
            self.path, self.message
        )
    }
}

impl std::error::Error for CodecError {}

pub(crate) fn err<T>(path: &str, message: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError {
        path: path.to_string(),
        message: message.into(),
    })
}

/// Rejects keys outside the allowed set — the schema-drift tripwire.
pub(crate) fn check_fields(doc: &Json, allowed: &[&str], path: &str) -> Result<(), CodecError> {
    let Json::Obj(pairs) = doc else {
        return err(path, "expected an object");
    };
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            return err(path, format!("unknown field {k:?}"));
        }
    }
    Ok(())
}

pub(crate) fn get<'a>(doc: &'a Json, key: &str, path: &str) -> Result<&'a Json, CodecError> {
    match doc.get(key) {
        Some(v) => Ok(v),
        None => err(path, format!("missing field {key:?}")),
    }
}

fn dec_bool(doc: &Json, path: &str) -> Result<bool, CodecError> {
    match doc {
        Json::Bool(b) => Ok(*b),
        _ => err(path, "expected a boolean"),
    }
}

fn dec_f64(doc: &Json, path: &str) -> Result<f64, CodecError> {
    doc.as_f64()
        .ok_or(())
        .or_else(|()| err(path, "expected a number"))
}

pub(crate) fn dec_u64(doc: &Json, path: &str) -> Result<u64, CodecError> {
    let v = dec_f64(doc, path)?;
    if v.fract() != 0.0 || !(0.0..9.0e15).contains(&v) {
        return err(path, format!("expected a non-negative integer, got {v}"));
    }
    Ok(v as u64)
}

fn dec_usize(doc: &Json, path: &str) -> Result<usize, CodecError> {
    Ok(dec_u64(doc, path)? as usize)
}

fn dec_u16(doc: &Json, path: &str) -> Result<u16, CodecError> {
    let v = dec_u64(doc, path)?;
    u16::try_from(v)
        .ok()
        .ok_or(())
        .or_else(|()| err(path, format!("{v} does not fit in 16 bits")))
}

pub(crate) fn dec_str<'a>(doc: &'a Json, path: &str) -> Result<&'a str, CodecError> {
    doc.as_str()
        .ok_or(())
        .or_else(|()| err(path, "expected a string"))
}

pub(crate) fn dec_arr<'a>(doc: &'a Json, path: &str) -> Result<&'a [Json], CodecError> {
    doc.as_arr()
        .ok_or(())
        .or_else(|()| err(path, "expected an array"))
}

fn enc_seed(seed: u64) -> Json {
    Json::from(format!("{seed:#x}"))
}

/// Seeds are written as hex strings; decimal strings and exact small
/// integers are also accepted on input (hand-written files).
fn dec_seed(doc: &Json, path: &str) -> Result<u64, CodecError> {
    match doc {
        Json::Str(s) => {
            let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse::<u64>()
            };
            parsed
                .ok()
                .ok_or(())
                .or_else(|()| err(path, format!("invalid seed string {s:?}")))
        }
        Json::Num(_) => dec_u64(doc, path),
        _ => err(path, "expected a seed (hex string or integer)"),
    }
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

fn enc_topology(spec: &MultibutterflySpec) -> Json {
    Json::obj([
        ("endpoints", Json::from(spec.endpoints)),
        ("endpoint_ports", Json::from(spec.endpoint_ports)),
        (
            "stages",
            Json::arr(spec.stages.iter().map(|s| {
                Json::obj([
                    ("forward_ports", Json::from(s.forward_ports)),
                    ("backward_ports", Json::from(s.backward_ports)),
                    ("dilation", Json::from(s.dilation)),
                ])
            })),
        ),
        (
            "wiring",
            Json::from(match spec.wiring {
                WiringStyle::Deterministic => "deterministic",
                WiringStyle::Randomized => "randomized",
            }),
        ),
        ("seed", enc_seed(spec.seed)),
    ])
}

fn dec_topology(doc: &Json, path: &str) -> Result<MultibutterflySpec, CodecError> {
    check_fields(
        doc,
        &["endpoints", "endpoint_ports", "stages", "wiring", "seed"],
        path,
    )?;
    let stages_doc = dec_arr(get(doc, "stages", path)?, &format!("{path}.stages"))?;
    let mut stages = Vec::with_capacity(stages_doc.len());
    for (i, s) in stages_doc.iter().enumerate() {
        let sp = format!("{path}.stages[{i}]");
        check_fields(s, &["forward_ports", "backward_ports", "dilation"], &sp)?;
        stages.push(StageSpec {
            forward_ports: dec_usize(get(s, "forward_ports", &sp)?, &sp)?,
            backward_ports: dec_usize(get(s, "backward_ports", &sp)?, &sp)?,
            dilation: dec_usize(get(s, "dilation", &sp)?, &sp)?,
        });
    }
    let wiring_path = format!("{path}.wiring");
    let wiring = match dec_str(get(doc, "wiring", path)?, &wiring_path)? {
        "deterministic" => WiringStyle::Deterministic,
        "randomized" => WiringStyle::Randomized,
        other => return err(&wiring_path, format!("unknown wiring style {other:?}")),
    };
    Ok(MultibutterflySpec {
        endpoints: dec_usize(get(doc, "endpoints", path)?, &format!("{path}.endpoints"))?,
        endpoint_ports: dec_usize(
            get(doc, "endpoint_ports", path)?,
            &format!("{path}.endpoint_ports"),
        )?,
        stages,
        wiring,
        seed: dec_seed(get(doc, "seed", path)?, &format!("{path}.seed"))?,
    })
}

// ---------------------------------------------------------------------------
// Sim / endpoint config
// ---------------------------------------------------------------------------

fn enc_reply(reply: &ReplyPolicy) -> Json {
    match reply {
        ReplyPolicy::Ack => Json::obj([("kind", Json::from("ack"))]),
        ReplyPolicy::ReadReply { latency, words } => Json::obj([
            ("kind", Json::from("read_reply")),
            ("latency", Json::from(*latency)),
            ("words", Json::from(*words)),
        ]),
        ReplyPolicy::Conversation => Json::obj([("kind", Json::from("conversation"))]),
    }
}

fn dec_reply(doc: &Json, path: &str) -> Result<ReplyPolicy, CodecError> {
    let kind_path = format!("{path}.kind");
    match dec_str(get(doc, "kind", path)?, &kind_path)? {
        "ack" => {
            check_fields(doc, &["kind"], path)?;
            Ok(ReplyPolicy::Ack)
        }
        "read_reply" => {
            check_fields(doc, &["kind", "latency", "words"], path)?;
            Ok(ReplyPolicy::ReadReply {
                latency: dec_usize(get(doc, "latency", path)?, &format!("{path}.latency"))?,
                words: dec_usize(get(doc, "words", path)?, &format!("{path}.words"))?,
            })
        }
        "conversation" => {
            check_fields(doc, &["kind"], path)?;
            Ok(ReplyPolicy::Conversation)
        }
        other => err(&kind_path, format!("unknown reply policy {other:?}")),
    }
}

fn enc_endpoint(ep: &EndpointConfig) -> Json {
    Json::obj([
        ("reply", enc_reply(&ep.reply)),
        ("timeout", Json::from(ep.timeout)),
        ("open_timeout", Json::from(ep.open_timeout)),
        ("retry_backoff_max", Json::from(ep.retry_backoff_max)),
        ("max_retries", Json::from(ep.max_retries)),
        ("max_concurrent", Json::from(ep.max_concurrent)),
        (
            "capture_failure_records",
            Json::from(ep.capture_failure_records),
        ),
    ])
}

fn dec_endpoint(doc: &Json, path: &str) -> Result<EndpointConfig, CodecError> {
    check_fields(
        doc,
        &[
            "reply",
            "timeout",
            "open_timeout",
            "retry_backoff_max",
            "max_retries",
            "max_concurrent",
            "capture_failure_records",
        ],
        path,
    )?;
    Ok(EndpointConfig {
        reply: dec_reply(get(doc, "reply", path)?, &format!("{path}.reply"))?,
        timeout: dec_usize(get(doc, "timeout", path)?, &format!("{path}.timeout"))?,
        open_timeout: dec_usize(
            get(doc, "open_timeout", path)?,
            &format!("{path}.open_timeout"),
        )?,
        retry_backoff_max: dec_usize(
            get(doc, "retry_backoff_max", path)?,
            &format!("{path}.retry_backoff_max"),
        )?,
        max_retries: dec_usize(
            get(doc, "max_retries", path)?,
            &format!("{path}.max_retries"),
        )?,
        max_concurrent: dec_usize(
            get(doc, "max_concurrent", path)?,
            &format!("{path}.max_concurrent"),
        )?,
        capture_failure_records: dec_bool(
            get(doc, "capture_failure_records", path)?,
            &format!("{path}.capture_failure_records"),
        )?,
    })
}

fn enc_sim(sim: &SimConfig) -> Json {
    let mut fields = vec![
        ("width", Json::from(sim.width)),
        ("header_words", Json::from(sim.header_words)),
        ("pipestages", Json::from(sim.pipestages)),
        ("wire_delay", Json::from(sim.wire_delay)),
        (
            "stage_wire_delays",
            match &sim.stage_wire_delays {
                Some(ds) => Json::arr(ds.iter().map(|&d| Json::from(d))),
                None => Json::Null,
            },
        ),
        ("fast_reclaim", Json::from(sim.fast_reclaim)),
        (
            "selection",
            Json::from(match sim.selection {
                SelectionPolicy::Random => "random",
                SelectionPolicy::RoundRobin => "round_robin",
                SelectionPolicy::Fixed => "fixed",
            }),
        ),
        ("endpoint", enc_endpoint(&sim.endpoint)),
        ("seed", enc_seed(sim.seed)),
        ("engine", Json::from(sim.engine.name())),
        ("telemetry_every", Json::from(sim.telemetry_every)),
    ];
    // Conditional emission keeps pre-healing scenario files byte-stable.
    if sim.self_heal {
        fields.push(("self_heal", Json::from(true)));
    }
    // Likewise for pre-sharding files: 1 (single-threaded) is the
    // default and is never written out.
    if sim.shards != 1 {
        fields.push(("shards", Json::from(sim.shards)));
    }
    Json::obj(fields)
}

fn dec_sim(doc: &Json, path: &str) -> Result<SimConfig, CodecError> {
    check_fields(
        doc,
        &[
            "width",
            "header_words",
            "pipestages",
            "wire_delay",
            "stage_wire_delays",
            "fast_reclaim",
            "selection",
            "endpoint",
            "seed",
            "engine",
            "telemetry_every",
            "self_heal",
            "shards",
        ],
        path,
    )?;
    let delays_path = format!("{path}.stage_wire_delays");
    let stage_wire_delays = match get(doc, "stage_wire_delays", path)? {
        Json::Null => None,
        arr => {
            let items = dec_arr(arr, &delays_path)?;
            let mut ds = Vec::with_capacity(items.len());
            for (i, d) in items.iter().enumerate() {
                ds.push(dec_usize(d, &format!("{delays_path}[{i}]"))?);
            }
            Some(ds)
        }
    };
    let sel_path = format!("{path}.selection");
    let selection = match dec_str(get(doc, "selection", path)?, &sel_path)? {
        "random" => SelectionPolicy::Random,
        "round_robin" => SelectionPolicy::RoundRobin,
        "fixed" => SelectionPolicy::Fixed,
        other => return err(&sel_path, format!("unknown selection policy {other:?}")),
    };
    let engine_path = format!("{path}.engine");
    let engine_name = dec_str(get(doc, "engine", path)?, &engine_path)?;
    // One canonical spelling per kind (`EngineKind::name`); "analytic"
    // decodes like any other — cycle-accuracy is enforced where it
    // matters (NetworkSim construction, chaos campaigns), not here.
    let engine = match EngineKind::from_name(engine_name) {
        Some(k) => k,
        None => return err(&engine_path, format!("unknown engine {engine_name:?}")),
    };
    Ok(SimConfig {
        width: dec_usize(get(doc, "width", path)?, &format!("{path}.width"))?,
        header_words: dec_usize(
            get(doc, "header_words", path)?,
            &format!("{path}.header_words"),
        )?,
        pipestages: dec_usize(get(doc, "pipestages", path)?, &format!("{path}.pipestages"))?,
        wire_delay: dec_usize(get(doc, "wire_delay", path)?, &format!("{path}.wire_delay"))?,
        stage_wire_delays,
        fast_reclaim: dec_bool(
            get(doc, "fast_reclaim", path)?,
            &format!("{path}.fast_reclaim"),
        )?,
        selection,
        endpoint: dec_endpoint(get(doc, "endpoint", path)?, &format!("{path}.endpoint"))?,
        seed: dec_seed(get(doc, "seed", path)?, &format!("{path}.seed"))?,
        engine,
        // Absent in pre-telemetry scenario files; default matches
        // `SimConfig::default` so old documents keep their meaning.
        telemetry_every: match doc.get("telemetry_every") {
            Some(v) => dec_u64(v, &format!("{path}.telemetry_every"))?,
            None => 1,
        },
        // Absent in pre-healing scenario files; off is the old
        // behaviour.
        self_heal: match doc.get("self_heal") {
            Some(v) => dec_bool(v, &format!("{path}.self_heal"))?,
            None => false,
        },
        // Absent in pre-sharding scenario files; 1 is the classic
        // single-threaded tick (and every shard count is bit-identical
        // to it, so this is purely an execution-strategy knob).
        shards: match doc.get("shards") {
            Some(v) => dec_usize(v, &format!("{path}.shards"))?,
            None => 1,
        },
    })
}

// ---------------------------------------------------------------------------
// Faults
// ---------------------------------------------------------------------------

fn enc_faults(faults: &FaultSet) -> Json {
    let mut routers: Vec<(usize, usize)> = faults.dead_routers().collect();
    routers.sort_unstable();
    let mut links: Vec<(LinkId, FaultKind)> = faults.faulty_links().collect();
    links.sort_unstable_by_key(|(l, _)| (l.stage, l.router, l.port));
    let mut endpoints: Vec<usize> = faults.dead_endpoints().collect();
    endpoints.sort_unstable();
    Json::obj([
        (
            "routers",
            Json::arr(
                routers
                    .iter()
                    .map(|&(s, r)| Json::arr([Json::from(s), Json::from(r)])),
            ),
        ),
        (
            "links",
            Json::arr(links.iter().map(|(l, k)| {
                let mut doc = Json::obj([
                    ("stage", Json::from(l.stage)),
                    ("router", Json::from(l.router)),
                    ("port", Json::from(l.port)),
                ]);
                match k {
                    FaultKind::Dead => doc.set("kind", Json::from("dead")),
                    FaultKind::CorruptData { xor } => {
                        doc.set("kind", Json::from("corrupt"));
                        doc.set("xor", Json::from(u64::from(*xor)));
                    }
                    FaultKind::Intermittent { xor, period } => {
                        doc.set("kind", Json::from("intermittent"));
                        doc.set("xor", Json::from(u64::from(*xor)));
                        doc.set("period", Json::from(u64::from(*period)));
                    }
                }
                doc
            })),
        ),
        (
            "endpoints",
            Json::arr(endpoints.iter().map(|&e| Json::from(e))),
        ),
    ])
}

fn dec_faults(doc: &Json, path: &str) -> Result<FaultSet, CodecError> {
    check_fields(doc, &["routers", "links", "endpoints"], path)?;
    let mut faults = FaultSet::new();
    let routers_path = format!("{path}.routers");
    for (i, r) in dec_arr(get(doc, "routers", path)?, &routers_path)?
        .iter()
        .enumerate()
    {
        let rp = format!("{routers_path}[{i}]");
        let pair = dec_arr(r, &rp)?;
        if pair.len() != 2 {
            return err(&rp, "expected a [stage, router] pair");
        }
        faults.kill_router(dec_usize(&pair[0], &rp)?, dec_usize(&pair[1], &rp)?);
    }
    let links_path = format!("{path}.links");
    for (i, l) in dec_arr(get(doc, "links", path)?, &links_path)?
        .iter()
        .enumerate()
    {
        let lp = format!("{links_path}[{i}]");
        let kind_path = format!("{lp}.kind");
        let kind = match dec_str(get(l, "kind", &lp)?, &kind_path)? {
            "dead" => {
                check_fields(l, &["stage", "router", "port", "kind"], &lp)?;
                FaultKind::Dead
            }
            "corrupt" => {
                check_fields(l, &["stage", "router", "port", "kind", "xor"], &lp)?;
                FaultKind::CorruptData {
                    xor: dec_u16(get(l, "xor", &lp)?, &format!("{lp}.xor"))?,
                }
            }
            "intermittent" => {
                check_fields(
                    l,
                    &["stage", "router", "port", "kind", "xor", "period"],
                    &lp,
                )?;
                FaultKind::Intermittent {
                    xor: dec_u16(get(l, "xor", &lp)?, &format!("{lp}.xor"))?,
                    period: dec_u64(get(l, "period", &lp)?, &format!("{lp}.period"))? as u32,
                }
            }
            other => return err(&kind_path, format!("unknown link fault kind {other:?}")),
        };
        faults.break_link(
            LinkId::new(
                dec_usize(get(l, "stage", &lp)?, &format!("{lp}.stage"))?,
                dec_usize(get(l, "router", &lp)?, &format!("{lp}.router"))?,
                dec_usize(get(l, "port", &lp)?, &format!("{lp}.port"))?,
            ),
            kind,
        );
    }
    let eps_path = format!("{path}.endpoints");
    for (i, e) in dec_arr(get(doc, "endpoints", path)?, &eps_path)?
        .iter()
        .enumerate()
    {
        faults.kill_endpoint(dec_usize(e, &format!("{eps_path}[{i}]"))?);
    }
    Ok(faults)
}

fn enc_repairs(repairs: &RepairSet) -> Json {
    // Vec order is preserved verbatim — unlike `FaultSet`'s hash
    // containers, a `RepairSet` is already deterministic, so the
    // author's order is the canonical order.
    Json::obj([
        (
            "links",
            Json::arr(repairs.links.iter().map(|l| {
                Json::obj([
                    ("stage", Json::from(l.stage)),
                    ("router", Json::from(l.router)),
                    ("port", Json::from(l.port)),
                ])
            })),
        ),
        (
            "routers",
            Json::arr(
                repairs
                    .routers
                    .iter()
                    .map(|&(s, r)| Json::arr([Json::from(s), Json::from(r)])),
            ),
        ),
        (
            "endpoints",
            Json::arr(repairs.endpoints.iter().map(|&e| Json::from(e))),
        ),
    ])
}

fn dec_repairs(doc: &Json, path: &str) -> Result<RepairSet, CodecError> {
    check_fields(doc, &["links", "routers", "endpoints"], path)?;
    let mut repairs = RepairSet::default();
    let links_path = format!("{path}.links");
    for (i, l) in dec_arr(get(doc, "links", path)?, &links_path)?
        .iter()
        .enumerate()
    {
        let lp = format!("{links_path}[{i}]");
        check_fields(l, &["stage", "router", "port"], &lp)?;
        repairs.links.push(LinkId::new(
            dec_usize(get(l, "stage", &lp)?, &format!("{lp}.stage"))?,
            dec_usize(get(l, "router", &lp)?, &format!("{lp}.router"))?,
            dec_usize(get(l, "port", &lp)?, &format!("{lp}.port"))?,
        ));
    }
    let routers_path = format!("{path}.routers");
    for (i, r) in dec_arr(get(doc, "routers", path)?, &routers_path)?
        .iter()
        .enumerate()
    {
        let rp = format!("{routers_path}[{i}]");
        let pair = dec_arr(r, &rp)?;
        if pair.len() != 2 {
            return err(&rp, "expected a [stage, router] pair");
        }
        repairs
            .routers
            .push((dec_usize(&pair[0], &rp)?, dec_usize(&pair[1], &rp)?));
    }
    let eps_path = format!("{path}.endpoints");
    for (i, e) in dec_arr(get(doc, "endpoints", path)?, &eps_path)?
        .iter()
        .enumerate()
    {
        repairs
            .endpoints
            .push(dec_usize(e, &format!("{eps_path}[{i}]"))?);
    }
    Ok(repairs)
}

// ---------------------------------------------------------------------------
// Traffic / workload
// ---------------------------------------------------------------------------

fn enc_pattern(pattern: &TrafficPattern) -> Json {
    match pattern {
        TrafficPattern::Uniform => Json::obj([("kind", Json::from("uniform"))]),
        TrafficPattern::Hotspot { target, percent } => Json::obj([
            ("kind", Json::from("hotspot")),
            ("target", Json::from(*target)),
            ("percent", Json::from(*percent)),
        ]),
        TrafficPattern::Transpose => Json::obj([("kind", Json::from("transpose"))]),
        TrafficPattern::BitReversal => Json::obj([("kind", Json::from("bit_reversal"))]),
        TrafficPattern::Permutation(perm) => Json::obj([
            ("kind", Json::from("permutation")),
            ("perm", Json::arr(perm.iter().map(|&d| Json::from(d)))),
        ]),
    }
}

fn dec_pattern(doc: &Json, path: &str) -> Result<TrafficPattern, CodecError> {
    let kind_path = format!("{path}.kind");
    match dec_str(get(doc, "kind", path)?, &kind_path)? {
        "uniform" => {
            check_fields(doc, &["kind"], path)?;
            Ok(TrafficPattern::Uniform)
        }
        "hotspot" => {
            check_fields(doc, &["kind", "target", "percent"], path)?;
            Ok(TrafficPattern::Hotspot {
                target: dec_usize(get(doc, "target", path)?, &format!("{path}.target"))?,
                percent: dec_usize(get(doc, "percent", path)?, &format!("{path}.percent"))?,
            })
        }
        "transpose" => {
            check_fields(doc, &["kind"], path)?;
            Ok(TrafficPattern::Transpose)
        }
        "bit_reversal" => {
            check_fields(doc, &["kind"], path)?;
            Ok(TrafficPattern::BitReversal)
        }
        "permutation" => {
            check_fields(doc, &["kind", "perm"], path)?;
            let perm_path = format!("{path}.perm");
            let items = dec_arr(get(doc, "perm", path)?, &perm_path)?;
            let mut perm = Vec::with_capacity(items.len());
            for (i, d) in items.iter().enumerate() {
                perm.push(dec_usize(d, &format!("{perm_path}[{i}]"))?);
            }
            Ok(TrafficPattern::Permutation(perm))
        }
        other => err(&kind_path, format!("unknown traffic pattern {other:?}")),
    }
}

fn enc_arrival(arrival: &ArrivalProcess) -> Json {
    match arrival {
        ArrivalProcess::Bernoulli => Json::obj([("kind", Json::from("bernoulli"))]),
        ArrivalProcess::OnOff {
            burst_mean,
            idle_mean,
        } => Json::obj([
            ("kind", Json::from("on_off")),
            ("burst_mean", Json::from(*burst_mean)),
            ("idle_mean", Json::from(*idle_mean)),
        ]),
        ArrivalProcess::Trace(entries) => Json::obj([
            ("kind", Json::from("trace")),
            (
                "entries",
                Json::arr(entries.iter().map(|e| {
                    Json::obj([
                        ("at", Json::from(e.at)),
                        ("src", Json::from(e.src)),
                        ("dest", Json::from(e.dest)),
                        ("payload_words", Json::from(e.payload_words)),
                    ])
                })),
            ),
        ]),
    }
}

fn dec_arrival(doc: &Json, path: &str) -> Result<ArrivalProcess, CodecError> {
    let kind_path = format!("{path}.kind");
    match dec_str(get(doc, "kind", path)?, &kind_path)? {
        "bernoulli" => {
            check_fields(doc, &["kind"], path)?;
            Ok(ArrivalProcess::Bernoulli)
        }
        "on_off" => {
            check_fields(doc, &["kind", "burst_mean", "idle_mean"], path)?;
            Ok(ArrivalProcess::OnOff {
                burst_mean: dec_u64(get(doc, "burst_mean", path)?, &format!("{path}.burst_mean"))?,
                idle_mean: dec_u64(get(doc, "idle_mean", path)?, &format!("{path}.idle_mean"))?,
            })
        }
        "trace" => {
            check_fields(doc, &["kind", "entries"], path)?;
            let entries_path = format!("{path}.entries");
            let items = dec_arr(get(doc, "entries", path)?, &entries_path)?;
            let mut entries = Vec::with_capacity(items.len());
            for (i, e) in items.iter().enumerate() {
                let ep = format!("{entries_path}[{i}]");
                check_fields(e, &["at", "src", "dest", "payload_words"], &ep)?;
                entries.push(TraceEntry {
                    at: dec_u64(get(e, "at", &ep)?, &format!("{ep}.at"))?,
                    src: dec_usize(get(e, "src", &ep)?, &format!("{ep}.src"))?,
                    dest: dec_usize(get(e, "dest", &ep)?, &format!("{ep}.dest"))?,
                    payload_words: dec_usize(
                        get(e, "payload_words", &ep)?,
                        &format!("{ep}.payload_words"),
                    )?,
                });
            }
            Ok(ArrivalProcess::Trace(entries))
        }
        other => err(&kind_path, format!("unknown arrival process {other:?}")),
    }
}

fn enc_workload(workload: &WorkloadSpec) -> Json {
    match workload {
        WorkloadSpec::Load {
            pattern,
            arrival,
            rates,
            load,
            payload_words,
            warmup,
            measure,
            drain,
        } => {
            let mut fields = vec![
                ("kind", Json::from("load")),
                ("pattern", enc_pattern(pattern)),
            ];
            // Conditional emission keeps schema-1 corpus files (and
            // their scenario_hash) byte-stable: the defaults are never
            // written out.
            if *arrival != ArrivalProcess::Bernoulli {
                fields.push(("arrival", enc_arrival(arrival)));
            }
            if let RateMap::PerEndpoint(rates) = rates {
                fields.push(("rates", Json::arr(rates.iter().map(|&r| Json::from(r)))));
            }
            fields.extend([
                ("load", Json::from(*load)),
                ("payload_words", Json::from(*payload_words)),
                ("warmup", Json::from(*warmup)),
                ("measure", Json::from(*measure)),
                ("drain", Json::from(*drain)),
            ]);
            Json::obj(fields)
        }
        WorkloadSpec::Sends { sends, cycles } => Json::obj([
            ("kind", Json::from("sends")),
            ("cycles", Json::from(*cycles)),
            (
                "sends",
                Json::arr(sends.iter().map(|s| {
                    Json::obj([
                        ("at", Json::from(s.at)),
                        ("src", Json::from(s.src)),
                        ("dest", Json::from(s.dest)),
                        (
                            "payload",
                            Json::arr(s.payload.iter().map(|&w| Json::from(u64::from(w)))),
                        ),
                    ])
                })),
            ),
        ]),
    }
}

fn dec_workload(
    doc: &Json,
    path: &str,
    endpoints: usize,
    schema: u64,
) -> Result<WorkloadSpec, CodecError> {
    let kind_path = format!("{path}.kind");
    match dec_str(get(doc, "kind", path)?, &kind_path)? {
        "load" => {
            check_fields(
                doc,
                &[
                    "kind",
                    "pattern",
                    "arrival",
                    "rates",
                    "load",
                    "payload_words",
                    "warmup",
                    "measure",
                    "drain",
                ],
                path,
            )?;
            // Schema gate: the workload-subsystem fields only exist
            // from schema 2 — a schema-1 document carrying them is
            // mislabelled, not merely old.
            if schema < 2 {
                for key in ["arrival", "rates"] {
                    if doc.get(key).is_some() {
                        return err(
                            &format!("{path}.{key}"),
                            format!(
                                "field {key:?} requires scenario schema 2 \
                                 (document declares {schema})"
                            ),
                        );
                    }
                }
            }
            let arrival = match doc.get("arrival") {
                Some(a) => dec_arrival(a, &format!("{path}.arrival"))?,
                None => ArrivalProcess::Bernoulli,
            };
            let rates = match doc.get("rates") {
                Some(r) => {
                    let rates_path = format!("{path}.rates");
                    let items = dec_arr(r, &rates_path)?;
                    let mut rates = Vec::with_capacity(items.len());
                    for (i, v) in items.iter().enumerate() {
                        rates.push(dec_f64(v, &format!("{rates_path}[{i}]"))?);
                    }
                    RateMap::PerEndpoint(rates)
                }
                None => RateMap::Uniform,
            };
            let spec = WorkloadSpec::Load {
                pattern: dec_pattern(get(doc, "pattern", path)?, &format!("{path}.pattern"))?,
                arrival,
                rates,
                load: dec_f64(get(doc, "load", path)?, &format!("{path}.load"))?,
                payload_words: dec_usize(
                    get(doc, "payload_words", path)?,
                    &format!("{path}.payload_words"),
                )?,
                warmup: dec_u64(get(doc, "warmup", path)?, &format!("{path}.warmup"))?,
                measure: dec_u64(get(doc, "measure", path)?, &format!("{path}.measure"))?,
                drain: dec_u64(get(doc, "drain", path)?, &format!("{path}.drain"))?,
            };
            // Shape validation against the document's own topology:
            // out-of-range hotspots/permutation entries, self-targeting
            // traces, malformed rate maps, and transpose/bit-reversal
            // on non-power-of-two endpoint counts are decode errors,
            // not latent run-time mis-mappings.
            if let Err(e) = spec.validate(endpoints) {
                return err(path, e.to_string());
            }
            Ok(spec)
        }
        "sends" => {
            check_fields(doc, &["kind", "cycles", "sends"], path)?;
            let sends_path = format!("{path}.sends");
            let items = dec_arr(get(doc, "sends", path)?, &sends_path)?;
            let mut sends = Vec::with_capacity(items.len());
            for (i, s) in items.iter().enumerate() {
                let sp = format!("{sends_path}[{i}]");
                check_fields(s, &["at", "src", "dest", "payload"], &sp)?;
                let payload_path = format!("{sp}.payload");
                let words = dec_arr(get(s, "payload", &sp)?, &payload_path)?;
                let mut payload = Vec::with_capacity(words.len());
                for (j, w) in words.iter().enumerate() {
                    payload.push(dec_u16(w, &format!("{payload_path}[{j}]"))?);
                }
                sends.push(SendSpec {
                    at: dec_u64(get(s, "at", &sp)?, &format!("{sp}.at"))?,
                    src: dec_usize(get(s, "src", &sp)?, &format!("{sp}.src"))?,
                    dest: dec_usize(get(s, "dest", &sp)?, &format!("{sp}.dest"))?,
                    payload,
                });
            }
            Ok(WorkloadSpec::Sends {
                sends,
                cycles: dec_u64(get(doc, "cycles", path)?, &format!("{path}.cycles"))?,
            })
        }
        other => err(&kind_path, format!("unknown workload kind {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// Encodes a scenario as a schema-versioned JSON document. Key order
/// and fault ordering are fixed, so equal scenarios render
/// byte-identically.
#[must_use]
pub fn encode(scenario: &Scenario) -> Json {
    Json::obj([
        ("scenario_schema", Json::from(schema_for(scenario))),
        ("name", Json::from(scenario.name.as_str())),
        ("topology", enc_topology(&scenario.topology)),
        ("sim", enc_sim(&scenario.sim)),
        ("seed", enc_seed(scenario.seed)),
        ("faults", enc_faults(&scenario.faults)),
        (
            "injections",
            Json::arr(scenario.injections.iter().map(|i| {
                let mut doc =
                    Json::obj([("at", Json::from(i.at)), ("faults", enc_faults(&i.faults))]);
                // Emitted only when present, so pre-repair corpus
                // files stay byte-canonical under re-encoding.
                if !i.repairs.is_empty() {
                    doc.set("repairs", enc_repairs(&i.repairs));
                }
                doc
            })),
        ),
        ("workload", enc_workload(&scenario.workload)),
    ])
}

/// Decodes a scenario document, rejecting unknown fields and schema
/// versions outside `1..=`[`SCENARIO_SCHEMA`]. Older in-range versions
/// decode with their era's defaults (schema 1: Bernoulli arrivals,
/// uniform rates), so every pre-bump corpus file parses to an identical
/// in-memory scenario.
///
/// # Errors
///
/// Returns a [`CodecError`] naming the offending field.
pub fn decode(doc: &Json) -> Result<Scenario, CodecError> {
    check_fields(
        doc,
        &[
            "scenario_schema",
            "name",
            "topology",
            "sim",
            "seed",
            "faults",
            "injections",
            "workload",
        ],
        "scenario",
    )?;
    let schema = dec_u64(
        get(doc, "scenario_schema", "scenario")?,
        "scenario.scenario_schema",
    )?;
    if schema == 0 || schema > SCENARIO_SCHEMA {
        return err(
            "scenario.scenario_schema",
            format!("unsupported schema version {schema} (this build reads 1..={SCENARIO_SCHEMA})"),
        );
    }
    let injections_path = "scenario.injections";
    let mut injections = Vec::new();
    for (i, inj) in dec_arr(get(doc, "injections", "scenario")?, injections_path)?
        .iter()
        .enumerate()
    {
        let ip = format!("{injections_path}[{i}]");
        check_fields(inj, &["at", "faults", "repairs"], &ip)?;
        injections.push(FaultInjection {
            at: dec_u64(get(inj, "at", &ip)?, &format!("{ip}.at"))?,
            faults: dec_faults(get(inj, "faults", &ip)?, &format!("{ip}.faults"))?,
            // Absent in pre-repair scenario files (back-compat).
            repairs: match inj.get("repairs") {
                Some(r) => dec_repairs(r, &format!("{ip}.repairs"))?,
                None => RepairSet::default(),
            },
        });
    }
    // Topology decodes first: the workload decoder validates patterns,
    // rate maps, and trace entries against the endpoint count.
    let topology = dec_topology(get(doc, "topology", "scenario")?, "scenario.topology")?;
    let workload = dec_workload(
        get(doc, "workload", "scenario")?,
        "scenario.workload",
        topology.endpoints,
        schema,
    )?;
    Ok(Scenario {
        name: dec_str(get(doc, "name", "scenario")?, "scenario.name")?.to_string(),
        topology,
        sim: dec_sim(get(doc, "sim", "scenario")?, "scenario.sim")?,
        seed: dec_seed(get(doc, "seed", "scenario")?, "scenario.seed")?,
        faults: dec_faults(get(doc, "faults", "scenario")?, "scenario.faults")?,
        injections,
        workload,
    })
}

/// Parses and decodes a scenario from JSON text.
///
/// # Errors
///
/// Returns the JSON parse diagnostic or the decode error as a string.
pub fn from_text(text: &str) -> Result<Scenario, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    decode(&doc).map_err(|e| e.to_string())
}

/// The canonical hash of a scenario — `"0x"` + 16 hex digits of the
/// FNV-1a digest of the compact-rendered encoding. This is what the
/// results manifest records as `scenario_hash`.
#[must_use]
pub fn scenario_hash(scenario: &Scenario) -> String {
    format!("{:#018x}", encode(scenario).canonical_hash())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_scenario;

    fn rich_scenario() -> Scenario {
        let mut faults = FaultSet::new();
        faults.kill_router(0, 3);
        faults.kill_router(0, 1);
        faults.break_link(LinkId::new(1, 2, 0), FaultKind::CorruptData { xor: 0x40 });
        faults.break_link(LinkId::new(0, 0, 1), FaultKind::Dead);
        faults.break_link(
            LinkId::new(2, 1, 1),
            FaultKind::Intermittent { xor: 1, period: 4 },
        );
        faults.kill_endpoint(5);
        let mut inj = FaultSet::new();
        inj.kill_router(1, 0);
        Scenario {
            name: "rich".to_string(),
            topology: MultibutterflySpec::figure1(),
            sim: SimConfig {
                header_words: 1,
                wire_delay: 1,
                stage_wire_delays: Some(vec![0, 1, 0, 2]),
                selection: SelectionPolicy::RoundRobin,
                engine: EngineKind::Reference,
                seed: 0xDEAD_BEEF_DEAD_BEEF,
                endpoint: EndpointConfig {
                    reply: ReplyPolicy::ReadReply {
                        latency: 4,
                        words: 2,
                    },
                    max_retries: 7,
                    ..EndpointConfig::default()
                },
                ..SimConfig::default()
            },
            seed: u64::MAX,
            faults,
            injections: vec![FaultInjection {
                at: 250,
                faults: inj,
                repairs: RepairSet::default(),
            }],
            workload: WorkloadSpec::Load {
                pattern: TrafficPattern::Hotspot {
                    target: 0,
                    percent: 30,
                },
                arrival: ArrivalProcess::Bernoulli,
                rates: RateMap::Uniform,
                load: 0.35,
                payload_words: 19,
                warmup: 100,
                measure: 400,
                drain: 200,
            },
        }
    }

    #[test]
    fn rich_scenario_round_trips_exactly() {
        let s = rich_scenario();
        let doc = encode(&s);
        assert_eq!(decode(&doc).unwrap(), s);
        // Byte stability: parse → encode → render must reproduce the
        // original rendering exactly.
        let text = doc.render();
        let reparsed = from_text(&text).unwrap();
        assert_eq!(encode(&reparsed).render(), text);
    }

    #[test]
    fn sends_workload_round_trips() {
        let s = Scenario::scripted(
            "sends",
            MultibutterflySpec::small8(),
            vec![SendSpec {
                at: 3,
                src: 0,
                dest: 7,
                payload: vec![0, 65_535, 128],
            }],
            900,
        );
        assert_eq!(decode(&encode(&s)).unwrap(), s);
    }

    #[test]
    fn seeds_survive_beyond_f64_precision() {
        // 2^53 + 1 is the first integer f64 cannot represent; u64::MAX
        // is far beyond. Hex-string seeds must carry both exactly.
        for seed in [(1u64 << 53) + 1, u64::MAX, 0, 0xC0FFEE] {
            let mut s = rich_scenario();
            s.seed = seed;
            s.sim.seed = seed ^ 0x1234;
            s.topology.seed = seed.rotate_left(17);
            let back = decode(&encode(&s)).unwrap();
            assert_eq!(back.seed, seed);
            assert_eq!(back.sim.seed, seed ^ 0x1234);
            assert_eq!(back.topology.seed, seed.rotate_left(17));
        }
    }

    #[test]
    fn unknown_fields_are_rejected_at_every_level() {
        let s = rich_scenario();
        // Top level.
        let mut doc = encode(&s);
        doc.set("surprise", Json::from(1u64));
        assert!(decode(&doc).unwrap_err().message.contains("surprise"));
        // Nested: sim.
        let mut doc = encode(&s);
        let sim = doc.get("sim").unwrap().clone();
        let mut sim = sim;
        sim.set("turbo", Json::from(true));
        doc.set("sim", sim);
        let e = decode(&doc).unwrap_err();
        assert!(e.path.contains("sim") && e.message.contains("turbo"), "{e}");
        // Nested: a send entry.
        let s2 = Scenario::scripted(
            "x",
            MultibutterflySpec::small8(),
            vec![SendSpec {
                at: 0,
                src: 0,
                dest: 1,
                payload: vec![],
            }],
            100,
        );
        let mut doc = encode(&s2);
        let mut wl = doc.get("workload").unwrap().clone();
        let mut send0 = wl.get("sends").unwrap().as_arr().unwrap()[0].clone();
        send0.set("priority", Json::from(9u64));
        wl.set("sends", Json::arr([send0]));
        doc.set("workload", wl);
        assert!(decode(&doc).is_err());
    }

    #[test]
    fn repair_events_round_trip_and_stay_back_compatible() {
        let mut s = rich_scenario();
        s.injections[0].repairs = RepairSet {
            links: vec![LinkId::new(1, 2, 0), LinkId::new(0, 0, 1)],
            routers: vec![(0, 3)],
            endpoints: vec![5],
        };
        let doc = encode(&s);
        assert_eq!(decode(&doc).unwrap(), s);
        // Byte stability with repairs present.
        let text = doc.render();
        assert_eq!(encode(&from_text(&text).unwrap()).render(), text);

        // Back-compat: a pre-repair document (no "repairs" key) decodes
        // to an empty repair set, and re-encodes without the key —
        // existing corpus files keep their canonical bytes.
        let old = rich_scenario();
        let old_doc = encode(&old);
        assert!(old_doc.render().find("repairs").is_none());
        assert!(decode(&old_doc).unwrap().injections[0].repairs.is_empty());

        // Unknown fields inside a repair entry still fail loudly.
        let mut doc = encode(&s);
        let mut injections = doc.get("injections").unwrap().as_arr().unwrap().to_vec();
        let mut repairs = injections[0].get("repairs").unwrap().clone();
        repairs.set("surprise", Json::from(1u64));
        injections[0].set("repairs", repairs);
        doc.set("injections", Json::arr(injections));
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "scenario.injections[0].repairs");
        assert!(e.message.contains("surprise"));
    }

    #[test]
    fn shards_round_trip_and_stay_back_compatible() {
        // Every shard count a file can carry — 0 = host auto and a
        // hostile one included — survives the round trip, renders
        // byte-stably, resolves to at most one shard per router, and
        // changes nothing about the result.
        let mut base = rich_scenario();
        base.sim.engine = EngineKind::Flat;
        let expect = crate::scenario::run_scenario(&base).unwrap();
        for shards in [0usize, 1, 2, 4, 1_000_000] {
            let mut s = base.clone();
            s.sim.shards = shards;
            let doc = encode(&s);
            assert_eq!(decode(&doc).unwrap(), s, "shards={shards}");
            let text = doc.render();
            assert_eq!(encode(&from_text(&text).unwrap()).render(), text);
            let (got, sim) = crate::scenario::run_scenario_with_sim(&s).unwrap();
            assert!(
                (1..=sim.topology().total_routers()).contains(&sim.shards()),
                "shards={shards} resolved to {}",
                sim.shards()
            );
            assert_eq!(got, expect, "shards={shards}");
        }

        // Back-compat: the default (1, single-threaded) is never
        // written out, so pre-sharding corpus files keep their
        // canonical bytes, and a document without the key decodes to
        // shards = 1.
        let old = rich_scenario();
        assert_eq!(old.sim.shards, 1);
        let old_doc = encode(&old);
        assert!(old_doc.render().find("shards").is_none());
        assert_eq!(decode(&old_doc).unwrap().sim.shards, 1);

        // The one corpus file that carries the key keeps its bytes and
        // its hash.
        let text = include_str!("../../../../scenarios/metro1k.json");
        let metro1k = from_text(text).unwrap();
        assert_eq!(metro1k.sim.shards, 0);
        assert_eq!(encode(&metro1k).render(), text);
        assert_eq!(scenario_hash(&metro1k), "0x450992347c3103a3");
    }

    #[test]
    fn every_engine_name_round_trips_byte_stably() {
        // The codec and EngineKind::{name, from_name} must agree on one
        // spelling per kind — including "analytic", which decodes here
        // even though cycle-accurate contexts reject it later.
        for kind in EngineKind::ALL {
            let mut s = rich_scenario();
            s.sim.engine = kind;
            let doc = encode(&s);
            let text = doc.render();
            assert!(text.contains(&format!("\"engine\": \"{}\"", kind.name())));
            assert_eq!(decode(&doc).unwrap().sim.engine, kind);
            assert_eq!(encode(&from_text(&text).unwrap()).render(), text);
        }

        // A name outside the canonical set names its path in the error.
        let mut doc = encode(&rich_scenario());
        let mut sim = doc.get("sim").unwrap().clone();
        sim.set("engine", Json::from("warp"));
        doc.set("sim", sim);
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "scenario.sim.engine");
        assert!(e.message.contains("warp"), "{e}");
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut doc = encode(&rich_scenario());
        doc.set("scenario_schema", Json::from(3u64));
        let e = decode(&doc).unwrap_err();
        assert!(e.message.contains("unsupported schema version"), "{e}");
        doc.set("scenario_schema", Json::from(0u64));
        assert!(decode(&doc).is_err());
        // And a missing version is equally fatal.
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "scenario_schema");
        assert!(decode(&doc).is_err());
    }

    #[test]
    fn legacy_workloads_still_encode_as_schema_one() {
        // A scenario using only schema-1 features must keep its
        // pre-bump bytes — and therefore its scenario_hash — so the
        // corpus and every recorded manifest entry survive the bump.
        let s = rich_scenario();
        let text = encode(&s).render();
        assert!(text.contains("\"scenario_schema\": 1"), "{text}");
        assert!(!text.contains("arrival"), "{text}");
        assert!(!text.contains("rates"), "{text}");
        // New workload features push the document to schema 2.
        let mut bursty = rich_scenario();
        let WorkloadSpec::Load { arrival, .. } = &mut bursty.workload else {
            unreachable!()
        };
        *arrival = ArrivalProcess::OnOff {
            burst_mean: 60,
            idle_mean: 120,
        };
        let text = encode(&bursty).render();
        assert!(text.contains("\"scenario_schema\": 2"), "{text}");
        assert!(text.contains("\"arrival\""), "{text}");
    }

    #[test]
    fn schema_one_fixture_decodes_to_the_same_scenario() {
        // A verbatim pre-bump document (schema 1, no workload-subsystem
        // fields). Decoding must produce exactly the scenario the old
        // build produced — pinned by hash equality against the
        // in-memory construction.
        let fixture = r#"{
            "scenario_schema": 1,
            "name": "legacy",
            "topology": {
                "endpoints": 16, "endpoint_ports": 2,
                "stages": [
                    {"forward_ports": 4, "backward_ports": 4, "dilation": 2},
                    {"forward_ports": 4, "backward_ports": 4, "dilation": 2},
                    {"forward_ports": 4, "backward_ports": 4, "dilation": 1}
                ],
                "wiring": "randomized", "seed": "0x10"
            },
            "sim": {
                "width": 8, "header_words": 0, "pipestages": 1,
                "wire_delay": 0, "stage_wire_delays": null,
                "fast_reclaim": true, "selection": "random",
                "endpoint": {
                    "reply": {"kind": "ack"}, "timeout": 600,
                    "open_timeout": 32, "retry_backoff_max": 3,
                    "max_retries": 0, "max_concurrent": 1,
                    "capture_failure_records": false
                },
                "seed": "0x7ea1", "engine": "flat", "telemetry_every": 1
            },
            "seed": "0x5eed",
            "faults": {"routers": [], "links": [], "endpoints": []},
            "injections": [],
            "workload": {
                "kind": "load",
                "pattern": {"kind": "uniform"},
                "load": 0.25, "payload_words": 19,
                "warmup": 100, "measure": 400, "drain": 200
            }
        }"#;
        let decoded = from_text(fixture).unwrap();
        let expected = Scenario {
            name: "legacy".to_string(),
            topology: MultibutterflySpec::figure1().with_seed(0x10),
            sim: SimConfig {
                seed: 0x7EA1,
                ..SimConfig::default()
            },
            seed: 0x5EED,
            faults: FaultSet::new(),
            injections: Vec::new(),
            workload: WorkloadSpec::Load {
                pattern: TrafficPattern::Uniform,
                arrival: ArrivalProcess::Bernoulli,
                rates: RateMap::Uniform,
                load: 0.25,
                payload_words: 19,
                warmup: 100,
                measure: 400,
                drain: 200,
            },
        };
        assert_eq!(decoded, expected);
        assert_eq!(scenario_hash(&decoded), scenario_hash(&expected));
        // Re-encoding a schema-1 document must not rewrite it to
        // schema 2.
        assert!(encode(&decoded).render().contains("\"scenario_schema\": 1"));
    }

    #[test]
    fn schema_one_documents_cannot_smuggle_workload_fields() {
        // arrival/rates on a document that declares schema 1 is a
        // mislabelled file, not a back-compat case.
        let mut s = rich_scenario();
        let WorkloadSpec::Load { arrival, .. } = &mut s.workload else {
            unreachable!()
        };
        *arrival = ArrivalProcess::OnOff {
            burst_mean: 10,
            idle_mean: 10,
        };
        let mut doc = encode(&s);
        doc.set("scenario_schema", Json::from(1u64));
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "scenario.workload.arrival");
        assert!(e.message.contains("requires scenario schema 2"), "{e}");
    }

    #[test]
    fn new_workload_variants_round_trip_byte_stably() {
        let mut s = rich_scenario();
        s.workload = WorkloadSpec::Load {
            pattern: TrafficPattern::Uniform,
            arrival: ArrivalProcess::OnOff {
                burst_mean: 60,
                idle_mean: 120,
            },
            rates: RateMap::PerEndpoint((0..16).map(|e| 0.5 + e as f64 / 16.0).collect()),
            load: 0.2,
            payload_words: 19,
            warmup: 100,
            measure: 400,
            drain: 200,
        };
        let doc = encode(&s);
        assert_eq!(decode(&doc).unwrap(), s);
        let text = doc.render();
        assert_eq!(encode(&from_text(&text).unwrap()).render(), text);

        let mut t = rich_scenario();
        t.workload = WorkloadSpec::Load {
            pattern: TrafficPattern::Uniform,
            arrival: ArrivalProcess::Trace(vec![
                TraceEntry {
                    at: 5,
                    src: 0,
                    dest: 9,
                    payload_words: 3,
                },
                TraceEntry {
                    at: 250,
                    src: 9,
                    dest: 1,
                    payload_words: 19,
                },
            ]),
            rates: RateMap::Uniform,
            load: 0.2,
            payload_words: 19,
            warmup: 50,
            measure: 500,
            drain: 200,
        };
        let doc = encode(&t);
        assert_eq!(decode(&doc).unwrap(), t);
        let text = doc.render();
        assert_eq!(encode(&from_text(&text).unwrap()).render(), text);
    }

    #[test]
    fn unknown_workload_and_arrival_kinds_name_their_path() {
        let mut doc = encode(&rich_scenario());
        let mut wl = doc.get("workload").unwrap().clone();
        wl.set("kind", Json::from("flood"));
        doc.set("workload", wl);
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "scenario.workload.kind");
        assert!(e.message.contains("flood"), "{e}");

        let mut s = rich_scenario();
        let WorkloadSpec::Load { arrival, .. } = &mut s.workload else {
            unreachable!()
        };
        *arrival = ArrivalProcess::OnOff {
            burst_mean: 10,
            idle_mean: 10,
        };
        let mut doc = encode(&s);
        let mut wl = doc.get("workload").unwrap().clone();
        let mut arr = wl.get("arrival").unwrap().clone();
        arr.set("kind", Json::from("poisson"));
        wl.set("arrival", arr);
        doc.set("workload", wl);
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "scenario.workload.arrival.kind");
        assert!(e.message.contains("poisson"), "{e}");
    }

    #[test]
    fn malformed_workload_shapes_are_decode_errors() {
        // Out-of-range permutation entry.
        let mut s = rich_scenario();
        let n = s.topology.endpoints;
        let mut perm: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
        let WorkloadSpec::Load { pattern, .. } = &mut s.workload else {
            unreachable!()
        };
        perm[3] = n + 5;
        *pattern = TrafficPattern::Permutation(perm.clone());
        let e = decode(&encode(&s)).unwrap_err();
        assert_eq!(e.path, "scenario.workload");
        assert!(e.message.contains("outside"), "{e}");
        // Self-targeting permutation entry.
        perm[3] = 3;
        let WorkloadSpec::Load { pattern, .. } = &mut s.workload else {
            unreachable!()
        };
        *pattern = TrafficPattern::Permutation(perm);
        let e = decode(&encode(&s)).unwrap_err();
        assert!(e.message.contains("itself"), "{e}");
        // Self-targeting trace entry.
        let mut t = rich_scenario();
        let WorkloadSpec::Load { arrival, .. } = &mut t.workload else {
            unreachable!()
        };
        *arrival = ArrivalProcess::Trace(vec![TraceEntry {
            at: 0,
            src: 2,
            dest: 2,
            payload_words: 1,
        }]);
        let e = decode(&encode(&t)).unwrap_err();
        assert!(e.message.contains("itself"), "{e}");
        // Rate map of the wrong length.
        let mut r = rich_scenario();
        let WorkloadSpec::Load { rates, .. } = &mut r.workload else {
            unreachable!()
        };
        *rates = RateMap::PerEndpoint(vec![1.0; 3]);
        let e = decode(&encode(&r)).unwrap_err();
        assert!(e.message.contains("entries"), "{e}");
    }

    #[test]
    fn malformed_fields_name_their_path() {
        let mut doc = encode(&rich_scenario());
        let mut topo = doc.get("topology").unwrap().clone();
        topo.set("wiring", Json::from("spaghetti"));
        doc.set("topology", topo);
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "scenario.topology.wiring");
    }

    #[test]
    fn decoded_scenario_runs_identically_to_the_original() {
        let mut s = rich_scenario();
        // Keep the run short and fault-light for test speed.
        s.faults = FaultSet::new();
        s.injections.clear();
        let back = decode(&encode(&s)).unwrap();
        let a = run_scenario(&s).unwrap();
        let b = run_scenario(&back).unwrap();
        assert_eq!(a, b, "serialization must not perturb the run");
    }

    #[test]
    fn scenario_hash_is_stable_and_discriminating() {
        let s = rich_scenario();
        assert_eq!(scenario_hash(&s), scenario_hash(&s.clone()));
        let mut t = s.clone();
        t.seed ^= 1;
        assert_ne!(scenario_hash(&s), scenario_hash(&t));
        assert!(scenario_hash(&s).starts_with("0x"));
        assert_eq!(scenario_hash(&s).len(), 18);
    }
}
