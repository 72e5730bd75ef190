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
//!   instead of silently running a different experiment. The decoders
//!   read through [`metro_harness::document`]'s cursor, which enforces
//!   this and names the path of every error.
//! * **`scenario_schema` is checked first**; documents from a different
//!   schema version are rejected before any field parsing.

#![deny(clippy::cast_possible_truncation)]

use super::{FaultInjection, RepairSet, Scenario, SendSpec, WorkloadSpec};
use crate::endpoint::{EndpointConfig, ReplyPolicy};
use crate::network::{EngineKind, SimConfig};
use crate::workload::{ArrivalProcess, RateMap, TraceEntry, TrafficPattern};
use metro_core::SelectionPolicy;
use metro_harness::document::{hex64, DecodeError, Fields, Node};
use metro_harness::Json;
use metro_topo::fault::{FaultKind, FaultSet};
use metro_topo::graph::LinkId;
use metro_topo::multibutterfly::{MultibutterflySpec, StageSpec, WiringStyle};

/// The newest scenario schema version this build writes and reads.
/// Decode accepts `1..=SCENARIO_SCHEMA`; encode emits the *oldest*
/// version that can express the scenario (`schema_for`), so corpus
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
pub type CodecError = DecodeError;

/// Reads the schema version at `key`, accepting those in `readable`.
pub(crate) fn dec_schema(
    f: &mut Fields<'_, '_>,
    key: &str,
    readable: std::ops::RangeInclusive<u64>,
) -> Result<u64, CodecError> {
    let node = f.req(key)?;
    let schema = node.u64()?;
    if !readable.contains(&schema) {
        return node.err(format!(
            "unsupported schema version {schema} (this build reads {}..={})",
            readable.start(),
            readable.end()
        ));
    }
    Ok(schema)
}

fn enc_seed(seed: u64) -> Json {
    Json::from(format!("{seed:#x}"))
}

/// Seeds are written as hex strings; decimal strings and exact small
/// integers are also accepted on input (hand-written files).
fn dec_seed(node: &Node<'_>) -> Result<u64, CodecError> {
    match node.json() {
        Json::Str(s) => {
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.or_else(|_| node.err(format!("invalid seed string {s:?}")))
        }
        Json::Num(_) => node.u64(),
        _ => node.err("expected a seed (hex string or integer)"),
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

fn dec_topology(node: &Node<'_>) -> Result<MultibutterflySpec, CodecError> {
    node.object(|f| {
        Ok(MultibutterflySpec {
            endpoints: f.req("endpoints")?.usize()?,
            endpoint_ports: f.req("endpoint_ports")?.usize()?,
            stages: f.req("stages")?.list(|s| {
                s.object(|f| {
                    Ok(StageSpec {
                        forward_ports: f.req("forward_ports")?.usize()?,
                        backward_ports: f.req("backward_ports")?.usize()?,
                        dilation: f.req("dilation")?.usize()?,
                    })
                })
            })?,
            wiring: f.req("wiring")?.variant("wiring style", |s| match s {
                "deterministic" => Some(WiringStyle::Deterministic),
                "randomized" => Some(WiringStyle::Randomized),
                _ => None,
            })?,
            seed: dec_seed(&f.req("seed")?)?,
        })
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

fn dec_reply(node: &Node<'_>) -> Result<ReplyPolicy, CodecError> {
    node.object(|f| {
        let kind = f.req("kind")?;
        match kind.str()? {
            "ack" => Ok(ReplyPolicy::Ack),
            "read_reply" => Ok(ReplyPolicy::ReadReply {
                latency: f.req("latency")?.usize()?,
                words: f.req("words")?.usize()?,
            }),
            "conversation" => Ok(ReplyPolicy::Conversation),
            other => kind.err(format!("unknown reply policy {other:?}")),
        }
    })
}

fn enc_endpoint(ep: &EndpointConfig) -> Json {
    Json::obj([
        ("reply", enc_reply(&ep.reply)),
        ("timeout", Json::from(ep.timeout)),
        ("open_timeout", Json::from(ep.open_timeout)),
        ("retry_backoff_max", Json::from(ep.retry_backoff_max)),
        ("max_retries", Json::from(ep.max_retries)),
        ("max_concurrent", Json::from(ep.max_concurrent)),
        // The capture this switched is gone; schema-1/2 documents keep
        // the key, so every committed scenario byte and hash stays.
        ("capture_failure_records", Json::from(false)),
    ])
}

fn dec_endpoint(node: &Node<'_>) -> Result<EndpointConfig, CodecError> {
    node.object(|f| {
        let capture = f.req("capture_failure_records")?;
        if capture.bool()? {
            return capture
                .err("removed: evidence is the one failed-attempt capture; must be false");
        }
        Ok(EndpointConfig {
            reply: dec_reply(&f.req("reply")?)?,
            timeout: f.req("timeout")?.usize()?,
            open_timeout: f.req("open_timeout")?.usize()?,
            retry_backoff_max: f.req("retry_backoff_max")?.usize()?,
            max_retries: f.req("max_retries")?.usize()?,
            max_concurrent: f.req("max_concurrent")?.usize()?,
        })
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

fn dec_sim(node: &Node<'_>) -> Result<SimConfig, CodecError> {
    node.object(|f| {
        Ok(SimConfig {
            width: f.req("width")?.usize()?,
            header_words: f.req("header_words")?.usize()?,
            pipestages: f.req("pipestages")?.usize()?,
            wire_delay: f.req("wire_delay")?.usize()?,
            stage_wire_delays: {
                let delays = f.req("stage_wire_delays")?;
                match delays.json() {
                    Json::Null => None,
                    _ => Some(delays.list(|d| d.usize())?),
                }
            },
            fast_reclaim: f.req("fast_reclaim")?.bool()?,
            selection: f
                .req("selection")?
                .variant("selection policy", |s| match s {
                    "random" => Some(SelectionPolicy::Random),
                    "round_robin" => Some(SelectionPolicy::RoundRobin),
                    "fixed" => Some(SelectionPolicy::Fixed),
                    _ => None,
                })?,
            endpoint: dec_endpoint(&f.req("endpoint")?)?,
            seed: dec_seed(&f.req("seed")?)?,
            // One canonical spelling per kind (`EngineKind::name`);
            // "analytic" decodes like any other — cycle-accuracy is
            // enforced where it matters (NetworkSim construction, chaos
            // campaigns), not here.
            engine: f.req("engine")?.variant("engine", EngineKind::from_name)?,
            // Absent in pre-telemetry scenario files; default matches
            // `SimConfig::default` so old documents keep their meaning.
            telemetry_every: f.opt("telemetry_every").map_or(Ok(1), |n| n.u64())?,
            // Absent in pre-healing scenario files; off is the old
            // behaviour.
            self_heal: f.opt("self_heal").map_or(Ok(false), |n| n.bool())?,
            // Absent in pre-sharding scenario files; 1 is the classic
            // single-threaded tick (and every shard count is
            // bit-identical to it, so this is purely an
            // execution-strategy knob).
            shards: f.opt("shards").map_or(Ok(1), |n| n.usize())?,
        })
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

fn dec_link(f: &mut Fields<'_, '_>) -> Result<LinkId, CodecError> {
    Ok(LinkId::new(
        f.req("stage")?.usize()?,
        f.req("router")?.usize()?,
        f.req("port")?.usize()?,
    ))
}

fn dec_router(node: &Node<'_>) -> Result<(usize, usize), CodecError> {
    match node.list(|n| n.usize())?[..] {
        [stage, router] => Ok((stage, router)),
        _ => node.err("expected a [stage, router] pair"),
    }
}

fn dec_faults(node: &Node<'_>) -> Result<FaultSet, CodecError> {
    node.object(|f| {
        let mut faults = FaultSet::new();
        for (stage, router) in f.req("routers")?.list(|r| dec_router(&r))? {
            faults.kill_router(stage, router);
        }
        let links = f.req("links")?.list(|l| {
            l.object(|f| {
                let link = dec_link(f)?;
                let kind = f.req("kind")?;
                let kind = match kind.str()? {
                    "dead" => FaultKind::Dead,
                    "corrupt" => FaultKind::CorruptData {
                        xor: f.req("xor")?.u16()?,
                    },
                    "intermittent" => FaultKind::Intermittent {
                        xor: f.req("xor")?.u16()?,
                        period: f.req("period")?.u32()?,
                    },
                    other => return kind.err(format!("unknown link fault kind {other:?}")),
                };
                Ok((link, kind))
            })
        })?;
        for (link, kind) in links {
            faults.break_link(link, kind);
        }
        for endpoint in f.req("endpoints")?.list(|e| e.usize())? {
            faults.kill_endpoint(endpoint);
        }
        Ok(faults)
    })
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

fn dec_repairs(node: &Node<'_>) -> Result<RepairSet, CodecError> {
    node.object(|f| {
        Ok(RepairSet {
            links: f.req("links")?.list(|l| l.object(dec_link))?,
            routers: f.req("routers")?.list(|r| dec_router(&r))?,
            endpoints: f.req("endpoints")?.list(|e| e.usize())?,
        })
    })
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

fn dec_pattern(node: &Node<'_>) -> Result<TrafficPattern, CodecError> {
    node.object(|f| {
        let kind = f.req("kind")?;
        match kind.str()? {
            "uniform" => Ok(TrafficPattern::Uniform),
            "hotspot" => Ok(TrafficPattern::Hotspot {
                target: f.req("target")?.usize()?,
                percent: f.req("percent")?.usize()?,
            }),
            "transpose" => Ok(TrafficPattern::Transpose),
            "bit_reversal" => Ok(TrafficPattern::BitReversal),
            "permutation" => Ok(TrafficPattern::Permutation(
                f.req("perm")?.list(|d| d.usize())?,
            )),
            other => kind.err(format!("unknown traffic pattern {other:?}")),
        }
    })
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

fn dec_process(node: &Node<'_>) -> Result<ArrivalProcess, CodecError> {
    node.object(|f| {
        let kind = f.req("kind")?;
        match kind.str()? {
            "bernoulli" => Ok(ArrivalProcess::Bernoulli),
            "on_off" => Ok(ArrivalProcess::OnOff {
                burst_mean: f.req("burst_mean")?.u64()?,
                idle_mean: f.req("idle_mean")?.u64()?,
            }),
            "trace" => Ok(ArrivalProcess::Trace(f.req("entries")?.list(|e| {
                e.object(|f| {
                    Ok(TraceEntry {
                        at: f.req("at")?.u64()?,
                        src: f.req("src")?.usize()?,
                        dest: f.req("dest")?.usize()?,
                        payload_words: f.req("payload_words")?.usize()?,
                    })
                })
            })?)),
            other => kind.err(format!("unknown arrival process {other:?}")),
        }
    })
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

fn dec_load(f: &mut Fields<'_, '_>, schema: u64) -> Result<WorkloadSpec, CodecError> {
    let arrival = f.opt("arrival");
    let rates = f.opt("rates");
    // Schema gate: the workload-subsystem fields only exist from
    // schema 2 — a schema-1 document carrying them is mislabelled, not
    // merely old.
    if schema < 2 {
        for (key, node) in [("arrival", &arrival), ("rates", &rates)] {
            if let Some(node) = node {
                return node.err(format!(
                    "field {key:?} requires scenario schema 2 (document declares {schema})"
                ));
            }
        }
    }
    Ok(WorkloadSpec::Load {
        pattern: dec_pattern(&f.req("pattern")?)?,
        arrival: arrival.map_or(Ok(ArrivalProcess::Bernoulli), |a| dec_process(&a))?,
        rates: match rates {
            Some(r) => RateMap::PerEndpoint(r.list(|v| v.f64())?),
            None => RateMap::Uniform,
        },
        load: f.req("load")?.f64()?,
        payload_words: f.req("payload_words")?.usize()?,
        warmup: f.req("warmup")?.u64()?,
        measure: f.req("measure")?.u64()?,
        drain: f.req("drain")?.u64()?,
    })
}

/// A workload's shape; what it asks of the topology is
/// [`Scenario::lower`]'s to check.
fn dec_workload(node: &Node<'_>, schema: u64) -> Result<WorkloadSpec, CodecError> {
    node.object(|f| {
        let kind = f.req("kind")?;
        match kind.str()? {
            "load" => dec_load(f, schema),
            "sends" => Ok(WorkloadSpec::Sends {
                cycles: f.req("cycles")?.u64()?,
                sends: f.req("sends")?.list(|s| {
                    s.object(|f| {
                        Ok(SendSpec {
                            at: f.req("at")?.u64()?,
                            src: f.req("src")?.usize()?,
                            dest: f.req("dest")?.usize()?,
                            payload: f.req("payload")?.list(|w| w.u16())?,
                        })
                    })
                })?,
            }),
            other => kind.err(format!("unknown workload kind {other:?}")),
        }
    })
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
    decode_node(&Node::root("scenario", "scenario", doc))
}

/// [`decode`] at a cursor position — how a checkpoint reads its
/// embedded scenario under its own paths.
pub(crate) fn decode_node(node: &Node<'_>) -> Result<Scenario, CodecError> {
    node.object(|f| {
        let schema = dec_schema(f, "scenario_schema", 1..=SCENARIO_SCHEMA)?;
        Ok(Scenario {
            name: f.req("name")?.str()?.to_string(),
            topology: dec_topology(&f.req("topology")?)?,
            sim: dec_sim(&f.req("sim")?)?,
            seed: dec_seed(&f.req("seed")?)?,
            faults: dec_faults(&f.req("faults")?)?,
            injections: f.req("injections")?.list(|i| {
                i.object(|f| {
                    Ok(FaultInjection {
                        at: f.req("at")?.u64()?,
                        faults: dec_faults(&f.req("faults")?)?,
                        // Absent in pre-repair scenario files
                        // (back-compat).
                        repairs: f
                            .opt("repairs")
                            .map_or(Ok(RepairSet::default()), |r| dec_repairs(&r))?,
                    })
                })
            })?,
            workload: dec_workload(&f.req("workload")?, schema)?,
        })
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
    hex64(encode(scenario).canonical_hash())
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
            let (got, sim) = crate::checkpoint::run_scenario_resumable(&s, None, None).unwrap();
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
    fn the_removed_failure_record_capture_stays_a_required_false() {
        // The key outlives the capture it switched so that schema-1/2
        // bytes and hashes stay; what it may say does not.
        let with_capture = |value: Option<bool>| {
            let mut doc = encode(&rich_scenario());
            let mut sim = doc.get("sim").unwrap().clone();
            let mut endpoint = sim.get("endpoint").unwrap().clone();
            let Json::Obj(pairs) = &mut endpoint else {
                unreachable!()
            };
            pairs.retain(|(k, _)| k != "capture_failure_records");
            if let Some(v) = value {
                endpoint.set("capture_failure_records", Json::from(v));
            }
            sim.set("endpoint", endpoint);
            doc.set("sim", sim);
            decode(&doc)
        };
        assert_eq!(with_capture(Some(false)).unwrap(), rich_scenario());
        let e = with_capture(Some(true)).unwrap_err();
        assert_eq!(e.path, "scenario.sim.endpoint.capture_failure_records");
        assert!(e.message.contains("removed"), "{e}");
        let e = with_capture(None).unwrap_err();
        assert_eq!(e.path, "scenario.sim.endpoint");
        assert!(e.message.contains("capture_failure_records"), "{e}");
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
    fn malformed_fields_name_their_path() {
        let mut doc = encode(&rich_scenario());
        let mut topo = doc.get("topology").unwrap().clone();
        topo.set("wiring", Json::from("spaghetti"));
        doc.set("topology", topo);
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "scenario.topology.wiring");
    }

    #[test]
    fn an_intermittent_period_beyond_32_bits_is_a_decode_error() {
        // 2^32 + 1 used to be read `as u32`: period 1, a different
        // experiment, without a word.
        let mut doc = encode(&rich_scenario());
        let mut faults = doc.get("faults").unwrap().clone();
        let mut links = faults.get("links").unwrap().as_arr().unwrap().to_vec();
        assert_eq!(links[2].get("kind").unwrap().as_str(), Some("intermittent"));
        links[2].set("period", Json::from(4_294_967_297u64));
        faults.set("links", Json::arr(links));
        doc.set("faults", faults);
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "scenario.faults.links[2].period");
        assert_eq!(e.message, "4294967297 does not fit in 32 bits");
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
