//! Schema-versioned, byte-stable telemetry snapshots.
//!
//! A [`TelemetrySnapshot`] freezes one simulation's telemetry — per
//! (stage, router) counter cells since the last reset and a latency
//! summary — into a value with a canonical JSON form on the harness
//! [`Json`] model. The codec follows the scenario codec's
//! rules (and reads through the same [`metro_harness::document`]
//! cursor): `telemetry_schema` is checked before any field parsing,
//! unknown fields are rejected at every object level with dotted
//! paths, and encode∘decode∘encode is the identity on bytes (the
//! `.telemetry.json` sidecar contract).

#![deny(clippy::cast_possible_truncation)]

use crate::counters::{CounterBlock, CounterCell};
use crate::histogram::HistogramSummary;
use crate::metric::RouterCounter;
use crate::registry::TelemetryRegistry;
use metro_harness::document::{hex64, DecodeError, Node};
use metro_harness::Json;

/// Telemetry schema version written into (and required of) every
/// document.
pub const TELEMETRY_SCHEMA: u64 = 2;

/// A telemetry decode failure: where in the document (paths start at
/// the top-level key, e.g. `"latency.p50"`) and what went wrong.
pub type SnapshotError = DecodeError;

/// A frozen view of one simulation's telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// The run this snapshot describes (artifact or scenario name).
    pub name: String,
    /// Engine that produced it (`"flat"` or `"reference"`).
    pub engine: String,
    /// Simulated cycles covered.
    pub cycles: u64,
    /// Telemetry sync interval in cycles.
    pub interval: u64,
    /// Per (stage, router) counters, in [`RouterCounter::ALL`] slot
    /// order inside each cell.
    pub counters: CounterBlock,
    /// Total-latency distribution summary.
    pub latency: HistogramSummary,
}

impl TelemetrySnapshot {
    /// Freezes a registry, read against the live router `cells` (slot
    /// order), plus a latency summary into a snapshot.
    #[must_use]
    pub fn from_registry<'a>(
        name: &str,
        engine: &str,
        cycles: u64,
        registry: &TelemetryRegistry,
        cells: impl IntoIterator<Item = &'a CounterCell>,
        latency: HistogramSummary,
    ) -> Self {
        TelemetrySnapshot {
            name: name.to_string(),
            engine: engine.to_string(),
            cycles,
            interval: registry.interval(),
            counters: registry.counters(cells),
            latency,
        }
    }

    /// The canonical JSON document — [`encode`] as a method.
    #[must_use]
    pub fn to_json(&self) -> Json {
        encode(self)
    }

    /// Decodes a document — [`decode`] as a constructor.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on schema mismatch, unknown or missing
    /// fields, or malformed values.
    pub fn from_json(doc: &Json) -> Result<Self, SnapshotError> {
        decode(doc)
    }
}

fn enc_latency(l: &HistogramSummary) -> Json {
    Json::obj([
        ("count", Json::from(l.count)),
        ("mean", Json::from(l.mean)),
        ("min", Json::from(l.min)),
        ("max", Json::from(l.max)),
        ("p50", Json::from(l.p50)),
        ("p95", Json::from(l.p95)),
        ("p99", Json::from(l.p99)),
    ])
}

fn dec_latency(node: &Node<'_>) -> Result<HistogramSummary, SnapshotError> {
    node.object(|f| {
        Ok(HistogramSummary {
            count: f.req("count")?.u64()?,
            mean: f.req("mean")?.f64()?,
            min: f.req("min")?.u64()?,
            max: f.req("max")?.u64()?,
            p50: f.req("p50")?.u64()?,
            p95: f.req("p95")?.u64()?,
            p99: f.req("p99")?.u64()?,
        })
    })
}

/// Encodes a snapshot to its canonical JSON document. Counter cells are
/// arrays in [`RouterCounter::ALL`] slot order; the `counters` field is
/// stage-major, router-minor.
#[must_use]
pub fn encode(s: &TelemetrySnapshot) -> Json {
    Json::obj([
        ("telemetry_schema", Json::from(TELEMETRY_SCHEMA)),
        ("name", Json::from(s.name.as_str())),
        ("engine", Json::from(s.engine.as_str())),
        ("cycles", Json::from(s.cycles)),
        ("interval", Json::from(s.interval)),
        (
            "counter_names",
            Json::arr(RouterCounter::ALL.into_iter().map(|c| Json::from(c.name()))),
        ),
        (
            "counters",
            Json::arr((0..s.counters.stages()).map(|st| {
                Json::arr((0..s.counters.routers_in_stage(st)).map(|r| {
                    Json::arr(
                        s.counters
                            .cell(st, r)
                            .counts()
                            .iter()
                            .map(|&v| Json::from(v)),
                    )
                }))
            })),
        ),
        ("latency", enc_latency(&s.latency)),
    ])
}

/// Decodes a canonical snapshot document.
///
/// # Errors
///
/// Returns a [`SnapshotError`] naming the offending field on schema
/// mismatch, unknown or missing fields, or type errors.
pub fn decode(doc: &Json) -> Result<TelemetrySnapshot, SnapshotError> {
    Node::root("telemetry", "", doc).object(|f| {
        // Schema first: reject foreign documents before parsing fields.
        let version = f.req("telemetry_schema")?;
        let schema = version.u64()?;
        if schema != TELEMETRY_SCHEMA {
            return version.err(format!(
                "unsupported schema {schema} (this build reads {TELEMETRY_SCHEMA})"
            ));
        }
        let name = f.req("name")?.str()?.to_string();
        let engine = f.req("engine")?.str()?.to_string();
        let cycles = f.req("cycles")?.u64()?;
        let interval = f.req("interval")?.u64()?;

        // The counter-name vector is self-describing redundancy: it
        // must match this build's slot order exactly.
        let names = f.req("counter_names")?;
        let mut expected = RouterCounter::ALL.into_iter();
        let named = names.list(|n| match expected.next() {
            Some(c) if n.str()? != c.name() => n.err(format!("expected {:?}", c.name())),
            _ => Ok(()),
        })?;
        if named.len() != RouterCounter::COUNT {
            return names.err("wrong number of counters");
        }

        let cells = f.req("counters")?.list(|stage| {
            stage.list(|cell| {
                let vals = cell.list(|v| v.u64())?;
                if vals.len() != RouterCounter::COUNT {
                    return cell.err(format!("expected {} counters", RouterCounter::COUNT));
                }
                let mut counts = CounterCell::new();
                for (c, v) in RouterCounter::ALL.into_iter().zip(vals) {
                    counts.add(c, v);
                }
                Ok(counts)
            })
        })?;
        let per_stage: Vec<usize> = cells.iter().map(Vec::len).collect();
        let mut counters = CounterBlock::new(&per_stage);
        for (st, stage) in cells.into_iter().enumerate() {
            for (r, cell) in stage.into_iter().enumerate() {
                *counters.cell_mut(st, r) = cell;
            }
        }

        Ok(TelemetrySnapshot {
            name,
            engine,
            cycles,
            interval,
            counters,
            latency: dec_latency(&f.req("latency")?)?,
        })
    })
}

/// Parses snapshot text (a `.telemetry.json` sidecar) and decodes it.
///
/// # Errors
///
/// Returns a [`SnapshotError`] for both parse and decode failures.
pub fn from_text(text: &str) -> Result<TelemetrySnapshot, SnapshotError> {
    let doc = Json::parse(text).map_err(|e| SnapshotError {
        kind: "telemetry",
        path: String::new(),
        message: format!("invalid JSON: {e}"),
    })?;
    decode(&doc)
}

/// The canonical content hash recorded in `manifest.json`:
/// `0x`-prefixed FNV-1a over the compact rendering of the canonical
/// encoding.
#[must_use]
pub fn telemetry_hash(s: &TelemetrySnapshot) -> String {
    hex64(encode(s).canonical_hash())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TelemetryRegistry;

    fn sample_snapshot() -> TelemetrySnapshot {
        let reg = TelemetryRegistry::new(&[2, 1], 8);
        let mut raw = CounterCell::new();
        raw.add(RouterCounter::Opens, 9);
        raw.add(RouterCounter::Grants, 7);
        raw.add(RouterCounter::Blocks, 2);
        raw.add(RouterCounter::WordsForwarded, 140);
        let mut turned = raw;
        turned.add(RouterCounter::Turns, 3);
        let live = [raw, turned, CounterCell::new()];
        let latency = HistogramSummary {
            count: 12,
            mean: 55.25,
            min: 30,
            max: 101,
            p50: 52,
            p95: 98,
            p99: 101,
        };
        TelemetrySnapshot::from_registry("unit", "flat", 4096, &reg, &live, latency)
    }

    #[test]
    fn snapshot_round_trips_byte_stably() {
        let s = sample_snapshot();
        let doc = encode(&s);
        let text = doc.render();
        let decoded = from_text(&text).expect("canonical text decodes");
        assert_eq!(decoded, s, "value round-trip");
        assert_eq!(
            encode(&decoded).render(),
            text,
            "encode∘decode∘encode must be the byte identity"
        );
        // And through the compact form used for hashing.
        assert_eq!(encode(&decoded).render_compact(), doc.render_compact());
    }

    #[test]
    fn wrong_schema_is_rejected_before_field_parsing() {
        let mut doc = encode(&sample_snapshot());
        doc.set("telemetry_schema", Json::from(1u64));
        // Also plant an unknown field: the schema error must win.
        doc.set("future_field", Json::from(1u64));
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "telemetry_schema");
        assert!(e.message.contains("unsupported schema 1"));
    }

    #[test]
    fn unknown_fields_are_rejected_with_paths() {
        let mut doc = encode(&sample_snapshot());
        doc.set("surprise", Json::from(true));
        let e = decode(&doc).unwrap_err();
        assert!(e.message.contains("surprise"));

        let mut doc = encode(&sample_snapshot());
        let mut latency = doc.get("latency").expect("latency").clone();
        latency.set("extra", Json::from(1u64));
        doc.set("latency", latency);
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "latency");
        assert!(e.message.contains("extra"));
    }

    #[test]
    fn counter_name_drift_is_rejected() {
        let mut doc = encode(&sample_snapshot());
        doc.set(
            "counter_names",
            Json::arr(
                [
                    "opens",
                    "grants",
                    "blocks",
                    "fast_reclaims",
                    "turns",
                    "drops",
                    "words_forwarded",
                    "checksum_mismatches",
                    "masks_applied",
                    "renamed",
                ]
                .into_iter()
                .map(Json::from),
            ),
        );
        let e = decode(&doc).unwrap_err();
        assert_eq!(e.path, "counter_names[9]");
    }

    #[test]
    fn hash_is_stable_and_discriminating() {
        let s = sample_snapshot();
        let h = telemetry_hash(&s);
        assert!(h.starts_with("0x") && h.len() == 18);
        assert_eq!(h, telemetry_hash(&s));
        let mut other = s.clone();
        other.cycles += 1;
        assert_ne!(h, telemetry_hash(&other));
    }
}
