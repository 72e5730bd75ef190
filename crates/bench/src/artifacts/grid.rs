//! The one runner of the variant-by-load artifacts (`ablation_selection`,
//! `ablation_reclaim`, `ablation_dilation`, `ablation_concurrency`,
//! `traffic_patterns`). Each of them names its variants, loads and
//! closing reading; this module runs the cells and is the only writer of
//! their report table, JSON rows, document, `.scenario.json` sidecar and
//! manifest `params`.

use metro_harness::{par_map, ArtifactOutput, Json};
use metro_sim::experiment::{run_fault_point, run_load_point, SweepConfig};
use metro_topo::multibutterfly::MultibutterflySpec;
use std::fmt::Write as _;
use std::num::NonZeroUsize;

/// The offered load of every fault point.
const FAULT_LOAD: f64 = 0.3;

/// A fault point: `routers` routers and `links` links killed at
/// [`FAULT_LOAD`], measured once per variant after its loads.
pub(crate) struct Fault {
    pub(crate) routers: usize,
    pub(crate) links: usize,
    /// The row's second field, after `dead_routers`.
    pub(crate) field: FaultField,
}

/// What a fault row records beside its router count.
pub(crate) enum FaultField {
    /// `"dead_links"`: the link count.
    DeadLinks,
    /// `"load"`: [`FAULT_LOAD`].
    Load,
}

/// A variant-by-load artifact, as data.
pub(crate) struct Grid {
    /// Artifact name (the document's `artifact`, the sidecar's name).
    pub(crate) name: &'static str,
    /// The report's heading.
    pub(crate) title: &'static str,
    /// The row key naming a variant (`"policy"`, `"mode"`, …).
    pub(crate) key: &'static str,
    /// The sweep every variant derives from; the sidecar describes it.
    pub(crate) base: SweepConfig,
    /// Each variant's label (its rows' `key` value) and configuration.
    pub(crate) variants: Vec<(Json, SweepConfig)>,
    /// Offered loads, measured for every variant.
    pub(crate) loads: &'static [f64],
    /// The fault point, if the artifact measures one.
    pub(crate) fault: Option<Fault>,
    /// The offered load of the `.scenario.json` sidecar.
    pub(crate) sidecar_load: f64,
    /// The report's closing text.
    pub(crate) reading: &'static str,
}

/// A variant of `base`: `label` and the configuration `edit` leaves.
pub(crate) fn vary(
    base: &SweepConfig,
    label: impl Into<Json>,
    edit: impl FnOnce(&mut SweepConfig),
) -> (Json, SweepConfig) {
    let mut cfg = base.clone();
    edit(&mut cfg);
    (label.into(), cfg)
}

/// What one cell of a variant measures.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Load(f64),
    Fault(&'a Fault),
}

/// Measures one cell: its JSON row and its report line after the label.
fn measure(key: &str, label: &Json, cfg: &SweepConfig, cell: Cell<'_>) -> (Json, String) {
    let label = (key, label.clone());
    match cell {
        Cell::Load(load) => {
            let p = run_load_point(cfg, load);
            let row = Json::obj([
                label,
                ("load", Json::from(load)),
                ("mean_latency", Json::from(p.mean_latency)),
                ("p95_latency", Json::from(p.p95_latency)),
                ("retries_per_message", Json::from(p.retries_per_message)),
                ("delivered", Json::from(p.delivered)),
            ]);
            let line = columns(load, p.mean_latency, p.p95_latency, p.retries_per_message);
            (row, format!("{line} {:>10}", p.delivered))
        }
        Cell::Fault(f) => {
            let p = run_fault_point(cfg, FAULT_LOAD, f.routers, f.links);
            let second = match f.field {
                FaultField::DeadLinks => ("dead_links", Json::from(f.links)),
                FaultField::Load => ("load", Json::from(FAULT_LOAD)),
            };
            let row = Json::obj([
                label,
                ("dead_routers", Json::from(f.routers)),
                second,
                ("mean_latency", Json::from(p.mean_latency)),
                ("retries_per_message", Json::from(p.retries_per_message)),
                ("delivered", Json::from(p.delivered)),
                ("abandoned", Json::from(p.abandoned)),
            ]);
            let line = columns(
                FAULT_LOAD,
                p.mean_latency,
                p.p95_latency,
                p.retries_per_message,
            );
            let (delivered, lost) = (p.delivered, p.abandoned);
            let (routers, links) = (f.routers, f.links);
            let note = format!("({routers} dead routers, {links} dead links)");
            (row, format!("{line} {delivered:>10} {lost:>6}  {note}"))
        }
    }
}

/// The report columns from `load` to `retries/msg`.
fn columns(load: f64, mean: f64, p95: u64, retries: f64) -> String {
    format!("{load:>6.1} {mean:>11.1} {p95:>8} {retries:>12.3}")
}

impl Grid {
    /// Runs every cell on up to `jobs` workers — variant-major, each
    /// variant's loads then its fault point, each under the sweep's own
    /// seed (common randomness: the comparison is paired). A cell is a
    /// pure function of its configuration, so the worker split cannot
    /// change a result.
    pub(crate) fn run(&self, jobs: NonZeroUsize) -> ArtifactOutput {
        let cells: Vec<(usize, Cell<'_>)> = (0..self.variants.len())
            .flat_map(|v| {
                let loads = self.loads.iter().map(move |&l| (v, Cell::Load(l)));
                loads.chain(self.fault.as_ref().map(|f| (v, Cell::Fault(f))))
            })
            .collect();
        let measured = par_map(jobs, &cells, |_, &(v, cell)| {
            let (label, cfg) = &self.variants[v];
            measure(self.key, label, cfg, cell)
        });

        // A label's report text: a string as itself, a number rendered.
        let labels: Vec<String> = self
            .variants
            .iter()
            .map(|(l, _)| {
                l.as_str()
                    .map_or_else(|| l.render_compact(), str::to_string)
            })
            .collect();
        let width = labels
            .iter()
            .map(String::len)
            .fold(self.key.len(), usize::max);
        let mut out = format!("=== {} ===\n\n", self.title);
        let mut header = format!(
            "{:<width$} {:>6} {:>11} {:>8} {:>12} {:>10}",
            self.key, "load", "mean(cyc)", "p95", "retries/msg", "delivered"
        );
        if self.fault.is_some() {
            header.push_str(&format!(" {:>6}", "lost"));
        }
        let _ = writeln!(out, "{header}\n{}", "-".repeat(header.len()));
        let mut rows = Vec::with_capacity(cells.len());
        for (&(v, _), (row, line)) in cells.iter().zip(measured) {
            let _ = writeln!(out, "{:<width$} {line}", labels[v]);
            rows.push(row);
        }
        let _ = writeln!(out, "\n{}", self.reading);

        let base = &self.base;
        let points = rows.len();
        let mut doc = vec![("artifact", Json::from(self.name))];
        let figure3 = MultibutterflySpec::figure3();
        if self.variants.iter().all(|(_, cfg)| cfg.spec == figure3) {
            doc.push(("topology", Json::from("figure3")));
        }
        doc.extend([
            ("measured_cycles", Json::from(base.measure)),
            ("seed", Json::from(base.seed)),
            ("points", Json::Arr(rows)),
        ]);
        ArtifactOutput {
            human: out,
            json: Json::obj(doc),
            points,
            params: Json::obj([("measure", Json::from(base.measure))]),
            scenario: Some(crate::scenarios::emit(
                &base.load_scenario(self.name, self.sidecar_load),
            )),
            telemetry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metro_sim::scenario::codec;

    /// A 2 variants × 2 loads + fault grid on short windows; the second
    /// variant runs on `spec`.
    fn grid(spec: MultibutterflySpec, field: FaultField) -> Grid {
        let base = SweepConfig {
            warmup: 100,
            measure: 300,
            drain: 200,
            ..SweepConfig::figure3()
        };
        Grid {
            name: "grid_test",
            title: "a test grid",
            key: "variant",
            variants: vec![
                vary(&base, "paper", |_| {}),
                vary(&base, 2usize, |c| c.spec = spec),
            ],
            loads: &[0.1, 0.3],
            fault: Some(Fault {
                routers: 1,
                links: 2,
                field,
            }),
            sidecar_load: 0.3,
            reading: "reading",
            base,
        }
    }

    fn keys(row: &Json) -> Vec<&str> {
        let Json::Obj(pairs) = row else {
            panic!("a row is an object")
        };
        pairs.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn rows_are_variant_major_with_the_fault_row_last() {
        let jobs = NonZeroUsize::new(2).unwrap();
        for (spec, field, second, topology) in [
            (
                MultibutterflySpec::figure3(),
                FaultField::DeadLinks,
                "dead_links",
                Some("figure3"),
            ),
            (
                MultibutterflySpec::figure1(),
                FaultField::Load,
                "load",
                None,
            ),
        ] {
            let g = grid(spec, field);
            let out = g.run(jobs);
            let rows = out.json.get("points").and_then(Json::as_arr).unwrap();
            assert_eq!(rows.len(), 6);
            assert_eq!(out.points, rows.len());
            for (i, row) in rows.iter().enumerate() {
                let variant = if i < 3 {
                    Json::from("paper")
                } else {
                    Json::from(2usize)
                };
                assert_eq!(row.get("variant"), Some(&variant), "row {i}");
                if i % 3 == 2 {
                    assert_eq!(keys(row)[1..3], ["dead_routers", second], "row {i}");
                    assert!(row.get("abandoned").is_some(), "row {i}");
                } else {
                    let load = [0.1, 0.3][i % 3];
                    assert_eq!(row.get("load").and_then(Json::as_f64), Some(load));
                }
            }
            assert_eq!(out.json.get("topology").and_then(Json::as_str), topology);
            let sidecar = codec::encode(&g.base.load_scenario("grid_test", 0.3));
            assert_eq!(out.scenario, Some(sidecar));
            assert_eq!(out.params, Json::obj([("measure", Json::from(300u64))]));
        }
    }
}
