//! A sweep's `results/<artifact>.scenario.json` sidecar is the run, not
//! a description held equal to it: `run_scenario` on each committed
//! sidecar reproduces a committed row of its artifact bit for bit.
//!
//! `fault_sweep`'s sidecar is, by design, none of its rows: the sweep's
//! points seed their arrivals with `StreamSeeds::fault` and kill random
//! routers and links, while the sidecar records the fault-free
//! configuration they share.

use metro_harness::Json;
use metro_sim::experiment::LoadPoint;
use metro_sim::scenario::{codec, run_scenario};
use std::path::Path;

/// A committed results document.
fn committed(file: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The committed rows of `artifact`'s document.
fn rows(artifact: &str) -> Vec<Json> {
    let doc = committed(&format!("{artifact}.json"));
    doc.get("points").and_then(Json::as_arr).unwrap().to_vec()
}

/// The point `run_scenario` measures on `artifact`'s committed sidecar.
fn replay(artifact: &str) -> LoadPoint {
    let sidecar = codec::decode(&committed(&format!("{artifact}.scenario.json"))).unwrap();
    let result = run_scenario(&sidecar).unwrap();
    result.point.expect("a load workload measures a point")
}

#[test]
fn the_fig3_sidecar_is_its_0_40_cell() {
    assert_eq!(replay("fig3").to_json(), rows("fig3")[7]);
}

#[test]
fn the_scaling_sidecar_is_its_64_endpoint_row() {
    let p = replay("scaling");
    let rows = rows("scaling");
    let row = rows
        .iter()
        .find(|r| r.get("endpoints") == Some(&Json::from(64u64)))
        .expect("a 64-endpoint row");
    assert_eq!(p.offered, 0.4);
    assert_eq!(
        row.get("mean_latency_at_0_4"),
        Some(&Json::from(p.mean_latency))
    );
    let retries = Json::from(p.retries_per_message);
    assert_eq!(row.get("retries_per_message_at_0_4"), Some(&retries));
    assert_eq!(row.get("delivered"), Some(&Json::from(p.delivered)));
}

#[test]
fn each_grid_sidecar_is_its_base_variants_row_at_the_sidecar_load() {
    for artifact in [
        "ablation_selection",
        "ablation_reclaim",
        "ablation_dilation",
        "ablation_concurrency",
        "traffic_patterns",
    ] {
        let p = replay(artifact);
        let rows = rows(artifact);
        // Rows are variant-major, and the first variant is the base;
        // a row's first pair is its variant label.
        let label = |r: &Json| match r {
            Json::Obj(pairs) => pairs[0].clone(),
            _ => panic!("{artifact}: a row is an object"),
        };
        let base = label(&rows[0]);
        let row = rows
            .iter()
            .find(|r| label(r) == base && r.get("load") == Some(&Json::from(p.offered)))
            .unwrap_or_else(|| panic!("{artifact}: no base row at load {}", p.offered));
        for (key, value) in [
            ("mean_latency", Json::from(p.mean_latency)),
            ("p95_latency", Json::from(p.p95_latency)),
            ("retries_per_message", Json::from(p.retries_per_message)),
            ("delivered", Json::from(p.delivered)),
        ] {
            assert_eq!(row.get(key), Some(&value), "{artifact}: {key}");
        }
    }
}
