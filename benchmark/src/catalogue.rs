//! Every metric the benchmark reports, with its unit, direction and —
//! for end-to-end metrics — the bound by which it may worsen before a
//! change counts as a regression. The table is `BENCHMARK.json` at the
//! repository root, compiled in and parsed on first use.

use std::sync::OnceLock;

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One metric's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The four of the nine user-facing metrics that carry no wall-clock
/// bound: simulated time, the failure share and the output error are
/// deterministic or zero on a healthy run. `BENCHMARK.json` lists them
/// first among the per-layer metrics; every run's table prints them.
pub const EXACT: [&str; 4] = [
    "sim_op_ms_p50",
    "sim_op_ms_tail",
    "fail_rate",
    "max_abs_err",
];

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Table {
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let parsed = Json::parse(BENCHMARK_JSON).and_then(|j| {
            Ok(Table {
                end_to_end: metric_list(&j, "end_to_end")?,
                per_layer: metric_list(&j, "per_layer")?,
            })
        });
        parsed.unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

fn metric_list(j: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let list = j
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("a `{key}` metric has no `{k}`"))
            };
            let better = match field("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("`better` is `{other}`")),
            };
            Ok(MetricDef {
                name: field("name")?,
                unit: field("unit")?,
                better,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Host wall-clock metrics a user sees, printed with `--trace 0`.
#[must_use]
pub fn end_to_end() -> &'static [MetricDef] {
    &table().end_to_end
}

/// [`EXACT`] then the per-layer metrics, printed with `--trace 1`.
#[must_use]
pub fn per_layer() -> &'static [MetricDef] {
    &table().per_layer
}

/// The metrics the last output line carries for a run's trace mode.
#[must_use]
pub fn reported(trace: bool) -> &'static [MetricDef] {
    if trace {
        per_layer()
    } else {
        end_to_end()
    }
}

/// Looks a metric up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    end_to_end()
        .iter()
        .chain(per_layer())
        .find(|m| m.name == name)
}
