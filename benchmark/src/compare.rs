//! `--compare <a> <b>`: per-workload deltas of every metric between two
//! sets of runs, judged against the spread of the first set's runs.

use std::collections::BTreeMap;
use std::path::Path;

use crate::catalogue::{self, Better};
use crate::json::Json;
use crate::result::RunResult;
use crate::stats::{iqr_share, median};

/// Loads every result in `path`: a result file, or a directory of result
/// files (`*.json`, spans files skipped).
///
/// # Errors
///
/// An I/O or parse message naming the file.
pub fn load(path: &Path) -> Result<Vec<RunResult>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let p = entry.map_err(|e| e.to_string())?.path();
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if name.ends_with(".json") && !name.ends_with(".spans.json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut out = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let result = Json::parse(&text).and_then(|j| RunResult::from_json(&j));
        out.push(result.map_err(|e| format!("{}: {e}", f.display()))?);
    }
    Ok(out)
}

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than `a` by more than `a`'s own spread.
    Improved,
    /// Worse than `a` by more than the bound (end-to-end) or the spread
    /// (per-layer).
    Regressed,
    /// Within the bound and `a`'s spread.
    Unchanged,
    /// `a`'s spread exceeds the bound (or `a` has one run), so no change
    /// the size of the bound can be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b`'s runs against `a`'s for a metric with direction `better`
/// and, for end-to-end metrics, a `bound`. Returns the verdict, the
/// signed relative delta of the medians (positive = larger) and `a`'s
/// quartile spread.
#[must_use]
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: Option<f64>,
) -> (Verdict, Option<f64>, Option<f64>) {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return (Verdict::Unresolved, None, None);
    };
    let delta = if ma == 0.0 {
        if mb == 0.0 {
            Some(0.0)
        } else {
            None
        }
    } else {
        Some(mb / ma - 1.0)
    };
    let spread = iqr_share(a).or(if a.iter().all(|&x| x == ma) && a.len() > 1 {
        Some(0.0)
    } else {
        None
    });
    // Improvement measured in the metric's good direction.
    let gain = delta.map(|d| match better {
        Better::Lower => -d,
        Better::Higher => d,
    });
    let all_better = |x: &f64, y: &f64| match better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let every_b_better = b.iter().all(|y| a.iter().all(|x| all_better(x, y)));
    let every_b_worse = b.iter().all(|y| a.iter().all(|x| all_better(y, x)));
    let verdict = match (gain, spread) {
        (None, _) => Verdict::Unresolved,
        (Some(_), None) => Verdict::Unresolved,
        (Some(g), Some(s)) => {
            let limit = bound.unwrap_or(s);
            if s > limit {
                if every_b_better {
                    Verdict::Improved
                } else if every_b_worse {
                    Verdict::Regressed
                } else {
                    Verdict::Unresolved
                }
            } else if g > s && g > 0.0 {
                Verdict::Improved
            } else if -g > limit {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            }
        }
    };
    (verdict, delta, spread)
}

/// Whether every run of `a` and `b` took its tail at the same
/// percentile; medians of different percentiles cannot be compared.
fn one_tail_percentile(a: &[RunResult], b: &[RunResult]) -> bool {
    let mut seen = a.iter().chain(b).map(|r| r.note("op_ms_tail.percentile"));
    let Some(first) = seen.next() else {
        return true;
    };
    seen.all(|p| p == first)
}

fn fmt_share(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_owned(), |v| format!("{:+.1}%", v * 100.0))
}

/// Renders the comparison table of `a` against `b`; the second value is
/// how many end-to-end metrics regressed.
#[must_use]
pub fn report(a: &[RunResult], b: &[RunResult]) -> (String, usize) {
    type Key = (String, bool);
    let group = |runs: &[RunResult]| {
        let mut g: BTreeMap<Key, Vec<RunResult>> = BTreeMap::new();
        for r in runs {
            g.entry((r.workload.clone(), r.trace))
                .or_default()
                .push(r.clone());
        }
        g
    };
    let (ga, gb) = (group(a), group(b));
    let mut out = String::new();
    let mut regressions = 0;
    for ((workload, trace), runs_a) in &ga {
        let Some(runs_b) = gb.get(&(workload.clone(), *trace)) else {
            continue;
        };
        out.push_str(&format!(
            "== {workload} ({}; a: {} runs, b: {} runs)\n",
            if *trace { "traced" } else { "untraced" },
            runs_a.len(),
            runs_b.len()
        ));
        out.push_str(&format!(
            "  {:<32} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict\n",
            "metric", "median a", "median b", "delta", "spread a", "bound"
        ));
        for name in runs_a[0].metrics.iter().map(|m| m.name.as_str()) {
            let Some(def) = catalogue::find(name) else {
                continue;
            };
            let va: Vec<f64> = runs_a.iter().filter_map(|r| r.metric(name)).collect();
            let vb: Vec<f64> = runs_b.iter().filter_map(|r| r.metric(name)).collect();
            let (mut verdict, delta, spread) = judge(&va, &vb, def.better, def.bound);
            if name.ends_with("_tail") && !one_tail_percentile(runs_a, runs_b) {
                verdict = Verdict::Unresolved;
            }
            if verdict == Verdict::Regressed && def.bound.is_some() {
                regressions += 1;
            }
            out.push_str(&format!(
                "  {:<32} {:>14.6} {:>14.6} {:>9} {:>9} {:>7}  {}\n",
                format!("{name} [{}]", def.unit),
                median(&va).unwrap_or(f64::NAN),
                median(&vb).unwrap_or(f64::NAN),
                fmt_share(delta),
                spread.map_or_else(|| "-".to_owned(), |s| format!("{:.1}%", s * 100.0)),
                def.bound
                    .map_or_else(|| "-".to_owned(), |x| format!("{:.0}%", x * 100.0)),
                verdict.as_str()
            ));
        }
    }
    (out, regressions)
}
