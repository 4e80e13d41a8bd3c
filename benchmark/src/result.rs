//! The result file one run writes, and the summary line it prints last.

use crate::catalogue;
use crate::json::Json;

/// Schema tag written into every result file.
pub const SCHEMA: &str = "mgpu-benchmark/1";

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Measured detail, e.g. the error found against its tolerance.
    pub detail: String,
}

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name (see [`crate::catalogue`]).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Everything one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: u64,
    /// Whether spans were recorded.
    pub trace: bool,
    /// Source revision, or `unknown` outside a git checkout.
    pub commit: String,
    /// Host parallelism.
    pub nproc: usize,
    /// Resolved execution and workload configuration.
    pub config: Vec<(String, String)>,
    /// All checks held and no op failed unexpectedly.
    pub correct: bool,
    /// Ops attempted (failed checks count as attempted ops).
    pub attempted: u64,
    /// Ops failed (failed checks included).
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Every metric computed.
    pub metrics: Vec<Metric>,
    /// Qualifiers, e.g. which percentile `op_ms_tail` is.
    pub notes: Vec<(String, String)>,
    /// Output and simulated-result digests.
    pub digests: Vec<(String, String)>,
}

fn pairs(v: &[(String, String)]) -> Json {
    Json::Obj(
        v.iter()
            .map(|(k, x)| (k.clone(), Json::Str(x.clone())))
            .collect(),
    )
}

fn parse_pairs(j: Option<&Json>, what: &str) -> Result<Vec<(String, String)>, String> {
    let fields = j
        .and_then(Json::as_obj)
        .ok_or(format!("missing `{what}`"))?;
    fields
        .iter()
        .map(|(k, v)| {
            v.as_str()
                .map(|s| (k.clone(), s.to_owned()))
                .ok_or(format!("`{what}.{k}` is not a string"))
        })
        .collect()
}

fn metrics_obj(metrics: &[&Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(m.value)),
                        ("unit".to_owned(), Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

impl RunResult {
    /// The value of metric `name`, if measured.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The note `key`, if any.
    #[must_use]
    pub fn note(&self, key: &str) -> Option<&str> {
        lookup(&self.notes, key)
    }

    /// The digest `key`, if any.
    #[must_use]
    pub fn digest(&self, key: &str) -> Option<&str> {
        lookup(&self.digests, key)
    }

    /// The full result file.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let n = |x: f64| Json::Num(x);
        Json::Obj(vec![
            ("schema".to_owned(), Json::Str(SCHEMA.to_owned())),
            ("workload".to_owned(), Json::Str(self.workload.clone())),
            ("seed".to_owned(), n(self.seed as f64)),
            ("seconds".to_owned(), n(self.seconds as f64)),
            ("trace".to_owned(), Json::Bool(self.trace)),
            ("commit".to_owned(), Json::Str(self.commit.clone())),
            ("nproc".to_owned(), n(self.nproc as f64)),
            ("config".to_owned(), pairs(&self.config)),
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), n(self.attempted as f64)),
            ("failed".to_owned(), n(self.failed as f64)),
            (
                "checks".to_owned(),
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("name".to_owned(), Json::Str(c.name.clone())),
                                ("ok".to_owned(), Json::Bool(c.ok)),
                                ("detail".to_owned(), Json::Str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics".to_owned(),
                metrics_obj(&self.metrics.iter().collect::<Vec<_>>()),
            ),
            ("notes".to_owned(), pairs(&self.notes)),
            ("digests".to_owned(), pairs(&self.digests)),
        ])
    }

    /// Reads a result file back.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<RunResult, String> {
        if j.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a `{SCHEMA}` result"));
        }
        let s = |k: &str| -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or(format!("missing string `{k}`"))
        };
        let u = |k: &str| -> Result<u64, String> {
            j.get(k)
                .and_then(Json::as_f64)
                .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as u64)
                .ok_or(format!("missing whole number `{k}`"))
        };
        let b = |k: &str| -> Result<bool, String> {
            j.get(k)
                .and_then(Json::as_bool)
                .ok_or(format!("missing boolean `{k}`"))
        };
        let checks = j
            .get("checks")
            .and_then(Json::as_arr)
            .ok_or("missing `checks`")?
            .iter()
            .map(|c| {
                Ok(Check {
                    name: c
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("check without name")?
                        .to_owned(),
                    ok: c
                        .get("ok")
                        .and_then(Json::as_bool)
                        .ok_or("check without ok")?,
                    detail: c
                        .get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let metrics = j
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing `metrics`")?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    // Non-finite values are written as null.
                    value: m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or(format!("metric `{name}` without unit"))?
                        .to_owned(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunResult {
            workload: s("workload")?,
            seed: u("seed")?,
            seconds: u("seconds")?,
            trace: b("trace")?,
            commit: s("commit")?,
            nproc: usize::try_from(u("nproc")?).map_err(|e| e.to_string())?,
            config: parse_pairs(j.get("config"), "config")?,
            correct: b("correct")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            checks,
            metrics,
            notes: parse_pairs(j.get("notes"), "notes")?,
            digests: parse_pairs(j.get("digests"), "digests")?,
        })
    }

    /// The line printed last: `correct`, `attempted`, `failed` and the
    /// metrics [`catalogue::reported`] names for this run's trace mode.
    /// A metric the run did not measure is reported as 0.
    #[must_use]
    pub fn summary_line(&self) -> String {
        let owned: Vec<Metric> = catalogue::reported(self.trace)
            .iter()
            .map(|def| Metric {
                name: def.name.clone(),
                value: self.metric(&def.name).unwrap_or(0.0),
                unit: def.unit.clone(),
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(self.correct)),
            ("attempted".to_owned(), Json::Num(self.attempted as f64)),
            ("failed".to_owned(), Json::Num(self.failed as f64)),
            (
                "metrics".to_owned(),
                metrics_obj(&owned.iter().collect::<Vec<_>>()),
            ),
        ])
        .render()
    }
}

fn lookup<'a>(v: &'a [(String, String)], key: &str) -> Option<&'a str> {
    v.iter().find(|(k, _)| k == key).map(|(_, x)| x.as_str())
}
