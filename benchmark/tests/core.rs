//! Tests of the benchmark's own machinery: the tail rule, self time from
//! nested spans, failure counting, the result-file schema, `--compare`'s
//! verdicts, and the metric table read from `BENCHMARK.json`.

use mgpu_benchmark::catalogue::{self, Better};
use mgpu_benchmark::compare::{judge, report, Verdict};
use mgpu_benchmark::json::Json;
use mgpu_benchmark::outcome::{matches, Expect, FailTally, Observed};
use mgpu_benchmark::result::{Check, Metric, RunResult};
use mgpu_benchmark::stats::{
    iqr_share, median, median_round_percentile, percentile, quartiles, samples_beyond,
    tail_percentile,
};
use mgpu_benchmark::trace::{coverage, self_times, totals, Span, Tracer};

// ---- tail percentile -------------------------------------------------------

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(1000), 99);
    assert_eq!(tail_percentile(999), 95);
    assert_eq!(tail_percentile(200), 95);
    assert_eq!(tail_percentile(199), 90);
    assert_eq!(tail_percentile(100), 90);
    assert_eq!(tail_percentile(99), 75);
    assert_eq!(tail_percentile(40), 75);
    assert_eq!(tail_percentile(39), 50);
    assert_eq!(tail_percentile(20), 50);
}

#[test]
fn tail_falls_back_to_the_median_when_nothing_has_ten_beyond() {
    assert_eq!(tail_percentile(5), 50);
    assert_eq!(tail_percentile(0), 50);
}

#[test]
fn the_chosen_tail_really_has_ten_samples_beyond() {
    for n in 20..3000 {
        let p = tail_percentile(n);
        assert!(samples_beyond(n, p) >= 10, "n={n} p{p}");
    }
}

#[test]
fn round_tail_is_the_median_of_per_round_tails() {
    // Three rounds of 100; the slow 10% of the second round is slower.
    let mut v = Vec::new();
    for slow in [50.0, 500.0, 60.0] {
        v.extend((0..90).map(|_| 1.0));
        v.extend((0..10).map(|_| slow));
    }
    v.extend([1e9; 40]); // a partial fourth round is left out
    assert_eq!(median_round_percentile(&v, 100, 95), Some(60.0));
    assert_eq!(median_round_percentile(&v[..99], 100, 95), None);
}

#[test]
fn nearest_rank_percentile() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 90), Some(90.0));
    assert_eq!(percentile(&v, 99), Some(99.0));
    assert_eq!(percentile(&v, 50), Some(50.0));
    assert_eq!(percentile(&[7.0], 99), Some(7.0));
    assert_eq!(percentile(&[], 50), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    let spread = iqr_share(&v).expect("ten values");
    assert!((spread - 5.5 / 5.5).abs() < 1e-12);
}

// ---- spans and self time ---------------------------------------------------

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 1,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("op", 0, 100, None),
        span("gles.draw", 10, 40, Some(0)),
        span("gles.draw", 30, 60, Some(0)), // overlaps its sibling
        span("gles.upload", 70, 80, Some(0)),
        span("inner", 12, 20, Some(1)),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs, vec![100 - 60, 30 - 8, 30, 10, 8]);
    let t = totals(&spans);
    assert_eq!(t["gles.draw"].calls, 2);
    assert_eq!(t["gles.draw"].total_ns, 60);
    assert_eq!(t["gles.draw"].self_ns, 52);
    assert!((coverage(&spans, "op") - 0.6).abs() < 1e-12);
}

#[test]
fn self_time_clips_children_to_the_parent() {
    let spans = vec![span("op", 10, 20, None), span("late", 15, 30, Some(0))];
    assert_eq!(self_times(&spans), vec![5, 15]);
}

#[test]
fn tracer_nests_spans_and_stamps_the_op() {
    let mut tr = Tracer::new(true);
    tr.set_op(7);
    let outer = tr.enter("op");
    let inner = tr.enter("gles.draw");
    tr.exit(inner);
    tr.span("gles.upload", || ());
    tr.exit(outer);
    let s = tr.spans();
    assert_eq!(s.len(), 3);
    assert_eq!(s[0].parent, None);
    assert_eq!(s[1].parent, Some(0));
    assert_eq!(s[2].parent, Some(0));
    assert!(s.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
    assert!(s[0].end_ns >= s[2].end_ns);
}

#[test]
fn a_disabled_tracer_records_nothing() {
    let mut tr = Tracer::new(false);
    let id = tr.enter("op");
    let v = tr.span("gles.draw", || 5);
    tr.exit(id);
    assert_eq!(v, 5);
    assert!(tr.spans().is_empty());
}

// ---- failure counting ------------------------------------------------------

#[test]
fn an_expected_typed_error_counts_as_success() {
    assert!(matches(Expect::ShaderLimit, Observed::ShaderLimit));
    assert!(matches(Expect::Success, Observed::Success));
}

#[test]
fn unexpected_outcomes_count_as_failures() {
    assert!(!matches(Expect::ShaderLimit, Observed::Success));
    assert!(!matches(Expect::ShaderLimit, Observed::OtherError));
    assert!(!matches(Expect::Success, Observed::ShaderLimit));
    assert!(!matches(Expect::Success, Observed::OtherError));
}

#[test]
fn fail_rate_counts_failed_ops_and_checks() {
    let mut t = FailTally::default();
    assert_eq!(t.rate(), 0.0);
    for _ in 0..6 {
        t.record(Expect::Success, Observed::Success);
    }
    t.record(Expect::ShaderLimit, Observed::ShaderLimit);
    t.record(Expect::ShaderLimit, Observed::OtherError);
    t.record(Expect::Success, Observed::ShaderLimit);
    t.record_failed_check();
    assert_eq!(t.attempted, 10);
    assert_eq!(t.failed, 3);
    assert!((t.rate() - 0.3).abs() < 1e-12);
}

#[test]
fn fleet_fail_rate_does_not_depend_on_the_epoch_count() {
    // Each epoch submits 2048 jobs, and the fleet fails 37 of them.
    let tally = |epochs: usize| {
        let mut t = FailTally::default();
        for _ in 0..epochs {
            for _ in 0..2048 {
                t.record(Expect::Success, Observed::Success);
            }
            t.record_job_failures(37);
        }
        t
    };
    let (two, five) = (tally(2), tally(5));
    assert_eq!(two.rate(), 37.0 / 2048.0);
    assert_eq!(five.rate(), two.rate());
    // Job failures belong to the faulted regime: they fail no op.
    assert_eq!(five.failed, 0);
}

// ---- result schema ---------------------------------------------------------

fn sample_result(trace: bool) -> RunResult {
    RunResult {
        workload: "sgemm_shade".to_owned(),
        seed: 42,
        seconds: 10,
        trace,
        commit: "0123abcd".to_owned(),
        nproc: 2,
        config: vec![("exec.engine".to_owned(), "Compiled".to_owned())],
        correct: true,
        attempted: 57,
        failed: 0,
        checks: vec![Check {
            name: "sgemm matches \"ref\"".to_owned(),
            ok: true,
            detail: "max 5.3e-5 <= 1.3e-2\n".to_owned(),
        }],
        metrics: vec![
            Metric {
                name: "setup_s".to_owned(),
                value: 0.184_874_095,
                unit: "s".to_owned(),
            },
            Metric {
                name: "op_ms_p50".to_owned(),
                value: 175.057_563,
                unit: "ms".to_owned(),
            },
            Metric {
                name: "max_abs_err".to_owned(),
                value: 5.340_576_171_875e-5,
                unit: "value".to_owned(),
            },
        ],
        notes: vec![("op_ms_tail.percentile".to_owned(), "p75".to_owned())],
        digests: vec![("output".to_owned(), "a0fa11036d51bd35".to_owned())],
    }
}

#[test]
fn result_file_round_trips() {
    let r = sample_result(true);
    let text = r.to_json().render();
    let back = RunResult::from_json(&Json::parse(&text).expect("valid JSON")).expect("schema");
    assert_eq!(back, r);
}

#[test]
fn result_file_rejects_other_schemas() {
    let j = Json::parse(r#"{"schema":"other/1"}"#).expect("valid JSON");
    assert!(RunResult::from_json(&j).is_err());
}

#[test]
fn summary_line_has_exactly_the_contract_keys() {
    let r = sample_result(false);
    let j = Json::parse(&r.summary_line()).expect("valid JSON");
    let keys: Vec<&str> = j
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(r.summary_line().contains(r#""attempted":57,"#));
    let metrics = j.get("metrics").and_then(Json::as_obj).expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = catalogue::end_to_end()
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    assert_eq!(names, want);
    let setup = j
        .get("metrics")
        .and_then(|m| m.get("setup_s"))
        .expect("setup_s");
    assert_eq!(
        setup.get("value").and_then(Json::as_f64),
        Some(0.184_874_095)
    );
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));

    let traced = Json::parse(&sample_result(true).summary_line()).expect("valid JSON");
    let n = traced
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics")
        .len();
    assert_eq!(n, catalogue::per_layer().len());
}

#[test]
fn json_escapes_and_numbers_round_trip() {
    let v = Json::Arr(vec![
        Json::Str("a\"b\\c\n\u{1}é".to_owned()),
        Json::Num(-1.25e-7),
        Json::Num(3.0),
        Json::Bool(false),
        Json::Null,
    ]);
    let text = v.render();
    assert!(text.contains(",3,"));
    assert_eq!(Json::parse(&text), Ok(v));
    assert!(Json::parse("[1,").is_err());
    assert!(Json::parse("{} x").is_err());
}

// ---- --compare -------------------------------------------------------------

#[test]
fn compare_calls_a_noisy_metric_unresolved_not_unchanged() {
    // a's quartile spread (~40%) exceeds a 15% bound.
    let a = [
        80.0, 100.0, 120.0, 90.0, 110.0, 70.0, 130.0, 100.0, 95.0, 105.0,
    ];
    let b = [101.0; 10];
    let (v, _, spread) = judge(&a, &b, Better::Lower, Some(0.15));
    assert!(spread.expect("spread") > 0.15);
    assert_eq!(v, Verdict::Unresolved);
}

#[test]
fn compare_verdicts_on_steady_runs() {
    let a = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
    ];
    let worse: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
    let better: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
    let same: Vec<f64> = a.iter().map(|x| x * 1.001).collect();
    let lower = |b: &[f64]| judge(&a, b, Better::Lower, Some(0.15)).0;
    assert_eq!(lower(&worse), Verdict::Regressed);
    assert_eq!(lower(&better), Verdict::Improved);
    assert_eq!(lower(&same), Verdict::Unchanged);
    // Direction matters: more ops per second is an improvement.
    assert_eq!(
        judge(&a, &worse, Better::Higher, Some(0.15)).0,
        Verdict::Improved
    );
}

#[test]
fn compare_does_not_judge_tails_taken_at_different_percentiles() {
    let run = |tail: f64, pct: &str| {
        let mut r = sample_result(false);
        r.metrics = vec![Metric {
            name: "op_ms_tail".to_owned(),
            value: tail,
            unit: "ms".to_owned(),
        }];
        r.notes = vec![("op_ms_tail.percentile".to_owned(), pct.to_owned())];
        r
    };
    let verdict = |b_pct: &str| {
        let a: Vec<RunResult> = (0..5).map(|i| run(100.0 + f64::from(i), "p90")).collect();
        let b: Vec<RunResult> = (0..5).map(|i| run(100.0 + f64::from(i), b_pct)).collect();
        let (table, _) = report(&a, &b);
        let line = table
            .lines()
            .find(|l| l.trim_start().starts_with("op_ms_tail"))
            .expect("op_ms_tail row")
            .to_owned();
        line
    };
    assert!(verdict("p90").ends_with("unchanged"));
    assert!(verdict("p75").ends_with("unresolved"));
}

#[test]
fn compare_with_one_run_is_unresolved() {
    assert_eq!(
        judge(&[1.0], &[2.0], Better::Lower, Some(0.1)).0,
        Verdict::Unresolved
    );
}

// ---- BENCHMARK.json ----------------------------------------------------------

#[test]
fn the_metric_table_is_benchmark_json() {
    let e2e = catalogue::end_to_end();
    assert!(e2e.iter().all(|d| d.bound.is_some()));
    let bound_max = e2e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
    let setup = catalogue::find("setup_s").expect("setup_s");
    assert_eq!(
        (setup.unit.as_str(), setup.better, setup.bound),
        ("s", Better::Lower, Some(bound_max)),
        "setup_s carries the largest bound"
    );
    let first: Vec<&str> = catalogue::per_layer()
        .iter()
        .take(catalogue::EXACT.len())
        .map(|d| d.name.as_str())
        .collect();
    assert_eq!(first, catalogue::EXACT);
    assert!(catalogue::per_layer().iter().all(|d| d.bound.is_none()));
}
