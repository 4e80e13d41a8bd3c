//! `mgpu-benchmark`: runs one workload (or all four) through the stack's
//! public API, checks the outputs and prints every metric by name with
//! its unit; the last stdout line is a one-object JSON summary.
//!
//! ```text
//! mgpu-benchmark --workload <sgemm_shade|sum_stream|paper_figs|fleet|all>
//!                --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! mgpu-benchmark --compare <a> <b>
//! ```
//!
//! See `README.md` beside `Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

use mgpu_benchmark::catalogue;
use mgpu_benchmark::json::Json;
use mgpu_benchmark::result::{Check, Metric, RunResult};
use mgpu_benchmark::stats::{median, median_round_percentile, percentile, sorted};
use mgpu_benchmark::trace::{self, Tracer};

mod workloads;

use workloads::{Measured, Params, Tail, NAMES};

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// When the process started (the start of the first set-up).
pub fn process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    result_file: Option<PathBuf>,
}

const USAGE: &str =
    "usage: mgpu-benchmark --workload <sgemm_shade|sum_stream|paper_figs|fleet|all> \
--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       mgpu-benchmark --compare <a> <b>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
        result_file: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--result-file" => args.result_file = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// `MGPU_*` (and `MGPU_SERVICE_*`) variables the stack would read.
fn stray_knobs() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MGPU_"))
        .collect()
}

/// The checked-out revision, read from `.git` without running git.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    process_start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stray = stray_knobs();
    if !stray.is_empty() {
        eprintln!(
            "error: refusing to run with {} set: the stack reads these knobs at context \
             creation, so the benchmark would measure a different program",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    run_one(&args)
}

fn compare(rest: &[String]) -> ExitCode {
    let [a, b] = rest else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |p: &String| mgpu_benchmark::compare::load(Path::new(p));
    match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => {
            let (table, regressions) = mgpu_benchmark::compare::report(&ra, &rb);
            print!("{table}");
            println!("{regressions} end-to-end regression(s) beyond their bounds");
            ExitCode::SUCCESS
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every workload, each in its own process (so `peak_rss_mb` is the
/// workload's), then prints a combined summary line.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("error: cannot locate the benchmark executable");
        return ExitCode::from(2);
    };
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for name in NAMES {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let Ok(out) = out else {
            eprintln!("error: cannot run workload {name}");
            return ExitCode::from(2);
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().and_then(|l| Json::parse(l).ok());
        for l in lines {
            println!("{l}");
        }
        let Some(last) = last else {
            correct = false;
            continue;
        };
        correct &=
            out.status.success() && last.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += last.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += last.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if let Some(fields) = last.get("metrics").and_then(Json::as_obj) {
            for (k, v) in fields {
                metrics.push((format!("{name}.{k}"), v.clone()));
            }
        }
    }
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(correct)),
            ("attempted".to_owned(), Json::Num(attempted)),
            ("failed".to_owned(), Json::Num(failed)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
        .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced twin of a traced run: the same workload, seed and length
/// in a separate process, whose result file gives `trace.overhead`'s base
/// and the digests the traced run must reproduce.
fn untraced_baseline(args: &Args) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let file = args.out.join(format!(
        ".untraced-{}-{}.json",
        args.workload,
        std::process::id()
    ));
    let status = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .arg("--out")
        .arg(&args.out)
        .arg("--result-file")
        .arg(&file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()));
    let _ = std::fs::remove_file(&file);
    let result = RunResult::from_json(&Json::parse(&text?)?)?;
    if !status.success() {
        return Err(format!("untraced run exited with {status}"));
    }
    Ok(result)
}

fn run_one(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let baseline = args.trace.then(|| untraced_baseline(args));
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
    };
    let mut tr = Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "sgemm_shade" => workloads::sgemm_shade::run(&params, &mut tr),
        "sum_stream" => workloads::sum_stream::run(&params, &mut tr),
        "paper_figs" => workloads::paper_figs::run(&params, &mut tr),
        _ => workloads::fleet::run(&params, &mut tr),
    };
    let mut m = match run {
        Ok(m) => m,
        Err(e) => {
            // A workload that cannot even set up prints no result.
            eprintln!("error: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(baseline) = baseline {
        compare_with_baseline(&mut m, &tr, baseline);
    }
    let result = assemble(args, nproc, m);
    print_table(&result, &tr);
    let file = args.result_file.clone().unwrap_or_else(|| {
        args.out.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ))
    });
    if let Err(e) = std::fs::write(&file, result.to_json().render() + "\n") {
        eprintln!("warning: cannot write {}: {e}", file.display());
    }
    if args.trace {
        let spans = file.with_extension("spans.json");
        if let Err(e) = std::fs::write(&spans, trace::spans_json(tr.spans()).render() + "\n") {
            eprintln!("warning: cannot write {}: {e}", spans.display());
        }
    }
    println!("{}", result.summary_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Traced-run bookkeeping against the untraced run: identical outputs and
/// simulated digests, `trace.overhead` and `trace.coverage`.
fn compare_with_baseline(m: &mut Measured, tr: &Tracer, baseline: Result<RunResult, String>) {
    let base = match baseline {
        Ok(b) => b,
        Err(e) => {
            m.check("untraced run succeeded", false, e);
            return;
        }
    };
    for (key, digest) in m.digests.clone() {
        let theirs = base.digest(&key).unwrap_or("missing");
        m.check(
            &format!("traced {key} digest equals untraced"),
            theirs == digest,
            format!("{digest} vs {theirs}"),
        );
    }
    let traced = ops_per_s(m);
    let untraced = base.metric("ops_per_s").unwrap_or(0.0);
    m.layer(
        "trace.overhead",
        if untraced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        },
    );
    if !m.layer.iter().any(|(n, _)| *n == "trace.coverage") {
        m.layer("trace.coverage", trace::coverage(tr.spans(), "op"));
    }
}

fn ops_per_s(m: &Measured) -> f64 {
    m.op_ns.len() as f64 / (m.timed_ns.max(1) as f64 / 1e9)
}

/// Turns a workload's measurements into the run's result.
fn assemble(args: &Args, nproc: usize, m: Measured) -> RunResult {
    let op_ms: Vec<f64> = m.op_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let sim_ms: Vec<f64> = m.sim_op_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let pct = m.tail.percentile();
    let op_tail = match m.tail {
        Tail::Run { .. } => percentile(&sorted(&op_ms), pct),
        Tail::PerRound { ops } => median_round_percentile(&op_ms, ops, pct),
    };
    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64| {
        let unit = catalogue::find(name).map_or_else(String::new, |d| d.unit.clone());
        metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    };
    put("setup_s", median(&m.setup_s).unwrap_or(0.0));
    put("ops_per_s", ops_per_s(&m));
    put("op_ms_p50", median(&op_ms).unwrap_or(0.0));
    put("op_ms_tail", op_tail.unwrap_or(0.0));
    put("peak_rss_mb", peak_rss_mb());
    put("sim_op_ms_p50", median(&sim_ms).unwrap_or(0.0));
    put(
        "sim_op_ms_tail",
        percentile(&sorted(&sim_ms), pct).unwrap_or(0.0),
    );
    put("fail_rate", m.tally.rate());
    put("max_abs_err", m.max_abs_err.unwrap_or(0.0));
    for def in layer_defs() {
        if let Some((_, v)) = m.layer.iter().rev().find(|(n, _)| *n == def.name) {
            put(&def.name, *v);
        } else if args.trace {
            put(&def.name, 0.0);
        }
    }
    let mut notes = m.notes;
    let tail_note = match m.tail {
        Tail::Run { .. } => format!("p{pct}"),
        Tail::PerRound { ops } => format!("p{pct} per {ops}-op round, median"),
    };
    notes.push(("op_ms_tail.percentile".to_owned(), tail_note));
    notes.push(("sim_op_ms_tail.percentile".to_owned(), format!("p{pct}")));
    notes.push(("ops".to_owned(), op_ms.len().to_string()));
    notes.push(("sim_ops".to_owned(), sim_ms.len().to_string()));
    notes.push(("setups".to_owned(), m.setup_s.len().to_string()));
    notes.push(("setup_s.each".to_owned(), format!("{:?}", m.setup_s)));
    if m.max_abs_err.is_none() {
        notes.push(("max_abs_err".to_owned(), "n/a".to_owned()));
    }
    let correct = m.checks.iter().all(|c: &Check| c.ok) && m.tally.failed == 0;
    RunResult {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        commit: commit(),
        nproc,
        config: m.config,
        correct,
        attempted: m.tally.attempted.max(1),
        failed: m.tally.failed,
        checks: m.checks,
        metrics,
        notes,
        digests: m.digests,
    }
}

/// The per-layer metrics proper: `BENCHMARK.json`'s `per_layer` list
/// without [`catalogue::EXACT`].
fn layer_defs() -> impl Iterator<Item = &'static catalogue::MetricDef> {
    catalogue::per_layer()
        .iter()
        .filter(|d| !catalogue::EXACT.contains(&d.name.as_str()))
}

fn print_table(r: &RunResult, tr: &Tracer) {
    println!(
        "mgpu-benchmark {} seed={} seconds={} trace={} commit={} nproc={}",
        r.workload,
        r.seed,
        r.seconds,
        u8::from(r.trace),
        r.commit,
        r.nproc
    );
    let config: Vec<String> = r.config.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("  config: {}", config.join(" "));
    let show = |names: &mut dyn Iterator<Item = &'static catalogue::MetricDef>| {
        for def in names {
            let Some(v) = r.metric(&def.name) else {
                continue;
            };
            let note = match def.name.as_str() {
                "op_ms_tail" => format!(
                    "  ({} of {} ops)",
                    r.note("op_ms_tail.percentile").unwrap_or("?"),
                    r.note("ops").unwrap_or("?")
                ),
                "sim_op_ms_tail" => format!(
                    "  ({} of {} values)",
                    r.note("sim_op_ms_tail.percentile").unwrap_or("?"),
                    r.note("sim_ops").unwrap_or("?")
                ),
                "setup_s" => format!("  (median of {} set-ups)", r.note("setups").unwrap_or("?")),
                "max_abs_err" if r.note("max_abs_err").is_some() => {
                    "  (n/a: no functional output)".to_owned()
                }
                _ => String::new(),
            };
            let shown = if v != 0.0 && v.abs() < 1e-3 {
                format!("{v:.6e}")
            } else {
                format!("{v:.6}")
            };
            println!("  {:<32} {:>16} {:<8}{note}", def.name, shown, def.unit);
        }
    };
    let exact = catalogue::EXACT.iter().filter_map(|n| catalogue::find(n));
    show(&mut catalogue::end_to_end().iter().chain(exact));
    if r.trace {
        println!("  -- per layer");
        show(&mut layer_defs());
        println!("  -- spans (self time)");
        let totals = trace::totals(tr.spans());
        let mut rows: Vec<_> = totals.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.self_ns));
        for (name, t) in rows {
            println!(
                "  {:<32} {:>8} calls {:>12.3} ms total {:>12.3} ms self",
                name,
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    for c in &r.checks {
        println!(
            "  check {}: {} ({})",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
}
