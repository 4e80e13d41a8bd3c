//! In-memory spans recorded around calls into each layer's public API.
//!
//! A span holds a name, start, end, parent and op id. Spans are kept in
//! memory for the whole run and written out at exit. A layer's *self
//! time* is its span's duration minus the part of that interval its
//! child spans cover.
//!
//! A disabled tracer records nothing: `enter`/`exit` cost one branch.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `gles.draw`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to (0 = set-up and checks).
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the handle to Tracer::exit"]
pub struct SpanId(Option<usize>);

/// Records nested spans of the benchmark's own calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on spans entered from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in entry order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.clamp(s.start_ns, s.end_ns),
                        spans[k].end_ns.clamp(s.start_ns, s.end_ns),
                    )
                })
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in iv {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals: call count, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration per call in milliseconds (0 with no calls).
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Aggregates spans by name.
#[must_use]
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Share of the `root`-named spans' wall time that their descendants
/// explain: 1 − Σ self(root) / Σ duration(root). 0 when there are none.
#[must_use]
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut wall, mut unexplained) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.name == root {
            wall += s.duration_ns();
            unexplained += self_ns;
        }
    }
    if wall == 0 {
        0.0
    } else {
        1.0 - unexplained as f64 / wall as f64
    }
}

/// The spans as a JSON array of `[name, start_ns, end_ns, parent, op]`
/// (parent −1 for roots).
#[must_use]
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.to_owned()),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                    Json::Num(s.op as f64),
                ])
            })
            .collect(),
    )
}
