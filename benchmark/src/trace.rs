//! The in-memory span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer; nothing inside the simulator or the daemon is instrumented.
//! A disabled tracer costs one branch per call, so the untraced run — the
//! one every end-to-end number comes from — executes the same code path.

use crate::json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Crate or module the time is charged to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`u32::MAX` for a root).
    pub parent: u32,
    /// The operation (rep, window or job) this span belongs to.
    pub op: u32,
    /// Recording thread (a Chrome-trace `tid`).
    pub tid: u32,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// A per-thread span recorder. Storage is allocated once, up front, so
/// recording never reallocates inside a timed region; spans past the
/// capacity are counted, not stored.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    /// A recorder whose clock starts at `origin` (shared by the threads of
    /// one run so their spans line up).
    pub fn new(enabled: bool, origin: Instant, tid: u32, capacity: usize) -> Tracer {
        Tracer {
            enabled,
            origin,
            tid,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0, 0)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, op: u32) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op,
            tid: self.tid,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and any span still open inside it).
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NO_PARENT {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.begin(name, layer, op);
        let result = f(self);
        self.end(id);
        result
    }

    /// Records a child of `parent` from timestamps measured elsewhere (the
    /// daemon's own job timeline), given on this tracer's clock. The part
    /// outside the parent is cut off, so self times stay exact.
    pub fn add_child(
        &mut self,
        parent: SpanId,
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if parent.0 == NO_PARENT || self.spans.len() == self.spans.capacity() {
            return;
        }
        let p = &self.spans[parent.0 as usize];
        let start_ns = start_ns.clamp(p.start_ns, p.end_ns);
        let end_ns = end_ns.clamp(start_ns, p.end_ns);
        let (op, tid) = (p.op, p.tid);
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent: parent.0,
            op,
            tid,
        });
    }

    /// Start of `id`'s span in nanoseconds since the origin.
    pub fn start_of(&self, id: SpanId) -> Option<u64> {
        self.spans.get(id.0 as usize).map(|s| s.start_ns)
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }
}

/// One row of the cost ledger: every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    pub name: &'static str,
    pub layer: &'static str,
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by direct children.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            covered[s.parent as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Groups spans by name, in order of first appearance. The rows' self
/// times sum to [`root_total_ns`].
pub fn ledger(spans: &[Span]) -> Vec<LedgerRow> {
    let selfs = self_times(spans);
    let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut rows: Vec<LedgerRow> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let at = *index.entry(s.name).or_insert_with(|| {
            rows.push(LedgerRow {
                name: s.name,
                layer: s.layer,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            rows.len() - 1
        });
        rows[at].count += 1;
        rows[at].total_ns += s.end_ns - s.start_ns;
        rows[at].self_ns += self_ns;
    }
    rows
}

/// Total duration of the root spans.
pub fn root_total_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Prints the ledger as a table whose self column sums to the root total.
pub fn render_ledger(workload: &str, spans: &[Span]) -> String {
    let rows = ledger(spans);
    let root = root_total_ns(spans).max(1);
    let mut out = format!(
        "ledger {workload}: {:<28} {:<14} {:>7} {:>12} {:>12} {:>7}\n",
        "span", "layer", "count", "total_ms", "self_ms", "self_%"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "ledger {workload}: {:<28} {:<14} {:>7} {:>12.3} {:>12.3} {:>7.2}",
            r.name,
            r.layer,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / root as f64
        );
    }
    let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
    let _ = writeln!(
        out,
        "ledger {workload}: {:<28} {:<14} {:>7} {:>12.3} {:>12.3} {:>7.2}",
        "(sum of self = root spans)",
        "",
        "",
        root as f64 / 1e6,
        self_sum as f64 / 1e6,
        100.0 * self_sum as f64 / root as f64
    );
    out
}

/// Renders the spans as a Chrome `trace_event` document (load it in
/// `chrome://tracing` or Perfetto).
pub fn chrome_json(workload: &str, spans: &[Span], dropped: u64) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
             \"args\":{{\"op\":{},\"id\":{i},\"parent\":{}}}}}",
            json::quote(s.name),
            json::quote(s.layer),
            json::num(s.start_ns as f64 / 1e3),
            json::num((s.end_ns - s.start_ns) as f64 / 1e3),
            s.tid,
            s.op,
            if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            },
        );
    }
    let _ = write!(
        out,
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema\":\"mempool-benchmark-trace-v1\",\
         \"workload\":{},\"dropped_spans\":{dropped}}}}}\n",
        json::quote(workload)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            layer: "test",
            start_ns,
            end_ns,
            parent,
            op: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100; child a 10..40 with grandchild 20..30; child b 50..90;
        // a child that overruns its parent (60..130) is clipped at 100.
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("g", 20, 30, 1),
            span("b", 50, 60, 0),
            span("late", 60, 130, 0),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10 - 40, 20, 10, 10, 70]);
        let rows = ledger(&spans);
        assert_eq!(
            rows.iter().map(|r| r.name).collect::<Vec<_>>(),
            ["root", "a", "g", "b", "late"]
        );
        assert_eq!(root_total_ns(&spans), 100);
    }

    #[test]
    fn nested_scopes_sum_to_the_root_and_merge_across_threads() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin, 0, 64);
        t.scope("op", "bench", 1, |t| {
            t.scope("inner", "core", 1, |t| {
                t.scope("leaf", "noc", 1, |_| std::hint::black_box(0));
            });
            let wait = t.begin("wait", "serve", 1);
            t.end(wait);
            t.add_child(wait, "queued", "serve", 0, u64::MAX / 2);
            t.add_child(wait, "running", "serve", u64::MAX / 2, u64::MAX);
        });
        let mut other = Tracer::new(true, origin, 1, 8);
        other.scope("op", "bench", 2, |t| t.scope("inner", "core", 2, |_| ()));
        t.absorb(other);
        assert_eq!(t.spans().len(), 8);
        assert_eq!(t.spans()[7].parent, 6, "absorbed parents are re-based");
        let self_sum: u64 = ledger(t.spans()).iter().map(|r| r.self_ns).sum();
        assert_eq!(
            self_sum,
            root_total_ns(t.spans()),
            "rows sum to the root spans"
        );
        let doc = json::parse(&chrome_json("w", t.spans(), 0)).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(json::Value::as_arr)
                .map(<[_]>::len),
            Some(8)
        );
    }

    #[test]
    fn a_disabled_or_full_tracer_records_nothing() {
        let mut off = Tracer::off();
        let id = off.begin("x", "y", 0);
        off.end(id);
        assert!(off.spans().is_empty());
        let mut small = Tracer::new(true, Instant::now(), 0, 1);
        small.scope("kept", "l", 0, |t| t.scope("dropped", "l", 0, |_| ()));
        assert_eq!((small.spans().len(), small.dropped()), (1, 1));
    }
}
