//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions: name, start, end, parent span and
//! request id. Each client thread owns one [`Trace`]; the threads' spans
//! are merged and written out when the run ends. A disabled trace records
//! nothing, so the untraced run pays one branch per span.

use std::time::Instant;

/// Handle of an open span (`usize::MAX` when tracing is off).
pub type SpanId = usize;

const NONE: SpanId = usize::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified span name, e.g. `map.map`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// Request the span belongs to (0 for probes outside any request).
    pub request: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span log of one thread.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A trace measuring from `epoch`; `enabled == false` records nothing.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (or at the root with [`Trace::root`]).
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: (parent != NONE).then_some(parent),
            request,
        });
        self.spans.len() - 1
    }

    /// Parent id for a root span.
    pub fn root() -> SpanId {
        NONE
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Consumes the trace, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children of one span never overlap in
/// this benchmark, but the union is taken anyway so the rule holds).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Serializes spans (with their self times) as one JSON document.
pub fn to_json(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("{\"spans\": [\n");
    for (i, (span, self_ns)) in spans.iter().zip(&self_ns).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"request\": {}}}{}\n",
            span.name,
            span.start_ns,
            span.end_ns,
            span.request,
            if i + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push_str("]}\n");
    out
}

/// Concatenates per-thread traces, re-basing parent indices.
pub fn merge(traces: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for spans in traces {
        let base = all.len();
        all.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Measured cost of one recorded span (begin + end), in ns: the traced
/// minus the untraced wall time of a loop of empty spans, per span.
pub fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    let epoch = Instant::now();
    let run = |enabled: bool| {
        let mut trace = Trace::new(enabled, epoch);
        let t = Instant::now();
        for i in 0..N {
            let id = trace.begin("probe.span_cost", Trace::root(), i as u64);
            trace.end(std::hint::black_box(id));
        }
        let ns = t.elapsed().as_nanos() as f64;
        std::hint::black_box(trace.into_spans().len());
        ns
    };
    let untraced = run(false);
    let traced = run(true);
    ((traced - untraced) / N as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)),
            span("c", 60, 70, Some(0)),
        ];
        let self_ns = self_times_ns(&spans);
        // Children cover [10, 50) and [60, 70): 50 of 100 ns.
        assert_eq!(self_ns, vec![50, 20, 25, 10]);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("r", 0, 10, None), span("c", 1, 2, Some(0))];
        let b = vec![span("r", 0, 10, None), span("c", 1, 2, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
    }
}
