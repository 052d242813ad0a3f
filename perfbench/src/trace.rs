//! In-memory spans for the traced run, written out as Chrome-trace JSON
//! (loadable in Perfetto or `chrome://tracing`) when the run ends.
//!
//! Every span wraps one of the benchmark's own calls into a crate's
//! public function. It records a name (`layer.function`), start, end, the
//! span that was open when it began (its parent) and the op id it serves.

use crate::json;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. Spans nest: one begun while another is open becomes
/// its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span and return its result with the span's
    /// duration in nanoseconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let id = self.begin(name, op);
        let out = f(self);
        self.end(id);
        (out, self.spans[id].dur_ns())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.dur_ns());
            }
        }
        out
    }

    /// The spans as a Chrome-trace JSON document: one complete ("X")
    /// event per span, on one track per layer, timestamps in µs.
    pub fn chrome_json(&self) -> String {
        let mut layers: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !layers.contains(&s.layer()) {
                layers.push(s.layer());
            }
        }
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (tid, layer) in layers.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \"args\": {{\"name\": {}}}}},",
                json::quote(layer)
            );
        }
        let self_ns = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let tid = layers.iter().position(|l| *l == s.layer()).unwrap_or(0);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"name\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"op\": {}, \"self_ns\": {}}}}}{sep}",
                json::quote(s.name),
                json::num(s.start_ns as f64 / 1e3),
                json::num(s.dur_ns() as f64 / 1e3),
                s.op,
                self_ns[i],
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        let mut t = Tracer::new();
        let ((), _) = t.span("sweep.op", 7, |t| {
            t.span("core.run_grid", 7, |_| std::hint::black_box(0u64));
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 7);
        assert!(t.self_ns()[0] <= t.spans()[0].dur_ns());
        let doc = json::parse(&t.chrome_json()).expect("valid chrome trace");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("events");
        // Two thread-name records plus two spans.
        assert_eq!(events.len(), 4);
    }
}
