//! Harness-side spans: wall-clock intervals around the calls the benchmark
//! makes into each layer, held in memory and written out once at exit.
//! Nothing inside the program is instrumented; a layer's time is what its
//! public function took when called from here.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` indexes the enclosing span; `count` is
/// the number of operations the interval covered (transactions, blocks,
/// events), so a per-operation cost is `duration / count`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub count: u64,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Records spans against one epoch. Spans nest by call order: `open`
/// pushes onto a stack, `close` pops.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub fn open(&mut self, name: &'static str, layer: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            name,
            layer,
            start_us: now,
            end_us: now,
            parent: self.stack.last().copied(),
            count: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns its
    /// duration in seconds.
    pub fn close(&mut self, id: usize, count: u64) -> f64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close in the order they opened");
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = now;
        span.count = count;
        span.duration_us() as f64 / 1e6
    }

    /// Times `f` under a span and returns its result with the duration in
    /// seconds. `count` is read off the result so callers can report how
    /// much work the call did.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> (T, u64),
    ) -> (T, f64) {
        let id = self.open(name, layer);
        let (out, count) = f(self);
        let secs = self.close(id, count);
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in seconds, and the sum
    /// of their counts.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, c), s| {
                (t + s.duration_us() as f64 / 1e6, c + s.count)
            })
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover. Children never overlap each other (one thread, one stack).
pub fn self_time_us(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_us)
        .sum();
    spans[id].duration_us().saturating_sub(children)
}

/// Serialises the spans of one traced workload run as a JSON document.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"workload\": \"{workload}\", \
             \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}, \"count\": {}, \"self_us\": {}}}{}",
            s.name,
            s.layer,
            s.start_us,
            s.end_us,
            s.count,
            self_time_us(spans, i),
            if i + 1 == spans.len() { "" } else { "," },
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer: "harness",
            start_us: start,
            end_us: end,
            parent,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 0: [0, 100); children 1: [10, 40) and 2: [50, 70); 3 is a child
        // of 1 and must not be subtracted from 0 a second time.
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 70, Some(0)),
            span(15, 25, Some(1)),
        ];
        assert_eq!(self_time_us(&spans, 0), 50);
        assert_eq!(self_time_us(&spans, 1), 20);
        assert_eq!(self_time_us(&spans, 2), 20);
        assert_eq!(self_time_us(&spans, 3), 10);
        // Self times of a tree add up to the root's duration.
        let total: u64 = (0..spans.len()).map(|i| self_time_us(&spans, i)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut rec = Recorder::default();
        let ((), _) = rec.time("outer", "harness", |rec| {
            let ((), _) = rec.time("inner", "net", |_| ((), 7));
            ((), 1)
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].count, 7);
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        assert_eq!(rec.total("inner").1, 7);
        let json = to_json("w", spans);
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"));
    }
}
