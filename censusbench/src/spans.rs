//! Wall-clock spans recorded around calls into the layers' public
//! functions, kept in memory and written out once the run ends.
//!
//! A span has a name, a start, an end and the span that caused it. A
//! span's self time is its duration minus its children's durations.
//! Children in this benchmark never overlap each other, but a replayed
//! child need not lie inside its parent's interval (the census-day replay
//! runs the layers one by one and then `run_day` as their parent), so self
//! time is computed from the tree, not from interval overlap.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Spans`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Dotted layer name (`core.pass.icmp_v4`, `store.save`, ...).
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Chrome-trace thread lane: 1 for measured calls, 2 for replayed ones.
    pub lane: u32,
    /// Start, microseconds since the recorder was created.
    pub start_us: f64,
    /// End, microseconds since the recorder was created (equal to start
    /// while the span is open).
    pub end_us: f64,
}

/// Lane of the calls the measured operation itself makes.
pub const LANE_MEASURED: u32 = 1;
/// Lane of the layer calls the census-day replay makes.
pub const LANE_REPLAY: u32 = 2;

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, lane: u32) -> SpanId {
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            lane,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    /// Move an open span's start to now: a parent is opened before the
    /// replayed children that name it, but timed only after them.
    pub fn restart(&mut self, id: SpanId) {
        let now = self.now_us();
        self.spans[id].start_us = now;
        self.spans[id].end_us = now;
    }

    /// Close a span opened by [`Spans::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_us = self.now_us();
    }

    /// Run `f` inside a new span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        lane: u32,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent, lane);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Every recorded span, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration in milliseconds.
    pub fn ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_us - s.start_us) / 1e3
    }

    /// The summed duration of a span's children, in milliseconds.
    pub fn children_ms(&self, id: SpanId) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id))
            .map(|(i, _)| self.ms(i))
            .sum()
    }

    /// A span's self time: its duration minus its children's.
    pub fn self_ms(&self, id: SpanId) -> f64 {
        self.ms(id) - self.children_ms(id)
    }

    /// Export in the Chrome trace-event format `laces-trace` writes: one
    /// process named after the workload, one thread per lane, and a
    /// complete (`"ph": "X"`) event per span with its id and parent in
    /// `args`. Timestamps are microseconds of wall clock.
    pub fn to_chrome_json(&self, process: &str) -> String {
        let mut events = vec![
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
            ),
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{LANE_MEASURED},\"args\":{{\"name\":\"measured\"}}}}"
            ),
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{LANE_REPLAY},\"args\":{{\"name\":\"replay\"}}}}"
            ),
        ];
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let mut e = String::new();
            let _ = write!(
                e,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or("bench"),
                s.start_us,
                s.end_us - s.start_us,
                s.lane,
            );
            events.push(e);
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_by_tree_not_interval() {
        let mut s = Spans::default();
        // A replayed child that runs before its parent.
        let parent = s.open("census.run_day", None, LANE_MEASURED);
        let child = s.open("core.pass.icmp_v4", Some(parent), LANE_REPLAY);
        s.spans[child].start_us = 0.0;
        s.spans[child].end_us = 3_000.0;
        s.spans[parent].start_us = 3_000.0;
        s.spans[parent].end_us = 8_000.0;
        assert_eq!(s.ms(parent), 5.0);
        assert_eq!(s.self_ms(parent), 2.0);
        assert_eq!(s.children_ms(parent), 3.0);
        let json = s.to_chrome_json("census-day");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"parent\":0"));
    }
}
