//! In-memory spans recorded by the benchmark around each public call
//! into a layer. Nothing is written until the run ends.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    pub request_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. A disabled tracer records
/// nothing, so the same replay code gives the untraced baseline the
/// tracing overhead is measured against.
pub struct Tracer {
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    epoch: Instant,
    enabled: bool,
    request_id: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            spans: Vec::new(),
            stack: Vec::new(),
            epoch: Instant::now(),
            enabled,
            request_id: 0,
        }
    }

    pub fn begin_request(&mut self, id: u32) {
        self.request_id = id;
    }

    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request_id: self.request_id,
        });
        id
    }

    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = end;
    }

    /// Files a finished span under another name, once its outcome is
    /// known (a denied statement, a read attempt that must be retried
    /// as a write).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        if self.enabled {
            self.spans[id as usize].name = name;
        }
    }

    /// Runs `f` inside a span. For calls that need the tracer
    /// themselves, pair [`Tracer::enter`] and [`Tracer::exit`] instead.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children never overlap on one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Self times (µs) of every span called `name`.
pub fn self_us(spans: &[Span], name: &str) -> Vec<f64> {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, o)| o as f64 / 1e3)
        .collect()
}

/// Appends `spans` to `out` as JSON lines, tagged with the replay depth.
pub fn write_jsonl(out: &mut impl Write, depth: &str, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{{\"depth\":\"{depth}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request_id
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) -> engine [10,90) -> {parse [10,30), exec [40,80)}
        let spans = vec![
            span("request", 0, 100, NO_PARENT),
            span("engine", 10, 90, 0),
            span("parse", 10, 30, 1),
            span("exec", 40, 80, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 20, 40]);
        assert_eq!(self_us(&spans, "engine"), vec![0.02]);
        assert_eq!(durations_us(&spans, "engine"), vec![0.08]);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.begin_request(7);
        let outer = t.enter("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.exit(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert_eq!(t.spans[1].request_id, 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.enter("x");
        off.exit(id);
        assert!(off.spans.is_empty());
    }
}
