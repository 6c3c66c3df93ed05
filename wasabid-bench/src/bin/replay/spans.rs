//! In-memory spans and their self times.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One timed call of one request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `protocol.frame_decode`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span; `None` for a request's root.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u32,
    /// `true` for a span timed by a separate call and placed inside its
    /// parent, for a layer that runs inside another call.
    pub derived: bool,
}

/// Records spans while on; with spans off it only reads the clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open or placed span; meaningless with spans off.
pub type SpanId = usize;

impl Tracer {
    /// A tracer that records spans if `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span of `request`, nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u32) -> SpanId {
        if !self.on {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request,
            derived: false,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans close innermost first");
        self.spans[id].end = self.now();
    }

    /// Close every open span, after a call inside them failed.
    pub fn unwind(&mut self) {
        let now = self.now();
        while let Some(id) = self.open.pop() {
            self.spans[id].end = now;
        }
    }

    /// The start of a recorded span.
    pub fn start_of(&self, id: SpanId) -> u64 {
        self.spans[id].start
    }

    /// The end of a recorded, closed span.
    pub fn end_of(&self, id: SpanId) -> u64 {
        self.spans[id].end
    }

    /// Place a derived span of `nanos` inside the recorded, closed span
    /// `parent`, starting at `at` and cut at the parent's end. Returns its
    /// id and end.
    pub fn place(
        &mut self,
        name: &'static str,
        parent: SpanId,
        at: u64,
        nanos: u64,
    ) -> (SpanId, u64) {
        let bound = self.spans[parent];
        let start = at.clamp(bound.start, bound.end);
        let end = start.saturating_add(nanos).min(bound.end);
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            request: bound.request,
            derived: true,
        });
        (self.spans.len() - 1, end)
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it its
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let covered = children.get_mut(&id).map_or(0, |intervals| {
                    intervals.sort_unstable();
                    let mut covered = 0;
                    let mut reach = span.start;
                    for &(start, end) in intervals.iter() {
                        let (start, end) = (start.max(reach), end.min(span.end));
                        if end > start {
                            covered += end - start;
                            reach = end;
                        }
                    }
                    covered
                });
                (span.end - span.start) - covered
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"derived\":{}}}",
                span.name, span.start, span.end, span.request, span.derived
            )?;
        }
        out.flush()
    }
}
