//! Spans recorded from outside the library: one per call into a layer's
//! public function, kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` indexes the span that caused it; spans of one
/// op share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span log of one traced pass.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    op: u32,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of the next op. Spans a failed op left open are
    /// closed here.
    pub fn begin_op(&mut self, name: &'static str) {
        self.op += 1;
        self.begin_probe(name);
    }

    /// Open a further root span under the current op's id, for
    /// measurements a real op does not perform.
    pub fn begin_probe(&mut self, name: &'static str) {
        while !self.stack.is_empty() {
            self.close();
        }
        self.open(name);
    }

    /// Close the root span opened by `begin_op` / `begin_probe`.
    pub fn end_op(&mut self) {
        self.close();
        assert!(self.stack.is_empty(), "root closed with open children");
    }

    /// Record a call timed elsewhere (another thread) as a root span.
    pub fn push_root(&mut self, name: &'static str, op: u32, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            parent: None,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        let index = self.stack.pop().expect("no open span");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Time `f` as a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn ops(&self) -> u32 {
        self.op
    }

    /// The trace as a JSON array of span objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Each span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per op, the summed self time (`own_ns`, from [`self_times_ns`]) of the
/// spans called `name`, in nanoseconds; ops without such a span are left out.
pub fn self_ns_per_op(spans: &[Span], own_ns: &[u64], name: &str) -> Vec<f64> {
    let ops = spans.iter().map(|s| s.op).max().unwrap_or(0) as usize;
    let mut sums = vec![None; ops + 1];
    for (s, &own) in spans.iter().zip(own_ns) {
        if s.name == name {
            *sums[s.op as usize].get_or_insert(0.0) += own as f64;
        }
    }
    sums.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("plan", Some(0), 10, 30),  // sibling 1
            span("drain", Some(0), 30, 90), // sibling 2, adjacent
            span("scan", Some(2), 40, 60),  // nested in drain
            span("join", Some(2), 55, 80),  // overlaps scan by 5
            span("late", Some(0), 95, 120), // runs past its parent
        ];
        let own = self_times_ns(&spans);
        // op: 100 − (20 + 60 + the 5 of `late` inside it).
        assert_eq!(own[0], 15);
        assert_eq!(own[1], 20);
        // drain: 60 − union(40..60, 55..80) = 60 − 40.
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 20);
        assert_eq!(own[4], 25);
        assert_eq!(own[5], 25);
        assert_eq!(self_ns_per_op(&spans, &own, "drain"), vec![20.0]);
        assert!(self_ns_per_op(&spans, &own, "absent").is_empty());
    }

    #[test]
    fn recorded_spans_nest_and_share_the_op_id() {
        let mut t = Trace::new();
        t.begin_op("op");
        let v = t.span("outer", || 7);
        t.span("outer", || ());
        t.end_op();
        t.begin_op("op");
        t.end_op();
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert_eq!((s[1].op, s[3].op), (1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(self_ns_per_op(s, &self_times_ns(s), "outer").len(), 1);
        assert!(t.to_json().contains("\"parent\": null"));
    }
}
