//! In-memory span recorder for the traced run. Spans are taken from the
//! benchmark's own files, around the calls into each layer; one root per
//! traced op, children for the end-to-end call and each replayed stage.
//! Nothing is written until the run ends.

use std::time::Instant;

/// One recorded interval. `parent` indexes into the same tracer's span
/// list (`None` for an op root); spans of one op share `op_id`. `count`
/// is the work the stage did at that boundary (entries scanned, clauses
/// swept, bytes encoded — 0 where there is nothing to count).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-caller-thread recorder (no locking on the measured path).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    root: Option<u32>,
    op_id: u64,
}

impl Tracer {
    /// All tracers of one run share `epoch`, so their timestamps line up.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            root: None,
            op_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of op `op_id`; every [`span`](Self::span) until
    /// [`end_op`](Self::end_op) becomes its child.
    pub fn begin_op(&mut self, name: &'static str, op_id: u64) {
        let now = self.now_ns();
        self.op_id = op_id;
        self.root = Some(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            op_id,
            count: 0,
        });
    }

    pub fn end_op(&mut self) {
        let now = self.now_ns();
        if let Some(root) = self.root.take() {
            self.spans[root as usize].end_ns = now;
        }
    }

    /// Times `f` as a child of the open op; `f` returns its value and the
    /// work count to file with the span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let start_ns = self.now_ns();
        let (value, count) = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.root,
            op_id: self.op_id,
            count,
        });
        value
    }

    /// Files an interval that just ended and was timed elsewhere (the
    /// end-to-end call is timed by the closed loop itself, before the op's
    /// root opens); the root is stretched back to cover it.
    pub fn record(&mut self, name: &'static str, dur_ns: u64, count: u64) {
        let end_ns = self.now_ns().max(dur_ns);
        let start_ns = end_ns - dur_ns;
        if let Some(root) = self.root {
            let root = &mut self.spans[root as usize];
            root.start_ns = root.start_ns.min(start_ns);
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.root,
            op_id: self.op_id,
            count,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The spans of one traced op, by stage name.
#[derive(Debug, Clone)]
pub struct OpSpans<'a> {
    pub root: &'a Span,
    pub children: Vec<&'a Span>,
}

impl OpSpans<'_> {
    /// Summed duration of the op's spans called `name` (0 if none ran).
    pub fn ns(&self, name: &str) -> Option<u64> {
        let mut total = None;
        for s in self.children.iter().filter(|s| s.name == name) {
            *total.get_or_insert(0) += s.dur_ns();
        }
        total
    }

    pub fn count(&self, name: &str) -> Option<u64> {
        let mut total = None;
        for s in self.children.iter().filter(|s| s.name == name) {
            *total.get_or_insert(0) += s.count;
        }
        total
    }
}

/// Groups one tracer's spans by op, in recording order.
pub fn by_op(spans: &[Span]) -> Vec<OpSpans<'_>> {
    let mut ops: Vec<OpSpans<'_>> = Vec::new();
    let mut root_slot: Vec<Option<usize>> = vec![None; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        match span.parent {
            None => {
                root_slot[i] = Some(ops.len());
                ops.push(OpSpans {
                    root: span,
                    children: Vec::new(),
                });
            }
            Some(p) => {
                if let Some(slot) = root_slot[p as usize] {
                    ops[slot].children.push(span);
                }
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_hang_off_their_op_root() {
        let epoch = Instant::now();
        std::thread::sleep(std::time::Duration::from_micros(50));
        let mut t = Tracer::new(epoch);
        t.begin_op("op", 7);
        let v = t.span("stage.a", || (41 + 1, 3));
        t.record("e2e", 1000, 0);
        t.end_op();
        t.begin_op("op", 8);
        t.span("stage.a", || ((), 0));
        t.end_op();
        assert_eq!(v, 42);
        let spans = t.into_spans();
        let ops = by_op(&spans);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].root.op_id, 7);
        assert_eq!(ops[0].children.len(), 2);
        assert_eq!(ops[0].count("stage.a"), Some(3));
        assert_eq!(ops[0].ns("e2e"), Some(1000));
        assert_eq!(ops[0].ns("missing"), None);
        let (root, e2e) = (ops[0].root, ops[0].children[1]);
        assert!(root.start_ns <= e2e.start_ns && root.end_ns >= e2e.end_ns);
        assert_eq!(ops[1].children.len(), 1);
    }
}
