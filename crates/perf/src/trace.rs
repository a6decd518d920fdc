//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A [`Tracer`] is either off — every instrumentation site is then one
//! branch and the call itself — or on, recording one [`Span`] per call:
//! name, start, end, the span that was open when it started, and the id
//! of the workload operation it belongs to. Spans stay in memory until
//! the run ends and are then written as one JSON file.
//!
//! A **probe** span ([`Tracer::probe`]) is a call the harness repeats
//! *after* the real one, with the same inputs, to price a layer that is
//! reachable only inside another public call. It is filed under the real
//! span as its parent but lies outside the parent's interval, so it never
//! counts towards the parent's covered time.

use std::time::Instant;

/// "No parent" marker in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.session.execute_pinned`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// The workload operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// `end − start` in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Is this tracer recording?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Set the operation id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }

    /// Run `f` inside a childless span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, |_| f())
    }

    /// Run `f` as a probe of span `of`: recorded with `of` as its parent
    /// but outside that span's interval.
    pub fn probe<R>(&mut self, of: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.probe_as(of, || (name, f()))
    }

    /// [`Tracer::probe`] for a call whose span name depends on its
    /// result (a cache probe is a hit or a miss only afterwards).
    pub fn probe_as<R>(&mut self, of: u32, f: impl FnOnce() -> (&'static str, R)) -> R {
        if !self.on {
            return f().1;
        }
        let start_ns = self.now_ns();
        let (name, r) = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: of,
            op: self.op,
        });
        r
    }

    /// Index the next span will get (to name it as a probe's parent).
    pub fn next_id(&self) -> u32 {
        self.spans.len() as u32
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON document (`unit` and one array of spans).
    pub fn to_json(&self, workload: &str) -> String {
        let mut s = String::with_capacity(64 + 96 * self.spans.len());
        s.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":["
        ));
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = if sp.parent == ROOT {
                "null".to_string()
            } else {
                sp.parent.to_string()
            };
            s.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            ));
        }
        s.push_str("]}");
        s
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children are clipped to the parent's interval and
/// overlapping children are counted once; a child lying wholly outside
/// (a probe) subtracts nothing.
pub fn self_ns(spans: &[Span], id: u32) -> u64 {
    let me = &spans[id as usize];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

/// Durations (ns) of every span called `name`, sorted ascending.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    d.sort_unstable();
    d
}

/// Mean duration (µs) of the spans called `name`; 0 if there are none.
pub fn mean_us(spans: &[Span], name: &str) -> f64 {
    let (n, total) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns()));
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64 / 1e3
    }
}

/// Total duration (ns) of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Per span name: calls and total duration (ns), sorted by name.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
    }
    by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_covered_child_intervals() {
        let spans = vec![
            sp("parent", 100, 200, ROOT),
            sp("inside", 110, 130, 0),
            sp("overlaps_inside", 120, 150, 0), // 20 of it already covered
            sp("straddles_end", 190, 260, 0),   // only 10 lie inside
            sp("probe_after", 300, 400, 0),     // outside: subtracts nothing
            sp("someone_elses", 140, 160, 1),   // not a child of 0
        ];
        // covered = [110,150) ∪ [190,200) = 40 + 10
        assert_eq!(self_ns(&spans, 0), 100 - 50);
        assert_eq!(self_ns(&spans, 4), 100);
    }

    #[test]
    fn spans_nest_and_probes_attach_outside() {
        let mut t = Tracer::on();
        t.set_op(7);
        let outer = t.next_id();
        t.span("outer", |t| {
            t.leaf("inner", || std::hint::black_box(1 + 1));
        });
        t.probe(outer, "probe", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (ROOT, 0, 0));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(s[2].start_ns >= s[0].end_ns);
        assert!(s.iter().all(|x| x.op == 7));
        assert!(t.to_json("w").contains("\"name\":\"inner\""));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("a", |t| t.leaf("b", || 3)), 3);
        assert_eq!(t.probe(0, "c", || 4), 4);
        assert!(t.spans().is_empty());
    }
}
