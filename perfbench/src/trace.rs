//! In-memory span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer: name,
//! start, end, parent, and a group id shared by every span of one pair,
//! request or pass. They stay in memory until the run ends. A disabled
//! tracer records nothing and costs one branch per span.
//!
//! Parents come from a per-thread stack of open spans. Work a layer fans
//! out to its own threads (scoring workers) opens spans on threads with an
//! empty stack; those attach to the tracer's *ambient* span, which the
//! caller sets around the fanning-out call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans on this thread: `(id, group)`, innermost last.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder shared by the benchmark and its matcher decorator.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    /// `(id, group)` packed as two atomics; id 0 means "no ambient span".
    ambient_id: AtomicU64,
    ambient_group: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            ambient_id: AtomicU64::new(0),
            ambient_group: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span. `group` starts a new group (a pair, request or pass);
    /// `None` inherits the parent's. Closed when the guard drops.
    pub fn span(&self, name: &'static str, group: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, inherited) = STACK.with(|s| match s.borrow().last() {
            Some(&(pid, g)) => (Some(pid), g),
            None => match self.ambient_id.load(Ordering::SeqCst) {
                0 => (None, 0),
                pid => (Some(pid), self.ambient_group.load(Ordering::SeqCst)),
            },
        });
        let group = group.unwrap_or(inherited);
        STACK.with(|s| s.borrow_mut().push((id, group)));
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self,
                id,
                parent,
                group,
                name,
                start_ns: self.now_ns(),
            }),
        }
    }

    /// Make the innermost open span on this thread the parent of spans
    /// opened on threads with no open span, until the returned guard drops.
    pub fn ambient(&self) -> AmbientGuard<'_> {
        if self.enabled {
            if let Some((id, group)) = STACK.with(|s| s.borrow().last().copied()) {
                self.ambient_group.store(group, Ordering::SeqCst);
                self.ambient_id.store(id, Ordering::SeqCst);
            }
        }
        AmbientGuard { tracer: self }
    }

    /// Record a span whose interval was measured elsewhere (a request whose
    /// send and receive interleave with others on one thread). It has no
    /// parent and no children.
    pub fn record(&self, name: &'static str, group: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.close(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: None,
            group,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    fn close(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }
}

struct OpenSpan<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    group: u64,
    name: &'static str,
    start_ns: u64,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(o) = self.open.take() {
            let end_ns = o.tracer.now_ns();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.last().map(|&(id, _)| id) == Some(o.id) {
                    s.pop();
                }
            });
            o.tracer.close(Span {
                id: o.id,
                parent: o.parent,
                group: o.group,
                name: o.name,
                start_ns: o.start_ns,
                end_ns,
            });
        }
    }
}

/// Clears the ambient parent on drop.
pub struct AmbientGuard<'a> {
    tracer: &'a Tracer,
}

impl Drop for AmbientGuard<'_> {
    fn drop(&mut self) {
        self.tracer.ambient_id.store(0, Ordering::SeqCst);
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the parent, so
/// overlapping children from parallel threads are not counted twice).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| b > a)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Per-name totals: `(count, total duration, total self time)` in ns.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[&s.id];
    }
    out
}

/// Spans as tab-separated lines (`id parent group name start_ns end_ns`,
/// `-` for no parent), for the trace file written at the end of a run.
pub fn spans_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tgroup\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{parent}\t{}\t{}\t{}\t{}\n",
            s.id, s.group, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            group: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,30) ⊃ a1 [12,20); root ⊃ b [50,60).
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(2), 12, 20),
            span(4, Some(1), 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 10);
        assert_eq!(st[&2], 20 - 8);
        assert_eq!(st[&3], 8);
        assert_eq!(st[&4], 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two parallel children [10,40) and [20,50) cover [10,50); a third
        // [45,70) pokes past the parent's end and is clipped to [45,60).
        let spans = [
            span(1, None, 0, 60),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 45, 70),
        ];
        assert_eq!(self_times(&spans)[&1], 60 - 50);
        // Children fully covering the parent leave no self time.
        let spans = [
            span(1, None, 0, 10),
            span(2, Some(1), 0, 6),
            span(3, Some(1), 5, 10),
        ];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn guards_build_the_tree_and_groups() {
        let t = Tracer::new(true);
        {
            let _root = t.span("pass", Some(7));
            {
                let _child = t.span("stage", None);
                let _ambient = t.ambient();
                std::thread::scope(|s| {
                    s.spawn(|| drop(t.span("model", None)));
                });
            }
        }
        let spans = t.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect(n).clone();
        let (pass, stage, model) = (by_name("pass"), by_name("stage"), by_name("model"));
        assert_eq!(pass.parent, None);
        assert_eq!(stage.parent, Some(pass.id));
        assert_eq!(model.parent, Some(stage.id));
        assert!([pass.group, stage.group, model.group]
            .iter()
            .all(|&g| g == 7));
        let off = Tracer::new(false);
        drop(off.span("x", Some(1)));
        assert!(off.spans().is_empty());
    }
}
