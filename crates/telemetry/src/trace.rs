//! Hierarchical span tracing with monotonic timestamps.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies one recorded span within its [`Tracer`].
///
/// `Copy`, so it can be handed across threads (the parallel executor
/// parents every worker's node spans under the query span's id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// The raw index of the span in [`Tracer::records`] order.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a span id from its raw index — for decoding span
    /// forests that crossed a process boundary (wire replies carry
    /// parent links as raw indices).
    pub fn from_raw(raw: u32) -> SpanId {
        SpanId(raw)
    }
}

/// One finished (or still-open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name. The leading whitespace-delimited token is the stable
    /// *phase* (`rewrite`, `fold`, `read`, …); anything after it is
    /// free-form detail (`read c0:I^3`).
    pub name: String,
    /// Parent span, if any.
    pub parent: Option<SpanId>,
    /// Nanoseconds from the tracer's origin to span start (monotonic).
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to span end. While the span
    /// is open this holds the latest end among its closed children (or
    /// `start_ns` if none), so containment holds at every instant.
    pub end_ns: u64,
    /// Key/value annotations (scan counts, byte counts, wait times, …).
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The leading phase token of the span name.
    pub fn phase(&self) -> &str {
        self.name.split_whitespace().next().unwrap_or(&self.name)
    }
}

struct TraceBuf {
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Collects a tree of timed spans.
///
/// A `Tracer` is either *enabled* (backed by a shared span buffer) or
/// *disabled* (a `None`; every operation is a no-op costing one branch).
/// Clones share the same buffer, and the type is `Send + Sync`, so one
/// tracer can collect spans from every worker thread of a parallel batch.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TraceBuf>>,
}

impl Tracer {
    /// An enabled tracer with an empty span buffer.
    pub fn new() -> Tracer {
        Tracer {
            inner: Some(Arc::new(TraceBuf {
                origin: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A disabled tracer: records nothing, allocates nothing.
    pub const fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span under `parent` (`None` for a root span). The span
    /// closes — records its end timestamp — when the returned guard is
    /// dropped or [`SpanGuard::finish`]ed.
    pub fn span(&self, name: &str, parent: Option<SpanId>) -> SpanGuard {
        let Some(buf) = &self.inner else {
            return SpanGuard { inner: None };
        };
        let start_ns = buf.origin.elapsed().as_nanos() as u64;
        let mut spans = buf.spans.lock().expect("span buffer");
        let id = u32::try_from(spans.len()).expect("too many spans");
        spans.push(SpanRecord {
            name: name.to_owned(),
            parent,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        SpanGuard {
            inner: Some((Arc::clone(buf), id)),
        }
    }

    /// Grafts a span forest recorded by another process (a shard's
    /// reply) into this tracer under `parent`.
    ///
    /// Remote parent links are raw indices local to the remote tracer;
    /// they are remapped by this tracer's current length. Remote roots
    /// (and any entry whose parent link does not point at an earlier
    /// remote span — a malformed forest) hang under `parent`. Remote
    /// timestamps count from the remote tracer's origin, so they are
    /// shifted by `base_ns` — pass the enclosing span's `start_ns` to
    /// align the remote forest at the moment the request went out. The
    /// two clocks never mix: alignment is an offset, not a sync.
    ///
    /// Returns the id of the first grafted span (`None` when disabled
    /// or `remote` is empty).
    pub fn graft(
        &self,
        parent: Option<SpanId>,
        remote: &[SpanRecord],
        base_ns: u64,
    ) -> Option<SpanId> {
        let buf = self.inner.as_ref()?;
        let mut spans = buf.spans.lock().expect("span buffer");
        let offset = u32::try_from(spans.len()).expect("too many spans");
        for (i, r) in remote.iter().enumerate() {
            let parent = match r.parent {
                Some(p) if (p.raw() as usize) < i => Some(SpanId(p.raw() + offset)),
                _ => parent,
            };
            spans.push(SpanRecord {
                name: r.name.clone(),
                parent,
                start_ns: r.start_ns.saturating_add(base_ns),
                end_ns: r.end_ns.saturating_add(base_ns),
                attrs: r.attrs.clone(),
            });
        }
        if remote.is_empty() {
            None
        } else {
            Some(SpanId(offset))
        }
    }

    /// The recorded start timestamp of one span, without cloning the
    /// whole buffer — the router uses it to align grafted shard forests
    /// at the moment their request went out. `None` when disabled or
    /// out of range.
    pub fn start_ns(&self, id: SpanId) -> Option<u64> {
        let buf = self.inner.as_ref()?;
        let spans = buf.spans.lock().expect("span buffer");
        spans.get(id.raw() as usize).map(|r| r.start_ns)
    }

    /// Snapshot of every span recorded so far, in creation order.
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(buf) => buf.spans.lock().expect("span buffer").clone(),
            None => Vec::new(),
        }
    }

    /// Renders the span forest as an indented human-readable tree with
    /// durations and attributes, one span per line.
    pub fn render_tree(&self) -> String {
        let records = self.records();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
        let mut roots = Vec::new();
        for (i, r) in records.iter().enumerate() {
            match r.parent {
                Some(p) => children[p.raw() as usize].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        fn emit(
            out: &mut String,
            records: &[SpanRecord],
            children: &[Vec<usize>],
            i: usize,
            depth: usize,
        ) {
            let r = &records[i];
            let indent = "  ".repeat(depth);
            let mut line = format!("{indent}{}  {}", r.name, fmt_ns(r.duration_ns()));
            for (k, v) in &r.attrs {
                line.push_str(&format!("  {k}={v}"));
            }
            out.push_str(&line);
            out.push('\n');
            for &c in &children[i] {
                emit(out, records, children, c, depth + 1);
            }
        }
        for &root in &roots {
            emit(&mut out, &records, &children, root, 0);
        }
        out
    }

    /// Renders every span as one JSON object per line (JSONL), in
    /// creation order: `{"span": i, "parent": p|null, "name": "...",
    /// "start_ns": ..., "end_ns": ..., "duration_ns": ..., "attrs": {...}}`.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.records().iter().enumerate() {
            out.push_str(&format!(
                "{{\"span\": {i}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"duration_ns\": {}, \"attrs\": {{",
                match r.parent {
                    Some(p) => p.raw().to_string(),
                    None => "null".to_owned(),
                },
                crate::json::escape(&r.name),
                r.start_ns,
                r.end_ns,
                r.duration_ns(),
            ));
            for (j, (k, v)) in r.attrs.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{}: {}",
                    crate::json::escape(k),
                    crate::json::escape(v)
                ));
            }
            out.push_str("}}\n");
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Formats a nanosecond duration with a human-friendly unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}µs", ns as f64 / 1e3)
    }
}

/// Open handle to a span; closes the span on drop.
///
/// A guard from a disabled tracer is inert: [`SpanGuard::id`] is `None`
/// and every method is a no-op.
pub struct SpanGuard {
    inner: Option<(Arc<TraceBuf>, u32)>,
}

impl SpanGuard {
    /// The span's id, for parenting children (`None` when disabled).
    pub fn id(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|(_, id)| SpanId(*id))
    }

    /// Attaches a key/value annotation to the span.
    pub fn attr(&self, key: &str, value: impl std::fmt::Display) {
        if let Some((buf, id)) = &self.inner {
            let mut spans = buf.spans.lock().expect("span buffer");
            spans[*id as usize]
                .attrs
                .push((key.to_owned(), value.to_string()));
        }
    }

    /// Closes the span now (otherwise it closes on drop).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((buf, id)) = &self.inner {
            let end_ns = buf.origin.elapsed().as_nanos() as u64;
            let mut spans = buf.spans.lock().expect("span buffer");
            spans[*id as usize].end_ns = end_ns;
            // A guard can migrate across worker-pool threads and close
            // *after* its parent's guard already did (a stolen task
            // finishing late). The parent link is correct — it was
            // captured at open — but the recorded windows would say the
            // child escaped its parent, which breaks every consumer
            // that attributes child time to parents. A parent is not
            // logically finished while work it spawned is in flight, so
            // stretch each already-closed ancestor to cover this close.
            let mut next = spans[*id as usize].parent;
            while let Some(p) = next {
                let rec = &mut spans[p.raw() as usize];
                if rec.end_ns >= end_ns {
                    break;
                }
                rec.end_ns = end_ns;
                next = rec.parent;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let s = t.span("query", None);
        assert!(s.id().is_none());
        s.attr("k", 1);
        drop(s);
        assert!(t.records().is_empty());
        assert!(t.render_tree().is_empty());
        assert!(t.render_jsonl().is_empty());
    }

    #[test]
    fn spans_nest_and_children_fit_inside_parents() {
        let t = Tracer::new();
        let root = t.span("query =5", None);
        {
            let rewrite = t.span("rewrite", root.id());
            let _inner = t.span("decompose lo", rewrite.id());
        }
        let eval = t.span("eval", root.id());
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(eval);
        drop(root);

        let records = t.records();
        assert_eq!(records.len(), 4);
        let root_r = &records[0];
        // Every child's window is inside its parent's, so sibling child
        // durations sum to at most the parent's duration.
        for r in &records[1..] {
            let p = &records[r.parent.unwrap().raw() as usize];
            assert!(r.start_ns >= p.start_ns);
            assert!(
                r.end_ns <= p.end_ns,
                "{} outlives parent {}",
                r.name,
                p.name
            );
        }
        let child_sum: u64 = records[1..]
            .iter()
            .filter(|r| r.parent == Some(SpanId(0)))
            .map(SpanRecord::duration_ns)
            .sum();
        assert!(child_sum <= root_r.duration_ns());
        assert_eq!(root_r.phase(), "query");
    }

    #[test]
    fn tree_and_jsonl_render() {
        let t = Tracer::new();
        let root = t.span("query", None);
        let child = t.span("read c0:I^3", root.id());
        child.attr("bytes", 4096);
        drop(child);
        drop(root);

        let tree = t.render_tree();
        assert!(tree.contains("query"));
        assert!(tree.contains("  read c0:I^3"), "{tree}");
        assert!(tree.contains("bytes=4096"));

        let jsonl = t.render_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            crate::json::parse(line).expect("every JSONL line parses");
        }
    }

    /// Regression: a span opened on one worker and closed on another
    /// *after* its parent closed (a stolen task finishing late) must
    /// keep its recorded parent and stay inside the parent's window.
    /// The interleaving is forced with channels, not timing.
    #[test]
    fn cross_thread_close_after_parent_keeps_containment() {
        let t = Tracer::new();
        let root = t.span("batch", None);
        let child = t.span("query 0", root.id());
        let (parent_closed_tx, parent_closed_rx) = std::sync::mpsc::channel::<()>();
        let stealer = std::thread::spawn(move || {
            // The "stealing" worker holds the child guard and only
            // closes it once the parent is already gone.
            parent_closed_rx.recv().expect("parent close signal");
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(child);
        });
        drop(root);
        parent_closed_tx.send(()).expect("signal stealer");
        stealer.join().expect("stealer thread");

        let records = t.records();
        assert_eq!(records.len(), 2);
        let (parent, child) = (&records[0], &records[1]);
        assert_eq!(child.parent, Some(SpanId(0)), "parent link must survive");
        assert!(child.duration_ns() > 0);
        assert!(
            child.end_ns <= parent.end_ns,
            "child ({}..{}) escaped its parent ({}..{})",
            child.start_ns,
            child.end_ns,
            parent.start_ns,
            parent.end_ns,
        );
    }

    /// The stretch in `Drop` must walk the whole ancestor chain, not
    /// just the immediate parent.
    #[test]
    fn late_close_stretches_every_ancestor() {
        let t = Tracer::new();
        let root = t.span("batch", None);
        let query = t.span("query 0", root.id());
        let node = t.span("node 3 and", query.id());
        drop(query);
        drop(root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        drop(node);

        let records = t.records();
        let end = records[2].end_ns;
        assert!(records[1].end_ns >= end, "query must cover the late node");
        assert!(records[0].end_ns >= end, "root must cover the late node");
    }

    #[test]
    fn graft_remaps_remote_parents_and_rebases_time() {
        let remote = Tracer::new();
        {
            let r = remote.span("serve", None);
            let q = remote.span("query =5", r.id());
            let _e = remote.span("eval", q.id());
            let _orphan = remote.span("detached", None);
        }
        let shipped = remote.records();

        let local = Tracer::new();
        let leg = local.span("leg 2", None);
        let leg_id = leg.id();
        let base = local.records()[0].start_ns;
        let first = local.graft(leg_id, &shipped, base).expect("grafted");
        drop(leg);

        let records = local.records();
        assert_eq!(records.len(), 1 + shipped.len());
        let off = first.raw() as usize;
        // Remote roots hang under the leg; interior links are remapped.
        assert_eq!(records[off].parent, leg_id);
        assert_eq!(records[off + 1].parent, Some(first));
        assert_eq!(records[off + 3].parent, leg_id, "second remote root");
        for (r, s) in records[off..].iter().zip(&shipped) {
            assert_eq!(r.start_ns, s.start_ns + base);
            assert_eq!(r.end_ns, s.end_ns + base);
        }
        // The grafted forest renders as one tree under the leg.
        let tree = local.render_tree();
        assert!(tree.contains("leg 2"), "{tree}");
        assert!(tree.contains("  serve"), "{tree}");
        assert!(tree.contains("    query =5"), "{tree}");
    }

    #[test]
    fn graft_treats_malformed_forward_links_as_roots() {
        let local = Tracer::new();
        let leg = local.span("leg 0", None);
        let leg_id = leg.id();
        // A forward/self parent link could never come from a real
        // tracer; it must not produce a cycle or an out-of-range index.
        let bogus = vec![SpanRecord {
            name: "evil".into(),
            parent: Some(SpanId(7)),
            start_ns: 0,
            end_ns: 1,
            attrs: Vec::new(),
        }];
        local.graft(leg_id, &bogus, 0);
        drop(leg);
        let records = local.records();
        assert_eq!(records[1].parent, leg_id);
        // render_tree must not panic on the result.
        assert_eq!(local.render_tree().lines().count(), 2);
    }

    #[test]
    fn graft_on_disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        let spans = vec![SpanRecord {
            name: "x".into(),
            parent: None,
            start_ns: 0,
            end_ns: 1,
            attrs: Vec::new(),
        }];
        assert!(t.graft(None, &spans, 0).is_none());
        assert!(t.records().is_empty());
    }

    #[test]
    fn tracer_collects_across_threads() {
        let t = Tracer::new();
        let root = t.span("batch", None);
        let root_id = root.id();
        std::thread::scope(|scope| {
            for i in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    let s = t.span(&format!("query {i}"), root_id);
                    s.attr("thread", i);
                });
            }
        });
        drop(root);
        let records = t.records();
        assert_eq!(records.len(), 5);
        assert_eq!(
            records.iter().filter(|r| r.parent == root_id).count(),
            4,
            "all worker spans parented under the batch root"
        );
    }
}
