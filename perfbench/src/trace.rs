//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every call it makes into a layer of
//! the system (a protocol run, a checker, a crypto or state-machine replay,
//! the event-loop probe). Spans stay in memory and are written out once,
//! when the run ends. A disabled tracer records nothing, so the untraced
//! runs that give the end-to-end metrics pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    pub protocol: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans while enabled; a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle for an open span; pass it back to [`Tracer::exit`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.enabled = enabled;
    }

    /// Open a span whose parent is the innermost open span.
    pub fn enter(
        &mut self,
        name: &'static str,
        workload: &'static str,
        protocol: &'static str,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            workload,
            protocol,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: calls, total time, and self time (total minus the
    /// time its direct children cover).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child);
        }
        out
    }

    /// The spans and their per-name summary as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n\"summary\": {");
        for (i, (name, (calls, total, own))) in self.summary().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  \"{name}\": {{\"calls\": {calls}, \"total_ns\": {total}, \"self_ns\": {own}}}"
            );
        }
        out.push_str("\n},\n\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n  {{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{}\", \"protocol\": \"{}\", \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.workload, s.protocol, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", "w", "");
        let inner = t.enter("inner", "w", "p");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let s = t.summary();
        let (_, outer_total, outer_self) = s["outer"];
        let (_, inner_total, _) = s["inner"];
        assert_eq!(outer_self, outer_total - inner_total);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", "w", "p");
        t.exit(id);
        assert_eq!(t.len(), 0);
    }
}
