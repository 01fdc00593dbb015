//! In-memory spans for the traced run. The harness records a span around
//! each call it makes into a layer (name, start, end, parent, and the
//! update or request it served) and writes them out when the run ends.
//! Nothing is recorded when tracing is off.

use std::io::Write;
use std::path::Path;

/// One recorded span. Times are ns since the run's clock origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `vm.step_slice` or `ctl.installing`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Update index or request id the span served (0 when neither).
    pub key: u64,
}

/// The span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span; returns its index (for children) when tracing.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<u32>,
        key: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            key,
        });
        Some(id)
    }

    /// Re-times a span recorded before its end was known.
    pub fn close(&mut self, id: Option<u32>, end: u64) {
        if let Some(id) = id {
            self.spans[id as usize].end = end;
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as CSV (`id,name,start_ns,end_ns,parent,key,self_ns`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,key,self_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{i},{},{},{},{parent},{},{own}",
                s.name, s.start, s.end, s.key
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are counted once,
/// and a child's part outside its parent is ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
            key: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)), // overlaps the first child
            span(60, 70, Some(0)),
            span(62, 65, Some(3)),
            span(90, 150, Some(0)), // runs past its parent's end
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 30 - 10 - 10);
        assert_eq!(own[1], 20);
        assert_eq!(own[3], 10 - 3);
        assert_eq!(own[4], 3);
        assert_eq!(own[5], 60);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.record("x", 0, 1, None, 0), None);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        let root = t.record("root", 0, 0, None, 7);
        t.record("leaf", 1, 2, root, 7);
        t.close(root, 5);
        assert_eq!(t.spans()[0].end, 5);
        assert_eq!(self_times(t.spans()), vec![4, 1]);
    }
}
