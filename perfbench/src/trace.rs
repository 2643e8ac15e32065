//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! program's public API; nothing inside the program is instrumented.
//! Each thread records into its own [`Recorder`]; the recorders are
//! merged and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span ids are unique across threads. The counter publishes no other
/// data, so relaxed ordering suffices.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Request, deploy or repetition number: spans of one request share it.
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span sink. A disabled recorder records nothing, so the
/// untraced run pays only for the branch.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A fresh recorder on the same clock, for another thread.
    pub fn fork(&self) -> Self {
        Self::new(self.origin, self.enabled)
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        seq: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            name,
            seq,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
        id
    }

    /// Reserves an id for a parent span whose children finish first;
    /// [`Recorder::record_as`] records the parent under it.
    pub fn reserve(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        seq: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            id,
            parent: 0,
            name,
            seq,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        });
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Durations of every span called `name` whose parent is called
    /// `parent`, in milliseconds.
    pub fn child_durations_ms(&self, parent: &str, name: &str) -> Vec<f64> {
        let parents: std::collections::BTreeSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == parent)
            .map(|s| s.id)
            .collect();
        self.spans
            .iter()
            .filter(|s| s.name == name && parents.contains(&s.parent))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span called `name`, in milliseconds: its
    /// duration minus the part of it that its children cover.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut covered = 0;
                let mut reach = s.start_ns;
                let mut kids = children.get(&s.id).cloned().unwrap_or_default();
                kids.sort_unstable();
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.duration_ns() - covered) as f64 / 1e6
            })
            .collect()
    }

    /// Writes every span as one CSV row, sorted by start time.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,seq,start_ns,end_ns")?;
        for s in spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.name, s.seq, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let at = |ms| origin + Duration::from_millis(ms);
        let mut rec = Recorder::new(origin, true);
        let parent = rec.reserve();
        let a = rec.record("a", 0, parent, at(1), at(4));
        rec.record("b", 0, parent, at(3), at(6));
        rec.record("grandchild", 0, a, at(1), at(2));
        rec.record_as(parent, "p", 0, at(0), at(10));
        assert_eq!(rec.self_times_ms("p"), vec![5.0]);
        assert_eq!(rec.durations_ms("b"), vec![3.0]);
        assert_eq!(rec.child_durations_ms("p", "a"), vec![3.0]);
        assert!(rec.child_durations_ms("b", "grandchild").is_empty());
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, false);
        assert_eq!(rec.record("a", 0, 0, origin, origin), 0);
        assert!(rec.spans().is_empty());
    }
}
