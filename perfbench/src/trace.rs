//! In-memory span recorder for the traced run.
//!
//! A span covers one of the benchmark's own calls into a workspace
//! crate: its layer (the crate), a call name, start and end, and the span
//! that was open when it began. Spans of one operation share the index
//! of their root span as a trace id. Nothing is recorded when tracing is
//! off, so the untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The recorder. One per thread; [`Tracer::absorb`] merges them.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between operations (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `layer`/`name`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now();
        result
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Merge another thread's spans (their parents are re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Durations in milliseconds of every span called `layer`/`name`.
    pub fn durations_ms(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total duration in milliseconds of the spans called `layer`/`name`.
    pub fn total_ms(&self, layer: &str, name: &str) -> f64 {
        self.durations_ms(layer, name).iter().sum()
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the part its children cover. Children of one span never overlap
    /// (each thread records its own nested stack).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *by_layer.entry(span.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        by_layer
    }

    /// Write every span as tab-separated lines: id, trace id (the root
    /// span), parent, layer, name, start and end in ns since the epoch.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut root = vec![0usize; self.spans.len()];
        let mut out = String::from("id\ttrace\tparent\tlayer\tname\tstart_ns\tend_ns\n");
        for (i, span) in self.spans.iter().enumerate() {
            root[i] = span.parent.map_or(i, |p| root[p]);
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                root[i], span.layer, span.name, span.start_ns, span.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("fault", "run", |t| {
            std::thread::sleep(std::time::Duration::from_millis(4));
            t.span("leon3", "step", |_| {
                std::thread::sleep(std::time::Duration::from_millis(8));
            });
        });
        let by_layer = t.self_ms_by_layer();
        let total = t.total_ms("fault", "run");
        assert!(by_layer["leon3"] >= 8.0 && by_layer["fault"] >= 4.0);
        assert!((by_layer["fault"] + by_layer["leon3"] - total).abs() < 1e-6);
        let mut off = Tracer::new(false, Instant::now());
        off.span("fault", "run", |_| ());
        assert!(off.self_ms_by_layer().is_empty());
    }
}
