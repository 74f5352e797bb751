//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer's public functions (name, start, end, parent), kept in memory,
//! and written out once at the end as Chrome trace-event JSON plus a
//! per-name self-time table on standard error. When tracing is off every
//! call is a plain pass-through, so the untraced run times the same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (nested under the innermost
    /// open span).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Per-name `(count, total seconds, self seconds)`; a span's self time
    /// is its duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans.borrow();
        let mut child_secs = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let e = table.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += s.secs() - child_secs[i];
        }
        table
    }

    /// Writes every span as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps) and prints the self-time table to stderr.
    pub fn write_out(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        let spans = self.spans.borrow();
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()?;
        eprintln!("spans written to {}", path.display());
        eprintln!(
            "{:<34} {:>7} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, (count, total, own)) in self.self_times() {
            eprintln!("{name:<34} {count:>7} {total:>12.6} {own:>12.6}");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let table = t.self_times();
        let (_, outer_total, outer_self) = table["outer"];
        let (_, inner_total, _) = table["inner"];
        assert!(inner_total >= 0.005);
        assert!((outer_total - inner_total - outer_self).abs() < 1e-9);
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.self_times().is_empty());
    }
}
