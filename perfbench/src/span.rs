//! The benchmark's own span log.
//!
//! Every call the benchmark makes into a layer's public function goes
//! through [`Spans::time`], which always returns the call's wall seconds
//! and, when tracing is on, also appends a span (name, start, end, parent,
//! run id) to an in-memory log. Nothing is written until [`Spans::write`]
//! at the end of the run, so the log costs one `Vec` push per call.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `crate::function` of the called layer, e.g. `keystone-core::Pipeline::fit`.
    pub name: &'static str,
    /// Microseconds since the log's epoch.
    pub start_us: f64,
    /// Microseconds since the log's epoch.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Benchmark cycle the call belongs to (0 = set-up and probes).
    pub run: u32,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

/// Span recorder; recording is on only in traced cycles and probes.
pub struct Spans {
    epoch: Instant,
    enabled: RefCell<bool>,
    log: RefCell<Log>,
}

impl Spans {
    /// An empty log, recording when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            enabled: RefCell::new(enabled),
            log: RefCell::new(Log::default()),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&self, on: bool) {
        *self.enabled.borrow_mut() = on;
    }

    /// Sets the run id stamped on the spans that follow.
    pub fn set_run(&self, run: u32) {
        self.log.borrow_mut().run = run;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f`, returning its value and wall seconds; records a span named
    /// `name` around it when recording is on.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !*self.enabled.borrow() {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed().as_secs_f64());
        }
        let id = {
            let mut log = self.log.borrow_mut();
            let span = Span {
                name,
                start_us: self.now_us(),
                end_us: 0.0,
                parent: log.open.last().copied(),
                run: log.run,
            };
            log.spans.push(span);
            let id = log.spans.len() - 1;
            log.open.push(id);
            id
        };
        let out = f();
        let mut log = self.log.borrow_mut();
        let end = self.now_us();
        log.spans[id].end_us = end;
        log.open.pop();
        let secs = log.spans[id].secs();
        (out, secs)
    }

    /// Durations in seconds of every closed span whose name starts with `prefix`.
    pub fn secs_of(&self, prefix: &str) -> Vec<f64> {
        self.log
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::secs)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.log.borrow().spans.len()
    }

    /// Writes the log as JSON lines: one header object, then one object
    /// per span with its layer (the crate part of the name).
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.log.borrow().spans.iter().enumerate() {
            let layer = s.name.split("::").next().unwrap_or(s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{layer}\",\"start_us\":{:.1},\
                 \"end_us\":{:.1},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_us, s.end_us, s.run
            )?;
        }
        out.flush()
    }
}
