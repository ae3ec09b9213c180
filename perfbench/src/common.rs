//! What every workload shares: the operation tally, timing samples and
//! their summaries, the benchmark's own spans, and the layer metrics
//! read from the program's obs registry.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::{metric, Metric, Traced};

/// Operations attempted and failed. Every checked operation goes through
/// [`Tally::check`]; nothing is retried.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, printed for diagnosis.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `outcome` is an error.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(format!("{what}: {problem}"));
            }
        }
    }
}

/// Wall-time samples of one arm, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, elapsed: Duration) {
        self.0.push(elapsed.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// The median and the highest of p50/p90/p99/p99.9 with at least ten
    /// samples beyond it, as a printable note with the sample count.
    pub fn summary(&self) -> String {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        // Percentiles in tenths of a percent; `rank` is the 1-based
        // position of the percentile's sample.
        let tail = [999, 990, 900, 500]
            .into_iter()
            .map(|p| (p, (n * p).div_ceil(1000)))
            .find(|&(_, rank)| rank > 0 && n - rank >= 10);
        match tail {
            Some((p, rank)) => format!(
                "median {:.4} of {n}; p{} = {:.4}",
                self.median(),
                p as f64 / 10.0,
                sorted[rank - 1]
            ),
            None => format!(
                "median {:.4} of {n}; max = {:.4} (fewer than 20 samples, no tail percentile)",
                self.median(),
                sorted.last().copied().unwrap_or(f64::NAN)
            ),
        }
    }
}

/// The median, averaging the middle pair of an even count (NaN when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One recorded span of the benchmark's own tracing.
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// The benchmark's span recorder: spans around each call into a layer's
/// public functions, kept in memory and written out when the run ends.
/// Only the generator thread records, so no locking is needed. When
/// disabled, [`Tracer::span`] only runs the closure.
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    next_id: Cell<u64>,
    open: RefCell<Vec<u64>>,
    spans: RefCell<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: Cell::new(false),
            epoch: Instant::now(),
            next_id: Cell::new(0),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Turns span recording and the program's obs registry on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
        setagree_obs::set_enabled(on);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let parent = self.open.borrow().last().copied();
        self.open.borrow_mut().push(id);
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut().push(SpanRecord {
            id,
            parent,
            name,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
        });
        out
    }

    /// Total duration, in milliseconds, and count of the spans named
    /// `name`.
    pub fn total_ms(&self, name: &str) -> (f64, usize) {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| {
                (ms + (s.end_us - s.start_us) / 1e3, n + 1)
            })
    }

    /// The recorded spans as JSON lines, in completion order.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.id, s.name, s.start_us, s.end_us
            );
        }
        out
    }
}

/// `part / whole`, or 0 when nothing was measured.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The simulator engine's obs figures.
pub fn engine_metrics(traced: &Traced) -> Vec<Metric> {
    let (rounds, round_us) = traced.histogram("engine_round_duration_us");
    vec![
        metric(
            "sync.round_us",
            ratio(round_us as f64, rounds as f64),
            "us",
            format!("engine_round_duration_us: {round_us} us / {rounds} rounds"),
        ),
        metric(
            "sync.messages_delivered",
            traced.per_cycle(traced.obs.counter("engine_messages_delivered")),
            "count",
            "engine_messages_delivered per traced cycle",
        ),
    ]
}

/// The worker pool's obs figures. The program's `pool_handoff_wait_us`
/// measures how long a parked worker idled before its next task, so it
/// is reported as `runtime.pool.idle_park_us`.
pub fn pool_metrics(traced: &Traced) -> Vec<Metric> {
    let spawned = traced.obs.counter("pool_workers_spawned");
    let reused = traced.obs.counter("pool_workers_reused");
    let expired = traced.obs.counter("pool_workers_expired");
    let (parks, park_us) = traced.histogram("pool_handoff_wait_us");
    vec![
        metric(
            "runtime.pool.spawned",
            traced.per_cycle(spawned),
            "count",
            "pool_workers_spawned per traced cycle",
        ),
        metric(
            "runtime.pool.reused",
            traced.per_cycle(reused),
            "count",
            "pool_workers_reused per traced cycle",
        ),
        metric(
            "runtime.pool.expired",
            traced.per_cycle(expired),
            "count",
            "pool_workers_expired per traced cycle",
        ),
        metric(
            "runtime.pool.reuse_share",
            ratio(reused as f64, (spawned + reused) as f64),
            "ratio",
            format!("{reused}/{} tasks ran on a parked worker", spawned + reused),
        ),
        metric(
            "runtime.pool.idle_park_us",
            traced.per_cycle(park_us),
            "us",
            format!("pool_handoff_wait_us per traced cycle ({parks} parks)"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_expectation_is_counted_not_passed() {
        let mut tally = Tally::default();
        tally.check("right", Ok(()));
        tally.check("wrong", Err("expected 3, got 4".into()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.problems[0].contains("expected 3"));
    }

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let samples = Samples((1..=100).map(f64::from).collect());
        assert_eq!(samples.summary(), "median 50.5000 of 100; p90 = 90.0000");
        let few = Samples(vec![1.0, 2.0]);
        assert!(few.summary().contains("no tail percentile"));
    }

    #[test]
    fn spans_record_their_parent() {
        let tracer = Tracer::new();
        tracer.enabled.set(true);
        tracer.span("outer", || {
            tracer.span("inner", || std::thread::sleep(Duration::from_millis(20)));
        });
        assert!(tracer.total_ms("outer").0 >= 20.0);
        let lines = tracer.to_json_lines();
        assert!(lines.starts_with("{\"id\": 1, \"parent\": 0, \"name\": \"inner\""));
        assert!(lines
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\": null, \"name\": \"outer\""));
    }
}
