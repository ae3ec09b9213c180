//! The repository benchmark's measuring binary. `run.py` builds it and
//! the release `setagree-node` binary, then runs it as
//!
//! ```text
//! perfbench --workload sweep|flood|testnet --seed N --seconds S --trace 0|1 \
//!     --node-bin PATH --out-dir DIR [--scale full|tiny]
//! ```
//!
//! Every workload is a closed loop: this thread issues the next
//! operation only after the previous one returned, and runs *cycles*
//! (one pass over each of the workload's arms) until `--seconds` have
//! passed. Every operation's result is checked and counted.
//!
//! `--trace 0` measures with tracing off and prints the end-to-end
//! metrics. `--trace 1` alternates untraced and traced cycles — traced
//! ones enable the program's obs registry and record the benchmark's
//! own spans — then runs the per-layer probes, and prints the per-layer
//! metrics, including the tracing overhead. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod common;
mod flood;
mod sweep;
mod testnet;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{peak_rss_mib, ratio, timed, Samples, Tally, Tracer};
use setagree_obs::{MetricValue, Snapshot};

/// Set-ups before the first cycle.
const INITIAL_SETUPS: usize = 11;

/// The end-to-end metrics, in `BENCHMARK.json` order: every workload
/// prints all of them.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("cycle_ms", "ms"), ("peak_rss_mb", "MiB")];

/// The per-layer metrics, in `BENCHMARK.json` order. A traced run
/// prints all of them; one its workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Each workload's per-arm figures, from its untraced cycles.
    ("failed_frac", "ratio"),
    ("sweep_cold_cells_per_s", "cells/s"),
    ("sweep_warm_cells_per_s", "cells/s"),
    ("flood_sim_ms", "ms"),
    ("flood_sim_scenario_ms", "ms"),
    ("flood_threaded_ms", "ms"),
    ("flood_loopback_ms", "ms"),
    ("flood_faulty_ms", "ms"),
    ("tcp_clean_ms", "ms"),
    ("tcp_kill_ms", "ms"),
    ("tcp_chaos_ms", "ms"),
    ("conditions.contains_us", "us"),
    ("conditions.in_condition_share", "ratio"),
    ("sync.cell_ms", "ms"),
    ("sync.round_us", "us"),
    ("sync.messages_delivered", "count"),
    ("sync.fast_path_share", "ratio"),
    ("async.shm_cell_ms", "ms"),
    ("async.mp_cell_ms", "ms"),
    ("async.steps", "count"),
    ("core.suite.self_ms", "ms"),
    ("core.suite.queue_wait_us", "us"),
    ("core.suite.cell_latency_us", "us"),
    ("core.suite.parallel_gain.cold", "ratio"),
    ("core.suite.parallel_gain.warm", "ratio"),
    ("core.cache.hit_share.cold", "ratio"),
    ("core.cache.hit_share.warm", "ratio"),
    ("core.cache.resume_journal_ms", "ms"),
    ("codec.journal.bytes", "bytes"),
    ("codec.journal.records", "count"),
    ("codec.journal.replay_mb_per_s", "MB/s"),
    ("runtime.threaded_overhead_ms", "ms"),
    ("runtime.pool.spawn_join_us", "us"),
    ("runtime.pool.spawned", "count"),
    ("runtime.pool.reused", "count"),
    ("runtime.pool.expired", "count"),
    ("runtime.pool.reuse_share", "ratio"),
    ("runtime.pool.idle_park_us", "us"),
    ("node.loopback_overhead_ms", "ms"),
    ("node.fault_overhead_ms", "ms"),
    ("node.round_us", "us"),
    ("node.messages_delivered", "count"),
    ("node.fault.dropped", "count"),
    ("node.fault.delayed", "count"),
    ("node.fault.duplicated", "count"),
    ("node.tcp.frames_sent", "count"),
    ("node.tcp.frames_received", "count"),
    ("node.tcp.frames_resent", "count"),
    ("node.tcp.relays_served", "count"),
    ("node.tcp.redial_attempts", "count"),
    ("node.tcp.redials_ok", "count"),
    ("node.tcp.redials_failed", "count"),
    ("node.tcp.peers_confirmed_down", "count"),
    ("node.tcp.round_timeouts", "count"),
    ("node.tcp.resend_share", "ratio"),
    ("node.tcp.kill_penalty_ms", "ms"),
    ("node.tcp.recovery_penalty_ms", "ms"),
    ("node.testnet.spawn_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
];

/// How big a workload's inputs are: `Full` is what the benchmark
/// measures, `Tiny` only makes the benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub node_bin: PathBuf,
    pub out_dir: PathBuf,
    pub scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        node_bin: PathBuf::new(),
        out_dir: PathBuf::new(),
        scale: Scale::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        let bad = |what: &str| format!("{key}: expected {what}, got `{value}`");
        match key.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--node-bin" => args.node_bin = PathBuf::from(&value),
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("full or tiny")),
                }
            }
            _ => return Err(format!("unknown argument `{key}`")),
        }
    }
    if !["sweep", "flood", "testnet"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be sweep, flood or testnet, got `{}`",
            args.workload
        ));
    }
    if args.seconds == 0.0 || args.out_dir.as_os_str().is_empty() {
        return Err("--seconds and --out-dir are required".into());
    }
    Ok(args)
}

/// One measured value with its unit and a printable note (sample count,
/// tail percentile, or the base of a ratio).
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// What the traced cycles recorded. The program's obs registry is
/// enabled only during traced cycles, so its totals are theirs.
pub struct Traced<'a> {
    pub tracer: &'a Tracer,
    pub obs: Snapshot,
    pub cycles: usize,
}

impl Traced<'_> {
    /// A total recorded over the traced cycles, per traced cycle.
    pub fn per_cycle(&self, total: u64) -> f64 {
        total as f64 / self.cycles as f64
    }

    /// `(count, sum)` of the obs histogram `name`, over all its labels.
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        self.obs.entries().iter().filter(|e| e.name == name).fold(
            (0, 0),
            |(count, sum), e| match &e.value {
                MetricValue::Histogram(h) => (count + h.count, sum + h.sum),
                _ => (count, sum),
            },
        )
    }
}

/// Cycle timings, split by whether the cycle was traced.
#[derive(Default)]
pub struct Cycles {
    pub untraced: Samples,
    pub traced: Samples,
}

/// What a workload offers the cycle loop.
pub trait Workload {
    /// Does the set-up work again, replacing the inputs with identical
    /// ones: the loop times it repeatedly, spread over the run.
    fn setup(&mut self) -> Result<(), String>;
    /// One pass over every arm, checking each operation.
    fn cycle(&mut self, index: usize, tracer: &Tracer, tally: &mut Tally) -> Result<(), String>;
    /// The per-arm end-to-end figures of the untraced cycles.
    fn arms(&self) -> Vec<Metric>;
    /// The probes and obs-derived layer metrics, after a traced run.
    /// Probes are operations too, and are checked.
    fn layers(&mut self, traced: &Traced, tally: &mut Tally) -> Result<Vec<Metric>, String>;
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>, Vec<Metric>), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    // Set-up runs before the first cycle and again after every cycle, so
    // its median spans the run rather than one moment of it.
    let mut setups = Samples::default();
    let (workload, elapsed) = timed(|| -> Result<Box<dyn Workload>, String> {
        Ok(match args.workload.as_str() {
            "sweep" => Box::new(sweep::Sweep::new(args)?),
            "flood" => Box::new(flood::Flood::new(args)?),
            _ => Box::new(testnet::Testnet::new(args)?),
        })
    });
    let mut workload = workload?;
    setups.push(elapsed);
    let mut setup_again = |workload: &mut Box<dyn Workload>| {
        let (result, elapsed) = timed(|| workload.setup());
        setups.push(elapsed);
        result
    };
    for _ in 1..INITIAL_SETUPS {
        setup_again(&mut workload)?;
    }
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut cycles = Cycles::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let min_cycles = if args.trace { 2 } else { 1 };
    let mut index = 0;
    while index < min_cycles || Instant::now() < deadline {
        let traced = args.trace && index % 2 == 1;
        tracer.set_enabled(traced);
        let start = Instant::now();
        tracer.span("cycle", || workload.cycle(index, &tracer, &mut tally))?;
        let elapsed = start.elapsed();
        tracer.set_enabled(false);
        if traced {
            cycles.traced.push(elapsed);
        } else {
            cycles.untraced.push(elapsed);
        }
        setup_again(&mut workload)?;
        index += 1;
    }

    let mut e2e = vec![
        metric(
            "setup_s",
            setups.median() / 1e3,
            "s",
            format!("median of {} set-ups", setups.len()),
        ),
        metric(
            "cycle_ms",
            cycles.untraced.median(),
            "ms",
            cycles.untraced.summary(),
        ),
    ];
    let mut layers = Vec::new();
    if args.trace {
        let traced = Traced {
            tracer: &tracer,
            obs: setagree_obs::global().snapshot(),
            cycles: cycles.traced.len(),
        };
        layers = workload.layers(&traced, &mut tally)?;
        let overhead = cycles.traced.median() / cycles.untraced.median();
        layers.push(metric(
            "obs.trace_overhead",
            overhead,
            "ratio",
            format!(
                "traced cycle median {:.4} ms / untraced {:.4} ms",
                cycles.traced.median(),
                cycles.untraced.median()
            ),
        ));
        let spans = args
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::write(&spans, tracer.to_json_lines())
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        println!("spans: {}", spans.display());
    }
    e2e.push(metric(
        "peak_rss_mb",
        peak_rss_mib(),
        "MiB",
        "VmHWM of the benchmark process",
    ));
    e2e.push(metric(
        "failed_frac",
        ratio(tally.failed as f64, tally.attempted as f64),
        "ratio",
        format!("{}/{}", tally.failed, tally.attempted),
    ));
    e2e.extend(workload.arms());
    Ok((tally, e2e, layers))
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("perfbench: {problem}");
            return ExitCode::from(2);
        }
    };
    let (tally, e2e, layers) = match run(&args) {
        Ok(out) => out,
        Err(problem) => {
            eprintln!("perfbench: benchmark error: {problem}");
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} trace {} scale {:?}: {} operations, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.scale,
        tally.attempted,
        tally.failed
    );
    for problem in &tally.problems {
        println!("FAILED {problem}");
    }
    for m in e2e.iter().chain(&layers) {
        println!("metric {} = {:.6} {} ({})", m.name, m.value, m.unit, m.note);
    }

    // A traced run also reports the per-arm figures of its untraced
    // cycles, which sit with the end-to-end metrics.
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let body: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = layers
                .iter()
                .chain(&e2e)
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
