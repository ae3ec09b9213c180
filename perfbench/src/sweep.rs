//! `sweep`: a `ScenarioSuite` parameter sweep with a journaled
//! `SuiteCache`, cold then warm.
//!
//! One operation is one suite cell. The grid crosses `ConditionBased`
//! and `EarlyConditionBased` over several (d, k) at n = 24 with seeded
//! in-condition inputs plus `spread_input` (outside the condition), and
//! failure-free, staircase and seeded random ordered crash patterns, on
//! the simulator. The condition-based spec also runs on both
//! asynchronous executors over the in-condition inputs, failure-free:
//! those executors take no round-based crash pattern, and outside the
//! condition the asynchronous algorithm may block by design.
//!
//! A cycle has two phases. *Cold* starts from an empty cache with a
//! fresh journal, so every miss executes and appends. *Warm* gives a
//! fresh cache the same journal through `resume_journal` and reruns the
//! grid, so every cell is a hit.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use setagree_bench::{in_condition_input, spread_input};
use setagree_conditions::MaxCondition;
use setagree_core::{
    Adversary, CaseSpec, ConditionBasedConfig, Executor, ProtocolSpec, Report, Scenario,
    ScenarioSuite, SuiteCache, SuiteReport,
};
use setagree_sync::{CrashSpec, FailurePattern};
use setagree_types::{InputVector, ProcessId};

use crate::common::{engine_metrics, median, pool_metrics, ratio, timed, Samples, Tally, Tracer};
use crate::{metric, Args, Metric, Scale, Traced, Workload};

type Spec = Arc<ProtocolSpec<u32>>;

/// One (d, k) configuration's share of the grid.
struct Grid {
    config: ConditionBasedConfig,
    specs: [Spec; 2],
    /// In-condition inputs first, `spread_input` last.
    inputs: Vec<Arc<InputVector<u32>>>,
    patterns: Vec<Arc<Adversary>>,
    /// One adversary seed per in-condition input, for both asynchronous
    /// executors.
    async_seeds: Vec<u64>,
}

impl Grid {
    fn in_condition(&self) -> &[Arc<InputVector<u32>>] {
        &self.inputs[..self.inputs.len() - 1]
    }

    /// The asynchronous cells: the condition-based spec on each
    /// in-condition input, failure-free, on both executors.
    fn async_cells(&self) -> impl Iterator<Item = (&Arc<InputVector<u32>>, Executor)> + '_ {
        self.in_condition()
            .iter()
            .zip(&self.async_seeds)
            .flat_map(|(input, &seed)| {
                [
                    Executor::AsyncSharedMemory { seed },
                    Executor::AsyncMessagePassing { seed },
                ]
                .map(|executor| (input, executor))
            })
    }

    /// The suite for this configuration; `threads` caps its workers.
    fn suite(&self, cache: &Arc<SuiteCache<u32>>, threads: Option<usize>) -> ScenarioSuite<u32> {
        let mut suite = ScenarioSuite::new()
            .spec_shared(Arc::clone(&self.specs[0]))
            .spec_shared(Arc::clone(&self.specs[1]));
        for input in &self.inputs {
            suite = suite.input_shared(Arc::clone(input));
        }
        for pattern in &self.patterns {
            suite = suite.pattern_shared(Arc::clone(pattern));
        }
        suite = suite.cases(self.async_cells().map(|(input, executor)| {
            CaseSpec::shared(Arc::clone(&self.specs[0]), Arc::clone(input), executor)
        }));
        if let Some(threads) = threads {
            suite = suite.threads(threads);
        }
        suite.cache(cache)
    }

    /// The simulator cells as stand-alone scenarios.
    fn sync_scenarios(&self) -> impl Iterator<Item = Scenario<u32>> + '_ {
        self.specs.iter().flat_map(move |spec| {
            self.inputs.iter().flat_map(move |input| {
                self.patterns.iter().map(move |pattern| {
                    Scenario::from_shared(Arc::clone(spec))
                        .input_shared(Arc::clone(input))
                        .pattern_shared(Arc::clone(pattern))
                })
            })
        })
    }
}

/// A seeded ordered-crash pattern with exactly `crashes` victims, each
/// crashing in a random round up to `max_round` after a random send
/// prefix. Unlike `FailurePattern::random`, whose victim count is itself
/// uniform, the fixed count keeps the work of a grid nearly the same
/// from one seed to the next.
fn random_crashes(
    n: usize,
    crashes: usize,
    max_round: usize,
    rng: &mut SmallRng,
) -> FailurePattern {
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(rng);
    let mut pattern = FailurePattern::none(n);
    for &id in &ids[..crashes] {
        let spec = CrashSpec::new(rng.gen_range(1..=max_round), rng.gen_range(0..=n));
        pattern
            .crash(ProcessId::new(id), spec)
            .expect("distinct victims with valid specs");
    }
    pattern
}

/// Checks one cell: the paper's three properties and its round bound.
pub fn check_report(report: &Report<u32>) -> Result<(), String> {
    if !report.satisfies_all() {
        return Err(format!("properties violated: {report}"));
    }
    if !report.within_predicted_rounds() {
        return Err(format!("over the predicted bound: {report}"));
    }
    Ok(())
}

/// One phase's outcome.
struct Phase {
    cells: usize,
    hits: u64,
    elapsed: Duration,
    decided: Vec<Option<BTreeSet<u32>>>,
}

pub struct Sweep {
    args: Args,
    grids: Vec<Grid>,
    dir: PathBuf,
    cold: [Samples; 2],
    warm: [Samples; 2],
    resume_ms: Vec<f64>,
    journal_bytes: u64,
    journal_records: usize,
    hits: [(u64, usize); 2],
}

fn build_grids(args: &Args) -> Vec<Grid> {
    let (n, t, configs, in_count, random_count): (usize, usize, &[(usize, usize)], usize, u64) =
        match args.scale {
            Scale::Full => (24, 12, &[(2, 1), (4, 2), (6, 2), (8, 3)], 8, 8),
            Scale::Tiny => (8, 4, &[(2, 1)], 2, 1),
        };
    let mut rng = SmallRng::seed_from_u64(args.seed);
    configs
        .iter()
        .map(|&(d, k)| {
            let config = ConditionBasedConfig::builder(n, t, k)
                .condition_degree(d)
                .ell(1)
                .build()
                .expect("ℓ = 1 ≤ min(k, t − d) on this grid");
            let oracle = MaxCondition::new(config.legality());
            let mut inputs: Vec<_> = (0..in_count)
                .map(|_| Arc::new(in_condition_input(n, config.legality(), &mut rng)))
                .collect();
            inputs.push(Arc::new(spread_input(n)));
            let mut patterns = vec![
                Arc::new(Adversary::from(FailurePattern::none(n))),
                Arc::new(Adversary::from(FailurePattern::staircase(n, t, k))),
            ];
            patterns.extend((0..random_count).map(|_| {
                Arc::new(Adversary::from(random_crashes(
                    n,
                    t / 2,
                    t / k + 1,
                    &mut rng,
                )))
            }));
            Grid {
                config,
                specs: [
                    Arc::new(ProtocolSpec::condition_based(config, oracle)),
                    Arc::new(ProtocolSpec::early_condition_based(config, oracle)),
                ],
                inputs,
                patterns,
                async_seeds: (0..in_count).map(|_| rng.gen_range(0..u64::MAX)).collect(),
            }
        })
        .collect()
}

/// The set-up work: a fresh temp dir and the grid.
fn prepare(args: &Args, dir: &Path) -> Result<Vec<Grid>, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(build_grids(args))
}

impl Sweep {
    pub fn new(args: &Args) -> Result<Sweep, String> {
        let dir = args.out_dir.join(format!("sweep-{}", std::process::id()));
        Ok(Sweep {
            grids: prepare(args, &dir)?,
            args: args.clone(),
            dir,
            cold: Default::default(),
            warm: Default::default(),
            resume_ms: Vec::new(),
            journal_bytes: 0,
            journal_records: 0,
            hits: [(0, 0); 2],
        })
    }

    fn journal(&self) -> PathBuf {
        self.dir.join("journal.bin")
    }

    /// Runs every grid's suite against `cache`, checking each cell.
    fn phase(
        &self,
        cache: &Arc<SuiteCache<u32>>,
        threads: Option<usize>,
        tracer: &Tracer,
        tally: &mut Tally,
        name: &str,
    ) -> Phase {
        let (reports, elapsed): (Vec<SuiteReport<u32>>, _) = timed(|| {
            self.grids
                .iter()
                .map(|grid| tracer.span("core.suite.run", || grid.suite(cache, threads).run()))
                .collect()
        });
        let mut phase = Phase {
            cells: 0,
            hits: 0,
            elapsed,
            decided: Vec::new(),
        };
        for report in &reports {
            phase.cells += report.len();
            phase.hits += report.cache_hits();
            for case in report.cases() {
                let outcome = match &case.result {
                    Ok(report) => check_report(report),
                    Err(e) => Err(e.to_string()),
                };
                phase
                    .decided
                    .push(case.report().map(Report::decided_values));
                tally.check(name, outcome);
            }
        }
        phase
    }

    /// One cold phase and one warm phase; returns both, checking that
    /// the warm phase was all hits and replayed the cold results.
    fn cold_warm(
        &mut self,
        threads: Option<usize>,
        tracer: &Tracer,
        tally: &mut Tally,
    ) -> Result<(Phase, Phase, Duration), String> {
        let journal = self.journal();
        let _ = std::fs::remove_file(&journal);
        let cold_cache = Arc::new(SuiteCache::new());
        cold_cache
            .resume_journal(&journal)
            .map_err(|e| format!("creating journal {}: {e}", journal.display()))?;
        let cold = self.phase(&cold_cache, threads, tracer, tally, "sweep cold cell");
        drop(cold_cache);

        let (warm, resume) = {
            let warm_cache = Arc::new(SuiteCache::new());
            let start = std::time::Instant::now();
            let replay = tracer.span("core.cache.resume_journal", || {
                warm_cache.resume_journal(&journal)
            });
            let resume = start.elapsed();
            let replay =
                replay.map_err(|e| format!("replaying journal {}: {e}", journal.display()))?;
            let warm = self.phase(&warm_cache, threads, tracer, tally, "sweep warm cell");
            let warm = Phase {
                elapsed: warm.elapsed + resume,
                ..warm
            };
            self.journal_records = replay.recovered;
            (warm, resume)
        };
        self.journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
        tally.check(
            "sweep warm phase",
            if warm.hits as usize != warm.cells {
                Err(format!(
                    "{} of {} warm cells were hits",
                    warm.hits, warm.cells
                ))
            } else if warm.decided != cold.decided {
                Err("warm results differ from the cold results".into())
            } else {
                Ok(())
            },
        );
        Ok((cold, warm, resume))
    }

    fn cells_per_s(samples: &Samples, cells: usize) -> f64 {
        cells as f64 / (samples.median() / 1e3)
    }
}

impl Workload for Sweep {
    fn setup(&mut self) -> Result<(), String> {
        self.grids = prepare(&self.args, &self.dir)?;
        Ok(())
    }

    fn cycle(&mut self, _index: usize, tracer: &Tracer, tally: &mut Tally) -> Result<(), String> {
        let traced = usize::from(tracer.enabled());
        let (cold, warm, resume) = self.cold_warm(None, tracer, tally)?;
        self.cold[traced].push(cold.elapsed);
        self.warm[traced].push(warm.elapsed);
        self.resume_ms.push(resume.as_secs_f64() * 1e3);
        self.hits = [(cold.hits, cold.cells), (warm.hits, warm.cells)];
        Ok(())
    }

    fn arms(&self) -> Vec<Metric> {
        let cells = self.hits[0].1;
        vec![
            metric(
                "sweep_cold_cells_per_s",
                Self::cells_per_s(&self.cold[0], cells),
                "cells/s",
                format!("{cells} cells / cold phase, {}", self.cold[0].summary()),
            ),
            metric(
                "sweep_warm_cells_per_s",
                Self::cells_per_s(&self.warm[0], cells),
                "cells/s",
                format!("{cells} cells / warm phase, {}", self.warm[0].summary()),
            ),
        ]
    }

    fn layers(&mut self, traced: &Traced, tally: &mut Tally) -> Result<Vec<Metric>, String> {
        let mut out = Vec::new();

        // conditions: the oracle over every (configuration, input) pair.
        let pairs: Vec<(MaxCondition, Arc<InputVector<u32>>)> = self
            .grids
            .iter()
            .flat_map(|g| {
                let oracle = MaxCondition::new(g.config.legality());
                g.inputs.iter().map(move |i| (oracle, Arc::clone(i)))
            })
            .collect();
        let inside = pairs.iter().filter(|(o, i)| o.contains(i)).count();
        let expected_inside: usize = self.grids.iter().map(|g| g.in_condition().len()).sum();
        tally.check(
            "conditions membership",
            if inside == expected_inside {
                Ok(())
            } else {
                Err(format!(
                    "{inside} inputs inside, expected {expected_inside}"
                ))
            },
        );
        let reps = 200;
        let contains_us: Vec<f64> = (0..9)
            .map(|_| {
                let (_, elapsed) = timed(|| {
                    for _ in 0..reps {
                        for (oracle, input) in &pairs {
                            std::hint::black_box(oracle.contains(std::hint::black_box(input)));
                        }
                    }
                });
                elapsed.as_secs_f64() * 1e6 / (reps * pairs.len()) as f64
            })
            .collect();
        out.push(metric(
            "conditions.contains_us",
            median(&contains_us),
            "us",
            format!(
                "per MaxCondition::contains call, median of 9 × {reps} × {} calls",
                pairs.len()
            ),
        ));
        out.push(metric(
            "conditions.in_condition_share",
            ratio(inside as f64, pairs.len() as f64),
            "ratio",
            format!("{inside}/{}", pairs.len()),
        ));

        // sync: every simulator cell alone.
        let mut sync_ms = 0.0;
        let mut sync_cells = 0;
        let mut fast = 0;
        for grid in &self.grids {
            let fallback = grid.config.t() / grid.config.k() + 1;
            for scenario in grid.sync_scenarios() {
                let (result, elapsed) = timed(|| scenario.run_simulated());
                sync_ms += elapsed.as_secs_f64() * 1e3;
                sync_cells += 1;
                let outcome = result.map_err(|e| e.to_string()).and_then(|r| {
                    if r.decision_round().is_some_and(|d| d < fallback) {
                        fast += 1;
                    }
                    check_report(&r)
                });
                tally.check("sync cell alone", outcome);
            }
        }
        out.push(metric(
            "sync.cell_ms",
            sync_ms,
            "ms",
            format!("sum over {sync_cells} simulator cells run alone"),
        ));
        out.extend(engine_metrics(traced));
        out.push(metric(
            "sync.fast_path_share",
            ratio(fast as f64, sync_cells as f64),
            "ratio",
            format!("{fast}/{sync_cells} cells decided before ⌊t/k⌋+1"),
        ));

        // async: every asynchronous cell alone.
        let mut async_ms = [0.0; 2];
        let mut async_cells = [0; 2];
        let mut steps = 0u64;
        for grid in &self.grids {
            for (input, executor) in grid.async_cells() {
                let slot = usize::from(matches!(executor, Executor::AsyncMessagePassing { .. }));
                let scenario = Scenario::from_shared(Arc::clone(&grid.specs[0]))
                    .input_shared(Arc::clone(input))
                    .executor(executor);
                let (result, elapsed) = timed(|| scenario.run());
                async_ms[slot] += elapsed.as_secs_f64() * 1e3;
                async_cells[slot] += 1;
                let outcome = result.map_err(|e| e.to_string()).and_then(|r| {
                    steps += r.total_steps().unwrap_or(0);
                    check_report(&r)
                });
                tally.check("async cell alone", outcome);
            }
        }
        for (slot, name) in ["async.shm_cell_ms", "async.mp_cell_ms"]
            .into_iter()
            .enumerate()
        {
            out.push(metric(
                name,
                async_ms[slot],
                "ms",
                format!("sum over {} cells run alone", async_cells[slot]),
            ));
        }
        out.push(metric(
            "async.steps",
            steps as f64,
            "count",
            "sum of Report::total_steps over the async cells",
        ));

        // core: the suite's own time and the single-thread comparison.
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let (suite_ms, suites) = traced.tracer.total_ms("core.suite.run");
        let (cells_run, cell_us) = traced.histogram("suite_cell_latency_us");
        out.push(metric(
            "core.suite.self_ms",
            (suite_ms - cell_us as f64 / 1e3 / threads as f64) / traced.cycles as f64,
            "ms",
            format!(
                "per traced cycle: {suite_ms:.3} ms in {suites} suite runs minus {cell_us} us of cells / {threads} workers"
            ),
        ));
        let (waits, wait_us) = traced.histogram("suite_queue_wait_us");
        out.push(metric(
            "core.suite.queue_wait_us",
            traced.per_cycle(wait_us),
            "us",
            format!("suite_queue_wait_us per traced cycle ({waits} waits)"),
        ));
        out.push(metric(
            "core.suite.cell_latency_us",
            traced.per_cycle(cell_us),
            "us",
            format!("suite_cell_latency_us per traced cycle ({cells_run} executed cells)"),
        ));
        let mut single = [Samples::default(), Samples::default()];
        for _ in 0..3 {
            let (cold, warm, _) = self.cold_warm(Some(1), traced.tracer, tally)?;
            single[0].push(cold.elapsed);
            single[1].push(warm.elapsed);
        }
        for (slot, name) in [
            (0, "core.suite.parallel_gain.cold"),
            (1, "core.suite.parallel_gain.warm"),
        ] {
            let default = [&self.cold[0], &self.warm[0]][slot];
            out.push(metric(
                name,
                single[slot].median() / default.median(),
                "ratio",
                format!(
                    "cells/s at {threads} threads ÷ at .threads(1): {:.4} ms / {:.4} ms per phase",
                    single[slot].median(),
                    default.median()
                ),
            ));
        }
        for (slot, name) in [
            (0, "core.cache.hit_share.cold"),
            (1, "core.cache.hit_share.warm"),
        ] {
            let (hits, cells) = self.hits[slot];
            out.push(metric(
                name,
                ratio(hits as f64, cells as f64),
                "ratio",
                format!("{hits}/{cells}"),
            ));
        }
        let resume_ms = median(&self.resume_ms);
        out.push(metric(
            "core.cache.resume_journal_ms",
            resume_ms,
            "ms",
            format!("median of {}", self.resume_ms.len()),
        ));
        out.push(metric(
            "codec.journal.bytes",
            self.journal_bytes as f64,
            "bytes",
            "journal after one cold phase",
        ));
        out.push(metric(
            "codec.journal.records",
            self.journal_records as f64,
            "count",
            "records replayed",
        ));
        out.push(metric(
            "codec.journal.replay_mb_per_s",
            self.journal_bytes as f64 / 1e6 / (resume_ms / 1e3),
            "MB/s",
            format!("{} bytes / {resume_ms:.4} ms", self.journal_bytes),
        ));
        out.extend(pool_metrics(traced));
        Ok(out)
    }
}

impl Drop for Sweep {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setagree_core::ProtocolKind;

    #[test]
    fn a_wrong_round_bound_fails_the_cell() {
        let report = Scenario::flood_set(4, 2, 1)
            .input(vec![3u32, 9, 1, 4])
            .run()
            .expect("flood set runs");
        let mut tally = Tally::default();
        tally.check("right", check_report(&report));
        // The same trace held to a bound one round too tight.
        let trace = report.trace().expect("round-based").clone();
        let rounds = report.decision_round().expect("decided");
        let wrong = Report::from_trace(
            trace,
            report.input().clone(),
            1,
            rounds - 1,
            ProtocolKind::FloodSet,
            Executor::Simulator,
        );
        tally.check("wrong bound", check_report(&wrong));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.problems[0].contains("over the predicted bound"));
    }

    #[test]
    fn fixed_count_patterns_have_exactly_that_many_victims() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            assert_eq!(random_crashes(24, 6, 7, &mut rng).fault_count(), 6);
        }
    }
}
