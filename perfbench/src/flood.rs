//! `flood`: one `FloodSet` scenario (n = 64, t = 32, k = 2, staircase
//! crashes) on every round-based tier, plus a large-n `DenseFlood`.
//!
//! A cycle runs, one operation each: the scenario on the simulator (the
//! single-threaded baseline), on `Threaded`, on `Networked{Loopback}`,
//! and on `Networked{Loopback}` under `Adversary::Omission` with a drop
//! plan seeded per cycle; then the dense arm, a `DenseFlood` system
//! through `run_protocol`. At n = 64 the thread and loopback tiers cost
//! about a hundred times the simulator, so this workload's time is
//! almost all `runtime` and `node`.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use setagree_core::{Adversary, DenseFlood, Executor, FaultPlan, Report, Scenario, TransportKind};
use setagree_sync::{run_protocol, FailurePattern, Trace};
use setagree_types::{DenseVector, InputVector, ValueTable};

use crate::common::{engine_metrics, median, pool_metrics, ratio, timed, Samples, Tally, Tracer};
use crate::sweep::check_report;
use crate::{metric, Args, Metric, Scale, Traced, Workload};

/// The drop rate of the omission arm, in parts per 10,000 per link per
/// round. `FloodSet` relays every value it has seen each round, so at
/// this rate a dropped message is covered by another sender and the
/// run still meets k-agreement within its target round.
const DROP_RATE: u32 = 500;

/// The arms of a cycle, in order.
const ARMS: [&str; 5] = [
    "flood_sim_scenario_ms",
    "flood_threaded_ms",
    "flood_loopback_ms",
    "flood_faulty_ms",
    "flood_sim_ms",
];

struct Inputs {
    n: usize,
    scenario: Scenario<u32>,
    crashes: FailurePattern,
    dense_n: usize,
    dense_rounds: usize,
    dense_inputs: DenseVector,
}

fn inputs(args: &Args) -> Inputs {
    let (n, t, k, dense_n) = match args.scale {
        Scale::Full => (64, 32, 2, 512),
        Scale::Tiny => (8, 4, 2, 16),
    };
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let proposals: Vec<u32> = (0..n).map(|_| rng.gen_range(1..=1000)).collect();
    let crashes = FailurePattern::staircase(n, t, k);
    let scenario = Scenario::flood_set(n, t, k)
        .input(proposals)
        .pattern(crashes.clone());
    // Process i proposes i / 2 + 1, so the verdict ⌈n/2⌉ checks the
    // distinct counting, not just the merging.
    let dense = InputVector::new((0..dense_n).map(|i| i as u32 / 2 + 1).collect());
    let dense_inputs = ValueTable::from_vector(&dense).intern_vector(&dense);
    Inputs {
        n,
        scenario,
        crashes,
        dense_n,
        dense_rounds: 3,
        dense_inputs,
    }
}

/// Spawns `n` no-op pool tasks at once, then joins them all: leaves `n`
/// workers parked for the threaded arm.
fn warm_pool(n: usize) -> Result<(), String> {
    let handles: Vec<_> = (0..n)
        .map(|_| setagree_runtime::pool::spawn(|| ()))
        .collect();
    for handle in handles {
        handle
            .join()
            .map_err(|_| "pool task panicked".to_string())?;
    }
    Ok(())
}

/// The dense arm's verdict: every process decided the true distinct
/// count ⌈n/2⌉, at the budget round exactly.
pub fn check_dense(trace: &Trace<usize>, n: usize, rounds: usize) -> Result<(), String> {
    let expected = n.div_ceil(2);
    if !trace.all_correct_decided() {
        return Err("not every process decided".into());
    }
    let decided = trace.decided_values();
    if decided != BTreeSet::from([expected]) {
        return Err(format!("decided {decided:?}, expected {{{expected}}}"));
    }
    if trace.last_decision_round() != Some(rounds) {
        return Err(format!(
            "decided at {:?}, expected round {rounds}",
            trace.last_decision_round()
        ));
    }
    Ok(())
}

pub struct Flood {
    args: Args,
    inputs: Inputs,
    /// Per arm, untraced then traced samples.
    samples: Vec<[Samples; 2]>,
    loopback_delivered: u64,
}

/// The set-up work: the inputs, and `n` pool workers parked for the
/// threaded arm.
fn prepare(args: &Args) -> Result<Inputs, String> {
    let inputs = inputs(args);
    warm_pool(inputs.n)?;
    Ok(inputs)
}

impl Flood {
    pub fn new(args: &Args) -> Result<Flood, String> {
        Ok(Flood {
            inputs: prepare(args)?,
            args: args.clone(),
            samples: vec![Default::default(); ARMS.len()],
            loopback_delivered: 0,
        })
    }

    fn median(&self, arm: usize) -> f64 {
        self.samples[arm][0].median()
    }
}

impl Workload for Flood {
    fn setup(&mut self) -> Result<(), String> {
        self.inputs = prepare(&self.args)?;
        Ok(())
    }

    fn cycle(&mut self, index: usize, tracer: &Tracer, tally: &mut Tally) -> Result<(), String> {
        let traced = usize::from(tracer.enabled());
        let loopback = Executor::Networked {
            transport: TransportKind::Loopback,
        };
        let plan_seed = self
            .args
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64);
        let faulty = self
            .inputs
            .scenario
            .clone()
            .executor(loopback)
            .pattern(Adversary::Omission {
                plan: FaultPlan::uniform_drop(self.inputs.n, plan_seed, DROP_RATE),
                crashes: self.inputs.crashes.clone(),
            });
        let runs = [
            ("core.scenario.simulator", self.inputs.scenario.clone()),
            (
                "core.scenario.threaded",
                self.inputs.scenario.clone().executor(Executor::Threaded),
            ),
            (
                "core.scenario.loopback",
                self.inputs.scenario.clone().executor(loopback),
            ),
            ("core.scenario.faulty", faulty),
        ];
        let mut baseline: Option<BTreeSet<u32>> = None;
        for (arm, (span, scenario)) in runs.into_iter().enumerate() {
            let (result, elapsed) = timed(|| tracer.span(span, || scenario.run()));
            self.samples[arm][traced].push(elapsed);
            let outcome = result
                .map_err(|e| e.to_string())
                .and_then(|report: Report<u32>| {
                    check_report(&report)?;
                    if arm == 2 {
                        self.loopback_delivered =
                            report.trace().map_or(0, Trace::messages_delivered);
                    }
                    // Ordered crashes replay identically on every tier; the
                    // omission arm may legitimately decide differently.
                    let decided = report.decided_values();
                    match &baseline {
                        None => baseline = Some(decided),
                        Some(expected) if arm < 3 && *expected != decided => {
                            return Err(format!(
                                "decided {decided:?}, the simulator decided {expected:?}"
                            ))
                        }
                        Some(_) => {}
                    }
                    Ok(())
                });
            tally.check(ARMS[arm], outcome);
        }

        let (n, rounds) = (self.inputs.dense_n, self.inputs.dense_rounds);
        let pattern = FailurePattern::none(n);
        let (trace, elapsed) = timed(|| {
            tracer.span("sync.run_protocol.dense", || {
                run_protocol(
                    DenseFlood::system(&self.inputs.dense_inputs, rounds),
                    &pattern,
                    rounds + 1,
                )
            })
        });
        self.samples[4][traced].push(elapsed);
        let outcome = trace
            .map_err(|e| e.to_string())
            .and_then(|t| check_dense(&t, n, rounds));
        tally.check("flood_sim_ms", outcome);
        Ok(())
    }

    fn arms(&self) -> Vec<Metric> {
        ARMS.iter()
            .enumerate()
            .map(|(arm, name)| {
                let note = if arm == 4 {
                    format!(
                        "DenseFlood n = {}, {}",
                        self.inputs.dense_n,
                        self.samples[arm][0].summary()
                    )
                } else {
                    self.samples[arm][0].summary()
                };
                metric(name, self.median(arm), "ms", note)
            })
            .collect()
    }

    fn layers(&mut self, traced: &Traced, tally: &mut Tally) -> Result<Vec<Metric>, String> {
        let mut out = vec![
            metric(
                "runtime.threaded_overhead_ms",
                self.median(1) - self.median(0),
                "ms",
                "flood_threaded_ms − flood_sim_scenario_ms",
            ),
            metric(
                "node.loopback_overhead_ms",
                self.median(2) - self.median(1),
                "ms",
                "flood_loopback_ms − flood_threaded_ms",
            ),
            metric(
                "node.fault_overhead_ms",
                self.median(3) - self.median(2),
                "ms",
                "flood_faulty_ms − flood_loopback_ms",
            ),
            metric(
                "node.messages_delivered",
                self.loopback_delivered as f64,
                "count",
                "Trace::messages_delivered of one loopback run",
            ),
        ];
        let n = self.inputs.n;
        let spawn_join: Vec<f64> = (0..9)
            .map(|_| {
                let (result, elapsed) = timed(|| {
                    (0..n).try_for_each(|_| {
                        setagree_runtime::pool::spawn(|| ())
                            .join()
                            .map_err(|_| "pool task panicked".to_string())
                    })
                });
                tally.check("pool round trips", result);
                elapsed.as_secs_f64() * 1e6
            })
            .collect();
        out.push(metric(
            "runtime.pool.spawn_join_us",
            median(&spawn_join),
            "us",
            format!("{n} × pool::spawn(..).join(), warm; median of 9"),
        ));
        out.extend(pool_metrics(traced));
        out.extend(engine_metrics(traced));
        let (rounds, round_us) = traced.histogram("node_round_duration_us");
        out.push(metric(
            "node.round_us",
            ratio(round_us as f64, rounds as f64),
            "us",
            format!("node_round_duration_us: {round_us} us / {rounds} node rounds"),
        ));
        for (name, counter) in [
            ("node.fault.dropped", "fault_messages_dropped"),
            ("node.fault.delayed", "fault_messages_delayed"),
            ("node.fault.duplicated", "fault_messages_duplicated"),
        ] {
            out.push(metric(
                name,
                traced.per_cycle(traced.obs.counter(counter)),
                "count",
                format!("{counter} per traced cycle"),
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_dense_verdict_is_counted_as_failed() {
        let n = 16;
        let dense = InputVector::new((0..n).map(|i| i as u32 / 2 + 1).collect());
        let inputs = ValueTable::from_vector(&dense).intern_vector(&dense);
        let trace = run_protocol(DenseFlood::system(&inputs, 3), &FailurePattern::none(n), 4)
            .expect("dense flood runs");
        let mut tally = Tally::default();
        tally.check("right", check_dense(&trace, n, 3));
        tally.check("wrong count", check_dense(&trace, n + 2, 3));
        tally.check("wrong round", check_dense(&trace, n, 2));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!(tally.problems[0].contains("expected {9}"));
        assert!(tally.problems[1].contains("expected round 2"));
    }
}
