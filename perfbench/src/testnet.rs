//! `testnet`: the release `setagree-node testnet --transport tcp`
//! binary, 5 node processes on localhost, spawned as a subprocess.
//!
//! A cycle runs three variants, one operation each: clean; one kill
//! (`--crash 1:1:2`); and the CI chaos plan (15% drops with fault seed
//! 51966, partition {0,1} in round 1, plus the kill). Each operation is
//! timed from spawn to exit. Its time is set by the transport's timers
//! (reconnect window, resend), not by CPU, so this workload measures
//! failure detection and recovery. The proposals and port bases derive
//! from the workload seed.

use std::net::{Ipv4Addr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::common::{median, ratio, timed, Samples, Tally, Tracer};
use crate::{metric, Args, Metric, Traced, Workload};

const NODES: u16 = 5;
/// An operation still running after this long has stalled: it is killed
/// and counted as failed.
const DEADLINE: Duration = Duration::from_secs(60);
/// Listen-port bases are drawn below the usual ephemeral range, so a
/// node's listener does not collide with an outgoing connection.
const PORTS: std::ops::Range<u16> = 20_000..32_000;

const ARMS: [&str; 3] = ["tcp_clean_ms", "tcp_kill_ms", "tcp_chaos_ms"];

/// The extra flags of each arm. The chaos plan keeps the CI's fault
/// seed: its run time is quantized by the resend and reconnect timers
/// (1.2 s to 2.6 s across fault seeds), so a fresh seed per cycle made
/// the run median hop between levels, a 0.13 spread over ten runs.
const VARIANTS: [&[&str]; 3] = [
    &[],
    &["--crash", "1:1:2"],
    &[
        "--crash",
        "1:1:2",
        "--faults",
        "51966:1500",
        "--partition",
        "0,1:1:1",
    ],
];

/// The folded obs counters the testnet prints with `--metrics`.
const TCP_COUNTERS: [(&str, &str); 9] = [
    ("node.tcp.frames_sent", "tcp_frames_sent"),
    ("node.tcp.frames_received", "tcp_frames_received"),
    ("node.tcp.frames_resent", "tcp_frames_resent"),
    ("node.tcp.relays_served", "tcp_relays_served"),
    ("node.tcp.redial_attempts", "tcp_redial_attempts"),
    ("node.tcp.redials_ok", "tcp_redials_ok"),
    ("node.tcp.redials_failed", "tcp_redials_failed"),
    ("node.tcp.peers_confirmed_down", "tcp_peers_confirmed_down"),
    ("node.tcp.round_timeouts", "tcp_round_timeouts"),
];

pub struct Testnet {
    args: Args,
    input: String,
    ports: SmallRng,
    samples: [[Samples; 2]; 3],
    counters: [u64; 9],
}

/// Spawns the node binary with no arguments, a usage error, and reaps
/// it: proves the binary runs.
fn usage_round_trip(node_bin: &Path) -> Result<(), String> {
    let status = Command::new(node_bin)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("spawning {}: {e}", node_bin.display()))?;
    match status.code() {
        Some(2) => Ok(()),
        other => Err(format!(
            "{} without arguments exited {other:?}, expected 2",
            node_bin.display()
        )),
    }
}

/// Whether every port of `base..base + NODES` can be bound now.
fn ports_free(base: u16) -> bool {
    (base..base + NODES).all(|port| TcpListener::bind((Ipv4Addr::LOCALHOST, port)).is_ok())
}

/// Waits for `child` until [`DEADLINE`], killing it past that; returns
/// its exit code (`None` when killed).
fn wait_bounded(mut child: Child) -> Result<Option<i32>, String> {
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok(status.code());
        }
        if started.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            return Ok(None);
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The testnet's verdict: exit 0, `verdict: SATISFIED`, and the
/// injected kill reported as `p2: crashed @ r1`.
pub fn check_testnet(stdout: &str, code: Option<i32>, killed: bool) -> Result<(), String> {
    if code != Some(0) {
        return Err(format!("exit {code:?}: {}", stdout.trim()));
    }
    if !stdout.lines().any(|l| l.starts_with("verdict: SATISFIED")) {
        return Err(format!("no `verdict: SATISFIED`: {}", stdout.trim()));
    }
    if killed && !stdout.lines().any(|l| l.trim() == "p2: crashed @ r1") {
        return Err(format!("no `p2: crashed @ r1`: {}", stdout.trim()));
    }
    Ok(())
}

/// Sums every counter named `name` (over labels) in a rendered
/// Prometheus-style snapshot.
fn rendered_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(key, _)| key.split('{').next() == Some(name))
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum()
}

/// The set-up work: the node-binary check and the proposals.
fn prepare(args: &Args) -> Result<String, String> {
    usage_round_trip(&args.node_bin)?;
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let input: Vec<String> = (0..NODES)
        .map(|_| rng.gen_range(1..=99u32).to_string())
        .collect();
    Ok(input.join(","))
}

impl Testnet {
    pub fn new(args: &Args) -> Result<Testnet, String> {
        Ok(Testnet {
            input: prepare(args)?,
            args: args.clone(),
            // The port bases draw from a stream of their own.
            ports: SmallRng::seed_from_u64(args.seed.wrapping_add(1)),
            samples: Default::default(),
            counters: [0; 9],
        })
    }

    /// A fresh port base whose ports all bind right now. None free after
    /// many draws is a benchmark error, not a program failure.
    fn port_base(&mut self) -> Result<u16, String> {
        for _ in 0..200 {
            let base = self.ports.gen_range(PORTS.start..PORTS.end - NODES);
            if ports_free(base) {
                return Ok(base);
            }
        }
        Err(format!("no free block of {NODES} ports in {PORTS:?}"))
    }

    /// Where an operation's folded metrics (`name` = "metrics") or
    /// stdout (`name` = "stdout") go.
    fn scratch_file(&self, name: &str) -> PathBuf {
        self.args
            .out_dir
            .join(format!("tcp-{name}-{}.txt", std::process::id()))
    }
}

impl Workload for Testnet {
    fn setup(&mut self) -> Result<(), String> {
        self.input = prepare(&self.args)?;
        Ok(())
    }

    fn cycle(&mut self, index: usize, tracer: &Tracer, tally: &mut Tally) -> Result<(), String> {
        let traced = tracer.enabled();
        let (metrics, stdout_path) = (self.scratch_file("metrics"), self.scratch_file("stdout"));
        for (arm, extra) in VARIANTS.into_iter().enumerate() {
            let base = self.port_base()?;
            let _ = std::fs::remove_file(&metrics);
            // A file, not a pipe: nothing has to drain it while the
            // testnet runs.
            let stdout = std::fs::File::create(&stdout_path)
                .map_err(|e| format!("creating {}: {e}", stdout_path.display()))?;
            let mut cmd = Command::new(&self.args.node_bin);
            cmd.args(["testnet", "--transport", "tcp", "--t", "2", "--k", "1"])
                .args(["--input", &self.input, "--port-base", &base.to_string()])
                .args(extra)
                .stdout(stdout)
                .stderr(Stdio::null());
            if traced {
                cmd.arg("--metrics").arg(&metrics);
            }
            let (code, elapsed) = timed(|| {
                tracer.span("node.testnet", || {
                    cmd.spawn()
                        .map_err(|e| format!("spawning {}: {e}", self.args.node_bin.display()))
                        .and_then(wait_bounded)
                })
            });
            let code = code?;
            let stdout = std::fs::read_to_string(&stdout_path)
                .map_err(|e| format!("reading {}: {e}", stdout_path.display()))?;
            self.samples[arm][usize::from(traced)].push(elapsed);
            tally.check(
                &format!("{} cycle {index}", ARMS[arm]),
                check_testnet(&stdout, code, arm > 0),
            );
            if traced {
                let text = std::fs::read_to_string(&metrics).unwrap_or_default();
                for (slot, (_, counter)) in TCP_COUNTERS.iter().enumerate() {
                    self.counters[slot] += rendered_counter(&text, counter);
                }
            }
        }
        Ok(())
    }

    fn arms(&self) -> Vec<Metric> {
        ARMS.iter()
            .zip(&self.samples)
            .map(|(name, [untraced, _])| metric(name, untraced.median(), "ms", untraced.summary()))
            .collect()
    }

    fn layers(&mut self, traced: &Traced, tally: &mut Tally) -> Result<Vec<Metric>, String> {
        let mut out: Vec<Metric> = TCP_COUNTERS
            .iter()
            .zip(self.counters)
            .map(|((name, counter), total)| {
                metric(
                    name,
                    traced.per_cycle(total),
                    "count",
                    format!("{counter} per traced cycle"),
                )
            })
            .collect();
        let (sent, resent) = (self.counters[0], self.counters[2]);
        out.push(metric(
            "node.tcp.resend_share",
            ratio(resent as f64, sent as f64),
            "ratio",
            format!("{resent}/{sent} frames"),
        ));
        let clean = self.samples[0][0].median();
        let kill = self.samples[1][0].median();
        let chaos = self.samples[2][0].median();
        out.push(metric(
            "node.tcp.kill_penalty_ms",
            kill - clean,
            "ms",
            "tcp_kill_ms − tcp_clean_ms",
        ));
        out.push(metric(
            "node.tcp.recovery_penalty_ms",
            chaos - kill,
            "ms",
            "tcp_chaos_ms − tcp_kill_ms",
        ));
        let spawns: Vec<f64> = (0..5)
            .map(|_| {
                let (result, elapsed) = timed(|| usage_round_trip(&self.args.node_bin));
                tally.check("node binary usage error", result);
                elapsed.as_secs_f64() * 1e3
            })
            .collect();
        out.push(metric(
            "node.testnet.spawn_ms",
            median(&spawns),
            "ms",
            "spawn and reap the binary on a usage error, median of 5",
        ));
        Ok(out)
    }
}

impl Drop for Testnet {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(self.scratch_file("metrics"));
        let _ = std::fs::remove_file(self.scratch_file("stdout"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KILLED: &str = "floodset on networked(tcp): decided {9}\n  p1: decided 9 @ r3\n  p2: crashed @ r1\nverdict: SATISFIED\n";

    #[test]
    fn the_verdict_needs_exit_zero_satisfied_and_the_kill() {
        let mut tally = Tally::default();
        tally.check("right", check_testnet(KILLED, Some(0), true));
        tally.check("nonzero exit", check_testnet(KILLED, Some(1), true));
        tally.check("stalled", check_testnet(KILLED, None, true));
        tally.check(
            "violated",
            check_testnet("verdict: VIOLATED\n", Some(0), false),
        );
        let clean = KILLED.replace("  p2: crashed @ r1\n", "");
        tally.check("kill missing", check_testnet(&clean, Some(0), true));
        assert_eq!((tally.attempted, tally.failed), (5, 4));
    }

    #[test]
    fn rendered_counters_sum_over_labels() {
        let text = "# TYPE tcp_frames_sent counter\ntcp_frames_sent{kind=\"msg\"} 12\ntcp_frames_sent{kind=\"settled\"} 4\ntcp_frames_resent 3\n";
        assert_eq!(rendered_counter(text, "tcp_frames_sent"), 16);
        assert_eq!(rendered_counter(text, "tcp_frames_resent"), 3);
        assert_eq!(rendered_counter(text, "tcp_round_timeouts"), 0);
    }
}
