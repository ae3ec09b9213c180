//! The TCP transport: real sockets between node processes, framed with
//! the length-prefixed [`Frame`] codec.
//!
//! A node establishes a full mesh at startup — it dials every lower id
//! (retrying until the connect deadline, so start order does not matter)
//! and accepts a [`FrameKind::Hello`]-identified connection from every
//! higher id. One reader thread per peer feeds a single event channel,
//! preserving each peer's frame order.
//!
//! There is no barrier over TCP: lock-step rounds emerge from
//! [`collect`](Transport::collect), which blocks until every live,
//! unsettled peer has contributed its frame for the round (early frames
//! from fast peers are buffered per round). A deciding node announces
//! [`FrameKind::Settled`] so peers distinguish a clean exit from a kill.
//!
//! # Self-healing
//!
//! An anomaly is not instantly a death. A round that stalls escalates
//! through **suspicion**: the node rebroadcasts [`FrameKind::Resend`]
//! requests — the first after 1 ms, then on a doubling interval up to
//! `clamp(round_timeout / 10, 50 ms, 1 s)` — and any peer answers with
//! [`FrameKind::Relay`] copies of the round's broadcasts it has seen
//! (including a crashed sender's delivered prefix — relays propagate it
//! to peers the prefix missed).
//!
//! A *closed* stream starts recovery, once per break: a
//! bounded-exponential-backoff redial campaign (for peers this node
//! dials) or a liveness probe of the peer's listener (for peers that
//! dial this node, and for dialed peers whose redial budget is spent);
//! a successful re-handshake resumes at the current round by replaying
//! the sender's recent frames. Death is confirmed by the first of:
//!
//! * **refused** — a dial of the peer's listen address is refused. A
//!   node's listener lives exactly as long as its process (see below),
//!   so a refusal proves the process gone; this is the event that
//!   stands in for the paper's "a missing round-r message is the
//!   failure notice", and it usually lands within milliseconds;
//! * **gave up** — the redial campaigns ran out of budget;
//! * **window** — the peer did not re-handshake within
//!   `reconnect_window` of the close;
//! * **deadline** — the round hit `round_timeout` with the link still
//!   closed.
//!
//! `reconnect_window` and `round_timeout` are therefore upper bounds,
//! reached only while the peer's listener still accepts (a hung or
//! unreachable process) or the round stays stalled. A peer that stays
//! *connected but silent* past `round_timeout` is **not** declared
//! crashed — that would fabricate a paper-model failure the adversary
//! never scheduled — and surfaces as [`TcpError::RoundTimeout`] instead.
//!
//! **The listener invariant.** The accept thread retries transient
//! `accept()` errors (`ECONNABORTED`, `EMFILE`, …) and exits only once
//! the transport's event channel is gone, so a live node never refuses
//! a dial. Streams that arrive without a valid `Hello` — the probes
//! above among them — are dropped without disturbing the node.
//!
//! # Injected faults
//!
//! An optional [`FaultPlan`] (see [`NodeConfig::fault_plan`]) filters
//! **first-arrival [`FrameKind::Msg`] frames** at the receive boundary
//! with the same per-`(round, sender, receiver)` decisions the
//! simulator uses. Recovery frames ([`FrameKind::Relay`]) are exempt:
//! the plan models loss of the original transmission, and recovery is
//! recovery. Consequences of real sockets:
//!
//! * a **drop** (or a partition cut) loses the original frame; the
//!   round then heals through resend/relay, so the verdict survives;
//! * a **delay** stashes the original for a later round's inbox while
//!   the current round heals through relay — over TCP a delay behaves
//!   like a drop-with-recovery plus a stale duplicate;
//! * a **duplicate** is absorbed by the sender-keyed round inbox;
//! * a **reorder** is absorbed by the ordered collect.
//!
//! Strict byte-level trace equality under a plan is a simulator ↔
//! loopback property (`tests/fault_equivalence.rs`); the TCP tier's
//! contract is to *survive* the plan with a correct verdict.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use setagree_obs::{Counter, Histogram};
use setagree_sync::{FaultPlan, LinkFault};
use setagree_types::ProcessId;

use crate::config::NodeConfig;
use crate::frame::{Frame, FrameKind};
use crate::transport::Transport;

/// How many past rounds of broadcasts are retained for relay service.
const RELAY_KEEP: usize = 4;

/// Poll granularity of the collect loop: how often suspicion deadlines,
/// reconnect windows and the round deadline are re-checked while
/// blocked on the event channel.
const COLLECT_TICK: Duration = Duration::from_millis(25);

/// First delay of every retry loop — the mesh dial, a liveness probe and
/// a stalled round's `Resend` — doubling per attempt. On a LAN a round's
/// frames normally arrive well within it, and the doubling keeps a
/// persistently stalled round to a handful of waves before the cap.
const FIRST_RETRY: Duration = Duration::from_millis(1);

/// Cap on the mesh dial's retry delay.
const DIAL_RETRY_CAP: Duration = Duration::from_millis(25);

/// Back-off after a transient `accept()` error.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

/// How long the listener waits for a new stream's `Hello`.
const HELLO_TIMEOUT: Duration = Duration::from_secs(2);

/// Every frame kind, in tag order — drives the per-kind counter arrays.
const FRAME_KINDS: [FrameKind; 5] = [
    FrameKind::Hello,
    FrameKind::Msg,
    FrameKind::Settled,
    FrameKind::Resend,
    FrameKind::Relay,
];

/// The `kind` label value for a frame-kind counter.
fn kind_label(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::Hello => "hello",
        FrameKind::Msg => "msg",
        FrameKind::Settled => "settled",
        FrameKind::Resend => "resend",
        FrameKind::Relay => "relay",
    }
}

/// Index of `kind` into a [`FRAME_KINDS`]-ordered counter array.
fn kind_index(kind: FrameKind) -> usize {
    match kind {
        FrameKind::Hello => 0,
        FrameKind::Msg => 1,
        FrameKind::Settled => 2,
        FrameKind::Resend => 3,
        FrameKind::Relay => 4,
    }
}

/// Why a peer was confirmed dead — the `cause` label of
/// `tcp_crash_confirm_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Confirm {
    /// A dial of the peer's listener was refused.
    Refused,
    /// The reconnect window closed without a re-handshake.
    Window,
    /// The round deadline passed with the link still closed.
    Deadline,
    /// The redial campaigns exhausted their budget.
    GaveUp,
}

impl Confirm {
    const ALL: [Confirm; 4] = [
        Confirm::Refused,
        Confirm::Window,
        Confirm::Deadline,
        Confirm::GaveUp,
    ];

    fn label(self) -> &'static str {
        match self {
            Confirm::Refused => "refused",
            Confirm::Window => "window",
            Confirm::Deadline => "deadline",
            Confirm::GaveUp => "gave_up",
        }
    }
}

/// Registry handles for the transport metrics, resolved once per
/// process so the per-frame cost is one relaxed load plus one atomic
/// add. `tcp_frames_sent`/`tcp_frames_received` are labeled by frame
/// kind; the recovery counters (`tcp_frames_resent`,
/// `tcp_relays_served`, `tcp_redial_*`, `tcp_peers_confirmed_down`,
/// `tcp_round_timeouts`) expose how hard the self-healing machinery is
/// working, and `tcp_crash_confirm_us{cause}` times each crash
/// confirmation from the stream close. A settled peer that leaves is a
/// clean exit, not a crash: it counts in neither
/// `tcp_peers_confirmed_down` nor `tcp_crash_confirm_us`.
struct TcpMetrics {
    frames_sent: [Arc<Counter>; 5],
    frames_received: [Arc<Counter>; 5],
    frames_resent: Arc<Counter>,
    relays_served: Arc<Counter>,
    redial_attempts: Arc<Counter>,
    redials_ok: Arc<Counter>,
    redials_failed: Arc<Counter>,
    peers_confirmed_down: Arc<Counter>,
    round_timeouts: Arc<Counter>,
    crash_confirm_us: [Arc<Histogram>; 4],
}

fn tcp_metrics() -> &'static TcpMetrics {
    static METRICS: OnceLock<TcpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let per_kind = |name: &'static str| {
            FRAME_KINDS.map(|kind| setagree_obs::counter(name, &[("kind", kind_label(kind))]))
        };
        TcpMetrics {
            frames_sent: per_kind("tcp_frames_sent"),
            frames_received: per_kind("tcp_frames_received"),
            frames_resent: setagree_obs::counter("tcp_frames_resent", &[]),
            relays_served: setagree_obs::counter("tcp_relays_served", &[]),
            redial_attempts: setagree_obs::counter("tcp_redial_attempts", &[]),
            redials_ok: setagree_obs::counter("tcp_redials_ok", &[]),
            redials_failed: setagree_obs::counter("tcp_redials_failed", &[]),
            peers_confirmed_down: setagree_obs::counter("tcp_peers_confirmed_down", &[]),
            round_timeouts: setagree_obs::counter("tcp_round_timeouts", &[]),
            crash_confirm_us: Confirm::ALL.map(|cause| {
                setagree_obs::histogram("tcp_crash_confirm_us", &[("cause", cause.label())])
            }),
        }
    })
}

/// A TCP transport failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum TcpError {
    /// An I/O operation failed.
    Io {
        /// What the transport was doing.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// Two handshakes claimed the same peer while the mesh formed.
    BadHello,
    /// Not every peer connected before the deadline.
    HandshakeTimeout,
    /// A round stalled past `round_timeout` on peers that are still
    /// *connected* — suspected, resent to, but neither heard from nor
    /// confirmed dead. Treating them as crashed would mislabel a slow
    /// node as a paper-model failure, so the round fails loudly
    /// instead.
    RoundTimeout {
        /// The round that stalled.
        round: usize,
        /// The suspected-but-unconfirmed peers.
        peers: Vec<ProcessId>,
    },
}

impl TcpError {
    fn io(context: &str, source: io::Error) -> TcpError {
        TcpError::Io {
            context: context.to_string(),
            source,
        }
    }
}

impl fmt::Display for TcpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcpError::Io { context, source } => write!(f, "{context}: {source}"),
            TcpError::BadHello => write!(f, "two handshakes claimed the same peer"),
            TcpError::HandshakeTimeout => {
                write!(f, "full mesh did not form before the connect deadline")
            }
            TcpError::RoundTimeout { round, peers } => {
                write!(f, "round {round} timed out waiting on unconfirmed peers")?;
                for (i, peer) in peers.iter().enumerate() {
                    write!(f, "{} {peer}", if i == 0 { ":" } else { "," })?;
                }
                Ok(())
            }
        }
    }
}

impl Error for TcpError {}

#[derive(Debug)]
enum PeerEvent {
    Frame(Frame),
    /// A reader's stream ended; carries the generation of the link it
    /// read, so the close of a superseded link is recognisably stale.
    Closed(u32),
    /// A (re)connected, hello-identified stream for this peer — from the
    /// persistent listener (peer dialled us) or from our redial campaign
    /// (we reached the peer again).
    Reconnected(TcpStream),
    /// A dial of the peer's listen address was refused: its process is
    /// gone.
    Refused,
    /// A redial campaign exhausted its backoff budget.
    GaveUp,
}

/// What this node knows about one peer.
#[derive(Debug, Clone, Copy)]
struct PeerState {
    /// The round after which the peer (cleanly) stopped participating.
    settled_at: Option<usize>,
    /// Confirmed dead, and by which rule.
    down: Option<Confirm>,
    /// When the current link closed; `None` while it is open.
    closed_at: Option<Instant>,
    /// Generation of the current link, bumped on every adoption.
    link: u32,
    /// Redial campaigns left before a closed outbound link is only
    /// probed.
    redials_left: u32,
}

impl PeerState {
    fn fresh(redials: u32) -> PeerState {
        PeerState {
            settled_at: None,
            down: None,
            closed_at: None,
            link: 0,
            redials_left: redials,
        }
    }
}

/// One node's TCP connection to the rest of the system.
#[derive(Debug)]
pub struct TcpTransport {
    me: ProcessId,
    n: usize,
    writers: Vec<Option<TcpStream>>,
    events: mpsc::Receiver<(usize, PeerEvent)>,
    /// Kept for recovery threads and adopted-stream reader threads; also
    /// guarantees `events` never observes a disconnect.
    event_tx: mpsc::Sender<(usize, PeerEvent)>,
    peer_addrs: Vec<SocketAddr>,
    peers: Vec<PeerState>,
    /// Frames that arrived for rounds we have not collected yet,
    /// `round → sender → payload`.
    pending: BTreeMap<usize, BTreeMap<usize, Vec<u8>>>,
    /// This node's own broadcast, looped back locally (the model: a
    /// process receives its own message when its send prefix reaches it).
    self_letter: Option<(usize, Vec<u8>)>,
    /// This node's recent broadcasts, `round → payload` — replayed on
    /// reconnect and served to `Resend` requests.
    sent_log: BTreeMap<usize, Vec<u8>>,
    /// Recent broadcasts *accepted* from others, `round → sender →
    /// payload` — the relay pool answering peers' `Resend` requests.
    relay_store: BTreeMap<usize, BTreeMap<usize, Vec<u8>>>,
    /// Fault-delayed originals waiting for their due round,
    /// `due round → [(sender, payload)]`.
    delayed: BTreeMap<usize, Vec<(usize, Vec<u8>)>>,
    received: u64,
    current_round: usize,
    settled_round: Option<usize>,
    round_timeout: Duration,
    reconnect_attempts: u32,
    reconnect_base_delay: Duration,
    reconnect_window: Duration,
    fault_plan: Option<FaultPlan>,
}

impl TcpTransport {
    /// Establishes the full mesh for `config`, blocking until every peer
    /// is connected and identified (or the connect deadline passes). The
    /// listener then stays alive for the node's lifetime, accepting
    /// re-handshakes from peers recovering a broken link.
    ///
    /// # Errors
    ///
    /// [`TcpError`] if the listener cannot bind, a dial or handshake
    /// fails permanently, or the mesh does not form before the deadline.
    pub fn establish(config: &NodeConfig) -> Result<TcpTransport, TcpError> {
        let me = config.me;
        let n = config.n();
        let deadline = Instant::now() + config.connect_timeout;
        let listener =
            TcpListener::bind(config.my_addr()).map_err(|e| TcpError::io("bind listener", e))?;

        // Inbound half of the mesh: every higher id dials us, and keeps
        // dialing us to heal a broken link, so every accepted stream
        // arrives as an identified `Reconnected` event.
        let (event_tx, events) = mpsc::channel();
        spawn_acceptor(listener, me.index(), n, event_tx.clone());

        let mut writers: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();

        // Outbound half: dial every lower id, retrying until the
        // deadline so nodes may start in any order.
        for (peer, &addr) in config.peers.iter().enumerate().take(me.index()) {
            let mut retry = FIRST_RETRY;
            let stream = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(TcpError::io(&format!("connect to {addr}"), e));
                        }
                        thread::sleep(retry);
                        retry = (retry * 2).min(DIAL_RETRY_CAP);
                    }
                }
            };
            let _ = stream.set_nodelay(true);
            let mut hello_half = stream
                .try_clone()
                .map_err(|e| TcpError::io("clone stream", e))?;
            Frame::hello(me)
                .write_to(&mut hello_half)
                .map_err(|e| TcpError::io("send hello", e))?;
            writers[peer] = Some(stream);
        }

        // Collect the identified inbound connections. No reader exists
        // yet, so the listener is the only event source.
        for _ in me.index() + 1..n {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let (peer, event) = events
                .recv_timeout(remaining)
                .map_err(|_| TcpError::HandshakeTimeout)?;
            match event {
                PeerEvent::Reconnected(stream) if writers[peer].is_none() => {
                    writers[peer] = Some(stream);
                }
                _ => return Err(TcpError::BadHello),
            }
        }

        // One reader thread per peer, all feeding one ordered channel.
        for (peer, writer) in writers.iter().enumerate() {
            let Some(writer) = writer else { continue };
            let reader = writer
                .try_clone()
                .map_err(|e| TcpError::io("clone stream", e))?;
            spawn_reader(peer, 0, reader, event_tx.clone());
        }

        Ok(TcpTransport {
            me,
            n,
            writers,
            events,
            event_tx,
            peer_addrs: config.peers.clone(),
            peers: vec![PeerState::fresh(config.reconnect_attempts); n],
            pending: BTreeMap::new(),
            self_letter: None,
            sent_log: BTreeMap::new(),
            relay_store: BTreeMap::new(),
            delayed: BTreeMap::new(),
            received: 0,
            current_round: 0,
            settled_round: None,
            round_timeout: config.round_timeout,
            reconnect_attempts: config.reconnect_attempts,
            reconnect_base_delay: config.reconnect_base_delay,
            reconnect_window: config.reconnect_window,
            fault_plan: config.fault_plan.clone(),
        })
    }

    /// Total letters this node has collected — its contribution to a
    /// testnet-wide delivery count.
    pub fn received_total(&self) -> u64 {
        self.received
    }

    /// Whether the round loop still expects a frame from `peer` in
    /// `round`. Peers whose link is closed are expected: they may heal.
    fn expects(&self, peer: usize, round: usize) -> bool {
        let state = self.peers[peer];
        state.down.is_none() && state.settled_at.is_none_or(|r| r >= round)
    }

    /// Confirms a peer dead, timing the confirmation from the close.
    fn mark_down(&mut self, peer: usize, cause: Confirm) {
        let state = &mut self.peers[peer];
        if state.down.is_some() {
            return;
        }
        if state.settled_at.is_none() && setagree_obs::enabled() {
            let metrics = tcp_metrics();
            metrics.peers_confirmed_down.inc();
            if let Some(at) = state.closed_at {
                let us = u64::try_from(at.elapsed().as_micros()).unwrap_or(u64::MAX);
                metrics.crash_confirm_us[cause as usize].record(us);
            }
        }
        state.down = Some(cause);
        if let Some(w) = self.writers[peer].take() {
            let _ = w.shutdown(Shutdown::Both);
        }
    }

    /// A peer's link broke (EOF, read error or write failure). Recovery
    /// starts only on the open → closed transition, so the two
    /// observations of one break — the failed write and the reader's
    /// EOF — spend one campaign. At most one campaign per peer is in
    /// flight: a link this node dials reopens only through its own
    /// campaign, which that ends. A peer this node dials gets a redial
    /// campaign while its budget lasts; every other close gets a
    /// liveness probe.
    fn note_closed(&mut self, peer: usize) {
        let Some(w) = self.writers[peer].take() else {
            return;
        };
        let _ = w.shutdown(Shutdown::Both);
        let addr = self.peer_addrs[peer];
        let tx = self.event_tx.clone();
        let state = &mut self.peers[peer];
        state.closed_at = Some(Instant::now());
        if peer < self.me.index() && state.redials_left > 0 {
            state.redials_left -= 1;
            spawn_redial(
                self.me,
                peer,
                addr,
                self.reconnect_attempts,
                self.reconnect_base_delay,
                tx,
            );
        } else {
            spawn_probe(peer, addr, Instant::now() + self.reconnect_window, tx);
        }
    }

    /// Adopts a freshly (re)identified stream for `peer` and resumes at
    /// the current round: replay our recent broadcasts (the originals
    /// may have died with the old socket) and our settlement, then pull
    /// whatever we missed. With one campaign per break, a new handshake
    /// means the peer's side saw the old link die, so the newer stream
    /// always replaces it.
    fn adopt_stream(&mut self, peer: usize, stream: TcpStream) {
        if peer == self.me.index() || self.peers[peer].down.is_some() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let Ok(reader) = stream.try_clone() else {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        };
        if let Some(old) = self.writers[peer].replace(stream) {
            let _ = old.shutdown(Shutdown::Both);
        }
        let state = &mut self.peers[peer];
        state.link = state.link.wrapping_add(1);
        state.closed_at = None;
        spawn_reader(peer, state.link, reader, self.event_tx.clone());

        // Resume: recent broadcasts as ordinary first-arrival Msg frames
        // (an injected plan judges them exactly once, deterministically),
        // plus our settlement notice, plus a pull for the stalled round.
        let replay: Vec<Frame> = self
            .sent_log
            .iter()
            .map(|(&round, payload)| Frame::msg(self.me, round, payload.clone()))
            .collect();
        for frame in replay {
            self.write_frame(peer, &frame);
        }
        if let Some(round) = self.settled_round {
            self.write_frame(peer, &Frame::settled(self.me, round));
        }
        let round = self.current_round;
        if round > 0 {
            self.write_frame(peer, &Frame::resend(self.me, round));
        }
    }

    /// Writes one frame to `peer`, converting a write failure into a
    /// closed-stream observation.
    fn write_frame(&mut self, peer: usize, frame: &Frame) {
        let wrote = self.writers[peer]
            .as_mut()
            .map(|w| frame.write_to(w).is_ok());
        match wrote {
            Some(true) if setagree_obs::enabled() => {
                tcp_metrics().frames_sent[kind_index(frame.kind)].inc();
            }
            Some(false) => self.note_closed(peer),
            _ => {}
        }
    }

    /// Asks every reachable peer to relay what it has seen of `round`.
    fn send_resends(&mut self, round: usize) {
        let obs_on = setagree_obs::enabled();
        for peer in 0..self.n {
            if peer == self.me.index() || self.writers[peer].is_none() {
                continue;
            }
            if obs_on {
                tcp_metrics().frames_resent.inc();
            }
            self.write_frame(peer, &Frame::resend(self.me, round));
        }
    }

    /// Answers a peer's `Resend` for `round` with relays of everything
    /// this node has: its own broadcast and the accepted broadcasts of
    /// others (which is how a crashed sender's delivered prefix still
    /// propagates to peers the prefix missed).
    fn serve_resend(&mut self, peer: usize, round: usize) {
        let mut relays = Vec::new();
        if let Some(payload) = self.sent_log.get(&round) {
            relays.push(Frame::relay(self.me, self.me, round, payload));
        }
        if let Some(seen) = self.relay_store.get(&round) {
            for (&orig, payload) in seen {
                if orig != peer {
                    relays.push(Frame::relay(self.me, ProcessId::new(orig), round, payload));
                }
            }
        }
        if setagree_obs::enabled() {
            tcp_metrics().relays_served.add(relays.len() as u64);
        }
        for frame in relays {
            self.write_frame(peer, &frame);
        }
    }

    /// The injected-fault verdict for a first-arrival `Msg` frame.
    fn filter(&self, round: usize, from: usize) -> LinkFault {
        match &self.fault_plan {
            Some(plan) => plan.decide(round, ProcessId::new(from), self.me),
            None => LinkFault::Deliver,
        }
    }

    /// Stores an accepted broadcast in the relay pool.
    fn remember(&mut self, round: usize, from: usize, payload: &[u8]) {
        self.relay_store
            .entry(round)
            .or_default()
            .entry(from)
            .or_insert_with(|| payload.to_vec());
    }

    fn note_frame(
        &mut self,
        peer: usize,
        frame: Frame,
        round: usize,
        got: &mut BTreeMap<usize, Vec<u8>>,
    ) {
        let obs_on = setagree_obs::enabled();
        if obs_on {
            tcp_metrics().frames_received[kind_index(frame.kind)].inc();
        }
        match frame.kind {
            FrameKind::Msg if frame.round >= round => {
                match self.filter(frame.round, peer) {
                    LinkFault::Drop => {
                        // Same counter names the simulator's fault inbox
                        // uses, so a fault plan's footprint aggregates
                        // across tiers.
                        if obs_on {
                            setagree_obs::counter("fault_messages_dropped", &[]).inc();
                        }
                        return;
                    }
                    LinkFault::Delay(by) => {
                        if obs_on {
                            setagree_obs::counter("fault_messages_delayed", &[]).inc();
                        }
                        self.delayed
                            .entry(frame.round + by)
                            .or_default()
                            .push((peer, frame.payload));
                        return;
                    }
                    // The sender-keyed round inbox absorbs duplicates.
                    LinkFault::Deliver | LinkFault::Duplicate => {}
                }
                self.remember(frame.round, peer, &frame.payload);
                if frame.round == round {
                    got.entry(peer).or_insert(frame.payload);
                } else {
                    self.pending
                        .entry(frame.round)
                        .or_default()
                        .entry(peer)
                        .or_insert(frame.payload);
                }
            }
            // Stale rounds (we gave up on the sender) and stray hellos
            // are dropped.
            FrameKind::Msg | FrameKind::Hello => {}
            FrameKind::Settled => {
                self.peers[peer].settled_at = Some(frame.round);
            }
            FrameKind::Resend => {
                self.serve_resend(peer, frame.round);
            }
            FrameKind::Relay => {
                // Recovery data: exempt from the fault filter, deduped by
                // the sender-keyed maps. A malformed relay is dropped.
                let Some((orig, payload)) = frame.relay_parts() else {
                    return;
                };
                let (orig, payload) = (orig.index(), payload.to_vec());
                if orig >= self.n || orig == self.me.index() {
                    return;
                }
                if frame.round >= round {
                    self.remember(frame.round, orig, &payload);
                    if frame.round == round {
                        if self.expects(orig, round) {
                            got.entry(orig).or_insert(payload);
                        }
                    } else {
                        self.pending
                            .entry(frame.round)
                            .or_default()
                            .entry(orig)
                            .or_insert(payload);
                    }
                }
            }
        }
    }

    fn handle_event(
        &mut self,
        peer: usize,
        event: PeerEvent,
        round: usize,
        got: &mut BTreeMap<usize, Vec<u8>>,
    ) {
        if peer >= self.n {
            return;
        }
        match event {
            PeerEvent::Frame(frame) => self.note_frame(peer, frame, round, got),
            PeerEvent::Closed(link) => {
                if link == self.peers[peer].link {
                    self.note_closed(peer);
                }
            }
            PeerEvent::Reconnected(stream) => self.adopt_stream(peer, stream),
            PeerEvent::Refused | PeerEvent::GaveUp => {
                // If the link healed in the meantime, a give-up is
                // stale; a refusal still proves death, and the healed
                // link will close on its own.
                if self.peers[peer].closed_at.is_some() {
                    let cause = match event {
                        PeerEvent::Refused => Confirm::Refused,
                        _ => Confirm::GaveUp,
                    };
                    self.mark_down(peer, cause);
                }
            }
        }
    }

    /// Drops relay/broadcast history too old to be useful.
    fn prune(&mut self, round: usize) {
        let floor = round.saturating_sub(RELAY_KEEP);
        self.sent_log = self.sent_log.split_off(&floor);
        self.relay_store = self.relay_store.split_off(&floor);
    }
}

/// The accept loop, which owns the listener. Only higher ids dial this
/// node, so a stream is forwarded as `Reconnected` only behind a `Hello`
/// from such an id; anything else — a liveness probe, a stray or hostile
/// connection — is dropped. Transient accept errors are retried: the
/// listener must live as long as the transport, whose dropped event
/// channel is the loop's only exit.
fn spawn_acceptor(
    listener: TcpListener,
    me: usize,
    n: usize,
    tx: mpsc::Sender<(usize, PeerEvent)>,
) {
    thread::spawn(move || loop {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                thread::sleep(ACCEPT_RETRY);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        // Identify inline, but never let a silent dialer wedge the
        // listener.
        let _ = stream.set_read_timeout(Some(HELLO_TIMEOUT));
        let hello = Frame::read_from(&mut stream);
        let _ = stream.set_read_timeout(None);
        let peer = match hello {
            Ok(Some(f)) if f.kind == FrameKind::Hello => f.from.index(),
            _ => continue,
        };
        if peer <= me || peer >= n {
            continue;
        }
        if tx.send((peer, PeerEvent::Reconnected(stream))).is_err() {
            return;
        }
    });
}

fn spawn_reader(
    peer: usize,
    link: u32,
    mut reader: TcpStream,
    tx: mpsc::Sender<(usize, PeerEvent)>,
) {
    thread::spawn(move || loop {
        match Frame::read_from(&mut reader) {
            Ok(Some(frame)) => {
                if tx.send((peer, PeerEvent::Frame(frame))).is_err() {
                    return;
                }
            }
            Ok(None) | Err(_) => {
                let _ = tx.send((peer, PeerEvent::Closed(link)));
                return;
            }
        }
    });
}

/// One redial campaign: bounded exponential backoff, then give up. A
/// refused dial ends it at once — the peer's listener is gone, so is the
/// peer.
fn spawn_redial(
    me: ProcessId,
    peer: usize,
    addr: SocketAddr,
    attempts: u32,
    base_delay: Duration,
    tx: mpsc::Sender<(usize, PeerEvent)>,
) {
    thread::spawn(move || {
        let obs_on = setagree_obs::enabled();
        let mut delay = base_delay;
        let mut outcome = PeerEvent::GaveUp;
        for _ in 0..attempts.max(1) {
            if obs_on {
                tcp_metrics().redial_attempts.inc();
            }
            match TcpStream::connect(addr) {
                Ok(mut stream) => {
                    let _ = stream.set_nodelay(true);
                    if Frame::hello(me).write_to(&mut stream).is_ok() {
                        if obs_on {
                            tcp_metrics().redials_ok.inc();
                        }
                        let _ = tx.send((peer, PeerEvent::Reconnected(stream)));
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                    outcome = PeerEvent::Refused;
                    break;
                }
                Err(_) => {}
            }
            thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
        if obs_on {
            tcp_metrics().redials_failed.inc();
        }
        let _ = tx.send((peer, outcome));
    });
}

/// Watches the listener of a peer whose link closed: connect and drop
/// without a `Hello` (the listener skips such streams) on a doubling
/// backoff from [`FIRST_RETRY`] until `until`. A successful connect
/// changes nothing — the peer may still heal the link — but a refusal
/// proves the peer's process gone. The first probe after a kill often
/// still connects: the victim shuts its sockets just before it exits.
fn spawn_probe(
    peer: usize,
    addr: SocketAddr,
    until: Instant,
    tx: mpsc::Sender<(usize, PeerEvent)>,
) {
    thread::spawn(move || {
        let mut delay = FIRST_RETRY;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            if let Err(e) = TcpStream::connect_timeout(&addr, left) {
                if e.kind() == io::ErrorKind::ConnectionRefused {
                    let _ = tx.send((peer, PeerEvent::Refused));
                    return;
                }
            }
            thread::sleep(delay.min(until.saturating_duration_since(Instant::now())));
            delay = delay.saturating_mul(2);
        }
    });
}

impl Transport for TcpTransport {
    type Msg = Vec<u8>;
    type Letter = Vec<u8>;
    type Error = TcpError;

    fn n(&self) -> usize {
        self.n
    }

    fn me(&self) -> ProcessId {
        self.me
    }

    fn broadcast(&mut self, round: usize, payload: Vec<u8>, reach: usize) -> Result<(), TcpError> {
        self.current_round = round;
        self.sent_log.insert(round, payload.clone());
        for recipient in 0..reach.min(self.n) {
            if recipient == self.me.index() {
                self.self_letter = Some((round, payload.clone()));
                continue;
            }
            if !self.expects(recipient, round) {
                continue;
            }
            let frame = Frame::msg(self.me, round, payload.clone());
            self.write_frame(recipient, &frame);
        }
        Ok(())
    }

    fn sends_done(&mut self, _round: usize) -> Result<(), TcpError> {
        // Writes are unbuffered (`write_all` + TCP_NODELAY): nothing to
        // flush, and rounds need no barrier — `collect` blocks until the
        // round's frames arrive.
        Ok(())
    }

    fn collect(&mut self, round: usize) -> Result<Vec<(ProcessId, Vec<u8>)>, TcpError> {
        self.current_round = round;
        self.prune(round);

        // Fault-delayed originals whose due round has come: delivered
        // first, like the simulator's inbox (stale metadata and all).
        let mut late = Vec::new();
        while let Some((&due, _)) = self.delayed.first_key_value() {
            if due > round {
                break;
            }
            let (_, batch) = self.delayed.pop_first().expect("checked non-empty");
            late.extend(batch);
        }

        let mut got: BTreeMap<usize, Vec<u8>> = self.pending.remove(&round).unwrap_or_default();
        if let Some((r, payload)) = self.self_letter.take() {
            if r == round {
                got.insert(self.me.index(), payload);
            }
        }
        let deadline = Instant::now() + self.round_timeout;
        // Suspicion cadence: a stalled round asks for relays after a short
        // floor, then ever less often up to the cap, until the deadline.
        // Extra resends are harmless: relays land in sender-keyed inboxes.
        let resend_cap =
            (self.round_timeout / 10).clamp(Duration::from_millis(50), Duration::from_secs(1));
        let mut resend_interval = FIRST_RETRY;
        let mut next_resend = Instant::now() + resend_interval;
        loop {
            let missing: Vec<usize> = (0..self.n)
                .filter(|&p| {
                    p != self.me.index() && self.expects(p, round) && !got.contains_key(&p)
                })
                .collect();
            if missing.is_empty() {
                break;
            }
            let now = Instant::now();
            // A closed peer that did not re-handshake within the window
            // has spent its reconnect budget: confirmed dead.
            for &p in &missing {
                if let Some(at) = self.peers[p].closed_at {
                    if now >= at + self.reconnect_window {
                        self.mark_down(p, Confirm::Window);
                    }
                }
            }
            if now >= deadline {
                let mut silent = Vec::new();
                for &p in &missing {
                    let state = self.peers[p];
                    if state.down.is_some() {
                        continue;
                    }
                    if state.closed_at.is_some() {
                        // Stream gone and the deadline beat the window:
                        // the budget is spent either way.
                        self.mark_down(p, Confirm::Deadline);
                    } else {
                        silent.push(ProcessId::new(p));
                    }
                }
                if silent.is_empty() {
                    break;
                }
                if setagree_obs::enabled() {
                    tcp_metrics().round_timeouts.inc();
                }
                return Err(TcpError::RoundTimeout {
                    round,
                    peers: silent,
                });
            }
            if now >= next_resend {
                self.send_resends(round);
                resend_interval = (resend_interval * 2).min(resend_cap);
                next_resend = now + resend_interval;
            }
            let wait = COLLECT_TICK
                .min(deadline.saturating_duration_since(now))
                .min(next_resend.saturating_duration_since(now))
                .max(Duration::from_millis(1));
            // A timeout tick just re-checks the deadlines; `event_tx`
            // lives in self, so the channel can never disconnect.
            if let Ok((peer, event)) = self.events.recv_timeout(wait) {
                self.handle_event(peer, event, round, &mut got);
            }
        }
        self.received += (late.len() + got.len()) as u64;
        let mut letters: Vec<(ProcessId, Vec<u8>)> = late
            .into_iter()
            .map(|(peer, payload)| (ProcessId::new(peer), payload))
            .collect();
        letters.extend(
            got.into_iter()
                .map(|(peer, payload)| (ProcessId::new(peer), payload)),
        );
        Ok(letters)
    }

    fn settle(&mut self, round: usize) -> Result<(), TcpError> {
        self.settled_round = Some(round);
        for recipient in 0..self.n {
            if recipient == self.me.index() {
                continue;
            }
            let frame = Frame::settled(self.me, round);
            self.write_frame(recipient, &frame);
        }
        Ok(())
    }

    fn round_done(&mut self, _round: usize, settled: bool) -> Result<bool, TcpError> {
        // A settled node leaves immediately: peers were told via the
        // `Settled` frame and stop waiting for it, so there is nothing
        // left to synchronize with.
        Ok(settled)
    }

    fn depart(&mut self, _round: usize) {
        // The kill: slam every socket shut without a goodbye. Peers see
        // end-of-stream after exactly the frames already written — the
        // ordered-send prefix. (When the node binary injects a crash it
        // additionally aborts the whole process.)
        for writer in &mut self.writers {
            if let Some(w) = writer.take() {
                let _ = w.shutdown(Shutdown::Both);
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Unblock this node's reader threads and send FIN to peers; by
        // now they either saw our `Settled` or treat the close as a
        // crash, which is the honest reading.
        for writer in &mut self.writers {
            if let Some(w) = writer.take() {
                let _ = w.shutdown(Shutdown::Both);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::localhost_peers;
    use crate::drive;
    use crate::transport::{MsgCodec, Typed, U32Codec};
    use setagree_sync::{CrashSpec, Outcome, Partition, Step, SyncProtocol};
    use setagree_types::ProcessSet;

    /// Max-flood over real sockets (in-process: one thread per node).
    #[derive(Debug)]
    struct MaxFlood {
        rounds: usize,
        best: u32,
    }

    impl SyncProtocol for MaxFlood {
        type Msg = u32;
        type Output = u32;
        fn message(&mut self, _round: usize) -> u32 {
            self.best
        }
        fn receive(&mut self, _round: usize, _from: ProcessId, msg: &u32) {
            self.best = self.best.max(*msg);
        }
        fn compute(&mut self, round: usize) -> Step<u32> {
            if round >= self.rounds {
                Step::Decide(self.best)
            } else {
                Step::Continue
            }
        }
    }

    fn tcp_system_with(
        port_base: u16,
        inputs: &[u32],
        crash: Option<(usize, CrashSpec)>,
        plan: Option<FaultPlan>,
        round_timeout: Duration,
    ) -> Vec<Option<Outcome<u32>>> {
        let n = inputs.len();
        let peers = localhost_peers(n, port_base);
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, &best)| {
                let peers = peers.clone();
                let plan = plan.clone();
                let spec = crash.and_then(|(victim, s)| (victim == i).then_some(s));
                thread::spawn(move || {
                    let mut config = NodeConfig::new(ProcessId::new(i), peers)
                        .expect("valid config")
                        .with_round_timeout(round_timeout);
                    if let Some(plan) = plan {
                        config = config.with_fault_plan(plan);
                    }
                    let tcp = TcpTransport::establish(&config).expect("mesh forms");
                    let transport = Typed::new(tcp, U32Codec);
                    drive(MaxFlood { rounds: 3, best }, transport, spec, 10).ok()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect()
    }

    fn tcp_system(
        port_base: u16,
        inputs: &[u32],
        crash: Option<(usize, CrashSpec)>,
    ) -> Vec<Option<Outcome<u32>>> {
        tcp_system_with(port_base, inputs, crash, None, Duration::from_secs(5))
    }

    #[test]
    fn failure_free_mesh_floods_the_maximum() {
        let outcomes = tcp_system(42110, &[3, 9, 1, 4], None);
        for outcome in outcomes {
            assert_eq!(outcome, Some(Outcome::Decided { value: 9, round: 3 }));
        }
    }

    #[test]
    fn a_killed_node_delivers_only_its_prefix() {
        // Node 0 holds the maximum and dies in round 1 after reaching
        // only itself and node 1; node 1 floods 9 onward, so everyone
        // still converges on 9 — via the survivor.
        let outcomes = tcp_system(42120, &[9, 1, 1, 1], Some((0, CrashSpec::new(1, 2))));
        assert_eq!(outcomes[0], Some(Outcome::Crashed { round: 1 }));
        for outcome in &outcomes[1..] {
            assert_eq!(*outcome, Some(Outcome::Decided { value: 9, round: 3 }));
        }
    }

    #[test]
    fn dropped_links_heal_through_relays() {
        // A plan that cuts node 0 off from everyone for rounds 1–2 (its
        // original frames in both directions). Resend/relay recovery
        // restores the lost broadcasts, so every node still floods the
        // maximum held by node 0.
        let mut side = ProcessSet::empty(3);
        side.insert(ProcessId::new(0));
        let plan = FaultPlan::new(3, 0xD1A1).partition(Partition::new(side, 1, 2));
        let outcomes = tcp_system_with(42130, &[9, 1, 4], None, Some(plan), Duration::from_secs(5));
        for outcome in outcomes {
            assert_eq!(outcome, Some(Outcome::Decided { value: 9, round: 3 }));
        }
    }

    #[test]
    fn a_broken_link_reconnects_and_resumes() {
        // Two nodes run three manual rounds; between rounds 1 and 2 node
        // 1 slams its socket to node 0 (a transient link failure, not a
        // kill — both processes keep running). The redial campaign plus
        // the persistent listener re-form the link and the remaining
        // rounds complete with full inboxes; nobody is declared dead.
        let peers = localhost_peers(2, 42140);
        let run = |i: usize, sabotage: bool| {
            let peers = peers.clone();
            thread::spawn(move || {
                let config = NodeConfig::new(ProcessId::new(i), peers)
                    .expect("valid config")
                    .with_round_timeout(Duration::from_secs(5))
                    // The default 3×3 redial budget and 500 ms window are
                    // marginal when the whole suite's meshes run in
                    // parallel; the property under test is that the link
                    // heals, not that it heals on a shoestring.
                    .with_reconnect(5, Duration::from_millis(25))
                    .with_reconnect_window(Duration::from_secs(5));
                let mut tcp = TcpTransport::establish(&config).expect("mesh forms");
                let mut counts = Vec::new();
                for round in 1..=3 {
                    tcp.broadcast(round, vec![i as u8, round as u8], 2)
                        .expect("broadcast");
                    let letters = tcp.collect(round).expect("collect");
                    counts.push(letters.len());
                    if sabotage && round == 1 {
                        if let Some(w) = &tcp.writers[0] {
                            let _ = w.shutdown(Shutdown::Both);
                        }
                    }
                }
                assert!(
                    tcp.peers[1 - i].down.is_none(),
                    "peer wrongly confirmed dead"
                );
                counts
            })
        };
        let a = run(0, false);
        let b = run(1, true);
        assert_eq!(a.join().expect("node 0"), vec![2, 2, 2]);
        assert_eq!(b.join().expect("node 1"), vec![2, 2, 2]);
    }

    #[test]
    fn one_break_spends_one_redial_campaign() {
        // Node 1 dials node 0. One break is observed twice — by the
        // failed write and by the reader's end-of-stream — and must start
        // exactly one campaign.
        let peers = localhost_peers(2, 42170);
        let node0 = {
            let peers = peers.clone();
            thread::spawn(move || {
                let config = NodeConfig::new(ProcessId::new(0), peers).expect("valid config");
                TcpTransport::establish(&config).expect("mesh forms")
            })
        };
        let config = NodeConfig::new(ProcessId::new(1), peers).expect("valid config");
        let mut tcp = TcpTransport::establish(&config).expect("mesh forms");
        let _node0 = node0.join().expect("node 0");

        let budget = tcp.peers[0].redials_left;
        let link = tcp.peers[0].link;
        if let Some(w) = &tcp.writers[0] {
            let _ = w.shutdown(Shutdown::Both);
        }
        tcp.write_frame(0, &Frame::msg(tcp.me, 1, vec![1]));
        tcp.handle_event(0, PeerEvent::Closed(link), 1, &mut BTreeMap::new());
        assert_eq!(tcp.peers[0].redials_left, budget - 1);
    }

    #[test]
    fn a_refused_dial_confirms_a_dead_peer() {
        // Node 2 is a raw-socket fake with no listener at its address: it
        // handshakes, sends its round-1 frame and vanishes without
        // `Settled`. With a 30 s reconnect window and round timeout, only
        // the refusal rule confirms it dead before the rounds run out.
        let peers = localhost_peers(3, 42180);
        let real = |i: usize| {
            let peers = peers.clone();
            thread::spawn(move || {
                let config = NodeConfig::new(ProcessId::new(i), peers)
                    .expect("valid config")
                    .with_round_timeout(Duration::from_secs(30))
                    .with_reconnect_window(Duration::from_secs(30));
                let tcp = TcpTransport::establish(&config).expect("mesh forms");
                let mut transport = Typed::new(tcp, U32Codec);
                let best = (i + 1) as u32;
                let outcome = drive(MaxFlood { rounds: 3, best }, &mut transport, None, 10)
                    .expect("a vanished peer must not break the drive loop");
                (outcome, transport.inner().peers[2].down)
            })
        };
        let a = real(0);
        let b = real(1);

        let me = ProcessId::new(2);
        let streams: Vec<TcpStream> = peers[..2]
            .iter()
            .map(|&addr| {
                let mut s = loop {
                    match TcpStream::connect(addr) {
                        Ok(s) => break s,
                        Err(_) => thread::sleep(Duration::from_millis(10)),
                    }
                };
                Frame::hello(me).write_to(&mut s).expect("hello");
                Frame::msg(me, 1, U32Codec.encode(&9))
                    .write_to(&mut s)
                    .expect("round 1");
                s
            })
            .collect();
        drop(streams);

        for handle in [a, b] {
            let (outcome, down) = handle.join().expect("node thread");
            assert_eq!(outcome, Outcome::Decided { value: 9, round: 3 });
            assert_eq!(down, Some(Confirm::Refused));
        }
    }

    #[test]
    fn a_connected_silent_peer_times_out_instead_of_crashing() {
        // Node 1 is a raw-socket fake that handshakes and then never
        // sends a round frame, though it keeps the link open and reads
        // what it is sent. Resends do not make it a suspect-turned-dead:
        // the round fails loudly with a timeout naming it.
        let peers = localhost_peers(2, 42190);
        let addr = peers[0];
        let fake = thread::spawn(move || {
            let mut s = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(_) => thread::sleep(Duration::from_millis(10)),
                }
            };
            Frame::hello(ProcessId::new(1))
                .write_to(&mut s)
                .expect("hello");
            while let Ok(Some(_)) = Frame::read_from(&mut s) {}
        });
        let config = NodeConfig::new(ProcessId::new(0), peers)
            .expect("valid config")
            .with_round_timeout(Duration::from_millis(300));
        let mut tcp = TcpTransport::establish(&config).expect("mesh forms");
        tcp.broadcast(1, vec![0], 2).expect("broadcast");
        match tcp.collect(1) {
            Err(TcpError::RoundTimeout { round, peers }) => {
                assert_eq!((round, peers), (1, vec![ProcessId::new(1)]));
            }
            other => panic!("expected a round timeout, got {other:?}"),
        }
        assert!(tcp.peers[1].down.is_none(), "silent peer declared dead");
        drop(tcp);
        fake.join().expect("fake peer");
    }

    /// A hostile peer speaks the frame protocol badly on purpose:
    /// duplicated round frames, future rounds out of order, a malformed
    /// relay, a stray resend, and finally a truncated frame that kills
    /// the stream mid-conversation. The real nodes never panic, absorb
    /// the noise (sender-keyed inboxes dedup, pending buffers reorder,
    /// malformed relays drop), and still reach their verdict.
    #[test]
    fn hostile_frames_mid_round_never_panic_the_readers() {
        use std::io::Write;

        let peers = localhost_peers(3, 42160);
        let real = |i: usize| {
            let peers = peers.clone();
            thread::spawn(move || {
                let config = NodeConfig::new(ProcessId::new(i), peers)
                    .expect("valid config")
                    .with_round_timeout(Duration::from_secs(5));
                let tcp = TcpTransport::establish(&config).expect("mesh forms");
                let transport = Typed::new(tcp, U32Codec);
                drive(
                    MaxFlood {
                        rounds: 3,
                        best: (i + 1) as u32,
                    },
                    transport,
                    None,
                    10,
                )
                .expect("hostile peer must not break the drive loop")
            })
        };
        let a = real(0);
        let b = real(1);

        let targets: Vec<_> = peers[..2].to_vec();
        let hostile = thread::spawn(move || {
            let codec = U32Codec;
            let me = ProcessId::new(2);
            for addr in targets {
                let mut s = loop {
                    match TcpStream::connect(addr) {
                        Ok(s) => break s,
                        Err(_) => thread::sleep(Duration::from_millis(10)),
                    }
                };
                Frame::hello(me).write_to(&mut s).expect("hello");
                let msg = |r: usize| Frame::msg(me, r, codec.encode(&9));
                // The round-1 frame, three times over.
                for _ in 0..3 {
                    msg(1).write_to(&mut s).expect("dup");
                }
                // Rounds 3 and 2, reordered.
                msg(3).write_to(&mut s).expect("future");
                msg(2).write_to(&mut s).expect("reordered");
                // A relay whose payload is shorter than its own header.
                Frame {
                    kind: FrameKind::Relay,
                    from: me,
                    round: 2,
                    payload: vec![1, 2],
                }
                .write_to(&mut s)
                .expect("malformed relay");
                // A resend for a round nobody has run.
                Frame::resend(me, 7).write_to(&mut s).expect("stray resend");
                Frame::settled(me, 3).write_to(&mut s).expect("settled");
                // A truncated frame: a length header promising far more
                // bytes than ever arrive, then a slammed socket.
                s.write_all(&[200, 0, 0, 0, 1]).expect("truncated header");
                let _ = s.shutdown(Shutdown::Both);
            }
        });

        hostile.join().expect("hostile thread");
        // The hostile peer's value 9 arrived through ordinary (if noisy)
        // Msg frames, so the flood still converges on it.
        for handle in [a, b] {
            assert_eq!(
                handle.join().expect("node thread"),
                Outcome::Decided { value: 9, round: 3 }
            );
        }
    }

    #[test]
    fn u32_codec_round_trips() {
        let codec = U32Codec;
        let bytes = codec.encode(&0xDEAD_BEEF);
        assert_eq!(codec.decode(&bytes), Some(0xDEAD_BEEF));
        assert_eq!(codec.decode(&bytes[..3]), None);
    }
}
