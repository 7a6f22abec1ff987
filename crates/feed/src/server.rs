//! The feed server: one view's changefeed, broadcast to any number of
//! TCP replicas with bounded replay and snapshot fallback.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use xivm_core::database::{Database, ViewHandle};
use xivm_core::snapshot::{encode_event, encode_store};
use xivm_core::subscribe::{FeedEvent, SlowConsumerPolicy, Subscription};
use xivm_core::view_store::ViewStore;

use crate::wire::{self, FeedError, FrameKind};

/// How long the accept thread waits for a connecting client's
/// handshake before giving up on it (a stalled dialer must not wedge
/// the accept loop).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Shared between the accept thread (handshakes) and
/// [`FeedServer::pump`] (event fan-out). One lock covers the mirror,
/// the retained window and the client list, so a client's snapshot /
/// replay and its registration are atomic with respect to broadcasts:
/// every client sees snapshot-or-replay up to `seq`, then `seq + 1`,
/// `seq + 2`, … with nothing skipped and nothing duplicated.
struct Hub {
    view_name: String,
    /// Byte-identical replica of the served view, advanced by
    /// replaying every event — this is exactly what a remote replica
    /// reconstructs, so handshake snapshots come from here.
    mirror: ViewStore,
    /// Sequence number `mirror` reflects.
    seq: u64,
    /// The last `retain` event frames (payloads of
    /// [`encode_event`]), consecutive and ending at `seq`. Cleared
    /// when the server's own subscription lags.
    retained: VecDeque<(u64, Vec<u8>)>,
    retain: usize,
    clients: Vec<TcpStream>,
}

/// Locks the hub, tolerating poison: `Drop` goes through here, and a
/// second panic while the first unwinds aborts the process. Every hub
/// update is a whole step — [`FeedServer::pump`]'s gapless assertion
/// fires before it touches the mirror — so the state behind a
/// poisoned lock is the last consistent one.
fn lock(hub: &Mutex<Hub>) -> MutexGuard<'_, Hub> {
    hub.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serves one view's changefeed over TCP — see the crate docs for the
/// protocol and [`crate::ReplicaClient`] for the consuming side.
///
/// The server owns a subscription on the view and a background accept
/// thread; [`Self::pump`] (called after commits, e.g. on the event
/// loop that drives the database) drains the subscription, advances
/// the server-side mirror store, and broadcasts each event frame to
/// every connected replica. A reconnecting client offers its
/// high-water mark: the server replays from its bounded retained
/// window when possible and falls back to a full store snapshot
/// otherwise, so resumption is always correct and never unbounded in
/// memory.
pub struct FeedServer {
    view: ViewHandle,
    sub: Option<Subscription>,
    state: Arc<Mutex<Hub>>,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl FeedServer {
    /// Binds a server for `view` on `addr` (use port 0 for an
    /// OS-assigned port, then [`Self::local_addr`]). `retain` bounds
    /// the replay window: a replica more than `retain` events behind
    /// recovers through a snapshot instead.
    ///
    /// The server's own subscription is explicitly **unbounded** so
    /// the commit path never blocks on, or drops events for, the
    /// replication fan-out; use [`Self::bind_with`] to choose a
    /// bounded queue and policy deliberately.
    pub fn bind(
        addr: impl ToSocketAddrs,
        db: &mut Database,
        view: ViewHandle,
        retain: usize,
    ) -> Result<FeedServer, FeedError> {
        Self::bind_with(addr, db, view, retain, None, SlowConsumerPolicy::Block)
    }

    /// [`Self::bind`] with an explicit subscription capacity and
    /// slow-consumer policy. Under [`SlowConsumerPolicy::DropAndMark`]
    /// a lagging server forwards the `Lagged` marker to every replica
    /// and resynchronizes its mirror from the live store; replicas
    /// recover through a reconnect-and-snapshot (the retained window
    /// is discarded, so the gap can never be silently replayed).
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        db: &mut Database,
        view: ViewHandle,
        retain: usize,
        capacity: Option<usize>,
        policy: SlowConsumerPolicy,
    ) -> Result<FeedServer, FeedError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let sub = db.subscribe_with(view, capacity, policy);
        let hub = Hub {
            view_name: db.name(view).to_owned(),
            mirror: db.store(view).clone(),
            seq: db.last_seq(),
            retained: VecDeque::new(),
            retain,
            clients: Vec::new(),
        };
        let state = Arc::new(Mutex::new(hub));
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("xivm-feed-accept".into())
                .spawn(move || accept_loop(listener, &state, &shutdown))
                .map_err(FeedError::Io)?
        };
        Ok(FeedServer { view, sub: Some(sub), state, shutdown, accept: Some(accept), addr: local })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connected replicas right now.
    pub fn clients(&self) -> usize {
        lock(&self.state).clients.len()
    }

    /// The sequence number the server-side mirror (and thus every
    /// fully caught-up replica) reflects.
    pub fn seq(&self) -> u64 {
        lock(&self.state).seq
    }

    /// Drains the server's subscription and fans the events out:
    /// each delta advances the mirror, enters the retained window and
    /// is broadcast to every connected replica (dead connections are
    /// pruned). A `Lagged` marker is broadcast as-is, the retained
    /// window discarded, and the mirror resynchronized from the live
    /// store — connected replicas recover by reconnecting, which the
    /// marker tells them to do. Returns the number of events drained.
    ///
    /// Call this after commits (it is cheap when nothing is queued).
    /// Events sealed between a lag marker and the resynchronization
    /// are covered by the snapshot replicas recover through, never
    /// re-broadcast.
    pub fn pump(&mut self, db: &Database) -> usize {
        let events = match &self.sub {
            Some(sub) => sub.drain(),
            None => return 0,
        };
        if events.is_empty() {
            return 0;
        }
        let mut hub = lock(&self.state);
        let drained = events.len();
        for event in events {
            match &event {
                FeedEvent::Delta(ev) => {
                    if ev.seq <= hub.seq {
                        // Already absorbed by a lag resync below.
                        continue;
                    }
                    assert_eq!(ev.seq, hub.seq + 1, "subscription feeds are gapless");
                    ev.delta.replay(&mut hub.mirror);
                    hub.seq = ev.seq;
                    let payload = encode_event(&event);
                    hub.retained.push_back((ev.seq, payload.clone()));
                    while hub.retained.len() > hub.retain {
                        hub.retained.pop_front();
                    }
                    broadcast(&mut hub.clients, &payload);
                }
                FeedEvent::Lagged(_) => {
                    let payload = encode_event(&event);
                    broadcast(&mut hub.clients, &payload);
                    hub.retained.clear();
                    hub.mirror = db.store(self.view).clone();
                    hub.seq = db.last_seq();
                }
            }
        }
        drained
    }

    /// Stops the accept thread, closes every client connection and
    /// returns the subscription for [`Database::unsubscribe`].
    pub fn close(mut self, db: &mut Database) {
        self.stop();
        if let Some(sub) = self.sub.take() {
            db.unsubscribe(sub);
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        lock(&self.state).clients.clear();
    }
}

impl Drop for FeedServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Writes one framed event to every client, pruning the dead.
fn broadcast(clients: &mut Vec<TcpStream>, payload: &[u8]) {
    clients.retain_mut(|c| wire::write_frame(c, FrameKind::Event, payload).is_ok());
}

fn accept_loop(listener: TcpListener, state: &Mutex<Hub>, shutdown: &AtomicBool) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // A failed handshake only costs this one connection.
                let _ = handshake(stream, state);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Runs one client's handshake and, on success, registers it for
/// broadcasts. The catch-up decision and the registration happen
/// under one lock acquisition so no broadcast can interleave.
fn handshake(mut stream: TcpStream, state: &Mutex<Hub>) -> Result<(), FeedError> {
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    wire::write_stream_header(&mut stream)?;
    wire::read_stream_header(&mut stream)?;
    let (kind, payload) = wire::read_frame(&mut stream)?;
    if kind != FrameKind::Hello {
        return Err(FeedError::Protocol(format!("expected hello, got {kind:?}")));
    }
    let (has_state, high_water, view) = wire::parse_hello(&payload)?;

    let mut hub = lock(state);
    if view != hub.view_name {
        let reason = format!("view {view:?} is not served here (serving {:?})", hub.view_name);
        let _ = wire::write_frame(&mut stream, FrameKind::Deny, reason.as_bytes());
        return Ok(());
    }
    let replayable = has_state
        && high_water <= hub.seq
        && (high_water == hub.seq
            || hub.retained.front().is_some_and(|(first, _)| *first <= high_water + 1));
    if replayable {
        for (seq, frame) in hub.retained.iter() {
            if *seq > high_water {
                wire::write_frame(&mut stream, FrameKind::Event, frame)?;
            }
        }
    } else {
        // Fresh client, or the gap outruns the retained window (or
        // the client claims a future the server never sealed — a
        // different server generation): replace its state wholesale.
        let image = wire::snapshot_payload(hub.seq, &encode_store(&hub.mirror));
        wire::write_frame(&mut stream, FrameKind::Snapshot, &image)?;
    }
    stream.set_read_timeout(None)?;
    stream.flush()?;
    hub.clients.push(stream);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic under the hub lock (the gapless assertion in `pump`)
    /// poisons it; the server must keep answering, and `Drop` — which
    /// takes the same lock — must not turn that into an abort.
    #[test]
    fn poisoned_hub_still_answers_and_drops() {
        let mut db = Database::builder()
            .document("<a><b/></a>")
            .view("ab", "//a{id}//b{id}")
            .build()
            .unwrap();
        let view = db.view("ab").unwrap();
        let mut server = FeedServer::bind("127.0.0.1:0", &mut db, view, 4).unwrap();
        let state = Arc::clone(&server.state);
        let poisoner = std::thread::spawn(move || {
            let _hub = state.lock().unwrap();
            panic!("poisoning the feed hub");
        });
        assert!(poisoner.join().is_err());
        assert!(server.state.is_poisoned());
        assert_eq!(server.clients(), 0);
        assert_eq!(server.seq(), 0);
        db.apply("insert <b/> into /a").unwrap();
        assert_eq!(server.pump(&db), 1);
        assert_eq!(server.seq(), 1);
        drop(server);
    }
}
