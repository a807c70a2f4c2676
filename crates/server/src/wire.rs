//! A real Vroom-compliant HTTP/2 server (and a matching client) over TCP,
//! built on the from-scratch `vroom-http2` stack.
//!
//! This is the reproduction's equivalent of the paper's
//! Apache-behind-nghttpx replay rig (§5): it serves a recorded corpus
//! ([`ReplayStore`]), attaches dependency hints as `Link` /
//! `x-semi-important` / `x-unimportant` headers, and pushes high-priority
//! local dependencies with PUSH_PROMISE. Used by the wire integration tests
//! and the `wire_demo` example; the performance experiments use the
//! discrete-event engine instead (timing on localhost is meaningless).

use crate::hints::attach_hints;
use crate::push_policy::{select_pushes, PushPolicy};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vroom_browser::config::Hint;
use vroom_html::Url;
use vroom_http2::{Connection, ErrorCode, Event, Request, Response, Settings};
use vroom_intern::{SharedBytes, UrlId};
use vroom_net::{ReplayStore, RetryBudget};

/// Injectable wall clock for the wire path's timeout logic.
///
/// The real-wire server genuinely measures socket idle time, but routing
/// every read through this trait keeps the workspace's wall-clock ban
/// auditable: exactly one implementation touches `Instant`, and tests can
/// substitute a fake clock to exercise timeouts without sleeping.
pub trait WireClock: Send + Sync {
    /// Monotonic time elapsed since an arbitrary fixed epoch.
    fn elapsed(&self) -> Duration;
}

/// The default clock: the process monotonic clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonotonicClock;

impl WireClock for MonotonicClock {
    fn elapsed(&self) -> Duration {
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        // vroom-lint: allow(sim-purity) -- sole sanctioned wall-clock read: real-wire timeouts measure actual socket idle time; simulation code never calls this
        START.get_or_init(Instant::now).elapsed()
    }
}

/// Wire-level fault injection: URLs whose *first* serve is truncated
/// mid-body and aborted with RST_STREAM(INTERNAL_ERROR). The spent-fault
/// set is shared across connection threads, so a retry — on the same
/// connection or a fresh one — sees a healthy serve.
#[derive(Clone, Default)]
pub struct WireFaults {
    truncate_once: Arc<Mutex<BTreeSet<Url>>>,
}

impl WireFaults {
    /// Truncate the first serve of each given URL.
    pub fn truncate_once(urls: impl IntoIterator<Item = Url>) -> WireFaults {
        WireFaults {
            truncate_once: Arc::new(Mutex::new(urls.into_iter().collect())),
        }
    }

    /// Consume the fault for `url`; true exactly once per configured URL.
    fn take(&self, url: &Url) -> bool {
        // A poisoned lock means another serve thread panicked; the set of
        // pending faults is still coherent (it holds no invariants beyond
        // membership), so keep serving rather than poisoning this thread.
        // The guard's critical section is exactly the `remove` — it drops
        // before the serve decision that consumes the answer, so a fault
        // check never stalls another connection's serve.
        let mut pending = self.truncate_once.lock().unwrap_or_else(|e| e.into_inner());
        let hit = pending.remove(url);
        drop(pending);
        hit
    }
}

/// Everything one wire server needs to serve a site.
#[derive(Clone)]
pub struct WireSite {
    /// Recorded responses by URL. Its intern table is the namespace every
    /// [`UrlId`] in `hints` resolves against.
    pub store: Arc<ReplayStore>,
    /// Dependency hints per HTML URL, keyed by the store's interned ids.
    pub hints: Arc<BTreeMap<UrlId, Vec<Hint>>>,
    /// Push policy applied to HTML responses.
    pub push: PushPolicy,
    /// The logical domain this server answers for (requests carry it in
    /// `:authority` even though the socket is loopback).
    pub domain: String,
    /// Injected wire faults (default: none).
    pub faults: WireFaults,
}

/// A running wire server; drop or [`stop`](WireServer::stop) to shut down.
pub struct WireServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WireServer {
    /// Bind a loopback port and serve `site` until stopped, timing idleness
    /// with the process monotonic clock.
    pub fn start(site: WireSite) -> std::io::Result<WireServer> {
        WireServer::start_with_clock(site, Arc::new(MonotonicClock))
    }

    /// Bind a loopback port and serve `site` until stopped, timing idleness
    /// with an injected clock.
    pub fn start_with_clock(
        site: WireSite,
        clock: Arc<dyn WireClock>,
    ) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::spawn(move || {
            let mut workers = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let site = site.clone();
                        let flag = flag.clone();
                        let clock = clock.clone();
                        workers.push(std::thread::spawn(move || {
                            let _ = serve_connection(stream, site, flag, clock);
                        }));
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(WireServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Body bytes still waiting for flow-control credit on a stream. Holds a
/// refcounted view of the recorded body — no copy per blocked stream.
struct PendingBody {
    data: SharedBytes,
    offset: usize,
    /// Consecutive zero-progress send attempts, charged against the
    /// connection's retry budget.
    stalls: u32,
    /// Earliest time the next attempt may run (capped exponential backoff).
    next_attempt: Duration,
}

impl PendingBody {
    fn new(data: SharedBytes, offset: usize) -> PendingBody {
        PendingBody {
            data,
            offset,
            stalls: 0,
            next_attempt: Duration::ZERO,
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    site: WireSite,
    shutdown: Arc<AtomicBool>,
    clock: Arc<dyn WireClock>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    stream.set_nodelay(true)?;
    let mut conn = Connection::server(Settings::default());
    let retry = RetryBudget::standard();
    let mut pending: BTreeMap<u32, PendingBody> = BTreeMap::new();
    let mut buf = [0u8; 16 * 1024];
    let idle_limit = Duration::from_secs(10);
    let mut last_activity = clock.elapsed();

    loop {
        if shutdown.load(Ordering::Relaxed)
            || clock.elapsed().saturating_sub(last_activity) > idle_limit
        {
            conn.goaway(ErrorCode::NoError, "server shutting down");
            let out = conn.take_output();
            let _ = stream.write_all(&out);
            return Ok(());
        }
        // Flush pending output.
        let out = conn.take_output();
        if !out.is_empty() {
            stream.write_all(&out)?;
            last_activity = clock.elapsed();
        }
        // Read what's available.
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => {
                last_activity = clock.elapsed();
                if conn.recv(buf.get(..n).unwrap_or_default()).is_err() {
                    let out = conn.take_output();
                    let _ = stream.write_all(&out);
                    return Ok(());
                }
            }
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
        // Handle protocol events.
        while let Some(ev) = conn.poll_event() {
            match ev {
                Event::Headers {
                    stream_id, fields, ..
                } => {
                    if let Ok(req) = Request::from_fields(&fields) {
                        handle_request(&mut conn, &site, stream_id, &req, &mut pending);
                    } else {
                        conn.reset_stream(stream_id, ErrorCode::ProtocolError);
                    }
                }
                Event::Goaway { .. } => {
                    let out = conn.take_output();
                    let _ = stream.write_all(&out);
                    return Ok(());
                }
                _ => {}
            }
        }
        // Retry flow-blocked bodies under the connection's retry budget:
        // consecutive zero-progress attempts back off exponentially, and a
        // stream whose budget is exhausted is reset rather than polled
        // forever against a peer that never opens its window.
        let now = clock.elapsed();
        let ids: Vec<u32> = pending.keys().copied().collect();
        for id in ids {
            let Some(body) = pending.get_mut(&id) else {
                continue;
            };
            if body.next_attempt > now {
                continue;
            }
            let rest = body.data.get(body.offset..).unwrap_or_default();
            match conn.send_data(id, rest, true) {
                Ok(0) => {
                    body.stalls += 1;
                    if retry.allows(body.stalls) {
                        body.next_attempt = now + retry.backoff_std(body.stalls);
                    } else {
                        conn.reset_stream(id, ErrorCode::FlowControlError);
                        pending.remove(&id);
                    }
                }
                Ok(sent) => {
                    body.stalls = 0;
                    body.offset += sent;
                    if body.offset >= body.data.len() {
                        pending.remove(&id);
                    }
                }
                Err(_) => {
                    pending.remove(&id);
                }
            }
        }
    }
}

fn handle_request(
    conn: &mut Connection,
    site: &WireSite,
    stream_id: u32,
    req: &Request,
    pending: &mut BTreeMap<u32, PendingBody>,
) {
    let url = Url::https(req.authority.as_str(), req.path.as_str());
    let Some((uid, record)) = site
        .store
        .id_of(&url)
        .and_then(|id| Some((id, site.store.lookup_id(id)?)))
    else {
        let resp = Response::with_status(404);
        let _ = conn.send_response(stream_id, &resp, true);
        return;
    };
    let urls = site.store.urls();

    let hints = site.hints.get(&uid).cloned().unwrap_or_default();
    // Push first (PUSH_PROMISE must precede the response data referencing
    // the pushed resources).
    let mut pushed_streams: Vec<(u32, UrlId)> = Vec::new();
    if !hints.is_empty() {
        for push in select_pushes(site.push, &site.domain, &hints, urls) {
            if site.store.lookup_id(push.url).is_none() {
                continue;
            }
            let Some(purl) = urls.url(push.url) else {
                continue;
            };
            let preq = Request::get(purl.host.as_str(), purl.path.as_str());
            if let Ok(pid) = conn.push_promise(stream_id, &preq) {
                pushed_streams.push((pid, push.url));
            }
        }
    }

    // The main response, hint headers attached.
    let mut resp =
        Response::with_status(record.status).with_header("content-type", content_type(record.kind));
    if !hints.is_empty() {
        resp = attach_hints(resp, &hints, urls);
    }
    let body = record.body_bytes();
    if !body.is_empty() && site.faults.take(&url) {
        // Injected truncation: serve a prefix of the body, leave the
        // stream open, then abort it — the client sees partial DATA
        // followed by a well-formed RST_STREAM.
        if conn.send_response(stream_id, &resp, false).is_ok() {
            let half = body.get(..body.len() / 2).unwrap_or_default();
            let _ = conn.send_data(stream_id, half, false);
        }
        conn.reset_stream(stream_id, ErrorCode::InternalError);
        return;
    }
    if conn
        .send_response(stream_id, &resp, body.is_empty())
        .is_ok()
        && !body.is_empty()
    {
        let sent = conn.send_data(stream_id, &body, true).unwrap_or(0);
        if sent < body.len() {
            pending.insert(stream_id, PendingBody::new(body, sent));
        }
    }

    // Pushed response bodies follow.
    for (pid, puid) in pushed_streams {
        let Some(rec) = site.store.lookup_id(puid) else {
            continue;
        };
        let presp = Response::ok().with_header("content-type", content_type(rec.kind));
        let pbody = rec.body_bytes();
        if conn.send_response(pid, &presp, pbody.is_empty()).is_ok() && !pbody.is_empty() {
            let sent = conn.send_data(pid, &pbody, true).unwrap_or(0);
            if sent < pbody.len() {
                pending.insert(pid, PendingBody::new(pbody, sent));
            }
        }
    }
}

fn content_type(kind: vroom_html::ResourceKind) -> &'static str {
    use vroom_html::ResourceKind::*;
    match kind {
        Html => "text/html; charset=utf-8",
        Css => "text/css",
        Js => "application/javascript",
        Image => "image/jpeg",
        Font => "font/woff2",
        Media => "video/mp4",
        Xhr => "application/json",
        Other => "application/octet-stream",
    }
}

/// One fetched exchange as seen by the wire client.
#[derive(Debug)]
pub struct FetchedResponse {
    /// Decoded response headers.
    pub response: Response,
    /// Full body.
    pub body: Vec<u8>,
    /// Whether it arrived via server push.
    pub pushed: bool,
    /// The request URL.
    pub url: Url,
}

struct StreamAcc {
    response: Option<Response>,
    body: Vec<u8>,
    done: bool,
    pushed: bool,
    url: Option<Url>,
}

/// A blocking HTTP/2 client for the wire server.
pub struct WireClient {
    stream: TcpStream,
    conn: Connection,
    streams: BTreeMap<u32, StreamAcc>,
    clock: MonotonicClock,
    /// Per-request retry policy applied when a stream is reset.
    retry: RetryBudget,
    /// GET attempts per URL, counted against the budget.
    attempts: BTreeMap<Url, u32>,
    /// Backed-off re-fetches waiting for their fire time.
    retry_queue: Vec<(Duration, Url)>,
    resets_seen: usize,
}

impl WireClient {
    /// Connect to a wire server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(20)))?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            stream,
            conn: Connection::client(Settings::vroom_client()),
            streams: BTreeMap::new(),
            clock: MonotonicClock,
            retry: RetryBudget::standard(),
            attempts: BTreeMap::new(),
            retry_queue: Vec::new(),
            resets_seen: 0,
        })
    }

    /// Replace the retry budget.
    pub fn with_retry(mut self, retry: RetryBudget) -> Self {
        self.retry = retry;
        self
    }

    /// RST_STREAM frames received so far.
    pub fn resets_seen(&self) -> usize {
        self.resets_seen
    }

    /// Issue a GET; returns the stream id. (Named `fetch`, not `get`, so the
    /// allocation analyzer's name-based call resolution does not conflate it
    /// with container `get` calls on the server hot path.)
    pub fn fetch(&mut self, url: &Url) -> std::io::Result<u32> {
        let req = Request::get(url.host.clone(), url.path.clone());
        let sid = self
            .conn
            .send_request(&req, true)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        *self.attempts.entry(url.clone()).or_insert(0) += 1;
        self.streams.insert(
            sid,
            StreamAcc {
                response: None,
                body: Vec::new(),
                done: false,
                pushed: false,
                url: Some(url.clone()),
            },
        );
        self.flush()?;
        Ok(sid)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let out = self.conn.take_output();
        if !out.is_empty() {
            self.stream.write_all(&out)?;
        }
        Ok(())
    }

    /// Drive IO until every open stream completes or the deadline passes.
    /// Returns all completed exchanges (requested and pushed).
    pub fn run(&mut self, deadline: Duration) -> std::io::Result<Vec<FetchedResponse>> {
        let start = self.clock.elapsed();
        let mut buf = [0u8; 16 * 1024];
        while self.clock.elapsed().saturating_sub(start) < deadline {
            // Issue any backed-off retries that have come due. The budget
            // was already charged when the retry was queued.
            let now = self.clock.elapsed();
            let due: Vec<Url> = {
                let (fire, wait): (Vec<_>, Vec<_>) =
                    self.retry_queue.drain(..).partition(|(at, _)| *at <= now);
                self.retry_queue = wait;
                fire.into_iter().map(|(_, url)| url).collect()
            };
            for url in due {
                let _ = self.fetch(&url)?;
            }
            self.flush()?;
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    if self.conn.recv(buf.get(..n).unwrap_or_default()).is_err() {
                        break;
                    }
                }
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
            while let Some(ev) = self.conn.poll_event() {
                match ev {
                    Event::Headers {
                        stream_id,
                        fields,
                        end_stream,
                    } => {
                        if let Ok(resp) = Response::from_fields(&fields) {
                            let acc = self.streams.entry(stream_id).or_insert(StreamAcc {
                                response: None,
                                body: Vec::new(),
                                done: false,
                                pushed: true,
                                url: None,
                            });
                            acc.response = Some(resp);
                            if end_stream {
                                acc.done = true;
                            }
                        }
                    }
                    Event::Data {
                        stream_id,
                        data,
                        end_stream,
                    } => {
                        if let Some(acc) = self.streams.get_mut(&stream_id) {
                            acc.body.extend_from_slice(&data);
                            if end_stream {
                                acc.done = true;
                            }
                        }
                    }
                    Event::PushPromise {
                        promised_stream_id,
                        fields,
                        ..
                    } => {
                        let url = Request::from_fields(&fields)
                            .ok()
                            .map(|r| Url::https(r.authority.as_str(), r.path.as_str()));
                        self.streams.insert(
                            promised_stream_id,
                            StreamAcc {
                                response: None,
                                body: Vec::new(),
                                done: false,
                                pushed: true,
                                url,
                            },
                        );
                    }
                    Event::StreamReset { stream_id, .. } => {
                        self.resets_seen += 1;
                        // Recovery: re-fetch the dead stream's URL with
                        // capped exponential backoff while the budget
                        // allows. A reset push degrades to a plain client
                        // fetch the same way.
                        if let Some(acc) = self.streams.remove(&stream_id) {
                            if let Some(url) = acc.url {
                                let attempts = self.attempts.get(&url).copied().unwrap_or(1);
                                if self.retry.allows(attempts) {
                                    let at = self.clock.elapsed()
                                        + self.retry.backoff_std(attempts.max(1));
                                    self.retry_queue.push((at, url));
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            if self.retry_queue.is_empty()
                && !self.streams.is_empty()
                && self.streams.values().all(|s| s.done)
            {
                break;
            }
        }
        let mut out = Vec::new();
        let done_ids: Vec<u32> = self
            .streams
            .iter()
            .filter(|(_, s)| s.done && s.response.is_some())
            .map(|(&id, _)| id)
            .collect();
        for id in done_ids {
            let Some(acc) = self.streams.remove(&id) else {
                continue;
            };
            let Some(response) = acc.response else {
                continue;
            };
            out.push(FetchedResponse {
                response,
                body: acc.body,
                pushed: acc.pushed,
                url: acc.url.unwrap_or_else(|| Url::https("unknown", "/")),
            });
        }
        Ok(out)
    }
}
