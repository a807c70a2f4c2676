//! The `wire` workload: a recorded page served by a real [`WireServer`] and
//! loaded over fresh loopback TCP connections, following the `wire_demo`
//! flow (GET the root, read its hints, fetch same-host tiers 0-2).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vroom_browser::Hint;
use vroom_html::{ResourceKind, Url};
use vroom_http2::{Connection, Event, Request, Response, Settings};
use vroom_intern::UrlTable;
use vroom_net::{RecordedResponse, ReplayStore};
use vroom_pages::{render_html, LoadContext, Page, PageGenerator, SiteProfile};
use vroom_server::online::scan_served_html;
use vroom_server::wire::{WireClient, WireServer, WireSite};
use vroom_server::{attach_hints, parse_hints, select_pushes, PushPolicy};

use crate::golden::{check_wire, Delivered};
use crate::mix;

/// The recorded site. Fixed rather than seed-drawn: how long a page waits
/// on flow control is set by its byte total, and other site seeds trip
/// the server's stream resets, so a drawn site would make the workload's
/// figures depend on which page the seed picked.
pub const SITE_SEED: u64 = 7777;

/// Per-stage deadline for the client's IO loop.
const STAGE_DEADLINE: Duration = Duration::from_secs(10);

/// A running wire server and what it serves.
pub struct WireRig {
    server: WireServer,
    store: Arc<ReplayStore>,
    pub page: Page,
    root_hints: Vec<Hint>,
    /// Recorded body length of every resource one page load must deliver:
    /// the root, its pushes and its same-host hinted resources.
    pub expected: BTreeMap<Url, usize>,
    /// URLs the server pushes with the root.
    pub pushes: Vec<Url>,
}

/// One page load over the wire.
pub struct PageLoad {
    pub connect: Duration,
    pub root_stage: Duration,
    pub tier_stage: Duration,
    pub total: Duration,
    pub pushes: usize,
    /// Body bytes of the root and its pushes (the root stage's payload).
    pub root_bytes: usize,
    /// Body bytes of every delivered resource.
    pub bytes: usize,
    /// `(url, status, body length)` of every delivered resource.
    pub resources: Vec<(Url, u16, usize)>,
    pub resets: usize,
    pub check: Result<(), String>,
}

impl PageLoad {
    pub fn deliveries(&self) -> impl Iterator<Item = Delivered<'_>> {
        self.resources
            .iter()
            .map(|(url, status, body_len)| Delivered {
                url,
                status: *status,
                body_len: *body_len,
            })
    }
}

impl WireRig {
    /// Record the page as a client with a seed-drawn identity sees it,
    /// scan its served HTML for hints, and start the server.
    pub fn start(seed: u64) -> std::io::Result<WireRig> {
        let mut profile = SiteProfile::news();
        profile.n_images = (8, 10);
        profile.n_sync_js = (4, 6);
        let ctx = LoadContext {
            user_id: mix(seed, 0x0005_E41D),
            nonce: mix(seed, 0x0000_40CE),
            ..LoadContext::reference()
        };
        let page = PageGenerator::new(profile, SITE_SEED).snapshot(&ctx);
        let mut store = ReplayStore::new();
        for r in &page.resources {
            let rec = if r.kind == ResourceKind::Html {
                RecordedResponse::with_body(ResourceKind::Html, render_html(&page, r.id))
            } else {
                RecordedResponse::synthetic(r.kind, r.size)
            };
            store.record(r.url.clone(), rec);
        }
        let mut hints = BTreeMap::new();
        for r in &page.resources {
            if r.kind == ResourceKind::Html {
                let hs = scan_served_html(&page, r.id, store.urls_mut());
                hints.insert(store.urls_mut().intern(r.url.clone()), hs);
            }
        }
        let root_id = store.urls_mut().intern(page.url.clone());
        let root_hints = hints.get(&root_id).cloned().unwrap_or_default();
        let store = Arc::new(store);
        let domain = page.url.host.clone();

        let body_len = |url: &Url| store.lookup(url).map(|r| r.body_bytes().len());
        let mut expected = BTreeMap::new();
        expected.insert(page.url.clone(), body_len(&page.url).unwrap_or(0));
        for h in &root_hints {
            let url = store.urls().get(h.url);
            if url.host == domain {
                if let Some(len) = body_len(url) {
                    expected.insert(url.clone(), len);
                }
            }
        }
        let pushes = select_pushes(
            PushPolicy::HighPriorityLocal,
            &domain,
            &root_hints,
            store.urls(),
        )
        .iter()
        .map(|h| store.urls().get(h.url).clone())
        .filter(|u| store.lookup(u).is_some())
        .collect();

        let server = WireServer::start(WireSite {
            store: Arc::clone(&store),
            hints: Arc::new(hints),
            push: PushPolicy::HighPriorityLocal,
            domain,
            faults: Default::default(),
        })?;
        Ok(WireRig {
            server,
            store,
            page,
            root_hints,
            expected,
            pushes,
        })
    }

    /// One Vroom staged page load over a fresh connection.
    pub fn load(&self) -> std::io::Result<PageLoad> {
        let t0 = Instant::now();
        let mut client = WireClient::connect(self.server.addr())?;
        let t_conn = Instant::now();
        client.fetch(&self.page.url)?;
        let mut got = client.run(STAGE_DEADLINE)?;
        let t_root = Instant::now();
        let pushes = got.iter().filter(|r| r.pushed).count();
        let root_bytes = got.iter().map(|r| r.body.len()).sum();

        let mut urls = UrlTable::new();
        let hints = match got.iter().find(|r| r.url == self.page.url) {
            Some(root) => parse_hints(&root.response, &mut urls),
            None => Vec::new(),
        };
        let mut fetched: BTreeSet<Url> = got.iter().map(|r| r.url.clone()).collect();
        for tier in 0..=2u8 {
            let mut any = false;
            for h in hints.iter().filter(|h| h.tier == tier) {
                let url = urls.get(h.url);
                if url.host == self.page.url.host && fetched.insert(url.clone()) {
                    client.fetch(url)?;
                    any = true;
                }
            }
            if any {
                got.extend(client.run(STAGE_DEADLINE)?);
            }
        }
        let t_end = Instant::now();
        let mut load = PageLoad {
            connect: t_conn - t0,
            root_stage: t_root - t_conn,
            tier_stage: t_end - t_root,
            total: t_end - t0,
            pushes,
            root_bytes,
            bytes: got.iter().map(|r| r.body.len()).sum(),
            resources: got
                .into_iter()
                .map(|r| (r.url, r.response.status, r.body.len()))
                .collect(),
            resets: client.resets_seen(),
            check: Ok(()),
        };
        load.check = check_wire(&self.expected, load.deliveries());
        Ok(load)
    }

    /// The root's response headers as the server sends them, hints attached.
    pub fn root_response(&self) -> Response {
        let resp =
            Response::with_status(200).with_header("content-type", "text/html; charset=utf-8");
        attach_hints(resp, &self.root_hints, self.store.urls())
    }

    fn body(&self, url: &Url) -> Vec<u8> {
        self.store
            .lookup(url)
            .map(|r| r.body_bytes().to_vec())
            .unwrap_or_default()
    }

    /// One request for the root and its response with every push, pumped
    /// between a client and a server [`Connection`] in memory. Returns the
    /// body bytes the client received.
    pub fn conn_roundtrip(&self) -> Result<usize, String> {
        let err = |e: vroom_http2::ConnectionError| e.to_string();
        let mut client = Connection::client(Settings::vroom_client());
        let mut server = Connection::server(Settings::default());
        let host = self.page.url.host.as_str();
        client
            .send_request(&Request::get(host, self.page.url.path.as_str()), true)
            .map_err(err)?;
        pump(&mut client, &mut server)?;
        let sid = std::iter::from_fn(|| server.poll_event())
            .find_map(|ev| match ev {
                Event::Headers { stream_id, .. } => Some(stream_id),
                _ => None,
            })
            .ok_or("server saw no request")?;
        let mut pending = Vec::new();
        for url in &self.pushes {
            let pid = server
                .push_promise(sid, &Request::get(url.host.as_str(), url.path.as_str()))
                .map_err(err)?;
            pending.push((pid, Response::ok(), self.body(url)));
        }
        pending.insert(0, (sid, self.root_response(), self.body(&self.page.url)));
        let mut sending: Vec<(u32, Vec<u8>, usize)> = Vec::new();
        for (id, resp, body) in pending {
            server.send_response(id, &resp, false).map_err(err)?;
            sending.push((id, body, 0));
        }
        for _ in 0..10_000 {
            for (id, body, off) in sending.iter_mut() {
                *off += server.send_data(*id, &body[*off..], true).map_err(err)?;
            }
            sending.retain(|(_, body, off)| *off < body.len());
            pump(&mut server, &mut client)?;
            if sending.is_empty() {
                break;
            }
        }
        let (mut bytes, mut ended) = (0, 0);
        while let Some(ev) = client.poll_event() {
            if let Event::Data {
                data, end_stream, ..
            } = ev
            {
                bytes += data.len();
                ended += end_stream as usize;
            }
        }
        if ended != 1 + self.pushes.len() {
            return Err(format!(
                "{ended} of {} streams ended",
                1 + self.pushes.len()
            ));
        }
        Ok(bytes)
    }
}

/// Move bytes both ways until neither side has output.
fn pump(a: &mut Connection, b: &mut Connection) -> Result<(), String> {
    loop {
        let (out_a, out_b) = (a.take_output(), b.take_output());
        if out_a.is_empty() && out_b.is_empty() {
            return Ok(());
        }
        b.recv(&out_a).map_err(|e| e.to_string())?;
        a.recv(&out_b).map_err(|e| e.to_string())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_page_loads_and_a_one_byte_longer_recording_fails() {
        let rig = WireRig::start(1).expect("server starts");
        let load = rig.load().expect("page loads");
        load.check
            .clone()
            .expect("every resource matches its recording");
        assert_eq!(load.resets, 0);
        assert!(load.pushes > 0 && load.resources.len() == rig.expected.len());

        for url in rig.expected.keys() {
            let mut changed = rig.expected.clone();
            *changed.get_mut(url).expect("present") += 1;
            assert!(check_wire(&changed, load.deliveries()).is_err(), "{url}");
        }
        rig.conn_roundtrip()
            .expect("in-memory round trip completes");
    }
}
