//! The sans-IO HTTP/2 connection state machine.
//!
//! Following the smoltcp philosophy, [`Connection`] performs no IO: callers
//! feed received bytes in with [`Connection::recv`], drain wire bytes out
//! with [`Connection::take_output`], and consume protocol [`Event`]s with
//! [`Connection::poll_event`]. The same state machine therefore runs over
//! real TCP sockets (see `vroom-server`'s wire module), in-memory pipes
//! (tests), or not at all (the discrete-event simulator uses the header
//! types only).

use crate::error::{ConnectionError, ErrorCode};
use crate::frame::{self, Frame, FrameCodec, PrioritySpec};
use crate::headers::{Request, Response};
use crate::settings::Settings;
use crate::stream::{Stream, StreamState};
use bytes::{Bytes, BytesMut};
use std::collections::{HashMap, VecDeque};
use vroom_hpack::HeaderField;

/// The HTTP/2 connection preface sent by clients (RFC 7540 §3.5).
pub const PREFACE: &[u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

/// Which side of the connection we are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Initiates streams with odd ids; receives pushes.
    Client,
    /// Initiates pushes with even ids.
    Server,
}

/// Protocol events surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A complete header block arrived (request on servers, response on
    /// clients, or trailers).
    Headers {
        /// Stream carrying the block.
        stream_id: u32,
        /// Decoded fields, pseudo-headers first.
        fields: Vec<HeaderField>,
        /// Whether the peer half-closed the stream.
        end_stream: bool,
    },
    /// A chunk of body data arrived.
    Data {
        /// Stream carrying the data.
        stream_id: u32,
        /// The bytes (padding already stripped).
        data: Bytes,
        /// Whether the peer half-closed the stream.
        end_stream: bool,
    },
    /// The peer promised a push (clients only).
    PushPromise {
        /// Stream the promise rode on.
        stream_id: u32,
        /// Reserved even-numbered stream for the pushed response.
        promised_stream_id: u32,
        /// Synthesized request fields.
        fields: Vec<HeaderField>,
    },
    /// The peer reset a stream.
    StreamReset {
        /// Stream that died.
        stream_id: u32,
        /// Why.
        code: ErrorCode,
    },
    /// The peer's settings arrived/changed.
    PeerSettings(Settings),
    /// The peer acknowledged our settings.
    SettingsAcked,
    /// The peer answered a PING.
    PingAcked([u8; 8]),
    /// The peer is going away.
    Goaway {
        /// Highest stream id the peer may have processed.
        last_stream_id: u32,
        /// Why.
        code: ErrorCode,
    },
}

/// In-progress header block (HEADERS/PUSH_PROMISE awaiting CONTINUATION).
/// The accumulated fragment bytes live in [`Connection::cont_buf`], which is
/// reused across header blocks.
#[derive(Debug)]
struct ContState {
    stream_id: u32,
    /// `Some(promised_id)` when accumulating a PUSH_PROMISE block.
    promised: Option<u32>,
    end_stream: bool,
}

/// A sans-IO HTTP/2 connection.
pub struct Connection {
    role: Role,
    local: Settings,
    peer: Settings,
    codec: FrameCodec,
    hpack_enc: vroom_hpack::Encoder,
    hpack_dec: vroom_hpack::Decoder,
    recv_buf: BytesMut,
    out: BytesMut,
    streams: HashMap<u32, Stream>,
    next_local_stream: u32,
    highest_peer_stream: u32,
    conn_send: crate::flow::FlowWindow,
    conn_recv: crate::flow::FlowWindow,
    events: VecDeque<Event>,
    preface_remaining: usize,
    cont: Option<ContState>,
    /// Reused accumulator for header blocks split across CONTINUATION
    /// frames — no per-block allocation once warmed up.
    cont_buf: Vec<u8>,
    /// Reused HPACK encode scratch: header blocks are encoded here, then
    /// framed directly into `out` from slices of this buffer.
    enc_buf: Vec<u8>,
    local_settings_acked: bool,
    goaway_sent: bool,
    goaway_received: bool,
}

impl Connection {
    /// A client connection; queues the preface and our SETTINGS.
    pub fn client(local: Settings) -> Self {
        let mut c = Self::new(Role::Client, local);
        c.out.extend_from_slice(PREFACE);
        c.queue_settings();
        c
    }

    /// A server connection; expects the preface, queues our SETTINGS.
    pub fn server(local: Settings) -> Self {
        let mut c = Self::new(Role::Server, local);
        c.preface_remaining = PREFACE.len();
        c.queue_settings();
        c
    }

    fn new(role: Role, local: Settings) -> Self {
        let codec = FrameCodec {
            max_frame_size: local.max_frame_size,
        };
        let hpack_dec = vroom_hpack::Decoder::new()
            .with_max_table_size(local.header_table_size as usize)
            .with_max_header_list_size(local.max_header_list_size.unwrap_or(64 * 1024) as usize);
        Connection {
            role,
            peer: Settings::default(),
            codec,
            hpack_enc: vroom_hpack::Encoder::new(),
            hpack_dec,
            recv_buf: BytesMut::new(),
            out: BytesMut::new(),
            streams: HashMap::new(),
            next_local_stream: if role == Role::Client { 1 } else { 2 },
            highest_peer_stream: 0,
            conn_send: crate::flow::FlowWindow::new(crate::settings::DEFAULT_INITIAL_WINDOW_SIZE),
            conn_recv: crate::flow::FlowWindow::new(crate::settings::DEFAULT_INITIAL_WINDOW_SIZE),
            events: VecDeque::new(),
            preface_remaining: 0,
            cont: None,
            cont_buf: Vec::new(),
            enc_buf: Vec::new(),
            local_settings_acked: false,
            goaway_sent: false,
            goaway_received: false,
            local,
        }
    }

    fn queue_settings(&mut self) {
        Frame::Settings {
            ack: false,
            entries: self.local.to_entries(),
        }
        .encode(&mut self.out);
    }

    /// Whether the peer has acknowledged our SETTINGS.
    pub fn settings_acked(&self) -> bool {
        self.local_settings_acked
    }

    /// State of a stream, if known.
    pub fn stream_state(&self, id: u32) -> Option<StreamState> {
        self.streams.get(&id).map(|s| s.state)
    }

    /// Drain bytes to write to the transport.
    pub fn take_output(&mut self) -> Bytes {
        self.out.split().freeze()
    }

    /// Pop the next protocol event.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }

    /// Feed received transport bytes. On a connection error, a GOAWAY is
    /// queued in the output buffer and the error returned; the connection
    /// is then unusable except for draining output.
    pub fn recv(&mut self, data: &[u8]) -> Result<(), ConnectionError> {
        self.recv_buf.extend_from_slice(data);
        match self.process() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.queue_goaway(e.code, &e.reason);
                Err(e)
            }
        }
    }

    fn process(&mut self) -> Result<(), ConnectionError> {
        if self.preface_remaining > 0 {
            let take = self.preface_remaining.min(self.recv_buf.len());
            let offset = PREFACE.len() - self.preface_remaining;
            let got = self.recv_buf.get(..take).unwrap_or_default();
            let want = PREFACE.get(offset..offset + take).unwrap_or_default();
            if got != want {
                return Err(ConnectionError::protocol("bad connection preface"));
            }
            let _ = self.recv_buf.split_to(take);
            self.preface_remaining -= take;
            if self.preface_remaining > 0 {
                return Ok(());
            }
        }
        while let Some(frame) = self.codec.decode(&mut self.recv_buf)? {
            self.handle_frame(frame)?;
        }
        Ok(())
    }

    fn handle_frame(&mut self, frame: Frame) -> Result<(), ConnectionError> {
        // While a header block is open, only CONTINUATION on the same stream
        // is legal (RFC 7540 §6.2).
        if let Some(cont) = &self.cont {
            // vroom-lint: allow(protocol-exhaustive) -- rejection guard: every frame except same-stream CONTINUATION is a protocol error here, and future frame types must hit the error arm too
            match &frame {
                Frame::Continuation { stream_id, .. } if *stream_id == cont.stream_id => {}
                _ => {
                    return Err(ConnectionError::protocol(
                        "frame interleaved inside header block",
                    ))
                }
            }
        }
        match frame {
            Frame::Settings { ack: true, .. } => {
                self.local_settings_acked = true;
                self.events.push_back(Event::SettingsAcked);
            }
            Frame::Settings {
                ack: false,
                entries,
            } => {
                let old_initial = self.peer.initial_window_size;
                self.peer.apply(&entries)?;
                // Peer's INITIAL_WINDOW_SIZE change retroactively adjusts all
                // stream *send* windows (§6.9.2).
                if self.peer.initial_window_size != old_initial {
                    for s in self.streams.values_mut() {
                        s.send_window
                            .adjust_initial(old_initial, self.peer.initial_window_size)?;
                    }
                }
                // Peer's decoder table bound constrains our encoder.
                self.hpack_enc
                    .set_max_table_size(self.peer.header_table_size.min(4096) as usize);
                Frame::Settings {
                    ack: true,
                    entries: vec![],
                }
                .encode(&mut self.out);
                self.events.push_back(Event::PeerSettings(self.peer));
            }
            Frame::Ping {
                ack: false,
                payload,
            } => {
                Frame::Ping { ack: true, payload }.encode(&mut self.out);
            }
            Frame::Ping { ack: true, payload } => {
                self.events.push_back(Event::PingAcked(payload));
            }
            Frame::WindowUpdate {
                stream_id: 0,
                increment,
            } => {
                self.conn_send.expand(increment)?;
            }
            Frame::WindowUpdate {
                stream_id,
                increment,
            } => {
                if let Some(s) = self.streams.get_mut(&stream_id) {
                    s.send_window.expand(increment)?;
                }
                // Updates for unknown/closed streams are ignored.
            }
            Frame::Priority { .. } => {
                // Advisory only; the Vroom stack schedules at a higher layer.
            }
            Frame::RstStream { stream_id, code } => {
                if stream_id > self.highest_peer_stream
                    && !self.is_local_stream(stream_id)
                    && !self.streams.contains_key(&stream_id)
                {
                    return Err(ConnectionError::protocol("RST_STREAM on idle stream"));
                }
                if let Some(s) = self.streams.get_mut(&stream_id) {
                    s.on_reset();
                }
                self.events
                    .push_back(Event::StreamReset { stream_id, code });
            }
            Frame::Goaway {
                last_stream_id,
                code,
                ..
            } => {
                self.goaway_received = true;
                self.events.push_back(Event::Goaway {
                    last_stream_id,
                    code,
                });
            }
            Frame::Data {
                stream_id,
                data,
                end_stream,
                pad_len,
            } => {
                self.handle_data(stream_id, data, end_stream, pad_len)?;
            }
            Frame::Headers {
                stream_id,
                fragment,
                end_stream,
                end_headers,
                priority: _,
            } => {
                if end_headers {
                    self.finish_header_block(stream_id, None, end_stream, &fragment)?;
                } else {
                    self.cont_buf.clear();
                    self.cont_buf.extend_from_slice(&fragment);
                    self.cont = Some(ContState {
                        stream_id,
                        promised: None,
                        end_stream,
                    });
                }
            }
            Frame::PushPromise {
                stream_id,
                promised_stream_id,
                fragment,
                end_headers,
            } => {
                if self.role != Role::Client {
                    return Err(ConnectionError::protocol("server received PUSH_PROMISE"));
                }
                if !self.local.enable_push {
                    return Err(ConnectionError::protocol("push is disabled"));
                }
                if end_headers {
                    self.finish_header_block(
                        stream_id,
                        Some(promised_stream_id),
                        false,
                        &fragment,
                    )?;
                } else {
                    self.cont_buf.clear();
                    self.cont_buf.extend_from_slice(&fragment);
                    self.cont = Some(ContState {
                        stream_id,
                        promised: Some(promised_stream_id),
                        end_stream: false,
                    });
                }
            }
            Frame::Continuation {
                stream_id,
                fragment,
                end_headers,
            } => {
                let Some(cont) = &self.cont else {
                    return Err(ConnectionError::protocol("CONTINUATION without HEADERS"));
                };
                debug_assert_eq!(cont.stream_id, stream_id);
                self.cont_buf.extend_from_slice(&fragment);
                if end_headers {
                    if let Some(cont) = self.cont.take() {
                        // Move the accumulator out for the duration of the
                        // call (finish_header_block needs `&mut self`), then
                        // put it back so its capacity is reused.
                        let buf = std::mem::take(&mut self.cont_buf);
                        let res = self.finish_header_block(
                            cont.stream_id,
                            cont.promised,
                            cont.end_stream,
                            &buf,
                        );
                        self.cont_buf = buf;
                        res?;
                    }
                }
            }
        }
        Ok(())
    }

    fn is_local_stream(&self, id: u32) -> bool {
        match self.role {
            Role::Client => id % 2 == 1,
            Role::Server => id.is_multiple_of(2),
        }
    }

    fn handle_data(
        &mut self,
        stream_id: u32,
        data: Bytes,
        end_stream: bool,
        pad_len: u32,
    ) -> Result<(), ConnectionError> {
        let flow_len = data.len() as u32 + pad_len;
        // Padding and data both count against the connection window.
        self.conn_recv.try_consume(flow_len)?;

        let Some(s) = self.streams.get_mut(&stream_id) else {
            if stream_id > self.highest_peer_stream && !self.is_local_stream(stream_id) {
                return Err(ConnectionError::protocol("DATA on idle stream"));
            }
            // Closed-and-forgotten stream: replenish and reset.
            self.replenish_connection(flow_len);
            self.queue_rst(stream_id, ErrorCode::StreamClosed);
            return Ok(());
        };
        if !s.recv_data_allowed() {
            self.replenish_connection(flow_len);
            self.queue_rst(stream_id, ErrorCode::StreamClosed);
            return Ok(());
        }
        s.recv_window.try_consume(flow_len)?;
        if end_stream {
            s.on_recv_end_stream()?;
        } else {
            // Replenish the stream window so the sender keeps flowing.
            s.recv_window.expand(flow_len)?;
            Frame::WindowUpdate {
                stream_id,
                increment: flow_len,
            }
            .encode(&mut self.out);
        }
        self.replenish_connection(flow_len);
        self.events.push_back(Event::Data {
            stream_id,
            data,
            end_stream,
        });
        Ok(())
    }

    fn replenish_connection(&mut self, n: u32) {
        if n == 0 {
            return;
        }
        if self.conn_recv.expand(n).is_err() {
            // Window already at the RFC maximum; skip the update rather
            // than tearing the connection down over bookkeeping.
            return;
        }
        Frame::WindowUpdate {
            stream_id: 0,
            increment: n,
        }
        .encode(&mut self.out);
    }

    fn finish_header_block(
        &mut self,
        stream_id: u32,
        promised: Option<u32>,
        end_stream: bool,
        fragment: &[u8],
    ) -> Result<(), ConnectionError> {
        // HPACK state must advance even for streams we will refuse.
        let fields = self.hpack_dec.decode(fragment)?;

        if let Some(promised_id) = promised {
            if promised_id % 2 != 0 || promised_id <= self.highest_promised() {
                return Err(ConnectionError::protocol("bad promised stream id"));
            }
            // Reserve the pushed stream (remote).
            self.streams.insert(
                promised_id,
                Stream::new(
                    promised_id,
                    StreamState::ReservedRemote,
                    self.peer.initial_window_size,
                    self.local.initial_window_size,
                ),
            );
            self.events.push_back(Event::PushPromise {
                stream_id,
                promised_stream_id: promised_id,
                fields,
            });
            return Ok(());
        }

        let is_new = !self.streams.contains_key(&stream_id);
        if is_new {
            if self.is_local_stream(stream_id) {
                // vroom-lint: allow(hot-path-alloc) -- cold protocol-error path: renders the message for a rejected peer
                return Err(ConnectionError::protocol(format!(
                    "peer opened stream {stream_id} with our parity"
                )));
            }
            if stream_id <= self.highest_peer_stream {
                return Err(ConnectionError::new(
                    ErrorCode::StreamClosed,
                    "HEADERS on old stream id",
                ));
            }
            if self.role == Role::Client {
                return Err(ConnectionError::protocol("server opened a non-push stream"));
            }
            if let Some(max) = self.local.max_concurrent_streams {
                let open_peer = self
                    .streams
                    .values()
                    .filter(|s| !self.is_local_stream(s.id) && s.state != StreamState::Closed)
                    .count() as u32;
                if open_peer >= max {
                    self.queue_rst(stream_id, ErrorCode::RefusedStream);
                    self.highest_peer_stream = stream_id;
                    return Ok(());
                }
            }
            self.highest_peer_stream = stream_id;
            self.streams.insert(
                stream_id,
                Stream::new(
                    stream_id,
                    StreamState::Idle,
                    self.peer.initial_window_size,
                    self.local.initial_window_size,
                ),
            );
        }
        let Some(s) = self.streams.get_mut(&stream_id) else {
            return Err(ConnectionError::new(
                ErrorCode::InternalError,
                // vroom-lint: allow(hot-path-alloc) -- cold internal-error path: the stream map was just checked
                format!("stream {stream_id} vanished during header processing"),
            ));
        };
        s.on_recv_headers(end_stream)?;
        self.events.push_back(Event::Headers {
            stream_id,
            fields,
            end_stream,
        });
        Ok(())
    }

    fn highest_promised(&self) -> u32 {
        self.streams
            .keys()
            .filter(|id| *id % 2 == 0)
            .copied()
            .max()
            .unwrap_or(0)
    }

    fn queue_rst(&mut self, stream_id: u32, code: ErrorCode) {
        Frame::RstStream { stream_id, code }.encode(&mut self.out);
    }

    fn queue_goaway(&mut self, code: ErrorCode, reason: &str) {
        if self.goaway_sent {
            return;
        }
        self.goaway_sent = true;
        Frame::Goaway {
            last_stream_id: self.highest_peer_stream,
            code,
            // vroom-lint: allow(hot-path-alloc) -- cold shutdown path: at most one GOAWAY per connection lifetime
            debug: Bytes::copy_from_slice(reason.as_bytes()),
        }
        .encode(&mut self.out);
    }

    // ---------------------------------------------------------------- send

    /// Send a request, opening a new stream (clients only). Returns the
    /// stream id.
    pub fn send_request(
        &mut self,
        request: &Request,
        end_stream: bool,
    ) -> Result<u32, ConnectionError> {
        assert_eq!(self.role, Role::Client, "only clients send requests");
        if self.goaway_received {
            return Err(ConnectionError::new(
                ErrorCode::RefusedStream,
                "connection is closing",
            ));
        }
        let id = self.next_local_stream;
        self.next_local_stream += 2;
        let mut s = Stream::new(
            id,
            StreamState::Idle,
            self.peer.initial_window_size,
            self.local.initial_window_size,
        );
        s.on_send_headers(end_stream);
        self.streams.insert(id, s);
        self.send_header_block(id, &request.to_fields(), end_stream);
        Ok(id)
    }

    /// Send response headers on a stream (servers only).
    pub fn send_response(
        &mut self,
        stream_id: u32,
        response: &Response,
        end_stream: bool,
    ) -> Result<(), ConnectionError> {
        assert_eq!(self.role, Role::Server, "only servers send responses");
        let s = self
            .streams
            .get_mut(&stream_id)
            .ok_or_else(|| ConnectionError::protocol("response on unknown stream"))?;
        if !s.can_send() {
            return Err(ConnectionError::new(
                ErrorCode::StreamClosed,
                "response on unwritable stream",
            ));
        }
        s.on_send_headers(end_stream);
        self.send_header_block(stream_id, &response.to_fields(), end_stream);
        Ok(())
    }

    /// Promise a push on `stream_id` (servers only). Returns the promised
    /// stream id; follow with [`send_response`](Self::send_response) and
    /// data on that id.
    pub fn push_promise(
        &mut self,
        stream_id: u32,
        request: &Request,
    ) -> Result<u32, ConnectionError> {
        assert_eq!(self.role, Role::Server, "only servers push");
        if !self.peer.enable_push {
            return Err(ConnectionError::protocol("peer disabled push"));
        }
        let parent = self
            .streams
            .get(&stream_id)
            .ok_or_else(|| ConnectionError::protocol("push on unknown stream"))?;
        if !parent.can_recv() && !parent.can_send() {
            return Err(ConnectionError::new(
                ErrorCode::StreamClosed,
                "push on closed stream",
            ));
        }
        let promised = self.next_local_stream;
        self.next_local_stream += 2;
        self.streams.insert(
            promised,
            Stream::new(
                promised,
                StreamState::ReservedLocal,
                self.peer.initial_window_size,
                self.local.initial_window_size,
            ),
        );
        let fields = request.to_fields();
        self.enc_buf.clear();
        self.hpack_enc.encode_into(&fields, &mut self.enc_buf);
        // PUSH_PROMISE fragments are small; we do not split them.
        frame::encode_push_promise_raw(&mut self.out, stream_id, promised, &self.enc_buf);
        Ok(promised)
    }

    fn send_header_block(&mut self, stream_id: u32, fields: &[HeaderField], end_stream: bool) {
        // Encode into the reused scratch, then frame directly from its
        // slices — the only copy is into the output buffer itself.
        self.enc_buf.clear();
        self.hpack_enc.encode_into(fields, &mut self.enc_buf);
        let max = self.peer.max_frame_size as usize;
        if self.enc_buf.len() <= max {
            frame::encode_headers_raw(&mut self.out, stream_id, &self.enc_buf, end_stream, true);
            return;
        }
        let last = self.enc_buf.len().div_ceil(max) - 1;
        for (i, chunk) in self.enc_buf.chunks(max).enumerate() {
            if i == 0 {
                frame::encode_headers_raw(&mut self.out, stream_id, chunk, end_stream, false);
            } else {
                frame::encode_continuation_raw(&mut self.out, stream_id, chunk, i == last);
            }
        }
    }

    /// Send body bytes, honoring flow control and the peer's max frame size.
    /// Returns how many bytes were accepted; the caller retries the rest
    /// after WINDOW_UPDATE events arrive. `end_stream` takes effect only
    /// when every byte of `data` was accepted.
    pub fn send_data(
        &mut self,
        stream_id: u32,
        data: &[u8],
        end_stream: bool,
    ) -> Result<usize, ConnectionError> {
        let s = self
            .streams
            .get_mut(&stream_id)
            .ok_or_else(|| ConnectionError::protocol("data on unknown stream"))?;
        if !s.can_send() || s.state == StreamState::ReservedLocal {
            return Err(ConnectionError::new(
                ErrorCode::StreamClosed,
                "data on unwritable stream",
            ));
        }
        let budget =
            (s.send_window.sendable().min(self.conn_send.sendable()) as usize).min(data.len());
        let max_frame = self.peer.max_frame_size as usize;

        if data.is_empty() {
            if end_stream {
                frame::encode_data_raw(&mut self.out, stream_id, &[], true);
                s.on_send_end_stream();
            }
            return Ok(0);
        }

        let mut sent = 0usize;
        while sent < budget {
            let n = (budget - sent).min(max_frame);
            let last_byte = sent + n == data.len();
            let fin = end_stream && last_byte;
            // One copy, caller's slice straight into the output buffer.
            frame::encode_data_raw(
                &mut self.out,
                stream_id,
                data.get(sent..sent + n).unwrap_or_default(),
                fin,
            );
            s.send_window.consume(n as u32);
            self.conn_send.consume(n as u32);
            sent += n;
            if fin {
                s.on_send_end_stream();
            }
        }
        Ok(sent)
    }

    /// Reset a stream.
    pub fn reset_stream(&mut self, stream_id: u32, code: ErrorCode) {
        if let Some(s) = self.streams.get_mut(&stream_id) {
            s.on_reset();
        }
        self.queue_rst(stream_id, code);
    }

    /// Send a PING.
    pub fn ping(&mut self, payload: [u8; 8]) {
        Frame::Ping {
            ack: false,
            payload,
        }
        .encode(&mut self.out);
    }

    /// Initiate graceful shutdown.
    pub fn goaway(&mut self, code: ErrorCode, reason: &str) {
        self.queue_goaway(code, reason);
    }

    /// Send a PRIORITY frame (advisory).
    pub fn priority(&mut self, stream_id: u32, spec: PrioritySpec) {
        Frame::Priority { stream_id, spec }.encode(&mut self.out);
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("role", &self.role)
            .field("streams", &self.streams.len())
            .field("events", &self.events.len())
            .field("goaway_sent", &self.goaway_sent)
            .finish()
    }
}
