//! The Memcached ASCII protocol (the subset the paper's benchmarks use).
//!
//! Supported commands: `get` / `gets` (multi-key), `set`, `add`, `replace`,
//! `delete`, `stats`, `version`, `flush_all`, `quit`, and the multi-tenant
//! extensions `app <name>`, `app_create <name> <weight>` and `app_list`.
//! Parsing is incremental over a byte buffer so a connection handler can
//! feed it whatever the socket delivers.
//!
//! Two parsing entry points share one grammar (`parse_line`, over borrowed
//! byte tokens — no `String`, integers parsed from the bytes):
//!
//! * [`parse_command`] — stateless: a store command whose data block has not
//!   fully arrived consumes nothing and returns
//!   [`ParseOutcome::Incomplete`], so the caller re-parses the header line
//!   on every new read.
//! * [`Parser`] — stateful and resumable: the store header line is consumed
//!   the moment it is complete and the parser remembers it, so a value that
//!   trickles in over many reads costs one header parse total and the
//!   parser only ever waits for the exact number of data bytes outstanding.
//!   This is what the event-driven connection state machine uses.
//!
//! Both work on a slice cursor and consume by advancing it, so parsing a
//! pipelined batch copies nothing and costs the same per command however
//! much input waits behind it. The public functions wrap that in
//! `&mut BytesMut` in, owned [`Command`] out; the connection calls
//! `Parser::next_request` on the slice itself and gets keys and data still
//! borrowed from its input buffer: a `get` and a `delete` look their keys up
//! where they lie, and a store's key and data block are copied once, by the
//! connection, into the item the cache keeps. Only a store header whose data
//! block has not arrived yet has its key copied out, to be remembered.
//!
//! # The `app` extension
//!
//! Memcachier-style servers host many applications on one cache; the paper's
//! §3 analysis is entirely about how their memory shares should be divided.
//! `app <name>` selects the application *namespace* for the rest of the
//! session — equivalent to transparently prefixing every subsequent key with
//! `<name>:`, but enforced server-side (per-tenant engines and budgets), so
//! one tenant can never read, overwrite or evict another tenant's keys and
//! `flush_all` only clears the selected namespace. A connection that never
//! sends `app` runs in the `default` namespace and observes exactly the
//! pre-extension protocol.

use bytes::{Bytes, BytesMut};
use std::borrow::Cow;
use std::io::Write;

/// A parsed client command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `get <key>+` — fetch one or more keys.
    Get {
        /// Requested keys.
        keys: Vec<Bytes>,
    },
    /// `set` / `add` / `replace` — store a value.
    Store {
        /// Which store verb was used.
        verb: StoreVerb,
        /// The key being stored.
        key: Bytes,
        /// Opaque client flags echoed back on GET.
        flags: u32,
        /// Expiration time in seconds (0 = never); stored but not enforced.
        exptime: u32,
        /// The value payload.
        data: Bytes,
        /// Whether the client asked to suppress the reply.
        noreply: bool,
    },
    /// `delete <key>`.
    Delete {
        /// The key to remove.
        key: Bytes,
        /// Whether the client asked to suppress the reply.
        noreply: bool,
    },
    /// `app <name>` — select the application namespace for this session.
    App {
        /// The application name (validated against the server's tenant
        /// directory by the executor, not the parser).
        id: Bytes,
    },
    /// `app_create <name> <weight>` — host a new application namespace
    /// live, carving its budget out of the existing tenants.
    AppCreate {
        /// The application name (validated by the executor).
        name: Bytes,
        /// Reservation weight; the parser guarantees it is at least 1.
        weight: u64,
    },
    /// `app_list` — list the hosted applications.
    AppList,
    /// `stats`, `stats json` or `stats prom`.
    Stats {
        /// Which rendering the client asked for (`stats` alone is the
        /// legacy `STAT` line format).
        format: StatsFormat,
    },
    /// `version`.
    Version,
    /// `flush_all` — drop every item.
    FlushAll,
    /// `quit` — close the connection.
    Quit,
}

/// The rendering a `stats` command asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StatsFormat {
    /// Legacy `STAT <name> <value>` lines (plain `stats`).
    #[default]
    Text,
    /// One-line versioned JSON document (`stats json`).
    Json,
    /// Prometheus text exposition (`stats prom`).
    Prom,
}

/// The store verbs of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreVerb {
    /// Store unconditionally.
    Set,
    /// Store only if the key is absent.
    Add,
    /// Store only if the key is present.
    Replace,
}

/// A server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Values followed by `END` (the reply to `get`).
    Values(Vec<Value>),
    /// `STORED`.
    Stored,
    /// `NOT_STORED`.
    NotStored,
    /// `DELETED`.
    Deleted,
    /// `NOT_FOUND`.
    NotFound,
    /// `OK`.
    Ok,
    /// `VERSION <text>`.
    Version(String),
    /// `STAT <name> <value>` lines followed by `END`.
    Stats(Vec<(String, String)>),
    /// A machine-readable stats payload (JSON or Prometheus text)
    /// followed by `END` on its own line (the reply to `stats json` /
    /// `stats prom`).
    Blob(String),
    /// `APP <name> <weight> <budget>` lines followed by `END` (the reply to
    /// `app_list`).
    Apps(Vec<AppEntry>),
    /// `CLIENT_ERROR <message>`.
    ClientError(String),
    /// `SERVER_ERROR <message>` — the server, not the client, is the reason
    /// (e.g. the accept gate shedding load past `max_connections`).
    ServerError(String),
    /// `ERROR`.
    Error,
}

/// One hosted application in an `app_list` reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppEntry {
    /// The application name.
    pub name: String,
    /// Its reservation weight.
    pub weight: u64,
    /// Its live byte budget.
    pub budget_bytes: u64,
}

/// One value in a GET response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Value {
    /// The key.
    pub key: Bytes,
    /// Client flags stored with the item.
    pub flags: u32,
    /// The payload.
    pub data: Bytes,
}

/// The outcome of trying to parse one command from a buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseOutcome<C = Command> {
    /// A complete command was parsed and consumed from the buffer.
    Complete(C),
    /// More bytes are needed.
    Incomplete,
    /// The buffer starts with something that is not a valid command; the
    /// offending line has been consumed.
    Invalid(String),
}

/// The whitespace-separated tokens of a command line, borrowed from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Tokens<'a>(&'a [u8]);

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];
    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.0.iter().position(|b| !b.is_ascii_whitespace())?;
        let rest = &self.0[start..];
        // A word with no byte at or below a space holds no ASCII whitespace
        // (space, `\t`, `\n`, `\x0c`, `\r`): skip the token's words so. In
        // the first that has one, the lowest such byte is exact: the token
        // ends there if it is whitespace (`\x0b` and control bytes are not),
        // else byte by byte from it, as past the last whole word.
        let mut end = 0;
        let from = loop {
            let Some(word) = word_at(rest, end) else {
                break end;
            };
            match bytes_below(word, b' ' + 1) {
                0 => end += 8,
                lanes => break end + lanes.trailing_zeros() as usize / 8,
            }
        };
        let end = from
            + rest[from..]
                .iter()
                .position(u8::is_ascii_whitespace)
                .unwrap_or(rest.len() - from);
        self.0 = &rest[end..];
        Some(&rest[..end])
    }
}

/// One in each byte of a word.
const LANES: u64 = 0x0101_0101_0101_0101;

/// The little-endian word of the eight bytes of `bytes` from `at`, if
/// there are eight.
fn word_at(bytes: &[u8], at: usize) -> Option<u64> {
    let word: [u8; 8] = bytes.get(at..at + 8)?.try_into().ok()?;
    Some(u64::from_le_bytes(word))
}

/// The high bit of each byte of `word` below `bound` (at most 128): none
/// if no byte is, and the lowest set bit is exact, though lanes above it
/// may be set falsely.
fn bytes_below(word: u64, bound: u8) -> u64 {
    word.wrapping_sub(LANES * u64::from(bound)) & !word & (LANES << 7)
}

/// A command as the connection executes it: the keys of a `get` and a
/// `delete` and the key and data of a store still borrow the input buffer,
/// so looking one up allocates nothing and storing one copies it once. A
/// store's key is owned only if its header was remembered across reads.
#[derive(Debug)]
pub(crate) enum Request<'a> {
    Get(Tokens<'a>),
    Store {
        verb: StoreVerb,
        key: Cow<'a, [u8]>,
        flags: u32,
        exptime: u32,
        data: &'a [u8],
        noreply: bool,
    },
    Delete {
        key: &'a [u8],
        noreply: bool,
    },
    Other(Command),
}

impl ParseOutcome<Request<'_>> {
    /// The outcome the public entry points return: keys and data copied out.
    fn into_owned(self) -> ParseOutcome {
        let command = match self {
            ParseOutcome::Complete(request) => request,
            ParseOutcome::Incomplete => return ParseOutcome::Incomplete,
            ParseOutcome::Invalid(message) => return ParseOutcome::Invalid(message),
        };
        ParseOutcome::Complete(match command {
            Request::Get(keys) => Command::Get {
                keys: keys.map(Bytes::copy_from_slice).collect(),
            },
            Request::Store {
                verb,
                key,
                flags,
                exptime,
                data,
                noreply,
            } => Command::Store {
                verb,
                key: Bytes::copy_from_slice(&key),
                flags,
                exptime,
                data: Bytes::copy_from_slice(data),
                noreply,
            },
            Request::Delete { key, noreply } => Command::Delete {
                key: Bytes::copy_from_slice(key),
                noreply,
            },
            Request::Other(command) => command,
        })
    }
}

/// The header line of a store command, less its key: what its data block,
/// once buffered, is completed with.
#[derive(Clone, Copy, Debug)]
struct StoreHeader {
    verb: StoreVerb,
    flags: u32,
    exptime: u32,
    bytes: usize,
    noreply: bool,
}

impl StoreHeader {
    /// Bytes the data block takes on the wire: the payload and its CRLF.
    fn needed(&self) -> usize {
        self.bytes.saturating_add(2)
    }

    /// Completes the store of `key` with the data block at the front of
    /// `input` (`bytes` of payload, then CRLF), consuming it.
    fn complete<'a>(self, key: Cow<'a, [u8]>, input: &mut &'a [u8]) -> ParseOutcome<Request<'a>> {
        let (block, rest) = input.split_at(self.needed());
        *input = rest;
        if &block[self.bytes..] != b"\r\n" {
            return ParseOutcome::Invalid("bad data chunk terminator".to_string());
        }
        ParseOutcome::Complete(Request::Store {
            verb: self.verb,
            key,
            flags: self.flags,
            exptime: self.exptime,
            data: &block[..self.bytes],
            noreply: self.noreply,
        })
    }
}

/// The outcome of parsing one complete command line (without its data
/// block, for store verbs).
enum LineOutcome<'a> {
    Complete(Request<'a>),
    Store(&'a [u8], StoreHeader),
    Invalid(String),
}

/// Parses one decimal token; a missing or malformed one is `None`. A token
/// of 1–18 ASCII digits (below 10^18, so no `u64` overflows) is summed
/// here; anything else — a sign, overflow — takes `str::parse`'s answer.
fn number<T: std::str::FromStr + TryFrom<u64>>(token: Option<&[u8]>) -> Option<T> {
    let token = token?;
    if (1..=18).contains(&token.len()) && token.iter().all(u8::is_ascii_digit) {
        let value = token
            .iter()
            .fold(0u64, |value, digit| value * 10 + u64::from(digit - b'0'));
        return T::try_from(value).ok();
    }
    std::str::from_utf8(token).ok()?.parse().ok()
}

/// Parses one command line (CRLF excluded) into borrowed tokens. Shared by
/// the stateless [`parse_command`] and the resumable [`Parser`], so the two
/// entry points cannot drift apart.
fn parse_line(line: &[u8]) -> LineOutcome<'_> {
    let complete = |command| LineOutcome::Complete(Request::Other(command));
    let invalid = |message: &str| LineOutcome::Invalid(message.to_string());
    let mut parts = Tokens(line);
    let Some(verb) = parts.next() else {
        return invalid("empty command");
    };
    match verb {
        b"get" | b"gets" => match parts.clone().next() {
            Some(_) => LineOutcome::Complete(Request::Get(parts)),
            None => invalid("get requires at least one key"),
        },
        b"set" | b"add" | b"replace" => {
            let verb = match verb {
                b"set" => StoreVerb::Set,
                b"add" => StoreVerb::Add,
                _ => StoreVerb::Replace,
            };
            let key = parts.next();
            let flags = number::<u32>(parts.next());
            let exptime = number::<u32>(parts.next());
            let bytes = number::<usize>(parts.next());
            let noreply = parts.next() == Some(b"noreply");
            let (Some(key), Some(flags), Some(exptime), Some(bytes)) = (key, flags, exptime, bytes)
            else {
                return invalid("bad store command");
            };
            let header = StoreHeader {
                verb,
                flags,
                exptime,
                bytes,
                noreply,
            };
            LineOutcome::Store(key, header)
        }
        b"delete" => match parts.next() {
            Some(key) => LineOutcome::Complete(Request::Delete {
                key,
                noreply: parts.next() == Some(b"noreply"),
            }),
            None => invalid("delete requires a key"),
        },
        b"app" => match (parts.next(), parts.next()) {
            (Some(id), None) => complete(Command::App {
                id: Bytes::copy_from_slice(id),
            }),
            (Some(_), Some(_)) => invalid("app takes exactly one name"),
            (None, _) => invalid("app requires a name"),
        },
        b"app_create" => match (parts.next(), number::<u64>(parts.next()), parts.next()) {
            (Some(name), Some(weight), None) if weight >= 1 => complete(Command::AppCreate {
                name: Bytes::copy_from_slice(name),
                weight,
            }),
            _ => invalid("app_create takes a name and an integer weight >= 1"),
        },
        b"app_list" => complete(Command::AppList),
        b"stats" => {
            let format = match (parts.next(), parts.next()) {
                (None, _) => StatsFormat::Text,
                (Some(b"json"), None) => StatsFormat::Json,
                (Some(b"prom"), None) => StatsFormat::Prom,
                _ => return invalid("stats takes at most one of: json, prom"),
            };
            complete(Command::Stats { format })
        }
        b"version" => complete(Command::Version),
        b"flush_all" => complete(Command::FlushAll),
        b"quit" => complete(Command::Quit),
        other => LineOutcome::Invalid(format!(
            "unknown command {}",
            String::from_utf8_lossy(other)
        )),
    }
}

/// [`parse_command`] over a slice cursor: `input` is advanced past what was
/// consumed.
fn parse_stateless<'a>(input: &mut &'a [u8]) -> ParseOutcome<Request<'a>> {
    let all = *input;
    let Some(line_end) = find_crlf(all) else {
        return ParseOutcome::Incomplete;
    };
    let rest = &all[line_end + 2..];
    match parse_line(&all[..line_end]) {
        LineOutcome::Complete(request) => {
            *input = rest;
            ParseOutcome::Complete(request)
        }
        LineOutcome::Invalid(message) => {
            *input = rest;
            ParseOutcome::Invalid(message)
        }
        LineOutcome::Store(_, header) if rest.len() < header.needed() => ParseOutcome::Incomplete,
        LineOutcome::Store(key, header) => {
            *input = rest;
            header.complete(Cow::Borrowed(key), input)
        }
    }
}

/// Attempts to parse one command from the front of `buffer`, consuming the
/// bytes it used. A store command whose data block is not fully buffered
/// consumes nothing (see [`Parser`] for the resumable alternative).
pub fn parse_command(buffer: &mut BytesMut) -> ParseOutcome {
    parse_owned(buffer, parse_stateless)
}

/// Runs a slice-cursor parser over `buffer`: what it consumed is advanced
/// past, and the command it yields is copied out of the buffer.
fn parse_owned(
    buffer: &mut BytesMut,
    parse: impl for<'a> FnOnce(&mut &'a [u8]) -> ParseOutcome<Request<'a>>,
) -> ParseOutcome {
    let mut input = &buffer[..];
    let outcome = parse(&mut input).into_owned();
    let used = buffer.len() - input.len();
    buffer.advance(used);
    outcome
}

/// The largest data block the resumable parser will buffer. Values past
/// the largest slab class can never be admitted anyway, so buffering more
/// than this only serves memory-exhaustion attacks; the parser swallows
/// the declared bytes without storing them and reports
/// `object too large` (Memcached's `-I` behaviour). Comfortably above any
/// slab geometry the backend configures.
pub const MAX_DATA_BYTES: usize = 16 << 20;
/// The longest command line the resumable parser will buffer before
/// declaring it malformed and discarding through to its CRLF.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// What the resumable parser is in the middle of.
#[derive(Debug, Default)]
enum ParseState {
    /// At a command-line boundary.
    #[default]
    Idle,
    /// A store header was consumed, its key copied out of the line; waiting
    /// for its data block.
    Data(Vec<u8>, StoreHeader),
    /// Swallowing an oversized data block (plus CRLF) without buffering it;
    /// reports the error once fully discarded, keeping the stream in sync.
    DiscardData {
        remaining: usize,
        message: &'static str,
    },
    /// Swallowing an over-long command line through to its CRLF.
    DiscardLine,
}

/// A resumable incremental parser.
///
/// Produces exactly the same command stream as repeated [`parse_command`]
/// calls over the same bytes, but consumes a store command's header line as
/// soon as it is complete and remembers it across calls: a `set` whose value
/// arrives over many reads costs one header parse total, and the buffer
/// never has to hold header and value contiguously from scratch on every
/// poll. One `Parser` per connection; it carries the mid-command state.
///
/// Unlike the stateless [`parse_command`], the parser also bounds what it
/// will buffer: a data block past [`MAX_DATA_BYTES`] or a command line past
/// [`MAX_LINE_BYTES`] is *discarded in stride* (consumed without being
/// stored) and answered with a single `CLIENT_ERROR`, so a hostile or
/// broken client cannot balloon server memory with one declared-enormous
/// `set` or an endless CRLF-less line.
#[derive(Debug, Default)]
pub struct Parser {
    state: ParseState,
}

impl Parser {
    /// A parser with no mid-command state.
    pub fn new() -> Parser {
        Parser::default()
    }

    /// Whether the parser is mid-command (the front of the buffer is value
    /// bytes or discard-in-progress, not a command line).
    pub fn mid_command(&self) -> bool {
        !matches!(self.state, ParseState::Idle)
    }

    /// Attempts to parse one command from the front of `buffer`, consuming
    /// the bytes it used and stashing mid-command state on `self`.
    pub fn parse(&mut self, buffer: &mut BytesMut) -> ParseOutcome {
        parse_owned(buffer, |input| self.next_request(input))
    }

    /// [`Parser::parse`] over a slice cursor, which is how the connection
    /// calls it: `input` is advanced past what was consumed, and a `get`
    /// hands its keys back borrowed from the bytes it was given.
    pub(crate) fn next_request<'a>(&mut self, input: &mut &'a [u8]) -> ParseOutcome<Request<'a>> {
        loop {
            let all = *input;
            match std::mem::take(&mut self.state) {
                ParseState::Data(key, header) => {
                    if all.len() < header.needed() {
                        self.state = ParseState::Data(key, header);
                        return ParseOutcome::Incomplete;
                    }
                    return header.complete(Cow::Owned(key), input);
                }
                ParseState::DiscardData { remaining, message } => {
                    let drop = remaining.min(all.len());
                    *input = &all[drop..];
                    if drop < remaining {
                        self.state = ParseState::DiscardData {
                            remaining: remaining - drop,
                            message,
                        };
                        return ParseOutcome::Incomplete;
                    }
                    return ParseOutcome::Invalid(message.to_string());
                }
                ParseState::DiscardLine => match find_crlf(all) {
                    Some(line_end) => {
                        *input = &all[line_end + 2..];
                        return ParseOutcome::Invalid("command line too long".to_string());
                    }
                    None => {
                        discard_keeping_split_cr(input);
                        self.state = ParseState::DiscardLine;
                        return ParseOutcome::Incomplete;
                    }
                },
                ParseState::Idle => {
                    let Some(line_end) = find_crlf(all) else {
                        if all.len() > MAX_LINE_BYTES {
                            discard_keeping_split_cr(input);
                            self.state = ParseState::DiscardLine;
                        }
                        return ParseOutcome::Incomplete;
                    };
                    *input = &all[line_end + 2..];
                    match parse_line(&all[..line_end]) {
                        LineOutcome::Complete(request) => return ParseOutcome::Complete(request),
                        LineOutcome::Invalid(message) => return ParseOutcome::Invalid(message),
                        LineOutcome::Store(_, header) if header.bytes > MAX_DATA_BYTES => {
                            // Swallow the declared block + CRLF unbuffered.
                            self.state = ParseState::DiscardData {
                                remaining: header.needed(),
                                message: "object too large for cache",
                            };
                        }
                        LineOutcome::Store(key, header) if input.len() >= header.needed() => {
                            return header.complete(Cow::Borrowed(key), input);
                        }
                        // Header consumed and remembered; its data block
                        // comes with a later read.
                        LineOutcome::Store(key, header) => {
                            self.state = ParseState::Data(key.to_vec(), header);
                            return ParseOutcome::Incomplete;
                        }
                    }
                }
            }
        }
    }
}

/// Appends a space and `value` in decimal: a reply's numeric field, without
/// the formatting machinery `write!` brings to every `VALUE` line.
fn push_number(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [b' '; 21];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at - 1..]);
}

/// Appends one hit of a `get` reply: the `VALUE` header and the data block.
pub(crate) fn encode_value(key: &[u8], flags: u32, data: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(b"VALUE ");
    out.extend_from_slice(key);
    push_number(out, u64::from(flags));
    push_number(out, data.len() as u64);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Serialises a response into the wire format. Formatting goes straight
/// into `out` (writing to a `Vec` cannot fail), so no reply allocates.
pub fn encode_response(response: &Response, out: &mut Vec<u8>) {
    let _ = match response {
        Response::Values(values) => {
            for v in values {
                encode_value(&v.key, v.flags, &v.data, out);
            }
            out.write_all(b"END\r\n")
        }
        Response::Stored => out.write_all(b"STORED\r\n"),
        Response::NotStored => out.write_all(b"NOT_STORED\r\n"),
        Response::Deleted => out.write_all(b"DELETED\r\n"),
        Response::NotFound => out.write_all(b"NOT_FOUND\r\n"),
        Response::Ok => out.write_all(b"OK\r\n"),
        Response::Version(v) => write!(out, "VERSION {v}\r\n"),
        Response::Stats(stats) => {
            for (name, value) in stats {
                let _ = write!(out, "STAT {name} {value}\r\n");
            }
            out.write_all(b"END\r\n")
        }
        Response::Blob(payload) => {
            out.extend_from_slice(payload.as_bytes());
            if !payload.ends_with('\n') {
                out.extend_from_slice(b"\r\n");
            }
            out.write_all(b"END\r\n")
        }
        Response::Apps(apps) => {
            for app in apps {
                out.extend_from_slice(b"APP ");
                out.extend_from_slice(app.name.as_bytes());
                push_number(out, app.weight);
                push_number(out, app.budget_bytes);
                out.extend_from_slice(b"\r\n");
            }
            out.write_all(b"END\r\n")
        }
        Response::ClientError(msg) => write!(out, "CLIENT_ERROR {msg}\r\n"),
        Response::ServerError(msg) => write!(out, "SERVER_ERROR {msg}\r\n"),
        Response::Error => out.write_all(b"ERROR\r\n"),
    };
}

/// Discards a CRLF-less input, retaining a trailing `\r`: the line's
/// terminator may straddle a read boundary (`…\r` now, `\n` next read),
/// and dropping the `\r` would make the discard overrun into the *next*
/// command's line — desynchronizing every later pipelined response.
fn discard_keeping_split_cr(input: &mut &[u8]) {
    let keep = usize::from(input.last() == Some(&b'\r'));
    *input = &input[input.len() - keep..];
}

/// The offset of the first CRLF: a search for `\r`, then a look behind it.
/// A word that XORed with `\r` in every byte has no zero byte holds no `\r`
/// and is skipped whole; in one that does, the first `\r` is its lowest
/// zero byte, and the rest of the word, like the tail short of a word, is
/// searched byte by byte.
fn find_crlf(buffer: &[u8]) -> Option<usize> {
    let mut at = 0;
    while at < buffer.len() {
        let end = buffer.len().min(at + 8);
        let from = match word_at(buffer, at) {
            Some(word) => match bytes_below(word ^ (LANES * u64::from(b'\r')), 1) {
                0 => {
                    at = end;
                    continue;
                }
                lanes => at + lanes.trailing_zeros() as usize / 8,
            },
            None => at,
        };
        if let Some(found) =
            (from..end).find(|&i| buffer[i] == b'\r' && buffer.get(i + 1) == Some(&b'\n'))
        {
            return Some(found);
        }
        at = end;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(data: &[u8]) -> BytesMut {
        BytesMut::from(data)
    }

    #[test]
    fn parses_get_with_multiple_keys() {
        let mut b = buf(b"get foo bar\r\n");
        match parse_command(&mut b) {
            ParseOutcome::Complete(Command::Get { keys }) => {
                assert_eq!(keys, vec![Bytes::from("foo"), Bytes::from("bar")]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(b.is_empty());
    }

    #[test]
    fn parses_set_with_data_block() {
        let mut b = buf(b"set foo 7 0 5\r\nhello\r\nget foo\r\n");
        match parse_command(&mut b) {
            ParseOutcome::Complete(Command::Store {
                verb,
                key,
                flags,
                data,
                noreply,
                ..
            }) => {
                assert_eq!(verb, StoreVerb::Set);
                assert_eq!(key, Bytes::from("foo"));
                assert_eq!(flags, 7);
                assert_eq!(data, Bytes::from("hello"));
                assert!(!noreply);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The following command is still in the buffer.
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Get { .. })
        ));
    }

    #[test]
    fn incomplete_input_waits_for_more() {
        let mut b = buf(b"set foo 0 0 10\r\nhel");
        assert_eq!(parse_command(&mut b), ParseOutcome::Incomplete);
        // Nothing consumed.
        assert_eq!(&b[..3], b"set");
        let mut partial_line = buf(b"get fo");
        assert_eq!(parse_command(&mut partial_line), ParseOutcome::Incomplete);
    }

    #[test]
    fn binary_safe_values() {
        let mut b = BytesMut::new();
        b.extend_from_slice(b"set bin 0 0 4\r\n");
        b.extend_from_slice(&[0, 255, 13, 10]);
        b.extend_from_slice(b"\r\n");
        match parse_command(&mut b) {
            ParseOutcome::Complete(Command::Store { data, .. }) => {
                assert_eq!(&data[..], &[0, 255, 13, 10]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn invalid_commands_are_consumed_and_reported() {
        let mut b = buf(b"bogus thing\r\nversion\r\n");
        assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Version)
        ));
        let mut b = buf(b"set missingargs\r\n");
        assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
        let mut b = buf(b"get\r\n");
        assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
    }

    #[test]
    fn parses_delete_add_replace_and_admin() {
        let mut b = buf(b"delete foo noreply\r\nadd k 0 0 1\r\nx\r\nreplace k 0 0 1\r\ny\r\nstats\r\nflush_all\r\nquit\r\n");
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Delete { noreply: true, .. })
        ));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Store {
                verb: StoreVerb::Add,
                ..
            })
        ));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Store {
                verb: StoreVerb::Replace,
                ..
            })
        ));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Stats {
                format: StatsFormat::Text
            })
        ));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::FlushAll)
        ));
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Quit)
        ));
    }

    #[test]
    fn parses_app_selector() {
        let mut b = buf(b"app tenant-a\r\nget foo\r\n");
        match parse_command(&mut b) {
            ParseOutcome::Complete(Command::App { id }) => {
                assert_eq!(id, Bytes::from("tenant-a"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::Get { .. })
        ));
        let mut b = buf(b"app\r\n");
        assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
        let mut b = buf(b"app one two\r\n");
        assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
    }

    #[test]
    fn parses_app_create_and_app_list() {
        let mut b = buf(b"app_create tenant-x 3\r\napp_list\r\n");
        match parse_command(&mut b) {
            ParseOutcome::Complete(Command::AppCreate { name, weight }) => {
                assert_eq!(name, Bytes::from("tenant-x"));
                assert_eq!(weight, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_command(&mut b),
            ParseOutcome::Complete(Command::AppList)
        ));
        for bad in [
            &b"app_create\r\n"[..],
            b"app_create lonely\r\n",
            b"app_create name 0\r\n",
            b"app_create name nope\r\n",
            b"app_create name 1 extra\r\n",
        ] {
            let mut b = buf(bad);
            assert!(
                matches!(parse_command(&mut b), ParseOutcome::Invalid(_)),
                "{:?} must be invalid",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn resumable_parser_consumes_the_header_once() {
        let mut parser = Parser::new();
        let mut b = buf(b"set foo 7 0 5\r\nhe");
        assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
        // The header line is consumed and remembered; only value bytes wait.
        assert!(parser.mid_command());
        assert_eq!(&b[..], b"he");
        b.extend_from_slice(b"llo");
        assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
        b.extend_from_slice(b"\r\nget foo\r\n");
        match parser.parse(&mut b) {
            ParseOutcome::Complete(Command::Store {
                verb, key, data, ..
            }) => {
                assert_eq!(verb, StoreVerb::Set);
                assert_eq!(key, Bytes::from("foo"));
                assert_eq!(data, Bytes::from("hello"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!parser.mid_command());
        assert!(matches!(
            parser.parse(&mut b),
            ParseOutcome::Complete(Command::Get { .. })
        ));
        assert!(b.is_empty());
    }

    #[test]
    fn resumable_parser_rejects_a_bad_terminator_and_recovers() {
        let mut parser = Parser::new();
        let mut b = buf(b"set foo 0 0 2\r\nxxYYversion\r\n");
        assert!(matches!(parser.parse(&mut b), ParseOutcome::Invalid(_)));
        assert!(!parser.mid_command());
        assert!(matches!(
            parser.parse(&mut b),
            ParseOutcome::Complete(Command::Version)
        ));
    }

    #[test]
    fn resumable_parser_discards_oversized_data_blocks_in_stride() {
        let mut parser = Parser::new();
        let huge = MAX_DATA_BYTES + 10;
        let mut b = buf(format!("set big 0 0 {huge}\r\n").as_bytes());
        // The header alone produces no outcome and buffers nothing.
        assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
        assert!(parser.mid_command());
        assert!(b.is_empty());
        // Feed the declared block in chunks; the parser consumes each chunk
        // whole without accumulating it.
        let mut sent = 0usize;
        let chunk = vec![b'x'; 1 << 20];
        while sent + chunk.len() <= huge {
            b.extend_from_slice(&chunk);
            sent += chunk.len();
            assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
            assert!(b.is_empty(), "discard must not buffer the block");
        }
        b.extend_from_slice(&vec![b'x'; huge - sent]);
        b.extend_from_slice(b"\r\nversion\r\n");
        match parser.parse(&mut b) {
            ParseOutcome::Invalid(message) => assert!(message.contains("too large"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        // The stream is still in sync afterwards.
        assert!(matches!(
            parser.parse(&mut b),
            ParseOutcome::Complete(Command::Version)
        ));
    }

    #[test]
    fn resumable_parser_discards_endless_lines() {
        let mut parser = Parser::new();
        let mut b = BytesMut::new();
        // A CRLF-less firehose: consumed, never accumulated.
        for _ in 0..4 {
            b.extend_from_slice(&vec![b'a'; MAX_LINE_BYTES]);
            assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
        }
        assert!(b.len() <= MAX_LINE_BYTES, "long line must not accumulate");
        assert!(parser.mid_command());
        b.extend_from_slice(b"zzz\r\nstats\r\n");
        match parser.parse(&mut b) {
            ParseOutcome::Invalid(message) => assert!(message.contains("too long"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parser.parse(&mut b),
            ParseOutcome::Complete(Command::Stats { .. })
        ));
    }

    #[test]
    fn parses_stats_formats() {
        for (line, format) in [
            (&b"stats\r\n"[..], StatsFormat::Text),
            (b"stats json\r\n", StatsFormat::Json),
            (b"stats prom\r\n", StatsFormat::Prom),
        ] {
            let mut b = buf(line);
            match parse_command(&mut b) {
                ParseOutcome::Complete(Command::Stats { format: got }) => assert_eq!(got, format),
                other => panic!("unexpected {other:?}"),
            }
        }
        for bad in [&b"stats yaml\r\n"[..], b"stats json extra\r\n"] {
            let mut b = buf(bad);
            assert!(matches!(parse_command(&mut b), ParseOutcome::Invalid(_)));
        }
    }

    #[test]
    fn encodes_blob_responses() {
        // A single-line JSON document gains its own CRLF before END.
        let mut out = Vec::new();
        encode_response(&Response::Blob("{\"schema\":\"x\"}".into()), &mut out);
        assert_eq!(out, b"{\"schema\":\"x\"}\r\nEND\r\n");
        // Newline-terminated Prometheus text is not double-terminated.
        let mut out = Vec::new();
        encode_response(&Response::Blob("a 1\nb 2\n".into()), &mut out);
        assert_eq!(out, b"a 1\nb 2\nEND\r\n");
    }

    #[test]
    fn oversized_line_discard_handles_a_split_crlf() {
        // The over-long line's terminating CRLF straddles a read boundary:
        // the discard must not eat the '\r' and overrun into the next
        // command (which would desynchronize the pipelined session).
        let mut parser = Parser::new();
        let mut b = BytesMut::new();
        b.extend_from_slice(&vec![b'a'; MAX_LINE_BYTES + 10]);
        b.extend_from_slice(b"\r");
        assert_eq!(parser.parse(&mut b), ParseOutcome::Incomplete);
        assert!(parser.mid_command());
        b.extend_from_slice(b"\nget foo\r\n");
        match parser.parse(&mut b) {
            ParseOutcome::Invalid(message) => assert!(message.contains("too long"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        match parser.parse(&mut b) {
            ParseOutcome::Complete(Command::Get { keys }) => {
                assert_eq!(keys, vec![Bytes::from("foo")], "next command intact");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resumable_parser_matches_parse_command_on_a_pipelined_stream() {
        let stream: &[u8] =
            b"set a 1 0 3\r\nabc\r\nget a b\r\ndelete a noreply\r\nbogus\r\napp t1\r\nquit\r\n";
        let mut all_at_once = buf(stream);
        let mut one_byte_at_a_time = BytesMut::new();
        let mut parser = Parser::new();
        let mut resumed = Vec::new();
        for &byte in stream {
            one_byte_at_a_time.extend_from_slice(&[byte]);
            loop {
                match parser.parse(&mut one_byte_at_a_time) {
                    ParseOutcome::Incomplete => break,
                    outcome => resumed.push(outcome),
                }
            }
        }
        let mut reference = Vec::new();
        loop {
            match parse_command(&mut all_at_once) {
                ParseOutcome::Incomplete => break,
                outcome => reference.push(outcome),
            }
        }
        assert_eq!(resumed, reference);
    }

    #[test]
    fn decimal_digits_match_the_formatter() {
        for value in [0, 9, 10, 99, 100, u64::from(u32::MAX), usize::MAX as u64] {
            let mut out = b"x".to_vec();
            push_number(&mut out, value);
            assert_eq!(out, format!("x {value}").into_bytes());
        }
    }

    #[test]
    fn a_line_ends_at_its_first_crlf_and_nowhere_else() {
        assert_eq!(find_crlf(b""), None);
        assert_eq!(find_crlf(b"\r"), None);
        assert_eq!(find_crlf(b"get k\r"), None);
        assert_eq!(find_crlf(b"\n\r x\r\r\n\r\n"), Some(5));
        assert_eq!(find_crlf(b"\r\nrest"), Some(0));
    }

    #[test]
    fn encodes_responses() {
        let mut out = Vec::new();
        encode_response(
            &Response::Values(vec![Value {
                key: Bytes::from("foo"),
                flags: 3,
                data: Bytes::from("hello"),
            }]),
            &mut out,
        );
        assert_eq!(out, b"VALUE foo 3 5\r\nhello\r\nEND\r\n");
        let mut out = Vec::new();
        encode_response(&Response::Stored, &mut out);
        assert_eq!(out, b"STORED\r\n");
        let mut out = Vec::new();
        encode_response(
            &Response::Stats(vec![("gets".into(), "10".into())]),
            &mut out,
        );
        assert_eq!(out, b"STAT gets 10\r\nEND\r\n");
        let mut out = Vec::new();
        encode_response(&Response::ClientError("nope".into()), &mut out);
        assert!(out.starts_with(b"CLIENT_ERROR"));
        let mut out = Vec::new();
        encode_response(
            &Response::ServerError("out of connections".into()),
            &mut out,
        );
        assert_eq!(out, b"SERVER_ERROR out of connections\r\n");
        let mut out = Vec::new();
        encode_response(
            &Response::Apps(vec![AppEntry {
                name: "alpha".into(),
                weight: 2,
                budget_bytes: 1024,
            }]),
            &mut out,
        );
        assert_eq!(out, b"APP alpha 2 1024\r\nEND\r\n");
    }

    /// The word-at-a-time scanner against the byte-at-a-time one it
    /// replaced, kept here as it was: the first CRLF, the tokens, every
    /// token read as a `u32`, `usize` and `u64`, and the parse of the line
    /// must be the same for every line.
    mod scanner {
        use super::*;
        use proptest::prelude::*;

        /// The scanner and line grammar before words, verbatim but for the
        /// `Request` they build: the grammar's own `Get`, `Delete`, `Other`.
        mod oracle {
            use super::super::super::{Command, StatsFormat, StoreHeader, StoreVerb};
            use bytes::Bytes;

            #[derive(Clone, Debug)]
            pub(super) struct Tokens<'a>(pub(super) &'a [u8]);

            impl<'a> Iterator for Tokens<'a> {
                type Item = &'a [u8];
                fn next(&mut self) -> Option<&'a [u8]> {
                    let start = self.0.iter().position(|b| !b.is_ascii_whitespace())?;
                    let rest = &self.0[start..];
                    let end = rest
                        .iter()
                        .position(u8::is_ascii_whitespace)
                        .unwrap_or(rest.len());
                    self.0 = &rest[end..];
                    Some(&rest[..end])
                }
            }

            pub(super) enum Request<'a> {
                Get(Tokens<'a>),
                Delete { key: &'a [u8], noreply: bool },
                Other(Command),
            }

            pub(super) enum LineOutcome<'a> {
                Complete(Request<'a>),
                Store(&'a [u8], StoreHeader),
                Invalid(String),
            }

            pub(super) fn number<T: std::str::FromStr>(token: Option<&[u8]>) -> Option<T> {
                std::str::from_utf8(token?).ok()?.parse().ok()
            }

            pub(super) fn parse_line(line: &[u8]) -> LineOutcome<'_> {
                let complete = |command| LineOutcome::Complete(Request::Other(command));
                let invalid = |message: &str| LineOutcome::Invalid(message.to_string());
                let mut parts = Tokens(line);
                let Some(verb) = parts.next() else {
                    return invalid("empty command");
                };
                match verb {
                    b"get" | b"gets" => match parts.clone().next() {
                        Some(_) => LineOutcome::Complete(Request::Get(parts)),
                        None => invalid("get requires at least one key"),
                    },
                    b"set" | b"add" | b"replace" => {
                        let verb = match verb {
                            b"set" => StoreVerb::Set,
                            b"add" => StoreVerb::Add,
                            _ => StoreVerb::Replace,
                        };
                        let key = parts.next();
                        let flags = number::<u32>(parts.next());
                        let exptime = number::<u32>(parts.next());
                        let bytes = number::<usize>(parts.next());
                        let noreply = parts.next() == Some(b"noreply");
                        let (Some(key), Some(flags), Some(exptime), Some(bytes)) =
                            (key, flags, exptime, bytes)
                        else {
                            return invalid("bad store command");
                        };
                        let header = StoreHeader {
                            verb,
                            flags,
                            exptime,
                            bytes,
                            noreply,
                        };
                        LineOutcome::Store(key, header)
                    }
                    b"delete" => match parts.next() {
                        Some(key) => LineOutcome::Complete(Request::Delete {
                            key,
                            noreply: parts.next() == Some(b"noreply"),
                        }),
                        None => invalid("delete requires a key"),
                    },
                    b"app" => match (parts.next(), parts.next()) {
                        (Some(id), None) => complete(Command::App {
                            id: Bytes::copy_from_slice(id),
                        }),
                        (Some(_), Some(_)) => invalid("app takes exactly one name"),
                        (None, _) => invalid("app requires a name"),
                    },
                    b"app_create" => {
                        match (parts.next(), number::<u64>(parts.next()), parts.next()) {
                            (Some(name), Some(weight), None) if weight >= 1 => {
                                complete(Command::AppCreate {
                                    name: Bytes::copy_from_slice(name),
                                    weight,
                                })
                            }
                            _ => invalid("app_create takes a name and an integer weight >= 1"),
                        }
                    }
                    b"app_list" => complete(Command::AppList),
                    b"stats" => {
                        let format = match (parts.next(), parts.next()) {
                            (None, _) => StatsFormat::Text,
                            (Some(b"json"), None) => StatsFormat::Json,
                            (Some(b"prom"), None) => StatsFormat::Prom,
                            _ => return invalid("stats takes at most one of: json, prom"),
                        };
                        complete(Command::Stats { format })
                    }
                    b"version" => complete(Command::Version),
                    b"flush_all" => complete(Command::FlushAll),
                    b"quit" => complete(Command::Quit),
                    other => LineOutcome::Invalid(format!(
                        "unknown command {}",
                        String::from_utf8_lossy(other)
                    )),
                }
            }

            pub(super) fn find_crlf(buffer: &[u8]) -> Option<usize> {
                let mut from = 0;
                while let Some(found) = buffer[from..].iter().position(|&byte| byte == b'\r') {
                    from += found + 1;
                    if buffer.get(from) == Some(&b'\n') {
                        return Some(from - 1);
                    }
                }
                None
            }
        }

        /// A line's parse, written out so that the two grammars compare.
        fn ours(line: &[u8]) -> String {
            match parse_line(line) {
                LineOutcome::Complete(Request::Get(keys)) => {
                    format!("get {:?}", keys.collect::<Vec<_>>())
                }
                LineOutcome::Complete(Request::Delete { key, noreply }) => {
                    format!("delete {key:?} {noreply}")
                }
                LineOutcome::Complete(Request::Other(command)) => format!("{command:?}"),
                LineOutcome::Complete(request) => panic!("a line parsed to {request:?}"),
                LineOutcome::Store(key, header) => format!("store {key:?} {header:?}"),
                LineOutcome::Invalid(message) => format!("invalid {message}"),
            }
        }

        fn theirs(line: &[u8]) -> String {
            use oracle::{LineOutcome, Request};
            match oracle::parse_line(line) {
                LineOutcome::Complete(Request::Get(keys)) => {
                    format!("get {:?}", keys.collect::<Vec<_>>())
                }
                LineOutcome::Complete(Request::Delete { key, noreply }) => {
                    format!("delete {key:?} {noreply}")
                }
                LineOutcome::Complete(Request::Other(command)) => format!("{command:?}"),
                LineOutcome::Store(key, header) => format!("store {key:?} {header:?}"),
                LineOutcome::Invalid(message) => format!("invalid {message}"),
            }
        }

        /// Single bytes: letters, digits, `+`, `-`, the five ASCII
        /// whitespace bytes and `\x0b` (not whitespace), a byte >= 0x80.
        const BYTES: &[u8] = b"aZk:09+- \t\x0b\x0c\r\n\xff";

        /// Numbers at the `u32`, `usize` and 18-digit edges, signed and
        /// zero-padded.
        const NUMBERS: &[&str] = &[
            "0",
            "7",
            "+7",
            "-1",
            "4294967295",
            "4294967296",
            "004294967295",
            "999999999999999999",
            "1000000000000000000",
            "18446744073709551615",
            "18446744073709551616",
            "000000000000000000000001",
        ];

        /// Verbs, so that every arm of the grammar is reached.
        const VERBS: &[&str] = &[
            "get",
            "gets",
            "set",
            "add",
            "replace",
            "delete",
            "app",
            "app_create",
            "app_list",
            "stats",
            "json",
            "noreply",
            "version",
            "flush_all",
            "quit",
        ];

        /// A piece of a line: a byte, a number or a verb.
        fn piece() -> impl Strategy<Value = Vec<u8>> {
            prop_oneof![
                (0..BYTES.len()).prop_map(|i| vec![BYTES[i]]),
                (0..BYTES.len()).prop_map(|i| vec![BYTES[i]]),
                (0..NUMBERS.len()).prop_map(|i| NUMBERS[i].as_bytes().to_vec()),
                (0..VERBS.len()).prop_map(|i| VERBS[i].as_bytes().to_vec()),
                Just(b" ".to_vec()),
            ]
        }

        fn cases() -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|cases| cases.parse().ok())
                .unwrap_or(1024)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(cases()))]

            #[test]
            fn the_word_scanner_answers_as_the_byte_scanner(
                pieces in prop::collection::vec(piece(), 0..40),
            ) {
                let line = pieces.concat();
                prop_assert_eq!(find_crlf(&line), oracle::find_crlf(&line));
                let tokens: Vec<&[u8]> = Tokens(&line).collect();
                prop_assert_eq!(&tokens, &oracle::Tokens(&line).collect::<Vec<_>>());
                for token in tokens {
                    let token = Some(token);
                    prop_assert_eq!(number::<u32>(token), oracle::number::<u32>(token));
                    prop_assert_eq!(number::<usize>(token), oracle::number::<usize>(token));
                    prop_assert_eq!(number::<u64>(token), oracle::number::<u64>(token));
                }
                prop_assert_eq!(ours(&line), theirs(&line));
            }
        }
    }
}
