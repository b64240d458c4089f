//! The benchmark's own memcached-text client: request encoding into one
//! write buffer, reply parsing out of one read buffer, no allocation per
//! request. It speaks only the wire protocol, so it keeps working whatever
//! happens to the server's Rust API.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A hung server must fail the run, not hang the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(20);
const READ_CHUNK: usize = 64 << 10;

/// One parsed reply. A hit's payload stays in the read buffer; fetch it
/// with [`Conn::payload`] before reading the next reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    Hit {
        flags: u32,
        at: usize,
        len: usize,
    },
    Miss,
    Stored,
    NotStored,
    Deleted,
    NotFound,
    Ok,
    /// Anything else (`ERROR`, `CLIENT_ERROR …`, `SERVER_ERROR …`).
    Refused,
}

pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(READ_CHUNK),
            buf: vec![0; 4 * READ_CHUNK],
            start: 0,
            end: 0,
        })
    }

    pub fn push_get(&mut self, key: &[u8]) {
        self.out.extend_from_slice(b"get ");
        self.out.extend_from_slice(key);
        self.out.extend_from_slice(b"\r\n");
    }

    pub fn push_set(&mut self, key: &[u8], flags: u32, value: &[u8]) {
        self.out.extend_from_slice(b"set ");
        self.out.extend_from_slice(key);
        write!(self.out, " {flags} 0 {}\r\n", value.len()).expect("writing to a Vec cannot fail");
        self.out.extend_from_slice(value);
        self.out.extend_from_slice(b"\r\n");
    }

    pub fn push_delete(&mut self, key: &[u8]) {
        self.out.extend_from_slice(b"delete ");
        self.out.extend_from_slice(key);
        self.out.extend_from_slice(b"\r\n");
    }

    pub fn push_line(&mut self, line: &str) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.extend_from_slice(b"\r\n");
    }

    /// Sends everything pushed since the last flush.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    /// Makes room, then reads at least one more byte.
    fn fill(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.buf.len() - self.end < READ_CHUNK {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() - self.end < READ_CHUNK {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        match self.stream.read(&mut self.buf[self.end..])? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.end += n;
                Ok(())
            }
        }
    }

    /// Reads one reply to a `get` (single key), `set`, `delete` or `app`.
    pub fn reply(&mut self) -> io::Result<Reply> {
        loop {
            if let Some((reply, used)) = parse_reply(&self.buf[self.start..self.end])? {
                let reply = match reply {
                    Reply::Hit { flags, at, len } => Reply::Hit {
                        flags,
                        at: at + self.start,
                        len,
                    },
                    other => other,
                };
                self.start += used;
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// The payload of the hit most recently returned by [`Conn::reply`].
    pub fn payload(&self, at: usize, len: usize) -> &[u8] {
        &self.buf[at..at + len]
    }

    /// Sends an END-terminated admin command (`stats json`) and returns the
    /// lines before `END`, joined.
    pub fn blob(&mut self, command: &str) -> io::Result<String> {
        self.push_line(command);
        self.flush()?;
        let mut text = String::new();
        loop {
            let unread = &self.buf[self.start..self.end];
            let Some(eol) = unread.iter().position(|&b| b == b'\n') else {
                self.fill()?;
                continue;
            };
            let line = unread[..eol].strip_suffix(b"\r").unwrap_or(&unread[..eol]);
            let done = line == b"END";
            if line == b"ERROR" || line.starts_with(b"CLIENT_ERROR") {
                return Err(invalid("admin command refused"));
            }
            if !done {
                text.push_str(&String::from_utf8_lossy(line));
            }
            self.start += eol + 1;
            if done {
                return Ok(text);
            }
        }
    }
}

/// Parses one whole reply from the front of `bytes`: the reply (a hit's
/// payload offset is relative to `bytes`) and how many bytes it took, or
/// `None` if more bytes are needed.
fn parse_reply(bytes: &[u8]) -> io::Result<Option<(Reply, usize)>> {
    let Some(eol) = bytes.iter().position(|&b| b == b'\n') else {
        return Ok(None);
    };
    let Some(line) = bytes[..eol].strip_suffix(b"\r") else {
        return Err(invalid("line without CRLF"));
    };
    let reply = match line {
        b"END" => Reply::Miss,
        b"STORED" => Reply::Stored,
        b"NOT_STORED" => Reply::NotStored,
        b"DELETED" => Reply::Deleted,
        b"NOT_FOUND" => Reply::NotFound,
        b"OK" => Reply::Ok,
        _ if line.starts_with(b"VALUE ") => {
            // VALUE <key> <flags> <bytes>\r\n<data>\r\nEND\r\n
            let text = std::str::from_utf8(&line[6..]).map_err(|_| invalid("VALUE line"))?;
            let mut numbers = text.split(' ').skip(1).map(str::parse::<u32>);
            let (Some(Ok(flags)), Some(Ok(len))) = (numbers.next(), numbers.next()) else {
                return Err(invalid("VALUE line"));
            };
            let (at, len) = (eol + 1, len as usize);
            let tail = b"\r\nEND\r\n";
            let used = at + len + tail.len();
            if bytes.len() < used {
                return Ok(None);
            }
            if &bytes[at + len..used] != tail {
                return Err(invalid("value not followed by END"));
            }
            return Ok(Some((Reply::Hit { flags, at, len }, used)));
        }
        _ => Reply::Refused,
    };
    Ok(Some((reply, eol + 1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_whole_or_not_at_all() {
        let hit = b"VALUE k 7 3\r\nabc\r\nEND\r\nSTORED\r\n";
        for cut in 0..23 {
            assert_eq!(parse_reply(&hit[..cut]).unwrap(), None, "cut at {cut}");
        }
        let (reply, used) = parse_reply(hit).unwrap().unwrap();
        assert_eq!(
            reply,
            Reply::Hit {
                flags: 7,
                at: 13,
                len: 3
            }
        );
        assert_eq!(&hit[13..16], b"abc");
        assert_eq!(parse_reply(&hit[used..]).unwrap(), Some((Reply::Stored, 8)));
        assert_eq!(parse_reply(b"END\r\n").unwrap(), Some((Reply::Miss, 5)));
        assert_eq!(
            parse_reply(b"SERVER_ERROR out of memory\r\n")
                .unwrap()
                .unwrap()
                .0,
            Reply::Refused
        );
        assert!(parse_reply(b"VALUE k 7 3\r\nabcd\r\nEND\r\n").is_err());
    }
}
