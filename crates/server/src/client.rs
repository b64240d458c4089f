//! A blocking Memcached-text-protocol client.
//!
//! Used by the integration tests, the examples and the Table 6/7 benchmark
//! harness. The client is intentionally simple: one request at a time over
//! one connection, with buffered reads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking client for the cache server.
pub struct CacheClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl CacheClient {
    /// Connects to the server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<CacheClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(CacheClient {
            reader,
            writer: stream,
        })
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Selects the application namespace for the rest of this session
    /// (`app <name>`); returns whether the server accepted it. Keys, stats
    /// and `flush_all` after a successful call are scoped to that
    /// application; without it the session runs in the `default` namespace.
    pub fn app(&mut self, name: &str) -> std::io::Result<bool> {
        self.writer
            .write_all(format!("app {name}\r\n").as_bytes())?;
        let line = self.read_line()?;
        Ok(line == "OK")
    }

    /// Creates an application namespace live (`app_create <name> <weight>`);
    /// returns whether the server accepted it (duplicates and invalid names
    /// come back as `CLIENT_ERROR`, i.e. `false`).
    pub fn app_create(&mut self, name: &str, weight: u64) -> std::io::Result<bool> {
        self.writer
            .write_all(format!("app_create {name} {weight}\r\n").as_bytes())?;
        let line = self.read_line()?;
        Ok(line == "OK")
    }

    /// Lists the hosted applications as `(name, weight, budget bytes)`
    /// (`app_list`).
    pub fn app_list(&mut self) -> std::io::Result<Vec<(String, u64, u64)>> {
        self.writer.write_all(b"app_list\r\n")?;
        let mut apps = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(apps);
            }
            if let Some(rest) = line.strip_prefix("APP ") {
                let mut parts = rest.split_ascii_whitespace();
                let name = parts.next().unwrap_or("").to_string();
                let weight: u64 = parts.next().unwrap_or("0").parse().unwrap_or(0);
                let budget: u64 = parts.next().unwrap_or("0").parse().unwrap_or(0);
                apps.push((name, weight, budget));
            } else if line.starts_with("CLIENT_ERROR") || line == "ERROR" {
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, line));
            }
        }
    }

    /// Stores a value; returns whether the server acknowledged it.
    pub fn set(&mut self, key: &[u8], flags: u32, value: &[u8]) -> std::io::Result<bool> {
        self.store("set", key, flags, value)
    }

    /// `add`: stores only if absent.
    pub fn add(&mut self, key: &[u8], flags: u32, value: &[u8]) -> std::io::Result<bool> {
        self.store("add", key, flags, value)
    }

    /// `replace`: stores only if present.
    pub fn replace(&mut self, key: &[u8], flags: u32, value: &[u8]) -> std::io::Result<bool> {
        self.store("replace", key, flags, value)
    }

    fn store(&mut self, verb: &str, key: &[u8], flags: u32, value: &[u8]) -> std::io::Result<bool> {
        let header = format!(
            "{verb} {} {flags} 0 {}\r\n",
            String::from_utf8_lossy(key),
            value.len()
        );
        self.writer.write_all(header.as_bytes())?;
        self.writer.write_all(value)?;
        self.writer.write_all(b"\r\n")?;
        let line = self.read_line()?;
        Ok(line == "STORED")
    }

    /// Fetches a key; `Ok(None)` on a miss.
    pub fn get(&mut self, key: &[u8]) -> std::io::Result<Option<(u32, Vec<u8>)>> {
        let command = format!("get {}\r\n", String::from_utf8_lossy(key));
        self.writer.write_all(command.as_bytes())?;
        let mut result = None;
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(result);
            }
            if let Some(rest) = line.strip_prefix("VALUE ") {
                let mut parts = rest.split_ascii_whitespace();
                let _key = parts.next().unwrap_or("");
                let flags: u32 = parts.next().unwrap_or("0").parse().unwrap_or(0);
                let len: usize = parts.next().unwrap_or("0").parse().unwrap_or(0);
                let mut data = vec![0u8; len];
                self.reader.read_exact(&mut data)?;
                let mut crlf = [0u8; 2];
                self.reader.read_exact(&mut crlf)?;
                result = Some((flags, data));
            } else if line.starts_with("CLIENT_ERROR") || line == "ERROR" {
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, line));
            }
        }
    }

    /// Deletes a key; returns whether it existed.
    pub fn delete(&mut self, key: &[u8]) -> std::io::Result<bool> {
        let command = format!("delete {}\r\n", String::from_utf8_lossy(key));
        self.writer.write_all(command.as_bytes())?;
        let line = self.read_line()?;
        Ok(line == "DELETED")
    }

    /// Fetches server statistics.
    pub fn stats(&mut self) -> std::io::Result<Vec<(String, String)>> {
        self.writer.write_all(b"stats\r\n")?;
        let mut stats = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(stats);
            }
            if let Some(rest) = line.strip_prefix("STAT ") {
                if let Some((name, value)) = rest.split_once(' ') {
                    stats.push((name.to_string(), value.to_string()));
                }
            }
        }
    }

    /// Fetches the machine-readable statistics document (`stats json`): a
    /// one-line versioned `cliffhanger-stats/v1` JSON payload.
    pub fn stats_json(&mut self) -> std::io::Result<String> {
        self.stats_blob(b"stats json\r\n")
    }

    /// Fetches the Prometheus text exposition (`stats prom`).
    pub fn stats_prom(&mut self) -> std::io::Result<String> {
        self.stats_blob(b"stats prom\r\n")
    }

    /// Reads an END-terminated blob reply line by line, preserving the
    /// payload's own line structure.
    fn stats_blob(&mut self, command: &[u8]) -> std::io::Result<String> {
        self.writer.write_all(command)?;
        let mut payload = String::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(payload);
            }
            if line.starts_with("CLIENT_ERROR") || line == "ERROR" {
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, line));
            }
            payload.push_str(&line);
            payload.push('\n');
        }
    }

    /// Fetches the server version string.
    pub fn version(&mut self) -> std::io::Result<String> {
        self.writer.write_all(b"version\r\n")?;
        let line = self.read_line()?;
        Ok(line.strip_prefix("VERSION ").unwrap_or(&line).to_string())
    }

    /// Drops every item on the server.
    pub fn flush_all(&mut self) -> std::io::Result<()> {
        self.writer.write_all(b"flush_all\r\n")?;
        let _ = self.read_line()?;
        Ok(())
    }

    /// Sends `quit`, closing the connection on the server side.
    pub fn quit(mut self) -> std::io::Result<()> {
        self.writer.write_all(b"quit\r\n")?;
        Ok(())
    }
}
