//! HTTP/1.1 load generation over keep-alive connections.
//!
//! Two phases, each one thread per connection:
//!
//! * [`paced`] — open loop. Request `i` is due at `i / rate` seconds and is
//!   written at its due time whether or not earlier responses arrived; the
//!   thread reads responses (in order, as HTTP/1.1 pipelining returns them)
//!   while it waits for the next due time. Latency is taken from the due
//!   time, so a stall charges every request queued behind it, and the
//!   thread reports how late it wrote each request.
//! * [`flood`] — closed loop at a fixed pipeline depth per connection.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Give up on a connection that makes no progress for this long.
const STALL_LIMIT: Duration = Duration::from_secs(60);

/// One finished (or failed) request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Index into the request sequence.
    pub index: usize,
    /// When the request was due (paced) or written (flood).
    pub due: Instant,
    /// When it was actually written.
    pub sent: Instant,
    /// When its response was complete (`None`: the request failed).
    pub done: Option<Instant>,
    pub status: u16,
    pub body: Vec<u8>,
}

impl Completion {
    pub fn ok(&self) -> bool {
        self.done.is_some() && self.status == 200
    }
}

/// Frame one POST request.
pub fn frame(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Take one complete response off the front of `buf`: `Ok(None)` when more
/// bytes are needed. Handles `content-length` and chunked bodies.
pub fn take_response(buf: &mut Vec<u8>) -> Result<Option<(u16, Vec<u8>)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > 64 * 1024 {
            Err("unterminated response head".into())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut content_length = None;
    let mut chunked = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| "bad content-length")?,
                )
            }
            "transfer-encoding" => chunked = value.trim().eq_ignore_ascii_case("chunked"),
            _ => {}
        }
    }
    let body_start = head_end + 4;
    if chunked {
        let mut body = Vec::new();
        let mut at = body_start;
        loop {
            let Some(line_len) = buf[at..].windows(2).position(|w| w == b"\r\n") else {
                return Ok(None);
            };
            let size_text =
                std::str::from_utf8(&buf[at..at + line_len]).map_err(|_| "bad chunk")?;
            let size = usize::from_str_radix(size_text.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| format!("bad chunk size {size_text:?}"))?;
            let data = at + line_len + 2;
            if buf.len() < data + size + 2 {
                return Ok(None);
            }
            body.extend_from_slice(&buf[data..data + size]);
            at = data + size + 2;
            if size == 0 {
                buf.drain(..at);
                return Ok(Some((status, body)));
            }
        }
    }
    let len = content_length.ok_or("response without content-length")?;
    if buf.len() < body_start + len {
        return Ok(None);
    }
    let body = buf[body_start..body_start + len].to_vec();
    buf.drain(..body_start + len);
    Ok(Some((status, body)))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(stream)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait until `stream` is readable or `wait` passes. `ppoll` sleeps on a
/// high-resolution timer; a socket read timeout would round the wait up to
/// the kernel tick and make the open loop write its requests late.
fn wait_readable(stream: &TcpStream, wait: Duration) -> Result<bool, String> {
    const POLLIN: i16 = 0x001;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live locals for the whole call, the
    // count matches the one-element array, and a null signal mask is
    // allowed (the mask stays unchanged).
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match ready {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(format!("ppoll: {e}"))
            }
        }
    }
}

/// Read once into `buf` if data arrives within `wait`. `Ok(false)` when
/// nothing came.
fn read_some(stream: &mut TcpStream, buf: &mut Vec<u8>, wait: Duration) -> Result<bool, String> {
    if !wait_readable(stream, wait)? {
        return Ok(false);
    }
    let mut chunk = [0u8; 16 * 1024];
    match stream.read(&mut chunk) {
        Ok(0) => Err("connection closed by server".into()),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(true)
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(false),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// Drive one connection. `mine` lists `(request index, due offset)` in
/// send order; `depth` bounds requests in flight (`usize::MAX` for the
/// open loop, which sends on schedule regardless).
fn drive(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    mine: &[(usize, Duration)],
    start: Instant,
    depth: usize,
) -> (Vec<Completion>, Option<String>) {
    let mut done: Vec<Completion> = Vec::with_capacity(mine.len());
    let mut pending: VecDeque<Completion> = VecDeque::new();
    let mut next = 0usize;
    let result = (|| -> Result<(), String> {
        let mut stream = connect(addr)?;
        let mut buf = Vec::new();
        let mut progress = Instant::now();
        while next < mine.len() || !pending.is_empty() {
            let now = Instant::now();
            while next < mine.len() && pending.len() < depth && start + mine[next].1 <= now {
                let (index, offset) = mine[next];
                stream
                    .write_all(&requests[index])
                    .map_err(|e| format!("write: {e}"))?;
                let sent = Instant::now();
                let due = if depth == usize::MAX {
                    start + offset
                } else {
                    sent
                };
                pending.push_back(Completion {
                    index,
                    due,
                    sent,
                    done: None,
                    status: 0,
                    body: Vec::new(),
                });
                next += 1;
            }
            let until_due = if next < mine.len() && pending.len() < depth {
                (start + mine[next].1).saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(50)
            };
            if pending.is_empty() {
                std::thread::sleep(until_due);
                continue;
            }
            if read_some(&mut stream, &mut buf, until_due)? {
                progress = Instant::now();
            } else if progress.elapsed() > STALL_LIMIT {
                return Err("no response progress".into());
            }
            while let Some((status, body)) = take_response(&mut buf)? {
                let mut c = pending.pop_front().ok_or("response without a request")?;
                c.done = Some(Instant::now());
                c.status = status;
                c.body = body;
                done.push(c);
            }
        }
        Ok(())
    })();
    // Whatever is still pending or unsent failed with the connection.
    let error = result.err();
    if error.is_some() {
        done.extend(pending);
        done.extend(mine[next..].iter().map(|&(index, offset)| Completion {
            index,
            due: start + offset,
            sent: start + offset,
            done: None,
            status: 0,
            body: Vec::new(),
        }));
    }
    (done, error)
}

/// Result of one phase over all connections.
pub struct Phase {
    pub start: Instant,
    pub completions: Vec<Completion>,
    pub errors: Vec<String>,
}

impl Phase {
    /// Wall time from the phase start to the last response.
    pub fn wall(&self) -> Duration {
        self.completions
            .iter()
            .filter_map(|c| c.done)
            .max()
            .map_or(Duration::ZERO, |end| end - self.start)
    }
}

fn run_phase(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    connections: usize,
    offsets: impl Fn(usize) -> Duration,
    depth: usize,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(20);
    let per_conn: Vec<Vec<(usize, Duration)>> = (0..connections)
        .map(|c| {
            (c..requests.len())
                .step_by(connections)
                .map(|i| (i, offsets(i)))
                .collect()
        })
        .collect();
    let results: Vec<(Vec<Completion>, Option<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|mine| s.spawn(move || drive(addr, requests, mine, start, depth)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut completions = Vec::with_capacity(requests.len());
    let mut errors = Vec::new();
    for (c, e) in results {
        completions.extend(c);
        errors.extend(e);
    }
    completions.sort_by_key(|c| c.index);
    Phase {
        start,
        completions,
        errors,
    }
}

/// Open loop: request `i` due at `i / rate_rps` seconds, requests dealt
/// round-robin over `connections`.
pub fn paced(addr: SocketAddr, requests: &[Vec<u8>], connections: usize, rate_rps: f64) -> Phase {
    run_phase(
        addr,
        requests,
        connections,
        |i| Duration::from_secs_f64(i as f64 / rate_rps),
        usize::MAX,
    )
}

/// Closed loop: every connection keeps `depth` requests in flight.
pub fn flood(addr: SocketAddr, requests: &[Vec<u8>], connections: usize, depth: usize) -> Phase {
    run_phase(
        addr,
        requests,
        connections,
        |_| Duration::ZERO,
        depth.max(1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_split_and_chunked_responses() {
        let whole = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhelloHTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno";
        for split in 0..whole.len() {
            let mut buf = whole[..split].to_vec();
            let mut got = Vec::new();
            while let Some(r) = take_response(&mut buf).unwrap() {
                got.push(r);
            }
            buf.extend_from_slice(&whole[split..]);
            while let Some(r) = take_response(&mut buf).unwrap() {
                got.push(r);
            }
            assert_eq!(got, vec![(200, b"hello".to_vec()), (404, b"no".to_vec())]);
            assert!(buf.is_empty());
        }
        let mut chunked =
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n"
                .to_vec();
        assert_eq!(
            take_response(&mut chunked).unwrap(),
            Some((200, b"abcde".to_vec()))
        );
        assert!(chunked.is_empty());
        let mut partial = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nab".to_vec();
        assert_eq!(take_response(&mut partial).unwrap(), None);
    }
}
