//! Load generators over persistent line-protocol connections.
//!
//! The closed loop sends a connection's next request only after the
//! previous reply arrived. The open loop sends on a fixed schedule
//! whether or not replies came back, and times every request from when
//! it was due, so a stall is charged to every request queued behind it.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Request lines and the reply lines each may receive.
pub struct Script {
    /// Request lines, each ending in `\n`.
    pub requests: Vec<String>,
    /// Per request, every acceptable reply line without its `\n` (two
    /// when the artifact alternates during the run).
    pub replies: Vec<Vec<String>>,
    /// Hostnames looked up per request.
    pub lookups_per_request: u64,
}

impl Script {
    fn accepts(&self, i: usize, reply: &[u8]) -> bool {
        self.replies[i].iter().any(|r| r.as_bytes() == reply)
    }
}

/// What one load run saw.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Per answered request, in ms: round trip (closed loop) or due
    /// time to reply (open loop).
    pub latencies_ms: Vec<f64>,
    /// Per sent request, how late the open loop sent it, in ms.
    pub late_ms: Vec<f64>,
    /// Requests sent.
    pub requests: u64,
    /// Requests unanswered, or answered with anything but an accepted
    /// reply.
    pub failed: u64,
}

impl LoadResult {
    fn merge(mut self, other: LoadResult) -> LoadResult {
        self.latencies_ms.extend(other.latencies_ms);
        self.late_ms.extend(other.late_ms);
        self.requests += other.requests;
        self.failed += other.failed;
        self
    }
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Drive `conns` connections in a closed loop for `duration`, each
/// keeping `window` requests in flight. They cycle through the script
/// from request `first` on, each from its own offset.
pub fn closed_loop(
    addr: &str,
    script: &Script,
    conns: usize,
    window: usize,
    first: usize,
    duration: Duration,
) -> LoadResult {
    let until = Instant::now() + duration;
    let n = script.requests.len();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let first = first + c * n / conns;
                scope.spawn(move || closed_conn(addr, script, window, first, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .fold(LoadResult::default(), LoadResult::merge)
    })
}

type Conn = (TcpStream, BufReader<TcpStream>);

fn open_conn_pair(addr: &str) -> Option<Conn> {
    let s = connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    Some((s.try_clone().ok()?, BufReader::new(s)))
}

fn closed_conn(
    addr: &str,
    script: &Script,
    window: usize,
    first: usize,
    until: Instant,
) -> LoadResult {
    let mut out = LoadResult::default();
    let n = script.requests.len();
    let mut next = first;
    let mut inflight: VecDeque<(Instant, usize)> = VecDeque::new();
    let mut conn: Option<Conn> = None;
    let mut line = Vec::new();
    let mut reconnected = false;
    loop {
        if conn.is_none() {
            // The server closes a connection after its request budget;
            // like any well-behaved client, reconnect and resend what
            // it had not answered.
            conn = open_conn_pair(addr);
            let resent = conn.as_mut().is_some_and(|(w, _)| {
                inflight
                    .iter()
                    .all(|&(_, i)| w.write_all(script.requests[i].as_bytes()).is_ok())
            });
            if !resent {
                out.failed += inflight.len().max(1) as u64;
                out.requests += u64::from(inflight.is_empty());
                return out;
            }
        }
        let (writer, reader) = conn.as_mut().expect("connected above");
        let mut broken = false;
        while inflight.len() < window && Instant::now() < until {
            let i = next % n;
            next += 1;
            out.requests += 1;
            inflight.push_back((Instant::now(), i));
            if writer.write_all(script.requests[i].as_bytes()).is_err() {
                broken = true;
                break;
            }
        }
        if inflight.is_empty() {
            return out;
        }
        line.clear();
        if !broken && reader.read_until(b'\n', &mut line).is_ok_and(|got| got > 0) {
            let (sent, i) = inflight.pop_front().expect("a request is in flight");
            out.latencies_ms.push(ms(sent.elapsed()));
            if !script.accepts(i, line.strip_suffix(b"\n").unwrap_or(&line)) {
                out.failed += 1;
            }
            reconnected = false;
        } else if reconnected {
            // A fresh connection died too: the server is gone.
            out.failed += inflight.len() as u64;
            return out;
        } else {
            conn = None;
            reconnected = true;
        }
    }
}

/// Drive `conns` connections in an open loop: `rate` requests per
/// second in total, sent for `duration`, then up to `drain` more for the
/// last replies. Requests are taken as in [`closed_loop`].
pub fn open_loop(
    addr: &str,
    script: &Script,
    conns: usize,
    first: usize,
    rate: f64,
    duration: Duration,
    drain: Duration,
) -> LoadResult {
    let start = Instant::now();
    let until = start + duration;
    let interval = Duration::from_secs_f64(conns as f64 / rate);
    let n = script.requests.len();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let sched = Schedule {
                    first: start + interval.mul_f64(c as f64 / conns as f64),
                    interval,
                    until,
                    drain_until: until + drain,
                };
                scope.spawn(move || open_conn(addr, script, first + c * n / conns, sched))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .fold(LoadResult::default(), LoadResult::merge)
    })
}

#[derive(Clone, Copy)]
struct Schedule {
    first: Instant,
    interval: Duration,
    until: Instant,
    drain_until: Instant,
}

impl Schedule {
    fn due(&self, k: u64) -> Instant {
        self.first + Duration::from_nanos(self.interval.as_nanos() as u64 * k)
    }
}

/// One open-loop connection: this thread sends on schedule, a second
/// one blocks reading replies, so neither waits for the other.
fn open_conn(addr: &str, script: &Script, offset: usize, sched: Schedule) -> LoadResult {
    let mut out = LoadResult::default();
    let Ok(mut stream) = connect(addr) else {
        out.failed = 1;
        out.requests = 1;
        return out;
    };
    let reader = stream.try_clone().expect("clone a connected socket");
    let _ = reader.set_read_timeout(Some(sched.drain_until - Instant::now()));
    let n = script.requests.len();
    // Each request is queued before it is written, so its reply always
    // finds it.
    let (queued, inflight) = std::sync::mpsc::channel::<(Instant, usize)>();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || receive(reader, script, inflight));
        for k in 0.. {
            let due = sched.due(k);
            if due >= sched.until {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let i = (offset + k as usize) % n;
            out.requests += 1;
            out.late_ms.push(ms(Instant::now() - due));
            queued.send((due, i)).expect("receiver outlives the sender");
            if stream.write_all(script.requests[i].as_bytes()).is_err() {
                break;
            }
        }
        drop(queued);
        let received = receiver.join().expect("receiver panicked");
        out.latencies_ms = received.latencies_ms;
        out.failed = received.failed;
    });
    out
}

/// Read one reply per queued request until the sender is done; a
/// missing or wrong reply fails its request.
fn receive(
    stream: TcpStream,
    script: &Script,
    inflight: std::sync::mpsc::Receiver<(Instant, usize)>,
) -> LoadResult {
    let mut out = LoadResult::default();
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    while let Ok((due, i)) = inflight.recv() {
        line.clear();
        if !reader.read_until(b'\n', &mut line).is_ok_and(|got| got > 0) {
            out.failed += 1 + inflight.iter().count() as u64;
            break;
        }
        out.latencies_ms.push(ms(due.elapsed()));
        if !script.accepts(i, line.strip_suffix(b"\n").unwrap_or(&line)) {
            out.failed += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An echo server that stalls `stall` before its first reply.
    fn stalling_echo(stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut first = true;
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                if w.write_all(format!("{line}\n").as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    fn echo_script(n: usize) -> Script {
        Script {
            requests: (0..n).map(|i| format!("r{i}\n")).collect(),
            replies: (0..n).map(|i| vec![format!("r{i}")]).collect(),
            lookups_per_request: 1,
        }
    }

    #[test]
    fn open_loop_times_requests_from_their_due_time() {
        let stall = Duration::from_millis(200);
        let (addr, server) = stalling_echo(stall);
        // 1 request per ms for 100 ms: every one of them is due before
        // the stall ends, so each waits for it.
        let r = open_loop(
            &addr,
            &echo_script(1000),
            1,
            0,
            1000.0,
            Duration::from_millis(100),
            Duration::from_secs(5),
        );
        server.join().unwrap();
        assert_eq!(r.failed, 0);
        assert_eq!(r.latencies_ms.len() as u64, r.requests);
        assert!(r.requests >= 90, "sent {}", r.requests);
        // Request k was due at k ms and answered after the 200 ms stall,
        // so its latency is at least 200 - k ms. Timing from the actual
        // send after the stall would instead give near-zero latencies.
        for (k, &lat) in r.latencies_ms.iter().enumerate() {
            assert!(lat >= 200.0 - k as f64 - 5.0, "request {k}: {lat} ms");
        }
        // The generator itself kept to its schedule.
        assert!(crate::stats::median(&r.late_ms) < 5.0);
    }

    #[test]
    fn closed_loop_counts_wrong_replies_as_failed() {
        let (addr, server) = stalling_echo(Duration::ZERO);
        let mut script = echo_script(4);
        script.replies[2] = vec!["something else".into()];
        let r = closed_loop(&addr, &script, 1, 1, 0, Duration::from_millis(50));
        server.join().unwrap();
        assert!(r.requests >= 4);
        // Request k uses script entry k % 4; entry 2 always fails.
        assert_eq!(r.failed, (r.requests + 1) / 4);
    }
}
