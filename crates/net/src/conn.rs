//! Connection helpers shared by servers and clients: bounded dials and
//! handshake reads, the protocol clock, and reactor [`Link`]s.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use stdchk_proto::frame::read_frame;
use stdchk_proto::msg::Msg;
use stdchk_util::Time;

use crate::reactor::{ConnToken, ReactorHandle, WeakHandle};

/// Default connect/write timeout for outbound connections. A dead manager
/// or benefactor fails a dial fast instead of hanging the calling thread in
/// the kernel's (minutes-long) TCP connect timeout.
pub const DIAL_TIMEOUT: Duration = Duration::from_secs(5);

/// Connects to `addr` with a connect timeout, and arms the stream with a
/// write timeout so senders can never block forever on a stalled peer.
///
/// # Errors
///
/// Address resolution failures, connect timeouts, and socket errors.
pub fn dial(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last_err = io::Error::other(format!("{addr}: no addresses resolved"));
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, timeout) {
            Ok(stream) => {
                stream.set_write_timeout(Some(timeout))?;
                return Ok(stream);
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Reads one frame with a temporary read timeout (handshakes), restoring
/// the stream to blocking afterwards.
///
/// # Errors
///
/// Timeouts surface as [`io::ErrorKind::WouldBlock`]/`TimedOut`; transport
/// errors pass through.
pub fn read_frame_timeout(stream: &mut TcpStream, timeout: Duration) -> io::Result<Option<Msg>> {
    stream.set_read_timeout(Some(timeout))?;
    let r = read_frame(&mut *stream);
    stream.set_read_timeout(None)?;
    r
}

/// Process-wide clock mapping wall time onto the protocol's [`Time`].
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    epoch: Instant,
    /// Protocol time at `epoch` (non-zero when resuming a durable
    /// timeline).
    base: Time,
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl Clock {
    /// A clock whose zero is "now".
    pub fn new() -> Clock {
        Clock::starting_at(Time::ZERO)
    }

    /// A clock that reads `base` now and advances from there. Protocol
    /// time is process-relative, so a restarted durable manager resumes
    /// the clock *after* every timestamp it replayed — otherwise
    /// replayed version mtimes from the previous incarnation would sit
    /// in this one's future (inverting mtime order for new commits and
    /// stalling age-based retention until the new process caught up).
    pub fn starting_at(base: Time) -> Clock {
        Clock {
            epoch: Instant::now(),
            base,
        }
    }

    /// Current protocol time.
    pub fn now(&self) -> Time {
        self.base + stdchk_util::Dur(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// One reactor connection as a registry entry: the owning reactor plus
/// the connection token. Servers and the client keep their routing
/// tables as `Link`s so effects code can send without knowing which
/// worker owns the socket.
///
/// Holds a [`WeakHandle`]: registries live inside application state the
/// reactor owns, so a strong handle here would cycle. Sends on a
/// torn-down reactor simply fail.
#[derive(Clone, Debug)]
pub struct Link {
    /// The owning reactor.
    pub handle: WeakHandle,
    /// The connection.
    pub token: ConnToken,
}

impl Link {
    /// Sends one frame: *queued or written* (bounded — a slow peer's
    /// link errors out and is closed).
    ///
    /// # Errors
    ///
    /// Propagates socket/queueing failures.
    pub fn send(&self, msg: &Msg) -> io::Result<()> {
        self.reactor()?.send(self.token, msg)
    }

    /// Sends one frame, requesting an `on_sent` completion with `track`
    /// once the last byte is written.
    ///
    /// # Errors
    ///
    /// As [`Link::send`].
    pub fn send_tracked(&self, msg: &Msg, track: u64) -> io::Result<()> {
        self.reactor()?.send_tracked(self.token, msg, track)
    }

    /// Closes the connection.
    pub fn shutdown(&self) {
        if let Some(h) = self.handle.upgrade() {
            h.close(self.token);
        }
    }

    fn reactor(&self) -> io::Result<ReactorHandle> {
        self.handle
            .upgrade()
            .ok_or_else(|| io::Error::other("reactor is gone"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let c = Clock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
