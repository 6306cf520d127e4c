//! The UDP backend: one socket per link, frames as datagrams.
//!
//! Each [`UdpTransport`] owns a bound [`std::net::UdpSocket`] and the peer
//! address list; [`Transport::broadcast`] sends the encoded frame to every
//! peer as one datagram. UDP may drop, duplicate, or reorder datagrams —
//! [`crate::LinkNode`] is built for exactly that (periodic re-broadcast,
//! deduplication, ahead-of-schedule buffering), so on a lossless local
//! socket the decision trace still matches the sim and loopback backends
//! byte for byte (the replay contract), and under real loss the protocol
//! degrades in sync time, never in decisions.

use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::Duration;

use crate::error::NetError;
use crate::frame::Frame;
use crate::transport::Transport;

/// Largest datagram the receive path accepts. Generous headroom over the
/// 42-byte maximum frame so a future wire version cannot be silently
/// truncated into codec errors.
const RECV_BUF: usize = 256;

/// A UDP endpoint for one link.
///
/// # Example
///
/// Two endpoints on OS-assigned localhost ports:
///
/// ```
/// use std::time::Duration;
/// use rtmac_net::{Beacon, Frame, Transport, UdpTransport};
///
/// let mut eps = UdpTransport::local_cluster(2).unwrap();
/// let frame = Frame::Beacon(Beacon {
///     link: 0, links: 2, seed: 7, intervals: 3, config_digest: 1,
/// });
/// eps[0].broadcast(&frame).unwrap();
/// let got = eps[1].recv(Duration::from_secs(5)).unwrap();
/// assert_eq!(got, Some(frame));
/// ```
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    link: usize,
    n_links: usize,
    buf: Box<[u8; RECV_BUF]>,
    /// The socket's read timeout as last set, so a `recv` with the same
    /// timeout skips the `setsockopt`.
    read_timeout: Option<Duration>,
}

impl UdpTransport {
    /// Binds the endpoint for `link` at `bind` and points it at `peers`
    /// (the other links' addresses, in any order).
    ///
    /// `n_links` is the deployment size: it must equal `peers.len() + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when the bind fails or an address does not
    /// resolve, and [`NetError::Config`] for an inconsistent peer count.
    ///
    /// # Example
    ///
    /// ```
    /// use rtmac_net::UdpTransport;
    ///
    /// let ep = UdpTransport::bind("127.0.0.1:0", &["127.0.0.1:9".to_string()], 0, 2);
    /// assert!(ep.is_ok());
    /// let bad = UdpTransport::bind("127.0.0.1:0", &[], 0, 2);
    /// assert!(bad.is_err());
    /// ```
    pub fn bind(
        bind: &str,
        peers: &[String],
        link: usize,
        n_links: usize,
    ) -> Result<Self, NetError> {
        if peers.len() + 1 != n_links {
            return Err(NetError::Config(format!(
                "{n_links} link(s) need {} peer address(es), got {}",
                n_links - 1,
                peers.len()
            )));
        }
        let socket = UdpSocket::bind(bind)
            .map_err(|e| NetError::Io(format!("cannot bind udp socket at {bind}: {e}")))?;
        let mut addrs = Vec::with_capacity(peers.len());
        for peer in peers {
            let addr = peer
                .to_socket_addrs()
                .map_err(|e| NetError::Io(format!("cannot resolve peer {peer}: {e}")))?
                .next()
                .ok_or_else(|| NetError::Io(format!("peer {peer} resolves to no address")))?;
            addrs.push(addr);
        }
        Ok(UdpTransport {
            socket,
            peers: addrs,
            link,
            n_links,
            buf: Box::new([0; RECV_BUF]),
            read_timeout: None,
        })
    }

    /// Builds an in-process cluster of `n` endpoints on OS-assigned
    /// localhost ports, fully meshed, in link order — the UDP twin of
    /// [`crate::LoopbackHub::endpoints`], used by the emulation harness's
    /// thread mode.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when a socket cannot be bound.
    pub fn local_cluster(n: usize) -> Result<Vec<UdpTransport>, NetError> {
        let mut sockets = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let socket = UdpSocket::bind(("127.0.0.1", 0))
                .map_err(|e| NetError::Io(format!("cannot bind local udp socket: {e}")))?;
            addrs.push(
                socket
                    .local_addr()
                    .map_err(|e| NetError::Io(format!("no local address: {e}")))?,
            );
            sockets.push(socket);
        }
        Ok(sockets
            .into_iter()
            .enumerate()
            .map(|(link, socket)| UdpTransport {
                socket,
                peers: addrs
                    .iter()
                    .enumerate()
                    .filter(|&(peer, _)| peer != link)
                    .map(|(_, &a)| a)
                    .collect(),
                link,
                n_links: n,
                buf: Box::new([0; RECV_BUF]),
                read_timeout: None,
            })
            .collect())
    }

    /// The address this endpoint is bound to.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the OS cannot report the local address.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        self.socket
            .local_addr()
            .map_err(|e| NetError::Io(format!("no local address: {e}")))
    }
}

impl Transport for UdpTransport {
    fn broadcast(&mut self, frame: &Frame) -> Result<(), NetError> {
        let bytes = frame.encode();
        for &peer in &self.peers {
            // A full socket buffer shows up as WouldBlock; dropping the
            // datagram is within UDP semantics and the node's re-broadcast
            // loop repairs it, so only hard failures surface.
            match self.socket.send_to(&bytes, peer) {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(NetError::Io(format!("send to {peer} failed: {e}"))),
            }
        }
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, NetError> {
        // A zero read timeout means "block forever" to the OS; clamp up.
        let timeout = Some(timeout.max(Duration::from_millis(1)));
        if self.read_timeout != timeout {
            self.socket
                .set_read_timeout(timeout)
                .map_err(|e| NetError::Io(format!("cannot set read timeout: {e}")))?;
            self.read_timeout = timeout;
        }
        match self.socket.recv_from(&mut self.buf[..]) {
            Ok((len, _)) => Ok(Some(Frame::decode_datagram(&self.buf[..len])?)),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(NetError::Io(format!("recv failed: {e}"))),
        }
    }

    fn local_link(&self) -> usize {
        self.link
    }

    fn n_links(&self) -> usize {
        self.n_links
    }

    fn name(&self) -> &'static str {
        "udp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Activity;

    #[test]
    fn cluster_is_fully_meshed() {
        let mut eps = UdpTransport::local_cluster(3).unwrap();
        let frame = Frame::Claim(Activity {
            interval: 1,
            link: 2,
            rank: 0,
            backlog: 1,
            deliveries: 1,
            attempts: 1,
            state_digest: 77,
        });
        eps[2].broadcast(&frame).unwrap();
        for ep in &mut eps[..2] {
            assert_eq!(ep.recv(Duration::from_secs(5)).unwrap(), Some(frame));
        }
    }

    #[test]
    fn recv_timeout_returns_none() {
        let mut eps = UdpTransport::local_cluster(2).unwrap();
        assert_eq!(eps[0].recv(Duration::from_millis(5)).unwrap(), None);
    }

    #[test]
    fn recv_honours_a_timeout_that_changes_between_calls() {
        let mut eps = UdpTransport::local_cluster(2).unwrap();
        let mut listener = eps.remove(0);
        let mut sender = eps.remove(0);
        let frame = Frame::Beacon(crate::frame::Beacon {
            link: 1,
            links: 2,
            seed: 3,
            intervals: 4,
            config_digest: 5,
        });
        assert_eq!(listener.recv(Duration::from_millis(1)).unwrap(), None);
        // Longer than the last timeout: a frame sent later still arrives.
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            sender.broadcast(&frame).unwrap();
        });
        assert_eq!(listener.recv(Duration::from_secs(10)).unwrap(), Some(frame));
        late.join().unwrap();
        // Shorter again, and zero (clamped to 1 ms): nothing waits 10 s.
        for timeout in [Duration::from_millis(5), Duration::ZERO] {
            let started = std::time::Instant::now();
            assert_eq!(listener.recv(timeout).unwrap(), None);
            assert!(started.elapsed() < Duration::from_secs(5), "{timeout:?}");
        }
    }

    #[test]
    fn peer_count_is_validated() {
        assert!(matches!(
            UdpTransport::bind("127.0.0.1:0", &[], 0, 3),
            Err(NetError::Config(_))
        ));
    }
}
