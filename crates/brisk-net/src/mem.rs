//! In-memory transport with a configurable link model.
//!
//! Functionally identical to the TCP transport (reliable, in-order,
//! frame-oriented) but running over crossbeam channels inside one process.
//! A [`LinkModel`] can add one-way latency, uniform jitter and random
//! frame *delay spikes* — enough to exercise BRISK's batching, sorting and
//! sync logic under adverse conditions without a real network. (Frames are
//! never silently dropped: BRISK runs over a reliable stream; loss shows up
//! to the application as a disconnect.) Faults beyond delay — corruption,
//! duplication, a mid-stream kill — come from wrapping the transport in a
//! [`FaultingTransport`](crate::FaultingTransport).

use crate::traits::{Connection, Listener, Transport};
use crate::MAX_FRAME_BYTES;
use brisk_core::{BriskError, Result};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One-way link behaviour applied to every frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Fixed one-way latency.
    pub latency: Duration,
    /// Extra uniform random delay in `[0, jitter]`.
    pub jitter: Duration,
    /// Probability of a delay *spike* on a frame.
    pub spike_probability: f64,
    /// Size of a delay spike when one occurs.
    pub spike: Duration,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            spike_probability: 0.0,
            spike: Duration::ZERO,
        }
    }
}

impl LinkModel {
    /// A perfect, zero-latency link.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// A LAN-ish link: fixed latency plus small jitter.
    pub fn lan() -> Self {
        LinkModel {
            latency: Duration::from_micros(150),
            jitter: Duration::from_micros(50),
            ..LinkModel::default()
        }
    }

    fn delay(&self, rng: &mut StdRng) -> Duration {
        let mut d = self.latency;
        if !self.jitter.is_zero() {
            d += Duration::from_nanos(rng.gen_range(0..=self.jitter.as_nanos() as u64));
        }
        if self.spike_probability > 0.0 && rng.gen_bool(self.spike_probability.min(1.0)) {
            d += self.spike;
        }
        d
    }
}

/// A frame stamped with its delivery time.
struct Delayed {
    deliver_at: Instant,
    frame: Vec<u8>,
}

/// The in-memory transport. Addresses are arbitrary strings; each
/// `MemTransport` instance is its own private namespace.
pub struct MemTransport {
    model: LinkModel,
    registry: Arc<Mutex<HashMap<String, Sender<MemConnection>>>>,
    seed: Mutex<u64>,
}

impl MemTransport {
    /// New transport with an ideal link.
    pub fn new() -> Arc<Self> {
        Self::with_model(LinkModel::ideal())
    }

    /// New transport applying `model` to every connection.
    pub fn with_model(model: LinkModel) -> Arc<Self> {
        Arc::new(MemTransport {
            model,
            registry: Arc::new(Mutex::new(HashMap::new())),
            seed: Mutex::new(0x5eed_b415),
        })
    }

    fn next_rng(&self) -> StdRng {
        let mut seed = self.seed.lock();
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        StdRng::seed_from_u64(*seed)
    }

    fn make_pair(&self, a_name: String, b_name: String) -> (MemConnection, MemConnection) {
        let (a_tx, a_rx) = unbounded::<Delayed>();
        let (b_tx, b_rx) = unbounded::<Delayed>();
        let a = MemConnection {
            tx: a_tx,
            rx: b_rx,
            model: self.model,
            rng: self.next_rng(),
            peer: b_name,
            held: None,
        };
        let b = MemConnection {
            tx: b_tx,
            rx: a_rx,
            model: self.model,
            rng: self.next_rng(),
            peer: a_name,
            held: None,
        };
        (a, b)
    }
}

impl Transport for Arc<MemTransport> {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>> {
        let (tx, rx) = unbounded();
        let mut reg = self.registry.lock();
        if reg.contains_key(addr) {
            return Err(BriskError::Io(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!("mem address {addr:?} already bound"),
            )));
        }
        reg.insert(addr.to_string(), tx);
        Ok(Box::new(MemListener {
            addr: addr.to_string(),
            incoming: rx,
            registry: Arc::clone(&self.registry),
        }))
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn Connection>> {
        let acceptor = {
            let reg = self.registry.lock();
            reg.get(addr).cloned()
        }
        .ok_or_else(|| {
            BriskError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                format!("no mem listener at {addr:?}"),
            ))
        })?;
        let (client, server) = self.make_pair(format!("client->{addr}"), addr.to_string());
        acceptor
            .send(server)
            .map_err(|_| BriskError::Disconnected)?;
        Ok(Box::new(client))
    }
}

/// Listener half of [`MemTransport`]. Unbinds its address on drop.
pub struct MemListener {
    addr: String,
    incoming: Receiver<MemConnection>,
    registry: Arc<Mutex<HashMap<String, Sender<MemConnection>>>>,
}

impl Drop for MemListener {
    fn drop(&mut self) {
        self.registry.lock().remove(&self.addr);
    }
}

impl Listener for MemListener {
    fn accept(&mut self, timeout: Option<Duration>) -> Result<Option<Box<dyn Connection>>> {
        match timeout {
            None => match self.incoming.recv() {
                Ok(c) => Ok(Some(Box::new(c))),
                Err(_) => Err(BriskError::Disconnected),
            },
            Some(t) => match self.incoming.recv_timeout(t) {
                Ok(c) => Ok(Some(Box::new(c))),
                Err(RecvTimeoutError::Timeout) => Ok(None),
                Err(RecvTimeoutError::Disconnected) => Err(BriskError::Disconnected),
            },
        }
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

/// One endpoint of an in-memory connection.
pub struct MemConnection {
    tx: Sender<Delayed>,
    rx: Receiver<Delayed>,
    model: LinkModel,
    rng: StdRng,
    peer: String,
    /// A frame received from the channel whose delivery time has not yet
    /// arrived when a short recv timeout expired.
    held: Option<Delayed>,
}

impl Connection for MemConnection {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        if frame.len() > MAX_FRAME_BYTES {
            return Err(BriskError::Protocol(format!(
                "frame length {} exceeds {MAX_FRAME_BYTES}",
                frame.len()
            )));
        }
        let delay = self.model.delay(&mut self.rng);
        self.tx
            .send(Delayed {
                deliver_at: Instant::now() + delay,
                frame: frame.to_vec(),
            })
            .map_err(|_| BriskError::Disconnected)
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let rx = &self.rx;
        // Take the next in-flight frame (channel order == send order, so
        // in-order delivery holds even with variable delays — this models a
        // stream, not a datagram network).
        let delayed = match self.held.take() {
            Some(d) => d,
            None => match deadline {
                None => rx.recv().map_err(|_| BriskError::Disconnected)?,
                Some(dl) => {
                    let now = Instant::now();
                    let budget = dl.saturating_duration_since(now);
                    match rx.recv_timeout(budget) {
                        Ok(d) => d,
                        Err(RecvTimeoutError::Timeout) => return Ok(None),
                        Err(RecvTimeoutError::Disconnected) => {
                            return Err(BriskError::Disconnected)
                        }
                    }
                }
            },
        };
        // Honour the link delay.
        let now = Instant::now();
        if delayed.deliver_at > now {
            match deadline {
                None => std::thread::sleep(delayed.deliver_at - now),
                Some(dl) if delayed.deliver_at <= dl => {
                    std::thread::sleep(delayed.deliver_at - now)
                }
                Some(_) => {
                    // Not deliverable within the timeout; keep it for the
                    // next call.
                    self.held = Some(delayed);
                    return Ok(None);
                }
            }
        }
        Ok(Some(delayed.frame))
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn pair(model: LinkModel) -> (Box<dyn Connection>, Box<dyn Connection>) {
        let t = MemTransport::with_model(model);
        let mut l = t.listen("ism").unwrap();
        let c = t.connect("ism").unwrap();
        let s = l.accept(Some(Duration::from_secs(1))).unwrap().unwrap();
        (s, c)
    }

    #[test]
    fn round_trip() {
        let (mut s, mut c) = pair(LinkModel::ideal());
        c.send(b"batch").unwrap();
        assert_eq!(
            s.recv(Some(Duration::from_secs(1))).unwrap().unwrap(),
            b"batch"
        );
        s.send(b"ack").unwrap();
        assert_eq!(
            c.recv(Some(Duration::from_secs(1))).unwrap().unwrap(),
            b"ack"
        );
    }

    #[test]
    fn in_order_delivery() {
        let (mut s, mut c) = pair(LinkModel {
            latency: Duration::from_micros(100),
            jitter: Duration::from_micros(500),
            spike_probability: 0.2,
            spike: Duration::from_millis(1),
        });
        for i in 0..200u32 {
            c.send(&i.to_le_bytes()).unwrap();
        }
        for i in 0..200u32 {
            let f = s.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
            assert_eq!(u32::from_le_bytes(f[..].try_into().unwrap()), i);
        }
    }

    #[test]
    fn latency_is_applied() {
        let (mut s, mut c) = pair(LinkModel {
            latency: Duration::from_millis(20),
            ..LinkModel::ideal()
        });
        let t0 = Instant::now();
        c.send(b"x").unwrap();
        s.recv(None).unwrap().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(18));
    }

    #[test]
    fn timeout_shorter_than_latency_holds_frame() {
        let (mut s, mut c) = pair(LinkModel {
            latency: Duration::from_millis(50),
            ..LinkModel::ideal()
        });
        c.send(b"slow").unwrap();
        // Too-early recv must not deliver nor drop the frame.
        assert!(s.recv(Some(Duration::from_millis(5))).unwrap().is_none());
        let got = s.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
        assert_eq!(got, b"slow");
    }

    #[test]
    fn disconnect_detected() {
        let (mut s, c) = pair(LinkModel::ideal());
        drop(c);
        let err = s.recv(Some(Duration::from_secs(1))).unwrap_err();
        assert!(err.is_disconnect());
    }

    #[test]
    fn connect_to_missing_address_fails() {
        let t = MemTransport::new();
        assert!(t.connect("nowhere").is_err());
    }

    #[test]
    fn double_bind_rejected_and_freed_on_drop() {
        let t = MemTransport::new();
        let l = t.listen("a").unwrap();
        assert!(t.listen("a").is_err());
        drop(l);
        assert!(t.listen("a").is_ok());
    }

    #[test]
    fn multiple_clients_one_listener() {
        let t = MemTransport::new();
        let mut l = t.listen("ism").unwrap();
        let mut clients: Vec<Box<dyn Connection>> =
            (0..4).map(|_| t.connect("ism").unwrap()).collect();
        let mut servers = Vec::new();
        for _ in 0..4 {
            servers.push(l.accept(Some(Duration::from_secs(1))).unwrap().unwrap());
        }
        for (i, c) in clients.iter_mut().enumerate() {
            c.send(&(i as u32).to_le_bytes()).unwrap();
        }
        let mut seen = Vec::new();
        for s in &mut servers {
            let f = s.recv(Some(Duration::from_secs(1))).unwrap().unwrap();
            seen.push(u32::from_le_bytes(f[..].try_into().unwrap()));
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cross_thread_traffic() {
        let (mut s, mut c) = pair(LinkModel::lan());
        const N: u32 = 2_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                c.send(&i.to_le_bytes()).unwrap();
            }
            c
        });
        for i in 0..N {
            let f = s.recv(Some(Duration::from_secs(10))).unwrap().unwrap();
            assert_eq!(u32::from_le_bytes(f[..].try_into().unwrap()), i);
        }
        drop(producer.join().unwrap());
    }
}
