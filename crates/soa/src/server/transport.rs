//! Line-JSON framing and deterministic transport-level chaos.
//!
//! A frame is one JSON document terminated by `\n` — the simplest
//! protocol that is still self-delimiting over a byte stream. The
//! reader is incremental (frames may arrive split at arbitrary byte
//! boundaries, several per read, or one byte at a time) and bounded:
//! a frame that exceeds the configured limit before its terminator is
//! rejected with a typed [`FrameError::Oversized`] instead of growing
//! the buffer without bound, and a peer that closes mid-frame yields
//! [`FrameError::Truncated`] rather than a silent partial parse.
//!
//! [`TransportChaos`] extends the PR 3 store-level chaos to the wire:
//! a seeded, per-connection fault plan (connection drops, stalled
//! reads, truncated frames, slow-loris writes) applied by wrapping any
//! `Read + Write` stream in a [`ChaosStream`]. The same
//! `(seed, connection id)` pair always draws the same fault, so every
//! wire-level failure a test observes is replayable.

use std::io::{self, Read, Write};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default bound on a single frame, in bytes.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 * 1024;

/// A framing failure, typed so sessions can reply with the precise
/// reason before closing.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream mid-frame: bytes were buffered but
    /// the terminator never arrived.
    Truncated {
        /// How many bytes of the unterminated frame had arrived.
        buffered: usize,
    },
    /// The frame exceeded the limit before its terminator.
    Oversized {
        /// The configured frame limit, in bytes.
        limit: usize,
    },
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// An underlying transport error (read timeouts surface here as
    /// `WouldBlock`/`TimedOut`).
    Io(io::Error),
}

impl FrameError {
    /// Whether this is a read timeout (the peer may still be alive).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            )
        )
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { buffered } => {
                write!(f, "stream closed mid-frame ({buffered} bytes buffered)")
            }
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit")
            }
            FrameError::Closed => write!(f, "stream closed"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame: the payload followed by the `\n` terminator.
///
/// The payload must not itself contain the terminator (JSON encoders
/// never emit raw newlines inside a document).
pub fn encode_frame(payload: &str) -> Vec<u8> {
    debug_assert!(!payload.contains('\n'), "payload must be newline-free");
    let mut bytes = Vec::with_capacity(payload.len() + 1);
    bytes.extend_from_slice(payload.as_bytes());
    bytes.push(b'\n');
    bytes
}

/// An incremental line-frame reader over any byte stream.
///
/// Bytes are buffered across reads; [`FrameReader::read_frame`]
/// returns complete frames one at a time regardless of how the stream
/// chunks them.
#[derive(Debug)]
pub struct FrameReader<R> {
    stream: R,
    buffer: Vec<u8>,
    /// How much of `buffer` is known to hold no terminator, so each
    /// read searches only the bytes it added.
    scanned: usize,
    max_frame_bytes: usize,
    /// Set once an oversized frame is detected: the stream position is
    /// unrecoverable (we are mid-garbage), so all further reads fail.
    poisoned: bool,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream with the given frame limit.
    pub fn new(stream: R, max_frame_bytes: usize) -> FrameReader<R> {
        FrameReader {
            stream,
            buffer: Vec::new(),
            scanned: 0,
            max_frame_bytes: max_frame_bytes.max(1),
            poisoned: false,
        }
    }

    /// Reads the next complete frame (without its terminator).
    ///
    /// # Errors
    ///
    /// [`FrameError::Closed`] on a clean EOF between frames,
    /// [`FrameError::Truncated`] on EOF mid-frame,
    /// [`FrameError::Oversized`] once the buffered prefix exceeds the
    /// limit (the reader is then poisoned — the connection should be
    /// closed), and [`FrameError::Io`] for transport errors including
    /// read timeouts.
    pub fn read_frame(&mut self) -> Result<String, FrameError> {
        if self.poisoned {
            return Err(FrameError::Oversized {
                limit: self.max_frame_bytes,
            });
        }
        loop {
            let fresh = self.buffer[self.scanned..].iter().position(|&b| b == b'\n');
            if let Some(pos) = fresh.map(|i| self.scanned + i) {
                // The limit applies even when the terminator has
                // already arrived (e.g. a whole oversized frame in one
                // chunk) — a bound that only holds for slow senders is
                // no bound.
                if pos > self.max_frame_bytes {
                    self.poisoned = true;
                    return Err(FrameError::Oversized {
                        limit: self.max_frame_bytes,
                    });
                }
                let rest = self.buffer.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.buffer, rest);
                self.scanned = 0;
                line.pop(); // the terminator
                return String::from_utf8(line).map_err(|e| {
                    FrameError::Io(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                });
            }
            self.scanned = self.buffer.len();
            if self.buffer.len() > self.max_frame_bytes {
                self.poisoned = true;
                return Err(FrameError::Oversized {
                    limit: self.max_frame_bytes,
                });
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buffer.is_empty() {
                        Err(FrameError::Closed)
                    } else {
                        Err(FrameError::Truncated {
                            buffered: self.buffer.len(),
                        })
                    };
                }
                Ok(n) => self.buffer.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Whether bytes of an incomplete frame are currently buffered.
    pub fn mid_frame(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// The wrapped stream (e.g. to set socket timeouts).
    pub fn stream_mut(&mut self) -> &mut R {
        &mut self.stream
    }
}

/// Writes frames to any byte stream.
#[derive(Debug)]
pub struct FrameWriter<W> {
    stream: W,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a stream.
    pub fn new(stream: W) -> FrameWriter<W> {
        FrameWriter { stream }
    }

    /// Writes one frame and flushes.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write/flush error.
    pub fn write_frame(&mut self, payload: &str) -> io::Result<()> {
        self.write_encoded(&encode_frame(payload))
    }

    /// Writes one frame that already ends in its `\n` terminator (such
    /// as [`Reply::to_frame`](crate::server::protocol::Reply::to_frame))
    /// in one write, and flushes.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write/flush error.
    pub fn write_encoded(&mut self, frame: &[u8]) -> io::Result<()> {
        debug_assert_eq!(frame.last(), Some(&b'\n'), "a frame ends in its terminator");
        self.stream.write_all(frame)?;
        self.stream.flush()
    }
}

// ---- transport chaos -------------------------------------------------

/// The wire-level counterpart of [`crate::ChaosConfig`]: a seeded
/// schedule of transport faults, drawn per connection from all four
/// [`TransportFault`] kinds.
#[derive(Debug, Clone)]
pub struct TransportChaos {
    /// Base seed; combined with the connection id for per-connection
    /// streams (same construction as `provider_seed`).
    pub seed: u64,
    /// Probability that a connection is assigned a fault at all.
    pub fault_rate: f64,
    /// How long a stalled read sleeps and a slow-loris write pauses
    /// between bytes.
    pub stall: Duration,
}

impl Default for TransportChaos {
    fn default() -> TransportChaos {
        TransportChaos {
            seed: 0,
            fault_rate: 0.0,
            stall: Duration::from_millis(20),
        }
    }
}

/// The fault assigned to one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFault {
    /// No fault: the stream behaves normally.
    None,
    /// The connection dies after the given number of successful
    /// operations (reads + writes): subsequent ones fail with
    /// `ConnectionReset`.
    DropConnection {
        /// Operations that succeed before the drop.
        after_ops: usize,
    },
    /// Every read stalls for the configured duration first.
    StallRead,
    /// The first write delivers only half its bytes, then the stream
    /// silently discards everything — the peer sees a truncated frame
    /// followed by EOF.
    TruncateWrite,
    /// Writes trickle out one byte at a time with a pause between
    /// bytes (a slow-loris client).
    SlowLoris,
}

impl TransportChaos {
    /// Draws the fault for a connection. Deterministic in
    /// `(self.seed, conn_id)`.
    pub fn fault_for(&self, conn_id: u64) -> TransportFault {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ conn_id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if rng.random::<f64>() >= self.fault_rate {
            return TransportFault::None;
        }
        let after_ops = rng.random_range(0..4);
        match rng.random_range(0..4usize) {
            0 => TransportFault::DropConnection { after_ops },
            1 => TransportFault::StallRead,
            2 => TransportFault::TruncateWrite,
            _ => TransportFault::SlowLoris,
        }
    }
}

/// A stream wrapper that applies one [`TransportFault`].
///
/// The wrapper honours the inner stream's timeouts, so a stalled or
/// dropped connection still resolves within the session's bounded
/// reads — chaos makes sessions *fail*, never hang.
#[derive(Debug)]
pub struct ChaosStream<T> {
    inner: T,
    fault: TransportFault,
    stall: Duration,
    ops: usize,
    /// Set once `TruncateWrite` has fired: all further writes are
    /// swallowed.
    write_dead: bool,
}

impl<T> ChaosStream<T> {
    /// Wraps a stream with the fault drawn for `conn_id`.
    pub fn new(inner: T, chaos: &TransportChaos, conn_id: u64) -> ChaosStream<T> {
        ChaosStream {
            inner,
            fault: chaos.fault_for(conn_id),
            stall: chaos.stall,
            ops: 0,
            write_dead: false,
        }
    }

    /// The fault this stream is executing.
    pub fn fault(&self) -> TransportFault {
        self.fault
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &T {
        &self.inner
    }

    fn dropped(&mut self) -> bool {
        if let TransportFault::DropConnection { after_ops } = self.fault {
            if self.ops >= after_ops {
                return true;
            }
        }
        self.ops += 1;
        false
    }
}

impl<T: Read> Read for ChaosStream<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dropped() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: connection dropped",
            ));
        }
        if self.fault == TransportFault::StallRead {
            std::thread::sleep(self.stall);
        }
        self.inner.read(buf)
    }
}

impl<T: Write> Write for ChaosStream<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.write_dead {
            // Pretend success: the peer simply never sees the bytes.
            return Ok(buf.len());
        }
        if self.dropped() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: connection dropped",
            ));
        }
        match self.fault {
            TransportFault::TruncateWrite => {
                let half = (buf.len() / 2).max(1).min(buf.len());
                let n = self.inner.write(&buf[..half])?;
                let _ = self.inner.flush();
                self.write_dead = true;
                // Report the full length so the writer does not retry
                // the missing tail: the truncation is the fault.
                let _ = n;
                Ok(buf.len())
            }
            TransportFault::SlowLoris => {
                if buf.is_empty() {
                    return Ok(0);
                }
                std::thread::sleep(self.stall);
                self.inner.write(&buf[..1])
            }
            _ => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.write_dead {
            return Ok(());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that yields a byte stream in caller-chosen chunks.
    pub(crate) struct ChunkedReader {
        data: Vec<u8>,
        cuts: Vec<usize>,
        pos: usize,
        next_cut: usize,
    }

    impl ChunkedReader {
        pub(crate) fn new(data: Vec<u8>, cuts: Vec<usize>) -> ChunkedReader {
            ChunkedReader {
                data,
                cuts,
                pos: 0,
                next_cut: 0,
            }
        }
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let end = if self.next_cut < self.cuts.len() {
                let cut = self.cuts[self.next_cut].clamp(self.pos + 1, self.data.len());
                self.next_cut += 1;
                cut
            } else {
                self.data.len()
            };
            let n = (end - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frames_survive_arbitrary_chunking() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(r#"{"op":"ping"}"#));
        bytes.extend_from_slice(&encode_frame(r#"{"op":"negotiate"}"#));
        let reader = ChunkedReader::new(bytes, vec![1, 2, 5, 14, 15, 20]);
        let mut frames = FrameReader::new(reader, DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(frames.read_frame().unwrap(), r#"{"op":"ping"}"#);
        assert_eq!(frames.read_frame().unwrap(), r#"{"op":"negotiate"}"#);
        assert!(matches!(frames.read_frame(), Err(FrameError::Closed)));
    }

    /// A frame trickled one byte per read up to the limit is found by
    /// searching only each new byte: linear, where rescanning the
    /// whole buffer after every read was quadratic.
    #[test]
    fn a_frame_trickled_byte_by_byte_up_to_the_limit_reads_in_linear_time() {
        let payload = "x".repeat(DEFAULT_MAX_FRAME_BYTES);
        let bytes = encode_frame(&payload);
        let cuts: Vec<usize> = (1..bytes.len()).collect();
        let mut frames = FrameReader::new(ChunkedReader::new(bytes, cuts), DEFAULT_MAX_FRAME_BYTES);
        let start = std::time::Instant::now();
        assert_eq!(frames.read_frame().unwrap().len(), DEFAULT_MAX_FRAME_BYTES);
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(250),
            "a byte-by-byte 64 KiB frame took {elapsed:?}"
        );
        assert!(matches!(frames.read_frame(), Err(FrameError::Closed)));
    }

    #[test]
    fn eof_mid_frame_is_truncated() {
        let reader = ChunkedReader::new(b"{\"op\":\"pi".to_vec(), vec![]);
        let mut frames = FrameReader::new(reader, DEFAULT_MAX_FRAME_BYTES);
        assert!(matches!(
            frames.read_frame(),
            Err(FrameError::Truncated { buffered: 9 })
        ));
    }

    #[test]
    fn oversized_frame_poisons_the_reader() {
        let reader = ChunkedReader::new(vec![b'x'; 64], vec![]);
        let mut frames = FrameReader::new(reader, 16);
        assert!(matches!(
            frames.read_frame(),
            Err(FrameError::Oversized { limit: 16 })
        ));
        // Poisoned: even though bytes remain, the position is garbage.
        assert!(matches!(
            frames.read_frame(),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn chaos_fault_is_deterministic_per_connection() {
        let chaos = TransportChaos {
            fault_rate: 1.0,
            seed: 7,
            ..TransportChaos::default()
        };
        for conn in 0..32u64 {
            assert_eq!(chaos.fault_for(conn), chaos.fault_for(conn));
        }
        // Rate 0 never faults.
        let calm = TransportChaos::default();
        assert!((0..32u64).all(|c| calm.fault_for(c) == TransportFault::None));
    }

    #[test]
    fn faults_at_seed_7_are_pinned() {
        use TransportFault::{DropConnection, SlowLoris, StallRead, TruncateWrite};
        let drop = |after_ops| DropConnection { after_ops };
        let chaos = TransportChaos {
            seed: 7,
            fault_rate: 1.0,
            ..TransportChaos::default()
        };
        let drawn: Vec<TransportFault> = (0..32u64).map(|c| chaos.fault_for(c)).collect();
        assert_eq!(
            drawn,
            [
                SlowLoris,
                StallRead,
                drop(0),
                SlowLoris,
                SlowLoris,
                TruncateWrite,
                StallRead,
                SlowLoris,
                drop(1),
                TruncateWrite,
                StallRead,
                drop(3),
                drop(3),
                SlowLoris,
                drop(1),
                SlowLoris,
                TruncateWrite,
                SlowLoris,
                SlowLoris,
                StallRead,
                StallRead,
                SlowLoris,
                SlowLoris,
                drop(1),
                drop(3),
                TruncateWrite,
                TruncateWrite,
                TruncateWrite,
                drop(0),
                drop(1),
                TruncateWrite,
                StallRead,
            ]
        );
    }

    #[test]
    fn truncate_write_delivers_half_then_silence() {
        let chaos = TransportChaos {
            fault_rate: 1.0,
            ..TransportChaos::default()
        };
        let conn = (0..)
            .find(|&c| chaos.fault_for(c) == TransportFault::TruncateWrite)
            .expect("some connection draws TruncateWrite");
        let mut sink = Vec::new();
        {
            let mut stream = ChaosStream::new(&mut sink, &chaos, conn);
            assert_eq!(stream.fault(), TransportFault::TruncateWrite);
            stream.write_all(&encode_frame("0123456789")).unwrap();
            stream.write_all(&encode_frame("second")).unwrap();
        }
        // Half of the first frame (11 bytes incl. terminator -> 5),
        // nothing of the second.
        assert_eq!(sink.len(), 5);
        assert_eq!(&sink, b"01234");
    }
}
