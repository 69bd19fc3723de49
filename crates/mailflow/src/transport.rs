//! In-memory byte transport with deterministic fault injection.
//!
//! The simulation runs both SMTP endpoints in one thread, sans-io: each
//! endpoint writes bytes into its side of a [`Pipe`] and reads whatever the
//! other side has written. [`FaultyPipe`] wraps a pipe with the smoltcp
//! example harness's two classic faults — random chunk drops and single-byte
//! corruption — driven by a seeded RNG so every failure is replayable.
//!
//! Faults operate on *write chunks* (one chunk ≈ one protocol line), which
//! keeps the failure model interpretable: a dropped chunk is a lost line, a
//! corrupted chunk is a line with one flipped byte. The SMTP client's
//! retry logic and the server's 5xx handling are exercised by exactly these
//! two shapes.

use bytes::BytesMut;
use sb_stats::rng::Xoshiro256pp;

/// Which side of the pipe an endpoint holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// The client side (writes flow toward the server).
    Client,
    /// The server side (writes flow toward the client).
    Server,
}

/// A bidirectional in-memory byte pipe.
#[derive(Debug, Default)]
pub struct Pipe {
    to_server: BytesMut,
    to_client: BytesMut,
    /// Total bytes ever carried client→server (for throughput accounting).
    pub bytes_to_server: u64,
    /// Total bytes ever carried server→client.
    pub bytes_to_client: u64,
}

impl Pipe {
    /// A fresh, empty pipe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write bytes from `end` toward the peer.
    pub fn write(&mut self, end: End, bytes: &[u8]) {
        match end {
            End::Client => {
                self.to_server.extend_from_slice(bytes);
                self.bytes_to_server += bytes.len() as u64;
            }
            End::Server => {
                self.to_client.extend_from_slice(bytes);
                self.bytes_to_client += bytes.len() as u64;
            }
        }
    }

    /// Drain everything queued toward `end`: `reader` sees the queued
    /// bytes in place, then the queue is cleared and keeps its capacity
    /// for the next write.
    pub fn read<R>(&mut self, end: End, reader: impl FnOnce(&[u8]) -> R) -> R {
        let queue = match end {
            End::Client => &mut self.to_client,
            End::Server => &mut self.to_server,
        };
        let out = reader(queue);
        queue.clear();
        out
    }

    /// True when nothing is in flight in either direction.
    pub fn is_idle(&self) -> bool {
        self.to_server.is_empty() && self.to_client.is_empty()
    }
}

/// An invalid fault configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// A probability field is outside `[0, 1]`.
    ChanceOutOfRange {
        /// Which knob is bad.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::ChanceOutOfRange { field, value } => {
                write!(f, "{field} must be in [0,1], got {value}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Fault injection knobs (per write chunk).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultConfig {
    /// Probability a chunk is dropped entirely.
    pub drop_chance: f64,
    /// Probability one byte of a surviving chunk is XOR-flipped.
    pub corrupt_chance: f64,
}

impl FaultConfig {
    /// No faults at all.
    pub fn none() -> Self {
        Self {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
        }
    }

    /// The smoltcp examples' "good starting value": 15% of each.
    pub fn harsh() -> Self {
        Self {
            drop_chance: 0.15,
            corrupt_chance: 0.15,
        }
    }

    /// Validate probabilities.
    pub fn validate(&self) -> Result<(), FaultError> {
        for (field, value) in [
            ("drop_chance", self.drop_chance),
            ("corrupt_chance", self.corrupt_chance),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultError::ChanceOutOfRange { field, value });
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Counters of injected faults, for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultStats {
    /// Chunks dropped.
    pub dropped: u64,
    /// Chunks with one byte corrupted.
    pub corrupted: u64,
    /// Chunks passed through untouched.
    pub passed: u64,
}

impl FaultStats {
    /// Fold another counter set into this one. Addition is commutative and
    /// associative, so any merge order over a set of per-shard stats yields
    /// the same aggregate — asserted by `fault_stats_merge_is_order_independent`.
    pub fn absorb(&mut self, other: FaultStats) {
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.passed += other.passed;
    }
}

/// A [`Pipe`] with fault injection on every write.
#[derive(Debug)]
pub struct FaultyPipe {
    pipe: Pipe,
    cfg: FaultConfig,
    rng: Xoshiro256pp,
    stats: FaultStats,
}

impl FaultyPipe {
    /// Wrap a fresh pipe with the given fault config and RNG seed,
    /// rejecting out-of-range probabilities with a typed error.
    pub fn new(cfg: FaultConfig, seed: u64) -> Result<Self, FaultError> {
        cfg.validate()?;
        Ok(Self::seeded(cfg, seed))
    }

    /// Wrap a fresh pipe with an *already validated* config — the hot-path
    /// constructor for the org day loop, where the config was checked once
    /// at `OrgConfig` validation time.
    pub fn seeded(cfg: FaultConfig, seed: u64) -> Self {
        debug_assert!(cfg.validate().is_ok(), "unvalidated fault config: {cfg:?}");
        Self {
            pipe: Pipe::new(),
            cfg,
            rng: Xoshiro256pp::new(seed),
            stats: FaultStats::default(),
        }
    }

    /// A pipe that never misbehaves.
    pub fn reliable() -> Self {
        Self::seeded(FaultConfig::none(), 0)
    }

    /// Fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The underlying byte counters.
    pub fn pipe(&self) -> &Pipe {
        &self.pipe
    }

    fn uniform(&mut self) -> f64 {
        // 53-bit mantissa trick: uniform in [0, 1).
        (self.rng.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Write a chunk from `end`, subject to faults.
    pub fn write(&mut self, end: End, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        if self.cfg.drop_chance > 0.0 && self.uniform() < self.cfg.drop_chance {
            self.stats.dropped += 1;
            return;
        }
        if self.cfg.corrupt_chance > 0.0 && self.uniform() < self.cfg.corrupt_chance {
            let mut copy = bytes.to_vec();
            // Unbiased byte pick (Lemire rejection on the full u64 stream).
            let idx = self.rng.next_below(copy.len() as u64) as usize;
            // Flip a low bit so printable ASCII stays printable-ish but the
            // token/command is wrong; never corrupt CR/LF framing bytes, so
            // the fault stays a *payload* fault rather than a framing fault
            // (framing faults are LineCodec's own test territory).
            // sb-lint: allow(panic-path, "idx = next_below(copy.len()) < len, and empty writes return at the top")
            if copy[idx] != b'\r' && copy[idx] != b'\n' {
                // sb-lint: allow(panic-path, "idx = next_below(copy.len()) < len, and empty writes return at the top")
                copy[idx] ^= 0x02;
                self.stats.corrupted += 1;
                self.pipe.write(end, &copy);
                return;
            }
            // Fall through untouched if we landed on a framing byte.
        }
        self.stats.passed += 1;
        self.pipe.write(end, bytes);
    }

    /// Drain everything queued toward `end` through `reader` (reads are
    /// reliable; SMTP's error handling lives at the line/reply layer).
    pub fn read<R>(&mut self, end: End, reader: impl FnOnce(&[u8]) -> R) -> R {
        self.pipe.read(end, reader)
    }

    /// True when nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.pipe.is_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_carries_both_directions() {
        let mut p = Pipe::new();
        p.write(End::Client, b"hello server");
        p.write(End::Server, b"hello client");
        assert_eq!(p.read(End::Server, <[u8]>::to_vec), b"hello server");
        assert_eq!(p.read(End::Client, <[u8]>::to_vec), b"hello client");
        assert!(p.is_idle());
        assert_eq!(p.bytes_to_server, 12);
        assert_eq!(p.bytes_to_client, 12);
    }

    #[test]
    fn reads_drain() {
        let mut p = Pipe::new();
        p.write(End::Client, b"once");
        assert_eq!(p.read(End::Server, <[u8]>::to_vec), b"once");
        assert!(p.read(End::Server, <[u8]>::is_empty));
    }

    /// A drained direction keeps its capacity: the next write of the same
    /// size reuses the queue instead of growing a fresh one.
    #[test]
    fn reads_keep_capacity() {
        let mut p = Pipe::new();
        p.write(End::Client, &[b'x'; 4096]);
        let cap = p.to_server.capacity();
        assert_eq!(p.read(End::Server, <[u8]>::len), 4096);
        assert!(p.is_idle());
        assert_eq!(p.to_server.capacity(), cap);
        p.write(End::Client, &[b'y'; 4096]);
        assert_eq!(p.to_server.capacity(), cap);
        assert_eq!(p.bytes_to_server, 8192);
    }

    #[test]
    fn reliable_pipe_never_faults() {
        let mut p = FaultyPipe::reliable();
        for i in 0..100u32 {
            p.write(End::Client, format!("line {i}\r\n").as_bytes());
        }
        let got = p.read(End::Server, <[u8]>::to_vec);
        assert_eq!(got.iter().filter(|&&b| b == b'\n').count(), 100);
        assert_eq!(p.stats().dropped + p.stats().corrupted, 0);
        assert_eq!(p.stats().passed, 100);
    }

    #[test]
    fn drop_chance_one_drops_everything() {
        let mut p = FaultyPipe::new(
            FaultConfig {
                drop_chance: 1.0,
                corrupt_chance: 0.0,
            },
            7,
        )
        .unwrap();
        p.write(End::Client, b"doomed\r\n");
        p.write(End::Client, b"also doomed\r\n");
        assert!(p.read(End::Server, <[u8]>::is_empty));
        assert_eq!(p.stats().dropped, 2);
    }

    #[test]
    fn corruption_flips_exactly_one_payload_byte() {
        let mut p = FaultyPipe::new(
            FaultConfig {
                drop_chance: 0.0,
                corrupt_chance: 1.0,
            },
            11,
        )
        .unwrap();
        let original = b"MAIL FROM:<a@b>\r\n";
        // Run several chunks; every surviving chunk differs from the
        // original in at most one byte and framing bytes stay intact.
        for _ in 0..20 {
            p.write(End::Client, original);
            let got = p.read(End::Server, <[u8]>::to_vec);
            assert_eq!(got.len(), original.len());
            let diffs: Vec<usize> = (0..got.len()).filter(|&i| got[i] != original[i]).collect();
            assert!(diffs.len() <= 1, "more than one byte corrupted: {diffs:?}");
            assert!(got.ends_with(b"\r\n"), "framing corrupted");
        }
        let s = p.stats();
        assert_eq!(s.dropped, 0);
        assert!(s.corrupted >= 15, "corruption should fire nearly always: {s:?}");
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut p = FaultyPipe::seeded(FaultConfig::harsh(), seed);
            for i in 0..50u32 {
                p.write(End::Client, format!("chunk {i}\r\n").as_bytes());
            }
            (p.stats(), p.read(End::Server, <[u8]>::to_vec))
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1);
    }

    #[test]
    fn invalid_config_rejected_with_typed_error() {
        let bad = FaultConfig {
            drop_chance: 1.5,
            corrupt_chance: 0.0,
        };
        assert_eq!(
            bad.validate(),
            Err(FaultError::ChanceOutOfRange {
                field: "drop_chance",
                value: 1.5
            })
        );
        // The fallible constructor surfaces the same typed error instead of
        // panicking.
        match FaultyPipe::new(bad, 1) {
            Err(FaultError::ChanceOutOfRange { field, .. }) => assert_eq!(field, "drop_chance"),
            Ok(_) => panic!("invalid config must not build a pipe"),
        }
        assert!(FaultConfig::harsh().validate().is_ok());
        assert!(FaultyPipe::new(FaultConfig::harsh(), 1).is_ok());
    }

    #[test]
    fn fault_stats_merge_is_order_independent() {
        let shards = [
            FaultStats { dropped: 3, corrupted: 1, passed: 40 },
            FaultStats { dropped: 0, corrupted: 7, passed: 12 },
            FaultStats { dropped: 5, corrupted: 0, passed: 99 },
            FaultStats { dropped: 2, corrupted: 2, passed: 2 },
        ];
        let merge = |order: &[usize]| {
            let mut total = FaultStats::default();
            for &i in order {
                total.absorb(shards[i]);
            }
            total
        };
        let forward = merge(&[0, 1, 2, 3]);
        assert_eq!(forward, merge(&[3, 2, 1, 0]));
        assert_eq!(forward, merge(&[2, 0, 3, 1]));
        assert_eq!(
            forward,
            FaultStats { dropped: 10, corrupted: 10, passed: 153 }
        );
    }

    #[test]
    fn empty_writes_are_noops() {
        let mut p = FaultyPipe::seeded(FaultConfig::harsh(), 3);
        p.write(End::Client, b"");
        assert_eq!(p.stats(), FaultStats::default());
        assert!(p.is_idle());
    }
}
