//! Versioned, byte-stable checkpoint codec for policy state (DESIGN.md §7).
//!
//! The engine snapshots its own state by value; policies serialize their
//! *canonical* state through [`Enc`] (`Policy::checkpoint_state`) and read
//! it back through [`Dec`] (`Policy::restore_state`): fixed-width
//! little-endian integers, `f64` via IEEE-754 bit patterns, lengths as
//! `u64`. No derived structure (Fenwick trees and other indexes) is ever
//! written — those are rebuilt from the canonical state at restore time,
//! so the stream is a pure function of the policy state and two
//! identically-positioned runs produce bit-identical bytes.
//!
//! The stream opens with a magic tag and a format version so a stale or
//! foreign byte blob fails loudly ([`CheckpointError::BadHeader`] /
//! [`CheckpointError::BadVersion`]) instead of deserializing garbage.

use std::fmt;

/// Magic tag opening every checkpoint stream.
pub const MAGIC: &[u8; 8] = b"UNITCKPT";

/// Current checkpoint format version. Bump on any layout change; restore
/// rejects mismatches rather than guessing.
pub const VERSION: u32 = 7;

/// Why a restore was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The stream does not start with [`MAGIC`].
    BadHeader,
    /// The stream's format version differs from [`VERSION`].
    BadVersion {
        /// Version found in the stream.
        found: u32,
    },
    /// The stream ended before the expected field.
    Truncated {
        /// Read offset at which the stream ran out.
        at: usize,
    },
    /// A tag or flag byte held a value outside its domain.
    BadTag {
        /// The offending value.
        value: u64,
        /// What was being decoded.
        what: &'static str,
    },
    /// The snapshot disagrees with the live run's static configuration
    /// (database size, query-store shape, ...).
    Mismatch {
        /// Which static property disagreed.
        what: &'static str,
    },
    /// Trailing bytes after the last expected field.
    TrailingBytes {
        /// Number of unread bytes.
        remaining: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadHeader => write!(f, "checkpoint header magic mismatch"),
            CheckpointError::BadVersion { found } => {
                write!(f, "checkpoint version {found} != supported {VERSION}")
            }
            CheckpointError::Truncated { at } => {
                write!(f, "checkpoint truncated at byte {at}")
            }
            CheckpointError::BadTag { value, what } => {
                write!(f, "invalid {what} tag {value} in checkpoint")
            }
            CheckpointError::Mismatch { what } => {
                write!(f, "checkpoint does not match this run's {what}")
            }
            CheckpointError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after checkpoint payload")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Byte-stable encoder: appends fixed-width little-endian fields to a
/// growable buffer. Two encoders fed the same call sequence produce the
/// same bytes — there is no padding, no pointer content, no map iteration
/// left to chance (callers iterate ordered containers only).
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An encoder holding the versioned header.
    pub fn new() -> Self {
        let mut e = Enc { buf: Vec::new() };
        e.buf.extend_from_slice(MAGIC);
        e.put_u32(VERSION);
        e
    }

    /// Consume the encoder, yielding the checkpoint bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing (not even the header) was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-stable, NaN-safe).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an `Option<u64>` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Append an `Option<f64>` as a presence byte plus the bit pattern.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Append a slice of `u64`s with a leading length.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Append a slice of `f64`s with a leading length.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }
}

/// Decoder over a checkpoint byte stream; every read is bounds-checked and
/// returns [`CheckpointError::Truncated`] past the end.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned after the validated header.
    pub fn new(data: &'a [u8]) -> Result<Self, CheckpointError> {
        let mut d = Dec { data, pos: 0 };
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = d.take_u8()?;
        }
        if &magic != MAGIC {
            return Err(CheckpointError::BadHeader);
        }
        let version = d.take_u32()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion { found: version });
        }
        Ok(d)
    }

    /// Unread bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Assert the stream was fully consumed.
    pub fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(CheckpointError::TrailingBytes {
                remaining: self.data.len() - self.pos,
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CheckpointError::Truncated { at: self.pos })?;
        let s = self
            .data
            .get(self.pos..end)
            .ok_or(CheckpointError::Truncated { at: self.pos })?;
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, CheckpointError> {
        let at = self.pos;
        let s = self.take(1)?;
        s.first().copied().ok_or(CheckpointError::Truncated { at })
    }

    /// Read a bool (rejects anything but 0/1).
    pub fn take_bool(&mut self) -> Result<bool, CheckpointError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CheckpointError::BadTag {
                value: v as u64,
                what: "bool",
            }),
        }
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CheckpointError> {
        let at = self.pos;
        let arr: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| CheckpointError::Truncated { at })?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CheckpointError> {
        let at = self.pos;
        let arr: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| CheckpointError::Truncated { at })?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Read a length/`usize` (stored as `u64`).
    pub fn take_usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| CheckpointError::BadTag {
            value: v,
            what: "usize",
        })
    }

    /// Read an `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read an `Option<u64>` (presence byte plus value).
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        if self.take_bool()? {
            Ok(Some(self.take_u64()?))
        } else {
            Ok(None)
        }
    }

    /// Read an `Option<f64>` (presence byte plus bit pattern).
    pub fn take_opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        if self.take_bool()? {
            Ok(Some(self.take_f64()?))
        } else {
            Ok(None)
        }
    }

    /// Read a length-prefixed `u64` vector.
    pub fn take_u64_vec(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let n = self.take_usize()?;
        let mut v = Vec::with_capacity(n.min(self.remaining() / 8 + 1));
        for _ in 0..n {
            v.push(self.take_u64()?);
        }
        Ok(v)
    }

    /// Read a length-prefixed `f64` vector.
    pub fn take_f64_vec(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.take_usize()?;
        let mut v = Vec::with_capacity(n.min(self.remaining() / 8 + 1));
        for _ in 0..n {
            v.push(self.take_f64()?);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_bool(true);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_f64(-0.0);
        e.put_opt_u64(Some(3));
        e.put_opt_u64(None);
        e.put_opt_f64(Some(f64::NAN));
        e.put_u64_slice(&[1, 2, 3]);
        e.put_f64_slice(&[0.5]);
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes).unwrap();
        assert_eq!(d.take_u8().unwrap(), 7);
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.take_u64().unwrap(), u64::MAX);
        assert_eq!(d.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.take_opt_u64().unwrap(), Some(3));
        assert_eq!(d.take_opt_u64().unwrap(), None);
        assert!(d.take_opt_f64().unwrap().unwrap().is_nan());
        assert_eq!(d.take_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.take_f64_vec().unwrap(), vec![0.5]);
        d.finish().unwrap();
    }

    #[test]
    fn identical_call_sequences_are_byte_identical() {
        let enc = || {
            let mut e = Enc::new();
            e.put_u64(42);
            e.put_f64(1.5);
            e.into_bytes()
        };
        assert_eq!(enc(), enc());
    }

    #[test]
    fn header_is_validated() {
        assert_eq!(Dec::new(b"NOTMAGIC....").unwrap_err(), {
            CheckpointError::BadHeader
        });
        let mut e = Enc::new();
        e.put_u64(1);
        let mut bytes = e.into_bytes();
        // Corrupt the version field.
        bytes[8] = 0xFF;
        match Dec::new(&bytes) {
            Err(CheckpointError::BadVersion { .. }) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Enc::new();
        e.put_u64(1);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..bytes.len() - 1]).unwrap();
        match d.take_u64() {
            Err(CheckpointError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut e = Enc::new();
        e.put_u8(1);
        let bytes = e.into_bytes();
        let d = Dec::new(&bytes).unwrap();
        match d.finish() {
            Err(CheckpointError::TrailingBytes { remaining: 1 }) => {}
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
        let mut e = Enc::new();
        e.put_u8(1);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes).unwrap();
        let _ = d.take_u8().unwrap();
        d.finish().unwrap();
    }

    #[test]
    fn bad_bool_tag_is_rejected() {
        let mut e = Enc::new();
        e.put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes).unwrap();
        match d.take_bool() {
            Err(CheckpointError::BadTag { value: 2, .. }) => {}
            other => panic!("expected BadTag, got {other:?}"),
        }
    }

    #[test]
    fn errors_display() {
        let e = CheckpointError::Mismatch { what: "n_items" };
        assert!(e.to_string().contains("n_items"));
        let e = CheckpointError::BadVersion { found: 9 };
        assert!(e.to_string().contains('9'));
    }
}
