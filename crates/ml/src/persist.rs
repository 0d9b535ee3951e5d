//! Byte-level persistence primitives shared by every crate that writes
//! pieces of the trained artifact (`CFAM` files).
//!
//! The encoding is deliberately boring so it can be byte-deterministic:
//! every integer is little-endian fixed width, every `f64` travels as its
//! IEEE-754 bit pattern (`to_bits`/`from_bits`, so a round trip reproduces
//! bit-identical scores), every string is a `u32` length prefix plus UTF-8
//! bytes, and every collection is a `u32` element count followed by its
//! elements. There is no padding, no alignment, and no
//! platform-dependent type anywhere in the format.
//!
//! Reading is strict: the [`Reader`] validates every length prefix against
//! the bytes actually present *before* allocating, so a corrupt or hostile
//! artifact produces a typed [`PersistError`] — never a panic and never an
//! unbounded `Vec::with_capacity`.

use std::fmt;

/// Cap on a single declared collection length. Real artifacts hold a few
/// hundred sub-models of a few thousand nodes each; anything above this is
/// a corrupt or hostile length prefix.
pub const MAX_ELEMENTS: u64 = 1 << 28;

/// Error loading or saving a persisted artifact.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O error while reading or writing.
    Io(std::io::Error),
    /// The stream does not start with the expected magic bytes.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The artifact was written by a future (or unknown) format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Newest version this build can read.
        supported: u16,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        found: u64,
    },
    /// The stream ended before a declared structure was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A declared length exceeds what the remaining bytes could encode.
    TooLarge {
        /// The declared element count or byte length.
        declared: u64,
        /// The largest value the decoder would accept here.
        cap: u64,
    },
    /// A structurally invalid value (bad enum tag, index out of range, …).
    Malformed(&'static str),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?}, expected a CFAM artifact")
            }
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is newer than supported version {supported}"
            ),
            PersistError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum {found:#018x} does not match header {expected:#018x}"
            ),
            PersistError::Truncated { needed, available } => write!(
                f,
                "artifact truncated: needed {needed} bytes, only {available} available"
            ),
            PersistError::TooLarge { declared, cap } => write!(
                f,
                "declared length {declared} exceeds the acceptable cap {cap}"
            ),
            PersistError::Malformed(what) => write!(f, "malformed artifact: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

/// FNV-1a 64-bit hash — the artifact integrity checksum. Deterministic,
/// dependency-free, and plenty for corruption detection (security against
/// a deliberate forger is out of scope; the artifact is trusted input).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An append-only byte sink for payload assembly. All writes are
/// infallible (the payload lives in memory until the container frames it).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The assembled payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a collection length as `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit in `u32` (no in-memory model comes
    /// within orders of magnitude of that).
    pub fn seq_len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("collection length fits u32"));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.seq_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A strict, bounds-checked cursor over a payload slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the payload has been consumed exactly.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let Some(end) = self.pos.checked_add(n) else {
            return Err(PersistError::TooLarge {
                declared: n as u64,
                cap: self.remaining() as u64,
            });
        };
        let Some(slice) = self.buf.get(self.pos..end) else {
            return Err(PersistError::Truncated {
                needed: n as u64,
                available: self.remaining() as u64,
            });
        };
        self.pos = end;
        Ok(slice)
    }

    /// Takes the next `N` raw bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, PersistError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a collection length and validates it against the bytes that
    /// are actually present: a length claiming more than
    /// `remaining / min_elem_bytes` elements (or more than
    /// [`MAX_ELEMENTS`]) is rejected *before* any allocation, so a
    /// corrupt prefix can never drive an OOM-sized `Vec::with_capacity`.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, PersistError> {
        let declared = u64::from(self.u32()?);
        let cap = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if declared > cap.min(MAX_ELEMENTS) {
            return Err(PersistError::TooLarge {
                declared,
                cap: cap.min(MAX_ELEMENTS),
            });
        }
        Ok(declared as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, PersistError> {
        let n = self.seq_len(1)?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Malformed("string is not valid UTF-8"))
    }

    /// Reads a `u32` sequence as `Vec<u32>`.
    pub fn vec_u32(&mut self) -> Result<Vec<u32>, PersistError> {
        let n = self.seq_len(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Reads an `f64` sequence as `Vec<f64>` (exact bit patterns).
    pub fn vec_f64(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.seq_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }
}

/// Writes a `u32` sequence with its length prefix.
pub fn write_vec_u32(w: &mut Writer, v: &[u32]) {
    w.seq_len(v.len());
    for &x in v {
        w.u32(x);
    }
}

/// Writes an `f64` sequence with its length prefix (exact bit patterns).
pub fn write_vec_f64(w: &mut Writer, v: &[f64]) {
    w.seq_len(v.len());
    for &x in v {
        w.f64(x);
    }
}

/// Writes a `usize` sequence as `u32`s with a length prefix.
pub fn write_vec_usize(w: &mut Writer, v: &[usize]) {
    w.seq_len(v.len());
    for &x in v {
        w.u32(u32::try_from(x).expect("cardinality fits u32"));
    }
}

/// Reads a `u32` sequence back as `Vec<usize>`.
pub fn read_vec_usize(r: &mut Reader) -> Result<Vec<usize>, PersistError> {
    Ok(r.vec_u32()?.into_iter().map(|x| x as usize).collect())
}

/// A value with a byte-deterministic binary encoding: identical values
/// always serialize to identical bytes, and `read_from(write_into(x)) == x`
/// reproduces every parameter bit-for-bit.
pub trait Persist: Sized {
    /// Appends this value's encoding to `w`.
    fn write_into(&self, w: &mut Writer);

    /// Decodes one value from `r`, validating every length and tag.
    ///
    /// # Errors
    ///
    /// Returns a [`PersistError`] on truncation, oversized length
    /// prefixes, or structurally invalid data; never panics.
    fn read_from(r: &mut Reader) -> Result<Self, PersistError>;

    /// Convenience: this value's standalone encoding.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_into(&mut w);
        w.into_bytes()
    }

    /// Convenience: decodes a standalone encoding, requiring the buffer
    /// to be consumed exactly.
    ///
    /// # Errors
    ///
    /// As [`Persist::read_from`], plus [`PersistError::Malformed`] if
    /// trailing bytes remain.
    fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::new(bytes);
        let v = Self::read_from(&mut r)?;
        if !r.is_empty() {
            return Err(PersistError::Malformed("trailing bytes after value"));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// AnyModel / AnyLearner — serializable closed-world classifier ensemble
// ---------------------------------------------------------------------------

use crate::c45::{C45Model, C45};
use crate::naive_bayes::{NaiveBayes, NaiveBayesModel};
use crate::ripper::{Ripper, RipperModel};
use crate::{Classifier, Learner, NominalTable};

const TAG_C45: u8 = 0;
const TAG_RIPPER: u8 = 1;
const TAG_BAYES: u8 = 2;

/// A trained classifier of any of the three families the paper evaluates,
/// as a closed enum rather than a `Box<dyn Classifier>` so the full
/// ensemble can be persisted and re-loaded with a one-byte tag per
/// sub-model. Every [`Classifier`] method delegates to the inner model, so
/// scoring through `AnyModel` is bit-identical to scoring the concrete
/// type (including RIPPER's first-match `predict_row` override).
#[derive(Debug, Clone, PartialEq)]
pub enum AnyModel {
    /// A fitted C4.5 decision tree.
    C45(C45Model),
    /// A fitted RIPPER ordered rule list.
    Ripper(RipperModel),
    /// A fitted categorical naive Bayes model.
    Bayes(NaiveBayesModel),
}

impl AnyModel {
    /// Number of attributes the model conditions on: the width of the
    /// rows it was trained on, class column removed.
    pub fn n_attrs(&self) -> usize {
        match self {
            AnyModel::C45(m) => m.n_attrs(),
            AnyModel::Ripper(m) => m.n_attrs(),
            AnyModel::Bayes(m) => m.n_attrs(),
        }
    }
}

impl Classifier for AnyModel {
    fn n_classes(&self) -> usize {
        match self {
            AnyModel::C45(m) => m.n_classes(),
            AnyModel::Ripper(m) => m.n_classes(),
            AnyModel::Bayes(m) => m.n_classes(),
        }
    }

    fn class_probs_into(&self, row: &[u8], class_col: usize, out: &mut Vec<f64>) {
        match self {
            AnyModel::C45(m) => m.class_probs_into(row, class_col, out),
            AnyModel::Ripper(m) => m.class_probs_into(row, class_col, out),
            AnyModel::Bayes(m) => m.class_probs_into(row, class_col, out),
        }
    }

    fn predict_row(&self, row: &[u8], class_col: usize, scratch: &mut Vec<f64>) -> u8 {
        match self {
            AnyModel::C45(m) => m.predict_row(row, class_col, scratch),
            AnyModel::Ripper(m) => m.predict_row(row, class_col, scratch),
            AnyModel::Bayes(m) => m.predict_row(row, class_col, scratch),
        }
    }

    fn prob_of_row(&self, row: &[u8], class_col: usize, class: u8, scratch: &mut Vec<f64>) -> f64 {
        match self {
            AnyModel::C45(m) => m.prob_of_row(row, class_col, class, scratch),
            AnyModel::Ripper(m) => m.prob_of_row(row, class_col, class, scratch),
            AnyModel::Bayes(m) => m.prob_of_row(row, class_col, class, scratch),
        }
    }
}

impl Persist for AnyModel {
    fn write_into(&self, w: &mut Writer) {
        match self {
            AnyModel::C45(m) => {
                w.u8(TAG_C45);
                m.write_into(w);
            }
            AnyModel::Ripper(m) => {
                w.u8(TAG_RIPPER);
                m.write_into(w);
            }
            AnyModel::Bayes(m) => {
                w.u8(TAG_BAYES);
                m.write_into(w);
            }
        }
    }

    fn read_from(r: &mut Reader) -> Result<Self, PersistError> {
        match r.u8()? {
            TAG_C45 => Ok(AnyModel::C45(C45Model::read_from(r)?)),
            TAG_RIPPER => Ok(AnyModel::Ripper(RipperModel::read_from(r)?)),
            TAG_BAYES => Ok(AnyModel::Bayes(NaiveBayesModel::read_from(r)?)),
            _ => Err(PersistError::Malformed("unknown classifier tag")),
        }
    }
}

/// A learner of any family, producing [`AnyModel`]s: the serializable
/// counterpart of a boxed `dyn Learner`.
#[derive(Debug, Clone)]
pub enum AnyLearner {
    /// The C4.5 decision-tree learner.
    C45(C45),
    /// The RIPPER rule learner.
    Ripper(Ripper),
    /// The naive Bayes learner.
    Bayes(NaiveBayes),
}

impl Learner for AnyLearner {
    type Model = AnyModel;

    fn fit(&self, table: &NominalTable, class_col: usize) -> AnyModel {
        match self {
            AnyLearner::C45(l) => AnyModel::C45(l.fit(table, class_col)),
            AnyLearner::Ripper(l) => AnyModel::Ripper(l.fit(table, class_col)),
            AnyLearner::Bayes(l) => AnyModel::Bayes(l.fit(table, class_col)),
        }
    }
}

#[cfg(test)]
mod any_model_tests {
    use super::*;

    fn toy_table() -> NominalTable {
        let rows = vec![
            vec![0, 0, 0],
            vec![0, 1, 0],
            vec![1, 0, 0],
            vec![1, 1, 1],
            vec![0, 0, 0],
            vec![0, 1, 0],
            vec![1, 0, 0],
            vec![1, 1, 1],
        ];
        NominalTable::new(
            vec!["a".into(), "b".into(), "and".into()],
            vec![2, 2, 2],
            rows,
        )
        .unwrap()
    }

    fn learners() -> Vec<AnyLearner> {
        vec![
            AnyLearner::C45(C45::default()),
            AnyLearner::Ripper(Ripper::default()),
            AnyLearner::Bayes(NaiveBayes::default()),
        ]
    }

    #[test]
    fn any_model_round_trips_bit_identical() {
        let t = toy_table();
        for learner in learners() {
            let model = learner.fit(&t, 2);
            let bytes = model.to_bytes();
            let back = AnyModel::from_bytes(&bytes).unwrap();
            assert_eq!(model, back);
            // Probabilities agree bitwise after the round trip.
            let mut a = Vec::new();
            let mut b = Vec::new();
            for row in [[0u8, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]] {
                model.class_probs_into(&row, 2, &mut a);
                back.class_probs_into(&row, 2, &mut b);
                let a_bits: Vec<u64> = a.iter().map(|p| p.to_bits()).collect();
                let b_bits: Vec<u64> = b.iter().map(|p| p.to_bits()).collect();
                assert_eq!(a_bits, b_bits);
                assert_eq!(
                    model.predict_row(&row, 2, &mut a),
                    back.predict_row(&row, 2, &mut b)
                );
            }
        }
    }

    #[test]
    fn any_model_delegates_ripper_first_match_semantics() {
        let t = toy_table();
        let concrete = Ripper::default().fit(&t, 2);
        let wrapped = AnyModel::Ripper(concrete.clone());
        let mut s = Vec::new();
        for row in [[0u8, 0, 0], [1, 1, 0]] {
            assert_eq!(
                concrete.predict_row(&row, 2, &mut s),
                wrapped.predict_row(&row, 2, &mut s)
            );
        }
    }

    #[test]
    fn corrupt_model_bytes_are_typed_errors() {
        let t = toy_table();
        let model = AnyLearner::C45(C45::default()).fit(&t, 2);
        let bytes = model.to_bytes();

        // Unknown tag.
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert!(matches!(
            AnyModel::from_bytes(&bad),
            Err(PersistError::Malformed(_))
        ));

        // Truncation at every prefix must error, never panic.
        for cut in 0..bytes.len() {
            assert!(AnyModel::from_bytes(&bytes[..cut]).is_err());
        }

        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            AnyModel::from_bytes(&long),
            Err(PersistError::Malformed(_))
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips_are_exact() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("café");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "café");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(PersistError::Truncated { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // Declares u32::MAX f64s with 4 bytes of payload behind it.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.u32(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.vec_f64(), Err(PersistError::TooLarge { .. })));
    }

    #[test]
    fn string_must_be_utf8() {
        let mut w = Writer::new();
        w.seq_len(2);
        w.u8(0xFF);
        w.u8(0xFE);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str(), Err(PersistError::Malformed(_))));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn vec_round_trips() {
        let mut w = Writer::new();
        write_vec_u32(&mut w, &[1, 2, 3]);
        write_vec_f64(&mut w, &[0.5, -1.25]);
        write_vec_usize(&mut w, &[9, 8]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.vec_u32().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.vec_f64().unwrap(), vec![0.5, -1.25]);
        assert_eq!(read_vec_usize(&mut r).unwrap(), vec![9, 8]);
        assert!(r.is_empty());
    }
}
