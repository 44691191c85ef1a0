//! Minimal binary (de)serialization for durable storage.
//!
//! The write-ahead log and snapshot files (`fgac-wal`) need a stable,
//! dependency-free byte encoding for the foundation types. The format is
//! deliberately simple: fixed-width little-endian integers, length-
//! prefixed strings, and one tag byte per enum variant. It is *not* a
//! general interchange format — both ends are this workspace — but every
//! decoder is total: malformed input yields [`Error::Corrupt`], never a
//! panic, because recovery code runs on whatever bytes survived a crash.

// Lengths and offsets here come off the wire or the disk: overflow,
// truncation and out-of-bounds reads are checked and surface as errors
// (DESIGN.md §4l).
#![cfg_attr(not(test), deny(
    clippy::arithmetic_side_effects, clippy::cast_possible_truncation, clippy::indexing_slicing,
))]

use crate::{Column, DataType, Error, Ident, Result, Row, Schema, Value};

/// Types that can append their encoding to a byte buffer.
pub trait WireEncode {
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Types that can be decoded from a [`Reader`]. Decoders must consume
/// exactly the bytes their encoder produced.
pub trait WireDecode: Sized {
    fn decode(r: &mut Reader<'_>) -> Result<Self>;
}

/// A bounds-checked cursor over an encoded buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        // `pos <= buf.len()` always holds: `take` is the only writer.
        self.buf.len().saturating_sub(self.pos)
    }

    fn corrupt(what: &str) -> Error {
        Error::Corrupt(format!("wire decode: truncated {what}"))
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| Self::corrupt("bytes"))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| Self::corrupt("bytes"))?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let b = self.take(N)?;
        b.first_chunk()
            .copied()
            .ok_or_else(|| Self::corrupt("bytes"))
    }

    pub fn u8(&mut self) -> Result<u8> {
        let [b] = self.array()?;
        Ok(b)
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` length field validated against the bytes actually
    /// available, so a corrupt length cannot trigger a huge allocation.
    pub fn len_prefix(&mut self) -> Result<usize> {
        let n = self.u64()?;
        usize::try_from(n)
            .ok()
            .filter(|&len| len <= self.remaining())
            .ok_or_else(|| {
                Error::Corrupt(format!(
                    "wire decode: length {n} exceeds remaining {}",
                    self.remaining()
                ))
            })
    }

    /// Fails unless every byte has been consumed — trailing garbage in a
    /// checksummed record means the encoder and decoder disagree.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::Corrupt(format!(
                "wire decode: {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

impl WireEncode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
}

impl WireDecode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.u64()
    }
}

impl WireEncode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }
}

impl WireDecode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| Error::Corrupt(format!("wire decode: index {v} overflows")))
    }
}

impl WireEncode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl WireDecode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::Corrupt(format!("wire decode: bool byte {b}"))),
        }
    }
}

impl WireEncode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl WireEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl WireDecode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.len_prefix()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Corrupt("wire decode: invalid utf-8 string".into()))
    }
}

impl WireEncode for Ident {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl WireDecode for Ident {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Ident::new(String::decode(r)?))
    }
}

impl<T: WireEncode> WireEncode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let count = r.u64()?;
        // Every element costs at least one byte, so a corrupt count can
        // be rejected before allocating.
        let n = usize::try_from(count)
            .ok()
            .filter(|&n| n <= r.remaining())
            .ok_or_else(|| {
                Error::Corrupt(format!(
                    "wire decode: element count {count} exceeds remaining bytes"
                ))
            })?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(Error::Corrupt(format!("wire decode: option byte {b}"))),
        }
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl WireEncode for DataType {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Double => 2,
            DataType::Str => 3,
        });
    }
}

impl WireDecode for DataType {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(DataType::Bool),
            1 => Ok(DataType::Int),
            2 => Ok(DataType::Double),
            3 => Ok(DataType::Str),
            b => Err(Error::Corrupt(format!("wire decode: data type tag {b}"))),
        }
    }
}

impl WireEncode for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                b.encode(out);
            }
            Value::Int(i) => {
                out.push(2);
                put_u64(out, *i as u64);
            }
            Value::Double(d) => {
                out.push(3);
                put_u64(out, d.to_bits());
            }
            Value::Str(s) => {
                out.push(4);
                s.encode(out);
            }
        }
    }
}

impl WireDecode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(bool::decode(r)?)),
            2 => Ok(Value::Int(r.u64()? as i64)),
            3 => Ok(Value::Double(f64::from_bits(r.u64()?))),
            4 => Ok(Value::Str(String::decode(r)?)),
            b => Err(Error::Corrupt(format!("wire decode: value tag {b}"))),
        }
    }
}

impl WireEncode for Row {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl WireDecode for Row {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Row(Vec::<Value>::decode(r)?))
    }
}

impl WireEncode for Column {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.ty.encode(out);
        self.nullable.encode(out);
    }
}

impl WireDecode for Column {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let name = Ident::decode(r)?;
        let ty = DataType::decode(r)?;
        let nullable = bool::decode(r)?;
        let mut col = Column::new(name, ty);
        if nullable {
            col = col.nullable();
        }
        Ok(col)
    }
}

impl WireEncode for Schema {
    fn encode(&self, out: &mut Vec<u8>) {
        self.columns().to_vec().encode(out);
    }
}

impl WireDecode for Schema {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Schema::new(Vec::<Column>::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::decode(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(String::from("héllo 'quoted'"));
        roundtrip(Ident::new("MiXeD"));
        roundtrip(Option::<String>::None);
        roundtrip(Some(Ident::new("x")));
    }

    #[test]
    fn values_and_rows_roundtrip() {
        roundtrip(Value::Null);
        roundtrip(Value::Int(-42));
        roundtrip(Value::Double(f64::NAN)); // total_cmp equality
        roundtrip(Value::Str(String::new()));
        roundtrip(Row(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(7),
            Value::Double(2.5),
            Value::Str("s".into()),
        ]));
        roundtrip(vec![Row(vec![Value::Int(1)]), Row(vec![])]);
    }

    #[test]
    fn schema_roundtrips() {
        roundtrip(Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Str).nullable(),
        ]));
    }

    #[test]
    fn truncated_input_is_corrupt_not_panic() {
        let bytes = Value::Str("hello".into()).to_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(matches!(Value::decode(&mut r), Err(Error::Corrupt(_))));
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, u64::MAX); // element count
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            Vec::<Row>::decode(&mut r),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = Value::Int(1).to_bytes();
        bytes.push(0xAB);
        let mut r = Reader::new(&bytes);
        Value::decode(&mut r).unwrap();
        assert!(r.expect_end().is_err());
    }
}
