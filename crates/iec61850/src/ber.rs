//! BER (ASN.1 Basic Encoding Rules) TLV encoding with definite lengths —
//! the encoding layer under MMS, GOOSE, and Sampled Values.

use std::cell::RefCell;

/// An ASN.1 tag: class bits + constructed flag + number, as a single byte
/// (low-tag-number form, sufficient for IEC 61850 PDUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u8);

impl Tag {
    /// Universal primitive tag.
    pub const fn universal(number: u8) -> Tag {
        Tag(number)
    }

    /// Context-specific primitive tag (`[n]`).
    pub const fn context(number: u8) -> Tag {
        Tag(0x80 | number)
    }

    /// Context-specific constructed tag (`[n] IMPLICIT SEQUENCE`).
    pub const fn context_constructed(number: u8) -> Tag {
        Tag(0xa0 | number)
    }

    /// Application-class constructed tag.
    pub const fn application_constructed(number: u8) -> Tag {
        Tag(0x60 | number)
    }

    /// Universal SEQUENCE.
    pub const SEQUENCE: Tag = Tag(0x30);

    /// The tag number (low-tag-number form).
    pub fn number(self) -> u8 {
        self.0 & 0x1f
    }
}

/// Error while decoding BER data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BerError {
    /// Data ended before the announced length.
    Truncated,
    /// A length used a form we do not support (indefinite or > 4 bytes).
    BadLength,
    /// Element content was invalid for the requested type.
    BadContent(&'static str),
    /// Expected one tag, found another.
    UnexpectedTag {
        /// Tag that was expected.
        expected: u8,
        /// Tag actually found.
        found: u8,
    },
}

impl std::fmt::Display for BerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BerError::Truncated => write!(f, "truncated BER data"),
            BerError::BadLength => write!(f, "unsupported BER length form"),
            BerError::BadContent(what) => write!(f, "invalid BER content: {what}"),
            BerError::UnexpectedTag { expected, found } => {
                write!(f, "expected tag 0x{expected:02x}, found 0x{found:02x}")
            }
        }
    }
}

impl std::error::Error for BerError {}

/// Appends a TLV with the given tag and already-encoded contents.
pub fn write_tlv(out: &mut Vec<u8>, tag: Tag, contents: &[u8]) {
    out.push(tag.0);
    write_length(out, contents.len());
    out.extend_from_slice(contents);
}

/// Appends a TLV of `tag` around the contents `contents` writes into `out`
/// in place. The bytes equal [`write_tlv`] of the same contents.
pub fn nest(out: &mut Vec<u8>, tag: Tag, contents: impl FnOnce(&mut Vec<u8>)) {
    out.push(tag.0);
    let start = out.len();
    contents(out);
    let end = out.len();
    write_length(out, end - start);
    // The length went after the contents: rotate it in front of them.
    let width = out.len() - end;
    out[start..].rotate_right(width);
}

/// Appends a BER definite length.
pub fn write_length(out: &mut Vec<u8>, len: usize) {
    if len < 0x80 {
        out.push(len as u8);
    } else if len <= 0xff {
        out.push(0x81);
        out.push(len as u8);
    } else if len <= 0xffff {
        out.push(0x82);
        out.extend_from_slice(&(len as u16).to_be_bytes());
    } else {
        out.push(0x84);
        out.extend_from_slice(&(len as u32).to_be_bytes());
    }
}

thread_local! {
    /// The buffer [`encode_exact`] writes into. It grows to the longest
    /// encoding its thread makes and is reused, so that an encoding
    /// allocates only its result.
    static BUFFER: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The bytes `write` appends to an empty buffer, in a `Vec` allocated once
/// at their length. `write` must not call `encode_exact` itself: the buffer
/// is borrowed while it runs.
pub(crate) fn encode_exact(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    BUFFER.with_borrow_mut(|buffer| {
        buffer.clear();
        write(buffer);
        buffer.to_vec()
    })
}

/// Appends a signed integer TLV in minimal two's-complement form.
pub fn write_integer(out: &mut Vec<u8>, tag: Tag, value: i64) {
    let bytes = value.to_be_bytes();
    // Strip redundant leading bytes while keeping the sign unambiguous.
    let mut start = 0;
    while start < 7 {
        let b = bytes[start];
        let next_msb = bytes[start + 1] & 0x80;
        if (b == 0x00 && next_msb == 0) || (b == 0xff && next_msb != 0) {
            start += 1;
        } else {
            break;
        }
    }
    write_tlv(out, tag, &bytes[start..]);
}

/// Decodes a signed integer from BER contents.
pub fn decode_integer(data: &[u8]) -> Result<i64, BerError> {
    if data.is_empty() || data.len() > 8 {
        return Err(BerError::BadContent("integer size"));
    }
    let negative = data[0] & 0x80 != 0;
    let mut value: i64 = if negative { -1 } else { 0 };
    for &b in data {
        value = (value << 8) | i64::from(b);
    }
    Ok(value)
}

/// Appends an unsigned integer TLV (a 0x00 leads when the MSB is set).
pub fn write_unsigned(out: &mut Vec<u8>, tag: Tag, value: u64) {
    let mut bytes = [0; 9];
    bytes[1..].copy_from_slice(&value.to_be_bytes());
    let mut start = 1;
    while start < 8 && bytes[start] == 0 {
        start += 1;
    }
    if bytes[start] & 0x80 != 0 {
        start -= 1;
    }
    write_tlv(out, tag, &bytes[start..]);
}

/// Decodes an unsigned integer from BER contents.
pub fn decode_unsigned(data: &[u8]) -> Result<u64, BerError> {
    if data.is_empty() || data.len() > 9 || (data.len() == 9 && data[0] != 0) {
        return Err(BerError::BadContent("unsigned size"));
    }
    let mut value: u64 = 0;
    for &b in data {
        value = (value << 8) | u64::from(b);
    }
    Ok(value)
}

/// Appends an IEEE-754 single-precision float TLV the MMS way
/// (exponent-width byte 0x08 followed by the 4 big-endian bytes).
pub fn write_float32(out: &mut Vec<u8>, tag: Tag, value: f32) {
    let [a, b, c, d] = value.to_be_bytes();
    write_tlv(out, tag, &[8, a, b, c, d]);
}

/// Decodes an MMS float.
pub fn decode_float32(data: &[u8]) -> Result<f32, BerError> {
    if data.len() == 5 && data[0] == 8 {
        Ok(f32::from_be_bytes([data[1], data[2], data[3], data[4]]))
    } else if data.len() == 4 {
        Ok(f32::from_be_bytes([data[0], data[1], data[2], data[3]]))
    } else {
        Err(BerError::BadContent("float size"))
    }
}

/// Appends an 8-byte UTC time TLV of `ns` nanoseconds since the epoch:
/// 4-byte seconds, a 3-byte binary fraction and a quality byte.
pub fn write_utc_time(out: &mut Vec<u8>, tag: Tag, ns: u64) {
    let [s0, s1, s2, s3] = ((ns / 1_000_000_000) as u32).to_be_bytes();
    let frac = (u128::from(ns % 1_000_000_000) << 24) / 1_000_000_000;
    let [_, f0, f1, f2] = (frac as u32).to_be_bytes();
    // Quality: clock-not-synchronised flags clear, 10 bits of accuracy.
    write_tlv(out, tag, &[s0, s1, s2, s3, f0, f1, f2, 0x0a]);
}

/// Decodes 8-byte UTC time contents to nanoseconds since the epoch.
pub fn decode_utc_time(data: &[u8]) -> Result<u64, BerError> {
    let &[s0, s1, s2, s3, f0, f1, f2, _quality] = data else {
        return Err(BerError::BadContent("utc-time size"));
    };
    let frac_ns = (u128::from(u32::from_be_bytes([0, f0, f1, f2])) * 1_000_000_000) >> 24;
    Ok(u64::from(u32::from_be_bytes([s0, s1, s2, s3])) * 1_000_000_000 + frac_ns as u64)
}

/// A decoded TLV element borrowing its contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Element<'a> {
    /// The tag byte.
    pub tag: Tag,
    /// The contents octets.
    pub contents: &'a [u8],
}

impl<'a> Element<'a> {
    /// Contents as a signed integer.
    pub fn as_integer(&self) -> Result<i64, BerError> {
        decode_integer(self.contents)
    }

    /// Contents as an unsigned integer.
    pub fn as_unsigned(&self) -> Result<u64, BerError> {
        decode_unsigned(self.contents)
    }

    /// Contents as a boolean.
    pub fn as_bool(&self) -> Result<bool, BerError> {
        match self.contents {
            [b] => Ok(*b != 0),
            _ => Err(BerError::BadContent("boolean size")),
        }
    }

    /// Contents as UTF-8 text.
    pub fn as_str(&self) -> Result<&'a str, BerError> {
        std::str::from_utf8(self.contents).map_err(|_| BerError::BadContent("utf-8 string"))
    }

    /// Contents as an MMS float.
    pub fn as_float32(&self) -> Result<f32, BerError> {
        decode_float32(self.contents)
    }

    /// The contents as a sequence of child TLVs.
    pub fn children(&self) -> Reader<'a> {
        Reader::new(self.contents)
    }
}

/// A sequential reader over BER TLVs. As an iterator it yields each element
/// in turn and stops after the first error.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over raw bytes.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Whether all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Reads the next TLV element.
    pub fn read_element(&mut self) -> Result<Element<'a>, BerError> {
        let tag = Tag(*self.data.get(self.pos).ok_or(BerError::Truncated)?);
        self.pos += 1;
        let len = self.read_length()?;
        let start = self.pos;
        let end = start.checked_add(len).ok_or(BerError::BadLength)?;
        if end > self.data.len() {
            return Err(BerError::Truncated);
        }
        self.pos = end;
        Ok(Element {
            tag,
            contents: &self.data[start..end],
        })
    }

    /// Reads an element, requiring a specific tag.
    pub fn expect(&mut self, tag: Tag) -> Result<Element<'a>, BerError> {
        let el = self.read_element()?;
        if el.tag != tag {
            return Err(BerError::UnexpectedTag {
                expected: tag.0,
                found: el.tag.0,
            });
        }
        Ok(el)
    }

    fn read_length(&mut self) -> Result<usize, BerError> {
        let first = *self.data.get(self.pos).ok_or(BerError::Truncated)?;
        self.pos += 1;
        if first < 0x80 {
            return Ok(first as usize);
        }
        let n = (first & 0x7f) as usize;
        if n == 0 || n > 4 {
            return Err(BerError::BadLength);
        }
        let mut len = 0usize;
        for _ in 0..n {
            let b = *self.data.get(self.pos).ok_or(BerError::Truncated)?;
            self.pos += 1;
            len = (len << 8) | b as usize;
        }
        Ok(len)
    }
}

impl<'a> Iterator for Reader<'a> {
    type Item = Result<Element<'a>, BerError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.is_empty() {
            return None;
        }
        let element = self.read_element();
        if element.is_err() {
            self.pos = self.data.len();
        }
        Some(element)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlv_roundtrip_short_and_long_lengths() {
        for len in [0usize, 1, 127, 128, 255, 256, 70000] {
            let contents = vec![0xabu8; len];
            let mut wire = Vec::new();
            write_tlv(&mut wire, Tag::context(3), &contents);
            let mut reader = Reader::new(&wire);
            let el = reader.read_element().unwrap();
            assert_eq!(el.tag, Tag::context(3));
            assert_eq!(el.contents.len(), len);
            assert!(reader.is_empty());
        }
    }

    #[test]
    fn nest_writes_what_write_tlv_writes() {
        for len in [0usize, 127, 128, 255, 256, 65_535, 65_536, 70_000] {
            let contents: Vec<u8> = (0..len).map(|i| i as u8).collect();
            // A byte ahead of the TLV: nesting starts mid-buffer.
            let mut expected = vec![0x5a];
            write_tlv(&mut expected, Tag::context_constructed(3), &contents);
            let mut nested = vec![0x5a];
            nest(&mut nested, Tag::context_constructed(3), |out| {
                out.extend_from_slice(&contents);
            });
            assert_eq!(nested, expected, "contents length {len}");
        }
    }

    /// The contents of the one TLV `write` appends to an empty buffer.
    fn contents_of(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut wire = Vec::new();
        write(&mut wire);
        let mut reader = Reader::new(&wire);
        let contents = reader.read_element().unwrap().contents.to_vec();
        assert!(reader.is_empty());
        contents
    }

    #[test]
    fn integer_roundtrip() {
        for v in [
            0i64,
            1,
            -1,
            127,
            128,
            -128,
            -129,
            65535,
            -65536,
            i64::MAX,
            i64::MIN,
        ] {
            let enc = contents_of(|out| write_integer(out, Tag::universal(0x02), v));
            assert_eq!(decode_integer(&enc), Ok(v), "value {v}");
            // Minimal form: no redundant leading bytes.
            if enc.len() > 1 {
                let b0 = enc[0];
                let msb1 = enc[1] & 0x80;
                assert!(
                    !((b0 == 0 && msb1 == 0) || (b0 == 0xff && msb1 != 0)),
                    "non-minimal encoding for {v}: {enc:?}"
                );
            }
        }
    }

    #[test]
    fn unsigned_roundtrip() {
        for (v, len) in [
            (0u64, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (255, 2),
            (256, 2),
            (u32::MAX as u64, 5),
            (u64::MAX, 9),
        ] {
            let enc = contents_of(|out| write_unsigned(out, Tag::universal(0x02), v));
            assert_eq!(decode_unsigned(&enc), Ok(v), "value {v}");
            assert_eq!(enc.len(), len, "minimal form of {v}");
        }
    }

    #[test]
    fn float_roundtrip() {
        for v in [0.0f32, 1.5, -3.25, f32::MAX, f32::MIN_POSITIVE] {
            let enc = contents_of(|out| write_float32(out, Tag::context(7), v));
            assert_eq!(decode_float32(&enc), Ok(v));
        }
    }

    #[test]
    fn nested_structures() {
        let mut outer = Vec::new();
        nest(&mut outer, Tag::SEQUENCE, |out| {
            write_integer(out, Tag::universal(0x02), 42);
            write_integer(out, Tag::universal(0x02), -7);
        });

        let mut reader = Reader::new(&outer);
        let seq = reader.expect(Tag::SEQUENCE).unwrap();
        let children: Vec<_> = seq.children().map(Result::unwrap).collect();
        assert_eq!(children.len(), 2);
        assert_eq!(children[0].as_integer(), Ok(42));
        assert_eq!(children[1].as_integer(), Ok(-7));
    }

    #[test]
    fn children_stop_after_an_error() {
        // One whole element, then one that announces more than follows.
        let wire = [0x02, 0x01, 0x2a, 0x02, 0x05, 0x01];
        let mut children = Reader::new(&wire);
        assert_eq!(children.next().unwrap().unwrap().as_integer(), Ok(42));
        assert_eq!(children.next(), Some(Err(BerError::Truncated)));
        assert_eq!(children.next(), None);
    }

    #[test]
    fn truncated_rejected() {
        let mut wire = Vec::new();
        write_tlv(&mut wire, Tag::context(0), &[1, 2, 3, 4]);
        for cut in 0..wire.len() {
            let mut reader = Reader::new(&wire[..cut]);
            assert!(reader.read_element().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unexpected_tag_reported() {
        let mut wire = Vec::new();
        write_tlv(&mut wire, Tag::context(1), &[]);
        let mut reader = Reader::new(&wire);
        let err = reader.expect(Tag::context(2)).unwrap_err();
        assert_eq!(
            err,
            BerError::UnexpectedTag {
                expected: 0x82,
                found: 0x81
            }
        );
    }

    #[test]
    fn indefinite_length_rejected() {
        // 0x80 length byte = indefinite form.
        let wire = [0x30, 0x80, 0x00, 0x00];
        let mut reader = Reader::new(&wire);
        assert_eq!(reader.read_element().unwrap_err(), BerError::BadLength);
    }
}
