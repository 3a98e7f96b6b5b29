//! A self-describing dynamic value: the stand-in for CORBA's `any`.
//!
//! The paper's `Signal` struct carries `any application_specific_data`; every
//! layer of this reproduction (service contexts, signal payloads, workflow
//! task parameters, BTP qualifiers) uses [`Value`] for the same purpose.
//! Values encode to a compact self-describing binary form ([`Value::encode`])
//! so that they can cross the simulated network and be written to the
//! recovery log.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

use bytes::{Buf, BufMut, Bytes};

use crate::error::OrbError;

/// An ordered attribute→value map; the tuple-space representation used by
/// the paper's `PropertyGroup` (§3.3) and by signal payloads.
///
/// Keys are static-or-owned: the field names the framework itself writes
/// (`"name"`, `"set"`, `"data"`, …) are `&'static str`s, so `"name".into()`
/// builds a key without allocating; keys that come off the wire or out of
/// application data are owned. Both encode to the same bytes.
pub type ValueMap = BTreeMap<Cow<'static, str>, Value>;

/// A dynamically typed value, analogous to CORBA's `any`.
///
/// `Value` deliberately supports a small closed set of shapes: everything the
/// Activity Service framework, the transaction models and the workflow engine
/// need to exchange, and nothing more.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed 64-bit integer.
    I64(i64),
    /// Unsigned 64-bit integer.
    U64(u64),
    /// Double-precision float.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// Ordered list.
    List(Vec<Value>),
    /// String-keyed map.
    Map(ValueMap),
}

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_MAP: u8 = 8;

impl Value {
    /// Encode into a self-describing binary representation.
    ///
    /// The encoding is a tag byte followed by a type-specific body; strings,
    /// byte arrays, lists and maps are length-prefixed with a `u32`.
    pub fn encode(&self) -> Bytes {
        Bytes::from(self.encode_to_vec())
    }

    /// [`Value::encode`] into a fresh `Vec<u8>` of exactly
    /// [`Value::encoded_len`] bytes: one allocation, no regrowth. (Log
    /// records are not built as values at all: [`MapWriter`] writes their
    /// fields straight into a reused buffer.)
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf
    }

    /// The exact number of bytes [`Value::encode`] produces.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::I64(_) | Value::U64(_) | Value::F64(_) => 8,
            Value::Str(s) => 4 + s.len(),
            Value::Bytes(b) => 4 + b.len(),
            Value::List(items) => 4 + items.iter().map(Value::encoded_len).sum::<usize>(),
            Value::Map(map) => {
                4 + map.iter().map(|(k, v)| 4 + k.len() + v.encoded_len()).sum::<usize>()
            }
        }
    }

    /// Append the encoding of `self` to `buf`.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        match self {
            Value::Null => buf.put_u8(TAG_NULL),
            Value::Bool(b) => {
                buf.put_u8(TAG_BOOL);
                buf.put_u8(u8::from(*b));
            }
            Value::I64(v) => {
                buf.put_u8(TAG_I64);
                buf.put_i64(*v);
            }
            Value::U64(v) => {
                buf.put_u8(TAG_U64);
                buf.put_u64(*v);
            }
            Value::F64(v) => {
                buf.put_u8(TAG_F64);
                buf.put_f64(*v);
            }
            Value::Str(s) => put_str(buf, s),
            Value::Bytes(b) => {
                buf.put_u8(TAG_BYTES);
                put_prefixed(buf, b);
            }
            Value::List(items) => {
                buf.put_u8(TAG_LIST);
                buf.put_u32(items.len() as u32);
                for item in items {
                    item.encode_into(buf);
                }
            }
            Value::Map(map) => {
                buf.put_u8(TAG_MAP);
                buf.put_u32(map.len() as u32);
                for (k, v) in map {
                    put_prefixed(buf, k.as_bytes());
                    v.encode_into(buf);
                }
            }
        }
    }

    /// Decode a value previously produced by [`Value::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`OrbError::Codec`] when the input is truncated, contains an
    /// unknown tag or has a malformed UTF-8 string.
    pub fn decode(bytes: &[u8]) -> Result<Value, OrbError> {
        let mut cursor = bytes;
        let value = Self::decode_from(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(OrbError::Codec(format!(
                "{} trailing bytes after value",
                cursor.len()
            )));
        }
        Ok(value)
    }

    fn decode_from(buf: &mut &[u8]) -> Result<Value, OrbError> {
        fn need(buf: &&[u8], n: usize) -> Result<(), OrbError> {
            if buf.len() < n {
                return Err(OrbError::Codec(format!(
                    "truncated value: need {n} bytes, have {}",
                    buf.len()
                )));
            }
            Ok(())
        }
        need(buf, 1)?;
        let tag = buf.get_u8();
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => {
                need(buf, 1)?;
                Ok(Value::Bool(buf.get_u8() != 0))
            }
            TAG_I64 => {
                need(buf, 8)?;
                Ok(Value::I64(buf.get_i64()))
            }
            TAG_U64 => {
                need(buf, 8)?;
                Ok(Value::U64(buf.get_u64()))
            }
            TAG_F64 => {
                need(buf, 8)?;
                Ok(Value::F64(buf.get_f64()))
            }
            TAG_STR => {
                need(buf, 4)?;
                let len = buf.get_u32() as usize;
                need(buf, len)?;
                let raw = buf[..len].to_vec();
                buf.advance(len);
                String::from_utf8(raw)
                    .map(Value::Str)
                    .map_err(|e| OrbError::Codec(format!("invalid utf-8 in string: {e}")))
            }
            TAG_BYTES => {
                need(buf, 4)?;
                let len = buf.get_u32() as usize;
                need(buf, len)?;
                let raw = buf[..len].to_vec();
                buf.advance(len);
                Ok(Value::Bytes(raw))
            }
            TAG_LIST => {
                need(buf, 4)?;
                let len = buf.get_u32() as usize;
                let mut items = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    items.push(Self::decode_from(buf)?);
                }
                Ok(Value::List(items))
            }
            TAG_MAP => {
                need(buf, 4)?;
                let len = buf.get_u32() as usize;
                let mut map = ValueMap::new();
                for _ in 0..len {
                    need(buf, 4)?;
                    let klen = buf.get_u32() as usize;
                    need(buf, klen)?;
                    let kraw = buf[..klen].to_vec();
                    buf.advance(klen);
                    let key = String::from_utf8(kraw)
                        .map_err(|e| OrbError::Codec(format!("invalid utf-8 in key: {e}")))?;
                    let value = Self::decode_from(buf)?;
                    map.insert(Cow::Owned(key), value);
                }
                Ok(Value::Map(map))
            }
            other => Err(OrbError::Codec(format!("unknown value tag {other}"))),
        }
    }

    /// View as a string slice if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// View as a bool if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// View as an `i64`, converting from `U64` when it fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// View as a `u64`, converting from non-negative `I64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// View as an `f64` if this is a [`Value::F64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// View as a map if this is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&ValueMap> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// View as a list if this is a [`Value::List`].
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// True when the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// A length-prefixed run of bytes: the body of a string or a byte array, or
/// a map key.
fn put_prefixed(buf: &mut impl BufMut, bytes: &[u8]) {
    buf.put_u32(bytes.len() as u32);
    buf.put_slice(bytes);
}

fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u8(TAG_STR);
    put_prefixed(buf, s.as_bytes());
}

thread_local! {
    /// The buffer [`MapWriter::encode`] writes into. A call takes it and puts
    /// it back, so a call made from inside another's sink finds it empty and
    /// writes into a fresh one rather than over the outer record.
    static MAP_BUF: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// A buffer one big record grew past this is dropped, not kept for the
/// thread's next record.
const MAP_BUF_KEPT: usize = 64 * 1024;

/// Writes one [`Value::Map`] field by field, straight into a byte buffer.
/// The bytes are exactly those `Value::Map(..)` encodes to for the same
/// entries, but no map, key, string or nested value is built: this is how
/// every log record is written (DESIGN.md §12).
///
/// Fields come in the map's own order, `BTreeMap` key order (byte order),
/// each key once. Debug builds panic on a key out of order.
pub struct MapWriter<'b> {
    seq: Seq<'b>,
    /// Where the previous key's bytes lie in the buffer.
    last_key: (usize, usize),
}

/// The items of a [`Value::List`] field, written like a [`MapWriter`]'s
/// fields.
pub struct ListWriter<'b> {
    seq: Seq<'b>,
}

/// A map or list being written: its tag and a placeholder entry count
/// first, the count patched in when it is closed.
struct Seq<'b> {
    buf: &'b mut Vec<u8>,
    count_at: usize,
    count: u32,
}

impl<'b> Seq<'b> {
    fn open(buf: &'b mut Vec<u8>, tag: u8) -> Self {
        buf.put_u8(tag);
        let count_at = buf.len();
        buf.put_u32(0);
        Seq { buf, count_at, count: 0 }
    }

    fn close(self) {
        self.buf[self.count_at..self.count_at + 4].copy_from_slice(&self.count.to_be_bytes());
    }
}

impl MapWriter<'_> {
    /// Write a map with `fields` and hand its encoding to `sink`, returning
    /// what `sink` returns. The bytes live in a per-thread buffer reused from
    /// record to record, so once it has grown to the records a thread writes
    /// they cost no allocation; `sink` copies what it keeps.
    pub fn encode<R>(fields: impl FnOnce(&mut MapWriter<'_>), sink: impl FnOnce(&[u8]) -> R) -> R {
        let mut buf = MAP_BUF.take();
        buf.clear();
        MapWriter::write(&mut buf, fields);
        let result = sink(&buf);
        if buf.capacity() <= MAP_BUF_KEPT {
            MAP_BUF.set(buf);
        }
        result
    }

    fn write(buf: &mut Vec<u8>, fields: impl FnOnce(&mut MapWriter<'_>)) {
        let mut map = MapWriter { seq: Seq::open(buf, TAG_MAP), last_key: (0, 0) };
        fields(&mut map);
        map.seq.close();
    }

    fn key(&mut self, key: &str) -> &mut Vec<u8> {
        let buf = &mut *self.seq.buf;
        let last = &buf[self.last_key.0..self.last_key.1];
        debug_assert!(
            self.seq.count == 0 || last < key.as_bytes(),
            "map key {key:?} written after {:?}: keys go in BTreeMap order, once each",
            String::from_utf8_lossy(last),
        );
        put_prefixed(buf, key.as_bytes());
        self.last_key = (buf.len() - key.len(), buf.len());
        self.seq.count += 1;
        buf
    }

    /// A [`Value::U64`] field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.value(key, &Value::U64(value))
    }

    /// A [`Value::Bool`] field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.value(key, &Value::Bool(value))
    }

    /// A [`Value::Str`] field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        put_str(self.key(key), value);
        self
    }

    /// A field holding `value`, encoded in place.
    pub fn value(&mut self, key: &str, value: &Value) -> &mut Self {
        value.encode_into(self.key(key));
        self
    }

    /// A [`Value::Map`] field whose own fields `fields` writes.
    pub fn map(&mut self, key: &str, fields: impl FnOnce(&mut MapWriter<'_>)) -> &mut Self {
        MapWriter::write(self.key(key), fields);
        self
    }

    /// A [`Value::List`] field whose items `items` writes.
    pub fn list(&mut self, key: &str, items: impl FnOnce(&mut ListWriter<'_>)) -> &mut Self {
        let mut list = ListWriter { seq: Seq::open(self.key(key), TAG_LIST) };
        items(&mut list);
        list.seq.close();
        self
    }
}

impl ListWriter<'_> {
    fn item(&mut self) -> &mut Vec<u8> {
        self.seq.count += 1;
        self.seq.buf
    }

    /// A [`Value::U64`] item.
    pub fn u64(&mut self, item: u64) -> &mut Self {
        Value::U64(item).encode_into(self.item());
        self
    }

    /// A [`Value::Str`] item.
    pub fn str(&mut self, item: &str) -> &mut Self {
        put_str(self.item(), item);
        self
    }

    /// A [`Value::Map`] item whose fields `fields` writes.
    pub fn map(&mut self, fields: impl FnOnce(&mut MapWriter<'_>)) -> &mut Self {
        MapWriter::write(self.item(), fields);
        self
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Map(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(i64::from(v))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}
impl From<ValueMap> for Value {
    fn from(v: ValueMap) -> Self {
        Value::Map(v)
    }
}
impl FromIterator<Value> for Value {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Value::List(iter.into_iter().collect())
    }
}
impl<K: Into<Cow<'static, str>>> FromIterator<(K, Value)> for Value {
    fn from_iter<T: IntoIterator<Item = (K, Value)>>(iter: T) -> Self {
        // Inserted one by one: `BTreeMap`'s own `collect` stages the pairs
        // in a `Vec` first.
        let mut map = ValueMap::new();
        for (k, v) in iter {
            map.insert(k.into(), v);
        }
        Value::Map(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) {
        let encoded = v.encode();
        let decoded = Value::decode(&encoded).expect("decode");
        assert_eq!(&decoded, v);
    }

    #[test]
    fn roundtrip_scalars() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::I64(-42));
        roundtrip(&Value::I64(i64::MIN));
        roundtrip(&Value::U64(u64::MAX));
        roundtrip(&Value::F64(3.125));
        roundtrip(&Value::Str(String::new()));
        roundtrip(&Value::Str("héllo wörld".into()));
        roundtrip(&Value::Bytes(vec![0, 255, 1, 2]));
    }

    #[test]
    fn roundtrip_nested() {
        let mut map = ValueMap::new();
        map.insert("list".into(), Value::List(vec![Value::I64(1), Value::Str("x".into())]));
        map.insert("inner".into(), Value::Map(ValueMap::new()));
        roundtrip(&Value::Map(map));
    }

    #[test]
    fn static_and_owned_keys_are_one_key_and_one_encoding() {
        let mut literal = ValueMap::new();
        literal.insert("name".into(), Value::I64(1));
        let mut owned = ValueMap::new();
        owned.insert(String::from("name").into(), Value::I64(1));
        assert!(matches!(literal.keys().next(), Some(Cow::Borrowed(_))), "a literal key is not copied");
        assert_eq!(literal, owned);
        let (literal, owned) = (Value::Map(literal), Value::Map(owned));
        assert_eq!(literal.encode(), owned.encode());
        // Keys off the wire are owned and still answer to the literal.
        let decoded = Value::decode(&literal.encode()).unwrap();
        assert_eq!(decoded.as_map().unwrap().get("name"), Some(&Value::I64(1)));
        assert_eq!(decoded, literal);
    }

    #[test]
    fn encoded_len_is_the_exact_size_of_the_encoding() {
        let mut map = ValueMap::new();
        map.insert("list".into(), Value::List(vec![Value::Null, Value::Bool(true), Value::F64(0.5)]));
        map.insert("bytes".into(), Value::Bytes(vec![1, 2, 3]));
        map.insert("text".into(), Value::from("héllo"));
        map.insert("inner".into(), Value::Map(ValueMap::new()));
        let value = Value::List(vec![Value::Map(map), Value::U64(7), Value::I64(-7)]);
        assert_eq!(value.encoded_len(), value.encode().len());
        let encoded = value.encode_to_vec();
        assert_eq!(encoded.capacity(), encoded.len(), "allocated once, at the right size");
        assert_eq!(encoded[..], value.encode()[..]);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut encoded = Value::Bool(true).encode().to_vec();
        encoded.push(9);
        assert!(matches!(Value::decode(&encoded), Err(OrbError::Codec(_))));
    }

    #[test]
    fn decode_rejects_truncation() {
        let encoded = Value::Str("hello".into()).encode();
        for cut in 0..encoded.len() {
            assert!(
                Value::decode(&encoded[..cut]).is_err(),
                "prefix of length {cut} should fail"
            );
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        assert!(matches!(Value::decode(&[200]), Err(OrbError::Codec(_))));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(7i64).as_i64(), Some(7));
        assert_eq!(Value::from(7u64).as_i64(), Some(7));
        assert_eq!(Value::U64(u64::MAX).as_i64(), None);
        assert_eq!(Value::I64(-1).as_u64(), None);
        assert_eq!(Value::from(2.5f64).as_f64(), Some(2.5));
        assert!(Value::Null.is_null());
        assert!(Value::default().is_null());
        assert!(Value::from("x").as_map().is_none());
    }

    #[test]
    fn display_never_empty() {
        for v in [
            Value::Null,
            Value::List(vec![]),
            Value::Map(ValueMap::new()),
            Value::Str(String::new()),
            Value::Bytes(vec![]),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }

    /// Write `map`'s entries through a [`MapWriter`], each by the method made
    /// for its shape.
    fn write_fields(fields: &mut MapWriter<'_>, map: &ValueMap) {
        for (key, value) in map {
            match value {
                Value::U64(v) => fields.u64(key, *v),
                Value::Bool(b) => fields.bool(key, *b),
                Value::Str(s) => fields.str(key, s),
                Value::Map(m) => fields.map(key, |inner| write_fields(inner, m)),
                Value::List(items) if items.iter().all(listable) => fields.list(key, |list| {
                    for item in items {
                        match item {
                            Value::U64(v) => list.u64(*v),
                            Value::Str(s) => list.str(s),
                            Value::Map(m) => list.map(|inner| write_fields(inner, m)),
                            _ => unreachable!("not listable"),
                        };
                    }
                }),
                other => fields.value(key, other),
            };
        }
    }

    /// The item shapes a [`ListWriter`] writes.
    fn listable(item: &Value) -> bool {
        matches!(item, Value::U64(_) | Value::Str(_) | Value::Map(_))
    }

    fn written(map: &ValueMap) -> Vec<u8> {
        MapWriter::encode(|fields| write_fields(fields, map), <[u8]>::to_vec)
    }

    fn arb_value() -> proptest::strategy::BoxedStrategy<Value> {
        use proptest::prelude::*;
        // Keys that sort across the ASCII/non-ASCII boundary.
        let key = (".{0,6}", any::<bool>())
            .prop_map(|(key, accent)| if accent { format!("{key}ü") } else { key });
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::I64),
            any::<u64>().prop_map(Value::U64),
            any::<f64>().prop_map(Value::F64),
            (".{0,8}", any::<bool>())
                .prop_map(|(s, accent)| Value::Str(if accent { format!("ñ{s}") } else { s })),
            proptest::collection::vec(any::<u8>(), 0..6).prop_map(Value::Bytes),
        ];
        // Lists of the item shapes a `ListWriter` writes come often.
        let listable = prop_oneof![
            any::<u64>().prop_map(Value::U64),
            (".{0,4}", any::<bool>())
                .prop_map(|(s, accent)| Value::Str(if accent { format!("{s}ø") } else { s })),
        ]
        .boxed();
        leaf.prop_recursive(3, 32, 4, move |inner| {
            prop_oneof![
                proptest::collection::vec(listable.clone(), 0..4).prop_map(Value::List),
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
                proptest::collection::btree_map(key.clone(), inner, 0..4).prop_map(|m| {
                    Value::Map(m.into_iter().map(|(k, v)| (Cow::Owned(k), v)).collect())
                }),
            ]
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        fn a_written_map_is_byte_identical_to_the_encoded_value(
            entries in proptest::collection::btree_map(".{0,6}", arb_value(), 0..6),
        ) {
            let map: ValueMap = entries.into_iter().map(|(k, v)| (Cow::Owned(k), v)).collect();
            let expected = Value::Map(map.clone()).encode();
            proptest::prop_assert_eq!(&written(&map)[..], &expected[..]);
        }
    }

    #[test]
    fn a_map_written_from_inside_a_sink_leaves_the_outer_one_intact() {
        let expected = |key: &'static str, v: Value| {
            let mut map = ValueMap::new();
            map.insert(key.into(), v);
            Value::Map(map).encode().to_vec()
        };
        let (outer, inner) = MapWriter::encode(
            |fields| {
                fields.str("outer", "héllo");
            },
            |outer| {
                let inner = MapWriter::encode(|fields| { fields.u64("inner", 7); }, <[u8]>::to_vec);
                (outer.to_vec(), inner)
            },
        );
        assert_eq!(outer, expected("outer", Value::from("héllo")));
        assert_eq!(inner, expected("inner", Value::U64(7)));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "key order is checked in debug builds")]
    #[should_panic(expected = "BTreeMap order")]
    fn a_key_written_out_of_order_panics() {
        MapWriter::encode(|fields| { fields.u64("tx", 1).bool("committed", true); }, |_| ());
    }

    #[test]
    fn collect_into_value() {
        let l: Value = vec![Value::I64(1), Value::I64(2)].into_iter().collect();
        assert_eq!(l.as_list().unwrap().len(), 2);
        let m: Value = vec![("a".to_string(), Value::I64(1))].into_iter().collect();
        assert_eq!(m.as_map().unwrap().len(), 1);
    }
}
