//! The shared binary codec kit: one bounds-checked [`Reader`], the
//! [`Wire`] trait, and the [`wire_enum!`](crate::wire_enum) /
//! [`wire_struct!`](crate::wire_struct) tables that derive a type's codec
//! from its field list.
//!
//! The same conventions serve this crate's client protocol and the
//! engine's server-to-server messages: little-endian integers, `usize` as
//! `u64`, a `u32` length prefix on strings and sequences, a `0`/`1` byte
//! for `bool` and for `Option` presence, and one leading tag byte per
//! enum variant. Decoding is total — malformed bytes give a
//! [`ProtoError`], never a panic or an allocation the input cannot back.

use crate::ProtoError;
use std::sync::Arc;

/// Decode recursion cap. A recursive Rust type nests through a `Box`, so
/// bounding boxed values bounds the decoder's stack on hostile input (for
/// the engine's messages: at most this many nested relay envelopes).
pub const MAX_BOX_DEPTH: u32 = 4;

/// Bounds-checked little-endian reader over a payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A `u32` sequence length, rejected unless the rest of the payload
    /// can hold that many elements of at least `min_elem` bytes each — a
    /// hostile length prefix cannot trigger a huge allocation.
    fn len_prefix(&mut self, min_elem: usize) -> Result<usize, ProtoError> {
        let n = u32::get(self)? as usize;
        match n.checked_mul(min_elem.max(1)) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(ProtoError::Truncated),
        }
    }

    /// Error unless the whole payload was consumed.
    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            Err(ProtoError::TrailingBytes(self.remaining()))
        } else {
            Ok(())
        }
    }
}

/// Decode one value from exactly `buf`: trailing bytes are an error.
pub fn decode_exact<T: Wire>(buf: &[u8]) -> Result<T, ProtoError> {
    let mut r = Reader::new(buf);
    let v = T::get(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// A type with a binary wire form.
pub trait Wire: Sized {
    /// Fewest bytes any encoding of the type takes. A length prefix
    /// announcing `n` elements needs `n * MIN` bytes behind it.
    const MIN: usize;

    /// Append the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decode one value.
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError>;

    /// Encode a length-prefixed sequence (overridden for bytes, which
    /// copy in bulk).
    fn put_seq(items: &[Self], out: &mut Vec<u8>) {
        (items.len() as u32).put(out);
        for item in items {
            item.put(out);
        }
    }

    /// Decode a length-prefixed sequence.
    fn get_seq(r: &mut Reader<'_>) -> Result<Vec<Self>, ProtoError> {
        let n = r.len_prefix(Self::MIN)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(Self::get(r)?);
        }
        Ok(v)
    }
}

/// `T::MIN` of the field that `field` projects out of `S`; lets
/// [`wire_struct!`](crate::wire_struct) sum field sizes by field name.
pub const fn min_of<S, T: Wire>(_field: fn(&S) -> &T) -> usize {
    T::MIN
}

macro_rules! le_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                let b = r.take(<$t as Wire>::MIN)?;
                Ok(<$t>::from_le_bytes(b.try_into().map_err(|_| ProtoError::Truncated)?))
            }
        }
    )*};
}
le_int!(u16, u32, u64);

impl Wire for u8 {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(r.take(1)?[0])
    }
    fn put_seq(items: &[u8], out: &mut Vec<u8>) {
        (items.len() as u32).put(out);
        out.extend_from_slice(items);
    }
    fn get_seq(r: &mut Reader<'_>) -> Result<Vec<u8>, ProtoError> {
        let n = r.len_prefix(1)?;
        Ok(r.take(n)?.to_vec())
    }
}

/// Implement [`Wire`] for `$t` by converting through the plain type `$as`.
macro_rules! wire_via {
    ($($t:ty => $as:ty: |$v:ident| $to:expr, $from:expr;)*) => {$(
        impl Wire for $t {
            const MIN: usize = <$as as Wire>::MIN;
            fn put(&self, out: &mut Vec<u8>) {
                let $v = *self;
                <$as>::put(&$to, out);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                let $v = <$as>::get(r)?;
                $from
            }
        }
    )*};
}
wire_via! {
    usize => u64: |v| v as u64, Ok(v as usize);
    i64 => u64: |v| v as u64, Ok(v as i64);
    f64 => u64: |v| v.to_bits(), Ok(f64::from_bits(v));
    bool => u8: |v| u8::from(v), match v {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(ProtoError::BadTag(t)),
    };
}

impl Wire for String {
    const MIN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        u8::put_seq(self.as_bytes(), out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        String::from_utf8(u8::get_seq(r)?).map_err(|_| ProtoError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        T::put_seq(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        T::get_seq(r)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                out.push(1);
                v.put(out);
            }
            None => out.push(0),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            t => Err(ProtoError::BadTag(t)),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN: usize = T::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        if r.depth >= MAX_BOX_DEPTH {
            return Err(ProtoError::Malformed);
        }
        r.depth += 1;
        let v = T::get(r);
        r.depth -= 1;
        Ok(Box::new(v?))
    }
}

impl<T: Wire> Wire for Arc<T> {
    const MIN: usize = T::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(Arc::new(T::get(r)?))
    }
}

macro_rules! wire_tuple {
    ($($t:ident . $i:tt),*) => {
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            const MIN: usize = 0 $(+ $t::MIN)*;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                Ok(($($t::get(r)?,)*))
            }
        }
    };
}
wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);

/// Derive [`Wire`] for an enum from its tag table: one row per variant,
/// `tag => Variant { fields }`, `tag => Variant(fields)` or
/// `tag => Variant`, with the fields listed in wire order (their types
/// come from the variant). The encoding is the tag byte followed by each
/// field's encoding. A duplicate tag fails the build; an unknown tag
/// decodes to [`ProtoError::BadTag`]. Tags are append-only: renumbering
/// breaks mixed-version peers.
///
/// A row `tag => Variant [codec]` hands the variant's body to the
/// module `codec`, which provides `put(&Self, &mut Vec<u8>)` and
/// `get(&mut Reader) -> Result<Self, ProtoError>` — for bodies whose
/// validity spans fields.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $var:ident
        $({ $($sf:ident),* $(,)? })? $(( $($tf:ident),* ))? $([ $codec:ident ])?),* $(,)? }) => {
        impl $crate::Wire for $ty {
            const MIN: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($crate::wire_enum!(@pat $ty $var
                        $({ $($sf),* })? $(( $($tf),* ))? $([ $codec ])?) => {
                        out.push($tag);
                        $($($crate::Wire::put($sf, out);)*)?
                        $($($crate::Wire::put($tf, out);)*)?
                        $($codec::put(self, out);)?
                    })*
                }
            }
            #[deny(unreachable_patterns)]
            fn get(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::ProtoError> {
                match <u8 as $crate::Wire>::get(r)? {
                    $($tag => $crate::wire_enum!(@get r $ty $var
                        $({ $($sf),* })? $(( $($tf),* ))? $([ $codec ])?),)*
                    t => Err($crate::ProtoError::BadTag(t)),
                }
            }
        }
    };
    (@pat $ty:ident $var:ident) => { $ty::$var };
    (@pat $ty:ident $var:ident { $($f:ident),* }) => { $ty::$var { $($f),* } };
    (@pat $ty:ident $var:ident ( $($f:ident),* )) => { $ty::$var ( $($f),* ) };
    (@pat $ty:ident $var:ident [ $codec:ident ]) => { $ty::$var { .. } };
    (@get $r:ident $ty:ident $var:ident) => { Ok($ty::$var) };
    (@get $r:ident $ty:ident $var:ident { $($f:ident),* }) => {
        Ok($ty::$var { $($f: $crate::Wire::get($r)?),* })
    };
    (@get $r:ident $ty:ident $var:ident ( $($f:ident),* )) => {
        Ok($ty::$var ( $($crate::wire_enum!(@field $f $crate::Wire::get($r)?)),* ))
    };
    (@get $r:ident $ty:ident $var:ident [ $codec:ident ]) => { $codec::get($r) };
    (@field $f:ident $e:expr) => { $e };
}

/// Derive [`Wire`] for a struct as the concatenation of its fields in the
/// listed (wire) order: `wire_struct!(Type { a, b })`, or
/// `wire_struct!(Type { 0 })` for a newtype.
#[macro_export]
macro_rules! wire_struct {
    ($($ty:ident { $($f:tt),* $(,)? })*) => {$(
        impl $crate::Wire for $ty {
            const MIN: usize = 0 $(+ $crate::min_of(|s: &$ty| &s.$f))*;
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::Wire::put(&self.$f, out);)*
            }
            fn get(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::ProtoError> {
                Ok($ty { $($f: $crate::Wire::get(r)?),* })
            }
        }
    )*};
}
