//! Byte-level codec primitives (DESIGN.md §13).
//!
//! Conventions, normative for every message codec in the workspace:
//!
//! - all integers are **little-endian**, fixed width;
//! - a `bool` is one byte, `0` or `1`; any other value is rejected, so
//!   every accepted frame re-encodes to the bytes it was decoded from
//!   (content bodies aside: they are skipped, not held);
//! - vectors are prefixed by their element count as a `u32`;
//! - `Option<T>` is a `bool` presence tag followed by the payload when
//!   present;
//! - every **top-level** message enum leads with `[version][kind]`, one
//!   byte each ([`WIRE_VERSION`] and the variant's tag); nested
//!   structs are encoded inline with no version or kind byte;
//! - cryptographic digests, keys, and signatures are their canonical
//!   big-endian byte arrays (matching the signed-message encodings).
//!
//! A layout is stated once. A composite type's impl is one line of
//! [`wire_struct!`](crate::wire_struct) or [`wire_enum!`](crate::wire_enum):
//! its field list, in wire order, from which the macro generates
//! [`Wire::encode`] (the fields into a [`Sink`]), [`Wire::read`] (the
//! same fields back through a [`Reader`]) and the size floor
//! [`Wire::MIN_WIRE_LEN`] (the sum of the fields' floors).
//! [`Wire::encoded_len`] is `encode` into a counting sink, so a size
//! cannot disagree with the bytes. A message enum's line also states
//! each kind's label, so `wire_enum!(message ..)` generates its
//! [`Message`](crate::Message) impl too. Hand-written impls are left to
//! the primitives and to types whose representation is their own (a
//! content body, a tag enum).
//!
//! Decoding is total: every read returns a typed [`DecodeError`]
//! instead of panicking, and length prefixes are validated against the
//! remaining input *before* any allocation, so hostile frames cannot
//! drive memory use past the size of the frame itself.

use past_crypto::u256::U256;
use past_crypto::{Digest160, Digest256, PublicKey, Signature};
use past_trace::OpId;
use std::sync::Arc;

/// Version byte leading every top-level message frame. Bump on any
/// incompatible layout change; decoders reject other versions with
/// [`DecodeError::BadVersion`] (evolution rules in DESIGN.md §13.4).
pub const WIRE_VERSION: u8 = 1;

/// Why a frame failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the frame did.
    Truncated,
    /// The leading version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// A length prefix (or declared content size) exceeds the remaining
    /// input — the frame lies about its own extent.
    LengthOverflow,
    /// An unknown message kind or enum tag byte.
    UnknownKind(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::LengthOverflow => write!(f, "length prefix exceeds frame"),
            DecodeError::UnknownKind(k) => write!(f, "unknown kind/tag byte {k}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Where [`Wire::encode`] writes: a buffer that takes the bytes, or a
/// counter that takes only their number.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);

    /// Appends a content body of `size` bytes: zero filler in the
    /// simulator, which never materializes file bytes; the file itself
    /// in a deployment.
    fn body(&mut self, size: u64);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn body(&mut self, size: u64) {
        self.resize(self.len() + size as usize, 0);
    }
}

/// The counting sink behind [`Wire::encoded_len`]: it only adds, so a
/// body of any size costs one addition and no memory.
impl Sink for u64 {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len() as u64;
    }

    #[inline]
    fn body(&mut self, size: u64) {
        *self += size;
    }
}

/// The unread rest of a frame. Every read consumes from the front and
/// fails with a typed error rather than running past the end.
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.0.len() {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// Reads `N` raw bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.take(N)?);
        Ok(b)
    }

    /// Reads the next field; its type is the one the caller assigns to.
    pub fn get<T: Wire>(&mut self) -> Result<T, DecodeError> {
        T::read(self)
    }

    /// Reads the `[version][kind]` header of a top-level frame and
    /// returns the kind byte.
    pub fn kind(&mut self) -> Result<u8, DecodeError> {
        let version = self.get()?;
        if version != WIRE_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        self.get()
    }

    /// Skips a content body of declared `size` without copying it; a
    /// size the frame cannot hold is a [`DecodeError::LengthOverflow`].
    pub fn skip_body(&mut self, size: u64) -> Result<(), DecodeError> {
        let n = usize::try_from(size).map_err(|_| DecodeError::LengthOverflow)?;
        self.0 = self.0.get(n..).ok_or(DecodeError::LengthOverflow)?;
        Ok(())
    }
}

/// A value with a byte-level encoding.
///
/// `encode` and `read` walk the same fields in wire order; sizes and
/// framing are provided on top of those. A struct or message enum made
/// of fields gets both, and its `MIN_WIRE_LEN`, from one
/// [`wire_struct!`](crate::wire_struct) or [`wire_enum!`](crate::wire_enum)
/// line. Implementations must never panic on any input.
pub trait Wire: Sized {
    /// Minimum encoded size in bytes, used to bound vector length
    /// prefixes before allocating.
    const MIN_WIRE_LEN: usize;

    /// Writes the encoding of `self` to `out`.
    fn encode<S: Sink>(&self, out: &mut S);

    /// Reads one value from the front of `r`.
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Decodes one value from the front of `buf` and returns it with the
    /// number of bytes consumed; trailing bytes are the caller's concern.
    fn decode(buf: &[u8]) -> Result<(Self, usize), DecodeError> {
        let mut r = Reader(buf);
        let v = Self::read(&mut r)?;
        Ok((v, buf.len() - r.0.len()))
    }

    /// Exact encoded size in bytes: what `encode` writes, counted.
    fn encoded_len(&self) -> u64 {
        let mut n = 0u64;
        self.encode(&mut n);
        n
    }

    /// Convenience: encodes into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// The type's one value if it encodes to no bytes (`()`), else `None`:
    /// a message kind whose fields all have one is fieldless
    /// ([`Message::fieldless`](crate::Message::fieldless)).
    fn empty() -> Option<Self> {
        None
    }
}

/// The floor a field adds to its struct's [`Wire::MIN_WIRE_LEN`]: the
/// floor of the field's type, which the accessor names so that
/// [`wire_struct!`](crate::wire_struct) needs the field's name only.
pub const fn field_min_len<S, T: Wire>(_field: fn(&S) -> &T) -> usize {
    T::MIN_WIRE_LEN
}

/// Checks, in a `const`, that a [`wire_enum!`](crate::wire_enum) line's
/// tags run 0, 1, 2, … in order: the tag is the variant's kind id.
pub const fn tags_in_order(tags: &[u8]) {
    let mut i = 0;
    while i < tags.len() {
        assert!(
            tags[i] as usize == i,
            "wire_enum! tags must run 0, 1, 2, … in order"
        );
        i += 1;
    }
}

/// Implements [`Wire`] for a struct from its fields, listed in wire
/// order (which need not be the declaration order): `encode` writes
/// them, `read` reads them back with one `r.get()?` each, and
/// `MIN_WIRE_LEN` is the sum of their floors. `Ty<P> { .. }` implements
/// it for every `P: Wire`; a tuple struct lists its fields by index,
/// as in `PublicKey { 0 }`.
///
/// ```
/// use past_wire::{wire_struct, Wire};
///
/// #[derive(Debug, PartialEq)]
/// struct Probe {
///     seq: u32,
///     urgent: bool,
/// }
/// wire_struct!(Probe { seq, urgent });
///
/// let p = Probe { seq: 7, urgent: true };
/// assert_eq!(Probe::MIN_WIRE_LEN, 5);
/// assert_eq!(p.to_wire(), [7, 0, 0, 0, 1]);
/// assert_eq!(Probe::decode(&p.to_wire()), Ok((p, 5)));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident $(<$($p:ident),+>)? { $($field:tt),+ $(,)? }) => {
        impl $(<$($p: $crate::Wire),+>)? $crate::Wire for $ty $(<$($p),+>)? {
            const MIN_WIRE_LEN: usize =
                0 $(+ $crate::codec::field_min_len(|s: &Self| &s.$field))+;

            // Inlined into the encode of the message that carries it.
            #[inline]
            fn encode<S: $crate::Sink>(&self, out: &mut S) {
                $($crate::Wire::encode(&self.$field, out);)+
            }

            fn read(
                r: &mut $crate::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::DecodeError> {
                ::core::result::Result::Ok(Self { $($field: r.get()?),+ })
            }
        }
    };
}

/// Implements [`Wire`] for a top-level message enum, one line per
/// variant: `tag => Variant { fields }`, the fields in wire order. The
/// frame is `[WIRE_VERSION][tag]` then the fields; `body(field)` after a
/// variant appends a content body of `field.size` bytes after them
/// (skipped, not held, on read). The tags must run 0, 1, 2, … in line
/// order, or the line does not compile. `encode` matches every variant,
/// so a variant left out does not compile, and `read` answers an
/// unlisted tag with [`DecodeError::UnknownKind`]. A tuple or unit
/// variant takes the braced form: `Route { 0: env }`, `Heartbeat {}`.
///
/// ```
/// use past_wire::{wire_enum, DecodeError, Wire, WIRE_VERSION};
///
/// #[derive(Debug, PartialEq)]
/// enum Chat {
///     Ping { seq: u32 },
///     Say { seq: u32, loud: bool },
/// }
/// wire_enum!(Chat {
///     0 => Ping { seq },
///     1 => Say { seq, loud },
/// });
///
/// let m = Chat::Say { seq: 9, loud: false };
/// assert_eq!(Chat::MIN_WIRE_LEN, 2);
/// assert_eq!(m.to_wire(), [WIRE_VERSION, 1, 9, 0, 0, 0, 0]);
/// assert_eq!(Chat::decode(&m.to_wire()), Ok((m, 7)));
/// assert_eq!(Chat::decode(&[WIRE_VERSION, 2]), Err(DecodeError::UnknownKind(2)));
/// ```
///
/// **The `message` form**, `wire_enum!(message Ty { .. })`, also
/// implements [`Message`](crate::Message) for an enum a transport
/// carries. Each line names its kind label, `tag "label" => Variant {
/// fields }`, and may end in `op(expr)`, its `op_id` over the bound
/// fields ([`OpId::NONE`] without one). `KINDS` lists the labels,
/// `kind_id` is the tag, `wire_size` is `encoded_len`, and `fieldless`
/// rebuilds a kind from its id when each of its fields has an
/// [`empty`](Wire::empty) value. A type parameter states its bounds,
/// `Msg<P: Clone + Payload>`, for both impls.
///
/// ```
/// use past_wire::{wire_enum, Message, OpId, Wire};
///
/// #[derive(Clone, Debug, PartialEq)]
/// enum Msg<P> {
///     Tagged(OpId),
///     Big(Box<u64>),
///     Beat,
///     Direct { payload: P },
/// }
/// wire_enum!(message Msg<P: Clone> {
///     0 "tagged" => Tagged { 0: op } op(*op),
///     1 "big" => Big { 0: n },
///     2 "beat" => Beat {},
///     3 "direct" => Direct { payload },
/// });
///
/// let m: Msg<()> = Msg::Tagged(OpId(5));
/// assert_eq!((m.kind(), m.op_id(), m.wire_size()), ("tagged", OpId(5), 10));
/// assert_eq!(Msg::<()>::KINDS, ["tagged", "big", "beat", "direct"]);
/// let big: Msg<()> = Msg::Big(Box::new(7));
/// assert_eq!(Msg::decode(&big.to_wire()), Ok((big, 10)));
/// // `Beat` has no fields and `()` encodes to nothing, so both kinds
/// // rebuild from their id; a `u32` payload does not.
/// assert_eq!(Msg::<()>::fieldless(2), Some(Msg::Beat));
/// assert_eq!(Msg::<()>::fieldless(3), Some(Msg::Direct { payload: () }));
/// assert_eq!(Msg::<u32>::fieldless(3), None);
/// assert_eq!(Msg::<()>::fieldless(1), None);
/// ```
///
/// A tag out of order does not compile:
///
/// ```compile_fail
/// enum Two { A, B }
/// past_wire::wire_enum!(Two { 1 => A {}, 0 => B {} });
/// ```
#[macro_export]
macro_rules! wire_enum {
    (message $($line:tt)+) => {
        $crate::wire_enum!(@enum [message] $($line)+);
    };
    (@enum [$($message:ident)?] $ty:ident $(<$($p:ident $(: $b0:ident $(+ $b:ident)*)?),+>)? {
        $($tag:literal $($label:literal)? => $variant:ident { $($field:tt $(: $bind:ident)?),* $(,)? }
            $(body($body:ident))? $(op($op:expr))?),+ $(,)?
    }) => {
        const _: () = $crate::codec::tags_in_order(&[$($tag),+]);

        impl $(<$($p: $crate::Wire $(+ $b0 $(+ $b)*)?),+>)? $crate::Wire for $ty $(<$($p),+>)? {
            const MIN_WIRE_LEN: usize = 2;

            // Inlined into `encoded_len`, the one codec call the simulator
            // makes per send, so that the count stays in a register.
            #[inline]
            fn encode<S: $crate::Sink>(&self, out: &mut S) {
                match self {
                    $(Self::$variant { $($field $(: $bind)?),* } => {
                        $crate::Sink::put(out, &[$crate::WIRE_VERSION, $tag]);
                        $($crate::Wire::encode($crate::wire_enum!(@bind $field $($bind)?), out);)*
                        $($crate::Sink::body(out, $body.size);)?
                    })+
                }
            }

            fn read(
                r: &mut $crate::Reader<'_>,
            ) -> ::core::result::Result<Self, $crate::DecodeError> {
                let m = match r.kind()? {
                    $($tag => Self::$variant { $($field: r.get()?),* },)+
                    other => {
                        return ::core::result::Result::Err($crate::DecodeError::UnknownKind(other))
                    }
                };
                r.skip_body(match &m {
                    $(Self::$variant { $($body,)? .. } => $crate::wire_enum!(@body $($body)?),)+
                })?;
                ::core::result::Result::Ok(m)
            }
        }

        $crate::wire_enum!(@if [$($message)?] {
            impl $(<$($p: $crate::Wire $(+ $b0 $(+ $b)*)?),+>)? $crate::Message for $ty $(<$($p),+>)? {
                const KINDS: &'static [&'static str] = &[$($crate::wire_enum!(@label $($label)?)),+];

                fn kind_id(&self) -> usize {
                    match self {
                        $(Self::$variant { .. } => $tag,)+
                    }
                }

                fn wire_size(&self) -> u64 {
                    $crate::Wire::encoded_len(self)
                }

                fn op_id(&self) -> $crate::OpId {
                    match self {
                        $($crate::wire_enum!(@pat [$(op($op))?] $variant { $($field $(: $bind)?),* })
                            => $crate::wire_enum!(@op $($op)?),)+
                    }
                }

                fn fieldless(kind: usize) -> ::core::option::Option<Self> {
                    match kind {
                        $($tag => ::core::option::Option::Some(Self::$variant {
                            $($field: $crate::Wire::empty()?),*
                        }),)+
                        _ => ::core::option::Option::None,
                    }
                }
            }
        });
    };
    (@if [] { $($item:tt)* }) => {};
    (@if [message] { $($item:tt)* }) => { $($item)* };
    (@bind $field:tt) => { $field };
    (@bind $field:tt $bind:ident) => { $bind };
    // Without an `op(..)`, no field is read, so none is bound.
    (@pat [] $variant:ident { $($field:tt)* }) => { Self::$variant { .. } };
    (@pat [$($op:tt)+] $variant:ident { $($field:tt)* }) => { Self::$variant { $($field)* } };
    (@body) => { 0 };
    (@body $body:ident) => { $body.size };
    (@label) => { ::core::compile_error!("a `message` line names its kind label") };
    (@label $label:literal) => { $label };
    (@op) => { $crate::OpId::NONE };
    (@op $op:expr) => { $op };
    ($ty:ident $($line:tt)+) => {
        $crate::wire_enum!(@enum [] $ty $($line)+);
    };
}

// ---------------- Wire impls for primitives -------------------------

impl Wire for () {
    const MIN_WIRE_LEN: usize = 0;

    fn encode<S: Sink>(&self, _out: &mut S) {}

    fn read(_r: &mut Reader<'_>) -> Result<(), DecodeError> {
        Ok(())
    }

    fn empty() -> Option<()> {
        Some(())
    }
}

// Integers travel little-endian at their own width.
macro_rules! le_int {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            const MIN_WIRE_LEN: usize = std::mem::size_of::<$t>();

            fn encode<S: Sink>(&self, out: &mut S) {
                out.put(&self.to_le_bytes());
            }

            fn read(r: &mut Reader<'_>) -> Result<$t, DecodeError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )+};
}

le_int!(u8, u16, u32, u64, u128);

// Addresses (`usize` in the simulator) travel as `u64`.
impl Wire for usize {
    const MIN_WIRE_LEN: usize = 8;

    fn encode<S: Sink>(&self, out: &mut S) {
        (*self as u64).encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
        usize::try_from(u64::read(r)?).map_err(|_| DecodeError::LengthOverflow)
    }
}

// Torus coordinates (CAN) travel as their IEEE-754 bit pattern.
impl Wire for f64 {
    const MIN_WIRE_LEN: usize = 8;

    fn encode<S: Sink>(&self, out: &mut S) {
        self.to_bits().encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(r.get()?))
    }
}

impl Wire for bool {
    const MIN_WIRE_LEN: usize = 1;

    fn encode<S: Sink>(&self, out: &mut S) {
        out.put(&[*self as u8]);
    }

    fn read(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
        match r.get()? {
            0u8 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::UnknownKind(tag)),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_WIRE_LEN: usize = 1;

    fn encode<S: Sink>(&self, out: &mut S) {
        self.is_some().encode(out);
        if let Some(v) = self {
            v.encode(out);
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Option<T>, DecodeError> {
        bool::read(r)?.then(|| T::read(r)).transpose()
    }
}

/// A shared value encodes as the value itself: sharing is how a node
/// holds it in memory, never part of the frame. Decoding allocates a
/// fresh one, as a receiving machine would.
impl<T: Wire> Wire for Arc<T> {
    const MIN_WIRE_LEN: usize = T::MIN_WIRE_LEN;

    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        (**self).encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<Arc<T>, DecodeError> {
        T::read(r).map(Arc::new)
    }
}

/// A boxed value encodes as the value itself, as a shared one does.
impl<T: Wire> Wire for Box<T> {
    const MIN_WIRE_LEN: usize = T::MIN_WIRE_LEN;

    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        (**self).encode(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<Box<T>, DecodeError> {
        T::read(r).map(Box::new)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_WIRE_LEN: usize = 4;

    fn encode<S: Sink>(&self, out: &mut S) {
        debug_assert!(self.len() <= u32::MAX as usize);
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
        let n = u32::read(r)? as usize;
        // Each element occupies at least `MIN_WIRE_LEN` bytes, so a
        // hostile prefix cannot force an allocation larger than the frame.
        let need = n.checked_mul(T::MIN_WIRE_LEN.max(1));
        if need.is_none_or(|need| need > r.0.len()) {
            return Err(DecodeError::LengthOverflow);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::read(r)?);
        }
        Ok(v)
    }
}

// ---------------- Wire impls for crypto/trace handles ---------------

impl Wire for Digest256 {
    const MIN_WIRE_LEN: usize = 32;

    fn encode<S: Sink>(&self, out: &mut S) {
        out.put(&self.0);
    }

    fn read(r: &mut Reader<'_>) -> Result<Digest256, DecodeError> {
        Ok(Digest256(r.array()?))
    }
}

impl Wire for Digest160 {
    const MIN_WIRE_LEN: usize = 20;

    fn encode<S: Sink>(&self, out: &mut S) {
        out.put(&self.0);
    }

    fn read(r: &mut Reader<'_>) -> Result<Digest160, DecodeError> {
        Ok(Digest160(r.array()?))
    }
}

impl Wire for U256 {
    const MIN_WIRE_LEN: usize = 32;

    fn encode<S: Sink>(&self, out: &mut S) {
        out.put(&self.to_be_bytes());
    }

    fn read(r: &mut Reader<'_>) -> Result<U256, DecodeError> {
        Ok(U256::from_be_bytes(&r.array()?))
    }
}

wire_struct!(PublicKey { 0 });
wire_struct!(Signature {
    commitment,
    response
});
wire_struct!(OpId { 0 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        0xabu8.encode(&mut out);
        0x1234u16.encode(&mut out);
        0xdead_beefu32.encode(&mut out);
        0x0123_4567_89ab_cdefu64.encode(&mut out);
        true.encode(&mut out);
        let mut r = Reader(&out);
        assert_eq!(r.get(), Ok(0xabu8));
        assert_eq!(r.get(), Ok(0x1234u16));
        assert_eq!(r.get(), Ok(0xdead_beefu32));
        assert_eq!(r.get(), Ok(0x0123_4567_89ab_cdefu64));
        assert_eq!(r.get(), Ok(true));
        assert!(r.0.is_empty());
        assert_eq!(r.get::<u8>(), Err(DecodeError::Truncated));
    }

    #[test]
    fn little_endian_on_the_wire() {
        assert_eq!(0x0403_0201u32.to_wire(), [1, 2, 3, 4]);
    }

    #[test]
    fn bool_bytes_other_than_0_and_1_are_rejected() {
        assert_eq!(bool::decode(&[0]), Ok((false, 1)));
        assert_eq!(bool::decode(&[1]), Ok((true, 1)));
        assert_eq!(bool::decode(&[2]), Err(DecodeError::UnknownKind(2)));
        assert_eq!(bool::decode(&[0xff]), Err(DecodeError::UnknownKind(0xff)));
    }

    #[test]
    fn length_prefix_is_validated_before_allocation() {
        // Prefix claims 2^32-1 8-byte elements in a 12-byte buffer.
        let mut buf = u32::MAX.to_wire();
        0u64.encode(&mut buf);
        assert_eq!(Vec::<u64>::decode(&buf), Err(DecodeError::LengthOverflow));
    }

    #[test]
    fn body_is_counted_without_being_written_and_skipped_without_a_copy() {
        let mut n = 0u64;
        n.body(1 << 40);
        assert_eq!(n, 1 << 40);
        let mut out = vec![7u8];
        out.body(3);
        assert_eq!(out, [7, 0, 0, 0]);
        let mut r = Reader(&out);
        assert_eq!(r.skip_body(5), Err(DecodeError::LengthOverflow));
        assert_eq!(r.skip_body(u64::MAX), Err(DecodeError::LengthOverflow));
        assert_eq!(r.skip_body(4), Ok(()));
        assert!(r.0.is_empty());
    }

    #[test]
    fn vec_and_option_round_trip() {
        let v: Vec<u64> = vec![1, u64::MAX, 42];
        let (back, used) = Vec::<u64>::decode(&v.to_wire()).unwrap();
        assert_eq!(back, v);
        assert_eq!(used as u64, v.encoded_len());

        let some: Option<u32> = Some(7);
        let none: Option<u32> = None;
        assert_eq!(Option::<u32>::decode(&some.to_wire()).unwrap().0, some);
        assert_eq!(Option::<u32>::decode(&none.to_wire()).unwrap().0, none);
        assert_eq!(
            Option::<u32>::decode(&[9u8]),
            Err(DecodeError::UnknownKind(9))
        );
    }

    #[test]
    fn a_shared_value_encodes_as_the_value() {
        let shared = Arc::new(0x0123_4567_89ab_cdefu64);
        assert_eq!(shared.to_wire(), 0x0123_4567_89ab_cdefu64.to_wire());
        assert_eq!(shared.encoded_len(), 8);
        let (back, used) = Arc::<u64>::decode(&shared.to_wire()).unwrap();
        assert_eq!((back, used), (shared, 8));
    }

    #[test]
    fn a_boxed_value_encodes_as_the_value() {
        assert_eq!(Box::<Signature>::MIN_WIRE_LEN, Signature::MIN_WIRE_LEN);
        let boxed = Box::new(0x0123_4567_89ab_cdefu64);
        assert_eq!(boxed.to_wire(), 0x0123_4567_89ab_cdefu64.to_wire());
        assert_eq!(Box::<u64>::decode(&boxed.to_wire()), Ok((boxed, 8)));
    }

    #[test]
    fn crypto_handles_round_trip() {
        let d = Digest256([7u8; 32]);
        assert_eq!(Digest256::decode(&d.to_wire()).unwrap(), (d, 32));
        let d = Digest160([9u8; 20]);
        assert_eq!(Digest160::decode(&d.to_wire()).unwrap(), (d, 20));
        let sig = Signature {
            commitment: U256([1, 2, 3, 4]),
            response: U256([5, 6, 7, 8]),
        };
        let (back, used) = Signature::decode(&sig.to_wire()).unwrap();
        assert_eq!(
            (back.commitment, back.response, used),
            (sig.commitment, sig.response, 64)
        );
        let op = OpId(77);
        assert_eq!(OpId::decode(&op.to_wire()).unwrap(), (op, 8));
    }
}
