//! The snapshot line codec: one encoder with two sinks, and its reader.
//!
//! Machine snapshots are plain ASCII lines of space-separated fields — a
//! keyword, then decimal numbers. Every line format has one renderer,
//! generic over a [`Sink`]: rendered into a `Vec<u8>` it is the snapshot
//! text (checkpoints, handoffs, migrations); rendered into a
//! [`Fnv1a`] it is the state digest of that text, with no text ever held.
//! [`Fields`] is the reader side: the same fields back off a line, without
//! going through `str::parse`.

use crate::chaos::Fnv1a;

/// A consumer of rendered snapshot bytes (always ASCII).
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for Fnv1a {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }
}

/// Renders through `write` into a fresh `String` (snapshot text is ASCII
/// by construction, checked once over the whole buffer).
pub fn render(write: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut bytes = Vec::new();
    write(&mut bytes);
    String::from_utf8(bytes).expect("snapshot text is ASCII")
}

/// `"00".."99"`, two digits per entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Longest field: a space and the 20 digits of `u64::MAX`.
const FIELD_MAX: usize = 21;

/// Appends one space and `x` in decimal (the bytes of `format!(" {x}")`):
/// a numeric field of a line. Two digits per step, no `fmt`.
#[inline]
pub fn put_field<S: Sink + ?Sized>(s: &mut S, mut x: u64) {
    let mut buf = [b' '; FIELD_MAX];
    let mut at = FIELD_MAX;
    while x >= 100 {
        let pair = (x % 100) as usize * 2;
        x /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if x >= 10 {
        let pair = x as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + x as u8;
    }
    s.put(&buf[at - 1..]);
}

/// A key under which `u32`s sort as their renderings `format!("{x} ")` do
/// as byte strings — the order a text sort puts the id fields of snapshot
/// lines in. The digits sit left-aligned in a ten-digit field (so the first
/// differing digit decides, and a missing digit reads as `0`), with the
/// length as tie-break: a shorter number that is a prefix of a longer one
/// is followed by the space, and `' ' < '0'`.
#[inline]
pub fn dec_order_key(x: u32) -> u64 {
    let len = x.checked_ilog10().map_or(1, |l| l + 1);
    (x as u64 * 10u64.pow(10 - len)) << 4 | len as u64
}

/// Parses an unsigned decimal field: digits only, no sign, no overflow.
#[inline]
fn read_dec(field: &[u8]) -> Option<u64> {
    // Up to 19 digits cannot overflow; `u64::MAX` has 20.
    if field.is_empty() || field.len() > 20 {
        return None;
    }
    let mut x = 0u64;
    for &b in &field[..field.len().min(19)] {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        x = x * 10 + d as u64;
    }
    if let Some(&b) = field.get(19) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        x = x.checked_mul(10)?.checked_add(d as u64)?;
    }
    Some(x)
}

/// Cursor over the space-separated fields of one snapshot line.
/// Snapshots are produced by this code, so a missing, malformed or
/// out-of-range field is a transfer-layer bug and panics.
#[derive(Clone, Copy, Debug)]
pub struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    /// The fields of `line`.
    pub fn new(line: &'a str) -> Self {
        Fields(line.as_bytes())
    }

    /// The next field as raw bytes; `None` at the end of the line. Fields
    /// are separated by spaces (any byte up to `b' '` separates, so a stray
    /// `\r` or tab cannot hide inside a number).
    #[inline]
    pub fn word(&mut self) -> Option<&'a [u8]> {
        let start = self.0.iter().position(|&b| b > b' ')?;
        let rest = &self.0[start..];
        let end = rest.iter().position(|&b| b <= b' ').unwrap_or(rest.len());
        self.0 = &rest[end..];
        Some(&rest[..end])
    }

    /// The next field as a decimal number; `None` at the end of the line.
    #[inline]
    pub fn next_dec<T: TryFrom<u64>>(&mut self) -> Option<T> {
        let start = self.0.iter().position(|&b| b > b' ')?;
        let rest = &self.0[start..];
        // One pass over the digits; up to 19 of them cannot overflow.
        let (mut x, mut len) = (0u64, 0);
        while len < 19 {
            match rest.get(len).map(|b| b.wrapping_sub(b'0')) {
                Some(d @ 0..=9) => x = x * 10 + d as u64,
                _ => break,
            }
            len += 1;
        }
        if len == 0 || rest.get(len).is_some_and(|&b| b > b' ') {
            // A twentieth digit, or not a number at all: the checked parse.
            self.0 = rest;
            let field = self.word()?;
            x = read_dec(field).unwrap_or_else(|| {
                panic!(
                    "malformed decimal field {:?} in a snapshot line",
                    String::from_utf8_lossy(field)
                )
            });
        } else {
            self.0 = &rest[len..];
        }
        match T::try_from(x) {
            Ok(x) => Some(x),
            Err(_) => panic!("snapshot field {x} out of range"),
        }
    }

    /// The next field as a decimal number.
    #[inline]
    pub fn dec<T: TryFrom<u64>>(&mut self) -> T {
        self.next_dec()
            .expect("snapshot line ends before its last field")
    }

    /// The next field as a `0`/`1` flag.
    #[inline]
    pub fn flag(&mut self) -> bool {
        self.word()
            .expect("snapshot line ends before its last field")
            == b"1"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every power of ten with its two neighbours, plus the extremes.
    fn decimal_edges() -> Vec<u64> {
        let mut xs = vec![0, u64::MAX];
        for k in 0..20 {
            let p = 10u64.pow(k);
            xs.extend([p - 1, p, p + 1]);
        }
        xs
    }

    #[test]
    fn decimal_writer_equals_to_string() {
        for x in decimal_edges() {
            let mut field = Vec::new();
            put_field(&mut field, x);
            assert_eq!(field, format!(" {x}").into_bytes());
            assert_eq!(field[1..], x.to_string().into_bytes());
            assert_eq!(read_dec(&field[1..]), Some(x));
        }
    }

    #[test]
    fn both_sinks_see_the_same_bytes() {
        let line = |s: &mut dyn Sink| {
            s.put(b"adj");
            for x in decimal_edges() {
                put_field(s, x);
            }
            s.put(b"\n");
        };
        let mut h = Fnv1a::new();
        line(&mut h);
        let text = render(|s| line(s));
        assert_eq!(h.finish(), crate::chaos::fnv1a(text.as_bytes()));
        // Nothing rendered: the digest is the FNV offset basis.
        assert_eq!(render(|_| {}), "");
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn order_key_sorts_like_the_rendered_id_field() {
        let mut by_key: Vec<u32> = vec![
            0,
            1,
            9,
            10,
            11,
            19,
            99,
            100,
            101,
            999_999_999,
            1_000_000_000,
            (1 << 31) - 1,
            1 << 31,
            u32::MAX,
        ];
        // Every length boundary, and prefixes of one another.
        for k in 1..10 {
            let p = 10u32.pow(k);
            by_key.extend([p - 1, p, p + 1, 12 * (p / 10), 4 * p + 2]);
        }
        by_key.sort_unstable();
        by_key.dedup();
        let mut by_text = by_key.clone();
        by_key.sort_unstable_by_key(|&x| dec_order_key(x));
        by_text.sort_unstable_by_key(|x| format!("{x} "));
        assert_eq!(by_key, by_text);
        // The key is injective, so the order above is total.
        let mut keys: Vec<u64> = by_key.iter().map(|&x| dec_order_key(x)).collect();
        keys.dedup();
        assert_eq!(keys.len(), by_key.len());
    }

    #[test]
    fn fields_read_back_what_the_writer_wrote() {
        let text = render(|s| {
            s.put(b"vert");
            put_field(s, 7);
            put_field(s, u32::MAX as u64);
            put_field(s, 1);
            s.put(b" t");
        });
        let mut f = Fields::new(&text);
        assert_eq!(f.word(), Some(&b"vert"[..]));
        assert_eq!(f.dec::<u32>(), 7);
        assert_eq!(f.dec::<u32>(), u32::MAX);
        assert!(f.flag());
        assert_eq!(f.word(), Some(&b"t"[..]));
        assert_eq!(f.next_dec::<u64>(), None);
        let edges = render(|s| decimal_edges().into_iter().for_each(|x| put_field(s, x)));
        let mut f = Fields::new(&edges);
        let back: Vec<u64> = std::iter::from_fn(|| f.next_dec()).collect();
        assert_eq!(back, decimal_edges());
        assert_eq!(read_dec(b""), None);
        assert_eq!(read_dec(b"+1"), None);
        assert_eq!(read_dec(b"18446744073709551616"), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_field_beyond_its_type_is_refused() {
        Fields::new("4294967296").dec::<u32>();
    }

    #[test]
    #[should_panic(expected = "malformed decimal field")]
    fn a_non_decimal_field_is_refused() {
        Fields::new("12x").dec::<u64>();
    }

    #[test]
    #[should_panic(expected = "malformed decimal field")]
    fn a_field_beyond_u64_is_refused() {
        Fields::new("7 18446744073709551616").dec::<u64>();
        Fields::new("18446744073709551616").dec::<u64>();
    }
}
