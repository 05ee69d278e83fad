//! MSB-first bit I/O for the entropy-coded scans.
//!
//! JPEG writes Huffman codes most-significant-bit first. Our scans live in
//! their own container, so no `0xFF` byte stuffing is needed (that is a
//! JFIF framing concern, not part of the entropy computation).

/// MSB-first bit writer.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `value` (n ≤ 24), MSB first.
    pub fn put(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 24);
        if n == 0 {
            return;
        }
        debug_assert!(value < (1u32 << n), "value {value} wider than {n} bits");
        self.acc = (self.acc << n) | (value & ((1u32 << n) - 1));
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Pad the final partial byte with 1-bits (as JPEG does) and return the
    /// bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.acc = (self.acc << pad) | ((1 << pad) - 1);
            self.out.push(self.acc as u8);
            self.nbits = 0;
        }
        self.out
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }
}

/// MSB-first bit reader with a 64-bit refill accumulator.
///
/// ## The refill invariant
///
/// After [`refill`](Self::refill), at least **56 valid bits** sit at the
/// top of the accumulator. Bits past the end of the stream read as 1s
/// (the accumulator refills with `0xFF` bytes), which matches
/// [`BitWriter::finish`]'s padding and makes a truncated stream decode to
/// garbage rather than panic.
///
/// A refill is one unaligned 8-byte load spliced in below the valid bits
/// (`acc |= word >> have`): whole bytes of it are counted, the rest stay
/// in the accumulator uncounted and are OR-ed in again, identical, by the
/// next refill — so the bits below `have` are either zero or already the
/// stream's. Only the last seven bytes of a stream take the byte loop.
///
/// [`bit`](Self::bit) / [`bits`](Self::bits) / [`peek16`](Self::peek16)
/// refill before every read. The hot decode path
/// ([`super::huffman::Decoder::get_extended`]) goes through
/// [`peek`](Self::peek) instead, which refills only when **fewer than 32
/// valid bits** remain: a Huffman code is ≤ 16 bits (enforced by
/// [`super::huffman::Decoder::get`]) and the magnitude field it announces
/// ≤ 15, so 32 bits always hold one whole symbol, and a refill to ≥ 56
/// is shared by the two or three symbols that fit in the 24 bits above
/// that mark. The pre-refill implementation (one bounds check per *bit*)
/// is kept as [`reference::BitReader`], the behavioral twin the parity
/// tests decode against.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte to feed into the accumulator; counts the `0xFF` bytes
    /// fed past the end too, so `8 * pos - have` bits have been consumed.
    pos: usize,
    /// MSB-aligned accumulator: the next unread bit is bit 63.
    acc: u64,
    /// Number of valid bits at the top of `acc` (≤ 63).
    have: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            acc: 0,
            have: 0,
        }
    }

    /// Top up the accumulator to ≥ 56 valid bits (see the type docs for
    /// the invariant). Past-end bytes read as `0xFF`.
    #[inline]
    fn refill(&mut self) {
        let Some(word) = self.data.get(self.pos..self.pos + 8) else {
            *self = self.clone().refill_tail();
            return;
        };
        let word = u64::from_be_bytes(word.try_into().expect("an 8-byte slice"));
        self.acc |= word >> self.have;
        self.pos += ((63 - self.have) >> 3) as usize;
        self.have |= 56;
    }

    /// [`refill`](Self::refill) within eight bytes of the end and past it.
    /// By value, as every out-of-line step of the decode loop is: a reader
    /// whose address is never passed on stays in registers there.
    #[cold]
    fn refill_tail(mut self) -> Self {
        while self.have < 56 {
            let byte = self.data.get(self.pos).copied().unwrap_or(0xFF);
            self.acc |= (byte as u64) << (56 - self.have);
            self.pos += 1;
            self.have += 8;
        }
        self
    }

    /// Next bit; 1-bits past the end (matches the writer's padding, and
    /// makes a truncated stream decode to garbage rather than panicking).
    #[inline]
    pub fn bit(&mut self) -> u32 {
        self.bits(1)
    }

    /// Read `n` bits (n ≤ 24), MSB first.
    #[inline]
    pub fn bits(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 24);
        if n == 0 {
            return 0;
        }
        self.refill();
        let v = (self.acc >> (64 - n)) as u32;
        self.acc <<= n;
        self.have -= n;
        v
    }

    /// Look at the next 16 bits without consuming them (refill-backed;
    /// past-end bits are 1s).
    #[inline]
    pub fn peek16(&mut self) -> u32 {
        self.refill();
        (self.acc >> 48) as u32
    }

    /// Look at the next `n` bits (1 ≤ n ≤ 32) straight off the
    /// accumulator, refilling only when fewer than 32 valid bits remain —
    /// the hot path's peek (see the type docs); past-end bits are 1s.
    #[inline]
    pub fn peek(&mut self, n: u32) -> u32 {
        debug_assert!((1..=32).contains(&n));
        if self.have < 32 {
            self.refill();
        }
        (self.acc >> (64 - n)) as u32
    }

    /// Consume `n` bits previously seen via [`peek16`](Self::peek16) or
    /// [`peek`](Self::peek) (n ≤ 16; the refill invariant guarantees they
    /// are valid).
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= 16 && n <= self.have);
        self.acc <<= n;
        self.have -= n;
    }

    /// Whether the reader consumed all complete bytes.
    pub fn exhausted(&self) -> bool {
        8 * self.pos as u64 - self.have as u64 >= 8 * self.data.len() as u64
    }
}

/// The pre-refill bit reader: one bounds check per bit. Byte-exact
/// behavioral reference for [`BitReader`], kept for the parity tests.
pub mod reference {
    /// MSB-first bit reader (reference implementation).
    #[derive(Debug)]
    pub struct BitReader<'a> {
        data: &'a [u8],
        byte: usize,
        bit: u32,
    }

    impl<'a> BitReader<'a> {
        pub fn new(data: &'a [u8]) -> Self {
            Self {
                data,
                byte: 0,
                bit: 0,
            }
        }

        /// Next bit; 1-bits past the end.
        #[inline]
        pub fn bit(&mut self) -> u32 {
            if self.byte >= self.data.len() {
                return 1;
            }
            let b = (self.data[self.byte] >> (7 - self.bit)) & 1;
            self.bit += 1;
            if self.bit == 8 {
                self.bit = 0;
                self.byte += 1;
            }
            b as u32
        }

        /// Read `n` bits (n ≤ 24), MSB first.
        pub fn bits(&mut self, n: u32) -> u32 {
            let mut v = 0;
            for _ in 0..n {
                v = (v << 1) | self.bit();
            }
            v
        }

        /// Whether the reader consumed all complete bytes.
        pub fn exhausted(&self) -> bool {
            self.byte >= self.data.len()
        }
    }
}

/// JPEG "receive and extend": decode a `size`-bit magnitude into a signed
/// coefficient difference.
#[inline]
pub fn extend(value: u32, size: u32) -> i32 {
    if size == 0 {
        0
    } else if value < (1 << (size - 1)) {
        value as i32 - (1 << size) + 1
    } else {
        value as i32
    }
}

/// JPEG magnitude category of `v` (number of bits needed).
#[inline]
pub fn category(v: i32) -> u32 {
    32 - v.unsigned_abs().leading_zeros()
}

/// The `category(v)`-bit code that [`extend`] maps back to `v`.
#[inline]
pub fn magnitude_bits(v: i32) -> u32 {
    if v >= 0 {
        v as u32
    } else {
        (v - 1) as u32 & ((1 << category(v)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0b0110, 4);
        w.put(0xABC, 12);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(3), 0b101);
        assert_eq!(r.bits(4), 0b0110);
        assert_eq!(r.bits(12), 0xABC);
    }

    #[test]
    fn padding_is_ones() {
        let mut w = BitWriter::new();
        w.put(0, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0111_1111]);
    }

    #[test]
    fn reader_returns_ones_past_end() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.bits(5), 0b11111);
        assert!(r.exhausted());
    }

    #[test]
    fn extend_matches_jpeg_spec() {
        // size 3: values 0..3 → -7..-4; 4..7 → 4..7
        assert_eq!(extend(0, 3), -7);
        assert_eq!(extend(3, 3), -4);
        assert_eq!(extend(4, 3), 4);
        assert_eq!(extend(7, 3), 7);
        assert_eq!(extend(0, 0), 0);
        assert_eq!(extend(1, 1), 1);
        assert_eq!(extend(0, 1), -1);
    }

    #[test]
    fn category_and_magnitude_roundtrip() {
        for v in -1023i32..=1023 {
            if v == 0 {
                assert_eq!(category(0), 0);
                continue;
            }
            let c = category(v);
            let bits = magnitude_bits(v);
            assert!(bits < (1 << c));
            assert_eq!(extend(bits, c), v, "v={v} c={c} bits={bits:b}");
        }
    }

    #[test]
    fn bit_len_tracks() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.put(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.put(0x7f, 7);
        assert_eq!(w.bit_len(), 8);
        w.put(0, 3);
        assert_eq!(w.bit_len(), 11);
    }
}
