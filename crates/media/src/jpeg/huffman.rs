//! Canonical Huffman coding with the ITU-T T.81 Annex K.3 tables.
//!
//! JPEG Huffman tables are defined by `bits[l]` (number of codes of length
//! `l+1`) and `huffval` (symbols in code order). Encoding uses a flat
//! symbol → (code, length) table; decoding uses the canonical
//! mincode/maxcode/valptr method of the spec (F.2.2.3), behind a combined
//! table that yields a short code *and* the magnitude after it in one hit.
//! The hit is indexed straight off the bit reader's accumulator, which is
//! refilled only when fewer than 32 valid bits remain
//! ([`BitReader::peek`]): per symbol one shift, one load and one variable
//! shift feed the next index, and nothing else is in that chain.

use super::bitio::{extend, BitReader, BitWriter};
use super::quant::Channel;

/// A Huffman table specification: (bits, huffval).
pub struct TableSpec {
    pub bits: [u8; 16],
    pub values: &'static [u8],
}

/// Annex K.3.1: DC luminance.
pub const DC_LUMA: TableSpec = TableSpec {
    bits: [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    values: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
};

/// Annex K.3.2: DC chrominance.
pub const DC_CHROMA: TableSpec = TableSpec {
    bits: [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    values: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
};

/// Annex K.3.3: AC luminance.
pub const AC_LUMA: TableSpec = TableSpec {
    bits: [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 125],
    values: &[
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61,
        0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08, 0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52,
        0xd1, 0xf0, 0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x25,
        0x26, 0x27, 0x28, 0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44, 0x45,
        0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63, 0x64,
        0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x83,
        0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99,
        0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
        0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2, 0xd3,
        0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8,
        0xe9, 0xea, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa,
    ],
};

/// Annex K.3.4: AC chrominance.
pub const AC_CHROMA: TableSpec = TableSpec {
    bits: [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 119],
    values: &[
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61,
        0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33,
        0x52, 0xf0, 0x15, 0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34, 0xe1, 0x25, 0xf1, 0x17, 0x18,
        0x19, 0x1a, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44,
        0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63,
        0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a,
        0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97,
        0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
        0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca,
        0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7,
        0xe8, 0xe9, 0xea, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa,
    ],
};

/// Encoder side: symbol → (code, length).
pub struct Encoder {
    code: [u16; 256],
    size: [u8; 256],
}

impl Encoder {
    pub fn new(spec: &TableSpec) -> Self {
        let mut enc = Encoder {
            code: [0; 256],
            size: [0; 256],
        };
        let mut code = 0u16;
        let mut k = 0usize;
        for l in 0..16 {
            for _ in 0..spec.bits[l] {
                let sym = spec.values[k] as usize;
                enc.code[sym] = code;
                enc.size[sym] = (l + 1) as u8;
                code += 1;
                k += 1;
            }
            code <<= 1;
        }
        enc
    }

    /// Emit the code for `symbol`.
    pub fn put(&self, w: &mut BitWriter, symbol: u8) {
        let size = self.size[symbol as usize];
        assert!(size > 0, "symbol {symbol:#04x} not in table");
        w.put(self.code[symbol as usize] as u32, size as u32);
    }
}

/// Decoder side: canonical mincode/maxcode/valptr (T.81 F.2.2.3), with a
/// first-level lookup table for codes of ≤ [`LUT_BITS`] bits (every code
/// the Annex K tables emit at typical qualities), and in front of it the
/// combined table of [`get_extended`](Self::get_extended).
pub struct Decoder {
    mincode: [i32; 17],
    maxcode: [i32; 17],
    valptr: [usize; 17],
    values: &'static [u8],
    /// `lut[p]` for an 8-bit peek `p`: `(len << 8) | symbol` when the top
    /// bits of `p` are a complete code of `len ≤ 8` bits, else 0.
    lut: [u16; 1 << LUT_BITS],
    /// `fast[p]` for a [`FAST_BITS`]-bit peek `p`: when the top bits of
    /// `p` are a complete code *and* the `symbol & 0x0F` magnitude bits
    /// behind it, `(extended value << 16) | (symbol << 8) | bits used`;
    /// else 0.
    fast: [u32; 1 << FAST_BITS],
}

/// Width of the decoder's first-level lookup table.
pub const LUT_BITS: u32 = 8;

/// Width of the combined code + magnitude table (4 KiB a decoder): on
/// the shipped 1280×720 inputs at quality 75, 98 % of a scan's symbols —
/// DC categories, run/size pairs and end-of-blocks alike — fit.
pub const FAST_BITS: u32 = 10;

impl Decoder {
    pub fn new(spec: &TableSpec) -> Self {
        let mut d = Decoder {
            mincode: [0; 17],
            maxcode: [-1; 17],
            valptr: [0; 17],
            values: spec.values,
            lut: [0; 1 << LUT_BITS],
            fast: [0; 1 << FAST_BITS],
        };
        let mut code = 0i32;
        let mut k = 0usize;
        for l in 1..=16 {
            let n = spec.bits[l - 1] as i32;
            if n > 0 {
                d.valptr[l] = k;
                d.mincode[l] = code;
                code += n;
                d.maxcode[l] = code - 1;
                k += n as usize;
            } else {
                d.maxcode[l] = -1;
            }
            code <<= 1;
        }
        // first-level LUT: every 8-bit pattern starting with a short code
        // maps straight to (length, symbol)
        for l in 1..=LUT_BITS as usize {
            if d.maxcode[l] < 0 {
                continue;
            }
            for code in d.mincode[l]..=d.maxcode[l] {
                let sym = d.values[d.valptr[l] + (code - d.mincode[l]) as usize];
                let base = (code as usize) << (LUT_BITS as usize - l);
                for tail in 0..1usize << (LUT_BITS as usize - l) {
                    d.lut[base | tail] = ((l as u16) << 8) | sym as u16;
                }
            }
        }
        // combined table: every pattern that starts with a code and the
        // whole magnitude field it announces
        for l in 1..=FAST_BITS as usize {
            for code in d.mincode[l]..=d.maxcode[l] {
                let sym = d.values[d.valptr[l] + (code - d.mincode[l]) as usize];
                let size = (sym & 0x0F) as usize;
                let Some(spare) = (FAST_BITS as usize).checked_sub(l + size) else {
                    continue;
                };
                for mag in 0..1u32 << size {
                    let value = extend(mag, size as u32) as i16;
                    let entry = (value as u16 as u32) << 16 | (sym as u32) << 8 | (l + size) as u32;
                    let base = ((code as usize) << size | mag as usize) << spare;
                    d.fast[base..base + (1 << spare)].fill(entry);
                }
            }
        }
        d
    }

    /// The Annex-K `(DC, AC)` decoders of `channel`, built once per
    /// process: a scan borrows its tables, it does not rebuild them.
    pub fn annex_k(channel: Channel) -> (&'static Decoder, &'static Decoder) {
        use std::sync::OnceLock;
        static LUMA: OnceLock<(Decoder, Decoder)> = OnceLock::new();
        static CHROMA: OnceLock<(Decoder, Decoder)> = OnceLock::new();
        let (dc, ac) = match channel {
            Channel::Luma => LUMA.get_or_init(|| (Decoder::new(&DC_LUMA), Decoder::new(&AC_LUMA))),
            Channel::Chroma => {
                CHROMA.get_or_init(|| (Decoder::new(&DC_CHROMA), Decoder::new(&AC_CHROMA)))
            }
        };
        (dc, ac)
    }

    /// Decode one symbol and the `symbol & 0x0F`-bit magnitude field that
    /// follows it (an AC run/size symbol's value, a DC category's
    /// difference): `(symbol, extended value)`.
    ///
    /// One table hit when code and magnitude fit in [`FAST_BITS`] bits
    /// together, indexed straight off the reader's accumulator
    /// ([`BitReader::peek`]: no refill while 32 valid bits remain, so two
    /// or three symbols share one); longer codes and wider magnitudes
    /// take [`get`](Self::get), [`BitReader::bits`] and [`extend`] — the
    /// sequence the table was built from.
    ///
    /// # Panics
    /// On a code longer than 16 bits (corrupt stream).
    #[inline(always)]
    pub fn get_extended(&self, r: &mut BitReader<'_>) -> (u8, i32) {
        let e = self.fast[r.peek(FAST_BITS) as usize];
        if e != 0 {
            r.consume(e & 0xFF);
            return ((e >> 8) as u8, e as i32 >> 16);
        }
        let (sym, value);
        (*r, sym, value) = self.get_extended_slow(r.clone());
        (sym, value)
    }

    /// The table miss of [`get_extended`](Self::get_extended): out of
    /// line, and the reader by value, so that the hit inlines into the
    /// block loop and the reader's state stays in registers there.
    #[cold]
    fn get_extended_slow<'a>(&self, mut r: BitReader<'a>) -> (BitReader<'a>, u8, i32) {
        let sym = self.get(&mut r);
        let size = (sym & 0x0F) as u32;
        let value = extend(r.bits(size), size);
        (r, sym, value)
    }

    /// Decode one symbol.
    ///
    /// Fast path: peek [`LUT_BITS`] bits, one table hit. Slow path (codes
    /// of 9..=16 bits): compare the 16-bit peek against `maxcode` per
    /// length — bit-for-bit the canonical F.2.2.3 walk, without touching
    /// the reader per bit. Both lean on the [`BitReader`] refill
    /// invariant: a peek always yields 16 valid bits (1s past the end).
    ///
    /// # Panics
    /// On a code longer than 16 bits (corrupt stream).
    pub fn get(&self, r: &mut BitReader<'_>) -> u8 {
        let peek = r.peek16();
        let e = self.lut[(peek >> (16 - LUT_BITS)) as usize];
        if e != 0 {
            r.consume((e >> 8) as u32);
            return e as u8;
        }
        let mut l = LUT_BITS as usize + 1;
        loop {
            assert!(l <= 16, "corrupt Huffman stream: code longer than 16 bits");
            let code = (peek >> (16 - l)) as i32;
            if code <= self.maxcode[l] {
                r.consume(l as u32);
                return self.values[self.valptr[l] + (code - self.mincode[l]) as usize];
            }
            l += 1;
        }
    }

    /// The canonical bit-at-a-time decode (T.81 F.2.2.3) — the behavioral
    /// reference [`get`](Self::get) must match symbol for symbol; kept for
    /// the parity tests.
    ///
    /// # Panics
    /// On a code longer than 16 bits (corrupt stream).
    pub fn get_bitwise(&self, r: &mut super::bitio::reference::BitReader<'_>) -> u8 {
        let mut code = r.bit() as i32;
        let mut l = 1usize;
        while code > self.maxcode[l] {
            l += 1;
            assert!(l <= 16, "corrupt Huffman stream: code longer than 16 bits");
            code = (code << 1) | r.bit() as i32;
        }
        self.values[self.valptr[l] + (code - self.mincode[l]) as usize]
    }
}

/// The AC end-of-block symbol.
pub const EOB: u8 = 0x00;
/// The AC "run of 16 zeros" symbol.
pub const ZRL: u8 = 0xF0;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_symbols(spec: &TableSpec, symbols: &[u8]) {
        let enc = Encoder::new(spec);
        let dec = Decoder::new(spec);
        let mut w = BitWriter::new();
        for &s in symbols {
            enc.put(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in symbols {
            assert_eq!(dec.get(&mut r), s);
        }
    }

    #[test]
    fn dc_luma_roundtrip() {
        roundtrip_symbols(&DC_LUMA, &[0, 1, 2, 3, 11, 5, 0, 0, 7]);
    }

    #[test]
    fn dc_chroma_roundtrip() {
        roundtrip_symbols(&DC_CHROMA, &[0, 11, 1, 10, 2, 9]);
    }

    #[test]
    fn ac_tables_roundtrip_every_symbol() {
        for spec in [&AC_LUMA, &AC_CHROMA] {
            let all: Vec<u8> = spec.values.to_vec();
            roundtrip_symbols(spec, &all);
        }
    }

    #[test]
    fn combined_table_is_get_bits_extend_on_the_same_bits() {
        for spec in [&DC_LUMA, &DC_CHROMA, &AC_LUMA, &AC_CHROMA] {
            let dec = Decoder::new(spec);
            let enc = Encoder::new(spec);
            let mut hits = 0;
            // every prefix, followed by 0-bits and by 1-bits
            for p in 0..1u32 << FAST_BITS {
                for tail in [0, u32::MAX >> FAST_BITS] {
                    let word = p << (32 - FAST_BITS) | tail;
                    let entry = dec.fast[p as usize];
                    let no_code = (1..=16).all(|l| (word >> (32 - l)) as i32 > dec.maxcode[l]);
                    if no_code {
                        assert_eq!(entry, 0, "prefix {p:#012b} starts no code");
                        continue;
                    }
                    let bytes = word.to_be_bytes();
                    let mut r = BitReader::new(&bytes);
                    let sym = dec.get(&mut r);
                    let size = (sym & 0x0F) as u32;
                    let value = extend(r.bits(size), size);
                    let used = enc.size[sym as usize] as u32 + size;
                    let want = if used <= FAST_BITS {
                        hits += 1;
                        (value as u16 as u32) << 16 | (sym as u32) << 8 | used
                    } else {
                        0
                    };
                    assert_eq!(entry, want, "prefix {p:#012b}, symbol {sym:#04x}");
                    let mut r = BitReader::new(&bytes);
                    assert_eq!(dec.get_extended(&mut r), (sym, value));
                }
            }
            assert!(hits > 1 << FAST_BITS, "most prefixes hit: {hits}");
        }
    }

    /// `get_extended` refills lazily, so what it sees depends on how many
    /// valid bits the reads before it left: after any mix of `bits` and
    /// `peek16` / `consume` it must decode what `get` + `bits` + `extend`
    /// decode from a reader taken through the same mix.
    #[test]
    fn get_extended_after_other_reads_sees_the_same_bits() {
        for spec in [&DC_LUMA, &DC_CHROMA, &AC_LUMA, &AC_CHROMA] {
            let (enc, dec) = (Encoder::new(spec), Decoder::new(spec));
            let mut seed = 0x2545_F491_4F6C_DD1Du64;
            let mut next = move || {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u32
            };
            // (symbol or none for a raw field, width, value)
            let mut fields = Vec::new();
            let mut w = BitWriter::new();
            for _ in 0..4000 {
                let x = next();
                if x % 3 != 0 {
                    // mostly the short codes, whose hits come in runs
                    let among = if x & 4 == 0 { spec.values.len() } else { 8 };
                    let sym = spec.values[(x >> 8) as usize % among];
                    let size = (sym & 0x0F) as u32;
                    let mag = next() & ((1 << size) - 1);
                    enc.put(&mut w, sym);
                    w.put(mag, size);
                    fields.push((Some(sym), size, extend(mag, size)));
                } else {
                    let n = 1 + (x >> 8) % 24;
                    let raw = next() & ((1 << n) - 1);
                    w.put(raw, n);
                    fields.push((None, n, raw as i32));
                }
            }
            let bytes = w.finish();
            let (mut lazy, mut eager) = (BitReader::new(&bytes), BitReader::new(&bytes));
            for (i, &(sym, n, value)) in fields.iter().enumerate() {
                let Some(sym) = sym else {
                    if n <= 16 && i % 2 == 0 {
                        assert_eq!(lazy.peek16() >> (16 - n), value as u32);
                        lazy.consume(n);
                    } else {
                        assert_eq!(lazy.bits(n), value as u32);
                    }
                    assert_eq!(eager.bits(n), value as u32);
                    continue;
                };
                assert_eq!(dec.get_extended(&mut lazy), (sym, value), "field {i}");
                assert_eq!(dec.get(&mut eager), sym);
                assert_eq!(extend(eager.bits(n), n), value);
            }
        }
    }

    #[test]
    fn table_sizes_match_annex_k() {
        assert_eq!(DC_LUMA.values.len(), 12);
        assert_eq!(AC_LUMA.values.len(), 162);
        assert_eq!(AC_CHROMA.values.len(), 162);
        assert_eq!(
            DC_LUMA.bits.iter().map(|&b| b as usize).sum::<usize>(),
            DC_LUMA.values.len()
        );
        assert_eq!(
            AC_LUMA.bits.iter().map(|&b| b as usize).sum::<usize>(),
            AC_LUMA.values.len()
        );
        assert_eq!(
            AC_CHROMA.bits.iter().map(|&b| b as usize).sum::<usize>(),
            AC_CHROMA.values.len()
        );
    }

    #[test]
    fn known_code_dc_luma() {
        // In K.3.1, symbol 0 has the 2-bit code 00 (first code of length 2).
        let enc = Encoder::new(&DC_LUMA);
        let mut w = BitWriter::new();
        enc.put(&mut w, 0);
        assert_eq!(w.bit_len(), 2);
        let bytes = w.finish();
        assert_eq!(bytes[0] >> 6, 0b00);
    }

    #[test]
    fn eob_is_4_bits_in_ac_luma() {
        // K.3.3: EOB (0x00) has code 1010 (4 bits).
        let enc = Encoder::new(&AC_LUMA);
        let mut w = BitWriter::new();
        enc.put(&mut w, EOB);
        assert_eq!(w.bit_len(), 4);
        let bytes = w.finish();
        assert_eq!(bytes[0] >> 4, 0b1010);
    }
}
