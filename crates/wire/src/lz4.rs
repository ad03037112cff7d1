//! In-tree LZ4-style block compression — the v3 frame codec behind
//! [`Compression::Lz4Like`](crate::frame::Compression).
//!
//! The build environment has no registry access, so this is a
//! self-contained implementation of the classic LZ77 token scheme LZ4
//! uses: a byte stream of *sequences*, each a literal run followed by a
//! back-reference copy.
//!
//! ```text
//! sequence := token  [lit-ext ...]  literals  offset:u16le  [match-ext ...]
//! token    := (literal_len min 15) << 4  |  (match_len - 4 min 15)
//! ext      := 255* final          -- 255 bytes continue the length
//! ```
//!
//! The final sequence carries literals only (no offset/match). Matches
//! are found with a greedy hash-chain searcher: a hash of every 4-byte
//! prefix heads a per-position chain, and the longest of the first
//! 16 candidates (`MAX_PROBES`) within the 64 KiB offset window wins. The
//! hash table is sized to the input, from 2^8 entries up to 2^15 for
//! inputs of 32 KiB or more, so a ~300 B reply frame does not fill a
//! 128 KiB table. The decompressor is fully bounds-checked — corrupt input
//! yields a typed [`WireError`], never a panic or out-of-bounds copy —
//! and round-trips are byte-exact (pinned by `tests/wire_roundtrip.rs`).

use crate::codec::{len_to_u32, u32_to_usize};
use crate::{WireError, MAX_FRAME_BYTES};

/// Shortest back-reference worth encoding (the token's match nibble is
/// biased by this).
pub const MIN_MATCH: usize = 4;
/// Furthest back a match may reach (u16 offset).
pub const MAX_OFFSET: usize = 65_535;
/// The final bytes of a block are always literals, so the decompressor
/// can copy matches without overrunning its output tail.
const LAST_LITERALS: usize = 5;
/// Hash table size bounds, as bit counts: 2^8 to 2^15 entries.
const MIN_HASH_BITS: u32 = 8;
const MAX_HASH_BITS: u32 = 15;
/// Hash-chain candidates examined per position; greedy, so the first
/// longest match wins.
const MAX_PROBES: usize = 16;

/// Bits of hash for an input of `len` bytes: about one table entry per
/// input byte, within [`MIN_HASH_BITS`]..=[`MAX_HASH_BITS`].
fn hash_bits(len: usize) -> u32 {
    len.next_power_of_two()
        .trailing_zeros()
        .clamp(MIN_HASH_BITS, MAX_HASH_BITS)
}

#[inline]
fn hash4(v: u32, bits: u32) -> usize {
    // Knuth multiplicative hash over the 4-byte window.
    u32_to_usize(v.wrapping_mul(2_654_435_761) >> (32 - bits))
}

#[inline]
fn read_u32(src: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([src[i], src[i + 1], src[i + 2], src[i + 3]])
}

/// Compress `src`. Always succeeds; incompressible input simply comes
/// out slightly larger (one token per 255-byte literal run), which the
/// frame writer detects and ships uncompressed instead.
#[must_use]
pub fn compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    if src.len() <= MIN_MATCH + LAST_LITERALS {
        emit(&mut out, src, None);
        return out;
    }
    // Matches may extend up to here; the tail stays literal.
    let match_limit = src.len() - LAST_LITERALS;
    let bits = hash_bits(src.len());
    let mut head = vec![u32::MAX; 1 << bits];
    let mut chain = vec![u32::MAX; src.len()];
    let mut anchor = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= match_limit {
        let h = hash4(read_u32(src, i), bits);
        let (mut best_len, mut best_pos) = (0usize, 0usize);
        let mut cand = head[h];
        let mut probes = 0;
        while cand != u32::MAX && probes < MAX_PROBES {
            let c = u32_to_usize(cand);
            if i - c > MAX_OFFSET {
                break; // chains are position-ordered: older is farther
            }
            let mut len = 0;
            while i + len < match_limit && src[c + len] == src[i + len] {
                len += 1;
            }
            if len > best_len {
                (best_len, best_pos) = (len, c);
            }
            cand = chain[c];
            probes += 1;
        }
        chain[i] = head[h];
        head[h] = len_to_u32(i);
        if best_len >= MIN_MATCH {
            emit(&mut out, &src[anchor..i], Some((i - best_pos, best_len)));
            let end = i + best_len;
            // Index the match interior so later data can reference it.
            // Cap the work on very long matches — by then the window is
            // saturated with this pattern anyway.
            let insert_end = end.min(i + 64);
            let mut p = i + 1;
            while p + MIN_MATCH <= match_limit && p < insert_end {
                let hp = hash4(read_u32(src, p), bits);
                chain[p] = head[hp];
                head[hp] = len_to_u32(p);
                p += 1;
            }
            i = end;
            anchor = end;
        } else {
            i += 1;
        }
    }
    emit(&mut out, &src[anchor..], None);
    out
}

/// Append one sequence: `literals`, then (unless final) a match of
/// `len` bytes starting `offset` back.
fn emit(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_len = literals.len();
    let match_code = m.map_or(0, |(_, len)| len - MIN_MATCH);
    out.push(((lit_len.min(15) as u8) << 4) | match_code.min(15) as u8);
    if lit_len >= 15 {
        write_ext(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, _)) = m {
        debug_assert!((1..=MAX_OFFSET).contains(&offset));
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if match_code >= 15 {
            write_ext(out, match_code - 15);
        }
    }
}

fn write_ext(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

fn read_ext(src: &[u8], i: &mut usize) -> Result<usize, WireError> {
    let mut total = 0usize;
    loop {
        let b = *src
            .get(*i)
            .ok_or_else(|| WireError::corrupt("length extension past end of block"))?;
        *i += 1;
        total += usize::from(b);
        if b != 255 {
            return Ok(total);
        }
    }
}

/// Decompress a block produced by [`compress`] into exactly `raw_len`
/// bytes.
///
/// # Errors
/// [`WireError::Corrupt`] on any malformed input: lengths past the end
/// of the block, offsets before the start of the output, or an output
/// that does not land on exactly `raw_len` bytes. Never panics.
pub fn decompress(src: &[u8], raw_len: usize) -> Result<Vec<u8>, WireError> {
    // Callers validate raw_len against the frame header, but this is a
    // public entry point — cap the up-front allocation regardless.
    let mut out: Vec<u8> = Vec::with_capacity(raw_len.min(MAX_FRAME_BYTES));
    let mut i = 0usize;
    if src.is_empty() && raw_len != 0 {
        return Err(WireError::corrupt("empty block for non-empty payload"));
    }
    while i < src.len() {
        let token = src[i];
        i += 1;
        // Literal run.
        let mut lit_len = usize::from(token >> 4);
        if lit_len == 15 {
            lit_len += read_ext(src, &mut i)?;
        }
        if lit_len > src.len() - i {
            return Err(WireError::corrupt("literal run past end of block"));
        }
        if out.len() + lit_len > raw_len {
            return Err(WireError::corrupt(
                "literals exceed declared payload length",
            ));
        }
        out.extend_from_slice(&src[i..i + lit_len]);
        i += lit_len;
        if i == src.len() {
            break; // final sequence: literals only
        }
        // Back-reference copy.
        if src.len() - i < 2 {
            return Err(WireError::corrupt("truncated match offset"));
        }
        let offset = usize::from(u16::from_le_bytes([src[i], src[i + 1]]));
        i += 2;
        if offset == 0 || offset > out.len() {
            return Err(WireError::corrupt("match offset outside produced output"));
        }
        let mut match_len = usize::from(token & 0x0F);
        if match_len == 15 {
            match_len += read_ext(src, &mut i)?;
        }
        match_len += MIN_MATCH;
        if out.len() + match_len > raw_len {
            return Err(WireError::corrupt("match exceeds declared payload length"));
        }
        // Byte-at-a-time because the regions may overlap (offset <
        // match_len encodes a repeating pattern).
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
    if out.len() != raw_len {
        return Err(WireError::corrupt(format!(
            "decompressed to {} bytes, header declared {raw_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let packed = compress(data);
        let back = decompress(&packed, data.len()).expect("valid block");
        assert_eq!(back, data);
        packed
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(roundtrip(b"").len() <= 1);
        roundtrip(b"a");
        roundtrip(b"abcd");
        roundtrip(b"abcdefgh");
    }

    #[test]
    fn repetitive_input_shrinks_hard() {
        let data = b"what-if what-if what-if what-if what-if ".repeat(64);
        let packed = roundtrip(&data);
        assert!(
            packed.len() * 10 < data.len(),
            "{} vs {}",
            packed.len(),
            data.len()
        );
    }

    #[test]
    fn all_equal_bytes_use_overlapping_matches() {
        let data = vec![0x42u8; 100_000];
        let packed = roundtrip(&data);
        assert!(
            packed.len() < 512,
            "run-length case: {} bytes",
            packed.len()
        );
    }

    #[test]
    fn incompressible_input_grows_only_slightly() {
        // A xorshift stream: no 4-byte window repeats within 64 KiB.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        let packed = roundtrip(&data);
        assert!(packed.len() < data.len() + data.len() / 128 + 16);
    }

    #[test]
    fn columnar_f64_grids_compress() {
        // The target workload: an f64 column with heavily repeated
        // values (a percentage lattice).
        let mut col = Vec::new();
        for i in 0..20_000 {
            let v = -50.0 + (i % 29) as f64 * 5.0;
            col.extend_from_slice(&f64::to_le_bytes(v));
        }
        let packed = roundtrip(&col);
        assert!(
            packed.len() * 4 < col.len(),
            "lattice column: {} of {}",
            packed.len(),
            col.len()
        );
    }

    #[test]
    fn long_matches_and_long_literal_runs_take_the_ext_path() {
        // >15 literal bytes then a >19-byte match forces both ext encodings.
        let mut data = Vec::new();
        data.extend_from_slice(b"0123456789abcdefghij-UNIQUE-PREFIX-");
        let pattern = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        data.extend_from_slice(&pattern.repeat(40));
        roundtrip(&data);
    }

    #[test]
    fn corrupt_blocks_error_never_panic() {
        let data = b"hello hello hello hello hello hello".repeat(10);
        let packed = compress(&data);
        // Wrong declared length, both directions.
        assert!(decompress(&packed, data.len() + 1).is_err());
        assert!(decompress(&packed, data.len().saturating_sub(1)).is_err());
        // Truncations at every boundary.
        for cut in 0..packed.len() {
            let _ = decompress(&packed[..cut], data.len());
        }
        // Single-byte corruptions.
        for flip in 0..packed.len() {
            let mut bad = packed.clone();
            bad[flip] ^= 0xFF;
            let _ = decompress(&bad, data.len());
        }
        // Hand-built: offset of zero.
        let bad = [0x04u8, b'a', b'b', b'c', b'd', 0, 0];
        assert!(decompress(&bad, 100).is_err());
        // Hand-built: offset beyond output produced so far.
        let bad = [0x14u8, b'a', 9, 0];
        assert!(decompress(&bad, 100).is_err());
    }
}
