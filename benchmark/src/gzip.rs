//! A small gzip *compressor* for the `http_gzip_bulk` request bodies.
//!
//! The workspace vendors an inflater but no deflater, and the workload
//! must hand the monitor bodies that make `inflate` do real work: Huffman
//! decoding and LZ77 back-references, not stored blocks. This emits one
//! fixed-Huffman deflate block with greedy hash-table matching — about
//! the ratio of `gzip -1` on log text. Bodies are compressed before the
//! timed phases, so compressor speed is not measured.

use monilog_core::model::crc32;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;

const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    n: u32,
}

impl BitWriter {
    /// Append `n` bits, least-significant first (deflate's bit order for
    /// everything except Huffman codes).
    fn bits(&mut self, value: u32, n: u32) {
        self.acc |= u64::from(value) << self.n;
        self.n += n;
        while self.n >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.n -= 8;
        }
    }

    /// Append an `n`-bit Huffman code, most-significant bit first.
    fn code(&mut self, code: u32, n: u32) {
        self.bits(code.reverse_bits() >> (32 - n), n);
    }

    /// Literal/length symbol under the fixed code of RFC 1951 §3.2.6.
    fn symbol(&mut self, sym: u32) {
        match sym {
            0..=143 => self.code(0x30 + sym, 8),
            144..=255 => self.code(0x190 + sym - 144, 9),
            256..=279 => self.code(sym - 256, 7),
            _ => self.code(0xC0 + sym - 280, 8),
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.n > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }
}

fn hash3(b: &[u8]) -> usize {
    let v = u32::from(b[0]) | u32::from(b[1]) << 8 | u32::from(b[2]) << 16;
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Raw deflate stream: one final fixed-Huffman block.
fn deflate(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter {
        out: Vec::with_capacity(data.len() / 3 + 16),
        acc: 0,
        n: 0,
    };
    w.bits(1, 1); // BFINAL
    w.bits(1, 2); // BTYPE = fixed Huffman
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    while i < data.len() {
        let mut match_len = 0usize;
        let mut match_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash3(&data[i..]);
            let cand = head[h];
            head[h] = i;
            if cand != usize::MAX && i - cand <= WINDOW {
                let max = MAX_MATCH.min(data.len() - i);
                let mut l = 0;
                while l < max && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l >= MIN_MATCH {
                    match_len = l;
                    match_dist = i - cand;
                }
            }
        }
        if match_len == 0 {
            w.symbol(u32::from(data[i]));
            i += 1;
            continue;
        }
        let lc = LEN_BASE.partition_point(|&b| usize::from(b) <= match_len) - 1;
        w.symbol(257 + lc as u32);
        w.bits(
            (match_len - usize::from(LEN_BASE[lc])) as u32,
            u32::from(LEN_EXTRA[lc]),
        );
        let dc = DIST_BASE.partition_point(|&b| usize::from(b) <= match_dist) - 1;
        w.code(dc as u32, 5);
        w.bits(
            (match_dist - usize::from(DIST_BASE[dc])) as u32,
            u32::from(DIST_EXTRA[dc]),
        );
        // Index the skipped positions so later lines can match into them.
        for k in i + 1..(i + match_len).min(data.len().saturating_sub(MIN_MATCH - 1)) {
            head[hash3(&data[k..])] = k;
        }
        i += match_len;
    }
    w.symbol(256); // end of block
    w.finish()
}

/// One gzip member around [`deflate`].
pub fn gzip(data: &[u8]) -> Vec<u8> {
    let mut out = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 0xFF];
    out.extend_from_slice(&deflate(data));
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_core::stream::sources::inflate::gunzip;

    #[test]
    fn round_trips_through_the_monitor_inflater() {
        let mut text = String::new();
        for i in 0..3_000 {
            text.push_str(&format!(
                "\"2020-09-13 12:26:40,{:03} - dfs.DataNode - INFO - Receiving block blk_{i} src: /10.250.{}.{}\",",
                i % 1000,
                i % 251,
                i % 13
            ));
        }
        for sample in [&b""[..], b"a", b"abcabcabcabcabcabc", text.as_bytes()] {
            let packed = gzip(sample);
            assert_eq!(gunzip(&packed, 1 << 24).expect("inflates"), sample);
        }
        let packed = gzip(text.as_bytes());
        assert!(
            packed.len() * 3 < text.len(),
            "log text should shrink at least 3x, got {} -> {}",
            text.len(),
            packed.len()
        );
        // Every byte value and the 258-byte maximum match length.
        let mut bytes: Vec<u8> = (0..=255u8).collect();
        bytes.extend(std::iter::repeat_n(7u8, 2_000));
        assert_eq!(gunzip(&gzip(&bytes), 1 << 16).expect("inflates"), bytes);
    }
}
