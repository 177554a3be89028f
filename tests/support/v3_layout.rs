//! Finds the fields of a v3 trace file by walking its footer and its
//! thread records varint by varint, as the format contract in `DESIGN.md`
//! lays them out: for tests and corpus tools that damage one field of one
//! record.
//!
//! Include it with `#[path = "…/tests/support/v3_layout.rs"] mod v3_layout;`.

#![allow(dead_code)]

use std::ops::Range;

/// Reads one LEB128 varint of `file` at `pos`, moving `pos` past it.
pub fn read_varint(file: &[u8], pos: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = file[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Where a v3 file's footer starts, and its chunk count.
pub fn footer_of(file: &[u8]) -> (usize, usize) {
    let trailer = file.len() - 12;
    let len = u64::from_le_bytes(file[trailer..trailer + 8].try_into().unwrap()) as usize;
    let start = trailer - len;
    (start, u32::from_le_bytes(file[start..start + 4].try_into().unwrap()) as usize)
}

/// One thread record of a v3 file: the footer position of its chunk's
/// descriptor, the record's extent, where its address column sits, and
/// where its side-event column starts (its size bytes lie between).
pub struct RecordAt {
    pub desc: usize,
    pub record: Range<usize>,
    pub addrs: Range<usize>,
    pub sides: usize,
}

/// Finds thread record `ordinal` of a v3 file by walking its chunk's
/// records field by field.
pub fn record_at(file: &[u8], ordinal: usize) -> RecordAt {
    let (start, chunks) = footer_of(file);
    for c in 0..chunks {
        let desc = start + 4 + c * 48;
        let field = |at: usize, n: usize| {
            let mut b = [0u8; 8];
            b[..n].copy_from_slice(&file[desc + at..desc + at + n]);
            u64::from_le_bytes(b) as usize
        };
        let (mut pos, first, count) = (field(0, 8), field(16, 4), field(20, 4));
        if ordinal >= first + count {
            continue;
        }
        for t in first..first + count {
            let begin = pos;
            let header: Vec<u64> = (0..7).map(|_| read_varint(file, &mut pos)).collect();
            let (n_blocks, n_mems, n_sides) = (header[4], header[5], header[6]);
            for _ in 0..4 * n_blocks + n_mems {
                read_varint(file, &mut pos);
            }
            let lo = pos;
            for _ in 0..n_mems {
                read_varint(file, &mut pos);
            }
            let hi = pos;
            pos += n_mems as usize;
            let sides = pos;
            for _ in 0..n_sides {
                read_varint(file, &mut pos);
                let tag = file[pos];
                pos += 1;
                if tag != 3 {
                    read_varint(file, &mut pos);
                }
            }
            if t == ordinal {
                return RecordAt { desc, record: begin..pos, addrs: lo..hi, sides };
            }
        }
    }
    panic!("no record {ordinal}");
}

/// Replaces `range` of a v3 file's chunk payload (inside the chunk whose
/// descriptor sits at `desc`) with `with`, moving the chunk's length and
/// every later chunk's offset to match.
pub fn splice(file: &mut Vec<u8>, desc: usize, range: Range<usize>, with: &[u8]) {
    let delta = with.len() as i64 - range.len() as i64;
    let (start, chunks) = footer_of(file);
    let shift = |v: u64| (v as i64 + delta) as u64;
    let le = |file: &[u8], at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
    let len = le(file, desc + 8);
    file[desc + 8..desc + 16].copy_from_slice(&shift(len).to_le_bytes());
    for c in 0..chunks {
        let d = start + 4 + c * 48;
        if d > desc {
            let off = le(file, d);
            file[d..d + 8].copy_from_slice(&shift(off).to_le_bytes());
        }
    }
    file.splice(range, with.iter().copied());
}

/// The LEB128 bytes of `v`.
pub fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}
