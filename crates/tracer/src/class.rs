//! The byte-class table: threads whose records are equal outside their
//! address columns and headers, found by one hash and one `memcmp`.
//!
//! MIMD threads mostly run one control path, so most of a capture's
//! records differ only in the addresses they touched. A record's *body*
//! is every column but the address column: the columns before it (block
//! stream, access counts and instruction indices) and after it (size/store
//! bytes and side events). Threads with equal bodies form a *class*. Every
//! field is a self-delimiting varint, so a body's bytes and its block and
//! access counts place all its columns. The table keys a body by a keyed
//! multiply-fold hash of those counts and its two slices and confirms
//! every hit by comparing the bytes, so a collision costs a compare, never
//! a wrong class. The keys are random per table: a trace file cannot be
//! crafted to make the probes long. Class ids count up from 0 in order of
//! first occurrence, whatever the keys.
//!
//! The table serves three places: a capture shares each finished thread's
//! body with its class ([`SharedBodies`]), a decode shares each record's
//! as it is read, and a trace file's records are classified straight off
//! their encoded bytes for the index's chunk walk.

use crate::events::RecordHead;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

/// Columns of a body: a record's columns without the address column.
pub(crate) const BODY_COLS: usize = 7;
/// Where each body column after the first starts, in body bytes.
pub(crate) type Starts = [usize; BODY_COLS - 1];
/// The body column the address column precedes (the size/store bytes):
/// `starts[SPLIT]` is where the columns after the address column begin.
pub(crate) const SPLIT: usize = 4;

/// Marks an empty slot.
const NONE: u32 = u32::MAX;

/// The 64-bit halves of `a * b`, folded.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = a as u128 * b as u128;
    p as u64 ^ (p >> 64) as u64
}

/// Classes of record bodies in an open-addressed table of class ids, with
/// each class's hash. The caller keeps the bodies and confirms a candidate
/// through `same`.
#[derive(Debug)]
pub(crate) struct ClassTable {
    keys: [u64; 3],
    /// Class ids, [`NONE`] where empty; a power of two, at most half full.
    slots: Vec<u32>,
    /// Each class's hash.
    hashes: Vec<u64>,
}

impl Default for ClassTable {
    fn default() -> Self {
        let s = RandomState::new();
        let keys = [s.hash_one(1u8) | 1, s.hash_one(2u8) | 1, s.hash_one(3u8) | 1];
        ClassTable { keys, slots: Vec::new(), hashes: Vec::new() }
    }
}

impl ClassTable {
    /// The keyed hash of a body: its block and access counts and the
    /// bytes before (`pre`) and after (`post`) the address column.
    pub(crate) fn hash(&self, n_blocks: u32, n_mems: u32, pre: &[u8], post: &[u8]) -> u64 {
        let [k0, k1, k2] = self.keys;
        let mut h = fold(n_blocks as u64 ^ k1, n_mems as u64 ^ k2);
        for part in [pre, post] {
            let mut words = part.chunks_exact(16);
            for w in &mut words {
                let a = u64::from_le_bytes(w[..8].try_into().expect("16-byte chunk"));
                let b = u64::from_le_bytes(w[8..].try_into().expect("16-byte chunk"));
                h = fold(h ^ a ^ k1, b ^ k2);
            }
            let rest = words.remainder();
            let mut tail = [0u8; 16];
            tail[..rest.len()].copy_from_slice(rest);
            let a = u64::from_le_bytes(tail[..8].try_into().expect("tail"));
            let b = u64::from_le_bytes(tail[8..].try_into().expect("tail"));
            h = fold(h ^ a ^ k1, b ^ k2 ^ part.len() as u64);
        }
        fold(h, k0)
    }

    /// The class with hash `h` for which `same(class)` holds, if any.
    pub(crate) fn find(&self, h: u64, same: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            let c = self.slots[i];
            if c == NONE {
                return None;
            }
            if self.hashes[c as usize] == h && same(c) {
                return Some(c);
            }
            i = (i + 1) & mask;
        }
    }

    /// The class of the body hashing to `h`: the class with that hash for
    /// which `same(class)` holds, else a new class. Returns the class and
    /// whether it is new.
    pub(crate) fn classify(&mut self, h: u64, same: impl Fn(u32) -> bool) -> (u32, bool) {
        if let Some(c) = self.find(h, same) {
            return (c, false);
        }
        if self.hashes.len() * 2 >= self.slots.len() {
            let n = (self.slots.len() * 2).max(16);
            self.slots = vec![NONE; n];
            for (c, &h) in self.hashes.iter().enumerate() {
                let i = self.free_slot(h);
                self.slots[i] = c as u32;
            }
        }
        let c = self.hashes.len() as u32;
        let i = self.free_slot(h);
        self.slots[i] = c;
        self.hashes.push(h);
        (c, true)
    }

    /// The first empty slot on `h`'s probe path.
    fn free_slot(&self, h: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        while self.slots[i] != NONE {
            i = (i + 1) & mask;
        }
        i
    }
}

/// `pre` followed by `post` in one exactly sized shared buffer, filled a
/// slice at a time: collecting the bytes one by one is ten times slower.
pub(crate) fn joined(pre: &[u8], post: &[u8]) -> Arc<[u8]> {
    let mut body: Arc<[u8]> = std::iter::repeat_n(0, pre.len() + post.len()).collect();
    let bytes = Arc::get_mut(&mut body).expect("a new body has one owner");
    bytes[..pre.len()].copy_from_slice(pre);
    bytes[pre.len()..].copy_from_slice(post);
    body
}

/// One class's shared body: its block and access counts, the instructions
/// its blocks hold, and its bytes.
#[derive(Debug)]
struct ClassBody {
    n_blocks: u32,
    n_mems: u32,
    traced_insts: u64,
    body: Arc<[u8]>,
}

impl ClassBody {
    /// Whether this is the body of a record with `n_blocks` blocks and
    /// `n_mems` accesses whose body is `pre` and `post`.
    fn is(&self, n_blocks: u32, n_mems: u32, pre: &[u8], post: &[u8]) -> bool {
        (self.n_blocks, self.n_mems) == (n_blocks, n_mems)
            && self.body.len() == pre.len() + post.len()
            && self.body.starts_with(pre)
            && self.body.ends_with(post)
    }
}

/// One body per class: the table and each class's counts, instructions and
/// body, so that threads of one class hold one copy.
#[derive(Debug, Default)]
pub(crate) struct SharedBodies {
    table: ClassTable,
    bodies: Vec<ClassBody>,
}

impl SharedBodies {
    /// The body of a record with `n_blocks` blocks and `n_mems` accesses
    /// whose body is `pre` and `post`, and the instructions its blocks
    /// hold, if the table holds its class.
    pub(crate) fn find(
        &self,
        n_blocks: u32,
        n_mems: u32,
        pre: &[u8],
        post: &[u8],
    ) -> Option<(Arc<[u8]>, u64)> {
        let h = self.table.hash(n_blocks, n_mems, pre, post);
        let c = self.table.find(h, |c| self.bodies[c as usize].is(n_blocks, n_mems, pre, post))?;
        let class = &self.bodies[c as usize];
        Some((Arc::clone(&class.body), class.traced_insts))
    }

    /// The body of the class of a record with `head`'s counts and
    /// instructions whose body is `pre` and `post` (see
    /// [`ClassTable::hash`]), made, in one exact allocation, if the class
    /// is new.
    pub(crate) fn share(&mut self, head: &RecordHead, pre: &[u8], post: &[u8]) -> Arc<[u8]> {
        let (n_blocks, n_mems) = (head.n_blocks, head.n_mems);
        let h = self.table.hash(n_blocks, n_mems, pre, post);
        let bodies = &self.bodies;
        let (c, new) =
            self.table.classify(h, |c| bodies[c as usize].is(n_blocks, n_mems, pre, post));
        if new {
            let (traced_insts, body) = (head.traced_insts, joined(pre, post));
            self.bodies.push(ClassBody { n_blocks, n_mems, traced_insts, body });
        }
        Arc::clone(&self.bodies[c as usize].body)
    }

    /// Shares `body`, split by the address column at `split`, of a record
    /// with `n_blocks` blocks, `n_mems` accesses and `traced_insts`
    /// instructions, with its class: the class's body when one is known,
    /// else `body` itself, which becomes it.
    pub(crate) fn adopt(
        &mut self,
        n_blocks: u32,
        n_mems: u32,
        traced_insts: u64,
        split: usize,
        body: &Arc<[u8]>,
    ) -> Arc<[u8]> {
        let (pre, post) = body.split_at(split);
        let h = self.table.hash(n_blocks, n_mems, pre, post);
        let bodies = &self.bodies;
        let same = |c: u32| {
            let b = &bodies[c as usize];
            (b.n_blocks, b.n_mems) == (n_blocks, n_mems)
                && (Arc::ptr_eq(&b.body, body) || b.body == *body)
        };
        let (c, new) = self.table.classify(h, same);
        if new {
            let body = Arc::clone(body);
            self.bodies.push(ClassBody { n_blocks, n_mems, traced_insts, body });
        }
        Arc::clone(&self.bodies[c as usize].body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_bodies_share_one_allocation_and_others_do_not() {
        let head = |n_blocks, n_mems| RecordHead { n_blocks, n_mems, ..RecordHead::default() };
        let mut shared = SharedBodies::default();
        let a = shared.share(&head(1, 2), b"abcde", b"fgh");
        let b = shared.share(&head(1, 2), b"abcde", b"fgh");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&a[..], b"abcdefgh");
        // Other bytes, or the same bytes under other counts, are another
        // class.
        let c = shared.share(&head(1, 2), b"abcde", b"fgi");
        let d = shared.share(&head(2, 2), b"abcde", b"fgh");
        assert!(!Arc::ptr_eq(&a, &c) && !Arc::ptr_eq(&a, &d) && !Arc::ptr_eq(&c, &d));
        let own: Arc<[u8]> = Arc::from(&b"abcdefgh"[..]);
        assert!(Arc::ptr_eq(&shared.adopt(1, 2, 0, 5, &own), &a));
        // A table grows past its first slots and still finds every class.
        let ids: Vec<Arc<[u8]>> =
            (0..100u32).map(|i| shared.share(&head(i, 0), &[], &[])).collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(Arc::ptr_eq(id, &shared.share(&head(i as u32, 0), &[], &[])));
        }
    }

    /// A class keeps the instructions of the record that made it, for the
    /// later records the table finds.
    #[test]
    fn a_found_class_reports_its_instructions() {
        let head = RecordHead { n_blocks: 1, n_mems: 2, traced_insts: 9, ..RecordHead::default() };
        let mut shared = SharedBodies::default();
        assert!(shared.find(1, 2, b"abc", b"de").is_none());
        let body = shared.share(&head, b"abc", b"de");
        let (found, traced_insts) = shared.find(1, 2, b"abc", b"de").expect("shared class");
        assert!(Arc::ptr_eq(&found, &body));
        assert_eq!(traced_insts, 9);
        let own: Arc<[u8]> = Arc::from(&b"xyz"[..]);
        shared.adopt(3, 0, 4, 1, &own);
        assert_eq!(shared.find(3, 0, b"x", b"yz").map(|(_, t)| t), Some(4));
    }

    #[test]
    fn colliding_hashes_are_told_apart_by_their_bytes() {
        let mut t = ClassTable::default();
        let bodies = [b"one", b"two", b"one"];
        let classes: Vec<(u32, bool)> =
            bodies.iter().map(|&b| t.classify(7, |c| bodies[c as usize] == b)).collect();
        assert_eq!(classes, [(0, true), (1, true), (0, false)]);
    }
}
