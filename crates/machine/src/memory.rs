//! Sparse byte-addressable memory.
//!
//! The unit of storage is a 64-byte *granule*: a granule materializes, as
//! its own zeroed 64-byte box, on the first write to any of its bytes, and
//! untouched memory reads as zero. That zero also defines the semantics of
//! uninitialized frame slots on which the register-promotion pass relies.
//!
//! Granules are small because what threads touch is sparse: every thread
//! of a capture has its own 1 MiB stack, yet the catalog's threads write
//! their stacks inside one granule below the stack top, so a 2048-thread
//! capture holds a few hundred KB of stack where 4 KiB pages held 8 MB.
//! Each granule is boxed rather than stored inline in the map, so growing
//! the map moves 8-byte pointers, not data.

use crate::layout::GLOBAL_BASE;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use threadfuser_ir::{GlobalId, Program};

const GRANULE_SHIFT: u64 = 6;
const GRANULE_SIZE: usize = 1 << GRANULE_SHIFT;

/// Multiply-shift hasher for granule numbers. Granule lookups sit on the
/// hot path of every load and store; the default SipHash costs more than
/// the copy it guards. Granule numbers are program addresses (not attacker
/// controlled), so a fixed odd multiplier is fine.
#[derive(Debug, Default)]
struct GranuleHasher(u64);

impl Hasher for GranuleHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only used through `write_u64` by the granule map; keep a correct
        // fallback anyway.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }
}

type GranuleMap = HashMap<u64, Box<[u8; GRANULE_SIZE]>, BuildHasherDefault<GranuleHasher>>;

/// Sparse memory image plus the resolved addresses of program globals.
#[derive(Debug, Default)]
pub struct Memory {
    granules: GranuleMap,
    global_addrs: Vec<u64>,
}

/// Addresses at which `program`'s globals load: consecutive, 64-byte
/// aligned, from [`GLOBAL_BASE`], in declaration order. This layout is a
/// pure function of the program, which is what lets the predecoded
/// execution engine bake absolute global addresses into its operands.
pub(crate) fn global_layout(program: &Program) -> Vec<u64> {
    let mut addrs = Vec::with_capacity(program.globals().len());
    let mut cursor = GLOBAL_BASE;
    for g in program.globals() {
        addrs.push(cursor);
        cursor += g.size.div_ceil(64) * 64;
    }
    addrs
}

impl Memory {
    /// Creates an empty memory with no globals loaded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memory image with `program`'s globals placed consecutively
    /// (64-byte aligned) from [`GLOBAL_BASE`]; see [`global_layout`].
    pub(crate) fn with_globals(program: &Program) -> Self {
        let mut mem = Memory::new();
        mem.global_addrs = global_layout(program);
        for (i, g) in program.globals().iter().enumerate() {
            if !g.init.is_empty() {
                let addr = mem.global_addrs[i];
                mem.write_bytes(addr, &g.init);
            }
        }
        mem
    }

    /// Resolved address of a global.
    ///
    /// # Panics
    /// Panics if `g` is out of range for the loaded program.
    pub fn global_addr(&self, g: GlobalId) -> u64 {
        self.global_addrs[g.0 as usize]
    }

    fn granule_mut(&mut self, granule: u64) -> &mut [u8; GRANULE_SIZE] {
        self.granules.entry(granule).or_insert_with(|| Box::new([0u8; GRANULE_SIZE]))
    }

    /// Reads `size` (1/2/4/8) bytes little-endian, zero-extended to `u64`.
    #[inline]
    pub fn read(&self, addr: u64, size: u32) -> u64 {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let in_granule = (addr & (GRANULE_SIZE as u64 - 1)) as usize;
        let size = size as usize;
        // Hot path: the access sits inside one granule (accesses are small
        // and mostly aligned, so this is nearly every access).
        if in_granule + size <= GRANULE_SIZE {
            return match self.granules.get(&(addr >> GRANULE_SHIFT)) {
                Some(p) => {
                    let mut buf = [0u8; 8];
                    buf[..size].copy_from_slice(&p[in_granule..in_granule + size]);
                    u64::from_le_bytes(buf)
                }
                None => 0,
            };
        }
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf[..size]);
        u64::from_le_bytes(buf)
    }

    /// Writes the low `size` (1/2/4/8) bytes of `value` little-endian.
    #[inline]
    pub fn write(&mut self, addr: u64, size: u32, value: u64) {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let in_granule = (addr & (GRANULE_SIZE as u64 - 1)) as usize;
        let size = size as usize;
        let bytes = value.to_le_bytes();
        if in_granule + size <= GRANULE_SIZE {
            let granule = self.granule_mut(addr >> GRANULE_SHIFT);
            granule[in_granule..in_granule + size].copy_from_slice(&bytes[..size]);
            return;
        }
        self.write_bytes(addr, &bytes[..size]);
    }

    /// Reads a byte range (zero for untouched granules).
    pub fn read_bytes(&self, addr: u64, out: &mut [u8]) {
        let mut a = addr;
        let mut off = 0usize;
        while off < out.len() {
            let granule = a >> GRANULE_SHIFT;
            let in_granule = (a & (GRANULE_SIZE as u64 - 1)) as usize;
            let n = (GRANULE_SIZE - in_granule).min(out.len() - off);
            match self.granules.get(&granule) {
                Some(p) => out[off..off + n].copy_from_slice(&p[in_granule..in_granule + n]),
                None => out[off..off + n].fill(0),
            }
            a += n as u64;
            off += n;
        }
    }

    /// Writes a byte range.
    pub(crate) fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut a = addr;
        let mut off = 0usize;
        while off < data.len() {
            let granule = a >> GRANULE_SHIFT;
            let in_granule = (a & (GRANULE_SIZE as u64 - 1)) as usize;
            let n = (GRANULE_SIZE - in_granule).min(data.len() - off);
            self.granule_mut(granule)[in_granule..in_granule + n]
                .copy_from_slice(&data[off..off + n]);
            a += n as u64;
            off += n;
        }
    }

    /// Bytes of materialized granules: 64 per granule written.
    pub fn resident_bytes(&self) -> usize {
        self.granules.len() * GRANULE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};

    #[test]
    fn untouched_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0xdead_beef, 8), 0);
    }

    #[test]
    fn round_trip_all_sizes() {
        let mut m = Memory::new();
        for (size, val) in
            [(1u32, 0xABu64), (2, 0xBEEF), (4, 0xDEAD_BEEF), (8, 0x0123_4567_89AB_CDEF)]
        {
            m.write(0x100, size, val);
            assert_eq!(m.read(0x100, size), val);
        }
    }

    #[test]
    fn narrow_write_does_not_clobber_neighbors() {
        let mut m = Memory::new();
        m.write(0x100, 8, u64::MAX);
        m.write(0x100, 1, 0);
        assert_eq!(m.read(0x100, 8), u64::MAX << 8);
    }

    #[test]
    fn cross_granule_access() {
        let mut m = Memory::new();
        let addr = (1 << GRANULE_SHIFT) - 4; // straddles granules 0 and 1
        m.write(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_bytes(), 2 * GRANULE_SIZE);
    }

    #[test]
    fn globals_load_at_stable_addresses() {
        let mut pb = threadfuser_ir::ProgramBuilder::new();
        let a = pb.global_i64("a", &[7, 8]);
        let b = pb.global("b", 10);
        pb.function("noop", 0, |fb| fb.ret(None));
        let p = pb.build().unwrap();
        let m = Memory::with_globals(&p);
        assert_eq!(m.global_addr(a), GLOBAL_BASE);
        assert_eq!(m.read(m.global_addr(a), 8), 7);
        assert_eq!(m.read(m.global_addr(a) + 8, 8), 8);
        assert!(m.global_addr(b) >= GLOBAL_BASE + 16);
        assert_eq!(m.global_addr(b) % 64, 0);
    }

    /// One operation against memory: a sized read or write, or a byte-span
    /// read or write of up to five granules.
    #[derive(Debug, Clone)]
    enum Op {
        Write(u64, u32, u64),
        Read(u64, u32),
        WriteBytes(u64, Vec<u8>),
        ReadBytes(u64, usize),
    }

    /// Addresses in a 512-byte window (eight granules) at an arbitrary
    /// granule-aligned base, so ops overlap and straddle boundaries often.
    fn arb_op() -> impl Strategy<Value = Op> {
        let size = || prop_oneof![Just(1u32), Just(2), Just(4), Just(8)];
        prop_oneof![
            (0u64..512, size(), any::<u64>()).prop_map(|(a, s, v)| Op::Write(a, s, v)),
            (0u64..512, size()).prop_map(|(a, s)| Op::Read(a, s)),
            (0u64..512, proptest::collection::vec(any::<u8>(), 0..320))
                .prop_map(|(a, d)| Op::WriteBytes(a, d)),
            (0u64..512, 0usize..320).prop_map(|(a, n)| Op::ReadBytes(a, n)),
        ]
    }

    /// Reads `n` bytes of the reference model (absent bytes are zero).
    fn model_bytes(model: &BTreeMap<u64, u8>, addr: u64, n: usize) -> Vec<u8> {
        (0..n as u64).map(|i| model.get(&(addr + i)).copied().unwrap_or(0)).collect()
    }

    proptest! {
        #[test]
        fn matches_a_byte_map_model(
            base in (0u64..1 << 40).prop_map(|g| g << GRANULE_SHIFT),
            ops in proptest::collection::vec(arb_op(), 1..48),
        ) {
            let mut mem = Memory::new();
            let mut model = BTreeMap::new();
            let mut written = HashSet::new();
            let mut store = |model: &mut BTreeMap<u64, u8>, addr: u64, data: &[u8]| {
                for (i, &b) in data.iter().enumerate() {
                    let a = addr + i as u64;
                    model.insert(a, b);
                    written.insert(a >> GRANULE_SHIFT);
                }
            };
            for op in ops {
                match op {
                    Op::Write(a, size, v) => {
                        mem.write(base + a, size, v);
                        store(&mut model, base + a, &v.to_le_bytes()[..size as usize]);
                    }
                    Op::Read(a, size) => {
                        let mut buf = [0u8; 8];
                        buf[..size as usize]
                            .copy_from_slice(&model_bytes(&model, base + a, size as usize));
                        prop_assert_eq!(mem.read(base + a, size), u64::from_le_bytes(buf));
                    }
                    Op::WriteBytes(a, data) => {
                        mem.write_bytes(base + a, &data);
                        store(&mut model, base + a, &data);
                    }
                    Op::ReadBytes(a, n) => {
                        let mut out = vec![0xAA; n];
                        mem.read_bytes(base + a, &mut out);
                        prop_assert_eq!(out, model_bytes(&model, base + a, n));
                    }
                }
            }
            // Untouched memory on either side of the window reads zero.
            prop_assert_eq!(mem.read(base + 1024, 8), 0);
            if base > 0 {
                prop_assert_eq!(mem.read(base - 8, 8), 0);
            }
            prop_assert_eq!(mem.resident_bytes(), GRANULE_SIZE * written.len());
        }
    }
}
