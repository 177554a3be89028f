//! Memory-access coalescing (paper Fig. 4).
//!
//! SIMT hardware merges the per-lane accesses of one warp-level load/store
//! into the minimal set of 32-byte transactions. ThreadFuser applies the
//! same rule when estimating memory divergence: for each memory
//! instruction, the addresses touched by all *active* threads are bucketed
//! into 32-byte-aligned lines and the number of distinct lines is the
//! transaction count.

/// Transaction granularity in bytes (32 B, matching NVIDIA sectors and the
/// paper's reporting).
pub const TRANSACTION_BYTES: u64 = 32;

/// Counts the distinct 32-byte transactions needed to service the given
/// `(address, size)` accesses issued together by one warp instruction.
///
/// Accesses may straddle a line boundary, in which case they contribute to
/// every line they touch. An empty iterator yields zero transactions.
///
/// ```
/// use threadfuser_mem::coalesce_transactions;
/// // Four adjacent 8-byte accesses fit in one 32-byte line.
/// let n = coalesce_transactions([(0u64, 8u32), (8, 8), (16, 8), (24, 8)]);
/// assert_eq!(n, 1);
/// // Strided accesses each need their own transaction.
/// let n = coalesce_transactions([(0u64, 8u32), (64, 8), (128, 8), (192, 8)]);
/// assert_eq!(n, 4);
/// ```
///
/// This is the count by its definition — every line of every access,
/// sorted and deduplicated — and shares no code with the run-length rule
/// of [`coalesce_transactions_tagged`], so tests can check that rule
/// against it.
pub fn coalesce_transactions(accesses: impl IntoIterator<Item = (u64, u32)>) -> u32 {
    // Warps are small (≤ 64 lanes); a sorted Vec beats a HashSet here.
    let mut lines: Vec<u64> = Vec::with_capacity(8);
    for (addr, size) in accesses {
        debug_assert!(size > 0, "zero-sized access");
        let first = addr / TRANSACTION_BYTES;
        // Saturate: an access at the top of the address space must not
        // wrap `addr + size - 1` around to line 0 (decoded traces can
        // carry any u64 address); it is clamped to the last line instead.
        let last = addr.saturating_add(size.saturating_sub(1) as u64) / TRANSACTION_BYTES;
        lines.extend(first..=last);
    }
    lines.sort_unstable();
    lines.dedup();
    lines.len() as u32
}

/// Two-way tagged coalescing: counts distinct 32-byte lines separately
/// for plain (`tag = false`) and tagged (`tag = true`) accesses in **one**
/// pass — each line key carries its tag in bit 63 (free because
/// `line = addr / 32 < 2^59`). Returns `(plain_transactions,
/// tagged_transactions, sorted)`, where `sorted` tells whether the keys
/// arrived out of order and had to be sorted; callers that budget their
/// work count it.
///
/// The counting rule every coalescer here shares: the line keys are
/// pushed into the scratch buffer `lines` as they arrive. While the keys
/// never decrease — coalesced, strided, broadcast and per-lane-stack
/// accesses in lane order — a key
/// differing from the last one pushed is a new line, so the count is done
/// when the input ends; a key below the last one marks the sequence out of
/// order, and the keys are then sorted and counted once more.
///
/// The analyzer's emulator and the lock-step machine tag stack-segment
/// accesses (`threadfuser_machine::count_mem_inst`), coalescing each
/// memory instruction's heap and stack traffic in one pass; results are
/// identical to calling [`coalesce_transactions`] on the two partitions.
/// The scratch buffer is cleared on entry; its capacity is retained across
/// calls.
///
/// ```
/// use threadfuser_mem::coalesce_transactions_tagged;
/// let mut scratch = Vec::new();
/// let (heap, stack, sorted) = coalesce_transactions_tagged(
///     &mut scratch,
///     [(0u64, 8u32, false), (8, 8, false), (1 << 40, 8, true)],
/// );
/// assert_eq!((heap, stack, sorted), (1, 1, false));
/// ```
pub fn coalesce_transactions_tagged(
    lines: &mut Vec<u64>,
    accesses: impl IntoIterator<Item = (u64, u32, bool)>,
) -> (u32, u32, bool) {
    const TAG: u64 = 1 << 63;
    lines.clear();
    // The last key pushed, plus one (keys stay below `2^63 + 2^59`); 0
    // before the first.
    let mut prev = 0u64;
    let (mut distinct, mut tagged) = (0u32, 0u32);
    let mut in_order = true;
    for (addr, size, tag) in accesses {
        debug_assert!(size > 0, "zero-sized access");
        let tag = if tag { TAG } else { 0 };
        let first = addr / TRANSACTION_BYTES;
        // Saturate: an access at the top of the address space must not
        // wrap `addr + size - 1` around to line 0 (decoded traces can
        // carry any u64 address); it is clamped to the last line instead.
        let last = addr.saturating_add(size.saturating_sub(1) as u64) / TRANSACTION_BYTES;
        // `last < 2^59`, so `last + 1` cannot overflow.
        for line in first..last + 1 {
            let key = line | tag;
            // A repeat of the last key adds no line and need not be kept:
            // a later sort would only drop it again.
            if key + 1 == prev {
                continue;
            }
            in_order &= key + 1 > prev;
            distinct += 1;
            tagged += (key >> 63) as u32;
            prev = key + 1;
            lines.push(key);
        }
    }
    if in_order {
        return (distinct - tagged, tagged, false);
    }
    lines.sort_unstable();
    lines.dedup();
    // Sorted, the tagged keys follow every plain one.
    let plain = lines.partition_point(|&k| k & TAG == 0);
    (plain as u32, (lines.len() - plain) as u32, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(coalesce_transactions(std::iter::empty()), 0);
    }

    #[test]
    fn single_access_one_transaction() {
        assert_eq!(coalesce_transactions([(100u64, 4u32)]), 1);
    }

    #[test]
    fn straddling_access_counts_both_lines() {
        // 8-byte access at offset 28 touches lines 0 and 1.
        assert_eq!(coalesce_transactions([(28u64, 8u32)]), 2);
    }

    #[test]
    fn fully_coalesced_warp32_4byte() {
        // The paper's ideal: 32 threads × 4-byte adjacent = 4 transactions.
        let accesses = (0..32u64).map(|i| (i * 4, 4u32));
        assert_eq!(coalesce_transactions(accesses), 4);
    }

    #[test]
    fn fully_coalesced_warp32_8byte() {
        // 32 threads × 8-byte adjacent = 8 transactions (paper §III).
        let accesses = (0..32u64).map(|i| (i * 8, 8u32));
        assert_eq!(coalesce_transactions(accesses), 8);
    }

    #[test]
    fn same_address_broadcast_is_one() {
        let accesses = (0..32u64).map(|_| (4096u64, 8u32));
        assert_eq!(coalesce_transactions(accesses), 1);
    }

    #[test]
    fn worst_case_divergent() {
        let accesses = (0..32u64).map(|i| (i * 4096, 4u32));
        assert_eq!(coalesce_transactions(accesses), 32);
    }

    #[test]
    fn near_max_address_does_not_wrap() {
        // An 8-byte access starting at u64::MAX would wrap addr+size-1 to
        // line 0; saturating math keeps it on the last line instead of
        // counting 2^59 phantom transactions (or debug-panicking).
        assert_eq!(coalesce_transactions([(u64::MAX, 8u32)]), 1);
        // Straddling the very last line boundary still counts both lines.
        assert_eq!(coalesce_transactions([(u64::MAX - 32, 8u32)]), 2);
        assert_eq!(coalesce_transactions([(u64::MAX - 7, 8u32)]), 1);
    }

    /// Addresses across the whole space, weighted toward the overflow-bait
    /// top end where `addr + size` can exceed `u64::MAX`.
    fn arb_addr() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..1 << 40, u64::MAX - 64..=u64::MAX]
    }

    /// Every line of every access, `(tag, line)` in access order.
    fn line_keys(accesses: &[(u64, u32, bool)]) -> Vec<(bool, u64)> {
        accesses
            .iter()
            .flat_map(|&(a, s, t)| {
                let last = a.saturating_add(s as u64 - 1) / TRANSACTION_BYTES;
                (a / TRANSACTION_BYTES..=last).map(move |line| (t, line))
            })
            .collect()
    }

    /// The count by definition: every line of every access, sorted and
    /// deduplicated, split by tag.
    fn sort_dedup(accesses: &[(u64, u32, bool)]) -> (u32, u32) {
        let mut keys = line_keys(accesses);
        keys.sort_unstable();
        keys.dedup();
        let tagged = keys.iter().filter(|k| k.0).count();
        ((keys.len() - tagged) as u32, tagged as u32)
    }

    /// How a test lays out one instruction's accesses.
    #[derive(Debug, Clone, Copy)]
    enum Layout {
        /// Ascending addresses, plain before tagged: the run-length case.
        Sorted,
        /// Descending: out of order whenever two lines differ.
        Reversed,
        /// One access repeated (a broadcast).
        AllEqual,
        /// Ascending, every access crossing a line boundary.
        Straddling,
        /// Ascending within the last bytes of the address space.
        TopOfSpace,
    }

    fn arb_layout() -> impl Strategy<Value = Layout> {
        prop_oneof![
            Just(Layout::Sorted),
            Just(Layout::Reversed),
            Just(Layout::AllEqual),
            Just(Layout::Straddling),
            Just(Layout::TopOfSpace),
        ]
    }

    /// `raw` laid out as `layout` says.
    fn lay_out(layout: Layout, raw: &[(u64, u32, bool)]) -> Vec<(u64, u32, bool)> {
        let mut v: Vec<(u64, u32, bool)> = match layout {
            Layout::Sorted | Layout::Reversed => raw.to_vec(),
            Layout::AllEqual => vec![raw[0]; raw.len()],
            Layout::Straddling => raw.iter().map(|&(a, _, t)| (a / 32 * 32 + 28, 8, t)).collect(),
            Layout::TopOfSpace => raw.iter().map(|&(a, s, t)| (u64::MAX - a % 96, s, t)).collect(),
        };
        if !matches!(layout, Layout::AllEqual) {
            v.sort_unstable_by_key(|&(a, _, t)| (t, a));
        }
        if matches!(layout, Layout::Reversed) {
            v.reverse();
        }
        v
    }

    proptest! {
        #[test]
        fn every_layout_matches_sort_dedup(
            layout in arb_layout(),
            raw in proptest::collection::vec((0u64..1 << 20, 1u32..=16, any::<bool>()), 1..64)
        ) {
            let acc = lay_out(layout, &raw);
            let want = sort_dedup(&acc);
            let mut scratch = vec![7, 7, 7];
            let (plain, tagged, sorted) =
                coalesce_transactions_tagged(&mut scratch, acc.iter().copied());
            prop_assert_eq!((plain, tagged), want);
            // Exactly the key sequences that ever decrease take a sort.
            let keys = line_keys(&acc);
            let in_order = keys.windows(2).all(|w| w[0] <= w[1]);
            prop_assert_eq!(sorted, !in_order, "{:?}", layout);
            let untagged: Vec<(u64, u32, bool)> =
                acc.iter().map(|&(a, s, _)| (a, s, false)).collect();
            let (plain_only, none_tagged, _) =
                coalesce_transactions_tagged(&mut scratch, untagged.iter().copied());
            prop_assert_eq!(none_tagged, 0);
            prop_assert_eq!(plain_only, sort_dedup(&untagged).0);
            prop_assert_eq!(plain_only, coalesce_transactions(untagged.iter().map(|&(a, s, _)| (a, s))));
        }

        #[test]
        fn at_least_one_per_nonempty_and_bounded(
            addrs in proptest::collection::vec((arb_addr(), 1u32..=8), 1..64)
        ) {
            let n = coalesce_transactions(addrs.iter().copied());
            prop_assert!(n >= 1);
            // Each access touches at most 2 lines for sizes <= 32.
            prop_assert!(n as usize <= addrs.len() * 2);
        }

        #[test]
        fn permutation_invariant(
            mut addrs in proptest::collection::vec((0u64..1 << 30, 1u32..=8), 1..32)
        ) {
            let a = coalesce_transactions(addrs.iter().copied());
            addrs.reverse();
            let b = coalesce_transactions(addrs.iter().copied());
            prop_assert_eq!(a, b);
        }

        #[test]
        fn tagged_matches_two_partitioned_calls(
            addrs in proptest::collection::vec((arb_addr(), 1u32..=8, any::<bool>()), 0..64)
        ) {
            let mut scratch = Vec::new();
            let (plain, tagged, _) =
                coalesce_transactions_tagged(&mut scratch, addrs.iter().copied());
            let old_plain = coalesce_transactions(
                addrs.iter().filter(|a| !a.2).map(|&(a, s, _)| (a, s)),
            );
            let old_tagged = coalesce_transactions(
                addrs.iter().filter(|a| a.2).map(|&(a, s, _)| (a, s)),
            );
            prop_assert_eq!((plain, tagged), (old_plain, old_tagged));
        }

        #[test]
        fn subadditive_under_union(
            a in proptest::collection::vec((0u64..1 << 30, 1u32..=8), 1..16),
            b in proptest::collection::vec((0u64..1 << 30, 1u32..=8), 1..16),
        ) {
            let na = coalesce_transactions(a.iter().copied());
            let nb = coalesce_transactions(b.iter().copied());
            let both = coalesce_transactions(a.iter().chain(b.iter()).copied());
            prop_assert!(both <= na + nb);
            prop_assert!(both >= na.max(nb));
        }
    }
}
