//! Advisory cache-line prefetches: the crate's one piece of `unsafe`.
//!
//! A GET hit is a chain of dependent cache misses — index slot, queue
//! node, the node's neighbours, the stored bytes — and a server holding a
//! pipelined batch knows every key before it executes the first. The
//! `prefetch` methods up the stack ([`crate::key::KeyMap`] and
//! [`crate::list::LinkedArena`] to the engines) walk that chain read-only, a
//! batch ahead of execution, so the misses of different keys overlap. The
//! stored bytes are asked for whole ([`bytes`]: every line they span, up to
//! 1 KiB), since the copy that reads them stalls on each line still missing.
//! A write that evicts asks, the same way, for what its queue's *next*
//! eviction will touch — the next victim's index slots, the nodes its
//! unlink and the segment boundaries write — which has arrived by the time
//! that eviction runs ([`crate::LruList::prefetch_next_victim`],
//! [`crate::ShadowQueue::prefetch_insert`]). They all end here. A prefetch
//! is a hint: it cannot fault and changes no value, so what executes
//! afterwards cannot observe whether it ran, only how long its loads take.
//! Off x86-64 both functions compile to nothing.

/// Lines [`bytes`] asks for at most: 1 KiB, all of a 256- or 400-byte value.
/// It binds on 6.3 % of the benchmark's ETC items; 8 lines and 66 (a whole
/// 4 KiB value) each read the same as 16 on `etc_pressure`: it is not tuned.
const PAYLOAD_LINES: usize = 16;
const LINE: usize = 64;

/// Which of a batch's three sweeps a `prefetch` call belongs to. Each reads
/// what the one before it asked for, so all of one run before the next. A
/// store's key is swept like a GET's; what its eviction touches is asked
/// for one eviction ahead instead: sweep 0 already keeps the misses of a
/// window's GETs in flight, and more lines there wait for those.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sweep {
    /// The index slot the key's probe starts at: its address follows from
    /// the key, so this sweep reads nothing.
    Slot,
    /// The item's queue node (an engine adds every line of the stored
    /// item, up to 1 KiB: the copy a GET makes of it, or the copy a write
    /// replaces).
    Item,
    /// The node's two neighbours, which unlinking it is about to write.
    Neighbours,
}

/// Asks for the cache line `at` starts in.
#[allow(unsafe_code)]
#[inline]
pub fn line<T>(at: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is in SSE, which every x86-64 CPU has, and is
    // defined for any address: it never faults and reads no value.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((at as *const T).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = at;
}

/// Asks for every cache line `data` spans, from the one its first byte is
/// in, up to 16 lines (1 KiB).
#[inline]
pub fn bytes(data: &[u8]) {
    let first = data.as_ptr() as usize % LINE;
    offsets(first, data.len()).for_each(|at| line(&data[at]));
}

/// The offsets into a slice of `len` bytes, whose first byte sits `first`
/// bytes into its cache line, that [`bytes`] asks for: 0, then the first
/// byte of each later line the slice reaches, at most [`PAYLOAD_LINES`].
#[inline]
fn offsets(first: usize, len: usize) -> impl Iterator<Item = usize> {
    let spanned = if len == 0 {
        0
    } else {
        (first + len).div_ceil(LINE)
    };
    (0..spanned.min(PAYLOAD_LINES)).map(move |k| (k * LINE).saturating_sub(first))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn any_reference_and_any_length_are_fine() {
        line(&7u64);
        line(&());
        bytes(&[]);
        bytes(&[1]);
        bytes(&vec![0u8; 10 * PAYLOAD_LINES * LINE]);
    }

    #[test]
    fn a_span_asks_for_each_line_it_touches_up_to_the_cap() {
        let lines = |first, len| offsets(first, len).count();
        assert_eq!(offsets(0, 256).collect::<Vec<_>>(), [0, 64, 128, 192]);
        assert_eq!(
            offsets(60, 271).collect::<Vec<_>>(),
            [0, 4, 68, 132, 196, 260]
        );
        assert_eq!(lines(60, 411), 8);
        assert_eq!(lines(0, 4_096), PAYLOAD_LINES);
        assert_eq!(lines(0, 0), 0);
        assert_eq!(lines(60, 0), 0);
    }

    proptest! {
        #[test]
        fn offsets_are_one_per_spanned_line(first in 0usize..LINE, len in 0usize..5_000) {
            let at: Vec<usize> = offsets(first, len).collect();
            let spanned = if len == 0 { 0 } else { (first + len).div_ceil(LINE) };
            prop_assert_eq!(at.len(), spanned.min(PAYLOAD_LINES));
            prop_assert!(at.first().is_none_or(|&o| o == 0), "{:?}", at);
            prop_assert!(at.iter().all(|&o| o < len), "{:?}", at);
            prop_assert!(at.windows(2).all(|w| w[0] < w[1]), "{:?}", at);
            let line_of = |o: usize| (first + o) / LINE;
            prop_assert!(at.windows(2).all(|w| line_of(w[0]) != line_of(w[1])), "{:?}", at);
        }
    }
}
