//! Advisory cache-line prefetches: the crate's one piece of `unsafe`.
//!
//! A GET hit is a chain of dependent cache misses — index slot, queue
//! node, the node's neighbours, the stored bytes — and a server holding a
//! pipelined batch knows every key before it executes the first. The
//! `prefetch` methods up the stack ([`crate::key::KeyMap`] and
//! [`crate::list::LinkedArena`] to the engines) walk that chain read-only, a
//! batch ahead of execution, so the misses of different keys overlap. A
//! write that evicts asks, the same way, for what its queue's *next*
//! eviction will touch — the next victim's index slots, the nodes its
//! unlink and the segment boundaries write — which has arrived by the time
//! that eviction runs ([`crate::LruList::prefetch_next_victim`],
//! [`crate::ShadowQueue::prefetch_insert`]). They all end here. A prefetch
//! is a hint: it cannot fault and changes no value, so what executes
//! afterwards cannot observe whether it ran, only how long its loads take.
//! Off x86-64 both functions compile to nothing.

/// Lines [`bytes`] asks for; the hardware streamer takes a longer value on.
const PAYLOAD_LINES: usize = 4;
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
    /// The item's queue node (an engine adds the stored value's bytes).
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

/// Asks for the first few cache lines of `data`.
#[inline]
pub fn bytes(data: &[u8]) {
    data.iter().step_by(LINE).take(PAYLOAD_LINES).for_each(line);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_reference_and_any_length_are_fine() {
        line(&7u64);
        line(&());
        bytes(&[]);
        bytes(&[1]);
        bytes(&vec![0u8; 10 * PAYLOAD_LINES * LINE]);
    }
}
