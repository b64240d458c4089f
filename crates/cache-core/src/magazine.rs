//! Bounded stacks of freed buffers, one per 16-byte size class: a
//! [magazine](https://www.usenix.org/legacy/publications/library/proceedings/usenix01/full_papers/bonwick/bonwick.pdf)
//! in Bonwick's sense, kept per thread by its owner, with the stacks held
//! outside the buffers.
//!
//! A server that stores each item in a buffer of its own calls `malloc` for
//! every write and `free` for every overwrite and eviction. Under churn the
//! freed buffer of one item is the right size for the next item of its class,
//! so a [`Magazine`] keeps it: [`Magazine::put`] pushes a freed buffer onto
//! its class's stack, [`Magazine::take`] pops the most recently freed one,
//! and the allocator is asked only when that stack is empty. `put` reads no
//! byte of the buffer: its length is all it needs. A magazine keeps nothing
//! before its first `take`, so a thread that frees buffers it never builds
//! strands none.
//!
//! Buffers are sized by [`capacity`], the usable size glibc's `malloc` gives
//! for a request, so a buffer fills the chunk the allocator would have
//! handed out anyway and sizing by it costs no memory. The stacks hold at
//! most 1 MiB; a buffer past that, past the largest class (8 KiB) or of a
//! length [`capacity`] never returns goes straight back to the allocator.

/// The bytes all the stacks of one magazine hold at most.
const CAP: usize = 1 << 20;
/// The largest buffer a magazine keeps; larger ones are freed.
const LARGEST: usize = 8 << 10;
/// The width of a size class, glibc's chunk alignment on 64-bit targets.
const CLASS: usize = 16;
/// The bytes of a chunk's header `malloc` does not hand out.
const CHUNK_HEADER: usize = 8;
/// The smallest usable size `malloc` returns (a 32-byte chunk).
const SMALLEST: usize = 24;

/// The usable size glibc gives a `len`-byte request: `len` and the chunk's
/// 8-byte header rounded up to 16, less the header, at least 24. A buffer
/// of that size fills the same chunk a `len`-byte one would.
#[inline]
pub fn capacity(len: usize) -> usize {
    ((len + CHUNK_HEADER).div_ceil(CLASS) * CLASS - CHUNK_HEADER).max(SMALLEST)
}

/// The stack a buffer of `len` bytes belongs on: `None` unless `len` is a
/// [`capacity`] no larger than [`LARGEST`].
#[inline]
fn class(len: usize) -> Option<usize> {
    (len <= LARGEST && capacity(len) == len).then_some((len + CHUNK_HEADER) / CLASS)
}

/// One LIFO stack of freed buffers per 16-byte size class, up to 8 KiB,
/// holding at most 1 MiB in all, once something has been taken from it.
#[derive(Debug, Default)]
pub struct Magazine {
    /// Indexed by `class`; sized on the first `take`, and empty — every
    /// `put` freeing its buffer — until then.
    stacks: Vec<Vec<Box<[u8]>>>,
    /// The bytes the stacks hold.
    held: usize,
}

impl Magazine {
    /// An empty magazine; it allocates nothing until a buffer is put in.
    pub const fn new() -> Magazine {
        Magazine {
            stacks: Vec::new(),
            held: 0,
        }
    }

    /// The most recently put buffer of exactly `capacity` bytes, or `None`
    /// when there is none (always for a length [`capacity`] never returns).
    /// Its bytes are whatever its last owner left in them.
    #[inline]
    pub fn take(&mut self, capacity: usize) -> Option<Box<[u8]>> {
        let class = class(capacity)?;
        let Some(stack) = self.stacks.get_mut(class) else {
            // The first take: from now on this magazine keeps what it is
            // given.
            self.stacks.resize_with(LARGEST / CLASS + 1, Vec::new);
            return None;
        };
        let buffer = stack.pop()?;
        self.held -= buffer.len();
        Some(buffer)
    }

    /// Keeps `buffer` for the next [`Magazine::take`] of its length, or
    /// frees it when it has no class, the stacks are full, or nothing was
    /// ever taken from this magazine: a thread that only frees items (one
    /// that evicts or drops what others built) would never give a kept
    /// buffer back.
    #[inline]
    pub fn put(&mut self, buffer: Box<[u8]>) {
        let Some(class) = class(buffer.len()) else {
            return;
        };
        if self.held + buffer.len() > CAP {
            return;
        }
        let Some(stack) = self.stacks.get_mut(class) else {
            return;
        };
        self.held += buffer.len();
        stack.push(buffer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn capacity_is_what_malloc_hands_out() {
        for (len, usable) in [
            (0, 24),
            (1, 24),
            (24, 24),
            (25, 40),
            (272, 280),
            (4_123, 4_136),
            (8_192, 8_200),
        ] {
            assert_eq!(capacity(len), usable, "capacity({len})");
        }
        assert_eq!(
            class(capacity(LARGEST)),
            None,
            "8,200 bytes is past the largest class"
        );
        assert_eq!(class(8_184), Some(LARGEST / CLASS));
        assert_eq!(class(25), None);
    }

    /// Operations on a magazine: put a fresh buffer of `capacity(len)` bytes
    /// (or of `len` bytes exactly, which is classless unless it happens to be
    /// a capacity), or take one of `capacity(len)` bytes.
    #[derive(Clone, Debug)]
    enum Op {
        Put(usize),
        PutExact(usize),
        Take(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Lengths up to past the largest class; mostly puts, so the stacks
        // pass the cap within a script.
        let len = || 0usize..9_000;
        prop_oneof![
            len().prop_map(Op::Put),
            len().prop_map(Op::Put),
            len().prop_map(Op::Put),
            (SMALLEST..9_000usize).prop_map(Op::PutExact),
            len().prop_map(Op::Take),
            len().prop_map(Op::Take),
        ]
    }

    /// A buffer of `len` bytes whose first eight hold `tag`.
    fn tagged(len: usize, tag: u64) -> Box<[u8]> {
        let mut buffer = vec![0u8; len].into_boxed_slice();
        buffer[..8].copy_from_slice(&tag.to_le_bytes());
        buffer
    }

    fn tag(buffer: &[u8]) -> u64 {
        u64::from_le_bytes(buffer[..8].try_into().unwrap())
    }

    proptest! {
        /// Against a model of one `Vec` of (tag, length) per class: `take`
        /// returns the last buffer put into its class, a buffer put before
        /// the first take, past the cap, past the largest class or of no
        /// class is not kept, and the bytes held never pass the cap.
        #[test]
        fn a_magazine_is_a_bounded_stack_per_class(ops in proptest::collection::vec(op(), 1..600)) {
            let mut magazine = Magazine::new();
            let mut model: Vec<Vec<(u64, usize)>> = vec![Vec::new(); LARGEST / CLASS + 1];
            // Nothing is kept until a take of a classed length.
            let mut taken = false;
            for (next, op) in ops.iter().enumerate() {
                let tag_now = next as u64;
                match *op {
                    Op::Put(len) | Op::PutExact(len) => {
                        let len = if matches!(op, Op::Put(_)) { capacity(len) } else { len };
                        let held: usize = model.iter().flatten().map(|&(_, len)| len).sum();
                        let kept = taken && len <= LARGEST && capacity(len) == len && held + len <= CAP;
                        if kept {
                            model[(len + 8) / 16].push((tag_now, len));
                        }
                        magazine.put(tagged(len, tag_now));
                    }
                    Op::Take(len) => {
                        let want = capacity(len);
                        let expected = if want <= LARGEST { model[(want + 8) / 16].pop() } else { None };
                        taken |= want <= LARGEST;
                        let got = magazine.take(want).map(|buffer| (tag(&buffer), buffer.len()));
                        prop_assert_eq!(got, expected, "take({})", want);
                    }
                }
                let held: usize = model.iter().flatten().map(|&(_, len)| len).sum();
                prop_assert_eq!(magazine.held, held);
                prop_assert!(magazine.held <= CAP);
                for (class, stack) in magazine.stacks.iter().enumerate() {
                    let tags: Vec<(u64, usize)> =
                        stack.iter().map(|buffer| (tag(buffer), buffer.len())).collect();
                    prop_assert_eq!(&tags, &model[class], "class {}", class);
                }
            }
        }
    }
}
