//! Synthetic call stacks and 64-bit stack signatures.
//!
//! ScalaTrace obtains the calling context of each MPI event from the stack
//! backtrace (one return address per frame) and condenses it into a 64-bit
//! *stack signature*. Two MPI calls issued from the same source location
//! through the same chain of callers produce the same signature; calls from
//! different locations produce (with overwhelming probability) different
//! ones.
//!
//! In this reproduction the "return addresses" are synthetic: workloads
//! declare their call structure with [`CallStack::push`]/[`CallStack::pop`]
//! (usually via the RAII [`FrameGuard`]), passing stable 64-bit frame
//! identifiers. The signature semantics are identical to hashing real
//! return addresses — which is all the paper's algorithms consume.

/// A synthetic frame address: a stable 64-bit identifier for one call site.
///
/// Real ScalaTrace uses program-counter return addresses; any value that is
/// stable across ranks and across iterations for the same source location
/// works. The [`frame_addr`] helper derives one from a source-location
/// string.
pub type FrameAddr = u64;

/// A 64-bit stack signature: the condensed calling context of one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StackSig(pub u64);

impl StackSig {
    /// The "no context" signature (empty stack). Real traces never produce
    /// it because every MPI event has at least the wrapper frame.
    pub const EMPTY: StackSig = StackSig(0xcbf2_9ce4_8422_2325); // FNV offset basis

    /// Raw value accessor, convenient in arithmetic contexts.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Derive a stable synthetic frame address from a source-location label.
///
/// FNV-1a over the label bytes. Deterministic across processes and runs, so
/// all ranks executing the same source line obtain the same frame address —
/// exactly the property real return addresses have in an SPMD binary.
pub fn frame_addr(label: &str) -> FrameAddr {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Mixer applied per frame when folding the stack into a signature.
///
/// splitmix64 finalizer: full-avalanche so that stacks differing in a single
/// frame, or in frame *order*, yield unrelated signatures.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Tracks the active synthetic call stack of one rank and produces stack
/// signatures for events issued under it.
///
/// Depth-sensitive: the fold incorporates the frame's position, so
/// `[a, b]` and `[b, a]` (different caller/callee order) hash differently,
/// and recursion (`[a, a]` vs `[a]`) is distinguished.
///
/// ```
/// use sigkit::stack::{frame_addr, CallStack};
/// let mut cs = CallStack::new();
/// cs.push(frame_addr("main"));
/// cs.push(frame_addr("solver"));
/// let inside = cs.signature();
/// cs.pop();
/// let outside = cs.signature();
/// assert_ne!(inside, outside);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CallStack {
    frames: Vec<FrameAddr>,
    /// Incremental fold of the frames; `cache[i]` is the signature of
    /// `frames[..=i]`. Kept so `signature()` is O(1) in the common case.
    cache: Vec<u64>,
}

impl CallStack {
    /// Empty stack (top-level context).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current nesting depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The fold of the current context extended by `frame`: mix the frame
    /// with its depth, then combine with the parent fold via
    /// multiply-xor; order- and depth-sensitive.
    #[inline]
    fn fold(&self, frame: FrameAddr) -> u64 {
        let prev = self.signature().0;
        let depth = self.frames.len() as u64;
        prev.rotate_left(13).wrapping_mul(0x0000_0100_0000_01b3)
            ^ mix(frame ^ depth.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Enter a frame.
    pub fn push(&mut self, frame: FrameAddr) {
        let folded = self.fold(frame);
        self.frames.push(frame);
        self.cache.push(folded);
    }

    /// Leave the innermost frame. Panics on an empty stack — that is a
    /// workload bug (unbalanced push/pop) worth failing loudly on.
    pub fn pop(&mut self) {
        assert!(self.frames.pop().is_some(), "CallStack::pop on empty stack");
        self.cache.pop();
    }

    /// Signature of the current calling context.
    pub fn signature(&self) -> StackSig {
        StackSig(self.cache.last().copied().unwrap_or(StackSig::EMPTY.0))
    }

    /// Signature of the context extended by one extra frame, without
    /// mutating the stack. This is what the tracing wrapper uses: the MPI
    /// call site itself is the innermost frame.
    pub fn signature_with(&self, frame: FrameAddr) -> StackSig {
        StackSig(self.fold(frame))
    }

    /// The raw frame slice (outermost first); used by tests and debugging.
    pub fn frames(&self) -> &[FrameAddr] {
        &self.frames
    }
}

/// RAII guard that pops the frame on drop. Lets workloads express call
/// structure with lexical scoping:
///
/// ```
/// use sigkit::stack::{frame_addr, CallStack, FrameGuard};
/// let mut cs = CallStack::new();
/// {
///     let _g = FrameGuard::enter(&mut cs, frame_addr("timestep"));
///     // events issued here carry the "timestep" context
/// }
/// assert_eq!(cs.depth(), 0);
/// ```
pub struct FrameGuard<'a> {
    stack: &'a mut CallStack,
}

impl<'a> FrameGuard<'a> {
    /// Push `frame` and return a guard that pops it when dropped.
    pub fn enter(stack: &'a mut CallStack, frame: FrameAddr) -> Self {
        stack.push(frame);
        FrameGuard { stack }
    }

    /// Access the underlying stack (e.g. to take a signature mid-scope).
    pub fn stack(&mut self) -> &mut CallStack {
        self.stack
    }
}

impl Drop for FrameGuard<'_> {
    fn drop(&mut self) {
        self.stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_stack_same_signature() {
        let mk = || {
            let mut cs = CallStack::new();
            cs.push(frame_addr("main"));
            cs.push(frame_addr("loop"));
            cs.signature()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn different_frames_different_signature() {
        let mut a = CallStack::new();
        a.push(frame_addr("main"));
        a.push(frame_addr("send_site"));
        let mut b = CallStack::new();
        b.push(frame_addr("main"));
        b.push(frame_addr("recv_site"));
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn order_sensitive() {
        let (x, y) = (frame_addr("f"), frame_addr("g"));
        let mut a = CallStack::new();
        a.push(x);
        a.push(y);
        let mut b = CallStack::new();
        b.push(y);
        b.push(x);
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn recursion_distinguished() {
        let f = frame_addr("recurse");
        let mut once = CallStack::new();
        once.push(f);
        let mut twice = CallStack::new();
        twice.push(f);
        twice.push(f);
        assert_ne!(once.signature(), twice.signature());
    }

    #[test]
    fn pop_restores_signature() {
        let mut cs = CallStack::new();
        cs.push(frame_addr("main"));
        let outer = cs.signature();
        cs.push(frame_addr("inner"));
        cs.pop();
        assert_eq!(cs.signature(), outer);
    }

    #[test]
    fn signature_with_equals_push_pop() {
        let mut cs = CallStack::new();
        cs.push(frame_addr("main"));
        let probe = frame_addr("site");
        let via_with = cs.signature_with(probe);
        cs.push(probe);
        let via_push = cs.signature();
        assert_eq!(via_with, via_push);
    }

    #[test]
    fn guard_pops_on_drop() {
        let mut cs = CallStack::new();
        let base = cs.signature();
        {
            let _g = FrameGuard::enter(&mut cs, frame_addr("scoped"));
        }
        assert_eq!(cs.signature(), base);
        assert_eq!(cs.depth(), 0);
    }

    #[test]
    fn frame_addr_stable_and_distinct() {
        assert_eq!(frame_addr("abc"), frame_addr("abc"));
        assert_ne!(frame_addr("abc"), frame_addr("abd"));
        assert_ne!(frame_addr(""), frame_addr("x"));
    }

    #[test]
    #[should_panic(expected = "empty stack")]
    fn pop_empty_panics() {
        CallStack::new().pop();
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use xrand::Xoshiro256;

    /// The incremental cache must agree with a from-scratch fold after
    /// any sequence of pushes and pops.
    #[test]
    fn cache_consistent_with_rebuild() {
        let mut rng = Xoshiro256::seed_from_u64(0x57AC);
        for _case in 0..64 {
            let mut cs = CallStack::new();
            for _ in 0..rng.usize_below(64) {
                let op = rng.below(9) as u8;
                if op == 0 && cs.depth() > 0 {
                    cs.pop();
                } else {
                    cs.push(op as u64 * 0x1234_5678_9abc_def1);
                }
                let mut rebuilt = CallStack::new();
                for &f in cs.frames().to_vec().iter() {
                    rebuilt.push(f);
                }
                assert_eq!(rebuilt.signature(), cs.signature());
            }
        }
    }

    /// Distinct single-frame stacks collide with negligible probability.
    #[test]
    fn distinct_frames_distinct_sigs() {
        let mut rng = Xoshiro256::seed_from_u64(0xD157);
        for _case in 0..256 {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            if a == b {
                continue;
            }
            let mut x = CallStack::new();
            x.push(a);
            let mut y = CallStack::new();
            y.push(b);
            assert_ne!(x.signature(), y.signature());
        }
    }

    /// Depth changes signatures: a stack is never equal to one of its
    /// proper prefixes.
    #[test]
    fn prefix_never_equal() {
        let mut rng = Xoshiro256::seed_from_u64(0x9EF1);
        for _case in 0..256 {
            let len = rng.range_usize(1, 16);
            let frames: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let mut full = CallStack::new();
            for &f in &frames {
                full.push(f);
            }
            let mut prefix = CallStack::new();
            for &f in &frames[..frames.len() - 1] {
                prefix.push(f);
            }
            assert_ne!(full.signature(), prefix.signature());
        }
    }
}
