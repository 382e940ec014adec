//! Switched stacks: the rank continuation of the event scheduler, and
//! every `unsafe` line and raw libc call in the workspace.
//!
//! A [`Fiber`] is a closure running on its own [`Stack`]. Its owner
//! [`Fiber::resume`]s it; the closure runs until it calls [`suspend`],
//! which returns control to the `resume` call, and the next `resume`
//! continues it behind that `suspend`. Each direction is one `switch`:
//! push the six callee-saved registers, swap `rsp`, pop them on the other
//! side — no syscall, no other thread involved.
//!
//! Three rules the compiler cannot check keep this sound. The first is
//! enforced by a type, the other two by the callers in `sched`:
//!
//! 1. **A fiber never changes OS thread.** `Fiber` holds a raw pointer and
//!    is therefore neither `Send` nor `Sync`: it is resumed only by the
//!    thread that built it, so `!Send` values, `std`'s thread-locals and
//!    the panic count on a fiber's stack never see a second thread
//!    (`sched`: `Sched::run` resumes every rank on the thread that calls
//!    it).
//! 2. **No borrow of the engine state is live across a switch.** `suspend`
//!    hands the thread to code that borrows the same state (the scheduler
//!    loop, the next rank): `Sched::park` ends its borrow of the
//!    thread-local engine state before it suspends, and holds no mailbox
//!    lock either.
//! 3. **No unwind crosses a switch.** The closure runs under
//!    `catch_unwind` in [`entry`]; a panic that reaches it is carried back
//!    and re-raised by `resume` on the owner's stack.
//!
//! A fiber that outgrows its stack runs into the `PROT_NONE` guard page
//! below it: the process dies on `SIGSEGV` (std's handler sees a fault
//! outside the *thread's* guard range and restores the default action)
//! rather than corrupting its neighbour.
//!
//! The switch is x86-64 System V assembly and the mappings are Linux
//! `mmap`; [`SUPPORTED`] is `false` elsewhere and `Waiter::new` then never
//! builds the engine that would call in here.

#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::cell::Cell;
use std::io;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;

/// Whether this target has a switch routine (x86-64 Linux).
pub(super) const SUPPORTED: bool = sys::SUPPORTED;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod sys {
    use std::ffi::c_void;
    use std::io;

    pub(super) const SUPPORTED: bool = true;
    /// The base page size of every x86-64 Linux.
    pub(super) const PAGE: usize = 4096;

    const PROT_NONE: i32 = 0;
    const PROT_READ_WRITE: i32 = 1 | 2;
    const MAP_PRIVATE_ANON_NORESERVE: i32 = 0x02 | 0x20 | 0x4000;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// Map `len` zeroed, lazily-backed bytes whose lowest page faults on
    /// any access; returns the base address.
    pub(super) fn map_guarded(len: usize) -> io::Result<usize> {
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases nothing this program owns.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANON_NORESERVE,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the page is the first of the mapping made above, which
        // nothing else has seen yet.
        if unsafe { mprotect(base, PAGE, PROT_NONE) } != 0 {
            let err = io::Error::last_os_error();
            // SAFETY: as below — the mapping is ours and unshared.
            unsafe { unmap(base as usize, len) };
            return Err(err);
        }
        Ok(base as usize)
    }

    /// # Safety
    /// `base..base + len` is one whole mapping from [`map_guarded`] that no
    /// live reference or stack pointer points into.
    pub(super) unsafe fn unmap(base: usize, len: usize) {
        // SAFETY: the caller owns the whole range. A failure (ENOMEM when
        // the unmap would split a mapping — it cannot, the range is whole)
        // would leak the range, never free it twice.
        unsafe { munmap(base as *mut c_void, len) };
    }

    /// Lay out the frame [`switch`] expects at the top of a fresh stack, so
    /// the first switch into it "returns" to `entry`; returns the `rsp` to
    /// load.
    ///
    /// # Safety
    /// `top` is the 16-aligned upper end of a writable mapping of at least
    /// 64 bytes that nothing else uses.
    pub(super) unsafe fn first_frame(top: usize, entry: extern "C" fn() -> !) -> usize {
        // From the top down: a null return address for `entry` (ends a
        // backtrace; `entry` never returns), `entry` itself where `ret`
        // finds it — at a 16-aligned slot, so `entry` starts with the
        // `rsp % 16 == 8` a `call` would have left — and six zeroed
        // callee-saved registers (`rbp = 0` ends a frame-pointer walk).
        let frame = [0, 0, 0, 0, 0, 0, entry as usize, 0];
        let rsp = top - std::mem::size_of_val(&frame);
        // SAFETY: the caller guarantees the 64 bytes below `top` are
        // writable, unshared, and aligned for `usize`.
        unsafe { (rsp as *mut [usize; 8]).write(frame) };
        rsp
    }

    /// Save the running context's callee-saved registers and stack pointer
    /// to `*save`, then continue the context whose stack pointer is `load`.
    /// Returns when something switches back to the saved context. `load` is
    /// read before `*save` is written, so both may name one slot.
    ///
    /// MXCSR and the x87 control word, callee-saved by the ABI too, are not
    /// swapped: nothing in this program changes them, so every context
    /// holds the same values.
    ///
    /// # Safety
    /// `save` is writable; `load` was stored by an earlier `switch` (or
    /// built by [`first_frame`]) on a stack that is still mapped, is not
    /// running, and was last run by this OS thread.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn switch(save: *mut usize, load: usize) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }
}

/// No switch routine is written for this target; `Waiter::new` sees
/// `SUPPORTED == false` and runs [`crate::SchedMode::Events`] worlds on the
/// thread engine, so nothing below is reached.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod sys {
    use std::io;

    pub(super) const SUPPORTED: bool = false;
    pub(super) const PAGE: usize = 4096;

    pub(super) fn map_guarded(_len: usize) -> io::Result<usize> {
        Err(io::ErrorKind::Unsupported.into())
    }
    pub(super) unsafe fn unmap(_base: usize, _len: usize) {}
    pub(super) unsafe fn first_frame(_top: usize, _entry: extern "C" fn() -> !) -> usize {
        unreachable!("no stack can be mapped on this target")
    }
    pub(super) unsafe extern "C" fn switch(_save: *mut usize, _load: usize) {
        unreachable!("no fiber can be built on this target")
    }
}

/// An owned stack mapping: `bytes` of lazily-backed memory above one
/// inaccessible guard page. Unmapped on drop.
pub(super) struct Stack {
    base: usize,
    len: usize,
}

impl Stack {
    /// Map a stack with at least `bytes` usable bytes (rounded up to whole
    /// pages). Costs address space and two VMAs; a page is backed only
    /// once it is touched.
    pub(super) fn map(bytes: usize) -> io::Result<Stack> {
        let len = bytes
            .max(sys::PAGE)
            .checked_next_multiple_of(sys::PAGE)
            .and_then(|usable| usable.checked_add(sys::PAGE))
            .ok_or(io::ErrorKind::InvalidInput)?;
        let base = sys::map_guarded(len)?;
        Ok(Stack { base, len })
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base..base + len` is the mapping `map` made; a `Stack`
        // is dropped only by a `Fiber` that never ran on it or ran to
        // completion (`Fiber::drop`), so no frame on it is live.
        unsafe { sys::unmap(self.base, self.len) };
    }
}

/// What both sides of a switch share. Boxed so its address survives moves
/// of the [`Fiber`]; reached through raw pointers only, so neither side
/// holds a reference across a switch.
struct Control {
    /// The saved stack pointer of whichever side is *not* running: the
    /// fiber's while it is suspended, its resumer's while it runs.
    rsp: usize,
    /// The closure, until the first `resume` moves it onto the stack.
    start: Option<Box<dyn FnOnce()>>,
    /// The closure returned or unwound; the stack holds no live frame.
    done: bool,
    /// A panic that escaped the closure, on its way to `resume`.
    panic: Option<Box<dyn Any + Send>>,
}

thread_local! {
    /// The fiber running on this thread (innermost, when fibers nest), or
    /// null on a thread's own stack. Thread-local because of rule 1: a
    /// fiber only ever runs on the thread that resumed it.
    static CURRENT: Cell<*mut Control> = const { Cell::new(ptr::null_mut()) };
}

/// A closure with its own stack, run in slices by [`Fiber::resume`].
pub(super) struct Fiber<'a> {
    /// From `Box::into_raw`; freed in `drop`. The raw pointer is what
    /// makes `Fiber` `!Send + !Sync` (rule 1).
    ctl: *mut Control,
    /// `None` once `drop` has decided to leak the mapping.
    stack: Option<Stack>,
    _closure: PhantomData<Box<dyn FnOnce() + 'a>>,
}

impl<'a> Fiber<'a> {
    /// A fiber that will run `f` on `stack` at its first [`Fiber::resume`].
    pub(super) fn new(stack: Stack, f: impl FnOnce() + 'a) -> Fiber<'a> {
        let start: Box<dyn FnOnce() + 'a> = Box::new(f);
        // SAFETY: only the lifetime bound changes. The closure is called
        // or dropped by `resume`/`drop` of this `Fiber<'a>` — so within
        // `'a` — or leaked with the stack it was moved onto.
        let start: Box<dyn FnOnce()> = unsafe { std::mem::transmute(start) };
        // SAFETY: `stack` is a fresh mapping of at least two pages; its
        // upper end is page-aligned and the page below it is writable.
        let rsp = unsafe { sys::first_frame(stack.base + stack.len, entry) };
        let ctl = Box::into_raw(Box::new(Control {
            rsp,
            start: Some(start),
            done: false,
            panic: None,
        }));
        Fiber {
            ctl,
            stack: Some(stack),
            _closure: PhantomData,
        }
    }

    /// Run the fiber until it suspends or finishes; `true` once it has
    /// finished. Re-raises, on the caller's stack, a panic that escaped
    /// the closure.
    pub(super) fn resume(&mut self) -> bool {
        let ctl = self.ctl;
        // SAFETY: `ctl` is this fiber's live control block, and the fiber
        // is not running (it would hold the thread), so nothing else
        // touches the block.
        assert!(!unsafe { (*ctl).done }, "resumed a finished fiber");
        let outer = CURRENT.replace(ctl);
        // SAFETY: `rsp` is the frame `new` built or the one the fiber's
        // last `suspend` saved; its stack is mapped (we own it), idle, and
        // — `Fiber` being `!Send` — was last run by this thread.
        unsafe { swap(ctl) };
        CURRENT.set(outer);
        // SAFETY: the fiber switched back, so it is not running.
        let (done, panic) = unsafe { ((*ctl).done, (*ctl).panic.take()) };
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        done
    }
}

impl Drop for Fiber<'_> {
    fn drop(&mut self) {
        // SAFETY: `ctl` came from `Box::into_raw` in `new`, is freed only
        // here, and the fiber is not running.
        let ctl = unsafe { Box::from_raw(self.ctl) };
        if ctl.start.is_none() && !ctl.done {
            // Suspended mid-run: its frames are live and may be borrowed
            // from; unmapping would free them without running their
            // destructors. Leak the mapping instead.
            std::mem::forget(self.stack.take());
        }
    }
}

/// Return control to the [`Fiber::resume`] call that is running the
/// current fiber; returns at that fiber's next `resume`.
///
/// Panics when called from a thread's own stack.
pub(super) fn suspend() {
    let ctl = CURRENT.get();
    assert!(!ctl.is_null(), "suspend outside a fiber");
    // SAFETY: `CURRENT` is the control block of the fiber whose stack this
    // call runs on, set by the `resume` that is waiting in `swap` on this
    // thread; `rsp` holds that resumer's saved stack pointer.
    unsafe { swap(ctl) };
}

/// The one place a stack pointer changes hands: continue the side saved
/// in `ctl.rsp` and save this side there. Never inlined, so no value the
/// compiler derived from the thread or the stack straddles the switch.
///
/// # Safety
/// `ctl` is a live control block whose `rsp` satisfies [`sys::switch`]'s
/// contract for `load`.
#[inline(never)]
unsafe fn swap(ctl: *mut Control) {
    // SAFETY: `rsp` is a field of the live block; the rest is the caller's.
    unsafe { sys::switch(&raw mut (*ctl).rsp, (*ctl).rsp) };
}

/// First frame of every fiber: run the closure, report how it ended, and
/// leave the stack for good.
extern "C" fn entry() -> ! {
    let ctl = CURRENT.get();
    // SAFETY: only the first `resume` of a fiber lands here, and it set
    // `CURRENT` to that fiber's control block before switching.
    let start = unsafe { (*ctl).start.take() }.expect("a fiber is entered once");
    // Rule 3: nothing may unwind into the hand-built frame above this one.
    let panic = catch_unwind(AssertUnwindSafe(start)).err();
    // SAFETY: as above; the resumer is suspended inside `swap` and reads
    // these only after the switch below.
    unsafe {
        (*ctl).panic = panic;
        (*ctl).done = true;
        swap(ctl);
    }
    // `resume` refuses a finished fiber, so nothing switches back here.
    std::process::abort()
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use super::*;
    use std::cell::RefCell;

    const BYTES: usize = 64 * 1024;

    #[test]
    fn runs_in_slices_and_keeps_locals_across_suspends() {
        let log = RefCell::new(Vec::new());
        let mut f = Fiber::new(Stack::map(BYTES).unwrap(), || {
            let mut acc = 1u64;
            for step in 0..3 {
                acc = acc * 10 + step;
                log.borrow_mut().push(acc);
                suspend();
            }
        });
        for expect in [vec![10], vec![10, 101], vec![10, 101, 1012]] {
            assert!(!f.resume());
            assert_eq!(*log.borrow(), expect);
        }
        assert!(f.resume(), "the closure returns on the fourth slice");
    }

    #[test]
    fn interleaves_many_fibers_on_one_thread() {
        let order = RefCell::new(Vec::new());
        let mut fibers: Vec<Fiber<'_>> = (0..64usize)
            .map(|id| {
                let order = &order;
                Fiber::new(Stack::map(BYTES).unwrap(), move || {
                    for round in 0..4 {
                        order.borrow_mut().push((round, id));
                        suspend();
                    }
                })
            })
            .collect();
        for _ in 0..5 {
            for f in &mut fibers {
                f.resume();
            }
        }
        let expect: Vec<_> = (0..4)
            .flat_map(|r| (0..64).map(move |id| (r, id)))
            .collect();
        assert_eq!(*order.borrow(), expect);
    }

    #[test]
    fn nested_fibers_suspend_to_their_own_resumer() {
        let log = RefCell::new(Vec::new());
        let mut outer = Fiber::new(Stack::map(BYTES).unwrap(), || {
            let mut inner = Fiber::new(Stack::map(BYTES).unwrap(), || {
                log.borrow_mut().push("inner 1");
                suspend();
                log.borrow_mut().push("inner 2");
            });
            inner.resume();
            log.borrow_mut().push("outer between");
            suspend();
            inner.resume();
        });
        outer.resume();
        log.borrow_mut().push("main");
        assert!(outer.resume());
        assert_eq!(
            *log.borrow(),
            ["inner 1", "outer between", "main", "inner 2"]
        );
    }

    #[test]
    fn a_panic_is_caught_inside_and_reraised_by_resume() {
        let mut f = Fiber::new(Stack::map(BYTES).unwrap(), || {
            suspend();
            panic!("boom on a switched stack");
        });
        assert!(!f.resume());
        let payload = catch_unwind(AssertUnwindSafe(|| f.resume())).unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom on a switched stack")
        );
        // The unwind ran the closure's frames down: the fiber is finished,
        // not leaked, and a caught panic inside never reaches `resume`.
        let mut g = Fiber::new(Stack::map(BYTES).unwrap(), || {
            assert!(catch_unwind(|| panic!("contained")).is_err());
        });
        assert!(g.resume());
    }

    #[test]
    fn unstarted_and_suspended_fibers_drop_without_running() {
        let ran = Cell::new(false);
        drop(Fiber::new(Stack::map(BYTES).unwrap(), || ran.set(true)));
        assert!(!ran.get());
        struct SetOnDrop<'a>(&'a Cell<bool>);
        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let dropped = Cell::new(false);
        let mut f = Fiber::new(Stack::map(BYTES).unwrap(), || {
            let _live = SetOnDrop(&dropped);
            suspend();
        });
        f.resume();
        drop(f);
        assert!(!dropped.get(), "a suspended fiber's frames are leaked");
    }

    #[test]
    fn suspend_on_a_thread_stack_panics() {
        assert!(catch_unwind(suspend).is_err());
    }

    #[test]
    fn stack_sizes_round_up_and_overflowing_sizes_are_refused() {
        let s = Stack::map(1).unwrap();
        assert_eq!(s.len, 2 * sys::PAGE, "one usable page above the guard");
        let s = Stack::map(BYTES + 1).unwrap();
        assert_eq!(s.len, BYTES + 2 * sys::PAGE);
        assert!(Stack::map(usize::MAX).is_err());
    }
}
