//! The low-fat memory allocator and the RedFat `malloc` wrapper.
//!
//! This crate reproduces the allocator half of the paper:
//!
//! * **Low-fat allocation** (paper §2.1, Figure 2): each size class owns a
//!   32 GiB region of the guest address space; objects are placed at
//!   global multiples of their class size, so `base(ptr)` and `size(ptr)`
//!   are computable from the pointer value alone (a table lookup plus a
//!   magic-number division).
//! * **The RedFat `malloc` wrapper** (paper §4.1, Figure 3):
//!   `malloc(SIZE) = lowfat_malloc(SIZE+16)+16`, with the 16-byte prefix
//!   serving both as the *redzone* and as in-band shadow storage for the
//!   object's `STATE`/`SIZE` metadata. The merged representation of §4.2
//!   is used: `SIZE > 0` means `Allocated` and `SIZE == 0` means `Free`,
//!   which lets the instrumentation fold the use-after-free check into the
//!   bounds check.
//! * **Basic heap randomization** (paper §8): [`AllocPolicyKind`] picks
//!   how the one slot allocator supplies slots -- the paper's
//!   bump-or-reuse, or a randomized window of slots with randomized
//!   allocation offsets. The slot contract the emitted checks rely on
//!   is the same under both.
//!
//! The allocator runs against the simulated [`redfat_vm::Vm`]; installing
//! it into a guest (writing the SIZES/MAGICS tables to the runtime page)
//! is the reproduction's analogue of `LD_PRELOAD`-ing `libredfat.so`.

mod alloc;
mod policy;
mod wrapper;

pub use alloc::{AllocError, AllocStats, LowFatConfig};
pub use policy::AllocPolicyKind;
pub use wrapper::{ObjState, RedFatHeap, REDZONE_SIZE};
