//! General-purpose register names and their hardware encodings.

/// A 64-bit general-purpose register.
///
/// Sub-register access (32/16/8-bit) is expressed by pairing a `Reg` with a
/// [`crate::Width`] in the instruction model, mirroring how the hardware
/// reuses the same 4-bit register number across operand sizes. Only the
/// "low byte" 8-bit registers are modeled (`al`, `cl`, ..., `r15b`); the
/// legacy high-byte registers (`ah`..`bh`) are intentionally unsupported,
/// as compilers for 64-bit targets rarely emit them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Reg {
    /// Accumulator; implicit operand of `mul`/`div`/`cqo`.
    Rax = 0,
    /// Counter; implicit shift-count register (`cl`).
    Rcx = 1,
    /// Data; implicit high half of `mul`/`div`.
    Rdx = 2,
    /// Base (callee-saved in the System V ABI).
    Rbx = 3,
    /// Stack pointer; unusable as a SIB index.
    Rsp = 4,
    /// Frame pointer (callee-saved).
    Rbp = 5,
    /// Source index; 2nd argument register in the System V ABI.
    Rsi = 6,
    /// Destination index; 1st argument register in the System V ABI.
    Rdi = 7,
    /// Extended register 8; 5th argument register.
    R8 = 8,
    /// Extended register 9; 6th argument register.
    R9 = 9,
    /// Extended register 10 (caller-saved).
    R10 = 10,
    /// Extended register 11 (caller-saved).
    R11 = 11,
    /// Extended register 12 (callee-saved).
    R12 = 12,
    /// Extended register 13 (callee-saved); shares `rbp`'s ModRM quirk.
    R13 = 13,
    /// Extended register 14 (callee-saved).
    R14 = 14,
    /// Extended register 15 (callee-saved).
    R15 = 15,
}

/// All sixteen general-purpose registers in encoding order.
pub const ALL_REGS: [Reg; 16] = [
    Reg::Rax,
    Reg::Rcx,
    Reg::Rdx,
    Reg::Rbx,
    Reg::Rsp,
    Reg::Rbp,
    Reg::Rsi,
    Reg::Rdi,
    Reg::R8,
    Reg::R9,
    Reg::R10,
    Reg::R11,
    Reg::R12,
    Reg::R13,
    Reg::R14,
    Reg::R15,
];

impl Reg {
    /// Returns the 4-bit hardware register number (0..=15).
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Returns the low three bits used in ModRM/SIB fields.
    #[inline]
    pub fn low3(self) -> u8 {
        self.code() & 0b111
    }

    /// Returns `true` if encoding this register requires a REX extension
    /// bit (`r8`..`r15`).
    #[inline]
    pub fn is_extended(self) -> bool {
        self.code() >= 8
    }

    /// Builds a register from its 4-bit hardware number.
    ///
    /// # Panics
    ///
    /// Panics if `code >= 16`; decoder-internal values are always masked.
    #[inline]
    pub fn from_code(code: u8) -> Reg {
        ALL_REGS[code as usize]
    }

    /// The registers whose bits (`1 << code`) are set in `mask`, in
    /// register-code order.
    pub fn from_mask(mask: u16) -> impl Iterator<Item = Reg> {
        (0u8..16)
            .filter(move |&c| mask & (1 << c) != 0)
            .map(Reg::from_code)
    }

    /// Returns the canonical 64-bit AT&T-style name, e.g. `"rax"`.
    pub fn name64(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi", "r8", "r9", "r10", "r11",
            "r12", "r13", "r14", "r15",
        ];
        NAMES[self.code() as usize]
    }

    /// Returns the 32-bit sub-register name, e.g. `"eax"`.
    pub fn name32(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi", "r8d", "r9d", "r10d", "r11d",
            "r12d", "r13d", "r14d", "r15d",
        ];
        NAMES[self.code() as usize]
    }

    /// Returns the 16-bit sub-register name, e.g. `"ax"`.
    pub fn name16(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "ax", "cx", "dx", "bx", "sp", "bp", "si", "di", "r8w", "r9w", "r10w", "r11w", "r12w",
            "r13w", "r14w", "r15w",
        ];
        NAMES[self.code() as usize]
    }

    /// Returns the low-byte sub-register name, e.g. `"al"` / `"sil"`.
    pub fn name8(self) -> &'static str {
        const NAMES: [&str; 16] = [
            "al", "cl", "dl", "bl", "spl", "bpl", "sil", "dil", "r8b", "r9b", "r10b", "r11b",
            "r12b", "r13b", "r14b", "r15b",
        ];
        NAMES[self.code() as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for r in ALL_REGS {
            assert_eq!(Reg::from_code(r.code()), r);
        }
    }

    #[test]
    fn low3_masks_extension() {
        assert_eq!(Reg::R8.low3(), 0);
        assert_eq!(Reg::R15.low3(), 7);
        assert!(Reg::R8.is_extended());
        assert!(!Reg::Rdi.is_extended());
    }

    #[test]
    fn names_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for r in ALL_REGS {
            assert!(seen.insert(r.name64()));
            assert!(seen.insert(r.name32()));
            assert!(seen.insert(r.name8()));
        }
    }
}
