//! The instruction model: operations, operand shapes, memory operands.

use crate::reg::Reg;

/// Operand width, in the subset this crate models.
///
/// 16-bit operand size is deliberately unsupported: optimizing compilers
/// for x86-64 essentially never emit 16-bit arithmetic, and omitting it
/// removes the `0x66` prefix interactions from the encoder/decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 8-bit (low-byte registers only; `ah`-family is unsupported).
    W8,
    /// 32-bit; writes zero-extend into the full 64-bit register.
    W32,
    /// 64-bit.
    W64,
}

impl Width {
    /// Returns the width in bytes (1, 4 or 8).
    #[inline]
    pub fn bytes(self) -> u8 {
        match self {
            Width::W8 => 1,
            Width::W32 => 4,
            Width::W64 => 8,
        }
    }

    /// Returns the width in bits (8, 32 or 64).
    #[inline]
    pub fn bits(self) -> u32 {
        self.bytes() as u32 * 8
    }
}

/// Segment-override prefix. Only `fs`/`gs` are meaningful on x86-64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Seg {
    /// `%fs` override (prefix byte `0x64`).
    Fs,
    /// `%gs` override (prefix byte `0x65`).
    Gs,
}

/// A condition code, shared by `jcc`, `setcc` and `cmovcc`.
///
/// The discriminant is the hardware 4-bit condition number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cond {
    /// Overflow (`OF=1`).
    O = 0,
    /// No overflow.
    No = 1,
    /// Below (unsigned, `CF=1`).
    B = 2,
    /// Above or equal (unsigned).
    Ae = 3,
    /// Equal (`ZF=1`).
    E = 4,
    /// Not equal.
    Ne = 5,
    /// Below or equal (unsigned).
    Be = 6,
    /// Above (unsigned).
    A = 7,
    /// Sign (`SF=1`).
    S = 8,
    /// No sign.
    Ns = 9,
    /// Parity even.
    P = 10,
    /// Parity odd.
    Np = 11,
    /// Less (signed).
    L = 12,
    /// Greater or equal (signed).
    Ge = 13,
    /// Less or equal (signed).
    Le = 14,
    /// Greater (signed).
    G = 15,
}

impl Cond {
    /// Builds a condition from the hardware 4-bit number.
    ///
    /// # Panics
    ///
    /// Panics if `code >= 16`.
    pub fn from_code(code: u8) -> Cond {
        const ALL: [Cond; 16] = [
            Cond::O,
            Cond::No,
            Cond::B,
            Cond::Ae,
            Cond::E,
            Cond::Ne,
            Cond::Be,
            Cond::A,
            Cond::S,
            Cond::Ns,
            Cond::P,
            Cond::Np,
            Cond::L,
            Cond::Ge,
            Cond::Le,
            Cond::G,
        ];
        ALL[code as usize]
    }

    /// Returns the hardware 4-bit condition number.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Returns the logically negated condition (flips the low bit, as the
    /// hardware numbering guarantees).
    #[inline]
    pub fn negate(self) -> Cond {
        Cond::from_code(self.code() ^ 1)
    }

    /// Returns the AT&T mnemonic suffix, e.g. `"e"` for [`Cond::E`].
    pub fn suffix(self) -> &'static str {
        const SUF: [&str; 16] = [
            "o", "no", "b", "ae", "e", "ne", "be", "a", "s", "ns", "p", "np", "l", "ge", "le", "g",
        ];
        SUF[self.code() as usize]
    }
}

/// A memory operand: the `seg:disp(base,index,scale)` 5-tuple of §4.1.
///
/// For RIP-relative operands (`rip == true`), `disp` holds the **absolute
/// target address** rather than the raw displacement; the encoder converts
/// back to a `rel32` for the instruction's final address. Keeping the
/// absolute form makes moving instructions into trampolines a pure
/// re-encode, with no manual displacement fix-ups at call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mem {
    /// Optional segment override.
    pub seg: Option<Seg>,
    /// Base register, if any.
    pub base: Option<Reg>,
    /// Index register, if any. `rsp` cannot be an index.
    pub index: Option<Reg>,
    /// Scale factor applied to the index: 1, 2, 4 or 8.
    pub scale: u8,
    /// Displacement; absolute target address when `rip` is set.
    pub disp: i64,
    /// RIP-relative addressing (`disp(%rip)`).
    pub rip: bool,
}

impl Mem {
    /// An absolute 32-bit address operand (`disp32` with no registers).
    pub fn abs(addr: i64) -> Mem {
        Mem {
            seg: None,
            base: None,
            index: None,
            scale: 1,
            disp: addr,
            rip: false,
        }
    }

    /// A plain `(base)` operand.
    pub fn base(base: Reg) -> Mem {
        Mem::base_disp(base, 0)
    }

    /// A `disp(base)` operand.
    pub fn base_disp(base: Reg, disp: i64) -> Mem {
        Mem {
            seg: None,
            base: Some(base),
            index: None,
            scale: 1,
            disp,
            rip: false,
        }
    }

    /// A full `disp(base,index,scale)` operand.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4 or 8, or if `index` is `rsp`.
    pub fn bis(base: Reg, index: Reg, scale: u8, disp: i64) -> Mem {
        assert!(matches!(scale, 1 | 2 | 4 | 8), "invalid scale {scale}");
        assert!(index != Reg::Rsp, "rsp cannot be an index register");
        Mem {
            seg: None,
            base: Some(base),
            index: Some(index),
            scale,
            disp,
            rip: false,
        }
    }

    /// A base-less `disp(,index,scale)` operand.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4 or 8, or if `index` is `rsp`.
    pub fn index_scale(index: Reg, scale: u8, disp: i64) -> Mem {
        assert!(matches!(scale, 1 | 2 | 4 | 8), "invalid scale {scale}");
        assert!(index != Reg::Rsp, "rsp cannot be an index register");
        Mem {
            seg: None,
            base: None,
            index: Some(index),
            scale,
            disp,
            rip: false,
        }
    }

    /// A RIP-relative operand addressing absolute `target`.
    pub fn rip(target: u64) -> Mem {
        Mem {
            seg: None,
            base: None,
            index: None,
            scale: 1,
            disp: target as i64,
            rip: true,
        }
    }

    /// Returns a copy with the displacement replaced.
    pub fn with_disp(self, disp: i64) -> Mem {
        Mem { disp, ..self }
    }

    /// Returns `true` if the two operands differ only in displacement --
    /// the pre-condition for the paper's check-*merging* optimization (§6).
    pub fn same_shape(&self, other: &Mem) -> bool {
        self.seg == other.seg
            && self.base == other.base
            && self.index == other.index
            && (self.index.is_none() || self.scale == other.scale)
            && self.rip == other.rip
    }

    /// Registers read to form the effective address.
    pub fn regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.base.into_iter().chain(self.index)
    }
}

/// ALU operations sharing the classic opcode grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    /// Addition.
    Add = 0,
    /// Bitwise or.
    Or = 1,
    /// Bitwise and.
    And = 4,
    /// Subtraction.
    Sub = 5,
    /// Bitwise exclusive or.
    Xor = 6,
    /// Compare (subtraction discarding the result).
    Cmp = 7,
}

impl AluOp {
    /// Returns the `/digit` used in the `0x81`/`0x83` immediate forms.
    #[inline]
    pub fn digit(self) -> u8 {
        self as u8
    }

    /// Returns the AT&T mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Or => "or",
            AluOp::And => "and",
            AluOp::Sub => "sub",
            AluOp::Xor => "xor",
            AluOp::Cmp => "cmp",
        }
    }
}

/// Shift operations (immediate or `%cl` count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// Logical left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Arithmetic right shift.
    Sar,
}

impl ShiftOp {
    /// Returns the `/digit` for the `0xC1`/`0xD3` opcode groups.
    #[inline]
    pub fn digit(self) -> u8 {
        match self {
            ShiftOp::Shl => 4,
            ShiftOp::Shr => 5,
            ShiftOp::Sar => 7,
        }
    }

    /// Returns the AT&T mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ShiftOp::Shl => "shl",
            ShiftOp::Shr => "shr",
            ShiftOp::Sar => "sar",
        }
    }
}

/// Unary `0xF7`-group operations on `rdx:rax`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulDivOp {
    /// Unsigned multiply: `rdx:rax = rax * src`.
    Mul,
    /// Unsigned divide: `rax = rdx:rax / src`, `rdx = remainder`.
    Div,
    /// Signed divide.
    Idiv,
}

impl MulDivOp {
    /// Returns the `/digit` in the `0xF7` group.
    #[inline]
    pub fn digit(self) -> u8 {
        match self {
            MulDivOp::Mul => 4,
            MulDivOp::Div => 6,
            MulDivOp::Idiv => 7,
        }
    }

    /// Returns the AT&T mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MulDivOp::Mul => "mul",
            MulDivOp::Div => "div",
            MulDivOp::Idiv => "idiv",
        }
    }
}

/// The operation of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Data move (register/memory/immediate forms).
    Mov,
    /// Zero-extending load of an 8-bit source.
    Movzx8,
    /// Sign-extending load of an 8-bit source.
    Movsx8,
    /// Sign-extending load of a 32-bit source (`movsxd`).
    Movsxd,
    /// Load effective address.
    Lea,
    /// Two-operand ALU operation.
    Alu(AluOp),
    /// Bitwise test (`and` discarding the result).
    Test,
    /// Shift by immediate (count carried in the immediate operand).
    Shift(ShiftOp),
    /// Shift by `%cl`.
    ShiftCl(ShiftOp),
    /// Two-operand signed multiply (`imul r, r/m`).
    Imul2,
    /// Three-operand signed multiply (`imul r, r/m, imm`).
    Imul3,
    /// Unary multiply/divide on `rdx:rax`.
    MulDiv(MulDivOp),
    /// Two's-complement negate.
    Neg,
    /// Bitwise not.
    Not,
    /// Push onto the stack (64-bit).
    Push,
    /// Pop from the stack (64-bit).
    Pop,
    /// Sign-extend `rax` into `rdx` (`cqo`; `cdq` at 32-bit width).
    Cqo,
    /// Push `rflags`.
    Pushfq,
    /// Pop `rflags`.
    Popfq,
    /// Direct near call (`rel32`).
    Call,
    /// Indirect call through register/memory.
    CallInd,
    /// Near return.
    Ret,
    /// Direct jump (`rel8`/`rel32`).
    Jmp,
    /// Indirect jump through register/memory.
    JmpInd,
    /// Conditional jump.
    Jcc(Cond),
    /// Set byte on condition.
    Setcc(Cond),
    /// Conditional move.
    Cmovcc(Cond),
    /// System call trap into the runtime (`0F 05`).
    Syscall,
    /// Guaranteed-undefined instruction (`0F 0B`); RedFat's `error()` sink.
    Ud2,
    /// Breakpoint trap (`0xCC`); the rewriter's 1-byte patch tactic.
    Int3,
    /// No-operation (including the multi-byte `0F 1F /0` family).
    Nop,
}

/// The operand shape of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operands {
    /// No operands.
    None,
    /// Single register.
    R(Reg),
    /// Single memory operand.
    M(Mem),
    /// Register-to-register (`dst ← op(dst, src)` for ALU).
    RR {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Load: register destination, memory source.
    RM {
        /// Destination register.
        dst: Reg,
        /// Memory source.
        src: Mem,
    },
    /// Store: memory destination, register source.
    MR {
        /// Memory destination.
        dst: Mem,
        /// Source register.
        src: Reg,
    },
    /// Register destination with immediate.
    RI {
        /// Destination register.
        dst: Reg,
        /// Immediate (sign interpretation depends on the operation).
        imm: i64,
    },
    /// Memory destination with immediate.
    MI {
        /// Memory destination.
        dst: Mem,
        /// Immediate.
        imm: i64,
    },
    /// Register, register, immediate (`imul3`).
    RRI {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Immediate.
        imm: i64,
    },
    /// Register, memory, immediate (`imul3`).
    RMI {
        /// Destination register.
        dst: Reg,
        /// Memory source.
        src: Mem,
        /// Immediate.
        imm: i64,
    },
    /// Branch with an **absolute** target address.
    ///
    /// The decoder resolves `rel8`/`rel32` displacements against the
    /// instruction's address; the encoder converts back.
    Rel(u64),
}

/// A decoded (or to-be-encoded) instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    /// Operand width. Meaningless for width-less operations (`ret`,
    /// `push`, ...), which conventionally carry [`Width::W64`].
    pub w: Width,
    /// The operand shape.
    pub operands: Operands,
}

impl Inst {
    /// Convenience constructor.
    pub fn new(op: Op, w: Width, operands: Operands) -> Inst {
        Inst { op, w, operands }
    }

    /// Returns the memory operand that this instruction *accesses*
    /// (reads or writes through), if any.
    ///
    /// `lea` computes an address but performs no access, so it returns
    /// `None` here -- exactly the distinction the instrumentation needs.
    pub fn memory_access(&self) -> Option<Mem> {
        if matches!(self.op, Op::Lea | Op::Nop) {
            return None;
        }
        self.memory_operand()
    }

    /// Returns the raw memory operand, including `lea`'s.
    pub fn memory_operand(&self) -> Option<Mem> {
        match self.operands {
            Operands::M(m)
            | Operands::RM { src: m, .. }
            | Operands::MR { dst: m, .. }
            | Operands::MI { dst: m, .. }
            | Operands::RMI { src: m, .. } => Some(m),
            _ => None,
        }
    }

    /// Returns the size in bytes of the memory access, if any.
    ///
    /// This is the `len` parameter of the paper's Figure 4 check. For most
    /// operations it equals the operand width; `movzx`/`movsx` access
    /// their *source* width.
    pub fn access_len(&self) -> Option<u8> {
        self.memory_access()?;
        Some(match self.op {
            Op::Movzx8 | Op::Movsx8 | Op::Setcc(_) => 1,
            Op::Movsxd => 4,
            Op::Push | Op::Pop | Op::CallInd | Op::JmpInd => 8,
            _ => self.w.bytes(),
        })
    }

    /// Returns `true` if the instruction *writes* to its memory operand.
    pub fn writes_memory(&self) -> bool {
        if self.memory_access().is_none() {
            return false;
        }
        match self.op {
            // Stores and read-modify-write forms.
            Op::Mov | Op::Setcc(_) => matches!(
                self.operands,
                Operands::MR { .. } | Operands::MI { .. } | Operands::M(_)
            ),
            Op::Alu(AluOp::Cmp) | Op::Test => false,
            Op::Alu(_) | Op::Shift(_) | Op::ShiftCl(_) | Op::Neg | Op::Not => matches!(
                self.operands,
                Operands::MR { .. } | Operands::MI { .. } | Operands::M(_)
            ),
            Op::Pop => matches!(self.operands, Operands::M(_)),
            _ => false,
        }
    }

    /// Returns `true` for control-transfer instructions (the basic-block
    /// terminators of CFG recovery).
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self.op,
            Op::Call
                | Op::CallInd
                | Op::Ret
                | Op::Jmp
                | Op::JmpInd
                | Op::Jcc(_)
                | Op::Ud2
                | Op::Int3
        )
    }

    /// Returns the absolute branch target for direct branches.
    pub fn branch_target(&self) -> Option<u64> {
        match (self.op, self.operands) {
            (Op::Call | Op::Jmp | Op::Jcc(_), Operands::Rel(t)) => Some(t),
            _ => None,
        }
    }

    /// Bitmask (bit `Reg::code`) of the general-purpose registers this
    /// instruction reads. The one definition of the read set: the
    /// analyses use the mask directly and [`Inst::regs_read`] is a view
    /// over it.
    pub fn regs_read_mask(&self) -> u16 {
        let bit = |r: Reg| 1u16 << r.code();
        let mem = |m: &Mem| m.regs().fold(0, |acc, r| acc | bit(r));
        let mut out = match &self.operands {
            Operands::None | Operands::Rel(_) => 0,
            // Unary register forms read their operand unless pure-write.
            Operands::R(r) if !matches!(self.op, Op::Pop | Op::Setcc(_)) => bit(*r),
            Operands::R(_) => 0,
            Operands::M(m) => mem(m),
            Operands::RR { dst, src } => {
                // `mov`/`movzx`/`lea` do not read dst; RMW ALU does, and
                // `cmov` keeps dst when the condition is false, so its
                // prior value flows into the result.
                let rmw = matches!(
                    self.op,
                    Op::Alu(_)
                        | Op::Test
                        | Op::Imul2
                        | Op::Shift(_)
                        | Op::ShiftCl(_)
                        | Op::Cmovcc(_)
                );
                bit(*src) | if rmw { bit(*dst) } else { 0 }
            }
            Operands::RM { dst, src } => {
                let rmw = matches!(self.op, Op::Alu(_) | Op::Imul2 | Op::Cmovcc(_));
                mem(src) | if rmw { bit(*dst) } else { 0 }
            }
            Operands::MR { dst, src } => mem(dst) | bit(*src),
            Operands::RI { dst, .. } => {
                if matches!(self.op, Op::Alu(_) | Op::Test | Op::Shift(_)) {
                    bit(*dst)
                } else {
                    0
                }
            }
            Operands::MI { dst, .. } => mem(dst),
            Operands::RRI { src, .. } => bit(*src),
            Operands::RMI { src, .. } => mem(src),
        };
        out |= match self.op {
            Op::ShiftCl(_) => bit(Reg::Rcx),
            Op::MulDiv(_) => bit(Reg::Rax) | bit(Reg::Rdx),
            Op::Cqo => bit(Reg::Rax),
            Op::Push | Op::Pop | Op::Call | Op::CallInd | Op::Ret | Op::Pushfq | Op::Popfq => {
                bit(Reg::Rsp)
            }
            // Runtime call ABI: function number in rax, arguments in
            // rdi/rsi. These must be modeled as reads or liveness would
            // let instrumentation clobber a syscall argument.
            Op::Syscall => bit(Reg::Rax) | bit(Reg::Rdi) | bit(Reg::Rsi),
            _ => 0,
        };
        out
    }

    /// Bitmask (bit `Reg::code`) of the general-purpose registers this
    /// instruction writes; [`Inst::regs_written`] is a view over it.
    ///
    /// `call` conservatively clobbers nothing here; inter-procedural
    /// effects are the business of `redfat-analysis`.
    pub fn regs_written_mask(&self) -> u16 {
        let bit = |r: Reg| 1u16 << r.code();
        let mut out = match &self.operands {
            Operands::R(r) if !matches!(self.op, Op::Push | Op::CallInd | Op::JmpInd) => bit(*r),
            Operands::RR { dst, .. }
            | Operands::RM { dst, .. }
            | Operands::RI { dst, .. }
            | Operands::RRI { dst, .. }
            | Operands::RMI { dst, .. }
                if !matches!(self.op, Op::Alu(AluOp::Cmp) | Op::Test) =>
            {
                bit(*dst)
            }
            _ => 0,
        };
        out |= match self.op {
            Op::MulDiv(_) => bit(Reg::Rax) | bit(Reg::Rdx),
            Op::Cqo => bit(Reg::Rdx),
            Op::Push | Op::Pop | Op::Call | Op::CallInd | Op::Ret | Op::Pushfq | Op::Popfq => {
                bit(Reg::Rsp)
            }
            // Runtime call ABI: result in rax. Only *must*-writes belong
            // here -- the runtime preserves rcx/r11 (unlike real
            // hardware) and writes rdx only for read_int, so claiming
            // either would falsely kill liveness across the call.
            Op::Syscall => bit(Reg::Rax),
            _ => 0,
        };
        out
    }

    /// The registers of [`Inst::regs_read_mask`], in register-code order.
    pub fn regs_read(&self) -> Vec<Reg> {
        Reg::from_mask(self.regs_read_mask()).collect()
    }

    /// The registers of [`Inst::regs_written_mask`], in register-code
    /// order.
    pub fn regs_written(&self) -> Vec<Reg> {
        Reg::from_mask(self.regs_written_mask()).collect()
    }

    /// Returns `true` if the instruction *always* rewrites every
    /// arithmetic flag.
    ///
    /// This is a must-write predicate: the liveness analysis uses it to
    /// declare the flags dead (clobberable) before the instruction, so
    /// anything that can leave even one flag bit untouched must answer
    /// `false`. A shift whose (masked) count is zero preserves the flags
    /// entirely, which rules out `ShiftCl` -- the count is only known at
    /// run time -- and immediate shifts by a multiple of the operand
    /// width.
    pub fn writes_flags(&self) -> bool {
        match self.op {
            Op::Alu(_) | Op::Test | Op::Imul2 | Op::Imul3 | Op::MulDiv(_) | Op::Neg | Op::Popfq => {
                true
            }
            Op::Shift(_) => {
                let count_mask = if self.w == Width::W64 { 63 } else { 31 };
                match self.operands {
                    Operands::RI { imm, .. } | Operands::MI { imm, .. } => imm & count_mask != 0,
                    _ => false,
                }
            }
            _ => false,
        }
    }

    /// Returns `true` if the instruction reads the arithmetic flags.
    pub fn reads_flags(&self) -> bool {
        matches!(
            self.op,
            Op::Jcc(_) | Op::Setcc(_) | Op::Cmovcc(_) | Op::Pushfq
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_same_shape_ignores_disp() {
        let a = Mem::bis(Reg::Rax, Reg::Rcx, 4, 0);
        let b = Mem::bis(Reg::Rax, Reg::Rcx, 4, 0x10);
        let c = Mem::bis(Reg::Rax, Reg::Rdx, 4, 0);
        assert!(a.same_shape(&b));
        assert!(!a.same_shape(&c));
    }

    #[test]
    fn cond_negation_flips_low_bit() {
        assert_eq!(Cond::E.negate(), Cond::Ne);
        assert_eq!(Cond::A.negate(), Cond::Be);
        assert_eq!(Cond::L.negate(), Cond::Ge);
        for c in 0..16u8 {
            let cond = Cond::from_code(c);
            assert_eq!(cond.negate().negate(), cond);
        }
    }

    #[test]
    fn store_writes_memory_load_does_not() {
        let store = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::MR {
                dst: Mem::base(Reg::Rax),
                src: Reg::Rcx,
            },
        );
        let load = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::RM {
                dst: Reg::Rcx,
                src: Mem::base(Reg::Rax),
            },
        );
        assert!(store.writes_memory());
        assert!(!load.writes_memory());
        assert_eq!(store.access_len(), Some(8));
    }

    #[test]
    fn lea_is_not_a_memory_access() {
        let lea = Inst::new(
            Op::Lea,
            Width::W64,
            Operands::RM {
                dst: Reg::Rax,
                src: Mem::bis(Reg::Rbx, Reg::Rcx, 8, -4),
            },
        );
        assert!(lea.memory_access().is_none());
        assert!(lea.memory_operand().is_some());
        assert_eq!(lea.access_len(), None);
    }

    #[test]
    fn cmp_reads_both_writes_neither() {
        let cmp = Inst::new(
            Op::Alu(AluOp::Cmp),
            Width::W64,
            Operands::RR {
                dst: Reg::Rax,
                src: Reg::Rbx,
            },
        );
        assert!(cmp.regs_read().contains(&Reg::Rax));
        assert!(cmp.regs_read().contains(&Reg::Rbx));
        assert!(cmp.regs_written().is_empty());
        assert!(cmp.writes_flags());
    }

    #[test]
    fn writes_flags_is_a_must_write_predicate() {
        // A shift whose masked count is zero preserves the flags, so it
        // must not count as a writer: the liveness analysis would
        // otherwise let instrumentation trash flags it cannot restore.
        let shl = |w, imm| {
            Inst::new(
                Op::Shift(crate::ShiftOp::Shl),
                w,
                Operands::RI { dst: Reg::Rax, imm },
            )
        };
        assert!(shl(Width::W64, 3).writes_flags());
        assert!(!shl(Width::W64, 0).writes_flags());
        assert!(!shl(Width::W64, 64).writes_flags()); // masked to 0
        assert!(!shl(Width::W32, 32).writes_flags()); // masked to 0
        assert!(shl(Width::W32, 33).writes_flags()); // masked to 1
                                                     // The cl count is unknown statically and may be zero at run time.
        let shl_cl = Inst::new(
            Op::ShiftCl(crate::ShiftOp::Shl),
            Width::W64,
            Operands::R(Reg::Rax),
        );
        assert!(!shl_cl.writes_flags());
        // mul/div rewrite every flag (the emulator defines the bits the
        // architecture leaves undefined).
        let idiv = Inst::new(
            Op::MulDiv(crate::MulDivOp::Idiv),
            Width::W64,
            Operands::R(Reg::Rcx),
        );
        assert!(idiv.writes_flags());
    }

    #[test]
    fn cmov_reads_its_destination() {
        // With a false condition, cmov leaves dst unchanged (or, at
        // 32-bit width, zero-extends its old low half): the prior value
        // is an input either way.
        let cmov = Inst::new(
            Op::Cmovcc(Cond::E),
            Width::W64,
            Operands::RR {
                dst: Reg::Rax,
                src: Reg::Rbx,
            },
        );
        assert!(cmov.regs_read().contains(&Reg::Rax));
        assert!(cmov.regs_read().contains(&Reg::Rbx));
        assert!(cmov.regs_written().contains(&Reg::Rax));
        let cmov_m = Inst::new(
            Op::Cmovcc(Cond::Ne),
            Width::W64,
            Operands::RM {
                dst: Reg::Rcx,
                src: Mem::base(Reg::Rdx),
            },
        );
        assert!(cmov_m.regs_read().contains(&Reg::Rcx));
    }

    #[test]
    fn syscall_models_the_runtime_call_abi() {
        let sc = Inst::new(Op::Syscall, Width::W64, Operands::None);
        let reads = sc.regs_read();
        for r in [Reg::Rax, Reg::Rdi, Reg::Rsi] {
            assert!(reads.contains(&r), "{r:?} carries the number/arguments");
        }
        // Must-writes only: the runtime returns in rax and preserves
        // rcx/r11; rdx is written only by read_int.
        assert_eq!(sc.regs_written(), vec![Reg::Rax]);
    }

    #[test]
    fn muldiv_uses_rax_rdx() {
        let mul = Inst::new(Op::MulDiv(MulDivOp::Mul), Width::W64, Operands::R(Reg::Rbx));
        assert!(mul.regs_written().contains(&Reg::Rax));
        assert!(mul.regs_written().contains(&Reg::Rdx));
        assert!(mul.regs_read().contains(&Reg::Rbx));
    }
}
