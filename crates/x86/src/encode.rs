//! Binary encoder: [`Inst`] → real x86-64 machine code bytes.

use crate::insn::{AluOp, Inst, Mem, Op, Operands, Seg, Width};
use crate::reg::Reg;

/// An encoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The operand shape is not valid for the operation.
    BadOperands(&'static str),
    /// A displacement, immediate or branch offset does not fit its field.
    OutOfRange(&'static str),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::BadOperands(m) => write!(f, "bad operands: {m}"),
            EncodeError::OutOfRange(m) => write!(f, "value out of range: {m}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Either side of a ModRM byte's `r/m` field.
#[derive(Clone, Copy)]
enum Rm {
    Reg(Reg),
    Mem(Mem),
}

/// Returns `true` if using `r` as an *8-bit* register requires a bare REX
/// prefix (`spl`/`bpl`/`sil`/`dil` instead of legacy `ah`..`bh`).
fn bare8(r: Reg) -> bool {
    matches!(r, Reg::Rsp | Reg::Rbp | Reg::Rsi | Reg::Rdi)
}

/// Appends one instruction's encoding to a caller-owned buffer. `start`
/// is where the instruction begins in `buf`, so `buf.len() - start` is
/// the encoded length so far (the origin of RIP-relative and branch
/// displacements).
struct Enc<'a> {
    buf: &'a mut Vec<u8>,
    start: usize,
    /// Direct branches take their rel32 form even when a rel8 reaches.
    wide: bool,
    /// The offset from `start` of the rel32 that depends on the
    /// instruction's address (a rip-relative disp32 or a branch's rel32),
    /// once emitted.
    field: Option<usize>,
}

impl Enc<'_> {
    /// Bytes of the current instruction emitted so far.
    fn len(&self) -> u64 {
        (self.buf.len() - self.start) as u64
    }

    fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.buf.extend_from_slice(bs);
    }

    fn imm32(&mut self, v: i32) {
        self.bytes(&v.to_le_bytes());
    }

    fn imm64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn seg_prefix(&mut self, seg: Option<Seg>) {
        match seg {
            Some(Seg::Fs) => self.byte(0x64),
            Some(Seg::Gs) => self.byte(0x65),
            None => {}
        }
    }

    /// Emits a REX prefix if needed. `bare` forces emission of at least
    /// `0x40` (required for uniform byte registers).
    fn rex(&mut self, w: bool, reg: Option<Reg>, rm: &Rm, bare: bool) {
        let r = reg.is_some_and(|r| r.is_extended());
        let (b, x) = match rm {
            Rm::Reg(r) => (r.is_extended(), false),
            Rm::Mem(m) => (
                m.base.is_some_and(|r| r.is_extended()),
                m.index.is_some_and(|r| r.is_extended()),
            ),
        };
        let mut rex = 0x40u8;
        if w {
            rex |= 8;
        }
        if r {
            rex |= 4;
        }
        if x {
            rex |= 2;
        }
        if b {
            rex |= 1;
        }
        if rex != 0x40 || bare {
            self.byte(rex);
        }
    }

    /// Emits ModRM (+SIB +disp). Returns the patch offset of a pending
    /// RIP-relative disp32, if any.
    fn modrm(&mut self, reg_field: u8, rm: &Rm) -> Result<Option<usize>, EncodeError> {
        let reg3 = (reg_field & 7) << 3;
        match rm {
            Rm::Reg(r) => {
                self.byte(0xC0 | reg3 | r.low3());
                Ok(None)
            }
            Rm::Mem(m) => {
                if m.rip {
                    // mod=00 rm=101: RIP-relative disp32, fixed up later.
                    self.byte(reg3 | 0b101);
                    let pos = self.buf.len();
                    self.imm32(0);
                    return Ok(Some(pos));
                }
                match (m.base, m.index) {
                    (None, None) => {
                        // Absolute disp32: mod=00 rm=100 with SIB base=101
                        // index=100.
                        let disp: i32 = m
                            .disp
                            .try_into()
                            .map_err(|_| EncodeError::OutOfRange("absolute disp32"))?;
                        self.byte(reg3 | 0b100);
                        self.byte(0x25);
                        self.imm32(disp);
                        Ok(None)
                    }
                    (base, Some(idx)) => {
                        debug_assert!(idx != Reg::Rsp);
                        let ss = match m.scale {
                            1 => 0u8,
                            2 => 1,
                            4 => 2,
                            8 => 3,
                            _ => return Err(EncodeError::BadOperands("scale")),
                        };
                        match base {
                            None => {
                                let disp: i32 = m
                                    .disp
                                    .try_into()
                                    .map_err(|_| EncodeError::OutOfRange("disp32"))?;
                                self.byte(reg3 | 0b100);
                                self.byte((ss << 6) | (idx.low3() << 3) | 0b101);
                                self.imm32(disp);
                                Ok(None)
                            }
                            Some(b) => {
                                let (md, d8) = Self::disp_mode(m.disp, b)?;
                                self.byte((md << 6) | reg3 | 0b100);
                                self.byte((ss << 6) | (idx.low3() << 3) | b.low3());
                                match md {
                                    0 => {}
                                    1 => self.byte(d8 as u8),
                                    _ => self.imm32(m.disp as i32),
                                }
                                Ok(None)
                            }
                        }
                    }
                    (Some(b), None) => {
                        let (md, d8) = Self::disp_mode(m.disp, b)?;
                        if b.low3() == 0b100 {
                            // rsp/r12 base requires SIB with index=none.
                            self.byte((md << 6) | reg3 | 0b100);
                            self.byte(0x20 | b.low3());
                        } else {
                            self.byte((md << 6) | reg3 | b.low3());
                        }
                        match md {
                            0 => {}
                            1 => self.byte(d8 as u8),
                            _ => self.imm32(m.disp as i32),
                        }
                        Ok(None)
                    }
                }
            }
        }
    }

    /// Chooses mod (00/01/10) and disp8 for a based memory operand.
    fn disp_mode(disp: i64, base: Reg) -> Result<(u8, i8), EncodeError> {
        let disp32: i32 = disp
            .try_into()
            .map_err(|_| EncodeError::OutOfRange("disp32"))?;
        // rbp/r13 as base cannot use mod=00 (that slot means disp32/RIP).
        let needs_disp = base.low3() == 0b101;
        if disp32 == 0 && !needs_disp {
            Ok((0, 0))
        } else if let Ok(d8) = i8::try_from(disp32) {
            Ok((1, d8))
        } else {
            Ok((2, 0))
        }
    }
}

fn mem_of(rm: &Rm) -> Option<Mem> {
    match rm {
        Rm::Mem(m) => Some(*m),
        Rm::Reg(_) => None,
    }
}

/// Emits the standard `[seg] [REX] opcode ModRM [SIB] [disp] [imm]` shape
/// and fixes up any RIP-relative displacement against the final length.
#[allow(clippy::too_many_arguments)]
fn emit_modrm(
    e: &mut Enc,
    addr: u64,
    w64: bool,
    opcode: &[u8],
    reg_field: u8,
    reg_for_rex: Option<Reg>,
    rm: Rm,
    imm: &[u8],
    bare: bool,
) -> Result<(), EncodeError> {
    if let Some(m) = mem_of(&rm) {
        e.seg_prefix(m.seg);
    }
    e.rex(w64, reg_for_rex, &rm, bare);
    e.bytes(opcode);
    let rip_pos = e.modrm(reg_field, &rm)?;
    e.bytes(imm);
    if let Some(pos) = rip_pos {
        e.field = Some(pos - e.start);
        let m = mem_of(&rm).expect("rip operand is memory");
        let rel32 = rip_rel32(m.disp as u64, addr + e.len())?;
        e.buf[pos..pos + 4].copy_from_slice(&rel32.to_le_bytes());
    }
    Ok(())
}

/// The rel32 of a rip-relative operand that addresses `target` from an
/// instruction ending at `end`, or an error when `target` is out of its
/// reach.
pub fn rip_rel32(target: u64, end: u64) -> Result<i32, EncodeError> {
    (target.wrapping_sub(end) as i64)
        .try_into()
        .map_err(|_| EncodeError::OutOfRange("rip rel32"))
}

/// Encodes `inst` as it would appear at absolute address `addr`.
///
/// The address is needed for RIP-relative operands and branch targets
/// (stored in the model as absolute addresses).
pub fn encode(inst: &Inst, addr: u64) -> Result<Vec<u8>, EncodeError> {
    let mut buf = Vec::with_capacity(16);
    encode_append(inst, addr, &mut buf)?;
    Ok(buf)
}

/// [`encode`] appending straight onto `buf` (the assembler's code
/// buffer), with no per-instruction allocation. On error `buf` is left
/// as it was.
pub(crate) fn encode_append(inst: &Inst, addr: u64, buf: &mut Vec<u8>) -> Result<(), EncodeError> {
    let start = buf.len();
    let mut e = Enc {
        buf,
        start,
        wide: false,
        field: None,
    };
    let res = encode_into(inst, addr, &mut e);
    if res.is_err() {
        buf.truncate(start);
    }
    res
}

/// The rel32 field of an instruction encoded by [`encode_relocatable`]:
/// a rip-relative disp32 or a direct branch's rel32. Either counts from
/// the end of the instruction, which an immediate may separate from the
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reloc {
    /// Offset of the field from the instruction's start.
    pub at: usize,
    /// The absolute address the field reaches.
    pub target: u64,
}

/// Appends `inst` to `buf` for an address not yet known: a direct branch
/// takes its rel32 form even when a rel8 would reach, so the length does
/// not depend on the address, and the one field that does is left zero
/// and returned, for the caller to write where the instruction lands
/// ([`rip_rel32`]). The other bytes equal [`encode`]'s at any address
/// from which no rel8 branch reaches the target. On error `buf` is left
/// as it was.
pub fn encode_relocatable(inst: &Inst, buf: &mut Vec<u8>) -> Result<Option<Reloc>, EncodeError> {
    let target = inst.branch_target().or_else(|| {
        inst.memory_operand()
            .filter(|m| m.rip)
            .map(|m| m.disp as u64)
    });
    let start = buf.len();
    let mut e = Enc {
        buf,
        start,
        wide: true,
        field: None,
    };
    // Encoded as if at its own target, from where every field reaches.
    let res = encode_into(inst, target.unwrap_or(0), &mut e);
    let field = e.field;
    if let Err(err) = res {
        buf.truncate(start);
        return Err(err);
    }
    Ok(field.zip(target).map(|(at, target)| {
        buf[start + at..start + at + 4].fill(0);
        Reloc { at, target }
    }))
}

fn encode_into(inst: &Inst, addr: u64, e: &mut Enc) -> Result<(), EncodeError> {
    use Operands as O;
    let w = inst.w;
    let w64 = w == Width::W64;
    let w8 = w == Width::W8;

    match (inst.op, &inst.operands) {
        // ---- mov ----
        (Op::Mov, O::RR { dst, src }) => {
            let opc = if w8 { [0x88] } else { [0x89] };
            let bare = w8 && (bare8(*dst) || bare8(*src));
            emit_modrm(
                e,
                addr,
                w64,
                &opc,
                src.code(),
                Some(*src),
                Rm::Reg(*dst),
                &[],
                bare,
            )
        }
        (Op::Mov, O::MR { dst, src }) => {
            let opc = if w8 { [0x88] } else { [0x89] };
            let bare = w8 && bare8(*src);
            emit_modrm(
                e,
                addr,
                w64,
                &opc,
                src.code(),
                Some(*src),
                Rm::Mem(*dst),
                &[],
                bare,
            )
        }
        (Op::Mov, O::RM { dst, src }) => {
            let opc = if w8 { [0x8A] } else { [0x8B] };
            let bare = w8 && bare8(*dst);
            emit_modrm(
                e,
                addr,
                w64,
                &opc,
                dst.code(),
                Some(*dst),
                Rm::Mem(*src),
                &[],
                bare,
            )
        }
        (Op::Mov, O::RI { dst, imm }) => {
            match w {
                Width::W8 => {
                    let v = i8::try_from(*imm).map_err(|_| EncodeError::OutOfRange("imm8"))?;
                    e.rex(false, None, &Rm::Reg(*dst), bare8(*dst));
                    e.byte(0xB0 | dst.low3());
                    e.byte(v as u8);
                }
                Width::W32 => {
                    // B8+rd imm32 zero-extends, and the decoder stores the
                    // immediate zero-extended; only the canonical
                    // [0, 2^32) form round-trips, so reject the rest.
                    if u32::try_from(*imm).is_err() {
                        return Err(EncodeError::OutOfRange("imm32"));
                    }
                    e.rex(false, None, &Rm::Reg(*dst), false);
                    e.byte(0xB8 | dst.low3());
                    e.imm32(*imm as i32);
                }
                Width::W64 => {
                    if let Ok(v) = i32::try_from(*imm) {
                        // mov r/m64, imm32 (sign-extended): C7 /0.
                        emit_modrm(
                            e,
                            addr,
                            true,
                            &[0xC7],
                            0,
                            None,
                            Rm::Reg(*dst),
                            &v.to_le_bytes(),
                            false,
                        )?;
                    } else {
                        // movabs: REX.W B8+r imm64.
                        e.rex(true, None, &Rm::Reg(*dst), false);
                        e.byte(0xB8 | dst.low3());
                        e.imm64(*imm);
                    }
                }
            }
            Ok(())
        }
        (Op::Mov, O::MI { dst, imm }) => {
            if w8 {
                let v = i8::try_from(*imm).map_err(|_| EncodeError::OutOfRange("imm8"))?;
                emit_modrm(
                    e,
                    addr,
                    false,
                    &[0xC6],
                    0,
                    None,
                    Rm::Mem(*dst),
                    &[v as u8],
                    false,
                )
            } else {
                let v = i32::try_from(*imm).map_err(|_| EncodeError::OutOfRange("imm32"))?;
                emit_modrm(
                    e,
                    addr,
                    w64,
                    &[0xC7],
                    0,
                    None,
                    Rm::Mem(*dst),
                    &v.to_le_bytes(),
                    false,
                )
            }
        }

        // ---- movzx / movsx / movsxd ----
        (Op::Movzx8, O::RR { dst, src }) => emit_modrm(
            e,
            addr,
            w64,
            &[0x0F, 0xB6],
            dst.code(),
            Some(*dst),
            Rm::Reg(*src),
            &[],
            bare8(*src),
        ),
        (Op::Movzx8, O::RM { dst, src }) => emit_modrm(
            e,
            addr,
            w64,
            &[0x0F, 0xB6],
            dst.code(),
            Some(*dst),
            Rm::Mem(*src),
            &[],
            false,
        ),
        (Op::Movsx8, O::RR { dst, src }) => emit_modrm(
            e,
            addr,
            w64,
            &[0x0F, 0xBE],
            dst.code(),
            Some(*dst),
            Rm::Reg(*src),
            &[],
            bare8(*src),
        ),
        (Op::Movsx8, O::RM { dst, src }) => emit_modrm(
            e,
            addr,
            w64,
            &[0x0F, 0xBE],
            dst.code(),
            Some(*dst),
            Rm::Mem(*src),
            &[],
            false,
        ),
        (Op::Movsxd, O::RR { dst, src }) => emit_modrm(
            e,
            addr,
            true,
            &[0x63],
            dst.code(),
            Some(*dst),
            Rm::Reg(*src),
            &[],
            false,
        ),
        (Op::Movsxd, O::RM { dst, src }) => emit_modrm(
            e,
            addr,
            true,
            &[0x63],
            dst.code(),
            Some(*dst),
            Rm::Mem(*src),
            &[],
            false,
        ),

        // ---- lea ----
        (Op::Lea, O::RM { dst, src }) => emit_modrm(
            e,
            addr,
            w64,
            &[0x8D],
            dst.code(),
            Some(*dst),
            Rm::Mem(*src),
            &[],
            false,
        ),

        // ---- ALU grid ----
        (Op::Alu(op), O::RR { dst, src }) => {
            let base = alu_base(op);
            let opc = if w8 { [base] } else { [base + 1] };
            let bare = w8 && (bare8(*dst) || bare8(*src));
            emit_modrm(
                e,
                addr,
                w64,
                &opc,
                src.code(),
                Some(*src),
                Rm::Reg(*dst),
                &[],
                bare,
            )
        }
        (Op::Alu(op), O::MR { dst, src }) => {
            let base = alu_base(op);
            let opc = if w8 { [base] } else { [base + 1] };
            emit_modrm(
                e,
                addr,
                w64,
                &opc,
                src.code(),
                Some(*src),
                Rm::Mem(*dst),
                &[],
                w8 && bare8(*src),
            )
        }
        (Op::Alu(op), O::RM { dst, src }) => {
            let base = alu_base(op) + 2;
            let opc = if w8 { [base] } else { [base + 1] };
            emit_modrm(
                e,
                addr,
                w64,
                &opc,
                dst.code(),
                Some(*dst),
                Rm::Mem(*src),
                &[],
                w8 && bare8(*dst),
            )
        }
        (Op::Alu(op), O::RI { dst, imm }) => encode_alu_imm(e, addr, op, w, Rm::Reg(*dst), *imm),
        (Op::Alu(op), O::MI { dst, imm }) => encode_alu_imm(e, addr, op, w, Rm::Mem(*dst), *imm),

        // ---- test ----
        (Op::Test, O::RR { dst, src }) => {
            let opc = if w8 { [0x84] } else { [0x85] };
            let bare = w8 && (bare8(*dst) || bare8(*src));
            emit_modrm(
                e,
                addr,
                w64,
                &opc,
                src.code(),
                Some(*src),
                Rm::Reg(*dst),
                &[],
                bare,
            )
        }
        (Op::Test, O::RI { dst, imm }) => {
            if w8 {
                let v = i8::try_from(*imm).map_err(|_| EncodeError::OutOfRange("imm8"))?;
                emit_modrm(
                    e,
                    addr,
                    false,
                    &[0xF6],
                    0,
                    None,
                    Rm::Reg(*dst),
                    &[v as u8],
                    bare8(*dst),
                )
            } else {
                let v = i32::try_from(*imm).map_err(|_| EncodeError::OutOfRange("imm32"))?;
                emit_modrm(
                    e,
                    addr,
                    w64,
                    &[0xF7],
                    0,
                    None,
                    Rm::Reg(*dst),
                    &v.to_le_bytes(),
                    false,
                )
            }
        }

        // ---- shifts ----
        //
        // Only the C1/D3 (32/64-bit) opcode groups are modeled; an 8-bit
        // shift would need C0/D2, so W8 is rejected rather than silently
        // encoded at the wrong width.
        (Op::Shift(op), O::RI { dst, imm }) => {
            if w8 {
                return Err(EncodeError::BadOperands("8-bit shift"));
            }
            let count = u8::try_from(*imm).map_err(|_| EncodeError::OutOfRange("shift count"))?;
            emit_modrm(
                e,
                addr,
                w64,
                &[0xC1],
                op.digit(),
                None,
                Rm::Reg(*dst),
                &[count],
                false,
            )
        }
        (Op::Shift(op), O::MI { dst, imm }) => {
            if w8 {
                return Err(EncodeError::BadOperands("8-bit shift"));
            }
            let count = u8::try_from(*imm).map_err(|_| EncodeError::OutOfRange("shift count"))?;
            emit_modrm(
                e,
                addr,
                w64,
                &[0xC1],
                op.digit(),
                None,
                Rm::Mem(*dst),
                &[count],
                false,
            )
        }
        (Op::ShiftCl(op), O::R(r)) => {
            if w8 {
                return Err(EncodeError::BadOperands("8-bit shift"));
            }
            emit_modrm(
                e,
                addr,
                w64,
                &[0xD3],
                op.digit(),
                None,
                Rm::Reg(*r),
                &[],
                false,
            )
        }
        (Op::ShiftCl(op), O::M(m)) => {
            if w8 {
                return Err(EncodeError::BadOperands("8-bit shift"));
            }
            emit_modrm(
                e,
                addr,
                w64,
                &[0xD3],
                op.digit(),
                None,
                Rm::Mem(*m),
                &[],
                false,
            )
        }

        // ---- multiply / divide ----
        (Op::Imul2, O::RR { dst, src }) => emit_modrm(
            e,
            addr,
            w64,
            &[0x0F, 0xAF],
            dst.code(),
            Some(*dst),
            Rm::Reg(*src),
            &[],
            false,
        ),
        (Op::Imul2, O::RM { dst, src }) => emit_modrm(
            e,
            addr,
            w64,
            &[0x0F, 0xAF],
            dst.code(),
            Some(*dst),
            Rm::Mem(*src),
            &[],
            false,
        ),
        (Op::Imul3, O::RRI { dst, src, imm }) => {
            if let Ok(v) = i8::try_from(*imm) {
                emit_modrm(
                    e,
                    addr,
                    w64,
                    &[0x6B],
                    dst.code(),
                    Some(*dst),
                    Rm::Reg(*src),
                    &[v as u8],
                    false,
                )
            } else {
                let v = i32::try_from(*imm).map_err(|_| EncodeError::OutOfRange("imm32"))?;
                emit_modrm(
                    e,
                    addr,
                    w64,
                    &[0x69],
                    dst.code(),
                    Some(*dst),
                    Rm::Reg(*src),
                    &v.to_le_bytes(),
                    false,
                )
            }
        }
        (Op::Imul3, O::RMI { dst, src, imm }) => {
            if let Ok(v) = i8::try_from(*imm) {
                emit_modrm(
                    e,
                    addr,
                    w64,
                    &[0x6B],
                    dst.code(),
                    Some(*dst),
                    Rm::Mem(*src),
                    &[v as u8],
                    false,
                )
            } else {
                let v = i32::try_from(*imm).map_err(|_| EncodeError::OutOfRange("imm32"))?;
                emit_modrm(
                    e,
                    addr,
                    w64,
                    &[0x69],
                    dst.code(),
                    Some(*dst),
                    Rm::Mem(*src),
                    &v.to_le_bytes(),
                    false,
                )
            }
        }
        (Op::MulDiv(op), O::R(r)) => {
            let opc = if w8 { [0xF6] } else { [0xF7] };
            emit_modrm(
                e,
                addr,
                w64,
                &opc,
                op.digit(),
                None,
                Rm::Reg(*r),
                &[],
                w8 && bare8(*r),
            )
        }
        (Op::MulDiv(op), O::M(m)) => {
            let opc = if w8 { [0xF6] } else { [0xF7] };
            emit_modrm(
                e,
                addr,
                w64,
                &opc,
                op.digit(),
                None,
                Rm::Mem(*m),
                &[],
                false,
            )
        }
        (Op::Neg, O::R(r)) => {
            let opc = if w8 { [0xF6] } else { [0xF7] };
            emit_modrm(
                e,
                addr,
                w64,
                &opc,
                3,
                None,
                Rm::Reg(*r),
                &[],
                w8 && bare8(*r),
            )
        }
        (Op::Neg, O::M(m)) => {
            let opc = if w8 { [0xF6] } else { [0xF7] };
            emit_modrm(e, addr, w64, &opc, 3, None, Rm::Mem(*m), &[], false)
        }
        (Op::Not, O::R(r)) => {
            let opc = if w8 { [0xF6] } else { [0xF7] };
            emit_modrm(
                e,
                addr,
                w64,
                &opc,
                2,
                None,
                Rm::Reg(*r),
                &[],
                w8 && bare8(*r),
            )
        }
        (Op::Not, O::M(m)) => {
            let opc = if w8 { [0xF6] } else { [0xF7] };
            emit_modrm(e, addr, w64, &opc, 2, None, Rm::Mem(*m), &[], false)
        }

        // ---- stack ----
        (Op::Push, O::R(r)) => {
            e.rex(false, None, &Rm::Reg(*r), false);
            e.byte(0x50 | r.low3());
            Ok(())
        }
        (Op::Push, O::M(m)) => {
            emit_modrm(e, addr, false, &[0xFF], 6, None, Rm::Mem(*m), &[], false)
        }
        (Op::Pop, O::R(r)) => {
            e.rex(false, None, &Rm::Reg(*r), false);
            e.byte(0x58 | r.low3());
            Ok(())
        }
        (Op::Pop, O::M(m)) => emit_modrm(e, addr, false, &[0x8F], 0, None, Rm::Mem(*m), &[], false),
        (Op::Pushfq, O::None) => {
            e.byte(0x9C);
            Ok(())
        }
        (Op::Popfq, O::None) => {
            e.byte(0x9D);
            Ok(())
        }

        // ---- wide ops ----
        (Op::Cqo, O::None) => {
            if w64 {
                e.byte(0x48);
            }
            e.byte(0x99);
            Ok(())
        }

        // ---- control flow ----
        (Op::Call, O::Rel(target)) => {
            e.byte(0xE8);
            emit_rel32(e, addr, *target)
        }
        (Op::CallInd, O::R(r)) => {
            emit_modrm(e, addr, false, &[0xFF], 2, None, Rm::Reg(*r), &[], false)
        }
        (Op::CallInd, O::M(m)) => {
            emit_modrm(e, addr, false, &[0xFF], 2, None, Rm::Mem(*m), &[], false)
        }
        (Op::Ret, O::None) => {
            e.byte(0xC3);
            Ok(())
        }
        (Op::Jmp, O::Rel(target)) => {
            let rel8 = (*target as i64) - (addr as i64 + 2);
            if let (Ok(d8), false) = (i8::try_from(rel8), e.wide) {
                e.byte(0xEB);
                e.byte(d8 as u8);
                Ok(())
            } else {
                e.byte(0xE9);
                emit_rel32(e, addr, *target)
            }
        }
        (Op::JmpInd, O::R(r)) => {
            emit_modrm(e, addr, false, &[0xFF], 4, None, Rm::Reg(*r), &[], false)
        }
        (Op::JmpInd, O::M(m)) => {
            emit_modrm(e, addr, false, &[0xFF], 4, None, Rm::Mem(*m), &[], false)
        }
        (Op::Jcc(c), O::Rel(target)) => {
            let rel8 = (*target as i64) - (addr as i64 + 2);
            if let (Ok(d8), false) = (i8::try_from(rel8), e.wide) {
                e.byte(0x70 | c.code());
                e.byte(d8 as u8);
                Ok(())
            } else {
                e.byte(0x0F);
                e.byte(0x80 | c.code());
                emit_rel32(e, addr, *target)
            }
        }

        // ---- conditional data ----
        (Op::Setcc(c), O::R(r)) => emit_modrm(
            e,
            addr,
            false,
            &[0x0F, 0x90 | c.code()],
            0,
            None,
            Rm::Reg(*r),
            &[],
            bare8(*r),
        ),
        (Op::Setcc(c), O::M(m)) => emit_modrm(
            e,
            addr,
            false,
            &[0x0F, 0x90 | c.code()],
            0,
            None,
            Rm::Mem(*m),
            &[],
            false,
        ),
        (Op::Cmovcc(c), O::RR { dst, src }) => emit_modrm(
            e,
            addr,
            w64,
            &[0x0F, 0x40 | c.code()],
            dst.code(),
            Some(*dst),
            Rm::Reg(*src),
            &[],
            false,
        ),
        (Op::Cmovcc(c), O::RM { dst, src }) => emit_modrm(
            e,
            addr,
            w64,
            &[0x0F, 0x40 | c.code()],
            dst.code(),
            Some(*dst),
            Rm::Mem(*src),
            &[],
            false,
        ),

        // ---- system ----
        (Op::Syscall, O::None) => {
            e.bytes(&[0x0F, 0x05]);
            Ok(())
        }
        (Op::Ud2, O::None) => {
            e.bytes(&[0x0F, 0x0B]);
            Ok(())
        }
        (Op::Int3, O::None) => {
            e.byte(0xCC);
            Ok(())
        }
        (Op::Nop, O::None) => {
            e.byte(0x90);
            Ok(())
        }

        _ => Err(EncodeError::BadOperands("operation/operand mismatch")),
    }
}

/// Emits a rel32 whose origin is `addr` and whose end is four bytes past
/// the current buffer position.
fn emit_rel32(e: &mut Enc, addr: u64, target: u64) -> Result<(), EncodeError> {
    e.field = Some(e.len() as usize);
    let end = addr + e.len() + 4;
    let rel = (target as i64) - (end as i64);
    let rel32: i32 = rel
        .try_into()
        .map_err(|_| EncodeError::OutOfRange("branch rel32"))?;
    e.imm32(rel32);
    Ok(())
}

fn alu_base(op: AluOp) -> u8 {
    // Classic grid: add=00, or=08, and=20, sub=28, xor=30, cmp=38.
    op.digit() * 8
}

/// Shared encoder for the `0x80`/`0x81`/`0x83` immediate ALU forms.
fn encode_alu_imm(
    e: &mut Enc,
    addr: u64,
    op: AluOp,
    w: Width,
    rm: Rm,
    imm: i64,
) -> Result<(), EncodeError> {
    let w64 = w == Width::W64;
    match w {
        Width::W8 => {
            let v = i8::try_from(imm).map_err(|_| EncodeError::OutOfRange("imm8"))?;
            let bare = matches!(rm, Rm::Reg(r) if bare8(r));
            emit_modrm(
                e,
                addr,
                false,
                &[0x80],
                op.digit(),
                None,
                rm,
                &[v as u8],
                bare,
            )
        }
        _ => {
            if let Ok(v) = i8::try_from(imm) {
                emit_modrm(
                    e,
                    addr,
                    w64,
                    &[0x83],
                    op.digit(),
                    None,
                    rm,
                    &[v as u8],
                    false,
                )
            } else {
                let v = i32::try_from(imm).map_err(|_| EncodeError::OutOfRange("imm32"))?;
                emit_modrm(
                    e,
                    addr,
                    w64,
                    &[0x81],
                    op.digit(),
                    None,
                    rm,
                    &v.to_le_bytes(),
                    false,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Cond, MulDivOp, ShiftOp};

    fn enc(i: Inst) -> Vec<u8> {
        encode(&i, 0x40_0000).expect("encodes")
    }

    #[test]
    fn mov_rr_64() {
        // mov %rax, %rbx (store into rbx): 48 89 C3.
        let i = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::RR {
                dst: Reg::Rbx,
                src: Reg::Rax,
            },
        );
        assert_eq!(enc(i), vec![0x48, 0x89, 0xC3]);
    }

    #[test]
    fn mov_load_simple() {
        // mov (%rax), %rcx: 48 8B 08.
        let i = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::RM {
                dst: Reg::Rcx,
                src: Mem::base(Reg::Rax),
            },
        );
        assert_eq!(enc(i), vec![0x48, 0x8B, 0x08]);
    }

    #[test]
    fn mov_store_sib_scaled() {
        // mov %rcx, (%rax,%rbx,4): 48 89 0C 98.
        let i = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::MR {
                dst: Mem::bis(Reg::Rax, Reg::Rbx, 4, 0),
                src: Reg::Rcx,
            },
        );
        assert_eq!(enc(i), vec![0x48, 0x89, 0x0C, 0x98]);
    }

    #[test]
    fn rbp_base_needs_disp8() {
        // mov (%rbp), %rax must encode as disp8=0: 48 8B 45 00.
        let i = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::RM {
                dst: Reg::Rax,
                src: Mem::base(Reg::Rbp),
            },
        );
        assert_eq!(enc(i), vec![0x48, 0x8B, 0x45, 0x00]);
    }

    #[test]
    fn r13_base_needs_disp8() {
        let i = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::RM {
                dst: Reg::Rax,
                src: Mem::base(Reg::R13),
            },
        );
        assert_eq!(enc(i), vec![0x49, 0x8B, 0x45, 0x00]);
    }

    #[test]
    fn rsp_base_needs_sib() {
        // mov 8(%rsp), %rax: 48 8B 44 24 08.
        let i = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::RM {
                dst: Reg::Rax,
                src: Mem::base_disp(Reg::Rsp, 8),
            },
        );
        assert_eq!(enc(i), vec![0x48, 0x8B, 0x44, 0x24, 0x08]);
    }

    #[test]
    fn add_imm8_uses_83() {
        // add $8, %rax: 48 83 C0 08.
        let i = Inst::new(
            Op::Alu(AluOp::Add),
            Width::W64,
            Operands::RI {
                dst: Reg::Rax,
                imm: 8,
            },
        );
        assert_eq!(enc(i), vec![0x48, 0x83, 0xC0, 0x08]);
    }

    #[test]
    fn cmp_imm32() {
        // cmp $0x1000, %rdi: 48 81 FF 00 10 00 00.
        let i = Inst::new(
            Op::Alu(AluOp::Cmp),
            Width::W64,
            Operands::RI {
                dst: Reg::Rdi,
                imm: 0x1000,
            },
        );
        assert_eq!(enc(i), vec![0x48, 0x81, 0xFF, 0x00, 0x10, 0x00, 0x00]);
    }

    #[test]
    fn movabs_for_large_imm() {
        let i = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::RI {
                dst: Reg::Rax,
                imm: 0x1122_3344_5566_7788,
            },
        );
        assert_eq!(
            enc(i),
            vec![0x48, 0xB8, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
        );
    }

    #[test]
    fn jmp_rel8_and_rel32() {
        let near = Inst::new(Op::Jmp, Width::W64, Operands::Rel(0x40_0002 + 0x10));
        assert_eq!(enc(near), vec![0xEB, 0x10]);
        let far = Inst::new(Op::Jmp, Width::W64, Operands::Rel(0x50_0000));
        let b = enc(far);
        assert_eq!(b[0], 0xE9);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn jcc_rel32_form() {
        let i = Inst::new(Op::Jcc(Cond::Ne), Width::W64, Operands::Rel(0x41_0000));
        let b = enc(i);
        assert_eq!(&b[..2], &[0x0F, 0x85]);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn call_rel32() {
        // call to next instruction: E8 00 00 00 00.
        let i = Inst::new(Op::Call, Width::W64, Operands::Rel(0x40_0005));
        assert_eq!(enc(i), vec![0xE8, 0, 0, 0, 0]);
    }

    #[test]
    fn relocatable_encodings_equal_encoding_in_place() {
        // A near jmp (rel8 in place), a jcc, a call, a rip-relative load
        // and a rip-relative store whose immediate follows the field.
        let target = 0x40_0010;
        let insts = [
            Inst::new(Op::Jmp, Width::W64, Operands::Rel(target)),
            Inst::new(Op::Jcc(Cond::Ne), Width::W64, Operands::Rel(target)),
            Inst::new(Op::Call, Width::W64, Operands::Rel(target)),
            Inst::new(
                Op::Mov,
                Width::W64,
                Operands::RM {
                    dst: Reg::Rcx,
                    src: Mem::rip(target),
                },
            ),
            Inst::new(
                Op::Mov,
                Width::W32,
                Operands::MI {
                    dst: Mem::rip(target),
                    imm: 7,
                },
            ),
        ];
        let fields = [(1, 5), (2, 6), (1, 5), (3, 7), (2, 10)];
        for (inst, (at, len)) in insts.into_iter().zip(fields) {
            let mut buf = vec![0xAA];
            let reloc = encode_relocatable(&inst, &mut buf).unwrap();
            assert_eq!(reloc, Some(Reloc { at, target }), "{inst}");
            assert_eq!(buf.len(), 1 + len, "{inst}");
            assert_eq!(&buf[1 + at..1 + at + 4], &[0; 4], "{inst}");
            // Written where it lands, far from the target, the field
            // gives encode's bytes there.
            let addr = 0x7000_0000u64;
            let rel32 = rip_rel32(target, addr + len as u64).unwrap();
            buf[1 + at..1 + at + 4].copy_from_slice(&rel32.to_le_bytes());
            assert_eq!(buf[1..], encode(&inst, addr).unwrap(), "{inst}");
        }
        let plain = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::RR {
                dst: Reg::Rax,
                src: Reg::Rbx,
            },
        );
        let mut buf = Vec::new();
        assert_eq!(encode_relocatable(&plain, &mut buf), Ok(None));
        assert_eq!(buf, encode(&plain, 0).unwrap());
    }

    #[test]
    fn shr_imm() {
        // shr $35, %rcx: 48 C1 E9 23.
        let i = Inst::new(
            Op::Shift(ShiftOp::Shr),
            Width::W64,
            Operands::RI {
                dst: Reg::Rcx,
                imm: 35,
            },
        );
        assert_eq!(enc(i), vec![0x48, 0xC1, 0xE9, 0x23]);
    }

    #[test]
    fn mul_with_memory_and_index_table() {
        // mul 0x50000000(,%rcx,8): 48 F7 24 CD 00 00 00 50.
        let i = Inst::new(
            Op::MulDiv(MulDivOp::Mul),
            Width::W64,
            Operands::M(Mem::index_scale(Reg::Rcx, 8, 0x5000_0000)),
        );
        assert_eq!(enc(i), vec![0x48, 0xF7, 0x24, 0xCD, 0x00, 0x00, 0x00, 0x50]);
    }

    #[test]
    fn push_pop_extended() {
        let p = Inst::new(Op::Push, Width::W64, Operands::R(Reg::R12));
        assert_eq!(enc(p), vec![0x41, 0x54]);
        let q = Inst::new(Op::Pop, Width::W64, Operands::R(Reg::Rbx));
        assert_eq!(enc(q), vec![0x5B]);
    }

    #[test]
    fn byte_reg_sil_needs_bare_rex() {
        // mov %sil, (%rax): 40 88 30.
        let i = Inst::new(
            Op::Mov,
            Width::W8,
            Operands::MR {
                dst: Mem::base(Reg::Rax),
                src: Reg::Rsi,
            },
        );
        assert_eq!(enc(i), vec![0x40, 0x88, 0x30]);
    }

    #[test]
    fn rip_relative_round_numbers() {
        // lea 0x100(%rip), %rax at 0x400000; instruction is 7 bytes, so
        // target = 0x400007 + 0x100.
        let i = Inst::new(
            Op::Lea,
            Width::W64,
            Operands::RM {
                dst: Reg::Rax,
                src: Mem::rip(0x40_0107),
            },
        );
        assert_eq!(enc(i), vec![0x48, 0x8D, 0x05, 0x00, 0x01, 0x00, 0x00]);
    }

    #[test]
    fn absolute_disp32() {
        // mov %rax, 0x50000000: 48 89 04 25 00 00 00 50.
        let i = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::MR {
                dst: Mem::abs(0x5000_0000),
                src: Reg::Rax,
            },
        );
        assert_eq!(enc(i), vec![0x48, 0x89, 0x04, 0x25, 0x00, 0x00, 0x00, 0x50]);
    }

    #[test]
    fn syscall_ud2_int3() {
        assert_eq!(
            enc(Inst::new(Op::Syscall, Width::W64, Operands::None)),
            vec![0x0F, 0x05]
        );
        assert_eq!(
            enc(Inst::new(Op::Ud2, Width::W64, Operands::None)),
            vec![0x0F, 0x0B]
        );
        assert_eq!(
            enc(Inst::new(Op::Int3, Width::W64, Operands::None)),
            vec![0xCC]
        );
    }

    #[test]
    fn mov_w32_has_no_rex_w() {
        // mov %eax, %ebx: 89 C3.
        let i = Inst::new(
            Op::Mov,
            Width::W32,
            Operands::RR {
                dst: Reg::Rbx,
                src: Reg::Rax,
            },
        );
        assert_eq!(enc(i), vec![0x89, 0xC3]);
    }

    #[test]
    fn mov_w32_imm_requires_canonical_zero_extended_form() {
        // mov $-1, %eax is written 0xFFFFFFFF in the model (the decoder
        // zero-extends B8+rd imm32); the sign-extended spelling must be
        // rejected instead of silently re-decoding as a different value.
        let neg = Inst::new(
            Op::Mov,
            Width::W32,
            Operands::RI {
                dst: Reg::Rax,
                imm: -1,
            },
        );
        assert_eq!(
            encode(&neg, 0x40_0000),
            Err(EncodeError::OutOfRange("imm32"))
        );
        let max = Inst::new(
            Op::Mov,
            Width::W32,
            Operands::RI {
                dst: Reg::Rax,
                imm: 0xFFFF_FFFF,
            },
        );
        assert_eq!(enc(max), vec![0xB8, 0xFF, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn w8_shift_is_rejected_not_miswidthed() {
        // C1/D3 are the 32/64-bit groups; encoding a W8 shift through them
        // would silently change the operation width.
        let ri = Inst::new(
            Op::Shift(ShiftOp::Shl),
            Width::W8,
            Operands::RI {
                dst: Reg::Rax,
                imm: 1,
            },
        );
        assert_eq!(
            encode(&ri, 0x40_0000),
            Err(EncodeError::BadOperands("8-bit shift"))
        );
        let cl = Inst::new(Op::ShiftCl(ShiftOp::Shr), Width::W8, Operands::R(Reg::Rbx));
        assert_eq!(
            encode(&cl, 0x40_0000),
            Err(EncodeError::BadOperands("8-bit shift"))
        );
    }

    #[test]
    fn r12_base_needs_sib() {
        // mov (%r12), %rax: 49 8B 04 24.
        let i = Inst::new(
            Op::Mov,
            Width::W64,
            Operands::RM {
                dst: Reg::Rax,
                src: Mem::base(Reg::R12),
            },
        );
        assert_eq!(enc(i), vec![0x49, 0x8B, 0x04, 0x24]);
    }
}
