//! A label-aware assembler over the instruction encoder.
//!
//! [`Asm`] accumulates machine code at a fixed base address, supporting
//! forward label references for branches. A label branch's form is
//! decided when it is emitted and never revisited, so instruction lengths
//! are fixed at emission and binding order cannot change them (the
//! classic fixed-point problem of span-dependent instructions is
//! deliberately avoided: there is no relaxation pass). [`Asm::jcc_label`]
//! and [`Asm::jmp_label`] always emit `rel32`; [`Asm::jcc_label_short`]
//! and [`Asm::jmp_label_short`] emit `rel8` when the label is already
//! bound and in reach, and `rel32` otherwise, so only backward branches
//! ever shrink.

use crate::encode::{encode_append, encode_relocatable, EncodeError, Reloc};
use crate::insn::{AluOp, Cond, Inst, Mem, MulDivOp, Op, Operands, ShiftOp, Width};
use crate::reg::Reg;
use std::collections::BTreeMap;

/// An opaque assembler label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// An assembler failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// An instruction failed to encode.
    Encode(EncodeError),
    /// `finish` was called while a label was still unbound.
    UnboundLabel(Label),
    /// A label was bound twice.
    Rebound(Label),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::Encode(e) => write!(f, "encode error: {e}"),
            AsmError::UnboundLabel(l) => write!(f, "unbound label {l:?}"),
            AsmError::Rebound(l) => write!(f, "label bound twice {l:?}"),
        }
    }
}

impl std::error::Error for AsmError {}

impl From<EncodeError> for AsmError {
    fn from(e: EncodeError) -> AsmError {
        AsmError::Encode(e)
    }
}

/// Finished machine code at a base address.
#[derive(Debug, Clone)]
pub struct Program {
    /// Base address of the first byte.
    pub base: u64,
    /// The machine code.
    pub bytes: Vec<u8>,
}

impl Program {
    /// Address one past the final byte.
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }
}

enum FixKind {
    /// A rel32 at `pos` whose origin is `pos + 4`.
    Rel32,
}

struct Fixup {
    pos: usize,
    label: Label,
    kind: FixKind,
}

/// The assembler.
pub struct Asm {
    base: u64,
    bytes: Vec<u8>,
    labels: Vec<Option<u64>>,
    fixups: Vec<Fixup>,
    /// Ordered, so identical runs leave identically shaped heaps.
    named: BTreeMap<String, Label>,
}

impl Asm {
    /// Creates an assembler whose first emitted byte lives at `base`.
    pub fn new(base: u64) -> Asm {
        Asm {
            base,
            bytes: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            named: BTreeMap::new(),
        }
    }

    /// The address of the next byte to be emitted.
    pub fn here(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    /// The current length of the emitted code in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Creates a fresh unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Returns the label registered under `name`, creating it on first use.
    ///
    /// Handy for codegen that refers to functions by name before they are
    /// emitted.
    pub fn named_label(&mut self, name: &str) -> Label {
        if let Some(&l) = self.named.get(name) {
            return l;
        }
        let l = self.label();
        self.named.insert(name.to_owned(), l);
        l
    }

    /// Binds `label` to the current position.
    ///
    /// Returns an error if the label was already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), AsmError> {
        let here = self.here();
        let slot = &mut self.labels[label.0];
        if slot.is_some() {
            return Err(AsmError::Rebound(label));
        }
        *slot = Some(here);
        Ok(())
    }

    /// Returns the bound address of `label`, if bound.
    pub fn label_addr(&self, label: Label) -> Option<u64> {
        self.labels[label.0]
    }

    /// Emits a full instruction through the encoder.
    pub fn emit(&mut self, inst: Inst) -> Result<(), AsmError> {
        let addr = self.here();
        encode_append(&inst, addr, &mut self.bytes)?;
        Ok(())
    }

    /// Emits `inst` for an address not yet known, its address-dependent
    /// rel32 left zero ([`encode_relocatable`]), and returns that field.
    pub fn emit_relocatable(&mut self, inst: Inst) -> Result<Option<Reloc>, AsmError> {
        Ok(encode_relocatable(&inst, &mut self.bytes)?)
    }

    /// Emits raw bytes verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    // ---- data moves ----

    /// `mov %src, %dst`.
    pub fn mov_rr(&mut self, w: Width, dst: Reg, src: Reg) {
        self.emit(Inst::new(Op::Mov, w, Operands::RR { dst, src }))
            .expect("mov_rr");
    }

    /// `mov $imm, %dst`.
    pub fn mov_ri(&mut self, w: Width, dst: Reg, imm: i64) {
        self.emit(Inst::new(Op::Mov, w, Operands::RI { dst, imm }))
            .expect("mov_ri");
    }

    /// `mov mem, %dst` (load).
    pub fn mov_rm(&mut self, w: Width, dst: Reg, src: Mem) {
        self.emit(Inst::new(Op::Mov, w, Operands::RM { dst, src }))
            .expect("mov_rm");
    }

    /// `mov %src, mem` (store).
    pub fn mov_mr(&mut self, w: Width, dst: Mem, src: Reg) {
        self.emit(Inst::new(Op::Mov, w, Operands::MR { dst, src }))
            .expect("mov_mr");
    }

    /// `mov $imm, mem`.
    pub fn mov_mi(&mut self, w: Width, dst: Mem, imm: i64) {
        self.emit(Inst::new(Op::Mov, w, Operands::MI { dst, imm }))
            .expect("mov_mi");
    }

    /// `movzbq mem, %dst`.
    pub fn movzx8_rm(&mut self, dst: Reg, src: Mem) {
        self.emit(Inst::new(Op::Movzx8, Width::W64, Operands::RM { dst, src }))
            .expect("movzx8_rm");
    }

    /// `movsbq mem, %dst`.
    pub fn movsx8_rm(&mut self, dst: Reg, src: Mem) {
        self.emit(Inst::new(Op::Movsx8, Width::W64, Operands::RM { dst, src }))
            .expect("movsx8_rm");
    }

    /// `lea mem, %dst`.
    pub fn lea(&mut self, dst: Reg, mem: Mem) {
        self.emit(Inst::new(
            Op::Lea,
            Width::W64,
            Operands::RM { dst, src: mem },
        ))
        .expect("lea");
    }

    // ---- ALU ----

    /// `op %src, %dst`.
    pub fn alu_rr(&mut self, op: AluOp, w: Width, dst: Reg, src: Reg) {
        self.emit(Inst::new(Op::Alu(op), w, Operands::RR { dst, src }))
            .expect("alu_rr");
    }

    /// `op $imm, %dst`.
    pub fn alu_ri(&mut self, op: AluOp, w: Width, dst: Reg, imm: i64) {
        self.emit(Inst::new(Op::Alu(op), w, Operands::RI { dst, imm }))
            .expect("alu_ri");
    }

    /// `op mem, %dst`.
    pub fn alu_rm(&mut self, op: AluOp, w: Width, dst: Reg, src: Mem) {
        self.emit(Inst::new(Op::Alu(op), w, Operands::RM { dst, src }))
            .expect("alu_rm");
    }

    /// `op %src, mem`.
    pub fn alu_mr(&mut self, op: AluOp, w: Width, dst: Mem, src: Reg) {
        self.emit(Inst::new(Op::Alu(op), w, Operands::MR { dst, src }))
            .expect("alu_mr");
    }

    /// `test %src, %dst`.
    pub fn test_rr(&mut self, w: Width, dst: Reg, src: Reg) {
        self.emit(Inst::new(Op::Test, w, Operands::RR { dst, src }))
            .expect("test_rr");
    }

    /// `shl/shr/sar $count, %dst`.
    pub fn shift_ri(&mut self, op: ShiftOp, w: Width, dst: Reg, count: u8) {
        self.emit(Inst::new(
            Op::Shift(op),
            w,
            Operands::RI {
                dst,
                imm: count as i64,
            },
        ))
        .expect("shift_ri");
    }

    /// `shl/shr/sar %cl, %dst`.
    pub fn shift_cl(&mut self, op: ShiftOp, w: Width, dst: Reg) {
        self.emit(Inst::new(Op::ShiftCl(op), w, Operands::R(dst)))
            .expect("shift_cl");
    }

    /// `imul %src, %dst`.
    pub fn imul_rr(&mut self, w: Width, dst: Reg, src: Reg) {
        self.emit(Inst::new(Op::Imul2, w, Operands::RR { dst, src }))
            .expect("imul_rr");
    }

    /// `imul $imm, %src, %dst`.
    pub fn imul_rri(&mut self, w: Width, dst: Reg, src: Reg, imm: i64) {
        self.emit(Inst::new(Op::Imul3, w, Operands::RRI { dst, src, imm }))
            .expect("imul_rri");
    }

    /// `mul %r` (`rdx:rax = rax * r`).
    pub fn mul_r(&mut self, r: Reg) {
        self.emit(Inst::new(
            Op::MulDiv(MulDivOp::Mul),
            Width::W64,
            Operands::R(r),
        ))
        .expect("mul_r");
    }

    /// `mul mem`.
    pub fn mul_m(&mut self, m: Mem) {
        self.emit(Inst::new(
            Op::MulDiv(MulDivOp::Mul),
            Width::W64,
            Operands::M(m),
        ))
        .expect("mul_m");
    }

    /// `div %r`.
    pub fn div_r(&mut self, r: Reg) {
        self.emit(Inst::new(
            Op::MulDiv(MulDivOp::Div),
            Width::W64,
            Operands::R(r),
        ))
        .expect("div_r");
    }

    /// `idiv %r`.
    pub fn idiv_r(&mut self, r: Reg) {
        self.emit(Inst::new(
            Op::MulDiv(MulDivOp::Idiv),
            Width::W64,
            Operands::R(r),
        ))
        .expect("idiv_r");
    }

    /// `neg %r`.
    pub fn neg_r(&mut self, w: Width, r: Reg) {
        self.emit(Inst::new(Op::Neg, w, Operands::R(r)))
            .expect("neg_r");
    }

    /// `cqo`.
    pub fn cqo(&mut self) {
        self.emit(Inst::new(Op::Cqo, Width::W64, Operands::None))
            .expect("cqo");
    }

    // ---- stack ----

    /// `push %r`.
    pub fn push_r(&mut self, r: Reg) {
        self.emit(Inst::new(Op::Push, Width::W64, Operands::R(r)))
            .expect("push_r");
    }

    /// `pop %r`.
    pub fn pop_r(&mut self, r: Reg) {
        self.emit(Inst::new(Op::Pop, Width::W64, Operands::R(r)))
            .expect("pop_r");
    }

    /// `pushfq`.
    pub fn pushfq(&mut self) {
        self.emit(Inst::new(Op::Pushfq, Width::W64, Operands::None))
            .expect("pushfq");
    }

    /// `popfq`.
    pub fn popfq(&mut self) {
        self.emit(Inst::new(Op::Popfq, Width::W64, Operands::None))
            .expect("popfq");
    }

    // ---- control flow ----

    /// `ret`.
    pub fn ret(&mut self) {
        self.emit(Inst::new(Op::Ret, Width::W64, Operands::None))
            .expect("ret");
    }

    /// `call` to a label (rel32 form).
    pub fn call_label(&mut self, label: Label) {
        self.bytes.push(0xE8);
        self.push_rel32_fixup(label);
    }

    /// `call *%r`.
    pub fn call_ind_r(&mut self, r: Reg) {
        self.emit(Inst::new(Op::CallInd, Width::W64, Operands::R(r)))
            .expect("call_ind_r");
    }

    /// `jmp` to an absolute address.
    pub fn jmp_abs(&mut self, target: u64) -> Result<(), AsmError> {
        self.emit(Inst::new(Op::Jmp, Width::W64, Operands::Rel(target)))
    }

    /// `jmp` to a label (always rel32).
    pub fn jmp_label(&mut self, label: Label) {
        self.bytes.push(0xE9);
        self.push_rel32_fixup(label);
    }

    /// `jmp` to a label: rel8 if the label is bound and in reach, else
    /// rel32.
    pub fn jmp_label_short(&mut self, label: Label) {
        match self.bound_rel8(label) {
            Some(d) => self.bytes.extend_from_slice(&[0xEB, d as u8]),
            None => self.jmp_label(label),
        }
    }

    /// `jmp *%r`.
    pub fn jmp_ind_r(&mut self, r: Reg) {
        self.emit(Inst::new(Op::JmpInd, Width::W64, Operands::R(r)))
            .expect("jmp_ind_r");
    }

    /// `jcc` to a label (always rel32).
    pub fn jcc_label(&mut self, cond: Cond, label: Label) {
        self.bytes.push(0x0F);
        self.bytes.push(0x80 | cond.code());
        self.push_rel32_fixup(label);
    }

    /// `jcc` to a label: rel8 if the label is bound and in reach, else
    /// rel32.
    pub fn jcc_label_short(&mut self, cond: Cond, label: Label) {
        match self.bound_rel8(label) {
            Some(d) => self.bytes.extend_from_slice(&[0x70 | cond.code(), d as u8]),
            None => self.jcc_label(cond, label),
        }
    }

    /// The rel8 displacement of a 2-byte branch emitted here to `label`,
    /// if the label is bound and within reach.
    fn bound_rel8(&self, label: Label) -> Option<i8> {
        let target = self.labels[label.0]?;
        i8::try_from(target as i64 - (self.here() + 2) as i64).ok()
    }

    /// `setcc %r8`.
    pub fn setcc_r(&mut self, cond: Cond, r: Reg) {
        self.emit(Inst::new(Op::Setcc(cond), Width::W8, Operands::R(r)))
            .expect("setcc_r");
    }

    /// `cmovcc %src, %dst`.
    pub fn cmov_rr(&mut self, cond: Cond, w: Width, dst: Reg, src: Reg) {
        self.emit(Inst::new(Op::Cmovcc(cond), w, Operands::RR { dst, src }))
            .expect("cmov_rr");
    }

    // ---- system ----

    /// `syscall`.
    pub fn syscall(&mut self) {
        self.emit(Inst::new(Op::Syscall, Width::W64, Operands::None))
            .expect("syscall");
    }

    /// `ud2`.
    pub fn ud2(&mut self) {
        self.emit(Inst::new(Op::Ud2, Width::W64, Operands::None))
            .expect("ud2");
    }

    /// `int3`.
    pub fn int3(&mut self) {
        self.emit(Inst::new(Op::Int3, Width::W64, Operands::None))
            .expect("int3");
    }

    /// `nop`.
    pub fn nop(&mut self) {
        self.emit(Inst::new(Op::Nop, Width::W64, Operands::None))
            .expect("nop");
    }

    /// Pads with single-byte NOPs until the position is `align`-aligned.
    pub fn align(&mut self, align: u64) {
        while !self.here().is_multiple_of(align) {
            self.nop();
        }
    }

    fn push_rel32_fixup(&mut self, label: Label) {
        let pos = self.bytes.len();
        self.bytes.extend_from_slice(&[0, 0, 0, 0]);
        self.fixups.push(Fixup {
            pos,
            label,
            kind: FixKind::Rel32,
        });
    }

    /// Resolves all fixups and returns the finished program.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        self.resolve()?;
        Ok(Program {
            base: self.base,
            bytes: self.bytes,
        })
    }

    /// Resolves all fixups and returns an exactly sized copy of the
    /// code, leaving the assembler empty at its base for the next
    /// program. Its buffers keep their capacity, so a caller assembling
    /// many small programs allocates them once.
    pub fn take(&mut self) -> Result<Vec<u8>, AsmError> {
        let code = self.resolve().map(|()| self.bytes.clone());
        self.bytes.clear();
        self.labels.clear();
        self.fixups.clear();
        self.named.clear();
        code
    }

    fn resolve(&mut self) -> Result<(), AsmError> {
        for fix in &self.fixups {
            let target = self.labels[fix.label.0].ok_or(AsmError::UnboundLabel(fix.label))?;
            match fix.kind {
                FixKind::Rel32 => {
                    let origin = self.base + fix.pos as u64 + 4;
                    let rel = (target as i64) - (origin as i64);
                    let rel32: i32 = rel
                        .try_into()
                        .map_err(|_| AsmError::Encode(EncodeError::OutOfRange("label rel32")))?;
                    self.bytes[fix.pos..fix.pos + 4].copy_from_slice(&rel32.to_le_bytes());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode_all;

    #[test]
    fn forward_label_resolves() {
        let mut a = Asm::new(0x40_0000);
        let done = a.label();
        a.mov_ri(Width::W64, Reg::Rax, 1);
        a.jmp_label(done);
        a.mov_ri(Width::W64, Reg::Rax, 2);
        a.bind(done).unwrap();
        a.ret();
        let p = a.finish().unwrap();
        let insts = decode_all(&p.bytes, p.base);
        // jmp must target the ret.
        let jmp = insts.iter().find(|(_, i, _)| i.op == Op::Jmp).unwrap();
        let ret = insts.iter().find(|(_, i, _)| i.op == Op::Ret).unwrap();
        assert_eq!(jmp.1.branch_target(), Some(ret.0));
    }

    #[test]
    fn backward_label_resolves() {
        let mut a = Asm::new(0x40_0000);
        let top = a.label();
        a.bind(top).unwrap();
        a.alu_ri(AluOp::Sub, Width::W64, Reg::Rcx, 1);
        a.jcc_label(Cond::Ne, top);
        a.ret();
        let p = a.finish().unwrap();
        let insts = decode_all(&p.bytes, p.base);
        let jcc = insts
            .iter()
            .find(|(_, i, _)| matches!(i.op, Op::Jcc(_)))
            .unwrap();
        assert_eq!(jcc.1.branch_target(), Some(0x40_0000));
    }

    /// The length and target of a branch that `emit` places after a
    /// label bound at the base and `pad` single-byte NOPs.
    fn branch_after(pad: usize, emit: impl Fn(&mut Asm, Label)) -> (usize, Option<u64>) {
        let mut a = Asm::new(0x40_0000);
        let l = a.label();
        a.bind(l).unwrap();
        for _ in 0..pad {
            a.nop();
        }
        emit(&mut a, l);
        let p = a.finish().unwrap();
        let (_, inst, len) = decode_all(&p.bytes, p.base).pop().unwrap();
        (len as usize, inst.branch_target())
    }

    #[test]
    fn short_forms_use_rel8_for_a_bound_label_in_reach() {
        let jcc = |a: &mut Asm, l| a.jcc_label_short(Cond::A, l);
        let jmp = |a: &mut Asm, l| a.jmp_label_short(l);
        assert_eq!(branch_after(0, jcc), (2, Some(0x40_0000)));
        assert_eq!(branch_after(0, jmp), (2, Some(0x40_0000)));
        // 126 NOPs put the label 128 bytes before the branch's end: rel8
        // -128 is the farthest reach; one more byte needs rel32.
        assert_eq!(branch_after(126, jcc), (2, Some(0x40_0000)));
        assert_eq!(branch_after(126, jmp), (2, Some(0x40_0000)));
        assert_eq!(branch_after(127, jcc), (6, Some(0x40_0000)));
        assert_eq!(branch_after(127, jmp), (5, Some(0x40_0000)));
    }

    #[test]
    fn short_forms_use_rel32_for_an_unbound_label() {
        let mut a = Asm::new(0x40_0000);
        let l = a.label();
        a.jcc_label_short(Cond::E, l);
        a.jmp_label_short(l);
        assert_eq!(a.len(), 6 + 5, "a forward label keeps rel32");
        a.bind(l).unwrap();
        let p = a.finish().unwrap();
        for (_, inst, _) in decode_all(&p.bytes, p.base) {
            assert_eq!(inst.branch_target(), Some(0x40_0000 + 11));
        }
    }

    #[test]
    fn label_branches_stay_rel32_when_a_short_form_would_fit() {
        assert_eq!(
            branch_after(0, |a, l| a.jcc_label(Cond::A, l)),
            (6, Some(0x40_0000))
        );
        assert_eq!(branch_after(0, |a, l| a.jmp_label(l)), (5, Some(0x40_0000)));
    }

    #[test]
    fn unbound_label_errors() {
        let mut a = Asm::new(0);
        let l = a.label();
        a.jmp_label(l);
        assert!(matches!(a.finish(), Err(AsmError::UnboundLabel(_))));
    }

    #[test]
    fn take_resolves_and_leaves_an_empty_assembler() {
        let mut a = Asm::new(0x1000);
        let l = a.label();
        a.jmp_label(l);
        assert!(matches!(a.take(), Err(AsmError::UnboundLabel(_))));
        assert!(a.is_empty(), "a failed take still empties the assembler");
        for round in 0..2 {
            let l = a.label();
            a.jmp_label(l);
            a.bind(l).unwrap();
            let code = a.take().unwrap();
            assert_eq!(code, [0xE9, 0, 0, 0, 0], "round {round}");
            assert_eq!(code.capacity(), code.len());
            assert_eq!(a.here(), 0x1000);
        }
    }

    #[test]
    fn rebinding_errors() {
        let mut a = Asm::new(0);
        let l = a.label();
        a.bind(l).unwrap();
        assert!(matches!(a.bind(l), Err(AsmError::Rebound(_))));
    }

    #[test]
    fn named_labels_are_stable() {
        let mut a = Asm::new(0);
        let f1 = a.named_label("f");
        let f2 = a.named_label("f");
        assert_eq!(f1, f2);
    }

    #[test]
    fn align_pads_with_nops() {
        let mut a = Asm::new(0x40_0001);
        a.align(16);
        assert_eq!(a.here() % 16, 0);
    }

    #[test]
    fn failed_emit_leaves_no_partial_bytes() {
        let mut a = Asm::new(0x40_0000);
        a.nop();
        // The opcode is written before the rel32 is found out of range.
        assert!(a.jmp_abs(0x40_0000 + (1 << 40)).is_err());
        assert_eq!(a.finish().unwrap().bytes, vec![0x90]);
    }
}
