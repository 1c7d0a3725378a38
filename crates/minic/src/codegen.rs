//! Code generation: mini-C AST → x86-64 machine code in an ELF image.
//!
//! The generated code style deliberately mimics a simple optimizing
//! compiler's output on x86-64:
//!
//! * locals, parameters and expression temporaries live in a fixed
//!   `%rsp`-relative frame (frame pointer omitted, like `-O2` code), so
//!   stack traffic is eliminable by RedFat's check elimination;
//! * array accesses use full `disp(base,index,scale)` memory operands;
//! * consecutive constant-index stores/loads through the same pointer
//!   (struct-init / unrolled patterns) are emitted through a common
//!   address register, reproducing the batching/merging material of the
//!   paper's Example 2.

use crate::ast::{BinOp, Expr, Function, Program, Stmt, UnOp};
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_emu::syscalls;
use redfat_vm::layout;
use redfat_x86::{AluOp, Asm, AsmError, Cond, Inst, Label, Mem, Op, Operands, Reg, ShiftOp, Width};
// The code generator's maps are ordered, so identical compiles build and
// free them in the same order and leave identically shaped heaps.
use std::collections::{BTreeMap, BTreeSet};

/// Maximum expression nesting depth (temporary slots per frame).
const MAX_TEMPS: i64 = 24;

/// Dedicated address register for batched store/load runs.
const ADDR_REG: Reg = Reg::R11;

/// A code generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// Reference to an undefined variable.
    UndefinedVar(String),
    /// Reference to an undefined function.
    UndefinedFn(String),
    /// Call with the wrong number of arguments.
    ArityMismatch(String, usize, usize),
    /// Expression nesting exceeds the temporary budget.
    ExprTooDeep,
    /// `break`/`continue` outside a loop.
    NotInLoop,
    /// Duplicate definition.
    Duplicate(String),
    /// Assembly failed (e.g. out-of-range immediates).
    Asm(String),
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::UndefinedVar(n) => write!(f, "undefined variable {n}"),
            CodegenError::UndefinedFn(n) => write!(f, "undefined function {n}"),
            CodegenError::ArityMismatch(n, want, got) => {
                write!(f, "{n} expects {want} args, got {got}")
            }
            CodegenError::ExprTooDeep => write!(f, "expression too deeply nested"),
            CodegenError::NotInLoop => write!(f, "break/continue outside loop"),
            CodegenError::Duplicate(n) => write!(f, "duplicate definition of {n}"),
            CodegenError::Asm(e) => write!(f, "assembly error: {e}"),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<AsmError> for CodegenError {
    fn from(e: AsmError) -> CodegenError {
        CodegenError::Asm(e.to_string())
    }
}

/// Where a named value lives.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// `offset(%rsp)`.
    Slot(i64),
    /// A callee-saved pool register (register-allocated local).
    RegVar(Reg),
    /// Absolute global address.
    Global(u64),
}

/// Callee-saved registers handed to the first few locals/parameters of
/// each function -- the analogue of `-O2` keeping hot scalars in
/// registers. Never used as codegen scratch.
const REG_POOL: [Reg; 9] = [
    Reg::Rbx,
    Reg::R12,
    Reg::R13,
    Reg::R14,
    Reg::R15,
    Reg::Rbp,
    Reg::R10,
    Reg::R9,
    Reg::R8,
];

/// A leaf operand usable directly as an ALU source.
#[derive(Debug, Clone, Copy)]
enum Leaf {
    Imm(i32),
    Reg(Reg),
    Mem(Mem),
}

struct FnCtx {
    vars: Vec<BTreeMap<String, Place>>,
    /// Pool registers allocated per scope (returned on scope exit, so
    /// sibling scopes reuse them -- a lifetime-aware allocator lite).
    scope_regs: Vec<Vec<Reg>>,
    nlocals: i64,
    /// Currently free pool registers (stack; top = next to hand out).
    free_regs: Vec<Reg>,
    /// Pool size this function started with.
    pool_len: usize,
    /// High-water mark of concurrently allocated pool registers.
    max_regs: usize,
    /// Names eligible for a pool register (frequency-ranked pre-pass).
    reg_names: BTreeSet<String>,
    depth: i64,
    epilogue: Label,
    loops: Vec<(Label, Label)>, // (continue target, break target)
}

struct Gen {
    asm: Asm,
    globals: BTreeMap<String, (u64, u64)>, // name -> (addr, elems)
    fn_arity: BTreeMap<String, usize>,
}

impl Gen {
    fn frame_size(f: &Function) -> i64 {
        // Temps + params + a generous local budget, computed exactly by
        // counting declarations (including nested blocks).
        fn count_decls(stmts: &[Stmt]) -> i64 {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Decl(..) => 1,
                    Stmt::If(_, a, b) => count_decls(a) + count_decls(b),
                    Stmt::While(_, b) => count_decls(b),
                    Stmt::For(init, _, _, b) => {
                        count_decls(std::slice::from_ref(init)) + count_decls(b)
                    }
                    _ => 0,
                })
                .sum()
        }
        8 * (MAX_TEMPS + f.params.len() as i64 + count_decls(&f.body)) + 8
    }

    fn temp_slot(depth: i64) -> Mem {
        Mem::base_disp(Reg::Rsp, 8 * depth)
    }

    fn lookup(&self, ctx: &FnCtx, name: &str) -> Option<Place> {
        for scope in ctx.vars.iter().rev() {
            if let Some(&p) = scope.get(name) {
                return Some(p);
            }
        }
        self.globals.get(name).map(|&(addr, _)| Place::Global(addr))
    }

    fn place_mem(place: Place) -> Mem {
        match place {
            Place::Slot(off) => Mem::base_disp(Reg::Rsp, off),
            Place::Global(addr) => Mem::abs(addr as i64),
            Place::RegVar(r) => unreachable!("register-resident {r:?} has no memory home"),
        }
    }

    /// Allocates a home for a new local: a pool register if the
    /// frequency pre-pass selected this name (the -O2 analogue of
    /// keeping the hottest scalars in registers), a stack slot
    /// otherwise.
    fn alloc_place(ctx: &mut FnCtx, name: &str) -> Place {
        if ctx.reg_names.contains(name) {
            if let Some(r) = ctx.free_regs.pop() {
                ctx.scope_regs
                    .last_mut()
                    .expect("scope stack non-empty")
                    .push(r);
                ctx.max_regs = ctx.max_regs.max(ctx.pool_len - ctx.free_regs.len());
                return Place::RegVar(r);
            }
        }
        let off = 8 * (MAX_TEMPS + ctx.nlocals);
        ctx.nlocals += 1;
        Place::Slot(off)
    }

    /// Frequency pre-pass: ranks variable names by static occurrence
    /// count (loop bodies weighted 3x per nesting level) and returns the
    /// `pool_len` hottest -- only they may occupy pool registers, so an
    /// inner-loop scalar never loses its register to a cold outer local.
    fn hot_names(f: &Function, pool_len: usize) -> BTreeSet<String> {
        fn count_expr(e: &Expr, c: &mut BTreeMap<String, usize>) {
            match e {
                Expr::Var(n) => *c.entry(n.clone()).or_default() += 1,
                Expr::Bin(_, a, b) => {
                    count_expr(a, c);
                    count_expr(b, c);
                }
                Expr::Un(_, a) => count_expr(a, c),
                Expr::Index(a, b) => {
                    // Index participants benefit doubly (they form
                    // memory operands): weight them heavier.
                    count_expr(a, c);
                    count_expr(b, c);
                    if let Expr::Var(n) = &**a {
                        *c.entry(n.clone()).or_default() += 2;
                    }
                    if let Expr::Var(n) = &**b {
                        *c.entry(n.clone()).or_default() += 2;
                    }
                }
                Expr::Call(_, args) => args.iter().for_each(|a| count_expr(a, c)),
                Expr::Int(_) | Expr::GlobalAddr(_) => {}
            }
        }
        fn count_stmt(s: &Stmt, c: &mut BTreeMap<String, usize>) {
            match s {
                Stmt::Decl(n, e) | Stmt::Assign(n, e) => {
                    *c.entry(n.clone()).or_default() += 1;
                    count_expr(e, c);
                }
                Stmt::Store(b, i, v) => {
                    count_expr(b, c);
                    count_expr(i, c);
                    count_expr(v, c);
                    if let Expr::Var(n) = b {
                        *c.entry(n.clone()).or_default() += 2;
                    }
                }
                Stmt::Expr(e) | Stmt::Return(e) => count_expr(e, c),
                Stmt::If(e, a, b) => {
                    count_expr(e, c);
                    a.iter().for_each(|s| count_stmt(s, c));
                    b.iter().for_each(|s| count_stmt(s, c));
                }
                Stmt::While(e, b) => {
                    count_expr(e, c);
                    // Loop bodies weigh triple: that is where registers
                    // pay off.
                    let mut inner = BTreeMap::new();
                    b.iter().for_each(|s| count_stmt(s, &mut inner));
                    for (k, v) in inner {
                        *c.entry(k).or_default() += 3 * v;
                    }
                }
                Stmt::For(init, e, step, b) => {
                    count_stmt(init, c);
                    count_expr(e, c);
                    let mut inner = BTreeMap::new();
                    count_stmt(step, &mut inner);
                    b.iter().for_each(|s| count_stmt(s, &mut inner));
                    for (k, v) in inner {
                        *c.entry(k).or_default() += 3 * v;
                    }
                }
                Stmt::Break | Stmt::Continue => {}
            }
        }
        let mut counts = BTreeMap::new();
        for p in &f.params {
            *counts.entry(p.clone()).or_default() += 1;
        }
        for s in &f.body {
            count_stmt(s, &mut counts);
        }
        let mut ranked: Vec<(String, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.into_iter().take(pool_len).map(|(n, _)| n).collect()
    }

    /// Largest user-call arity in a function (pool registers that double
    /// as the 5th/6th argument registers are only safe below it).
    fn max_call_arity(&self, f: &Function) -> usize {
        fn expr_arity(e: &Expr, g: &Gen) -> usize {
            match e {
                Expr::Call(name, args) => {
                    let own = if g.fn_arity.contains_key(name) {
                        args.len()
                    } else {
                        0 // intrinsics use rdi/rsi/rdx only
                    };
                    own.max(args.iter().map(|a| expr_arity(a, g)).max().unwrap_or(0))
                }
                Expr::Bin(_, a, b) | Expr::Index(a, b) => expr_arity(a, g).max(expr_arity(b, g)),
                Expr::Un(_, a) => expr_arity(a, g),
                _ => 0,
            }
        }
        fn stmt_arity(s: &Stmt, g: &Gen) -> usize {
            match s {
                Stmt::Decl(_, e) | Stmt::Assign(_, e) | Stmt::Expr(e) | Stmt::Return(e) => {
                    expr_arity(e, g)
                }
                Stmt::Store(a, b, c) => {
                    expr_arity(a, g).max(expr_arity(b, g)).max(expr_arity(c, g))
                }
                Stmt::If(e, a, b) => expr_arity(e, g)
                    .max(a.iter().map(|s| stmt_arity(s, g)).max().unwrap_or(0))
                    .max(b.iter().map(|s| stmt_arity(s, g)).max().unwrap_or(0)),
                Stmt::While(e, b) => {
                    expr_arity(e, g).max(b.iter().map(|s| stmt_arity(s, g)).max().unwrap_or(0))
                }
                Stmt::For(i, e, st, b) => stmt_arity(i, g)
                    .max(expr_arity(e, g))
                    .max(stmt_arity(st, g))
                    .max(b.iter().map(|s| stmt_arity(s, g)).max().unwrap_or(0)),
                _ => 0,
            }
        }
        f.body
            .iter()
            .map(|s| stmt_arity(s, self))
            .max()
            .unwrap_or(0)
    }

    /// Resolves `e` to a register-resident variable, if it is one.
    fn reg_var(&self, ctx: &FnCtx, e: &Expr) -> Option<Reg> {
        match e {
            Expr::Var(name) => match self.lookup(ctx, name)? {
                Place::RegVar(r) => Some(r),
                _ => None,
            },
            _ => None,
        }
    }

    /// Classifies an expression as a directly usable ALU operand.
    ///
    /// Register-resident bases/indices make whole `a[i]` loads leaves
    /// (`op %rax, (%rbx,%r12,8)`), exactly the compiled-C shape the
    /// paper's instrumentation targets.
    fn leaf(&self, ctx: &FnCtx, e: &Expr) -> Option<Leaf> {
        match e {
            Expr::Int(v) => i32::try_from(*v).ok().map(Leaf::Imm),
            Expr::Var(name) => match self.lookup(ctx, name)? {
                Place::RegVar(r) => Some(Leaf::Reg(r)),
                p => Some(Leaf::Mem(Self::place_mem(p))),
            },
            Expr::GlobalAddr(name) => {
                let &(addr, _) = self.globals.get(name)?;
                i32::try_from(addr).ok().map(Leaf::Imm)
            }
            Expr::Index(base, idx) => {
                let rb = self.reg_var(ctx, base)?;
                match &**idx {
                    Expr::Int(k) => Some(Leaf::Mem(Mem::base_disp(rb, 8 * *k))),
                    Expr::Var(_) => {
                        let ri = self.reg_var(ctx, idx)?;
                        Some(Leaf::Mem(Mem::bis(rb, ri, 8, 0)))
                    }
                    Expr::Bin(BinOp::Add, i, k) => {
                        let ri = self.reg_var(ctx, i)?;
                        let Expr::Int(kv) = **k else { return None };
                        Some(Leaf::Mem(Mem::bis(rb, ri, 8, 8 * kv)))
                    }
                    Expr::Bin(BinOp::Sub, i, k) => {
                        let ri = self.reg_var(ctx, i)?;
                        let Expr::Int(kv) = **k else { return None };
                        Some(Leaf::Mem(Mem::bis(rb, ri, 8, -8 * kv)))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Evaluates `e` into `rax`.
    fn expr(&mut self, ctx: &mut FnCtx, e: &Expr) -> Result<(), CodegenError> {
        match e {
            Expr::Int(v) => self.asm.mov_ri(Width::W64, Reg::Rax, *v),
            Expr::Var(name) => {
                let p = self
                    .lookup(ctx, name)
                    .ok_or_else(|| CodegenError::UndefinedVar(name.clone()))?;
                match p {
                    Place::RegVar(r) => self.asm.mov_rr(Width::W64, Reg::Rax, r),
                    _ => self.asm.mov_rm(Width::W64, Reg::Rax, Self::place_mem(p)),
                }
            }
            Expr::GlobalAddr(name) => {
                let &(addr, _) = self
                    .globals
                    .get(name)
                    .ok_or_else(|| CodegenError::UndefinedVar(name.clone()))?;
                self.asm.mov_ri(Width::W64, Reg::Rax, addr as i64);
            }
            Expr::Un(op, inner) => {
                self.expr(ctx, inner)?;
                match op {
                    UnOp::Neg => self.asm.neg_r(Width::W64, Reg::Rax),
                    UnOp::Not => {
                        self.asm
                            .emit(Inst::new(Op::Not, Width::W64, Operands::R(Reg::Rax)))?
                    }
                    UnOp::LNot => {
                        self.asm.test_rr(Width::W64, Reg::Rax, Reg::Rax);
                        self.asm.setcc_r(Cond::E, Reg::Rax);
                        self.asm.emit(Inst::new(
                            Op::Movzx8,
                            Width::W64,
                            Operands::RR {
                                dst: Reg::Rax,
                                src: Reg::Rax,
                            },
                        ))?;
                    }
                }
            }
            Expr::Bin(BinOp::LAnd, l, r) => {
                let falsy = self.asm.label();
                let end = self.asm.label();
                self.expr(ctx, l)?;
                self.asm.test_rr(Width::W64, Reg::Rax, Reg::Rax);
                self.asm.jcc_label(Cond::E, falsy);
                self.expr(ctx, r)?;
                self.asm.test_rr(Width::W64, Reg::Rax, Reg::Rax);
                self.asm.jcc_label(Cond::E, falsy);
                self.asm.mov_ri(Width::W64, Reg::Rax, 1);
                self.asm.jmp_label(end);
                self.asm.bind(falsy)?;
                self.asm.mov_ri(Width::W64, Reg::Rax, 0);
                self.asm.bind(end)?;
            }
            Expr::Bin(BinOp::LOr, l, r) => {
                let truthy = self.asm.label();
                let end = self.asm.label();
                self.expr(ctx, l)?;
                self.asm.test_rr(Width::W64, Reg::Rax, Reg::Rax);
                self.asm.jcc_label(Cond::Ne, truthy);
                self.expr(ctx, r)?;
                self.asm.test_rr(Width::W64, Reg::Rax, Reg::Rax);
                self.asm.jcc_label(Cond::Ne, truthy);
                self.asm.mov_ri(Width::W64, Reg::Rax, 0);
                self.asm.jmp_label(end);
                self.asm.bind(truthy)?;
                self.asm.mov_ri(Width::W64, Reg::Rax, 1);
                self.asm.bind(end)?;
            }
            Expr::Bin(op, l, r) => {
                // Commutative reassociation: `leaf op complex` evaluates
                // the complex side first and applies the leaf directly,
                // avoiding a temp-slot round trip (accumulation patterns
                // like `acc = acc + f(x)` hit this constantly).
                if self.leaf(ctx, r).is_none()
                    && self.leaf(ctx, l).is_some()
                    && matches!(
                        op,
                        BinOp::Add
                            | BinOp::Mul
                            | BinOp::And
                            | BinOp::Or
                            | BinOp::Xor
                            | BinOp::Eq
                            | BinOp::Ne
                    )
                {
                    let leaf = self.leaf(ctx, l).expect("checked");
                    self.expr(ctx, r)?;
                    self.bin_with_leaf(*op, leaf)?;
                    return Ok(());
                }
                self.expr(ctx, l)?;
                if let Some(leaf) = self.leaf(ctx, r) {
                    self.bin_with_leaf(*op, leaf)?;
                } else {
                    // General case via a temp slot.
                    if ctx.depth >= MAX_TEMPS {
                        return Err(CodegenError::ExprTooDeep);
                    }
                    let slot = Self::temp_slot(ctx.depth);
                    self.asm.mov_mr(Width::W64, slot, Reg::Rax);
                    ctx.depth += 1;
                    self.expr(ctx, r)?;
                    ctx.depth -= 1;
                    self.asm.mov_rr(Width::W64, Reg::Rcx, Reg::Rax);
                    self.asm.mov_rm(Width::W64, Reg::Rax, slot);
                    self.bin_with_reg(*op, Reg::Rcx)?;
                }
            }
            Expr::Index(base, idx) => {
                let mem = self.index_operand(ctx, base, idx)?;
                self.asm.mov_rm(Width::W64, Reg::Rax, mem);
            }
            Expr::Call(name, args) => self.call(ctx, name, args)?,
        }
        Ok(())
    }

    /// Computes the memory operand for `base[idx]`, leaving operand
    /// registers live. Base ends in `rax`; index (if non-constant) in
    /// `rcx`.
    fn index_operand(
        &mut self,
        ctx: &mut FnCtx,
        base: &Expr,
        idx: &Expr,
    ) -> Result<Mem, CodegenError> {
        // Register-resident base: build the operand without touching
        // rax/rcx (this is what lets consecutive accesses batch/merge).
        if let Some(rb) = self.reg_var(ctx, base) {
            match idx {
                Expr::Int(k) => return Ok(Mem::base_disp(rb, 8 * *k)),
                _ => {
                    if let Some(ri) = self.reg_var(ctx, idx) {
                        return Ok(Mem::bis(rb, ri, 8, 0));
                    }
                    if let Expr::Bin(BinOp::Add, i, k) = idx {
                        if let (Some(ri), Expr::Int(kv)) = (self.reg_var(ctx, i), &**k) {
                            return Ok(Mem::bis(rb, ri, 8, 8 * *kv));
                        }
                    }
                    if let Expr::Bin(BinOp::Sub, i, k) = idx {
                        if let (Some(ri), Expr::Int(kv)) = (self.reg_var(ctx, i), &**k) {
                            return Ok(Mem::bis(rb, ri, 8, -8 * *kv));
                        }
                    }
                    // General index into rax; base register stays put.
                    self.expr(ctx, idx)?;
                    return Ok(Mem::bis(rb, Reg::Rax, 8, 0));
                }
            }
        }
        self.expr(ctx, base)?;
        match idx {
            Expr::Int(k) => Ok(Mem::base_disp(Reg::Rax, 8 * *k)),
            // The common `a[i + k]` shape keeps the scaled-index form.
            Expr::Bin(BinOp::Add, i, k) if matches!(**k, Expr::Int(_)) => {
                let Expr::Int(kv) = **k else { unreachable!() };
                if ctx.depth >= MAX_TEMPS {
                    return Err(CodegenError::ExprTooDeep);
                }
                let slot = Self::temp_slot(ctx.depth);
                self.asm.mov_mr(Width::W64, slot, Reg::Rax);
                ctx.depth += 1;
                self.expr(ctx, i)?;
                ctx.depth -= 1;
                self.asm.mov_rr(Width::W64, Reg::Rcx, Reg::Rax);
                self.asm.mov_rm(Width::W64, Reg::Rax, slot);
                Ok(Mem::bis(Reg::Rax, Reg::Rcx, 8, 8 * kv))
            }
            _ => {
                if ctx.depth >= MAX_TEMPS {
                    return Err(CodegenError::ExprTooDeep);
                }
                let slot = Self::temp_slot(ctx.depth);
                self.asm.mov_mr(Width::W64, slot, Reg::Rax);
                ctx.depth += 1;
                self.expr(ctx, idx)?;
                ctx.depth -= 1;
                self.asm.mov_rr(Width::W64, Reg::Rcx, Reg::Rax);
                self.asm.mov_rm(Width::W64, Reg::Rax, slot);
                Ok(Mem::bis(Reg::Rax, Reg::Rcx, 8, 0))
            }
        }
    }

    fn bin_with_leaf(&mut self, op: BinOp, leaf: Leaf) -> Result<(), CodegenError> {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor => {
                let alu = alu_of(op);
                match leaf {
                    Leaf::Imm(v) => self.asm.alu_ri(alu, Width::W64, Reg::Rax, v as i64),
                    Leaf::Reg(r) => self.asm.alu_rr(alu, Width::W64, Reg::Rax, r),
                    Leaf::Mem(m) => self.asm.alu_rm(alu, Width::W64, Reg::Rax, m),
                }
            }
            BinOp::Mul => match leaf {
                Leaf::Imm(v) => self.asm.imul_rri(Width::W64, Reg::Rax, Reg::Rax, v as i64),
                Leaf::Reg(r) => self.asm.imul_rr(Width::W64, Reg::Rax, r),
                Leaf::Mem(m) => self.asm.emit(Inst::new(
                    Op::Imul2,
                    Width::W64,
                    Operands::RM {
                        dst: Reg::Rax,
                        src: m,
                    },
                ))?,
            },
            BinOp::Div | BinOp::Rem => {
                match leaf {
                    Leaf::Imm(v) => self.asm.mov_ri(Width::W64, Reg::Rcx, v as i64),
                    Leaf::Reg(r) => self.asm.mov_rr(Width::W64, Reg::Rcx, r),
                    Leaf::Mem(m) => self.asm.mov_rm(Width::W64, Reg::Rcx, m),
                }
                self.divide(op == BinOp::Rem);
            }
            BinOp::Shl | BinOp::Shr => {
                let sh = if op == BinOp::Shl {
                    ShiftOp::Shl
                } else {
                    ShiftOp::Sar
                };
                match leaf {
                    Leaf::Imm(v) => self.asm.shift_ri(sh, Width::W64, Reg::Rax, (v & 63) as u8),
                    Leaf::Reg(r) => {
                        self.asm.mov_rr(Width::W64, Reg::Rcx, r);
                        self.asm.shift_cl(sh, Width::W64, Reg::Rax);
                    }
                    Leaf::Mem(m) => {
                        self.asm.mov_rm(Width::W64, Reg::Rcx, m);
                        self.asm.shift_cl(sh, Width::W64, Reg::Rax);
                    }
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                match leaf {
                    Leaf::Imm(v) => self.asm.alu_ri(AluOp::Cmp, Width::W64, Reg::Rax, v as i64),
                    Leaf::Reg(r) => self.asm.alu_rr(AluOp::Cmp, Width::W64, Reg::Rax, r),
                    Leaf::Mem(m) => self.asm.alu_rm(AluOp::Cmp, Width::W64, Reg::Rax, m),
                }
                self.set_cond(cond_of(op))?;
            }
            BinOp::LAnd | BinOp::LOr => unreachable!("handled in expr"),
        }
        Ok(())
    }

    fn bin_with_reg(&mut self, op: BinOp, rhs: Reg) -> Result<(), CodegenError> {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor => {
                self.asm.alu_rr(alu_of(op), Width::W64, Reg::Rax, rhs);
            }
            BinOp::Mul => self.asm.imul_rr(Width::W64, Reg::Rax, rhs),
            BinOp::Div | BinOp::Rem => self.divide(op == BinOp::Rem),
            BinOp::Shl | BinOp::Shr => {
                debug_assert_eq!(rhs, Reg::Rcx);
                let sh = if op == BinOp::Shl {
                    ShiftOp::Shl
                } else {
                    ShiftOp::Sar
                };
                self.asm.shift_cl(sh, Width::W64, Reg::Rax);
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                self.asm.alu_rr(AluOp::Cmp, Width::W64, Reg::Rax, rhs);
                self.set_cond(cond_of(op))?;
            }
            BinOp::LAnd | BinOp::LOr => unreachable!("handled in expr"),
        }
        Ok(())
    }

    /// `rax = rax / rcx` (or remainder): signed division.
    fn divide(&mut self, remainder: bool) {
        self.asm.cqo();
        self.asm.idiv_r(Reg::Rcx);
        if remainder {
            self.asm.mov_rr(Width::W64, Reg::Rax, Reg::Rdx);
        }
    }

    fn set_cond(&mut self, c: Cond) -> Result<(), CodegenError> {
        self.asm.setcc_r(c, Reg::Rax);
        self.asm.emit(Inst::new(
            Op::Movzx8,
            Width::W64,
            Operands::RR {
                dst: Reg::Rax,
                src: Reg::Rax,
            },
        ))?;
        Ok(())
    }

    fn call(&mut self, ctx: &mut FnCtx, name: &str, args: &[Expr]) -> Result<(), CodegenError> {
        // Intrinsics first.
        if let Some(()) = self.intrinsic(ctx, name, args)? {
            return Ok(());
        }
        let arity = *self
            .fn_arity
            .get(name)
            .ok_or_else(|| CodegenError::UndefinedFn(name.to_owned()))?;
        if arity != args.len() {
            return Err(CodegenError::ArityMismatch(
                name.to_owned(),
                arity,
                args.len(),
            ));
        }
        self.eval_args_to_regs(ctx, args)?;
        let label = self.asm.named_label(name);
        self.asm.call_label(label);
        Ok(())
    }

    /// Evaluates `args` into the System V argument registers.
    ///
    /// Non-leaf arguments evaluate through temp slots; leaf arguments
    /// (constants, register/stack variables) load directly at the end,
    /// after no further evaluation can clobber the argument registers.
    fn eval_args_to_regs(&mut self, ctx: &mut FnCtx, args: &[Expr]) -> Result<(), CodegenError> {
        const ARG_REGS: [Reg; 6] = [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::Rcx, Reg::R8, Reg::R9];
        if ctx.depth + args.len() as i64 > MAX_TEMPS {
            return Err(CodegenError::ExprTooDeep);
        }
        let base_depth = ctx.depth;
        // Pass 1: complex arguments into temp slots.
        let leaves: Vec<Option<Leaf>> = args.iter().map(|a| self.leaf(ctx, a)).collect();
        for (i, arg) in args.iter().enumerate() {
            if leaves[i].is_none() {
                self.expr(ctx, arg)?;
                let slot = Self::temp_slot(base_depth + i as i64);
                self.asm.mov_mr(Width::W64, slot, Reg::Rax);
            }
            ctx.depth += 1;
        }
        ctx.depth = base_depth;
        // Pass 2: fill argument registers.
        for (i, &reg) in ARG_REGS.iter().take(args.len()).enumerate() {
            match leaves[i] {
                Some(Leaf::Imm(v)) => self.asm.mov_ri(Width::W64, reg, v as i64),
                Some(Leaf::Reg(r)) => self.asm.mov_rr(Width::W64, reg, r),
                Some(Leaf::Mem(m)) => self.asm.mov_rm(Width::W64, reg, m),
                None => {
                    let slot = Self::temp_slot(base_depth + i as i64);
                    self.asm.mov_rm(Width::W64, reg, slot);
                }
            }
        }
        Ok(())
    }

    /// Emits an intrinsic; returns `Ok(Some(()))` if `name` was one.
    fn intrinsic(
        &mut self,
        ctx: &mut FnCtx,
        name: &str,
        args: &[Expr],
    ) -> Result<Option<()>, CodegenError> {
        let arity_check = |want: usize| -> Result<(), CodegenError> {
            if args.len() != want {
                Err(CodegenError::ArityMismatch(
                    name.to_owned(),
                    want,
                    args.len(),
                ))
            } else {
                Ok(())
            }
        };
        let nr = match name {
            "malloc" => {
                arity_check(1)?;
                syscalls::MALLOC
            }
            "free" => {
                arity_check(1)?;
                syscalls::FREE
            }
            "calloc" => {
                arity_check(2)?;
                syscalls::CALLOC
            }
            "realloc" => {
                arity_check(2)?;
                syscalls::REALLOC
            }
            "print" => {
                arity_check(1)?;
                syscalls::PRINT_INT
            }
            "putc" => {
                arity_check(1)?;
                syscalls::PRINT_CHAR
            }
            "input" => {
                arity_check(0)?;
                // input() -> value, or -1 at EOF.
                self.asm
                    .mov_ri(Width::W64, Reg::Rax, syscalls::READ_INT as i64);
                self.asm.syscall();
                let ok = self.asm.label();
                self.asm.test_rr(Width::W64, Reg::Rdx, Reg::Rdx);
                self.asm.jcc_label(Cond::Ne, ok);
                self.asm.mov_ri(Width::W64, Reg::Rax, -1);
                self.asm.bind(ok)?;
                return Ok(Some(()));
            }
            "callptr" => {
                // callptr(f, args...): indirect call through a function
                // pointer -- the mini-C mechanism for calling into a
                // separately compiled (and separately hardened) library.
                if args.is_empty() || args.len() > 4 {
                    return Err(CodegenError::ArityMismatch(name.to_owned(), 2, args.len()));
                }
                // Evaluate call arguments into the argument registers,
                // then the target into rax, then call through it.
                self.eval_args_to_regs(ctx, &args[1..])?;
                if let Some(r) = self.reg_var(ctx, &args[0]) {
                    self.asm.call_ind_r(r);
                } else {
                    self.expr(ctx, &args[0])?;
                    self.asm.mov_rr(Width::W64, Reg::R11, Reg::Rax);
                    self.asm.call_ind_r(Reg::R11);
                }
                return Ok(Some(()));
            }
            "load8" => {
                arity_check(2)?;
                // load8(p, i): zero-extended byte at p + i. Fast path for
                // register-resident pointer: no argument shuffling.
                if let Some(rp) = self.reg_var(ctx, &args[0]) {
                    if let Some(ri) = self.reg_var(ctx, &args[1]) {
                        self.asm.movzx8_rm(Reg::Rax, Mem::bis(rp, ri, 1, 0));
                        return Ok(Some(()));
                    }
                    if let Expr::Int(k) = &args[1] {
                        self.asm.movzx8_rm(Reg::Rax, Mem::base_disp(rp, *k));
                        return Ok(Some(()));
                    }
                    self.expr(ctx, &args[1])?;
                    self.asm.movzx8_rm(Reg::Rax, Mem::bis(rp, Reg::Rax, 1, 0));
                    return Ok(Some(()));
                }
                self.eval_args_to_regs(ctx, args)?;
                self.asm
                    .movzx8_rm(Reg::Rax, Mem::bis(Reg::Rdi, Reg::Rsi, 1, 0));
                return Ok(Some(()));
            }
            "store8" => {
                arity_check(3)?;
                // store8(p, i, v), with a register-pointer fast path.
                if let (Some(rp), Some(value_leaf)) =
                    (self.reg_var(ctx, &args[0]), self.leaf(ctx, &args[2]))
                {
                    let mem = if let Some(ri) = self.reg_var(ctx, &args[1]) {
                        Some(Mem::bis(rp, ri, 1, 0))
                    } else if let Expr::Int(k) = &args[1] {
                        Some(Mem::base_disp(rp, *k))
                    } else {
                        self.expr(ctx, &args[1])?;
                        self.asm.mov_rr(Width::W64, Reg::Rcx, Reg::Rax);
                        Some(Mem::bis(rp, Reg::Rcx, 1, 0))
                    };
                    if let Some(mem) = mem {
                        match value_leaf {
                            Leaf::Imm(v) => self.asm.mov_ri(Width::W64, Reg::Rax, v as i64),
                            Leaf::Reg(r) => self.asm.mov_rr(Width::W64, Reg::Rax, r),
                            Leaf::Mem(m) => self.asm.mov_rm(Width::W64, Reg::Rax, m),
                        }
                        self.asm.mov_mr(Width::W8, mem, Reg::Rax);
                        return Ok(Some(()));
                    }
                }
                self.eval_args_to_regs(ctx, args)?;
                self.asm.mov_rr(Width::W64, Reg::Rax, Reg::Rdx);
                self.asm
                    .mov_mr(Width::W8, Mem::bis(Reg::Rdi, Reg::Rsi, 1, 0), Reg::Rax);
                return Ok(Some(()));
            }
            _ => return Ok(None),
        };
        self.eval_args_to_regs(ctx, args)?;
        self.asm.mov_ri(Width::W64, Reg::Rax, nr as i64);
        self.asm.syscall();
        Ok(Some(()))
    }

    fn stmts(&mut self, ctx: &mut FnCtx, stmts: &[Stmt]) -> Result<(), CodegenError> {
        ctx.vars.push(BTreeMap::new());
        ctx.scope_regs.push(Vec::new());
        let mut i = 0usize;
        while i < stmts.len() {
            // Batching peephole: runs of constant-index stores/loads
            // through the same pointer variable.
            if let Some(run) = self.store_run(ctx, &stmts[i..]) {
                self.emit_store_run(ctx, &stmts[i..i + run])?;
                i += run;
                continue;
            }
            self.stmt(ctx, &stmts[i])?;
            i += 1;
        }
        ctx.vars.pop();
        for r in ctx.scope_regs.pop().expect("pushed above") {
            ctx.free_regs.push(r);
        }
        Ok(())
    }

    /// Length of a maximal run (>= 2) of `p[k] = leaf;` statements with
    /// the same pointer variable `p` and constant indices.
    fn store_run(&self, ctx: &FnCtx, stmts: &[Stmt]) -> Option<usize> {
        let ptr_of = |s: &Stmt| -> Option<String> {
            match s {
                Stmt::Store(Expr::Var(p), Expr::Int(_), value) => {
                    if self.leaf(ctx, value).is_some() {
                        Some(p.clone())
                    } else {
                        None
                    }
                }
                _ => None,
            }
        };
        let first = ptr_of(stmts.first()?)?;
        let mut n = 1;
        while n < stmts.len() && ptr_of(&stmts[n]).as_deref() == Some(first.as_str()) {
            n += 1;
        }
        (n >= 2).then_some(n)
    }

    /// Emits a store run through the dedicated address register.
    fn emit_store_run(&mut self, ctx: &mut FnCtx, run: &[Stmt]) -> Result<(), CodegenError> {
        let Stmt::Store(Expr::Var(pname), _, _) = &run[0] else {
            unreachable!("store_run checked the shape");
        };
        let p = self
            .lookup(ctx, pname)
            .ok_or_else(|| CodegenError::UndefinedVar(pname.clone()))?;
        let addr_reg = match p {
            Place::RegVar(r) => r,
            _ => {
                self.asm.mov_rm(Width::W64, ADDR_REG, Self::place_mem(p));
                ADDR_REG
            }
        };
        for s in run {
            let Stmt::Store(_, Expr::Int(k), value) = s else {
                unreachable!("store_run checked the shape");
            };
            let dst = Mem::base_disp(addr_reg, 8 * *k);
            match self.leaf(ctx, value).expect("store_run checked leaf") {
                Leaf::Imm(v) => self.asm.mov_mi(Width::W64, dst, v as i64),
                Leaf::Reg(r) => self.asm.mov_mr(Width::W64, dst, r),
                Leaf::Mem(m) => {
                    self.asm.mov_rm(Width::W64, Reg::Rax, m);
                    self.asm.mov_mr(Width::W64, dst, Reg::Rax);
                }
            }
        }
        Ok(())
    }

    fn stmt(&mut self, ctx: &mut FnCtx, s: &Stmt) -> Result<(), CodegenError> {
        match s {
            Stmt::Decl(name, init) => {
                self.expr(ctx, init)?;
                let place = Self::alloc_place(ctx, name);
                ctx.vars
                    .last_mut()
                    .expect("scope stack non-empty")
                    .insert(name.clone(), place);
                match place {
                    Place::RegVar(r) => self.asm.mov_rr(Width::W64, r, Reg::Rax),
                    Place::Slot(off) => {
                        self.asm
                            .mov_mr(Width::W64, Mem::base_disp(Reg::Rsp, off), Reg::Rax)
                    }
                    Place::Global(_) => unreachable!("locals are never global"),
                }
            }
            Stmt::Assign(name, value) => {
                let p = self
                    .lookup(ctx, name)
                    .ok_or_else(|| CodegenError::UndefinedVar(name.clone()))?;
                self.expr(ctx, value)?;
                match p {
                    Place::RegVar(r) => self.asm.mov_rr(Width::W64, r, Reg::Rax),
                    _ => self.asm.mov_mr(Width::W64, Self::place_mem(p), Reg::Rax),
                }
            }
            Stmt::Store(base, idx, value) => {
                // Evaluate the value first (into a temp), then the
                // address, then store.
                if let Some(leaf) = self.leaf(ctx, value) {
                    let mem = self.index_operand(ctx, base, idx)?;
                    match leaf {
                        Leaf::Imm(v) => self.asm.mov_mi(Width::W64, mem, v as i64),
                        Leaf::Reg(r) => self.asm.mov_mr(Width::W64, mem, r),
                        Leaf::Mem(src) => {
                            // A memory-to-memory move needs a scratch; rdx
                            // is free here (never an operand register).
                            self.asm.mov_rm(Width::W64, Reg::Rdx, src);
                            self.asm.mov_mr(Width::W64, mem, Reg::Rdx);
                        }
                    }
                } else {
                    if ctx.depth >= MAX_TEMPS {
                        return Err(CodegenError::ExprTooDeep);
                    }
                    let slot = Self::temp_slot(ctx.depth);
                    self.expr(ctx, value)?;
                    self.asm.mov_mr(Width::W64, slot, Reg::Rax);
                    ctx.depth += 1;
                    let mem = self.index_operand(ctx, base, idx)?;
                    ctx.depth -= 1;
                    self.asm.mov_rm(Width::W64, Reg::Rdx, slot);
                    self.asm.mov_mr(Width::W64, mem, Reg::Rdx);
                }
            }
            Stmt::Expr(e) => self.expr(ctx, e)?,
            Stmt::If(cond, then, els) => {
                let else_l = self.asm.label();
                let end = self.asm.label();
                self.expr(ctx, cond)?;
                self.asm.test_rr(Width::W64, Reg::Rax, Reg::Rax);
                self.asm.jcc_label(Cond::E, else_l);
                self.stmts(ctx, then)?;
                self.asm.jmp_label(end);
                self.asm.bind(else_l)?;
                self.stmts(ctx, els)?;
                self.asm.bind(end)?;
            }
            Stmt::While(cond, body) => {
                let top = self.asm.label();
                let end = self.asm.label();
                self.asm.bind(top)?;
                self.expr(ctx, cond)?;
                self.asm.test_rr(Width::W64, Reg::Rax, Reg::Rax);
                self.asm.jcc_label(Cond::E, end);
                ctx.loops.push((top, end));
                self.stmts(ctx, body)?;
                ctx.loops.pop();
                self.asm.jmp_label(top);
                self.asm.bind(end)?;
            }
            Stmt::For(init, cond, step, body) => {
                ctx.vars.push(BTreeMap::new());
                ctx.scope_regs.push(Vec::new());
                self.stmt(ctx, init)?;
                let top = self.asm.label();
                let cont = self.asm.label();
                let end = self.asm.label();
                self.asm.bind(top)?;
                self.expr(ctx, cond)?;
                self.asm.test_rr(Width::W64, Reg::Rax, Reg::Rax);
                self.asm.jcc_label(Cond::E, end);
                ctx.loops.push((cont, end));
                self.stmts(ctx, body)?;
                ctx.loops.pop();
                self.asm.bind(cont)?;
                self.stmt(ctx, step)?;
                self.asm.jmp_label(top);
                self.asm.bind(end)?;
                ctx.vars.pop();
                for r in ctx.scope_regs.pop().expect("pushed above") {
                    ctx.free_regs.push(r);
                }
            }
            Stmt::Return(e) => {
                self.expr(ctx, e)?;
                self.asm.jmp_label(ctx.epilogue);
            }
            Stmt::Break => {
                let &(_, end) = ctx.loops.last().ok_or(CodegenError::NotInLoop)?;
                self.asm.jmp_label(end);
            }
            Stmt::Continue => {
                let &(cont, _) = ctx.loops.last().ok_or(CodegenError::NotInLoop)?;
                self.asm.jmp_label(cont);
            }
        }
        Ok(())
    }

    fn function(&mut self, f: &Function) -> Result<(), CodegenError> {
        // Pass 1 (dry run into a discarded assembler): discover how many
        // pool registers the body actually needs, so the real prologue
        // only saves those -- like a compiler emitting a minimal
        // callee-save sequence.
        let saved_asm =
            std::mem::replace(&mut self.asm, Asm::new(redfat_vm::layout::TRAMPOLINE_BASE));
        let max_regs = match self.gen_function_body(f, REG_POOL.len()) {
            Ok(m) => m,
            Err(e) => {
                self.asm = saved_asm;
                return Err(e);
            }
        };
        self.asm = saved_asm;

        // Pass 2: real emission with the minimal save set.
        let label = self.asm.named_label(&f.name);
        self.asm.bind(label)?;
        for &r in &REG_POOL[..max_regs] {
            self.asm.push_r(r);
        }
        let frame = Self::frame_size(f);
        self.asm.alu_ri(AluOp::Sub, Width::W64, Reg::Rsp, frame);
        let used = self.gen_function_body(f, max_regs)?;
        debug_assert!(used <= max_regs);
        self.asm.alu_ri(AluOp::Add, Width::W64, Reg::Rsp, frame);
        for &r in REG_POOL[..max_regs].iter().rev() {
            self.asm.pop_r(r);
        }
        self.asm.ret();
        Ok(())
    }

    /// Generates a function body (parameters, statements, epilogue
    /// label) with a pool of `pool_cap` registers; returns the register
    /// high-water mark. Allocation is deterministic, so a second pass
    /// with `pool_cap` = the first pass's result makes identical
    /// decisions.
    fn gen_function_body(&mut self, f: &Function, pool_cap: usize) -> Result<usize, CodegenError> {
        // r8/r9 double as the 5th/6th argument registers: exclude them
        // from the pool when this function makes calls that wide.
        let arity = self.max_call_arity(f);
        let pool_len = if arity >= 6 {
            pool_cap.min(REG_POOL.len() - 2)
        } else if arity >= 5 {
            pool_cap.min(REG_POOL.len() - 1)
        } else {
            pool_cap
        };
        let mut free_regs: Vec<Reg> = REG_POOL[..pool_len].to_vec();
        free_regs.reverse(); // hand out rbx first
        let epilogue = self.asm.label();
        let mut ctx = FnCtx {
            vars: vec![BTreeMap::new()],
            scope_regs: vec![Vec::new()],
            nlocals: 0,
            free_regs,
            pool_len,
            max_regs: 0,
            reg_names: Self::hot_names(f, pool_len),
            depth: 0,
            epilogue,
            loops: Vec::new(),
        };
        // Home the parameters (pool registers first, then slots).
        const ARG_REGS: [Reg; 6] = [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::Rcx, Reg::R8, Reg::R9];
        for (i, pname) in f.params.iter().enumerate() {
            let place = Self::alloc_place(&mut ctx, pname);
            ctx.vars[0].insert(pname.clone(), place);
            match place {
                Place::RegVar(r) => self.asm.mov_rr(Width::W64, r, ARG_REGS[i]),
                Place::Slot(off) => {
                    self.asm
                        .mov_mr(Width::W64, Mem::base_disp(Reg::Rsp, off), ARG_REGS[i])
                }
                Place::Global(_) => unreachable!("params are never global"),
            }
        }
        self.stmts(&mut ctx, &f.body)?;
        // Implicit `return 0` fall-through.
        self.asm.mov_ri(Width::W64, Reg::Rax, 0);
        self.asm.bind(epilogue)?;
        Ok(ctx.max_regs)
    }
}

fn alu_of(op: BinOp) -> AluOp {
    match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::And => AluOp::And,
        BinOp::Or => AluOp::Or,
        BinOp::Xor => AluOp::Xor,
        other => unreachable!("not a plain ALU op: {other:?}"),
    }
}

fn cond_of(op: BinOp) -> Cond {
    match op {
        BinOp::Lt => Cond::L,
        BinOp::Le => Cond::Le,
        BinOp::Gt => Cond::G,
        BinOp::Ge => Cond::Ge,
        BinOp::Eq => Cond::E,
        BinOp::Ne => Cond::Ne,
        other => unreachable!("not a comparison: {other:?}"),
    }
}

/// Code-generation options.
#[derive(Debug, Clone, Copy)]
pub struct CodegenOptions {
    /// Base address of the text segment.
    pub code_base: u64,
    /// Base address of the globals segment.
    pub globals_base: u64,
    /// Emit the startup stub (`call main; exit`). Libraries set this to
    /// `false`; their functions are reached through `callptr`.
    pub entry_stub: bool,
}

impl Default for CodegenOptions {
    fn default() -> CodegenOptions {
        CodegenOptions {
            code_base: layout::CODE_BASE,
            globals_base: layout::GLOBALS_BASE,
            entry_stub: true,
        }
    }
}

/// Generates an ELF image from a parsed program at the default layout.
pub fn generate(program: &Program) -> Result<Image, CodegenError> {
    generate_with(program, CodegenOptions::default())
}

/// Generates an ELF image with explicit bases (used for library images
/// that must not collide with the main program).
pub fn generate_with(program: &Program, opts: CodegenOptions) -> Result<Image, CodegenError> {
    // Assign global addresses.
    let mut globals = BTreeMap::new();
    let mut gaddr = opts.globals_base;
    for g in &program.globals {
        if globals.contains_key(&g.name) {
            return Err(CodegenError::Duplicate(g.name.clone()));
        }
        globals.insert(g.name.clone(), (gaddr, g.elems));
        gaddr += 8 * g.elems;
    }
    let globals_size = gaddr - opts.globals_base;

    let mut fn_arity = BTreeMap::new();
    for f in &program.functions {
        if fn_arity.insert(f.name.clone(), f.params.len()).is_some() {
            return Err(CodegenError::Duplicate(f.name.clone()));
        }
    }

    let mut g = Gen {
        asm: Asm::new(opts.code_base),
        globals,
        fn_arity,
    };

    if opts.entry_stub {
        // Startup stub: call main; exit(result).
        let main_l = g.asm.named_label("main");
        g.asm.call_label(main_l);
        g.asm.mov_rr(Width::W64, Reg::Rdi, Reg::Rax);
        g.asm.mov_ri(Width::W64, Reg::Rax, syscalls::EXIT as i64);
        g.asm.syscall();
    }

    for f in &program.functions {
        g.function(f)?;
    }

    // Collect function symbols (strippable; hardening never reads them).
    let symbols = program
        .functions
        .iter()
        .filter_map(|f| {
            let label = g.asm.named_label(&f.name);
            g.asm.label_addr(label).map(|addr| redfat_elf::Symbol {
                name: f.name.clone(),
                value: addr,
                size: 0,
            })
        })
        .collect();

    let prog = g.asm.finish()?;
    let mut segments = vec![Segment::new(prog.base, SegFlags::RX, prog.bytes)];
    if globals_size > 0 {
        segments.push(Segment {
            vaddr: opts.globals_base,
            flags: SegFlags::RW,
            data: vec![],
            mem_size: globals_size,
        });
    }
    Ok(Image {
        kind: ImageKind::Exec,
        entry: opts.code_base,
        segments,
        symbols,
    })
}
