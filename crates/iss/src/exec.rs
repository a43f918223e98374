//! Instruction execution semantics.

use crate::bus::{BusEvent, BusKind};
use crate::datapath::{
    add_with_flags, addx_with_flags, sub_with_flags, subx_with_flags, tag_overflow,
};
use crate::emulator::{Exit, Iss, StepEvent};
use crate::memory::MemError;
use sparc_isa::{decode, Icc, Instr, OpClass, Opcode, Operand2, Psr, Reg, Tbr, TrapType, Wim};

/// Cycles charged for trap entry (pipeline flush + vectoring).
const TRAP_CYCLES: u32 = 5;

/// Slots of the decode memo (a power of two).
const MEMO_SLOTS: usize = 256;

/// A direct-mapped memo of [`decode`], indexed by `(pc >> 2) & 255`.
///
/// A slot holds the last word that decoded successfully at a PC mapping to
/// it. A hit requires the fetched word to equal the stored word, so the
/// memo is a pure cache of `decode`: stores over code (self-modifying
/// programs, loaders) need no invalidation, and an illegal word is never
/// stored, so it traps on every fetch exactly as without the memo.
#[derive(Debug, Clone)]
pub(crate) struct DecodeMemo {
    /// `None` marks an empty slot; no word value is reserved as a sentinel.
    slots: Box<[Option<(u32, Instr)>; MEMO_SLOTS]>,
}

impl DecodeMemo {
    pub(crate) fn new() -> DecodeMemo {
        DecodeMemo {
            slots: Box::new([None; MEMO_SLOTS]),
        }
    }

    /// `decode(word)` for the word fetched at `pc`, or `None` when the word
    /// is not a legal instruction.
    fn decode(&mut self, pc: u32, word: u32) -> Option<Instr> {
        let slot = &mut self.slots[(pc >> 2) as usize & (MEMO_SLOTS - 1)];
        match *slot {
            Some((stored, instr)) if stored == word => Some(instr),
            _ => {
                let instr = decode(word).ok()?;
                *slot = Some((word, instr));
                Some(instr)
            }
        }
    }
}

/// How execution of one instruction ended.
enum Flow {
    /// Fall through to `npc`.
    Advance,
    /// `pc`/`npc` already updated (control transfer).
    Jumped,
    /// `ta 0` halt convention hit.
    Halt(u32),
}

type ExecResult = Result<Flow, TrapType>;

impl Iss {
    /// Execute one instruction (or annul one delay slot).
    ///
    /// Returns what happened; a stopped core returns
    /// [`StepEvent::Stopped`] without touching any state.
    pub fn step(&mut self) -> StepEvent {
        if self.exit.is_some() {
            return StepEvent::Stopped;
        }
        // Sample the interrupt lines between instructions (the SPARC
        // architectural interrupt point).
        if self.timer_enabled() {
            self.timer.advance_to(self.timing.cycles());
            if let Some(level) = self.timer.pending_level() {
                let psr = &self.state.psr;
                if psr.et && !self.state.annul && (level == 15 || level > psr.pil) {
                    return self.take_trap(TrapType::Interrupt(level));
                }
            }
        }
        if self.state.annul {
            self.state.annul = false;
            self.stats.annulled += 1;
            self.timing.tick(1);
            self.state.advance();
            return StepEvent::Annulled;
        }
        let pc = self.state.pc;
        let word = match self.fetch(pc) {
            Ok(word) => word,
            Err(trap) => return self.take_trap(trap),
        };
        let Some(instr) = self.memo.decode(pc, word) else {
            return self.take_trap(TrapType::IllegalInstruction);
        };
        self.stats.record(&instr);
        self.timing.execute(&instr);
        match self.exec(&instr) {
            Ok(Flow::Advance) => {
                self.state.advance();
                StepEvent::Executed
            }
            Ok(Flow::Jumped) => StepEvent::Executed,
            Ok(Flow::Halt(code)) => {
                self.exit = Some(Exit::Halted(code));
                StepEvent::Stopped
            }
            Err(trap) => self.take_trap(trap),
        }
    }

    fn fetch(&mut self, pc: u32) -> Result<u32, TrapType> {
        if !pc.is_multiple_of(4) || !self.mem.in_range(pc, 4) {
            return Err(TrapType::InstructionAccess);
        }
        self.timing.fetch(pc);
        self.mem
            .read_u32(pc)
            .map_err(|_| TrapType::InstructionAccess)
    }

    /// Enter a trap: stash `pc`/`npc` in the new window's `%l1`/`%l2`,
    /// disable traps and vector through the TBR. With traps already
    /// disabled the core enters error mode and stops (as Leon3 does).
    fn take_trap(&mut self, trap: TrapType) -> StepEvent {
        self.stats.traps += 1;
        self.timing.tick(TRAP_CYCLES);
        if !self.state.psr.et {
            self.exit = Some(Exit::ErrorMode(trap));
            return StepEvent::Stopped;
        }
        let psr = &mut self.state.psr;
        psr.et = false;
        psr.ps = psr.s;
        psr.s = true;
        psr.cwp = psr.cwp_after_save();
        let cwp = usize::from(psr.cwp);
        self.state.regs.write(cwp, Reg::l(1), self.state.pc);
        self.state.regs.write(cwp, Reg::l(2), self.state.npc);
        self.state.tbr.tt = trap.tt();
        let vector = self.state.tbr.vector();
        self.state.pc = vector;
        self.state.npc = vector.wrapping_add(4);
        self.state.annul = false;
        StepEvent::Trapped(trap)
    }

    /// Register read with the architectural fault overlay applied.
    fn rreg(&self, reg: Reg) -> u32 {
        let mut value = self.state.reg(reg);
        if !self.arch_faults.is_empty() && !reg.is_g0() {
            let slot =
                sparc_isa::WindowedRegs::physical_index(usize::from(self.state.psr.cwp), reg);
            for fault in &self.arch_faults {
                if fault.slot == slot {
                    value = fault.apply(value);
                }
            }
        }
        value
    }

    fn op2_value(&self, instr: &Instr) -> u32 {
        match instr.op2 {
            Operand2::Reg(rs2) => self.rreg(rs2),
            Operand2::Imm(imm) => imm as u32,
        }
    }

    fn ea(&self, instr: &Instr) -> u32 {
        self.rreg(instr.rs1).wrapping_add(self.op2_value(instr))
    }

    fn mem_trap(err: MemError) -> TrapType {
        match err {
            MemError::Misaligned { .. } => TrapType::MemAddressNotAligned,
            MemError::OutOfRange { .. } => TrapType::DataAccess,
        }
    }

    fn bus(&mut self, kind: BusKind, addr: u32, size: u8, data: u32) {
        let at = self.timing.cycles();
        self.trace.push(BusEvent {
            at,
            kind,
            addr,
            size,
            data,
        });
    }

    fn exec(&mut self, instr: &Instr) -> ExecResult {
        match instr.op.class() {
            OpClass::Arith | OpClass::Logic | OpClass::Shift | OpClass::Mul | OpClass::Div => {
                self.exec_alu(instr)
            }
            OpClass::Load | OpClass::Store | OpClass::Atomic => self.exec_mem(instr),
            OpClass::Sethi => {
                self.state.set_reg(instr.rd, instr.imm22 << 10);
                Ok(Flow::Advance)
            }
            OpClass::Branch => self.exec_branch(instr),
            OpClass::Jump => self.exec_jump(instr),
            OpClass::Window => self.exec_window(instr),
            OpClass::Special => self.exec_special(instr),
            OpClass::Trap => self.exec_ticc(instr),
            OpClass::Misc => match instr.op {
                Opcode::Flush => Ok(Flow::Advance),
                _ => Err(TrapType::IllegalInstruction),
            },
        }
    }

    fn exec_alu(&mut self, instr: &Instr) -> ExecResult {
        let a = self.rreg(instr.rs1);
        let b = self.op2_value(instr);
        let icc_in = self.state.psr.icc;
        let (result, icc) = match instr.op {
            Opcode::Add => (a.wrapping_add(b), None),
            Opcode::Addcc => {
                let (r, v, c) = add_with_flags(a, b);
                (r, Some(Icc::from_result(r, v, c)))
            }
            Opcode::Addx => (a.wrapping_add(b).wrapping_add(u32::from(icc_in.c)), None),
            Opcode::Addxcc => {
                let (r, v, c) = addx_with_flags(a, b, icc_in.c);
                (r, Some(Icc::from_result(r, v, c)))
            }
            Opcode::Sub => (a.wrapping_sub(b), None),
            Opcode::Subcc => {
                let (r, v, c) = sub_with_flags(a, b);
                (r, Some(Icc::from_result(r, v, c)))
            }
            Opcode::Subx => (a.wrapping_sub(b).wrapping_sub(u32::from(icc_in.c)), None),
            Opcode::Subxcc => {
                let (r, v, c) = subx_with_flags(a, b, icc_in.c);
                (r, Some(Icc::from_result(r, v, c)))
            }
            Opcode::Taddcc | Opcode::TaddccTv => {
                let (r, v, c) = add_with_flags(a, b);
                let v = v || tag_overflow(a, b);
                if instr.op == Opcode::TaddccTv && v {
                    return Err(TrapType::TagOverflow);
                }
                (r, Some(Icc::from_result(r, v, c)))
            }
            Opcode::Tsubcc | Opcode::TsubccTv => {
                let (r, v, c) = sub_with_flags(a, b);
                let v = v || tag_overflow(a, b);
                if instr.op == Opcode::TsubccTv && v {
                    return Err(TrapType::TagOverflow);
                }
                (r, Some(Icc::from_result(r, v, c)))
            }
            Opcode::And => (a & b, None),
            Opcode::Andcc => (a & b, Some(Icc::from_logic(a & b))),
            Opcode::Andn => (a & !b, None),
            Opcode::Andncc => (a & !b, Some(Icc::from_logic(a & !b))),
            Opcode::Or => (a | b, None),
            Opcode::Orcc => (a | b, Some(Icc::from_logic(a | b))),
            Opcode::Orn => (a | !b, None),
            Opcode::Orncc => (a | !b, Some(Icc::from_logic(a | !b))),
            Opcode::Xor => (a ^ b, None),
            Opcode::Xorcc => (a ^ b, Some(Icc::from_logic(a ^ b))),
            Opcode::Xnor => (!(a ^ b), None),
            Opcode::Xnorcc => (!(a ^ b), Some(Icc::from_logic(!(a ^ b)))),
            Opcode::Sll => (a << (b & 31), None),
            Opcode::Srl => (a >> (b & 31), None),
            Opcode::Sra => (((a as i32) >> (b & 31)) as u32, None),
            Opcode::Umul | Opcode::Umulcc => {
                let product = u64::from(a) * u64::from(b);
                self.state.y = (product >> 32) as u32;
                let r = product as u32;
                let icc = (instr.op == Opcode::Umulcc).then(|| Icc::from_logic(r));
                (r, icc)
            }
            Opcode::Smul | Opcode::Smulcc => {
                let product = i64::from(a as i32) * i64::from(b as i32);
                self.state.y = ((product as u64) >> 32) as u32;
                let r = product as u32;
                let icc = (instr.op == Opcode::Smulcc).then(|| Icc::from_logic(r));
                (r, icc)
            }
            Opcode::Udiv | Opcode::Udivcc => {
                if b == 0 {
                    return Err(TrapType::DivisionByZero);
                }
                let dividend = (u64::from(self.state.y) << 32) | u64::from(a);
                let quotient = dividend / u64::from(b);
                let (r, overflow) = if quotient > u64::from(u32::MAX) {
                    (u32::MAX, true)
                } else {
                    (quotient as u32, false)
                };
                let icc =
                    (instr.op == Opcode::Udivcc).then(|| Icc::from_result(r, overflow, false));
                (r, icc)
            }
            Opcode::Sdiv | Opcode::Sdivcc => {
                if b == 0 {
                    return Err(TrapType::DivisionByZero);
                }
                let dividend = (((u64::from(self.state.y) << 32) | u64::from(a)) as i64) as i128;
                let divisor = i128::from(b as i32);
                let quotient = dividend / divisor;
                let (r, overflow) = if quotient > i128::from(i32::MAX) {
                    (i32::MAX as u32, true)
                } else if quotient < i128::from(i32::MIN) {
                    (i32::MIN as u32, true)
                } else {
                    (quotient as u32, false)
                };
                let icc =
                    (instr.op == Opcode::Sdivcc).then(|| Icc::from_result(r, overflow, false));
                (r, icc)
            }
            Opcode::Mulscc => {
                let shifted = (u32::from(icc_in.n ^ icc_in.v) << 31) | (a >> 1);
                let addend = if self.state.y & 1 == 1 { b } else { 0 };
                let (r, v, c) = add_with_flags(shifted, addend);
                self.state.y = ((a & 1) << 31) | (self.state.y >> 1);
                (r, Some(Icc::from_result(r, v, c)))
            }
            other => unreachable!("non-ALU opcode {other:?} routed to exec_alu"),
        };
        self.state.set_reg(instr.rd, result);
        if let Some(icc) = icc {
            self.state.psr.icc = icc;
        }
        Ok(Flow::Advance)
    }

    fn exec_mem(&mut self, instr: &Instr) -> ExecResult {
        let addr = self.ea(instr);
        // The timer's register window is uncached, word-access-only MMIO.
        if self.timer_enabled() && crate::timer::Timer::owns(addr) {
            return self.exec_timer(instr, addr);
        }
        match instr.op {
            Opcode::Ld => {
                let value = self.mem.read_u32(addr).map_err(Self::mem_trap)?;
                self.timing.load(addr);
                self.bus(BusKind::Read, addr, 4, value);
                self.state.set_reg(instr.rd, value);
            }
            Opcode::Ldub | Opcode::Ldsb => {
                let value = self.mem.read_u8(addr).map_err(Self::mem_trap)?;
                self.timing.load(addr);
                let value = if instr.op == Opcode::Ldsb {
                    value as i8 as i32 as u32
                } else {
                    u32::from(value)
                };
                self.bus(BusKind::Read, addr, 1, value);
                self.state.set_reg(instr.rd, value);
            }
            Opcode::Lduh | Opcode::Ldsh => {
                let value = self.mem.read_u16(addr).map_err(Self::mem_trap)?;
                self.timing.load(addr);
                let value = if instr.op == Opcode::Ldsh {
                    value as i16 as i32 as u32
                } else {
                    u32::from(value)
                };
                self.bus(BusKind::Read, addr, 2, value);
                self.state.set_reg(instr.rd, value);
            }
            Opcode::Ldd => {
                if !addr.is_multiple_of(8) {
                    return Err(TrapType::MemAddressNotAligned);
                }
                let lo_reg = Reg::new((instr.rd.index() & !1) as u8);
                let hi_reg = Reg::new((instr.rd.index() | 1) as u8);
                let first = self.mem.read_u32(addr).map_err(Self::mem_trap)?;
                let second = self.mem.read_u32(addr + 4).map_err(Self::mem_trap)?;
                self.timing.load(addr);
                self.timing.load(addr + 4);
                self.bus(BusKind::Read, addr, 4, first);
                self.bus(BusKind::Read, addr + 4, 4, second);
                self.state.set_reg(lo_reg, first);
                self.state.set_reg(hi_reg, second);
            }
            Opcode::St => {
                let value = self.rreg(instr.rd);
                self.mem.write_u32(addr, value).map_err(Self::mem_trap)?;
                self.timing.store(addr);
                self.bus(BusKind::Write, addr, 4, value);
            }
            Opcode::Stb => {
                let value = self.rreg(instr.rd) as u8;
                self.mem.write_u8(addr, value).map_err(Self::mem_trap)?;
                self.timing.store(addr);
                self.bus(BusKind::Write, addr, 1, u32::from(value));
            }
            Opcode::Sth => {
                let value = self.rreg(instr.rd) as u16;
                self.mem.write_u16(addr, value).map_err(Self::mem_trap)?;
                self.timing.store(addr);
                self.bus(BusKind::Write, addr, 2, u32::from(value));
            }
            Opcode::Std => {
                if !addr.is_multiple_of(8) {
                    return Err(TrapType::MemAddressNotAligned);
                }
                let lo_reg = Reg::new((instr.rd.index() & !1) as u8);
                let hi_reg = Reg::new((instr.rd.index() | 1) as u8);
                let first = self.rreg(lo_reg);
                let second = self.rreg(hi_reg);
                self.mem.write_u32(addr, first).map_err(Self::mem_trap)?;
                self.mem
                    .write_u32(addr + 4, second)
                    .map_err(Self::mem_trap)?;
                self.timing.store(addr);
                self.timing.store(addr + 4);
                self.bus(BusKind::Write, addr, 4, first);
                self.bus(BusKind::Write, addr + 4, 4, second);
            }
            Opcode::Ldstub => {
                let value = self.mem.read_u8(addr).map_err(Self::mem_trap)?;
                self.mem.write_u8(addr, 0xff).map_err(Self::mem_trap)?;
                self.timing.load(addr);
                self.timing.store(addr);
                self.bus(BusKind::Read, addr, 1, u32::from(value));
                self.bus(BusKind::Write, addr, 1, 0xff);
                self.state.set_reg(instr.rd, u32::from(value));
            }
            Opcode::Swap => {
                let old = self.mem.read_u32(addr).map_err(Self::mem_trap)?;
                let new = self.rreg(instr.rd);
                self.mem.write_u32(addr, new).map_err(Self::mem_trap)?;
                self.timing.load(addr);
                self.timing.store(addr);
                self.bus(BusKind::Read, addr, 4, old);
                self.bus(BusKind::Write, addr, 4, new);
                self.state.set_reg(instr.rd, old);
            }
            other => unreachable!("non-memory opcode {other:?} routed to exec_mem"),
        }
        Ok(Flow::Advance)
    }

    /// Word-only MMIO access to the timer's register window.
    fn exec_timer(&mut self, instr: &Instr, addr: u32) -> ExecResult {
        if !addr.is_multiple_of(4) {
            return Err(TrapType::MemAddressNotAligned);
        }
        let offset = addr - crate::timer::TIMER_BASE;
        match instr.op {
            Opcode::Ld => {
                let value = self.timer.read(offset);
                self.bus(BusKind::Read, addr, 4, value);
                self.state.set_reg(instr.rd, value);
                Ok(Flow::Advance)
            }
            Opcode::St => {
                let value = self.rreg(instr.rd);
                self.timer.write(offset, value);
                self.bus(BusKind::Write, addr, 4, value);
                Ok(Flow::Advance)
            }
            // Sub-word and atomic accesses to MMIO are rejected, as the
            // AMBA bridge would.
            _ => Err(TrapType::DataAccess),
        }
    }

    fn exec_branch(&mut self, instr: &Instr) -> ExecResult {
        let cond = instr.op.branch_cond().expect("branch class");
        let taken = cond.eval(self.state.psr.icc);
        let target = self
            .state
            .pc
            .wrapping_add((instr.disp as u32).wrapping_mul(4));
        if taken {
            // `ba,a` annuls its delay slot even though it is taken.
            if instr.annul && cond == sparc_isa::Cond::Always {
                self.state.pc = target;
                self.state.npc = target.wrapping_add(4);
            } else {
                self.state.delayed_jump(target);
            }
        } else {
            if instr.annul {
                self.state.annul = true;
            }
            self.state.advance();
        }
        Ok(Flow::Jumped)
    }

    fn exec_jump(&mut self, instr: &Instr) -> ExecResult {
        match instr.op {
            Opcode::Call => {
                let target = self
                    .state
                    .pc
                    .wrapping_add((instr.disp as u32).wrapping_mul(4));
                self.state.set_reg(Reg::O7, self.state.pc);
                self.state.delayed_jump(target);
                Ok(Flow::Jumped)
            }
            Opcode::Jmpl => {
                let target = self.ea(instr);
                if !target.is_multiple_of(4) {
                    return Err(TrapType::MemAddressNotAligned);
                }
                self.state.set_reg(instr.rd, self.state.pc);
                self.state.delayed_jump(target);
                Ok(Flow::Jumped)
            }
            Opcode::Rett => {
                if self.state.psr.et {
                    return Err(TrapType::IllegalInstruction);
                }
                let target = self.ea(instr);
                if !target.is_multiple_of(4) {
                    return Err(TrapType::MemAddressNotAligned);
                }
                let new_cwp = self.state.psr.cwp_after_restore();
                if self.state.wim.is_invalid(new_cwp) {
                    return Err(TrapType::WindowUnderflow);
                }
                self.state.psr.cwp = new_cwp;
                self.state.psr.s = self.state.psr.ps;
                self.state.psr.et = true;
                self.state.delayed_jump(target);
                Ok(Flow::Jumped)
            }
            other => unreachable!("non-jump opcode {other:?} routed to exec_jump"),
        }
    }

    fn exec_window(&mut self, instr: &Instr) -> ExecResult {
        let new_cwp = match instr.op {
            Opcode::Save => self.state.psr.cwp_after_save(),
            _ => self.state.psr.cwp_after_restore(),
        };
        if self.state.wim.is_invalid(new_cwp) {
            return Err(match instr.op {
                Opcode::Save => TrapType::WindowOverflow,
                _ => TrapType::WindowUnderflow,
            });
        }
        // Operands are read in the old window, the result lands in the new.
        let result = self.rreg(instr.rs1).wrapping_add(self.op2_value(instr));
        self.state.psr.cwp = new_cwp;
        self.state.set_reg(instr.rd, result);
        Ok(Flow::Advance)
    }

    fn exec_special(&mut self, instr: &Instr) -> ExecResult {
        match instr.op {
            Opcode::RdY => self.state.set_reg(instr.rd, self.state.y),
            // ASRs are not implemented on the modelled core; they read 0.
            Opcode::RdAsr => self.state.set_reg(instr.rd, 0),
            Opcode::RdPsr => self.state.set_reg(instr.rd, self.state.psr.to_bits()),
            Opcode::RdWim => self.state.set_reg(instr.rd, self.state.wim.0),
            Opcode::RdTbr => self.state.set_reg(instr.rd, self.state.tbr.to_bits()),
            Opcode::WrY => self.state.y = self.rreg(instr.rs1) ^ self.op2_value(instr),
            Opcode::WrAsr => {}
            Opcode::WrPsr => {
                let value = self.rreg(instr.rs1) ^ self.op2_value(instr);
                self.state.psr = Psr::from_bits(value);
            }
            Opcode::WrWim => {
                let value = self.rreg(instr.rs1) ^ self.op2_value(instr);
                self.state.wim = Wim(value & ((1 << sparc_isa::NWINDOWS) - 1));
            }
            Opcode::WrTbr => {
                let value = self.rreg(instr.rs1) ^ self.op2_value(instr);
                self.state.tbr = Tbr {
                    tba: value & 0xffff_f000,
                    ..self.state.tbr
                };
            }
            other => unreachable!("non-special opcode {other:?} routed to exec_special"),
        }
        Ok(Flow::Advance)
    }

    fn exec_ticc(&mut self, instr: &Instr) -> ExecResult {
        if !instr.cond.eval(self.state.psr.icc) {
            return Ok(Flow::Advance);
        }
        let number = (self.rreg(instr.rs1).wrapping_add(self.op2_value(instr))) & 0x7f;
        if number == 0 {
            // Suite convention: `ta 0` halts with the exit code in %o0.
            return Ok(Flow::Halt(self.rreg(Reg::o(0))));
        }
        Err(TrapType::Software(number as u8))
    }
}

#[cfg(test)]
mod tests {
    use crate::emulator::{Iss, IssConfig, RunOutcome, StepEvent};
    use sparc_asm::assemble;
    use sparc_isa::{Reg, TrapType};

    fn run_and_get(src: &str, reg: Reg) -> u32 {
        let program = assemble(src).expect("assembles");
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        let outcome = iss.run(1_000_000);
        assert!(
            matches!(outcome, RunOutcome::Halted { .. }),
            "program did not halt: {outcome:?}"
        );
        iss.state().reg(reg)
    }

    fn exit_code(src: &str) -> u32 {
        let program = assemble(src).expect("assembles");
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        match iss.run(1_000_000) {
            RunOutcome::Halted { code } => code,
            other => panic!("program did not halt: {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_flags() {
        assert_eq!(
            exit_code("_start: mov 5, %o0\n add %o0, 7, %o0\n halt\n"),
            12
        );
        assert_eq!(
            exit_code(
                "_start: set 0xffffffff, %o0\n addcc %o0, 1, %o0\n addx %g0, %g0, %o0\n halt\n"
            ),
            1, // carry out captured by addx
        );
        assert_eq!(
            exit_code("_start: mov 3, %o0\n subcc %o0, 5, %g0\n bl is_less\n nop\n mov 0, %o0\n halt\nis_less: mov 1, %o0\n halt\n"),
            1,
        );
    }

    #[test]
    fn logic_and_shift() {
        assert_eq!(
            exit_code("_start: set 0xf0f0, %o0\n and %o0, 0xff, %o0\n halt\n"),
            0xf0
        );
        assert_eq!(
            exit_code("_start: mov 1, %o0\n sll %o0, 12, %o0\n halt\n"),
            1 << 12
        );
        assert_eq!(
            exit_code("_start: set 0x80000000, %o0\n sra %o0, 31, %o0\n halt\n"),
            0xffff_ffff,
        );
        assert_eq!(
            exit_code("_start: set 0x80000000, %o0\n srl %o0, 31, %o0\n halt\n"),
            1,
        );
        assert_eq!(
            exit_code("_start: mov 0, %o0\n xnor %o0, %g0, %o0\n halt\n"),
            0xffff_ffff
        );
    }

    #[test]
    fn multiply_and_divide() {
        assert_eq!(
            exit_code("_start: set 100000, %o0\n set 70000, %o1\n umul %o0, %o1, %o0\n halt\n"),
            ((100_000u64 * 70_000) & 0xffff_ffff) as u32,
        );
        // Y gets the high half.
        assert_eq!(
            run_and_get(
                "_start: set 100000, %o0\n set 70000, %o1\n umul %o0, %o1, %o0\n rd %y, %o2\n halt\n",
                Reg::o(2),
            ),
            ((100_000u64 * 70_000) >> 32) as u32,
        );
        assert_eq!(
            exit_code("_start: wr %g0, 0, %y\n set 1000, %o0\n udiv %o0, 7, %o0\n halt\n"),
            142,
        );
        assert_eq!(
            exit_code(
                "_start: wr %g0, 0, %y\n set 1000, %o0\n neg %o0\n mov -1, %o1\n wr %o1, 0, %y\n sdiv %o0, 7, %o0\n halt\n"
            ),
            (-142i32) as u32,
        );
        // smul of negatives.
        assert_eq!(
            exit_code("_start: mov -3, %o0\n mov -4, %o1\n smul %o0, %o1, %o0\n halt\n"),
            12,
        );
    }

    #[test]
    fn division_by_zero_traps() {
        let program =
            assemble("_start: wr %g0, 0, %y\n mov 1, %o0\n udiv %o0, %g0, %o0\n halt\n").unwrap();
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        // No handler installed: vectoring through tbr=0 leaves RAM, so the
        // core ends in error mode.
        assert!(matches!(iss.run(100), RunOutcome::ErrorMode { .. }));
    }

    #[test]
    fn memory_widths_and_signs() {
        let src = r#"
            .org 0x40000000
        _start:
            set data, %o1
            ldsb [%o1], %o0
            halt
        data:
            .byte 0xfe
        "#;
        assert_eq!(exit_code(src), 0xffff_fffe);
        let src2 = r#"
        _start:
            set data, %o1
            ldsh [%o1], %o0
            halt
            .align 2
        data:
            .half 0x8001
        "#;
        assert_eq!(exit_code(src2), 0xffff_8001);
        let src3 = r#"
        _start:
            set buf, %o1
            set 0x11223344, %o0
            st %o0, [%o1]
            ldub [%o1 + 2], %o0
            halt
            .align 4
        buf:
            .space 4
        "#;
        assert_eq!(exit_code(src3), 0x33); // big-endian byte order
    }

    #[test]
    fn double_word_memory_ops() {
        let src = r#"
        _start:
            set src_data, %o2
            ldd [%o2], %o0      ! %o0 = first word, %o1 = second
            set dst, %o3
            std %o0, [%o3]
            ld [%o3 + 4], %o0
            halt
            .align 8
        src_data:
            .word 0x11111111, 0x22222222
            .align 8
        dst:
            .space 8
        "#;
        assert_eq!(exit_code(src), 0x2222_2222);
    }

    #[test]
    fn atomics() {
        let src = r#"
        _start:
            set lock, %o1
            ldstub [%o1], %o0   ! old value 0, lock becomes 0xff
            ldub [%o1], %o2
            add %o0, %o2, %o0   ! 0 + 0xff
            halt
            .align 4
        lock:
            .byte 0
        "#;
        assert_eq!(exit_code(src), 0xff);
        let swap = r#"
        _start:
            set cell, %o1
            mov 5, %o0
            swap [%o1], %o0
            halt
            .align 4
        cell:
            .word 9
        "#;
        assert_eq!(exit_code(swap), 9);
    }

    #[test]
    fn call_and_return() {
        let src = r#"
        _start:
            call double
             mov 21, %o0
            halt
        double:
            retl
             add %o0, %o0, %o0
        "#;
        assert_eq!(exit_code(src), 42);
    }

    #[test]
    fn save_restore_windows() {
        let src = r#"
        _start:
            mov 11, %o0
            call func
             nop
            halt
        func:
            save %sp, -96, %sp
            add %i0, 1, %i0     ! callee sees caller %o0 as %i0
            restore             ! shifts back; %i0 visible as %o0 again
            retl
             nop
        "#;
        assert_eq!(exit_code(src), 12);
    }

    #[test]
    fn annulled_branches() {
        // bne,a with untaken branch annuls the delay slot.
        let src = r#"
        _start:
            mov 1, %o0
            cmp %o0, 1
            bne,a skip
             mov 99, %o0        ! must be annulled (branch not taken)
            halt
        skip:
            halt
        "#;
        assert_eq!(exit_code(src), 1);
        // Taken bne,a executes the delay slot.
        let src2 = r#"
        _start:
            mov 1, %o0
            cmp %o0, 2
            bne,a out
             mov 7, %o0         ! executed (branch taken)
            mov 99, %o0
        out:
            halt
        "#;
        assert_eq!(exit_code(src2), 7);
        // ba,a annuls even though taken.
        let src3 = r#"
        _start:
            mov 1, %o0
            ba,a out
             mov 99, %o0        ! annulled
            mov 98, %o0
        out:
            halt
        "#;
        assert_eq!(exit_code(src3), 1);
    }

    #[test]
    fn mulscc_sequence_multiplies() {
        // Classic 32-step multiply of 13 * 11 via mulscc.
        let src = r#"
        _start:
            mov 13, %o0          ! multiplier -> Y
            wr %o0, 0, %y
            mov 11, %o1          ! multiplicand
            mov 0, %o2           ! partial product accumulator
            andcc %g0, %g0, %g0  ! clear N and V
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %o1, %o2
            mulscc %o2, %g0, %o2 ! final shift step
            rd %y, %o0
            halt
        "#;
        // After 32 mulscc steps + final fixup, Y holds the low 32 bits of
        // the product for positive operands.
        assert_eq!(exit_code(src), 143);
    }

    #[test]
    fn wrpsr_sets_condition_codes() {
        let src = r#"
        _start:
            rd %psr, %o1
            set 0x00400000, %o2   ! Z bit
            or %o1, %o2, %o1
            wr %o1, 0, %psr
            be was_zero
             nop
            mov 0, %o0
            halt
        was_zero:
            mov 1, %o0
            halt
        "#;
        assert_eq!(exit_code(src), 1);
    }

    #[test]
    fn bus_trace_records_stores_in_order() {
        let program = assemble(
            r#"
            _start:
                set 0x40001000, %o1
                mov 1, %o0
                st %o0, [%o1]
                mov 2, %o0
                sth %o0, [%o1 + 4]
                mov 3, %o0
                stb %o0, [%o1 + 6]
                halt
            "#,
        )
        .unwrap();
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        assert!(matches!(iss.run(100), RunOutcome::Halted { .. }));
        let writes: Vec<_> = iss.bus_trace().writes().collect();
        assert_eq!(writes.len(), 3);
        assert_eq!(
            (writes[0].addr, writes[0].size, writes[0].data),
            (0x4000_1000, 4, 1)
        );
        assert_eq!(
            (writes[1].addr, writes[1].size, writes[1].data),
            (0x4000_1004, 2, 2)
        );
        assert_eq!(
            (writes[2].addr, writes[2].size, writes[2].data),
            (0x4000_1006, 1, 3)
        );
    }

    #[test]
    fn self_modifying_code_executes_the_new_word() {
        // The loop body's first instruction is overwritten with `patch`
        // after it has executed once; the second pass must execute the
        // stored word, not the decode of the old one at the same PC.
        let src = r#"
        _start:
            set target, %o1
            set patch, %o2
            ld [%o2], %o2
            mov 0, %o0
            mov 0, %o3
        target:
            add %o0, 1, %o0
            st %o2, [%o1]
            add %o3, 1, %o3
            cmp %o3, 2
            bne target
            nop
            halt
        patch:
            add %o0, 100, %o0
        "#;
        assert_eq!(exit_code(src), 101);
        // Patching in a word that does not decode (an FPop) must trap at
        // the start of the second pass, after the 7 set-up and 6 loop-body
        // instructions of the first.
        assert!(sparc_isa::decode(0x81a0_0000).is_err());
        let program = assemble(&src.replace("add %o0, 100, %o0", ".word 0x81a00000")).unwrap();
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        let trap = (0..1_000).find_map(|_| match iss.step() {
            StepEvent::Trapped(trap) => Some(trap),
            _ => None,
        });
        assert_eq!(trap, Some(TrapType::IllegalInstruction));
        assert_eq!(iss.stats().instructions, 13);
    }

    #[test]
    fn stats_count_diversity() {
        let program = assemble(
            "_start: mov 1, %o0\n add %o0, 1, %o0\n sub %o0, 1, %o0\n and %o0, 1, %o0\n halt\n",
        )
        .unwrap();
        let mut iss = Iss::new(IssConfig::default());
        iss.load(&program);
        iss.run(100);
        // mov expands to or; halt is ticc. Opcodes: Sethi? no — mov 1,%o0 is
        // `or`. So: Or, Add, Sub, And, Ticc = 5.
        assert_eq!(iss.stats().diversity(), 5);
        assert_eq!(iss.stats().instructions, 5);
    }
}
