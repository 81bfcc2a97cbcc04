//! The 16-bit CPU core of the coplay console.
//!
//! A deterministic fetch–decode–execute interpreter over a 64 KiB address
//! space. Devices (video, audio, joypads) are reached through the
//! [`Devices`] trait so the CPU itself stays a pure function of
//! (state, program, inputs) — the property the whole reproduction rests on.
//!
//! Every instruction is fetched and decoded from memory as it executes,
//! so self-modifying programs need no special handling: a store is
//! visible to the very next fetch.

// Frame-path code: a panic here stops a replica mid-session.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::hash::StateHasher;
use crate::isa::{Instruction, Reg, Syscall, INSTR_SIZE};

/// Size of the address space, in bytes.
pub const MEM_SIZE: usize = 0x1_0000;

/// Initial stack pointer (stack grows downward from the top of memory).
pub const STACK_TOP: u16 = 0xFFFE;

/// The CPU's window onto the rest of the board.
pub trait Devices {
    /// Reads an input port: 0 = players 1–2 buttons, 1 = players 3–4,
    /// 2 = frame counter low word, 3 = frame counter high word.
    fn input_port(&mut self, port: u8) -> u16;

    /// Executes a system call; `regs` exposes the full register file
    /// (arguments are in `r1`–`r5` by convention).
    fn syscall(&mut self, call: Syscall, regs: &[u16; 16]);
}

/// Why the CPU stopped executing before its cycle budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The frame's cycle budget was exhausted (forced frame end).
    BudgetExhausted,
    /// The program executed `yield`.
    Yielded,
    /// The program executed `halt`; the CPU stays halted until reset.
    Halted,
    /// The program faulted (illegal instruction); the CPU stays halted.
    Faulted,
}

/// The register file, program counter, flags, memory, and deterministic RNG.
#[derive(Clone)]
pub struct Cpu {
    regs: [u16; 16],
    pc: u16,
    sp: u16,
    flag_z: bool,
    flag_n: bool,
    flag_c: bool,
    lcg: u32,
    halted: bool,
    faulted: bool,
    mem: Box<[u8; MEM_SIZE]>,
    /// One bit per 256-byte page of `mem`, set by every store path.
    /// Consumed (and cleared) by [`Cpu::take_dirty`]; the snapshot layer
    /// uses it to capture and restore only pages that may differ from its
    /// reference copy.
    dirty: [u64; MEM_SIZE / 256 / 64],
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &format_args!("0x{:04x}", self.pc))
            .field("sp", &format_args!("0x{:04x}", self.sp))
            .field("regs", &self.regs)
            .field("halted", &self.halted)
            .field("faulted", &self.faulted)
            .finish_non_exhaustive()
    }
}

impl Cpu {
    /// Creates a CPU with zeroed memory, `pc = entry`, and RNG seeded with
    /// `seed`.
    #[expect(
        clippy::expect_used,
        reason = "a boxed slice of MEM_SIZE bytes converts to a MEM_SIZE array"
    )]
    pub fn new(entry: u16, seed: u32) -> Cpu {
        Cpu {
            regs: [0; 16],
            pc: entry,
            sp: STACK_TOP,
            flag_z: false,
            flag_n: false,
            flag_c: false,
            lcg: seed,
            halted: false,
            faulted: false,
            mem: vec![0u8; MEM_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("len"),
            // A fresh CPU has no reference snapshot to be clean against.
            dirty: [!0u64; MEM_SIZE / 256 / 64],
        }
    }

    /// Copies `image` into memory starting at address 0.
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds [`MEM_SIZE`].
    pub fn load_image(&mut self, image: &[u8]) {
        assert!(image.len() <= MEM_SIZE, "image exceeds address space");
        self.mem[..image.len()].copy_from_slice(image);
        self.dirty = [!0u64; MEM_SIZE / 256 / 64];
    }

    /// Reads register `r`.
    pub fn reg(&self, r: Reg) -> u16 {
        self.regs[r.0 as usize]
    }

    /// The program counter.
    pub fn pc(&self) -> u16 {
        self.pc
    }

    /// `true` once the CPU has executed `halt` or faulted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// `true` if the halt was caused by an illegal instruction.
    pub fn is_faulted(&self) -> bool {
        self.faulted
    }

    /// Reads a byte of memory.
    pub fn read_byte(&self, addr: u16) -> u8 {
        self.mem[addr as usize]
    }

    /// Writes a byte of memory.
    pub fn write_byte(&mut self, addr: u16, v: u8) {
        self.mem[addr as usize] = v;
        self.dirty[(addr >> 14) as usize] |= 1u64 << ((addr >> 8) & 63);
    }

    /// Reads a little-endian word; the high byte wraps around the address
    /// space.
    pub fn read_word(&self, addr: u16) -> u16 {
        let lo = self.mem[addr as usize] as u16;
        let hi = self.mem[addr.wrapping_add(1) as usize] as u16;
        lo | (hi << 8)
    }

    /// Writes a little-endian word with wrapping semantics.
    pub fn write_word(&mut self, addr: u16, v: u16) {
        self.mem[addr as usize] = v as u8;
        let hi = addr.wrapping_add(1);
        self.mem[hi as usize] = (v >> 8) as u8;
        self.dirty[(addr >> 14) as usize] |= 1u64 << ((addr >> 8) & 63);
        self.dirty[(hi >> 14) as usize] |= 1u64 << ((hi >> 8) & 63);
    }

    /// Runs until `yield`/`halt`/fault or `budget` instructions, whichever
    /// comes first. Returns the stop reason and cycles consumed.
    pub fn run_frame<D: Devices>(&mut self, budget: u32, dev: &mut D) -> (Stop, u32) {
        if self.halted {
            return (Stop::Halted, 0);
        }
        let mut cycles = 0;
        while cycles < budget {
            cycles += 1;
            match self.step(dev) {
                Stop::BudgetExhausted => continue, // means "keep running"
                stop => return (stop, cycles),
            }
        }
        (Stop::BudgetExhausted, cycles)
    }

    /// Executes one instruction. Returns [`Stop::BudgetExhausted`] as the
    /// "keep running" sentinel (the caller owns the budget).
    fn step<D: Devices>(&mut self, dev: &mut D) -> Stop {
        let bytes = [
            self.mem[self.pc as usize],
            self.mem[self.pc.wrapping_add(1) as usize],
            self.mem[self.pc.wrapping_add(2) as usize],
            self.mem[self.pc.wrapping_add(3) as usize],
        ];
        let Some(instr) = Instruction::decode(bytes) else {
            self.halted = true;
            self.faulted = true;
            return Stop::Faulted;
        };
        self.pc = self.pc.wrapping_add(INSTR_SIZE);

        use Instruction::*;
        match instr {
            Nop => {}
            Halt => {
                self.halted = true;
                return Stop::Halted;
            }
            Yield => return Stop::Yielded,
            Ldi(d, imm) => self.regs[d.0 as usize] = imm,
            Mov(d, s) => self.regs[d.0 as usize] = self.regs[s.0 as usize],
            Add(d, s) => {
                self.regs[d.0 as usize] =
                    self.regs[d.0 as usize].wrapping_add(self.regs[s.0 as usize])
            }
            Sub(d, s) => {
                self.regs[d.0 as usize] =
                    self.regs[d.0 as usize].wrapping_sub(self.regs[s.0 as usize])
            }
            Mul(d, s) => {
                self.regs[d.0 as usize] =
                    self.regs[d.0 as usize].wrapping_mul(self.regs[s.0 as usize])
            }
            Div(d, s) => {
                let den = self.regs[s.0 as usize];
                self.regs[d.0 as usize] =
                    self.regs[d.0 as usize].checked_div(den).unwrap_or(0xFFFF);
            }
            Modu(d, s) => {
                let den = self.regs[s.0 as usize];
                self.regs[d.0 as usize] = self.regs[d.0 as usize].checked_rem(den).unwrap_or(0);
            }
            And(d, s) => self.regs[d.0 as usize] &= self.regs[s.0 as usize],
            Or(d, s) => self.regs[d.0 as usize] |= self.regs[s.0 as usize],
            Xor(d, s) => self.regs[d.0 as usize] ^= self.regs[s.0 as usize],
            Shli(d, imm) => self.regs[d.0 as usize] <<= imm & 15,
            Shri(d, imm) => self.regs[d.0 as usize] >>= imm & 15,
            Addi(d, imm) => self.regs[d.0 as usize] = self.regs[d.0 as usize].wrapping_add(imm),
            Subi(d, imm) => self.regs[d.0 as usize] = self.regs[d.0 as usize].wrapping_sub(imm),
            Neg(d) => {
                self.regs[d.0 as usize] = (self.regs[d.0 as usize] as i16).wrapping_neg() as u16
            }
            Cmp(d, s) => self.set_flags(self.regs[d.0 as usize], self.regs[s.0 as usize]),
            Cmpi(d, imm) => self.set_flags(self.regs[d.0 as usize], imm),
            Jmp(a) => self.pc = a,
            Jz(a) => {
                if self.flag_z {
                    self.pc = a;
                }
            }
            Jnz(a) => {
                if !self.flag_z {
                    self.pc = a;
                }
            }
            Jlt(a) => {
                if self.flag_n {
                    self.pc = a;
                }
            }
            Jge(a) => {
                if !self.flag_n {
                    self.pc = a;
                }
            }
            Call(a) => {
                self.push(self.pc);
                self.pc = a;
            }
            Ret => self.pc = self.pop(),
            Ldw(d, s, off) => {
                let addr = self.regs[s.0 as usize].wrapping_add(off as u16);
                self.regs[d.0 as usize] = self.read_word(addr);
            }
            Stw(d, s, off) => {
                let addr = self.regs[d.0 as usize].wrapping_add(off as u16);
                self.write_word(addr, self.regs[s.0 as usize]);
            }
            Ldb(d, s, off) => {
                let addr = self.regs[s.0 as usize].wrapping_add(off as u16);
                self.regs[d.0 as usize] = self.read_byte(addr) as u16;
            }
            Stb(d, s, off) => {
                let addr = self.regs[d.0 as usize].wrapping_add(off as u16);
                self.write_byte(addr, self.regs[s.0 as usize] as u8);
            }
            Push(s) => self.push(self.regs[s.0 as usize]),
            Pop(d) => {
                let v = self.pop();
                self.regs[d.0 as usize] = v;
            }
            In(d, port) => self.regs[d.0 as usize] = dev.input_port(port),
            Rnd(d) => {
                self.lcg = self.lcg.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                self.regs[d.0 as usize] = (self.lcg >> 16) as u16;
            }
            Sys(call) => dev.syscall(call, &self.regs),
        }
        Stop::BudgetExhausted
    }

    fn set_flags(&mut self, a: u16, b: u16) {
        self.flag_z = a == b;
        self.flag_n = (a as i16) < (b as i16);
        self.flag_c = a < b;
    }

    fn push(&mut self, v: u16) {
        self.sp = self.sp.wrapping_sub(2);
        self.write_word(self.sp, v);
    }

    fn pop(&mut self) -> u16 {
        let v = self.read_word(self.sp);
        self.sp = self.sp.wrapping_add(2);
        v
    }

    /// Serializes the complete CPU state (registers, flags, RNG, memory).
    pub fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.serialize_small());
        out.extend_from_slice(&self.mem[..]);
    }

    /// Number of bytes [`Cpu::serialize`] writes.
    pub const SERIALIZED_LEN: usize = Self::SMALL_LEN + MEM_SIZE;

    /// Length of the non-memory head of the serialized format (registers,
    /// pc, sp, flags, RNG).
    pub(crate) const SMALL_LEN: usize = 32 + 2 + 2 + 1 + 4;

    /// Serializes just the non-memory head of the state — the first
    /// [`Cpu::SMALL_LEN`] bytes [`Cpu::serialize`] would write.
    pub(crate) fn serialize_small(&self) -> [u8; Self::SMALL_LEN] {
        let mut out = [0u8; Self::SMALL_LEN];
        let mut pos = 0;
        for r in self.regs {
            out[pos..pos + 2].copy_from_slice(&r.to_le_bytes());
            pos += 2;
        }
        out[pos..pos + 2].copy_from_slice(&self.pc.to_le_bytes());
        out[pos + 2..pos + 4].copy_from_slice(&self.sp.to_le_bytes());
        out[pos + 4] = (self.flag_z as u8)
            | (self.flag_n as u8) << 1
            | (self.flag_c as u8) << 2
            | (self.halted as u8) << 3
            | (self.faulted as u8) << 4;
        out[pos + 5..pos + 9].copy_from_slice(&self.lcg.to_le_bytes());
        out
    }

    /// The raw memory image, in serialized-format order (identical bytes
    /// to the memory region [`Cpu::serialize`] writes).
    pub(crate) fn mem_bytes(&self) -> &[u8] {
        &self.mem[..]
    }

    /// Takes (returns and clears) the accumulated per-page dirty bitmap
    /// for memory. Bit `p` of the flattened bitmap covers bytes
    /// `p * 256 .. (p + 1) * 256`.
    pub(crate) fn take_dirty(&mut self) -> [u64; MEM_SIZE / 256 / 64] {
        std::mem::replace(&mut self.dirty, [0u64; MEM_SIZE / 256 / 64])
    }

    /// Marks every dirty-bitmap page overlapping `[start, end)` of
    /// memory.
    fn mark_mem_range(&mut self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        for page in (start >> 8)..=((end - 1).min(MEM_SIZE - 1) >> 8) {
            self.dirty[page >> 6] |= 1u64 << (page & 63);
        }
    }

    /// Feeds exactly the byte stream [`Cpu::serialize`] would produce into
    /// `h`, without allocating — lets callers compose state digests that
    /// cover the CPU without materializing a snapshot.
    pub fn hash_state(&self, h: &mut StateHasher) {
        for r in self.regs {
            h.write_u16(r);
        }
        h.write_u16(self.pc);
        h.write_u16(self.sp);
        h.write(&[(self.flag_z as u8)
            | (self.flag_n as u8) << 1
            | (self.flag_c as u8) << 2
            | (self.halted as u8) << 3
            | (self.faulted as u8) << 4]);
        h.write(&self.lcg.to_le_bytes());
        h.write(&self.mem[..]);
    }

    /// Restores state written by [`Cpu::serialize`].
    ///
    /// Returns `None` if `bytes` is too short.
    pub fn deserialize(&mut self, bytes: &[u8]) -> Option<()> {
        if bytes.len() < Self::SERIALIZED_LEN {
            return None;
        }
        self.deserialize_small(bytes)?;
        self.restore_mem_full(&bytes[Self::SMALL_LEN..Self::SMALL_LEN + MEM_SIZE]);
        Some(())
    }

    /// Restores the full memory image from `src` (at least [`MEM_SIZE`]
    /// bytes, serialized-format order) and saturates the dirty bitmap:
    /// any reference snapshot a dirty-capture caller holds may now differ
    /// anywhere.
    pub(crate) fn restore_mem_full(&mut self, src: &[u8]) {
        self.mem.copy_from_slice(&src[..MEM_SIZE]);
        self.dirty = [!0u64; MEM_SIZE / 256 / 64];
    }

    /// Restores just the non-memory head of the state from the first
    /// [`Cpu::SMALL_LEN`] bytes of `bytes` (the format
    /// [`Cpu::serialize_small`] writes). Returns `None` if `bytes` is too
    /// short.
    #[expect(
        clippy::expect_used,
        reason = "the SMALL_LEN check on entry covers every fixed-size window"
    )]
    pub(crate) fn deserialize_small(&mut self, bytes: &[u8]) -> Option<()> {
        if bytes.len() < Self::SMALL_LEN {
            return None;
        }
        let mut pos = 0;
        for r in &mut self.regs {
            *r = u16::from_le_bytes(bytes[pos..pos + 2].try_into().expect("len 2"));
            pos += 2;
        }
        self.pc = u16::from_le_bytes(bytes[pos..pos + 2].try_into().expect("len 2"));
        pos += 2;
        self.sp = u16::from_le_bytes(bytes[pos..pos + 2].try_into().expect("len 2"));
        pos += 2;
        let f = bytes[pos];
        pos += 1;
        self.flag_z = f & 1 != 0;
        self.flag_n = f & 2 != 0;
        self.flag_c = f & 4 != 0;
        self.halted = f & 8 != 0;
        self.faulted = f & 16 != 0;
        self.lcg = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len 4"));
        Some(())
    }

    /// Restores memory bytes `[start, end)` from `src` (a full
    /// memory-image slice, serialized-format order) and re-marks the
    /// window dirty: the caller's reference snapshot may hold different
    /// bytes there even where the live machine and the restore target
    /// agree.
    pub(crate) fn restore_mem_range(&mut self, src: &[u8], start: usize, end: usize) {
        let end = end.min(src.len()).min(MEM_SIZE);
        if start >= end {
            return;
        }
        self.mem[start..end].copy_from_slice(&src[start..end]);
        self.mark_mem_range(start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instruction as I;

    /// Test devices: records syscalls, serves canned inputs.
    #[derive(Default)]
    struct TestDev {
        inputs: [u16; 4],
        calls: Vec<(Syscall, [u16; 16])>,
    }

    impl Devices for TestDev {
        fn input_port(&mut self, port: u8) -> u16 {
            self.inputs.get(port as usize).copied().unwrap_or(0)
        }
        fn syscall(&mut self, call: Syscall, regs: &[u16; 16]) {
            self.calls.push((call, *regs));
        }
    }

    fn assemble(instrs: &[I]) -> Vec<u8> {
        instrs.iter().flat_map(|i| i.encode()).collect()
    }

    fn run(instrs: &[I]) -> (Cpu, TestDev, Stop) {
        let mut cpu = Cpu::new(0, 42);
        cpu.load_image(&assemble(instrs));
        let mut dev = TestDev::default();
        let (stop, _) = cpu.run_frame(10_000, &mut dev);
        (cpu, dev, stop)
    }

    #[test]
    fn arithmetic_basics() {
        let (cpu, _, stop) = run(&[
            I::Ldi(Reg(0), 7),
            I::Ldi(Reg(1), 5),
            I::Add(Reg(0), Reg(1)), // 12
            I::Subi(Reg(0), 2),     // 10
            I::Mul(Reg(0), Reg(1)), // 50
            I::Halt,
        ]);
        assert_eq!(stop, Stop::Halted);
        assert_eq!(cpu.reg(Reg(0)), 50);
    }

    #[test]
    fn wrapping_arithmetic() {
        let (cpu, _, _) = run(&[I::Ldi(Reg(0), 0xFFFF), I::Addi(Reg(0), 2), I::Halt]);
        assert_eq!(cpu.reg(Reg(0)), 1);
    }

    #[test]
    fn division_by_zero_is_deterministic() {
        let (cpu, _, _) = run(&[
            I::Ldi(Reg(0), 100),
            I::Ldi(Reg(1), 0),
            I::Div(Reg(0), Reg(1)),
            I::Ldi(Reg(2), 100),
            I::Modu(Reg(2), Reg(1)),
            I::Halt,
        ]);
        assert_eq!(cpu.reg(Reg(0)), 0xFFFF);
        assert_eq!(cpu.reg(Reg(2)), 0);
    }

    #[test]
    fn logic_and_shifts() {
        let (cpu, _, _) = run(&[
            I::Ldi(Reg(0), 0b1100),
            I::Ldi(Reg(1), 0b1010),
            I::And(Reg(0), Reg(1)), // 0b1000
            I::Shli(Reg(0), 2),     // 0b100000
            I::Shri(Reg(0), 1),     // 0b10000
            I::Ldi(Reg(2), 0b1010),
            I::Or(Reg(2), Reg(1)),  // 0b1010
            I::Xor(Reg(2), Reg(1)), // 0
            I::Halt,
        ]);
        assert_eq!(cpu.reg(Reg(0)), 0b10000);
        assert_eq!(cpu.reg(Reg(2)), 0);
    }

    #[test]
    fn neg_is_twos_complement() {
        let (cpu, _, _) = run(&[I::Ldi(Reg(0), 5), I::Neg(Reg(0)), I::Halt]);
        assert_eq!(cpu.reg(Reg(0)) as i16, -5);
    }

    #[test]
    fn conditional_jumps_signed() {
        // r0 = -3 (0xFFFD), r1 = 2; JLT must take the signed view.
        let (cpu, _, _) = run(&[
            I::Ldi(Reg(0), 0xFFFD),
            I::Ldi(Reg(1), 2),
            I::Cmp(Reg(0), Reg(1)),
            I::Jlt(5 * 4),      // skip the next instruction
            I::Ldi(Reg(2), 99), // must be skipped
            I::Halt,
        ]);
        assert_eq!(cpu.reg(Reg(2)), 0);
    }

    #[test]
    fn jz_jnz() {
        let (cpu, _, _) = run(&[
            I::Ldi(Reg(0), 5),
            I::Cmpi(Reg(0), 5),
            I::Jz(4 * 4),
            I::Halt, // skipped
            I::Ldi(Reg(1), 1),
            I::Cmpi(Reg(0), 6),
            I::Jnz(8 * 4),
            I::Halt, // skipped
            I::Ldi(Reg(2), 2),
            I::Halt,
        ]);
        assert_eq!(cpu.reg(Reg(1)), 1);
        assert_eq!(cpu.reg(Reg(2)), 2);
    }

    #[test]
    fn call_ret_uses_stack() {
        let (cpu, _, _) = run(&[
            I::Call(3 * 4),
            I::Ldi(Reg(1), 7), // executed after ret
            I::Halt,
            I::Ldi(Reg(0), 42), // subroutine
            I::Ret,
        ]);
        assert_eq!(cpu.reg(Reg(0)), 42);
        assert_eq!(cpu.reg(Reg(1)), 7);
    }

    #[test]
    fn push_pop() {
        let (cpu, _, _) = run(&[
            I::Ldi(Reg(0), 11),
            I::Ldi(Reg(1), 22),
            I::Push(Reg(0)),
            I::Push(Reg(1)),
            I::Pop(Reg(2)),
            I::Pop(Reg(3)),
            I::Halt,
        ]);
        assert_eq!(cpu.reg(Reg(2)), 22);
        assert_eq!(cpu.reg(Reg(3)), 11);
    }

    #[test]
    fn memory_word_and_byte_access() {
        let (cpu, _, _) = run(&[
            I::Ldi(Reg(0), 0x8000),
            I::Ldi(Reg(1), 0xABCD),
            I::Stw(Reg(0), Reg(1), 0),
            I::Ldw(Reg(2), Reg(0), 0),
            I::Ldb(Reg(3), Reg(0), 0), // low byte
            I::Ldb(Reg(4), Reg(0), 1), // high byte
            I::Ldi(Reg(5), 0x42),
            I::Stb(Reg(0), Reg(5), 2),
            I::Ldb(Reg(6), Reg(0), 2),
            I::Halt,
        ]);
        assert_eq!(cpu.reg(Reg(2)), 0xABCD);
        assert_eq!(cpu.reg(Reg(3)), 0xCD);
        assert_eq!(cpu.reg(Reg(4)), 0xAB);
        assert_eq!(cpu.reg(Reg(6)), 0x42);
    }

    #[test]
    fn input_ports_via_devices() {
        let mut cpu = Cpu::new(0, 0);
        cpu.load_image(&assemble(&[I::In(Reg(0), 0), I::In(Reg(1), 1), I::Halt]));
        let mut dev = TestDev {
            inputs: [0x1234, 0x5678, 0, 0],
            calls: vec![],
        };
        cpu.run_frame(100, &mut dev);
        assert_eq!(cpu.reg(Reg(0)), 0x1234);
        assert_eq!(cpu.reg(Reg(1)), 0x5678);
    }

    #[test]
    fn syscall_reaches_devices_with_registers() {
        let (_, dev, _) = run(&[
            I::Ldi(Reg(1), 10),
            I::Ldi(Reg(2), 20),
            I::Sys(Syscall::Pix),
            I::Halt,
        ]);
        assert_eq!(dev.calls.len(), 1);
        let (call, regs) = &dev.calls[0];
        assert_eq!(*call, Syscall::Pix);
        assert_eq!(regs[1], 10);
        assert_eq!(regs[2], 20);
    }

    #[test]
    fn rnd_is_deterministic_per_seed() {
        let prog = assemble(&[I::Rnd(Reg(0)), I::Rnd(Reg(1)), I::Halt]);
        let mut a = Cpu::new(0, 7);
        a.load_image(&prog);
        let mut b = Cpu::new(0, 7);
        b.load_image(&prog);
        let mut c = Cpu::new(0, 8);
        c.load_image(&prog);
        let mut dev = TestDev::default();
        a.run_frame(100, &mut dev);
        b.run_frame(100, &mut dev);
        c.run_frame(100, &mut dev);
        assert_eq!(a.reg(Reg(0)), b.reg(Reg(0)));
        assert_eq!(a.reg(Reg(1)), b.reg(Reg(1)));
        assert_ne!(
            (a.reg(Reg(0)), a.reg(Reg(1))),
            (c.reg(Reg(0)), c.reg(Reg(1)))
        );
    }

    #[test]
    fn yield_stops_frame_but_not_machine() {
        let mut cpu = Cpu::new(0, 0);
        cpu.load_image(&assemble(&[I::Addi(Reg(0), 1), I::Yield, I::Jmp(0)]));
        let mut dev = TestDev::default();
        let (stop, _) = cpu.run_frame(100, &mut dev);
        assert_eq!(stop, Stop::Yielded);
        assert!(!cpu.is_halted());
        let (stop, _) = cpu.run_frame(100, &mut dev);
        assert_eq!(stop, Stop::Yielded);
        assert_eq!(cpu.reg(Reg(0)), 2);
    }

    #[test]
    fn budget_exhaustion_ends_frame() {
        let mut cpu = Cpu::new(0, 0);
        cpu.load_image(&assemble(&[I::Addi(Reg(0), 1), I::Jmp(0)]));
        let mut dev = TestDev::default();
        let (stop, cycles) = cpu.run_frame(50, &mut dev);
        assert_eq!(stop, Stop::BudgetExhausted);
        assert_eq!(cycles, 50);
    }

    #[test]
    fn illegal_instruction_faults_permanently() {
        let mut cpu = Cpu::new(0, 0);
        cpu.load_image(&[0xFF, 0, 0, 0]);
        let mut dev = TestDev::default();
        let (stop, _) = cpu.run_frame(100, &mut dev);
        assert_eq!(stop, Stop::Faulted);
        assert!(cpu.is_halted());
        assert!(cpu.is_faulted());
        let (stop, cycles) = cpu.run_frame(100, &mut dev);
        assert_eq!(stop, Stop::Halted);
        assert_eq!(cycles, 0);
    }

    #[test]
    fn serialize_roundtrip_preserves_execution() {
        let prog = assemble(&[I::Rnd(Reg(0)), I::Addi(Reg(1), 3), I::Yield, I::Jmp(0)]);
        let mut a = Cpu::new(0, 99);
        a.load_image(&prog);
        let mut dev = TestDev::default();
        for _ in 0..5 {
            a.run_frame(100, &mut dev);
        }
        let mut bytes = Vec::new();
        a.serialize(&mut bytes);
        assert_eq!(bytes.len(), Cpu::SERIALIZED_LEN);

        let mut b = Cpu::new(0, 0);
        b.deserialize(&bytes).unwrap();
        for _ in 0..5 {
            a.run_frame(100, &mut dev);
            b.run_frame(100, &mut dev);
        }
        assert_eq!(a.reg(Reg(0)), b.reg(Reg(0)));
        assert_eq!(a.reg(Reg(1)), b.reg(Reg(1)));
    }

    #[test]
    fn deserialize_rejects_short_input() {
        let mut cpu = Cpu::new(0, 0);
        assert!(cpu.deserialize(&[0; 10]).is_none());
    }

    #[test]
    fn self_modifying_store_is_seen_by_the_next_fetch() {
        // Stores r4 into the immediate low byte of the `ldi r1` at 0x10
        // (its imm bytes live at 0x12..0x14; little-endian low byte at
        // 0x12), so every pass loads the byte the pass just stored.
        let image = assemble(&[
            I::Addi(Reg(4), 1),        // 0x00
            I::Ldi(Reg(3), 0x12),      // 0x04
            I::Stb(Reg(3), Reg(4), 0), // 0x08
            I::Nop,                    // 0x0C
            I::Ldi(Reg(1), 0xAA00),    // 0x10 — patched each pass
            I::Yield,                  // 0x14
            I::Jmp(0),                 // 0x18
        ]);
        let mut cpu = Cpu::new(0, 0);
        cpu.load_image(&image);
        let mut dev = TestDev::default();
        for _ in 0..5 {
            cpu.run_frame(1_000, &mut dev);
        }
        assert_eq!(cpu.reg(Reg(1)), 0xAA05);
    }

    #[test]
    fn hash_state_matches_serialized_bytes() {
        let prog = assemble(&[I::Rnd(Reg(0)), I::Addi(Reg(1), 3), I::Yield, I::Jmp(0)]);
        let mut cpu = Cpu::new(0, 7);
        cpu.load_image(&prog);
        let mut dev = TestDev::default();
        cpu.run_frame(100, &mut dev);
        let mut bytes = Vec::new();
        cpu.serialize(&mut bytes);
        let mut h = StateHasher::new();
        cpu.hash_state(&mut h);
        assert_eq!(h.finish(), crate::hash::fnv1a(&bytes));
    }
}
