//! A gas-metered stack virtual machine with 256-bit words, contract storage,
//! event logs, and value transfer — the platform's execution engine,
//! structurally mirroring the EVM the paper's generation-2.0 systems run.

use dcs_crypto::{sha256, Address, Hash256};
use dcs_primitives::{Amount, GasSchedule, LogEntry};
use dcs_state::AccountDb;

/// Stack depth limit (as in the EVM).
const STACK_LIMIT: usize = 1024;
/// Memory growth limit per execution, bytes.
const MEMORY_LIMIT: usize = 1 << 20;

/// A 256-bit machine word, big-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Word(pub [u8; 32]);

impl Word {
    /// The zero word (also "false").
    pub const ZERO: Word = Word([0u8; 32]);

    /// Builds a word from a `u64` (right-aligned, big-endian).
    pub fn from_u64(v: u64) -> Self {
        let mut w = [0u8; 32];
        w[24..].copy_from_slice(&v.to_be_bytes());
        Word(w)
    }

    /// Builds a word from a `u128` (right-aligned).
    pub fn from_u128(v: u128) -> Self {
        let mut w = [0u8; 32];
        w[16..].copy_from_slice(&v.to_be_bytes());
        Word(w)
    }

    /// Low 64 bits (truncating).
    pub fn as_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[24..].try_into().expect("8 bytes"))
    }

    /// Low 128 bits (truncating).
    pub fn as_u128(&self) -> u128 {
        u128::from_be_bytes(self.0[16..].try_into().expect("16 bytes"))
    }

    /// Embeds an address (right-aligned).
    pub fn from_address(a: &Address) -> Self {
        let mut w = [0u8; 32];
        w[12..].copy_from_slice(a.as_bytes());
        Word(w)
    }

    /// Extracts the address from the low 20 bytes.
    pub fn as_address(&self) -> Address {
        let mut a = [0u8; 20];
        a.copy_from_slice(&self.0[12..]);
        Address::from_bytes(a)
    }

    /// Reinterprets the word as a digest (e.g. a storage slot key).
    pub fn as_hash(&self) -> Hash256 {
        Hash256::from_bytes(self.0)
    }

    /// Builds a word from a digest.
    pub fn from_hash(h: &Hash256) -> Self {
        Word(h.into_bytes())
    }

    /// A short string (≤ 32 bytes) left-aligned in a word, zero-padded.
    ///
    /// # Panics
    ///
    /// Panics if `s` exceeds 32 bytes.
    pub fn from_str_padded(s: &str) -> Self {
        assert!(s.len() <= 32, "string literal too long for a word: {s:?}");
        let mut w = [0u8; 32];
        w[..s.len()].copy_from_slice(s.as_bytes());
        Word(w)
    }

    /// Recovers a left-aligned string, trimming trailing zeros.
    pub fn to_trimmed_string(self) -> String {
        let end = self.0.iter().position(|&b| b == 0).unwrap_or(32);
        String::from_utf8_lossy(&self.0[..end]).into_owned()
    }

    /// True when every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }
}

/// VM opcodes. Immediate operands follow the opcode byte inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Op {
    Stop = 0x00,
    Add = 0x01,
    Sub = 0x02,
    Mul = 0x03,
    Div = 0x04,
    Mod = 0x05,
    Lt = 0x10,
    Gt = 0x11,
    Eq = 0x12,
    IsZero = 0x13,
    And = 0x14,
    Or = 0x15,
    Xor = 0x16,
    Not = 0x17,
    Sha256 = 0x20,
    Address = 0x30,
    Caller = 0x31,
    CallValue = 0x32,
    CallDataSize = 0x33,
    CallDataLoad = 0x34,
    Timestamp = 0x35,
    Height = 0x36,
    Balance = 0x37,
    Pop = 0x40,
    Push32 = 0x50,
    Push8 = 0x51,
    Push1 = 0x52,
    Dup = 0x53,
    Swap = 0x54,
    Jump = 0x5a,
    JumpI = 0x5b,
    JumpDest = 0x5c,
    MLoad = 0x70,
    MStore = 0x71,
    MStore8 = 0x72,
    MSize = 0x73,
    Sload = 0x80,
    Sstore = 0x81,
    Log0 = 0x90,
    Log1 = 0x91,
    Log2 = 0x92,
    Transfer = 0xa0,
    Return = 0xf0,
    Revert = 0xf1,
}

impl Op {
    /// Decodes an opcode byte.
    pub fn from_byte(b: u8) -> Option<Op> {
        use Op::*;
        Some(match b {
            0x00 => Stop,
            0x01 => Add,
            0x02 => Sub,
            0x03 => Mul,
            0x04 => Div,
            0x05 => Mod,
            0x10 => Lt,
            0x11 => Gt,
            0x12 => Eq,
            0x13 => IsZero,
            0x14 => And,
            0x15 => Or,
            0x16 => Xor,
            0x17 => Not,
            0x20 => Sha256,
            0x30 => Address,
            0x31 => Caller,
            0x32 => CallValue,
            0x33 => CallDataSize,
            0x34 => CallDataLoad,
            0x35 => Timestamp,
            0x36 => Height,
            0x37 => Balance,
            0x40 => Pop,
            0x50 => Push32,
            0x51 => Push8,
            0x52 => Push1,
            0x53 => Dup,
            0x54 => Swap,
            0x5a => Jump,
            0x5b => JumpI,
            0x5c => JumpDest,
            0x70 => MLoad,
            0x71 => MStore,
            0x72 => MStore8,
            0x73 => MSize,
            0x80 => Sload,
            0x81 => Sstore,
            0x90 => Log0,
            0x91 => Log1,
            0x92 => Log2,
            0xa0 => Transfer,
            0xf0 => Return,
            0xf1 => Revert,
            _ => return None,
        })
    }
}

/// VM execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Popped an empty stack.
    StackUnderflow,
    /// Exceeded the 1024-entry stack.
    StackOverflow,
    /// The gas meter ran dry.
    OutOfGas {
        /// Gas available.
        limit: Amount,
    },
    /// Jumped to a non-`JumpDest` position.
    BadJump(usize),
    /// Undecodable opcode byte.
    BadOpcode(u8),
    /// Immediate operand ran past the end of code.
    TruncatedCode,
    /// The contract executed `REVERT` with this payload.
    Reverted(Vec<u8>),
    /// Memory access beyond the per-execution limit.
    MemoryLimit(usize),
    /// `TRANSFER` with insufficient contract balance.
    InsufficientBalance,
}

impl core::fmt::Display for VmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmError::StackUnderflow => write!(f, "stack underflow"),
            VmError::StackOverflow => write!(f, "stack overflow"),
            VmError::OutOfGas { limit } => write!(f, "out of gas (limit {limit})"),
            VmError::BadJump(pc) => write!(f, "jump to invalid destination {pc}"),
            VmError::BadOpcode(b) => write!(f, "bad opcode 0x{b:02x}"),
            VmError::TruncatedCode => write!(f, "immediate operand past end of code"),
            VmError::Reverted(_) => write!(f, "execution reverted"),
            VmError::MemoryLimit(n) => write!(f, "memory access at {n} beyond limit"),
            VmError::InsufficientBalance => write!(f, "insufficient balance for transfer"),
        }
    }
}

impl std::error::Error for VmError {}

/// Everything an execution can see and touch.
#[derive(Debug)]
pub struct ExecEnv<'a> {
    /// The world state (storage, balances).
    pub db: &'a mut AccountDb,
    /// The executing contract's address.
    pub contract: Address,
    /// The transaction sender.
    pub caller: Address,
    /// Value sent with the call.
    pub callvalue: Amount,
    /// Call input data.
    pub input: &'a [u8],
    /// Block timestamp (µs).
    pub timestamp_us: u64,
    /// Block height.
    pub height: u64,
}

/// The result of a successful execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecOutput {
    /// Bytes returned by `RETURN` (empty for `STOP`).
    pub data: Vec<u8>,
    /// Events emitted by `LOG*`.
    pub logs: Vec<LogEntry>,
    /// Gas consumed.
    pub gas_used: Amount,
}

/// The virtual machine. One instance executes one call frame.
#[derive(Debug)]
pub struct Vm<'s> {
    schedule: &'s GasSchedule,
    gas_limit: Amount,
    gas_used: Amount,
}

impl<'s> Vm<'s> {
    /// Creates a VM with a gas budget.
    pub fn new(schedule: &'s GasSchedule, gas_limit: Amount) -> Self {
        Vm {
            schedule,
            gas_limit,
            gas_used: 0,
        }
    }

    fn charge(&mut self, amount: Amount) -> Result<(), VmError> {
        self.gas_used = self.gas_used.saturating_add(amount);
        if self.gas_used > self.gas_limit {
            return Err(VmError::OutOfGas {
                limit: self.gas_limit,
            });
        }
        Ok(())
    }

    /// Runs `code` in `env` to completion.
    ///
    /// # Errors
    ///
    /// Any [`VmError`]; the caller is responsible for rolling back state
    /// (see `exec::execute_tx`, which snapshots around every call). Gas
    /// consumed up to the failure is reported via [`Vm::gas_used`].
    pub fn run(&mut self, code: &[u8], env: &mut ExecEnv<'_>) -> Result<ExecOutput, VmError> {
        let jumpdests: Vec<bool> = Self::find_jumpdests(code);
        let mut stack: Vec<Word> = Vec::with_capacity(64);
        let mut memory: Vec<u8> = Vec::new();
        let mut logs: Vec<LogEntry> = Vec::new();
        let mut pc = 0usize;

        macro_rules! pop {
            () => {
                stack.pop().ok_or(VmError::StackUnderflow)?
            };
        }
        macro_rules! push {
            ($w:expr) => {{
                if stack.len() >= STACK_LIMIT {
                    return Err(VmError::StackOverflow);
                }
                stack.push($w);
            }};
        }

        fn mem_grow(memory: &mut Vec<u8>, end: usize) -> Result<(), VmError> {
            if end > MEMORY_LIMIT {
                return Err(VmError::MemoryLimit(end));
            }
            if memory.len() < end {
                memory.resize(end, 0);
            }
            Ok(())
        }

        loop {
            let byte = *code.get(pc).ok_or(VmError::TruncatedCode)?;
            let op = Op::from_byte(byte).ok_or(VmError::BadOpcode(byte))?;
            pc += 1;
            match op {
                Op::Stop => {
                    return Ok(ExecOutput {
                        data: Vec::new(),
                        logs,
                        gas_used: self.gas_used,
                    })
                }
                Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => {
                    self.charge(self.schedule.op_base)?;
                    let b = pop!().as_u128();
                    let a = pop!().as_u128();
                    let r = match op {
                        Op::Add => a.wrapping_add(b),
                        Op::Sub => a.wrapping_sub(b),
                        Op::Mul => a.wrapping_mul(b),
                        Op::Div => a.checked_div(b).unwrap_or(0),
                        Op::Mod => a.checked_rem(b).unwrap_or(0),
                        _ => unreachable!(),
                    };
                    push!(Word::from_u128(r));
                }
                Op::Lt | Op::Gt | Op::Eq => {
                    self.charge(self.schedule.op_base)?;
                    let b = pop!();
                    let a = pop!();
                    let r = match op {
                        Op::Lt => a.0 < b.0,
                        Op::Gt => a.0 > b.0,
                        Op::Eq => a == b,
                        _ => unreachable!(),
                    };
                    push!(Word::from_u64(u64::from(r)));
                }
                Op::IsZero => {
                    self.charge(self.schedule.op_base)?;
                    let a = pop!();
                    push!(Word::from_u64(u64::from(a.is_zero())));
                }
                Op::And | Op::Or | Op::Xor => {
                    self.charge(self.schedule.op_base)?;
                    let b = pop!();
                    let a = pop!();
                    let mut r = [0u8; 32];
                    for (r, (a, b)) in r.iter_mut().zip(a.0.iter().zip(&b.0)) {
                        *r = match op {
                            Op::And => a & b,
                            Op::Or => a | b,
                            Op::Xor => a ^ b,
                            _ => unreachable!(),
                        };
                    }
                    push!(Word(r));
                }
                Op::Not => {
                    self.charge(self.schedule.op_base)?;
                    let a = pop!();
                    let mut r = [0u8; 32];
                    for (r, a) in r.iter_mut().zip(&a.0) {
                        *r = !a;
                    }
                    push!(Word(r));
                }
                Op::Sha256 => {
                    self.charge(self.schedule.hash)?;
                    let len = pop!().as_u64() as usize;
                    let off = pop!().as_u64() as usize;
                    mem_grow(&mut memory, off + len)?;
                    push!(Word::from_hash(&sha256(&memory[off..off + len])));
                }
                Op::Address => {
                    self.charge(self.schedule.op_base)?;
                    push!(Word::from_address(&env.contract));
                }
                Op::Caller => {
                    self.charge(self.schedule.op_base)?;
                    push!(Word::from_address(&env.caller));
                }
                Op::CallValue => {
                    self.charge(self.schedule.op_base)?;
                    push!(Word::from_u64(env.callvalue));
                }
                Op::CallDataSize => {
                    self.charge(self.schedule.op_base)?;
                    push!(Word::from_u64(env.input.len() as u64));
                }
                Op::CallDataLoad => {
                    self.charge(self.schedule.op_base)?;
                    let off = pop!().as_u64() as usize;
                    let mut w = [0u8; 32];
                    for (i, w) in w.iter_mut().enumerate() {
                        *w = env.input.get(off + i).copied().unwrap_or(0);
                    }
                    push!(Word(w));
                }
                Op::Timestamp => {
                    self.charge(self.schedule.op_base)?;
                    push!(Word::from_u64(env.timestamp_us));
                }
                Op::Height => {
                    self.charge(self.schedule.op_base)?;
                    push!(Word::from_u64(env.height));
                }
                Op::Balance => {
                    self.charge(self.schedule.storage_read)?;
                    let addr = pop!().as_address();
                    push!(Word::from_u64(env.db.balance(&addr)));
                }
                Op::Pop => {
                    self.charge(self.schedule.op_base)?;
                    pop!();
                }
                Op::Push32 => {
                    self.charge(self.schedule.op_base)?;
                    let bytes = code.get(pc..pc + 32).ok_or(VmError::TruncatedCode)?;
                    pc += 32;
                    let mut w = [0u8; 32];
                    w.copy_from_slice(bytes);
                    push!(Word(w));
                }
                Op::Push8 => {
                    self.charge(self.schedule.op_base)?;
                    let bytes = code.get(pc..pc + 8).ok_or(VmError::TruncatedCode)?;
                    pc += 8;
                    push!(Word::from_u64(u64::from_be_bytes(
                        bytes.try_into().expect("8 bytes")
                    )));
                }
                Op::Push1 => {
                    self.charge(self.schedule.op_base)?;
                    let b = *code.get(pc).ok_or(VmError::TruncatedCode)?;
                    pc += 1;
                    push!(Word::from_u64(u64::from(b)));
                }
                Op::Dup => {
                    self.charge(self.schedule.op_base)?;
                    let n = *code.get(pc).ok_or(VmError::TruncatedCode)? as usize;
                    pc += 1;
                    if stack.len() < n + 1 {
                        return Err(VmError::StackUnderflow);
                    }
                    let w = stack[stack.len() - 1 - n];
                    push!(w);
                }
                Op::Swap => {
                    self.charge(self.schedule.op_base)?;
                    let n = *code.get(pc).ok_or(VmError::TruncatedCode)? as usize;
                    pc += 1;
                    let top = stack.len().checked_sub(1).ok_or(VmError::StackUnderflow)?;
                    let other = top.checked_sub(n + 1).map(|_| top - n - 1);
                    // swap top with element n+1 below it
                    let other = other.ok_or(VmError::StackUnderflow)?;
                    stack.swap(top, other);
                }
                Op::Jump => {
                    self.charge(self.schedule.op_base)?;
                    let dst = pop!().as_u64() as usize;
                    if !jumpdests.get(dst).copied().unwrap_or(false) {
                        return Err(VmError::BadJump(dst));
                    }
                    pc = dst;
                }
                Op::JumpI => {
                    self.charge(self.schedule.op_base)?;
                    let cond = pop!();
                    let dst = pop!().as_u64() as usize;
                    if !cond.is_zero() {
                        if !jumpdests.get(dst).copied().unwrap_or(false) {
                            return Err(VmError::BadJump(dst));
                        }
                        pc = dst;
                    }
                }
                Op::JumpDest => {
                    self.charge(self.schedule.op_base)?;
                }
                Op::MLoad => {
                    self.charge(self.schedule.op_base)?;
                    let off = pop!().as_u64() as usize;
                    mem_grow(&mut memory, off + 32)?;
                    let mut w = [0u8; 32];
                    w.copy_from_slice(&memory[off..off + 32]);
                    push!(Word(w));
                }
                Op::MStore => {
                    self.charge(self.schedule.op_base)?;
                    let w = pop!();
                    let off = pop!().as_u64() as usize;
                    mem_grow(&mut memory, off + 32)?;
                    memory[off..off + 32].copy_from_slice(&w.0);
                }
                Op::MStore8 => {
                    self.charge(self.schedule.op_base)?;
                    let w = pop!();
                    let off = pop!().as_u64() as usize;
                    mem_grow(&mut memory, off + 1)?;
                    memory[off] = w.0[31];
                }
                Op::MSize => {
                    self.charge(self.schedule.op_base)?;
                    push!(Word::from_u64(memory.len() as u64));
                }
                Op::Sload => {
                    self.charge(self.schedule.storage_read)?;
                    let slot = pop!().as_hash();
                    let value = env
                        .db
                        .storage(&env.contract, &slot)
                        .map(|bytes| {
                            let mut w = [0u8; 32];
                            let n = bytes.len().min(32);
                            w[..n].copy_from_slice(&bytes[..n]);
                            Word(w)
                        })
                        .unwrap_or(Word::ZERO);
                    push!(value);
                }
                Op::Sstore => {
                    self.charge(self.schedule.storage_write)?;
                    let value = pop!();
                    let slot = pop!().as_hash();
                    if value.is_zero() {
                        env.db.set_storage(&env.contract, &slot, None);
                    } else {
                        env.db
                            .set_storage(&env.contract, &slot, Some(value.0.to_vec()));
                    }
                }
                Op::Log0 | Op::Log1 | Op::Log2 => {
                    let n_topics = match op {
                        Op::Log0 => 0,
                        Op::Log1 => 1,
                        _ => 2,
                    };
                    let mut topics = Vec::with_capacity(n_topics);
                    for _ in 0..n_topics {
                        topics.push(pop!().as_hash());
                    }
                    let len = pop!().as_u64() as usize;
                    let off = pop!().as_u64() as usize;
                    mem_grow(&mut memory, off + len)?;
                    self.charge(self.schedule.log_base + self.schedule.log_byte * len as Amount)?;
                    logs.push(LogEntry {
                        contract: env.contract,
                        topics,
                        data: memory[off..off + len].to_vec(),
                    });
                }
                Op::Transfer => {
                    self.charge(self.schedule.transfer)?;
                    let amount = pop!().as_u64();
                    let to = pop!().as_address();
                    env.db
                        .transfer(&env.contract, &to, amount)
                        .map_err(|_| VmError::InsufficientBalance)?;
                }
                Op::Return => {
                    let len = pop!().as_u64() as usize;
                    let off = pop!().as_u64() as usize;
                    mem_grow(&mut memory, off + len)?;
                    return Ok(ExecOutput {
                        data: memory[off..off + len].to_vec(),
                        logs,
                        gas_used: self.gas_used,
                    });
                }
                Op::Revert => {
                    let len = pop!().as_u64() as usize;
                    let off = pop!().as_u64() as usize;
                    mem_grow(&mut memory, off + len)?;
                    return Err(VmError::Reverted(memory[off..off + len].to_vec()));
                }
            }
        }
    }

    /// Gas consumed so far (final after [`Vm::run`] returns).
    pub fn gas_used(&self) -> Amount {
        self.gas_used
    }

    /// Marks valid jump targets, skipping immediate operand bytes so data
    /// can't be jumped into.
    fn find_jumpdests(code: &[u8]) -> Vec<bool> {
        let mut dests = vec![false; code.len()];
        let mut pc = 0;
        while pc < code.len() {
            match Op::from_byte(code[pc]) {
                Some(Op::JumpDest) => {
                    dests[pc] = true;
                    pc += 1;
                }
                Some(Op::Push32) => pc += 33,
                Some(Op::Push8) => pc += 9,
                Some(Op::Push1) | Some(Op::Dup) | Some(Op::Swap) => pc += 2,
                _ => pc += 1,
            }
        }
        dests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(code: &[u8], input: &[u8]) -> Result<ExecOutput, VmError> {
        let schedule = GasSchedule::default();
        let mut db = AccountDb::new();
        let mut env = ExecEnv {
            db: &mut db,
            contract: Address::from_index(1),
            caller: Address::from_index(2),
            callvalue: 7,
            input,
            timestamp_us: 1_000,
            height: 5,
        };
        Vm::new(&schedule, 1_000_000).run(code, &mut env)
    }

    fn push1(v: u8) -> Vec<u8> {
        vec![Op::Push1 as u8, v]
    }

    #[test]
    fn arithmetic() {
        // 3 + 4 → mstore at 0 → return 32 bytes
        let mut code = Vec::new();
        code.extend(push1(3));
        code.extend(push1(4));
        code.push(Op::Add as u8);
        // stack: [7]; mstore(0, 7)
        code.extend(push1(0)); // offset under value: stack [7, 0] — MStore pops value then offset
        code.push(Op::Swap as u8);
        code.push(0); // swap top two → [0, 7]
        code.push(Op::MStore as u8);
        code.extend(push1(0)); // offset
        code.extend(push1(32)); // length
        code.push(Op::Return as u8);
        let out = run(&code, &[]).unwrap();
        assert_eq!(Word(out.data.try_into().unwrap()).as_u64(), 7);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut code = Vec::new();
        code.extend(push1(5));
        code.extend(push1(0));
        code.push(Op::Div as u8);
        code.push(Op::IsZero as u8);
        // Revert with empty payload if result non-... just stop; check via no error.
        code.push(Op::Pop as u8);
        code.push(Op::Stop as u8);
        run(&code, &[]).unwrap();
    }

    #[test]
    fn stack_underflow_detected() {
        let code = vec![Op::Add as u8];
        assert_eq!(run(&code, &[]).unwrap_err(), VmError::StackUnderflow);
    }

    #[test]
    fn bad_opcode_detected() {
        let code = vec![0xee];
        assert_eq!(run(&code, &[]).unwrap_err(), VmError::BadOpcode(0xee));
    }

    #[test]
    fn jump_into_immediate_rejected() {
        // PUSH8 <8 bytes that include a JUMPDEST byte> then jump into it.
        let mut code = Vec::new();
        code.push(Op::Push8 as u8);
        code.extend([Op::JumpDest as u8; 8]); // data bytes, not real dests
        code.push(Op::Pop as u8);
        code.extend(push1(1)); // destination 1 (inside the immediate)
        code.push(Op::Jump as u8);
        assert_eq!(run(&code, &[]).unwrap_err(), VmError::BadJump(1));
    }

    #[test]
    fn conditional_jump_takes_branch() {
        // if 1: skip revert, then stop.
        let mut code = Vec::new();
        // push dst placeholder: compute layout: [push1 dst][push1 1][jumpi][revert-ish][jumpdest][stop]
        // positions: 0:Push1 1:dst 2:Push1 3:1 4:JumpI 5:Push1 6:0 7:Push1 8:0 9:Revert 10:JumpDest 11:Stop
        code.extend(push1(10));
        code.extend(push1(1));
        code.push(Op::JumpI as u8);
        code.extend(push1(0));
        code.extend(push1(0));
        code.push(Op::Revert as u8);
        code.push(Op::JumpDest as u8);
        code.push(Op::Stop as u8);
        run(&code, &[]).unwrap();
    }

    #[test]
    fn revert_carries_payload() {
        let mut code = Vec::new();
        // mstore8(0, 0x42); revert(0, 1)
        code.extend(push1(0));
        code.extend(push1(0x42));
        code.push(Op::MStore8 as u8);
        code.extend(push1(0)); // offset
        code.extend(push1(1)); // length
        code.push(Op::Revert as u8);
        assert_eq!(run(&code, &[]).unwrap_err(), VmError::Reverted(vec![0x42]));
    }

    #[test]
    fn callvalue_lt_and_iszero() {
        // Returns [callvalue, callvalue < 10, iszero(callvalue < 10)] as
        // three words; `run` calls with a value of 7.
        let store_at = |code: &mut Vec<u8>, offset: u8| {
            code.extend(push1(offset));
            code.push(Op::Swap as u8);
            code.push(0);
            code.push(Op::MStore as u8);
        };
        let mut code = vec![Op::CallValue as u8];
        store_at(&mut code, 0);
        code.push(Op::CallValue as u8);
        code.extend(push1(10));
        code.push(Op::Lt as u8);
        store_at(&mut code, 32);
        code.push(Op::CallValue as u8);
        code.extend(push1(10));
        code.push(Op::Lt as u8);
        code.push(Op::IsZero as u8);
        store_at(&mut code, 64);
        code.extend(push1(0));
        code.extend(push1(96));
        code.push(Op::Return as u8);
        let out = run(&code, &[]).unwrap();
        let words: Vec<u64> = out
            .data
            .chunks(32)
            .map(|w| Word(w.try_into().unwrap()).as_u64())
            .collect();
        assert_eq!(words, vec![7, 1, 0]);
    }

    #[test]
    fn calldata_and_env_ops() {
        // return CALLER as a word
        let mut code = Vec::new();
        code.push(Op::Caller as u8);
        code.extend(push1(0));
        code.push(Op::Swap as u8);
        code.push(0);
        code.push(Op::MStore as u8);
        code.extend(push1(0)); // offset
        code.extend(push1(32)); // length
        code.push(Op::Return as u8);
        let out = run(&code, &[]).unwrap();
        let w = Word(out.data.try_into().unwrap());
        assert_eq!(w.as_address(), Address::from_index(2));
    }

    #[test]
    fn storage_round_trip_and_gas() {
        let schedule = GasSchedule::default();
        let mut db = AccountDb::new();
        let contract = Address::from_index(1);
        // sstore(slot 1, value 99); sload(slot 1); return it.
        let mut code = Vec::new();
        code.extend(push1(1));
        code.extend(push1(99));
        code.push(Op::Sstore as u8);
        code.extend(push1(1));
        code.push(Op::Sload as u8);
        code.extend(push1(0));
        code.push(Op::Swap as u8);
        code.push(0);
        code.push(Op::MStore as u8);
        code.extend(push1(0)); // offset
        code.extend(push1(32)); // length
        code.push(Op::Return as u8);
        let mut env = ExecEnv {
            db: &mut db,
            contract,
            caller: Address::from_index(2),
            callvalue: 0,
            input: &[],
            timestamp_us: 0,
            height: 0,
        };
        let mut vm = Vm::new(&schedule, 1_000_000);
        let out = vm.run(&code, &mut env).unwrap();
        assert_eq!(Word(out.data.try_into().unwrap()).as_u64(), 99);
        // Gas must include one storage write and one storage read.
        assert!(out.gas_used >= schedule.storage_write + schedule.storage_read);
        // Value persisted.
        let slot = Word::from_u64(1).as_hash();
        assert!(db.storage(&contract, &slot).is_some());
    }

    #[test]
    fn out_of_gas_stops_execution() {
        let schedule = GasSchedule::default();
        let mut db = AccountDb::new();
        // Infinite loop: jumpdest; push 0; jump.
        let code = vec![Op::JumpDest as u8, Op::Push1 as u8, 0, Op::Jump as u8];
        let mut env = ExecEnv {
            db: &mut db,
            contract: Address::from_index(1),
            caller: Address::from_index(1),
            callvalue: 0,
            input: &[],
            timestamp_us: 0,
            height: 0,
        };
        let err = Vm::new(&schedule, 500).run(&code, &mut env).unwrap_err();
        assert_eq!(err, VmError::OutOfGas { limit: 500 });
    }

    #[test]
    fn logs_emitted_with_topics() {
        let mut code = Vec::new();
        // log1(data=mem[0..1]=0x07, topic=42)
        code.extend(push1(0));
        code.extend(push1(7));
        code.push(Op::MStore8 as u8);
        code.extend(push1(0)); // off
        code.extend(push1(1)); // len
        code.extend(push1(42)); // topic
        code.push(Op::Log1 as u8);
        code.push(Op::Stop as u8);
        let out = run(&code, &[]).unwrap();
        assert_eq!(out.logs.len(), 1);
        assert_eq!(out.logs[0].data, vec![7]);
        assert_eq!(out.logs[0].topics, vec![Word::from_u64(42).as_hash()]);
    }

    #[test]
    fn transfer_moves_contract_balance() {
        let schedule = GasSchedule::default();
        let mut db = AccountDb::new();
        let contract = Address::from_index(1);
        let dest = Address::from_index(9);
        db.credit(&contract, 100);
        // transfer(dest, 30): push to, push amount order — Transfer pops amount then to.
        let mut code = Vec::new();
        code.push(Op::Push32 as u8);
        code.extend(Word::from_address(&dest).0);
        code.extend(push1(30));
        code.push(Op::Transfer as u8);
        code.push(Op::Stop as u8);
        let mut env = ExecEnv {
            db: &mut db,
            contract,
            caller: dest,
            callvalue: 0,
            input: &[],
            timestamp_us: 0,
            height: 0,
        };
        Vm::new(&schedule, 100_000).run(&code, &mut env).unwrap();
        assert_eq!(db.balance(&dest), 30);
        assert_eq!(db.balance(&contract), 70);
    }

    #[test]
    fn word_conversions() {
        let a = Address::from_index(5);
        assert_eq!(Word::from_address(&a).as_address(), a);
        assert_eq!(Word::from_u64(12345).as_u64(), 12345);
        assert_eq!(Word::from_u128(1 << 100).as_u128(), 1 << 100);
        assert_eq!(Word::from_str_padded("hello").to_trimmed_string(), "hello");
        assert!(Word::ZERO.is_zero());
        assert!(!Word::from_u64(1).is_zero());
    }
}
