package vm

// Pre-decoded dispatch. Program text is immutable once a Machine is loaded,
// so NewMachine flattens it into a []dInstr in which everything the
// interpreter would otherwise recompute per step is resolved once:
//
//   - op variants collapse into a dense class enum (byte/word loads share a
//     class distinguished by a width flag; CALL is JMP plus a link flag; RET
//     is JR with Rs1 pre-resolved to RA), so the Run loop switches over
//     contiguous small integers, which the compiler lowers to a jump table;
//   - the base cycle cost of every instruction (Default/Mul/Div/Syscall plus
//     the speculative check surcharges) is precomputed into the entry;
//   - the SP-discipline check predicate (Rd == SP on a non-store) becomes a
//     flag bit instead of three comparisons per step;
//   - a countdown loop `L: beq r, r0, out; addi r, r, -1; jmp L` marks its
//     beq as dSPIN, which Run executes as whole iterations in O(1) host time
//     (see fuseSpins).
//
// The original []Instr stays on the Machine for diagnostics (fault messages
// name the source opcode, not the decoded class).

// dClass is a dense pre-decoded instruction class.
type dClass uint8

const (
	dNOP dClass = iota
	dADD
	dSUB
	dMUL
	dDIV
	dMOD
	dAND
	dOR
	dXOR
	dSHL
	dSHR
	dSLT
	dADDI
	dANDI
	dORI
	dXORI
	dSHLI
	dSHRI
	dSLTI
	dMOVI
	dLD  // plain load; width via dfWord
	dLDS // COW-checked load
	dST  // plain store
	dSTS // COW-checked store
	dBEQ
	dBNE
	dBLT
	dBGE
	dJMP // direct jump; dfLink covers CALL
	dJR  // register-indirect jump; dfLink covers CALLR, RET pre-resolves Rs1=RA
	dJRH // handler-mediated indirect; dfLink covers CALLRH, RETH pre-resolves Rs1=RA
	dJTR
	dSYSCALL
	dILLEGAL
	dSPIN // beq heading a fused countdown loop (see fuseSpins); Run handles it in its default arm
)

// dInstr flag bits.
const (
	dfLink    byte = 1 << iota // write RA before transferring control
	dfWord                     // 8-byte memory access (unset: 1 byte)
	dfCheckSP                  // run the SP-discipline check after this instruction
)

// dInstr is one pre-decoded instruction: 24 bytes, everything the hot loop
// needs in one cache-line-friendly slot.
type dInstr struct {
	class        dClass
	rd, rs1, rs2 uint8
	flags        byte
	imm          int64
	cost         int64
}

// decodeProgram flattens text under the given cost model. Opcodes that
// Program.Validate would reject decode to dILLEGAL and fault at execution,
// matching the switch interpreter's default case.
func decodeProgram(text []Instr, cost CostModel) []dInstr {
	dec := make([]dInstr, len(text))
	for i, ins := range text {
		d := &dec[i]
		d.rd, d.rs1, d.rs2, d.imm = ins.Rd, ins.Rs1, ins.Rs2, ins.Imm
		d.cost = cost.Default
		switch ins.Op {
		case NOP:
			d.class = dNOP
		case ADD:
			d.class = dADD
		case SUB:
			d.class = dSUB
		case MUL:
			d.class = dMUL
			d.cost = cost.Mul
		case DIV:
			d.class = dDIV
			d.cost = cost.Div
		case MOD:
			d.class = dMOD
			d.cost = cost.Div
		case AND:
			d.class = dAND
		case OR:
			d.class = dOR
		case XOR:
			d.class = dXOR
		case SHL:
			d.class = dSHL
		case SHR:
			d.class = dSHR
		case SLT:
			d.class = dSLT
		case ADDI:
			d.class = dADDI
		case ANDI:
			d.class = dANDI
		case ORI:
			d.class = dORI
		case XORI:
			d.class = dXORI
		case SHLI:
			d.class = dSHLI
		case SHRI:
			d.class = dSHRI
		case SLTI:
			d.class = dSLTI
		case MOVI:
			d.class = dMOVI
		case LDB:
			d.class = dLD
		case LDW:
			d.class = dLD
			d.flags |= dfWord
		case LDBS:
			d.class = dLDS
			d.cost += cost.LoadCheck
		case LDWS:
			d.class = dLDS
			d.flags |= dfWord
			d.cost += cost.LoadCheck
		case STB:
			d.class = dST
		case STW:
			d.class = dST
			d.flags |= dfWord
		case STBS:
			d.class = dSTS
			d.cost += cost.StoreCheck
		case STWS:
			d.class = dSTS
			d.flags |= dfWord
			d.cost += cost.StoreCheck
		case BEQ:
			d.class = dBEQ
		case BNE:
			d.class = dBNE
		case BLT:
			d.class = dBLT
		case BGE:
			d.class = dBGE
		case JMP:
			d.class = dJMP
		case CALL:
			d.class = dJMP
			d.flags |= dfLink
		case JR:
			d.class = dJR
		case CALLR:
			d.class = dJR
			d.flags |= dfLink
		case RET:
			d.class = dJR
			d.rs1 = RA
		case JRH:
			d.class = dJRH
			d.cost += cost.Handler
		case CALLRH:
			d.class = dJRH
			d.flags |= dfLink
			d.cost += cost.Handler
		case RETH:
			d.class = dJRH
			d.rs1 = RA
			d.cost += cost.Handler
		case JTR:
			d.class = dJTR
			d.cost += cost.JumpTable
		case SYSCALL:
			d.class = dSYSCALL
			d.cost = cost.Syscall
		default:
			d.class = dILLEGAL
		}
		if ins.Rd == SP && ins.Op != NOP && !ins.Op.IsStore() {
			d.flags |= dfCheckSP
		}
	}
	fuseSpins(dec)
	return dec
}

// fuseSpins reclassifies the beq of every countdown loop
//
//	L: beq  r, r0, out
//	   addi r, r, -1
//	   jmp  L
//
// as dSPIN. Run retires as many whole iterations of such a loop as the
// slice budget holds in one step, charging exactly the cycles, instruction
// counts and register updates the three instructions would have, so the
// fusion is invisible to everything but host time. Only the exact shape
// fuses: the counter is not r0, none of the three carries a flag (so no
// link and no SP check: an SP counter flags its addi with dfCheckSP), and
// all three costs are positive (an iteration always advances the budget).
// Entry at the addi or jmp, and any partial iteration at a budget edge, run
// unfused.
func fuseSpins(dec []dInstr) {
	for i := 0; i+2 < len(dec); i++ {
		b, a, j := &dec[i], &dec[i+1], &dec[i+2]
		r := b.rs1
		if b.class == dBEQ && b.flags == 0 && b.rs2 == R0 && r != R0 &&
			a.class == dADDI && a.flags == 0 && a.rd == r && a.rs1 == r && a.imm == -1 &&
			j.class == dJMP && j.flags == 0 && j.imm == int64(i) &&
			b.cost > 0 && a.cost > 0 && j.cost > 0 {
			b.class = dSPIN
		}
	}
}
