package asm

import "testing"

// FuzzAssemble is the assembler's fuzz wall: Assemble never panics, whatever
// the source, and an accepted program is never nil. The seed corpus below is
// extended by the committed files under testdata/fuzz/FuzzAssemble.
func FuzzAssemble(f *testing.F) {
	f.Add(".data\nbuf: .space 64\nmsg: .asciz \"hi\"\n.text\nmain: movi r1, buf\n ldw r2, 8(r1)\n syscall exit\n")
	f.Add(".equ N 4\n.entry start\n.data\nnums: .word 1, 2, start\ntbl: .jumptable absolute a, b\n.text\nstart: beq r1, r2, a\na: call b\nb: ret\n")
	f.Add("main: movi r1, 'c'\n addi sp, sp, -0x10\n stw ra, 0(sp)\n jmp main\n")
	f.Add("main: ldw r1, 0(hdr)\n")
	f.Add(".word label+\n")
	f.Add("x: .asciz \"unterminated\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err == nil && prog == nil {
			t.Fatalf("Assemble accepted %q but returned no program", src)
		}
	})
}
