package vm

// FusedSpin reports whether m decodes the instruction at pc as the head of
// a fused countdown loop (see fuseSpins). It lets external tests pin that
// generated code keeps the shape the fast path recognises.
func FusedSpin(m *Machine, pc int64) bool { return m.dec[pc].class == dSPIN }
