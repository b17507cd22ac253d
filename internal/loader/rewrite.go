package loader

import (
	"encoding/binary"
	"fmt"
	"time"

	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/policy"
)

// RewriteStats reports what the immediate rewriter patched.
type RewriteStats struct {
	StoreBounds int           // MagicStoreLo/Hi immediates patched
	StackBounds int           // MagicStackLo/Hi immediates patched
	SSASites    int           // P6 marker/counter displacements patched
	Duration    time.Duration // wall time of the rewrite pass
}

// RewriteImmediates is the paper's "Imm rewriter" (Section V-B): after the
// verifier has approved the binary, every annotation placeholder — the
// store and stack bound immediates of Fig. 5 and the P6 SSA slot
// displacements — is resolved to the real enclave addresses, in place, in
// the staged relocated text.
//
// The rewriter works from the verifier's disassembly so it patches exactly
// the decoded instruction stream; placeholder values are globally unique
// 63-bit constants that cannot collide with legitimate loaded addresses.
func RewriteImmediates(ld *Loaded, dis *disasm.Result) (stats RewriteStats, err error) {
	start := time.Now()
	defer func() { stats.Duration = time.Since(start) }()
	l := ld.Layout

	imm64Map := map[int64]uint64{
		policy.MagicStoreLo: l.StoreLo(),
		policy.MagicStoreHi: l.StoreHi(),
		policy.MagicStackLo: l.StackLo,
		policy.MagicStackHi: l.StackHi,
	}
	disp32Map := map[int32]uint64{
		policy.MagicSSAMarkerDisp: l.SSAMarkerAddr(),
		policy.MagicAEXCountDisp:  l.AEXCountAddr(),
	}
	// patch bounds-checks every write against the staged text.
	var buf [8]byte
	patch := func(at int64, b []byte) error {
		if at < 0 || at+int64(len(b)) > int64(len(ld.Text)) {
			return fmt.Errorf("loader: rewrite site %#x outside text", at)
		}
		copy(ld.Text[at:], b)
		return nil
	}

	for _, in := range dis.Insts {
		off := in.Off
		if immOff := isa.ImmOffset(&in.Inst); immOff >= 0 {
			if v, hit := imm64Map[in.Imm]; hit {
				if err := patch(off+int64(immOff), binary.LittleEndian.AppendUint64(buf[:0], v)); err != nil {
					return stats, err
				}
				switch in.Imm {
				case policy.MagicStoreLo, policy.MagicStoreHi:
					stats.StoreBounds++
				default:
					stats.StackBounds++
				}
			}
		}
		if dispOff := isa.DispOffset(&in.Inst); dispOff >= 0 && !in.Mem.HasBase && !in.Mem.HasIndex {
			if v, hit := disp32Map[in.Mem.Disp]; hit {
				if v > 0x7FFFFFFF {
					return stats, fmt.Errorf("loader: SSA slot %#x does not fit disp32", v)
				}
				if err := patch(off+int64(dispOff), binary.LittleEndian.AppendUint32(buf[:0], uint32(v))); err != nil {
					return stats, err
				}
				stats.SSASites++
			}
		}
	}
	return stats, nil
}
