package runtime

import (
	"errors"
	"fmt"
	"io"

	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/obs"
	"deflection/internal/verifier"
)

// Image is the portable product of a successful VerifyImage run: the
// relocated, annotation-rewritten text, the initialised data segment,
// the translated branch-target table, and the metadata Run needs. An Image
// is bound to one enclave Layout (every address baked into the text is
// absolute), and once built it is immutable — the verification plane shares
// one Image across many sessions, and InstallImage copies it into each
// session's private enclave memory, so no writable state is ever aliased
// between tenants.
type Image struct {
	// BinaryHash is the SHA-256 of the serialised object the image was
	// verified from (what the data owner recognises).
	BinaryHash [32]byte

	// Entry is the absolute address of the entry symbol.
	Entry uint64
	// TextBase/TextEnd delimit the relocated code.
	TextBase, TextEnd uint64
	// DataBase is where .data begins; HeapFree is the first free heap
	// address after .bss.
	DataBase, HeapFree uint64

	// Text is the verified, rewritten code — placeholder immediates already
	// resolved to the layout's enclave addresses.
	Text []byte
	// Data is the relocated .data at DataBase. The rest of the data
	// segment, up to HeapFree, is zero (.bss) and is not stored; see
	// WriteDataSegment.
	Data []byte
	// BranchTable is the raw read-only branch-table region content.
	BranchTable []byte
	// BranchTargets are the translated indirect-branch targets, in proof
	// order.
	BranchTargets []uint64

	// AnnotRanges are the verifier's annotation spans (text offsets), used
	// by the CPU timing model.
	AnnotRanges []verifier.Range
	// Stats, Rewrites and Audit are the original verification's verdict
	// evidence, replayed into every cache-hit LoadReport.
	Stats    verifier.Stats
	Rewrites loader.RewriteStats
	Audit    []verifier.PolicyAudit

	// Layout is the enclave address map the image was built for; install
	// targets must match it exactly.
	Layout enclave.Layout
}

// SizeBytes estimates the image's retained memory, for cache accounting.
func (img *Image) SizeBytes() int64 {
	const structOverhead = 512
	return structOverhead +
		int64(len(img.Text)) +
		int64(len(img.Data)) +
		int64(len(img.BranchTable)) +
		int64(len(img.BranchTargets))*8 +
		int64(len(img.AnnotRanges))*16 +
		int64(len(img.Audit))*96
}

// zeros is a read-only source of zero bytes for the .bss part of data
// segments.
var zeros [64 << 10]byte

// ErrBadSegment is returned for an image whose data segment does not lie
// in its layout's heap region.
var ErrBadSegment = errors.New("runtime: image data segment outside the heap region")

// WriteDataSegment writes the image's whole data segment, [DataBase,
// HeapFree), to w: Data, then zeros up to HeapFree. Digests hash it and
// install writes it into enclave memory, so both see the segment exactly
// as a fully staged copy would be. A segment that leaves img.Layout's heap
// region, or holds more .data than fits, is refused before anything is
// written, so the work is bounded by that region; an image from an
// untrusted source must have its Layout compared with a trusted one first.
func (img *Image) WriteDataSegment(w io.Writer) error {
	if l := img.Layout; img.DataBase < l.HeapBase || img.HeapFree > l.HeapEnd || img.DataBase > img.HeapFree ||
		uint64(len(img.Data)) > img.HeapFree-img.DataBase {
		return fmt.Errorf("%w: [%#x, %#x) with %d bytes of .data", ErrBadSegment, img.DataBase, img.HeapFree, len(img.Data))
	}
	if len(img.Data) > 0 {
		if _, err := w.Write(img.Data); err != nil {
			return err
		}
	}
	for n := img.HeapFree - img.DataBase - uint64(len(img.Data)); n > 0; {
		c := min(n, uint64(len(zeros)))
		if _, err := w.Write(zeros[:c]); err != nil {
			return err
		}
		n -= c
	}
	return nil
}

// memWriter writes consecutive chunks into enclave memory from addr on.
type memWriter struct {
	mem  *enclave.Memory
	addr uint64
}

func (w *memWriter) Write(b []byte) (int, error) {
	if f := w.mem.Write(w.addr, b); f != nil {
		return 0, f
	}
	w.addr += uint64(len(b))
	return len(b), nil
}

// ErrNoLoadedImage is returned by InstallImage when given no image.
var ErrNoLoadedImage = errors.New("runtime: no verified image to install")

// ErrLayoutMismatch is returned by InstallImage when the image was built
// for a different enclave layout.
var ErrLayoutMismatch = errors.New("runtime: image layout does not match enclave")

// InstallImage loads a previously verified Image (see VerifyImage) into
// this bootstrap's enclave, skipping parse, disassembly, verification and
// rewriting entirely — the cache-hit fast path of the verification plane.
// The image bytes are copied into the enclave's private memory (never
// aliased), so concurrent sessions installed from the same Image cannot
// observe each other's writable state. The enclave's layout must match the
// one the image was built for.
func (b *Bootstrap) InstallImage(img *Image) (*LoadReport, error) {
	if img == nil {
		return nil, ErrNoLoadedImage
	}
	tr := obs.NewTraceWithClock("install_image", b.traceClock)
	b.setLastTrace(tr)
	if err := b.install(img, tr); err != nil {
		return nil, err
	}
	return &LoadReport{
		BinaryHash: img.BinaryHash,
		Stats:      img.Stats,
		Rewrites:   img.Rewrites, // durations are the original cold run's
		TextSize:   len(img.Text),
		Trace:      tr,
		Audit:      append([]verifier.PolicyAudit(nil), img.Audit...),
	}, nil
}

// install copies img into the enclave, recording its stages in tr, and
// makes it the binary Run executes. It is the only code that writes a
// verified binary into enclave memory.
func (b *Bootstrap) install(img *Image, tr *obs.Trace) error {
	if b.encl.Layout != img.Layout {
		tr.Add("install_text", 0, "error", ErrLayoutMismatch.Error())
		return fmt.Errorf("%w: image built for a different address map", ErrLayoutMismatch)
	}
	// From the first write on, the previous binary is no longer runnable.
	b.loaded, b.verify = nil, nil

	tm := tr.Start("install_text")
	if f := b.encl.Mem.Write(img.TextBase, img.Text); f != nil {
		tm.End("error", f.Error())
		return fmt.Errorf("runtime: installing text: %w", f)
	}
	tm.End("text_bytes", len(img.Text))

	// The whole segment is written, .bss included, so an enclave that
	// already ran a binary gets its .bss cleared.
	tm = tr.Start("install_data")
	if err := img.WriteDataSegment(&memWriter{b.encl.Mem, img.DataBase}); err != nil {
		tm.End("error", err.Error())
		return fmt.Errorf("runtime: installing data: %w", err)
	}
	tm.End("data_bytes", int(img.HeapFree-img.DataBase))

	// The branch-table region is mapped read-only at launch; open it just
	// long enough to publish the table.
	tm = tr.Start("install_table")
	if len(img.BranchTable) > 0 {
		l := b.encl.Layout
		if err := b.encl.Mem.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermRW); err != nil {
			tm.End("error", err.Error())
			return err
		}
		if f := b.encl.Mem.Write(l.BrTableBase, img.BranchTable); f != nil {
			tm.End("error", f.Error())
			return fmt.Errorf("runtime: installing branch table: %w", f)
		}
		if err := b.encl.Mem.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermR); err != nil {
			tm.End("error", err.Error())
			return err
		}
	}
	tm.End("branch_targets", len(img.BranchTargets))

	if b.encl.Layout.SGXv2 {
		// EDMM: the image was verified and rewritten before it was
		// installed, so drop write permission from the code pages —
		// hardware DEP instead of relying on P4's software check alone.
		tm = tr.Start("edmm_seal")
		if err := b.encl.Mem.SetPerm(b.encl.Layout.CodeBase, b.encl.Layout.CodeEnd, enclave.PermRX); err != nil {
			tm.End("error", err.Error())
			return err
		}
		tm.End()
	}

	b.loaded = &loader.Loaded{
		Layout:        img.Layout,
		Entry:         img.Entry,
		TextBase:      img.TextBase,
		TextEnd:       img.TextEnd,
		DataBase:      img.DataBase,
		HeapFree:      img.HeapFree,
		BranchTargets: append([]uint64(nil), img.BranchTargets...),
	}
	b.verify = &verifier.Result{
		Stats:       img.Stats,
		AnnotRanges: append([]verifier.Range(nil), img.AnnotRanges...),
	}
	return nil
}
