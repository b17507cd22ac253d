package runtime_test

import (
	"bytes"
	"errors"
	"testing"

	"deflection/internal/compiler"
	"deflection/internal/cpu"
	"deflection/internal/enclave"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

// imageSrc exercises every region an Image carries: initialised data
// (counter), zero .bss (scratch), an address-taken function (branch table
// + shadow-stack use), and a computed exit value.
const imageSrc = `
int counter = 5;
int scratch[64];
int bump() { counter = counter + 1; return counter; }
int main() { fnptr f = bump; return f(); }
`

// buildImage compiles imageSrc under pols and verifies it for the default
// layout without an enclave.
func buildImage(t *testing.T, pols policy.Set) ([]byte, *runtime.Image) {
	t.Helper()
	o, err := compiler.Compile(imageSrc, compiler.Options{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	objBytes := o.Marshal()
	m := runtime.DefaultManifest()
	m.Policies = pols
	img, _, _, err := runtime.VerifyImage(objBytes, m, enclave.NewLayout(enclave.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return objBytes, img
}

// TestInstallImageEquivalence: a session installed from a verified image
// must be observationally identical to the cold pipeline — same verdict
// evidence, same execution.
func TestInstallImageEquivalence(t *testing.T) {
	pols := policy.SetP1P6

	objBytes, img := buildImage(t, pols)
	cold := newBootstrap(t, pols)
	coldRep, err := cold.ReceiveBinary(objBytes)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	warm := newBootstrap(t, pols)
	warmRep, err := warm.InstallImage(img)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	if warmRes.CPU.Status != cpu.StatusHalt || warmRes.CPU.ExitValue != coldRes.CPU.ExitValue {
		t.Fatalf("warm run diverged: %+v vs cold %+v", warmRes.CPU, coldRes.CPU)
	}
	if warmRes.CPU.Insts != coldRes.CPU.Insts {
		t.Errorf("instruction counts differ: warm %d, cold %d", warmRes.CPU.Insts, coldRes.CPU.Insts)
	}
	if warmRep.BinaryHash != coldRep.BinaryHash {
		t.Error("binary hash not replayed into the warm report")
	}
	if warmRep.Stats != coldRep.Stats {
		t.Errorf("verdict stats differ: %+v vs %+v", warmRep.Stats, coldRep.Stats)
	}
	if len(warmRep.Audit) != len(coldRep.Audit) {
		t.Errorf("audit trail length %d, want %d", len(warmRep.Audit), len(coldRep.Audit))
	}
	if warmRep.Trace == nil || warmRep.Trace.Name != "install_image" {
		t.Errorf("warm load trace = %+v, want install_image stage trace", warmRep.Trace)
	}
	if len(img.BranchTargets) == 0 || len(img.BranchTable) == 0 {
		t.Fatalf("test image has no branch table (targets=%d, table=%d bytes)",
			len(img.BranchTargets), len(img.BranchTable))
	}
}

func TestInstallImageLayoutMismatch(t *testing.T) {
	pols := policy.SetP1P2
	_, img := buildImage(t, pols)

	cfg := enclave.DefaultConfig()
	cfg.HeapCap *= 2
	m := runtime.DefaultManifest()
	m.Policies = pols
	other, err := runtime.New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.InstallImage(img); !errors.Is(err, runtime.ErrLayoutMismatch) {
		t.Fatalf("install into mismatched layout: err = %v, want ErrLayoutMismatch", err)
	}
}

// TestImageForgedSegmentRefused: an image whose data segment leaves its
// layout's heap region, or holds more .data than the segment, is refused
// by WriteDataSegment before any byte of it is written, and by
// InstallImage, which also leaves the previously installed binary
// unrunnable once it has started writing.
func TestImageForgedSegmentRefused(t *testing.T) {
	pols := policy.SetP1
	_, img := buildImage(t, pols)
	forgeries := map[string]func(img *runtime.Image){
		"huge bss":       func(img *runtime.Image) { img.HeapFree = img.DataBase + 1<<62 },
		"inverted":       func(img *runtime.Image) { img.DataBase = img.HeapFree + 8 },
		"below heap":     func(img *runtime.Image) { img.DataBase = img.Layout.HeapBase - 8 },
		"past heap":      func(img *runtime.Image) { img.HeapFree = img.Layout.HeapEnd + 8 },
		"data overflows": func(img *runtime.Image) { img.Data = make([]byte, img.HeapFree-img.DataBase+1) },
	}
	for name, forge := range forgeries {
		evil := *img
		forge(&evil)
		var w bytes.Buffer
		if err := evil.WriteDataSegment(&w); !errors.Is(err, runtime.ErrBadSegment) || w.Len() != 0 {
			t.Errorf("%s: WriteDataSegment = %v after %d bytes, want ErrBadSegment before any", name, err, w.Len())
		}
		b := newBootstrap(t, pols)
		if _, err := b.InstallImage(img); err != nil {
			t.Fatal(err)
		}
		if _, err := b.InstallImage(&evil); !errors.Is(err, runtime.ErrBadSegment) {
			t.Errorf("%s: InstallImage = %v, want ErrBadSegment", name, err)
		}
		if _, err := b.Run(runtime.RunConfig{}); !errors.Is(err, runtime.ErrNotLoaded) {
			t.Errorf("%s: run after a failed install: err = %v, want ErrNotLoaded", name, err)
		}
	}
}

func TestInstallImageRequiresImage(t *testing.T) {
	b := newBootstrap(t, policy.SetP1)
	if _, err := b.InstallImage(nil); !errors.Is(err, runtime.ErrNoLoadedImage) {
		t.Errorf("install of nil image: err = %v, want ErrNoLoadedImage", err)
	}
	if _, err := b.Run(runtime.RunConfig{}); !errors.Is(err, runtime.ErrNotLoaded) {
		t.Errorf("run after failed install: err = %v, want ErrNotLoaded", err)
	}
}

// TestImageIsolationBetweenSessions is the isolation regression test: two
// sessions installed from the same cached image must not share writable
// state. One session's memory is deliberately corrupted — data section,
// .bss, shadow-stack region, branch-target table — and the sibling must
// observe none of it; installing the image again restores the victim's
// whole data segment.
func TestImageIsolationBetweenSessions(t *testing.T) {
	pols := policy.SetP1P6
	_, img := buildImage(t, pols)
	l := img.Layout

	victim := newBootstrap(t, pols)
	if _, err := victim.InstallImage(img); err != nil {
		t.Fatal(err)
	}
	sibling := newBootstrap(t, pols)
	if _, err := sibling.InstallImage(img); err != nil {
		t.Fatal(err)
	}

	// Corrupt the victim's writable regions the way a hostile tenant with
	// an in-enclave write primitive would.
	vm := victim.Enclave().Mem
	garbage := bytes.Repeat([]byte{0xFF}, 8)
	if f := vm.Write(img.DataBase, garbage); f != nil {
		t.Fatalf("poking victim data: %v", f)
	}
	if img.HeapFree-img.DataBase < uint64(len(img.Data)+len(garbage)) {
		t.Fatalf("image has no .bss to poke: data %d bytes, segment %d", len(img.Data), img.HeapFree-img.DataBase)
	}
	if f := vm.Write(img.HeapFree-uint64(len(garbage)), garbage); f != nil {
		t.Fatalf("poking victim bss: %v", f)
	}
	if f := vm.Write(l.ShadowBase, garbage); f != nil {
		t.Fatalf("poking victim shadow stack: %v", f)
	}
	if err := vm.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermRW); err != nil {
		t.Fatal(err)
	}
	if f := vm.Write(l.BrTableBase, garbage); f != nil {
		t.Fatalf("poking victim branch table: %v", f)
	}
	if err := vm.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermR); err != nil {
		t.Fatal(err)
	}

	// The sibling's regions must be byte-identical to the pristine image.
	var segment bytes.Buffer
	if err := img.WriteDataSegment(&segment); err != nil {
		t.Fatal(err)
	}
	readSegment := func(m *enclave.Memory) []byte {
		t.Helper()
		data, f := m.Read(img.DataBase, int(img.HeapFree-img.DataBase))
		if f != nil {
			t.Fatal(f)
		}
		return data
	}
	sm := sibling.Enclave().Mem
	if !bytes.Equal(readSegment(sm), segment.Bytes()) {
		t.Error("sibling data segment changed by victim's writes")
	}
	table, f := sm.Read(l.BrTableBase, len(img.BranchTable))
	if f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(table, img.BranchTable) {
		t.Error("sibling branch table changed by victim's writes")
	}
	shadow, f := sm.Read(l.ShadowBase, len(garbage))
	if f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(shadow, make([]byte, len(garbage))) {
		t.Error("sibling shadow stack changed by victim's writes")
	}

	// And the shared Image itself must still be pristine: a third session
	// installed after the corruption behaves exactly like the first.
	res, err := sibling.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusHalt || res.CPU.ExitValue != 6 {
		t.Fatalf("sibling run: %+v, want clean exit 6", res.CPU)
	}
	if _, err := victim.InstallImage(img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readSegment(vm), segment.Bytes()) {
		t.Error("installing the image again left the victim's data segment dirty")
	}
	third := newBootstrap(t, pols)
	if _, err := third.InstallImage(img); err != nil {
		t.Fatal(err)
	}
	res3, err := third.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.CPU.ExitValue != 6 {
		t.Fatalf("third session exit = %d, want 6 — counter state leaked through the image",
			res3.CPU.ExitValue)
	}
}
