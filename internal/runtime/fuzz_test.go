package runtime_test

import (
	"errors"
	"math/rand"
	"testing"

	"deflection/internal/compiler"
	"deflection/internal/cpu"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/obj"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

// declaredErrors are the error classes VerifyImage may reject an input
// with: a malformed object, a policy mask short of the manifest, a binary
// that does not fit or link in the layout, or a verifier violation.
var declaredErrors = []error{
	obj.ErrBadObject, runtime.ErrPolicyMismatch, loader.ErrTooLarge, loader.ErrUnresolved, verifier.ErrViolation,
}

// FuzzVerifyImage feeds arbitrary object bytes — seeded with every
// application and nBench kernel under P1-P8, plain and with a protocol —
// to VerifyImage. It must never panic, must reject only with a declared
// error class (and still return its stage trace), and must build the same
// image when an accepted input is verified again. Run with
// go test -fuzz=FuzzVerifyImage ./internal/runtime/ (see make fuzz-verify).
func FuzzVerifyImage(f *testing.F) {
	for _, c := range goldenCorpus(f) {
		if c.pols == policy.SetP1P8 {
			f.Add(c.obj)
		}
	}
	m := runtime.DefaultManifest()
	m.Policies = policy.SetP1P8
	l := enclave.NewLayout(enclave.DefaultConfig())
	f.Fuzz(func(t *testing.T, objBytes []byte) {
		img, rep, tr, err := runtime.VerifyImage(objBytes, m, l)
		if tr == nil {
			t.Fatal("no stage trace")
		}
		if err != nil {
			declared := false
			for _, class := range declaredErrors {
				declared = declared || errors.Is(err, class)
			}
			if !declared || img != nil || rep != nil {
				t.Fatalf("rejection %v (image %v, report %v) outside the declared classes", err, img != nil, rep != nil)
			}
			return
		}
		again, _, _, err := runtime.VerifyImage(objBytes, m, l)
		if err != nil {
			t.Fatalf("accepted, then rejected on the same bytes: %v", err)
		}
		if imageDigest(img) != imageDigest(again) {
			t.Fatal("accepted input built two different images")
		}
	})
}

// TestMutatedBinariesNeverLeak is the repository's core security property
// as a mutation-fuzz test: take a correctly instrumented binary, flip bytes
// in its text section, and require that every mutant is either rejected by
// the verifier or — if it still verifies and runs — cannot write a single
// byte of untrusted memory.
func TestMutatedBinariesNeverLeak(t *testing.T) {
	src := `
int data[32];
int main() {
	int s = 0;
	for (int i = 0; i < 32; i++) data[i] = i * 3;
	for (int i = 0; i < 32; i++) s += data[i];
	return s;
}`
	o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: policy.SetP1P6})
	if err != nil {
		t.Fatal(err)
	}
	pristine := o.Marshal()

	rng := rand.New(rand.NewSource(1234))
	const mutants = 300
	accepted, rejected := 0, 0
	for i := 0; i < mutants; i++ {
		mo, err := obj.Unmarshal(pristine)
		if err != nil {
			t.Fatal(err)
		}
		// Flip 1-4 random bytes of text.
		for n := 1 + rng.Intn(4); n > 0; n-- {
			pos := rng.Intn(len(mo.Text))
			mo.Text[pos] ^= byte(1 + rng.Intn(255))
		}

		m := runtime.DefaultManifest()
		m.Policies = policy.SetP1P6
		b, err := runtime.New(enclave.DefaultConfig(), m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.ReceiveBinary(mo.Marshal()); err != nil {
			rejected++
			continue
		}
		accepted++
		res, err := b.Run(runtime.RunConfig{Gas: 3_000_000})
		if err != nil {
			t.Fatalf("mutant %d: %v", i, err)
		}
		_ = res
		// Whatever happened (halt, trap, fault, gas-out), untrusted memory
		// must be untouched.
		l := b.Enclave().Layout
		buf, f := b.Enclave().Mem.Read(l.UntrustedBase, int(l.UntrustedEnd-l.UntrustedBase))
		if f != nil {
			t.Fatalf("mutant %d: reading untrusted region: %v", i, f)
		}
		for off, v := range buf {
			if v != 0 {
				t.Fatalf("mutant %d LEAKED: untrusted byte at +%#x = %#x (run: %v)", i, off, v, res.CPU)
			}
		}
	}
	t.Logf("mutants: %d rejected, %d accepted-and-contained", rejected, accepted)
	if rejected == 0 {
		t.Error("no mutants rejected — verifier not exercised")
	}
}

// TestVerifiedRunNeverWritesUntrusted confirms the same invariant for the
// unmutated binary across all policy levels that include P1.
func TestVerifiedRunNeverWritesUntrusted(t *testing.T) {
	src := `
char buf[64];
int main() {
	int n = __ocall_recv(buf, 64);
	for (int i = 0; i < n; i++) buf[i] = buf[i] ^ 255;
	__ocall_send(buf, n);
	return n;
}`
	for _, pols := range []policy.Set{policy.SetP1, policy.SetP1P2, policy.SetP1P5, policy.SetP1P6} {
		o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: pols})
		if err != nil {
			t.Fatal(err)
		}
		m := runtime.DefaultManifest()
		m.Policies = pols
		b, err := runtime.New(enclave.DefaultConfig(), m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.ReceiveBinary(o.Marshal()); err != nil {
			t.Fatalf("%v: %v", pols, err)
		}
		b.ReceiveData([]byte("sensitive"))
		res, err := b.Run(runtime.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CPU.Status != cpu.StatusHalt {
			t.Fatalf("%v: %v", pols, res.CPU)
		}
		l := b.Enclave().Layout
		buf, f := b.Enclave().Mem.Read(l.UntrustedBase, int(l.UntrustedEnd-l.UntrustedBase))
		if f != nil {
			t.Fatal(f)
		}
		for off, v := range buf {
			if v != 0 {
				t.Fatalf("%v: untrusted byte at +%#x = %#x", pols, off, v)
			}
		}
	}
}
