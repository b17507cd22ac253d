package runtime_test

import (
	"testing"

	"deflection/internal/enclave"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

// BenchmarkVerifyImageCorpus times cold verification of the P1–P8 half of
// the golden corpus (every application and nBench kernel, plain and with a
// protocol): one op verifies all of them once.
func BenchmarkVerifyImageCorpus(b *testing.B) {
	var corpus []goldenCase
	for _, c := range goldenCorpus(b) {
		if c.pols == policy.SetP1P8 {
			corpus = append(corpus, c)
		}
	}
	l := enclave.NewLayout(enclave.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range corpus {
			if _, _, _, err := runtime.VerifyImage(c.obj, c.manifest(), l); err != nil {
				b.Fatal(err)
			}
		}
	}
}
