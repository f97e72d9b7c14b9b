package cli

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// Golden output digests. Every byte-identity gate elsewhere compares two
// execution modes with each other, so a change that shifts both sides
// passes them unnoticed; these pin the bytes themselves. The digests are
// the SHA-256 of stdout, reproducible from a shell:
//
//	hpcc run E4 | sha256sum
//	hpcc report -quick | sha256sum
//
// A changed digest is a changed result: it needs a kernel version bump
// and a CHANGES.md note (docs/WORKLOADS.md, "Golden digests").
var goldenDigests = []struct {
	args   []string
	sha256 string
}{
	{[]string{"run", "E4"}, "5ea9a0adaf0ce0815a89bbb150e60a9eae657ac6b2b4ef27f37ae3e827abc290"},
	{[]string{"report", "-quick"}, "0dc644c4094973aefd64013d598d845d447ca0e86075698c5740fedc8596c880"},
}

func TestGoldenOutputDigests(t *testing.T) {
	for _, g := range goldenDigests {
		out, errOut, code := run(t, g.args...)
		if code != 0 {
			t.Fatalf("hpcc %v: exit %d: %s", g.args, code, errOut)
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != g.sha256 {
			t.Errorf("hpcc %v: stdout sha256 %s, golden %s\n%s", g.args, got, g.sha256, out)
		}
	}
}
