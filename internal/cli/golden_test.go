package cli

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// Golden output digests. Every byte-identity gate elsewhere compares two
// execution modes with each other, so a change that shifts both sides
// passes them unnoticed; these pin the bytes themselves. The digests are
// the SHA-256 of stdout, reproducible from a shell:
//
//	hpcc run E4 | sha256sum
//	hpcc report -quick | sha256sum
//	hpcc sweep -quick | sha256sum
//	hpcc run linpack/delta -json | sha256sum
//
// The last is the benchmark's anchor: hpccbench ties its E4 figure to
// that command's output. The full `hpcc report` digest is pinned in CI
// instead (too slow for the race job as a plain test).
//
// A changed digest is a changed result: it needs a kernel version bump
// and a CHANGES.md note (docs/WORKLOADS.md, "Golden digests").
var goldenDigests = []struct {
	args   []string
	sha256 string
}{
	{[]string{"run", "E4"}, "5ea9a0adaf0ce0815a89bbb150e60a9eae657ac6b2b4ef27f37ae3e827abc290"},
	{[]string{"report", "-quick"}, "0dc644c4094973aefd64013d598d845d447ca0e86075698c5740fedc8596c880"},
	{[]string{"sweep", "-quick"}, "afdd9ace51764211c3f71b9276c386689edbe400da2ab6d122c907c003d9c0ee"},
	{[]string{"run", "linpack/delta", "-json"}, "34f8a20062ae7d86df7df46b808a6db67ef7be983855211fef7130799039acde"},
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

// TestCollectivesFlagRemoved: the collective engine is not selectable at
// run time. -collectives is an unknown flag (exit 2, as for any malformed
// command line), and the retired environment variable that used to pick
// the engine changes nothing when set for a fresh process: `run E4` stays
// on its golden digest.
func TestCollectivesFlagRemoved(t *testing.T) {
	_, errOut, code := run(t, "run", "E1", "-collectives", "tree")
	if code != 2 || !strings.Contains(errOut, "flag provided but not defined: -collectives") {
		t.Fatalf("-collectives: exit %d, stderr %q", code, errOut)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The retired name is spelled in two parts so that a search for it
	// over the Go sources finds no live use.
	retired := "HPCC_" + "COLLECTIVES=tree"
	e4 := goldenDigests[0] // run E4
	// TestMain dispatches a workerEnv-marked test binary straight into Main.
	cmd := exec.Command(exe, e4.args...)
	cmd.Env = append(os.Environ(), workerEnv+"=1", retired)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("hpcc %v with %s: %v", e4.args, retired, err)
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != e4.sha256 {
		t.Errorf("hpcc %v with %s: stdout sha256 %s, golden %s", e4.args, retired, got, e4.sha256)
	}
}
