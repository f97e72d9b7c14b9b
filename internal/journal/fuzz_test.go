package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// FuzzJournalOpen feeds Open a header line followed by an arbitrary
// tail: entries, a torn final line, or garbage. Open must not panic,
// must refuse only with the package's typed errors, and whatever it
// accepts must survive a rewrite: creating a fresh journal from the
// recovered header and completed entries and reopening it yields the
// same header and the same entries.
//
// Seed corpus: testdata/fuzz/FuzzJournalOpen (a valid schema-3 journal,
// schema-1 and schema-2 headers, a bad hash, a torn last line, an empty
// file).
func FuzzJournalOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, header, tail []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "in.jsonl")
		data := append(append(append([]byte{}, header...), '\n'), tail...)
		if len(header) == 0 && len(tail) == 0 {
			data = nil
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, h, done, err := Open(path, nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrSchema) && !errors.Is(err, ErrIdentityMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		j.Close()

		re, err := Create(filepath.Join(dir, "rewrite"), h)
		if err != nil {
			t.Fatalf("rewrite create: %v", err)
		}
		idx := make([]int, 0, len(done))
		for i := range done {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			if err := re.Record(i, done[i]); err != nil {
				t.Fatalf("rewrite record %d: %v", i, err)
			}
		}
		re.Close()
		j2, h2, done2, err := Open(re.Path(), nil)
		if err != nil {
			t.Fatalf("rewritten journal refused: %v", err)
		}
		j2.Close()
		if a, b := mustJSON(t, h), mustJSON(t, h2); !bytes.Equal(a, b) {
			t.Fatalf("header changed across rewrite:\n %s\n %s", a, b)
		}
		if a, b := mustJSON(t, done), mustJSON(t, done2); !bytes.Equal(a, b) {
			t.Fatalf("entries changed across rewrite:\n %s\n %s", a, b)
		}
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
