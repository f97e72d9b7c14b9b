package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

func testHeader(n int) Header {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{WorkloadID: "t/job", Params: harness.Params{Seed: int64(i)}}
	}
	return Header{
		Mode:        "sweep",
		Fingerprint: "deadbeef",
		Jobs:        jobs,
		Time:        time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
	}
}

func result(i int) harness.Result {
	r := harness.Result{WorkloadID: "t/job", Text: "line\n"}
	r.AddMetric("n", float64(i), "")
	return r
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h := testHeader(4)
	j, err := Create(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(i, result(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := j.Path()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	j2, h2, done, err := Open(path, &warn)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if warn.Len() != 0 {
		t.Fatalf("clean journal produced warnings: %q", warn.String())
	}
	if h2.Hash != h.Identity() || h2.Mode != "sweep" || len(h2.Jobs) != 4 {
		t.Fatalf("header mangled: %+v", h2)
	}
	if len(done) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(done))
	}
	for i := 0; i < 3; i++ {
		r, ok := done[i]
		if !ok || len(r.Metrics) != 1 || r.Metrics[0].Value != float64(i) {
			t.Fatalf("entry %d mangled: %+v", i, r)
		}
	}
	// The reopened journal appends, not clobbers.
	if err := j2.Record(3, result(3)); err != nil {
		t.Fatal(err)
	}
	_, _, done, err = Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 4 {
		t.Fatalf("post-append replay has %d entries, want 4", len(done))
	}
}

func TestIdentityExcludesRenderFields(t *testing.T) {
	a, b := testHeader(2), testHeader(2)
	b.JSON = true
	b.Time = b.Time.Add(time.Hour)
	if a.Identity() != b.Identity() {
		t.Fatal("render-only fields leaked into the identity hash")
	}
	c := testHeader(2)
	c.Fingerprint = "f00dface"
	if a.Identity() == c.Identity() {
		t.Fatal("fingerprint change did not move the identity hash")
	}
	d := testHeader(3)
	if a.Identity() == d.Identity() {
		t.Fatal("job-list change did not move the identity hash")
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	h := testHeader(2)
	j, err := Create(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := Create(dir, h); !errors.Is(err, ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
	}
}

func TestOpenMissingIsNotExist(t *testing.T) {
	_, _, _, err := Open(filepath.Join(t.TempDir(), "nope.jsonl"), nil)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want fs.ErrNotExist in the chain, got %v", err)
	}
}

// TestTornTailRecovered: a crash mid-append leaves a partial final
// line. Open must keep every intact entry, warn, truncate the
// fragment, and leave the file appendable — never fail.
func TestTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testHeader(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Record(i, result(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := j.Path()
	j.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(clean, []byte(`{"index":2,"result":{"work`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	var warn bytes.Buffer
	j2, _, done, err := Open(path, &warn)
	if err != nil {
		t.Fatalf("torn tail made the journal unresumable: %v", err)
	}
	if len(done) != 2 {
		t.Fatalf("replayed %d entries across the tear, want 2", len(done))
	}
	if !strings.Contains(warn.String(), "torn tail") {
		t.Fatalf("tear never surfaced as a warning: %q", warn.String())
	}
	// The next append lands on a clean boundary.
	if err := j2.Record(2, result(2)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, _, done, err = Open(path, &warn)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 {
		t.Fatalf("post-recovery journal has %d entries, want 3", len(done))
	}
}

// TestUnterminatedParseableTailKept: the liberal half of tail
// recovery — a final entry that is valid JSON but merely lost its
// newline still counts.
func TestUnterminatedParseableTailKept(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testHeader(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(0, result(0)); err != nil {
		t.Fatal(err)
	}
	path := j.Path()
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.TrimRight(data, "\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, done, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("unterminated-but-parseable entry dropped: %d entries", len(done))
	}
}

// TestTamperedHashRefused: a journal whose recorded hash disagrees
// with its contents must be refused with the typed sentinel, not
// replayed.
func TestTamperedHashRefused(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testHeader(2))
	if err != nil {
		t.Fatal(err)
	}
	path := j.Path()
	hash := j.Header().Hash
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(hash), []byte(strings.Repeat("0", len(hash))), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("test bug: hash not found in header line")
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Open(path, nil)
	if !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("want ErrIdentityMismatch, got %v", err)
	}
}

func TestSchemaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, testHeader(1))
	if err != nil {
		t.Fatal(err)
	}
	path := j.Path()
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(fmt.Sprintf(`{"journal":%d,`, Schema)), []byte(`{"journal":99,`), 1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = Open(path, nil)
	if !errors.Is(err, ErrSchema) {
		t.Fatalf("future schema not refused as ErrSchema: %v", err)
	}
}

// schema1Header is a header line exactly as the schema-1 binary wrote
// it, engine shard count ("sim_shards") included.
const schema1Header = `{"journal":1,"hash":"9efe483ee4461ab3","mode":"sweep","fingerprint":"05fa47753e0609c6","collectives":"fused","sim_shards":1,"jobs":[{"workload_id":"E1","params":{"quick":true}}],"time":"2026-10-01T12:00:00Z"}`

// schema2Header is a header line exactly as the schema-2 binary wrote
// it, collective engine ("collectives") included.
const schema2Header = `{"journal":2,"hash":"8edc9ab97393c0f5","mode":"sweep","fingerprint":"6174c616d146fa46","collectives":"fused","jobs":[{"workload_id":"E1","params":{"quick":true}}],"time":"2026-10-17T17:05:36.263960083Z"}`

// assertRefusedWithRerunHint writes header as a journal and demands that
// Open refuses it by the schema check — never replayed, and never
// misreported as a hash mismatch — with a hint to rerun.
func assertRefusedWithRerunHint(t *testing.T, header string, schema int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "old.jsonl")
	if err := os.WriteFile(path, []byte(header+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, done, err := Open(path, nil)
	if err == nil {
		t.Fatalf("schema-%d journal opened (%d entries replayable)", schema, len(done))
	}
	if !errors.Is(err, ErrSchema) || errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("schema-%d journal not refused as ErrSchema: %v", schema, err)
	}
	for _, want := range []string{fmt.Sprintf("schema %d", schema), "rerun"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal missing %q: %v", want, err)
		}
	}
}

// TestSchema1JournalRefusedWithRerunHint: a journal from before the
// shard count left the identity.
func TestSchema1JournalRefusedWithRerunHint(t *testing.T) {
	assertRefusedWithRerunHint(t, schema1Header, 1)
}

// TestSchema2JournalRefusedWithRerunHint: a journal from before the
// collective engine left the identity.
func TestSchema2JournalRefusedWithRerunHint(t *testing.T) {
	assertRefusedWithRerunHint(t, schema2Header, 2)
}

func TestListAndRemove(t *testing.T) {
	dir := t.TempDir()
	hA := testHeader(1)
	hB := testHeader(2)
	jA, err := Create(dir, hA)
	if err != nil {
		t.Fatal(err)
	}
	defer jA.Close()
	jB, err := Create(dir, hB)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := List(dir)
	if err != nil || len(paths) != 2 {
		t.Fatalf("List = %v, %v", paths, err)
	}
	if err := jB.Remove(); err != nil {
		t.Fatal(err)
	}
	paths, err = List(dir)
	if err != nil || len(paths) != 1 || paths[0] != jA.Path() {
		t.Fatalf("List after Remove = %v, %v", paths, err)
	}
	// A directory that never existed lists empty, because resume's "no
	// journals in <dir>" beats a spurious I/O error.
	paths, err = List(filepath.Join(dir, "missing"))
	if err != nil || len(paths) != 0 {
		t.Fatalf("List missing dir = %v, %v", paths, err)
	}
}
