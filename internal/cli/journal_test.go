package cli

// End-to-end crash-safety tests for the -journal/-resume flags and the
// resume subcommand: a journaled sweep that completes cleans up after
// itself, an interrupted one resumes byte-identically, and a journal
// from a different binary is refused.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
)

// quickSweepJobs is the job list `hpcc sweep -ids <ids> -quick` builds.
func quickSweepJobs(t *testing.T, ids ...string) []harness.Job {
	t.Helper()
	jobs, err := sweepJobs(harness.Default, ids, "", "", nil, harness.Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// interruptedSweep fabricates the journal a killed `hpcc sweep -ids
// E1,E3 -quick -journal dir` leaves behind: header plus the first
// nDone jobs' checkpoints.
func interruptedSweep(t *testing.T, dir string, jobs []harness.Job, nDone int) string {
	t.Helper()
	return interrupted(t, dir, "sweep", jobs, false, nDone)
}

// interrupted fabricates the journal a killed command of the given mode
// leaves behind after checkpointing its first nDone jobs.
func interrupted(t *testing.T, dir, mode string, jobs []harness.Job, jsonOut bool, nDone int) string {
	t.Helper()
	j, err := journal.Create(dir, journalHeader(mode, jobs, jsonOut))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nDone; i++ {
		res, err := jobs[i].Workload.Run(context.Background(), jobs[i].Params)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record(i, res); err != nil {
			t.Fatal(err)
		}
	}
	hash := j.Header().Hash
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return hash
}

func TestSweepJournalCompleteRunRemovesJournal(t *testing.T) {
	want, _, code := run(t, "sweep", "-ids", "E1,E3", "-quick")
	if code != 0 {
		t.Fatalf("plain sweep exit %d", code)
	}
	dir := t.TempDir()
	got, errOut, code := run(t, "sweep", "-ids", "E1,E3", "-quick", "-journal", dir)
	if code != 0 {
		t.Fatalf("journaled sweep exit %d: %s", code, errOut)
	}
	if got != want {
		t.Fatal("journaled sweep output differs from plain sweep")
	}
	if !strings.Contains(errOut, "journal complete; removed") {
		t.Fatalf("no cleanup note: %q", errOut)
	}
	paths, err := journal.List(dir)
	if err != nil || len(paths) != 0 {
		t.Fatalf("journal left behind after a clean run: %v, %v", paths, err)
	}
}

func TestSweepExistingJournalWithoutResumeRefused(t *testing.T) {
	dir := t.TempDir()
	interruptedSweep(t, dir, quickSweepJobs(t, "E1", "E3"), 1)
	_, errOut, code := run(t, "sweep", "-ids", "E1,E3", "-quick", "-journal", dir)
	if code == 0 {
		t.Fatal("sweep silently appended into an existing journal")
	}
	if !strings.Contains(errOut, "-resume") {
		t.Fatalf("refusal does not point at -resume: %q", errOut)
	}
}

func TestResumeFinishesInterruptedSweepByteIdentical(t *testing.T) {
	want, _, code := run(t, "sweep", "-ids", "E1,E3", "-quick")
	if code != 0 {
		t.Fatalf("plain sweep exit %d", code)
	}
	dir := t.TempDir()
	interruptedSweep(t, dir, quickSweepJobs(t, "E1", "E3"), 1)

	got, errOut, code := run(t, "resume", "-journal", dir)
	if code != 0 {
		t.Fatalf("resume exit %d: %s", code, errOut)
	}
	if got != want {
		t.Fatalf("resumed output differs from uninterrupted sweep:\n%q\n---\n%q", got, want)
	}
	if !strings.Contains(errOut, "1 of 2 job(s) already complete") {
		t.Fatalf("replay count missing: %q", errOut)
	}
	paths, _ := journal.List(dir)
	if len(paths) != 0 {
		t.Fatalf("journal left behind after a completed resume: %v", paths)
	}
}

func TestResumeFinishesInterruptedReportByteIdentical(t *testing.T) {
	want, _, code := run(t, "report", "-quick")
	if code != 0 {
		t.Fatalf("plain report exit %d", code)
	}
	prog := core.NewProgram()
	prog.Quick = true
	dir := t.TempDir()
	interrupted(t, dir, "report", prog.ReportJobs(), false, 3)
	got, errOut, code := run(t, "resume", "-journal", dir)
	if code != 0 {
		t.Fatalf("resume exit %d: %s", code, errOut)
	}
	if got != want {
		t.Fatalf("resumed report differs from uninterrupted report:\n%q\n---\n%q", got, want)
	}
}

// TestResumeRunJSONByteIdentical resumes a `run -json` journal both
// before its one job finished and after: either way resume prints the
// single JSON object `run -json` prints.
func TestResumeRunJSONByteIdentical(t *testing.T) {
	want, _, code := run(t, "run", "E3", "-json")
	if code != 0 {
		t.Fatalf("plain run exit %d", code)
	}
	w, err := harness.Lookup("E3")
	if err != nil {
		t.Fatal(err)
	}
	for nDone := 0; nDone <= 1; nDone++ {
		dir := t.TempDir()
		interrupted(t, dir, "run", []harness.Job{{Workload: w}}, true, nDone)
		got, errOut, code := run(t, "resume", "-journal", dir)
		if code != 0 {
			t.Fatalf("resume with %d done: exit %d: %s", nDone, code, errOut)
		}
		if got != want {
			t.Fatalf("resume with %d done differs from run -json:\n%q\n---\n%q", nDone, got, want)
		}
	}
}

func TestSweepResumeFlagContinuesInterrupted(t *testing.T) {
	want, _, code := run(t, "sweep", "-ids", "E1,E3", "-quick")
	if code != 0 {
		t.Fatalf("plain sweep exit %d", code)
	}
	dir := t.TempDir()
	interruptedSweep(t, dir, quickSweepJobs(t, "E1", "E3"), 1)
	got, errOut, code := run(t, "sweep", "-ids", "E1,E3", "-quick", "-journal", dir, "-resume")
	if code != 0 {
		t.Fatalf("sweep -resume exit %d: %s", code, errOut)
	}
	if got != want {
		t.Fatal("sweep -resume output differs from uninterrupted sweep")
	}
	if !strings.Contains(errOut, "resuming journal") {
		t.Fatalf("no resume note: %q", errOut)
	}
}

func TestResumePicksJournalByHashPrefix(t *testing.T) {
	dir := t.TempDir()
	hashA := interruptedSweep(t, dir, quickSweepJobs(t, "E1", "E3"), 1)
	interruptedSweep(t, dir, quickSweepJobs(t, "E1"), 0)

	// Ambiguous: two journals, no ref.
	_, errOut, code := run(t, "resume", "-journal", dir)
	if code == 0 || !strings.Contains(errOut, "hash prefix") {
		t.Fatalf("ambiguous resume not refused: exit %d, %q", code, errOut)
	}
	// A hash prefix disambiguates.
	_, errOut, code = run(t, "resume", "-journal", dir, hashA[:6])
	if code != 0 {
		t.Fatalf("resume by prefix exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, hashA) {
		t.Fatalf("resume picked the wrong journal: %q", errOut)
	}
}

func TestResumeRefusesForeignFingerprint(t *testing.T) {
	dir := t.TempDir()
	h := journalHeader("sweep", quickSweepJobs(t, "E1"), false)
	h.Fingerprint = "00000000deadbeef" // a binary this process is not
	j, err := journal.Create(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, errOut, code := run(t, "resume", "-journal", dir)
	if code == 0 {
		t.Fatal("journal from a foreign registry fingerprint resumed")
	}
	for _, want := range []string{"identity mismatch", "fingerprint"} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("refusal missing %q: %q", want, errOut)
		}
	}
}

// assertResumeRefusesOldJournal writes header, an old binary's journal
// header line, and demands that resume fail with the schema error and a
// rerun hint — not replay, and not report a hash mismatch.
func assertResumeRefusesOldJournal(t *testing.T, header string, schema int) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(journal.Path(dir, "0123456789abcdef"), []byte(header+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := run(t, "resume", "-journal", dir)
	if code == 0 || out != "" {
		t.Fatalf("schema-%d journal resumed: exit %d, stdout %q", schema, code, out)
	}
	if strings.Contains(errOut, "identity mismatch") {
		t.Fatalf("schema-%d journal reported as identity mismatch: %q", schema, errOut)
	}
	for _, want := range []string{fmt.Sprintf("schema %d", schema), "rerun"} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("refusal missing %q: %q", want, errOut)
		}
	}
}

// TestResumeRefusesSchema1Journal: the schema-1 binary's header still
// carries the engine shard count.
func TestResumeRefusesSchema1Journal(t *testing.T) {
	assertResumeRefusesOldJournal(t, `{"journal":1,"hash":"9efe483ee4461ab3","mode":"sweep","fingerprint":"05fa47753e0609c6","collectives":"fused","sim_shards":1,"jobs":[{"workload_id":"E1","params":{"quick":true}}],"time":"2026-10-01T12:00:00Z"}`, 1)
}

// TestResumeRefusesSchema2Journal: the schema-2 binary's header still
// carries the collective engine.
func TestResumeRefusesSchema2Journal(t *testing.T) {
	assertResumeRefusesOldJournal(t, `{"journal":2,"hash":"8edc9ab97393c0f5","mode":"sweep","fingerprint":"6174c616d146fa46","collectives":"fused","jobs":[{"workload_id":"E1","params":{"quick":true}}],"time":"2026-10-17T17:05:36.263960083Z"}`, 2)
}

// TestSweepBudgetExpiryKeepsJournalThenResumeCompletes closes the
// crash-safety loop on the -budget satellite: an expired budget kills
// the sweep but keeps the journal with a resume hint, and the resume
// produces the uninterrupted bytes.
func TestSweepBudgetExpiryKeepsJournalThenResumeCompletes(t *testing.T) {
	want, _, code := run(t, "sweep", "-ids", "E1,E3", "-quick")
	if code != 0 {
		t.Fatalf("plain sweep exit %d", code)
	}
	dir := t.TempDir()
	_, errOut, code := run(t, "sweep", "-ids", "E1,E3", "-quick", "-journal", dir, "-budget", "1ns")
	if code == 0 {
		t.Fatal("1ns budget did not kill the sweep")
	}
	for _, note := range []string{"journal kept", "hpcc resume -journal", "budget"} {
		if !strings.Contains(errOut, note) {
			t.Fatalf("budget-killed sweep stderr missing %q: %q", note, errOut)
		}
	}
	got, errOut, code := run(t, "resume", "-journal", dir)
	if code != 0 {
		t.Fatalf("resume after budget kill exit %d: %s", code, errOut)
	}
	if got != want {
		t.Fatal("resume after budget kill differs from uninterrupted sweep")
	}
}
