// Package journal implements the crash-safe sweep journal: an fsync'd
// append-only JSONL file, one per sweep, keyed by the sweep's identity
// hash. The first line is a Header naming exactly what the sweep was —
// mode, registry fingerprint, collective/shard configuration, and the
// full (workload ID, canonical params) job list — and every line after
// it is one completed (index, Result) checkpoint, appended in index
// order through the harness assembler's in-order emit path.
//
// `hpcc resume` reopens the file, verifies the identity hash (a journal
// written by a different binary or a different job list is refused with
// ErrIdentityMismatch, never silently replayed), recovers a torn tail
// left by a crash mid-append (the partial last line is truncated with a
// warning, never a failure), and hands the completed indexes to a
// harness.JournalingExecutor as instant hits — so only the remainder
// runs, and the resumed output is byte-identical to an uninterrupted
// run.
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
)

// Schema is the journal file schema revision, recorded in every header.
// Revision 2 dropped the engine shard count from the header and its
// identity hash; Open refuses any other revision, so an older journal is
// rerun rather than replayed.
const Schema = 2

// keyHexLen is how many hex digits of the identity hash name a journal
// file — 64 bits, plenty against collision across one journal directory.
const keyHexLen = 16

// ErrIdentityMismatch reports a journal whose identity hash does not
// match what this binary would compute for the same sweep — a different
// registry fingerprint, job list, or collective/shard configuration.
// Replaying it could silently mix results from two different experiment
// definitions, so resume refuses instead.
var ErrIdentityMismatch = errors.New("journal: identity mismatch")

// ErrExists reports that a journal for this sweep identity already
// exists — the caller must either resume it or remove it, never
// silently append a second run into it.
var ErrExists = errors.New("journal: journal already exists")

// Job is one sweep point as the journal header records it: the workload
// by registry ID plus the exact Params. Resume rebuilds the real job
// list by looking each ID up in the live registry.
type Job struct {
	WorkloadID string         `json:"workload_id"`
	Params     harness.Params `json:"params"`
}

// Header is a journal's first line: the full identity of the sweep it
// checkpoints. Hash is the identity digest of the other fields; Open
// recomputes and verifies it, so a journal can never be replayed
// against a sweep it does not describe.
type Header struct {
	// Journal is the file schema revision (Schema).
	Journal int `json:"journal"`
	// Hash is the sweep identity digest (keyHexLen hex digits) and also
	// the journal's filename stem.
	Hash string `json:"hash"`
	// Mode records which command wrote the journal ("sweep", "report",
	// "run") so resume can render results the same way.
	Mode string `json:"mode"`
	// Fingerprint is the workload registry fingerprint of the writing
	// binary: same-registry enforcement, exactly like the fleet
	// handshake.
	Fingerprint string `json:"fingerprint"`
	// Collectives pins the nx collective mode the sweep ran under;
	// resume re-applies it so the remainder computes identical bytes.
	Collectives string `json:"collectives,omitempty"`
	// JSON records whether the interrupted command was asked for JSON
	// output; render-only, excluded from the identity hash.
	JSON bool `json:"json,omitempty"`
	// Jobs is the full sweep job list in dispatch order.
	Jobs []Job `json:"jobs"`
	// Time is when the journal was created; informational only.
	Time time.Time `json:"time"`
}

// Identity computes the header's identity digest over everything that
// determines the sweep's bytes: mode, registry fingerprint, collective
// mode, and the ordered (workload ID, canonical params)
// job list. Render-only fields (JSON, Time) are excluded.
func (h Header) Identity() string {
	sum := sha256.New()
	io.WriteString(sum, "hpcc-journal\x00")
	io.WriteString(sum, h.Mode)
	io.WriteString(sum, "\x00")
	io.WriteString(sum, h.Fingerprint)
	io.WriteString(sum, "\x00")
	io.WriteString(sum, h.Collectives)
	io.WriteString(sum, "\x00")
	for _, j := range h.Jobs {
		io.WriteString(sum, j.WorkloadID)
		io.WriteString(sum, "\x00")
		io.WriteString(sum, j.Params.Canonical())
		io.WriteString(sum, "\x00")
	}
	return hex.EncodeToString(sum.Sum(nil))[:keyHexLen]
}

// entry is one checkpoint line: a completed job index and its result.
type entry struct {
	Index  int            `json:"index"`
	Result harness.Result `json:"result"`
}

// Path returns the journal file a sweep with the given identity hash
// lives at inside dir.
func Path(dir, hash string) string {
	return filepath.Join(dir, hash+".jsonl")
}

// List returns the journal files in dir, sorted by name. A missing
// directory is an empty list, not an error.
func List(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("journal: list %s: %w", dir, err)
	}
	sort.Strings(matches)
	return matches, nil
}

// Journal is an open sweep journal positioned for appending. It
// implements harness.JournalSink.
type Journal struct {
	path   string
	f      *os.File
	header Header
}

// Create starts a fresh journal for h inside dir (created if missing).
// h.Hash is computed here; the header line is written and fsync'd before
// Create returns, so even an immediately-crashed sweep leaves a
// resumable (if empty) journal. A journal for the same identity already
// on disk fails with ErrExists — the caller decides whether to resume
// or remove it.
func Create(dir string, h Header) (*Journal, error) {
	h.Journal = Schema
	h.Hash = h.Identity()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	path := Path(dir, h.Hash)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("%w: %s", ErrExists, path)
		}
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	b, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: encode header: %w", err)
	}
	b = append(b, '\n')
	if _, err := f.Write(b); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: write header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: sync header: %w", err)
	}
	return &Journal{path: path, f: f, header: h}, nil
}

// Open reopens an existing journal for resuming: it verifies the header
// against its own identity hash, replays the checkpoint entries into an
// index → Result map, recovers a torn final line (truncating it with a
// note on warn — a crash mid-append must never make a journal
// unresumable), and leaves the file positioned for appending. A missing
// file propagates fs.ErrNotExist.
func Open(path string, warn io.Writer) (*Journal, Header, map[int]harness.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Header{}, nil, fmt.Errorf("journal: open: %w", err)
	}

	lines, torn, tornOff := splitJournal(data)
	if len(lines) == 0 {
		return nil, Header{}, nil, fmt.Errorf("journal: %s is empty", path)
	}

	var h Header
	if err := json.Unmarshal(lines[0], &h); err != nil {
		return nil, Header{}, nil, fmt.Errorf("journal: %s: bad header: %w", path, err)
	}
	if h.Journal != Schema {
		return nil, Header{}, nil, fmt.Errorf("journal: %s has schema %d, this binary speaks %d (rerun the sweep instead of resuming)", path, h.Journal, Schema)
	}
	if want := h.Identity(); h.Hash != want {
		return nil, Header{}, nil, fmt.Errorf("%w: %s records hash %s but its contents hash to %s", ErrIdentityMismatch, path, h.Hash, want)
	}

	done := make(map[int]harness.Result, len(lines)-1)
	for n, line := range lines[1:] {
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, Header{}, nil, fmt.Errorf("journal: %s: bad entry on line %d: %w", path, n+2, err)
		}
		if e.Index < 0 || e.Index >= len(h.Jobs) {
			return nil, Header{}, nil, fmt.Errorf("journal: %s: entry index %d out of range [0,%d)", path, e.Index, len(h.Jobs))
		}
		done[e.Index] = e.Result
	}

	if torn {
		// A crash mid-append left a partial line. The entries before it
		// are intact; drop the fragment so the next append starts clean.
		if warn != nil {
			fmt.Fprintf(warn, "journal: recovered torn tail in %s (dropped %d-byte partial entry)\n", path, len(data)-tornOff)
		}
		if err := os.Truncate(path, int64(tornOff)); err != nil {
			return nil, Header{}, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, Header{}, nil, fmt.Errorf("journal: reopen for append: %w", err)
	}
	return &Journal{path: path, f: f, header: h}, h, done, nil
}

// splitJournal cuts a journal file into its complete lines, detecting a
// torn tail: a final line with no terminating newline that also fails
// to parse as JSON. A final line that parses but merely lacks its
// newline (crash between write and the '\n' landing is impossible here
// since entries are written in one piece, but be liberal) is kept as a
// complete line. Returns the lines, whether a torn fragment was found,
// and the byte offset the file should be truncated to.
func splitJournal(data []byte) (lines [][]byte, torn bool, tornOff int) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			frag := bytes.TrimSpace(data[off:])
			if len(frag) > 0 && json.Valid(frag) {
				lines = append(lines, frag)
				return lines, false, len(data)
			}
			return lines, len(frag) > 0, off
		}
		line := bytes.TrimSpace(data[off : off+nl])
		if len(line) > 0 {
			lines = append(lines, line)
		}
		off += nl + 1
	}
	return lines, false, len(data)
}

// Record implements harness.JournalSink: one checkpoint line, written in
// a single Write call and fsync'd before returning, so a result the
// sweep has surfaced is always durable.
func (j *Journal) Record(index int, res harness.Result) error {
	b, err := json.Marshal(entry{Index: index, Result: res})
	if err != nil {
		return fmt.Errorf("journal: encode entry %d: %w", index, err)
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("journal: append entry %d: %w", index, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync entry %d: %w", index, err)
	}
	return nil
}

// Header returns the journal's header.
func (j *Journal) Header() Header { return j.header }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the file without removing it — the journal stays on
// disk for a later resume.
func (j *Journal) Close() error { return j.f.Close() }

// Remove closes and deletes the journal — the sweep completed, so the
// checkpoint has served its purpose.
func (j *Journal) Remove() error {
	j.f.Close()
	if err := os.Remove(j.path); err != nil {
		return fmt.Errorf("journal: remove: %w", err)
	}
	return nil
}

// Describe renders a short human identity of a journal header for
// listings and hints: hash, mode, and job count.
func (h Header) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %-6s  %d jobs", h.Hash, h.Mode, len(h.Jobs))
	if !h.Time.IsZero() {
		fmt.Fprintf(&b, "  %s", h.Time.UTC().Format(time.RFC3339))
	}
	return b.String()
}
