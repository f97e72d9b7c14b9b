package harness

// Native fuzz targets for the wire decoders — the code that reads what
// worker processes and remote peers send. Each target checks three
// properties: no input panics, every failure is a typed error
// (ErrBadFrame, ErrTruncatedFrame, io.EOF or ErrTokenMismatch as the
// target allows), and a decoded frame survives EncodeWire and a second
// decode unchanged. Seed corpora live in testdata/fuzz/<target>; plain
// `go test` replays them, and `go test -run '^$' -fuzz '^FuzzX$'`
// explores from them.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"
)

// checkRoundTrip encodes a decoded frame, decodes that, and encodes
// again: both encodings must match, so the value crosses the wire
// unchanged.
func checkRoundTrip[T any](t *testing.T, v T, decode func([]byte) (T, error)) {
	t.Helper()
	var first, second bytes.Buffer
	if err := EncodeWire(&first, v); err != nil {
		t.Fatalf("encode %+v: %v", v, err)
	}
	again, err := decode(bytes.TrimSuffix(first.Bytes(), []byte("\n")))
	if err != nil {
		t.Fatalf("decode of re-encoded %q: %v", first.Bytes(), err)
	}
	if err := EncodeWire(&second, again); err != nil {
		t.Fatalf("encode %+v: %v", again, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip changed the frame:\n%s%s", first.Bytes(), second.Bytes())
	}
}

// requireBadFrame fails unless err is a typed protocol breach.
func requireBadFrame(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("untyped decode error %T: %v", err, err)
	}
}

func FuzzFrameReader(f *testing.F) {
	f.Add([]byte("{\"index\":0}\n\n  \n{\"heartbeat\":true}\r\n"))
	f.Add([]byte(`{"index":0,"result":{"workl`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var frames [][]byte
		fr := newFrameReader(bytes.NewReader(data))
		var err error
		for {
			var line []byte
			if line, err = fr.next(); err != nil {
				break
			}
			if len(line) == 0 || bytes.IndexByte(line, '\n') >= 0 || !bytes.Equal(line, bytes.TrimSpace(line)) {
				t.Fatalf("frame not trimmed to one non-blank line: %q", line)
			}
			frames = append(frames, append([]byte(nil), line...))
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrBadFrame) {
			t.Fatalf("untyped frame error %T: %v", err, err)
		}
		// Re-framing the frames reads them back exactly, ending in a
		// clean EOF.
		var joined bytes.Buffer
		for _, fm := range frames {
			joined.Write(fm)
			joined.WriteByte('\n')
		}
		fr = newFrameReader(&joined)
		for i, want := range frames {
			got, err := fr.next()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("re-read frame %d: got %q, %v; want %q", i, got, err, want)
			}
		}
		if _, err := fr.next(); !errors.Is(err, io.EOF) {
			t.Fatalf("re-read stream did not end cleanly: %v", err)
		}
	})
}

func FuzzDecodeWireJob(f *testing.F) {
	f.Add([]byte(`{"index":3,"workload_id":"E4","params":{"quick":true,"seed":7,"values":{"nb":"16"}}}`))
	f.Add([]byte(`{"index":-1,"workload_id":"x","params":{}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		j, err := DecodeWireJob(line)
		if err != nil {
			requireBadFrame(t, err)
			return
		}
		if j.Index < 0 || j.WorkloadID == "" {
			t.Fatalf("invalid job accepted: %+v", j)
		}
		checkRoundTrip(t, j, DecodeWireJob)
	})
}

func FuzzDecodeWireResponse(f *testing.F) {
	f.Add([]byte(`{"heartbeat":true}`))
	f.Add([]byte(`{"index":2,"result":{"workload":"E1","text":"t\n","metrics":[{"name":"gflops","value":13.9,"unit":"GFLOPS"}]}}`))
	f.Add([]byte(`{"index":1,"error":"boom","panic":true}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		r, err := DecodeWireResponse(line)
		if err != nil {
			requireBadFrame(t, err)
			return
		}
		if !r.Heartbeat {
			if r.Index < 0 || (r.Result == nil) == (r.Error == "") {
				t.Fatalf("invalid result accepted: %+v", r)
			}
			if _, err := DecodeWireResult(line); err != nil {
				t.Fatalf("response decoded but its result did not: %v", err)
			}
		}
		checkRoundTrip(t, r, DecodeWireResponse)
	})
}

func FuzzDecodeWireHello(f *testing.F) {
	reg := NewRegistry()
	if err := reg.Register(echo("w/echo")); err != nil {
		f.Fatal(err)
	}
	local := HelloFor(reg, RoleExecutor)
	var seed bytes.Buffer
	if err := EncodeWire(&seed, HelloFor(reg, RoleWorker)); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.TrimSpace(seed.Bytes()))
	f.Add([]byte(`{"proto":1,"fingerprint":"abc","token_digest":"00"}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		h, err := DecodeWireHello(line)
		if err != nil {
			requireBadFrame(t, err)
			return
		}
		if h.Proto < 1 || h.Fingerprint == "" {
			t.Fatalf("invalid hello accepted: %+v", h)
		}
		checkRoundTrip(t, h, DecodeWireHello)
		if err := CheckHello(h, h); err != nil {
			t.Fatalf("hello refused itself: %v", err)
		}
		err = CheckHello(local, h)
		if tokenDiffers := h.TokenDigest != local.TokenDigest; tokenDiffers != errors.Is(err, ErrTokenMismatch) {
			t.Fatalf("token digests differ=%v, but CheckHello said %v", tokenDiffers, err)
		}
		if err == nil && (h.Proto != local.Proto || h.Fingerprint != local.Fingerprint) {
			t.Fatalf("incompatible hello accepted: %+v", h)
		}
	})
}

// FuzzResponseTracker feeds a response stream to a tracker over n jobs
// of which the sends bytes dispatched some: an answer must be accepted
// exactly when its job is outstanding, and pending must always list the
// outstanding set.
func FuzzResponseTracker(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2}, []byte("{\"index\":1,\"error\":\"x\"}\n{\"heartbeat\":true}\n{\"index\":1,\"error\":\"x\"}\n{\"index\":3,\"error\":\"x\"}\n{\"index\":9,\"error\":\"x\"}\n"))
	f.Fuzz(func(t *testing.T, n8 uint8, sends, stream []byte) {
		n := int(n8)%64 + 1
		tr := newResponseTracker(n)
		outstanding := map[int]bool{}
		for _, b := range sends {
			i := int(b) % n
			tr.sent(i)
			outstanding[i] = true
		}
		fr := newFrameReader(bytes.NewReader(stream))
		for {
			line, err := fr.next()
			if err != nil {
				return
			}
			resp, err := DecodeWireResponse(line)
			if err != nil {
				requireBadFrame(t, err)
				continue
			}
			checkRoundTrip(t, resp, DecodeWireResponse)
			if resp.Heartbeat {
				continue
			}
			err = tr.answer(resp.Index)
			if want := outstanding[resp.Index]; (err == nil) != want {
				t.Fatalf("answer(%d) = %v, want accepted=%v", resp.Index, err, want)
			}
			if err != nil {
				requireBadFrame(t, err)
			}
			delete(outstanding, resp.Index)
			var want []int
			for i := range outstanding {
				want = append(want, i)
			}
			sort.Ints(want)
			if got := tr.pending(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("pending = %v, want %v", got, want)
			}
		}
	})
}
