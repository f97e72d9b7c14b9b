package harness

// The server side of the remote fleet: the JSONL wire protocol of
// wire.go, with a connect-time handshake and periodic heartbeats, served
// on a TCP listener (`hpcc worker -listen addr`) or on a spawned child's
// stdin/stdout (`hpcc worker`, the -shards transport) — the paper's
// farm-of-cheap-workers model cashed out over commodity networking, per
// the cluster-computing successor architecture: any machine that can
// reach the address can farm jobs to it, provided its binary carries the
// same workload registry at the same kernel versions.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Remote protocol timing defaults, shared by both ends so an executor
// with default settings never evicts a worker with default settings on
// an idle-but-healthy connection.
const (
	// DefaultHeartbeatInterval is how often a remote worker proves
	// liveness while a connection is open.
	DefaultHeartbeatInterval = 2 * time.Second
	// DefaultHeartbeatTimeout is how long an executor waits for any
	// frame (result or heartbeat) before declaring a worker dead.
	DefaultHeartbeatTimeout = 15 * time.Second
	// DefaultHandshakeTimeout bounds the hello exchange at connect.
	DefaultHandshakeTimeout = 10 * time.Second
)

// RemoteWorkerServer serves sweep jobs over connections. Each
// connection is handshaken (registry fingerprint + kernel versions; a
// mismatched executor is refused), then jobs stream in as WireJob
// frames and answers stream out as WireResponse frames in completion
// order — the executor pipelines a small window per connection, so jobs
// run concurrently on their own goroutines. A heartbeat frame goes out
// every HeartbeatInterval, which is what lets the executor distinguish
// a long-running job from a dead worker.
type RemoteWorkerServer struct {
	// Registry resolves workload IDs; nil means the Default registry.
	Registry *Registry
	// HeartbeatInterval overrides DefaultHeartbeatInterval; <= 0 keeps
	// the default.
	HeartbeatInterval time.Duration
	// HandshakeTimeout overrides DefaultHandshakeTimeout; <= 0 keeps
	// the default.
	HandshakeTimeout time.Duration
	// Token, when non-empty, is the shared fleet auth token: an executor
	// whose hello carries a different token digest (or none) is refused
	// at handshake with ErrTokenMismatch.
	Token string
	// DrainGrace is how long open connections may keep finishing
	// in-flight jobs after Serve's context is cancelled: the listener
	// closes immediately (no new executors admitted), but connection
	// contexts survive up to this long so answers already being computed
	// still flush instead of being torn mid-write. <= 0 means no grace —
	// cancellation kills connections at once, the historical behavior.
	DrainGrace time.Duration
	// Stderr receives per-connection failure notes; nil discards them.
	Stderr io.Writer
}

func (s *RemoteWorkerServer) reg() *Registry {
	if s.Registry != nil {
		return s.Registry
	}
	return Default
}

func (s *RemoteWorkerServer) heartbeatInterval() time.Duration {
	if s.HeartbeatInterval > 0 {
		return s.HeartbeatInterval
	}
	return DefaultHeartbeatInterval
}

func (s *RemoteWorkerServer) handshakeTimeout() time.Duration {
	if s.HandshakeTimeout > 0 {
		return s.HandshakeTimeout
	}
	return DefaultHandshakeTimeout
}

// Serve accepts connections on ln until ctx is cancelled or the
// listener fails. Cancellation closes ln immediately; open connections
// then either die at once (DrainGrace <= 0) or drain — they keep
// finishing in-flight jobs for up to DrainGrace before their contexts
// cancel. Each connection is served on its own goroutines; Serve
// returns only after they have all wound down.
func (s *RemoteWorkerServer) Serve(ctx context.Context, ln net.Listener) error {
	ctx, cancel := context.WithCancel(ctx)
	// Connections run under the drained context so they outlive ctx by
	// the grace period; the listener stays on ctx so no new executor is
	// admitted once shutdown begins.
	connCtx, stopDrain := WithDrain(ctx, s.DrainGrace)
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()

	// Teardown order matters: cancelling first starts the drain clock
	// (and, with no grace, closes the open connections via each
	// ServeConn's AfterFunc), so the wait can actually finish; stopDrain
	// runs only after the wait, or it would kill the drain it grants.
	var wg sync.WaitGroup
	defer stopDrain()
	defer wg.Wait()
	defer cancel()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("harness: remote worker accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.ServeConn(connCtx, conn); err != nil && ctx.Err() == nil && s.Stderr != nil {
				fmt.Fprintf(s.Stderr, "hpcc worker: connection %s: %v\n", conn.RemoteAddr(), err)
			}
		}()
	}
}

// ServeConn serves one executor connection: handshake, then a read loop
// dispatching each job to its own goroutine while a heartbeat ticker
// shares the write side. The connection's jobs are cancelled as soon as
// the connection dies — an executor that vanished is not waited for —
// and a malformed job frame is a protocol breach that ends it. Serve
// runs it per accepted TCP connection; a spawned `hpcc worker` runs it
// once on StdioConn.
func (s *RemoteWorkerServer) ServeConn(ctx context.Context, conn net.Conn) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	fr := newFrameReader(conn)
	// A spawned worker's stdin takes no deadline; the error is ignored
	// and the parent's own handshake deadline bounds the exchange.
	conn.SetReadDeadline(time.Now().Add(s.handshakeTimeout())) //lint:ignore hpccdet socket deadlines are wall-clock I/O plumbing, not simulated time
	line, err := fr.next()
	if err != nil {
		return fmt.Errorf("read hello: %w", err)
	}
	remote, err := DecodeWireHello(line)
	if err != nil {
		return err
	}
	local := HelloFor(s.reg(), RoleWorker)
	local.TokenDigest = TokenDigest(s.Token)
	// Answer with our hello even when refusing: the executor derives the
	// same mismatch from the pair and reports it with both versions.
	w := &lockedWriter{w: conn}
	if err := EncodeWire(w, local); err != nil {
		return fmt.Errorf("send hello: %w", err)
	}
	if err := CheckHello(local, remote); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Time{})

	// Heartbeats prove liveness while jobs run; they stop with the
	// connection's context. Teardown must cancel *before* waiting — a
	// dying connection's heartbeat ticker and in-flight jobs only stop
	// once the per-connection context does.
	var hb, jobs sync.WaitGroup
	defer func() {
		cancel()
		jobs.Wait()
		hb.Wait()
	}()
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(s.heartbeatInterval())
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if err := EncodeWire(w, WireResponse{Heartbeat: true}); err != nil {
					cancel()
					return
				}
			}
		}
	}()

	for {
		line, err := fr.next()
		if err != nil {
			jobs.Wait()
			if errors.Is(err, io.EOF) || ctx.Err() != nil {
				return nil // executor finished (or the server is stopping)
			}
			return fmt.Errorf("read job: %w", err)
		}
		job, err := DecodeWireJob(line)
		if err != nil {
			return err // protocol breach: kill the connection
		}
		jobs.Add(1)
		go func(job WireJob) {
			defer jobs.Done()
			out := runWireJob(ctx, s.reg(), job)
			if ctx.Err() != nil {
				// The connection (or server) is shutting down, so this
				// outcome may be a casualty of our own teardown. Stay
				// silent: reporting it as a workload error would fail the
				// executor's sweep permanently, when re-dispatching the
				// job to a surviving worker is the right outcome.
				return
			}
			if err := EncodeWire(w, WireResponse{WireResult: out}); err != nil {
				cancel()
			}
		}(job)
	}
}

// lockedWriter serializes Write calls from a connection's heartbeat
// ticker and job goroutines onto one destination.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
