package harness

// The child-process transport of the wire protocol. `-shards N` is a
// RemoteExecutor whose Dial spawns a worker process and speaks the same
// protocol as the TCP fleet over the child's stdin and stdout: hello
// first, then windowed jobs, answers in completion order, heartbeats.
// Local shards therefore get the fleet's handshake, re-dispatch and
// respawn (through the redial loop) without a second dialect.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// waitDelay bounds how long a spawned worker may take to exit after its
// pipes close before it is killed.
const waitDelay = 10 * time.Second

// SpawnDial returns a RemoteExecutor.Dial that starts argv as a child
// process on every dial and carries the connection over the child's
// stdin and stdout. env entries are appended to the inherited
// environment, and the child inherits this process's stderr. The
// address is only a label for diagnostics: each dial, including a
// redial after a crash, spawns a fresh child. Closing the connection
// closes both pipes, waits up to 10 s for the child to exit, then kills
// it.
func SpawnDial(argv, env []string) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		if len(argv) == 0 {
			return nil, errors.New("harness: spawn dial has no worker command")
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		childIn, stdin, err := os.Pipe()
		if err != nil {
			return nil, fmt.Errorf("harness: worker %s: stdin pipe: %w", addr, err)
		}
		stdout, childOut, err := os.Pipe()
		if err != nil {
			childIn.Close()
			stdin.Close()
			return nil, fmt.Errorf("harness: worker %s: stdout pipe: %w", addr, err)
		}
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Env = append(os.Environ(), env...)
		cmd.Stdin, cmd.Stdout, cmd.Stderr = childIn, childOut, os.Stderr
		err = cmd.Start()
		// The child holds its own copies of its ends; closing ours lets
		// the child's exit read as EOF on stdout.
		childIn.Close()
		childOut.Close()
		if err != nil {
			stdin.Close()
			stdout.Close()
			return nil, fmt.Errorf("harness: start worker %s: %w", argv[0], err)
		}
		return &pipeConn{r: stdout, w: stdin, name: addr, close: func() error {
			// Closing stdin is the child's cue to finish and exit;
			// closing stdout unblocks our reader, and a child still
			// writing dies of the broken pipe instead of lingering.
			stdin.Close()
			stdout.Close()
			kill := time.AfterFunc(waitDelay, func() { cmd.Process.Kill() })
			defer kill.Stop()
			if err := cmd.Wait(); err != nil {
				return fmt.Errorf("harness: worker %s: %w", addr, err)
			}
			return nil
		}}, nil
	}
}

// StdioConn is the worker's side of a spawned connection: it reads r
// (the process's stdin) and writes w (its stdout). Closing it releases
// nothing — the stream ends when the parent closes its ends of the
// pipes. Deadlines reach r and w when they support them; the stdin of
// a spawned child does not, which the worker's handshake tolerates.
func StdioConn(r io.Reader, w io.Writer) net.Conn {
	return &pipeConn{r: r, w: w, name: "stdio", close: func() error { return nil }}
}

// pipeConn is a net.Conn over a reader/writer pair.
type pipeConn struct {
	r    io.Reader
	w    io.Writer
	name string

	once     sync.Once
	close    func() error
	closeErr error
}

func (c *pipeConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *pipeConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// Close runs the transport's close once; a concurrent second call waits
// for the first to finish.
func (c *pipeConn) Close() error {
	c.once.Do(func() { c.closeErr = c.close() })
	return c.closeErr
}

func (c *pipeConn) LocalAddr() net.Addr  { return pipeAddr(c.name) }
func (c *pipeConn) RemoteAddr() net.Addr { return pipeAddr(c.name) }

func (c *pipeConn) SetDeadline(t time.Time) error {
	return errors.Join(c.SetReadDeadline(t), c.SetWriteDeadline(t))
}

func (c *pipeConn) SetReadDeadline(t time.Time) error {
	if d, ok := c.r.(interface{ SetReadDeadline(time.Time) error }); ok {
		return d.SetReadDeadline(t)
	}
	return os.ErrNoDeadline
}

func (c *pipeConn) SetWriteDeadline(t time.Time) error {
	if d, ok := c.w.(interface{ SetWriteDeadline(time.Time) error }); ok {
		return d.SetWriteDeadline(t)
	}
	return os.ErrNoDeadline
}

// pipeAddr names a pipe connection's peer in diagnostics.
type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }
