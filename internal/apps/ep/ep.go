// Package ep implements the "embarrassingly parallel" kernel of the 1992
// NAS Parallel Benchmarks — NASA's own yardstick for the HPCC testbeds the
// paper describes. Each process generates batches of pseudo-random numbers
// with the NPB linear congruential generator, forms Gaussian deviates by
// the Marsaglia polar method, and tallies them into ten annular bins; a
// final reduction combines the counts. The only communication is the final
// allreduce, which is why EP bounds the achievable speedup of a machine.
package ep

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/nx"
)

// NPB linear congruential generator constants: x' = a*x mod 2^46.
const (
	lcgA        = 1220703125 // 5^13
	lcgMod      = 1 << 46
	defaultSeed = 271828183
)

// lcg holds the generator state.
type lcg struct{ x uint64 }

// next returns a uniform deviate in (0, 1).
func (g *lcg) next() float64 {
	g.x = (g.x * lcgA) % lcgMod
	return float64(g.x) / float64(lcgMod)
}

// skipTo positions the generator at the k-th element of the stream by
// computing a^k mod 2^46 with binary exponentiation — the trick that makes
// EP perfectly partitionable with no communication.
func skipTo(seed uint64, k uint64) lcg {
	a := uint64(lcgA)
	x := seed
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			x = (x * a) % lcgMod
		}
		a = (a * a) % lcgMod
	}
	return lcg{x: x}
}

// Result holds the EP tallies: Gaussian-pair counts per annulus plus the
// sums of the deviates, which the NPB verification compares.
type Result struct {
	Counts [10]float64
	SumX   float64
	SumY   float64
	Pairs  float64
}

// merge adds other's tallies into r.
func (r *Result) merge(o *Result) {
	for i := range r.Counts {
		r.Counts[i] += o.Counts[i]
	}
	r.SumX += o.SumX
	r.SumY += o.SumY
	r.Pairs += o.Pairs
}

// generate tallies pairs [lo, hi) of the stream.
func generate(seed uint64, lo, hi uint64) *Result {
	g := skipTo(seed, 2*lo)
	var res Result
	for k := lo; k < hi; k++ {
		u1 := 2*g.next() - 1
		u2 := 2*g.next() - 1
		t := u1*u1 + u2*u2
		if t > 1 || t == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(t) / t)
		x, y := u1*f, u2*f
		res.SumX += x
		res.SumY += y
		res.Pairs++
		m := math.Max(math.Abs(x), math.Abs(y))
		bin := int(m)
		if bin > 9 {
			bin = 9
		}
		res.Counts[bin]++
	}
	return &res
}

// Serial runs EP over n pairs in one process.
func Serial(n uint64) *Result {
	return generate(defaultSeed, 0, n)
}

// flopsPerPair is the operation count charged per candidate pair (two LCG
// steps, the polar test, and the occasional transform).
const flopsPerPair = 18

// Config describes a distributed run.
type Config struct {
	N       uint64 // number of candidate pairs
	Procs   int
	Model   machine.Model
	Phantom bool
	// Ctx, if non-nil, cancels the run: the simulation tears down at the
	// next collective boundary and the run returns Ctx.Err() instead of
	// an outcome. A nil Ctx preserves run-to-completion behavior.
	Ctx context.Context
}

// Outcome reports a distributed run.
type Outcome struct {
	Result *Result // nil in phantom mode
	Time   float64
	Run    *nx.Result
}

// Distributed runs EP across procs processes: each generates its contiguous
// share of the stream (positioned by LCG skip-ahead) and a tree allreduce
// combines the 13 tallies.
func Distributed(cfg Config) (*Outcome, error) {
	if cfg.N == 0 {
		return nil, errors.New("ep: N must be positive")
	}
	p := cfg.Procs
	if p == 0 {
		p = cfg.Model.Nodes()
	}
	if p < 1 || p > cfg.Model.Nodes() {
		return nil, fmt.Errorf("ep: Procs=%d invalid for %d-node model", p, cfg.Model.Nodes())
	}

	var final *Result
	times := make([]float64, p)
	res, err := nx.Run(nx.Config{Model: cfg.Model, Procs: p, Ctx: cfg.Ctx}, func(proc *nx.Proc) {
		rank := uint64(proc.Rank())
		per := cfg.N / uint64(p)
		lo := rank * per
		hi := lo + per
		if rank == uint64(p-1) {
			hi = cfg.N
		}
		proc.Compute(machine.OpScalar, flopsPerPair*float64(hi-lo))

		g := proc.World()
		if cfg.Phantom {
			// same communication as the real reduction: 13 float64s
			g.ReducePhantom(0, 13*8)
			g.BcastPhantom(0, 13*8)
		} else {
			local := generate(defaultSeed, lo, hi)
			packed := make([]float64, 13)
			copy(packed, local.Counts[:])
			packed[10], packed[11], packed[12] = local.SumX, local.SumY, local.Pairs
			out := g.AllreduceFloats(packed, nx.SumOp)
			if proc.Rank() == 0 {
				r := &Result{SumX: out[10], SumY: out[11], Pairs: out[12]}
				copy(r.Counts[:], out[:10])
				final = r
			}
		}
		times[proc.Rank()] = proc.Now()
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{Result: final, Run: res}
	for _, t := range times {
		if t > out.Time {
			out.Time = t
		}
	}
	return out, nil
}
