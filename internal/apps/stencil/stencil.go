// Package stencil implements the computational-aerosciences workload of the
// CAS consortium exhibits: an iterative 2D Laplace solver (Jacobi
// relaxation), the inner kernel of 1992 CFD relaxation codes. A serial
// reference validates the distributed version, which decomposes the grid by
// rows with halo exchange on the nx runtime.
package stencil

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/nx"
)

// Boundary temperatures of the heated-plate problem: the top edge is held
// at Hot, the other three at zero.
const Hot = 100.0

// SolveSerial runs iters Jacobi sweeps on an nxCells x nyCells interior
// grid (plus fixed boundary) and returns the final interior values in
// row-major order (ny rows of nx values).
func SolveSerial(nxCells, nyCells, iters int) []float64 {
	if nxCells < 1 || nyCells < 1 || iters < 0 {
		panic("stencil: invalid serial dimensions")
	}
	w := nxCells + 2
	h := nyCells + 2
	cur := make([]float64, w*h)
	next := make([]float64, w*h)
	for x := 0; x < w; x++ {
		cur[x] = Hot // top boundary row
		next[x] = Hot
	}
	for it := 0; it < iters; it++ {
		for y := 1; y <= nyCells; y++ {
			for x := 1; x <= nxCells; x++ {
				next[y*w+x] = 0.25 * (cur[(y-1)*w+x] + cur[(y+1)*w+x] +
					cur[y*w+x-1] + cur[y*w+x+1])
			}
		}
		cur, next = next, cur
	}
	out := make([]float64, nxCells*nyCells)
	for y := 0; y < nyCells; y++ {
		copy(out[y*nxCells:(y+1)*nxCells], cur[(y+1)*w+1:(y+1)*w+1+nxCells])
	}
	return out
}

// Config describes a distributed run.
type Config struct {
	NX, NY  int // interior grid cells
	Iters   int
	Procs   int // row-decomposition factor; 0 means all model nodes
	Model   machine.Model
	Phantom bool
	// Ctx, if non-nil, cancels the run: the simulation tears down at the
	// next collective boundary and the run returns Ctx.Err() instead of
	// an outcome. A nil Ctx preserves run-to-completion behavior.
	Ctx context.Context
}

// Outcome reports a distributed run.
type Outcome struct {
	Grid   []float64 // interior values, row-major (nil in phantom mode)
	Time   float64   // virtual seconds
	Result *nx.Result
}

// rowsFor splits ny rows contiguously over p processes: the first ny%p
// processes get one extra row.
func rowsFor(ny, p, rank int) (start, count int) {
	base := ny / p
	extra := ny % p
	count = base
	if rank < extra {
		count++
		start = rank * count
	} else {
		start = extra*(base+1) + (rank-extra)*base
	}
	return start, count
}

// Tags for halo exchange and gather.
const (
	tagUp     nx.Tag = 10
	tagDown   nx.Tag = 11
	tagGather nx.Tag = 12
)

// RunDistributed executes the Jacobi solver on the nx runtime and, in real
// mode, gathers the final grid to rank 0.
func RunDistributed(cfg Config) (*Outcome, error) {
	if cfg.NX < 1 || cfg.NY < 1 || cfg.Iters < 0 {
		return nil, errors.New("stencil: invalid grid configuration")
	}
	p := cfg.Procs
	if p == 0 {
		p = cfg.Model.Nodes()
	}
	if p < 1 || p > cfg.Model.Nodes() {
		return nil, fmt.Errorf("stencil: Procs=%d invalid for %d-node model", p, cfg.Model.Nodes())
	}
	if p > cfg.NY {
		return nil, fmt.Errorf("stencil: more processes (%d) than grid rows (%d)", p, cfg.NY)
	}

	var final []float64
	times := make([]float64, p)
	res, err := nx.Run(nx.Config{Model: cfg.Model, Procs: p, Ctx: cfg.Ctx}, func(proc *nx.Proc) {
		rank := proc.Rank()
		rowStart, myRows := rowsFor(cfg.NY, p, rank)
		w := cfg.NX + 2
		rowBytes := 8 * w

		var cur, next []float64
		if !cfg.Phantom {
			cur = make([]float64, (myRows+2)*w)
			next = make([]float64, (myRows+2)*w)
			if rowStart == 0 { // global top boundary lives in my halo row
				for x := 0; x < w; x++ {
					cur[x] = Hot
					next[x] = Hot
				}
			}
		}

		up, down := rank-1, rank+1
		for it := 0; it < cfg.Iters; it++ {
			// halo exchange: first interior row up, last interior row down
			if up >= 0 {
				if cfg.Phantom {
					proc.SendPhantom(up, tagUp, rowBytes)
				} else {
					proc.SendFloats(up, tagUp, cur[w:2*w])
				}
			}
			if down < p {
				if cfg.Phantom {
					proc.SendPhantom(down, tagDown, rowBytes)
				} else {
					proc.SendFloats(down, tagDown, cur[myRows*w:(myRows+1)*w])
				}
			}
			if down < p {
				m := proc.Recv(down, tagUp)
				if !cfg.Phantom {
					copy(cur[(myRows+1)*w:(myRows+2)*w], m.Floats)
				}
			}
			if up >= 0 {
				m := proc.Recv(up, tagDown)
				if !cfg.Phantom {
					copy(cur[0:w], m.Floats)
				}
			}
			// sweep: 4 flops per interior cell
			proc.Compute(machine.OpVector, 4*float64(myRows)*float64(cfg.NX))
			if !cfg.Phantom {
				for y := 1; y <= myRows; y++ {
					for x := 1; x <= cfg.NX; x++ {
						next[y*w+x] = 0.25 * (cur[(y-1)*w+x] + cur[(y+1)*w+x] +
							cur[y*w+x-1] + cur[y*w+x+1])
					}
				}
				// keep fixed boundary columns and the global top row intact
				cur, next = next, cur
				if rowStart == 0 {
					for x := 0; x < w; x++ {
						cur[x] = Hot
					}
				}
			}
		}
		times[rank] = proc.Now()

		if cfg.Phantom {
			return
		}
		// gather interior rows to rank 0
		mine := make([]float64, myRows*cfg.NX)
		for y := 0; y < myRows; y++ {
			copy(mine[y*cfg.NX:(y+1)*cfg.NX], cur[(y+1)*w+1:(y+1)*w+1+cfg.NX])
		}
		if rank != 0 {
			proc.SendFloats(0, tagGather, mine)
			return
		}
		final = make([]float64, cfg.NX*cfg.NY)
		copy(final, mine)
		for r := 1; r < p; r++ {
			rs, rc := rowsFor(cfg.NY, p, r)
			part := proc.RecvFloats(r, tagGather)
			copy(final[rs*cfg.NX:(rs+rc)*cfg.NX], part)
		}
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{Grid: final, Result: res}
	for _, t := range times {
		if t > out.Time {
			out.Time = t
		}
	}
	return out, nil
}

// ScalingPoint is one row of a strong-scaling experiment.
type ScalingPoint struct {
	Procs      int
	Time       float64
	Speedup    float64
	Efficiency float64
}

// StrongScaling runs the solver in phantom mode at fixed problem size for
// each process count and reports speedup relative to the first entry.
func StrongScaling(model machine.Model, nxCells, nyCells, iters int, procs []int) ([]ScalingPoint, error) {
	var out []ScalingPoint
	var t1 float64
	for i, p := range procs {
		o, err := RunDistributed(Config{
			NX: nxCells, NY: nyCells, Iters: iters,
			Procs: p, Model: model, Phantom: true,
		})
		if err != nil {
			return nil, err
		}
		pt := ScalingPoint{Procs: p, Time: o.Time}
		if i == 0 {
			t1 = o.Time * float64(procs[0]) // normalize to 1-proc equivalent
		}
		pt.Speedup = t1 / o.Time
		pt.Efficiency = pt.Speedup / float64(p)
		out = append(out, pt)
	}
	return out, nil
}
