// Package cg implements a conjugate-gradient solver for the 2D Poisson
// problem — the sparse iterative-solver workload of the Grand Challenge
// list (reservoir models, structural analysis, device simulation all
// reduced to SPD solves in 1992). The distributed version partitions the
// grid by rows: each iteration costs one halo exchange (matrix-vector
// product) and two allreduces (the dot products), making CG the classic
// latency-bound counterpoint to the dense LINPACK kernel.
package cg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/nx"
)

// matvec5 computes y = A*x for the 5-point Laplacian on an n x n grid with
// Dirichlet (zero) exterior, rows [r0, r1) of the grid, where x carries one
// halo row on each side (x[0:n] is the row above r0, x[(1+i)*n:...] is row
// r0+i). y has (r1-r0)*n entries.
func matvec5(n, r0, r1 int, x, y []float64) {
	rows := r1 - r0
	for i := 0; i < rows; i++ {
		up := x[i*n : (i+1)*n]
		mid := x[(i+1)*n : (i+2)*n]
		down := x[(i+2)*n : (i+3)*n]
		out := y[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			v := 4 * mid[j]
			if j > 0 {
				v -= mid[j-1]
			}
			if j < n-1 {
				v -= mid[j+1]
			}
			v -= up[j]
			v -= down[j]
			out[j] = v
		}
	}
}

// flopsPerCell is the operation count charged per grid cell per matvec.
const flopsPerCell = 8

// SolveSerial runs CG on the n x n Poisson problem with right-hand side
// b = A*ones (exact solution: all ones), stopping after maxIters
// iterations or when the residual 2-norm drops below tol. It returns the
// solution, the final residual norm and the iterations used.
func SolveSerial(n, maxIters int, tol float64) (x []float64, residual float64, iters int) {
	if n < 2 {
		panic("cg: grid must be at least 2x2")
	}
	cells := n * n
	x = make([]float64, cells)
	ones := make([]float64, cells)
	for i := range ones {
		ones[i] = 1
	}
	b := applyFull(n, ones)
	r := append([]float64(nil), b...) // x0 = 0 -> r = b
	p := append([]float64(nil), r...)
	ap := make([]float64, cells)
	rr := dot(r, r)
	for iters = 0; iters < maxIters && math.Sqrt(rr) >= tol; iters++ {
		copy(ap, applyFull(n, p))
		alpha := rr / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
	}
	return x, math.Sqrt(rr), iters
}

// applyFull computes A*v on the full grid via the halo-form kernel.
func applyFull(n int, v []float64) []float64 {
	padded := make([]float64, (n+2)*n)
	copy(padded[n:], v)
	out := make([]float64, n*n)
	matvec5(n, 0, n, padded, out)
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Config describes a distributed solve.
type Config struct {
	N        int // grid side; the system has N*N unknowns
	MaxIters int
	Tol      float64
	Procs    int
	Model    machine.Model
	Phantom  bool // fixed MaxIters iterations, no numerics
	// Ctx, if non-nil, cancels the run: the simulation tears down at the
	// next collective boundary and the run returns Ctx.Err() instead of
	// an outcome. A nil Ctx preserves run-to-completion behavior.
	Ctx context.Context
}

// Outcome reports a distributed solve.
type Outcome struct {
	X        []float64 // gathered solution (nil in phantom mode)
	Residual float64
	Iters    int
	Time     float64
	Result   *nx.Result
}

const (
	tagUp     nx.Tag = 50
	tagDown   nx.Tag = 51
	tagGather nx.Tag = 52
)

func rowsFor(ny, p, rank int) (start, count int) {
	base, extra := ny/p, ny%p
	count = base
	if rank < extra {
		count++
		start = rank * count
	} else {
		start = extra*(base+1) + (rank-extra)*base
	}
	return
}

// SolveDistributed runs CG across a row decomposition of the grid.
func SolveDistributed(cfg Config) (*Outcome, error) {
	if cfg.N < 2 {
		return nil, errors.New("cg: grid must be at least 2x2")
	}
	if cfg.MaxIters < 1 {
		return nil, errors.New("cg: MaxIters must be >= 1")
	}
	p := cfg.Procs
	if p == 0 {
		p = cfg.Model.Nodes()
	}
	if p < 1 || p > cfg.Model.Nodes() {
		return nil, fmt.Errorf("cg: Procs=%d invalid for %d-node model", p, cfg.Model.Nodes())
	}
	if p > cfg.N {
		return nil, fmt.Errorf("cg: more processes (%d) than grid rows (%d)", p, cfg.N)
	}

	var outX []float64
	var outRes float64
	var outIters int
	times := make([]float64, p)
	res, err := nx.Run(nx.Config{Model: cfg.Model, Procs: p, Ctx: cfg.Ctx}, func(proc *nx.Proc) {
		n := cfg.N
		rank := proc.Rank()
		r0, rows := rowsFor(n, p, rank)
		world := proc.World()
		up, down := rank-1, rank+1
		rowBytes := 8 * n

		// exchange fills the halo rows of buf (layout: halo, rows, halo)
		exchange := func(buf []float64) {
			if up >= 0 {
				if cfg.Phantom {
					proc.SendPhantom(up, tagUp, rowBytes)
				} else {
					proc.SendFloats(up, tagUp, buf[n:2*n])
				}
			}
			if down < p {
				if cfg.Phantom {
					proc.SendPhantom(down, tagDown, rowBytes)
				} else {
					proc.SendFloats(down, tagDown, buf[rows*n:(rows+1)*n])
				}
			}
			if down < p {
				m := proc.Recv(down, tagUp)
				if !cfg.Phantom {
					copy(buf[(rows+1)*n:(rows+2)*n], m.Floats)
				}
			}
			if up >= 0 {
				m := proc.Recv(up, tagDown)
				if !cfg.Phantom {
					copy(buf[0:n], m.Floats)
				}
			}
		}
		// allreduceSum reduces one scalar with the charged vector cost.
		allreduceSum := func(v float64) float64 {
			if cfg.Phantom {
				world.ReducePhantom(0, 8)
				world.BcastPhantom(0, 8)
				return 0
			}
			return world.AllreduceFloats([]float64{v}, nx.SumOp)[0]
		}

		cells := rows * n
		var x, r, ap []float64
		pbuf := make([]float64, (rows+2)*n) // p with halos
		if !cfg.Phantom {
			x = make([]float64, cells)
			ap = make([]float64, cells)
			// b = A*ones restricted to my rows
			ones := make([]float64, (rows+2)*n)
			for i := range ones {
				ones[i] = 1
			}
			if r0 == 0 {
				for j := 0; j < n; j++ {
					ones[j] = 0 // exterior boundary above the first row
				}
			}
			if r0+rows == n {
				for j := 0; j < n; j++ {
					ones[(rows+1)*n+j] = 0
				}
			}
			b := make([]float64, cells)
			matvec5(n, r0, r0+rows, ones, b)
			r = b
			copy(pbuf[n:(rows+1)*n], r)
		}
		proc.Compute(machine.OpVector, flopsPerCell*float64(cells)) // initial b/r setup
		rr := allreduceSum(dotLocal(r))

		iters := 0
		for ; iters < cfg.MaxIters; iters++ {
			if !cfg.Phantom && math.Sqrt(rr) < cfg.Tol {
				break
			}
			exchange(pbuf)
			proc.Compute(machine.OpVector, flopsPerCell*float64(cells))
			if !cfg.Phantom {
				matvec5(n, r0, r0+rows, pbuf, ap)
			}
			var pap float64
			if !cfg.Phantom {
				pap = dot(pbuf[n:(rows+1)*n], ap)
			}
			proc.Compute(machine.OpVector, 2*float64(cells))
			pap = allreduceSum(pap)

			var alpha float64
			if !cfg.Phantom {
				alpha = rr / pap
				for i := 0; i < cells; i++ {
					x[i] += alpha * pbuf[n+i]
					r[i] -= alpha * ap[i]
				}
			}
			proc.Compute(machine.OpVector, 4*float64(cells))

			var rrLocal float64
			if !cfg.Phantom {
				rrLocal = dotLocal(r)
			}
			proc.Compute(machine.OpVector, 2*float64(cells))
			rrNew := allreduceSum(rrLocal)

			if !cfg.Phantom {
				beta := rrNew / rr
				for i := 0; i < cells; i++ {
					pbuf[n+i] = r[i] + beta*pbuf[n+i]
				}
				rr = rrNew
			}
			proc.Compute(machine.OpVector, 2*float64(cells))
		}
		times[rank] = proc.Now()

		if cfg.Phantom {
			if rank == 0 {
				outIters = iters
			}
			return
		}
		// gather the solution
		if rank != 0 {
			proc.SendFloats(0, tagGather, x)
			return
		}
		outX = make([]float64, n*n)
		copy(outX[r0*n:], x)
		for pr := 1; pr < p; pr++ {
			rs, _ := rowsFor(n, p, pr)
			copy(outX[rs*n:], proc.RecvFloats(pr, tagGather))
		}
		outRes = math.Sqrt(rr)
		outIters = iters
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{X: outX, Residual: outRes, Iters: outIters, Result: res}
	for _, t := range times {
		if t > out.Time {
			out.Time = t
		}
	}
	return out, nil
}

func dotLocal(r []float64) float64 {
	if r == nil {
		return 0
	}
	return dot(r, r)
}
