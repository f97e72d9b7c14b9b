// Package shallow implements the ocean/atmosphere Grand-Challenge workload
// of the NOAA and EPA program rows: linearized shallow-water equations on a
// doubly periodic Arakawa C-grid with forward-backward time stepping — the
// dynamical core of 1992 ocean and climate codes. A serial reference
// validates the distributed row-decomposed version running on the nx
// runtime.
package shallow

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/nx"
)

// Params are the physical and numerical parameters of the model.
type Params struct {
	G      float64 // gravity (m/s^2)
	Depth  float64 // resting depth H (m)
	F      float64 // Coriolis parameter (1/s)
	DX, DY float64 // grid spacing (m)
	DT     float64 // time step (s)
}

// DefaultParams returns a midlatitude-ocean configuration whose gravity
// wave speed is sqrt(G*Depth) ~ 200 m/s, stable at the default step.
func DefaultParams() Params {
	return Params{G: 9.8, Depth: 4000, F: 1e-4, DX: 1e5, DY: 1e5, DT: 100}
}

// CFL returns the Courant number c*dt/min(dx,dy); stability requires < 1.
func (p Params) CFL() float64 {
	c := math.Sqrt(p.G * p.Depth)
	d := math.Min(p.DX, p.DY)
	return c * p.DT / d
}

// State is the model state on an ny x nx periodic C-grid: H is the surface
// elevation at cell centers, U the zonal velocity on west edges, V the
// meridional velocity on south edges. Index (i, j) maps to i*NX+j.
type State struct {
	NX, NY  int
	H, U, V []float64
}

// NewState allocates a resting state.
func NewState(nxCells, nyCells int) *State {
	if nxCells < 3 || nyCells < 3 {
		panic("shallow: grid must be at least 3x3")
	}
	n := nxCells * nyCells
	return &State{NX: nxCells, NY: nyCells,
		H: make([]float64, n), U: make([]float64, n), V: make([]float64, n)}
}

// GaussianBump sets the initial elevation to a Gaussian of the given
// amplitude centred in the domain.
func (s *State) GaussianBump(amp float64) {
	cx, cy := float64(s.NX)/2, float64(s.NY)/2
	sigma := float64(s.NX) / 8
	for i := 0; i < s.NY; i++ {
		for j := 0; j < s.NX; j++ {
			dx, dy := float64(j)-cx, float64(i)-cy
			s.H[i*s.NX+j] = amp * math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma))
		}
	}
}

// Mass returns the domain-integrated elevation, an exactly conserved
// quantity of the scheme under periodic boundaries.
func (s *State) Mass() float64 {
	m := 0.0
	for _, h := range s.H {
		m += h
	}
	return m
}

// Energy returns the discrete total energy (kinetic + potential), which the
// forward-backward scheme keeps bounded within the CFL limit.
func (s *State) Energy(p Params) float64 {
	e := 0.0
	for k := range s.H {
		e += 0.5*p.Depth*(s.U[k]*s.U[k]+s.V[k]*s.V[k]) + 0.5*p.G*s.H[k]*s.H[k]
	}
	return e
}

func (s *State) wrap(i, j int) int {
	if i < 0 {
		i += s.NY
	} else if i >= s.NY {
		i -= s.NY
	}
	if j < 0 {
		j += s.NX
	} else if j >= s.NX {
		j -= s.NX
	}
	return i*s.NX + j
}

// Step advances the state by one forward-backward step: elevation first
// with old velocities, then velocities with the new elevation.
func (s *State) Step(p Params) {
	nxc, nyc := s.NX, s.NY
	hNew := make([]float64, len(s.H))
	for i := 0; i < nyc; i++ {
		for j := 0; j < nxc; j++ {
			k := i*nxc + j
			du := s.U[s.wrap(i, j+1)] - s.U[k]
			dv := s.V[s.wrap(i+1, j)] - s.V[k]
			hNew[k] = s.H[k] - p.DT*p.Depth*(du/p.DX+dv/p.DY)
		}
	}
	uNew := make([]float64, len(s.U))
	vNew := make([]float64, len(s.V))
	for i := 0; i < nyc; i++ {
		for j := 0; j < nxc; j++ {
			k := i*nxc + j
			vbar := 0.25 * (s.V[k] + s.V[s.wrap(i+1, j)] +
				s.V[s.wrap(i, j-1)] + s.V[s.wrap(i+1, j-1)])
			uNew[k] = s.U[k] + p.DT*(p.F*vbar-p.G*(hNew[k]-hNew[s.wrap(i, j-1)])/p.DX)
		}
	}
	for i := 0; i < nyc; i++ {
		for j := 0; j < nxc; j++ {
			k := i*nxc + j
			ubar := 0.25 * (s.U[k] + s.U[s.wrap(i-1, j)] +
				s.U[s.wrap(i, j+1)] + s.U[s.wrap(i-1, j+1)])
			vNew[k] = s.V[k] + p.DT*(-p.F*ubar-p.G*(hNew[k]-hNew[s.wrap(i-1, j)])/p.DY)
		}
	}
	s.H, s.U, s.V = hNew, uNew, vNew
}

// RunSerial integrates steps time steps from a Gaussian bump and returns
// the final state.
func RunSerial(nxCells, nyCells, steps int, p Params) *State {
	s := NewState(nxCells, nyCells)
	s.GaussianBump(1.0)
	for t := 0; t < steps; t++ {
		s.Step(p)
	}
	return s
}

// Config describes a distributed run.
type Config struct {
	NX, NY  int
	Steps   int
	Procs   int
	Params  Params
	Model   machine.Model
	Phantom bool
	// Ctx, if non-nil, cancels the run: the simulation tears down at the
	// next collective boundary and the run returns Ctx.Err() instead of
	// an outcome. A nil Ctx preserves run-to-completion behavior.
	Ctx context.Context
}

// Outcome reports a distributed run.
type Outcome struct {
	State  *State // gathered final state (nil in phantom mode)
	Time   float64
	Result *nx.Result
}

// Tags for the three halo exchanges and the gather.
const (
	tagVUp    nx.Tag = 20
	tagHDown  nx.Tag = 21
	tagUDown  nx.Tag = 22
	tagGather nx.Tag = 23
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

// RunDistributed integrates the model on a row decomposition with periodic
// halo exchange. In real mode the final state is gathered to rank 0 and
// must match RunSerial bitwise (per-cell arithmetic is identical).
func RunDistributed(cfg Config) (*Outcome, error) {
	if cfg.NX < 3 || cfg.NY < 3 || cfg.Steps < 0 {
		return nil, errors.New("shallow: invalid grid configuration")
	}
	p := cfg.Procs
	if p == 0 {
		p = cfg.Model.Nodes()
	}
	if p < 1 || p > cfg.Model.Nodes() {
		return nil, fmt.Errorf("shallow: Procs=%d invalid for %d-node model", p, cfg.Model.Nodes())
	}
	if p > cfg.NY {
		return nil, fmt.Errorf("shallow: more processes (%d) than rows (%d)", p, cfg.NY)
	}

	var final *State
	times := make([]float64, p)
	res, err := nx.Run(nx.Config{Model: cfg.Model, Procs: p, Ctx: cfg.Ctx}, func(proc *nx.Proc) {
		w := newDistWorker(proc, cfg, p)
		for t := 0; t < cfg.Steps; t++ {
			w.step()
		}
		times[proc.Rank()] = proc.Now()
		if cfg.Phantom {
			return
		}
		if st := w.gather(); st != nil {
			final = st
		}
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{State: final, Result: res}
	for _, t := range times {
		if t > out.Time {
			out.Time = t
		}
	}
	return out, nil
}

// distWorker holds one process's strip of rows plus halo rows.
type distWorker struct {
	p        *nx.Proc
	cfg      Config
	procs    int
	rowStart int
	rows     int
	h, u, v  []float64 // rows x NX
	vBelow   []float64 // first v row of the down neighbour
	hAbove   []float64 // last h row of the up neighbour
	uAbove   []float64 // last u row of the up neighbour
}

func newDistWorker(proc *nx.Proc, cfg Config, procs int) *distWorker {
	w := &distWorker{p: proc, cfg: cfg, procs: procs}
	w.rowStart, w.rows = rowsFor(cfg.NY, procs, proc.Rank())
	if !cfg.Phantom {
		n := w.rows * cfg.NX
		w.h = make([]float64, n)
		w.u = make([]float64, n)
		w.v = make([]float64, n)
		// initialize from the same global Gaussian bump
		ref := NewState(cfg.NX, cfg.NY)
		ref.GaussianBump(1.0)
		copy(w.h, ref.H[w.rowStart*cfg.NX:(w.rowStart+w.rows)*cfg.NX])
		w.vBelow = make([]float64, cfg.NX)
		w.hAbove = make([]float64, cfg.NX)
		w.uAbove = make([]float64, cfg.NX)
	}
	return w
}

// neighbours with periodic wrap over process ranks
func (w *distWorker) up() int   { return (w.p.Rank() + w.procs - 1) % w.procs }
func (w *distWorker) down() int { return (w.p.Rank() + 1) % w.procs }

// exchange sends rowData to dst and receives the peer row from src under
// one tag; with a single process it is a pure local copy.
func (w *distWorker) exchange(dst, src int, tag nx.Tag, rowData []float64, into []float64) {
	rowBytes := 8 * w.cfg.NX
	if w.procs == 1 {
		if !w.cfg.Phantom {
			copy(into, rowData)
		}
		return
	}
	if w.cfg.Phantom {
		w.p.SendPhantom(dst, tag, rowBytes)
		w.p.Recv(src, tag)
		return
	}
	w.p.SendFloats(dst, tag, rowData)
	copy(into, w.p.RecvFloats(src, tag))
}

func (w *distWorker) row(a []float64, i int) []float64 {
	return a[i*w.cfg.NX : (i+1)*w.cfg.NX]
}

func (w *distWorker) step() {
	cfg := w.cfg
	nxc := cfg.NX
	pr := cfg.Params

	// v halo travels up: my first v row goes to the up neighbour.
	var vRow0 []float64
	if !cfg.Phantom {
		vRow0 = w.row(w.v, 0)
	} else {
		vRow0 = nil
	}
	w.exchange(w.up(), w.down(), tagVUp, vRow0, w.vBelow)

	// elevation update (7 flops per cell)
	w.p.Compute(machine.OpVector, 7*float64(w.rows)*float64(nxc))
	var hNew []float64
	if !cfg.Phantom {
		hNew = make([]float64, len(w.h))
		for i := 0; i < w.rows; i++ {
			vNext := w.vBelow
			if i+1 < w.rows {
				vNext = w.row(w.v, i+1)
			}
			for j := 0; j < nxc; j++ {
				jr := j + 1
				if jr == nxc {
					jr = 0
				}
				k := i*nxc + j
				du := w.u[i*nxc+jr] - w.u[k]
				dv := vNext[j] - w.v[k]
				hNew[k] = w.h[k] - pr.DT*pr.Depth*(du/pr.DX+dv/pr.DY)
			}
		}
	}

	// h and u halos travel down: my last rows go to the down neighbour.
	var hLast, uLast []float64
	if !cfg.Phantom {
		hLast = hNew[(w.rows-1)*nxc : w.rows*nxc]
		uLast = w.row(w.u, w.rows-1)
	}
	w.exchange(w.down(), w.up(), tagHDown, hLast, w.hAbove)
	w.exchange(w.down(), w.up(), tagUDown, uLast, w.uAbove)

	// velocity updates (10 flops per cell each)
	w.p.Compute(machine.OpVector, 20*float64(w.rows)*float64(nxc))
	if cfg.Phantom {
		return
	}
	uNew := make([]float64, len(w.u))
	vNew := make([]float64, len(w.v))
	for i := 0; i < w.rows; i++ {
		vHere := w.row(w.v, i)
		vNext := w.vBelow
		if i+1 < w.rows {
			vNext = w.row(w.v, i+1)
		}
		for j := 0; j < nxc; j++ {
			jl := j - 1
			if jl < 0 {
				jl = nxc - 1
			}
			k := i*nxc + j
			vbar := 0.25 * (vHere[j] + vNext[j] + vHere[jl] + vNext[jl])
			uNew[k] = w.u[k] + pr.DT*(pr.F*vbar-pr.G*(hNew[k]-hNew[i*nxc+jl])/pr.DX)
		}
	}
	for i := 0; i < w.rows; i++ {
		uHere := w.row(w.u, i)
		uPrev := w.uAbove
		hPrev := w.hAbove
		if i > 0 {
			uPrev = w.row(w.u, i-1)
			hPrev = hNew[(i-1)*nxc : i*nxc]
		}
		for j := 0; j < nxc; j++ {
			jr := j + 1
			if jr == nxc {
				jr = 0
			}
			k := i*nxc + j
			ubar := 0.25 * (uHere[j] + uPrev[j] + uHere[jr] + uPrev[jr])
			vNew[k] = w.v[k] + pr.DT*(-pr.F*ubar-pr.G*(hNew[k]-hPrev[j])/pr.DY)
		}
	}
	w.h, w.u, w.v = hNew, uNew, vNew
}

// gather assembles the global state on rank 0 and returns it there.
func (w *distWorker) gather() *State {
	cfg := w.cfg
	if w.p.Rank() != 0 {
		w.p.SendFloats(0, tagGather, w.h)
		w.p.SendFloats(0, tagGather, w.u)
		w.p.SendFloats(0, tagGather, w.v)
		return nil
	}
	st := NewState(cfg.NX, cfg.NY)
	copy(st.H[w.rowStart*cfg.NX:], w.h)
	copy(st.U[w.rowStart*cfg.NX:], w.u)
	copy(st.V[w.rowStart*cfg.NX:], w.v)
	for r := 1; r < w.procs; r++ {
		rs, _ := rowsFor(cfg.NY, w.procs, r)
		copy(st.H[rs*cfg.NX:], w.p.RecvFloats(r, tagGather))
		copy(st.U[rs*cfg.NX:], w.p.RecvFloats(r, tagGather))
		copy(st.V[rs*cfg.NX:], w.p.RecvFloats(r, tagGather))
	}
	return st
}
