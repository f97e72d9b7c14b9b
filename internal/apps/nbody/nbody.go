// Package nbody implements the space-sciences Grand-Challenge workload: a
// direct-summation gravitational N-body kernel with Plummer softening,
// distributed with the classic ring pipeline (each process's particle block
// circulates around a ring of processes, accumulating partial forces). A
// serial reference validates the distributed forces.
package nbody

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/machine"
	"repro/internal/nx"
)

// Softening is the Plummer softening length used in the force law.
const Softening = 1e-2

// G is the gravitational constant in simulation units.
const G = 1.0

// System is a set of particles in structure-of-arrays layout.
type System struct {
	X, Y, Z    []float64
	VX, VY, VZ []float64
	M          []float64
}

// N returns the particle count.
func (s *System) N() int { return len(s.M) }

// Random returns n particles with positions uniform in the unit cube,
// masses uniform in [0.5, 1.5) and zero velocities, deterministic in seed.
func Random(n int, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	s := &System{
		X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		VX: make([]float64, n), VY: make([]float64, n), VZ: make([]float64, n),
		M: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		s.X[i], s.Y[i], s.Z[i] = rng.Float64(), rng.Float64(), rng.Float64()
		s.M[i] = 0.5 + rng.Float64()
	}
	return s
}

// accumulate adds to (fx,fy,fz)[i] the force exerted on target particle i
// (at xi,yi,zi with mass mi) by source particle j of the source system.
func accumulate(xi, yi, zi, mi float64, src *System, j int) (dfx, dfy, dfz float64) {
	dx := src.X[j] - xi
	dy := src.Y[j] - yi
	dz := src.Z[j] - zi
	r2 := dx*dx + dy*dy + dz*dz + Softening*Softening
	inv := 1 / (r2 * math.Sqrt(r2))
	f := G * mi * src.M[j] * inv
	return f * dx, f * dy, f * dz
}

// Forces computes all-pairs forces serially.
func Forces(s *System) (fx, fy, fz []float64) {
	n := s.N()
	fx = make([]float64, n)
	fy = make([]float64, n)
	fz = make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dfx, dfy, dfz := accumulate(s.X[i], s.Y[i], s.Z[i], s.M[i], s, j)
			fx[i] += dfx
			fy[i] += dfy
			fz[i] += dfz
		}
	}
	return
}

// Step advances the system with a kick-drift Euler step using the given
// precomputed forces.
func (s *System) Step(fx, fy, fz []float64, dt float64) {
	for i := 0; i < s.N(); i++ {
		s.VX[i] += dt * fx[i] / s.M[i]
		s.VY[i] += dt * fy[i] / s.M[i]
		s.VZ[i] += dt * fz[i] / s.M[i]
		s.X[i] += dt * s.VX[i]
		s.Y[i] += dt * s.VY[i]
		s.Z[i] += dt * s.VZ[i]
	}
}

// InteractionFlops is the operation count charged per pairwise interaction
// (distances, softened inverse-cube, three force components).
const InteractionFlops = 20

// Config describes a distributed force computation.
type Config struct {
	N       int
	Procs   int
	Seed    int64
	Model   machine.Model
	Phantom bool
	// Ctx, if non-nil, cancels the run: the simulation tears down at the
	// next collective boundary and the run returns Ctx.Err() instead of
	// an outcome. A nil Ctx preserves run-to-completion behavior.
	Ctx context.Context
}

// Outcome reports a distributed run.
type Outcome struct {
	FX, FY, FZ []float64 // gathered forces (nil in phantom mode)
	Time       float64
	Result     *nx.Result
}

const (
	tagRing   nx.Tag = 30
	tagGather nx.Tag = 31
)

func chunk(n, p, rank int) (start, count int) {
	base, extra := n/p, n%p
	count = base
	if rank < extra {
		count++
		start = rank * count
	} else {
		start = extra*(base+1) + (rank-extra)*base
	}
	return
}

// RingForces computes all-pairs forces with the ring pipeline and gathers
// them to rank 0 in real mode.
func RingForces(cfg Config) (*Outcome, error) {
	if cfg.N < 1 {
		return nil, errors.New("nbody: N must be >= 1")
	}
	p := cfg.Procs
	if p == 0 {
		p = cfg.Model.Nodes()
	}
	if p < 1 || p > cfg.Model.Nodes() {
		return nil, fmt.Errorf("nbody: Procs=%d invalid for %d-node model", p, cfg.Model.Nodes())
	}
	if p > cfg.N {
		return nil, fmt.Errorf("nbody: more processes (%d) than particles (%d)", p, cfg.N)
	}

	var outFX, outFY, outFZ []float64
	times := make([]float64, p)
	res, err := nx.Run(nx.Config{Model: cfg.Model, Procs: p, Ctx: cfg.Ctx}, func(proc *nx.Proc) {
		rank := proc.Rank()
		start, count := chunk(cfg.N, p, rank)
		next := (rank + 1) % p
		prev := (rank + p - 1) % p

		var full *System
		var mine, travel *System
		if !cfg.Phantom {
			full = Random(cfg.N, cfg.Seed)
			mine = slice(full, start, count)
			travel = slice(full, start, count)
		}
		fx := make([]float64, count)
		fy := make([]float64, count)
		fz := make([]float64, count)

		travelCount := count
		travelOwner := rank
		for step := 0; step < p; step++ {
			// interactions between my block and the travelling block
			proc.Compute(machine.OpScalar, InteractionFlops*float64(count)*float64(travelCount))
			if !cfg.Phantom {
				for i := 0; i < count; i++ {
					for j := 0; j < travel.N(); j++ {
						if travelOwner == rank && j == i {
							continue // self-interaction
						}
						dfx, dfy, dfz := accumulate(mine.X[i], mine.Y[i], mine.Z[i], mine.M[i], travel, j)
						fx[i] += dfx
						fy[i] += dfy
						fz[i] += dfz
					}
				}
			}
			if step == p-1 {
				break // last block processed; no need to forward
			}
			// pass the travelling block around the ring
			blockBytes := 8 * 4 * travelCount // x, y, z, m
			if cfg.Phantom {
				proc.SendPhantom(next, tagRing, blockBytes)
				proc.Recv(prev, tagRing)
				// ownership moves backwards around the ring
				travelOwner = (travelOwner + p - 1) % p
				_, travelCount = chunk(cfg.N, p, travelOwner)
			} else {
				proc.SendFloats(next, tagRing, pack(travel))
				in := proc.RecvFloats(prev, tagRing)
				travel = unpack(in)
				travelOwner = (travelOwner + p - 1) % p
				travelCount = travel.N()
			}
		}
		times[rank] = proc.Now()

		if cfg.Phantom {
			return
		}
		if rank != 0 {
			proc.SendFloats(0, tagGather, fx)
			proc.SendFloats(0, tagGather, fy)
			proc.SendFloats(0, tagGather, fz)
			return
		}
		outFX = make([]float64, cfg.N)
		outFY = make([]float64, cfg.N)
		outFZ = make([]float64, cfg.N)
		copy(outFX, fx)
		copy(outFY, fy)
		copy(outFZ, fz)
		for r := 1; r < p; r++ {
			rs, _ := chunk(cfg.N, p, r)
			copy(outFX[rs:], proc.RecvFloats(r, tagGather))
			copy(outFY[rs:], proc.RecvFloats(r, tagGather))
			copy(outFZ[rs:], proc.RecvFloats(r, tagGather))
		}
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{FX: outFX, FY: outFY, FZ: outFZ, Result: res}
	for _, t := range times {
		if t > out.Time {
			out.Time = t
		}
	}
	return out, nil
}

func slice(s *System, start, count int) *System {
	return &System{
		X: append([]float64(nil), s.X[start:start+count]...),
		Y: append([]float64(nil), s.Y[start:start+count]...),
		Z: append([]float64(nil), s.Z[start:start+count]...),
		M: append([]float64(nil), s.M[start:start+count]...),
	}
}

func pack(s *System) []float64 {
	n := s.N()
	out := make([]float64, 0, 4*n)
	out = append(out, s.X...)
	out = append(out, s.Y...)
	out = append(out, s.Z...)
	out = append(out, s.M...)
	return out
}

func unpack(in []float64) *System {
	n := len(in) / 4
	return &System{X: in[:n], Y: in[n : 2*n], Z: in[2*n : 3*n], M: in[3*n : 4*n]}
}
