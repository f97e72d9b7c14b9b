package nx

import (
	"testing"

	"repro/internal/machine"
)

func benchModel(rows, cols int) machine.Model {
	m := machine.Delta()
	m.Rows, m.Cols = rows, cols
	return m
}

// BenchmarkPingPong measures the host cost of simulated message exchange:
// how many simulated messages per second the runtime sustains.
func BenchmarkPingPong(b *testing.B) {
	res, err := Run(Config{Model: benchModel(1, 2)}, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				p.SendPhantom(1, 0, 1024)
				p.Recv(1, 1)
			} else {
				p.Recv(0, 0)
				p.SendPhantom(0, 1, 1024)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
}

// BenchmarkBarrier528 measures a full-machine barrier on the Delta model:
// the per-operation host cost of parking and resuming 528 coroutine nodes.
func BenchmarkBarrier528(b *testing.B) {
	res, err := Run(Config{Model: machine.Delta()}, func(p *Proc) {
		g := p.World()
		for i := 0; i < b.N; i++ {
			g.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Makespan/float64(b.N)*1e6, "simulated-us/op")
}

// BenchmarkAllreduce528 measures a 16-element allreduce across the full
// Delta model.
func BenchmarkAllreduce528(b *testing.B) {
	x := make([]float64, 16)
	res, err := Run(Config{Model: machine.Delta()}, func(p *Proc) {
		g := p.World()
		for i := 0; i < b.N; i++ {
			g.AllreduceFloats(x, SumOp)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Makespan/float64(b.N)*1e6, "simulated-us/op")
}
