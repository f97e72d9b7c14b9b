// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper (benchmarks E1-E7) plus the ablation
// studies for the design choices DESIGN.md calls out. Key reproduced
// quantities are attached to each benchmark as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same rows the paper reports alongside host-side costs.
package repro_test

import (
	"context"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/agency"
	"repro/internal/apps/cg"
	"repro/internal/apps/ep"
	"repro/internal/apps/nbody"
	"repro/internal/apps/shallow"
	"repro/internal/apps/stencil"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/funding"
	"repro/internal/harness"
	"repro/internal/linpack"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/nren"
	"repro/internal/nx"
	"repro/internal/topo"
)

// BenchmarkE1FundingTable regenerates the FY92-93 funding table and reports
// the two totals the paper prints (in $M).
func BenchmarkE1FundingTable(b *testing.B) {
	var fy92, fy93 float64
	for i := 0; i < b.N; i++ {
		tbl := funding.Table()
		if tbl.Render() == "" {
			b.Fatal("empty table")
		}
		lines := funding.FY9293()
		fy92 = funding.Total(lines, 1992)
		fy93 = funding.Total(lines, 1993)
	}
	b.ReportMetric(fy92, "FY92-total-$M")
	b.ReportMetric(fy93, "FY93-total-$M")
}

// BenchmarkE2Responsibilities regenerates the agencies x components matrix
// and reports its dimensions.
func BenchmarkE2Responsibilities(b *testing.B) {
	var agencies, marks int
	for i := 0; i < b.N; i++ {
		all := agency.All()
		agencies = len(all)
		marks = 0
		for _, a := range all {
			for _, c := range agency.Components() {
				if a.HasRole(c) {
					marks++
				}
			}
		}
		if agency.Matrix().Render() == "" {
			b.Fatal("empty matrix")
		}
	}
	b.ReportMetric(float64(agencies), "agencies")
	b.ReportMetric(float64(marks), "matrix-entries")
}

// BenchmarkE3DeltaPeak reports the Delta's aggregate peak: the paper's
// "32 GFLOPS using the 528 numeric processors".
func BenchmarkE3DeltaPeak(b *testing.B) {
	var peak float64
	var nodes int
	for i := 0; i < b.N; i++ {
		d := machine.Delta()
		peak = d.PeakGFlops()
		nodes = d.Nodes()
	}
	b.ReportMetric(peak, "peak-GFLOPS")
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkE4LinpackDelta runs the paper's headline experiment: LINPACK of
// order 25,000 on the 528-node Delta model (paper: 13 GFLOPS). One
// iteration simulates the full factorization (~3s host time).
func BenchmarkE4LinpackDelta(b *testing.B) {
	cfg := linpack.Config{
		N: 25000, NB: 16, GridRows: 16, GridCols: 33,
		Model: machine.Delta(), Phantom: true, Seed: 1992,
	}
	var gflops, eff, vtime float64
	for i := 0; i < b.N; i++ {
		out, err := linpack.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		gflops, eff, vtime = out.GFlops, out.Efficiency, out.FactTime
	}
	b.ReportMetric(gflops, "GFLOPS")
	b.ReportMetric(eff*100, "efficiency-%")
	b.ReportMetric(vtime, "simulated-s")
	b.ReportMetric(linpack.PredictGFlops(cfg), "model-GFLOPS")
}

// BenchmarkE4LinpackDeltaTreeCollectives is BenchmarkE4LinpackDelta on
// the legacy tree-message collective path: the ratio against the fused
// default is the fused engine's speedup, tracked in BENCH_report.json.
func BenchmarkE4LinpackDeltaTreeCollectives(b *testing.B) {
	prev := nx.DefaultCollectives()
	nx.SetDefaultCollectives(nx.CollectivesTree)
	defer nx.SetDefaultCollectives(prev)
	cfg := linpack.Config{
		N: 25000, NB: 16, GridRows: 16, GridCols: 33,
		Model: machine.Delta(), Phantom: true, Seed: 1992,
	}
	var vtime float64
	for i := 0; i < b.N; i++ {
		out, err := linpack.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		vtime = out.FactTime
	}
	b.ReportMetric(vtime, "simulated-s")
}

// BenchmarkE5ConsortiumNetwork reproduces the network figure: a 10 MB
// transfer over each of the six link classes; reports the extreme times.
func BenchmarkE5ConsortiumNetwork(b *testing.B) {
	var hippiTime, k56Time float64
	for i := 0; i < b.N; i++ {
		for _, c := range topo.Classes() {
			g := topo.NewGraph()
			g.AddLink("a", "b", c.BytesPerSec(), 1e-3, c.Name)
			s := nren.New(g)
			f, err := s.Transfer("a", "b", 10e6, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			switch c.Name {
			case topo.CASAHippi.Name:
				hippiTime = f.Duration()
			case topo.Regional56.Name:
				k56Time = f.Duration()
			}
		}
	}
	b.ReportMetric(hippiTime, "HIPPI-10MB-s")
	b.ReportMetric(k56Time, "56kbps-10MB-s")
	b.ReportMetric(k56Time/hippiTime, "slowdown-x")
}

// BenchmarkE6AeroStencilScaling measures the CFD kernel's strong scaling to
// all 528 Delta nodes and reports the full-machine speedup.
func BenchmarkE6AeroStencilScaling(b *testing.B) {
	var speedup, eff float64
	for i := 0; i < b.N; i++ {
		pts, err := stencil.StrongScaling(machine.Delta(), 1056, 1056, 10,
			[]int{1, 528})
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		speedup, eff = last.Speedup, last.Efficiency
	}
	b.ReportMetric(speedup, "speedup-528")
	b.ReportMetric(eff*100, "efficiency-%")
}

// BenchmarkE7ShallowScaling measures the shallow-water model's strong
// scaling on the Delta model.
func BenchmarkE7ShallowScaling(b *testing.B) {
	params := shallow.DefaultParams()
	run := func(procs int) float64 {
		out, err := shallow.RunDistributed(shallow.Config{
			NX: 1056, NY: 1056, Steps: 10, Procs: procs,
			Params: params, Model: machine.Delta(), Phantom: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		return out.Time
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		t1 := run(1)
		t528 := run(528)
		speedup = t1 / t528
	}
	b.ReportMetric(speedup, "speedup-528")
}

// BenchmarkGrandChallengeKernels runs each Grand-Challenge kernel on 64
// Delta nodes (phantom mode) and reports its simulated time — the
// application-suite view of the machine the testbed program funded.
func BenchmarkGrandChallengeKernels(b *testing.B) {
	delta := machine.Delta()
	kernels := []struct {
		name string
		run  func() (float64, error)
	}{
		{"cfd-stencil", func() (float64, error) {
			o, err := stencil.RunDistributed2D(stencil.Config2D{
				NX: 512, NY: 512, Iters: 20, PR: 8, PC: 8, Model: delta, Phantom: true})
			if err != nil {
				return 0, err
			}
			return o.Time, nil
		}},
		{"shallow-water", func() (float64, error) {
			o, err := shallow.RunDistributed(shallow.Config{
				NX: 512, NY: 512, Steps: 20, Procs: 64,
				Params: shallow.DefaultParams(), Model: delta, Phantom: true})
			if err != nil {
				return 0, err
			}
			return o.Time, nil
		}},
		{"nbody-ring", func() (float64, error) {
			o, err := nbody.RingForces(nbody.Config{
				N: 4096, Procs: 64, Model: delta, Phantom: true})
			if err != nil {
				return 0, err
			}
			return o.Time, nil
		}},
		{"nas-ep", func() (float64, error) {
			o, err := ep.Distributed(ep.Config{
				N: 50_000_000, Procs: 64, Model: delta, Phantom: true})
			if err != nil {
				return 0, err
			}
			return o.Time, nil
		}},
		{"poisson-cg", func() (float64, error) {
			o, err := cg.SolveDistributed(cg.Config{
				N: 512, MaxIters: 50, Procs: 64, Model: delta, Phantom: true})
			if err != nil {
				return 0, err
			}
			return o.Time, nil
		}},
	}
	for _, k := range kernels {
		k := k
		b.Run(k.name, func(b *testing.B) {
			var vtime float64
			for i := 0; i < b.N; i++ {
				t, err := k.run()
				if err != nil {
					b.Fatal(err)
				}
				vtime = t
			}
			b.ReportMetric(vtime, "simulated-s")
		})
	}
}

// BenchmarkAblationBlockSize sweeps the LU block size at N=8192 on the
// Delta model: the panel/update balance the block size controls.
func BenchmarkAblationBlockSize(b *testing.B) {
	for _, nb := range []int{4, 8, 16, 32, 64} {
		nb := nb
		b.Run(benchName("nb", nb), func(b *testing.B) {
			cfg := linpack.Config{
				N: 8192, NB: nb, GridRows: 16, GridCols: 33,
				Model: machine.Delta(), Phantom: true, Seed: 1,
			}
			var gflops float64
			for i := 0; i < b.N; i++ {
				out, err := linpack.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				gflops = out.GFlops
			}
			b.ReportMetric(gflops, "GFLOPS")
		})
	}
}

// BenchmarkAblationGridShape sweeps the process-grid aspect ratio at fixed
// P=528: row-heavy grids pay in the panel, column-heavy in the broadcasts.
func BenchmarkAblationGridShape(b *testing.B) {
	for _, g := range [][2]int{{4, 132}, {8, 66}, {16, 33}, {22, 24}} {
		g := g
		b.Run(benchName("grid", g[0]), func(b *testing.B) {
			cfg := linpack.Config{
				N: 8192, NB: 16, GridRows: g[0], GridCols: g[1],
				Model: machine.Delta(), Phantom: true, Seed: 1,
			}
			var gflops float64
			for i := 0; i < b.N; i++ {
				out, err := linpack.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				gflops = out.GFlops
			}
			b.ReportMetric(gflops, "GFLOPS")
		})
	}
}

// BenchmarkAblationBroadcast compares the binomial-tree broadcast against
// the naive linear baseline on a 64-node group (100 KB payload).
func BenchmarkAblationBroadcast(b *testing.B) {
	model := machine.SubMesh(machine.Delta(), 8, 8)
	for _, algo := range []string{"tree", "flat"} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			var vtime float64
			for i := 0; i < b.N; i++ {
				res, err := nx.Run(nx.Config{Model: model}, func(p *nx.Proc) {
					g := p.World()
					if algo == "tree" {
						g.BcastPhantom(0, 100_000)
					} else {
						g.BcastFlatPhantom(0, 100_000)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				vtime = res.Makespan
			}
			b.ReportMetric(vtime*1e3, "simulated-ms")
		})
	}
}

// BenchmarkAblationAllreduce compares the tree (reduce+broadcast) and ring
// allreduce algorithms across payload sizes on 64 nodes: the tree wins the
// latency regime, the ring the bandwidth regime.
func BenchmarkAblationAllreduce(b *testing.B) {
	model := machine.SubMesh(machine.Delta(), 8, 8)
	for _, bytes := range []int{8, 100_000, 1 << 20} {
		for _, algo := range []string{"tree", "ring"} {
			bytes, algo := bytes, algo
			b.Run(algo+"-"+itoa(bytes)+"B", func(b *testing.B) {
				var vtime float64
				for i := 0; i < b.N; i++ {
					res, err := nx.Run(nx.Config{Model: model}, func(p *nx.Proc) {
						g := p.World()
						if algo == "tree" {
							g.ReducePhantom(0, bytes)
							g.BcastPhantom(0, bytes)
						} else {
							g.RingAllreducePhantom(bytes)
						}
					})
					if err != nil {
						b.Fatal(err)
					}
					vtime = res.Makespan
				}
				b.ReportMetric(vtime*1e3, "simulated-ms")
			})
		}
	}
}

// BenchmarkAblationMachineGeneration runs the same LINPACK problem on each
// generation of the DARPA series (iPSC/860 -> Delta -> Paragon), the
// paper's "one of a series" framing quantified.
func BenchmarkAblationMachineGeneration(b *testing.B) {
	pts, err := linpack.GenerationSweep(8192, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, pt := range pts {
		pt := pt
		b.Run(sanitize(pt.Config.Model.Name), func(b *testing.B) {
			var gflops float64
			for i := 0; i < b.N; i++ {
				out, err := linpack.Run(pt.Config)
				if err != nil {
					b.Fatal(err)
				}
				gflops = out.GFlops
			}
			b.ReportMetric(gflops, "GFLOPS")
		})
	}
}

// BenchmarkAblationRouting compares XY against YX dimension-order routing
// under transpose traffic on the Delta's asymmetric 16x33 mesh.
func BenchmarkAblationRouting(b *testing.B) {
	for _, order := range []string{"XY", "YX"} {
		order := order
		b.Run(order, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				net := mesh.New(16, 33, 12e6, 1e-6)
				if order == "YX" {
					net.UseYXRouting()
				}
				rng := newRand(1992)
				for src := 0; src < net.Nodes(); src++ {
					for k := 0; k < 10; k++ {
						dst := mesh.Transpose(rng, net, src)
						net.Inject(src, dst, 1024, float64(k)*1e-4)
					}
				}
				net.Run()
				lat = net.Stats().AvgLatency
			}
			b.ReportMetric(lat*1e6, "avg-latency-us")
		})
	}
}

// BenchmarkAblationMeshTraffic compares traffic patterns on the Delta's
// 16x33 mesh at 40% offered load.
func BenchmarkAblationMeshTraffic(b *testing.B) {
	patterns := []struct {
		name string
		p    mesh.Pattern
	}{
		{"uniform", mesh.Uniform},
		{"transpose", mesh.Transpose},
		{"hotspot", mesh.Hotspot},
		{"neighbor", mesh.NearestNeighbor},
	}
	for _, pat := range patterns {
		pat := pat
		b.Run(pat.name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				r := mesh.OfferLoad(16, 33, 12e6, 1e-6, pat.p, 20, 1024, 0.4*12e6, 1992)
				lat = r.AvgLatency
			}
			b.ReportMetric(lat*1e6, "avg-latency-us")
		})
	}
}

// BenchmarkAblationDecomposition compares 1D strip against 2D block
// decomposition of the CFD kernel at 64 and 528 processes: the
// surface-to-volume effect that decided data layouts on the Delta.
func BenchmarkAblationDecomposition(b *testing.B) {
	delta := machine.Delta()
	cases := []struct {
		name string
		run  func() (float64, error)
	}{
		{"1D-64", func() (float64, error) {
			o, err := stencil.RunDistributed(stencil.Config{
				NX: 1056, NY: 1056, Iters: 10, Procs: 64, Model: delta, Phantom: true})
			if err != nil {
				return 0, err
			}
			return o.Time, nil
		}},
		{"2D-64", func() (float64, error) {
			o, err := stencil.RunDistributed2D(stencil.Config2D{
				NX: 1056, NY: 1056, Iters: 10, PR: 8, PC: 8, Model: delta, Phantom: true})
			if err != nil {
				return 0, err
			}
			return o.Time, nil
		}},
		{"1D-528", func() (float64, error) {
			o, err := stencil.RunDistributed(stencil.Config{
				NX: 1056, NY: 1056, Iters: 10, Procs: 528, Model: delta, Phantom: true})
			if err != nil {
				return 0, err
			}
			return o.Time, nil
		}},
		{"2D-528", func() (float64, error) {
			o, err := stencil.RunDistributed2D(stencil.Config2D{
				NX: 1056, NY: 1056, Iters: 10, PR: 16, PC: 33, Model: delta, Phantom: true})
			if err != nil {
				return 0, err
			}
			return o.Time, nil
		}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var vtime float64
			for i := 0; i < b.N; i++ {
				t, err := c.run()
				if err != nil {
					b.Fatal(err)
				}
				vtime = t
			}
			b.ReportMetric(vtime*1e3, "simulated-ms")
		})
	}
}

// BenchmarkAblationLinkUpgrade quantifies the NREN upgrade path: the same
// 10 MB transfer across successive 1992 link generations.
func BenchmarkAblationLinkUpgrade(b *testing.B) {
	for _, c := range topo.Classes() {
		c := c
		b.Run(sanitize(c.Name), func(b *testing.B) {
			var dur float64
			for i := 0; i < b.N; i++ {
				g := topo.NewGraph()
				g.AddLink("a", "b", c.BytesPerSec(), 1e-3, c.Name)
				s := nren.New(g)
				f, err := s.Transfer("a", "b", 10e6, 0)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
				dur = f.Duration()
			}
			b.ReportMetric(dur, "transfer-s")
		})
	}
}

// BenchmarkReportParallel regenerates the full report (quick mode, all
// seven exhibits) through the harness sweep engine at one worker and at
// one worker per host core. The output is byte-identical either way; the
// wall-clock gap is the sweep engine's speedup over the sequential path.
func BenchmarkReportParallel(b *testing.B) {
	ctx := context.Background()
	counts := []int{1, 2, runtime.NumCPU()}
	seen := map[int]bool{}
	var sweep []int
	for _, w := range counts {
		if !seen[w] {
			seen[w] = true
			sweep = append(sweep, w)
		}
	}
	for _, workers := range sweep {
		workers := workers
		b.Run(benchName("j", workers), func(b *testing.B) {
			p := core.NewProgram()
			p.Quick = true
			for i := 0; i < b.N; i++ {
				if err := p.WriteReportJobs(ctx, io.Discard, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(workers), "workers")
		})
	}
}

// BenchmarkReportCached regenerates the full quick report through a warm
// result cache: every exhibit is served from disk through the same
// in-order emit path, so the bytes match BenchmarkReportParallel's while
// the cost drops from simulation time to a handful of file reads. The
// cold/warm gap against BenchmarkReportParallel is the result cache's
// speedup (BENCH_report.json tracks it across PRs).
func BenchmarkReportCached(b *testing.B) {
	ctx := context.Background()
	c, err := cache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ex := &harness.CachingExecutor{
		Inner: harness.LocalExecutor{Workers: runtime.NumCPU()},
		Cache: c,
	}
	p := core.NewProgram()
	p.Quick = true
	warm := func() {
		results, err := p.ReportResultsExec(ctx, ex, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.WriteResults(io.Discard, results); err != nil {
			b.Fatal(err)
		}
	}
	warm() // populate: everything after this is cache hits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm()
	}
	b.ReportMetric(float64(ex.Hits), "hits")
	b.ReportMetric(float64(ex.Misses), "misses")
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}
