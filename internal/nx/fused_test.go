package nx

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/trace"
)

// The differential suite: every program below runs once with the fused
// analytic engine and once with the tree message path, and the two runs
// must agree bit for bit — exit clocks observed inside the program,
// final ProcStats, Makespan, payload contents, and trace spans. This is
// the contract that lets the fused engine be the default.

// diffModel is a small asymmetric mesh so hops matter.
func diffModel(rows, cols int) machine.Model {
	m := machine.Delta()
	m.Rows, m.Cols = rows, cols
	return m
}

// runBoth executes body under both collective modes on the given model
// and returns the two results plus whatever the body recorded per proc.
func runBoth(t *testing.T, model machine.Model, procs int, make func(mode CollectiveMode) func(p *Proc)) (tree, fused *Result) {
	t.Helper()
	tree, err := Run(Config{Model: model, Procs: procs, Collectives: CollectivesTree}, make(CollectivesTree))
	if err != nil {
		t.Fatalf("tree run: %v", err)
	}
	fused, err = Run(Config{Model: model, Procs: procs, Collectives: CollectivesFused}, make(CollectivesFused))
	if err != nil {
		t.Fatalf("fused run: %v", err)
	}
	return tree, fused
}

// assertResultsEqual demands bitwise equality of everything a Result
// carries.
func assertResultsEqual(t *testing.T, tree, fused *Result) {
	t.Helper()
	if tree.Makespan != fused.Makespan {
		t.Fatalf("makespan: tree %v fused %v (diff %g)", tree.Makespan, fused.Makespan, fused.Makespan-tree.Makespan)
	}
	if tree.TotalFlops != fused.TotalFlops || tree.TotalBytes != fused.TotalBytes || tree.TotalMsgs != fused.TotalMsgs {
		t.Fatalf("totals: tree %+v fused %+v", tree, fused)
	}
	for i := range tree.Procs {
		if tree.Procs[i] != fused.Procs[i] {
			t.Fatalf("proc %d stats:\n tree  %+v\n fused %+v", i, tree.Procs[i], fused.Procs[i])
		}
	}
}

// randMembers draws a random-size, randomly-ordered subset of ranks that
// includes every rank (collectives need all members to enter), or a
// random subset when sub is true — in which case non-members do disjoint
// local work.
func randMembers(rng *rand.Rand, procs int) []int {
	members := rng.Perm(procs)
	k := 1 + rng.Intn(procs)
	return members[:k]
}

// TestFusedDifferentialRandomPrograms sweeps random group shapes, member
// subsets, payload kinds and skewed entry clocks through every fused
// collective and asserts bit-identical exit clocks and stats against the
// tree path.
func TestFusedDifferentialRandomPrograms(t *testing.T) {
	shapes := [][2]int{{1, 2}, {2, 2}, {1, 7}, {3, 5}, {4, 8}, {2, 16}}
	for trial := 0; trial < 40; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			shape := shapes[trial%len(shapes)]
			model := diffModel(shape[0], shape[1])
			procs := model.Nodes()
			seed := int64(1000 + trial)

			// The trial's script is fixed up front so both modes execute
			// the identical program: a sequence of ops on a random member
			// subset, with per-member pre-op compute skew.
			rng := rand.New(rand.NewSource(seed))
			members := randMembers(rng, procs)
			nops := 6 + rng.Intn(10)
			type op struct {
				kind  int
				root  int
				size  int
				skews []float64
			}
			ops := make([]op, nops)
			for i := range ops {
				o := &ops[i]
				o.kind = rng.Intn(8)
				o.root = rng.Intn(len(members))
				o.size = rng.Intn(5)
				o.skews = make([]float64, procs)
				for r := range o.skews {
					if rng.Intn(2) == 0 {
						o.skews[r] = rng.Float64() * 1e-3
					}
				}
			}

			// exit[mode][proc] records p.Now() after every op, which
			// forces a settle and checks clocks mid-program, not just at
			// the end. outs records payload-carrying results.
			exits := map[CollectiveMode][][]float64{}
			outs := map[CollectiveMode][][]float64{}
			for _, m := range []CollectiveMode{CollectivesTree, CollectivesFused} {
				exits[m] = make([][]float64, procs)
				outs[m] = make([][]float64, procs)
			}

			body := func(mode CollectiveMode) func(p *Proc) {
				return func(p *Proc) {
					inGroup := false
					for _, m := range members {
						if m == p.Rank() {
							inGroup = true
						}
					}
					if !inGroup {
						// Non-members do disjoint local work; their
						// clocks must be identical trivially.
						p.Compute(machine.OpScalar, 1000)
						exits[mode][p.Rank()] = append(exits[mode][p.Rank()], p.Now())
						return
					}
					g := p.Group(members)
					me := g.Rank()
					for _, o := range ops {
						p.Compute(machine.OpVector, o.skews[p.Rank()]*1e9)
						switch o.kind {
						case 0:
							g.Barrier()
						case 1:
							g.BcastPhantom(o.root, 64+o.size)
						case 2:
							data := []byte(nil)
							if me == o.root {
								data = make([]byte, 3+o.size)
								for i := range data {
									data[i] = byte(o.root + i)
								}
							}
							got := g.Bcast(o.root, data)
							outs[mode][p.Rank()] = append(outs[mode][p.Rank()], float64(len(got)))
						case 3:
							xs := make([]float64, 2+o.size)
							for i := range xs {
								xs[i] = float64(me*17+i) * 1.25
							}
							got := g.BcastFloats(o.root, xs)
							outs[mode][p.Rank()] = append(outs[mode][p.Rank()], got...)
						case 4:
							g.ReducePhantom(o.root, 8*(1+o.size))
							g.BcastFlatPhantom(o.root, 16)
						case 5:
							xs := make([]float64, 1+o.size)
							for i := range xs {
								xs[i] = 1.0 / float64(me+i+1)
							}
							got := g.ReduceFloats(o.root, xs, SumOp)
							outs[mode][p.Rank()] = append(outs[mode][p.Rank()], got...)
						case 6:
							xs := make([]float64, 1+me%3)
							for i := range xs {
								xs[i] = float64(me) + float64(i)*0.5
							}
							got := g.GatherFloats(o.root, xs)
							outs[mode][p.Rank()] = append(outs[mode][p.Rank()], got...)
						case 7:
							v := math.Sin(float64(me + o.size))
							mx, loc := g.MaxLoc(v)
							outs[mode][p.Rank()] = append(outs[mode][p.Rank()], mx, float64(loc))
						}
						exits[mode][p.Rank()] = append(exits[mode][p.Rank()], p.Now())
					}
				}
			}

			tree, fused := runBoth(t, model, procs, body)
			assertResultsEqual(t, tree, fused)
			for r := 0; r < procs; r++ {
				if !reflect.DeepEqual(exits[CollectivesTree][r], exits[CollectivesFused][r]) {
					t.Fatalf("proc %d exit clocks diverge:\n tree  %v\n fused %v",
						r, exits[CollectivesTree][r], exits[CollectivesFused][r])
				}
				if !reflect.DeepEqual(outs[CollectivesTree][r], outs[CollectivesFused][r]) {
					t.Fatalf("proc %d payloads diverge:\n tree  %v\n fused %v",
						r, outs[CollectivesTree][r], outs[CollectivesFused][r])
				}
			}
		})
	}
}

// TestFusedDifferentialAllreducePair: AllreduceFloats / AllreducePhantom
// are single fused rendezvous but must match the tree's reduce+broadcast
// pair exactly, including with skewed entries and mixed point-to-point
// traffic between collectives (which forces deferred chains to settle).
func TestFusedDifferentialAllreducePair(t *testing.T) {
	model := diffModel(3, 4)
	procs := model.Nodes()
	type rec struct {
		clocks []float64
		vals   []float64
	}
	run := func(mode CollectiveMode) []rec {
		recs := make([]rec, procs)
		_, err := Run(Config{Model: model, Collectives: mode}, func(p *Proc) {
			g := p.World()
			r := &recs[p.Rank()]
			for it := 0; it < 20; it++ {
				p.Compute(machine.OpVector, float64(p.Rank()*1000+it))
				g.AllreducePhantom(0, 16)
				g.BcastPhantom(it%procs, 8*it)
				// Pairwise traffic between neighbours forces settles in
				// the middle of deferred chains.
				if it%3 == 0 && procs >= 2 {
					peer := p.Rank() ^ 1
					if peer < procs {
						p.SendPhantom(peer, Tag(it%100), 24)
						p.Recv(peer, Tag(it%100))
					}
				}
				out := g.AllreduceFloats([]float64{float64(p.Rank()) * 0.3, float64(it)}, MaxOp)
				r.vals = append(r.vals, out...)
				r.clocks = append(r.clocks, p.Now())
			}
		})
		if err != nil {
			t.Fatalf("%v run: %v", mode, err)
		}
		return recs
	}
	tree := run(CollectivesTree)
	fused := run(CollectivesFused)
	for i := range tree {
		if !reflect.DeepEqual(tree[i], fused[i]) {
			t.Fatalf("proc %d diverges:\n tree  %+v\n fused %+v", i, tree[i], fused[i])
		}
	}
}

// TestFusedDifferentialTrace: with a Recorder attached the fused engine
// must emit the identical span stream (tracing disables deferral but not
// fusion).
func TestFusedDifferentialTrace(t *testing.T) {
	model := diffModel(2, 4)
	run := func(mode CollectiveMode) []trace.Record {
		rec := trace.NewRecorder(model.Nodes())
		_, err := Run(Config{Model: model, Trace: rec, Collectives: mode}, func(p *Proc) {
			g := p.World()
			p.Compute(machine.OpGemm, float64(1e6*(p.Rank()+1)))
			g.Barrier()
			g.BcastPhantom(0, 1024)
			g.ReducePhantom(1, 64)
			g.AllreducePhantom(0, 8)
			switch p.Rank() {
			case 0, 3, 5:
				sub := p.Group([]int{0, 3, 5})
				sub.BcastPhantom(0, 128)
			}
		})
		if err != nil {
			t.Fatalf("%v run: %v", mode, err)
		}
		return rec.Records()
	}
	tree := run(CollectivesTree)
	fused := run(CollectivesFused)
	if !reflect.DeepEqual(tree, fused) {
		t.Fatalf("trace records diverge: tree %d records, fused %d", len(tree), len(fused))
	}
}

// TestFusedSameMemberGroupsSequential: two distinct Group handles over
// the same member list, used one after the other, share the slot exactly
// as they share the tag space on the tree path.
func TestFusedSameMemberGroupsSequential(t *testing.T) {
	model := diffModel(1, 4)
	run := func(mode CollectiveMode) *Result {
		res, err := Run(Config{Model: model, Collectives: mode}, func(p *Proc) {
			a := p.World()
			a.Barrier()
			a.BcastPhantom(0, 100)
			b := p.World() // same members, fresh handle
			b.ReducePhantom(0, 50)
			b.Barrier()
			a.BcastPhantom(1, 10) // back to the first handle
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return res
	}
	assertResultsEqual(t, run(CollectivesTree), run(CollectivesFused))
}

// TestFusedDeadlockDetected: a member that never enters the collective
// must still be reported as a deadlock in fused mode, with a diagnostic
// naming the fused wait.
func TestFusedDeadlockDetected(t *testing.T) {
	model := diffModel(1, 3)
	_, err := Run(Config{Model: model, Collectives: CollectivesFused}, func(p *Proc) {
		if p.Rank() == 2 {
			// Never enters the barrier; parks on a receive instead.
			p.Recv(0, 7)
			return
		}
		g := p.World()
		g.Barrier()
		// Force the members to settle so they park in the fused wait.
		_ = p.Now()
	})
	var dead *DeadlockError
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if de, ok := err.(*DeadlockError); ok {
		dead = de
	} else {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	found := false
	for _, w := range dead.Waiters {
		if len(w) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("deadlock diagnostic empty: %v", dead.Waiters)
	}
}

// TestFusedGroupStatsMatchSingleProc sanity-checks the n==1 early-return
// paths (no tags consumed, no rendezvous) stay aligned across modes.
func TestFusedGroupStatsMatchSingleProc(t *testing.T) {
	model := diffModel(1, 1)
	run := func(mode CollectiveMode) *Result {
		res, err := Run(Config{Model: model, Collectives: mode}, func(p *Proc) {
			g := p.World()
			g.Barrier()
			g.BcastPhantom(0, 10)
			g.ReducePhantom(0, 10)
			g.AllreducePhantom(0, 10)
			out := g.GatherFloats(0, []float64{1, 2})
			if len(out) != 2 {
				panic("gather self")
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return res
	}
	assertResultsEqual(t, run(CollectivesTree), run(CollectivesFused))
}

// Mixed-traffic differentials. The programs below interleave fused
// collectives with pairwise exchange batches, point-to-point traffic and
// mid-program clock samples — the traffic that forces deferred chains to
// settle part-way — and run each once on the tree message path (the
// semantic oracle) and once on the fused engine. They keep the TestShard
// prefix CI's race step selects them by.

// runWindow runs body under the given collective mode, with a deferred-
// settlement window override for fused runs (0 = adaptive default).
func runWindow(t *testing.T, model machine.Model, mode CollectiveMode, window int, body func(p *Proc)) *Result {
	t.Helper()
	res, err := Run(Config{Model: model, Collectives: mode, pendLimit: window}, body)
	if err != nil {
		t.Fatalf("%v window=%d run: %v", mode, window, err)
	}
	return res
}

// TestShardDifferentialRandomPrograms sweeps random collective scripts —
// a random member subset, a contiguous block group overlapping it,
// pairwise exchange batches, per-member compute skew, mid-program clock
// samples — and asserts bit-identical results and exit clocks against
// the tree path.
func TestShardDifferentialRandomPrograms(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			checkRandomProgram(t, int64(4000+trial), randomProgramShapes[trial%len(randomProgramShapes)])
		})
	}
}

// FuzzFusedVsTree drives the random-program differential from fuzz
// arguments: seed draws the script, shape picks the mesh. The seed corpus
// in testdata/fuzz/FuzzFusedVsTree holds TestShardDifferentialRandomPrograms'
// trials.
func FuzzFusedVsTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		checkRandomProgram(t, seed, randomProgramShapes[int(shape)%len(randomProgramShapes)])
	})
}

// randomProgramShapes are the meshes (rows, cols) the random programs run on.
var randomProgramShapes = [][2]int{{1, 2}, {2, 2}, {1, 7}, {3, 5}, {4, 8}, {2, 16}}

// checkRandomProgram runs the random collective script drawn from seed on
// a shape mesh under both collective modes and asserts bit-identical
// results and exit clocks.
func checkRandomProgram(t *testing.T, seed int64, shape [2]int) {
	t.Helper()
	model := diffModel(shape[0], shape[1])
	procs := model.Nodes()
	rng := rand.New(rand.NewSource(seed))
	members := randMembers(rng, procs)
	block := make([]int, 1+procs/3)
	for i := range block {
		block[i] = i
	}
	type op struct {
		kind   int
		root   int
		size   int
		exch   int // pairwise exchange batch length (0 = none)
		sample bool
		skews  []float64
	}
	ops := make([]op, 8+rng.Intn(8))
	for i := range ops {
		o := &ops[i]
		o.kind = rng.Intn(6)
		o.root = rng.Intn(len(members))
		o.size = rng.Intn(5)
		if rng.Intn(3) == 0 {
			o.exch = 1 + rng.Intn(5)
		}
		o.sample = rng.Intn(3) == 0
		o.skews = make([]float64, procs)
		for r := range o.skews {
			if rng.Intn(2) == 0 {
				o.skews[r] = rng.Float64() * 1e-3
			}
		}
	}

	run := func(mode CollectiveMode) (*Result, [][]float64) {
		exits := make([][]float64, procs)
		body := func(p *Proc) {
			me := -1
			for i, m := range members {
				if m == p.Rank() {
					me = i
				}
			}
			var g, bg *Group
			if me >= 0 {
				g = p.Group(members)
			}
			if p.Rank() < len(block) {
				bg = p.Group(block)
			}
			for _, o := range ops {
				p.Compute(machine.OpVector, o.skews[p.Rank()]*1e9)
				if o.exch > 0 {
					if peer := p.Rank() ^ 1; peer < procs {
						p.ExchangeBatchPhantom(peer, Tag(5), 8*o.exch, o.exch)
					}
				}
				switch {
				case g != nil:
					switch o.kind {
					case 0:
						g.Barrier()
					case 1:
						g.BcastPhantom(o.root, 64+o.size)
					case 2:
						g.ReducePhantom(o.root, 8*(1+o.size))
					case 3:
						g.AllreducePhantom(o.root, 16)
					case 4:
						xs := []float64{float64(me) * 0.25, float64(o.size)}
						got := g.AllreduceFloats(xs, SumOp)
						exits[p.Rank()] = append(exits[p.Rank()], got...)
					case 5:
						g.BcastFlatPhantom(o.root, 32+o.size)
					}
				default:
					p.Compute(machine.OpScalar, 500)
				}
				if bg != nil && o.kind%2 == 0 {
					bg.BcastPhantom(0, 128)
				}
				if o.sample {
					exits[p.Rank()] = append(exits[p.Rank()], p.Now())
				}
			}
			exits[p.Rank()] = append(exits[p.Rank()], p.Now())
		}
		return runWindow(t, model, mode, 0, body), exits
	}

	tree, treeExits := run(CollectivesTree)
	fused, fusedExits := run(CollectivesFused)
	assertResultsEqual(t, tree, fused)
	for r := 0; r < procs; r++ {
		if !reflect.DeepEqual(treeExits[r], fusedExits[r]) {
			t.Fatalf("proc %d exit clocks diverge:\n tree  %v\n fused %v", r, treeExits[r], fusedExits[r])
		}
	}
}

// TestShardDifferentialResults pins the full Result (stats, totals,
// makespan) of one fixed collective-heavy program: overlapping row and
// world groups plus exchange batches between distant rows.
func TestShardDifferentialResults(t *testing.T) {
	model := diffModel(4, 8)
	procs := model.Nodes()
	body := func(p *Proc) {
		w := p.World()
		lo := (p.Rank() / 8) * 8
		row := p.Group([]int{lo, lo + 1, lo + 2, lo + 3, lo + 4, lo + 5, lo + 6, lo + 7})
		for it := 0; it < 30; it++ {
			p.Compute(machine.OpGemm, float64(1+p.Rank()%5)*1e4)
			row.BcastPhantom(it%8, 256)
			w.AllreducePhantom(0, 16)
			if it%4 == 0 {
				if peer := p.Rank() ^ 8; peer < procs {
					p.ExchangeBatchPhantom(peer, Tag(3), 64, 3)
				}
			}
		}
	}
	assertResultsEqual(t, runWindow(t, model, CollectivesTree, 0, body), runWindow(t, model, CollectivesFused, 0, body))
}

// TestShardPendLimitWindows pins bit-identical virtual times across
// deferred-settlement window sizes — the adaptive window must be a pure
// host-side batching knob.
func TestShardPendLimitWindows(t *testing.T) {
	model := diffModel(2, 8)
	procs := model.Nodes()
	body := func(p *Proc) {
		w := p.World()
		for it := 0; it < 200; it++ {
			p.Compute(machine.OpVector, float64(p.Rank()*100+it))
			w.BcastPhantom(it%procs, 64)
			w.ReducePhantom(0, 8)
			if it%17 == 0 {
				if peer := p.Rank() ^ 1; peer < procs {
					p.ExchangeBatchPhantom(peer, Tag(2), 16, 2)
				}
			}
		}
	}
	tree := runWindow(t, model, CollectivesTree, 0, body)
	for _, window := range []int{1, 2, 7, 64, 128, 1024} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) {
			assertResultsEqual(t, tree, runWindow(t, model, CollectivesFused, window, body))
		})
	}
}

// TestShardExchangeBatchDifferential: a fused exchange batch must be
// bit-identical to the hand-written SendPhantom/Recv loop, and both to
// the batch on the tree path.
func TestShardExchangeBatchDifferential(t *testing.T) {
	model := diffModel(2, 4)
	procs := model.Nodes()
	script := func(batched bool) func(p *Proc) {
		return func(p *Proc) {
			peer := procs - 1 - p.Rank() // distant peer: the most hops
			w := p.World()
			for it := 0; it < 12; it++ {
				p.Compute(machine.OpVector, float64(1000*(p.Rank()+1)))
				if batched {
					p.ExchangeBatchPhantom(peer, Tag(9), 8*(1+it%3), 4)
				} else {
					for k := 0; k < 4; k++ {
						p.SendPhantom(peer, Tag(9), 8*(1+it%3))
						p.Recv(peer, Tag(9))
					}
				}
				w.AllreducePhantom(0, 16)
			}
		}
	}
	tree := runWindow(t, model, CollectivesTree, 0, script(true))
	assertResultsEqual(t, tree, runWindow(t, model, CollectivesFused, 0, script(false)))
	assertResultsEqual(t, tree, runWindow(t, model, CollectivesFused, 0, script(true)))
}

// TestShardTraceDifferential: with a Recorder attached, the fused engine
// must emit the tree path's span stream, exchange batches included.
func TestShardTraceDifferential(t *testing.T) {
	model := diffModel(2, 4)
	run := func(mode CollectiveMode) []trace.Record {
		rec := trace.NewRecorder(model.Nodes())
		_, err := Run(Config{Model: model, Trace: rec, Collectives: mode}, func(p *Proc) {
			g := p.World()
			p.Compute(machine.OpGemm, float64(1e6*(p.Rank()+1)))
			g.Barrier()
			g.BcastPhantom(0, 1024)
			if peer := p.Rank() ^ 1; peer < p.Size() {
				p.ExchangeBatchPhantom(peer, Tag(1), 32, 2)
			}
			g.AllreducePhantom(0, 8)
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return rec.Records()
	}
	tree, fused := run(CollectivesTree), run(CollectivesFused)
	if !reflect.DeepEqual(tree, fused) {
		t.Fatalf("trace records diverge: tree %d records, fused %d", len(tree), len(fused))
	}
}

// TestShardCancelPromptlyStopsShards: cancelling the Ctx of a 32-process
// fused run whose members park in settle (Barrier) must unblock every
// process and return promptly — Run's own WaitGroup guarantees no
// process goroutine outlives the return.
func TestShardCancelPromptlyStopsShards(t *testing.T) {
	model := diffModel(4, 8)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	_, err := Run(Config{Model: model, Ctx: ctx, Collectives: CollectivesFused}, func(p *Proc) {
		w := p.World()
		for {
			p.Compute(machine.OpVector, 100)
			w.AllreducePhantom(0, 8)
			w.Barrier() // settles: parks in the fused wait
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled run took %v to return", d)
	}
}
