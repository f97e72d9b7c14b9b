package micro

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/nx"
)

// The sweep must be bit-identical on the fused engine and on the tree
// message path (the semantic oracle) — it is the cheap canary the big
// differential suites lean on.
func TestPingPongShardDifferential(t *testing.T) {
	run := func(mode nx.CollectiveMode) *Outcome {
		prev := nx.DefaultCollectives()
		nx.SetDefaultCollectives(mode)
		defer nx.SetDefaultCollectives(prev)
		out, err := Run(Config{Procs: 16, Model: machine.Delta()})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return out
	}
	tree, fused := run(nx.CollectivesTree), run(nx.CollectivesFused)
	if !reflect.DeepEqual(fused.Points, tree.Points) {
		t.Errorf("points diverge:\n fused %+v\n tree  %+v", fused.Points, tree.Points)
	}
	if !reflect.DeepEqual(fused.Run, tree.Run) {
		t.Errorf("run stats diverge:\n fused %+v\n tree  %+v", fused.Run, tree.Run)
	}
}

// Latency must rise with message size while bandwidth approaches the
// asymptote — the qualitative shape the practical's plot shows.
func TestPingPongShape(t *testing.T) {
	out, err := Run(Config{Model: machine.Delta()})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Points) < 3 {
		t.Fatalf("want a multi-size sweep, got %d points", len(out.Points))
	}
	for i := 1; i < len(out.Points); i++ {
		prev, cur := out.Points[i-1], out.Points[i]
		if cur.OneWay <= prev.OneWay {
			t.Errorf("one-way time not increasing: %d bytes %.3g s vs %d bytes %.3g s",
				prev.Bytes, prev.OneWay, cur.Bytes, cur.OneWay)
		}
		if cur.Bandwidth <= prev.Bandwidth {
			t.Errorf("bandwidth not increasing: %d bytes %.3g B/s vs %d bytes %.3g B/s",
				prev.Bytes, prev.Bandwidth, cur.Bytes, cur.Bandwidth)
		}
	}
	if out.Latency <= 0 || out.Bandwidth <= 0 {
		t.Errorf("headline numbers must be positive: latency %g, bandwidth %g", out.Latency, out.Bandwidth)
	}
}

func TestPingPongConfigValidation(t *testing.T) {
	cases := []Config{
		{Procs: 1, Model: machine.Delta()},
		{Procs: 4, Peer: 4, Model: machine.Delta()},
		{Procs: 4, Reps: -1, Model: machine.Delta()},
		{Procs: 4, Sizes: []int{8, -1}, Model: machine.Delta()},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: want error, got nil", i)
		}
	}
}

// The registry entry must be reachable, honor Quick, and carry the
// headline metrics.
func TestPingPongWorkload(t *testing.T) {
	w, err := harness.Lookup("micro/pingpong")
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(context.Background(), harness.Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "Ping pong") {
		t.Errorf("rendered table missing title:\n%s", res.Text)
	}
	found := map[string]bool{}
	for _, m := range res.Metrics {
		found[m.Name] = true
	}
	for _, name := range []string{"latency-us", "bandwidth-MBs", "procs"} {
		if !found[name] {
			t.Errorf("missing metric %q", name)
		}
	}
}

func TestPingPongCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(Config{Model: machine.Delta(), Ctx: ctx}); err == nil {
		t.Error("want cancellation error, got nil")
	}
}
