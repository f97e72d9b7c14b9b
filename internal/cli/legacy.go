package cli

// The pre-registry single-purpose binaries (linpack, nrensim, deltasim,
// funding) live on as subcommands with their original flags, so existing
// invocations keep working with "hpcc " prepended.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"

	"repro/internal/agency"
	"repro/internal/cache"
	"repro/internal/funding"
	"repro/internal/harness"
	"repro/internal/linpack"
	"repro/internal/machine"
	"repro/internal/report"
)

func cmdLinpack(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc linpack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 25000, "matrix order")
	nb := fs.Int("nb", 16, "block size")
	pr := fs.Int("pr", 16, "process grid rows")
	pc := fs.Int("pc", 33, "process grid columns")
	sweep := fs.String("sweep", "", "sweep a parameter: n, nb, grid or machines")
	real := fs.Bool("real", false, "real numerics (small N) with residual check")
	var xf collectivesFlags
	xf.register(fs)
	var cf cacheFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	if err := xf.apply(); err != nil {
		return err
	}
	resultCache, err := cf.open()
	if err != nil {
		return err
	}

	// The real-numerics run is the one path the registry does not serve
	// (workloads are phantom-mode); it stays direct and uncached.
	if *real {
		if *sweep != "" {
			return fmt.Errorf("linpack: -real does not combine with -sweep")
		}
		base := linpack.Config{
			N: *n, NB: *nb, GridRows: *pr, GridCols: *pc,
			Model: machine.Delta(), Phantom: false, Seed: 1992,
		}
		out, err := linpack.Run(base)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, linpack.Table("LINPACK", []linpack.Point{{Config: base, Outcome: out}}).Render())
		fmt.Fprintf(stdout, "normalized residual: %.3f\n", out.Residual)
		return nil
	}

	// Phantom runs are veneers over the registry workloads (same configs,
	// same rendered tables), so -cache serves repeats from disk exactly
	// as it does for run/sweep/report.
	vals := map[string]string{
		"n":  strconv.Itoa(*n),
		"nb": strconv.Itoa(*nb),
		"pr": strconv.Itoa(*pr),
		"pc": strconv.Itoa(*pc),
	}
	var id string
	switch *sweep {
	case "":
		id = "linpack/delta"
	case "n":
		id = "linpack/sweep-n"
		delete(vals, "n") // the sweep supplies the orders
	case "nb":
		id = "linpack/sweep-nb"
		delete(vals, "nb") // the sweep supplies the block sizes
	case "grid":
		id = "linpack/sweep-grid"
		delete(vals, "pr") // the sweep supplies the grids
		delete(vals, "pc")
	case "machines":
		id = "linpack/generations"
		vals = map[string]string{"n": "8192", "nb": strconv.Itoa(*nb)}
	default:
		return fmt.Errorf("unknown sweep %q (want n, nb, grid or machines)", *sweep)
	}
	return runRegisteredCached(ctx, resultCache, stdout, stderr, id, vals)
}

// runRegisteredCached runs a registry workload with the given overrides
// through the result cache (nil cache = plain run) and writes its
// rendered text — the legacy commands are thin veneers over the same
// workloads the registry serves, so -cache behaves exactly as it does on
// run/sweep/report.
func runRegisteredCached(ctx context.Context, c *cache.Cache, stdout, stderr io.Writer, id string, values map[string]string) error {
	w, err := harness.Lookup(id)
	if err != nil {
		return err
	}
	res, err := runCached(ctx, c, w, harness.Params{Values: values}, stderr)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, res.Text)
	return err
}

func cmdNren(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc nren", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bytes := fs.Float64("bytes", 10e6, "reference transfer size in bytes")
	storm := fs.Bool("storm", false, "run all-pairs concurrent transfers")
	var cf cacheFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	resultCache, err := cf.open()
	if err != nil {
		return err
	}

	vals := map[string]string{"bytes": strconv.FormatFloat(*bytes, 'g', -1, 64)}
	if err := runRegisteredCached(ctx, resultCache, stdout, stderr, "nren/link-classes", vals); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	if err := runRegisteredCached(ctx, resultCache, stdout, stderr, "nren/transfer-matrix", vals); err != nil {
		return err
	}
	if !*storm {
		return nil
	}
	fmt.Fprintln(stdout)
	return runRegisteredCached(ctx, resultCache, stdout, stderr, "nren/storm", vals)
}

func cmdDelta(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc delta", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rows := fs.Int("rows", 16, "mesh rows")
	cols := fs.Int("cols", 33, "mesh columns")
	pattern := fs.String("pattern", "uniform", "traffic pattern: uniform, transpose, hotspot, neighbor")
	bytes := fs.Int("bytes", 1024, "packet size")
	packets := fs.Int("packets", 50, "packets per node")
	var cf cacheFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}
	resultCache, err := cf.open()
	if err != nil {
		return err
	}

	return runRegisteredCached(ctx, resultCache, stdout, stderr, "mesh/saturation", map[string]string{
		"rows":    strconv.Itoa(*rows),
		"cols":    strconv.Itoa(*cols),
		"pattern": *pattern,
		"bytes":   strconv.Itoa(*bytes),
		"packets": strconv.Itoa(*packets),
	})
}

func cmdFunding(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hpcc funding", flag.ContinueOnError)
	fs.SetOutput(stderr)
	csv := fs.Bool("csv", false, "emit the funding table as CSV")
	jsonOut := fs.Bool("json", false, "emit the funding table as JSON")
	if err := fs.Parse(args); err != nil {
		return parseErr(err)
	}

	if *csv {
		_, err := io.WriteString(stdout, funding.Table().CSV())
		return err
	}
	if *jsonOut {
		s, err := funding.Table().JSON()
		if err != nil {
			return err
		}
		_, err = io.WriteString(stdout, s)
		return err
	}
	fmt.Fprint(stdout, funding.Table().Render())
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, funding.GrowthTable().Render())
	fmt.Fprintln(stdout)

	lines := funding.FY9293()
	labels := make([]string, len(lines))
	vals := make([]float64, len(lines))
	for i, l := range lines {
		labels[i] = l.Agency
		vals[i] = l.FY93
	}
	fmt.Fprint(stdout, report.BarChart("FY 1993 request ($M)", labels, vals, 40))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, agency.Matrix().Render())
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "Program goals:")
	for i, g := range agency.Goals() {
		fmt.Fprintf(stdout, "  %d. %s\n", i+1, g)
	}
	return nil
}
