// Package analysis is the repo's static-analysis suite: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Diagnostic) plus the four analyzer families that
// machine-check this codebase's load-bearing contracts:
//
//   - hpccdet:     determinism — no wall clocks, no global rand, no
//     map-iteration order leaking into results (determinism.go)
//   - hpcclock:    lock ordering — never two locks of one kind held at once,
//     no mixed atomic/non-atomic field access (lockorder.go)
//   - hpccversion: kernel versions are compile-time constants, so the
//     CI diff script can enforce version bumps (versionbump.go)
//   - hpccwire:    wire hygiene — errors crossing the wire carry
//     context, goroutines inherit the ambient ctx (wirehygiene.go)
//
// The suite is exposed two ways: `hpccvet ./...` (standalone, via the
// go-list loader in load.go) and `go vet -vettool=hpccvet ./...` (the
// cmd/go vet-tool protocol, implemented in cmd/hpccvet). Both honor the
// suppression comments parsed here:
//
//	//lint:ignore hpccdet <reason>       — next (or same) line
//	//lint:file-ignore hpccdet <reason>  — whole file
//
// A reason is mandatory: a suppression without one is itself reported.
// docs/ANALYSIS.md documents each analyzer and the suppression policy.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass hands one package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, LockOrder, VersionBump, WireHygiene}
}

// ByName resolves a comma-separated analyzer list ("" = all).
func ByName(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q (have %s)", n, strings.Join(analyzerNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// RunAnalyzers runs every analyzer over every package, applies the
// suppression comments, drops findings in _test.go files (tests may use
// wall clocks and ad-hoc goroutines freely), and returns the surviving
// diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		d, err := runOne(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

func runOne(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			diags:     &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sup, malformed := parseSuppressions(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, d := range raw {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") {
			continue
		}
		if sup.covers(d) {
			continue
		}
		out = append(out, d)
	}
	return append(out, malformed...), nil
}

// suppressions indexes the //lint: comments of one package.
type suppressions struct {
	// byLine maps file → line → analyzer names suppressed on that line.
	byLine map[string]map[int]map[string]bool
	// byFile maps file → analyzer names suppressed file-wide.
	byFile map[string]map[string]bool
}

func (s *suppressions) covers(d Diagnostic) bool {
	if names := s.byFile[d.Pos.Filename]; names[d.Analyzer] {
		return true
	}
	lines := s.byLine[d.Pos.Filename]
	return lines != nil && lines[d.Pos.Line][d.Analyzer]
}

// parseSuppressions scans every comment for the //lint:ignore and
// //lint:file-ignore directives. An ignore covers its own line and the
// line after it, so both trailing and preceding-line placement work. A
// directive without a reason (or naming no analyzer) is reported as a
// finding itself — the suppression policy requires the why on the spot.
func parseSuppressions(fset *token.FileSet, files []*ast.File) (*suppressions, []Diagnostic) {
	s := &suppressions{
		byLine: make(map[string]map[int]map[string]bool),
		byFile: make(map[string]map[string]bool),
	}
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				var fileWide bool
				var rest string
				switch {
				case strings.HasPrefix(text, "lint:ignore "):
					rest = strings.TrimPrefix(text, "lint:ignore ")
				case strings.HasPrefix(text, "lint:file-ignore "):
					rest = strings.TrimPrefix(text, "lint:file-ignore ")
					fileWide = true
				default:
					continue
				}
				pos := fset.Position(c.Pos())
				names, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if names == "" || strings.TrimSpace(reason) == "" {
					malformed = append(malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "suppression",
						Message:  "malformed //lint: directive: want \"//lint:ignore <analyzer,...> <reason>\"",
					})
					continue
				}
				for _, name := range strings.Split(names, ",") {
					if fileWide {
						if s.byFile[pos.Filename] == nil {
							s.byFile[pos.Filename] = make(map[string]bool)
						}
						s.byFile[pos.Filename][name] = true
						continue
					}
					lines := s.byLine[pos.Filename]
					if lines == nil {
						lines = make(map[int]map[string]bool)
						s.byLine[pos.Filename] = lines
					}
					for _, ln := range []int{pos.Line, pos.Line + 1} {
						if lines[ln] == nil {
							lines[ln] = make(map[string]bool)
						}
						lines[ln][name] = true
					}
				}
			}
		}
	}
	return s, malformed
}

// hasMarker reports whether any file comment in the package carries the
// given //hpcc: marker (e.g. "deterministic", "wire", "versioned").
// Markers let packages outside the built-in scope lists — fixtures under
// testdata most of all — opt into a contract.
func hasMarker(files []*ast.File, marker string) bool {
	want := "hpcc:" + marker
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == want {
					return true
				}
			}
		}
	}
	return false
}
