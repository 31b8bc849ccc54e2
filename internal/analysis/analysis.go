// Package analysis is rsmi-vet's engine: a repo-specific static
// analysis suite that machine-checks the serving tier's invariants —
// the properties eight PRs of growth have accumulated that the
// compiler cannot see. Each analyzer encodes one rule a shipped bug
// (or a near-miss) taught us:
//
//   - ctxflow: request paths must thread their context — no
//     context.Background()/TODO() and no calls that drop a ctx in
//     favour of a context-free engine wrapper (PR 5's cancellation
//     guarantees).
//   - poolpair: a sync.Pool Get must be paired with a Put on every
//     return path, unless ownership transfers to the caller (the
//     pooled trace/batch-encoder leak class).
//   - atomicmix: a struct field accessed through sync/atomic at one
//     site must never be read or written plainly at another (the torn
//     histogram p50 bug, PR 4).
//   - nilrecv: pointer methods on //rsmi:nilsafe types must guard the
//     nil receiver before touching fields (the branch-only untraced
//     path, PR 7).
//   - nodeprecated: in-repo code must not call this module's
//     // Deprecated: functions, not even from the XContext that
//     replaces a deprecated X (the PR 8 API consolidation, finished
//     in PR 25).
//   - noalloc: a function marked //rsmi:noalloc must have a
//     testing.AllocsPerRun pin in its package's tests (the 0-alloc
//     claims stay test-backed).
//
// The package deliberately mirrors golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built on the standard library
// alone (go/ast, go/types, and `go list` for loading), because the
// module has no third-party dependencies and keeps it that way.
// See CONTRIBUTING.md for how to add an analyzer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer describes one named rule and how to check a package
// against it.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //rsmi:allow suppression comments.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run checks one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
	// PkgScope restricts the analyzer to packages for which it
	// returns true (nil = every package). The driver consults it; the
	// fixture runner does not, so fixtures exercise analyzers
	// directly.
	PkgScope func(importPath string) bool
}

// A Diagnostic is one finding: a position, the analyzer that found
// it, and the message.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one typechecked package through one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, compiled files and
	// in-package _test.go files together (the test files matter:
	// noalloc's pins live there). IsTestFile distinguishes them.
	Files []*ast.File
	// XFiles are the package's external-test (package foo_test)
	// files, parsed but not typechecked; noalloc scans them for pins.
	XFiles []*ast.File
	Pkg    *TypesPkg
	// Deprecated holds the module-wide set of deprecated functions
	// and methods, keyed by deprecatedKey. Populated by the driver
	// and the fixture runner.
	Deprecated map[string]bool

	diags    *[]Diagnostic
	suppress map[string]map[int]bool // file -> line -> has //rsmi:allow <name>
}

// IsTestFile reports whether file was parsed from a _test.go file.
func (p *Pass) IsTestFile(file *ast.File) bool {
	name := p.Fset.Position(file.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

// Reportf records one finding unless an //rsmi:allow comment
// suppresses it. A suppression is the comment
//
//	//rsmi:allow <analyzer> -- <reason>
//
// on the same line as the finding or alone on the line above it; the
// reason is mandatory by convention (the analyzers that honour
// suppressions exist precisely because "trust me" is not a reason).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressedAt(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressedAt checks the suppression index (built lazily per file)
// for an //rsmi:allow comment covering the position.
func (p *Pass) suppressedAt(pos token.Position) bool {
	if p.suppress == nil {
		p.suppress = make(map[string]map[int]bool)
	}
	lines, ok := p.suppress[pos.Filename]
	if !ok {
		lines = map[int]bool{}
		for _, f := range append(append([]*ast.File{}, p.Files...), p.XFiles...) {
			if p.Fset.Position(f.Package).Filename != pos.Filename {
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if allowsAnalyzer(c.Text, p.Analyzer.Name) {
						lines[p.Fset.Position(c.Pos()).Line] = true
					}
				}
			}
		}
		p.suppress[pos.Filename] = lines
	}
	return lines[pos.Line] || lines[pos.Line-1]
}

// allowsAnalyzer reports whether comment is an //rsmi:allow directive
// naming the analyzer.
func allowsAnalyzer(comment, name string) bool {
	const prefix = "//rsmi:allow "
	if !strings.HasPrefix(comment, prefix) {
		return false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(comment, prefix))
	return rest == name || strings.HasPrefix(rest, name+" ")
}

// isDeprecatedDoc reports whether a declaration's doc comment carries
// the conventional "Deprecated:" marker: a doc paragraph line that
// begins with it, per the godoc convention. Mentioning the word
// mid-sentence does not deprecate.
func isDeprecatedDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "Deprecated:") {
			return true
		}
	}
	return false
}

// hasDirective reports whether a doc comment group contains the exact
// //rsmi:<name> directive line. Directives must be adjacent to the
// declaration (part of its doc group), like //go: directives.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// sortDiagnostics orders findings by file, line, column, analyzer —
// the stable order rsmi-vet prints and fixtures compare against.
func sortDiagnostics(diags []Diagnostic) {
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
}
