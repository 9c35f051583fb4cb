// Package analysis is a self-contained static-analysis framework plus
// the peelvet analyzers that enforce this repository's concurrency and
// safety invariants at compile time:
//
//   - nospawn: no raw go statements outside internal/parallel — all
//     concurrency flows through parallel.Pool / parallel.Group /
//     Runtime.Go so panic isolation and admission accounting are never
//     bypassed.
//   - ctxbarrier: a *Ctx function whose round loop crosses pool
//     barriers must consult its ctx inside the loop, and a non-Ctx
//     exported variant must delegate to the Ctx form instead of
//     duplicating the loop.
//   - nounsafe: unsafe and reflect.{Slice,String}Header are confined to
//     internal/layout, whose Open is the single validated entry point
//     for zero-copy aliasing.
//   - nopanic: library code returns wrapped sentinel errors; a panic is
//     legal only in internal/parallel's panic plumbing, in
//     internal/faultinject (whose job is injecting them), or as a
//     documented programmer-error guard ("Panics if ..." in the doc
//     comment of the enclosing function).
//   - atomicshard: a scalar variable or field accessed through
//     sync/atomic anywhere in a package must not also be accessed
//     plainly — the class of race the pool's poison pointer and the
//     serving generation counter are one typo away from.
//   - detflow: functions reachable from a //peelvet:deterministic root
//     (the build entry points whose outputs must be byte-identical at
//     every worker count) must not range over maps, read clocks, draw
//     unseeded randomness, iterate sync.Maps, or select across
//     channels; verdicts cross package boundaries as Deterministic
//     facts.
//   - hotalloc: closures handed to the pool's chunked barriers
//     (For/ForCtx/RunRanges/RunRangesCtx) must not allocate inside
//     their per-element loops — per-worker and per-build allocation
//     only; the Allocates fact sees through calls into other packages.
//   - nodeprecated: non-test code must not call "Deprecated:" functions,
//     today the standard library's (the repository declares none); the
//     denylist is derived from doc comments and travels as a Deprecated
//     fact, so a deprecation is flagged in every importing package
//     without hand-kept lists.
//
// A ninth always-on check, reported under the pseudo-analyzer name
// "peelvet", enforces suppression hygiene: every //peelvet:allow
// directive must name its analyzers and carry a " -- reason" clause.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, object facts, an analysistest
// equivalent, and the "go vet -vettool" unit-checker protocol in
// cmd/peelvet) but is built only on the standard library: the toolchain
// in this repository's build environment has no module proxy access, so
// the framework loads packages with "go list -export" and type-checks
// against the compiler's export data via go/importer. Migrating an
// analyzer to the upstream framework is a mechanical import swap.
//
// Inter-procedural analyzers build on two layers in this package: a
// facts system (facts.go) that serializes per-object conclusions across
// package — and, under go vet, process — boundaries, and a lightweight
// intra-loop control-flow graph (cfg.go) that makes ctxbarrier
// path-sensitive. Analyzers declare the fact types they exchange in
// Analyzer.FactTypes; drivers thread one FactStore through packages in
// dependency order.
//
// A finding that is a reviewed, deliberate exception is suppressed in
// place with a trailing comment naming the analyzer and the reason:
//
//	go func() { ... }() //peelvet:allow nospawn -- lifecycle plumbing
//
// The comment may also stand alone on the line directly above the
// finding. Suppressions without a reason are themselves diagnostics.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check: a name for diagnostics and
// suppressions, a doc string, and a Run function applied once per
// package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, in -vet flag
	// selection, and in //peelvet:allow suppressions. It must be a
	// valid identifier.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then details.
	Doc string

	// FactTypes lists prototypes of the fact types the analyzer exports
	// or imports (see facts.go). A fact-using analyzer still runs when a
	// package is analyzed for facts only (the unitchecker's VetxOnly
	// mode), with diagnostics discarded.
	FactTypes []Fact

	// Run applies the analyzer to one package, reporting findings via
	// pass.Report / pass.Reportf.
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass is one (analyzer, package) unit of work: the syntax and type
// information for a single package, and the Report sink for findings.
type Pass struct {
	Analyzer *Analyzer

	// Fset maps positions of Files.
	Fset *token.FileSet

	// Files is the package's parsed syntax, comments included.
	// Test files (*_test.go) are present when the loader was asked
	// for them; analyzers that exempt tests must check positions via
	// InTestFile.
	Files []*ast.File

	// Pkg and TypesInfo carry the package's type information. Uses,
	// Defs, Selections, and Types are always populated.
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The checker wires it; analyzer
	// code usually calls Reportf.
	Report func(Diagnostic)

	// facts is the run-wide store backing ExportObjectFact and
	// ImportObjectFact; nil when the driver runs fact-free.
	facts *FactStore
}

// Path returns the package's import path.
func (p *Pass) Path() string { return p.Pkg.Path() }

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a *_test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Diagnostic is one finding: a position and a message. The checker
// stamps the Analyzer field; Suppressed marks findings a //peelvet:allow
// directive covered — dropped from text output and exit status, but
// surfaced by -json so CI can audit live exceptions.
type Diagnostic struct {
	Pos        token.Pos
	Message    string
	Analyzer   string
	Suppressed bool
}

// An AllowDirective is one parsed //peelvet:allow comment:
//
//	//peelvet:allow analyzer1,analyzer2 -- why this exception is safe
//
// Analyzer names may be comma- or space-separated; the " -- reason"
// clause is mandatory (enforcing it keeps every exception reviewable).
// A marker whose names or reason are missing or malformed parses with
// Malformed set, which drivers report as a finding of the pseudo-
// analyzer "peelvet".
type AllowDirective struct {
	Analyzers []string // deduplicated, declaration order
	Reason    string
	Malformed bool
}

// allowMarker introduces a suppression directive. Prose that merely
// mentions it mid-comment never suppresses: the marker must start the
// comment text.
const allowMarker = "//peelvet:allow"

// ParseAllowDirective parses one comment's text. ok reports whether the
// comment is a directive at all (begins with the marker on a token
// boundary); d.Malformed reports whether a directive is unusable.
// Exported for the fuzz harness; drivers go through collectSuppressions.
func ParseAllowDirective(text string) (d AllowDirective, ok bool) {
	rest, found := strings.CutPrefix(text, allowMarker)
	if !found || (rest != "" && !strings.ContainsAny(rest[:1], " \t")) {
		// "//peelvet:allowance" is prose, not a directive.
		return AllowDirective{}, false
	}
	tokens := strings.Fields(rest)
	sep := -1
	for i, tok := range tokens {
		if tok == "--" {
			sep = i
			break
		}
	}
	if sep < 0 {
		return AllowDirective{Malformed: true}, true
	}
	d.Reason = strings.Join(tokens[sep+1:], " ")
	seen := map[string]bool{}
	for _, tok := range tokens[:sep] {
		for _, name := range strings.Split(tok, ",") {
			if name == "" {
				continue
			}
			if !validAnalyzerName(name) {
				return AllowDirective{Malformed: true}, true
			}
			if !seen[name] {
				seen[name] = true
				d.Analyzers = append(d.Analyzers, name)
			}
		}
	}
	if len(d.Analyzers) == 0 || d.Reason == "" {
		return AllowDirective{Malformed: true}, true
	}
	return d, true
}

// validAnalyzerName reports whether name could be an analyzer name:
// ASCII letters, digits, and underscores only.
func validAnalyzerName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_':
		default:
			return false
		}
	}
	return name != ""
}

// suppressions records, per file line, which analyzers are allowed
// there, plus the lines holding malformed (unusable) directives.
type suppressions struct {
	allowed   map[int]map[string]bool // line -> analyzer names
	malformed map[int]token.Pos       // line -> comment position
}

// collectSuppressions scans a file's comments for //peelvet:allow
// markers. A marker suppresses findings on its own line and, when it is
// the whole comment group (a standalone comment), on the following line.
func collectSuppressions(fset *token.FileSet, f *ast.File) suppressions {
	s := suppressions{allowed: map[int]map[string]bool{}, malformed: map[int]token.Pos{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := ParseAllowDirective(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			if d.Malformed {
				s.malformed[pos.Line] = c.Pos()
				continue
			}
			lines := []int{pos.Line}
			if pos.Column <= 1 || standaloneComment(fset, f, c) {
				lines = append(lines, pos.Line+1)
			}
			for _, line := range lines {
				set := s.allowed[line]
				if set == nil {
					set = map[string]bool{}
					s.allowed[line] = set
				}
				for _, name := range d.Analyzers {
					set[name] = true
				}
			}
		}
	}
	return s
}

// standaloneComment reports whether c begins its line (no code before
// it), in which case the suppression also covers the next line.
func standaloneComment(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cpos := fset.Position(c.Pos())
	var onLine bool
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || onLine {
			return false
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return false
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return false
		}
		if fset.Position(n.Pos()).Line == cpos.Line && n.Pos() < c.Pos() {
			if _, isFile := n.(*ast.File); !isFile {
				onLine = true
			}
			return false
		}
		return true
	})
	return !onLine
}

// RunAnalyzers applies analyzers to one loaded package and returns its
// diagnostics sorted by position. Findings a //peelvet:allow directive
// covers come back with Suppressed set (callers deciding exit status
// must skip them); malformed directives (missing the " -- reason"
// clause) are reported as findings of the pseudo-analyzer "peelvet".
//
// store carries analyzer facts across packages; pass the same store for
// every package of a run, in dependency order ("go list -deps" order),
// so facts exported by a dependency are visible to its importers. A nil
// store runs the analyzers fact-blind.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, store *FactStore) ([]Diagnostic, error) {
	supp := map[string]suppressions{} // filename -> suppressions
	var diags []Diagnostic
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		s := collectSuppressions(fset, f)
		supp[name] = s
		for _, pos := range s.malformed {
			diags = append(diags, Diagnostic{
				Pos:      pos,
				Analyzer: "peelvet",
				Message:  "peelvet:allow needs a reason: write //peelvet:allow <analyzer> -- <why this exception is safe>",
			})
		}
	}
	for _, a := range analyzers {
		var reported []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d Diagnostic) { reported = append(reported, d) },
			facts:     store,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
		}
		for _, d := range reported {
			d.Analyzer = a.Name
			p := fset.Position(d.Pos)
			if s, ok := supp[p.Filename]; ok && s.allowed[p.Line][a.Name] {
				d.Suppressed = true
			}
			diags = append(diags, d)
		}
	}
	if store != nil {
		store.MarkAnalyzed(pkg.Path())
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
