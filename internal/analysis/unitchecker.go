package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"strings"
)

// This file implements the cmd/go vet-tool protocol, the peelvet
// equivalent of golang.org/x/tools/go/analysis/unitchecker: when cmd/go
// runs `go vet -vettool=peelvet ./...` it invokes the tool once per
// package with a single @file argument naming a JSON "vet config" that
// carries the file list and the export-data locations of every
// dependency (cmd/go has already built them). The tool type-checks the
// unit from that config, runs the analyzers, prints diagnostics to
// stderr, and writes the unit's analyzer facts to the VetxOutput file.
//
// Facts make the protocol's PackageVetx/VetxOutput/VetxOnly fields
// load-bearing: cmd/go hands each unit the serialized facts of its
// already-analyzed dependencies (cached like any build artifact) and
// caches what the unit writes in turn, so inter-procedural analyzers
// (detflow, hotalloc, nodeprecated) stay exactly as incremental and
// cache-correct as compilation. A VetxOnly unit — a dependency being
// analyzed only so its importers can see its facts — runs just the
// fact-producing analyzers and reports nothing.

// vetConfig mirrors the JSON schema cmd/go writes for vet tools.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Unitchecker exit codes, matching x/tools unitchecker: cmd/go treats
// any nonzero exit as "vet failed" and relays stderr.
const (
	ExitClean    = 0
	ExitError    = 1
	ExitFindings = 2
)

// RunUnitchecker executes one vet unit described by the config file at
// cfgPath, running analyzers over it and printing diagnostics to stderr.
// It returns the process exit code.
func RunUnitchecker(cfgPath string, analyzers []*Analyzer, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "peelvet: reading vet config: %v\n", err)
		return ExitError
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "peelvet: parsing vet config %s: %v\n", cfgPath, err)
		return ExitError
	}

	// Import the facts of every already-analyzed dependency. A vetx file
	// cmd/go names but cannot be read is an error: silently dropping it
	// would turn real cross-package findings into false negatives.
	// Standard-library facts are not imported: the standalone driver
	// never analyzes the standard library, and fact-driven analyzers
	// trust calls into packages that were not analyzed (see DetFlow), so
	// both drivers judge a call into the standard library the same way.
	store := NewFactStore()
	for path, file := range cfg.PackageVetx {
		if cfg.Standard[path] {
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(stderr, "peelvet: reading facts for %s: %v\n", path, err)
			return ExitError
		}
		if err := store.DecodePackage(path, data); err != nil {
			fmt.Fprintf(stderr, "peelvet: %v\n", err)
			return ExitError
		}
	}

	// A VetxOnly unit exists solely to produce facts for importers: run
	// only the fact-producing analyzers and report nothing. The vetx file
	// must be written even when no analyzer produces facts — cmd/go
	// caches it and refuses to proceed without it.
	if cfg.VetxOnly {
		analyzers = factProducers(analyzers)
	}

	writeVetx := func() bool {
		if cfg.VetxOutput == "" {
			return true
		}
		data, err := store.EncodePackage(cfg.ImportPath)
		if err == nil {
			err = os.WriteFile(cfg.VetxOutput, data, 0o666)
		}
		if err != nil {
			fmt.Fprintf(stderr, "peelvet: writing %s: %v\n", cfg.VetxOutput, err)
			return false
		}
		return true
	}

	fset, diags, typeErrs, err := checkUnit(&cfg, analyzers, store)
	if err != nil {
		fmt.Fprintf(stderr, "peelvet: %s: %v\n", cfg.ImportPath, err)
		return ExitError
	}
	if len(typeErrs) > 0 && cfg.SucceedOnTypecheckFailure {
		// cmd/go sets this when the package is known not to compile; the
		// real build error is reported elsewhere.
		writeVetx()
		return ExitClean
	}
	if !writeVetx() {
		return ExitError
	}
	if cfg.VetxOnly {
		return ExitClean
	}
	for _, err := range typeErrs {
		fmt.Fprintf(stderr, "peelvet: %s: %v\n", cfg.ImportPath, err)
	}
	if len(typeErrs) > 0 {
		return ExitError
	}
	findings := 0
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		findings++
		fmt.Fprintf(stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if findings > 0 {
		return ExitFindings
	}
	return ExitClean
}

// factProducers filters analyzers to those that export or import facts —
// the only ones whose VetxOnly run has an observable effect.
func factProducers(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	for _, a := range analyzers {
		if len(a.FactTypes) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// checkUnit parses and type-checks the unit and runs the analyzers.
func checkUnit(cfg *vetConfig, analyzers []*Analyzer, store *FactStore) (*token.FileSet, []Diagnostic, []error, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}

	imp := newUnitImporter(fset, cfg)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor(cfg.Compiler, runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	if conf.Sizes == nil {
		conf.Sizes = types.SizesFor("gc", runtime.GOARCH)
	}
	tpkg, _ := conf.Check(cfg.ImportPath, fset, files, info)

	diags, err := RunAnalyzers(fset, files, tpkg, info, analyzers, store)
	if err != nil {
		return nil, nil, nil, err
	}
	return fset, diags, typeErrs, nil
}

// newUnitImporter resolves imports through the export-data files cmd/go
// listed in the vet config. ImportMap translates source-level import
// paths (possibly vendored) to canonical package paths; PackageFile maps
// canonical paths to export data.
func newUnitImporter(fset *token.FileSet, cfg *vetConfig) types.Importer {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	//peelvet:allow nodeprecated -- the deprecation covers only nil lookup; this lookup is non-nil
	base := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		return base.Import(path)
	})
}

// PrintVersion implements the -V=full handshake cmd/go uses to build the
// vet cache key. The output format ("name version ...") is prescribed;
// the version token folds in the analyzer names so adding an analyzer
// invalidates cached vet results.
func PrintVersion(w io.Writer, name string, analyzers []*Analyzer) {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	fmt.Fprintf(w, "%s version devel-%s buildID=none\n", name, strings.Join(names, "+"))
}

// PrintFlags implements the -flags handshake: cmd/go asks the tool which
// flags it supports before forwarding any. Peelvet takes none, so the
// answer is an empty JSON array.
func PrintFlags(w io.Writer) {
	fmt.Fprintln(w, "[]")
}
