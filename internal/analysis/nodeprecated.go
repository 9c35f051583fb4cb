package analysis

import (
	"go/ast"
	"go/types"
)

// NoDeprecated keeps non-test code off deprecated API.
//
// The repository declares no deprecated API of its own: each operation
// has one default-pool form and one explicit-pool (...Ctx) form, and
// compatibility wrappers are deleted rather than kept. What the
// analyzer guards today is the use of deprecated API from the standard
// library (go/importer.ForCompiler, whose nil-lookup mode is
// deprecated, is the one reasoned allow), and it keeps any future
// wrapper from gaining callers before it is deleted.
//
// The analyzer derives its denylist from the source of truth — any
// function whose doc comment carries a standard "Deprecated:"
// paragraph — and exports it as a Deprecated fact, so a function
// declared deprecated in one package is flagged when called from
// another without either naming the other in this analyzer.
//
// Exempt uses: test files (a deprecated function stays tested until it
// is deleted), the file declaring it, and the bodies of functions that
// are themselves deprecated (wrappers may chain to each other).
var NoDeprecated = &Analyzer{
	Name: "nodeprecated",
	Doc: "non-test code must not call Deprecated: functions\n\n" +
		"Functions documented with a \"Deprecated:\" paragraph export a " +
		"Deprecated fact; any use from non-test code outside the " +
		"declaring file (and outside other deprecated functions) is " +
		"flagged with the function's own deprecation message.",
	FactTypes: []Fact{new(Deprecated)},
	Run:       runNoDeprecated,
}

// Deprecated is nodeprecated's fact: the function's "Deprecated:"
// message, which by convention names the replacement.
type Deprecated struct {
	Msg string
}

// AFact marks Deprecated as a fact type.
func (*Deprecated) AFact() {}

func init() { RegisterFact(new(Deprecated)) }

func runNoDeprecated(pass *Pass) error {
	// Pass 1: find this package's deprecated functions, export facts,
	// and remember where each is declared for the same-file exemption.
	type deprInfo struct {
		msg  string
		file string
	}
	local := map[types.Object]deprInfo{}
	deprecatedFuncs := map[*ast.FuncDecl]bool{}
	for _, f := range pass.Files {
		fname := pass.Fset.Position(f.Pos()).Filename
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			msg := deprecationMessage(fd.Doc)
			if msg == "" {
				continue
			}
			deprecatedFuncs[fd] = true
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				local[fn] = deprInfo{msg: msg, file: fname}
				if !pass.InTestFile(fd.Pos()) {
					pass.ExportObjectFact(fn, &Deprecated{Msg: msg})
				}
			}
		}
	}

	// Pass 2: flag uses.
	for _, f := range pass.Files {
		fname := pass.Fset.Position(f.Pos()).Filename
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			msg := ""
			if info, ok := local[fn]; ok {
				if info.file == fname {
					return true // declaring file may reference its own deprecated functions
				}
				msg = info.msg
			} else if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
				var fact Deprecated
				if !pass.ImportObjectFact(fn, &fact) {
					return true
				}
				msg = fact.Msg
			} else {
				return true
			}
			if encl := enclosingFuncDecl(f, id.Pos()); encl != nil && deprecatedFuncs[encl] {
				return true // deprecated wrappers may chain to each other
			}
			pass.Reportf(id.Pos(), "use of deprecated %s: %s", funcDisplayName(fn), msg)
			return true
		})
	}
	return nil
}
