// Package vet is the minimal static-analysis framework behind
// cmd/gscope-vet: a self-contained, stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis surface this repo needs. The container
// building this repo has no module proxy access, so rather than vendor
// x/tools the framework provides the same shape — an Analyzer with a Run
// function over a type-checked Pass — backed by a loader that shells out
// to `go list -export` and type-checks from compiler export data (the
// same mechanism cmd/vet's unitchecker uses).
//
// The framework adds one repo-specific layer the stock multichecker does
// not have: module-wide annotation facts. The loader scans every loaded
// package for `//gscope:` directives (see ParseDirective) and publishes
// them on Pass.Module, so an analyzer checking one package can ask
// whether a function in another package is marked `//gscope:hotpath`,
// which lock a `//gscope:locked` function expects held, or which struct
// fields are `//gscope:guardedby` a mutex. Suppressions
// (`//gscope:allow <analyzer> <reason>`) are applied by the runner, not
// by analyzers; see run.go.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis: a named invariant checked over a
// single type-checked package at a time. Cross-package knowledge flows
// only through Module facts, which keeps every analyzer independently
// testable over inline source (testutil.RunAnalyzer).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//gscope:allow <name>` suppressions. By convention a short,
	// lowercase word.
	Name string

	// Doc is the one-paragraph description `gscope-vet -help` prints:
	// the invariant, the annotation grammar it consumes, and what a
	// diagnostic means.
	Doc string

	// Run checks one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one package: syntax, types, and the
// module-wide annotation facts.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Module    *Module

	report func(Diagnostic)
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report records one finding.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf records one finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Module is the annotation fact base collected over every loaded package
// before any analyzer runs. Keys are stable strings rather than
// types.Object values because a package loaded from source and the same
// package materialized from export data (as a dependency of another
// pass) produce distinct object identities.
type Module struct {
	// Hotpath holds the FullName (types.Func.FullName, e.g.
	// "(*repro/internal/core.Probe).RecordAt") of every function marked
	// //gscope:hotpath.
	Hotpath map[string]bool

	// Locked maps the FullName of every function that requires a lock
	// already held on entry to the name of the receiver field holding
	// that lock — from an explicit `//gscope:locked mu` directive, or
	// from the `...Locked` naming convention (which implies "mu").
	Locked map[string]string

	// Guarded maps a field key ("pkgpath.Struct.Field") to the name of
	// the sibling mutex field that `//gscope:guardedby <mu>` declares
	// must be held for every access.
	Guarded map[string]string

	// Atomic holds field keys marked `//gscope:atomic`: plain-typed
	// fields that may only be touched through sync/atomic, never with
	// plain loads or stores.
	Atomic map[string]bool

	// Internal holds the import paths of every source-loaded package.
	// Analyzers use it to distinguish module-internal callees (whose
	// annotations are known) from external ones: a call into a package
	// that was never loaded cannot be proven hot-path clean.
	Internal map[string]bool
}

// NewModule returns an empty fact base.
func NewModule() *Module {
	return &Module{
		Hotpath:  make(map[string]bool),
		Locked:   make(map[string]string),
		Guarded:  make(map[string]string),
		Atomic:   make(map[string]bool),
		Internal: make(map[string]bool),
	}
}

// FuncKey returns the stable cross-package key for a function object:
// its FullName, e.g. "repro/internal/tuple.CleanName" or
// "(*repro/internal/core.Feed).PushID". An instantiated generic function
// or method keys as its generic declaration, where directives live.
func FuncKey(fn *types.Func) string { return fn.Origin().FullName() }

// FieldKey returns the stable key for a field of a named struct type:
// "pkgpath.Struct.Field". The second result is false when the owner is
// not a named type in a package (e.g. a field of an anonymous struct).
func FieldKey(owner types.Type, field *types.Var) (string, bool) {
	for {
		switch t := owner.(type) {
		case *types.Pointer:
			owner = t.Elem()
			continue
		case *types.Named:
			obj := t.Obj()
			if obj.Pkg() == nil {
				return "", false
			}
			return obj.Pkg().Path() + "." + obj.Name() + "." + field.Name(), true
		default:
			return "", false
		}
	}
}

// A Directive is one parsed `//gscope:<verb> <args>` comment.
type Directive struct {
	Pos  token.Pos
	Verb string // "hotpath", "guardedby", "locked", "atomic", "allow"
	Args string // remainder after the verb, space-trimmed
}

// ParseDirective parses a single comment. It returns false for comments
// that are not gscope directives. Note ast.CommentGroup.Text strips
// directive-style comments entirely, so callers must walk the raw
// comment list — which this signature enforces.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	text, ok := strings.CutPrefix(c.Text, "//gscope:")
	if !ok {
		return Directive{}, false
	}
	verb, args, _ := strings.Cut(text, " ")
	return Directive{Pos: c.Slash, Verb: verb, Args: strings.TrimSpace(args)}, true
}

// Directives returns every gscope directive in a comment group.
func Directives(g *ast.CommentGroup) []Directive {
	if g == nil {
		return nil
	}
	var out []Directive
	for _, c := range g.List {
		if d, ok := ParseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// HasDirective reports whether the comment group carries the verb, and
// returns its arguments.
func HasDirective(g *ast.CommentGroup, verb string) (string, bool) {
	for _, d := range Directives(g) {
		if d.Verb == verb {
			return d.Args, true
		}
	}
	return "", false
}

// CollectFacts scans one package's syntax for annotation directives and
// merges them into m. The loader calls it for every package before any
// analyzer runs; the test harness calls it over its inline sources.
func CollectFacts(m *Module, files []*ast.File, info *types.Info) error {
	var firstErr error
	record := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn, _ := info.Defs[n.Name].(*types.Func)
				if fn == nil {
					return true
				}
				if _, ok := HasDirective(n.Doc, "hotpath"); ok {
					m.Hotpath[FuncKey(fn)] = true
				}
				if args, ok := HasDirective(n.Doc, "locked"); ok {
					if args == "" {
						record(fmt.Errorf("%s: //gscope:locked needs a lock field name", fn.FullName()))
						return true
					}
					m.Locked[FuncKey(fn)] = args
				} else if strings.HasSuffix(n.Name.Name, "Locked") && n.Name.Name != "Locked" && n.Recv != nil {
					m.Locked[FuncKey(fn)] = "mu"
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				tn, _ := info.Defs[n.Name].(*types.TypeName)
				if tn == nil || tn.Pkg() == nil {
					return true
				}
				for _, field := range st.Fields.List {
					for _, g := range []*ast.CommentGroup{field.Doc, field.Comment} {
						lock, guarded := HasDirective(g, "guardedby")
						_, atomicOnly := HasDirective(g, "atomic")
						if !guarded && !atomicOnly {
							continue
						}
						if guarded && lock == "" {
							record(fmt.Errorf("%s.%s: //gscope:guardedby needs a lock field name", tn.Pkg().Path(), tn.Name()))
							continue
						}
						for _, name := range field.Names {
							key := tn.Pkg().Path() + "." + tn.Name() + "." + name.Name
							if guarded {
								m.Guarded[key] = lock
							}
							if atomicOnly {
								m.Atomic[key] = true
							}
						}
					}
				}
			}
			return true
		})
	}
	return firstErr
}
