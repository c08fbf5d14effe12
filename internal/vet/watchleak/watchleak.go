// Package watchleak implements the gscope-vet analyzer that pairs every
// event-loop watch with a cancellation path.
//
// A glib watch (IOWatch from Loop.WatchReader and friends, WriteWatch
// from Loop.WatchWriter) owns a goroutine pumping a reader, listener, or
// write queue. One that is constructed and then forgotten keeps its
// goroutine and file descriptor until process exit — the classic slow
// leak in long-lived netscope servers.
//
// The analyzer's ownership rules are deliberately simple and local:
//
//   - a watch discarded outright (ExprStmt, or assigned only to blank)
//     is always a leak: nothing can ever cancel it;
//   - a watch held in a local variable must either have Cancel called on
//     that variable somewhere in the function, or visibly transfer
//     ownership — be returned, stored into a struct field or container,
//     passed to another call, or captured by a closure;
//   - a watch stored directly into a struct field transfers ownership to
//     the struct; the field's type then must have SOME method in the
//     package that cancels through that field (field.Cancel() or a
//     transfer of the field elsewhere), otherwise every instance leaks.
package watchleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/vet"
)

// Analyzer is the watchleak analyzer.
var Analyzer = &vet.Analyzer{
	Name: "watchleak",
	Doc:  "every glib watch construction must have a reachable Cancel: no discarded, blank-assigned, or never-canceled watches",
	Run:  run,
}

// constructors holds the FullName of every function returning an owned
// watch.
var constructors = map[string]bool{
	"(*repro/internal/glib.Loop).WatchReader":     true,
	"(*repro/internal/glib.Loop).WatchReaderSize": true,
	"(*repro/internal/glib.Loop).WatchLines":      true,
	"(*repro/internal/glib.Loop).WatchAccept":     true,
	"(*repro/internal/glib.Loop).WatchWriter":     true,
}

func run(pass *vet.Pass) error {
	c := &checker{pass: pass, info: pass.TypesInfo}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	c.checkFieldStores()
	return nil
}

type checker struct {
	pass *vet.Pass
	info *types.Info

	// fieldStores maps "Struct.field" keys that received a watch to the
	// position of one such store, for the package-wide phase.
	fieldStores map[string]token.Pos
}

func (c *checker) isConstructor(call *ast.CallExpr) bool {
	fn := vet.Callee(c.info, call)
	return fn != nil && constructors[vet.FuncKey(fn)]
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	// owned maps a local variable object to the construction position it
	// must account for.
	owned := make(map[*types.Var]token.Pos)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && c.isConstructor(call) {
				c.pass.Reportf(n.Pos(), "%s result discarded — the watch goroutine can never be canceled", calleeName(c.info, call))
			}
		case *ast.AssignStmt:
			c.assign(n, owned)
		}
		return true
	})

	// Second sweep: a local is cleared by a Cancel call on it or by any
	// use that transfers ownership (return, call argument, composite
	// literal, store into a non-blank lvalue, closure capture).
	if len(owned) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Cancel" {
				if v := localVar(c.info, sel.X); v != nil {
					delete(owned, v)
				}
			}
			for _, arg := range n.Args {
				if v := localVar(c.info, arg); v != nil {
					delete(owned, v)
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if v := localVar(c.info, r); v != nil {
					delete(owned, v)
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if v := localVar(c.info, e); v != nil {
					delete(owned, v)
				}
			}
		case *ast.AssignStmt:
			// watch moved somewhere else: w2 := w, s.f = w, m[k] = w.
			for i, r := range n.Rhs {
				v := localVar(c.info, r)
				if v == nil {
					continue
				}
				if i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
				}
				delete(owned, v)
			}
		case *ast.FuncLit:
			// Any use of the variable inside a closure counts as keeping a
			// cancelable reference alive.
			ast.Inspect(n.Body, func(in ast.Node) bool {
				if id, ok := in.(*ast.Ident); ok {
					if v, _ := c.info.Uses[id].(*types.Var); v != nil {
						delete(owned, v)
					}
				}
				return true
			})
			return false
		}
		return true
	})
	for v, pos := range owned {
		c.pass.Reportf(pos, "watch in %q is never canceled and never escapes %s", v.Name(), fd.Name.Name)
	}
}

// assign records construction results: into locals (tracked), blank
// (flagged), or struct fields (recorded for the package-wide phase).
func (c *checker) assign(as *ast.AssignStmt, owned map[*types.Var]token.Pos) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !c.isConstructor(call) || len(as.Lhs) != 1 {
		return
	}
	switch l := as.Lhs[0].(type) {
	case *ast.Ident:
		if l.Name == "_" {
			c.pass.Reportf(as.Pos(), "%s result assigned to blank — the watch goroutine can never be canceled", calleeName(c.info, call))
			return
		}
		if v, okDef := c.info.Defs[l].(*types.Var); okDef {
			owned[v] = as.Pos()
		} else if _, okUse := c.info.Uses[l].(*types.Var); okUse {
			// Plain `=` to an existing named variable: could be a field
			// alias or package var; treat as ownership transfer.
		}
	case *ast.SelectorExpr:
		if fld, owner, ok := vet.FieldSelection(c.info, l); ok {
			if key, ok := vet.FieldKey(owner, fld); ok {
				if c.fieldStores == nil {
					c.fieldStores = make(map[string]token.Pos)
				}
				if _, dup := c.fieldStores[key]; !dup {
					c.fieldStores[key] = as.Pos()
				}
			}
		}
	}
}

// checkFieldStores verifies that each struct field holding a watch is
// canceled somewhere in the package: some expression `x.field.Cancel()`
// or a use of `x.field` as a call argument or return value.
func (c *checker) checkFieldStores() {
	if len(c.fieldStores) == 0 {
		return
	}
	released := make(map[string]bool)
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// x.field.Cancel() — the receiver chain ends in a tracked field.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Cancel" {
				if key, ok := c.fieldKeyOf(sel.X); ok {
					released[key] = true
				}
			}
			// x.field passed onward (e.g. to a helper that cancels).
			for _, arg := range call.Args {
				if key, ok := c.fieldKeyOf(arg); ok {
					released[key] = true
				}
			}
			return true
		})
		// Range over a container of watches with per-element Cancel is
		// covered by the Cancel-receiver case (`w.Cancel()` on the range
		// variable is not a field selection), so also accept any range
		// whose X is the tracked field.
		ast.Inspect(f, func(n ast.Node) bool {
			if rg, ok := n.(*ast.RangeStmt); ok {
				if key, ok := c.fieldKeyOf(rg.X); ok {
					released[key] = true
				}
			}
			return true
		})
	}
	for key, pos := range c.fieldStores {
		if !released[key] {
			c.pass.Reportf(pos, "watch stored in %s but no method cancels it — every instance leaks its goroutine", key)
		}
	}
}

// fieldKeyOf resolves an expression of the form x.field (possibly
// index-wrapped, e.g. x.clients[conn]) to a tracked field-store key.
func (c *checker) fieldKeyOf(e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fld, owner, ok := vet.FieldSelection(c.info, sel)
	if !ok {
		return "", false
	}
	key, ok := vet.FieldKey(owner, fld)
	if !ok || c.fieldStores == nil {
		return "", false
	}
	_, tracked := c.fieldStores[key]
	return key, tracked
}

// localVar resolves an identifier expression to a function-local
// variable object.
func localVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil || v.IsField() || v.Parent() == nil {
		return nil
	}
	// Package-scope vars have the package scope as parent; locals sit in
	// nested scopes. Either way a use keeps the watch reachable, so the
	// distinction does not matter for clearing ownership.
	return v
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := vet.Callee(info, call); fn != nil {
		return fn.Name()
	}
	return "watch constructor"
}
